//! Packed-network execution: exact integer/f32-lane GEMM kernels for
//! packed layers, f32 fallbacks for unpacked ones, activation
//! re-quantization between layers.
//!
//! The engine is **batch-aware**: a multi-sample input runs one kernel
//! invocation per layer — weights are read in their pack-time kernel
//! layout ([`KernelWeights`]; tier-path rows are decoded once for the
//! whole batch), per-column activation sums are computed once per
//! (sample, group) patch matrix, and the parallel split distributes over
//! `samples × output rows` so small layers still saturate threads.
//! Because every accumulator tier computes an *exact* sum (integers, or
//! f32 lanes bounded below 2^24), batching never changes a sample's
//! result: with per-sample activation scales ([`ActQuant::PerSample`])
//! each sample's output is bit-identical to running it alone.
//!
//! Determinism contract (mirrors `instantnet-tensor`): accumulation is
//! exact, dequantization is elementwise, and every parallel region
//! assigns disjoint output slices by index — results are bit-identical at
//! any thread count.

use crate::{is_depthwise, Accum, KernelWeights, PackedGemm, PackedOp, Storage};
use instantnet_nn::layers::Activation;
use instantnet_parallel::{gate, max_threads, par_chunks_mut, parallel_map_indexed};
use instantnet_quant::{BitWidth, CodeLane, Quantizer};
use instantnet_tensor::tensor::{im2col, im2col_generic};
use instantnet_tensor::Tensor;

/// Work threshold below which kernels run single-threaded (same policy and
/// value as the tensor crate's, which is crate-private there).
const PAR_FLOP_THRESHOLD: usize = 1 << 18;

/// Granularity of the data-dependent activation scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ActQuant {
    /// One scale over the whole input tensor, batch dimension included —
    /// the fake-quant training semantics ([`crate::PackedModel::forward`]).
    PerBatch,
    /// One scale per dim-0 sample — the serving semantics
    /// ([`crate::PackedModel::forward_batch`]): aggregated requests are
    /// quantized independently, so each sample's output is bit-identical
    /// to a batch-of-one forward of that sample.
    PerSample,
}

/// Runs `ops` in order over `x`.
pub(crate) fn exec_ops(
    ops: &[PackedOp],
    x: &Tensor,
    bits: BitWidth,
    quantizer: Quantizer,
    aq: ActQuant,
) -> Tensor {
    let mut cur = x.clone();
    for op in ops {
        cur = exec_op(op, &cur, bits, quantizer, aq);
    }
    cur
}

fn exec_op(
    op: &PackedOp,
    x: &Tensor,
    bits: BitWidth,
    quantizer: Quantizer,
    aq: ActQuant,
) -> Tensor {
    match op {
        PackedOp::Conv {
            gemm,
            cg,
            r,
            s,
            stride,
            pad,
            groups,
            quantize_input,
        } => exec_conv(
            gemm,
            *cg,
            *r,
            *s,
            *stride,
            *pad,
            *groups,
            *quantize_input,
            x,
            bits,
            quantizer,
            aq,
        ),
        PackedOp::Linear { gemm } => exec_linear(gemm, x, bits, quantizer, aq),
        PackedOp::Act(a) => match a {
            Activation::Relu => x.map(|v| v.max(0.0)),
            Activation::Relu6 => x.map(|v| v.clamp(0.0, 6.0)),
            Activation::None => x.clone(),
        },
        PackedOp::GlobalAvgPool => global_avg_pool(x),
        PackedOp::Residual {
            body,
            shortcut,
            post_relu,
        } => {
            let b = exec_ops(body, x, bits, quantizer, aq);
            let s = if shortcut.is_empty() {
                x.clone()
            } else {
                exec_ops(shortcut, x, bits, quantizer, aq)
            };
            assert_eq!(b.dims(), s.dims(), "residual branch shapes must match");
            let mut data: Vec<f32> = b
                .data()
                .iter()
                .zip(s.data())
                .map(|(&u, &v)| u + v)
                .collect();
            if *post_relu {
                for v in &mut data {
                    *v = v.max(0.0);
                }
            }
            Tensor::from_vec(b.dims().to_vec(), data)
        }
    }
}

fn global_avg_pool(x: &Tensor) -> Tensor {
    let dims = x.dims();
    assert_eq!(dims.len(), 4, "global average pool input must be rank 4");
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let hw = h * w;
    let inv = 1.0 / hw as f32;
    let mut out = vec![0.0f32; n * c];
    for i in 0..n {
        for ch in 0..c {
            let base = (i * c + ch) * hw;
            let mut acc = 0.0f32;
            for &v in &x.data()[base..base + hw] {
                acc += v;
            }
            out[i * c + ch] = acc * inv;
        }
    }
    Tensor::from_vec(vec![n, c], out)
}

// ---------------------------------------------------------------------------
// Accumulator tiers
// ---------------------------------------------------------------------------

/// One exact accumulator tier of the packed GEMM: the lane type codes
/// travel in (`Code`), the type partial sums reduce into (`Acc`), and the
/// type column sums reduce into (`Cs`). Every tier computes the *same
/// exact value* — f32 arithmetic on integers below 2^24 is lossless — so
/// results are independent of the tier's internal order, the batch
/// packing, and the thread count.
trait Tier: Sync {
    type Code: CodeLane + Default;
    type Acc: Copy + Default;
    type Cs: Copy + Default;

    /// Decodes one weight row of `cols` codes into `out`.
    fn decode_row(storage: &Storage, row: usize, cols: usize, out: &mut [Self::Code]);
    /// `acc[j] += Σ_p wrow[p] · acts[p · acc.len() + j]`, exactly.
    fn accumulate(acc: &mut [Self::Acc], wrow: &[Self::Code], acts: &[Self::Code]);
    fn mad(acc: Self::Acc, w: Self::Code, a: Self::Code) -> Self::Acc;
    fn cs_add(cs: Self::Cs, a: Self::Code) -> Self::Cs;
    fn acc_f32(a: Self::Acc) -> f32;
    fn cs_f32(c: Self::Cs) -> f32;

    /// Per-column sums of a `[rows, ncols]` code block (the colsum
    /// correction input, consumed by offset-carrying layers).
    fn colsums(acts: &[Self::Code], rows: usize, ncols: usize) -> Vec<f32> {
        let mut cs = vec![Self::Cs::default(); ncols];
        for p in 0..rows {
            for (o, &v) in cs.iter_mut().zip(&acts[p * ncols..(p + 1) * ncols]) {
                *o = Self::cs_add(*o, v);
            }
        }
        cs.into_iter().map(Self::cs_f32).collect()
    }
}

/// Bound < 2^24: exact f32 lanes (vectorizes on baseline x86-64, which
/// has no packed i32 multiply).
struct TierF32;
/// Bound ≤ i32::MAX / 2: native i32.
struct TierI32;
/// Anything wider (12/16-bit layers with long reductions).
struct TierI64;

impl Tier for TierF32 {
    type Code = f32;
    type Acc = f32;
    type Cs = f32;

    fn decode_row(storage: &Storage, row: usize, cols: usize, out: &mut [f32]) {
        storage.decode_row_f32(row, cols, out);
    }
    fn accumulate(acc: &mut [f32], wrow: &[f32], acts: &[f32]) {
        (crate::simd::kernels().accumulate_f32)(acc, wrow, acts);
    }
    fn mad(acc: f32, w: f32, a: f32) -> f32 {
        acc + w * a
    }
    fn cs_add(cs: f32, a: f32) -> f32 {
        cs + a
    }
    fn acc_f32(a: f32) -> f32 {
        a
    }
    fn cs_f32(c: f32) -> f32 {
        c
    }
}

impl Tier for TierI32 {
    type Code = i32;
    type Acc = i32;
    // i64 column sums guard 16-bit × long-reduction overflow (shared with
    // the i64 tier; cheap relative to the multiply loop).
    type Cs = i64;

    fn decode_row(storage: &Storage, row: usize, cols: usize, out: &mut [i32]) {
        storage.decode_row(row, cols, out);
    }
    fn accumulate(acc: &mut [i32], wrow: &[i32], acts: &[i32]) {
        (crate::simd::kernels().accumulate_i32)(acc, wrow, acts);
    }
    fn mad(acc: i32, w: i32, a: i32) -> i32 {
        acc + w * a
    }
    fn cs_add(cs: i64, a: i32) -> i64 {
        cs + i64::from(a)
    }
    fn acc_f32(a: i32) -> f32 {
        a as f32
    }
    fn cs_f32(c: i64) -> f32 {
        c as f32
    }
}

impl Tier for TierI64 {
    type Code = i32;
    type Acc = i64;
    type Cs = i64;

    fn decode_row(storage: &Storage, row: usize, cols: usize, out: &mut [i32]) {
        storage.decode_row(row, cols, out);
    }
    fn accumulate(acc: &mut [i64], wrow: &[i32], acts: &[i32]) {
        (crate::simd::kernels().accumulate_i64)(acc, wrow, acts);
    }
    fn mad(acc: i64, w: i32, a: i32) -> i64 {
        acc + i64::from(w) * i64::from(a)
    }
    fn cs_add(cs: i64, a: i32) -> i64 {
        cs + i64::from(a)
    }
    fn acc_f32(a: i64) -> f32 {
        a as f32
    }
    fn cs_f32(c: i64) -> f32 {
        c as f32
    }
}

// ---------------------------------------------------------------------------
// Accumulate kernels (scalar backend — the portable baseline every target
// can run; crate::simd selects between these and the AVX2 kernels)
// ---------------------------------------------------------------------------

/// Column-block width of the integer accumulate kernels: 8 independent
/// accumulator lanes live in registers across the whole reduction, so the
/// inner loop has no accumulator load/store traffic and enough
/// instruction-level parallelism to keep integer pipes full (the wide
/// tiers' answer to the f32 tier's SIMD lanes).
const I32_LANES: usize = 8;
/// i64 lanes are twice as wide, so half as many keep register pressure
/// equivalent.
const I64_LANES: usize = 4;

/// Shared scalar tail of every blocked accumulate kernel: the columns past
/// the last full lane block each walk the `[rows, ncols]` activation block
/// at a hoisted stride of `ncols`. The scalar reference kernels below and
/// the SIMD kernels' ragged tails (`crate::simd`) all delegate here — PR 6
/// left this loop hand-expanded in three near-identical copies.
///
/// The partial sum starts from the additive identity and is added to
/// `acc[j]` once at the end, exactly like the in-register lane blocks, so
/// tail columns see the same association order as blocked ones (exact for
/// integers by associativity, exact for the f32 tier by the sub-2^24
/// bound).
pub(crate) fn accumulate_col_tail<C: Copy, A: Copy + Default + std::ops::Add<Output = A>>(
    acc: &mut [A],
    wrow: &[C],
    acts: &[C],
    start: usize,
    mad: impl Fn(A, C, C) -> A,
) {
    let ncols = acc.len();
    for (j, a) in acc.iter_mut().enumerate().skip(start) {
        let mut lane = A::default();
        let mut idx = j;
        for &wv in wrow {
            lane = mad(lane, wv, acts[idx]);
            idx += ncols;
        }
        *a = *a + lane;
    }
}

/// Column-register-blocked reduction shared by the integer scalar kernels:
/// each block of `LANES` output columns runs the full reduction with its
/// partial sums held in a local array (the wide tiers' answer to the f32
/// tier's SIMD lanes), row strides hoisted to a running offset, and the
/// ragged tail falling through to [`accumulate_col_tail`].
fn accumulate_blocked_scalar<C, A, const LANES: usize>(
    acc: &mut [A],
    wrow: &[C],
    acts: &[C],
    mad: impl Fn(A, C, C) -> A + Copy,
) where
    C: Copy,
    A: Copy + Default + std::ops::Add<Output = A>,
{
    let ncols = acc.len();
    let mut j = 0usize;
    while j + LANES <= ncols {
        let mut lanes = [A::default(); LANES];
        let mut base = j;
        for &wv in wrow {
            let a = &acts[base..base + LANES];
            for (l, &av) in lanes.iter_mut().zip(a) {
                *l = mad(*l, wv, av);
            }
            base += ncols;
        }
        for (o, l) in acc[j..j + LANES].iter_mut().zip(lanes) {
            *o = *o + l;
        }
        j += LANES;
    }
    accumulate_col_tail(acc, wrow, acts, j, mad);
}

/// `acc[j] += Σ_p wrow[p] · acts[p][j]` in i32 — the native narrow tier.
pub(crate) fn accumulate_i32_scalar(acc: &mut [i32], wrow: &[i32], acts: &[i32]) {
    accumulate_blocked_scalar::<_, _, I32_LANES>(acc, wrow, acts, |l, w, a| l + w * a);
}

/// i64 variant for 12/16-bit layers whose partial sums can overflow i32.
pub(crate) fn accumulate_i64_scalar(acc: &mut [i64], wrow: &[i32], acts: &[i32]) {
    accumulate_blocked_scalar::<_, _, I64_LANES>(acc, wrow, acts, |l, w, a| {
        l + i64::from(w) * i64::from(a)
    });
}

/// Exact-f32 variant: codes are small integers, so every product and
/// partial sum stays below 2^24 and the arithmetic is lossless — same
/// integer result, but f32 lanes vectorize on targets whose baseline ISA
/// has no packed i32 multiply. Four weight rows per pass for
/// instruction-level parallelism.
pub(crate) fn accumulate_f32_scalar(acc: &mut [f32], wrow: &[f32], acts: &[f32]) {
    let ncols = acc.len();
    let mut quads = wrow.chunks_exact(4);
    let mut base = 0usize;
    for w in quads.by_ref() {
        let (a0, rest) = acts[base..base + 4 * ncols].split_at(ncols);
        let (a1, rest) = rest.split_at(ncols);
        let (a2, a3) = rest.split_at(ncols);
        let (w0, w1, w2, w3) = (w[0], w[1], w[2], w[3]);
        for (j, o) in acc.iter_mut().enumerate() {
            *o += w0 * a0[j] + w1 * a1[j] + w2 * a2[j] + w3 * a3[j];
        }
        base += 4 * ncols;
    }
    for &wv in quads.remainder() {
        let a = &acts[base..base + ncols];
        for (o, &av) in acc.iter_mut().zip(a) {
            *o += wv * av;
        }
        base += ncols;
    }
}

// ---------------------------------------------------------------------------
// Batched integer execution
// ---------------------------------------------------------------------------

/// Quantizes the batch to codes in the consuming kernel's lane type `L` —
/// one pass into one buffer — plus one decode scale per sample (`PerBatch`
/// replicates the single whole-tensor scale). Shared by the tier path
/// (`L = T::Code`) and the fused path (`L = F::Lane`).
fn sample_codes<L: CodeLane + Default>(
    x: &Tensor,
    n: usize,
    sample_len: usize,
    bits: BitWidth,
    quantizer: Quantizer,
    aq: ActQuant,
) -> (Vec<L>, Vec<f32>) {
    let mut codes = vec![L::default(); n * sample_len];
    let mut scales = vec![0.0f32; n];
    let quantize = |src: &[f32], dst: &mut [L]| {
        quantizer
            .activation_codes_into(src, bits, dst)
            .expect("integer storage implies quantized activations")
    };
    match aq {
        ActQuant::PerBatch => scales.fill(quantize(x.data(), &mut codes)),
        ActQuant::PerSample => {
            // One work item per sample: its scale slot and its code slice.
            let mut work: Vec<(&mut f32, &mut [L])> = scales
                .iter_mut()
                .zip(codes.chunks_mut(sample_len.max(1)))
                .collect();
            gate(n * sample_len >= PAR_FLOP_THRESHOLD, || {
                par_chunks_mut(&mut work, 1, |i, item| {
                    let (scale, dst) = &mut item[0];
                    **scale = quantize(&x.data()[i * sample_len..(i + 1) * sample_len], dst);
                })
            });
        }
    }
    (codes, scales)
}

/// Runs `f(row, out_row, scratch)` over the `ncols`-wide rows of `out` in
/// parallel, handing each worker one contiguous run of rows and one
/// `scratch()` value for the whole run — accumulator buffers are allocated
/// per worker, not per output row. Rows are disjoint and indexed, so the
/// result is independent of the thread count.
fn par_rows<S>(
    out: &mut [f32],
    ncols: usize,
    scratch: impl Fn() -> S + Sync,
    f: impl Fn(usize, &mut [f32], &mut S) + Sync,
) {
    if ncols == 0 {
        return;
    }
    let per_worker = (out.len() / ncols).div_ceil(max_threads()).max(1);
    par_chunks_mut(out, per_worker * ncols, |ci, run| {
        let mut s = scratch();
        for (j, orow) in run.chunks_mut(ncols).enumerate() {
            f(ci * per_worker + j, orow, &mut s);
        }
    });
}

/// Decodes the whole packed weight matrix once per forward on the tier
/// path; the decoded rows are shared by every sample of the batch (and by
/// every chunk of the parallel GEMM), so decode cost is independent of the
/// batch size.
fn decode_all<T: Tier>(storage: &Storage, rows: usize, cols: usize) -> Vec<T::Code> {
    let mut out = vec![T::Code::default(); rows * cols];
    for (row, chunk) in out.chunks_mut(cols).enumerate() {
        T::decode_row(storage, row, cols, chunk);
    }
    out
}

/// Whether the `[cg·r·s, oh·ow]` patch matrix of a conv *is* its input
/// block: a 1×1, stride-1, unpadded kernel unfolds to the identity, so the
/// GEMM reads the code planes in place and `im2col` is skipped.
fn patches_are_input(r: usize, s: usize, stride: usize, pad: usize) -> bool {
    r == 1 && s == 1 && stride == 1 && pad == 0
}

/// Batched integer conv: per-sample activation codes, per-(sample, group)
/// `im2col` patch matrices and column sums computed once per forward, and
/// one GEMM parallelized over `samples × output rows` (each chunk is one
/// output row of one sample — disjoint writes, deterministic).
///
/// The pack-time accumulator tier stays safe at any batch size: batching
/// adds GEMM *columns* (more output pixels), never reduction *length*, so
/// the worst-case partial-sum bound `max|w|·max|a|·cols` is unchanged.
#[allow(clippy::too_many_arguments)]
fn conv_int<T: Tier>(
    gemm: &PackedGemm,
    cg: usize,
    r: usize,
    s: usize,
    stride: usize,
    pad: usize,
    groups: usize,
    x: &Tensor,
    bits: BitWidth,
    quantizer: Quantizer,
    aq: ActQuant,
) -> Tensor {
    let dims = x.dims();
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let k = gemm.rows;
    let kg = k / groups;
    let oh = (h + 2 * pad - r) / stride + 1;
    let ow = (w + 2 * pad - s) / stride + 1;
    let ncols = oh * ow;

    let (codes, scales) = sample_codes::<T::Code>(x, n, c * h * w, bits, quantizer, aq);

    if let KernelWeights::Taps(taps) = &gemm.kernel {
        let tap = |t: usize| T::Code::from_code(taps[t]);
        return conv_dw::<T>(gemm, tap, r, s, stride, pad, &codes, &scales, dims);
    }

    // Patch matrices, one `[cols, ncols]` block per (sample, group).
    let plane = cg * h * w;
    let patches: Vec<Vec<T::Code>> = if patches_are_input(r, s, stride, pad) {
        Vec::new()
    } else {
        gate(n * groups * gemm.cols * ncols >= PAR_FLOP_THRESHOLD, || {
            parallel_map_indexed(n * groups, |e| {
                im2col_generic(
                    &codes[e * plane..(e + 1) * plane],
                    cg,
                    h,
                    w,
                    r,
                    s,
                    stride,
                    pad,
                )
                .0
            })
        })
    };
    let block = |e: usize| match patches.get(e) {
        Some(b) => &b[..],
        None => &codes[e * plane..(e + 1) * plane],
    };
    let colsums: Option<Vec<Vec<f32>>> = gemm.has_offset.then(|| {
        (0..n * groups)
            .map(|e| T::colsums(block(e), gemm.cols, ncols))
            .collect()
    });
    let wdec = decode_all::<T>(&gemm.storage, k, gemm.cols);

    let mut out = vec![0.0f32; n * k * ncols];
    let flops = 2 * n * k * gemm.cols * ncols;
    gate(flops >= PAR_FLOP_THRESHOLD, || {
        par_rows(
            &mut out,
            ncols,
            || vec![T::Acc::default(); ncols],
            |ci, orow, acc| {
                let (i, row) = (ci / k, ci % k);
                let e = i * groups + row / kg;
                acc.fill(T::Acc::default());
                T::accumulate(acc, &wdec[row * gemm.cols..(row + 1) * gemm.cols], block(e));
                let (a, bias, bco, sa) = (
                    gemm.scale[row],
                    gemm.bias[row],
                    gemm.colsum_coef[row],
                    scales[i],
                );
                match &colsums {
                    Some(cs) => {
                        let cs = &cs[e];
                        for (j, o) in orow.iter_mut().enumerate() {
                            *o = sa * (a * T::acc_f32(acc[j]) + bco * cs[j]) + bias;
                        }
                    }
                    None => {
                        for (o, &v) in orow.iter_mut().zip(acc.iter()) {
                            *o = sa * a * T::acc_f32(v) + bias;
                        }
                    }
                }
            },
        )
    });
    Tensor::from_vec(vec![n, k, oh, ow], out)
}

/// `dst[j] = f(dst[j], src[j · stride])` — one tap of one output row. The
/// stride-1 arm is a plain zip the compiler vectorises.
fn axpy_strided<A: Copy, C: Copy>(dst: &mut [A], src: &[C], stride: usize, f: impl Fn(A, C) -> A) {
    if stride == 1 {
        for (o, &v) in dst.iter_mut().zip(src) {
            *o = f(*o, v);
        }
    } else {
        for (o, &v) in dst.iter_mut().zip(src.iter().step_by(stride)) {
            *o = f(*o, v);
        }
    }
}

/// Depthwise conv (`groups == channels`): no patch matrix, no
/// 1-column-per-group GEMM — each (sample, channel) plane is convolved
/// directly, one tap at a time: tap `(ki, kj)` is a single axpy over the
/// valid span of every output row (bounds hoisted out of the pixel loop,
/// contiguous at stride 1). Every pixel still accumulates its taps in
/// `im2col` row order, so the result matches the generic path bit for bit
/// — including the f32 fallback, which runs this same loop with
/// `T = TierF32`, real-valued `tap`s and unit `scales`. The column sum
/// rides along only for offset-carrying (DoReFa) layers.
#[allow(clippy::too_many_arguments)]
fn conv_dw<T: Tier>(
    gemm: &PackedGemm,
    tap: impl Fn(usize) -> T::Code + Sync,
    r: usize,
    s: usize,
    stride: usize,
    pad: usize,
    codes: &[T::Code],
    scales: &[f32],
    dims: &[usize],
) -> Tensor {
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let oh = (h + 2 * pad - r) / stride + 1;
    let ow = (w + 2 * pad - s) / stride + 1;
    let ncols = oh * ow;
    // Output positions whose tap `k` lands inside an `len`-long input axis:
    // 0 ≤ o·stride + k − pad < len.
    let span = |k: usize, len: usize, olen: usize| {
        let lo = pad.saturating_sub(k).div_ceil(stride);
        let hi = (len + pad).saturating_sub(k).div_ceil(stride).min(olen);
        lo..hi.max(lo)
    };
    let mut out = vec![0.0f32; n * c * ncols];
    let flops = 2 * n * c * r * s * ncols;
    let scratch = || {
        let cs = if gemm.has_offset { ncols } else { 0 };
        (vec![T::Acc::default(); ncols], vec![T::Cs::default(); cs])
    };
    gate(flops >= PAR_FLOP_THRESHOLD, || {
        par_rows(&mut out, ncols, scratch, |ci, orow, (acc, cs)| {
            let (i, ch) = (ci / c, ci % c);
            let plane = &codes[ci * h * w..(ci + 1) * h * w];
            acc.fill(T::Acc::default());
            cs.fill(T::Cs::default());
            for ki in 0..r {
                for kj in 0..s {
                    let wv = tap(ch * r * s + ki * s + kj);
                    let xs = span(kj, w, ow);
                    if xs.is_empty() {
                        continue;
                    }
                    let ix0 = xs.start * stride + kj - pad;
                    for oy in span(ki, h, oh) {
                        let src = &plane[(oy * stride + ki - pad) * w + ix0..];
                        let at = oy * ow;
                        let dst = &mut acc[at + xs.start..at + xs.end];
                        axpy_strided(dst, src, stride, |o, v| T::mad(o, wv, v));
                        if gemm.has_offset {
                            let dst = &mut cs[at + xs.start..at + xs.end];
                            axpy_strided(dst, src, stride, T::cs_add);
                        }
                    }
                }
            }
            let (a, bias, bco, sa) = (
                gemm.scale[ch],
                gemm.bias[ch],
                gemm.colsum_coef[ch],
                scales[i],
            );
            if gemm.has_offset {
                for (j, o) in orow.iter_mut().enumerate() {
                    *o = sa * (a * T::acc_f32(acc[j]) + bco * T::cs_f32(cs[j])) + bias;
                }
            } else {
                for (o, &v) in orow.iter_mut().zip(acc.iter()) {
                    *o = sa * a * T::acc_f32(v) + bias;
                }
            }
        })
    });
    Tensor::from_vec(vec![n, c, oh, ow], out)
}

/// Batched integer linear: samples travel as GEMM columns (codes
/// transposed to `[features, n]`), so one weight-row decode serves the
/// whole batch and the dequant applies each column's own sample scale.
fn linear_int<T: Tier>(
    g: &PackedGemm,
    x: &Tensor,
    bits: BitWidth,
    quantizer: Quantizer,
    aq: ActQuant,
) -> Tensor {
    let (n, f) = (x.dims()[0], x.dims()[1]);
    let (codes, scales) = sample_codes::<T::Code>(x, n, f, bits, quantizer, aq);
    // Per-sample colsum = the transposed GEMM's per-column sum.
    let colsums: Option<Vec<f32>> = g.has_offset.then(|| {
        (0..n)
            .map(|i| {
                let mut cs = T::Cs::default();
                for &v in &codes[i * f..(i + 1) * f] {
                    cs = T::cs_add(cs, v);
                }
                T::cs_f32(cs)
            })
            .collect()
    });
    let mut tcodes = vec![T::Code::default(); f * n];
    for i in 0..n {
        for p in 0..f {
            tcodes[p * n + i] = codes[i * f + p];
        }
    }
    let mut tmp = vec![0.0f32; g.rows * n];
    let flops = 2 * g.rows * f * n;
    let scratch = || (vec![T::Code::default(); f], vec![T::Acc::default(); n]);
    gate(flops >= PAR_FLOP_THRESHOLD, || {
        par_rows(&mut tmp, n, scratch, |row, orow, (wrow, acc)| {
            T::decode_row(&g.storage, row, f, wrow);
            acc.fill(T::Acc::default());
            T::accumulate(acc, wrow, &tcodes);
            let (a, bias, bco) = (g.scale[row], g.bias[row], g.colsum_coef[row]);
            match &colsums {
                Some(cs) => {
                    for (i, o) in orow.iter_mut().enumerate() {
                        *o = scales[i] * (a * T::acc_f32(acc[i]) + bco * cs[i]) + bias;
                    }
                }
                None => {
                    for (i, o) in orow.iter_mut().enumerate() {
                        *o = scales[i] * a * T::acc_f32(acc[i]) + bias;
                    }
                }
            }
        })
    });
    let mut out = vec![0.0f32; n * g.rows];
    for kk in 0..g.rows {
        for i in 0..n {
            out[i * g.rows + kk] = tmp[kk * n + i];
        }
    }
    Tensor::from_vec(vec![n, g.rows], out)
}

// ---------------------------------------------------------------------------
// Fused low-bit execution (≤ 8-bit storage: multiply on packed codes)
// ---------------------------------------------------------------------------

/// One fused-kernel flavour: which lane type activations are emitted in
/// and how many reduction rows share one pack-time weight word
/// (`pack::pack_words`). The fused kernels multiply directly on packed
/// codes — nibble weights ride as `w + 8 ∈ [0, 15]` unsigned bytes so they
/// can sit on `maddubs`' unsigned operand, and the shift is undone by an
/// exact integer `-8·colsum` correction before dequant (DESIGN.md §6g has
/// the overflow-bound argument; pack time gates eligibility).
pub(crate) trait FusedTier {
    /// Activation lane: `i8` for nibble weights (|a| ≤ 15 at ≤ 4 bits),
    /// `i16` for i8 weights (|a| ≤ 255 at ≤ 8 bits).
    type Lane: CodeLane + Default + Into<i32>;
    /// Reduction rows per packed weight word (4 bytes / 2 i16 halves).
    const GROUP: usize;
    /// Shift added to every weight code at word-pack time; the kernel's
    /// accumulator is off by `WEIGHT_BIAS · colsum` per column, which the
    /// driver subtracts exactly in i32.
    const WEIGHT_BIAS: i32;
    /// The active backend's fused kernel, or `None` (scalar backend) —
    /// callers fall back to the decode-then-multiply tier path.
    fn kernel() -> Option<crate::simd::FusedKernel<Self::Lane>>;
}

/// Nibble storage (≤ 4-bit weights): `maddubs`-class kernels.
pub(crate) struct FusedNibble;
/// I8 storage (5–8-bit weights): `madd`-on-i16-pairs kernels.
pub(crate) struct FusedI8;

impl FusedTier for FusedNibble {
    type Lane = i8;
    const GROUP: usize = 4;
    const WEIGHT_BIAS: i32 = 8;
    fn kernel() -> Option<crate::simd::FusedKernel<i8>> {
        crate::simd::kernels().gemm_nibble
    }
}

impl FusedTier for FusedI8 {
    type Lane = i16;
    const GROUP: usize = 2;
    const WEIGHT_BIAS: i32 = 0;
    fn kernel() -> Option<crate::simd::FusedKernel<i16>> {
        crate::simd::kernels().gemm_i8
    }
}

/// Repacks a `[rows, ncols]` activation block into the fused layout: rows
/// group `G` at a time and each group's lanes sit adjacent per column
/// (`out[(q·ncols + j)·G + k] = block[(q·G + k)·ncols + j]`), with the
/// final partial group zero-padded. One contiguous load then feeds a whole
/// weight word's worth of multiplies per column block.
fn interleave_block<L: Copy + Default>(block: &[L], rows: usize, ncols: usize, g: usize) -> Vec<L> {
    let groups = rows.div_ceil(g);
    let mut out = vec![L::default(); groups * g * ncols];
    for p in 0..rows {
        let (q, k) = (p / g, p % g);
        let src = &block[p * ncols..(p + 1) * ncols];
        let dst = &mut out[q * g * ncols..(q + 1) * g * ncols];
        for (j, &v) in src.iter().enumerate() {
            dst[j * g + k] = v;
        }
    }
    out
}

/// Exact i32 per-column sums of an interleaved block (zero padding adds
/// nothing). Feeds the `-WEIGHT_BIAS·colsum` re-centering correction and
/// the offset dequant term; pack time builds fused words only for layers
/// whose sums fit.
fn colsums_i32<L: Copy + Into<i32>>(inter: &[L], ncols: usize, g: usize) -> Vec<i32> {
    let mut cs = vec![0i32; ncols];
    for gchunk in inter.chunks(g * ncols) {
        for (j, lanes) in gchunk.chunks(g).enumerate() {
            for &v in lanes {
                cs[j] += v.into();
            }
        }
    }
    cs
}

/// Fused ≤ 8-bit conv: same structure as [`conv_int`], but the GEMM
/// multiplies on packed codes — activations are emitted in the
/// storage-matched lane type and interleaved once per (sample, group)
/// (straight from the code planes for 1×1 convs), weights are the
/// pack-time `wwords`. Returns `None` when the active backend has no fused
/// kernel; the caller falls back to the tier path. Bit-identity with that
/// path: the kernel accumulates the exact integer sum (pack time bounds it
/// inside i32), the correction is exact integer arithmetic, and the
/// dequant expressions below match the tier path's term for term with
/// `i32 → f32` casts that round identically to every tier's `acc_f32`.
#[allow(clippy::too_many_arguments)]
fn conv_fused<F: FusedTier>(
    gemm: &PackedGemm,
    wwords: &[u32],
    cg: usize,
    r: usize,
    s: usize,
    stride: usize,
    pad: usize,
    groups: usize,
    x: &Tensor,
    bits: BitWidth,
    quantizer: Quantizer,
    aq: ActQuant,
) -> Option<Tensor> {
    let kernel = F::kernel()?;
    let dims = x.dims();
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let k = gemm.rows;
    let kg = k / groups;
    let oh = (h + 2 * pad - r) / stride + 1;
    let ow = (w + 2 * pad - s) / stride + 1;
    let ncols = oh * ow;

    let (codes, scales) = sample_codes::<F::Lane>(x, n, c * h * w, bits, quantizer, aq);

    // The nibble correction needs column sums even for symmetric codes.
    let need_cs = F::WEIGHT_BIAS != 0 || gemm.has_offset;
    let plane = cg * h * w;
    let unfold = !patches_are_input(r, s, stride, pad);
    let blocks: Vec<(Vec<F::Lane>, Vec<i32>)> =
        gate(n * groups * gemm.cols * ncols >= PAR_FLOP_THRESHOLD, || {
            parallel_map_indexed(n * groups, |e| {
                let input = &codes[e * plane..(e + 1) * plane];
                let inter = if unfold {
                    let (block, _, _) = im2col_generic(input, cg, h, w, r, s, stride, pad);
                    interleave_block(&block, gemm.cols, ncols, F::GROUP)
                } else {
                    interleave_block(input, gemm.cols, ncols, F::GROUP)
                };
                let cs = if need_cs {
                    colsums_i32(&inter, ncols, F::GROUP)
                } else {
                    Vec::new()
                };
                (inter, cs)
            })
        });
    let wstride = gemm.cols.div_ceil(F::GROUP);

    let mut out = vec![0.0f32; n * k * ncols];
    let flops = 2 * n * k * gemm.cols * ncols;
    gate(flops >= PAR_FLOP_THRESHOLD, || {
        par_rows(
            &mut out,
            ncols,
            || vec![0i32; ncols],
            |ci, orow, acc| {
                let (i, row) = (ci / k, ci % k);
                let (block, cs) = &blocks[i * groups + row / kg];
                acc.fill(0);
                kernel(
                    acc,
                    &wwords[row * wstride..(row + 1) * wstride],
                    block,
                    ncols,
                );
                if F::WEIGHT_BIAS != 0 {
                    for (a, &c) in acc.iter_mut().zip(cs.iter()) {
                        *a -= F::WEIGHT_BIAS * c;
                    }
                }
                let (a, bias, bco, sa) = (
                    gemm.scale[row],
                    gemm.bias[row],
                    gemm.colsum_coef[row],
                    scales[i],
                );
                if gemm.has_offset {
                    for (j, o) in orow.iter_mut().enumerate() {
                        *o = sa * (a * acc[j] as f32 + bco * cs[j] as f32) + bias;
                    }
                } else {
                    for (o, &v) in orow.iter_mut().zip(acc.iter()) {
                        *o = sa * a * v as f32 + bias;
                    }
                }
            },
        )
    });
    Some(Tensor::from_vec(vec![n, k, oh, ow], out))
}

/// Fused ≤ 8-bit linear: samples travel as GEMM columns exactly as in
/// [`linear_int`], with the transposed code block built directly in the
/// interleaved layout. Same fallback and bit-identity contract as
/// [`conv_fused`].
fn linear_fused<F: FusedTier>(
    g: &PackedGemm,
    wwords: &[u32],
    x: &Tensor,
    bits: BitWidth,
    quantizer: Quantizer,
    aq: ActQuant,
) -> Option<Tensor> {
    let kernel = F::kernel()?;
    let (n, f) = (x.dims()[0], x.dims()[1]);
    let (codes, scales) = sample_codes::<F::Lane>(x, n, f, bits, quantizer, aq);

    let fgroups = f.div_ceil(F::GROUP);
    let mut inter = vec![F::Lane::default(); fgroups * F::GROUP * n];
    for i in 0..n {
        for (p, &v) in codes[i * f..(i + 1) * f].iter().enumerate() {
            let (q, kk) = (p / F::GROUP, p % F::GROUP);
            inter[(q * n + i) * F::GROUP + kk] = v;
        }
    }
    let cs: Vec<i32> = if F::WEIGHT_BIAS != 0 || g.has_offset {
        (0..n)
            .map(|i| codes[i * f..(i + 1) * f].iter().map(|&v| v.into()).sum())
            .collect()
    } else {
        Vec::new()
    };
    let wstride = f.div_ceil(F::GROUP);

    let mut tmp = vec![0.0f32; g.rows * n];
    let flops = 2 * g.rows * f * n;
    gate(flops >= PAR_FLOP_THRESHOLD, || {
        par_rows(
            &mut tmp,
            n,
            || vec![0i32; n],
            |row, orow, acc| {
                acc.fill(0);
                kernel(acc, &wwords[row * wstride..(row + 1) * wstride], &inter, n);
                if F::WEIGHT_BIAS != 0 {
                    for (a, &c) in acc.iter_mut().zip(&cs) {
                        *a -= F::WEIGHT_BIAS * c;
                    }
                }
                let (a, bias, bco) = (g.scale[row], g.bias[row], g.colsum_coef[row]);
                if g.has_offset {
                    for (i, o) in orow.iter_mut().enumerate() {
                        *o = scales[i] * (a * acc[i] as f32 + bco * cs[i] as f32) + bias;
                    }
                } else {
                    for (i, o) in orow.iter_mut().enumerate() {
                        *o = scales[i] * a * acc[i] as f32 + bias;
                    }
                }
            },
        )
    });
    let mut out = vec![0.0f32; n * g.rows];
    for kk in 0..g.rows {
        for i in 0..n {
            out[i * g.rows + kk] = tmp[kk * n + i];
        }
    }
    Some(Tensor::from_vec(vec![n, g.rows], out))
}

// ---------------------------------------------------------------------------
// f32 fallback path (full precision, raw-input stems, > 16 bits)
// ---------------------------------------------------------------------------

/// Quantizes activations at the requested granularity on the f32 path.
/// `PerSample` slices keep serving outputs bit-identical to batch-of-one
/// forwards; full-precision bit-widths pass through unchanged either way.
fn quantize_acts_f32(x: &Tensor, bits: BitWidth, quantizer: Quantizer, aq: ActQuant) -> Tensor {
    match aq {
        ActQuant::PerBatch => quantizer.quantize_activations_tensor(x, bits),
        ActQuant::PerSample => {
            let n = x.dims()[0];
            let sample_len = x.len() / n.max(1);
            let mut data = Vec::with_capacity(x.len());
            for i in 0..n {
                let sample = Tensor::from_vec(
                    vec![sample_len],
                    x.data()[i * sample_len..(i + 1) * sample_len].to_vec(),
                );
                data.extend_from_slice(quantizer.quantize_activations_tensor(&sample, bits).data());
            }
            Tensor::from_vec(x.dims().to_vec(), data)
        }
    }
}

/// Dispatches per-sample work on the f32 path: serial for batch 1 (keeps
/// row-level parallelism inside the matmul live), serialized under the
/// threshold, sample-parallel otherwise. All three produce identical
/// results.
fn run_samples(n: usize, flops: usize, f: impl Fn(usize) -> Vec<f32> + Sync) -> Vec<Vec<f32>> {
    if n == 1 {
        vec![f(0)]
    } else {
        gate(flops >= PAR_FLOP_THRESHOLD, || parallel_map_indexed(n, &f))
    }
}

#[allow(clippy::too_many_arguments)]
fn exec_conv(
    gemm: &PackedGemm,
    cg: usize,
    r: usize,
    s: usize,
    stride: usize,
    pad: usize,
    groups: usize,
    quantize_input: bool,
    x: &Tensor,
    bits: BitWidth,
    quantizer: Quantizer,
    aq: ActQuant,
) -> Tensor {
    let dims = x.dims();
    assert_eq!(dims.len(), 4, "conv input must be rank 4");
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert_eq!(c, cg * groups, "conv input channel mismatch");

    if gemm.storage.is_integer() {
        if let (KernelWeights::Words(ww), true) = (&gemm.kernel, crate::simd::fused_gemm_enabled())
        {
            let fused = match &gemm.storage {
                Storage::Nibble(_) => conv_fused::<FusedNibble>(
                    gemm, ww, cg, r, s, stride, pad, groups, x, bits, quantizer, aq,
                ),
                Storage::I8(_) => conv_fused::<FusedI8>(
                    gemm, ww, cg, r, s, stride, pad, groups, x, bits, quantizer, aq,
                ),
                _ => None,
            };
            if let Some(y) = fused {
                return y;
            }
        }
        return match gemm.accum {
            Accum::F32 => {
                conv_int::<TierF32>(gemm, cg, r, s, stride, pad, groups, x, bits, quantizer, aq)
            }
            Accum::I32 => {
                conv_int::<TierI32>(gemm, cg, r, s, stride, pad, groups, x, bits, quantizer, aq)
            }
            Accum::I64 => {
                conv_int::<TierI64>(gemm, cg, r, s, stride, pad, groups, x, bits, quantizer, aq)
            }
        };
    }

    let Storage::F32(wdata) = &gemm.storage else {
        unreachable!("non-integer storage is f32");
    };
    let k = gemm.rows;
    let kg = k / groups;
    let oh = (h + 2 * pad - r) / stride + 1;
    let ow = (w + 2 * pad - s) / stride + 1;
    let ncols = oh * ow;
    let flops = 2 * n * k * gemm.cols * ncols;
    let xq = if quantize_input {
        quantize_acts_f32(x, bits, quantizer, aq)
    } else {
        x.clone()
    };

    if is_depthwise(cg, k, groups) {
        // The integer depthwise loop on f32 lanes: real-valued taps, no
        // activation scale to undo, no offset.
        let tap = |t: usize| wdata[t];
        return conv_dw::<TierF32>(gemm, tap, r, s, stride, pad, xq.data(), &vec![1.0; n], dims);
    }

    let wgs: Vec<Tensor> = (0..groups)
        .map(|gi| {
            let start = gi * kg * gemm.cols;
            Tensor::from_vec(
                vec![kg, gemm.cols],
                wdata[start..start + kg * gemm.cols].to_vec(),
            )
        })
        .collect();
    let sample = |i: usize| -> Vec<f32> {
        let mut out_i = vec![0.0f32; k * ncols];
        for gi in 0..groups {
            let base = (i * c + gi * cg) * h * w;
            let (cols_t, _, _) = im2col(
                &xq.data()[base..base + cg * h * w],
                cg,
                h,
                w,
                r,
                s,
                stride,
                pad,
            );
            let mm = wgs[gi].matmul(&cols_t);
            let og = &mut out_i[gi * kg * ncols..(gi + 1) * kg * ncols];
            for kk in 0..kg {
                let row = gi * kg + kk;
                let (a, b) = (gemm.scale[row], gemm.bias[row]);
                for (o, &v) in og[kk * ncols..(kk + 1) * ncols]
                    .iter_mut()
                    .zip(&mm.data()[kk * ncols..(kk + 1) * ncols])
                {
                    *o = a * v + b;
                }
            }
        }
        out_i
    };
    let outs = run_samples(n, flops, sample);
    let mut data = Vec::with_capacity(n * k * ncols);
    for o in outs {
        data.extend(o);
    }
    Tensor::from_vec(vec![n, k, oh, ow], data)
}

fn exec_linear(
    g: &PackedGemm,
    x: &Tensor,
    bits: BitWidth,
    quantizer: Quantizer,
    aq: ActQuant,
) -> Tensor {
    let dims = x.dims();
    assert_eq!(dims.len(), 2, "linear input must be rank 2");
    let (n, f) = (dims[0], dims[1]);
    assert_eq!(f, g.cols, "linear in-feature mismatch");

    if g.storage.is_integer() {
        if let (KernelWeights::Words(ww), true) = (&g.kernel, crate::simd::fused_gemm_enabled()) {
            let fused = match &g.storage {
                Storage::Nibble(_) => linear_fused::<FusedNibble>(g, ww, x, bits, quantizer, aq),
                Storage::I8(_) => linear_fused::<FusedI8>(g, ww, x, bits, quantizer, aq),
                _ => None,
            };
            if let Some(y) = fused {
                return y;
            }
        }
        return match g.accum {
            Accum::F32 => linear_int::<TierF32>(g, x, bits, quantizer, aq),
            Accum::I32 => linear_int::<TierI32>(g, x, bits, quantizer, aq),
            Accum::I64 => linear_int::<TierI64>(g, x, bits, quantizer, aq),
        };
    }

    let Storage::F32(wdata) = &g.storage else {
        unreachable!("non-integer storage is f32");
    };
    let fp = bits.is_full_precision() || matches!(quantizer, Quantizer::Identity);
    let xq = if fp {
        x.clone()
    } else {
        quantize_acts_f32(x, bits, quantizer, aq)
    };
    // Each matmul output row reads only its own lhs row (fixed k-block
    // order), so batching samples as rows keeps every row bit-identical
    // to a batch-of-one product — no per-sample split needed here.
    let mut wt = vec![0.0f32; f * g.rows];
    for kk in 0..g.rows {
        for p in 0..f {
            wt[p * g.rows + kk] = wdata[kk * f + p];
        }
    }
    let mm = xq.matmul(&Tensor::from_vec(vec![f, g.rows], wt));
    let mut out = mm.data().to_vec();
    for i in 0..n {
        for (kk, o) in out[i * g.rows..(i + 1) * g.rows].iter_mut().enumerate() {
            *o = g.scale[kk] * *o + g.bias[kk];
        }
    }
    Tensor::from_vec(vec![n, g.rows], out)
}

#[cfg(test)]
mod tests;
