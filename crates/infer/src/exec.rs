//! Packed-network execution: one GEMM driver and one depthwise kernel for
//! every packed layer at every width, activation re-quantization between
//! layers.
//!
//! **One GEMM driver, and the batch is a GEMM dimension.** Every conv and
//! linear — the pointwise conv on a 1×1 map — runs [`gemm_int`] on its
//! [`Route`], the f32 fallback ([`DenseF32`]: full precision, raw-input
//! stems, 17–31 bits) as one more route. It builds one `[cg·r·s, n·oh·ow]`
//! patch matrix per group for the batch ([`conv_blocks`]: sample `i` owns
//! columns `i·oh·ow..`; a layer whose matrix would outgrow L1 goes in blocks
//! of whole samples instead), and the kernel runs once per weight row over
//! all of those columns ([`gemm_rows`]); the dequant epilogue then stores
//! each sample's segment of the row into the sample-major output with that
//! sample's own activation scale. Weights are read in their pack-time
//! kernel layout ([`KernelWeights`]: words below 16 bits; a 16-bit layer
//! decodes each row once per matrix). The parallel split is over weight
//! rows ([`par_rows`]) — over sample blocks where a batch takes several —
//! and patch matrices unfold channel-parallel; depthwise layers have no
//! GEMM and convolve plane by plane, split over `samples × channels`.
//!
//! **Lanes follow the long axis** (`crate::route`, a function of the layer's
//! geometry and the backend's lane count): a depthwise layer vectorises over
//! pixels — one flat axpy per tap over a zero-padded frame — where an output
//! row fills a vector, over channels (`[hw, c]` codes, `[r·s, c]` taps)
//! where it cannot ([`Depthwise`]); a fused GEMM with fewer columns than one
//! column block dots along the reduction instead of running a scalar tail
//! ([`Route::route`]). Every orientation accumulates the same exact value,
//! so none of this is observable in the result.
//!
//! A sample cannot observe its batch-mates: a column's accumulator is the
//! *exact* sum over that column's own patch (integers, or f32 lanes bounded
//! below 2^24; on the f32 fallback one k-ascending chain per element),
//! batching adds columns, never reduction length, and with per-sample
//! activation scales ([`ActQuant::PerSample`]) a segment's epilogue reads
//! nothing of another sample — every output is bit-identical to running
//! its sample alone.
//!
//! **Quantize once, into the operand.** Each layer lays its input straight
//! into the operand its kernel reads, through its route's [`Source`]: on
//! the integer routes the kernel table's max-abs and emitters
//! (`crate::simd::Layout`) — contiguous codes for `im2col`, rows of a
//! zero-padded depthwise frame, `[hw, c]` for channel lanes, and a pointwise
//! layer's code planes straight into its `[c, n·p]` rows, fused word
//! interleave or thin column-major operand — with no intermediate code
//! buffer and no interleave pass; on the f32 fallback the values
//! themselves, fake-quantized where a grid applies, in the same layouts.
//!
//! Determinism contract (mirrors `instantnet-tensor`): accumulation is
//! exact, dequantization is elementwise, and every parallel region
//! assigns disjoint output slices by index — results are bit-identical at
//! any thread count.

use crate::route::{describe, dw_lanes, Arith, Lanes};
use crate::simd::{kernels, EmitLane, FusedKernel, Kernels, Layout, THIN_WORDS};
use crate::{is_depthwise, Accum, KernelWeights, OpProfile, PackedGemm, PackedOp, Storage, Taps};
use instantnet_nn::layers::Activation;
use instantnet_parallel::{gate, max_threads, par_chunks_mut};
use instantnet_quant::{ActivationGrid, BitWidth, Quantizer};
use instantnet_tensor::tensor::{im2col_batch, ConvGeom};
use instantnet_tensor::Tensor;
use std::borrow::Cow;
use std::cell::Cell;
use std::iter::Sum;
use std::marker::PhantomData;
use std::ops::{AddAssign, Mul, Range, SubAssign};
use std::sync::LazyLock;
use std::time::{Duration, Instant};

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

/// How a forward quantizes activations: the grid and the granularity of its
/// data-dependent scale.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ActRule {
    pub(crate) bits: BitWidth,
    pub(crate) quantizer: Quantizer,
    pub(crate) aq: ActQuant,
}

/// Receives one [`OpProfile`] per executed op of a profiled forward.
pub(crate) type Sink<'a> = &'a mut (dyn FnMut(OpProfile) + 'a);

/// `Option::as_deref_mut` for a [`Sink`] (which cannot shorten the trait
/// object's own lifetime through the `Option`).
fn reborrow<'s>(sink: &'s mut Option<Sink<'_>>) -> Option<Sink<'s>> {
    match sink {
        Some(s) => Some(&mut **s),
        None => None,
    }
}

thread_local! {
    /// Operand-building time of the op a profiled forward is running on
    /// this thread; `None` outside one, so an unprofiled forward reads no
    /// clock.
    static OPERAND_TIME: Cell<Option<Duration>> = const { Cell::new(None) };
}

/// Runs `build` — laying a layer's input out as its kernel's operand:
/// activation grid, code emission, layout — and, inside a profiled forward,
/// adds its wall time to the op's quantize time (on the thread running the
/// forward: all of it with one kernel thread). Never nested.
fn timed_operand<R>(build: impl FnOnce() -> R) -> R {
    let Some(spent) = OPERAND_TIME.get() else {
        return build();
    };
    let start = Instant::now();
    let out = build();
    OPERAND_TIME.set(Some(spent + start.elapsed()));
    out
}

/// Runs `ops` in order over `x`. Every op reads its operand by reference
/// and activations rewrite the running tensor in place, so the input is
/// copied only when an activation is the first thing to touch it. With a
/// `sink`, every op is timed and reported as it finishes (a residual's
/// branches op by op, then its add), its operand building separately
/// ([`timed_operand`]); without one no clock is read.
/// Every op, residual branch and profile label uses one snapshot of the
/// kernel table, so no layer or label straddles two of them.
pub(crate) fn exec_ops(ops: &[PackedOp], x: &Tensor, rule: ActRule, sink: Option<Sink>) -> Tensor {
    run(kernels(), ops, x, rule, sink)
}

fn run(k: &Kernels, ops: &[PackedOp], x: &Tensor, rule: ActRule, mut sink: Option<Sink>) -> Tensor {
    let mut cur: Option<Tensor> = None;
    for op in ops {
        if matches!(op, PackedOp::Act(Activation::None)) {
            continue;
        }
        let input = cur.as_ref().unwrap_or(x);
        let mut start = sink.is_some().then(|| {
            OPERAND_TIME.set(Some(Duration::ZERO));
            Instant::now()
        });
        let mut dims = start.map(|_| input.dims().to_vec());
        let y = match op {
            PackedOp::Act(a) => {
                let mut y = cur.take().unwrap_or_else(|| x.clone());
                let data = y.data_mut().iter_mut();
                match a {
                    Activation::Relu => data.for_each(|v| *v = v.max(0.0)),
                    Activation::Relu6 => data.for_each(|v| *v = v.clamp(0.0, 6.0)),
                    Activation::None => {}
                }
                y
            }
            PackedOp::Conv {
                gemm,
                cg,
                r,
                s,
                stride,
                pad,
                groups,
                quantize_input,
            } => {
                let d = input.dims();
                assert_eq!(d.len(), 4, "conv input must be rank 4");
                assert_eq!(d[1], cg * groups, "conv input channel mismatch");
                let g = ConvGeom::new(d[2], d[3], *r, *s, *stride, *pad);
                exec_conv(k, gemm, &g, *groups, *quantize_input, input, rule)
            }
            PackedOp::Linear { gemm } => exec_linear(k, gemm, input, rule),
            PackedOp::GlobalAvgPool => global_avg_pool(input),
            PackedOp::Residual {
                body,
                shortcut,
                post_relu,
            } => {
                let mut b = run(k, body, input, rule, reborrow(&mut sink));
                let s = (!shortcut.is_empty())
                    .then(|| run(k, shortcut, input, rule, reborrow(&mut sink)));
                let s = s.as_ref().unwrap_or(input);
                assert_eq!(b.dims(), s.dims(), "residual branch shapes must match");
                // The branches reported themselves: the residual is its add.
                (start, dims) = (start.map(|_| Instant::now()), Some(b.dims().to_vec()));
                for (u, &v) in b.data_mut().iter_mut().zip(s.data()) {
                    *u += v;
                    if *post_relu {
                        *u = u.max(0.0);
                    }
                }
                b
            }
        };
        cur = Some(y);
        if let (Some(sink), Some(start), Some(dims)) = (reborrow(&mut sink), start, dims) {
            let quantize = OPERAND_TIME.take().unwrap_or_default();
            sink(describe(op, &dims, k, start, quantize));
        }
    }
    cur.unwrap_or_else(|| x.clone())
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

/// What the dequant epilogue reads accumulators and column sums through:
/// exact integers (or integer-valued f32 lanes) as `f32`.
pub(crate) trait ToF32: Copy {
    fn to_f32(self) -> f32;
}

macro_rules! to_f32 {
    ($($t:ty),*) => {$(
        impl ToF32 for $t {
            fn to_f32(self) -> f32 {
                self as f32
            }
        }
    )*};
}
to_f32!(f32, i32, i64);

/// What an arithmetic reads and sums in: the lane type activation codes are
/// emitted in, its accumulator and column-sum types, and where its
/// activations come from. A GEMM's [`Route`] and a depthwise layer's
/// [`Tier`] build on it.
pub(crate) trait Operands: Sync {
    type Lane: EmitLane + Into<Self::Cs>;
    type Acc: ToF32 + Default;
    type Cs: ToF32 + Default + Copy + Send + Sync + Sum + AddAssign;

    /// The batch's activations as this arithmetic's operands read them:
    /// codes on each sample's grid unless it says otherwise.
    fn source<'x>(k: &Kernels, x: &'x [f32], n: usize, rule: ActRule) -> Source<'x, Self::Lane> {
        Source::codes(k, x, n, rule)
    }
}

/// One arithmetic of the GEMM driver ([`gemm_int`]): a [`Fused`] flavour on
/// the pack-time weight words, the 16-bit layers' [`TierI64`], or the f32
/// fallback. Every integer route computes the *same exact value*, whatever
/// its order, batch packing or thread count.
pub(crate) trait Route: Operands {
    /// A layer's weight-row kernel, out of one kernel table.
    type Kernel<'g>: Copy + Sync;
    /// A worker's scratch across its run of rows.
    type Scratch: Default;
    /// Reduction rows per pack-time weight word: the lanes of a column that
    /// sit adjacent in the column kernels' operand (1: plain `[q, l]` rows).
    const GROUP: usize = 1;
    /// Shift added to every weight code at word-pack time; the kernel's
    /// accumulator is off by `WEIGHT_BIAS · colsum` per column.
    const WEIGHT_BIAS: i32 = 0;

    /// Table `k`'s kernel for layer `g`'s GEMM over `n` samples of `p`
    /// columns and the interleave group of its operand: [`Self::GROUP`] for
    /// the column-block kernels, the whole reduction (zero-padded to their
    /// vector step) for the thin ones — every column contiguous.
    fn route<'g>(k: &Kernels, g: &'g PackedGemm, np: (usize, usize)) -> (Self::Kernel<'g>, usize);
    /// `acc` = weight row `row` times `block`, one group's operand, exactly
    /// (`cs`: the block's column sums where needed).
    fn step(
        kernel: Self::Kernel<'_>,
        row: usize,
        block_cs: (&[Self::Lane], &[Self::Cs]),
        scratch: &mut Self::Scratch,
        acc: &mut [Self::Acc],
    );

    /// Adds the column sums of one group's operand `block`, in interleave
    /// group `ig`, to `cs` — exact; zero padding adds nothing.
    fn colsums(block: &[Self::Lane], ig: usize, cs: &mut [Self::Cs]) {
        let sum = |lanes: &[Self::Lane]| lanes.iter().map(|&v| v.into()).sum::<Self::Cs>();
        for rows in block.chunks_exact(ig * cs.len()) {
            // The column kernels' group in a constant-width loop, which unrolls.
            if ig == Self::GROUP {
                let columns = cs.iter_mut().zip(rows.chunks_exact(Self::GROUP));
                columns.for_each(|(c, lanes)| *c += sum(lanes));
            } else {
                let columns = cs.iter_mut().zip(rows.chunks_exact(ig));
                columns.for_each(|(c, lanes)| *c += sum(lanes));
            }
        }
    }
}

/// A depthwise layer's arithmetic ([`Depthwise`]): an exact accumulator tier
/// (f32 arithmetic on integers below 2^24 is lossless) over its pack-time
/// taps, or the f32 fallback's real-valued chains.
pub(crate) trait Tier: Operands {
    /// Depthwise layer `g`'s pack-time `[r·s, c]` taps in this tier's lanes:
    /// read in place in the tier they were packed for, converted for a
    /// wider one.
    fn taps(g: &PackedGemm) -> Cow<'_, [Self::Lane]>;
    fn mad(acc: Self::Acc, w: Self::Lane, a: Self::Lane) -> Self::Acc;
}

/// Implements [`Operands`] on integer codes for each `tier: (lane, acc, cs)`.
macro_rules! operands {
    ($($t:ty: ($lane:ty, $acc:ty, $cs:ty)),*) => {$(
        impl Operands for $t {
            type Lane = $lane;
            type Acc = $acc;
            type Cs = $cs;
        }
    )*};
}

/// Bound < 2^24: exact f32 lanes (vectorize on baseline x86-64, which has no
/// packed i32 multiply). Depthwise taps only.
struct TierF32;
/// Bound ≤ i32::MAX / 2: native i32. Depthwise taps only.
struct TierI32;
/// Anything wider: 12/16-bit depthwise taps, and the 16-bit GEMMs, whose
/// activation codes fit no i16 lane — the one route that decodes a weight
/// row per matrix.
struct TierI64;
/// The f32 fallback ([`Arith::F32`]: full precision, raw-input stems, 17–31
/// bits): real-valued [`Storage::F32`] weights, read in place, against the
/// activations themselves, fake-quantized where a grid applies, at unit
/// scale ([`Source::values`]). Each output is one chain over the reduction
/// in ascending order, started at `+0.0`, zero weights skipped —
/// `Tensor::matmul`'s order, which no column count or batch changes.
struct DenseF32;

// The i32-lane tiers' column sums are i64 (cheap next to the multiplies).
operands!(TierF32: (f32, f32, f32), TierI32: (i32, i32, i64), TierI64: (i32, i64, i64));

impl Tier for TierF32 {
    fn taps(g: &PackedGemm) -> Cow<'_, [f32]> {
        match tap_table(g) {
            Taps::F32(t) => Cow::Borrowed(t),
            Taps::I32(t) => Cow::Owned(t.iter().map(|&c| c as f32).collect()),
        }
    }
    fn mad(acc: f32, w: f32, a: f32) -> f32 {
        acc + w * a
    }
}

impl Tier for TierI32 {
    fn taps(g: &PackedGemm) -> Cow<'_, [i32]> {
        i32_taps(g)
    }
    fn mad(acc: i32, w: i32, a: i32) -> i32 {
        acc + w * a
    }
}

impl Tier for TierI64 {
    fn taps(g: &PackedGemm) -> Cow<'_, [i32]> {
        i32_taps(g)
    }
    fn mad(acc: i64, w: i32, a: i32) -> i64 {
        acc + i64::from(w) * i64::from(a)
    }
}

impl Route for TierI64 {
    /// Table `k`'s row decoder and i64 accumulate kernel, the layer's storage
    /// and reduction length.
    #[allow(clippy::type_complexity)]
    type Kernel<'g> = (
        (
            fn(&Storage, usize, usize, &mut [i32]),
            fn(&mut [i64], &[i32], &[i32]),
        ),
        &'g Storage,
        usize,
    );
    /// The decoded weight row.
    type Scratch = Vec<i32>;

    fn route<'g>(k: &Kernels, g: &'g PackedGemm, _: (usize, usize)) -> (Self::Kernel<'g>, usize) {
        (
            ((k.decode_row_i32, k.accumulate_i64), &g.storage, g.cols),
            1,
        )
    }
    fn step(
        ((decode, accumulate), storage, q): Self::Kernel<'_>,
        row: usize,
        (block, _): (&[i32], &[i64]),
        wrow: &mut Vec<i32>,
        acc: &mut [i64],
    ) {
        wrow.resize(q, 0);
        decode(storage, row, q, wrow);
        acc.fill(0);
        accumulate(acc, wrow, block);
    }
}

impl Operands for DenseF32 {
    type Lane = f32;
    type Acc = f32;
    type Cs = f32;

    fn source<'x>(_: &Kernels, x: &'x [f32], n: usize, rule: ActRule) -> Source<'x, f32> {
        Source::values(x, n, rule)
    }
}

impl Tier for DenseF32 {
    fn taps(g: &PackedGemm) -> Cow<'_, [f32]> {
        let Storage::F32(w) = &g.storage else {
            unreachable!("Arith::of routes only f32 storage here");
        };
        // Depthwise f32 weights are stored tap-major too (`pack.rs`).
        Cow::Borrowed(w)
    }
    fn mad(acc: f32, w: f32, a: f32) -> f32 {
        acc + w * a
    }
}

impl DenseF32 {
    /// Rows in the lanes: one register of f32 lanes on AVX2.
    const ROWS: usize = 8;
}

impl Route for DenseF32 {
    /// The weights, the reduction length, and whether the rows go in the
    /// lanes.
    type Kernel<'g> = (&'g [f32], usize, bool);
    /// With the rows in the lanes: the chains of the last block of
    /// [`Self::ROWS`] rows, and which (first row, operand) they are for.
    type Scratch = (Vec<f32>, Option<(usize, *const f32)>);

    fn route<'g>(
        _: &Kernels,
        g: &'g PackedGemm,
        (_, p): (usize, usize),
    ) -> (Self::Kernel<'g>, usize) {
        let Storage::F32(w) = &g.storage else {
            unreachable!("Arith::of routes only f32 storage here");
        };
        ((w, g.cols, p < Self::ROWS), 1)
    }
    /// The columns go in the lanes, one row at a time, zero weights
    /// skipped — where a sample's output map fills a register. Where it
    /// does not (a linear's one pixel, a 2×2 map), one row's chain would
    /// wait on its adder at small batch, so the rows go in the lanes: the
    /// first row asked for of each aligned block of [`Self::ROWS`] reduces
    /// the whole block — per column, lane `r` of its `[f32; ROWS]` in the
    /// scratch is row `b + r`'s chain, a short last block running its final
    /// row in the spare lanes — and the block's other rows are read back
    /// from it. There zero activations are skipped, one test per column. On
    /// finite values either skip drops only `±0.0` terms, which leave a
    /// chain started at `+0.0` alone; the choice is the layer's geometry,
    /// never its batch.
    fn step(
        (w, q, thin): Self::Kernel<'_>,
        row: usize,
        (block, _): (&[f32], &[f32]),
        (chains, held): &mut Self::Scratch,
        acc: &mut [f32],
    ) {
        let l = block.len() / q;
        if !thin {
            acc.fill(0.0);
            for (&wv, arow) in w[row * q..][..q].iter().zip(block.chunks_exact(l)) {
                if wv != 0.0 {
                    for (o, &v) in acc.iter_mut().zip(arow) {
                        *o += wv * v;
                    }
                }
            }
            return;
        }
        let b = row / Self::ROWS * Self::ROWS;
        if *held != Some((b, block.as_ptr())) {
            let rows = Self::ROWS.min(w.len() / q - b);
            chains.clear();
            chains.resize(Self::ROWS * l, 0.0);
            let (chains, _) = chains.as_chunks_mut::<{ Self::ROWS }>();
            for (p, arow) in block.chunks_exact(l).enumerate() {
                let wp: [f32; Self::ROWS] =
                    std::array::from_fn(|r| w[(b + r.min(rows - 1)) * q + p]);
                for (lanes, &a) in chains.iter_mut().zip(arow) {
                    for (s, &wv) in lanes.iter_mut().zip(&wp) {
                        *s += if a != 0.0 { a * wv } else { 0.0 };
                    }
                }
            }
            *held = Some((b, block.as_ptr()));
        }
        let (chains, _) = chains.as_chunks::<{ Self::ROWS }>();
        for (o, lanes) in acc.iter_mut().zip(chains) {
            *o = lanes[row - b];
        }
    }
}

/// A depthwise layer's pack-time tap table.
fn tap_table(g: &PackedGemm) -> &Taps {
    let KernelWeights::Taps(taps) = &g.kernel else {
        unreachable!("exec_int routes only layers with a tap table here");
    };
    taps
}

/// [`Tier::taps`] of the two i32-lane tiers.
fn i32_taps(g: &PackedGemm) -> Cow<'_, [i32]> {
    match tap_table(g) {
        Taps::I32(t) => Cow::Borrowed(t),
        Taps::F32(t) => Cow::Owned(t.iter().map(|&c| c as i32).collect()),
    }
}

// ---------------------------------------------------------------------------
// The i64 accumulate kernel (scalar backend — the portable baseline every
// target can run; crate::simd selects between it and the SIMD kernels)
// ---------------------------------------------------------------------------

/// Column-block width of the scalar i64 kernel: 4 independent accumulator
/// lanes live in registers across the whole reduction, so the inner loop has
/// no accumulator load/store traffic and enough instruction-level
/// parallelism to keep the integer pipes full.
const I64_LANES: usize = 4;

/// Shared scalar tail of every blocked accumulate kernel: the columns past
/// the last full lane block each walk the `[rows, ncols]` activation block
/// at a hoisted stride of `ncols`. The scalar kernel below and the SIMD
/// kernels' ragged tails (`crate::simd`) all delegate here.
///
/// The partial sum starts from the additive identity and is added to
/// `acc[j]` once at the end, exactly like the in-register lane blocks, so
/// tail columns see the same association order as blocked ones (exact by
/// associativity anyway).
// Inlined on purpose: as an out-of-line instance LLVM compiled the same
// loop 1.25–2.5× slower under the AVX2 kernels' one-column i64 GEMMs.
#[inline(always)]
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

/// `acc[j] += Σ_p wrow[p] · acts[p][j]` in i64, for the 16-bit GEMMs: each
/// block of [`I64_LANES`] output columns runs the full reduction with its
/// partial sums held in a local array, row strides hoisted to a running
/// offset, and the ragged tail falling through to [`accumulate_col_tail`].
pub(crate) fn accumulate_i64_scalar(acc: &mut [i64], wrow: &[i32], acts: &[i32]) {
    let mad = |l: i64, w: i32, a: i32| l + i64::from(w) * i64::from(a);
    let ncols = acc.len();
    let mut j = 0usize;
    while j + I64_LANES <= ncols {
        let mut lanes = [0i64; I64_LANES];
        let mut base = j;
        for &wv in wrow {
            let a = &acts[base..base + I64_LANES];
            for (l, &av) in lanes.iter_mut().zip(a) {
                *l = mad(*l, wv, av);
            }
            base += ncols;
        }
        for (o, l) in acc[j..j + I64_LANES].iter_mut().zip(lanes) {
            *o += l;
        }
        j += I64_LANES;
    }
    accumulate_col_tail(acc, wrow, acts, j, mad);
}

// ---------------------------------------------------------------------------
// Batched execution
// ---------------------------------------------------------------------------

/// A batch's activations as a route's operand builders read them — what
/// [`Route::source`] answers: the values its emitter lays out, and each
/// sample's activation scale.
pub(crate) struct Source<'x, L> {
    values: Cow<'x, [f32]>,
    scales: Vec<f32>,
    /// Writes sample `i`'s values `src` into `dst` in a [`Layout`].
    #[allow(clippy::type_complexity)]
    emit: Box<dyn Fn(usize, &[f32], &mut [L], Layout) + Sync + 'x>,
    /// Values in lanes `L` where they are an operand as they stand (the f32
    /// fallback's), else `None`.
    direct: fn(&[f32]) -> Option<&[L]>,
}

impl<'x, L: EmitLane> Source<'x, L> {
    /// The integer routes' source: codes on each sample's activation grid —
    /// its own, or the whole batch's under [`ActQuant::PerBatch`] — through
    /// table `k`'s max-abs and emitter, every layout handed to it as
    /// [`Layout::canonical`].
    fn codes(k: &Kernels, x: &'x [f32], n: usize, rule: ActRule) -> Self {
        let grid_of = |src: &[f32]| {
            let grid = rule
                .quantizer
                .activation_grid_with(src, rule.bits, k.max_abs);
            grid.expect("integer storage implies quantized activations")
        };
        let len = x.len() / n;
        let grids = match rule.aq {
            ActQuant::PerBatch => vec![grid_of(x); n],
            ActQuant::PerSample => (0..n).map(|i| grid_of(&x[i * len..][..len])).collect(),
        };
        let (scales, emit) = (
            grids.iter().map(ActivationGrid::scale).collect(),
            L::emitter(k),
        );
        Source {
            values: Cow::Borrowed(x),
            scales,
            emit: Box::new(move |i, src, dst, layout| {
                emit(&grids[i], src, dst, layout.canonical::<L>());
            }),
            direct: |_| None,
        }
    }

    /// The batch's values, sample-major and contiguous, in lanes `L` — what
    /// `im2col` unfolds for a conv with a real kernel window.
    fn contiguous(&self) -> Cow<'_, [L]> {
        let (x, n) = (&self.values[..], self.scales.len());
        if let Some(x) = (self.direct)(x) {
            return Cow::Borrowed(x);
        }
        let len = (x.len() / n).max(1);
        let mut out = vec![L::default(); x.len()];
        gate(x.len() >= PAR_FLOP_THRESHOLD, || {
            par_chunks_mut(&mut out, len, |i, dst| {
                let (width, pitch) = (len, len);
                let src = &x[i * len..(i + 1) * len];
                (self.emit)(i, src, dst, Layout::Rows { width, pitch });
            })
        });
        Cow::Owned(out)
    }
}

impl<'x> Source<'x, f32> {
    /// The f32 fallback's source ([`DenseF32`]): the values themselves,
    /// fake-quantized on each sample's grid — the whole batch's under
    /// [`ActQuant::PerBatch`] — where one applies (uncopied where none
    /// does), at unit scale, copied into whatever layout the operand has.
    fn values(x: &'x [f32], n: usize, rule: ActRule) -> Self {
        let (bits, quantizer) = (rule.bits, rule.quantizer);
        let values = if bits.is_full_precision() || matches!(quantizer, Quantizer::Identity) {
            Cow::Borrowed(x)
        } else {
            let len = match rule.aq {
                ActQuant::PerBatch => x.len(),
                ActQuant::PerSample => x.len() / n,
            };
            let mut xq = x.to_vec();
            for slice in xq.chunks_mut(len.max(1)) {
                quantizer.quantize_activations_in_place(slice, bits);
            }
            Cow::Owned(xq)
        };
        // `dst[r·pitch + k·step] = src[r·width + k]`, the longer of the two
        // axes innermost.
        let copy = |_: usize, src: &[f32], dst: &mut [f32], layout: Layout| {
            let (width, pitch, step) = match layout.canonical::<f32>() {
                Layout::Rows { width, pitch } => (width, pitch, 1),
                Layout::Transposed { width, pitch } => (width, 1, pitch),
                Layout::Words { .. } => unreachable!("one-lane words are rows"),
            };
            if src.len() / width > width {
                for k in 0..width {
                    let to = dst[k * step..].iter_mut().step_by(pitch);
                    to.zip(src[k..].iter().step_by(width))
                        .for_each(|(o, &v)| *o = v);
                }
            } else if step == 1 {
                for (r, row) in src.chunks(width).enumerate() {
                    dst[r * pitch..][..row.len()].copy_from_slice(row);
                }
            } else {
                for (r, row) in src.chunks(width).enumerate() {
                    let to = dst[r..].iter_mut().step_by(step);
                    to.zip(row).for_each(|(o, &v)| *o = v);
                }
            }
        };
        let (scales, emit) = (vec![1.0; n], Box::new(copy));
        Source {
            values,
            scales,
            emit,
            direct: |x| Some(x),
        }
    }
}

/// Whether a conv's patch matrix is its input: a 1×1, stride-1, unpadded
/// window, whose operand is emitted straight from the sample planes.
fn is_pointwise(g: &ConvGeom) -> bool {
    g.kh == 1 && g.kw == 1 && g.stride == 1 && g.pad == 0
}

/// Bytes one group's patch matrix may span: every weight row streams it
/// once, so it has to stay in L1 between rows, beside the accumulators and
/// the row's weights — half of a 32 KiB L1 (24 KiB already measured slower
/// than per-sample matrices on 12 KiB-per-sample i16 layers).
const PATCH_BLOCK_BYTES: usize = 16 << 10;

/// Runs a dense conv's GEMM over the batch, operand lanes `L`: `f(samples,
/// out)` builds the operand of a block of whole samples — their `[cols,
/// m·p]` patch matrix per group, in whatever layout the kernel reads — and
/// multiplies it into their `[.., k, p]` slab of the result. The whole batch
/// is one block while a group's `[cols, n·p]` operand fits
/// [`PATCH_BLOCK_BYTES`] — the kernel then runs once per weight row over
/// every sample's pixels, and `f` splits its rows over the thread budget;
/// larger layers go in blocks of whole samples (down to one, where a lone
/// sample already fills the cache), and the blocks are what runs in
/// parallel. Samples never share a column, so the blocking is invisible in
/// the result.
fn conv_blocks<L>(
    gemm: &PackedGemm,
    g: &ConvGeom,
    n: usize,
    f: impl Fn(Range<usize>, &mut [f32]) + Sync,
) -> Vec<f32> {
    let (k, q, p) = (gemm.rows, gemm.cols, g.oh * g.ow);
    let per_block = (PATCH_BLOCK_BYTES / (q * p * std::mem::size_of::<L>()).max(1)).clamp(1, n);
    let mut out = vec![0.0f32; n * k * p];
    gate(2 * n * k * q * p >= PAR_FLOP_THRESHOLD, || {
        par_chunks_mut(&mut out, (per_block * k * p).max(1), |bi, slab| {
            f(bi * per_block..bi * per_block + slab.len() / (k * p), slab);
        })
    });
    out
}

/// Drives a GEMM whose `[n, k, p]` output is `out`, weight row by weight
/// row: `kernel(row, scratch)` reduces row `row` over all `n·p` columns,
/// then `store(row, scratch, at, runs)` writes every sample's `p` outputs of
/// that row, sample `i`'s to `runs[i][at]`. Each worker owns one contiguous
/// run of rows — in every sample the matching slab of `out`, its `runs` —
/// and one `scratch()` value for the whole run; rows are disjoint and
/// indexed, so the result is independent of the thread count (one worker
/// below [`PAR_FLOP_THRESHOLD`] `flops`).
fn par_rows<S>(
    out: &mut [f32],
    (k, p): (usize, usize),
    flops: usize,
    scratch: impl Fn() -> S + Sync,
    kernel: impl Fn(usize, &mut S) + Sync,
    store: impl Fn(usize, &S, Range<usize>, &mut [&mut [f32]]) + Sync,
) {
    if out.is_empty() {
        return;
    }
    gate(flops >= PAR_FLOP_THRESHOLD, || {
        let per_worker = k.div_ceil(max_threads());
        let mut work: Vec<Vec<&mut [f32]>> = Vec::new();
        work.resize_with(k.div_ceil(per_worker), Vec::new);
        for sample in out.chunks_mut(k * p) {
            for (runs, run) in work.iter_mut().zip(sample.chunks_mut(per_worker * p)) {
                runs.push(run);
            }
        }
        par_chunks_mut(&mut work, 1, |wi, item| {
            let (runs, mut s) = (&mut item[0], scratch());
            for j in 0..runs[0].len() / p {
                let row = wi * per_worker + j;
                kernel(row, &mut s);
                store(row, &s, j * p..(j + 1) * p, runs);
            }
        });
    });
}

/// The affine dequantization of the crate docs for one weight row, `(A, B,
/// bias)` — the one place its arithmetic is written down. The f32 routes
/// pass a unit `sa`, which multiplies exactly.
#[derive(Clone, Copy)]
struct Affine(f32, f32, f32);

impl Affine {
    fn of(g: &PackedGemm, row: usize) -> Affine {
        Affine(g.scale[row], g.colsum_coef[row], g.bias[row])
    }

    /// `sa·A·acc + bias`: a layer without offset.
    #[inline(always)]
    fn plain(self, sa: f32, v: impl ToF32) -> f32 {
        sa * self.0 * v.to_f32() + self.2
    }

    /// `sa·(A·acc + B·colsum) + bias`: an offset-carrying layer.
    #[inline(always)]
    fn offset(self, sa: f32, v: impl ToF32, c: impl ToF32) -> f32 {
        sa * (self.0 * v.to_f32() + self.1 * c.to_f32()) + self.2
    }
}

/// [`Affine`] over one weight row of a GEMM: sample `i`'s accumulators
/// `acc[i·p..(i+1)·p]` (`p = at.len()`) dequantize into `runs[i][at]` with
/// that sample's scale, the colsum term only where the layer carries an
/// offset (`cs` is `Some`).
fn dequant<A: ToF32, C: ToF32>(
    g: &PackedGemm,
    row: usize,
    scales: &[f32],
    acc: &[A],
    cs: Option<&[C]>,
    at: Range<usize>,
    runs: &mut [&mut [f32]],
) {
    let (f, p) = (Affine::of(g, row), at.len());
    if p == 1 {
        // A linear layer: one output per sample, stored at stride `rows`.
        for (i, (run, &sa)) in runs.iter_mut().zip(scales).enumerate() {
            run[at.start] = match cs {
                Some(cs) => f.offset(sa, acc[i], cs[i]),
                None => f.plain(sa, acc[i]),
            };
        }
        return;
    }
    for (i, (run, &sa)) in runs.iter_mut().zip(scales).enumerate() {
        let (seg, acc) = (&mut run[at.clone()], &acc[i * p..(i + 1) * p]);
        match cs {
            Some(cs) => {
                for ((o, &v), &c) in seg.iter_mut().zip(acc).zip(&cs[i * p..]) {
                    *o = f.offset(sa, v, c);
                }
            }
            None => {
                for (o, &v) in seg.iter_mut().zip(acc) {
                    *o = f.plain(sa, v);
                }
            }
        }
    }
}

/// Maps a weight row of a `k`-row layer to its group; the usual ungrouped
/// layer pays no division per row.
fn group_of(k: usize, groups: usize) -> impl Fn(usize) -> usize {
    let kg = k / groups;
    move |row| if groups == 1 { 0 } else { row / kg }
}

/// The one row loop: route `R`'s GEMM over `operand` — per group a
/// `[g.cols, l]` block in interleave group `ig`, sample `i` owning columns
/// `i·p..` of the `l = n·p` — into the `[n, k, p]` result `out`, each
/// sample's segment of a row dequantized with that sample's scale. The
/// pack-time bounds hold at any batch size: batching adds GEMM *columns*,
/// never reduction *length*.
fn gemm_rows<R: Route>(
    g: &PackedGemm,
    (kernel, ig): (R::Kernel<'_>, usize),
    operand: &[R::Lane],
    groups: usize,
    (n, p): (usize, usize),
    scales: &[f32],
    out: &mut [f32],
) {
    let (k, l, block) = (g.rows, n * p, operand.len() / groups);
    let group = group_of(k, groups);
    // The `-WEIGHT_BIAS·colsum` re-centering needs them even for symmetric
    // codes, the offset dequant term for offset-carrying layers.
    let need_cs = R::WEIGHT_BIAS != 0 || g.has_offset;
    let mut colsums = vec![R::Cs::default(); if need_cs { groups * l } else { 0 }];
    for (cs, b) in colsums.chunks_mut(l).zip(operand.chunks(block)) {
        R::colsums(b, ig, cs);
    }
    par_rows(
        out,
        (k, p),
        2 * k * g.cols * l,
        || (R::Scratch::default(), vec![R::Acc::default(); l]),
        |row, (scratch, acc)| {
            let gi = group(row);
            let at = (
                &operand[gi * block..][..block],
                colsums.get(gi * l..).unwrap_or_default(),
            );
            R::step(kernel, row, at, scratch, acc);
        },
        |row, (_, acc), at, runs| {
            let cs = g.has_offset.then(|| &colsums[group(row) * l..][..l]);
            dequant(g, row, scales, acc, cs, at, runs);
        },
    );
}

/// The one GEMM driver: the dense conv `gemm` over the `n` samples of `x`,
/// `[c, h, w]` apiece, on route `R` and table `k`, into the `[n, k, oh, ow]`
/// result. Per block of samples ([`conv_blocks`]) the operand in the
/// interleave group [`Route::route`] picks, from the route's [`Source`] — a
/// pointwise layer's values emitted straight into it, any other conv's patch
/// matrix unfolded from contiguous ones and interleaved — then
/// [`gemm_rows`].
fn gemm_int<R: Route>(
    k: &Kernels,
    gemm: &PackedGemm,
    g: &ConvGeom,
    groups: usize,
    x: &[f32],
    (n, c): (usize, usize),
    rule: ActRule,
) -> Vec<f32> {
    let (p, chw, cg) = (g.oh * g.ow, c * g.h * g.w, c / groups);
    let route @ (_, ig) = R::route(k, gemm, (n, p));
    let src = timed_operand(|| R::source(k, x, n, rule));
    let codes = (!is_pointwise(g)).then(|| timed_operand(|| src.contiguous()));
    conv_blocks::<R::Lane>(gemm, g, n, |at, out| {
        let m = at.len();
        let planes = (src.direct)(&src.values[at.start * chw..at.end * chw]);
        let operand = timed_operand(|| match (&codes, planes) {
            // A lone sample's planes are its plain-row operand as they stand.
            (None, Some(planes)) if m == 1 && ig == 1 => Cow::Borrowed(planes),
            // Each sample's channel groups straight into their blocks, the
            // sample at column `i·p` of each.
            (None, _) => {
                let block = cg.div_ceil(ig) * ig * m * p;
                let layout = if ig == R::GROUP {
                    let (width, pitch) = (p, m * p * ig);
                    Layout::Words { width, pitch }
                } else {
                    let (width, pitch) = (p, ig);
                    Layout::Transposed { width, pitch }
                };
                let mut operand = vec![R::Lane::default(); groups * block];
                for (i, s) in at.clone().enumerate() {
                    let planes = src.values[s * chw..(s + 1) * chw].chunks(cg * p);
                    for (plane, dst) in planes.zip(operand.chunks_mut(block)) {
                        (src.emit)(s, plane, &mut dst[i * p * ig..], layout);
                    }
                }
                Cow::Owned(operand)
            }
            (Some(codes), _) => {
                let cols = im2col_batch(&codes[at.start * chw..at.end * chw], m, c, g);
                Cow::Owned(match ig {
                    1 => cols,
                    _ => interleave_blocks(&cols, groups, gemm.cols, m * p, ig),
                })
            }
        });
        gemm_rows::<R>(gemm, route, &operand, groups, (m, p), &src.scales[at], out)
    })
}

/// A depthwise conv on tier `T` and table `k` over the `n` samples of `x`:
/// the [`dw_operand`] for the layer's [`dw_lanes`], then [`Depthwise`].
fn depthwise<T: Tier>(
    k: &Kernels,
    gemm: &PackedGemm,
    g: &ConvGeom,
    x: &[f32],
    (n, c): (usize, usize),
    rule: ActRule,
) -> Vec<f32> {
    let src = timed_operand(|| T::source(k, x, n, rule));
    let (taps, lanes) = (T::taps(gemm), dw_lanes(g, k));
    let operand = timed_operand(|| dw_operand(&src, c, g, lanes));
    let (taps, operand, scales) = (&taps[..], &operand[..], &src.scales[..]);
    Depthwise::<T> {
        gemm,
        taps,
        g,
        lanes,
        operand,
        scales,
    }
    .run()
}

/// Lays a depthwise layer's `[n, c, h, w]` input out for `lanes`, the
/// layer's [`dw_lanes`], decided once per execution (the active kernel table
/// may change under a running forward; layout and kernel must agree): per
/// sample `[h·w, c]` (channels in the lanes), or per plane a zero-padded
/// `[h + 2·pad, w + 2·pad]` frame (pixels in the lanes), each sample's
/// values — a plane's rows into a frame, or the whole sample transposed —
/// written by `src`'s emitter.
fn dw_operand<L: EmitLane>(src: &Source<L>, c: usize, g: &ConvGeom, lanes: Lanes) -> Vec<L> {
    let (x, n) = (&src.values[..], src.scales.len());
    let (hw, fw) = (g.h * g.w, g.w + 2 * g.pad);
    let frame = (g.h + 2 * g.pad) * fw;
    let pixels = lanes == Lanes::Pixels;
    let per_sample = if pixels { c * frame } else { hw * c };
    let mut out = vec![L::default(); n * per_sample];
    gate(x.len() >= PAR_FLOP_THRESHOLD, || {
        par_chunks_mut(&mut out, per_sample.max(1), |i, dst| {
            let sample = &x[i * c * hw..(i + 1) * c * hw];
            if pixels {
                let (width, pitch) = (g.w, fw);
                for (plane, dst) in sample.chunks(hw.max(1)).zip(dst.chunks_mut(frame)) {
                    let dst = &mut dst[g.pad * fw + g.pad..];
                    (src.emit)(i, plane, dst, Layout::Rows { width, pitch });
                }
            } else {
                let (width, pitch) = (hw, c);
                (src.emit)(i, sample, dst, Layout::Transposed { width, pitch });
            }
        })
    });
    out
}

/// A depthwise conv (`groups == channels`) over the [`dw_operand`] of
/// `scales.len()` samples, `taps` the pack-time `[r·s, c]` table: no patch
/// matrix, no 1-column-per-group GEMM, and the SIMD lanes follow the long
/// axis (`lanes`, the operand's). Either way a pixel accumulates its taps in
/// `im2col` row order, exactly (integers, or f32 lanes below 2^24) — so the
/// result matches the grouped-GEMM path bit for bit in every tier; on the
/// f32 fallback (`T = DenseF32`, real-valued taps, unit `scales`) a frame's
/// zero padding adds `±0.0` terms to a chain that started at `+0.0`, which
/// leaves every partial sum's bits alone.
struct Depthwise<'a, T: Tier> {
    gemm: &'a PackedGemm,
    taps: &'a [T::Lane],
    g: &'a ConvGeom,
    lanes: Lanes,
    operand: &'a [T::Lane],
    scales: &'a [f32],
}

impl<T: Tier> Depthwise<'_, T> {
    /// The `[n, c, oh, ow]` result. Planes are independent, so the parallel
    /// split is over `samples × channels`: each worker takes a contiguous
    /// run of planes — its slab of the result — by index.
    fn run(&self) -> Vec<f32> {
        let (g, n, c, p) = (
            self.g,
            self.scales.len(),
            self.gemm.rows,
            self.g.oh * self.g.ow,
        );
        let mut out = vec![0.0f32; n * c * p];
        gate(2 * n * c * g.kh * g.kw * p >= PAR_FLOP_THRESHOLD, || {
            let per_worker = (n * c).div_ceil(max_threads());
            par_chunks_mut(&mut out, (per_worker * p).max(1), |wi, run| {
                let planes = wi * per_worker..wi * per_worker + run.len() / p;
                if self.lanes == Lanes::Pixels {
                    self.pixels(planes, run);
                } else {
                    self.channels(planes, run);
                }
            })
        });
        out
    }

    /// Pixels in the lanes: tap `(ki, kj)` of a plane is one flat axpy of
    /// its frame, shifted by `ki·fw + kj`, into an accumulator that keeps
    /// the frame's row pitch `fw` (the `fw − ow` columns between output rows
    /// accumulate garbage nobody reads). Stride 1 only.
    fn pixels(&self, planes: Range<usize>, run: &mut [f32]) {
        let (gemm, g, c) = (self.gemm, self.g, self.gemm.rows);
        let fw = g.w + 2 * g.pad;
        let (frame, span) = ((g.h + 2 * g.pad) * fw, (g.oh - 1) * fw + g.ow);
        let mut acc = vec![T::Acc::default(); span];
        let mut cs = vec![T::Cs::default(); if gemm.has_offset { span } else { 0 }];
        for (ci, orow) in planes.zip(run.chunks_mut(g.oh * g.ow)) {
            let (i, ch) = (ci / c, ci % c);
            acc.fill(T::Acc::default());
            cs.fill(T::Cs::default());
            for t in 0..g.kh * g.kw {
                let wv = self.taps[t * c + ch];
                let src = &self.operand[ci * frame + t / g.kw * fw + t % g.kw..][..span];
                for (a, &v) in acc.iter_mut().zip(src) {
                    *a = T::mad(*a, wv, v);
                }
                for (o, &v) in cs.iter_mut().zip(src) {
                    *o += v.into();
                }
            }
            for oy in 0..g.oh {
                let (at, to) = (oy * fw..oy * fw + g.ow, oy * g.ow..(oy + 1) * g.ow);
                let cs = gemm.has_offset.then(|| &cs[at.clone()]);
                dequant(
                    gemm,
                    ch,
                    &self.scales[i..=i],
                    &acc[at],
                    cs,
                    to,
                    &mut [&mut *orow],
                );
            }
        }
    }

    /// Channels in the lanes: every valid `(pixel, tap)` pair — the tap plan
    /// `g.ys × g.xs`, computed once per layer — is one elementwise
    /// multiply-add over the run's channels of that sample, at any stride;
    /// the `[p, channels]` accumulator is dequantized channel by channel.
    fn channels(&self, planes: Range<usize>, run: &mut [f32]) {
        let (gemm, g, c) = (self.gemm, self.g, self.gemm.rows);
        let (p, hw) = (g.oh * g.ow, g.h * g.w);
        let (mut acc, mut cs) = (Vec::new(), Vec::new());
        let mut ci = planes.start;
        while ci < planes.end {
            // The run's channels `c0..c0 + cr` of sample `i`.
            let (i, c0) = (ci / c, ci % c);
            let cr = (c - c0).min(planes.end - ci);
            acc.clear();
            acc.resize(p * cr, T::Acc::default());
            cs.clear();
            cs.resize(if gemm.has_offset { p * cr } else { 0 }, T::Cs::default());
            for (ki, ys) in g.ys.iter().enumerate() {
                for (kj, xs) in g.xs.iter().enumerate() {
                    let ws = &self.taps[(ki * g.kw + kj) * c + c0..][..cr];
                    for (oy, ox) in ys.clone().flat_map(|oy| xs.clone().map(move |ox| (oy, ox))) {
                        let from = (oy * g.stride + ki - g.pad) * g.w + ox * g.stride + kj - g.pad;
                        let src = &self.operand[(i * hw + from) * c + c0..][..cr];
                        let at = (oy * g.ow + ox) * cr;
                        for ((a, &w), &v) in acc[at..at + cr].iter_mut().zip(ws).zip(src) {
                            *a = T::mad(*a, w, v);
                        }
                        for (o, &v) in cs.iter_mut().skip(at).zip(src) {
                            *o += v.into();
                        }
                    }
                }
            }
            let (sa, out) = (
                self.scales[i],
                &mut run[(ci - planes.start) * p..][..cr * p],
            );
            for (k, orow) in out.chunks_mut(p).enumerate() {
                let (f, acc) = (Affine::of(gemm, c0 + k), acc.iter().skip(k).step_by(cr));
                if gemm.has_offset {
                    let cs = cs.iter().skip(k).step_by(cr);
                    for ((o, &v), &c) in orow.iter_mut().zip(acc).zip(cs) {
                        *o = f.offset(sa, v, c);
                    }
                } else {
                    for (o, &v) in orow.iter_mut().zip(acc) {
                        *o = f.plain(sa, v);
                    }
                }
            }
            ci += cr;
        }
    }
}

// ---------------------------------------------------------------------------
// Fused routes (≤ 15-bit storage: multiply on the pack-time weight words)
// ---------------------------------------------------------------------------

/// The fused flavour on `L`-lane codes into `A` accumulators: the kernels
/// multiply directly on the pack-time weight words, [`Route::GROUP`] codes
/// apiece — nibble weights as `w + 8 ∈ [0, 15]` unsigned bytes, which
/// `maddubs` takes, the shift undone by an exact `-8·colsum` — one call per
/// period of words at most ([`KernelWeights::Words`]; DESIGN.md §6g has the
/// bounds).
pub(crate) struct Fused<L, A = i32>(PhantomData<(L, A)>);
/// ≤ 4-bit weights on `i8` codes (|a| ≤ 15): `maddubs`-class kernels.
pub(crate) type FusedNibble = Fused<i8>;
/// 5–15-bit weights on `i16` codes (|a| ≤ 2^15 − 1): `madd` on i16 pairs.
pub(crate) type FusedI8 = Fused<i16>;

/// An activation lane of a fused flavour: its [`Route::WEIGHT_BIAS`], what
/// [`Arith::of`] calls it, and table `k`'s column-block and thin kernels.
pub(crate) trait FusedLane: EmitLane + Into<i32> + Into<i64> {
    const WEIGHT_BIAS: i32;
    const ARITH: Arith;
    fn kernels(k: &Kernels) -> (FusedKernel<Self>, Option<FusedKernel<Self>>);
}

impl FusedLane for i8 {
    const WEIGHT_BIAS: i32 = 8;
    const ARITH: Arith = Arith::FusedNibble;
    fn kernels(k: &Kernels) -> (FusedKernel<i8>, Option<FusedKernel<i8>>) {
        (k.gemm_nibble, k.gemm_nibble_thin)
    }
}

impl FusedLane for i16 {
    const WEIGHT_BIAS: i32 = 0;
    const ARITH: Arith = Arith::FusedI8;
    fn kernels(k: &Kernels) -> (FusedKernel<i16>, Option<FusedKernel<i16>>) {
        (k.gemm_i8, k.gemm_i8_thin)
    }
}

/// A fused route's accumulator: `i32` where one kernel call reduces a whole
/// weight row (the layer's period covers it), `i64` where the row runs
/// period by period, each call's exact i32 sum folded in.
pub(crate) trait FusedAcc:
    ToF32 + Default + Copy + Send + Sync + Sum + AddAssign + SubAssign + Mul<Output = Self> + From<i32>
{
    /// `acc` itself where it is the kernels' i32 accumulator.
    fn as_i32(acc: &mut [Self]) -> Option<&mut [i32]>;
}

impl FusedAcc for i32 {
    fn as_i32(acc: &mut [i32]) -> Option<&mut [i32]> {
        Some(acc)
    }
}

impl FusedAcc for i64 {
    fn as_i32(_: &mut [i64]) -> Option<&mut [i32]> {
        None
    }
}

impl<L: FusedLane + Into<A>, A: FusedAcc> Operands for Fused<L, A> {
    type Lane = L;
    type Acc = A;
    type Cs = A;
}

impl<L: FusedLane + Into<A>, A: FusedAcc> Route for Fused<L, A> {
    /// The kernel, the words, words per row, words per call (the period, in
    /// whole vector steps on a thin kernel) and whether the kernel is thin.
    type Kernel<'g> = (FusedKernel<L>, &'g [u32], usize, usize, bool);
    /// One call's i32 sums, before they fold into i64 accumulators.
    type Scratch = Vec<i32>;
    const GROUP: usize = 4 / std::mem::size_of::<L>();
    const WEIGHT_BIAS: i32 = L::WEIGHT_BIAS;

    fn route<'g>(
        k: &Kernels,
        g: &'g PackedGemm,
        (n, p): (usize, usize),
    ) -> (Self::Kernel<'g>, usize) {
        let KernelWeights::Words { words, period } = &g.kernel else {
            unreachable!("Arith::of routes only layers with weight words here");
        };
        let ((columns, thin), stride) = (L::kernels(k), g.cols.div_ceil(Self::GROUP));
        match (L::ARITH.gemm_lanes(g, n * p, k), thin) {
            (Lanes::Reduction, Some(thin)) => {
                let span = period / THIN_WORDS * THIN_WORDS;
                let ig = stride.next_multiple_of(THIN_WORDS) * Self::GROUP;
                ((thin, words, stride, span, true), ig)
            }
            _ => ((columns, words, stride, *period, false), Self::GROUP),
        }
    }
    fn step(
        (kernel, words, stride, span, thin): Self::Kernel<'_>,
        row: usize,
        (block, cs): (&[L], &[A]),
        part: &mut Vec<i32>,
        acc: &mut [A],
    ) {
        let (w, l, g) = (&words[row * stride..][..stride], acc.len(), Self::GROUP);
        if let Some(acc) = A::as_i32(acc) {
            acc.fill(0);
            kernel(acc, w, block, l);
        } else {
            // Period by period; a thin operand one column at a time, each
            // period whole vector steps of the column.
            acc.fill(A::default());
            part.resize(if thin { 1 } else { l }, 0);
            for (q, w) in (0..).step_by(span).zip(w.chunks(span)) {
                if thin {
                    let (ig, lanes) = (block.len() / l, w.len().next_multiple_of(THIN_WORDS) * g);
                    for (j, a) in acc.iter_mut().enumerate() {
                        part[0] = 0;
                        kernel(part, w, &block[j * ig + q * g..][..lanes], 1);
                        *a += A::from(part[0]);
                    }
                } else {
                    part.fill(0);
                    kernel(part, w, &block[q * g * l..][..w.len() * g * l], l);
                    acc.iter_mut()
                        .zip(&*part)
                        .for_each(|(a, &v)| *a += A::from(v));
                }
            }
        }
        if L::WEIGHT_BIAS != 0 {
            for (a, &c) in acc.iter_mut().zip(cs) {
                *a -= A::from(L::WEIGHT_BIAS) * c;
            }
        }
    }
}

/// Repacks the `groups` back-to-back `[rows, ncols]` code blocks of `cols`
/// into the fused layout, group by group: rows go `g` at a time and each
/// such row group's lanes sit adjacent per column (`out[(q·ncols + j)·g + k]
/// = block[(q·g + k)·ncols + j]`), the final partial row group zero-padded.
/// One contiguous load then feeds a whole weight word's worth of multiplies
/// per column block — or, at `g ≥ rows`, a whole column's reduction (the
/// transposed, column-major operand of the thin kernels). Only a patch
/// matrix `im2col` built needs it: a pointwise layer's codes are emitted in
/// this layout directly ([`gemm_int`]).
fn interleave_blocks<L: Copy + Default + Send + Sync>(
    cols: &[L],
    groups: usize,
    rows: usize,
    ncols: usize,
    g: usize,
) -> Vec<L> {
    let padded = rows.div_ceil(g) * g * ncols;
    let mut out = vec![L::default(); groups * padded];
    gate(cols.len() >= PAR_FLOP_THRESHOLD, || {
        par_chunks_mut(&mut out, padded.max(1), |gi, dst| {
            let block = &cols[gi * rows * ncols..(gi + 1) * rows * ncols];
            for (p, src) in block.chunks_exact(ncols).enumerate() {
                let (q, k) = (p / g, p % g);
                let dst = &mut dst[q * g * ncols..(q + 1) * g * ncols];
                for (j, &v) in src.iter().enumerate() {
                    dst[j * g + k] = v;
                }
            }
        })
    });
    out
}

/// A conv over the `n` samples of `x`, `[c, h, w]` apiece, on table `k`:
/// [`Depthwise`] on a depthwise layer's taps, else [`gemm_int`] on the
/// layer's [`Route`].
fn exec_int(
    k: &Kernels,
    gemm: &PackedGemm,
    g: &ConvGeom,
    groups: usize,
    x: &[f32],
    nc @ (_, c): (usize, usize),
    rule: ActRule,
) -> Vec<f32> {
    // f32 weights the packer stored tap-major.
    let taps = !gemm.storage.is_integer() && is_depthwise(c / groups, gemm.rows, groups);
    match (Arith::of(gemm), taps) {
        (Arith::F32, true) => depthwise::<DenseF32>(k, gemm, g, x, nc, rule),
        (Arith::F32, false) => gemm_int::<DenseF32>(k, gemm, g, groups, x, nc, rule),
        (Arith::Tier(Accum::F32), _) => depthwise::<TierF32>(k, gemm, g, x, nc, rule),
        (Arith::Tier(Accum::I32), _) => depthwise::<TierI32>(k, gemm, g, x, nc, rule),
        (Arith::Tier(Accum::I64), _) if matches!(gemm.kernel, KernelWeights::Taps(_)) => {
            depthwise::<TierI64>(k, gemm, g, x, nc, rule)
        }
        (Arith::Tier(Accum::I64), _) => gemm_int::<TierI64>(k, gemm, g, groups, x, nc, rule),
        (Arith::FusedNibble, _) => fused::<i8>(k, gemm, g, groups, x, nc, rule),
        (Arith::FusedI8, _) => fused::<i16>(k, gemm, g, groups, x, nc, rule),
    }
}

/// [`gemm_int`] on the fused route of `L`-lane codes: i32 accumulators where
/// the layer's period covers a whole weight row, i64 ones where it does not.
fn fused<L: FusedLane>(
    k: &Kernels,
    gemm: &PackedGemm,
    g: &ConvGeom,
    groups: usize,
    x: &[f32],
    nc: (usize, usize),
    rule: ActRule,
) -> Vec<f32> {
    let KernelWeights::Words { period, .. } = gemm.kernel else {
        unreachable!("Arith::of routes only layers with weight words here");
    };
    if gemm.cols.div_ceil(Fused::<L>::GROUP) <= period {
        gemm_int::<Fused<L, i32>>(k, gemm, g, groups, x, nc, rule)
    } else {
        gemm_int::<Fused<L, i64>>(k, gemm, g, groups, x, nc, rule)
    }
}

fn exec_conv(
    table: &Kernels,
    gemm: &PackedGemm,
    g: &ConvGeom,
    groups: usize,
    quantize_input: bool,
    x: &Tensor,
    rule: ActRule,
) -> Tensor {
    let (n, c) = (x.dims()[0], x.dims()[1]);
    // A raw-input stem reads its input as it comes.
    let rule = if quantize_input {
        rule
    } else {
        let quantizer = Quantizer::Identity;
        ActRule { quantizer, ..rule }
    };
    let out = exec_int(table, gemm, g, groups, x.data(), (n, c), rule);
    Tensor::from_vec(vec![n, gemm.rows, g.oh, g.ow], out)
}

fn exec_linear(k: &Kernels, g: &PackedGemm, x: &Tensor, rule: ActRule) -> Tensor {
    let dims = x.dims();
    assert_eq!(dims.len(), 2, "linear input must be rank 2");
    let (n, f) = (dims[0], dims[1]);
    assert_eq!(f, g.cols, "linear in-feature mismatch");

    // The pointwise conv on a 1×1 map: the `[n, f]` input read in place as
    // `[n, f, 1, 1]`, the `[n, rows, 1, 1]` result stored as is.
    static MAP: LazyLock<ConvGeom> = LazyLock::new(|| ConvGeom::new(1, 1, 1, 1, 1, 0));
    let out = exec_int(k, g, &MAP, 1, x.data(), (n, f), rule);
    Tensor::from_vec(vec![n, g.rows], out)
}

#[cfg(test)]
mod tests;
