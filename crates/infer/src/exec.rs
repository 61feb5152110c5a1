//! Packed-layer kernels: one GEMM driver and one depthwise kernel for every
//! packed layer at every width, the operands they read and the epilogue they
//! store through. `crate::plan` decides, once per (width, input shape,
//! table), what each layer runs and where its buffers sit; this module runs
//! one layer (DESIGN.md §6c).
//!
//! **One GEMM driver, and the batch is a GEMM dimension.** Every conv and
//! linear — the pointwise conv on a 1×1 map — runs [`gemm`] on its
//! [`Route`], the f32 fallback ([`DenseF32`]) as one more route, over one
//! `[cg·r·s, n·oh·ow]` operand per group (sample `i` owns columns
//! `i·oh·ow..`; a layer whose operand would outgrow L1 goes in blocks of
//! whole samples); the kernel runs once per weight row over all of those
//! columns ([`gemm_rows`]) and the dequant epilogue stores each sample's
//! segment with that sample's scale, through the activation folded into it.
//! Depthwise layers have no GEMM and convolve plane by plane ([`Depthwise`]),
//! their lanes on pixels or channels (`crate::route`).
//!
//! A sample cannot observe its batch-mates: a column's accumulator is the
//! *exact* sum over that column's own patch (integers, or f32 lanes below
//! 2^24; on the f32 fallback one k-ascending chain per element), batching
//! adds columns, never reduction length, and with per-sample activation
//! scales ([`ActQuant::PerSample`]) a segment's epilogue reads nothing of
//! another sample.
//!
//! **Quantize once, into the operand.** A layer's grid comes from the
//! max-abs its producer recorded, and its codes are emitted in one pass into
//! the layout its kernel reads ([`Operands::emitter`]) — a windowed conv's
//! once per sample, then gathered through the plan's patch table. Every lane
//! an operand holds is written, padding included: nothing is inherited from
//! the arena. Accumulation is exact and every parallel region assigns
//! disjoint output slices by index, so results are bit-identical at any
//! thread count.

use crate::plan::{whole_lines, Carve, Needs, Pooled, Pools};
use crate::route::Lanes;
use crate::simd::{EmitLane, FusedKernel, Kernels, Layout, THIN_WORDS};
use crate::{KernelWeights, PackedGemm, Storage, Taps};
use instantnet_nn::layers::Activation;
use instantnet_parallel::{max_threads, par_chunks_mut};
use instantnet_quant::{ActivationGrid, BitWidth, Quantizer};
use instantnet_tensor::tensor::ConvGeom;
use std::borrow::Cow;
use std::cell::Cell;
use std::iter::Sum;
use std::marker::PhantomData;
use std::ops::{AddAssign, Mul, Range, SubAssign};
use std::sync::Arc;
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

impl ActRule {
    /// Whether this rule puts activations on a grid at all.
    pub(crate) fn quantizes(self) -> bool {
        !self.bits.is_full_precision() && !matches!(self.quantizer, Quantizer::Identity)
    }
}

thread_local! {
    /// Operand-building time of the step a profiled forward is running on
    /// this thread; `None` outside one, so an unprofiled forward reads no
    /// clock.
    pub(crate) static OPERAND_TIME: Cell<Option<Duration>> = const { Cell::new(None) };
}

/// Runs `build` — laying a layer's input out as its kernel's operand — and,
/// inside a profiled forward, adds its wall time to the step's quantize
/// time (on the thread running the forward). Never nested.
fn timed_operand<R>(build: impl FnOnce() -> R) -> R {
    let Some(spent) = OPERAND_TIME.get() else {
        return build();
    };
    let start = Instant::now();
    let out = build();
    OPERAND_TIME.set(Some(spent + start.elapsed()));
    out
}

/// `v` through the activation the plan folded into a store: what the
/// separate activation op computed on the stored value, bit for bit.
#[inline(always)]
pub(crate) fn act(a: Activation, v: f32) -> f32 {
    match a {
        Activation::Relu => v.max(0.0),
        Activation::Relu6 => v.clamp(0.0, 6.0),
        Activation::None => v,
    }
}

/// `$body` with `$f` bound to [`act`] of the activation `$fold` as a closure
/// the compiler sees whole — one copy of `$body` per activation — so a store
/// loop through it vectorises.
macro_rules! folded {
    ($fold:expr, |$f:ident| $body:expr) => {
        match $fold {
            Activation::None => {
                let $f = |v: f32| v;
                $body
            }
            Activation::Relu => {
                let $f = |v: f32| act(Activation::Relu, v);
                $body
            }
            Activation::Relu6 => {
                let $f = |v: f32| act(Activation::Relu6, v);
                $body
            }
        }
    };
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
/// emitted in, its accumulator and column-sum types, and how a sample lands
/// in its operand. A GEMM's [`Route`] and a depthwise layer's [`Tier`] build
/// on it.
pub(crate) trait Operands: Sync {
    type Lane: EmitLane + Pooled + Into<Self::Cs>;
    type Acc: ToF32 + Pooled;
    type Cs: ToF32 + Pooled + Sum + AddAssign;
    /// Whether the operand holds the activations themselves (the f32
    /// fallback) rather than codes.
    const VALUES: bool = false;

    /// `x` as an operand as it stands, where this arithmetic reads values.
    fn values(_: &[f32]) -> Option<&[Self::Lane]> {
        None
    }

    /// Sample `i` of `feed`'s emitter, its grid built once: writes `src`,
    /// values of that sample, into `dst` in `layout` — their codes on the
    /// sample's grid, in this arithmetic's lanes.
    fn emitter<'f>(feed: &'f Feed, i: usize) -> impl Fn(&[f32], &mut [Self::Lane], Layout) + 'f {
        let (emit, grid) = (Self::Lane::emitter(feed.k), feed.grid(i));
        move |src, dst, layout| emit(&grid, src, dst, layout.canonical::<Self::Lane>())
    }
}

/// One arithmetic of the GEMM driver ([`gemm`]): a [`Fused`] flavour on
/// the pack-time weight words, the 16-bit layers' [`TierI64`], or the f32
/// fallback. Every integer route computes the *same exact value*, whatever
/// its order, batch packing or thread count.
pub(crate) trait Route: Operands {
    /// A layer's weight-row kernel, out of one kernel table.
    type Kernel<'g>: Copy + Sync;
    /// What a worker's [`Self::step`] works in beside its accumulators.
    type Spare: Pooled;
    /// Reduction rows per pack-time weight word: the lanes of a column that
    /// sit adjacent in the column kernels' operand (1: plain `[q, l]` rows).
    const GROUP: usize = 1;
    /// Shift added to every weight code at word-pack time; the kernel's
    /// accumulator is off by `WEIGHT_BIAS · colsum` per column.
    const WEIGHT_BIAS: i32 = 0;

    /// The interleave group of layer `g`'s operand with `lanes` in its
    /// lanes: [`Self::GROUP`] for the column-block kernels, the whole
    /// reduction (zero-padded to their vector step) for the thin ones.
    fn group(_: &PackedGemm, _: Lanes) -> usize {
        Self::GROUP
    }
    /// Table `k`'s kernel for layer `g` with `lanes` in its lanes.
    fn kernel<'g>(k: &Kernels, g: &'g PackedGemm, lanes: Lanes) -> Self::Kernel<'g>;
    /// Spare lanes [`Self::step`] needs over `l` columns.
    fn spare(_: Self::Kernel<'_>, _: usize) -> usize {
        0
    }
    /// `acc` = weight row `row` times `block`, one group's operand, exactly
    /// (`cs`: the block's column sums where needed); `held` is the worker's
    /// note of what its spare lanes hold, `None` at the start of a run.
    fn step(
        kernel: Self::Kernel<'_>,
        row: usize,
        block_cs: (&[Self::Lane], &[Self::Cs]),
        spare: &mut [Self::Spare],
        held: &mut Option<(usize, usize)>,
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
pub(crate) struct TierF32;
/// Bound ≤ i32::MAX / 2: native i32. Depthwise taps only.
pub(crate) struct TierI32;
/// Anything wider: 12/16-bit depthwise taps, and the 16-bit GEMMs, whose
/// activation codes fit no i16 lane — the one route that decodes a weight
/// row per block.
pub(crate) struct TierI64;
/// The f32 fallback ([`crate::route::Arith::F32`]: full precision, raw-input
/// stems, 17–31 bits): real-valued [`Storage::F32`] weights, read in place,
/// against the activations themselves, fake-quantized where a grid applies,
/// at unit scale. Each output is one chain over the reduction in ascending
/// order, started at `+0.0`, zero weights skipped — `Tensor::matmul`'s
/// order, which no column count or batch changes.
pub(crate) struct DenseF32;

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
    type Spare = i32;

    fn kernel<'g>(k: &Kernels, g: &'g PackedGemm, _: Lanes) -> Self::Kernel<'g> {
        ((k.decode_row_i32, k.accumulate_i64), &g.storage, g.cols)
    }
    fn spare((_, _, q): Self::Kernel<'_>, _: usize) -> usize {
        q
    }
    fn step(
        ((decode, accumulate), storage, q): Self::Kernel<'_>,
        row: usize,
        (block, _): (&[i32], &[i64]),
        wrow: &mut [i32],
        _: &mut Option<(usize, usize)>,
        acc: &mut [i64],
    ) {
        decode(storage, row, q, wrow);
        acc.fill(0);
        accumulate(acc, wrow, block);
    }
}

impl Operands for DenseF32 {
    type Lane = f32;
    type Acc = f32;
    type Cs = f32;
    const VALUES: bool = true;

    fn values(x: &[f32]) -> Option<&[f32]> {
        Some(x)
    }

    fn emitter<'f>(_: &'f Feed, _: usize) -> impl Fn(&[f32], &mut [f32], Layout) + 'f {
        Self::copy
    }
}

impl DenseF32 {
    /// Rows in the lanes: one register of f32 lanes on AVX2.
    pub(crate) const ROWS: usize = 8;

    /// [`Operands::emitter`] of the values as they stand (`feed` holds them
    /// fake-quantized where a grid applies): `dst[r·pitch + k·step] =
    /// src[r·width + k]`, the longer of the two axes innermost.
    fn copy(src: &[f32], dst: &mut [f32], layout: Layout) {
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

impl Route for DenseF32 {
    /// The weights, the reduction length, and whether the rows go in the
    /// lanes.
    type Kernel<'g> = (&'g [f32], usize, bool);
    /// With the rows in the lanes: the chains of the last block of
    /// [`Self::ROWS`] rows, for the (first row, operand) `held` names.
    type Spare = f32;

    /// The rows go in the lanes where a sample's output map cannot fill a
    /// register ([`Self::step`]).
    fn kernel<'g>(_: &Kernels, g: &'g PackedGemm, lanes: Lanes) -> Self::Kernel<'g> {
        let Storage::F32(w) = &g.storage else {
            unreachable!("Arith::of routes only f32 storage here");
        };
        (w, g.cols, lanes == Lanes::Reduction)
    }
    fn spare((_, _, thin): Self::Kernel<'_>, l: usize) -> usize {
        if thin {
            Self::ROWS * l
        } else {
            0
        }
    }
    /// The columns go in the lanes, one row at a time, zero weights
    /// skipped — where a sample's output map fills a register. Where it
    /// does not (a linear's one pixel, a 2×2 map), one row's chain would
    /// wait on its adder at small batch, so the rows go in the lanes: the
    /// first row asked for of each aligned block of [`Self::ROWS`] reduces
    /// the whole block — per column, lane `r` of its `[f32; ROWS]` in the
    /// spare lanes is row `b + r`'s chain, a short last block running its
    /// final row in the spare lanes — and the block's other rows are read
    /// back from it. There zero activations are skipped, one test per
    /// column. On finite values either skip drops only `±0.0` terms, which
    /// leave a chain started at `+0.0` alone; the choice is the layer's
    /// geometry, never its batch.
    fn step(
        (w, q, thin): Self::Kernel<'_>,
        row: usize,
        (block, _): (&[f32], &[f32]),
        chains: &mut [f32],
        held: &mut Option<(usize, usize)>,
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
        let (chains, _) = chains.as_chunks_mut::<{ Self::ROWS }>();
        if *held != Some((b, block.as_ptr() as usize)) {
            let rows = Self::ROWS.min(w.len() / q - b);
            chains.fill([0.0; Self::ROWS]);
            for (p, arow) in block.chunks_exact(l).enumerate() {
                let wp: [f32; Self::ROWS] =
                    std::array::from_fn(|r| w[(b + r.min(rows - 1)) * q + p]);
                for (lanes, &a) in chains.iter_mut().zip(arow) {
                    for (s, &wv) in lanes.iter_mut().zip(&wp) {
                        *s += if a != 0.0 { a * wv } else { 0.0 };
                    }
                }
            }
            *held = Some((b, block.as_ptr() as usize));
        }
        for (o, lanes) in acc.iter_mut().zip(chains) {
            *o = lanes[row - b];
        }
    }
}

/// A depthwise layer's pack-time tap table.
fn tap_table(g: &PackedGemm) -> &Taps {
    let KernelWeights::Taps(taps) = &g.kernel else {
        unreachable!("the plan routes only layers with a tap table here");
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
// Operands
// ---------------------------------------------------------------------------

/// A step's input: `n` samples of `x` on table `k`, quantized by `rule`, and
/// each sample's max-abs as its producer recorded it (read only by SBM).
#[derive(Clone, Copy)]
pub(crate) struct Input<'a> {
    pub(crate) k: &'static Kernels,
    pub(crate) x: &'a [f32],
    pub(crate) n: usize,
    pub(crate) maxes: &'a [f32],
    pub(crate) rule: ActRule,
}

/// A step's input as its operand builders read it ([`Operands::emitter`]): per
/// sample the grid its codes are emitted on, built from the recorded max-abs
/// — the whole batch's largest under [`ActQuant::PerBatch`] — or, on the f32
/// fallback, the values themselves, fake-quantized where a grid applies.
pub(crate) struct Feed<'a> {
    k: &'static Kernels,
    x: &'a [f32],
    n: usize,
    maxes: &'a [f32],
    batch: Option<f32>,
    rule: ActRule,
}

impl<'a> Feed<'a> {
    /// Arena lanes [`Self::new`] takes for route `R`.
    fn need<R: Operands>(input: &Input) -> Needs {
        let values = if R::VALUES && input.rule.quantizes() {
            input.x.len()
        } else {
            0
        };
        Needs::default()
            .with::<f32>(1, input.n)
            .with::<f32>(1, values)
    }

    /// Route `R`'s feed of `input` and each sample's activation scale, out
    /// of `c` (the f32 fallback's fake-quantized values, and the scales).
    fn new<R: Operands>(input: Input<'a>, c: &mut Carve<'a>) -> (Self, &'a [f32]) {
        let (n, rule) = (input.n, input.rule);
        let batch = (rule.aq == ActQuant::PerBatch).then(|| {
            let m = input.maxes[..n].iter();
            m.fold(0.0f32, |m, &v| m.max(v))
        });
        let mut feed = Feed {
            k: input.k,
            x: input.x,
            n,
            maxes: input.maxes,
            batch,
            rule,
        };
        let scales = c.take::<f32>(n);
        if !R::VALUES {
            for (i, s) in scales.iter_mut().enumerate() {
                *s = feed.grid(i).scale();
            }
        } else {
            scales.fill(1.0);
            if rule.quantizes() {
                let values = c.take::<f32>(input.x.len());
                values.copy_from_slice(input.x);
                let len = match rule.aq {
                    ActQuant::PerBatch => values.len(),
                    ActQuant::PerSample => values.len() / n,
                };
                for slice in values.chunks_mut(len.max(1)) {
                    rule.quantizer
                        .quantize_activations_in_place(slice, rule.bits);
                }
                feed.x = values;
            }
        }
        (feed, scales)
    }

    /// Sample `i`'s values.
    fn sample(&self, i: usize) -> &'a [f32] {
        let len = self.x.len() / self.n;
        &self.x[i * len..][..len]
    }

    /// Sample `i`'s grid: its own max-abs or the batch's.
    fn grid(&self, i: usize) -> ActivationGrid {
        let max = self.batch.unwrap_or_else(|| self.maxes[i]);
        let grid = self
            .rule
            .quantizer
            .activation_grid_with(&[], self.rule.bits, |_| max);
        grid.expect("integer storage implies quantized activations")
    }
}

/// Bytes one group's patch matrix may span: every weight row streams it
/// once, so it has to stay in L1 between rows, beside the accumulators and
/// the row's weights — half of a 32 KiB L1 (24 KiB already measured slower
/// than per-sample matrices on 12 KiB-per-sample i16 layers).
pub(crate) const PATCH_BLOCK_BYTES: usize = 16 << 10;

/// The workers a region of `units` independent units runs on: the thread
/// budget's where `parallel`, else one.
fn workers(parallel: bool, units: usize) -> usize {
    if parallel {
        max_threads().min(units).max(1)
    } else {
        1
    }
}

/// The first `len` lanes of `s`, which keeps the rest.
pub(crate) fn cut<'a, T>(s: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(s).split_at_mut(len);
    *s = tail;
    head
}

/// Runs `f(first, runs, scratch)` over `workers` runs of whole units, each
/// with its own `scratch()`: `out` is segments of `units` units of `unit`
/// lanes, and a worker's `runs` are the same units of every segment, from
/// unit `first` on. One worker takes `out` whole as its one run. Runs are
/// disjoint and indexed, so the result is independent of the split.
fn fan<W: Send>(
    out: &mut [f32],
    (units, unit): (usize, usize),
    workers: usize,
    mut scratch: impl FnMut() -> W,
    f: impl Fn(usize, &mut [&mut [f32]], W) + Sync,
) {
    if workers <= 1 || out.is_empty() {
        return f(0, &mut [out], scratch());
    }
    let per = units.div_ceil(workers);
    let mut work: Vec<(Vec<&mut [f32]>, Option<W>)> = (0..units.div_ceil(per))
        .map(|_| (Vec::new(), Some(scratch())))
        .collect();
    for segment in out.chunks_mut(units * unit) {
        for ((runs, _), run) in work.iter_mut().zip(segment.chunks_mut(per * unit)) {
            runs.push(run);
        }
    }
    par_chunks_mut(&mut work, 1, |w, item| {
        let (runs, scratch) = &mut item[0];
        f(w * per, runs, scratch.take().expect("one item per worker"));
    });
}

/// Zeroes the lanes of a `[rows, ncols]` operand block in interleave group
/// `ig` that no row fills — the last group's missing rows, which column sums
/// read and kernels multiply — so no lane keeps what the arena held.
fn zero_padding<L: Copy + Default>(block: &mut [L], rows: usize, ig: usize, ncols: usize) {
    let (last, filled) = (rows / ig, rows % ig);
    if filled > 0 {
        for j in 0..ncols {
            block[(last * ncols + j) * ig + filled..][..ig - filled].fill(L::default());
        }
    }
}

/// Writes one sample's patch-matrix columns `j0..j0 + p` into every group's
/// block of `operand`, `nq` groups of `ig` rows apiece, through the plan's
/// `window`: per group and row group, the `p·ig` lanes `(qi·ncols + j0 +
/// pix)·ig + t` — contiguous — are `src[window[..]]`, where an index past
/// `src` (the padding, and the missing rows of a last group) reads a zero.
fn unfold<L: Copy + Default>(
    window: &[u32],
    src: &[L],
    operand: &mut [L],
    (nq, ig, p): (usize, usize, usize),
    (ncols, j0): (usize, usize),
) {
    let run = p * ig;
    for (table, blk) in window
        .chunks(nq * run)
        .zip(operand.chunks_mut(nq * ig * ncols))
    {
        for (qi, table) in table.chunks(run).enumerate() {
            let dst = &mut blk[(qi * ncols + j0) * ig..][..run];
            for (o, &at) in dst.iter_mut().zip(table) {
                *o = src.get(at as usize).copied().unwrap_or_default();
            }
        }
    }
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

/// Where the epilogue stores sample `i`'s `p` outputs of a row from lane
/// `at` of the row on, or its one output of a linear's.
trait Store {
    fn seg(&mut self, i: usize, at: usize, p: usize) -> &mut [f32];
    fn one(&mut self, i: usize, at: usize) -> &mut f32;
}

/// One run, sample `i` from `at + i·.1`.
struct Strided<'o>(&'o mut [f32], usize);

impl Store for Strided<'_> {
    #[inline(always)]
    fn seg(&mut self, i: usize, at: usize, p: usize) -> &mut [f32] {
        &mut self.0[at + i * self.1..][..p]
    }
    #[inline(always)]
    fn one(&mut self, i: usize, at: usize) -> &mut f32 {
        &mut self.0[at + i * self.1]
    }
}

/// A run per sample ([`fan`]'s row split), sample `i` from `at` of run `i`.
struct PerSample<'o, 'r>(&'o mut [&'r mut [f32]]);

impl Store for PerSample<'_, '_> {
    #[inline(always)]
    fn seg(&mut self, i: usize, at: usize, p: usize) -> &mut [f32] {
        &mut self.0[i][at..][..p]
    }
    #[inline(always)]
    fn one(&mut self, i: usize, at: usize) -> &mut f32 {
        &mut self.0[i][at]
    }
}

/// The epilogue of one weight row: [`Affine`] over sample `i`'s accumulators
/// `acc[i·p..(i+1)·p]` with that sample's scale, the colsum term only where
/// the layer carries an offset (`cs` is `Some`), through the folded
/// activation `fold`, stored at `out.seg(i, at, p)`.
fn dequant<A: ToF32, C: ToF32>(
    g: &PackedGemm,
    row: usize,
    (scales, acc, cs): (&[f32], &[A], Option<&[C]>),
    fold: Activation,
    (mut out, at): (impl Store, usize),
) {
    let (f, p) = (Affine::of(g, row), acc.len() / scales.len());
    folded!(fold, |fold| {
        if p == 1 {
            // A linear layer: one output per sample.
            for (i, (&sa, &v)) in scales.iter().zip(acc).enumerate() {
                let y = cs.map_or_else(|| f.plain(sa, v), |cs| f.offset(sa, v, cs[i]));
                *out.one(i, at) = fold(y);
            }
            return;
        }
        for (i, &sa) in scales.iter().enumerate() {
            let (seg, acc) = (out.seg(i, at, p), &acc[i * p..][..p]);
            match cs {
                Some(cs) => {
                    for ((o, &v), &c) in seg.iter_mut().zip(acc).zip(&cs[i * p..]) {
                        *o = fold(f.offset(sa, v, c));
                    }
                }
                None => {
                    for (o, &v) in seg.iter_mut().zip(acc) {
                        *o = fold(f.plain(sa, v));
                    }
                }
            }
        }
    })
}

/// Maps a weight row of a `k`-row layer to its group; the usual ungrouped
/// layer pays no division per row.
fn group_of(k: usize, groups: usize) -> impl Fn(usize) -> usize {
    let kg = k / groups;
    move |row| if groups == 1 { 0 } else { row / kg }
}

// ---------------------------------------------------------------------------
// The GEMM driver
// ---------------------------------------------------------------------------

/// A dense conv — a linear is the 1×1 conv on a 1×1 map — as the plan
/// compiled it for one batch size.
pub(crate) struct GemmStep {
    pub(crate) gemm: Arc<PackedGemm>,
    /// Output pixels per sample.
    pub(crate) p: usize,
    pub(crate) groups: usize,
    /// What the kernel's lanes hold ([`crate::route::Arith::gemm_lanes`]).
    pub(crate) lanes: Lanes,
    /// The operand's interleave group ([`Route::group`]).
    pub(crate) ig: usize,
    /// Samples per operand block: the whole batch while a group's operand
    /// fits [`PATCH_BLOCK_BYTES`], else down to one.
    pub(crate) per_block: usize,
    /// A windowed conv's patch matrix as sources, in operand order `[group,
    /// row group, pixel, row in group]`: each lane's index into one sample's
    /// codes, past them where the lane is a zero ([`unfold`]); empty for a
    /// 1×1, stride-1, unpadded conv, whose planes are its operand.
    pub(crate) window: Arc<[u32]>,
}

/// One block worker's piece of the arena: its operand, a windowed conv's
/// sample codes, and what [`gemm_rows`] works in.
struct Work<'a, R: Route> {
    operand: &'a mut [R::Lane],
    src: &'a mut [R::Lane],
    rows: Rows<'a, R>,
}

/// [`gemm_rows`]'s piece of the arena.
struct Rows<'a, R: Route> {
    cs: &'a mut [R::Cs],
    acc: &'a mut [R::Acc],
    spare: &'a mut [R::Spare],
}

/// The one GEMM driver: step `s` on route `R` over `input` into the `[n, k,
/// oh, ow]` `out`. Per block of samples,
/// the operand in the step's interleave group — a 1×1 conv's planes emitted
/// straight into it, a windowed conv's sample codes gathered through its
/// window — then [`gemm_rows`]; blocks run in parallel where a batch takes
/// several.
pub(crate) fn gemm<R: Route>(
    s: &GemmStep,
    input: Input,
    out: &mut [f32],
    pools: &mut Pools,
    fold: Activation,
) {
    let (g, k, n) = (&*s.gemm, input.k, input.n);
    let (rows, q, p, m) = (g.rows, g.cols, s.p, s.per_block);
    let kernel = R::kernel(k, g, s.lanes);
    let nblocks = n.div_ceil(m);
    let wb = workers(2 * n * rows * q * p >= PAR_FLOP_THRESHOLD, nblocks);
    let l = m * p;
    let wr = match wb {
        1 => workers(2 * rows * q * l >= PAR_FLOP_THRESHOLD, rows),
        _ => 1,
    };
    let op = s.groups * q.div_ceil(s.ig) * s.ig * l;
    let src = if s.window.is_empty() || R::VALUES {
        0
    } else {
        input.x.len() / n
    };
    let cs = if R::WEIGHT_BIAS != 0 || g.has_offset {
        s.groups * l
    } else {
        0
    };
    // Each row worker's accumulators from a cache line of their own.
    let (acc, spare) = (wr * whole_lines::<R::Acc>(l), wr * R::spare(kernel, l));
    let need = Feed::need::<R>(&input)
        .with::<R::Lane>(wb, op)
        .with::<R::Lane>(wb, src)
        .with::<R::Cs>(wb, cs)
        .with::<R::Acc>(wb, acc)
        .with::<R::Spare>(wb, spare);
    let mut c = pools.carve(&need);
    let (feed, scales) = Feed::new::<R>(input, &mut c);
    let scratch = || Work::<R> {
        operand: c.take(op),
        src: c.take(src),
        rows: Rows {
            cs: c.take(cs),
            acc: c.take(acc),
            spare: c.take(spare),
        },
    };
    let blocks = (nblocks, m * rows * p);
    fan(out, blocks, wb, scratch, |first, runs, mut w| {
        for (bi, slab) in runs[0].chunks_mut(m * rows * p).enumerate() {
            let at = (first + bi) * m..(first + bi) * m + slab.len() / (rows * p);
            // A lone sample's values are a plain-row 1×1 conv's operand as
            // they stand.
            let direct = s.window.is_empty() && s.ig == 1 && at.len() == 1;
            let (buf, src) = (&mut *w.operand, &mut *w.src);
            let operand = match R::values(feed.sample(at.start)).filter(|_| direct) {
                Some(values) => values,
                None => timed_operand(|| operand::<R>(s, &feed, at.clone(), buf, src)),
            };
            gemm_rows::<R>(
                s,
                kernel,
                operand,
                (at, p),
                scales,
                slab,
                fold,
                &mut w.rows,
                wr,
            );
        }
    });
}

/// Lays samples `at` of `feed` out as step `s`'s operand in `buf` (a
/// windowed conv's sample codes through `src`), every lane written, and
/// returns it.
fn operand<'w, R: Route>(
    s: &GemmStep,
    feed: &Feed,
    at: Range<usize>,
    buf: &'w mut [R::Lane],
    src: &mut [R::Lane],
) -> &'w [R::Lane] {
    let (ig, p, q) = (s.ig, s.p, s.gemm.cols);
    let ncols = at.len() * p;
    let block = q.div_ceil(ig) * ig * ncols;
    let operand = &mut buf[..s.groups * block];
    if s.window.is_empty() {
        for blk in operand.chunks_mut(block) {
            zero_padding(blk, q, ig, ncols);
        }
    }
    for (i, si) in at.enumerate() {
        let (x, emit) = (feed.sample(si), R::emitter(feed, si));
        if s.window.is_empty() {
            // Each group's planes straight into its block, the sample at
            // column `i·p`.
            let layout = if ig == R::GROUP {
                let (width, pitch) = (p, ncols * ig);
                Layout::Words { width, pitch }
            } else {
                let (width, pitch) = (p, ig);
                Layout::Transposed { width, pitch }
            };
            for (plane, blk) in x.chunks(q * p).zip(operand.chunks_mut(block)) {
                emit(plane, &mut blk[i * p * ig..], layout);
            }
        } else {
            // The sample's codes once, then unfolded; the f32 fallback's
            // values unfold as they stand.
            let x = R::values(x).unwrap_or_else(|| {
                let (width, pitch) = (x.len(), x.len());
                emit(x, src, Layout::Rows { width, pitch });
                src
            });
            unfold(
                &s.window,
                x,
                operand,
                (q.div_ceil(ig), ig, p),
                (ncols, i * p),
            );
        }
    }
    operand
}

/// The one row loop: route `R`'s GEMM over `operand` — per group a
/// `[g.cols, l]` block in the step's interleave group, sample `at.start + i`
/// owning columns `i·p..` of the `l = at.len()·p` — into the `[.., k, p]`
/// result `out`, each sample's segment of a row dequantized with that
/// sample's scale out of `scales`; `wr` workers each own a run of rows of
/// every sample. The pack-time bounds hold at any batch size: batching adds
/// GEMM *columns*, never reduction *length*.
#[allow(clippy::too_many_arguments)]
fn gemm_rows<R: Route>(
    s: &GemmStep,
    kernel: R::Kernel<'_>,
    operand: &[R::Lane],
    (at, p): (Range<usize>, usize),
    scales: &[f32],
    out: &mut [f32],
    fold: Activation,
    w: &mut Rows<R>,
    wr: usize,
) {
    let g = &*s.gemm;
    let (k, l, block) = (g.rows, at.len() * p, operand.len() / s.groups);
    let len = if w.cs.is_empty() { 0 } else { s.groups * l };
    let cs = &mut w.cs[..len];
    cs.fill(R::Cs::default());
    for (cs, b) in cs.chunks_mut(l).zip(operand.chunks(block)) {
        R::colsums(b, s.ig, cs);
    }
    let (cs, group, scales) = (&*cs, group_of(k, s.groups), &scales[at.clone()]);
    let (al, sl) = (w.acc.len() / wr, w.spare.len() / wr);
    let (mut acc, mut spare) = (&mut *w.acc, &mut *w.spare);
    let scratch = || (&mut cut(&mut acc, al)[..l], cut(&mut spare, sl));
    fan(out, (k, p), wr, scratch, |first, runs, (acc, spare)| {
        let (mut held, nrows) = (None, runs.iter().map(|r| r.len()).sum::<usize>() / l);
        for row in first..first + nrows {
            let gi = group(row);
            let blk = (
                &operand[gi * block..][..block],
                cs.get(gi * l..).unwrap_or_default(),
            );
            R::step(kernel, row, blk, spare, &mut held, acc);
            let (rows, at) = (
                (scales, &*acc, g.has_offset.then(|| &cs[gi * l..][..l])),
                (row - first) * p,
            );
            match &mut *runs {
                [run] => dequant(g, row, rows, fold, (Strided(run, nrows * p), at)),
                runs => dequant(g, row, rows, fold, (PerSample(runs), at)),
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Depthwise
// ---------------------------------------------------------------------------

/// A depthwise conv (`groups == channels`) as the plan compiled it.
pub(crate) struct DwStep {
    pub(crate) gemm: Arc<PackedGemm>,
    pub(crate) geom: ConvGeom,
    /// Pixels or channels ([`crate::route::dw_lanes`]).
    pub(crate) lanes: Lanes,
}

/// A depthwise conv on tier `T` over `input` into the `[n, c, oh, ow]`
/// `out`, planes split over the workers: per sample a worker reaches, the
/// operand of its planes for the step's lanes — per plane a zero-padded
/// `[h + 2·pad, w + 2·pad]` frame (pixels in the lanes), or the `[h·w, c]`
/// lanes of its channels (channels) — then [`Depthwise`] over them. A
/// worker's operand holds one sample, whatever the batch.
pub(crate) fn depthwise<T: Tier>(
    s: &DwStep,
    input: Input,
    out: &mut [f32],
    pools: &mut Pools,
    fold: Activation,
) {
    let (g, gemm, n) = (&s.geom, &*s.gemm, input.n);
    let (c, p, hw, fw) = (gemm.rows, g.oh * g.ow, g.h * g.w, g.w + 2 * g.pad);
    let frame = (g.h + 2 * g.pad) * fw;
    let pixels = s.lanes == Lanes::Pixels;
    let per_sample = if pixels { c * frame } else { hw * c };
    let span = if pixels {
        (g.oh - 1) * fw + g.ow
    } else {
        p * c
    };
    let w = workers(2 * n * c * g.kh * g.kw * p >= PAR_FLOP_THRESHOLD, n * c);
    let cs = if gemm.has_offset { span } else { 0 };
    let need = Feed::need::<T>(&input)
        .with::<T::Lane>(w, per_sample)
        .with::<T::Acc>(w, span)
        .with::<T::Cs>(w, cs);
    let mut carve = pools.carve(&need);
    let (feed, scales) = Feed::new::<T>(input, &mut carve);
    let taps = T::taps(gemm);
    let dw = Depthwise::<T> {
        gemm,
        taps: &taps,
        g,
        scales,
        fold,
    };
    let scratch = || (carve.take(per_sample), carve.take(span), carve.take(cs));
    fan(
        out,
        (n * c, p),
        w,
        scratch,
        |first, runs, (operand, acc, cs)| {
            let run = &mut *runs[0];
            let end = first + run.len() / p;
            for (i, planes) in (first / c..end.div_ceil(c)).map(|i| (i, i * c..(i + 1) * c)) {
                let planes = planes.start.max(first)..planes.end.min(end);
                let (lo, hi) = (planes.start - i * c, planes.end - i * c);
                let (x, emit) = (&feed.sample(i)[lo * hw..hi * hw], T::emitter(&feed, i));
                timed_operand(|| {
                    if pixels {
                        let (width, pitch) = (g.w, fw);
                        for (plane, dst) in
                            x.chunks(hw).zip(operand[lo * frame..].chunks_mut(frame))
                        {
                            dst.fill(T::Lane::default());
                            let dst = &mut dst[g.pad * fw + g.pad..];
                            emit(plane, dst, Layout::Rows { width, pitch });
                        }
                    } else {
                        let (width, pitch) = (hw, c);
                        emit(x, &mut operand[lo..], Layout::Transposed { width, pitch });
                    }
                });
                let run = &mut run[(planes.start - first) * p..(planes.end - first) * p];
                if pixels {
                    dw.pixels(planes, run, operand, acc, cs);
                } else {
                    dw.channels(planes, run, operand, acc, cs);
                }
            }
        },
    );
}

/// A depthwise conv over one sample's operand at a time, `taps` the
/// pack-time `[r·s, c]` table: no patch matrix, no 1-column-per-group GEMM,
/// and the SIMD lanes follow the long axis. Either way a pixel accumulates
/// its taps in `im2col` row order, exactly (integers, or f32 lanes below
/// 2^24) — so the result matches the grouped-GEMM path bit for bit in every
/// tier; on the f32 fallback (`T = DenseF32`, real-valued taps, unit
/// `scales`) a frame's zero padding adds `±0.0` terms to a chain that
/// started at `+0.0`, which leaves every partial sum's bits alone.
struct Depthwise<'a, T: Tier> {
    gemm: &'a PackedGemm,
    taps: &'a [T::Lane],
    g: &'a ConvGeom,
    scales: &'a [f32],
    fold: Activation,
}

impl<T: Tier> Depthwise<'_, T> {
    /// Pixels in the lanes: tap `(ki, kj)` of a plane is one flat axpy of
    /// its frame, shifted by `ki·fw + kj`, into an accumulator that keeps
    /// the frame's row pitch `fw` (the `fw − ow` columns between output rows
    /// accumulate garbage nobody reads). Stride 1 only. `planes` lie in one
    /// sample, whose frames `operand` holds.
    fn pixels(
        &self,
        planes: Range<usize>,
        run: &mut [f32],
        operand: &[T::Lane],
        acc: &mut [T::Acc],
        cs: &mut [T::Cs],
    ) {
        let (gemm, g, c) = (self.gemm, self.g, self.gemm.rows);
        let fw = g.w + 2 * g.pad;
        let frame = (g.h + 2 * g.pad) * fw;
        for (ci, orow) in planes.zip(run.chunks_mut(g.oh * g.ow)) {
            let (i, ch) = (ci / c, ci % c);
            acc.fill(T::Acc::default());
            cs.fill(T::Cs::default());
            for t in 0..g.kh * g.kw {
                let wv = self.taps[t * c + ch];
                let src = &operand[ch * frame + t / g.kw * fw + t % g.kw..][..acc.len()];
                for (a, &v) in acc.iter_mut().zip(src) {
                    *a = T::mad(*a, wv, v);
                }
                for (o, &v) in cs.iter_mut().zip(src) {
                    *o += v.into();
                }
            }
            for oy in 0..g.oh {
                let at = oy * fw..oy * fw + g.ow;
                let cs = gemm.has_offset.then(|| &cs[at.clone()]);
                let (sa, acc) = (&self.scales[i..=i], &acc[at]);
                let out = (Strided(orow, 0), oy * g.ow);
                dequant(gemm, ch, (sa, acc, cs), self.fold, out);
            }
        }
    }

    /// Channels in the lanes: every valid `(pixel, tap)` pair — the tap plan
    /// `g.ys × g.xs`, computed once per layer — is one elementwise
    /// multiply-add over the run's channels of that sample, at any stride;
    /// the `[p, channels]` accumulator is dequantized channel by channel.
    /// `planes` lie in one sample, whose `[h·w, c]` lanes `operand` holds.
    fn channels(
        &self,
        planes: Range<usize>,
        run: &mut [f32],
        operand: &[T::Lane],
        acc: &mut [T::Acc],
        cs: &mut [T::Cs],
    ) {
        let (gemm, g, c) = (self.gemm, self.g, self.gemm.rows);
        let p = g.oh * g.ow;
        let mut ci = planes.start;
        while ci < planes.end {
            // The run's channels `c0..c0 + cr` of sample `i`.
            let (i, c0) = (ci / c, ci % c);
            let cr = (c - c0).min(planes.end - ci);
            let acc = &mut acc[..p * cr];
            let cs = &mut cs[..if gemm.has_offset { p * cr } else { 0 }];
            acc.fill(T::Acc::default());
            cs.fill(T::Cs::default());
            for (ki, ys) in g.ys.iter().enumerate() {
                for (kj, xs) in g.xs.iter().enumerate() {
                    let ws = &self.taps[(ki * g.kw + kj) * c + c0..][..cr];
                    for (oy, ox) in ys.clone().flat_map(|oy| xs.clone().map(move |ox| (oy, ox))) {
                        let from = (oy * g.stride + ki - g.pad) * g.w + ox * g.stride + kj - g.pad;
                        let src = &operand[from * c + c0..][..cr];
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
            folded!(self.fold, |fold| {
                for (k, orow) in out.chunks_mut(p).enumerate() {
                    let (f, acc) = (Affine::of(gemm, c0 + k), acc.iter().skip(k).step_by(cr));
                    if gemm.has_offset {
                        let cs = cs.iter().skip(k).step_by(cr);
                        for ((o, &v), &c) in orow.iter_mut().zip(acc).zip(cs) {
                            *o = fold(f.offset(sa, v, c));
                        }
                    } else {
                        for (o, &v) in orow.iter_mut().zip(acc) {
                            *o = fold(f.plain(sa, v));
                        }
                    }
                }
            });
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

/// An activation lane of a fused flavour: its [`Route::WEIGHT_BIAS`] and
/// table `k`'s column-block and thin kernels.
pub(crate) trait FusedLane: EmitLane + Pooled + Into<i32> + Into<i64> {
    const WEIGHT_BIAS: i32;
    fn kernels(k: &Kernels) -> (FusedKernel<Self>, Option<FusedKernel<Self>>);
}

impl FusedLane for i8 {
    const WEIGHT_BIAS: i32 = 8;
    fn kernels(k: &Kernels) -> (FusedKernel<i8>, Option<FusedKernel<i8>>) {
        (k.gemm_nibble, k.gemm_nibble_thin)
    }
}

impl FusedLane for i16 {
    const WEIGHT_BIAS: i32 = 0;
    fn kernels(k: &Kernels) -> (FusedKernel<i16>, Option<FusedKernel<i16>>) {
        (k.gemm_i8, k.gemm_i8_thin)
    }
}

/// A fused route's accumulator: `i32` where one kernel call reduces a whole
/// weight row (the layer's period covers it), `i64` where the row runs
/// period by period, each call's exact i32 sum folded in.
pub(crate) trait FusedAcc:
    ToF32 + Pooled + Sum + AddAssign + SubAssign + Mul<Output = Self> + From<i32>
{
    /// Whether a row runs period by period (i64).
    const WIDE: bool;
    /// `acc` itself where it is the kernels' i32 accumulator.
    fn as_i32(acc: &mut [Self]) -> Option<&mut [i32]>;
}

impl FusedAcc for i32 {
    const WIDE: bool = false;
    fn as_i32(acc: &mut [i32]) -> Option<&mut [i32]> {
        Some(acc)
    }
}

impl FusedAcc for i64 {
    const WIDE: bool = true;
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
    type Spare = i32;
    const GROUP: usize = 4 / std::mem::size_of::<L>();
    const WEIGHT_BIAS: i32 = L::WEIGHT_BIAS;

    fn group(g: &PackedGemm, lanes: Lanes) -> usize {
        match lanes {
            Lanes::Reduction => {
                g.cols.div_ceil(Self::GROUP).next_multiple_of(THIN_WORDS) * Self::GROUP
            }
            _ => Self::GROUP,
        }
    }
    fn kernel<'g>(k: &Kernels, g: &'g PackedGemm, lanes: Lanes) -> Self::Kernel<'g> {
        let KernelWeights::Words { words, period } = &g.kernel else {
            unreachable!("Arith::of routes only layers with weight words here");
        };
        let ((columns, thin), stride) = (L::kernels(k), g.cols.div_ceil(Self::GROUP));
        match (lanes, thin) {
            (Lanes::Reduction, Some(thin)) => {
                (thin, words, stride, period / THIN_WORDS * THIN_WORDS, true)
            }
            _ => (columns, words, stride, *period, false),
        }
    }
    fn spare(kernel: Self::Kernel<'_>, l: usize) -> usize {
        match (A::WIDE, kernel.4) {
            (false, _) => 0,
            (true, true) => 1,
            (true, false) => l,
        }
    }
    fn step(
        (kernel, words, stride, span, thin): Self::Kernel<'_>,
        row: usize,
        (block, cs): (&[L], &[A]),
        part: &mut [i32],
        _: &mut Option<(usize, usize)>,
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
            for (q, w) in (0..).step_by(span).zip(w.chunks(span)) {
                if thin {
                    let (ig, lanes) = (block.len() / l, w.len().next_multiple_of(THIN_WORDS) * g);
                    for (j, a) in acc.iter_mut().enumerate() {
                        part[0] = 0;
                        kernel(&mut part[..1], w, &block[j * ig + q * g..][..lanes], 1);
                        *a += A::from(part[0]);
                    }
                } else {
                    let part = &mut part[..l];
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

#[cfg(test)]
mod tests;
