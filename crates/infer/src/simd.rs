//! Explicit-SIMD backend for the hot reduction kernels, behind one-time
//! runtime dispatch.
//!
//! The packed engine's inner loops — the `accumulate_*` column reductions
//! and the per-row weight decode — are portable scalar Rust in
//! [`crate::exec`] / [`crate::Storage`]. This module adds AVX2
//! (`core::arch::x86_64`) and NEON (`core::arch::aarch64`)
//! implementations of the same kernels, plus **fused** ≤ 8-bit GEMM
//! kernels that multiply directly on packed codes, and selects a backend
//! **once per process** through a function table:
//!
//! * detection runs once ([`std::sync::OnceLock`]) via
//!   `is_x86_feature_detected!("avx2")` (ASIMD is baseline on aarch64, so
//!   NEON needs no runtime probe);
//! * the `INSTANTNET_SIMD` environment variable overrides detection
//!   (`scalar` forces the portable kernels anywhere; `avx2`/`neon`
//!   request that backend and fall back to detection when the CPU lacks
//!   it; anything else — including unset and `auto` — means "detect");
//! * tests and benches can force a backend for a scoped region with
//!   [`with_simd_backend`], which serializes callers on a global lock,
//!   and toggle the fused paths with [`with_fused_gemm`] (env default:
//!   `INSTANTNET_FUSED`, on unless `0`/`off`/`false`).
//!
//! A forward reads [`kernels`] once and runs every layer on that table, so
//! every serving path inherits the active backend with no API change.
//!
//! # Fused ≤ 8-bit GEMM
//!
//! The `gemm_nibble`/`gemm_i8` slots multiply on packed codes rather than
//! decoded ones, activations emitted as `i8`/`i16` codes:
//!
//! * **nibble** (≤ 4-bit weights): codes ship as `w + 8 ∈ [0, 15]`
//!   unsigned bytes, four to a `u32`; `maddubs`-class instructions form
//!   `(w₀+8)a₀ + (w₁+8)a₁` i16 pairs — bounded by 2·15·15 = 450, far from
//!   the i16 saturation point — then widen pair sums to i32. The `+8`
//!   shift is undone by an exact integer `-8·Σa` column-sum correction.
//! * **i8** (5–8-bit weights): codes ship as i16 pairs in a `u32`; `madd`
//!   (x86) / `smull`+pairwise-add (NEON) forms i32 pair sums directly —
//!   each product is bounded by 128·255, so the i32 pair sum is exact.
//!
//! Each has a **thin** orientation (`gemm_nibble_thin`/`gemm_i8_thin`, AVX2)
//! for GEMMs with fewer columns than the column block, which the kernels
//! above would run entirely in their scalar tail: the register holds
//! consecutive *reduction* lanes of one column against the matching weight
//! words (the same pack-time words, read in place), accumulates lane-wise
//! down the reduction and sums horizontally. Every lane's partial sum, and
//! their sum, is a sub-sum of the shifted reduction pack time bounds, so the
//! same admission gate covers both orientations.
//!
//! Pack time builds the weight words (`KernelWeights::Words`) only when
//! the whole shifted reduction and the column sums fit i32 with ×2 slack
//! (mirroring the 2^24 f32 bound; DESIGN.md §6g) — so the fused
//! accumulator equals the tier accumulator as a mathematical integer, and
//! results stay bit-identical.
//!
//! # Activation quantization
//!
//! Every packed layer quantizes its input — a per-sample max-abs, then one
//! code per activation — straight into the operand its kernel reads, in
//! that kernel's lane type and [`Layout`]. The table carries the max-abs
//! and one emitter per lane type (`i8`, `i16`, `i32`, `f32`): the scalar
//! table runs the quant crate's reference (`ActivationGrid::emit_strided`),
//! the AVX2 one the same rounding loop (`ActivationGrid::emit_run`) and
//! max-abs (`instantnet_quant::max_abs`) compiled for AVX2, plus in-register
//! layouts — `u32` words shift-or'd from `G` rows of codes, transposition by
//! 8×8 unpack blocks. Every emitter writes exactly the reference's codes
//! into exactly the reference's slots (DESIGN.md §6g has why).
//!
//! # Bit-identity contract
//!
//! The SIMD kernels produce **bit-identical** output to the scalar ones
//! for every tier × bit-width × quantizer × batch size × thread count:
//!
//! * the i32/i64 kernels are integer arithmetic, which is associative and
//!   commutative — lane order and write-back interleaving cannot change
//!   the final sums;
//! * the f32 kernels only ever see integer-valued lanes whose every
//!   partial sum is bounded below 2^24 (the pack-time tier selection in
//!   [`crate::pack`] guarantees the bound over the *whole* reduction, so
//!   every prefix in any association order is an exactly representable
//!   integer) — reassociating exact arithmetic is lossless;
//! * `decode_row` is elementwise (no reduction at all).
//!
//! The contract is pinned by the kernel-level parity tests below and by
//! `tests/simd_parity.rs`, which runs whole-model forwards under both
//! backends.
//!
//! # Safety
//!
//! This module is the only place in the workspace containing `unsafe`
//! code, and all of it is confined to the [`avx2`] submodule behind safe
//! wrappers. Two invariants carry every `unsafe` block:
//!
//! 1. **ISA availability**: the AVX2 table is only reachable after
//!    `is_x86_feature_detected!("avx2")` succeeded (dispatch default) or
//!    after [`with_simd_backend`] asserted availability — so executing
//!    AVX2 instructions is valid on this CPU.
//! 2. **In-bounds access**: every vector load/store takes its pointer
//!    from a bounds-checked subslice of exactly the lanes it touches, so
//!    the unsafe surface is the intrinsic call itself, never the
//!    addressing. Slice-shape contracts (`acts.len() == wrow.len() *
//!    acc.len()`) are debug-asserted at the wrapper boundary; the thin
//!    kernels' (each column whole vector steps covering the weight row) is
//!    an `assert!`, because violating it would read a neighbouring column
//!    in bounds — wrong, not unsafe — rather than panic.

use crate::Storage;
use instantnet_quant::{ActivationGrid, BitWidth, CodeLane, Quantizer};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// A kernel backend the dispatch table can route to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdBackend {
    /// Portable scalar Rust (the baseline every target can run).
    Scalar,
    /// 256-bit AVX2 integer/float kernels (x86-64 with runtime support).
    Avx2,
    /// 128-bit NEON/ASIMD kernels (baseline on aarch64).
    Neon,
}

impl SimdBackend {
    /// The knob spelling of this backend (`INSTANTNET_SIMD` value).
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Scalar => "scalar",
            SimdBackend::Avx2 => "avx2",
            SimdBackend::Neon => "neon",
        }
    }
}

/// The hot-kernel function table one backend provides. One static per
/// backend; [`kernels`] picks which one the engine routes through. Opaque
/// outside the crate.
pub struct Kernels {
    pub(crate) backend: SimdBackend,
    /// i32/f32 lanes per register: the column block of every kernel below,
    /// which `crate::route` measures a layer's axes against.
    pub(crate) lanes: usize,
    /// `acc[j] += Σ_p wrow[p] · acts[p · acc.len() + j]` in i32.
    pub(crate) accumulate_i32: fn(&mut [i32], &[i32], &[i32]),
    /// The i64-accumulator variant (12/16-bit layers).
    pub(crate) accumulate_i64: fn(&mut [i64], &[i32], &[i32]),
    /// The exact-f32-lane variant (≤ 8-bit layers).
    pub(crate) accumulate_f32: fn(&mut [f32], &[f32], &[f32]),
    /// Decodes one packed weight row into i32 codes.
    pub(crate) decode_row_i32: fn(&Storage, usize, usize, &mut [i32]),
    /// Decodes one packed weight row into exact f32 lanes.
    pub(crate) decode_row_f32: fn(&Storage, usize, usize, &mut [f32]),
    /// Fused nibble GEMM: `acc[j] += Σ_q Σ_k byte_k(w[q]) · block[(q·ncols
    /// + j)·4 + k]` over shifted `w + 8` bytes and an interleaved i8 block
    /// (`None`: backend multiplies on decoded codes only).
    pub(crate) gemm_nibble: Option<FusedKernel<i8>>,
    /// Fused i8 GEMM: same contract over i16 weight pairs and an
    /// interleaved i16 block, no shift.
    pub(crate) gemm_i8: Option<FusedKernel<i16>>,
    /// The thin orientation of `gemm_nibble`, for fewer than `lanes`
    /// columns: the operand is column-major (`[ncols, stride]`, `stride` a
    /// zero-padded multiple of [`THIN_WORDS`] words' worth of lanes) and the
    /// SIMD lanes run along the reduction, `acc[j] += Σ_q Σ_k byte_k(w[q]) ·
    /// block[j·stride + 4·q + k]` (`None`: thin GEMMs take `gemm_nibble`).
    pub(crate) gemm_nibble_thin: Option<FusedKernel<i8>>,
    /// The thin orientation of `gemm_i8`, same contract over i16 pairs.
    pub(crate) gemm_i8_thin: Option<FusedKernel<i16>>,
    /// `instantnet_quant::max_abs`: the SBM activation scale's max-abs.
    pub(crate) max_abs: fn(&[f32]) -> f32,
    /// Activation-code emitters, one per lane type ([`EmitLane`]).
    pub(crate) emit_i8: Emit<i8>,
    pub(crate) emit_i16: Emit<i16>,
    pub(crate) emit_i32: Emit<i32>,
    pub(crate) emit_f32: Emit<f32>,
}

/// A fused GEMM kernel: `(acc, packed weight words, interleaved activation
/// block, ncols)`.
pub(crate) type FusedKernel<L> = fn(&mut [i32], &[u32], &[L], usize);

/// Where an emitter writes the code of `x[r·width + k]`, the source read as
/// a row-major `[rows, width]` matrix (a last row may be shorter): the
/// operand layouts the engine's kernels read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `out[r·pitch + k]`: rows at a pitch — contiguous at `pitch == width`
    /// (a sample's codes), the rows of a zero-padded depthwise frame or of a
    /// pointwise layer's `[c, n·p]` operand.
    Rows {
        /// Source row length.
        width: usize,
        /// Distance between output rows.
        pitch: usize,
    },
    /// `out[(r / G)·pitch + k·G + r % G]` with `G = 4 / size_of::<L>()`
    /// lanes per `u32`: every `G` rows interleaved into one word per column
    /// — the fused column kernels' operand, a 1×1 conv's code planes
    /// straight into it. The missing lanes of a last group of fewer than
    /// `G` rows are left alone.
    Words {
        /// Source row length (columns of the word block).
        width: usize,
        /// Distance between groups of `G` rows.
        pitch: usize,
    },
    /// `out[k·pitch + r]`: the matrix transposed — `[channels, pixels]`
    /// into the `[pixels, channels]` operand of channel-lane depthwise, a
    /// 1×1 conv's code planes into a thin kernel's column-major operand.
    Transposed {
        /// Source row length (rows of the output).
        width: usize,
        /// Distance between output rows.
        pitch: usize,
    },
}

impl Layout {
    /// The same lanes in lanes `L`, one-column layouts as rows — `Words {
    /// width: 1, pitch }` is `Rows { width: G, pitch }`, `Transposed { width:
    /// 1, .. }` one run, and `G = 1` words rows — for emitters to run.
    pub(crate) fn canonical<L>(self) -> Layout {
        let g = 4 / std::mem::size_of::<L>();
        match self {
            Layout::Words { width: 1, pitch } => Layout::Rows { width: g, pitch },
            Layout::Words { width, pitch } if g == 1 => Layout::Rows { width, pitch },
            Layout::Transposed { width: 1, .. } => Layout::Rows { width: 1, pitch: 1 },
            layout => layout,
        }
    }
}

/// An activation-code emitter: the codes of `x` on `grid`, in lane type
/// `L`, written into `out` in `layout` — the reference's codes at the
/// reference's slots and nowhere else.
pub type Emit<L> = fn(&ActivationGrid, &[f32], &mut [L], Layout);

/// A lane type the engine emits activation codes in: `i8`/`i16` for the
/// fused kernels, `i32`/`f32` for the accumulator tiers.
pub trait EmitLane: CodeLane + Default + Send + Sync {
    /// This lane type's emitter in the table `k`.
    #[doc(hidden)]
    fn emitter(k: &Kernels) -> Emit<Self>;
}

impl EmitLane for i8 {
    fn emitter(k: &Kernels) -> Emit<i8> {
        k.emit_i8
    }
}
impl EmitLane for i16 {
    fn emitter(k: &Kernels) -> Emit<i16> {
        k.emit_i16
    }
}
impl EmitLane for i32 {
    fn emitter(k: &Kernels) -> Emit<i32> {
        k.emit_i32
    }
}
impl EmitLane for f32 {
    fn emitter(k: &Kernels) -> Emit<f32> {
        k.emit_f32
    }
}

/// The reference emitter — every layout through the quant crate's
/// [`ActivationGrid::emit_strided`]: the scalar and NEON tables' emitter
/// (and so the AVX2 emitters' rare ragged tails), the AVX2 table's rows, and
/// the oracle every emitter is tested against. Inlined so a caller compiled
/// for wider vectors gets the rounding loop in them.
#[inline(always)]
fn emit_reference<L: CodeLane>(grid: &ActivationGrid, x: &[f32], out: &mut [L], layout: Layout) {
    match layout {
        Layout::Rows { width, pitch } => grid.emit_strided(x, out, width, pitch, 1),
        Layout::Transposed { width, pitch } => grid.emit_strided(x, out, width, 1, pitch),
        Layout::Words { width, pitch } => {
            let g = 4 / std::mem::size_of::<L>();
            for (q, block) in x.chunks(g * width).enumerate() {
                grid.emit_strided(block, &mut out[q * pitch..], width, 1, g);
            }
        }
    }
}

/// Quantizes `x` as a packed layer quantizes one sample of its input, on
/// the active backend: the max-abs, the `bits`-bit grid of `quantizer`, and
/// every code emitted into `out` in `layout`. Returns the decode scale, or
/// `None` (leaving `out` untouched) where no integer grid exists. What the
/// activation-emission benchmarks time.
pub fn emit_activation_codes<L: EmitLane>(
    quantizer: Quantizer,
    bits: BitWidth,
    x: &[f32],
    out: &mut [L],
    layout: Layout,
) -> Option<f32> {
    let k = kernels();
    let grid = quantizer.activation_grid_with(x, bits, k.max_abs)?;
    (L::emitter(k))(&grid, x, out, layout);
    Some(grid.scale())
}

/// Weight words one vector step of a thin kernel consumes; thin operands pad
/// every column to a whole number of steps.
pub(crate) const THIN_WORDS: usize = 8;

static SCALAR: Kernels = Kernels {
    backend: SimdBackend::Scalar,
    lanes: 8,
    accumulate_i32: crate::exec::accumulate_i32_scalar,
    accumulate_i64: crate::exec::accumulate_i64_scalar,
    accumulate_f32: crate::exec::accumulate_f32_scalar,
    decode_row_i32: Storage::decode_row_scalar,
    decode_row_f32: Storage::decode_row_f32_scalar,
    // The scalar backend stays the pure decode-then-multiply reference the
    // parity suite measures everything against.
    gemm_nibble: None,
    gemm_i8: None,
    gemm_nibble_thin: None,
    gemm_i8_thin: None,
    max_abs: instantnet_quant::max_abs,
    emit_i8: emit_reference,
    emit_i16: emit_reference,
    emit_i32: emit_reference,
    emit_f32: emit_reference,
};

#[cfg(target_arch = "x86_64")]
static AVX2: Kernels = Kernels {
    backend: SimdBackend::Avx2,
    lanes: 8,
    accumulate_i32: avx2::accumulate_i32,
    accumulate_i64: avx2::accumulate_i64,
    accumulate_f32: avx2::accumulate_f32,
    decode_row_i32: avx2::decode_row_i32,
    decode_row_f32: avx2::decode_row_f32,
    gemm_nibble: Some(avx2::gemm_nibble),
    gemm_i8: Some(avx2::gemm_i8),
    gemm_nibble_thin: Some(avx2::gemm_nibble_thin),
    gemm_i8_thin: Some(avx2::gemm_i8_thin),
    max_abs: avx2::max_abs,
    emit_i8: avx2::emit,
    emit_i16: avx2::emit,
    emit_i32: avx2::emit,
    emit_f32: avx2::emit,
};

#[cfg(target_arch = "aarch64")]
static NEON: Kernels = Kernels {
    backend: SimdBackend::Neon,
    lanes: 4,
    accumulate_i32: neon::accumulate_i32,
    accumulate_i64: neon::accumulate_i64,
    accumulate_f32: neon::accumulate_f32,
    // Decode is elementwise and cold next to the reductions (the fused
    // paths never decode at all), so NEON keeps the scalar decoders.
    decode_row_i32: Storage::decode_row_scalar,
    decode_row_f32: Storage::decode_row_f32_scalar,
    gemm_nibble: Some(neon::gemm_nibble),
    gemm_i8: Some(neon::gemm_i8),
    // Below four columns the column kernels' scalar tail stays the route.
    gemm_nibble_thin: None,
    gemm_i8_thin: None,
    // ASIMD is baseline here, so the reference's rounding loop and the
    // max-abs are already compiled for 128-bit lanes; the transposed and
    // word layouts keep the reference's scalar scatter.
    max_abs: instantnet_quant::max_abs,
    emit_i8: emit_reference,
    emit_i16: emit_reference,
    emit_i32: emit_reference,
    emit_f32: emit_reference,
};

fn table(backend: SimdBackend) -> &'static Kernels {
    match backend {
        SimdBackend::Scalar => &SCALAR,
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx2 => &AVX2,
        #[cfg(target_arch = "aarch64")]
        SimdBackend::Neon => &NEON,
        // `resolve` never yields an unavailable backend and
        // `with_simd_backend` asserts availability, so these arms are
        // unreachable in practice.
        #[cfg(not(target_arch = "x86_64"))]
        SimdBackend::Avx2 => &SCALAR,
        #[cfg(not(target_arch = "aarch64"))]
        SimdBackend::Neon => &SCALAR,
    }
}

/// Whether this CPU can run the AVX2 backend (always false off x86-64).
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether this CPU can run the NEON backend (ASIMD is baseline on
/// aarch64, so this is a compile-time fact; always false elsewhere).
pub fn neon_available() -> bool {
    cfg!(target_arch = "aarch64")
}

/// Pure resolution of (env override, detected AVX2/NEON) → backend, split
/// out so the knob semantics are unit-testable without process-global
/// state. An explicit backend request still needs the CPU to support it;
/// degrade to detection instead of faulting on the first kernel.
fn resolve(env: Option<&str>, avx2: bool, neon: bool) -> SimdBackend {
    let detected = if avx2 {
        SimdBackend::Avx2
    } else if neon {
        SimdBackend::Neon
    } else {
        SimdBackend::Scalar
    };
    match env.map(str::trim) {
        Some(v) if v.eq_ignore_ascii_case("scalar") => SimdBackend::Scalar,
        Some(v) if v.eq_ignore_ascii_case("avx2") && avx2 => SimdBackend::Avx2,
        Some(v) if v.eq_ignore_ascii_case("neon") && neon => SimdBackend::Neon,
        // Unset, "auto", an unavailable request, or garbage: detect.
        _ => detected,
    }
}

/// Forced-backend override (0 = none, else `SimdBackend` discriminant+1):
/// process-global so worker threads spawned inside parallel regions see
/// the same backend as the caller that forced it.
static FORCED: AtomicU8 = AtomicU8::new(0);
static FORCE_LOCK: Mutex<()> = Mutex::new(());

/// Puts an override's previous value back on drop (also on panic).
struct Restore(&'static AtomicU8, u8);

impl Drop for Restore {
    fn drop(&mut self) {
        self.0.store(self.1, Ordering::SeqCst);
    }
}

fn default_kernels() -> &'static Kernels {
    static DEFAULT: OnceLock<&'static Kernels> = OnceLock::new();
    DEFAULT.get_or_init(|| {
        table(resolve(
            std::env::var("INSTANTNET_SIMD").ok().as_deref(),
            avx2_available(),
            neon_available(),
        ))
    })
}

/// The active kernel table: a forced override when one is in effect, else
/// the process default resolved once from `INSTANTNET_SIMD` + detection.
#[inline]
pub(crate) fn kernels() -> &'static Kernels {
    match FORCED.load(Ordering::Relaxed) {
        1 => &SCALAR,
        #[cfg(target_arch = "x86_64")]
        2 => &AVX2,
        #[cfg(target_arch = "aarch64")]
        3 => &NEON,
        _ => default_kernels(),
    }
}

/// The backend the engine currently dispatches to.
pub fn active_simd_backend() -> SimdBackend {
    kernels().backend
}

/// Runs `f` with kernel dispatch forced to `backend`, restoring the
/// previous state afterwards (also on panic).
///
/// The override is **process-global** — it must be, so worker threads
/// inside parallel regions run the same backend — and concurrent callers
/// are serialized on an internal lock (do not nest calls; a nested call
/// deadlocks). Forwards running concurrently *outside* the closure may
/// observe the override, which is safe because both backends are
/// bit-identical; only performance differs. Intended for parity tests and
/// scalar-vs-SIMD benches.
///
/// # Panics
///
/// Panics if `backend` is [`SimdBackend::Avx2`] / [`SimdBackend::Neon`]
/// on a CPU that cannot run it (callers gate on [`avx2_available`] /
/// [`neon_available`]).
pub fn with_simd_backend<T>(backend: SimdBackend, f: impl FnOnce() -> T) -> T {
    let available = match backend {
        SimdBackend::Scalar => true,
        SimdBackend::Avx2 => avx2_available(),
        SimdBackend::Neon => neon_available(),
    };
    assert!(
        available,
        "{} backend forced but this CPU cannot run it",
        backend.name()
    );
    let _serialize = FORCE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let _restore = Restore(&FORCED, FORCED.swap(backend as u8 + 1, Ordering::SeqCst));
    f()
}

/// Fused-GEMM override (0 = none, 1 = forced off, 2 = forced on) with its
/// own serialization lock — separate from `FORCE_LOCK` so a fused toggle
/// can nest inside [`with_simd_backend`] (the parity tests and the
/// fused-vs-widen benches do exactly that).
static FUSED_FORCED: AtomicU8 = AtomicU8::new(0);
static FUSED_LOCK: Mutex<()> = Mutex::new(());

fn fused_default() -> bool {
    static DEFAULT: OnceLock<bool> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let knob = std::env::var("INSTANTNET_FUSED").map(|v| v.trim().to_ascii_lowercase());
        !matches!(knob.as_deref(), Ok("0" | "off" | "false"))
    })
}

/// Whether eligible layers (`KernelWeights::Words` + a backend that provides
/// fused kernels) route through the fused ≤ 8-bit GEMM paths. On by
/// default; `INSTANTNET_FUSED=0|off|false` disables it process-wide, and
/// [`with_fused_gemm`] overrides it for a scope. Both routes compute
/// bit-identical results — only speed differs.
pub fn fused_gemm_enabled() -> bool {
    match FUSED_FORCED.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => fused_default(),
    }
}

/// Runs `f` with the fused ≤ 8-bit GEMM paths forced on or off, restoring
/// the previous state afterwards (also on panic). Process-global and
/// serialized like [`with_simd_backend`], on an independent lock so the
/// two scopes nest in either order (do not nest `with_fused_gemm` inside
/// itself; that deadlocks).
pub fn with_fused_gemm<T>(enabled: bool, f: impl FnOnce() -> T) -> T {
    let _serialize = FUSED_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let code = if enabled { 2 } else { 1 };
    let _restore = Restore(&FUSED_FORCED, FUSED_FORCED.swap(code, Ordering::SeqCst));
    f()
}

// ---------------------------------------------------------------------------
// Fused-kernel scalar reference (shared ragged-column tail of the AVX2 and
// NEON fused kernels, and the oracle the kernel-level parity tests check
// them against — call with `start = 0` for the full reduction)
// ---------------------------------------------------------------------------

/// `acc[j] += Σ_q Σ_k byte_k(wquads[q]) · block[(q·ncols + j)·4 + k]` for
/// columns `start..`, over the interleaved fused-nibble layout (weight
/// bytes are unsigned `w + 8` codes).
#[cfg_attr(
    not(any(target_arch = "x86_64", target_arch = "aarch64")),
    allow(dead_code)
)]
fn gemm_nibble_ref(acc: &mut [i32], wquads: &[u32], block: &[i8], ncols: usize, start: usize) {
    for (j, a) in acc.iter_mut().enumerate().skip(start) {
        let mut sum = 0i32;
        for (q, &wq) in wquads.iter().enumerate() {
            let lanes = &block[(q * ncols + j) * 4..(q * ncols + j) * 4 + 4];
            for (k, &v) in lanes.iter().enumerate() {
                sum += (((wq >> (8 * k)) & 0xFF) as i32) * i32::from(v);
            }
        }
        *a += sum;
    }
}

/// The fused-i8 counterpart: signed i16 weight pairs against an
/// interleaved i16 block.
#[cfg_attr(
    not(any(target_arch = "x86_64", target_arch = "aarch64")),
    allow(dead_code)
)]
fn gemm_i8_ref(acc: &mut [i32], wpairs: &[u32], block: &[i16], ncols: usize, start: usize) {
    for (j, a) in acc.iter_mut().enumerate().skip(start) {
        let mut sum = 0i32;
        for (q, &wp) in wpairs.iter().enumerate() {
            let w0 = (wp & 0xFFFF) as u16 as i16;
            let w1 = (wp >> 16) as u16 as i16;
            let base = (q * ncols + j) * 2;
            sum +=
                i32::from(w0) * i32::from(block[base]) + i32::from(w1) * i32::from(block[base + 1]);
        }
        *a += sum;
    }
}

// ---------------------------------------------------------------------------
// AVX2 kernels (x86-64 only; every `unsafe` in the crate lives here and in
// the NEON module below)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    // `loadu`/`storeu` intrinsics have no alignment requirement, so the
    // `*const i32 → *const __m256i` pointer casts below are sound; the
    // lint assumes the target type's alignment matters.
    #![allow(clippy::cast_ptr_alignment)]

    use crate::Storage;
    use core::arch::x86_64::{
        __m128i, __m256, __m256i, _mm256_add_epi32, _mm256_add_epi64, _mm256_add_ps,
        _mm256_cvtepi16_epi32, _mm256_cvtepi32_ps, _mm256_cvtepi8_epi32, _mm256_cvtepu8_epi32,
        _mm256_loadu_ps, _mm256_loadu_si256, _mm256_madd_epi16, _mm256_maddubs_epi16,
        _mm256_mul_epi32, _mm256_mul_ps, _mm256_mullo_epi32, _mm256_permute2x128_si256,
        _mm256_set1_epi16, _mm256_set1_epi32, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_setzero_si256, _mm256_shuffle_epi32, _mm256_slli_epi32, _mm256_srai_epi32,
        _mm256_storeu_ps, _mm256_storeu_si256, _mm256_unpackhi_epi32, _mm256_unpackhi_epi64,
        _mm256_unpacklo_epi32, _mm256_unpacklo_epi64, _mm_loadl_epi64, _mm_loadu_si128,
    };
    // The thin kernels' horizontal sum.
    use core::arch::x86_64::{
        _mm256_castsi256_si128, _mm256_extracti128_si256, _mm_add_epi32, _mm_cvtsi128_si32,
        _mm_shuffle_epi32,
    };
    // The activation-code layouts.
    use super::{EmitLane, Layout};
    use core::arch::x86_64::{
        _mm256_and_si256, _mm256_i32gather_epi32, _mm256_min_epi32, _mm256_or_si256,
        _mm256_setr_epi32, _mm256_sll_epi32, _mm_cvtsi32_si128,
    };
    use instantnet_quant::ActivationGrid;

    /// i32/f32 lanes per 256-bit register.
    const L: usize = 8;

    // --- safe wrappers: the only entry points into this module. Each
    // checks the slice-shape contract, then defers to a
    // `#[target_feature(enable = "avx2")]` kernel. ---

    pub(super) fn accumulate_i32(acc: &mut [i32], wrow: &[i32], acts: &[i32]) {
        debug_assert_eq!(
            acts.len(),
            wrow.len() * acc.len(),
            "acts must be [rows, ncols]"
        );
        // SAFETY: reachable only through the AVX2 dispatch table, which is
        // installed strictly after `is_x86_feature_detected!("avx2")`.
        unsafe { accumulate_i32_kernel(acc, wrow, acts) }
    }

    pub(super) fn accumulate_i64(acc: &mut [i64], wrow: &[i32], acts: &[i32]) {
        debug_assert_eq!(
            acts.len(),
            wrow.len() * acc.len(),
            "acts must be [rows, ncols]"
        );
        // SAFETY: as in `accumulate_i32`.
        unsafe { accumulate_i64_kernel(acc, wrow, acts) }
    }

    pub(super) fn accumulate_f32(acc: &mut [f32], wrow: &[f32], acts: &[f32]) {
        debug_assert_eq!(
            acts.len(),
            wrow.len() * acc.len(),
            "acts must be [rows, ncols]"
        );
        // SAFETY: as in `accumulate_i32`.
        unsafe { accumulate_f32_kernel(acc, wrow, acts) }
    }

    pub(super) fn gemm_nibble(acc: &mut [i32], wquads: &[u32], block: &[i8], ncols: usize) {
        debug_assert_eq!(acc.len(), ncols);
        debug_assert_eq!(
            block.len(),
            wquads.len() * 4 * ncols,
            "block must be the interleaved [quads × 4, ncols] layout"
        );
        // SAFETY: as in `accumulate_i32`.
        unsafe { gemm_nibble_kernel(acc, wquads, block, ncols) }
    }

    pub(super) fn gemm_i8(acc: &mut [i32], wpairs: &[u32], block: &[i16], ncols: usize) {
        debug_assert_eq!(acc.len(), ncols);
        debug_assert_eq!(
            block.len(),
            wpairs.len() * 2 * ncols,
            "block must be the interleaved [pairs × 2, ncols] layout"
        );
        // SAFETY: as in `accumulate_i32`.
        unsafe { gemm_i8_kernel(acc, wpairs, block, ncols) }
    }

    pub(super) fn gemm_nibble_thin(acc: &mut [i32], wquads: &[u32], block: &[i8], ncols: usize) {
        debug_assert_eq!(acc.len(), ncols);
        // SAFETY: as in `accumulate_i32`.
        unsafe { gemm_nibble_thin_kernel(acc, wquads, block) }
    }

    pub(super) fn gemm_i8_thin(acc: &mut [i32], wpairs: &[u32], block: &[i16], ncols: usize) {
        debug_assert_eq!(acc.len(), ncols);
        // SAFETY: as in `accumulate_i32`.
        unsafe { gemm_i8_thin_kernel(acc, wpairs, block) }
    }

    pub(super) fn decode_row_i32(storage: &Storage, row: usize, cols: usize, out: &mut [i32]) {
        let out = &mut out[..cols];
        match storage {
            Storage::Nibble(data) => {
                let stride = cols.div_ceil(2);
                // SAFETY: AVX2 detected (dispatch invariant); the row slice
                // is bounds-checked here.
                unsafe { decode_nibble_i32_kernel(&data[row * stride..(row + 1) * stride], out) }
            }
            // SAFETY (both arms): as above.
            Storage::I8(data) => unsafe {
                decode_i8_i32_kernel(&data[row * cols..(row + 1) * cols], out)
            },
            Storage::I16(data) => unsafe {
                decode_i16_i32_kernel(&data[row * cols..(row + 1) * cols], out)
            },
            Storage::F32(_) => panic!("decode_row on f32 storage"),
        }
    }

    pub(super) fn decode_row_f32(storage: &Storage, row: usize, cols: usize, out: &mut [f32]) {
        let out = &mut out[..cols];
        match storage {
            Storage::Nibble(data) => {
                let stride = cols.div_ceil(2);
                // SAFETY: as in `decode_row_i32`.
                unsafe { decode_nibble_f32_kernel(&data[row * stride..(row + 1) * stride], out) }
            }
            // SAFETY (both arms): as in `decode_row_i32`.
            Storage::I8(data) => unsafe {
                decode_i8_f32_kernel(&data[row * cols..(row + 1) * cols], out)
            },
            Storage::I16(data) => unsafe {
                decode_i16_f32_kernel(&data[row * cols..(row + 1) * cols], out)
            },
            Storage::F32(_) => panic!("decode_row_f32 on f32 storage"),
        }
    }

    // --- bounds-checked load/store helpers: each takes its pointer from a
    // subslice of exactly the lanes it touches, so addressing is proven by
    // the slice check and only the intrinsic call itself is unsafe. ---

    #[target_feature(enable = "avx2")]
    fn load_i32(s: &[i32], at: usize) -> __m256i {
        let lane = &s[at..at + L];
        // SAFETY: 8 readable i32 lanes per the slice above; unaligned load.
        unsafe { _mm256_loadu_si256(lane.as_ptr().cast()) }
    }

    #[target_feature(enable = "avx2")]
    fn store_i32(s: &mut [i32], at: usize, v: __m256i) {
        let lane = &mut s[at..at + L];
        // SAFETY: 8 writable i32 lanes per the slice above; unaligned store.
        unsafe { _mm256_storeu_si256(lane.as_mut_ptr().cast(), v) }
    }

    #[target_feature(enable = "avx2")]
    fn add_store_i32(acc: &mut [i32], at: usize, v: __m256i) {
        let sum = _mm256_add_epi32(load_i32(acc, at), v);
        store_i32(acc, at, sum);
    }

    #[target_feature(enable = "avx2")]
    fn load_i64(s: &[i64], at: usize) -> __m256i {
        let lane = &s[at..at + 4];
        // SAFETY: 4 readable i64 lanes per the slice above; unaligned load.
        unsafe { _mm256_loadu_si256(lane.as_ptr().cast()) }
    }

    #[target_feature(enable = "avx2")]
    fn add_store_i64(acc: &mut [i64], at: usize, v: __m256i) {
        let sum = _mm256_add_epi64(load_i64(acc, at), v);
        let lane = &mut acc[at..at + 4];
        // SAFETY: 4 writable i64 lanes per the slice above; unaligned store.
        unsafe { _mm256_storeu_si256(lane.as_mut_ptr().cast(), sum) }
    }

    #[target_feature(enable = "avx2")]
    fn load_f32(s: &[f32], at: usize) -> __m256 {
        let lane = &s[at..at + L];
        // SAFETY: 8 readable f32 lanes per the slice above; unaligned load.
        unsafe { _mm256_loadu_ps(lane.as_ptr()) }
    }

    #[target_feature(enable = "avx2")]
    fn add_store_f32(acc: &mut [f32], at: usize, v: __m256) {
        let sum = _mm256_add_ps(load_f32(acc, at), v);
        let lane = &mut acc[at..at + L];
        // SAFETY: 8 writable f32 lanes per the slice above; unaligned store.
        unsafe { _mm256_storeu_ps(lane.as_mut_ptr(), sum) }
    }

    /// Loads 8 bytes into the low half of an xmm register.
    #[target_feature(enable = "avx2")]
    fn load_8_bytes(s: &[u8], at: usize) -> __m128i {
        let lane = &s[at..at + 8];
        // SAFETY: 8 readable bytes per the slice above; unaligned load.
        unsafe { _mm_loadl_epi64(lane.as_ptr().cast()) }
    }

    /// Loads 32 i8 lanes (4 interleaved lanes × 8 columns).
    #[target_feature(enable = "avx2")]
    fn load_i8_32(s: &[i8], at: usize) -> __m256i {
        let lane = &s[at..at + 32];
        // SAFETY: 32 readable bytes per the slice above; unaligned load.
        unsafe { _mm256_loadu_si256(lane.as_ptr().cast()) }
    }

    /// Loads 16 i16 lanes (2 interleaved lanes × 8 columns).
    #[target_feature(enable = "avx2")]
    fn load_i16_16(s: &[i16], at: usize) -> __m256i {
        let lane = &s[at..at + 16];
        // SAFETY: 16 readable i16 lanes per the slice above; unaligned load.
        unsafe { _mm256_loadu_si256(lane.as_ptr().cast()) }
    }

    // --- accumulate kernels ---

    /// i32 column reduction, two registers (16 columns) per block so the
    /// integer pipes have independent chains to fill.
    #[target_feature(enable = "avx2")]
    fn accumulate_i32_kernel(acc: &mut [i32], wrow: &[i32], acts: &[i32]) {
        let ncols = acc.len();
        let mut j = 0usize;
        while j + 2 * L <= ncols {
            let mut s0 = _mm256_setzero_si256();
            let mut s1 = _mm256_setzero_si256();
            let mut base = j;
            for &wv in wrow {
                let w = _mm256_set1_epi32(wv);
                s0 = _mm256_add_epi32(s0, _mm256_mullo_epi32(w, load_i32(acts, base)));
                s1 = _mm256_add_epi32(s1, _mm256_mullo_epi32(w, load_i32(acts, base + L)));
                base += ncols;
            }
            add_store_i32(acc, j, s0);
            add_store_i32(acc, j + L, s1);
            j += 2 * L;
        }
        while j + L <= ncols {
            let mut s = _mm256_setzero_si256();
            let mut base = j;
            for &wv in wrow {
                s = _mm256_add_epi32(
                    s,
                    _mm256_mullo_epi32(_mm256_set1_epi32(wv), load_i32(acts, base)),
                );
                base += ncols;
            }
            add_store_i32(acc, j, s);
            j += L;
        }
        crate::exec::accumulate_col_tail(acc, wrow, acts, j, |l, w, a| l + w * a);
    }

    /// i64 column reduction. AVX2 has no 64×64 multiply, but
    /// `_mm256_mul_epi32` sign-extends the low dword of each qword into a
    /// full 64-bit product — exactly the i32×i32→i64 widening MAC the i64
    /// tier needs. Even columns multiply in place; odd columns are
    /// shuffled into the low-dword slots first, and the two qword
    /// accumulators are re-interleaved on write-back. Integer addition is
    /// order-free, so the split cannot change the sums.
    #[target_feature(enable = "avx2")]
    fn accumulate_i64_kernel(acc: &mut [i64], wrow: &[i32], acts: &[i32]) {
        let ncols = acc.len();
        let mut j = 0usize;
        while j + L <= ncols {
            let mut even = _mm256_setzero_si256(); // columns j, j+2, j+4, j+6
            let mut odd = _mm256_setzero_si256(); // columns j+1, j+3, j+5, j+7
            let mut base = j;
            for &wv in wrow {
                let w = _mm256_set1_epi32(wv);
                let a = load_i32(acts, base);
                even = _mm256_add_epi64(even, _mm256_mul_epi32(w, a));
                // 0xF5 copies dwords {1,3} of each 128-bit lane into the
                // qword low-dword slots {0,2}.
                odd = _mm256_add_epi64(odd, _mm256_mul_epi32(w, _mm256_shuffle_epi32::<0xF5>(a)));
                base += ncols;
            }
            let lo = _mm256_unpacklo_epi64(even, odd); // j, j+1 | j+4, j+5
            let hi = _mm256_unpackhi_epi64(even, odd); // j+2, j+3 | j+6, j+7
            add_store_i64(acc, j, _mm256_permute2x128_si256::<0x20>(lo, hi));
            add_store_i64(acc, j + 4, _mm256_permute2x128_si256::<0x31>(lo, hi));
            j += L;
        }
        crate::exec::accumulate_col_tail(acc, wrow, acts, j, |l, w, a| {
            l + i64::from(w) * i64::from(a)
        });
    }

    /// Exact-f32 column reduction (lanes are small integers; every partial
    /// sum stays below 2^24, so mul+add here is lossless and bit-identical
    /// to the scalar order). No FMA on purpose: `avx2` detection does not
    /// imply `fma`, and exactness makes fusion pointless.
    #[target_feature(enable = "avx2")]
    fn accumulate_f32_kernel(acc: &mut [f32], wrow: &[f32], acts: &[f32]) {
        let ncols = acc.len();
        let mut j = 0usize;
        while j + 2 * L <= ncols {
            let mut s0 = _mm256_setzero_ps();
            let mut s1 = _mm256_setzero_ps();
            let mut base = j;
            for &wv in wrow {
                let w = _mm256_set1_ps(wv);
                s0 = _mm256_add_ps(s0, _mm256_mul_ps(w, load_f32(acts, base)));
                s1 = _mm256_add_ps(s1, _mm256_mul_ps(w, load_f32(acts, base + L)));
                base += ncols;
            }
            add_store_f32(acc, j, s0);
            add_store_f32(acc, j + L, s1);
            j += 2 * L;
        }
        while j + L <= ncols {
            let mut s = _mm256_setzero_ps();
            let mut base = j;
            for &wv in wrow {
                s = _mm256_add_ps(s, _mm256_mul_ps(_mm256_set1_ps(wv), load_f32(acts, base)));
                base += ncols;
            }
            add_store_f32(acc, j, s);
            j += L;
        }
        crate::exec::accumulate_col_tail(acc, wrow, acts, j, |l, w, a| l + w * a);
    }

    // --- fused GEMM kernels (multiply on packed codes) ---

    /// Fused nibble GEMM: each `u32` carries four `w + 8 ∈ [0, 15]`
    /// unsigned weight bytes, broadcast to all 8 dwords of a register;
    /// `maddubs` multiplies them against 4-lane-interleaved i8 activations
    /// (one dword per column) into i16 pairs — |pair| ≤ 2·15·15 = 450,
    /// nowhere near the instruction's i16 saturation — and `madd` against
    /// ones widens pair sums to one i32 quad-sum per column. The caller
    /// subtracts `8·colsum` to undo the shift. Two accumulator registers
    /// (16 columns) per block keep independent dependency chains.
    #[target_feature(enable = "avx2")]
    fn gemm_nibble_kernel(acc: &mut [i32], wquads: &[u32], block: &[i8], ncols: usize) {
        let ones = _mm256_set1_epi16(1);
        let mut j = 0usize;
        while j + 2 * L <= ncols {
            let mut s0 = _mm256_setzero_si256();
            let mut s1 = _mm256_setzero_si256();
            for (q, &wq) in wquads.iter().enumerate() {
                let w = _mm256_set1_epi32(wq as i32);
                let base = (q * ncols + j) * 4;
                let a0 = load_i8_32(block, base);
                let a1 = load_i8_32(block, base + 4 * L);
                s0 = _mm256_add_epi32(s0, _mm256_madd_epi16(_mm256_maddubs_epi16(w, a0), ones));
                s1 = _mm256_add_epi32(s1, _mm256_madd_epi16(_mm256_maddubs_epi16(w, a1), ones));
            }
            add_store_i32(acc, j, s0);
            add_store_i32(acc, j + L, s1);
            j += 2 * L;
        }
        while j + L <= ncols {
            let mut s = _mm256_setzero_si256();
            for (q, &wq) in wquads.iter().enumerate() {
                let w = _mm256_set1_epi32(wq as i32);
                let a = load_i8_32(block, (q * ncols + j) * 4);
                s = _mm256_add_epi32(s, _mm256_madd_epi16(_mm256_maddubs_epi16(w, a), ones));
            }
            add_store_i32(acc, j, s);
            j += L;
        }
        super::gemm_nibble_ref(acc, wquads, block, ncols, j);
    }

    /// Fused i8 GEMM: each `u32` carries two signed i16 weight codes,
    /// broadcast to all dwords; `madd` multiplies them against
    /// pair-interleaved i16 activations into exact i32 pair sums (each
    /// product ≤ 128·255, so the pair sum cannot overflow — `madd`'s only
    /// wrap case needs both products at (−2^15)²). No shift, so no
    /// correction.
    #[target_feature(enable = "avx2")]
    fn gemm_i8_kernel(acc: &mut [i32], wpairs: &[u32], block: &[i16], ncols: usize) {
        let mut j = 0usize;
        while j + 2 * L <= ncols {
            let mut s0 = _mm256_setzero_si256();
            let mut s1 = _mm256_setzero_si256();
            for (q, &wp) in wpairs.iter().enumerate() {
                let w = _mm256_set1_epi32(wp as i32);
                let base = (q * ncols + j) * 2;
                s0 = _mm256_add_epi32(s0, _mm256_madd_epi16(w, load_i16_16(block, base)));
                s1 = _mm256_add_epi32(s1, _mm256_madd_epi16(w, load_i16_16(block, base + 2 * L)));
            }
            add_store_i32(acc, j, s0);
            add_store_i32(acc, j + L, s1);
            j += 2 * L;
        }
        while j + L <= ncols {
            let mut s = _mm256_setzero_si256();
            for (q, &wp) in wpairs.iter().enumerate() {
                let w = _mm256_set1_epi32(wp as i32);
                s = _mm256_add_epi32(
                    s,
                    _mm256_madd_epi16(w, load_i16_16(block, (q * ncols + j) * 2)),
                );
            }
            add_store_i32(acc, j, s);
            j += L;
        }
        super::gemm_i8_ref(acc, wpairs, block, ncols, j);
    }

    // --- thin fused GEMM kernels (lanes along the reduction) ---

    /// Loads one thin vector step of weight words.
    #[target_feature(enable = "avx2")]
    fn load_words(s: &[u32]) -> __m256i {
        let lane = &s[..super::THIN_WORDS];
        // SAFETY: 8 readable u32 words per the slice above; unaligned load.
        unsafe { _mm256_loadu_si256(lane.as_ptr().cast()) }
    }

    /// Sum of the eight i32 lanes.
    #[target_feature(enable = "avx2")]
    fn hsum_i32(v: __m256i) -> i32 {
        let q = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
        let d = _mm_add_epi32(q, _mm_shuffle_epi32::<0b00_00_11_10>(q));
        _mm_cvtsi128_si32(_mm_add_epi32(d, _mm_shuffle_epi32::<0b00_00_00_01>(d)))
    }

    /// Walks a thin GEMM over a column-major operand of `len` lanes, `lanes`
    /// of them per vector step: `acc[j] += Σ step(weights, at)` over column
    /// `j`'s steps — the row's whole steps, then its ragged tail copied once
    /// into a zeroed step (it meets the column's zero padding) — summed
    /// across the register. Every lane adds a subset of the column's terms
    /// and the horizontal sum adds the lanes, so all of it stays inside the
    /// whole shifted reduction pack time admits to i32.
    #[target_feature(enable = "avx2")]
    fn thin_columns(
        acc: &mut [i32],
        wrow: &[u32],
        (len, lanes): (usize, usize),
        step: impl Fn(__m256i, usize) -> __m256i,
    ) {
        let stride = len / acc.len().max(1);
        // Columns are whole steps that cover the weight row: a step never
        // reads a neighbouring column's lanes (or, the loads being
        // bounds-checked subslices, past the operand).
        assert!(
            stride * acc.len() == len && stride >= wrow.len().div_ceil(super::THIN_WORDS) * lanes,
            "thin operand must be [ncols, whole steps covering the weight row]"
        );
        let (full, tail) = wrow.split_at(wrow.len() / super::THIN_WORDS * super::THIN_WORDS);
        let mut last = [0u32; super::THIN_WORDS];
        last[..tail.len()].copy_from_slice(tail);
        for (j, a) in acc.iter_mut().enumerate() {
            let (mut s, mut at) = (_mm256_setzero_si256(), j * stride);
            for w in full.chunks_exact(super::THIN_WORDS) {
                s = _mm256_add_epi32(s, step(load_words(w), at));
                at += lanes;
            }
            if !tail.is_empty() {
                s = _mm256_add_epi32(s, step(load_words(&last), at));
            }
            *a += hsum_i32(s);
        }
    }

    /// Thin nibble GEMM: [`gemm_nibble_kernel`]'s `maddubs` → `madd`-by-ones
    /// contraction (pairs ≤ 450, no saturation), but a register holds 32
    /// consecutive reduction lanes of *one* column against the 32 matching
    /// `w + 8` bytes of the weight row.
    #[target_feature(enable = "avx2")]
    fn gemm_nibble_thin_kernel(acc: &mut [i32], wquads: &[u32], block: &[i8]) {
        let ones = _mm256_set1_epi16(1);
        thin_columns(acc, wquads, (block.len(), 32), |w, at| {
            _mm256_madd_epi16(_mm256_maddubs_epi16(w, load_i8_32(block, at)), ones)
        });
    }

    /// Thin i8 GEMM: [`gemm_i8_kernel`]'s `madd` on i16 pairs (products ≤
    /// 128·255, exact i32 pair sums) over 16 consecutive reduction lanes of
    /// one column.
    #[target_feature(enable = "avx2")]
    fn gemm_i8_thin_kernel(acc: &mut [i32], wpairs: &[u32], block: &[i16]) {
        thin_columns(acc, wpairs, (block.len(), 16), |w, at| {
            _mm256_madd_epi16(w, load_i16_16(block, at))
        });
    }

    // --- decode kernels ---

    /// Sign-extends the two nibbles of each of 8 bytes into 16 i32 codes:
    /// widen bytes to dwords, shift-extract both nibbles, interleave
    /// (low nibble first — the pack order in `crate::pack`).
    #[target_feature(enable = "avx2")]
    fn decode_nibble_pair(bytes: __m128i) -> (__m256i, __m256i) {
        let v = _mm256_cvtepu8_epi32(bytes);
        let lo = _mm256_srai_epi32::<28>(_mm256_slli_epi32::<28>(v));
        let hi = _mm256_srai_epi32::<28>(_mm256_slli_epi32::<24>(v));
        let il = _mm256_unpacklo_epi32(lo, hi); // L0 H0 L1 H1 | L4 H4 L5 H5
        let ih = _mm256_unpackhi_epi32(lo, hi); // L2 H2 L3 H3 | L6 H6 L7 H7
        (
            _mm256_permute2x128_si256::<0x20>(il, ih), // codes 0..8
            _mm256_permute2x128_si256::<0x31>(il, ih), // codes 8..16
        )
    }

    #[target_feature(enable = "avx2")]
    fn decode_nibble_i32_kernel(row_bytes: &[u8], out: &mut [i32]) {
        let cols = out.len();
        let (mut j, mut b) = (0usize, 0usize);
        while j + 2 * L <= cols {
            let (first, second) = decode_nibble_pair(load_8_bytes(row_bytes, b));
            store_i32(out, j, first);
            store_i32(out, j + L, second);
            j += 2 * L;
            b += L;
        }
        decode_nibble_tail(row_bytes, b, out, j);
    }

    #[target_feature(enable = "avx2")]
    fn decode_nibble_f32_kernel(row_bytes: &[u8], out: &mut [f32]) {
        let cols = out.len();
        let (mut j, mut b) = (0usize, 0usize);
        while j + 2 * L <= cols {
            let (first, second) = decode_nibble_pair(load_8_bytes(row_bytes, b));
            store_f32_from_i32(out, j, first);
            store_f32_from_i32(out, j + L, second);
            j += 2 * L;
            b += L;
        }
        let mut tail = [0i32; 2 * L];
        let n = cols - j;
        decode_nibble_tail(row_bytes, b, &mut tail[..n], 0);
        for (o, &c) in out[j..].iter_mut().zip(&tail[..n]) {
            *o = c as f32;
        }
    }

    /// Scalar nibble tail, identical to `Storage::decode_row_scalar`'s
    /// per-byte decode (low nibble first, high nibble dropped past `cols`).
    fn decode_nibble_tail(row_bytes: &[u8], mut b: usize, out: &mut [i32], mut j: usize) {
        let cols = out.len();
        while j < cols {
            let byte = row_bytes[b] as i8;
            out[j] = i32::from((byte << 4) >> 4);
            if let Some(o) = out.get_mut(j + 1) {
                *o = i32::from(byte >> 4);
            }
            j += 2;
            b += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    fn store_f32_from_i32(s: &mut [f32], at: usize, v: __m256i) {
        let lane = &mut s[at..at + L];
        // SAFETY: 8 writable f32 lanes per the slice above; unaligned store.
        unsafe { _mm256_storeu_ps(lane.as_mut_ptr(), _mm256_cvtepi32_ps(v)) }
    }

    #[target_feature(enable = "avx2")]
    fn decode_i8_i32_kernel(codes: &[i8], out: &mut [i32]) {
        let cols = out.len();
        let mut j = 0usize;
        while j + L <= cols {
            let lane = &codes[j..j + L];
            // SAFETY: 8 readable bytes per the slice above; unaligned load.
            let bytes = unsafe { _mm_loadl_epi64(lane.as_ptr().cast()) };
            store_i32(out, j, _mm256_cvtepi8_epi32(bytes));
            j += L;
        }
        for (o, &c) in out[j..].iter_mut().zip(&codes[j..]) {
            *o = i32::from(c);
        }
    }

    #[target_feature(enable = "avx2")]
    fn decode_i8_f32_kernel(codes: &[i8], out: &mut [f32]) {
        let cols = out.len();
        let mut j = 0usize;
        while j + L <= cols {
            let lane = &codes[j..j + L];
            // SAFETY: 8 readable bytes per the slice above; unaligned load.
            let bytes = unsafe { _mm_loadl_epi64(lane.as_ptr().cast()) };
            store_f32_from_i32(out, j, _mm256_cvtepi8_epi32(bytes));
            j += L;
        }
        for (o, &c) in out[j..].iter_mut().zip(&codes[j..]) {
            *o = f32::from(c);
        }
    }

    #[target_feature(enable = "avx2")]
    fn decode_i16_i32_kernel(codes: &[i16], out: &mut [i32]) {
        let cols = out.len();
        let mut j = 0usize;
        while j + L <= cols {
            let lane = &codes[j..j + L];
            // SAFETY: 8 readable i16 lanes per the slice above; unaligned load.
            let words = unsafe { _mm_loadu_si128(lane.as_ptr().cast()) };
            store_i32(out, j, _mm256_cvtepi16_epi32(words));
            j += L;
        }
        for (o, &c) in out[j..].iter_mut().zip(&codes[j..]) {
            *o = i32::from(c);
        }
    }

    #[target_feature(enable = "avx2")]
    fn decode_i16_f32_kernel(codes: &[i16], out: &mut [f32]) {
        let cols = out.len();
        let mut j = 0usize;
        while j + L <= cols {
            let lane = &codes[j..j + L];
            // SAFETY: 8 readable i16 lanes per the slice above; unaligned load.
            let words = unsafe { _mm_loadu_si128(lane.as_ptr().cast()) };
            store_f32_from_i32(out, j, _mm256_cvtepi16_epi32(words));
            j += L;
        }
        for (o, &c) in out[j..].iter_mut().zip(&codes[j..]) {
            *o = f32::from(c);
        }
    }

    // --- activation quantization: the quant crate's loops compiled for
    // AVX2, laid out in registers ---

    pub(super) fn max_abs(x: &[f32]) -> f32 {
        // SAFETY: as in `accumulate_i32`.
        unsafe { max_abs_kernel(x) }
    }

    #[target_feature(enable = "avx2")]
    fn max_abs_kernel(x: &[f32]) -> f32 {
        instantnet_quant::max_abs(x)
    }

    pub(super) fn emit<T: EmitLane>(
        grid: &ActivationGrid,
        x: &[f32],
        out: &mut [T],
        layout: Layout,
    ) {
        // SAFETY: as in `accumulate_i32`.
        unsafe { emit_kernel(grid, x, out, layout) }
    }

    /// Rows go through the reference, whose rounding loop is inlined here
    /// and so runs in AVX2 lanes; words and transposition are laid out in
    /// registers.
    #[target_feature(enable = "avx2")]
    fn emit_kernel<T: EmitLane>(grid: &ActivationGrid, x: &[f32], out: &mut [T], layout: Layout) {
        match layout {
            Layout::Words { width, pitch } if std::mem::size_of::<T>() < 4 => {
                emit_words(grid, x, out, width, pitch);
            }
            Layout::Transposed { width, pitch } => emit_transposed(grid, x, out, width, pitch),
            _ => super::emit_reference(grid, x, out, layout),
        }
    }

    /// Source columns one layout tile rounds at a time.
    const TILE: usize = 256;

    /// Stores the eight i32 codes of `v` to `out[..8]`, each narrowed as
    /// `CodeLane::from_code` narrows it.
    #[target_feature(enable = "avx2")]
    fn store_codes<T: EmitLane>(out: &mut [T], v: __m256i) {
        let mut codes = [0i32; L];
        store_i32(&mut codes, 0, v);
        for (o, c) in out[..L].iter_mut().zip(codes) {
            *o = T::from_code(c);
        }
    }

    /// [`Layout::Words`] for `G = 4 / size_of::<T>()` ∈ {2, 4} lanes per
    /// word: each group of `G` source rows is rounded into an i32 tile, and
    /// every eight of its columns become eight `u32` words — row `g`'s code
    /// masked to its lane and shifted to bit `g·32/G` — stored as one
    /// 256-bit run of `8·G` lanes (masking is the truncation `from_code`
    /// does). Columns past the last eight, and a last group of fewer than
    /// `G` rows, go through the reference.
    #[target_feature(enable = "avx2")]
    fn emit_words<T: EmitLane>(
        grid: &ActivationGrid,
        x: &[f32],
        out: &mut [T],
        width: usize,
        pitch: usize,
    ) {
        let g = 4 / std::mem::size_of::<T>();
        // The 256-bit store below writes `8·G` lanes: exactly 32 bytes.
        assert_eq!(L * g * std::mem::size_of::<T>(), 32, "a word is 4 bytes");
        let lane_bits = 32 / g as i32;
        let mask = _mm256_set1_epi32((u32::MAX >> (32 - lane_bits)) as i32);
        let full = x.len() / width / g * g;
        let mut tile = [0i32; 4 * TILE];
        for q in 0..full / g {
            for k0 in (0..width).step_by(TILE) {
                let cols = (width - k0).min(TILE);
                for r in 0..g {
                    let src = &x[(q * g + r) * width + k0..][..cols];
                    grid.emit_run(src, &mut tile[r * cols..][..cols]);
                }
                let dst = &mut out[q * pitch + k0 * g..][..cols * g];
                let mut k = 0;
                while k + L <= cols {
                    let mut word = _mm256_setzero_si256();
                    for r in 0..g {
                        let code = _mm256_and_si256(load_i32(&tile, r * cols + k), mask);
                        let shift = _mm_cvtsi32_si128(r as i32 * lane_bits);
                        word = _mm256_or_si256(word, _mm256_sll_epi32(code, shift));
                    }
                    let lanes = &mut dst[k * g..][..L * g];
                    // SAFETY: 8·G writable lanes of 4/G bytes (32 bytes, per
                    // the assert above) per the slice; unaligned store, and
                    // any bit pattern is a valid lane of the i8/i16 the
                    // tables instantiate this for.
                    unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), word) }
                    k += L;
                }
                for k in k..cols {
                    for r in 0..g {
                        dst[k * g + r] = T::from_code(tile[r * cols + k]);
                    }
                }
            }
        }
        if full * width < x.len() {
            let layout = Layout::Words { width, pitch };
            (T::emitter(&super::SCALAR))(
                grid,
                &x[full * width..],
                &mut out[full / g * pitch..],
                layout,
            );
        }
    }

    /// The 8×8 i32 matrix whose rows are `rows`, transposed: 32-bit, then
    /// 64-bit unpacks within each 128-bit half, then the halves exchanged.
    #[target_feature(enable = "avx2")]
    fn transpose_8x8(rows: [__m256i; L]) -> [__m256i; L] {
        let [a0, a1, a2, a3, a4, a5, a6, a7] = rows;
        let (b0, b1) = (_mm256_unpacklo_epi32(a0, a1), _mm256_unpackhi_epi32(a0, a1));
        let (b2, b3) = (_mm256_unpacklo_epi32(a2, a3), _mm256_unpackhi_epi32(a2, a3));
        let (b4, b5) = (_mm256_unpacklo_epi32(a4, a5), _mm256_unpackhi_epi32(a4, a5));
        let (b6, b7) = (_mm256_unpacklo_epi32(a6, a7), _mm256_unpackhi_epi32(a6, a7));
        let (c0, c1) = (_mm256_unpacklo_epi64(b0, b2), _mm256_unpackhi_epi64(b0, b2));
        let (c2, c3) = (_mm256_unpacklo_epi64(b1, b3), _mm256_unpackhi_epi64(b1, b3));
        let (c4, c5) = (_mm256_unpacklo_epi64(b4, b6), _mm256_unpackhi_epi64(b4, b6));
        let (c6, c7) = (_mm256_unpacklo_epi64(b5, b7), _mm256_unpackhi_epi64(b5, b7));
        [
            _mm256_permute2x128_si256::<0x20>(c0, c4),
            _mm256_permute2x128_si256::<0x20>(c1, c5),
            _mm256_permute2x128_si256::<0x20>(c2, c6),
            _mm256_permute2x128_si256::<0x20>(c3, c7),
            _mm256_permute2x128_si256::<0x31>(c0, c4),
            _mm256_permute2x128_si256::<0x31>(c1, c5),
            _mm256_permute2x128_si256::<0x31>(c2, c6),
            _mm256_permute2x128_si256::<0x31>(c3, c7),
        ]
    }

    /// [`Layout::Transposed`]: eight source rows at a time are rounded into
    /// an i32 tile (row `i` at `i·cols`, whole rows in one contiguous run
    /// where they fit); every eight of its columns are one 8×8 transpose
    /// and the last ones an 8-lane gather each, stored as the runs
    /// `out[k·pitch + r..][..8]`. A last block of fewer rows repeats its
    /// last row in the lanes it does not store; a ragged last source row
    /// goes through the reference.
    #[target_feature(enable = "avx2")]
    fn emit_transposed<T: EmitLane>(
        grid: &ActivationGrid,
        x: &[f32],
        out: &mut [T],
        width: usize,
        pitch: usize,
    ) {
        let rows = x.len() / width;
        let mut tile = [0i32; L * TILE];
        for r0 in (0..rows).step_by(L) {
            let rb = (rows - r0).min(L);
            for k0 in (0..width).step_by(TILE) {
                let cols = (width - k0).min(TILE);
                // Whole rows are one run; pieces of longer ones one each.
                let (runs, len) = if cols == width {
                    (1, rb * width)
                } else {
                    (rb, cols)
                };
                for i in 0..runs {
                    let src = &x[(r0 + i) * width + k0..][..len];
                    grid.emit_run(src, &mut tile[i * cols..][..len]);
                }
                let store = |out: &mut [T], k: usize, codes: __m256i| {
                    let dst = &mut out[(k0 + k) * pitch + r0..][..rb];
                    if rb == L {
                        store_codes(dst, codes);
                    } else {
                        let mut lanes = [T::default(); L];
                        store_codes(&mut lanes, codes);
                        dst.copy_from_slice(&lanes[..rb]);
                    }
                };
                let mut k = 0;
                while k + L <= cols {
                    let block = std::array::from_fn(|i| load_i32(&tile, i.min(rb - 1) * cols + k));
                    for (j, codes) in transpose_8x8(block).into_iter().enumerate() {
                        store(out, k + j, codes);
                    }
                    k += L;
                }
                let lane_rows = _mm256_min_epi32(
                    _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                    _mm256_set1_epi32(rb as i32 - 1),
                );
                let index = _mm256_mullo_epi32(lane_rows, _mm256_set1_epi32(cols as i32));
                for k in k..cols {
                    let column = &tile[k..][..(rb - 1) * cols + 1];
                    // SAFETY: lane `i` reads `column[min(i, rb − 1)·cols]`,
                    // inside the slice above.
                    let codes = unsafe { _mm256_i32gather_epi32::<4>(column.as_ptr(), index) };
                    store(out, k, codes);
                }
            }
        }
        if rows * width < x.len() {
            let layout = Layout::Transposed { width, pitch };
            (T::emitter(&super::SCALAR))(grid, &x[rows * width..], &mut out[rows..], layout);
        }
    }
}

// ---------------------------------------------------------------------------
// NEON kernels (aarch64 only; ASIMD is baseline there, so no runtime probe)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    //! AArch64 ports of the AVX2 kernels: 128-bit registers, with the
    //! widening multiplies built on the `smull`/`smlal` instruction family
    //! (`vmull_*`/`vmlal_*` intrinsics) instead of `maddubs`/`madd`. Same
    //! bit-identity contract: the integer kernels are exact, the f32
    //! kernel reassociates exact sub-2^24 sums (`vmulq`+`vaddq`, no FMA —
    //! mirroring the AVX2 choice), and the fused kernels accumulate the
    //! same shifted integers the driver corrects with `-8·colsum`.
    //!
    //! Every `unsafe` block takes its pointers from bounds-checked
    //! subslices, exactly as in the AVX2 module; the value-only intrinsics
    //! are safe to call because NEON is statically enabled on every
    //! aarch64 target (`unused_unsafe` is allowed for toolchains that
    //! still mark them unsafe).
    #![allow(unused_unsafe)]

    use core::arch::aarch64::*;

    /// i32/f32 lanes per 128-bit register.
    const L: usize = 4;

    fn load_i32(s: &[i32], at: usize) -> int32x4_t {
        let lane = &s[at..at + L];
        // SAFETY: 4 readable i32 lanes per the slice above.
        unsafe { vld1q_s32(lane.as_ptr()) }
    }

    fn add_store_i32(acc: &mut [i32], at: usize, v: int32x4_t) {
        let lane = &mut acc[at..at + L];
        // SAFETY: 4 readable+writable i32 lanes per the slice above.
        unsafe { vst1q_s32(lane.as_mut_ptr(), vaddq_s32(vld1q_s32(lane.as_ptr()), v)) }
    }

    fn add_store_i64(acc: &mut [i64], at: usize, v: int64x2_t) {
        let lane = &mut acc[at..at + 2];
        // SAFETY: 2 readable+writable i64 lanes per the slice above.
        unsafe { vst1q_s64(lane.as_mut_ptr(), vaddq_s64(vld1q_s64(lane.as_ptr()), v)) }
    }

    fn load_f32(s: &[f32], at: usize) -> float32x4_t {
        let lane = &s[at..at + L];
        // SAFETY: 4 readable f32 lanes per the slice above.
        unsafe { vld1q_f32(lane.as_ptr()) }
    }

    fn add_store_f32(acc: &mut [f32], at: usize, v: float32x4_t) {
        let lane = &mut acc[at..at + L];
        // SAFETY: 4 readable+writable f32 lanes per the slice above.
        unsafe { vst1q_f32(lane.as_mut_ptr(), vaddq_f32(vld1q_f32(lane.as_ptr()), v)) }
    }

    /// Loads 16 i8 lanes (4 interleaved lanes × 4 columns).
    fn load_i8_16(s: &[i8], at: usize) -> int8x16_t {
        let lane = &s[at..at + 16];
        // SAFETY: 16 readable bytes per the slice above.
        unsafe { vld1q_s8(lane.as_ptr()) }
    }

    /// Loads 8 i16 lanes (2 interleaved lanes × 4 columns).
    fn load_i16_8(s: &[i16], at: usize) -> int16x8_t {
        let lane = &s[at..at + 8];
        // SAFETY: 8 readable i16 lanes per the slice above.
        unsafe { vld1q_s16(lane.as_ptr()) }
    }

    pub(super) fn accumulate_i32(acc: &mut [i32], wrow: &[i32], acts: &[i32]) {
        debug_assert_eq!(
            acts.len(),
            wrow.len() * acc.len(),
            "acts must be [rows, ncols]"
        );
        let ncols = acc.len();
        let mut j = 0usize;
        while j + 2 * L <= ncols {
            // SAFETY: value-only NEON ops; loads/stores bounds-check above.
            unsafe {
                let mut s0 = vdupq_n_s32(0);
                let mut s1 = vdupq_n_s32(0);
                let mut base = j;
                for &wv in wrow {
                    let w = vdupq_n_s32(wv);
                    s0 = vmlaq_s32(s0, w, load_i32(acts, base));
                    s1 = vmlaq_s32(s1, w, load_i32(acts, base + L));
                    base += ncols;
                }
                add_store_i32(acc, j, s0);
                add_store_i32(acc, j + L, s1);
            }
            j += 2 * L;
        }
        while j + L <= ncols {
            // SAFETY: as above.
            unsafe {
                let mut s = vdupq_n_s32(0);
                let mut base = j;
                for &wv in wrow {
                    s = vmlaq_s32(s, vdupq_n_s32(wv), load_i32(acts, base));
                    base += ncols;
                }
                add_store_i32(acc, j, s);
            }
            j += L;
        }
        crate::exec::accumulate_col_tail(acc, wrow, acts, j, |l, w, a| l + w * a);
    }

    pub(super) fn accumulate_i64(acc: &mut [i64], wrow: &[i32], acts: &[i32]) {
        debug_assert_eq!(
            acts.len(),
            wrow.len() * acc.len(),
            "acts must be [rows, ncols]"
        );
        let ncols = acc.len();
        let mut j = 0usize;
        while j + L <= ncols {
            // SAFETY: as in `accumulate_i32`. `smlal`/`smlal2` widen the
            // i32×i32 products to i64 exactly.
            unsafe {
                let mut s0 = vdupq_n_s64(0); // columns j, j+1
                let mut s1 = vdupq_n_s64(0); // columns j+2, j+3
                let mut base = j;
                for &wv in wrow {
                    let w = vdupq_n_s32(wv);
                    let a = load_i32(acts, base);
                    s0 = vmlal_s32(s0, vget_low_s32(w), vget_low_s32(a));
                    s1 = vmlal_high_s32(s1, w, a);
                    base += ncols;
                }
                add_store_i64(acc, j, s0);
                add_store_i64(acc, j + 2, s1);
            }
            j += L;
        }
        crate::exec::accumulate_col_tail(acc, wrow, acts, j, |l, w, a| {
            l + i64::from(w) * i64::from(a)
        });
    }

    pub(super) fn accumulate_f32(acc: &mut [f32], wrow: &[f32], acts: &[f32]) {
        debug_assert_eq!(
            acts.len(),
            wrow.len() * acc.len(),
            "acts must be [rows, ncols]"
        );
        let ncols = acc.len();
        let mut j = 0usize;
        while j + 2 * L <= ncols {
            // SAFETY: as in `accumulate_i32`.
            unsafe {
                let mut s0 = vdupq_n_f32(0.0);
                let mut s1 = vdupq_n_f32(0.0);
                let mut base = j;
                for &wv in wrow {
                    let w = vdupq_n_f32(wv);
                    s0 = vaddq_f32(s0, vmulq_f32(w, load_f32(acts, base)));
                    s1 = vaddq_f32(s1, vmulq_f32(w, load_f32(acts, base + L)));
                    base += ncols;
                }
                add_store_f32(acc, j, s0);
                add_store_f32(acc, j + L, s1);
            }
            j += 2 * L;
        }
        while j + L <= ncols {
            // SAFETY: as above.
            unsafe {
                let mut s = vdupq_n_f32(0.0);
                let mut base = j;
                for &wv in wrow {
                    s = vaddq_f32(s, vmulq_f32(vdupq_n_f32(wv), load_f32(acts, base)));
                    base += ncols;
                }
                add_store_f32(acc, j, s);
            }
            j += L;
        }
        crate::exec::accumulate_col_tail(acc, wrow, acts, j, |l, w, a| l + w * a);
    }

    /// Fused nibble GEMM: the quad of `w + 8 ∈ [0, 15]` bytes fits i8, so
    /// the broadcast word reinterprets as signed lanes value-preservingly;
    /// `smull`/`smull2` widen the i8×i8 products to i16 (each ≤ 15·15),
    /// pairwise add-long lifts them to i32, and one more pairwise add
    /// folds each column's four products into its lane.
    pub(super) fn gemm_nibble(acc: &mut [i32], wquads: &[u32], block: &[i8], ncols: usize) {
        debug_assert_eq!(acc.len(), ncols);
        debug_assert_eq!(
            block.len(),
            wquads.len() * 4 * ncols,
            "block must be the interleaved [quads × 4, ncols] layout"
        );
        let mut j = 0usize;
        while j + L <= ncols {
            // SAFETY: as in `accumulate_i32`.
            unsafe {
                let mut s = vdupq_n_s32(0);
                for (q, &wq) in wquads.iter().enumerate() {
                    let w = vreinterpretq_s8_u32(vdupq_n_u32(wq));
                    let a = load_i8_16(block, (q * ncols + j) * 4);
                    let lo = vpaddlq_s16(vmull_s8(vget_low_s8(a), vget_low_s8(w)));
                    let hi = vpaddlq_s16(vmull_high_s8(a, w));
                    s = vaddq_s32(s, vpaddq_s32(lo, hi));
                }
                add_store_i32(acc, j, s);
            }
            j += L;
        }
        super::gemm_nibble_ref(acc, wquads, block, ncols, j);
    }

    /// Fused i8 GEMM: `smull`/`smull2` widen the i16×i16 products to
    /// exact i32, and a pairwise add folds each column's pair into its
    /// lane — the NEON spelling of `madd`.
    pub(super) fn gemm_i8(acc: &mut [i32], wpairs: &[u32], block: &[i16], ncols: usize) {
        debug_assert_eq!(acc.len(), ncols);
        debug_assert_eq!(
            block.len(),
            wpairs.len() * 2 * ncols,
            "block must be the interleaved [pairs × 2, ncols] layout"
        );
        let mut j = 0usize;
        while j + L <= ncols {
            // SAFETY: as in `accumulate_i32`.
            unsafe {
                let mut s = vdupq_n_s32(0);
                for (q, &wp) in wpairs.iter().enumerate() {
                    let w = vreinterpretq_s16_u32(vdupq_n_u32(wp));
                    let a = load_i16_8(block, (q * ncols + j) * 2);
                    let lo = vmull_s16(vget_low_s16(a), vget_low_s16(w));
                    let hi = vmull_high_s16(a, w);
                    s = vaddq_s32(s, vpaddq_s32(lo, hi));
                }
                add_store_i32(acc, j, s);
            }
            j += L;
        }
        super::gemm_i8_ref(acc, wpairs, block, ncols, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn resolve_knob_semantics() {
        use SimdBackend::{Avx2, Neon, Scalar};
        // scalar always wins, case/space-insensitively.
        assert_eq!(resolve(Some("scalar"), true, false), Scalar);
        assert_eq!(resolve(Some(" SCALAR "), true, true), Scalar);
        assert_eq!(resolve(Some("scalar"), false, false), Scalar);
        // avx2/neon require detection; degrade to detection without it.
        assert_eq!(resolve(Some("avx2"), true, false), Avx2);
        assert_eq!(resolve(Some("AVX2"), false, false), Scalar);
        assert_eq!(resolve(Some("AVX2"), false, true), Neon);
        assert_eq!(resolve(Some("neon"), false, true), Neon);
        assert_eq!(resolve(Some(" NEON "), false, true), Neon);
        assert_eq!(resolve(Some("neon"), true, false), Avx2);
        assert_eq!(resolve(Some("neon"), false, false), Scalar);
        // unset / auto / garbage: detect (avx2 and neon never coexist in
        // practice, but detection prefers avx2 if both flags are set).
        assert_eq!(resolve(None, true, false), Avx2);
        assert_eq!(resolve(None, false, true), Neon);
        assert_eq!(resolve(None, false, false), Scalar);
        assert_eq!(resolve(Some("auto"), true, false), Avx2);
        assert_eq!(resolve(Some("auto"), false, true), Neon);
        assert_eq!(
            resolve(Some("definitely-not-a-backend"), false, false),
            Scalar
        );
    }

    #[test]
    fn backend_names_round_trip_through_resolve() {
        for b in [SimdBackend::Scalar, SimdBackend::Avx2, SimdBackend::Neon] {
            let (avx2, neon) = (b == SimdBackend::Avx2, b == SimdBackend::Neon);
            assert_eq!(resolve(Some(b.name()), avx2, neon), b);
        }
    }

    /// With `FORCE_LOCK` held no sibling test can be inside its own
    /// override scope, so anything but the process default here means an
    /// override leaked. (Sampling the "ambient" backend outside the lock
    /// races with parallel tests' overrides.)
    fn assert_backend_restored() {
        let _quiesce = FORCE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        assert_eq!(active_simd_backend(), default_kernels().backend);
    }

    /// The fused-toggle twin of [`assert_backend_restored`].
    fn assert_fused_restored() {
        let _quiesce = FUSED_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        assert_eq!(fused_gemm_enabled(), fused_default());
    }

    #[test]
    fn forced_backend_is_scoped_and_restored() {
        let inside = with_simd_backend(SimdBackend::Scalar, active_simd_backend);
        assert_eq!(inside, SimdBackend::Scalar);
        assert_backend_restored();
        if avx2_available() {
            let inside = with_simd_backend(SimdBackend::Avx2, active_simd_backend);
            assert_eq!(inside, SimdBackend::Avx2);
            assert_backend_restored();
        }
    }

    #[test]
    fn forced_backend_is_restored_on_panic() {
        let result =
            std::panic::catch_unwind(|| with_simd_backend(SimdBackend::Scalar, || panic!("boom")));
        assert!(result.is_err());
        assert_backend_restored();
    }

    /// Random `[rows, ncols]` problems, including ragged tails around the
    /// 8/16-lane block widths; both backends must agree bit for bit.
    #[test]
    fn avx2_accumulate_kernels_match_scalar_bit_for_bit() {
        if !avx2_available() {
            eprintln!("skipping: no AVX2 on this CPU");
            return;
        }
        let mut rng = StdRng::seed_from_u64(0x51AD);
        for case in 0..200 {
            let rows = rng.gen_range(1usize..20);
            let ncols = rng.gen_range(1usize..70);
            let wrow: Vec<i32> = (0..rows).map(|_| rng.gen_range(-128i32..128)).collect();
            let acts: Vec<i32> = (0..rows * ncols)
                .map(|_| rng.gen_range(-256i32..256))
                .collect();
            let init: Vec<i32> = (0..ncols).map(|_| rng.gen_range(-1000i32..1000)).collect();

            let mut a32 = init.clone();
            let mut b32 = init.clone();
            (SCALAR.accumulate_i32)(&mut a32, &wrow, &acts);
            (AVX2.accumulate_i32)(&mut b32, &wrow, &acts);
            assert_eq!(a32, b32, "i32 case {case}: rows {rows} ncols {ncols}");

            let init64: Vec<i64> = init.iter().map(|&v| i64::from(v)).collect();
            let mut a64 = init64.clone();
            let mut b64 = init64;
            (SCALAR.accumulate_i64)(&mut a64, &wrow, &acts);
            (AVX2.accumulate_i64)(&mut b64, &wrow, &acts);
            assert_eq!(a64, b64, "i64 case {case}: rows {rows} ncols {ncols}");

            let wf: Vec<f32> = wrow.iter().map(|&v| v as f32).collect();
            let af: Vec<f32> = acts.iter().map(|&v| v as f32).collect();
            let initf: Vec<f32> = init.iter().map(|&v| v as f32).collect();
            let mut aff = initf.clone();
            let mut bff = initf;
            (SCALAR.accumulate_f32)(&mut aff, &wf, &af);
            (AVX2.accumulate_f32)(&mut bff, &wf, &af);
            let (ab, bb): (Vec<u32>, Vec<u32>) = (
                aff.iter().map(|v| v.to_bits()).collect(),
                bff.iter().map(|v| v.to_bits()).collect(),
            );
            assert_eq!(ab, bb, "f32 case {case}: rows {rows} ncols {ncols}");
        }
    }

    /// Every storage tier decodes identically under both backends, over
    /// widths that exercise full blocks, ragged tails, and the odd-cols
    /// half-byte of the nibble format.
    #[test]
    fn avx2_decode_kernels_match_scalar_bit_for_bit() {
        if !avx2_available() {
            eprintln!("skipping: no AVX2 on this CPU");
            return;
        }
        let mut rng = StdRng::seed_from_u64(99);
        for cols in [1usize, 2, 5, 7, 8, 15, 16, 17, 31, 32, 33, 64, 67] {
            let rows = 3;
            let stride = cols.div_ceil(2);
            let nib = Storage::Nibble(
                (0..rows * stride)
                    .map(|_| rng.gen_range(0u32..256) as u8)
                    .collect(),
            );
            let i8s = Storage::I8(
                (0..rows * cols)
                    .map(|_| rng.gen_range(-128i32..128) as i8)
                    .collect(),
            );
            let i16s = Storage::I16(
                (0..rows * cols)
                    .map(|_| rng.gen_range(-32768i32..32768) as i16)
                    .collect(),
            );
            for storage in [&nib, &i8s, &i16s] {
                for row in 0..rows {
                    let mut a = vec![0i32; cols];
                    let mut b = vec![7i32; cols];
                    (SCALAR.decode_row_i32)(storage, row, cols, &mut a);
                    (AVX2.decode_row_i32)(storage, row, cols, &mut b);
                    assert_eq!(a, b, "i32 decode: cols {cols} row {row}");

                    let mut af = vec![0f32; cols];
                    let mut bf = vec![7f32; cols];
                    (SCALAR.decode_row_f32)(storage, row, cols, &mut af);
                    (AVX2.decode_row_f32)(storage, row, cols, &mut bf);
                    assert_eq!(af, bf, "f32 decode: cols {cols} row {row}");
                }
            }
        }
    }

    /// Scalar reference of the thin nibble kernel ([`Kernels::gemm_nibble_thin`]'s
    /// contract, column `j` at `block[j·stride..]`).
    #[cfg(target_arch = "x86_64")]
    fn gemm_nibble_thin_ref(acc: &mut [i32], wquads: &[u32], block: &[i8], ncols: usize) {
        for (a, col) in acc.iter_mut().zip(block.chunks_exact(block.len() / ncols)) {
            for (&wq, lanes) in wquads.iter().zip(col.chunks_exact(4)) {
                for (k, &v) in lanes.iter().enumerate() {
                    *a += (((wq >> (8 * k)) & 0xFF) as i32) * i32::from(v);
                }
            }
        }
    }

    /// Scalar reference of the thin i8 kernel.
    #[cfg(target_arch = "x86_64")]
    fn gemm_i8_thin_ref(acc: &mut [i32], wpairs: &[u32], block: &[i16], ncols: usize) {
        for (a, col) in acc.iter_mut().zip(block.chunks_exact(block.len() / ncols)) {
            for (&wp, lanes) in wpairs.iter().zip(col.chunks_exact(2)) {
                *a += i32::from((wp & 0xFFFF) as u16 as i16) * i32::from(lanes[0])
                    + i32::from((wp >> 16) as u16 as i16) * i32::from(lanes[1]);
            }
        }
    }

    /// Naive fused-nibble model: unsigned-shifted weight bytes times i8
    /// activation lanes, straight i32 arithmetic.
    fn naive_nibble(acc: &mut [i32], wquads: &[u32], block: &[i8], ncols: usize) {
        for j in 0..ncols {
            for (q, &wq) in wquads.iter().enumerate() {
                for k in 0..4 {
                    let w = ((wq >> (8 * k)) & 0xFF) as i32;
                    acc[j] += w * i32::from(block[(q * ncols + j) * 4 + k]);
                }
            }
        }
    }

    /// Naive fused-i8 model: signed i16 weight pairs times i16 lanes.
    fn naive_i8(acc: &mut [i32], wpairs: &[u32], block: &[i16], ncols: usize) {
        for j in 0..ncols {
            for (q, &wp) in wpairs.iter().enumerate() {
                let w = [(wp & 0xFFFF) as u16 as i16, (wp >> 16) as u16 as i16];
                for k in 0..2 {
                    acc[j] += i32::from(w[k]) * i32::from(block[(q * ncols + j) * 2 + k]);
                }
            }
        }
    }

    /// Fused AVX2 GEMM kernels vs the shared scalar reference vs a naive
    /// model, over every ncols in 1..=67 (all tail shapes around the 8/16
    /// column blocks) with both random and saturation-edge inputs: all-max
    /// magnitude nibbles (w + 8 ∈ {0, 15}) against ±max activations probe
    /// the `maddubs` i16 pair bound, max-magnitude i8/i16 pairs probe the
    /// `madd` product bound.
    #[test]
    fn fused_gemm_kernels_match_reference_bit_for_bit() {
        if !avx2_available() {
            eprintln!("skipping: no AVX2 on this CPU");
            return;
        }
        let mut rng = StdRng::seed_from_u64(0xF00D);
        for ncols in 1usize..=67 {
            for edge in [false, true] {
                let quads = rng.gen_range(1usize..8);
                let wquads: Vec<u32> = (0..quads)
                    .map(|_| {
                        let mut word = 0u32;
                        for k in 0..4 {
                            let b: u32 = if edge {
                                if rng.gen_range(0..2) == 0 {
                                    0
                                } else {
                                    15
                                }
                            } else {
                                rng.gen_range(0u32..16)
                            };
                            word |= b << (8 * k);
                        }
                        word
                    })
                    .collect();
                let nib_block: Vec<i8> = (0..quads * 4 * ncols)
                    .map(|_| {
                        if edge {
                            if rng.gen_range(0..2) == 0 {
                                -15
                            } else {
                                15
                            }
                        } else {
                            rng.gen_range(-15i32..=15) as i8
                        }
                    })
                    .collect();
                let init: Vec<i32> = (0..ncols).map(|_| rng.gen_range(-1000i32..1000)).collect();

                let mut want = init.clone();
                naive_nibble(&mut want, &wquads, &nib_block, ncols);
                let mut reference = init.clone();
                super::gemm_nibble_ref(&mut reference, &wquads, &nib_block, ncols, 0);
                assert_eq!(want, reference, "nibble ref: ncols {ncols} edge {edge}");
                let mut fused = init.clone();
                avx2::gemm_nibble(&mut fused, &wquads, &nib_block, ncols);
                assert_eq!(want, fused, "nibble avx2: ncols {ncols} edge {edge}");

                let pairs = rng.gen_range(1usize..8);
                let wpairs: Vec<u32> = (0..pairs)
                    .map(|_| {
                        let pick = |rng: &mut StdRng| -> i16 {
                            if edge {
                                if rng.gen_range(0..2) == 0 {
                                    -128
                                } else {
                                    127
                                }
                            } else {
                                rng.gen_range(-128i32..128) as i16
                            }
                        };
                        let (lo, hi) = (pick(&mut rng), pick(&mut rng));
                        u32::from(lo as u16) | (u32::from(hi as u16) << 16)
                    })
                    .collect();
                let i8_block: Vec<i16> = (0..pairs * 2 * ncols)
                    .map(|_| {
                        if edge {
                            if rng.gen_range(0..2) == 0 {
                                -255
                            } else {
                                255
                            }
                        } else {
                            rng.gen_range(-255i32..=255) as i16
                        }
                    })
                    .collect();

                let mut want = init.clone();
                naive_i8(&mut want, &wpairs, &i8_block, ncols);
                let mut reference = init.clone();
                super::gemm_i8_ref(&mut reference, &wpairs, &i8_block, ncols, 0);
                assert_eq!(want, reference, "i8 ref: ncols {ncols} edge {edge}");
                let mut fused = init;
                avx2::gemm_i8(&mut fused, &wpairs, &i8_block, ncols);
                assert_eq!(want, fused, "i8 avx2: ncols {ncols} edge {edge}");
            }
        }
    }

    /// Thin AVX2 kernels vs their scalar references at every column count
    /// around the block width × reduction lengths around the 8-word vector
    /// step (ragged tails of 1 and 7 words, none, one past), random and
    /// saturation-edge codes. The operand's padding lanes carry garbage:
    /// the kernel must owe nothing to them (the row's zeroed tail step
    /// silences them), and must never read a neighbouring column.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn thin_gemm_kernels_match_reference_bit_for_bit() {
        if !avx2_available() {
            eprintln!("skipping: no AVX2 on this CPU");
            return;
        }
        let mut rng = StdRng::seed_from_u64(0x7415);
        for ncols in 1usize..=9 {
            for words in [1usize, 7, 8, 9, 17, 60, 64] {
                for edge in [false, true] {
                    let init: Vec<i32> =
                        (0..ncols).map(|_| rng.gen_range(-1000i32..1000)).collect();
                    let steps = words.div_ceil(THIN_WORDS) * THIN_WORDS;
                    let mut pick = |lo: i32, hi: i32| {
                        if edge {
                            [lo, hi][rng.gen_range(0..2usize)]
                        } else {
                            rng.gen_range(lo..=hi)
                        }
                    };

                    let wquads: Vec<u32> = (0..words)
                        .map(|_| (0..4).fold(0u32, |w, k| w | (pick(0, 15) as u32) << (8 * k)))
                        .collect();
                    let block: Vec<i8> = (0..ncols * steps * 4)
                        .map(|_| pick(-15, 15) as i8)
                        .collect();
                    let (mut want, mut got) = (init.clone(), init.clone());
                    gemm_nibble_thin_ref(&mut want, &wquads, &block, ncols);
                    avx2::gemm_nibble_thin(&mut got, &wquads, &block, ncols);
                    assert_eq!(
                        want, got,
                        "nibble: {ncols} cols, {words} words, edge {edge}"
                    );

                    let wpairs: Vec<u32> = (0..words)
                        .map(|_| {
                            let (lo, hi) = (pick(-128, 127) as i16, pick(-128, 127) as i16);
                            u32::from(lo as u16) | (u32::from(hi as u16) << 16)
                        })
                        .collect();
                    let block: Vec<i16> = (0..ncols * steps * 2)
                        .map(|_| pick(-255, 255) as i16)
                        .collect();
                    let (mut want, mut got) = (init.clone(), init);
                    gemm_i8_thin_ref(&mut want, &wpairs, &block, ncols);
                    avx2::gemm_i8_thin(&mut got, &wpairs, &block, ncols);
                    assert_eq!(want, got, "i8: {ncols} cols, {words} words, edge {edge}");
                }
            }
        }
    }

    /// The thin kernels' overflow argument at the pack-time admission
    /// boundary (`pack.rs`: `max_w · max|a| · cols ≤ i32::MAX / 2`) and one
    /// reduction row either side: with every weight and activation at its
    /// worst-case code, the lane-wise i32 accumulation and its horizontal sum
    /// equal an i128 oracle, and the accumulator peak stays inside i32.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn thin_kernels_are_exact_at_the_admission_boundary() {
        if !avx2_available() {
            eprintln!("skipping: no AVX2 on this CPU");
            return;
        }
        fn padded<L: Copy + Default>(col: &[L], group: usize) -> Vec<L> {
            let mut col = col.to_vec();
            col.resize(
                col.len().div_ceil(THIN_WORDS * group) * THIN_WORDS * group,
                L::default(),
            );
            col
        }
        let limit = i128::from(i32::MAX) / 2;
        let nibble = (limit / (15 * 15)) as usize;
        for rows in [nibble - 1, nibble, nibble + 1] {
            for a in [15i8, -15] {
                // Shifted top code 15 in every byte; the last word's missing
                // lanes stay zero, as `pack_words` leaves them.
                let mut wquads = vec![0x0F0F_0F0Fu32; rows.div_ceil(4)];
                *wquads.last_mut().unwrap() >>= 8 * (wquads.len() * 4 - rows);
                let mut acc = [0i32];
                avx2::gemm_nibble_thin(&mut acc, &wquads, &padded(&vec![a; rows], 4), 1);
                let want = 15 * i128::from(a) * rows as i128;
                assert_eq!(i128::from(acc[0]), want, "nibble, {rows} rows of {a}");
                assert!(want.abs() <= i128::from(i32::MAX));
            }
        }
        let i8_rows = (limit / (128 * 255)) as usize;
        for rows in [i8_rows - 1, i8_rows, i8_rows + 1] {
            for a in [255i16, -255] {
                let half = u32::from(-128i16 as u16);
                let mut wpairs = vec![half | half << 16; rows.div_ceil(2)];
                if rows % 2 == 1 {
                    *wpairs.last_mut().unwrap() = half;
                }
                let mut acc = [0i32];
                avx2::gemm_i8_thin(&mut acc, &wpairs, &padded(&vec![a; rows], 2), 1);
                let want = -128 * i128::from(a) * rows as i128;
                assert_eq!(i128::from(acc[0]), want, "i8, {rows} rows of {a}");
                assert!(want.abs() <= i128::from(i32::MAX));
            }
        }
    }

    /// The shape contract the thin kernels' in-bounds argument rests on is
    /// checked in release builds: a column that is not whole vector steps
    /// covering the weight row is refused, not read past.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn thin_kernels_refuse_operands_that_do_not_cover_the_weight_row() {
        if !avx2_available() {
            eprintln!("skipping: no AVX2 on this CPU");
            return;
        }
        // 9 words need two 8-word steps per column; one is offered.
        let short = std::panic::catch_unwind(|| {
            avx2::gemm_nibble_thin(&mut [0; 2], &[0; 9], &[0i8; 2 * 32], 2);
        });
        assert!(short.is_err());
        let ragged = std::panic::catch_unwind(|| {
            avx2::gemm_i8_thin(&mut [0; 3], &[0; 8], &[0i16; 3 * 16 + 1], 3);
        });
        assert!(ragged.is_err());
    }

    /// An SBM grid of scale `2⁻⁵` exactly (its max-abs `qmax·2⁻⁵`), so
    /// `(k + ½)·2⁻⁵` is an exact tie, or a DoReFa grid, at `bits`.
    #[cfg(target_arch = "x86_64")]
    fn grid(q: Quantizer, bits: u8) -> ActivationGrid {
        let qmax = ((1u32 << bits) - 1) as f32;
        let grid = q.activation_grid_with(&[], BitWidth::new(bits), |_| qmax / 32.0);
        grid.expect("a quantizing rule below full precision")
    }

    /// `len` activations for `grid`'s rule: uniform across and past the
    /// clamp bounds, exact ties, and NaN, ±inf, ±0.0 and subnormals.
    #[cfg(target_arch = "x86_64")]
    fn activations(rng: &mut StdRng, q: Quantizer, bits: u8, len: usize) -> Vec<f32> {
        let top = ((1u32 << bits) - 1) as f32 / 32.0;
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, 1e-40];
        (0..len)
            .map(|_| match rng.gen_range(0..10) {
                0 => specials[rng.gen_range(0..specials.len())],
                1 if q == Quantizer::Sbm => {
                    (rng.gen_range(-top * 32.0..top * 32.0)).floor() / 32.0 + 1.0 / 64.0
                }
                _ if q == Quantizer::Dorefa => rng.gen_range(-0.2f32..1.2),
                _ => rng.gen_range(-1.2 * top..1.2 * top),
            })
            .collect()
    }

    /// Lanes `layout` addresses for `x.len()` codes in `[rows, width]`,
    /// with `G` lanes per word.
    #[cfg(target_arch = "x86_64")]
    fn layout_len(layout: Layout, len: usize, g: usize) -> usize {
        match layout {
            Layout::Rows { width, pitch } => len.div_ceil(width) * pitch,
            Layout::Words { width, pitch } => len.div_ceil(width).div_ceil(g) * pitch,
            Layout::Transposed { width, pitch } => width * pitch,
        }
    }

    /// Table `k`'s emitter against the scalar table's (the reference) into
    /// a destination full of garbage: the same lanes written with the same
    /// codes, every other lane left as it was — and, where
    /// [`Layout::canonical`] rewrites `layout`, the reference writing exactly
    /// the same lanes in the rewritten one.
    #[cfg(target_arch = "x86_64")]
    fn emitter_matches_reference<L>(
        k: &Kernels,
        grid: &ActivationGrid,
        x: &[f32],
        layout: Layout,
        ctx: &str,
    ) where
        L: EmitLane + PartialEq + std::fmt::Debug,
    {
        let len = layout_len(layout, x.len(), 4 / std::mem::size_of::<L>());
        let garbage: Vec<L> = (0..len as i32)
            .map(|i| L::from_code(i * 37 % 251 - 125))
            .collect();
        let (mut want, mut got) = (garbage.clone(), garbage.clone());
        (L::emitter(&SCALAR))(grid, x, &mut want, layout);
        (L::emitter(k))(grid, x, &mut got, layout);
        let lanes = std::any::type_name::<L>();
        assert_eq!(got, want, "{lanes} lanes, {ctx}");
        let canonical = layout.canonical::<L>();
        if canonical != layout {
            let mut rows = garbage;
            (L::emitter(&SCALAR))(grid, x, &mut rows, canonical);
            assert_eq!(rows, want, "{lanes} lanes, {ctx} as {canonical:?}");
        }
    }

    /// Every AVX2 emitter — every lane type × contiguous, rows at a pitch,
    /// words (G = 4 for i8, 2 for i16, rows otherwise) and transposed —
    /// against the reference at every width the engine packs and a few
    /// wider, under SBM and DoReFa: contiguous lengths 1..=67 around the
    /// vector and tile edges, one-column `[len, 1]` shapes of the same
    /// lengths (where the one-column rule rewrites words and transposition
    /// as rows), and `[rows, width]` shapes whose rows include the depthwise
    /// channel counts that are not multiples of 8.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx2_emitters_match_the_reference_in_every_lane_and_layout() {
        if !avx2_available() {
            eprintln!("skipping: no AVX2 on this CPU");
            return;
        }
        let mut shapes: Vec<(usize, usize)> = (1..=67).map(|len| (1, len)).collect();
        shapes.extend((2..=67).map(|len| (len, 1)));
        for rows in [2usize, 3, 5, 8, 9, 17, 36, 48, 144, 240] {
            for width in [1usize, 2, 3, 4, 7, 8, 9, 16, 17, 64, 67, 300] {
                shapes.push((rows, width));
            }
        }
        let mut rng = StdRng::seed_from_u64(0xE317);
        for bits in [2u8, 4, 8, 12, 16] {
            for q in [Quantizer::Sbm, Quantizer::Dorefa] {
                let grid = grid(q, bits);
                for &(rows, width) in &shapes {
                    let x = activations(&mut rng, q, bits, rows * width);
                    let layouts = [
                        Layout::Rows {
                            width,
                            pitch: width,
                        },
                        Layout::Rows {
                            width,
                            pitch: width + 3,
                        },
                        Layout::Words {
                            width,
                            pitch: 4 * width + 5,
                        },
                        Layout::Transposed {
                            width,
                            pitch: rows + 3,
                        },
                    ];
                    for layout in layouts {
                        let ctx = format!("{q:?} {bits}b [{rows}, {width}] {layout:?}");
                        emitter_matches_reference::<i8>(&AVX2, &grid, &x, layout, &ctx);
                        emitter_matches_reference::<i16>(&AVX2, &grid, &x, layout, &ctx);
                        emitter_matches_reference::<i32>(&AVX2, &grid, &x, layout, &ctx);
                        emitter_matches_reference::<f32>(&AVX2, &grid, &x, layout, &ctx);
                    }
                }
            }
        }
    }

    /// Every table's max-abs against the `f32::max` fold of an SBM scale, on
    /// bits: NaN of either sign, ±inf, ±0.0 and subnormals, at every length
    /// around the 32-lane body.
    #[test]
    fn max_abs_equals_the_fold_on_every_table() {
        let mut rng = StdRng::seed_from_u64(0x3AB5);
        let specials = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            1e-40,
            -3.5,
        ];
        let mut tables = vec![&SCALAR];
        #[cfg(target_arch = "x86_64")]
        if avx2_available() {
            tables.push(&AVX2);
        }
        for len in (0..=67).chain([100, 1000]) {
            for _ in 0..10 {
                let x: Vec<f32> = (0..len)
                    .map(|_| {
                        if rng.gen_range(0..4) == 0 {
                            specials[rng.gen_range(0..specials.len())]
                        } else {
                            rng.gen_range(-2.0f32..2.0)
                        }
                    })
                    .collect();
                let fold = x.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
                for k in &tables {
                    assert_eq!(
                        (k.max_abs)(&x).to_bits(),
                        fold.to_bits(),
                        "{:?}: {x:?}",
                        k.backend
                    );
                }
            }
        }
    }

    /// All 2³² f32 bit patterns through the AVX2 contiguous emitter against
    /// the reference and the libm-`round` rule it replaced (and the AVX2
    /// max-abs against the `f32::max` fold), a 2¹⁶-pattern slice at a time,
    /// on three SBM grids and a DoReFa one. Every layout is built from the
    /// same rounding loop, so this pins the per-element rule on every input
    /// there is.
    #[test]
    #[ignore = "exhaustive: every f32 bit pattern, about 100 s in release; run by CI"]
    #[cfg(target_arch = "x86_64")]
    fn avx2_emission_matches_the_reference_on_every_f32() {
        if !avx2_available() {
            eprintln!("skipping: no AVX2 on this CPU");
            return;
        }
        // (grid, the pre-vectorisation rule with libm `round` as a second
        // oracle)
        let sbm = |bits: u8, max: f32| {
            let grid = Quantizer::Sbm.activation_grid_with(&[], BitWidth::new(bits), |_| max);
            let (grid, qmax) = (grid.expect("quantized"), ((1u32 << bits) - 1) as f32);
            let s = grid.scale();
            let libm: Box<dyn Fn(f32) -> i32> =
                Box::new(move |v| (v / s).round().clamp(-qmax, qmax) as i32);
            (grid, libm)
        };
        let dorefa: Box<dyn Fn(f32) -> i32> =
            Box::new(|v| (v.clamp(0.0, 1.0) * 15.0).round() as i32);
        let grids = [
            sbm(4, 1.0),
            sbm(8, 6.0),
            sbm(16, 0.37),
            (grid(Quantizer::Dorefa, 4), dorefa),
        ];
        const SLICE: usize = 1 << 16;
        let (mut x, mut want, mut got) = (vec![0f32; SLICE], vec![0i32; SLICE], vec![0i32; SLICE]);
        let layout = Layout::Rows {
            width: SLICE,
            pitch: SLICE,
        };
        for hi in 0..1u32 << 16 {
            for (lo, v) in x.iter_mut().enumerate() {
                *v = f32::from_bits(hi << 16 | lo as u32);
            }
            let fold = x.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let max = (AVX2.max_abs)(&x);
            assert_eq!(
                max.to_bits(),
                fold.to_bits(),
                "max-abs, patterns {hi:#06x}xxxx"
            );
            for (grid, libm) in &grids {
                (SCALAR.emit_i32)(grid, &x, &mut want, layout);
                (AVX2.emit_i32)(grid, &x, &mut got, layout);
                for ((&v, &w), &g) in x.iter().zip(&want).zip(&got) {
                    assert!(
                        g == w && w == libm(v),
                        "{grid:?}: {v:e} ({:#x}) emits {g}, reference {w}, libm {}",
                        v.to_bits(),
                        libm(v)
                    );
                }
            }
        }
    }

    #[test]
    fn fused_toggle_is_scoped_and_restored() {
        let inside = with_fused_gemm(false, fused_gemm_enabled);
        assert!(!inside);
        assert_fused_restored();
        let inside = with_fused_gemm(true, fused_gemm_enabled);
        assert!(inside);
        assert_fused_restored();
        // Nests with backend forcing in either order.
        let inside = with_simd_backend(SimdBackend::Scalar, || {
            with_fused_gemm(false, || (active_simd_backend(), fused_gemm_enabled()))
        });
        assert_eq!(inside, (SimdBackend::Scalar, false));
        assert_fused_restored();
        assert_backend_restored();
    }

    #[test]
    fn fused_toggle_is_restored_on_panic() {
        let result =
            std::panic::catch_unwind(|| with_fused_gemm(!fused_default(), || panic!("boom")));
        assert!(result.is_err());
        assert_fused_restored();
    }
}
