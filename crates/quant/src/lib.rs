//! Bit-widths, bit-width sets, and quantizers for switchable-precision
//! networks.
//!
//! A switchable-precision network (SP-Net) shares one set of full-precision
//! weights and, at inference time, quantizes weights and activations to the
//! currently selected bit-width from a [`BitWidthSet`]. This crate provides:
//!
//! * [`BitWidth`] / [`BitWidthSet`] — the candidate precisions (index 0 is
//!   the lowest bit-width, the accuracy bottleneck the paper targets).
//! * [`Quantizer`] — the quantization rules evaluated in the paper:
//!   [`Quantizer::Dorefa`] (Zhou et al.) and [`Quantizer::Sbm`]
//!   (Banner et al., the paper's default), plus full-precision identity.
//!   All quantizers differentiate through a straight-through estimator.
//!
//! # Example
//!
//! ```
//! use instantnet_quant::{BitWidthSet, Quantizer};
//! use instantnet_tensor::Tensor;
//!
//! let bits = BitWidthSet::new(vec![4, 8, 12, 16, 32])?;
//! assert_eq!(bits.lowest().get(), 4);
//! let q = Quantizer::Sbm;
//! let w = Tensor::from_vec(vec![2, 2], vec![0.3, -1.2, 0.9, 0.05]);
//! let wq = q.quantize_weights_tensor(&w, bits.lowest());
//! assert!(wq.max_abs() <= w.max_abs() + 1e-6);
//! # Ok::<(), instantnet_quant::BitWidthError>(())
//! ```

pub use instantnet_tensor::tensor::max_abs;
use instantnet_tensor::tensor::{clamp_select, round_half_away};
use instantnet_tensor::{ops, Tensor, Var};
use std::error::Error;
use std::fmt;

/// A quantization precision in bits. `32` denotes full precision (no
/// quantization).
///
/// # Example
///
/// ```
/// use instantnet_quant::BitWidth;
/// assert!(BitWidth::new(32).is_full_precision());
/// assert_eq!(BitWidth::new(4).levels(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BitWidth(u8);

impl BitWidth {
    /// Full precision marker.
    pub const FULL: BitWidth = BitWidth(32);

    /// Creates a bit-width.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 32.
    pub fn new(bits: u8) -> Self {
        assert!((1..=32).contains(&bits), "bit-width must be in 1..=32");
        BitWidth(bits)
    }

    /// Raw number of bits.
    pub fn get(&self) -> u8 {
        self.0
    }

    /// Whether this bit-width means "do not quantize".
    pub fn is_full_precision(&self) -> bool {
        self.0 >= 32
    }

    /// Number of representable levels, `2^bits` (saturates for ≥ 31 bits).
    pub fn levels(&self) -> u64 {
        1u64 << self.0.min(63)
    }
}

impl fmt::Display for BitWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-bit", self.0)
    }
}

impl From<u8> for BitWidth {
    fn from(b: u8) -> Self {
        BitWidth::new(b)
    }
}

/// Error constructing a [`BitWidthSet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitWidthError {
    /// The candidate list was empty.
    Empty,
    /// The candidate list contained a duplicate bit-width.
    Duplicate(u8),
}

impl fmt::Display for BitWidthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BitWidthError::Empty => write!(f, "bit-width set must not be empty"),
            BitWidthError::Duplicate(b) => write!(f, "duplicate bit-width {b} in set"),
        }
    }
}

impl Error for BitWidthError {}

/// The ordered set of candidate bit-widths an SP-Net can switch between.
///
/// Stored ascending: index `0` is the lowest precision — the accuracy
/// bottleneck that both CDT and SP-NAS specifically target.
///
/// # Example
///
/// ```
/// use instantnet_quant::BitWidthSet;
/// let set = BitWidthSet::new(vec![8, 4, 32])?; // order does not matter
/// assert_eq!(set.widths().iter().map(|b| b.get()).collect::<Vec<_>>(), vec![4, 8, 32]);
/// assert_eq!(set.teachers_of(0).count(), 2); // 8-bit and 32-bit teach 4-bit
/// # Ok::<(), instantnet_quant::BitWidthError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitWidthSet {
    widths: Vec<BitWidth>,
}

impl BitWidthSet {
    /// Builds a set from raw bit counts (sorted, deduplicated is an error).
    ///
    /// # Errors
    ///
    /// Returns [`BitWidthError::Empty`] for an empty list and
    /// [`BitWidthError::Duplicate`] if a value repeats.
    pub fn new(bits: Vec<u8>) -> Result<Self, BitWidthError> {
        if bits.is_empty() {
            return Err(BitWidthError::Empty);
        }
        let mut widths: Vec<BitWidth> = bits.iter().map(|&b| BitWidth::new(b)).collect();
        widths.sort();
        for pair in widths.windows(2) {
            if pair[0] == pair[1] {
                return Err(BitWidthError::Duplicate(pair[0].get()));
            }
        }
        Ok(BitWidthSet { widths })
    }

    /// The paper's large-dynamic-range set `{4, 8, 12, 16, 32}`.
    pub fn large_range() -> Self {
        BitWidthSet::new(vec![4, 8, 12, 16, 32]).expect("static set is valid")
    }

    /// The paper's narrow-dynamic-range set `{4, 5, 6, 8}`.
    pub fn narrow_range() -> Self {
        BitWidthSet::new(vec![4, 5, 6, 8]).expect("static set is valid")
    }

    /// Ascending candidate bit-widths.
    pub fn widths(&self) -> &[BitWidth] {
        &self.widths
    }

    /// Number of candidates.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.widths.len()
    }

    /// The lowest (bottleneck) bit-width.
    pub fn lowest(&self) -> BitWidth {
        self.widths[0]
    }

    /// The highest bit-width (the strongest distillation teacher).
    pub fn highest(&self) -> BitWidth {
        *self.widths.last().expect("set is non-empty")
    }

    /// Candidate at `index` (ascending order).
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn at(&self, index: usize) -> BitWidth {
        self.widths[index]
    }

    /// Index of a bit-width in the set, if present.
    pub fn index_of(&self, bits: BitWidth) -> Option<usize> {
        self.widths.iter().position(|&b| b == bits)
    }

    /// Indices of all bit-widths strictly above `index` — the cascade of
    /// distillation teachers for student `index` in Eq. (1).
    pub fn teachers_of(&self, index: usize) -> impl Iterator<Item = usize> + '_ {
        (index + 1)..self.widths.len()
    }

    /// The set's dynamic range, `highest / lowest` — the paper
    /// distinguishes "large" ({4,8,12,16,32}, range 8) from "narrow"
    /// ({4,5,6,8}, range 2) sets, with SP-NAS most helpful on large
    /// ranges.
    pub fn dynamic_range(&self) -> f32 {
        f32::from(self.highest().get()) / f32::from(self.lowest().get())
    }
}

/// Separate weight/activation precision, used in the paper's Table IV
/// (e.g. 2-bit weights with 32-bit activations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Precision {
    /// Weight bit-width.
    pub weight: BitWidth,
    /// Activation bit-width.
    pub activation: BitWidth,
}

impl Precision {
    /// Uniform precision for weights and activations.
    pub fn uniform(bits: BitWidth) -> Self {
        Precision {
            weight: bits,
            activation: bits,
        }
    }

    /// Mixed weight/activation precision.
    pub fn new(weight: BitWidth, activation: BitWidth) -> Self {
        Precision { weight, activation }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "W{}A{}", self.weight.get(), self.activation.get())
    }
}

/// `2^bits − 1`, the top code of a `bits`-bit unsigned grid.
fn unit_levels(bits: u8) -> f32 {
    ((1u64 << bits) - 1) as f32
}

/// Uniform quantization of `x ∈ [0,1]` onto `n` levels: the `quantize_k`
/// primitive shared by DoReFa weights and activations. `n` is an argument,
/// not recomputed from the width per element, so a loop over it vectorises.
fn quantize_unit(x: f32, n: f32) -> f32 {
    round_half_away(x * n) / n
}

/// DoReFa weight codes `c = round((tanh(w) / (2·max|tanh(w)|) + 0.5) · n)`
/// with `n = 2^bits - 1`, so the quantized value is `2c/n - 1`.
///
/// `tanh` is odd and monotone, so `max |tanh(w)| = tanh(max |w|)`: one tanh
/// call replaces the full normalization pass over the tensor. For ≤ 4 bits
/// the per-element tanh disappears too — the code increments exactly where
/// `tanh(v)` crosses `((c − 0.5)/n − 0.5)·2·max`, and monotonicity moves
/// that boundary into input space via `atanh`, leaving a 15-way threshold
/// scan per element.
fn dorefa_weight_codes(data: &[f32], bits: u8) -> Vec<i32> {
    let n = ((1u64 << bits) - 1) as f32;
    let amax = max_abs(data);
    let tmax = amax.tanh().max(1e-8);
    if bits <= 4 {
        let levels = 1usize << bits;
        let mut thr = [0f32; 15];
        for (c, t) in thr.iter_mut().enumerate().take(levels - 1) {
            let y = (((c + 1) as f32 - 0.5) / n - 0.5) * (2.0 * tmax);
            *t = clamp_select(y, -0.999_999, 0.999_999).atanh();
        }
        let thr = &thr[..levels - 1];
        data.iter()
            .map(|&v| thr.iter().map(|&t| i32::from(v >= t)).sum())
            .collect()
    } else {
        let half_inv = 0.5 / tmax;
        data.iter()
            .map(|&v| clamp_select(round_half_away((v.tanh() * half_inv + 0.5) * n), 0.0, n) as i32)
            .collect()
    }
}

/// `v.round() as i32` without the libm call `f32::round` lowers to on
/// baseline x86-64: [`round_half_away`] is that rounding bit for bit, and
/// the saturating cast maps NaN to 0.
#[inline]
pub fn round_half_away_i32(v: f32) -> i32 {
    round_half_away(v) as i32
}

/// `1.5 · 2^23`: for `|v| < 2^22` the sum `v + ROUND_MAGIC` lies in
/// `[2^23, 2^24)`, where one ulp is exactly 1 — the add rounds `v` to the
/// nearest integer (ties to even) and leaves it in the low mantissa bits.
const ROUND_MAGIC: f32 = 12_582_912.0;
/// Widest grid [`round_half_away_small`] covers: `2^bits - 1 < 2^22`.
const SMALL_GRID_BITS: u8 = 22;

/// [`round_half_away_i32`] for `0 ≤ v < 2^22` with no float→int cast at
/// all — LLVM scalarises Rust's saturating cast, and with it the whole
/// code-emission loop, on every x86-64 level. Reads the ties-to-even integer
/// out of the mantissa of `v + ROUND_MAGIC`, then repairs the one case that
/// differs: an exact `.5` tie (the subtraction is exact) that ties-to-even
/// resolved down.
#[inline(always)]
fn round_half_up_small(v: f32) -> i32 {
    let biased = v + ROUND_MAGIC;
    let even = (biased.to_bits() as i32).wrapping_sub(ROUND_MAGIC.to_bits() as i32);
    even + i32::from(v - (biased - ROUND_MAGIC) == 0.5)
}

/// `round_half_away_i32(v.clamp(−bound, bound))` for an integer `bound ≤
/// 2^22`, NaN → 0 (what the cast did), branch-free: rounding is odd
/// (`round(−v) = −round(v)`) and commutes with clamping to integer bounds,
/// so the magnitude is clamped and rounded half up, and the sign of `v` is
/// put back in integers (`(r ^ s) − s`, `s` the sign bit smeared) — fewer
/// vector operations than clamping and repairing ties on both sides.
#[inline(always)]
fn round_half_away_small(v: f32, bound: f32) -> i32 {
    // `|NaN|` fails the first compare and becomes 0.
    let a = v.abs();
    let a = if a > 0.0 { a } else { 0.0 };
    let a = if a > bound { bound } else { a };
    let sign = (v.to_bits() as i32) >> 31;
    (round_half_up_small(a) ^ sign) - sign
}

/// `out[p] = round_half_away(clamp(grid(x[p]), −qmax, qmax))` in lane type
/// `L`, `grid` mapping a value onto the code axis.
#[inline(always)]
fn round_run<L: CodeLane>(
    x: &[f32],
    out: &mut [L],
    (bits, qmax): (u8, f32),
    grid: impl Fn(f32) -> f32,
) {
    if bits > SMALL_GRID_BITS {
        return round_wide(x, out, qmax, &grid);
    }
    for (o, &v) in out.iter_mut().zip(x) {
        *o = L::from_code(round_half_away_small(grid(v), qmax));
    }
}

/// [`round_run`] for grids above [`SMALL_GRID_BITS`], which the integer
/// engine never packs: the float→int cast keeps this loop scalar anyway,
/// so it stays out of line — one copy per lane type, not one per caller.
#[inline(never)]
fn round_wide<L: CodeLane>(x: &[f32], out: &mut [L], qmax: f32, grid: &dyn Fn(f32) -> f32) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o = L::from_code(round_half_away_i32(clamp_select(grid(v), -qmax, qmax)));
    }
}

/// Codes [`emit_codes`] rounds contiguously before scattering them.
const EMIT_TILE: usize = 256;
/// Shortest row [`emit_codes`] rounds in place at its pitch: one vector of
/// f32 inputs. Shorter rows do not amortise a rounding loop of their own.
const EMIT_ROW: usize = 8;

/// Emits the code of every activation on `grid`, in lane type `L`: the code
/// of `x[p]` lands at `out[p / group * pitch + p % group * step]` (`step ==
/// 1` with `group == pitch` or `group >= x.len()` is the plain contiguous
/// emission; `pitch == 1` with `step` the row count is a transposition).
/// One rounding loop, [`ActivationGrid::emit_run`], whatever the layout:
/// rows of at least [`EMIT_ROW`] contiguous codes are rounded where they
/// land; anything else is rounded a tile at a time and scattered, the
/// longer of the tile's two axes innermost. This is the reference every
/// vectorized layout of `instantnet-infer` is tested against; inlined so a
/// caller compiled for wider vectors gets its rounding loop in them.
#[inline(always)]
fn emit_codes<L: CodeLane>(
    grid: &ActivationGrid,
    x: &[f32],
    out: &mut [L],
    (group, pitch, step): (usize, usize, usize),
) {
    if x.is_empty() {
        return;
    }
    let contiguous = step == 1 && (group == pitch || group >= x.len());
    if contiguous || (step == 1 && group >= EMIT_ROW) {
        // One call site of the inlined loop for both, so each caller
        // instantiates it once here and once for the tiles.
        let (group, pitch) = if contiguous {
            (x.len(), x.len())
        } else {
            (group, pitch)
        };
        for (xs, os) in x.chunks(group).zip(out.chunks_mut(pitch)) {
            grid.emit_run(xs, os);
        }
        return;
    }
    let mut tile = [L::from_code(0); EMIT_TILE];
    // Whole groups per tile where a group fits one; longer groups go a
    // tile-length piece at a time.
    let per_tile = if group < EMIT_TILE {
        EMIT_TILE / group * group
    } else {
        EMIT_TILE
    };
    for (ti, xs) in x.chunks(per_tile).enumerate() {
        let tile = &mut tile[..xs.len()];
        grid.emit_run(xs, tile);
        // The tile starts at lane `k` of group `r`: the rest of that group
        // (`k > 0` only where groups outgrow a tile), then whole groups — a
        // `[rows, group]` matrix — then the start of a last, partial one.
        let (r, k) = (ti * per_tile / group, ti * per_tile % group);
        let (head, body) = tile.split_at(if k == 0 { 0 } else { xs.len().min(group - k) });
        let (body, tail) = body.split_at(body.len() / group * group);
        scatter(
            head,
            (1, head.len()),
            out,
            r * pitch + k * step,
            (pitch, step),
        );
        let (r, rows) = (r + usize::from(k > 0), body.len() / group);
        scatter(body, (rows, group), out, r * pitch, (pitch, step));
        scatter(
            tail,
            (1, tail.len()),
            out,
            (r + rows) * pitch,
            (pitch, step),
        );
    }
}

/// `out[at + r * pitch + k * step] = tile[r * group + k]` over a `[rows,
/// group]` tile, the longer of the two axes innermost.
fn scatter<L: Copy>(
    tile: &[L],
    (rows, group): (usize, usize),
    out: &mut [L],
    at: usize,
    (pitch, step): (usize, usize),
) {
    if tile.is_empty() {
        return;
    }
    let out = &mut out[at..];
    if step == 1 && group == 2 {
        // The fused kernels' interleave groups: a constant-length copy is
        // one move.
        copy_groups::<L, 2>(tile, out, pitch);
    } else if step == 1 && group == 4 {
        copy_groups::<L, 4>(tile, out, pitch);
    } else if rows >= group {
        for k in 0..group {
            let src = tile[k..].iter().step_by(group);
            for (o, &c) in out[k * step..].iter_mut().step_by(pitch).zip(src) {
                *o = c;
            }
        }
    } else {
        for (src, r) in tile.chunks_exact(group).zip(0..) {
            for (o, &c) in out[r * pitch..].iter_mut().step_by(step).zip(src) {
                *o = c;
            }
        }
    }
}

/// Group `r` of `tile` (`G` adjacent lanes) to `out[r * pitch..]`.
fn copy_groups<L: Copy, const G: usize>(tile: &[L], out: &mut [L], pitch: usize) {
    for (src, dst) in tile.chunks_exact(G).zip(out.chunks_mut(pitch)) {
        dst[..G].copy_from_slice(src);
    }
}

/// A lane type activation codes can be emitted in directly
/// ([`Quantizer::activation_codes_into`]): the integer engine's kernels
/// consume `i8`/`i16` (fused), `i32` (integer tiers) or exact `f32` lanes.
pub trait CodeLane: Copy + Send + Sync {
    /// Narrows (or converts) one code; the caller guarantees it fits (a
    /// code that does not is truncated, as `as` does).
    fn from_code(code: i32) -> Self;
}

impl CodeLane for i8 {
    #[inline(always)]
    fn from_code(code: i32) -> i8 {
        code as i8
    }
}
impl CodeLane for i16 {
    #[inline(always)]
    fn from_code(code: i32) -> i16 {
        code as i16
    }
}
impl CodeLane for i32 {
    #[inline(always)]
    fn from_code(code: i32) -> i32 {
        code
    }
}
impl CodeLane for f32 {
    #[inline(always)]
    fn from_code(code: i32) -> f32 {
        code as f32
    }
}

/// Integer weight codes plus the affine decode parameters, the prepack
/// input for the integer inference engine (`crates/infer`).
///
/// The decoded value of element `e` in dim-0 channel `k` is
/// `scales[k.min(scales.len()-1)] * codes[e] + offset` and reproduces
/// [`Quantizer::quantize_weights_tensor`] up to f32 rounding (bit-exact
/// for SBM, ≤ 1 ulp for DoReFa).
#[derive(Debug, Clone)]
pub struct WeightCodes {
    /// One integer code per element, row-major like the source tensor.
    pub codes: Vec<i32>,
    /// Per-output-channel scales (`dims[0]` entries) or one per-tensor scale.
    pub scales: Vec<f32>,
    /// Shared additive offset: DoReFa's `-1`, zero for SBM.
    pub offset: f32,
    /// Smallest representable code at this bit-width.
    pub code_min: i32,
    /// Largest representable code at this bit-width.
    pub code_max: i32,
}

/// Integer activation codes with a per-tensor decode scale
/// (`value = scale * code`), computed fresh each forward because the scale
/// is data-dependent.
#[derive(Debug, Clone)]
pub struct ActivationCodes {
    /// One integer code per element.
    pub codes: Vec<i32>,
    /// Per-tensor decode scale.
    pub scale: f32,
    /// Largest |code| that can occur (overflow-bound input for kernels).
    pub code_abs_max: i32,
}

/// The integer grid of one activation tensor ([`Quantizer::activation_grid`]):
/// with the scale fixed up front, codes can be emitted slice by slice into
/// whatever layout the consuming kernel reads.
#[derive(Debug, Clone, Copy)]
pub struct ActivationGrid {
    dorefa: bool,
    bits: u8,
    qmax: f32,
    scale: f32,
}

impl ActivationGrid {
    /// The decode scale (`value = scale * code`).
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Emits the code of `x[p]` at `out[p / group * pitch + p % group]`, in
    /// lane type `L` (the caller picks one wide enough for `2^bits - 1`):
    /// `group == pitch == x.len()` writes the codes contiguously, a short
    /// `group` scatters them `group` lanes at a time — how one sample lands
    /// in a matrix whose columns are samples.
    ///
    /// # Panics
    ///
    /// Panics if `group` is 0 or exceeds `pitch`, or `out` is too short.
    pub fn emit<L: CodeLane>(&self, x: &[f32], out: &mut [L], group: usize, pitch: usize) {
        assert!(group <= pitch, "groups of {group} overlap at pitch {pitch}");
        self.emit_strided(x, out, group, pitch, 1);
    }

    /// Emits the code of `x[p]` at `out[p]` for every `p` both slices cover:
    /// the one rounding loop every layout is built from. The rule is
    /// `round_half_away(clamp(v / scale, −qmax, qmax))` (DoReFa:
    /// `round_half_away(clamp(v, 0, 1) · qmax)`), NaN → 0, written
    /// branch-free — the division stays a division, clamping precedes
    /// rounding (the two commute: rounding is monotone and the bounds are
    /// integers) and grids up to 22 bits round the clamped magnitude through
    /// the mantissa with no float→int cast — so a vector unit runs it
    /// lane-wise. Inlined so every caller compiles it for its own target
    /// features: `instantnet-infer` instantiates it under AVX2, where it
    /// runs eight codes per `vdivps`.
    #[inline(always)]
    pub fn emit_run<L: CodeLane>(&self, x: &[f32], out: &mut [L]) {
        let (qmax, s) = (self.qmax, self.scale);
        if self.dorefa {
            round_run(x, out, (self.bits, qmax), |v| {
                clamp_select(v, 0.0, 1.0) * qmax
            });
        } else {
            round_run(x, out, (self.bits, qmax), |v| v / s);
        }
    }

    /// [`Self::emit`] with the lanes of a group `step` apart: the code of
    /// `x[p]` lands at `out[p / group * pitch + p % group * step]`. With `x`
    /// a row-major `[rows, group]` matrix, `pitch = 1` and `step = rows`
    /// emit it transposed — a `[channels, pixels]` sample straight into the
    /// `[pixels, channels]` operand of a kernel whose lanes are channels —
    /// in one call, scattered a rounded tile at a time.
    ///
    /// # Panics
    ///
    /// Panics if `group` is 0 or `out` is too short for the farthest code.
    #[inline(always)]
    pub fn emit_strided<L: CodeLane>(
        &self,
        x: &[f32],
        out: &mut [L],
        group: usize,
        pitch: usize,
        step: usize,
    ) {
        let last = x.len().saturating_sub(1) / group;
        let far = |row: usize, lanes: usize| row * pitch + lanes.saturating_sub(1) * step;
        let full = if last > 0 { far(last - 1, group) } else { 0 };
        assert!(
            x.is_empty() || out.len() > far(last, x.len() - last * group).max(full),
            "every group must fit"
        );
        emit_codes(self, x, out, (group, pitch, step));
    }
}

/// The quantization rule applied to weights and activations.
///
/// All rules share weights across bit-widths (quantization happens on the
/// fly in the forward pass) and use a straight-through estimator for the
/// backward pass, which is what makes switchable-precision training work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Quantizer {
    /// No quantization at any bit-width (debugging / FP reference).
    Identity,
    /// DoReFa-Net (Zhou et al. 2016): tanh-normalized weights and
    /// clipped-`[0,1]` activations, both uniformly quantized.
    Dorefa,
    /// SBM (Banner et al., NeurIPS'18 "Scalable Methods for 8-bit
    /// Training"): symmetric range-based scaling, per-output-channel for
    /// weights and per-tensor for activations. The paper's default.
    #[default]
    Sbm,
}

impl Quantizer {
    /// Quantizes a weight tensor to `bits` (pure, no gradient).
    ///
    /// Full-precision bit-widths return the input unchanged.
    pub fn quantize_weights_tensor(&self, w: &Tensor, bits: BitWidth) -> Tensor {
        if bits.is_full_precision() || matches!(self, Quantizer::Identity) {
            return w.clone();
        }
        match self {
            Quantizer::Identity => unreachable!(),
            Quantizer::Dorefa => {
                let n = ((1u64 << bits.get()) - 1) as f32;
                let codes = dorefa_weight_codes(w.data(), bits.get());
                Tensor::from_vec(
                    w.dims().to_vec(),
                    codes.iter().map(|&c| 2.0 * (c as f32 / n) - 1.0).collect(),
                )
            }
            Quantizer::Sbm => {
                // Per-output-channel (axis 0) symmetric scaling; rank-1
                // tensors fall back to per-tensor scaling.
                let dims = w.dims().to_vec();
                let qmax = ((1u64 << (bits.get().min(31) - 1)) - 1).max(1) as f32;
                if dims.len() < 2 {
                    let s = w.max_abs().max(1e-8) / qmax;
                    return w.map(|v| clamp_select(round_half_away(v / s), -qmax, qmax) * s);
                }
                let per: usize = dims[1..].iter().product();
                let mut out = w.clone();
                for k in 0..dims[0] {
                    let chunk = &w.data()[k * per..(k + 1) * per];
                    let s = max_abs(chunk).max(1e-8) / qmax;
                    for (o, &v) in out.data_mut()[k * per..(k + 1) * per].iter_mut().zip(chunk) {
                        *o = clamp_select(round_half_away(v / s), -qmax, qmax) * s;
                    }
                }
                out
            }
        }
    }

    /// Quantizes an activation tensor to `bits` (pure, no gradient).
    pub fn quantize_activations_tensor(&self, x: &Tensor, bits: BitWidth) -> Tensor {
        if bits.is_full_precision() || matches!(self, Quantizer::Identity) {
            return x.clone();
        }
        match self {
            Quantizer::Identity => unreachable!(),
            Quantizer::Dorefa => {
                let n = unit_levels(bits.get());
                x.map(|v| quantize_unit(clamp_select(v, 0.0, 1.0), n))
            }
            Quantizer::Sbm => {
                // Unsigned per-tensor scaling (activations follow ReLU).
                let qmax = ((1u64 << bits.get().min(31)) - 1) as f32;
                let max = x.max_abs().max(1e-8);
                let s = max / qmax;
                x.map(|v| clamp_select(round_half_away(v / s), -qmax, qmax) * s)
            }
        }
    }

    /// [`Self::quantize_activations_tensor`] over a slice, in place: the
    /// same values bit for bit, for callers that quantize one sample of a
    /// batch at a time.
    pub fn quantize_activations_in_place(&self, x: &mut [f32], bits: BitWidth) {
        if bits.is_full_precision() {
            return;
        }
        match self {
            Quantizer::Identity => {}
            Quantizer::Dorefa => {
                let n = unit_levels(bits.get());
                for v in x {
                    *v = quantize_unit(clamp_select(*v, 0.0, 1.0), n);
                }
            }
            Quantizer::Sbm => {
                let qmax = ((1u64 << bits.get().min(31)) - 1) as f32;
                let s = max_abs(x).max(1e-8) / qmax;
                for v in x {
                    *v = clamp_select(round_half_away(*v / s), -qmax, qmax) * s;
                }
            }
        }
    }

    /// Extracts integer weight codes and decode scales for prepacking.
    ///
    /// Returns `None` when no integer grid exists ([`Quantizer::Identity`]
    /// or a full-precision bit-width) — callers keep f32 weights then.
    /// SBM yields per-output-channel scales on rank ≥ 2 tensors (one scale
    /// per dim-0 slice, matching [`Self::quantize_weights_tensor`]); DoReFa
    /// yields a single per-tensor scale `2/n` with offset `-1`.
    pub fn weight_codes(&self, w: &Tensor, bits: BitWidth) -> Option<WeightCodes> {
        if bits.is_full_precision() || matches!(self, Quantizer::Identity) {
            return None;
        }
        match self {
            Quantizer::Identity => unreachable!(),
            Quantizer::Dorefa => {
                let n = ((1u64 << bits.get()) - 1) as f32;
                Some(WeightCodes {
                    codes: dorefa_weight_codes(w.data(), bits.get()),
                    scales: vec![2.0 / n],
                    offset: -1.0,
                    code_min: 0,
                    code_max: (n as i32).max(1),
                })
            }
            Quantizer::Sbm => {
                let dims = w.dims().to_vec();
                let qmax = ((1u64 << (bits.get().min(31) - 1)) - 1).max(1) as f32;
                let (codes, scales) =
                    if dims.len() < 2 {
                        let s = w.max_abs().max(1e-8) / qmax;
                        let codes = w
                            .data()
                            .iter()
                            .map(|&v| clamp_select(round_half_away(v / s), -qmax, qmax) as i32)
                            .collect();
                        (codes, vec![s])
                    } else {
                        let per: usize = dims[1..].iter().product();
                        let mut codes = Vec::with_capacity(w.len());
                        let mut scales = Vec::with_capacity(dims[0]);
                        for k in 0..dims[0] {
                            let chunk = &w.data()[k * per..(k + 1) * per];
                            let s = max_abs(chunk).max(1e-8) / qmax;
                            codes.extend(chunk.iter().map(|&v| {
                                clamp_select(round_half_away(v / s), -qmax, qmax) as i32
                            }));
                            scales.push(s);
                        }
                        (codes, scales)
                    };
                Some(WeightCodes {
                    codes,
                    scales,
                    offset: 0.0,
                    code_min: -(qmax as i32),
                    code_max: qmax as i32,
                })
            }
        }
    }

    /// Extracts integer activation codes plus the per-tensor decode scale.
    ///
    /// Returns `None` for [`Quantizer::Identity`] or full precision. The
    /// decoded value `scale * code` matches
    /// [`Self::quantize_activations_tensor`] up to f32 rounding.
    pub fn activation_codes(&self, x: &[f32], bits: BitWidth) -> Option<ActivationCodes> {
        let mut codes = vec![0i32; x.len()];
        let scale = self.activation_codes_into(x, bits, &mut codes)?;
        Some(ActivationCodes {
            codes,
            scale,
            // Below full precision `bits ≤ 31`, so the grid top fits i32.
            code_abs_max: ((1u64 << bits.get()) - 1) as i32,
        })
    }

    /// [`Self::activation_codes`] emitted straight into the consumer's lane
    /// type: one pass over `x`, no intermediate `i32` buffer. Returns the
    /// decode scale, or `None` (leaving `out` untouched) where no integer
    /// grid exists. The caller picks a lane wide enough for `2^bits - 1`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != x.len()`.
    pub fn activation_codes_into<L: CodeLane>(
        &self,
        x: &[f32],
        bits: BitWidth,
        out: &mut [L],
    ) -> Option<f32> {
        let grid = self.activation_grid(x, bits)?;
        assert_eq!(out.len(), x.len(), "one code per activation");
        grid.emit(x, out, x.len().max(1), x.len().max(1));
        Some(grid.scale)
    }

    /// The grid [`Self::activation_codes`] would quantize `x` on — its
    /// data-dependent decode scale fixed before any code is emitted — or
    /// `None` where no integer grid exists.
    pub fn activation_grid(&self, x: &[f32], bits: BitWidth) -> Option<ActivationGrid> {
        self.activation_grid_with(x, bits, max_abs)
    }

    /// [`Self::activation_grid`] with the max-abs of `x` taken by `max_abs`
    /// — called once, and only by the rule that needs it (SBM) — so a
    /// caller can pass in a [`max_abs`] compiled for wider vectors. Any
    /// function equal to [`max_abs`] yields the same grid bit for bit.
    pub fn activation_grid_with(
        &self,
        x: &[f32],
        bits: BitWidth,
        max_abs: impl FnOnce(&[f32]) -> f32,
    ) -> Option<ActivationGrid> {
        if bits.is_full_precision() || matches!(self, Quantizer::Identity) {
            return None;
        }
        let qmax = ((1u64 << bits.get()) - 1) as f32;
        let scale = match self {
            Quantizer::Sbm => max_abs(x).max(1e-8) / qmax,
            _ => 1.0 / qmax,
        };
        Some(ActivationGrid {
            dorefa: matches!(self, Quantizer::Dorefa),
            bits: bits.get(),
            qmax,
            scale,
        })
    }

    /// Differentiable weight quantization (straight-through gradient).
    pub fn quantize_weights(&self, w: &Var, bits: BitWidth) -> Var {
        if bits.is_full_precision() || matches!(self, Quantizer::Identity) {
            // Still insert a pass-through node so graph shape is uniform.
            return ops::ste_apply(w, |t| t.clone(), None);
        }
        let q = *self;
        ops::ste_apply(w, move |t| q.quantize_weights_tensor(t, bits), None)
    }

    /// Differentiable activation quantization.
    ///
    /// DoReFa clips to `[0,1]` and masks the gradient outside the clip
    /// range; SBM passes the gradient straight through.
    pub fn quantize_activations(&self, x: &Var, bits: BitWidth) -> Var {
        if bits.is_full_precision() || matches!(self, Quantizer::Identity) {
            return ops::ste_apply(x, |t| t.clone(), None);
        }
        let q = *self;
        let mask: Option<ops::GradMaskFn> = match self {
            Quantizer::Dorefa => Some(Box::new(|t: &Tensor| {
                t.map(|v| if (0.0..=1.0).contains(&v) { 1.0 } else { 0.0 })
            })),
            _ => None,
        };
        ops::ste_apply(x, move |t| q.quantize_activations_tensor(t, bits), mask)
    }

    /// Mean squared quantization error of an activation tensor at `bits`.
    pub fn activation_error(&self, x: &Tensor, bits: BitWidth) -> f32 {
        let q = self.quantize_activations_tensor(x, bits);
        x.sub(&q).map(|v| v * v).mean()
    }

    /// Mean squared quantization error of a weight tensor at `bits` —
    /// the quantity whose decay with increasing bit-width motivates
    /// cascade distillation.
    pub fn weight_error(&self, w: &Tensor, bits: BitWidth) -> f32 {
        let q = self.quantize_weights_tensor(w, bits);
        w.sub(&q).map(|v| v * v).mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instantnet_tensor::Var;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tensor(seed: u64, dims: &[usize]) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let n: usize = dims.iter().product();
        Tensor::from_vec(
            dims.to_vec(),
            (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect(),
        )
    }

    #[test]
    fn bitwidth_set_sorted_and_indexed() {
        let set = BitWidthSet::new(vec![16, 4, 32, 8, 12]).unwrap();
        assert_eq!(set.lowest().get(), 4);
        assert_eq!(set.highest().get(), 32);
        assert_eq!(set.index_of(BitWidth::new(12)), Some(2));
        assert_eq!(set.index_of(BitWidth::new(5)), None);
        assert_eq!(set.len(), 5);
    }

    #[test]
    fn bitwidth_set_rejects_bad_input() {
        assert_eq!(BitWidthSet::new(vec![]), Err(BitWidthError::Empty));
        assert_eq!(
            BitWidthSet::new(vec![4, 4]),
            Err(BitWidthError::Duplicate(4))
        );
    }

    #[test]
    fn dynamic_range_distinguishes_paper_sets() {
        assert_eq!(BitWidthSet::large_range().dynamic_range(), 8.0);
        assert_eq!(BitWidthSet::narrow_range().dynamic_range(), 2.0);
    }

    #[test]
    fn activation_error_decreases_with_bits() {
        let x = random_tensor(11, &[128]);
        let q = Quantizer::Sbm;
        let lo = q.activation_error(&x, BitWidth::new(3));
        let hi = q.activation_error(&x, BitWidth::new(8));
        assert!(hi < lo);
        assert_eq!(q.activation_error(&x, BitWidth::FULL), 0.0);
    }

    #[test]
    fn teachers_are_all_higher_bits() {
        let set = BitWidthSet::large_range();
        let teachers: Vec<usize> = set.teachers_of(0).collect();
        assert_eq!(teachers, vec![1, 2, 3, 4]);
        assert_eq!(set.teachers_of(4).count(), 0);
    }

    #[test]
    fn full_precision_is_identity_for_all_quantizers() {
        let w = random_tensor(0, &[4, 3]);
        for q in [Quantizer::Identity, Quantizer::Dorefa, Quantizer::Sbm] {
            assert_eq!(q.quantize_weights_tensor(&w, BitWidth::FULL), w);
            assert_eq!(q.quantize_activations_tensor(&w, BitWidth::FULL), w);
        }
    }

    #[test]
    fn dorefa_weights_bounded_by_one() {
        let w = random_tensor(1, &[8, 4]);
        let q = Quantizer::Dorefa.quantize_weights_tensor(&w, BitWidth::new(4));
        assert!(q.data().iter().all(|v| v.abs() <= 1.0 + 1e-6));
    }

    #[test]
    fn dorefa_activations_in_unit_range() {
        let x = random_tensor(2, &[16]);
        let q = Quantizer::Dorefa.quantize_activations_tensor(&x, BitWidth::new(3));
        assert!(q.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        // Exactly representable levels: v * 7 should be integral.
        assert!(q
            .data()
            .iter()
            .all(|&v| (v * 7.0 - (v * 7.0).round()).abs() < 1e-5));
    }

    #[test]
    fn sbm_is_idempotent() {
        let w = random_tensor(3, &[4, 6]);
        let q = Quantizer::Sbm;
        let w1 = q.quantize_weights_tensor(&w, BitWidth::new(5));
        let w2 = q.quantize_weights_tensor(&w1, BitWidth::new(5));
        for (a, b) in w1.data().iter().zip(w2.data()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn sbm_error_decreases_with_bits() {
        let w = random_tensor(4, &[8, 16]);
        let q = Quantizer::Sbm;
        let e4 = q.weight_error(&w, BitWidth::new(4));
        let e8 = q.weight_error(&w, BitWidth::new(8));
        let e16 = q.weight_error(&w, BitWidth::new(16));
        assert!(e4 > e8, "e4 {e4} vs e8 {e8}");
        assert!(e8 > e16, "e8 {e8} vs e16 {e16}");
    }

    #[test]
    fn adjacent_bitwidths_are_closer_than_distant_ones() {
        // The CDT hypothesis: quantization noise between adjacent bit-widths
        // is smaller than between distant ones.
        let w = random_tensor(5, &[8, 16]);
        let q = Quantizer::Sbm;
        let w4 = q.quantize_weights_tensor(&w, BitWidth::new(4));
        let w8 = q.quantize_weights_tensor(&w, BitWidth::new(8));
        let w32 = q.quantize_weights_tensor(&w, BitWidth::FULL);
        let gap_4_8 = w4.sub(&w8).map(|v| v * v).mean();
        let gap_4_32 = w4.sub(&w32).map(|v| v * v).mean();
        let gap_8_32 = w8.sub(&w32).map(|v| v * v).mean();
        assert!(gap_8_32 < gap_4_32);
        assert!(gap_4_8 <= gap_4_32 * 1.5); // adjacent gap comparable or smaller
    }

    #[test]
    fn ste_gradient_flows_through_weight_quantization() {
        let w = Var::leaf(random_tensor(6, &[3, 3]), true);
        let q = Quantizer::Sbm.quantize_weights(&w, BitWidth::new(4));
        q.sum().backward();
        let g = w.grad().unwrap();
        assert!(g.data().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn dorefa_activation_mask_zeroes_out_of_range() {
        let x = Var::leaf(Tensor::from_vec(vec![3], vec![-0.5, 0.5, 1.5]), true);
        let q = Quantizer::Dorefa.quantize_activations(&x, BitWidth::new(4));
        q.sum().backward();
        assert_eq!(x.grad().unwrap().data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn one_bit_quantization_is_sign_like() {
        // 1-bit SBM: values collapse to {-max, 0, +max} per channel.
        let w = random_tensor(13, &[2, 8]);
        let q = Quantizer::Sbm.quantize_weights_tensor(&w, BitWidth::new(1));
        for k in 0..2 {
            let chunk = &q.data()[k * 8..(k + 1) * 8];
            let mut levels: Vec<i32> = chunk.iter().map(|&v| v.signum() as i32).collect();
            levels.sort_unstable();
            levels.dedup();
            assert!(levels.len() <= 3, "1-bit levels {levels:?}");
        }
    }

    #[test]
    #[should_panic(expected = "bit-width must be in 1..=32")]
    fn zero_bitwidth_rejected() {
        let _ = BitWidth::new(0);
    }

    #[test]
    fn bitwidth_ordering_and_levels() {
        assert!(BitWidth::new(4) < BitWidth::new(8));
        assert_eq!(BitWidth::new(1).levels(), 2);
        assert_eq!(BitWidth::FULL.levels(), 1u64 << 32);
    }

    #[test]
    fn precision_display_and_uniform() {
        let p = Precision::new(BitWidth::new(2), BitWidth::FULL);
        assert_eq!(p.to_string(), "W2A32");
        assert_eq!(Precision::uniform(BitWidth::new(4)).activation.get(), 4);
    }

    /// Reference DoReFa weight rule, written the slow way (per-element tanh
    /// and division) — pins the optimized path to the original definition.
    fn dorefa_weights_reference(w: &Tensor, bits: u8) -> Tensor {
        let t = w.map(f32::tanh);
        let max = t.max_abs().max(1e-8);
        t.map(|v| 2.0 * quantize_unit(v / (2.0 * max) + 0.5, unit_levels(bits)) - 1.0)
    }

    #[test]
    fn dorefa_fast_path_matches_reference() {
        for seed in 0..20 {
            let w = random_tensor(seed, &[16, 9]);
            for bits in [2u8, 3, 4, 5, 8, 12] {
                let fast = Quantizer::Dorefa.quantize_weights_tensor(&w, BitWidth::new(bits));
                let reference = dorefa_weights_reference(&w, bits);
                let step = 2.0 / (((1u64 << bits) - 1) as f32);
                for (a, b) in fast.data().iter().zip(reference.data()) {
                    assert!((a - b).abs() < step * 0.5 + 1e-6, "bits {bits}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn weight_codes_decode_matches_fake_quant() {
        let w = random_tensor(7, &[6, 10]);
        for q in [Quantizer::Sbm, Quantizer::Dorefa] {
            for bits in [2u8, 4, 8, 12] {
                let bw = BitWidth::new(bits);
                let wc = q.weight_codes(&w, bw).unwrap();
                let fake = q.quantize_weights_tensor(&w, bw);
                let per = w.len() / 6;
                for (e, (&c, &f)) in wc.codes.iter().zip(fake.data()).enumerate() {
                    assert!((wc.code_min..=wc.code_max).contains(&c));
                    let s = wc.scales[(e / per).min(wc.scales.len() - 1)];
                    let decoded = s * c as f32 + wc.offset;
                    assert!(
                        (decoded - f).abs() < 1e-5,
                        "{q:?} bits {bits}: {decoded} vs {f}"
                    );
                }
            }
        }
    }

    #[test]
    fn activation_codes_decode_matches_fake_quant() {
        let x = random_tensor(9, &[128]);
        for q in [Quantizer::Sbm, Quantizer::Dorefa] {
            for bits in [2u8, 4, 8] {
                let bw = BitWidth::new(bits);
                let ac = q.activation_codes(x.data(), bw).unwrap();
                let fake = q.quantize_activations_tensor(&x, bw);
                for (&c, &f) in ac.codes.iter().zip(fake.data()) {
                    assert!(c.abs() <= ac.code_abs_max);
                    let decoded = ac.scale * c as f32;
                    assert!(
                        (decoded - f).abs() < 1e-5,
                        "{q:?} bits {bits}: {decoded} vs {f}"
                    );
                }
            }
        }
    }

    /// Values where rounding is most likely to go wrong: every `k ± 0.5`
    /// tie with its ±1-ulp neighbours (0.49999997 is the classic
    /// `floor(v + 0.5)` counter-example), signed zeros, subnormals, the
    /// exact-integer range above 2^23, and NaN.
    fn rounding_corpus() -> Vec<f32> {
        let ulps = |v: f32| {
            [
                f32::from_bits(v.to_bits() - 1),
                v,
                f32::from_bits(v.to_bits() + 1),
            ]
        };
        let mut out = vec![0.0, -0.0, f32::NAN, f32::MIN_POSITIVE, f32::from_bits(1)];
        let ks = [
            0u32,
            1,
            2,
            3,
            7,
            8,
            14,
            15,
            16,
            127,
            128,
            254,
            255,
            256,
            4094,
            4095,
            32767,
            65534,
            65535,
            65536,
            1 << 22,
            (1 << 23) - 1,
            1 << 23,
            (1 << 24) + 2,
            1 << 30,
        ];
        for k in ks {
            for base in [k as f32 - 0.5, k as f32, k as f32 + 0.5] {
                for v in ulps(base.abs().max(f32::MIN_POSITIVE)) {
                    out.extend([v, -v]);
                }
            }
        }
        out.push(2_147_483_520.0); // largest f32 below 2^31
        out.push(-2_147_483_648.0);
        out
    }

    #[test]
    fn round_half_away_matches_libm_round_on_its_whole_domain() {
        let mut rng = StdRng::seed_from_u64(0x0A11);
        let random = (0..20_000).map(|i| {
            let mag = [1.0f32, 20.0, 300.0, 70_000.0, 1e7, 2e9][i % 6];
            rng.gen_range(-mag..mag)
        });
        for v in rounding_corpus().into_iter().chain(random) {
            let want = v.round() as i32;
            assert_eq!(round_half_away_i32(v), want, "{v:e} ({:#x})", v.to_bits());
            if v.abs() < (1u32 << SMALL_GRID_BITS) as f32 || v.is_nan() {
                assert_eq!(
                    round_half_away_small(v, (1u32 << SMALL_GRID_BITS) as f32),
                    want,
                    "small: {v:e} ({:#x})",
                    v.to_bits()
                );
            }
        }
    }

    /// Two more fake-quant inputs, 64 values a row. `specials`: what a
    /// clamp can get wrong — NaN payloads (quiet and signalling), `±0`,
    /// subnormals, the unit interval's edges and beyond — plus `±inf` in
    /// row 0 only, so row 1 keeps a finite scale. `ties(bits)`: exact `.5`
    /// ties on the SBM grid, each row's max-abs `qmax / 8` (row 0 on the
    /// weight grid, row 1 on the activation grid), so the scale is `1/8`.
    fn clamp_corpus(bits: u8) -> [Vec<f32>; 2] {
        let row = |mut v: Vec<f32>| {
            let fill = (v.len()..64).map(|i| (i as f32 - 40.0) / 16.0);
            v.extend(fill.collect::<Vec<_>>());
            v
        };
        let specials = |inf: bool| {
            let nans = [
                0x7fc0_0000u32,
                0x7fc0_1234,
                0xffc0_0001,
                0x7f80_0001,
                0xff80_0abc,
            ];
            let mut v: Vec<f32> = nans.into_iter().map(f32::from_bits).collect();
            let one = 1.0f32;
            v.extend([0.0, -0.0, f32::from_bits(1), -f32::from_bits(0x007f_ffff)]);
            v.extend([f32::MIN_POSITIVE, one, -one, 2.0, -2.0, 0.5, 1e30, -1e30]);
            v.extend([
                f32::from_bits(one.to_bits() + 1),
                f32::from_bits(one.to_bits() - 1),
            ]);
            if inf {
                v.extend([f32::INFINITY, f32::NEG_INFINITY]);
            }
            row(v)
        };
        let ties = |qmax: f32| {
            let mut v = vec![qmax / 8.0, -qmax / 8.0];
            let halves = (0..31).map(|k| k as f32 + 0.5).filter(|&t| t < qmax);
            v.extend(halves.flat_map(|t| [t / 8.0, -t / 8.0]));
            v.resize(64, 0.0);
            v
        };
        let (qw, qa) = (((1u64 << (bits - 1)) - 1).max(1), (1u64 << bits) - 1);
        [
            [specials(true), specials(false)].concat(),
            [ties(qw as f32), ties(qa as f32)].concat(),
        ]
    }

    /// The fake-quant (tensor and in-place) paths round through the
    /// libm-free routine and clamp by compare-select; the formulas they
    /// replaced, with libm `round` and `f32::clamp`, are the oracle — on
    /// bits, `-0.0` and NaN included.
    #[test]
    fn fake_quant_tensor_path_matches_the_libm_formulas_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x7E45);
        let mut corpus = rounding_corpus();
        corpus.extend((0..4096 - corpus.len() % 4096).map(|_| rng.gen_range(-3.0f32..3.0)));
        let fold = |x: &[f32]| x.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        for bits in [1u8, 2, 4, 8, 12, 16, 22, 23, 31] {
            let b = BitWidth::new(bits);
            let [specials, ties] = clamp_corpus(bits);
            for values in [corpus.clone(), specials, ties] {
                let same = |what: &str, got: &[f32], want: &[f32]| {
                    for (i, (a, b)) in got.iter().zip(want).enumerate() {
                        assert!(
                            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                            "{what} {bits}b [{i}] of {:e}: {a:e} vs {b:e}",
                            values[i]
                        );
                    }
                };
                let rows = values.len() / 64;
                for dims in [vec![values.len()], vec![rows, 64]] {
                    let per = values.len() / if dims.len() == 1 { 1 } else { rows };
                    let w = Tensor::from_vec(dims, values.clone());
                    let qmax = ((1u64 << (bits - 1)) - 1).max(1) as f32;
                    let want: Vec<f32> = values
                        .chunks(per)
                        .flat_map(|row| {
                            let s = fold(row).max(1e-8) / qmax;
                            row.iter()
                                .map(move |&v| (v / s).round().clamp(-qmax, qmax) * s)
                        })
                        .collect();
                    let got = Quantizer::Sbm.quantize_weights_tensor(&w, b);
                    same("sbm weights", got.data(), &want);
                }
                let x = Tensor::from_vec(vec![values.len()], values.clone());
                let n = ((1u64 << bits) - 1) as f32;
                let tmax = fold(&values).tanh().max(1e-8);
                let want: Vec<f32> = values
                    .iter()
                    .map(|&v| {
                        let c = if bits <= 4 {
                            let edge = |c: u64| {
                                let y = ((c as f32 - 0.5) / n - 0.5) * (2.0 * tmax);
                                y.clamp(-0.999_999, 0.999_999).atanh()
                            };
                            (1..1u64 << bits).filter(|&c| v >= edge(c)).count() as i32
                        } else {
                            ((v.tanh() * (0.5 / tmax) + 0.5) * n).round().clamp(0.0, n) as i32
                        };
                        2.0 * (c as f32 / n) - 1.0
                    })
                    .collect();
                let got = Quantizer::Dorefa.quantize_weights_tensor(&x, b);
                same("dorefa weights", got.data(), &want);
                let s = fold(&values).max(1e-8) / n;
                let sbm: Vec<f32> = values
                    .iter()
                    .map(|&v| (v / s).round().clamp(-n, n) * s)
                    .collect();
                let dorefa: Vec<f32> = values
                    .iter()
                    .map(|&v| (v.clamp(0.0, 1.0) * n).round() / n)
                    .collect();
                for (q, want) in [(Quantizer::Sbm, sbm), (Quantizer::Dorefa, dorefa)] {
                    same(
                        "activations",
                        q.quantize_activations_tensor(&x, b).data(),
                        &want,
                    );
                    let mut got = values.clone();
                    q.quantize_activations_in_place(&mut got, b);
                    same("in place", &got, &want);
                }
            }
        }
    }

    /// The pre-vectorisation emission rules, kept as the oracle: libm
    /// `round`, clamp after rounding.
    fn reference_codes(q: Quantizer, x: &[f32], bits: u8) -> (Vec<i32>, f32) {
        let qmax = ((1u64 << bits) - 1) as f32;
        match q {
            Quantizer::Dorefa => (
                x.iter()
                    .map(|&v| (v.clamp(0.0, 1.0) * qmax).round() as i32)
                    .collect(),
                1.0 / qmax,
            ),
            Quantizer::Sbm => {
                let max = x.iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-8);
                let s = max / qmax;
                (
                    x.iter()
                        .map(|&v| (v / s).round().clamp(-qmax, qmax) as i32)
                        .collect(),
                    s,
                )
            }
            Quantizer::Identity => unreachable!(),
        }
    }

    #[test]
    fn code_emission_matches_reference_in_every_lane_at_every_width() {
        fn lane<L: CodeLane + Default + PartialEq + std::fmt::Debug>(
            q: Quantizer,
            x: &[f32],
            bits: u8,
            want: &[i32],
            scale: f32,
        ) {
            let mut out = vec![L::default(); x.len()];
            let s = q
                .activation_codes_into(x, BitWidth::new(bits), &mut out)
                .unwrap();
            assert_eq!(s.to_bits(), scale.to_bits(), "{q:?} {bits}b scale");
            for (j, (o, &c)) in out.iter().zip(want).enumerate() {
                assert_eq!(*o, L::from_code(c), "{q:?} {bits}b x[{j}] = {:e}", x[j]);
            }
        }
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        // Every width the integer engine packs, plus both sides of the
        // switch between the two rounding routines.
        for bits in (1u8..=16).chain([SMALL_GRID_BITS, SMALL_GRID_BITS + 1]) {
            let qmax = ((1u64 << bits) - 1) as f32;
            // Code-space boundaries mapped back to input space with a
            // power-of-two step: the slice's max is exactly `qmax · step`,
            // so the SBM scale is exactly `step` and `v / s` lands on
            // every tie exactly.
            let step = 0.03125f32;
            let mut finite: Vec<f32> = rounding_corpus()
                .into_iter()
                .filter(|v| v.abs() <= qmax || v.is_nan())
                .chain([qmax, -qmax, qmax * (1.0 - f32::EPSILON)])
                .map(|v| v * step)
                .collect();
            finite.extend((0..500).map(|_| rng.gen_range(-qmax * step..qmax * step)));
            // `±qmax·(1+ε)` nudges the scale off the power of two, so
            // quotients straddle the clamp bound.
            let mut over = finite.clone();
            over.extend([qmax * (1.0 + f32::EPSILON) * step, -qmax * step]);
            // DoReFa's grid lives on [0, 1]: the same corpus in units of
            // one code step, ties included.
            let unit: Vec<f32> = finite.iter().map(|&v| v / (step * qmax)).collect();
            // A non-finite input poisons the SBM scale; codes must still
            // follow the reference (NaN → 0).
            let mut poisoned = finite.clone();
            poisoned.extend([f32::INFINITY, f32::NEG_INFINITY]);
            for q in [Quantizer::Sbm, Quantizer::Dorefa] {
                for x in [&finite, &over, &unit, &poisoned] {
                    let (want, scale) = reference_codes(q, x, bits);
                    lane::<i32>(q, x, bits, &want, scale);
                    lane::<f32>(q, x, bits, &want, scale);
                    if bits <= 15 {
                        lane::<i16>(q, x, bits, &want, scale);
                    }
                    if bits <= 7 {
                        lane::<i8>(q, x, bits, &want, scale);
                    }
                    let ac = q.activation_codes(x, BitWidth::new(bits)).unwrap();
                    assert_eq!(ac.codes, want, "{q:?} {bits}b");
                    assert_eq!(ac.scale.to_bits(), scale.to_bits());
                    assert_eq!(ac.code_abs_max, qmax as i32);
                }
            }
        }
    }

    /// Every layout the engine emits into — `(group, pitch)` rows on both
    /// sides of [`EMIT_ROW`] and of the tile, one sample among `n` columns,
    /// padded frames, and the `[rows, cols] → [cols, rows]` transposition at
    /// row pitches with and without padding — against the contiguous emit,
    /// in lane `L`: the same code for every `x[p]` at its slot, nothing
    /// written anywhere else.
    fn layouts_match_contiguous<L>(q: Quantizer, bits: u8, untouched: L)
    where
        L: CodeLane + PartialEq + std::fmt::Debug,
    {
        let bw = BitWidth::new(bits);
        for len in [1usize, 5, 16, 64, 255, 256, 257, 700] {
            let x = random_tensor(len as u64, &[len]);
            let grid = q.activation_grid(x.data(), bw).unwrap();
            let mut want = vec![untouched; len];
            grid.emit(x.data(), &mut want, len, len);
            let codes = q.activation_codes(x.data(), bw).unwrap().codes;
            assert!(want.iter().zip(&codes).all(|(w, &c)| *w == L::from_code(c)));
            let mut layouts = Vec::new();
            for group in [1usize, 2, 3, 4, 7, 8, 9, 16, 17, 63, 64, 65, 100, 256, 300] {
                for pitch in [group, group + 2, 3 * group] {
                    layouts.push((group, pitch, 1));
                }
            }
            // `x` as `[rows, cols]`, transposed: lanes of a row `pitch` apart.
            for cols in [1usize, 2, 4, 5, 16, 64, 100, 255, 256, 257, 300] {
                let rows = len.div_ceil(cols);
                layouts.extend([(cols, 1, rows), (cols, 1, rows + 3)]);
            }
            for (group, pitch, step) in layouts {
                let at = |p: usize| p / group * pitch + p % group * step;
                // One leading slot, as when a sample lands among others.
                let mut out = vec![untouched; (0..len).map(at).max().unwrap() + 2];
                grid.emit_strided(x.data(), &mut out[1..], group, pitch, step);
                let ctx = format!("{q:?} {bits}b len {len} layout ({group}, {pitch}, {step})");
                for (p, w) in want.iter().enumerate() {
                    assert_eq!(out[1 + at(p)], *w, "{ctx}: x[{p}]");
                }
                let written = out.iter().filter(|&&c| c != untouched).count();
                assert_eq!(written, len, "{ctx}: nothing outside the layout's slots");
            }
        }
    }

    #[test]
    fn grid_emits_the_same_codes_into_any_layout() {
        for q in [Quantizer::Sbm, Quantizer::Dorefa] {
            for bits in [2u8, 4, 8, 16] {
                // Sentinels no code can take: below every lane's grid.
                layouts_match_contiguous::<i32>(q, bits, i32::MIN);
                layouts_match_contiguous::<f32>(q, bits, f32::MIN);
                if bits <= 15 {
                    layouts_match_contiguous::<i16>(q, bits, i16::MIN);
                }
                if bits <= 7 {
                    layouts_match_contiguous::<i8>(q, bits, i8::MIN);
                }
            }
            // The cast-rounding routine scatters through the same loops.
            layouts_match_contiguous::<i32>(q, SMALL_GRID_BITS + 1, i32::MIN);
        }
        let grid = Quantizer::Sbm.activation_grid(&[1.0; 6], BitWidth::new(4));
        let short = std::panic::catch_unwind(|| {
            grid.unwrap()
                .emit_strided(&[1.0; 6], &mut [0i32; 8], 3, 1, 4);
        });
        assert!(short.is_err(), "the farthest code must fit");
        assert!(Quantizer::Identity
            .activation_grid(&[1.0], BitWidth::new(4))
            .is_none());
        assert!(Quantizer::Sbm
            .activation_grid(&[1.0], BitWidth::FULL)
            .is_none());
    }

    /// The integer-bits max-abs against the `f32::max` fold it replaces, on
    /// bits: NaN of either sign and any payload, ±inf, ±0.0, subnormals and
    /// the rounding corpus, at every length around its 32-lane body.
    #[test]
    fn max_abs_equals_the_f32_max_fold_bit_for_bit() {
        let fold = |x: &[f32]| x.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let mut rng = StdRng::seed_from_u64(0x3A);
        let specials = [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001),
            f32::from_bits(0xffc0_1234),
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::MIN_POSITIVE,
            f32::MAX,
        ];
        let mut pool = rounding_corpus();
        pool.extend(specials);
        for len in (0..=67).chain([96, 255, 1000]) {
            for _ in 0..20 {
                let x: Vec<f32> = (0..len)
                    .map(|_| pool[rng.gen_range(0..pool.len())])
                    .collect();
                assert_eq!(max_abs(&x).to_bits(), fold(&x).to_bits(), "{x:?}");
            }
        }
        for v in pool {
            for x in [vec![v], vec![-0.0, v], vec![v; 40]] {
                assert_eq!(max_abs(&x).to_bits(), fold(&x).to_bits(), "{v:e}");
            }
        }
    }

    #[test]
    fn in_place_activation_quantization_matches_the_tensor_path_bit_for_bit() {
        let x = random_tensor(77, &[3, 41]);
        for q in [Quantizer::Identity, Quantizer::Sbm, Quantizer::Dorefa] {
            for bits in [2u8, 4, 8, 16, 24, 32] {
                let bw = BitWidth::new(bits);
                let want = q.quantize_activations_tensor(&x, bw);
                let mut got = x.clone();
                q.quantize_activations_in_place(got.data_mut(), bw);
                for (a, b) in got.data().iter().zip(want.data()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{q:?} {bits}b");
                }
            }
        }
    }

    #[test]
    fn codes_absent_for_identity_and_full_precision() {
        let w = random_tensor(10, &[4, 4]);
        assert!(Quantizer::Identity
            .weight_codes(&w, BitWidth::new(4))
            .is_none());
        assert!(Quantizer::Sbm.weight_codes(&w, BitWidth::FULL).is_none());
        assert!(Quantizer::Sbm
            .activation_codes(w.data(), BitWidth::FULL)
            .is_none());
    }

    proptest! {
        #[test]
        fn prop_sbm_weights_never_exceed_input_range(
            seed in 0u64..1000, bits in 2u8..12
        ) {
            let w = random_tensor(seed, &[4, 8]);
            let q = Quantizer::Sbm.quantize_weights_tensor(&w, BitWidth::new(bits));
            prop_assert!(q.max_abs() <= w.max_abs() + 1e-5);
        }

        #[test]
        fn prop_dorefa_level_count_bounded(seed in 0u64..500, bits in 2u8..6) {
            let x = random_tensor(seed, &[64]);
            let q = Quantizer::Dorefa.quantize_activations_tensor(&x, BitWidth::new(bits));
            let mut levels: Vec<i64> = q
                .data()
                .iter()
                .map(|&v| (v * (((1u64 << bits) - 1) as f32)).round() as i64)
                .collect();
            levels.sort_unstable();
            levels.dedup();
            prop_assert!(levels.len() as u64 <= (1u64 << bits));
        }

        #[test]
        fn prop_quantization_error_shrinks_with_bits(seed in 0u64..200) {
            let w = random_tensor(seed, &[8, 8]);
            let q = Quantizer::Sbm;
            let lo = q.weight_error(&w, BitWidth::new(3));
            let hi = q.weight_error(&w, BitWidth::new(10));
            prop_assert!(hi <= lo + 1e-9);
        }
    }
}
