//! Quantized integer inference engine with zero-cost precision switching.
//!
//! The training stack executes "quantized" networks as f32 fake-quant:
//! every forward re-quantizes the shared weights onto an f32 grid and runs
//! full-precision matmul/conv, so a 4-bit model costs as much as a 32-bit
//! one and a bit-width switch pays a full re-quantization pass. This crate
//! delivers the paper's *instantaneous switching* claim at the execution
//! level:
//!
//! * [`PackedModel::prepack`] walks a module's inference plan
//!   ([`instantnet_nn::Module::plan_ops`]) and, **once per bit-width**,
//!   converts each layer's weights to integer codes — bit-packed signed
//!   nibbles for ≤ 4 bits, `i8` for 5–8, `i16` for 9–16 — with per-output-
//!   channel scale factors, folding `SwitchableBatchNorm` running
//!   statistics of the matching branch into the per-row scale and bias.
//! * A runtime bit-width switch ([`PackedModel::switch_to`]) just moves the
//!   active-network index into the prebuilt table: no per-element weight
//!   work (asserted by tests against [`PackedModel::pack_passes`]).
//! * The same pass lays weights out the way the kernels read them
//!   ([`KernelWeights`]): fused `u32` weight words for ≤ 8-bit layers on
//!   CPUs with a fused kernel, the decoded tap-major table for depthwise
//!   layers.
//!   A forward on those layers touches no weight-layout code at all; only
//!   the decode-then-multiply tier path (9–16-bit layers, and the portable
//!   fallback of fused layers) still decodes `Storage` rows as it goes.
//! * Forwards quantize activations to integer codes between layers with
//!   the exact SBM/DoReFa grids from `instantnet-quant` — a max-abs and
//!   one pass of codes, both in vector lanes, written straight into the
//!   operand the consuming kernel reads (its lane type and layout) — then run
//!   i32-accumulate (i64 for 9–16 bit) GEMM and im2col-conv kernels,
//!   row-parallel via `instantnet-parallel`. Integer accumulation is
//!   exact, so results are bit-identical at any thread count.
//! * Each layer's SIMD lanes follow its long axis, chosen from its geometry
//!   and the backend's lane count with no knob (the `route` module's rules,
//!   DESIGN.md §6c): depthwise layers vectorise over pixels where an output
//!   row fills a vector and over channels where it cannot, and a GEMM with
//!   fewer columns than one column block (a lone sample on a 2×2 map, a
//!   small-batch linear) dots along its reduction. Every orientation
//!   accumulates the same exact value. [`PackedModel::forward_profiled`]
//!   reports each executed op with the route it took.
//! * The hot reduction kernels run through a one-time runtime-dispatched
//!   backend table ([`mod@simd`]): explicit AVX2 kernels where the CPU
//!   supports them, portable scalar Rust everywhere else, overridable
//!   with `INSTANTNET_SIMD=scalar|avx2`. Both backends are bit-identical,
//!   so the dispatch choice is invisible to every serving layer.
//!
//! Dequantization uses the affine identity
//! `y[k][j] = sa · (A[k] · acc[k][j] + B[k] · colsum[j]) + bias[k]`
//! where `acc` is the integer dot product of weight and activation codes,
//! `colsum[j]` the per-column activation code sum, `A[k]` the weight scale
//! × BN scale, `B[k]` the weight zero-offset term (non-zero only for
//! DoReFa's `[0, n]` codes and the nibble/i8 re-centering bias), and `sa`
//! the per-tensor activation scale computed fresh each forward. The packed
//! path matches the f32 fake-quant reference within one quantization step
//! per element.

#![deny(unsafe_op_in_unsafe_fn)]

use instantnet_nn::checkpoint::CheckpointError;
use instantnet_nn::layers::Activation;
use instantnet_nn::plan::PlanOp;
use instantnet_nn::Module;
use instantnet_quant::{BitWidth, BitWidthSet, Quantizer};
use instantnet_tensor::Tensor;
use std::path::Path;
use std::sync::Arc;

mod exec;
mod pack;
mod route;
pub mod simd;

pub use simd::{
    active_simd_backend, avx2_available, emit_activation_codes, fused_gemm_enabled, neon_available,
    with_fused_gemm, with_simd_backend, EmitLane, Layout, SimdBackend,
};

/// Typed error for every fallible engine operation: plan compilation
/// ([`PackedModel::prepack`]), checkpoint restore
/// ([`PackedModel::from_checkpoint`]), bit-width selection
/// ([`PackedModel::switch_to`]) and input validation on the fallible
/// forward paths ([`PackedModel::try_forward_at`]). Serving layers match
/// on the variant to decide whether to fail a request, a batch, or the
/// whole deployment.
#[derive(Debug)]
pub enum InferError {
    /// The plan contains an op sequence the engine cannot execute (e.g. a
    /// batch-norm with no preceding convolution to fold into).
    Unsupported(String),
    /// Tensor shapes in the plan are inconsistent at pack time.
    Shape(String),
    /// Checkpoint restore failed in [`PackedModel::from_checkpoint`].
    Checkpoint(CheckpointError),
    /// A bit-width set index outside the packed table.
    BitIndex {
        /// The requested index.
        index: usize,
        /// Number of packed bit-widths.
        len: usize,
    },
    /// A bit-width value that is not in the packed set.
    BitWidth(BitWidth),
    /// A forward input that does not fit the packed network's first layer.
    Input(String),
}

impl std::fmt::Display for InferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InferError::Unsupported(msg) => write!(f, "unsupported plan: {msg}"),
            InferError::Shape(msg) => write!(f, "shape mismatch: {msg}"),
            InferError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            InferError::BitIndex { index, len } => {
                write!(
                    f,
                    "bit index {index} out of range (packed {len} bit-widths)"
                )
            }
            InferError::BitWidth(b) => {
                write!(f, "bit-width {b} is not in the packed model's set")
            }
            InferError::Input(msg) => write!(f, "invalid forward input: {msg}"),
        }
    }
}

impl std::error::Error for InferError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            InferError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for InferError {
    fn from(e: CheckpointError) -> Self {
        InferError::Checkpoint(e)
    }
}

/// Former name of [`InferError`], kept as an alias for existing callers.
pub type PackError = InferError;

/// Integer (or fallback f32) weight storage for one packed layer.
///
/// Integer variants hold *re-centered* codes `d = c - cb` where `cb` is
/// the mid-point of the quantizer's code range, so asymmetric DoReFa codes
/// (`[0, 2^b - 1]`) fit signed storage; the shift is folded into the
/// layer's column-sum coefficient.
#[derive(Debug, Clone)]
pub enum Storage {
    /// Two signed 4-bit codes per byte, rows padded to whole bytes.
    Nibble(Vec<u8>),
    /// One signed byte per code (5–8 bits).
    I8(Vec<i8>),
    /// One signed 16-bit word per code (9–16 bits).
    I16(Vec<i16>),
    /// Plain f32 weights: full precision, stem layers whose input is not
    /// quantized, or bit-widths above 16 (already fake-quantized values).
    /// Row-major `[rows, cols]`, except depthwise layers: tap-major
    /// `[r·s, channels]`, like [`KernelWeights::Taps`].
    F32(Vec<f32>),
}

impl Storage {
    /// Whether this layer runs the integer kernels.
    pub fn is_integer(&self) -> bool {
        !matches!(self, Storage::F32(_))
    }

    /// Bytes held by the packed weights.
    pub fn bytes(&self) -> usize {
        match self {
            Storage::Nibble(v) => v.len(),
            Storage::I8(v) => v.len(),
            Storage::I16(v) => 2 * v.len(),
            Storage::F32(v) => 4 * v.len(),
        }
    }

    /// Decodes one row of `cols` codes into `out`: the scalar backend's
    /// `decode_row_i32` (also the portable baseline the SIMD kernels are
    /// tested bit-identical against).
    ///
    /// # Panics
    ///
    /// Panics if called on [`Storage::F32`] (the f32 path never decodes).
    fn decode_row_scalar(&self, row: usize, cols: usize, out: &mut [i32]) {
        match self {
            Storage::Nibble(data) => {
                let stride = cols.div_ceil(2);
                let row_bytes = &data[row * stride..row * stride + stride];
                // Two sign-extended codes per byte, low nibble first.
                for (pair, &byte) in out[..cols].chunks_mut(2).zip(row_bytes) {
                    pair[0] = i32::from(((byte as i8) << 4) >> 4);
                    if let Some(hi) = pair.get_mut(1) {
                        *hi = i32::from((byte as i8) >> 4);
                    }
                }
            }
            Storage::I8(data) => {
                for (o, &v) in out.iter_mut().zip(&data[row * cols..(row + 1) * cols]) {
                    *o = i32::from(v);
                }
            }
            Storage::I16(data) => {
                for (o, &v) in out.iter_mut().zip(&data[row * cols..(row + 1) * cols]) {
                    *o = i32::from(v);
                }
            }
            Storage::F32(_) => panic!("decode_row on f32 storage"),
        }
    }

    /// Decodes one row of `cols` codes into f32 lanes (the exact-f32
    /// accumulation tier; every code is a small integer so the conversion
    /// is lossless): the scalar backend's `decode_row_f32`.
    ///
    /// # Panics
    ///
    /// Panics if called on [`Storage::F32`].
    fn decode_row_f32_scalar(&self, row: usize, cols: usize, out: &mut [f32]) {
        match self {
            Storage::Nibble(data) => {
                let stride = cols.div_ceil(2);
                let row_bytes = &data[row * stride..row * stride + stride];
                for (pair, &byte) in out[..cols].chunks_mut(2).zip(row_bytes) {
                    pair[0] = f32::from(((byte as i8) << 4) >> 4);
                    if let Some(hi) = pair.get_mut(1) {
                        *hi = f32::from((byte as i8) >> 4);
                    }
                }
            }
            Storage::I8(data) => {
                for (o, &v) in out.iter_mut().zip(&data[row * cols..(row + 1) * cols]) {
                    *o = f32::from(v);
                }
            }
            Storage::I16(data) => {
                for (o, &v) in out.iter_mut().zip(&data[row * cols..(row + 1) * cols]) {
                    *o = f32::from(v);
                }
            }
            Storage::F32(_) => panic!("decode_row_f32 on f32 storage"),
        }
    }
}

/// Accumulator type for a packed layer's integer GEMM, chosen at pack time
/// from the worst-case partial-sum bound `max|w_code| · max|a_code| · cols`.
///
/// All three tiers compute the *same exact integer*: f32 arithmetic on
/// integers below 2^24 is lossless (every product and partial sum is
/// exactly representable), so the `F32` tier — which vectorizes on every
/// target, unlike i32 multiplies on baseline x86-64 — is preferred
/// whenever the bound allows. Exact arithmetic is associative, keeping the
/// thread-count-determinism guarantee in all tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accum {
    /// Bound < 2^24: exact f32 lanes (all ≤ 8-bit layers in practice).
    F32,
    /// Bound ≤ i32::MAX / 2: native i32.
    I32,
    /// Anything wider (9–16-bit layers with long reductions).
    I64,
}

/// A packed weight matrix plus its affine dequantization parameters.
#[derive(Debug, Clone)]
pub struct PackedGemm {
    /// Output rows (conv filters across all groups / linear out features).
    pub rows: usize,
    /// Reduction length (conv `cg*r*s` / linear in features).
    pub cols: usize,
    /// Packed weight codes or fallback f32 values.
    pub storage: Storage,
    /// Per-row multiplier `A[k]` (weight scale × folded BN scale; the BN
    /// scale alone on the f32 path).
    pub scale: Vec<f32>,
    /// Per-row column-sum coefficient `B[k]` (weight offset terms × BN
    /// scale); all-zero for symmetric SBM codes.
    pub colsum_coef: Vec<f32>,
    /// Per-row additive bias (folded BN shift or linear bias).
    pub bias: Vec<f32>,
    /// Whether any `colsum_coef` entry is non-zero.
    pub has_offset: bool,
    /// Overflow-safe accumulator tier for this layer.
    pub accum: Accum,
    /// The weights in the layout the layer's kernel reads, built once at
    /// pack time.
    pub kernel: KernelWeights,
}

/// Kernel-layout weights derived from the quantizer's codes at pack time,
/// so a forward does no weight-layout work.
#[derive(Debug, Clone)]
pub enum KernelWeights {
    /// Nothing beyond [`PackedGemm::storage`]: the tier path decodes rows
    /// as it multiplies.
    Decode,
    /// Fused ≤ 8-bit GEMM words, `cols.div_ceil(group)` per row: four
    /// `w + 8` bytes (nibble storage) or two `i16` codes (i8 storage) per
    /// `u32`. Present when the shifted-code accumulation bound fits i32
    /// (`pack.rs`) *and* this CPU has a fused kernel; the scalar backend
    /// and [`with_fused_gemm`]`(false)` ignore them and decode `storage`.
    Words(Vec<u32>),
    /// Depthwise tap table: the re-centered codes, decoded and tap-major
    /// (`[r·s, channels]`, a tap's channels contiguous — what either SIMD
    /// orientation of the depthwise kernel reads), in the lane type of the
    /// layer's accumulator tier. Depthwise layers never read `storage` in a
    /// forward.
    Taps(Taps),
}

impl KernelWeights {
    /// Bytes held on top of the layer's [`Storage`].
    pub fn bytes(&self) -> usize {
        match self {
            KernelWeights::Decode => 0,
            KernelWeights::Words(w) => 4 * w.len(),
            KernelWeights::Taps(t) => 4 * t.len(),
        }
    }
}

/// A depthwise layer's decoded tap table ([`KernelWeights::Taps`]), in the
/// lanes its tier multiplies in: exact f32 for [`Accum::F32`] layers, i32
/// for the integer tiers — so a forward reads it in place.
#[derive(Debug, Clone, PartialEq)]
pub enum Taps {
    /// The [`Accum::I32`] / [`Accum::I64`] tiers' lanes.
    I32(Vec<i32>),
    /// The [`Accum::F32`] tier's lanes (every code exactly representable).
    F32(Vec<f32>),
}

impl Taps {
    /// Number of taps (`r·s·channels`).
    pub fn len(&self) -> usize {
        match self {
            Taps::I32(t) => t.len(),
            Taps::F32(t) => t.len(),
        }
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One executed op of [`PackedModel::forward_profiled`].
#[derive(Debug, Clone)]
pub struct OpProfile {
    /// `depthwise`, `pointwise`, `conv`, `linear`, `act`, `pool` or `add`
    /// (a residual's elementwise sum; its branches report op by op).
    pub kind: &'static str,
    /// The op's input dims, and for a GEMM layer ` -> ` its output rows,
    /// kernel, stride, padding and groups.
    pub shape: String,
    /// The arithmetic the op ran on the active backend and what its SIMD
    /// lanes held, `{arith}/{lanes}` (`FusedNibble/Reduction`,
    /// `Tier(F32)/Channels`, …); `f32` for the ops that have no kernel choice.
    pub route: String,
    /// Wall time of the op.
    pub elapsed: std::time::Duration,
    /// The part of [`Self::elapsed`] spent building the operand the kernel
    /// reads — activation grid, code emission, layout (`im2col` and
    /// interleave included) — rather than in the kernel and its dequant
    /// epilogue. Counted on the thread running the forward, so all of it on
    /// one kernel thread; zero for ops without a kernel.
    pub quantize: std::time::Duration,
}

/// Whether a conv is depthwise (one input channel and one filter per
/// group) — the shape `pack` builds a tap table for and `exec` convolves
/// plane by plane instead of through a patch matrix.
pub(crate) fn is_depthwise(cg: usize, filters: usize, groups: usize) -> bool {
    cg == 1 && filters == groups
}

/// One executable operation of a packed network.
#[derive(Debug, Clone)]
pub(crate) enum PackedOp {
    Conv {
        gemm: PackedGemm,
        cg: usize,
        r: usize,
        s: usize,
        stride: usize,
        pad: usize,
        groups: usize,
        quantize_input: bool,
    },
    Linear {
        gemm: PackedGemm,
    },
    Act(Activation),
    GlobalAvgPool,
    Residual {
        body: Vec<PackedOp>,
        shortcut: Vec<PackedOp>,
        post_relu: bool,
    },
}

/// The ops of one bit-width's prebuilt network.
#[derive(Debug, Clone)]
pub(crate) struct PackedNet {
    pub(crate) ops: Vec<PackedOp>,
    pub(crate) bits: BitWidth,
}

/// A network prepacked at every bit-width of a [`BitWidthSet`].
///
/// The per-bit-width packed tables are immutable after construction and
/// shared behind an [`Arc`], so `PackedModel::clone()` is O(1): a replica
/// clone bumps one reference count and copies only the mutable cursor
/// state (active index). Cloning never re-packs — [`Self::pack_passes`]
/// is constant across clones, and sharded serving relies on this to spin
/// up N replicas for free. Each clone switches bit-widths independently.
///
/// # Example
///
/// ```
/// use instantnet_infer::PackedModel;
/// use instantnet_nn::models;
/// use instantnet_quant::{BitWidthSet, Quantizer};
/// use instantnet_tensor::Tensor;
///
/// let bits = BitWidthSet::narrow_range();
/// let net = models::small_cnn(4, 10, (8, 8), bits.len(), 7);
/// let mut packed = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
/// let x = Tensor::zeros(&[1, 3, 8, 8]);
/// let y4 = packed.forward(&x); // lowest bit-width
/// packed.switch_to(bits.len() - 1).unwrap(); // instantaneous: no weight work
/// let y8 = packed.forward(&x);
/// assert_eq!(y4.dims(), y8.dims());
/// ```
#[derive(Clone)]
pub struct PackedModel {
    nets: Arc<Vec<PackedNet>>,
    set: BitWidthSet,
    quantizer: Quantizer,
    active: usize,
    pack_passes: usize,
}

impl PackedModel {
    /// Prepacks `module` at every bit-width of `set`.
    ///
    /// # Errors
    ///
    /// [`InferError::Unsupported`] if the module exposes no inference plan
    /// (e.g. PACT layers) or the plan contains an unfoldable op sequence;
    /// [`InferError::Shape`] on inconsistent tensor shapes.
    pub fn prepack(
        module: &dyn Module,
        set: &BitWidthSet,
        quantizer: Quantizer,
    ) -> Result<Self, InferError> {
        let plan = module
            .plan_ops()
            .ok_or_else(|| InferError::Unsupported("module exposes no inference plan".into()))?;
        Self::from_plan(&plan, set, quantizer)
    }

    /// Prepacks an explicit plan (useful for single-layer tests/benches).
    ///
    /// # Errors
    ///
    /// Same as [`Self::prepack`].
    pub fn from_plan(
        plan: &[PlanOp],
        set: &BitWidthSet,
        quantizer: Quantizer,
    ) -> Result<Self, InferError> {
        let mut pack_passes = 0usize;
        let mut nets = Vec::with_capacity(set.len());
        for (i, &b) in set.widths().iter().enumerate() {
            let ops = pack::pack_plan(plan, i, b, quantizer, &mut pack_passes)?;
            nets.push(PackedNet { ops, bits: b });
        }
        Ok(PackedModel {
            nets: Arc::new(nets),
            set: set.clone(),
            quantizer,
            active: 0,
            pack_passes,
        })
    }

    /// Restores `module` from a checkpoint (parameters *and* BN running
    /// statistics), then prepacks it — the deployment path: train, save,
    /// load on device, pack once, switch freely.
    ///
    /// # Errors
    ///
    /// Checkpoint I/O and format errors surface as
    /// [`InferError::Checkpoint`]; packing errors as in [`Self::prepack`].
    pub fn from_checkpoint(
        module: &dyn Module,
        path: impl AsRef<Path>,
        set: &BitWidthSet,
        quantizer: Quantizer,
    ) -> Result<Self, InferError> {
        instantnet_nn::checkpoint::load(module, path).map_err(InferError::Checkpoint)?;
        Self::prepack(module, set, quantizer)
    }

    /// Switches the active bit-width by set index — a pointer swap into
    /// the prebuilt table; performs no per-element weight work.
    ///
    /// # Errors
    ///
    /// [`InferError::BitIndex`] if `index` is out of range (the model is
    /// left unchanged).
    pub fn switch_to(&mut self, index: usize) -> Result<(), InferError> {
        if index >= self.nets.len() {
            return Err(InferError::BitIndex {
                index,
                len: self.nets.len(),
            });
        }
        self.active = index;
        Ok(())
    }

    /// Switches by bit-width value; returns whether it was in the set —
    /// the `bool` convenience twin of [`Self::try_switch_to_bits`].
    pub fn switch_to_bits(&mut self, bits: BitWidth) -> bool {
        self.try_switch_to_bits(bits).is_ok()
    }

    /// Switches by bit-width value.
    ///
    /// # Errors
    ///
    /// [`InferError::BitWidth`] if `bits` is not in the packed set (the
    /// model is left unchanged).
    pub fn try_switch_to_bits(&mut self, bits: BitWidth) -> Result<(), InferError> {
        match self.set.index_of(bits) {
            Some(i) => {
                self.active = i;
                Ok(())
            }
            None => Err(InferError::BitWidth(bits)),
        }
    }

    /// Index of the active bit-width.
    pub fn active_index(&self) -> usize {
        self.active
    }

    /// The active bit-width.
    pub fn active_bits(&self) -> BitWidth {
        self.nets[self.active].bits
    }

    /// The candidate set this model was packed for.
    pub fn bit_widths(&self) -> &BitWidthSet {
        &self.set
    }

    /// The quantization rule the model was packed with.
    pub fn quantizer(&self) -> Quantizer {
        self.quantizer
    }

    /// Number of per-element weight packing passes performed so far.
    /// Monotone; constant after construction — switching, forwards, and
    /// cloning never repack (the zero-cost-switch guarantee tests pin).
    pub fn pack_passes(&self) -> usize {
        self.pack_passes
    }

    /// Whether two models share the same underlying packed weight tables
    /// (i.e. one is a clone of the other). Replica clones in sharded
    /// serving share tables by construction; independently packed models
    /// never do.
    pub fn shares_packed_tables(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.nets, &other.nets)
    }

    /// Total bytes of packed weights across all bit-widths: the storage
    /// codes plus the kernel-layout copies built beside them.
    pub fn packed_bytes(&self) -> usize {
        fn op_bytes(op: &PackedOp) -> usize {
            match op {
                PackedOp::Conv { gemm, .. } | PackedOp::Linear { gemm } => {
                    gemm.storage.bytes() + gemm.kernel.bytes()
                }
                PackedOp::Residual { body, shortcut, .. } => {
                    body.iter().map(op_bytes).sum::<usize>()
                        + shortcut.iter().map(op_bytes).sum::<usize>()
                }
                _ => 0,
            }
        }
        self.nets
            .iter()
            .map(|n| n.ops.iter().map(op_bytes).sum::<usize>())
            .sum()
    }

    /// Validates that `index` addresses a packed net and `x` fits its
    /// first shape-consuming layer — the checks the fallible forward paths
    /// run so malformed serving inputs surface as [`InferError`] instead
    /// of a panic deep inside a kernel.
    fn validate_input(&self, index: usize, x: &Tensor) -> Result<(), InferError> {
        if index >= self.nets.len() {
            return Err(InferError::BitIndex {
                index,
                len: self.nets.len(),
            });
        }
        let dims = x.dims();
        if dims.is_empty() || dims[0] == 0 {
            return Err(InferError::Input(format!(
                "input must have a non-empty batch dimension, got {dims:?}"
            )));
        }
        validate_ops_input(&self.nets[index].ops, dims)
    }

    /// The activation rule of net `index` at scale granularity `aq`.
    fn rule(&self, index: usize, aq: exec::ActQuant) -> exec::ActRule {
        exec::ActRule {
            bits: self.nets[index].bits,
            quantizer: self.quantizer,
            aq,
        }
    }

    /// Runs the packed network at the active bit-width.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.forward_at(self.active, x)
    }

    /// [`Self::forward`] with input validation instead of panics.
    ///
    /// # Errors
    ///
    /// [`InferError::Input`] when `x` does not fit the first layer.
    pub fn try_forward(&self, x: &Tensor) -> Result<Tensor, InferError> {
        self.try_forward_at(self.active, x)
    }

    /// Runs the packed network at an explicit bit-width index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or the input shape does not fit
    /// the first layer ([`Self::try_forward_at`] is the fallible twin).
    pub fn forward_at(&self, index: usize, x: &Tensor) -> Tensor {
        match self.try_forward_at(index, x) {
            Ok(y) => y,
            Err(e) => panic!("forward_at: {e}"),
        }
    }

    /// [`Self::forward_at`] with input validation instead of panics.
    ///
    /// # Errors
    ///
    /// [`InferError::BitIndex`] for an out-of-range index,
    /// [`InferError::Input`] when `x` does not fit the first layer.
    pub fn try_forward_at(&self, index: usize, x: &Tensor) -> Result<Tensor, InferError> {
        self.validate_input(index, x)?;
        let rule = self.rule(index, exec::ActQuant::PerBatch);
        Ok(exec::exec_ops(&self.nets[index].ops, x, rule, None))
    }

    /// Runs an aggregated request batch at the active bit-width — the
    /// serving entry point. See [`Self::forward_batch_at`].
    pub fn forward_batch(&self, x: &Tensor) -> Tensor {
        self.forward_batch_at(self.active, x)
    }

    /// [`Self::forward_batch`] with input validation instead of panics.
    ///
    /// # Errors
    ///
    /// [`InferError::Input`] when `x` does not fit the first layer.
    pub fn try_forward_batch(&self, x: &Tensor) -> Result<Tensor, InferError> {
        self.try_forward_batch_at(self.active, x)
    }

    /// Runs an aggregated request batch at an explicit bit-width index.
    ///
    /// Unlike [`Self::forward_at`], which quantizes activations with one
    /// scale across the whole tensor (the fake-quant training semantics),
    /// this path computes activation scales **per dim-0 sample**. Combined
    /// with the exact accumulator tiers, that makes each sample's output
    /// bit-identical to a batch-of-one forward of that sample — requests
    /// aggregated by the serving queue cannot observe their batch-mates,
    /// at any bit-width and any thread count. The batch is a column
    /// dimension of every GEMM: a conv unfolds all samples into one
    /// `[cg·r·s, n·oh·ow]` patch matrix per group (blocks of whole samples
    /// once that outgrows L1), a linear quantizes them straight into its
    /// `[features, n]` operand, and each weight row — read in its
    /// pack-time kernel layout — meets all of those columns in one kernel
    /// call; the parallel split is over weight rows (over sample blocks
    /// where a batch takes several, over planes for depthwise layers).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or the input shape does not fit
    /// the first layer ([`Self::try_forward_batch_at`] is the fallible
    /// twin).
    pub fn forward_batch_at(&self, index: usize, x: &Tensor) -> Tensor {
        match self.try_forward_batch_at(index, x) {
            Ok(y) => y,
            Err(e) => panic!("forward_batch_at: {e}"),
        }
    }

    /// [`Self::forward_batch_at`] with input validation instead of panics.
    ///
    /// # Errors
    ///
    /// [`InferError::BitIndex`] for an out-of-range index,
    /// [`InferError::Input`] when `x` does not fit the first layer.
    pub fn try_forward_batch_at(&self, index: usize, x: &Tensor) -> Result<Tensor, InferError> {
        self.validate_input(index, x)?;
        let rule = self.rule(index, exec::ActQuant::PerSample);
        Ok(exec::exec_ops(&self.nets[index].ops, x, rule, None))
    }

    /// [`Self::forward_batch_at`], reporting every op it executes to `sink`
    /// as the op finishes: kind, shape, route and elapsed time (the per-op
    /// table of EXPERIMENTS.md as a command — `examples/forward_profile.rs`
    /// prints it). The same code path with a clock read around each op:
    /// the output is bit-identical, and the unprofiled forwards read no
    /// clock at all.
    ///
    /// # Panics
    ///
    /// As [`Self::forward_batch_at`].
    pub fn forward_profiled(
        &self,
        index: usize,
        x: &Tensor,
        sink: &mut dyn FnMut(OpProfile),
    ) -> Tensor {
        if let Err(e) = self.validate_input(index, x) {
            panic!("forward_profiled: {e}");
        }
        let rule = self.rule(index, exec::ActQuant::PerSample);
        exec::exec_ops(&self.nets[index].ops, x, rule, Some(sink))
    }
}

/// Checks `dims` against the first shape-consuming op of `ops` (skipping
/// pure activations, recursing into residual bodies). Later layers consume
/// shapes the plan itself produced, so validating the entry contract is
/// sufficient to keep kernels off their panic paths.
fn validate_ops_input(ops: &[PackedOp], dims: &[usize]) -> Result<(), InferError> {
    for op in ops {
        match op {
            PackedOp::Act(_) => continue,
            PackedOp::Residual { body, .. } => return validate_ops_input(body, dims),
            PackedOp::Conv {
                gemm,
                cg,
                r,
                s,
                stride,
                pad,
                groups,
                ..
            } => {
                if dims.len() != 4 {
                    return Err(InferError::Input(format!(
                        "conv input must be rank 4 [n, c, h, w], got {dims:?}"
                    )));
                }
                let (c, h, w) = (dims[1], dims[2], dims[3]);
                if c != cg * groups {
                    return Err(InferError::Input(format!(
                        "conv expects {} input channels ({cg} per group × {groups} groups), got {c}",
                        cg * groups
                    )));
                }
                if h + 2 * pad < *r || w + 2 * pad < *s {
                    return Err(InferError::Input(format!(
                        "padded input {h}×{w} (pad {pad}) is smaller than the {r}×{s} kernel"
                    )));
                }
                let _ = (gemm, stride);
                return Ok(());
            }
            PackedOp::Linear { gemm } => {
                if dims.len() != 2 {
                    return Err(InferError::Input(format!(
                        "linear input must be rank 2 [n, features], got {dims:?}"
                    )));
                }
                if dims[1] != gemm.cols {
                    return Err(InferError::Input(format!(
                        "linear expects {} input features, got {}",
                        gemm.cols, dims[1]
                    )));
                }
                return Ok(());
            }
            PackedOp::GlobalAvgPool => {
                if dims.len() != 4 {
                    return Err(InferError::Input(format!(
                        "global average pool input must be rank 4, got {dims:?}"
                    )));
                }
                return Ok(());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use instantnet_nn::{checkpoint, models};

    #[test]
    fn from_checkpoint_matches_prepack_of_source() {
        let bits = BitWidthSet::narrow_range();
        let net = models::small_cnn(4, 6, (8, 8), bits.len(), 11);
        let path = std::env::temp_dir().join(format!(
            "instantnet_infer_ckpt_{}_{:p}.bin",
            std::process::id(),
            &bits
        ));
        checkpoint::save(&net, &path).unwrap();

        // A differently-seeded clone restored from the checkpoint must pack
        // to the same model as the source (parameters and BN buffers both
        // travel through the file).
        let restored = models::small_cnn(4, 6, (8, 8), bits.len(), 99);
        let packed_src = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
        let packed_ckpt =
            PackedModel::from_checkpoint(&restored, &path, &bits, Quantizer::Sbm).unwrap();
        std::fs::remove_file(&path).unwrap();

        let x = Tensor::from_vec(
            vec![2, 3, 8, 8],
            (0..2 * 3 * 8 * 8)
                .map(|i| ((i * 37 % 101) as f32) / 50.5 - 1.0)
                .collect(),
        );
        for i in 0..bits.len() {
            let a = packed_src.forward_at(i, &x);
            let b = packed_ckpt.forward_at(i, &x);
            assert_eq!(a.data(), b.data(), "bit index {i}");
        }
    }

    #[test]
    fn from_checkpoint_surfaces_corruption_as_typed_error() {
        let bits = BitWidthSet::narrow_range();
        let net = models::small_cnn(4, 6, (8, 8), bits.len(), 11);
        let path = std::env::temp_dir().join(format!(
            "instantnet_infer_corrupt_{}_{:p}.bin",
            std::process::id(),
            &bits
        ));
        checkpoint::save(&net, &path).unwrap();
        // Flip one bit in the tensor-data tail: the structure still parses,
        // so only the per-section CRC32 can reject the file.
        let mut bytes = std::fs::read(&path).unwrap();
        let victim = bytes.len() - 6;
        bytes[victim] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        let err = match PackedModel::from_checkpoint(&net, &path, &bits, Quantizer::Sbm) {
            Ok(_) => panic!("corrupt checkpoint must not load"),
            Err(e) => e,
        };
        std::fs::remove_file(&path).unwrap();
        assert!(
            matches!(
                err,
                InferError::Checkpoint(instantnet_nn::checkpoint::CheckpointError::Corrupt(_))
            ),
            "expected typed corruption error, got: {err}"
        );
    }

    #[test]
    fn switching_and_forwards_perform_no_weight_work() {
        let bits = BitWidthSet::large_range();
        let net = models::small_cnn(4, 6, (8, 8), bits.len(), 3);
        let mut packed = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
        // small_cnn has three GEMM layers (two convs + classifier), each
        // packed exactly once per bit-width.
        assert_eq!(packed.pack_passes(), 3 * bits.len());

        let x = Tensor::zeros(&[1, 3, 8, 8]);
        let before = packed.pack_passes();
        for i in (0..bits.len()).rev() {
            packed.switch_to(i).unwrap();
            assert_eq!(packed.active_index(), i);
            let _ = packed.forward(&x);
        }
        assert!(packed.switch_to_bits(bits.widths()[0]));
        let _ = packed.forward(&x);
        assert_eq!(packed.pack_passes(), before, "switching must not repack");
    }

    #[test]
    fn clone_shares_packed_tables_and_never_repacks() {
        let bits = BitWidthSet::large_range();
        let net = models::small_cnn(4, 6, (8, 8), bits.len(), 5);
        let packed = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
        let passes = packed.pack_passes();

        // Replica clones share the immutable packed tables (one refcount
        // bump, no per-element weight work) and report the same pack count.
        let mut replica = packed.clone();
        assert!(packed.shares_packed_tables(&replica));
        assert_eq!(replica.pack_passes(), passes);
        assert_eq!(packed.pack_passes(), passes);

        // Each clone switches independently…
        replica.switch_to(bits.len() - 1).unwrap();
        assert_eq!(packed.active_index(), 0);
        assert_eq!(replica.active_index(), bits.len() - 1);

        // …and forwards are bit-identical to the original at every width.
        let x = Tensor::from_vec(
            vec![2, 3, 8, 8],
            (0..2 * 3 * 8 * 8)
                .map(|i| ((i * 29 % 97) as f32) / 48.5 - 1.0)
                .collect(),
        );
        for i in 0..bits.len() {
            assert_eq!(
                packed.forward_batch_at(i, &x).data(),
                replica.forward_batch_at(i, &x).data(),
                "bit index {i}"
            );
        }
        assert_eq!(packed.pack_passes(), passes, "cloning must not repack");
        assert_eq!(replica.pack_passes(), passes);

        // Independently packed models do not share tables.
        let other = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
        assert!(!packed.shares_packed_tables(&other));
    }

    /// Every GEMM of every packed net, residual branches flattened.
    fn gemms(ops: &[PackedOp]) -> Vec<(&PackedGemm, bool)> {
        ops.iter()
            .flat_map(|op| match op {
                PackedOp::Conv {
                    gemm, cg, groups, ..
                } => vec![(gemm, is_depthwise(*cg, gemm.rows, *groups))],
                PackedOp::Linear { gemm } => vec![(gemm, false)],
                PackedOp::Residual { body, shortcut, .. } => {
                    [gemms(body), gemms(shortcut)].concat()
                }
                _ => Vec::new(),
            })
            .collect()
    }

    /// The kernel-layout weights are built once, at pack time, in exactly
    /// the layout the kernels read — re-derived here the slow way from
    /// the decoded storage rows — and `packed_bytes` counts them.
    #[test]
    fn kernel_layout_weights_are_built_at_pack_time() {
        let bits = BitWidthSet::large_range();
        let net = models::mobilenet_v2(0.25, 2, 10, (16, 16), bits.len(), 9);
        for q in [Quantizer::Sbm, Quantizer::Dorefa] {
            let packed = PackedModel::prepack(&net, &bits, q).unwrap();
            let can_fuse = avx2_available() || neon_available();
            let (mut bytes, mut words, mut taps) = (0usize, 0usize, 0usize);
            for net in packed.nets.iter() {
                for (g, depthwise) in gemms(&net.ops) {
                    bytes += g.storage.bytes() + g.kernel.bytes();
                    if !g.storage.is_integer() {
                        assert!(matches!(g.kernel, KernelWeights::Decode));
                        continue;
                    }
                    let mut d = vec![0i32; g.rows * g.cols];
                    for (row, out) in d.chunks_mut(g.cols).enumerate() {
                        g.storage.decode_row_scalar(row, g.cols, out);
                    }
                    let nibble = matches!(g.storage, Storage::Nibble(_));
                    match &g.kernel {
                        KernelWeights::Taps(t) => {
                            assert!(depthwise);
                            let want: Vec<i32> = (0..g.cols)
                                .flat_map(|tap| d.iter().skip(tap).step_by(g.cols).copied())
                                .collect();
                            // In the lanes of the layer's tier: f32 where it
                            // accumulates in f32, i32 otherwise.
                            let want = if g.accum == Accum::F32 {
                                Taps::F32(want.iter().map(|&c| c as f32).collect())
                            } else {
                                Taps::I32(want)
                            };
                            assert_eq!(t, &want, "taps are the decoded codes, tap-major");
                            taps += 1;
                        }
                        KernelWeights::Words(w) => {
                            assert!(can_fuse && !depthwise && net.bits.get() <= 8);
                            let want: Vec<u32> = d
                                .chunks(g.cols)
                                .flat_map(|row| row.chunks(if nibble { 4 } else { 2 }))
                                .map(|lanes| {
                                    let mut word = 0u32;
                                    for (k, &c) in lanes.iter().enumerate() {
                                        word |= if nibble {
                                            u32::from((c + 8) as u8) << (8 * k)
                                        } else {
                                            u32::from(c as i16 as u16) << (16 * k)
                                        };
                                    }
                                    word
                                })
                                .collect();
                            assert_eq!(w, &want, "{q:?} @ {}: fused words", net.bits);
                            words += 1;
                        }
                        KernelWeights::Decode => {
                            assert!(!depthwise && (net.bits.get() > 8 || !can_fuse));
                        }
                    }
                }
            }
            assert_eq!(packed.packed_bytes(), bytes);
            assert!(taps > 0, "the model has depthwise layers");
            assert_eq!(words > 0, can_fuse, "words exist iff the CPU can fuse");
        }
    }

    #[test]
    fn nibble_roundtrip_all_signed_values() {
        // Pack every signed nibble value over an odd column count (row
        // padding exercised), decode, compare.
        let cols = 5;
        let codes: Vec<i32> = (-8..8).collect(); // 16 values
        let rows = codes.len().div_ceil(cols);
        let mut padded = codes.clone();
        padded.resize(rows * cols, 0);
        let stride = cols.div_ceil(2);
        let mut data = vec![0u8; rows * stride];
        for (e, &d) in padded.iter().enumerate() {
            let (row, j) = (e / cols, e % cols);
            let nib = (d as u8) & 0xF;
            let slot = &mut data[row * stride + j / 2];
            *slot |= if j % 2 == 0 { nib } else { nib << 4 };
        }
        let storage = Storage::Nibble(data);
        let mut out = vec![0i32; cols];
        for row in 0..rows {
            (simd::kernels().decode_row_i32)(&storage, row, cols, &mut out);
            assert_eq!(out, &padded[row * cols..(row + 1) * cols]);
        }
    }

    #[test]
    fn switch_and_forward_errors_are_typed() {
        let bits = BitWidthSet::new(vec![4, 8]).unwrap();
        let net = models::small_cnn(4, 6, (8, 8), bits.len(), 7);
        let mut packed = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();

        // Bad index: typed error, model unchanged.
        let before = packed.active_index();
        let err = packed.switch_to(99).unwrap_err();
        assert!(
            matches!(err, InferError::BitIndex { index: 99, len: 2 }),
            "{err}"
        );
        assert_eq!(packed.active_index(), before);

        // Bad bit-width value: typed error from the fallible twin, `false`
        // from the bool convenience, model unchanged either way.
        let err = packed.try_switch_to_bits(BitWidth::new(6)).unwrap_err();
        assert!(
            matches!(err, InferError::BitWidth(b) if b.get() == 6),
            "{err}"
        );
        assert!(!packed.switch_to_bits(BitWidth::new(6)));
        assert!(packed.switch_to_bits(BitWidth::new(8)));
        assert_eq!(packed.active_bits().get(), 8);

        // Malformed forward inputs: typed errors, not kernel panics.
        let rank2 = Tensor::zeros(&[1, 3]);
        assert!(matches!(
            packed.try_forward(&rank2).unwrap_err(),
            InferError::Input(_)
        ));
        let wrong_channels = Tensor::zeros(&[1, 5, 8, 8]);
        assert!(matches!(
            packed.try_forward_batch(&wrong_channels).unwrap_err(),
            InferError::Input(_)
        ));
        assert!(matches!(
            packed
                .try_forward_at(7, &Tensor::zeros(&[1, 3, 8, 8]))
                .unwrap_err(),
            InferError::BitIndex { index: 7, len: 2 }
        ));

        // A well-formed input still runs, and the fallible path matches
        // the panicking one bit for bit.
        let x = Tensor::from_vec(
            vec![1, 3, 8, 8],
            (0..3 * 8 * 8)
                .map(|i| (i % 11) as f32 / 11.0 - 0.5)
                .collect(),
        );
        let a = packed.try_forward_at(0, &x).unwrap();
        assert_eq!(a.data(), packed.forward_at(0, &x).data());
    }

    #[test]
    fn storage_bytes_accounting() {
        assert_eq!(Storage::Nibble(vec![0; 10]).bytes(), 10);
        assert_eq!(Storage::I8(vec![0; 10]).bytes(), 10);
        assert_eq!(Storage::I16(vec![0; 10]).bytes(), 20);
        assert_eq!(Storage::F32(vec![0.0; 10]).bytes(), 40);
        assert!(!Storage::F32(vec![]).is_integer());
        assert!(Storage::I8(vec![]).is_integer());
    }
}
