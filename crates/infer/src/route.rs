//! The per-layer mapping choice: which arithmetic a packed layer runs
//! ([`Arith`]) and which of its axes goes in the SIMD lanes ([`Lanes`]).
//!
//! The arithmetic is a function of the layer's pack-time weights alone, the
//! same on every kernel table; the lanes also of its geometry, the batch and
//! the active table's lane count and thin kernels — never of a knob.
//! `crate::plan` reads them once per (width, input shape, table) into its
//! steps, and [`describe`] labels the steps of a profiled forward's plan
//! with what they recorded, so the profile cannot drift from what runs.
//! This is the hand-written default of the choice ROADMAP item 4 hands to
//! `automapper`;
//! EXPERIMENTS.md ("Batch-1 forward profile") has the measured crossovers
//! behind the two rules.
//!
//! **Lanes follow the long axis.** Every kernel of the engine used to put
//! output pixels (GEMM columns) in the lanes; MobileNetV2's planes shrink to
//! 4×4 and 2×2 exactly where its channels grow to 96–240, so the layers
//! with the fewest MACs cost the most. A depthwise layer whose output rows
//! cannot fill a vector puts *channels* in the lanes, and a fused GEMM with
//! fewer columns than one column block puts the *reduction* there.

use crate::exec::DenseF32;
use crate::simd::{Kernels, THIN_WORDS};
use crate::{is_depthwise, Accum, KernelWeights, PackedGemm, PackedOp, Storage};
use instantnet_tensor::tensor::ConvGeom;

/// What a layer's SIMD lanes hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lanes {
    /// GEMM columns (`samples × output pixels`): the column-block kernels.
    Columns,
    /// The reduction: a fused GEMM with fewer columns than one block dots
    /// each column against the weight row along `q` (the thin kernels).
    Reduction,
    /// Depthwise channels: `[hw, c]` lanes against the `[r·s, c]` taps.
    Channels,
    /// Depthwise pixels: one flat axpy per tap over a zero-padded frame.
    Pixels,
}

/// The arithmetic a packed layer runs — the same on every kernel table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arith {
    /// Unpacked f32 weights (full precision, raw-input stems, > 16 bits).
    F32,
    /// A depthwise layer's taps in its exact accumulator tier, or a 16-bit
    /// GEMM decoding its rows into `Tier(I64)`.
    Tier(Accum),
    /// Multiply on the pack-time nibble weight words.
    FusedNibble,
    /// Multiply on the pack-time i16-pair weight words (5–15 bits).
    FusedI8,
}

impl Arith {
    /// The arithmetic of layer `g`, read off its pack-time weights alone:
    /// weight words make a GEMM fused, a tap table makes a depthwise layer
    /// run its tier, and a GEMM with neither (16 bits) decodes into i64.
    pub(crate) fn of(g: &PackedGemm) -> Arith {
        match (&g.storage, &g.kernel) {
            (Storage::F32(_), _) => Arith::F32,
            (Storage::Nibble(_), KernelWeights::Words { .. }) => Arith::FusedNibble,
            (_, KernelWeights::Words { .. }) => Arith::FusedI8,
            (_, KernelWeights::Taps(_)) => Arith::Tier(g.accum),
            _ => Arith::Tier(Accum::I64),
        }
    }

    /// Lanes of GEMM `g` over `n` samples of `p` columns on table `k`. A
    /// fused layer dots along the reduction where the `n·p` columns cannot
    /// fill one column block and the table has the thin kernel, whose calls
    /// take whole vector steps — the row in one call, or periods of at least
    /// one step; the f32 fallback puts rows in the lanes where one sample's
    /// `p` cannot fill a register (`DenseF32`'s rows-in-lanes step, a
    /// function of the geometry alone, never of the batch); else columns.
    pub(crate) fn gemm_lanes(self, g: &PackedGemm, (n, p): (usize, usize), k: &Kernels) -> Lanes {
        let (thin, group) = match self {
            Arith::F32 if p < DenseF32::ROWS => return Lanes::Reduction,
            Arith::FusedNibble => (k.gemm_nibble_thin.is_some(), 4),
            Arith::FusedI8 => (k.gemm_i8_thin.is_some(), 2),
            _ => (false, 1),
        };
        let steps = match g.kernel {
            KernelWeights::Words { period, .. } => period >= g.cols.div_ceil(group).min(THIN_WORDS),
            _ => false,
        };
        if thin && steps && n * p < k.lanes {
            Lanes::Reduction
        } else {
            Lanes::Columns
        }
    }
}

/// Lanes of a depthwise layer: pixels where an output row fills a vector and
/// taps read contiguous spans (stride 1), else channels.
pub(crate) fn dw_lanes(g: &ConvGeom, k: &Kernels) -> Lanes {
    if g.stride == 1 && g.ow >= k.lanes {
        Lanes::Pixels
    } else {
        Lanes::Channels
    }
}

/// The profile label of `op` on an input of `dims` as the plan compiled it —
/// kind, shape, and `{arith}/{lanes}` where `route` names the kernel it runs
/// (`f32` for the ops that have no kernel choice).
pub(crate) fn describe(
    op: &PackedOp,
    dims: &[usize],
    route: Option<(Arith, Lanes)>,
) -> (&'static str, String, String) {
    let (kind, detail) = match op {
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
            let kind = match () {
                _ if is_depthwise(*cg, gemm.rows, *groups) => "depthwise",
                _ if r * s == 1 => "pointwise",
                _ => "conv",
            };
            (
                kind,
                format!(" -> {} k{r}x{s} s{stride} p{pad} g{groups}", gemm.rows),
            )
        }
        PackedOp::Linear { gemm } => ("linear", format!(" -> {}", gemm.rows)),
        PackedOp::Act(_) => ("act", String::new()),
        PackedOp::GlobalAvgPool => ("pool", String::new()),
        PackedOp::Residual { .. } => ("add", String::new()),
    };
    let route = match route {
        Some((arith, lanes)) => format!("{arith:?}/{lanes:?}"),
        None => "f32".into(),
    };
    let dims: Vec<String> = dims.iter().map(usize::to_string).collect();
    (kind, dims.join("x") + &detail, route)
}
