//! The per-layer mapping choice: which arithmetic a packed layer runs on the
//! active backend ([`Arith`]) and which of its axes goes in the SIMD lanes
//! ([`Lanes`]).
//!
//! Both are functions of the layer (its pack-time storage and kernel
//! weights, its geometry, the batch) and of the active backend's kernel
//! table — never of a knob. `crate::exec` dispatches on them and
//! [`describe`] labels a profiled op with them, so the profile cannot
//! drift from what ran. This is the hand-written default of the choice
//! ROADMAP item 4 hands to `automapper`; EXPERIMENTS.md ("Batch-1 forward
//! profile") has the measured crossovers behind the two rules.
//!
//! **Lanes follow the long axis.** Every kernel of the engine used to put
//! output pixels (GEMM columns) in the lanes; MobileNetV2's planes shrink to
//! 4×4 and 2×2 exactly where its channels grow to 96–240, so the layers
//! with the fewest MACs cost the most. A depthwise layer whose output rows
//! cannot fill a vector puts *channels* in the lanes, and a fused GEMM with
//! fewer columns than one column block puts the *reduction* there.

use crate::simd::Kernels;
use crate::{is_depthwise, Accum, KernelWeights, OpProfile, PackedGemm, PackedOp, Storage};
use instantnet_tensor::tensor::ConvGeom;
use std::time::{Duration, Instant};

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

/// The arithmetic a packed layer runs on the active backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arith {
    /// Unpacked f32 weights (full precision, raw-input stems, > 16 bits).
    F32,
    /// Decode-then-multiply in the layer's exact accumulator tier.
    Tier(Accum),
    /// Multiply on the pack-time nibble weight words.
    FusedNibble,
    /// Multiply on the pack-time i8 weight words.
    FusedI8,
}

impl Arith {
    /// The arithmetic of layer `g` on the kernel table `k` — the forward's
    /// one snapshot of `simd::kernels`, which every later choice reuses: a
    /// concurrent `with_simd_backend` scope may swap the active table
    /// mid-forward, and a route must not straddle two of them. Pack-time
    /// weight words and a table with the kernel make a layer fused; nothing
    /// else does.
    pub(crate) fn of(g: &PackedGemm, k: &Kernels) -> Arith {
        match (&g.storage, &g.kernel) {
            (Storage::F32(_), _) => Arith::F32,
            (Storage::Nibble(_), KernelWeights::Words(_)) if k.gemm_nibble.is_some() => {
                Arith::FusedNibble
            }
            (Storage::I8(_), KernelWeights::Words(_)) if k.gemm_i8.is_some() => Arith::FusedI8,
            _ => Arith::Tier(g.accum),
        }
    }

    /// Lanes of a GEMM over `l` columns: the reduction where `l` cannot fill
    /// one column block and the backend has the thin kernel, else columns.
    pub(crate) fn gemm_lanes(self, l: usize, k: &Kernels) -> Lanes {
        let thin = match self {
            Arith::FusedNibble => k.gemm_nibble_thin.is_some(),
            Arith::FusedI8 => k.gemm_i8_thin.is_some(),
            _ => false,
        };
        if thin && l < k.lanes {
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

/// The profile record of `op` run on table `k`, started at `start` on an
/// input of `dims`, `quantize` of it spent building the operand.
pub(crate) fn describe(
    op: &PackedOp,
    dims: &[usize],
    k: &Kernels,
    start: Instant,
    quantize: Duration,
) -> OpProfile {
    let elapsed = start.elapsed();
    // A GEMM layer over `l` columns: its arithmetic and what that puts in
    // the lanes.
    let gemm_route = |g: &PackedGemm, l: usize| {
        let arith = Arith::of(g, k);
        format!("{arith:?}/{:?}", arith.gemm_lanes(l, k))
    };
    let (kind, detail, route) = match op {
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
            let g = ConvGeom::new(dims[2], dims[3], *r, *s, *stride, *pad);
            let (kind, route) = if is_depthwise(*cg, gemm.rows, *groups) {
                let route = format!("{:?}/{:?}", Arith::of(gemm, k), dw_lanes(&g, k));
                ("depthwise", route)
            } else {
                let kind = if r * s == 1 { "pointwise" } else { "conv" };
                (kind, gemm_route(gemm, dims[0] * g.oh * g.ow))
            };
            let detail = format!(" -> {} k{r}x{s} s{stride} p{pad} g{groups}", gemm.rows);
            (kind, detail, route)
        }
        PackedOp::Linear { gemm } => {
            let detail = format!(" -> {}", gemm.rows);
            ("linear", detail, gemm_route(gemm, dims[0]))
        }
        PackedOp::Act(_) => ("act", String::new(), "f32".into()),
        PackedOp::GlobalAvgPool => ("pool", String::new(), "f32".into()),
        PackedOp::Residual { .. } => ("add", String::new(), "f32".into()),
    };
    let dims: Vec<String> = dims.iter().map(usize::to_string).collect();
    OpProfile {
        kind,
        shape: dims.join("x") + &detail,
        route,
        elapsed,
        quantize,
    }
}
