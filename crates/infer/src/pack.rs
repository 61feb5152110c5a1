//! Plan-to-packed compilation: weight code generation, BN folding, and
//! storage-tier selection, performed once per bit-width at construction.

use crate::exec::{FusedI8, FusedNibble, Route};
use crate::{is_depthwise, Accum, InferError, KernelWeights, PackedGemm, PackedOp, Storage, Taps};
use instantnet_nn::plan::PlanOp;
use instantnet_quant::{BitWidth, Quantizer};
use instantnet_tensor::Tensor;
use std::sync::Arc;

/// Folded batch-norm affine: `y = scale[k] * conv_out[k] + bias[k]`.
struct BnFold {
    scale: Vec<f32>,
    bias: Vec<f32>,
}

fn fold_bn(
    gamma: &[Tensor],
    beta: &[Tensor],
    mean: &[Tensor],
    var: &[Tensor],
    eps: f32,
    bit_index: usize,
    rows: usize,
) -> Result<BnFold, InferError> {
    if bit_index >= gamma.len() {
        return Err(InferError::Shape(format!(
            "batch norm has {} branches but bit-width index {bit_index} was requested",
            gamma.len()
        )));
    }
    let (g, b, m, v) = (
        gamma[bit_index].data(),
        beta[bit_index].data(),
        mean[bit_index].data(),
        var[bit_index].data(),
    );
    if g.len() != rows {
        return Err(InferError::Shape(format!(
            "batch norm over {} channels follows a conv with {rows} filters",
            g.len()
        )));
    }
    let mut scale = Vec::with_capacity(rows);
    let mut bias = Vec::with_capacity(rows);
    for k in 0..rows {
        let sc = g[k] / (v[k] + eps).sqrt();
        scale.push(sc);
        bias.push(b[k] - sc * m[k]);
    }
    Ok(BnFold { scale, bias })
}

/// Largest |activation code| either quantizer can emit at `bits`
/// (`2^b - 1` for DoReFa's unsigned grid and SBM's signed-magnitude one).
fn act_code_abs_max(bits: BitWidth) -> i64 {
    (1i64 << i64::from(bits.get().min(31))) - 1
}

/// Word-packs re-centered codes `d` (`[rows, cols]`) for the fused tier
/// `F`: [`Route::GROUP`] reduction lanes per little-endian `u32`, each
/// shifted by [`Route::WEIGHT_BIAS`]. A row's final partial word keeps
/// its missing lanes zero; they meet only zero-padded activation lanes.
fn pack_words<F: Route>(d: &[i32], cols: usize) -> Vec<u32> {
    let lane_bits = 32 / F::GROUP;
    let mask = u32::MAX >> (32 - lane_bits);
    d.chunks(cols)
        .flat_map(|row| row.chunks(F::GROUP))
        .map(|lanes| {
            lanes.iter().enumerate().fold(0u32, |word, (k, &c)| {
                word | ((((c + F::WEIGHT_BIAS) as u32) & mask) << (lane_bits * k))
            })
        })
        .collect()
}

/// A GEMM's kernel weights for re-centered codes `d` (`[rows, cols]`) in
/// `storage`, at most `max_code_abs` in magnitude: [`KernelWeights::Words`]
/// wherever `bits`-bit activation codes fit an i16 lane (≤ 15 bits), else
/// nothing (16 bits, which decode into `Tier(I64)`).
///
/// The words' period is the most words one kernel call may reduce: a call
/// accumulates in i32, so at worst-case codes — every lane's weight at
/// its largest magnitude (`w + 8 ≤ 15` on nibble words) against the largest
/// activation code — a period's partial sums keep the ×2 slack of the tier
/// bound, `period · group · max|w| · max|a| ≤ i32::MAX / 2`. Every sub-sum a
/// kernel forms, in any lane order, is inside it, and so is a nibble
/// layer's `8·colsum` correction wherever the period covers the row
/// (DESIGN.md §6g).
pub(crate) fn gemm_words(
    d: &[i32],
    cols: usize,
    storage: &Storage,
    max_code_abs: i32,
    bits: BitWidth,
) -> KernelWeights {
    let (words, group, max_w) = match storage {
        Storage::Nibble(_) => (pack_words::<FusedNibble>(d, cols), 4, 15),
        Storage::I8(_) | Storage::I16(_) if bits.get() <= 15 => (
            pack_words::<FusedI8>(d, cols),
            2,
            i64::from(max_code_abs).max(1),
        ),
        _ => return KernelWeights::Decode,
    };
    let period = i64::from(i32::MAX) / 2 / (group * max_w * act_code_abs_max(bits));
    debug_assert!(period >= 1, "a 15-bit word fits one call");
    KernelWeights::Words {
        words,
        period: period as usize,
    }
}

/// A depthwise layer's `[c, r·s]` weights tap-major, `[r·s, c]`: what both
/// SIMD orientations of `exec::Depthwise` read (a tap's channels contiguous).
fn tap_major<T: Copy>(w: &[T], taps: usize) -> Vec<T> {
    (0..taps)
        .flat_map(|t| w.iter().skip(t).step_by(taps).copied())
        .collect()
}

/// Packs one weight matrix (+ optional folded BN / linear bias) for one
/// bit-width. `quantize_input` mirrors the plan flag: when false the layer
/// consumes raw f32 activations and must stay on the f32 kernel path.
/// `depthwise` layers get a decoded tap table instead of GEMM words — in the
/// lane type of their accumulator tier, so a forward reads it in place — and
/// on the f32 path their weights themselves, both [`tap_major`].
#[allow(clippy::too_many_arguments)]
fn pack_gemm(
    weight: &Tensor,
    bn: Option<BnFold>,
    lin_bias: Option<&[f32]>,
    bits: BitWidth,
    quantizer: Quantizer,
    quantize_input: bool,
    depthwise: bool,
    pack_passes: &mut usize,
) -> Result<PackedGemm, InferError> {
    let rows = weight.dims()[0];
    if rows == 0 || !weight.len().is_multiple_of(rows) {
        return Err(InferError::Shape(format!(
            "weight of {} elements does not split into {rows} rows",
            weight.len()
        )));
    }
    let cols = weight.len() / rows;
    let bn_scale = bn
        .as_ref()
        .map_or_else(|| vec![1.0; rows], |f| f.scale.clone());
    let bias = bn
        .as_ref()
        .map(|f| f.bias.clone())
        .or_else(|| lin_bias.map(<[f32]>::to_vec))
        .unwrap_or_else(|| vec![0.0; rows]);

    let fp = bits.is_full_precision() || matches!(quantizer, Quantizer::Identity);
    let integer_ok = !fp && quantize_input && bits.get() <= 16;

    if !integer_ok {
        // F32 fallback: raw weights when no grid applies, otherwise the
        // fake-quantized values (still packed once — never per forward).
        *pack_passes += 1;
        let w = if fp {
            weight.data().to_vec()
        } else {
            quantizer
                .quantize_weights_tensor(weight, bits)
                .data()
                .to_vec()
        };
        return Ok(PackedGemm {
            rows,
            cols,
            storage: Storage::F32(if depthwise { tap_major(&w, cols) } else { w }),
            scale: bn_scale,
            colsum_coef: vec![0.0; rows],
            bias,
            has_offset: false,
            accum: Accum::F32,
            kernel: KernelWeights::Decode,
        });
    }

    let wc = quantizer
        .weight_codes(weight, bits)
        .expect("non-identity quantizer below full precision yields codes");
    // Re-center codes around the mid-point of the representable range so
    // asymmetric grids (DoReFa: [0, 2^b - 1]) fit signed storage; the shift
    // `cb` joins the decode offset in the column-sum coefficient.
    let cb = (wc.code_min + wc.code_max + 1).div_euclid(2);
    let max_code_abs = (wc.code_min - cb).abs().max((wc.code_max - cb).abs());
    *pack_passes += 1;
    let d: Vec<i32> = wc.codes.iter().map(|&c| c - cb).collect();
    let storage = if bits.get() <= 4 {
        debug_assert!(max_code_abs <= 8, "nibble storage holds [-8, 7]");
        let stride = cols.div_ceil(2);
        let mut data = vec![0u8; rows * stride];
        for (e, &c) in d.iter().enumerate() {
            let (row, j) = (e / cols, e % cols);
            let nib = (c as u8) & 0xF;
            data[row * stride + j / 2] |= if j % 2 == 0 { nib } else { nib << 4 };
        }
        Storage::Nibble(data)
    } else if bits.get() <= 8 {
        Storage::I8(d.iter().map(|&c| c as i8).collect())
    } else {
        Storage::I16(d.iter().map(|&c| c as i16).collect())
    };

    let per_row_scale = |k: usize| wc.scales[k.min(wc.scales.len() - 1)];
    let scale: Vec<f32> = (0..rows).map(|k| per_row_scale(k) * bn_scale[k]).collect();
    // Decode of one product term: sw*(d + cb) + ow per weight, so each
    // output row picks up (sw*cb + ow) * colsum from the shifted codes.
    let colsum_coef: Vec<f32> = (0..rows)
        .map(|k| (per_row_scale(k) * cb as f32 + wc.offset) * bn_scale[k])
        .collect();
    let has_offset = colsum_coef.iter().any(|&v| v != 0.0);
    // Worst-case |partial sum| over the reduction; the cheapest exact
    // accumulator it fits in is a depthwise layer's tier (f32 is lossless
    // below 2^24 and vectorizes everywhere; halve i32::MAX for slack on the
    // native tier). The bound holds at any serving batch size: batching adds
    // *columns* (more samples × output pixels), never reduction *length* —
    // `cols` is fixed at `cg*r*s` / in-features, and the only cross-sample
    // sums (per-column activation colsums) are i64 regardless of tier. The
    // same bound lets the f32 tier reassociate partial sums exactly: every
    // partial sum in any association order is an integer below 2^24.
    let bound = i64::from(max_code_abs) * act_code_abs_max(bits) * cols as i64;
    let accum = if bound < 1 << 24 {
        Accum::F32
    } else if bound <= i64::from(i32::MAX) / 2 {
        Accum::I32
    } else {
        Accum::I64
    };
    let kernel = if depthwise {
        KernelWeights::Taps(match accum {
            Accum::F32 => Taps::F32(tap_major(&d, cols).into_iter().map(|c| c as f32).collect()),
            Accum::I32 | Accum::I64 => Taps::I32(tap_major(&d, cols)),
        })
    } else {
        gemm_words(&d, cols, &storage, max_code_abs, bits)
    };

    Ok(PackedGemm {
        rows,
        cols,
        storage,
        scale,
        colsum_coef,
        bias,
        has_offset,
        accum,
        kernel,
    })
}

/// Compiles a plan into executable packed ops for one bit-width.
pub(crate) fn pack_plan(
    ops: &[PlanOp],
    bit_index: usize,
    bits: BitWidth,
    quantizer: Quantizer,
    pack_passes: &mut usize,
) -> Result<Vec<PackedOp>, InferError> {
    let mut out = Vec::with_capacity(ops.len());
    let mut it = ops.iter().peekable();
    while let Some(op) = it.next() {
        match op {
            PlanOp::Conv {
                weight,
                stride,
                pad,
                groups,
                quantize_input,
                ..
            } => {
                let dims = weight.dims();
                if dims.len() != 4 {
                    return Err(InferError::Shape(format!(
                        "conv weight must be rank 4, got {dims:?}"
                    )));
                }
                let (k, cg, r, s) = (dims[0], dims[1], dims[2], dims[3]);
                if *groups == 0 || k % groups != 0 {
                    return Err(InferError::Shape(format!(
                        "{k} conv filters do not split into {groups} groups"
                    )));
                }
                // Fold the batch norm that immediately follows (the only
                // supported position: plans emit conv+BN pairs).
                let fold = if let Some(PlanOp::BatchNorm { .. }) = it.peek() {
                    let Some(PlanOp::BatchNorm {
                        gamma,
                        beta,
                        mean,
                        var,
                        eps,
                    }) = it.next()
                    else {
                        unreachable!("peeked BatchNorm");
                    };
                    Some(fold_bn(gamma, beta, mean, var, *eps, bit_index, k)?)
                } else {
                    None
                };
                let gemm = pack_gemm(
                    weight,
                    fold,
                    None,
                    bits,
                    quantizer,
                    *quantize_input,
                    is_depthwise(cg, k, *groups),
                    pack_passes,
                )?;
                out.push(PackedOp::Conv {
                    gemm: Arc::new(gemm),
                    cg,
                    r,
                    s,
                    stride: *stride,
                    pad: *pad,
                    groups: *groups,
                    quantize_input: *quantize_input,
                });
            }
            PlanOp::BatchNorm { .. } => {
                return Err(InferError::Unsupported(
                    "batch norm without a preceding convolution to fold into".into(),
                ));
            }
            PlanOp::Act(a) => out.push(PackedOp::Act(*a)),
            PlanOp::GlobalAvgPool => out.push(PackedOp::GlobalAvgPool),
            PlanOp::Linear { weight, bias, .. } => {
                if weight.dims().len() != 2 {
                    return Err(InferError::Shape(format!(
                        "linear weight must be rank 2, got {:?}",
                        weight.dims()
                    )));
                }
                let gemm = pack_gemm(
                    weight,
                    None,
                    Some(bias.data()),
                    bits,
                    quantizer,
                    true,
                    false,
                    pack_passes,
                )?;
                out.push(PackedOp::Linear {
                    gemm: Arc::new(gemm),
                });
            }
            PlanOp::Residual {
                body,
                shortcut,
                post_relu,
            } => {
                out.push(PackedOp::Residual {
                    body: pack_plan(body, bit_index, bits, quantizer, pack_passes)?,
                    shortcut: pack_plan(shortcut, bit_index, bits, quantizer, pack_passes)?,
                    post_relu: *post_relu,
                });
            }
        }
    }
    Ok(out)
}
