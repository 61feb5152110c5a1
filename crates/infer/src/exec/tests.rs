//! Kernel-path equivalence tests that need the private entry points: the
//! row-wise depthwise kernel against the generic grouped-GEMM path (integer
//! tiers) and against a per-pixel reference loop (f32 fallback).

use super::*;
use crate::pack::pack_plan;
use instantnet_nn::plan::PlanOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn uniform(rng: &mut StdRng, dims: &[usize], lo: f32, hi: f32) -> Tensor {
    let n: usize = dims.iter().product();
    Tensor::from_vec(
        dims.to_vec(),
        (0..n).map(|_| rng.gen_range(lo..hi)).collect(),
    )
}

fn assert_bits_eq(a: &Tensor, b: &Tensor, ctx: &str) {
    assert_eq!(a.dims(), b.dims(), "{ctx}");
    for (j, (u, v)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(u.to_bits(), v.to_bits(), "{ctx}: element {j}: {u} vs {v}");
    }
}

/// Packs one depthwise conv (+ a non-trivial folded BN) at `bits`.
fn pack_depthwise(
    rng: &mut StdRng,
    c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    bits: u8,
    q: Quantizer,
) -> PackedGemm {
    let per_channel = |rng: &mut StdRng, lo: f32, hi: f32| vec![uniform(rng, &[c], lo, hi)];
    let plan = vec![
        PlanOp::Conv {
            name: "dw".into(),
            weight: uniform(rng, &[c, 1, k, k], -1.0, 1.0),
            stride,
            pad,
            groups: c,
            quantize_input: true,
        },
        PlanOp::BatchNorm {
            gamma: per_channel(rng, 0.5, 1.5),
            beta: per_channel(rng, -0.3, 0.3),
            mean: per_channel(rng, -0.2, 0.2),
            var: per_channel(rng, 0.5, 2.0),
            eps: 1e-5,
        },
    ];
    let mut passes = 0;
    let mut ops = pack_plan(&plan, 0, BitWidth::new(bits), q, &mut passes).unwrap();
    match ops.pop() {
        Some(PackedOp::Conv { gemm, .. }) => gemm,
        other => panic!("expected one conv, got {other:?}"),
    }
}

/// The pre-row-wise depthwise loop, kept as the f32 oracle: every pixel
/// walks its taps in `(ki, kj)` order with per-tap bounds checks.
#[allow(clippy::too_many_arguments)]
fn depthwise_per_pixel(
    wdata: &[f32],
    gemm: &PackedGemm,
    k: usize,
    stride: usize,
    pad: usize,
    x: &Tensor,
) -> Tensor {
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let oh = (h + 2 * pad - k) / stride + 1;
    let ow = (w + 2 * pad - k) / stride + 1;
    let mut out = Vec::with_capacity(n * c * oh * ow);
    for plane in 0..n * c {
        let ch = plane % c;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
                for ki in 0..k {
                    for kj in 0..k {
                        let iy = (oy * stride + ki) as isize - pad as isize;
                        let ix = (ox * stride + kj) as isize - pad as isize;
                        if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                            continue;
                        }
                        let v = x.data()[(plane * h + iy as usize) * w + ix as usize];
                        acc += wdata[ch * k * k + ki * k + kj] * v;
                    }
                }
                out.push(gemm.scale[ch] * acc + gemm.bias[ch]);
            }
        }
    }
    Tensor::from_vec(vec![n, c, oh, ow], out)
}

#[test]
fn depthwise_rows_match_generic_path_in_every_tier() {
    let mut rng = StdRng::seed_from_u64(0xD3);
    let c = 5;
    for q in [Quantizer::Sbm, Quantizer::Dorefa] {
        for (stride, pad, k, n) in [1usize, 2]
            .into_iter()
            .flat_map(|st| [0usize, 1, 2].map(move |p| (st, p)))
            .flat_map(|(st, p)| [1usize, 3, 5].map(move |k| (st, p, k)))
            .flat_map(|(st, p, k)| [1usize, 3].map(move |n| (st, p, k, n)))
        {
            for (h, w) in [(7usize, 5usize), (5, 9)] {
                if h + 2 * pad < k || w + 2 * pad < k {
                    continue;
                }
                let x = uniform(&mut rng, &[n, c, h, w], -0.4, 1.3);
                for bits in [4u8, 8, 12, 16, 32] {
                    let gemm = pack_depthwise(&mut rng, c, k, stride, pad, bits, q);
                    let bw = BitWidth::new(bits);
                    let aq = if n == 1 {
                        ActQuant::PerBatch
                    } else {
                        ActQuant::PerSample
                    };
                    let ctx = format!("{q:?} {bits}b k{k} s{stride} p{pad} {n}x{c}x{h}x{w}");
                    if let Storage::F32(wdata) = &gemm.storage {
                        let got = exec_conv(&gemm, 1, k, k, stride, pad, c, true, &x, bw, q, aq);
                        let want = depthwise_per_pixel(wdata, &gemm, k, stride, pad, &x);
                        assert_bits_eq(&got, &want, &format!("f32: {ctx}"));
                        continue;
                    }
                    assert!(
                        matches!(gemm.kernel, KernelWeights::Taps(ref t) if t.len() == c * k * k)
                    );
                    assert_eq!(gemm.has_offset, q == Quantizer::Dorefa, "{ctx}");
                    // Same codes without the tap table: `conv_int` takes the
                    // grouped patch-matrix GEMM (one row per group).
                    let generic = PackedGemm {
                        kernel: KernelWeights::Decode,
                        ..gemm.clone()
                    };
                    // The packed tier and every wider one are exact.
                    let run = |g: &PackedGemm, tier: Accum| match tier {
                        Accum::F32 => {
                            conv_int::<TierF32>(g, 1, k, k, stride, pad, c, &x, bw, q, aq)
                        }
                        Accum::I32 => {
                            conv_int::<TierI32>(g, 1, k, k, stride, pad, c, &x, bw, q, aq)
                        }
                        Accum::I64 => {
                            conv_int::<TierI64>(g, 1, k, k, stride, pad, c, &x, bw, q, aq)
                        }
                    };
                    let tiers: &[Accum] = match gemm.accum {
                        Accum::F32 => &[Accum::F32, Accum::I32, Accum::I64],
                        Accum::I32 => &[Accum::I32, Accum::I64],
                        Accum::I64 => &[Accum::I64],
                    };
                    let want = run(&generic, gemm.accum);
                    for &tier in tiers {
                        assert_bits_eq(&run(&gemm, tier), &want, &format!("{tier:?}: {ctx}"));
                    }
                    let routed = exec_conv(&gemm, 1, k, k, stride, pad, c, true, &x, bw, q, aq);
                    assert_bits_eq(&routed, &want, &format!("routed: {ctx}"));
                }
            }
        }
    }
}
