//! Kernel-path equivalence tests that need the private entry points: both
//! orientations of the depthwise kernel against the generic grouped-GEMM path
//! (integer tiers) and against a per-pixel reference loop (f32 fallback); the
//! batch-invariance matrix (every sample of a batch against its batch-of-one
//! forward, on every route); and the pack-time overflow bounds against an
//! i128 oracle at their admission boundaries.

use super::*;
use crate::pack::pack_plan;
use crate::simd::{avx2_available, neon_available, with_fused_gemm, with_simd_backend};
use crate::SimdBackend;
use instantnet_nn::plan::PlanOp;
use instantnet_parallel::with_threads;
use instantnet_quant::BitWidthSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn uniform(rng: &mut StdRng, dims: &[usize], lo: f32, hi: f32) -> Tensor {
    let n: usize = dims.iter().product();
    Tensor::from_vec(
        dims.to_vec(),
        (0..n).map(|_| rng.gen_range(lo..hi)).collect(),
    )
}

fn per_sample(bits: BitWidth, quantizer: Quantizer) -> ActRule {
    ActRule {
        bits,
        quantizer,
        aq: ActQuant::PerSample,
    }
}

fn assert_bits_eq(a: &Tensor, b: &Tensor, ctx: &str) {
    assert_eq!(a.dims(), b.dims(), "{ctx}");
    for (j, (u, v)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(u.to_bits(), v.to_bits(), "{ctx}: element {j}: {u} vs {v}");
    }
}

/// A `[k, c / groups, ksize, ksize]` conv followed by a non-trivial batch
/// norm (one branch, folded at pack time).
#[allow(clippy::too_many_arguments)]
fn conv_plan(
    rng: &mut StdRng,
    c: usize,
    k: usize,
    ksize: usize,
    stride: usize,
    pad: usize,
    groups: usize,
    quantize_input: bool,
) -> Vec<PlanOp> {
    let per_channel = |rng: &mut StdRng, lo: f32, hi: f32| vec![uniform(rng, &[k], lo, hi)];
    vec![
        PlanOp::Conv {
            name: "conv".into(),
            weight: uniform(rng, &[k, c / groups, ksize, ksize], -1.0, 1.0),
            stride,
            pad,
            groups,
            quantize_input,
        },
        PlanOp::BatchNorm {
            gamma: per_channel(rng, 0.5, 1.5),
            beta: per_channel(rng, -0.3, 0.3),
            mean: per_channel(rng, -0.2, 0.2),
            var: per_channel(rng, 0.5, 2.0),
            eps: 1e-5,
        },
    ]
}

fn pack(plan: &[PlanOp], bits: u8, q: Quantizer) -> Vec<PackedOp> {
    pack_plan(plan, 0, BitWidth::new(bits), q, &mut 0).unwrap()
}

fn gemm_of(ops: &[PackedOp]) -> &PackedGemm {
    match ops {
        [PackedOp::Conv { gemm, .. }] | [PackedOp::Linear { gemm }] => gemm,
        other => panic!("expected one GEMM layer, got {other:?}"),
    }
}

/// Packs one depthwise conv (+ folded BN) at `bits`.
fn pack_depthwise(
    rng: &mut StdRng,
    c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    bits: u8,
    q: Quantizer,
) -> PackedGemm {
    gemm_of(&pack(
        &conv_plan(rng, c, c, k, stride, pad, c, true),
        bits,
        q,
    ))
    .clone()
}

/// The per-pixel depthwise loop, kept as the f32 oracle: every pixel walks
/// its taps in `(ki, kj)` order with per-tap bounds checks (`wdata` is the
/// pack-time tap-major `[k·k, c]` table).
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
                        acc += wdata[(ki * k + kj) * c + ch] * v;
                    }
                }
                out.push(gemm.scale[ch] * acc + gemm.bias[ch]);
            }
        }
    }
    Tensor::from_vec(vec![n, c, oh, ow], out)
}

/// A depthwise layer on tier `T`: [`Depthwise`] against its tap table, or
/// without one the grouped-GEMM route of the one integer driver.
fn on_tier<T: Tier>(g: &PackedGemm, geom: &ConvGeom, x: &Tensor, rule: ActRule) -> Tensor {
    let (k, (n, c)) = (kernels(), (x.dims()[0], x.dims()[1]));
    let out = match g.kernel {
        KernelWeights::Taps(_) => depthwise::<T>(k, g, geom, x.data(), (n, c), rule),
        _ => gemm_int::<T>(k, g, geom, c, x.data(), (n, c), rule),
    };
    Tensor::from_vec(vec![n, c, geom.oh, geom.ow], out)
}

/// The depthwise shape matrix: planes from 1×1 to 16×16 × stride × pad ×
/// kernel, with channels, batch and quantizer rotating through their values
/// (pruned so the suite runs in seconds), at every `large_range()` width.
/// Both SIMD orientations and the boundary between them (7- vs 8-wide output
/// rows) must equal the per-pixel f32 oracle on the f32 fallback and the
/// grouped-GEMM path in every valid tier, on bits, at 1 and 3 threads — the
/// last case above `PAR_FLOP_THRESHOLD`, where the plane split is live.
#[test]
fn depthwise_orientations_match_oracle_and_generic_path_on_the_shape_matrix() {
    let mut rng = StdRng::seed_from_u64(0xD3);
    let planes = [
        (1usize, 1usize),
        (2, 2),
        (3, 5),
        (4, 4),
        (7, 7),
        (8, 8),
        (9, 17),
        (16, 16),
    ];
    let mut shapes = Vec::new();
    for (h, w) in planes {
        for (stride, pad, k) in [1usize, 2, 3]
            .into_iter()
            .flat_map(|st| [0usize, 1, 2].map(move |p| (st, p)))
            .flat_map(|(st, p)| [1usize, 3, 5].map(move |k| (st, p, k)))
            .filter(|&(_, pad, k)| h + 2 * pad >= k && w + 2 * pad >= k)
        {
            let i = shapes.len();
            let (c, n) = ([1usize, 3, 8, 13, 96][i % 5], [1usize, 3][i / 5 % 2]);
            let q = [Quantizer::Sbm, Quantizer::Dorefa][i / 10 % 2];
            shapes.push((h, w, stride, pad, k, c, n, q));
        }
    }
    // 2·3·96·9·256 flops: the one parallel case.
    shapes.push((16, 16, 1, 1, 3, 96, 3, Quantizer::Dorefa));
    let mut seen = Vec::new();
    for (h, w, stride, pad, k, c, n, q) in shapes {
        let x = uniform(&mut rng, &[n, c, h, w], -0.4, 1.3);
        let geom = ConvGeom::new(h, w, k, k, stride, pad);
        seen.push(dw_lanes(&geom, kernels()));
        for bits in [4u8, 8, 12, 16, 32] {
            let gemm = pack_depthwise(&mut rng, c, k, stride, pad, bits, q);
            let aq = if n == 1 {
                ActQuant::PerBatch
            } else {
                ActQuant::PerSample
            };
            let rule = ActRule {
                bits: BitWidth::new(bits),
                quantizer: q,
                aq,
            };
            let ctx = format!("{q:?} {bits}b k{k} s{stride} p{pad} {n}x{c}x{h}x{w}");
            let routed = |threads: usize| {
                with_threads(threads, || {
                    exec_conv(kernels(), &gemm, &geom, c, true, &x, rule)
                })
            };
            if let Storage::F32(wdata) = &gemm.storage {
                let want = depthwise_per_pixel(wdata, &gemm, k, stride, pad, &x);
                assert_bits_eq(&routed(1), &want, &format!("f32: {ctx}"));
                assert_bits_eq(&routed(3), &want, &format!("f32, 3 threads: {ctx}"));
                continue;
            }
            assert!(matches!(gemm.kernel, KernelWeights::Taps(ref t) if t.len() == c * k * k));
            assert_eq!(gemm.has_offset, q == Quantizer::Dorefa, "{ctx}");
            // Same codes without the tap table: `gemm_int` runs the grouped
            // patch-matrix GEMM (one row per group).
            let generic = PackedGemm {
                kernel: KernelWeights::Decode,
                ..gemm.clone()
            };
            // The packed tier and every wider one are exact.
            let run = |g: &PackedGemm, tier: Accum| match tier {
                Accum::F32 => on_tier::<TierF32>(g, &geom, &x, rule),
                Accum::I32 => on_tier::<TierI32>(g, &geom, &x, rule),
                Accum::I64 => on_tier::<TierI64>(g, &geom, &x, rule),
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
            assert_bits_eq(&routed(1), &want, &format!("routed: {ctx}"));
            assert_bits_eq(&routed(3), &want, &format!("routed, 3 threads: {ctx}"));
        }
    }
    for lanes in [Lanes::Channels, Lanes::Pixels] {
        assert!(seen.contains(&lanes), "no shape ran with {lanes:?} lanes");
    }
}

/// Rows `range` of `x` as a tensor of their own.
fn samples(x: &Tensor, range: std::ops::Range<usize>) -> Tensor {
    let len = x.len() / x.dims()[0];
    let mut dims = x.dims().to_vec();
    dims[0] = range.len();
    Tensor::from_vec(dims, x.data()[range.start * len..range.end * len].to_vec())
}

#[test]
fn every_sample_of_a_batch_equals_its_batch_of_one_forward_on_every_route() {
    const MAX_N: usize = 17;
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    let mut layers: Vec<(String, Vec<PlanOp>, Vec<usize>)> = Vec::new();
    for (stride, pad) in [(1, 0), (1, 1), (2, 0), (2, 1)] {
        let plan = conv_plan(&mut rng, 6, 8, 3, stride, pad, 1, true);
        layers.push((format!("3x3 s{stride} p{pad}"), plan, vec![6, 7, 6]));
    }
    let conv = |rng: &mut StdRng, c, k, ksize, pad, groups, quantized| {
        conv_plan(rng, c, k, ksize, 1, pad, groups, quantized)
    };
    layers.push((
        "1x1".into(),
        conv(&mut rng, 6, 8, 1, 0, 1, true),
        vec![6, 5, 4],
    ));
    // p = 4 output pixels: the column count crosses one column block
    // between n = 1 (thin kernels), n = 2 (exactly one block) and n = 3.
    layers.push((
        "1x1 on 2x2".into(),
        conv(&mut rng, 6, 8, 1, 0, 1, true),
        vec![6, 2, 2],
    ));
    layers.push((
        "3x3 s2 to 2x2".into(),
        conv_plan(&mut rng, 6, 8, 3, 2, 1, 1, true),
        vec![6, 4, 4],
    ));
    layers.push((
        "groups 2 to 2x2".into(),
        conv_plan(&mut rng, 6, 8, 3, 2, 1, 2, true),
        vec![6, 3, 4],
    ));
    layers.push((
        "groups 2".into(),
        conv(&mut rng, 6, 8, 3, 1, 2, true),
        vec![6, 5, 4],
    ));
    layers.push((
        "depthwise".into(),
        conv(&mut rng, 6, 6, 3, 1, 6, true),
        vec![6, 5, 4],
    ));
    layers.push((
        "f32 stem".into(),
        conv_plan(&mut rng, 3, 8, 3, 2, 1, 1, false),
        vec![3, 9, 8],
    ));
    // 2·32·144·(n·64) flops: above `PAR_FLOP_THRESHOLD` from n = 1.
    layers.push((
        "3x3 16->32".into(),
        conv(&mut rng, 16, 32, 3, 1, 1, true),
        vec![16, 8, 8],
    ));
    let linear = PlanOp::Linear {
        name: "fc".into(),
        weight: uniform(&mut rng, &[11, 37], -1.0, 1.0),
        bias: uniform(&mut rng, &[11], -0.5, 0.5),
    };
    layers.push(("linear".into(), vec![linear], vec![37]));
    // 1 200 B per sample in i32/f32 lanes: at n = 17 the `[f, n]` operand
    // outgrows `PATCH_BLOCK_BYTES`, so `conv_blocks` runs the linear in
    // sample blocks — in parallel from 2·16·29·300 flops.
    const { assert!(MAX_N * 300 * 4 > PATCH_BLOCK_BYTES) };
    let wide = PlanOp::Linear {
        name: "fc".into(),
        weight: uniform(&mut rng, &[29, 300], -1.0, 1.0),
        bias: uniform(&mut rng, &[29], -0.5, 0.5),
    };
    layers.push(("linear 300->29".into(), vec![wide], vec![300]));

    // (context, ops, bits, quantizer, batch, batch-of-one outputs)
    let mut cases = Vec::new();
    for q in [Quantizer::Sbm, Quantizer::Dorefa] {
        for (name, plan, dims) in &layers {
            let mut full = vec![MAX_N];
            full.extend(dims);
            let x = uniform(&mut rng, &full, -0.4, 1.3);
            for &bw in BitWidthSet::large_range().widths() {
                let ops = pack(plan, bw.get(), q);
                let solo: Vec<Tensor> = (0..MAX_N)
                    .map(|i| exec_ops(&ops, &samples(&x, i..i + 1), per_sample(bw, q), None))
                    .collect();
                cases.push((format!("{name} {q:?} {bw}"), ops, bw, q, x.clone(), solo));
            }
        }
    }
    let check = |route: &str| {
        for (ctx, ops, bw, q, x, solo) in &cases {
            for threads in [1, 3] {
                for n in [1, 2, 3, 7, 16, MAX_N] {
                    let y = with_threads(threads, || {
                        exec_ops(ops, &samples(x, 0..n), per_sample(*bw, *q), None)
                    });
                    for (i, want) in solo.iter().enumerate().take(n) {
                        let ctx = format!("{ctx} [{route}, {threads} threads] sample {i} of {n}");
                        assert_bits_eq(&samples(&y, i..i + 1), want, &ctx);
                    }
                }
            }
        }
    };
    check("dispatched");
    with_fused_gemm(false, || check("fused off"));
    with_simd_backend(SimdBackend::Scalar, || check("forced scalar"));
}

/// Worst-case linear layers at each pack-time admission boundary (and one
/// reduction row either side): whatever the packer admits to a tier or to
/// the fused words computes the exact sum at any batch size, and what it
/// refuses gets the next tier (or no words).
#[test]
fn admitted_layers_never_overflow_and_refused_ones_change_route() {
    // i128 oracle of one output: `Σ d·a` and `Σ a` over the stored weight
    // codes `d` and the sample's activation codes `a`, dequantized as the
    // engine does. Also returns the largest magnitude a fused kernel meets:
    // its shifted-code accumulator and the `WEIGHT_BIAS·colsum` correction.
    fn oracle(g: &PackedGemm, row: usize, a: &[i32], sa: f32, shift: i128) -> (f32, i128) {
        let mut d = vec![0i32; g.cols];
        g.storage.decode_row_scalar(row, g.cols, &mut d);
        let wide = |v: i32| i128::from(v);
        let acc: i128 = d.iter().zip(a).map(|(&d, &a)| wide(d) * wide(a)).sum();
        let shifted: i128 = d
            .iter()
            .zip(a)
            .map(|(&d, &a)| (wide(d) + shift) * wide(a))
            .sum();
        let colsum: i128 = a.iter().map(|&a| wide(a)).sum();
        let y = if g.has_offset {
            sa * (g.scale[row] * acc as f32 + g.colsum_coef[row] * colsum as f32) + g.bias[row]
        } else {
            sa * g.scale[row] * acc as f32 + g.bias[row]
        };
        (y, shifted.abs().max((shift * colsum).abs()))
    }

    let can_fuse = avx2_available() || neon_available();
    let lane_limit = 1i128 << 24;
    let i32_limit = i128::from(i32::MAX) / 2;
    // (bits, quantizer, per-term worst case of the bound under test, limit,
    //  whether the bound is the fused one)
    for (bits, q, term, limit, fused) in [
        (8u8, Quantizer::Sbm, 127 * 255, lane_limit - 1, false),
        (8, Quantizer::Dorefa, 128 * 255, lane_limit - 1, false),
        (12, Quantizer::Sbm, 2047 * 4095, i32_limit, false),
        (8, Quantizer::Sbm, 127 * 255, i32_limit, true),
        (8, Quantizer::Dorefa, 128 * 255, i32_limit, true),
        (4, Quantizer::Sbm, 15 * 15, i32_limit, true),
    ] {
        let boundary = (limit / term) as usize;
        for cols in [boundary - 1, boundary, boundary + 1] {
            let admitted = cols <= boundary;
            // Every weight at the top code, every activation at the top
            // (SBM: also the bottom) code.
            let plan = [PlanOp::Linear {
                name: "fc".into(),
                weight: Tensor::full(&[2, cols], 1.0),
                bias: Tensor::from_vec(vec![2], vec![0.25, -0.5]),
            }];
            let ops = pack(&plan, bits, q);
            let g = gemm_of(&ops);
            let ctx = format!("{bits}b {q:?} cols {cols} (boundary {boundary})");
            if fused {
                let words = matches!(g.kernel, KernelWeights::Words(_));
                assert_eq!(words, admitted && can_fuse, "{ctx}: fused admission");
            } else if limit == i32_limit {
                let want = if admitted { Accum::I32 } else { Accum::I64 };
                assert_eq!(g.accum, want, "{ctx}: tier");
            } else {
                let want = if admitted { Accum::F32 } else { Accum::I32 };
                assert_eq!(g.accum, want, "{ctx}: tier");
            }
            // The nibble boundary is 4.7 M columns: one batch size there.
            let batches: &[usize] = if cols > 1 << 20 { &[1] } else { &[1, 16] };
            for &n in batches {
                let signs: &[f32] = if q == Quantizer::Sbm {
                    &[1.0, -1.0]
                } else {
                    &[1.0]
                };
                for &sign in signs {
                    let x = Tensor::full(&[n, cols], sign);
                    let bw = BitWidth::new(bits);
                    let codes = q.activation_codes(&x.data()[..cols], bw).unwrap();
                    let shift = match (&g.kernel, &g.storage) {
                        (KernelWeights::Words(_), Storage::Nibble(_)) => 8,
                        _ => 0,
                    };
                    let got = exec_ops(&ops, &x, per_sample(bw, q), None);
                    let tier =
                        with_fused_gemm(false, || exec_ops(&ops, &x, per_sample(bw, q), None));
                    assert_bits_eq(&got, &tier, &format!("{ctx} n {n}: fused vs tier"));
                    for row in 0..2 {
                        let (want, peak) = oracle(g, row, &codes.codes, codes.scale, shift);
                        if matches!(g.kernel, KernelWeights::Words(_)) {
                            assert!(peak <= i128::from(i32::MAX), "{ctx}: fused peak {peak}");
                        }
                        for i in 0..n {
                            let y = got.data()[i * 2 + row];
                            assert_eq!(
                                y.to_bits(),
                                want.to_bits(),
                                "{ctx} n {n} sample {i} row {row}"
                            );
                        }
                    }
                }
            }
        }
    }
}
