//! Kernel-path equivalence tests that need the private entry points: both
//! orientations of the depthwise kernel against the generic grouped-GEMM path
//! (integer tiers) and against a per-pixel reference loop (f32 fallback); the
//! batch-invariance matrix (every sample of a batch against its batch-of-one
//! forward, on every route); and the pack-time overflow bounds — tiers and
//! word periods — against an i128 oracle at their boundaries.

use super::*;
use crate::pack::{gemm_words, pack_plan};
use crate::plan::{exec_ops, Kind, Plan};
use crate::route::dw_lanes;
use crate::simd::kernels;
use crate::simd::with_simd_backend;
use crate::SimdBackend;
use crate::{Accum, PackedOp};
use instantnet_nn::plan::PlanOp;
use instantnet_parallel::with_threads;
use instantnet_quant::BitWidthSet;
use instantnet_tensor::Tensor;
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

/// `g` as one conv over `groups` groups of `c` input channels in `geom`'s
/// window.
fn conv_op(g: &PackedGemm, geom: &ConvGeom, groups: usize, c: usize) -> PackedOp {
    PackedOp::Conv {
        gemm: Arc::new(g.clone()),
        cg: c / groups,
        r: geom.kh,
        s: geom.kw,
        stride: geom.stride,
        pad: geom.pad,
        groups,
        quantize_input: true,
    }
}

/// `g` as one conv of `groups` over `x`, routed as the plan routes it.
fn exec_conv(g: &PackedGemm, geom: &ConvGeom, groups: usize, x: &Tensor, rule: ActRule) -> Tensor {
    exec_ops(&[conv_op(g, geom, groups, x.dims()[1])], x, rule, None)
}

/// A depthwise layer on tier `T`: [`Depthwise`] against its tap table.
fn on_tier<T: Tier>(g: &PackedGemm, geom: &ConvGeom, x: &Tensor, rule: ActRule) -> Tensor {
    let c = x.dims()[1];
    let ops = [conv_op(g, geom, c, c)];
    let mut plan = Plan::compile(&ops, x.dims(), kernels(), &Default::default(), false);
    let Kind::Depthwise(_, run) = &mut plan.steps[0].kind else {
        panic!("a depthwise layer with a tap table plans a depthwise step");
    };
    *run = depthwise::<T>;
    plan.run(x, rule, None)
}

/// `g`'s re-centered weight codes, `[rows, cols]`, decoded from its storage.
fn codes(g: &PackedGemm) -> Vec<i32> {
    let mut d = vec![0i32; g.rows * g.cols];
    for (row, out) in d.chunks_mut(g.cols).enumerate() {
        g.storage.decode_row_scalar(row, g.cols, out);
    }
    d
}

/// The depthwise shape matrix: planes from 1×1 to 16×16 × stride × pad ×
/// kernel, with channels, batch and quantizer rotating through their values
/// (pruned so the suite runs in seconds), at every `large_range()` width.
/// Both SIMD orientations and the boundary between them (7- vs 8-wide output
/// rows) must equal the per-pixel f32 oracle on the f32 fallback (at 24 bits
/// with fake-quantized activations, at 32 with raw ones) and the
/// grouped-GEMM path in every valid tier, on bits, at 1 and 3 threads — the
/// last case above `PAR_FLOP_THRESHOLD`, where the plane split is live. The
/// grouped GEMM runs the layer's GEMM route: weight words up to 15 bits,
/// `Tier(I64)` at 16.
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
        for bits in [4u8, 8, 12, 16, 24, 32] {
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
            let routed =
                |threads: usize| with_threads(threads, || exec_conv(&gemm, &geom, c, &x, rule));
            if let Storage::F32(wdata) = &gemm.storage {
                let xq = fake_quantized(&x, rule);
                let want = depthwise_per_pixel(wdata, &gemm, k, stride, pad, &xq);
                assert_bits_eq(&routed(1), &want, &format!("f32: {ctx}"));
                assert_bits_eq(&routed(3), &want, &format!("f32, 3 threads: {ctx}"));
                continue;
            }
            assert!(matches!(gemm.kernel, KernelWeights::Taps(ref t) if t.len() == c * k * k));
            assert_eq!(gemm.has_offset, q == Quantizer::Dorefa, "{ctx}");
            // Same codes without the tap table: the plan runs the grouped
            // patch-matrix GEMM (one row per group).
            let d = codes(&gemm);
            let max_code_abs = d.iter().map(|c| c.abs()).max().unwrap_or(0);
            let generic = PackedGemm {
                kernel: gemm_words(
                    &d,
                    gemm.cols,
                    &gemm.storage,
                    max_code_abs,
                    BitWidth::new(bits),
                ),
                ..gemm.clone()
            };
            let want = exec_conv(&generic, &geom, c, &x, rule);
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

/// `x` fake-quantized as `rule` quantizes a layer's input, through the
/// quantizer's tensor entry point: the whole batch on one grid, or each
/// sample on its own.
fn fake_quantized(x: &Tensor, rule: ActRule) -> Tensor {
    let n = x.dims()[0];
    let (bits, q) = (rule.bits, rule.quantizer);
    match rule.aq {
        ActQuant::PerBatch => q.quantize_activations_tensor(x, bits),
        ActQuant::PerSample => {
            let per: Vec<f32> = (0..n)
                .flat_map(|i| {
                    q.quantize_activations_tensor(&samples(x, i..i + 1), bits)
                        .data()
                        .to_vec()
                })
                .collect();
            Tensor::from_vec(x.dims().to_vec(), per)
        }
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
            // 24 bits: the f32 fallback with fake-quantized activations.
            let widths = BitWidthSet::large_range().widths().to_vec();
            for bw in widths.into_iter().chain([BitWidth::new(24)]) {
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
    with_simd_backend(SimdBackend::Scalar, || check("forced scalar"));
}

/// i128 oracle of one output of layer `g`: `Σ d·a` and `Σ a` over the
/// stored weight codes `d` of `row` and one sample's activation codes `a`,
/// dequantized as the engine does. Also returns the largest magnitude one
/// fused kernel call meets: the shifted-code sum over each period of the
/// words (`shift` on every weight code), and where one call takes the whole
/// row the `shift·colsum` correction.
fn oracle(g: &PackedGemm, row: usize, a: &[i32], sa: f32, shift: i128) -> (f32, i128) {
    let d = &codes(g)[row * g.cols..][..g.cols];
    let wide = |v: i32| i128::from(v);
    let acc: i128 = d.iter().zip(a).map(|(&d, &a)| wide(d) * wide(a)).sum();
    let colsum: i128 = a.iter().map(|&a| wide(a)).sum();
    let y = if g.has_offset {
        sa * (g.scale[row] * acc as f32 + g.colsum_coef[row] * colsum as f32) + g.bias[row]
    } else {
        sa * g.scale[row] * acc as f32 + g.bias[row]
    };
    let KernelWeights::Words { words, period } = &g.kernel else {
        return (y, 0);
    };
    let lanes = g.cols.div_ceil(words.len() / g.rows) * period;
    let call = |(d, a): (&[i32], &[i32])| -> i128 {
        d.iter()
            .zip(a)
            .map(|(&d, &a)| (wide(d) + shift) * wide(a))
            .sum()
    };
    let calls = d.chunks(lanes).zip(a.chunks(lanes));
    let peak = calls.map(|c| call(c).abs()).max().unwrap_or(0);
    let correction = if g.cols <= lanes {
        (shift * colsum).abs()
    } else {
        0
    };
    (y, peak.max(correction))
}

/// Worst-case linear layers at each pack-time boundary, and one reduction
/// row either side: whatever the packer admits to a tier, or to one kernel
/// call on its weight words, computes the exact sum at any batch size, and
/// what it refuses gets the next tier — or its row in periods, folded into
/// i64. Every ≤ 15-bit GEMM carries words on every CPU, and one call never
/// meets more than `i32::MAX / 2`.
#[test]
fn admitted_layers_never_overflow_and_refused_ones_change_route() {
    let lane_limit = 1i128 << 24;
    let i32_limit = i128::from(i32::MAX) / 2;
    // (bits, quantizer, per-lane worst case of the bound under test, limit,
    //  lanes per weight word where the bound is a words' period)
    for (bits, q, term, limit, group) in [
        (8u8, Quantizer::Sbm, 127 * 255, lane_limit - 1, None),
        (8, Quantizer::Dorefa, 128 * 255, lane_limit - 1, None),
        (4, Quantizer::Sbm, 7 * 15, lane_limit - 1, None),
        (4, Quantizer::Dorefa, 8 * 15, lane_limit - 1, None),
        (2, Quantizer::Sbm, 3, lane_limit - 1, None),
        (2, Quantizer::Dorefa, 2 * 3, lane_limit - 1, None),
        (12, Quantizer::Sbm, 2047 * 4095, i32_limit, None),
        (8, Quantizer::Sbm, 127 * 255, i32_limit, Some(2)),
        (8, Quantizer::Dorefa, 128 * 255, i32_limit, Some(2)),
        (4, Quantizer::Sbm, 15 * 15, i32_limit, Some(4)),
    ] {
        // A period's worth of columns, for the word rows.
        let boundary = match group {
            Some(group) => (limit / (group * term)) as usize * group as usize,
            None => (limit / term) as usize,
        };
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
            let KernelWeights::Words { words, period } = &g.kernel else {
                panic!("{ctx}: a ≤ 15-bit GEMM without words");
            };
            if let Some(group) = group {
                let one_call = g.cols.div_ceil(group as usize) <= *period;
                assert_eq!(one_call, admitted, "{ctx}: one call per row");
                assert_eq!(words.len(), 2 * g.cols.div_ceil(group as usize));
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
                    assert_exact(g, &ops, &x, BitWidth::new(bits), q, &ctx);
                }
            }
        }
    }
}

/// Runs the one-GEMM `ops` on `x` (every sample the same) on the dispatched
/// and the scalar tables, and checks every output against the i128 oracle
/// and every kernel call against `i32::MAX / 2`.
fn assert_exact(
    g: &PackedGemm,
    ops: &[PackedOp],
    x: &Tensor,
    bw: BitWidth,
    q: Quantizer,
    ctx: &str,
) {
    let (n, cols) = (x.dims()[0], g.cols);
    let codes = q.activation_codes(&x.data()[..cols], bw).unwrap();
    let shift = match &g.storage {
        Storage::Nibble(_) => 8,
        _ => 0,
    };
    let got = exec_ops(ops, x, per_sample(bw, q), None);
    let scalar = with_simd_backend(SimdBackend::Scalar, || {
        exec_ops(ops, x, per_sample(bw, q), None)
    });
    assert_bits_eq(&got, &scalar, &format!("{ctx} n {n}: dispatched vs scalar"));
    for row in 0..g.rows {
        let (want, peak) = oracle(g, row, &codes.codes, codes.scale, shift);
        assert!(
            peak <= i128::from(i32::MAX) / 2,
            "{ctx}: one call meets {peak}"
        );
        for i in 0..n {
            let y = got.data()[i * g.rows + row];
            assert_eq!(
                y.to_bits(),
                want.to_bits(),
                "{ctx} n {n} sample {i} row {row}"
            );
        }
    }
}

/// The word period at 12 and 15 bits, where it is shorter than a row: the
/// packer's period is the most words whose worst-case partial sums — every
/// lane's weight and activation code at its largest magnitude — stay inside
/// `i32::MAX / 2`, and rows of one word fewer, exactly one period, one word
/// more and two periods and a word equal the i128 oracle at those
/// magnitudes, all signs equal (every call at its bound) and random, on the
/// dispatched and the scalar tables, at batch 1 (the thin kernels where the
/// table has them and the period is whole vector steps) and 16 (the column
/// kernels).
#[test]
fn word_periods_are_exact_at_their_boundary_on_every_table() {
    let mut rng = StdRng::seed_from_u64(0x9E41);
    let limit = i128::from(i32::MAX) / 2;
    for bits in [12u8, 15] {
        for q in [Quantizer::Sbm, Quantizer::Dorefa] {
            let bw = BitWidth::new(bits);
            // The period of a worst-case two-column layer.
            let probe = pack(
                &[PlanOp::Linear {
                    name: "fc".into(),
                    weight: Tensor::full(&[1, 2], 1.0),
                    bias: Tensor::zeros(&[1]),
                }],
                bits,
                q,
            );
            let KernelWeights::Words { period, .. } = gemm_of(&probe).kernel else {
                panic!("{bits}b {q:?}: no words");
            };
            // The largest re-centered weight code of the grid, and activation.
            let wc = q.weight_codes(&Tensor::zeros(&[1, 1]), bw).unwrap();
            let cb = (wc.code_min + wc.code_max + 1).div_euclid(2);
            let max_w = (wc.code_min - cb).abs().max((wc.code_max - cb).abs());
            let per_word = 2 * i128::from(max_w) * ((1i128 << bits) - 1);
            let ctx = format!("{bits}b {q:?} period {period}");
            assert!(
                period as i128 * per_word <= limit,
                "{ctx}: overflows one call"
            );
            assert!(
                (period as i128 + 1) * per_word > limit,
                "{ctx}: not the most words"
            );
            let mut lengths = vec![period, period + 1, 2 * period + 1];
            lengths.extend((period > 1).then(|| period - 1));
            for words in lengths {
                let cols = 2 * words;
                // Every sign +1 (the partial sums at their bound), then random.
                for (n, random) in [(1usize, false), (16, false), (1, true), (16, true)] {
                    let signs = |rng: &mut StdRng, len| -> Vec<f32> {
                        (0..len)
                            .map(|_| [1.0, -1.0][if random { rng.gen_range(0..2usize) } else { 0 }])
                            .collect()
                    };
                    let plan = [PlanOp::Linear {
                        name: "fc".into(),
                        weight: Tensor::from_vec(vec![3, cols], signs(&mut rng, 3 * cols)),
                        bias: Tensor::from_vec(vec![3], vec![0.25, -0.5, 0.0]),
                    }];
                    let ops = pack(&plan, bits, q);
                    // Every sample the same random signs: one oracle.
                    let sample = signs(&mut rng, cols);
                    let x = Tensor::from_vec(vec![n, cols], sample.repeat(n));
                    let ctx = format!("{ctx}: {words} words");
                    assert_exact(gemm_of(&ops), &ops, &x, bw, q, &ctx);
                }
            }
        }
    }
}

/// The f32 fallback (24 bits: fake-quantized activations and weights; 32:
/// raw ones; a raw-input stem at both) against a naive oracle, bit for bit:
/// per output `scale · Σ w·a + bias`, one chain over the reduction in
/// ascending order from `+0.0`, zero weights skipped (on these finite
/// values the same as skipping zero activations), weights fake-quantized by
/// the quantizer's tensor entry point — on a 3×3 conv, a grouped conv, a
/// pointwise conv on a map of a register's pixels and on one of fewer (the
/// route's rows in the lanes), and linears, at batch 1 and above, per
/// batch and per sample.
#[test]
fn f32_fallback_equals_an_ascending_chain_oracle_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xF32);
    // (name, plan, per-sample input dims)
    let mut layers: Vec<(&str, Vec<PlanOp>, Vec<usize>)> = vec![
        (
            "3x3 s2 p1",
            conv_plan(&mut rng, 5, 8, 3, 2, 1, 1, true),
            vec![5, 7, 6],
        ),
        (
            "groups 2",
            conv_plan(&mut rng, 6, 8, 3, 1, 1, 2, true),
            vec![6, 5, 4],
        ),
        (
            "pointwise",
            conv_plan(&mut rng, 12, 9, 1, 1, 0, 1, true),
            vec![12, 4, 3],
        ),
        (
            "pointwise on 2x2",
            conv_plan(&mut rng, 12, 9, 1, 1, 0, 1, true),
            vec![12, 2, 2],
        ),
        (
            "raw stem",
            conv_plan(&mut rng, 3, 8, 3, 2, 1, 1, false),
            vec![3, 9, 8],
        ),
    ];
    for (name, (rows, cols)) in [("linear", (11, 37)), ("linear 300->29", (29, 300))] {
        let linear = PlanOp::Linear {
            name: "fc".into(),
            weight: uniform(&mut rng, &[rows, cols], -1.0, 1.0),
            bias: uniform(&mut rng, &[rows], -0.5, 0.5),
        };
        layers.push((name, vec![linear], vec![cols]));
    }
    for (name, plan, dims) in &layers {
        for q in [Quantizer::Sbm, Quantizer::Dorefa] {
            for bits in [24u8, 32] {
                let ops = pack(plan, bits, q);
                let g = gemm_of(&ops);
                let Storage::F32(_) = g.storage else {
                    panic!("{name} at {bits} bits is not on the f32 fallback");
                };
                let weight = match &plan[0] {
                    PlanOp::Conv { weight, .. } | PlanOp::Linear { weight, .. } => weight,
                    other => panic!("unexpected plan op {other:?}"),
                };
                let w = q.quantize_weights_tensor(weight, BitWidth::new(bits));
                for n in [1usize, 3, 16] {
                    let mut full = vec![n];
                    full.extend(dims);
                    let x = uniform(&mut rng, &full, -0.4, 1.3);
                    for aq in [ActQuant::PerBatch, ActQuant::PerSample] {
                        let rule = ActRule {
                            bits: BitWidth::new(bits),
                            quantizer: q,
                            aq,
                        };
                        let got = exec_ops(&ops, &x, rule, None);
                        let a = match &ops[0] {
                            PackedOp::Conv {
                                quantize_input: false,
                                ..
                            } => x.clone(),
                            _ => fake_quantized(&x, rule),
                        };
                        let want = naive_f32(&plan[0], w.data(), g, &a);
                        let ctx = format!("{name} {q:?} {bits}b n {n} {aq:?}");
                        assert_bits_eq(&got, &want, &ctx);
                    }
                }
            }
        }
    }
}

/// The naive f32 conv or linear of `plan` on activations `a`, weights `w`
/// (row-major `[rows, cols]`) and `g`'s folded scale and bias.
fn naive_f32(plan: &PlanOp, w: &[f32], g: &PackedGemm, a: &Tensor) -> Tensor {
    let (rows, cols, n) = (g.rows, g.cols, a.dims()[0]);
    let chain = |row: usize, act: &dyn Fn(usize) -> f32| {
        let mut acc = 0.0f32;
        for (p, &wv) in w[row * cols..(row + 1) * cols].iter().enumerate() {
            if wv != 0.0 {
                acc += wv * act(p);
            }
        }
        g.scale[row] * acc + g.bias[row]
    };
    let PlanOp::Conv {
        weight,
        stride,
        pad,
        groups,
        ..
    } = plan
    else {
        let out = (0..n)
            .flat_map(|i| (0..rows).map(move |row| (i, row)))
            .map(|(i, row)| chain(row, &|p| a.data()[i * cols + p]))
            .collect();
        return Tensor::from_vec(vec![n, rows], out);
    };
    let (cg, r, s) = (weight.dims()[1], weight.dims()[2], weight.dims()[3]);
    let (c, h, wd) = (a.dims()[1], a.dims()[2], a.dims()[3]);
    let geom = ConvGeom::new(h, wd, r, s, *stride, *pad);
    let mut out = Vec::with_capacity(n * rows * geom.oh * geom.ow);
    for i in 0..n {
        for row in 0..rows {
            let c0 = row / (rows / groups) * cg;
            for (oy, ox) in (0..geom.oh).flat_map(|oy| (0..geom.ow).map(move |ox| (oy, ox))) {
                out.push(chain(row, &|p| {
                    let (ci, ki, kj) = (p / (r * s), p / s % r, p % s);
                    let iy = (oy * stride + ki) as isize - *pad as isize;
                    let ix = (ox * stride + kj) as isize - *pad as isize;
                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= wd as isize {
                        return 0.0;
                    }
                    a.data()[((i * c + c0 + ci) * h + iy as usize) * wd + ix as usize]
                }));
            }
        }
    }
    Tensor::from_vec(vec![n, rows, geom.oh, geom.ow], out)
}
