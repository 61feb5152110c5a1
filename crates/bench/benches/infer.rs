//! Criterion micro-benchmarks of the packed integer inference engine
//! against the f32 fake-quant reference path, plus the cost of a bit-width
//! switch (a pointer swap on the packed path).
//!
//! Kernel-bound entries come in pairs: the plain name runs the default
//! SIMD dispatch (AVX2 where detected), and the `_scalar` twin forces the
//! portable kernels via `with_simd_backend` — `bench_check` floors the
//! scalar/SIMD ratio on AVX2 hosts. The ≤8-bit tiers add a `_widen` twin
//! that disables the fused multiply-on-packed-codes kernels via
//! `with_fused_gemm(false)` (the PR 6 decode-then-multiply path), so the
//! fused speedup is floored within-run too. The batch-1 MobileNetV2-block
//! pair (4-bit packed vs the 32-bit f32 fallback) is the regime where
//! activation quantize and depthwise — not GEMM — dominate; `bench_check`
//! ceilings 4-bit at 1.0× the 32-bit forward. The whole-model entries run
//! the serving stack's two networks as a worker does (`forward_batch_at`,
//! one kernel thread): the cheap CNN at batch 1 and 16 — `bench_check`
//! ceilings the batch-16 forward at a quarter of sixteen batch-1 forwards,
//! the amortization a batch exists to buy — and MobileNetV2 at batch 8.
//! The small-plane entries are the layers that own a batch-1 MobileNetV2
//! forward (`forward_batch_at`, one kernel thread): depthwise on 4×4 and
//! 2×2 planes and at stride 2, whose channels — not pixels — fill the SIMD
//! lanes, and GEMMs with fewer columns than one column block (a 2×2
//! pointwise, a small-batch linear), whose reduction does. `bench_check`
//! ceilings one sample at 0.75× two on the 2×2 pointwise, the batch-1
//! linear at 0.5× the batch-8 one, and the 96-channel 4×4 depthwise at 3×
//! the pointwise on the same plane. The activation-emission entries time
//! one operand's quantization at 4 bits — max-abs, grid and code emission —
//! in the three layouts a batch-1 MobileNetV2 forward emits most: contiguous
//! `i8` codes, the fused kernels' 4-lane words over a 24-channel 16×16
//! sample, and the `[hw, c]` f32 operand of a 36-channel 16×16 depthwise;
//! `bench_check` floors the dispatched contiguous emission at 2× its
//! `_scalar` twin on AVX2 hosts.

use criterion::{criterion_group, criterion_main, Criterion};
use instantnet_infer::{
    emit_activation_codes, with_fused_gemm, with_simd_backend, EmitLane, Layout, PackedModel,
    SimdBackend,
};
use instantnet_nn::blocks::{ConvBnAct, InvertedResidual};
use instantnet_nn::layers::{Activation, GlobalAvgPool, QuantConv2d, QuantLinear};
use instantnet_nn::models::mobilenet_v2;
use instantnet_nn::{ForwardCtx, Module, Sequential};
use instantnet_parallel::with_threads;
use instantnet_quant::{BitWidth, BitWidthSet, Quantizer};
use instantnet_tensor::{init, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_gemm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let layer = QuantLinear::new(&mut rng, "fc", 256, 256);
    let x = init::uniform(&mut rng, &[64, 256], -0.3, 1.2);
    let bits = BitWidthSet::new(vec![4, 8, 16]).unwrap();
    let packed = PackedModel::prepack(&layer, &bits, Quantizer::Sbm).unwrap();
    c.bench_function("packed_gemm_4bit_64x256x256", |b| {
        b.iter(|| std::hint::black_box(packed.forward_at(0, &x)))
    });
    c.bench_function("packed_gemm_8bit_64x256x256", |b| {
        b.iter(|| std::hint::black_box(packed.forward_at(1, &x)))
    });
    // 16-bit lands on the i64 accumulator tier (long-reduction wide lanes).
    c.bench_function("packed_gemm_16bit_64x256x256", |b| {
        b.iter(|| std::hint::black_box(packed.forward_at(2, &x)))
    });
    // Fused kernels disabled: the widen-then-multiply path the fused
    // kernels replace for the ≤8-bit storage tiers (bit-identical output).
    c.bench_function("packed_gemm_4bit_64x256x256_widen", |b| {
        with_fused_gemm(false, || {
            b.iter(|| std::hint::black_box(packed.forward_at(0, &x)))
        })
    });
    c.bench_function("packed_gemm_8bit_64x256x256_widen", |b| {
        with_fused_gemm(false, || {
            b.iter(|| std::hint::black_box(packed.forward_at(1, &x)))
        })
    });
    // Forced-scalar twins of the three tiers (bit-identical outputs; only
    // the kernel backend differs).
    c.bench_function("packed_gemm_4bit_64x256x256_scalar", |b| {
        with_simd_backend(SimdBackend::Scalar, || {
            b.iter(|| std::hint::black_box(packed.forward_at(0, &x)))
        })
    });
    c.bench_function("packed_gemm_8bit_64x256x256_scalar", |b| {
        with_simd_backend(SimdBackend::Scalar, || {
            b.iter(|| std::hint::black_box(packed.forward_at(1, &x)))
        })
    });
    c.bench_function("packed_gemm_16bit_64x256x256_scalar", |b| {
        with_simd_backend(SimdBackend::Scalar, || {
            b.iter(|| std::hint::black_box(packed.forward_at(2, &x)))
        })
    });
    // The fake-quant path re-quantizes the weights on every forward.
    c.bench_function("fakequant_gemm_4bit_64x256x256", |b| {
        b.iter(|| {
            let mut ctx = ForwardCtx::eval(&bits, 0, Quantizer::Sbm);
            std::hint::black_box(layer.forward(&Var::constant(x.clone()), &mut ctx).value())
        })
    });
}

fn bench_conv(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let conv = QuantConv2d::new(&mut rng, "conv", 16, 32, 3, 1, 1, 1, true);
    let x = init::uniform(&mut rng, &[4, 16, 16, 16], -0.3, 1.2);
    let bits = BitWidthSet::new(vec![4, 8, 16]).unwrap();
    let packed = PackedModel::prepack(&conv, &bits, Quantizer::Sbm).unwrap();
    c.bench_function("packed_conv_4bit_4x16x16x16", |b| {
        b.iter(|| std::hint::black_box(packed.forward_at(0, &x)))
    });
    c.bench_function("packed_conv_8bit_4x16x16x16", |b| {
        b.iter(|| std::hint::black_box(packed.forward_at(1, &x)))
    });
    c.bench_function("packed_conv_16bit_4x16x16x16", |b| {
        b.iter(|| std::hint::black_box(packed.forward_at(2, &x)))
    });
    c.bench_function("packed_conv_4bit_4x16x16x16_widen", |b| {
        with_fused_gemm(false, || {
            b.iter(|| std::hint::black_box(packed.forward_at(0, &x)))
        })
    });
    c.bench_function("packed_conv_4bit_4x16x16x16_scalar", |b| {
        with_simd_backend(SimdBackend::Scalar, || {
            b.iter(|| std::hint::black_box(packed.forward_at(0, &x)))
        })
    });
    c.bench_function("packed_conv_16bit_4x16x16x16_scalar", |b| {
        with_simd_backend(SimdBackend::Scalar, || {
            b.iter(|| std::hint::black_box(packed.forward_at(2, &x)))
        })
    });
    c.bench_function("fakequant_conv_4bit_4x16x16x16", |b| {
        b.iter(|| {
            let mut ctx = ForwardCtx::eval(&bits, 0, Quantizer::Sbm);
            std::hint::black_box(conv.forward(&Var::constant(x.clone()), &mut ctx).value())
        })
    });
    // groups == C == K: the direct-tap depthwise fast path (no im2col).
    let dw = QuantConv2d::new(&mut rng, "dw", 32, 32, 3, 1, 1, 32, true);
    let xdw = init::uniform(&mut rng, &[4, 32, 16, 16], -0.3, 1.2);
    let packed_dw = PackedModel::prepack(&dw, &bits, Quantizer::Sbm).unwrap();
    c.bench_function("packed_depthwise_4bit_4x32x16x16", |b| {
        b.iter(|| std::hint::black_box(packed_dw.forward_at(0, &xdw)))
    });
    c.bench_function("packed_depthwise_4bit_4x32x16x16_scalar", |b| {
        with_simd_backend(SimdBackend::Scalar, || {
            b.iter(|| std::hint::black_box(packed_dw.forward_at(0, &xdw)))
        })
    });
}

/// The layers of a batch-1 MobileNetV2 forward whose planes are too small
/// for pixel lanes: each single layer as a serving worker runs it.
fn bench_small_planes(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    let bits = BitWidthSet::new(vec![4]).unwrap();
    let dw =
        |rng: &mut StdRng, ch, stride| QuantConv2d::new(rng, "dw", ch, ch, 3, stride, 1, ch, true);
    let pw = |rng: &mut StdRng, cin, cout| QuantConv2d::new(rng, "pw", cin, cout, 1, 1, 0, 1, true);
    let pw240 = pw(&mut rng, 240, 80);
    let fc = QuantLinear::new(&mut rng, "fc", 256, 256);
    let layers: [(&str, &dyn Module, Vec<usize>); 8] = [
        (
            "packed_depthwise_4bit_1x96x4x4",
            &dw(&mut rng, 96, 1),
            vec![1, 96, 4, 4],
        ),
        (
            "packed_depthwise_4bit_1x240x2x2",
            &dw(&mut rng, 240, 1),
            vec![1, 240, 2, 2],
        ),
        (
            "packed_depthwise_4bit_1x36x16x16_s2",
            &dw(&mut rng, 36, 2),
            vec![1, 36, 16, 16],
        ),
        (
            "packed_pointwise_4bit_1x16to96x4x4",
            &pw(&mut rng, 16, 96),
            vec![1, 16, 4, 4],
        ),
        (
            "packed_pointwise_4bit_1x240to80x2x2",
            &pw240,
            vec![1, 240, 2, 2],
        ),
        (
            "packed_pointwise_4bit_2x240to80x2x2",
            &pw240,
            vec![2, 240, 2, 2],
        ),
        ("packed_linear_4bit_1x256x256", &fc, vec![1, 256]),
        ("packed_linear_4bit_8x256x256", &fc, vec![8, 256]),
    ];
    for (name, layer, dims) in layers {
        let packed = PackedModel::prepack(layer, &bits, Quantizer::Sbm).unwrap();
        let x = init::uniform(&mut rng, &dims, -0.3, 1.2);
        c.bench_function(name, |b| {
            with_threads(1, || {
                b.iter(|| std::hint::black_box(packed.forward_batch_at(0, &x)))
            })
        });
    }
}

/// One MobileNetV2 inverted-residual block (1×1 expand ×6 → 3×3 depthwise
/// → 1×1 project, residual) at batch 1 on one kernel thread: the shape a
/// serving worker runs, where per-forward overheads outweigh the GEMM.
fn bench_mbv2_block(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let bits = BitWidthSet::new(vec![4, 32]).unwrap();
    let block = InvertedResidual::new(&mut rng, "block", 16, 16, 6, 3, 1, bits.len());
    let x = init::uniform(&mut rng, &[1, 16, 16, 16], -0.3, 1.2);
    let packed = PackedModel::prepack(&block, &bits, Quantizer::Sbm).unwrap();
    c.bench_function("packed_mbv2_block_4bit_1x16x16x16", |b| {
        with_threads(1, || {
            b.iter(|| std::hint::black_box(packed.forward_batch_at(0, &x)))
        })
    });
    c.bench_function("packed_mbv2_block_32bit_1x16x16x16", |b| {
        with_threads(1, || {
            b.iter(|| std::hint::black_box(packed.forward_batch_at(1, &x)))
        })
    });
}

/// The two served networks, batched: the benchmark's cheap CNN (f32 stem,
/// one 4-bit 3×3 conv down to a 2×2 map, three linears) at batch 1 and 16,
/// and its MobileNetV2 at batch 8.
fn bench_models(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let relu = Activation::Relu;
    let mut cnn = Sequential::new();
    cnn.push(Box::new(ConvBnAct::new(
        &mut rng, "stem", 3, 8, 3, 2, 1, 1, relu, false,
    )));
    cnn.push(Box::new(ConvBnAct::new(
        &mut rng, "conv2", 8, 32, 3, 2, 1, 1, relu, true,
    )));
    cnn.push(Box::new(GlobalAvgPool));
    cnn.push(Box::new(QuantLinear::new(&mut rng, "fc1", 32, 256)));
    cnn.push(Box::new(QuantLinear::new(&mut rng, "fc2", 256, 256)));
    cnn.push(Box::new(QuantLinear::new(&mut rng, "fc3", 256, 10)));
    let bits = BitWidthSet::new(vec![4]).unwrap();
    let cnn = PackedModel::prepack(&cnn, &bits, Quantizer::Sbm).unwrap();
    let mbv2 = mobilenet_v2(0.25, 2, 10, (16, 16), 1, 5);
    let mbv2 = PackedModel::prepack(&mbv2, &bits, Quantizer::Sbm).unwrap();
    for (name, model, dims) in [
        ("packed_cnn_4bit_1x3x8x8", &cnn, [1, 3, 8, 8]),
        ("packed_cnn_4bit_16x3x8x8", &cnn, [16, 3, 8, 8]),
        ("packed_mbv2_4bit_8x3x16x16", &mbv2, [8, 3, 16, 16]),
    ] {
        let x = init::uniform(&mut rng, &dims, -0.3, 1.2);
        c.bench_function(name, |b| {
            with_threads(1, || {
                b.iter(|| std::hint::black_box(model.forward_batch_at(0, &x)))
            })
        });
    }
}

/// One 4-bit operand's activation quantization (max-abs, grid, emission)
/// in `layout`, and its forced-scalar twin.
fn bench_emit_pair<L: EmitLane>(c: &mut Criterion, name: &str, x: &[f32], layout: Layout) {
    let (bits, n) = (BitWidth::new(4), x.len());
    let mut out = vec![L::default(); 4 * n];
    let mut run = |b: &mut criterion::Bencher| {
        b.iter(|| {
            std::hint::black_box(emit_activation_codes(
                Quantizer::Sbm,
                bits,
                x,
                &mut out,
                layout,
            ))
        })
    };
    c.bench_function(name, &mut run);
    c.bench_function(&format!("{name}_scalar"), |b| {
        with_simd_backend(SimdBackend::Scalar, || run(b))
    });
}

fn bench_emit(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let x = init::uniform(&mut rng, &[36 * 256], -0.3, 1.2);
    let x = x.data();
    let contiguous = Layout::Rows {
        width: 6144,
        pitch: 6144,
    };
    bench_emit_pair::<i8>(
        c,
        "activation_emit_4bit_contiguous_6144",
        &x[..6144],
        contiguous,
    );
    let words = Layout::Words {
        width: 256,
        pitch: 4 * 256,
    };
    bench_emit_pair::<i8>(
        c,
        "activation_emit_4bit_interleave4_24x256",
        &x[..6144],
        words,
    );
    let transposed = Layout::Transposed {
        width: 256,
        pitch: 36,
    };
    bench_emit_pair::<f32>(c, "activation_emit_4bit_transposed_36x256", x, transposed);
}

fn bench_switch(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let layer = QuantLinear::new(&mut rng, "fc", 256, 256);
    let bits = BitWidthSet::large_range();
    let mut packed = PackedModel::prepack(&layer, &bits, Quantizer::Sbm).unwrap();
    let n = bits.len();
    let mut i = 0usize;
    c.bench_function("bit_width_switch", |b| {
        b.iter(|| {
            i = (i + 1) % n;
            packed.switch_to(i).unwrap();
            std::hint::black_box(packed.active_bits())
        })
    });
}

criterion_group! {
    name = infer;
    config = Criterion::default().sample_size(20);
    targets = bench_gemm, bench_conv, bench_small_planes, bench_mbv2_block, bench_models,
        bench_emit, bench_switch
}
criterion_main!(infer);
