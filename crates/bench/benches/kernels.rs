//! Criterion micro-benchmarks of the numerical substrate: convolution
//! forward/backward, quantizers, batch norm, matmul.
//!
//! The two conv forward entries `bench_check` compares per MAC, and the
//! `*_train_step_*` entries (forward + backward, the shapes of one
//! generation step), run on one kernel thread: what they measure is the
//! kernels' arithmetic, which is also how `e2e_bench`'s `generate_deploy`
//! runs them. What a `thread::scope` spawn costs on top is that benchmark's
//! `parallel.generate_speedup`, not folded into a kernel median here.

use criterion::{criterion_group, criterion_main, Criterion};
use instantnet_parallel::with_threads;
use instantnet_quant::{BitWidth, Quantizer};
use instantnet_tensor::{init, ops, Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let a = init::uniform(&mut rng, &[64, 64], -1.0, 1.0);
    let b = init::uniform(&mut rng, &[64, 64], -1.0, 1.0);
    c.bench_function("matmul_64x64", |bench| {
        bench.iter(|| std::hint::black_box(a.matmul(&b)))
    });
}

fn bench_conv_forward(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let x = Var::constant(init::uniform(&mut rng, &[4, 16, 16, 16], -1.0, 1.0));
    let w = Var::constant(init::kaiming_uniform(&mut rng, &[32, 16, 3, 3]));
    c.bench_function("conv2d_forward_4x16x16x16", |bench| {
        with_threads(1, || {
            bench.iter(|| std::hint::black_box(ops::conv2d(&x, &w, 1, 1, 1).value()))
        })
    });
}

fn bench_conv_backward(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let x = Var::constant(init::uniform(&mut rng, &[2, 8, 12, 12], -1.0, 1.0));
    c.bench_function("conv2d_train_step_2x8x12x12", |bench| {
        bench.iter(|| {
            let w = Var::leaf(init::kaiming_uniform(&mut rng, &[16, 8, 3, 3]), true);
            let y = ops::conv2d(&x, &w, 1, 1, 1);
            y.sum().backward();
            std::hint::black_box(w.grad())
        })
    });
}

fn bench_depthwise_conv(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let x = Var::constant(init::uniform(&mut rng, &[4, 32, 16, 16], -1.0, 1.0));
    let w = Var::constant(init::kaiming_uniform(&mut rng, &[32, 1, 3, 3]));
    c.bench_function("depthwise_conv2d_4x32x16x16", |bench| {
        with_threads(1, || {
            bench.iter(|| std::hint::black_box(ops::conv2d(&x, &w, 1, 1, 32).value()))
        })
    });
}

/// One forward + backward of `y = f(x, params)` under `sum(y)`, gradients
/// reaching both the input and every parameter, on one kernel thread.
fn bench_train_step(
    c: &mut Criterion,
    name: &str,
    x: Tensor,
    params: Vec<Tensor>,
    f: impl Fn(&Var, &[Var]) -> Var,
) {
    let x = Var::leaf(x, true);
    let params: Vec<Var> = params.into_iter().map(|p| Var::leaf(p, true)).collect();
    c.bench_function(name, |bench| {
        with_threads(1, || {
            bench.iter(|| {
                f(&x, &params).sum().backward();
                std::hint::black_box((x.grad(), params[0].grad()));
                x.zero_grad();
                params.iter().for_each(Var::zero_grad);
            })
        })
    });
}

fn bench_train_steps(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    bench_train_step(
        c,
        "depthwise_train_step_4x32x16x16",
        init::uniform(&mut rng, &[4, 32, 16, 16], -1.0, 1.0),
        vec![init::kaiming_uniform(&mut rng, &[32, 1, 3, 3])],
        |x, p| ops::conv2d(x, &p[0], 1, 1, 32),
    );
    bench_train_step(
        c,
        "batch_norm2d_train_step_8x32x8x8",
        init::uniform(&mut rng, &[8, 32, 8, 8], -1.0, 1.0),
        vec![Tensor::ones(&[32]), Tensor::zeros(&[32])],
        |x, p| ops::batch_norm2d(x, &p[0], &p[1], 1e-5, None).out,
    );
    bench_train_step(
        c,
        "pointwise_conv_train_step_16x32x8x8",
        init::uniform(&mut rng, &[16, 32, 8, 8], -1.0, 1.0),
        vec![init::kaiming_uniform(&mut rng, &[64, 32, 1, 1])],
        |x, p| ops::conv2d(x, &p[0], 1, 0, 1),
    );
}

fn bench_quantizers(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let w = init::uniform(&mut rng, &[64, 256], -1.0, 1.0);
    let b4 = BitWidth::new(4);
    c.bench_function("sbm_quantize_16k_weights", |bench| {
        bench.iter(|| std::hint::black_box(Quantizer::Sbm.quantize_weights_tensor(&w, b4)))
    });
    c.bench_function("dorefa_quantize_16k_weights", |bench| {
        bench.iter(|| std::hint::black_box(Quantizer::Dorefa.quantize_weights_tensor(&w, b4)))
    });
}

fn bench_batch_norm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let x = Var::constant(init::uniform(&mut rng, &[8, 32, 8, 8], -1.0, 1.0));
    let gamma = Var::constant(Tensor::ones(&[32]));
    let beta = Var::constant(Tensor::zeros(&[32]));
    c.bench_function("batch_norm2d_8x32x8x8", |bench| {
        bench.iter(|| {
            std::hint::black_box(ops::batch_norm2d(&x, &gamma, &beta, 1e-5, None).out.value())
        })
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_matmul, bench_conv_forward, bench_conv_backward,
              bench_depthwise_conv, bench_quantizers, bench_batch_norm,
              bench_train_steps
}
criterion_main!(kernels);
