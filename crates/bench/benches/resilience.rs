//! The simulated step loop with every resilience option on.
//!
//! `resilience_chaos` pushes 48 requests through the same packed CNN as
//! the `serving` group with deadlines, a queue cap, retries with backoff,
//! step-time capacity, degradation and a seeded fault plan all active: the
//! informational upper bound of the loop's bookkeeping (it serves however
//! many requests survive its fault plan, and retries real forwards). The
//! fault-free defaults are the `serving` group's batched runs — the same
//! loop, so there is no second path to price against it.

use criterion::{criterion_group, criterion_main, Criterion};
use instantnet::faults::{FaultPlan, FaultRates};
use instantnet::resilience::{simulate_serving_resilient, DegradationConfig, ResilienceConfig};
use instantnet::runtime::{EnergyTrace, Policy, RequestTrace, ServingConfig, SimulationConfig};
use instantnet::sharding::ShardConfig;
use instantnet::{DeploymentReport, OperatingPoint};
use instantnet_infer::PackedModel;
use instantnet_nn::blocks::ConvBnAct;
use instantnet_nn::layers::{Activation, GlobalAvgPool, QuantLinear};
use instantnet_nn::Sequential;
use instantnet_quant::{BitWidthSet, Quantizer};
use instantnet_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The `serving` group's CNN — strided conv stem, global pool, and a
/// head-heavy quantized classifier — with one BN branch per bit-width so
/// the degradation controller has two real operating points to move
/// between.
fn serving_cnn(rng: &mut StdRng, n_bits: usize) -> Sequential {
    let mut body = Sequential::new();
    body.push(Box::new(ConvBnAct::new(
        rng,
        "stem",
        3,
        8,
        3,
        2,
        1,
        n_bits,
        Activation::Relu,
        false,
    )));
    body.push(Box::new(ConvBnAct::new(
        rng,
        "conv2",
        8,
        32,
        3,
        2,
        1,
        n_bits,
        Activation::Relu,
        true,
    )));
    body.push(Box::new(GlobalAvgPool));
    body.push(Box::new(QuantLinear::new(rng, "fc1", 32, 256)));
    body.push(Box::new(QuantLinear::new(rng, "fc2", 256, 256)));
    body.push(Box::new(QuantLinear::new(rng, "fc3", 256, 10)));
    body
}

fn bench_resilience(c: &mut Criterion) {
    let bits = BitWidthSet::new(vec![4, 8]).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let net = serving_cnn(&mut rng, bits.len());
    let mut model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
    let mk = |i: usize| {
        let e = 10.0 * (i + 1) as f64;
        let l = 1e-3 * (i + 1) as f64;
        OperatingPoint {
            bits: bits.widths()[i],
            accuracy: 0.55 + 0.05 * i as f32,
            energy_pj: e,
            latency_s: l,
            edp: e * l,
            fps: 1.0 / l,
        }
    };
    let report = DeploymentReport::new("resilience-bench", 1, vec![mk(0), mk(1)]);
    let inputs: Vec<Tensor> = (0..4)
        .map(|_| init::uniform(&mut rng, &[1, 3, 8, 8], -1.0, 1.0))
        .collect();
    let steps = 12;
    let trace = EnergyTrace::new(vec![100.0; steps]);
    let requests = RequestTrace::uniform(4, steps);
    let serving = ServingConfig { max_batch: 4 };
    let sim = SimulationConfig::default();

    let chaos_cfg = ResilienceConfig {
        deadline_steps: Some(4),
        max_queue_depth: Some(24),
        max_retries: 2,
        retry_backoff_steps: 1,
        step_time_s: Some(5e-3),
        degradation: Some(DegradationConfig {
            backlog_high: 6,
            backlog_low: 2,
            recovery_window: 2,
        }),
        ..ShardConfig::default()
    };
    // Transients and stalls only: injected panics would spam the bench log
    // through the panic hook (the simulator still isolates them — that
    // path is covered by the fault-injection test suite).
    let chaos_faults = FaultPlan::seeded(
        99,
        steps,
        FaultRates {
            stall: 0.1,
            transient: 0.1,
            panic: 0.0,
        },
    );
    c.bench_function("resilience_chaos", |b| {
        b.iter(|| {
            std::hint::black_box(
                simulate_serving_resilient(
                    &report,
                    &trace,
                    &requests,
                    Policy::Greedy,
                    &sim,
                    &serving,
                    &chaos_cfg,
                    &chaos_faults,
                    &mut model,
                    &inputs,
                )
                .expect("chaos config is valid"),
            )
        })
    });
}

criterion_group! {
    name = resilience;
    config = Criterion::default().sample_size(20);
    targets = bench_resilience
}
criterion_main!(resilience);
