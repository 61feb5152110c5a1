//! Hot-reload overhead on the wall-clock serving loop.
//!
//! Three kinds of entries share the `BENCH_reload.json` snapshot:
//!
//! * `reload_swap_latency` — wall time for one `ModelRegistry::publish`
//!   pointer swap (version allocation + lock + epoch bump), averaged
//!   over a burst of publishes. This is the registry's whole write cost;
//!   workers pay one atomic epoch load per batch to observe it.
//! * `reload_off` — sustained service time per request
//!   (`elapsed / served`) for `serve_wallclock_registry` over a
//!   single-version registry that never publishes: the degenerate
//!   configuration that must price like plain `serve_wallclock`.
//! * `reload_on` — the same run with an equivalent-weights candidate
//!   published mid-drain from a publisher thread. The swap re-pins every
//!   worker (an O(1) Arc clone each at the next batch boundary), so the
//!   throughput dip is bounded: `bench_check` enforces
//!   `reload_on / reload_off ≤ 1.1×` — hot reload is supposed to be
//!   bookkeeping on top of serving, not a second serving path. (`reload_wall_{off,on}` record the criterion
//!   wall-time medians of the same two runs, for the cross-run history.)

use criterion::{criterion_group, criterion_main, Criterion};
use instantnet::registry::ModelRegistry;
use instantnet::runtime::{EnergyTrace, Policy, RequestTrace, SimulationConfig};
use instantnet::wallclock::{serve_wallclock_registry, WallclockConfig};
use instantnet::{faults::FaultPlan, DeploymentReport, OperatingPoint};
use instantnet_infer::PackedModel;
use instantnet_nn::blocks::ConvBnAct;
use instantnet_nn::layers::{Activation, GlobalAvgPool, QuantLinear};
use instantnet_nn::Sequential;
use instantnet_quant::{BitWidth, BitWidthSet, Quantizer};
use instantnet_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Same stem + quantized-head CNN as the serving benches.
fn serving_cnn(rng: &mut StdRng) -> Sequential {
    let mut body = Sequential::new();
    body.push(Box::new(ConvBnAct::new(
        rng,
        "stem",
        3,
        8,
        3,
        2,
        1,
        1,
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
        1,
        Activation::Relu,
        true,
    )));
    body.push(Box::new(GlobalAvgPool));
    body.push(Box::new(QuantLinear::new(rng, "fc1", 32, 256)));
    body.push(Box::new(QuantLinear::new(rng, "fc2", 256, 256)));
    body.push(Box::new(QuantLinear::new(rng, "fc3", 256, 10)));
    body
}

fn report_4bit() -> DeploymentReport {
    DeploymentReport::new(
        "reload-bench",
        1,
        vec![OperatingPoint {
            bits: BitWidth::new(4),
            accuracy: 0.6,
            energy_pj: 10.0,
            latency_s: 1e-3,
            edp: 1e-2,
            fps: 1000.0,
        }],
    )
}

fn bench_reload(c: &mut Criterion) {
    let bits = BitWidthSet::new(vec![4]).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let net = serving_cnn(&mut rng);
    let model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
    let report = report_4bit();
    let inputs: Vec<Tensor> = (0..4)
        .map(|_| init::uniform(&mut rng, &[1, 3, 8, 8], -1.0, 1.0))
        .collect();

    // Swap latency: the registry's whole write path, measured directly.
    // Each publish allocates the version, takes the lock, swaps the
    // stable Arc, and bumps the epoch — the model itself is an O(1)
    // clone over shared packed tables.
    let swaps = 256u32;
    let registry = ModelRegistry::new(model.clone(), "v0");
    let start = Instant::now();
    for k in 0..swaps {
        registry
            .publish(model.clone(), format!("v{k}"), None)
            .expect("compatible publish");
    }
    let swap_ns = start.elapsed().as_nanos() as f64 / f64::from(swaps);
    c.record_metric("reload_swap_latency", swap_ns);

    // Throughput dip: the same 192-request burst as the wallclock bench,
    // served with and without a mid-drain publish.
    let steps = 4;
    let total = 192usize;
    let trace = EnergyTrace::new(vec![15.0; steps]);
    let mut arrivals = vec![0usize; steps];
    arrivals[0] = total;
    let requests = RequestTrace::new(arrivals);
    let wall = WallclockConfig {
        workers: 2,
        max_batch: 16,
        step_time: Duration::from_millis(1),
        ..WallclockConfig::default()
    };
    let run = |publish: bool| {
        let registry = ModelRegistry::new(model.clone(), "stable");
        std::thread::scope(|s| {
            let reg = &registry;
            let candidate = model.clone();
            let publisher = publish.then(|| {
                s.spawn(move || {
                    // Land inside the drain: the burst takes well over a
                    // millisecond of forwards to clear.
                    std::thread::sleep(Duration::from_micros(500));
                    reg.publish(candidate, "swapped", None)
                        .expect("compatible publish");
                })
            });
            let out = serve_wallclock_registry(
                &report,
                &trace,
                &requests,
                Policy::Greedy,
                &SimulationConfig::default(),
                &wall,
                reg,
                &FaultPlan::none(),
                &inputs,
            )
            .expect("bench config is valid");
            if let Some(p) = publisher {
                p.join().expect("publisher never panics");
            }
            out
        })
    };

    // One-shot wall-clock runs are scheduler-noisy; the gated sustained
    // metrics take the median of several full drains so the 1.1× ceiling
    // compares steady-state service time, not one lucky (or unlucky) run.
    let sustained = |publish: bool| {
        let mut per_request: Vec<f64> = (0..9)
            .map(|_| {
                let (stats, _) = run(publish);
                assert_eq!(stats.served_requests, total, "burst must fully drain");
                stats.elapsed_us as f64 * 1e3 / stats.served_requests as f64
            })
            .collect();
        per_request.sort_by(f64::total_cmp);
        per_request[per_request.len() / 2]
    };
    for (name, wall_name, publish) in [
        ("reload_off", "reload_wall_off", false),
        ("reload_on", "reload_wall_on", true),
    ] {
        c.bench_function(wall_name, |b| b.iter(|| std::hint::black_box(run(publish))));
        c.record_metric(name, sustained(publish));
    }
}

criterion_group! {
    name = reload;
    config = Criterion::default().sample_size(10);
    targets = bench_reload
}
criterion_main!(reload);
