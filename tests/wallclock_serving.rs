//! Wall-clock serving contract, and the twin table for every entry point.
//!
//! * **The twin guarantee**, one table: every serving entry point runs
//!   against the `simulate_serving_batched` reference. The simulated ones
//!   are wrappers of one step loop and match it on full stats and
//!   outcomes; a fault-free wall-clock run whose budget affords one fixed
//!   operating point completes the exact same request set with
//!   request-by-request bit-identical outputs — at every
//!   `BitWidthSet::large_range()` bit-width, worker count and queue mode
//!   (outputs depend only on input and bits, never on batching, timing,
//!   or placement). Timing assertions are lower-bound only: real threads
//!   on a loaded CI box are noisy, numerics are not.
//! * **Conservation** (proptest): arrivals == completed +
//!   completed_degraded + shed + expired + failed + backlog across
//!   worker counts × deadlines × queue caps × degradation, no matter how
//!   the wall-clock timing falls.
//! * **Degradation**: a burst deep enough to trip the controller serves
//!   degraded batches whose outputs are still bit-identical to a
//!   standalone forward at the downshifted width.
//! * **Errors**: inconsistent knobs are typed `ServingError`s, never
//!   panics or hung threads.
//!
//! The CI matrix re-runs this suite with `INSTANTNET_WALLCLOCK_WORKERS`
//! set to pin the worker count (unset, the tests sweep {1, 2, 4}),
//! `INSTANTNET_WALLCLOCK_QUEUE=shared|sharded` to pin the queue mode
//! (unset, both run), and `INSTANTNET_WALLCLOCK_CONTROLLER=on` to re-run
//! the sweep with the dynamic batch controller enabled.

use instantnet::faults::{FaultKind, FaultPlan};
use instantnet::registry::ModelRegistry;
use instantnet::resilience::{simulate_serving_resilient, RequestStatus, ServingError};
use instantnet::runtime::{
    simulate_serving_batched, EnergyTrace, Policy, RequestOutcome, RequestTrace, RuntimeStats,
    ServingConfig, SimulationConfig,
};
use instantnet::sharding::{
    simulate_serving_sharded, simulate_serving_sharded_versioned, DispatchPolicy, ShardConfig,
};
use instantnet::wallclock::{
    serve_wallclock, serve_wallclock_registry, serve_wallclock_streaming, stream_channel,
    BatchControl, QueueMode, StreamRequest, TraceIngress, WallclockConfig, WallclockDegradation,
    WallclockOutcome,
};
use instantnet::{DeploymentReport, OperatingPoint};
use instantnet_infer::PackedModel;
use instantnet_nn::models;
use instantnet_parallel::with_threads;
use instantnet_quant::{BitWidth, BitWidthSet, Quantizer};
use instantnet_tensor::{init, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Worker counts under test: the CI matrix pins one via
/// `INSTANTNET_WALLCLOCK_WORKERS`; locally the default sweeps three.
fn worker_counts() -> Vec<usize> {
    std::env::var("INSTANTNET_WALLCLOCK_WORKERS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .map_or_else(|| vec![1, 2, 4], |w| vec![w])
}

/// Queue modes under test: the CI matrix pins one via
/// `INSTANTNET_WALLCLOCK_QUEUE=shared|sharded`; unset, both run.
fn queue_modes() -> Vec<QueueMode> {
    match std::env::var("INSTANTNET_WALLCLOCK_QUEUE").ok().as_deref() {
        Some("shared") => vec![QueueMode::Shared],
        Some("sharded") => vec![QueueMode::Sharded { stealing: true }],
        _ => vec![QueueMode::Shared, QueueMode::Sharded { stealing: true }],
    }
}

/// `INSTANTNET_WALLCLOCK_CONTROLLER=on` re-runs the sweep with the
/// dynamic batch controller enabled — the twin guarantee must hold
/// whether or not the cap is being resized mid-run.
fn batch_control_env() -> Option<BatchControl> {
    (std::env::var("INSTANTNET_WALLCLOCK_CONTROLLER")
        .ok()
        .as_deref()
        == Some("on"))
    .then(BatchControl::default)
}

fn point_for(bits: BitWidth, i: usize) -> OperatingPoint {
    let e = 10.0 * (i + 1) as f64;
    let l = 1e-3 * (i + 1) as f64;
    OperatingPoint {
        bits,
        accuracy: 0.5 + 0.05 * i as f32,
        energy_pj: e,
        latency_s: l,
        edp: e * l,
        fps: 1.0 / l,
    }
}

fn report_for(bits: &BitWidthSet) -> DeploymentReport {
    let points = bits
        .widths()
        .iter()
        .enumerate()
        .map(|(i, &b)| point_for(b, i))
        .collect();
    DeploymentReport::new("test", 1, points)
}

fn distinct_inputs(rng: &mut StdRng, count: usize, dims: &[usize]) -> Vec<Tensor> {
    (0..count)
        .map(|_| init::uniform(rng, dims, -1.0, 1.0))
        .collect()
}

/// Every request accounted exactly once, per-worker sums agreeing with
/// the global stats — the invariant that must survive arbitrary timing.
fn assert_wallclock_accounting(stats: &RuntimeStats, outcomes: &[WallclockOutcome], total: usize) {
    let count = |s: RequestStatus| outcomes.iter().filter(|o| o.status == s).count();
    assert_eq!(outcomes.len(), total, "one record per arrival");
    assert_eq!(count(RequestStatus::Completed), stats.completed);
    assert_eq!(
        count(RequestStatus::CompletedDegraded),
        stats.completed_degraded
    );
    assert_eq!(count(RequestStatus::Shed), stats.shed);
    assert_eq!(count(RequestStatus::Expired), stats.expired);
    assert_eq!(count(RequestStatus::Failed), stats.failed);
    assert_eq!(count(RequestStatus::Pending), stats.backlog);
    assert_eq!(
        stats.completed
            + stats.completed_degraded
            + stats.shed
            + stats.expired
            + stats.failed
            + stats.backlog,
        total,
        "conservation: every request accounted exactly once"
    );
    assert_eq!(
        stats.served_requests,
        stats.completed + stats.completed_degraded
    );
    assert_eq!(
        stats.replicas.iter().map(|r| r.served).sum::<usize>(),
        stats.served_requests,
        "per-worker served sums to the global count"
    );
    assert_eq!(
        stats.replicas.iter().map(|r| r.batches).sum::<usize>(),
        stats.batch_histogram.iter().skip(1).sum::<usize>(),
        "per-worker batches sum to the histogram"
    );
    for r in &stats.replicas {
        assert!(
            r.max_queue_depth <= stats.max_queue_depth,
            "a shard's high-water mark cannot exceed the global one"
        );
    }
    for o in outcomes {
        match o.status {
            RequestStatus::Completed | RequestStatus::CompletedDegraded => {
                assert!(o.output.is_some() && o.bits.is_some() && o.served_us.is_some());
                assert!(o.worker.is_some());
                assert!(o.served_us.unwrap() >= o.arrived_us, "time flows forward");
            }
            _ => assert!(o.output.is_none() && o.served_us.is_none()),
        }
    }
}

/// One simulated entry point of the twin table, run under a policy.
type SimRow<'a> = &'a dyn Fn(Policy, &mut PackedModel) -> (RuntimeStats, Vec<RequestOutcome>);
/// One wall-clock entry point of the twin table.
type WallRow<'a> = &'a dyn Fn() -> (RuntimeStats, Vec<WallclockOutcome>);

/// The twin table: every serving entry point against the
/// `simulate_serving_batched` reference on one frozen request trace.
///
/// * Simulated entry points — resilient, sharded under both dispatchers,
///   and versioned over a single-version registry — must reproduce the
///   reference's full `RuntimeStats` and outcomes under a budget sweep
///   that serves every `large_range()` width and drops one step, for
///   both policies at 1 and 3 kernel threads; a 2-replica fleet must be
///   the same run with or without an explicit registry.
/// * Wall-clock entry points — `serve_wallclock`, its registry form and
///   its streaming form with a trace producer — must complete the
///   reference's request set with bit-identical outputs at every width
///   (frozen by a one-point report), worker count and queue mode, with no
///   registry activity and one generation.
#[test]
fn wallclock_twin_bit_identical_to_batched_all_bitwidths_and_worker_counts() {
    let bits = BitWidthSet::large_range();
    let net = models::small_cnn(2, 4, (6, 6), bits.len(), 11);
    let mut model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
    let steps = 12;
    let requests = RequestTrace::new((0..steps).map(|t| (t * 3 + 1) % 4).collect());
    let total = requests.total();
    let mut rng = StdRng::seed_from_u64(31);
    let inputs = distinct_inputs(&mut rng, 5, &[1, 3, 6, 6]);
    let cfg = SimulationConfig {
        switch_cost_pj: 1.5,
    };
    let serving = ServingConfig { max_batch: 4 };

    let report = report_for(&bits);
    let sweep = EnergyTrace::new(
        (0..steps)
            .map(|t| match t {
                1 => 5.0, // below the cheapest point: dropped
                _ => 10.0 * ((t % bits.len()) + 1) as f64 + 1.0,
            })
            .collect(),
    );
    let none = FaultPlan::none();
    let sim_rows: [(&str, SimRow); 4] = [
        ("resilient", &|policy, m| {
            let res = ShardConfig::default();
            simulate_serving_resilient(
                &report, &sweep, &requests, policy, &cfg, &serving, &res, &none, m, &inputs,
            )
            .unwrap()
        }),
        ("sharded, round robin", &|policy, m| {
            let shard = ShardConfig::default();
            simulate_serving_sharded(
                &report, &sweep, &requests, policy, &cfg, &serving, &shard, &none, m, &inputs,
            )
            .unwrap()
        }),
        ("sharded, least loaded", &|policy, m| {
            let shard = ShardConfig {
                dispatch: DispatchPolicy::LeastLoaded,
                ..ShardConfig::default()
            };
            simulate_serving_sharded(
                &report, &sweep, &requests, policy, &cfg, &serving, &shard, &none, m, &inputs,
            )
            .unwrap()
        }),
        ("versioned", &|policy, m| {
            let registry = ModelRegistry::new(m.clone(), "v1");
            let shard = ShardConfig::default();
            simulate_serving_sharded_versioned(
                &report,
                &sweep,
                &requests,
                policy,
                &cfg,
                &serving,
                &shard,
                &none,
                &registry,
                &mut |_, _| {},
                &inputs,
            )
            .unwrap()
        }),
    ];
    for policy in [Policy::Greedy, Policy::Hysteresis { margin: 0.08 }] {
        for threads in [1, 3] {
            let ctx = format!("{policy:?} @ {threads} threads");
            let (base_stats, base) = with_threads(threads, || {
                simulate_serving_batched(
                    &report, &sweep, &requests, policy, &cfg, &serving, &mut model, &inputs,
                )
            });
            // The reference itself: everything served, nothing resilience-,
            // cache- or fleet-specific fired, one replica, one generation.
            let served: std::collections::BTreeSet<u8> =
                base.iter().filter_map(|o| o.bits).collect();
            assert!(served.len() >= 3, "{ctx}: the sweep serves {served:?}");
            assert_eq!(base_stats.dropped, 1, "{ctx}");
            assert_eq!(base_stats.completed, base_stats.served_requests, "{ctx}");
            assert_eq!(base_stats.completed_degraded + base_stats.shed, 0, "{ctx}");
            let lost = base_stats.expired + base_stats.failed + base_stats.retried;
            assert_eq!(lost, 0, "{ctx}");
            assert_eq!(base_stats.cache_hits + base_stats.cache_misses, 0, "{ctx}");
            assert!(base_stats.degradation_events.is_empty(), "{ctx}");
            assert_eq!(base_stats.replicas.len(), 1, "{ctx}");
            assert_eq!(base_stats.replicas[0].served, base_stats.completed, "{ctx}");
            assert_eq!(base_stats.replicas[0].faulted_batches, 0, "{ctx}");
            assert_eq!(base_stats.time_per_generation, vec![(1, steps)], "{ctx}");
            assert!(base.iter().all(|o| !o.cached), "{ctx}");
            for (name, run) in &sim_rows {
                let (stats, outcomes) = with_threads(threads, || run(policy, &mut model));
                assert_eq!(stats, base_stats, "{ctx}: {name} stats");
                assert_eq!(outcomes, base, "{ctx}: {name} outcomes");
            }
            // A fleet is the same run with or without an explicit registry.
            let shard = ShardConfig {
                replicas: 2,
                ..ShardConfig::default()
            };
            let (fleet_stats, fleet) = with_threads(threads, || {
                simulate_serving_sharded(
                    &report, &sweep, &requests, policy, &cfg, &serving, &shard, &none, &model,
                    &inputs,
                )
                .unwrap()
            });
            let registry = ModelRegistry::new(model.clone(), "v1");
            let (stats, outcomes) = with_threads(threads, || {
                simulate_serving_sharded_versioned(
                    &report,
                    &sweep,
                    &requests,
                    policy,
                    &cfg,
                    &serving,
                    &shard,
                    &none,
                    &registry,
                    &mut |_, _| {},
                    &inputs,
                )
                .unwrap()
            });
            assert_eq!(stats, fleet_stats, "{ctx}: 2 replicas, versioned stats");
            assert_eq!(outcomes, fleet, "{ctx}: 2 replicas, versioned outcomes");
            assert_eq!(stats.time_per_generation, vec![(1, steps)], "{ctx}");
            outputs_match(
                &ctx,
                fleet.iter().map(|o| (o.bits, o.output.as_ref())),
                &base,
            );
        }
    }

    let step_us = 200u64;
    let flat = EnergyTrace::new(vec![100.0; steps]);
    for (i, &b) in bits.widths().iter().enumerate() {
        // A one-point report freezes the serving bit-width: the wall-clock
        // comparison is then pure numerics, no policy timing involved.
        let report = DeploymentReport::new("twin", 1, vec![point_for(b, i)]);
        let (base_stats, base) = simulate_serving_batched(
            &report,
            &flat,
            &requests,
            Policy::Greedy,
            &cfg,
            &serving,
            &mut model,
            &inputs,
        );
        assert_eq!(
            base_stats.served_requests, total,
            "{b}-bit: batched serves all"
        );
        for workers in worker_counts() {
            for queue in queue_modes() {
                let wall = WallclockConfig {
                    workers,
                    max_batch: serving.max_batch,
                    step_time: Duration::from_micros(step_us),
                    queue,
                    batch_control: batch_control_env(),
                    ..WallclockConfig::default()
                };
                let wall_rows: [(&str, WallRow); 3] = [
                    ("serve_wallclock", &|| {
                        serve_wallclock(
                            &report,
                            &flat,
                            &requests,
                            Policy::Greedy,
                            &cfg,
                            &wall,
                            &model,
                            &inputs,
                        )
                        .unwrap()
                    }),
                    ("registry", &|| {
                        let registry = ModelRegistry::new(model.clone(), "v1");
                        serve_wallclock_registry(
                            &report,
                            &flat,
                            &requests,
                            Policy::Greedy,
                            &cfg,
                            &wall,
                            &registry,
                            &none,
                            &inputs,
                        )
                        .unwrap()
                    }),
                    ("streaming", &|| {
                        let registry = ModelRegistry::new(model.clone(), "v1");
                        let trace_ingress = TraceIngress::new(&requests, wall.step_time);
                        serve_wallclock_streaming(
                            &report,
                            &flat,
                            Policy::Greedy,
                            &cfg,
                            &wall,
                            &registry,
                            &none,
                            vec![Box::new(trace_ingress)],
                            &inputs,
                        )
                        .unwrap()
                    }),
                ];
                for (name, run) in &wall_rows {
                    let ctx = format!("{b}-bit @ {workers} workers, {queue:?}, {name}");
                    let (stats, outcomes) = run();
                    // Identical completion set...
                    assert_eq!(stats.completed, total, "{ctx}");
                    assert_wallclock_accounting(&stats, &outcomes, total);
                    // ...with request-by-request bit-identical outputs.
                    outputs_match(
                        &ctx,
                        outcomes.iter().map(|o| (o.bits, o.output.as_ref())),
                        &base,
                    );
                    // Noise-tolerant timing: the producer must have paced
                    // the full schedule in real time (lower bound only —
                    // upper bounds flake on loaded machines).
                    assert!(
                        stats.elapsed_us >= (steps as u64 - 1) * step_us,
                        "{ctx}: elapsed {}us is shorter than the schedule",
                        stats.elapsed_us
                    );
                    assert!(stats.requests_per_sec > 0.0, "{ctx}");
                    assert_eq!(stats.replicas.len(), workers, "{ctx}");
                    assert_eq!(stats.shed + stats.expired + stats.failed, 0, "{ctx}");
                    assert!(
                        stats.energy_pj > 0.0 && stats.switch_energy_pj > 0.0,
                        "{ctx}: energy accounting"
                    );
                    // A degenerate registry: no activity, one generation.
                    assert_eq!(
                        (stats.reloads, stats.rollbacks, stats.canary_served),
                        (0, 0, 0),
                        "{ctx}"
                    );
                    let batches: usize = stats.replicas.iter().map(|r| r.batches).sum();
                    assert_eq!(stats.time_per_generation, vec![(1, batches)], "{ctx}");
                    assert!(stats.replicas.iter().all(|r| r.generation == 1), "{ctx}");
                }
            }
        }
    }
}

/// Request-by-request equality of (bits, output) against the reference.
fn outputs_match<'a>(
    ctx: &str,
    got: impl ExactSizeIterator<Item = (Option<u8>, Option<&'a Tensor>)>,
    reference: &[RequestOutcome],
) {
    assert_eq!(got.len(), reference.len(), "{ctx}: same request set");
    for (id, ((bits, output), want)) in got.zip(reference).enumerate() {
        assert_eq!(bits, want.bits, "{ctx}: request {id} bits");
        assert_eq!(
            output.map(Tensor::data),
            want.output.as_ref().map(Tensor::data),
            "{ctx}: request {id} output must be bit-identical"
        );
    }
}

/// The global `time_in_bits` means one thing on both clocks: the sum of
/// the per-replica (per-worker) dwell.
#[test]
fn time_in_bits_is_the_sum_over_replicas_on_both_clocks() {
    let bits = BitWidthSet::new(vec![4, 8, 32]).unwrap();
    let net = models::small_cnn(2, 4, (6, 6), bits.len(), 17);
    let model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
    let report = report_for(&bits);
    let steps = 8;
    let trace = EnergyTrace::new((0..steps).map(|t| [15.0, 25.0, 35.0][t % 3]).collect());
    let requests = RequestTrace::uniform(3, steps);
    let mut rng = StdRng::seed_from_u64(19);
    let inputs = distinct_inputs(&mut rng, 3, &[1, 3, 6, 6]);
    let summed = |stats: &RuntimeStats| {
        let mut sum = std::collections::BTreeMap::new();
        for (b, n) in stats.replicas.iter().flat_map(|r| r.time_in_bits.iter()) {
            *sum.entry(*b).or_insert(0) += n;
        }
        sum.into_iter().collect::<Vec<(u8, usize)>>()
    };
    let (sim, _) = simulate_serving_sharded(
        &report,
        &trace,
        &requests,
        Policy::Greedy,
        &SimulationConfig::default(),
        &ServingConfig { max_batch: 2 },
        &ShardConfig {
            replicas: 3,
            ..ShardConfig::default()
        },
        &FaultPlan::from_schedule([(2, FaultKind::Stall)]),
        &model,
        &inputs,
    )
    .unwrap();
    assert!(!sim.time_in_bits.is_empty(), "the simulated clock fills it");
    assert_eq!(sim.time_in_bits, summed(&sim));
    // Three replicas on 8 steps, one stalled once: 23 replica-steps.
    assert_eq!(sim.time_in_bits.iter().map(|&(_, n)| n).sum::<usize>(), 23);
    let (wall, _) = serve_wallclock(
        &report,
        &trace,
        &requests,
        Policy::Greedy,
        &SimulationConfig::default(),
        &WallclockConfig {
            workers: 2,
            max_batch: 2,
            step_time: Duration::from_micros(200),
            ..WallclockConfig::default()
        },
        &model,
        &inputs,
    )
    .unwrap();
    assert!(!wall.time_in_bits.is_empty(), "the wall clock fills it");
    assert_eq!(wall.time_in_bits, summed(&wall));
}

/// The kernel-thread knob composes: a fleet under `with_threads` splits
/// the allowance across workers and still reproduces the twin bit-for-bit.
#[test]
fn wallclock_splits_kernel_threads_across_workers_without_changing_numerics() {
    let bits = BitWidthSet::new(vec![4, 8]).unwrap();
    let net = models::small_cnn(2, 4, (6, 6), bits.len(), 19);
    let mut model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
    let report = DeploymentReport::new("twin", 1, vec![point_for(bits.widths()[1], 0)]);
    let steps = 6;
    let trace = EnergyTrace::new(vec![100.0; steps]);
    let requests = RequestTrace::uniform(2, steps);
    let mut rng = StdRng::seed_from_u64(47);
    let inputs = distinct_inputs(&mut rng, 4, &[1, 3, 6, 6]);
    let cfg = SimulationConfig::default();
    let (_, base) = simulate_serving_batched(
        &report,
        &trace,
        &requests,
        Policy::Greedy,
        &cfg,
        &ServingConfig { max_batch: 2 },
        &mut model,
        &inputs,
    );
    let (stats, outcomes) = with_threads(3, || {
        serve_wallclock(
            &report,
            &trace,
            &requests,
            Policy::Greedy,
            &cfg,
            &WallclockConfig {
                workers: 2,
                max_batch: 2,
                step_time: Duration::from_micros(200),
                ..WallclockConfig::default()
            },
            &model,
            &inputs,
        )
        .unwrap()
    });
    assert_eq!(stats.completed, requests.total());
    for (w, s) in outcomes.iter().zip(&base) {
        assert_eq!(
            w.output.as_ref().map(Tensor::data),
            s.output.as_ref().map(Tensor::data)
        );
    }
}

/// A burst deep enough to trip the hysteresis controller downshifts the
/// fleet; degraded outputs are still bit-identical to a standalone
/// forward at the downshifted width.
#[test]
fn wallclock_degradation_downshifts_under_overload_with_exact_numerics() {
    let bits = BitWidthSet::new(vec![4, 8, 32]).unwrap();
    let net = models::small_cnn(2, 4, (6, 6), bits.len(), 29);
    let model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
    let report = report_for(&bits);
    let steps = 24;
    let trace = EnergyTrace::new(vec![100.0; steps]);
    let mut arrivals = vec![0usize; steps];
    arrivals[0] = 32;
    let requests = RequestTrace::new(arrivals);
    let mut rng = StdRng::seed_from_u64(59);
    let inputs = distinct_inputs(&mut rng, 8, &[1, 3, 6, 6]);
    let (stats, outcomes) = serve_wallclock(
        &report,
        &trace,
        &requests,
        Policy::Greedy,
        &SimulationConfig::default(),
        &WallclockConfig {
            workers: 1,
            max_batch: 2,
            step_time: Duration::from_micros(500),
            degradation: Some(WallclockDegradation {
                backlog_high: 8,
                backlog_low: 2,
                recovery_window: Duration::from_micros(1),
            }),
            ..WallclockConfig::default()
        },
        &model,
        &inputs,
    )
    .unwrap();

    assert_wallclock_accounting(&stats, &outcomes, 32);
    assert_eq!(stats.served_requests, 32, "permissive run completes all");
    assert!(
        !stats.degradation_events.is_empty(),
        "a 32-deep burst against backlog_high 8 must trip the controller"
    );
    assert!(
        stats.completed_degraded >= 1,
        "at least the first batch serves below the policy's pick"
    );
    // Degradation changes which width serves, never the numerics at the
    // width that did.
    for (i, o) in outcomes.iter().enumerate() {
        let b = o.bits.unwrap();
        let idx = model.bit_widths().index_of(b.into()).unwrap();
        let reference = model.forward_at(idx, &inputs[i % inputs.len()]);
        assert_eq!(
            o.output.as_ref().unwrap().data(),
            reference.data(),
            "request {i} at {b} bits must be bit-identical"
        );
        if o.status == RequestStatus::CompletedDegraded {
            assert!(b < 32, "degraded requests serve below the top point");
        }
    }
}

/// Inconsistent knobs are typed errors — no panics, no spawned threads
/// left behind.
#[test]
fn invalid_wallclock_configs_are_typed_errors_not_panics() {
    let bits = BitWidthSet::new(vec![4, 8]).unwrap();
    let net = models::small_cnn(2, 2, (6, 6), bits.len(), 7);
    let model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
    let report = report_for(&bits);
    let mut rng = StdRng::seed_from_u64(3);
    let inputs = distinct_inputs(&mut rng, 1, &[1, 3, 6, 6]);
    let run = |wall: WallclockConfig| {
        serve_wallclock(
            &report,
            &EnergyTrace::new(vec![100.0; 2]),
            &RequestTrace::uniform(1, 2),
            Policy::Greedy,
            &SimulationConfig::default(),
            &wall,
            &model,
            &inputs,
        )
    };
    let config_cases = [
        WallclockConfig {
            workers: 0,
            ..WallclockConfig::default()
        },
        WallclockConfig {
            max_batch: 0,
            ..WallclockConfig::default()
        },
        WallclockConfig {
            step_time: Duration::ZERO,
            ..WallclockConfig::default()
        },
        WallclockConfig {
            queue_capacity: Some(0),
            ..WallclockConfig::default()
        },
        WallclockConfig {
            degradation: Some(WallclockDegradation {
                backlog_high: 2,
                backlog_low: 2,
                recovery_window: Duration::from_millis(1),
            }),
            ..WallclockConfig::default()
        },
        WallclockConfig {
            degradation: Some(WallclockDegradation {
                backlog_high: 8,
                backlog_low: 2,
                recovery_window: Duration::ZERO,
            }),
            ..WallclockConfig::default()
        },
    ];
    for wall in config_cases {
        assert!(
            matches!(run(wall.clone()), Err(ServingError::Config(_))),
            "{wall:?} must be a config error"
        );
    }

    // Mismatched trace lengths.
    assert!(matches!(
        serve_wallclock(
            &report,
            &EnergyTrace::new(vec![100.0; 3]),
            &RequestTrace::uniform(1, 2),
            Policy::Greedy,
            &SimulationConfig::default(),
            &WallclockConfig::default(),
            &model,
            &inputs,
        ),
        Err(ServingError::Config(_))
    ));
    // Empty input pool.
    assert!(matches!(
        serve_wallclock(
            &report,
            &EnergyTrace::new(vec![100.0; 2]),
            &RequestTrace::uniform(1, 2),
            Policy::Greedy,
            &SimulationConfig::default(),
            &WallclockConfig::default(),
            &model,
            &[],
        ),
        Err(ServingError::Config(_))
    ));
    // A report point the packed set can't serve fails up front.
    let wide = BitWidthSet::new(vec![4, 8, 16]).unwrap();
    assert!(matches!(
        serve_wallclock(
            &report_for(&wide),
            &EnergyTrace::new(vec![100.0; 2]),
            &RequestTrace::uniform(1, 2),
            Policy::Greedy,
            &SimulationConfig::default(),
            &WallclockConfig::default(),
            &model,
            &inputs,
        ),
        Err(ServingError::Infer(_))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// No matter how the wall-clock timing falls — worker count, queue
    /// topology, stealing, dynamic batching, queue cap, deadlines,
    /// degradation — every arrival is accounted exactly once and the
    /// per-worker sums agree with the global stats.
    #[test]
    fn conservation_holds_across_worker_counts_and_knobs(
        workers in 1usize..5,
        steps in 6usize..13,
        max_batch in 1usize..4,
        deadline_steps in prop::sample::select(vec![-1i64, 1, 2, 4]),
        cap in prop::sample::select(vec![-1isize, 1, 3, 6]),
        degrade_flag in 0usize..2,
        queue_flag in 0usize..3,
        dyn_batch in 0usize..2,
        seed in 0u64..1_000,
    ) {
        use rand::Rng;
        let bits = BitWidthSet::new(vec![4, 8, 32]).unwrap();
        let net = models::small_cnn(2, 4, (6, 6), bits.len(), 13);
        let model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
        let report = report_for(&bits);
        let mut rng = StdRng::seed_from_u64(seed);
        let arrivals: Vec<usize> = (0..steps).map(|_| rng.gen_range(0..4usize)).collect();
        let trace = EnergyTrace::new(vec![100.0; steps]);
        let requests = RequestTrace::new(arrivals);
        let total = requests.total();
        let deadline_steps = u64::try_from(deadline_steps).ok();
        let cap = usize::try_from(cap).ok();
        let degrade = degrade_flag == 1;
        let inputs = distinct_inputs(&mut rng, 3, &[1, 3, 6, 6]);
        let step_us = 300u64;
        let (stats, outcomes) = serve_wallclock(
            &report,
            &trace,
            &requests,
            Policy::Greedy,
            &SimulationConfig::default(),
            &WallclockConfig {
                workers,
                max_batch,
                step_time: Duration::from_micros(step_us),
                queue_capacity: cap,
                deadline: deadline_steps.map(|d| Duration::from_micros(d * step_us)),
                degradation: degrade.then(|| WallclockDegradation {
                    backlog_high: 4,
                    backlog_low: 1,
                    recovery_window: Duration::from_micros(step_us),
                }),
                queue: match queue_flag {
                    0 => QueueMode::Shared,
                    1 => QueueMode::Sharded { stealing: false },
                    _ => QueueMode::Sharded { stealing: true },
                },
                batch_control: (dyn_batch == 1).then(|| BatchControl {
                    target: Duration::from_micros(500),
                    headroom_pct: 50,
                    window: 2,
                    initial: 1,
                }),
                ..WallclockConfig::default()
            },
            &model,
            &inputs,
        ).unwrap();

        prop_assert_eq!(outcomes.len(), total);
        assert_wallclock_accounting(&stats, &outcomes, total);
        // Whatever completed is numerically exact, regardless of when,
        // where, and at which downshift level it was served.
        for (i, o) in outcomes.iter().enumerate() {
            if let (Some(b), Some(out)) = (o.bits, o.output.as_ref()) {
                let idx = model.bit_widths().index_of(b.into()).unwrap();
                let reference = model.forward_at(idx, &inputs[i % inputs.len()]);
                prop_assert_eq!(out.data(), reference.data(), "request {}", i);
            }
        }
    }
}

/// Shared fixture for the fault-injection tests: a one-point 8-bit
/// report, uniform arrivals, and a fault-free baseline to compare
/// outputs against.
fn fault_fixture() -> (
    DeploymentReport,
    EnergyTrace,
    RequestTrace,
    PackedModel,
    Vec<Tensor>,
) {
    let bits = BitWidthSet::new(vec![4, 8]).unwrap();
    let net = models::small_cnn(2, 4, (6, 6), bits.len(), 83);
    let model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
    let report = DeploymentReport::new("faults", 1, vec![point_for(bits.widths()[1], 0)]);
    let steps = 10;
    let trace = EnergyTrace::new(vec![100.0; steps]);
    let requests = RequestTrace::uniform(2, steps);
    let mut rng = StdRng::seed_from_u64(89);
    let inputs = distinct_inputs(&mut rng, 5, &[1, 3, 6, 6]);
    (report, trace, requests, model, inputs)
}

#[allow(clippy::too_many_arguments)]
fn run_with_faults(
    report: &DeploymentReport,
    trace: &EnergyTrace,
    requests: &RequestTrace,
    model: &PackedModel,
    inputs: &[Tensor],
    workers: usize,
    max_retries: usize,
    faults: &FaultPlan,
) -> (RuntimeStats, Vec<WallclockOutcome>) {
    let registry = ModelRegistry::new(model.clone(), "v1");
    serve_wallclock_registry(
        report,
        trace,
        requests,
        Policy::Greedy,
        &SimulationConfig::default(),
        &WallclockConfig {
            workers,
            max_batch: 2,
            step_time: Duration::from_micros(500),
            max_retries,
            ..WallclockConfig::default()
        },
        &registry,
        faults,
        inputs,
    )
    .unwrap()
}

/// Injected transient errors and panics fail only the batch they hit:
/// with retries in budget every request still completes, the faulted
/// batches and retries are counted, and outputs are bit-identical to a
/// fault-free run — a retried forward is the same forward. The plan also
/// faults the trace's last step, which every dequeue after its start is
/// clamped into, so a fault fires however late the workers first dequeue.
#[test]
fn wallclock_injected_faults_retry_and_stay_bit_identical() {
    let (report, trace, requests, model, inputs) = fault_fixture();
    let total = requests.total();
    let plan = FaultPlan::from_schedule([
        (0, FaultKind::TransientError),
        (1, FaultKind::ForwardPanic),
        (2, FaultKind::TransientError),
        (3, FaultKind::ForwardPanic),
        (trace.len() - 1, FaultKind::TransientError),
    ]);
    for workers in worker_counts() {
        let (base_stats, base) = run_with_faults(
            &report,
            &trace,
            &requests,
            &model,
            &inputs,
            workers,
            5,
            &FaultPlan::none(),
        );
        assert_eq!(base_stats.faults_injected, 0);
        let (stats, outcomes) = run_with_faults(
            &report, &trace, &requests, &model, &inputs, workers, 5, &plan,
        );
        let ctx = format!("{workers} workers");
        assert_eq!(stats.completed, total, "{ctx}: retries absorb every fault");
        assert_wallclock_accounting(&stats, &outcomes, total);
        assert!(
            stats.faults_injected >= 1,
            "{ctx}: traffic flowed through the faulted steps"
        );
        assert!(stats.faults_injected <= plan.len(), "{ctx}: one per step");
        let faulted: usize = stats.replicas.iter().map(|r| r.faulted_batches).sum();
        assert_eq!(
            faulted, stats.faults_injected,
            "{ctx}: every injected error/panic faulted exactly one batch"
        );
        assert!(
            stats.retried >= faulted,
            "{ctx}: each faulted batch retried at least one request"
        );
        for (id, (w, b)) in outcomes.iter().zip(&base).enumerate() {
            assert_eq!(
                w.output.as_ref().map(Tensor::data),
                b.output.as_ref().map(Tensor::data),
                "{ctx}: request {id} bit-identical after retry"
            );
        }
    }
}

/// An injected stall consumes no requests: the batch is handed back,
/// the step is waited out, and everything completes — the stall is
/// visible only in `stalled_steps`. The last step stalls too, so one fires
/// on any schedule (see the test above).
#[test]
fn wallclock_injected_stall_delays_but_loses_nothing() {
    let (report, trace, requests, model, inputs) = fault_fixture();
    let total = requests.total();
    let steps = (0..4).chain([trace.len() - 1]);
    let plan = FaultPlan::from_schedule(steps.map(|t| (t, FaultKind::Stall)));
    for workers in worker_counts() {
        let (stats, outcomes) = run_with_faults(
            &report, &trace, &requests, &model, &inputs, workers, 0, &plan,
        );
        let ctx = format!("{workers} workers");
        assert_eq!(stats.completed, total, "{ctx}: stalls only delay");
        assert_wallclock_accounting(&stats, &outcomes, total);
        assert!(stats.stalled_steps >= 1, "{ctx}: a stall fired");
        assert!(stats.stalled_steps <= plan.len(), "{ctx}: one per step");
        assert_eq!(
            stats.stalled_steps, stats.faults_injected,
            "{ctx}: stalls were the only faults"
        );
        let faulted: usize = stats.replicas.iter().map(|r| r.faulted_batches).sum();
        assert_eq!(faulted, 0, "{ctx}: no forward ever failed");
    }
}

/// With no retry budget, a fault-hit batch's requests fail terminally —
/// and the fault plan covers every step, so the first served batch is
/// guaranteed to hit one. Conservation still holds, and no worker dies:
/// panics are isolated per batch by `catch_unwind`.
#[test]
fn wallclock_exhausted_retries_fail_requests_without_killing_workers() {
    let (report, trace, requests, model, inputs) = fault_fixture();
    let total = requests.total();
    let plan = FaultPlan::from_schedule((0..trace.len()).map(|t| {
        if t % 2 == 0 {
            (t, FaultKind::ForwardPanic)
        } else {
            (t, FaultKind::TransientError)
        }
    }));
    for workers in worker_counts() {
        let (stats, outcomes) = run_with_faults(
            &report, &trace, &requests, &model, &inputs, workers, 0, &plan,
        );
        let ctx = format!("{workers} workers");
        assert_wallclock_accounting(&stats, &outcomes, total);
        assert!(
            stats.failed >= 1,
            "{ctx}: the first served batch consumed a fault and failed"
        );
        assert_eq!(stats.completed + stats.failed, total, "{ctx}");
        assert_eq!(stats.retried, 0, "{ctx}: no retry budget");
        assert_eq!(
            stats.replicas.len(),
            workers,
            "{ctx}: every worker survived its panics"
        );
        for o in outcomes
            .iter()
            .filter(|o| o.status == RequestStatus::Failed)
        {
            assert_eq!(o.attempts, 1, "failed on the first and only attempt");
        }
    }
}

/// Queue topology is invisible in the numerics: `Sharded` with stealing
/// off completes the identical request set with request-by-request
/// bit-identical outputs to `Shared`, and records zero steals. `Shared`
/// is the ingress queue with one shard, so every worker reports that
/// shard's high-water mark.
#[test]
fn wallclock_sharded_without_stealing_bit_identical_to_shared() {
    let bits = BitWidthSet::new(vec![4, 8]).unwrap();
    let net = models::small_cnn(2, 4, (6, 6), bits.len(), 101);
    let model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
    let report = DeploymentReport::new("twin", 1, vec![point_for(bits.widths()[1], 0)]);
    let steps = 8;
    let trace = EnergyTrace::new(vec![100.0; steps]);
    let requests = RequestTrace::uniform(3, steps);
    let total = requests.total();
    let mut rng = StdRng::seed_from_u64(103);
    let inputs = distinct_inputs(&mut rng, 6, &[1, 3, 6, 6]);
    let run = |queue: QueueMode| {
        serve_wallclock(
            &report,
            &trace,
            &requests,
            Policy::Greedy,
            &SimulationConfig::default(),
            &WallclockConfig {
                workers: 3,
                max_batch: 4,
                step_time: Duration::from_micros(200),
                queue,
                ..WallclockConfig::default()
            },
            &model,
            &inputs,
        )
        .unwrap()
    };
    let (shared_stats, shared) = run(QueueMode::Shared);
    assert_eq!(shared_stats.steals, 0, "shared mode never steals");
    let depths: Vec<usize> = shared_stats
        .replicas
        .iter()
        .map(|r| r.max_queue_depth)
        .collect();
    assert!(
        depths.iter().all(|&d| d >= 1 && d == depths[0]),
        "every worker pops the one shared shard: {depths:?}"
    );
    for queue in [
        QueueMode::Sharded { stealing: false },
        QueueMode::Sharded { stealing: true },
    ] {
        let (stats, outcomes) = run(queue);
        assert_eq!(stats.completed, total, "{queue:?}");
        assert_wallclock_accounting(&stats, &outcomes, total);
        if queue == (QueueMode::Sharded { stealing: false }) {
            assert_eq!(stats.steals, 0, "stealing off records zero steals");
        }
        for (id, (a, b)) in outcomes.iter().zip(&shared).enumerate() {
            assert_eq!(a.bits, b.bits, "{queue:?}: request {id}");
            assert_eq!(
                a.output.as_ref().map(Tensor::data),
                b.output.as_ref().map(Tensor::data),
                "{queue:?}: request {id} must be bit-identical across queue modes"
            );
        }
    }
}

/// A heavy single-step burst over sharded queues: every request is
/// conserved and numerically exact whether stealing is on or off, the
/// per-shard high-water marks are recorded, and any steals that occurred
/// land in the counter. (The deterministic "stealing halves the deepest
/// backlog and drains in fewer rounds" claim is pinned at the queue unit
/// level, where timing is controlled.)
#[test]
fn wallclock_sharded_skewed_burst_conserves_and_records_shard_depths() {
    let bits = BitWidthSet::new(vec![4, 8]).unwrap();
    let net = models::small_cnn(2, 4, (6, 6), bits.len(), 107);
    let model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
    let report = DeploymentReport::new("burst", 1, vec![point_for(bits.widths()[1], 0)]);
    let steps = 16;
    let trace = EnergyTrace::new(vec![100.0; steps]);
    let mut arrivals = vec![0usize; steps];
    arrivals[0] = 48;
    let requests = RequestTrace::new(arrivals);
    let mut rng = StdRng::seed_from_u64(109);
    let inputs = distinct_inputs(&mut rng, 8, &[1, 3, 6, 6]);
    for stealing in [false, true] {
        let (stats, outcomes) = serve_wallclock(
            &report,
            &trace,
            &requests,
            Policy::Greedy,
            &SimulationConfig::default(),
            &WallclockConfig {
                workers: 4,
                max_batch: 2,
                step_time: Duration::from_micros(300),
                queue: QueueMode::Sharded { stealing },
                ..WallclockConfig::default()
            },
            &model,
            &inputs,
        )
        .unwrap();
        let ctx = format!("stealing={stealing}");
        assert_eq!(stats.completed, 48, "{ctx}: the whole burst completes");
        assert_wallclock_accounting(&stats, &outcomes, 48);
        if !stealing {
            assert_eq!(stats.steals, 0, "{ctx}");
        }
        // Least-loaded dispatch spread a 48-deep burst over 4 shards:
        // some shard must have seen a non-trivial high-water mark, and
        // the recorded marks must be consistent with the global one.
        assert!(
            stats.replicas.iter().any(|r| r.max_queue_depth >= 1),
            "{ctx}: per-shard high-water marks are recorded"
        );
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.input, i % inputs.len(), "{ctx}: trace input convention");
            let idx = model.bit_widths().index_of(o.bits.unwrap().into()).unwrap();
            let reference = model.forward_at(idx, &inputs[o.input]);
            assert_eq!(
                o.output.as_ref().unwrap().data(),
                reference.data(),
                "{ctx}: request {i} numerically exact"
            );
        }
    }
}

/// An unreachable latency target shrinks the cap step by step to 1 and
/// the decisions land in `batch_limit_events`; outputs stay exact.
#[test]
fn wallclock_batch_controller_shrinks_to_floor_under_breach() {
    let bits = BitWidthSet::new(vec![4, 8]).unwrap();
    let net = models::small_cnn(2, 4, (6, 6), bits.len(), 113);
    let model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
    let report = DeploymentReport::new("ctl", 1, vec![point_for(bits.widths()[1], 0)]);
    let steps = 16;
    let trace = EnergyTrace::new(vec![100.0; steps]);
    let mut arrivals = vec![0usize; steps];
    arrivals[0] = 32;
    let requests = RequestTrace::new(arrivals);
    let mut rng = StdRng::seed_from_u64(127);
    let inputs = distinct_inputs(&mut rng, 4, &[1, 3, 6, 6]);
    let (stats, outcomes) = serve_wallclock(
        &report,
        &trace,
        &requests,
        Policy::Greedy,
        &SimulationConfig::default(),
        &WallclockConfig {
            workers: 1,
            max_batch: 4,
            step_time: Duration::from_micros(400),
            queue: QueueMode::Sharded { stealing: true },
            batch_control: Some(BatchControl {
                // 1µs is below any conv forward: every window breaches.
                target: Duration::from_micros(1),
                headroom_pct: 50,
                window: 1,
                initial: 4,
            }),
            ..WallclockConfig::default()
        },
        &model,
        &inputs,
    )
    .unwrap();
    assert_eq!(stats.completed, 32);
    assert_wallclock_accounting(&stats, &outcomes, 32);
    let caps: Vec<usize> = stats.batch_limit_events.iter().map(|&(_, c)| c).collect();
    assert_eq!(
        caps,
        vec![2, 1],
        "always-breaching target halves 4 → 2 → 1 and then holds the floor"
    );
}

/// An unreachably generous target grows the cap to `max_batch` and
/// holds it there — the ceiling produces no further events.
#[test]
fn wallclock_batch_controller_grows_to_max_under_slack() {
    let bits = BitWidthSet::new(vec![4, 8]).unwrap();
    let net = models::small_cnn(2, 4, (6, 6), bits.len(), 131);
    let model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
    let report = DeploymentReport::new("ctl", 1, vec![point_for(bits.widths()[1], 0)]);
    let steps = 16;
    let trace = EnergyTrace::new(vec![100.0; steps]);
    let mut arrivals = vec![0usize; steps];
    arrivals[0] = 48;
    let requests = RequestTrace::new(arrivals);
    let mut rng = StdRng::seed_from_u64(137);
    let inputs = distinct_inputs(&mut rng, 4, &[1, 3, 6, 6]);
    let (stats, outcomes) = serve_wallclock(
        &report,
        &trace,
        &requests,
        Policy::Greedy,
        &SimulationConfig::default(),
        &WallclockConfig {
            workers: 1,
            max_batch: 8,
            step_time: Duration::from_micros(400),
            batch_control: Some(BatchControl {
                // 10s of slack: every window measures well under the
                // 50% headroom line and doubles the cap.
                target: Duration::from_secs(10),
                headroom_pct: 50,
                window: 1,
                initial: 1,
            }),
            ..WallclockConfig::default()
        },
        &model,
        &inputs,
    )
    .unwrap();
    assert_eq!(stats.completed, 48);
    assert_wallclock_accounting(&stats, &outcomes, 48);
    let caps: Vec<usize> = stats.batch_limit_events.iter().map(|&(_, c)| c).collect();
    assert_eq!(
        caps,
        vec![2, 4, 8],
        "slack doubles 1 → 2 → 4 → 8, then holds"
    );
}

/// Batch-before-bits: with both controllers on and latency pressure from
/// the first batch, the batch cap shrinks to its floor *before* the
/// precision controller is allowed its first downshift.
#[test]
fn wallclock_batch_cap_shrinks_before_precision_drops() {
    let bits = BitWidthSet::new(vec![4, 8, 32]).unwrap();
    let net = models::small_cnn(2, 4, (6, 6), bits.len(), 139);
    let model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
    let report = report_for(&bits);
    let steps = 24;
    let trace = EnergyTrace::new(vec![100.0; steps]);
    let mut arrivals = vec![0usize; steps];
    arrivals[0] = 32;
    let requests = RequestTrace::new(arrivals);
    let mut rng = StdRng::seed_from_u64(149);
    let inputs = distinct_inputs(&mut rng, 8, &[1, 3, 6, 6]);
    let (stats, outcomes) = serve_wallclock(
        &report,
        &trace,
        &requests,
        Policy::Greedy,
        &SimulationConfig::default(),
        &WallclockConfig {
            workers: 1,
            max_batch: 4,
            step_time: Duration::from_micros(500),
            degradation: Some(WallclockDegradation {
                backlog_high: 4,
                backlog_low: 1,
                recovery_window: Duration::from_micros(1),
            }),
            batch_control: Some(BatchControl {
                target: Duration::from_micros(1),
                headroom_pct: 50,
                window: 1,
                initial: 4,
            }),
            ..WallclockConfig::default()
        },
        &model,
        &inputs,
    )
    .unwrap();
    assert_wallclock_accounting(&stats, &outcomes, 32);
    assert_eq!(stats.served_requests, 32);
    let floor_step = stats
        .batch_limit_events
        .iter()
        .find(|&&(_, cap)| cap == 1)
        .map(|&(step, _)| step)
        .expect("an always-breaching target must floor the cap");
    assert!(
        !stats.degradation_events.is_empty(),
        "a 32-deep burst against backlog_high 4 still trips the controller"
    );
    let first_downshift = stats.degradation_events[0].0;
    assert!(
        first_downshift >= floor_step,
        "precision must not drop (step {first_downshift}) before the batch \
         cap floors (step {floor_step})"
    );
}

/// Live ingress: requests pushed from another thread through a
/// [`stream_channel`] are served with the same numerics as a direct
/// forward, outcomes indexed by the ids `submit` handed back.
#[test]
fn wallclock_streaming_channel_serves_live_pushes_bit_identically() {
    let bits = BitWidthSet::new(vec![4, 8]).unwrap();
    let net = models::small_cnn(2, 4, (6, 6), bits.len(), 151);
    let model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
    let report = DeploymentReport::new("stream", 1, vec![point_for(bits.widths()[1], 0)]);
    let trace = EnergyTrace::new(vec![100.0; 4]);
    let mut rng = StdRng::seed_from_u64(157);
    let inputs = distinct_inputs(&mut rng, 6, &[1, 3, 6, 6]);
    let registry = ModelRegistry::new(model.clone(), "v1");
    let (sender, ingress) = stream_channel();
    let pusher = std::thread::spawn(move || {
        for i in 0..10usize {
            // Explicit input selection — reversed so the test can tell
            // "the request's chosen input" from "the id convention".
            assert!(sender.push(StreamRequest {
                input: Some(9 - i),
                deadline: None,
            }));
        }
        // Dropping the last sender ends the stream.
    });
    let (stats, outcomes) = serve_wallclock_streaming(
        &report,
        &trace,
        Policy::Greedy,
        &SimulationConfig::default(),
        &WallclockConfig {
            workers: 2,
            max_batch: 3,
            step_time: Duration::from_micros(300),
            queue: QueueMode::Sharded { stealing: true },
            ..WallclockConfig::default()
        },
        &registry,
        &FaultPlan::none(),
        vec![Box::new(ingress)],
        &inputs,
    )
    .unwrap();
    pusher.join().unwrap();
    assert_eq!(outcomes.len(), 10, "one outcome per push");
    assert_eq!(stats.completed, 10);
    assert_wallclock_accounting(&stats, &outcomes, 10);
    for (i, o) in outcomes.iter().enumerate() {
        assert_eq!(
            o.input,
            (9 - i) % inputs.len(),
            "request {i} kept its input"
        );
        let idx = model.bit_widths().index_of(o.bits.unwrap().into()).unwrap();
        let reference = model.forward_at(idx, &inputs[o.input]);
        assert_eq!(
            o.output.as_ref().unwrap().data(),
            reference.data(),
            "request {i} bit-identical to a direct forward of its input"
        );
    }
}

/// Two producers — a frozen trace replay and a live channel — drain
/// exactly once through one run: the arrival count is the sum of both,
/// conservation holds, and every outcome is numerically exact against
/// the input recorded for it.
#[test]
fn wallclock_streaming_dual_sources_drain_exactly_once() {
    let bits = BitWidthSet::new(vec![4, 8]).unwrap();
    let net = models::small_cnn(2, 4, (6, 6), bits.len(), 163);
    let model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
    let report = DeploymentReport::new("dual", 1, vec![point_for(bits.widths()[1], 0)]);
    let steps = 4;
    let trace = EnergyTrace::new(vec![100.0; steps]);
    let requests = RequestTrace::uniform(1, steps);
    let mut rng = StdRng::seed_from_u64(167);
    let inputs = distinct_inputs(&mut rng, 5, &[1, 3, 6, 6]);
    let registry = ModelRegistry::new(model.clone(), "v1");
    let wall = WallclockConfig {
        workers: 2,
        max_batch: 2,
        step_time: Duration::from_micros(300),
        queue: QueueMode::Sharded { stealing: true },
        ..WallclockConfig::default()
    };
    let (sender, ingress) = stream_channel();
    let pusher = std::thread::spawn(move || {
        for i in 0..6usize {
            assert!(sender.push(StreamRequest {
                input: Some(i),
                deadline: None,
            }));
        }
    });
    let (stats, outcomes) = serve_wallclock_streaming(
        &report,
        &trace,
        Policy::Greedy,
        &SimulationConfig::default(),
        &wall,
        &registry,
        &FaultPlan::none(),
        vec![
            Box::new(instantnet::wallclock::TraceIngress::new(
                &requests,
                wall.step_time,
            )),
            Box::new(ingress),
        ],
        &inputs,
    )
    .unwrap();
    pusher.join().unwrap();
    let total = requests.total() + 6;
    assert_eq!(outcomes.len(), total, "both producers drained exactly once");
    assert_eq!(stats.completed, total);
    assert_wallclock_accounting(&stats, &outcomes, total);
    for (i, o) in outcomes.iter().enumerate() {
        let idx = model.bit_widths().index_of(o.bits.unwrap().into()).unwrap();
        let reference = model.forward_at(idx, &inputs[o.input]);
        assert_eq!(
            o.output.as_ref().unwrap().data(),
            reference.data(),
            "request {i} exact for its recorded input"
        );
    }
}
