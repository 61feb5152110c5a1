//! Sharded serving contract: the simulated step loop over a fleet.
//!
//! * **Strictly additive**: with 1 replica, round-robin dispatch, the
//!   cache off, and no faults, `simulate_serving_sharded` reproduces
//!   `simulate_serving_batched` bit-for-bit — outputs, schedule,
//!   switches, energy, and queueing stats — across
//!   `BitWidthSet::large_range()`, both dispatchers, both policies, and
//!   1 vs N threads.
//! * **Scaling**: on a burst trace, 4 replicas drain the same queue in a
//!   fraction of the steps one replica needs, with request-by-request
//!   bit-identical outputs.
//! * **Cache**: hits are bitwise equal to recomputing, charge no energy,
//!   and reconcile with the hit/miss counters.
//! * **Fault isolation**: a `FaultPlan` aimed at one replica leaves the
//!   other replicas' completions untouched.
//! * **Conservation** (proptest over the whole merged config — replicas,
//!   dispatchers, deadlines, caps, retries with backoff, step-time
//!   capacity, degradation, cache, stealing, faults): completed +
//!   completed_degraded + shed + expired + failed + backlog == arrivals,
//!   and the per-replica stats sum to the global ones.
//!
//! Every entry point, fleets and registries included, is also pinned to
//! `simulate_serving_batched` by the twin table in
//! `tests/wallclock_serving.rs`.

use instantnet::faults::{FaultKind, FaultPlan, FaultRates};
use instantnet::resilience::{DegradationConfig, RequestStatus, ServingError};
use instantnet::runtime::{
    simulate_serving_batched, EnergyTrace, Policy, RequestTrace, ServingConfig, SimulationConfig,
};
use instantnet::sharding::{
    simulate_serving_sharded, DispatchPolicy, PinnedConfig, ShardConfig, ShardedOutcome,
};
use instantnet::{DeploymentReport, OperatingPoint};
use instantnet_infer::PackedModel;
use instantnet_nn::models;
use instantnet_parallel::with_threads;
use instantnet_quant::{BitWidthSet, Quantizer};
use instantnet_tensor::{init, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREADS: [usize; 3] = [2, 3, 7];

/// One operating point per bit-width: energy 10·(i+1), latency 1ms·(i+1),
/// accuracy ascending — same shape as the resilient suite's report.
fn report_for(bits: &BitWidthSet) -> DeploymentReport {
    let points = bits
        .widths()
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            let e = 10.0 * (i + 1) as f64;
            let l = 1e-3 * (i + 1) as f64;
            OperatingPoint {
                bits: b,
                accuracy: 0.5 + 0.05 * i as f32,
                energy_pj: e,
                latency_s: l,
                edp: e * l,
                fps: 1.0 / l,
            }
        })
        .collect();
    DeploymentReport::new("test", 1, points)
}

/// A budget trace that sweeps every operating point and includes one
/// unaffordable (dropped) step.
fn sweeping_trace(n_points: usize, steps: usize) -> EnergyTrace {
    EnergyTrace::new(
        (0..steps)
            .map(|t| {
                if t == 1 {
                    5.0
                } else {
                    10.0 * ((t % n_points) + 1) as f64 + 1.0
                }
            })
            .collect(),
    )
}

fn distinct_inputs(rng: &mut StdRng, count: usize, dims: &[usize]) -> Vec<Tensor> {
    (0..count)
        .map(|_| init::uniform(rng, dims, -1.0, 1.0))
        .collect()
}

/// The total across per-replica stats must agree with the global stats,
/// and every request must be accounted exactly once.
fn assert_sharded_accounting(
    stats: &instantnet::runtime::RuntimeStats,
    outcomes: &[ShardedOutcome],
    total: usize,
    replicas: usize,
) {
    let count = |s: RequestStatus| outcomes.iter().filter(|o| o.status == s).count();
    assert_eq!(outcomes.len(), total, "one record per arrival");
    assert_eq!(count(RequestStatus::Completed), stats.completed);
    assert_eq!(
        count(RequestStatus::CompletedDegraded),
        0,
        "sharding never degrades"
    );
    assert_eq!(count(RequestStatus::Shed), stats.shed);
    assert_eq!(count(RequestStatus::Expired), stats.expired);
    assert_eq!(count(RequestStatus::Failed), stats.failed);
    assert_eq!(count(RequestStatus::Pending), stats.backlog);
    assert_eq!(
        stats.completed + stats.shed + stats.expired + stats.failed + stats.backlog,
        total,
        "conservation: every request accounted exactly once"
    );
    assert_eq!(stats.served_requests, stats.completed);
    assert_eq!(stats.replicas.len(), replicas);
    let sum = |f: &dyn Fn(&instantnet::sharding::ReplicaStats) -> usize| {
        stats.replicas.iter().map(f).sum::<usize>()
    };
    assert_eq!(sum(&|r| r.served), stats.completed, "replica served sums");
    assert_eq!(sum(&|r| r.backlog), stats.backlog, "replica backlog sums");
    assert_eq!(sum(&|r| r.cache_hits), stats.cache_hits, "replica hit sums");
}

#[test]
fn degenerate_sharded_bit_identical_to_batched_all_bitwidths_policies_threads() {
    let bits = BitWidthSet::large_range();
    let report = report_for(&bits);
    let steps = 2 * bits.len() + 2;
    let trace = sweeping_trace(bits.len(), steps);
    let arrivals: Vec<usize> = (0..steps).map(|t| (t * 7 + 3) % 5).collect();
    let requests = RequestTrace::new(arrivals);
    let mut rng = StdRng::seed_from_u64(23);
    let inputs = distinct_inputs(&mut rng, 3, &[1, 3, 8, 8]);
    let serving = ServingConfig { max_batch: 3 };
    let cfg = SimulationConfig {
        switch_cost_pj: 2.5,
    };

    for policy in [Policy::Greedy, Policy::Hysteresis { margin: 0.08 }] {
        for dispatch in [DispatchPolicy::RoundRobin, DispatchPolicy::LeastLoaded] {
            for threads in std::iter::once(1).chain(THREADS) {
                let net = models::small_cnn(4, 6, (8, 8), bits.len(), 17);
                let mut model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
                let shard = ShardConfig {
                    dispatch,
                    ..ShardConfig::default()
                };
                let ((base_stats, base_outcomes), (sh_stats, sh_outcomes)) =
                    with_threads(threads, || {
                        let base = simulate_serving_batched(
                            &report, &trace, &requests, policy, &cfg, &serving, &mut model, &inputs,
                        );
                        let sh = simulate_serving_sharded(
                            &report,
                            &trace,
                            &requests,
                            policy,
                            &cfg,
                            &serving,
                            &shard,
                            &FaultPlan::none(),
                            &model,
                            &inputs,
                        )
                        .unwrap();
                        (base, sh)
                    });
                let ctx = format!("{policy:?} / {dispatch:?} @ {threads} threads");
                assert_eq!(sh_stats.schedule, base_stats.schedule, "{ctx}");
                assert_eq!(sh_stats.switches, base_stats.switches, "{ctx}");
                assert_eq!(sh_stats.dropped, base_stats.dropped, "{ctx}");
                assert_eq!(sh_stats.mean_accuracy, base_stats.mean_accuracy, "{ctx}");
                assert_eq!(sh_stats.energy_pj, base_stats.energy_pj, "{ctx}");
                assert_eq!(
                    sh_stats.switch_energy_pj, base_stats.switch_energy_pj,
                    "{ctx}"
                );
                assert_eq!(
                    sh_stats.served_requests, base_stats.served_requests,
                    "{ctx}"
                );
                assert_eq!(sh_stats.backlog, base_stats.backlog, "{ctx}");
                assert_eq!(
                    sh_stats.max_queue_depth, base_stats.max_queue_depth,
                    "{ctx}"
                );
                assert_eq!(
                    sh_stats.batch_histogram, base_stats.batch_histogram,
                    "{ctx}"
                );
                assert_eq!(sh_stats.wait_steps, base_stats.wait_steps, "{ctx}");
                assert_eq!(
                    sh_stats.mean_wait_steps, base_stats.mean_wait_steps,
                    "{ctx}"
                );
                assert_eq!(sh_stats.p99_wait_steps, base_stats.p99_wait_steps, "{ctx}");
                // Nothing shard-specific fires on the degenerate path.
                assert_eq!(sh_stats.cache_hits + sh_stats.cache_misses, 0, "{ctx}");
                assert_eq!(
                    sh_stats.shed + sh_stats.expired + sh_stats.failed + sh_stats.retried,
                    0,
                    "{ctx}"
                );
                assert_eq!(sh_stats.replicas.len(), 1, "{ctx}");
                assert_eq!(sh_stats.replicas[0].served, sh_stats.completed, "{ctx}");
                assert_eq!(sh_stats.replicas[0].faulted_batches, 0, "{ctx}");
                // Outputs are bitwise equal, request by request.
                assert_eq!(sh_outcomes.len(), base_outcomes.len(), "{ctx}");
                for (r, (a, b)) in sh_outcomes.iter().zip(&base_outcomes).enumerate() {
                    assert_eq!(a.served_at, b.served_at, "{ctx}: request {r}");
                    assert_eq!(a.bits, b.bits, "{ctx}: request {r}");
                    assert_eq!(
                        a.output.as_ref().map(Tensor::data),
                        b.output.as_ref().map(Tensor::data),
                        "{ctx}: request {r} output differs"
                    );
                    assert!(!a.cached, "{ctx}: request {r} cache is off");
                }
            }
        }
    }
}

#[test]
fn four_replicas_drain_a_burst_faster_with_identical_outputs() {
    let bits = BitWidthSet::new(vec![4, 8]).unwrap();
    let net = models::small_cnn(2, 4, (6, 6), bits.len(), 13);
    let model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
    let report = report_for(&bits);
    let steps = 30;
    let trace = EnergyTrace::new(vec![100.0; steps]);
    let mut arrivals = vec![0usize; steps];
    arrivals[0] = 24;
    let requests = RequestTrace::new(arrivals);
    let mut rng = StdRng::seed_from_u64(31);
    let inputs = distinct_inputs(&mut rng, 6, &[1, 3, 6, 6]);
    let serving = ServingConfig { max_batch: 4 };

    let run = |replicas: usize, dispatch: DispatchPolicy| {
        simulate_serving_sharded(
            &report,
            &trace,
            &requests,
            Policy::Greedy,
            &SimulationConfig::default(),
            &serving,
            &ShardConfig {
                replicas,
                dispatch,
                ..ShardConfig::default()
            },
            &FaultPlan::none(),
            &model,
            &inputs,
        )
        .unwrap()
    };
    let makespan = |outcomes: &[ShardedOutcome]| {
        1 + outcomes
            .iter()
            .map(|o| o.served_at.expect("burst fully drains"))
            .max()
            .unwrap()
    };

    for dispatch in [DispatchPolicy::RoundRobin, DispatchPolicy::LeastLoaded] {
        let (s1, o1) = run(1, dispatch);
        let (s4, o4) = run(4, dispatch);
        assert_eq!(s1.completed, 24);
        assert_eq!(s4.completed, 24);
        assert_sharded_accounting(&s4, &o4, 24, 4);
        // 24 requests at max_batch 4: one replica needs 6 serving steps,
        // four replicas (6 requests each) need 2.
        assert_eq!(makespan(&o1), 6, "{dispatch:?}");
        assert_eq!(makespan(&o4), 2, "{dispatch:?}");
        // Every replica pulled its share, concurrently.
        for (r, rs) in s4.replicas.iter().enumerate() {
            assert_eq!(rs.served, 6, "{dispatch:?}: replica {r}");
            assert_eq!(rs.batches, 2, "{dispatch:?}: replica {r}");
            assert!(rs.max_queue_depth >= 6, "{dispatch:?}: replica {r}");
        }
        // Which replica served a request is invisible in its output.
        for (r, (a, b)) in o1.iter().zip(&o4).enumerate() {
            assert_eq!(a.bits, b.bits, "{dispatch:?}: request {r}");
            assert_eq!(
                a.output.as_ref().map(Tensor::data),
                b.output.as_ref().map(Tensor::data),
                "{dispatch:?}: request {r} output differs across replica counts"
            );
        }
        // Same work, same energy — sharding changes when, not what.
        assert_eq!(s1.energy_pj, s4.energy_pj, "{dispatch:?}");
    }
}

#[test]
fn cache_hits_are_bit_identical_to_recompute_free_and_counted() {
    let bits = BitWidthSet::new(vec![4, 8]).unwrap();
    let net = models::small_cnn(2, 4, (6, 6), bits.len(), 19);
    let model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
    let report = report_for(&bits);
    let steps = 12;
    let trace = EnergyTrace::new(vec![100.0; steps]);
    let requests = RequestTrace::new((0..steps).map(|t| usize::from(t < 9) * 2).collect());
    let mut rng = StdRng::seed_from_u64(47);
    // 3 distinct samples over 18 requests: heavy duplication, the cache's
    // best case (request r reuses inputs[r % 3]).
    let inputs = distinct_inputs(&mut rng, 3, &[1, 3, 6, 6]);
    let serving = ServingConfig { max_batch: 2 };
    let run = |cache: bool| {
        simulate_serving_sharded(
            &report,
            &trace,
            &requests,
            Policy::Greedy,
            &SimulationConfig::default(),
            &serving,
            &ShardConfig {
                replicas: 2,
                cache,
                ..ShardConfig::default()
            },
            &FaultPlan::none(),
            &model,
            &inputs,
        )
        .unwrap()
    };

    let (cold_stats, cold) = run(false);
    let (warm_stats, warm) = run(true);
    assert_eq!(cold_stats.cache_hits + cold_stats.cache_misses, 0);
    assert!(warm_stats.cache_hits > 0, "duplicates must hit");
    assert_eq!(warm_stats.completed, 18);
    assert_eq!(cold_stats.completed, 18);
    assert_sharded_accounting(&warm_stats, &warm, 18, 2);

    // Every cached answer is bitwise the tensor a forward would produce:
    // compare against the cache-off run request by request (same serving
    // bits per step since the budget trace is flat).
    let mut hits = 0;
    for (r, (a, b)) in warm.iter().zip(&cold).enumerate() {
        assert_eq!(a.bits, b.bits, "request {r}");
        assert_eq!(
            a.output.as_ref().map(Tensor::data),
            b.output.as_ref().map(Tensor::data),
            "request {r}: cached output differs from recompute"
        );
        if a.cached {
            hits += 1;
            assert_eq!(a.attempts, 0, "request {r}: hits run no forward");
        }
    }
    assert_eq!(hits, warm_stats.cache_hits);
    // Hits charge no inference energy, so the warm run is strictly
    // cheaper by hits × the serving point's energy.
    let point_energy = report.points()[1].energy_pj; // flat budget → 8-bit
    let saved = warm_stats.cache_hits as f64 * point_energy;
    assert!(
        (cold_stats.energy_pj - warm_stats.energy_pj - saved).abs() < 1e-9,
        "energy saved {} != hits × point {}",
        cold_stats.energy_pj - warm_stats.energy_pj,
        saved
    );
}

#[test]
fn tiny_lru_cache_evicts_but_stays_bit_identical() {
    let bits = BitWidthSet::new(vec![4, 8]).unwrap();
    let net = models::small_cnn(2, 4, (6, 6), bits.len(), 19);
    let model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
    let report = report_for(&bits);
    let steps = 14;
    let trace = EnergyTrace::new(vec![100.0; steps]);
    let requests = RequestTrace::new((0..steps).map(|t| usize::from(t < 10) * 2).collect());
    let mut rng = StdRng::seed_from_u64(61);
    // 4 distinct samples cycling over 20 requests against a 2-entry cache:
    // the working set never fits, so the LRU must evict continuously.
    let inputs = distinct_inputs(&mut rng, 4, &[1, 3, 6, 6]);
    let serving = ServingConfig { max_batch: 2 };
    let run = |cache: bool, cache_capacity: usize| {
        simulate_serving_sharded(
            &report,
            &trace,
            &requests,
            Policy::Greedy,
            &SimulationConfig::default(),
            &serving,
            &ShardConfig {
                replicas: 2,
                cache,
                cache_capacity,
                ..ShardConfig::default()
            },
            &FaultPlan::none(),
            &model,
            &inputs,
        )
        .unwrap()
    };

    let (off_stats, off) = run(false, 1);
    let (tiny_stats, tiny) = run(true, 2);
    let (big_stats, _) = run(true, usize::MAX);

    // The tiny cache overflows and evicts; the generous cap never does
    // (and the cache-off run never touches the cache at all).
    assert!(tiny_stats.cache_evictions > 0, "2-entry cache must evict");
    assert_eq!(big_stats.cache_evictions, 0, "generous cap never evicts");
    assert_eq!(off_stats.cache_evictions, 0);
    assert!(
        big_stats.cache_hits >= tiny_stats.cache_hits,
        "evictions can only cost hits"
    );

    // Eviction costs recompute, never correctness: every request completes
    // with output bitwise equal to the cache-off run's.
    assert_eq!(tiny_stats.completed, 20);
    assert_sharded_accounting(&tiny_stats, &tiny, 20, 2);
    for (r, (a, b)) in tiny.iter().zip(&off).enumerate() {
        assert_eq!(a.bits, b.bits, "request {r}");
        assert_eq!(
            a.output.as_ref().map(Tensor::data),
            b.output.as_ref().map(Tensor::data),
            "request {r}: output under tiny LRU differs from recompute"
        );
    }

    // cache_capacity 0 with the cache on is a config error, not a panic.
    let err = simulate_serving_sharded(
        &report,
        &trace,
        &requests,
        Policy::Greedy,
        &SimulationConfig::default(),
        &serving,
        &ShardConfig {
            cache: true,
            cache_capacity: 0,
            ..ShardConfig::default()
        },
        &FaultPlan::none(),
        &model,
        &inputs,
    )
    .unwrap_err();
    assert!(matches!(err, ServingError::Config(_)), "{err}");
}

#[test]
fn fault_on_one_replica_leaves_the_others_untouched() {
    let bits = BitWidthSet::new(vec![4, 8]).unwrap();
    let net = models::small_cnn(2, 4, (6, 6), bits.len(), 29);
    let model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
    let report = report_for(&bits);
    let steps = 4;
    let trace = EnergyTrace::new(vec![100.0; steps]);
    let requests = RequestTrace::new(vec![6, 0, 0, 0]);
    let mut rng = StdRng::seed_from_u64(53);
    let inputs = distinct_inputs(&mut rng, 6, &[1, 3, 6, 6]);
    let serving = ServingConfig { max_batch: 2 };
    let run = |faults: &FaultPlan, max_retries: usize| {
        simulate_serving_sharded(
            &report,
            &trace,
            &requests,
            Policy::Greedy,
            &SimulationConfig::default(),
            &serving,
            &ShardConfig {
                replicas: 3,
                max_retries,
                fault_replica: 1,
                ..ShardConfig::default()
            },
            faults,
            &model,
            &inputs,
        )
        .unwrap()
    };

    let (clean_stats, clean) = run(&FaultPlan::none(), 0);
    assert_eq!(clean_stats.completed, 6);

    for kind in [FaultKind::TransientError, FaultKind::ForwardPanic] {
        // Round-robin puts requests {0,3} on replica 0, {1,4} on 1,
        // {2,5} on 2; the step-0 fault must hit only {1,4}.
        let faults = FaultPlan::from_schedule([(0, kind)]);
        let (stats, outcomes) = run(&faults, 0);
        assert_sharded_accounting(&stats, &outcomes, 6, 3);
        assert_eq!(stats.failed, 2, "{kind:?}");
        assert_eq!(stats.completed, 4, "{kind:?}");
        assert_eq!(stats.replicas[1].faulted_batches, 1, "{kind:?}");
        for r in [0usize, 2] {
            assert_eq!(stats.replicas[r].faulted_batches, 0, "{kind:?}");
            assert_eq!(stats.replicas[r].served, 2, "{kind:?}");
        }
        for (r, (a, b)) in outcomes.iter().zip(&clean).enumerate() {
            if r % 3 == 1 {
                assert_eq!(a.status, RequestStatus::Failed, "{kind:?}: request {r}");
                assert_eq!(a.attempts, 1, "{kind:?}: request {r}");
            } else {
                // Bit-identical to the fault-free run: same step, same
                // output — the fault never crossed the replica boundary.
                assert_eq!(a.status, RequestStatus::Completed, "{kind:?}: request {r}");
                assert_eq!(a.served_at, b.served_at, "{kind:?}: request {r}");
                assert_eq!(
                    a.output.as_ref().map(Tensor::data),
                    b.output.as_ref().map(Tensor::data),
                    "{kind:?}: request {r}"
                );
            }
        }

        // With a retry budget the victims recover on the next step —
        // re-dispatched away from the replica that just faulted, onto
        // the least-loaded other queue (a tie here, so lowest index: 0).
        let (stats, outcomes) = run(&faults, 1);
        assert_eq!(stats.failed, 0, "{kind:?}");
        assert_eq!(stats.completed, 6, "{kind:?}");
        assert_eq!(stats.retried, 2, "{kind:?}");
        for r in [1usize, 4] {
            assert_eq!(outcomes[r].served_at, Some(1), "{kind:?}: request {r}");
            assert_eq!(outcomes[r].attempts, 2, "{kind:?}: request {r}");
            assert_eq!(outcomes[r].replica, Some(0), "{kind:?}: request {r}");
        }
    }

    // A stall idles only the target replica: its requests wait one step,
    // the other replicas' batches still land at step 0.
    let faults = FaultPlan::from_schedule([(0, FaultKind::Stall)]);
    let (stats, outcomes) = run(&faults, 0);
    assert_eq!(stats.stalled_steps, 1);
    assert_eq!(stats.completed, 6);
    assert!(
        stats.schedule[0].is_some(),
        "the fleet still selects and serves through a one-replica stall"
    );
    for (r, o) in outcomes.iter().enumerate() {
        let expect = if r % 3 == 1 { Some(1) } else { Some(0) };
        assert_eq!(o.served_at, expect, "request {r}");
    }
}

#[test]
fn pinned_replicas_route_by_deadline_slack_and_respect_the_budget() {
    let bits = BitWidthSet::new(vec![4, 8, 32]).unwrap();
    let net = models::small_cnn(2, 4, (6, 6), bits.len(), 37);
    let model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
    let report = report_for(&bits); // energies 10/20/30, latencies 1/2/3 ms
    let steps = 16;
    let trace = EnergyTrace::new(vec![100.0; steps]);
    let mut arrivals = vec![0usize; steps];
    arrivals[0] = 8;
    let requests = RequestTrace::new(arrivals);
    let mut rng = StdRng::seed_from_u64(61);
    let inputs = distinct_inputs(&mut rng, 8, &[1, 3, 6, 6]);
    // Replica 0 pinned to the 4-bit point (fast lane), replica 1 to the
    // 32-bit point (quality lane). Deadline 4 steps, urgent once slack
    // dips to 2.
    let shard = ShardConfig {
        replicas: 2,
        pinned: Some(PinnedConfig {
            point_indices: vec![0, 2],
            urgent_slack: 2,
        }),
        deadline_steps: Some(4),
        ..ShardConfig::default()
    };
    let (stats, outcomes) = simulate_serving_sharded(
        &report,
        &trace,
        &requests,
        Policy::Greedy,
        &SimulationConfig::default(),
        &ServingConfig { max_batch: 1 },
        &shard,
        &FaultPlan::none(),
        &model,
        &inputs,
    )
    .unwrap();

    // Arrival i sees i requests already on the quality queue, projecting
    // slack 4 − i at max_batch 1: arrivals 0–1 keep the quality lane,
    // 2–7 divert to the fast lane.
    for (i, o) in outcomes.iter().enumerate() {
        let want = if i < 2 { 1 } else { 0 };
        assert_eq!(o.replica, Some(want), "request {i} routed wrong");
    }
    // Each lane serves at its pinned point — the request's bits depend on
    // where it was routed, not on the global pick.
    for o in &outcomes {
        if o.status == RequestStatus::Completed {
            let want = if o.replica == Some(1) { 32 } else { 4 };
            assert_eq!(o.bits, Some(want));
        }
    }
    // The quality lane's 2 requests and the fast lane's 6 all complete
    // within deadline (fast lane serves 1/step from step 0).
    assert_eq!(stats.completed + stats.expired, 8);
    assert_eq!(stats.replicas[1].served, 2);
    assert!(stats.replicas[0].served >= 5);
    assert_sharded_accounting(&stats, &outcomes, 8, 2);
    // Per-replica dwell shows the specialization.
    assert!(stats.replicas[0].time_in_bits.iter().all(|&(b, _)| b == 4));
    assert!(stats.replicas[1].time_in_bits.iter().all(|&(b, _)| b == 32));

    // Budget gating reuses the global selector: a step whose budget only
    // affords the 4-bit point silences the 32-bit lane. urgent_slack 3
    // makes the second arrival (projected slack 3 behind the first)
    // divert to the fast lane.
    let gated_shard = ShardConfig {
        pinned: Some(PinnedConfig {
            point_indices: vec![0, 2],
            urgent_slack: 3,
        }),
        ..shard.clone()
    };
    let mut budgets = vec![100.0; 4];
    budgets[0] = 15.0; // only the 10 pJ point fits
    let (gated_stats, gated) = simulate_serving_sharded(
        &report,
        &EnergyTrace::new(budgets),
        &RequestTrace::new(vec![2, 0, 0, 0]),
        Policy::Greedy,
        &SimulationConfig::default(),
        &ServingConfig { max_batch: 1 },
        &gated_shard,
        &FaultPlan::none(),
        &model,
        &inputs,
    )
    .unwrap();
    // Request 0 queues on the quality lane but can't be served at step 0
    // (30 pJ > 15); request 1 diverts fast and is served immediately.
    assert_eq!(gated[1].served_at, Some(0));
    assert_eq!(gated[1].bits, Some(4));
    assert_eq!(
        gated[0].served_at,
        Some(1),
        "quality lane resumes at 100 pJ"
    );
    assert_eq!(gated[0].bits, Some(32));
    assert_eq!(gated_stats.schedule[0], Some(4), "global pick under 15 pJ");
}

#[test]
fn invalid_shard_configs_are_typed_errors_not_panics() {
    let bits = BitWidthSet::new(vec![4, 8]).unwrap();
    let net = models::small_cnn(2, 2, (6, 6), bits.len(), 9);
    let model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
    let report = report_for(&bits);
    let mut rng = StdRng::seed_from_u64(8);
    let inputs = distinct_inputs(&mut rng, 1, &[1, 3, 6, 6]);
    let run = |shard: ShardConfig| {
        simulate_serving_sharded(
            &report,
            &EnergyTrace::new(vec![100.0; 2]),
            &RequestTrace::uniform(1, 2),
            Policy::Greedy,
            &SimulationConfig::default(),
            &ServingConfig { max_batch: 2 },
            &shard,
            &FaultPlan::none(),
            &model,
            &inputs,
        )
        .map(|_| ())
    };

    for bad in [
        // Zero replicas.
        ShardConfig {
            replicas: 0,
            ..ShardConfig::default()
        },
        // Fault target outside the fleet.
        ShardConfig {
            replicas: 2,
            fault_replica: 2,
            ..ShardConfig::default()
        },
        // Pinned list length mismatch.
        ShardConfig {
            replicas: 2,
            pinned: Some(PinnedConfig {
                point_indices: vec![0],
                urgent_slack: 0,
            }),
            deadline_steps: Some(3),
            ..ShardConfig::default()
        },
        // Pinned index out of the report's range.
        ShardConfig {
            replicas: 2,
            pinned: Some(PinnedConfig {
                point_indices: vec![0, 9],
                urgent_slack: 0,
            }),
            deadline_steps: Some(3),
            ..ShardConfig::default()
        },
        // Pinned without deadlines (slack undefined).
        ShardConfig {
            replicas: 2,
            pinned: Some(PinnedConfig {
                point_indices: vec![0, 1],
                urgent_slack: 0,
            }),
            ..ShardConfig::default()
        },
    ] {
        let err = run(bad).unwrap_err();
        assert!(matches!(err, ServingError::Config(_)), "{err}");
    }

    // Report whose bit-widths the model never packed: typed engine error,
    // caught before any replica spins up.
    let foreign = report_for(&BitWidthSet::new(vec![5, 6]).unwrap());
    let err = simulate_serving_sharded(
        &foreign,
        &EnergyTrace::new(vec![100.0; 2]),
        &RequestTrace::uniform(1, 2),
        Policy::Greedy,
        &SimulationConfig::default(),
        &ServingConfig { max_batch: 2 },
        &ShardConfig::default(),
        &FaultPlan::none(),
        &model,
        &inputs,
    )
    .unwrap_err();
    assert!(matches!(err, ServingError::Infer(_)), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Conservation over the whole merged config — replicas, dispatch,
    /// deadlines, queue cap, retries with backoff, `step_time_s`
    /// capacity, degradation, the LRU cache, stealing and seeded faults:
    /// stats and per-request statuses agree and partition the arrivals,
    /// per-replica stats sum to the global ones, serves are causal and
    /// within deadline, retry budgets and the controller's recovery window
    /// hold, faults stay on their replica, and energy reconciles.
    #[test]
    fn sharded_conservation_holds_across_replicas_dispatch_cache_faults(
        seed in 0u64..1_000_000,
        steps in 4usize..24,
        replicas in 1usize..5,
        max_batch in 1usize..5,
        least_loaded in 0usize..2,
        cache_flag in 0usize..2,
        deadline in prop::sample::select(vec![-1isize, 0, 2, 5]),
        cap in prop::sample::select(vec![-1isize, 3, 10]),
        max_retries in 0usize..3,
        backoff in 0usize..3,
        timed in 0usize..2,
        degrade in 0usize..2,
        window in 1usize..4,
    ) {
        use rand::Rng;
        let bits = BitWidthSet::new(vec![4, 8, 32]).unwrap();
        let net = models::small_cnn(2, 2, (6, 6), bits.len(), 3);
        let model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
        let report = report_for(&bits);
        let mut rng = StdRng::seed_from_u64(seed);
        let budgets: Vec<f64> = (0..steps)
            .map(|_| [5.0, 11.0, 21.0, 31.0][rng.gen_range(0..4usize)])
            .collect();
        let arrivals: Vec<usize> = (0..steps).map(|_| rng.gen_range(0..6usize)).collect();
        let trace = EnergyTrace::new(budgets);
        let requests = RequestTrace::new(arrivals);
        let total = requests.total();
        let inputs = distinct_inputs(&mut rng, 2, &[1, 3, 6, 6]);
        let faults = FaultPlan::seeded(seed ^ 0x5A4D, steps, FaultRates {
            stall: 0.1,
            transient: 0.1,
            panic: 0.05,
        });
        let cache = cache_flag == 1;
        let shard = ShardConfig {
            replicas,
            dispatch: if least_loaded == 1 {
                DispatchPolicy::LeastLoaded
            } else {
                DispatchPolicy::RoundRobin
            },
            cache,
            // Alternate a cap tiny enough to force evictions with the
            // generous default, so conservation holds under LRU churn too.
            cache_capacity: if seed % 2 == 0 { 1 } else { 65_536 },
            deadline_steps: usize::try_from(deadline).ok(),
            max_queue_depth: usize::try_from(cap).ok(),
            max_retries,
            retry_backoff_steps: backoff,
            step_time_s: (timed == 1).then_some(3e-3),
            degradation: (degrade == 1).then_some(DegradationConfig {
                backlog_high: 4,
                backlog_low: 1,
                recovery_window: window,
            }),
            fault_replica: seed as usize % replicas,
            // Every third case steals, so conservation is exercised with
            // batches migrating between replica queues mid-run too.
            work_stealing: seed % 3 == 0,
            ..ShardConfig::default()
        };
        let (stats, outcomes) = simulate_serving_sharded(
            &report,
            &trace,
            &requests,
            Policy::Greedy,
            &SimulationConfig::default(),
            &ServingConfig { max_batch },
            &shard,
            &faults,
            &model,
            &inputs,
        ).unwrap();

        // Conservation: stats and per-request statuses agree and
        // partition the arrivals; per-replica stats sum to the global.
        let count = |s: RequestStatus| outcomes.iter().filter(|o| o.status == s).count();
        prop_assert_eq!(outcomes.len(), total);
        prop_assert_eq!(count(RequestStatus::Completed), stats.completed);
        prop_assert_eq!(count(RequestStatus::CompletedDegraded), stats.completed_degraded);
        prop_assert_eq!(count(RequestStatus::Shed), stats.shed);
        prop_assert_eq!(count(RequestStatus::Expired), stats.expired);
        prop_assert_eq!(count(RequestStatus::Failed), stats.failed);
        prop_assert_eq!(count(RequestStatus::Pending), stats.backlog);
        prop_assert_eq!(
            stats.completed + stats.completed_degraded + stats.shed + stats.expired
                + stats.failed + stats.backlog,
            total
        );
        prop_assert_eq!(stats.served_requests, stats.completed + stats.completed_degraded);
        prop_assert_eq!(stats.replicas.len(), replicas);
        prop_assert_eq!(
            stats.replicas.iter().map(|r| r.served).sum::<usize>(),
            stats.served_requests
        );
        prop_assert_eq!(
            stats.replicas.iter().map(|r| r.backlog).sum::<usize>(),
            stats.backlog
        );
        prop_assert_eq!(
            stats.replicas.iter().map(|r| r.cache_hits).sum::<usize>(),
            stats.cache_hits
        );
        if !cache {
            prop_assert_eq!(stats.cache_hits + stats.cache_misses, 0);
        }

        // Causality, deadlines, retry budgets, routing bookkeeping.
        for (r, o) in outcomes.iter().enumerate() {
            if let Some(t) = o.served_at {
                prop_assert!(t >= o.arrived_at, "request {} served before arrival", r);
                if let Some(d) = o.deadline {
                    prop_assert!(t <= d, "request {} served at {} past deadline {}", r, t, d);
                }
                prop_assert!(o.output.is_some());
                prop_assert!(o.replica.is_some());
                prop_assert!(o.replica.unwrap() < replicas);
            }
            if o.status == RequestStatus::Shed {
                prop_assert!(o.replica.is_none(), "request {} shed before dispatch", r);
            }
            prop_assert!(o.attempts <= 1 + max_retries, "request {} attempts", r);
            if o.cached {
                // A hit runs no forward: any attempt it carries is a
                // faulted one it was retried out of.
                prop_assert!(cache, "request {} cached with the cache off", r);
                prop_assert!(o.attempts <= max_retries, "request {} hit after a forward", r);
            }
        }

        // Controller oscillation bound: consecutive transitions are at
        // least one recovery window apart.
        for pair in stats.degradation_events.windows(2) {
            prop_assert!(
                pair[1].0 - pair[0].0 >= window,
                "transitions at {} and {} violate window {}",
                pair[0].0, pair[1].0, window
            );
        }
        if shard.degradation.is_none() {
            prop_assert!(stats.degradation_events.is_empty());
            prop_assert_eq!(stats.completed_degraded, 0);
        }

        // Faults stay on their target replica; injections are counted; a
        // stall on a fleet of one skips its step, on a fleet idles at most
        // the target replica's.
        prop_assert_eq!(stats.faults_injected, faults.count_before(steps));
        for (r, rs) in stats.replicas.iter().enumerate() {
            if r != shard.fault_replica {
                prop_assert_eq!(rs.faulted_batches, 0, "replica {} faulted", r);
            }
        }
        let stalls = faults.count_kind_before(steps, FaultKind::Stall);
        if replicas == 1 {
            prop_assert_eq!(stats.stalled_steps, stalls);
        } else {
            prop_assert!(stats.stalled_steps <= stalls);
        }

        // Energy reconciles: forward-served requests charge their point,
        // cache hits charge nothing (switching is free here).
        let inference: f64 = outcomes
            .iter()
            .filter(|o| o.served_at.is_some() && !o.cached)
            .filter_map(|o| o.bits)
            .map(|b| {
                report.points().iter().find(|p| p.bits.get() == b).unwrap().energy_pj
            })
            .sum();
        prop_assert!(
            (stats.energy_pj - inference).abs() < 1e-9 * (1.0 + inference.abs()),
            "energy {} vs recomputed {}",
            stats.energy_pj, inference
        );

        // time_in_bits is the replicas' dwell summed: every replica on
        // every scheduled step, less the steps a stall idled one (a fleet
        // of one schedules nothing on its stalled steps).
        let active = stats.schedule.iter().filter(|s| s.is_some()).count();
        let dwell: usize = stats.time_in_bits.iter().map(|&(_, n)| n).sum();
        let replica_dwell: usize = stats
            .replicas
            .iter()
            .flat_map(|r| r.time_in_bits.iter().map(|&(_, n)| n))
            .sum();
        prop_assert_eq!(dwell, replica_dwell);
        let idled = if replicas == 1 { 0 } else { stats.stalled_steps };
        prop_assert_eq!(dwell, replicas * active - idled);
    }
}

/// Work-stealing: under a skewed load (pinned routing funnels every
/// arrival to the quality lane), the idle fast lane steals from the
/// deepest queue, the fleet drains faster, the backlog high-water mark
/// drops, and every stolen request is served at the thief's point with
/// an output bit-identical to a standalone forward at that bit-width.
#[test]
fn work_stealing_drains_a_skewed_queue_and_lowers_the_high_water_mark() {
    let bits = BitWidthSet::new(vec![4, 8, 32]).unwrap();
    let net = models::small_cnn(2, 4, (6, 6), bits.len(), 41);
    let model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
    let report = report_for(&bits);
    let steps = 40;
    let trace = EnergyTrace::new(vec![100.0; steps]);
    let mut arrivals = vec![0usize; steps];
    for a in arrivals.iter_mut().take(8) {
        *a = 3;
    }
    let requests = RequestTrace::new(arrivals);
    let total = requests.total();
    let mut rng = StdRng::seed_from_u64(73);
    let inputs = distinct_inputs(&mut rng, 6, &[1, 3, 6, 6]);
    // urgent_slack 0 with a distant deadline: no arrival ever diverts, so
    // the whole trace lands on the pinned quality lane (replica 1).
    let run = |work_stealing: bool| {
        simulate_serving_sharded(
            &report,
            &trace,
            &requests,
            Policy::Greedy,
            &SimulationConfig::default(),
            &ServingConfig { max_batch: 2 },
            &ShardConfig {
                replicas: 2,
                pinned: Some(PinnedConfig {
                    point_indices: vec![0, 2],
                    urgent_slack: 0,
                }),
                deadline_steps: Some(100),
                work_stealing,
                ..ShardConfig::default()
            },
            &FaultPlan::none(),
            &model,
            &inputs,
        )
        .unwrap()
    };

    let (nosteal_stats, nosteal) = run(false);
    let (steal_stats, stolen) = run(true);

    // Stealing off: the fast lane idles while the quality lane eats the
    // whole burst alone, 2 per step against 3 arriving.
    assert_eq!(nosteal_stats.replicas[0].served, 0);
    assert_eq!(nosteal_stats.replicas[1].served, total);
    assert_sharded_accounting(&nosteal_stats, &nosteal, total, 2);

    // Stealing on: both lanes serve, everything still completes, and the
    // global queue high-water mark shrinks.
    assert_eq!(steal_stats.completed, total);
    assert!(
        steal_stats.replicas[0].served > 0,
        "the idle lane must steal work"
    );
    assert!(
        steal_stats.max_queue_depth < nosteal_stats.max_queue_depth,
        "stealing must lower the backlog high-water mark: {} vs {}",
        steal_stats.max_queue_depth,
        nosteal_stats.max_queue_depth
    );
    let last_served =
        |outcomes: &[ShardedOutcome]| outcomes.iter().filter_map(|o| o.served_at).max().unwrap();
    assert!(
        last_served(&stolen) < last_served(&nosteal),
        "the fleet must finish the burst in fewer steps: {} vs {}",
        last_served(&stolen),
        last_served(&nosteal)
    );
    assert_sharded_accounting(&steal_stats, &stolen, total, 2);

    // A stolen request is served at the thief's pinned point, and its
    // output is bit-identical to a standalone forward at that bit-width:
    // stealing changes placement and timing, never numerics.
    for (i, o) in stolen.iter().enumerate() {
        assert_eq!(o.status, RequestStatus::Completed, "request {i}");
        let b = o.bits.unwrap();
        let expect = if o.replica == Some(0) { 4 } else { 32 };
        assert_eq!(b, expect, "request {i} bits follow its serving lane");
        let idx = model.bit_widths().index_of(b.into()).unwrap();
        let reference = model.forward_at(idx, &inputs[i % inputs.len()]);
        assert_eq!(
            o.output.as_ref().unwrap().data(),
            reference.data(),
            "request {i} stolen output must be bit-identical"
        );
    }
}

/// Retry re-dispatch: under a seeded fault plan hammering one replica,
/// every request that survives a faulted batch is re-queued on a
/// *different* replica, so no retry ever lands back on the box that just
/// failed it.
#[test]
fn retries_redispatch_away_from_the_faulted_replica() {
    let bits = BitWidthSet::new(vec![4, 8]).unwrap();
    let net = models::small_cnn(2, 4, (6, 6), bits.len(), 53);
    let model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
    let report = report_for(&bits);
    let steps = 48;
    let trace = EnergyTrace::new(vec![100.0; steps]);
    let mut arrivals = vec![0usize; steps];
    for a in arrivals.iter_mut().take(20) {
        *a = 2;
    }
    let requests = RequestTrace::new(arrivals);
    let total = requests.total();
    let mut rng = StdRng::seed_from_u64(97);
    let inputs = distinct_inputs(&mut rng, 5, &[1, 3, 6, 6]);
    let faults = FaultPlan::seeded(
        0xFEED,
        steps,
        FaultRates {
            stall: 0.0,
            transient: 0.35,
            panic: 0.15,
        },
    );
    let (stats, outcomes) = simulate_serving_sharded(
        &report,
        &trace,
        &requests,
        Policy::Greedy,
        &SimulationConfig::default(),
        &ServingConfig { max_batch: 2 },
        &ShardConfig {
            replicas: 3,
            fault_replica: 1,
            max_retries: 3,
            ..ShardConfig::default()
        },
        &faults,
        &model,
        &inputs,
    )
    .unwrap();

    assert_sharded_accounting(&stats, &outcomes, total, 3);
    assert!(
        stats.retried > 0,
        "the seeded plan must actually fault some replica-1 batches"
    );
    assert_eq!(
        stats.failed, 0,
        "a retry budget of 3 plus re-dispatch must recover every victim"
    );
    let mut redispatched = 0;
    for (i, o) in outcomes.iter().enumerate() {
        if o.attempts >= 2 {
            assert_ne!(
                o.replica,
                Some(1),
                "request {i} retried back onto the faulted replica"
            );
            redispatched += 1;
        }
    }
    assert!(redispatched > 0, "some requests must have been retried");
    // Faults fire only when the target replica actually serves a batch;
    // the other replicas must stay clean.
    assert!(stats.replicas[1].faulted_batches > 0);
    assert_eq!(stats.replicas[0].faulted_batches, 0);
    assert_eq!(stats.replicas[2].faulted_batches, 0);
}
