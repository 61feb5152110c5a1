//! Resilient serving contract.
//!
//! * **Strictly additive**: with every [`ResilienceConfig`] knob at its
//!   default and an empty [`FaultPlan`], `simulate_serving_resilient`
//!   reproduces `simulate_serving_batched` bit-for-bit — outputs,
//!   schedule, switches, energy, and queueing stats — across
//!   `BitWidthSet::large_range()`, both policies, and 1 vs N threads.
//! * **Acceptance scenario**: under a seeded fault plan plus bursty
//!   overload, the degradation controller downshifts precision, ≥90% of
//!   requests complete within deadline, the rest are shed/expired/failed
//!   with exact accounting, and no injected panic escapes the simulator.
//! * **Queue invariants** (proptest): conservation, deadline compliance,
//!   bounded controller oscillation, retry budgets, and energy
//!   reconciliation under random traffic × faults × knobs.

use instantnet::faults::{FaultKind, FaultPlan, FaultRates};
use instantnet::resilience::{
    simulate_serving_resilient, DegradationConfig, RequestStatus, ResilienceConfig, ServingError,
};
use instantnet::runtime::{
    simulate_serving_batched, EnergyTrace, Policy, RequestTrace, RuntimeStats, ServingConfig,
    SimulationConfig,
};
use instantnet::sharding::ShardConfig;
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

/// One operating point per bit-width: energy 10·(i+1) (budgets select any
/// point deterministically) and latency 1ms·(i+1), so fewer bits genuinely
/// run faster — the lever the degradation controller pulls.
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

/// Counts outcome statuses and checks they agree with the stats fields.
fn assert_accounting(
    stats: &RuntimeStats,
    outcomes: &[instantnet::resilience::ResilientOutcome],
    total: usize,
) {
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
}

#[test]
fn fault_free_defaults_bit_identical_to_batched_all_bitwidths_policies_threads() {
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
        for threads in std::iter::once(1).chain(THREADS) {
            let net = models::small_cnn(4, 6, (8, 8), bits.len(), 17);
            let mut model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
            let ((base_stats, base_outcomes), (res_stats, res_outcomes)) =
                with_threads(threads, || {
                    let base = simulate_serving_batched(
                        &report, &trace, &requests, policy, &cfg, &serving, &mut model, &inputs,
                    );
                    let res = simulate_serving_resilient(
                        &report,
                        &trace,
                        &requests,
                        policy,
                        &cfg,
                        &serving,
                        &ResilienceConfig::default(),
                        &FaultPlan::none(),
                        &mut model,
                        &inputs,
                    )
                    .unwrap();
                    (base, res)
                });
            let ctx = format!("{policy:?} @ {threads} threads");
            assert_eq!(res_stats.schedule, base_stats.schedule, "{ctx}");
            assert_eq!(res_stats.switches, base_stats.switches, "{ctx}");
            assert_eq!(res_stats.dropped, base_stats.dropped, "{ctx}");
            assert_eq!(res_stats.mean_accuracy, base_stats.mean_accuracy, "{ctx}");
            assert_eq!(res_stats.energy_pj, base_stats.energy_pj, "{ctx}");
            assert_eq!(
                res_stats.switch_energy_pj, base_stats.switch_energy_pj,
                "{ctx}"
            );
            assert_eq!(
                res_stats.served_requests, base_stats.served_requests,
                "{ctx}"
            );
            assert_eq!(res_stats.backlog, base_stats.backlog, "{ctx}");
            assert_eq!(
                res_stats.max_queue_depth, base_stats.max_queue_depth,
                "{ctx}"
            );
            assert_eq!(
                res_stats.batch_histogram, base_stats.batch_histogram,
                "{ctx}"
            );
            assert_eq!(res_stats.wait_steps, base_stats.wait_steps, "{ctx}");
            assert_eq!(
                res_stats.mean_wait_steps, base_stats.mean_wait_steps,
                "{ctx}"
            );
            assert_eq!(res_stats.p99_wait_steps, base_stats.p99_wait_steps, "{ctx}");
            // Nothing resilience-specific fires on the clean path.
            assert_eq!(res_stats.completed, res_stats.served_requests, "{ctx}");
            assert_eq!(res_stats.completed_degraded, 0, "{ctx}");
            assert_eq!(
                res_stats.shed + res_stats.expired + res_stats.failed + res_stats.retried,
                0,
                "{ctx}"
            );
            assert!(res_stats.degradation_events.is_empty(), "{ctx}");
            // Outputs are bitwise equal, request by request.
            assert_eq!(res_outcomes.len(), base_outcomes.len(), "{ctx}");
            for (r, (a, b)) in res_outcomes.iter().zip(&base_outcomes).enumerate() {
                assert_eq!(a.served_at, b.served_at, "{ctx}: request {r}");
                assert_eq!(a.bits, b.bits, "{ctx}: request {r}");
                assert_eq!(
                    a.output.as_ref().map(Tensor::data),
                    b.output.as_ref().map(Tensor::data),
                    "{ctx}: request {r} output differs"
                );
            }
        }
    }
}

#[test]
fn overload_with_faults_meets_deadlines_by_downshifting() {
    let bits = BitWidthSet::new(vec![4, 8, 32]).unwrap();
    let net = models::small_cnn(2, 2, (6, 6), bits.len(), 7);
    let mut model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
    let report = report_for(&bits); // latencies 1/2/3 ms, lowest bits first
    let steps = 60;
    // Budget always affords full precision, so greedy pins 32-bit — whose
    // 3 ms latency fits only 2 inferences into a 7 ms step. Bursty traffic
    // averaging ~4/step overloads it; the 4-bit point fits 7.
    let trace = EnergyTrace::new(vec![100.0; steps]);
    let arrivals: Vec<usize> = (0..steps).map(|t| if t % 5 == 0 { 8 } else { 3 }).collect();
    let requests = RequestTrace::new(arrivals);
    let total = requests.total();
    let mut rng = StdRng::seed_from_u64(41);
    let inputs = distinct_inputs(&mut rng, 4, &[1, 3, 6, 6]);
    let faults = FaultPlan::seeded(
        2024,
        steps,
        FaultRates {
            stall: 0.05,
            transient: 0.05,
            panic: 0.03,
        },
    );
    assert!(!faults.is_empty(), "the seeded plan must actually inject");
    assert!(
        faults.iter().any(|(_, k)| k == FaultKind::ForwardPanic),
        "scenario must exercise panic isolation"
    );
    let resilience = ResilienceConfig {
        deadline_steps: Some(6),
        max_queue_depth: Some(40),
        max_retries: 2,
        retry_backoff_steps: 0,
        step_time_s: Some(7e-3),
        degradation: Some(DegradationConfig {
            backlog_high: 8,
            backlog_low: 2,
            recovery_window: 3,
        }),
        ..ShardConfig::default()
    };
    let (stats, outcomes) = simulate_serving_resilient(
        &report,
        &trace,
        &requests,
        Policy::Greedy,
        &SimulationConfig::default(),
        &ServingConfig { max_batch: 8 },
        &resilience,
        &faults,
        &mut model,
        &inputs,
    )
    .expect("scenario config is valid");

    assert_accounting(&stats, &outcomes, total);
    assert_eq!(stats.faults_injected, faults.count_before(steps));
    assert!(stats.stalled_steps > 0, "stalls must have landed");
    assert!(stats.retried > 0, "faulted batches must have retried");

    // The controller engaged and the engine spent real time downshifted.
    assert!(
        !stats.degradation_events.is_empty(),
        "overload must trigger degradation"
    );
    assert!(
        stats.completed_degraded > 0,
        "degraded completions expected"
    );
    let low_bit_steps: usize = stats
        .time_in_bits
        .iter()
        .filter(|&&(b, _)| b < 32)
        .map(|&(_, n)| n)
        .sum();
    assert!(low_bit_steps > 0, "time_in_bits must show the downshift");

    // ≥90% of all arrivals complete within their deadline.
    let within = outcomes
        .iter()
        .filter(|o| {
            matches!(
                o.status,
                RequestStatus::Completed | RequestStatus::CompletedDegraded
            ) && o.served_at.unwrap() <= o.deadline.unwrap()
        })
        .count();
    assert!(
        within as f64 >= 0.9 * total as f64,
        "only {within}/{total} completed within deadline; stats: completed {} degraded {} \
         shed {} expired {} failed {} backlog {}",
        stats.completed,
        stats.completed_degraded,
        stats.shed,
        stats.expired,
        stats.failed,
        stats.backlog
    );
    // Whatever didn't complete is accounted, not lost.
    assert_eq!(
        within + stats.shed + stats.expired + stats.failed + stats.backlog,
        total
    );
}

#[test]
fn transient_fault_retries_then_completes_and_retry_budget_fails() {
    let bits = BitWidthSet::new(vec![4, 8]).unwrap();
    let net = models::small_cnn(2, 2, (6, 6), bits.len(), 9);
    let mut model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
    let report = report_for(&bits);
    let trace = EnergyTrace::new(vec![100.0; 4]);
    let requests = RequestTrace::new(vec![1, 0, 0, 0]);
    let mut rng = StdRng::seed_from_u64(5);
    let inputs = distinct_inputs(&mut rng, 1, &[1, 3, 6, 6]);
    let faults = FaultPlan::from_schedule([(0, FaultKind::TransientError)]);

    // One retry allowed: the step-0 failure re-queues with a 1-step
    // backoff, skips step 1, completes at step 2 with 2 attempts.
    let lenient = ResilienceConfig {
        max_retries: 1,
        retry_backoff_steps: 1,
        ..ResilienceConfig::default()
    };
    let (stats, outcomes) = simulate_serving_resilient(
        &report,
        &trace,
        &requests,
        Policy::Greedy,
        &SimulationConfig::default(),
        &ServingConfig { max_batch: 2 },
        &lenient,
        &faults,
        &mut model,
        &inputs,
    )
    .unwrap();
    assert_eq!(outcomes[0].status, RequestStatus::Completed);
    assert_eq!(outcomes[0].served_at, Some(2));
    assert_eq!(outcomes[0].attempts, 2);
    assert_eq!(stats.retried, 1);
    assert_eq!(stats.failed, 0);

    // Zero retries: the same fault is fatal for the request, not the run.
    let strict = ResilienceConfig::default();
    let (stats, outcomes) = simulate_serving_resilient(
        &report,
        &trace,
        &requests,
        Policy::Greedy,
        &SimulationConfig::default(),
        &ServingConfig { max_batch: 2 },
        &strict,
        &faults,
        &mut model,
        &inputs,
    )
    .unwrap();
    assert_eq!(outcomes[0].status, RequestStatus::Failed);
    assert_eq!(outcomes[0].attempts, 1);
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.retried, 0);
}

#[test]
fn stall_serves_nothing_but_queues_arrivals() {
    let bits = BitWidthSet::new(vec![4, 8]).unwrap();
    let net = models::small_cnn(2, 2, (6, 6), bits.len(), 9);
    let mut model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
    let report = report_for(&bits);
    let trace = EnergyTrace::new(vec![100.0; 3]);
    let requests = RequestTrace::new(vec![2, 0, 0]);
    let mut rng = StdRng::seed_from_u64(6);
    let inputs = distinct_inputs(&mut rng, 1, &[1, 3, 6, 6]);
    let faults = FaultPlan::from_schedule([(0, FaultKind::Stall)]);
    let (stats, outcomes) = simulate_serving_resilient(
        &report,
        &trace,
        &requests,
        Policy::Greedy,
        &SimulationConfig::default(),
        &ServingConfig { max_batch: 4 },
        &ResilienceConfig::default(),
        &faults,
        &mut model,
        &inputs,
    )
    .unwrap();
    assert_eq!(stats.stalled_steps, 1);
    assert_eq!(stats.schedule[0], None, "stalled step selects nothing");
    assert_eq!(
        outcomes[0].served_at,
        Some(1),
        "arrivals wait out the stall"
    );
    assert_eq!(outcomes[1].served_at, Some(1));
    assert_eq!(stats.dropped, 0, "a stall is not a budget drop");
}

#[test]
fn invalid_configs_are_typed_errors_not_panics() {
    let bits = BitWidthSet::new(vec![4, 8]).unwrap();
    let net = models::small_cnn(2, 2, (6, 6), bits.len(), 9);
    let mut model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
    let report = report_for(&bits);
    let mut rng = StdRng::seed_from_u64(8);
    let inputs = distinct_inputs(&mut rng, 1, &[1, 3, 6, 6]);
    let mut run = |trace: EnergyTrace, requests: RequestTrace, res: ResilienceConfig| {
        simulate_serving_resilient(
            &report,
            &trace,
            &requests,
            Policy::Greedy,
            &SimulationConfig::default(),
            &ServingConfig { max_batch: 2 },
            &res,
            &FaultPlan::none(),
            &mut model,
            &inputs,
        )
        .map(|_| ())
    };

    // Mismatched trace lengths.
    let err = run(
        EnergyTrace::new(vec![100.0; 2]),
        RequestTrace::uniform(1, 3),
        ResilienceConfig::default(),
    )
    .unwrap_err();
    assert!(matches!(err, ServingError::Config(_)), "{err}");

    // Inverted hysteresis band.
    let err = run(
        EnergyTrace::new(vec![100.0; 2]),
        RequestTrace::uniform(1, 2),
        ResilienceConfig {
            degradation: Some(DegradationConfig {
                backlog_high: 2,
                backlog_low: 5,
                recovery_window: 1,
            }),
            ..ResilienceConfig::default()
        },
    )
    .unwrap_err();
    assert!(matches!(err, ServingError::Config(_)), "{err}");

    // Report whose bit-widths the model never packed.
    let foreign = report_for(&BitWidthSet::new(vec![5, 6]).unwrap());
    let err = simulate_serving_resilient(
        &foreign,
        &EnergyTrace::new(vec![100.0; 2]),
        &RequestTrace::uniform(1, 2),
        Policy::Greedy,
        &SimulationConfig::default(),
        &ServingConfig { max_batch: 2 },
        &ResilienceConfig::default(),
        &FaultPlan::none(),
        &mut model,
        &inputs,
    )
    .unwrap_err();
    assert!(matches!(err, ServingError::Infer(_)), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn resilient_queue_invariants_hold_under_random_chaos(
        seed in 0u64..1_000_000,
        steps in 4usize..24,
        max_batch in 1usize..5,
        deadline in prop::sample::select(vec![-1isize, 0, 2, 5]),
        cap in prop::sample::select(vec![-1isize, 3, 10]),
        max_retries in 0usize..3,
        backoff in 0usize..3,
        degrade in prop::sample::select(vec![0usize, 1]),
        window in 1usize..4,
    ) {
        use rand::Rng;
        let bits = BitWidthSet::new(vec![4, 8, 32]).unwrap();
        let net = models::small_cnn(2, 2, (6, 6), bits.len(), 3);
        let mut model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
        let report = report_for(&bits);
        let mut rng = StdRng::seed_from_u64(seed);
        let budgets: Vec<f64> = (0..steps)
            .map(|_| [5.0, 11.0, 21.0, 31.0][rng.gen_range(0..4usize)])
            .collect();
        let arrivals: Vec<usize> = (0..steps).map(|_| rng.gen_range(0..6usize)).collect();
        let trace = EnergyTrace::new(budgets);
        let requests = RequestTrace::new(arrivals);
        let total = requests.total();
        let input = init::uniform(&mut rng, &[1, 3, 6, 6], -1.0, 1.0);
        let faults = FaultPlan::seeded(seed ^ 0xFA17, steps, FaultRates {
            stall: 0.1,
            transient: 0.1,
            panic: 0.05,
        });
        let resilience = ResilienceConfig {
            deadline_steps: usize::try_from(deadline).ok(),
            max_queue_depth: usize::try_from(cap).ok(),
            max_retries,
            retry_backoff_steps: backoff,
            step_time_s: Some(3e-3),
            degradation: (degrade == 1).then_some(DegradationConfig {
                backlog_high: 4,
                backlog_low: 1,
                recovery_window: window,
            }),
            ..ShardConfig::default()
        };
        let (stats, outcomes) = simulate_serving_resilient(
            &report,
            &trace,
            &requests,
            Policy::Greedy,
            &SimulationConfig::default(),
            &ServingConfig { max_batch },
            &resilience,
            &faults,
            &mut model,
            std::slice::from_ref(&input),
        ).unwrap();

        // Conservation: stats and per-request statuses agree and partition
        // the arrivals.
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

        // No completed request exceeds its deadline; serves are causal.
        for (r, o) in outcomes.iter().enumerate() {
            if let Some(t) = o.served_at {
                prop_assert!(t >= o.arrived_at, "request {} served before arrival", r);
                if let Some(d) = o.deadline {
                    prop_assert!(t <= d, "request {} served at {} past deadline {}", r, t, d);
                }
                prop_assert!(o.output.is_some());
            }
            // Retry budget: attempts never exceed 1 + max_retries.
            prop_assert!(o.attempts <= 1 + max_retries, "request {} attempts", r);
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
        if resilience.degradation.is_none() {
            prop_assert!(stats.degradation_events.is_empty());
            prop_assert_eq!(stats.completed_degraded, 0);
        }

        // Fault accounting: injections counted, stalls select nothing.
        prop_assert_eq!(stats.faults_injected, faults.count_before(steps));
        let stall_count = faults.iter()
            .filter(|&(t, k)| t < steps && k == FaultKind::Stall)
            .count();
        prop_assert_eq!(stats.stalled_steps, stall_count);

        // Energy reconciles: per completed request at its serving point,
        // plus nothing else (switching is free here).
        let inference: f64 = outcomes
            .iter()
            .filter(|o| o.served_at.is_some())
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

        // time_in_bits covers exactly the scheduled (non-None) steps.
        let active = stats.schedule.iter().filter(|s| s.is_some()).count();
        let dwell: usize = stats.time_in_bits.iter().map(|&(_, n)| n).sum();
        prop_assert_eq!(dwell, active);
    }
}
