//! IoT runtime simulation: switching a deployed SP-Net's bit-width under a
//! time-varying energy budget.
//!
//! The paper's motivation is that "IoT applications often have dynamic
//! time/energy constraints over time"; an SP-Net lets the runtime allocate
//! bit-widths on the fly. This module provides synthetic harvested-energy
//! and request traces, the switching policies over a
//! [`crate::DeploymentReport`], the [`RuntimeStats`] every serving path
//! reports, and two ways to run a trace:
//!
//! * [`simulate`] / [`simulate_serving`] step the policy alone, one
//!   inference per affordable timestep, with no queue;
//! * [`simulate_serving_batched`] queues requests and serves them in
//!   packed batches — a wrapper over the one simulated step loop
//!   ([`crate::sharding::simulate_serving_sharded_versioned`]) with its
//!   default configuration.

use crate::faults::FaultPlan;
use crate::registry::ModelRegistry;
use crate::resilience::RequestStatus;
use crate::sharding::{serve_steps, ShardConfig, Sim};
use crate::{DeploymentReport, OperatingPoint};
use instantnet_infer::PackedModel;
use instantnet_quant::BitWidth;
use instantnet_tensor::Tensor;

/// A per-timestep energy budget trace (pJ available per inference).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyTrace {
    budgets: Vec<f64>,
}

impl EnergyTrace {
    /// Wraps an explicit budget sequence.
    ///
    /// # Panics
    ///
    /// Panics if `budgets` is empty or contains a non-finite value.
    pub fn new(budgets: Vec<f64>) -> Self {
        assert!(!budgets.is_empty(), "trace must not be empty");
        assert!(
            budgets.iter().all(|b| b.is_finite() && *b >= 0.0),
            "budgets must be finite and non-negative"
        );
        EnergyTrace { budgets }
    }

    /// A sinusoidal harvest profile oscillating between `lo` and `hi`
    /// over `steps` steps with `cycles` full periods — a day/night solar
    /// pattern.
    pub fn sinusoidal(lo: f64, hi: f64, steps: usize, cycles: f64) -> Self {
        assert!(steps > 0 && hi >= lo, "invalid trace parameters");
        let budgets = (0..steps)
            .map(|t| {
                let phase = cycles * std::f64::consts::TAU * t as f64 / steps as f64;
                lo + (hi - lo) * 0.5 * (1.0 - phase.cos())
            })
            .collect();
        EnergyTrace { budgets }
    }

    /// The budget sequence.
    pub fn budgets(&self) -> &[f64] {
        &self.budgets
    }

    /// Number of timesteps.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.budgets.len()
    }
}

/// Per-timestep request arrival counts for the batched serving queue —
/// the traffic-side companion of [`EnergyTrace`] (which is the
/// supply side). Step `t` of a simulation enqueues `arrivals()[t]` new
/// requests before the runtime decides how many to serve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    arrivals: Vec<usize>,
}

impl RequestTrace {
    /// Wraps an explicit arrival sequence.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` is empty.
    pub fn new(arrivals: Vec<usize>) -> Self {
        assert!(!arrivals.is_empty(), "request trace must not be empty");
        RequestTrace { arrivals }
    }

    /// `per_step` arrivals at every one of `steps` timesteps.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero.
    pub fn uniform(per_step: usize, steps: usize) -> Self {
        assert!(steps > 0, "request trace must not be empty");
        RequestTrace {
            arrivals: vec![per_step; steps],
        }
    }

    /// Arrival count per timestep.
    pub fn arrivals(&self) -> &[usize] {
        &self.arrivals
    }

    /// Total number of requests over the whole trace.
    pub fn total(&self) -> usize {
        self.arrivals.iter().sum()
    }

    /// Number of timesteps.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }
}

/// Knobs of the batched serving queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServingConfig {
    /// Largest number of queued requests aggregated into one packed
    /// forward per timestep. 1 reproduces per-request serving exactly.
    pub max_batch: usize,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig { max_batch: 16 }
    }
}

/// Per-request record of a simulated serving run, index-aligned with
/// arrival order (request ids are assigned FIFO as arrivals enqueue).
/// Every simulated entry point returns this type
/// ([`crate::resilience::ResilientOutcome`] and
/// [`crate::sharding::ShardedOutcome`] are aliases).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RequestOutcome {
    /// Timestep the request arrived.
    pub arrived_at: usize,
    /// Timestep it was served, or `None` if it never was.
    pub served_at: Option<usize>,
    /// Bit-width of the forward (or cached result) that served it.
    pub bits: Option<u8>,
    /// The output — bit-identical to a batch-of-one forward of the same
    /// input at `bits`, whichever batch-mates, replica or cache entry it
    /// came from.
    pub output: Option<Tensor>,
    /// How the request ended ([`RequestStatus::Pending`] = still queued
    /// when the trace ended, counted in [`RuntimeStats::backlog`]).
    pub status: RequestStatus,
    /// Forward attempts that included this request (cache hits run no
    /// forward and leave this at 0).
    pub attempts: usize,
    /// Absolute deadline step, when deadlines are configured.
    pub deadline: Option<usize>,
    /// Replica that served (or would have served) it; `None` until
    /// dispatched, and kept at the serving replica afterwards.
    pub replica: Option<usize>,
    /// Whether the output came from the content cache.
    pub cached: bool,
}

/// Bit-width switching policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Always pick the most accurate point that fits the instantaneous
    /// budget.
    Greedy,
    /// Like greedy, but only switch when the current point violates the
    /// budget or a point better by at least `margin` (accuracy fraction)
    /// becomes affordable — trades accuracy for reconfiguration stability.
    Hysteresis {
        /// Minimum accuracy improvement to justify an upward switch.
        margin: f32,
    },
}

/// Simulation knobs beyond the switching policy.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationConfig {
    /// Energy charged per bit-width reconfiguration (pJ). The paper's
    /// engine switches by pointer swap, so the physical cost is ~0 — the
    /// default; set non-zero to model re-quantizing deployments. Affects
    /// accounting only, never point selection.
    pub switch_cost_pj: f64,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            switch_cost_pj: 0.0,
        }
    }
}

/// Outcome of a runtime simulation or serving run.
///
/// Three kinds of run fill it. The *policy simulation* ([`simulate`],
/// [`simulate_serving`]: no queue, one inference per affordable step)
/// fills only the policy fields — `mean_accuracy` through
/// `served_requests`. The *simulated clock* (the step loop behind
/// [`simulate_serving_batched`],
/// [`crate::resilience::simulate_serving_resilient`] and
/// [`crate::sharding::simulate_serving_sharded`]) and the *wall clock*
/// ([`crate::wallclock::serve_wallclock`] and its registry and streaming
/// forms) fill every field through one accumulator merge, except the
/// ones marked as belonging to one clock. A counter whose option is off
/// (no cache, no faults, no registry activity) reads zero.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RuntimeStats {
    /// Mean accuracy over served inferences: one per affordable step in a
    /// policy simulation, one per completed request otherwise.
    pub mean_accuracy: f32,
    /// Bit-width reconfigurations: changes of the scheduled width
    /// (policy simulation, simulated clock), or of a worker's serving
    /// width, summed over workers (wall clock).
    pub switches: usize,
    /// Budget-infeasible selections: timesteps where no operating point
    /// fit the budget, or (wall clock) batch attempts that found none.
    pub dropped: usize,
    /// Total energy consumed (pJ): one inference charge per
    /// forward-served request at its serving point, plus reconfiguration.
    pub energy_pj: f64,
    /// Energy spent on reconfigurations alone
    /// (`switches × switch_cost_pj`).
    pub switch_energy_pj: f64,
    /// The fleet's serving bit-width per timestep (`None` = dropped, or a
    /// stall that left no replica). Policy simulation and simulated clock;
    /// the wall clock has no global step loop and leaves it empty (its
    /// per-request widths live in the outcomes).
    pub schedule: Vec<Option<u8>>,
    /// Inferences run (policy simulation), or requests completed —
    /// `completed + completed_degraded`.
    pub served_requests: usize,
    /// Requests still queued when the trace ended (on the wall clock:
    /// requests the trace's final budget could never afford).
    pub backlog: usize,
    /// Deepest the total queue got: after each step's arrivals
    /// (simulated), or its high-water mark (wall clock).
    pub max_queue_depth: usize,
    /// `batch_histogram[b]` = batches of exactly `b` requests, length
    /// `max_batch + 1`. Simulated clock: one entry per serving replica per
    /// step, so index 0 counts idle serving steps; wall clock: one per
    /// forward (never 0).
    pub batch_histogram: Vec<usize>,
    /// Queueing delay per completed request, replica by replica (worker by
    /// worker) in completion order: serve step − arrival step (simulated),
    /// or completion − arrival in microseconds (wall clock).
    pub wait_steps: Vec<usize>,
    /// Mean of [`RuntimeStats::wait_steps`] (0 when nothing was served).
    pub mean_wait_steps: f64,
    /// Nearest-rank 50th percentile of the per-request queueing delay.
    pub p50_wait_steps: f64,
    /// Nearest-rank 99th percentile of the per-request queueing delay —
    /// the tail-latency figure switch policies are judged against.
    pub p99_wait_steps: f64,
    /// Nearest-rank 99.9th percentile of the per-request queueing delay —
    /// the deep tail a wall-clock deployment answers for.
    pub p999_wait_steps: f64,
    /// Requests served within deadline at the policy-selected bit-width.
    pub completed: usize,
    /// Requests served within deadline at a bit-width the degradation
    /// controller downshifted below the policy's pick.
    pub completed_degraded: usize,
    /// Requests rejected at admission (queue cap reached, or the deadline
    /// was unmeetable even under best-case service).
    pub shed: usize,
    /// Requests whose deadline passed while they were still queued.
    pub expired: usize,
    /// Requests abandoned after exhausting their retry budget on faulted
    /// batches.
    pub failed: usize,
    /// Total re-queues of fault-hit requests (a request retried twice
    /// counts twice).
    pub retried: usize,
    /// Injected stalls that idled a replica for a step (simulated), or a
    /// worker to the step boundary (wall clock).
    pub stalled_steps: usize,
    /// Injected faults that landed inside the trace (simulated), or that a
    /// worker consumed (wall clock; at most one per step).
    pub faults_injected: usize,
    /// Serving dwell per bit-width, ascending by bits: the sum of
    /// [`crate::sharding::ReplicaStats::time_in_bits`] over the replicas
    /// or workers — steps configured at each width (simulated), batches
    /// served at it (wall clock).
    pub time_in_bits: Vec<(u8, usize)>,
    /// Degradation-controller transitions as `(step, levels)` where
    /// `levels` is how many operating points below the policy's pick the
    /// controller holds the fleet after the transition (0 = recovered).
    pub degradation_events: Vec<(usize, usize)>,
    /// Wall clock only: work-steal operations between per-worker queues
    /// (each moves half a victim's backlog to an idle worker) under
    /// `QueueMode::Sharded` with stealing on.
    pub steals: usize,
    /// Wall clock only: dynamic-batch-controller transitions as
    /// `(step, new_cap)` under
    /// [`crate::wallclock::WallclockConfig::batch_control`].
    pub batch_limit_events: Vec<(usize, usize)>,
    /// Simulated clock only: requests answered straight from the
    /// content-keyed output cache (no forward ran).
    pub cache_hits: usize,
    /// Simulated clock only: cache probes that missed and fell through to
    /// a packed forward.
    pub cache_misses: usize,
    /// Simulated clock only: entries evicted from the content cache to
    /// stay within [`crate::sharding::ShardConfig::cache_capacity`].
    pub cache_evictions: usize,
    /// Per-replica (simulated) or per-worker (wall clock) breakdown, in
    /// replica or worker order.
    pub replicas: Vec<crate::sharding::ReplicaStats>,
    /// Wall clock only: duration of the run in microseconds.
    pub elapsed_us: u64,
    /// Wall clock only: sustained completed requests per second over the
    /// whole run — `served_requests / elapsed`.
    pub requests_per_sec: f64,
    /// Stable-version swaps (direct publishes plus canary promotions)
    /// the [`crate::registry::ModelRegistry`] applied during the run.
    pub reloads: usize,
    /// Canary candidates auto-rolled back during the run (divergence,
    /// latency band, or candidate fault).
    pub rollbacks: usize,
    /// Candidate publishes the registry refused before they reached
    /// traffic (CRC-corrupt checkpoints, incompatible packs).
    pub rejected_publishes: usize,
    /// Requests shadow-routed through a canary candidate. Shadow traffic
    /// is always *also* served by the stable version, so this never
    /// changes a client-visible output.
    pub canary_served: usize,
    /// Shadow-compared samples whose candidate output differed bit-wise
    /// from the stable version's at the same bit-width.
    pub divergences: usize,
    /// Work done on each model generation, ascending by generation id:
    /// timesteps per generation (simulated — the fleet re-pins together),
    /// batches per generation (wall clock).
    pub time_per_generation: Vec<(u64, usize)>,
}

/// The bit-width selection every path shares — the policy simulation, the
/// simulated step loop and the wall-clock workers: budget-constrained
/// greedy / hysteresis choice over a report's operating points, carrying
/// the hysteresis state between selections.
pub(crate) struct PolicySelector<'r> {
    report: &'r DeploymentReport,
    policy: Policy,
    current: Option<&'r OperatingPoint>,
}

impl<'r> PolicySelector<'r> {
    pub(crate) fn new(report: &'r DeploymentReport, policy: Policy) -> Self {
        PolicySelector {
            report,
            policy,
            current: None,
        }
    }

    /// Selects this timestep's operating point, or `None` when nothing
    /// fits the budget (which also resets the hysteresis anchor, so the
    /// next affordable step re-selects greedily).
    pub(crate) fn select(&mut self, budget: f64) -> Option<&'r OperatingPoint> {
        let best = self.report.select(budget);
        let next = match (self.policy, self.current, best) {
            (_, _, None) => None,
            (Policy::Greedy, _, Some(b)) => Some(b),
            (Policy::Hysteresis { .. }, None, Some(b)) => Some(b),
            (Policy::Hysteresis { margin }, Some(cur), Some(b)) => {
                // Switch when forced downward (over budget) or when the
                // upward move is worth more than the hysteresis margin.
                if cur.energy_pj > budget || b.accuracy > cur.accuracy + margin {
                    Some(b)
                } else {
                    Some(cur)
                }
            }
        };
        self.current = next;
        next
    }

    /// Drops the hysteresis anchor, as a budget-infeasible step does —
    /// used by the step loop when a stall leaves no replica to select for.
    pub(crate) fn reset(&mut self) {
        self.current = None;
    }
}

/// Simulates running `report`'s operating points over `trace` with the
/// given policy and zero switching cost.
pub fn simulate(report: &DeploymentReport, trace: &EnergyTrace, policy: Policy) -> RuntimeStats {
    simulate_with_config(report, trace, policy, &SimulationConfig::default())
}

/// [`simulate`] with explicit [`SimulationConfig`].
pub fn simulate_with_config(
    report: &DeploymentReport,
    trace: &EnergyTrace,
    policy: Policy,
    cfg: &SimulationConfig,
) -> RuntimeStats {
    run_simulation(report, trace, policy, cfg, |b| usize::from(b.is_some()))
}

/// Simulates the trace while actually serving inferences: every served
/// timestep switches `model` to the selected bit-width (a pointer swap)
/// and runs `input` through the packed engine. Returns the stats plus one
/// output tensor per timestep (`None` where the budget dropped the step).
///
/// # Panics
///
/// Panics if a selected operating point's bit-width is not in the packed
/// model's set — the report and the model must come from the same
/// [`instantnet_quant::BitWidthSet`].
pub fn simulate_serving(
    report: &DeploymentReport,
    trace: &EnergyTrace,
    policy: Policy,
    cfg: &SimulationConfig,
    model: &mut PackedModel,
    input: &Tensor,
) -> (RuntimeStats, Vec<Option<Tensor>>) {
    let mut outputs: Vec<Option<Tensor>> = Vec::with_capacity(trace.len());
    let stats = run_simulation(report, trace, policy, cfg, |bits| match bits {
        Some(b) => {
            assert!(
                model.switch_to_bits(b),
                "operating point {b} is not in the packed model's bit-width set"
            );
            outputs.push(Some(model.forward(input)));
            1
        }
        None => {
            outputs.push(None);
            0
        }
    });
    (stats, outputs)
}

/// Batched serving: requests arrive per [`RequestTrace`] step, queue FIFO,
/// and every budget-served timestep aggregates up to
/// [`ServingConfig::max_batch`] pending requests into **one** packed
/// multi-sample forward at the policy-selected bit-width. Request `r`
/// reuses `inputs[r % inputs.len()]` (each a `[1, …]` tensor). This is
/// the simulated step loop with the default
/// [`crate::sharding::ShardConfig`] and no faults; `model` is cloned (an
/// O(1) copy over shared packed tables), never switched.
///
/// Aggregation is invisible to individual requests: the batched forward
/// quantizes activations per sample ([`PackedModel::forward_batch`]), so
/// every [`RequestOutcome::output`] is bit-identical to serving that
/// request alone at the same bit-width — at every bit-width, both
/// quantizers, and any thread count. What batching changes is throughput
/// and latency, which the returned [`RuntimeStats`] measures: per-request
/// wait times, batch-size histogram, p50/p99 queueing delay, and
/// end-of-trace backlog. Energy and accuracy are charged per request
/// served (an idle served step charges nothing).
///
/// # Panics
///
/// Panics if the traces' lengths differ, `inputs` is empty or holds
/// differently-shaped non-`[1, …]` tensors, `max_batch` is zero, or a
/// report point's bit-width is missing from the packed model's set.
#[allow(clippy::too_many_arguments)]
pub fn simulate_serving_batched(
    report: &DeploymentReport,
    trace: &EnergyTrace,
    requests: &RequestTrace,
    policy: Policy,
    cfg: &SimulationConfig,
    serving: &ServingConfig,
    model: &mut PackedModel,
    inputs: &[Tensor],
) -> (RuntimeStats, Vec<RequestOutcome>) {
    let registry = ModelRegistry::new(model.clone(), "pinned");
    let sim = Sim(report, trace, requests, policy, cfg, serving, inputs);
    let (shard, faults) = (ShardConfig::default(), FaultPlan::none());
    serve_steps(sim, &shard, &faults, &registry, &mut |_, _| {}).unwrap_or_else(|e| panic!("{e}"))
}

/// The policy simulation's loop; `on_step` observes every timestep's
/// selection and returns how many inferences it ran under that selection
/// (1 per served step). Accuracy and inference energy are charged per
/// inference.
fn run_simulation(
    report: &DeploymentReport,
    trace: &EnergyTrace,
    policy: Policy,
    cfg: &SimulationConfig,
    mut on_step: impl FnMut(Option<BitWidth>) -> usize,
) -> RuntimeStats {
    let mut selector = PolicySelector::new(report, policy);
    let mut prev_bits: Option<BitWidth> = None;
    let mut switches = 0usize;
    let mut dropped = 0usize;
    let mut acc_sum = 0.0f32;
    let mut served = 0usize;
    let mut energy = 0.0f64;
    let mut schedule = Vec::with_capacity(trace.len());
    for &budget in trace.budgets() {
        match selector.select(budget) {
            Some(p) => {
                if prev_bits != Some(p.bits) {
                    switches += 1;
                }
                prev_bits = Some(p.bits);
                schedule.push(Some(p.bits.get()));
                let inferences = on_step(Some(p.bits));
                acc_sum += p.accuracy * inferences as f32;
                served += inferences;
                energy += p.energy_pj * inferences as f64;
            }
            None => {
                dropped += 1;
                prev_bits = None;
                schedule.push(None);
                on_step(None);
            }
        }
    }
    let switch_energy = switches as f64 * cfg.switch_cost_pj;
    RuntimeStats {
        mean_accuracy: if served > 0 {
            acc_sum / served as f32
        } else {
            0.0
        },
        switches,
        dropped,
        energy_pj: energy + switch_energy,
        switch_energy_pj: switch_energy,
        schedule,
        served_requests: served,
        ..RuntimeStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeploymentReport;
    use instantnet_quant::BitWidth;

    fn demo_report() -> DeploymentReport {
        let mk = |bits: u8, acc: f32, e: f64| OperatingPoint {
            bits: BitWidth::new(bits),
            accuracy: acc,
            energy_pj: e,
            latency_s: 1e-3,
            edp: e * 1e-3,
            fps: 1000.0,
        };
        DeploymentReport::new(
            "demo",
            1,
            vec![mk(4, 0.60, 10.0), mk(8, 0.70, 30.0), mk(32, 0.75, 100.0)],
        )
    }

    #[test]
    fn sinusoidal_trace_spans_range() {
        let t = EnergyTrace::sinusoidal(10.0, 100.0, 48, 2.0);
        let min = t.budgets().iter().cloned().fold(f64::INFINITY, f64::min);
        let max = t.budgets().iter().cloned().fold(0.0, f64::max);
        assert!(min < 12.0);
        assert!(max > 98.0);
        assert_eq!(t.len(), 48);
    }

    #[test]
    fn greedy_tracks_the_budget() {
        let report = demo_report();
        let trace = EnergyTrace::new(vec![5.0, 15.0, 50.0, 200.0]);
        let stats = simulate(&report, &trace, Policy::Greedy);
        assert_eq!(
            stats.schedule,
            vec![None, Some(4), Some(8), Some(32)],
            "one step per affordability tier"
        );
        assert_eq!(stats.dropped, 1);
    }

    #[test]
    fn hysteresis_switches_less_than_greedy() {
        let report = demo_report();
        // Budget oscillates across the 8/32 boundary every step.
        let trace = EnergyTrace::new(
            (0..40)
                .map(|t| if t % 2 == 0 { 35.0 } else { 120.0 })
                .collect(),
        );
        let greedy = simulate(&report, &trace, Policy::Greedy);
        let lazy = simulate(&report, &trace, Policy::Hysteresis { margin: 0.2 });
        assert!(
            lazy.switches < greedy.switches,
            "hysteresis {} vs greedy {}",
            lazy.switches,
            greedy.switches
        );
        assert!(lazy.mean_accuracy <= greedy.mean_accuracy + 1e-6);
    }

    #[test]
    fn hysteresis_still_respects_budget() {
        let report = demo_report();
        let trace = EnergyTrace::new(vec![120.0, 120.0, 12.0, 12.0]);
        let stats = simulate(&report, &trace, Policy::Hysteresis { margin: 0.5 });
        // Forced downward switch when 32-bit stops fitting.
        assert_eq!(stats.schedule[2], Some(4));
        for (b, s) in trace.budgets().iter().zip(&stats.schedule) {
            if let Some(bits) = s {
                let p = report
                    .points()
                    .iter()
                    .find(|p| p.bits.get() == *bits)
                    .unwrap();
                assert!(p.energy_pj <= *b);
            }
        }
    }

    #[test]
    fn energy_accounting_sums_served_points() {
        let report = demo_report();
        let trace = EnergyTrace::new(vec![15.0, 15.0]);
        let stats = simulate(&report, &trace, Policy::Greedy);
        assert_eq!(stats.energy_pj, 20.0);
        assert_eq!(stats.switches, 1, "initial selection counts once");
        assert_eq!(stats.switch_energy_pj, 0.0, "default switching is free");
    }

    #[test]
    fn switch_cost_charges_accounting_without_changing_selection() {
        let report = demo_report();
        // 4 -> 8 -> 4 -> 8: three reconfigurations after the initial pick.
        let trace = EnergyTrace::new(vec![15.0, 35.0, 15.0, 35.0]);
        let free = simulate(&report, &trace, Policy::Greedy);
        let cfg = SimulationConfig {
            switch_cost_pj: 5.0,
        };
        let costed = simulate_with_config(&report, &trace, Policy::Greedy, &cfg);
        assert_eq!(costed.schedule, free.schedule, "selection must not change");
        assert_eq!(costed.switches, 4);
        assert_eq!(costed.switch_energy_pj, 20.0);
        assert_eq!(costed.energy_pj, free.energy_pj + 20.0);
    }

    #[test]
    fn serving_runs_packed_inference_per_served_step() {
        use instantnet_infer::PackedModel;
        use instantnet_nn::models;
        use instantnet_quant::{BitWidthSet, Quantizer};

        let bits = BitWidthSet::new(vec![4, 8, 32]).unwrap();
        let net = models::small_cnn(4, 6, (8, 8), bits.len(), 5);
        let mut model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
        let report = demo_report(); // points at 4/8/32 bits, matching `bits`
        let trace = EnergyTrace::new(vec![5.0, 15.0, 50.0, 200.0]);
        let x = Tensor::from_vec(
            vec![1, 3, 8, 8],
            (0..3 * 8 * 8)
                .map(|i| (i % 13) as f32 / 13.0 - 0.5)
                .collect(),
        );
        let (stats, outputs) = simulate_serving(
            &report,
            &trace,
            Policy::Greedy,
            &SimulationConfig::default(),
            &mut model,
            &x,
        );
        assert_eq!(outputs.len(), trace.len());
        for (step, out) in stats.schedule.iter().zip(&outputs) {
            match (step, out) {
                (Some(b), Some(y)) => {
                    assert_eq!(y.dims(), &[1, 6]);
                    // The serving path produces exactly what a direct
                    // forward at that bit-width produces.
                    let i = bits.index_of(instantnet_quant::BitWidth::new(*b)).unwrap();
                    assert_eq!(y.data(), model.forward_at(i, &x).data());
                }
                (None, None) => {}
                _ => panic!("schedule and outputs disagree"),
            }
        }
        assert_eq!(stats.dropped, 1);
        assert_eq!(model.active_bits().get(), 32, "last served point sticks");
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_trace_rejected() {
        let _ = EnergyTrace::new(vec![]);
    }

    #[test]
    fn per_timestep_paths_leave_queue_fields_empty() {
        let report = demo_report();
        let trace = EnergyTrace::new(vec![5.0, 15.0, 50.0]);
        let stats = simulate(&report, &trace, Policy::Greedy);
        assert_eq!(stats.served_requests, 2, "one inference per served step");
        assert_eq!(stats.backlog, 0);
        assert!(stats.batch_histogram.is_empty());
        assert!(stats.wait_steps.is_empty());
        assert_eq!(stats.mean_wait_steps, 0.0);
    }

    #[test]
    fn batched_serving_aggregates_fifo_and_accounts_per_request() {
        use instantnet_infer::PackedModel;
        use instantnet_nn::models;
        use instantnet_quant::{BitWidthSet, Quantizer};

        let bits = BitWidthSet::new(vec![4, 8, 32]).unwrap();
        let net = models::small_cnn(4, 6, (8, 8), bits.len(), 5);
        let mut model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
        let report = demo_report();
        // Budget 15 affords only the 4-bit point (10 pJ) at every step.
        let trace = EnergyTrace::new(vec![15.0, 15.0, 15.0]);
        let requests = RequestTrace::new(vec![3, 0, 2]);
        let inputs: Vec<Tensor> = (0..2)
            .map(|v| {
                Tensor::from_vec(
                    vec![1, 3, 8, 8],
                    (0..3 * 8 * 8)
                        .map(|i| ((i + v * 31) % 13) as f32 / 13.0 - 0.5)
                        .collect(),
                )
            })
            .collect();
        let (stats, outcomes) = simulate_serving_batched(
            &report,
            &trace,
            &requests,
            Policy::Greedy,
            &SimulationConfig::default(),
            &ServingConfig { max_batch: 2 },
            &mut model,
            &inputs,
        );
        assert_eq!(outcomes.len(), 5, "no request lost");
        // t0 serves [0, 1]; t1 drains [2]; t2 serves the new [3, 4].
        let served_at: Vec<_> = outcomes.iter().map(|o| o.served_at).collect();
        assert_eq!(served_at, vec![Some(0), Some(0), Some(1), Some(2), Some(2)]);
        assert_eq!(stats.served_requests, 5);
        assert_eq!(stats.backlog, 0);
        assert_eq!(stats.max_queue_depth, 3);
        assert_eq!(stats.batch_histogram, vec![0, 1, 2]);
        assert_eq!(stats.wait_steps, vec![0, 0, 1, 0, 0]);
        assert_eq!(stats.p50_wait_steps, 0.0);
        assert_eq!(stats.p99_wait_steps, 1.0);
        // Energy and accuracy are charged per request at the 4-bit point.
        assert_eq!(stats.energy_pj, 5.0 * 10.0);
        assert!((stats.mean_accuracy - 0.60).abs() < 1e-6);
        // Every output is bit-identical to serving that request alone.
        let i4 = bits.index_of(BitWidth::new(4)).unwrap();
        for (r, o) in outcomes.iter().enumerate() {
            let alone = model.forward_at(i4, &inputs[r % inputs.len()]);
            assert_eq!(
                o.output.as_ref().unwrap().data(),
                alone.data(),
                "request {r}"
            );
            assert_eq!(o.bits, Some(4));
        }
    }

    #[test]
    fn batched_serving_queues_through_dropped_steps() {
        use instantnet_infer::PackedModel;
        use instantnet_nn::models;
        use instantnet_quant::{BitWidthSet, Quantizer};

        let bits = BitWidthSet::new(vec![4, 8, 32]).unwrap();
        let net = models::small_cnn(4, 6, (8, 8), bits.len(), 5);
        let mut model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
        let report = demo_report();
        // Step 1 affords nothing: its arrivals wait; step 2 catches up.
        let trace = EnergyTrace::new(vec![15.0, 5.0, 15.0]);
        let requests = RequestTrace::new(vec![1, 1, 0]);
        let input = Tensor::from_vec(
            vec![1, 3, 8, 8],
            (0..3 * 8 * 8).map(|i| (i % 7) as f32 / 7.0 - 0.5).collect(),
        );
        let (stats, outcomes) = simulate_serving_batched(
            &report,
            &trace,
            &requests,
            Policy::Greedy,
            &SimulationConfig::default(),
            &ServingConfig::default(),
            &mut model,
            std::slice::from_ref(&input),
        );
        assert_eq!(stats.dropped, 1);
        assert_eq!(outcomes[1].arrived_at, 1);
        assert_eq!(outcomes[1].served_at, Some(2), "waits out the dropped step");
        assert_eq!(stats.wait_steps, vec![0, 1]);
        assert_eq!(stats.backlog, 0);
    }

    #[test]
    #[should_panic(expected = "same timesteps")]
    fn mismatched_trace_lengths_rejected() {
        use instantnet_infer::PackedModel;
        use instantnet_nn::models;
        use instantnet_quant::{BitWidthSet, Quantizer};
        let bits = BitWidthSet::new(vec![4, 8, 32]).unwrap();
        let net = models::small_cnn(4, 6, (8, 8), bits.len(), 5);
        let mut model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();
        let _ = simulate_serving_batched(
            &demo_report(),
            &EnergyTrace::new(vec![15.0, 15.0]),
            &RequestTrace::uniform(1, 3),
            Policy::Greedy,
            &SimulationConfig::default(),
            &ServingConfig::default(),
            &mut model,
            &[Tensor::zeros(&[1, 3, 8, 8])],
        );
    }
}
