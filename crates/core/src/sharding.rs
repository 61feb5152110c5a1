//! The simulated serving loop: one request stream over N `PackedModel`
//! replicas in simulated time, with every serving option of the
//! simulated clock.
//!
//! [`simulate_serving_sharded_versioned`] runs the only simulated step
//! loop in the crate; [`crate::runtime::simulate_serving_batched`],
//! [`crate::resilience::simulate_serving_resilient`] and
//! [`simulate_serving_sharded`] are wrappers over it with a
//! single-version [`ModelRegistry`] and, for the first, the default
//! [`ShardConfig`] and no faults. The wall-clock workers of
//! [`crate::wallclock`] share its batch executor, serving-point rule,
//! accumulator and validator ([`crate::engine`]); what this module keeps
//! is the simulated clock's *when* and *from which queue*.
//!
//! Each step, in order: the step hook runs and the fleet re-pins the
//! registry if it moved (so no batch straddles a publish); arrivals are
//! admitted against the fleet's total backlog and dispatched — round
//! robin, join-shortest-queue, or by deadline slack when
//! [`ShardConfig::pinned`]; queued requests past their deadline expire;
//! the budget policy picks one operating point for the fleet and the
//! degradation controller shifts it; then every serving replica drains
//! its queue (cache hits complete on the spot) and the non-empty batches
//! run as one packed forward per replica, concurrently on
//! [`instantnet_parallel`] scoped threads. Replica clones are free —
//! [`PackedModel::clone`] shares the packed tables behind an `Arc` — and
//! per-sample activation quantization keeps every output bit-identical to
//! serving that request alone, so *which* replica serves a request, and
//! when, never changes its output.
//!
//! Where the fleet and one worker could disagree, one rule holds:
//!
//! * **Stall scope.** A [`FaultKind::Stall`] idles
//!   [`ShardConfig::fault_replica`]. When that leaves no replica — a
//!   fleet of one — the step skips selection: it schedules nothing and
//!   resets the hysteresis anchor, but is not a budget drop.
//! * **Hopeless deadlines.** An arrival is shed when
//!   `backlog / (replicas × max_batch) > deadline_steps`: even draining a
//!   full batch per replica per step it would expire.
//! * **Retries.** A faulted batch's requests re-queue at the head of the
//!   least-loaded *other* replica (the same one in a fleet of one),
//!   eligible at `t + 1 + retry_backoff_steps`.
//! * **Degradation** shifts the fleet's pick, so it cannot combine with
//!   pinned replicas (a [`ServingError::Config`]).

use crate::engine::batch::{forward, gather_batch, scatter_outputs, shadow_compare, validate};
use crate::engine::cache::{cache_key, LruCache};
use crate::engine::degrade::{point_index, serve_point, HysteresisController};
use crate::engine::stats::Acc;
use crate::faults::{FaultKind, FaultPlan};
use crate::registry::ModelRegistry;
use crate::resilience::{config_err, DegradationConfig, RequestStatus, ServingError};
use crate::runtime::{
    EnergyTrace, Policy, PolicySelector, RequestOutcome, RequestTrace, RuntimeStats, ServingConfig,
    SimulationConfig,
};
use crate::{DeploymentReport, OperatingPoint};
use instantnet_infer::PackedModel;
use instantnet_parallel::par_chunks_mut;
use instantnet_tensor::Tensor;
use std::collections::VecDeque;

/// How arrivals are spread across replica queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchPolicy {
    /// Cycle through replicas in index order, one request per turn.
    #[default]
    RoundRobin,
    /// Join the shortest queue (ties to the lowest replica index).
    LeastLoaded,
}

/// Bit-width specialization: pin each replica to one operating point and
/// route arrivals by deadline slack instead of queue shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PinnedConfig {
    /// `point_indices[r]` = index into [`DeploymentReport::points`] that
    /// replica `r` serves at. Must have one entry per replica.
    pub point_indices: Vec<usize>,
    /// An arrival whose projected slack at the most accurate replica —
    /// deadline minus its best-case service step behind that replica's
    /// queue — is at or below this diverts to the lowest-latency replica.
    pub urgent_slack: usize,
}

/// Knobs of the simulated serving loop (also
/// [`crate::resilience::ResilienceConfig`]). The default — one replica,
/// round-robin, cache off, nothing pinned, no deadlines, no cap, no
/// retries, no degradation — is plain batched serving.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardConfig {
    /// Number of `PackedModel` replicas (each an O(1) clone).
    pub replicas: usize,
    /// How arrivals pick a replica queue (ignored when `pinned` is set —
    /// pinned mode routes by deadline slack).
    pub dispatch: DispatchPolicy,
    /// Enable the content-keyed output cache in front of the forwards: a
    /// request whose `(generation, bit-width, input bytes)` was already
    /// computed this run completes instantly from the cached tensor,
    /// charging no energy and consuming no batch slot.
    pub cache: bool,
    /// Maximum entries the content cache holds; the least-recently-used
    /// entry is evicted to admit a new one past the cap. Eviction only
    /// costs recompute — every miss reruns the same exact forward. Must be
    /// ≥ 1 when `cache` is on.
    pub cache_capacity: usize,
    /// Bit-width specialization; requires `deadline_steps` (slack routing
    /// needs deadlines to measure slack against).
    pub pinned: Option<PinnedConfig>,
    /// Relative deadline: a request arriving at step `t` expires if still
    /// queued after step `t + deadline_steps`, and is shed on arrival when
    /// even best-case service would miss it. `None` = no deadlines.
    pub deadline_steps: Option<usize>,
    /// Admission cap on the *total* queued across all replicas; arrivals
    /// over the cap are shed. `None` = unbounded.
    pub max_queue_depth: Option<usize>,
    /// How many times a fault-hit request re-queues before it is failed.
    pub max_retries: usize,
    /// Extra steps a retried request waits before becoming eligible again.
    pub retry_backoff_steps: usize,
    /// Wall-clock length of one simulated step, in seconds. When set, a
    /// replica's batch capacity at a point is
    /// `min(max_batch, floor(step_time_s / point.latency_s))`, so
    /// downshifting to a lower-latency point genuinely raises throughput —
    /// the mechanism degradation trades accuracy for. `None` keeps
    /// capacity at `max_batch` regardless of bit-width.
    pub step_time_s: Option<f64>,
    /// The precision-downshift controller over the fleet's total backlog.
    /// `None` = policy picks alone.
    pub degradation: Option<DegradationConfig>,
    /// Which replica the [`FaultPlan`] targets; the others never fault.
    pub fault_replica: usize,
    /// Work stealing between replica queues: a replica that would serve
    /// this step but drained nothing from its own queue drains the deepest
    /// other queue (ties to the lowest index) at its own point.
    pub work_stealing: bool,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            replicas: 1,
            dispatch: DispatchPolicy::RoundRobin,
            cache: false,
            cache_capacity: 65_536,
            pinned: None,
            deadline_steps: None,
            max_queue_depth: None,
            max_retries: 0,
            retry_backoff_steps: 0,
            step_time_s: None,
            degradation: None,
            fault_replica: 0,
            work_stealing: false,
        }
    }
}

/// Per-replica (simulated clock) or per-worker (wall clock) slice of a
/// run, embedded in [`RuntimeStats::replicas`] in replica/worker order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplicaStats {
    /// Requests this replica completed, including its cache hits.
    pub served: usize,
    /// Non-empty packed forwards this replica ran (successful or faulted).
    pub batches: usize,
    /// Forwards that faulted (injected or genuine) on this replica.
    pub faulted_batches: usize,
    /// Requests still in this replica's queue when the trace ended
    /// (simulated clock; the wall clock's backlog is global).
    pub backlog: usize,
    /// Deepest this replica's own queue got: after each step's arrivals
    /// (simulated), or its shard's high-water mark under
    /// [`crate::wallclock::QueueMode::Sharded`] (wall clock; 0 under the
    /// shared queue, whose mark is the global one).
    pub max_queue_depth: usize,
    /// Requests this replica answered from the output cache.
    pub cache_hits: usize,
    /// Mean queueing delay of the requests this replica served.
    pub mean_wait_steps: f64,
    /// Nearest-rank p99 queueing delay of this replica's requests — same
    /// percentile definition as the global [`RuntimeStats::p99_wait_steps`].
    pub p99_wait_steps: f64,
    /// Serving dwell per bit-width, ascending by bits: steps configured at
    /// each width (simulated) or batches served at it (wall clock).
    pub time_in_bits: Vec<(u8, usize)>,
    /// Model generation this replica was pinned to when the run ended.
    pub generation: u64,
}

/// Per-request record of a simulated run — an alias of the one outcome
/// type every simulated entry point returns.
pub type ShardedOutcome = RequestOutcome;

/// One queued request: outcome index plus first step it may batch again.
#[derive(Clone)]
struct QEntry {
    id: usize,
    eligible_at: usize,
}

/// The arguments every simulated entry point shares, in their order:
/// report, energy trace, request trace, policy, simulation and serving
/// configs, request inputs.
#[derive(Clone, Copy)]
pub(crate) struct Sim<'a>(
    pub &'a DeploymentReport,
    pub &'a EnergyTrace,
    pub &'a RequestTrace,
    pub Policy,
    pub &'a SimulationConfig,
    pub &'a ServingConfig,
    pub &'a [Tensor],
);

/// One replica's work for the current step, run on its own model by the
/// scoped-thread fan-out; slots borrow disjoint models.
struct Slot<'m> {
    model: &'m mut PackedModel,
    point: Option<&'m OperatingPoint>,
    taken: Vec<QEntry>,
    batch: Option<Tensor>,
    fault: Option<FaultKind>,
    result: Option<Result<Tensor, String>>,
}

/// The simulated clock's own checks, then the ones both clocks share.
fn validate_sim(
    sim: Sim<'_>,
    shard: &ShardConfig,
    model: &PackedModel,
) -> Result<(), ServingError> {
    let Sim(report, trace, requests, _, _, serving, inputs) = sim;
    if requests.len() != trace.len() {
        return config_err(format!(
            "request trace ({} steps) and energy trace ({} steps) must cover the same timesteps",
            requests.len(),
            trace.len()
        ));
    }
    if shard.fault_replica >= shard.replicas {
        return config_err(format!(
            "fault_replica {} out of range for {} replicas",
            shard.fault_replica, shard.replicas
        ));
    }
    if shard.cache && shard.cache_capacity == 0 {
        return config_err("cache_capacity must be at least 1 when the cache is enabled");
    }
    if let Some(st) = shard.step_time_s.filter(|st| !st.is_finite() || *st <= 0.0) {
        return config_err(format!("step_time_s must be finite and positive, got {st}"));
    }
    if let Some(pc) = &shard.pinned {
        if pc.point_indices.len() != shard.replicas {
            return config_err(format!(
                "pinned point_indices has {} entries for {} replicas",
                pc.point_indices.len(),
                shard.replicas
            ));
        }
        if let Some(bad) = pc
            .point_indices
            .iter()
            .find(|&&i| i >= report.points().len())
        {
            return config_err(format!("pinned point index {bad} out of range"));
        }
        if shard.deadline_steps.is_none() {
            return config_err("pinned routing requires deadline_steps (it routes on slack)");
        }
        if shard.degradation.is_some() {
            return config_err("degradation shifts the fleet's pick; pinned replicas have none");
        }
    }
    let band = shard
        .degradation
        .as_ref()
        .map(|d| (d.backlog_high, d.backlog_low, d.recovery_window >= 1));
    validate(
        report,
        model,
        inputs,
        (shard.replicas, serving.max_batch),
        band,
    )
}

/// Batched serving over N packed replicas with content caching,
/// deadlines, degradation and per-replica fault isolation, over a frozen
/// model: [`simulate_serving_sharded_versioned`] with a single-version
/// registry and no step hook.
///
/// Global [`RuntimeStats`] aggregate over the fleet, `stats.replicas[r]`
/// carries each replica's share, and `arrivals == completed +
/// completed_degraded + shed + expired + failed + backlog` always holds.
/// Energy is charged per forward-served request at its serving point;
/// cache hits charge nothing.
///
/// # Errors
///
/// [`ServingError::Config`] for inconsistent traces, shapes, or knobs;
/// [`ServingError::Infer`] if any report point's bit-width is missing
/// from the packed set (checked up front).
#[allow(clippy::too_many_arguments)]
pub fn simulate_serving_sharded(
    report: &DeploymentReport,
    trace: &EnergyTrace,
    requests: &RequestTrace,
    policy: Policy,
    cfg: &SimulationConfig,
    serving: &ServingConfig,
    shard: &ShardConfig,
    faults: &FaultPlan,
    model: &PackedModel,
    inputs: &[Tensor],
) -> Result<(RuntimeStats, Vec<ShardedOutcome>), ServingError> {
    let registry = ModelRegistry::new(model.clone(), "pinned");
    let sim = Sim(report, trace, requests, policy, cfg, serving, inputs);
    serve_steps(sim, shard, faults, &registry, &mut |_, _| {})
}

/// The simulated serving loop over a live [`ModelRegistry`]: every
/// replica serves out of the registry's stable version, and the fleet
/// observes the registry once per timestep — at the step boundary, before
/// any batch is drained — so all batches of a step are served by one
/// consistent (stable, canary) pair and no in-flight batch ever straddles
/// a publish. `on_step(t, registry)` runs first at each step, which is
/// where deterministic tests inject mid-traffic publishes: a publish made
/// inside the hook at step `t` is adopted by every replica for step `t`'s
/// batches.
///
/// When a canary is in flight, its configured fraction of successful
/// batches is shadow-forwarded through the candidate at the same
/// bit-width and compared bit-exactly (requests are always answered from
/// stable); divergences and candidate faults feed the registry's
/// auto-rollback state machine. The simulated clock has no wall time, so
/// the latency band never trips here.
///
/// # Errors
///
/// As [`simulate_serving_sharded`], validated against the registry's
/// stable model (published candidates are guaranteed compatible by the
/// registry).
#[allow(clippy::too_many_arguments)]
pub fn simulate_serving_sharded_versioned(
    report: &DeploymentReport,
    trace: &EnergyTrace,
    requests: &RequestTrace,
    policy: Policy,
    cfg: &SimulationConfig,
    serving: &ServingConfig,
    shard: &ShardConfig,
    faults: &FaultPlan,
    registry: &ModelRegistry,
    on_step: &mut dyn FnMut(usize, &ModelRegistry),
    inputs: &[Tensor],
) -> Result<(RuntimeStats, Vec<ShardedOutcome>), ServingError> {
    let sim = Sim(report, trace, requests, policy, cfg, serving, inputs);
    serve_steps(sim, shard, faults, registry, on_step)
}

/// The step loop behind every simulated entry point (see the module docs
/// for the order of a step and the rules it follows).
#[allow(clippy::too_many_lines)]
pub(crate) fn serve_steps(
    sim: Sim<'_>,
    shard: &ShardConfig,
    faults: &FaultPlan,
    registry: &ModelRegistry,
    on_step: &mut dyn FnMut(usize, &ModelRegistry),
) -> Result<(RuntimeStats, Vec<RequestOutcome>), ServingError> {
    let Sim(report, trace, requests, policy, cfg, serving, inputs) = sim;
    let mut pin = registry.snapshot();
    validate_sim(sim, shard, pin.stable.model())?;
    let metrics0 = registry.metrics();
    let (n, points, max_batch) = (shard.replicas, report.points(), serving.max_batch);
    let mut models = vec![pin.stable.model().clone(); n];
    let mut shadow = pin.canary.as_ref().map(|v| v.model().clone());
    let mut queues: Vec<VecDeque<QEntry>> = vec![VecDeque::new(); n];
    let mut accs: Vec<Acc> = (0..n).map(|_| Acc::new(max_batch)).collect();
    let mut outcomes: Vec<RequestOutcome> = Vec::with_capacity(requests.total());
    let mut cache = shard.cache.then(|| LruCache::new(shard.cache_capacity));
    let mut stats = RuntimeStats::default();
    let mut selector = PolicySelector::new(report, policy);
    let mut controller = shard.degradation.as_ref().map(|d| {
        HysteresisController::new(d.backlog_high, d.backlog_low, d.recovery_window as u64)
    });
    let mut prev_bits = None;
    let mut rr_cursor = 0usize;
    let capacity = |p: &OperatingPoint| match shard.step_time_s {
        Some(st) => ((st / p.latency_s).floor().max(0.0) as usize).min(max_batch),
        None => max_batch,
    };
    // Pinned routing targets: the most accurate replica (where slack-rich
    // arrivals go) and the fastest (where urgent ones divert), ties to the
    // lower index (`max_by` keeps the last maximum, hence the `rev`).
    let routing = shard.pinned.as_ref().map(|pc| {
        let at = |r: usize| &points[pc.point_indices[r]];
        let quality = (0..n)
            .rev()
            .max_by(|&a, &b| at(a).accuracy.total_cmp(&at(b).accuracy));
        let fast = (0..n).min_by(|&a, &b| at(a).latency_s.total_cmp(&at(b).latency_s));
        (
            quality.expect("a replica"),
            fast.expect("a replica"),
            pc.urgent_slack,
        )
    });

    for (t, &budget) in trace.budgets().iter().enumerate() {
        // 0. Version pinning at the step boundary; re-pinning is O(1)
        // Arc-shared clones per replica. The fleet re-pins together, so
        // replica 0 carries the steps-per-generation count.
        on_step(t, registry);
        if registry.epoch() != pin.epoch {
            pin = registry.snapshot();
            models.fill(pin.stable.model().clone());
            shadow = pin.canary.as_ref().map(|v| v.model().clone());
        }
        *accs[0].generations.entry(pin.generation()).or_insert(0) += 1;
        let fault = faults.at(t);

        // 1. Arrivals: admission against the total backlog, then dispatch.
        for _ in 0..requests.arrivals()[t] {
            let id = outcomes.len();
            let backlog: usize = queues.iter().map(VecDeque::len).sum();
            let mut rec = RequestOutcome {
                arrived_at: t,
                deadline: shard.deadline_steps.map(|d| t + d),
                ..RequestOutcome::default()
            };
            let hopeless = shard
                .deadline_steps
                .is_some_and(|d| backlog / (n * max_batch) > d);
            if hopeless || shard.max_queue_depth.is_some_and(|cap| backlog >= cap) {
                rec.status = RequestStatus::Shed;
                stats.shed += 1;
                outcomes.push(rec);
                continue;
            }
            let r = match routing {
                // Best case the quality replica drains max_batch per step,
                // so the arrival is served at t + queue/max_batch at the
                // earliest; route on the slack left then.
                Some((quality, fast, urgent)) => {
                    let served = t + queues[quality].len() / max_batch;
                    let deadline = rec.deadline.expect("validated: pinned has deadlines");
                    if deadline.saturating_sub(served) <= urgent {
                        fast
                    } else {
                        quality
                    }
                }
                None if shard.dispatch == DispatchPolicy::LeastLoaded => {
                    (0..n).min_by_key(|&r| queues[r].len()).expect("a replica")
                }
                None => {
                    let r = rr_cursor;
                    rr_cursor = (r + 1) % n;
                    r
                }
            };
            rec.replica = Some(r);
            queues[r].push_back(QEntry { id, eligible_at: t });
            outcomes.push(rec);
        }
        let depth: usize = queues.iter().map(VecDeque::len).sum();
        stats.max_queue_depth = stats.max_queue_depth.max(depth);
        for (a, q) in accs.iter_mut().zip(&queues) {
            a.max_queue_depth = a.max_queue_depth.max(q.len());
        }

        // 2. Expire requests whose deadline has passed.
        if shard.deadline_steps.is_some() {
            for q in &mut queues {
                q.retain(|e| {
                    let live = outcomes[e.id].deadline.is_none_or(|d| d >= t);
                    if !live {
                        outcomes[e.id].status = RequestStatus::Expired;
                        stats.expired += 1;
                    }
                    live
                });
            }
        }

        // 3. One pick for the whole fleet, unless a stall left no replica.
        let stalled = fault == Some(FaultKind::Stall);
        let pick = if stalled && n == 1 {
            stats.stalled_steps += 1;
            selector.reset();
            None
        } else {
            let pick = selector.select(budget);
            stats.dropped += usize::from(pick.is_none());
            pick
        };
        let Some(pick) = pick else {
            prev_bits = None;
            stats.schedule.push(None);
            continue;
        };

        // 4. Degradation: one move per recovery window on the backlog,
        // then the fleet serves `levels` points below the pick.
        let idx = point_index(points, pick);
        let levels = controller.as_mut().map_or(0, |c| {
            let depth = queues.iter().map(VecDeque::len).sum();
            if let Some(lv) = c.observe(t as u64, depth, idx) {
                stats.degradation_events.push((t, lv));
            }
            c.levels()
        });
        let (fleet, degraded) = serve_point(points, idx, levels);
        stats.switches += usize::from(prev_bits != Some(fleet.bits));
        prev_bits = Some(fleet.bits);
        stats.schedule.push(Some(fleet.bits.get()));

        // 5. Each replica's point: a pinned replica serves at its own
        // point on steps that point fits the budget; a stall idles the
        // faulted replica.
        let mut serve: Vec<Option<&OperatingPoint>> = Vec::with_capacity(n);
        for (r, a) in accs.iter_mut().enumerate() {
            let point = shard
                .pinned
                .as_ref()
                .map_or(fleet, |pc| &points[pc.point_indices[r]]);
            if shard.pinned.is_some() && point.energy_pj > budget {
                serve.push(None);
            } else if stalled && r == shard.fault_replica {
                stats.stalled_steps += 1;
                serve.push(None);
            } else {
                *a.time_in_bits.entry(point.bits.get()).or_insert(0) += 1;
                serve.push(Some(point));
            }
        }

        // 6. Drain: up to the point's capacity of backoff-eligible
        // requests from the head of a queue, FIFO. A cache hit completes
        // on the spot on the serving replica's accumulator — free, and
        // without taking a batch slot, so one step can clear hits plus a
        // full batch.
        let generation = pin.generation();
        let mut drain = |queue: &mut VecDeque<QEntry>, a: &mut Acc, point: &OperatingPoint| {
            let (mut taken, mut skipped) = (Vec::new(), Vec::new());
            while taken.len() < capacity(point) {
                let Some(e) = queue.pop_front() else { break };
                if e.eligible_at > t {
                    skipped.push(e);
                    continue;
                }
                if let Some(c) = cache.as_mut() {
                    let key = cache_key(generation, point.bits, &inputs[e.id % inputs.len()]);
                    if let Some(y) = c.get(&key) {
                        let rec = &mut outcomes[e.id];
                        rec.status = a.complete(point, degraded, 1, true);
                        (rec.served_at, rec.bits) = (Some(t), Some(point.bits.get()));
                        (rec.output, rec.cached) = (Some(y.clone()), true);
                        a.waits.push(t - rec.arrived_at);
                        continue;
                    }
                    a.cache_misses += 1;
                }
                taken.push(e);
            }
            for e in skipped.into_iter().rev() {
                queue.push_front(e);
            }
            taken
        };
        let mut takes: Vec<Vec<QEntry>> = Vec::with_capacity(n);
        for (r, q) in queues.iter_mut().enumerate() {
            takes.push(serve[r].map_or_else(Vec::new, |p| drain(q, &mut accs[r], p)));
        }
        // Work stealing, after every own drain so it only takes leftover
        // backlog: a serving replica whose drain came up empty drains the
        // deepest other queue (ties to the lowest index) at its own point.
        if shard.work_stealing {
            for r in 0..n {
                let Some(p) = serve[r].filter(|_| takes[r].is_empty()) else {
                    continue;
                };
                let deepest = (0..n).rev().filter(|&v| v != r && !queues[v].is_empty());
                if let Some(v) = deepest.max_by_key(|&v| queues[v].len()) {
                    takes[r] = drain(&mut queues[v], &mut accs[r], p);
                }
            }
            for (r, taken) in takes.iter().enumerate() {
                for e in taken {
                    outcomes[e.id].replica = Some(r);
                }
            }
        }

        // 7. Run the non-empty batches, one scoped thread per replica
        // (inline for a fleet of one). The histogram counts post-steal
        // takes of every serving replica, idle ones included.
        let mut slots: Vec<Slot<'_>> = Vec::with_capacity(n);
        for ((r, model), taken) in models.iter_mut().enumerate().zip(takes) {
            if serve[r].is_some() {
                accs[r].histogram[taken.len()] += 1;
            }
            let ids: Vec<usize> = taken.iter().map(|e| e.id).collect();
            let batch = (!ids.is_empty())
                .then(|| gather_batch(inputs, inputs[0].dims(), inputs[0].len(), &ids));
            let fault = fault.filter(|_| r == shard.fault_replica);
            let point = serve[r];
            slots.push(Slot {
                model,
                point,
                taken,
                batch,
                fault,
                result: None,
            });
        }
        par_chunks_mut(&mut slots, 1, |_, chunk| {
            let s = &mut chunk[0];
            if let (Some(p), Some(batch)) = (s.point, &s.batch) {
                s.result = Some(forward(s.model, p.bits, batch, s.fault, t));
            }
        });

        // 8. Join in replica order; a faulted batch fails or retries only
        // its own requests.
        for (r, s) in slots.into_iter().enumerate() {
            let (Some(p), Some(result)) = (s.point, s.result) else {
                continue;
            };
            let a = &mut accs[r];
            a.batches += 1;
            let Ok(y) = result else {
                a.faulted_batches += 1;
                let target = (0..n)
                    .filter(|&v| v != r || n == 1)
                    .min_by_key(|&v| queues[v].len())
                    .expect("a replica");
                for e in s.taken.iter().rev() {
                    let rec = &mut outcomes[e.id];
                    rec.attempts += 1;
                    if a.retry(rec.attempts, shard.max_retries) {
                        rec.replica = Some(target);
                        let eligible_at = t + 1 + shard.retry_backoff_steps;
                        queues[target].push_front(QEntry {
                            id: e.id,
                            eligible_at,
                        });
                    } else {
                        rec.status = RequestStatus::Failed;
                    }
                }
                continue;
            };
            let outs = scatter_outputs(&y, s.taken.len());
            // The canary shadows a ticketed fraction of successful batches;
            // requests are still answered from the stable outputs below.
            if let Some(cand) = shadow
                .as_mut()
                .filter(|_| registry.canary_ticket(pin.epoch))
            {
                let batch = s.batch.as_ref().expect("a forward ran on this batch");
                shadow_compare(registry, pin.epoch, cand, p.bits, batch, &outs, 0, &|| 0);
            }
            let status = a.complete(p, degraded, outs.len(), false);
            for (e, out) in s.taken.iter().zip(outs) {
                let rec = &mut outcomes[e.id];
                if let Some(c) = cache.as_mut() {
                    c.insert(
                        cache_key(generation, p.bits, &inputs[e.id % inputs.len()]),
                        &out,
                    );
                }
                (rec.served_at, rec.bits, rec.status) = (Some(t), Some(p.bits.get()), status);
                rec.output = Some(out);
                rec.attempts += 1;
                a.waits.push(t - rec.arrived_at);
            }
        }
    }

    for (a, q) in accs.iter_mut().zip(&queues) {
        a.backlog = q.len();
        a.generation = pin.generation();
    }
    stats.faults_injected = faults.count_before(trace.len());
    stats.cache_evictions = cache.as_ref().map_or(0, LruCache::evictions);
    Acc::merge(accs, &mut stats, cfg.switch_cost_pj, registry, &metrics0);
    Ok((stats, outcomes))
}
