//! Wall-clock threaded serving: a continuously running front-end over
//! real threads, real queues, and real time — no tokio, no simulation.
//!
//! [`serve_wallclock`] is the deployment-shaped face of the serving
//! stack. Producer threads — one per [`IngressSource`] — push requests
//! into the ingress queue; `workers` worker threads — each holding an
//! O(1) [`PackedModel`] clone over the shared packed tables — block on
//! the queue and drain batches of up to `max_batch` requests into packed
//! forwards. The frozen-trace entry points wrap a single producer, a
//! [`TraceIngress`] that plays a [`RequestTrace`]'s arrival schedule in
//! real time (step `t`'s arrivals are pushed at `t × step_time` on the
//! wall clock); [`serve_wallclock_streaming`] accepts any producer set,
//! e.g. a [`ChannelIngress`] fed live from another thread through a
//! [`StreamSender`]. The simulated step loop's resilience rules run here
//! on `Instant`-derived time instead of step indices: the bounded queue
//! *is* the admission cap, an arrival is shed at ingress when even
//! `backlog / (workers × max_batch)` best-case batches would miss its
//! deadline, late requests expire at dequeue, and the hysteresis
//! degradation controller ([`crate::engine::degrade`]) downshifts the
//! fleet one operating point per recovery window as wall-clock backlog
//! builds. The per-step energy budget still gates selection: a batch
//! popped at elapsed time `e` is served under budget
//! `budgets[min(e / step_time, len - 1)]` — the final step's budget
//! persists through the drain phase — via the same shared
//! [`PolicySelector`] the step loop uses.
//!
//! **What a worker decides, and what it shares.** A worker keeps only
//! the wall clock's decisions — which queue it pops, when it waits out a
//! stall or an unaffordable step, when it re-pins the registry, and the
//! batch-before-bits interplay of the two controllers. Everything a batch
//! goes through once popped is the crate's one serving core
//! ([`crate::engine`]): the serving-point rule, the
//! `catch_unwind`-isolated forward with the injected fault, the canary
//! shadow compare, and the accumulator whose merge builds the run's
//! [`RuntimeStats`] — the same code, per batch, as the step loop's.
//!
//! **Queue modes.** [`QueueMode::Shared`] — the bit-identity reference —
//! funnels every request through one MPMC queue
//! ([`crate::engine::queue::SharedQueue`]): simple, provably fair, but
//! every push and pop serializes on one mutex. [`QueueMode::Sharded`]
//! gives each worker its own bounded queue
//! ([`crate::engine::queue::ShardedQueues`]): ingress dispatches to the
//! least-loaded shard, the hot pop path touches only the worker's own
//! lock, and — with `stealing` on — an idle worker takes half the backlog
//! of the peer whose head request has the least deadline slack (falling
//! back to the deepest peer), the wall-clock form of the step loop's
//! steal-from-the-deepest rule. Because the packed engine quantizes
//! activations per sample, the queue topology can never change a
//! request's output — only which worker serves it, and when.
//!
//! **Dynamic batching.** With [`WallclockConfig::batch_control`] set, a
//! [`crate::engine::batch::BatchController`] behind one mutex sizes the
//! batch cap from the observed per-batch p99 latency: grow under slack
//! against the target, halve on breach, hold in the hysteresis dead band
//! between. Its priority against the precision controller is explicit —
//! **batch shrinks before bits drop**: while the cap is above 1, would-be
//! downshift observations are withheld from the degradation controller,
//! so the output-invariant lever is exhausted before accuracy is touched.
//!
//! **Shutdown protocol:** each producer thread runs its source to
//! exhaustion; the last one out closes the queue — every producer drains
//! exactly once, no matter how many there are. Workers keep draining
//! until the queue is empty *and* closed, then exit, and the scoped join
//! returns every worker's accounting to be merged into one
//! [`RuntimeStats`]. Every admitted request is at all times either in the
//! queue or held by a live worker, so each is recorded exactly once and
//! `arrivals == completed + completed_degraded + shed + expired +
//! failed + backlog` holds for every run (backlog = requests the trace's
//! final budget could never afford).
//!
//! **The twin guarantee.** The workers and the step loop share that core,
//! and the packed engine quantizes activations per sample, so a request's
//! output depends only on its input and the serving bit-width — never on
//! batch-mates, timing, or worker count. A fault-free wall-clock run
//! whose budget affords one fixed operating point therefore completes the
//! exact same request set with bit-identical outputs as
//! [`crate::runtime::simulate_serving_batched`] on the frozen trace; only
//! the timing-derived statistics differ (and those are tolerance-checked
//! in tests, not pinned). The twin table in `tests/wallclock_serving.rs`
//! enforces this for every entry point at every `large_range()`
//! bit-width.
//!
//! **Hot reload and faults.** [`serve_wallclock_registry`] is the full
//! entry point: workers serve out of a [`ModelRegistry`] instead of one
//! frozen model, observing it at batch-dequeue boundaries only (one
//! atomic epoch load per batch; a changed epoch re-pins the worker's
//! Arc-shared version clones), so an in-flight batch never straddles a
//! publish — and a [`FaultPlan`] injects stalls, transient errors, and
//! panics (isolated per batch with `catch_unwind`) into the worker loop,
//! with faulted batches retried at the head per the existing policy.
//! Canary-routed batches are additionally shadow-forwarded through the
//! candidate version and compared bit-exactly; the registry's state
//! machine promotes or auto-rolls back (see [`crate::registry`]).
//! [`serve_wallclock`] is the degenerate wrapper — a single-version
//! registry, canary off, no faults — and stays bit-identical to the
//! registry path in that configuration.
//!
//! **Threads:** worker count composes with the `INSTANTNET_THREADS`
//! kernel knob: each worker runs its forwards at
//! `max(1, ambient_threads / workers)` kernel threads (ambient = the
//! caller's [`instantnet_parallel::max_threads`]), so one worker keeps
//! full kernel parallelism while a 4-worker fleet on 8 ambient threads
//! runs 2 kernel threads per forward instead of oversubscribing 32.

use crate::engine::batch::{
    forward, gather_batch, scatter_outputs, shadow_compare, validate, BatchController,
};
use crate::engine::clock::RunClock;
use crate::engine::degrade::{point_index, serve_point, HysteresisController};
use crate::engine::queue::{Popped, ShardedQueues, SharedQueue};
use crate::engine::stats::Acc;
use crate::faults::{FaultKind, FaultPlan};
use crate::registry::ModelRegistry;
use crate::resilience::{config_err, RequestStatus, ServingError};
use crate::runtime::{
    EnergyTrace, Policy, PolicySelector, RequestTrace, RuntimeStats, SimulationConfig,
};
use crate::DeploymentReport;
use instantnet_infer::PackedModel;
use instantnet_parallel::{max_threads, set_threads};
use instantnet_quant::BitWidth;
use instantnet_tensor::Tensor;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread;
use std::time::Duration;

/// Which ingress queue the wall-clock workers drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueMode {
    /// One shared MPMC queue every worker pops — the bit-identity
    /// reference configuration (and the default).
    Shared,
    /// Per-worker bounded queues: ingress dispatches each arrival to the
    /// least-loaded shard, workers pop their own shard uncontended.
    Sharded {
        /// Whether an idle worker steals half the backlog of the peer
        /// whose head request is most urgent (least deadline slack, then
        /// deepest backlog). Off = a skewed shard drains alone.
        stealing: bool,
    },
}

/// Knobs of the SLO-driven dynamic batch controller
/// ([`crate::engine::batch::BatchController`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchControl {
    /// Per-batch latency target (dequeue → completion) the p99 is held
    /// against — the deadline the batch sizing answers to.
    pub target: Duration,
    /// Grow the cap only while the window p99 is at or below this
    /// percentage of `target` (0 < pct < 100). The band between
    /// `headroom_pct` and 100% of target is the hysteresis dead zone
    /// where the cap holds.
    pub headroom_pct: u32,
    /// Completed batches per decision window (≥ 1).
    pub window: usize,
    /// Starting batch cap (clamped to `[1, max_batch]`).
    pub initial: usize,
}

impl Default for BatchControl {
    fn default() -> Self {
        BatchControl {
            target: Duration::from_millis(5),
            headroom_pct: 50,
            window: 8,
            initial: 1,
        }
    }
}

/// Hysteresis thresholds for the wall-clock degradation controller —
/// [`crate::resilience::DegradationConfig`] with the recovery window in
/// wall-clock time instead of steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WallclockDegradation {
    /// Downshift one operating point when the queue depth reaches this.
    pub backlog_high: usize,
    /// Recover one operating point when the depth falls to this or below.
    /// Must be strictly below `backlog_high`.
    pub backlog_low: usize,
    /// Minimum wall-clock time between controller transitions (> 0).
    pub recovery_window: Duration,
}

/// Knobs of the wall-clock serving loop. The default — one worker,
/// shared queue, unbounded, no deadlines, no retries, no degradation, no
/// batch controller — is the fully permissive configuration the
/// twin-identity tests run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WallclockConfig {
    /// Worker threads, each draining the ingress queue with its own O(1)
    /// [`PackedModel`] clone.
    pub workers: usize,
    /// Largest number of queued requests one worker aggregates into one
    /// packed forward. Aggregation is opportunistic: a worker takes
    /// whatever is queued up to this, it never waits for a batch to fill.
    /// With [`WallclockConfig::batch_control`] set this is the hard
    /// ceiling the dynamic cap can never exceed.
    pub max_batch: usize,
    /// Wall-clock length of one trace step: arrivals of step `t` are
    /// pushed at `t × step_time`, and the energy budget in force at
    /// elapsed time `e` is `budgets[min(e / step_time, len - 1)]`.
    pub step_time: Duration,
    /// Bounded-queue capacity — the admission cap (global across shards
    /// in [`QueueMode::Sharded`]). Arrivals that find the queue full are
    /// shed. `None` = unbounded.
    pub queue_capacity: Option<usize>,
    /// Relative wall-clock deadline per request. An arrival whose
    /// deadline is hopeless even at best-case service is shed at ingress;
    /// a queued request past its deadline expires at dequeue, before it
    /// can be served. `None` = no deadlines.
    pub deadline: Option<Duration>,
    /// How many times a request whose forward failed re-queues (at the
    /// head) before it is failed.
    pub max_retries: usize,
    /// The precision-downshift controller. `None` = policy picks alone.
    pub degradation: Option<WallclockDegradation>,
    /// Ingress queue topology. [`QueueMode::Shared`] is the bit-identity
    /// reference; [`QueueMode::Sharded`] is the contention-free fast
    /// path. Outputs are identical either way — only timing differs.
    pub queue: QueueMode,
    /// The dynamic batch controller. `None` = the batch cap is the
    /// static `max_batch` (the bit-identity reference configuration).
    pub batch_control: Option<BatchControl>,
}

impl Default for WallclockConfig {
    fn default() -> Self {
        WallclockConfig {
            workers: 1,
            max_batch: 16,
            step_time: Duration::from_millis(1),
            queue_capacity: None,
            deadline: None,
            max_retries: 0,
            degradation: None,
            queue: QueueMode::Shared,
            batch_control: None,
        }
    }
}

/// One live request handed to [`IngressSink::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamRequest {
    /// Index into the run's request inputs (taken modulo their count).
    /// `None` follows the frozen-trace convention: the request reuses
    /// `inputs[id % inputs.len()]` where `id` is its arrival order —
    /// which is what keeps a trace replay bit-identical to the simulated
    /// twin.
    pub input: Option<usize>,
    /// Relative deadline override for this request; `None` inherits
    /// [`WallclockConfig::deadline`].
    pub deadline: Option<Duration>,
}

/// The serving loop's ingress surface, handed to every
/// [`IngressSource`]: submit requests, read the run clock. One sink is
/// shared by all producer threads; submissions from different sources
/// interleave in arrival-id order.
pub trait IngressSink: Sync {
    /// Submits one request. Returns `Ok(id)` when it was admitted to the
    /// queue and `Err(id)` when it was shed at admission (hopeless
    /// deadline, or the bounded queue is full) — either way `id` is the
    /// arrival id its [`WallclockOutcome`] lands at.
    fn submit(&self, req: StreamRequest) -> Result<usize, usize>;
    /// Microseconds since the run started, for producers that pace
    /// themselves.
    fn now_us(&self) -> u64;
}

/// One request producer. The serving loop spawns a thread per source and
/// calls [`IngressSource::run`] once; the source pushes requests through
/// the sink — pacing itself however it likes — and returns when
/// exhausted. When the *last* source returns, the queue closes and the
/// workers drain what remains: every producer is drained exactly once.
pub trait IngressSource: Send {
    /// Plays this producer's arrivals into the serving loop; blocks as
    /// needed to pace them.
    fn run(&mut self, sink: &dyn IngressSink);
}

/// The frozen-trace producer: replays a [`RequestTrace`]'s arrival
/// schedule in real time, step `t`'s arrivals at `t × step_time`, each
/// with the trace convention's input selection and the config deadline.
/// [`serve_wallclock_registry`] is exactly [`serve_wallclock_streaming`]
/// with one of these.
pub struct TraceIngress {
    arrivals: Vec<usize>,
    step_us: u64,
}

impl TraceIngress {
    pub fn new(requests: &RequestTrace, step_time: Duration) -> Self {
        TraceIngress {
            arrivals: requests.arrivals().to_vec(),
            step_us: u64::try_from(step_time.as_micros())
                .unwrap_or(u64::MAX)
                .max(1),
        }
    }
}

impl IngressSource for TraceIngress {
    fn run(&mut self, sink: &dyn IngressSink) {
        for (t, &count) in self.arrivals.iter().enumerate() {
            // Pace the schedule: step t's arrivals land at t × step_time.
            let target_us = t as u64 * self.step_us;
            loop {
                let now = sink.now_us();
                if now >= target_us {
                    break;
                }
                thread::sleep(Duration::from_micros(target_us - now));
            }
            for _ in 0..count {
                let _ = sink.submit(StreamRequest::default());
            }
        }
    }
}

/// The push half of [`stream_channel`]: a cloneable handle external
/// threads use to push live requests into a running serve loop. Dropping
/// every clone ends the stream — the serving loop cannot finish while a
/// sender is still alive.
#[derive(Clone)]
pub struct StreamSender {
    tx: mpsc::Sender<StreamRequest>,
}

impl StreamSender {
    /// Pushes one request; `false` once the serving loop is gone.
    pub fn push(&self, req: StreamRequest) -> bool {
        self.tx.send(req).is_ok()
    }
}

/// The source half of [`stream_channel`]: forwards every pushed request
/// into the sink until all [`StreamSender`] clones are dropped.
pub struct ChannelIngress {
    rx: mpsc::Receiver<StreamRequest>,
}

impl IngressSource for ChannelIngress {
    fn run(&mut self, sink: &dyn IngressSink) {
        while let Ok(req) = self.rx.recv() {
            let _ = sink.submit(req);
        }
    }
}

/// Creates a live-ingress channel: hand the [`ChannelIngress`] to
/// [`serve_wallclock_streaming`], keep the [`StreamSender`] (clone it
/// freely across threads), and push requests while the loop runs. Drop
/// the last sender to let the run shut down.
pub fn stream_channel() -> (StreamSender, ChannelIngress) {
    let (tx, rx) = mpsc::channel();
    (StreamSender { tx }, ChannelIngress { rx })
}

/// Per-request record of a wall-clock run, index-aligned with arrival
/// order (ids are assigned by the ingress thread as arrivals push).
#[derive(Debug, Clone, PartialEq)]
pub struct WallclockOutcome {
    /// Microseconds after run start the request entered (or was shed at)
    /// the queue.
    pub arrived_us: u64,
    /// Microseconds after run start its forward completed, if it was
    /// served.
    pub served_us: Option<u64>,
    /// Bit-width of the batch that served it.
    pub bits: Option<u8>,
    /// The packed forward's output — bit-identical to a batch-of-one
    /// forward of the same input at the same bit-width, regardless of
    /// batch-mates, timing, or which worker ran it.
    pub output: Option<Tensor>,
    /// How the request ended. [`RequestStatus::Pending`] = still
    /// unservable when the trace ended (counted in
    /// [`RuntimeStats::backlog`]).
    pub status: RequestStatus,
    /// Worker whose forward completed or failed the request; `None` for
    /// requests that never reached a forward (shed, expired, backlog).
    pub worker: Option<usize>,
    /// Forward attempts that included this request.
    pub attempts: usize,
    /// Absolute deadline in run-microseconds, when deadlines are
    /// configured.
    pub deadline_us: Option<u64>,
    /// Index of the input tensor this request carried (already reduced
    /// modulo the input count). Trace replays follow the `id % inputs`
    /// convention; streaming producers may pick any input per request.
    pub input: usize,
}

/// One queued request as carried through the ingress queue.
struct Request {
    id: usize,
    input: usize,
    arrived_us: u64,
    deadline_us: Option<u64>,
    attempts: usize,
}

/// What ingress recorded about one arrival.
struct Arrival {
    arrived_us: u64,
    deadline_us: Option<u64>,
    shed: bool,
    input: usize,
}

/// One terminal decision a worker made about one request.
struct Record {
    id: usize,
    status: RequestStatus,
    served_us: Option<u64>,
    bits: Option<u8>,
    output: Option<Tensor>,
    attempts: usize,
}

impl Record {
    /// A request that ended without an output (expired, failed, backlog).
    fn unserved(req: &Request, status: RequestStatus) -> Self {
        Record {
            id: req.id,
            status,
            served_us: None,
            bits: None,
            output: None,
            attempts: req.attempts,
        }
    }
}

/// Degradation state shared by the workers behind one mutex, so the
/// controller sees one serialized observation stream like the simulated
/// driver does.
struct DegradeShared {
    controller: Option<HysteresisController>,
    events: Vec<(usize, usize)>,
}

/// Uniform front over the two queue topologies so the ingress sink and
/// the worker loop are written once. `Shared` ignores the worker index;
/// `Sharded` dispatches pushes least-loaded and pops/requeues against
/// the worker's own shard.
enum IngressQueue {
    Shared(SharedQueue<Request>),
    Sharded {
        q: ShardedQueues<Request>,
        stealing: bool,
    },
}

impl IngressQueue {
    fn new(mode: QueueMode, workers: usize, capacity: Option<usize>) -> Self {
        match mode {
            QueueMode::Shared => IngressQueue::Shared(SharedQueue::new(capacity)),
            QueueMode::Sharded { stealing } => IngressQueue::Sharded {
                q: ShardedQueues::new(workers, capacity),
                stealing,
            },
        }
    }

    fn try_push(&self, item: Request) -> Result<(), Request> {
        match self {
            IngressQueue::Shared(q) => q.try_push(item),
            IngressQueue::Sharded { q, .. } => q.try_push(item).map(|_| ()),
        }
    }

    fn pop_batch(&self, worker: usize, max: usize) -> Popped<Request> {
        match self {
            IngressQueue::Shared(q) => q.pop_batch(max),
            IngressQueue::Sharded { q, stealing } => {
                // Steal-victim urgency: the head request's absolute
                // deadline — least slack first, `None` (no deadline)
                // falls back to deepest-backlog selection.
                q.pop_batch(worker, max, *stealing, &|r: &Request| r.deadline_us)
            }
        }
    }

    fn push_front(&self, worker: usize, items: Vec<Request>) {
        match self {
            IngressQueue::Shared(q) => q.push_front(items),
            IngressQueue::Sharded { q, .. } => q.push_front(worker, items),
        }
    }

    fn len(&self) -> usize {
        match self {
            IngressQueue::Shared(q) => q.len(),
            IngressQueue::Sharded { q, .. } => q.len(),
        }
    }

    fn max_depth(&self) -> usize {
        match self {
            IngressQueue::Shared(q) => q.max_depth(),
            IngressQueue::Sharded { q, .. } => q.max_depth(),
        }
    }

    /// Per-worker shard high-water mark; 0 under `Shared`, whose single
    /// queue has no per-worker depth (the global `max_depth` covers it).
    fn worker_max_depth(&self, worker: usize) -> usize {
        match self {
            IngressQueue::Shared(_) => 0,
            IngressQueue::Sharded { q, .. } => q.shard_max_depth(worker),
        }
    }

    fn steals(&self) -> usize {
        match self {
            IngressQueue::Shared(_) => 0,
            IngressQueue::Sharded { q, .. } => q.steals(),
        }
    }

    fn is_closed(&self) -> bool {
        match self {
            IngressQueue::Shared(q) => q.is_closed(),
            IngressQueue::Sharded { q, .. } => q.is_closed(),
        }
    }

    fn close(&self) {
        match self {
            IngressQueue::Shared(q) => q.close(),
            IngressQueue::Sharded { q, .. } => q.close(),
        }
    }
}

/// The concrete [`IngressSink`] behind every producer thread: assigns
/// arrival ids, applies the hopeless-deadline and capacity admission
/// checks, and appends to the arrival log. Serializing submissions under
/// the log mutex keeps id order equal to queue order, which is what
/// makes a single-trace replay bit-identical to the simulated twin.
struct SinkImpl<'a> {
    queue: &'a IngressQueue,
    log: &'a Mutex<Vec<Arrival>>,
    clock: RunClock,
    deadline_us_rel: Option<u64>,
    min_latency_us: f64,
    /// `workers × max_batch` — in-flight slots the backlog divides over
    /// for the best-case-service admission estimate.
    slots: usize,
    inputs_len: usize,
}

impl IngressSink for SinkImpl<'_> {
    fn submit(&self, req: StreamRequest) -> Result<usize, usize> {
        let mut log = self.log.lock().expect("arrival log mutex poisoned");
        let id = log.len();
        let arrived_us = self.clock.now_us();
        let deadline_us = req
            .deadline
            .map(|d| arrived_us + u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
            .or_else(|| self.deadline_us_rel.map(|d| arrived_us + d));
        let input = req.input.unwrap_or(id) % self.inputs_len;
        // Admission: shed deadline-hopeless arrivals (even best-case
        // service behind the current backlog would finish past the
        // deadline), then let the bounded queue shed over-capacity ones.
        let hopeless = deadline_us.is_some_and(|d| {
            let batches_ahead = (self.queue.len() / self.slots) as f64;
            arrived_us.saturating_add((batches_ahead * self.min_latency_us) as u64) > d
        });
        let shed = hopeless
            || self
                .queue
                .try_push(Request {
                    id,
                    input,
                    arrived_us,
                    deadline_us,
                    attempts: 0,
                })
                .is_err();
        log.push(Arrival {
            arrived_us,
            deadline_us,
            shed,
            input,
        });
        if shed {
            Err(id)
        } else {
            Ok(id)
        }
    }

    fn now_us(&self) -> u64 {
        self.clock.now_us()
    }
}

/// Dynamic-batch state shared by the workers: the controller itself
/// behind a mutex (it sees one serialized latency stream), plus the
/// current cap in an atomic so workers read it before every dequeue
/// without contending on the lock.
struct BatchShared {
    ctl: Mutex<BatchController>,
    cur: AtomicUsize,
}

impl BatchShared {
    fn new(bc: &BatchControl, max_batch: usize) -> Self {
        let target_us = u64::try_from(bc.target.as_micros())
            .unwrap_or(u64::MAX)
            .max(1);
        let ctl =
            BatchController::new(target_us, bc.headroom_pct, bc.window, bc.initial, max_batch);
        let cur = AtomicUsize::new(ctl.current());
        BatchShared {
            ctl: Mutex::new(ctl),
            cur,
        }
    }
}

/// The wall clock's own checks, then the ones both clocks share.
fn validate_wall(
    report: &DeploymentReport,
    wall: &WallclockConfig,
    model: &PackedModel,
    inputs: &[Tensor],
) -> Result<(), ServingError> {
    if wall.step_time.is_zero() {
        return config_err("step_time must be positive");
    }
    if wall.queue_capacity == Some(0) {
        return config_err("queue_capacity must be at least 1 when bounded");
    }
    if let Some(bc) = &wall.batch_control {
        if bc.target.is_zero() {
            return config_err("batch_control target must be positive");
        }
        if bc.headroom_pct == 0 || bc.headroom_pct >= 100 {
            return config_err(format!(
                "batch_control headroom_pct {} must be in 1..=99",
                bc.headroom_pct
            ));
        }
        if bc.window < 1 {
            return config_err("batch_control window must be at least 1");
        }
        if bc.initial < 1 || bc.initial > wall.max_batch {
            return config_err(format!(
                "batch_control initial {} must be in 1..=max_batch ({})",
                bc.initial, wall.max_batch
            ));
        }
    }
    let band = wall
        .degradation
        .as_ref()
        .map(|d| (d.backlog_high, d.backlog_low, !d.recovery_window.is_zero()));
    validate(report, model, inputs, (wall.workers, wall.max_batch), band)
}

/// Serves a [`RequestTrace`] in real time over `workers` threads; blocks
/// until the trace has been fully played *and* drained, then returns the
/// merged [`RuntimeStats`] and one [`WallclockOutcome`] per request.
///
/// Compared to the step loop's, the returned stats differ only where
/// time itself is the unit: `wait_steps` (and the mean/p50/p99/p99.9
/// summary over it) is measured in **microseconds** of queueing +
/// service delay, `elapsed_us`/`requests_per_sec` report the sustained
/// wall-clock throughput the run achieved, `schedule` is left empty (no
/// global step loop exists to record one — per-request bit-widths live
/// in the outcomes), `dropped` counts budget-infeasible batch attempts,
/// and `stats.replicas[w]` carries worker `w`'s share with
/// `max_queue_depth` at 0 under [`QueueMode::Shared`] (workers share one
/// queue; its high-water mark is the global `max_queue_depth`) and at
/// worker `w`'s own shard high-water mark under [`QueueMode::Sharded`].
///
/// # Errors
///
/// [`ServingError::Config`] for inconsistent traces, shapes, or knobs;
/// [`ServingError::Infer`] if any report point's bit-width is missing
/// from the packed set (checked up front).
#[allow(clippy::too_many_arguments)]
pub fn serve_wallclock(
    report: &DeploymentReport,
    trace: &EnergyTrace,
    requests: &RequestTrace,
    policy: Policy,
    cfg: &SimulationConfig,
    wall: &WallclockConfig,
    model: &PackedModel,
    inputs: &[Tensor],
) -> Result<(RuntimeStats, Vec<WallclockOutcome>), ServingError> {
    // The degenerate registry: one pinned version, canary off, no
    // faults. The registry path in this configuration is bit-identical
    // to the historical frozen-model loop — enforced in
    // `tests/hot_reload.rs` at every `large_range()` bit-width.
    let registry = ModelRegistry::new(model.clone(), "pinned");
    serve_wallclock_registry(
        report,
        trace,
        requests,
        policy,
        cfg,
        wall,
        &registry,
        &FaultPlan::none(),
        inputs,
    )
}

/// [`serve_wallclock`] with live model versioning and fault injection:
/// workers serve out of `registry`'s stable version, re-pinning their
/// O(1) version clones only at batch-dequeue boundaries (per-request
/// version pinning — an in-flight batch never straddles a publish), and
/// `faults` injects at most one fault per trace step into whichever
/// worker first dequeues a batch inside it: a stall idles the batch to
/// the step boundary, transient errors and panics (isolated per batch
/// with `catch_unwind`) fail the batch, whose requests retry at the head
/// per `max_retries`.
///
/// When the registry has a canary in flight, its configured fraction of
/// batches is shadow-routed: the batch is answered from the stable
/// version as always, additionally forwarded through the candidate at
/// the same bit-width, and the two outputs compared bit-exactly. The
/// registry's state machine rolls the candidate back after
/// `max_divergences` divergent samples, a latency regression beyond the
/// band, or any candidate fault, and promotes it to stable after a clean
/// window (see [`crate::registry`]); either transition is a pointer swap
/// workers adopt at their next dequeue.
///
/// On top of [`serve_wallclock`]'s stats, the run's registry activity
/// lands in [`RuntimeStats::reloads`], `rollbacks`, `rejected_publishes`,
/// `canary_served`, `divergences`, and `time_per_generation` (batches
/// per generation); `stats.replicas[w].generation` records the
/// generation each worker ended the run pinned to, and injected faults
/// land in `faults_injected` / `stalled_steps` / `faulted_batches`.
///
/// # Errors
///
/// [`ServingError::Config`] for inconsistent traces, shapes, or knobs;
/// [`ServingError::Infer`] if any report point's bit-width is missing
/// from the registry's stable packed set (checked up front; published
/// candidates are guaranteed compatible by the registry).
#[allow(clippy::too_many_arguments)]
pub fn serve_wallclock_registry(
    report: &DeploymentReport,
    trace: &EnergyTrace,
    requests: &RequestTrace,
    policy: Policy,
    cfg: &SimulationConfig,
    wall: &WallclockConfig,
    registry: &ModelRegistry,
    faults: &FaultPlan,
    inputs: &[Tensor],
) -> Result<(RuntimeStats, Vec<WallclockOutcome>), ServingError> {
    if requests.len() != trace.len() {
        return config_err(format!(
            "request trace covers {} steps but energy trace covers {}",
            requests.len(),
            trace.len()
        ));
    }
    serve_wallclock_streaming(
        report,
        trace,
        policy,
        cfg,
        wall,
        registry,
        faults,
        vec![Box::new(TraceIngress::new(requests, wall.step_time))],
        inputs,
    )
}

/// [`serve_wallclock_registry`] with the frozen-trace producer replaced
/// by an arbitrary set of [`IngressSource`]s: one producer thread runs
/// per source, all submitting through one shared [`IngressSink`], and
/// the run ends when every source has returned (the last one out closes
/// the queue) and the workers have drained what was admitted — each
/// producer's requests are consumed exactly once. With
/// `vec![Box::new(TraceIngress::new(..))]` this *is* the trace path;
/// with [`stream_channel`] external threads push requests live while
/// the loop runs.
///
/// Outcomes are indexed by arrival id — the id [`IngressSink::submit`]
/// returned to the producer — so a streaming caller can correlate its
/// pushes with results. The energy trace still paces the budget
/// schedule: the budget in force at elapsed time `e` is
/// `budgets[min(e / step_time, len - 1)]`, and the run holds that final
/// budget for as long as producers keep it alive.
///
/// # Panics
///
/// A panicking source is isolated (`catch_unwind`) long enough to count
/// it out of the shutdown protocol — workers still drain and the queue
/// still closes — then the panic is re-raised out of this call.
///
/// # Errors
///
/// As [`serve_wallclock_registry`].
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
pub fn serve_wallclock_streaming(
    report: &DeploymentReport,
    trace: &EnergyTrace,
    policy: Policy,
    cfg: &SimulationConfig,
    wall: &WallclockConfig,
    registry: &ModelRegistry,
    faults: &FaultPlan,
    sources: Vec<Box<dyn IngressSource + '_>>,
    inputs: &[Tensor],
) -> Result<(RuntimeStats, Vec<WallclockOutcome>), ServingError> {
    validate_wall(report, wall, registry.current().model(), inputs)?;
    let metrics0 = registry.metrics();
    let (points, budgets, steps) = (report.points(), trace.budgets(), trace.len());
    let (sample_dims, sample_len) = (inputs[0].dims(), inputs[0].len());
    let step_us = u64::try_from(wall.step_time.as_micros())
        .unwrap_or(u64::MAX)
        .max(1);
    let deadline_us_rel = wall
        .deadline
        .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    // Best-case per-batch service time, for the hopeless-deadline
    // admission check (the wall-clock form of the step loop's
    // `backlog / (replicas × max_batch) > deadline_steps`).
    let min_latency_us = points
        .iter()
        .map(|p| p.latency_s)
        .fold(f64::INFINITY, f64::min)
        * 1e6;

    let queue = IngressQueue::new(wall.queue, wall.workers, wall.queue_capacity);
    let batch_shared = wall
        .batch_control
        .as_ref()
        .map(|bc| BatchShared::new(bc, wall.max_batch));
    let selector = Mutex::new(PolicySelector::new(report, policy));
    let degrade = Mutex::new(DegradeShared {
        controller: wall.degradation.as_ref().map(|dc| {
            HysteresisController::new(
                dc.backlog_high,
                dc.backlog_low,
                u64::try_from(dc.recovery_window.as_micros())
                    .unwrap_or(u64::MAX)
                    .max(1),
            )
        }),
        events: Vec::new(),
    });
    // Split the caller's kernel-thread allowance across the workers.
    let inner_threads = (max_threads() / wall.workers).max(1);
    let clock = RunClock::start();
    // At most one injected fault per trace step across all workers — the
    // wall-clock form of the step loop's one-fault-per-timestep plan.
    // `insert` returning true claims the step's fault.
    let consumed_faults: Mutex<BTreeSet<usize>> = Mutex::new(BTreeSet::new());

    let arrivals: Mutex<Vec<Arrival>> = Mutex::new(Vec::new());
    let sink = SinkImpl {
        queue: &queue,
        log: &arrivals,
        clock,
        deadline_us_rel,
        min_latency_us,
        slots: wall.workers * wall.max_batch,
        inputs_len: inputs.len(),
    };
    // Exactly-once shutdown: the last producer to finish (even by
    // panicking) closes the queue, so workers drain everything every
    // producer admitted and then exit.
    let remaining = AtomicUsize::new(sources.len());

    let queue_ref = &queue;
    let selector_ref = &selector;
    let degrade_ref = &degrade;
    let batch_ref = batch_shared.as_ref();
    let consumed_ref = &consumed_faults;
    let sink_ref: &dyn IngressSink = &sink;
    let remaining_ref = &remaining;

    let worker_out: Vec<(Acc, Vec<Record>)> = thread::scope(|s| {
        if sources.is_empty() {
            queue.close();
        }
        for mut src in sources {
            s.spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(|| src.run(sink_ref)));
                if remaining_ref.fetch_sub(1, Ordering::AcqRel) == 1 {
                    queue_ref.close();
                }
                if let Err(panic) = result {
                    resume_unwind(panic);
                }
            });
        }

        let workers: Vec<_> = (0..wall.workers)
            .map(|w| {
                let mut pin = registry.snapshot();
                let mut model = pin.stable.model().clone();
                let mut shadow: Option<PackedModel> =
                    pin.canary.as_ref().map(|v| v.model().clone());
                s.spawn(move || {
                    set_threads(inner_threads);
                    let mut acc = Acc::new(wall.max_batch);
                    let mut records: Vec<Record> = Vec::new();
                    let mut prev_bits: Option<BitWidth> = None;
                    // Hands a batch back to the queue head and sleeps out
                    // the rest of `step`, for whoever dequeues it next.
                    let wait_out = |live: Vec<Request>, step: usize| {
                        queue_ref.push_front(w, live);
                        let boundary = (step as u64 + 1) * step_us;
                        let wait = boundary.saturating_sub(clock.now_us()).max(50);
                        thread::sleep(Duration::from_micros(wait));
                    };
                    let claim = |step: usize| {
                        consumed_ref
                            .lock()
                            .expect("fault mutex poisoned")
                            .insert(step)
                    };
                    loop {
                        // The dynamic cap is read fresh before every
                        // dequeue; without a controller it is the static
                        // `max_batch`.
                        let cap =
                            batch_ref.map_or(wall.max_batch, |b| b.cur.load(Ordering::Acquire));
                        let popped = match queue_ref.pop_batch(w, cap) {
                            Popped::Closed => break,
                            Popped::Batch(items) => items,
                        };
                        let now = clock.now_us();

                        // 0. Version pinning: the registry is observed only
                        // here, at the batch-dequeue boundary. One relaxed
                        // epoch load when nothing changed; on a new epoch,
                        // re-pin the snapshot (O(1) Arc-shared clones) so
                        // the whole batch is served by one consistent
                        // (stable, canary) pair and never straddles a swap.
                        if registry.epoch() != pin.epoch {
                            pin = registry.snapshot();
                            model = pin.stable.model().clone();
                            shadow = pin.canary.as_ref().map(|v| v.model().clone());
                            prev_bits = None;
                        }

                        // 1. Late requests expire before they can be served.
                        let mut live: Vec<Request> = Vec::with_capacity(popped.len());
                        for req in popped {
                            if req.deadline_us.is_some_and(|d| now > d) {
                                acc.expired += 1;
                                records.push(Record::unserved(&req, RequestStatus::Expired));
                            } else {
                                live.push(req);
                            }
                        }
                        if live.is_empty() {
                            continue;
                        }

                        // 2. The shared policy selects under the budget in
                        // force at this wall-clock instant — unless an
                        // injected stall idles the batch out to the step
                        // boundary first (nothing selected or lost).
                        let step = RunClock::step_of(now, step_us, steps);
                        if faults.at(step) == Some(FaultKind::Stall) && claim(step) {
                            acc.stalled += 1;
                            acc.injected += 1;
                            wait_out(live, step);
                            continue;
                        }
                        let selected = selector_ref
                            .lock()
                            .expect("selector mutex poisoned")
                            .select(budgets[step]);
                        let Some(pick) = selected else {
                            acc.dropped += 1;
                            if queue_ref.is_closed() && step + 1 == steps {
                                // The trace ended on an infeasible budget
                                // that now persists forever: these
                                // requests are the run's backlog.
                                let backlog = live
                                    .iter()
                                    .map(|r| Record::unserved(r, RequestStatus::Pending));
                                records.extend(backlog);
                            } else {
                                wait_out(live, step);
                            }
                            continue;
                        };

                        // 3. Degradation: observe wall-clock backlog, then
                        // serve `levels` operating points below the pick.
                        // Batch-before-bits priority: while the dynamic
                        // batch cap still has room to shrink, a
                        // would-downshift observation is withheld from the
                        // precision controller — latency pressure is
                        // answered by smaller batches first, and accuracy
                        // only drops once the cap is floored at 1.
                        // Recovery observations are never withheld.
                        let idx = point_index(points, pick);
                        let levels = if wall.degradation.is_none() {
                            0
                        } else {
                            let batch_can_shrink =
                                batch_ref.is_some_and(|b| b.cur.load(Ordering::Acquire) > 1);
                            let mut d = degrade_ref.lock().expect("degrade mutex poisoned");
                            let DegradeShared { controller, events } = &mut *d;
                            match controller.as_mut() {
                                Some(c) => {
                                    let depth = queue_ref.len() + live.len();
                                    if batch_can_shrink && c.would_downshift(depth, idx) {
                                        // Held back: the batch controller
                                        // still has headroom to give.
                                    } else if let Some(lv) = c.observe(now, depth, idx) {
                                        events.push((step, lv));
                                    }
                                    c.levels()
                                }
                                None => 0,
                            }
                        };
                        let (point, degraded) = serve_point(points, idx, levels);

                        // 4. One packed forward for the whole batch through
                        // the shared batch executor, which isolates a
                        // panicking forward (injected or genuine) to this
                        // batch. Counted at freeze time, faulted or not —
                        // as in the step loop.
                        if prev_bits != Some(point.bits) {
                            acc.switches += 1;
                            prev_bits = Some(point.bits);
                        }
                        let ids: Vec<usize> = live.iter().map(|r| r.input).collect();
                        let batch = gather_batch(inputs, sample_dims, sample_len, &ids);
                        acc.batches += 1;
                        acc.histogram[live.len()] += 1;
                        *acc.generations.entry(pin.generation()).or_insert(0) += 1;
                        let injected = faults
                            .at(step)
                            .filter(|&k| k != FaultKind::Stall && claim(step));
                        acc.injected += usize::from(injected.is_some());
                        let forward_start = clock.now_us();
                        let Ok(y) = forward(&mut model, point.bits, &batch, injected, step) else {
                            // A failed forward fails only this batch: its
                            // requests retry at the head until their
                            // budget is spent.
                            acc.faulted_batches += 1;
                            let mut requeue: Vec<Request> = Vec::new();
                            for mut req in live {
                                req.attempts += 1;
                                if acc.retry(req.attempts, wall.max_retries) {
                                    requeue.push(req);
                                } else {
                                    records.push(Record::unserved(&req, RequestStatus::Failed));
                                }
                            }
                            queue_ref.push_front(w, requeue);
                            continue;
                        };
                        *acc.time_in_bits.entry(point.bits.get()).or_insert(0) += 1;
                        let served_us = clock.now_us();
                        // Feed the batch controller the dequeue→completion
                        // latency of this batch; on a decision, publish the
                        // new cap for every worker's next dequeue.
                        if let Some(b) = batch_ref {
                            let latency_us = served_us.saturating_sub(now);
                            let mut c = b.ctl.lock().expect("batch controller mutex poisoned");
                            if let Some(next) = c.observe(step, latency_us) {
                                b.cur.store(next, Ordering::Release);
                            }
                        }
                        let outs = scatter_outputs(&y, live.len());
                        // 4a. Canary shadow: a ticketed fraction of batches
                        // also runs through the candidate; requests are
                        // always answered from the stable outputs.
                        let ticket = shadow
                            .as_mut()
                            .filter(|_| registry.canary_ticket(pin.epoch));
                        if let Some(cand) = ticket {
                            let stable_us = served_us.saturating_sub(forward_start);
                            let now_us = || clock.now_us();
                            shadow_compare(
                                registry, pin.epoch, cand, point.bits, &batch, &outs, stable_us,
                                &now_us,
                            );
                        }
                        let status = acc.complete(point, degraded, live.len(), false);
                        for (req, out) in live.iter().zip(outs) {
                            acc.waits.push((served_us - req.arrived_us) as usize);
                            records.push(Record {
                                id: req.id,
                                status,
                                served_us: Some(served_us),
                                bits: Some(point.bits.get()),
                                output: Some(out),
                                attempts: req.attempts + 1,
                            });
                        }
                    }
                    acc.generation = pin.generation();
                    (acc, records)
                })
            })
            .collect();

        // Workers exit only after the queue closed and drained, which in
        // turn means every producer already returned; the producer
        // handles are joined implicitly at scope end (re-raising any
        // producer panic after the drain).
        workers
            .into_iter()
            .map(|h| h.join().expect("worker thread never panics"))
            .collect()
    });
    let arrivals_log = arrivals.into_inner().expect("arrival log mutex poisoned");
    let elapsed_us = clock.now_us().max(1);

    // Merge: ingress seeds every outcome, worker records overwrite their
    // terminal states, and the workers' accumulators fold into the stats.
    let mut outcomes: Vec<WallclockOutcome> = arrivals_log
        .iter()
        .map(|a| WallclockOutcome {
            arrived_us: a.arrived_us,
            served_us: None,
            bits: None,
            output: None,
            status: if a.shed {
                RequestStatus::Shed
            } else {
                RequestStatus::Pending
            },
            worker: None,
            attempts: 0,
            deadline_us: a.deadline_us,
            input: a.input,
        })
        .collect();
    let mut stats = RuntimeStats {
        shed: arrivals_log.iter().filter(|a| a.shed).count(),
        ..RuntimeStats::default()
    };
    let mut accs = Vec::with_capacity(wall.workers);
    for (w, (mut acc, records)) in worker_out.into_iter().enumerate() {
        for rec in records {
            let o = &mut outcomes[rec.id];
            o.worker = (rec.status != RequestStatus::Expired
                && rec.status != RequestStatus::Pending)
                .then_some(w);
            (o.status, o.served_us, o.bits) = (rec.status, rec.served_us, rec.bits);
            (o.output, o.attempts) = (rec.output, rec.attempts);
        }
        acc.max_queue_depth = queue.worker_max_depth(w);
        accs.push(acc);
    }
    Acc::merge(accs, &mut stats, cfg.switch_cost_pj, registry, &metrics0);
    stats.backlog = outcomes
        .iter()
        .filter(|o| o.status == RequestStatus::Pending)
        .count();
    stats.max_queue_depth = queue.max_depth();
    stats.steals = queue.steals();
    stats.degradation_events = degrade.into_inner().expect("degrade mutex poisoned").events;
    stats.batch_limit_events = batch_shared.map_or_else(Vec::new, |b| {
        b.ctl
            .into_inner()
            .expect("batch controller mutex poisoned")
            .into_events()
    });
    stats.elapsed_us = elapsed_us;
    stats.requests_per_sec = stats.served_requests as f64 / (elapsed_us as f64 * 1e-6);
    Ok((stats, outcomes))
}
