//! Resilient batched serving: deadlines, load shedding, retry-with-backoff,
//! precision-downshift degradation, and fault isolation — the simulated
//! step loop's resilience options and the types both clocks report them
//! with.
//!
//! When traffic outruns the engine, the cheapest lever an SP-Net has is
//! the one InstantNet makes free — *switch to fewer bits*. A hysteresis
//! [`DegradationConfig`] controller watches the queue (depth is the
//! leading indicator of p99 wait: with bounded service rate, every queued
//! request is future tail latency) and downshifts the serving point one
//! operating point at a time, recovering once the backlog drains.
//! Deadlines, an admission cap, and retry budgets turn overload and
//! injected faults ([`crate::faults::FaultPlan`]) into *accounted*
//! outcomes — shed, expired, failed — instead of unbounded queues or a
//! dead process; worker panics are isolated per batch with
//! `catch_unwind`.
//!
//! [`simulate_serving_resilient`] is the simulated step loop of
//! [`crate::sharding`] over a frozen model; [`ResilienceConfig`] is its
//! [`crate::sharding::ShardConfig`]. With every knob at its default and
//! an empty fault plan it *is* [`crate::runtime::simulate_serving_batched`]
//! — same outputs, same schedule, same queueing stats.

use crate::faults::FaultPlan;
use crate::registry::ModelRegistry;
use crate::runtime::{
    EnergyTrace, Policy, RequestOutcome, RequestTrace, RuntimeStats, ServingConfig,
    SimulationConfig,
};
use crate::sharding::{serve_steps, Sim};
use crate::DeploymentReport;
use instantnet_infer::{InferError, PackedModel};
use instantnet_tensor::Tensor;

/// Hysteresis thresholds for the precision-downshift controller, in queue
/// depth after each step's arrivals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationConfig {
    /// Downshift one operating point when the depth reaches this.
    pub backlog_high: usize,
    /// Recover one operating point when the depth falls to this or below.
    /// Must be strictly below [`DegradationConfig::backlog_high`] — the
    /// gap is the hysteresis band that prevents flapping.
    pub backlog_low: usize,
    /// Minimum steps between controller transitions (≥ 1). Bounds the
    /// oscillation rate: at most one bit-width move per window.
    pub recovery_window: usize,
}

/// Knobs of the resilient serving queue: the simulated loop's one config
/// struct. The default is fully permissive — no deadlines, no cap, no
/// retries, no degradation — and is plain batched serving.
pub type ResilienceConfig = crate::sharding::ShardConfig;

/// Terminal (or end-of-trace) state of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RequestStatus {
    /// Still queued when the trace ended (counts toward
    /// [`RuntimeStats::backlog`]).
    #[default]
    Pending,
    /// Served within deadline at the policy-selected bit-width.
    Completed,
    /// Served within deadline, but at a bit-width the degradation
    /// controller downshifted below the policy's pick.
    CompletedDegraded,
    /// Rejected at admission: queue cap reached, or the deadline was
    /// unmeetable even if every following step served a full batch.
    Shed,
    /// Deadline passed while queued.
    Expired,
    /// Abandoned after exhausting the retry budget on faulted batches.
    Failed,
}

/// Per-request record of a resilient run — an alias of the one outcome
/// type every simulated entry point returns.
pub type ResilientOutcome = RequestOutcome;

/// Why a serving run could not start (or continue).
#[derive(Debug)]
pub enum ServingError {
    /// Inconsistent traces, shapes, or serving knobs.
    Config(String),
    /// The packed engine rejected an operation (e.g. a report point's
    /// bit-width is not in the model's set).
    Infer(InferError),
}

impl std::fmt::Display for ServingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServingError::Config(msg) => write!(f, "invalid serving configuration: {msg}"),
            ServingError::Infer(e) => write!(f, "inference engine error: {e}"),
        }
    }
}

impl std::error::Error for ServingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServingError::Config(_) => None,
            ServingError::Infer(e) => Some(e),
        }
    }
}

impl From<InferError> for ServingError {
    fn from(e: InferError) -> Self {
        ServingError::Infer(e)
    }
}

/// Shorthand for a [`ServingError::Config`], shared by every validator so
/// both clocks report configuration problems through one type.
pub(crate) fn config_err<T>(msg: impl Into<String>) -> Result<T, ServingError> {
    Err(ServingError::Config(msg.into()))
}

/// Batched serving with deadlines, shedding, retries, precision-downshift
/// degradation, and deterministic fault injection, over one frozen model
/// (cloned, never switched).
///
/// Each timestep, in order: arrivals are admitted, shed over the queue
/// cap, or shed when their deadline is unmeetable; requests whose
/// deadline has passed expire; the energy policy selects an operating
/// point ([`crate::faults::FaultKind::Stall`] skips the step on a single
/// replica); the degradation controller compares the queue depth against
/// its hysteresis band and moves the serving point at most one step per
/// recovery window; then up to the step's capacity of backoff-eligible
/// requests run as **one** packed batch at the (possibly downshifted)
/// bit-width. A batch that faults — injected transient error, injected
/// panic (isolated via `catch_unwind`), or a genuine [`InferError`] —
/// fails only its own requests, which re-queue at the head with
/// [`ResilienceConfig::retry_backoff_steps`] until their retry budget is
/// spent. Energy and accuracy are charged per *successful* inference at
/// the serving point.
///
/// Every request is accounted exactly once — `arrivals == completed +
/// completed_degraded + shed + expired + failed + backlog` — and no
/// completed request ever exceeds its deadline (late requests expire
/// before they can be served).
///
/// # Errors
///
/// [`ServingError::Config`] for inconsistent traces, input shapes, or
/// knobs; [`ServingError::Infer`] if a report point's bit-width is missing
/// from the model's set (report and model built from different sets).
#[allow(clippy::too_many_arguments)]
pub fn simulate_serving_resilient(
    report: &DeploymentReport,
    trace: &EnergyTrace,
    requests: &RequestTrace,
    policy: Policy,
    cfg: &SimulationConfig,
    serving: &ServingConfig,
    resilience: &ResilienceConfig,
    faults: &FaultPlan,
    model: &mut PackedModel,
    inputs: &[Tensor],
) -> Result<(RuntimeStats, Vec<ResilientOutcome>), ServingError> {
    let registry = ModelRegistry::new(model.clone(), "pinned");
    let sim = Sim(report, trace, requests, policy, cfg, serving, inputs);
    serve_steps(sim, resilience, faults, &registry, &mut |_, _| {})
}
