//! The batch executor both clocks share: configuration checks, batch
//! tensor assembly, the isolated forward, per-request output scatter, the
//! canary shadow compare, and the dynamic batch controller.
//!
//! The contract both clocks inherit: request `id` reuses
//! `inputs[id % inputs.len()]`, batches are built by concatenating the
//! chosen samples along dim 0, and the batch output is sliced back into
//! `[1, …]` per-request tensors in batch order. Because the packed engine
//! quantizes activations per sample, each scattered output is
//! bit-identical to a batch-of-one forward of the same input at the same
//! bit-width — which is what makes a request's output independent of its
//! batch-mates, its replica or worker, and its clock. [`BatchController`]
//! sizes batches from observed latency instead of the static `max_batch`
//! knob; because of the same per-sample quantization, a changing batch
//! cap never changes any request's output — only the timing statistics.

use crate::engine::stats::wait_summary;
use crate::faults::FaultKind;
use crate::registry::ModelRegistry;
use crate::resilience::{config_err, ServingError};
use crate::DeploymentReport;
use instantnet_infer::{InferError, PackedModel};
use instantnet_quant::BitWidth;
use instantnet_tensor::Tensor;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The configuration checks both clocks share: a non-empty fleet of
/// `fleet` replicas or workers, `max_batch ≥ 1`, a well-formed
/// degradation band `(backlog_high, backlog_low, window_positive)`, a
/// valid input set, and every report point switchable on `model` — so a
/// bad report/model pairing fails the run up front instead of mid-trace
/// on a worker. Each clock checks its own knobs first.
pub(crate) fn validate(
    report: &DeploymentReport,
    model: &PackedModel,
    inputs: &[Tensor],
    (fleet, max_batch): (usize, usize),
    band: Option<(usize, usize, bool)>,
) -> Result<(), ServingError> {
    if fleet < 1 {
        return config_err("at least one replica (worker) is required");
    }
    if max_batch < 1 {
        return config_err("max_batch must be at least 1");
    }
    if let Some((high, low, window_positive)) = band {
        if low >= high {
            return config_err(format!(
                "degradation backlog_low {low} must be below backlog_high {high}"
            ));
        }
        if !window_positive {
            return config_err("degradation recovery_window must be positive");
        }
    }
    validate_inputs(inputs).map_err(ServingError::Config)?;
    match report
        .points()
        .iter()
        .find(|p| model.bit_widths().index_of(p.bits).is_none())
    {
        Some(p) => Err(ServingError::Infer(InferError::BitWidth(p.bits))),
        None => Ok(()),
    }
}

/// Validates a request-input set: non-empty, every tensor `[1, …]`, all
/// one shape. Returns `(sample_dims, sample_len)` on success and the
/// human-readable config complaint otherwise.
pub(crate) fn validate_inputs(inputs: &[Tensor]) -> Result<(Vec<usize>, usize), String> {
    let Some(first) = inputs.first() else {
        return Err("at least one request input is required".to_string());
    };
    if first.dims().first() != Some(&1) {
        return Err("request inputs must be single-sample [1, …] tensors".to_string());
    }
    if inputs.iter().any(|x| x.dims() != first.dims()) {
        return Err("request inputs must share one shape".to_string());
    }
    Ok((first.dims().to_vec(), first.len()))
}

/// Concatenates the requests' samples (`inputs[id % inputs.len()]` each)
/// into one `[ids.len(), …]` batch tensor.
pub(crate) fn gather_batch(
    inputs: &[Tensor],
    sample_dims: &[usize],
    sample_len: usize,
    ids: &[usize],
) -> Tensor {
    let mut data = Vec::with_capacity(ids.len() * sample_len);
    for &id in ids {
        data.extend_from_slice(inputs[id % inputs.len()].data());
    }
    let mut dims = sample_dims.to_vec();
    dims[0] = ids.len();
    Tensor::from_vec(dims, data)
}

/// Splits a batch output back into `n` per-request `[1, …]` tensors, in
/// batch order.
pub(crate) fn scatter_outputs(y: &Tensor, n: usize) -> Vec<Tensor> {
    let mut out_dims = y.dims().to_vec();
    out_dims[0] = 1;
    let out_len = y.len() / n;
    (0..n)
        .map(|j| {
            Tensor::from_vec(
                out_dims.clone(),
                y.data()[j * out_len..(j + 1) * out_len].to_vec(),
            )
        })
        .collect()
}

/// Runs one batch through one replica's engine at `bits`, with the
/// injected `fault` (a transient error or a panic) applied, and isolates
/// the forward with `catch_unwind`: a panic — injected or genuine — fails
/// this batch alone and never the replica or worker. Sound because a
/// forward never mutates the packed tables, so no torn state can escape.
/// The error string is built only on the failure path.
pub(crate) fn forward(
    model: &mut PackedModel,
    bits: BitWidth,
    batch: &Tensor,
    fault: Option<FaultKind>,
    step: usize,
) -> Result<Tensor, String> {
    let run = || match fault {
        Some(FaultKind::TransientError) => Err(format!("injected transient fault at step {step}")),
        Some(FaultKind::ForwardPanic) => panic!("injected forward panic at step {step}"),
        _ => model
            .try_switch_to_bits(bits)
            .and_then(|()| model.try_forward_batch(batch))
            .map_err(|e| e.to_string()),
    };
    catch_unwind(AssertUnwindSafe(run))
        .unwrap_or_else(|_| Err(format!("isolated forward panic at step {step}")))
}

/// The canary shadow: runs the candidate over the same batch at the same
/// bit-width, compares its per-sample outputs bit-exactly against the
/// stable ones the batch was already answered with, and reports the
/// verdict (or a candidate fault) to the registry. The candidate forward
/// is isolated with `catch_unwind`, so a crashing candidate rolls itself
/// back without touching the batch. `now` times the candidate for the
/// registry's latency band against `stable_us`; the simulated clock has
/// no wall time and passes a constant, so its band never trips.
#[allow(clippy::too_many_arguments)]
pub(crate) fn shadow_compare(
    registry: &ModelRegistry,
    pinned_epoch: u64,
    cand: &mut PackedModel,
    bits: BitWidth,
    batch: &Tensor,
    stable_outs: &[Tensor],
    stable_us: u64,
    now: &dyn Fn() -> u64,
) {
    let start = now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        cand.try_switch_to_bits(bits)
            .and_then(|()| cand.try_forward_batch(batch))
    }));
    let candidate_us = now().saturating_sub(start);
    let n = stable_outs.len();
    match result {
        Ok(Ok(y)) => {
            let diverged = (stable_outs.iter().zip(scatter_outputs(&y, n)))
                .filter(|(a, b)| a.data() != b.data())
                .count();
            registry.report_shadow(pinned_epoch, n, diverged, stable_us, candidate_us);
        }
        _ => {
            registry.report_candidate_fault(pinned_epoch);
        }
    }
}

/// SLO-driven batch sizing: grow the batch cap while the measured p99
/// batch latency leaves slack against the deadline target, shrink it on a
/// breach.
///
/// The state machine is AIMD-shaped with a hysteresis dead band. Each
/// completed batch feeds its dequeue→completion latency; every `window`
/// observations the controller takes the nearest-rank p99 (the same
/// percentile definition as [`crate::engine::stats::wait_summary`]) and
/// decides once:
///
/// * p99 **above** `target_us` — breach: halve the cap (floor 1);
/// * p99 **at or below** `grow_below_us` (= headroom × target) — slack:
///   double the cap (hard ceiling `max`);
/// * in between — the dead band: hold. This is the hysteresis that keeps
///   the cap from oscillating when p99 hovers near the target.
///
/// Priority against the precision-downshift controller is decided by the
/// wall-clock worker, not here: it suppresses bit downshifts while
/// `current() > 1` — batch shrinks before bits drop — so the cheap,
/// output-invariant lever (smaller batches) is exhausted before the
/// accuracy-visible one (lower precision) engages.
pub(crate) struct BatchController {
    target_us: u64,
    grow_below_us: u64,
    window: usize,
    max: usize,
    cur: usize,
    sample: Vec<usize>,
    events: Vec<(usize, usize)>,
}

impl BatchController {
    /// `headroom_pct` ∈ (0, 100): grow only while the window p99 is at or
    /// below that percentage of the target. Bounds are validated by the
    /// driver's config check; `initial` is the starting cap.
    pub(crate) fn new(
        target_us: u64,
        headroom_pct: u32,
        window: usize,
        initial: usize,
        max: usize,
    ) -> Self {
        BatchController {
            target_us,
            grow_below_us: target_us * u64::from(headroom_pct) / 100,
            window,
            max,
            cur: initial.clamp(1, max),
            sample: Vec::with_capacity(window),
            events: Vec::new(),
        }
    }

    /// The batch cap currently in force.
    pub(crate) fn current(&self) -> usize {
        self.cur
    }

    /// Feeds one completed batch's dequeue→completion latency (µs);
    /// returns the new cap when this observation closed a window with a
    /// transition. `step` labels the transition in the event log.
    pub(crate) fn observe(&mut self, step: usize, latency_us: u64) -> Option<usize> {
        self.sample
            .push(usize::try_from(latency_us).unwrap_or(usize::MAX));
        if self.sample.len() < self.window {
            return None;
        }
        let p99 = wait_summary(&self.sample).p99;
        self.sample.clear();
        let next = if p99 > self.target_us as f64 {
            (self.cur / 2).max(1)
        } else if p99 <= self.grow_below_us as f64 {
            (self.cur * 2).min(self.max)
        } else {
            self.cur
        };
        if next == self.cur {
            return None;
        }
        self.cur = next;
        self.events.push((step, next));
        Some(next)
    }

    /// The transition log as `(step, new_cap)`, consuming the controller.
    pub(crate) fn into_events(self) -> Vec<(usize, usize)> {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controller_grows_under_slack_shrinks_on_breach() {
        // Target 1000µs, grow below 500µs, window 2, start at 1, cap 8.
        let mut c = BatchController::new(1000, 50, 2, 1, 8);
        assert_eq!(c.current(), 1);
        assert_eq!(c.observe(0, 100), None, "window not closed yet");
        assert_eq!(c.observe(0, 100), Some(2), "slack doubles the cap");
        c.observe(1, 100);
        assert_eq!(c.observe(1, 100), Some(4));
        c.observe(2, 100);
        assert_eq!(c.observe(2, 100), Some(8));
        c.observe(3, 100);
        assert_eq!(c.observe(3, 100), None, "hard max_batch ceiling");
        c.observe(4, 2000);
        assert_eq!(c.observe(4, 2000), Some(4), "breach halves the cap");
        c.observe(5, 2000);
        c.observe(5, 2000);
        c.observe(6, 2000);
        assert_eq!(c.observe(6, 2000), Some(1));
        c.observe(7, 2000);
        assert_eq!(c.observe(7, 2000), None, "floor at 1");
        assert_eq!(
            c.into_events(),
            vec![(0, 2), (1, 4), (2, 8), (4, 4), (5, 2), (6, 1)]
        );
    }

    #[test]
    fn controller_dead_band_holds_the_cap() {
        // Between grow_below (500) and target (1000): hold.
        let mut c = BatchController::new(1000, 50, 3, 4, 8);
        for _ in 0..12 {
            assert_eq!(c.observe(0, 700), None);
        }
        assert_eq!(c.current(), 4);
        assert!(c.into_events().is_empty());
    }

    #[test]
    fn controller_decides_on_window_p99_not_mean() {
        // 9 fast + 1 catastrophically slow: the p99 (nearest-rank = the
        // slow one) breaches even though the mean is comfortably inside.
        let mut c = BatchController::new(1000, 50, 10, 8, 8);
        for _ in 0..9 {
            assert_eq!(c.observe(0, 10), None);
        }
        assert_eq!(c.observe(0, 50_000), Some(4));
    }

    #[test]
    fn gather_wraps_ids_modulo_inputs() {
        let inputs = vec![
            Tensor::from_vec(vec![1, 2], vec![1.0, 2.0]),
            Tensor::from_vec(vec![1, 2], vec![3.0, 4.0]),
        ];
        let batch = gather_batch(&inputs, &[1, 2], 2, &[0, 1, 2]);
        assert_eq!(batch.dims(), &[3, 2]);
        assert_eq!(batch.data(), &[1.0, 2.0, 3.0, 4.0, 1.0, 2.0]);
    }

    #[test]
    fn scatter_splits_rows_in_batch_order() {
        let y = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let outs = scatter_outputs(&y, 2);
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0].dims(), &[1, 3]);
        assert_eq!(outs[0].data(), &[1.0, 2.0, 3.0]);
        assert_eq!(outs[1].data(), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn validate_rejects_shape_mismatches() {
        assert!(validate_inputs(&[]).is_err());
        let two = Tensor::zeros(&[2, 3]);
        assert!(validate_inputs(std::slice::from_ref(&two)).is_err());
        let a = Tensor::zeros(&[1, 3]);
        let b = Tensor::zeros(&[1, 4]);
        assert!(validate_inputs(&[a.clone(), b]).is_err());
        let (dims, len) = validate_inputs(&[a]).unwrap();
        assert_eq!(dims, vec![1, 3]);
        assert_eq!(len, 3);
    }
}
