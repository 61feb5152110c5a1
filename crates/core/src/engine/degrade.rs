//! The serving-point rule and the hysteresis precision-downshift
//! controller, shared by the simulated step loop and the wall-clock
//! workers.
//!
//! The controller watches queue depth (the leading indicator of tail
//! latency) against a hysteresis band and holds the serving point a number
//! of operating-point *levels* below the policy's pick, moving at most one
//! level per recovery window. It is parameterized over an abstract
//! monotone `u64` tick so both clocks run the identical state machine:
//! the step loop feeds step indices with a window in steps, the
//! wall-clock workers feed elapsed microseconds with a window as a
//! duration.

use crate::OperatingPoint;

/// Report index of the point a policy selected.
pub(crate) fn point_index(points: &[OperatingPoint], pick: &OperatingPoint) -> usize {
    points
        .iter()
        .position(|q| q.bits == pick.bits)
        .expect("selected point comes from the report")
}

/// The serving-point rule: serve `levels` operating points below the
/// policy's pick at report index `pick` (never below the cheapest point).
/// Returns the point and whether it is below the pick — a degraded serve.
pub(crate) fn serve_point(
    points: &[OperatingPoint],
    pick: usize,
    levels: usize,
) -> (&OperatingPoint, bool) {
    let idx = pick - levels.min(pick);
    (&points[idx], idx < pick)
}

/// Hysteresis state machine over `(tick, depth, policy_idx)` observations.
pub(crate) struct HysteresisController {
    backlog_high: usize,
    backlog_low: usize,
    recovery_window: u64,
    levels: usize,
    last_transition: Option<u64>,
}

impl HysteresisController {
    /// `recovery_window` is in the caller's tick unit and must be ≥ 1
    /// (validated by [`crate::engine::batch::validate`]).
    pub(crate) fn new(backlog_high: usize, backlog_low: usize, recovery_window: u64) -> Self {
        HysteresisController {
            backlog_high,
            backlog_low,
            recovery_window,
            levels: 0,
            last_transition: None,
        }
    }

    /// How many operating points below the policy's pick the model is
    /// currently held (0 = not degraded).
    pub(crate) fn levels(&self) -> usize {
        self.levels
    }

    /// Whether an [`HysteresisController::observe`] call at this depth
    /// would *downshift* (as opposed to hold or recover). Drivers that
    /// layer a dynamic batch controller on top use this to enforce the
    /// batch-before-bits priority: while the batch cap can still shrink,
    /// a would-be downshift observation is withheld entirely — depth
    /// pressure must first exhaust the output-invariant lever. Recovery
    /// observations are never withheld.
    pub(crate) fn would_downshift(&self, depth: usize, policy_idx: usize) -> bool {
        depth >= self.backlog_high && self.levels < policy_idx
    }

    /// Observes queue depth `depth` at tick `now` with the policy's pick at
    /// report index `policy_idx`. Downshifts one level when the depth
    /// reaches the high mark (never past index 0), recovers one level when
    /// it falls to the low mark, at most one move per recovery window.
    /// Returns the new level when a transition happened.
    pub(crate) fn observe(&mut self, now: u64, depth: usize, policy_idx: usize) -> Option<usize> {
        let window_open = self
            .last_transition
            .is_none_or(|lt| now - lt >= self.recovery_window);
        if !window_open {
            return None;
        }
        if depth >= self.backlog_high && self.levels < policy_idx {
            self.levels += 1;
        } else if depth <= self.backlog_low && self.levels > 0 {
            self.levels -= 1;
        } else {
            return None;
        }
        self.last_transition = Some(now);
        Some(self.levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_move_per_window_and_bounded_by_policy_index() {
        let mut c = HysteresisController::new(4, 1, 2);
        assert_eq!(c.observe(0, 10, 2), Some(1), "depth over high downshifts");
        assert_eq!(c.observe(1, 10, 2), None, "window still closed");
        assert_eq!(c.observe(2, 10, 2), Some(2));
        assert_eq!(c.observe(4, 10, 2), None, "cannot degrade past index 0");
        assert_eq!(c.levels(), 2);
        assert_eq!(c.observe(6, 0, 2), Some(1), "drain recovers one level");
        assert_eq!(c.observe(8, 0, 2), Some(0));
        assert_eq!(c.observe(10, 0, 2), None, "already recovered");
    }

    #[test]
    fn band_interior_never_moves() {
        let mut c = HysteresisController::new(8, 2, 1);
        assert_eq!(c.observe(0, 5, 3), None);
        assert_eq!(c.levels(), 0);
    }

    #[test]
    fn would_downshift_tracks_high_mark_and_floor() {
        let mut c = HysteresisController::new(4, 1, 1);
        assert!(c.would_downshift(4, 2), "at the high mark with room");
        assert!(!c.would_downshift(3, 2), "below the high mark");
        assert!(!c.would_downshift(10, 0), "already at index 0");
        c.observe(0, 10, 2);
        c.observe(1, 10, 2);
        assert_eq!(c.levels(), 2);
        assert!(
            !c.would_downshift(10, 2),
            "fully degraded: further pressure is a hold, not a downshift"
        );
    }
}
