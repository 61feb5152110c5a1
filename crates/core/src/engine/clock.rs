//! The wall-clock run clock: monotone microseconds since serving start.
//!
//! This is the wall-clock half of the clock abstraction the engine
//! modules are parameterized over. The step loop's "clock" is the
//! step index `t`; the wall-clock loop measures an `Instant` anchor and
//! maps elapsed microseconds back onto trace steps with
//! [`RunClock::step_of`], so the same per-step budget schedule drives
//! both drivers.

use std::time::Instant;

/// Cheap copyable anchor shared by the ingress and worker threads.
#[derive(Clone, Copy)]
pub(crate) struct RunClock {
    start: Instant,
}

impl RunClock {
    pub(crate) fn start() -> Self {
        RunClock {
            start: Instant::now(),
        }
    }

    /// Microseconds elapsed since the run started.
    pub(crate) fn now_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// The trace step a wall-clock instant falls in, with `len` steps
    /// paced at `step_us` each; past the end of the trace the final step's
    /// budget persists (the drain phase).
    pub(crate) fn step_of(now_us: u64, step_us: u64, len: usize) -> usize {
        ((now_us / step_us.max(1)) as usize).min(len - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_mapping_clamps_to_the_final_step() {
        assert_eq!(RunClock::step_of(0, 1000, 4), 0);
        assert_eq!(RunClock::step_of(999, 1000, 4), 0);
        assert_eq!(RunClock::step_of(1000, 1000, 4), 1);
        assert_eq!(RunClock::step_of(3999, 1000, 4), 3);
        assert_eq!(RunClock::step_of(1_000_000, 1000, 4), 3, "drain phase");
    }

    #[test]
    fn clock_is_monotone() {
        let c = RunClock::start();
        let a = c.now_us();
        let b = c.now_us();
        assert!(b >= a);
    }
}
