//! Deterministic fault injection for both serving clocks.
//!
//! A [`FaultPlan`] pins down *exactly* which timesteps misbehave and how,
//! either from an explicit schedule or expanded from a seed — so a chaos
//! scenario that shakes out a bug replays bit-for-bit in CI. The plan is
//! pure data; the simulated step loop ([`crate::sharding`]) and the
//! wall-clock workers ([`crate::wallclock`]) interpret it (a stall idles
//! a replica or a worker, transient errors and panics fail the batch and
//! trigger retry accounting).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// What goes wrong at one timestep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The target replica (or the worker that claims the step) is
    /// unavailable for the whole step: it serves nothing, arrivals still
    /// queue.
    Stall,
    /// The batch forward reports a transient error; its requests re-queue
    /// for retry (with backoff) up to their retry budget.
    TransientError,
    /// The batch forward panics. The shared batch executor isolates the
    /// panic with `catch_unwind`, fails only that batch, and keeps
    /// serving.
    ForwardPanic,
}

/// Per-step fault probabilities for [`FaultPlan::seeded`]. Each step draws
/// once; the three rates partition the unit interval, so they must sum to
/// at most 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability of a [`FaultKind::Stall`].
    pub stall: f64,
    /// Probability of a [`FaultKind::TransientError`].
    pub transient: f64,
    /// Probability of a [`FaultKind::ForwardPanic`].
    pub panic: f64,
}

impl FaultRates {
    fn validate(&self) {
        let ok = |r: f64| r.is_finite() && (0.0..=1.0).contains(&r);
        assert!(
            ok(self.stall) && ok(self.transient) && ok(self.panic),
            "fault rates must be probabilities"
        );
        assert!(
            self.stall + self.transient + self.panic <= 1.0,
            "fault rates must sum to at most 1"
        );
    }
}

/// A deterministic timestep → fault schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    schedule: BTreeMap<usize, FaultKind>,
}

impl FaultPlan {
    /// The empty plan: nothing ever fails.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// An explicit schedule. Later entries for the same step win.
    pub fn from_schedule(faults: impl IntoIterator<Item = (usize, FaultKind)>) -> Self {
        FaultPlan {
            schedule: faults.into_iter().collect(),
        }
    }

    /// Expands `seed` into a schedule over `steps` timesteps: each step
    /// draws one uniform sample and the `rates` partition the unit
    /// interval (`[0, stall)` stalls, the next `transient`-wide band
    /// errors, the next `panic`-wide band panics, the rest is healthy).
    /// The same `(seed, steps, rates)` always yields the same plan.
    ///
    /// # Panics
    ///
    /// Panics if any rate is outside `[0, 1]` or the rates sum past 1.
    pub fn seeded(seed: u64, steps: usize, rates: FaultRates) -> Self {
        rates.validate();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut schedule = BTreeMap::new();
        for t in 0..steps {
            let r = rng.gen_range(0.0..1.0f64);
            let kind = if r < rates.stall {
                Some(FaultKind::Stall)
            } else if r < rates.stall + rates.transient {
                Some(FaultKind::TransientError)
            } else if r < rates.stall + rates.transient + rates.panic {
                Some(FaultKind::ForwardPanic)
            } else {
                None
            };
            if let Some(k) = kind {
                schedule.insert(t, k);
            }
        }
        FaultPlan { schedule }
    }

    /// The fault injected at step `t`, if any.
    pub fn at(&self, t: usize) -> Option<FaultKind> {
        self.schedule.get(&t).copied()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.schedule.len()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty()
    }

    /// Faults scheduled strictly before step `steps` — what a trace of
    /// that length will actually encounter.
    pub fn count_before(&self, steps: usize) -> usize {
        self.schedule.range(..steps).count()
    }

    /// Faults of one kind scheduled strictly before step `steps` — e.g.
    /// how many stall steps a sharded run's target replica will lose, or
    /// how many batch-failing faults its retry accounting must absorb.
    pub fn count_kind_before(&self, steps: usize, kind: FaultKind) -> usize {
        self.schedule
            .range(..steps)
            .filter(|&(_, &k)| k == kind)
            .count()
    }

    /// Iterates the schedule in step order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, FaultKind)> + '_ {
        self.schedule.iter().map(|(&t, &k)| (t, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_schedule_reports_faults() {
        let plan = FaultPlan::from_schedule([(3, FaultKind::Stall), (7, FaultKind::ForwardPanic)]);
        assert_eq!(plan.at(3), Some(FaultKind::Stall));
        assert_eq!(plan.at(7), Some(FaultKind::ForwardPanic));
        assert_eq!(plan.at(4), None);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.count_before(7), 1);
        assert_eq!(plan.count_kind_before(8, FaultKind::Stall), 1);
        assert_eq!(plan.count_kind_before(8, FaultKind::ForwardPanic), 1);
        assert_eq!(plan.count_kind_before(7, FaultKind::ForwardPanic), 0);
        assert_eq!(plan.count_kind_before(8, FaultKind::TransientError), 0);
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn seeded_plan_is_deterministic() {
        let rates = FaultRates {
            stall: 0.1,
            transient: 0.2,
            panic: 0.05,
        };
        let a = FaultPlan::seeded(42, 500, rates);
        let b = FaultPlan::seeded(42, 500, rates);
        assert_eq!(a, b);
        let c = FaultPlan::seeded(43, 500, rates);
        assert_ne!(a, c, "different seeds give different plans");
    }

    #[test]
    fn seeded_rates_are_roughly_honoured() {
        let rates = FaultRates {
            stall: 0.2,
            transient: 0.1,
            panic: 0.0,
        };
        let plan = FaultPlan::seeded(7, 10_000, rates);
        let stalls = plan.iter().filter(|&(_, k)| k == FaultKind::Stall).count();
        let transients = plan
            .iter()
            .filter(|&(_, k)| k == FaultKind::TransientError)
            .count();
        assert!((1600..2400).contains(&stalls), "stalls {stalls}");
        assert!((700..1300).contains(&transients), "transients {transients}");
        assert!(!plan.iter().any(|(_, k)| k == FaultKind::ForwardPanic));
    }

    #[test]
    #[should_panic(expected = "sum to at most 1")]
    fn oversubscribed_rates_rejected() {
        let _ = FaultPlan::seeded(
            0,
            10,
            FaultRates {
                stall: 0.6,
                transient: 0.5,
                panic: 0.0,
            },
        );
    }
}
