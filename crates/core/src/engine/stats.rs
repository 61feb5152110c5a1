//! The single wait-time summary every serving path reports, and the one
//! accumulator both clocks fold their results through.

use crate::registry::{ModelRegistry, RegistryMetrics};
use crate::resilience::RequestStatus;
use crate::runtime::RuntimeStats;
use crate::sharding::ReplicaStats;
use crate::OperatingPoint;
use std::collections::BTreeMap;

/// Nearest-rank percentile summary of a wait sample; all zeros when the
/// sample is empty.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct WaitSummary {
    pub mean: f64,
    pub p50: f64,
    pub p99: f64,
    pub p999: f64,
}

/// Summarizes a wait sample with the nearest-rank percentile definition
/// (`sorted[ceil(p·n) - 1]`) shared by the global wait summary, the
/// per-replica breakdown, and the batch controller — so every path
/// reports the same statistic.
pub(crate) fn wait_summary(waits: &[usize]) -> WaitSummary {
    if waits.is_empty() {
        return WaitSummary::default();
    }
    let mut sorted = waits.to_vec();
    sorted.sort_unstable();
    let pct = |p: f64| sorted[((p * sorted.len() as f64).ceil() as usize).max(1) - 1] as f64;
    WaitSummary {
        mean: waits.iter().sum::<usize>() as f64 / waits.len() as f64,
        p50: pct(0.50),
        p99: pct(0.99),
        p999: pct(0.999),
    }
}

/// Fills the mean/p50/p99/p99.9 wait fields of `stats` and stores the raw
/// waits.
pub(crate) fn finish_wait_stats(stats: &mut RuntimeStats, waits: Vec<usize>) {
    let s = wait_summary(&waits);
    stats.mean_wait_steps = s.mean;
    stats.p50_wait_steps = s.p50;
    stats.p99_wait_steps = s.p99;
    stats.p999_wait_steps = s.p999;
    stats.wait_steps = waits;
}

/// Everything one replica (simulated clock) or one worker (wall clock)
/// accumulates over a run. Each is owned by exactly one replica or worker
/// thread, so nothing here is shared or locked; [`Acc::merge`] folds a
/// fleet's accumulators, in replica order, into one [`RuntimeStats`].
/// Counters a loop keeps fleet-wide (shed, the simulated schedule) go
/// straight into the stats instead and the merge adds to them.
#[derive(Default)]
pub(crate) struct Acc {
    /// Queueing delay of every request this replica completed.
    pub waits: Vec<usize>,
    pub completed: usize,
    pub completed_degraded: usize,
    pub expired: usize,
    pub failed: usize,
    pub retried: usize,
    pub dropped: usize,
    pub switches: usize,
    pub stalled: usize,
    pub injected: usize,
    pub batches: usize,
    pub faulted_batches: usize,
    pub cache_hits: usize,
    pub cache_misses: usize,
    pub max_queue_depth: usize,
    pub backlog: usize,
    pub energy_pj: f64,
    pub acc_sum: f32,
    pub histogram: Vec<usize>,
    pub time_in_bits: BTreeMap<u8, usize>,
    pub generations: BTreeMap<u64, usize>,
    /// Generation the replica was pinned to when the run ended.
    pub generation: u64,
}

impl Acc {
    pub(crate) fn new(max_batch: usize) -> Self {
        Acc {
            histogram: vec![0; max_batch + 1],
            ..Acc::default()
        }
    }

    /// Charges `n` completions at `point` — accuracy per request, energy
    /// per forward-served request (a cache `hit` ran no forward, so it
    /// counts as a hit instead) — and returns the status they complete
    /// with.
    pub(crate) fn complete(
        &mut self,
        point: &OperatingPoint,
        degraded: bool,
        n: usize,
        hit: bool,
    ) -> RequestStatus {
        if hit {
            self.cache_hits += n;
        } else {
            self.energy_pj += point.energy_pj * n as f64;
        }
        self.acc_sum += point.accuracy * n as f32;
        if degraded {
            self.completed_degraded += n;
            RequestStatus::CompletedDegraded
        } else {
            self.completed += n;
            RequestStatus::Completed
        }
    }

    /// Accounts one request of a faulted batch after its `attempts`-th
    /// attempt: `true` = re-queue it, `false` = its retry budget is spent
    /// and it failed.
    pub(crate) fn retry(&mut self, attempts: usize, max_retries: usize) -> bool {
        let retry = attempts <= max_retries;
        if retry {
            self.retried += 1;
        } else {
            self.failed += 1;
        }
        retry
    }

    /// Folds a fleet's accumulators into `stats`: sums the counters, the
    /// histogram, `time_in_bits` and the per-generation work, appends one
    /// [`ReplicaStats`] per accumulator and its waits (in replica order),
    /// charges `switches × switch_cost_pj`, and records the registry
    /// activity since `metrics0` — the counters are monotone, so the delta
    /// over the run's span is exact even when a caller reuses a registry.
    pub(crate) fn merge(
        accs: Vec<Acc>,
        stats: &mut RuntimeStats,
        switch_cost_pj: f64,
        registry: &ModelRegistry,
        metrics0: &RegistryMetrics,
    ) {
        let mut waits = Vec::new();
        let mut histogram = vec![0usize; accs.first().map_or(1, |a| a.histogram.len())];
        let (mut time_in_bits, mut generations) = (BTreeMap::new(), BTreeMap::new());
        let mut acc_sum = 0.0f32;
        for a in accs {
            stats.completed += a.completed;
            stats.completed_degraded += a.completed_degraded;
            stats.expired += a.expired;
            stats.failed += a.failed;
            stats.retried += a.retried;
            stats.dropped += a.dropped;
            stats.switches += a.switches;
            stats.stalled_steps += a.stalled;
            stats.faults_injected += a.injected;
            stats.cache_hits += a.cache_hits;
            stats.cache_misses += a.cache_misses;
            stats.backlog += a.backlog;
            stats.energy_pj += a.energy_pj;
            acc_sum += a.acc_sum;
            for (h, n) in histogram.iter_mut().zip(&a.histogram) {
                *h += n;
            }
            for (&b, &n) in &a.time_in_bits {
                *time_in_bits.entry(b).or_insert(0) += n;
            }
            for (&g, &n) in &a.generations {
                *generations.entry(g).or_insert(0) += n;
            }
            let w = wait_summary(&a.waits);
            stats.replicas.push(ReplicaStats {
                served: a.completed + a.completed_degraded,
                batches: a.batches,
                faulted_batches: a.faulted_batches,
                backlog: a.backlog,
                max_queue_depth: a.max_queue_depth,
                cache_hits: a.cache_hits,
                mean_wait_steps: w.mean,
                p99_wait_steps: w.p99,
                time_in_bits: a.time_in_bits.into_iter().collect(),
                generation: a.generation,
            });
            waits.extend(a.waits);
        }
        stats.served_requests = stats.completed + stats.completed_degraded;
        stats.mean_accuracy = if stats.served_requests > 0 {
            acc_sum / stats.served_requests as f32
        } else {
            0.0
        };
        stats.switch_energy_pj = stats.switches as f64 * switch_cost_pj;
        stats.energy_pj += stats.switch_energy_pj;
        stats.batch_histogram = histogram;
        stats.time_in_bits = time_in_bits.into_iter().collect();
        stats.time_per_generation = generations.into_iter().collect();
        let m = registry.metrics();
        stats.reloads = m.reloads - metrics0.reloads;
        stats.rollbacks = m.rollbacks - metrics0.rollbacks;
        stats.rejected_publishes = m.rejected_publishes - metrics0.rejected_publishes;
        stats.canary_served = m.canary_served - metrics0.canary_served;
        stats.divergences = m.divergences - metrics0.divergences;
        finish_wait_stats(stats, waits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_is_all_zero() {
        assert_eq!(wait_summary(&[]), WaitSummary::default());
    }

    #[test]
    fn nearest_rank_percentiles() {
        // 1000 samples 0..=999: nearest-rank p50 = sorted[499], p99 =
        // sorted[989], p99.9 = sorted[998].
        let waits: Vec<usize> = (0..1000).rev().collect();
        let s = wait_summary(&waits);
        assert_eq!(s.p50, 499.0);
        assert_eq!(s.p99, 989.0);
        assert_eq!(s.p999, 998.0);
        assert_eq!(s.mean, 499.5);
    }

    #[test]
    fn tiny_sample_clamps_to_first_element() {
        let s = wait_summary(&[7]);
        assert_eq!(s.p50, 7.0);
        assert_eq!(s.p99, 7.0);
        assert_eq!(s.p999, 7.0);
    }
}
