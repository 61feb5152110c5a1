//! Order statistics chosen for a shared machine: nearest-rank percentiles,
//! per-window percentiles and their median across windows, and the quartile
//! spread the acceptance check uses.

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `p` percent of the sample at or below it.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Median over windows of each window's reading, skipping the windows
/// that have none: one stall spoils the windows it touches and leaves the
/// median of the rest where it was.
pub fn median_of_windows(windows: &[Option<f64>]) -> f64 {
    median(&windows.iter().flatten().copied().collect::<Vec<_>>())
}

/// Lower quartile (nearest rank) over windows of each window's latency
/// reading. What disturbs an open-loop latency only ever raises it (a
/// stall, a slow stretch that lengthens the queue as well as the service),
/// and sometimes for most of a run: over ten runs the median over windows
/// of window p90 spread 12.5 % and the lower quartile 5.5 %, and a run in
/// which the machine stalled every other second read 3.3x at the median.
/// A change to the code moves every window, and so the quartile with them.
pub fn calm_quartile_of_windows(windows: &[Option<f64>]) -> f64 {
    let voting = sorted(windows.iter().flatten().copied().collect());
    percentile(&voting, 25.0).unwrap_or(0.0)
}

/// Cuts `(time_us, value)` samples into `windows` equal windows over
/// `[0, end_us)`.
pub fn into_windows(samples: &[(u64, f64)], windows: usize, end_us: u64) -> Vec<Vec<f64>> {
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); windows];
    let width = (end_us / windows as u64).max(1);
    for &(t, v) in samples {
        if let Some(b) = buckets.get_mut((t / width) as usize) {
            b.push(v);
        }
    }
    buckets
}

/// Per-window percentile. A window with fewer than `min_samples` samples
/// gives no value: a percentile needs enough samples beyond it.
pub fn window_percentiles(buckets: &[Vec<f64>], min_samples: usize, p: f64) -> Vec<Option<f64>> {
    buckets
        .iter()
        .map(|b| {
            if b.len() < min_samples.max(1) {
                None
            } else {
                percentile(&sorted(b.clone()), p)
            }
        })
        .collect()
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method); needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 50.0), Some(5));
        assert_eq!(percentile(&v, 90.0), Some(9));
        assert_eq!(percentile(&v, 91.0), Some(10));
        assert_eq!(percentile(&v, 100.0), Some(10));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7u64], 99.9), Some(7));
        assert_eq!(percentile::<u64>(&[], 50.0), None);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn window_median_survives_a_spoiled_window() {
        // Five 1 s windows of 100 samples at about 1.0 ms; window 2 is hit
        // by a stall (every sample 500 ms), window 4 is starved (3 samples).
        let mut samples = Vec::new();
        for w in 0..5u64 {
            let n = if w == 4 { 3 } else { 100 };
            for i in 0..n {
                let v = if w == 2 { 500.0 } else { 1.0 + i as f64 * 1e-3 };
                samples.push((w * 1_000_000 + i * 1000, v));
            }
        }
        let buckets = into_windows(&samples, 5, 5_000_000);
        let per = window_percentiles(&buckets, 100, 50.0);
        assert_eq!(per.len(), 5);
        assert_eq!(per[2], Some(500.0));
        assert_eq!(per[4], None, "a starved window does not vote");
        let p50 = median_of_windows(&per);
        assert!((p50 - 1.049).abs() < 1e-9, "the stall is outvoted: {p50}");
        // The whole-run p99 is the stall itself.
        let all = sorted(samples.iter().map(|s| s.1).collect());
        assert_eq!(percentile(&all, 99.0), Some(500.0));
        assert_eq!(median_of_windows(&[None, None]), 0.0);
        // Two stalled windows of four: the median is halfway into the
        // stall, the lower quartile is the calmest window.
        let half = [Some(1.0), Some(500.0), None, Some(1.1), Some(400.0)];
        assert_eq!(median_of_windows(&half), 200.55);
        assert_eq!(calm_quartile_of_windows(&half), 1.0);
        assert!((calm_quartile_of_windows(&per) - 1.049).abs() < 1e-9);
        assert_eq!(calm_quartile_of_windows(&[None]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([3,1,4,1,5,9,2,6,5,3,5], n=4) == [2.0, 4.0, 5.0]
        let w = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0];
        assert_eq!(quartiles(&w), Some([2.0, 4.0, 5.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(quartile_spread(&v), Some(1.0));
    }
}
