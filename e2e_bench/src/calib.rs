//! The machine-speed reference.
//!
//! The machine this benchmark was sized on changes speed under it: the same
//! forward reads 0.6, 0.8 or 1.3 ms, in modes that last a few tenths of a
//! second each, and how much of a run lands in which mode differs from
//! run to run (ten identical runs of a CPU-bound workload spread by 23 %).
//! A fixed computation that shares nothing with the repository slows down
//! by the same factor at the same time (forward over reference stayed
//! within 4 % while the forward itself moved 2.4x, on the same thread or on
//! the other core), so a sampler thread times that reference every two
//! milliseconds for the whole run, and every time the benchmark reports is
//! divided by the slowdown of the interval it was measured in. A reported
//! millisecond is a millisecond of the machine in its usual mode; a change
//! to the repository cannot move the reference, so it moves the reported
//! time exactly as it moves the raw one.

use crate::procstat::ProcClock;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the sampler read in the sizing machine's usual mode.
pub const REFERENCE_NOMINAL_US: f64 = 25.0;
/// The sampler sleeps this long between two readings: about 1 % of a core.
const SAMPLE_EVERY: Duration = Duration::from_millis(2);
/// An interval is widened on both sides until it holds this many readings.
const MIN_READINGS: usize = 9;

const N: usize = 48;

/// The reference computation: a 48x48x48 `f32` matrix product that stays
/// in the first-level cache.
fn reference(a: &[f32], b: &[f32], c: &mut [f32]) {
    c.fill(0.0);
    for i in 0..N {
        for k in 0..N {
            let aik = a[i * N + k];
            for j in 0..N {
                c[i * N + j] += aik * b[k * N + j];
            }
        }
    }
}

/// `(process clock microseconds, reference microseconds)` readings.
type Readings = Arc<Mutex<Vec<(u64, f64)>>>;

/// The running sampler thread.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
    readings: Readings,
}

/// A handle on the sampler's readings.
#[derive(Clone)]
pub struct Speed(Readings);

impl Sampler {
    pub fn start(clock: ProcClock) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let readings: Readings = Arc::default();
        let (stopped, sink) = (stop.clone(), readings.clone());
        let handle = std::thread::spawn(move || {
            let a: Vec<f32> = (0..N * N).map(|i| (i % 7) as f32 * 0.1).collect();
            let b: Vec<f32> = (0..N * N).map(|i| (i % 5) as f32 * 0.2).collect();
            let mut c = vec![0.0f32; N * N];
            // SeqCst: the flag orders nothing but itself, and is read once
            // per two milliseconds.
            while !stopped.load(Ordering::SeqCst) {
                let t = Instant::now();
                reference(std::hint::black_box(&a), std::hint::black_box(&b), &mut c);
                std::hint::black_box(&mut c);
                let reading = (clock.now_us(), t.elapsed().as_secs_f64() * 1e6);
                sink.lock()
                    .expect("no holder of the readings lock panics")
                    .push(reading);
                std::thread::sleep(SAMPLE_EVERY);
            }
        });
        Sampler {
            stop,
            handle,
            readings,
        }
    }

    pub fn speed(&self) -> Speed {
        Speed(self.readings.clone())
    }

    /// Stops the thread and waits for it.
    pub fn stop(self) -> Result<(), String> {
        self.stop.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .map_err(|_| "the speed sampler panicked".to_string())
    }
}

impl Speed {
    /// How much slower than its usual mode the machine ran between two
    /// instants of the process clock (see `slowdown_of`). 1.0 while there
    /// are no readings.
    pub fn slowdown(&self, start_us: u64, end_us: u64) -> f64 {
        let readings = self
            .0
            .lock()
            .expect("no holder of the readings lock panics");
        slowdown_of(&readings, start_us, end_us)
    }

    /// Microseconds the sampler itself computed between two instants of the
    /// process clock: the sum of its readings there.
    pub fn sampler_busy_us(&self, start_us: u64, end_us: u64) -> f64 {
        let readings = self
            .0
            .lock()
            .expect("no holder of the readings lock panics");
        readings
            .iter()
            .filter(|r| (start_us..=end_us).contains(&r.0))
            .map(|r| r.1)
            .sum()
    }

    /// `(readings, median, 10th and 90th percentile)` of the slowdown over
    /// the whole run, for the report.
    pub fn summary(&self) -> (usize, f64, f64, f64) {
        let readings = self
            .0
            .lock()
            .expect("no holder of the readings lock panics");
        let s = crate::stats::sorted(
            readings
                .iter()
                .map(|r| r.1 / REFERENCE_NOMINAL_US)
                .collect(),
        );
        let at = |p| crate::stats::percentile(&s, p).unwrap_or(1.0);
        (s.len(), at(50.0), at(10.0), at(90.0))
    }
}

/// The process clock together with the speed readings: what it times is in
/// seconds of the machine's usual mode.
#[derive(Clone)]
pub struct Stopwatch {
    clock: ProcClock,
    speed: Speed,
}

impl Stopwatch {
    pub fn new(clock: ProcClock, speed: Speed) -> Self {
        Stopwatch { clock, speed }
    }

    /// Microseconds since the process started.
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    pub fn slowdown(&self, start_us: u64, end_us: u64) -> f64 {
        self.speed.slowdown(start_us, end_us)
    }

    pub fn sampler_busy_us(&self, start_us: u64, end_us: u64) -> f64 {
        self.speed.sampler_busy_us(start_us, end_us)
    }

    /// Runs `f`; returns its result and the seconds it took, divided by the
    /// slowdown of the interval it ran in.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let start_us = self.now_us();
        let t = Instant::now();
        let out = f();
        let raw_s = t.elapsed().as_secs_f64();
        (out, raw_s / self.slowdown(start_us, self.now_us()))
    }
}

/// The interval's length over the time the machine's usual mode would have
/// needed for the same work: one over the mean speed (nominal reading over
/// reading) of the interval's readings. The mean, not the median, because
/// an interval often straddles two modes and the work done in it is the
/// speed summed over time; the median of such an interval jumps from one
/// mode's value to the other's.
fn slowdown_of(readings: &[(u64, f64)], start_us: u64, end_us: u64) -> f64 {
    if readings.is_empty() {
        return 1.0;
    }
    // Readings are in time order: take the ones inside the interval, and
    // neighbours on both sides while there are too few.
    let mut lo = readings.partition_point(|r| r.0 < start_us);
    let mut hi = readings.partition_point(|r| r.0 <= end_us);
    while hi - lo < MIN_READINGS && (lo > 0 || hi < readings.len()) {
        lo = lo.saturating_sub(1);
        hi = (hi + 1).min(readings.len());
    }
    let speed: f64 = readings[lo..hi]
        .iter()
        .map(|r| REFERENCE_NOMINAL_US / r.1)
        .sum();
    (hi - lo) as f64 / speed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_one_over_the_mean_speed_of_the_interval() {
        // One reading every 2 ms: nominal speed, then 20 ms at half speed.
        let readings: Vec<(u64, f64)> = (0..50u64)
            .map(|i| {
                let slow = (20..30).contains(&i);
                (i * 2000, if slow { 50.0 } else { 25.0 })
            })
            .collect();
        assert_eq!(slowdown_of(&readings, 0, 38_000), 1.0);
        assert_eq!(slowdown_of(&readings, 40_000, 58_000), 2.0);
        // Four fifths at full speed and a fifth at half speed: nine tenths
        // of the work the usual mode would have done.
        assert!((slowdown_of(&readings, 0, 98_000) - 1.0 / 0.9).abs() < 1e-12);
        assert_eq!(slowdown_of(&[], 0, 10), 1.0);
    }

    #[test]
    fn a_short_interval_borrows_its_neighbours() {
        let readings: Vec<(u64, f64)> = (0..50u64).map(|i| (i * 2000, 25.0 + i as f64)).collect();
        // 1 ms holds no reading at all; the nine nearest are 16..=24.
        let s = slowdown_of(&readings, 40_500, 41_500);
        assert!((s - (25.0 + 20.0) / 25.0).abs() < 0.1, "{s}");
        // At the edge of the run there is only one side to borrow from.
        let s = slowdown_of(&readings, 0, 0);
        assert!((s - (25.0 + 4.0) / 25.0).abs() < 0.02, "{s}");
    }

    #[test]
    fn sampler_reads_and_stops() {
        let sampler = Sampler::start(ProcClock::start());
        let speed = sampler.speed();
        // Synchronise on state, not on a sleep: wait for the first reading.
        while speed.summary().0 == 0 {
            std::thread::yield_now();
        }
        assert!(speed.slowdown(0, u64::MAX) > 0.0);
        sampler.stop().unwrap();
    }

    #[test]
    fn reference_is_a_matrix_product() {
        let mut a = vec![0.0f32; N * N];
        let mut b = vec![0.0f32; N * N];
        for i in 0..N {
            a[i * N + i] = 2.0;
            b[i * N + i] = 3.0;
        }
        let mut c = vec![1.0f32; N * N];
        reference(&a, &b, &mut c);
        assert_eq!(c[0], 6.0);
        assert_eq!(c[1], 0.0);
        assert_eq!(c[N * N - 1], 6.0);
    }
}
