//! Vendored subset of the Criterion benchmarking API.
//!
//! The build environment has no crates.io access, so the workspace ships
//! the slice of `criterion` its benches use: [`Criterion::bench_function`]
//! with [`Bencher::iter`], and the [`criterion_group!`]/[`criterion_main!`]
//! macros. Timing is calibrated wall-clock measurement (iterations per
//! sample are scaled until a sample takes long enough to trust the clock),
//! reported as per-iteration nanoseconds.
//!
//! Instead of Criterion's HTML reports, each group writes a machine-readable
//! `BENCH_<group>.json` snapshot at the workspace root (falling back to the
//! current directory when no workspace manifest is found), so runs can be
//! diffed across commits:
//!
//! ```json
//! {
//!   "group": "kernels",
//!   "sample_size": 20,
//!   "benchmarks": [
//!     {"name": "matmul_64x64", "mean_ns": 1234.5, "median_ns": 1200.0,
//!      "min_ns": 1100.0, "max_ns": 1500.0, "samples": 20, "cores": 8,
//!      "simd": "avx2"}
//!   ]
//! }
//! ```
//!
//! Every entry carries the runner's available core count (`"cores"`) and
//! the widest SIMD backend its CPU offers the engine's dispatcher
//! (`"simd"`: `avx2`, `neon` or `scalar`), so downstream comparisons
//! (`bench_check`) can refuse to compare numbers recorded on
//! differently-sized machines like-for-like and a reader knows which
//! kernels a number was measured on.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Minimum wall-clock time one sample should cover; below this the
/// per-iteration count is scaled up before real measurement starts.
const MIN_SAMPLE_TIME: Duration = Duration::from_millis(10);

/// Benchmark driver: collects per-function timing statistics and writes a
/// `BENCH_<group>.json` snapshot when the group finishes.
pub struct Criterion {
    sample_size: usize,
    group: String,
    results: Vec<BenchResult>,
}

struct BenchResult {
    name: String,
    mean_ns: f64,
    median_ns: f64,
    min_ns: f64,
    max_ns: f64,
    samples: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 100,
            group: String::new(),
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Sets the number of timing samples per benchmark (builder-style).
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "sample_size must be at least 2");
        self.sample_size = n;
        self
    }

    #[doc(hidden)]
    pub fn __set_group(&mut self, name: &str) {
        self.group = name.to_string();
    }

    /// Runs `f` with a [`Bencher`], records calibrated per-iteration timings
    /// and prints a one-line summary.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            per_iter_ns: Vec::new(),
        };
        f(&mut bencher);
        let mut sorted = bencher.per_iter_ns.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let samples = sorted.len();
        assert!(samples > 0, "Bencher::iter was never called in {name}");
        let median_ns = if samples % 2 == 1 {
            sorted[samples / 2]
        } else {
            (sorted[samples / 2 - 1] + sorted[samples / 2]) / 2.0
        };
        let mean_ns = sorted.iter().sum::<f64>() / samples as f64;
        let result = BenchResult {
            name: name.to_string(),
            mean_ns,
            median_ns,
            min_ns: sorted[0],
            max_ns: sorted[samples - 1],
            samples,
        };
        println!(
            "{:<40} median {:>12.1} ns/iter  (mean {:.1}, n={})",
            result.name, result.median_ns, result.mean_ns, result.samples
        );
        self.results.push(result);
        self
    }

    /// Records a precomputed metric as a single-sample benchmark entry —
    /// all statistics equal `value_ns`. For deterministic quantities a
    /// simulation derives (e.g. drain makespan in simulated time) that
    /// should live in the same snapshot as the wall-clock benches but
    /// must not vary with host load or core count.
    pub fn record_metric(&mut self, name: &str, value_ns: f64) -> &mut Self {
        assert!(
            value_ns.is_finite() && value_ns >= 0.0,
            "metric value must be a finite non-negative ns count"
        );
        println!("{name:<40} metric {value_ns:>12.1} ns (recorded)");
        self.results.push(BenchResult {
            name: name.to_string(),
            mean_ns: value_ns,
            median_ns: value_ns,
            min_ns: value_ns,
            max_ns: value_ns,
            samples: 1,
        });
        self
    }

    #[doc(hidden)]
    pub fn __finish(&mut self) {
        if self.results.is_empty() {
            return;
        }
        let path = snapshot_dir().join(format!("BENCH_{}.json", self.group));
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => println!("snapshot written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }

    fn to_json(&self) -> String {
        // Stamped per entry (not per file) so snapshot consumers that
        // merge or filter entries keep the provenance with the number.
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"group\": \"{}\",\n  \"sample_size\": {},\n  \"benchmarks\": [\n",
            self.group, self.sample_size
        ));
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"mean_ns\": {:.1}, \"median_ns\": {:.1}, \
                 \"min_ns\": {:.1}, \"max_ns\": {:.1}, \"samples\": {}, \"cores\": {}, \
                 \"simd\": \"{}\"}}{}\n",
                r.name,
                r.mean_ns,
                r.median_ns,
                r.min_ns,
                r.max_ns,
                r.samples,
                cores,
                simd_backend(),
                if i + 1 < self.results.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The widest SIMD backend this CPU offers, in the spelling of the engine's
/// `INSTANTNET_SIMD` knob (detected here, not imported: the shim depends on
/// nothing in the workspace).
fn simd_backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    if cfg!(target_arch = "aarch64") {
        "neon"
    } else {
        "scalar"
    }
}

/// Walks up from the current directory to the workspace root (the nearest
/// ancestor whose `Cargo.toml` declares `[workspace]`); cargo runs bench
/// binaries from the package directory, not the workspace root.
#[cfg(not(test))]
fn snapshot_dir() -> std::path::PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| ".".into());
    let mut dir = cwd.as_path();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir.to_path_buf();
            }
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => return cwd,
        }
    }
}

/// The shim's own unit tests snapshot into a per-process temp directory,
/// so `cargo test` leaves the working tree clean.
#[cfg(test)]
fn snapshot_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("criterion_shim_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

/// Measures closures passed to [`Bencher::iter`].
pub struct Bencher {
    sample_size: usize,
    per_iter_ns: Vec<f64>,
}

impl Bencher {
    /// Times `f`, storing `sample_size` per-iteration nanosecond samples.
    ///
    /// The number of iterations per sample is doubled until one sample
    /// takes at least 10 ms, so very fast closures still get trustworthy
    /// clock readings.
    pub fn iter<T, F: FnMut() -> T>(&mut self, mut f: F) {
        black_box(f()); // warm-up: fault in code paths and allocations

        let mut iters_per_sample: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= MIN_SAMPLE_TIME || iters_per_sample >= 1 << 20 {
                break;
            }
            iters_per_sample *= 2;
        }

        self.per_iter_ns.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            let ns = start.elapsed().as_nanos() as f64 / iters_per_sample as f64;
            self.per_iter_ns.push(ns);
        }
    }
}

/// Declares a benchmark group: a function running each target against a
/// shared [`Criterion`] config, then writing the group's snapshot.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            criterion.__set_group(stringify!($name));
            $($target(&mut criterion);)+
            criterion.__finish();
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares the bench binary's `main`, running each group in order.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_target(c: &mut Criterion) {
        c.bench_function("tiny_sum", |b| {
            b.iter(|| (0..100u64).sum::<u64>());
        });
    }

    #[test]
    fn bench_function_records_samples() {
        let mut c = Criterion::default().sample_size(3);
        tiny_target(&mut c);
        assert_eq!(c.results.len(), 1);
        let r = &c.results[0];
        assert_eq!(r.samples, 3);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        assert!(r.mean_ns > 0.0);
    }

    #[test]
    fn record_metric_stores_an_exact_single_sample_entry() {
        let mut c = Criterion::default().sample_size(2);
        c.__set_group("metrics");
        c.record_metric("drain_steps", 6.0e6);
        assert_eq!(c.results.len(), 1);
        let r = &c.results[0];
        assert_eq!(r.samples, 1);
        assert_eq!(r.mean_ns, 6.0e6);
        assert_eq!(r.median_ns, 6.0e6);
        assert_eq!(r.min_ns, 6.0e6);
        assert_eq!(r.max_ns, 6.0e6);
        let json = c.to_json();
        assert!(json.contains("\"name\": \"drain_steps\""));
        assert!(json.contains("\"median_ns\": 6000000.0"));
    }

    #[test]
    fn json_snapshot_is_well_formed() {
        let mut c = Criterion::default().sample_size(2);
        c.__set_group("testgroup");
        c.bench_function("a", |b| b.iter(|| 1 + 1));
        c.bench_function("b", |b| b.iter(|| 2 + 2));
        let json = c.to_json();
        assert!(json.contains("\"group\": \"testgroup\""));
        assert!(json.contains("\"name\": \"a\""));
        assert!(json.contains("\"name\": \"b\""));
        assert!(
            json.contains("\"cores\": ") && json.contains("\"simd\": \""),
            "every entry records the runner's core count and SIMD backend"
        );
        // Last entry must not have a trailing comma.
        assert!(json.contains("}\n  ]"));
        assert!(!json.contains("},\n  ]"));
    }

    criterion_group! {
        name = self_check;
        config = Criterion::default().sample_size(2);
        targets = tiny_target
    }

    #[test]
    fn group_macro_expands_and_runs() {
        self_check();
        let path = snapshot_dir().join("BENCH_self_check.json");
        let json = std::fs::read_to_string(&path).expect("the group wrote its snapshot");
        assert!(json.contains("\"name\": \"tiny_sum\""));
        std::fs::remove_dir_all(snapshot_dir()).expect("temp snapshot dir is removable");
    }
}
