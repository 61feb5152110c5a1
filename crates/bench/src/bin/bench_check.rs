//! CI bench-regression gate: compares freshly generated `BENCH_<group>.json`
//! snapshots against committed baselines and fails (exit 1) when any
//! benchmark's median regresses by more than the allowed ratio (default 2×,
//! wide enough to absorb shared-runner noise while catching real
//! regressions).
//!
//! Usage: `bench_check <baseline-dir> <current-dir> [max-ratio]`
//!
//! Groups or benchmarks present in the baseline but absent from the current
//! run are reported and skipped (renames should update the baseline in the
//! same change), as are sub-100 ns medians, which are pure timer noise.
//! When both sides of a comparison carry the recording runner's `"cores"`
//! stamp and the counts differ, the entry is skipped with a notice — a
//! median from an 8-core box is not a regression baseline for a 1-core
//! runner. Entries predating the stamp compare unconditionally.
//!
//! Several groups carry extra within-run ratio checks (per-median ratios
//! absorb machine drift; these cannot):
//!
//! * infer: on hosts where the checker itself detects AVX2, the SIMD
//!   16-bit GEMM must be at least 1.5× its forced-scalar twin, 4-bit
//!   GEMM must not be slower than 8-bit (the precision/latency ordering
//!   the whole serving stack exploits), and the fused 4-bit GEMM must be
//!   at least 1.5× the forced-scalar 8-bit one (`_scalar` twin, the
//!   decode-then-multiply route fused kernels replace) — the fused
//!   multiply-on-packed-codes win — and a batch-1 4-bit
//!   MobileNetV2 block must not be slower than the same block on the
//!   32-bit f32 fallback (the low-bit network is the cheap one even when
//!   activation quantize and depthwise, not GEMM, dominate — it must be at
//!   most 0.9× it), dispatched contiguous activation emission (max-abs,
//!   grid and codes of one 6 144-value operand) must be at least 2× its
//!   forced-scalar twin, and a
//!   batch-16 forward of the serving CNN may cost at most a quarter of
//!   sixteen batch-1 forwards (the batch is a GEMM dimension: if a batch
//!   stops amortizing, the queue, the batch controller and `max_batch`
//!   above it buy nothing), and the layers of a batch-1 MobileNetV2
//!   forward whose planes cannot fill pixel lanes must keep the lanes on
//!   their long axis: one sample on a 2×2 pointwise at most 0.75× two (a
//!   GEMM below one column block takes the reduction-lane kernel instead
//!   of a scalar tail), a batch-1 linear at most 0.5× the batch-8 one, and
//!   a 96-channel depthwise on a 4×4 plane at most 3× the pointwise that
//!   feeds it (channel lanes: it does less arithmetic than the pointwise).
//!   Skipped with a notice on non-AVX2 runners, where both sides run the
//!   same scalar kernels;
//! * kernels: the depthwise 3×3 forward, which does 1/16 of the dense
//!   `conv2d_forward` entry's MACs, may cost at most 4× as much per MAC
//!   (both on one kernel thread) — a depthwise plane is tiny work, and a
//!   kernel that pays for bounds checks instead of arithmetic shows here;
//! * serving: batch-16 request aggregation must keep at least 2× the
//!   requests/sec of batch-1 serving on the same 48 requests — if it
//!   decays, the batching amortization itself (shared weight decode, one
//!   parallel region per batch) has regressed;
//! * sharding: 4 replicas must drain the same burst in at most 1/2.5 the
//!   *simulated* steps one replica needs (the `sharded_drain_replicas*`
//!   entries are deterministic makespans, not wall clock, so this floor
//!   holds on any host) — if it decays, dispatch has stopped spreading
//!   load across the fleet;
//! * reload: a wall-clock run that hot-swaps its model mid-drain must
//!   sustain within 1.1× of the never-reloading run — a publish is a
//!   pointer swap plus one O(1) re-pin per worker, never a stall.
//!
//! Floors that are host-gated (AVX2 detection, core count) skip with a
//! notice where the gate fails; a single end-of-run summary block replays
//! every gated floor with its RAN pass / RAN FAIL / SKIPPED (reason)
//! status, so one glance at the log tail shows which guarantees this run
//! actually exercised. A core-gated floor whose committed baseline entry
//! was itself recorded below the gate's core count reads NEVER-RAN rather
//! than SKIPPED: no recorded number has ever been through it.
//!
//! On failure every offending group/benchmark is listed by name with its
//! measured-vs-baseline (or within-run) ratio, so a CI log is enough to
//! diagnose which bench moved and by how much.

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

/// Parses the criterion shim's snapshot format: one benchmark per line,
/// `{"name": "...", "mean_ns": ..., "median_ns": ..., ...}`.
fn parse_medians(path: &Path) -> Result<HashMap<String, f64>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut out = HashMap::new();
    for line in text.lines() {
        let Some(name) = field_str(line, "\"name\": \"") else {
            continue;
        };
        let median = field_num(line, "\"median_ns\": ")
            .ok_or_else(|| format!("{}: benchmark {name} has no median_ns", path.display()))?;
        out.insert(name, median);
    }
    if out.is_empty() {
        return Err(format!("{}: no benchmarks found", path.display()));
    }
    Ok(out)
}

/// Per-entry `"cores"` metadata (runner core count at record time), for
/// snapshots new enough to carry it. Entries without the field — every
/// baseline recorded before the stamp existed — are simply absent, and
/// the caller compares them unconditionally as before.
fn parse_cores(path: &Path) -> HashMap<String, u64> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return HashMap::new();
    };
    let mut out = HashMap::new();
    for line in text.lines() {
        if let (Some(name), Some(cores)) = (
            field_str(line, "\"name\": \""),
            field_num(line, "\"cores\": "),
        ) {
            out.insert(name, cores as u64);
        }
    }
    out
}

fn field_str(line: &str, key: &str) -> Option<String> {
    let rest = &line[line.find(key)? + key.len()..];
    Some(rest[..rest.find('"')?].to_string())
}

fn field_num(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One within-run check on the ratio of two medians of the same snapshot:
/// `median[num] / median[den]` must stay at or above `bound` (a speedup
/// floor) or at or below it (a cost ceiling).
struct RatioCheck {
    /// Name in the gated-floor summary (prefixed with the group).
    gate: &'static str,
    num: &'static str,
    den: &'static str,
    bound: f64,
    floor: bool,
}

impl RatioCheck {
    /// Evaluates the check, printing the verdict and recording a failure
    /// line and the gate's fate.
    fn run(
        &self,
        group: &str,
        medians: &HashMap<String, f64>,
        failures: &mut Vec<String>,
        gates: &mut Vec<(String, String)>,
    ) {
        let file = format!("BENCH_{group}.json");
        let (kind, cmp, miss) = if self.floor {
            ("floor", ">=", "<")
        } else {
            ("ceiling", "<=", ">")
        };
        let fate = match (medians.get(self.num), medians.get(self.den)) {
            (Some(&num), Some(&den)) => {
                let (ratio, bound) = (num / den, self.bound);
                let pass = if self.floor {
                    ratio >= bound
                } else {
                    ratio <= bound
                };
                let verdict = if pass { "ok" } else { "REGRESSED" };
                println!(
                    "{file}: {} {ratio:>5.2}x ({kind} {bound}x) {verdict}",
                    self.gate
                );
                if pass {
                    format!("RAN pass ({ratio:.2}x {cmp} {bound}x)")
                } else {
                    failures.push(format!(
                        "{file}: {}: {} is {ratio:.2}x {} ({kind} {bound}x)",
                        self.gate, self.num, self.den
                    ));
                    format!("RAN FAIL ({ratio:.2}x {miss} {bound}x)")
                }
            }
            _ => {
                let line = format!(
                    "{file}: {} / {} missing, cannot check {}",
                    self.num, self.den, self.gate
                );
                println!("{line}: REGRESSED");
                failures.push(line);
                "RAN FAIL (entries missing)".to_string()
            }
        };
        gates.push((format!("{group}: {}", self.gate), fate));
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() < 3 {
        eprintln!("usage: bench_check <baseline-dir> <current-dir> [max-ratio]");
        return ExitCode::FAILURE;
    }
    let (baseline_dir, current_dir) = (Path::new(&args[1]), Path::new(&args[2]));
    let max_ratio: f64 = args
        .get(3)
        .map(|s| s.parse().expect("max-ratio must be a number"))
        .unwrap_or(2.0);
    // Below this, a median is timer noise (e.g. the pointer-swap switch
    // benchmark), not a meaningful regression signal.
    const NOISE_FLOOR_NS: f64 = 100.0;

    let mut snapshots: Vec<String> = std::fs::read_dir(baseline_dir)
        .expect("baseline dir must be readable")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            (name.starts_with("BENCH_") && name.ends_with(".json")).then_some(name)
        })
        .collect();
    snapshots.sort();
    assert!(
        !snapshots.is_empty(),
        "no BENCH_*.json baselines in {}",
        baseline_dir.display()
    );

    // Each failure is recorded as a human-readable line naming the group,
    // the benchmark, and the offending ratio — replayed in the exit
    // summary so the CI log alone identifies what regressed.
    let mut failures: Vec<String> = Vec::new();
    // Host-gated floors additionally record their fate here — (floor name,
    // "RAN pass" | "RAN FAIL" | "SKIPPED (reason)") — replayed as one
    // summary block at the end of the run (pass or fail), so skipped
    // guarantees are visible without scanning the whole log.
    let mut gates: Vec<(String, String)> = Vec::new();
    for file in &snapshots {
        let current_path = current_dir.join(file);
        if !current_path.exists() {
            println!("{file}: no current snapshot (group not re-run), skipping");
            continue;
        }
        let baseline = parse_medians(&baseline_dir.join(file)).unwrap();
        let current = parse_medians(&current_path).unwrap();
        let baseline_cores = parse_cores(&baseline_dir.join(file));
        let current_cores = parse_cores(&current_path);
        let mut names: Vec<&String> = baseline.keys().collect();
        names.sort();
        for name in names {
            let base = baseline[name];
            let Some(&cur) = current.get(name) else {
                println!("{file}: {name} missing from current run, skipping");
                continue;
            };
            // Like-for-like only: a median recorded on an 8-core box says
            // nothing about a 1-core runner's number. Entries predating the
            // cores stamp compare unconditionally, as before.
            if let (Some(&bc), Some(&cc)) = (baseline_cores.get(name), current_cores.get(name)) {
                if bc != cc {
                    println!(
                        "{file}: {name} recorded on {bc} core(s), current runner has {cc}, \
                         skipping (not like-for-like)"
                    );
                    continue;
                }
            }
            if base.max(cur) < NOISE_FLOOR_NS {
                println!("{file}: {name} below noise floor ({base:.0} -> {cur:.0} ns), skipping");
                continue;
            }
            let ratio = cur / base;
            let verdict = if ratio > max_ratio {
                failures.push(format!(
                    "{file}: {name} regressed {ratio:.2}x vs baseline \
                     ({base:.0} -> {cur:.0} ns, allowed {max_ratio}x)"
                ));
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "{file}: {name:<40} {base:>12.0} -> {cur:>12.0} ns  ({ratio:>5.2}x) {verdict}"
            );
        }
    }

    // Within-run SIMD-win floor: the `_scalar` twins run the same forward
    // with kernels forced portable, so the ratio isolates the AVX2 kernel
    // speedup from machine drift. Only meaningful where the dispatcher
    // actually selects AVX2 — probed here with the same detection macro
    // the engine uses (the checker runs on the same host as the bench).
    const INFER_CHECKS: [RatioCheck; 9] = [
        RatioCheck {
            gate: "SIMD vs scalar 16-bit GEMM",
            num: "packed_gemm_16bit_64x256x256_scalar",
            den: "packed_gemm_16bit_64x256x256",
            bound: 1.5,
            floor: true,
        },
        // 4-bit may be at most this much slower than 8-bit: nominally 1.0
        // (the paper's premise — fewer bits must not run slower), with 5%
        // slack for runner noise between the two medians.
        RatioCheck {
            gate: "4-bit vs 8-bit GEMM ordering",
            num: "packed_gemm_4bit_64x256x256",
            den: "packed_gemm_8bit_64x256x256",
            bound: 1.05,
            floor: false,
        },
        // The fused multiply-on-packed-codes 4-bit GEMM must beat the
        // decode-then-multiply 8-bit route it replaces — the scalar table's
        // — by this much: the low-bit advantage fused kernels exist to
        // deliver.
        RatioCheck {
            gate: "fused 4-bit vs scalar 8-bit GEMM",
            num: "packed_gemm_8bit_64x256x256_scalar",
            den: "packed_gemm_4bit_64x256x256",
            bound: 1.5,
            floor: true,
        },
        // Batch 1, where per-forward overheads (activation quantize,
        // depthwise, weight layout) outweigh the GEMM: the packed 4-bit
        // block must stay clearly cheaper than the f32 fallback (0.99-1.14
        // with scalar activation quantization, 0.68-0.77 with it in vector
        // lanes).
        RatioCheck {
            gate: "4-bit vs 32-bit MobileNetV2 block, batch 1",
            num: "packed_mbv2_block_4bit_1x16x16x16",
            den: "packed_mbv2_block_32bit_1x16x16x16",
            bound: 0.9,
            floor: false,
        },
        // Activation quantization in vector lanes: max-abs and code
        // emission compiled for AVX2 against the same loops on the portable
        // backend, whose baseline build already runs 4-wide SSE division —
        // so the division throughput bounds this ratio near 2 on cores
        // whose 8-wide divide is not twice the 4-wide one (2.1-2.26
        // measured on the 2-core recording VM).
        RatioCheck {
            gate: "dispatched vs scalar contiguous activation emission",
            num: "activation_emit_4bit_contiguous_6144_scalar",
            den: "activation_emit_4bit_contiguous_6144",
            bound: 2.0,
            floor: true,
        },
        // The batch is a column dimension of every GEMM: sixteen requests
        // in one forward may cost at most a quarter of sixteen forwards
        // (0.31 with a patch matrix and a kernel call per sample, 0.17-0.21
        // with one per batch).
        RatioCheck {
            gate: "batch-16 vs 16 x batch-1 serving CNN forward",
            num: "packed_cnn_4bit_16x3x8x8",
            den: "packed_cnn_4bit_1x3x8x8",
            bound: 0.25 * 16.0,
            floor: false,
        },
        // Lanes follow the long axis. Four columns cannot fill a column
        // block, so one sample on a 2x2 map runs the reduction-lane kernel
        // (0.34 measured) where the column kernels' scalar tail made it
        // cost more than two samples (1.24).
        RatioCheck {
            gate: "1 vs 2 samples, 240->80 pointwise on 2x2",
            num: "packed_pointwise_4bit_1x240to80x2x2",
            den: "packed_pointwise_4bit_2x240to80x2x2",
            bound: 0.75,
            floor: false,
        },
        // The same for a linear's one column (0.31 measured, 0.95 before).
        RatioCheck {
            gate: "batch-1 vs batch-8 256x256 linear",
            num: "packed_linear_4bit_1x256x256",
            den: "packed_linear_4bit_8x256x256",
            bound: 0.5,
            floor: false,
        },
        // A 4x4 plane's rows cannot fill a vector but its 96 channels can:
        // the depthwise does 0.56x the pointwise's MACs on the same plane
        // and may cost at most 3x it (1.9 measured with channel lanes, 6.6
        // with one axpy of <= 4 pixels per tap per row).
        RatioCheck {
            gate: "depthwise 96ch vs pointwise 16->96 on 4x4",
            num: "packed_depthwise_4bit_1x96x4x4",
            den: "packed_pointwise_4bit_1x16to96x4x4",
            bound: 3.0,
            floor: false,
        },
    ];
    let infer_path = current_dir.join("BENCH_infer.json");
    if infer_path.exists() {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        if !avx2 {
            println!(
                "BENCH_infer.json: no AVX2 on this runner, skipping SIMD speedup, \
                 4-vs-8-bit ordering, fused-GEMM, 4-vs-32-bit block, emission, \
                 batch amortization and lane-orientation checks (scalar backend \
                 on both sides)"
            );
            for check in &INFER_CHECKS {
                gates.push((
                    format!("infer: {}", check.gate),
                    "SKIPPED (no AVX2 on this runner)".to_string(),
                ));
            }
        } else {
            let infer = parse_medians(&infer_path).unwrap();
            for check in &INFER_CHECKS {
                check.run("infer", &infer, &mut failures, &mut gates);
            }
        }
    }

    // Within-run depthwise-cost ceiling, one kernel thread on both sides:
    // the depthwise entry does 1/16 of the dense entry's MACs (one input
    // plane per filter instead of 16), so a median ratio of 1/16 is cost
    // parity per MAC. Parity is out of reach for a kernel that streams each
    // plane once per tap where the dense product reuses every loaded patch
    // 32 times; the ceiling is 4x the dense cost per MAC — the per-pixel,
    // per-tap-bounds-checked loop this guards against cost 14x.
    const KERNELS_CHECK: RatioCheck = RatioCheck {
        gate: "depthwise vs dense conv forward (1/16 of the MACs)",
        num: "depthwise_conv2d_4x32x16x16",
        den: "conv2d_forward_4x16x16x16",
        bound: 4.0 / 16.0,
        floor: false,
    };
    let kernels_path = current_dir.join("BENCH_kernels.json");
    if kernels_path.exists() {
        let kernels = parse_medians(&kernels_path).unwrap();
        KERNELS_CHECK.run("kernels", &kernels, &mut failures, &mut gates);
    }

    // Within-run batching-throughput floor: both configurations serve the
    // same 48 requests, so median times compare per-request cost directly.
    const SERVING_MIN_SPEEDUP: f64 = 2.0;
    let serving_path = current_dir.join("BENCH_serving.json");
    if serving_path.exists() {
        let serving = parse_medians(&serving_path).unwrap();
        match (
            serving.get("serving_batch1"),
            serving.get("serving_batch16"),
        ) {
            (Some(&b1), Some(&b16)) => {
                let speedup = b1 / b16;
                let verdict = if speedup < SERVING_MIN_SPEEDUP {
                    failures.push(format!(
                        "BENCH_serving.json: serving_batch16 throughput only {speedup:.2}x \
                         serving_batch1 (floor {SERVING_MIN_SPEEDUP}x)"
                    ));
                    "REGRESSED"
                } else {
                    "ok"
                };
                println!(
                    "BENCH_serving.json: batch-16 vs batch-1 throughput {speedup:>5.2}x \
                     (floor {SERVING_MIN_SPEEDUP}x) {verdict}"
                );
            }
            _ => {
                failures.push(
                    "BENCH_serving.json: serving_batch1/serving_batch16 missing, \
                     cannot check batching speedup"
                        .to_string(),
                );
                println!(
                    "BENCH_serving.json: serving_batch1/serving_batch16 missing, \
                     cannot check batching speedup: REGRESSED"
                );
            }
        }
    }

    // Within-run sharding-capacity floor: the drain entries are simulated
    // makespans (steps × a fixed ns/step), deterministic on any host, so
    // 4 replicas must genuinely multiply serving capacity — not merely
    // tie wall clock on a core-starved runner.
    const SHARDING_MIN_SPEEDUP: f64 = 2.5;
    let sharding_path = current_dir.join("BENCH_sharding.json");
    if sharding_path.exists() {
        let sharding = parse_medians(&sharding_path).unwrap();
        match (
            sharding.get("sharded_drain_replicas1"),
            sharding.get("sharded_drain_replicas4"),
        ) {
            (Some(&r1), Some(&r4)) => {
                let speedup = r1 / r4;
                let verdict = if speedup < SHARDING_MIN_SPEEDUP {
                    failures.push(format!(
                        "BENCH_sharding.json: 4-replica drain only {speedup:.2}x the 1-replica \
                         drain (floor {SHARDING_MIN_SPEEDUP}x)"
                    ));
                    "REGRESSED"
                } else {
                    "ok"
                };
                println!(
                    "BENCH_sharding.json: 4-replica vs 1-replica drain throughput {speedup:>5.2}x \
                     (floor {SHARDING_MIN_SPEEDUP}x) {verdict}"
                );
            }
            _ => {
                failures.push(
                    "BENCH_sharding.json: sharded_drain_replicas1/sharded_drain_replicas4 \
                     missing, cannot check sharding speedup"
                        .to_string(),
                );
                println!(
                    "BENCH_sharding.json: sharded_drain_replicas1/sharded_drain_replicas4 \
                     missing, cannot check sharding speedup: REGRESSED"
                );
            }
        }
    }

    // Within-run wall-clock-scaling floor: the sustained entries are real
    // measured service times (elapsed / served) from the threaded loop, so
    // they only scale where the hardware can actually run 4 workers at
    // once. On narrower runners the workers serialize and the floor is
    // skipped — the snapshot still records the honest numbers.
    const WALLCLOCK_MIN_SPEEDUP: f64 = 2.5;
    // The sharded queue with stealing must beat the single shared queue by
    // this much on the skewed max-batch-1 burst — the pop-contention win
    // the sharded fast path exists to deliver. Like the worker-scaling
    // floor it only shows up where 4 workers genuinely run concurrently.
    const SHARDED_QUEUE_MIN_SPEEDUP: f64 = 1.3;
    let wallclock_path = current_dir.join("BENCH_wallclock.json");
    if wallclock_path.exists() {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        if cores < 4 {
            println!(
                "BENCH_wallclock.json: only {cores} core(s) on this runner, skipping \
                 wall-clock worker-scaling and sharded-queue floors (need 4)"
            );
            // A floor whose committed baseline was itself recorded below
            // the gate has never judged a recorded number: say so, instead
            // of a SKIPPED that reads as "passes elsewhere".
            let baseline_cores = parse_cores(&baseline_dir.join("BENCH_wallclock.json"));
            let fate = |entry: &str| {
                match baseline_cores.get(entry) {
                Some(&recorded) if recorded < 4 => format!(
                    "NEVER-RAN (only {cores} core(s) here, baseline recorded on {recorded}, needs 4)"
                ),
                _ => format!("SKIPPED (only {cores} core(s), needs 4)"),
            }
            };
            gates.push((
                "wallclock: 4-worker vs 1-worker scaling".into(),
                fate("wallclock_sustained_workers4"),
            ));
            gates.push((
                "wallclock: sharded vs shared skew queue".into(),
                fate("wallclock_sustained_skew_sharded4"),
            ));
        } else {
            let wallclock = parse_medians(&wallclock_path).unwrap();
            match (
                wallclock.get("wallclock_sustained_workers1"),
                wallclock.get("wallclock_sustained_workers4"),
            ) {
                (Some(&w1), Some(&w4)) => {
                    let speedup = w1 / w4;
                    let verdict = if speedup < WALLCLOCK_MIN_SPEEDUP {
                        failures.push(format!(
                            "BENCH_wallclock.json: 4-worker sustained throughput only \
                             {speedup:.2}x the 1-worker loop (floor {WALLCLOCK_MIN_SPEEDUP}x)"
                        ));
                        "REGRESSED"
                    } else {
                        "ok"
                    };
                    println!(
                        "BENCH_wallclock.json: 4-worker vs 1-worker sustained throughput \
                         {speedup:>5.2}x (floor {WALLCLOCK_MIN_SPEEDUP}x) {verdict}"
                    );
                    gates.push((
                        "wallclock: 4-worker vs 1-worker scaling".into(),
                        if verdict == "ok" {
                            format!("RAN pass ({speedup:.2}x >= {WALLCLOCK_MIN_SPEEDUP}x)")
                        } else {
                            format!("RAN FAIL ({speedup:.2}x < {WALLCLOCK_MIN_SPEEDUP}x)")
                        },
                    ));
                }
                _ => {
                    failures.push(
                        "BENCH_wallclock.json: wallclock_sustained_workers1/4 missing, \
                         cannot check wall-clock scaling"
                            .to_string(),
                    );
                    println!(
                        "BENCH_wallclock.json: wallclock_sustained_workers1/4 missing, \
                         cannot check wall-clock scaling: REGRESSED"
                    );
                    gates.push((
                        "wallclock: 4-worker vs 1-worker scaling".into(),
                        "RAN FAIL (entries missing)".into(),
                    ));
                }
            }
            match (
                wallclock.get("wallclock_sustained_skew_shared4"),
                wallclock.get("wallclock_sustained_skew_sharded4"),
            ) {
                (Some(&shared), Some(&sharded)) => {
                    let speedup = shared / sharded;
                    let verdict = if speedup < SHARDED_QUEUE_MIN_SPEEDUP {
                        failures.push(format!(
                            "BENCH_wallclock.json: sharded queue only {speedup:.2}x the shared \
                             queue on the skewed burst (floor {SHARDED_QUEUE_MIN_SPEEDUP}x)"
                        ));
                        "REGRESSED"
                    } else {
                        "ok"
                    };
                    println!(
                        "BENCH_wallclock.json: sharded vs shared skew-burst throughput \
                         {speedup:>5.2}x (floor {SHARDED_QUEUE_MIN_SPEEDUP}x) {verdict}"
                    );
                    gates.push((
                        "wallclock: sharded vs shared skew queue".into(),
                        if verdict == "ok" {
                            format!("RAN pass ({speedup:.2}x >= {SHARDED_QUEUE_MIN_SPEEDUP}x)")
                        } else {
                            format!("RAN FAIL ({speedup:.2}x < {SHARDED_QUEUE_MIN_SPEEDUP}x)")
                        },
                    ));
                }
                _ => {
                    failures.push(
                        "BENCH_wallclock.json: wallclock_sustained_skew_shared4/sharded4 \
                         missing, cannot check sharded-queue speedup"
                            .to_string(),
                    );
                    println!(
                        "BENCH_wallclock.json: wallclock_sustained_skew_shared4/sharded4 \
                         missing, cannot check sharded-queue speedup: REGRESSED"
                    );
                    gates.push((
                        "wallclock: sharded vs shared skew queue".into(),
                        "RAN FAIL (entries missing)".into(),
                    ));
                }
            }
        }
    }

    // Within-run reload-overhead ceiling: a mid-drain publish re-pins
    // each worker once (an O(1) Arc clone at its next batch boundary),
    // so a run that hot-swaps its model must sustain within 10% of the
    // never-reloading run — a publish is bookkeeping on top of serving.
    // Both entries are real measured service times
    // from the same host in the same run, so the ratio holds anywhere.
    const RELOAD_MAX_OVERHEAD: f64 = 1.1;
    let reload_path = current_dir.join("BENCH_reload.json");
    if reload_path.exists() {
        let reload = parse_medians(&reload_path).unwrap();
        match (reload.get("reload_off"), reload.get("reload_on")) {
            (Some(&off), Some(&on)) => {
                let overhead = on / off;
                let verdict = if overhead > RELOAD_MAX_OVERHEAD {
                    failures.push(format!(
                        "BENCH_reload.json: mid-drain hot reload costs {overhead:.2}x \
                         the never-reloading run (ceiling {RELOAD_MAX_OVERHEAD}x)"
                    ));
                    "REGRESSED"
                } else {
                    "ok"
                };
                println!(
                    "BENCH_reload.json: hot-reload vs frozen sustained overhead \
                     {overhead:>5.2}x (ceiling {RELOAD_MAX_OVERHEAD}x) {verdict}"
                );
            }
            _ => {
                failures.push(
                    "BENCH_reload.json: reload_off/reload_on missing, \
                     cannot check reload overhead"
                        .to_string(),
                );
                println!(
                    "BENCH_reload.json: reload_off/reload_on missing, \
                     cannot check reload overhead: REGRESSED"
                );
            }
        }
    }

    // One block, always at the tail: the fate of every host-gated floor
    // this run, so a CI log shows at a glance which hardware-dependent
    // guarantees were actually exercised and which were skipped (and why).
    if !gates.is_empty() {
        println!("gated floor summary:");
        for (name, fate) in &gates {
            println!("  {name:<45} {fate}");
        }
    }

    if failures.is_empty() {
        println!("all benchmarks within {max_ratio}x of baseline");
        ExitCode::SUCCESS
    } else {
        eprintln!("{} benchmark check(s) failed:", failures.len());
        for line in &failures {
            eprintln!("  {line}");
        }
        ExitCode::FAILURE
    }
}
