//! `e2e_bench`: the repository's end-to-end benchmark.
//!
//! Two ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and prints, as its last line, one JSON object
//!   with `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//!   metrics untraced, the per-layer metrics traced).
//! * without `--workload`, every workload runs in a fresh child process of
//!   this binary and one report lists every metric by name with its unit;
//!   `--trace` adds the traced run and the tracing overhead, `--repeat N`
//!   the spread between whole sets of runs, `--smoke` shortens every
//!   workload to a twentieth.
//!
//! See `README.md` in this directory.

mod calib;
mod catalog;
mod procstat;
mod stats;
mod sut;
mod trace;
mod trafficgen;
mod workloads;

use catalog::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    dump_schedule: Option<String>,
    emit_benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        repeat: 1,
        dump_schedule: None,
        emit_benchmark_json: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                // `--trace 0|1` from the driver, bare `--trace` by hand.
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--repeat" => {
                args.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--smoke" => args.seconds = RUN_SECONDS as f64 / 20.0,
            "--dump-schedule" => args.dump_schedule = Some(value("--dump-schedule")?),
            "--emit-benchmark-json" => args.emit_benchmark_json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The commit of the checkout, when it is a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.len() >= 12 && hash.chars().all(|c| c.is_ascii_hexdigit()) {
        hash[..12].to_string()
    } else {
        "unknown".to_string()
    }
}

fn stamp_line(workload: &str, args: &Args) -> String {
    let s = sut::stamp();
    format!(
        "# e2e_bench workload={workload} seed={} seconds={} trace={} cores={} simd={} fused={} commit={} r_steady_rps={} r_swing_rps={} burst_requests={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        s.cores,
        s.simd,
        s.fused,
        commit(),
        catalog::R_STEADY_RPS,
        catalog::R_SWING_RPS,
        catalog::BURST_REQUESTS,
    )
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Runs one workload in this process; the last line printed is the result.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    if !WORKLOADS.iter().any(|w| w.name == name) {
        return Err(format!("unknown workload {name:?}"));
    }
    println!("{}", stamp_line(name, args));
    let clock = procstat::ProcClock::start();
    let sampler = calib::Sampler::start(clock);
    let speed = sampler.speed();
    let mut ctx = workloads::Ctx {
        seed: args.seed,
        seconds: args.seconds,
        clock: calib::Stopwatch::new(clock, speed.clone()),
        tracer: trace::Tracer::new(args.trace),
    };
    let report = workloads::run(name, &mut ctx);
    sampler.stop()?;
    let report = report?;
    let (readings, slowdown, low, high) = speed.summary();
    println!(
        "note machine slowdown against its usual mode: median {slowdown:.3}, 10th to 90th percentile {low:.3} to {high:.3}, over {readings} readings of the reference; every time below is divided by the slowdown of its own interval"
    );
    if args.trace {
        let path = PathBuf::from(format!(
            "target/e2e_bench/trace-{name}-seed{}.jsonl",
            args.seed
        ));
        ctx.tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "note {} spans written to {}",
            ctx.tracer.len(),
            path.display()
        );
        for (span, count, duration_us, self_us) in ctx.tracer.top_level_summary() {
            println!(
                "note span {span}: {count} span(s), {duration_us} us in all, self time {self_us} us (nothing of it in flight)"
            );
        }
    }

    // Every end-to-end metric must be there; a per-layer metric a workload
    // does not exercise reads 0.
    let mut end_to_end = Vec::new();
    for m in END_TO_END {
        let value = *report
            .end_to_end
            .get(m.name)
            .ok_or(format!("{name} did not produce {}", m.name))?;
        end_to_end.push((m.name, value, m.unit));
    }
    let per_layer: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .map(|m| {
            (
                m.name,
                report.per_layer.get(m.name).copied().unwrap_or(0.0),
                m.unit,
            )
        })
        .collect();
    if let Some(stray) = report
        .per_layer
        .keys()
        .find(|k| !PER_LAYER.iter().any(|m| m.name == k.as_str()))
    {
        return Err(format!("{name} produced the uncatalogued metric {stray}"));
    }
    for (metric, value, unit) in end_to_end.iter().chain(&per_layer) {
        if !value.is_finite() {
            return Err(format!("{metric} is not finite: {value}"));
        }
        if args.trace || end_to_end.iter().any(|(n, ..)| n == metric) {
            println!("metric {metric} {value} {unit}");
        }
    }
    for note in &report.notes {
        println!("note {note}");
    }
    println!(
        "ops_attempted {} ops_failed {}",
        report.attempted, report.failed
    );
    let correct = report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted.max(1),
        report.failed,
        metrics_json(if args.trace { &per_layer } else { &end_to_end })
    );
    Ok(correct)
}

/// `metric <name> <value> <unit>` lines of one child run.
type ChildMetrics = BTreeMap<String, f64>;

fn run_child(name: &str, args: &Args, trace: bool) -> Result<ChildMetrics, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut metrics = ChildMetrics::new();
    for line in stdout.lines() {
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("metric") => {
                if let (Some(n), Some(v)) =
                    (parts.next(), parts.next().and_then(|v| v.parse().ok()))
                {
                    metrics.insert(n.to_string(), v);
                }
            }
            Some("note" | "ops_attempted" | "#") => println!("    {line}"),
            _ => {}
        }
    }
    if !out.status.success() {
        return Err(format!(
            "{name} failed ({}):\n{stdout}{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(metrics)
}

fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == metric)
        .map_or("", |(_, u)| u)
}

/// How the two fixed-width serving workloads split a request's cost
/// between the kernel and the loop, against what the issue that asked for
/// them predicted.
fn print_accounting(traced: &BTreeMap<&str, ChildMetrics>) {
    let overhead = "wallclock.overhead_us_per_req";
    // The CPU a request cost the system: the benchmark's own generator and
    // sampler are inside `cpu_ms_per_req` and are taken out.
    let overhead_share = |workload: &str| {
        let run = &traced[workload];
        let harness_us = run.get("bench.harness_us_per_req").copied().unwrap_or(0.0);
        (
            100.0 * run[overhead] / (run["cpu_ms_per_req"] * 1e3 - harness_us),
            run[overhead],
        )
    };
    let steady_run = &traced["steady_mbv2_w4"];
    let forward =
        100.0 * steady_run["infer.forward_us.mbv2.b1.w4"] / (steady_run["lat_p50_ms"] * 1e3);
    let (steady, steady_us) = overhead_share("steady_mbv2_w4");
    let (burst, burst_us) = overhead_share("burst_drain_cnn");
    println!("== accounting (traced runs) ==");
    println!("  steady_mbv2_w4: infer.forward_us.mbv2.b1.w4 is {forward:.1}% of lat_p50_ms");
    println!("  steady_mbv2_w4: {overhead} is {steady:.1}% of the CPU a request costs ({steady_us:.2} us)");
    println!("  burst_drain_cnn: {overhead} is {burst:.1}% of the CPU a request costs ({burst_us:.2} us)");
    println!(
        "  predicted when the workloads were chosen: the loop's share is the larger on burst_drain_cnn -> {}",
        if burst > steady {
            "held"
        } else {
            "NOT held on this commit (see README.md, \"What the accounting found\")"
        }
    );
}

/// Runs every workload in a child process and prints one report.
fn run_all(args: &Args) -> Result<(), String> {
    // `sets[set][workload]` = that run's end-to-end metrics.
    let mut sets: Vec<Vec<ChildMetrics>> = Vec::new();
    let mut traced_runs: BTreeMap<&str, ChildMetrics> = BTreeMap::new();
    for set in 0..args.repeat {
        let mut this_set = Vec::new();
        for w in WORKLOADS {
            println!(
                "== {} (set {} of {}, untraced) ==",
                w.name,
                set + 1,
                args.repeat
            );
            let untraced = run_child(w.name, args, false)?;
            for m in END_TO_END {
                println!("  {:<40} {:>14.4} {}", m.name, untraced[m.name], m.unit);
            }
            if args.trace && set == 0 {
                println!("== {} (traced) ==", w.name);
                let traced = run_child(w.name, args, true)?;
                for m in PER_LAYER {
                    let v = traced.get(m.name).copied().unwrap_or(0.0);
                    if v != 0.0 {
                        println!("  {:<40} {:>14.4} {}", m.name, v, m.unit);
                    }
                }
                println!("  tracing overhead (traced minus untraced):");
                for m in END_TO_END {
                    let (t, u) = (traced[m.name], untraced[m.name]);
                    println!(
                        "    {:<38} {:>+14.4} {} ({:+.1}%)",
                        m.name,
                        t - u,
                        unit_of(m.name),
                        100.0 * (t - u) / u
                    );
                }
                traced_runs.insert(w.name, traced);
            }
            this_set.push(untraced);
        }
        sets.push(this_set);
    }
    if args.trace {
        print_accounting(&traced_runs);
    }
    if args.repeat < 2 {
        return Ok(());
    }
    println!(
        "== spread between {} sets of runs, against the bounds ==",
        args.repeat
    );
    let mut outside = 0;
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for m in END_TO_END {
            // The acceptance check's own statistic: the distance between
            // the first and third quartile as a share of the median.
            let values: Vec<f64> = sets.iter().map(|s| s[wi][m.name]).collect();
            let spread = stats::quartile_spread(&values)
                .ok_or(format!("{} of {} has a zero median", m.name, w.name))?;
            let verdict = if spread <= m.bound {
                "within"
            } else {
                "OUTSIDE"
            };
            outside += usize::from(spread > m.bound);
            println!(
                "  {:<22} {:<16} spread {:>6.2}% bound {:>5.1}% {verdict}",
                w.name,
                m.name,
                100.0 * spread,
                100.0 * m.bound
            );
        }
    }
    if outside > 0 {
        return Err(format!("{outside} metric(s) spread beyond their bound"));
    }
    Ok(())
}

/// Writes a long text to stdout; a reader that closes the pipe early
/// (`| head`) has what it wanted.
fn print_text(text: &str) -> Result<bool, String> {
    use std::io::Write;
    match std::io::stdout().write_all(text.as_bytes()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => Err(format!("stdout: {e}")),
        _ => Ok(true),
    }
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.emit_benchmark_json {
            print_text(&catalog::benchmark_json())
        } else if let Some(name) = &args.dump_schedule {
            print_text(&workloads::schedule_text(name, args.seed, args.seconds)?)
        } else if let Some(name) = &args.workload {
            run_one(name, &args)
        } else {
            run_all(&args).map(|()| true)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            ExitCode::from(2)
        }
    }
}
