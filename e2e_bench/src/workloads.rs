//! The four workloads. Each builds its inputs from the seed, runs for the
//! requested time, checks every output against an oracle and returns its
//! metrics; the traced run adds spans and the per-layer probes.

use crate::calib::Stopwatch;
use crate::catalog::{
    BURST_REQUESTS, DATASET_POOL, R_STEADY_RPS, R_SWING_RPS, SLO_LIMIT_US, SWING_DEADLINE_US,
};
use crate::procstat::{cpu_ms, peak_rss_mb};
use crate::stats::{
    calm_quartile_of_windows, into_windows, median, median_of_windows, percentile, sorted,
    window_percentiles,
};
use crate::sut::{
    self, Data, Generator, Input, LoopStats, Model, Outcome, PipelineSut, Point, ServeSpec, Sink,
    Status,
};
use crate::trace::{SpanId, Tracer};
use crate::trafficgen::{input_samples, Arrival, Params, Rng, Schedule};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Distinct inputs of every serving workload.
const INPUTS: usize = 16;
/// Open-loop phases are cut into one-second windows, sixty at most.
const MAX_WINDOWS: u64 = 60;
/// A window votes only with at least this many samples: ten beyond p90.
const WINDOW_MIN_SAMPLES: usize = 100;
/// Set-up is repeated at least this often, for at least this long, and
/// `setup_s` is the median.
const SETUP_REPEATS: usize = 5;
const SETUP_MIN_TIME: Duration = Duration::from_millis(600);
/// At most this many request spans are kept by one traced run.
const MAX_REQUEST_SPANS: usize = 50_000;
/// A generator more than this late spoils the window it submits into.
const LATE_US: u64 = 1000;
/// Packed and fake-quant forwards of a trained network may differ by a
/// re-rounded activation: four quantisation steps of the width, and 0.005
/// where the steps are finer than that. Over 13 seeds (5200 forwards per
/// width) the largest gap was one step at 4-bit (0.065), two at 8-bit
/// (0.008), and under 0.005 at the wider widths; a wrong output (other
/// weights, another input) is off by more than 0.5.
fn fake_quant_tolerance(bits: u8) -> f32 {
    (4.0 / ((1u64 << bits) - 1) as f32).max(0.005)
}
/// A direct timed call is repeated at least this often and for at least
/// `PROBE_MIN_TIME` (the machine's modes last a few tenths of a second, and
/// a probe should see more than one), but no longer than `PROBE_BUDGET`.
const PROBE_REPS: usize = 200;
const PROBE_MIN_TIME: Duration = Duration::from_millis(500);
const PROBE_BUDGET: Duration = Duration::from_millis(2000);
const PROBE_MAX_READINGS: usize = 50_000;
/// The replay of a run's batches is an even subsample of at most this many.
const REPLAY_MAX_BATCHES: usize = 2048;
/// `burst_drain_cnn` derives the loop's self time from this many pairs of
/// a burst and the replay of its batches, one right after the other.
const REPLAY_PAIRS: usize = 7;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// The process clock; every time it measures is divided by the
    /// machine's slowdown over the interval measured (see `calib`).
    pub clock: Stopwatch,
    pub tracer: Tracer,
}

impl Ctx {
    fn tracing(&self) -> bool {
        self.tracer.enabled()
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<String, f64>,
    /// Human-readable side notes (counts, lateness, shares).
    pub notes: Vec<String>,
}

impl Report {
    fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.per_layer.insert(name.into(), value);
    }

    fn count(&mut self, scored: &Scored) {
        self.attempted += scored.samples.len() as u64;
        self.failed += scored.failed as u64;
    }
}

pub fn run(name: &str, ctx: &mut Ctx) -> Result<Report, String> {
    let mut report = match name {
        "steady_mbv2_w4" => steady(ctx),
        "burst_drain_cnn" => burst(ctx),
        "energy_swing_bursty" => swing(ctx),
        "generate_deploy" => generate_deploy(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    report.end_to_end.insert("peak_rss_mb", peak_rss_mb()?);
    let failed_pct = 100.0 * report.failed as f64 / report.attempted.max(1) as f64;
    report.layer("ops_failed_pct", failed_pct);
    report.layer("trace.spans", ctx.tracer.len() as f64);
    Ok(report)
}

/// The schedule `--dump-schedule` prints for a workload.
pub fn schedule_text(name: &str, seed: u64, seconds: f64) -> Result<String, String> {
    let text = match name {
        "steady_mbv2_w4" => Schedule::generate(steady_params(seed, seconds)).to_text(name),
        "burst_drain_cnn" => Schedule::generate(burst_params(seed)).to_text(name),
        "energy_swing_bursty" => Schedule::generate(swing_params(seed, seconds)).to_text(name),
        "generate_deploy" => {
            let mut text = format!("# e2e_bench schedule v1 workload={name}\n");
            for cycle in 0..DATASET_POOL.len() {
                let dataset = pool_dataset(seed, cycle);
                text.push_str(&format!(
                    "# cycle {cycle}: dataset {}\n",
                    sut::dataset_params(dataset)
                ));
            }
            text
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    Ok(text)
}

// ---------------------------------------------------------------------------
// Shared serving pieces
// ---------------------------------------------------------------------------

/// Open-loop workloads leave one core to the generator.
fn open_loop_workers() -> usize {
    sut::cores().saturating_sub(1).max(1)
}

/// A model, its seeded inputs and the expected output of every
/// `(input, width)` pair.
struct Fixture {
    model: Model,
    inputs: Vec<Input>,
    /// `expected[input][width index]`.
    expected: Vec<Vec<Vec<f32>>>,
    schedule: Schedule,
}

fn fixture(model: Model, seed: u64, schedule: Schedule) -> Fixture {
    let samples = input_samples(seed, INPUTS, model.sample_len());
    let inputs: Vec<Input> = samples.iter().map(|s| model.input(&[s])).collect();
    let widths = model.widths().len();
    let expected = inputs
        .iter()
        .map(|x| {
            (0..widths)
                .map(|w| model.forward_reference(w, x).data().to_vec())
                .collect()
        })
        .collect();
    Fixture {
        model,
        inputs,
        expected,
        schedule,
    }
}

/// Sets up at least `SETUP_REPEATS` times, and for at least
/// `SETUP_MIN_TIME` so that a cheap set-up is read often enough; returns
/// the last fixture and the median time of one set-up.
fn timed_setup<T>(clock: &Stopwatch, mut build: impl FnMut() -> T) -> (T, f64) {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPEATS || started.elapsed() < SETUP_MIN_TIME {
        drop(last.take());
        let (built, seconds) = clock.time(&mut build);
        last = Some(built);
        times.push(seconds);
    }
    (last.expect("SETUP_REPEATS is positive"), median(&times))
}

fn windows_of(duration_us: u64) -> usize {
    (duration_us / 1_000_000).clamp(1, MAX_WINDOWS) as usize
}

/// Paces a schedule against the run clock: sleeps until shortly before an
/// arrival is due (a sleep overshoots by about the kernel's 50 us timer
/// slack), spins the rest, and records when each submit started. It also
/// reads the process CPU time at every window boundary it crosses.
struct OpenLoop<'a> {
    arrivals: &'a [Arrival],
    window_us: u64,
    time_submits: bool,
    submit_start_us: Vec<u64>,
    submit_end_us: Vec<u64>,
    /// `cpu_ms_at[k]` = process CPU time when window `k` began.
    cpu_ms_at: Vec<f64>,
    /// Microseconds this thread spent awake: spinning, submitting, reading
    /// the CPU time. It is the benchmark's cost, not the loop's.
    awake_us: u64,
}

impl<'a> OpenLoop<'a> {
    fn new(arrivals: &'a [Arrival], duration_us: u64, time_submits: bool) -> Self {
        OpenLoop {
            arrivals,
            window_us: duration_us / windows_of(duration_us) as u64,
            time_submits,
            submit_start_us: Vec::with_capacity(arrivals.len()),
            submit_end_us: Vec::new(),
            cpu_ms_at: Vec::new(),
            awake_us: 0,
        }
    }
}

impl Generator for OpenLoop<'_> {
    fn run(&mut self, sink: &dyn Sink) {
        let mut awake_from = sink.now_us();
        for a in self.arrivals {
            let mut now = sink.now_us();
            while now < a.due_us {
                let left = a.due_us - now;
                if left > 120 {
                    self.awake_us += now - awake_from;
                    std::thread::sleep(Duration::from_micros(left - 60));
                    awake_from = sink.now_us();
                } else {
                    std::hint::spin_loop();
                }
                now = sink.now_us();
            }
            while a.due_us >= self.cpu_ms_at.len() as u64 * self.window_us {
                // A failed reading surfaces as a non-finite metric.
                self.cpu_ms_at.push(cpu_ms().unwrap_or(f64::NAN));
            }
            sink.submit(a.input);
            self.submit_start_us.push(now);
            if self.time_submits {
                self.submit_end_us.push(sink.now_us());
            }
        }
        self.awake_us += sink.now_us() - awake_from;
    }
}

/// What became of one request that was sent.
struct Sample {
    due_us: u64,
    /// Due time to `served_us`, for a correct completion.
    latency_ms: Option<f64>,
    /// Completed, correct, and within the latency limit.
    ok: bool,
}

/// What the oracle makes of one serving run; `samples` is in arrival order.
struct Scored {
    /// Outputs that differ from the oracle, or requests the loop lost.
    failed: usize,
    correct: usize,
    samples: Vec<Sample>,
}

impl Scored {
    fn latencies(&self) -> Vec<(u64, f64)> {
        self.samples
            .iter()
            .filter_map(|s| s.latency_ms.map(|l| (s.due_us, l)))
            .collect()
    }
}

/// Checks every outcome bit-exactly against the expected output of its
/// `(input, width)` pair, and conservation of requests.
fn score(
    fx: &Fixture,
    stats: &LoopStats,
    outcomes: &[Outcome],
    due_us: &dyn Fn(usize) -> u64,
    sent: usize,
    limit_us: u64,
) -> Scored {
    let mut scored = Scored {
        failed: 0,
        correct: 0,
        samples: Vec::with_capacity(sent),
    };
    let accounted = stats.completed
        + stats.degraded
        + stats.shed
        + stats.expired
        + stats.failed
        + stats.backlog;
    // Conservation: every request sent has one outcome and one status.
    scored.failed += sent.abs_diff(outcomes.len()).max(sent.abs_diff(accounted));
    for id in 0..sent {
        let due = due_us(id);
        let mut sample = Sample {
            due_us: due,
            latency_ms: None,
            ok: false,
        };
        match outcomes.get(id) {
            Some(o) if matches!(o.status, Status::Completed | Status::Degraded) => {
                let right = match (&o.output, o.bits.and_then(|b| fx.model.width_index(b))) {
                    (Some(out), Some(w)) => out.data() == fx.expected[o.input][w].as_slice(),
                    _ => false,
                };
                match o.served_us {
                    Some(served) if right => {
                        let latency_us = served.saturating_sub(due);
                        scored.correct += 1;
                        sample.latency_ms = Some(latency_us as f64 / 1e3);
                        sample.ok = latency_us <= limit_us;
                    }
                    _ => scored.failed += 1,
                }
            }
            Some(o) if o.status == Status::Failed => scored.failed += 1,
            // Shed, expired and left in the backlog miss the limit but are
            // not failures; a missing outcome was counted above.
            _ => {}
        }
        scored.samples.push(sample);
    }
    scored
}

/// One span per request, under `parent`, until the run's span cap.
fn request_spans(
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    phase_start_us: u64,
    outcomes: &[Outcome],
    due_us: &dyn Fn(usize) -> u64,
    gen: Option<&OpenLoop>,
) {
    if !tracer.enabled() {
        return;
    }
    // Requests served by one worker at one instant shared a batch.
    let mut mates: BTreeMap<(usize, u64), usize> = BTreeMap::new();
    for o in outcomes {
        if let (Some(w), Some(t)) = (o.worker, o.served_us) {
            *mates.entry((w, t)).or_insert(0) += 1;
        }
    }
    for (id, o) in outcomes.iter().enumerate() {
        if tracer.len() >= MAX_REQUEST_SPANS {
            break;
        }
        let due = due_us(id);
        let end = o.served_us.unwrap_or(o.arrived_us);
        let batch = match (o.worker, o.served_us) {
            (Some(w), Some(t)) => mates[&(w, t)],
            _ => 0,
        };
        let mut fields = format!(
            "\"request\":{id},\"due_us\":{due},\"arrived_us\":{},\"status\":\"{:?}\",\"input\":{},\"batch\":{batch}",
            o.arrived_us, o.status, o.input
        );
        if let Some(g) = gen {
            fields.push_str(&format!(
                ",\"submit_start_us\":{},\"submit_end_us\":{}",
                g.submit_start_us[id], g.submit_end_us[id]
            ));
        }
        if let Some(t) = o.served_us {
            fields.push_str(&format!(",\"served_us\":{t}"));
        }
        if let Some(b) = o.bits {
            fields.push_str(&format!(",\"bits\":{b}"));
        }
        if let Some(w) = o.worker {
            fields.push_str(&format!(",\"worker\":{w}"));
        }
        tracer.span(
            parent,
            "request",
            phase_start_us + due,
            phase_start_us + end.max(due),
            fields,
        );
    }
}

/// Median time of one call of `f` in microseconds, each call divided by
/// the slowdown of its own interval, after one warm-up call.
fn probe_us(clock: &Stopwatch, mut f: impl FnMut()) -> f64 {
    f();
    let started = Instant::now();
    let mut readings: Vec<(u64, f64)> = Vec::with_capacity(PROBE_REPS);
    while readings.len() < PROBE_MAX_READINGS
        && started.elapsed() < PROBE_BUDGET
        && (readings.len() < PROBE_REPS || started.elapsed() < PROBE_MIN_TIME)
    {
        let start_us = clock.now_us();
        let t = Instant::now();
        f();
        readings.push((start_us, t.elapsed().as_secs_f64() * 1e6));
    }
    let times: Vec<f64> = readings
        .iter()
        .map(|&(at, us)| us / clock.slowdown(at, at + us as u64))
        .collect();
    median(&times)
}

/// Times one named call `PROBE_REPS` times and records it as a child span
/// of `parent`; returns the median in microseconds.
fn probe_span(ctx: &mut Ctx, parent: Option<SpanId>, name: &str, f: impl FnMut()) -> f64 {
    let start = ctx.clock.now_us();
    let us = probe_us(&ctx.clock, f);
    let end = ctx.clock.now_us();
    ctx.tracer
        .span(parent, name, start, end, format!("\"median_us\":{us}"));
    us
}

/// One open-loop serving run with everything the statistics need.
struct Phase {
    stats: LoopStats,
    outcomes: Vec<Outcome>,
    scored: Scored,
    /// CPU milliseconds per correct completion (median over windows).
    cpu_ms_per_req: f64,
    /// Of those, the microseconds the benchmark's own generator and speed
    /// sampler used.
    harness_us_per_req: f64,
    span: Option<SpanId>,
}

/// An `[n, ...]` input of `n` seeded samples, for the probes and the replay.
fn probe_input(fx: &Fixture, n: usize) -> Input {
    let samples = input_samples(0, INPUTS, fx.model.sample_len());
    let refs: Vec<&[f32]> = (0..n).map(|i| samples[i % INPUTS].as_slice()).collect();
    fx.model.input(&refs)
}

/// What a run's batches cost in `forward_batch_at` alone, in microseconds
/// per request: batches of the run's sizes (an even subsample of at most
/// `REPLAY_MAX_BATCHES`), each at a width drawn from the run's width mix
/// (how a size splits over the widths cannot be seen from outside), dealt
/// round-robin to `threads` threads that start together. The cost is the sum
/// of the threads' busy times, as the loop's is the sum of its workers'.
fn replay_us_per_req(clock: &Stopwatch, fx: &Fixture, stats: &LoopStats, threads: usize) -> f64 {
    let sizes: Vec<usize> = stats
        .batch_histogram
        .iter()
        .enumerate()
        .skip(1)
        .flat_map(|(size, &count)| std::iter::repeat_n(size, count))
        .collect();
    let stride = sizes.len().div_ceil(REPLAY_MAX_BATCHES).max(1);
    let sizes: Vec<usize> = sizes.into_iter().step_by(stride).collect();
    let mix: Vec<usize> = stats
        .time_in_bits
        .iter()
        .flat_map(|&(bits, batches)| {
            let w = fx
                .model
                .width_index(bits)
                .expect("served widths are packed");
            std::iter::repeat_n(w, batches)
        })
        .collect();
    let requests: usize = sizes.iter().sum();
    if requests == 0 || mix.is_empty() {
        return 0.0;
    }
    let mut rng = Rng::new(0x5EED);
    let work: Vec<(usize, usize)> = sizes
        .iter()
        .map(|&size| (mix[rng.below(mix.len())], size))
        .collect();
    let largest = sizes.iter().copied().max().unwrap_or(1);
    let inputs: Vec<Input> = (1..=largest).map(|n| probe_input(fx, n)).collect();
    let barrier = Barrier::new(threads);
    let start_us = clock.now_us();
    let busy_s: f64 = std::thread::scope(|scope| {
        let replayers: Vec<_> = (0..threads)
            .map(|t| {
                let (work, inputs, barrier) = (&work, &inputs, &barrier);
                scope.spawn(move || {
                    sut::with_kernel_threads(1, || {
                        barrier.wait();
                        let started = Instant::now();
                        for &(width, size) in work.iter().skip(t).step_by(threads) {
                            fx.model.forward_batch(width, &inputs[size - 1]);
                        }
                        started.elapsed().as_secs_f64()
                    })
                })
            })
            .collect();
        replayers
            .into_iter()
            .map(|r| {
                r.join()
                    .expect("a replay thread only calls forward_batch_at")
            })
            .sum()
    });
    busy_s * 1e6 / clock.slowdown(start_us, clock.now_us()) / requests as f64
}

/// The `layer_probe` of a serving workload: direct timed calls into
/// `forward_batch_at` at batch 1 for every width the run served and at the
/// largest batch for the narrowest, and the loop's self time
/// `overhead_us_per_req` its caller derived from a replay.
#[allow(clippy::too_many_arguments)]
fn infer_probes(
    ctx: &mut Ctx,
    report: &mut Report,
    fx: &Fixture,
    stats: &LoopStats,
    run_span: Option<SpanId>,
    max_batch: usize,
    model_name: &str,
    overhead_us_per_req: f64,
) {
    let start_us = ctx.clock.now_us();
    let parent = ctx.tracer.span(
        run_span,
        "layer_probe",
        start_us,
        start_us,
        format!("\"overhead_us_per_req\":{overhead_us_per_req}"),
    );
    let (one, full) = (probe_input(fx, 1), probe_input(fx, max_batch));
    let mut probes: Vec<(String, usize, &Input)> = stats
        .time_in_bits
        .iter()
        .map(|&(bits, _)| {
            let w = fx
                .model
                .width_index(bits)
                .expect("served widths are packed");
            (format!("infer.forward_us.{model_name}.b1.w{bits}"), w, &one)
        })
        .collect();
    let narrowest = fx.model.widths()[0];
    probes.push((
        format!("infer.forward_us.{model_name}.b{max_batch}.w{narrowest}"),
        0,
        &full,
    ));
    sut::with_kernel_threads(1, || {
        for (name, width, x) in probes {
            let us = probe_span(ctx, parent, &name, || fx.model.forward_batch(width, x));
            report.layer(name, us);
        }
    });
    ctx.tracer.extend_to(parent, ctx.clock.now_us());
    report.layer("wallclock.overhead_us_per_req", overhead_us_per_req);
    report.layer("infer.prepack_ms", fx.model.prepack_ms);
    report.layer("infer.packed_bytes", fx.model.packed_bytes() as f64);
}

impl Phase {
    /// The CPU one request cost the system under test, in microseconds.
    fn system_us_per_req(&self) -> f64 {
        self.cpu_ms_per_req * 1e3 - self.harness_us_per_req
    }
}

/// The loop's self time of an open-loop phase: the CPU a request cost,
/// minus what the benchmark's own generator and speed sampler used, minus
/// the request's forward replayed alone on one thread. Worker wall time
/// cannot be seen from outside when workers block on an empty queue;
/// process CPU time can.
fn open_loop_overhead_us(ctx: &Ctx, fx: &Fixture, phase: &Phase) -> f64 {
    phase.system_us_per_req() - replay_us_per_req(&ctx.clock, fx, &phase.stats, 1)
}

/// `wallclock.overhead_us_per_req` as a share of `system_us_per_req`, the
/// CPU one request cost the system under test.
fn overhead_share(report: &Report, system_us_per_req: f64) -> f64 {
    100.0 * report.per_layer["wallclock.overhead_us_per_req"] / system_us_per_req
}

/// The loop-level per-layer metrics every serving workload reports.
fn loop_layer_metrics(report: &mut Report, stats: &LoopStats, sent: usize) {
    let pct = |n: usize| 100.0 * n as f64 / sent.max(1) as f64;
    let batches: usize = stats.batch_histogram.iter().sum();
    let requests: usize = stats
        .batch_histogram
        .iter()
        .enumerate()
        .map(|(n, c)| n * c)
        .sum();
    report.layer(
        "wallclock.batch_mean",
        requests as f64 / batches.max(1) as f64,
    );
    report.layer("wallclock.max_queue_depth", stats.max_queue_depth as f64);
    report.layer("wallclock.steals", stats.steals as f64);
    let most = stats.served_per_worker.iter().copied().max().unwrap_or(0);
    let all: usize = stats.served_per_worker.iter().sum();
    report.layer(
        "wallclock.worker_imbalance",
        (most * stats.served_per_worker.len()) as f64 / all.max(1) as f64,
    );
    report.layer("wallclock.shed_pct", pct(stats.shed));
    report.layer("wallclock.expired_pct", pct(stats.expired));
    report.layer("runtime.switches", stats.switches as f64);
    let served_batches: usize = stats.time_in_bits.iter().map(|&(_, n)| n).sum();
    for &(bits, n) in &stats.time_in_bits {
        report.layer(
            format!("runtime.time_in_bits.w{bits}"),
            100.0 * n as f64 / served_batches.max(1) as f64,
        );
    }
    report.layer("degrade.events", stats.degrade_events as f64);
    report.layer("degrade.completed_degraded_pct", pct(stats.degraded));
    report.layer("batchctl.events", stats.batch_limit_events as f64);
}

/// One open-loop phase: serve the schedule, score it, record its spans.
fn open_loop_phase<'a>(
    ctx: &mut Ctx,
    fx: &'a Fixture,
    spec: &ServeSpec,
    schedule: &'a Schedule,
    name: &str,
    limit_us: u64,
) -> Result<(Phase, OpenLoop<'a>, PhaseWindows), String> {
    let arrivals = &schedule.arrivals;
    let end_us = schedule.params.duration_us;
    let mut gen = OpenLoop::new(arrivals, end_us, ctx.tracing());
    let start_us = ctx.clock.now_us();
    let (stats, outcomes) =
        sut::with_kernel_threads(1, || sut::serve(&fx.model, spec, &fx.inputs, &mut gen))?;
    let windows = windows_of(end_us);
    let cpu_end = cpu_ms()?;
    gen.cpu_ms_at.resize(windows + 1, cpu_end);
    let finish_us = ctx.clock.now_us();
    let due = |id: usize| arrivals[id].due_us;
    let scored = score(fx, &stats, &outcomes, &due, arrivals.len(), limit_us);
    let span = ctx.tracer.span(
        None,
        name,
        start_us,
        finish_us,
        format!("\"sent\":{},\"correct\":{}", arrivals.len(), scored.correct),
    );
    request_spans(&mut ctx.tracer, span, start_us, &outcomes, &due, Some(&gen));

    // Per-window readings, by the window a request was due in. The machine
    // changes speed several times within a window, so a latency is divided
    // by the slowdown of the request's own interval, and only the CPU time,
    // which is read per window, by the window's.
    let latencies: Vec<(u64, f64)> = scored
        .latencies()
        .into_iter()
        .map(|(due, ms)| {
            let from = start_us + due;
            (due, ms / ctx.clock.slowdown(from, from + (ms * 1e3) as u64))
        })
        .collect();
    let buckets = into_windows(&latencies, windows, end_us);
    let per_window = PhaseWindows {
        p50: window_percentiles(&buckets, WINDOW_MIN_SAMPLES, 50.0),
        p90: window_percentiles(&buckets, WINDOW_MIN_SAMPLES, 90.0),
        cpu_ms_per_req: buckets
            .iter()
            .enumerate()
            .map(|(w, correct)| {
                (correct.len() >= WINDOW_MIN_SAMPLES).then(|| {
                    let from = start_us + w as u64 * gen.window_us;
                    (gen.cpu_ms_at[w + 1] - gen.cpu_ms_at[w])
                        / correct.len() as f64
                        / ctx.clock.slowdown(from, from + gen.window_us)
                })
            })
            .collect(),
        end_us,
    };
    let harness_us = gen.awake_us as f64 + ctx.clock.sampler_busy_us(start_us, finish_us);
    let phase = Phase {
        stats,
        outcomes,
        cpu_ms_per_req: median_of_windows(&per_window.cpu_ms_per_req),
        harness_us_per_req: harness_us
            / ctx.clock.slowdown(start_us, finish_us)
            / scored.correct.max(1) as f64,
        scored,
        span,
    };
    Ok((phase, gen, per_window))
}

/// Per-window readings of an open-loop phase; a window with too few
/// samples has none.
struct PhaseWindows {
    p50: Vec<Option<f64>>,
    p90: Vec<Option<f64>>,
    cpu_ms_per_req: Vec<Option<f64>>,
    end_us: u64,
}

/// The end-to-end metrics of an open-loop phase.
fn open_loop_end_to_end(report: &mut Report, phase: &Phase, w: &PhaseWindows) {
    let e = &mut report.end_to_end;
    let sent = phase.scored.samples.len();
    let ok = phase.scored.samples.iter().filter(|s| s.ok).count();
    e.insert("lat_p50_ms", calm_quartile_of_windows(&w.p50));
    e.insert("lat_p90_ms", calm_quartile_of_windows(&w.p90));
    e.insert("slo_ok_pct", 100.0 * ok as f64 / sent.max(1) as f64);
    e.insert(
        "throughput_rps",
        phase.scored.correct as f64 / (w.end_us as f64 / 1e6),
    );
    e.insert("cpu_ms_per_req", phase.cpu_ms_per_req);
}

/// Whole-run tails and generator lateness of one open-loop phase. The
/// tails are informational: on a shared machine they move with its stalls.
fn open_loop_layer_metrics(
    report: &mut Report,
    name: &str,
    phase: &Phase,
    gen: &OpenLoop,
    w: &PhaseWindows,
) {
    let lat = sorted(phase.scored.latencies().iter().map(|&(_, ms)| ms).collect());
    let late: Vec<u64> = gen
        .submit_start_us
        .iter()
        .zip(gen.arrivals)
        .map(|(&t, a)| t.saturating_sub(a.due_us))
        .collect();
    let mut late_sorted = late.clone();
    late_sorted.sort_unstable();
    let late_p50 = percentile(&late_sorted, 50.0).unwrap_or(0);
    let late_p99 = percentile(&late_sorted, 99.0).unwrap_or(0);
    let mut late_windows = vec![false; w.p50.len()];
    for (l, a) in late.iter().zip(gen.arrivals) {
        if *l > LATE_US {
            if let Some(spoiled) = late_windows.get_mut((a.due_us / gen.window_us) as usize) {
                *spoiled = true;
            }
        }
    }
    let spoiled = late_windows.iter().filter(|&&s| s).count();
    let p99 = percentile(&lat, 99.0).unwrap_or(0.0);
    let p999 = percentile(&lat, 99.9).unwrap_or(0.0);
    report.notes.push(format!(
        "{name}: sent {}, correct {}; generator lateness p50 {late_p50} us, p99 {late_p99} us, {spoiled} of {} windows had an arrival over {LATE_US} us late; whole-run p99 {p99:.3} ms, p99.9 {p999:.3} ms over {} samples",
        phase.scored.samples.len(),
        phase.scored.correct,
        late_windows.len(),
        lat.len()
    ));
    let row = |v: &[Option<f64>]| {
        v.iter()
            .map(|r| r.map_or("-".into(), |ms| format!("{ms:.3}")))
            .collect::<Vec<String>>()
            .join(" ")
    };
    report
        .notes
        .push(format!("{name}: p50 per window, ms: {}", row(&w.p50)));
    report
        .notes
        .push(format!("{name}: p90 per window, ms: {}", row(&w.p90)));
    if name != "gated" {
        return;
    }
    report.layer("wallclock.lat_p99_ms", p99);
    report.layer("wallclock.lat_p999_ms", p999);
    report.layer("wallclock.lat_samples", lat.len() as f64);
    report.layer("wallclock.gen_late_us.p50", late_p50 as f64);
    report.layer("wallclock.gen_late_us.p99", late_p99 as f64);
    report.layer("wallclock.late_windows", spoiled as f64);
    report.layer("bench.harness_us_per_req", phase.harness_us_per_req);
    let mut sojourn: Vec<u64> = phase
        .outcomes
        .iter()
        .filter_map(|o| o.served_us.map(|t| t.saturating_sub(o.arrived_us)))
        .collect();
    sojourn.sort_unstable();
    report.layer(
        "wallclock.sojourn_us.p50",
        percentile(&sojourn, 50.0).unwrap_or(0) as f64,
    );
    if gen.time_submits {
        let mut submit: Vec<u64> = gen
            .submit_end_us
            .iter()
            .zip(&gen.submit_start_us)
            .map(|(e, s)| e.saturating_sub(*s))
            .collect();
        submit.sort_unstable();
        for (name, p) in [
            ("wallclock.submit_us.p50", 50.0),
            ("wallclock.submit_us.p99", 99.0),
        ] {
            report.layer(name, percentile(&submit, p).unwrap_or(0) as f64);
        }
    }
}

// ---------------------------------------------------------------------------
// steady_mbv2_w4
// ---------------------------------------------------------------------------

fn steady_params(seed: u64, seconds: f64) -> Params {
    Params {
        seed,
        duration_us: (seconds * 1e6) as u64,
        rate_rps: R_STEADY_RPS,
        burst_every_us: 0,
        burst_len_us: 0,
        burst_mult: 1.0,
        deadline_us: 0,
        inputs: INPUTS,
        burst_count: 0,
    }
}

/// A report with the single 4-bit point and nothing switched on.
fn single_point_spec(workers: usize, max_batch: usize, sharded_stealing: bool) -> ServeSpec {
    ServeSpec {
        workers,
        max_batch,
        sharded_stealing,
        queue_capacity: None,
        deadline_us: None,
        degradation: None,
        batch_target_us: None,
        step_us: 1000,
        budgets: vec![15.0],
        points: vec![Point {
            bits: 4,
            accuracy: 0.6,
            energy_pj: 10.0,
        }],
        point_latency_s: 1e-3,
    }
}

fn steady(ctx: &mut Ctx) -> Result<Report, String> {
    let (seed, seconds) = (ctx.seed, ctx.seconds);
    let (fx, setup_s) = timed_setup(&ctx.clock, || {
        fixture(
            Model::mbv2(),
            seed,
            Schedule::generate(steady_params(seed, seconds)),
        )
    });
    let mut report = Report::default();
    report.end_to_end.insert("setup_s", setup_s);
    let spec = single_point_spec(open_loop_workers(), 8, false);

    let (gated, gen, windows) =
        open_loop_phase(ctx, &fx, &spec, &fx.schedule, "gated", SLO_LIMIT_US)?;
    report.count(&gated.scored);
    open_loop_end_to_end(&mut report, &gated, &windows);
    loop_layer_metrics(&mut report, &gated.stats, gated.scored.samples.len());
    open_loop_layer_metrics(&mut report, "gated", &gated, &gen, &windows);
    if !ctx.tracing() {
        return Ok(report);
    }

    // Ungated pressure phase at twice the rate, a quarter as long: at 60 %
    // utilisation the median moved 2.5x between identical runs when this
    // benchmark was sized, so it informs and never gates.
    let pressure = Schedule::generate(Params {
        seed: seed ^ 0x9E55,
        duration_us: fx.schedule.params.duration_us / 4,
        rate_rps: 2.0 * R_STEADY_RPS,
        ..steady_params(seed, seconds)
    });
    let (hi, hi_gen, hi_windows) =
        open_loop_phase(ctx, &fx, &spec, &pressure, "pressure", SLO_LIMIT_US)?;
    report.count(&hi.scored);
    report.layer(
        "wallclock.lat_p50_ms_hi",
        calm_quartile_of_windows(&hi_windows.p50),
    );
    open_loop_layer_metrics(&mut report, "pressure", &hi, &hi_gen, &hi_windows);

    let overhead_us = open_loop_overhead_us(ctx, &fx, &gated);
    infer_probes(
        ctx,
        &mut report,
        &fx,
        &gated.stats,
        gated.span,
        spec.max_batch,
        "mbv2",
        overhead_us,
    );
    let lat_us = report.end_to_end["lat_p50_ms"] * 1e3;
    let forward_us = report.per_layer["infer.forward_us.mbv2.b1.w4"];
    report.notes.push(format!(
        "infer.forward_us.mbv2.b1.w4 is {:.1}% of lat_p50_ms ({forward_us:.0} of {lat_us:.0} us); wallclock.overhead_us_per_req is {:.1}% of the CPU a request costs",
        100.0 * forward_us / lat_us,
        overhead_share(&report, gated.system_us_per_req())
    ));
    Ok(report)
}

// ---------------------------------------------------------------------------
// burst_drain_cnn
// ---------------------------------------------------------------------------

fn burst_params(seed: u64) -> Params {
    Params {
        seed,
        duration_us: 0,
        rate_rps: 0.0,
        burst_every_us: 0,
        burst_len_us: 0,
        burst_mult: 1.0,
        deadline_us: 0,
        inputs: INPUTS,
        burst_count: BURST_REQUESTS,
    }
}

/// Submits the whole burst at t=0 and returns.
struct BurstGen<'a>(&'a [Arrival]);

impl Generator for BurstGen<'_> {
    fn run(&mut self, sink: &dyn Sink) {
        for a in self.0 {
            sink.submit(a.input);
        }
    }
}

fn burst(ctx: &mut Ctx) -> Result<Report, String> {
    let seed = ctx.seed;
    let mut report = Report::default();
    // The producer submits the whole burst and returns, so no core needs
    // to be left free for it.
    let spec = single_point_spec(sut::cores(), 16, true);
    let due = |_: usize| 0u64;
    // A burst that has not drained in a second has stalled.
    let limit_us = 1_000_000;

    // One reading per burst; each metric is the median over bursts. That
    // goes for the set-up too: it takes 2 ms, a hundred in a row at the
    // start sit in whatever mode the machine is in for that fifth of a
    // second (their median moved 1.7x between runs), and one before every
    // burst is spread over the run as the bursts are.
    let (mut p50, mut p90, mut rps, mut cpu) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut setups = Vec::new();
    let (mut sent, mut ok) = (0usize, 0usize);
    let mut last = None;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < ctx.seconds {
        let (fx, setup_s) = ctx
            .clock
            .time(|| fixture(Model::cnn(), seed, Schedule::generate(burst_params(seed))));
        setups.push(setup_s);
        let arrivals = &fx.schedule.arrivals;
        let start_us = ctx.clock.now_us();
        let cpu0 = cpu_ms()?;
        let (stats, outcomes) = sut::serve(&fx.model, &spec, &fx.inputs, &mut BurstGen(arrivals))?;
        let cpu_ms_used = cpu_ms()? - cpu0;
        let end_us = ctx.clock.now_us();
        let scored = score(&fx, &stats, &outcomes, &due, arrivals.len(), limit_us);
        report.count(&scored);
        let slowdown = ctx.clock.slowdown(start_us, end_us);
        let lat = sorted(scored.latencies().iter().map(|&(_, ms)| ms).collect());
        // A latency runs from the burst's start, so it is divided by the
        // slowdown of that stretch of the burst.
        let at = |p: f64| {
            let ms = percentile(&lat, p).unwrap_or(0.0);
            ms / ctx.clock.slowdown(start_us, start_us + (ms * 1e3) as u64)
        };
        p50.push(at(50.0));
        p90.push(at(90.0));
        rps.push(scored.correct as f64 / (stats.elapsed_us as f64 / 1e6) * slowdown);
        cpu.push(cpu_ms_used / scored.correct.max(1) as f64 / slowdown);
        sent += scored.samples.len();
        ok += scored.samples.iter().filter(|s| s.ok).count();
        let span = ctx.tracer.span(
            None,
            "burst",
            start_us,
            end_us,
            format!(
                "\"burst\":{},\"correct\":{},\"elapsed_us\":{}",
                rps.len() - 1,
                scored.correct,
                stats.elapsed_us
            ),
        );
        request_spans(&mut ctx.tracer, span, start_us, &outcomes, &due, None);
        last = Some((fx, stats, span));
    }
    // Every burst drains the same schedule, so the last stands for all.
    let (fx, last_stats, last_span) = last.ok_or("no burst ran: --seconds must be positive")?;
    let cpu_ms_per_req = median(&cpu);
    report.end_to_end.insert("setup_s", median(&setups));
    let e = &mut report.end_to_end;
    e.insert("lat_p50_ms", median(&p50));
    e.insert("lat_p90_ms", median(&p90));
    e.insert("slo_ok_pct", 100.0 * ok as f64 / sent.max(1) as f64);
    e.insert("throughput_rps", median(&rps));
    e.insert("cpu_ms_per_req", cpu_ms_per_req);
    report
        .notes
        .push(format!("{} bursts of {BURST_REQUESTS} requests", rps.len()));
    loop_layer_metrics(&mut report, &last_stats, BURST_REQUESTS);
    if !ctx.tracing() {
        return Ok(report);
    }

    // The loop's self time, from pairs of a burst and the replay of its
    // batches on as many threads as the loop had workers, one right after
    // the other so that both sit in the same mode of the machine: no worker
    // of a closed burst ever waits, so the workers' wall time is the loop's
    // cost, and what the replay leaves of it is the loop's own.
    let mut overheads = Vec::with_capacity(REPLAY_PAIRS);
    for _ in 0..REPLAY_PAIRS {
        let arrivals = &fx.schedule.arrivals;
        let start_us = ctx.clock.now_us();
        let (stats, outcomes) = sut::serve(&fx.model, &spec, &fx.inputs, &mut BurstGen(arrivals))?;
        let slowdown = ctx.clock.slowdown(start_us, ctx.clock.now_us());
        let scored = score(&fx, &stats, &outcomes, &due, arrivals.len(), limit_us);
        report.count(&scored);
        let loop_us =
            spec.workers as f64 * stats.elapsed_us as f64 / slowdown / scored.correct.max(1) as f64;
        overheads.push(loop_us - replay_us_per_req(&ctx.clock, &fx, &stats, spec.workers));
    }
    infer_probes(
        ctx,
        &mut report,
        &fx,
        &last_stats,
        last_span,
        spec.max_batch,
        "cnn",
        median(&overheads),
    );
    sim_probes(ctx, &mut report, &fx, last_span);
    report.notes.push(format!(
        "wallclock.overhead_us_per_req is {:.1}% of the CPU a request costs on burst_drain_cnn",
        overhead_share(&report, cpu_ms_per_req * 1e3)
    ));
    Ok(report)
}

/// The three simulated drivers on one burst of the cheap CNN, so their
/// collapse into one loop has before/after numbers.
fn sim_probes(ctx: &mut Ctx, report: &mut Report, fx: &Fixture, parent: Option<SpanId>) {
    const REQUESTS: usize = 2048;
    const MAX_BATCH: usize = 16;
    // Four distinct inputs across the burst: a duplicate-heavy trace.
    let few = &fx.inputs[..4];
    type Driver = fn(&Model, &[Input], usize, usize) -> sut::SimRun;
    let drivers: [(&str, Driver); 3] = [
        ("runtime.sim_us_per_req", sut::sim_batched),
        ("resilience.sim_us_per_req", sut::sim_resilient),
        ("sharding.sim_us_per_req", sut::sim_sharded),
    ];
    for (name, driver) in drivers {
        let start_us = ctx.clock.now_us();
        let mut run = None;
        let us = probe_us(&ctx.clock, || {
            run = Some(driver(&fx.model, few, REQUESTS, MAX_BATCH));
        });
        let run = run.expect("probe_us calls its closure");
        ctx.tracer.span(
            parent,
            name,
            start_us,
            ctx.clock.now_us(),
            format!("\"median_us\":{us},\"served\":{}", run.served),
        );
        report.layer(name, us / run.served.max(1) as f64);
        report.attempted += REQUESTS as u64;
        report.failed += REQUESTS.saturating_sub(run.served) as u64;
        let lookups = run.cache_hits + run.cache_misses;
        if lookups > 0 {
            report.layer(
                "sharding.cache_hit_pct",
                100.0 * run.cache_hits as f64 / lookups as f64,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// energy_swing_bursty
// ---------------------------------------------------------------------------

/// The energy budget completes this many periods per run, and the load
/// bursts once per period. Five, so that a period of the benchmark's own
/// 25 s run is a whole number of one-second windows: every period then
/// cuts into the same five window positions, each with its own width mix,
/// and the quartile over windows falls inside a group of five like windows
/// instead of wherever the periods happened to meet the window grid.
const SWING_PERIODS: u64 = 5;

fn swing_params(seed: u64, seconds: f64) -> Params {
    let duration_us = (seconds * 1e6) as u64;
    // One burst per period, for a 25th of it: a minority of the windows
    // holds a burst, so `lat_p90_ms` (a median over windows) is the tail of
    // calm operation, which repeats; what a burst does to the tail depends
    // on the arrivals it happened to draw (window p90 moved 3.6x between
    // seeds when every window held a burst) and shows in `slo_ok_pct` and
    // in the whole-run tails instead.
    let period_us = duration_us / SWING_PERIODS;
    Params {
        seed,
        duration_us,
        rate_rps: R_SWING_RPS,
        burst_every_us: period_us,
        burst_len_us: period_us / 25,
        burst_mult: 3.0,
        deadline_us: SWING_DEADLINE_US,
        inputs: INPUTS,
        burst_count: 0,
    }
}

fn swing(ctx: &mut Ctx) -> Result<Report, String> {
    let (seed, seconds) = (ctx.seed, ctx.seconds);
    let (fx, setup_s) = timed_setup(&ctx.clock, || {
        fixture(
            Model::mbv2(),
            seed,
            Schedule::generate(swing_params(seed, seconds)),
        )
    });
    let mut report = Report::default();
    report.end_to_end.insert("setup_s", setup_s);
    let end_us = fx.schedule.params.duration_us;
    // Energy rises with the width and so does accuracy, so the greedy
    // policy serves the widest point the budget affords; the sinusoid runs
    // from "only 4-bit fits" to "everything fits".
    let points: Vec<Point> = fx
        .model
        .widths()
        .iter()
        .enumerate()
        .map(|(i, &bits)| Point {
            bits,
            accuracy: 0.60 + 0.05 * i as f32,
            energy_pj: 10.0 * (i + 1) as f64,
        })
        .collect();
    let step_us = 10_000;
    let steps = (end_us / step_us).max(1) as usize;
    let budgets = (0..steps)
        .map(|t| {
            let phase = SWING_PERIODS as f64 * std::f64::consts::TAU * t as f64 / steps as f64;
            12.0 + (55.0 - 12.0) * 0.5 * (1.0 - phase.cos())
        })
        .collect();
    let spec = ServeSpec {
        workers: open_loop_workers(),
        max_batch: 8,
        sharded_stealing: false,
        queue_capacity: Some(256),
        deadline_us: Some(SWING_DEADLINE_US),
        degradation: Some((32, 4, 250_000)),
        batch_target_us: Some(10_000),
        step_us,
        budgets,
        points,
        point_latency_s: 1e-3,
    };
    let (phase, gen, per_window) =
        open_loop_phase(ctx, &fx, &spec, &fx.schedule, "gated", SWING_DEADLINE_US)?;
    report.count(&phase.scored);
    open_loop_end_to_end(&mut report, &phase, &per_window);
    loop_layer_metrics(&mut report, &phase.stats, phase.scored.samples.len());
    open_loop_layer_metrics(&mut report, "gated", &phase, &gen, &per_window);
    report.layer(
        "wallclock.switch_window_ratio",
        switch_window_ratio(&phase, &per_window, gen.window_us),
    );
    if !ctx.tracing() {
        return Ok(report);
    }
    let overhead_us = open_loop_overhead_us(ctx, &fx, &phase);
    infer_probes(
        ctx,
        &mut report,
        &fx,
        &phase.stats,
        phase.span,
        spec.max_batch,
        "mbv2",
        overhead_us,
    );
    op_probes(ctx, &mut report, &fx, phase.span);
    Ok(report)
}

/// Median p50 of the windows in which the served width changed over the
/// median p50 of the windows in which it did not; 1.0 says a switch costs
/// the requests around it nothing.
fn switch_window_ratio(phase: &Phase, w: &PhaseWindows, window_us: u64) -> f64 {
    let mut widths: Vec<Vec<u8>> = vec![Vec::new(); w.p50.len()];
    for (o, s) in phase.outcomes.iter().zip(&phase.scored.samples) {
        if let (Some(b), Some(seen)) = (o.bits, widths.get_mut((s.due_us / window_us) as usize)) {
            if !seen.contains(&b) {
                seen.push(b);
            }
        }
    }
    let (mut with, mut without) = (Vec::new(), Vec::new());
    for (p50, seen) in w.p50.iter().zip(&widths) {
        match p50 {
            Some(v) if seen.len() > 1 => with.push(*v),
            Some(v) => without.push(*v),
            None => {}
        }
    }
    if with.is_empty() || without.is_empty() {
        0.0
    } else {
        median(&with) / median(&without)
    }
}

/// Single-op plans, the scalar twin of the 4-bit forward, and the switch.
fn op_probes(ctx: &mut Ctx, report: &mut Report, fx: &Fixture, parent: Option<SpanId>) {
    let start_us = ctx.clock.now_us();
    let probe = ctx
        .tracer
        .span(parent, "op_probe", start_us, start_us, String::new());
    sut::with_kernel_threads(1, || {
        for (name, mut call) in sut::op_probes() {
            let us = probe_span(ctx, probe, &name, &mut call);
            report.layer(name, us);
        }
        let x = &fx.inputs[0];
        let dispatched = probe_span(ctx, probe, "forward.w4.dispatched", || {
            fx.model.forward_batch(0, x)
        });
        let scalar = probe_span(ctx, probe, "forward.w4.scalar", || {
            fx.model.forward_batch_scalar(0, x)
        });
        report.layer("infer.scalar_ratio.w4", scalar / dispatched);
    });
    // A switch is a pointer swap: a thousand per reading, so that one
    // reading in microseconds is one switch in nanoseconds.
    let mut model = Model::mbv2();
    let widths = model.widths().len();
    let per_thousand_us = probe_span(ctx, probe, "infer.switch_ns", || {
        for i in 0..1000 {
            model.switch_to(i % widths);
        }
    });
    report.layer("infer.switch_ns", per_thousand_us);
    ctx.tracer.extend_to(probe, ctx.clock.now_us());
}

// ---------------------------------------------------------------------------
// generate_deploy
// ---------------------------------------------------------------------------

/// Forwards per width through every freshly deployed model.
const DEPLOY_FORWARDS: usize = 40;

/// Dataset of cycle `cycle`: the run's seed rotates the pool.
fn pool_dataset(seed: u64, cycle: usize) -> u64 {
    DATASET_POOL[(cycle + seed as usize % DATASET_POOL.len()) % DATASET_POOL.len()]
}

/// Largest `|a - b| / (1 + |b|)` over two equally long slices; infinite
/// when the lengths differ.
fn gap(a: &[f32], b: &[f32]) -> f32 {
    if a.len() != b.len() {
        return f32::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs() / (1.0 + y.abs()))
        .fold(0.0, f32::max)
}

/// The readings of one generate -> deploy cycle.
struct Cycle {
    dataset: u64,
    generate_s: f64,
    deploy_s: f64,
    cpu_ms: f64,
    report: String,
}

fn checkpoint_path() -> Result<PathBuf, String> {
    let dir = PathBuf::from("target/e2e_bench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir.join(format!("checkpoint-{}.bin", std::process::id())))
}

/// Kernel threads are pinned to 1, as in the serving workloads. With the
/// two threads of the sizing machine a cycle took a fifth longer and 40 %
/// more CPU than with one, and repeated within 25 % instead of 5 %; what
/// the thread pool does to a cycle is `parallel.generate_speedup`.
fn generate_deploy(ctx: &mut Ctx) -> Result<Report, String> {
    sut::with_kernel_threads(1, || generate_deploy_pinned(ctx))
}

fn generate_deploy_pinned(ctx: &mut Ctx) -> Result<Report, String> {
    let seed = ctx.seed;
    // Set-up: the pipeline, the pool's datasets, the seeded check inputs,
    // and one warm-up pass through the thread pool and allocator on the
    // tensor kernels training and serving share.
    let ((pipe, pool, samples), setup_s) = timed_setup(&ctx.clock, || {
        let pipe = PipelineSut::new(1);
        let pool: Vec<Data> = DATASET_POOL.iter().map(|&d| Data::generate(d)).collect();
        let samples = input_samples(seed, DEPLOY_FORWARDS, pool[0].sample_len());
        for (_, mut call) in sut::shared_crate_probes() {
            for _ in 0..50 {
                call();
            }
        }
        (pipe, pool, samples)
    });
    let mut report = Report::default();
    report.end_to_end.insert("setup_s", setup_s);
    let path = checkpoint_path()?;
    let bits = pipe.widths();
    let widths = bits.len();

    // Cycles go round the pool until the time is up, and always far enough
    // to repeat the first dataset: one dataset must give one report.
    let mut cycles: Vec<Cycle> = Vec::new();
    let (mut forwards, mut forwards_ok) = (0usize, 0usize);
    let started = Instant::now();
    let mut longest_s = 0.0f64;
    while cycles.len() <= DATASET_POOL.len()
        || started.elapsed().as_secs_f64() + longest_s < ctx.seconds
    {
        let dataset = pool_dataset(seed, cycles.len());
        let data = &pool[DATASET_POOL
            .iter()
            .position(|&d| d == dataset)
            .expect("pool datasets come from the pool")];
        let start_us = ctx.clock.now_us();
        let cpu0 = cpu_ms()?;
        let (generated, generate_s) = ctx.clock.time(|| pipe.generate(data));
        let mid_us = ctx.clock.now_us();
        let (deployment, deploy_s) = ctx.clock.time(|| -> Result<_, String> {
            let deploy_report = pipe.deploy_report(data, &generated);
            pipe.save(&generated, &path)?;
            let deployed = pipe.publish(&generated, data, &path)?;
            let mut outputs = Vec::with_capacity(widths * samples.len());
            let mut forward_ms = Vec::with_capacity(widths * samples.len());
            for w in 0..widths {
                for s in &samples {
                    let t = Instant::now();
                    outputs.push(deployed.forward(w, s));
                    forward_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
            }
            Ok((deploy_report, deployed, outputs, forward_ms))
        });
        let (deploy_report, deployed, outputs, forward_ms) = deployment?;
        let cpu_ms_used = cpu_ms()? - cpu0;
        let end_us = ctx.clock.now_us();
        longest_s = longest_s.max((end_us - start_us) as f64 / 1e6);

        // Oracle, outside the timers: the packed forward of the restored,
        // published model against the fake-quant forward of the network
        // that was trained.
        let mut served = outputs.iter().zip(&forward_ms);
        for (w, &width_bits) in bits.iter().enumerate() {
            for s in &samples {
                let (out, ms) = served.next().expect("one output per forward");
                let want = generated.forward_fake_quant(w, s);
                let right = gap(out.data(), want.data()) <= fake_quant_tolerance(width_bits);
                forwards += 1;
                forwards_ok += usize::from(right && *ms * 1e3 <= SLO_LIMIT_US as f64);
                report.attempted += 1;
                report.failed += u64::from(!right);
            }
        }
        // The registry was seeded with generation 1; the hot publish is 2.
        report.attempted += 1;
        report.failed += u64::from(deployed.generation != 2);

        let span = ctx.tracer.span(
            None,
            "cycle",
            start_us,
            end_us,
            format!(
                "\"cycle\":{},\"dataset\":{dataset},\"arch\":\"{}\"",
                cycles.len(),
                generated.arch
            ),
        );
        ctx.tracer
            .span(span, "generate", start_us, mid_us, String::new());
        ctx.tracer
            .span(span, "deploy", mid_us, end_us, String::new());
        if ctx.tracing() && cycles.is_empty() {
            stage_probes(
                ctx,
                &mut report,
                &pipe,
                data,
                (&generated, generate_s),
                &deployed,
                &path,
                span,
            )?;
        }
        let slowdown = ctx.clock.slowdown(start_us, end_us);
        report.notes.push(format!(
            "cycle {} dataset {dataset}: generate {generate_s:.3} s, deploy {deploy_s:.4} s, cpu {:.0} ms, machine slowdown {slowdown:.3}",
            cycles.len(),
            cpu_ms_used / slowdown
        ));
        cycles.push(Cycle {
            dataset,
            generate_s,
            deploy_s,
            cpu_ms: cpu_ms_used / slowdown,
            report: deploy_report,
        });
    }
    let _ = std::fs::remove_file(&path);

    // Every repeat of a dataset must give the report its first cycle gave.
    let mut differing = 0;
    for (i, c) in cycles.iter().enumerate() {
        if let Some(first) = cycles[..i].iter().find(|f| f.dataset == c.dataset) {
            report.attempted += 1;
            differing += u64::from(first.report != c.report);
        }
    }
    report.failed += differing;

    // Each dataset's repeats are the same work, so they get the median; the
    // datasets are different work, so they are averaged. A request of this
    // workload is one cycle: its p50 latency is the average dataset's
    // cycle, its p90 the slowest dataset's.
    let of_dataset = |d: u64, f: &dyn Fn(&Cycle) -> f64| {
        median(
            &cycles
                .iter()
                .filter(|c| c.dataset == d)
                .map(f)
                .collect::<Vec<_>>(),
        )
    };
    let per_dataset = |f: &dyn Fn(&Cycle) -> f64| {
        DATASET_POOL.iter().map(|&d| of_dataset(d, f)).sum::<f64>() / DATASET_POOL.len() as f64
    };
    let cycle_s = |c: &Cycle| c.generate_s + c.deploy_s;
    let slowest_s = DATASET_POOL
        .iter()
        .map(|&d| of_dataset(d, &cycle_s))
        .fold(0.0, f64::max);
    let e = &mut report.end_to_end;
    e.insert("lat_p50_ms", per_dataset(&cycle_s) * 1e3);
    e.insert("lat_p90_ms", slowest_s * 1e3);
    e.insert(
        "slo_ok_pct",
        100.0 * forwards_ok as f64 / forwards.max(1) as f64,
    );
    e.insert("throughput_rps", 1.0 / per_dataset(&cycle_s));
    e.insert("cpu_ms_per_req", per_dataset(&|c| c.cpu_ms));
    report.layer("generate_s", per_dataset(&|c| c.generate_s));
    report.layer("deploy_s", per_dataset(&|c| c.deploy_s));
    report.notes.push(format!(
        "{} generate->deploy cycles over {} datasets; a request of this workload is one cycle; {} repeated dataset(s) gave a different report",
        cycles.len(),
        DATASET_POOL.len(),
        differing
    ));
    Ok(report)
}

/// The per-stage probes of the traced `generate_deploy` run, on the first
/// cycle's dataset and network.
#[allow(clippy::too_many_arguments)]
fn stage_probes(
    ctx: &mut Ctx,
    report: &mut Report,
    pipe: &PipelineSut,
    data: &Data,
    (generated, generate_s): (&sut::Generated, f64),
    deployed: &sut::Deployed,
    path: &Path,
    parent: Option<SpanId>,
) -> Result<(), String> {
    let start_us = ctx.clock.now_us();
    let probe = ctx
        .tracer
        .span(parent, "layer_probe", start_us, start_us, String::new());

    // The cycle's generation again with every kernel thread the machine
    // offers, against the pinned one the cycle just ran.
    let ambient = PipelineSut::new(0);
    let (_, ambient_s) = ctx
        .clock
        .time(|| sut::with_kernel_threads(0, || ambient.generate(data)));
    ctx.tracer.span(
        probe,
        "parallel.generate_speedup",
        start_us,
        ctx.clock.now_us(),
        format!("\"pinned_s\":{generate_s},\"ambient_s\":{ambient_s}"),
    );
    report.layer("parallel.generate_speedup", generate_s / ambient_s);

    let dataset = DATASET_POOL[0];
    let us = probe_span(ctx, probe, "data.generate_ms", || {
        std::hint::black_box(Data::generate(dataset));
    });
    report.layer("data.generate_ms", us / 1e3);

    let t = ctx.clock.now_us();
    let (search_s, cdt_s) = pipe.generate_staged(data);
    let search_end = t + (search_s * 1e6) as u64;
    let search_s = search_s / ctx.clock.slowdown(t, search_end);
    let cdt_s = cdt_s / ctx.clock.slowdown(search_end, ctx.clock.now_us());
    ctx.tracer.span(
        probe,
        "nas.search+train.cdt",
        t,
        ctx.clock.now_us(),
        format!("\"search_s\":{search_s},\"cdt_s\":{cdt_s}"),
    );
    report.layer("nas.search_s", search_s);
    report.layer("train.cdt_s", cdt_s);
    report.layer(
        "train.step_ms",
        cdt_s * 1e3 / pipe.cdt_steps(data).max(1) as f64,
    );

    let us = probe_span(ctx, probe, "train.evaluate_ms", || {
        std::hint::black_box(pipe.evaluate(data, generated, 0));
    });
    report.layer("train.evaluate_ms", us / 1e3);
    let us = probe_span(ctx, probe, "automapper.map_network_ms", || {
        pipe.map_network(generated, 0);
    });
    report.layer("automapper.map_network_ms", us / 1e3);
    report.layer(
        "automapper.evals_per_s",
        pipe.mapper_evals(generated) as f64 / (us / 1e6),
    );

    // The fallible calls keep their first error for after the timing.
    let mut failure: Option<String> = None;
    let mut keep = |r: Result<(), String>| {
        if let Err(e) = r {
            failure.get_or_insert(e);
        }
    };
    let mut bytes = 0;
    let us = probe_span(ctx, probe, "checkpoint.save_ms", || {
        keep(pipe.save(generated, path).map(|n| bytes = n));
    });
    report.layer("checkpoint.save_ms", us / 1e3);
    report.layer("checkpoint.bytes", bytes as f64);
    let us = probe_span(ctx, probe, "checkpoint.load_ms", || {
        keep(pipe.load(generated, data, path));
    });
    report.layer("checkpoint.load_ms", us / 1e3);
    let us = probe_span(ctx, probe, "registry.publish_checkpoint_ms", || {
        keep(pipe.publish(generated, data, path).map(drop));
    });
    report.layer("registry.publish_checkpoint_ms", us / 1e3);
    // A publish is a lock and a pointer swap: a thousand per reading, so
    // that one reading in microseconds is one publish in nanoseconds.
    let per_thousand_us = probe_span(ctx, probe, "registry.publish_ns", || {
        for _ in 0..1000 {
            keep(deployed.republish().map(drop));
        }
    });
    report.layer("registry.publish_ns", per_thousand_us);
    if let Some(e) = failure {
        return Err(e);
    }

    for (name, mut call) in sut::shared_crate_probes() {
        let us = probe_span(ctx, probe, &name, &mut call);
        report.layer(name, us);
    }
    // One evaluation is a fraction of a microsecond: a thousand per
    // reading, so that one reading in microseconds is one in nanoseconds.
    let (name, mut call) = sut::cost_eval_probe();
    let per_thousand_us = probe_span(ctx, probe, &name, || {
        for _ in 0..1000 {
            call();
        }
    });
    report.layer(name, per_thousand_us);
    ctx.tracer.extend_to(probe, ctx.clock.now_us());
    Ok(())
}
