//! The benchmark's contract in one place: workload names and reasons,
//! metric names, units, directions and regression bounds, and the load
//! constants calibrated once on the seed commit and then frozen.
//! `BENCHMARK.json` at the repository root is this file rendered as JSON
//! (`--emit-benchmark-json`); a unit test keeps the two identical.

use std::fmt::Write as _;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 25;

pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "e2e_bench/Cargo.toml",
    "--",
];

pub const PATHS: &[&str] = &["e2e_bench"];

// Frozen load constants. A rate derived from the code under test would hand
// a faster build more load, so these are numbers, not measurements.

/// `steady_mbv2_w4` Poisson rate: about 30 % of what one worker sustained
/// at 4-bit batch 1 on the seed commit (0.87 ms per forward).
pub const R_STEADY_RPS: f64 = 300.0;
/// `energy_swing_bursty` base rate: about 25 % of the slowest width's
/// one-worker capacity on the seed commit.
pub const R_SWING_RPS: f64 = 250.0;
/// Requests per `burst_drain_cnn` burst.
pub const BURST_REQUESTS: usize = 16_384;
/// Latency limit of `slo_ok_pct` where the workload sets no deadline.
pub const SLO_LIMIT_US: u64 = 20_000;
/// Deadline (and SLO limit) of `energy_swing_bursty`.
pub const SWING_DEADLINE_US: u64 = 100_000;
/// Dataset seeds `generate_deploy` cycles through. What a cycle costs
/// depends on the architecture the search derives from the data (CDT on the
/// derived network took 0.3 s to 1.1 s across 24 seeded datasets), so every
/// run does the same cycles and the run's seed only rotates their order and
/// draws the inputs the deployed models are checked on.
pub const DATASET_POOL: &[u64] = &[1, 2];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "steady_mbv2_w4",
        why: "Open-loop Poisson at 30% of one worker's capacity, 4-bit only: batches are size 1, so latency is one packed forward and the queue does almost nothing",
    },
    Workload {
        name: "burst_drain_cnn",
        why: "Closed 16384-request bursts on a cheap CNN, all workers, sharded queues, batches of 16: throughput of the batched kernel and the queue path, where steady is the latency of one batch-1 forward",
    },
    Workload {
        name: "energy_swing_bursty",
        why: "Open-loop bursty load while a sinusoidal energy budget walks all five widths with deadline, bounded queue, degradation and batch control on: every option and kernel steady leaves off",
    },
    Workload {
        name: "generate_deploy",
        why: "No serving loop: SP-NAS, CDT, per-width eval, AutoMapper, checkpoint, restore, publish on seeded datasets, so a shared-crate change that slows generation shows here and nowhere else",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "lat_p90_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "slo_ok_pct",
        unit: "%",
        better: "higher",
        bound: 0.05,
    },
    EndToEnd {
        name: "throughput_rps",
        unit: "1/s",
        better: "higher",
        bound: 0.2,
    },
    EndToEnd {
        name: "cpu_ms_per_req",
        unit: "ms",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.2,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn pl(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: &[PerLayer] = &[
    // infer: whole forwards at the batch sizes and widths the loop used.
    pl("infer.forward_us.mbv2.b1.w4", "us", "lower"),
    pl("infer.forward_us.mbv2.b1.w8", "us", "lower"),
    pl("infer.forward_us.mbv2.b1.w12", "us", "lower"),
    pl("infer.forward_us.mbv2.b1.w16", "us", "lower"),
    pl("infer.forward_us.mbv2.b1.w32", "us", "lower"),
    pl("infer.forward_us.mbv2.b8.w4", "us", "lower"),
    pl("infer.forward_us.cnn.b1.w4", "us", "lower"),
    pl("infer.forward_us.cnn.b16.w4", "us", "lower"),
    // infer: single-op plans at MobileNetV2 block shapes.
    pl("infer.op_us.linear.w4", "us", "lower"),
    pl("infer.op_us.linear.w8", "us", "lower"),
    pl("infer.op_us.linear.w16", "us", "lower"),
    pl("infer.op_us.conv3x3.w4", "us", "lower"),
    pl("infer.op_us.conv3x3.w8", "us", "lower"),
    pl("infer.op_us.conv3x3.w16", "us", "lower"),
    pl("infer.op_us.pointwise.w4", "us", "lower"),
    pl("infer.op_us.pointwise.w8", "us", "lower"),
    pl("infer.op_us.pointwise.w16", "us", "lower"),
    pl("infer.op_us.depthwise.w4", "us", "lower"),
    pl("infer.op_us.depthwise.w8", "us", "lower"),
    pl("infer.op_us.depthwise.w16", "us", "lower"),
    pl("infer.scalar_ratio.w4", "ratio", "higher"),
    pl("infer.prepack_ms", "ms", "lower"),
    pl("infer.packed_bytes", "bytes", "lower"),
    pl("infer.switch_ns", "ns", "lower"),
    // wallclock (and its private engine).
    pl("wallclock.submit_us.p50", "us", "lower"),
    pl("wallclock.submit_us.p99", "us", "lower"),
    pl("wallclock.sojourn_us.p50", "us", "lower"),
    pl("wallclock.batch_mean", "count", "higher"),
    pl("wallclock.max_queue_depth", "count", "lower"),
    pl("wallclock.steals", "count", "lower"),
    pl("wallclock.worker_imbalance", "ratio", "lower"),
    pl("wallclock.overhead_us_per_req", "us", "lower"),
    pl("wallclock.lat_p99_ms", "ms", "lower"),
    pl("wallclock.lat_p999_ms", "ms", "lower"),
    pl("wallclock.lat_samples", "count", "higher"),
    pl("wallclock.lat_p50_ms_hi", "ms", "lower"),
    pl("wallclock.gen_late_us.p50", "us", "lower"),
    pl("wallclock.gen_late_us.p99", "us", "lower"),
    pl("wallclock.late_windows", "count", "lower"),
    pl("wallclock.switch_window_ratio", "ratio", "lower"),
    pl("wallclock.shed_pct", "%", "lower"),
    pl("wallclock.expired_pct", "%", "lower"),
    // runtime / resilience controls inside the loop.
    pl("runtime.switches", "count", "lower"),
    pl("runtime.time_in_bits.w4", "%", "lower"),
    pl("runtime.time_in_bits.w8", "%", "higher"),
    pl("runtime.time_in_bits.w12", "%", "higher"),
    pl("runtime.time_in_bits.w16", "%", "higher"),
    pl("runtime.time_in_bits.w32", "%", "higher"),
    pl("degrade.events", "count", "lower"),
    pl("degrade.completed_degraded_pct", "%", "lower"),
    pl("batchctl.events", "count", "lower"),
    // simulated drivers.
    pl("runtime.sim_us_per_req", "us", "lower"),
    pl("resilience.sim_us_per_req", "us", "lower"),
    pl("sharding.sim_us_per_req", "us", "lower"),
    pl("sharding.cache_hit_pct", "%", "higher"),
    // registry, nn::checkpoint.
    pl("registry.publish_ns", "ns", "lower"),
    pl("registry.publish_checkpoint_ms", "ms", "lower"),
    pl("checkpoint.save_ms", "ms", "lower"),
    pl("checkpoint.load_ms", "ms", "lower"),
    pl("checkpoint.bytes", "bytes", "lower"),
    // generation and deployment stages.
    pl("generate_s", "s", "lower"),
    pl("deploy_s", "s", "lower"),
    pl("data.generate_ms", "ms", "lower"),
    pl("nas.search_s", "s", "lower"),
    pl("train.cdt_s", "s", "lower"),
    pl("train.step_ms", "ms", "lower"),
    pl("train.evaluate_ms", "ms", "lower"),
    pl("automapper.map_network_ms", "ms", "lower"),
    pl("automapper.evals_per_s", "1/s", "higher"),
    pl("hwmodel.cost_eval_ns", "ns", "lower"),
    pl("parallel.generate_speedup", "ratio", "higher"),
    pl("tensor.conv2d_fwd_us", "us", "lower"),
    pl("tensor.matmul_us", "us", "lower"),
    pl("quant.sbm_quantize_us", "us", "lower"),
    // correctness, and the benchmark's own cost: the CPU per request of its
    // generator and speed sampler (inside `cpu_ms_per_req` on the open-loop
    // workloads) and the trace.
    pl("ops_failed_pct", "%", "lower"),
    pl("bench.harness_us_per_req", "us", "lower"),
    pl("trace.spans", "count", "higher"),
];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"command\": [{}],", quoted(COMMAND));
    let _ = writeln!(out, "  \"paths\": [{}],", quoted(PATHS));
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.better, m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn catalog_respects_the_schema_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(name_ok(name), "bad name {name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_this_catalog() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with `e2e_bench --emit-benchmark-json > BENCHMARK.json`"
        );
    }
}
