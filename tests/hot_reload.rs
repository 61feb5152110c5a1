//! Versioned-registry hot-reload contract.
//!
//! * **Degenerate identity**: a single-version registry with the canary
//!   off is bit-identical to the frozen-model entry points — wall-clock
//!   and sharded — at every `BitWidthSet::large_range()` bit-width and
//!   worker count. Versioning is strictly additive.
//! * **Zero-downtime reload**: a mid-traffic publish of an equivalent
//!   candidate completes the identical request set with zero requests
//!   lost to the swap and request-by-request bit-identical outputs;
//!   `RuntimeStats` records the reload and the per-generation split.
//! * **Corruption rejection**: a bit-flipped checkpoint-v3 candidate
//!   fails with `CheckpointError::Corrupt` at publish time, the stable
//!   version keeps serving untouched, and the refusal is counted.
//! * **Auto-rollback**: a seeded divergent candidate shadow-compares
//!   bit-exactly against stable, rolls back after `max_divergences`, and
//!   the run's outputs stay bit-identical to a never-reloaded run —
//!   shadow traffic is never client-visible.
//! * **Promotion**: an equivalent candidate survives its clean window
//!   and becomes stable (a reload), still bit-identical.
//! * **Conservation** (proptest): arrivals == completed +
//!   completed_degraded + shed + expired + failed + backlog across
//!   reload counts × worker counts × deadlines, no matter where the
//!   swaps land in real time.

use instantnet::registry::{CanaryConfig, ModelRegistry, PublishError};
use instantnet::resilience::RequestStatus;
use instantnet::runtime::{
    EnergyTrace, Policy, RequestTrace, RuntimeStats, ServingConfig, SimulationConfig,
};
use instantnet::sharding::{
    simulate_serving_sharded, simulate_serving_sharded_versioned, ShardConfig, ShardedOutcome,
};
use instantnet::wallclock::{
    serve_wallclock, serve_wallclock_registry, WallclockConfig, WallclockOutcome,
};
use instantnet::{faults::FaultPlan, DeploymentReport, OperatingPoint};
use instantnet_infer::PackedModel;
use instantnet_nn::{checkpoint, models};
use instantnet_quant::{BitWidth, BitWidthSet, Quantizer};
use instantnet_tensor::{init, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// How a publisher thread paces itself: on what the registry shows — a
/// canary decided, an epoch moved — never on the clock. Spins, yielding the
/// core to the serving threads, until `ready()` holds; `false` when the
/// (generous) spin budget runs out first, e.g. because traffic drained
/// before a canary saw enough batches to be decided.
fn wait_until(ready: impl Fn() -> bool) -> bool {
    for _ in 0..200_000 {
        if ready() {
            return true;
        }
        std::thread::yield_now();
    }
    ready()
}

/// Worker counts under test: the CI matrix pins one via
/// `INSTANTNET_WALLCLOCK_WORKERS`; locally the default sweeps three.
fn worker_counts() -> Vec<usize> {
    std::env::var("INSTANTNET_WALLCLOCK_WORKERS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .map_or_else(|| vec![1, 2, 4], |w| vec![w])
}

fn point_for(bits: BitWidth, i: usize) -> OperatingPoint {
    let e = 10.0 * (i + 1) as f64;
    let l = 1e-3 * (i + 1) as f64;
    OperatingPoint {
        bits,
        accuracy: 0.5 + 0.05 * i as f32,
        energy_pj: e,
        latency_s: l,
        edp: e * l,
        fps: 1.0 / l,
    }
}

fn distinct_inputs(rng: &mut StdRng, count: usize, dims: &[usize]) -> Vec<Tensor> {
    (0..count)
        .map(|_| init::uniform(rng, dims, -1.0, 1.0))
        .collect()
}

/// A packed model over `bits` from the standard small CNN at `seed`.
/// Same seed ⇒ bit-identical weights ⇒ bit-identical outputs; the packed
/// tables are still distinct instances (a genuine reload, not a no-op).
fn packed(bits: &BitWidthSet, seed: u64) -> PackedModel {
    let net = models::small_cnn(2, 4, (6, 6), bits.len(), seed);
    PackedModel::prepack(&net, bits, Quantizer::Sbm).unwrap()
}

/// Wall-clock conservation: every request accounted exactly once.
fn assert_conservation(stats: &RuntimeStats, outcomes: &[WallclockOutcome], total: usize) {
    assert_eq!(outcomes.len(), total, "one record per arrival");
    assert_eq!(
        stats.completed
            + stats.completed_degraded
            + stats.shed
            + stats.expired
            + stats.failed
            + stats.backlog,
        total,
        "conservation: every request accounted exactly once"
    );
    let count = |s: RequestStatus| outcomes.iter().filter(|o| o.status == s).count();
    assert_eq!(count(RequestStatus::Completed), stats.completed);
    assert_eq!(count(RequestStatus::Failed), stats.failed);
    assert_eq!(count(RequestStatus::Pending), stats.backlog);
}

fn outputs_bit_identical<A, B>(ctx: &str, a: &[A], b: &[B])
where
    A: OutputRecord,
    B: OutputRecord,
{
    assert_eq!(a.len(), b.len(), "{ctx}: same request set");
    for (id, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.bits_of(), y.bits_of(), "{ctx}: request {id} bits");
        assert_eq!(
            x.output_of().map(Tensor::data),
            y.output_of().map(Tensor::data),
            "{ctx}: request {id} output must be bit-identical"
        );
    }
}

/// The two outcome shapes expose their payloads the same way.
trait OutputRecord {
    fn bits_of(&self) -> Option<u8>;
    fn output_of(&self) -> Option<&Tensor>;
}
impl OutputRecord for WallclockOutcome {
    fn bits_of(&self) -> Option<u8> {
        self.bits
    }
    fn output_of(&self) -> Option<&Tensor> {
        self.output.as_ref()
    }
}
impl OutputRecord for ShardedOutcome {
    fn bits_of(&self) -> Option<u8> {
        self.bits
    }
    fn output_of(&self) -> Option<&Tensor> {
        self.output.as_ref()
    }
}

/// Degenerate identity, wall-clock: an explicit single-version registry
/// with `FaultPlan::none()` completes the same request set as
/// `serve_wallclock` with request-by-request bit-identical outputs, at
/// every `large_range()` bit-width and worker count — and reports the
/// run as one generation with no registry activity.
#[test]
fn degenerate_registry_bit_identical_to_serve_wallclock_all_bitwidths() {
    let bits = BitWidthSet::large_range();
    let model = packed(&bits, 11);
    let steps = 8;
    let trace = EnergyTrace::new(vec![100.0; steps]);
    let requests = RequestTrace::new((0..steps).map(|t| (t * 3 + 1) % 4).collect());
    let total = requests.total();
    let mut rng = StdRng::seed_from_u64(31);
    let inputs = distinct_inputs(&mut rng, 5, &[1, 3, 6, 6]);
    let cfg = SimulationConfig::default();

    for (i, &b) in bits.widths().iter().enumerate() {
        let report = DeploymentReport::new("twin", 1, vec![point_for(b, i)]);
        for workers in worker_counts() {
            let wall = WallclockConfig {
                workers,
                max_batch: 4,
                step_time: Duration::from_micros(200),
                ..WallclockConfig::default()
            };
            let (base_stats, base) = serve_wallclock(
                &report,
                &trace,
                &requests,
                Policy::Greedy,
                &cfg,
                &wall,
                &model,
                &inputs,
            )
            .unwrap();
            let registry = ModelRegistry::new(model.clone(), "v1");
            let (stats, outcomes) = serve_wallclock_registry(
                &report,
                &trace,
                &requests,
                Policy::Greedy,
                &cfg,
                &wall,
                &registry,
                &FaultPlan::none(),
                &inputs,
            )
            .unwrap();
            let ctx = format!("{b}-bit @ {workers} workers");
            assert_eq!(stats.completed, total, "{ctx}");
            assert_eq!(base_stats.completed, total, "{ctx}");
            assert_conservation(&stats, &outcomes, total);
            outputs_bit_identical(&ctx, &outcomes, &base);
            assert_eq!(
                (stats.reloads, stats.rollbacks, stats.canary_served),
                (0, 0, 0),
                "{ctx}: no registry activity in the degenerate run"
            );
            let batches: usize = stats.replicas.iter().map(|r| r.batches).sum();
            assert_eq!(
                stats.time_per_generation,
                vec![(1, batches)],
                "{ctx}: one generation served everything"
            );
            for r in &stats.replicas {
                assert_eq!(r.generation, 1, "{ctx}: workers end pinned to v1");
            }
        }
    }
}

/// Degenerate identity, sharded: the versioned path over a single-version
/// registry with a no-op hook reproduces `simulate_serving_sharded`
/// bit-for-bit — full stats equality, not just outputs — at every
/// `large_range()` bit-width.
#[test]
fn degenerate_registry_bit_identical_to_sharded_all_bitwidths() {
    let bits = BitWidthSet::large_range();
    let model = packed(&bits, 13);
    let steps = 10;
    let trace = EnergyTrace::new(vec![100.0; steps]);
    let requests = RequestTrace::new((0..steps).map(|t| (t * 2 + 1) % 5).collect());
    let mut rng = StdRng::seed_from_u64(37);
    let inputs = distinct_inputs(&mut rng, 6, &[1, 3, 6, 6]);
    let cfg = SimulationConfig::default();
    let serving = ServingConfig { max_batch: 3 };
    let shard = ShardConfig {
        replicas: 2,
        ..ShardConfig::default()
    };

    for (i, &b) in bits.widths().iter().enumerate() {
        let report = DeploymentReport::new("twin", 1, vec![point_for(b, i)]);
        let (base_stats, base) = simulate_serving_sharded(
            &report,
            &trace,
            &requests,
            Policy::Greedy,
            &cfg,
            &serving,
            &shard,
            &FaultPlan::none(),
            &model,
            &inputs,
        )
        .unwrap();
        let registry = ModelRegistry::new(model.clone(), "v1");
        let (stats, outcomes) = simulate_serving_sharded_versioned(
            &report,
            &trace,
            &requests,
            Policy::Greedy,
            &cfg,
            &serving,
            &shard,
            &FaultPlan::none(),
            &registry,
            &mut |_, _| {},
            &inputs,
        )
        .unwrap();
        assert_eq!(stats, base_stats, "{b}-bit: stats bit-identical");
        assert_eq!(outcomes, base, "{b}-bit: outcomes bit-identical");
        assert_eq!(stats.time_per_generation, vec![(1, steps)], "{b}-bit");
    }
}

/// Zero-downtime reload, deterministic (sharded): the hook publishes an
/// equivalent candidate at step 4; every replica adopts it at that step
/// boundary, no request is lost, the outputs stay bit-identical to the
/// never-reloaded run, and the stats split the run into two generations.
#[test]
fn sharded_mid_traffic_reload_is_lossless_and_bit_identical() {
    let bits = BitWidthSet::new(vec![4, 8]).unwrap();
    let model = packed(&bits, 21);
    let steps = 9;
    let publish_at = 4usize;
    let report = DeploymentReport::new("reload", 1, vec![point_for(bits.widths()[1], 0)]);
    let trace = EnergyTrace::new(vec![100.0; steps]);
    let requests = RequestTrace::uniform(3, steps);
    let total = requests.total();
    let mut rng = StdRng::seed_from_u64(41);
    let inputs = distinct_inputs(&mut rng, 5, &[1, 3, 6, 6]);
    let cfg = SimulationConfig::default();
    let serving = ServingConfig { max_batch: 2 };
    let shard = ShardConfig {
        replicas: 2,
        ..ShardConfig::default()
    };

    let (_, base) = simulate_serving_sharded(
        &report,
        &trace,
        &requests,
        Policy::Greedy,
        &cfg,
        &serving,
        &shard,
        &FaultPlan::none(),
        &model,
        &inputs,
    )
    .unwrap();

    let registry = ModelRegistry::new(model.clone(), "v1");
    let candidate = packed(&bits, 21); // same seed: equivalent weights, fresh tables
    assert!(
        !model.shares_packed_tables(&candidate),
        "the candidate is a genuine reload, not an alias"
    );
    let mut candidate = Some(candidate);
    let (stats, outcomes) = simulate_serving_sharded_versioned(
        &report,
        &trace,
        &requests,
        Policy::Greedy,
        &cfg,
        &serving,
        &shard,
        &FaultPlan::none(),
        &registry,
        &mut |t, reg| {
            if t == publish_at {
                reg.publish(candidate.take().expect("published once"), "v2", None)
                    .unwrap();
            }
        },
        &inputs,
    )
    .unwrap();

    assert_eq!(stats.completed, total, "zero requests lost to the swap");
    assert_eq!(stats.reloads, 1);
    assert_eq!(stats.rollbacks, 0);
    assert_eq!(
        stats.time_per_generation,
        vec![(1, publish_at), (2, steps - publish_at)],
        "the swap landed exactly at the publish step"
    );
    for r in &stats.replicas {
        assert_eq!(r.generation, 2, "every replica adopted the new version");
    }
    outputs_bit_identical("reload", &outcomes, &base);
    assert_eq!(registry.current().label(), "v2");
    assert_eq!(registry.current().generation(), 2);
}

/// Corruption rejection at publish time: a bit-flipped checkpoint-v3
/// candidate fails with `CheckpointError::Corrupt` inside the serving
/// run's hook, the stable version keeps serving bit-identically, and the
/// refusal lands in `RuntimeStats::rejected_publishes`.
#[test]
fn corrupt_checkpoint_publish_is_rejected_and_stable_keeps_serving() {
    let bits = BitWidthSet::new(vec![4, 8]).unwrap();
    let net = models::small_cnn(2, 4, (6, 6), bits.len(), 23);
    let model = PackedModel::prepack(&net, &bits, Quantizer::Sbm).unwrap();

    let dir = std::env::temp_dir().join("instantnet-hot-reload-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corrupt-candidate.inet");
    checkpoint::save(&net, &path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let n = bytes.len();
    bytes[n - 6] ^= 0x10; // flip one payload bit: the section CRC must catch it
    std::fs::write(&path, &bytes).unwrap();

    let report = DeploymentReport::new("reject", 1, vec![point_for(bits.widths()[0], 0)]);
    let steps = 6;
    let trace = EnergyTrace::new(vec![100.0; steps]);
    let requests = RequestTrace::uniform(2, steps);
    let mut rng = StdRng::seed_from_u64(43);
    let inputs = distinct_inputs(&mut rng, 4, &[1, 3, 6, 6]);
    let cfg = SimulationConfig::default();
    let serving = ServingConfig { max_batch: 2 };
    let shard = ShardConfig::default();

    let (_, base) = simulate_serving_sharded(
        &report,
        &trace,
        &requests,
        Policy::Greedy,
        &cfg,
        &serving,
        &shard,
        &FaultPlan::none(),
        &model,
        &inputs,
    )
    .unwrap();

    let registry = ModelRegistry::new(model, "v1");
    let epoch_before = registry.epoch();
    let (stats, outcomes) = simulate_serving_sharded_versioned(
        &report,
        &trace,
        &requests,
        Policy::Greedy,
        &cfg,
        &serving,
        &shard,
        &FaultPlan::none(),
        &registry,
        &mut |t, reg| {
            if t == 2 {
                let err = reg
                    .publish_checkpoint(&net, &path, "corrupt", None)
                    .unwrap_err();
                match &err {
                    PublishError::Load(_) => {
                        let ck = err.checkpoint_error().expect("a checkpoint-layer failure");
                        assert!(
                            matches!(ck, checkpoint::CheckpointError::Corrupt(_)),
                            "the CRC must reject the flipped bit, got {ck:?}"
                        );
                    }
                    other => panic!("expected a load failure, got {other:?}"),
                }
            }
        },
        &inputs,
    )
    .unwrap();

    assert_eq!(stats.rejected_publishes, 1, "the refusal is counted");
    assert_eq!(stats.reloads, 0, "no swap happened");
    assert_eq!(registry.epoch(), epoch_before, "no epoch bump either");
    assert_eq!(registry.current().label(), "v1");
    assert_eq!(stats.time_per_generation, vec![(1, steps)]);
    outputs_bit_identical("reject", &outcomes, &base);
}

/// Auto-rollback, deterministic (sharded): a divergent-by-construction
/// candidate (different seed) canaries at fraction 1.0 with
/// `max_divergences: 1` — the first shadow-compared batch rolls it back,
/// and because canary traffic is shadow-only, every output of the run is
/// bit-identical to a never-reloaded run.
#[test]
fn divergent_canary_rolls_back_and_outputs_match_never_reloaded_run() {
    let bits = BitWidthSet::new(vec![4, 8]).unwrap();
    let model = packed(&bits, 29);
    let steps = 10;
    let report = DeploymentReport::new("canary", 1, vec![point_for(bits.widths()[1], 0)]);
    let trace = EnergyTrace::new(vec![100.0; steps]);
    let requests = RequestTrace::uniform(2, steps);
    let total = requests.total();
    let mut rng = StdRng::seed_from_u64(53);
    let inputs = distinct_inputs(&mut rng, 5, &[1, 3, 6, 6]);
    let cfg = SimulationConfig::default();
    let serving = ServingConfig { max_batch: 2 };
    let shard = ShardConfig::default();

    let (_, base) = simulate_serving_sharded(
        &report,
        &trace,
        &requests,
        Policy::Greedy,
        &cfg,
        &serving,
        &shard,
        &FaultPlan::none(),
        &model,
        &inputs,
    )
    .unwrap();

    let registry = ModelRegistry::new(model, "v1");
    let mut divergent = Some(packed(&bits, 777)); // different weights entirely
    let (stats, outcomes) = simulate_serving_sharded_versioned(
        &report,
        &trace,
        &requests,
        Policy::Greedy,
        &cfg,
        &serving,
        &shard,
        &FaultPlan::none(),
        &registry,
        &mut |t, reg| {
            if t == 3 {
                reg.publish(
                    divergent.take().expect("published once"),
                    "bad",
                    Some(CanaryConfig {
                        fraction: 1.0,
                        max_divergences: 1,
                        ..CanaryConfig::default()
                    }),
                )
                .unwrap();
            }
        },
        &inputs,
    )
    .unwrap();

    assert_eq!(stats.completed, total, "no request lost to the canary");
    assert_eq!(stats.rollbacks, 1, "the divergent candidate rolled back");
    assert!(stats.divergences >= 1, "the shadow compare caught it");
    assert!(stats.canary_served >= 1);
    assert_eq!(stats.reloads, 0, "it never became stable");
    assert_eq!(
        stats.time_per_generation,
        vec![(1, steps)],
        "stable served the whole run"
    );
    assert!(registry.candidate().is_none(), "no canary left in flight");
    assert_eq!(registry.current().label(), "v1");
    outputs_bit_identical("canary", &outcomes, &base);
}

/// Promotion: an equivalent candidate survives its clean window at
/// fraction 1.0 and becomes stable — counted as a reload — while outputs
/// stay bit-identical throughout.
#[test]
fn clean_canary_promotes_to_stable() {
    let bits = BitWidthSet::new(vec![4, 8]).unwrap();
    let model = packed(&bits, 31);
    let steps = 12;
    let report = DeploymentReport::new("promote", 1, vec![point_for(bits.widths()[0], 0)]);
    let trace = EnergyTrace::new(vec![100.0; steps]);
    let requests = RequestTrace::uniform(2, steps);
    let mut rng = StdRng::seed_from_u64(59);
    let inputs = distinct_inputs(&mut rng, 5, &[1, 3, 6, 6]);
    let cfg = SimulationConfig::default();
    let serving = ServingConfig { max_batch: 2 };
    let shard = ShardConfig::default();

    let (_, base) = simulate_serving_sharded(
        &report,
        &trace,
        &requests,
        Policy::Greedy,
        &cfg,
        &serving,
        &shard,
        &FaultPlan::none(),
        &model,
        &inputs,
    )
    .unwrap();

    let registry = ModelRegistry::new(model, "v1");
    let mut candidate = Some(packed(&bits, 31)); // equivalent weights
    let (stats, outcomes) = simulate_serving_sharded_versioned(
        &report,
        &trace,
        &requests,
        Policy::Greedy,
        &cfg,
        &serving,
        &shard,
        &FaultPlan::none(),
        &registry,
        &mut |t, reg| {
            if t == 2 {
                reg.publish(
                    candidate.take().expect("published once"),
                    "v2",
                    Some(CanaryConfig {
                        fraction: 1.0,
                        clean_window: 3,
                        ..CanaryConfig::default()
                    }),
                )
                .unwrap();
            }
        },
        &inputs,
    )
    .unwrap();

    assert_eq!(stats.reloads, 1, "promotion is a reload");
    assert_eq!(stats.rollbacks, 0);
    assert_eq!(
        stats.divergences, 0,
        "an equivalent candidate never diverges"
    );
    assert!(stats.canary_served >= 3, "the clean window was measured");
    assert_eq!(registry.current().label(), "v2");
    assert_eq!(registry.current().generation(), 2);
    let gens: Vec<u64> = stats.time_per_generation.iter().map(|&(g, _)| g).collect();
    assert_eq!(gens, vec![1, 2], "the run split across both generations");
    outputs_bit_identical("promote", &outcomes, &base);
}

/// The acceptance scenario, on the real wall clock: one run with two
/// mid-traffic publishes — a clean direct reload, then a seeded-divergent
/// canary — completes the identical request set with zero requests lost,
/// auto-rolls the divergent candidate back, and every output matches the
/// never-reloaded baseline bit-for-bit.
#[test]
fn wallclock_two_publishes_clean_then_divergent_rollback() {
    let bits = BitWidthSet::new(vec![4, 8]).unwrap();
    let model = packed(&bits, 61);
    let steps = 24;
    let step_us = 500u64;
    let report = DeploymentReport::new("accept", 1, vec![point_for(bits.widths()[1], 0)]);
    let trace = EnergyTrace::new(vec![100.0; steps]);
    let requests = RequestTrace::uniform(2, steps);
    let total = requests.total();
    let mut rng = StdRng::seed_from_u64(67);
    let inputs = distinct_inputs(&mut rng, 6, &[1, 3, 6, 6]);
    let cfg = SimulationConfig::default();
    let wall = WallclockConfig {
        workers: 2,
        max_batch: 2,
        step_time: Duration::from_micros(step_us),
        ..WallclockConfig::default()
    };

    let (_, base) = serve_wallclock(
        &report,
        &trace,
        &requests,
        Policy::Greedy,
        &cfg,
        &wall,
        &model,
        &inputs,
    )
    .unwrap();

    let registry = ModelRegistry::new(model.clone(), "v1");
    let clean = packed(&bits, 61); // equivalent weights, fresh tables
    let divergent = packed(&bits, 999); // different weights entirely

    let (stats, outcomes) = std::thread::scope(|s| {
        let reg = &registry;
        let publisher = s.spawn(move || {
            // The run spans steps × step_us = 12ms of paced arrivals and
            // the publisher is not paced at all, so both publishes land
            // with traffic still ahead of them. The canary starts only
            // once the clean swap is visible to every worker.
            let before = reg.epoch();
            reg.publish(clean, "v2", None).unwrap();
            assert!(
                wait_until(|| reg.epoch() > before),
                "the swap bumps the epoch"
            );
            reg.publish(
                divergent,
                "bad",
                Some(CanaryConfig {
                    fraction: 1.0,
                    max_divergences: 1,
                    ..CanaryConfig::default()
                }),
            )
            .unwrap();
        });
        let out = serve_wallclock_registry(
            &report,
            &trace,
            &requests,
            Policy::Greedy,
            &cfg,
            &wall,
            reg,
            &FaultPlan::none(),
            &inputs,
        )
        .unwrap();
        publisher.join().expect("publisher never panics");
        out
    });

    // Unconditional invariants, however the timing fell: nothing lost,
    // and shadow traffic never reached a client.
    assert_eq!(stats.completed, total, "zero requests lost across 2 swaps");
    assert_conservation(&stats, &outcomes, total);
    outputs_bit_identical("accept", &outcomes, &base);

    // Both publishes landed mid-traffic (the run outlives the publisher
    // by construction), so the registry history is deterministic even
    // though the exact step each landed on is not.
    let m = registry.metrics();
    assert_eq!(m.publishes, 2);
    assert_eq!(m.reloads, 1, "the clean publish swapped stable");
    assert_eq!(
        m.rollbacks, 1,
        "the divergent canary rolled back (divergences={}, canary_served={})",
        m.divergences, m.canary_served
    );
    assert!(m.divergences >= 1);
    assert_eq!(registry.current().label(), "v2", "rollback restored v2");
    assert!(registry.candidate().is_none());
    assert_eq!(stats.reloads + stats.rollbacks, 2, "both recorded in stats");
    let gens: Vec<u64> = stats.time_per_generation.iter().map(|&(g, _)| g).collect();
    assert!(
        gens == vec![1, 2] || gens == vec![2],
        "batches landed on v1 then v2, got {gens:?}"
    );
}

/// Version-aware cache keys: with the content cache on and every request
/// carrying the *same* input, a mid-run publish of genuinely different
/// weights must never answer post-reload traffic from entries the old
/// generation computed. Post-reload outputs — including cache hits —
/// are bit-identical to the new version's forward, not the old one's.
#[test]
fn content_cache_never_serves_stale_outputs_across_reload() {
    let bits = BitWidthSet::new(vec![4, 8]).unwrap();
    let v1 = packed(&bits, 171);
    let v2 = packed(&bits, 172); // different seed: different weights
    let report = DeploymentReport::new("stale", 1, vec![point_for(bits.widths()[1], 0)]);
    let steps = 8;
    let publish_at = 4usize;
    let trace = EnergyTrace::new(vec![100.0; steps]);
    let requests = RequestTrace::uniform(2, steps);
    let total = requests.total();
    let mut rng = StdRng::seed_from_u64(173);
    // One input for the whole run: maximal cache-hit pressure.
    let inputs = distinct_inputs(&mut rng, 1, &[1, 3, 6, 6]);
    let idx = v1.bit_widths().index_of(bits.widths()[1]).unwrap();
    let expect_v1 = v1.forward_at(idx, &inputs[0]);
    let expect_v2 = v2.forward_at(idx, &inputs[0]);
    assert_ne!(
        expect_v1.data(),
        expect_v2.data(),
        "the reload must actually change the answer"
    );

    let registry = ModelRegistry::new(v1, "v1");
    let mut candidate = Some(v2);
    let (stats, outcomes) = simulate_serving_sharded_versioned(
        &report,
        &trace,
        &requests,
        Policy::Greedy,
        &SimulationConfig::default(),
        &ServingConfig { max_batch: 2 },
        &ShardConfig {
            replicas: 2,
            cache: true,
            ..ShardConfig::default()
        },
        &FaultPlan::none(),
        &registry,
        &mut |t, reg| {
            if t == publish_at {
                reg.publish(candidate.take().expect("published once"), "v2", None)
                    .unwrap();
            }
        },
        &inputs,
    )
    .unwrap();

    assert_eq!(stats.completed, total);
    assert_eq!(stats.reloads, 1);
    assert!(
        stats.cache_hits > 0,
        "identical inputs must exercise the cache"
    );
    assert!(
        outcomes
            .iter()
            .any(|o| o.cached && o.served_at.is_some_and(|t| t >= publish_at)),
        "the post-reload phase must include cache hits for the test to bite"
    );
    for (i, o) in outcomes.iter().enumerate() {
        let served_at = o.served_at.expect("permissive run completes all");
        let expected = if served_at < publish_at {
            &expect_v1
        } else {
            &expect_v2
        };
        assert_eq!(
            o.output.as_ref().unwrap().data(),
            expected.data(),
            "request {i} (served at step {served_at}, cached={}) must come \
             from the generation in force, never a stale cache entry",
            o.cached
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Conservation under arbitrary swap timing: N mid-traffic publishes
    /// of alternating equivalent / divergent-canary candidates × worker
    /// counts × deadlines never lose a request, and every served output
    /// stays bit-identical to the never-reloaded baseline.
    #[test]
    fn conservation_holds_across_reloads_workers_and_deadlines(
        reloads in 1usize..4,
        workers in prop::sample::select(vec![1usize, 2, 4]),
        deadline_flag in 0usize..2,
    ) {
        let bits = BitWidthSet::new(vec![4, 8]).unwrap();
        let model = packed(&bits, 71);
        let report = DeploymentReport::new("prop", 1, vec![point_for(bits.widths()[0], 0)]);
        let mut rng = StdRng::seed_from_u64(73);
        let inputs = distinct_inputs(&mut rng, 5, &[1, 3, 6, 6]);
        let cfg = SimulationConfig::default();
        let steps = 10;
        let step_us = 400u64;
        let trace = EnergyTrace::new(vec![100.0; steps]);
        let requests = RequestTrace::uniform(2, steps);
        let total = requests.total();
        let wall = WallclockConfig {
            workers,
            max_batch: 2,
            step_time: Duration::from_micros(step_us),
            deadline: (deadline_flag == 1).then(|| Duration::from_micros(step_us * 6)),
            ..WallclockConfig::default()
        };
        let (_, base) = serve_wallclock(
            &report,
            &trace,
            &requests,
            Policy::Greedy,
            &cfg,
            &wall,
            &model,
            &inputs,
        )
        .unwrap();
        let registry = ModelRegistry::new(model.clone(), "v1");
        let (stats, outcomes) = std::thread::scope(|s| {
            let reg = &registry;
            let bits_ref = &bits;
            let publisher = s.spawn(move || {
                for k in 0..reloads {
                    // The next publish waits for the previous canary to be
                    // decided by the traffic it shadows — which also lands
                    // it mid-traffic — and clears it by hand if traffic
                    // drained first: a publish can never meet
                    // `PublishError::CanaryInFlight`.
                    if !wait_until(|| reg.candidate().is_none()) {
                        reg.rollback();
                    }
                    if k % 2 == 0 {
                        // Equivalent weights: a clean direct swap.
                        reg.publish(packed(bits_ref, 71), format!("v{}", k + 2), None)
                            .unwrap();
                    } else {
                        // Divergent canary: shadow-only; rolls back on its
                        // own or is cleared below.
                        let _ = reg.publish(
                            packed(bits_ref, 1000 + k as u64),
                            format!("bad{k}"),
                            Some(CanaryConfig {
                                fraction: 1.0,
                                max_divergences: 1,
                                ..CanaryConfig::default()
                            }),
                        );
                    }
                }
                // A canary may still be in flight when traffic drains;
                // clear it so the registry ends on a stable version.
                reg.rollback();
            });
            let out = serve_wallclock_registry(
                &report,
                &trace,
                &requests,
                Policy::Greedy,
                &cfg,
                &wall,
                reg,
                &FaultPlan::none(),
                &inputs,
            )
            .unwrap();
            publisher.join().expect("publisher never panics");
            out
        });
        let ctx = format!("reloads={reloads} workers={workers} deadline={deadline_flag}");
        prop_assert_eq!(outcomes.len(), total, "{}", ctx);
        prop_assert_eq!(
            stats.completed
                + stats.completed_degraded
                + stats.shed
                + stats.expired
                + stats.failed
                + stats.backlog,
            total,
            "{}: conservation",
            ctx
        );
        // Served outputs are bit-identical to the baseline run —
        // equivalent stables and shadow-only canaries can't change a
        // client-visible byte. (Deadlined runs may serve a subset;
        // compare the requests both runs completed.)
        for (id, (w, b)) in outcomes.iter().zip(&base).enumerate() {
            if let (Some(x), Some(y)) = (&w.output, &b.output) {
                prop_assert_eq!(x.data(), y.data(), "{}: request {}", ctx, id);
            }
        }
        let gen_batches: usize = stats.time_per_generation.iter().map(|&(_, n)| n).sum();
        prop_assert_eq!(
            gen_batches,
            stats.replicas.iter().map(|r| r.batches).sum::<usize>(),
            "{}: every batch attributed to exactly one generation",
            ctx
        );
    }
}
