//! Versioned model registry: zero-downtime hot reload with canary
//! routing and divergence auto-rollback.
//!
//! A [`ModelRegistry`] holds immutable [`ModelVersion`]s — an Arc-shared
//! [`PackedModel`] plus the checkpoint-v3 CRC it was loaded from and a
//! monotone generation id — and publishes them atomically to every
//! wall-clock worker and shard replica mid-traffic. Publication is a
//! pointer swap: `PackedModel::clone` shares the packed weight tables
//! behind an `Arc`, so adopting a new version costs a refcount bump and a
//! cursor copy, never a repack.
//!
//! **Version lifecycle.** A candidate enters through [`ModelRegistry::
//! publish`] (in-memory) or [`ModelRegistry::publish_checkpoint`] (loads
//! a checkpoint-v3 file, whose CRC sections reject bit-flipped bytes with
//! [`CheckpointError::Corrupt`] *before* the candidate ever reaches
//! traffic — the stable version keeps serving untouched). An accepted
//! candidate either replaces the stable version immediately (canary
//! `None`) or serves a **canary**: workers shadow-route a configurable
//! fraction of batches through the candidate while still answering every
//! request from the stable version, comparing the two outputs bit-exactly
//! at the same bit-width. The candidate is **promoted** to stable after
//! [`CanaryConfig::clean_window`] consecutive divergence-free shadow
//! batches, and **auto-rolled back** — again a pointer swap — after
//! [`CanaryConfig::max_divergences`] divergent samples, a latency
//! regression beyond [`CanaryConfig::latency_band`] for
//! [`CanaryConfig::latency_strikes`] consecutive shadow batches, or any
//! candidate fault (a forward error or isolated panic).
//!
//! **Pinning rule.** Serving loops observe the registry only at batch
//! boundaries: a worker reads [`ModelRegistry::epoch`] (one atomic load)
//! when it dequeues a batch and refreshes its [`RegistrySnapshot`] only
//! on a change, so an in-flight batch is served entirely by the versions
//! pinned at its dequeue — it can never straddle a swap. Because shadow
//! traffic answers from the stable version, client-visible outputs are
//! unchanged by a canary in progress, divergent or not.
//!
//! **Atomicity argument.** All lifecycle transitions happen under one
//! mutex and bump the epoch counter before releasing it; a snapshot is
//! taken under the same mutex, so the `(stable, canary, epoch)` triple a
//! worker pins is always one the registry actually passed through.
//! Workers that report shadow results from a stale epoch are ignored —
//! a rollback can therefore never be triggered by a candidate that is no
//! longer in flight.

use instantnet_infer::{InferError, PackedModel};
use instantnet_nn::checkpoint::{crc32, CheckpointError};
use instantnet_nn::Module;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One immutable published model: the Arc-shared packed engine, the CRC
/// of the checkpoint bytes it came from (0 for in-memory publishes), and
/// its place in the registry's monotone generation sequence.
pub struct ModelVersion {
    generation: u64,
    label: String,
    model: PackedModel,
    source_crc: u32,
}

impl ModelVersion {
    /// Monotone generation id; higher = published later.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The label the publisher gave this version.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The packed engine. Cloning it is O(1) — the packed tables are
    /// shared behind an `Arc`, which is what makes adoption a pointer
    /// swap.
    pub fn model(&self) -> &PackedModel {
        &self.model
    }

    /// CRC32 (checkpoint-v3 polynomial) of the checkpoint file this
    /// version was loaded from; 0 for in-memory publishes.
    pub fn source_crc(&self) -> u32 {
        self.source_crc
    }
}

/// Knobs of a canary rollout. `Some(config)` on publish shadow-routes
/// traffic; `None` swaps the stable pointer immediately.
#[derive(Debug, Clone, PartialEq)]
pub struct CanaryConfig {
    /// Fraction of batches shadow-routed through the candidate, in
    /// `(0, 1]`. Routing is deterministic thresholding on the batch
    /// sequence number, not random — the same traffic shadows the same
    /// batches.
    pub fraction: f64,
    /// Divergent samples (candidate output ≠ stable output, bit-wise, at
    /// the same bit-width) that trigger auto-rollback. Must be ≥ 1.
    pub max_divergences: usize,
    /// Latency band: roll back when the candidate's shadow forward takes
    /// more than `band ×` the stable forward's wall time for
    /// [`CanaryConfig::latency_strikes`] consecutive shadow batches.
    /// Must be > 1 when set; `None` disables the latency gate.
    pub latency_band: Option<f64>,
    /// Consecutive over-band shadow batches before the latency gate
    /// rolls back (wall time is noisy; one slow batch is not a verdict).
    /// Must be ≥ 1.
    pub latency_strikes: usize,
    /// Consecutive divergence-free shadow batches required to promote
    /// the candidate to stable. A divergent batch resets the window.
    /// Must be ≥ 1.
    pub clean_window: usize,
}

impl Default for CanaryConfig {
    fn default() -> Self {
        CanaryConfig {
            fraction: 0.25,
            max_divergences: 3,
            latency_band: None,
            latency_strikes: 3,
            clean_window: 8,
        }
    }
}

impl CanaryConfig {
    fn validate(&self) -> Result<(), String> {
        if !(self.fraction > 0.0 && self.fraction <= 1.0) {
            return Err(format!(
                "canary fraction {} must be in (0, 1]",
                self.fraction
            ));
        }
        if self.max_divergences < 1 {
            return Err("max_divergences must be at least 1".into());
        }
        if self.clean_window < 1 {
            return Err("clean_window must be at least 1".into());
        }
        if self.latency_strikes < 1 {
            return Err("latency_strikes must be at least 1".into());
        }
        if let Some(band) = self.latency_band {
            if band.is_nan() || band <= 1.0 {
                return Err(format!("latency_band {band} must be above 1"));
            }
        }
        Ok(())
    }
}

/// Why a publish was refused. Refusals never touch the stable version.
#[derive(Debug)]
pub enum PublishError {
    /// The candidate checkpoint failed to load or prepack — including
    /// [`CheckpointError::Corrupt`] for CRC-mismatched bytes.
    Load(InferError),
    /// The candidate packs a different bit-width set or quantizer than
    /// the stable version, so workers could not serve report points on
    /// it interchangeably.
    Incompatible(String),
    /// A canary is already in flight; roll it back or let it resolve
    /// before publishing the next candidate.
    CanaryInFlight,
    /// The canary knobs themselves are inconsistent.
    Config(String),
}

impl fmt::Display for PublishError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PublishError::Load(e) => write!(f, "candidate rejected: {e}"),
            PublishError::Incompatible(msg) => write!(f, "candidate incompatible: {msg}"),
            PublishError::CanaryInFlight => write!(f, "a canary candidate is already in flight"),
            PublishError::Config(msg) => write!(f, "invalid canary config: {msg}"),
        }
    }
}

impl std::error::Error for PublishError {}

impl PublishError {
    /// The checkpoint-level error, when the refusal was a load failure —
    /// the hook tests use to pin `CheckpointError::Corrupt`.
    pub fn checkpoint_error(&self) -> Option<&CheckpointError> {
        match self {
            PublishError::Load(InferError::Checkpoint(e)) => Some(e),
            _ => None,
        }
    }
}

/// What a shadow report did to the canary in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShadowVerdict {
    /// The canary continues (or the report was stale and ignored).
    Continue,
    /// The candidate was rolled back; the stable version keeps serving.
    RolledBack(RollbackReason),
    /// The candidate was promoted to stable.
    Promoted,
}

/// Why a candidate was rolled back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RollbackReason {
    /// Accumulated divergent samples reached
    /// [`CanaryConfig::max_divergences`].
    Divergence,
    /// The candidate exceeded the latency band for
    /// [`CanaryConfig::latency_strikes`] consecutive shadow batches.
    Latency,
    /// A shadow forward on the candidate errored or panicked.
    CandidateFault,
    /// [`ModelRegistry::rollback`] was called.
    Manual,
}

/// Monotone counters of everything the registry did. Serving loops
/// snapshot these at run start and end; the delta lands in
/// [`crate::runtime::RuntimeStats`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RegistryMetrics {
    /// Candidates accepted (direct swaps + canary starts).
    pub publishes: usize,
    /// Candidates refused before reaching traffic (corrupt checkpoints,
    /// incompatible packs).
    pub rejected_publishes: usize,
    /// Stable-pointer swaps: direct publishes plus promotions.
    pub reloads: usize,
    /// Canary candidates promoted to stable.
    pub promotions: usize,
    /// Canary candidates rolled back (auto or manual).
    pub rollbacks: usize,
    /// Shadow-compared samples whose candidate output differed bit-wise
    /// from the stable output at the same bit-width.
    pub divergences: usize,
    /// Samples shadow-routed through a candidate (always *also* served
    /// by the stable version — shadow traffic is never client-visible).
    pub canary_served: usize,
}

/// The `(stable, canary, epoch)` triple a worker pins at a batch
/// boundary. Both versions are `Arc`s into the registry's history, so a
/// snapshot stays valid — and its outputs stay reproducible — however
/// the registry moves on.
pub struct RegistrySnapshot {
    /// The epoch this snapshot was taken at; compare with
    /// [`ModelRegistry::epoch`] to decide whether to re-pin.
    pub epoch: u64,
    /// The serving version: every request is answered by this model.
    pub stable: Arc<ModelVersion>,
    /// The canary candidate in flight, if any — shadow traffic only.
    pub canary: Option<Arc<ModelVersion>>,
}

impl RegistrySnapshot {
    /// Generation of the pinned stable version — the version component
    /// of content-cache keys, so a hot reload can never answer from
    /// outputs a superseded generation computed.
    pub fn generation(&self) -> u64 {
        self.stable.generation()
    }
}

struct CanaryState {
    version: Arc<ModelVersion>,
    cfg: CanaryConfig,
    divergences: usize,
    clean_batches: usize,
    latency_strikes: usize,
    batches_seen: u64,
    batches_routed: u64,
}

struct Inner {
    stable: Arc<ModelVersion>,
    canary: Option<CanaryState>,
    next_generation: u64,
    metrics: RegistryMetrics,
}

/// The registry: one stable serving version, at most one canary
/// candidate, and the epoch counter workers poll. `Sync` — the publisher
/// thread and every worker share it by reference.
pub struct ModelRegistry {
    inner: Mutex<Inner>,
    epoch: AtomicU64,
}

impl ModelRegistry {
    /// Seeds the registry with generation 1 as the stable version.
    pub fn new(model: PackedModel, label: impl Into<String>) -> Self {
        ModelRegistry {
            inner: Mutex::new(Inner {
                stable: Arc::new(ModelVersion {
                    generation: 1,
                    label: label.into(),
                    model,
                    source_crc: 0,
                }),
                canary: None,
                next_generation: 2,
                metrics: RegistryMetrics::default(),
            }),
            epoch: AtomicU64::new(1),
        }
    }

    /// The epoch counter: bumps on every visible transition (publish,
    /// promote, rollback). One atomic load — the only cost a worker pays
    /// per batch when nothing changed.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The stable serving version.
    pub fn current(&self) -> Arc<ModelVersion> {
        self.lock().stable.clone()
    }

    /// The canary candidate in flight, if any.
    pub fn candidate(&self) -> Option<Arc<ModelVersion>> {
        self.lock().canary.as_ref().map(|c| c.version.clone())
    }

    /// Everything the registry has done so far.
    pub fn metrics(&self) -> RegistryMetrics {
        self.lock().metrics.clone()
    }

    /// Pins the `(stable, canary, epoch)` triple under one lock — the
    /// snapshot a worker serves a batch from.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let g = self.lock();
        RegistrySnapshot {
            epoch: self.epoch.load(Ordering::Acquire),
            stable: g.stable.clone(),
            canary: g.canary.as_ref().map(|c| c.version.clone()),
        }
    }

    /// Publishes an in-memory candidate. With `canary: None` the stable
    /// pointer swaps immediately; with `Some(cfg)` the candidate starts
    /// a canary. Returns the candidate's generation id.
    ///
    /// # Errors
    ///
    /// [`PublishError::Incompatible`] when the candidate's bit-width set
    /// or quantizer differs from the stable version's (counted as a
    /// rejected publish); [`PublishError::CanaryInFlight`] /
    /// [`PublishError::Config`] for caller errors (not counted).
    pub fn publish(
        &self,
        model: PackedModel,
        label: impl Into<String>,
        canary: Option<CanaryConfig>,
    ) -> Result<u64, PublishError> {
        self.publish_version(model, label.into(), 0, canary)
    }

    /// Loads a checkpoint-v3 candidate and publishes it at the stable
    /// version's bit-width set and quantizer. The checkpoint's CRC
    /// sections are verified during the load: a bit-flipped file fails
    /// with [`CheckpointError::Corrupt`] *before* any version changes —
    /// the stable version keeps serving and the refusal is counted in
    /// [`RegistryMetrics::rejected_publishes`].
    ///
    /// `module` is the topology the checkpoint's tensors load into; its
    /// parameters are overwritten by the load.
    ///
    /// # Errors
    ///
    /// [`PublishError::Load`] for corrupt/unreadable/mismatched
    /// checkpoints, plus everything [`ModelRegistry::publish`] refuses.
    pub fn publish_checkpoint(
        &self,
        module: &dyn Module,
        path: impl AsRef<Path>,
        label: impl Into<String>,
        canary: Option<CanaryConfig>,
    ) -> Result<u64, PublishError> {
        let path = path.as_ref();
        let (set, quantizer) = {
            let g = self.lock();
            (
                g.stable.model.bit_widths().clone(),
                g.stable.model.quantizer(),
            )
        };
        let crc = std::fs::read(path).map(|bytes| crc32(&bytes)).unwrap_or(0);
        let model = match PackedModel::from_checkpoint(module, path, &set, quantizer) {
            Ok(m) => m,
            Err(e) => {
                self.lock().metrics.rejected_publishes += 1;
                return Err(PublishError::Load(e));
            }
        };
        self.publish_version(model, label.into(), crc, canary)
    }

    fn publish_version(
        &self,
        model: PackedModel,
        label: String,
        source_crc: u32,
        canary: Option<CanaryConfig>,
    ) -> Result<u64, PublishError> {
        if let Some(cfg) = &canary {
            cfg.validate().map_err(PublishError::Config)?;
        }
        let mut g = self.lock();
        if g.canary.is_some() {
            return Err(PublishError::CanaryInFlight);
        }
        let stable_widths = g.stable.model.bit_widths().widths().to_vec();
        let stable_quantizer = g.stable.model.quantizer();
        if model.bit_widths().widths() != stable_widths || model.quantizer() != stable_quantizer {
            g.metrics.rejected_publishes += 1;
            return Err(PublishError::Incompatible(format!(
                "candidate packs {:?}/{:?} but stable serves {:?}/{:?}",
                model.bit_widths().widths(),
                model.quantizer(),
                stable_widths,
                stable_quantizer,
            )));
        }
        let generation = g.next_generation;
        g.next_generation += 1;
        let version = Arc::new(ModelVersion {
            generation,
            label,
            model,
            source_crc,
        });
        g.metrics.publishes += 1;
        match canary {
            None => {
                g.stable = version;
                g.metrics.reloads += 1;
            }
            Some(cfg) => {
                g.canary = Some(CanaryState {
                    version,
                    cfg,
                    divergences: 0,
                    clean_batches: 0,
                    latency_strikes: 0,
                    batches_seen: 0,
                    batches_routed: 0,
                });
            }
        }
        self.bump(&mut g);
        Ok(generation)
    }

    /// Manually rolls back the canary in flight. Returns `false` when no
    /// canary was active.
    pub fn rollback(&self) -> bool {
        let mut g = self.lock();
        if g.canary.is_none() {
            return false;
        }
        self.rollback_locked(&mut g);
        true
    }

    /// Deterministic fraction routing: whether the batch a worker is
    /// about to serve should also shadow through the candidate. Counts
    /// the batch either way, so the routed share tracks
    /// [`CanaryConfig::fraction`] exactly; `false` for stale pins and
    /// when no canary is in flight.
    pub fn canary_ticket(&self, pinned_epoch: u64) -> bool {
        let mut g = self.lock();
        if self.epoch.load(Ordering::Acquire) != pinned_epoch {
            return false;
        }
        let Some(state) = g.canary.as_mut() else {
            return false;
        };
        state.batches_seen += 1;
        let route = (state.batches_routed as f64) < state.batches_seen as f64 * state.cfg.fraction;
        if route {
            state.batches_routed += 1;
        }
        route
    }

    /// A worker's shadow-compare result for one canary-routed batch:
    /// `samples` requests were shadowed, `diverged` of them produced a
    /// candidate output bit-different from the stable output, and the
    /// two forwards took `stable_us` / `candidate_us` of wall time.
    /// Applies the canary state machine; stale reports return
    /// [`ShadowVerdict::Continue`] without touching it.
    pub fn report_shadow(
        &self,
        pinned_epoch: u64,
        samples: usize,
        diverged: usize,
        stable_us: u64,
        candidate_us: u64,
    ) -> ShadowVerdict {
        let mut g = self.lock();
        if self.epoch.load(Ordering::Acquire) != pinned_epoch || g.canary.is_none() {
            return ShadowVerdict::Continue;
        }
        g.metrics.canary_served += samples;
        g.metrics.divergences += diverged;
        let state = g.canary.as_mut().expect("checked above");
        if diverged > 0 {
            state.divergences += diverged;
            state.clean_batches = 0;
        } else {
            state.clean_batches += 1;
        }
        if let Some(band) = state.cfg.latency_band {
            if candidate_us as f64 > band * stable_us.max(1) as f64 {
                state.latency_strikes += 1;
            } else {
                state.latency_strikes = 0;
            }
        }
        if state.divergences >= state.cfg.max_divergences {
            self.rollback_locked(&mut g);
            return ShadowVerdict::RolledBack(RollbackReason::Divergence);
        }
        let state = g.canary.as_mut().expect("not rolled back");
        if state.cfg.latency_band.is_some() && state.latency_strikes >= state.cfg.latency_strikes {
            self.rollback_locked(&mut g);
            return ShadowVerdict::RolledBack(RollbackReason::Latency);
        }
        let state = g.canary.as_mut().expect("not rolled back");
        if state.clean_batches >= state.cfg.clean_window {
            let version = state.version.clone();
            g.stable = version;
            g.canary = None;
            g.metrics.promotions += 1;
            g.metrics.reloads += 1;
            self.bump(&mut g);
            return ShadowVerdict::Promoted;
        }
        ShadowVerdict::Continue
    }

    /// A shadow forward on the candidate errored or panicked: any
    /// candidate fault rolls back immediately. The batch itself was
    /// served by the stable version, so no request is lost.
    pub fn report_candidate_fault(&self, pinned_epoch: u64) -> ShadowVerdict {
        let mut g = self.lock();
        if self.epoch.load(Ordering::Acquire) != pinned_epoch || g.canary.is_none() {
            return ShadowVerdict::Continue;
        }
        self.rollback_locked(&mut g);
        ShadowVerdict::RolledBack(RollbackReason::CandidateFault)
    }

    fn rollback_locked(&self, g: &mut Inner) {
        g.canary = None;
        g.metrics.rollbacks += 1;
        self.bump(g);
    }

    /// Epoch bumps happen while the inner lock is held, so snapshots
    /// (also taken under the lock) always pair a consistent triple.
    fn bump(&self, _g: &mut Inner) {
        self.epoch.fetch_add(1, Ordering::Release);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("registry mutex poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instantnet_nn::{checkpoint, models};
    use instantnet_quant::{BitWidthSet, Quantizer};

    /// A temp file named per process: concurrent runs of this suite must
    /// not share it.
    fn tmp(name: &str) -> std::path::PathBuf {
        let pid = std::process::id();
        std::env::temp_dir().join(format!("instantnet-registry-{pid}-{name}"))
    }

    fn packed(seed: u64, bits: &BitWidthSet) -> PackedModel {
        let net = models::small_cnn(2, 3, (6, 6), bits.len(), seed);
        PackedModel::prepack(&net, bits, Quantizer::Sbm).unwrap()
    }

    #[test]
    fn direct_publish_swaps_stable_and_bumps_epoch() {
        let bits = BitWidthSet::new(vec![4, 8]).unwrap();
        let reg = ModelRegistry::new(packed(1, &bits), "seed");
        let e0 = reg.epoch();
        assert_eq!(reg.current().generation(), 1);
        let gen = reg.publish(packed(2, &bits), "v2", None).unwrap();
        assert_eq!(gen, 2);
        assert_eq!(reg.current().generation(), 2);
        assert_eq!(reg.current().label(), "v2");
        assert!(reg.epoch() > e0);
        let m = reg.metrics();
        assert_eq!((m.publishes, m.reloads, m.rollbacks), (1, 1, 0));
        assert!(reg.candidate().is_none());
    }

    #[test]
    fn snapshot_pins_arc_shared_versions() {
        let bits = BitWidthSet::new(vec![4]).unwrap();
        let reg = ModelRegistry::new(packed(3, &bits), "seed");
        let pin = reg.snapshot();
        assert!(pin
            .stable
            .model()
            .shares_packed_tables(reg.current().model()));
        reg.publish(packed(4, &bits), "v2", None).unwrap();
        // The old pin survives the swap — in-flight batches keep their
        // version; new pins observe the new stable.
        assert_eq!(pin.stable.generation(), 1);
        assert_eq!(reg.snapshot().stable.generation(), 2);
        assert_ne!(pin.epoch, reg.epoch());
    }

    #[test]
    fn incompatible_candidate_is_rejected_without_touching_stable() {
        let bits = BitWidthSet::new(vec![4, 8]).unwrap();
        let other = BitWidthSet::new(vec![4, 16]).unwrap();
        let reg = ModelRegistry::new(packed(5, &bits), "seed");
        let err = reg.publish(packed(6, &other), "bad", None).unwrap_err();
        assert!(matches!(err, PublishError::Incompatible(_)));
        assert_eq!(reg.current().generation(), 1);
        assert_eq!(reg.metrics().rejected_publishes, 1);
        assert_eq!(reg.metrics().publishes, 0);
    }

    #[test]
    fn corrupt_checkpoint_is_rejected_and_counted() {
        let bits = BitWidthSet::new(vec![4, 8]).unwrap();
        let net = models::small_cnn(2, 3, (6, 6), bits.len(), 7);
        let path = tmp("corrupt-candidate.bin");
        checkpoint::save(&net, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 6] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let reg = ModelRegistry::new(packed(7, &bits), "seed");
        let e0 = reg.epoch();
        let err = reg
            .publish_checkpoint(&net, &path, "corrupt", None)
            .unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(
            matches!(err.checkpoint_error(), Some(CheckpointError::Corrupt(_))),
            "bit flip must surface as Corrupt, got {err}"
        );
        assert_eq!(reg.current().generation(), 1, "stable keeps serving");
        assert_eq!(reg.epoch(), e0, "no visible transition");
        assert_eq!(reg.metrics().rejected_publishes, 1);
    }

    #[test]
    fn checkpoint_publish_records_source_crc() {
        let bits = BitWidthSet::new(vec![4, 8]).unwrap();
        let net = models::small_cnn(2, 3, (6, 6), bits.len(), 9);
        let path = tmp("clean-candidate.bin");
        checkpoint::save(&net, &path).unwrap();
        let expected = crc32(&std::fs::read(&path).unwrap());

        let reg = ModelRegistry::new(packed(9, &bits), "seed");
        reg.publish_checkpoint(&net, &path, "v2", None).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(reg.current().source_crc(), expected);
        assert_ne!(expected, 0);
    }

    #[test]
    fn canary_ticket_honours_fraction_deterministically() {
        let bits = BitWidthSet::new(vec![4]).unwrap();
        let reg = ModelRegistry::new(packed(11, &bits), "seed");
        let cfg = CanaryConfig {
            fraction: 0.25,
            clean_window: 1_000_000,
            ..CanaryConfig::default()
        };
        reg.publish(packed(12, &bits), "v2", Some(cfg)).unwrap();
        let epoch = reg.epoch();
        let routed = (0..100).filter(|_| reg.canary_ticket(epoch)).count();
        assert_eq!(routed, 25, "deterministic thresholding, not sampling");
        assert!(!reg.canary_ticket(epoch + 1), "stale pins never route");
    }

    #[test]
    fn k_divergences_roll_back_and_clean_window_promotes() {
        let bits = BitWidthSet::new(vec![4]).unwrap();
        let cfg = CanaryConfig {
            fraction: 1.0,
            max_divergences: 2,
            clean_window: 3,
            ..CanaryConfig::default()
        };

        // Divergences accumulate across batches; the 2nd rolls back.
        let reg = ModelRegistry::new(packed(13, &bits), "seed");
        reg.publish(packed(14, &bits), "bad", Some(cfg.clone()))
            .unwrap();
        let epoch = reg.epoch();
        assert_eq!(
            reg.report_shadow(epoch, 4, 1, 10, 10),
            ShadowVerdict::Continue
        );
        assert_eq!(
            reg.report_shadow(epoch, 4, 1, 10, 10),
            ShadowVerdict::RolledBack(RollbackReason::Divergence)
        );
        assert_eq!(reg.current().generation(), 1, "stable untouched");
        assert!(reg.candidate().is_none());
        let m = reg.metrics();
        assert_eq!((m.rollbacks, m.divergences, m.canary_served), (1, 2, 8));

        // A clean window promotes; a divergent batch resets it.
        let reg = ModelRegistry::new(packed(15, &bits), "seed");
        reg.publish(packed(16, &bits), "good", Some(cfg)).unwrap();
        let epoch = reg.epoch();
        reg.report_shadow(epoch, 2, 0, 10, 10);
        reg.report_shadow(epoch, 2, 1, 10, 10); // resets the window
        reg.report_shadow(epoch, 2, 0, 10, 10);
        reg.report_shadow(epoch, 2, 0, 10, 10);
        assert_eq!(
            reg.report_shadow(epoch, 2, 0, 10, 10),
            ShadowVerdict::Promoted
        );
        assert_eq!(reg.current().generation(), 2);
        assert_eq!(reg.current().label(), "good");
        let m = reg.metrics();
        assert_eq!((m.promotions, m.reloads, m.rollbacks), (1, 1, 0));
    }

    #[test]
    fn latency_band_rolls_back_after_consecutive_strikes() {
        let bits = BitWidthSet::new(vec![4]).unwrap();
        let reg = ModelRegistry::new(packed(17, &bits), "seed");
        let cfg = CanaryConfig {
            fraction: 1.0,
            latency_band: Some(2.0),
            latency_strikes: 2,
            clean_window: 100,
            ..CanaryConfig::default()
        };
        reg.publish(packed(18, &bits), "slow", Some(cfg)).unwrap();
        let epoch = reg.epoch();
        assert_eq!(
            reg.report_shadow(epoch, 1, 0, 10, 30),
            ShadowVerdict::Continue
        );
        // An in-band batch resets the strike counter.
        assert_eq!(
            reg.report_shadow(epoch, 1, 0, 10, 15),
            ShadowVerdict::Continue
        );
        assert_eq!(
            reg.report_shadow(epoch, 1, 0, 10, 30),
            ShadowVerdict::Continue
        );
        assert_eq!(
            reg.report_shadow(epoch, 1, 0, 10, 30),
            ShadowVerdict::RolledBack(RollbackReason::Latency)
        );
    }

    #[test]
    fn candidate_fault_rolls_back_immediately() {
        let bits = BitWidthSet::new(vec![4]).unwrap();
        let reg = ModelRegistry::new(packed(19, &bits), "seed");
        reg.publish(packed(20, &bits), "crashy", Some(CanaryConfig::default()))
            .unwrap();
        let epoch = reg.epoch();
        assert_eq!(
            reg.report_candidate_fault(epoch),
            ShadowVerdict::RolledBack(RollbackReason::CandidateFault)
        );
        assert_eq!(reg.metrics().rollbacks, 1);
        // Stale fault reports after the rollback are ignored.
        assert_eq!(reg.report_candidate_fault(epoch), ShadowVerdict::Continue);
        assert_eq!(reg.metrics().rollbacks, 1);
    }

    #[test]
    fn publish_while_canary_in_flight_is_refused() {
        let bits = BitWidthSet::new(vec![4]).unwrap();
        let reg = ModelRegistry::new(packed(21, &bits), "seed");
        reg.publish(packed(22, &bits), "v2", Some(CanaryConfig::default()))
            .unwrap();
        let err = reg.publish(packed(23, &bits), "v3", None).unwrap_err();
        assert!(matches!(err, PublishError::CanaryInFlight));
        assert!(reg.rollback(), "manual rollback clears the canary");
        assert!(!reg.rollback(), "no canary left to roll back");
        reg.publish(packed(23, &bits), "v3", None).unwrap();
        assert_eq!(reg.current().label(), "v3");
    }

    #[test]
    fn invalid_canary_config_is_a_typed_error() {
        let bits = BitWidthSet::new(vec![4]).unwrap();
        let reg = ModelRegistry::new(packed(25, &bits), "seed");
        for cfg in [
            CanaryConfig {
                fraction: 0.0,
                ..CanaryConfig::default()
            },
            CanaryConfig {
                fraction: 1.5,
                ..CanaryConfig::default()
            },
            CanaryConfig {
                max_divergences: 0,
                ..CanaryConfig::default()
            },
            CanaryConfig {
                clean_window: 0,
                ..CanaryConfig::default()
            },
            CanaryConfig {
                latency_strikes: 0,
                ..CanaryConfig::default()
            },
            CanaryConfig {
                latency_band: Some(0.5),
                ..CanaryConfig::default()
            },
        ] {
            let err = reg
                .publish(packed(26, &bits), "bad-cfg", Some(cfg))
                .unwrap_err();
            assert!(matches!(err, PublishError::Config(_)));
        }
    }
}
