//! The exact-key LRU content cache in front of the step loop's forwards.

use instantnet_quant::BitWidth;
use instantnet_tensor::Tensor;
use std::collections::HashMap;

/// Content-cache key: the pinned model generation, the serving
/// bit-width, and the sample's exact f32 bit patterns.
pub(crate) type CacheKey = (u64, u8, Vec<u32>);

/// Exact content key of one request served by one model generation at one
/// bit-width: the sample's f32 bit patterns. Keying on the full pattern
/// (not a digest) means a cache hit is *provably* the same input, so the
/// cached output is bit-identical to recomputing — no collision can serve
/// the wrong tensor. The generation component makes the key
/// version-aware: a hot reload changes the pinned
/// [`crate::registry::ModelVersion`]'s generation, so entries computed by
/// superseded weights can never answer post-reload traffic — they simply
/// stop being probed and age out of the LRU.
pub(crate) fn cache_key(generation: u64, bits: BitWidth, sample: &Tensor) -> CacheKey {
    (
        generation,
        bits.get(),
        sample.data().iter().map(|v| v.to_bits()).collect(),
    )
}

/// Capacity-bounded content cache with least-recently-used eviction.
///
/// Recency is a monotone tick stamped on every hit and insert; eviction
/// scans for the minimum tick. Ticks are unique, so the victim is
/// deterministic — independent of `HashMap` iteration order — keeping
/// sharded runs reproducible. The O(capacity) victim scan only runs on
/// insertions past the cap, which a duplicate-heavy trace (the workload
/// the cache exists for) makes rare.
pub(crate) struct LruCache {
    capacity: usize,
    tick: u64,
    map: HashMap<CacheKey, (Tensor, u64)>,
    evictions: usize,
}

impl LruCache {
    pub(crate) fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            tick: 0,
            map: HashMap::new(),
            evictions: 0,
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub(crate) fn get(&mut self, key: &CacheKey) -> Option<&Tensor> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(y, at)| {
            *at = tick;
            &*y
        })
    }

    /// Inserts `key → out` if absent, evicting the least-recently-used
    /// entry when at capacity; refreshes recency (and keeps the existing
    /// tensor) if present. Clones `out` only when actually inserting.
    pub(crate) fn insert(&mut self, key: CacheKey, out: &Tensor) {
        self.tick += 1;
        if let Some((_, at)) = self.map.get_mut(&key) {
            *at = self.tick;
            return;
        }
        if self.map.len() >= self.capacity {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, (_, at))| *at)
                .map(|(k, _)| k.clone())
                .expect("cache at capacity ≥ 1 is non-empty");
            self.map.remove(&victim);
            self.evictions += 1;
        }
        self.map.insert(key, (out.clone(), self.tick));
    }

    /// Entries evicted so far to stay within capacity.
    pub(crate) fn evictions(&self) -> usize {
        self.evictions
    }
}
