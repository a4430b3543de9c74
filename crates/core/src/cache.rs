//! Cross-round prediction memoization: the `PredictionCache`.
//!
//! At deployment scale most neighborhood snapshots the checker sees are
//! near-duplicates: gathers fire on a period, overlay neighborhoods are
//! stable for long stretches, and a fleet of similar deployments keeps
//! re-submitting states the checker has already searched. The paper pays
//! full consequence-prediction cost for each (§2.3); the per-node
//! `last_snapshot_hash` dedup in the controller only catches *identical
//! consecutive* snapshots of one node. This module generalizes that into
//! a shared, bounded, canonically keyed memo of **whole round outcomes**:
//!
//! * the key is a deterministic FNV combination of everything a round's
//!   result depends on — the [`cb_model::GlobalState::state_hash`] of the
//!   gathered neighborhood, the submitting node and steering mode, a
//!   fingerprint of the search/steering configuration and protocol
//!   *instance* (two co-deployed members may run the same protocol type
//!   with different bug knobs), and a fingerprint of the predictor's
//!   remembered error paths (replay results depend on them);
//! * the value is the full round outcome (violation + canonical
//!   shallowest path, replay results, the derived safety-checked
//!   filter), type-erased so one cache instance can serve a whole
//!   mixed-protocol [`crate::CheckerHost`];
//! * entries are LRU-bounded, and hit/miss/insert/eviction counters are
//!   kept **per client** (per controller), so a fleet member's share of a
//!   host-wide cache is attributable in its own stats.
//!
//! Because the key covers every input of the round, a hit returns a
//! result byte-identical to what a cold run would compute — the
//! determinism contract of the sharded checker survives memoization, and
//! the cache-off leg of the CI fleet run proves it.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default bound on cached round outcomes (a shared host-wide cache; one
/// entry holds one violation path plus a couple of filters, so this is
/// small change next to the search's explored sets).
pub const DEFAULT_PREDICTION_CACHE_CAPACITY: usize = 1024;

/// Per-client memoization counters (atomics; shards of one pool bump the
/// same set concurrently).
#[derive(Debug, Default)]
pub struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

// Scrapeable mirrors of the cache counters: the `cb-obs` metrics plane
// aggregates per-process (all clients of the host-wide cache sum into
// one family), which is what a hit-rate health rule wants.
static M_HITS: cb_obs::metrics::Counter =
    cb_obs::metrics::Counter::new("cb_cache_hits_total", "prediction-cache lookups served");
static M_MISSES: cb_obs::metrics::Counter =
    cb_obs::metrics::Counter::new("cb_cache_misses_total", "prediction-cache lookups missed");

/// Registers the cache families without recording, so scrapes taken
/// before the first lookup still expose them at 0. Called from checker
/// construction.
pub(crate) fn touch_metric_families() {
    M_HITS.touch();
    M_MISSES.touch();
}

impl CacheCounters {
    // The bump methods double as the cache's trace-event and metrics
    // hooks: every backend (sync controller, sharded pool, fleet host)
    // funnels through them, so one instant + one family bump covers the
    // whole surface. `cb_obs` is outcome-invisible — disabled recorders
    // make these pure counter increments.
    pub(crate) fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        cb_obs::instant("cache.hit", "cache");
        M_HITS.inc();
    }
    pub(crate) fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        cb_obs::instant("cache.miss", "cache");
        M_MISSES.inc();
    }

    /// A point-in-time copy of the counters. Each field is read with one
    /// relaxed load, so a snapshot taken *while shards are bumping* may
    /// mix before/after values of different counters — fine for the
    /// full-JSON stats surfaces, not for invariant checks. See
    /// [`CacheCounters::quiesced_snapshot`].
    pub fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// A *consistent* copy of the counters, for callers that have
    /// quiesced the cache's clients (e.g. after `WireChecker::drain` /
    /// pool shutdown): reads the whole set repeatedly until two
    /// consecutive reads agree, so the result is a single point-in-time
    /// view rather than a mix of per-field instants. At rest this
    /// converges on the first iteration; under residual concurrent
    /// bumping it falls back to the last (racy) read after a bounded
    /// number of attempts rather than spinning forever.
    pub fn quiesced_snapshot(&self) -> CacheStats {
        let mut prev = self.snapshot();
        for _ in 0..64 {
            let next = self.snapshot();
            if next == prev {
                return next;
            }
            prev = next;
        }
        prev
    }
}

/// Snapshot of one client's [`CacheCounters`] — what
/// [`crate::Controller::checker_cache_stats`] returns and what the fleet
/// and live stats surfaces serialize.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Rounds answered from the cache (byte-identical to a cold run).
    pub hits: u64,
    /// Rounds that ran the full search.
    pub misses: u64,
    /// Outcomes inserted (cold completions).
    pub inserts: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups (0.0 with no lookups).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    value: Arc<dyn Any + Send + Sync>,
    last_used: u64,
}

struct Inner {
    map: HashMap<u64, Entry>,
    /// Monotonic LRU clock (bumped on every touch).
    tick: u64,
}

/// The shared, bounded, type-erased memo of round outcomes. One instance
/// lives in every [`crate::CheckerHost`] (all pools — hence all fleet
/// members — on that host share it); a synchronous-backend controller
/// owns a private one.
pub struct PredictionCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl std::fmt::Debug for PredictionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("prediction cache poisoned");
        f.debug_struct("PredictionCache")
            .field("entries", &inner.map.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl Default for PredictionCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_PREDICTION_CACHE_CAPACITY)
    }
}

impl PredictionCache {
    /// A cache bounded to `capacity` entries (at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        PredictionCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("prediction cache poisoned")
            .map
            .len()
    }

    /// True when no outcome is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks one outcome up, bumping the client's hit/miss counters and
    /// the entry's recency. The type parameter is the caller's concrete
    /// round-outcome type; a key collision across types cannot happen
    /// because the protocol-instance fingerprint is part of every key.
    pub(crate) fn lookup<T: Send + Sync + 'static>(
        &self,
        key: u64,
        counters: &CacheCounters,
    ) -> Option<Arc<T>> {
        let mut inner = self.inner.lock().expect("prediction cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        let hit = inner.map.get_mut(&key).and_then(|e| {
            e.last_used = tick;
            e.value.clone().downcast::<T>().ok()
        });
        drop(inner);
        match hit {
            Some(v) => {
                counters.hit();
                Some(v)
            }
            None => {
                counters.miss();
                None
            }
        }
    }

    /// Inserts one outcome, evicting the least-recently-used entry when
    /// over capacity. Racing inserts of the same key are benign: the key
    /// determines the value, so last-writer-wins stores identical data.
    pub(crate) fn insert<T: Send + Sync + 'static>(
        &self,
        key: u64,
        value: Arc<T>,
        counters: &CacheCounters,
    ) {
        let mut inner = self.inner.lock().expect("prediction cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(
            key,
            Entry {
                value,
                last_used: tick,
            },
        );
        counters.inserts.fetch_add(1, Ordering::Relaxed);
        while inner.map.len() > self.capacity {
            // O(n) min-scan: capacity is small and eviction rare next to
            // the searches a single miss costs.
            let oldest = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("non-empty over capacity");
            inner.map.remove(&oldest);
            counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PredictionCache {
        /// True when `key` is cached (no counter movement).
        fn contains(&self, key: u64) -> bool {
            self.inner
                .lock()
                .expect("prediction cache poisoned")
                .map
                .contains_key(&key)
        }
    }

    #[test]
    fn lookup_insert_and_counters() {
        let cache = PredictionCache::with_capacity(4);
        let c = CacheCounters::default();
        assert!(cache.lookup::<String>(7, &c).is_none());
        cache.insert(7, Arc::new("outcome".to_string()), &c);
        let got = cache.lookup::<String>(7, &c).expect("cached");
        assert_eq!(*got, "outcome");
        let s = c.snapshot();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_evicts_oldest() {
        let cache = PredictionCache::with_capacity(2);
        let c = CacheCounters::default();
        cache.insert(1, Arc::new(1u32), &c);
        cache.insert(2, Arc::new(2u32), &c);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.lookup::<u32>(1, &c).is_some());
        cache.insert(3, Arc::new(3u32), &c);
        assert!(cache.contains(1));
        assert!(!cache.contains(2));
        assert!(cache.contains(3));
        assert_eq!(c.snapshot().evictions, 1);
    }

    #[test]
    fn quiesced_snapshot_is_stable_at_rest() {
        let cache = PredictionCache::with_capacity(4);
        let c = CacheCounters::default();
        // Drive some movement, with concurrency while it lasts.
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = &cache;
                let c = &c;
                s.spawn(move || {
                    for i in 0..50 {
                        let key = t * 1000 + i;
                        let _ = cache.lookup::<u64>(key, c);
                        cache.insert(key, Arc::new(key), c);
                        let _ = cache.lookup::<u64>(key, c);
                    }
                });
            }
        });
        // All clients joined: the counters are at rest, so repeated
        // quiesced snapshots must agree exactly — with each other and
        // with the plain racy read.
        let first = c.quiesced_snapshot();
        for _ in 0..10 {
            assert_eq!(c.quiesced_snapshot(), first);
            assert_eq!(c.snapshot(), first);
        }
        assert_eq!(first.hits + first.misses, 4 * 50 * 2);
        assert_eq!(first.inserts, 4 * 50);
    }
}
