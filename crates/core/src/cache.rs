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
//! the cache-off leg of the CI fleet run proves it. The same property is
//! what makes **optimistic execution** safe: a round run speculatively on a partial
//! gather (see `Predictor::speculate_round` in `crate::service`) just
//! pre-warms the cache under the partial state's key; if the completed
//! snapshot hashes to the speculated base the real round hits (the
//! speculation *commits*), otherwise it misses and re-runs cold (the
//! speculation is *cancelled* — counted, never applied to filters).

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default bound on cached round outcomes (a shared host-wide cache; one
/// entry holds one violation path plus a couple of filters, so this is
/// small change next to the search's explored sets).
pub const DEFAULT_PREDICTION_CACHE_CAPACITY: usize = 1024;

/// Per-client memoization and speculation counters (atomics; shards of
/// one pool bump the same set concurrently).
#[derive(Debug, Default)]
pub struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    spec_started: AtomicU64,
    spec_committed: AtomicU64,
    spec_cancelled: AtomicU64,
}

// Scrapeable mirrors of the cache counters: the `cb-obs` metrics plane
// aggregates per-process (all clients of the host-wide cache sum into
// one family), which is what a hit-rate health rule wants.
static M_HITS: cb_obs::metrics::Counter =
    cb_obs::metrics::Counter::new("cb_cache_hits_total", "prediction-cache lookups served");
static M_MISSES: cb_obs::metrics::Counter =
    cb_obs::metrics::Counter::new("cb_cache_misses_total", "prediction-cache lookups missed");
static M_SPEC_STARTED: cb_obs::metrics::Counter = cb_obs::metrics::Counter::new(
    "cb_cache_spec_started_total",
    "speculative (partial-gather) rounds started",
);
static M_SPEC_COMMITS: cb_obs::metrics::Counter = cb_obs::metrics::Counter::new(
    "cb_cache_spec_commits_total",
    "speculative rounds whose pre-warmed entry the real round hit",
);
static M_SPEC_CANCELS: cb_obs::metrics::Counter = cb_obs::metrics::Counter::new(
    "cb_cache_spec_cancels_total",
    "speculative rounds discarded (completed snapshot diverged)",
);

/// Registers the cache families without recording, so scrapes taken
/// before the first lookup (or on a run whose speculation never fires)
/// still expose them at 0. Called from checker construction.
pub(crate) fn touch_metric_families() {
    M_HITS.touch();
    M_MISSES.touch();
    M_SPEC_STARTED.touch();
    M_SPEC_COMMITS.touch();
    M_SPEC_CANCELS.touch();
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
    pub(crate) fn spec_started(&self) {
        self.spec_started.fetch_add(1, Ordering::Relaxed);
        cb_obs::instant("cache.spec_started", "cache");
        M_SPEC_STARTED.inc();
    }
    pub(crate) fn spec_committed(&self) {
        self.spec_committed.fetch_add(1, Ordering::Relaxed);
        cb_obs::instant("cache.spec_commit", "cache");
        M_SPEC_COMMITS.inc();
    }
    pub(crate) fn spec_cancelled(&self) {
        self.spec_cancelled.fetch_add(1, Ordering::Relaxed);
        cb_obs::instant("cache.spec_cancel", "cache");
        M_SPEC_CANCELS.inc();
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
            spec_started: self.spec_started.load(Ordering::Relaxed),
            spec_committed: self.spec_committed.load(Ordering::Relaxed),
            spec_cancelled: self.spec_cancelled.load(Ordering::Relaxed),
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
    /// Outcomes inserted (cold completions plus speculative pre-warms).
    pub inserts: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Speculative rounds launched on partial gathers.
    pub spec_started: u64,
    /// Speculations whose base matched the completed snapshot (the real
    /// round hit the pre-warmed entry).
    pub spec_committed: u64,
    /// Speculations whose base diverged: the work was discarded and the
    /// round re-ran cold. Never applied to filters.
    pub spec_cancelled: u64,
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

    /// Compact JSON via the shared [`cb_obs::json::Writer`] (the one
    /// escaping-correct emitter every stats surface renders through).
    pub fn to_json(&self) -> String {
        let mut w = cb_obs::json::Writer::object(cb_obs::json::Style::Compact);
        w.field_u64("hits", self.hits)
            .field_u64("misses", self.misses)
            .field_u64("inserts", self.inserts)
            .field_u64("evictions", self.evictions)
            .field_u64("spec_started", self.spec_started)
            .field_u64("spec_committed", self.spec_committed)
            .field_u64("spec_cancelled", self.spec_cancelled)
            .field_f64("hit_rate", self.hit_rate(), 4);
        w.finish()
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

    /// True when `key` is already cached (no counter movement — used to
    /// skip redundant speculative runs).
    pub(crate) fn contains(&self, key: u64) -> bool {
        self.inner
            .lock()
            .expect("prediction cache poisoned")
            .map
            .contains_key(&key)
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

    #[test]
    fn cache_stats_json_is_valid() {
        let c = CacheCounters::default();
        c.hit();
        c.miss();
        let json = c.snapshot().to_json();
        let v = cb_obs::json::parse(&json).expect("valid JSON");
        assert_eq!(v.get("hits").and_then(cb_obs::json::Value::as_u64), Some(1));
        assert_eq!(
            v.get("hit_rate").and_then(cb_obs::json::Value::as_f64),
            Some(0.5)
        );
    }
}
