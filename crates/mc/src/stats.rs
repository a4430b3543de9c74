//! Search statistics and memory accounting.
//!
//! Besides the usual visited/enqueued counters, the accounting here backs
//! two figures of the paper's evaluation: Fig. 15 (memory consumed by the
//! search as a function of depth — "less than 1MB [at depth 7–8] and can
//! thus easily fit in the L2 cache") and Fig. 16 (memory per visited state,
//! converging to ≈150 bytes).

use std::time::Duration;

use cb_obs::metrics::{Counter, Gauge};

// The scrapeable search-layer families, fed by every engine through
// [`SearchStats::publish`]: the explored set's memory shape (gauges
// reflect the most recently finished search — what "is the checker's
// memory budget holding" means mid-deployment) and cumulative visit and
// memo counters.
static M_STATES_VISITED: Counter = Counter::new(
    "cb_mc_states_visited_total",
    "states visited across all searches",
);
static M_EXPLORED_RESIDENT: Gauge = Gauge::new(
    "cb_mc_explored_resident_bytes",
    "explored-set bytes resident in memory after the last search",
);
static M_MEMO_HITS: Counter = Counter::new(
    "cb_mc_transition_memo_hits_total",
    "keyed successors a search's transition memo held, hashed or built from it (a successor hashed unbuilt and built later counts once)",
);
static M_MEMO_MISSES: Counter = Counter::new(
    "cb_mc_transition_memo_misses_total",
    "keyed successors a search's transition memo did not hold, which ran their handler (each counted once)",
);

/// Counters and memory estimates collected during one search run.
#[derive(Clone, Debug, Default)]
pub struct SearchStats {
    /// States dequeued and expanded (the paper's "visited states").
    pub states_visited: usize,
    /// States pushed onto the frontier (deduplicated).
    pub states_enqueued: usize,
    /// Successor states discarded because their hash was already seen.
    pub duplicates_hit: usize,
    /// Node-expansions skipped by consequence prediction's `localExplored`
    /// test (0 for exhaustive search); the pruning-factor ablation reads
    /// this.
    pub local_prunes: usize,
    /// Events suppressed by installed [`crate::EventFilter`]s.
    pub filtered_events: usize,
    /// Deepest level fully or partially expanded.
    pub max_depth: usize,
    /// Visited states per depth level (index = depth).
    pub per_depth: Vec<usize>,
    /// Wall-clock time spent searching.
    pub elapsed: Duration,
    /// Parallel engine only: time the coordinator spent in its in-order
    /// collects — walking each wave's leading edges in canonical order and
    /// enqueueing those whose explored-table claim still holds.
    pub merge_busy: Duration,
    /// Always 0: the coordinator collects a wave only after the wave's
    /// scope has returned, so nothing waits on a merge. Kept only because
    /// the benchmark crate (`benchmark/`) reads it; it goes when that crate
    /// stops naming it.
    pub merge_wait: Duration,
    /// Parallel engine only: contiguous job ranges phase 3 expanded,
    /// summed over levels — one pool task each, or one inline pass for a
    /// level that fits a single range. 0 says the sequential loop ran
    /// (`Engine::Sequential`, or `Engine::Parallel` at one worker).
    pub expand_ranges: usize,
    /// Parallel engine only: exactly one entry, equal to `merge_busy`,
    /// whenever the phased engine ran; empty under the sequential loop.
    /// Kept only because the benchmark crate (`benchmark/`) reads it; it
    /// goes when that crate stops naming it.
    pub merge_shard_busy: Vec<Duration>,
    /// Resident bytes of the explored set at search end (the parallel
    /// engine's open-addressing segments; the sequential loop's hash-set
    /// entries).
    pub explored_resident_bytes: usize,
    /// Always 0: the explored set never spills to disk, and nothing writes
    /// this field. Kept only because the benchmark crate (`benchmark/`)
    /// reads it; it goes when that crate stops naming it.
    pub explored_spilled_bytes: u64,
    /// Bytes of the search tree: parent-pointer arena entries plus the
    /// explored/localExplored hash entries (what Fig. 15 plots).
    pub tree_bytes: usize,
    /// Peak *logical* bytes of the frontier: every state awaiting
    /// expansion counted at its full, unshared size. Frontier states share
    /// the node slots their events did not write (`cb_model::SharedSlot`),
    /// so resident memory is below this; the figure stays comparable
    /// across engines and with earlier runs. A successor the sequential
    /// loop enqueues unbuilt (its parent and event, built when dequeued)
    /// is counted at the size it will have, from its parent's node count
    /// and the transition's in-flight and connection deltas.
    pub peak_frontier_bytes: usize,
    /// Number of property violations discovered.
    pub violations_found: usize,
    /// Keyed successors the search's `cb_model::TransitionMemo` held, so
    /// no handler ran: hashed from the table without being built (a
    /// duplicate is never built; a survivor is built when visited, and
    /// counts once), or built from it. Engine-dependent, like `merge_busy`:
    /// the sequential loop keeps one table per search, the parallel
    /// engine one per range task, so the split between hits and misses —
    /// never their effect — differs between engines and worker counts.
    pub memo_hits: usize,
    /// Keyed successors the memo did not hold, which ran their handler
    /// (unkeyed events — drops, deliveries to absent nodes — count as
    /// neither). Each keyed successor counts once, as a hit or a miss;
    /// the memo's recording rule reads these same two counters.
    pub memo_misses: usize,
}

impl SearchStats {
    /// Bytes per visited state (Fig. 16's metric); 0 when nothing was
    /// visited.
    pub fn bytes_per_state(&self) -> usize {
        self.tree_bytes
            .checked_div(self.states_visited)
            .unwrap_or(0)
    }

    /// Visited states per second of wall time.
    pub fn states_per_sec(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.states_visited as f64 / s
        }
    }

    /// Exposes the search families at zero before any search finishes.
    pub(crate) fn touch_metrics() {
        M_STATES_VISITED.touch();
        M_EXPLORED_RESIDENT.touch();
        M_MEMO_HITS.touch();
        M_MEMO_MISSES.touch();
    }

    /// Feeds a finished search into the metrics plane — the one exit
    /// every engine shares, so a gauge is always the stat it mirrors.
    pub(crate) fn publish(&self) {
        M_STATES_VISITED.add(self.states_visited as u64);
        M_EXPLORED_RESIDENT.set(self.explored_resident_bytes as u64);
        M_MEMO_HITS.add(self.memo_hits as u64);
        M_MEMO_MISSES.add(self.memo_misses as u64);
    }

    /// Records a visit at `depth`, growing the per-depth table as needed.
    pub(crate) fn record_visit(&mut self, depth: usize) {
        self.states_visited += 1;
        if depth >= self.per_depth.len() {
            self.per_depth.resize(depth + 1, 0);
        }
        self.per_depth[depth] += 1;
        self.max_depth = self.max_depth.max(depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_depth_tracking() {
        let mut s = SearchStats::default();
        s.record_visit(0);
        s.record_visit(2);
        s.record_visit(2);
        assert_eq!(s.per_depth, vec![1, 0, 2]);
        assert_eq!(s.max_depth, 2);
        assert_eq!(s.states_visited, 3);
    }

    #[test]
    fn derived_metrics() {
        let mut s = SearchStats::default();
        assert_eq!(s.bytes_per_state(), 0);
        assert_eq!(s.states_per_sec(), 0.0);
        s.states_visited = 10;
        s.tree_bytes = 1500;
        s.elapsed = Duration::from_millis(500);
        assert_eq!(s.bytes_per_state(), 150);
        assert!((s.states_per_sec() - 20.0).abs() < 1e-9);
    }
}
