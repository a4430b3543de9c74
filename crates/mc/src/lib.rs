//! # cb-mc — model checking engines
//!
//! Implements both state-space exploration algorithms of the CrystalBall
//! paper over the `cb-model` system model:
//!
//! * **Exhaustive search** ([`find_errors`]) — the standard breadth-first
//!   search with state-hash caching of Fig. 5, representing the MaceMC
//!   baseline the paper compares against (§5.3, Fig. 12);
//! * **Consequence prediction** ([`find_consequences`]) — Fig. 8: the same
//!   loop, except that *local actions of node n in state s are explored at
//!   most once globally* (the `localExplored` test). "Although simple, the
//!   idea ... has a profound impact on the search depth that the model
//!   checker can feasibly reach with a limited time budget" (§3.2).
//! * **Random walk** ([`search::random_walk`]) — the MaceMC random-walk mode
//!   used as a second baseline in §5.3.
//!
//! Shared machinery:
//!
//! * [`SearchConfig`] — stop criteria (depth / states / wall-clock deadline,
//!   the paper's `StopCriterion`), environment-event options, event filters
//!   honored during exploration (for the filter-safety check of §3.3);
//! * [`SearchOutcome`] / [`FoundViolation`] — violations reported "in the
//!   form of a sequence of events that leads to an erroneous state" (§3),
//!   reconstructed from a parent-pointer arena;
//! * [`SearchStats`] — visited/enqueued counts, per-depth tallies, the
//!   memory accounting behind Fig. 15/16, and the parallel coordinator's
//!   `merge_busy`/`merge_wait` split;
//! * [`replay_path`] — re-checks a previously discovered error path against
//!   a *new* snapshot by replaying only timer/application events and
//!   following message causality (§4 "Replaying Past Erroneous Paths");
//! * [`EventFilter`] — the runtime-installable description of events to
//!   block, shared with the `crystalball` controller;
//! * [`WorkerPool`] — a shared, scoped worker pool: the parallel engine's
//!   phases, known-path replays, filter-safety re-checks, and concurrent
//!   checker shards all multiplex their independent work over one set of
//!   threads ([`Searcher::search_on`] / [`Searcher::run_parallel_pooled`]).

pub mod filter;
pub mod frontier;
pub mod parallel;
pub mod pool;
pub mod replay;
pub mod report;
pub mod search;
pub mod stats;

pub use filter::{EventFilter, FilterSet};
pub use frontier::{Admission, ExploredBatch, LockFreeExplored};
pub use parallel::{
    find_consequences_parallel, find_errors_parallel, ParallelConfig, MAX_MERGE_SHARDS,
};
pub use pool::{PoolScope, WorkerPool};
pub use replay::{replay_path, ReplayOutcome};
pub use report::{FoundViolation, PathStep, SearchOutcome, StopReason};
pub use search::{find_consequences, find_errors, random_walk, Engine, SearchConfig, Searcher};
pub use stats::SearchStats;
