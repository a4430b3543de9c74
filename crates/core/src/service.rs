//! The sharded checker service and the staged prediction round.
//!
//! "We run the model checker as a separate thread that communicates future
//! inconsistencies to the runtime. ... On a multi-core machine this
//! CPU-intensive process will likely be scheduled on a separate core" (§4).
//!
//! `Predictor` is one full CrystalBall checking round, split into its
//! three independent-search stages — known-path replays, the main
//! consequence-prediction run, and the filter-safety re-check — described
//! by a `PredictionJob`. The replays and the main search are independent
//! of each other, so they run *concurrently* on a shared
//! [`cb_mc::WorkerPool`]; the safety re-check (which needs the main
//! search's result) runs on the same pool afterwards.
//!
//! `CheckerPool` is the one path every round takes, sharded by node:
//! rounds for node *n* always execute on shard `n mod shards`, which keeps
//! each node's remembered error paths (`known_paths`) on the shard that
//! will replay them while letting snapshots from *different* nodes check
//! in parallel. All shards draw their search parallelism from one shared
//! worker pool, so a shard running a big prediction borrows the workers an
//! idle shard is not using. The checker mode only picks where a shard's
//! rounds run: synchronous mode is one shard with no lanes, whose `submit`
//! runs the round inline on the caller (deterministic, used by tests and
//! modeled-latency experiments); sharded mode runs them on lanes.
//!
//! The lanes live in a [`CheckerHost`] — a protocol-agnostic set of
//! threads that *multiple* controllers (over different protocol types) can
//! share, which is how the fleet harness multiplexes a whole
//! mixed-protocol deployment over one checker service. A sharded pool
//! given no host spawns a private one, one lane per shard.
//!
//! A round takes its `GlobalState` **by value, shared**: a clone is one
//! refcount bump per node slot plus the message bags, whose items are
//! immutable `Queued` handles, and `slot_mut` copies a slot on write — so
//! nothing a submitter writes after `submit` reaches the round's copy.
//! Diffs belong to the network hop (§3.1): only [`WireChecker`] decodes
//! node-shipped deltas, at its ingress.
//!
//! Rounds are additionally **memoized**: every predictor on a host keys
//! completed round outcomes into the host's shared
//! [`crate::PredictionCache`], so a neighborhood state any member of the
//! deployment has already checked — under the same search configuration,
//! protocol instance, and remembered-path set — is answered without
//! re-searching. Only a completed gather is ever checked: a round's input
//! is the consistent neighborhood snapshot of §2.3, never a partial one.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use cb_mc::{
    replay_path, EventFilter, FilterSet, FoundViolation, PathStep, ReplayOutcome, SearchConfig,
    Searcher, WorkerPool,
};
use cb_model::hashing::combine;
use cb_model::{
    apply_event, stable_hash, EventKey, GlobalState, NodeId, PropertySet, Protocol, SimTime,
};
use cb_snapshot::{DeltaDecoder, DeltaError, StateDelta};

use crate::cache::{CacheCounters, CacheStats, PredictionCache};
use crate::controller::ControllerConfig;

/// Where prediction rounds execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CheckerMode {
    /// Rounds run inline in [`crate::Controller::run_round`] and block the
    /// caller; filters activate after the *modeled* `mc_latency`.
    /// Deterministic — the right mode for tests and repeatable
    /// experiments.
    #[default]
    Synchronous,
    /// Rounds run on a background `CheckerPool` with `shards` shard
    /// threads — the live system keeps stepping, results are drained from
    /// the controller's hook entry points, and filters activate when
    /// their round actually completes, so `mc_latency` becomes a
    /// measurement instead of a model. Rounds are sharded by node
    /// (per-node `known_paths` affinity), so snapshots from different
    /// nodes check concurrently; `shards: 1` is the single background
    /// checker thread of §4.
    ///
    /// Affinity granularity, by design: each shard remembers only the
    /// error paths its *own* nodes' rounds discovered, so a node's
    /// replay fast path (§3.3 "Rechecking Previously Discovered
    /// Violations") is always served by its shard, but a path learned
    /// from a node on another shard is not replayed — the main
    /// consequence-prediction run remains the discovery mechanism
    /// across shards. With 1 shard this coincides exactly with the
    /// global `known_paths` of the synchronous backend.
    Sharded {
        /// Number of checker shard threads (at least 1).
        shards: usize,
    },
}

/// Identity of one checking round: which snapshot is being checked and in
/// which controller mode — the job description every `Predictor` stage
/// receives.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PredictionJob {
    /// When the snapshot that feeds the round completed (simulated time).
    pub at: SimTime,
    /// The node whose snapshot is checked (also the shard key).
    pub node: NodeId,
    /// Whether the round should derive and safety-check filters.
    pub steering: bool,
    /// Observability round id (`cb_obs` causality tag), minted by the
    /// submitter and carried through every stage so one
    /// gather→predict→install round is joinable across threads in a
    /// trace. 0 = untagged. Never read by any deterministic surface.
    pub tag: u64,
}

/// The outcome of one checking round, ready for the controller to apply.
pub(crate) struct RoundResult<P: Protocol> {
    /// Submission sequence number. Lanes complete out of order, so the
    /// pool sorts a drained batch by `seq` — rounds then fold into the
    /// live state in exactly the order they were submitted, which is what
    /// makes a fleet run reproducible across host thread counts.
    pub seq: u64,
    /// When the snapshot that fed the round completed (simulated time).
    pub at: SimTime,
    /// The node whose snapshot was checked.
    pub node: NodeId,
    /// Whether this round was asked to steer (vs debug-only).
    pub steering: bool,
    /// Known-path replays that re-discovered their violation.
    pub replays_rediscovered: u64,
    /// Everything the round installs at its node, in application order:
    /// the filters replay reinstated, then the corrective filter.
    pub filters: Vec<EventFilter>,
    /// The shallowest predicted violation, if any.
    pub found: Option<FoundViolation<P>>,
    /// States the prediction run visited.
    pub states_visited: usize,
    /// Whether steering found a safe corrective filter (last in `filters`).
    pub corrective: bool,
    /// Measured wall-clock time of the whole round (replay + prediction +
    /// safety check) — the paper's "model checker runs for n seconds",
    /// observed rather than assumed.
    pub wall: Duration,
}

/// The cacheable payload of one completed checking round — everything a
/// round computes that depends only on its inputs (snapshot state,
/// configuration, remembered paths), and none of the per-submission
/// envelope (`seq`, `at`, measured wall time). This is what a
/// [`crate::PredictionCache`] entry holds; replaying it through
/// [`Predictor::run_round`] yields a `RoundResult` identical to a cold
/// run's.
pub(crate) struct CachedRound<P: Protocol> {
    replays_rediscovered: u64,
    filters: Vec<EventFilter>,
    found: Option<FoundViolation<P>>,
    states_visited: usize,
    corrective: bool,
}

/// One CrystalBall checking round: the checker-side half of the
/// controller, holding the state that belongs to checking (the remembered
/// error paths) and none of the live-side state (installed filters, ISC).
pub(crate) struct Predictor<P: Protocol> {
    protocol: P,
    props: PropertySet<P>,
    /// Shared with the controller and every sibling shard — one
    /// allocation, not one clone per shard.
    config: Arc<ControllerConfig>,
    /// The main-run search config, derived from `config.search` once at
    /// construction instead of once per round.
    predict_cfg: SearchConfig,
    /// The safety-re-check config minus the candidate filter, likewise
    /// derived once.
    safety_base: SearchConfig,
    /// The shared pool all of this round's independent searches run on.
    pool: WorkerPool,
    /// Remembered error paths, each keyed by its deterministic path hash
    /// (§3.3 replays). The hash both dedups — an error path rediscovered
    /// every round must not crowd identical copies into the
    /// `max_known_paths` replay slots — and makes the set cheap to
    /// fingerprint into cache keys.
    known_paths: VecDeque<(u64, Vec<PathStep<P>>)>,
    /// The shared round-outcome memo (host-wide under a `CheckerHost`;
    /// private in a synchronous pool).
    cache: Arc<PredictionCache>,
    /// This client's share of the cache traffic.
    counters: Arc<CacheCounters>,
    /// Memoization toggle ([`ControllerConfig::prediction_cache`]).
    use_cache: bool,
    /// Fingerprint of everything round outcomes depend on besides the
    /// submitted state and the remembered paths: the protocol instance
    /// (its `Debug` form — the trait is not `Hash`, and two members may
    /// run the same protocol type with different bug knobs), the property
    /// set, the engine, and the derived search/safety configs. Computed
    /// once; folded into every round key.
    static_key: u64,
}

// Scrapeable round timings. These sit below every backend (fleet hosts,
// the live checker process, sync controllers), so one set of families
// covers "how long do checking rounds take" everywhere.
static M_ROUND_US: cb_obs::metrics::Hist = cb_obs::metrics::Hist::new(
    "cb_checker_round_us",
    "whole checking round wall time (replay + prediction + safety), microseconds",
);
static M_REPLAY_US: cb_obs::metrics::Hist = cb_obs::metrics::Hist::new(
    "cb_checker_replay_us",
    "known-path replay wall time, microseconds",
);
static M_PREDICT_US: cb_obs::metrics::Hist = cb_obs::metrics::Hist::new(
    "cb_checker_predict_us",
    "consequence-prediction search wall time, microseconds",
);

impl<P: Protocol> Predictor<P> {
    pub(crate) fn new(
        protocol: P,
        props: PropertySet<P>,
        config: Arc<ControllerConfig>,
        pool: WorkerPool,
        cache: Arc<PredictionCache>,
        counters: Arc<CacheCounters>,
    ) -> Self {
        M_ROUND_US.touch();
        M_REPLAY_US.touch();
        M_PREDICT_US.touch();
        crate::cache::touch_metric_families();
        let predict_cfg = SearchConfig {
            prune_local: true,
            ..config.search.clone()
        };
        let safety_base = SearchConfig {
            max_states: Some(config.safety_check_states),
            prune_local: true,
            ..config.search.clone()
        };
        let static_key = combine(
            stable_hash(&format!("{protocol:?}")),
            combine(
                stable_hash(&props.names()),
                combine(
                    stable_hash(&format!("{:?}", config.engine)),
                    combine(
                        stable_hash(&format!("{predict_cfg:?}")),
                        stable_hash(&format!("{safety_base:?}")),
                    ),
                ),
            ),
        );
        let static_key = combine(
            static_key,
            stable_hash(&(
                config.replay_known_paths,
                config.check_filter_safety,
                config.reset_connection_on_block,
                config.max_known_paths,
            )),
        );
        // A deadline-bounded search's outcome depends on wall-clock speed;
        // memoizing it would trade determinism for throughput.
        let use_cache = config.prediction_cache && predict_cfg.deadline.is_none();
        Predictor {
            protocol,
            props,
            config,
            predict_cfg,
            safety_base,
            pool,
            known_paths: VecDeque::new(),
            cache,
            counters,
            use_cache,
            static_key,
        }
    }

    /// The canonical cache key of one round: static fingerprint + the
    /// submitted neighborhood's state hash + the job identity (node and
    /// steering decide filter derivation) + the remembered-path set the
    /// replays will run (order-dependent — replay filters apply in
    /// `known_paths` order). `None` when memoization is off.
    fn round_key(&self, job: &PredictionJob, start: &GlobalState<P>) -> Option<u64> {
        if !self.use_cache {
            return None;
        }
        let mut key = combine(self.static_key, start.state_hash());
        key = combine(key, stable_hash(&(job.node.0, job.steering)));
        for (path_hash, _) in &self.known_paths {
            key = combine(key, *path_hash);
        }
        Some(key)
    }

    /// Runs one full round against a decoded snapshot state, consulting
    /// the prediction cache first. A hit reproduces the cold round's
    /// result (and its `remember_path` side effect) without searching; a
    /// miss computes and memoizes.
    pub(crate) fn run_round(
        &mut self,
        job: PredictionJob,
        start: &GlobalState<P>,
    ) -> RoundResult<P> {
        let _span = cb_obs::span_id("checker.round", "checker", job.tag);
        let t0 = Instant::now();
        let key = self.round_key(&job, start);
        if let Some(key) = key {
            if let Some(cached) = self.cache.lookup::<CachedRound<P>>(key, &self.counters) {
                if let Some(found) = &cached.found {
                    self.remember_path(found);
                }
                let out = Self::materialize(job, &cached, t0);
                M_ROUND_US.observe(out.wall.as_micros() as u64);
                return out;
            }
        }
        let round = self.compute_round(&job, start);
        if let Some(found) = &round.found {
            self.remember_path(found);
        }
        let round = Arc::new(round);
        if let Some(key) = key {
            self.cache.insert(key, round.clone(), &self.counters);
        }
        let out = Self::materialize(job, &round, t0);
        M_ROUND_US.observe(out.wall.as_micros() as u64);
        out
    }

    /// Dresses a cached outcome in one submission's envelope.
    fn materialize(job: PredictionJob, round: &CachedRound<P>, t0: Instant) -> RoundResult<P> {
        RoundResult {
            seq: 0,
            at: job.at,
            node: job.node,
            steering: job.steering,
            replays_rediscovered: round.replays_rediscovered,
            filters: round.filters.clone(),
            found: round.found.clone(),
            states_visited: round.states_visited,
            corrective: round.corrective,
            wall: t0.elapsed(),
        }
    }

    /// The three search stages of one round, side-effect free (the caller
    /// owns `remember_path` and memoization). Stage 1 (known-path
    /// replays) and stage 2 (consequence prediction) are independent
    /// searches and execute concurrently on the shared pool; stage 3 (the
    /// filter-safety re-check) consumes stage 2's result and follows on
    /// the same pool.
    fn compute_round(&self, job: &PredictionJob, start: &GlobalState<P>) -> CachedRound<P> {
        // Stages 1 ∥ 2. The replays land in per-path slots so their
        // results are consumed in deterministic (known_paths) order no
        // matter which worker ran them.
        let this: &Predictor<P> = self;
        let n_replays = if this.config.replay_known_paths {
            this.known_paths.len()
        } else {
            0
        };
        let replay_slots: Vec<Mutex<Option<ReplayOutcome>>> =
            (0..n_replays).map(|_| Mutex::new(None)).collect();
        let outcome = this.pool.scope(|scope| {
            for (slot, (_, path)) in replay_slots.iter().zip(this.known_paths.iter()) {
                scope.spawn(move || {
                    // Fast path: replay previously discovered error paths
                    // (§3.3/§4). "If the problem reappears, CrystalBall
                    // immediately reinstalls the appropriate filter."
                    let _span = cb_obs::span_id("checker.replay", "checker", job.tag);
                    let t = cb_obs::metrics::enabled().then(Instant::now);
                    let out = replay_path(&this.protocol, &this.props, start, path, 256);
                    if let Some(t) = t {
                        M_REPLAY_US.observe(t.elapsed().as_micros() as u64);
                    }
                    *slot.lock().expect("replay slot poisoned") = Some(out);
                });
            }
            // The main consequence-prediction run (Fig. 8) on the calling
            // thread, which also lends a hand to queued pool work via the
            // engine's own scopes.
            let _span = cb_obs::span_id("checker.predict", "checker", job.tag);
            let t = cb_obs::metrics::enabled().then(Instant::now);
            let out = this.stage_predict(start);
            if let Some(t) = t {
                M_PREDICT_US.observe(t.elapsed().as_micros() as u64);
            }
            out
        });

        let mut replays_rediscovered = 0;
        let mut filters = Vec::new();
        for (slot, (_, path)) in replay_slots.iter().zip(self.known_paths.iter()) {
            let out = slot
                .lock()
                .expect("replay slot poisoned")
                .take()
                .expect("replay ran");
            if out.violates() {
                replays_rediscovered += 1;
                if job.steering {
                    if let Some(filter) = self.derive_filter(job.node, start, path) {
                        filters.push(filter);
                    }
                }
            }
        }

        let found = outcome.first().cloned();
        let mut corrective = false;
        if let Some(found) = found.as_ref().filter(|_| job.steering) {
            // Stage 3: the safety re-check, on the same shared pool.
            let _span = cb_obs::span_id("checker.safety", "checker", job.tag);
            let filter = self
                .derive_filter(job.node, start, &found.path)
                .filter(|f| self.filter_is_safe(start, f, found.depth));
            corrective = filter.is_some();
            filters.extend(filter);
        }

        CachedRound {
            replays_rediscovered,
            filters,
            found,
            states_visited: outcome.stats.states_visited,
            corrective,
        }
    }

    /// Stage 2: the main consequence-prediction search (Fig. 8), on
    /// whichever engine the controller was configured with, drawing
    /// parallel workers from the shared pool.
    fn stage_predict(&self, start: &GlobalState<P>) -> cb_mc::SearchOutcome<P> {
        Searcher::new(&self.protocol, &self.props, self.predict_cfg.clone()).search_on(
            start,
            &self.config.engine,
            Some(&self.pool),
        )
    }

    fn remember_path(&mut self, found: &FoundViolation<P>) {
        // Deterministic path fingerprint: the ordered event sequence (the
        // `TraceStep`s are derived from the events and need not hash).
        // `Event<P>`'s derived `Hash` demands `P: Hash`, which `Protocol`
        // does not promise — the `Debug` form is the stable identity.
        let h = found.path.iter().fold(0xcb, |acc, step| {
            combine(acc, stable_hash(&format!("{:?}", step.event)))
        });
        if self.known_paths.iter().any(|(k, _)| *k == h) {
            // The same error path rediscovered on a later round: it is
            // already in a replay slot, and duplicating it would both
            // waste `max_known_paths` budget and keep the remembered-path
            // fingerprint (hence every cache key) churning forever.
            return;
        }
        self.known_paths.push_back((h, found.path.clone()));
        while self.known_paths.len() > self.config.max_known_paths {
            self.known_paths.pop_front();
        }
    }

    /// Picks the corrective action: the earliest event on the predicted
    /// path that `node`'s own runtime can intercept ("Our current policy is
    /// to steer the execution as early as possible", §3.3).
    fn derive_filter(
        &self,
        node: NodeId,
        start: &GlobalState<P>,
        path: &[PathStep<P>],
    ) -> Option<EventFilter> {
        // Walk the path, tracking intermediate states so event keys resolve.
        // Paths remembered from earlier snapshots may not replay on this
        // one (message indices go stale); stop at the first event that no
        // longer resolves rather than applying it blindly.
        let mut state = start.clone();
        for step in path {
            let key = step.event.key(&state)?;
            match key {
                EventKey::Message { kind, src, dst } if dst == node => {
                    return Some(EventFilter::Message {
                        kind,
                        src,
                        dst,
                        reset_connection: self.config.reset_connection_on_block,
                    });
                }
                EventKey::Action { kind, node: n } if n == node => {
                    return Some(EventFilter::Handler { kind, node });
                }
                _ => {}
            }
            apply_event(&self.protocol, &mut state, &step.event);
        }
        None
    }

    /// Stage 3 — §3.3 "Checking Safety of Event Filters": re-run
    /// consequence prediction with the filter applied. The filter is deemed
    /// safe when the steered execution reaches no violation within the
    /// budget, or none *sooner* than the unfiltered execution would —
    /// blocking an event must not hasten an inconsistency, but it need not
    /// fix futures that were already independently broken (e.g. a
    /// different node's reset tripping the same protocol bug along a
    /// parallel path).
    fn filter_is_safe(
        &self,
        start: &GlobalState<P>,
        filter: &EventFilter,
        unfiltered_depth: usize,
    ) -> bool {
        if !self.config.check_filter_safety {
            return true;
        }
        let cfg = SearchConfig {
            filters: FilterSet::from_iter([filter.clone()]),
            ..self.safety_base.clone()
        };
        let outcome = Searcher::new(&self.protocol, &self.props, cfg).search_on(
            start,
            &self.config.engine,
            Some(&self.pool),
        );
        match outcome.first() {
            None => true,
            Some(found) => found.depth >= unfiltered_depth,
        }
    }
}

/// A protocol-agnostic set of long-lived checker **lanes** (threads) that
/// any number of `CheckerPool`s — over *different* protocol types —
/// submit their rounds to. This is how a fleet of co-deployed
/// heterogeneous simulations shares one checker service: each
/// controller's pool keeps its own per-shard predictors, but the threads
/// doing the checking are fleet-wide, so a member with nothing to check
/// donates its lanes to a busy neighbor.
///
/// Routing invariant: a `CheckerPool` shard is pinned to one lane for
/// its lifetime, and each lane is a single thread draining a FIFO
/// channel — so the per-shard (and hence per-node) round order that the
/// remembered paths and the replay cache rely on survives sharing.
pub struct CheckerHost {
    lanes: Vec<mpsc::Sender<HostJob>>,
    handles: Vec<thread::JoinHandle<()>>,
    next_lane: std::sync::atomic::AtomicUsize,
    /// The host-wide round-outcome memo: every pool on this host keys its
    /// predictors into one cache, so a state one fleet member already
    /// checked is a hit for every co-deployed member with the same
    /// protocol instance and configuration.
    cache: Arc<PredictionCache>,
}

type HostJob = Box<dyn FnOnce() + Send + 'static>;

impl CheckerHost {
    /// Spawns `lanes` checker threads (at least one) with the default
    /// prediction-cache capacity.
    pub fn new(lanes: usize) -> Self {
        Self::with_cache_capacity(lanes, crate::cache::DEFAULT_PREDICTION_CACHE_CAPACITY)
    }

    /// Spawns `lanes` checker threads with a prediction cache bounded to
    /// `cache_capacity` round outcomes.
    pub fn with_cache_capacity(lanes: usize, cache_capacity: usize) -> Self {
        let n = lanes.max(1);
        let mut txs = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for i in 0..n {
            let (tx, rx) = mpsc::channel::<HostJob>();
            let handle = thread::Builder::new()
                .name(format!("cb-checker-lane-{i}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
                .expect("spawn checker lane");
            txs.push(tx);
            handles.push(handle);
        }
        CheckerHost {
            lanes: txs,
            handles,
            next_lane: std::sync::atomic::AtomicUsize::new(0),
            cache: Arc::new(PredictionCache::with_capacity(cache_capacity)),
        }
    }

    /// Number of lane threads.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The host-wide prediction cache (shared by every pool on the host).
    pub fn prediction_cache(&self) -> &Arc<PredictionCache> {
        &self.cache
    }

    /// Round-robin lane assignment for a new shard (deterministic in
    /// construction order).
    fn assign_lane(&self) -> usize {
        self.next_lane
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            % self.lanes.len()
    }

    fn submit(&self, lane: usize, job: HostJob) {
        // A send can only fail during teardown; rounds are droppable then.
        let _ = self.lanes[lane].send(job);
    }
}

impl Drop for CheckerHost {
    fn drop(&mut self) {
        // Closing the channels wakes the lanes; each drains its queued
        // jobs (clients that shut down flag theirs to no-op) and exits.
        self.lanes.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// One shard: its predictor (remembered paths, replay cache) behind the
/// lock a round takes — uncontended in practice, a shard's rounds being
/// serialized by its lane — and the host lane it is pinned to.
struct Shard<P: Protocol> {
    lane: usize,
    predictor: Arc<Mutex<Predictor<P>>>,
}

/// The checker service: a per-node-sharded client of a [`CheckerHost`].
/// Each shard owns a `Predictor` pinned to one host lane; results flow
/// back over one shared channel. Rounds are routed by `node mod shards`,
/// so a node's remembered error paths stay with the shard that replays
/// them while different nodes' snapshots check in parallel. Submission
/// never blocks on a lane; results are polled. A synchronous pool has one
/// shard and no host, and runs each round inline on the submitter.
pub(crate) struct CheckerPool<P: Protocol> {
    shards: Vec<Shard<P>>,
    /// The lanes rounds run on; `None` runs them inline on the caller.
    host: Option<Arc<CheckerHost>>,
    results: mpsc::Receiver<RoundResult<P>>,
    res_tx: mpsc::Sender<RoundResult<P>>,
    shutdown: Arc<AtomicBool>,
    submitted: u64,
    drained: u64,
    /// This pool's share of the (possibly host-wide) prediction-cache
    /// traffic — all shards bump one set, so the controller reports a
    /// per-member view of a fleet-shared cache.
    counters: Arc<CacheCounters>,
}

impl<P: Protocol> CheckerPool<P> {
    /// Creates the pool `config.checker` asks for, every `Predictor`
    /// sharing `pool` for search parallelism. `Synchronous` is one shard
    /// with no host and a private prediction cache (`host` is ignored);
    /// `Sharded { shards }` runs that many shards on `host`, or on a
    /// freshly spawned private host (one lane per shard) when `None`, all
    /// memoizing into the host's shared [`PredictionCache`].
    pub(crate) fn spawn(
        protocol: &P,
        props: &PropertySet<P>,
        config: &Arc<ControllerConfig>,
        pool: &WorkerPool,
        host: Option<Arc<CheckerHost>>,
    ) -> Self {
        let capacity = config.prediction_cache_capacity;
        let (shards_n, host, cache) = match config.checker {
            CheckerMode::Synchronous => {
                (1, None, Arc::new(PredictionCache::with_capacity(capacity)))
            }
            CheckerMode::Sharded { shards } => {
                let n = shards.max(1);
                let host =
                    host.unwrap_or_else(|| Arc::new(CheckerHost::with_cache_capacity(n, capacity)));
                let cache = host.prediction_cache().clone();
                (n, Some(host), cache)
            }
        };
        let counters = Arc::new(CacheCounters::default());
        let (res_tx, results) = mpsc::channel::<RoundResult<P>>();
        let shards = (0..shards_n)
            .map(|_| Shard {
                lane: host.as_ref().map_or(0, |h| h.assign_lane()),
                predictor: Arc::new(Mutex::new(Predictor::new(
                    protocol.clone(),
                    props.clone(),
                    config.clone(),
                    pool.clone(),
                    cache.clone(),
                    counters.clone(),
                ))),
            })
            .collect();
        CheckerPool {
            shards,
            host,
            results,
            res_tx,
            shutdown: Arc::new(AtomicBool::new(false)),
            submitted: 0,
            drained: 0,
            counters,
        }
    }

    /// Queues one round on its node's shard and returns its sequence
    /// number, which travels with the round so drained batches come back
    /// in submission order whichever lane finished first. `start` is
    /// shared with the round, not copied (see the module docs for why
    /// the submitter's later writes cannot reach it). With no host the
    /// round runs here, before `submit` returns, and a panicking round
    /// panics the caller like any inline call.
    pub(crate) fn submit(
        &mut self,
        at: SimTime,
        node: NodeId,
        start: GlobalState<P>,
        steering: bool,
        tag: u64,
    ) -> u64 {
        let shard = &self.shards[(node.0 as usize) % self.shards.len()];
        self.submitted += 1;
        let seq = self.submitted;
        let job = PredictionJob {
            at,
            node,
            steering,
            tag,
        };
        let predictor = shard.predictor.clone();
        let round = move || RoundResult {
            seq,
            ..predictor
                .lock()
                .expect("shard predictor poisoned")
                .run_round(job, &start)
        };
        let Some(host) = &self.host else {
            let _ = self.res_tx.send(round());
            return seq;
        };
        let res_tx = self.res_tx.clone();
        let stop = self.shutdown.clone();
        host.submit(
            shard.lane,
            Box::new(move || {
                // A dropped pool flags its queued rounds to no-op so a
                // *shared* lane doesn't grind through a dead controller's
                // backlog before serving live neighbors.
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                // The round runs under catch_unwind so a panicking
                // predictor (a handler bug, a poisoned shard mutex) still
                // produces *a* result: otherwise `pending()` never drains
                // and every waiter blocks for its full timeout, and —
                // worse — the panic would kill a lane other controllers
                // share. The lane survives; the panic is reported on
                // stderr.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(round))
                    .unwrap_or_else(|payload| {
                        let msg = payload
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".into());
                        eprintln!(
                            "crystalball: checker round for {node} panicked \
                             (empty result substituted, lane kept alive): {msg}"
                        );
                        RoundResult {
                            seq,
                            at,
                            node,
                            steering,
                            replays_rediscovered: 0,
                            filters: Vec::new(),
                            found: None,
                            states_visited: 0,
                            corrective: false,
                            wall: Duration::ZERO,
                        }
                    });
                let _ = res_tx.send(result); // receiver gone = pool dropped
            }),
        );
        seq
    }

    /// This pool's prediction-cache counters.
    pub(crate) fn cache_stats(&self) -> CacheStats {
        self.counters.snapshot()
    }

    /// Rounds submitted but not yet drained.
    pub(crate) fn pending(&self) -> u64 {
        self.submitted - self.drained
    }

    /// Takes every completed round, first waiting up to `timeout` for the
    /// rest of those submitted (`Duration::ZERO` never blocks), sorted by
    /// `seq`: the order a caller folds results in — and with it a fleet's
    /// whole trace — is then independent of lane and worker scheduling.
    pub(crate) fn take_results(&mut self, timeout: Duration) -> Vec<RoundResult<P>> {
        let mut out: Vec<RoundResult<P>> = self.results.try_iter().collect();
        self.drained += out.len() as u64;
        if self.pending() > 0 && !timeout.is_zero() {
            let deadline = Instant::now() + timeout;
            while self.pending() > 0 {
                let left = deadline.saturating_duration_since(Instant::now());
                match self.results.recv_timeout(left) {
                    Ok(r) => {
                        self.drained += 1;
                        out.push(r);
                    }
                    Err(_) => break,
                }
            }
        }
        out.sort_by_key(|r| r.seq);
        out
    }
}

impl<P: Protocol> Drop for CheckerPool<P> {
    fn drop(&mut self) {
        // Flag queued rounds to no-op (a shared host keeps serving other
        // pools; a private host joins its lanes when the Arc drops after
        // at most one in-flight round per lane).
        self.shutdown.store(true, Ordering::Relaxed);
    }
}

/// One completed checking round in transport-friendly form — what a
/// checker *process* reports back to a live node it cannot share memory
/// with. The protocol-generic internals (the round's `FoundViolation<P>`
/// path) are flattened to the pieces that cross the wire: the violation,
/// its human-readable scenario, and the filters to install.
#[derive(Clone, Debug)]
pub struct WireRound {
    /// Submission sequence number (from [`WireChecker::submit_delta`]) —
    /// lets the caller match completions to submissions for
    /// prediction-to-install latency accounting.
    pub seq: u64,
    /// The node whose snapshot was checked (where filters install).
    pub node: NodeId,
    /// Timestamp the submitter attached (wall micros since its epoch, in
    /// live deployments).
    pub at: SimTime,
    /// The predicted violation, if the round found one.
    pub violation: Option<cb_model::Violation>,
    /// The paper-style numbered event path to the violation.
    pub scenario: Option<String>,
    /// The shallowest predicted path's length in events (present iff
    /// `violation` is) — what the predicted-violation alert reports as
    /// how close the deployment is to the bad state.
    pub depth: Option<usize>,
    /// Replay-reinstated filters plus the round's safety-checked
    /// corrective filter — everything the node should install, in
    /// application order.
    pub filters: Vec<EventFilter>,
    /// Known-path replays that re-discovered their violation.
    pub replays_rediscovered: u64,
    /// States the prediction run visited.
    pub states_visited: usize,
    /// Measured wall-clock time of the round.
    pub wall: Duration,
}

/// The transport-backed submission path into a [`CheckerHost`]: the
/// checker-process half of a *deployed* CrystalBall (`cb-live`).
///
/// Live nodes do not share an address space with the checker, so a round
/// arrives as a [`cb_snapshot::StateDelta`] (diffed by the node against
/// its previous submission) and leaves as a [`WireRound`] whose filters
/// the caller encodes into a filter-install push. In between, the decoded
/// state moves into the same sharded checker pool the in-process
/// controller uses — per-node shard affinity, known-path replays,
/// filter-safety re-checks and all.
///
/// Ordering contract: deltas from one node must be submitted in the order
/// that node produced them (its TCP connection is FIFO, so the live
/// server gets this for free); deltas from different nodes interleave
/// arbitrarily.
pub struct WireChecker<P: Protocol> {
    pool: CheckerPool<P>,
    /// Ingress decoder lineages, one per submitting node, mirroring the
    /// node-side encoders.
    decoders: HashMap<NodeId, DeltaDecoder>,
    steering: bool,
}

impl<P: Protocol> WireChecker<P> {
    /// Spawns the checker backend: `config.checker` decides the shard
    /// count ([`CheckerMode::Synchronous`] is promoted to one background
    /// shard — a wire checker is background by construction), `host`
    /// optionally shares lanes with other checkers, and search parallelism
    /// comes from `pool`.
    pub fn new(
        protocol: P,
        props: PropertySet<P>,
        mut config: ControllerConfig,
        pool: WorkerPool,
        host: Option<Arc<CheckerHost>>,
    ) -> Self {
        let steering = config.mode == crate::controller::Mode::ExecutionSteering;
        if config.checker == CheckerMode::Synchronous {
            config.checker = CheckerMode::Sharded { shards: 1 };
        }
        let pool = CheckerPool::spawn(&protocol, &props, &Arc::new(config), &pool, host);
        WireChecker {
            pool,
            decoders: HashMap::new(),
            steering,
        }
    }

    /// Decodes one shipped state and queues its checking round. Returns
    /// the round's sequence number, or the decode failure (out-of-order /
    /// corrupt deltas — a protocol error on the submitting connection;
    /// the caller should drop that connection, which also resets the
    /// node's lineage via [`WireChecker::forget_node`]).
    ///
    /// A delta with `seq == 1` is an explicit **lineage restart**: it can
    /// only come from a freshly constructed encoder (encoders never
    /// re-emit 1), so any stale decoder state for the node is discarded
    /// rather than rejecting the new stream. This absorbs the reconnect
    /// race where a node redials before its dead connection is reaped.
    pub fn submit_delta(
        &mut self,
        at: SimTime,
        node: NodeId,
        delta: &StateDelta,
    ) -> Result<u64, DeltaError> {
        self.submit_delta_tagged(at, node, delta, 0)
    }

    /// [`WireChecker::submit_delta`] carrying the submitter's
    /// observability round id (`cb_obs` causality tag): the checker's
    /// replay/predict/safety spans for this round are recorded under
    /// `tag`, joining them to the node-side gather and install spans in
    /// an exported trace. The tag has no effect on the round's outcome.
    pub fn submit_delta_tagged(
        &mut self,
        at: SimTime,
        node: NodeId,
        delta: &StateDelta,
        tag: u64,
    ) -> Result<u64, DeltaError> {
        if delta.seq == 1 {
            self.decoders.remove(&node);
        }
        let start: GlobalState<P> = self.decoders.entry(node).or_default().decode_state(delta)?;
        Ok(self.pool.submit(at, node, start, self.steering, tag))
    }

    /// Drops a node's delta lineage (its connection closed; a reconnect
    /// starts a fresh encoder, so the decoder must start fresh too).
    pub fn forget_node(&mut self, node: NodeId) {
        self.decoders.remove(&node);
    }

    /// Rounds submitted but not yet completed.
    pub fn pending(&self) -> u64 {
        self.pool.pending()
    }

    /// Prediction-cache counters for this checker's rounds (its share of
    /// the host-wide cache).
    pub fn cache_stats(&self) -> CacheStats {
        self.pool.cache_stats()
    }

    /// Takes every completed round without blocking, in submission order.
    pub fn try_rounds(&mut self) -> Vec<WireRound> {
        self.drain(Duration::ZERO)
    }

    /// Blocks (up to `timeout`) until every submitted round completes —
    /// the graceful-drain path of a live shutdown — and takes them all,
    /// in submission order.
    pub fn drain(&mut self, timeout: Duration) -> Vec<WireRound> {
        self.pool
            .take_results(timeout)
            .into_iter()
            .map(Self::flatten)
            .collect()
    }

    fn flatten(r: RoundResult<P>) -> WireRound {
        WireRound {
            seq: r.seq,
            node: r.node,
            at: r.at,
            violation: r.found.as_ref().map(|f| f.violation.clone()),
            scenario: r.found.as_ref().map(|f| f.scenario()),
            depth: r.found.as_ref().map(|f| f.depth),
            filters: r.filters,
            replays_rediscovered: r.replays_rediscovered,
            states_visited: r.states_visited,
            wall: r.wall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Mode;
    use cb_mc::SearchConfig;
    use cb_model::testproto::{max_pings_property, Ping, PingMsg};
    use cb_model::{Decode, Encode, Payload};
    use cb_snapshot::DeltaEncoder;

    fn ping_config() -> ControllerConfig {
        ControllerConfig {
            mode: Mode::ExecutionSteering,
            checker: CheckerMode::Sharded { shards: 2 },
            search: SearchConfig {
                max_states: Some(5_000),
                max_depth: Some(4),
                ..SearchConfig::default()
            },
            ..ControllerConfig::default()
        }
    }

    /// The wire path end to end in-process: a node-side `DeltaEncoder`
    /// ships states, the checker decodes, predicts, and hands back
    /// filters in transport-friendly form.
    #[test]
    fn wire_checker_predicts_from_shipped_deltas() {
        let proto = Ping {
            kick_target: NodeId(0),
            kick_enabled: true,
        };
        let props = PropertySet::new().with(max_pings_property(1));
        let mut checker = WireChecker::new(
            proto.clone(),
            props,
            ping_config(),
            WorkerPool::new(1),
            None,
        );
        // The "node side": successive neighborhood states, diff-shipped.
        let mut enc = DeltaEncoder::new();
        let gs = GlobalState::init(&proto, (0..3).map(NodeId));
        let d1 = enc.encode_state(&gs);
        // Ship over a simulated wire: encode → bytes → decode.
        let d1 = StateDelta::from_bytes(&d1.to_bytes()).expect("delta codec");
        let seq = checker
            .submit_delta(SimTime(1), NodeId(0), &d1)
            .expect("in-order delta");
        assert_eq!(seq, 1);
        let rounds = checker.drain(Duration::from_secs(60));
        assert_eq!(rounds.len(), 1);
        let round = &rounds[0];
        assert_eq!(round.node, NodeId(0));
        assert_eq!(round.seq, 1);
        let v = round.violation.as_ref().expect("ping limit 1 is reachable");
        assert_eq!(v.property, "MaxPings");
        assert!(round.scenario.as_ref().unwrap().contains("1."));
        assert!(
            !round.filters.is_empty(),
            "steering mode derives an installable filter"
        );
        // The filter protects the node the round was for, and its wire
        // codec round-trips against the protocol's kind tables.
        let f = &round.filters[0];
        assert_eq!(f.install_at(), NodeId(0));
        let bytes = round.filters.to_bytes();
        let decoded = EventFilter::decode_list(&bytes, proto.message_kinds(), proto.action_kinds())
            .expect("filters resolve against Ping's kind tables");
        assert_eq!(decoded, round.filters);
        // The decoded filter actually blocks the predicted delivery.
        let key = cb_model::EventKey::Message {
            kind: Ping::message_kind(&PingMsg::Ping),
            src: match f {
                EventFilter::Message { src, .. } => *src,
                other => panic!("expected a message filter, got {other}"),
            },
            dst: NodeId(0),
        };
        assert!(decoded[0].matches(&key));
        let _ = Payload::Msg::<PingMsg>(PingMsg::Ping); // keep import honest

        // A second, changed state diff-ships against the first.
        let mut gs2 = gs.clone();
        gs2.slot_mut(NodeId(1)).unwrap().state.pings_seen = 1;
        let d2 = enc.encode_state(&gs2);
        checker
            .submit_delta(SimTime(2), NodeId(0), &d2)
            .expect("second in-order delta");
        assert_eq!(checker.drain(Duration::from_secs(60)).len(), 1);

        // Out-of-order deltas (seq ≥ 2 not continuing the stream) are
        // rejected — the caller drops the connection and starts over.
        let stale = d2.clone();
        assert!(matches!(
            checker.submit_delta(SimTime(3), NodeId(0), &stale),
            Err(DeltaError::OutOfOrder { .. })
        ));
        // A seq-1 delta is an explicit lineage restart: accepted against
        // any decoder state without an intervening forget_node (the
        // reconnect race), because encoders never re-emit seq 1.
        let mut enc2 = DeltaEncoder::new();
        let fresh = enc2.encode_state(&gs);
        assert_eq!(fresh.seq, 1);
        assert!(checker.submit_delta(SimTime(4), NodeId(0), &fresh).is_ok());
        // forget_node also resets the lineage for an explicit teardown.
        checker.forget_node(NodeId(0));
        let mut enc3 = DeltaEncoder::new();
        let fresh2 = enc3.encode_state(&gs);
        assert!(checker.submit_delta(SimTime(5), NodeId(0), &fresh2).is_ok());
        checker.drain(Duration::from_secs(60));
    }
}
