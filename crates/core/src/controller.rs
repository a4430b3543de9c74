//! The CrystalBall controller: prediction, steering, and the immediate
//! safety check.
//!
//! The checking half of the controller (replay, consequence prediction,
//! filter derivation, the filter safety check) lives in
//! `crate::service::Predictor`; the node half (installed filters, the
//! filter check, snapshot intake, the immediate safety check) is one
//! [`NodeAgent`] per node. This module owns the rest — when rounds land,
//! statistics, and the `Hook` wiring. Every round goes through one
//! `crate::service::CheckerPool`, handed a shared clone of the snapshot
//! state; the checker mode only picks where it runs. A round's filters
//! take effect when it lands on its node's agent.
//! [`CheckerMode::Synchronous`] is the pool run inline: the round completes
//! inside `run_round` and lands after the *modeled* `mc_latency`.
//! [`CheckerMode::Sharded`] runs it on background lanes: the simulated
//! system keeps executing while the checker works, a round lands when it
//! is drained, and the checker latency is measured rather than modeled.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use cb_mc::{Engine, EventFilter, SearchConfig, WorkerPool};
use cb_model::{
    Event, EventKey, GlobalState, InFlight, NodeId, PropertySet, Protocol, SimDuration, SimTime,
    TraceStep, Violation,
};
use cb_runtime::{Decision, Hook};
use cb_snapshot::Snapshot;

use crate::agent::NodeAgent;
use crate::service::{CheckerMode, CheckerPool, RoundResult};

/// Operating mode (§3): report-only or actively steering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// "The controller only outputs the information about the property
    /// violation."
    DeepOnlineDebugging,
    /// "The controller examines the report from the model checker, prepares
    /// an event filter that can avoid the erroneous condition, checks the
    /// filter's impact, and installs it into the runtime if it is deemed to
    /// be safe."
    ExecutionSteering,
}

/// Controller tuning.
#[derive(Clone, Debug)]
pub struct ControllerConfig {
    /// Debugging vs steering.
    pub mode: Mode,
    /// Budget and event options for each consequence-prediction run.
    pub search: SearchConfig,
    /// Which engine runs prediction: [`Engine::Sequential`] or the
    /// parallel level-synchronous engine ([`Engine::Parallel`]) — both produce
    /// identical predictions. Parallel is not the faster one so far: every
    /// recorded `predict_par` benchmark median is below `predict_seq`'s.
    pub engine: Engine,
    /// Where rounds execute: inline (blocking, deterministic) or on the
    /// background checker service.
    pub checker: CheckerMode,
    /// Modeled wall-clock runtime of the checker, used only in
    /// [`CheckerMode::Synchronous`]: a round run on a snapshot taken at
    /// time T lands — its filters replace the node's — at T + `mc_latency`
    /// ("After running the model checker for 6 seconds, C successfully
    /// predicts...", §5.4.2). The immediate safety check covers the gap. In
    /// [`CheckerMode::Sharded`] the latency is whatever the checker
    /// thread actually takes (see [`ControllerStats::avg_mc_latency`]).
    pub mc_latency: SimDuration,
    /// Enable the immediate safety check (speculative handler execution).
    pub immediate_safety_check: bool,
    /// Re-run consequence prediction with the candidate filter installed
    /// before trusting it (§3.3 "Ensuring Safety of Event Filter Actions").
    pub check_filter_safety: bool,
    /// Budget for the filter-safety re-check (smaller than the main run).
    pub safety_check_states: usize,
    /// Replay previously discovered error paths at the start of every run
    /// (§3.3 "Rechecking Previously Discovered Violations").
    pub replay_known_paths: bool,
    /// Steering blocks also reset the offending connection (§3.3).
    pub reset_connection_on_block: bool,
    /// Cap on remembered error paths.
    pub max_known_paths: usize,
    /// Apply completed background rounds opportunistically from the hook
    /// entry points (the live-deployment default). `false` defers every
    /// application to explicit [`Controller::poll_predictions`] /
    /// [`Controller::drain_predictions`] calls, which an external
    /// scheduler places at deterministic simulated times — the fleet
    /// harness's determinism contract: with hook polling, *when* a round
    /// finishes (wall clock) decides *when* its filter activates
    /// (simulated time), so the same seed could trace differently across
    /// host speeds and worker counts.
    pub poll_in_hooks: bool,
    /// Memoize completed round outcomes in the (host-shared)
    /// [`crate::PredictionCache`], answering repeated neighborhood states
    /// without re-searching. A hit reproduces the cold round's result
    /// byte for byte, so this trades only CPU, never outcomes. On by
    /// default (the CI determinism matrix runs both legs).
    pub prediction_cache: bool,
    /// Entry bound for a *privately* spawned prediction cache (synchronous
    /// pool, or a background pool given no shared `CheckerHost`).
    /// Shared hosts size their own cache at construction.
    pub prediction_cache_capacity: usize,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            mode: Mode::ExecutionSteering,
            search: SearchConfig {
                max_states: Some(20_000),
                max_depth: Some(8),
                ..SearchConfig::default()
            },
            engine: Engine::Sequential,
            checker: CheckerMode::Synchronous,
            mc_latency: SimDuration::from_secs(6),
            immediate_safety_check: true,
            check_filter_safety: true,
            safety_check_states: 5_000,
            replay_known_paths: true,
            reset_connection_on_block: true,
            max_known_paths: 16,
            poll_in_hooks: true,
            prediction_cache: true,
            prediction_cache_capacity: crate::cache::DEFAULT_PREDICTION_CACHE_CAPACITY,
        }
    }
}

/// One predicted inconsistency, as logged in deep-online-debugging mode.
#[derive(Clone, Debug)]
pub struct PredictionReport {
    /// When the snapshot that produced the prediction completed.
    pub at: SimTime,
    /// The node whose controller made the prediction.
    pub node: NodeId,
    /// The predicted violation.
    pub violation: Violation,
    /// Human-readable event path (the paper's scenario walk-through form).
    pub scenario: String,
    /// Search depth at which the violation was predicted.
    pub depth: usize,
    /// States the prediction run visited.
    pub states_visited: usize,
}

/// Controller counters — the numbers reported in §5.4.
#[derive(Clone, Debug, Default)]
pub struct ControllerStats {
    /// Consequence-prediction runs executed.
    pub mc_runs: u64,
    /// Runs that predicted at least one future inconsistency ("execution
    /// steering detects a future inconsistency 480 times").
    pub predictions: u64,
    /// Predictions turned into installed filters ("415 times modifying the
    /// behavior of the system").
    pub filters_installed: u64,
    /// Predictions where no safe corrective action existed ("65 times
    /// concluding that changing the behavior is unhelpful").
    pub steering_unhelpful: u64,
    /// Times an active filter actually blocked an event.
    pub filter_hits: u64,
    /// Times the immediate safety check vetoed a handler ("the immediate
    /// safety check fallback engages 160 times").
    pub isc_vetoes: u64,
    /// Known-path replays that re-discovered the violation (fast path).
    pub replays_rediscovered: u64,
    /// Violations that still appeared in the live state (false negatives;
    /// 0 in §5.4.1, 2%/5% in Fig. 14).
    pub uncaught_violations: u64,
    /// Summed measured wall-clock duration of the `mc_runs` completed
    /// checking rounds (replay + prediction + safety check). In
    /// synchronous mode a round's is the blocking time; in background
    /// mode, the actual prediction latency the paper models as
    /// `mc_latency`.
    mc_latency_total: Duration,
}

impl ControllerStats {
    /// Mean measured checking-round latency, if any round completed.
    pub fn avg_mc_latency(&self) -> Option<Duration> {
        (self.mc_runs > 0).then(|| self.mc_latency_total / self.mc_runs as u32)
    }
}

/// The worker pool a checker that owns its resources runs `engine` on.
/// The scope owner always participates, so a parallel engine with `w`
/// workers needs `w - 1` pool threads; at least one is kept so replays
/// overlap the main search even under the sequential engine.
pub fn checker_pool(engine: &Engine) -> WorkerPool {
    let workers = match engine {
        Engine::Parallel(p) => p.workers,
        _ => 1,
    };
    WorkerPool::new(workers.max(2) - 1)
}

/// The per-deployment CrystalBall controller. One instance serves every
/// node of the simulation through one [`NodeAgent`] per node — the
/// paper's one-controller-per-node arrangement, with the checker shared.
pub struct Controller<P: Protocol> {
    protocol: P,
    props: PropertySet<P>,
    config: Arc<ControllerConfig>,
    agents: BTreeMap<NodeId, NodeAgent<P>>,
    /// Applied rounds whose filters have not landed yet, in submission
    /// order: landing time, node, filters.
    landing: VecDeque<(SimTime, NodeId, Vec<EventFilter>)>,
    pool: CheckerPool<P>,
    /// Prediction log (what deep online debugging prints).
    pub reports: Vec<PredictionReport>,
    /// Counters.
    pub stats: ControllerStats,
}

impl<P: Protocol> Controller<P> {
    /// Creates a controller checking `props` over `protocol`. With
    /// [`CheckerMode::Sharded`] this spawns the checker lane threads.
    /// Every independent search the controller runs — the main
    /// prediction, known-path replays, filter-safety re-checks, across
    /// every shard — shares one [`WorkerPool`].
    pub fn new(protocol: P, props: PropertySet<P>, config: ControllerConfig) -> Self {
        let pool = checker_pool(&config.engine);
        Self::with_runtime(protocol, props, config, pool, None)
    }

    /// Creates a controller on externally owned checking resources: every
    /// search runs on `pool`, and background rounds (if the mode has any)
    /// execute on the shared [`crate::service::CheckerHost`] lanes instead of
    /// pool-private threads (a synchronous controller ignores `host` and
    /// keeps a private prediction cache). This is the fleet entry point —
    /// co-deployed controllers over *different* protocols hand in the same
    /// pool and host, so one deployment's idle checking capacity serves
    /// another's burst.
    pub fn with_runtime(
        protocol: P,
        props: PropertySet<P>,
        config: ControllerConfig,
        pool: WorkerPool,
        host: Option<Arc<crate::service::CheckerHost>>,
    ) -> Self {
        let config = Arc::new(config);
        let pool = CheckerPool::spawn(&protocol, &props, &config, &pool, host);
        Controller {
            protocol,
            props,
            config,
            agents: BTreeMap::new(),
            landing: VecDeque::new(),
            pool,
            reports: Vec::new(),
            stats: ControllerStats::default(),
        }
    }

    /// Number of installed filters, landed or still landing.
    pub fn installed_filters(&self) -> usize {
        self.active_filters().len()
    }

    /// Checking rounds submitted to the background pool and not yet
    /// applied (always 0 in synchronous mode).
    pub fn pending_predictions(&self) -> u64 {
        self.pool.pending()
    }

    /// This controller's prediction-cache counters — its
    /// share of the (possibly host-wide) [`crate::PredictionCache`]
    /// traffic. Wall-clock-free but **not** deterministic across runs
    /// when the cache is shared: which co-deployed member warms a common
    /// entry first is a race (the outcomes are identical either way).
    pub fn checker_cache_stats(&self) -> crate::cache::CacheStats {
        self.pool.cache_stats()
    }

    /// The per-node filters as they stand once every applied round has
    /// landed, exposed for equivalence tests and benches.
    pub fn active_filters(&self) -> Vec<(NodeId, EventFilter)> {
        let mut agents = self.agents.clone();
        for (_, node, filters) in &self.landing {
            Self::agent_in(&mut agents, *node).land(filters.iter().cloned());
        }
        agents
            .iter()
            .flat_map(|(&node, agent)| agent.filters().iter().map(move |f| (node, f.clone())))
            .collect()
    }

    fn agent_in(agents: &mut BTreeMap<NodeId, NodeAgent<P>>, node: NodeId) -> &mut NodeAgent<P> {
        agents.entry(node).or_insert_with(|| NodeAgent::new(node))
    }

    /// Runs one full CrystalBall round for `node` on a decoded snapshot.
    ///
    /// In synchronous mode this blocks through replay, consequence
    /// prediction, filter preparation, safety check and installation, and
    /// returns the predicted violation, if any. In background mode it
    /// *submits* the round to the checker service and returns `None`
    /// immediately; the result is applied when it completes (see
    /// [`Controller::poll_predictions`]).
    pub fn run_round(
        &mut self,
        now: SimTime,
        node: NodeId,
        start: &GlobalState<P>,
    ) -> Option<Violation> {
        let steering = self.config.mode == Mode::ExecutionSteering;
        self.pool.submit(now, node, start.clone(), steering, 0);
        if self.config.checker != CheckerMode::Synchronous {
            return None;
        }
        // The round already ran, inline. It lands once the (modeled)
        // checker run completes; until then the ISC covers.
        let mut found = None;
        for result in self.pool.take_results(Duration::ZERO) {
            found = self.apply_result(result, now + self.config.mc_latency);
        }
        self.land_due(now);
        found
    }

    /// Applies every checking round the background pool has completed,
    /// landing it at `now` (its latency has already elapsed for real), and
    /// lands synchronous rounds whose modeled latency has elapsed by `now`.
    /// Returns the number of background rounds applied.
    pub fn poll_predictions(&mut self, now: SimTime) -> usize {
        self.drain_predictions(now, Duration::ZERO)
    }

    /// Blocks until every submitted round has completed (or `timeout`
    /// expires) and applies the results as of simulated time `now`, like
    /// [`Controller::poll_predictions`]. Returns the number of background
    /// rounds applied.
    pub fn drain_predictions(&mut self, now: SimTime, timeout: Duration) -> usize {
        // In submission order, whichever lane finished first.
        let results = self.pool.take_results(timeout);
        let n = results.len();
        for result in results {
            self.apply_result(result, now);
        }
        self.land_due(now);
        n
    }

    /// Folds one completed round into the statistics and the prediction
    /// log, and queues its filters — replay reinstatements ("If the problem
    /// reappears, CrystalBall immediately reinstalls the appropriate
    /// filter") and the corrective filter — to land at `land_at`.
    fn apply_result(&mut self, result: RoundResult<P>, land_at: SimTime) -> Option<Violation> {
        self.stats.mc_runs += 1;
        self.stats.mc_latency_total += result.wall;
        self.stats.replays_rediscovered += result.replays_rediscovered;
        self.landing
            .push_back((land_at, result.node, result.filters));

        let found = result.found?;
        self.stats.predictions += 1;
        self.reports.push(PredictionReport {
            at: result.at,
            node: result.node,
            violation: found.violation.clone(),
            scenario: found.scenario(),
            depth: found.depth,
            states_visited: result.states_visited,
        });
        if result.steering {
            if result.corrective {
                self.stats.filters_installed += 1;
            } else {
                // "65 times concluding that changing the behavior is
                // unhelpful" (§5.4.1).
                self.stats.steering_unhelpful += 1;
            }
        }
        Some(found.violation)
    }

    /// Lands, in order, every queued round whose landing time has come.
    fn land_due(&mut self, now: SimTime) {
        while self.landing.front().is_some_and(|(at, ..)| *at <= now) {
            let (_, node, filters) = self.landing.pop_front().expect("a due round");
            Self::agent_in(&mut self.agents, node).land(filters);
        }
    }

    /// The hook entry points' first step: land what is due, applying
    /// completed background rounds first unless an external scheduler owns
    /// the application points ([`ControllerConfig::poll_in_hooks`]).
    fn hook_poll(&mut self, now: SimTime) {
        if self.config.poll_in_hooks {
            self.poll_predictions(now);
        } else {
            self.land_due(now);
        }
    }

    /// `node`'s filter check, then — if no filter blocks and the ISC is
    /// on — the immediate safety check of the event and view `speculate`
    /// builds.
    fn decide(
        &mut self,
        node: NodeId,
        key: &EventKey,
        speculate: impl FnOnce() -> (GlobalState<P>, Event<P>),
    ) -> Decision {
        let decision = self
            .agents
            .get(&node)
            .map_or(Decision::Allow, |agent| agent.check(key));
        if decision != Decision::Allow {
            self.stats.filter_hits += 1;
            return decision;
        }
        if self.config.immediate_safety_check && self.config.mode == Mode::ExecutionSteering {
            let (view, event) = speculate();
            if NodeAgent::isc_vetoes(&self.protocol, &self.props, view, &event) {
                self.stats.isc_vetoes += 1;
                return Decision::Block;
            }
        }
        Decision::Allow
    }
}

impl<P: Protocol> Hook<P> for Controller<P> {
    fn filter_delivery(
        &mut self,
        now: SimTime,
        gs: &GlobalState<P>,
        item: &InFlight<P::Message>,
    ) -> Decision {
        // Due rounds land before the next event runs.
        self.hook_poll(now);
        let key = EventKey::delivery::<P>(item.src, item.dst, item.payload.msg());
        self.decide(item.dst, &key, || {
            let mut view = gs.clone();
            view.route_item(item.clone());
            let index = view.inflight.len() - 1;
            (view, Event::Deliver { index })
        })
    }

    fn filter_action(
        &mut self,
        now: SimTime,
        gs: &GlobalState<P>,
        node: NodeId,
        action: &P::Action,
    ) -> Decision {
        self.hook_poll(now);
        let key = EventKey::Action {
            kind: P::action_kind(action),
            node,
        };
        self.decide(node, &key, || {
            let action = action.clone();
            (gs.clone(), Event::Action { node, action })
        })
    }

    fn after_step(&mut self, now: SimTime, gs: &GlobalState<P>, _step: &TraceStep) {
        self.hook_poll(now);
        // Count violations that slipped past prediction and the ISC — the
        // paper's false negatives.
        if self.props.check(gs).is_some() {
            self.stats.uncaught_violations += 1;
        }
    }

    fn on_snapshot(&mut self, now: SimTime, node: NodeId, snapshot: &Snapshot) {
        self.hook_poll(now);
        // A suppressed snapshot keeps the node's filters in force and saves
        // the checker budget for fresh states.
        if let Some(start) = Self::agent_in(&mut self.agents, node).intake(snapshot) {
            self.run_round(now, node, &start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_mc::ParallelConfig;
    use cb_model::testproto::{Ping, PingAction, PingMsg, PingState};
    use cb_model::{apply_event, node_property, ExploreOptions, Outbox, Payload};
    use cb_protocols::randtree::{self, Action as RtAction, Msg as RtMsg, RandTree, RandTreeBugs};
    use cb_runtime::{NoHook, Scenario, SimConfig, Simulation};

    fn fig2_sim_config(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            ..SimConfig::default()
        }
    }

    fn steering_config() -> ControllerConfig {
        ControllerConfig {
            search: SearchConfig {
                max_states: Some(30_000),
                max_depth: Some(7),
                explore: ExploreOptions::default(),
                ..SearchConfig::default()
            },
            mc_latency: SimDuration::from_millis(500),
            ..ControllerConfig::default()
        }
    }

    /// Builds the Fig. 2 pre-state (n1 root with child n9; n13 child of
    /// n9; n13 freshly reset) as a decoded snapshot global state.
    fn fig2_snapshot(bugs: RandTreeBugs) -> (RandTree, GlobalState<RandTree>) {
        let proto = RandTree::new(2, vec![NodeId(1)], bugs);
        let mut gs = GlobalState::init(&proto, [NodeId(1), NodeId(9), NodeId(13)]);
        for (node, action) in [
            (1u32, RtAction::Join { target: NodeId(1) }),
            (9, RtAction::Join { target: NodeId(1) }),
        ] {
            apply_event(
                &proto,
                &mut gs,
                &Event::Action {
                    node: NodeId(node),
                    action,
                },
            );
            while !gs.inflight.is_empty() {
                apply_event(&proto, &mut gs, &Event::Deliver { index: 0 });
            }
        }
        // Graft n13 under n9 (the paper's 13-step history compressed).
        gs.slot_mut(NodeId(9))
            .unwrap()
            .state
            .children
            .insert(NodeId(13));
        {
            let s13 = &mut gs.slot_mut(NodeId(13)).unwrap().state;
            s13.status = randtree::Status::Joined;
            s13.parent = Some(NodeId(9));
            s13.root = Some(NodeId(1));
            s13.recovery_scheduled = true;
        }
        (proto, gs)
    }

    #[test]
    fn consequence_prediction_predicts_fig2_from_live_state() {
        let (proto, gs) = fig2_snapshot(RandTreeBugs::only("R1"));
        let mut ctl = Controller::new(
            proto,
            randtree::properties::all(),
            ControllerConfig {
                mode: Mode::DeepOnlineDebugging,
                ..steering_config()
            },
        );
        let v = ctl.run_round(SimTime::ZERO, NodeId(1), &gs);
        let v = v.expect("Fig. 2 violation predicted");
        assert_eq!(v.property, "ChildrenSiblingsDisjoint");
        assert_eq!(ctl.stats.predictions, 1);
        assert_eq!(
            ctl.installed_filters(),
            0,
            "debugging mode installs nothing"
        );
        let report = &ctl.reports[0];
        assert!(
            report.scenario.contains("reset"),
            "path shows the reset:\n{}",
            report.scenario
        );
        assert!(report.depth >= 3, "nontrivial depth {}", report.depth);
        assert_eq!(ctl.stats.mc_runs, 1);
        assert!(
            ctl.stats.avg_mc_latency().is_some(),
            "round latency measured"
        );
    }

    #[test]
    fn steering_mode_installs_a_safe_filter() {
        let (proto, gs) = fig2_snapshot(RandTreeBugs::only("R1"));
        let mut ctl = Controller::new(proto, randtree::properties::all(), steering_config());
        let v = ctl.run_round(SimTime::ZERO, NodeId(1), &gs);
        assert!(v.is_some());
        assert_eq!(
            ctl.stats.filters_installed, 1,
            "filter installed at the join receiver"
        );
        assert_eq!(ctl.installed_filters(), 1);
    }

    #[test]
    fn parallel_engine_predicts_the_same_violation() {
        let (proto, gs) = fig2_snapshot(RandTreeBugs::only("R1"));
        let seq = {
            let mut ctl = Controller::new(
                proto.clone(),
                randtree::properties::all(),
                steering_config(),
            );
            ctl.run_round(SimTime::ZERO, NodeId(1), &gs);
            ctl.reports.pop().expect("prediction")
        };
        let par = {
            let mut ctl = Controller::new(
                proto,
                randtree::properties::all(),
                ControllerConfig {
                    // The phased engine, driven through the controller
                    // plumbing: it may not change what gets predicted.
                    engine: Engine::Parallel(ParallelConfig {
                        workers: 4,
                        ..ParallelConfig::default()
                    }),
                    ..steering_config()
                },
            );
            ctl.run_round(SimTime::ZERO, NodeId(1), &gs);
            ctl.reports.pop().expect("prediction")
        };
        assert_eq!(seq.violation, par.violation);
        assert_eq!(seq.scenario, par.scenario, "identical canonical path");
        assert_eq!(seq.depth, par.depth);
    }

    /// The delivery the Fig. 2 round's one installed filter blocks (the
    /// delivery alone is harmless, so the ISC lets it through).
    fn blocked_delivery(ctl: &Controller<RandTree>, gs: &GlobalState<RandTree>) -> InFlight<RtMsg> {
        let filters = ctl.active_filters();
        let [(owner, EventFilter::Message { kind, src, dst, .. })] = filters.as_slice() else {
            panic!("expected one message filter, got {filters:?}");
        };
        assert_eq!(
            (*owner, *dst),
            (NodeId(1), NodeId(1)),
            "owned by the predicting node"
        );
        assert_eq!(*kind, "Join");
        InFlight {
            src: *src,
            dst: *dst,
            src_inc: gs.slot(*src).map_or(0, |s| s.incarnation),
            dst_inc: gs.slot(*dst).unwrap().incarnation,
            payload: Payload::Msg(RtMsg::Join {
                joiner: *src,
                forwarded_down: false,
            }),
        }
    }

    #[test]
    fn installed_filter_blocks_matching_delivery_after_activation() {
        let (proto, gs) = fig2_snapshot(RandTreeBugs::only("R1"));
        let mut ctl = Controller::new(
            proto.clone(),
            randtree::properties::all(),
            steering_config(),
        );
        ctl.run_round(SimTime::ZERO, NodeId(1), &gs);
        let item = blocked_delivery(&ctl, &gs);
        // Before the round lands (mc_latency): allowed.
        let d0 = ctl.filter_delivery(SimTime::ZERO, &gs, &item);
        assert_eq!(d0, Decision::Allow, "not landed yet");
        // After: blocked with connection reset.
        let d1 = ctl.filter_delivery(SimTime::ZERO + SimDuration::from_secs(2), &gs, &item);
        assert_eq!(d1, Decision::BlockAndReset);
        assert!(ctl.stats.filter_hits >= 1);
    }

    /// A synchronous round lands whole at `at + mc_latency`: two rounds
    /// 2 s apart with a 6 s latency leave the first round's filter in
    /// force over [T+6 s, T+8 s), when the second round replaces it.
    #[test]
    fn a_round_takes_effect_when_it_lands() {
        let (proto, gs) = fig2_snapshot(RandTreeBugs::only("R1"));
        let mut ctl = Controller::new(
            proto,
            randtree::properties::all(),
            ControllerConfig {
                mc_latency: SimDuration::from_secs(6),
                // No replay: a round's only filter is its corrective one.
                replay_known_paths: false,
                ..steering_config()
            },
        );
        let t = |secs| SimTime::ZERO + SimDuration::from_secs(secs);
        ctl.run_round(t(10), NodeId(1), &gs);
        ctl.run_round(t(12), NodeId(1), &gs);
        assert_eq!(ctl.stats.filters_installed, 2);
        let item = blocked_delivery(&ctl, &gs);
        let mut decide = |secs| ctl.filter_delivery(t(secs), &gs, &item);
        assert_eq!(decide(15), Decision::Allow, "nothing landed yet");
        assert_eq!(
            decide(16),
            Decision::BlockAndReset,
            "the first round landed"
        );
        assert_eq!(decide(17), Decision::BlockAndReset);
        assert_eq!(ctl.stats.filter_hits, 2);
        assert_eq!(ctl.landing.len(), 1, "the second round still landing");
        assert_eq!(
            ctl.filter_delivery(t(18), &gs, &item),
            Decision::BlockAndReset
        );
        assert!(ctl.landing.is_empty(), "the second round landed");
        assert_eq!(
            ctl.agents[&NodeId(1)].filters().len(),
            1,
            "replaced, not added to"
        );
    }

    #[test]
    fn isc_vetoes_imminent_violation() {
        // n9 already has n13 as child; an UpdateSibling(n13) delivery to n9
        // violates immediately — the ISC must catch it even with no filter.
        let (proto, gs) = fig2_snapshot(RandTreeBugs::only("R1"));
        let mut ctl = Controller::new(
            proto,
            randtree::properties::all(),
            ControllerConfig {
                mc_latency: SimDuration::from_secs(3600),
                ..steering_config()
            },
        );
        let item = InFlight {
            src: NodeId(1),
            dst: NodeId(9),
            src_inc: 0,
            dst_inc: 0,
            payload: Payload::Msg(RtMsg::UpdateSibling {
                sibling: NodeId(13),
            }),
        };
        let d = ctl.filter_delivery(SimTime::ZERO, &gs, &item);
        assert_eq!(d, Decision::Block, "immediate safety check veto");
        assert_eq!(ctl.stats.isc_vetoes, 1);
    }

    #[test]
    fn replay_reinstalls_filter_quickly() {
        let (proto, gs) = fig2_snapshot(RandTreeBugs::only("R1"));
        let mut ctl = Controller::new(proto, randtree::properties::all(), steering_config());
        ctl.run_round(SimTime::ZERO, NodeId(1), &gs);
        assert_eq!(ctl.stats.filters_installed, 1);
        // Second round on the same snapshot: filters were cleared, replay
        // re-discovers the path and reinstalls without waiting for the
        // full search.
        ctl.run_round(SimTime(1), NodeId(1), &gs);
        assert!(ctl.stats.replays_rediscovered >= 1);
        assert!(ctl.installed_filters() >= 1);
    }

    #[test]
    fn fixed_protocol_yields_no_predictions() {
        let (proto, gs) = fig2_snapshot(RandTreeBugs::none());
        let mut ctl = Controller::new(proto, randtree::properties::all(), steering_config());
        let v = ctl.run_round(SimTime::ZERO, NodeId(1), &gs);
        assert!(
            v.is_none(),
            "no violation predicted for the fixed code: {v:?}"
        );
        assert_eq!(ctl.stats.predictions, 0);
        assert!(ctl.reports.is_empty());
    }

    /// The background service runs the same round the synchronous backend
    /// does: submit the Fig. 2 snapshot, wait for the result, and verify
    /// the same filter gets installed and actually blocks.
    #[test]
    fn background_checker_predicts_and_installs_asynchronously() {
        let (proto, gs) = fig2_snapshot(RandTreeBugs::only("R1"));
        let mut ctl = Controller::new(
            proto,
            randtree::properties::all(),
            ControllerConfig {
                checker: CheckerMode::Sharded { shards: 1 },
                ..steering_config()
            },
        );
        // Submission never blocks and reports nothing yet.
        let v = ctl.run_round(SimTime::ZERO, NodeId(1), &gs);
        assert!(v.is_none(), "async submission returns immediately");
        assert_eq!(ctl.pending_predictions(), 1);
        // Wait for the round and apply it at t=1s.
        let applied = ctl.drain_predictions(
            SimTime::ZERO + SimDuration::from_secs(1),
            Duration::from_secs(60),
        );
        assert_eq!(applied, 1);
        assert_eq!(ctl.pending_predictions(), 0);
        assert_eq!(ctl.stats.predictions, 1);
        assert_eq!(ctl.stats.filters_installed, 1);
        assert_eq!(ctl.stats.mc_runs, 1);
        assert!(
            ctl.stats.avg_mc_latency().is_some(),
            "latency measured, not modeled"
        );
        // The round landed at the drain (its latency already elapsed).
        let item = blocked_delivery(&ctl, &gs);
        let at = SimTime::ZERO + SimDuration::from_secs(1);
        assert_eq!(ctl.filter_delivery(at, &gs, &item), Decision::BlockAndReset);
    }

    /// One `CheckerHost` + one `WorkerPool` serving two controllers over
    /// *different* protocol types — the fleet topology. The RandTree
    /// controller must reach the same outcome it reaches on a private
    /// backend, and deferred polling must leave application to the
    /// explicit drain.
    #[test]
    fn shared_checker_host_serves_heterogeneous_controllers() {
        use crate::service::CheckerHost;
        use cb_model::testproto::max_pings_property;

        let host = Arc::new(CheckerHost::new(2));
        let pool = WorkerPool::new(1);

        let (proto, gs) = fig2_snapshot(RandTreeBugs::only("R1"));
        let mut rt = Controller::with_runtime(
            proto,
            randtree::properties::all(),
            ControllerConfig {
                checker: CheckerMode::Sharded { shards: 2 },
                poll_in_hooks: false,
                ..steering_config()
            },
            pool.clone(),
            Some(host.clone()),
        );
        let ping = Ping {
            kick_target: NodeId(0),
            kick_enabled: true,
        };
        let ping_gs = GlobalState::init(&ping, (0..3).map(NodeId));
        let mut pg = Controller::with_runtime(
            ping,
            PropertySet::new().with(max_pings_property(u32::MAX)),
            ControllerConfig {
                checker: CheckerMode::Sharded { shards: 2 },
                poll_in_hooks: false,
                ..steering_config()
            },
            pool,
            Some(host.clone()),
        );

        // Interleaved submissions from both controllers onto the same
        // lanes.
        for i in 0..3u64 {
            rt.run_round(SimTime(i), NodeId(1), &gs);
            pg.run_round(SimTime(i), NodeId(i as u32 % 3), &ping_gs);
        }
        assert_eq!(rt.pending_predictions(), 3);
        // Deferred polling: nothing applies from hook entry points.
        let step = TraceStep::Stale;
        rt.after_step(SimTime(50), &gs, &step);
        assert_eq!(rt.stats.mc_runs, 0, "poll_in_hooks=false defers");

        let applied = rt.drain_predictions(SimTime(100), Duration::from_secs(120));
        assert_eq!(applied, 3);
        assert_eq!(
            pg.drain_predictions(SimTime(100), Duration::from_secs(120)),
            3
        );
        assert_eq!(rt.stats.predictions, 3, "Fig. 2 predicted each round");
        assert!(rt.stats.filters_installed >= 1);
        assert_eq!(rt.reports[0].violation.property, "ChildrenSiblingsDisjoint");
        assert_eq!(pg.stats.predictions, 0, "clean protocol stays clean");
        drop(rt);
        // The shared host survives a client controller dropping.
        pg.run_round(SimTime(200), NodeId(0), &ping_gs);
        assert_eq!(
            pg.drain_predictions(SimTime(200), Duration::from_secs(120)),
            1
        );
    }

    /// `Ping` whose `Pong` handler panics: a checking round that explores
    /// Kick → Ping → Pong panics mid-search.
    #[derive(Clone, Debug)]
    struct Brittle(Ping);

    impl Protocol for Brittle {
        type State = PingState;
        type Message = PingMsg;
        type Action = PingAction;

        fn name(&self) -> &'static str {
            "brittle"
        }
        fn init(&self, node: NodeId) -> PingState {
            self.0.init(node)
        }
        fn on_message(
            &self,
            node: NodeId,
            state: &mut PingState,
            from: NodeId,
            msg: &PingMsg,
            out: &mut Outbox<PingMsg>,
        ) {
            assert!(*msg != PingMsg::Pong, "Pong handler bug");
            self.0.on_message(node, state, from, msg, out);
        }
        fn on_error(
            &self,
            node: NodeId,
            state: &mut PingState,
            peer: NodeId,
            out: &mut Outbox<PingMsg>,
        ) {
            self.0.on_error(node, state, peer, out);
        }
        fn enabled_actions(&self, node: NodeId, state: &PingState, acts: &mut Vec<PingAction>) {
            self.0.enabled_actions(node, state, acts);
        }
        fn on_action(
            &self,
            node: NodeId,
            state: &mut PingState,
            action: &PingAction,
            out: &mut Outbox<PingMsg>,
        ) {
            self.0.on_action(node, state, action, out);
        }
        fn message_kind(msg: &PingMsg) -> &'static str {
            Ping::message_kind(msg)
        }
        fn action_kind(action: &PingAction) -> &'static str {
            Ping::action_kind(action)
        }
    }

    /// The one place the two checker modes differ on purpose: a panicking
    /// round on a shared lane is contained — the round yields the empty
    /// substitute result and the lane keeps serving other controllers —
    /// while an inline (synchronous) round panics its caller, like any
    /// inline call.
    #[test]
    fn a_panicking_round_is_contained_on_a_lane_and_raised_inline() {
        let host = Arc::new(crate::service::CheckerHost::new(1));
        let pool = WorkerPool::new(0);
        let brittle = Brittle(Ping {
            kick_target: NodeId(0),
            kick_enabled: true,
        });
        let brittle_gs = GlobalState::init(&brittle, (0..2).map(NodeId));
        let brittle_controller = |checker| {
            Controller::with_runtime(
                brittle.clone(),
                PropertySet::new().with(node_property("Never", |_, _: &PingState| Ok(()))),
                ControllerConfig {
                    checker,
                    poll_in_hooks: false,
                    ..steering_config()
                },
                pool.clone(),
                Some(host.clone()),
            )
        };
        let (rt, rt_gs) = fig2_snapshot(RandTreeBugs::only("R1"));
        let mut neighbor = Controller::with_runtime(
            rt,
            randtree::properties::all(),
            ControllerConfig {
                checker: CheckerMode::Sharded { shards: 1 },
                poll_in_hooks: false,
                ..steering_config()
            },
            pool.clone(),
            Some(host.clone()),
        );

        let mut laned = brittle_controller(CheckerMode::Sharded { shards: 1 });
        assert_eq!(laned.run_round(SimTime(1), NodeId(1), &brittle_gs), None);
        neighbor.run_round(SimTime(1), NodeId(1), &rt_gs);
        let wait = Duration::from_secs(60);
        assert_eq!(laned.drain_predictions(SimTime(2), wait), 1);
        assert_eq!(laned.pending_predictions(), 0);
        assert_eq!(laned.stats.mc_runs, 1);
        assert_eq!(laned.stats.predictions, 0, "the empty substitute result");
        assert_eq!(laned.installed_filters(), 0);
        assert_eq!(neighbor.drain_predictions(SimTime(2), wait), 1);
        assert_eq!(
            neighbor.stats.predictions, 1,
            "the shared lane survived and answered its neighbor"
        );

        let mut inline = brittle_controller(CheckerMode::Synchronous);
        let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inline.run_round(SimTime(1), NodeId(1), &brittle_gs)
        }));
        assert!(
            raised.is_err(),
            "an inline round's panic reaches the caller"
        );
    }

    /// End-to-end: buggy RandTree under churn; steering avoids the
    /// inconsistencies a NoHook run enters.
    #[test]
    fn end_to_end_steering_reduces_violations() {
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        let proto = RandTree::new(2, vec![NodeId(0)], RandTreeBugs::as_shipped());
        let scenario = || {
            Scenario::churn(
                &nodes,
                |_| RtAction::Join { target: NodeId(0) },
                SimDuration::from_secs(25),
                SimDuration::from_secs(240),
                42,
            )
        };
        // Baseline: no CrystalBall.
        let mut base = Simulation::new(
            proto.clone(),
            &nodes,
            randtree::properties::all(),
            NoHook,
            fig2_sim_config(42),
        );
        base.load_scenario(scenario());
        base.run_for(SimDuration::from_secs(260));
        let baseline_violations = base.stats.violating_states;
        assert!(baseline_violations > 0, "bugs manifest without CrystalBall");

        // Steering run: same seed, same scenario.
        let ctl = Controller::new(
            proto.clone(),
            randtree::properties::all(),
            ControllerConfig {
                mc_latency: SimDuration::from_secs(2),
                search: SearchConfig {
                    max_states: Some(8_000),
                    max_depth: Some(6),
                    ..SearchConfig::default()
                },
                ..ControllerConfig::default()
            },
        );
        let mut steered = Simulation::new(
            proto,
            &nodes,
            randtree::properties::all(),
            ctl,
            SimConfig {
                snapshots: Some(cb_runtime::SnapshotRuntime {
                    checkpoint_interval: SimDuration::from_secs(5),
                    gather_interval: SimDuration::from_secs(5),
                    ..Default::default()
                }),
                ..fig2_sim_config(42)
            },
        );
        steered.load_scenario(scenario());
        steered.run_for(SimDuration::from_secs(260));
        assert!(
            steered.stats.violating_states < baseline_violations,
            "steering reduces inconsistent states: {} -> {}",
            baseline_violations,
            steered.stats.violating_states
        );
        assert!(
            steered.hook.stats.isc_vetoes + steered.hook.stats.filter_hits > 0,
            "CrystalBall actually intervened: {:?}",
            steered.hook.stats
        );
    }
}
