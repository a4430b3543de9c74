//! `round_inproc`: the whole checking-round path in one address space.
//!
//! A pass builds fresh `WireChecker`s (fresh prediction cache and delta
//! lineages, untimed) and pushes 300 rounds through the path a live node
//! and the checker process run, with sockets and the scheduler removed:
//!
//! `DeltaEncoder::encode_state` → `SubmitBody`/`WireFrame` encode →
//! `FrameBuffer` parse → `WireChecker::submit_delta_tagged` → `drain` →
//! `InstallBody` encode/parse → `EventFilter::decode_list`.
//!
//! The loop is closed with one round outstanding: the driver and the one
//! checker lane are never runnable together for longer than a hand-off.
//! The stream interleaves snapshots of a seeded 8-node RandTree (R1 armed)
//! under churn with snapshots of a Paxos group running the Fig. 13
//! schedule; exactly a quarter of the rounds re-submit a state seen
//! earlier in the pass, each of which the prediction cache must answer
//! (see [`layout`]).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cb_live::wire::frame_of;
use cb_live::{InstallBody, SubmitBody};
use cb_mc::{Engine, EventFilter, SearchConfig, WorkerPool};
use cb_model::{
    push_frame, Decode, Encode, ExploreOptions, FrameBuffer, FrameKind, GlobalState, NodeId,
    PropertySet, Protocol, SimDuration, SimTime, WireFrame,
};
use cb_protocols::paxos::{self, Paxos, PaxosBugs};
use cb_protocols::randtree::{self, RandTree, RandTreeBugs};
use cb_runtime::{NoHook, Scenario, SimConfig, Simulation};
use cb_snapshot::{DeltaDecoder, DeltaEncoder};
use crystalball::{CheckerHost, CheckerMode, ControllerConfig, Mode, WireChecker};

use crate::harness::{Pass, Rng, Stopwatch, Workload};
use crate::inputs::{encoded_len, inputs_hash, search_config, SIZE_TOLERANCE};
use crate::spans::Recorder;

pub const ROUNDS_PER_PASS: usize = 300;
pub const RANDTREE_BUDGET: usize = 1_500;
pub const PAXOS_BUDGET: usize = 300;
/// Encoded size of the median snapshot of either deployment (see
/// [`SIZE_TOLERANCE`]).
const RANDTREE_NOMINAL_BYTES: usize = 144;
const PAXOS_NOMINAL_BYTES: usize = 100;

/// The checker configuration of one protocol's rounds, every field set
/// here (`ControllerConfig::default()` reads `CB_PRED_CACHE`).
pub fn checker_config(max_states: usize) -> ControllerConfig {
    ControllerConfig {
        mode: Mode::ExecutionSteering,
        search: SearchConfig {
            max_depth: None,
            max_states: Some(max_states),
            deadline: None,
            explore: ExploreOptions::default(),
            prune_local: true,
            max_violations: 1,
            filters: cb_mc::FilterSet::new(),
        },
        engine: Engine::Sequential,
        checker: CheckerMode::Sharded { shards: 1 },
        mc_latency: SimDuration::from_secs(6),
        immediate_safety_check: true,
        check_filter_safety: true,
        safety_check_states: max_states,
        replay_known_paths: true,
        reset_connection_on_block: true,
        max_known_paths: 16,
        poll_in_hooks: true,
        prediction_cache: true,
        prediction_cache_capacity: 1024,
    }
}

/// One protocol's half of the stream: its configuration and the distinct
/// snapshot states the rounds submit.
pub struct Half<P: Protocol> {
    pub proto: P,
    pub props: fn() -> PropertySet<P>,
    pub config: ControllerConfig,
    pub states: Vec<GlobalState<P>>,
}

/// The per-pass state of one protocol: the checker and the node-side
/// delta lineages.
struct Live<P: Protocol> {
    checker: WireChecker<P>,
    encoders: HashMap<NodeId, DeltaEncoder>,
    /// Traced runs only: decodes the same deltas again, on their own, for
    /// `snapshot.delta_decode_us`.
    mirror: HashMap<NodeId, DeltaDecoder>,
}

impl<P: Protocol> Live<P> {
    fn new(half: &Half<P>, host: &Arc<CheckerHost>) -> Self {
        Live {
            checker: WireChecker::new(
                half.proto.clone(),
                (half.props)(),
                half.config.clone(),
                // Sequential engine: the search never asks the pool for a
                // worker, so it gets no threads.
                WorkerPool::new(0),
                Some(host.clone()),
            ),
            encoders: HashMap::new(),
            mirror: HashMap::new(),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fam {
    RandTree,
    Paxos,
    /// The Fig. 2 RandTree deployment, a few events short of R1.
    Fig2,
}

/// One round of the stream.
#[derive(Clone, Copy, Debug)]
pub struct Step {
    pub fam: Fam,
    /// Index into the family's `states`.
    pub state: usize,
    pub node: NodeId,
    /// For a re-submission: the stream index of the round it repeats.
    pub repeat_of: Option<usize>,
}

/// What one round concluded (outcomes) and what it cost (timings).
#[derive(Clone, Debug, Default)]
pub struct RoundOut {
    pub answered: bool,
    pub violation: Option<String>,
    pub depth: Option<usize>,
    /// The installed filter list, rendered.
    pub filters: String,
    pub states_visited: usize,
    pub latency: Duration,
    /// `submit_delta_tagged` (ingress decode included).
    pub submit: Duration,
    /// Submit call start → `drain` return.
    pub check: Duration,
    /// `WireRound::wall`: the round as the checker lane measured it.
    pub wall: Duration,
}

impl RoundOut {
    /// The outcome alone, as a comparable string.
    pub fn outcome(&self) -> String {
        format!(
            "{}|{}|{}|{}",
            self.violation.as_deref().unwrap_or("clean"),
            self.depth.map_or(-1, |d| d as i64),
            self.filters,
            self.states_visited
        )
    }
}

/// The byte pipes of the two directions (stand-ins for the sockets).
struct Pipes {
    to_checker: FrameBuffer,
    to_node: FrameBuffer,
    scratch: Vec<u8>,
}

impl Pipes {
    fn new() -> Self {
        Pipes {
            to_checker: FrameBuffer::new(cb_model::MAX_FRAME_LEN),
            to_node: FrameBuffer::new(cb_model::MAX_FRAME_LEN),
            scratch: Vec::new(),
        }
    }
}

/// Runs one round through the whole path. Stage spans are recorded on
/// traced runs; the round's latency is always measured.
fn run_round<P: Protocol>(
    half: &Half<P>,
    live: &mut Live<P>,
    pipes: &mut Pipes,
    step: &Step,
    id: u64,
    rec: &mut Recorder,
) -> RoundOut {
    let gs = &half.states[step.state];
    let round_id = (u64::from(step.node.0) << 32) | id;
    let t0 = Instant::now();
    let round_span = rec.begin("core.round", round_id);

    let s = rec.begin("snapshot.delta_encode", round_id);
    let delta = live.encoders.entry(step.node).or_default().encode_state(gs);
    rec.end(s);

    let s = rec.begin("model.submit_frame", round_id);
    let body = SubmitBody {
        node: step.node,
        at_us: id,
        speculative: false,
        round: round_id,
        delta,
    };
    let frame = frame_of(step.node, NodeId::DUMMY, 0, FrameKind::Submit, &body);
    pipes.scratch.clear();
    push_frame(&mut pipes.scratch, &frame);
    rec.end(s);

    let s = rec.begin("model.frame_parse", round_id);
    pipes.to_checker.feed(&pipes.scratch);
    let parsed = pipes
        .to_checker
        .next_frame()
        .ok()
        .flatten()
        .and_then(|payload| WireFrame::from_bytes(&payload).ok())
        .and_then(|wf| SubmitBody::from_bytes(&wf.body).ok());
    rec.end(s);
    let Some(body) = parsed else {
        rec.end(round_span);
        return RoundOut::default();
    };

    let t_submit = Instant::now();
    let s = rec.begin("core.submit", round_id);
    let submitted =
        live.checker
            .submit_delta_tagged(SimTime(body.at_us), body.node, &body.delta, body.round);
    let submit = t_submit.elapsed();
    rec.end(s);
    if submitted.is_err() {
        rec.end(round_span);
        return RoundOut::default();
    }

    let s = rec.begin("core.drain", round_id);
    let mut rounds = live.checker.drain(Duration::from_secs(120));
    let check = t_submit.elapsed();
    rec.end(s);
    let Some(done) = rounds.pop() else {
        rec.end(round_span);
        return RoundOut::default();
    };

    let s = rec.begin("live.install_frame", round_id);
    let install = InstallBody {
        seq: done.seq,
        at_us: body.at_us,
        round: body.round,
        filters: done.filters.to_bytes(),
    };
    let frame = frame_of(
        NodeId::DUMMY,
        done.node,
        0,
        FrameKind::FilterInstall,
        &install,
    );
    pipes.scratch.clear();
    push_frame(&mut pipes.scratch, &frame);
    pipes.to_node.feed(&pipes.scratch);
    let install = pipes
        .to_node
        .next_frame()
        .ok()
        .flatten()
        .and_then(|payload| WireFrame::from_bytes(&payload).ok())
        .and_then(|wf| InstallBody::from_bytes(&wf.body).ok());
    rec.end(s);

    let s = rec.begin("mc.decode_list", round_id);
    let filters = install.and_then(|ib| {
        EventFilter::decode_list(
            &ib.filters,
            half.proto.message_kinds(),
            half.proto.action_kinds(),
        )
        .ok()
    });
    rec.end(s);
    let latency = t0.elapsed();
    rec.end(round_span);

    if rec.is_on() {
        // Outside the round: the ingress decode on its own.
        let s = rec.begin("snapshot.delta_decode", round_id);
        let decoded = live
            .mirror
            .entry(step.node)
            .or_default()
            .decode_state::<P>(&body.delta);
        rec.end(s);
        debug_assert!(decoded.is_ok());
    }

    let Some(filters) = filters else {
        return RoundOut::default();
    };
    RoundOut {
        answered: filters == done.filters,
        violation: done.violation.as_ref().map(|v| v.property.clone()),
        depth: done.depth,
        filters: filters
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("; "),
        states_visited: done.states_visited,
        latency,
        submit,
        check,
        wall: done.wall,
    }
}

/// Walks the samples of seeded unsteered deployments in a fixed order —
/// deployment `boot(0)` sampled every `period` until `horizon` or until a
/// property fails in it (the bugs are armed and nothing steers), then
/// `boot(1)`, … — handing each sample and its ordinal to `visit` until
/// `visit` returns false.
fn walk_samples<P: Protocol>(
    props: &PropertySet<P>,
    period: SimDuration,
    horizon: SimDuration,
    mut boot: impl FnMut(u64) -> Simulation<P, NoHook>,
    mut visit: impl FnMut(usize, &GlobalState<P>) -> bool,
) {
    let mut ordinal = 0;
    for epoch in 0.. {
        assert!(epoch < 10_000, "the snapshot stream ran dry");
        let mut sim = boot(epoch);
        let end = SimTime::ZERO + horizon;
        while sim.now() < end {
            sim.run_for(period);
            if props.check(&sim.gs).is_some() {
                break;
            }
            if !visit(ordinal, &sim.gs) {
                return;
            }
            ordinal += 1;
        }
    }
}

/// The two phases of [`RoundInproc::setup`] over one [`walk_samples`]
/// stream. Phase one (`picked` empty) picks the ordinals of the first
/// `want` samples that are pairwise distinct — so that only a deliberate
/// re-submission can be a cache hit; distinct by
/// [`GlobalState::state_hash`], the model's own identity of a state, which
/// reads the in-flight bag without its order: two samples that differ only
/// in that order are one state to the checker and its cache —, within
/// [`SIZE_TOLERANCE`] of
/// `nominal_bytes`, and clean within `budget` states — so that every round
/// on them searches its whole budget and their checker never remembers an
/// error path, which would change its later cache keys. Phase two
/// (`picked` given) walks the same stream again and clones just those.
fn snapshots<P: Protocol>(
    walk: impl FnOnce(&mut dyn FnMut(usize, &GlobalState<P>) -> bool),
    proto: &P,
    props: &PropertySet<P>,
    budget: usize,
    nominal_bytes: usize,
    want: usize,
    picked: &mut Vec<usize>,
) -> Vec<GlobalState<P>> {
    let mut states = Vec::new();
    if picked.is_empty() {
        let mut seen = std::collections::HashSet::new();
        let mut visit = |ordinal: usize, gs: &GlobalState<P>| {
            let size = encoded_len(gs) as f64 / nominal_bytes as f64;
            if (size - 1.0).abs() <= SIZE_TOLERANCE
                && seen.insert(gs.state_hash())
                && cb_mc::find_consequences(proto, props, gs, search_config(budget))
                    .first()
                    .is_none()
            {
                picked.push(ordinal);
            }
            picked.len() < want
        };
        walk(&mut visit);
    } else {
        states.reserve_exact(want);
        let mut visit = |ordinal: usize, gs: &GlobalState<P>| {
            if picked.binary_search(&ordinal).is_ok() {
                states.push(gs.clone());
            }
            states.len() < want
        };
        walk(&mut visit);
    }
    states
}

/// Snapshots of seeded 8-node RandTree deployments (R1 armed) under churn,
/// sampled every 200 simulated ms.
fn randtree_snapshots(seed: u64, want: usize, picked: &mut Vec<usize>) -> Half<RandTree> {
    let nodes: Vec<NodeId> = (0..8).map(NodeId).collect();
    let proto = RandTree::new(2, vec![NodeId(0)], RandTreeBugs::only("R1"));
    let props = randtree::properties::all();
    // Short-lived deployments: a stream then crosses a dozen independently
    // grown overlays instead of following one.
    let horizon = SimDuration::from_secs(40);
    let boot = |epoch: u64| {
        let seed = seed.wrapping_add(epoch.wrapping_mul(0x9e37_79b9));
        let mut sim = Simulation::new(
            proto.clone(),
            &nodes,
            randtree::properties::all(),
            NoHook,
            SimConfig {
                seed,
                track_violations: false,
                ..SimConfig::default()
            },
        );
        sim.load_scenario(Scenario::churn(
            &nodes,
            |_| randtree::Action::Join { target: NodeId(0) },
            SimDuration::from_secs(8),
            horizon,
            seed,
        ));
        // Let the overlay form before the first sample.
        sim.run_for(SimDuration::from_secs(12));
        sim
    };
    let states = snapshots(
        |visit| walk_samples(&props, SimDuration::from_millis(200), horizon, boot, visit),
        &proto,
        &props,
        RANDTREE_BUDGET,
        RANDTREE_NOMINAL_BYTES,
        want,
        picked,
    );
    Half {
        proto,
        props: randtree::properties::all,
        config: checker_config(RANDTREE_BUDGET),
        states,
    }
}

/// A seeded Paxos schedule in the shape of Fig. 13: each of its rounds
/// cuts one member off, lets a seeded other member propose, and heals
/// after a seeded while — competing proposers behind partitions.
fn paxos_schedule(seed: u64, rounds: usize) -> Scenario<Paxos> {
    use cb_runtime::ScriptEvent;
    let mut rng = Rng::new(seed ^ 0x7078_7363);
    let mut s = Scenario::new();
    let mut t = SimTime::ZERO;
    for _ in 0..rounds {
        let cut = NodeId(rng.below(3) as u32);
        let proposer = NodeId((cut.0 + 1 + rng.below(2) as u32) % 3);
        let others = (0..3).map(NodeId).filter(|n| *n != cut);
        for other in others.clone() {
            s.push(
                t,
                ScriptEvent::Connectivity {
                    a: cut,
                    b: other,
                    up: false,
                },
            );
        }
        s.push(
            t + SimDuration::from_millis(100),
            ScriptEvent::Action {
                node: proposer,
                action: paxos::Action::Propose,
            },
        );
        let heal = t + SimDuration::from_millis(1_000 + rng.below(3_000) as u64);
        for other in others {
            s.push(
                heal,
                ScriptEvent::Connectivity {
                    a: cut,
                    b: other,
                    up: true,
                },
            );
        }
        t = heal + SimDuration::from_millis(500 + rng.below(2_000) as u64);
    }
    s
}

/// Snapshots of 3-node Paxos groups (P1 armed) under [`paxos_schedule`],
/// sampled every 20 simulated ms so that states with messages in flight
/// are caught.
fn paxos_snapshots(seed: u64, want: usize, picked: &mut Vec<usize>) -> Half<Paxos> {
    let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
    let proto = Paxos::new(nodes.clone(), PaxosBugs::only("P1"));
    let props = paxos::properties::all();
    let boot = |epoch: u64| {
        let seed = seed.wrapping_add(epoch.wrapping_mul(0x9e37_79b9));
        let mut sim = Simulation::new(
            proto.clone(),
            &nodes,
            paxos::properties::all(),
            NoHook,
            SimConfig {
                seed,
                track_violations: false,
                ..SimConfig::default()
            },
        );
        sim.load_scenario(paxos_schedule(seed, 3));
        sim
    };
    let states = snapshots(
        |visit| {
            walk_samples(
                &props,
                SimDuration::from_millis(20),
                SimDuration::from_secs(14),
                boot,
                visit,
            )
        },
        &proto,
        &props,
        PAXOS_BUDGET,
        PAXOS_NOMINAL_BYTES,
        want,
        picked,
    );
    Half {
        proto,
        props: paxos::properties::all,
        config: checker_config(PAXOS_BUDGET),
        states,
    }
}

/// States of the Fig. 2 RandTree deployment (4 nodes, R1 armed) a few
/// events short of the inconsistency, each of which the checker predicts
/// within its budget: the rounds that exercise known-path replay, filter
/// derivation and the filter-safety re-check, and that give the installs
/// something to carry. Phase one (`picked` empty) picks sub-seeds, phase
/// two rebuilds their states.
fn fig2_snapshots(seed: u64, want: usize, picked: &mut Vec<u64>) -> Half<RandTree> {
    use crate::inputs::{bug_path, short_of_bug};
    let (proto, base) = cb_bench::scenarios::randtree_fig2(RandTreeBugs::only("R1"));
    let props = randtree::properties::all();
    let path = bug_path(&proto, &props, &base, RANDTREE_BUDGET)
        .expect("Fig. 2 reaches R1 within the round budget");
    let state_of = |sub: u64| short_of_bug(&proto, &props, &base, &path, &mut Rng::new(sub));
    let mut states = Vec::new();
    if picked.is_empty() {
        let mut rng = Rng::new(seed ^ 0x6669_6732);
        let mut seen = std::collections::HashSet::new();
        let mut tries = 0;
        while picked.len() < want {
            tries += 1;
            assert!(tries < 10_000, "too few distinct states short of R1");
            let sub = rng.next_u64();
            let gs = state_of(sub);
            let caught = || {
                cb_mc::find_consequences(&proto, &props, &gs, search_config(RANDTREE_BUDGET))
                    .first()
                    .is_some()
            };
            if props.check(&gs).is_none() && seen.insert(gs.state_hash()) && caught() {
                picked.push(sub);
            }
        }
    } else {
        states = picked.iter().map(|sub| state_of(*sub)).collect();
    }
    Half {
        proto,
        props: randtree::properties::all,
        config: checker_config(RANDTREE_BUDGET),
        states,
    }
}

/// Everything one pass measured beyond the [`Pass`] itself.
#[derive(Clone, Debug, Default)]
pub struct PassDetail {
    pub outs: Vec<RoundOut>,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub shipped_bytes: u64,
    pub raw_bytes: u64,
}

/// The three deployments whose rounds make up the stream.
pub struct Halves {
    pub randtree: Half<RandTree>,
    pub paxos: Half<Paxos>,
    pub fig2: Half<RandTree>,
}

/// The per-pass side of [`Halves`]: fresh checkers on one shared lane.
struct Checkers {
    randtree: Live<RandTree>,
    paxos: Live<Paxos>,
    fig2: Live<RandTree>,
    pipes: Pipes,
}

impl Checkers {
    /// Built outside the clocks: one checker lane, three protocol clients.
    fn new(h: &Halves) -> Self {
        let host = Arc::new(CheckerHost::new(1));
        Checkers {
            randtree: Live::new(&h.randtree, &host),
            paxos: Live::new(&h.paxos, &host),
            fig2: Live::new(&h.fig2, &host),
            pipes: Pipes::new(),
        }
    }

    fn run(&mut self, h: &Halves, step: &Step, ix: usize, rec: &mut Recorder) -> RoundOut {
        let (id, pipes) = (ix as u64, &mut self.pipes);
        match step.fam {
            Fam::RandTree => run_round(&h.randtree, &mut self.randtree, pipes, step, id, rec),
            Fam::Paxos => run_round(&h.paxos, &mut self.paxos, pipes, step, id, rec),
            Fam::Fig2 => run_round(&h.fig2, &mut self.fig2, pipes, step, id, rec),
        }
    }
}

pub struct RoundInproc {
    pub halves: Halves,
    pub stream: Vec<Step>,
    /// Outcome of every round in the warm-up pass.
    pub reference: Vec<String>,
    pub last: PassDetail,
    unanswered: u64,
    mismatched: u64,
    misjudged: u64,
    cache_off_by: u64,
}

/// Lays the stream out: of every nine fresh rounds three check the churned
/// RandTree, five the Paxos group and one the Fig. 2 deployment, and after
/// every three fresh rounds one earlier RandTree or Paxos round, drawn by
/// the seed, is re-submitted — a quarter of the rounds exactly.
///
/// The prediction cache keys a round by its state, its node and the error
/// paths its checker remembers. The RandTree and Paxos states are clean
/// within their budgets, so their checkers never remember a path and every
/// re-submission is a hit; Fig. 2 rounds predict, remember and install, and
/// are never re-submitted.
fn layout(total: usize, rng: &mut Rng) -> Vec<Step> {
    let mut stream: Vec<Step> = Vec::with_capacity(total);
    let mut next = [0usize; 3];
    let mut repeatable = Vec::new();
    for fresh in 1..=total / 4 * 3 {
        let (fam, nodes) = match fresh % 9 {
            1 | 4 | 7 => (Fam::RandTree, 8),
            0 => (Fam::Fig2, 1),
            _ => (Fam::Paxos, 3),
        };
        let state = next[fam as usize];
        next[fam as usize] += 1;
        if fam != Fam::Fig2 {
            repeatable.push(stream.len());
        }
        stream.push(Step {
            fam,
            state,
            // Fig. 2's filters install at its root, n1.
            node: if fam == Fam::Fig2 {
                NodeId(1)
            } else {
                NodeId((state % nodes) as u32)
            },
            repeat_of: None,
        });
        if fresh % 3 == 0 {
            let of = repeatable[rng.below(repeatable.len())];
            stream.push(Step {
                repeat_of: Some(of),
                ..stream[of]
            });
        }
    }
    stream
}

impl RoundInproc {
    /// Generates the stream and runs one untimed warm-up pass.
    ///
    /// With a quarter of the rounds answered by the cache and a quarter
    /// long RandTree searches, the per-pass p50 falls among the Paxos
    /// rounds and the p90 among the RandTree rounds, not on the edge
    /// between two kinds of round.
    ///
    /// Generation has two phases, as in [`crate::inputs`]: the first picks
    /// the states (which takes a search of every candidate), everything it
    /// allocated is dropped and the heap handed back, and the second
    /// rebuilds only the picked states, so the timed passes run on a heap
    /// that holds the inputs and nothing else.
    pub fn setup(seed: u64, quick: bool) -> Self {
        let total = if quick { 96 } else { ROUNDS_PER_PASS };
        assert_eq!(
            total % 12,
            0,
            "a stream is whole groups of nine fresh rounds and three repeats"
        );
        let groups = total / 12;
        let (mut randtree, mut paxos, mut fig2) = (Vec::new(), Vec::new(), Vec::new());
        randtree_snapshots(seed ^ 0x7274, 3 * groups, &mut randtree);
        paxos_snapshots(seed ^ 0x7078, 5 * groups, &mut paxos);
        fig2_snapshots(seed, groups, &mut fig2);
        crate::harness::trim_heap();
        let halves = Halves {
            randtree: randtree_snapshots(seed ^ 0x7274, 3 * groups, &mut randtree),
            paxos: paxos_snapshots(seed ^ 0x7078, 5 * groups, &mut paxos),
            fig2: fig2_snapshots(seed, groups, &mut fig2),
        };
        let mut w = RoundInproc {
            halves,
            stream: layout(total, &mut Rng::new(seed ^ 0x726f_756e)),
            reference: Vec::new(),
            last: PassDetail::default(),
            unanswered: 0,
            mismatched: 0,
            misjudged: 0,
            cache_off_by: 0,
        };
        // The warm-up pass's outcomes are the reference of every timed pass.
        w.pass(&mut Recorder::new(false));
        w
    }

    pub fn repeats(&self) -> usize {
        self.stream.iter().filter(|s| s.repeat_of.is_some()).count()
    }

    fn count(&self, fam: Fam) -> usize {
        self.stream.iter().filter(|s| s.fam == fam).count()
    }
}

impl Workload for RoundInproc {
    fn pass(&mut self, rec: &mut Recorder) -> Pass {
        // Fresh checkers, cache and lineages: built outside the clocks.
        let mut checkers = Checkers::new(&self.halves);
        let mut pass = Pass::default();
        let mut detail = PassDetail::default();

        let watch = Stopwatch::start();
        for (ix, step) in self.stream.iter().enumerate() {
            let out = checkers.run(&self.halves, step, ix, rec);
            pass.latencies_ms.push(out.latency.as_secs_f64() * 1e3);
            detail.outs.push(out);
        }
        (pass.wall_s, pass.cpu_s) = watch.stop();

        pass.units = self.stream.len() as f64;
        pass.attempted = self.stream.len() as u64;
        if self.reference.is_empty() {
            self.reference = detail.outs.iter().map(RoundOut::outcome).collect();
        }
        for (ix, (out, step)) in detail.outs.iter().zip(&self.stream).enumerate() {
            if !out.answered {
                self.unanswered += 1;
                pass.failed += 1;
            } else if out.outcome() != self.reference[ix]
                || step
                    .repeat_of
                    .is_some_and(|of| detail.outs[of].outcome() != out.outcome())
            {
                self.mismatched += 1;
                pass.failed += 1;
            } else if out.violation.is_some() != (step.fam == Fam::Fig2) {
                // Bug-armed Fig. 2 states are caught, the others are clean.
                self.misjudged += 1;
                pass.failed += 1;
            }
        }
        let Checkers {
            randtree,
            paxos,
            fig2,
            ..
        } = &checkers;
        for c in [
            randtree.checker.cache_stats(),
            paxos.checker.cache_stats(),
            fig2.checker.cache_stats(),
        ] {
            detail.cache_hits += c.hits;
            detail.cache_misses += c.misses;
        }
        let off_by = detail.cache_hits.abs_diff(self.repeats() as u64);
        self.cache_off_by += off_by;
        pass.failed += off_by;
        let encoders = randtree
            .encoders
            .values()
            .chain(paxos.encoders.values())
            .chain(fig2.encoders.values());
        for enc in encoders {
            detail.shipped_bytes += enc.stats.shipped_bytes;
            detail.raw_bytes += enc.stats.raw_bytes;
        }
        self.last = detail;
        pass
    }

    fn describe(&self) -> String {
        let predicted = self
            .last
            .outs
            .iter()
            .filter(|o| o.violation.is_some())
            .count();
        let with_filters = self
            .last
            .outs
            .iter()
            .filter(|o| !o.filters.is_empty())
            .count();
        let ms_of = |fam: Fam| -> f64 {
            let fresh = self.last.outs.iter().zip(&self.stream);
            fresh
                .filter(|(_, s)| s.fam == fam && s.repeat_of.is_none())
                .map(|(o, _)| o.latency.as_secs_f64() * 1e3)
                .sum()
        };
        let mean_len = |lens: Vec<usize>| lens.iter().sum::<usize>() / lens.len().max(1);
        format!(
            "{} rounds per pass, closed loop, driver + 1 checker lane: {} RandTree ({} states), {} Paxos \
             ({} states), {} Fig. 2 RandTree, {} of them re-submissions; {} rounds predicted a \
             violation, {} installed filters; cache {} hits / {} misses; fresh rounds took {:.0} / {:.0} / \
             {:.0} ms; mean encoded state {} / {} / {} bytes",
            self.stream.len(),
            self.count(Fam::RandTree),
            RANDTREE_BUDGET,
            self.count(Fam::Paxos),
            PAXOS_BUDGET,
            self.count(Fam::Fig2),
            self.repeats(),
            predicted,
            with_filters,
            self.last.cache_hits,
            self.last.cache_misses,
            ms_of(Fam::RandTree),
            ms_of(Fam::Paxos),
            ms_of(Fam::Fig2),
            mean_len(self.halves.randtree.states.iter().map(encoded_len).collect()),
            mean_len(self.halves.paxos.states.iter().map(encoded_len).collect()),
            mean_len(self.halves.fig2.states.iter().map(encoded_len).collect()),
        )
    }

    fn outcome(&self) -> Option<(&'static str, String)> {
        let mut predicted = Vec::new();
        let mut installs = Vec::new();
        for (ix, out) in self.last.outs.iter().enumerate() {
            if let (Some(v), Some(d)) = (&out.violation, out.depth) {
                predicted.push(format!("[{ix},\"{v}@{d}\"]"));
            }
            if !out.filters.is_empty() {
                installs.push(format!(
                    "[{ix},\"{}\"]",
                    cb_obs::json::escaped(&out.filters)
                ));
            }
        }
        Some((
            "round_inproc",
            format!(
                "{{\"inputs\":\"{:016x} {:016x} {:016x}\",\"rounds\":{},\"predicted\":[{}],\"installs\":[{}]}}",
                inputs_hash(self.halves.randtree.states.iter()),
                inputs_hash(self.halves.paxos.states.iter()),
                inputs_hash(self.halves.fig2.states.iter()),
                self.stream.len(),
                predicted.join(","),
                installs.join(",")
            ),
        ))
    }

    fn final_checks(&mut self) -> (u64, u64) {
        let ok = |bad: u64| if bad == 0 { "ok" } else { "FAILED" };
        println!(
            "  check every round was answered with a decodable install               {}",
            ok(self.unanswered)
        );
        println!(
            "  check every round equals its warm-up and its cold twin (cache hits)   {}",
            ok(self.mismatched)
        );
        println!(
            "  check Fig. 2 states are caught, overlay and Paxos states are clean    {}",
            ok(self.misjudged)
        );
        println!(
            "  check the cache answered exactly the re-submitted quarter             {}",
            ok(self.cache_off_by)
        );
        (0, 0)
    }
}
