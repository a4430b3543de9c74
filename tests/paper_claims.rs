//! The paper's evaluation (§5) as a checked ledger: one `#[test]` per
//! artifact, each run at one fixed size from fixed seeds. Table 1 lives in
//! `tests/table1_bugs.rs`.
//!
//! Every [`claim`] prints one record — the paper's figure, ours, and the
//! bound — and asserts the bound, so
//!
//! ```text
//! cargo test --release --test paper_claims -- --nocapture
//! ```
//!
//! prints the reproduction table. Bounds count states, bytes or simulated
//! time, never wall clock. Where we diverge from the paper, the record is
//! [`pinned`] to our current number with the reason, so it fails if that
//! number moves either way: moving it is a finding to explain, not noise.

use cb_bench::scenarios;
use crystalball_suite::core::{CheckerMode, Controller, ControllerConfig, Mode};
use crystalball_suite::fleet::{bullet_member, Fleet, FleetConfig, MemberCommon, MemberStats};
use crystalball_suite::mc::{find_consequences, find_errors, random_walk, SearchConfig};
use crystalball_suite::model::{
    Encode, ExploreOptions, GlobalState, NodeId, PropertySet, Protocol, SimDuration, SimTime,
};
use crystalball_suite::protocols::bullet::{self, Bullet, BulletBugs};
use crystalball_suite::protocols::chord::{self, ChordBugs};
use crystalball_suite::protocols::paxos::{self, Action, Paxos, PaxosBugs};
use crystalball_suite::protocols::randtree::{self, RandTree, RandTreeBugs};
use crystalball_suite::runtime::{
    Hook, NoHook, Scenario, ScriptEvent, SimConfig, SimStats, Simulation, SnapshotRuntime,
};
use crystalball_suite::snapshot::{CheckpointManager, SlotDelta, SnapMsg, SnapshotConfig};

/// Prints one ledger record and fails the test if its bound does not hold.
fn claim(id: &str, paper: &str, ours: &str, bound: &str, holds: bool) {
    let record = format!("{id:<26} | paper: {paper:<34} | ours: {ours:<36} | {bound}");
    println!("{record}");
    assert!(holds, "claim broken: {record}");
}

/// A divergence from the paper: holds only while ours reads exactly `head`.
fn pinned(id: &str, paper: &str, ours: &str, head: &str, why: &str) {
    claim(id, paper, ours, &format!("= {head} ({why})"), ours == head);
}

/// Fig. 12: exhaustive search from the initial state of a 5-node RandTree.
/// The paper timed it (~8 h by depth 12); we count the states each BFS
/// level adds, which is what makes the time exponential.
#[test]
fn fig12_exhaustive_search_grows_per_level() {
    let proto = RandTree::new(2, vec![NodeId(0)], RandTreeBugs::as_shipped());
    let gs = GlobalState::init(&proto, (0..5).map(NodeId));
    let config = SearchConfig {
        max_depth: Some(6),
        max_states: None,
        max_violations: usize::MAX,
        ..SearchConfig::default()
    };
    let levels = find_errors(&proto, &randtree::properties::all(), &gs, config)
        .stats
        .per_depth;
    let growth = levels.windows(2).skip(1).map(|w| w[1] / w[0]).min();
    claim(
        "Fig. 12 states/level",
        "exponential; ~8 h by depth 12",
        &format!("{levels:?}"),
        "levels 2+ each >= 4x the one before",
        growth >= Some(4),
    );
}

/// §5.3: how deep exhaustive search gets within one state budget as the
/// system grows (the paper: 12 levels at 5 nodes, 1 level at 100). Each
/// BFS level is about 2N states wide, so 5 to 25 nodes already shows it.
#[test]
fn sec53_exhaustive_depth_falls_with_system_size() {
    let depth_at = |n: u32| {
        let proto = RandTree::new(2, vec![NodeId(0)], RandTreeBugs::as_shipped());
        let gs = GlobalState::init(&proto, (0..n).map(NodeId));
        let config = SearchConfig {
            max_states: Some(500),
            max_violations: usize::MAX,
            ..SearchConfig::default()
        };
        find_errors(&proto, &randtree::properties::all(), &gs, config)
            .stats
            .max_depth
    };
    let depths = [5, 10, 25].map(depth_at);
    claim(
        "§5.3 depth by size",
        "5 nodes: 12 levels; 100 nodes: 1",
        &format!("5/10/25 nodes: {depths:?} at 500 states"),
        "strictly falls with size",
        depths[0] > depths[1] && depths[1] > depths[2],
    );
}

/// Figs. 15/16: consequence-prediction memory from the Fig. 2 live state.
#[test]
fn fig15_16_prediction_memory() {
    let (proto, gs) = scenarios::randtree_fig2(RandTreeBugs::none());
    let config = SearchConfig {
        max_depth: Some(8),
        max_states: None,
        max_violations: usize::MAX,
        ..SearchConfig::default()
    };
    let stats = find_consequences(&proto, &randtree::properties::all(), &gs, config).stats;
    claim(
        "Fig. 15 tree bytes",
        "< 1 MB at depth 7-8 (fits in L2)",
        &format!("{} B at depth 8", stats.tree_bytes),
        "< 1 MB",
        stats.tree_bytes < 1 << 20,
    );
    claim(
        "Fig. 16 bytes/state",
        "converges to ~150 B",
        &format!("{} B", stats.bytes_per_state()),
        "<= 150 B",
        stats.bytes_per_state() <= 150,
    );
}

/// §3.2/Fig. 8: the `localExplored` test prunes consequence prediction far
/// below exhaustive search from the same live state and depth.
#[test]
fn sec32_consequence_prediction_prunes_the_fig2_search() {
    let (proto, gs) = scenarios::randtree_fig2(RandTreeBugs::none());
    let props = randtree::properties::all();
    let config = SearchConfig {
        max_depth: Some(5),
        max_states: None,
        max_violations: usize::MAX,
        ..SearchConfig::default()
    };
    let cp = find_consequences(&proto, &props, &gs, config.clone()).stats;
    let bfs = find_errors(&proto, &props, &gs, config).stats;
    claim(
        "§3.2 CP vs BFS states",
        "CP prunes the search",
        &format!("{} vs {} at depth 5", cp.states_visited, bfs.states_visited),
        "BFS >= 10x CP",
        bfs.states_visited >= 10 * cp.states_visited,
    );
}

/// §5.3: consequence prediction from each bug's live state against
/// exhaustive search and random walk from the initial state, one budget.
#[test]
fn sec53_consequence_prediction_beats_macemc() {
    fn found<P: Protocol>(
        proto: &P,
        props: &PropertySet<P>,
        live: &GlobalState<P>,
        explore: ExploreOptions,
    ) -> [bool; 3] {
        let initial = GlobalState::init(proto, live.nodes.keys().copied());
        let config = SearchConfig {
            max_states: Some(20_000),
            max_depth: Some(12),
            explore,
            ..SearchConfig::default()
        };
        [
            find_consequences(proto, props, live, config.clone()),
            find_errors(proto, props, &initial, config.clone()),
            random_walk(proto, props, &initial, config, 42, 24),
        ]
        .map(|out| !out.is_clean())
    }
    let rt = randtree::properties::all();
    let ch = chord::properties::all();
    let default = ExploreOptions::default();
    let mut rows = Vec::new();
    for bug in ["R1", "R4", "R7"] {
        let (proto, live) = scenarios::randtree_fig2(RandTreeBugs::only(bug));
        rows.push(found(&proto, &rt, &live, default));
    }
    let (proto, live) = scenarios::randtree_self_joined(RandTreeBugs::only("R6"));
    rows.push(found(&proto, &rt, &live, default));
    let (proto, live) = scenarios::randtree_fig9(RandTreeBugs::only("R3"));
    rows.push(found(&proto, &rt, &live, default));
    let (proto, live) = scenarios::chord_ring(&[1, 5, 9, 12], ChordBugs::only("C1"));
    let peer_errors = ExploreOptions {
        peer_errors: true,
        ..default
    };
    rows.push(found(&proto, &ch, &live, peer_errors));
    let (proto, live) = scenarios::chord_ring(&[1, 5], ChordBugs::only("C3"));
    rows.push(found(&proto, &ch, &live, default));

    let [cp, bfs, walk] = [0, 1, 2].map(|i| rows.iter().filter(|r| r[i]).count());
    claim(
        "§5.3 CP from live",
        "finds every bug",
        &format!("{cp}/7"),
        "= 7/7",
        cp == 7,
    );
    let near_init = "R6, R7 and C3 need no prior history to fire";
    pinned(
        "§5.3 BFS from initial",
        "none in 17 h",
        &format!("{bfs}/7"),
        "3/7",
        near_init,
    );
    pinned(
        "§5.3 walk from initial",
        "misses 7 of the bugs",
        &format!("{walk}/7"),
        "3/7",
        near_init,
    );
    claim(
        "§5.3 CP vs MaceMC",
        "CP finds bugs MaceMC misses",
        &format!("CP {cp}, BFS {bfs}, walk {walk}"),
        "CP > BFS and CP > walk",
        cp > bfs && cp > walk,
    );
}

/// The transient tree inconsistencies R1–R4 of §5.4.1's churn run. R5–R7
/// are permanent once entered, which would turn the per-state violation
/// count into a step count; Table 1 and §5.3 cover them.
fn churn_bugs() -> RandTreeBugs {
    let mut b = RandTreeBugs::none();
    b.r1_update_sibling_keeps_child = true;
    b.r2_join_reply_keeps_children = true;
    b.r3_new_root_keeps_child = true;
    b.r4_promotion_keeps_siblings = true;
    b
}

fn randtree_churn<H: Hook<RandTree>>(hook: H, snapshots: bool) -> (SimStats, H) {
    let nodes: Vec<NodeId> = (0..10).map(NodeId).collect();
    let mut sim = Simulation::new(
        RandTree::new(2, vec![NodeId(0)], churn_bugs()),
        &nodes,
        randtree::properties::all(),
        hook,
        SimConfig {
            seed: 2009,
            snapshots: snapshots.then(|| SnapshotRuntime {
                checkpoint_interval: SimDuration::from_secs(10),
                gather_interval: SimDuration::from_secs(10),
                ..SnapshotRuntime::default()
            }),
            ..SimConfig::default()
        },
    );
    sim.load_scenario(Scenario::churn(
        &nodes,
        |_| randtree::Action::Join { target: NodeId(0) },
        SimDuration::from_secs(15),
        SimDuration::from_secs(300),
        2009,
    ));
    sim.run_for(SimDuration::from_secs(330));
    (sim.stats.clone(), sim.hook)
}

/// §5.4.1: RandTree (10 nodes, 5 simulated minutes of churn) without
/// CrystalBall, with only the ISC, and with steering plus the ISC.
#[test]
fn sec541_randtree_steering_under_churn() {
    let controller = |isc_only: bool| {
        let search = if isc_only {
            SearchConfig {
                max_states: Some(1),
                max_depth: Some(0),
                ..SearchConfig::default()
            }
        } else {
            SearchConfig {
                max_states: Some(10_000),
                max_depth: Some(6),
                ..SearchConfig::default()
            }
        };
        Controller::new(
            RandTree::new(2, vec![NodeId(0)], churn_bugs()),
            randtree::properties::all(),
            ControllerConfig {
                mode: Mode::ExecutionSteering,
                mc_latency: SimDuration::from_secs(5),
                replay_known_paths: !isc_only,
                search,
                ..ControllerConfig::default()
            },
        )
    };
    let (base, _) = randtree_churn(NoHook, false);
    let (isc_run, isc) = randtree_churn(controller(true), true);
    let (steer_run, ctl) = randtree_churn(controller(false), true);
    let scale = "10 nodes x 5 min, not 25 x 84";
    pinned(
        "§5.4.1 without CB",
        "121 inconsistent states",
        &base.violating_states.to_string(),
        "1502",
        scale,
    );
    claim(
        "§5.4.1 ISC only",
        "325 engagements, 0 left",
        &format!(
            "{} engagements, {} left",
            isc.stats.isc_vetoes, isc_run.violating_states
        ),
        "0 left",
        isc_run.violating_states == 0,
    );
    claim(
        "§5.4.1 steering + ISC",
        "0 inconsistent states",
        &steer_run.violating_states.to_string(),
        "0 and below without CB",
        steer_run.violating_states == 0 && steer_run.violating_states < base.violating_states,
    );
    let s = &ctl.stats;
    claim(
        "§5.4.1 who avoids",
        "415 changes by steering, 160 ISC",
        &format!("{} filter blocks, {} ISC", s.filter_hits, s.isc_vetoes),
        "filter blocks > ISC vetoes",
        s.filter_hits > s.isc_vetoes,
    );
    let changed = s.filter_hits + s.isc_vetoes;
    let actions = steer_run.actions_executed + changed;
    pinned(
        "§5.4.1 actions changed",
        "2.77 % of 14956",
        &format!(
            "{:.2} % of {actions}",
            100.0 * changed as f64 / actions as f64
        ),
        "1.56 % of 7073",
        scale,
    );
}

/// The Fig. 13 schedule: round 1 chooses on {A, B} while C is cut off;
/// after `gap_secs` B proposes round 2 with A cut off. With `crash_b`
/// (bug P2) B also reboots just before round 2 and forgets its
/// un-persisted acceptor state.
fn fig13_schedule(gap_secs: u64, crash_b: bool) -> Scenario<Paxos> {
    let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
    let link = |a, b, up| ScriptEvent::Connectivity { a, b, up };
    let act = |node, action| ScriptEvent::Action { node, action };
    let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
    let round2 = 5_000 + gap_secs * 1_000;
    let s = Scenario::new()
        .at(at(0), link(a, c, false))
        .at(at(0), link(b, c, false))
        .at(at(100), act(a, Action::Propose))
        .at(at(4_000), link(a, c, true))
        .at(at(4_000), link(b, c, true))
        .at(at(round2), link(a, b, false))
        .at(at(round2), link(a, c, false))
        .at(at(round2 + 100), act(b, Action::Propose));
    if crash_b {
        s.at(at(round2 + 10), act(b, Action::Crash))
    } else {
        s
    }
}

fn paxos_proto(bug: &str) -> Paxos {
    let proto = Paxos::new((0..3).map(NodeId).collect(), PaxosBugs::only(bug));
    match bug {
        "P2" => proto.with_crashes(),
        _ => proto,
    }
}

fn paxos_run<H: Hook<Paxos>>(bug: &str, gap: u64, seed: u64, hook: H) -> (u64, H) {
    let proto = paxos_proto(bug);
    let members = proto.members.clone();
    let mut sim = Simulation::new(
        proto,
        &members,
        paxos::properties::all(),
        hook,
        SimConfig {
            seed,
            snapshots: Some(SnapshotRuntime {
                checkpoint_interval: SimDuration::from_secs(2),
                gather_interval: SimDuration::from_secs(2),
                ..SnapshotRuntime::default()
            }),
            ..SimConfig::default()
        },
    );
    sim.load_scenario(fig13_schedule(gap, bug == "P2"));
    sim.run_for(SimDuration::from_secs(gap + 30));
    (sim.stats.violating_states, sim.hook)
}

/// Fig. 14: four runs of the Fig. 13 schedule per bug, the inter-round gap
/// swept over [0, 60] s, each classified as avoided by steering, avoided by
/// the ISC, or a violation.
fn fig14(bug: &str, paper_avoided: &str, paper_split: &str, head: &str, why: &str) {
    const RUNS: u64 = 4;
    let (mut exposed, mut steered, mut isc, mut violated) = (0, 0, 0, 0);
    let (mut filters, mut hits, mut predictions) = (0, 0, 0);
    for i in 0..RUNS {
        let (gap, seed) = (i * 61 / RUNS, 1000 + i);
        exposed += u64::from(paxos_run(bug, gap, seed, NoHook).0 > 0);
        let ctl = Controller::new(
            paxos_proto(bug),
            paxos::properties::all(),
            ControllerConfig {
                mode: Mode::ExecutionSteering,
                mc_latency: SimDuration::from_secs(6),
                search: SearchConfig {
                    max_states: Some(12_000),
                    max_depth: Some(12),
                    explore: ExploreOptions::minimal(),
                    ..SearchConfig::default()
                },
                ..ControllerConfig::default()
            },
        );
        let (violations, ctl) = paxos_run(bug, gap, seed, ctl);
        let s = &ctl.stats;
        (filters, hits, predictions) = (
            filters + s.filters_installed,
            hits + s.filter_hits,
            predictions + s.predictions,
        );
        if violations > 0 {
            violated += 1;
        } else if s.filter_hits > 0 {
            steered += 1;
        } else if s.isc_vetoes > 0 {
            isc += 1;
        }
    }
    claim(
        &format!("Fig. 14 {bug} exposed"),
        "200 runs exposing the bugs",
        &format!("{exposed}/{RUNS} without CB"),
        "every run",
        exposed == RUNS,
    );
    claim(
        &format!("Fig. 14 {bug} avoided"),
        paper_avoided,
        &format!("{}/{RUNS}", RUNS - violated),
        "every run",
        violated == 0,
    );
    let ours = format!("steering {steered}, ISC {isc}; {predictions} predicted, {filters} filters");
    pinned(
        &format!("Fig. 14 {bug} split"),
        paper_split,
        &format!("{ours}, {hits} hits"),
        head,
        why,
    );
}

#[test]
fn fig14_paxos_p1_steering() {
    fig14(
        "P1",
        "98 %",
        "87 % steering, 11 % ISC",
        "steering 0, ISC 4; 10 predicted, 10 filters, 0 hits",
        "its filters never block an event; the ISC vetoes instead",
    );
}

#[test]
fn fig14_paxos_p2_steering() {
    fig14(
        "P2",
        "95 %",
        "85 % steering, 11 % ISC",
        "steering 0, ISC 4; 0 predicted, 0 filters, 0 hits",
        "minimal exploration predicts nothing; the ISC vetoes instead",
    );
}

/// One Bullet' dissemination of 32 blocks of 16 kB to 8 nodes: each
/// receiver's download time in simulated seconds, sorted, and the
/// checkpoint bytes sent.
fn bullet_download(with_cb: bool) -> (Vec<f64>, u64) {
    let ids: Vec<NodeId> = (0..8).map(NodeId).collect();
    let mut proto = Bullet::with_mesh(&ids, 3, 32, BulletBugs::none());
    proto.block_size = 16 * 1024;
    let mut sim = Simulation::new(
        proto,
        &ids,
        PropertySet::new().with(bullet::properties::diff_coverage()),
        NoHook,
        SimConfig {
            seed: 17,
            snapshots: with_cb.then(SnapshotRuntime::default),
            track_violations: false,
            ..SimConfig::default()
        },
    );
    let mut done: Vec<Option<f64>> = vec![None; ids.len() - 1];
    while done.iter().any(Option::is_none) {
        sim.run_for(SimDuration::from_secs(1));
        assert!(sim.now() < SimTime::ZERO + SimDuration::from_secs(1200));
        for (slot, n) in done.iter_mut().zip(&ids[1..]) {
            if slot.is_none() && sim.state(*n).is_some_and(|s| s.complete(32)) {
                *slot = Some(sim.now().as_secs_f64());
            }
        }
    }
    let mut secs: Vec<f64> = done.into_iter().flatten().collect();
    secs.sort_by(f64::total_cmp);
    (secs, sim.stats.snapshot_bytes_sent)
}

/// Fig. 17: CrystalBall's checkpointing slows a Bullet' download by under
/// 10 %.
#[test]
fn fig17_bullet_slowdown() {
    let (base, _) = bullet_download(false);
    let (with_cb, bytes) = bullet_download(true);
    let median = |v: &[f64]| v[v.len() / 2];
    let slowdown = (median(&with_cb) - median(&base)) / median(&base) * 100.0;
    claim(
        "Fig. 17 slowdown",
        "< 10 % (20 MB, 49 nodes)",
        &format!("{slowdown:+.1} % of {:.0} s median", median(&base)),
        "< 10 %",
        slowdown < 10.0,
    );
    // Checkpoint bits over the slowest download, shared by the 8 nodes.
    let kbps = bytes as f64 * 8.0 / 1000.0 / with_cb[with_cb.len() - 1] / 8.0;
    pinned(
        "Fig. 17 checkpoint traffic",
        "~30 kbps per node",
        &format!("{kbps:.1} kbps per node, {bytes} B"),
        "0.3 kbps per node, 10846 B",
        "a 512 kB file, so file maps of 32 blocks",
    );
}

/// One fleet of a single Bullet' B1 member, 5 nodes and 120 blocks, as
/// the benchmark's `fleet_steer` workload builds it (salt, drain interval,
/// one checker lane, its steering controller), with no fault plan: the
/// member's stats after `secs` simulated seconds, steered or unsteered.
fn bullet_fleet_member(steered: bool, secs: u64) -> MemberStats {
    let controller = ControllerConfig {
        search: SearchConfig {
            max_states: Some(300),
            ..SearchConfig::default()
        },
        checker: CheckerMode::Sharded { shards: 1 },
        mc_latency: SimDuration::from_millis(500),
        safety_check_states: 300,
        poll_in_hooks: false,
        ..ControllerConfig::default()
    };
    let mut fleet = Fleet::new(FleetConfig {
        seed: 1,
        duration: SimDuration::from_secs(secs),
        drain_interval: SimDuration::from_millis(500),
        checker_lanes: 1,
        pool_threads: 0,
    });
    let rt = fleet.runtime().clone();
    let common = if steered {
        MemberCommon::steering("bullet", 0xc3, controller)
    } else {
        MemberCommon::baseline("bullet", 0xc3)
    };
    fleet.add_member(bullet_member(&rt, common, 5, 120, BulletBugs::only("B1")));
    fleet.run().members.remove(0)
}

/// §5.5 in the fleet: what steering costs the benchmark's Bullet' B1
/// member, and which mechanism pays it — installed filters or ISC vetoes,
/// blocking deliveries or handlers. At the benchmark's 960 s horizon,
/// without its fault plan: the twin has finished its dissemination, the
/// steered member stopped early, and every block is a handler filter.
#[test]
fn fleet_bullet_steering_throttle() {
    let secs = 960;
    let steered = bullet_fleet_member(true, secs);
    let twin = bullet_fleet_member(false, secs);
    pinned(
        "§5.5 fleet Bullet' cost",
        "< 10 % slowdown (Fig. 17)",
        &format!(
            "delivered {}/{} of twin ({:.1} %); filter hits {}, ISC vetoes {}; \
             blocked {} deliveries, {} actions",
            steered.messages_delivered,
            twin.messages_delivered,
            100.0 * steered.messages_delivered as f64 / twin.messages_delivered as f64,
            steered.filter_hits,
            steered.isc_vetoes,
            steered.deliveries_blocked,
            steered.actions_blocked
        ),
        "delivered 156/1238 of twin (12.6 %); filter hits 1812, ISC vetoes 0; \
         blocked 0 deliveries, 1812 actions",
        "a handler filter on the B1 mesh's timers stays installed and blocks every firing",
    );
}

/// The bytes the snapshot wire ships for a checkpoint with no base: LZW
/// output when that is smaller, raw otherwise.
fn wire_bytes(raw: &[u8]) -> usize {
    let mut responder = CheckpointManager::new(NodeId(1), SnapshotConfig::default());
    let request = SnapMsg::Request { cr: 1 };
    match &responder.handle(SimTime::ZERO, NodeId(0), &request, raw)[..] {
        [(
            _,
            SnapMsg::Reply {
                entry: SlotDelta::Full { data, .. },
                ..
            },
        )] => data.len(),
        other => panic!("no base, yet {other:?}"),
    }
}

/// §5.5: checkpoint sizes and checkpoint bandwidth.
#[test]
fn sec55_checkpoint_overheads() {
    let why = "a node's checkpoint holds its protocol fields only";
    let (_, rt) = scenarios::randtree_fig2(RandTreeBugs::none());
    pinned(
        "§5.5 RandTree checkpoint",
        "176 B",
        &format!("{} B", wire_bytes(&rt.slot(NodeId(9)).unwrap().to_bytes())),
        "16 B",
        why,
    );
    let (_, ring) = scenarios::chord_ring(&[1, 5, 9, 12, 17, 23, 31, 40], ChordBugs::none());
    pinned(
        "§5.5 Chord checkpoint",
        "1028 B",
        &format!(
            "{} B",
            wire_bytes(&ring.slot(NodeId(9)).unwrap().to_bytes())
        ),
        "22 B",
        why,
    );
    // A Bullet' node halfway through a 1280-block file.
    let ids: Vec<NodeId> = (0..8).map(NodeId).collect();
    let proto = Bullet::with_mesh(&ids, 3, 1280, BulletBugs::none());
    let mut st = proto.init(NodeId(1));
    st.file_map.extend((0..640).map(|b| b * 2));
    st.known.insert(NodeId(0), (0..1280).collect());
    pinned(
        "§5.5 Bullet' checkpoint",
        "~3 kB compressed",
        &format!("{} B", wire_bytes(&st.to_bytes())),
        "3676 B",
        "LZW output is larger, so the wire ships it raw",
    );

    let nodes: Vec<NodeId> = (0..10).map(NodeId).collect();
    let mut sim = Simulation::new(
        RandTree::new(2, vec![NodeId(0)], RandTreeBugs::none()),
        &nodes,
        PropertySet::new(),
        NoHook,
        SimConfig {
            seed: 55,
            snapshots: Some(SnapshotRuntime {
                checkpoint_interval: SimDuration::from_secs(10),
                gather_interval: SimDuration::from_secs(10),
                ..SnapshotRuntime::default()
            }),
            track_violations: false,
            ..SimConfig::default()
        },
    );
    sim.load_scenario(Scenario::churn(
        &nodes,
        |_| randtree::Action::Join { target: NodeId(0) },
        SimDuration::from_secs(60),
        SimDuration::from_secs(120),
        55,
    ));
    sim.run_for(SimDuration::from_secs(120));
    let bytes = sim.stats.snapshot_bytes_sent;
    let bps = bytes as f64 * 8.0 / 120.0 / 10.0;
    pinned(
        "§5.5 checkpoint bandwidth",
        "803 bps per node (100 nodes)",
        &format!("{bps:.0} bps per node, {bytes} B"),
        "41 bps per node, 6169 B",
        "10 nodes, 2 min; checkpoints 16 B, not 176 B",
    );
}
