//! Checker-pipeline costs: diff-shipped submission bytes vs full-encoding
//! bytes, and round latency at 1/2/4 checker shards.
//!
//! Two halves measured separately:
//!
//! 1. **Submission cost** — what a deployed node ships to the checker
//!    process per prediction round. A full submission ships the canonical
//!    encoding of the whole decoded `GlobalState`; diff shipping sends a
//!    `StateDelta` against the last submission on the same connection.
//! 2. **Round latency** — wall-clock to push a burst of rounds through a
//!    `CheckerPool` at 1 (the single background service), 2 and 4 shards.
//!    In process the pool takes each state as a shared clone, so there
//!    are no bytes to report here.
//!
//! Gated on its measured values: diff-shipped bytes stay strictly below
//! full-clone bytes and, in fast mode (`CB_BENCH_FAST=1`, where the byte
//! count is deterministic), within 15 % of [`FAST_DIFF_BYTES`]; every
//! submitted round completes at each shard count.

use std::time::{Duration, Instant};

use cb_bench::harness::{fast_mode, fmt_bytes, fmt_duration, preamble, section};
use cb_mc::SearchConfig;
use cb_model::{GlobalState, NodeId, SimDuration};
use cb_protocols::randtree::{self, Action as RtAction, RandTree, RandTreeBugs};
use cb_runtime::{NoHook, Scenario, SimConfig, Simulation};
use cb_snapshot::DeltaEncoder;
use crystalball::{CheckerMode, Controller, ControllerConfig, Mode};

/// Diff-shipped submission bytes of the fast-mode run, as recorded when
/// the gate was set. A change that ships more than 15 % above it is a
/// regression in what a deployed node puts on the wire; one that ships
/// less may lower it.
const FAST_DIFF_BYTES: u64 = 541;

/// A multi-node RandTree neighborhood evolving under churn: one snapshot
/// of the live global state every few simulated seconds — the submission
/// stream a deployed controller would produce.
fn snapshot_stream(rounds: usize) -> (RandTree, Vec<GlobalState<RandTree>>) {
    let nodes: Vec<NodeId> = (0..8).map(NodeId).collect();
    let proto = RandTree::new(2, vec![NodeId(0)], RandTreeBugs::none());
    let mut sim = Simulation::new(
        proto.clone(),
        &nodes,
        randtree::properties::all(),
        NoHook,
        SimConfig {
            seed: 4242,
            track_violations: false,
            ..SimConfig::default()
        },
    );
    sim.load_scenario(Scenario::churn(
        &nodes,
        |_| RtAction::Join { target: NodeId(0) },
        SimDuration::from_secs(20),
        SimDuration::from_secs(rounds as u64 * 5 + 40),
        4242,
    ));
    let mut states = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        sim.run_for(SimDuration::from_secs(5));
        states.push(sim.gs.clone());
    }
    (proto, states)
}

fn main() {
    preamble(
        "Checker pipeline — diff-shipped submissions and sharded round latency",
        "a deployed node ships a diff of its neighborhood state, not the whole \
         encoding; shards let rounds from different nodes check in parallel",
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host parallelism: {cores} core(s)");
    if cores < 2 {
        println!("NOTE: single-core host — shard counts above 1 cannot cut wall-clock here;");
        println!("      the latency column then measures sharding overhead, not scaling.");
    }

    let rounds = if fast_mode() { 8 } else { 24 };
    let (proto, states) = snapshot_stream(rounds);
    let node_count = states.last().map_or(0, |s| s.node_count());

    // ── Part 1: submission bytes, full-clone vs diff-shipped. ──
    section(&format!(
        "submission bytes over {rounds} rounds of an {node_count}-node neighborhood"
    ));
    let mut enc = DeltaEncoder::new();
    for gs in &states {
        let _ = enc.encode_state(gs);
    }
    let full = enc.stats.raw_bytes;
    let diff = enc.stats.shipped_bytes;
    println!(
        "full-clone submission: {:>10}   ({} rounds x whole GlobalState)",
        fmt_bytes(full as usize),
        rounds
    );
    println!(
        "diff-shipped (StateDelta): {:>6}   ({} unchanged / {} patched / {} full slots)",
        fmt_bytes(diff as usize),
        enc.stats.unchanged_slots,
        enc.stats.patched_slots,
        enc.stats.full_slots
    );
    println!(
        "=> diff shipping moves {:.1}% of the full-clone bytes",
        100.0 * diff as f64 / full.max(1) as f64
    );
    assert!(
        diff < full,
        "diff-shipped bytes ({diff}) must be strictly below full-clone bytes ({full})"
    );
    if fast_mode() {
        let limit = FAST_DIFF_BYTES as f64 * 1.15;
        assert!(
            diff as f64 <= limit,
            "diff-shipped bytes regressed: {diff} > {limit:.0} ({FAST_DIFF_BYTES} + 15 %)"
        );
        println!("diff-shipped bytes: {diff} <= {limit:.0} ({FAST_DIFF_BYTES} + 15 %) -> ok");
    }

    // ── Part 2: round latency at 1/2/4 shards. ──
    let budget = if fast_mode() { 2_000 } else { 10_000 };
    section(&format!(
        "burst of {rounds} rounds through the CheckerPool ({budget}-state search budget)"
    ));
    println!(
        "{:>7} {:>10} {:>12} {:>14}",
        "shards", "rounds", "wall", "rounds/sec"
    );
    for shards in [1usize, 2, 4] {
        let mut ctl = Controller::new(
            proto.clone(),
            randtree::properties::all(),
            ControllerConfig {
                mode: Mode::DeepOnlineDebugging,
                checker: CheckerMode::Sharded { shards },
                search: SearchConfig {
                    max_states: Some(budget),
                    max_depth: Some(6),
                    ..SearchConfig::default()
                },
                ..ControllerConfig::default()
            },
        );
        let t0 = Instant::now();
        for (i, gs) in states.iter().enumerate() {
            // Rounds fan out over the neighborhood's nodes, so multiple
            // shards genuinely split the burst.
            let node = *gs.nodes.keys().nth(i % gs.node_count()).expect("node");
            ctl.run_round(cb_model::SimTime(i as u64), node, gs);
        }
        let applied = ctl.drain_predictions(cb_model::SimTime(1_000), Duration::from_secs(600));
        let wall = t0.elapsed();
        assert_eq!(applied, rounds, "every submitted round completed");
        let rate = rounds as f64 / wall.as_secs_f64();
        println!(
            "{shards:>7} {rounds:>10} {:>12} {rate:>14.2}",
            fmt_duration(wall)
        );
    }
}
