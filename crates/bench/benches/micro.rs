//! Micro-benchmarks and the design ablations.
//!
//! * `consequence_prediction` — states/second of the online checker;
//! * `ablation/local_explored` — the one-line pruning of Fig. 8 vs plain
//!   BFS (states visited to the same depth);
//! * `successor` — the checker's inner step (clone + apply + hash), per
//!   event, on the four canonical live states; `successor_memo/{hit,miss}`
//!   — the same step as the engines take it, through a `TransitionMemo` —
//!   and `successor_memo/probe`, the successor's hash alone from the memo;
//! * `lzw` / `diff` / `codec` — checkpoint-pipeline throughput;
//! * `snapshot_gather` — full request/response round over the manager.
//!
//! Uses the in-repo timing harness (`cb_bench::harness::microbench`)
//! rather than Criterion, which is unavailable offline.

use std::hint::black_box;

use cb_bench::harness::microbench;
use cb_bench::scenarios;
use cb_mc::{find_consequences, find_errors, SearchConfig};
use cb_model::{
    apply_event, enumerate_events, Encode, ExploreOptions, GlobalState, NodeId, Protocol,
    TransitionMemo,
};
use cb_protocols::chord::ChordBugs;
use cb_protocols::paxos::PaxosBugs;
use cb_protocols::randtree::{self, RandTreeBugs};
use cb_snapshot::{encode_diff, lzw, CheckpointManager, SnapshotConfig};

fn bench_consequence_prediction() {
    let (proto, gs) = scenarios::randtree_fig2(RandTreeBugs::none());
    let props = randtree::properties::all();
    microbench("consequence_prediction/depth4", || {
        let out = find_consequences(
            &proto,
            &props,
            black_box(&gs),
            SearchConfig {
                max_depth: Some(4),
                max_states: Some(100_000),
                explore: ExploreOptions::default(),
                max_violations: usize::MAX,
                ..SearchConfig::default()
            },
        );
        black_box(out.stats.states_visited)
    });
}

fn bench_ablation_local_explored() {
    let (proto, gs) = scenarios::randtree_fig2(RandTreeBugs::none());
    let props = randtree::properties::all();
    let mk = |prune| SearchConfig {
        max_depth: Some(4),
        max_states: Some(400_000),
        explore: ExploreOptions::default(),
        prune_local: prune,
        max_violations: usize::MAX,
        ..SearchConfig::default()
    };
    // Report the pruning factor once, outside the timing loop.
    let cp = find_consequences(&proto, &props, &gs, mk(true));
    let bfs = find_errors(&proto, &props, &gs, mk(false));
    println!(
        "\n[ablation] localExplored pruning: {} vs {} states to depth 4 (x{:.1} reduction)\n",
        cp.stats.states_visited,
        bfs.stats.states_visited,
        bfs.stats.states_visited as f64 / cp.stats.states_visited.max(1) as f64
    );
    microbench("ablation_local_explored/with_pruning", || {
        black_box(
            find_consequences(&proto, &props, &gs, mk(true))
                .stats
                .states_visited,
        )
    });
    microbench("ablation_local_explored/without_pruning", || {
        black_box(
            find_errors(&proto, &props, &gs, mk(false))
                .stats
                .states_visited,
        )
    });
}

/// What one successor costs the search: clone the state, apply one event,
/// hash the result — averaged over every event enabled in `gs`. The state
/// is hashed first, as a dequeued frontier state always has been.
fn bench_successor_of<P: Protocol>(proto: &P, gs: &GlobalState<P>) {
    let events = enumerate_events(proto, gs, &ExploreOptions::default());
    black_box(gs.state_hash());
    let per_pass = microbench(
        &format!("successor/{} x{} events", proto.name(), events.len()),
        || {
            for event in &events {
                let mut next = black_box(gs).clone();
                apply_event(proto, &mut next, event);
                black_box(next.state_hash());
            }
        },
    );
    println!(
        "{:<45} {:>8} ns/successor",
        "",
        per_pass.as_nanos() / events.len().max(1) as u128
    );
}

/// The same step the way the engines take it, through a
/// [`TransitionMemo`]: `hit` serves every event from a table filled before
/// the clock starts (slot handle swapped in, its leaf hash with it);
/// `probe` asks the same table for each successor's hash alone
/// (`hash_of`, no successor built) — what a duplicate costs the search;
/// `miss` starts each pass on an empty memo, so every event runs its
/// handler, is hashed from scratch and is recorded — and the pass pays the
/// memo's teardown too.
fn bench_successor_memo_of<P: Protocol>(proto: &P, gs: &GlobalState<P>) {
    let events = enumerate_events(proto, gs, &ExploreOptions::default());
    black_box(gs.state_hash());
    let expand_all = |memo: &mut TransitionMemo<'_, P>| {
        let mut from = memo.expand(black_box(gs));
        for event in &events {
            let (next, _) = from.successor(event);
            black_box(next.state_hash());
        }
    };
    let mut filled = TransitionMemo::new(proto);
    expand_all(&mut filled);
    let name = |leg| {
        format!(
            "successor_memo/{leg}/{} x{} events",
            proto.name(),
            events.len()
        )
    };
    let hit = microbench(&name("hit"), || expand_all(&mut filled));
    assert_eq!(filled.misses(), events.len(), "the hit leg only hit");
    let probe = microbench(&name("probe"), || {
        let mut from = filled.expand(black_box(gs));
        for event in &events {
            black_box(
                from.hash_of(event)
                    .expect("a filled memo holds every event"),
            );
        }
    });
    let miss = microbench(&name("miss"), || {
        expand_all(&mut TransitionMemo::new(proto))
    });
    for (leg, per_pass) in [("hit", hit), ("probe", probe), ("miss", miss)] {
        println!(
            "{:<45} {:>8} ns/successor ({leg})",
            "",
            per_pass.as_nanos() / events.len().max(1) as u128
        );
    }
}

/// Runs `f` on the canonical live state of each protocol.
macro_rules! on_canonical_states {
    ($f:ident) => {{
        let (p, gs) = scenarios::randtree_fig2(RandTreeBugs::as_shipped());
        $f(&p, &gs);
        let (p, gs) = scenarios::chord_ring(&[1, 5, 9, 12], ChordBugs::as_shipped());
        $f(&p, &gs);
        let (p, gs) = scenarios::paxos_near_violation(PaxosBugs::only("P1"));
        $f(&p, &gs);
        let (p, gs) = scenarios::bullet_b3_live();
        $f(&p, &gs);
    }};
}

fn bench_successor() {
    on_canonical_states!(bench_successor_of);
    on_canonical_states!(bench_successor_memo_of);
}

fn bench_checkpoint_pipeline() {
    let (_, gs) = scenarios::chord_ring(&[1, 5, 9, 12, 17, 23], ChordBugs::none());
    let raw = gs.slot(NodeId(9)).unwrap().to_bytes();
    let slot = gs.slot(NodeId(9)).unwrap();
    microbench("codec/encode_chord_slot", || black_box(slot.to_bytes()));
    microbench("lzw/compress_checkpoint", || {
        black_box(lzw::compress(black_box(&raw)))
    });
    let compressed = lzw::compress(&raw);
    microbench("lzw/decompress_checkpoint", || {
        black_box(lzw::decompress(black_box(&compressed)).unwrap())
    });
    let mut changed = raw.clone();
    if let Some(x) = changed.get_mut(4) {
        *x = x.wrapping_add(1);
    }
    microbench("diff/encode_small_change", || {
        black_box(encode_diff(black_box(&raw), black_box(&changed)))
    });
}

fn bench_snapshot_gather() {
    microbench("snapshot/gather_round_4_neighbors", || {
        let mut g = CheckpointManager::new(NodeId(0), SnapshotConfig::default());
        let mut peers: Vec<CheckpointManager> = (1..5)
            .map(|i| CheckpointManager::new(NodeId(i), SnapshotConfig::default()))
            .collect();
        let state = vec![7u8; 200];
        let reqs = g.start_gather(&peers.iter().map(|m| m.node()).collect::<Vec<_>>(), &state);
        for (dst, req) in reqs {
            let peer = peers.iter_mut().find(|m| m.node() == dst).unwrap();
            for (_, reply) in peer.handle(cb_model::SimTime::ZERO, NodeId(0), &req, &state) {
                g.handle(cb_model::SimTime::ZERO, dst, &reply, &state);
            }
        }
        black_box(g.poll_snapshot().expect("complete").states.len())
    });
}

fn main() {
    bench_consequence_prediction();
    bench_ablation_local_explored();
    bench_successor();
    bench_checkpoint_pipeline();
    bench_snapshot_gather();
}
