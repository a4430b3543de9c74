//! The traced run: every per-layer metric, measured from outside.
//!
//! `--trace 1` runs all five workloads, whichever `--workload` names (a
//! traced run has to print every per-layer metric): each for a tenth of
//! the requested seconds and at least one pass untraced and as many under
//! the span recorder, alternating — their ratio is that workload's
//! `obs.bench_trace_overhead_ratio.*` — plus the micro legs that time
//! single public functions of a layer on the same seeded inputs. At the
//! driver's 20 seconds that is one pass of either kind per workload: its
//! traced runs share 3420 seconds with a hundred measured ones, and five
//! set-ups are already in each. A longer `--seconds` buys more passes.
//! End-to-end numbers never come from this run.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::time::{Duration, Instant};

use cb_live::wire::frame_of;
use cb_live::{InstallBody, SubmitBody};
use cb_mc::{replay_path, EventFilter, FilterSet, Searcher};
use cb_model::{
    apply_event, enumerate_events, push_frame, Decode, Encode, Event, EventKey, ExploreOptions,
    FrameBuffer, FrameKind, GlobalState, NodeId, Protocol, SimTime, WireFrame,
};
use cb_snapshot::{encode_diff, lzw, CheckpointManager, DeltaEncoder, SnapshotConfig};
use crystalball::{CheckerMode, Controller, ControllerConfig};

use crate::fleet::FleetSteer;
use crate::harness::{median, over_passes, percentile, run_passes, Pass, Stopwatch, Workload};
use crate::inputs::{search_config, Family, PredictInputs, MID_BUDGET};
use crate::overlay::{boot_joined, LiveOverlay, NODES};
use crate::predict::{parallel_engine, PassStats, Predict};
use crate::round::{Fam, Half, RoundInproc};
use crate::spans::Recorder;

/// (name, unit, better) of every per-layer metric, in report order; a test
/// in `main.rs` holds `BENCHMARK.json`'s `per_layer` list to this table.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("model.apply_event_ns", "ns", "lower"),
    ("model.enumerate_events_ns", "ns", "lower"),
    ("model.state_hash_ns", "ns", "lower"),
    ("protocols.randtree_apply_ns", "ns", "lower"),
    ("protocols.paxos_apply_ns", "ns", "lower"),
    ("protocols.chord_apply_ns", "ns", "lower"),
    ("protocols.bullet_apply_ns", "ns", "lower"),
    ("model.encode_state_us", "us", "lower"),
    ("model.frame_roundtrip_ns", "ns", "lower"),
    ("mc.seq_states_per_s", "1/s", "higher"),
    ("mc.deep_search_ms", "ms", "lower"),
    ("mc.shallow_search_us", "us", "lower"),
    ("mc.par_states_per_s", "1/s", "higher"),
    ("mc.par_vs_seq_ratio", "ratio", "higher"),
    ("mc.one_worker_overhead_ratio", "ratio", "lower"),
    ("mc.merge_busy_share", "ratio", "lower"),
    ("mc.merge_wait_share", "ratio", "lower"),
    ("mc.merge_shard_skew", "ratio", "lower"),
    ("mc.enqueued_per_visited", "ratio", "lower"),
    ("mc.duplicate_ratio", "ratio", "lower"),
    ("mc.explored_bytes_per_state", "B", "lower"),
    ("mc.replay_path_us", "us", "lower"),
    ("mc.filter_match_ns", "ns", "lower"),
    ("mc.filter_codec_us", "us", "lower"),
    ("snapshot.gather_round_us", "us", "lower"),
    ("snapshot.delta_encode_us", "us", "lower"),
    ("model.submit_frame_us", "us", "lower"),
    ("model.frame_parse_us", "us", "lower"),
    ("snapshot.delta_decode_us", "us", "lower"),
    ("core.submit_us", "us", "lower"),
    ("core.round_wall_us", "us", "lower"),
    ("core.handoff_wait_us", "us", "lower"),
    ("live.install_frame_us", "us", "lower"),
    ("mc.decode_list_us", "us", "lower"),
    ("core.round_budget_sum_us", "us", "lower"),
    ("core.round_unattributed_us", "us", "lower"),
    ("snapshot.delta_shipped_ratio", "ratio", "lower"),
    ("snapshot.diff_encode_us", "us", "lower"),
    ("snapshot.lzw_compress_mb_s", "MB/s", "higher"),
    ("snapshot.lzw_decompress_mb_s", "MB/s", "higher"),
    ("snapshot.checkpoint_us", "us", "lower"),
    ("core.cache_hit_ratio", "ratio", "higher"),
    ("core.cache_hit_round_us", "us", "lower"),
    ("core.cache_miss_round_us", "us", "lower"),
    ("core.states_per_round", "count", "lower"),
    ("core.sync_round_us", "us", "lower"),
    ("runtime.unsteered_steps_per_s", "1/s", "higher"),
    ("runtime.steered_steps_per_s", "1/s", "higher"),
    ("runtime.step_ns_p50", "ns", "lower"),
    ("net.sim_route_ns", "ns", "lower"),
    ("net.fault_decide_ns", "ns", "lower"),
    ("fleet.steer_cost_ratio", "ratio", "lower"),
    ("fleet.rounds_per_s", "1/s", "higher"),
    ("fleet.drain_wait_share", "ratio", "lower"),
    ("fleet.drain_wait_us_p50", "us", "lower"),
    ("fleet.sched_overhead_ratio", "ratio", "lower"),
    ("fleet.cache_hit_ratio", "ratio", "higher"),
    ("fleet.wire_bytes_per_round", "B", "lower"),
    ("fleet.filters_installed", "count", "higher"),
    ("fleet.interventions", "count", "higher"),
    ("fleet.violating_states", "count", "lower"),
    ("fleet.delivered_ratio", "ratio", "higher"),
    ("live.boot_to_joined_s", "s", "lower"),
    ("live.frames_per_s", "1/s", "lower"),
    ("live.gathers_per_s", "1/s", "higher"),
    ("live.cpu_ms_per_node_s", "ms", "lower"),
    ("live.idle_cpu_ms_per_node_s", "ms", "lower"),
    ("live.probe_rtt_us_p50", "us", "lower"),
    ("live.probe_late_us_p90", "us", "lower"),
    ("live.snapshot_wire_bytes_per_gather", "B", "lower"),
    ("live.gather_timeouts", "count", "lower"),
    ("live.backpressure_drops", "count", "lower"),
    ("live.tcp_round_us_p50", "us", "lower"),
    ("live.tcp_overhead_us", "us", "lower"),
    (
        "obs.bench_trace_overhead_ratio.predict_seq",
        "ratio",
        "higher",
    ),
    (
        "obs.bench_trace_overhead_ratio.predict_par",
        "ratio",
        "higher",
    ),
    (
        "obs.bench_trace_overhead_ratio.round_inproc",
        "ratio",
        "higher",
    ),
    (
        "obs.bench_trace_overhead_ratio.fleet_steer",
        "ratio",
        "higher",
    ),
    (
        "obs.bench_trace_overhead_ratio.live_overlay",
        "ratio",
        "higher",
    ),
    ("obs.recorder_on_ratio", "ratio", "lower"),
    ("obs.metrics_on_ratio", "ratio", "lower"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// What the traced run hands back to `main`.
pub struct Profile {
    pub values: Values,
    pub rec: Recorder,
    pub attempted: u64,
    pub failed: u64,
}

/// What one workload's leg of the traced run produced.
struct Leg {
    traced: Vec<Pass>,
    /// Traced ÷ untraced `work_per_s`.
    overhead_ratio: f64,
}

fn work_per_s(passes: &[Pass]) -> f64 {
    over_passes(passes, |p| p.units / p.wall_s)
}

fn pass_wall(passes: &[Pass]) -> f64 {
    over_passes(passes, |p| p.wall_s)
}

/// Runs `w` untraced and traced in alternation, for `side` each and at
/// least one pass each.
fn run_leg(
    w: &mut dyn Workload,
    rec: &mut Recorder,
    side: Duration,
    tally: &mut (u64, u64),
) -> Leg {
    let off = &mut Recorder::new(false);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while traced.is_empty() || t0.elapsed() < 2 * side {
        untraced.push(w.pass(off));
        traced.push(w.pass(rec));
    }
    for p in untraced.iter().chain(&traced) {
        tally.0 += p.attempted;
        tally.1 += p.failed;
    }
    println!("  [{}]", w.describe());
    let (a, f) = w.final_checks();
    tally.0 += a;
    tally.1 += f;
    Leg {
        overhead_ratio: work_per_s(&traced) / work_per_s(&untraced),
        traced,
    }
}

/// Median nanoseconds per operation of `run` over `samples` batches, each
/// batch freshly prepared outside the clock.
fn batch_ns<T>(
    samples: usize,
    mut prepare: impl FnMut() -> T,
    mut run: impl FnMut(T) -> usize,
) -> f64 {
    let mut per_op = Vec::with_capacity(samples);
    for _ in 0..samples {
        let input = prepare();
        let t = Instant::now();
        let ops = run(input);
        per_op.push(t.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    median(&per_op)
}

/// (state, event) pairs of a family's mid-budget states: up to 24 events
/// from each.
fn apply_work<P: Protocol>(f: &Family<P>) -> Vec<(&P, &GlobalState<P>, Event<P>)> {
    let mut work = Vec::new();
    for case in f.cases.iter().filter(|c| c.budget == MID_BUDGET) {
        let events = enumerate_events(&case.proto, &case.state, &ExploreOptions::default());
        for e in events.into_iter().take(24) {
            work.push((&case.proto, &case.state, e));
        }
    }
    work
}

/// ns per `apply_event` on `f`'s states (clones made outside the clock).
fn apply_ns<P: Protocol>(f: &Family<P>) -> f64 {
    let work = apply_work(f);
    batch_ns(
        15,
        || {
            let mut clones = Vec::new();
            for _ in 0..8 {
                clones.extend(work.iter().map(|(_, s, _)| (*s).clone()));
            }
            clones
        },
        |mut clones| {
            let n = clones.len();
            for (gs, (proto, _, event)) in clones.iter_mut().zip(work.iter().cycle()) {
                black_box(apply_event(*proto, gs, event));
            }
            n
        },
    )
}

fn mid_states<P: Protocol>(f: &Family<P>) -> Vec<(&P, &GlobalState<P>)> {
    f.cases
        .iter()
        .filter(|c| c.budget == MID_BUDGET)
        .map(|c| (&c.proto, &c.state))
        .collect()
}

/// ns per call of `op` over a family's mid states.
fn per_state_ns<P: Protocol>(f: &Family<P>, mut op: impl FnMut(&P, &GlobalState<P>)) -> f64 {
    let states = mid_states(f);
    batch_ns(
        15,
        || (),
        |()| {
            for _ in 0..64 {
                for (p, s) in &states {
                    op(p, s);
                }
            }
            64 * states.len()
        },
    )
}

/// The whole-state encoding a delta encoder starts from: every slot plus
/// the two message bags.
fn encode_state<P: Protocol>(gs: &GlobalState<P>) -> usize {
    let mut n = 0;
    for slot in gs.nodes.values() {
        n += black_box(slot.to_bytes()).len();
    }
    let mut bags = Vec::new();
    gs.inflight.encode(&mut bags);
    gs.parked.encode(&mut bags);
    n + black_box(bags).len()
}

fn model_legs(i: &PredictInputs, v: &mut Values) {
    let per_family = [
        ("protocols.randtree_apply_ns", apply_ns(&i.randtree)),
        ("protocols.paxos_apply_ns", apply_ns(&i.paxos)),
        ("protocols.chord_apply_ns", apply_ns(&i.chord)),
        ("protocols.bullet_apply_ns", apply_ns(&i.bullet)),
    ];
    let mut sum = 0.0;
    for (name, ns) in per_family {
        v.insert(name, ns);
        sum += ns;
    }
    v.insert("model.apply_event_ns", sum / 4.0);

    let opts = ExploreOptions::default();
    let enumerate = [
        per_state_ns(&i.randtree, |p, s| {
            black_box(enumerate_events(p, s, &opts));
        }),
        per_state_ns(&i.paxos, |p, s| {
            black_box(enumerate_events(p, s, &opts));
        }),
        per_state_ns(&i.chord, |p, s| {
            black_box(enumerate_events(p, s, &opts));
        }),
        per_state_ns(&i.bullet, |p, s| {
            black_box(enumerate_events(p, s, &opts));
        }),
    ];
    v.insert(
        "model.enumerate_events_ns",
        enumerate.iter().sum::<f64>() / 4.0,
    );
    let hash = [
        per_state_ns(&i.randtree, |_, s| {
            black_box(s.state_hash());
        }),
        per_state_ns(&i.paxos, |_, s| {
            black_box(s.state_hash());
        }),
        per_state_ns(&i.chord, |_, s| {
            black_box(s.state_hash());
        }),
        per_state_ns(&i.bullet, |_, s| {
            black_box(s.state_hash());
        }),
    ];
    v.insert("model.state_hash_ns", hash.iter().sum::<f64>() / 4.0);
    let encode = [
        per_state_ns(&i.randtree, |_, s| {
            black_box(encode_state(s));
        }),
        per_state_ns(&i.paxos, |_, s| {
            black_box(encode_state(s));
        }),
        per_state_ns(&i.chord, |_, s| {
            black_box(encode_state(s));
        }),
        per_state_ns(&i.bullet, |_, s| {
            black_box(encode_state(s));
        }),
    ];
    v.insert(
        "model.encode_state_us",
        encode.iter().sum::<f64>() / 4.0 / 1e3,
    );

    // One envelope through the byte layer and back: a 200-byte body.
    let frame = WireFrame::new(
        NodeId(3),
        NodeId(4),
        17,
        FrameKind::Service,
        vec![0xa5; 200],
    );
    let mut fb = FrameBuffer::new(cb_model::MAX_FRAME_LEN);
    let mut wire = Vec::new();
    let roundtrip = batch_ns(
        15,
        || (),
        |()| {
            for _ in 0..2_000 {
                wire.clear();
                push_frame(&mut wire, &frame.to_bytes());
                fb.feed(&wire);
                let payload = fb.next_frame().expect("well-formed").expect("complete");
                black_box(WireFrame::from_bytes(&payload).expect("decodes"));
            }
            2_000
        },
    );
    v.insert("model.frame_roundtrip_ns", roundtrip);
}

/// µs per `replay_path` of the armed cases' own violating paths.
fn replay_us<P: Protocol>(f: &Family<P>) -> Vec<f64> {
    let mut out = Vec::new();
    for case in f.cases.iter().filter(|c| c.armed) {
        let searcher = Searcher::new(&case.proto, &f.props, search_config(case.budget));
        let Some(found) = searcher.run(&case.state).first().cloned() else {
            continue;
        };
        let ns = batch_ns(
            7,
            || (),
            |()| {
                for _ in 0..50 {
                    black_box(replay_path(
                        &case.proto,
                        &f.props,
                        &case.state,
                        &found.path,
                        256,
                    ));
                }
                50
            },
        );
        out.push(ns / 1e3);
    }
    out
}

fn mc_micro_legs(i: &PredictInputs, v: &mut Values) {
    let mut replays = replay_us(&i.randtree);
    replays.extend(replay_us(&i.paxos));
    replays.extend(replay_us(&i.chord));
    replays.extend(replay_us(&i.bullet));
    v.insert("mc.replay_path_us", median(&replays));

    let filters = vec![
        EventFilter::Message {
            kind: "Join",
            src: NodeId(13),
            dst: NodeId(1),
            reset_connection: true,
        },
        EventFilter::Message {
            kind: "JoinReply",
            src: NodeId(1),
            dst: NodeId(9),
            reset_connection: false,
        },
        EventFilter::Handler {
            kind: "RecoveryTimer",
            node: NodeId(9),
        },
        EventFilter::Handler {
            kind: "Join",
            node: NodeId(21),
        },
    ];
    let set = FilterSet::from_iter(filters.clone());
    let keys: Vec<EventKey> = (0..8u32)
        .map(|n| EventKey::Message {
            kind: if n % 2 == 0 { "Join" } else { "Probe" },
            src: NodeId(n + 6),
            dst: NodeId(1),
        })
        .collect();
    let match_ns = batch_ns(
        15,
        || (),
        |()| {
            for _ in 0..4_000 {
                for k in &keys {
                    black_box(set.blocks(k));
                }
            }
            4_000 * keys.len()
        },
    );
    v.insert("mc.filter_match_ns", match_ns);
    let proto = &i.randtree.cases[0].proto;
    let codec_ns = batch_ns(
        15,
        || (),
        |()| {
            for _ in 0..2_000 {
                let bytes = filters.to_bytes();
                black_box(
                    EventFilter::decode_list(&bytes, proto.message_kinds(), proto.action_kinds())
                        .expect("own encoding decodes"),
                );
            }
            2_000
        },
    );
    v.insert("mc.filter_codec_us", codec_ns / 1e3);
}

/// The search legs: sequential, two workers, and the parallel engine at
/// one worker, all on the same inputs.
fn predict_legs(
    seed: u64,
    side: Duration,
    rec: &mut Recorder,
    tally: &mut (u64, u64),
    v: &mut Values,
) {
    let mut seq = Predict::setup(seed, false, false);
    let leg = run_leg(&mut seq, rec, side, tally);
    v.insert(
        "obs.bench_trace_overhead_ratio.predict_seq",
        leg.overhead_ratio,
    );
    let seq_stats: PassStats = seq.last.clone();
    let seq_rate = work_per_s(&leg.traced) * 1e3;
    v.insert("mc.seq_states_per_s", seq_rate);
    v.insert("mc.deep_search_ms", median(&seq_stats.deep_ms));
    v.insert("mc.shallow_search_us", median(&seq_stats.shallow_us));
    let seq_wall = pass_wall(&leg.traced);
    let inputs = seq.into_inputs();

    // The collapse candidate: the parallel engine's fused one-worker path
    // against the sequential loop, pass for pass.
    let mut one = Predict::with_engine(inputs, parallel_engine(1), 1);
    let off = &mut Recorder::new(false);
    let one_passes = run_passes(&mut one, off, Duration::ZERO, 1);
    v.insert(
        "mc.one_worker_overhead_ratio",
        pass_wall(&one_passes) / seq_wall,
    );
    for p in &one_passes {
        tally.0 += p.attempted;
        tally.1 += p.failed;
    }

    let mut par = Predict::with_engine(one.into_inputs(), parallel_engine(2), 2);
    par.pass(off); // warm-up: spins the pool's worker up
    let leg = run_leg(&mut par, rec, side, tally);
    v.insert(
        "obs.bench_trace_overhead_ratio.predict_par",
        leg.overhead_ratio,
    );
    let s = &par.last;
    let par_rate = work_per_s(&leg.traced) * 1e3;
    v.insert("mc.par_states_per_s", par_rate);
    v.insert("mc.par_vs_seq_ratio", par_rate / seq_rate);
    v.insert("mc.merge_busy_share", s.merge_busy_s / s.search_s);
    v.insert("mc.merge_wait_share", s.merge_wait_s / s.search_s);
    let mean_shard = s.shard_busy_s.iter().sum::<f64>() / s.shard_busy_s.len().max(1) as f64;
    let max_shard = s.shard_busy_s.iter().copied().fold(0.0, f64::max);
    v.insert(
        "mc.merge_shard_skew",
        if mean_shard > 0.0 {
            max_shard / mean_shard
        } else {
            1.0
        },
    );
    v.insert(
        "mc.enqueued_per_visited",
        s.enqueued as f64 / s.visited as f64,
    );
    v.insert(
        "mc.duplicate_ratio",
        s.duplicates as f64 / (s.duplicates + s.enqueued) as f64,
    );
    v.insert(
        "mc.explored_bytes_per_state",
        s.explored_bytes as f64 / s.explored_states.max(1) as f64,
    );

    let inputs = par.into_inputs();
    model_legs(&inputs, v);
    mc_micro_legs(&inputs, v);
}

/// p50 of the spans called `name`, in µs.
fn span_p50(rec: &Recorder, name: &str) -> f64 {
    let d = rec.durations_us(name);
    if d.is_empty() {
        0.0
    } else {
        percentile(&d, 0.5)
    }
}

/// One gather round of the 8-node neighbourhood over in-memory checkpoint
/// managers, on consecutive stream states (so diffs and duplicate
/// suppression behave as they do live), µs per gather.
fn gather_round_us(half: &Half<cb_protocols::randtree::RandTree>) -> f64 {
    let cfg = SnapshotConfig {
        store_quota_bytes: 64 * 1024,
        bandwidth_limit_bps: None,
        compression: true,
        diffs: true,
    };
    let ids: Vec<NodeId> = half.states[0].nodes.keys().copied().collect();
    let mut managers: Vec<CheckpointManager> = ids
        .iter()
        .map(|n| CheckpointManager::new(*n, cfg.clone()))
        .collect();
    let mut per_gather = Vec::new();
    for (round, gs) in half.states.iter().enumerate() {
        let bytes: Vec<Vec<u8>> = ids
            .iter()
            .map(|n| gs.slot(*n).map(|s| s.to_bytes()).unwrap_or_default())
            .collect();
        let g = round % ids.len();
        let t = Instant::now();
        let requests = managers[g].start_gather(&ids, &bytes[g]);
        for (dst, req) in requests {
            let p = ids.iter().position(|n| *n == dst).expect("a neighbour");
            let replies = managers[p].handle(SimTime(round as u64), ids[g], &req, &bytes[p]);
            for (_, reply) in replies {
                managers[g].handle(SimTime(round as u64), dst, &reply, &bytes[g]);
            }
        }
        let snap = managers[g].poll_snapshot();
        per_gather.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(snap.is_some_and(|s| s.states.len() == ids.len()));
    }
    median(&per_gather)
}

fn snapshot_micro_legs(w: &RoundInproc, v: &mut Values) {
    let half = &w.halves.randtree;
    v.insert("snapshot.gather_round_us", gather_round_us(half));

    // Consecutive encodings of one node's slot: what the diff layer sees.
    let node = NodeId(0);
    let slots: Vec<Vec<u8>> = half
        .states
        .iter()
        .filter_map(|gs| gs.slot(node).map(|s| s.to_bytes()))
        .collect();
    let pairs: Vec<(&Vec<u8>, &Vec<u8>)> = slots
        .windows(2)
        .filter(|p| p[0] != p[1])
        .map(|p| (&p[0], &p[1]))
        .collect();
    let diff_ns = batch_ns(
        15,
        || (),
        |()| {
            for _ in 0..200 {
                for (old, new) in &pairs {
                    black_box(encode_diff(old, new));
                }
            }
            200 * pairs.len()
        },
    );
    v.insert("snapshot.diff_encode_us", diff_ns / 1e3);

    // Whole-neighbourhood checkpoints: the payload LZW sees on a full send.
    let blobs: Vec<Vec<u8>> = half
        .states
        .iter()
        .take(32)
        .map(|gs| gs.nodes.values().flat_map(|s| s.to_bytes()).collect())
        .collect();
    let total: usize = blobs.iter().map(Vec::len).sum();
    let compress_ns = batch_ns(
        15,
        || (),
        |()| {
            for b in &blobs {
                black_box(lzw::compress(b));
            }
            1
        },
    );
    v.insert(
        "snapshot.lzw_compress_mb_s",
        total as f64 / 1e6 / (compress_ns / 1e9),
    );
    let packed: Vec<Vec<u8>> = blobs.iter().map(|b| lzw::compress(b)).collect();
    let decompress_ns = batch_ns(
        15,
        || (),
        |()| {
            for p in &packed {
                black_box(lzw::decompress(p).expect("own output"));
            }
            1
        },
    );
    v.insert(
        "snapshot.lzw_decompress_mb_s",
        total as f64 / 1e6 / (decompress_ns / 1e9),
    );

    let cfg = SnapshotConfig {
        store_quota_bytes: 64 * 1024,
        bandwidth_limit_bps: None,
        compression: true,
        diffs: true,
    };
    let checkpoint_ns = batch_ns(
        15,
        || CheckpointManager::new(node, cfg.clone()),
        |mut m| {
            for s in &slots {
                m.local_checkpoint(s);
            }
            slots.len()
        },
    );
    v.insert("snapshot.checkpoint_us", checkpoint_ns / 1e3);
}

/// The same stream through synchronous controllers: the round without the
/// lane hand-off. p50 µs of `run_round`.
fn sync_round_us(w: &RoundInproc) -> f64 {
    fn sync<P: Protocol>(half: &Half<P>) -> Controller<P> {
        Controller::with_runtime(
            half.proto.clone(),
            (half.props)(),
            ControllerConfig {
                checker: CheckerMode::Synchronous,
                ..half.config.clone()
            },
            cb_mc::WorkerPool::new(0),
            None,
        )
    }
    let mut rt = sync(&w.halves.randtree);
    let mut px = sync(&w.halves.paxos);
    let mut f2 = sync(&w.halves.fig2);
    let mut us = Vec::with_capacity(w.stream.len());
    for (ix, step) in w.stream.iter().enumerate() {
        let now = SimTime(ix as u64);
        let t = Instant::now();
        match step.fam {
            Fam::RandTree => {
                black_box(rt.run_round(now, step.node, &w.halves.randtree.states[step.state]));
            }
            Fam::Paxos => {
                black_box(px.run_round(now, step.node, &w.halves.paxos.states[step.state]));
            }
            Fam::Fig2 => {
                black_box(f2.run_round(now, step.node, &w.halves.fig2.states[step.state]));
            }
        }
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    percentile(&us, 0.5)
}

/// The RandTree rounds of the stream over one real TCP connection to the
/// real checker server, one outstanding: p50 µs from write to install.
fn tcp_round_us(w: &RoundInproc) -> std::io::Result<f64> {
    let half = &w.halves.randtree;
    let server = cb_live::spawn_checker(
        half.proto.clone(),
        (half.props)(),
        half.config.clone(),
        Duration::from_secs(30),
    )?;
    let mut us = Vec::new();
    let result = (|| -> std::io::Result<()> {
        let mut stream = std::net::TcpStream::connect(server.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let mut encoders: std::collections::HashMap<NodeId, DeltaEncoder> = Default::default();
        let mut inbuf = FrameBuffer::new(cb_model::MAX_FRAME_LEN);
        let mut chunk = [0u8; 4096];
        let steps = w
            .stream
            .iter()
            .filter(|s| s.fam == Fam::RandTree && s.repeat_of.is_none());
        for (id, step) in steps.enumerate() {
            let t = Instant::now();
            let body = SubmitBody {
                node: step.node,
                at_us: id as u64,
                speculative: false,
                round: id as u64,
                delta: encoders
                    .entry(step.node)
                    .or_default()
                    .encode_state(&half.states[step.state]),
            };
            let mut out = Vec::new();
            push_frame(
                &mut out,
                &frame_of(step.node, NodeId::DUMMY, 0, FrameKind::Submit, &body),
            );
            stream.write_all(&out)?;
            let install = loop {
                if let Some(payload) = inbuf
                    .next_frame()
                    .map_err(|e| std::io::Error::other(e.to_string()))?
                {
                    break payload;
                }
                let n = stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(std::io::Error::other("checker closed the connection"));
                }
                inbuf.feed(&chunk[..n]);
            };
            let ib = WireFrame::from_bytes(&install)
                .ok()
                .and_then(|wf| InstallBody::from_bytes(&wf.body).ok())
                .ok_or_else(|| std::io::Error::other("undecodable install"))?;
            black_box(EventFilter::decode_list(
                &ib.filters,
                half.proto.message_kinds(),
                half.proto.action_kinds(),
            ))
            .map_err(|e| std::io::Error::other(e.to_string()))?;
            us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Ok(())
    })();
    // Joins the server thread whether or not the leg went through.
    server.shutdown();
    result?;
    Ok(percentile(&us, 0.5))
}

fn round_legs(
    seed: u64,
    side: Duration,
    rec: &mut Recorder,
    tally: &mut (u64, u64),
    v: &mut Values,
) {
    let mut w = RoundInproc::setup(seed, false);
    let leg = run_leg(&mut w, rec, side, tally);
    v.insert(
        "obs.bench_trace_overhead_ratio.round_inproc",
        leg.overhead_ratio,
    );
    let stages = [
        ("snapshot.delta_encode_us", "snapshot.delta_encode"),
        ("model.submit_frame_us", "model.submit_frame"),
        ("model.frame_parse_us", "model.frame_parse"),
        ("core.submit_us", "core.submit"),
        ("live.install_frame_us", "live.install_frame"),
        ("mc.decode_list_us", "mc.decode_list"),
    ];
    let mut sum = 0.0;
    for (metric, span) in stages {
        let p50 = span_p50(rec, span);
        v.insert(metric, p50);
        sum += p50;
    }
    v.insert(
        "snapshot.delta_decode_us",
        span_p50(rec, "snapshot.delta_decode"),
    );
    let outs = &w.last.outs;
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let wall = percentile(&outs.iter().map(|o| us(o.wall)).collect::<Vec<_>>(), 0.5);
    let handoff = percentile(
        &outs
            .iter()
            .map(|o| us(o.check.saturating_sub(o.submit).saturating_sub(o.wall)))
            .collect::<Vec<_>>(),
        0.5,
    );
    v.insert("core.round_wall_us", wall);
    v.insert("core.handoff_wait_us", handoff);
    sum += wall + handoff;
    let latency = percentile(&outs.iter().map(|o| us(o.latency)).collect::<Vec<_>>(), 0.5);
    v.insert("core.round_budget_sum_us", sum);
    v.insert("core.round_unattributed_us", latency - sum);

    let d = &w.last;
    v.insert(
        "snapshot.delta_shipped_ratio",
        d.shipped_bytes as f64 / d.raw_bytes.max(1) as f64,
    );
    v.insert(
        "core.cache_hit_ratio",
        d.cache_hits as f64 / (d.cache_hits + d.cache_misses).max(1) as f64,
    );
    let (mut hit, mut miss, mut states) = (Vec::new(), Vec::new(), Vec::new());
    for (out, step) in outs.iter().zip(&w.stream) {
        if step.repeat_of.is_some() {
            hit.push(us(out.latency));
        } else {
            miss.push(us(out.latency));
            states.push(out.states_visited as f64);
        }
    }
    v.insert("core.cache_hit_round_us", percentile(&hit, 0.5));
    v.insert("core.cache_miss_round_us", percentile(&miss, 0.5));
    v.insert(
        "core.states_per_round",
        states.iter().sum::<f64>() / states.len() as f64,
    );
    v.insert("core.sync_round_us", sync_round_us(&w));

    let inproc_randtree: Vec<f64> = outs
        .iter()
        .zip(&w.stream)
        .filter(|(_, s)| s.fam == Fam::RandTree && s.repeat_of.is_none())
        .map(|(o, _)| us(o.latency))
        .collect();
    match tcp_round_us(&w) {
        Ok(tcp) => {
            v.insert("live.tcp_round_us_p50", tcp);
            v.insert(
                "live.tcp_overhead_us",
                tcp - percentile(&inproc_randtree, 0.5),
            );
            tally.0 += 1;
        }
        Err(e) => {
            eprintln!("TCP leg failed: {e}");
            tally.0 += 1;
            tally.1 += 1;
        }
    }
    snapshot_micro_legs(&w, v);

    // What the program's own observers cost: a pass with them on ÷ off.
    let off = &mut Recorder::new(false);
    let mut wall_of = |w: &mut RoundInproc| w.pass(off).wall_s;
    let base = wall_of(&mut w);
    cb_obs::enable();
    let traced = wall_of(&mut w);
    cb_obs::disable();
    drop(cb_obs::drain());
    cb_obs::metrics::enable();
    let metered = wall_of(&mut w);
    cb_obs::metrics::disable();
    v.insert("obs.recorder_on_ratio", traced / base);
    v.insert("obs.metrics_on_ratio", metered / base);
}

fn net_micro_legs(seed: u64, v: &mut Values) {
    use cb_net::{decide, LiveFault, NetworkModel, Topology, TopologyConfig, Transport};
    use rand::SeedableRng;
    let topo = Topology::generate(
        TopologyConfig {
            participants: 8,
            ..TopologyConfig::default()
        },
        seed,
    );
    let mut net = NetworkModel::new(topo, seed);
    let mut now = 0u64;
    let route_ns = batch_ns(
        15,
        || (),
        |()| {
            for k in 0..20_000u32 {
                now += 50;
                black_box(net.schedule(
                    SimTime(now),
                    NodeId(k % 8),
                    NodeId((k + 3) % 8),
                    200,
                    Transport::Tcp,
                ));
            }
            20_000
        },
    );
    v.insert("net.sim_route_ns", route_ns);
    let stack = [
        LiveFault::Loss(0.05),
        LiveFault::Delay {
            delay: Duration::from_millis(3),
            jitter: Duration::from_millis(1),
        },
    ];
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let decide_ns = batch_ns(
        15,
        || (),
        |()| {
            for _ in 0..50_000 {
                black_box(decide(&stack, &mut rng));
            }
            50_000
        },
    );
    v.insert("net.fault_decide_ns", decide_ns);
}

fn fleet_legs(
    seed: u64,
    side: Duration,
    rec: &mut Recorder,
    tally: &mut (u64, u64),
    v: &mut Values,
) {
    let mut w = FleetSteer::setup(seed, false);
    let leg = run_leg(&mut w, rec, side, tally);
    v.insert(
        "obs.bench_trace_overhead_ratio.fleet_steer",
        leg.overhead_ratio,
    );
    let (last, twin) = (&w.last, &w.twin);
    let (s, t) = (
        last.stats.as_ref().expect("a pass ran"),
        twin.stats.as_ref().expect("the twin ran"),
    );
    let rounds: u64 = s.members.iter().map(|m| m.mc_runs).sum();
    v.insert(
        "runtime.unsteered_steps_per_s",
        t.fleet_steps as f64 / twin.wall_s,
    );
    v.insert(
        "runtime.steered_steps_per_s",
        s.fleet_steps as f64 / last.wall_s,
    );
    v.insert("runtime.step_ns_p50", percentile(&w.twin_step_ns(), 0.5));
    v.insert("fleet.steer_cost_ratio", last.wall_s / twin.wall_s);
    v.insert("fleet.rounds_per_s", rounds as f64 / last.wall_s);
    v.insert("fleet.drain_wait_share", last.drain_total_s / last.wall_s);
    v.insert(
        "fleet.drain_wait_us_p50",
        percentile(&last.drain_wait_us, 0.5),
    );
    v.insert(
        "fleet.sched_overhead_ratio",
        last.wall_s / (last.step_total_s + last.drain_total_s),
    );
    v.insert("fleet.cache_hit_ratio", s.cache().hit_rate());
    v.insert(
        "fleet.wire_bytes_per_round",
        s.wire_bytes().1 as f64 / rounds.max(1) as f64,
    );
    v.insert("fleet.filters_installed", s.filters_installed() as f64);
    v.insert("fleet.interventions", s.interventions() as f64);
    v.insert("fleet.violating_states", s.violating_states() as f64);
    let delivered = |f: &cb_fleet::FleetStats| -> f64 {
        f.members.iter().map(|m| m.messages_delivered).sum::<u64>() as f64
    };
    v.insert("fleet.delivered_ratio", delivered(s) / delivered(t));
    net_micro_legs(seed, v);
}

fn live_legs(
    seed: u64,
    side: Duration,
    rec: &mut Recorder,
    tally: &mut (u64, u64),
    v: &mut Values,
) {
    let nodes = NODES;
    let mut w = LiveOverlay::setup(seed, false);
    v.insert("live.boot_to_joined_s", w.boot_to_joined_s);
    let leg = run_leg(&mut w, rec, side, tally);
    // Open loop: the schedule bounds `work_per_s`, so this one reads 1
    // unless the recorder makes the overlay fall behind.
    v.insert(
        "obs.bench_trace_overhead_ratio.live_overlay",
        leg.overhead_ratio,
    );
    let win = &w.last;
    v.insert("live.frames_per_s", win.frames as f64 / win.wall_s);
    v.insert("live.gathers_per_s", win.gathers as f64 / win.wall_s);
    v.insert(
        "live.cpu_ms_per_node_s",
        win.cpu_s * 1e3 / (nodes as f64 * win.wall_s),
    );
    v.insert("live.probe_rtt_us_p50", percentile(&win.rtt_us, 0.5));
    v.insert("live.probe_late_us_p90", percentile(&win.late_us, 0.9));
    v.insert(
        "live.snapshot_wire_bytes_per_gather",
        win.snapshot_wire_bytes as f64 / win.gathers.max(1) as f64,
    );
    v.insert("live.gather_timeouts", win.gather_timeouts as f64);
    v.insert("live.backpressure_drops", win.backpressure_drops as f64);
    drop(w);

    // The same overlay with gathers and checkpoints off: what the reactor
    // and the protocol's own timers cost with no snapshot traffic.
    let (dep, _) = boot_joined(nodes, false);
    std::thread::sleep(Duration::from_millis(300));
    let watch = Stopwatch::start();
    std::thread::sleep(Duration::from_millis(1_500));
    let (wall_s, cpu_s) = watch.stop();
    v.insert(
        "live.idle_cpu_ms_per_node_s",
        cpu_s * 1e3 / (nodes as f64 * wall_s),
    );
    dep.shutdown();
}

/// Runs the traced profile: every workload's leg and the micro legs.
pub fn profile(seed: u64, seconds: u64) -> Profile {
    let mut rec = Recorder::new(true);
    let mut v = Values::new();
    let mut tally = (0u64, 0u64);
    let side = Duration::from_secs_f64(seconds as f64 / 20.0);
    println!("traced legs (each workload's line describes its last pass):");
    predict_legs(seed, side, &mut rec, &mut tally, &mut v);
    round_legs(seed, side, &mut rec, &mut tally, &mut v);
    fleet_legs(seed, side, &mut rec, &mut tally, &mut v);
    live_legs(seed, side, &mut rec, &mut tally, &mut v);
    Profile {
        values: v,
        rec,
        attempted: tally.0,
        failed: tally.1,
    }
}
