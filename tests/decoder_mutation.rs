//! Hostile input on every wire decoder and on the two text parsers a
//! scrape or a tool feeds (`metrics::parse_exposition`, `json::parse`):
//! valid encodings of each frame, body and document type are mutated — every single-bit flip, seeded multi-bit flips,
//! every truncation, and every varint position rewritten to a huge value
//! (which is what inflates any length field, wherever it sits) — and each
//! mutant is decoded under a counting allocator. The contract: no panic,
//! and a peak allocation bounded by the honest input's size, whatever the
//! mutant claims — with one fixed exception: a patch may claim up to
//! `lzw::MAX_DECOMPRESSED_LEN` for the value it rebuilds (`apply_diff`
//! says why that length cannot be held against the base), so the row
//! that mutates a patch directly is allowed that cap on top.
//!
//! One `#[test]` on purpose: the allocator's counters are process-wide,
//! and the libtest harness would otherwise run sibling tests on other
//! threads inside a measured region.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cb_bench::scenarios;
use crystalball_suite::fleet::{FleetStats, MemberStats};
use crystalball_suite::live::registry::RegMsg;
use crystalball_suite::live::{InstallBody, LiveStats, NodeStats, SubmitBody};
use crystalball_suite::mc::EventFilter;
use crystalball_suite::model::{
    apply_event, enumerate_events, Decode, Encode, ExploreOptions, FrameKind, GlobalState, NodeId,
    Protocol, SimTime, WireFrame,
};
use crystalball_suite::obs::{json, metrics};
use crystalball_suite::protocols::chord::ChordBugs;
use crystalball_suite::protocols::paxos::PaxosBugs;
use crystalball_suite::protocols::randtree::RandTreeBugs;
use crystalball_suite::snapshot::{
    apply_diff, encode_diff, lzw, CheckpointManager, DeltaDecoder, DeltaEncoder, Diff, SlotDelta,
    SnapMsg, SnapshotConfig, StateDelta,
};

/// Live bytes and their high-water mark, counted around [`System`].
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// No decoder may ask for this much in one piece. Refusing the request
/// aborts the test binary with "memory allocation of N bytes failed" —
/// the same verdict as the assertion below, without first taking the
/// memory from whatever else runs on the machine.
const SINGLE_REQUEST_LIMIT: usize = 1 << 30;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` with the layout it was given
// (or refused by returning null, which `GlobalAlloc` permits); the
// counters never influence the pointers handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > SINGLE_REQUEST_LIMIT {
            return std::ptr::null_mut();
        }
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() > SINGLE_REQUEST_LIMIT {
            return std::ptr::null_mut();
        }
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > SINGLE_REQUEST_LIMIT {
            return std::ptr::null_mut();
        }
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes `f` had allocated at its worst, beyond what was live going in.
fn peak_during(f: impl FnOnce()) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed).saturating_sub(before)
}

/// What a decoder may allocate for an honest input of `wire` bytes: a
/// fixed floor (tables, small vectors, error values) plus a generous
/// per-byte factor — decoded values are wider than their encodings (a
/// one-byte `Unchanged` entry becomes a 40-byte enum, a two-byte map
/// entry a B-tree node), but never by more than this.
fn allowance(wire: usize) -> usize {
    (64 << 10) + 256 * wire
}

/// SplitMix64: the seeded stream the multi-bit flips draw from.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Every mutant of `valid`: all single-bit flips, 512 seeded flips of 2–4
/// bits, all proper prefixes, and — for every offset — the varint that
/// starts there replaced by each of a few huge values.
fn mutants(valid: &[u8], seed: u64) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for bit in 0..valid.len() * 8 {
        let mut m = valid.to_vec();
        m[bit / 8] ^= 1 << (bit % 8);
        out.push(m);
    }
    let mut rng = Rng(seed);
    for _ in 0..512 {
        let mut m = valid.to_vec();
        for _ in 0..2 + rng.below(3) {
            let bit = rng.below(valid.len() * 8);
            m[bit / 8] ^= 1 << (bit % 8);
        }
        out.push(m);
    }
    for cut in 0..valid.len() {
        out.push(valid[..cut].to_vec());
    }
    for at in 0..valid.len() {
        // The varint at `at` ends with the first byte whose top bit is
        // clear (or with the input).
        let len = valid[at..]
            .iter()
            .position(|b| b & 0x80 == 0)
            .map_or(valid.len() - at, |p| p + 1);
        for huge in [
            valid.len() as u64 + 1,
            lzw::MAX_DECOMPRESSED_LEN as u64,
            u64::from(u32::MAX),
            1 << 40,
            i64::MAX as u64,
            u64::MAX,
        ] {
            let mut m = valid[..at].to_vec();
            // A `u64` encodes as the LEB128 varint every length field is.
            m.extend_from_slice(&huge.to_bytes());
            m.extend_from_slice(&valid[at + len..]);
            out.push(m);
        }
    }
    out
}

/// One row of the table: a decoder, a valid input for it, the honest
/// wire bytes the decode handles in all (`input` plus whatever valid
/// prelude the decoder replays before it), and what the decoder may
/// allocate on top of [`allowance`] whatever the input's size (0 for every
/// row but the bare patch).
struct Case {
    name: String,
    input: Vec<u8>,
    honest_wire: usize,
    fixed_allowance: usize,
    decode: Decoder,
}

type Decoder = Box<dyn Fn(&[u8])>;

impl Case {
    fn new(name: impl Into<String>, input: Vec<u8>, decode: impl Fn(&[u8]) + 'static) -> Self {
        Case {
            name: name.into(),
            honest_wire: input.len(),
            fixed_allowance: 0,
            input,
            decode: Box::new(decode),
        }
    }
}

/// `gs` and a successor of it that still has messages in flight, so the
/// second delta of the pair carries `Unchanged` and `Patch` slots and a
/// non-empty `Queued` bag.
fn drifted<P: Protocol>(proto: &P, gs: &GlobalState<P>) -> GlobalState<P> {
    enumerate_events(proto, gs, &ExploreOptions::minimal())
        .iter()
        .map(|event| {
            let mut next = gs.clone();
            apply_event(proto, &mut next, event);
            next
        })
        .find(|next| !next.inflight.is_empty() && next.state_hash() != gs.state_hash())
        .expect("some event leaves messages in flight")
}

/// The two `StateDelta` rows of one protocol: the first shipment (all
/// `Full`, compressed where that pays) into a fresh decoder, and the
/// drifted re-shipment into a decoder that has applied the first.
fn delta_cases<P: Protocol + 'static>(name: &str, proto: &P, gs: &GlobalState<P>) -> Vec<Case> {
    let mut enc = DeltaEncoder::new();
    let first = enc.encode_state(gs);
    let second = enc.encode_state(&drifted(proto, gs));
    let through_decoder = |prelude: Option<StateDelta>| {
        move |bytes: &[u8]| {
            let mut dec = DeltaDecoder::new();
            if let Some(first) = &prelude {
                dec.decode_state::<P>(first).expect("the valid prelude");
            }
            if let Ok(delta) = StateDelta::from_bytes(bytes) {
                let _ = dec.decode_state::<P>(&delta);
            }
        }
    };
    let mut next = Case::new(
        format!("StateDelta/{name}/next"),
        second.to_bytes(),
        through_decoder(Some(first.clone())),
    );
    next.honest_wire += first.encoded_len();
    vec![
        Case::new(
            format!("StateDelta/{name}/first"),
            first.to_bytes(),
            through_decoder(None),
        ),
        next,
    ]
}

/// A `SnapMsg` row: decode, then hand a well-formed message to a manager
/// that is gathering from its sender (where a reply's `Full` entry is
/// decompressed and its `Patch` applied), which then checkpoints and gathers again on whatever
/// checkpoint number the message left it with.
fn snap_case(name: &str, msg: &SnapMsg) -> Case {
    Case::new(format!("SnapMsg/{name}"), msg.to_bytes(), |bytes| {
        let Ok(msg) = SnapMsg::from_bytes(bytes) else {
            return;
        };
        let mut mgr = CheckpointManager::new(NodeId(0), SnapshotConfig::default());
        mgr.start_gather(&[NodeId(1)], b"own state");
        mgr.handle(SimTime::ZERO, NodeId(1), &msg, b"own state");
        mgr.local_checkpoint(b"own state");
        mgr.start_gather(&[NodeId(1)], b"own state");
    })
}

/// A scrape body as the registry renders it: a counter, a gauge and a
/// histogram recorded here, plus the two families every scrape adds.
fn scrape_body() -> String {
    static FRAMES: metrics::Counter = metrics::Counter::new("cb_mut_frames_total", "frames");
    static BACKLOG: metrics::Gauge = metrics::Gauge::new("cb_mut_backlog", "queued rounds");
    static ROUND_US: metrics::Hist = metrics::Hist::new("cb_mut_round_us", "round latency");
    metrics::enable();
    FRAMES.add(40_213);
    BACKLOG.set(3);
    for us in [0, 180, 2_900, 3_100, 47_000] {
        ROUND_US.observe(us);
    }
    let body = metrics::scrape();
    metrics::disable();
    let parsed = metrics::parse_exposition(&body);
    assert_eq!(parsed.value("cb_mut_frames_total"), Some(40_213.0));
    assert_eq!(parsed.family_type("cb_mut_round_us"), Some("histogram"));
    body
}

/// The two stats documents tools read back with `json::parse`.
fn stats_documents() -> [(&'static str, String); 2] {
    let mut node = NodeStats {
        frames_sent: 812,
        bytes_received: 1 << 33,
        filter_hits: 2,
        ..NodeStats::default()
    };
    node.install_latency.record(3_100);
    node.gather_to_install.record(2_900);
    let mut live = LiveStats {
        wall_seconds: 1.25,
        reactor_threads: 2,
        ..LiveStats::default()
    };
    live.nodes.insert(0, node.clone());
    live.nodes.insert(7, node);
    let member = MemberStats {
        name: "tree \"a\"\n".into(),
        protocol: "randtree".into(),
        steps: 2_705,
        violations_by_property: [("NoCycle é".to_string(), 3)].into(),
        avg_mc_latency_ms: 2.875,
        first_prediction_at: Some(SimTime(1_500_000)),
        state_hash: u64::MAX,
        ..MemberStats::default()
    };
    let fleet = FleetStats {
        seed: 11,
        sim_seconds: 30.0,
        fleet_steps: 2_705,
        members: vec![member.clone(), member],
        ..FleetStats::default()
    };
    [
        ("LiveStats", live.to_json()),
        ("FleetStats", fleet.to_json()),
    ]
}

fn table() -> Vec<Case> {
    let (randtree, rt_gs) = scenarios::randtree_churned(7, RandTreeBugs::none());
    let (chord, chord_gs) = scenarios::chord_ring(&[1, 5, 9, 12], ChordBugs::none());
    let (paxos, paxos_gs) = scenarios::paxos_near_violation(PaxosBugs::none());
    let (bullet, bullet_gs) = scenarios::bullet_b3_live();

    let mut cases = Vec::new();
    cases.extend(delta_cases("randtree", &randtree, &rt_gs));
    cases.extend(delta_cases("chord", &chord, &chord_gs));
    cases.extend(delta_cases("paxos", &paxos, &paxos_gs));
    cases.extend(delta_cases("bullet", &bullet, &bullet_gs));

    let submit = SubmitBody {
        node: NodeId(3),
        at_us: 1_234_567,
        speculative: false,
        round: (3 << 32) | 17,
        delta: DeltaEncoder::new().encode_state(&rt_gs),
    };
    cases.push(Case::new("SubmitBody", submit.to_bytes(), |bytes| {
        let _ = SubmitBody::from_bytes(bytes);
    }));
    let frame = WireFrame::new(
        NodeId(3),
        NodeId(u32::MAX),
        17,
        FrameKind::Submit,
        submit.to_bytes(),
    );
    cases.push(Case::new("WireFrame", frame.to_bytes(), |bytes| {
        let _ = WireFrame::from_bytes(bytes);
    }));

    let message_kinds = randtree.message_kinds();
    let action_kinds = randtree.action_kinds();
    let filters = vec![
        EventFilter::Message {
            kind: message_kinds[0],
            src: NodeId(9),
            dst: NodeId(1),
            reset_connection: true,
        },
        EventFilter::Handler {
            kind: action_kinds[0],
            node: NodeId(13),
        },
    ];
    let filter_list = filters.to_bytes();
    EventFilter::decode_list(&filter_list, message_kinds, action_kinds).expect("valid list");
    let install = InstallBody {
        seq: 9,
        at_us: 1_234_567,
        round: (3 << 32) | 17,
        filters: filter_list.clone(),
    };
    cases.push(Case::new("InstallBody", install.to_bytes(), |bytes| {
        let _ = InstallBody::from_bytes(bytes);
    }));
    cases.push(Case::new(
        "EventFilter::decode_list",
        filter_list,
        move |bytes| {
            let _ = EventFilter::decode_list(bytes, message_kinds, action_kinds);
        },
    ));

    for (name, msg) in [
        (
            "Register",
            RegMsg::Register {
                node: NodeId(4),
                addr: "127.0.0.1:4100".into(),
            },
        ),
        (
            "Addr",
            RegMsg::Addr {
                addr: Some("[::1]:4101".into()),
            },
        ),
        ("Lookup", RegMsg::Lookup { node: NodeId(4) }),
    ] {
        cases.push(Case::new(
            format!("RegMsg/{name}"),
            msg.to_bytes(),
            |bytes| {
                let _ = RegMsg::from_bytes(bytes);
            },
        ));
    }

    let checkpoint: Vec<u8> = b"node-slot-encoding-".repeat(24);
    let mut changed = checkpoint.clone();
    changed[100] ^= 0xff;
    changed.extend_from_slice(b"tail");
    // The two payload formats that travel *inside* a `SnapMsg` or a slot
    // entry, mutated directly: a rewritten varint inside a nested payload
    // shifts the outer length prefix out of step, so the rows above
    // rarely carry an inflated `new_len` or a long code chain this far.
    let wire_diff = encode_diff(&checkpoint, &changed).to_bytes();
    let base = checkpoint.clone();
    let mut diff_case = Case::new("Diff/apply_diff", wire_diff, move |bytes| {
        if let Ok(diff) = Diff::from_bytes(bytes) {
            let _ = apply_diff(&base, &diff);
        }
    });
    diff_case.honest_wire += checkpoint.len();
    diff_case.fixed_allowance = lzw::MAX_DECOMPRESSED_LEN;
    cases.push(diff_case);
    cases.push(Case::new(
        "lzw::decompress",
        lzw::compress(&changed),
        |bytes| {
            let _ = lzw::decompress(bytes);
        },
    ));
    // The text parsers take `&str`: a mutant that is no longer UTF-8 is
    // handed over the way a tool reading a file would, lossily.
    cases.push(Case::new(
        "metrics::parse_exposition",
        scrape_body().into_bytes(),
        |bytes| {
            let _ = metrics::parse_exposition(&String::from_utf8_lossy(bytes));
        },
    ));
    for (name, doc) in stats_documents() {
        json::parse(&doc).expect("a valid document");
        cases.push(Case::new(
            format!("json::parse/{name}"),
            doc.into_bytes(),
            |bytes| {
                let _ = json::parse(&String::from_utf8_lossy(bytes));
            },
        ));
    }
    for (name, msg) in [
        ("Request", SnapMsg::Request { cr: 5 }),
        (
            "Reply/Full",
            SnapMsg::Reply {
                cn: 5,
                entry: SlotDelta::Full {
                    compressed: false,
                    data: checkpoint.clone(),
                },
            },
        ),
        (
            "Reply/Full/lzw",
            SnapMsg::Reply {
                cn: 5,
                entry: SlotDelta::Full {
                    compressed: true,
                    data: lzw::compress(&checkpoint),
                },
            },
        ),
        (
            "Reply/Patch",
            SnapMsg::Reply {
                cn: 6,
                entry: SlotDelta::Patch(encode_diff(b"", &changed).to_bytes()),
            },
        ),
        (
            "Reply/Unchanged",
            SnapMsg::Reply {
                cn: 6,
                entry: SlotDelta::Unchanged,
            },
        ),
        ("Nack", SnapMsg::Nack { cn: 7 }),
    ] {
        cases.push(snap_case(name, &msg));
    }
    cases
}

#[test]
fn mutated_encodings_never_panic_or_balloon() {
    for (i, case) in table().into_iter().enumerate() {
        // The valid input decodes within the allowance too — the bound is
        // about honest sizes, so it must hold for the honest input first.
        let bound = allowance(case.honest_wire) + case.fixed_allowance;
        let all = mutants(&case.input, 0xdec0de + i as u64);
        let mut worst = peak_during(|| (case.decode)(&case.input));
        assert!(
            worst <= bound,
            "{}: the valid input itself peaked at {worst} B (bound {bound})",
            case.name
        );
        for (m, mutant) in all.iter().enumerate() {
            let peak = peak_during(|| (case.decode)(mutant));
            assert!(
                peak <= bound,
                "{}: mutant {m} ({} B, valid input {} B) peaked at {peak} B (bound {bound}): {mutant:?}",
                case.name,
                mutant.len(),
                case.input.len(),
            );
            worst = worst.max(peak);
        }
        println!(
            "{:<28} {:>5} B valid, {:>6} mutants, worst peak {:>7} B (bound {bound})",
            case.name,
            case.input.len(),
            all.len(),
            worst
        );
    }
}
