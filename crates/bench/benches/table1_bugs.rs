//! Table 1 — "Summary of inconsistencies found for each system using
//! CrystalBall": RandTree 7, Chord 3, Bullet' 3.
//!
//! For every re-injected bug we run consequence prediction from the bug's
//! live state (deep online debugging) and count the distinct
//! inconsistencies it reports. The harness prints the Table-1 rows with
//! the paper's counts alongside.

use cb_bench::harness::{fmt_duration, preamble, section};
use cb_bench::scenarios;
use cb_mc::{find_consequences, SearchConfig};
use cb_model::{ExploreOptions, GlobalState, PropertySet, Protocol};
use cb_protocols::bullet::{self, BulletBugs};
use cb_protocols::chord::{self, ChordBugs};
use cb_protocols::randtree::{self, RandTreeBugs};

struct Finding {
    bug: &'static str,
    property: Option<String>,
    depth: usize,
    states: usize,
    elapsed: std::time::Duration,
}

fn predict<P: Protocol>(
    proto: &P,
    props: &PropertySet<P>,
    gs: &GlobalState<P>,
    explore: ExploreOptions,
    depth: usize,
    bug: &'static str,
) -> Finding {
    let out = find_consequences(
        proto,
        props,
        gs,
        SearchConfig {
            max_states: Some(200_000),
            max_depth: Some(depth),
            explore,
            ..SearchConfig::default()
        },
    );
    Finding {
        bug,
        property: out.first().map(|f| f.violation.property.clone()),
        depth: out.first().map(|f| f.depth).unwrap_or(0),
        states: out.stats.states_visited,
        elapsed: out.stats.elapsed,
    }
}

fn report(rows: &[Finding]) -> usize {
    println!(
        "{:<6} {:<26} {:>5} {:>9} {:>10}",
        "bug", "violated property", "depth", "states", "time"
    );
    let mut found = 0;
    for r in rows {
        match &r.property {
            Some(p) => {
                found += 1;
                println!(
                    "{:<6} {:<26} {:>5} {:>9} {:>10}",
                    r.bug,
                    p,
                    r.depth,
                    r.states,
                    fmt_duration(r.elapsed)
                );
            }
            None => println!("{:<6} {:<26}", r.bug, "NOT FOUND"),
        }
    }
    found
}

fn main() {
    preamble(
        "Table 1 — inconsistencies found per system (deep online debugging)",
        "RandTree 7 bugs, Chord 3 bugs, Bullet' 3 bugs; found from live \
         states, most beyond exhaustive-search depth",
    );

    section("RandTree");
    let mut rows = Vec::new();
    for bug in ["R1", "R4", "R6", "R7"] {
        let (proto, gs) = match bug {
            "R6" => {
                let proto =
                    randtree::RandTree::new(2, vec![cb_model::NodeId(1)], RandTreeBugs::only(bug));
                let mut gs = GlobalState::init(&proto, [cb_model::NodeId(1), cb_model::NodeId(9)]);
                cb_model::apply_event(
                    &proto,
                    &mut gs,
                    &cb_model::Event::Action {
                        node: cb_model::NodeId(1),
                        action: randtree::Action::Join {
                            target: cb_model::NodeId(1),
                        },
                    },
                );
                scenarios::settle(&proto, &mut gs);
                (proto, gs)
            }
            _ => scenarios::randtree_fig2(RandTreeBugs::only(bug)),
        };
        rows.push(predict(
            &proto,
            &randtree::properties::all(),
            &gs,
            ExploreOptions::default(),
            6,
            match bug {
                "R1" => "R1",
                "R4" => "R4",
                "R6" => "R6",
                _ => "R7",
            },
        ));
    }
    {
        // R2: rejoin-with-subtree live state.
        let proto = randtree::RandTree::new(2, vec![cb_model::NodeId(1)], RandTreeBugs::only("R2"));
        let mut gs = GlobalState::init(
            &proto,
            [
                cb_model::NodeId(1),
                cb_model::NodeId(3),
                cb_model::NodeId(5),
            ],
        );
        for n in [1u32, 3] {
            cb_model::apply_event(
                &proto,
                &mut gs,
                &cb_model::Event::Action {
                    node: cb_model::NodeId(n),
                    action: randtree::Action::Join {
                        target: cb_model::NodeId(1),
                    },
                },
            );
            scenarios::settle(&proto, &mut gs);
        }
        gs.slot_mut(cb_model::NodeId(5))
            .unwrap()
            .state
            .children
            .insert(cb_model::NodeId(3));
        rows.push(predict(
            &proto,
            &randtree::properties::all(),
            &gs,
            ExploreOptions::minimal(),
            4,
            "R2",
        ));
    }
    {
        let (proto, gs) = scenarios::randtree_fig9(RandTreeBugs::only("R3"));
        rows.push(predict(
            &proto,
            &randtree::properties::all(),
            &gs,
            ExploreOptions::default(),
            7,
            "R3",
        ));
    }
    {
        // R5: self-joined root without a timer.
        let proto = randtree::RandTree::new(2, vec![cb_model::NodeId(5)], RandTreeBugs::only("R5"));
        let mut gs = GlobalState::init(&proto, [cb_model::NodeId(3), cb_model::NodeId(5)]);
        cb_model::apply_event(
            &proto,
            &mut gs,
            &cb_model::Event::Action {
                node: cb_model::NodeId(5),
                action: randtree::Action::Join {
                    target: cb_model::NodeId(5),
                },
            },
        );
        rows.push(predict(
            &proto,
            &randtree::properties::all(),
            &gs,
            ExploreOptions::minimal(),
            4,
            "R5",
        ));
    }
    rows.sort_by_key(|r| r.bug);
    let rt_found = report(&rows);

    section("Chord");
    let mut rows = Vec::new();
    {
        let (proto, gs) = scenarios::chord_ring(&[1, 5, 9, 12], ChordBugs::only("C1"));
        rows.push(predict(
            &proto,
            &chord::properties::all(),
            &gs,
            ExploreOptions {
                resets: true,
                peer_errors: true,
                drops: false,
            },
            6,
            "C1",
        ));
    }
    {
        // C2: post-concurrent-join state; CP finds the stabilize suffix.
        use cb_model::NodeId;
        let proto = chord::Chord::new(vec![NodeId(9)], ChordBugs::only("C2"));
        let mut gs = GlobalState::init(&proto, [NodeId(3), NodeId(5), NodeId(9)]);
        for (n, t) in [(9u32, 9u32), (5, 9), (3, 9)] {
            cb_model::apply_event(
                &proto,
                &mut gs,
                &cb_model::Event::Action {
                    node: NodeId(n),
                    action: chord::Action::Join { target: NodeId(t) },
                },
            );
        }
        // Deliver joins handshakes with Ai-2's UpdatePred first.
        let deliver = |gs: &mut GlobalState<chord::Chord>,
                       f: &dyn Fn(&cb_model::InFlight<chord::Msg>) -> bool| {
            if let Some(i) = gs.inflight.iter().position(|m| f(m)) {
                cb_model::apply_event(&proto, gs, &cb_model::Event::Deliver { index: i });
            }
        };
        let kind = |m: &cb_model::InFlight<chord::Msg>, k: &str| matches!(&m.payload, cb_model::Payload::Msg(msg) if chord::Chord::message_kind(msg) == k);
        deliver(&mut gs, &|m| kind(m, "FindPred"));
        deliver(&mut gs, &|m| kind(m, "FindPred"));
        deliver(&mut gs, &|m| kind(m, "FindPredReply"));
        deliver(&mut gs, &|m| kind(m, "FindPredReply"));
        deliver(&mut gs, &|m| m.src == NodeId(3) && kind(m, "UpdatePred"));
        deliver(&mut gs, &|m| m.src == NodeId(5) && kind(m, "UpdatePred"));
        rows.push(predict(
            &proto,
            &chord::properties::all(),
            &gs,
            ExploreOptions::minimal(),
            4,
            "C2",
        ));
    }
    {
        let (proto, gs) = scenarios::chord_ring(&[1, 5], ChordBugs::only("C3"));
        rows.push(predict(
            &proto,
            &chord::properties::all(),
            &gs,
            ExploreOptions::default(),
            4,
            "C3",
        ));
    }
    let ch_found = report(&rows);

    section("Bullet'");
    let mut rows = Vec::new();
    for bug in ["B1", "B2"] {
        let (proto, gs) = scenarios::bullet_line(BulletBugs::only(bug));
        rows.push(predict(
            &proto,
            &bullet::properties::all(),
            &gs,
            ExploreOptions::minimal(),
            4,
            if bug == "B1" { "B1" } else { "B2" },
        ));
    }
    {
        let (proto, gs) = scenarios::bullet_b3_live();
        rows.push(predict(
            &proto,
            &bullet::properties::all(),
            &gs,
            ExploreOptions::minimal(),
            3,
            "B3",
        ));
    }
    let bl_found = report(&rows);

    section("Table 1 summary");
    println!(
        "{:<10} {:>12} {:>12}",
        "system", "bugs (ours)", "bugs (paper)"
    );
    println!("{:<10} {:>12} {:>12}", "RandTree", rt_found, 7);
    println!("{:<10} {:>12} {:>12}", "Chord", ch_found, 3);
    println!("{:<10} {:>12} {:>12}", "Bullet'", bl_found, 3);
    assert_eq!(rt_found + ch_found + bl_found, 13, "all 13 bugs reproduced");
}
