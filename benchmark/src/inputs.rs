//! Seeded inputs for `predict_seq` / `predict_par`: live states of all
//! four protocols, sized into search slots.
//!
//! Per protocol a pass runs 1 deep (30 000-state budget), 4 mid (4 000)
//! and 30 shallow (500) searches — the budgets `parallel_scaling`,
//! `checker_pipeline` and `live_checker_config` use. Five of the shallow
//! slots run the **bug-armed** protocol from a state a few events short of
//! the paper's inconsistency; all other slots run the corrected protocol
//! from live states. A candidate state is kept for a slot only if the
//! sequential engine's verdict at the slot's budget matches the slot
//! (armed: caught, corrected: clean), so "bug-armed states are caught,
//! bug-free states are clean" holds on every seed by construction, and
//! that verdict is the reference every timed search is checked against.
//!
//! The seed draws the 120 shallow states. The deep and mid states are the
//! same on every seed (see [`PredictInputs::generate`]).

use cb_bench::scenarios;
use cb_mc::{find_consequences, SearchConfig, SearchOutcome};
use cb_model::{
    apply_event, enumerate_events, Encode, Event, ExploreOptions, GlobalState, NodeId, PropertySet,
    Protocol,
};
use cb_protocols::bullet::{self, Bullet, BulletBugs};
use cb_protocols::chord::{self, Chord, ChordBugs};
use cb_protocols::paxos::{self, Paxos, PaxosBugs};
use cb_protocols::randtree::{self, RandTree, RandTreeBugs};

use crate::harness::Rng;

pub const DEEP_BUDGET: usize = 30_000;
pub const MID_BUDGET: usize = 4_000;
pub const SHALLOW_BUDGET: usize = 500;

/// (budget, armed) of the 35 slots of one protocol, in pass order. The
/// smoke mode keeps one mid slot and drops the deep one.
///
/// The counts decide where the percentiles of a pass's 140 search
/// latencies fall. Sorted, the 20 armed searches (a violation one to three
/// events away) come first, then the 25 clean shallow searches of Chord,
/// of RandTree, of Paxos and of Bullet', then the 16 mid and the 4 deep
/// ones. The p90 (rank 126) is a mid search, on a state that is the same
/// on every seed. The p50 (rank 70) falls where the RandTree and the Paxos
/// shallow searches overlap in cost, the densest stretch of the
/// distribution: drawn from measured per-state costs, its spread over
/// seeds is 2.5 %, against 4 % in the middle of the RandTree searches.
pub fn slot_plan(quick: bool) -> Vec<(usize, bool)> {
    let mut plan = Vec::new();
    if !quick {
        plan.push((DEEP_BUDGET, false));
    }
    plan.extend(vec![(MID_BUDGET, false); if quick { 1 } else { 4 }]);
    plan.extend([(SHALLOW_BUDGET, false); 25]);
    plan.extend([(SHALLOW_BUDGET, true); 5]);
    plan
}

/// What a search concluded: the outcome, not its cost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// Violated property, if any.
    pub property: Option<String>,
    /// Length of the shallowest violating path.
    pub depth: Option<usize>,
    /// `stable_hash` of the numbered event path.
    pub path_hash: u64,
}

impl Verdict {
    pub fn of<P: Protocol>(out: &SearchOutcome<P>) -> Self {
        match out.first() {
            Some(f) => Verdict {
                property: Some(f.violation.property.clone()),
                depth: Some(f.depth),
                path_hash: cb_model::stable_hash(&f.scenario()),
            },
            None => Verdict::clean(),
        }
    }

    pub fn clean() -> Self {
        Verdict {
            property: None,
            depth: None,
            path_hash: 0,
        }
    }

    /// `property@depth` or `clean` — the form `expected.json` stores.
    pub fn short(&self) -> String {
        match (&self.property, self.depth) {
            (Some(p), Some(d)) => format!("{p}@{d}"),
            _ => "clean".to_string(),
        }
    }
}

/// One search of a pass.
pub struct Case<P: Protocol> {
    pub proto: P,
    pub state: GlobalState<P>,
    pub budget: usize,
    pub armed: bool,
    /// The sequential engine's verdict when the case was generated.
    pub reference: Verdict,
}

/// One protocol's 30 cases.
pub struct Family<P: Protocol> {
    pub name: &'static str,
    pub props: PropertySet<P>,
    pub cases: Vec<Case<P>>,
    /// Candidate states drawn (accepted + rejected), for the report.
    pub candidates: usize,
}

pub struct PredictInputs {
    pub randtree: Family<RandTree>,
    pub paxos: Family<Paxos>,
    pub chord: Family<Chord>,
    pub bullet: Family<Bullet>,
}

/// The search configuration every predict search runs with: the budget is
/// the only stop criterion besides the first violation.
pub fn search_config(budget: usize) -> SearchConfig {
    SearchConfig {
        max_depth: None,
        max_states: Some(budget),
        deadline: None,
        explore: ExploreOptions::default(),
        prune_local: true,
        max_violations: 1,
        filters: cb_mc::FilterSet::new(),
    }
}

/// Takes `steps` seeded random events from `gs`, never entering a state
/// that already violates a property.
fn random_walk<P: Protocol>(
    proto: &P,
    props: &PropertySet<P>,
    gs: &mut GlobalState<P>,
    steps: usize,
    rng: &mut Rng,
) {
    for _ in 0..steps {
        let events = enumerate_events(proto, gs, &ExploreOptions::default());
        if events.is_empty() {
            return;
        }
        let mut next = gs.clone();
        apply_event(proto, &mut next, &events[rng.below(events.len())]);
        if props.check(&next).is_none() {
            *gs = next;
        }
    }
}

/// The canonical violating path the sequential engine finds from `base`
/// within `budget` states, as bare events.
pub fn bug_path<P: Protocol>(
    proto: &P,
    props: &PropertySet<P>,
    base: &GlobalState<P>,
    budget: usize,
) -> Option<Vec<Event<P>>> {
    let out = find_consequences(proto, props, base, search_config(budget));
    let found = out.first()?;
    Some(found.path.iter().map(|s| s.event.clone()).collect())
}

/// A state a few events short of the armed bug: walks `path` from `base`
/// up to 1–3 events before its end, then perturbs the result with up to
/// two unrelated seeded events.
pub fn short_of_bug<P: Protocol>(
    proto: &P,
    props: &PropertySet<P>,
    base: &GlobalState<P>,
    path: &[Event<P>],
    rng: &mut Rng,
) -> GlobalState<P> {
    let keep = path.len().saturating_sub(1 + rng.below(3));
    let mut gs = base.clone();
    for event in &path[..keep] {
        apply_event(proto, &mut gs, event);
    }
    random_walk(proto, props, &mut gs, rng.below(3), rng);
    gs
}

/// A protocol instance and one live state of it.
pub type Live<P> = (P, GlobalState<P>);
/// A seeded generator.
type Gen<T> = Box<dyn Fn(&mut Rng) -> T>;

/// The generators of one protocol's states. Every seeded state is a
/// function of a 64-bit **sub-seed** alone, so a pass is fully described by
/// the sub-seeds that were picked (see [`PredictInputs::generate`]).
pub struct Source<P: Protocol> {
    pub name: &'static str,
    pub props: fn() -> PropertySet<P>,
    /// The deep slot's state; it does not depend on the seed.
    canonical: fn() -> Live<P>,
    /// A live state of the corrected protocol.
    clean: Gen<Live<P>>,
    /// A state of the bug-armed protocol a few events short of its bug.
    armed: Gen<Option<Live<P>>>,
    /// The encoded size, in bytes, a clean state must be within
    /// [`SIZE_TOLERANCE`] of: the median over 60 sub-seeds.
    nominal_bytes: usize,
}

/// The encoded size of a state (every node slot plus the in-flight bag):
/// a property of the state alone, computed here from its `Encode` form.
pub fn encoded_len<P: Protocol>(gs: &GlobalState<P>) -> usize {
    let slots: usize = gs.nodes.values().map(|s| s.to_bytes().len()).sum();
    slots + gs.inflight.to_bytes().len()
}

/// Identity of an input state: a hash of its encoded form. `expected.json`
/// pins a fold of these, so a change that shifts which states a seed picks
/// fails loudly instead of silently benchmarking other inputs.
pub fn input_hash<P: Protocol>(gs: &GlobalState<P>) -> u64 {
    let mut bytes = Vec::new();
    for (node, slot) in &gs.nodes {
        node.encode(&mut bytes);
        slot.encode(&mut bytes);
    }
    gs.inflight.encode(&mut bytes);
    cb_model::stable_hash(&bytes)
}

/// [`input_hash`] of a sequence of states, order included.
pub fn inputs_hash<'a, P: Protocol>(states: impl Iterator<Item = &'a GlobalState<P>>) -> u64 {
    states.fold(0xcb, |acc, gs| {
        cb_model::hashing::combine(acc, input_hash(gs))
    })
}

/// How far a clean state's encoded size may sit from its family's nominal
/// size. Seeded live states of one protocol differ ±20–35 % in search cost
/// per visited state (bigger states clone, hash and branch more), and
/// encoded size predicts most of that (correlation 0.75–0.95 over 60
/// candidates per family); inside the window the difference is ±10–15 %.
/// The window looks at the state only — never at a counter of the search
/// it feeds — so no optimisation of the search can change which states
/// are picked.
pub const SIZE_TOLERANCE: f64 = 0.10;

impl<P: Protocol> Source<P> {
    pub fn candidate(&self, armed: bool, sub: u64) -> Option<Live<P>> {
        let mut rng = Rng::new(sub);
        if armed {
            (self.armed)(&mut rng)
        } else {
            Some((self.clean)(&mut rng))
        }
    }
}

/// A picked state: its sub-seed and the sequential engine's verdict on it.
pub struct Pick {
    pub sub: u64,
    pub reference: Verdict,
    pub candidates: usize,
}

/// Phase one: draws sub-seeds until every shallow slot of the plan holds a
/// state whose verdict at the slot's budget fits the slot (armed: caught,
/// corrected: clean). Keeps nothing but the sub-seeds.
///
/// The deep and mid slots hold the same states on every seed — the
/// canonical state, and the first sub-seeds 1, 2, 3, … whose states fit
/// [`SIZE_TOLERANCE`] — and are not searched here: every timed pass checks
/// that they come out clean.
fn select<P: Protocol>(source: &Source<P>, quick: bool, rng: &mut Rng) -> Vec<Pick> {
    let props = (source.props)();
    let mut picks = Vec::new();
    let mut next_fixed = 0;
    for (budget, want_armed) in slot_plan(quick) {
        if budget == DEEP_BUDGET {
            picks.push(Pick {
                sub: 0,
                reference: Verdict::clean(),
                candidates: 0,
            });
            continue;
        }
        let seeded = budget == SHALLOW_BUDGET;
        let mut tries = 0;
        let pick = loop {
            tries += 1;
            assert!(
                tries <= 400,
                "{}: no state fits a {budget}-state {} slot",
                source.name,
                if want_armed { "armed" } else { "clean" }
            );
            let sub = if seeded {
                rng.next_u64()
            } else {
                next_fixed += 1;
                next_fixed
            };
            let Some((proto, state)) = source.candidate(want_armed, sub) else {
                continue;
            };
            let size = encoded_len(&state) as f64 / source.nominal_bytes as f64;
            let sized = want_armed || (size - 1.0).abs() <= SIZE_TOLERANCE;
            if !sized || props.check(&state).is_some() {
                continue;
            }
            let mut reference = Verdict::clean();
            if seeded {
                let out = find_consequences(&proto, &props, &state, search_config(budget));
                if out.first().is_some() != want_armed {
                    continue;
                }
                reference = Verdict::of(&out);
            }
            break Pick {
                sub,
                reference,
                candidates: tries,
            };
        };
        picks.push(pick);
    }
    picks
}

/// Phase two: rebuilds the picked states from their sub-seeds.
fn build<P: Protocol>(source: &Source<P>, picks: Vec<Pick>, quick: bool) -> Family<P> {
    let candidates = picks.iter().map(|p| p.candidates).sum();
    let cases = slot_plan(quick)
        .into_iter()
        .zip(picks)
        .map(|((budget, armed), pick)| {
            let (proto, state) = if budget == DEEP_BUDGET {
                (source.canonical)()
            } else {
                source
                    .candidate(armed, pick.sub)
                    .expect("a picked sub-seed yields its state again")
            };
            Case {
                proto,
                state,
                budget,
                armed,
                reference: pick.reference,
            }
        })
        .collect();
    Family {
        name: source.name,
        props: (source.props)(),
        cases,
        candidates,
    }
}

fn distinct_ids(n: usize, below: u32, rng: &mut Rng) -> Vec<u32> {
    let mut ids: Vec<u32> = Vec::new();
    while ids.len() < n {
        let id = 1 + rng.below(below as usize) as u32;
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    ids.sort_unstable();
    ids
}

/// A fresh three-node Bullet' mesh (source, two receivers, fan-in 2).
fn bullet_mesh(blocks: u32, bugs: BulletBugs) -> (Bullet, GlobalState<Bullet>) {
    let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
    let proto = Bullet::with_mesh(&nodes, 2, blocks, bugs);
    let gs = GlobalState::init(&proto, nodes);
    (proto, gs)
}

pub fn randtree_source() -> Source<RandTree> {
    let (fig2, fig2_base) = scenarios::randtree_fig2(RandTreeBugs::only("R1"));
    let fig2_path = bug_path(&fig2, &randtree::properties::all(), &fig2_base, DEEP_BUDGET);
    Source {
        name: "randtree",
        props: randtree::properties::all,
        canonical: || scenarios::randtree_churned(1213, RandTreeBugs::none()),
        clean: Box::new(|r| scenarios::randtree_churned(r.next_u64() >> 16, RandTreeBugs::none())),
        armed: Box::new(move |r| {
            let props = randtree::properties::all();
            let gs = short_of_bug(&fig2, &props, &fig2_base, fig2_path.as_ref()?, r);
            Some((fig2.clone(), gs))
        }),
        nominal_bytes: 144,
    }
}

pub fn paxos_source() -> Source<Paxos> {
    let (near, near_base) = scenarios::paxos_near_violation(PaxosBugs::only("P1"));
    let near_path = bug_path(&near, &paxos::properties::all(), &near_base, DEEP_BUDGET);
    Source {
        name: "paxos",
        props: paxos::properties::all,
        canonical: || scenarios::paxos_round1(PaxosBugs::none()),
        clean: Box::new(|r| {
            let (p, mut gs) = if r.below(2) == 0 {
                scenarios::paxos_near_violation(PaxosBugs::none())
            } else {
                scenarios::paxos_round1(PaxosBugs::none())
            };
            let steps = r.below(5);
            random_walk(&p, &paxos::properties::all(), &mut gs, steps, r);
            (p, gs)
        }),
        armed: Box::new(move |r| {
            let props = paxos::properties::all();
            let gs = short_of_bug(&near, &props, &near_base, near_path.as_ref()?, r);
            Some((near.clone(), gs))
        }),
        nominal_bytes: 100,
    }
}

pub fn chord_source() -> Source<Chord> {
    Source {
        name: "chord",
        props: chord::properties::all,
        canonical: || scenarios::chord_ring(&[1, 5, 9, 12], ChordBugs::none()),
        clean: Box::new(|r| {
            // Four nodes: from five on, the corrected protocol still
            // reaches a NodeOrdering violation ten events deep once
            // resets are explored, so no larger ring is clean at
            // these budgets.
            let (p, mut gs) = scenarios::chord_ring(&distinct_ids(4, 40, r), ChordBugs::none());
            let steps = r.below(7);
            random_walk(&p, &chord::properties::all(), &mut gs, steps, r);
            (p, gs)
        }),
        armed: Box::new(|r| {
            let props = chord::properties::all();
            let (p, base) = scenarios::chord_ring(&distinct_ids(4, 40, r), ChordBugs::only("C1"));
            // A seeded base that does not show its bug early is not worth a
            // deep search: the next sub-seed is tried instead.
            let path = bug_path(&p, &props, &base, MID_BUDGET)?;
            let gs = short_of_bug(&p, &props, &base, &path, r);
            Some((p, gs))
        }),
        nominal_bytes: 66,
    }
}

pub fn bullet_source() -> Source<Bullet> {
    Source {
        name: "bullet",
        props: bullet::properties::all,
        canonical: || bullet_mesh(6, BulletBugs::none()),
        clean: Box::new(|r| {
            let (p, mut gs) = bullet_mesh(4 + r.below(5) as u32, BulletBugs::none());
            let steps = r.below(11);
            random_walk(&p, &bullet::properties::all(), &mut gs, steps, r);
            (p, gs)
        }),
        armed: Box::new(|r| {
            let props = bullet::properties::all();
            let (p, mut base) = bullet_mesh(4 + r.below(5) as u32, BulletBugs::only("B1"));
            // B1 shows two events from the initial mesh; start the
            // walk from there so the armed states are not all it.
            let steps = r.below(4);
            random_walk(&p, &props, &mut base, steps, r);
            // A seeded base that does not show its bug early is not worth a
            // deep search: the next sub-seed is tried instead.
            let path = bug_path(&p, &props, &base, MID_BUDGET)?;
            let gs = short_of_bug(&p, &props, &base, &path, r);
            Some((p, gs))
        }),
        nominal_bytes: 82,
    }
}

impl PredictInputs {
    /// Generates the pass for `seed`, in two phases.
    ///
    /// Phase one picks the states: it draws sub-seeds, builds each
    /// candidate, searches it for its verdict, and keeps the sub-seeds that
    /// fit their slots. Everything it allocated is then dropped and the
    /// heap handed back, and phase two rebuilds only the picked states.
    /// The timed passes therefore run on a heap that holds the inputs and
    /// nothing else: searched in the heap phase one leaves behind — picked
    /// states scattered among the holes of a seed-dependent number of
    /// rejected candidates — the same fixed deep state measured 8–16 %
    /// slower on one seed than on another.
    ///
    /// The four **deep** states do not depend on the seed: they are the
    /// canonical live states the repository's own benches search from (a
    /// churned 8-node RandTree, the Fig. 13 Paxos round-1 state, the
    /// stabilised 4-ring, a fresh 3-node Bullet' mesh). Nor do the sixteen
    /// **mid** states: they are the generators' states of sub-seeds 1, 2,
    /// 3, … One deep and four mid searches per protocol have nothing to
    /// average over, and search cost per visited state differs by ±20–35 %
    /// between seeded live states of one protocol: drawn by the seed they
    /// would put the input mix, not the speed of the code, into
    /// `work_per_s`, and the p90 of a pass's latencies — one particular
    /// mid search — would follow a single draw. The seed draws the 120
    /// shallow states, of which each protocol has enough to average.
    pub fn generate(seed: u64, quick: bool) -> Self {
        let (randtree, paxos, chord, bullet) = {
            let mut rng = Rng::new(seed ^ 0x7072_6564);
            (
                select(&randtree_source(), quick, &mut rng),
                select(&paxos_source(), quick, &mut rng),
                select(&chord_source(), quick, &mut rng),
                select(&bullet_source(), quick, &mut rng),
            )
        };
        crate::harness::trim_heap();
        PredictInputs {
            randtree: build(&randtree_source(), randtree, quick),
            paxos: build(&paxos_source(), paxos, quick),
            chord: build(&chord_source(), chord, quick),
            bullet: build(&bullet_source(), bullet, quick),
        }
    }

    pub fn searches_per_pass(&self) -> usize {
        self.randtree.cases.len()
            + self.paxos.cases.len()
            + self.chord.cases.len()
            + self.bullet.cases.len()
    }
}
