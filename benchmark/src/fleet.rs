//! `fleet_steer`: execution steering under a deployment's scheduler.
//!
//! A pass is one `Fleet::run` of three steered members — a RandTree
//! overlay (R1), a Paxos group (P2) and a Bullet' mesh (B1) — under one
//! seeded `FaultPlan`, on the driver thread plus one checker lane
//! (`checker_lanes: 1, pool_threads: 0`, sequential searches). This is
//! where `cb-runtime`, `cb-net`, `cb-fleet` and the `Controller` hooks
//! (filters, immediate safety check) work, and nowhere else.
//!
//! Every member is wrapped in [`Timed`], a `Deployment` decorator that
//! times `drain_checker` (and, on traced runs, every `step`). The unit of
//! work is one checking round; a latency sample is one drain boundary's
//! wait — the three members' drains together — divided by the rounds it
//! applied: what one round stalls the deployment for. (Per member the wait
//! is bimodal: the lane is FIFO across members, so whichever member drains
//! first absorbs the whole wait and the next two find their rounds done.)
//! An unsteered `NoHook` twin of the same fleet runs once in set-up and
//! yields the §5.5 number, `fleet.steer_cost_ratio`.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use cb_fleet::{
    bullet_member, paxos_member, randtree_member, Deployment, FaultEvent, FaultPlan, Fleet,
    FleetConfig, FleetStats, MemberCommon, MemberStats,
};
use cb_mc::{Engine, SearchConfig};
use cb_model::{ExploreOptions, SimDuration, SimTime};
use cb_net::LinkFault;
use cb_protocols::bullet::BulletBugs;
use cb_protocols::paxos::PaxosBugs;
use cb_protocols::randtree::RandTreeBugs;
use crystalball::{CheckerMode, ControllerConfig, Mode};

use crate::harness::{Pass, Rng, Stopwatch, Workload};
use crate::spans::Recorder;

/// Simulated seconds one fleet runs for: about two wall seconds per pass
/// on the reference host.
pub const HORIZON_SECS: u64 = 960;
/// Simulated gap between checker drain boundaries. Short, so that a
/// boundary applies one to three rounds and its wait per round reads as a
/// round's service time; about 500 of a pass's 1 920 boundaries apply any.
pub const DRAIN_INTERVAL_MS: u64 = 500;
const MEMBERS: usize = 3;
/// State budget of every member's checking rounds.
const BUDGET: usize = 300;

/// A steered member's controller, every field set here.
fn controller() -> ControllerConfig {
    ControllerConfig {
        mode: Mode::ExecutionSteering,
        search: SearchConfig {
            // Bounded by states alone, so a round costs about the same
            // whichever member submits it and a seed's mix of members'
            // rounds does not move the fleet's rounds per second.
            max_depth: None,
            max_states: Some(BUDGET),
            deadline: None,
            explore: ExploreOptions::default(),
            prune_local: true,
            max_violations: 1,
            filters: cb_mc::FilterSet::new(),
        },
        engine: Engine::Sequential,
        checker: CheckerMode::Sharded { shards: 1 },
        mc_latency: SimDuration::from_millis(500),
        immediate_safety_check: true,
        check_filter_safety: true,
        safety_check_states: BUDGET,
        replay_known_paths: true,
        reset_connection_on_block: true,
        max_known_paths: 16,
        // The fleet scheduler owns the application points.
        poll_in_hooks: false,
        prediction_cache: true,
        prediction_cache_capacity: 1024,
    }
}

/// What the [`Timed`] decorators of one fleet collected.
#[derive(Default)]
pub struct Probe {
    /// Trace member steps too (traced runs only).
    trace_steps: bool,
    /// (start, end, member) of every step, when tracing.
    steps: Vec<(Instant, Instant, u32)>,
    /// (start, end, member, rounds applied) of every drain.
    drains: Vec<(Instant, Instant, u32, usize)>,
}

/// Times the calls the fleet scheduler makes into one member.
struct Timed {
    inner: Box<dyn Deployment>,
    member: u32,
    probe: Rc<RefCell<Probe>>,
}

impl Deployment for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn protocol(&self) -> &'static str {
        self.inner.protocol()
    }
    fn next_event_at(&self) -> Option<SimTime> {
        self.inner.next_event_at()
    }
    fn step(&mut self) -> Option<SimTime> {
        if !self.probe.borrow().trace_steps {
            return self.inner.step();
        }
        let t0 = Instant::now();
        let at = self.inner.step();
        let t1 = Instant::now();
        self.probe.borrow_mut().steps.push((t0, t1, self.member));
        at
    }
    fn advance_to(&mut self, t: SimTime) {
        self.inner.advance_to(t);
    }
    fn apply_fault(&mut self, ev: &FaultEvent) -> bool {
        self.inner.apply_fault(ev)
    }
    fn drain_checker(&mut self, now: SimTime, timeout: Duration) -> usize {
        let t0 = Instant::now();
        let applied = self.inner.drain_checker(now, timeout);
        let t1 = Instant::now();
        self.probe
            .borrow_mut()
            .drains
            .push((t0, t1, self.member, applied));
        applied
    }
    fn pending_checker(&self) -> u64 {
        self.inner.pending_checker()
    }
    fn stats(&self) -> MemberStats {
        self.inner.stats()
    }
}

/// Mean simulated gap between two churns, and between two degradations.
const CHURN_EVERY: SimDuration = SimDuration::from_secs(40);
const DEGRADE_EVERY: SimDuration = SimDuration::from_secs(35);
/// Size of the node-index space faults name (members fold it onto theirs).
const FAULT_NODES: usize = 6;

/// A shuffled sequence in which every index of `0..FAULT_NODES` comes up
/// once before any comes up twice.
fn balanced_indices(len: usize, rng: &mut Rng) -> Vec<usize> {
    let mut out = Vec::with_capacity(len + FAULT_NODES);
    while out.len() < len {
        let mut deck: Vec<usize> = (0..FAULT_NODES).collect();
        for i in (1..deck.len()).rev() {
            deck.swap(i, rng.below(i + 1));
        }
        out.extend(deck);
    }
    out.truncate(len);
    out
}

/// The seeded fault plan of one fleet: churn and link degradation from 35
/// simulated seconds on (partitions are left to the Paxos member's own
/// Fig. 13 script; a fleet-wide heal would splice its rounds).
///
/// `FaultPlan::generate` draws gaps and victims independently, so the
/// number of faults that land on the three-node Paxos group — whose rounds
/// cost several times a RandTree round — differs by half between seeds, and
/// with it the fleet's rounds per second (Paxos rounds per pass: 291–416
/// over seeds 1–10). This plan is **stratified**: one churn in every
/// 40-second slot and one degradation in every 35-second slot, each at a
/// seeded moment of its slot, victims dealt from shuffled decks so every
/// node index is hit equally often. The seed decides when and in which
/// order; how much, and to whom, is the same on every seed.
pub fn fault_plan(seed: u64, horizon: SimDuration) -> FaultPlan {
    let start = SimDuration::from_secs(35);
    let mut rng = Rng::new(seed ^ 0x666c_6565);
    let mut events = Vec::new();
    let slots = |every: SimDuration| {
        ((horizon.as_secs_f64() - start.as_secs_f64()) / every.as_secs_f64()) as usize
    };
    let moment = |slot: usize, every: SimDuration, rng: &mut Rng| {
        let into = rng.below(800) as f64 / 1_000.0;
        SimTime::ZERO + start + every.mul_f64(slot as f64 + into)
    };

    let n = slots(CHURN_EVERY);
    let victims = balanced_indices(n, &mut rng);
    for (slot, node) in victims.into_iter().enumerate() {
        let t = moment(slot, CHURN_EVERY, &mut rng);
        let notify = slot % 2 == 0;
        events.push((t, FaultEvent::Churn { node, notify }));
        events.push((t + SimDuration::from_secs(2), FaultEvent::Rejoin { node }));
    }

    let n = slots(DEGRADE_EVERY);
    let ends = balanced_indices(n, &mut rng);
    let fault = LinkFault {
        extra_loss: 0.05,
        extra_delay: SimDuration::from_millis(150),
    };
    for (slot, a) in ends.into_iter().enumerate() {
        let t = moment(slot, DEGRADE_EVERY, &mut rng);
        let b = (a + 1 + slot % (FAULT_NODES - 1)) % FAULT_NODES;
        events.push((
            t,
            FaultEvent::Degrade {
                a,
                b,
                fault: Some(fault),
            },
        ));
        events.push((
            t + SimDuration::from_secs(15),
            FaultEvent::Degrade { a, b, fault: None },
        ));
    }
    events.sort_by_key(|(t, _)| *t);
    FaultPlan { events }
}

/// Builds the three-member fleet for `seed`: steered, or the `NoHook`
/// twin with the same members, seeds and fault plan.
fn build_fleet(
    seed: u64,
    horizon: SimDuration,
    steered: bool,
    probe: &Rc<RefCell<Probe>>,
) -> Fleet {
    let mut fleet = Fleet::new(FleetConfig {
        seed,
        duration: horizon,
        drain_interval: SimDuration::from_millis(DRAIN_INTERVAL_MS),
        checker_lanes: 1,
        pool_threads: 0,
    });
    let rt = fleet.runtime().clone();
    let common = |name: &str, salt: u64, ctl: ControllerConfig| {
        if steered {
            MemberCommon::steering(name, salt, ctl)
        } else {
            MemberCommon::baseline(name, salt)
        }
    };
    let members: [Box<dyn Deployment>; MEMBERS] = [
        randtree_member(
            &rt,
            common("randtree", 0xa1, controller()),
            6,
            RandTreeBugs::only("R1"),
            SimDuration::from_secs(6),
            horizon,
        ),
        paxos_member(
            &rt,
            common("paxos", 0xb2, controller()),
            PaxosBugs::only("P2"),
            (horizon.as_secs_f64() / 25.0) as usize,
            SimDuration::from_secs(5),
        ),
        bullet_member(
            &rt,
            common("bullet", 0xc3, controller()),
            5,
            120,
            BulletBugs::only("B1"),
        ),
    ];
    for (member, inner) in members.into_iter().enumerate() {
        fleet.add_member(Box::new(Timed {
            inner,
            member: member as u32,
            probe: probe.clone(),
        }));
    }
    fleet.load_fault_plan(fault_plan(seed, horizon));
    fleet
}

/// The outcome of a fleet run, without anything an optimisation may
/// legitimately change: `FleetStats::deterministic_json`'s fields minus
/// the checker wire bytes.
pub fn outcome_digest(stats: &FleetStats) -> u64 {
    let mut lines = vec![format!(
        "{}|{}|{}|{}",
        stats.sim_seconds, stats.fleet_steps, stats.faults_applied, stats.drains
    )];
    for m in &stats.members {
        lines.push(format!(
            "{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{:?}|{}|{}|{}|{}|{}|{}|{}|{:?}|{:?}|{:016x}",
            m.name,
            m.protocol,
            m.steps,
            m.faults_applied,
            m.actions_executed,
            m.messages_delivered,
            m.messages_lost,
            m.deliveries_blocked,
            m.actions_blocked,
            m.resets_applied,
            m.snapshots_completed,
            m.violating_states,
            m.violations_by_property,
            m.mc_runs,
            m.predictions,
            m.filters_installed,
            m.steering_unhelpful,
            m.filter_hits,
            m.isc_vetoes,
            m.uncaught_violations,
            m.first_prediction_at,
            m.first_violation_at,
            m.state_hash,
        ));
    }
    cb_model::stable_hash(&lines.join("\n"))
}

/// What one fleet run measured beyond its [`Pass`].
#[derive(Default)]
pub struct FleetDetail {
    pub stats: Option<FleetStats>,
    pub wall_s: f64,
    pub digest: u64,
    pub step_ns: Vec<f64>,
    pub step_total_s: f64,
    pub drain_total_s: f64,
    pub drain_wait_us: Vec<f64>,
    pub undrained: u64,
}

pub struct FleetSteer {
    seed: u64,
    horizon: SimDuration,
    pub twin: FleetDetail,
    pub last: FleetDetail,
    reference_digest: u64,
    digests_differ: u64,
    violating: u64,
    undrained: u64,
}

/// Runs one fleet to its horizon under the clocks.
fn run_fleet(
    seed: u64,
    horizon: SimDuration,
    steered: bool,
    rec: &mut Recorder,
    trace_steps: bool,
) -> (Pass, FleetDetail) {
    let probe = Rc::new(RefCell::new(Probe {
        trace_steps,
        ..Probe::default()
    }));
    // Members, controllers and the lane thread are built outside the clocks.
    let mut fleet = build_fleet(seed, horizon, steered, &probe);
    let span = rec.begin("fleet.run", seed);
    let watch = Stopwatch::start();
    let stats = fleet.run();
    let (wall_s, cpu_s) = watch.stop();

    let mut detail = FleetDetail {
        wall_s,
        digest: outcome_digest(&stats),
        undrained: fleet.members().iter().map(|m| m.pending_checker()).sum(),
        ..FleetDetail::default()
    };
    let probe = probe.borrow();
    for &(t0, t1, member) in &probe.steps {
        rec.record("runtime.step", u64::from(member), t0, t1);
        let d = t1.duration_since(t0);
        detail.step_ns.push(d.as_nanos() as f64);
        detail.step_total_s += d.as_secs_f64();
    }
    let mut pass = Pass {
        wall_s,
        cpu_s,
        ..Pass::default()
    };
    // The scheduler drains every member at every boundary, in order.
    for (boundary, drains) in probe.drains.chunks(MEMBERS).enumerate() {
        let mut wait_s = 0.0;
        let mut applied = 0;
        for &(t0, t1, _, n) in drains {
            rec.record("fleet.drain_checker", boundary as u64 + 1, t0, t1);
            wait_s += t1.duration_since(t0).as_secs_f64();
            applied += n;
        }
        detail.drain_total_s += wait_s;
        if applied > 0 {
            detail.drain_wait_us.push(wait_s * 1e6);
            pass.latencies_ms.push(wait_s * 1e3 / applied as f64);
        }
    }
    rec.end(span);
    pass.units = stats.members.iter().map(|m| m.mc_runs).sum::<u64>() as f64;
    pass.attempted = pass.units as u64;
    detail.stats = Some(stats);
    (pass, detail)
}

impl FleetSteer {
    /// Runs the unsteered twin, then one untimed steered warm-up pass.
    pub fn setup(seed: u64, quick: bool) -> Self {
        let horizon = SimDuration::from_secs(if quick {
            HORIZON_SECS / 4
        } else {
            HORIZON_SECS
        });
        let mut off = Recorder::new(false);
        let (_, twin) = run_fleet(seed, horizon, false, &mut off, false);
        let (_, warm) = run_fleet(seed, horizon, true, &mut off, false);
        FleetSteer {
            seed,
            horizon,
            twin,
            reference_digest: warm.digest,
            last: warm,
            digests_differ: 0,
            violating: 0,
            undrained: 0,
        }
    }
}

impl FleetSteer {
    /// The twin once more with every step timed (traced runs only: the
    /// clock reads are a twentieth of an unsteered step).
    pub fn twin_step_ns(&self) -> Vec<f64> {
        run_fleet(
            self.seed,
            self.horizon,
            false,
            &mut Recorder::new(false),
            true,
        )
        .1
        .step_ns
    }
}

impl Workload for FleetSteer {
    fn pass(&mut self, rec: &mut Recorder) -> Pass {
        let (mut pass, detail) = run_fleet(self.seed, self.horizon, true, rec, rec.is_on());
        let stats = detail.stats.as_ref().expect("run_fleet fills stats");
        // Checks: same outcome every pass, nothing violated, nothing owed.
        pass.attempted += 2;
        if detail.digest != self.reference_digest {
            self.digests_differ += 1;
            pass.failed += 1;
        }
        let violating = stats.violating_states();
        self.violating += violating;
        pass.failed += violating.min(1);
        self.undrained += detail.undrained;
        pass.failed += detail.undrained;
        self.last = detail;
        pass
    }

    fn describe(&self) -> String {
        let s = self.last.stats.as_ref().expect("a pass ran");
        let t = self.twin.stats.as_ref().expect("the twin ran");
        let per_member: Vec<String> = s
            .members
            .iter()
            .zip(&t.members)
            .map(|(m, tw)| {
                format!(
                    "{} {} rounds, {} predictions, {} filters, delivered {} (twin {})",
                    m.name,
                    m.mc_runs,
                    m.predictions,
                    m.filters_installed,
                    m.messages_delivered,
                    tw.messages_delivered
                )
            })
            .collect();
        format!(
            "one fleet of {} simulated s per pass on driver + 1 checker lane: {} steps, {} drains, \
             {} faults, {} interventions; {}; steered {:.3} s vs twin {:.4} s",
            self.horizon.as_secs_f64(),
            s.fleet_steps,
            s.drains,
            s.faults_applied,
            s.interventions(),
            per_member.join("; "),
            self.last.wall_s,
            self.twin.wall_s,
        )
    }

    fn outcome(&self) -> Option<(&'static str, String)> {
        let s = self.last.stats.as_ref()?;
        Some((
            "fleet_steer",
            format!(
                "{{\"fault_plan\":\"{:016x}\",\"outcome_digest\":\"{:016x}\",\"violating_states\":{},\
                 \"filters_installed\":{},\"interventions\":{}}}",
                cb_model::stable_hash(&format!("{:?}", fault_plan(self.seed, self.horizon).events)),
                self.last.digest,
                s.violating_states(),
                s.filters_installed(),
                s.interventions()
            ),
        ))
    }

    fn final_checks(&mut self) -> (u64, u64) {
        let ok = |bad: u64| if bad == 0 { "ok" } else { "FAILED" };
        println!(
            "  check every pass ends in the same deterministic outcome                {}",
            ok(self.digests_differ)
        );
        println!(
            "  check no violating state with steering on                             {}",
            ok(self.violating)
        );
        println!(
            "  check every checking round was drained and applied                    {}",
            ok(self.undrained)
        );
        (0, 0)
    }
}
