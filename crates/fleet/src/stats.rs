//! Fleet-wide steering metrics: the per-member roll-up and its JSON form.
//!
//! One [`MemberStats`] summarizes one co-deployed simulation — live
//! counters, controller counters (predictions vs. installed filters vs.
//! interventions), checker wire bytes, and a state hash. [`FleetStats`]
//! aggregates them plus the scheduler's own counters.
//!
//! Two serializations, on purpose:
//!
//! * [`FleetStats::to_json`] — everything, including measured wall-clock
//!   checker latency (host-dependent);
//! * [`FleetStats::deterministic_json`] — the subset that the fleet's
//!   determinism contract covers: byte-identical for the same
//!   `(config, seed)` regardless of worker count, checker lanes, or host
//!   speed. The determinism tests compare these bytes.

use std::collections::BTreeMap;

use cb_model::SimTime;
use cb_obs::json::{self, Style, Writer};

/// The roll-up of one fleet member (one co-deployed simulation).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MemberStats {
    /// Deployment name (unique within the fleet).
    pub name: String,
    /// Protocol name (`randtree`, `paxos`, ...).
    pub protocol: String,
    /// Events the fleet scheduler dispatched into this member.
    pub steps: u64,
    /// Faults the fleet's fault engine applied to this member.
    pub faults_applied: u64,
    /// Handler executions (deliveries + actions).
    pub actions_executed: u64,
    /// Message deliveries that ran a handler.
    pub messages_delivered: u64,
    /// Messages swallowed by partitions or loss.
    pub messages_lost: u64,
    /// Deliveries suppressed by steering filters / the ISC.
    pub deliveries_blocked: u64,
    /// Actions suppressed (rescheduled) by steering.
    pub actions_blocked: u64,
    /// Scripted/fault resets applied.
    pub resets_applied: u64,
    /// Neighborhood snapshot gathers completed.
    pub snapshots_completed: u64,
    /// Live states that violated a safety property.
    pub violating_states: u64,
    /// Violations by property name.
    pub violations_by_property: BTreeMap<String, u64>,
    /// Checking rounds executed by this member's controller.
    pub mc_runs: u64,
    /// Rounds that predicted a future inconsistency.
    pub predictions: u64,
    /// Predictions turned into installed filters (avoidance actions).
    pub filters_installed: u64,
    /// Predictions with no safe corrective filter.
    pub steering_unhelpful: u64,
    /// Events an active filter actually blocked.
    pub filter_hits: u64,
    /// Immediate-safety-check vetoes.
    pub isc_vetoes: u64,
    /// Violations that reached the live state anyway.
    pub uncaught_violations: u64,
    /// Bytes a full-clone checker submission would have moved.
    pub wire_raw_bytes: u64,
    /// Bytes the diff-shipped submissions actually moved.
    pub wire_shipped_bytes: u64,
    /// Mean measured checking-round wall-clock, milliseconds
    /// (host-dependent; excluded from the deterministic serialization).
    pub avg_mc_latency_ms: f64,
    /// Prediction-cache counters for this member's controller. Counter
    /// *values* can vary across runs when members share a checker host
    /// (whoever submits first takes the miss), so they live next to the
    /// latency fields: full JSON only, never the deterministic
    /// serialization.
    pub cache: crystalball::CacheStats,
    /// When the first prediction landed (simulated time).
    pub first_prediction_at: Option<SimTime>,
    /// When the first live violation occurred (simulated time).
    pub first_violation_at: Option<SimTime>,
    /// Hash of the member's final global state.
    pub state_hash: u64,
}

impl MemberStats {
    /// Writes the member's deterministic fields (no wall-clock counters)
    /// into an open object. Byte-identical to the pre-`Writer` emitter
    /// for escape-free inputs; names/protocols containing `"` or `\` now
    /// escape correctly instead of corrupting the document.
    fn write_deterministic(&self, w: &mut Writer) {
        let mut viols = Writer::object(Style::Compact);
        for (k, v) in &self.violations_by_property {
            viols.field_u64(k, *v);
        }
        w.field_str("name", &self.name)
            .field_str("protocol", &self.protocol)
            .field_u64("steps", self.steps)
            .field_u64("faults_applied", self.faults_applied)
            .field_u64("actions_executed", self.actions_executed)
            .field_u64("messages_delivered", self.messages_delivered)
            .field_u64("messages_lost", self.messages_lost)
            .field_u64("deliveries_blocked", self.deliveries_blocked)
            .field_u64("actions_blocked", self.actions_blocked)
            .field_u64("resets_applied", self.resets_applied)
            .field_u64("snapshots_completed", self.snapshots_completed)
            .field_u64("violating_states", self.violating_states)
            .field_raw("violations_by_property", &viols.finish())
            .field_u64("mc_runs", self.mc_runs)
            .field_u64("predictions", self.predictions)
            .field_u64("filters_installed", self.filters_installed)
            .field_u64("steering_unhelpful", self.steering_unhelpful)
            .field_u64("filter_hits", self.filter_hits)
            .field_u64("isc_vetoes", self.isc_vetoes)
            .field_u64("uncaught_violations", self.uncaught_violations)
            .field_u64("wire_raw_bytes", self.wire_raw_bytes)
            .field_u64("wire_shipped_bytes", self.wire_shipped_bytes)
            .field_opt_u64(
                "first_prediction_at_us",
                self.first_prediction_at.map(|t| t.0),
            )
            .field_opt_u64(
                "first_violation_at_us",
                self.first_violation_at.map(|t| t.0),
            )
            .field_str("state_hash", &format!("{:016x}", self.state_hash));
    }
}

/// The whole fleet's roll-up.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetStats {
    /// The fleet seed.
    pub seed: u64,
    /// Simulated horizon, seconds.
    pub sim_seconds: f64,
    /// Events dispatched across all members.
    pub fleet_steps: u64,
    /// Fault events consumed from the plan.
    pub faults_applied: u64,
    /// Checker drain boundaries executed.
    pub drains: u64,
    /// `cb-obs` trace events lost to ring wraparound by the end of the
    /// run (full JSON only — observability metadata, never part of the
    /// deterministic surface).
    pub trace_ring_dropped: u64,
    /// Per-member roll-ups, in deployment order.
    pub members: Vec<MemberStats>,
}

impl FleetStats {
    /// Total predicted inconsistencies across members.
    pub fn predictions(&self) -> u64 {
        self.members.iter().map(|m| m.predictions).sum()
    }

    /// Total installed corrective filters across members.
    pub fn filters_installed(&self) -> u64 {
        self.members.iter().map(|m| m.filters_installed).sum()
    }

    /// Total live violating states across members.
    pub fn violating_states(&self) -> u64 {
        self.members.iter().map(|m| m.violating_states).sum()
    }

    /// Total steering interventions (filter blocks + ISC vetoes).
    pub fn interventions(&self) -> u64 {
        self.members
            .iter()
            .map(|m| m.filter_hits + m.isc_vetoes)
            .sum()
    }

    /// Summed prediction-cache counters across members.
    /// (Per-member counts can race when a checker host is shared; the sum
    /// of hits+misses still equals total lookups.)
    pub fn cache(&self) -> crystalball::CacheStats {
        self.members
            .iter()
            .fold(crystalball::CacheStats::default(), |mut acc, m| {
                acc.hits += m.cache.hits;
                acc.misses += m.cache.misses;
                acc.inserts += m.cache.inserts;
                acc.evictions += m.cache.evictions;
                acc
            })
    }

    /// Total checker wire bytes (raw, shipped) across members.
    pub fn wire_bytes(&self) -> (u64, u64) {
        self.members.iter().fold((0, 0), |(r, s), m| {
            (r + m.wire_raw_bytes, s + m.wire_shipped_bytes)
        })
    }

    /// The deterministic serialization: byte-identical for the same
    /// `(config, seed)` across worker counts and host speeds.
    pub fn deterministic_json(&self) -> String {
        let members: Vec<String> = self
            .members
            .iter()
            .map(|m| {
                let mut w = Writer::object(Style::Compact);
                m.write_deterministic(&mut w);
                w.finish()
            })
            .collect();
        self.envelope(&members, false)
    }

    /// The full serialization: the deterministic fields plus measured
    /// wall-clock checker latency and cache counters per member.
    pub fn to_json(&self) -> String {
        let members: Vec<String> = self
            .members
            .iter()
            .map(|m| {
                let mut w = Writer::object(Style::Compact);
                m.write_deterministic(&mut w);
                w.field_f64("avg_mc_latency_ms", m.avg_mc_latency_ms, 3)
                    .field_u64("cache_hits", m.cache.hits)
                    .field_u64("cache_misses", m.cache.misses)
                    .field_f64("cache_hit_rate", m.cache.hit_rate(), 4);
                w.finish()
            })
            .collect();
        self.envelope(&members, true)
    }

    /// The shared top-level object around a rendered member list. `full`
    /// adds the observability-metadata fields the deterministic surface
    /// must not carry.
    fn envelope(&self, members: &[String], full: bool) -> String {
        let mut w = Writer::object(Style::Compact);
        w.field_u64("fleet_seed", self.seed)
            .field_f64("sim_seconds", self.sim_seconds, 3)
            .field_u64("fleet_steps", self.fleet_steps)
            .field_u64("faults_applied", self.faults_applied)
            .field_u64("drains", self.drains);
        if full {
            w.field_u64("trace_ring_dropped", self.trace_ring_dropped);
        }
        w.field_raw("members", &json::array(members));
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn member(name: &str) -> MemberStats {
        MemberStats {
            name: name.into(),
            protocol: "randtree".into(),
            predictions: 2,
            filters_installed: 1,
            filter_hits: 3,
            isc_vetoes: 1,
            wire_raw_bytes: 100,
            wire_shipped_bytes: 40,
            avg_mc_latency_ms: 12.5,
            first_prediction_at: Some(SimTime(5)),
            violations_by_property: [("P".to_string(), 2u64)].into_iter().collect(),
            ..MemberStats::default()
        }
    }

    #[test]
    fn aggregates_sum_members() {
        let f = FleetStats {
            members: vec![member("a"), member("b")],
            ..FleetStats::default()
        };
        assert_eq!(f.predictions(), 4);
        assert_eq!(f.filters_installed(), 2);
        assert_eq!(f.interventions(), 8);
        assert_eq!(f.wire_bytes(), (200, 80));
    }

    #[test]
    fn deterministic_json_excludes_wall_clock() {
        let mut f = FleetStats {
            members: vec![member("a")],
            ..FleetStats::default()
        };
        let d1 = f.deterministic_json();
        assert!(!d1.contains("latency"), "no wall-clock in {d1}");
        assert!(f.to_json().contains("avg_mc_latency_ms"));
        // Perturbing only the measured latency or the cache counters
        // leaves the deterministic bytes untouched.
        f.members[0].avg_mc_latency_ms = 9999.0;
        f.members[0].cache.hits = 77;
        assert_eq!(f.deterministic_json(), d1);
        assert!(!d1.contains("cache_hits"), "no cache counters in {d1}");
        assert!(f.to_json().contains("\"cache_hits\":77"));
        assert!(d1.contains("\"first_prediction_at_us\":5"));
        assert!(d1.contains("\"first_violation_at_us\":null"));
        assert!(d1.contains("\"P\":2"));
    }

    #[test]
    fn member_names_escape_correctly() {
        let f = FleetStats {
            members: vec![member("quo\"ted")],
            ..FleetStats::default()
        };
        let d = f.deterministic_json();
        assert!(d.contains("\"name\":\"quo\\\"ted\""), "{d}");
        cb_obs::json::parse(&d).expect("deterministic JSON parses");
        cb_obs::json::parse(&f.to_json()).expect("full JSON parses");
    }
}
