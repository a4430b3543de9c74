//! Health rules and alerting: the *online* half of §2's "notify the
//! developer" story.
//!
//! A [`HealthMonitor`] holds declarative threshold rules evaluated over
//! metric [`Snapshot`]s — on every scrape, and on the
//! [`MetricsServer`](crate::metrics::MetricsServer)'s one-second timer
//! when nobody is scraping. Rules are edge-triggered: an alert is
//! emitted when a condition starts holding and re-arms when it clears,
//! so a persistently-bad deployment does not flood the sink.
//!
//! Alerts are structured JSON lines, retained in a bounded in-memory tail
//! ([`recent_alerts`]) for tests and probes. Nothing here is ever read
//! back by deterministic code.
//!
//! One alert is event-driven rather than rule-evaluated: the
//! **predicted-violation alert** ([`predicted_violation`]), fired by the
//! live checker the moment a round's consequence prediction reports a
//! violation. It carries the round id, node, property name, and
//! shallowest-path length — the round id is the same causality tag the
//! PR 9 chrome trace records, so the alert joins against the trace's
//! gather/replay/predict/install spans by id.

use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};

use crate::json::{Style, Writer};
use crate::metrics::Snapshot;

/// Max alerts retained in the in-memory tail.
const RECENT_CAP: usize = 256;

// ---- rules ---------------------------------------------------------------

/// A threshold condition over one scrape snapshot (plus per-rule memory
/// for the growth conditions).
#[derive(Clone, Copy, Debug)]
pub enum Condition {
    /// The counter family's total exceeds `threshold`.
    CounterAbove {
        /// Counter family name.
        family: &'static str,
        /// Exclusive threshold.
        threshold: u64,
    },
    /// The gauge family's value exceeds `threshold`.
    GaugeAbove {
        /// Gauge family name.
        family: &'static str,
        /// Exclusive threshold.
        threshold: u64,
    },
    /// The gauge grew on `evals` consecutive evaluations (backlog-style
    /// "it keeps getting worse" detection).
    GaugeGrowing {
        /// Gauge family name.
        family: &'static str,
        /// Consecutive growing evaluations before firing.
        evals: u32,
    },
    /// The histogram family's quantile `q` exceeds `threshold`.
    QuantileAbove {
        /// Histogram family name.
        family: &'static str,
        /// Quantile in `[0, 1]` (e.g. 0.99).
        q: f64,
        /// Exclusive threshold (same unit as the histogram's samples).
        threshold: u64,
    },
    /// `hits / (hits + misses)` fell below `threshold` with at least
    /// `min_lookups` total lookups (cache-collapse detection that stays
    /// quiet during warm-up).
    HitRateBelow {
        /// Hit counter family.
        hits: &'static str,
        /// Miss counter family.
        misses: &'static str,
        /// Minimum `hits + misses` before the rule can fire.
        min_lookups: u64,
        /// Rate threshold in `[0, 1]`.
        threshold: f64,
    },
}

/// One named health rule.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    /// Rule name — the `rule` field of emitted alerts.
    pub name: &'static str,
    /// When it fires.
    pub condition: Condition,
}

#[derive(Clone, Copy, Default)]
struct RuleState {
    last: u64,
    /// Whether `last` holds a real prior observation (a gauge first
    /// appearing at a nonzero value is not "growing").
    seen: bool,
    streak: u32,
    firing: bool,
}

/// A rule set with per-rule memory, evaluated over successive snapshots.
#[derive(Default)]
pub struct HealthMonitor {
    rules: Vec<Rule>,
    state: Vec<RuleState>,
}

impl HealthMonitor {
    /// An empty monitor (no rules).
    pub fn new() -> HealthMonitor {
        HealthMonitor::default()
    }

    /// The workspace's default rule set:
    /// * `checker_backlog_growing` — the checker's pending-round gauge
    ///   grew on 3 consecutive evaluations (§3's latency race being
    ///   lost: predictions queue faster than they complete).
    /// * `cache_hit_rate_collapse` — prediction-cache hit rate under 10%
    ///   after 32 lookups.
    /// * `wake_lag_p99_over_budget` — reactor wake-lag p99 over
    ///   `wake_budget_us` (scheduling latency every node's timers sit
    ///   behind).
    /// * `trace_ring_drops` — any cb-obs trace events lost to ring
    ///   wraparound (trace loss is no longer silent).
    pub fn with_default_rules(wake_budget_us: u64) -> HealthMonitor {
        let mut m = HealthMonitor::new();
        m.add_rule(Rule {
            name: "checker_backlog_growing",
            condition: Condition::GaugeGrowing {
                family: "cb_checker_backlog",
                evals: 3,
            },
        });
        m.add_rule(Rule {
            name: "cache_hit_rate_collapse",
            condition: Condition::HitRateBelow {
                hits: "cb_cache_hits_total",
                misses: "cb_cache_misses_total",
                min_lookups: 32,
                threshold: 0.10,
            },
        });
        m.add_rule(Rule {
            name: "wake_lag_p99_over_budget",
            condition: Condition::QuantileAbove {
                family: "cb_reactor_wake_lag_us",
                q: 0.99,
                threshold: wake_budget_us,
            },
        });
        m.add_rule(Rule {
            name: "trace_ring_drops",
            condition: Condition::GaugeAbove {
                family: "cb_trace_ring_dropped",
                threshold: 0,
            },
        });
        m
    }

    /// Appends a rule.
    pub fn add_rule(&mut self, rule: Rule) {
        self.rules.push(rule);
        self.state.push(RuleState::default());
    }

    /// Evaluates every rule against `snap`, emitting one alert per rule
    /// that *starts* firing. Returns the alert lines emitted this pass.
    pub fn evaluate(&mut self, snap: &Snapshot) -> Vec<String> {
        let mut emitted = Vec::new();
        for (rule, st) in self.rules.iter().zip(self.state.iter_mut()) {
            let triggered = match rule.condition {
                Condition::CounterAbove { family, threshold } => snap
                    .counter(family)
                    .map(|v| {
                        st.last = v;
                        v > threshold
                    })
                    .unwrap_or(false),
                Condition::GaugeAbove { family, threshold } => snap
                    .gauge(family)
                    .map(|v| {
                        st.last = v;
                        v > threshold
                    })
                    .unwrap_or(false),
                Condition::GaugeGrowing { family, evals } => match snap.gauge(family) {
                    Some(v) => {
                        if st.seen && v > st.last {
                            st.streak += 1;
                        } else if v <= st.last {
                            st.streak = 0;
                        }
                        st.last = v;
                        st.seen = true;
                        st.streak >= evals
                    }
                    None => false,
                },
                Condition::QuantileAbove {
                    family,
                    q,
                    threshold,
                } => snap
                    .histogram(family)
                    .map(|h| {
                        let v = h.quantile(q);
                        st.last = v;
                        v > threshold
                    })
                    .unwrap_or(false),
                Condition::HitRateBelow {
                    hits,
                    misses,
                    min_lookups,
                    threshold,
                } => match (snap.counter(hits), snap.counter(misses)) {
                    (Some(h), Some(m)) if h + m >= min_lookups => {
                        let rate = h as f64 / (h + m) as f64;
                        st.last = (rate * 1_000_000.0) as u64;
                        rate < threshold
                    }
                    _ => false,
                },
            };
            if triggered && !st.firing {
                let line = rule_alert(rule, st.last);
                emit(line.clone());
                emitted.push(line);
            }
            st.firing = triggered;
        }
        emitted
    }
}

fn rule_alert(rule: &Rule, value: u64) -> String {
    let mut w = Writer::object(Style::Compact);
    w.field_str("kind", "alert")
        .field_str("rule", rule.name)
        .field_u64("ts_us", crate::now_us());
    match rule.condition {
        Condition::CounterAbove { family, threshold }
        | Condition::GaugeAbove { family, threshold } => {
            w.field_str("family", family)
                .field_u64("value", value)
                .field_u64("threshold", threshold);
        }
        Condition::GaugeGrowing { family, evals } => {
            w.field_str("family", family)
                .field_u64("value", value)
                .field_u64("grew_for_evals", u64::from(evals));
        }
        Condition::QuantileAbove {
            family,
            q,
            threshold,
        } => {
            w.field_str("family", family)
                .field_f64("q", q, 2)
                .field_u64("value", value)
                .field_u64("threshold", threshold);
        }
        Condition::HitRateBelow {
            hits, threshold, ..
        } => {
            w.field_str("family", hits)
                .field_f64("hit_rate", value as f64 / 1_000_000.0, 4)
                .field_f64("threshold", threshold, 4);
        }
    }
    w.finish()
}

// ---- the global monitor --------------------------------------------------

static MONITOR: OnceLock<Mutex<Option<HealthMonitor>>> = OnceLock::new();

fn monitor_slot() -> &'static Mutex<Option<HealthMonitor>> {
    MONITOR.get_or_init(|| Mutex::new(None))
}

/// Installs `monitor` as the process-global rule set (replacing any
/// previous one). [`crate::metrics::scrape`] and the server's timer path
/// evaluate it.
pub fn install(monitor: HealthMonitor) {
    *monitor_slot().lock().expect("health monitor poisoned") = Some(monitor);
}

/// Installs [`HealthMonitor::with_default_rules`] (50ms wake budget) if
/// no monitor is installed yet — called from `metrics::enable`.
pub(crate) fn ensure_default_monitor() {
    let mut slot = monitor_slot().lock().expect("health monitor poisoned");
    if slot.is_none() {
        *slot = Some(HealthMonitor::with_default_rules(50_000));
    }
}

/// Evaluates the installed monitor (if any) against `snap`.
pub fn evaluate(snap: &Snapshot) {
    if let Some(m) = monitor_slot()
        .lock()
        .expect("health monitor poisoned")
        .as_mut()
    {
        m.evaluate(snap);
    }
}

// ---- the alert sink ------------------------------------------------------

static SINK: OnceLock<Mutex<VecDeque<String>>> = OnceLock::new();

fn sink() -> &'static Mutex<VecDeque<String>> {
    SINK.get_or_init(|| Mutex::new(VecDeque::new()))
}

/// The most recent alerts (bounded tail), oldest first.
pub fn recent_alerts() -> Vec<String> {
    sink()
        .lock()
        .expect("alert sink poisoned")
        .iter()
        .cloned()
        .collect()
}

/// Takes (and clears) the in-memory alert tail — test isolation.
pub fn take_alerts() -> Vec<String> {
    let mut recent = sink().lock().expect("alert sink poisoned");
    recent.drain(..).collect()
}

fn emit(line: String) {
    let mut recent = sink().lock().expect("alert sink poisoned");
    if recent.len() >= RECENT_CAP {
        recent.pop_front();
    }
    recent.push_back(line);
}

// ---- the predicted-violation alert ---------------------------------------

static PREDICTED_ALERTS: crate::metrics::Counter = crate::metrics::Counter::new(
    "cb_alerts_predicted_violation_total",
    "predicted-violation alerts emitted (checker rounds whose prediction reported a violation)",
);

/// Emits the first-class **predicted-violation** alert: a checking round
/// reported that the deployment's current state can reach `property`'s
/// violation. `round` is the cb-obs causality id the submitting node
/// stamped on the round (join key into the chrome trace), `node` the
/// node whose neighborhood was checked, `path_len` the shallowest
/// predicted path's length in events.
pub fn predicted_violation(round: u64, node: u32, property: &str, path_len: Option<u64>) {
    let mut w = Writer::object(Style::Compact);
    w.field_str("kind", "alert")
        .field_str("rule", "predicted_violation")
        .field_u64("ts_us", crate::now_us())
        .field_u64("round", round)
        .field_u64("node", u64::from(node))
        .field_str("property", property)
        .field_opt_u64("path_len", path_len);
    emit(w.finish());
    PREDICTED_ALERTS.inc();
    // Mirror into the trace under the same id, so the join is visible
    // inside Perfetto too, not just across files.
    crate::instant_id("alert.predicted_violation", "alert", round);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::metrics::{FamilySample, HistSample, SampleValue, Snapshot};

    fn snap(families: Vec<FamilySample>) -> Snapshot {
        Snapshot { families }
    }

    fn gauge(name: &'static str, v: u64) -> FamilySample {
        FamilySample {
            name,
            help: "",
            value: SampleValue::Gauge(v),
        }
    }

    fn counter(name: &'static str, v: u64) -> FamilySample {
        FamilySample {
            name,
            help: "",
            value: SampleValue::Counter(v),
        }
    }

    #[test]
    fn rules_edge_trigger_and_rearm() {
        let mut m = HealthMonitor::new();
        m.add_rule(Rule {
            name: "backlog",
            condition: Condition::GaugeGrowing {
                family: "b",
                evals: 2,
            },
        });
        m.add_rule(Rule {
            name: "drops",
            condition: Condition::GaugeAbove {
                family: "d",
                threshold: 0,
            },
        });
        // Growth streak: 1 → 2 → 3 fires once at the second growth.
        assert!(m
            .evaluate(&snap(vec![gauge("b", 1), gauge("d", 0)]))
            .is_empty());
        assert!(m
            .evaluate(&snap(vec![gauge("b", 2), gauge("d", 0)]))
            .is_empty());
        let fired = m.evaluate(&snap(vec![gauge("b", 3), gauge("d", 0)]));
        assert_eq!(fired.len(), 1);
        let v = parse(&fired[0]).expect("alert parses");
        assert_eq!(v.get("rule").and_then(Value::as_str), Some("backlog"));
        assert_eq!(v.get("value").and_then(Value::as_u64), Some(3));
        // Still growing: already firing, no re-emit.
        assert!(m
            .evaluate(&snap(vec![gauge("b", 4), gauge("d", 0)]))
            .is_empty());
        // Clears, then drops fire independently.
        let fired = m.evaluate(&snap(vec![gauge("b", 4), gauge("d", 5)]));
        assert_eq!(fired.len(), 1);
        assert!(fired[0].contains("\"rule\":\"drops\""));
    }

    #[test]
    fn hit_rate_and_quantile_rules() {
        let mut m = HealthMonitor::new();
        m.add_rule(Rule {
            name: "cache_collapse",
            condition: Condition::HitRateBelow {
                hits: "h",
                misses: "mi",
                min_lookups: 10,
                threshold: 0.5,
            },
        });
        m.add_rule(Rule {
            name: "lag",
            condition: Condition::QuantileAbove {
                family: "lat",
                q: 0.99,
                threshold: 100,
            },
        });
        // Under min_lookups: quiet even at 0% hit rate.
        assert!(m
            .evaluate(&snap(vec![counter("h", 0), counter("mi", 5)]))
            .is_empty());
        let hist = FamilySample {
            name: "lat",
            help: "",
            value: SampleValue::Hist(HistSample {
                buckets: vec![(127, 1), (8191, 2)],
                sum: 5000,
                count: 2,
            }),
        };
        let fired = m.evaluate(&snap(vec![counter("h", 1), counter("mi", 20), hist]));
        assert_eq!(fired.len(), 2, "both rules fire: {fired:?}");
        assert!(fired.iter().any(|l| l.contains("cache_collapse")));
        assert!(fired.iter().any(|l| l.contains("\"rule\":\"lag\"")));
    }

    #[test]
    fn predicted_violation_alert_shape() {
        predicted_violation((7u64 << 32) | 3, 7, "NoLoop", Some(4));
        // Other tests in this binary share the global sink; find ours.
        let alerts = recent_alerts();
        let line = alerts
            .iter()
            .find(|l| l.contains("predicted_violation") && l.contains("\"property\":\"NoLoop\""))
            .expect("predicted-violation alert in the tail");
        let v = parse(line).expect("alert parses");
        assert_eq!(
            v.get("rule").and_then(Value::as_str),
            Some("predicted_violation")
        );
        assert_eq!(
            v.get("round").and_then(Value::as_u64),
            Some((7u64 << 32) | 3)
        );
        assert_eq!(v.get("node").and_then(Value::as_u64), Some(7));
        assert_eq!(v.get("property").and_then(Value::as_str), Some("NoLoop"));
        assert_eq!(v.get("path_len").and_then(Value::as_u64), Some(4));
    }
}
