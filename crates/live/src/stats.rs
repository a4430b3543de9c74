//! Per-node and deployment-wide live-run metrics, JSON-able for the
//! `live_throughput` bench.
//!
//! Unlike `cb-fleet`'s `FleetStats`, nothing here is covered by a
//! byte-identical determinism contract: a live run's counters depend on
//! real scheduling. What *is* contractual is the set of protocol-level
//! outcomes the tests assert on (violations observed, filters installed,
//! filter hits) — these counters are how those outcomes are observed.

use std::collections::BTreeMap;

use cb_snapshot::SnapshotStats;

/// One live node's counters, reported at shutdown (or probed mid-run).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeStats {
    /// Frames written to peer/checker sockets.
    pub frames_sent: u64,
    /// Frames parsed off peer/checker sockets.
    pub frames_received: u64,
    /// Frames dropped by the fault injector before hitting the socket.
    pub frames_dropped_fault: u64,
    /// Frames held back by a `Delay`/`Reorder` injector before the write.
    pub frames_delayed: u64,
    /// Extra copies sent by a `Duplicate` injector.
    pub frames_duplicated: u64,
    /// Frames whose injector delay included a reorder hold.
    pub frames_reordered: u64,
    /// Frames dropped because the peer's outbound buffer hit its cap.
    pub frames_dropped_backpressure: u64,
    /// Peer dials that failed (connect refused or timed out).
    pub dials_failed: u64,
    /// Inbound connections refused at the connection cap.
    pub conns_refused: u64,
    /// Raw socket bytes written (frame payloads plus the 4-byte length
    /// prefix each frame carries).
    pub bytes_sent: u64,
    /// Raw socket bytes read.
    pub bytes_received: u64,
    /// Service messages whose handler ran.
    pub service_delivered: u64,
    /// Service messages sent.
    pub service_sent: u64,
    /// Snapshot-protocol frames exchanged (both directions).
    pub snap_frames: u64,
    /// Snapshot-protocol payload bytes on the wire (both directions).
    pub snapshot_wire_bytes: u64,
    /// Transport errors observed (peer connection broke).
    pub errors_observed: u64,
    /// Internal actions (timers + injected calls) executed.
    pub actions_executed: u64,
    /// Timers that fired for a no-longer-enabled action.
    pub timers_lapsed: u64,
    /// Neighborhood gathers completed (full or partial).
    pub snapshots_completed: u64,
    /// Gathers that hit the liveness timeout.
    pub gather_timeouts: u64,
    /// Checker submissions shipped.
    pub submits_sent: u64,
    /// Encoded submit-body bytes shipped to the checker.
    pub submit_bytes: u64,
    /// Filter-install pushes received.
    pub installs_received: u64,
    /// Filters currently installed at probe time (last push's count).
    pub filters_installed: u64,
    /// Deliveries blocked by an installed filter (the steering effect).
    pub filter_hits: u64,
    /// Timer/injected actions blocked (rescheduled) by a filter.
    pub actions_blocked: u64,
    /// Post-handler self-checks that found this node's state violating a
    /// node-local safety property.
    pub violating_samples: u64,
    /// Violating samples by property name.
    pub violations_by_property: BTreeMap<String, u64>,
    /// Count / total / max of gather-to-install latency in µs, measured on
    /// this node's clock (submission timestamp echoed by the checker). That
    /// clock is the `now` its reactor passes to `poll`, so the resolution
    /// is one reactor iteration.
    pub install_latency: LatencySummary,
    /// Full gather-start → install-receipt latency distribution in µs,
    /// keyed by observability round id (always measured, on this node's
    /// clock — not gated on `cb_obs` tracing — at a resolution of one
    /// reactor iteration, like `install_latency`). This is the paper's
    /// latency race: the window the checker has to predict and steer
    /// before live execution outruns it.
    pub gather_to_install: cb_obs::Histogram,
}

/// Running (count, total, max) summary for a latency series.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples (µs).
    pub total_us: u64,
    /// Largest sample (µs).
    pub max_us: u64,
}

impl LatencySummary {
    /// Folds one sample in.
    pub fn record(&mut self, us: u64) {
        self.count += 1;
        self.total_us += us;
        self.max_us = self.max_us.max(us);
    }

    /// Mean in µs (0 with no samples).
    pub fn avg_us(&self) -> u64 {
        self.total_us.checked_div(self.count).unwrap_or(0)
    }

    fn merge(&mut self, other: &LatencySummary) {
        self.count += other.count;
        self.total_us += other.total_us;
        self.max_us = self.max_us.max(other.max_us);
    }
}

impl NodeStats {
    /// Folds another node's counters into this one.
    pub fn merge(&mut self, other: &NodeStats) {
        let NodeStats {
            frames_sent,
            frames_received,
            frames_dropped_fault,
            frames_delayed,
            frames_duplicated,
            frames_reordered,
            frames_dropped_backpressure,
            dials_failed,
            conns_refused,
            bytes_sent,
            bytes_received,
            service_delivered,
            service_sent,
            snap_frames,
            snapshot_wire_bytes,
            errors_observed,
            actions_executed,
            timers_lapsed,
            snapshots_completed,
            gather_timeouts,
            submits_sent,
            submit_bytes,
            installs_received,
            filters_installed,
            filter_hits,
            actions_blocked,
            violating_samples,
            violations_by_property,
            install_latency,
            gather_to_install,
        } = other;
        self.frames_sent += frames_sent;
        self.frames_received += frames_received;
        self.frames_dropped_fault += frames_dropped_fault;
        self.frames_delayed += frames_delayed;
        self.frames_duplicated += frames_duplicated;
        self.frames_reordered += frames_reordered;
        self.frames_dropped_backpressure += frames_dropped_backpressure;
        self.dials_failed += dials_failed;
        self.conns_refused += conns_refused;
        self.bytes_sent += bytes_sent;
        self.bytes_received += bytes_received;
        self.service_delivered += service_delivered;
        self.service_sent += service_sent;
        self.snap_frames += snap_frames;
        self.snapshot_wire_bytes += snapshot_wire_bytes;
        self.errors_observed += errors_observed;
        self.actions_executed += actions_executed;
        self.timers_lapsed += timers_lapsed;
        self.snapshots_completed += snapshots_completed;
        self.gather_timeouts += gather_timeouts;
        self.submits_sent += submits_sent;
        self.submit_bytes += submit_bytes;
        self.installs_received += installs_received;
        self.filters_installed += filters_installed;
        self.filter_hits += filter_hits;
        self.actions_blocked += actions_blocked;
        self.violating_samples += violating_samples;
        for (k, v) in violations_by_property {
            *self.violations_by_property.entry(k.clone()).or_default() += v;
        }
        self.install_latency.merge(install_latency);
        self.gather_to_install.merge(gather_to_install);
    }
}

/// The checker process's counters. Submission bytes are counted where
/// they cross the wire, on the nodes ([`NodeStats::submit_bytes`]): past
/// its ingress decoder the checker hands each round a shared state, not
/// bytes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CheckerProcessStats {
    /// Submissions accepted off the wire.
    pub submits_received: u64,
    /// Submissions rejected (out-of-order / corrupt deltas, and any
    /// submission flagged speculative — a checker runs completed gathers
    /// only).
    pub submits_rejected: u64,
    /// Checking rounds completed.
    pub rounds_completed: u64,
    /// Rounds that predicted a violation.
    pub predictions: u64,
    /// Filter-install pushes written back to nodes.
    pub installs_sent: u64,
    /// Receipt-to-push latency at the checker (µs).
    pub round_latency: LatencySummary,
    /// Prediction-cache counters (from
    /// [`crystalball::WireChecker::cache_stats`]): rounds answered from
    /// the memo and rounds searched cold.
    pub cache: crystalball::CacheStats,
}

/// The deployment-wide roll-up: every node plus the checker process.
#[derive(Clone, Debug, Default)]
pub struct LiveStats {
    /// Wall-clock seconds the deployment ran.
    pub wall_seconds: f64,
    /// Per-node counters, keyed by node id value.
    pub nodes: BTreeMap<u32, NodeStats>,
    /// Per-node snapshot/bandwidth counters.
    pub snapshots: BTreeMap<u32, SnapshotStats>,
    /// The checker process.
    pub checker: CheckerProcessStats,
    /// Faults the injector applied.
    pub faults_applied: u64,
    /// Node restarts (churn) performed.
    pub restarts: u64,
    /// Reactor threads the deployment multiplexed its nodes over (0 in
    /// reports assembled outside a deployment).
    pub reactor_threads: usize,
    /// `cb-obs` trace events lost to ring wraparound by shutdown —
    /// observability metadata about the run's own instrumentation, not a
    /// protocol outcome.
    pub trace_ring_dropped: u64,
}

impl LiveStats {
    /// Sum of every node's counters.
    pub fn totals(&self) -> NodeStats {
        let mut t = NodeStats::default();
        for n in self.nodes.values() {
            t.merge(n);
        }
        t
    }

    /// Aggregated snapshot/bandwidth counters.
    pub fn snapshot_totals(&self) -> SnapshotStats {
        let mut t = SnapshotStats::default();
        for (i, s) in self.snapshots.values().enumerate() {
            if i == 0 {
                t = s.clone();
            } else {
                t.merge(s);
            }
        }
        t
    }

    /// Renders the roll-up as JSON via the shared
    /// [`cb_obs::json::Writer`] (no serde offline).
    pub fn to_json(&self) -> String {
        use cb_obs::json::{self, Style, Writer};
        let t = self.totals();
        let frames = t.frames_sent + t.frames_received;
        let frames_per_sec = if self.wall_seconds > 0.0 {
            frames as f64 / self.wall_seconds
        } else {
            0.0
        };
        let per_node: Vec<String> = self
            .nodes
            .iter()
            .map(|(id, n)| {
                let mut w = Writer::object(Style::Compact);
                w.field_u64("node", u64::from(*id))
                    .field_u64("frames_sent", n.frames_sent)
                    .field_u64("frames_received", n.frames_received)
                    .field_u64("service_delivered", n.service_delivered)
                    .field_u64("snapshots_completed", n.snapshots_completed)
                    .field_u64("submits_sent", n.submits_sent)
                    .field_u64("installs_received", n.installs_received)
                    .field_u64("filter_hits", n.filter_hits)
                    .field_u64("violating_samples", n.violating_samples);
                w.finish()
            })
            .collect();
        let mut w = Writer::object(Style::Pretty);
        w.field_str("bench", "live_throughput")
            .field_f64("wall_seconds", self.wall_seconds, 3)
            .field_usize("nodes", self.nodes.len())
            .field_u64("frames_total", frames)
            .field_f64("frames_per_sec", frames_per_sec, 1)
            .field_u64("socket_bytes_total", t.bytes_sent + t.bytes_received)
            .field_u64("service_delivered", t.service_delivered)
            .field_u64("snapshot_wire_bytes", t.snapshot_wire_bytes)
            .field_u64("snapshots_completed", t.snapshots_completed)
            .field_u64("gather_timeouts", t.gather_timeouts)
            .field_u64("submits_sent", t.submits_sent)
            .field_u64("submit_bytes", t.submit_bytes)
            .field_u64("checker_rounds", self.checker.rounds_completed)
            .field_u64("predictions", self.checker.predictions)
            .field_u64("installs_sent", self.checker.installs_sent)
            .field_u64("filter_hits", t.filter_hits)
            .field_u64("violating_samples", t.violating_samples)
            .field_u64("faults_applied", self.faults_applied)
            .field_u64("restarts", self.restarts)
            .field_u64("install_latency_samples", t.install_latency.count)
            .field_u64("install_latency_avg_us", t.install_latency.avg_us())
            .field_u64("install_latency_max_us", t.install_latency.max_us)
            .field_u64("gather_to_install_p50", t.gather_to_install.quantile(0.50))
            .field_u64("gather_to_install_p95", t.gather_to_install.quantile(0.95))
            .field_u64("gather_to_install_p99", t.gather_to_install.quantile(0.99))
            .field_u64("cache_hits", self.checker.cache.hits)
            .field_u64("cache_misses", self.checker.cache.misses)
            .field_f64("cache_hit_rate", self.checker.cache.hit_rate(), 4)
            .field_usize("reactor_threads", self.reactor_threads)
            .field_f64(
                "nodes_per_thread",
                if self.reactor_threads > 0 {
                    self.nodes.len() as f64 / self.reactor_threads as f64
                } else {
                    0.0
                },
                2,
            )
            .field_u64("frames_delayed", t.frames_delayed)
            .field_u64("frames_duplicated", t.frames_duplicated)
            .field_u64("frames_reordered", t.frames_reordered)
            .field_u64("frames_dropped_backpressure", t.frames_dropped_backpressure)
            .field_u64("trace_ring_dropped", self.trace_ring_dropped)
            .field_raw("per_node", &json::array(&per_node));
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_json() {
        let mut a = NodeStats {
            frames_sent: 3,
            ..NodeStats::default()
        };
        a.violations_by_property.insert("P".into(), 2);
        a.install_latency.record(100);
        a.gather_to_install.record(100);
        let mut b = NodeStats {
            frames_sent: 4,
            ..NodeStats::default()
        };
        b.violations_by_property.insert("P".into(), 1);
        b.install_latency.record(300);
        b.gather_to_install.record(300);
        a.merge(&b);
        assert_eq!(a.frames_sent, 7);
        assert_eq!(a.violations_by_property["P"], 3);
        assert_eq!(a.gather_to_install.count(), 2);
        assert_eq!(a.install_latency.count, 2);
        assert_eq!(a.install_latency.avg_us(), 200);
        assert_eq!(a.install_latency.max_us, 300);

        let mut stats = LiveStats {
            wall_seconds: 2.0,
            ..LiveStats::default()
        };
        stats.nodes.insert(0, a);
        stats.reactor_threads = 2;
        let json = stats.to_json();
        assert!(json.contains("\"bench\": \"live_throughput\""), "{json}");
        assert!(json.contains("\"frames_total\": 7"), "{json}");
        assert!(json.contains("\"reactor_threads\": 2"), "{json}");
        assert!(json.contains("\"nodes_per_thread\": 0.50"), "{json}");
        assert!(json.contains("\"gather_to_install_p50\": "), "{json}");
        assert!(json.contains("\"gather_to_install_p95\": "), "{json}");
        assert!(json.contains("\"gather_to_install_p99\": "), "{json}");
        assert!(json.contains("\"per_node\": [{"), "{json}");
        cb_obs::json::parse(&json).expect("LiveStats JSON parses");
    }
}
