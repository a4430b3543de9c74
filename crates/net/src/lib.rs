//! # cb-net — the emulated wide-area network (ModelNet substitute)
//!
//! The paper's live experiments run on a ModelNet cluster emulating a
//! 5,000-node INET topology: power-law degree distribution, generator
//! latencies (average RTT ≈ 130 ms), 100 Mbps transit-transit links,
//! 5 Mbps/1 Mbps access links, and random per-link drop probabilities in
//! [0.001, 0.005] emulating cross traffic (§5.1).
//!
//! This crate rebuilds those ingredients as a deterministic discrete-time
//! model:
//!
//! * [`Topology`] — a preferential-attachment (power-law) graph with
//!   per-link latencies; participants are attached to one-degree stub
//!   nodes, and pairwise path delay / loss are computed over shortest
//!   paths, exactly the quantities ModelNet would impose per packet;
//! * [`LinkModel`] — per-participant access-link bandwidth queues
//!   (serialization delay + FIFO backlog) for inbound and outbound
//!   directions;
//! * [`NetworkModel`] — combines both: given `(now, src, dst, bytes)` it
//!   returns the arrival time of a message, keeps per-connection FIFO
//!   ordering (TCP semantics), samples loss for unreliable traffic, and
//!   applies injected faults — pair partitions
//!   ([`NetworkModel::set_partitioned`], dropped bytes accounted in
//!   [`LinkStats::lost`]) and per-pair degradations ([`LinkFault`]: extra
//!   loss and delay) — the substrate of the fleet harness's fault engine.
//!
//! Determinism: all randomness comes from the seeded [`rand`] PRNG owned by
//! the model, so a simulation replays bit-identically from its seed.

#![forbid(unsafe_code)]

pub mod fault;
pub mod link;
pub mod topology;

pub use fault::{decide, FaultDecision, LiveFault};
pub use link::{LinkModel, LinkStats};
pub use topology::{PathInfo, Topology, TopologyConfig};

use cb_model::{NodeId, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Delivery classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// Reliable, in-order per connection (TCP): loss shows up as added
    /// latency (retransmission), never as message loss.
    Tcp,
    /// Best-effort datagrams (UDP): loss drops the message.
    Udp,
}

/// An injected degradation of one participant pair's path: extra
/// cross-traffic loss and extra one-way delay, stacked on top of whatever
/// the generated topology already imposes. This is the fault-injection
/// surface the fleet harness drives (flaky links, congested paths); full
/// partitions are a separate, loss-independent switch
/// ([`NetworkModel::set_partitioned`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFault {
    /// Additional drop probability per transmission attempt, added to the
    /// path's cross-traffic loss (clamped to 0.95 total so TCP
    /// retransmission cannot loop forever).
    pub extra_loss: f64,
    /// Additional one-way latency.
    pub extra_delay: SimDuration,
}

/// Injected faults, applied symmetrically per participant pair.
#[derive(Debug, Default)]
struct Faults {
    /// Fully partitioned pairs: every message is dropped (and accounted
    /// as lost bytes on the sender's uplink).
    partitioned: std::collections::HashSet<(NodeId, NodeId)>,
    /// Degraded pairs: extra loss/delay on top of the topology path.
    degraded: std::collections::HashMap<(NodeId, NodeId), LinkFault>,
}

/// The complete network model used by the live runtime.
#[derive(Debug)]
pub struct NetworkModel {
    topo: Topology,
    links: LinkModel,
    rng: StdRng,
    /// Per ordered pair: earliest time the next in-order delivery may
    /// happen (TCP FIFO guarantee).
    fifo_horizon: std::collections::HashMap<(NodeId, NodeId), SimTime>,
    /// Retransmission penalty applied per lost transmission attempt (TCP).
    rto: SimDuration,
    faults: Faults,
}

impl NetworkModel {
    /// Builds a network model over `topo` with the given seed.
    pub fn new(topo: Topology, seed: u64) -> Self {
        NetworkModel {
            links: LinkModel::new(topo.participants().to_vec(), topo.config().clone()),
            topo,
            rng: StdRng::seed_from_u64(seed ^ 0x6e65_745f_6d6f_6465),
            fifo_horizon: std::collections::HashMap::new(),
            rto: SimDuration::from_millis(200),
            faults: Faults::default(),
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Link/bandwidth statistics (bytes through each access link).
    pub fn stats(&self) -> &LinkStats {
        self.links.stats()
    }

    /// Cuts (or restores) the pair `a`↔`b`. While partitioned, every
    /// message handed to [`NetworkModel::schedule`] for the pair is
    /// dropped and its bytes are recorded in [`LinkStats::lost`] — the
    /// sender transmitted, the network swallowed it.
    ///
    /// The check runs before any randomness is consumed, so installing
    /// and healing partitions never perturbs the PRNG stream of the
    /// unaffected traffic (a determinism requirement of the fleet
    /// harness's fault engine).
    pub fn set_partitioned(&mut self, a: NodeId, b: NodeId, partitioned: bool) {
        if partitioned {
            self.faults.partitioned.insert((a, b));
            self.faults.partitioned.insert((b, a));
        } else {
            self.faults.partitioned.remove(&(a, b));
            self.faults.partitioned.remove(&(b, a));
        }
    }

    /// Whether the pair is currently partitioned.
    pub fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        self.faults.partitioned.contains(&(a, b))
    }

    /// Installs (`Some`) or clears (`None`) a symmetric degradation of
    /// the pair's path: `extra_loss` joins the cross-traffic drop
    /// probability, `extra_delay` joins the one-way latency.
    pub fn set_link_fault(&mut self, a: NodeId, b: NodeId, fault: Option<LinkFault>) {
        match fault {
            Some(f) => {
                self.faults.degraded.insert((a, b), f);
                self.faults.degraded.insert((b, a), f);
            }
            None => {
                self.faults.degraded.remove(&(a, b));
                self.faults.degraded.remove(&(b, a));
            }
        }
    }

    /// The degradation currently installed on the pair, if any.
    pub fn link_fault(&self, a: NodeId, b: NodeId) -> Option<LinkFault> {
        self.faults.degraded.get(&(a, b)).copied()
    }

    /// Schedules a message of `bytes` from `src` to `dst` handed to the
    /// network at `now`. Returns its arrival time, or `None` if the message
    /// is lost (UDP only).
    pub fn schedule(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
        transport: Transport,
    ) -> Option<SimTime> {
        // Loopback messages skip the network entirely.
        if src == dst {
            return Some(now + SimDuration::from_micros(10));
        }
        // Partition check first, before any randomness: a dropped message
        // must not perturb the PRNG stream of surviving traffic.
        if self.faults.partitioned.contains(&(src, dst)) {
            self.links.record_lost(src, bytes);
            return None;
        }
        let path = self.topo.path(src, dst);
        let fault = self.faults.degraded.get(&(src, dst)).copied();
        let loss = match fault {
            Some(f) => (path.loss + f.extra_loss).clamp(0.0, 0.95),
            None => path.loss,
        };
        let mut latency = match fault {
            Some(f) => path.delay + f.extra_delay,
            None => path.delay,
        };
        match transport {
            Transport::Tcp => {
                // Cross-traffic loss causes retransmissions: each lost
                // attempt adds an RTO worth of delay.
                let mut attempts = 0;
                while self.rng.gen::<f64>() < loss && attempts < 8 {
                    latency = latency + self.rto;
                    attempts += 1;
                }
            }
            Transport::Udp => {
                if self.rng.gen::<f64>() < loss {
                    self.links.record_lost(src, bytes);
                    return None;
                }
            }
        }
        // Serialize through src's uplink and dst's downlink.
        let sent_at = self.links.egress(now, src, bytes);
        let arrival = self.links.ingress(sent_at + latency, dst, bytes);
        match transport {
            Transport::Tcp => {
                // Per-connection FIFO: never deliver before an earlier
                // message of the same ordered pair.
                let horizon = self.fifo_horizon.entry((src, dst)).or_insert(SimTime::ZERO);
                let t = arrival.max(*horizon + SimDuration::from_micros(1));
                *horizon = t;
                Some(t)
            }
            Transport::Udp => Some(arrival),
        }
    }

    /// Samples a uniformly random extra delay (used by scenario scripts for
    /// jitter); deterministic per seed.
    pub fn jitter(&mut self, max: SimDuration) -> SimDuration {
        SimDuration::from_micros(self.rng.gen_range(0..=max.as_micros()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_net(seed: u64) -> NetworkModel {
        let cfg = TopologyConfig {
            core_nodes: 60,
            participants: 8,
            ..TopologyConfig::default()
        };
        NetworkModel::new(Topology::generate(cfg, seed), seed)
    }

    #[test]
    fn tcp_preserves_per_connection_fifo_order() {
        let mut net = small_net(7);
        let (a, b) = (NodeId(0), NodeId(1));
        let mut last = SimTime::ZERO;
        for i in 0..50 {
            let t = net
                .schedule(SimTime(i * 10), a, b, 200, Transport::Tcp)
                .expect("tcp never loses");
            assert!(t > last, "FIFO violated at message {i}: {t} <= {last}");
            last = t;
        }
    }

    #[test]
    fn tcp_never_loses_udp_sometimes_does() {
        // Seed chosen so n2 and n3 attach to different stubs (a same-stub
        // pair has a lossless two-hop path and nothing to measure).
        let mut net = small_net(43);
        let (a, b) = (NodeId(2), NodeId(3));
        let mut udp_lost = 0;
        for i in 0..4000 {
            assert!(net
                .schedule(SimTime(i), a, b, 100, Transport::Tcp)
                .is_some());
            if net
                .schedule(SimTime(i), a, b, 100, Transport::Udp)
                .is_none()
            {
                udp_lost += 1;
            }
        }
        assert!(
            udp_lost > 0,
            "with per-link loss in [0.001,0.005], 4000 datagrams lose some"
        );
        assert!(
            udp_lost < 400,
            "but not an implausible fraction ({udp_lost})"
        );
    }

    #[test]
    fn loopback_is_fast() {
        let mut net = small_net(1);
        let t = net
            .schedule(SimTime::ZERO, NodeId(4), NodeId(4), 100, Transport::Tcp)
            .unwrap();
        assert!(t.0 < 1_000, "loopback under 1ms");
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut net = small_net(seed);
            (0..100)
                .map(|i| {
                    net.schedule(SimTime(i * 7), NodeId(0), NodeId(5), 500, Transport::Tcp)
                        .unwrap()
                        .0
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seeds diverge");
    }

    #[test]
    fn big_messages_serialize_slower() {
        let mut net = small_net(3);
        let t_small = net
            .schedule(SimTime::ZERO, NodeId(6), NodeId(7), 100, Transport::Tcp)
            .unwrap();
        let mut net = small_net(3);
        let t_big = net
            .schedule(SimTime::ZERO, NodeId(6), NodeId(7), 100_000, Transport::Tcp)
            .unwrap();
        assert!(
            t_big > t_small,
            "100 kB through a 1 Mbps uplink must arrive later ({t_big} vs {t_small})"
        );
        // 100kB at 1 Mbps ≈ 0.8s of serialization alone.
        assert!((t_big - t_small).as_secs_f64() > 0.5);
    }

    #[test]
    fn partition_drops_and_accounts_lost_bytes() {
        let mut net = small_net(11);
        let (a, b) = (NodeId(0), NodeId(1));
        net.set_partitioned(a, b, true);
        assert!(net.is_partitioned(a, b) && net.is_partitioned(b, a));
        for i in 0..10 {
            assert!(net
                .schedule(SimTime(i), a, b, 100, Transport::Tcp)
                .is_none());
            assert!(net.schedule(SimTime(i), b, a, 50, Transport::Udp).is_none());
        }
        assert_eq!(net.stats().lost_by(a), 1000);
        assert_eq!(net.stats().lost_by(b), 500);
        assert_eq!(net.stats().total_lost(), 1500);
        net.set_partitioned(a, b, false);
        assert!(!net.is_partitioned(a, b));
        assert!(net
            .schedule(SimTime(99), a, b, 100, Transport::Tcp)
            .is_some());
    }

    #[test]
    fn partition_does_not_perturb_other_traffic() {
        // The same message sequence on an untouched pair must arrive at
        // identical times whether or not a partition elsewhere swallowed
        // traffic in between (PRNG stream preservation).
        let run = |partition: bool| {
            let mut net = small_net(23);
            let mut arrivals = Vec::new();
            if partition {
                net.set_partitioned(NodeId(4), NodeId(5), true);
            }
            for i in 0..50u64 {
                if partition {
                    // Swallowed: must not consume randomness.
                    net.schedule(SimTime(i * 3), NodeId(4), NodeId(5), 300, Transport::Tcp);
                }
                arrivals.push(net.schedule(
                    SimTime(i * 7),
                    NodeId(0),
                    NodeId(1),
                    200,
                    Transport::Tcp,
                ));
            }
            arrivals
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn link_fault_adds_delay_and_loss() {
        let (a, b) = (NodeId(2), NodeId(6));
        // Delay: with zero extra loss, the arrival shifts by exactly the
        // extra one-way delay (same PRNG draws either way).
        let base = small_net(31)
            .schedule(SimTime::ZERO, a, b, 100, Transport::Tcp)
            .unwrap();
        let mut net = small_net(31);
        net.set_link_fault(
            a,
            b,
            Some(LinkFault {
                extra_loss: 0.0,
                extra_delay: SimDuration::from_millis(250),
            }),
        );
        assert_eq!(
            net.link_fault(a, b).unwrap().extra_delay,
            SimDuration::from_millis(250)
        );
        let degraded = net
            .schedule(SimTime::ZERO, a, b, 100, Transport::Tcp)
            .unwrap();
        assert_eq!(degraded, base + SimDuration::from_millis(250));
        // Loss: a heavy extra drop probability loses most UDP datagrams.
        let mut net = small_net(31);
        net.set_link_fault(
            a,
            b,
            Some(LinkFault {
                extra_loss: 0.9,
                extra_delay: SimDuration::ZERO,
            }),
        );
        let lost = (0..500)
            .filter(|i| {
                net.schedule(SimTime(*i), a, b, 100, Transport::Udp)
                    .is_none()
            })
            .count();
        assert!(
            lost > 350,
            "90% extra loss drops most datagrams ({lost}/500)"
        );
        net.set_link_fault(a, b, None);
        assert!(net.link_fault(a, b).is_none());
        let lost = (0..500)
            .filter(|i| {
                net.schedule(SimTime(*i), a, b, 100, Transport::Udp)
                    .is_none()
            })
            .count();
        assert!(
            lost < 100,
            "healed link back to cross-traffic loss ({lost}/500)"
        );
    }

    #[test]
    fn jitter_bounded_and_deterministic() {
        let mut a = small_net(5);
        let mut b = small_net(5);
        for _ in 0..100 {
            let ja = a.jitter(SimDuration::from_secs(60));
            assert!(ja <= SimDuration::from_secs(60));
            assert_eq!(ja, b.jitter(SimDuration::from_secs(60)));
        }
    }
}
