//! The transition relation `(L, I) ~> (L', I')` of Fig. 4, reified as
//! explicit [`Event`] values.
//!
//! Both consumers of the model drive it through this module:
//!
//! * the **model checker** ([`enumerate_events`] + [`apply_event`]) explores
//!   every enabled transition from a state,
//! * the **live runtime** applies the single transition chosen by the
//!   simulated network / timer wheel.
//!
//! Beyond Fig. 4's two rules (message handler execution and internal node
//! action), the event set covers the environment actions the paper's bug
//! scenarios require: node resets with and without RST notification
//! ("a silent reset of node n13 ... such reset can be caused by, for
//! example, a power failure", §1.2), spontaneous connection breaks
//! ("C receives a transport error from A", §5.2.2), and message loss.
//!
//! ## Connection semantics
//!
//! Messages carry the incarnation of the destination the sender's connection
//! was established to. Delivery to a node whose incarnation has moved on
//! *bounces*: the message is discarded and a transport-error notification is
//! queued back to the sender — the moment n9 "discovers that the stale
//! communication channel with n13 is closed" (§1.3). Error notifications
//! themselves are incarnation-checked, so an RST addressed to a previous
//! life of a node is silently dropped.
//!
//! The model keeps a single logical connection per ordered node pair; when a
//! node accepts traffic from a reborn peer the connection entry is refreshed
//! in place. (Real TCP would briefly hold two sockets; none of the paper's
//! scenarios distinguish the two behaviours.)

use std::fmt;

use crate::node::NodeId;
use crate::protocol::{Outbox, Protocol};
use crate::state::{GlobalState, InFlight, Payload, Queued};

/// One potential transition of the distributed system.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Event<P: Protocol> {
    /// Deliver the in-flight item at `index` (Fig. 4 message-handler rule).
    Deliver {
        /// Index into [`GlobalState::inflight`] at application time.
        index: usize,
    },
    /// The network loses the in-flight item at `index`.
    Drop {
        /// Index into [`GlobalState::inflight`] at application time.
        index: usize,
    },
    /// Node executes an enabled internal action (Fig. 4 internal rule):
    /// a timer firing or an application call.
    Action {
        /// The node acting.
        node: NodeId,
        /// The action, which must currently be enabled in the node's state.
        action: P::Action,
    },
    /// Node crashes and restarts with a fresh protocol state. With
    /// `notify`, RSTs are queued to every connected peer (they may still be
    /// lost in flight); without, the reset is silent.
    Reset {
        /// The node resetting.
        node: NodeId,
        /// Whether peers receive connection-error notifications.
        notify: bool,
    },
    /// The connection between `node` and `peer` breaks and `node` observes
    /// the failure now; a notification is queued so `peer` eventually
    /// observes it too.
    PeerError {
        /// The node observing the break first.
        node: NodeId,
        /// The other endpoint.
        peer: NodeId,
    },
}

/// Filter-relevant identity of an event (message type + source +
/// destination for messages; handler identity for the rest), matching the
/// event-filter granularity of §4.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum EventKey {
    /// Delivery of an application message.
    Message {
        /// `Protocol::message_kind` of the payload.
        kind: &'static str,
        /// Sender.
        src: NodeId,
        /// Recipient.
        dst: NodeId,
    },
    /// Delivery of a transport-error notification.
    ErrorNotice {
        /// The failed peer the notice is about.
        src: NodeId,
        /// The node that will observe the error.
        dst: NodeId,
    },
    /// An internal action (timer or application call).
    Action {
        /// `Protocol::action_kind` of the action.
        kind: &'static str,
        /// The acting node.
        node: NodeId,
    },
    /// A node reset.
    Reset {
        /// The resetting node.
        node: NodeId,
    },
    /// A spontaneous connection break.
    PeerError {
        /// Observing node.
        node: NodeId,
        /// Failed peer.
        peer: NodeId,
    },
}

impl EventKey {
    /// The key of delivering `msg` from `src` to `dst`, where `None` is a
    /// transport-error notice: the one delivery key the checker, the
    /// simulator and the live runtime all filter on.
    pub fn delivery<P: Protocol>(src: NodeId, dst: NodeId, msg: Option<&P::Message>) -> Self {
        match msg {
            Some(m) => EventKey::Message {
                kind: P::message_kind(m),
                src,
                dst,
            },
            None => EventKey::ErrorNotice { src, dst },
        }
    }
}

impl fmt::Display for EventKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKey::Message { kind, src, dst } => write!(f, "{kind} {src}→{dst}"),
            EventKey::ErrorNotice { src, dst } => write!(f, "err({src})→{dst}"),
            EventKey::Action { kind, node } => write!(f, "{kind}@{node}"),
            EventKey::Reset { node } => write!(f, "reset@{node}"),
            EventKey::PeerError { node, peer } => write!(f, "break {node}~{peer}"),
        }
    }
}

impl<P: Protocol> Event<P> {
    /// For consequence prediction's `localExplored` pruning (Fig. 8): events
    /// that are *local node actions* return the acting node; message
    /// deliveries return `None` and are always explored.
    pub fn local_node(&self) -> Option<NodeId> {
        match self {
            Event::Action { node, .. }
            | Event::Reset { node, .. }
            | Event::PeerError { node, .. } => Some(*node),
            Event::Deliver { .. } | Event::Drop { .. } => None,
        }
    }

    /// Resolves the event's filter key against the state it will be applied
    /// to. Returns `None` for an out-of-range index (stale event).
    pub fn key(&self, gs: &GlobalState<P>) -> Option<EventKey> {
        Some(match self {
            Event::Deliver { index } | Event::Drop { index } => {
                let item = gs.inflight.get(*index)?;
                EventKey::delivery::<P>(item.src, item.dst, item.payload.msg())
            }
            Event::Action { node, action } => EventKey::Action {
                kind: P::action_kind(action),
                node: *node,
            },
            Event::Reset { node, .. } => EventKey::Reset { node: *node },
            Event::PeerError { node, peer } => EventKey::PeerError {
                node: *node,
                peer: *peer,
            },
        })
    }
}

/// What actually happened when an event was applied (delivery may bounce,
/// error notices may be stale, etc.). Stored in checker traces so reports
/// read like the paper's scenario walk-throughs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceStep {
    /// A message reached its destination and the handler ran.
    Delivered {
        /// Message kind.
        kind: &'static str,
        /// Sender.
        src: NodeId,
        /// Recipient.
        dst: NodeId,
    },
    /// The destination had reset; the message bounced as a transport error
    /// to the sender.
    Bounced {
        /// Original sender (who will observe the error).
        src: NodeId,
        /// The reset destination.
        dst: NodeId,
    },
    /// A transport error notification was observed by its target.
    ErrorObserved {
        /// The node observing the error.
        node: NodeId,
        /// The peer the error is about.
        peer: NodeId,
    },
    /// A stale item (addressed to a previous incarnation) evaporated.
    Stale,
    /// The network lost a message.
    Lost {
        /// Sender of the lost message.
        src: NodeId,
        /// Intended recipient.
        dst: NodeId,
    },
    /// An internal action ran.
    ActionRun {
        /// Acting node.
        node: NodeId,
        /// Action kind.
        kind: &'static str,
    },
    /// A node reset completed.
    ResetDone {
        /// The reset node.
        node: NodeId,
        /// Whether RSTs were queued to peers.
        notify: bool,
    },
    /// A connection broke and the observing side's handler ran.
    ConnectionBroke {
        /// Observing node.
        node: NodeId,
        /// Failed peer.
        peer: NodeId,
    },
}

impl fmt::Display for TraceStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceStep::Delivered { kind, src, dst } => write!(f, "deliver {kind} {src}→{dst}"),
            TraceStep::Bounced { src, dst } => write!(f, "bounce (stale) →{dst}, RST to {src}"),
            TraceStep::ErrorObserved { node, peer } => write!(f, "{node} observes error on {peer}"),
            TraceStep::Stale => write!(f, "stale item dropped"),
            TraceStep::Lost { src, dst } => write!(f, "network loses {src}→{dst}"),
            TraceStep::ActionRun { node, kind } => write!(f, "{kind} fires at {node}"),
            TraceStep::ResetDone { node, notify } => {
                write!(
                    f,
                    "{node} resets ({})",
                    if *notify { "with RSTs" } else { "silent" }
                )
            }
            TraceStep::ConnectionBroke { node, peer } => {
                write!(f, "connection {node}~{peer} breaks")
            }
        }
    }
}

/// Which environment transitions the checker should explore on top of the
/// always-on message deliveries and internal actions.
#[derive(Clone, Copy, Debug)]
pub struct ExploreOptions {
    /// Explore node resets (silent and notifying).
    pub resets: bool,
    /// Explore spontaneous per-connection breaks.
    pub peer_errors: bool,
    /// Explore message loss.
    pub drops: bool,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        // Resets are the low-probability events behind most of the paper's
        // bugs; they are on by default. Drops and spontaneous breaks widen
        // the space and are opt-in.
        ExploreOptions {
            resets: true,
            peer_errors: false,
            drops: false,
        }
    }
}

impl ExploreOptions {
    /// Deliveries and internal actions only.
    pub fn minimal() -> Self {
        ExploreOptions {
            resets: false,
            peer_errors: false,
            drops: false,
        }
    }

    /// Everything on (widest search).
    pub fn full() -> Self {
        ExploreOptions {
            resets: true,
            peer_errors: true,
            drops: true,
        }
    }
}

/// Enumerates every event explorable from `gs` under `opts`, in the
/// canonical order (see [`enumerate_events_gated`]).
pub fn enumerate_events<P: Protocol>(
    config: &P,
    gs: &GlobalState<P>,
    opts: &ExploreOptions,
) -> Vec<Event<P>> {
    enumerate_events_gated(config, gs, opts, |_| true, |_| true)
}

/// The one definition of the canonical event order every search engine,
/// replay and exported schedule shares: in-flight items by index (delivery
/// before drop), then nodes in id order (actions in `enabled_actions`
/// order, then resets, then peer errors).
///
/// `allow_node` is the `localExplored` gate of Fig. 8: when it returns
/// false for a node, that node's *entire* per-node block (actions, resets,
/// peer errors) is skipped; it is asked once per node, in id order.
/// Message deliveries are never gated (Fig. 8 line 13). `keep` then sees
/// every surviving event in order and drops the ones it rejects — the
/// hook installed event filters use.
pub fn enumerate_events_gated<P: Protocol>(
    config: &P,
    gs: &GlobalState<P>,
    opts: &ExploreOptions,
    mut allow_node: impl FnMut(NodeId) -> bool,
    mut keep: impl FnMut(&Event<P>) -> bool,
) -> Vec<Event<P>> {
    let mut events = Vec::new();
    let mut push = |ev: Event<P>| {
        if keep(&ev) {
            events.push(ev);
        }
    };
    for index in 0..gs.inflight.len() {
        push(Event::Deliver { index });
        if opts.drops {
            push(Event::Drop { index });
        }
    }
    let mut acts = Vec::new();
    for (&node, slot) in &gs.nodes {
        if !allow_node(node) {
            continue;
        }
        acts.clear();
        config.enabled_actions(node, &slot.state, &mut acts);
        for action in acts.drain(..) {
            push(Event::Action { node, action });
        }
        if opts.resets {
            push(Event::Reset {
                node,
                notify: false,
            });
            if !slot.conns.is_empty() {
                push(Event::Reset { node, notify: true });
            }
        }
        if opts.peer_errors {
            for &peer in slot.conns.keys() {
                push(Event::PeerError { node, peer });
            }
        }
    }
    events
}

/// Applies one event in place, returning what happened.
///
/// # Panics
///
/// Panics if a `Deliver`/`Drop` index is out of range — callers must only
/// apply events enumerated against (or tracked alongside) the same state.
pub fn apply_event<P: Protocol>(
    config: &P,
    gs: &mut GlobalState<P>,
    event: &Event<P>,
) -> TraceStep {
    match event {
        Event::Deliver { index } => {
            let item = take_inflight(gs, *index);
            deliver(config, gs, item)
        }
        Event::Drop { index } => {
            let item = take_inflight(gs, *index);
            TraceStep::Lost {
                src: item.src,
                dst: item.dst,
            }
        }
        Event::Action { node, action } => {
            let mut out = Outbox::new();
            if let Some(slot) = gs.slot_mut(*node) {
                config.on_action(*node, &mut slot.state, action, &mut out);
            }
            gs.apply_outbox(*node, out);
            TraceStep::ActionRun {
                node: *node,
                kind: P::action_kind(action),
            }
        }
        Event::Reset { node, notify } => {
            let mut rsts = Vec::new();
            if let Some(slot) = gs.slot_mut(*node) {
                let old_inc = slot.incarnation;
                let old_conns = std::mem::take(&mut slot.conns);
                slot.incarnation += 1;
                slot.state = config.init(*node);
                if *notify {
                    for (peer, peer_inc) in old_conns {
                        rsts.push(InFlight {
                            src: *node,
                            dst: peer,
                            src_inc: old_inc,
                            dst_inc: peer_inc,
                            payload: Payload::Error,
                        });
                    }
                }
            }
            for rst in rsts {
                route(gs, rst);
            }
            TraceStep::ResetDone {
                node: *node,
                notify: *notify,
            }
        }
        Event::PeerError { node, peer } => {
            // A break of a connection that is not open writes nothing.
            let open = gs.slot(*node).and_then(|slot| {
                let peer_inc = *slot.conns.get(peer)?;
                Some((slot.incarnation, peer_inc))
            });
            if let Some((node_inc, peer_inc)) = open {
                let slot = gs.slot_mut(*node).expect("slot was just read");
                slot.conns.remove(peer);
                let mut out = Outbox::new();
                config.on_error(*node, &mut slot.state, *peer, &mut out);
                gs.apply_outbox(*node, out);
                // The other endpoint eventually observes the break too.
                route(
                    gs,
                    InFlight {
                        src: *node,
                        dst: *peer,
                        src_inc: node_inc,
                        dst_inc: peer_inc,
                        payload: Payload::Error,
                    },
                );
            }
            TraceStep::ConnectionBroke {
                node: *node,
                peer: *peer,
            }
        }
    }
}

fn take_inflight<P: Protocol>(gs: &mut GlobalState<P>, index: usize) -> Queued<P::Message> {
    assert!(
        index < gs.inflight.len(),
        "event index {index} out of range ({} in flight)",
        gs.inflight.len()
    );
    gs.inflight.swap_remove(index)
}

fn route<P: Protocol>(gs: &mut GlobalState<P>, item: InFlight<P::Message>) {
    gs.route_item(item);
}

fn deliver<P: Protocol>(
    config: &P,
    gs: &mut GlobalState<P>,
    item: Queued<P::Message>,
) -> TraceStep {
    // Read first: the slot is written (unshared from the states it is
    // shared with) only on the paths where a handler runs.
    let Some(slot) = gs.slot(item.dst) else {
        // Destination vanished between enqueue and delivery (possible in
        // partial snapshots): park on the dummy node.
        gs.parked.push(item.into_item());
        return TraceStep::Stale;
    };
    // The item is read where it is: the states it is still in flight in
    // share it, so taking it apart would copy the message.
    match &item.payload {
        Payload::Msg(msg) => {
            if item.dst_inc != slot.incarnation {
                // Connection predates the destination's reset: TCP RST back
                // to the sender. The RST describes the *stale* connection,
                // so it is stamped with the incarnation the sender had
                // connected to, not the destination's new one.
                let rst = InFlight {
                    src: item.dst,
                    dst: item.src,
                    src_inc: item.dst_inc,
                    dst_inc: item.src_inc,
                    payload: Payload::Error,
                };
                let (src, dst) = (item.src, item.dst);
                route(gs, rst);
                return TraceStep::Bounced { src, dst };
            }
            let slot = gs.slot_mut(item.dst).expect("slot was just read");
            // Accept side: refresh/establish the connection back to the
            // sender's current incarnation.
            slot.conns.insert(item.src, item.src_inc);
            let mut out = Outbox::new();
            config.on_message(item.dst, &mut slot.state, item.src, msg, &mut out);
            let kind = P::message_kind(msg);
            gs.apply_outbox(item.dst, out);
            TraceStep::Delivered {
                kind,
                src: item.src,
                dst: item.dst,
            }
        }
        Payload::Error => {
            if item.dst_inc != slot.incarnation {
                return TraceStep::Stale;
            }
            // Only tear down the connection the error is actually about.
            if slot
                .conns
                .get(&item.src)
                .is_some_and(|&inc| inc != item.src_inc)
            {
                return TraceStep::Stale;
            }
            let slot = gs.slot_mut(item.dst).expect("slot was just read");
            slot.conns.remove(&item.src);
            let mut out = Outbox::new();
            config.on_error(item.dst, &mut slot.state, item.src, &mut out);
            gs.apply_outbox(item.dst, out);
            TraceStep::ErrorObserved {
                node: item.dst,
                peer: item.src,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testproto::{Ping, PingAction, PingMsg};

    fn setup() -> (Ping, GlobalState<Ping>) {
        let cfg = Ping {
            kick_target: NodeId(0),
            kick_enabled: true,
        };
        let gs = GlobalState::init(&cfg, [NodeId(0), NodeId(1), NodeId(2)]);
        (cfg, gs)
    }

    fn send_ping(gs: &mut GlobalState<Ping>, src: NodeId, dst: NodeId) {
        let mut out = Outbox::new();
        out.send(dst, PingMsg::Ping);
        gs.apply_outbox(src, out);
    }

    #[test]
    fn deliver_runs_handler_and_emits_reply() {
        let (cfg, mut gs) = setup();
        send_ping(&mut gs, NodeId(1), NodeId(0));
        let step = apply_event(&cfg, &mut gs, &Event::Deliver { index: 0 });
        assert_eq!(
            step,
            TraceStep::Delivered {
                kind: "Ping",
                src: NodeId(1),
                dst: NodeId(0)
            }
        );
        assert_eq!(gs.slot(NodeId(0)).unwrap().state.pings_seen, 1);
        // Reply is now in flight.
        assert_eq!(gs.inflight.len(), 1);
        assert_eq!(gs.inflight[0].dst, NodeId(1));
        // Accept side established the reverse connection.
        assert!(gs.slot(NodeId(0)).unwrap().conns.contains_key(&NodeId(1)));
    }

    #[test]
    fn delivery_to_reset_node_bounces_as_error() {
        let (cfg, mut gs) = setup();
        send_ping(&mut gs, NodeId(1), NodeId(0));
        // Destination resets before delivery.
        apply_event(
            &cfg,
            &mut gs,
            &Event::Reset {
                node: NodeId(0),
                notify: false,
            },
        );
        let step = apply_event(&cfg, &mut gs, &Event::Deliver { index: 0 });
        assert_eq!(
            step,
            TraceStep::Bounced {
                src: NodeId(1),
                dst: NodeId(0)
            }
        );
        // Handler did NOT run on the new incarnation.
        assert_eq!(gs.slot(NodeId(0)).unwrap().state.pings_seen, 0);
        // The sender gets the RST and observes the failure.
        let step = apply_event(&cfg, &mut gs, &Event::Deliver { index: 0 });
        assert_eq!(
            step,
            TraceStep::ErrorObserved {
                node: NodeId(1),
                peer: NodeId(0)
            }
        );
        assert_eq!(gs.slot(NodeId(1)).unwrap().state.errors_seen, 1);
        // And its stale connection entry is gone.
        assert!(!gs.slot(NodeId(1)).unwrap().conns.contains_key(&NodeId(0)));
    }

    #[test]
    fn silent_reset_sends_no_rsts() {
        let (cfg, mut gs) = setup();
        send_ping(&mut gs, NodeId(1), NodeId(0));
        apply_event(&cfg, &mut gs, &Event::Deliver { index: 0 }); // ping + pong queued
        apply_event(&cfg, &mut gs, &Event::Deliver { index: 0 }); // pong delivered
        assert!(gs.inflight.is_empty());
        apply_event(
            &cfg,
            &mut gs,
            &Event::Reset {
                node: NodeId(1),
                notify: false,
            },
        );
        assert!(gs.inflight.is_empty(), "silent reset queues nothing");
        assert_eq!(gs.slot(NodeId(1)).unwrap().incarnation, 1);
        assert_eq!(
            gs.slot(NodeId(1)).unwrap().state.pongs_seen,
            0,
            "state wiped"
        );
    }

    #[test]
    fn notifying_reset_queues_rsts_to_connected_peers() {
        let (cfg, mut gs) = setup();
        send_ping(&mut gs, NodeId(1), NodeId(0));
        apply_event(&cfg, &mut gs, &Event::Deliver { index: 0 });
        apply_event(&cfg, &mut gs, &Event::Deliver { index: 0 });
        apply_event(
            &cfg,
            &mut gs,
            &Event::Reset {
                node: NodeId(1),
                notify: true,
            },
        );
        assert_eq!(gs.inflight.len(), 1);
        assert!(gs.inflight[0].payload.is_error());
        let step = apply_event(&cfg, &mut gs, &Event::Deliver { index: 0 });
        assert_eq!(
            step,
            TraceStep::ErrorObserved {
                node: NodeId(0),
                peer: NodeId(1)
            }
        );
        assert_eq!(gs.slot(NodeId(0)).unwrap().state.errors_seen, 1);
    }

    #[test]
    fn rst_to_reset_sender_is_stale() {
        let (cfg, mut gs) = setup();
        send_ping(&mut gs, NodeId(1), NodeId(0));
        apply_event(
            &cfg,
            &mut gs,
            &Event::Reset {
                node: NodeId(0),
                notify: false,
            },
        );
        apply_event(&cfg, &mut gs, &Event::Deliver { index: 0 }); // bounce queued to n1
                                                                  // n1 itself resets before the RST arrives.
        apply_event(
            &cfg,
            &mut gs,
            &Event::Reset {
                node: NodeId(1),
                notify: false,
            },
        );
        let step = apply_event(&cfg, &mut gs, &Event::Deliver { index: 0 });
        assert_eq!(step, TraceStep::Stale);
        assert_eq!(gs.slot(NodeId(1)).unwrap().state.errors_seen, 0);
    }

    #[test]
    fn peer_error_breaks_both_sides_eventually() {
        let (cfg, mut gs) = setup();
        send_ping(&mut gs, NodeId(1), NodeId(0));
        apply_event(&cfg, &mut gs, &Event::Deliver { index: 0 });
        apply_event(&cfg, &mut gs, &Event::Deliver { index: 0 });
        let step = apply_event(
            &cfg,
            &mut gs,
            &Event::PeerError {
                node: NodeId(1),
                peer: NodeId(0),
            },
        );
        assert_eq!(
            step,
            TraceStep::ConnectionBroke {
                node: NodeId(1),
                peer: NodeId(0)
            }
        );
        assert_eq!(gs.slot(NodeId(1)).unwrap().state.errors_seen, 1);
        assert!(!gs.slot(NodeId(1)).unwrap().conns.contains_key(&NodeId(0)));
        // Notification to the other endpoint is in flight.
        assert_eq!(gs.inflight.len(), 1);
        apply_event(&cfg, &mut gs, &Event::Deliver { index: 0 });
        assert_eq!(gs.slot(NodeId(0)).unwrap().state.errors_seen, 1);
        assert!(!gs.slot(NodeId(0)).unwrap().conns.contains_key(&NodeId(1)));
    }

    #[test]
    fn peer_error_without_connection_is_a_noop() {
        let (cfg, mut gs) = setup();
        let before = gs.state_hash();
        apply_event(
            &cfg,
            &mut gs,
            &Event::PeerError {
                node: NodeId(1),
                peer: NodeId(2),
            },
        );
        assert_eq!(gs.state_hash(), before);
        assert_eq!(gs.slot(NodeId(1)).unwrap().state.errors_seen, 0);
    }

    #[test]
    fn drop_loses_message_without_side_effects() {
        let (cfg, mut gs) = setup();
        send_ping(&mut gs, NodeId(1), NodeId(0));
        let step = apply_event(&cfg, &mut gs, &Event::Drop { index: 0 });
        assert_eq!(
            step,
            TraceStep::Lost {
                src: NodeId(1),
                dst: NodeId(0)
            }
        );
        assert!(gs.inflight.is_empty());
        assert_eq!(gs.slot(NodeId(0)).unwrap().state.pings_seen, 0);
    }

    #[test]
    fn action_event_runs_handler() {
        let (cfg, mut gs) = setup();
        let step = apply_event(
            &cfg,
            &mut gs,
            &Event::Action {
                node: NodeId(2),
                action: PingAction::Kick,
            },
        );
        assert_eq!(
            step,
            TraceStep::ActionRun {
                node: NodeId(2),
                kind: "Kick"
            }
        );
        assert_eq!(gs.inflight.len(), 1);
        assert_eq!(gs.inflight[0].dst, NodeId(0));
    }

    #[test]
    fn enumerate_respects_options() {
        let (cfg, mut gs) = setup();
        send_ping(&mut gs, NodeId(1), NodeId(0));

        let minimal = enumerate_events(&cfg, &gs, &ExploreOptions::minimal());
        // 1 delivery + 2 Kick actions (nodes 1 and 2; node 0 is the target).
        assert_eq!(minimal.len(), 3);
        assert!(minimal.iter().all(|e| !matches!(e, Event::Reset { .. })));

        let with_resets = enumerate_events(&cfg, &gs, &ExploreOptions::default());
        // + 3 silent resets + 1 notify reset (only n1 has a connection).
        assert_eq!(with_resets.len(), 3 + 3 + 1);

        let full = enumerate_events(&cfg, &gs, &ExploreOptions::full());
        // + 1 drop + 1 peer error (n1's connection to n0).
        assert_eq!(full.len(), 7 + 1 + 1);
    }

    #[test]
    fn enumerated_actions_are_enabled_ones() {
        let cfg = Ping {
            kick_target: NodeId(0),
            kick_enabled: false,
        };
        let gs = GlobalState::init(&cfg, [NodeId(0), NodeId(1)]);
        let evs = enumerate_events(&cfg, &gs, &ExploreOptions::minimal());
        assert!(evs.is_empty(), "nothing enabled, nothing in flight");
    }

    #[test]
    fn event_keys_resolve() {
        let (cfg, mut gs) = setup();
        send_ping(&mut gs, NodeId(1), NodeId(0));
        let ev: Event<Ping> = Event::Deliver { index: 0 };
        assert_eq!(
            ev.key(&gs),
            Some(EventKey::Message {
                kind: "Ping",
                src: NodeId(1),
                dst: NodeId(0)
            })
        );
        let ev: Event<Ping> = Event::Deliver { index: 9 };
        assert_eq!(ev.key(&gs), None, "stale index");
        let ev = Event::Action {
            node: NodeId(2),
            action: PingAction::Kick,
        };
        assert_eq!(
            ev.key(&gs),
            Some(EventKey::Action {
                kind: "Kick",
                node: NodeId(2)
            })
        );
        let ev: Event<Ping> = Event::Reset {
            node: NodeId(1),
            notify: true,
        };
        assert_eq!(ev.key(&gs), Some(EventKey::Reset { node: NodeId(1) }));
        assert_eq!(ev.local_node(), Some(NodeId(1)));
        assert_eq!(Event::<Ping>::Deliver { index: 0 }.local_node(), None);
        let _ = apply_event(&cfg, &mut gs, &Event::Deliver { index: 0 });
    }

    #[test]
    fn trace_steps_render() {
        assert_eq!(
            TraceStep::Delivered {
                kind: "Join",
                src: NodeId(13),
                dst: NodeId(1)
            }
            .to_string(),
            "deliver Join n13→n1"
        );
        assert!(TraceStep::ResetDone {
            node: NodeId(13),
            notify: false
        }
        .to_string()
        .contains("silent"));
        assert!(TraceStep::Stale.to_string().contains("stale"));
    }
}
