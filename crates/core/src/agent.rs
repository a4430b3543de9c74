//! The node side of Fig. 7, once for the simulator, `cb-fleet` and
//! `cb-live`: a [`NodeAgent`] is what one CrystalBall node keeps between
//! checking rounds. It does no IO and reads no clock; the `Controller`
//! holds one per node, a live node holds its own.

use std::marker::PhantomData;

use cb_mc::{EventFilter, FilterSet};
use cb_model::{
    apply_event, Decode, Event, EventKey, GlobalState, NodeId, NodeSlot, PropertySet, Protocol,
};
use cb_runtime::Decision;
use cb_snapshot::Snapshot;

/// One node's installed filters and snapshot intake.
#[derive(Clone, Debug)]
pub struct NodeAgent<P: Protocol> {
    me: NodeId,
    filters: FilterSet,
    /// Hash of the last snapshot let through [`NodeAgent::intake`].
    last_snapshot: Option<u64>,
    protocol: PhantomData<fn() -> P>,
}

impl<P: Protocol> NodeAgent<P> {
    /// An agent for node `me`, with no filters installed.
    pub fn new(me: NodeId) -> Self {
        NodeAgent {
            me,
            filters: FilterSet::new(),
            last_snapshot: None,
            protocol: PhantomData,
        }
    }

    /// The filters in force, in installation order.
    pub fn filters(&self) -> &FilterSet {
        &self.filters
    }

    /// The filter check, run before a handler: the first installed filter
    /// matching `key` decides (§3.3/§4).
    pub fn check(&self, key: &EventKey) -> Decision {
        match self.filters.matching(key) {
            None => Decision::Allow,
            Some(f) if f.resets_connection() => Decision::BlockAndReset,
            Some(_) => Decision::Block,
        }
    }

    /// A checking round has landed: its filters *replace* the installed
    /// set ("CrystalBall removes the filters from the runtime after every
    /// model checking run", §3.3). A filter the round carries twice (one
    /// per replayed path) installs once; one for another node is ignored.
    pub fn land(&mut self, filters: impl IntoIterator<Item = EventFilter>) {
        self.filters.clear();
        for f in filters.into_iter().filter(|f| f.install_at() == self.me) {
            self.filters.install(f);
        }
    }

    /// Snapshot intake: the decoded state to check, or `None` when nothing
    /// decoded or it is hash-identical to the last one let through (which
    /// would re-run the same search to the same conclusion).
    pub fn intake(&mut self, snapshot: &Snapshot) -> Option<GlobalState<P>> {
        let state = Self::decode(snapshot);
        let hash = Some(state.state_hash());
        if state.node_count() == 0 || self.last_snapshot == hash {
            return None;
        }
        self.last_snapshot = hash;
        Some(state)
    }

    /// Re-arms intake, for a caller that could not ship the last snapshot.
    pub fn forget(&mut self) {
        self.last_snapshot = None;
    }

    /// Decodes a gathered snapshot; members whose checkpoints fail to
    /// decode are dropped (they become the dummy node, §4).
    pub fn decode(snapshot: &Snapshot) -> GlobalState<P> {
        GlobalState::from_slots(snapshot.states.iter().filter_map(|(&n, bytes)| {
            NodeSlot::<P::State>::from_bytes(bytes)
                .ok()
                .map(|slot| (n, slot))
        }))
    }

    /// The immediate safety check (§3.3/§4): "speculatively runs the
    /// handler, checks the consistency properties in the resulting state,
    /// and prevents actual handler execution if the resulting state is
    /// inconsistent." The paper forks the process; the caller hands in a
    /// copy of the state the handler would run in. True means veto.
    pub(crate) fn isc_vetoes(
        protocol: &P,
        props: &PropertySet<P>,
        mut view: GlobalState<P>,
        event: &Event<P>,
    ) -> bool {
        apply_event(protocol, &mut view, event);
        props.check(&view).is_some()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use cb_model::testproto::Ping;
    use cb_model::Encode;

    use super::*;

    type Agent = NodeAgent<Ping>;

    fn join(src: u32, dst: u32, reset_connection: bool) -> EventFilter {
        EventFilter::Message {
            kind: "Join",
            src: NodeId(src),
            dst: NodeId(dst),
            reset_connection,
        }
    }

    fn join_key(src: u32, dst: u32) -> EventKey {
        EventKey::Message {
            kind: "Join",
            src: NodeId(src),
            dst: NodeId(dst),
        }
    }

    #[test]
    fn an_empty_round_expires_every_filter() {
        let mut agent = Agent::new(NodeId(1));
        agent.land([join(13, 1, true), join(9, 1, false)]);
        assert_eq!(agent.filters().len(), 2);
        agent.land([]);
        assert!(agent.filters().is_empty());
        assert_eq!(agent.check(&join_key(13, 1)), Decision::Allow);
    }

    #[test]
    fn a_filter_carried_twice_installs_once() {
        let mut agent = Agent::new(NodeId(1));
        agent.land([join(13, 1, true), join(13, 1, true)]);
        assert_eq!(agent.filters().len(), 1);
    }

    #[test]
    fn a_filter_for_another_node_is_ignored() {
        let mut agent = Agent::new(NodeId(1));
        agent.land([join(13, 9, true), join(13, 1, true)]);
        assert_eq!(
            agent.filters().iter().collect::<Vec<_>>(),
            [&join(13, 1, true)]
        );
        assert_eq!(agent.check(&join_key(13, 9)), Decision::Allow);
    }

    #[test]
    fn the_first_match_decides() {
        let mut agent = Agent::new(NodeId(1));
        agent.land([join(13, 1, false), join(13, 1, true)]);
        assert_eq!(agent.check(&join_key(13, 1)), Decision::Block);
        agent.land([join(13, 1, true), join(13, 1, false)]);
        assert_eq!(agent.check(&join_key(13, 1)), Decision::BlockAndReset);
        assert_eq!(agent.check(&join_key(12, 1)), Decision::Allow);
        agent.land([EventFilter::Handler {
            kind: "Kick",
            node: NodeId(1),
        }]);
        let kick = EventKey::Action {
            kind: "Kick",
            node: NodeId(1),
        };
        assert_eq!(agent.check(&kick), Decision::Block);
    }

    #[test]
    fn an_identical_snapshot_is_suppressed_until_forgotten() {
        let ping = Ping {
            kick_target: NodeId(0),
            kick_enabled: true,
        };
        let gs = GlobalState::init(&ping, [NodeId(0), NodeId(1)]);
        let snapshot = Snapshot {
            cr: 1,
            states: gs.nodes.iter().map(|(&n, s)| (n, s.to_bytes())).collect(),
            missing: Vec::new(),
        };
        let mut agent = Agent::new(NodeId(0));
        let decoded = agent.intake(&snapshot).expect("a fresh snapshot");
        assert_eq!(decoded.state_hash(), gs.state_hash());
        assert!(agent.intake(&snapshot).is_none(), "identical: suppressed");
        agent.forget();
        assert!(agent.intake(&snapshot).is_some(), "forget re-arms intake");
        let undecodable = Snapshot {
            cr: 2,
            states: BTreeMap::from([(NodeId(0), vec![0xff])]),
            missing: Vec::new(),
        };
        assert!(agent.intake(&undecodable).is_none(), "nothing decoded");
    }
}
