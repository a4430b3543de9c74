//! Bullet': high-bandwidth file distribution over a mesh (§5.2.3).
//!
//! "The Bullet' source sends the blocks of the file to a subset of nodes in
//! the system; other nodes discover and retrieve these blocks by explicitly
//! requesting them. Every node keeps a file map that describes blocks that
//! it currently has. ... Every sender keeps a 'shadow' file map for each
//! receiver telling it which are the blocks it has not told the receiver
//! about. ... Senders use the shadow file map to compute 'diffs' on-demand
//! for receivers. ... Senders and receivers communicate over non-blocking
//! TCP sockets ... This transport queues data on top of the TCP socket
//! buffer, and refuses new data when its buffer is full."
//!
//! **Substitution note:** in the original system the mesh is
//! discovered dynamically through RandTree + RanSub. Here the mesh is a
//! static sender→receiver DAG supplied by the configuration (see
//! [`Bullet::with_mesh`]); this preserves every mechanism the paper's bug
//! and Fig. 17 exercise — shadow maps, diff flow control, the
//! rarest-random request policy — without the control-tree machinery.
//! Transport back-pressure is modeled by a per-receiver window of unacked
//! diffs: a full window "refuses new data" exactly like MaceTcpTransport.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use cb_model::{
    Decode, DecodeError, Encode, NodeId, Outbox, PropertySet, Protocol, Reader, Schedule,
    SimDuration,
};

/// The paper's Bullet' bugs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BulletBugs {
    /// B1 — the original MACEDON bug: "The problem occurs when the diff
    /// cannot be accepted by the underlying transport. The code then clears
    /// the receiver's shadow file map, which means that the sender will
    /// never try again to inform the receiver about the blocks containing
    /// that diff."
    pub b1_clear_shadow_on_refusal: bool,
    /// B2 — the attempted UCSD fix: a retry was added, "\[u\]nfortunately,
    /// since the programmer left the code for clearing the shadow file map
    /// after a failed send, all subsequent diff computations will miss the
    /// affected blocks."
    pub b2_retry_still_clears: bool,
    /// B3 — the eager re-request on diff arrival checks only the file map,
    /// not the outstanding-request set, issuing duplicate requests for the
    /// same block.
    pub b3_duplicate_requests: bool,
}

impl BulletBugs {
    /// All bugs present.
    pub fn as_shipped() -> Self {
        BulletBugs {
            b1_clear_shadow_on_refusal: true,
            b2_retry_still_clears: true,
            b3_duplicate_requests: true,
        }
    }

    /// Corrected implementation.
    pub fn none() -> Self {
        BulletBugs {
            b1_clear_shadow_on_refusal: false,
            b2_retry_still_clears: false,
            b3_duplicate_requests: false,
        }
    }

    /// Only the named bug (`"B1"`..`"B3"`) enabled.
    pub fn only(name: &str) -> Self {
        let mut b = Self::none();
        match name {
            "B1" => b.b1_clear_shadow_on_refusal = true,
            "B2" => b.b2_retry_still_clears = true,
            "B3" => b.b3_duplicate_requests = true,
            other => panic!("unknown Bullet bug {other}"),
        }
        b
    }

    /// All bug names.
    pub const NAMES: [&'static str; 3] = ["B1", "B2", "B3"];
}

/// Bullet' configuration: the file, the mesh, flow-control windows and bug
/// flags.
#[derive(Clone, Debug)]
pub struct Bullet {
    /// The node that initially holds the whole file.
    pub source: NodeId,
    /// Number of blocks in the file.
    pub num_blocks: u32,
    /// Bytes per block (only affects wire sizing, not the model state).
    pub block_size: usize,
    /// Mesh: receiver → the senders it peers with.
    pub senders_of: BTreeMap<NodeId, Vec<NodeId>>,
    /// Max unacked diffs per receiver before the transport refuses data.
    pub diff_window: u32,
    /// Max blocks announced per diff.
    pub max_diff_blocks: usize,
    /// Max outstanding block requests per receiver.
    pub request_pipeline: usize,
    /// Diff-timer period.
    pub diff_period: SimDuration,
    /// Request-timer period.
    pub request_period: SimDuration,
    /// Which bugs are present.
    pub bugs: BulletBugs,
}

impl Bullet {
    /// Builds a deterministic sender→receiver mesh over `nodes` (first node
    /// is the source): node *i* draws `fanin` senders from the nodes before
    /// it, so every block can flow from the source to everyone.
    pub fn with_mesh(nodes: &[NodeId], fanin: usize, num_blocks: u32, bugs: BulletBugs) -> Self {
        assert!(!nodes.is_empty());
        let mut senders_of = BTreeMap::new();
        for (i, &n) in nodes.iter().enumerate().skip(1) {
            let mut senders = Vec::new();
            for j in 0..fanin.min(i) {
                // Deterministic spread over earlier nodes.
                let idx = (i * 31 + j * 17 + j) % i;
                let s = nodes[idx];
                if !senders.contains(&s) {
                    senders.push(s);
                }
            }
            if senders.is_empty() {
                senders.push(nodes[0]);
            }
            senders_of.insert(n, senders);
        }
        Bullet {
            source: nodes[0],
            num_blocks,
            block_size: 16 * 1024,
            senders_of,
            diff_window: 1,
            max_diff_blocks: 4,
            request_pipeline: 4,
            diff_period: SimDuration::from_millis(500),
            request_period: SimDuration::from_millis(250),
            bugs,
        }
    }

    /// The receivers a given node sends to (derived from the mesh).
    pub fn receivers_of(&self, node: NodeId) -> Vec<NodeId> {
        self.senders_of
            .iter()
            .filter(|(_, senders)| senders.contains(&node))
            .map(|(r, _)| *r)
            .collect()
    }
}

/// Local state of one Bullet' node.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BulletState {
    /// This node's address.
    pub me: NodeId,
    /// Blocks this node has ("file map").
    pub file_map: BTreeSet<u32>,
    /// Per-receiver shadow file map: blocks not yet told to that receiver.
    pub shadow: BTreeMap<NodeId, BTreeSet<u32>>,
    /// Per-receiver blocks already included in queued diffs.
    pub told: BTreeMap<NodeId, BTreeSet<u32>>,
    /// Per-receiver count of unacked diffs (transport queue depth).
    pub pending_diffs: BTreeMap<NodeId, u32>,
    /// Per-receiver retry flag (the B2 "fix").
    pub retry_scheduled: BTreeMap<NodeId, bool>,
    /// Per-sender view of the sender's file map, built from diffs.
    pub known: BTreeMap<NodeId, BTreeSet<u32>>,
    /// Blocks requested and not yet received, in request order. Duplicates
    /// are possible under B3 — that is the violation.
    pub outstanding: Vec<u32>,
}

impl BulletState {
    /// True once the whole file has been received.
    pub fn complete(&self, num_blocks: u32) -> bool {
        self.file_map.len() as u32 == num_blocks
    }

    /// Blocks known to exist somewhere but not yet held or requested.
    fn wanted(&self) -> BTreeSet<u32> {
        let mut w: BTreeSet<u32> = self.known.values().flatten().copied().collect();
        for b in &self.file_map {
            w.remove(b);
        }
        for b in &self.outstanding {
            w.remove(b);
        }
        w
    }

    /// The rarest-random request policy (§5.2.3 "the request logic uses a
    /// rarest-random policy"): pick the wanted block announced by the
    /// fewest senders; ties broken by block id (our deterministic stand-in
    /// for the random tie-break). Returns `(block, sender)`.
    fn pick_rarest(&self) -> Option<(u32, NodeId)> {
        let wanted = self.wanted();
        let mut best: Option<(usize, u32)> = None;
        for &b in &wanted {
            let rarity = self.known.values().filter(|m| m.contains(&b)).count();
            let cand = (rarity, b);
            if best.is_none_or(|cur| cand < cur) {
                best = Some(cand);
            }
        }
        let (_, block) = best?;
        let sender = self
            .known
            .iter()
            .find(|(_, m)| m.contains(&block))
            .map(|(s, _)| *s)?;
        Some((block, sender))
    }
}

impl Encode for BulletState {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.me.encode(buf);
        self.file_map.encode(buf);
        self.shadow.encode(buf);
        self.told.encode(buf);
        self.pending_diffs.encode(buf);
        self.retry_scheduled.encode(buf);
        self.known.encode(buf);
        self.outstanding.encode(buf);
    }
}

impl Decode for BulletState {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(BulletState {
            me: NodeId::decode(r)?,
            file_map: BTreeSet::decode(r)?,
            shadow: BTreeMap::decode(r)?,
            told: BTreeMap::decode(r)?,
            pending_diffs: BTreeMap::decode(r)?,
            retry_scheduled: BTreeMap::decode(r)?,
            known: BTreeMap::decode(r)?,
            outstanding: Vec::decode(r)?,
        })
    }
}

/// Bullet' wire messages.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Msg {
    /// Sender → receiver: newly available blocks.
    Diff {
        /// Announced block ids.
        blocks: Vec<u32>,
    },
    /// Receiver → sender: a diff was consumed (opens the transport window).
    DiffAck,
    /// Receiver → sender: please send this block.
    Request {
        /// Requested block id.
        block: u32,
    },
    /// Sender → receiver: block contents (sized via
    /// [`Protocol::wire_size`], contents abstracted away).
    Data {
        /// Delivered block id.
        block: u32,
    },
}

impl Encode for Msg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Msg::Diff { blocks } => {
                buf.push(0);
                blocks.encode(buf);
            }
            Msg::DiffAck => buf.push(1),
            Msg::Request { block } => {
                buf.push(2);
                block.encode(buf);
            }
            Msg::Data { block } => {
                buf.push(3);
                block.encode(buf);
            }
        }
    }
}

impl Decode for Msg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.byte()? {
            0 => Msg::Diff {
                blocks: Vec::decode(r)?,
            },
            1 => Msg::DiffAck,
            2 => Msg::Request {
                block: u32::decode(r)?,
            },
            3 => Msg::Data {
                block: u32::decode(r)?,
            },
            t => return Err(DecodeError::BadTag(t)),
        })
    }
}

/// Internal actions.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Action {
    /// The diff timer fires for one receiver.
    SendDiff {
        /// The receiver to update.
        peer: NodeId,
    },
    /// The request timer fires: request the rarest wanted block.
    RequestBlocks,
}

impl Protocol for Bullet {
    type State = BulletState;
    type Message = Msg;
    type Action = Action;

    fn name(&self) -> &'static str {
        "bullet"
    }

    fn init(&self, node: NodeId) -> BulletState {
        let mut st = BulletState {
            me: node,
            file_map: BTreeSet::new(),
            shadow: BTreeMap::new(),
            told: BTreeMap::new(),
            pending_diffs: BTreeMap::new(),
            retry_scheduled: BTreeMap::new(),
            known: BTreeMap::new(),
            outstanding: Vec::new(),
        };
        if node == self.source {
            st.file_map = (0..self.num_blocks).collect();
        }
        for r in self.receivers_of(node) {
            st.shadow.insert(r, st.file_map.clone());
            st.told.insert(r, BTreeSet::new());
            st.pending_diffs.insert(r, 0);
            st.retry_scheduled.insert(r, false);
        }
        st
    }

    fn on_message(
        &self,
        node: NodeId,
        state: &mut BulletState,
        from: NodeId,
        msg: &Msg,
        out: &mut Outbox<Msg>,
    ) {
        debug_assert_eq!(node, state.me);
        match msg {
            Msg::Diff { blocks } => {
                let view = state.known.entry(from).or_default();
                view.extend(blocks.iter().copied());
                out.send(from, Msg::DiffAck);
                // Eager request of announced blocks we miss. The buggy code
                // (B3) consults only the file map, so a re-announced block
                // (e.g. a sender retry) is requested a second time; the
                // corrected code also checks the outstanding set and the
                // pipeline budget.
                for &b in blocks {
                    if state.file_map.contains(&b) {
                        continue;
                    }
                    let already = state.outstanding.contains(&b);
                    let allowed = if self.bugs.b3_duplicate_requests {
                        true
                    } else {
                        !already && state.outstanding.len() < self.request_pipeline
                    };
                    if allowed {
                        state.outstanding.push(b);
                        out.send(from, Msg::Request { block: b });
                    }
                }
            }
            Msg::DiffAck => {
                if let Some(p) = state.pending_diffs.get_mut(&from) {
                    *p = p.saturating_sub(1);
                }
            }
            Msg::Request { block } => {
                if state.file_map.contains(block) {
                    out.send(from, Msg::Data { block: *block });
                    // A request proves the receiver knows of the block.
                    if let Some(told) = state.told.get_mut(&from) {
                        told.insert(*block);
                    }
                    if let Some(sh) = state.shadow.get_mut(&from) {
                        sh.remove(block);
                    }
                }
            }
            Msg::Data { block } => {
                state.outstanding.retain(|b| b != block);
                if state.file_map.insert(*block) {
                    // A new block enters the shadow map of every receiver
                    // we have not told yet.
                    for (r, sh) in state.shadow.iter_mut() {
                        if !state.told.get(r).is_some_and(|t| t.contains(block)) {
                            sh.insert(*block);
                        }
                    }
                }
            }
        }
    }

    fn on_error(
        &self,
        node: NodeId,
        state: &mut BulletState,
        peer: NodeId,
        _out: &mut Outbox<Msg>,
    ) {
        debug_assert_eq!(node, state.me);
        // Drop all per-peer sender state; a dead receiver no longer counts
        // for the coverage invariant.
        state.shadow.remove(&peer);
        state.told.remove(&peer);
        state.pending_diffs.remove(&peer);
        state.retry_scheduled.remove(&peer);
        state.known.remove(&peer);
    }

    fn enabled_actions(&self, _node: NodeId, state: &BulletState, acts: &mut Vec<Action>) {
        for (r, sh) in &state.shadow {
            let retry = state.retry_scheduled.get(r).copied().unwrap_or(false);
            if !sh.is_empty() || retry {
                acts.push(Action::SendDiff { peer: *r });
            }
        }
        if !state.outstanding.is_empty() || !state.wanted().is_empty() {
            acts.push(Action::RequestBlocks);
        }
    }

    fn on_action(
        &self,
        node: NodeId,
        state: &mut BulletState,
        action: &Action,
        out: &mut Outbox<Msg>,
    ) {
        debug_assert_eq!(node, state.me);
        match action {
            Action::SendDiff { peer } => self.send_diff(state, *peer, out),
            Action::RequestBlocks => {
                if state.outstanding.len() >= self.request_pipeline {
                    return;
                }
                if let Some((block, sender)) = state.pick_rarest() {
                    state.outstanding.push(block);
                    out.send(sender, Msg::Request { block });
                }
            }
        }
    }

    fn schedule(&self, action: &Action) -> Schedule {
        match action {
            Action::SendDiff { .. } => Schedule::Periodic(self.diff_period),
            Action::RequestBlocks => Schedule::Periodic(self.request_period),
        }
    }

    fn wire_size(&self, msg: &Msg) -> usize {
        match msg {
            // Data messages carry a whole block on the wire.
            Msg::Data { .. } => self.block_size + 8,
            other => other.encoded_len(),
        }
    }

    fn neighborhood(&self, node: NodeId, state: &BulletState) -> Option<Vec<NodeId>> {
        // Mesh peers in both directions (§3.1: "in mesh-based content
        // distribution systems nodes communicate with a constant number of
        // peers").
        let mut n: BTreeSet<NodeId> = state.shadow.keys().copied().collect();
        n.extend(state.known.keys().copied());
        n.extend(self.senders_of.get(&node).into_iter().flatten().copied());
        n.remove(&node);
        Some(n.into_iter().collect())
    }

    fn message_kind(msg: &Msg) -> &'static str {
        match msg {
            Msg::Diff { .. } => "Diff",
            Msg::DiffAck => "DiffAck",
            Msg::Request { .. } => "Request",
            Msg::Data { .. } => "Data",
        }
    }

    fn action_kind(action: &Action) -> &'static str {
        match action {
            Action::SendDiff { .. } => "SendDiff",
            Action::RequestBlocks => "RequestBlocks",
        }
    }

    fn message_kinds(&self) -> &'static [&'static str] {
        &["Diff", "DiffAck", "Request", "Data"]
    }

    fn action_kinds(&self) -> &'static [&'static str] {
        &["SendDiff", "RequestBlocks"]
    }
}

impl Bullet {
    fn send_diff(&self, state: &mut BulletState, peer: NodeId, out: &mut Outbox<Msg>) {
        if !state.shadow.contains_key(&peer) {
            return;
        }
        let pending = state.pending_diffs.get(&peer).copied().unwrap_or(0);
        if pending >= self.diff_window {
            // "This transport queues data on top of the TCP socket buffer,
            // and refuses new data when its buffer is full."
            if self.bugs.b2_retry_still_clears {
                // The attempted fix: schedule a retry — but the clearing
                // code was left in place, so the retry finds nothing.
                state.retry_scheduled.insert(peer, true);
            }
            if self.bugs.b1_clear_shadow_on_refusal || self.bugs.b2_retry_still_clears {
                state.shadow.get_mut(&peer).expect("checked above").clear();
            }
            // Corrected code simply leaves the shadow map for next time.
            return;
        }
        state.retry_scheduled.insert(peer, false);
        let shadow = state.shadow.get_mut(&peer).expect("checked above");
        let blocks: Vec<u32> = shadow.iter().take(self.max_diff_blocks).copied().collect();
        if blocks.is_empty() {
            return;
        }
        for b in &blocks {
            shadow.remove(b);
        }
        state
            .told
            .entry(peer)
            .or_default()
            .extend(blocks.iter().copied());
        *state.pending_diffs.entry(peer).or_insert(0) += 1;
        out.send(peer, Msg::Diff { blocks });
    }
}

impl fmt::Display for BulletState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} blocks, {} outstanding, {} peers",
            self.me,
            self.file_map.len(),
            self.outstanding.len(),
            self.shadow.len()
        )
    }
}

/// The safety properties of §5.2.3.
pub mod properties {
    use super::*;
    use cb_model::node_property;

    /// "Sender's file map and receiver's view of it should be identical" —
    /// expressed as the sender-side coverage invariant it reduces to in a
    /// message-passing model: every block the sender holds is either still
    /// pending in the receiver's shadow map or has been included in a
    /// queued diff. The B1/B2 shadow-clearing bug breaks exactly this.
    pub fn diff_coverage() -> impl cb_model::Property<Bullet> {
        node_property("DiffCoverage", |_n, s: &BulletState| {
            for (r, shadow) in &s.shadow {
                let told = s.told.get(r).cloned().unwrap_or_default();
                if let Some(missing) = s
                    .file_map
                    .iter()
                    .find(|b| !shadow.contains(b) && !told.contains(b))
                {
                    return Err(format!(
                        "block {missing} for receiver {r} is neither pending nor told"
                    ));
                }
            }
            Ok(())
        })
    }

    /// No block is requested twice concurrently (B3).
    pub fn no_duplicate_requests() -> impl cb_model::Property<Bullet> {
        node_property("NoDuplicateRequests", |_n, s: &BulletState| {
            let mut seen = BTreeSet::new();
            for b in &s.outstanding {
                if !seen.insert(*b) {
                    return Err(format!("block {b} requested twice"));
                }
            }
            Ok(())
        })
    }

    /// A node never requests a block it already has.
    pub fn no_redundant_requests() -> impl cb_model::Property<Bullet> {
        node_property("NoRedundantRequests", |_n, s: &BulletState| {
            match s.outstanding.iter().find(|b| s.file_map.contains(b)) {
                Some(b) => Err(format!("block {b} requested while already held")),
                None => Ok(()),
            }
        })
    }

    /// Every Bullet' property.
    pub fn all() -> PropertySet<Bullet> {
        PropertySet::new()
            .with(diff_coverage())
            .with(no_duplicate_requests())
            .with(no_redundant_requests())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_model::{apply_event, Event, GlobalState};

    fn line_mesh(bugs: BulletBugs) -> (Bullet, GlobalState<Bullet>) {
        // source n0 → n1 → n2 (each node's sender is the previous one).
        let mut senders_of = BTreeMap::new();
        senders_of.insert(NodeId(1), vec![NodeId(0)]);
        senders_of.insert(NodeId(2), vec![NodeId(1)]);
        let cfg = Bullet {
            source: NodeId(0),
            num_blocks: 6,
            block_size: 1024,
            senders_of,
            diff_window: 1,
            max_diff_blocks: 2,
            request_pipeline: 2,
            diff_period: SimDuration::from_millis(500),
            request_period: SimDuration::from_millis(250),
            bugs,
        };
        let gs = GlobalState::init(&cfg, [NodeId(0), NodeId(1), NodeId(2)]);
        (cfg, gs)
    }

    fn settle(cfg: &Bullet, gs: &mut GlobalState<Bullet>) {
        let mut steps = 0;
        while !gs.inflight.is_empty() {
            apply_event(cfg, gs, &Event::Deliver { index: 0 });
            steps += 1;
            assert!(steps < 10_000, "did not settle");
        }
    }

    fn act(cfg: &Bullet, gs: &mut GlobalState<Bullet>, node: u32, action: Action) {
        apply_event(
            cfg,
            gs,
            &Event::Action {
                node: NodeId(node),
                action,
            },
        );
    }

    /// Runs diff/request rounds until nothing changes, with acks flowing.
    fn run_to_completion(cfg: &Bullet, gs: &mut GlobalState<Bullet>, rounds: usize) {
        for _ in 0..rounds {
            for n in 0..3u32 {
                let slot = gs.slot(NodeId(n)).unwrap();
                let mut acts = Vec::new();
                cfg.enabled_actions(NodeId(n), &slot.state, &mut acts);
                for a in acts {
                    act(cfg, gs, n, a);
                }
            }
            settle(cfg, gs);
        }
    }

    #[test]
    fn source_state_initialized_with_full_file() {
        let (_cfg, gs) = line_mesh(BulletBugs::none());
        let s0 = &gs.slot(NodeId(0)).unwrap().state;
        assert_eq!(s0.file_map.len(), 6);
        assert_eq!(
            s0.shadow.get(&NodeId(1)).unwrap().len(),
            6,
            "all blocks pending"
        );
        let s1 = &gs.slot(NodeId(1)).unwrap().state;
        assert!(s1.file_map.is_empty());
        assert_eq!(s1.shadow.get(&NodeId(2)).unwrap().len(), 0);
        assert!(properties::all().check(&gs).is_none());
    }

    #[test]
    fn file_disseminates_through_the_line() {
        let (cfg, mut gs) = line_mesh(BulletBugs::none());
        run_to_completion(&cfg, &mut gs, 30);
        for n in 0..3u32 {
            let s = &gs.slot(NodeId(n)).unwrap().state;
            assert!(s.complete(6), "{n} incomplete: {s}");
        }
        assert!(properties::all().check(&gs).is_none());
    }

    #[test]
    fn transport_refusal_loses_blocks_with_b1() {
        let (cfg, mut gs) = line_mesh(BulletBugs::only("B1"));
        // First diff fills the window (2 of 6 blocks announced).
        act(&cfg, &mut gs, 0, Action::SendDiff { peer: NodeId(1) });
        assert_eq!(
            gs.slot(NodeId(0)).unwrap().state.pending_diffs[&NodeId(1)],
            1
        );
        assert!(properties::all().check(&gs).is_none());
        // Second diff before the ack: the transport refuses and the buggy
        // code clears the shadow map → 4 blocks lost forever.
        act(&cfg, &mut gs, 0, Action::SendDiff { peer: NodeId(1) });
        let v = properties::all().check(&gs).expect("B1 violation");
        assert_eq!(v.property, "DiffCoverage");
        assert_eq!(v.node, Some(NodeId(0)));
    }

    #[test]
    fn transport_refusal_loses_blocks_with_b2() {
        let (cfg, mut gs) = line_mesh(BulletBugs::only("B2"));
        act(&cfg, &mut gs, 0, Action::SendDiff { peer: NodeId(1) });
        act(&cfg, &mut gs, 0, Action::SendDiff { peer: NodeId(1) });
        // The retry flag is set but the shadow map was still cleared.
        assert!(gs.slot(NodeId(0)).unwrap().state.retry_scheduled[&NodeId(1)]);
        let v = properties::all().check(&gs).expect("B2 violation");
        assert_eq!(v.property, "DiffCoverage");
    }

    #[test]
    fn transport_refusal_is_safe_when_fixed() {
        let (cfg, mut gs) = line_mesh(BulletBugs::none());
        act(&cfg, &mut gs, 0, Action::SendDiff { peer: NodeId(1) });
        act(&cfg, &mut gs, 0, Action::SendDiff { peer: NodeId(1) });
        assert!(properties::all().check(&gs).is_none(), "refusal just waits");
        // Ack flows back; the next diff announces the rest.
        settle(&cfg, &mut gs);
        run_to_completion(&cfg, &mut gs, 30);
        assert!(
            gs.slot(NodeId(2)).unwrap().state.complete(6),
            "download completes"
        );
    }

    #[test]
    fn duplicate_requests_with_b3() {
        let (cfg, mut gs) = line_mesh(BulletBugs::only("B3"));
        // n1 learns of blocks {0,1} via a diff and eagerly requests both.
        act(&cfg, &mut gs, 0, Action::SendDiff { peer: NodeId(1) });
        apply_event(&cfg, &mut gs, &Event::Deliver { index: 0 }); // Diff at n1
        let s1 = &gs.slot(NodeId(1)).unwrap().state;
        assert_eq!(s1.outstanding.len(), 2);
        assert!(properties::all().check(&gs).is_none());
        // The request timer fires before any Data arrives: the buggy code
        // requests an outstanding block again.
        act(&cfg, &mut gs, 1, Action::RequestBlocks);
        let v = properties::all().check(&gs);
        // pick_rarest on wanted() excludes outstanding blocks, so the
        // violation needs the *diff-arrival* path: send a second diff
        // re-announcing an outstanding block.
        if v.is_none() {
            // Re-announce block 0 from the source (it is already
            // outstanding at n1).
            let mut out = cb_model::Outbox::new();
            out.send(NodeId(1), Msg::Diff { blocks: vec![0] });
            gs.apply_outbox(NodeId(0), out);
            // Deliver that diff: under B3, n1 re-requests block 0.
            let idx = gs.inflight.len() - 1;
            apply_event(&cfg, &mut gs, &Event::Deliver { index: idx });
        }
        let v = properties::all().check(&gs).expect("B3 violation");
        assert_eq!(v.property, "NoDuplicateRequests");
        assert_eq!(v.node, Some(NodeId(1)));
    }

    #[test]
    fn no_duplicates_when_fixed() {
        let (cfg, mut gs) = line_mesh(BulletBugs::none());
        act(&cfg, &mut gs, 0, Action::SendDiff { peer: NodeId(1) });
        apply_event(&cfg, &mut gs, &Event::Deliver { index: 0 });
        // Re-announce an outstanding block; the fixed code ignores it.
        let mut out = cb_model::Outbox::new();
        out.send(NodeId(1), Msg::Diff { blocks: vec![0] });
        gs.apply_outbox(NodeId(0), out);
        let idx = gs.inflight.len() - 1;
        apply_event(&cfg, &mut gs, &Event::Deliver { index: idx });
        assert!(properties::all().check(&gs).is_none());
    }

    #[test]
    fn rarest_block_requested_first() {
        let (cfg, _) = line_mesh(BulletBugs::none());
        let mut st = cfg.init(NodeId(2));
        // Two senders; block 5 announced by one, block 1 by both.
        st.known.insert(NodeId(0), BTreeSet::from([1, 5]));
        st.known.insert(NodeId(1), BTreeSet::from([1]));
        let (block, _) = st.pick_rarest().unwrap();
        assert_eq!(block, 5, "rarest first");
        // Tie: lowest id wins.
        st.known.get_mut(&NodeId(1)).unwrap().insert(5);
        let (block, _) = st.pick_rarest().unwrap();
        assert_eq!(block, 1);
    }

    #[test]
    fn data_receipt_updates_own_shadow_maps() {
        let (cfg, mut gs) = line_mesh(BulletBugs::none());
        // n1 (sender to n2) receives block 3.
        let mut out = cb_model::Outbox::new();
        out.send(NodeId(1), Msg::Data { block: 3 });
        gs.apply_outbox(NodeId(0), out);
        apply_event(&cfg, &mut gs, &Event::Deliver { index: 0 });
        let s1 = &gs.slot(NodeId(1)).unwrap().state;
        assert!(s1.file_map.contains(&3));
        assert!(
            s1.shadow[&NodeId(2)].contains(&3),
            "new block pending for n2"
        );
        assert!(properties::all().check(&gs).is_none());
    }

    #[test]
    fn peer_error_drops_receiver_state() {
        let (cfg, mut gs) = line_mesh(BulletBugs::only("B1"));
        // Break the n0→n1 relationship after a refusal-triggered loss:
        // the coverage property stops applying to the dead receiver.
        act(&cfg, &mut gs, 0, Action::SendDiff { peer: NodeId(1) });
        act(&cfg, &mut gs, 0, Action::SendDiff { peer: NodeId(1) });
        assert!(properties::all().check(&gs).is_some());
        apply_event(
            &cfg,
            &mut gs,
            &Event::PeerError {
                node: NodeId(0),
                peer: NodeId(1),
            },
        );
        assert!(
            properties::all().check(&gs).is_none(),
            "dead receiver exempt"
        );
    }

    #[test]
    fn mesh_builder_reaches_everyone() {
        let nodes: Vec<NodeId> = (0..12).map(NodeId).collect();
        let cfg = Bullet::with_mesh(&nodes, 3, 10, BulletBugs::none());
        // Every non-source node has at least one sender with a lower index.
        for (i, n) in nodes.iter().enumerate().skip(1) {
            let senders = &cfg.senders_of[n];
            assert!(!senders.is_empty());
            for s in senders {
                let si = nodes.iter().position(|x| x == s).unwrap();
                assert!(si < i, "mesh is a DAG rooted at the source");
            }
        }
        // The source has receivers.
        assert!(!cfg.receivers_of(NodeId(0)).is_empty());
    }

    #[test]
    fn wire_size_reflects_block_size() {
        let (cfg, _) = line_mesh(BulletBugs::none());
        assert_eq!(cfg.wire_size(&Msg::Data { block: 1 }), 1024 + 8);
        assert!(cfg.wire_size(&Msg::DiffAck) < 4);
        assert!(
            cfg.wire_size(&Msg::Diff {
                blocks: vec![1, 2, 3]
            }) < 16
        );
    }

    #[test]
    fn codec_roundtrip() {
        let (cfg, mut gs) = line_mesh(BulletBugs::none());
        run_to_completion(&cfg, &mut gs, 5);
        let s = &gs.slot(NodeId(1)).unwrap().state;
        assert_eq!(&BulletState::from_bytes(&s.to_bytes()).unwrap(), s);
        for m in [
            Msg::Diff { blocks: vec![1, 2] },
            Msg::DiffAck,
            Msg::Request { block: 9 },
            Msg::Data { block: 9 },
        ] {
            assert_eq!(Msg::from_bytes(&m.to_bytes()).unwrap(), m);
        }
    }

    #[test]
    fn kinds_and_schedules() {
        let (cfg, _) = line_mesh(BulletBugs::as_shipped());
        assert_eq!(cfg.name(), "bullet");
        assert_eq!(Bullet::message_kind(&Msg::DiffAck), "DiffAck");
        assert_eq!(Bullet::action_kind(&Action::RequestBlocks), "RequestBlocks");
        assert!(matches!(
            cfg.schedule(&Action::RequestBlocks),
            Schedule::Periodic(_)
        ));
        assert!(matches!(
            cfg.schedule(&Action::SendDiff { peer: NodeId(1) }),
            Schedule::Periodic(_)
        ));
    }
}
