//! Diff-shipped global states: [`SlotDelta`], the one diff entry both
//! snapshot hops ship, and the checker hop's codec pair.
//!
//! The paper applies diffs on the *gather* path ("it can employ 'diffs'
//! that enable a node to transmit only parts of state that are different
//! from the last sent checkpoint", §3.1). The same observation holds one
//! hop later, on the network connection from a deployed node to the
//! checker process: consecutive snapshots of a neighborhood differ in a
//! handful of fields, yet a naive submission ships the entire decoded
//! `GlobalState` per prediction round. A [`DeltaEncoder`]/[`DeltaDecoder`]
//! pair replaces those bytes with a [`StateDelta`]: one `SlotDelta` per
//! node and one for the message bags, each against the last state shipped
//! on the same connection — the entry a gather reply
//! ([`crate::SnapMsg::Reply`]) carries, kept in the same crate-private
//! `BaseMap`. (Inside one address space there is nothing to ship: the
//! checker takes a shared clone of the state.)
//!
//! The pair is stateful and ordered: the encoder and decoder each maintain
//! the base (last shipped bytes per node) and advance in lockstep, so the
//! transport between them must be FIFO — which the node→checker TCP
//! connection is. A sequence number catches misuse.

use cb_model::codec::varint_len;
use cb_model::{
    Decode, DecodeError, Encode, GlobalState, InFlight, NodeId, NodeSlot, Protocol, Queued, Reader,
};

use crate::base::{BaseMap, Refused};

/// One diff entry: a value against the base its receiver holds for the
/// same key (a gather peer, or one part of a [`StateDelta`]).
///
/// Wire layout: a tag byte — 1 `Full`, 2 `Patch`, 3 `Unchanged` — then
/// the body. `SnapMsg` writes its reply's `cn` between the two, so both
/// hops share the tags and the body codec.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum SlotDelta {
    /// Identical bytes to the base — ship nothing.
    Unchanged,
    /// An encoded [`crate::Diff`] against the base bytes.
    Patch(Vec<u8>),
    /// A full payload (no base, or the diff would not have been smaller).
    Full {
        /// Whether `data` is LZW-compressed.
        compressed: bool,
        /// The (possibly compressed) canonical encoding.
        data: Vec<u8>,
    },
}

impl SlotDelta {
    /// The wire tag written before the body.
    pub(crate) fn tag(&self) -> u8 {
        match self {
            SlotDelta::Full { .. } => 1,
            SlotDelta::Patch(_) => 2,
            SlotDelta::Unchanged => 3,
        }
    }

    /// Arithmetic length of the body (everything after the tag).
    pub(crate) fn body_len(&self) -> usize {
        match self {
            SlotDelta::Unchanged => 0,
            SlotDelta::Patch(diff) => varint_len(diff.len() as u64) + diff.len(),
            SlotDelta::Full { data, .. } => 1 + varint_len(data.len() as u64) + data.len(),
        }
    }

    pub(crate) fn encode_body(&self, buf: &mut Vec<u8>) {
        match self {
            SlotDelta::Unchanged => {}
            SlotDelta::Patch(diff) => {
                diff.len().encode(buf);
                buf.extend_from_slice(diff);
            }
            SlotDelta::Full { compressed, data } => {
                compressed.encode(buf);
                data.len().encode(buf);
                buf.extend_from_slice(data);
            }
        }
    }

    /// Decodes the body of the entry whose tag was `tag`.
    pub(crate) fn decode_body(tag: u8, r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match tag {
            1 => {
                let compressed = bool::decode(r)?;
                let n = r.length()?;
                SlotDelta::Full {
                    compressed,
                    data: r.take(n)?.to_vec(),
                }
            }
            2 => {
                let n = r.length()?;
                SlotDelta::Patch(r.take(n)?.to_vec())
            }
            3 => SlotDelta::Unchanged,
            t => return Err(DecodeError::BadTag(t)),
        })
    }
}

impl Encode for SlotDelta {
    /// Arithmetic size — submission-cost accounting calls this per round,
    /// and the default (serialize, measure, discard) would copy every
    /// payload a second time.
    fn encoded_len(&self) -> usize {
        1 + self.body_len()
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(self.tag());
        self.encode_body(buf);
    }
}

impl Decode for SlotDelta {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        SlotDelta::decode_body(r.byte()?, r)
    }
}

/// A `GlobalState` encoded as a diff against the previous state shipped on
/// the same encoder→decoder channel. The `slots` list names the *complete*
/// node set of the new state — base nodes absent from it have left the
/// snapshot and are dropped on apply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateDelta {
    /// Position in the channel's stream (1-based); the decoder rejects
    /// out-of-order application.
    pub seq: u64,
    /// Per-node slot deltas, in ascending node order.
    pub slots: Vec<(NodeId, SlotDelta)>,
    /// Delta of the encoded in-flight + parked message bags (one byte
    /// string, diffed like a slot; empty bags encode to two bytes).
    pub bags: SlotDelta,
}

impl Encode for StateDelta {
    /// Arithmetic size (see [`SlotDelta::encoded_len`]).
    fn encoded_len(&self) -> usize {
        varint_len(self.seq)
            + varint_len(self.slots.len() as u64)
            + self
                .slots
                .iter()
                .map(|(node, entry)| varint_len(u64::from(node.0)) + entry.encoded_len())
                .sum::<usize>()
            + self.bags.encoded_len()
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        self.seq.encode(buf);
        self.slots.len().encode(buf);
        for (node, delta) in &self.slots {
            node.encode(buf);
            delta.encode(buf);
        }
        self.bags.encode(buf);
    }
}

impl Decode for StateDelta {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let seq = u64::decode(r)?;
        let n = r.length()?;
        let mut slots = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            slots.push((NodeId::decode(r)?, SlotDelta::decode(r)?));
        }
        Ok(StateDelta {
            seq,
            slots,
            bags: SlotDelta::decode(r)?,
        })
    }
}

/// Why a [`DeltaDecoder`] refused a [`StateDelta`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// The delta's sequence number does not continue this decoder's stream.
    OutOfOrder {
        /// Sequence number the decoder expected next.
        expected: u64,
        /// Sequence number the delta carried.
        got: u64,
    },
    /// `Unchanged`/`Patch` referenced a node the base does not hold.
    MissingBase(NodeId),
    /// A patch did not apply cleanly, a compressed payload did not
    /// decompress, or reconstructed bytes failed to decode.
    Corrupt,
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::OutOfOrder { expected, got } => {
                write!(
                    f,
                    "state delta out of order: expected seq {expected}, got {got}"
                )
            }
            DeltaError::MissingBase(n) => write!(f, "state delta references unknown base for {n}"),
            DeltaError::Corrupt => write!(f, "corrupt state delta"),
        }
    }
}

impl std::error::Error for DeltaError {}

/// Byte-level counters for one encoder (the submission-cost numbers the
/// `checker_pipeline` bench reports).
#[derive(Clone, Debug, Default)]
pub struct DeltaStats {
    /// States encoded.
    pub states: u64,
    /// Canonical full-encoding bytes of those states — what a full-clone
    /// submission would have shipped.
    pub raw_bytes: u64,
    /// Encoded [`StateDelta`] bytes actually shipped.
    pub shipped_bytes: u64,
    /// Slots shipped as `Unchanged`.
    pub unchanged_slots: u64,
    /// Slots shipped as patches.
    pub patched_slots: u64,
    /// Slots shipped in full.
    pub full_slots: u64,
}

/// What a checker-hop base belongs to: a node's slot, or the message bags.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Part {
    Slot(NodeId),
    Bags,
}

type Bags<P> = (
    Vec<Queued<<P as Protocol>::Message>>,
    Vec<InFlight<<P as Protocol>::Message>>,
);

fn bag_bytes<P: Protocol>(gs: &GlobalState<P>) -> Vec<u8> {
    // Field-sequential, byte-identical to encoding the (inflight, parked)
    // tuple — without cloning either message vector first.
    let mut buf = Vec::new();
    gs.inflight.encode(&mut buf);
    gs.parked.encode(&mut buf);
    buf
}

/// The submitting side: turns successive `GlobalState`s into
/// [`StateDelta`]s against the last state it shipped.
#[derive(Debug, Default)]
pub struct DeltaEncoder {
    bases: BaseMap<Part>,
    seq: u64,
    /// Submission-cost counters.
    pub stats: DeltaStats,
}

impl DeltaEncoder {
    /// A fresh encoder (first encode ships everything in full).
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes `gs` as a delta against the previously encoded state and
    /// advances the base.
    pub fn encode_state<P: Protocol>(&mut self, gs: &GlobalState<P>) -> StateDelta {
        self.seq += 1;
        let mut slots = Vec::with_capacity(gs.nodes.len());
        let mut raw_total = 0usize;
        for (&node, slot) in &gs.nodes {
            let raw = slot.to_bytes();
            raw_total += raw.len();
            slots.push((node, self.encode_part(Part::Slot(node), raw)));
        }
        let bags_raw = bag_bytes(gs);
        raw_total += bags_raw.len();
        let bags = self.encode_part(Part::Bags, bags_raw);
        self.bases
            .forget(|p| matches!(p, Part::Slot(n) if !gs.nodes.contains_key(n)));
        let delta = StateDelta {
            seq: self.seq,
            slots,
            bags,
        };
        self.stats.states += 1;
        self.stats.raw_bytes += raw_total as u64;
        self.stats.shipped_bytes += delta.encoded_len() as u64;
        delta
    }

    fn encode_part(&mut self, part: Part, raw: Vec<u8>) -> SlotDelta {
        let entry = self.bases.encode(part, raw, true, true);
        match entry {
            SlotDelta::Unchanged => self.stats.unchanged_slots += 1,
            SlotDelta::Patch(_) => self.stats.patched_slots += 1,
            SlotDelta::Full { .. } => self.stats.full_slots += 1,
        }
        entry
    }
}

/// The checker side: reconstructs `GlobalState`s from the delta stream of
/// one [`DeltaEncoder`].
#[derive(Debug, Default)]
pub struct DeltaDecoder {
    bases: BaseMap<Part>,
    seq: u64,
}

impl DeltaDecoder {
    /// A fresh decoder, in sync with a fresh encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies `delta` to the current base, returning the reconstructed
    /// state and advancing the base.
    ///
    /// On error the stream's position does not move, so every later delta
    /// of the same encoder is refused as out of order. Bases the failed
    /// delta already advanced hold what it sets them to, so the same delta
    /// applied again fails or succeeds exactly as the first time did.
    pub fn decode_state<P: Protocol>(
        &mut self,
        delta: &StateDelta,
    ) -> Result<GlobalState<P>, DeltaError> {
        if delta.seq != self.seq + 1 {
            return Err(DeltaError::OutOfOrder {
                expected: self.seq + 1,
                got: delta.seq,
            });
        }
        let mut slots = Vec::with_capacity(delta.slots.len());
        for (node, entry) in &delta.slots {
            let raw = self
                .bases
                .apply(Part::Slot(*node), entry)
                .map_err(|e| match e {
                    Refused::NoBase => DeltaError::MissingBase(*node),
                    Refused::Corrupt => DeltaError::Corrupt,
                })?;
            let slot = NodeSlot::<P::State>::from_bytes(raw).map_err(|_| DeltaError::Corrupt)?;
            slots.push((*node, slot));
        }
        let bags_raw = self
            .bases
            .apply(Part::Bags, &delta.bags)
            .map_err(|_| DeltaError::Corrupt)?;
        let (inflight, parked) =
            Bags::<P>::from_bytes(bags_raw).map_err(|_| DeltaError::Corrupt)?;
        let mut gs = GlobalState::from_slots(slots);
        gs.inflight = inflight;
        gs.parked = parked;
        self.bases
            .forget(|p| matches!(p, Part::Slot(n) if !gs.nodes.contains_key(n)));
        self.seq = delta.seq;
        Ok(gs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::Diff;
    use crate::lzw;
    use cb_model::testproto::{Ping, PingMsg};
    use cb_model::Payload;

    fn ping() -> Ping {
        Ping {
            kick_target: NodeId(0),
            kick_enabled: true,
        }
    }

    fn state_of(n: u32) -> GlobalState<Ping> {
        GlobalState::init(&ping(), (0..n).map(NodeId))
    }

    fn assert_same(a: &GlobalState<Ping>, b: &GlobalState<Ping>) {
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.inflight, b.inflight);
        assert_eq!(a.parked, b.parked);
        assert_eq!(a.state_hash(), b.state_hash());
    }

    #[test]
    fn first_state_ships_full_then_unchanged() {
        let mut enc = DeltaEncoder::new();
        let mut dec = DeltaDecoder::new();
        let gs = state_of(4);
        let d1 = enc.encode_state(&gs);
        assert!(d1
            .slots
            .iter()
            .all(|(_, e)| matches!(e, SlotDelta::Full { .. })));
        assert_same(&dec.decode_state::<Ping>(&d1).unwrap(), &gs);
        // Same state again: everything unchanged, delta is tiny.
        let d2 = enc.encode_state(&gs);
        assert!(d2
            .slots
            .iter()
            .all(|(_, e)| matches!(e, SlotDelta::Unchanged)));
        assert!(matches!(d2.bags, SlotDelta::Unchanged));
        assert!(d2.encoded_len() < d1.encoded_len());
        assert_same(&dec.decode_state::<Ping>(&d2).unwrap(), &gs);
    }

    #[test]
    fn small_mutation_ships_small_delta() {
        let mut enc = DeltaEncoder::new();
        let mut dec = DeltaDecoder::new();
        let mut gs = state_of(6);
        let d1 = enc.encode_state(&gs);
        let full = d1.encoded_len();
        dec.decode_state::<Ping>(&d1).unwrap();
        gs.slot_mut(NodeId(3)).unwrap().state.pings_seen = 9;
        let d2 = enc.encode_state(&gs);
        assert!(
            d2.encoded_len() < full,
            "delta {} < full {full}",
            d2.encoded_len()
        );
        assert_same(&dec.decode_state::<Ping>(&d2).unwrap(), &gs);
        // Over a run of rounds the per-delta header overhead amortizes and
        // diff shipping beats full-clone submission cumulatively too.
        for round in 0..16 {
            gs.slot_mut(NodeId(round % 6)).unwrap().state.pings_seen += 1;
            let d = enc.encode_state(&gs);
            assert_same(&dec.decode_state::<Ping>(&d).unwrap(), &gs);
        }
        assert!(
            enc.stats.shipped_bytes < enc.stats.raw_bytes,
            "shipped {} < raw {}",
            enc.stats.shipped_bytes,
            enc.stats.raw_bytes
        );
    }

    #[test]
    fn inflight_and_parked_round_trip() {
        let mut enc = DeltaEncoder::new();
        let mut dec = DeltaDecoder::new();
        let mut gs = state_of(2);
        gs.push_payload(NodeId(0), NodeId(1), Payload::Msg(PingMsg::Ping));
        gs.push_payload(NodeId(1), NodeId(0), Payload::Error);
        gs.push_payload(NodeId(0), NodeId(99), Payload::Msg(PingMsg::Pong)); // parked
        let d = enc.encode_state(&gs);
        let back = dec.decode_state::<Ping>(&d).unwrap();
        assert_same(&back, &gs);
        assert_eq!(back.parked.len(), 1);
    }

    #[test]
    fn departed_nodes_are_dropped() {
        let mut enc = DeltaEncoder::new();
        let mut dec = DeltaDecoder::new();
        let gs = state_of(4);
        dec.decode_state::<Ping>(&enc.encode_state(&gs)).unwrap();
        let partial: GlobalState<Ping> = GlobalState::from_slots(
            gs.nodes
                .iter()
                .filter(|(n, _)| n.0 != 2)
                .map(|(n, s)| (*n, s.clone())),
        );
        let back = dec
            .decode_state::<Ping>(&enc.encode_state(&partial))
            .unwrap();
        assert_eq!(back.node_count(), 3);
        assert!(back.slot(NodeId(2)).is_none());
    }

    #[test]
    fn wire_roundtrip_of_state_delta() {
        let mut enc = DeltaEncoder::new();
        let mut gs = state_of(3);
        gs.push_payload(NodeId(0), NodeId(1), Payload::Msg(PingMsg::Ping));
        for _ in 0..3 {
            let d = enc.encode_state(&gs);
            let bytes = d.to_bytes();
            assert_eq!(StateDelta::from_bytes(&bytes).unwrap(), d);
            assert_eq!(
                d.encoded_len(),
                bytes.len(),
                "arithmetic encoded_len matches the real encoding"
            );
            gs.slot_mut(NodeId(0)).unwrap().state.pings_seen += 1;
        }
    }

    #[test]
    fn out_of_order_and_corrupt_deltas_rejected() {
        let mut enc = DeltaEncoder::new();
        let mut dec = DeltaDecoder::new();
        let gs = state_of(2);
        let d1 = enc.encode_state(&gs);
        let d2 = enc.encode_state(&gs);
        // Applying d2 before d1 is out of order.
        assert_eq!(
            dec.decode_state::<Ping>(&d2).err(),
            Some(DeltaError::OutOfOrder {
                expected: 1,
                got: 2
            })
        );
        dec.decode_state::<Ping>(&d1).unwrap();
        // A patch against a node the decoder has no base for.
        let bogus = StateDelta {
            seq: 2,
            slots: vec![(NodeId(77), SlotDelta::Unchanged)],
            bags: SlotDelta::Unchanged,
        };
        assert_eq!(
            dec.decode_state::<Ping>(&bogus).err(),
            Some(DeltaError::MissingBase(NodeId(77)))
        );
        // Decoder state unchanged by the failure: d2 still applies.
        assert!(dec.decode_state::<Ping>(&d2).is_ok());
        // Garbage slot bytes fail as corrupt.
        let corrupt = StateDelta {
            seq: 3,
            slots: vec![(
                NodeId(0),
                SlotDelta::Full {
                    compressed: false,
                    data: vec![0xff; 3],
                },
            )],
            bags: SlotDelta::Unchanged,
        };
        assert_eq!(
            dec.decode_state::<Ping>(&corrupt).err(),
            Some(DeltaError::Corrupt)
        );
        // A patch claiming a terabyte and an LZW bomb are corrupt too —
        // refused before either is allocated for.
        let inflated = Diff {
            new_len: 1 << 40,
            patches: Vec::new(),
        };
        for hostile in [
            SlotDelta::Patch(inflated.to_bytes()),
            SlotDelta::Full {
                compressed: true,
                data: lzw::kwkwk_bomb(),
            },
        ] {
            let delta = StateDelta {
                seq: 3,
                slots: vec![(NodeId(0), hostile)],
                bags: SlotDelta::Unchanged,
            };
            assert_eq!(
                dec.decode_state::<Ping>(&delta).err(),
                Some(DeltaError::Corrupt)
            );
        }
    }
}
