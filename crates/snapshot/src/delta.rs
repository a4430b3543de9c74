//! Diff-shipped global states: the checker-submission counterpart of the
//! per-peer checkpoint diffs in [`crate::manager`].
//!
//! The paper applies diffs on the *gather* path ("it can employ 'diffs'
//! that enable a node to transmit only parts of state that are different
//! from the last sent checkpoint", §3.1). The same observation holds one
//! hop later, on the network connection from a deployed node to the
//! checker process: consecutive snapshots of a neighborhood differ in a
//! handful of fields, yet a naive submission ships the entire decoded
//! `GlobalState` per prediction round. A [`DeltaEncoder`]/[`DeltaDecoder`]
//! pair replaces those bytes with a [`StateDelta`]: per node, the
//! canonical slot encoding is diffed (via [`crate::diff`]) against the
//! last state shipped on the same connection, falling back to an
//! (optionally LZW-compressed) full payload for new nodes or diverged
//! slots — exactly the duplicate < delta < full ladder the checkpoint
//! manager uses on the wire. (Inside one address space there is nothing
//! to ship: the checker takes a shared clone of the state.)
//!
//! The pair is stateful and ordered: the encoder and decoder each maintain
//! the base (last shipped bytes per node) and advance in lockstep, so the
//! transport between them must be FIFO — which the node→checker TCP
//! connection is. A sequence number catches misuse.

use std::collections::BTreeMap;

use cb_model::codec::varint_len;
use cb_model::{
    Decode, DecodeError, Encode, GlobalState, InFlight, NodeId, NodeSlot, Protocol, Queued, Reader,
};

use crate::diff::{apply_diff, encode_against, BaseEncoding, Diff};
use crate::lzw;

/// One node's (or the message bag's) entry in a [`StateDelta`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SlotDelta {
    /// Identical bytes to the base — ship nothing.
    Unchanged,
    /// An encoded [`Diff`] against the base bytes.
    Patch(Vec<u8>),
    /// A full payload (no base, or the diff would not have been smaller).
    Full {
        /// Whether `data` is LZW-compressed.
        compressed: bool,
        /// The (possibly compressed) canonical encoding.
        data: Vec<u8>,
    },
}

impl Encode for SlotDelta {
    /// Arithmetic size — submission-cost accounting calls this per round,
    /// and the default (serialize, measure, discard) would copy every
    /// payload a second time.
    fn encoded_len(&self) -> usize {
        match self {
            SlotDelta::Unchanged => 1,
            SlotDelta::Patch(diff) => 1 + varint_len(diff.len() as u64) + diff.len(),
            SlotDelta::Full { data, .. } => 2 + varint_len(data.len() as u64) + data.len(),
        }
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            SlotDelta::Unchanged => buf.push(0),
            SlotDelta::Patch(diff) => {
                buf.push(1);
                diff.len().encode(buf);
                buf.extend_from_slice(diff);
            }
            SlotDelta::Full { compressed, data } => {
                buf.push(2);
                compressed.encode(buf);
                data.len().encode(buf);
                buf.extend_from_slice(data);
            }
        }
    }
}

impl Decode for SlotDelta {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.byte()? {
            0 => SlotDelta::Unchanged,
            1 => {
                let n = r.length()?;
                SlotDelta::Patch(r.take(n)?.to_vec())
            }
            2 => {
                let compressed = bool::decode(r)?;
                let n = r.length()?;
                SlotDelta::Full {
                    compressed,
                    data: r.take(n)?.to_vec(),
                }
            }
            t => return Err(DecodeError::BadTag(t)),
        })
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

/// Chooses the cheapest representation of `raw` against `base` (the
/// shared [`encode_against`] ladder, mapped onto [`SlotDelta`]).
fn encode_entry(base: Option<&Vec<u8>>, raw: &[u8], stats: &mut DeltaStats) -> SlotDelta {
    match encode_against(base.map(Vec::as_slice), raw, true, true) {
        BaseEncoding::Unchanged => {
            stats.unchanged_slots += 1;
            SlotDelta::Unchanged
        }
        BaseEncoding::Patch(diff) => {
            stats.patched_slots += 1;
            SlotDelta::Patch(diff)
        }
        BaseEncoding::Full { compressed, data } => {
            stats.full_slots += 1;
            SlotDelta::Full { compressed, data }
        }
    }
}

/// Failure of one entry application, before it is attributed to a node.
enum EntryError {
    /// `Unchanged`/`Patch` had no base bytes to work from.
    MissingBase,
    /// The patch, compressed payload, or reconstruction was invalid.
    Corrupt,
}

fn apply_entry(base: Option<&Vec<u8>>, delta: &SlotDelta) -> Result<Vec<u8>, EntryError> {
    match delta {
        SlotDelta::Unchanged => base.cloned().ok_or(EntryError::MissingBase),
        SlotDelta::Patch(diff) => {
            let prev = base.ok_or(EntryError::MissingBase)?;
            let d = Diff::from_bytes(diff).map_err(|_| EntryError::Corrupt)?;
            apply_diff(prev, &d).ok_or(EntryError::Corrupt)
        }
        SlotDelta::Full { compressed, data } => {
            if *compressed {
                lzw::decompress(data).map_err(|_| EntryError::Corrupt)
            } else {
                Ok(data.clone())
            }
        }
    }
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
    base: BTreeMap<NodeId, Vec<u8>>,
    base_bags: Option<Vec<u8>>,
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
        let mut next_base = BTreeMap::new();
        let mut raw_total = 0usize;
        for (&node, slot) in &gs.nodes {
            let raw = slot.to_bytes();
            raw_total += raw.len();
            slots.push((
                node,
                encode_entry(self.base.get(&node), &raw, &mut self.stats),
            ));
            next_base.insert(node, raw);
        }
        let bags_raw = bag_bytes(gs);
        raw_total += bags_raw.len();
        let bags = encode_entry(self.base_bags.as_ref(), &bags_raw, &mut self.stats);
        self.base = next_base;
        self.base_bags = Some(bags_raw);
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
}

/// The checker side: reconstructs `GlobalState`s from the delta stream of
/// one [`DeltaEncoder`].
#[derive(Debug, Default)]
pub struct DeltaDecoder {
    base: BTreeMap<NodeId, Vec<u8>>,
    base_bags: Option<Vec<u8>>,
    seq: u64,
}

impl DeltaDecoder {
    /// A fresh decoder, in sync with a fresh encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies `delta` to the current base, returning the reconstructed
    /// state and advancing the base. On error the decoder is unchanged.
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
        let mut next_base = BTreeMap::new();
        let mut slots = Vec::with_capacity(delta.slots.len());
        for (node, entry) in &delta.slots {
            let raw = apply_entry(self.base.get(node), entry).map_err(|e| match e {
                EntryError::MissingBase => DeltaError::MissingBase(*node),
                EntryError::Corrupt => DeltaError::Corrupt,
            })?;
            let slot = NodeSlot::<P::State>::from_bytes(&raw).map_err(|_| DeltaError::Corrupt)?;
            slots.push((*node, slot));
            next_base.insert(*node, raw);
        }
        let bags_raw =
            apply_entry(self.base_bags.as_ref(), &delta.bags).map_err(|_| DeltaError::Corrupt)?;
        let (inflight, parked) =
            Bags::<P>::from_bytes(&bags_raw).map_err(|_| DeltaError::Corrupt)?;
        let mut gs = GlobalState::from_slots(slots);
        gs.inflight = inflight;
        gs.parked = parked;
        self.base = next_base;
        self.base_bags = Some(bags_raw);
        self.seq = delta.seq;
        Ok(gs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
