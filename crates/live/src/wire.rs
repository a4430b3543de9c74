//! Typed frame bodies: what travels inside each [`WireFrame`] kind.
//!
//! The envelope ([`cb_model::frame`]) is protocol-agnostic; this module
//! defines the bodies the live runtime exchanges:
//!
//! * [`FrameKind::Service`] — the raw `Protocol::Message` encoding,
//! * [`FrameKind::Snap`] — the raw [`cb_snapshot::SnapMsg`] encoding,
//! * [`FrameKind::Submit`] — a [`SubmitBody`]: the node, its submission
//!   timestamp, and the diff-shipped neighborhood state,
//! * [`FrameKind::FilterInstall`] — an [`InstallBody`]: the round's
//!   sequence number, the echoed submission timestamp (so the node can
//!   measure prediction-to-install latency on its own clock), and the
//!   encoded filter list,
//! * [`FrameKind::Control`] — a [`CtrlMsg`] handshake.

use cb_model::codec::{Decode, DecodeError, Encode, Reader};
use cb_model::{FrameKind, NodeId, WireFrame};
use cb_snapshot::StateDelta;

/// Control traffic between live endpoints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CtrlMsg {
    /// First frame on every outbound connection: names the dialing node so
    /// the acceptor can bind the socket to a logical peer.
    Hello {
        /// The dialing node.
        node: NodeId,
    },
    /// Graceful-close notice: the sender is draining and will close after
    /// flushing; the receiver should not treat the close as a failure.
    Goodbye,
}

impl Encode for CtrlMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            CtrlMsg::Hello { node } => {
                buf.push(0);
                node.encode(buf);
            }
            CtrlMsg::Goodbye => buf.push(1),
        }
    }
}

impl Decode for CtrlMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.byte()? {
            0 => CtrlMsg::Hello {
                node: NodeId::decode(r)?,
            },
            1 => CtrlMsg::Goodbye,
            t => return Err(DecodeError::BadTag(t)),
        })
    }
}

/// The body of a checker submission: one diff-shipped neighborhood state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubmitBody {
    /// The submitting node (where resulting filters install).
    pub node: NodeId,
    /// Submission timestamp in the *node's* clock (µs since its boot);
    /// echoed back in the install push for latency measurement.
    pub at_us: u64,
    /// Always `false` from a node: only completed gathers are submitted,
    /// and a checker refuses a body with the flag set (counted in
    /// `submits_rejected`, frame dropped). The byte stays on the wire so
    /// frame bytes are unchanged. Kept only because the benchmark crate
    /// (`benchmark/`) names this field in struct literals; it goes when
    /// that crate stops naming it.
    pub speculative: bool,
    /// Observability round id: `(node << 32) | gather checkpoint number`,
    /// minted when the gather completed. Echoed back in the install push
    /// so node- and checker-side trace spans of one gather→predict→install
    /// round share a causality tag. Never read by the deterministic
    /// checking path (0 when tracing is off).
    pub round: u64,
    /// The neighborhood state, diffed against this node's previous
    /// submission.
    pub delta: StateDelta,
}

impl Encode for SubmitBody {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.node.encode(buf);
        self.at_us.encode(buf);
        buf.push(u8::from(self.speculative));
        self.round.encode(buf);
        self.delta.encode(buf);
    }
}

impl Decode for SubmitBody {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SubmitBody {
            node: NodeId::decode(r)?,
            at_us: u64::decode(r)?,
            speculative: match r.byte()? {
                0 => false,
                1 => true,
                t => return Err(DecodeError::BadTag(t)),
            },
            round: u64::decode(r)?,
            delta: StateDelta::decode(r)?,
        })
    }
}

/// The body of a filter-install push (checker → node).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstallBody {
    /// The checking round's sequence number at the checker.
    pub seq: u64,
    /// The submission timestamp this round was fed from, echoed verbatim.
    pub at_us: u64,
    /// The submission's observability round id, echoed verbatim (see
    /// [`SubmitBody::round`]).
    pub round: u64,
    /// `Vec<EventFilter>` encoding (decoded with
    /// [`cb_mc::EventFilter::decode_list`] against the receiving
    /// protocol's kind tables). An empty list is a valid push: it means
    /// "round complete, previous filters expire" (§3.3 removes filters
    /// after every run).
    pub filters: Vec<u8>,
}

impl Encode for InstallBody {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.seq.encode(buf);
        self.at_us.encode(buf);
        self.round.encode(buf);
        self.filters.len().encode(buf);
        buf.extend_from_slice(&self.filters);
    }
}

impl Decode for InstallBody {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let seq = u64::decode(r)?;
        let at_us = u64::decode(r)?;
        let round = u64::decode(r)?;
        let n = r.length()?;
        Ok(InstallBody {
            seq,
            at_us,
            round,
            filters: r.take(n)?.to_vec(),
        })
    }
}

/// Builds a ready-to-queue frame around an encodable body.
pub fn frame_of(src: NodeId, dst: NodeId, cn: u64, kind: FrameKind, body: &impl Encode) -> Vec<u8> {
    WireFrame::new(src, dst, cn, kind, body.to_bytes()).to_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_snapshot::DeltaEncoder;

    #[test]
    fn ctrl_and_bodies_roundtrip() {
        for m in [CtrlMsg::Hello { node: NodeId(4) }, CtrlMsg::Goodbye] {
            assert_eq!(CtrlMsg::from_bytes(&m.to_bytes()).unwrap(), m);
        }
        let mut enc = DeltaEncoder::new();
        let gs = cb_model::GlobalState::init(
            &cb_model::testproto::Ping::default(),
            [NodeId(0), NodeId(1)],
        );
        let body = SubmitBody {
            node: NodeId(1),
            at_us: 123_456,
            speculative: true,
            round: (1u64 << 32) | 42,
            delta: enc.encode_state(&gs),
        };
        assert_eq!(SubmitBody::from_bytes(&body.to_bytes()).unwrap(), body);
        let install = InstallBody {
            seq: 9,
            at_us: 123_456,
            round: (1u64 << 32) | 42,
            filters: vec![1, 2, 3],
        };
        assert_eq!(
            InstallBody::from_bytes(&install.to_bytes()).unwrap(),
            install
        );
    }

    #[test]
    fn bodies_reject_garbage() {
        assert!(CtrlMsg::from_bytes(&[9]).is_err());
        assert!(SubmitBody::from_bytes(&[0xFF; 6]).is_err());
        assert!(InstallBody::from_bytes(&[2, 0]).is_err());
    }

    #[test]
    fn frame_of_wraps_the_encoding() {
        let f = frame_of(
            NodeId(1),
            NodeId(2),
            7,
            FrameKind::Control,
            &CtrlMsg::Goodbye,
        );
        let wf = WireFrame::from_bytes(&f).unwrap();
        assert_eq!(wf.kind, FrameKind::Control);
        assert_eq!(CtrlMsg::from_bytes(&wf.body).unwrap(), CtrlMsg::Goodbye);
        assert_eq!(wf.cn, 7);
    }
}
