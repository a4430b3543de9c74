//! Length-prefixed wire frames for the live deployment runtime.
//!
//! The simulator moves typed values between nodes in memory; a *deployed*
//! CrystalBall node (§2.3, §5 — ModelNet / PlanetLab) moves bytes over TCP.
//! This module is the byte layer: every unit on the wire is one **frame**,
//! a little-endian `u32` length prefix followed by that many payload
//! bytes, and every payload is a [`WireFrame`] envelope encoded with the
//! workspace codec. The envelope carries what every CrystalBall transport
//! needs regardless of payload type:
//!
//! * `src`/`dst` — the logical endpoints (socket identity is established
//!   once per connection; frames re-state it so a relay or a shared
//!   checker connection stays unambiguous),
//! * `cn` — the piggybacked checkpoint number of §2.3 ("every outgoing
//!   service message piggybacks `cn`"), carried on *every* frame so the
//!   checkpoint-gossip stamp costs no extra message,
//! * `kind` + `body` — a tag and an opaque payload. Service messages,
//!   snapshot `Request`/`Reply`/`Nack`s, checker submissions, and
//!   filter-install pushes each define their own body encoding one layer
//!   up; the envelope stays protocol-agnostic.
//!
//! Reading is defensive by construction: the stream end is a hostile
//! input (a churned peer dies mid-frame), so truncated frames, oversize
//! length prefixes, partial reads across buffer boundaries, and garbage
//! tag bytes all surface as [`DecodeError`]s (or `Ok(None)`: feed more) —
//! never a panic, never an unbounded allocation.

use crate::codec::{Decode, DecodeError, Encode, Reader};
use crate::node::NodeId;

/// Default ceiling on a single frame's payload size (1 MiB). Large enough
/// for any checkpoint or `StateDelta` this workspace produces, small
/// enough that a corrupt length prefix cannot balloon memory.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// What a [`WireFrame`]'s body contains.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// A protocol service message (`Protocol::Message` bytes).
    Service,
    /// A snapshot-protocol message (`cb_snapshot::SnapMsg` bytes).
    Snap,
    /// A checker submission (node, timestamp, `StateDelta` bytes).
    Submit,
    /// A filter-install push from the checker back to a live node.
    FilterInstall,
    /// Runtime control traffic (hello/goodbye handshakes).
    Control,
}

impl FrameKind {
    fn tag(self) -> u8 {
        match self {
            FrameKind::Service => 0,
            FrameKind::Snap => 1,
            FrameKind::Submit => 2,
            FrameKind::FilterInstall => 3,
            FrameKind::Control => 4,
        }
    }

    fn from_tag(t: u8) -> Result<Self, DecodeError> {
        Ok(match t {
            0 => FrameKind::Service,
            1 => FrameKind::Snap,
            2 => FrameKind::Submit,
            3 => FrameKind::FilterInstall,
            4 => FrameKind::Control,
            t => return Err(DecodeError::BadTag(t)),
        })
    }
}

/// The envelope every live-deployment frame carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireFrame {
    /// Logical sender.
    pub src: NodeId,
    /// Logical destination.
    pub dst: NodeId,
    /// The sender's checkpoint number at send time (§2.3 piggyback; 0 for
    /// endpoints without a checkpoint manager, e.g. the checker).
    pub cn: u64,
    /// Body discriminator.
    pub kind: FrameKind,
    /// Kind-specific payload, encoded one layer up.
    pub body: Vec<u8>,
}

impl WireFrame {
    /// Convenience constructor.
    pub fn new(src: NodeId, dst: NodeId, cn: u64, kind: FrameKind, body: Vec<u8>) -> Self {
        WireFrame {
            src,
            dst,
            cn,
            kind,
            body,
        }
    }
}

impl Encode for WireFrame {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.src.encode(buf);
        self.dst.encode(buf);
        self.cn.encode(buf);
        buf.push(self.kind.tag());
        self.body.len().encode(buf);
        buf.extend_from_slice(&self.body);
    }
}

impl Decode for WireFrame {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let src = NodeId::decode(r)?;
        let dst = NodeId::decode(r)?;
        let cn = u64::decode(r)?;
        let kind = FrameKind::from_tag(r.byte()?)?;
        let n = r.length()?;
        Ok(WireFrame {
            src,
            dst,
            cn,
            kind,
            body: r.take(n)?.to_vec(),
        })
    }
}

/// Appends one length-prefixed frame (`u32` LE length, then the payload)
/// to a non-blocking socket's send queue.
pub fn push_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Incremental frame reassembler for non-blocking reads.
///
/// Bytes arrive in arbitrary chunks ([`FrameBuffer::feed`]); complete
/// frames are popped with [`FrameBuffer::next_frame`]. A frame split
/// across any number of reads — including inside the 4-byte length
/// prefix — reassembles correctly; an oversize length prefix is reported
/// as [`DecodeError::BadLength`] without allocating the claimed size.
#[derive(Debug)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Read cursor into `buf` (consumed bytes are compacted away lazily).
    pos: usize,
    max_len: usize,
}

impl Default for FrameBuffer {
    fn default() -> Self {
        FrameBuffer::new(MAX_FRAME_LEN)
    }
}

impl FrameBuffer {
    /// A buffer enforcing `max_len` per frame payload.
    pub fn new(max_len: usize) -> Self {
        FrameBuffer {
            buf: Vec::new(),
            pos: 0,
            max_len,
        }
    }

    /// Appends freshly read bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing: keeps the buffer bounded by one frame
        // plus one read chunk regardless of traffic volume.
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 4096 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet popped as frames.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pops the next complete frame payload, if one has fully arrived.
    ///
    /// `Ok(None)` means "incomplete — feed more bytes". An oversize
    /// length prefix poisons the stream (there is no way to resynchronize
    /// a byte stream after a corrupt length), so the error repeats until
    /// the caller drops the connection.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, DecodeError> {
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(
            self.buf[self.pos..self.pos + 4]
                .try_into()
                .expect("4 bytes"),
        ) as usize;
        if len > self.max_len {
            return Err(DecodeError::BadLength(len));
        }
        if avail < 4 + len {
            return Ok(None);
        }
        let start = self.pos + 4;
        let payload = self.buf[start..start + len].to_vec();
        self.pos = start + len;
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn frame(kind: FrameKind, body: Vec<u8>) -> WireFrame {
        WireFrame::new(NodeId(3), NodeId(7), 42, kind, body)
    }

    #[test]
    fn wireframe_roundtrips_every_kind() {
        for kind in [
            FrameKind::Service,
            FrameKind::Snap,
            FrameKind::Submit,
            FrameKind::FilterInstall,
            FrameKind::Control,
        ] {
            let f = frame(kind, vec![1, 2, 3, 9]);
            assert_eq!(WireFrame::from_bytes(&f.to_bytes()).unwrap(), f);
        }
        let empty = frame(FrameKind::Control, Vec::new());
        assert_eq!(WireFrame::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn garbage_kind_tag_is_a_decode_error() {
        let mut bytes = frame(FrameKind::Snap, vec![5]).to_bytes();
        // The kind tag sits after src(1) + dst(1) + cn(1) varints here.
        assert_eq!(bytes[3], FrameKind::Snap.tag());
        bytes[3] = 0xEE;
        assert_eq!(
            WireFrame::from_bytes(&bytes),
            Err(DecodeError::BadTag(0xEE))
        );
    }

    #[test]
    fn truncated_wireframe_is_a_decode_error() {
        let bytes = frame(FrameKind::Service, vec![1, 2, 3]).to_bytes();
        for cut in 0..bytes.len() {
            let err = WireFrame::from_bytes(&bytes[..cut]);
            assert!(err.is_err(), "cut at {cut} must fail, got {err:?}");
        }
    }

    #[test]
    fn push_frame_writes_le_length_then_payload() {
        let mut buf = vec![0xEE];
        push_frame(&mut buf, b"same bytes");
        push_frame(&mut buf, b"");
        let mut want = vec![0xEE, 10, 0, 0, 0];
        want.extend_from_slice(b"same bytes");
        want.extend_from_slice(&[0, 0, 0, 0]);
        assert_eq!(buf, want);
    }

    #[test]
    fn frame_buffer_reassembles_across_arbitrary_boundaries() {
        let payloads: Vec<Vec<u8>> = vec![
            b"first".to_vec(),
            Vec::new(),
            vec![0xAB; 300],
            b"last".to_vec(),
        ];
        let mut wire = Vec::new();
        for p in &payloads {
            push_frame(&mut wire, p);
        }
        // Feed in every chunk size from 1 byte (worst case: the length
        // prefix itself split across four feeds) to the whole stream.
        for chunk in [1usize, 2, 3, 5, 7, 64, wire.len()] {
            let mut fb = FrameBuffer::new(1024);
            let mut out = Vec::new();
            for piece in wire.chunks(chunk) {
                fb.feed(piece);
                while let Some(f) = fb.next_frame().unwrap() {
                    out.push(f);
                }
            }
            assert_eq!(out, payloads, "chunk size {chunk}");
            assert_eq!(fb.pending_bytes(), 0);
        }
    }

    #[test]
    fn frame_buffer_oversize_length_is_sticky_error() {
        let mut fb = FrameBuffer::new(16);
        fb.feed(&1000u32.to_le_bytes());
        assert_eq!(fb.next_frame(), Err(DecodeError::BadLength(1000)));
        // The stream cannot resynchronize: the error persists.
        fb.feed(&[1, 2, 3]);
        assert_eq!(fb.next_frame(), Err(DecodeError::BadLength(1000)));
    }

    #[test]
    fn frame_buffer_random_chunking_never_corrupts_or_panics() {
        let mut r = StdRng::seed_from_u64(0xF4A3E);
        for _ in 0..64 {
            let payloads: Vec<Vec<u8>> = (0..r.gen_range(1usize..12))
                .map(|_| {
                    (0..r.gen_range(0usize..200))
                        .map(|_| (r.gen::<u32>() & 0xff) as u8)
                        .collect()
                })
                .collect();
            let mut wire = Vec::new();
            for p in &payloads {
                push_frame(&mut wire, p);
            }
            let mut fb = FrameBuffer::new(4096);
            let mut out = Vec::new();
            let mut off = 0;
            while off < wire.len() {
                let n = r.gen_range(1usize..17).min(wire.len() - off);
                fb.feed(&wire[off..off + n]);
                off += n;
                while let Some(f) = fb.next_frame().unwrap() {
                    out.push(f);
                }
            }
            assert_eq!(out, payloads);
        }
    }

    #[test]
    fn garbage_bytes_fed_to_buffer_fail_at_decode_not_at_framing() {
        // Framing itself is length-only; garbage inside a well-framed
        // payload must surface when the payload is decoded as a
        // WireFrame — as an error, not a panic.
        let mut fb = FrameBuffer::new(64);
        let mut wire = Vec::new();
        push_frame(&mut wire, &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF]);
        fb.feed(&wire);
        let payload = fb.next_frame().unwrap().unwrap();
        assert!(WireFrame::from_bytes(&payload).is_err());
    }
}
