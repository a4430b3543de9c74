//! Peer lifecycle for one live node: dial/accept, reconnect backoff,
//! connection caps, and per-peer backpressure.
//!
//! PR 5 kept the connection table as a bare `Vec<Conn>` inside the node's
//! event loop; at 100+ nodes per process the lifecycle rules (when to
//! dial, when to refuse, when to give up) need a first-class owner — the
//! shape `spectrum-network`'s peer manager gives a libp2p swarm, shrunk
//! to this runtime's needs. The manager owns connections only — each a
//! [`FramedConn`] (which has the read/write loops) plus this module's
//! tags; every *protocol* consequence of a connection event (failure
//! handlers, slot bookkeeping, delta-lineage resets) stays in
//! [`crate::node::LiveNode`], driven by the values these methods return.
//!
//! Policies:
//! * **Dial backoff** — a failed dial marks the peer down for an
//!   exponentially growing window (capped); sends inside the window fail
//!   fast without touching the network. Any successful dial clears it.
//! * **Connection cap** — beyond [`PeerConfig::max_connections`], new
//!   accepts are refused (the stream is dropped; the dialer observes a
//!   close and runs its own failure path).
//! * **Per-peer backpressure** — a peer whose outbuf exceeds
//!   [`PeerConfig::max_peer_outbuf`] stops accepting frames; the frame is
//!   dropped and counted. The checker connection is exempt (losing a
//!   submission desyncs the delta lineage; its traffic is already
//!   self-limited by the gather cadence).

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use cb_model::{Decode, NodeId, WireFrame};

use crate::conn::{accept_pending, FramedConn};
use crate::stats::NodeStats;

static M_BACKPRESSURE_DROPS: cb_obs::metrics::Counter = cb_obs::metrics::Counter::new(
    "cb_peer_backpressure_drops_total",
    "frames dropped because a peer's outbuf exceeded its cap",
);
static M_DIAL_FAILURES: cb_obs::metrics::Counter = cb_obs::metrics::Counter::new(
    "cb_peer_dial_failures_total",
    "failed peer dials (each starts or grows a backoff window)",
);
static M_RECONNECTS: cb_obs::metrics::Counter = cb_obs::metrics::Counter::new(
    "cb_peer_reconnects_total",
    "successful dials to a peer that had a backoff entry (recoveries)",
);

/// Connection-lifecycle tuning.
#[derive(Clone, Debug)]
pub struct PeerConfig {
    /// Per-frame payload ceiling (defensive decode bound).
    pub max_frame_len: usize,
    /// Ceiling on simultaneously open connections (accepts beyond it are
    /// refused).
    pub max_connections: usize,
    /// Per-peer outbound buffer ceiling; frames beyond it are dropped
    /// (checker connection exempt).
    pub max_peer_outbuf: usize,
    /// Bound on one blocking dial attempt.
    pub dial_timeout: Duration,
    /// First reconnect-backoff window after a failed dial.
    pub dial_backoff: Duration,
    /// Backoff growth ceiling.
    pub dial_backoff_cap: Duration,
}

impl Default for PeerConfig {
    fn default() -> Self {
        PeerConfig {
            max_frame_len: cb_model::MAX_FRAME_LEN,
            max_connections: 256,
            max_peer_outbuf: 1 << 20,
            dial_timeout: Duration::from_millis(250),
            dial_backoff: Duration::from_millis(50),
            dial_backoff_cap: Duration::from_secs(2),
        }
    }
}

struct Conn {
    io: FramedConn<TcpStream>,
    peer: Option<NodeId>,
    is_checker: bool,
    /// The peer announced a graceful close; an EOF here is not a failure.
    draining: bool,
}

impl Conn {
    fn new(io: FramedConn<TcpStream>, peer: Option<NodeId>, is_checker: bool) -> Self {
        Conn {
            io,
            peer,
            is_checker,
            draining: false,
        }
    }
}

/// One frame parsed off a connection, tagged with where it came from.
pub struct InFrame {
    /// Index of the connection it arrived on (stable until the next
    /// [`PeerManager::take_dead`]).
    pub conn: usize,
    /// The decoded envelope.
    pub frame: WireFrame,
}

/// What happened to a frame handed to [`PeerManager::queue_to_peer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendOutcome {
    /// Queued on an existing connection.
    Queued,
    /// A new connection was dialed for it (the caller should record the
    /// peer in its connection table) and the frame queued behind a Hello.
    Dialed,
    /// No route: unknown address, failed dial, or active backoff window.
    Unreachable,
    /// The peer's outbuf is over its cap; the frame was dropped.
    Backpressured,
}

/// A dead connection surfaced by [`PeerManager::take_dead`], already
/// filtered down to the events the node must act on.
pub enum DeadConn {
    /// The dialed checker connection broke (delta lineages are dead).
    Checker,
    /// A peer's *last* connection went away.
    Peer {
        /// The peer in question.
        peer: NodeId,
        /// It announced a graceful close first (not a failure).
        draining: bool,
    },
}

struct Backoff {
    until: Instant,
    next: Duration,
}

/// The connection table and lifecycle policy of one live node.
pub struct PeerManager {
    cfg: PeerConfig,
    conns: Vec<Conn>,
    backoff: HashMap<NodeId, Backoff>,
}

impl PeerManager {
    /// An empty table under `cfg`.
    pub fn new(cfg: PeerConfig) -> Self {
        // Register the peer-plane families up front: a healthy run never
        // drops or redials, and an absent family is indistinguishable
        // from a lost recording point on the scrape side.
        M_BACKPRESSURE_DROPS.touch();
        M_DIAL_FAILURES.touch();
        M_RECONNECTS.touch();
        PeerManager {
            cfg,
            conns: Vec::new(),
            backoff: HashMap::new(),
        }
    }

    /// Accepts pending inbound connections (up to the cap).
    pub fn accept(&mut self, listener: &TcpListener, stats: &mut NodeStats) {
        for io in accept_pending(listener, self.cfg.max_frame_len) {
            if self.conns.len() >= self.cfg.max_connections {
                // Refused: dropping the stream closes it; the dialer sees
                // EOF and runs its failure path.
                stats.conns_refused += 1;
                continue;
            }
            self.conns.push(Conn::new(io, None, false));
        }
    }

    /// Drains every readable socket, parsing complete frames into `out`.
    /// Corrupt framing kills the connection; garbage inside a well-framed
    /// payload drops only that frame.
    pub fn read_frames(&mut self, stats: &mut NodeStats, out: &mut Vec<InFrame>) {
        for (ix, conn) in self.conns.iter_mut().enumerate() {
            stats.bytes_received += conn.io.fill() as u64;
            while let Some(payload) = conn.io.next_frame() {
                let Ok(frame) = WireFrame::from_bytes(&payload) else {
                    continue;
                };
                stats.frames_received += 1;
                if conn.peer.is_none() && !conn.is_checker {
                    conn.peer = Some(frame.src);
                }
                out.push(InFrame { conn: ix, frame });
            }
        }
    }

    /// Writes as much buffered output as the sockets will take.
    pub fn flush(&mut self, stats: &mut NodeStats) {
        for conn in &mut self.conns {
            stats.bytes_sent += conn.io.flush() as u64;
        }
    }

    /// Queues `frame` to `peer`, dialing (with `hello` first on the new
    /// connection) when no live connection exists. `addr` is consulted
    /// only when dialing.
    pub fn queue_to_peer(
        &mut self,
        peer: NodeId,
        frame: &[u8],
        now: Instant,
        stats: &mut NodeStats,
        addr: impl FnOnce() -> Option<SocketAddr>,
        hello: impl FnOnce() -> Vec<u8>,
    ) -> SendOutcome {
        if let Some(ix) = self
            .conns
            .iter()
            .position(|c| c.peer == Some(peer) && !c.io.is_dead())
        {
            let c = &mut self.conns[ix];
            if !c.is_checker && c.io.queued_bytes() + frame.len() > self.cfg.max_peer_outbuf {
                M_BACKPRESSURE_DROPS.inc();
                stats.frames_dropped_backpressure += 1;
                return SendOutcome::Backpressured;
            }
            c.io.queue(frame);
            return SendOutcome::Queued;
        }
        if let Some(b) = self.backoff.get(&peer) {
            if now < b.until {
                return SendOutcome::Unreachable;
            }
        }
        if self.conns.len() >= self.cfg.max_connections {
            stats.conns_refused += 1;
            return SendOutcome::Unreachable;
        }
        let dial = |a| TcpStream::connect_timeout(&a, self.cfg.dial_timeout).ok();
        let Some(stream) = addr().and_then(dial) else {
            self.note_dial_failure(peer, now, stats);
            return SendOutcome::Unreachable;
        };
        if self.backoff.remove(&peer).is_some() {
            M_RECONNECTS.inc();
        }
        let mut io = FramedConn::tcp(stream, self.cfg.max_frame_len);
        io.queue(&hello());
        stats.frames_sent += 1;
        io.queue(frame);
        self.conns.push(Conn::new(io, Some(peer), false));
        SendOutcome::Dialed
    }

    fn note_dial_failure(&mut self, peer: NodeId, now: Instant, stats: &mut NodeStats) {
        M_DIAL_FAILURES.inc();
        stats.dials_failed += 1;
        let next = self
            .backoff
            .get(&peer)
            .map(|b| (b.next * 2).min(self.cfg.dial_backoff_cap))
            .unwrap_or(self.cfg.dial_backoff);
        self.backoff.insert(
            peer,
            Backoff {
                until: now + next,
                next,
            },
        );
    }

    /// Finds (or dials, sending `hello` first) the checker connection.
    /// Returns its index plus whether it was just dialed (the caller must
    /// restart its delta lineages on a fresh connection).
    pub fn ensure_checker(
        &mut self,
        stats: &mut NodeStats,
        addr: impl FnOnce() -> Option<SocketAddr>,
        hello: impl FnOnce() -> Vec<u8>,
    ) -> Option<(usize, bool)> {
        if let Some(ix) = self.checker_ix() {
            return Some((ix, false));
        }
        let addr = addr()?;
        let stream = TcpStream::connect_timeout(&addr, self.cfg.dial_timeout).ok()?;
        let mut io = FramedConn::tcp(stream, self.cfg.max_frame_len);
        io.queue(&hello());
        stats.frames_sent += 1;
        self.conns.push(Conn::new(io, None, true));
        Some((self.conns.len() - 1, true))
    }

    /// The live checker connection's index, if one exists (never dials).
    pub fn checker_ix(&self) -> Option<usize> {
        self.conns
            .iter()
            .position(|c| c.is_checker && !c.io.is_dead())
    }

    /// Queues raw frame bytes on connection `ix` (no backpressure check —
    /// used for the checker link and drain-time goodbyes).
    pub fn push_frame_to(&mut self, ix: usize, frame: &[u8]) {
        self.conns[ix].io.queue(frame);
    }

    /// Binds connection `ix` to a logical peer (Hello received).
    pub fn mark_peer(&mut self, ix: usize, node: NodeId) {
        if let Some(c) = self.conns.get_mut(ix) {
            c.peer = Some(node);
        }
    }

    /// Marks connection `ix` as gracefully draining (Goodbye received).
    pub fn mark_draining(&mut self, ix: usize) {
        if let Some(c) = self.conns.get_mut(ix) {
            c.draining = true;
        }
    }

    /// Whether connection `ix` is the dialed checker link.
    pub fn is_checker(&self, ix: usize) -> bool {
        self.conns.get(ix).is_some_and(|c| c.is_checker)
    }

    /// Closes every connection to `peer` (our choice, not a failure).
    pub fn close_peer(&mut self, peer: NodeId) {
        for c in &mut self.conns {
            if c.peer == Some(peer) {
                c.io.kill();
                c.draining = true;
            }
        }
    }

    /// Peers with a live non-checker connection (drain-time Goodbyes).
    pub fn goodbye_targets(&self) -> Vec<NodeId> {
        self.conns
            .iter()
            .filter_map(|c| c.peer.filter(|_| !c.io.is_dead() && !c.is_checker))
            .collect()
    }

    /// Removes dead connections, reporting the ones the node must react
    /// to: a dead checker link, and peers whose *last* connection died.
    pub fn take_dead(&mut self) -> Vec<DeadConn> {
        let (dead, kept): (Vec<Conn>, Vec<Conn>) = std::mem::take(&mut self.conns)
            .into_iter()
            .partition(|c| c.io.is_dead());
        self.conns = kept;
        let mut out = Vec::new();
        for c in dead {
            if c.is_checker {
                out.push(DeadConn::Checker);
                continue;
            }
            let Some(peer) = c.peer else { continue };
            if self.conns.iter().any(|k| k.peer == Some(peer)) {
                continue;
            }
            out.push(DeadConn::Peer {
                peer,
                draining: c.draining,
            });
        }
        out
    }

    /// True when every live connection's outbuf is drained.
    pub fn outbufs_empty(&self) -> bool {
        self.conns.iter().all(|c| c.io.is_flushed())
    }

    /// Drops every connection on the floor (abrupt kill).
    pub fn clear(&mut self) {
        self.conns.clear();
    }

    /// Appends `(fd, wants_write)` for the listener-less connection set —
    /// what the reactor registers with `poll(2)`.
    #[cfg(unix)]
    pub fn io_fds(&self, out: &mut Vec<(std::os::fd::RawFd, bool)>) {
        out.extend(
            self.conns
                .iter()
                .filter(|c| !c.io.is_dead())
                .map(|c| c.io.io_fd()),
        );
    }
}
