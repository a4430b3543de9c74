//! # cb-model — the CrystalBall system model
//!
//! This crate implements the formal model of a distributed system from
//! Figure 4 of the CrystalBall paper (Yabandeh et al., NSDI 2009) and the
//! shared vocabulary used by every other crate in the workspace:
//!
//! * [`NodeId`] — node identifiers (the paper's set *N*),
//! * [`Protocol`] — the per-node state machine (*H_M* message handlers and
//!   *H_A* internal-action handlers), implemented once and then driven both
//!   by the live runtime (`cb-runtime`) and by the model checker (`cb-mc`);
//!   running the *same handler code* live and inside the checker is the
//!   property CrystalBall's predictions rely on,
//! * [`GlobalState`] — the global system state *(L, I)*: per-node local
//!   states plus the multiset of in-flight messages,
//! * [`Event`] and [`apply_event`] — one step of the transition relation
//!   `(L, I) ~> (L', I')`,
//! * [`Property`] — user-specified safety properties checked over global
//!   states,
//! * [`Encode`]/[`Decode`] — a compact deterministic codec used for node
//!   checkpoints (so checkpoint sizes and bandwidth can be measured the way
//!   §5.5 of the paper reports them),
//! * [`WireFrame`]/[`FrameBuffer`] — the length-prefixed frame envelope the
//!   live deployment runtime (`cb-live`) moves over real TCP sockets,
//! * [`stable_hash`] — deterministic 64-bit hashing used for the checker's
//!   `explored`/`localExplored` sets (the paper stores hashes, not states),
//! * [`SimTime`]/[`SimDuration`] — the simulated clock shared by the network
//!   substrate and the runtime.
//!
//! The model extends Figure 4 with the minimum connection-level detail the
//! paper's bug scenarios require: each node slot carries an *incarnation*
//! counter (bumped on reset) and a table of open connections, so that
//! messages sent over a connection that predates a peer's reset bounce back
//! as transport errors — the "TCP RST" signals that drive the RandTree and
//! Chord inconsistencies of §1.2 and §5.2.

#![forbid(unsafe_code)]

pub mod codec;
pub mod event;
pub mod frame;
pub mod hashing;
pub mod memo;
pub mod node;
pub mod property;
pub mod protocol;
pub mod state;
pub mod testproto;
pub mod time;

pub use codec::{Decode, DecodeError, Encode, Reader};
pub use event::{
    apply_event, enumerate_events, enumerate_events_gated, Event, EventKey, ExploreOptions,
    TraceStep,
};
pub use frame::{push_frame, FrameBuffer, FrameKind, WireFrame, MAX_FRAME_LEN};
pub use hashing::{stable_hash, Fnv64, StableHasher};
pub use memo::{Deferred, Expansion, Probe, TransitionMemo};
pub use node::{AddrMap, NodeId};
pub use property::{
    global_property, node_property, pairwise_property, Property, PropertySet, Violation,
};
pub use protocol::{Outbox, Protocol, Schedule};
pub use state::{GlobalState, InFlight, NodeSlot, Payload, Queued, SharedSlot};
pub use time::{SimDuration, SimTime};
