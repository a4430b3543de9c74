//! # cb-live — the socket-based deployment runtime
//!
//! Everything below `cb-live` runs CrystalBall inside a discrete-event
//! simulator; this crate runs it the way the paper deployed it (§2.3, §5:
//! ModelNet and PlanetLab): **N protocol nodes as pollable state machines
//! on reactor threads, on wall-clock schedules, talking length-prefixed
//! frames over loopback TCP**. The full loop executes outside the
//! simulator for the first time:
//!
//! 1. service messages carry the §2.3 checkpoint-number piggyback in their
//!    [`cb_model::WireFrame`] envelope; receipt drives
//!    [`cb_snapshot::CheckpointManager::note_incoming`] exactly as the
//!    modified Mace compiler's generated code does,
//! 2. neighborhood snapshots are gathered **over the wire** — request,
//!    reply, Nack and the single retry round are all real frames on real
//!    sockets, guarded by a liveness timeout so a dead peer cannot wedge
//!    the requester,
//! 3. the completed snapshot is diff-shipped to a **checker process**
//!    ([`checker`], a server on a reactor of its own) the node can only
//!    reach by socket; rounds run on the same sharded `CheckerPool` the
//!    in-process controller uses,
//! 4. predicted violations come back as **filter-install pushes**; the
//!    node's receive path consults the installed filters before invoking
//!    any handler — wire-delivered execution steering (§3.3).
//!
//! A seeded churn/partition injector ([`deployment`]) replays
//! `cb-fleet`'s [`cb_fleet::faults::FaultPlan`] as socket-level drops and
//! real thread kills, so the fault model carries over from the simulated
//! fleet to the live deployment.
//!
//! **What determinism is and is not promised:** the fault schedule and
//! every per-node jitter stream are seeded, and nodes, the checker server
//! and the registry server know only the `now` their reactor passes them
//! ([`reactor`] is the one place that blocks or reads the clock) — but
//! reactor threads interleave under a real scheduler, so two runs are not
//! byte-identical. Tests in this scenario class assert protocol-level
//! safety outcomes and steering effects (violations observed, filters
//! installed over the wire, filter hits), never trace equality. See
//! `ARCHITECTURE.md` for the full contract.

#![deny(unsafe_code)]

pub mod adapters;
pub mod checker;
pub mod conn;
pub mod deployment;
pub mod node;
pub mod peer;
pub mod reactor;
pub mod registry;
pub mod stats;
pub mod wire;

pub use adapters::{
    drive_paxos_rounds, live_checker_config, paxos_deployment, randtree_deployment,
    randtree_deployment_on, randtree_deployment_with,
};
pub use cb_net::{FaultDecision, LiveFault};
pub use checker::{spawn_checker, CheckerHandle};
pub use deployment::{wait_until, DeploymentBuilder, LiveConfig, LiveDeployment, LiveReport};
pub use node::{
    ExitKind, LinkTable, LiveNode, LiveNodeConfig, NodeCtl, NodeExit, NodeReport, NodeSeed,
    Registry,
};
pub use peer::{PeerConfig, PeerManager, SendOutcome};
pub use reactor::{spawn_reactor, Hosted, IoReadiness, PollStatus, ReactorCtl, ReactorHandle};
pub use registry::{Addressing, RegistryServer, RemoteRegistry};
pub use stats::{CheckerProcessStats, LatencySummary, LiveStats, NodeStats};
pub use wire::{CtrlMsg, InstallBody, SubmitBody};
