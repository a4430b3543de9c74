//! # cb-runtime — the live node runtime (discrete-event simulation driver)
//!
//! The counterpart of the Mace runtime in Fig. 7: it "receives the messages
//! coming from the network, demultiplexes them, and invokes the appropriate
//! state machine handlers ... and maintains the timers on behalf of all
//! services". Because our ModelNet substitute is a deterministic
//! discrete-event simulator (`cb-net`), the runtime doubles as the
//! simulation driver for whole-system experiments:
//!
//! * [`Simulation`] — owns the [`cb_model::GlobalState`], the network
//!   model, the timer wheel, one [`cb_snapshot::CheckpointManager`] per
//!   node (periodic checkpoints + neighborhood gathers, with snapshot
//!   traffic metered through the same access links as service traffic),
//!   and the scenario script;
//! * [`Hook`] — the interposition interface CrystalBall plugs into: it sees
//!   every delivery and timer before the handler runs (event filters and
//!   the immediate safety check veto them there), every applied step, and
//!   every completed snapshot;
//! * [`Scenario`] — scripted environment events (external actions, resets,
//!   partitions, churn), all derived deterministically from a seed;
//! * [`SimStats`] — the counters behind §5.4.1's report (actions executed,
//!   behavior changes, inconsistent states entered, ...).
//!
//! The runtime reuses `cb_model::apply_event` for every state transition,
//! so live execution and model checking run literally the same handler
//! code — the property CrystalBall's predictions depend on (§4).

#![forbid(unsafe_code)]

pub mod hook;
pub mod scenario;
pub mod sim;
pub mod stats;

pub use hook::{Decision, Hook, NoHook};
pub use scenario::{Scenario, ScriptEvent};
pub use sim::{SimConfig, Simulation, SnapshotRuntime};
pub use stats::SimStats;
