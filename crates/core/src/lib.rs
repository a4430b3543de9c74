//! # crystalball — the CrystalBall controller
//!
//! The controller of Fig. 7, tying the pieces together: it consumes
//! consistent neighborhood snapshots from the checkpoint manager, runs
//! consequence prediction over them, and — depending on the mode — either
//! reports the predicted inconsistencies (**deep online debugging**) or
//! installs event filters that steer execution away from them
//! (**execution steering**), with the **immediate safety check** as the
//! last line of defense (§3.3).
//!
//! The [`Controller`] implements `cb_runtime::Hook`, so plugging CrystalBall
//! into a simulation is one constructor call:
//!
//! ```
//! use cb_model::{NodeId, PropertySet};
//! use cb_protocols::randtree::{self, RandTree, RandTreeBugs};
//! use cb_runtime::{SimConfig, Simulation};
//! use crystalball::{Controller, ControllerConfig, Mode};
//!
//! let proto = RandTree::new(2, vec![NodeId(0)], RandTreeBugs::as_shipped());
//! let controller = Controller::new(
//!     proto.clone(),
//!     randtree::properties::all(),
//!     ControllerConfig { mode: Mode::ExecutionSteering, ..ControllerConfig::default() },
//! );
//! let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
//! let mut sim = Simulation::new(
//!     proto,
//!     &nodes,
//!     randtree::properties::all(),
//!     controller,
//!     SimConfig::default(),
//! );
//! sim.run_for(cb_model::SimDuration::from_secs(1));
//! ```

pub mod agent;
pub mod cache;
pub mod controller;
pub mod service;

pub use agent::NodeAgent;
pub use cache::{CacheStats, PredictionCache};
pub use controller::{
    checker_pool, Controller, ControllerConfig, ControllerStats, Mode, PredictionReport,
};
pub use service::{CheckerHost, CheckerMode, WireChecker, WireRound};

pub use cb_mc::WorkerPool;
