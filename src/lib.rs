//! Facade crate for the CrystalBall reproduction workspace.
//!
//! Re-exports every sub-crate under one roof so the examples and the
//! integration-test suite can use a single dependency. `README.md` maps the
//! crates; `tests/paper_claims.rs` and `tests/table1_bugs.rs` check the
//! paper's evaluation claim by claim.

#![forbid(unsafe_code)]

pub use cb_fleet as fleet;
pub use cb_live as live;
pub use cb_mc as mc;
pub use cb_model as model;
pub use cb_net as net;
pub use cb_obs as obs;
pub use cb_protocols as protocols;
pub use cb_runtime as runtime;
pub use cb_snapshot as snapshot;
pub use crystalball as core;
