//! # cb-bench — shared bench and test scaffolding
//!
//! - [`scenarios`]: the canonical live states (§1.3's "system that has been
//!   running for a significant amount of time") that the integration
//!   tests, the paper-claims ledger (`tests/paper_claims.rs`), the bench
//!   targets and `benchmark/` start from;
//! - [`matrix`]: the CI determinism matrix's worker/seed/cache legs;
//! - [`harness`]: helpers for the `harness = false` throughput benches
//!   (`cargo bench -p cb-bench --bench <name>`).

#![forbid(unsafe_code)]

pub mod harness;
pub mod matrix;
pub mod scenarios;
