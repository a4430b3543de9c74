//! # cb-snapshot — checkpointing and consistent neighborhood snapshots
//!
//! CrystalBall's predictions are only meaningful if the state fed to the
//! checker is a *consistent* view of the neighborhood: "To avoid false
//! positives, we ensure that the neighborhood snapshot corresponds to a
//! consistent view of a distributed system at some point of logical time"
//! (§3.1). This crate implements that machinery:
//!
//! * [`CheckpointManager`] — per-node logical clocks, forced checkpoints on
//!   message receipt, the gather protocol with nack/retry rounds, per-node
//!   storage quotas, and the bandwidth-limiting of §3.1 (the algorithm of
//!   §2.3, after Manivannan–Singhal);
//! * [`SnapMsg`] — the snapshot-protocol wire messages (corresponding to
//!   the code the modified Mace compiler generates for `snapshot_on`
//!   services, §4);
//! * [`SlotDelta`] — the one diff entry both hops ship, unchanged <
//!   patch < full against the last bytes sent for the same key (§3.1's
//!   diffs and duplicate suppression), tracked by one crate-private
//!   `BaseMap` per side — the only caller of [`diff`] and [`lzw`], the
//!   patch format and the LZW compressor the paper uses (§4);
//! * [`delta`] — the same diff idea one hop later, on a deployed node's
//!   (FIFO) connection to the checker: a [`DeltaEncoder`]/[`DeltaDecoder`]
//!   pair ships `GlobalState`s as [`StateDelta`]s against the last one sent;
//! * [`CheckpointStore`] — bounded storage with oldest-first pruning.
//!
//! Integration: the live runtime (`cb-runtime`) owns one manager per node,
//! piggybacks [`CheckpointManager::stamp_out`] on every service message and
//! calls [`CheckpointManager::note_incoming`] before every handler — the
//! same placement as the code Mace's modified compiler inserts. Snapshot
//! messages travel through the same simulated network as service traffic,
//! so checkpoint bandwidth competes with the application exactly as in
//! Fig. 17.

#![forbid(unsafe_code)]

mod base;
pub mod checkpoint;
pub mod delta;
pub mod diff;
pub mod lzw;
pub mod manager;

pub use checkpoint::{Checkpoint, CheckpointStore};
pub use delta::{DeltaDecoder, DeltaEncoder, DeltaError, DeltaStats, SlotDelta, StateDelta};
pub use diff::{apply_diff, encode_diff, Diff};
pub use manager::{CheckpointManager, SnapMsg, Snapshot, SnapshotConfig, SnapshotStats};
