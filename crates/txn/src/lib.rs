//! Concurrency control for ReactDB-rs.
//!
//! ReactDB reuses Silo's optimistic concurrency control for transactions
//! inside a container and a two-phase commit protocol for transactions that
//! span containers (§3.2). This crate implements both:
//!
//! * [`EpochManager`] — the global epoch counter that bounds TID generation,
//! * [`TidGen`] — per-executor generator of commit TIDs satisfying Silo's
//!   three constraints (greater than every observed TID, greater than the
//!   worker's previous TID, within the current epoch),
//! * [`OccTxn`] — the per-container participant state of a transaction: read
//!   set, write set, and the transactional read/insert/update/delete/scan
//!   operations used by the reactor execution context,
//! * [`Coordinator`] — commit of a set of participants, running the Silo
//!   validation protocol locally and two-phase commit across containers,
//! * [`LogSink`]/[`RedoRecord`] — the commit-time durability hook: the
//!   coordinator renders the validated write set as redo records and hands
//!   them to a sink (implemented by `reactdb-wal`) for epoch-based group
//!   commit.

pub mod coordinator;
pub mod epoch;
pub mod logging;
pub mod occ;
pub mod tidgen;

pub use coordinator::{CommitOutcome, Coordinator};
pub use epoch::EpochManager;
pub use logging::{LogSink, NullSink, RedoPayload, RedoRecord};
pub use occ::{OccTxn, WriteKind};
pub use tidgen::TidGen;
