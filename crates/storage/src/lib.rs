//! In-memory relational record manager for ReactDB-rs.
//!
//! This crate is the storage substrate referenced in §3.1 of the paper:
//! ReactDB "accepts pre-compiled stored procedures ... against a record
//! manager interface". It provides:
//!
//! * [`Schema`]/[`Column`] — relation schemas encapsulated by reactors,
//! * [`Tuple`] — a row of [`reactdb_common::Value`]s,
//! * [`Record`] — a stored row guarded by a Silo-style TID word,
//! * [`VersionedIndex`] — an ordered index whose key space is split into
//!   versioned leaf nodes (Masstree-style), the substrate of phantom-safe
//!   range scans,
//! * [`Table`] — a versioned ordered primary index plus optional secondary
//!   indexes, supporting point reads, range scans and predicate scans, all
//!   returning the node observations the OCC layer validates at commit,
//! * [`Partition`] — the set of tables owned by the reactors mapped to one
//!   database container.
//!
//! Concurrency control policy (read-set/write-set/node-set tracking,
//! validation, commit) lives in `reactdb-txn`; this crate only provides the
//! physical operations and the version metadata they rely on.

pub mod index;
pub mod partition;
pub mod record;
pub mod schema;
pub mod table;
pub mod tid;
pub mod tuple;

pub use index::{IndexNode, NodeBump, NodeObservation, NodeRef, VersionedIndex, WalkPage};
pub use partition::Partition;
pub use record::{Record, RecordRef};
pub use schema::{Column, ColumnType, RelationDef, Schema};
pub use table::{FenceEffect, SnapshotChunk, Table};
pub use tid::TidWord;
pub use tuple::Tuple;
