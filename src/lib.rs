//! ReactDB-rs facade crate.
//!
//! Re-exports the public API of the workspace crates so that applications
//! can depend on a single crate. See the README for a quickstart.
//!
//! The primary client surface is the session layer: boot a
//! [`ReactDB`](engine::ReactDB), open a [`Client`] with
//! `db.client()`, and submit root transactions — pipelined via
//! [`Client::submit`]/[`Client::submit_batch`] (each returning a
//! [`TxnHandle`]), or synchronously via [`Client::invoke`]. Handles resolve
//! at validation time (`wait`) or at group-commit time (`wait_durable`,
//! the Silo-faithful durable acknowledgement); [`RetryPolicy`] handles
//! transient OCC aborts.

pub use reactdb_common as common;
pub use reactdb_core as core;
pub use reactdb_engine as engine;
pub use reactdb_obs as obs;
pub use reactdb_sim as sim;
pub use reactdb_storage as storage;
pub use reactdb_txn as txn;
pub use reactdb_wal as wal;
pub use reactdb_workloads as workloads;

pub use reactdb_engine::{Call, Client, ReactDB, RetryPolicy, SessionStats, TxnHandle};
pub use reactdb_obs::{AbortReason, MetricsSnapshot, Phase, TraceEvent, TraceKind};
