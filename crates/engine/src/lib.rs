//! ReactDB runtime: flexible virtualization of database architecture.
//!
//! The engine realises the system design of §3: the reactor database is
//! deployed over a set of *containers* (isolated memory regions with their
//! own concurrency control) and *transaction executors* (request queues
//! processed by threads), according to a [`reactdb_common::DeploymentConfig`]
//! that an infrastructure engineer can change without touching any
//! application code.
//!
//! * [`Container`] — a partition of reactor state plus its OCC machinery,
//! * [`ExecutorHandle`] — a transaction executor: a request queue, the
//!   threads draining it, and the executor's TID generator,
//! * [`Router`] — maps root transactions (round-robin or affinity) and
//!   sub-transactions (affinity) to executors,
//! * [`ReactDB`] — the database itself: bootstraps a deployment from a
//!   [`reactdb_core::ReactorDatabaseSpec`], accepts root-transaction
//!   invocations from clients, dispatches cross-container sub-transactions,
//!   enforces the intra-transaction safety condition and commits via Silo
//!   OCC + 2PC,
//! * [`Client`] / [`TxnHandle`] — the client session layer: pipelined
//!   submission of root transactions with validation-time (`wait`) or
//!   durability-gated (`wait_durable`) acknowledgement, plus
//!   [`RetryPolicy`]-driven OCC retries,
//! * [`ReactDB::metrics`] — every count the instance keeps, read from the
//!   one `reactdb_obs::Metrics` registry it shares with its WAL and any wire
//!   server in front of it.
//!
//! Threading model: each executor owns `mpl` worker threads. A worker that
//! must wait for a remote sub-transaction keeps draining its own request
//! queue while it waits (cooperative multitasking, §3.2.3), so executors can
//! never deadlock on mutual sub-transaction calls.

pub mod client;
pub mod container;
pub mod database;
pub mod executor;
pub mod request;
pub mod router;

pub use client::{Call, Client, RetryPolicy, SessionStats, TxnHandle};
pub use container::Container;
pub use database::ReactDB;
pub use executor::ExecutorHandle;
pub use reactdb_common::AckLevel;
pub use reactdb_obs::{
    AbortReason, Counter, Gauge, Histogram, HistogramSummary, MetricsSnapshot, Phase, TraceEvent,
    TraceKind,
};
pub use request::{Request, RootTxn};
pub use router::Router;
