//! Common foundation types for ReactDB-rs.
//!
//! This crate contains the vocabulary shared by every other crate in the
//! workspace: relational [`Value`]s and keys, identifiers for reactors,
//! containers, executors and transactions, the error taxonomy, the
//! deployment configuration model (the paper's "configuration file" that
//! virtualizes database architecture, §3.3) and random-distribution helpers
//! used by the workloads.
//!
//! Nothing in this crate depends on the storage engine, the concurrency
//! control layer or the runtime; it is the bottom of the dependency stack.

pub mod ack;
pub mod bytes;
pub mod config;
pub mod error;
pub mod ids;
pub mod value;
pub mod zipf;

pub use ack::AckLevel;
pub use config::{
    CheckpointConfig, DeploymentConfig, DeploymentStrategy, DurabilityConfig, ExecutorConfig,
    ReplicationConfig, RouterPolicy, TracingConfig,
};
pub use error::{Result, TxnError};
pub use ids::{ContainerId, ExecutorId, ReactorId, ReactorName, SubTxnId, TxnId};
pub use value::{Key, Value};
