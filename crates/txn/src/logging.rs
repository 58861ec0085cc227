//! The commit-time logging interface.
//!
//! Durability is layered *under* the concurrency control: when a transaction
//! passes Silo validation and installs its writes, the coordinator renders
//! the valided write set as [`RedoRecord`]s — one per written row, addressed
//! by (container, reactor, relation, primary key) — and hands the batch to a
//! [`LogSink`] together with the commit TID. The sink is expected to buffer;
//! group commit (fsync on epoch boundaries) is the sink implementation's
//! concern (see the `reactdb-wal` crate). Transactions that span containers
//! (2PC) produce records for every participating container in one batch, so
//! no participant's effects can be lost while another's survive.
//!
//! A record's [`RedoPayload`] is the row's full after-image or a deletion
//! tombstone; recovery re-applies it by commit TID, so replay never
//! depends on the image the update overwrote.
//!
//! Keeping the trait here (and not in the WAL crate) means the concurrency
//! control layer has no dependency on any I/O machinery: tests and the
//! simulator can plug in in-memory sinks.

use reactdb_common::{ContainerId, Key, ReactorId};
use reactdb_storage::{TidWord, Tuple};

/// What one redo record carries for its row.
#[derive(Debug, Clone, PartialEq)]
pub enum RedoPayload {
    /// Full row image after the transaction (inserts and updates).
    Full(Tuple),
    /// Deletion tombstone.
    Delete,
}

/// One logged row mutation: everything recovery needs to re-apply the write.
#[derive(Debug, Clone, PartialEq)]
pub struct RedoRecord {
    /// Container whose partition held the row (participant of the commit).
    pub container: ContainerId,
    /// Reactor whose state the row belongs to.
    pub reactor: ReactorId,
    /// Relation name within the reactor.
    pub relation: String,
    /// Primary key of the row.
    pub key: Key,
    /// The row mutation: full image or tombstone.
    pub payload: RedoPayload,
}

impl RedoRecord {
    /// The full after-image; `None` for tombstones.
    pub fn image(&self) -> Option<&Tuple> {
        match &self.payload {
            RedoPayload::Full(tuple) => Some(tuple),
            RedoPayload::Delete => None,
        }
    }

    /// True for deletion tombstones.
    pub fn is_delete(&self) -> bool {
        matches!(self.payload, RedoPayload::Delete)
    }
}

/// Receiver of commit-time redo batches.
pub trait LogSink {
    /// Called once per committed transaction, after its writes were
    /// installed, with the commit TID and the redo records of every
    /// participating container. Implementations buffer; they must not block
    /// on I/O on this path.
    fn log_commit(&self, tid: TidWord, records: &[RedoRecord]);
}

/// A sink that drops everything (durability off).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl LogSink for NullSink {
    fn log_commit(&self, _tid: TidWord, _records: &[RedoRecord]) {}
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use std::sync::Mutex;

    /// Test sink collecting every batch it receives.
    #[derive(Debug, Default)]
    pub struct MemorySink {
        pub batches: Mutex<Vec<(TidWord, Vec<RedoRecord>)>>,
    }

    impl LogSink for MemorySink {
        fn log_commit(&self, tid: TidWord, records: &[RedoRecord]) {
            self.batches.lock().unwrap().push((tid, records.to_vec()));
        }
    }
}
