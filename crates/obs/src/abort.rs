//! The abort-cause taxonomy.
//!
//! The engine previously distinguished only "concurrency-control abort" and
//! "phantom abort" (plus user/dangerous). Diagnosing a deployment needs the
//! full breakdown: an OCC read-set conflict points at contended keys, a
//! phantom at scan/insert interleavings, a 2PC lock-busy abort at
//! cross-container contention, a WAL failure at the log device.

use reactdb_common::TxnError;

/// Why a root transaction aborted. Classified once per resolved handle by
/// [`AbortReason::classify`]; every counter surface (the metrics registry,
/// `SessionStats`, trace events) uses this taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// Silo read-set validation failed: a read tuple's version moved or its
    /// lock was held by another transaction at commit time.
    OccRead,
    /// Node-set (phantom) validation failed: a scanned range or observed-
    /// absent key changed membership before commit.
    Phantom,
    /// The commit was aborted by the distributed (2PC) protocol — a
    /// participant could not proceed, typically because required resources
    /// were busy.
    LockBusy,
    /// The intra-transaction safety condition (§2.2.4) rejected a dangerous
    /// call structure.
    DangerousStructure,
    /// The write-ahead log failed while the transaction's durability was
    /// being established (group commit I/O error).
    WalFailure,
    /// Application logic aborted the transaction (`ctx.abort`).
    UserAbort,
    /// Any other error surfaced through a handle: unknown names, schema
    /// violations, runtime faults.
    Other,
}

impl AbortReason {
    /// Every reason, in counter/reporting order.
    pub const ALL: [AbortReason; 7] = [
        AbortReason::OccRead,
        AbortReason::Phantom,
        AbortReason::LockBusy,
        AbortReason::DangerousStructure,
        AbortReason::WalFailure,
        AbortReason::UserAbort,
        AbortReason::Other,
    ];

    /// Stable snake_case name used in metric names and labels.
    pub fn name(self) -> &'static str {
        match self {
            AbortReason::OccRead => "occ_read",
            AbortReason::Phantom => "phantom",
            AbortReason::LockBusy => "lock_busy",
            AbortReason::DangerousStructure => "dangerous_structure",
            AbortReason::WalFailure => "wal_failure",
            AbortReason::UserAbort => "user_abort",
            AbortReason::Other => "other",
        }
    }

    /// Classifies a transaction error. Total: every `TxnError` maps to
    /// exactly one reason, and the concurrency-control reasons
    /// ([`AbortReason::is_cc`]) are exactly the errors
    /// `TxnError::is_cc_abort` reports, so the exported `txn_cc_aborts` is
    /// derived from the breakdown.
    pub fn classify(error: &TxnError) -> AbortReason {
        match error {
            TxnError::Phantom => AbortReason::Phantom,
            TxnError::ValidationFailed => AbortReason::OccRead,
            TxnError::CommitAborted => AbortReason::LockBusy,
            TxnError::DangerousStructure { .. } => AbortReason::DangerousStructure,
            TxnError::UserAbort(_) => AbortReason::UserAbort,
            TxnError::Runtime(msg) if msg.starts_with("group commit failed") => {
                AbortReason::WalFailure
            }
            _ => AbortReason::Other,
        }
    }

    /// True for the concurrency-control reasons (retry-transparent):
    /// occ-read, phantom, lock-busy.
    pub fn is_cc(self) -> bool {
        matches!(
            self,
            AbortReason::OccRead | AbortReason::Phantom | AbortReason::LockBusy
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_error_taxonomy() {
        assert_eq!(
            AbortReason::classify(&TxnError::Phantom),
            AbortReason::Phantom
        );
        assert_eq!(
            AbortReason::classify(&TxnError::ValidationFailed),
            AbortReason::OccRead
        );
        assert_eq!(
            AbortReason::classify(&TxnError::CommitAborted),
            AbortReason::LockBusy
        );
        assert_eq!(
            AbortReason::classify(&TxnError::DangerousStructure {
                reactor: "r".into()
            }),
            AbortReason::DangerousStructure
        );
        assert_eq!(
            AbortReason::classify(&TxnError::UserAbort("no".into())),
            AbortReason::UserAbort
        );
        assert_eq!(
            AbortReason::classify(&TxnError::Runtime("group commit failed: io".into())),
            AbortReason::WalFailure
        );
        assert_eq!(
            AbortReason::classify(&TxnError::Runtime("boom".into())),
            AbortReason::Other
        );
        assert_eq!(
            AbortReason::classify(&TxnError::NotFound {
                relation: "r".into(),
                key: "1".into()
            }),
            AbortReason::Other
        );
    }

    #[test]
    fn cc_reasons_agree_with_the_error_helper() {
        let errors = [
            TxnError::Phantom,
            TxnError::ValidationFailed,
            TxnError::CommitAborted,
            TxnError::DangerousStructure {
                reactor: "r".into(),
            },
            TxnError::UserAbort("a".into()),
            TxnError::Runtime("x".into()),
            TxnError::NotFound {
                relation: "r".into(),
                key: "1".into(),
            },
            TxnError::DuplicateKey {
                relation: "r".into(),
                key: "1".into(),
            },
        ];
        for e in &errors {
            assert_eq!(
                AbortReason::classify(e).is_cc(),
                e.is_cc_abort(),
                "cc mismatch for {e:?}"
            );
        }
    }
}
