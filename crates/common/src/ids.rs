//! Identifiers for the entities of the reactor model and the ReactDB runtime.
//!
//! Reactors are purely logical entities addressed by *declared names* for the
//! lifetime of the application (§2.2.1). Internally the runtime assigns each
//! name a dense numeric [`ReactorId`] used by the deployment mapping
//! (reactor → container → executor). Transactions and sub-transactions carry
//! [`TxnId`]/[`SubTxnId`] so the intra-transaction safety condition (§2.2.4)
//! and the history formalism (§2.3) can refer to them.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The application-visible name of a reactor (e.g. `"warehouse-3"`,
/// `"MC_US"`). Names are stable for the lifetime of the reactor database.
pub type ReactorName = String;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord,
        )]
        pub struct $name(pub u64);

        impl $name {
            /// Returns the raw numeric value.
            pub fn raw(self) -> u64 {
                self.0
            }
            /// Returns the id as a usize, convenient for indexing vectors.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                $name(v)
            }
        }
        impl From<usize> for $name {
            fn from(v: usize) -> Self {
                $name(v as u64)
            }
        }
        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}({})", stringify!($name), self.0)
            }
        }
    };
}

id_type!(
    /// Dense internal identifier of a reactor within a reactor database.
    ReactorId
);
id_type!(
    /// Identifier of a database container (an isolated shared-memory region
    /// with its own concurrency control, §3.1).
    ContainerId
);
id_type!(
    /// Identifier of a transaction executor (thread pool + request queue
    /// pinned to a core, §3.1).
    ExecutorId
);
id_type!(
    /// Identifier of a root transaction.
    TxnId
);
id_type!(
    /// Identifier of a sub-transaction within a root transaction.
    SubTxnId
);

/// Monotonic generator for root transaction identifiers.
///
/// The generator is shared by all client workers of a database instance; ids
/// are unique but carry no ordering semantics beyond uniqueness (commit order
/// is decided by the OCC layer, not by `TxnId`).
#[derive(Debug, Default)]
pub struct TxnIdGen {
    next: AtomicU64,
}

impl TxnIdGen {
    /// Creates a generator starting at zero.
    pub fn new() -> Self {
        Self {
            next: AtomicU64::new(0),
        }
    }

    /// Allocates the next transaction id.
    pub fn next(&self) -> TxnId {
        TxnId(self.next.fetch_add(1, Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_conversions() {
        let r: ReactorId = 7usize.into();
        assert_eq!(r.raw(), 7);
        assert_eq!(r.index(), 7);
        assert_eq!(format!("{r}"), "ReactorId(7)");
    }

    #[test]
    fn txn_id_generator_is_monotonic_and_unique() {
        let gen = TxnIdGen::new();
        let a = gen.next();
        let b = gen.next();
        let c = gen.next();
        assert!(a < b && b < c);
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(ContainerId(1));
        set.insert(ContainerId(1));
        set.insert(ContainerId(2));
        assert_eq!(set.len(), 2);
        assert!(ExecutorId(0) < ExecutorId(1));
    }
}
