//! Database-wide commit/abort counters.
//!
//! The evaluation reports abort rates per deployment (§4.3.1); these
//! counters let the harness and the tests observe them without instrumenting
//! the workload code.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use reactdb_obs::AbortReason;
use reactdb_txn::OccTxn;
use reactdb_wal::{TableLogUsage, WalStats};

use crate::client::SessionShared;

/// Monotonic counters describing what happened to root transactions.
///
/// Aborts are kept as one counter per [`AbortReason`]; the legacy
/// aggregates ([`DbStats::cc_aborts`], [`DbStats::user_aborts`], ...) are
/// derived views over that breakdown, so existing callers keep working and
/// new callers get full attribution via [`DbStats::aborts_by_reason`].
/// Fields are private by design — read through the accessors, which stay
/// stable even as the underlying counter layout evolves.
#[derive(Debug, Default)]
pub struct DbStats {
    committed: AtomicU64,
    /// One counter per [`AbortReason`], indexed by `reason as usize`
    /// (declaration order matches [`AbortReason::ALL`]).
    aborts: [AtomicU64; AbortReason::ALL.len()],
    sub_txns_dispatched: AtomicU64,
    sub_txns_inlined: AtomicU64,
    scan_ops: AtomicU64,
    scan_slots_visited: AtomicU64,
    scan_rows_returned: AtomicU64,
    recovered_txns: AtomicU64,
    recovered_checkpoint_rows: AtomicU64,
    recovery_replay_workers: AtomicU64,
    /// Client-visible outcome counters, maintained by the session layer
    /// (`crate::client`): the same aggregate each session keeps, fed with
    /// the same events across every session of this database. One
    /// increment per *handle* submission, resolution, or timeout — distinct
    /// from the engine-side counters above.
    client: SessionShared,
    /// Durability counters, shared with the write-ahead log when one is
    /// configured.
    wal: OnceLock<Arc<WalStats>>,
}

impl DbStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_commit(&self) {
        self.committed.fetch_add(1, Ordering::Relaxed);
    }
    /// Counts one aborted root transaction under its classified reason.
    pub(crate) fn record_abort(&self, reason: AbortReason) {
        self.aborts[reason as usize].fetch_add(1, Ordering::Relaxed);
    }
    /// Accounts the scan work of a finished root transaction's
    /// participants, committed or not.
    pub(crate) fn record_scans(&self, participants: &[OccTxn]) {
        let ops: u64 = participants.iter().map(OccTxn::scan_count).sum();
        if ops == 0 {
            return;
        }
        self.scan_ops.fetch_add(ops, Ordering::Relaxed);
        self.scan_slots_visited.fetch_add(
            participants.iter().map(OccTxn::scan_slots_visited).sum(),
            Ordering::Relaxed,
        );
        self.scan_rows_returned.fetch_add(
            participants.iter().map(OccTxn::scan_rows_returned).sum(),
            Ordering::Relaxed,
        );
    }
    pub(crate) fn record_sub_dispatch(&self) {
        self.sub_txns_dispatched.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_sub_inline(&self) {
        self.sub_txns_inlined.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_recovered(&self, n: u64) {
        self.recovered_txns.fetch_add(n, Ordering::Relaxed);
    }
    pub(crate) fn record_recovered_checkpoint_rows(&self, n: u64) {
        self.recovered_checkpoint_rows
            .fetch_add(n, Ordering::Relaxed);
    }
    pub(crate) fn record_replay_workers(&self, n: u64) {
        self.recovery_replay_workers.fetch_max(n, Ordering::Relaxed);
    }
    pub(crate) fn attach_wal(&self, stats: Arc<WalStats>) {
        let _ = self.wal.set(stats);
    }

    /// Called by the session layer when a handle is submitted.
    pub(crate) fn record_client_submit(&self) {
        self.client.on_submit();
    }
    /// Called exactly once per submitted handle when its future resolves
    /// (commit, abort, or abandonment). `reason` is the classified cause of
    /// an abort, `None` on commit.
    pub(crate) fn record_client_resolve(&self, committed: bool, reason: Option<AbortReason>) {
        self.client.on_resolve(committed, reason);
    }
    /// Called when a client gave up waiting on a handle (the transaction
    /// may still resolve later and then also count as committed/aborted).
    pub(crate) fn record_client_timeout(&self) {
        self.client.on_timeout();
    }

    /// Root transactions that committed.
    pub fn committed(&self) -> u64 {
        self.committed.load(Ordering::Relaxed)
    }
    /// Root transactions aborted for one specific reason.
    pub fn abort_count(&self, reason: AbortReason) -> u64 {
        self.aborts[reason as usize].load(Ordering::Relaxed)
    }
    /// The full abort breakdown, one `(reason, count)` per
    /// [`AbortReason::ALL`] entry (zero counts included).
    pub fn aborts_by_reason(&self) -> [(AbortReason, u64); AbortReason::ALL.len()] {
        let mut out = [(AbortReason::Other, 0u64); AbortReason::ALL.len()];
        for (slot, reason) in out.iter_mut().zip(AbortReason::ALL) {
            *slot = (reason, self.abort_count(reason));
        }
        out
    }
    /// Root transactions aborted by concurrency control: the sum of the
    /// occ-read, phantom and lock-busy reasons (exactly the errors
    /// `TxnError::is_cc_abort` reports). Includes
    /// [`DbStats::phantom_aborts`].
    pub fn cc_aborts(&self) -> u64 {
        AbortReason::ALL
            .into_iter()
            .filter(|r| r.is_cc())
            .map(|r| self.abort_count(r))
            .sum()
    }
    /// Root transactions aborted specifically by node-set validation: a
    /// range they scanned (or a key whose absence they observed) changed
    /// membership before commit. A subset of [`DbStats::cc_aborts`] —
    /// subtract to get ordinary read-set conflicts.
    pub fn phantom_aborts(&self) -> u64 {
        self.abort_count(AbortReason::Phantom)
    }
    /// Transactional scan operations executed (range scans, full scans,
    /// secondary lookups/ranges) across all root transactions, committed or
    /// aborted.
    pub fn scan_ops(&self) -> u64 {
        self.scan_ops.load(Ordering::Relaxed)
    }
    /// Index entries those scans walked, visible or not. Against
    /// [`DbStats::scan_rows_returned`] it says what a returned row costs:
    /// a ratio that grows while the workload stays the same means scans
    /// are wading through deleted slots.
    pub fn scan_slots_visited(&self) -> u64 {
        self.scan_slots_visited.load(Ordering::Relaxed)
    }
    /// Rows those scans returned.
    pub fn scan_rows_returned(&self) -> u64 {
        self.scan_rows_returned.load(Ordering::Relaxed)
    }
    /// Root transactions aborted by something other than concurrency
    /// control or the safety condition: application aborts plus WAL
    /// failures and runtime faults. [`DbStats::aborts_by_reason`] splits
    /// the three apart.
    pub fn user_aborts(&self) -> u64 {
        self.abort_count(AbortReason::UserAbort)
            + self.abort_count(AbortReason::WalFailure)
            + self.abort_count(AbortReason::Other)
    }
    /// Root transactions aborted by the intra-transaction safety condition.
    pub fn dangerous_aborts(&self) -> u64 {
        self.abort_count(AbortReason::DangerousStructure)
    }
    /// Sub-transactions dispatched to another container's executor.
    pub fn sub_txns_dispatched(&self) -> u64 {
        self.sub_txns_dispatched.load(Ordering::Relaxed)
    }
    /// Sub-transactions executed synchronously on the calling executor.
    pub fn sub_txns_inlined(&self) -> u64 {
        self.sub_txns_inlined.load(Ordering::Relaxed)
    }

    /// Root transactions whose handle resolved with a commit, as seen by
    /// client sessions.
    pub fn client_committed(&self) -> u64 {
        self.client.snapshot().committed
    }
    /// Root transactions whose handle resolved with an error (concurrency
    /// abort, user abort, or abandonment), as seen by client sessions.
    pub fn client_aborted(&self) -> u64 {
        self.client.snapshot().aborted
    }
    /// Handles that resolved with a phantom abort, as seen by client
    /// sessions (a subset of [`DbStats::client_aborted`]).
    pub fn client_phantom_aborts(&self) -> u64 {
        self.client.snapshot().phantom_aborts
    }
    /// Waits on a handle that hit the client timeout.
    pub fn client_timeouts(&self) -> u64 {
        self.client.snapshot().timeouts
    }
    /// Handles currently submitted and unresolved across all sessions.
    pub fn handles_in_flight(&self) -> u64 {
        self.client.snapshot().in_flight
    }
    /// Deepest pipelining observed: the high-water mark of in-flight
    /// handles.
    pub fn handles_in_flight_hwm(&self) -> u64 {
        self.client.snapshot().in_flight_hwm
    }

    /// Transactions replayed from the write-ahead log by crash recovery.
    /// With checkpointing enabled this counts only the post-checkpoint
    /// *tail* — the quantity checkpointing bounds.
    pub fn recovered_txns(&self) -> u64 {
        self.recovered_txns.load(Ordering::Relaxed)
    }
    /// Rows loaded from the newest complete checkpoint by crash recovery
    /// (0 when no checkpoint was installed).
    pub fn recovered_checkpoint_rows(&self) -> u64 {
        self.recovered_checkpoint_rows.load(Ordering::Relaxed)
    }
    /// Replay workers the partitioned recovery replay fanned out to (0 when
    /// this instance did not boot through recovery).
    pub fn recovery_replay_workers(&self) -> u64 {
        self.recovery_replay_workers.load(Ordering::Relaxed)
    }
    /// Bytes of redo frames appended to the write-ahead log (0 when
    /// durability is off).
    pub fn log_bytes(&self) -> u64 {
        self.wal.get().map(|w| w.bytes_logged()).unwrap_or(0)
    }
    /// Redo records appended to the write-ahead log.
    pub fn log_records(&self) -> u64 {
        self.wal.get().map(|w| w.records_logged()).unwrap_or(0)
    }
    /// Redo records shipped as field-level deltas instead of full row
    /// images (0 when delta logging is off).
    pub fn log_delta_records(&self) -> u64 {
        self.wal.get().map(|w| w.delta_records()).unwrap_or(0)
    }
    /// Log bytes saved by delta records relative to full-image encodings of
    /// the same rows. `log_bytes + log_bytes_saved` approximates what the
    /// same history would have cost with delta logging off.
    pub fn log_bytes_saved(&self) -> u64 {
        self.wal.get().map(|w| w.delta_bytes_saved()).unwrap_or(0)
    }
    /// Group commits (flush + fsync + durable-epoch advance) performed.
    pub fn log_syncs(&self) -> u64 {
        self.wal.get().map(|w| w.syncs()).unwrap_or(0)
    }
    /// Group commits that failed with an I/O error: non-zero and climbing
    /// means the log device is unhealthy and the durable epoch is stalling.
    pub fn log_sync_failures(&self) -> u64 {
        self.wal.get().map(|w| w.sync_failures()).unwrap_or(0)
    }
    /// Highest epoch currently guaranteed durable (0 when durability is off
    /// or nothing has been synced).
    pub fn durable_epoch(&self) -> u64 {
        self.wal.get().map(|w| w.durable_epoch()).unwrap_or(0)
    }
    /// Durable-acknowledgement waits that actually blocked on a group
    /// commit (`TxnHandle::wait_durable` behind the durable epoch).
    pub fn durable_waits(&self) -> u64 {
        self.wal.get().map(|w| w.durable_waits()).unwrap_or(0)
    }
    /// Checkpoints completed (background daemon plus explicit
    /// `ReactDB::checkpoint_now` calls).
    pub fn checkpoints_taken(&self) -> u64 {
        self.wal.get().map(|w| w.checkpoints_taken()).unwrap_or(0)
    }
    /// Completed checkpoints that were delta captures (dirty rows only).
    pub fn checkpoints_delta(&self) -> u64 {
        self.wal.get().map(|w| w.checkpoints_delta()).unwrap_or(0)
    }
    /// Cumulative bytes of checkpoint data files written.
    pub fn checkpoint_bytes(&self) -> u64 {
        self.wal.get().map(|w| w.checkpoint_bytes()).unwrap_or(0)
    }
    /// Checkpoint attempts that failed with an I/O error (the previous
    /// checkpoint remains in effect).
    pub fn checkpoint_failures(&self) -> u64 {
        self.wal.get().map(|w| w.checkpoint_failures()).unwrap_or(0)
    }
    /// Log-segment bytes reclaimed by online checkpoint truncation. Compare
    /// against [`DbStats::log_bytes`] to observe truncation effectiveness.
    pub fn log_truncated_bytes(&self) -> u64 {
        self.wal.get().map(|w| w.log_truncated_bytes()).unwrap_or(0)
    }
    /// Log segments deleted by online checkpoint truncation.
    pub fn log_truncated_segments(&self) -> u64 {
        self.wal
            .get()
            .map(|w| w.log_truncated_segments())
            .unwrap_or(0)
    }
    /// Per-table log-space accounting: redo bytes and records appended per
    /// (reactor, relation), sorted by descending byte count.
    pub fn log_bytes_per_table(&self) -> Vec<TableLogUsage> {
        self.wal.get().map(|w| w.per_table()).unwrap_or_default()
    }

    /// Abort rate over attempted root transactions (cc aborts only, matching
    /// the paper's reporting; user aborts are part of normal application
    /// behaviour).
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.committed() + self.cc_aborts();
        if attempts == 0 {
            0.0
        } else {
            self.cc_aborts() as f64 / attempts as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A participant that ran a three-row scan and a limit-1 scan.
    fn scanned_twice() -> OccTxn {
        use reactdb_common::{ContainerId, Value};
        use reactdb_storage::{ColumnType, Schema, Table, Tuple};
        use std::ops::Bound::Unbounded;
        let table = Arc::new(Table::new(
            "t",
            Schema::of(&[("id", ColumnType::Int)], &["id"]),
        ));
        for i in 0..3 {
            table.load_row(Tuple::of([Value::Int(i)])).unwrap();
        }
        let mut txn = OccTxn::new(ContainerId(0));
        txn.scan(&table).unwrap();
        txn.scan_limit(&table, Unbounded, Unbounded, 1, true)
            .unwrap();
        txn
    }

    #[test]
    fn counters_accumulate() {
        let s = DbStats::new();
        s.record_commit();
        s.record_commit();
        s.record_abort(AbortReason::OccRead);
        s.record_abort(AbortReason::UserAbort);
        s.record_abort(AbortReason::DangerousStructure);
        s.record_sub_dispatch();
        s.record_sub_inline();
        s.record_scans(&[scanned_twice(), scanned_twice()]);
        assert_eq!(s.committed(), 2);
        assert_eq!(s.cc_aborts(), 1);
        assert_eq!(s.user_aborts(), 1);
        assert_eq!(s.dangerous_aborts(), 1);
        assert_eq!(s.sub_txns_dispatched(), 1);
        assert_eq!(s.sub_txns_inlined(), 1);
        assert_eq!(s.scan_ops(), 4);
        assert_eq!(s.scan_slots_visited(), 8);
        assert_eq!(s.scan_rows_returned(), 8);
        assert!((s.abort_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn phantom_aborts_are_a_distinguishable_subset_of_cc_aborts() {
        let s = DbStats::new();
        s.record_commit();
        s.record_abort(AbortReason::OccRead);
        s.record_abort(AbortReason::Phantom);
        assert_eq!(s.cc_aborts(), 2, "phantoms count as cc aborts");
        assert_eq!(s.phantom_aborts(), 1);
        assert_eq!(s.cc_aborts() - s.phantom_aborts(), 1, "read-set conflicts");
        assert!((s.abort_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn abort_breakdown_attributes_every_reason_and_sums_to_the_aggregates() {
        let s = DbStats::new();
        for reason in AbortReason::ALL {
            s.record_abort(reason);
        }
        s.record_abort(AbortReason::LockBusy);
        for (reason, count) in s.aborts_by_reason() {
            let expected = if reason == AbortReason::LockBusy {
                2
            } else {
                1
            };
            assert_eq!(count, expected, "{}", reason.name());
        }
        assert_eq!(s.cc_aborts(), 4, "occ_read + phantom + 2x lock_busy");
        assert_eq!(s.user_aborts(), 3, "user_abort + wal_failure + other");
        assert_eq!(s.dangerous_aborts(), 1);
        let total: u64 = s.aborts_by_reason().iter().map(|(_, n)| n).sum();
        assert_eq!(
            total,
            s.cc_aborts() + s.user_aborts() + s.dangerous_aborts(),
            "every abort lands in exactly one aggregate"
        );
    }

    #[test]
    fn abort_rate_of_idle_database_is_zero() {
        assert_eq!(DbStats::new().abort_rate(), 0.0);
    }

    #[test]
    fn client_counters_track_in_flight_high_water() {
        let s = DbStats::new();
        s.record_client_submit();
        s.record_client_submit();
        s.record_client_submit();
        assert_eq!(s.handles_in_flight(), 3);
        assert_eq!(s.handles_in_flight_hwm(), 3);
        s.record_client_resolve(true, None);
        s.record_client_resolve(false, Some(AbortReason::Phantom));
        s.record_client_timeout();
        assert_eq!(s.handles_in_flight(), 1);
        assert_eq!(s.handles_in_flight_hwm(), 3, "high water is sticky");
        assert_eq!(s.client_committed(), 1);
        assert_eq!(s.client_aborted(), 1);
        assert_eq!(s.client_phantom_aborts(), 1);
        assert_eq!(s.client_timeouts(), 1);
    }
}
