//! Commit of transactions: Silo validation locally, two-phase commit across
//! containers.
//!
//! A root transaction accumulates one [`OccTxn`] participant per container
//! it touched (directly or through nested sub-transactions, §3.2.2). The
//! [`Coordinator`] commits the set of participants:
//!
//! 1. **Lock phase** — all write-set records of all participants are locked
//!    in a single global deterministic order (by record address), which
//!    makes the protocol deadlock-free. With more than one participant this
//!    is the "prepare" phase of 2PC: a participant whose locks or
//!    validation fail votes no.
//! 2. **Membership fence** — before validating, every index node whose
//!    membership this commit will change is version-bumped: new secondary
//!    `(index key ‖ PK)` entries are physically installed *atomically with*
//!    their bump (readers that see the bumped version also see the
//!    provisional entry and resolve it through the locked row record);
//!    removals and primary appear/disappear are announced by bump and
//!    applied in the write phase. The transaction's own node set is
//!    refreshed for these bumps. Fencing *before* validation is what
//!    closes the write-skew window two concurrent scan-then-modify
//!    transactions would otherwise slip through: at least one of them sees
//!    the other's bump during validation. This spans all participants, so
//!    the 2PC path validates multi-reactor scans consistently. If the
//!    commit aborts, the provisional additions are rolled back.
//! 3. **Validation phase** — every read-set entry is checked (the record
//!    must still carry the observed version and must not be locked by
//!    another transaction), and every node-set entry is re-checked (the
//!    node must still carry the traversed version; a mismatch means the
//!    membership of a scanned range changed — a phantom — and the
//!    transaction aborts with [`TxnError::Phantom`]).
//! 4. **Write phase** — a commit TID is generated (greater than every
//!    observed version, the executor's previous TID, and within the current
//!    epoch) and all buffered writes are installed; stale secondary entries
//!    of updates and deletes are removed (additions were installed by the
//!    fence itself). If any vote was no, all locks are released, the
//!    provisional additions are rolled back, and the transaction aborts
//!    everywhere — sub-transactions never commit partially (§2.2.3).

use std::collections::HashSet;
use std::sync::Arc;

use reactdb_common::{Result, TxnError};
use reactdb_obs::{CommitProbe, Phase};
use reactdb_storage::{TidWord, Tuple};

use crate::epoch::EpochManager;
use crate::logging::{LogSink, RedoPayload, RedoRecord};
use crate::occ::{OccTxn, WriteKind};
use crate::tidgen::TidGen;

/// Outcome of a commit attempt, used by the engine for statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    /// The transaction committed with the given TID.
    Committed(TidWord),
    /// Validation failed (or a participant voted no) and the transaction
    /// was rolled back everywhere.
    Aborted,
}

impl CommitOutcome {
    /// True if the outcome is a commit.
    pub fn is_committed(&self) -> bool {
        matches!(self, CommitOutcome::Committed(_))
    }
}

/// Stateless commit coordinator (all state lives in the participants).
#[derive(Debug, Default, Clone, Copy)]
pub struct Coordinator;

impl Coordinator {
    /// The newest epoch a checkpoint can snapshot against: commits read the
    /// epoch at their serialization point and install their writes before
    /// releasing the durability gate, so once every in-flight commit has
    /// drained, all transactions with TID epochs `< current` are fully
    /// installed. The caller (the WAL's checkpointer) performs the drain
    /// via the commit gate and then walks table state knowing the returned
    /// epoch's prefix is stable: no commit of epoch `<= stable_epoch` can
    /// install a write the walk might miss.
    pub fn stable_epoch(epoch: &EpochManager) -> u64 {
        epoch.current().saturating_sub(1)
    }

    /// Attempts to commit the given participants atomically.
    ///
    /// Returns the commit TID on success. On failure every lock is released,
    /// no write is installed anywhere and [`TxnError::ValidationFailed`] is
    /// returned (the caller maps this to an abort of the root transaction).
    ///
    /// The epoch embedded in the returned TID is the transaction's
    /// durability fence: the engine threads it into the client's
    /// transaction handle, whose `wait_durable` acknowledgement blocks until
    /// the WAL's durable epoch covers it (the group commit for that epoch
    /// completed). `wait`-style acknowledgement at validation time remains
    /// available and precedes durability by at most one epoch.
    pub fn commit(
        participants: &mut [OccTxn],
        epoch: &EpochManager,
        tidgen: &TidGen,
    ) -> Result<TidWord> {
        Self::commit_logged(participants, epoch, tidgen, None)
    }

    /// Like [`Coordinator::commit`], but additionally renders the validated
    /// write set of every participant as [`RedoRecord`]s and hands the batch
    /// to `sink` once the writes are installed. Transactions spanning
    /// several containers (2PC) log the records of every participating
    /// container in the same batch, so recovery can never observe a
    /// partially persisted distributed transaction.
    pub fn commit_logged(
        participants: &mut [OccTxn],
        epoch: &EpochManager,
        tidgen: &TidGen,
        sink: Option<&dyn LogSink>,
    ) -> Result<TidWord> {
        Self::commit_observed(participants, epoch, tidgen, sink, None)
    }

    /// Like [`Coordinator::commit_logged`], but laps a [`CommitProbe`]
    /// across the protocol's phase boundaries (lock, fence, validate,
    /// write, log), feeding the engine's per-phase latency histograms and
    /// slow-transaction capture. With `probe == None` (tracing disabled)
    /// the commit path takes no timestamps at all. An aborting commit
    /// still records its lock, fence and validate laps — where rejected
    /// work spends its time is exactly what an abort investigation needs.
    pub fn commit_observed(
        participants: &mut [OccTxn],
        epoch: &EpochManager,
        tidgen: &TidGen,
        sink: Option<&dyn LogSink>,
        mut probe: Option<&mut CommitProbe>,
    ) -> Result<TidWord> {
        if let Some(p) = probe.as_deref_mut() {
            p.begin();
        }
        // ---- Phase 1: lock the union of the write sets in address order.
        let mut write_refs: Vec<(usize, usize)> = Vec::new(); // (participant, write idx)
        for (pi, p) in participants.iter().enumerate() {
            for wi in 0..p.writes().len() {
                write_refs.push((pi, wi));
            }
        }
        write_refs
            .sort_by_key(|(pi, wi)| Arc::as_ptr(&participants[*pi].writes()[*wi].record) as usize);

        let mut locked: Vec<(usize, usize)> = Vec::with_capacity(write_refs.len());
        let mut own_write_records: HashSet<usize> = HashSet::with_capacity(write_refs.len());
        let mut max_observed = TidWord::committed(0, 0);

        for (pi, wi) in &write_refs {
            let record = &participants[*pi].writes()[*wi].record;
            record.lock();
            locked.push((*pi, *wi));
            own_write_records.insert(Arc::as_ptr(record) as usize);
            let tid = record.tid();
            if tid.version() > max_observed.version() {
                max_observed = tid.unlocked();
            }
        }

        // ---- Serialization point: read the epoch after acquiring locks.
        let current_epoch = epoch.current();
        if let Some(p) = probe.as_deref_mut() {
            p.lap(Phase::Lock);
        }

        // ---- Phase 2: membership fence. For every index node whose
        // membership this commit changes: install new secondary pairs
        // (atomically with their bump — readers that see the bumped
        // version also see the provisional entry and resolve it through
        // the locked row record), announce removals and primary
        // appear/disappear with a bump, and remember the additions so an
        // abort can roll them back. Then refresh the transaction's own
        // node set so its own scans are not phantom-aborted by its own
        // writes (Silo's node-set refresh rule).
        // (participant, write idx, provisional additions of that write)
        type FenceAdditions = Vec<(usize, usize, Vec<(usize, reactdb_common::Key)>)>;
        let mut fence_bumps = Vec::new();
        let mut fence_added: FenceAdditions = Vec::new();
        for (pi, wi) in &locked {
            let w = &participants[*pi].writes()[*wi];
            let (before, after): (Option<&Tuple>, Option<&Tuple>) = match &w.kind {
                WriteKind::Insert(row) => (w.before.as_ref(), Some(row)),
                WriteKind::Update(row) => (w.before.as_ref(), Some(row)),
                WriteKind::Delete => (w.before.as_ref(), None),
            };
            let effect = w.table.membership_fence(&w.key, before, after);
            fence_bumps.extend(effect.bumps);
            if !effect.added.is_empty() {
                fence_added.push((*pi, *wi, effect.added));
            }
        }
        for p in participants.iter_mut() {
            for bump in &fence_bumps {
                p.refresh_node(bump);
            }
        }
        if let Some(p) = probe.as_deref_mut() {
            p.lap(Phase::Fence);
        }

        // ---- Phase 3: validate the read and node sets of every
        // participant.
        let mut valid = true;
        let mut phantom = false;
        'validation: for p in participants.iter() {
            if p.max_observed().version() > max_observed.version() {
                max_observed = p.max_observed();
            }
            for r in p.reads() {
                let now = r.record.tid();
                if now.version() != r.observed.version() {
                    valid = false;
                    break 'validation;
                }
                if now.is_locked()
                    && !own_write_records.contains(&(Arc::as_ptr(&r.record) as usize))
                {
                    valid = false;
                    break 'validation;
                }
            }
            for obs in p.nodes() {
                if !obs.is_current() {
                    valid = false;
                    phantom = true;
                    break 'validation;
                }
            }
        }

        if let Some(p) = probe.as_deref_mut() {
            p.lap(Phase::Validate);
        }

        if !valid {
            // Vote no: undo the provisional secondary additions, then
            // release every lock without touching record versions. The
            // fence bumps stay — they can only cause spurious (safe)
            // phantom aborts in concurrent scanners, never missed ones;
            // readers that saw a provisional entry resolve it through the
            // still-uncommitted record and filter it out.
            for (pi, wi, added) in &fence_added {
                participants[*pi].writes()[*wi].table.fence_rollback(added);
            }
            for (pi, wi) in &locked {
                participants[*pi].writes()[*wi].record.unlock();
            }
            return Err(if phantom {
                TxnError::Phantom
            } else {
                TxnError::ValidationFailed
            });
        }

        // ---- Phase 4: generate the commit TID and install the writes.
        // Secondary-index additions are already in place from the fence;
        // what remains is removing the stale entries of updates and
        // deletes, whose removal the fence already announced.
        let commit_tid = tidgen.next(current_epoch, max_observed);
        for (pi, wi) in &locked {
            let w = &participants[*pi].writes()[*wi];
            match &w.kind {
                WriteKind::Insert(row) => {
                    w.record.install(row.clone(), commit_tid);
                }
                WriteKind::Update(row) => {
                    w.record.install(row.clone(), commit_tid);
                    if let Some(before) = &w.before {
                        w.table.index_retire_fenced(&w.key, before, Some(row));
                    }
                }
                WriteKind::Delete => {
                    w.record.install_delete(commit_tid);
                    if let Some(before) = &w.before {
                        w.table.index_retire_fenced(&w.key, before, None);
                    }
                }
            }
        }
        if let Some(p) = probe.as_deref_mut() {
            p.lap(Phase::Write);
        }

        // ---- Durability hook: emit the redo batch for the whole commit:
        // the full after-image of every insert and update, a tombstone for
        // every delete.
        if let Some(sink) = sink {
            let mut records = Vec::with_capacity(locked.len());
            for (pi, wi) in &locked {
                let p = &participants[*pi];
                let w = &p.writes()[*wi];
                let payload = match &w.kind {
                    WriteKind::Insert(row) | WriteKind::Update(row) => {
                        RedoPayload::Full(row.clone())
                    }
                    WriteKind::Delete => RedoPayload::Delete,
                };
                records.push(RedoRecord {
                    container: p.container(),
                    reactor: w.table.owner(),
                    relation: w.table.name().to_owned(),
                    key: w.key.clone(),
                    payload,
                });
            }
            if !records.is_empty() {
                sink.log_commit(commit_tid, &records);
            }
        }
        if let Some(p) = probe {
            p.lap(Phase::Log);
        }
        Ok(commit_tid)
    }

    /// Rolls back the participants without attempting to commit: nothing was
    /// installed (writes are buffered), so this is a no-op provided for
    /// symmetry and future durability hooks.
    pub fn abort(_participants: &mut [OccTxn]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use reactdb_common::{ContainerId, Key, Value};
    use reactdb_storage::{ColumnType, Schema, Table};
    use std::ops::Bound;

    fn table(name: &str) -> Arc<Table> {
        let schema = Schema::of(&[("id", ColumnType::Int), ("v", ColumnType::Int)], &["id"]);
        let t = Arc::new(Table::new(name, schema));
        for i in 0..10i64 {
            t.load_row(Tuple::of([Value::Int(i), Value::Int(0)]))
                .unwrap();
        }
        t
    }

    fn env() -> (EpochManager, TidGen) {
        (EpochManager::new(), TidGen::new())
    }

    #[test]
    fn single_participant_commit_installs_writes() {
        let t = table("t");
        let (epoch, gen) = env();
        let mut p = OccTxn::new(ContainerId(0));
        p.update(&t, Tuple::of([Value::Int(1), Value::Int(42)]))
            .unwrap();
        p.insert(&t, Tuple::of([Value::Int(100), Value::Int(7)]))
            .unwrap();
        p.delete(&t, &Key::Int(2)).unwrap();
        let tid = Coordinator::commit(&mut [p], &epoch, &gen).unwrap();
        assert_eq!(tid.epoch(), 1);
        assert_eq!(
            t.get(&Key::Int(1)).unwrap().read_unguarded().at(1),
            &Value::Int(42)
        );
        assert!(t.get(&Key::Int(100)).unwrap().is_visible());
        assert!(!t.get(&Key::Int(2)).unwrap().is_visible());
        assert_eq!(t.visible_len(), 10); // 10 - 1 deleted + 1 inserted
    }

    #[test]
    fn stale_read_aborts() {
        let t = table("t");
        let (epoch, gen) = env();
        let mut p1 = OccTxn::new(ContainerId(0));
        p1.read(&t, &Key::Int(1)).unwrap();

        // A concurrent transaction commits an update to the same record.
        let mut p2 = OccTxn::new(ContainerId(0));
        p2.update(&t, Tuple::of([Value::Int(1), Value::Int(5)]))
            .unwrap();
        Coordinator::commit(&mut [p2], &epoch, &gen).unwrap();

        // p1 now writes something else but must fail validation on its read.
        p1.update(&t, Tuple::of([Value::Int(3), Value::Int(9)]))
            .unwrap();
        let err = Coordinator::commit(&mut [p1], &epoch, &gen).unwrap_err();
        assert_eq!(err, TxnError::ValidationFailed);
        // The failed transaction's write was not installed.
        assert_eq!(
            t.get(&Key::Int(3)).unwrap().read_unguarded().at(1),
            &Value::Int(0)
        );
    }

    #[test]
    fn read_own_write_record_does_not_self_conflict() {
        let t = table("t");
        let (epoch, gen) = env();
        let mut p = OccTxn::new(ContainerId(0));
        // Read and then update the same record: the record will be locked by
        // ourselves during validation and must not trigger an abort.
        p.read(&t, &Key::Int(4)).unwrap();
        p.update(&t, Tuple::of([Value::Int(4), Value::Int(44)]))
            .unwrap();
        Coordinator::commit(&mut [p], &epoch, &gen).unwrap();
        assert_eq!(
            t.get(&Key::Int(4)).unwrap().read_unguarded().at(1),
            &Value::Int(44)
        );
    }

    #[test]
    fn multi_participant_commit_is_atomic() {
        let t0 = table("t0");
        let t1 = table("t1");
        let (epoch, gen) = env();
        let mut p0 = OccTxn::new(ContainerId(0));
        let mut p1 = OccTxn::new(ContainerId(1));
        p0.update(&t0, Tuple::of([Value::Int(1), Value::Int(111)]))
            .unwrap();
        p1.update(&t1, Tuple::of([Value::Int(1), Value::Int(222)]))
            .unwrap();
        let tid = Coordinator::commit(&mut [p0, p1], &epoch, &gen).unwrap();
        assert_eq!(t0.get(&Key::Int(1)).unwrap().tid().version(), tid.version());
        assert_eq!(t1.get(&Key::Int(1)).unwrap().tid().version(), tid.version());
    }

    #[test]
    fn multi_participant_abort_rolls_back_everywhere() {
        let t0 = table("t0");
        let t1 = table("t1");
        let (epoch, gen) = env();

        // p reads from t1, then a concurrent commit invalidates that read.
        let mut p0 = OccTxn::new(ContainerId(0));
        let mut p1 = OccTxn::new(ContainerId(1));
        p0.update(&t0, Tuple::of([Value::Int(5), Value::Int(50)]))
            .unwrap();
        p1.read(&t1, &Key::Int(5)).unwrap();

        let mut other = OccTxn::new(ContainerId(1));
        other
            .update(&t1, Tuple::of([Value::Int(5), Value::Int(99)]))
            .unwrap();
        Coordinator::commit(&mut [other], &epoch, &gen).unwrap();

        let err = Coordinator::commit(&mut [p0, p1], &epoch, &gen).unwrap_err();
        assert_eq!(err, TxnError::ValidationFailed);
        // Neither container saw the aborted transaction's write.
        assert_eq!(
            t0.get(&Key::Int(5)).unwrap().read_unguarded().at(1),
            &Value::Int(0)
        );
        assert_eq!(
            t1.get(&Key::Int(5)).unwrap().read_unguarded().at(1),
            &Value::Int(99)
        );
        // Locks were released: a later transaction can commit.
        let mut retry = OccTxn::new(ContainerId(0));
        retry
            .update(&t0, Tuple::of([Value::Int(5), Value::Int(51)]))
            .unwrap();
        Coordinator::commit(&mut [retry], &epoch, &gen).unwrap();
    }

    #[test]
    fn read_only_transaction_commits_without_installing() {
        let t = table("t");
        let (epoch, gen) = env();
        let before = t.get(&Key::Int(1)).unwrap().tid();
        let mut p = OccTxn::new(ContainerId(0));
        p.read(&t, &Key::Int(1)).unwrap();
        p.scan(&t).unwrap();
        Coordinator::commit(&mut [p], &epoch, &gen).unwrap();
        assert_eq!(t.get(&Key::Int(1)).unwrap().tid(), before);
    }

    #[test]
    fn commit_tid_exceeds_all_observed_versions() {
        let t = table("t");
        let (epoch, gen) = env();
        // Raise one record to a large version.
        let rec = t.get(&Key::Int(7)).unwrap();
        rec.lock();
        rec.install(
            Tuple::of([Value::Int(7), Value::Int(7)]),
            TidWord::committed(1, 400),
        );

        let mut p = OccTxn::new(ContainerId(0));
        p.read(&t, &Key::Int(7)).unwrap();
        p.update(&t, Tuple::of([Value::Int(1), Value::Int(1)]))
            .unwrap();
        let tid = Coordinator::commit(&mut [p], &epoch, &gen).unwrap();
        assert!(tid.version() > TidWord::committed(1, 400).version());
    }

    #[test]
    fn multi_participant_commit_logs_every_container_atomically() {
        use crate::logging::test_support::MemorySink;
        let t0 = table("t0");
        let t1 = table("t1");
        let (epoch, gen) = env();
        let sink = MemorySink::default();
        let mut p0 = OccTxn::new(ContainerId(0));
        let mut p1 = OccTxn::new(ContainerId(1));
        p0.update(&t0, Tuple::of([Value::Int(1), Value::Int(11)]))
            .unwrap();
        p0.delete(&t0, &Key::Int(2)).unwrap();
        p1.insert(&t1, Tuple::of([Value::Int(100), Value::Int(22)]))
            .unwrap();
        let tid = Coordinator::commit_logged(&mut [p0, p1], &epoch, &gen, Some(&sink)).unwrap();

        let batches = sink.batches.lock().unwrap();
        assert_eq!(batches.len(), 1, "one batch per commit");
        let (logged_tid, records) = &batches[0];
        assert_eq!(*logged_tid, tid);
        assert_eq!(records.len(), 3);
        let containers: std::collections::HashSet<_> =
            records.iter().map(|r| r.container).collect();
        assert!(containers.contains(&ContainerId(0)) && containers.contains(&ContainerId(1)));
        let delete = records.iter().find(|r| r.key == Key::Int(2)).unwrap();
        assert!(delete.is_delete(), "deletes log a tombstone");
        let update = records.iter().find(|r| r.key == Key::Int(1)).unwrap();
        assert_eq!(update.image().unwrap().at(1), &Value::Int(11));
    }

    #[test]
    fn aborted_and_read_only_commits_log_nothing() {
        use crate::logging::test_support::MemorySink;
        let t = table("t");
        let (epoch, gen) = env();
        let sink = MemorySink::default();

        // Read-only: no write set, nothing to log.
        let mut ro = OccTxn::new(ContainerId(0));
        ro.read(&t, &Key::Int(1)).unwrap();
        Coordinator::commit_logged(&mut [ro], &epoch, &gen, Some(&sink)).unwrap();
        assert!(sink.batches.lock().unwrap().is_empty());

        // Aborted: validation fails before the durability hook runs.
        let mut stale = OccTxn::new(ContainerId(0));
        stale.read(&t, &Key::Int(3)).unwrap();
        let mut other = OccTxn::new(ContainerId(0));
        other
            .update(&t, Tuple::of([Value::Int(3), Value::Int(9)]))
            .unwrap();
        Coordinator::commit(&mut [other], &epoch, &gen).unwrap();
        stale
            .update(&t, Tuple::of([Value::Int(4), Value::Int(4)]))
            .unwrap();
        let err = Coordinator::commit_logged(&mut [stale], &epoch, &gen, Some(&sink)).unwrap_err();
        assert_eq!(err, TxnError::ValidationFailed);
        assert!(
            sink.batches.lock().unwrap().is_empty(),
            "aborts must not reach the log"
        );
    }

    #[test]
    fn insert_into_scanned_range_is_a_phantom() {
        let t = table("t"); // keys 0..10
        let (epoch, gen) = env();
        // Scanner reads [0, 100] — rows 0..10 plus the empty tail of the
        // range — and records the traversed node versions.
        let mut scanner = OccTxn::new(ContainerId(0));
        let rows = scanner
            .scan_range(
                &t,
                Bound::Included(&Key::Int(0)),
                Bound::Included(&Key::Int(100)),
            )
            .unwrap();
        assert_eq!(rows.len(), 10);
        assert!(scanner.node_set_len() >= 1);

        // A concurrent transaction commits an insert of key 42 — inside the
        // scanned range, in its previously-empty part.
        let mut inserter = OccTxn::new(ContainerId(0));
        inserter
            .insert(&t, Tuple::of([Value::Int(42), Value::Int(0)]))
            .unwrap();
        Coordinator::commit(&mut [inserter], &epoch, &gen).unwrap();

        let err = Coordinator::commit(&mut [scanner], &epoch, &gen).unwrap_err();
        assert_eq!(err, TxnError::Phantom, "scanned-range insert is a phantom");
        assert!(err.is_phantom() && err.is_cc_abort());
    }

    #[test]
    fn non_overlapping_insert_does_not_abort_a_scanner() {
        let t = table("t");
        // Push the table past several splits so distinct ranges live on
        // distinct nodes.
        for i in 10..400i64 {
            t.load_row(Tuple::of([Value::Int(i), Value::Int(0)]))
                .unwrap();
        }
        let (epoch, gen) = env();
        let mut scanner = OccTxn::new(ContainerId(0));
        scanner
            .scan_range(
                &t,
                Bound::Included(&Key::Int(0)),
                Bound::Included(&Key::Int(50)),
            )
            .unwrap();
        // Concurrent insert far outside the scanned range.
        let mut inserter = OccTxn::new(ContainerId(0));
        inserter
            .insert(&t, Tuple::of([Value::Int(10_000), Value::Int(0)]))
            .unwrap();
        Coordinator::commit(&mut [inserter], &epoch, &gen).unwrap();
        // The scanner still commits: the insert hit a different node.
        Coordinator::commit(&mut [scanner], &epoch, &gen).unwrap();
    }

    #[test]
    fn own_insert_into_scanned_range_does_not_self_abort() {
        let t = table("t");
        let (epoch, gen) = env();
        // Scan-then-insert within one transaction: the classic
        // next-free-key pattern must not phantom-abort itself.
        let mut p = OccTxn::new(ContainerId(0));
        let rows = p.scan(&t).unwrap();
        let next = rows.len() as i64;
        p.insert(&t, Tuple::of([Value::Int(next), Value::Int(0)]))
            .unwrap();
        Coordinator::commit(&mut [p], &epoch, &gen).unwrap();
        assert!(t.get(&Key::Int(next)).unwrap().is_visible());
    }

    #[test]
    fn absent_point_read_is_phantom_protected() {
        let t = table("t");
        let (epoch, gen) = env();
        // Reader observes that key 77 does not exist, then writes elsewhere.
        let mut reader = OccTxn::new(ContainerId(0));
        assert!(reader.read(&t, &Key::Int(77)).unwrap().is_none());
        reader
            .update(&t, Tuple::of([Value::Int(1), Value::Int(9)]))
            .unwrap();
        // A concurrent insert of exactly that key commits first.
        let mut inserter = OccTxn::new(ContainerId(0));
        inserter
            .insert(&t, Tuple::of([Value::Int(77), Value::Int(1)]))
            .unwrap();
        Coordinator::commit(&mut [inserter], &epoch, &gen).unwrap();
        let err = Coordinator::commit(&mut [reader], &epoch, &gen).unwrap_err();
        assert!(err.is_phantom(), "read-of-absence must be repeatable");
    }

    #[test]
    fn delete_shrinking_a_scanned_range_aborts_the_scanner() {
        let t = table("t");
        let (epoch, gen) = env();
        let mut scanner = OccTxn::new(ContainerId(0));
        let rows = scanner.scan(&t).unwrap();
        assert_eq!(rows.len(), 10);
        let mut deleter = OccTxn::new(ContainerId(0));
        deleter.delete(&t, &Key::Int(5)).unwrap();
        Coordinator::commit(&mut [deleter], &epoch, &gen).unwrap();
        // The scanned row's version changed (read set) and the membership
        // fence bumped the node; either way the scanner must abort.
        let err = Coordinator::commit(&mut [scanner], &epoch, &gen).unwrap_err();
        assert!(err.is_cc_abort());
    }

    #[test]
    fn secondary_membership_change_aborts_concurrent_lookup() {
        let schema = Schema::of(
            &[
                ("id", ColumnType::Int),
                ("grp", ColumnType::Int),
                ("v", ColumnType::Int),
            ],
            &["id"],
        );
        let t = Arc::new(Table::with_indexes("t", schema, &[vec!["grp".to_owned()]]));
        for i in 0..10i64 {
            t.load_row(Tuple::of([Value::Int(i), Value::Int(i % 2), Value::Int(0)]))
                .unwrap();
        }
        let (epoch, gen) = env();
        // Lookup of group 0, then a concurrent commit moves a row from
        // group 1 into group 0 — changing the membership the lookup
        // depends on without touching any row the lookup read.
        let mut looker = OccTxn::new(ContainerId(0));
        let hits = looker
            .secondary_lookup(&t, 0, &Key::Int(0), usize::MAX, false)
            .unwrap();
        assert_eq!(hits.len(), 5);
        looker
            .update(&t, Tuple::of([Value::Int(0), Value::Int(0), Value::Int(7)]))
            .unwrap();

        let mut mover = OccTxn::new(ContainerId(0));
        mover
            .update(&t, Tuple::of([Value::Int(1), Value::Int(0), Value::Int(0)]))
            .unwrap();
        Coordinator::commit(&mut [mover], &epoch, &gen).unwrap();

        let err = Coordinator::commit(&mut [looker], &epoch, &gen).unwrap_err();
        assert!(err.is_phantom(), "index-key membership change is a phantom");

        // A retry sees the new membership and succeeds.
        let mut retry = OccTxn::new(ContainerId(0));
        let hits = retry
            .secondary_lookup(&t, 0, &Key::Int(0), usize::MAX, false)
            .unwrap();
        assert_eq!(hits.len(), 6);
        retry
            .update(&t, Tuple::of([Value::Int(0), Value::Int(0), Value::Int(7)]))
            .unwrap();
        Coordinator::commit(&mut [retry], &epoch, &gen).unwrap();
    }

    #[test]
    fn aborted_commit_rolls_back_provisional_index_additions() {
        let schema = Schema::of(
            &[
                ("id", ColumnType::Int),
                ("grp", ColumnType::Int),
                ("v", ColumnType::Int),
            ],
            &["id"],
        );
        let t = Arc::new(Table::with_indexes("t", schema, &[vec!["grp".to_owned()]]));
        for i in 0..4i64 {
            t.load_row(Tuple::of([Value::Int(i), Value::Int(0), Value::Int(0)]))
                .unwrap();
        }
        let (epoch, gen) = env();
        // A transaction that will fail validation: it reads row 2, a
        // concurrent commit changes it, and it tries to move row 1 into
        // group 5 — whose provisional index entry must not survive.
        let mut doomed = OccTxn::new(ContainerId(0));
        doomed.read(&t, &Key::Int(2)).unwrap();
        doomed
            .update(&t, Tuple::of([Value::Int(1), Value::Int(5), Value::Int(0)]))
            .unwrap();
        let mut other = OccTxn::new(ContainerId(0));
        other
            .update(&t, Tuple::of([Value::Int(2), Value::Int(0), Value::Int(7)]))
            .unwrap();
        Coordinator::commit(&mut [other], &epoch, &gen).unwrap();

        let err = Coordinator::commit(&mut [doomed], &epoch, &gen).unwrap_err();
        assert!(err.is_cc_abort());
        let entries = |grp: i64| {
            t.index_walk(0, &Key::Int(grp), None, false, usize::MAX)
                .slots
                .len()
        };
        assert_eq!(
            entries(5),
            0,
            "the aborted move's provisional index entry was rolled back"
        );
        assert_eq!(entries(0), 4, "the old membership is intact");
        // Row 1's record is unlocked and unchanged.
        assert_eq!(
            t.get(&Key::Int(1)).unwrap().read_unguarded().at(1),
            &Value::Int(0)
        );
    }

    #[test]
    fn two_phase_commit_validates_node_sets_of_every_participant() {
        let t0 = table("t0");
        let t1 = table("t1");
        let (epoch, gen) = env();
        // A root transaction scans t1 through participant 1 and writes t0
        // through participant 0; a concurrent insert into t1's scanned
        // range must abort the whole distributed commit.
        let mut p0 = OccTxn::new(ContainerId(0));
        let mut p1 = OccTxn::new(ContainerId(1));
        p0.update(&t0, Tuple::of([Value::Int(1), Value::Int(1)]))
            .unwrap();
        p1.scan(&t1).unwrap();

        let mut other = OccTxn::new(ContainerId(1));
        other
            .insert(&t1, Tuple::of([Value::Int(500), Value::Int(0)]))
            .unwrap();
        Coordinator::commit(&mut [other], &epoch, &gen).unwrap();

        let err = Coordinator::commit(&mut [p0, p1], &epoch, &gen).unwrap_err();
        assert!(err.is_phantom());
        // The write participant's buffered update was not installed.
        assert_eq!(
            t0.get(&Key::Int(1)).unwrap().read_unguarded().at(1),
            &Value::Int(0)
        );
    }

    #[test]
    fn commit_observed_laps_every_commit_phase() {
        use reactdb_common::TracingConfig;
        use reactdb_obs::Metrics;
        let t = table("t");
        let (epoch, gen) = env();
        let metrics = Metrics::new(1, &TracingConfig::default());

        let mut p = OccTxn::new(ContainerId(0));
        p.update(&t, Tuple::of([Value::Int(1), Value::Int(5)]))
            .unwrap();
        let mut probe = metrics.commit_probe(0).unwrap();
        Coordinator::commit_observed(&mut [p], &epoch, &gen, None, Some(&mut probe)).unwrap();
        for phase in Phase::COMMIT {
            assert_eq!(
                metrics.phase_count(phase),
                1,
                "{} not recorded",
                phase.name()
            );
        }
        assert_eq!(probe.phase_durs().len(), 5);

        // An aborting commit records only lock/fence/validate laps.
        let mut stale = OccTxn::new(ContainerId(0));
        stale.read(&t, &Key::Int(3)).unwrap();
        let mut other = OccTxn::new(ContainerId(0));
        other
            .update(&t, Tuple::of([Value::Int(3), Value::Int(9)]))
            .unwrap();
        Coordinator::commit(&mut [other], &epoch, &gen).unwrap();
        stale
            .update(&t, Tuple::of([Value::Int(4), Value::Int(4)]))
            .unwrap();
        let mut probe = metrics.commit_probe(0).unwrap();
        Coordinator::commit_observed(&mut [stale], &epoch, &gen, None, Some(&mut probe))
            .unwrap_err();
        assert_eq!(metrics.phase_count(Phase::Validate), 2);
        assert_eq!(metrics.phase_count(Phase::Write), 1, "abort stops laps");
        assert_eq!(metrics.phase_count(Phase::Log), 1);
    }

    #[test]
    fn concurrent_counter_increments_do_not_lose_updates() {
        use std::thread;
        let t = table("t");
        let epoch = Arc::new(EpochManager::new());
        let total_committed = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                let epoch = Arc::clone(&epoch);
                let total_committed = Arc::clone(&total_committed);
                thread::spawn(move || {
                    let gen = TidGen::new();
                    let mut commits = 0u64;
                    while commits < 100 {
                        let mut p = OccTxn::new(ContainerId(0));
                        let row = p.read_expected(&t, &Key::Int(0)).unwrap();
                        let v = row.at(1).as_int();
                        p.update(&t, Tuple::of([Value::Int(0), Value::Int(v + 1)]))
                            .unwrap();
                        if Coordinator::commit(&mut [p], &epoch, &gen).is_ok() {
                            commits += 1;
                        }
                    }
                    total_committed.fetch_add(commits, std::sync::atomic::Ordering::Relaxed);
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let final_v = t.get(&Key::Int(0)).unwrap().read_unguarded().at(1).as_int();
        assert_eq!(
            final_v as u64,
            total_committed.load(std::sync::atomic::Ordering::Relaxed)
        );
        assert_eq!(final_v, 400);
    }
}
