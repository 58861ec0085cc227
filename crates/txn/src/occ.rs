//! Per-container transaction participant state (Silo-style OCC).
//!
//! An [`OccTxn`] tracks everything a (sub-)transaction did inside one
//! container: the record versions it read (read set), the writes it
//! buffered (write set), and the index-node versions its scans traversed
//! (node set — the Masstree/Silo device that makes range scans
//! phantom-safe). The reactor execution context performs all its relational
//! operations through this type, so that serializability follows from the
//! Silo validation protocol run at commit (see [`crate::coordinator`]):
//! read-set validation catches changes to rows that were read, node-set
//! validation catches changes to the *membership* of ranges that were
//! scanned and keys whose absence was observed.

use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;

use reactdb_common::{ContainerId, Key, Result, TxnError};
use reactdb_storage::{NodeBump, NodeObservation, RecordRef, Table, TidWord, Tuple};

/// True when `key` falls within owned `bounds`.
fn bounds_contain(bounds: &(Bound<Key>, Bound<Key>), key: &Key) -> bool {
    use std::ops::RangeBounds;
    (bounds.0.as_ref(), bounds.1.as_ref()).contains(key)
}

/// The kind of buffered write.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteKind {
    /// Insert of a new row (the slot was absent when the transaction wrote).
    Insert(Tuple),
    /// Update of an existing row to a new image.
    Update(Tuple),
    /// Deletion of an existing row.
    Delete,
}

/// One entry of the read set: the record handle and the version observed.
#[derive(Debug, Clone)]
pub(crate) struct ReadEntry {
    pub record: RecordRef,
    pub observed: TidWord,
}

/// One entry of the write set.
#[derive(Debug, Clone)]
pub(crate) struct WriteEntry {
    pub table: Arc<Table>,
    pub key: Key,
    pub record: RecordRef,
    /// Image of the row before this transaction (None when inserting into a
    /// previously absent slot); needed for secondary-index maintenance.
    pub before: Option<Tuple>,
    /// Version carrying `before` when it was captured. Read validation pins
    /// it (the record must still hold this version at commit), which is
    /// what makes it a sound base for delta redo records.
    pub before_tid: TidWord,
    pub kind: WriteKind,
}

/// The participant state of a transaction within one container.
#[derive(Debug)]
pub struct OccTxn {
    container: ContainerId,
    reads: Vec<ReadEntry>,
    read_index: HashMap<usize, usize>,
    writes: Vec<WriteEntry>,
    /// The node set: index-node versions observed by scans and absent point
    /// reads, re-checked by commit validation (phantom protection).
    nodes: Vec<NodeObservation>,
    node_index: HashMap<usize, usize>,
    /// Largest committed version observed by any read or overwritten record.
    max_observed: TidWord,
    /// Count of record-level operations, used by the engine's profiler to
    /// attribute processing cost.
    ops: u64,
    /// Count of scan operations (range scans, full scans, secondary
    /// lookups/ranges), surfaced in engine statistics.
    scans: u64,
    /// Index entries those scans walked, visible or not.
    scan_slots: u64,
    /// Rows those scans returned.
    scan_rows: u64,
}

impl OccTxn {
    /// Creates an empty participant for `container`.
    pub fn new(container: ContainerId) -> Self {
        Self {
            container,
            reads: Vec::new(),
            read_index: HashMap::new(),
            writes: Vec::new(),
            nodes: Vec::new(),
            node_index: HashMap::new(),
            max_observed: TidWord::committed(0, 0),
            ops: 0,
            scans: 0,
            scan_slots: 0,
            scan_rows: 0,
        }
    }

    /// Container this participant belongs to.
    pub fn container(&self) -> ContainerId {
        self.container
    }

    /// Number of entries in the read set.
    pub fn read_set_len(&self) -> usize {
        self.reads.len()
    }

    /// Number of entries in the write set.
    pub fn write_set_len(&self) -> usize {
        self.writes.len()
    }

    /// Number of distinct index nodes in the node set.
    pub fn node_set_len(&self) -> usize {
        self.nodes.len()
    }

    /// Number of record operations performed so far.
    pub fn op_count(&self) -> u64 {
        self.ops
    }

    /// Number of scan operations (range/full scans, secondary lookups)
    /// performed so far.
    pub fn scan_count(&self) -> u64 {
        self.scans
    }

    /// Index entries walked by those scans, visible or not: what the scans
    /// cost, against [`OccTxn::scan_rows_returned`], what they were for.
    pub fn scan_slots_visited(&self) -> u64 {
        self.scan_slots
    }

    /// Rows returned by those scans.
    pub fn scan_rows_returned(&self) -> u64 {
        self.scan_rows
    }

    /// Largest committed record version this participant observed.
    pub fn max_observed(&self) -> TidWord {
        self.max_observed
    }

    fn record_ptr(record: &RecordRef) -> usize {
        Arc::as_ptr(record) as usize
    }

    fn track_read(&mut self, record: &RecordRef, observed: TidWord) {
        if observed.version() > self.max_observed.version() {
            self.max_observed = observed;
        }
        let ptr = Self::record_ptr(record);
        if self.read_index.contains_key(&ptr) {
            return;
        }
        self.read_index.insert(ptr, self.reads.len());
        self.reads.push(ReadEntry {
            record: Arc::clone(record),
            observed,
        });
    }

    /// Records a node observation in the node set. The **first** observation
    /// of a node wins: if a later traversal sees a different version, the
    /// two traversals are mutually inconsistent and validation must fail,
    /// which keeping the older version guarantees.
    fn track_node(&mut self, obs: NodeObservation) {
        let ptr = obs.node_ptr();
        if self.node_index.contains_key(&ptr) {
            return;
        }
        self.node_index.insert(ptr, self.nodes.len());
        self.nodes.push(obs);
    }

    /// Refreshes the node set after a structural change made *by this
    /// transaction itself* (Silo's rule: an insert must not phantom-abort
    /// its own earlier scans). The recorded version advances only when it
    /// matches the pre-bump version — if it does not, a concurrent
    /// structural change interleaved and validation must decide.
    pub(crate) fn refresh_node(&mut self, bump: &NodeBump) {
        let ptr = Arc::as_ptr(&bump.node) as usize;
        if let Some(&i) = self.node_index.get(&ptr) {
            if self.nodes[i].version == bump.before {
                self.nodes[i].version = bump.after;
            }
        }
    }

    fn find_write(&self, table: &Arc<Table>, key: &Key) -> Option<usize> {
        self.writes
            .iter()
            .position(|w| Arc::ptr_eq(&w.table, table) && &w.key == key)
    }

    /// Transactional point read of `key` in `table`. Returns the row visible
    /// to this transaction (its own writes first, then the committed state),
    /// or `None` if the row does not exist.
    pub fn read(&mut self, table: &Arc<Table>, key: &Key) -> Result<Option<Tuple>> {
        self.ops += 1;
        // Read-your-writes.
        if let Some(idx) = self.find_write(table, key) {
            return Ok(match &self.writes[idx].kind {
                WriteKind::Insert(t) | WriteKind::Update(t) => Some(t.clone()),
                WriteKind::Delete => None,
            });
        }
        match table.get_observed(key) {
            (None, obs) => {
                // The key has no slot: observe its covering index node so a
                // concurrent insert of this key (a point phantom) fails
                // node-set validation.
                self.track_node(obs);
                Ok(None)
            }
            (Some(record), _) => {
                let (tid, data) = record.read_stable();
                self.track_read(&record, tid);
                if tid.is_absent() {
                    Ok(None)
                } else {
                    Ok(Some(data))
                }
            }
        }
    }

    /// Like [`OccTxn::read`] but returns an error if the row is missing.
    pub fn read_expected(&mut self, table: &Arc<Table>, key: &Key) -> Result<Tuple> {
        self.read(table, key)?.ok_or_else(|| TxnError::NotFound {
            relation: table.name().to_owned(),
            key: key.to_string(),
        })
    }

    /// Transactional insert. Fails with [`TxnError::DuplicateKey`] if the row
    /// already exists (either committed or inserted earlier by this
    /// transaction).
    pub fn insert(&mut self, table: &Arc<Table>, row: Tuple) -> Result<()> {
        self.ops += 1;
        table.schema().validate(table.name(), row.values())?;
        let key = row.primary_key(table.schema());
        if let Some(idx) = self.find_write(table, &key) {
            match &self.writes[idx].kind {
                WriteKind::Delete => {
                    // Delete-then-insert within one transaction becomes an
                    // update of the existing slot.
                    let before = self.writes[idx].before.clone();
                    let before_tid = self.writes[idx].before_tid;
                    self.writes[idx] = WriteEntry {
                        table: Arc::clone(table),
                        key,
                        record: Arc::clone(&self.writes[idx].record),
                        before,
                        before_tid,
                        kind: WriteKind::Update(row),
                    };
                    return Ok(());
                }
                _ => {
                    return Err(TxnError::DuplicateKey {
                        relation: table.name().to_owned(),
                        key: key.to_string(),
                    })
                }
            }
        }
        let (record, structural) = table.get_or_create(key.clone(), row.clone());
        if let Some(bump) = &structural {
            // Our own slot creation bumped the covering node; refresh our
            // node set so our earlier scans of the range stay valid.
            self.refresh_node(bump);
        }
        let (tid, before) = record.read_stable();
        self.track_read(&record, tid);
        if !tid.is_absent() {
            return Err(TxnError::DuplicateKey {
                relation: table.name().to_owned(),
                key: key.to_string(),
            });
        }
        let _ = before;
        self.writes.push(WriteEntry {
            table: Arc::clone(table),
            key,
            record,
            before: None,
            before_tid: tid,
            kind: WriteKind::Insert(row),
        });
        Ok(())
    }

    /// Transactional full-row update. Fails with [`TxnError::NotFound`] if
    /// the row does not exist.
    pub fn update(&mut self, table: &Arc<Table>, row: Tuple) -> Result<()> {
        self.ops += 1;
        table.schema().validate(table.name(), row.values())?;
        let key = row.primary_key(table.schema());
        if let Some(idx) = self.find_write(table, &key) {
            match self.writes[idx].kind.clone() {
                WriteKind::Delete => {
                    return Err(TxnError::NotFound {
                        relation: table.name().to_owned(),
                        key: key.to_string(),
                    })
                }
                WriteKind::Insert(_) => {
                    self.writes[idx].kind = WriteKind::Insert(row);
                    return Ok(());
                }
                WriteKind::Update(_) => {
                    self.writes[idx].kind = WriteKind::Update(row);
                    return Ok(());
                }
            }
        }
        let record = table.get(&key).ok_or_else(|| TxnError::NotFound {
            relation: table.name().to_owned(),
            key: key.to_string(),
        })?;
        let (tid, before) = record.read_stable();
        self.track_read(&record, tid);
        if tid.is_absent() {
            return Err(TxnError::NotFound {
                relation: table.name().to_owned(),
                key: key.to_string(),
            });
        }
        self.writes.push(WriteEntry {
            table: Arc::clone(table),
            key,
            record,
            before: Some(before),
            before_tid: tid,
            kind: WriteKind::Update(row),
        });
        Ok(())
    }

    /// Reads a row, applies `f` to it and buffers the modified image as an
    /// update — the common read-modify-write shape of the benchmarks.
    pub fn update_with<F>(&mut self, table: &Arc<Table>, key: &Key, f: F) -> Result<Tuple>
    where
        F: FnOnce(&mut Tuple),
    {
        let mut row = self.read_expected(table, key)?;
        f(&mut row);
        self.update(table, row.clone())?;
        Ok(row)
    }

    /// Transactional delete. Fails with [`TxnError::NotFound`] if the row
    /// does not exist.
    pub fn delete(&mut self, table: &Arc<Table>, key: &Key) -> Result<()> {
        self.ops += 1;
        if let Some(idx) = self.find_write(table, &key.clone()) {
            match self.writes[idx].kind.clone() {
                WriteKind::Delete => {
                    return Err(TxnError::NotFound {
                        relation: table.name().to_owned(),
                        key: key.to_string(),
                    })
                }
                WriteKind::Insert(_) => {
                    // Insert-then-delete cancels out; keep the slot absent.
                    self.writes.remove(idx);
                    return Ok(());
                }
                WriteKind::Update(_) => {
                    self.writes[idx].kind = WriteKind::Delete;
                    return Ok(());
                }
            }
        }
        let record = table.get(key).ok_or_else(|| TxnError::NotFound {
            relation: table.name().to_owned(),
            key: key.to_string(),
        })?;
        let (tid, before) = record.read_stable();
        self.track_read(&record, tid);
        if tid.is_absent() {
            return Err(TxnError::NotFound {
                relation: table.name().to_owned(),
                key: key.to_string(),
            });
        }
        self.writes.push(WriteEntry {
            table: Arc::clone(table),
            key: key.clone(),
            record,
            before: Some(before),
            before_tid: tid,
            kind: WriteKind::Delete,
        });
        Ok(())
    }

    /// Transactional range scan over the primary key that stops once it has
    /// `n` visible rows: the first `n` of the range in key order, or the
    /// last `n` in descending order when `reverse`. Visible means committed
    /// rows merged with this transaction's own writes; an own buffered
    /// delete is skipped and does not count toward `n`.
    ///
    /// The index is walked a page at a time. Each page collects slot
    /// handles under one short read-section of the index lock and reads
    /// them outside it, so the scan never spins on a record lock while
    /// holding the index lock. The first page asks for exactly `n` slots —
    /// all that is needed when the head of the range is live — and later
    /// pages grow geometrically, so a run of deleted slots ahead of the
    /// `n`-th visible row costs O(log) lock sections, not one per slot.
    ///
    /// The scan is phantom-safe and validates only what it walked (the
    /// Masstree/Silo node-set protocol): every slot walked up to the `n`-th
    /// visible row — absent ones included — joins the read set, and every
    /// index node the pages touched, empty ones included, joins the node
    /// set. Commit validation re-checks both after write locks are
    /// acquired and aborts with [`TxnError::Phantom`] when the membership
    /// of the walked span changed. Nodes past the last page's stop key are
    /// not observed: an insert there cannot change the first `n` rows, so
    /// it is not a conflict.
    pub fn scan_limit(
        &mut self,
        table: &Arc<Table>,
        low: Bound<&Key>,
        high: Bound<&Key>,
        n: usize,
        reverse: bool,
    ) -> Result<Vec<(Key, Tuple)>> {
        self.ops += 1;
        self.scans += 1;
        let mut out: Vec<(Key, Tuple)> = Vec::new();
        let mut cursor: Option<Key> = None;
        let mut page_len = n;
        while out.len() < n {
            let (from, to) = match (&cursor, reverse) {
                (None, _) => (low, high),
                (Some(last), false) => (Bound::Excluded(last), high),
                (Some(last), true) => (low, Bound::Excluded(last)),
            };
            let page = table.walk(from, to, reverse, page_len);
            self.scan_slots += page.slots.len() as u64;
            for obs in page.nodes {
                self.track_node(obs);
            }
            if !page.exhausted {
                cursor = page.slots.last().map(|(key, _)| key.clone());
            }
            // Own inserts need no merge step: the slot was created when
            // the write was buffered, so the walk already returns it.
            for (key, record) in page.slots {
                if out.len() == n {
                    break;
                }
                if let Some(idx) = self.find_write(table, &key) {
                    match &self.writes[idx].kind {
                        WriteKind::Insert(t) | WriteKind::Update(t) => out.push((key, t.clone())),
                        WriteKind::Delete => {}
                    }
                    continue;
                }
                let (tid, data) = record.read_stable();
                self.track_read(&record, tid);
                if !tid.is_absent() {
                    out.push((key, data));
                }
            }
            if page.exhausted {
                break;
            }
            page_len = page_len.saturating_mul(2);
        }
        self.scan_rows += out.len() as u64;
        Ok(out)
    }

    /// Transactional range scan over the primary key: every visible row of
    /// the range in key order — [`OccTxn::scan_limit`] without a limit, so
    /// one page under one index read-section, observing every node the
    /// bounds cover.
    pub fn scan_range(
        &mut self,
        table: &Arc<Table>,
        low: Bound<&Key>,
        high: Bound<&Key>,
    ) -> Result<Vec<(Key, Tuple)>> {
        self.scan_limit(table, low, high, usize::MAX, false)
    }

    /// Full-table scan (range with no bounds).
    pub fn scan(&mut self, table: &Arc<Table>) -> Result<Vec<(Key, Tuple)>> {
        self.scan_range(table, Bound::Unbounded, Bound::Unbounded)
    }

    /// Secondary-index equality lookup: returns the matching visible rows.
    /// The node covering the index key is observed, so a commit that adds
    /// or removes a matching `(index key, primary key)` pair — membership
    /// this lookup's result depends on — fails node-set validation.
    ///
    /// Fetched rows are re-checked against the index key: an index entry
    /// can be provisional (a concurrent commit's fence installed it before
    /// the row image) or superseded by this transaction's own buffered
    /// update, and the row's actual index key decides. Own buffered writes
    /// whose index key matches but which are not yet in the index are
    /// merged in, so read-your-writes holds for index lookups too.
    pub fn secondary_lookup(
        &mut self,
        table: &Arc<Table>,
        index_id: usize,
        index_key: &Key,
    ) -> Result<Vec<(Key, Tuple)>> {
        self.ops += 1;
        self.scans += 1;
        let positions = table.secondary_positions(index_id);
        let (pks, obs) = table.secondary_lookup_observed(index_id, index_key);
        self.track_node(obs);
        self.scan_slots += pks.len() as u64;
        let mut out = Vec::new();
        for pk in pks {
            if let Some(row) = self.read(table, &pk)? {
                if row.index_key(&positions).as_ref() == Some(index_key) {
                    out.push((pk, row));
                }
            }
        }
        self.merge_own_index_writes(table, &positions, &mut out, |ik| ik == index_key);
        out.sort_by(|a, b| a.0.cmp(&b.0));
        self.scan_rows += out.len() as u64;
        Ok(out)
    }

    /// Secondary-index range scan: visible rows whose index key falls in
    /// the bounds, in index order, with the traversed index nodes observed
    /// (same phantom protection and own-write merging as
    /// [`OccTxn::secondary_lookup`]).
    pub fn secondary_scan(
        &mut self,
        table: &Arc<Table>,
        index_id: usize,
        low: Bound<&Key>,
        high: Bound<&Key>,
    ) -> Result<Vec<(Key, Tuple)>> {
        self.ops += 1;
        self.scans += 1;
        let positions = table.secondary_positions(index_id);
        let bounds = (low.cloned(), high.cloned());
        let (pairs, observations) = table.secondary_range_observed(index_id, low, high);
        for obs in observations {
            self.track_node(obs);
        }
        self.scan_slots += pairs.len() as u64;
        let mut out = Vec::new();
        for (_ik, pk) in pairs {
            if let Some(row) = self.read(table, &pk)? {
                let in_bounds = row
                    .index_key(&positions)
                    .map(|ik| bounds_contain(&bounds, &ik))
                    .unwrap_or(false);
                if in_bounds {
                    out.push((pk, row));
                }
            }
        }
        self.merge_own_index_writes(table, &positions, &mut out, |ik| {
            bounds_contain(&bounds, ik)
        });
        // Order by (index key, primary key), the order of the index itself.
        out.sort_by_cached_key(|(pk, row)| (row.index_key(&positions), pk.clone()));
        self.scan_rows += out.len() as u64;
        Ok(out)
    }

    /// Appends this transaction's buffered inserts/updates on `table`
    /// whose index key (per `positions`) satisfies `matches` and whose
    /// primary key is not already present in `out`. Buffered writes are
    /// not in the secondary index until commit, so index reads must merge
    /// them explicitly.
    fn merge_own_index_writes(
        &self,
        table: &Arc<Table>,
        positions: &[usize],
        out: &mut Vec<(Key, Tuple)>,
        matches: impl Fn(&Key) -> bool,
    ) {
        for w in &self.writes {
            if !Arc::ptr_eq(&w.table, table) {
                continue;
            }
            let row = match &w.kind {
                WriteKind::Insert(row) | WriteKind::Update(row) => row,
                WriteKind::Delete => continue,
            };
            let Some(ik) = row.index_key(positions) else {
                continue;
            };
            if matches(&ik) && !out.iter().any(|(pk, _)| pk == &w.key) {
                out.push((w.key.clone(), row.clone()));
            }
        }
    }

    /// Internal accessors for the commit coordinator.
    pub(crate) fn reads(&self) -> &[ReadEntry] {
        &self.reads
    }

    /// The node set, validated by the commit coordinator.
    pub(crate) fn nodes(&self) -> &[NodeObservation] {
        &self.nodes
    }

    pub(crate) fn writes(&self) -> &[WriteEntry] {
        &self.writes
    }

    /// True if this participant wrote nothing (read-only participants skip
    /// the write phase but still validate their reads).
    pub fn is_read_only(&self) -> bool {
        self.writes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reactdb_common::Value;
    use reactdb_storage::{ColumnType, Schema};

    fn table() -> Arc<Table> {
        let schema = Schema::of(
            &[("id", ColumnType::Int), ("val", ColumnType::Int)],
            &["id"],
        );
        let t = Arc::new(Table::new("t", schema));
        for i in 0..5i64 {
            t.load_row(Tuple::of([Value::Int(i), Value::Int(i * 10)]))
                .unwrap();
        }
        t
    }

    #[test]
    fn read_tracks_read_set_and_dedupes() {
        let t = table();
        let mut txn = OccTxn::new(ContainerId(0));
        assert_eq!(
            txn.read(&t, &Key::Int(1)).unwrap().unwrap().at(1),
            &Value::Int(10)
        );
        txn.read(&t, &Key::Int(1)).unwrap();
        txn.read(&t, &Key::Int(2)).unwrap();
        assert_eq!(txn.read_set_len(), 2);
        assert!(txn.read(&t, &Key::Int(77)).unwrap().is_none());
        assert_eq!(txn.op_count(), 4);
    }

    #[test]
    fn read_your_writes() {
        let t = table();
        let mut txn = OccTxn::new(ContainerId(0));
        txn.update(&t, Tuple::of([Value::Int(1), Value::Int(999)]))
            .unwrap();
        assert_eq!(
            txn.read(&t, &Key::Int(1)).unwrap().unwrap().at(1),
            &Value::Int(999)
        );
        // The committed state is untouched before commit.
        let committed = t.get(&Key::Int(1)).unwrap().read_unguarded();
        assert_eq!(committed.at(1), &Value::Int(10));
    }

    #[test]
    fn insert_duplicate_detection() {
        let t = table();
        let mut txn = OccTxn::new(ContainerId(0));
        let err = txn
            .insert(&t, Tuple::of([Value::Int(1), Value::Int(0)]))
            .unwrap_err();
        assert!(matches!(err, TxnError::DuplicateKey { .. }));
        txn.insert(&t, Tuple::of([Value::Int(100), Value::Int(0)]))
            .unwrap();
        let err = txn
            .insert(&t, Tuple::of([Value::Int(100), Value::Int(0)]))
            .unwrap_err();
        assert!(matches!(err, TxnError::DuplicateKey { .. }));
        // The new row is visible to this transaction but not committed.
        assert!(txn.read(&t, &Key::Int(100)).unwrap().is_some());
        assert_eq!(t.visible_len(), 5);
    }

    #[test]
    fn update_and_delete_of_missing_rows_fail() {
        let t = table();
        let mut txn = OccTxn::new(ContainerId(0));
        assert!(matches!(
            txn.update(&t, Tuple::of([Value::Int(50), Value::Int(1)]))
                .unwrap_err(),
            TxnError::NotFound { .. }
        ));
        assert!(matches!(
            txn.delete(&t, &Key::Int(50)).unwrap_err(),
            TxnError::NotFound { .. }
        ));
    }

    #[test]
    fn delete_then_read_sees_nothing() {
        let t = table();
        let mut txn = OccTxn::new(ContainerId(0));
        txn.delete(&t, &Key::Int(1)).unwrap();
        assert!(txn.read(&t, &Key::Int(1)).unwrap().is_none());
        // delete then insert becomes an update
        txn.insert(&t, Tuple::of([Value::Int(1), Value::Int(5)]))
            .unwrap();
        assert_eq!(
            txn.read(&t, &Key::Int(1)).unwrap().unwrap().at(1),
            &Value::Int(5)
        );
    }

    #[test]
    fn insert_then_delete_cancels() {
        let t = table();
        let mut txn = OccTxn::new(ContainerId(0));
        txn.insert(&t, Tuple::of([Value::Int(200), Value::Int(5)]))
            .unwrap();
        txn.delete(&t, &Key::Int(200)).unwrap();
        assert!(txn.read(&t, &Key::Int(200)).unwrap().is_none());
        assert_eq!(txn.write_set_len(), 0);
    }

    #[test]
    fn scan_merges_own_writes() {
        let t = table();
        let mut txn = OccTxn::new(ContainerId(0));
        txn.update(&t, Tuple::of([Value::Int(0), Value::Int(-1)]))
            .unwrap();
        txn.delete(&t, &Key::Int(4)).unwrap();
        txn.insert(&t, Tuple::of([Value::Int(10), Value::Int(100)]))
            .unwrap();
        let rows = txn.scan(&t).unwrap();
        assert_eq!(rows.len(), 5); // 5 committed - 1 deleted + 1 inserted
        assert_eq!(rows[0].1.at(1), &Value::Int(-1));
        assert_eq!(rows.last().unwrap().0, Key::Int(10));
        assert!(!rows.iter().any(|(k, _)| *k == Key::Int(4)));
    }

    #[test]
    fn scan_range_respects_bounds() {
        let t = table();
        let mut txn = OccTxn::new(ContainerId(0));
        let rows = txn
            .scan_range(
                &t,
                Bound::Included(&Key::Int(1)),
                Bound::Excluded(&Key::Int(3)),
            )
            .unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn scan_limit_stops_at_n_visible_rows_in_either_direction() {
        let t = table();
        // Rows 0 and 1 are deleted: their slots stay behind as tombstones.
        for i in 0..2 {
            let dead = t.get(&Key::Int(i)).unwrap();
            dead.lock();
            dead.install_delete(TidWord::committed(1, i as u64 + 1));
        }
        let keys = |rows: Vec<(Key, Tuple)>| rows.into_iter().map(|(k, _)| k).collect::<Vec<_>>();
        let mut txn = OccTxn::new(ContainerId(0));
        let first = txn
            .scan_limit(&t, Bound::Unbounded, Bound::Unbounded, 1, false)
            .unwrap();
        assert_eq!(keys(first), vec![Key::Int(2)]);
        // A page of one, then a page of two: both tombstones were walked
        // and validated, nothing past the first live row was.
        assert_eq!(txn.scan_slots_visited(), 3);
        assert_eq!(txn.scan_rows_returned(), 1);
        assert_eq!(txn.read_set_len(), 3);

        // Own writes merge in walk order; an own delete does not count.
        txn.delete(&t, &Key::Int(4)).unwrap();
        txn.insert(&t, Tuple::of([Value::Int(7), Value::Int(70)]))
            .unwrap();
        let last = txn
            .scan_limit(&t, Bound::Unbounded, Bound::Unbounded, 2, true)
            .unwrap();
        assert_eq!(keys(last), vec![Key::Int(7), Key::Int(3)]);
        let bounded = txn
            .scan_limit(
                &t,
                Bound::Included(&Key::Int(2)),
                Bound::Excluded(&Key::Int(7)),
                usize::MAX,
                true,
            )
            .unwrap();
        assert_eq!(keys(bounded), vec![Key::Int(3), Key::Int(2)]);
        assert!(txn
            .scan_limit(&t, Bound::Unbounded, Bound::Unbounded, 0, false)
            .unwrap()
            .is_empty());
        assert_eq!(txn.scan_count(), 4);
    }

    #[test]
    fn update_with_applies_mutation() {
        let t = table();
        let mut txn = OccTxn::new(ContainerId(0));
        let row = txn
            .update_with(&t, &Key::Int(2), |r| {
                let v = r.at(1).as_int();
                r.values_mut()[1] = Value::Int(v + 1);
            })
            .unwrap();
        assert_eq!(row.at(1), &Value::Int(21));
        assert_eq!(
            txn.read(&t, &Key::Int(2)).unwrap().unwrap().at(1),
            &Value::Int(21)
        );
    }

    #[test]
    fn scans_build_a_node_set_and_count_scan_ops() {
        let t = table();
        let mut txn = OccTxn::new(ContainerId(0));
        assert_eq!(txn.node_set_len(), 0);
        txn.scan(&t).unwrap();
        assert!(txn.node_set_len() >= 1, "scan observes traversed nodes");
        let after_first = txn.node_set_len();
        txn.scan(&t).unwrap();
        assert_eq!(txn.node_set_len(), after_first, "observations dedupe");
        assert_eq!(txn.scan_count(), 2);
        // Point reads of present rows do not grow the node set...
        txn.read(&t, &Key::Int(1)).unwrap();
        assert_eq!(txn.node_set_len(), after_first);
        // ...but reads of absent keys observe their covering node.
        let mut absent = OccTxn::new(ContainerId(0));
        absent.read(&t, &Key::Int(999)).unwrap();
        assert_eq!(absent.node_set_len(), 1);
        assert_eq!(absent.scan_count(), 0);
    }

    #[test]
    fn secondary_reads_respect_own_buffered_writes() {
        use reactdb_storage::Table;
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
        let mut txn = OccTxn::new(ContainerId(0));
        // Move row 1 out of group 0 and insert a fresh row 10 into it —
        // both buffered, neither reflected in the physical index yet.
        txn.update(&t, Tuple::of([Value::Int(1), Value::Int(9), Value::Int(0)]))
            .unwrap();
        txn.insert(
            &t,
            Tuple::of([Value::Int(10), Value::Int(0), Value::Int(0)]),
        )
        .unwrap();
        txn.delete(&t, &Key::Int(3)).unwrap();

        let hits = txn.secondary_lookup(&t, 0, &Key::Int(0)).unwrap();
        let pks: Vec<_> = hits.iter().map(|(pk, _)| pk.clone()).collect();
        assert_eq!(
            pks,
            vec![Key::Int(0), Key::Int(2), Key::Int(10)],
            "own update leaves grp 0, own insert joins it, own delete drops out"
        );
        // The moved row shows up under its new group.
        let hits = txn.secondary_lookup(&t, 0, &Key::Int(9)).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, Key::Int(1));
        // Range scans over the index merge the same way.
        let hits = txn
            .secondary_scan(
                &t,
                0,
                Bound::Included(&Key::Int(0)),
                Bound::Included(&Key::Int(9)),
            )
            .unwrap();
        assert_eq!(hits.len(), 4, "grp 0 members plus the moved row");
    }

    #[test]
    fn max_observed_tracks_largest_version() {
        let t = table();
        // Bump one record to a higher version.
        let rec = t.get(&Key::Int(3)).unwrap();
        rec.lock();
        rec.install(
            Tuple::of([Value::Int(3), Value::Int(30)]),
            TidWord::committed(2, 9),
        );
        let mut txn = OccTxn::new(ContainerId(0));
        txn.read(&t, &Key::Int(1)).unwrap();
        txn.read(&t, &Key::Int(3)).unwrap();
        assert_eq!(txn.max_observed().epoch(), 2);
        assert_eq!(txn.max_observed().sequence(), 9);
    }
}
