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
use reactdb_storage::{NodeBump, NodeObservation, RecordRef, Table, TidWord, Tuple, WalkPage};

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
    /// lookups), surfaced in engine statistics.
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
                    self.writes[idx] = WriteEntry {
                        table: Arc::clone(table),
                        key,
                        record: Arc::clone(&self.writes[idx].record),
                        before,
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
        let (tid, _) = record.read_stable();
        self.track_read(&record, tid);
        if !tid.is_absent() {
            return Err(TxnError::DuplicateKey {
                relation: table.name().to_owned(),
                key: key.to_string(),
            });
        }
        self.writes.push(WriteEntry {
            table: Arc::clone(table),
            key,
            record,
            before: None,
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
            kind: WriteKind::Delete,
        });
        Ok(())
    }

    /// The paging loop under every bounded read. `walk` returns one page of
    /// up to the given number of slots, resuming strictly past the cursor
    /// key (`None` for the first page). Each page collects slot handles
    /// under one short read-section of the index lock, and `visit` reads
    /// them outside it, so a read never spins on a record lock while
    /// holding the index lock. The first page asks for exactly `n` slots —
    /// all that is needed when the head of the span is live — and later
    /// pages grow geometrically, so a run of dead slots ahead of the `n`-th
    /// row costs O(log) lock sections, not one per slot. Every node a page
    /// walked joins the node set. Stops once `out` holds `n` rows; returns
    /// whether the walk reached the far end of its span first.
    fn walk_pages<V>(
        &mut self,
        n: usize,
        out: &mut Vec<(Key, Tuple)>,
        mut walk: impl FnMut(Option<&Key>, usize) -> WalkPage<V>,
        mut visit: impl FnMut(&mut Self, Key, V, &mut Vec<(Key, Tuple)>) -> Result<()>,
    ) -> Result<bool> {
        self.ops += 1;
        self.scans += 1;
        let mut cursor: Option<Key> = None;
        let mut page_len = n;
        while out.len() < n {
            let page = walk(cursor.as_ref(), page_len);
            self.scan_slots += page.slots.len() as u64;
            for obs in page.nodes {
                self.track_node(obs);
            }
            cursor = page.slots.last().map(|(key, _)| key.clone());
            for (key, value) in page.slots {
                if out.len() >= n {
                    break;
                }
                visit(self, key, value, out)?;
            }
            if page.exhausted {
                return Ok(true);
            }
            page_len = page_len.saturating_mul(2);
        }
        Ok(false)
    }

    /// Transactional range scan over the primary key that stops once it has
    /// `n` visible rows: the first `n` of the range in key order, or the
    /// last `n` in descending order when `reverse`. Visible means committed
    /// rows merged with this transaction's own writes; an own buffered
    /// delete is skipped and does not count toward `n`.
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
        let mut out = Vec::new();
        self.walk_pages(
            n,
            &mut out,
            |cursor, len| {
                let (from, to) = match (cursor, reverse) {
                    (None, _) => (low, high),
                    (Some(last), false) => (Bound::Excluded(last), high),
                    (Some(last), true) => (low, Bound::Excluded(last)),
                };
                table.walk(from, to, reverse, len)
            },
            |txn, key, record, out| {
                // Own inserts need no merge step: the slot was created when
                // the write was buffered, so the walk already returns it.
                if let Some(idx) = txn.find_write(table, &key) {
                    if let WriteKind::Insert(t) | WriteKind::Update(t) = &txn.writes[idx].kind {
                        out.push((key, t.clone()));
                    }
                    return Ok(());
                }
                let (tid, data) = record.read_stable();
                txn.track_read(&record, tid);
                if !tid.is_absent() {
                    out.push((key, data));
                }
                Ok(())
            },
        )?;
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

    /// Secondary-index lookup: the first `n` visible rows whose index key is
    /// `index_key`, in primary-key order, or the last `n` in descending
    /// order when `reverse`. The index holds one `(index key ‖ primary
    /// key)` entry per row, so the rows of one index key are one span of
    /// it, paged and validated exactly like a [`OccTxn::scan_limit`] range:
    /// a commit that adds or removes an entry inside the walked span —
    /// membership this lookup's result depends on — fails node-set
    /// validation, and one past the stop entry does not.
    ///
    /// Each entry's row is read (joining the read set) and re-checked
    /// against `index_key`: an entry can be provisional (a concurrent
    /// commit's fence installed it before the row image) or superseded by
    /// this transaction's own buffered update, and the row decides. Own
    /// buffered writes that carry `index_key` are not in the index until
    /// commit; they are merged in walk order, so read-your-writes holds for
    /// index reads too.
    pub fn secondary_lookup(
        &mut self,
        table: &Arc<Table>,
        index_id: usize,
        index_key: &Key,
        n: usize,
        reverse: bool,
    ) -> Result<Vec<(Key, Tuple)>> {
        let positions = table.secondary_positions(index_id);
        let matches = |row: &Tuple| row.index_key(positions).as_ref() == Some(index_key);
        let walk_order = |a: &Key, b: &Key| if reverse { b.cmp(a) } else { a.cmp(b) };
        let mut own: Vec<(Key, Tuple)> = self
            .writes
            .iter()
            .filter(|w| Arc::ptr_eq(&w.table, table))
            .filter_map(|w| match &w.kind {
                WriteKind::Insert(row) | WriteKind::Update(row) if matches(row) => {
                    Some((w.key.clone(), row.clone()))
                }
                _ => None,
            })
            .collect();
        own.sort_by(|a, b| walk_order(&a.0, &b.0));
        let mut own = own.into_iter().peekable();
        let mut out = Vec::new();
        let exhausted = self.walk_pages(
            n,
            &mut out,
            |after, len| table.index_walk(index_id, index_key, after, reverse, len),
            |txn, pk, (), out| {
                while out.len() < n {
                    match own.next_if(|(key, _)| walk_order(key, &pk).is_lt()) {
                        Some(row) => out.push(row),
                        None => break,
                    }
                }
                if out.len() == n {
                    return Ok(());
                }
                // An own write of this very row is resolved by the read.
                own.next_if(|(key, _)| *key == pk);
                if let Some(row) = txn.read(table, &pk)? {
                    if matches(&row) {
                        out.push((pk, row));
                    }
                }
                Ok(())
            },
        )?;
        if exhausted {
            out.extend(own.take(n - out.len()));
        }
        self.scan_rows += out.len() as u64;
        Ok(out)
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

        let mut lookup = |grp: i64, n: usize, reverse: bool| {
            let hits = txn.secondary_lookup(&t, 0, &Key::Int(grp), n, reverse);
            hits.unwrap()
                .into_iter()
                .map(|(pk, _)| pk)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            lookup(0, usize::MAX, false),
            vec![Key::Int(0), Key::Int(2), Key::Int(10)],
            "own update leaves grp 0, own insert joins it, own delete drops out"
        );
        // Limits count merged rows in walk order, in either direction.
        assert_eq!(lookup(0, 1, true), vec![Key::Int(10)]);
        assert_eq!(lookup(0, 2, false), vec![Key::Int(0), Key::Int(2)]);
        // The moved row shows up under its new group.
        assert_eq!(lookup(9, usize::MAX, false), vec![Key::Int(1)]);
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
