//! Tables: a versioned ordered primary index over records plus optional
//! secondary indexes.
//!
//! A table stores the rows of one relation of one reactor. The primary index
//! is a [`VersionedIndex`] from primary [`Key`] to [`RecordRef`]. A secondary
//! index is a `VersionedIndex<()>` holding one entry per row, keyed
//! `(index key ‖ primary key)`, so the rows under one index key are one
//! contiguous span, walked and validated like a primary range. All physical
//! operations here are non-transactional — visibility and atomicity are the
//! responsibility of the OCC layer, which holds [`RecordRef`] handles
//! obtained from this table in its read and write sets, and
//! [`NodeObservation`]s from its traversals in its node set (phantom
//! protection; see the `index` module).

use std::ops::Bound;

use reactdb_common::{Key, ReactorId, Result, TxnError};

use crate::index::{NodeBump, NodeObservation, VersionedIndex, WalkPage};
use crate::record::{Record, RecordRef};
use crate::schema::Schema;
use crate::tid::TidWord;
use crate::tuple::Tuple;

/// A secondary index: one entry per row, keyed `[index key, primary key]`.
#[derive(Debug)]
struct SecondaryIndex {
    /// Column positions forming the index key, in order.
    positions: Vec<usize>,
    entries: VersionedIndex<()>,
}

impl SecondaryIndex {
    fn key_of(&self, row: Option<&Tuple>) -> Option<Key> {
        row.and_then(|t| t.index_key(&self.positions))
    }
}

/// The secondary-index entry of the row with primary key `pk` under
/// `index_key`.
fn index_entry(index_key: Key, pk: &Key) -> Key {
    Key::Composite(vec![index_key, pk.clone()])
}

/// The least key greater than `key` in `Key`'s derived order. `[successor]`
/// bounds the entries under `key` from above: every `[key, pk]` sorts below
/// it, every entry of a greater index key at or above it. `Key` has no
/// maximum, and an unbounded walk would observe every node to +∞.
fn successor(key: &Key) -> Key {
    match key {
        Key::Bool(false) => Key::Bool(true),
        Key::Bool(true) => Key::Int(i64::MIN),
        Key::Int(i64::MAX) => Key::Str(String::new()),
        Key::Int(i) => Key::Int(i + 1),
        Key::Str(s) => Key::Str(format!("{s}\0")),
        Key::Composite(parts) => {
            Key::Composite(parts.iter().cloned().chain([Key::Bool(false)]).collect())
        }
    }
}

/// What a [`Table::membership_fence`] did: the node bumps to refresh the
/// committing transaction's own node set with, and the provisional
/// secondary-index entries to undo via [`Table::fence_rollback`] if
/// validation fails.
#[derive(Debug, Default)]
pub struct FenceEffect {
    /// Version bumps performed (primary + secondary).
    pub bumps: Vec<NodeBump>,
    /// Provisional `(index id, entry)` pairs physically added for this
    /// write's primary key.
    pub added: Vec<(usize, Key)>,
}

/// One page of a [`Table::snapshot_chunk`] walk.
#[derive(Debug)]
pub struct SnapshotChunk {
    /// Visible rows in primary-key order, each with the commit TID its image
    /// corresponds to (version-stable capture).
    pub rows: Vec<(Key, TidWord, Tuple)>,
    /// Cursor for the next chunk; `None` when the walk is complete.
    pub next: Option<Key>,
}

/// A relation instance: schema + primary index + secondary indexes.
#[derive(Debug)]
pub struct Table {
    name: String,
    schema: Schema,
    /// Reactor whose state this relation instance belongs to. Defaults to
    /// reactor 0 for tables created outside a partition (unit tests); the
    /// durability layer uses it to address redo records.
    owner: ReactorId,
    primary: VersionedIndex<RecordRef>,
    secondary: Vec<SecondaryIndex>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Self {
            name: name.into(),
            schema,
            owner: ReactorId(0),
            primary: VersionedIndex::new(),
            secondary: Vec::new(),
        }
    }

    /// Creates an empty table with secondary indexes over the named column
    /// lists.
    ///
    /// # Panics
    /// Panics if an indexed column does not exist in the schema.
    pub fn with_indexes(
        name: impl Into<String>,
        schema: Schema,
        secondary: &[Vec<String>],
    ) -> Self {
        let name = name.into();
        let mut indexes = Vec::with_capacity(secondary.len());
        for cols in secondary {
            let positions: Vec<usize> = cols
                .iter()
                .map(|c| {
                    schema
                        .position_of(c)
                        .unwrap_or_else(|| panic!("indexed column {c} not in {name}"))
                })
                .collect();
            indexes.push(SecondaryIndex {
                positions,
                entries: VersionedIndex::new(),
            });
        }
        Self {
            name,
            schema,
            owner: ReactorId(0),
            primary: VersionedIndex::new(),
            secondary: indexes,
        }
    }

    /// Sets the owning reactor (builder style; used by
    /// [`crate::Partition::create_reactor`]).
    pub fn with_owner(mut self, owner: ReactorId) -> Self {
        self.owner = owner;
        self
    }

    /// Reactor whose state this relation instance belongs to.
    pub fn owner(&self) -> ReactorId {
        self.owner
    }

    /// Table (relation) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Column positions forming the key of secondary index `index_id`.
    /// Used by the OCC layer to re-derive a row's index key when filtering
    /// lookup results against provisional or stale index entries.
    ///
    /// # Panics
    /// Panics when `index_id` is out of range.
    pub fn secondary_positions(&self, index_id: usize) -> &[usize] {
        &self.secondary[index_id].positions
    }

    /// Number of leaf nodes the primary key space is split into (diagnostic;
    /// grows with the historical key count).
    pub fn primary_node_count(&self) -> usize {
        self.primary.node_count()
    }

    /// Number of records physically present in the primary index (including
    /// absent/deleted slots).
    pub fn physical_len(&self) -> usize {
        self.primary.len()
    }

    /// Number of visible rows.
    pub fn visible_len(&self) -> usize {
        self.primary.count_values(|r| r.is_visible())
    }

    /// Looks up the record slot for a primary key, visible or not.
    pub fn get(&self, key: &Key) -> Option<RecordRef> {
        self.primary.get_cloned(key)
    }

    /// Like [`Table::get`], but also returns the observation of the index
    /// node covering `key`. The OCC layer records the observation when the
    /// slot is absent, so a later insert of the key (a point phantom) is
    /// caught by node-set validation.
    pub fn get_observed(&self, key: &Key) -> (Option<RecordRef>, NodeObservation) {
        self.primary.get_observed(key)
    }

    /// Returns the record slot for `key`, creating an absent slot holding
    /// `provisional` if none exists. Slot creation is a structural mutation
    /// of the primary index: the covering node is bumped and the bump
    /// returned, so the creating transaction can refresh its own node set
    /// (its earlier scans of the node remain valid) while concurrent
    /// scanners of the range are invalidated. Used by transactional inserts;
    /// the slot only becomes visible when the transaction commits.
    pub fn get_or_create(&self, key: Key, provisional: Tuple) -> (RecordRef, Option<NodeBump>) {
        self.primary
            .get_or_insert_with(&key, || Record::new_absent(provisional))
    }

    /// Non-transactional bulk load of one row (used by benchmark loaders
    /// before measurement starts). Maintains secondary indexes.
    pub fn load_row(&self, row: Tuple) -> Result<()> {
        self.load_row_with_tid(row, TidWord::committed(0, 0))
    }

    /// Like [`Table::load_row`] but installs the row under a caller-chosen
    /// version. The durability layer uses this so the physical TID matches
    /// the logged TID: any later commit touching the row then observes (and
    /// exceeds) it, which is what makes TID-ordered replay consistent with
    /// the conflict order.
    pub fn load_row_with_tid(&self, row: Tuple, tid: TidWord) -> Result<()> {
        self.schema.validate(&self.name, row.values())?;
        let key = row.primary_key(&self.schema);
        let indexed = (!self.secondary.is_empty()).then(|| row.clone());
        // An invisible slot is replaced by the loaded record.
        let record = Record::new_loaded(row, tid);
        if !self
            .primary
            .insert_unless(&key, record, |slot| slot.is_visible())
        {
            return Err(TxnError::DuplicateKey {
                relation: self.name.clone(),
                key: key.to_string(),
            });
        }
        if let Some(row) = indexed {
            self.reindex(&key, None, Some(&row));
        }
        Ok(())
    }

    /// Record slots in primary-key order within `[low, high]` bounds
    /// (unbounded when `None`). Returns cloned keys with the record handles
    /// so the OCC layer can register reads.
    pub fn range(&self, low: Bound<&Key>, high: Bound<&Key>) -> Vec<(Key, RecordRef)> {
        self.primary.range_cloned(low, high)
    }

    /// One page of a primary-key traversal: up to `limit` record slots
    /// within the bounds, ascending or (`reverse`) descending, plus an
    /// observation of every index node the page walked — the scan set a
    /// phantom-safe transaction validates at commit. A page that stopped at
    /// `limit` observes nothing past its last slot; see
    /// [`VersionedIndex::walk`].
    pub fn walk(
        &self,
        low: Bound<&Key>,
        high: Bound<&Key>,
        reverse: bool,
        limit: usize,
    ) -> WalkPage<RecordRef> {
        self.primary.walk(low, high, reverse, limit)
    }

    /// All record slots in primary-key order.
    pub fn scan(&self) -> Vec<(Key, RecordRef)> {
        self.range(Bound::Unbounded, Bound::Unbounded)
    }

    /// One chunk of a fuzzy checkpoint walk: up to `limit` *visible* rows
    /// with primary keys strictly after `after`, each captured with a
    /// version-stable read (the row copy is guaranteed to match its TID),
    /// plus the cursor to resume from (`None` once the table is exhausted).
    ///
    /// The index lock is held only while the chunk's slot handles are
    /// collected; the per-row stable reads run outside it, so concurrent
    /// commits are never blocked for longer than one chunk collection. The
    /// capture is *fuzzy*: different chunks (and different rows of one
    /// chunk) may reflect different commit epochs — consistency is restored
    /// at recovery by TID-aware replay of the log tail over the captured
    /// rows (see [`Table::replay`]).
    pub fn snapshot_chunk(&self, after: Option<&Key>, limit: usize) -> SnapshotChunk {
        let low = after.map_or(Bound::Unbounded, Bound::Excluded);
        let page = self.primary.walk(low, Bound::Unbounded, false, limit);
        let next = match page.slots.last() {
            Some((key, _)) if !page.exhausted => Some(key.clone()),
            _ => None,
        };
        let mut rows = Vec::with_capacity(page.slots.len());
        for (key, record) in page.slots {
            let (tid, image) = record.read_stable();
            if tid.is_absent() {
                continue; // deleted or not-yet-committed slot
            }
            rows.push((key, tid, image));
        }
        SnapshotChunk { rows, next }
    }

    /// One page of the entries under `index_key` in secondary index
    /// `index_id`: the primary keys of up to `limit` of them, ascending or
    /// (`reverse`) descending, resuming strictly past the primary key
    /// `after` when given. The walk is [`Table::walk`]'s over the prefix
    /// span `[index_key] .. [successor(index_key)]`, with the same node
    /// observations: a full page observes nothing past its last entry, an
    /// exhausted one observes through to the end of the span.
    ///
    /// # Panics
    /// Panics when `index_id` is out of range.
    pub fn index_walk(
        &self,
        index_id: usize,
        index_key: &Key,
        after: Option<&Key>,
        reverse: bool,
        limit: usize,
    ) -> WalkPage<()> {
        let first = Key::Composite(vec![index_key.clone()]);
        let end = Key::Composite(vec![successor(index_key)]);
        let cursor = after.map(|pk| index_entry(index_key.clone(), pk));
        let (low, high) = match (&cursor, reverse) {
            (Some(entry), false) => (Bound::Excluded(entry), Bound::Excluded(&end)),
            (Some(entry), true) => (Bound::Included(&first), Bound::Excluded(entry)),
            (None, _) => (Bound::Included(&first), Bound::Excluded(&end)),
        };
        let mut page = self.secondary[index_id]
            .entries
            .walk(low, high, reverse, limit);
        for (entry, ()) in &mut page.slots {
            if let Key::Composite(parts) = entry {
                let pk = parts.pop().expect("an index entry ends in its primary key");
                *entry = pk;
            }
        }
        page
    }

    /// The commit path's membership fence, run after write locks are
    /// acquired and **before** validation. It bumps the index node covering
    /// every entry whose membership this write will change:
    ///
    /// * **additions** — a new `[index key, primary key]` entry is
    ///   physically installed in the same lock acquisition as its bump. A
    ///   concurrent lookup therefore either sees the pre-bump version (its
    ///   validation catches the change) or sees the provisional entry and
    ///   resolves it through the row record — which this transaction holds
    ///   locked, so the reader spins until commit or abort and then filters
    ///   by the row's actual index key. No window exists in which the
    ///   version is current but the membership is stale.
    /// * **removals and primary appear/disappear** — announced with a bump
    ///   only; the physical change happens in the write phase. Readers in
    ///   the window see a stale entry (or slot) whose record is locked, and
    ///   resolve it the same way.
    ///
    /// Fencing before validation is what closes the write-skew two
    /// concurrent scan-then-modify transactions would otherwise slip
    /// through: at least one of them sees the other's bump when
    /// validating. The returned bumps let the committing transaction
    /// refresh its own node set; the returned additions must be handed to
    /// [`Table::fence_rollback`] if the commit aborts.
    pub fn membership_fence(
        &self,
        key: &Key,
        before: Option<&Tuple>,
        after: Option<&Tuple>,
    ) -> FenceEffect {
        let mut effect = FenceEffect::default();
        if before.is_some() != after.is_some() {
            effect.bumps.push(self.primary.bump_covering(key));
        }
        for (index_id, idx) in self.secondary.iter().enumerate() {
            let (old_key, new_key) = (idx.key_of(before), idx.key_of(after));
            if old_key == new_key {
                continue;
            }
            if let Some(ik) = old_key {
                effect
                    .bumps
                    .push(idx.entries.bump_covering(&index_entry(ik, key)));
            }
            if let Some(ik) = new_key {
                let entry = index_entry(ik, key);
                if let (_, Some(bump)) = idx.entries.get_or_insert_with(&entry, || ()) {
                    effect.bumps.push(bump);
                    effect.added.push((index_id, entry));
                }
            }
        }
        effect
    }

    /// Removes the provisional entries of a [`Table::membership_fence`]
    /// whose commit failed validation, bumping their nodes again (readers
    /// that saw a provisional entry resolve it through the aborted record
    /// anyway; the extra bump only causes safe spurious invalidations).
    pub fn fence_rollback(&self, added: &[(usize, Key)]) {
        for (index_id, entry) in added {
            self.secondary[*index_id].entries.remove(entry);
        }
    }

    /// Write-phase counterpart of the fence: removes the stale
    /// `[old index key, pk]` entries of a committed update (`after = Some`)
    /// or delete (`after = None`). The removal bumps the entry's node a
    /// second time, which can only add a spurious abort for a lookup that
    /// walked it between the fence and now.
    pub fn index_retire_fenced(&self, pk: &Key, before: &Tuple, after: Option<&Tuple>) {
        for idx in &self.secondary {
            match idx.key_of(Some(before)) {
                Some(ik) if Some(&ik) != idx.key_of(after).as_ref() => {
                    idx.entries.remove(&index_entry(ik, pk));
                }
                _ => {}
            }
        }
    }

    /// Moves `pk`'s secondary entries from `before`'s index keys to
    /// `after`'s, bumping the nodes touched. Used by the bulk loader and
    /// recovery replay; transactional commits go through
    /// [`Table::membership_fence`] instead.
    fn reindex(&self, pk: &Key, before: Option<&Tuple>, after: Option<&Tuple>) {
        for idx in &self.secondary {
            let (old_key, new_key) = (idx.key_of(before), idx.key_of(after));
            if old_key == new_key {
                continue;
            }
            if let Some(ik) = old_key {
                idx.entries.remove(&index_entry(ik, pk));
            }
            if let Some(ik) = new_key {
                idx.entries.insert(index_entry(ik, pk), ());
            }
        }
    }

    /// Applies one redo record during crash recovery: installs `image` (or a
    /// logical delete when `None`) at `key` with the recorded commit TID,
    /// maintaining secondary indexes. Recovery replays records in TID order
    /// on a database that is not yet accepting transactions, so the record
    /// lock is only held to satisfy the install protocol.
    ///
    /// Replay is **idempotent by TID**: a record whose TID does not exceed
    /// the version already in the slot is skipped. This is what lets
    /// recovery layer a log tail over checkpoint rows (a fuzzy checkpoint
    /// may have captured a row *newer* than some retained log records), and
    /// what makes a crash between checkpoint completion and log truncation
    /// harmless — re-replaying covered records changes nothing.
    pub fn replay(&self, key: &Key, image: Option<&Tuple>, tid: TidWord) {
        if let Some(existing) = self.get(key) {
            if existing.tid().version() >= tid.version() {
                return; // slot already carries this or a newer version
            }
        }
        match image {
            Some(row) => {
                let (record, _created) = self.get_or_create(key.clone(), row.clone());
                let before = record.is_visible().then(|| record.read_unguarded());
                record.lock();
                record.install(row.clone(), tid);
                self.reindex(key, before.as_ref(), Some(row));
            }
            None => {
                // The slot exists whenever the matching insert was replayed;
                // epoch-prefix durability guarantees that, because the insert
                // committed in an epoch no later than the delete's.
                if let Some(record) = self.get(key) {
                    if record.is_visible() {
                        self.reindex(key, Some(&record.read_unguarded()), None);
                    }
                    record.lock();
                    record.install_delete(tid);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, Schema};
    use reactdb_common::Value;
    use std::sync::Arc;

    fn customer_table() -> Table {
        let schema = Schema::of(
            &[
                ("c_id", ColumnType::Int),
                ("c_last", ColumnType::Str),
                ("c_balance", ColumnType::Float),
            ],
            &["c_id"],
        );
        Table::with_indexes("customer", schema, &[vec!["c_last".to_owned()]])
    }

    fn row(id: i64, last: &str, bal: f64) -> Tuple {
        Tuple::of([Value::Int(id), Value::Str(last.into()), Value::Float(bal)])
    }

    /// The unlimited forward walk of `last`'s entries in the `c_last` index.
    fn under(t: &Table, last: &str) -> WalkPage<()> {
        t.index_walk(0, &Key::Str(last.into()), None, false, usize::MAX)
    }

    fn pks(page: WalkPage<()>) -> Vec<Key> {
        page.slots.into_iter().map(|(pk, ())| pk).collect()
    }

    #[test]
    fn load_and_point_lookup() {
        let t = customer_table();
        t.load_row(row(1, "SMITH", 10.0)).unwrap();
        t.load_row(row(2, "JONES", 20.0)).unwrap();
        assert_eq!(t.visible_len(), 2);
        let rec = t.get(&Key::Int(1)).unwrap();
        assert_eq!(
            rec.read_unguarded().get(t.schema(), "c_last"),
            &Value::Str("SMITH".into())
        );
        assert!(t.get(&Key::Int(99)).is_none());
    }

    #[test]
    fn duplicate_load_is_rejected() {
        let t = customer_table();
        t.load_row(row(1, "SMITH", 10.0)).unwrap();
        let err = t.load_row(row(1, "SMITH", 10.0)).unwrap_err();
        assert!(matches!(err, TxnError::DuplicateKey { .. }));
    }

    #[test]
    fn schema_violation_rejected_at_load() {
        let t = customer_table();
        let bad = Tuple::of([
            Value::Str("not an id".into()),
            Value::Str("X".into()),
            Value::Float(0.0),
        ]);
        assert!(t.load_row(bad).is_err());
    }

    #[test]
    fn range_scan_in_key_order() {
        let t = customer_table();
        for i in (1..=5).rev() {
            t.load_row(row(i, "L", i as f64)).unwrap();
        }
        let hits = t.range(Bound::Included(&Key::Int(2)), Bound::Included(&Key::Int(4)));
        let keys: Vec<_> = hits.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, vec![Key::Int(2), Key::Int(3), Key::Int(4)]);
        let all = t.range(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn observed_range_is_invalidated_by_overlapping_slot_creation() {
        let t = customer_table();
        for i in 0..10 {
            t.load_row(row(i, "L", 0.0)).unwrap();
        }
        let obs = t
            .walk(
                Bound::Included(&Key::Int(0)),
                Bound::Included(&Key::Int(20)),
                false,
                usize::MAX,
            )
            .nodes;
        assert!(obs.iter().all(|o| o.is_current()));
        let (_, created) = t.get_or_create(Key::Int(15), row(15, "N", 0.0));
        assert!(created.is_some(), "new slot is structural");
        assert!(
            obs.iter().any(|o| !o.is_current()),
            "slot creation inside the scanned range invalidates an observation"
        );
    }

    #[test]
    fn secondary_index_lookup_and_update() {
        let t = customer_table();
        t.load_row(row(1, "SMITH", 10.0)).unwrap();
        t.load_row(row(2, "SMITH", 20.0)).unwrap();
        t.load_row(row(3, "JONES", 30.0)).unwrap();
        assert_eq!(pks(under(&t, "SMITH")), vec![Key::Int(1), Key::Int(2)]);

        // An update changing the indexed column moves the entry.
        let old = row(2, "SMITH", 20.0);
        let new = row(2, "BROWN", 20.0);
        t.reindex(&Key::Int(2), Some(&old), Some(&new));
        assert_eq!(pks(under(&t, "SMITH")), vec![Key::Int(1)]);
        assert_eq!(pks(under(&t, "BROWN")), vec![Key::Int(2)]);

        t.reindex(&Key::Int(3), Some(&row(3, "JONES", 30.0)), None);
        assert!(pks(under(&t, "JONES")).is_empty());
        // Neighbouring spans stay apart in either direction.
        let last = t.index_walk(0, &Key::Str("SMITH".into()), None, true, 1);
        assert_eq!(pks(last), vec![Key::Int(1)]);
    }

    #[test]
    fn a_lookup_observes_only_the_span_it_walked() {
        let t = customer_table();
        // 200 rows under "M": the index splits inside its span.
        for i in 0..200 {
            t.load_row(row(i, "M", 0.0)).unwrap();
        }
        let newest = t.index_walk(0, &Key::Str("M".into()), None, true, 1);
        assert_eq!(newest.slots, vec![(Key::Int(199), ())]);
        let oldest = t.index_walk(0, &Key::Str("M".into()), None, false, 1);
        // An entry far from either stop key touches neither observation.
        t.reindex(&Key::Int(100), Some(&row(100, "M", 0.0)), None);
        assert!(newest.nodes.iter().all(|o| o.is_current()));
        assert!(oldest.nodes.iter().all(|o| o.is_current()));
        // A new newest "M" row lands in the reverse walk's span.
        t.reindex(&Key::Int(900), None, Some(&row(900, "M", 0.0)));
        assert!(newest.nodes.iter().any(|o| !o.is_current()));
        assert!(oldest.nodes.iter().all(|o| o.is_current()));
    }

    #[test]
    fn membership_fence_installs_additions_and_announces_removals() {
        let t = customer_table();
        t.load_row(row(1, "SMITH", 10.0)).unwrap();
        // Insert: primary bump + secondary addition (installed + bumped).
        let obs_p = t.get_observed(&Key::Int(50)).1;
        let obs_s = under(&t, "NEW").nodes;
        let effect = t.membership_fence(&Key::Int(50), None, Some(&row(50, "NEW", 0.0)));
        assert_eq!(effect.bumps.len(), 2);
        assert_eq!(effect.added.len(), 1);
        assert!(!obs_p.is_current() && obs_s.iter().all(|o| !o.is_current()));
        // The addition is physically visible at fence time...
        assert_eq!(pks(under(&t, "NEW")), vec![Key::Int(50)]);
        // ...and a rollback undoes it (with another bump).
        t.fence_rollback(&effect.added);
        assert!(pks(under(&t, "NEW")).is_empty());

        // Update keeping the indexed column: no bumps at all.
        let effect = t.membership_fence(
            &Key::Int(1),
            Some(&row(1, "SMITH", 10.0)),
            Some(&row(1, "SMITH", 99.0)),
        );
        assert!(effect.bumps.is_empty() && effect.added.is_empty());
        // Update changing the indexed column: removal announced, addition
        // installed.
        let effect = t.membership_fence(
            &Key::Int(1),
            Some(&row(1, "SMITH", 10.0)),
            Some(&row(1, "BROWN", 10.0)),
        );
        assert_eq!(effect.bumps.len(), 2);
        assert_eq!(pks(under(&t, "BROWN")), vec![Key::Int(1)]);
        // The stale SMITH entry stays until the write phase retires it.
        assert_eq!(pks(under(&t, "SMITH")), vec![Key::Int(1)]);
        t.index_retire_fenced(
            &Key::Int(1),
            &row(1, "SMITH", 10.0),
            Some(&row(1, "BROWN", 10.0)),
        );
        assert!(pks(under(&t, "SMITH")).is_empty());

        // Delete: primary + secondary announced, retirement at install.
        let effect = t.membership_fence(&Key::Int(1), Some(&row(1, "BROWN", 10.0)), None);
        assert_eq!(effect.bumps.len(), 2);
        assert!(effect.added.is_empty());
        t.index_retire_fenced(&Key::Int(1), &row(1, "BROWN", 10.0), None);
        assert!(pks(under(&t, "BROWN")).is_empty());
    }

    #[test]
    fn successor_is_the_next_key_in_order() {
        use Key::{Bool, Composite, Int, Str};
        let keys = [
            Bool(false),
            Bool(true),
            Int(i64::MIN),
            Int(-1),
            Int(0),
            Int(i64::MAX),
            Str(String::new()),
            Str("\0".into()),
            Str("a".into()),
            Str("a\0".into()),
            Str("a\0\0".into()),
            Str("b".into()),
            Composite(vec![]),
            Composite(vec![Bool(false)]),
            Composite(vec![Int(1)]),
            Composite(vec![Int(1), Bool(false)]),
            Composite(vec![Int(1), Int(0)]),
        ];
        for key in &keys {
            let next = successor(key);
            assert!(*key < next, "{key:?}");
            assert!(
                keys.iter().all(|k| !(key < k && *k < next)),
                "nothing lies between {key:?} and {next:?}"
            );
        }
    }

    // Loads rows under random index keys, chosen so that their spans sit
    // next to each other (neighbouring ints, strings one NUL apart,
    // composites), then pages the prefix walk of one index key in either
    // direction with any limit and page size: it returns exactly the
    // model's primary keys for that key, in order.
    proptest::proptest! {
        #[test]
        fn prefix_walks_return_exactly_the_index_keys_primary_keys(
            rows in proptest::collection::vec((0usize..6, 0usize..6, 0i64..300), 0..250),
            probe in (0usize..3, 0usize..6, 0usize..6),
            limit in 0usize..40,
            page in 1usize..9,
            reverse in proptest::bool::ANY
        ) {
            const TAGS: [&str; 6] = ["", "\0", "a", "a\0", "ab", "b"];
            const NS: [i64; 6] = [i64::MIN, -1, 0, 1, i64::MAX - 1, i64::MAX];
            let schema = Schema::of(
                &[("id", ColumnType::Int), ("tag", ColumnType::Str), ("n", ColumnType::Int)],
                &["id"],
            );
            let columns = |c: &[&str]| c.iter().map(|s| s.to_string()).collect::<Vec<_>>();
            let t = Table::with_indexes(
                "t",
                schema,
                &[columns(&["tag"]), columns(&["n"]), columns(&["tag", "n"])],
            );
            let mut model: std::collections::BTreeMap<(usize, Key), Vec<Key>> =
                std::collections::BTreeMap::new();
            for (tag, n, id) in rows {
                let row = Tuple::of([Value::Int(id), Value::Str(TAGS[tag].into()), Value::Int(NS[n])]);
                if t.load_row(row.clone()).is_ok() {
                    for index_id in 0..3 {
                        let ik = row.index_key(t.secondary_positions(index_id)).unwrap();
                        model.entry((index_id, ik)).or_default().push(Key::Int(id));
                    }
                }
            }
            let (index_id, tag, n) = probe;
            let ik = Tuple::of([Value::Int(0), Value::Str(TAGS[tag].into()), Value::Int(NS[n])])
                .index_key(t.secondary_positions(index_id))
                .unwrap();
            let mut expected = model.remove(&(index_id, ik.clone())).unwrap_or_default();
            expected.sort();
            if reverse {
                expected.reverse();
            }
            expected.truncate(limit);

            let mut got: Vec<Key> = Vec::new();
            let mut exhausted = false;
            while got.len() < limit && !exhausted {
                let walked = t.index_walk(index_id, &ik, got.last(), reverse, page.min(limit - got.len()));
                exhausted = walked.exhausted;
                got.extend(pks(walked));
            }
            proptest::prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn snapshot_chunks_capture_only_visible_rows() {
        let t = customer_table();
        for i in 0..25 {
            t.load_row(row(i, "L", i as f64)).unwrap();
        }
        // An uncommitted insert slot and a deleted row must be skipped.
        let _ = t.get_or_create(Key::Int(100), row(100, "PENDING", 0.0));
        let victim = t.get(&Key::Int(3)).unwrap();
        victim.lock();
        victim.install_delete(TidWord::committed(2, 9));
        let mut captured = Vec::new();
        let mut cursor: Option<Key> = None;
        let mut chunks = 0;
        loop {
            let chunk = t.snapshot_chunk(cursor.as_ref(), 7);
            chunks += 1;
            captured.extend(chunk.rows);
            match chunk.next {
                Some(c) => cursor = Some(c),
                None => break,
            }
        }
        assert!(chunks >= 4, "25 keys / 7 per chunk needs several chunks");
        assert_eq!(captured.len(), 24, "deleted + pending slots are skipped");
        assert!(captured.iter().all(|(k, _, _)| *k != Key::Int(3)));
        assert!(
            captured.windows(2).all(|w| w[0].0 < w[1].0),
            "rows arrive in key order"
        );
    }

    #[test]
    fn replay_is_idempotent_by_tid() {
        let t = customer_table();
        // First replay installs; an equal-TID re-replay and an older-TID
        // record are both skipped; a newer TID wins.
        t.replay(
            &Key::Int(1),
            Some(&row(1, "NEW", 5.0)),
            TidWord::committed(3, 4),
        );
        t.replay(
            &Key::Int(1),
            Some(&row(1, "DUP", 0.0)),
            TidWord::committed(3, 4),
        );
        t.replay(
            &Key::Int(1),
            Some(&row(1, "OLD", 0.0)),
            TidWord::committed(2, 9),
        );
        let rec = t.get(&Key::Int(1)).unwrap();
        assert_eq!(
            rec.read_unguarded().get(t.schema(), "c_last"),
            &Value::Str("NEW".into())
        );
        t.replay(
            &Key::Int(1),
            Some(&row(1, "NEWER", 1.0)),
            TidWord::committed(4, 1),
        );
        assert_eq!(
            t.get(&Key::Int(1)).unwrap().read_unguarded().at(1),
            &Value::Str("NEWER".into())
        );
        // Deletes obey the same rule.
        t.replay(&Key::Int(1), None, TidWord::committed(4, 0));
        assert!(
            t.get(&Key::Int(1)).unwrap().is_visible(),
            "stale delete skipped"
        );
        t.replay(&Key::Int(1), None, TidWord::committed(5, 1));
        assert!(!t.get(&Key::Int(1)).unwrap().is_visible());
        // A delete for a never-seen key is a no-op.
        t.replay(&Key::Int(77), None, TidWord::committed(5, 2));
        assert!(t.get(&Key::Int(77)).is_none());
    }

    #[test]
    fn get_or_create_returns_same_slot() {
        let t = customer_table();
        let (a, created_a) = t.get_or_create(Key::Int(7), row(7, "NEW", 0.0));
        let (b, created_b) = t.get_or_create(Key::Int(7), row(7, "NEW", 0.0));
        assert!(created_a.is_some());
        assert!(created_b.is_none());
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!a.is_visible());
        assert_eq!(t.physical_len(), 1);
        assert_eq!(t.visible_len(), 0);
    }

    #[test]
    #[should_panic(expected = "indexed column")]
    fn unknown_indexed_column_panics() {
        let schema = Schema::of(&[("a", ColumnType::Int)], &["a"]);
        Table::with_indexes("t", schema, &[vec!["missing".to_owned()]]);
    }
}
