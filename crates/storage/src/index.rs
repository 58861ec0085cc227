//! Versioned ordered index: the storage half of phantom protection.
//!
//! An ordered index whose key space is partitioned into *leaf nodes*, each
//! guarded by a version counter in the style of Masstree/Silo (Tu et al.,
//! SOSP 2013): every structural mutation — creating or removing a key, or
//! replacing the value a key maps to — bumps the version of the node whose
//! key interval contains the mutated key. Range traversals return,
//! alongside the rows, a [`NodeObservation`] for **every node whose
//! interval intersects the span actually walked, including empty ones**:
//! from the starting bound to the far bound when the range was exhausted,
//! or to the last entry returned when the traversal stopped at its limit
//! (Silo's rule — a scan validates the nodes it walked, no others). The OCC
//! layer stores those observations in the transaction's node set and
//! re-checks them at commit, after write locks are acquired: a version
//! mismatch means the membership of a walked span changed — a phantom —
//! and the transaction aborts.
//!
//! Nodes split when their population exceeds [`SPLIT_THRESHOLD`], keeping
//! the invalidation granularity proportional to data density rather than
//! table size. A split bumps the version of the node being split (its
//! observers can no longer tell which half later mutations land in, so they
//! must conservatively abort — the Masstree split rule); the right half
//! starts as a fresh node. Nodes are never merged: an empty interval still
//! needs a version for scans over it to observe, so the node count tracks
//! the historical maximum key count. That is **not** fine under
//! insert/delete churn — deleted rows keep their slot and their node for
//! the life of the process (ROADMAP item 11: reclamation and coalescing).
//! Until then a scan avoids a dead prefix only by not starting inside it:
//! [`VersionedIndex::walk`] stops at a caller-chosen limit and callers keep
//! a cursor past what they consumed.
//!
//! Memory ordering: structural bumps and validation-time version loads use
//! `SeqCst`. Traversal-time observations are read under the index's read
//! lock (so they are consistent with the data read), but commit-time
//! validation reads versions without the lock; the fenced load pairs with
//! the fenced bump exactly like Silo's node-version re-check.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use reactdb_common::Key;

/// Keys per leaf node before it splits.
pub const SPLIT_THRESHOLD: usize = 64;

/// Largest [`VersionedIndex::walk`] page whose entry vector is allocated at
/// its limit up front.
const PAGE_PREALLOC_MAX: usize = 1024;

/// A leaf node of the versioned index: one version counter guarding one
/// contiguous interval of the key space.
#[derive(Debug)]
pub struct IndexNode {
    version: AtomicU64,
}

/// Shared handle to an index node. Scan sets hold these so that validation
/// addresses the exact node object that was traversed, even after splits
/// re-partition the key space.
pub type NodeRef = Arc<IndexNode>;

impl IndexNode {
    fn new() -> NodeRef {
        Arc::new(Self {
            version: AtomicU64::new(1),
        })
    }

    /// Current version. `SeqCst` so commit-time validation pairs with the
    /// bump of a concurrent structural mutation without holding the index
    /// lock.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    fn bump(&self) -> NodeBumpVersions {
        let before = self.version.fetch_add(1, Ordering::SeqCst);
        NodeBumpVersions {
            before,
            after: before + 1,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct NodeBumpVersions {
    before: u64,
    after: u64,
}

/// A node version captured while traversing the index. Stored in the OCC
/// layer's node set and re-checked during commit validation.
#[derive(Debug, Clone)]
pub struct NodeObservation {
    /// The traversed node.
    pub node: NodeRef,
    /// Its version at traversal time.
    pub version: u64,
}

impl NodeObservation {
    /// True while no structural mutation has hit the node since the
    /// observation — the validation predicate.
    pub fn is_current(&self) -> bool {
        self.node.version() == self.version
    }

    /// Address identity of the node, used to deduplicate node sets.
    pub fn node_ptr(&self) -> usize {
        Arc::as_ptr(&self.node) as usize
    }
}

/// One structural bump applied to a node, reported back to the mutator so
/// the OCC layer can refresh its own node set (Silo's rule: a transaction's
/// own structural insert must not invalidate its own scans).
#[derive(Debug, Clone)]
pub struct NodeBump {
    /// The bumped node.
    pub node: NodeRef,
    /// Version before the bump.
    pub before: u64,
    /// Version after the bump.
    pub after: u64,
}

/// One page of a [`VersionedIndex::walk`].
#[derive(Debug)]
pub struct WalkPage<V> {
    /// The entries walked, in walk order.
    pub slots: Vec<(Key, V)>,
    /// Observations of the nodes the walk touched.
    pub nodes: Vec<NodeObservation>,
    /// True when the walk reached the far bound: nothing remains past the
    /// last slot. False when it stopped because the page was full.
    pub exhausted: bool,
}

struct IndexInner<V> {
    map: BTreeMap<Key, V>,
    /// Lower boundaries of nodes `1..`: node `i` covers
    /// `[boundaries[i-1], boundaries[i])`, node `0` starts at −∞ and the
    /// last node ends at +∞. Always `nodes.len() == boundaries.len() + 1`.
    boundaries: Vec<Key>,
    nodes: Vec<NodeRef>,
    /// Keys physically present per node, driving splits.
    population: Vec<usize>,
}

impl<V> IndexInner<V> {
    fn node_idx(&self, key: &Key) -> usize {
        self.boundaries.partition_point(|b| b <= key)
    }

    fn interval(&self, idx: usize) -> (Bound<&Key>, Bound<&Key>) {
        let low = if idx == 0 {
            Bound::Unbounded
        } else {
            Bound::Included(&self.boundaries[idx - 1])
        };
        let high = if idx == self.boundaries.len() {
            Bound::Unbounded
        } else {
            Bound::Excluded(&self.boundaries[idx])
        };
        (low, high)
    }

    /// Node indexes whose intervals intersect `[low, high]`. Conservative
    /// at excluded bounds (the boundary node is included), which can only
    /// add false invalidations, never miss one.
    fn covering(&self, low: Bound<&Key>, high: Bound<&Key>) -> (usize, usize) {
        let first = match low {
            Bound::Unbounded => 0,
            Bound::Included(k) | Bound::Excluded(k) => self.node_idx(k),
        };
        let last = match high {
            Bound::Unbounded => self.boundaries.len(),
            Bound::Included(k) | Bound::Excluded(k) => self.node_idx(k),
        };
        (first, last.max(first))
    }

    fn observe(&self, idx: usize) -> NodeObservation {
        let node = Arc::clone(&self.nodes[idx]);
        let version = node.version();
        NodeObservation { node, version }
    }

    fn bump(&self, idx: usize) -> NodeBump {
        let node = Arc::clone(&self.nodes[idx]);
        let v = node.bump();
        NodeBump {
            node,
            before: v.before,
            after: v.after,
        }
    }

    /// Splits node `idx` at the median of its resident keys when it
    /// overflowed. The split bumps the old node (left half); the right half
    /// is a fresh node.
    fn maybe_split(&mut self, idx: usize) {
        if self.population[idx] <= SPLIT_THRESHOLD {
            return;
        }
        let mid = self.population[idx] / 2;
        let boundary = {
            let (low, high) = self.interval(idx);
            match self.map.range((low, high)).nth(mid) {
                Some((k, _)) => k.clone(),
                None => return, // population drifted; nothing to split
            }
        };
        // Keys are unique and mid >= 1, so the boundary strictly exceeds
        // the node's first key and both halves are non-empty.
        self.boundaries.insert(idx, boundary);
        self.nodes.insert(idx + 1, IndexNode::new());
        let left = mid;
        let right = self.population[idx] - mid;
        self.population[idx] = left;
        self.population.insert(idx + 1, right);
        self.nodes[idx].bump();
    }
}

/// An ordered map from [`Key`] to `V` whose key space is partitioned into
/// versioned leaf nodes. See the module docs for the protocol.
pub struct VersionedIndex<V> {
    inner: RwLock<IndexInner<V>>,
}

impl<V> std::fmt::Debug for VersionedIndex<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.read();
        f.debug_struct("VersionedIndex")
            .field("len", &inner.map.len())
            .field("nodes", &inner.nodes.len())
            .finish()
    }
}

impl<V> Default for VersionedIndex<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> VersionedIndex<V> {
    /// Creates an empty index with a single node covering the whole key
    /// space.
    pub fn new() -> Self {
        Self {
            inner: RwLock::new(IndexInner {
                map: BTreeMap::new(),
                boundaries: Vec::new(),
                nodes: vec![IndexNode::new()],
                population: vec![0],
            }),
        }
    }

    /// Number of keys physically present.
    pub fn len(&self) -> usize {
        self.inner.read().map.len()
    }

    /// True when no key is present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of leaf nodes the key space is currently split into.
    pub fn node_count(&self) -> usize {
        self.inner.read().nodes.len()
    }

    /// Counts values matching a predicate without materialising them.
    pub fn count_values(&self, pred: impl Fn(&V) -> bool) -> usize {
        self.inner.read().map.values().filter(|v| pred(v)).count()
    }

    /// Observation of the node whose interval covers `key`, whether or not
    /// the key is present.
    pub fn observe(&self, key: &Key) -> NodeObservation {
        let inner = self.inner.read();
        inner.observe(inner.node_idx(key))
    }

    /// Bumps the node covering `key` (the commit path's membership fence:
    /// announce a membership change before validation re-checks node sets).
    pub fn bump_covering(&self, key: &Key) -> NodeBump {
        let inner = self.inner.read();
        let idx = inner.node_idx(key);
        inner.bump(idx)
    }
}

impl<V: Clone> VersionedIndex<V> {
    /// Point lookup.
    pub fn get_cloned(&self, key: &Key) -> Option<V> {
        self.inner.read().map.get(key).cloned()
    }

    /// Point lookup plus the covering node's observation, taken under one
    /// lock acquisition so the observation is consistent with the result.
    /// The observation lets the OCC layer validate the *absence* of a key
    /// (a later insert bumps the node).
    pub fn get_observed(&self, key: &Key) -> (Option<V>, NodeObservation) {
        let inner = self.inner.read();
        let obs = inner.observe(inner.node_idx(key));
        (inner.map.get(key).cloned(), obs)
    }

    /// Returns the value under `key`, inserting `make()` if absent. A
    /// creation is a structural mutation: the covering node is bumped and
    /// the bump is reported so the caller can refresh its own node set.
    /// When the creation triggers a split, the reported bump intentionally
    /// predates the split bump — observers of the split node must
    /// conservatively fail validation.
    pub fn get_or_insert_with(&self, key: &Key, make: impl FnOnce() -> V) -> (V, Option<NodeBump>) {
        {
            let inner = self.inner.read();
            if let Some(v) = inner.map.get(key) {
                return (v.clone(), None);
            }
        }
        let mut inner = self.inner.write();
        if let Some(v) = inner.map.get(key) {
            return (v.clone(), None);
        }
        let value = make();
        inner.map.insert(key.clone(), value.clone());
        let idx = inner.node_idx(key);
        inner.population[idx] += 1;
        let node = Arc::clone(&inner.nodes[idx]);
        let v = node.bump();
        inner.maybe_split(idx);
        (
            value,
            Some(NodeBump {
                node,
                before: v.before,
                after: v.after,
            }),
        )
    }

    /// Inserts or replaces the value under `key`, bumping the covering node
    /// either way (replacement swaps the stored handle, which observers of
    /// the old handle cannot track through the map). Returns the previous
    /// value.
    pub fn insert(&self, key: Key, value: V) -> Option<V> {
        let mut inner = self.inner.write();
        let idx = inner.node_idx(&key);
        let old = inner.map.insert(key, value);
        if old.is_none() {
            inner.population[idx] += 1;
        }
        inner.nodes[idx].bump();
        inner.maybe_split(idx);
        old
    }

    /// Removes `key`, bumping the covering node when it was present.
    pub fn remove(&self, key: &Key) -> Option<V> {
        let mut inner = self.inner.write();
        let old = inner.map.remove(key)?;
        let idx = inner.node_idx(key);
        inner.population[idx] = inner.population[idx].saturating_sub(1);
        inner.nodes[idx].bump();
        Some(old)
    }

    /// Inserts `value` under `key` unless an entry is present and `keep`
    /// says to keep it, in which case nothing changes; a present entry
    /// `keep` rejects is replaced. Either change bumps the covering node
    /// (a replacement swaps the stored handle, which observers of the old
    /// one cannot track through the map), in the lock acquisition that
    /// made the check. Returns whether `value` went in.
    pub fn insert_unless(&self, key: &Key, value: V, keep: impl FnOnce(&V) -> bool) -> bool {
        let mut inner = self.inner.write();
        let idx = inner.node_idx(key);
        match inner.map.get_mut(key) {
            Some(existing) if keep(existing) => return false,
            Some(existing) => *existing = value,
            None => {
                inner.map.insert(key.clone(), value);
                inner.population[idx] += 1;
            }
        }
        inner.nodes[idx].bump();
        inner.maybe_split(idx);
        true
    }

    /// Entries within the bounds, in key order.
    pub fn range_cloned(&self, low: Bound<&Key>, high: Bound<&Key>) -> Vec<(Key, V)> {
        let inner = self.inner.read();
        inner
            .map
            .range((low.cloned(), high.cloned()))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// One page of a bounded traversal: up to `limit` entries within the
    /// bounds — ascending from `low`, or descending from `high` when
    /// `reverse` — plus an observation of every node whose interval
    /// intersects the span walked, empty nodes included, so the emptiness
    /// of a sub-range is validated too. An exhausted page (fewer than
    /// `limit` entries) walked to the far bound and observes through it; a
    /// full page stopped at its last entry and observes **nothing beyond
    /// that entry's node**, so a later insert past the stop key is not a
    /// conflict. To continue, walk again with the last key as the excluded
    /// near bound.
    ///
    /// The page is one read-section of the index lock, as short as `limit`
    /// makes it: the checkpointer's chunked snapshot walk pages through a
    /// table this way so a full capture never blocks writers for longer
    /// than one chunk, and a limit-`n` scan holds it for `n` entries.
    pub fn walk(
        &self,
        low: Bound<&Key>,
        high: Bound<&Key>,
        reverse: bool,
        limit: usize,
    ) -> WalkPage<V> {
        let inner = self.inner.read();
        let range = inner.map.range((low, high));
        let entry = |(k, v): (&Key, &V)| (k.clone(), v.clone());
        // A page bounded to something small is sized up front; an
        // unbounded one grows with what it finds.
        let mut slots = Vec::with_capacity(if limit <= PAGE_PREALLOC_MAX { limit } else { 0 });
        if reverse {
            slots.extend(range.rev().take(limit).map(entry));
        } else {
            slots.extend(range.take(limit).map(entry));
        }
        let exhausted = slots.len() < limit;
        let (mut first, mut last) = inner.covering(low, high);
        match slots.last() {
            Some((stop, _)) if !exhausted && reverse => first = inner.node_idx(stop),
            Some((stop, _)) if !exhausted => last = inner.node_idx(stop),
            _ => {}
        }
        let nodes = (first..=last).map(|i| inner.observe(i)).collect();
        WalkPage {
            slots,
            nodes,
            exhausted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn k(i: i64) -> Key {
        Key::Int(i)
    }

    /// The unlimited forward walk: every entry within the bounds.
    fn all(idx: &VersionedIndex<i64>, low: Bound<&Key>, high: Bound<&Key>) -> WalkPage<i64> {
        idx.walk(low, high, false, usize::MAX)
    }

    #[test]
    fn lookups_do_not_bump_versions() {
        let idx: VersionedIndex<i64> = VersionedIndex::new();
        idx.insert(k(1), 10);
        let before = idx.observe(&k(1)).version;
        assert_eq!(idx.get_cloned(&k(1)), Some(10));
        let _ = idx.get_observed(&k(2));
        let _ = idx.walk(Bound::Unbounded, Bound::Unbounded, false, usize::MAX);
        assert_eq!(idx.observe(&k(1)).version, before);
    }

    #[test]
    fn structural_insert_invalidates_covering_observation_only() {
        let idx: VersionedIndex<i64> = VersionedIndex::new();
        for i in 0..200 {
            idx.insert(k(i), i);
        }
        assert!(idx.node_count() > 1, "splits happened");
        let low_obs = all(&idx, Bound::Included(&k(0)), Bound::Included(&k(5))).nodes;
        let high_obs = all(&idx, Bound::Included(&k(190)), Bound::Unbounded).nodes;
        idx.insert(k(191_000), 0); // far above: hits the last node only
        assert!(
            low_obs.iter().all(|o| o.is_current()),
            "low range untouched"
        );
        assert!(
            high_obs.iter().any(|o| !o.is_current()),
            "upper range observation invalidated"
        );
    }

    #[test]
    fn range_observes_empty_gaps() {
        let idx: VersionedIndex<i64> = VersionedIndex::new();
        idx.insert(k(0), 0);
        idx.insert(k(100), 100);
        let WalkPage {
            slots: rows,
            nodes: obs,
            ..
        } = all(&idx, Bound::Included(&k(10)), Bound::Included(&k(20)));
        assert!(rows.is_empty());
        assert!(!obs.is_empty(), "empty ranges still observe their node");
        idx.insert(k(15), 15);
        assert!(
            obs.iter().any(|o| !o.is_current()),
            "insert into the observed gap invalidates"
        );
    }

    #[test]
    fn get_or_insert_reports_creation_bump_once() {
        let idx: VersionedIndex<i64> = VersionedIndex::new();
        let (_, bump) = idx.get_or_insert_with(&k(7), || 7);
        let bump = bump.expect("creation is structural");
        assert_eq!(bump.after, bump.before + 1);
        assert_eq!(bump.node.version(), bump.after);
        let (v, again) = idx.get_or_insert_with(&k(7), || 8);
        assert_eq!(v, 7);
        assert!(again.is_none(), "existing keys are not structural");
    }

    #[test]
    fn split_bumps_the_split_node() {
        let idx: VersionedIndex<i64> = VersionedIndex::new();
        let obs = idx.observe(&k(0));
        for i in 0..=(SPLIT_THRESHOLD as i64) {
            idx.insert(k(i), i);
        }
        assert!(idx.node_count() >= 2);
        assert!(!obs.is_current());
        // Post-split population accounting stays consistent.
        assert_eq!(idx.len(), SPLIT_THRESHOLD + 1);
    }

    #[test]
    fn insert_unless_bumps_only_when_the_value_goes_in() {
        let idx: VersionedIndex<i64> = VersionedIndex::new();
        assert!(idx.insert_unless(&k(1), 1, |_| unreachable!("absent")));
        let created = idx.observe(&k(1));
        assert!(!idx.insert_unless(&k(1), 2, |v| *v == 1));
        assert!(created.is_current(), "a kept entry does not bump");
        assert_eq!(idx.get_cloned(&k(1)), Some(1));
        assert!(idx.insert_unless(&k(1), 3, |v| *v != 1));
        assert!(!created.is_current(), "a replacement bumps");
        assert_eq!(idx.get_cloned(&k(1)), Some(3));
    }

    #[test]
    fn paged_walk_covers_the_whole_index_without_bumping() {
        let idx: VersionedIndex<i64> = VersionedIndex::new();
        for i in 0..157 {
            idx.insert(k(i), i);
        }
        let obs = idx.observe(&k(0));
        let mut seen = Vec::new();
        let mut cursor: Option<Key> = None;
        loop {
            let low = cursor.as_ref().map_or(Bound::Unbounded, Bound::Excluded);
            let page = idx.walk(low, Bound::Unbounded, false, 10);
            assert!(page.slots.len() <= 10);
            cursor = page.slots.last().map(|(key, _)| key.clone());
            seen.extend(page.slots.into_iter().map(|(_, v)| v));
            if page.exhausted {
                break;
            }
        }
        assert_eq!(seen, (0..157).collect::<Vec<_>>());
        assert!(obs.is_current(), "paging is a pure read");
        // An empty index terminates immediately.
        let empty: VersionedIndex<i64> = VersionedIndex::new();
        let page = empty.walk(Bound::Unbounded, Bound::Unbounded, false, 8);
        assert!(page.slots.is_empty() && page.exhausted);
    }

    #[test]
    fn a_full_page_observes_nothing_past_its_last_entry() {
        let idx: VersionedIndex<i64> = VersionedIndex::new();
        for i in 0..400 {
            idx.insert(k(i), i);
        }
        assert!(idx.node_count() > 2, "splits happened");
        let first = idx.walk(Bound::Unbounded, Bound::Unbounded, false, 1);
        assert_eq!(first.slots, vec![(k(0), 0)]);
        assert!(!first.exhausted);
        let last = idx.walk(Bound::Unbounded, Bound::Unbounded, true, 1);
        assert_eq!(last.slots, vec![(k(399), 399)]);
        assert_eq!(first.nodes.len(), 1);
        assert_eq!(last.nodes.len(), 1);
        // Beyond the forward stop key, before the reverse one.
        idx.insert(k(1_000), 0);
        assert!(first.nodes.iter().all(|o| o.is_current()));
        assert!(last.nodes.iter().any(|o| !o.is_current()));
        idx.insert(k(-1), 0);
        assert!(first.nodes.iter().any(|o| !o.is_current()));
    }

    #[test]
    fn bump_covering_reports_exact_versions() {
        let idx: VersionedIndex<i64> = VersionedIndex::new();
        let obs = idx.observe(&k(5));
        let bump = idx.bump_covering(&k(5));
        assert_eq!(bump.before, obs.version);
        assert_eq!(bump.after, obs.version + 1);
        assert!(!obs.is_current());
    }

    // Replays a random operation sequence against both the versioned index
    // and a model `BTreeMap`, checking after every step that (a) the data
    // agrees with the model, and (b) the covering node's version moved iff
    // the operation was structural (allowing extra bumps only when a split
    // occurred, which is observable through the node count).
    proptest! {
        #[test]
        fn node_versions_track_exactly_the_structural_mutations(
            ops in proptest::collection::vec((0u64..96, 0u64..4), 1..120)
        ) {
            let idx: VersionedIndex<i64> = VersionedIndex::new();
            let mut model: std::collections::BTreeMap<i64, i64> =
                std::collections::BTreeMap::new();
            for (raw_key, op) in ops {
                let key_i = raw_key as i64;
                let key = k(key_i);
                let before = idx.observe(&key);
                let nodes_before = idx.node_count();
                let structural = match op {
                    // Insert-or-replace: always bumps.
                    0 => {
                        idx.insert(key, key_i);
                        model.insert(key_i, key_i);
                        true
                    }
                    // Remove: structural iff present.
                    1 => {
                        let removed = idx.remove(&key);
                        prop_assert_eq!(removed.is_some(), model.remove(&key_i).is_some());
                        removed.is_some()
                    }
                    // get_or_insert: structural iff absent.
                    2 => {
                        let absent = !model.contains_key(&key_i);
                        let (_, bump) = idx.get_or_insert_with(&key, || key_i);
                        model.entry(key_i).or_insert(key_i);
                        prop_assert_eq!(bump.is_some(), absent);
                        absent
                    }
                    // Pure lookup: never structural.
                    _ => {
                        let got = idx.get_cloned(&key);
                        prop_assert_eq!(got, model.get(&key_i).cloned());
                        false
                    }
                };
                let split = idx.node_count() > nodes_before;
                let version_moved = !before.is_current();
                if structural {
                    prop_assert!(version_moved, "structural op must bump its node");
                } else if !split {
                    prop_assert!(!version_moved, "non-structural op must not bump");
                }
                // Data always agrees with the model.
                let rows = idx.range_cloned(Bound::Unbounded, Bound::Unbounded);
                prop_assert_eq!(rows.len(), model.len());
            }
            // Every key agrees at the end, through both access paths.
            for (key_i, v) in &model {
                prop_assert_eq!(idx.get_cloned(&k(*key_i)), Some(*v));
            }
        }

        // Pages a limited walk through the index in either direction and
        // checks (a) the entries are the model map's prefix of the range,
        // and (b) the nodes observed across the pages are exactly those
        // from the starting bound to the last entry walked — or to the far
        // bound when the range ran out first.
        #[test]
        fn paged_walk_returns_the_model_prefix_and_observes_only_its_span(
            keys in proptest::collection::vec(0i64..600, 0..300),
            ends in (0i64..600, 0i64..600),
            kinds in (0u8..3, 0u8..3),
            limit in 0usize..48,
            page in 1usize..12,
            reverse in proptest::bool::ANY
        ) {
            let idx: VersionedIndex<i64> = VersionedIndex::new();
            let mut model = std::collections::BTreeMap::new();
            for key_i in keys {
                idx.insert(k(key_i), key_i);
                model.insert(k(key_i), key_i);
            }
            let (lo, hi) = (k(ends.0.min(ends.1)), k(ends.0.max(ends.1)));
            let bound = |kind: u8, key| match kind {
                0 => Bound::Unbounded,
                1 => Bound::Included(key),
                _ => Bound::Excluded(key),
            };
            // `BTreeMap::range` rejects an interval excluded at both ends
            // of a single key.
            let (low, high) = match (bound(kinds.0, &lo), bound(kinds.1, &hi)) {
                (Bound::Excluded(a), Bound::Excluded(b)) if a == b => {
                    (Bound::Included(a), Bound::Excluded(b))
                }
                bounds => bounds,
            };
            let in_range = model.range((low, high)).map(|(key, v)| (key.clone(), *v));
            let expected: Vec<(Key, i64)> = if reverse {
                in_range.rev().take(limit).collect()
            } else {
                in_range.take(limit).collect()
            };

            let mut got: Vec<(Key, i64)> = Vec::new();
            let mut observed = std::collections::BTreeSet::new();
            let mut exhausted = false;
            while got.len() < limit && !exhausted {
                let (from, to) = match (got.last(), reverse) {
                    (None, _) => (low, high),
                    (Some((last, _)), false) => (Bound::Excluded(last), high),
                    (Some((last, _)), true) => (low, Bound::Excluded(last)),
                };
                let walked = idx.walk(from, to, reverse, page.min(limit - got.len()));
                observed.extend(walked.nodes.iter().map(NodeObservation::node_ptr));
                exhausted = walked.exhausted;
                got.extend(walked.slots);
            }
            prop_assert_eq!(&got, &expected);

            let inner = idx.inner.read();
            let (mut first, mut last) = inner.covering(low, high);
            match got.last() {
                Some((stop, _)) if !exhausted && reverse => first = inner.node_idx(stop),
                Some((stop, _)) if !exhausted => last = inner.node_idx(stop),
                _ => {}
            }
            let spanned: std::collections::BTreeSet<usize> = if limit == 0 {
                Default::default()
            } else {
                (first..=last)
                    .map(|i| Arc::as_ptr(&inner.nodes[i]) as usize)
                    .collect()
            };
            prop_assert_eq!(observed, spanned);
        }
    }
}
