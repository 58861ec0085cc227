//! Per-executor log writers.
//!
//! Each transaction executor owns one [`LogWriter`] appending to its own
//! segment file, mirroring Silo's per-worker logs: the commit fast path only
//! touches the writer's in-memory buffer under a short mutex, never the
//! disk. A distributed (2PC) commit passes through the committing executor's
//! writer with the records of *every* participating container in one
//! checksummed frame, so recovery sees distributed transactions atomically.
//!
//! Writers can be *rotated* onto a fresh segment file
//! ([`LogWriter::swap_file`]): the checkpointer rotates every writer right
//! after a group commit so retired segments end at a durable boundary and
//! become eligible for truncation once a later checkpoint covers them.
//!
//! # Delta logging and re-basing
//!
//! With delta logging active, repeat updates arrive from the coordinator as
//! [`RedoPayload::Delta`] records and are encoded as field-level delta
//! frames. The writer enforces the chain-root invariant: a delta is only
//! emitted for a key this writer has logged a full image for *in its
//! current segment file* (tracked in `WriterInner::rooted`); otherwise the
//! record is **re-based** — downgraded to the full after-image the
//! coordinator shipped alongside the delta. Rotation clears the tracker
//! under the same mutex that swaps the file, so the first post-rotation
//! touch of every key is full-image again. Together with the checkpointer's
//! cover-epoch truncation (only whole segments at or below the checkpoint
//! epoch are deleted, and the checkpoint row then supplies the base), every
//! delta chain recovery can encounter is rooted in a full image. Keeping
//! the tracker per-writer (not WAL-global) makes the decision atomic with
//! the append and the swap; routing a key's commits across executors only
//! costs extra full images, never an unrooted chain.

use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use reactdb_common::{DurabilityConfig, Key, ReactorId};
use reactdb_obs::{Count, Metrics};
use reactdb_storage::TidWord;
use reactdb_txn::{LogSink, RedoPayload, RedoRecord};

use crate::codec;

struct WriterInner {
    buf: Vec<u8>,
    file: File,
    path: PathBuf,
    /// Keys with a full-image root in the *current* segment file, keyed
    /// reactor → relation → primary keys. Cleared by [`LogWriter::swap_file`]
    /// under this same mutex (the re-basing rule).
    rooted: HashMap<ReactorId, HashMap<String, HashSet<Key>>>,
    /// Keys this writer has logged since the last completed checkpoint,
    /// with the highest commit epoch seen per key — the delta-checkpoint
    /// dirty set. Unlike `rooted` this survives [`LogWriter::swap_file`]:
    /// rotation changes which file holds a chain, not whether a row is
    /// dirty relative to the last checkpoint. Cleared (through an epoch)
    /// only by the checkpointer after a successful capture.
    dirty: HashMap<(ReactorId, String), HashMap<Key, u64>>,
}

impl WriterInner {
    fn is_rooted(&self, record: &RedoRecord) -> bool {
        self.rooted
            .get(&record.reactor)
            .and_then(|relations| relations.get(record.relation.as_str()))
            .is_some_and(|keys| keys.contains(&record.key))
    }

    fn root(&mut self, record: &RedoRecord) {
        // Steady state is "already rooted": check with borrowed lookups
        // first so the hot path never clones the relation name or key.
        if self.is_rooted(record) {
            return;
        }
        self.rooted
            .entry(record.reactor)
            .or_default()
            .entry(record.relation.clone())
            .or_default()
            .insert(record.key.clone());
    }

    fn unroot(&mut self, record: &RedoRecord) {
        if let Some(keys) = self
            .rooted
            .get_mut(&record.reactor)
            .and_then(|relations| relations.get_mut(record.relation.as_str()))
        {
            keys.remove(&record.key);
        }
    }

    /// Marks `record`'s key dirty at `epoch`. Deletes are tracked too: a
    /// delta checkpoint must capture the tombstone, or a recovery from
    /// full + delta layers would resurrect the row.
    fn mark_dirty(&mut self, record: &RedoRecord, epoch: u64) {
        let last = self
            .dirty
            .entry((record.reactor, record.relation.clone()))
            .or_default()
            .entry(record.key.clone())
            .or_insert(0);
        *last = (*last).max(epoch);
    }
}

/// The log writer of one executor; implements [`LogSink`] for the commit
/// path.
pub struct LogWriter {
    executor: usize,
    /// Delta logging is active (the config knob is on).
    delta: bool,
    /// Record-level RLE compression of frame bodies.
    compress: bool,
    /// Dirty-key tracking for delta checkpoints. Off by default; the
    /// checkpointer switches it on when the config enables delta
    /// checkpoints, so non-delta deployments pay nothing on the commit
    /// path beyond this one relaxed load.
    track_dirty: AtomicBool,
    inner: Mutex<WriterInner>,
    metrics: Arc<Metrics>,
}

impl LogWriter {
    /// Creates the writer and its segment file, writing the header
    /// immediately so even an empty segment is recognisable.
    pub(crate) fn create(
        path: &Path,
        executor: usize,
        generation: u32,
        config: &DurabilityConfig,
        metrics: Arc<Metrics>,
    ) -> std::io::Result<Self> {
        let file = File::create(path)?;
        let mut header = Vec::with_capacity(16);
        codec::encode_header(&mut header, executor as u32, generation);
        let mut inner = WriterInner {
            buf: header,
            file,
            path: path.to_path_buf(),
            rooted: HashMap::new(),
            dirty: HashMap::new(),
        };
        // The header is metadata, not redo payload: push it to the OS right
        // away (without fsync) so scans never mistake the file for garbage.
        Self::write_out(&mut inner)?;
        Ok(Self {
            executor,
            delta: config.delta_logging,
            compress: config.compress_records,
            track_dirty: AtomicBool::new(false),
            inner: Mutex::new(inner),
            metrics,
        })
    }

    /// Executor this writer belongs to.
    pub fn executor(&self) -> usize {
        self.executor
    }

    /// The segment file the writer currently appends to.
    pub fn path(&self) -> PathBuf {
        self.inner.lock().path.clone()
    }

    /// True when this writer emits field-level delta frames.
    pub fn delta_logging(&self) -> bool {
        self.delta
    }

    fn write_out(inner: &mut WriterInner) -> std::io::Result<()> {
        if !inner.buf.is_empty() {
            inner.file.write_all(&inner.buf)?;
            inner.buf.clear();
        }
        Ok(())
    }

    /// Writes buffered bytes to the OS and fsyncs them. Only the group
    /// commit flushes.
    pub(crate) fn flush(&self) -> std::io::Result<()> {
        let mut inner = self.inner.lock();
        Self::write_out(&mut inner)?;
        inner.file.sync_data()
    }

    /// Rotates the writer onto a fresh segment file, returning the retired
    /// file's path. Must be called *directly after a group commit* (the
    /// caller holds the WAL's sync lock): everything flushed so far sits
    /// fsynced in the old file, and whatever has accumulated in the buffer
    /// since the flush belongs to epochs the durable marker does not cover
    /// yet — it stays in the buffer and lands in the *new* file on the next
    /// flush, so the retired file never grows a tail that misses its fsync.
    ///
    /// The rooted-key tracker is cleared in the same mutex acquisition:
    /// any append ordered before the swap made its delta-or-full decision
    /// against the old file, any append ordered after starts the new file's
    /// chains with a full image.
    pub(crate) fn swap_file(&self, path: &Path, generation: u32) -> std::io::Result<PathBuf> {
        let mut inner = self.inner.lock();
        let mut file = File::create(path)?;
        let mut header = Vec::with_capacity(16);
        codec::encode_header(&mut header, self.executor as u32, generation);
        // Header straight to the OS (not via the shared buffer, which may
        // hold frames): scans must never mistake the file for garbage.
        file.write_all(&header)?;
        let old_path = std::mem::replace(&mut inner.path, path.to_path_buf());
        inner.file = file; // old handle drops (everything durable is synced)
        inner.rooted.clear(); // re-base: first touch per key logs full again
        Ok(old_path)
    }

    /// Bytes currently buffered in memory (not yet handed to the OS).
    pub fn buffered_bytes(&self) -> usize {
        self.inner.lock().buf.len()
    }

    /// Switches dirty-key tracking on or off. Turning it on only covers
    /// commits logged *from now on* — the checkpointer compensates by
    /// forcing its first checkpoint of an instance lifetime to be full.
    pub(crate) fn set_track_dirty(&self, on: bool) {
        self.track_dirty.store(on, Ordering::Relaxed);
    }

    /// Snapshot of the dirty set: every (reactor, relation, key) this
    /// writer has logged since the last `clear_dirty_through`, with the
    /// highest commit epoch per key.
    pub(crate) fn dirty_snapshot(&self) -> HashMap<(ReactorId, String), HashMap<Key, u64>> {
        self.inner.lock().dirty.clone()
    }

    /// Drops dirty entries whose last commit epoch is ≤ `epoch`. Called
    /// after a checkpoint whose stable snapshot epoch is `epoch` commits:
    /// those keys' latest images were captured (the epoch gate drained
    /// every commit at or below `epoch` before the walk), while keys
    /// re-dirtied during the capture carry a higher epoch and survive for
    /// the next delta.
    pub(crate) fn clear_dirty_through(&self, epoch: u64) {
        let mut inner = self.inner.lock();
        inner.dirty.retain(|_, keys| {
            keys.retain(|_, last| *last > epoch);
            !keys.is_empty()
        });
    }
}

impl LogSink for LogWriter {
    fn wants_deltas(&self) -> bool {
        self.delta
    }

    fn log_commit(&self, tid: TidWord, records: &[RedoRecord]) {
        let track_dirty = self.track_dirty.load(Ordering::Relaxed);
        let mut inner = self.inner.lock();
        if track_dirty {
            for record in records {
                inner.mark_dirty(record, tid.epoch());
            }
        }
        // Render plan: decide delta-vs-full per record under the writer
        // mutex (atomic with the append and with rotation). Downgrades are
        // rare after warm-up, so the batch is only cloned when one occurs.
        let mut rebased: Option<Vec<RedoRecord>> = None;
        if self.delta {
            for (i, record) in records.iter().enumerate() {
                match &record.payload {
                    RedoPayload::Delta(row_delta) => {
                        let full_len = row_delta.image.as_ref().map(codec::encoded_tuple_len);
                        let delta_len = codec::encoded_delta_len(&row_delta.delta);
                        // Keep the delta only when the key has a full-image
                        // root in this segment AND the delta actually saves
                        // bytes; otherwise re-base to the full image.
                        let keep =
                            inner.is_rooted(record) && full_len.is_none_or(|full| delta_len < full);
                        if keep {
                            self.metrics.add(Count::LogDeltaRecords, 1);
                            self.metrics.add(
                                Count::LogBytesSaved,
                                full_len.map_or(0, |full| (full - delta_len) as u64),
                            );
                        } else {
                            let image = row_delta
                                .image
                                .clone()
                                .expect("commit-path delta records carry their after-image");
                            rebased.get_or_insert_with(|| records.to_vec())[i].payload =
                                RedoPayload::Full(image);
                            inner.root(record);
                        }
                    }
                    RedoPayload::Full(_) => inner.root(record),
                    // A tombstone ends the chain; the slot only comes back
                    // through an insert, which is always full-image.
                    RedoPayload::Delete => inner.unroot(record),
                }
            }
        }
        let render = rebased.as_deref().unwrap_or(records);
        let written = codec::encode_batch_opts(
            &mut inner.buf,
            tid,
            render,
            self.compress,
            |record, bytes| self.metrics.add_table_log(&record.relation, bytes),
        );
        self.metrics.add(Count::LogBytes, written as u64);
        self.metrics.add(Count::LogRecords, records.len() as u64);
    }
}

impl std::fmt::Debug for LogWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogWriter")
            .field("executor", &self.executor)
            .field("delta", &self.delta)
            .field("compress", &self.compress)
            .finish()
    }
}
