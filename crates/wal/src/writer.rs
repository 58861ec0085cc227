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

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;
use reactdb_obs::{Count, Metrics};
use reactdb_storage::TidWord;
use reactdb_txn::{LogSink, RedoRecord};

use crate::codec;

struct WriterInner {
    buf: Vec<u8>,
    file: File,
    path: PathBuf,
}

/// The log writer of one executor; implements [`LogSink`] for the commit
/// path.
pub struct LogWriter {
    executor: usize,
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
        metrics: Arc<Metrics>,
    ) -> std::io::Result<Self> {
        let file = File::create(path)?;
        let mut header = Vec::with_capacity(16);
        codec::encode_header(&mut header, executor as u32, generation);
        let mut inner = WriterInner {
            buf: header,
            file,
            path: path.to_path_buf(),
        };
        // The header is metadata, not redo payload: push it to the OS right
        // away (without fsync) so scans never mistake the file for garbage.
        Self::write_out(&mut inner)?;
        Ok(Self {
            executor,
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
        Ok(old_path)
    }

    /// Bytes currently buffered in memory (not yet handed to the OS).
    pub fn buffered_bytes(&self) -> usize {
        self.inner.lock().buf.len()
    }
}

impl LogSink for LogWriter {
    fn log_commit(&self, tid: TidWord, records: &[RedoRecord]) {
        let mut inner = self.inner.lock();
        let written =
            codec::encode_batch_accounted(&mut inner.buf, tid, records, |record, bytes| {
                self.metrics.add_table_log(&record.relation, bytes)
            });
        self.metrics.add(Count::LogBytes, written as u64);
        self.metrics.add(Count::LogRecords, records.len() as u64);
    }
}

impl std::fmt::Debug for LogWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogWriter")
            .field("executor", &self.executor)
            .finish()
    }
}
