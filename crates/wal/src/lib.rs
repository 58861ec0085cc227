//! Epoch-based group-commit write-ahead logging and crash recovery for
//! ReactDB-rs.
//!
//! The seed engine committed every transaction in volatile memory. This
//! crate adds the durability design that Silo (whose OCC protocol ReactDB
//! reuses, §3.2.1) pairs with its epoch machinery:
//!
//! * **Per-executor log writers** ([`LogWriter`]) implement the
//!   [`reactdb_txn::LogSink`] hook: at commit time the coordinator renders
//!   the validated write set as [`reactdb_txn::RedoRecord`]s and the writer
//!   appends one checksummed frame to an in-memory buffer — no disk I/O on
//!   the commit path. 2PC commits log the records of every participating
//!   container in the same frame.
//! * **Group commit** ([`Wal::sync`]): driven by the
//!   [`reactdb_txn::EpochManager`], a group commit fences the current
//!   epoch, drains in-flight commits through a reader-writer gate, flushes
//!   and fsyncs every writer, and advances the on-disk durable-epoch marker
//!   to `fence - 1`. The fence/drain order guarantees that every record of
//!   an epoch `<=` the marker is on disk (see `Wal::sync` for the argument).
//!   One `reactdb-wal-sync` thread per log decides when the next one runs:
//!   when the configured interval elapses, or as soon as a waiter demands
//!   an epoch beyond the durable one ([`Wal::demand_durable`]). After each
//!   advance it wakes whoever waits, in process or on a socket.
//! * **Recovery** ([`recover_and_compact`]): scans every segment in the log
//!   directory, discards torn tails and frames beyond the durable epoch, sorts
//!   the surviving batches by commit TID and hands them to the engine for
//!   replay into `reactdb_storage::Partition`s; the kept prefix is rewritten
//!   into a fresh checkpoint segment and stale segments are deleted, so
//!   discarded (never-durable) frames cannot resurrect on a later recovery.
//!
//! Unlike Silo proper, the engine releases a transaction's result to the
//! client as soon as its writes are installed, before its epoch is synced —
//! group commit bounds the window of acknowledged-but-lost work to one epoch
//! rather than eliminating it. This matches the repository's goal of
//! reproducing the performance architecture; early result release is
//! documented here so nobody mistakes epoch-sync durability for synchronous
//! commit.

pub mod checkpoint;
pub mod codec;
pub mod failpoint;
pub mod ship;
pub mod writer;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock, RwLockReadGuard};
use reactdb_common::bytes::{crc32, put_u32, put_u64, Reader};
use reactdb_common::DurabilityConfig;
use reactdb_obs::{Count, Metrics, Phase, TraceKind};
use reactdb_storage::TidWord;
use reactdb_txn::{Coordinator, EpochManager, RedoRecord};

pub use checkpoint::{
    load_checkpoint, CheckpointReport, CheckpointTable, Checkpointer, RecoveredCheckpoint,
};
pub use ship::{ShipCursor, ShipEvent};
pub use writer::LogWriter;

/// File name of the durable-epoch marker.
const MARKER_FILE: &str = "durable_epoch";
/// Magic bytes opening the marker file.
const MARKER_MAGIC: [u8; 8] = *b"RDBEPOCH";
/// File name of the advisory single-instance lock.
const LOCK_FILE: &str = "LOCK";

/// Advisory single-instance lock on a log directory.
///
/// A log directory belongs to exactly one live WAL at a time: a second
/// instance appending its own segments would interleave (epoch, sequence)
/// pairs, and a recovery compacting the directory under a live writer would
/// unlink the inode the writer keeps "syncing" into. That rule used to hold
/// by convention only (ROADMAP open item); this lock enforces it across
/// processes with [`std::fs::File::try_lock`] on a `LOCK` file. The OS
/// releases the lock when the holding process exits — even by crash — so a
/// stale `LOCK` file never blocks recovery.
///
/// The lock is held for the lifetime of the value. [`Wal::open`] acquires
/// one automatically; `reactdb-engine` acquires it *before* crash recovery
/// scans the directory and hands it to [`Wal::open_locked`], so the
/// recovery-compact-reopen sequence is covered end to end.
#[derive(Debug)]
pub struct LogDirLock {
    /// Held open for the lock's lifetime; the advisory lock is attached to
    /// this file description and released when it closes.
    _file: fs::File,
    dir: PathBuf,
}

impl LogDirLock {
    /// Acquires the advisory lock for `dir`, creating the directory and the
    /// `LOCK` file as needed. Fails with [`io::ErrorKind::WouldBlock`]-style
    /// contention mapped to a descriptive error when another live WAL
    /// instance (in this or any other process) holds the directory.
    pub fn acquire(dir: &Path) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let file = fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(dir.join(LOCK_FILE))?;
        match file.try_lock() {
            Ok(()) => Ok(Self {
                _file: file,
                dir: dir.to_path_buf(),
            }),
            Err(fs::TryLockError::WouldBlock) => Err(io::Error::other(format!(
                "log directory {} is locked by another live WAL instance",
                dir.display()
            ))),
            Err(fs::TryLockError::Error(e)) => Err(e),
        }
    }

    /// The locked directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Called with the new durable epoch after it advances ([`Wal::add_waker`]).
pub type DurableWaker = dyn Fn(u64) + Send + Sync;

/// Group-commit progress shared by a [`Wal`] and its sync thread, which
/// holds the `Wal` only weakly and parks here: dropping the last `Wal`
/// handle still releases the log directory.
#[derive(Default)]
struct Schedule {
    /// Highest epoch guaranteed durable: the durable-ack gate. Seeded from
    /// the on-disk marker at open, advanced only after the marker is.
    durable: AtomicU64,
    /// Highest epoch a waiter has asked to become durable. Lowered only by
    /// a failed group commit, which drops the demand it served.
    demand: AtomicU64,
    /// Set by shutdown or drop: the sync thread exits.
    stop: AtomicBool,
    /// The latest failed group commit of the sync thread, as (kind,
    /// message): `io::Error` is not `Clone`.
    failure: Mutex<Option<(io::ErrorKind, String)>>,
    /// Wakes the sync thread (demand rose, or stop) and the
    /// [`Wal::wait_durable`] waiters (a group commit ended, or shutdown).
    /// Sleepers check their condition under `failure`.
    cond: Condvar,
}

impl Schedule {
    fn notify(&self) {
        let _guard = self.failure.lock();
        self.cond.notify_all();
    }

    fn halt(&self) {
        self.stop.store(true, Ordering::Release);
        self.notify();
    }
}

/// The write-ahead log of one database instance: one writer per executor, a
/// commit gate, and the group-commit state.
pub struct Wal {
    dir: PathBuf,
    writers: Vec<Arc<LogWriter>>,
    /// Commit gate: committers hold the read side across epoch read, write
    /// installation and log append; [`Wal::sync`] acquires the write side to
    /// drain them before flushing.
    gate: RwLock<()>,
    /// Serializes [`Wal::sync`] calls: the sync thread and explicit syncs
    /// would otherwise race on the shared marker temp file and could move
    /// the on-disk marker backwards relative to what a caller was told.
    sync_lock: Mutex<()>,
    epoch: Arc<EpochManager>,
    schedule: Arc<Schedule>,
    /// The `reactdb-wal-sync` thread; joined at shutdown.
    syncer: Mutex<Option<JoinHandle<()>>>,
    /// Called with the new durable epoch after every advance; held weakly,
    /// so an owner that goes away unregisters itself.
    wakers: Mutex<Vec<Weak<DurableWaker>>>,
    /// Set once [`Wal::shutdown`] completed: later syncs are refused so a
    /// lingering client handle cannot write into a directory another
    /// instance may have taken over.
    closed: AtomicBool,
    /// Advisory single-instance lock on the log directory, held until
    /// shutdown (released there, not at drop, so a lingering `Arc<Wal>` in
    /// a client handle cannot hold the directory hostage).
    dir_lock: Mutex<Option<LogDirLock>>,
    /// The instance's metrics registry: the WAL counts its appends, group
    /// commits and checkpoints there, and times its phases when tracing
    /// is on.
    metrics: Arc<Metrics>,
}

/// True when `dir` already holds WAL state (segments or a durable-epoch
/// marker). [`reactdb_engine`]-level boots that are *not* recoveries must
/// refuse such a directory: a fresh instance restarts at epoch 1 and would
/// reissue (epoch, sequence) pairs already present in the old segments,
/// which a later recovery would replay in the wrong order.
pub fn log_dir_has_state(dir: &Path) -> io::Result<bool> {
    if !dir.exists() {
        return Ok(false);
    }
    if dir.join(MARKER_FILE).exists() {
        return Ok(true);
    }
    // A checkpoint manifest alone is state too: after full truncation a
    // directory may hold nothing but the checkpoint, and a fresh boot over
    // it would reissue (epoch, sequence) pairs the checkpoint rows carry.
    if dir.join(checkpoint::MANIFEST_FILE).exists() {
        return Ok(true);
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("wal-") && name.ends_with(".log") {
            return Ok(true);
        }
    }
    Ok(false)
}

impl Wal {
    /// Opens the log for a new database instance: creates the log directory
    /// if needed, acquires the single-instance [`LogDirLock`], and creates a
    /// fresh segment generation with one writer per executor, counting
    /// into `metrics`. Returns `None` when durability is off. Callers that
    /// must hold the lock *before* opening (e.g. across crash recovery)
    /// acquire it themselves and use [`Wal::open_locked`].
    pub fn open(
        config: &DurabilityConfig,
        executors: usize,
        epoch: Arc<EpochManager>,
        metrics: Arc<Metrics>,
    ) -> io::Result<Option<Arc<Self>>> {
        let Some(dir) = config.log_dir_path() else {
            return Ok(None);
        };
        let lock = LogDirLock::acquire(dir)?;
        Self::open_locked(config, executors, epoch, lock, metrics).map(Some)
    }

    /// Like [`Wal::open`], but takes over a [`LogDirLock`] the caller
    /// already holds (the engine acquires it before recovery scans the
    /// directory, closing the window in which another instance could sneak
    /// in between compaction and reopen).
    pub fn open_locked(
        config: &DurabilityConfig,
        executors: usize,
        epoch: Arc<EpochManager>,
        lock: LogDirLock,
        metrics: Arc<Metrics>,
    ) -> io::Result<Arc<Self>> {
        let dir = config
            .log_dir_path()
            .expect("open_locked requires durability on")
            .to_path_buf();
        assert_eq!(lock.dir(), dir, "lock must cover the configured log dir");
        let generation = next_generation(&dir)?;
        let mut writers = Vec::with_capacity(executors);
        for executor in 0..executors {
            let path = dir.join(segment_name(executor, generation));
            writers.push(Arc::new(LogWriter::create(
                &path,
                executor,
                generation,
                Arc::clone(&metrics),
            )?));
        }
        // Resuming instances inherit the previous durable epoch so the
        // marker never moves backwards; this seeds the epoch only and does
        // not count as a performed group commit.
        let schedule = Arc::new(Schedule::default());
        schedule
            .durable
            .store(read_marker(&dir)?.unwrap_or(0), Ordering::SeqCst);
        let wal = Arc::new(Self {
            dir,
            writers,
            gate: RwLock::new(()),
            sync_lock: Mutex::new(()),
            epoch,
            schedule: Arc::clone(&schedule),
            syncer: Mutex::new(None),
            wakers: Mutex::new(Vec::new()),
            closed: AtomicBool::new(false),
            dir_lock: Mutex::new(Some(lock)),
            metrics,
        });
        let interval = (config.group_commit_interval_ms > 0)
            .then(|| Duration::from_millis(config.group_commit_interval_ms));
        let weak = Arc::downgrade(&wal);
        let handle = std::thread::Builder::new()
            .name("reactdb-wal-sync".into())
            .spawn(move || sync_loop(weak, schedule, interval))?;
        *wal.syncer.lock() = Some(handle);
        Ok(wal)
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The writer (commit-path [`reactdb_txn::LogSink`]) of one executor.
    pub fn writer(&self, executor: usize) -> &Arc<LogWriter> {
        &self.writers[executor]
    }

    /// The registry the WAL counts into.
    pub(crate) fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The registry when tracing is on: group commit and the checkpointer
    /// time their phases only then.
    pub(crate) fn obs(&self) -> Option<&Metrics> {
        Some(self.metrics()).filter(|m| m.enabled())
    }

    /// Highest epoch currently guaranteed durable.
    pub fn durable_epoch(&self) -> u64 {
        self.schedule.durable.load(Ordering::SeqCst)
    }

    /// Enters the commit critical section. The engine holds the returned
    /// guard across `Coordinator::commit_logged` so that [`Wal::sync`]'s
    /// drain step can wait for every in-flight commit.
    pub fn commit_guard(&self) -> RwLockReadGuard<'_, ()> {
        self.gate.read()
    }

    /// Performs one group commit and returns the durable epoch.
    ///
    /// Correctness of the fence/drain order: let `f` be the epoch read at
    /// step 1. Any commit that started before the drain (step 2) completed
    /// its log append before the flush (step 3) because it held the gate's
    /// read side throughout. Any commit starting after the drain reads an
    /// epoch `>= f` (epochs are monotone and `f` was already current), so no
    /// record with epoch `<= f - 1` can be appended after the flush. Every
    /// record of epochs `<= f - 1` is therefore on disk when the marker
    /// advances to `f - 1`.
    pub fn sync(&self) -> io::Result<u64> {
        if self.closed.load(Ordering::Acquire) {
            // Not counted as a sync failure: the log device is fine, the
            // instance is simply retired (and may no longer own the
            // directory).
            return Err(io::Error::other("WAL is shut down"));
        }
        let result = self.sync_inner();
        if result.is_err() && !self.closed.load(Ordering::Acquire) {
            // Make persistent I/O failures observable: callers such as the
            // sync thread's timed commits drop the error, but the counter
            // keeps climbing and `durable_epoch` visibly stalls. A sync
            // refused because the instance is retired is not a failure of
            // the log device and is not counted.
            self.metrics.add(Count::LogSyncFailures, 1);
        }
        result
    }

    fn sync_inner(&self) -> io::Result<u64> {
        let _serial = self.sync_lock.lock();
        // Re-check under the sync lock: a syncer that passed the fast-path
        // check in `sync()` and then blocked here while `shutdown` retired
        // the instance must not touch a directory the lock release may
        // have handed to a successor.
        if self.closed.load(Ordering::Acquire) {
            return Err(io::Error::other("WAL is shut down"));
        }
        self.group_commit_locked()
    }

    /// One group commit; the caller holds the sync lock and has verified the
    /// instance is not retired.
    fn group_commit_locked(&self) -> io::Result<u64> {
        let scope = self.dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
        failpoint::check_scoped("wal-sync", scope)?;
        let obs = self.obs();
        let wait_started = obs.map(|_| Instant::now());
        let fence = self.epoch.current(); // 1. fence
        drop(self.gate.write()); // 2. drain in-flight commits
        if let (Some(m), Some(started)) = (obs, wait_started) {
            let ns = m.record_elapsed(Phase::WalSyncWait, usize::MAX, started);
            m.trace(usize::MAX, 0, TraceKind::GroupCommitWait, ns);
        }
        let fsync_started = obs.map(|_| Instant::now());
        for writer in &self.writers {
            writer.flush()?; // 3. flush + fsync
        }
        if let (Some(m), Some(started)) = (obs, fsync_started) {
            let ns = m.record_elapsed(Phase::WalFsync, usize::MAX, started);
            m.trace(usize::MAX, 0, TraceKind::GroupCommitFsync, ns);
        }
        let durable = fence.saturating_sub(1);
        if durable > self.durable_epoch() {
            write_marker(&self.dir, durable)?; // 4. advance marker
        }
        let before = self.schedule.durable.fetch_max(durable, Ordering::SeqCst);
        self.metrics.add(Count::LogSyncs, 1);
        self.schedule.notify(); // 5. wake waiters
        if durable > before {
            self.wakers
                .lock()
                .retain(|waker| waker.upgrade().map(|wake| wake(durable)).is_some());
        }
        Ok(durable)
    }

    /// The stable epoch a checkpoint may snapshot against: reads the epoch
    /// through the commit protocol's [`Coordinator::stable_epoch`] hook,
    /// then drains every in-flight commit through the gate's write side.
    /// After the drain, every transaction with a TID epoch `<=` the
    /// returned value has fully installed its writes, and no future commit
    /// can carry such an epoch — so a table walk started now captures the
    /// complete effects of that epoch prefix.
    pub fn stable_snapshot_epoch(&self) -> io::Result<u64> {
        if self.closed.load(Ordering::Acquire) {
            return Err(io::Error::other("WAL is shut down"));
        }
        let stable = Coordinator::stable_epoch(&self.epoch);
        drop(self.gate.write()); // drain in-flight commits
        Ok(stable)
    }

    /// Rotates every writer onto a fresh segment generation, preceded by one
    /// group commit so the retired files end exactly at a durable boundary
    /// (frames appended after the commit's flush stay in the writer buffers
    /// and land in the new files). The checkpointer rotates after each
    /// completed checkpoint; the retired segments become eligible for
    /// [`Wal::truncate_stale_segments`] once a later checkpoint covers their
    /// epochs. Returns the retired segment paths.
    pub fn rotate_segments(&self) -> io::Result<Vec<PathBuf>> {
        let _serial = self.sync_lock.lock();
        if self.closed.load(Ordering::Acquire) {
            return Err(io::Error::other("WAL is shut down"));
        }
        self.group_commit_locked()?;
        let generation = next_generation(&self.dir)?;
        let mut retired = Vec::with_capacity(self.writers.len());
        for writer in &self.writers {
            let path = self.dir.join(segment_name(writer.executor(), generation));
            retired.push(writer.swap_file(&path, generation)?);
        }
        sync_dir(&self.dir)?;
        Ok(retired)
    }

    /// Deletes every non-live log segment whose records are *entirely*
    /// covered by the checkpoint at `covered_epoch` (all frame epochs `<=
    /// covered_epoch`), applying the same retention policy as offline
    /// compaction: foreign files and segments with torn tails are left
    /// alone. Returns `(bytes, segments)` reclaimed and counts them.
    pub fn truncate_stale_segments(&self, covered_epoch: u64) -> io::Result<(u64, u64)> {
        let _serial = self.sync_lock.lock();
        if self.closed.load(Ordering::Acquire) {
            return Err(io::Error::other("WAL is shut down"));
        }
        let live: Vec<PathBuf> = self.writers.iter().map(|w| w.path()).collect();
        let mut delete: Vec<PathBuf> = Vec::new();
        for path in list_segments(&self.dir)? {
            if live.contains(&path) {
                continue;
            }
            let bytes = fs::read(&path)?;
            let Some(scan) = codec::decode_segment(&bytes) else {
                continue; // foreign or headerless file: leave it alone
            };
            if scan.truncated_tail || scan.undecodable_at.is_some() {
                continue; // suspicious: leave the evidence for recovery
            }
            if scan
                .batches
                .iter()
                .all(|(tid, _)| tid.epoch() <= covered_epoch)
            {
                delete.push(path);
            }
        }
        let segments = delete.len() as u64;
        let bytes = retire_segments(&self.dir, &delete, &[])?;
        self.metrics.add(Count::LogTruncatedBytes, bytes);
        self.metrics.add(Count::LogTruncatedSegments, segments);
        Ok((bytes, segments))
    }

    /// Asks the sync thread to make `epoch` durable, without waiting: it
    /// runs a group commit as soon as the demand exceeds the durable epoch,
    /// then calls the wakers ([`Wal::add_waker`]). A caller that reads
    /// [`Wal::durable_epoch`] after demanding either sees the advance or is
    /// woken by it.
    pub fn demand_durable(&self, epoch: u64) {
        let schedule = &self.schedule;
        if schedule.demand.fetch_max(epoch, Ordering::SeqCst) < epoch
            && epoch > self.durable_epoch()
        {
            schedule.notify();
        }
    }

    /// Registers `waker` to be called with the new durable epoch after
    /// every advance. The WAL holds it weakly: once its owner drops the
    /// last strong handle, it is forgotten.
    pub fn add_waker(&self, waker: &Arc<DurableWaker>) {
        self.wakers.lock().push(Arc::downgrade(waker));
    }

    /// Blocks until the durable epoch reaches `target`, i.e. until the group
    /// commit covering epoch `target` completed. Returns the durable epoch
    /// at that point (`>= target`).
    ///
    /// This is the durability gate behind the client API's
    /// `TxnHandle::wait_durable`: a transaction whose commit TID carries
    /// epoch `e` is guaranteed on disk exactly when `durable_epoch() >= e`
    /// (Silo's group-commit acknowledgement rule).
    ///
    /// The waiter demands `target` ([`Wal::demand_durable`]) and parks until
    /// the sync thread's group commit covers it, so it never waits out the
    /// configured interval and never syncs itself. Every waiter that arrives
    /// during one group commit shares the next. If the group commit serving
    /// the demand fails, the wait returns its error and the commit is not
    /// acknowledged; a later wait demands it again. A retired WAL fails the
    /// wait too.
    pub fn wait_durable(&self, target: u64) -> io::Result<u64> {
        let durable = self.durable_epoch();
        if durable >= target {
            return Ok(durable);
        }
        self.metrics.add(Count::DurableWaits, 1);
        let schedule = &self.schedule;
        let mut failure = schedule.failure.lock();
        if schedule.demand.fetch_max(target, Ordering::SeqCst) < target {
            schedule.cond.notify_all();
        }
        loop {
            let durable = self.durable_epoch();
            if durable >= target {
                return Ok(durable);
            }
            if self.closed.load(Ordering::Acquire) {
                return Err(io::Error::other("WAL is shut down"));
            }
            if schedule.demand.load(Ordering::SeqCst) < target {
                let (kind, message) = failure.clone().expect("only a failure drops demand");
                return Err(io::Error::new(kind, message));
            }
            schedule.cond.wait(&mut failure);
        }
    }

    /// Stops the sync thread and, unless the caller simulates a crash,
    /// performs a final flush that makes every committed transaction durable
    /// (the epoch is advanced first so the marker can cover the last epoch).
    pub fn shutdown(&self, flush: bool) {
        self.schedule.halt();
        if let Some(handle) = self.syncer.lock().take() {
            let _ = handle.join();
        }
        if flush && !self.closed.load(Ordering::Acquire) {
            self.epoch.advance();
            let _ = self.sync();
        }
        // Retire the instance: refuse later syncs and release the log
        // directory, so a lingering `Arc<Wal>` held by a client handle can
        // neither block a successor instance nor write under it. Both
        // happen under the sync lock: a concurrent syncer either completed
        // before the release (directory still ours) or re-checks `closed`
        // under the lock and is refused — it can never write into a
        // directory a successor has taken over. Waiters parked in
        // `wait_durable` wake, observe `closed` and get the shutdown error.
        {
            let _serial = self.sync_lock.lock();
            self.closed.store(true, Ordering::Release);
            *self.dir_lock.lock() = None;
        }
        self.schedule.notify();
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // A crash-style drop skips `shutdown`; the sync thread still has to
        // go. No join: this may run on that very thread.
        self.schedule.halt();
    }
}

/// The `reactdb-wal-sync` thread: the one place that decides when a group
/// commit runs. It parks until a waiter demands an epoch beyond the durable
/// one, the interval (`None`: no timed syncs) elapses, or the WAL stops.
/// A demanded commit first raises the global epoch past the demand, since
/// the fence it reads must exceed the demand for `fence - 1 >= demand`. A
/// timed one is skipped when no new epoch can have completed.
fn sync_loop(wal: Weak<Wal>, schedule: Arc<Schedule>, interval: Option<Duration>) {
    let mut next_tick = interval.map(|i| Instant::now() + i);
    let mut last_fence = 0u64;
    loop {
        let demanded = {
            let mut failure = schedule.failure.lock();
            loop {
                if schedule.stop.load(Ordering::Acquire) {
                    return;
                }
                if schedule.demand.load(Ordering::SeqCst) > schedule.durable.load(Ordering::SeqCst)
                {
                    break true;
                }
                match next_tick {
                    Some(at) if Instant::now() >= at => break false,
                    Some(at) => {
                        let left = at.saturating_duration_since(Instant::now());
                        schedule.cond.wait_for(&mut failure, left);
                    }
                    None => schedule.cond.wait(&mut failure),
                }
            }
        };
        let Some(wal) = wal.upgrade() else {
            return;
        };
        next_tick = interval.map(|i| Instant::now() + i);
        let demand = schedule.demand.load(Ordering::SeqCst);
        if demanded {
            wal.epoch.advance_to(demand + 1);
        } else if wal.epoch.current() == last_fence {
            continue;
        }
        last_fence = wal.epoch.current();
        if let Err(e) = wal.sync() {
            // Drop the demand this attempt served, unless a newer one arrived
            // meanwhile: its waiters fail, and whoever still wants
            // durability demands again, so a dead disk is retried at the
            // pace of new demand or of the interval, not in a spin.
            let mut failure = schedule.failure.lock();
            *failure = Some((e.kind(), e.to_string()));
            let durable = schedule.durable.load(Ordering::SeqCst);
            let seq = Ordering::SeqCst;
            let _ = schedule.demand.compare_exchange(demand, durable, seq, seq);
            schedule.cond.notify_all();
        }
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("writers", &self.writers.len())
            .field("durable_epoch", &self.durable_epoch())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// Everything recovery extracted from a log directory.
#[derive(Debug)]
pub struct RecoveredLog {
    /// The newest complete checkpoint, when one is installed: its rows are
    /// replayed *before* the log tail and fully cover every commit with a
    /// TID epoch `<= checkpoint.epoch`.
    pub checkpoint: Option<RecoveredCheckpoint>,
    /// Redo batches to replay, sorted by commit TID. With a checkpoint
    /// installed this is only the log *tail* — frames with epochs beyond the
    /// checkpoint — which is what bounds recovery cost by checkpoint size
    /// plus log-since-checkpoint instead of log history.
    pub batches: Vec<(TidWord, Vec<RedoRecord>)>,
    /// Largest commit TID among the kept batches and checkpoint rows (zero
    /// when none).
    pub max_tid: TidWord,
    /// Largest epoch observed in *any* frame (kept or discarded) or
    /// checkpoint stamp. The recovered instance resumes beyond it so
    /// pre-crash (epoch, sequence) pairs are never reissued.
    pub max_epoch_seen: u64,
    /// The durable epoch the scan honoured.
    pub durable_epoch: u64,
    /// Segments whose frame stream ended early (torn tail or mid-file
    /// corruption). Expected to be non-zero after a genuine crash; a
    /// non-zero value on a cleanly shut down log indicates media
    /// corruption, and the offending bytes are preserved next to the log
    /// under a `.corrupt` name.
    pub truncated_segments: usize,
    /// Total log-segment bytes the scan had to read — together with the
    /// checkpoint's `bytes`, the I/O cost of this recovery. Bounded by
    /// truncation, not by log history.
    pub log_bytes_scanned: u64,
}

/// Every `wal-*.log` segment in `dir`, sorted by name.
fn list_segments(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut segments: Vec<PathBuf> = Vec::new();
    if dir.exists() {
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("wal-") && name.ends_with(".log") {
                segments.push(path);
            }
        }
    }
    segments.sort();
    Ok(segments)
}

/// The single segment-retention policy shared by offline compaction
/// ([`recover_and_compact`]) and online checkpoint truncation
/// ([`Wal::truncate_stale_segments`]): segments in `delete` are unlinked;
/// segments in `corrupt` are preserved next to the log under a `.corrupt`
/// name (ignored by future scans) instead of being destroyed — a torn tail
/// after a crash is expected, but mid-file corruption of a synced segment
/// would mean durable frames were dropped, and either way the bytes are
/// evidence. The directory is fsynced once at the end so the unlinks are
/// durable. Returns the bytes reclaimed by deletion.
fn retire_segments(dir: &Path, delete: &[PathBuf], corrupt: &[PathBuf]) -> io::Result<u64> {
    let mut reclaimed = 0u64;
    for path in corrupt {
        let _ = fs::rename(path, path.with_extension("log.corrupt"));
    }
    for path in delete {
        if let Ok(meta) = fs::metadata(path) {
            reclaimed += meta.len();
        }
        let _ = fs::remove_file(path);
    }
    if !delete.is_empty() || !corrupt.is_empty() {
        sync_dir(dir)?;
    }
    Ok(reclaimed)
}

/// Scans `dir`, loads the installed checkpoint (if any), keeps the
/// replayable log tail, rewrites the tail as a compacted segment and removes
/// stale segments.
///
/// Only frames with `tid.epoch() <=` the on-disk durable-epoch marker
/// survive; later frames belong to epochs whose group commit never
/// completed and are discarded together with their segments (that deletion
/// is what prevents a discarded transaction from resurfacing once the
/// marker later passes its epoch).
///
/// With a checkpoint installed, frames with `tid.epoch() <=` the checkpoint
/// stamp are additionally skipped: the checkpoint already contains the full
/// effects of those epochs, so recovery replays checkpoint rows plus the
/// tail only. A checkpoint whose capture the durable marker does not cover
/// is skipped; debris of an unfinished checkpoint is cleaned up.
///
/// Recovery refuses what it cannot read; it never reads it as absent. A
/// marker, manifest or manifest-named part that fails its checks, or a
/// segment frame whose checksum matches but whose payload does not decode,
/// is an error naming the file, and every check runs before recovery
/// deletes or rewrites anything: an `Err` leaves `dir` as it was. An absent
/// marker or manifest still means none was installed, and a checksum
/// mismatch in a segment frame is still the torn tail a crash leaves.
///
/// # Concurrency
/// The caller must guarantee no live [`Wal`] instance is writing to `dir`:
/// compaction unlinks segment files, and a live writer would keep appending
/// to the unlinked inode, silently losing everything it "syncs" afterwards.
/// `ReactDB::recover` upholds this by only scanning before its own WAL
/// opens; coordinating multiple processes over one log directory is out of
/// scope here (see ROADMAP).
pub fn recover_and_compact(dir: &Path) -> io::Result<RecoveredLog> {
    let durable_epoch = read_marker(dir)?.unwrap_or(0);

    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // The installed checkpoint: rows covering every epoch <= its stamp.
    let recovered_checkpoint = checkpoint::load_checkpoint(dir, durable_epoch, parallelism)?;
    let checkpoint_epoch = recovered_checkpoint.as_ref().map(|c| c.epoch).unwrap_or(0);

    // Read and decode the segments in parallel (each segment is
    // independent); results come back in path-sorted order, so the merge
    // below is byte-identical to a serial scan.
    let segments = list_segments(dir)?;
    let decoded = par_map(&segments, parallelism, |_, path| {
        fs::read(path).map(|bytes| (bytes.len() as u64, codec::decode_segment(&bytes)))
    })
    .into_iter()
    .collect::<io::Result<Vec<_>>>()?;

    let mut batches: Vec<(TidWord, Vec<RedoRecord>)> = Vec::new();
    let mut max_epoch_seen = 0u64;
    let mut max_generation = 0u32;
    let mut log_bytes_scanned = 0u64;
    // Only segments we actually decoded are rewritten into the compacted
    // segment and eligible for removal; foreign `wal-*.log` files are left
    // alone.
    let mut scanned: Vec<PathBuf> = Vec::new();
    let mut truncated: Vec<PathBuf> = Vec::new();
    for (path, (bytes_read, scan)) in segments.iter().zip(decoded) {
        if let Some(generation) = parse_generation(path) {
            max_generation = max_generation.max(generation);
        }
        let Some(scan) = scan else {
            continue; // foreign or headerless file: leave it alone
        };
        if let Some(at) = scan.undecodable_at {
            return Err(damaged(
                path,
                format!("frame at byte {at} passes its checksum but does not decode"),
            ));
        }
        log_bytes_scanned += bytes_read;
        if scan.truncated_tail {
            truncated.push(path.clone());
        }
        scanned.push(path.clone());
        for (tid, records) in scan.batches {
            max_epoch_seen = max_epoch_seen.max(tid.epoch());
            if tid.epoch() <= durable_epoch && tid.epoch() > checkpoint_epoch {
                batches.push((tid, records));
            }
        }
    }

    // Replay order: commit TID order makes the last writer win per key,
    // reproducing the pre-crash version order regardless of which
    // executor's segment a record came from. (Checkpoint rows replay first;
    // TID-aware replay resolves the fuzzy overlap between them and the
    // tail.)
    batches.sort_by_key(|(tid, _)| tid.version());
    let mut max_tid = batches.last().map(|(tid, _)| *tid).unwrap_or(TidWord(0));
    if let Some(ckpt) = &recovered_checkpoint {
        max_epoch_seen = max_epoch_seen.max(ckpt.cover_epoch);
        for (tid, _) in &ckpt.rows {
            if tid.version() > max_tid.version() {
                max_tid = *tid;
            }
        }
    }

    // Every check passed: only now may recovery change the directory.
    checkpoint::clean_orphans_for_recovery(dir)?;

    // Compact: rewrite the kept tail into a single compacted segment, fsync
    // it, then retire the scanned segments under the shared retention
    // policy.
    if !scanned.is_empty() {
        let compacted = segment_name(usize::MAX, max_generation + 1);
        let mut out = Vec::new();
        codec::encode_header(&mut out, u32::MAX, max_generation + 1);
        for (tid, records) in &batches {
            codec::encode_batch(&mut out, *tid, records);
        }
        // The rename is durable before the sources are unlinked: if power
        // fails between the two, the worst case is a duplicate replay
        // (idempotent, records are keyed by TID), never a lost prefix.
        replace_file(dir, "compact.tmp", &compacted, &out)?;
        let delete: Vec<PathBuf> = scanned
            .iter()
            .filter(|p| !truncated.contains(p))
            .cloned()
            .collect();
        retire_segments(dir, &delete, &truncated)?;
    }

    Ok(RecoveredLog {
        checkpoint: recovered_checkpoint,
        batches,
        max_tid,
        max_epoch_seen,
        durable_epoch,
        truncated_segments: truncated.len(),
        log_bytes_scanned,
    })
}

/// Replays a recovered checkpoint plus log tail through `replay_one`
/// across up to `workers` threads, partitioned by reactor. Returns the
/// number of workers actually used.
///
/// The partitioning is what makes the concurrency safe *and* the result
/// deterministic: a reactor's state lives in its own tables, records for
/// the same reactor always land in the same lane (checkpoint rows first,
/// then tail records in the caller's TID order), and TID-idempotent replay
/// resolves the fuzzy checkpoint/tail overlap within the lane exactly as a
/// serial replay would. Records of *different* reactors never touch the
/// same row, so lanes proceed independently; the recovered state is
/// byte-identical for any worker count.
pub fn replay_partitioned<F>(
    checkpoint_rows: &[(TidWord, RedoRecord)],
    batches: &[(TidWord, Vec<RedoRecord>)],
    workers: usize,
    replay_one: F,
) -> usize
where
    F: Fn(TidWord, &RedoRecord) + Sync,
{
    let total = checkpoint_rows.len() + batches.len();
    let workers = workers.max(1).min(total.max(1));
    if workers == 1 {
        for (tid, record) in checkpoint_rows {
            replay_one(*tid, record);
        }
        for (tid, records) in batches {
            for record in records {
                replay_one(*tid, record);
            }
        }
        return 1;
    }
    let mut lanes: Vec<Vec<(TidWord, &RedoRecord)>> = vec![Vec::new(); workers];
    for (tid, record) in checkpoint_rows {
        lanes[record.reactor.index() % workers].push((*tid, record));
    }
    for (tid, records) in batches {
        for record in records {
            lanes[record.reactor.index() % workers].push((*tid, record));
        }
    }
    par_map(&lanes, workers, |_, lane| {
        for (tid, record) in lane {
            replay_one(*tid, record);
        }
    });
    workers
}

// ---------------------------------------------------------------------------
// Segment and marker files
// ---------------------------------------------------------------------------

/// Makes renames and unlinks inside `dir` durable by fsyncing the directory
/// itself (file-content fsyncs do not cover directory metadata). Opening a
/// directory handle can fail on exotic platforms; that is treated as "no
/// directory sync available" rather than an error.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    match fs::File::open(dir) {
        Ok(handle) => handle.sync_all(),
        Err(_) => Ok(()),
    }
}

/// `f` over every item on up to `workers` scoped threads (item `i` runs on
/// thread `i % workers`), with the results in item order whatever the
/// fan-out.
pub(crate) fn par_map<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let workers = workers.max(1).min(items.len().max(1));
    let mut lanes: Vec<std::vec::IntoIter<R>> = std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    let lane = (w..items.len()).step_by(workers);
                    lane.map(|i| f(i, &items[i])).collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked").into_iter())
            .collect()
    });
    (0..items.len())
        .map(|i| lanes[i % workers].next().expect("one result per item"))
        .collect()
}

fn segment_name(executor: usize, generation: u32) -> String {
    if executor == usize::MAX {
        format!("wal-compact-g{generation:06}.log")
    } else {
        format!("wal-e{executor:04}-g{generation:06}.log")
    }
}

fn parse_generation(path: &Path) -> Option<u32> {
    let name = path.file_name()?.to_str()?;
    let g = name.rfind("-g")?;
    name[g + 2..].strip_suffix(".log")?.parse().ok()
}

fn next_generation(dir: &Path) -> io::Result<u32> {
    let mut max = 0u32;
    if dir.exists() {
        for entry in fs::read_dir(dir)? {
            if let Some(generation) = parse_generation(&entry?.path()) {
                max = max.max(generation);
            }
        }
    }
    Ok(max + 1)
}

/// Reads the durable-epoch marker: `None` when absent (nothing was ever
/// synced), an `InvalidData` error naming the file when it fails its
/// length, magic or checksum check.
fn read_marker(dir: &Path) -> io::Result<Option<u64>> {
    let path = dir.join(MARKER_FILE);
    let bytes = match fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut r = Reader::new(&bytes);
    let (epoch, crc) = match (r.take(MARKER_MAGIC.len()), r.u64(), r.u32(), r.finish()) {
        (Ok(magic), Ok(epoch), Ok(crc), Ok(())) if magic == MARKER_MAGIC => (epoch, crc),
        _ => return Err(damaged(&path, "not a durable-epoch marker")),
    };
    if crc32(&epoch.to_le_bytes()) != crc {
        return Err(damaged(&path, "checksum mismatch"));
    }
    Ok(Some(epoch))
}

/// The error for an installed file that fails its checks: `InvalidData`,
/// naming the file.
pub(crate) fn damaged(path: &Path, what: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {what}", path.display()),
    )
}

/// Atomically replaces the durable-epoch marker.
fn write_marker(dir: &Path, epoch: u64) -> io::Result<()> {
    let mut bytes = Vec::with_capacity(20);
    bytes.extend_from_slice(&MARKER_MAGIC);
    put_u64(&mut bytes, epoch);
    put_u32(&mut bytes, crc32(&epoch.to_le_bytes()));
    replace_file(dir, "durable_epoch.tmp", MARKER_FILE, &bytes)
}

/// Installs `bytes` as `dir/dest` so that a crash leaves either the old
/// file or the new one, whole: write `dir/tmp`, fsync it, rename it over
/// `dest`, fsync the directory.
pub(crate) fn replace_file(dir: &Path, tmp: &str, dest: &str, bytes: &[u8]) -> io::Result<()> {
    let tmp = dir.join(tmp);
    fs::write(&tmp, bytes)?;
    fs::File::open(&tmp)?.sync_data()?;
    fs::rename(&tmp, dir.join(dest))?;
    sync_dir(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reactdb_common::{ContainerId, Key, ReactorId, Value};
    use reactdb_storage::Tuple;
    use reactdb_txn::LogSink;

    /// A fresh directory unique to this test thread.
    pub(crate) fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "reactdb-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn record(reactor: u64, key: i64, value: f64) -> RedoRecord {
        RedoRecord {
            container: ContainerId(0),
            reactor: ReactorId(reactor),
            relation: "savings".into(),
            key: Key::Int(key),
            payload: reactdb_txn::RedoPayload::Full(Tuple::of([
                Value::Int(key),
                Value::Float(value),
            ])),
        }
    }

    fn registry() -> Arc<Metrics> {
        Arc::new(Metrics::new(2, &reactdb_common::TracingConfig::off()))
    }

    fn open_counted(dir: &Path, epoch: &Arc<EpochManager>, metrics: &Arc<Metrics>) -> Arc<Wal> {
        let config = DurabilityConfig::epoch_sync(dir.to_string_lossy()).with_interval_ms(0);
        Wal::open(&config, 2, Arc::clone(epoch), Arc::clone(metrics))
            .unwrap()
            .unwrap()
    }

    fn open(dir: &Path, epoch: &Arc<EpochManager>) -> Arc<Wal> {
        open_counted(dir, epoch, &registry())
    }

    #[test]
    fn off_mode_opens_nothing() {
        let epoch = Arc::new(EpochManager::new());
        assert!(Wal::open(&DurabilityConfig::off(), 2, epoch, registry())
            .unwrap()
            .is_none());
    }

    #[test]
    fn epoch_sync_recovers_only_fenced_epochs() {
        let dir = temp_dir("fence");
        let epoch = Arc::new(EpochManager::new());
        let wal = open(&dir, &epoch);

        // Epoch 1: two commits, then the epoch advances and we group-commit.
        wal.writer(0)
            .log_commit(TidWord::committed(1, 1), &[record(0, 1, 10.0)]);
        wal.writer(1)
            .log_commit(TidWord::committed(1, 2), &[record(1, 2, 20.0)]);
        epoch.advance();
        let durable = wal.sync().unwrap();
        assert_eq!(durable, 1);
        assert_eq!(wal.durable_epoch(), 1);

        // Epoch 2: a commit that is never synced — lost by the crash.
        wal.writer(0)
            .log_commit(TidWord::committed(2, 1), &[record(0, 1, 99.0)]);
        drop(wal); // crash: no shutdown flush

        let recovered = recover_and_compact(&dir).unwrap();
        assert_eq!(recovered.durable_epoch, 1);
        assert_eq!(recovered.batches.len(), 2);
        assert_eq!(recovered.max_tid, TidWord::committed(1, 2));
        assert!(recovered
            .batches
            .windows(2)
            .all(|w| w[0].0.version() < w[1].0.version()));
        // The unsynced epoch-2 record never reached the OS (it was only in
        // the writer buffer), so even max_epoch_seen is 1 here.
        assert_eq!(recovered.max_epoch_seen, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn discarded_frames_do_not_resurrect_after_compaction() {
        let dir = temp_dir("resurrect");
        let epoch = Arc::new(EpochManager::new());
        let wal = open(&dir, &epoch);
        wal.writer(0)
            .log_commit(TidWord::committed(1, 1), &[record(0, 1, 10.0)]);
        epoch.advance(); // now 2
        wal.sync().unwrap(); // durable = 1
        wal.writer(0)
            .log_commit(TidWord::committed(2, 1), &[record(0, 1, 50.0)]);
        // The epoch-2 frame reaches the file, but its epoch is never
        // fenced: it must be discarded by recovery.
        wal.writer(0).flush().unwrap();
        drop(wal);

        let first = recover_and_compact(&dir).unwrap();
        assert_eq!(first.batches.len(), 1);
        assert_eq!(
            first.max_epoch_seen, 2,
            "discarded frame's epoch is observed"
        );

        // A later instance syncs past epoch 2; the discarded frame must not
        // reappear because compaction removed its segment.
        let epoch2 = Arc::new(EpochManager::new());
        epoch2.advance_to(5);
        let wal2 = open(&dir, &epoch2);
        wal2.writer(0)
            .log_commit(TidWord::committed(5, 1), &[record(0, 9, 1.0)]);
        epoch2.advance();
        wal2.sync().unwrap(); // durable = 5 > 2
        drop(wal2);

        let second = recover_and_compact(&dir).unwrap();
        assert_eq!(second.batches.len(), 2);
        assert!(
            second
                .batches
                .iter()
                .flat_map(|(_, rs)| rs.iter())
                .all(|r| r.image().map(|t| t.at(1).as_float()) != Some(50.0)),
            "discarded epoch-2 write resurfaced"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shutdown_flush_covers_the_last_epoch() {
        let dir = temp_dir("shutdown");
        let epoch = Arc::new(EpochManager::new());
        let wal = open(&dir, &epoch);
        wal.writer(0)
            .log_commit(TidWord::committed(1, 1), &[record(0, 1, 10.0)]);
        wal.shutdown(true);
        let recovered = recover_and_compact(&dir).unwrap();
        assert_eq!(
            recovered.batches.len(),
            1,
            "clean shutdown persists everything"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn log_dir_state_detection() {
        let dir = temp_dir("state");
        assert!(!log_dir_has_state(&dir).unwrap());
        assert!(!log_dir_has_state(&dir.join("missing")).unwrap());
        let epoch = Arc::new(EpochManager::new());
        let wal = open(&dir, &epoch);
        drop(wal);
        assert!(log_dir_has_state(&dir).unwrap(), "segments count as state");
        for entry in fs::read_dir(&dir).unwrap() {
            let _ = fs::remove_file(entry.unwrap().path());
        }
        write_marker(&dir, 3).unwrap();
        assert!(
            log_dir_has_state(&dir).unwrap(),
            "marker alone counts as state"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_group_commit_is_counted() {
        let dir = temp_dir("sync-failure");
        let epoch = Arc::new(EpochManager::new());
        let metrics = registry();
        let wal = open_counted(&dir, &epoch, &metrics);
        wal.writer(0)
            .log_commit(TidWord::committed(1, 1), &[record(0, 1, 1.0)]);
        epoch.advance();
        // Deleting the directory makes the marker's temp-file write fail;
        // the error must surface *and* be counted.
        fs::remove_dir_all(&dir).unwrap();
        assert!(wal.sync().is_err());
        assert_eq!(metrics.get(Count::LogSyncFailures), 1);
        assert_eq!(
            wal.durable_epoch(),
            0,
            "durable epoch must not advance on failure"
        );
    }

    #[test]
    fn log_dir_lock_is_exclusive_while_wal_lives() {
        let dir = temp_dir("lock");
        let epoch = Arc::new(EpochManager::new());
        let wal = open(&dir, &epoch);
        // A second instance — same process or another — must be refused
        // while the first is alive.
        let config = DurabilityConfig::epoch_sync(dir.to_string_lossy()).with_interval_ms(0);
        assert!(
            Wal::open(&config, 1, Arc::clone(&epoch), registry()).is_err(),
            "second live WAL in one directory must be refused"
        );
        assert!(LogDirLock::acquire(&dir).is_err());
        drop(wal);
        // The lock dies with the instance: reopening afterwards succeeds.
        let wal2 = Wal::open(&config, 1, Arc::clone(&epoch), registry())
            .unwrap()
            .unwrap();
        drop(wal2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lock_file_does_not_count_as_wal_state() {
        let dir = temp_dir("lock-state");
        let lock = LogDirLock::acquire(&dir).unwrap();
        assert!(
            !log_dir_has_state(&dir).unwrap(),
            "LOCK alone is not WAL state"
        );
        drop(lock);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wait_durable_demands_a_group_commit_from_the_sync_thread() {
        let dir = temp_dir("wait-demand");
        let epoch = Arc::new(EpochManager::new());
        let metrics = registry();
        let wal = open_counted(&dir, &epoch, &metrics);
        wal.writer(0)
            .log_commit(TidWord::committed(1, 1), &[record(0, 1, 10.0)]);
        // Interval 0: nothing syncs unasked...
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(wal.durable_epoch(), 0);
        assert_eq!(metrics.get(Count::LogSyncs), 0);
        // ...until a waiter demands the epoch: the sync thread runs one
        // group commit for it.
        let durable = wal.wait_durable(1).unwrap();
        assert!(durable >= 1);
        assert_eq!(metrics.get(Count::LogSyncs), 1);
        assert_eq!(metrics.get(Count::DurableWaits), 1);
        // Already-covered epochs return immediately and are not counted.
        wal.wait_durable(1).unwrap();
        assert_eq!(metrics.get(Count::DurableWaits), 1);
        assert_eq!(metrics.get(Count::LogSyncs), 1);
        drop(wal);
        let recovered = recover_and_compact(&dir).unwrap();
        assert_eq!(
            recovered.batches.len(),
            1,
            "the awaited commit is on disk despite the crash-style drop"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_demanded_group_commit_fails_the_waiter_and_the_next_wait_succeeds() {
        let dir = temp_dir("wait-fail");
        let scope = dir.file_name().unwrap().to_str().unwrap().to_string();
        let epoch = Arc::new(EpochManager::new());
        let metrics = registry();
        let wal = open_counted(&dir, &epoch, &metrics);
        wal.writer(0)
            .log_commit(TidWord::committed(1, 1), &[record(0, 1, 10.0)]);
        failpoint::arm(&format!("wal-sync@{scope}=err:1")).unwrap();
        assert!(wal.wait_durable(1).is_err(), "a failed commit is no ack");
        assert_eq!(metrics.get(Count::LogSyncFailures), 1);
        assert_eq!(wal.durable_epoch(), 0);
        let durable = wal.wait_durable(1).unwrap();
        assert!(durable >= 1);
        assert_eq!(metrics.get(Count::LogSyncFailures), 1);
        drop(wal);
        let recovered = recover_and_compact(&dir).unwrap();
        assert_eq!(recovered.batches.len(), 1, "recovery finds the commit");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_interval_syncs_a_moving_epoch_without_demand() {
        let dir = temp_dir("interval");
        let epoch = Arc::new(EpochManager::new());
        let config = DurabilityConfig::epoch_sync(dir.to_string_lossy()).with_interval_ms(2);
        let wal = Wal::open(&config, 2, Arc::clone(&epoch), registry())
            .unwrap()
            .unwrap();
        wal.writer(0)
            .log_commit(TidWord::committed(1, 1), &[record(0, 1, 1.0)]);
        epoch.advance();
        let deadline = Instant::now() + Duration::from_secs(5);
        while wal.durable_epoch() < 1 {
            assert!(Instant::now() < deadline, "no timed group commit");
            std::thread::sleep(Duration::from_millis(1));
        }
        wal.shutdown(true);
        drop(wal);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn marker_roundtrip_and_corruption_handling() {
        let dir = temp_dir("marker");
        assert_eq!(read_marker(&dir).unwrap(), None);
        write_marker(&dir, 17).unwrap();
        assert_eq!(read_marker(&dir).unwrap(), Some(17));
        // A damaged marker is refused, never read as "nothing synced".
        let mut flipped = fs::read(dir.join(MARKER_FILE)).unwrap();
        flipped[9] ^= 1;
        fs::write(dir.join(MARKER_FILE), &flipped).unwrap();
        let err = read_marker(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(MARKER_FILE), "{err}");
        fs::write(dir.join(MARKER_FILE), b"garbage").unwrap();
        assert_eq!(
            read_marker(&dir).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_or_missing_directory_recovers_cleanly() {
        let dir = temp_dir("empty");
        let recovered = recover_and_compact(&dir).unwrap();
        assert!(recovered.batches.is_empty());
        assert_eq!(recovered.max_tid, TidWord(0));
        let gone = dir.join("never-created");
        let recovered = recover_and_compact(&gone).unwrap();
        assert!(recovered.batches.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generations_do_not_collide_across_instances() {
        let dir = temp_dir("generations");
        let epoch = Arc::new(EpochManager::new());
        let wal1 = open(&dir, &epoch);
        wal1.writer(0)
            .log_commit(TidWord::committed(1, 1), &[record(0, 1, 1.0)]);
        wal1.shutdown(true);
        drop(wal1);
        // A second instance in the same directory must not clobber the first
        // instance's segments.
        let wal2 = open(&dir, &epoch);
        wal2.writer(0)
            .log_commit(TidWord::committed(epoch.current(), 1), &[record(0, 2, 2.0)]);
        wal2.shutdown(true);
        drop(wal2);
        let recovered = recover_and_compact(&dir).unwrap();
        assert_eq!(recovered.batches.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }
}
