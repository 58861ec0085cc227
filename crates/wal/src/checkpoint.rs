//! Background checkpointing: periodic consistent snapshots that bound
//! recovery time, SiloR-style, captured in parallel.
//!
//! Without checkpoints, recovery replays every log segment since the last
//! offline compaction, so a long-lived instance pays a restart cost
//! proportional to its whole commit history. The [`Checkpointer`] removes
//! that bound: it periodically writes an epoch-stamped snapshot of every
//! table *concurrently with live transactions* and then truncates the log
//! segments the snapshot covers, so recovery reads the newest checkpoint
//! plus only the log tail written since it.
//!
//! # Protocol
//!
//! 1. **Stable epoch** — the checkpoint reads `E_ckpt` through
//!    [`reactdb_txn::Coordinator::stable_epoch`] and drains in-flight
//!    commits via the WAL's commit gate ([`Wal::stable_snapshot_epoch`]).
//!    After the drain, every commit with TID epoch `<= E_ckpt` is fully
//!    installed and no future commit can carry such an epoch.
//! 2. **Parallel fuzzy walk** — the tables are partitioned round-robin
//!    across a pool of writer threads; each thread traverses its tables in
//!    key-range chunks under short read-sections (`Table::snapshot_chunk`),
//!    streaming every visible row with a version-stable read into its own
//!    checksummed part file (`ckpt-SSSSSS-pNN.dat`, same `RDBCKPT1` frame
//!    format, header additionally stamped with the part index). No
//!    stop-the-world: commits proceed during the walk, so captured rows may
//!    carry epochs beyond `E_ckpt` (up to the *cover epoch*, the maximum
//!    captured TID epoch across all parts).
//! 3. **Completion gate** — the checkpoint is complete only once the WAL's
//!    durable epoch covers the cover epoch (`Wal::wait_durable`): every row
//!    the snapshot captured then belongs to a durable transaction, so
//!    loading the checkpoint can never resurrect work a crash would have
//!    lost.
//! 4. **Manifest commit** — the part files are renamed into place and the
//!    manifest is atomically replaced (write temp, fsync, rename, fsync
//!    dir). The manifest commits the *entire part set* in one rename: a
//!    crash at any earlier step leaves the previous checkpoint in effect.
//! 5. **Rotation and truncation** — live writers rotate onto a fresh
//!    segment generation ([`Wal::rotate_segments`]), then every non-live
//!    segment whose records are entirely `<= E_ckpt` is deleted
//!    ([`Wal::truncate_stale_segments`], sharing the retention policy of
//!    offline compaction). A crash between manifest commit and truncation
//!    only causes re-replay of covered records, which TID-aware replay
//!    makes a no-op.
//!
//! # Recovery contract
//!
//! `recover_and_compact` loads the installed checkpoint — each part in
//! index order — and then replays only log frames with epochs in
//! `(E_ckpt, durable]`: a commit at epoch `e <= E_ckpt` was fully
//! installed before the walk began, so the walk captured its effects.
//! Consistency of the fuzzy capture is restored by TID-aware replay: a log
//! record older than the captured row it addresses is skipped, a newer one
//! wins.
//!
//! Both checkpoint files are installed only by tmp + fsync + rename, so a
//! crash cannot tear an installed copy. A manifest that fails its magic,
//! checksum or parse check, or a part it names that is missing, torn or
//! stamped differently, is therefore damage: loading fails with an error
//! that names the file. It is never read as "no checkpoint", because
//! truncation already deleted the log the checkpoint covers.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use reactdb_common::bytes::{crc32, put_str16, put_u16, put_u32, put_u64, DecodeError, Reader};
use reactdb_common::{CheckpointConfig, ContainerId, ReactorId};
use reactdb_obs::Count;
use reactdb_storage::{Table, TidWord};
use reactdb_txn::{EpochManager, RedoPayload, RedoRecord};

use crate::{codec, damaged, par_map, replace_file, sync_dir, Wal};

/// File name of the checkpoint manifest.
pub const MANIFEST_FILE: &str = "checkpoint-manifest";
/// Magic bytes opening the manifest.
const MANIFEST_MAGIC: [u8; 8] = *b"RDBCKMF2";
/// Poll period of the checkpoint daemon (it fires on epoch/byte thresholds,
/// not on this period).
const DAEMON_POLL: Duration = Duration::from_millis(2);

/// One table the checkpointer captures: where it lives in the deployment
/// plus the storage handle to walk.
#[derive(Debug, Clone)]
pub struct CheckpointTable {
    /// Container hosting the table (recorded in the captured rows so they
    /// replay like redo records).
    pub container: ContainerId,
    /// Reactor whose state the relation belongs to.
    pub reactor: ReactorId,
    /// Relation name within the reactor.
    pub relation: String,
    /// The table to walk.
    pub table: Arc<Table>,
}

/// What one completed checkpoint did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Sequence number of the checkpoint.
    pub seq: u64,
    /// Stable epoch the snapshot began at (`E_ckpt`): every commit with a
    /// TID epoch `<=` this is fully contained in the checkpoint.
    pub epoch: u64,
    /// Highest TID epoch among captured rows; the checkpoint completed only
    /// after the durable epoch covered it.
    pub cover_epoch: u64,
    /// Rows captured by this checkpoint.
    pub rows: u64,
    /// Bytes of the part files this checkpoint wrote.
    pub bytes: u64,
    /// Part files written (the parallel capture fan-out actually used).
    pub parts: u64,
    /// Log bytes reclaimed by the truncation that followed.
    pub truncated_bytes: u64,
    /// Log segments deleted by the truncation that followed.
    pub truncated_segments: u64,
}

/// One part file of a checkpoint, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Part {
    file: String,
    rows: u64,
    bytes: u64,
}

/// The manifest of the installed checkpoint: its stamps and the part files
/// that hold its rows, committed as one unit.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Manifest {
    seq: u64,
    epoch: u64,
    cover_epoch: u64,
    parts: Vec<Part>,
}

impl Manifest {
    /// Every part file the manifest names, in part order.
    fn files(&self) -> Vec<String> {
        self.parts.iter().map(|part| part.file.clone()).collect()
    }
}

/// A checkpoint as loaded by recovery.
#[derive(Debug)]
pub struct RecoveredCheckpoint {
    /// Sequence number of the checkpoint.
    pub seq: u64,
    /// Stable epoch stamp (`E_ckpt`): commits with TID epochs `<=` this are
    /// fully covered by the checkpoint, so recovery skips their log frames.
    pub epoch: u64,
    /// Highest TID epoch among the captured rows (durability of the
    /// capture was gated on this).
    pub cover_epoch: u64,
    /// The captured rows, parts in index order, each with the commit TID
    /// its image corresponds to. Replayed before the log tail via TID-aware
    /// replay.
    pub rows: Vec<(TidWord, RedoRecord)>,
    /// Total size of the part files read.
    pub bytes: u64,
    /// Part file names (relative to the log dir), used to protect them from
    /// orphan cleanup.
    pub files: Vec<String>,
}

fn part_file_name(seq: u64, part: u32) -> String {
    format!("ckpt-{seq:06}-p{part:02}.dat")
}

fn part_tmp_name(part: u32) -> String {
    format!("ckpt-p{part:02}.tmp")
}

/// Serializes and atomically installs the manifest — the checkpoint's
/// commit point.
///
/// A layer count of 1 and a delta byte of 0 precede the stamps: the
/// `RDBCKMF2` layout once chained delta layers, and keeping its bytes
/// keeps every installed manifest readable without a version bump.
fn write_manifest(dir: &Path, manifest: &Manifest) -> io::Result<()> {
    let mut payload = Vec::with_capacity(64);
    put_u16(&mut payload, 1);
    put_u64(&mut payload, manifest.seq);
    put_u64(&mut payload, manifest.epoch);
    put_u64(&mut payload, manifest.cover_epoch);
    payload.push(0);
    put_u16(&mut payload, manifest.parts.len() as u16);
    for part in &manifest.parts {
        put_str16(&mut payload, &part.file);
        put_u64(&mut payload, part.rows);
        put_u64(&mut payload, part.bytes);
    }

    let mut bytes = Vec::with_capacity(payload.len() + 12);
    bytes.extend_from_slice(&MANIFEST_MAGIC);
    put_u32(&mut bytes, crc32(&payload));
    bytes.extend_from_slice(&payload);
    replace_file(dir, "checkpoint-manifest.tmp", MANIFEST_FILE, &bytes)
}

/// Parses a manifest payload: exactly one layer, delta byte 0, and
/// nothing after its parts.
fn parse_manifest(payload: &[u8]) -> Result<Manifest, DecodeError> {
    let mut r = Reader::new(payload);
    if r.u16()? != 1 {
        return Err(DecodeError::Malformed("layer count not 1"));
    }
    let seq = r.u64()?;
    let epoch = r.u64()?;
    let cover_epoch = r.u64()?;
    if r.u8()? != 0 {
        return Err(DecodeError::Malformed("delta layer"));
    }
    let part_count = r.u16()? as usize;
    let mut parts = Vec::with_capacity(part_count);
    for _ in 0..part_count {
        parts.push(Part {
            file: r.str16()?,
            rows: r.u64()?,
            bytes: r.u64()?,
        });
    }
    r.finish()?;
    Ok(Manifest {
        seq,
        epoch,
        cover_epoch,
        parts,
    })
}

/// Reads the installed manifest: `None` when there is none, an
/// `InvalidData` error naming the file when it fails its magic, checksum
/// or parse check.
fn read_manifest(dir: &Path) -> io::Result<Option<Manifest>> {
    let path = dir.join(MANIFEST_FILE);
    let bytes = match fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut r = Reader::new(&bytes);
    let (crc, payload) = match (r.take(MANIFEST_MAGIC.len()), r.u32(), r.take(r.remaining())) {
        (Ok(magic), Ok(crc), Ok(payload)) if magic == MANIFEST_MAGIC => (crc, payload),
        _ => return Err(damaged(&path, "not a checkpoint manifest")),
    };
    if crc32(payload) != crc {
        return Err(damaged(&path, "checksum mismatch"));
    }
    parse_manifest(payload)
        .map(Some)
        .map_err(|_| damaged(&path, "not a one-layer full checkpoint manifest"))
}

/// One decoded part file: its captured rows plus its on-disk byte size.
type DecodedPart = (Vec<(TidWord, RedoRecord)>, u64);

/// One part file's decoded rows. A part the manifest names but the
/// directory lacks is a `NotFound` error, and one that is torn, fails a
/// checksum or disagrees with the manifest is `InvalidData`; both name
/// the file.
fn decode_part(
    dir: &Path,
    manifest: &Manifest,
    part_idx: u32,
    part: &Part,
) -> io::Result<DecodedPart> {
    let path = dir.join(&part.file);
    let data = fs::read(&path).map_err(|e| match e.kind() {
        io::ErrorKind::NotFound => io::Error::new(
            e.kind(),
            format!(
                "{}: named by the checkpoint manifest but missing",
                path.display()
            ),
        ),
        _ => e,
    })?;
    let Some(scan) = codec::decode_checkpoint(&data) else {
        return Err(damaged(&path, "not a checkpoint part"));
    };
    if let Some(at) = scan.scan.undecodable_at {
        return Err(damaged(
            &path,
            format!("frame at byte {at} does not decode"),
        ));
    }
    if data.len() as u64 != part.bytes {
        return Err(damaged(
            &path,
            format!(
                "holds {} bytes, the manifest says {}",
                data.len(),
                part.bytes
            ),
        ));
    }
    if scan.scan.truncated_tail {
        return Err(damaged(&path, "a frame is torn or fails its checksum"));
    }
    if (scan.seq, scan.epoch, scan.part) != (manifest.seq, manifest.epoch, part_idx) {
        return Err(damaged(
            &path,
            format!(
                "stamped (seq, epoch, part) = ({}, {}, {}), the manifest says ({}, {}, {part_idx})",
                scan.seq, scan.epoch, scan.part, manifest.seq, manifest.epoch
            ),
        ));
    }
    let mut rows = Vec::with_capacity(scan.scan.batches.len());
    for (tid, records) in scan.scan.batches {
        // One captured row per frame by construction.
        let [record] = <[RedoRecord; 1]>::try_from(records)
            .map_err(|_| damaged(&path, "a frame holds other than one row"))?;
        rows.push((tid, record));
    }
    if rows.len() as u64 != part.rows {
        return Err(damaged(
            &path,
            format!("holds {} rows, the manifest says {}", rows.len(), part.rows),
        ));
    }
    Ok((rows, data.len() as u64))
}

/// Loads the installed checkpoint for recovery, decoding part files across
/// up to `workers` threads (the result is deterministic: parts are
/// reassembled in index order regardless of the fan-out). Returns `None`
/// when no manifest is installed, or when the durable epoch does not cover
/// the fuzzy capture (possible only if the durable-epoch marker itself was
/// lost: the completion gate orders the marker advance before the manifest
/// commit). A damaged manifest or part is an error naming the file.
///
/// Public beyond recovery because a replication follower boots the same
/// way: the primary ships its checkpoint files raw, and the follower loads
/// the staged checkpoint with the shipped durable epoch before tailing the
/// log.
pub fn load_checkpoint(
    dir: &Path,
    durable_epoch: u64,
    workers: usize,
) -> io::Result<Option<RecoveredCheckpoint>> {
    let Some(manifest) = read_manifest(dir)? else {
        return Ok(None);
    };
    if durable_epoch < manifest.cover_epoch {
        return Ok(None);
    }
    let decoded = par_map(&manifest.parts, workers, |i, part| {
        decode_part(dir, &manifest, i as u32, part)
    });
    let mut rows = Vec::new();
    let mut bytes = 0u64;
    for part in decoded {
        let (part_rows, part_bytes) = part?;
        rows.extend(part_rows);
        bytes += part_bytes;
    }
    Ok(Some(RecoveredCheckpoint {
        seq: manifest.seq,
        epoch: manifest.epoch,
        cover_epoch: manifest.cover_epoch,
        rows,
        bytes,
        files: manifest.files(),
    }))
}

/// Recovery-time orphan cleanup, run only once every recovery check has
/// passed: deletes checkpoint debris and keeps every part the installed
/// manifest names, even when the load skipped the checkpoint (an
/// uncovered capture), since those parts may be the only copy of
/// already-truncated history.
pub(crate) fn clean_orphans_for_recovery(dir: &Path) -> io::Result<()> {
    let keep = read_manifest(dir)?
        .as_ref()
        .map(Manifest::files)
        .unwrap_or_default();
    clean_orphans(dir, &keep)
}

/// Deletes checkpoint debris a crash may have left behind: part files not
/// referenced by the installed manifest (superseded or never committed) and
/// stale temp files. `keep` names the installed checkpoint's part files.
pub(crate) fn clean_orphans(dir: &Path, keep: &[String]) -> io::Result<()> {
    if !dir.exists() {
        return Ok(());
    }
    let mut removed = false;
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let orphan_data =
            name.starts_with("ckpt-") && name.ends_with(".dat") && !keep.iter().any(|k| k == name);
        let stale_tmp = (name.starts_with("ckpt") && name.ends_with(".tmp"))
            || name == "checkpoint-manifest.tmp";
        if orphan_data || stale_tmp {
            let _ = fs::remove_file(&path);
            removed = true;
        }
    }
    if removed {
        sync_dir(dir)?;
    }
    Ok(())
}

/// What one part writer produced.
struct PartOutcome {
    rows: u64,
    bytes: u64,
    cover_epoch: u64,
}

/// The background checkpointer of one database instance. Also serves
/// explicit `checkpoint_now` requests; executions are serialized, so the
/// daemon and manual calls never interleave.
pub struct Checkpointer {
    wal: Arc<Wal>,
    tables: Vec<CheckpointTable>,
    config: CheckpointConfig,
    /// Next checkpoint sequence number; consumed per attempt, success or
    /// not (see `run_once`).
    next_seq: Mutex<u64>,
    /// Serializes checkpoint executions (daemon vs. explicit calls).
    run_lock: Mutex<()>,
    stop: AtomicBool,
    daemon: Mutex<Option<JoinHandle<()>>>,
}

impl Checkpointer {
    /// Creates a checkpointer over the given tables. The next sequence
    /// number continues from the installed manifest, so checkpoint files
    /// never collide across instance lifetimes.
    pub fn new(
        wal: Arc<Wal>,
        tables: Vec<CheckpointTable>,
        config: CheckpointConfig,
    ) -> io::Result<Arc<Self>> {
        let next_seq = read_manifest(wal.dir())?.map_or(1, |m| m.seq + 1);
        Ok(Arc::new(Self {
            wal,
            tables,
            config,
            next_seq: Mutex::new(next_seq),
            run_lock: Mutex::new(()),
            stop: AtomicBool::new(false),
            daemon: Mutex::new(None),
        }))
    }

    /// Takes one checkpoint now, returning what it did. On error the
    /// previous checkpoint (if any) remains in effect and the failure is
    /// counted.
    pub fn checkpoint_now(&self) -> io::Result<CheckpointReport> {
        let result = self.run_once();
        if result.is_err() {
            self.wal.metrics().add(Count::CheckpointFailures, 1);
        }
        result
    }

    /// Writes part `part` of checkpoint `seq`: walks each assigned table,
    /// appending one frame per captured row to the part's temp file, and
    /// fsyncs it.
    fn write_part(
        &self,
        dir: &Path,
        seq: u64,
        epoch: u64,
        part: u32,
        tables: &[&CheckpointTable],
    ) -> io::Result<PartOutcome> {
        let obs = self.wal.obs();
        let part_started = obs.map(|_| std::time::Instant::now());
        let tmp = dir.join(part_tmp_name(part));
        let mut file = fs::File::create(&tmp)?;
        let mut header = Vec::with_capacity(28);
        codec::encode_checkpoint_header(&mut header, seq, epoch, part);
        file.write_all(&header)?;
        let mut bytes = header.len() as u64;
        let mut rows = 0u64;
        let mut cover_epoch = epoch;
        let mut buf = Vec::new();
        let chunk_size = self.config.chunk_size.max(1);
        let mut flush_chunk = |buf: &mut Vec<u8>,
                               file: &mut fs::File,
                               started: Option<std::time::Instant>|
         -> io::Result<()> {
            file.write_all(buf)?;
            bytes += buf.len() as u64;
            buf.clear();
            if let (Some(m), Some(started)) = (obs, started) {
                use reactdb_obs::{Phase, TraceKind};
                let ns = m.record_elapsed(Phase::CheckpointChunk, usize::MAX, started);
                m.trace(usize::MAX, 0, TraceKind::CheckpointChunk, ns);
            }
            Ok(())
        };
        for entry in tables {
            let mut cursor = None;
            loop {
                let chunk_started = obs.map(|_| std::time::Instant::now());
                let chunk = entry.table.snapshot_chunk(cursor.as_ref(), chunk_size);
                for (key, tid, image) in chunk.rows {
                    cover_epoch = cover_epoch.max(tid.epoch());
                    rows += 1;
                    codec::encode_batch(
                        &mut buf,
                        tid,
                        &[RedoRecord {
                            container: entry.container,
                            reactor: entry.reactor,
                            relation: entry.relation.clone(),
                            key,
                            payload: RedoPayload::Full(image),
                        }],
                    );
                }
                flush_chunk(&mut buf, &mut file, chunk_started)?;
                match chunk.next {
                    Some(next) => cursor = Some(next),
                    None => break,
                }
            }
        }
        file.sync_data()?;
        drop(file);
        if let (Some(m), Some(started)) = (obs, part_started) {
            use reactdb_obs::Phase;
            m.record_elapsed(Phase::CkptPartWrite, usize::MAX, started);
        }
        Ok(PartOutcome {
            rows,
            bytes,
            cover_epoch,
        })
    }

    fn run_once(&self) -> io::Result<CheckpointReport> {
        let _serial = self.run_lock.lock();
        // The sequence number is consumed even if this attempt fails: a
        // failure *after* the manifest commit (rotation or truncation)
        // must not lead a retry to reuse the seq and rename fresh data
        // over the installed checkpoint's files — the stamp mismatch would
        // invalidate the only checkpoint covering already-truncated
        // history. Gaps in the sequence are harmless.
        let seq = {
            let mut next_seq = self.next_seq.lock();
            let seq = *next_seq;
            *next_seq = seq + 1;
            seq
        };
        let dir = self.wal.dir().to_path_buf();

        // 1. Stable epoch: fence + drain (see module docs).
        let epoch = self.wal.stable_snapshot_epoch()?;

        // 2. Partition the tables round-robin across the writer pool.
        let configured = if self.config.workers > 0 {
            self.config.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        let workers = configured.min(self.tables.len());
        let mut partitions: Vec<Vec<&CheckpointTable>> = vec![Vec::new(); workers];
        for (i, table) in self.tables.iter().enumerate() {
            partitions[i % workers.max(1)].push(table);
        }

        // 3. Parallel fuzzy walk: each worker streams its tables into its
        // own part file.
        let outcomes = par_map(&partitions, workers, |w, tables| {
            self.write_part(&dir, seq, epoch, w as u32, tables)
        });
        let mut rows = 0u64;
        let mut bytes = 0u64;
        let mut cover_epoch = epoch;
        let mut parts = Vec::with_capacity(workers);
        for (w, outcome) in outcomes.into_iter().enumerate() {
            let outcome = outcome?;
            rows += outcome.rows;
            cover_epoch = cover_epoch.max(outcome.cover_epoch);
            bytes += outcome.bytes;
            parts.push(Part {
                file: part_file_name(seq, w as u32),
                rows: outcome.rows,
                bytes: outcome.bytes,
            });
        }

        // 4. Completion gate: every captured row must be durable before the
        // checkpoint may be trusted — otherwise loading it could resurrect
        // a transaction the crash lost.
        self.wal.wait_durable(cover_epoch)?;

        // 5. Commit: part files into place, then the manifest (the commit
        // point — it names every part, so one rename commits them all),
        // then retire superseded files.
        for w in 0..workers {
            fs::rename(
                dir.join(part_tmp_name(w as u32)),
                dir.join(part_file_name(seq, w as u32)),
            )?;
        }
        sync_dir(&dir)?;
        let manifest = Manifest {
            seq,
            epoch,
            cover_epoch,
            parts,
        };
        write_manifest(&dir, &manifest)?;
        clean_orphans(&dir, &manifest.files())?;

        // 6. Rotate live writers onto a fresh generation, then truncate
        // every segment the checkpoint fully covers.
        self.wal.rotate_segments()?;
        let (truncated_bytes, truncated_segments) = self.wal.truncate_stale_segments(epoch)?;

        let metrics = self.wal.metrics();
        metrics.add(Count::CheckpointsTaken, 1);
        metrics.add(Count::CheckpointBytes, bytes);
        Ok(CheckpointReport {
            seq,
            epoch,
            cover_epoch,
            rows,
            bytes,
            parts: workers as u64,
            truncated_bytes,
            truncated_segments,
        })
    }

    /// Starts the background daemon. Two independent triggers arm it: the
    /// global epoch advancing `interval_epochs` beyond the last
    /// checkpoint's stamp, and `max_log_bytes` of redo having been logged
    /// since the last checkpoint (so log-heavy workloads checkpoint by
    /// volume, not wall clock). With both knobs zero there is no daemon
    /// (explicit [`Checkpointer::checkpoint_now`] calls only).
    pub fn start_daemon(self: &Arc<Self>, epoch: Arc<EpochManager>) {
        let interval = self.config.interval_epochs;
        let max_bytes = self.config.max_log_bytes;
        if interval == 0 && max_bytes == 0 {
            return;
        }
        let ckpt = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("reactdb-checkpoint".into())
            .spawn(move || {
                let mut last_epoch = epoch.current();
                let mut last_bytes = ckpt.wal.metrics().get(Count::LogBytes);
                while !ckpt.stop.load(Ordering::Acquire) {
                    std::thread::sleep(DAEMON_POLL);
                    let current = epoch.current();
                    let logged = ckpt.wal.metrics().get(Count::LogBytes);
                    let epoch_due = interval > 0 && current >= last_epoch.saturating_add(interval);
                    let bytes_due = max_bytes > 0 && logged.saturating_sub(last_bytes) >= max_bytes;
                    if !epoch_due && !bytes_due {
                        continue;
                    }
                    // Errors leave the previous checkpoint in effect; back
                    // off a full interval so a persistently failing disk is
                    // not hammered.
                    match ckpt.checkpoint_now() {
                        Ok(report) => {
                            last_epoch = report.cover_epoch.max(current);
                            last_bytes = ckpt.wal.metrics().get(Count::LogBytes);
                        }
                        Err(_) => {
                            last_epoch = current;
                            last_bytes = logged;
                        }
                    }
                }
            })
            .expect("spawn checkpoint daemon");
        *self.daemon.lock() = Some(handle);
    }

    /// Stops the daemon and waits for any in-flight checkpoint to finish.
    /// Called by the engine before the WAL shuts down.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.daemon.lock().take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Checkpointer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpointer")
            .field("tables", &self.tables.len())
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recover_and_compact;
    use crate::tests::temp_dir;

    fn manifest(seq: u64, epoch: u64, cover_epoch: u64, files: &[(&str, u64, u64)]) -> Manifest {
        Manifest {
            seq,
            epoch,
            cover_epoch,
            parts: files
                .iter()
                .map(|(file, rows, bytes)| Part {
                    file: (*file).into(),
                    rows: *rows,
                    bytes: *bytes,
                })
                .collect(),
        }
    }

    /// Installs `payload` as the manifest under a valid magic and checksum.
    fn install_raw_manifest(dir: &Path, payload: &[u8]) {
        let mut bytes = MANIFEST_MAGIC.to_vec();
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        fs::write(dir.join(MANIFEST_FILE), bytes).unwrap();
    }

    fn refused(result: io::Result<impl std::fmt::Debug>, kind: io::ErrorKind, file: &str) {
        let err = result.expect_err("damage must be refused");
        assert_eq!(err.kind(), kind, "{err}");
        assert!(err.to_string().contains(file), "{err} names {file}");
    }

    #[test]
    fn manifest_roundtrip_and_damage_is_refused() {
        let dir = temp_dir("manifest");
        assert_eq!(read_manifest(&dir).unwrap(), None, "absent means absent");
        let installed = manifest(
            4,
            17,
            19,
            &[
                ("ckpt-000004-p00.dat", 600, 50_000),
                ("ckpt-000004-p01.dat", 634, 49_000),
            ],
        );
        write_manifest(&dir, &installed).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), Some(installed.clone()));
        assert_eq!(installed.files().len(), 2);
        // A flipped byte fails the checksum; a short file fails the magic.
        let mut bytes = fs::read(dir.join(MANIFEST_FILE)).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(dir.join(MANIFEST_FILE), &bytes).unwrap();
        refused(
            read_manifest(&dir),
            io::ErrorKind::InvalidData,
            MANIFEST_FILE,
        );
        fs::write(dir.join(MANIFEST_FILE), b"short").unwrap();
        refused(
            read_manifest(&dir),
            io::ErrorKind::InvalidData,
            MANIFEST_FILE,
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_parser_accepts_one_full_layer_only() {
        let dir = temp_dir("manifest-shape");
        let layer = |delta: u8| {
            let mut layer = Vec::new();
            for stamp in [3u64, 9, 9] {
                layer.extend_from_slice(&stamp.to_le_bytes());
            }
            layer.push(delta);
            layer.extend_from_slice(&0u16.to_le_bytes());
            layer
        };
        let with_count = |count: u16, layers: &[Vec<u8>]| {
            let mut payload = count.to_le_bytes().to_vec();
            for layer in layers {
                payload.extend_from_slice(layer);
            }
            payload
        };
        install_raw_manifest(&dir, &with_count(1, &[layer(0)]));
        assert_eq!(read_manifest(&dir).unwrap(), Some(manifest(3, 9, 9, &[])));
        // No layer, two layers, a delta layer, or trailing bytes: refused.
        for payload in [
            with_count(0, &[]),
            with_count(2, &[layer(0), layer(1)]),
            with_count(1, &[layer(1)]),
            [with_count(1, &[layer(0)]), vec![0]].concat(),
        ] {
            install_raw_manifest(&dir, &payload);
            refused(
                read_manifest(&dir),
                io::ErrorKind::InvalidData,
                MANIFEST_FILE,
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_load_refuses_missing_torn_or_misstamped_parts() {
        let dir = temp_dir("incomplete");
        let part = "ckpt-000002-p00.dat";
        // No manifest: nothing to load, even with a data file present.
        fs::write(dir.join(part), b"whatever").unwrap();
        assert!(load_checkpoint(&dir, u64::MAX, 2).unwrap().is_none());
        fs::remove_file(dir.join(part)).unwrap();
        // Manifest naming a missing part file.
        write_manifest(&dir, &manifest(2, 5, 6, &[(part, 0, 28)])).unwrap();
        refused(
            load_checkpoint(&dir, u64::MAX, 2),
            io::ErrorKind::NotFound,
            part,
        );
        // A valid empty part file loads...
        let mut data = Vec::new();
        codec::encode_checkpoint_header(&mut data, 2, 5, 0);
        fs::write(dir.join(part), &data).unwrap();
        let loaded = load_checkpoint(&dir, u64::MAX, 2)
            .unwrap()
            .expect("complete");
        assert_eq!(loaded.epoch, 5);
        assert!(loaded.rows.is_empty());
        // ...but not when the durable marker fails to cover the capture.
        assert!(load_checkpoint(&dir, 5, 2).unwrap().is_none());
        // A part whose stamp disagrees with the manifest is refused —
        // wrong epoch, and separately wrong part index — and so is one
        // whose length disagrees.
        for (seq, epoch, index) in [(2, 4, 0), (2, 5, 1)] {
            let mut wrong = Vec::new();
            codec::encode_checkpoint_header(&mut wrong, seq, epoch, index);
            fs::write(dir.join(part), &wrong).unwrap();
            refused(
                load_checkpoint(&dir, u64::MAX, 2),
                io::ErrorKind::InvalidData,
                part,
            );
        }
        data.push(0);
        fs::write(dir.join(part), &data).unwrap();
        refused(
            load_checkpoint(&dir, u64::MAX, 2),
            io::ErrorKind::InvalidData,
            part,
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncates_covered_segments_and_bounds_recovery_to_the_tail() {
        use reactdb_common::{DurabilityConfig, Key, Value};
        use reactdb_storage::{ColumnType, Schema, Tuple};

        let dir = temp_dir("e2e");
        let config = DurabilityConfig::epoch_sync(dir.to_string_lossy()).with_interval_ms(0);
        let epoch = Arc::new(EpochManager::new());
        let metrics = Arc::new(reactdb_obs::Metrics::new(1, &Default::default()));
        let wal = Wal::open(&config, 1, Arc::clone(&epoch), metrics)
            .unwrap()
            .unwrap();
        let schema = Schema::of(
            &[("id", ColumnType::Int), ("balance", ColumnType::Float)],
            &["id"],
        );
        let table = Arc::new(Table::new("savings", schema.clone()));
        let make_record = |key: i64, value: f64| RedoRecord {
            container: ContainerId(0),
            reactor: ReactorId(0),
            relation: "savings".into(),
            key: Key::Int(key),
            payload: reactdb_txn::RedoPayload::Full(Tuple::of([
                Value::Int(key),
                Value::Float(value),
            ])),
        };
        let mut seq = 0u64;
        let mut commit = |key: i64, value: f64| {
            seq += 1;
            let tid = TidWord::committed(epoch.current(), seq);
            let record = make_record(key, value);
            use reactdb_txn::LogSink;
            wal.writer(0).log_commit(tid, std::slice::from_ref(&record));
            table.replay(&record.key, record.image(), tid);
        };

        // A multi-epoch history: 60 commits over several synced epochs.
        for i in 0..60i64 {
            commit(i % 20, i as f64);
            if i % 10 == 9 {
                epoch.advance();
                wal.sync().unwrap();
            }
        }
        let logged_before = wal.metrics().get(Count::LogBytes);
        assert!(logged_before > 0);

        let ckpt = Checkpointer::new(
            Arc::clone(&wal),
            vec![CheckpointTable {
                container: ContainerId(0),
                reactor: ReactorId(0),
                relation: "savings".into(),
                table: Arc::clone(&table),
            }],
            CheckpointConfig::manual()
                .with_chunk_size(7)
                .with_workers(2),
        )
        .unwrap();
        let report = ckpt.checkpoint_now().unwrap();
        assert_eq!(report.seq, 1);
        assert_eq!(report.rows, 20, "20 distinct keys are visible");
        assert_eq!(report.parts, 1, "one table yields one part");
        assert!(report.cover_epoch >= report.epoch);
        assert!(
            report.truncated_segments >= 1,
            "the rotated-out history segment is entirely covered"
        );
        assert!(report.truncated_bytes > 0);
        assert_eq!(wal.metrics().get(Count::CheckpointsTaken), 1);
        assert_eq!(
            wal.metrics().get(Count::LogTruncatedBytes),
            report.truncated_bytes
        );

        // Tail: three more commits beyond the checkpoint, synced.
        for i in 0..3i64 {
            commit(100 + i, 7.0);
        }
        epoch.advance();
        wal.sync().unwrap();
        drop(wal); // crash

        let recovered = recover_and_compact(&dir).unwrap();
        let loaded = recovered.checkpoint.as_ref().expect("checkpoint installed");
        assert_eq!(loaded.rows.len(), 20);
        assert_eq!(loaded.epoch, report.epoch);
        assert_eq!(
            recovered.batches.len(),
            3,
            "only the post-checkpoint tail is replayed"
        );
        assert!(
            recovered.log_bytes_scanned < logged_before,
            "truncation keeps recovery from re-reading the full history"
        );

        // Replaying checkpoint + tail reproduces the pre-crash state.
        let replayed = Table::new("savings", schema);
        for (tid, record) in &loaded.rows {
            replayed.replay(&record.key, record.image(), *tid);
        }
        for (tid, records) in &recovered.batches {
            for record in records {
                replayed.replay(&record.key, record.image(), *tid);
            }
        }
        assert_eq!(replayed.visible_len(), table.visible_len());
        for (key, record) in table.scan() {
            let got = replayed.get(&key).expect("key recovered");
            assert_eq!(got.read_unguarded(), record.read_unguarded(), "{key:?}");
            assert_eq!(got.tid().version(), record.tid().version());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parallel_capture_splits_tables_across_part_files() {
        use reactdb_common::{DurabilityConfig, Key, Value};
        use reactdb_storage::{ColumnType, Schema, Tuple};

        let dir = temp_dir("parallel");
        let config = DurabilityConfig::epoch_sync(dir.to_string_lossy()).with_interval_ms(0);
        let epoch = Arc::new(EpochManager::new());
        let metrics = Arc::new(reactdb_obs::Metrics::new(1, &Default::default()));
        let wal = Wal::open(&config, 1, Arc::clone(&epoch), metrics)
            .unwrap()
            .unwrap();
        let schema = Schema::of(&[("id", ColumnType::Int)], &["id"]);
        let tables: Vec<CheckpointTable> = (0..4)
            .map(|r| CheckpointTable {
                container: ContainerId(0),
                reactor: ReactorId(r),
                relation: format!("rel{r}"),
                table: Arc::new(Table::new(format!("rel{r}"), schema.clone())),
            })
            .collect();
        let mut seq = 0u64;
        for entry in &tables {
            for i in 0..10i64 {
                seq += 1;
                let tid = TidWord::committed(epoch.current(), seq);
                let record = RedoRecord {
                    container: entry.container,
                    reactor: entry.reactor,
                    relation: entry.relation.clone(),
                    key: Key::Int(i),
                    payload: RedoPayload::Full(Tuple::of([Value::Int(i)])),
                };
                use reactdb_txn::LogSink;
                wal.writer(0).log_commit(tid, std::slice::from_ref(&record));
                entry.table.replay(&record.key, record.image(), tid);
            }
        }
        epoch.advance();
        wal.sync().unwrap();

        let ckpt = Checkpointer::new(
            Arc::clone(&wal),
            tables.clone(),
            CheckpointConfig::manual().with_workers(3),
        )
        .unwrap();
        let report = ckpt.checkpoint_now().unwrap();
        assert_eq!(report.parts, 3, "4 tables round-robin onto 3 workers");
        assert_eq!(report.rows, 40);
        for part in 0..3u32 {
            assert!(dir.join(part_file_name(report.seq, part)).exists());
        }
        let loaded = load_checkpoint(&dir, u64::MAX, 4)
            .unwrap()
            .expect("complete checkpoint");
        assert_eq!(loaded.rows.len(), 40);
        assert_eq!(loaded.files.len(), 3);
        // Parallel and serial decode agree byte-for-byte.
        let serial = load_checkpoint(&dir, u64::MAX, 1).unwrap().expect("serial");
        let pairs = |rows: &[(TidWord, RedoRecord)]| -> Vec<(u64, ReactorId, Key)> {
            rows.iter()
                .map(|(tid, r)| (tid.version(), r.reactor, r.key.clone()))
                .collect()
        };
        assert_eq!(pairs(&loaded.rows), pairs(&serial.rows));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_cleanup_keeps_named_parts_and_refuses_a_damaged_manifest() {
        let dir = temp_dir("evidence");
        // Cleanup keeps what the manifest names and removes the debris.
        write_manifest(&dir, &manifest(3, 8, 9, &[("ckpt-000003-p00.dat", 10, 4)])).unwrap();
        fs::write(dir.join("ckpt-000003-p00.dat"), b"kept").unwrap();
        fs::write(dir.join("ckpt-000001-p00.dat"), b"superseded").unwrap();
        fs::write(dir.join("ckpt.tmp"), b"debris").unwrap();
        fs::write(dir.join("ckpt-p01.tmp"), b"debris").unwrap();
        clean_orphans_for_recovery(&dir).unwrap();
        assert!(dir.join("ckpt-000003-p00.dat").exists());
        assert!(!dir.join("ckpt-000001-p00.dat").exists());
        assert!(!dir.join("ckpt.tmp").exists());
        assert!(!dir.join("ckpt-p01.tmp").exists());
        // Damaged manifest: the references are unknown, so cleanup refuses
        // and deletes nothing.
        fs::write(dir.join(MANIFEST_FILE), b"garbage").unwrap();
        fs::write(dir.join("ckpt-000001-p00.dat"), b"maybe evidence").unwrap();
        refused(
            clean_orphans_for_recovery(&dir),
            io::ErrorKind::InvalidData,
            MANIFEST_FILE,
        );
        assert!(dir.join("ckpt-000003-p00.dat").exists());
        assert!(dir.join("ckpt-000001-p00.dat").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_sequence_is_consumed_even_by_failed_attempts() {
        use reactdb_common::DurabilityConfig;
        let dir = temp_dir("seq-consume");
        let config = DurabilityConfig::epoch_sync(dir.to_string_lossy()).with_interval_ms(0);
        let epoch = Arc::new(EpochManager::new());
        let metrics = Arc::new(reactdb_obs::Metrics::new(1, &Default::default()));
        let wal = Wal::open(&config, 1, Arc::clone(&epoch), metrics)
            .unwrap()
            .unwrap();
        let ckpt = Checkpointer::new(
            Arc::clone(&wal),
            Vec::new(),
            CheckpointConfig::manual().with_chunk_size(4),
        )
        .unwrap();
        let first = ckpt.checkpoint_now().unwrap();
        assert_eq!(first.seq, 1);
        assert_eq!(first.parts, 0, "no tables, no part files");
        // Retire the WAL: the next attempt fails mid-protocol...
        wal.shutdown(true);
        assert!(ckpt.checkpoint_now().is_err());
        assert_eq!(wal.metrics().get(Count::CheckpointFailures), 1);
        // ...and a later attempt must NOT reuse the failed attempt's seq —
        // a retry that renamed fresh data over an installed checkpoint's
        // file would invalidate it via the stamp mismatch.
        assert_eq!(*ckpt.next_seq.lock(), 3, "seq 2 was consumed by failure");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphan_cleanup_spares_the_live_part_files() {
        let dir = temp_dir("orphans");
        fs::write(dir.join("ckpt-000001-p00.dat"), b"old").unwrap();
        fs::write(dir.join("ckpt-000002-p00.dat"), b"live part 0").unwrap();
        fs::write(dir.join("ckpt-000002-p01.dat"), b"live part 1").unwrap();
        fs::write(dir.join("ckpt.tmp"), b"torn").unwrap();
        fs::write(dir.join("ckpt-p02.tmp"), b"torn").unwrap();
        fs::write(dir.join("checkpoint-manifest.tmp"), b"torn").unwrap();
        fs::write(dir.join("unrelated.txt"), b"keep me").unwrap();
        clean_orphans(
            &dir,
            &["ckpt-000002-p00.dat".into(), "ckpt-000002-p01.dat".into()],
        )
        .unwrap();
        assert!(!dir.join("ckpt-000001-p00.dat").exists());
        assert!(dir.join("ckpt-000002-p00.dat").exists());
        assert!(dir.join("ckpt-000002-p01.dat").exists());
        assert!(!dir.join("ckpt.tmp").exists());
        assert!(!dir.join("ckpt-p02.tmp").exists());
        assert!(!dir.join("checkpoint-manifest.tmp").exists());
        assert!(dir.join("unrelated.txt").exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
