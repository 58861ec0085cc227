//! Background checkpointing: periodic consistent snapshots that bound
//! recovery time, SiloR-style — captured in parallel and, optionally,
//! incrementally.
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
//!    dir). The manifest commits the *entire part set* — and, with delta
//!    checkpoints, the entire layer chain — in one rename: a crash at any
//!    earlier step leaves the previous checkpoint in effect.
//! 5. **Rotation and truncation** — live writers rotate onto a fresh
//!    segment generation ([`Wal::rotate_segments`]), then every non-live
//!    segment whose records are entirely `<= E_ckpt` is deleted
//!    ([`Wal::truncate_stale_segments`], sharing the retention policy of
//!    offline compaction). A crash between manifest commit and truncation
//!    only causes re-replay of covered records, which TID-aware replay
//!    makes a no-op.
//!
//! # Delta checkpoints
//!
//! With `CheckpointConfig::full_every >= 2`, a checkpoint captures only the
//! rows *dirty since the last completed checkpoint* (tracked per log writer
//! by [`crate::LogWriter`], including deletes — a tombstone row ends the
//! key in the delta layer, or recovery would resurrect it from the full
//! root). The manifest then records a *chain* of layers: one full root
//! followed by up to `full_every - 1` deltas, after which the next capture
//! is full again and restarts the chain. Dirty-set clearing is
//! epoch-stamped: after a checkpoint whose stable epoch is `E`, only
//! entries last dirtied at `<= E` are dropped — the drain guarantees their
//! captured image is current, while keys re-dirtied during the fuzzy walk
//! carry a higher epoch and stay for the next delta. The first checkpoint
//! of every instance lifetime is forced full: commits replayed by recovery
//! predate dirty tracking, and a first-delta would lose them once the log
//! is truncated.
//!
//! # Recovery contract
//!
//! `recover_and_compact` loads the newest complete checkpoint chain — all
//! layers, root first, each layer's parts in index order — and then replays
//! only log frames with epochs in `(E_ckpt, durable]`, where `E_ckpt` is
//! the *newest* layer's stable epoch: a commit at epoch `e <= E_ckpt` to
//! key `k` either predates the chain root (captured there) or dirtied `k`
//! after some layer `i` and was captured by the first layer `> i` (the
//! clearing rule above). Consistency of the fuzzy capture is restored by
//! TID-aware replay: a log record older than the captured row it addresses
//! is skipped, a newer one wins.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use reactdb_common::bytes::crc32;
use reactdb_common::{CheckpointConfig, ContainerId, Key, ReactorId};
use reactdb_obs::Count;
use reactdb_storage::{Table, TidWord};
use reactdb_txn::{EpochManager, RedoPayload, RedoRecord};

use crate::{codec, sync_dir, Wal};

/// File name of the checkpoint manifest.
pub const MANIFEST_FILE: &str = "checkpoint-manifest";
/// Magic bytes opening the manifest (v2: layer chain of part sets).
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
    /// TID epoch `<=` this is fully contained in the checkpoint chain.
    pub epoch: u64,
    /// Highest TID epoch among captured rows; the checkpoint completed only
    /// after the durable epoch covered it.
    pub cover_epoch: u64,
    /// Rows captured by this checkpoint (this layer only, not the chain).
    pub rows: u64,
    /// Bytes of the part files this checkpoint wrote.
    pub bytes: u64,
    /// Part files written (the parallel capture fan-out actually used).
    pub parts: u64,
    /// True when this was a delta capture (dirty rows only) rather than a
    /// full table walk.
    pub delta: bool,
    /// Log bytes reclaimed by the truncation that followed.
    pub truncated_bytes: u64,
    /// Log segments deleted by the truncation that followed.
    pub truncated_segments: u64,
}

/// One part file of a checkpoint layer, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Part {
    file: String,
    rows: u64,
    bytes: u64,
}

/// One checkpoint layer: a full root or a delta over the previous layers.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Layer {
    seq: u64,
    epoch: u64,
    cover_epoch: u64,
    delta: bool,
    parts: Vec<Part>,
}

/// The manifest of the newest complete checkpoint chain: a full root layer
/// followed by zero or more delta layers, committed as one unit.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Manifest {
    layers: Vec<Layer>,
}

impl Manifest {
    /// The most recent layer (validation guarantees at least one).
    fn newest(&self) -> &Layer {
        self.layers.last().expect("manifest has at least one layer")
    }

    /// Highest cover epoch across the chain — the durability gate recovery
    /// must check before trusting any layer.
    fn cover_epoch(&self) -> u64 {
        self.layers
            .iter()
            .map(|layer| layer.cover_epoch)
            .max()
            .unwrap_or(0)
    }

    /// Every part file the chain references, in (layer, part) order.
    fn files(&self) -> Vec<String> {
        self.layers
            .iter()
            .flat_map(|layer| layer.parts.iter().map(|part| part.file.clone()))
            .collect()
    }
}

/// A checkpoint chain as loaded by recovery.
#[derive(Debug)]
pub struct RecoveredCheckpoint {
    /// Sequence number of the newest layer.
    pub seq: u64,
    /// Newest layer's stable epoch stamp (`E_ckpt`): commits with TID
    /// epochs `<=` this are fully covered by the chain, so recovery skips
    /// their log frames.
    pub epoch: u64,
    /// Highest TID epoch among the captured rows of any layer (durability
    /// of the capture was gated on this).
    pub cover_epoch: u64,
    /// The captured rows — root layer first, each layer's parts in index
    /// order — each with the commit TID its image corresponds to. Replayed
    /// before the log tail via TID-aware replay, which also reconciles a
    /// delta layer's newer image (or tombstone) against the root's.
    pub rows: Vec<(TidWord, RedoRecord)>,
    /// Total size of the part files read.
    pub bytes: u64,
    /// Layers in the chain (1 = a single full checkpoint).
    pub layers: u64,
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

/// Serializes and atomically installs the manifest (write temp, fsync,
/// rename, fsync dir) — the checkpoint's commit point.
fn write_manifest(dir: &Path, manifest: &Manifest) -> io::Result<()> {
    let mut payload = Vec::with_capacity(64 * manifest.layers.len());
    payload.extend_from_slice(&(manifest.layers.len() as u16).to_le_bytes());
    for layer in &manifest.layers {
        payload.extend_from_slice(&layer.seq.to_le_bytes());
        payload.extend_from_slice(&layer.epoch.to_le_bytes());
        payload.extend_from_slice(&layer.cover_epoch.to_le_bytes());
        payload.push(layer.delta as u8);
        payload.extend_from_slice(&(layer.parts.len() as u16).to_le_bytes());
        for part in &layer.parts {
            let name = part.file.as_bytes();
            payload.extend_from_slice(&(name.len() as u16).to_le_bytes());
            payload.extend_from_slice(name);
            payload.extend_from_slice(&part.rows.to_le_bytes());
            payload.extend_from_slice(&part.bytes.to_le_bytes());
        }
    }

    let mut bytes = Vec::with_capacity(payload.len() + 12);
    bytes.extend_from_slice(&MANIFEST_MAGIC);
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);

    let tmp = dir.join("checkpoint-manifest.tmp");
    fs::write(&tmp, &bytes)?;
    let file = fs::File::open(&tmp)?;
    file.sync_data()?;
    drop(file);
    fs::rename(&tmp, dir.join(MANIFEST_FILE))?;
    sync_dir(dir)
}

/// Byte-cursor for manifest parsing; every accessor returns `None` past the
/// end, which the caller maps to "corrupt manifest".
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.bytes.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
}

fn parse_manifest(payload: &[u8]) -> Option<Manifest> {
    let mut r = Cursor {
        bytes: payload,
        pos: 0,
    };
    let layer_count = r.u16()? as usize;
    let mut layers = Vec::with_capacity(layer_count);
    for _ in 0..layer_count {
        let seq = r.u64()?;
        let epoch = r.u64()?;
        let cover_epoch = r.u64()?;
        let delta = match r.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let part_count = r.u16()? as usize;
        let mut parts = Vec::with_capacity(part_count);
        for _ in 0..part_count {
            let name_len = r.u16()? as usize;
            let file = String::from_utf8(r.take(name_len)?.to_vec()).ok()?;
            let rows = r.u64()?;
            let bytes = r.u64()?;
            parts.push(Part { file, rows, bytes });
        }
        layers.push(Layer {
            seq,
            epoch,
            cover_epoch,
            delta,
            parts,
        });
    }
    if r.pos != payload.len() || layers.is_empty() || layers[0].delta {
        return None;
    }
    // The chain must be internally consistent: seqs strictly increase
    // (every attempt consumes one) and stable epochs never regress.
    let ordered = layers
        .windows(2)
        .all(|pair| pair[1].seq > pair[0].seq && pair[1].epoch >= pair[0].epoch);
    if !ordered {
        return None;
    }
    Some(Manifest { layers })
}

/// Reads the manifest; `None` when absent or corrupt (both mean "no
/// complete checkpoint is installed").
fn read_manifest(dir: &Path) -> io::Result<Option<Manifest>> {
    let bytes = match fs::read(dir.join(MANIFEST_FILE)) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    if bytes.len() < 12 || bytes[..8] != MANIFEST_MAGIC {
        return Ok(None);
    }
    let crc = u32::from_le_bytes(bytes[8..12].try_into().expect("len 4"));
    let payload = &bytes[12..];
    if crc32(payload) != crc {
        return Ok(None);
    }
    Ok(parse_manifest(payload))
}

/// One decoded part file: its captured rows plus its on-disk byte size.
type DecodedPart = (Vec<(TidWord, RedoRecord)>, u64);

/// One part file's decoded rows, or `None` when the part is missing, torn,
/// or stamped inconsistently with the manifest.
fn decode_part(
    dir: &Path,
    layer: &Layer,
    part_idx: u32,
    part: &Part,
) -> io::Result<Option<DecodedPart>> {
    let data = match fs::read(dir.join(&part.file)) {
        Ok(data) => data,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let Some(scan) = codec::decode_checkpoint(&data) else {
        return Ok(None);
    };
    if scan.scan.truncated_tail
        || scan.seq != layer.seq
        || scan.epoch != layer.epoch
        || scan.part != part_idx
    {
        return Ok(None);
    }
    let mut rows = Vec::with_capacity(scan.scan.batches.len());
    for (tid, mut records) in scan.scan.batches {
        // One captured row per frame by construction.
        let Some(record) = records.pop() else {
            return Ok(None);
        };
        rows.push((tid, record));
    }
    if rows.len() as u64 != part.rows {
        return Ok(None);
    }
    Ok(Some((rows, data.len() as u64)))
}

/// Loads the newest complete checkpoint chain for recovery, decoding part
/// files across up to `workers` threads (the result is deterministic: parts
/// are reassembled in (layer, part) order regardless of the fan-out).
/// Returns `None` — and recovery falls back to the full log — when no
/// manifest is installed, the manifest or any part file is corrupt or torn,
/// the stamps disagree, or the durable epoch does not cover the fuzzy
/// capture (possible only if the durable-epoch marker itself was lost: the
/// completion gate orders the marker advance before the manifest commit).
///
/// Public beyond recovery because a replication follower boots the same
/// way: the primary ships its checkpoint files raw, and the follower loads
/// the staged chain with the shipped durable epoch before tailing the log.
pub fn load_checkpoint(
    dir: &Path,
    durable_epoch: u64,
    workers: usize,
) -> io::Result<Option<RecoveredCheckpoint>> {
    let Some(manifest) = read_manifest(dir)? else {
        return Ok(None);
    };
    if durable_epoch < manifest.cover_epoch() {
        return Ok(None);
    }
    // Flatten the chain into per-part work items, then stripe them across
    // the decode threads; slot `i` of the output is part `i` of the chain.
    let specs: Vec<(&Layer, u32, &Part)> = manifest
        .layers
        .iter()
        .flat_map(|layer| {
            layer
                .parts
                .iter()
                .enumerate()
                .map(move |(idx, part)| (layer, idx as u32, part))
        })
        .collect();
    let workers = workers.max(1).min(specs.len().max(1));
    let mut slots: Vec<Option<DecodedPart>> = Vec::new();
    slots.resize_with(specs.len(), || None);
    let decoded: Vec<Vec<(usize, io::Result<Option<DecodedPart>>)>> = std::thread::scope(|s| {
        let specs = &specs;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut i = w;
                    while i < specs.len() {
                        let (layer, idx, part) = specs[i];
                        out.push((i, decode_part(dir, layer, idx, part)));
                        i += workers;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("checkpoint part decoder panicked"))
            .collect()
    });
    for (i, result) in decoded.into_iter().flatten() {
        match result? {
            Some(part) => slots[i] = Some(part),
            // One bad part rejects the whole chain: a partially-applied
            // chain is not a consistent snapshot at any epoch.
            None => return Ok(None),
        }
    }
    let mut rows = Vec::new();
    let mut bytes = 0u64;
    for slot in slots {
        let (part_rows, part_bytes) = slot.expect("every slot filled or rejected");
        rows.extend(part_rows);
        bytes += part_bytes;
    }
    let newest = manifest.newest();
    Ok(Some(RecoveredCheckpoint {
        seq: newest.seq,
        epoch: newest.epoch,
        cover_epoch: manifest.cover_epoch(),
        rows,
        bytes,
        layers: manifest.layers.len() as u64,
        files: manifest.files(),
    }))
}

/// Recovery-time orphan cleanup. Unlike the post-checkpoint cleanup, this
/// keys the files to keep off the *manifest* alone — even when
/// [`load_checkpoint`] rejected the chain (torn part file, stamp mismatch,
/// uncovered capture), the manifest-referenced part files may be the only
/// remaining copy of already-truncated history and must be preserved as
/// evidence, never deleted. When the manifest file exists but does not
/// parse, nothing is deleted at all: the references are unknown, so every
/// part file is potential evidence.
pub(crate) fn clean_orphans_for_recovery(dir: &Path) -> io::Result<()> {
    let manifest = read_manifest(dir)?;
    if manifest.is_none() && dir.join(MANIFEST_FILE).exists() {
        return Ok(()); // corrupt manifest: preserve everything
    }
    let keep = manifest.as_ref().map(Manifest::files).unwrap_or_default();
    clean_orphans(dir, &keep)
}

/// Deletes checkpoint debris a crash may have left behind: part files not
/// referenced by the installed manifest (superseded or never committed) and
/// stale temp files. `keep` names the live chain's part files.
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

/// One capture thread's work unit: a whole table (full checkpoint) or the
/// dirty keys of one table (delta checkpoint).
enum CaptureUnit<'a> {
    Full(&'a CheckpointTable),
    Dirty(&'a CheckpointTable, Vec<Key>),
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
    /// The first checkpoint of an instance lifetime must be a full one:
    /// rows replayed by recovery predate dirty tracking, so a first-delta
    /// would lose them once the log is truncated.
    force_full: AtomicBool,
    /// Serializes checkpoint executions (daemon vs. explicit calls).
    run_lock: Mutex<()>,
    stop: AtomicBool,
    daemon: Mutex<Option<JoinHandle<()>>>,
}

impl Checkpointer {
    /// Creates a checkpointer over the given tables. The next sequence
    /// number continues from the installed manifest, so checkpoint files
    /// never collide across instance lifetimes. When the config enables
    /// delta checkpoints, dirty-key tracking is switched on in every log
    /// writer here — before any tracked commit can matter, since the first
    /// capture is forced full anyway.
    pub fn new(
        wal: Arc<Wal>,
        tables: Vec<CheckpointTable>,
        config: CheckpointConfig,
    ) -> io::Result<Arc<Self>> {
        let next_seq = read_manifest(wal.dir())?
            .map(|m| m.newest().seq + 1)
            .unwrap_or(1);
        if config.delta_checkpoints() {
            for writer in wal.writers() {
                writer.set_track_dirty(true);
            }
        }
        Ok(Arc::new(Self {
            wal,
            tables,
            config,
            next_seq: Mutex::new(next_seq),
            force_full: AtomicBool::new(true),
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

    /// Writes part `part` of checkpoint `seq`: walks each assigned unit,
    /// appending one frame per captured row to the part's temp file, and
    /// fsyncs it. Rows captured for dirty keys may have moved on since the
    /// key was dirtied — the capture takes whatever image is current
    /// (version-stable), and the cover-epoch gate plus TID-aware replay
    /// absorb the skew exactly as for the fuzzy full walk.
    fn write_part(
        &self,
        dir: &Path,
        seq: u64,
        epoch: u64,
        part: u32,
        units: &[&CaptureUnit<'_>],
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
        for unit in units {
            match unit {
                CaptureUnit::Full(entry) => {
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
                CaptureUnit::Dirty(entry, keys) => {
                    for keys in keys.chunks(chunk_size) {
                        let chunk_started = obs.map(|_| std::time::Instant::now());
                        for key in keys {
                            let Some(slot) = entry.table.get(key) else {
                                continue;
                            };
                            let (tid, image) = slot.read_stable();
                            if tid.version() == 0 {
                                continue; // provisional slot, never committed
                            }
                            // A deleted dirty key is captured as a
                            // tombstone: the delta layer must end the key,
                            // or recovery would resurrect it from the
                            // chain's full root.
                            let payload = if tid.is_absent() {
                                RedoPayload::Delete
                            } else {
                                RedoPayload::Full(image)
                            };
                            cover_epoch = cover_epoch.max(tid.epoch());
                            rows += 1;
                            codec::encode_batch(
                                &mut buf,
                                tid,
                                &[RedoRecord {
                                    container: entry.container,
                                    reactor: entry.reactor,
                                    relation: entry.relation.clone(),
                                    key: key.clone(),
                                    payload,
                                }],
                            );
                        }
                        flush_chunk(&mut buf, &mut file, chunk_started)?;
                    }
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

        // Delta or full? Delta needs an installed chain to layer onto, a
        // chain shorter than `full_every`, and at least one prior full
        // capture this instance lifetime (see `force_full`).
        let prev = read_manifest(&dir)?;
        let delta = self.config.delta_checkpoints()
            && !self.force_full.load(Ordering::Acquire)
            && prev
                .as_ref()
                .is_some_and(|m| (m.layers.len() as u64) < self.config.full_every);

        // 1. Stable epoch: fence + drain (see module docs). For a delta,
        // the dirty sets are snapshotted *after* the drain, so every commit
        // at `<= epoch` has already marked its keys.
        let epoch = self.wal.stable_snapshot_epoch()?;

        // 2. Build the capture units and partition them round-robin across
        // the writer pool.
        let units: Vec<CaptureUnit<'_>> = if delta {
            let mut dirty: HashMap<(ReactorId, String), HashMap<Key, u64>> = HashMap::new();
            for writer in self.wal.writers() {
                for (table, keys) in writer.dirty_snapshot() {
                    let merged = dirty.entry(table).or_default();
                    for (key, last) in keys {
                        let entry = merged.entry(key).or_insert(0);
                        *entry = (*entry).max(last);
                    }
                }
            }
            self.tables
                .iter()
                .filter_map(|entry| {
                    let keys = dirty.remove(&(entry.reactor, entry.relation.clone()))?;
                    let mut keys: Vec<Key> = keys.into_keys().collect();
                    keys.sort();
                    Some(CaptureUnit::Dirty(entry, keys))
                })
                .collect()
        } else {
            self.tables.iter().map(CaptureUnit::Full).collect()
        };
        let configured = if self.config.workers > 0 {
            self.config.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        let workers = configured.min(units.len());
        let mut partitions: Vec<Vec<&CaptureUnit<'_>>> = vec![Vec::new(); workers];
        for (i, unit) in units.iter().enumerate() {
            partitions[i % workers.max(1)].push(unit);
        }

        // 3. Parallel fuzzy walk: each worker streams its units into its
        // own part file. An empty delta (no dirty keys) writes no parts and
        // still commits a layer, advancing the chain's epoch bound.
        let outcomes: Vec<io::Result<PartOutcome>> = std::thread::scope(|s| {
            let handles: Vec<_> = partitions
                .iter()
                .enumerate()
                .map(|(w, units)| {
                    let dir = &dir;
                    s.spawn(move || self.write_part(dir, seq, epoch, w as u32, units))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("checkpoint part writer panicked"))
                .collect()
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
        // point — it references the whole chain, so one rename commits the
        // new layer and everything it depends on), then retire superseded
        // files.
        for w in 0..workers {
            fs::rename(
                dir.join(part_tmp_name(w as u32)),
                dir.join(part_file_name(seq, w as u32)),
            )?;
        }
        sync_dir(&dir)?;
        let layer = Layer {
            seq,
            epoch,
            cover_epoch,
            delta,
            parts,
        };
        let manifest = if delta {
            let mut layers = prev.expect("delta requires an installed chain").layers;
            layers.push(layer);
            Manifest { layers }
        } else {
            Manifest {
                layers: vec![layer],
            }
        };
        write_manifest(&dir, &manifest)?;
        clean_orphans(&dir, &manifest.files())?;

        // 6. Rotate live writers onto a fresh generation, then truncate
        // every segment the checkpoint fully covers.
        self.wal.rotate_segments()?;
        let (truncated_bytes, truncated_segments) = self.wal.truncate_stale_segments(epoch)?;

        // 7. Retire the captured dirty entries: only keys last dirtied at
        // `<= epoch` — the drain guarantees those images were current when
        // walked, while keys re-dirtied during the capture stay for the
        // next delta. Running this only after full success means a failed
        // attempt never loses dirty state.
        if self.config.delta_checkpoints() {
            for writer in self.wal.writers() {
                writer.clear_dirty_through(epoch);
            }
        }
        if !delta {
            self.force_full.store(false, Ordering::Release);
        }

        let metrics = self.wal.metrics();
        metrics.add(Count::CheckpointsTaken, 1);
        metrics.add(Count::CheckpointsDelta, delta as u64);
        metrics.add(Count::CheckpointBytes, bytes);
        Ok(CheckpointReport {
            seq,
            epoch,
            cover_epoch,
            rows,
            bytes,
            parts: workers as u64,
            delta,
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
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "reactdb-ckpt-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn full_layer(seq: u64, epoch: u64, cover_epoch: u64, files: &[(&str, u64, u64)]) -> Layer {
        Layer {
            seq,
            epoch,
            cover_epoch,
            delta: false,
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

    #[test]
    fn manifest_roundtrip_and_corruption_handling() {
        let dir = temp_dir("manifest");
        assert_eq!(read_manifest(&dir).unwrap(), None);
        let mut delta_layer = full_layer(5, 21, 22, &[("ckpt-000005-p00.dat", 3, 640)]);
        delta_layer.delta = true;
        let manifest = Manifest {
            layers: vec![
                full_layer(
                    4,
                    17,
                    19,
                    &[
                        ("ckpt-000004-p00.dat", 600, 50_000),
                        ("ckpt-000004-p01.dat", 634, 49_000),
                    ],
                ),
                delta_layer,
            ],
        };
        write_manifest(&dir, &manifest).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), Some(manifest.clone()));
        assert_eq!(manifest.cover_epoch(), 22);
        assert_eq!(manifest.files().len(), 3);
        // Corruption is detected and treated as "no checkpoint".
        let mut bytes = fs::read(dir.join(MANIFEST_FILE)).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(dir.join(MANIFEST_FILE), &bytes).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), None);
        fs::write(dir.join(MANIFEST_FILE), b"short").unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_rejects_inconsistent_chains() {
        let dir = temp_dir("manifest-chain");
        // A chain whose root is a delta has lost its base: reject.
        let mut orphan_delta = full_layer(3, 9, 9, &[]);
        orphan_delta.delta = true;
        write_manifest(
            &dir,
            &Manifest {
                layers: vec![orphan_delta.clone()],
            },
        )
        .unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), None);
        // Non-increasing seqs are structurally impossible: reject.
        write_manifest(
            &dir,
            &Manifest {
                layers: vec![full_layer(4, 9, 9, &[]), {
                    let mut l = full_layer(4, 10, 10, &[]);
                    l.delta = true;
                    l
                }],
            },
        )
        .unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), None);
        // An empty manifest commits nothing: reject.
        write_manifest(&dir, &Manifest { layers: Vec::new() }).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incomplete_checkpoints_are_ignored_by_recovery_load() {
        let dir = temp_dir("incomplete");
        // No manifest: nothing to load, even with a data file present.
        fs::write(dir.join("ckpt-000001-p00.dat"), b"whatever").unwrap();
        assert!(load_checkpoint(&dir, u64::MAX, 2).unwrap().is_none());
        // Manifest referencing a missing part file.
        let manifest = Manifest {
            layers: vec![full_layer(2, 5, 6, &[("ckpt-000002-p00.dat", 0, 28)])],
        };
        write_manifest(&dir, &manifest).unwrap();
        assert!(load_checkpoint(&dir, u64::MAX, 2).unwrap().is_none());
        // A valid empty part file loads...
        let mut data = Vec::new();
        codec::encode_checkpoint_header(&mut data, 2, 5, 0);
        fs::write(dir.join("ckpt-000002-p00.dat"), &data).unwrap();
        let loaded = load_checkpoint(&dir, u64::MAX, 2)
            .unwrap()
            .expect("complete");
        assert_eq!(loaded.epoch, 5);
        assert_eq!(loaded.layers, 1);
        assert!(loaded.rows.is_empty());
        // ...but not when the durable marker fails to cover the capture.
        assert!(load_checkpoint(&dir, 5, 2).unwrap().is_none());
        // A part whose stamp disagrees with the manifest is rejected —
        // wrong epoch, and separately wrong part index.
        let mut wrong = Vec::new();
        codec::encode_checkpoint_header(&mut wrong, 2, 4, 0);
        fs::write(dir.join("ckpt-000002-p00.dat"), &wrong).unwrap();
        assert!(load_checkpoint(&dir, u64::MAX, 2).unwrap().is_none());
        let mut wrong_part = Vec::new();
        codec::encode_checkpoint_header(&mut wrong_part, 2, 5, 1);
        fs::write(dir.join("ckpt-000002-p00.dat"), &wrong_part).unwrap();
        assert!(load_checkpoint(&dir, u64::MAX, 2).unwrap().is_none());
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
        assert_eq!(report.parts, 1, "one table yields one capture unit");
        assert!(!report.delta);
        assert!(report.cover_epoch >= report.epoch);
        assert!(
            report.truncated_segments >= 1,
            "the rotated-out history segment is entirely covered"
        );
        assert!(report.truncated_bytes > 0);
        assert_eq!(wal.metrics().get(Count::CheckpointsTaken), 1);
        assert_eq!(wal.metrics().get(Count::CheckpointsDelta), 0);
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
        assert_eq!(loaded.layers, 1);
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
            .expect("complete chain");
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
    fn delta_checkpoints_chain_capture_dirty_rows_and_tombstones() {
        use reactdb_common::{DurabilityConfig, Key, Value};
        use reactdb_storage::{ColumnType, Schema, Tuple};

        let dir = temp_dir("delta");
        let config = DurabilityConfig::epoch_sync(dir.to_string_lossy()).with_interval_ms(0);
        let epoch = Arc::new(EpochManager::new());
        let metrics = Arc::new(reactdb_obs::Metrics::new(1, &Default::default()));
        let wal = Wal::open(&config, 1, Arc::clone(&epoch), metrics)
            .unwrap()
            .unwrap();
        let schema = Schema::of(&[("id", ColumnType::Int), ("v", ColumnType::Int)], &["id"]);
        let table = Arc::new(Table::new("kv", schema.clone()));
        let ckpt = Checkpointer::new(
            Arc::clone(&wal),
            vec![CheckpointTable {
                container: ContainerId(0),
                reactor: ReactorId(0),
                relation: "kv".into(),
                table: Arc::clone(&table),
            }],
            CheckpointConfig::manual().with_full_every(4),
        )
        .unwrap();
        let mut seq = 0u64;
        let mut commit = |key: i64, value: Option<i64>| {
            seq += 1;
            let tid = TidWord::committed(epoch.current(), seq);
            let record = RedoRecord {
                container: ContainerId(0),
                reactor: ReactorId(0),
                relation: "kv".into(),
                key: Key::Int(key),
                payload: match value {
                    Some(v) => RedoPayload::Full(Tuple::of([Value::Int(key), Value::Int(v)])),
                    None => RedoPayload::Delete,
                },
            };
            use reactdb_txn::LogSink;
            wal.writer(0).log_commit(tid, std::slice::from_ref(&record));
            table.replay(&record.key, record.image(), tid);
        };

        // Base population, then the forced-full chain root.
        for i in 0..50i64 {
            commit(i, Some(i * 10));
        }
        epoch.advance();
        wal.sync().unwrap();
        let full = ckpt.checkpoint_now().unwrap();
        assert!(!full.delta, "first checkpoint is forced full");
        assert_eq!(full.rows, 50);

        // Touch 5 keys and delete one, then take a delta.
        for i in 0..5i64 {
            commit(i, Some(i * 100));
        }
        commit(42, None);
        epoch.advance();
        wal.sync().unwrap();
        let delta = ckpt.checkpoint_now().unwrap();
        assert!(delta.delta);
        assert_eq!(delta.rows, 6, "5 updates + 1 tombstone");
        assert!(
            delta.bytes * 2 < full.bytes,
            "delta bytes ({}) well under full bytes ({})",
            delta.bytes,
            full.bytes
        );
        assert_eq!(wal.metrics().get(Count::CheckpointsDelta), 1);

        // A second delta captures only what changed since the first.
        commit(7, Some(700));
        epoch.advance();
        wal.sync().unwrap();
        let second = ckpt.checkpoint_now().unwrap();
        assert!(second.delta);
        assert_eq!(second.rows, 1);

        // The chain (full + 2 deltas) recovers to the live state,
        // including the tombstone.
        let loaded = load_checkpoint(&dir, u64::MAX, 2).unwrap().expect("chain");
        assert_eq!(loaded.layers, 3);
        assert_eq!(loaded.epoch, second.epoch, "bound is the newest layer's");
        let replayed = Table::new("kv", schema);
        for (tid, record) in &loaded.rows {
            replayed.replay(&record.key, record.image(), *tid);
        }
        assert_eq!(replayed.visible_len(), table.visible_len());
        assert!(replayed.get(&Key::Int(42)).unwrap().tid().is_absent());
        assert_eq!(
            replayed
                .get(&Key::Int(3))
                .unwrap()
                .read_unguarded()
                .values()[1],
            Value::Int(300)
        );

        // A third delta fills the chain (full + 3 deltas = 4 layers), so
        // the checkpoint after it rolls over to a fresh full root.
        commit(8, Some(800));
        epoch.advance();
        wal.sync().unwrap();
        let third = ckpt.checkpoint_now().unwrap();
        assert!(third.delta);
        let rollover = ckpt.checkpoint_now().unwrap();
        assert!(!rollover.delta, "full_every=4 caps the chain at 4 layers");
        let loaded = load_checkpoint(&dir, u64::MAX, 2).unwrap().expect("root");
        assert_eq!(loaded.layers, 1);
        assert_eq!(loaded.rows.len(), 49, "the tombstoned key is not visible");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_cleanup_preserves_rejected_checkpoint_evidence() {
        let dir = temp_dir("evidence");
        // Manifest referencing a torn part file: load rejects it, but the
        // file may be the only copy of truncated history — cleanup must
        // keep it (and still remove genuine debris).
        write_manifest(
            &dir,
            &Manifest {
                layers: vec![full_layer(3, 8, 9, &[("ckpt-000003-p00.dat", 10, 4)])],
            },
        )
        .unwrap();
        fs::write(dir.join("ckpt-000003-p00.dat"), b"torn").unwrap();
        fs::write(dir.join("ckpt-000001-p00.dat"), b"superseded").unwrap();
        fs::write(dir.join("ckpt.tmp"), b"debris").unwrap();
        fs::write(dir.join("ckpt-p01.tmp"), b"debris").unwrap();
        assert!(load_checkpoint(&dir, u64::MAX, 2).unwrap().is_none());
        clean_orphans_for_recovery(&dir).unwrap();
        assert!(
            dir.join("ckpt-000003-p00.dat").exists(),
            "manifest-referenced file is evidence even when rejected"
        );
        assert!(!dir.join("ckpt-000001-p00.dat").exists());
        assert!(!dir.join("ckpt.tmp").exists());
        assert!(!dir.join("ckpt-p01.tmp").exists());
        // Corrupt manifest: the references are unknown, so nothing at all
        // is deleted.
        fs::write(dir.join(MANIFEST_FILE), b"garbage").unwrap();
        fs::write(dir.join("ckpt-000001-p00.dat"), b"maybe evidence").unwrap();
        clean_orphans_for_recovery(&dir).unwrap();
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
        fs::write(dir.join("ckpt-000002-p00.dat"), b"live root").unwrap();
        fs::write(dir.join("ckpt-000003-p00.dat"), b"live delta").unwrap();
        fs::write(dir.join("ckpt.tmp"), b"torn").unwrap();
        fs::write(dir.join("ckpt-p02.tmp"), b"torn").unwrap();
        fs::write(dir.join("checkpoint-manifest.tmp"), b"torn").unwrap();
        fs::write(dir.join("unrelated.txt"), b"keep me").unwrap();
        clean_orphans(
            &dir,
            &["ckpt-000002-p00.dat".into(), "ckpt-000003-p00.dat".into()],
        )
        .unwrap();
        assert!(!dir.join("ckpt-000001-p00.dat").exists());
        assert!(dir.join("ckpt-000002-p00.dat").exists());
        assert!(dir.join("ckpt-000003-p00.dat").exists());
        assert!(!dir.join("ckpt.tmp").exists());
        assert!(!dir.join("ckpt-p02.tmp").exists());
        assert!(!dir.join("checkpoint-manifest.tmp").exists());
        assert!(dir.join("unrelated.txt").exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
