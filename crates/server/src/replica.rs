//! Follower runtime: tails a primary's replication stream and applies it.
//!
//! A follower is an ordinary engine instance booted with its own (empty)
//! log directory and flipped read-only, fronted by an ordinary wire
//! server for snapshot-epoch reads and metrics. [`run_follower`] then
//! drives the replication protocol against the primary:
//!
//! 1. connect, handshake, `ReplSubscribe` with the highest epoch already
//!    applied (zero on first boot);
//! 2. stage every `ReplFile` chunk byte-for-byte into a staging
//!    directory — a faithful, growing copy of the primary's log dir;
//! 3. on each `ReplEpoch E`: bootstrap once from the staged checkpoint
//!    via [`reactdb_wal::load_checkpoint`] (the same parallel
//!    loader crash recovery uses), then decode the staged segments and
//!    apply every not-yet-applied batch with commit epoch `<= E` through
//!    [`ReactDB::apply_redo`] — which re-logs them into the follower's
//!    *own* WAL — force a group commit, and `ReplAck E`.
//!
//! Because the ack is sent only after the follower's own group commit,
//! the primary's `AckLevel::Replicated` gate really does mean "durable on
//! two nodes". Reads served meanwhile run at the follower's applied
//! stable epoch: the engine's ordinary snapshot-epoch read path, just fed
//! by replication instead of local commits.
//!
//! A follower's role is fixed by how its process starts: it stays
//! read-only for life and, when its primary dies, keeps reconnecting
//! until it is stopped. **Promotion is a restart.** Everything the
//! follower applied was re-logged into its own WAL before it was acked,
//! so [`ReactDB::recover`] on that directory — `reactdb-server` started
//! on the follower's `--wal-dir` without `--follow` — boots a primary
//! holding every replicated-acked transaction. Nothing in this module can
//! make a node writable, so a dead primary never yields two primaries.
//!
//! **Resubscribing is not restarting.** A recoverable stream loss — the
//! primary's checkpoint truncated a segment under the shipping cursor, a
//! failpoint dropped the subscribed connection, a transient disconnect —
//! re-enters step 1 with the follower's state intact: every subscription
//! stages into a fresh *generation* subdirectory of the staging dir (the new
//! subscription re-ships the bootstrap from the primary's *new*
//! checkpoint, which must not be spliced into stale staged bytes),
//! the checkpoint is re-loaded from that side generation, and only rows
//! above the follower's `applied` epoch are fed to the TID-idempotent
//! [`ReactDB::apply_redo`]. A subscription that made progress reconnects
//! at once, so a storm of truncation races never waits; one that made
//! none (the primary is down) waits 100 ms first.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::io::{self, ErrorKind, Read, Seek, SeekFrom, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use reactdb_client::codec::{self, Request, Response};
use reactdb_engine::ReactDB;
use reactdb_storage::TidWord;
use reactdb_txn::RedoRecord;

use crate::ReplState;

/// Pause before reconnecting after a subscription that made no progress.
const RECONNECT_PAUSE: Duration = Duration::from_millis(100);

/// Tuning for [`run_follower`].
#[derive(Debug, Clone)]
pub struct FollowerOpts {
    /// The primary's wire address (`host:port`).
    pub primary_addr: String,
    /// Directory the shipped log-dir copy is staged into. Must not be the
    /// follower engine's own WAL directory.
    pub staging_dir: PathBuf,
    /// Parallel apply lanes for [`ReactDB::apply_redo`] (0 = all cores).
    pub replay_workers: usize,
}

impl FollowerOpts {
    /// Defaults for tailing `primary_addr`, staging into `staging_dir`.
    pub fn new(primary_addr: impl Into<String>, staging_dir: impl Into<PathBuf>) -> Self {
        Self {
            primary_addr: primary_addr.into(),
            staging_dir: staging_dir.into(),
            replay_workers: 0,
        }
    }

    /// Sets the parallel apply lanes (0 = all cores).
    pub fn with_replay_workers(mut self, workers: usize) -> Self {
        self.replay_workers = workers;
        self
    }
}

/// What a finished [`run_follower`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FollowerReport {
    /// Highest epoch durably applied from the primary.
    pub applied_epoch: u64,
    /// Times the follower re-established a lost subscription without
    /// losing its applied state (e.g. after a checkpoint truncation raced
    /// the primary's shipping cursor).
    pub resubscribes: u64,
}

/// Mutable state threaded through (re)subscriptions.
struct Tail {
    /// Byte length staged so far, per file name, in the *current*
    /// staging generation.
    staged: HashMap<String, u64>,
    /// Staged files written since the last pre-ack fsync pass.
    dirty: HashSet<String>,
    /// A staged file was created since the last staging-dir fsync (the
    /// directory entry itself must be durable before an ack).
    dir_dirty: bool,
    /// Highest epoch durably applied into the local engine. Survives
    /// resubscription: the one piece of state that must never reset.
    applied: u64,
    /// Epoch floor below which batches are covered by the loaded
    /// checkpoint (its `cover_epoch`); 0 before bootstrap or without one.
    checkpoint_floor: u64,
    /// Whether the current generation's checkpoint has been loaded.
    bootstrapped: bool,
    /// Monotone (re)subscription counter; names the staging generation
    /// subdirectory.
    generation: u64,
    /// Stream events seen (chunks staged + epochs applied): a lost
    /// subscription that raised it reconnects without a pause.
    progress: u64,
}

impl Tail {
    /// The staging subdirectory of the current generation.
    fn gen_dir(&self, staging_dir: &Path) -> PathBuf {
        staging_dir.join(format!("gen-{:06}", self.generation))
    }

    /// Starts a fresh staging generation for a new subscription: staged
    /// bookkeeping resets (the new stream re-ships its bootstrap from the
    /// primary's *current* checkpoint), `applied` survives, and
    /// generations older than the previous one are deleted.
    fn next_generation(&mut self, staging_dir: &Path) -> io::Result<PathBuf> {
        self.generation += 1;
        self.staged.clear();
        self.dirty.clear();
        self.dir_dirty = false;
        self.bootstrapped = false;
        self.checkpoint_floor = 0;
        // Keep the previous generation (a dying apply could still hold
        // open files); everything older is garbage.
        if let Ok(entries) = fs::read_dir(staging_dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                let Some(gen) = name
                    .strip_prefix("gen-")
                    .and_then(|n| n.parse::<u64>().ok())
                else {
                    continue;
                };
                if gen + 1 < self.generation {
                    let _ = fs::remove_dir_all(entry.path());
                }
            }
        }
        let dir = self.gen_dir(staging_dir);
        fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

/// Tails `opts.primary_addr` until `stop` is raised or an apply error
/// occurs; a lost primary is reconnected to, never given up on. Blocks
/// the calling thread; run it on a dedicated one. `db` must be booted
/// with durability on (its own fresh WAL directory) and is made read-only
/// here for good; `repl` should come from the serving [`crate::Server`]'s
/// [`crate::Server::repl_state`] so lag shows up in its metrics.
pub fn run_follower(
    db: &Arc<ReactDB>,
    repl: &Arc<ReplState>,
    opts: &FollowerOpts,
    stop: &AtomicBool,
) -> io::Result<FollowerReport> {
    fs::create_dir_all(&opts.staging_dir)?;
    db.set_read_only();
    repl.observe_subscription(false);
    let follower_id = follower_id(&opts.staging_dir);
    let mut tail = Tail {
        staged: HashMap::new(),
        dirty: HashSet::new(),
        dir_dirty: false,
        applied: 0,
        checkpoint_floor: 0,
        bootstrapped: false,
        generation: 0,
        progress: 0,
    };

    let mut resubscribes = 0u64;
    let mut progressed = true;
    while !stop.load(Ordering::SeqCst) {
        let progress_before = tail.progress;
        if tail.generation > 0 {
            resubscribes += 1;
            // Once per outage, not once per attempt; scripts and the CI
            // replication gate grep for this line.
            if progressed {
                eprintln!(
                    "follower resubscribing to {} (applied epoch {}, generation {})",
                    opts.primary_addr,
                    tail.applied,
                    tail.generation + 1,
                );
            }
        }
        let outcome = follow_once(db, repl, opts, stop, &mut tail, follower_id);
        repl.observe_subscription(false);
        match outcome {
            // Clean stop request honoured inside the stream loop.
            Ok(()) => break,
            // Apply/decode failure: retrying would re-fail; surface it.
            Err(e) if e.kind() == ErrorKind::InvalidData => return Err(e),
            Err(_) => {
                progressed = tail.progress > progress_before;
                if !progressed {
                    std::thread::sleep(RECONNECT_PAUSE);
                }
            }
        }
    }
    Ok(FollowerReport {
        applied_epoch: tail.applied,
        resubscribes,
    })
}

/// Stable identity of this follower across reconnects: an FNV-1a hash of
/// the staging directory plus the process id. Two followers on one
/// machine differ by staging dir; a restarted follower process gets a
/// fresh id, so the primary's registry never confuses its acks with the
/// dead incarnation's.
fn follower_id(staging_dir: &Path) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(staging_dir.to_string_lossy().as_bytes());
    eat(&std::process::id().to_le_bytes());
    hash
}

/// One subscription: connect, stream, stage, apply, ack — until the
/// connection drops (`Err`) or `stop` is raised (`Ok`).
fn follow_once(
    db: &Arc<ReactDB>,
    repl: &Arc<ReplState>,
    opts: &FollowerOpts,
    stop: &AtomicBool,
    tail: &mut Tail,
    follower_id: u64,
) -> io::Result<()> {
    let gen_dir = tail.next_generation(&opts.staging_dir)?;
    let mut stream = TcpStream::connect(&opts.primary_addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(20)))?;
    stream.write_all(&codec::client_hello())?;
    let mut hello = [0u8; codec::HANDSHAKE_LEN];
    read_exact_with_timeout(&mut stream, &mut hello)?;
    codec::parse_server_hello(&hello)
        .map_err(|e| io::Error::other(format!("primary rejected handshake: {e:?}")))?;

    let correlation_id = 1u64;
    let subscribe = codec::frame(&codec::encode_request(&Request::ReplSubscribe {
        correlation_id,
        from_epoch: tail.applied,
        follower_id,
    }));
    stream.write_all(&subscribe)?;
    repl.observe_subscription(true);

    let mut rbuf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(io::Error::other("primary closed the stream")),
            Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
        // Stage everything this read completed, then apply once through
        // the newest epoch it announced: a follower that fell behind a
        // primary announcing every group commit catches up in one apply
        // and one local group commit, not one per epoch.
        let mut announced = None;
        let mut ended = None;
        loop {
            let (payload, consumed) = match codec::decode_frame(&rbuf) {
                Ok(None) => break,
                Ok(Some(frame)) => frame,
                Err(e) => {
                    return Err(io::Error::new(
                        ErrorKind::InvalidData,
                        format!("undecodable replication frame: {e:?}"),
                    ));
                }
            };
            let response = codec::decode_response(payload).map_err(|e| {
                io::Error::new(
                    ErrorKind::InvalidData,
                    format!("undecodable replication frame: {e:?}"),
                )
            })?;
            rbuf.drain(..consumed);
            match response {
                Response::ReplFile {
                    name,
                    offset,
                    bytes,
                    ..
                } => {
                    stage_chunk(&gen_dir, tail, &name, offset, &bytes)?;
                    tail.progress += 1;
                }
                Response::ReplEpoch { epoch, .. } => announced = Some(epoch),
                Response::ReplEnd { reason, .. } => {
                    ended = Some(reason);
                    break;
                }
                _ => {} // a subscribed connection carries nothing else
            }
        }
        if let Some(epoch) = announced {
            if epoch > tail.applied {
                apply_through(db, &gen_dir, opts, tail, epoch)?;
                tail.progress += 1;
                // Local state (and metrics) reflect the applied epoch
                // *before* the primary can observe the ack: anything gating
                // on the ack — the quorum reply gate above all — may then
                // rely on this node already serving that epoch.
                repl.observe_apply(tail.applied, epoch);
                let ack = codec::frame(&codec::encode_request(&Request::ReplAck {
                    correlation_id,
                    applied_epoch: tail.applied,
                }));
                stream.write_all(&ack)?;
            } else {
                repl.observe_apply(tail.applied, epoch);
            }
        }
        if let Some(reason) = ended {
            return Err(io::Error::other(format!("stream ended: {reason}")));
        }
    }
}

/// Blocking read of exactly `buf.len()` bytes on a stream whose read
/// timeout is short; retries timeouts so the handshake survives them.
fn read_exact_with_timeout(stream: &mut TcpStream, buf: &mut [u8]) -> io::Result<()> {
    let mut filled = 0;
    let deadline = Instant::now() + Duration::from_secs(5);
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Err(io::Error::other("primary closed during handshake")),
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == ErrorKind::WouldBlock
                    || e.kind() == ErrorKind::TimedOut
                    || e.kind() == ErrorKind::Interrupted =>
            {
                if Instant::now() >= deadline {
                    return Err(io::Error::other("handshake timed out"));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Stages one shipped chunk at its exact offset into the current staging
/// generation. The cursor re-ships a file from offset 0 after a
/// resubscribe, so a chunk below the staged length truncates and rewrites
/// — idempotent by construction. Durability is deferred: the staged file
/// is only recorded dirty here and fsynced in [`apply_through`], before
/// the ack that makes the primary count these bytes as replicated.
fn stage_chunk(
    gen_dir: &Path,
    tail: &mut Tail,
    name: &str,
    offset: u64,
    bytes: &[u8],
) -> io::Result<()> {
    if name.contains('/') || name.contains('\\') || name == "." || name == ".." {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("shipped file name {name:?} is not a plain file name"),
        ));
    }
    let staged_len = match tail.staged.get(name) {
        Some(&len) => len,
        None => {
            // First chunk of this file in this generation: its directory
            // entry must reach disk before any covering ack.
            tail.dir_dirty = true;
            0
        }
    };
    let mut file = fs::OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(false)
        .open(gen_dir.join(name))?;
    if offset > staged_len {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("gap in shipped stream for {name}: offset {offset} past {staged_len}"),
        ));
    }
    if offset < staged_len {
        file.set_len(offset)?;
    }
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(bytes)?;
    tail.staged
        .insert(name.to_string(), offset + bytes.len() as u64);
    tail.dirty.insert(name.to_string());
    Ok(())
}

/// Applies every staged-but-unapplied batch with commit epoch `<= epoch`
/// into the local engine, bootstrapping from the staged checkpoint on
/// the first call of the generation, then forces a local group commit
/// and fsyncs the staged bytes so the subsequent ack means *durably*
/// applied — in the engine's own WAL and in the staged copy both.
fn apply_through(
    db: &Arc<ReactDB>,
    gen_dir: &Path,
    opts: &FollowerOpts,
    tail: &mut Tail,
    epoch: u64,
) -> io::Result<()> {
    let mut checkpoint_rows: Vec<(TidWord, RedoRecord)> = Vec::new();
    if !tail.bootstrapped {
        if let Some(recovered) = reactdb_wal::load_checkpoint(gen_dir, epoch, opts.replay_workers)?
        {
            tail.checkpoint_floor = recovered.cover_epoch;
            // On a resubscribe the primary's *new* checkpoint may cover
            // epochs this follower already applied; `apply_redo` is
            // TID-idempotent, but filtering here keeps the common case
            // (checkpoint entirely below `applied`) from re-walking
            // every row.
            checkpoint_rows = recovered.rows;
            checkpoint_rows.retain(|(tid, _)| tid.epoch() > tail.applied);
        }
        tail.bootstrapped = true;
    }

    // Re-decode the staged segments and keep what is new this round:
    // batches above the checkpoint floor and the already-applied epoch,
    // at or below the announced epoch. Within one apply call batches are
    // ordered by commit TID, as recovery orders them.
    let floor = tail.checkpoint_floor.max(tail.applied);
    let mut batches: Vec<(TidWord, Vec<RedoRecord>)> = Vec::new();
    for name in tail.staged.keys() {
        if !(name.starts_with("wal-") && name.ends_with(".log")) {
            continue;
        }
        let bytes = fs::read(gen_dir.join(name))?;
        let scan = reactdb_wal::codec::decode_segment(&bytes).ok_or_else(|| {
            io::Error::new(
                ErrorKind::InvalidData,
                format!("staged segment {name} does not decode"),
            )
        })?;
        if let Some(at) = scan.undecodable_at {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                format!("staged segment {name}: frame at byte {at} does not decode"),
            ));
        }
        for (tid, records) in scan.batches {
            if tid.epoch() > floor && tid.epoch() <= epoch {
                batches.push((tid, records));
            }
        }
    }
    batches.sort_by_key(|(tid, _)| (tid.epoch(), tid.version()));

    if !(batches.is_empty() && checkpoint_rows.is_empty()) {
        db.apply_redo(&checkpoint_rows, &batches, opts.replay_workers);
        // The ack promises durability: flush the follower's own WAL.
        db.wal_sync()
            .map_err(|e| io::Error::other(format!("follower group commit failed: {e}")))?;
    }
    // The staged copy is this node's bootstrap source if it restarts as a
    // primary seed; make everything the ack will cover durable too. One
    // batched pass per epoch, not per chunk — the set of dirty files is
    // small and the ack is the durability boundary, not the write.
    for name in tail.dirty.drain() {
        fs::File::open(gen_dir.join(&name))?.sync_data()?;
    }
    if tail.dir_dirty {
        fs::File::open(gen_dir)?.sync_all()?;
        tail.dir_dirty = false;
    }
    tail.applied = epoch;
    Ok(())
}
