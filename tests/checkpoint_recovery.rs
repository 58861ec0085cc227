//! Checkpoint/crash interleaving tests: recovery must restore exactly the
//! durable pre-crash state no matter where in the checkpoint protocol the
//! crash lands — mid-checkpoint (incomplete checkpoint ignored), after the
//! manifest commit but before truncation (covered records re-replay as
//! no-ops), or mid-truncation (a surviving subset of covered segments is
//! equally harmless) — plus a live-writer test: a checkpoint taken under
//! concurrent commits recovers a consistent epoch-prefix.
//!
//! The whole crash matrix runs twice: once with classic full-image redo
//! logging and once with delta redo logging (+ record compression). The
//! two runs perform the same logical history, so the recovered states must
//! be identical *across modes* — asserted with a shared state digest over
//! every row of every relation — which is what pins down the
//! delta/checkpoint interplay: every surviving delta chain must find its
//! base in a checkpoint row or an in-tail full image at every crash
//! point.

mod support;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use reactdb::common::{CheckpointConfig, DeploymentConfig, DurabilityConfig, Value};
use reactdb::engine::ReactDB;
use reactdb::workloads::smallbank::{self, customer_name};
use support::history;

const CUSTOMERS: usize = 6;
const HISTORY_TXNS: usize = 120;
const TAIL_TXNS: usize = 4;

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "reactdb-ckpt-recovery-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn durable_config(dir: &Path, delta: bool) -> DeploymentConfig {
    DeploymentConfig::shared_nothing(3).with_durability(
        DurabilityConfig::epoch_sync(dir.to_string_lossy().into_owned())
            .with_interval_ms(0)
            .with_delta_logging(delta)
            .with_compression(delta),
    )
}

/// Digest of the database's full logical state: every visible row of every
/// relation of every customer, in deterministic order, hashed with FNV-1a.
/// Versions (TIDs) are excluded — they depend on wall-clock epoch timing —
/// so the digest compares exactly what the log format must preserve: the
/// data. Shared by the full-image and delta crash-matrix runs.
fn state_digest(db: &ReactDB) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x100000001b3);
        }
    };
    for customer in 0..CUSTOMERS {
        for relation in ["account", "savings", "checking"] {
            let table = db.table(&customer_name(customer), relation).unwrap();
            for (key, record) in table.scan() {
                if !record.is_visible() {
                    continue;
                }
                eat(relation.as_bytes());
                eat(key.to_string().as_bytes());
                eat(format!("{:?}", record.read_unguarded()).as_bytes());
            }
        }
    }
    hash
}

fn balances(db: &ReactDB) -> BTreeMap<usize, f64> {
    (0..CUSTOMERS)
        .map(|c| {
            (
                c,
                db.invoke(&customer_name(c), "balance", vec![])
                    .unwrap()
                    .as_float(),
            )
        })
        .collect()
}

/// Copies every `wal-*.log` segment of `dir` into `backup`.
fn backup_segments(dir: &Path, backup: &Path) {
    fs::create_dir_all(backup).unwrap();
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap().to_owned();
        if name.starts_with("wal-") && name.ends_with(".log") {
            fs::copy(&path, backup.join(&name)).unwrap();
        }
    }
}

/// Builds the shared scenario: a checkpointed history with a durable tail,
/// crashing at the end. Returns the expected (durable) balances and the
/// path holding pre-checkpoint copies of every segment the checkpoint's
/// truncation may have deleted.
fn build_history(dir: &Path, backup: &Path, delta: bool) -> (BTreeMap<usize, f64>, u64) {
    let config = durable_config(dir, delta);
    let db = ReactDB::boot(smallbank::spec(CUSTOMERS), config);
    smallbank::load(&db, CUSTOMERS).unwrap();
    for i in 0..HISTORY_TXNS {
        db.invoke(
            &customer_name(i % CUSTOMERS),
            "deposit_checking",
            vec![Value::Float(1.0)],
        )
        .unwrap();
        if i % 25 == 24 {
            db.wal_sync().unwrap();
        }
    }
    db.wal_sync().unwrap();
    // Pre-checkpoint segment state: what a crash before truncation would
    // have left behind.
    backup_segments(dir, backup);
    let outcome = db.checkpoint_now().expect("checkpoint");
    assert!(outcome.rows > 0);
    for _ in 0..TAIL_TXNS {
        db.invoke(
            &customer_name(0),
            "deposit_checking",
            vec![Value::Float(5.0)],
        )
        .unwrap();
    }
    db.wal_sync().unwrap();
    if delta {
        assert!(
            db.metrics().counter("log_delta_records").unwrap() > 0,
            "the delta run must actually exercise the delta commit path"
        );
    } else {
        assert_eq!(db.metrics().counter("log_delta_records").unwrap(), 0);
    }
    let expected = balances(&db);
    let digest = state_digest(&db);
    db.simulate_crash();
    (expected, digest)
}

/// The crash points the recovery protocol must tolerate, expressed as
/// post-crash mutations of the log directory.
enum CrashPoint {
    /// Clean run: manifest committed, truncation completed.
    AfterTruncation,
    /// Mid-checkpoint: a later checkpoint attempt died before its manifest
    /// commit, leaving a torn temp file and an unreferenced data file.
    MidCheckpoint,
    /// A parallel part capture died: one writer thread's torn temp file
    /// plus a completed part from the same doomed attempt that never made
    /// it into a manifest.
    MidPartWrite,
    /// The manifest rewrite died after every part was durable: a torn
    /// manifest temp sits next to the committed manifest.
    MidManifest,
    /// Manifest committed, truncation never ran: every covered segment is
    /// still present and re-replays idempotently.
    BeforeTruncation,
    /// Truncation died halfway: only some covered segments were deleted.
    MidTruncation,
}

fn apply_crash_point(point: &CrashPoint, dir: &Path, backup: &Path) {
    match point {
        CrashPoint::AfterTruncation => {}
        CrashPoint::MidCheckpoint => {
            // Debris of an unfinished successor checkpoint: recovery must
            // keep using the committed manifest and clean these up.
            fs::write(dir.join("ckpt.tmp"), b"torn half-written snapshot").unwrap();
            let mut orphan = Vec::new();
            // A decodable header with no manifest pointing at it.
            orphan.extend_from_slice(b"RDBCKPT1");
            orphan.extend_from_slice(&99u64.to_le_bytes());
            orphan.extend_from_slice(&99u64.to_le_bytes());
            fs::write(dir.join("ckpt-000099.dat"), &orphan).unwrap();
        }
        CrashPoint::MidPartWrite => {
            // One writer thread died mid-stream (torn temp), another had
            // already finished its part — neither is manifest-referenced.
            fs::write(dir.join("ckpt-p00.tmp"), b"torn parallel part").unwrap();
            let mut orphan = Vec::new();
            orphan.extend_from_slice(b"RDBCKPT1");
            orphan.extend_from_slice(&98u64.to_le_bytes());
            orphan.extend_from_slice(&98u64.to_le_bytes());
            orphan.extend_from_slice(&1u32.to_le_bytes());
            fs::write(dir.join("ckpt-000098-p01.dat"), &orphan).unwrap();
        }
        CrashPoint::MidManifest => {
            fs::write(
                dir.join("checkpoint-manifest.tmp"),
                b"torn manifest rewrite",
            )
            .unwrap();
        }
        CrashPoint::BeforeTruncation => {
            // Restore every pre-checkpoint segment truncation deleted.
            for entry in fs::read_dir(backup).unwrap() {
                let path = entry.unwrap().path();
                let name = path.file_name().unwrap().to_str().unwrap().to_owned();
                if !dir.join(&name).exists() {
                    fs::copy(&path, dir.join(&name)).unwrap();
                }
            }
        }
        CrashPoint::MidTruncation => {
            // Restore only every other deleted segment.
            for (i, entry) in fs::read_dir(backup).unwrap().enumerate() {
                let path = entry.unwrap().path();
                let name = path.file_name().unwrap().to_str().unwrap().to_owned();
                if i % 2 == 0 && !dir.join(&name).exists() {
                    fs::copy(&path, dir.join(&name)).unwrap();
                }
            }
        }
    }
}

#[test]
fn recovery_tolerates_a_crash_at_every_checkpoint_protocol_step() {
    for (tag, point) in [
        ("clean", CrashPoint::AfterTruncation),
        ("mid-ckpt", CrashPoint::MidCheckpoint),
        ("mid-part", CrashPoint::MidPartWrite),
        ("mid-manifest", CrashPoint::MidManifest),
        ("pre-trunc", CrashPoint::BeforeTruncation),
        ("mid-trunc", CrashPoint::MidTruncation),
    ] {
        // Identical logical history under both log formats; the recovered
        // digests must agree with the pre-crash digests AND across modes.
        let mut digests = Vec::new();
        for delta in [false, true] {
            let mode = if delta { "delta" } else { "full" };
            let dir = test_dir(&format!("{tag}-{mode}"));
            let backup = test_dir(&format!("{tag}-{mode}-backup"));
            let (expected, pre_crash_digest) = build_history(&dir, &backup, delta);
            apply_crash_point(&point, &dir, &backup);

            let recovered =
                ReactDB::recover(smallbank::spec(CUSTOMERS), durable_config(&dir, delta))
                    .unwrap_or_else(|e| panic!("{tag}/{mode}: recovery failed: {e:?}"));
            assert_eq!(
                balances(&recovered),
                expected,
                "{tag}/{mode}: recovered state must equal the durable pre-crash model"
            );
            let recovered_digest = state_digest(&recovered);
            assert_eq!(
                recovered_digest, pre_crash_digest,
                "{tag}/{mode}: recovery reproduces the pre-crash state digest"
            );
            digests.push(recovered_digest);
            assert_eq!(
                recovered
                    .metrics()
                    .counter("recovered_checkpoint_rows")
                    .unwrap(),
                (CUSTOMERS * 3) as u64,
                "{tag}/{mode}: the committed checkpoint supplies the base state"
            );
            match point {
                CrashPoint::AfterTruncation
                | CrashPoint::MidCheckpoint
                | CrashPoint::MidPartWrite
                | CrashPoint::MidManifest => {
                    // Only the tail survives on disk: recovery is
                    // tail-bounded.
                    assert!(
                        recovered.metrics().counter("recovered_txns").unwrap()
                            <= (2 * TAIL_TXNS) as u64,
                        "{tag}/{mode}: expected a tail-bounded replay, got {}",
                        recovered.metrics().counter("recovered_txns").unwrap()
                    );
                }
                CrashPoint::BeforeTruncation | CrashPoint::MidTruncation => {
                    // Covered segments are present but skipped by the
                    // checkpoint-epoch filter, so the replay stays
                    // tail-scale even with the full history restored.
                    assert!(
                        recovered.metrics().counter("recovered_txns").unwrap()
                            < (HISTORY_TXNS / 2) as u64,
                        "{tag}/{mode}: covered records must not be re-replayed at scale, got {}",
                        recovered.metrics().counter("recovered_txns").unwrap()
                    );
                }
            }
            // The debris of an unfinished checkpoint — torn temps, orphan
            // parts, a torn manifest rewrite — is cleaned up.
            for debris in [
                "ckpt.tmp",
                "ckpt-p00.tmp",
                "checkpoint-manifest.tmp",
                "ckpt-000099.dat",
                "ckpt-000098-p01.dat",
            ] {
                assert!(!dir.join(debris).exists(), "{tag}/{mode}: {debris} cleaned");
            }
            // The recovered instance keeps committing and checkpointing.
            recovered
                .invoke(
                    &customer_name(1),
                    "deposit_checking",
                    vec![Value::Float(2.0)],
                )
                .unwrap();
            let next = recovered
                .checkpoint_now()
                .expect("post-recovery checkpoint");
            assert!(next.rows >= (CUSTOMERS * 3) as u64);
            drop(recovered);
            let _ = fs::remove_dir_all(&dir);
            let _ = fs::remove_dir_all(&backup);
        }
        assert_eq!(
            digests[0], digests[1],
            "{tag}: delta-mode recovery must be byte-identical to the \
             full-image control run"
        );
    }
}

#[test]
fn checkpoint_under_concurrent_commits_recovers_a_consistent_prefix() {
    for delta in [false, true] {
        checkpoint_under_live_writers(delta);
    }
}

fn checkpoint_under_live_writers(delta: bool) {
    let dir = test_dir(&format!(
        "live-writer-{}",
        if delta { "delta" } else { "full" }
    ));
    // Real daemons: 1 ms group commits; checkpoints run from this thread
    // while writer threads commit continuously.
    let config = DeploymentConfig::shared_nothing(3).with_durability(
        DurabilityConfig::epoch_sync(dir.to_string_lossy().into_owned())
            .with_interval_ms(1)
            .with_delta_logging(delta)
            .with_compression(delta),
    );
    let db = ReactDB::boot(smallbank::spec(CUSTOMERS), config.clone());
    smallbank::load(&db, CUSTOMERS).unwrap();

    std::thread::scope(|scope| {
        for customer in 0..CUSTOMERS {
            let db = &db;
            scope.spawn(move || {
                for _ in 0..40 {
                    db.invoke(
                        &customer_name(customer),
                        "deposit_checking",
                        vec![Value::Float(1.0)],
                    )
                    .unwrap();
                }
            });
        }
        // Checkpoints interleave with the live writers: no stop-the-world,
        // every capture is fuzzy and completed under the durability gate.
        for _ in 0..3 {
            db.checkpoint_now().expect("live checkpoint");
        }
    });
    assert!(db.metrics().counter("checkpoints_taken").unwrap() >= 3);

    // Everything committed so far becomes durable, then the crash.
    db.wal_sync().unwrap();
    let expected = balances(&db);
    db.simulate_crash();

    let recovered = ReactDB::recover(smallbank::spec(CUSTOMERS), config).unwrap();
    assert_eq!(
        balances(&recovered),
        expected,
        "fuzzy checkpoint + tail replay reproduces the durable state exactly"
    );
    assert!(
        recovered
            .metrics()
            .counter("recovered_checkpoint_rows")
            .unwrap()
            > 0
    );
    assert!(
        recovered.metrics().counter("recovered_txns").unwrap() < (CUSTOMERS * 40) as u64,
        "the checkpoints bounded the replayed tail below the full history"
    );
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Parallel capture / partitioned replay: determinism across worker counts
// and checkpoint modes
// ---------------------------------------------------------------------------

/// Copies every regular file of `src` into `dst` — a byte-level clone of a
/// crashed log directory, so the same log can be recovered more than once.
fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let path = entry.unwrap().path();
        if path.is_file() {
            fs::copy(&path, dst.join(path.file_name().unwrap())).unwrap();
        }
    }
}

/// Builds a deterministic history under `ckpt` (two checkpoints with a
/// skewed update burst in between, plus a durable tail) and crashes.
/// Returns the durable balances, the state digest, and whether the second
/// capture extended the chain as a delta.
fn build_parallel_history(dir: &Path, ckpt: CheckpointConfig) -> (BTreeMap<usize, f64>, u64, bool) {
    let config = durable_config(dir, false).with_checkpoint(ckpt);
    let db = ReactDB::boot(smallbank::spec(CUSTOMERS), config);
    smallbank::load(&db, CUSTOMERS).unwrap();
    for i in 0..HISTORY_TXNS {
        db.invoke(
            &customer_name(i % CUSTOMERS),
            "deposit_checking",
            vec![Value::Float(1.0)],
        )
        .unwrap();
    }
    db.wal_sync().unwrap();
    let first = db.checkpoint_now().expect("chain root");
    assert!(!first.delta, "the chain root is always a full capture");
    assert!(
        first.parts >= 2,
        "two checkpoint writers must split the tables across part files, got {}",
        first.parts
    );
    // Skewed burst: only two customers dirty between the captures.
    for _ in 0..10 {
        for customer in 0..2 {
            db.invoke(
                &customer_name(customer),
                "deposit_checking",
                vec![Value::Float(2.0)],
            )
            .unwrap();
        }
    }
    db.wal_sync().unwrap();
    let second = db.checkpoint_now().expect("second capture");
    if second.delta {
        assert!(
            second.rows < first.rows,
            "a delta capture carries only the dirty rows: {} vs {}",
            second.rows,
            first.rows
        );
    }
    for _ in 0..TAIL_TXNS {
        db.invoke(
            &customer_name(2),
            "deposit_checking",
            vec![Value::Float(5.0)],
        )
        .unwrap();
    }
    db.wal_sync().unwrap();
    let expected = balances(&db);
    let digest = state_digest(&db);
    db.simulate_crash();
    (expected, digest, second.delta)
}

#[test]
fn parallel_recovery_is_deterministic_across_worker_counts_and_checkpoint_modes() {
    // The same logical history captured twice: once as a full+delta chain,
    // once as full-only checkpoints. The pre-crash digests must already
    // agree (the history is deterministic), and every recovery below must
    // reproduce them exactly.
    let delta_dir = test_dir("parallel-det-delta");
    let (expected, digest, was_delta) = build_parallel_history(
        &delta_dir,
        CheckpointConfig::manual()
            .with_workers(2)
            .with_full_every(3),
    );
    assert!(was_delta, "full_every=3 makes the second capture a delta");

    let full_dir = test_dir("parallel-det-full");
    let (full_expected, full_digest, full_was_delta) =
        build_parallel_history(&full_dir, CheckpointConfig::manual().with_workers(2));
    assert!(!full_was_delta, "deltas disabled: every capture is full");
    assert_eq!(expected, full_expected);
    assert_eq!(
        digest, full_digest,
        "identical histories digest identically regardless of checkpoint mode"
    );

    // Each crashed directory recovered with 1 replay lane and with 4: the
    // digests must be byte-identical to each other and to the pre-crash
    // state — partitioned replay may not change what recovery computes.
    for (mode, dir) in [("delta", &delta_dir), ("full", &full_dir)] {
        for workers in [1usize, 4] {
            let copy = test_dir(&format!("parallel-det-{mode}-{workers}w"));
            copy_dir(dir, &copy);
            let config = durable_config(&copy, false).with_checkpoint(
                CheckpointConfig::manual()
                    .with_workers(2)
                    .with_replay_workers(workers),
            );
            let recovered = ReactDB::recover(smallbank::spec(CUSTOMERS), config)
                .unwrap_or_else(|e| panic!("{mode}/{workers}w: recovery failed: {e:?}"));
            assert_eq!(
                balances(&recovered),
                expected,
                "{mode}/{workers}w: balances survive"
            );
            assert_eq!(
                state_digest(&recovered),
                digest,
                "{mode}/{workers}w: recovered digest matches the single-lane ground truth"
            );
            assert_eq!(
                recovered
                    .metrics()
                    .counter("recovery_replay_workers")
                    .unwrap(),
                workers as u64,
                "{mode}/{workers}w: the configured lane count was actually used"
            );
            drop(recovered);
            let _ = fs::remove_dir_all(&copy);
        }
    }

    // Mid-parallel-replay crash: a recovery that dies immediately after
    // its parallel replay (before committing anything new) leaves a
    // directory a second parallel recovery restores identically.
    let config = durable_config(&delta_dir, false).with_checkpoint(
        CheckpointConfig::manual()
            .with_workers(2)
            .with_replay_workers(4),
    );
    let once = ReactDB::recover(smallbank::spec(CUSTOMERS), config.clone()).unwrap();
    assert_eq!(state_digest(&once), digest);
    once.simulate_crash();
    let twice = ReactDB::recover(smallbank::spec(CUSTOMERS), config).unwrap();
    assert_eq!(
        balances(&twice),
        expected,
        "replay is restartable: crashing right after recovery loses nothing"
    );
    assert_eq!(state_digest(&twice), digest);
    drop(twice);
    let _ = fs::remove_dir_all(&delta_dir);
    let _ = fs::remove_dir_all(&full_dir);
}

/// The black-box serializability checker driven across a crash → parallel
/// recovery boundary: version counters live in durable rows, so the
/// combined pre-crash + post-recovery history is checkable as one — any
/// update lost (or resurrected) by parallel capture, the delta chain, or
/// partitioned replay shows up as a duplicate writer, a version gap, or a
/// dependency cycle.
#[test]
fn history_stays_serializable_across_a_crash_and_parallel_recovery() {
    let dir = test_dir("history-parallel");
    let config = DeploymentConfig::shared_nothing(history::SHARDS)
        .with_durability(
            DurabilityConfig::epoch_sync(dir.to_string_lossy().into_owned()).with_interval_ms(1),
        )
        .with_checkpoint(
            CheckpointConfig::manual()
                .with_workers(2)
                .with_full_every(2)
                .with_replay_workers(3),
        );
    let db = ReactDB::boot(history::spec(), config.clone());
    history::load(&db);

    // Concurrent workload, full checkpoint, more workload, delta
    // checkpoint, then a tail the log alone must carry.
    let mut records = history::run_workload(&db);
    let first = db.checkpoint_now().expect("chain root");
    assert!(!first.delta);
    let mut second = history::run_workload(&db);
    for record in &mut second {
        record.label += 1_000_000;
    }
    records.extend(second);
    let extended = db.checkpoint_now().expect("delta capture");
    assert!(extended.delta, "full_every=2 chains a delta onto the root");
    let mut third = history::run_workload(&db);
    for record in &mut third {
        record.label += 2_000_000;
    }
    records.extend(third);
    db.wal_sync().unwrap();
    db.simulate_crash();

    let recovered = ReactDB::recover(history::spec(), config).unwrap();
    assert_eq!(
        recovered
            .metrics()
            .counter("recovery_replay_workers")
            .unwrap(),
        3
    );
    let mut post = history::run_workload(&recovered);
    for record in &mut post {
        record.label += 3_000_000;
    }
    records.extend(post);

    history::assert_commit_mix(&records, "crash + parallel recovery");
    history::check_history(&records, "crash + parallel recovery");
    drop(recovered);
    let _ = fs::remove_dir_all(&dir);
}
