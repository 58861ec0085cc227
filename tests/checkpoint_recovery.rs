//! Checkpoint/crash interleaving tests: recovery must restore exactly the
//! durable pre-crash state no matter where in the checkpoint protocol the
//! crash lands — mid-checkpoint (incomplete checkpoint ignored), after the
//! manifest commit but before truncation (covered records re-replay as
//! no-ops), or mid-truncation (a surviving subset of covered segments is
//! equally harmless) — plus a live-writer test: a checkpoint taken under
//! concurrent commits recovers a consistent epoch-prefix. Every recovered
//! state is compared with the pre-crash one through a digest over every
//! row of every relation.

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

fn durable_config(dir: &Path) -> DeploymentConfig {
    DeploymentConfig::shared_nothing(3).with_durability(
        DurabilityConfig::epoch_sync(dir.to_string_lossy().into_owned()).with_interval_ms(0),
    )
}

/// Digest of the database's full logical state: every visible row of every
/// relation of every customer, in deterministic order, hashed with FNV-1a.
/// Versions (TIDs) are excluded — they depend on wall-clock epoch timing —
/// so the digest compares exactly what the log format must preserve: the
/// data.
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
fn build_history(dir: &Path, backup: &Path) -> (BTreeMap<usize, f64>, u64) {
    let config = durable_config(dir);
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
        let dir = test_dir(tag);
        let backup = test_dir(&format!("{tag}-backup"));
        let (expected, pre_crash_digest) = build_history(&dir, &backup);
        apply_crash_point(&point, &dir, &backup);

        let recovered = ReactDB::recover(smallbank::spec(CUSTOMERS), durable_config(&dir))
            .unwrap_or_else(|e| panic!("{tag}: recovery failed: {e:?}"));
        assert_eq!(
            balances(&recovered),
            expected,
            "{tag}: recovered state must equal the durable pre-crash model"
        );
        assert_eq!(
            state_digest(&recovered),
            pre_crash_digest,
            "{tag}: recovery reproduces the pre-crash state digest"
        );
        assert_eq!(
            recovered
                .metrics()
                .counter("recovered_checkpoint_rows")
                .unwrap(),
            (CUSTOMERS * 3) as u64,
            "{tag}: the committed checkpoint supplies the base state"
        );
        let replayed = recovered.metrics().counter("recovered_txns").unwrap();
        match point {
            CrashPoint::AfterTruncation
            | CrashPoint::MidCheckpoint
            | CrashPoint::MidPartWrite
            | CrashPoint::MidManifest => {
                // Only the tail survives on disk: recovery is tail-bounded.
                assert!(
                    replayed <= (2 * TAIL_TXNS) as u64,
                    "{tag}: expected a tail-bounded replay, got {replayed}"
                );
            }
            CrashPoint::BeforeTruncation | CrashPoint::MidTruncation => {
                // Covered segments are present but skipped by the
                // checkpoint-epoch filter, so the replay stays tail-scale
                // even with the full history restored.
                assert!(
                    replayed < (HISTORY_TXNS / 2) as u64,
                    "{tag}: covered records must not be re-replayed at scale, got {replayed}"
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
            assert!(!dir.join(debris).exists(), "{tag}: {debris} cleaned");
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
}

#[test]
fn checkpoint_under_concurrent_commits_recovers_a_consistent_prefix() {
    let dir = test_dir("live-writer");
    // Real daemons: 1 ms group commits; checkpoints run from this thread
    // while writer threads commit continuously.
    let config = DeploymentConfig::shared_nothing(3).with_durability(
        DurabilityConfig::epoch_sync(dir.to_string_lossy().into_owned()).with_interval_ms(1),
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
// and checkpoint part fan-outs
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
/// Returns the durable balances and the state digest.
fn build_parallel_history(dir: &Path, ckpt: CheckpointConfig) -> (BTreeMap<usize, f64>, u64) {
    let config = durable_config(dir).with_checkpoint(ckpt);
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
    let first = db.checkpoint_now().expect("first capture");
    assert_eq!(
        first.parts, ckpt.workers as u64,
        "each checkpoint writer fills its own part file"
    );
    // Skewed burst: only two customers change between the captures.
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
    assert_eq!(second.rows, first.rows, "every capture is a full one");
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
    (expected, digest)
}

#[test]
fn parallel_recovery_is_deterministic_across_worker_counts_and_checkpoint_modes() {
    // The same logical history captured twice: once split across two
    // checkpoint part files, once into one. The pre-crash digests must
    // already agree (the history is deterministic), and every recovery
    // below must reproduce them exactly.
    let split_dir = test_dir("parallel-det-split");
    let (expected, digest) =
        build_parallel_history(&split_dir, CheckpointConfig::manual().with_workers(2));
    let single_dir = test_dir("parallel-det-single");
    let (single_expected, single_digest) =
        build_parallel_history(&single_dir, CheckpointConfig::manual().with_workers(1));
    assert_eq!(expected, single_expected);
    assert_eq!(
        digest, single_digest,
        "identical histories digest identically regardless of the part fan-out"
    );

    // Each crashed directory recovered with 1 replay lane and with 4: the
    // digests must be byte-identical to each other and to the pre-crash
    // state — partitioned replay may not change what recovery computes.
    for (mode, dir) in [("split", &split_dir), ("single", &single_dir)] {
        for workers in [1usize, 4] {
            let copy = test_dir(&format!("parallel-det-{mode}-{workers}w"));
            copy_dir(dir, &copy);
            let config = durable_config(&copy).with_checkpoint(
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
    let config = durable_config(&split_dir).with_checkpoint(
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
    let _ = fs::remove_dir_all(&split_dir);
    let _ = fs::remove_dir_all(&single_dir);
}

/// The black-box serializability checker driven across a crash → parallel
/// recovery boundary: version counters live in durable rows, so the
/// combined pre-crash + post-recovery history is checkable as one — any
/// update lost (or resurrected) by parallel capture, a later checkpoint,
/// or partitioned replay shows up as a duplicate writer, a version gap, or
/// a dependency cycle.
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
                .with_replay_workers(3),
        );
    let db = ReactDB::boot(history::spec(), config.clone());
    history::load(&db);

    // Concurrent workload, checkpoint, more workload, a second checkpoint,
    // then a tail the log alone must carry.
    let mut records = history::run_workload(&db);
    let first = db.checkpoint_now().expect("first checkpoint");
    let mut second = history::run_workload(&db);
    for record in &mut second {
        record.label += 1_000_000;
    }
    records.extend(second);
    let later = db.checkpoint_now().expect("second checkpoint");
    assert!(later.seq > first.seq && later.epoch >= first.epoch);
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
