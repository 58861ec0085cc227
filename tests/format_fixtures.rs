//! The on-disk formats, pinned by committed bytes.
//!
//! The encoder that writes each format and the decoder beside it are its
//! only specification, and a roundtrip test passes whenever both change
//! together. These tests compare against files committed under
//! `tests/fixtures/` instead:
//!
//! * `segment.log`: a WAL segment with full-image and tombstone frames,
//!   covering every key kind and every value kind;
//! * `checkpoint-part.dat`: one checkpoint part file;
//! * `checkpoint-manifest`: a one-layer manifest naming that part;
//! * `durable_epoch`: the 20-byte durable-epoch marker;
//! * `logdir/`: a small SmallBank log directory written by the engine
//!   (segments, marker, manifest and part), which recovers to
//!   `LOGDIR_DIGEST`.
//!
//! Each fixture is decoded to literal expected values and re-encoded byte
//! for byte, and the WAL itself, driven through a fixed history, writes
//! exactly the first four files. A format change therefore shows up as a
//! fixture diff, never as a silent incompatibility between two builds.
//!
//! Regenerate the fixtures with
//! `BLESS_FIXTURES=1 cargo test --test format_fixtures -- --test-threads=1`,
//! then copy the digest it prints into `LOGDIR_DIGEST`
//! (`tests/support/fixtures.rs`).

mod support;

use std::fs;
use std::path::Path;
use std::sync::Arc;

use reactdb::common::bytes::crc32;
use reactdb::common::{
    CheckpointConfig, ContainerId, DurabilityConfig, Key, ReactorId, TracingConfig, Value,
};
use reactdb::engine::ReactDB;
use reactdb::obs::Metrics;
use reactdb::storage::{ColumnType, Schema, Table, TidWord, Tuple};
use reactdb::txn::{EpochManager, LogSink, RedoPayload, RedoRecord};
use reactdb::wal::{codec, CheckpointTable, Checkpointer, Wal};
use reactdb::workloads::smallbank::{self, customer_name};
use support::fixtures::{self, fixture, scratch_dir};

fn bless() -> bool {
    std::env::var_os("BLESS_FIXTURES").is_some()
}

fn record(
    container: u64,
    reactor: u64,
    relation: &str,
    key: Key,
    row: Option<Tuple>,
) -> RedoRecord {
    RedoRecord {
        container: ContainerId(container),
        reactor: ReactorId(reactor),
        relation: relation.into(),
        key,
        payload: row.map_or(RedoPayload::Delete, RedoPayload::Full),
    }
}

/// The batches of `segment.log`: every key kind (bool, int, string,
/// composite), every value kind (null, int, float, string, bool), a
/// batch spanning two containers, and a tombstone.
fn segment_batches() -> Vec<(TidWord, Vec<RedoRecord>)> {
    let kinds = Tuple::of([
        Value::Int(-7),
        Value::Float(2.5),
        Value::Str("héllo".into()),
        Value::Bool(true),
        Value::Null,
    ]);
    vec![
        (
            TidWord::committed(1, 1),
            vec![record(0, 0, "kinds", Key::Int(-7), Some(kinds))],
        ),
        (
            TidWord::committed(1, 2),
            vec![
                record(
                    0,
                    1,
                    "flags",
                    Key::Bool(false),
                    Some(Tuple::of([Value::Bool(false), Value::Int(i64::MAX)])),
                ),
                record(
                    1,
                    2,
                    "names",
                    Key::Str("ab".into()),
                    Some(Tuple::of([Value::Str("ab".into()), Value::Float(-1.25)])),
                ),
            ],
        ),
        (
            TidWord::committed(1, 3),
            vec![
                record(
                    1,
                    2,
                    "pairs",
                    Key::composite([Key::Str("x".into()), Key::Int(3)]),
                    Some(Tuple::of([Value::Str("x".into()), Value::Int(3)])),
                ),
                record(0, 0, "kinds", Key::Int(-7), None),
            ],
        ),
    ]
}

/// The rows of the checkpointed table, as (commit TID, key, image).
fn part_rows() -> Vec<(TidWord, Key, Tuple)> {
    let row = |id: i64, name: &str, x: f64, flag: Value| {
        Tuple::of([
            Value::Int(id),
            Value::Str(name.into()),
            Value::Float(x),
            flag,
        ])
    };
    vec![
        (
            TidWord::committed(1, 4),
            Key::Int(1),
            row(1, "one", 1.5, Value::Bool(true)),
        ),
        (
            TidWord::committed(1, 5),
            Key::Int(2),
            row(2, "two", -2.0, Value::Null),
        ),
        (
            TidWord::committed(1, 6),
            Key::Int(3),
            row(3, "", 0.0, Value::Bool(false)),
        ),
    ]
}

/// The records `checkpoint-part.dat` holds, one per frame.
fn part_batches() -> Vec<(TidWord, Vec<RedoRecord>)> {
    part_rows()
        .into_iter()
        .map(|(tid, key, row)| (tid, vec![record(0, 0, "rows", key, Some(row))]))
        .collect()
}

/// Name of the one part file the manifest fixture names.
const PART_NAME: &str = "ckpt-000001-p00.dat";

/// The bytes the WAL writes for the fixed history.
struct Written {
    segment: Vec<u8>,
    marker: Vec<u8>,
    part: Vec<u8>,
    manifest: Vec<u8>,
}

/// Drives a one-writer WAL through the fixed history in `dir`: the
/// segment batches, one group commit (durable epoch 1), then a one-part
/// checkpoint of the `rows` table at epoch 1.
fn write_fixed_history(dir: &Path) -> Written {
    let epoch = Arc::new(EpochManager::new());
    let metrics = Arc::new(Metrics::new(1, &TracingConfig::off()));
    let config =
        DurabilityConfig::epoch_sync(dir.to_string_lossy().into_owned()).with_interval_ms(0);
    let wal = Wal::open(&config, 1, Arc::clone(&epoch), metrics)
        .unwrap()
        .unwrap();
    for (tid, records) in segment_batches() {
        wal.writer(0).log_commit(tid, &records);
    }
    epoch.advance();
    assert_eq!(wal.sync().unwrap(), 1);
    let segment = fs::read(wal.writer(0).path()).unwrap();
    let marker = fs::read(dir.join("durable_epoch")).unwrap();

    let schema = Schema::of(
        &[
            ("id", ColumnType::Int),
            ("name", ColumnType::Str),
            ("x", ColumnType::Float),
            ("flag", ColumnType::Bool),
        ],
        &["id"],
    );
    let table = Arc::new(Table::new("rows", schema));
    for (tid, key, row) in part_rows() {
        table.replay(&key, Some(&row), tid);
    }
    let checkpointer = Checkpointer::new(
        Arc::clone(&wal),
        vec![CheckpointTable {
            container: ContainerId(0),
            reactor: ReactorId(0),
            relation: "rows".into(),
            table,
        }],
        CheckpointConfig::manual().with_workers(1),
    )
    .unwrap();
    let report = checkpointer.checkpoint_now().unwrap();
    assert_eq!((report.seq, report.epoch, report.parts), (1, 1, 1));
    let part = fs::read(dir.join(PART_NAME)).unwrap();
    let manifest = fs::read(dir.join("checkpoint-manifest")).unwrap();
    checkpointer.shutdown();
    wal.shutdown(false);
    Written {
        segment,
        marker,
        part,
        manifest,
    }
}

fn read_fixture(name: &str) -> Vec<u8> {
    fs::read(fixture(name)).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

/// Re-encodes a decoded frame stream after `header`.
fn reencode(mut out: Vec<u8>, batches: &[(TidWord, Vec<RedoRecord>)]) -> Vec<u8> {
    for (tid, records) in batches {
        codec::encode_batch(&mut out, *tid, records);
    }
    out
}

fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

// ---------------------------------------------------------------------------
// The marker and manifest layouts, written out independently of the WAL
// ---------------------------------------------------------------------------

/// `"RDBEPOCH" epoch:u64 crc32(epoch):u32`, little-endian.
fn encode_marker(epoch: u64) -> Vec<u8> {
    let mut out = b"RDBEPOCH".to_vec();
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&crc32(&epoch.to_le_bytes()).to_le_bytes());
    out
}

fn decode_marker(bytes: &[u8]) -> u64 {
    assert_eq!(bytes.len(), 20);
    assert_eq!(&bytes[..8], b"RDBEPOCH");
    assert_eq!(le_u32(bytes, 16), crc32(&bytes[8..16]));
    u64::from_le_bytes(bytes[8..16].try_into().unwrap())
}

/// One manifest: one layer of parts.
#[derive(Debug, PartialEq)]
struct ManifestFields {
    seq: u64,
    epoch: u64,
    cover_epoch: u64,
    /// (file name, rows, bytes) per part.
    parts: Vec<(String, u64, u64)>,
}

/// `"RDBCKMF2" crc32(payload):u32 payload`, where the payload is
/// `layers:u16 (seq:u64 epoch:u64 cover:u64 delta:u8 parts:u16
/// (name_len:u16 name rows:u64 bytes:u64)*)`. Only one layer with a delta
/// byte of 0 is ever written.
fn encode_manifest(m: &ManifestFields) -> Vec<u8> {
    let mut payload = 1u16.to_le_bytes().to_vec();
    payload.extend_from_slice(&m.seq.to_le_bytes());
    payload.extend_from_slice(&m.epoch.to_le_bytes());
    payload.extend_from_slice(&m.cover_epoch.to_le_bytes());
    payload.push(0);
    payload.extend_from_slice(&(m.parts.len() as u16).to_le_bytes());
    for (name, rows, bytes) in &m.parts {
        payload.extend_from_slice(&(name.len() as u16).to_le_bytes());
        payload.extend_from_slice(name.as_bytes());
        payload.extend_from_slice(&rows.to_le_bytes());
        payload.extend_from_slice(&bytes.to_le_bytes());
    }
    let mut out = b"RDBCKMF2".to_vec();
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn decode_manifest(bytes: &[u8]) -> ManifestFields {
    assert_eq!(&bytes[..8], b"RDBCKMF2");
    let payload = &bytes[12..];
    assert_eq!(le_u32(bytes, 8), crc32(payload));
    let mut pos = 0;
    let mut take = |n: usize| {
        let slice = &payload[pos..pos + n];
        pos += n;
        slice
    };
    let u16_at = |b: &[u8]| u16::from_le_bytes(b.try_into().unwrap());
    let u64_at = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap());
    assert_eq!(u16_at(take(2)), 1, "one layer");
    let seq = u64_at(take(8));
    let epoch = u64_at(take(8));
    let cover_epoch = u64_at(take(8));
    assert_eq!(take(1), [0], "delta byte");
    let count = u16_at(take(2));
    let mut parts = Vec::new();
    for _ in 0..count {
        let len = u16_at(take(2)) as usize;
        let name = String::from_utf8(take(len).to_vec()).unwrap();
        parts.push((name, u64_at(take(8)), u64_at(take(8))));
    }
    assert_eq!(pos, payload.len(), "no trailing bytes");
    ManifestFields {
        seq,
        epoch,
        cover_epoch,
        parts,
    }
}

// ---------------------------------------------------------------------------
// One test per format
// ---------------------------------------------------------------------------

#[test]
fn segment_fixture_decodes_to_its_batches_and_reencodes_byte_identical() {
    let bytes = read_fixture("segment.log");
    let scan = codec::decode_segment(&bytes).expect("segment header");
    assert!(!scan.truncated_tail);
    assert_eq!(scan.batches, segment_batches());
    let mut header = Vec::new();
    codec::encode_header(&mut header, 0, 1);
    assert_eq!(&bytes[..16], &header[..], "executor 0, generation 1");
    assert_eq!(reencode(header, &scan.batches), bytes);
}

#[test]
fn checkpoint_part_fixture_decodes_to_its_rows_and_reencodes_byte_identical() {
    let bytes = read_fixture("checkpoint-part.dat");
    let scan = codec::decode_checkpoint(&bytes).expect("part header");
    assert_eq!((scan.seq, scan.epoch, scan.part), (1, 1, 0));
    assert!(!scan.scan.truncated_tail);
    assert_eq!(scan.scan.batches, part_batches());
    let mut header = Vec::new();
    codec::encode_checkpoint_header(&mut header, 1, 1, 0);
    assert_eq!(reencode(header, &scan.scan.batches), bytes);
}

#[test]
fn manifest_fixture_decodes_to_one_layer_and_reencodes_byte_identical() {
    let bytes = read_fixture("checkpoint-manifest");
    let part_len = read_fixture("checkpoint-part.dat").len() as u64;
    let expected = ManifestFields {
        seq: 1,
        epoch: 1,
        cover_epoch: 1,
        parts: vec![(PART_NAME.into(), 3, part_len)],
    };
    assert_eq!(decode_manifest(&bytes), expected);
    assert_eq!(encode_manifest(&expected), bytes);
}

#[test]
fn marker_fixture_is_epoch_1_and_reencodes_byte_identical() {
    let bytes = read_fixture("durable_epoch");
    assert_eq!(decode_marker(&bytes), 1);
    assert_eq!(encode_marker(1), bytes);
}

#[test]
fn the_wal_writes_the_pinned_bytes() {
    let dir = scratch_dir("formats-write");
    let written = write_fixed_history(&dir);
    let files = [
        ("segment.log", &written.segment),
        ("durable_epoch", &written.marker),
        ("checkpoint-part.dat", &written.part),
        ("checkpoint-manifest", &written.manifest),
    ];
    for (name, bytes) in files {
        if bless() {
            fs::write(fixture(name), bytes).unwrap();
        }
        assert_eq!(
            bytes,
            &read_fixture(name),
            "{name} differs from the fixture"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn the_wal_reads_the_pinned_bytes() {
    // Checkpoint: the manifest and its part load at durable epoch 1.
    let dir = scratch_dir("formats-read");
    fs::copy(
        fixture("checkpoint-manifest"),
        dir.join("checkpoint-manifest"),
    )
    .unwrap();
    fs::copy(fixture("checkpoint-part.dat"), dir.join(PART_NAME)).unwrap();
    let loaded = reactdb::wal::load_checkpoint(&dir, 1, 1)
        .unwrap()
        .expect("the fixture checkpoint loads");
    assert_eq!((loaded.seq, loaded.epoch, loaded.cover_epoch), (1, 1, 1));
    let rows: Vec<(TidWord, Vec<RedoRecord>)> = loaded
        .rows
        .into_iter()
        .map(|(tid, record)| (tid, vec![record]))
        .collect();
    assert_eq!(rows, part_batches());
    assert_eq!(loaded.files, vec![PART_NAME.to_string()]);

    // Log: the marker makes epoch 1 durable, so every segment batch is
    // kept, in commit order.
    let log = scratch_dir("formats-read-log");
    fs::copy(fixture("durable_epoch"), log.join("durable_epoch")).unwrap();
    fs::copy(fixture("segment.log"), log.join("wal-e0000-g000001.log")).unwrap();
    let recovered = reactdb::wal::recover_and_compact(&log).unwrap();
    assert_eq!(recovered.durable_epoch, 1);
    assert_eq!(recovered.truncated_segments, 0);
    assert_eq!(recovered.batches, segment_batches());
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&log);
}

// ---------------------------------------------------------------------------
// The engine-written log directory
// ---------------------------------------------------------------------------

/// Writes a fresh fixture log directory into `dir` with the engine:
/// SmallBank load, six deposits, a checkpoint, four more deposits, one
/// group commit, then a crash. Returns the state digest before the crash.
fn write_logdir(dir: &Path) -> u64 {
    let db = ReactDB::boot(
        smallbank::spec(fixtures::LOGDIR_CUSTOMERS),
        fixtures::logdir_config(dir),
    );
    smallbank::load(&db, fixtures::LOGDIR_CUSTOMERS).unwrap();
    let deposit = |i: usize| {
        db.invoke(
            &customer_name(i % fixtures::LOGDIR_CUSTOMERS),
            "deposit_checking",
            vec![Value::Float(1.0 + i as f64)],
        )
        .unwrap();
    };
    (0..6).for_each(deposit);
    db.wal_sync().unwrap();
    db.checkpoint_now().unwrap();
    (6..10).for_each(deposit);
    db.wal_sync().unwrap();
    let digest = fixtures::state_digest(&db);
    db.simulate_crash();
    let _ = fs::remove_file(dir.join("LOCK"));
    digest
}

#[test]
fn fixture_log_dir_decodes_reencodes_and_recovers_to_its_digest() {
    if bless() {
        let fresh = scratch_dir("logdir-bless");
        let digest = write_logdir(&fresh);
        let target = fixture("logdir");
        let _ = fs::remove_dir_all(&target);
        fixtures::copy_dir(&fresh, &target);
        let _ = fs::remove_dir_all(&fresh);
        println!("LOGDIR_DIGEST = {digest:#018x}");
    }

    let source = fixture("logdir");
    let mut names: Vec<String> = fs::read_dir(&source)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let parts: Vec<&String> = names.iter().filter(|n| n.ends_with(".dat")).collect();
    let segments: Vec<&String> = names.iter().filter(|n| n.ends_with(".log")).collect();
    assert_eq!(parts.len(), 2, "{names:?}");
    assert!(!segments.is_empty(), "{names:?}");
    assert!(names.contains(&"durable_epoch".to_string()));

    // Every file decodes and re-encodes byte for byte.
    let durable = decode_marker(&fs::read(source.join("durable_epoch")).unwrap());
    let manifest_bytes = fs::read(source.join("checkpoint-manifest")).unwrap();
    let manifest = decode_manifest(&manifest_bytes);
    assert_eq!(encode_manifest(&manifest), manifest_bytes);
    assert!(manifest.cover_epoch <= durable);
    let mut checkpoint_rows = 0;
    for (index, (name, rows, len)) in manifest.parts.iter().enumerate() {
        assert_eq!(name, parts[index]);
        let bytes = fs::read(source.join(name)).unwrap();
        let part = codec::decode_checkpoint(&bytes).unwrap();
        assert_eq!((part.seq, part.epoch), (manifest.seq, manifest.epoch));
        assert_eq!(part.part as usize, index);
        assert!(!part.scan.truncated_tail, "{name}");
        assert_eq!(part.scan.batches.len() as u64, *rows);
        assert_eq!(bytes.len() as u64, *len);
        let mut header = Vec::new();
        codec::encode_checkpoint_header(&mut header, part.seq, part.epoch, part.part);
        assert_eq!(reencode(header, &part.scan.batches), bytes, "{name}");
        checkpoint_rows += rows;
    }
    for name in &segments {
        let bytes = fs::read(source.join(name)).unwrap();
        let scan = codec::decode_segment(&bytes).unwrap();
        assert!(!scan.truncated_tail, "{name}");
        let mut header = Vec::new();
        codec::encode_header(&mut header, le_u32(&bytes, 8), le_u32(&bytes, 12));
        assert_eq!(reencode(header, &scan.batches), bytes, "{name}");
    }

    // And the directory recovers to the pinned digest.
    let copy = fixtures::logdir_copy("logdir-recover");
    let db = fixtures::recover(&copy).expect("the fixture log directory recovers");
    assert_eq!(fixtures::state_digest(&db), fixtures::LOGDIR_DIGEST);
    assert_eq!(
        db.metrics().counter("recovered_checkpoint_rows").unwrap(),
        checkpoint_rows
    );
    drop(db);
    let _ = fs::remove_dir_all(&copy);
}
