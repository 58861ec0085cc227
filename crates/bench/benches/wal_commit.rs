//! Durability-cost micro-benchmark: the same single-reactor deposit
//! workload on the live engine with durability off and with epoch-based
//! group commit. The interesting quantity is the overhead the
//! logging fast path (render redo records + buffered append under the
//! writer mutex) adds to a commit — with group commit it should be small,
//! because no disk I/O ever happens on the commit path.
//!
//! The `durable-ack` variant compares the two client acknowledgement modes
//! under epoch-sync durability: serial `invoke` (validation-time ack, one round trip
//! per transaction) against pipelined `submit_batch` with `wait_durable`
//! on every handle (Silo-faithful durable ack, the group commit amortized
//! over the whole batch). Pipelining should win despite paying for
//! durability.
//!
//! The log-volume section runs an update-heavy workload over *wide* rows
//! (one small counter field changes per transaction) and records the log
//! bytes per committed transaction into `CRITERION_JSON` (CI's
//! `BENCH_results.json`). Every update logs its full after-image, so the
//! figure tracks row width; byte counts are deterministic.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use reactdb_common::{DeploymentConfig, DurabilityConfig, Key, Value};
use reactdb_core::{ReactorDatabaseSpec, ReactorType};
use reactdb_engine::{Call, ReactDB};
use reactdb_storage::{ColumnType, RelationDef, Schema, Tuple};
use reactdb_workloads::smallbank::{self, customer_name};

const CUSTOMERS: usize = 8;
/// Transactions per durable-ack batch.
const BATCH: usize = 256;

fn bench_dir(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("reactdb-bench-wal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.to_string_lossy().into_owned()
}

fn boot(durability: DurabilityConfig) -> ReactDB {
    let config = DeploymentConfig::shared_nothing(2).with_durability(durability);
    let db = ReactDB::boot(smallbank::spec(CUSTOMERS), config);
    smallbank::load(&db, CUSTOMERS).unwrap();
    db
}

fn run_deposits(c: &mut Criterion, name: &str, db: &ReactDB) {
    c.bench_function(name, |b| {
        b.iter(|| {
            db.invoke(
                &customer_name(0),
                "deposit_checking",
                vec![Value::Float(0.01)],
            )
            .unwrap()
        })
    });
}

fn bench_wal(c: &mut Criterion) {
    let off = boot(DurabilityConfig::off());
    run_deposits(c, "wal/deposit_durability_off", &off);
    drop(off);

    // Group commit at the default 10 ms interval: commits only pay the
    // buffered append; the sync thread fsyncs on epoch boundaries
    // concurrently.
    let sync_dir = bench_dir("epoch-sync");
    let epoch_sync = boot(DurabilityConfig::epoch_sync(&sync_dir));
    run_deposits(c, "wal/deposit_epoch_sync_group_commit", &epoch_sync);
    let synced = epoch_sync.metrics().counter("log_syncs").unwrap();
    let bytes = epoch_sync.metrics().counter("log_bytes").unwrap();
    drop(epoch_sync);
    println!("wal/deposit_epoch_sync_group_commit: {synced} group commits, {bytes} log bytes");
    let _ = std::fs::remove_dir_all(&sync_dir);
}

/// One batch of deposits, spread round-robin over every customer reactor
/// so a shared-nothing deployment executes across all containers.
fn batch_calls() -> Vec<Call> {
    (0..BATCH)
        .map(|i| {
            Call::new(
                customer_name(i % CUSTOMERS),
                "deposit_checking",
                vec![Value::Float(0.01)],
            )
        })
        .collect()
}

/// Serial validation-time acknowledgement: one blocking `invoke` per
/// transaction (no durability wait — the historical client semantics).
fn run_serial_invoke(db: &ReactDB) {
    let client = db.client();
    for call in batch_calls() {
        client.invoke(&call.reactor, &call.proc, call.args).unwrap();
    }
}

/// Pipelined durable acknowledgement: the whole batch is in flight at
/// once, then every handle waits durable — each wait demands its epoch
/// from the WAL's sync thread, and the group commit is paid once per
/// batch, not once per transaction.
fn run_pipelined_durable(db: &ReactDB) {
    let client = db.client();
    let handles = client.submit_batch(batch_calls()).unwrap();
    for handle in handles.iter().rev() {
        // Reverse order: the last-submitted handle usually carries the
        // highest commit epoch, so its group commit covers the rest.
        handle.wait_durable().unwrap();
    }
}

fn bench_durable_ack(c: &mut Criterion) {
    // Interval 0: no timed group commits, so the durable path pays exactly
    // the group commits `wait_durable` demands — the honest cost of durable
    // acknowledgement, deterministic across hosts. MPL 1 keeps same-reactor
    // deposits serial per executor, so the comparison measures pipelining
    // vs round trips rather than OCC retry behaviour.
    let dir = bench_dir("durable-ack");
    let config = DeploymentConfig::shared_nothing(2)
        .with_mpl(1)
        .with_durability(DurabilityConfig::epoch_sync(&dir).with_interval_ms(0));
    let db = ReactDB::boot(smallbank::spec(CUSTOMERS), config);
    smallbank::load(&db, CUSTOMERS).unwrap();

    c.bench_function("wal/durable_ack_serial_invoke", |b| {
        b.iter(|| run_serial_invoke(&db))
    });
    c.bench_function("wal/durable_ack_pipelined_batch", |b| {
        b.iter(|| run_pipelined_durable(&db))
    });

    // Headline comparison: pipelined submission with the *stronger*
    // durable guarantee must beat serial submission with the weaker one.
    let rounds = 8;
    let start = Instant::now();
    for _ in 0..rounds {
        run_serial_invoke(&db);
    }
    let serial = start.elapsed();
    let start = Instant::now();
    for _ in 0..rounds {
        run_pipelined_durable(&db);
    }
    let pipelined = start.elapsed();
    let txns = (rounds * BATCH) as f64;
    let serial_tps = txns / serial.as_secs_f64();
    let pipelined_tps = txns / pipelined.as_secs_f64();
    println!(
        "wal/durable-ack: serial invoke (validation ack) {serial_tps:.0} txn/s, \
         pipelined submit_batch + wait_durable {pipelined_tps:.0} txn/s \
         ({:.2}x, {} durable waits)",
        pipelined_tps / serial_tps,
        db.metrics().counter("durable_waits").unwrap(),
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Log volume: bytes per committed transaction on wide rows
// ---------------------------------------------------------------------------

/// Transactions per log-volume measurement.
const VOLUME_TXNS: usize = 512;
/// Width of each filler column (the part a full image re-logs every time).
const PAD: usize = 64;

/// A ledger reactor with one wide row: id, eight 64-byte filler columns,
/// and one counter. `bump` increments the counter — the canonical
/// small-field-update-over-wide-row shape (smallbank balances, TPC-C
/// stock/district counters, here exaggerated).
fn ledger_spec() -> ReactorDatabaseSpec {
    let mut columns: Vec<(String, ColumnType)> = vec![("id".into(), ColumnType::Int)];
    for i in 0..8 {
        columns.push((format!("pad{i}"), ColumnType::Str));
    }
    columns.push(("counter".into(), ColumnType::Float));
    let column_refs: Vec<(&str, ColumnType)> =
        columns.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let ledger = ReactorType::new("Ledger")
        .with_relation(RelationDef::new("wide", Schema::of(&column_refs, &["id"])))
        .with_procedure("bump", |ctx, args| {
            let amount = args[0].as_float();
            let row = ctx.update_with("wide", &Key::Int(0), |t| {
                let arity = t.arity();
                let cur = t.at(arity - 1).as_float();
                t.values_mut()[arity - 1] = Value::Float(cur + amount);
            })?;
            Ok(Value::Float(row.at(row.arity() - 1).as_float()))
        });
    let mut spec = ReactorDatabaseSpec::new();
    spec.add_type(ledger);
    spec.add_reactor("ledger-0", "Ledger");
    spec
}

fn load_ledger(db: &ReactDB) {
    let mut values = vec![Value::Int(0)];
    for i in 0..8u8 {
        values.push(Value::Str(
            std::iter::repeat_n(char::from(b'a' + i), PAD).collect(),
        ));
    }
    values.push(Value::Float(0.0));
    db.load_row("ledger-0", "wide", Tuple::of(values)).unwrap();
}

/// Runs `VOLUME_TXNS` counter bumps and returns the log bytes per
/// committed transaction (excluding the load).
fn measure_bytes_per_txn(durability: DurabilityConfig) -> f64 {
    let config = DeploymentConfig::shared_everything_with_affinity(1).with_durability(durability);
    let db = ReactDB::boot(ledger_spec(), config);
    load_ledger(&db);
    let base = db.metrics().counter("log_bytes").unwrap();
    for _ in 0..VOLUME_TXNS {
        db.invoke("ledger-0", "bump", vec![Value::Float(1.0)])
            .unwrap();
    }
    db.wal_sync().unwrap();
    let bytes = db.metrics().counter("log_bytes").unwrap() - base;
    drop(db);
    bytes as f64 / VOLUME_TXNS as f64
}

/// Appends a machine-readable result line next to the criterion shim's
/// output (same JSON-lines schema and escaping — the shim's writer is
/// reused — with the value carried in `ns_per_iter`) so CI's
/// `BENCH_results.json` records the log-volume trajectory per commit.
fn emit_metric(name: &str, value: f64, iterations: usize) {
    let Ok(path) = std::env::var("CRITERION_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    criterion::append_json_line(&path, name, value, iterations as u64);
}

fn bench_update_log_volume(_c: &mut Criterion) {
    let dir = bench_dir("log-volume");
    let full = measure_bytes_per_txn(DurabilityConfig::epoch_sync(&dir).with_interval_ms(0));
    let _ = std::fs::remove_dir_all(&dir);
    println!("wal/log-volume: {full:.1} log bytes per wide-row update txn");
    emit_metric("wal/update_log_bytes_per_txn_full", full, VOLUME_TXNS);
}

criterion_group!(
    benches,
    bench_wal,
    bench_durable_ack,
    bench_update_log_volume
);
criterion_main!(benches);
