//! Phantom-safe range scans, end to end: a scan-then-commit transaction
//! racing a committed insert into its scanned range aborts with a
//! phantom-classified error, a `RetryPolicy`-driven retry succeeds, and the
//! statistics separate phantom aborts from ordinary OCC conflicts.
//!
//! Run with `cargo run --release --example phantom_scan`.

use std::time::Duration;

use reactdb::common::{DeploymentConfig, Key, TxnError, Value};
use reactdb::core::{ReactorDatabaseSpec, ReactorType};
use reactdb::storage::{ColumnType, RelationDef, Schema, Tuple};
use reactdb::{ReactDB, RetryPolicy};

fn spec() -> ReactorDatabaseSpec {
    let ledger = ReactorType::new("Ledger")
        .with_relation(RelationDef::new(
            "entries",
            Schema::of(
                &[("id", ColumnType::Int), ("val", ColumnType::Int)],
                &["id"],
            ),
        ))
        .with_procedure("scan_window", |ctx, args| {
            // A bounded scan over [low, high), then a slow post-processing
            // step — the window a racing insert can slip into.
            let low = args[0].as_int();
            let high = args[1].as_int();
            let rows = ctx.scan_bounded("entries", Key::Int(low)..Key::Int(high))?;
            ctx.busy_work(args[2].as_int() as u64);
            Ok(Value::Int(rows.len() as i64))
        })
        .with_procedure("insert_entry", |ctx, args| {
            ctx.insert(
                "entries",
                Tuple::of([Value::Int(args[0].as_int()), Value::Int(0)]),
            )?;
            Ok(Value::Null)
        });
    let mut spec = ReactorDatabaseSpec::new();
    spec.add_type(ledger);
    spec.add_reactor("ledger", "Ledger");
    spec
}

fn main() {
    // Round-robin routing so the scanner and the inserter run on different
    // executors of the shared container.
    let db = ReactDB::boot(
        spec(),
        DeploymentConfig::shared_everything_without_affinity(2),
    );
    for i in 0..100i64 {
        db.load_row(
            "ledger",
            "entries",
            Tuple::of([Value::Int(i), Value::Int(0)]),
        )
        .unwrap();
    }
    let client = db.client();

    // 1. Race a slow scanner of [0, 1000) against a committed insert into
    //    the scanned range: the scanner must abort with a phantom.
    let mut phantom_seen = false;
    for attempt in 0..10 {
        let scanner = client
            .submit(
                "ledger",
                "scan_window",
                vec![Value::Int(0), Value::Int(1000), Value::Int(40_000_000)],
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(5));
        client
            .invoke("ledger", "insert_entry", vec![Value::Int(500 + attempt)])
            .unwrap();
        match scanner.wait() {
            Err(TxnError::Phantom) => {
                println!("scan racing an in-range insert aborted: phantom detected");
                phantom_seen = true;
                break;
            }
            Ok(n) => println!("attempt {attempt}: insert lost the race (scan saw {n:?})"),
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(phantom_seen, "expected at least one phantom abort");

    // 2. The same scan under a retry policy converges to a clean commit.
    let count = client
        .invoke_with_retry(
            "ledger",
            "scan_window",
            vec![Value::Int(0), Value::Int(1000), Value::Int(0)],
            &RetryPolicy::occ(),
        )
        .unwrap();
    println!("retried scan committed: {count:?} rows in [0, 1000)");

    // 3. Phantom aborts are distinguishable from ordinary OCC conflicts —
    //    the metrics snapshot carries the full abort-cause breakdown.
    let metrics = db.metrics();
    let phantom = metrics
        .counter("txn_aborts{reason=\"phantom\"}")
        .unwrap_or(0);
    println!(
        "metrics: committed={} cc_aborts={} phantom_aborts={} scan_ops={}",
        metrics.counter("txn_committed").unwrap_or(0),
        metrics.counter("txn_cc_aborts").unwrap_or(0),
        phantom,
        metrics.counter("scan_ops").unwrap_or(0),
    );
    assert!(phantom >= 1);
    assert!(metrics.counter("txn_cc_aborts").unwrap_or(0) >= phantom);
    assert_eq!(
        db.metrics()
            .counter("txn_aborts{reason=\"phantom\"}")
            .unwrap(),
        phantom,
        "snapshot matches stats"
    );
    println!("session phantom aborts: {}", client.stats().phantom_aborts);
}
