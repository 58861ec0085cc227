//! Black-box serializability checking of concurrent executions through the
//! **in-process** session API. The register workload, observation format
//! and dependency-graph checker live in `tests/support/history.rs`, shared
//! with `tests/wire_history_check.rs`, which replays the same check over
//! the TCP wire protocol.
//!
//! The workload runs under every commit path: durability off, epoch-sync
//! group commit, and epoch-sync with delta redo logging + record
//! compression — the log format must never leak into the concurrency
//! semantics.

mod support;

use std::sync::Arc;

use reactdb::common::{DeploymentConfig, DurabilityConfig, Key};
use reactdb::engine::ReactDB;
use support::history::{
    check_history, load, run_and_check, run_workload, shard_name, spec, ReadObs, TxnRecord,
    KEYS_PER_SHARD, SHARDS,
};

fn wal_dir(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!(
        "reactdb-history-check-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir.to_string_lossy().into_owned()
}

#[test]
fn concurrent_histories_are_serializable_with_durability_off() {
    run_and_check(DeploymentConfig::shared_nothing(SHARDS), "durability off");
}

#[test]
fn concurrent_histories_are_serializable_under_epoch_sync() {
    let dir = wal_dir("epoch-sync");
    run_and_check(
        DeploymentConfig::shared_nothing(SHARDS)
            .with_durability(DurabilityConfig::epoch_sync(&dir).with_interval_ms(1)),
        "epoch sync",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_histories_are_serializable_under_delta_logging() {
    let dir = wal_dir("delta");
    let config = DeploymentConfig::shared_nothing(SHARDS).with_durability(
        DurabilityConfig::epoch_sync(&dir)
            .with_interval_ms(1)
            .with_delta_logging(true)
            .with_compression(true),
    );
    let db = Arc::new(ReactDB::boot(spec(), config.clone()));
    load(&db);
    let records = run_workload(&db);
    check_history(&records, "epoch sync + delta");
    assert!(
        db.metrics().counter("log_delta_records").unwrap() > 0,
        "the delta commit path was actually exercised"
    );
    // The log format must not change what recovery computes either: crash,
    // recover, and compare every register against the checker's ledger.
    db.wal_sync().unwrap();
    let expected: Vec<(String, i64, i64)> = (0..SHARDS)
        .flat_map(|s| {
            let db = &db;
            (0..KEYS_PER_SHARD).map(move |k| {
                let row = db
                    .table(&shard_name(s), "regs")
                    .unwrap()
                    .get(&Key::Int(k))
                    .unwrap()
                    .read_unguarded();
                (shard_name(s), k, row.at(1).as_int())
            })
        })
        .collect();
    match Arc::try_unwrap(db) {
        Ok(db) => db.simulate_crash(),
        Err(_) => panic!("a client handle still shares the database Arc after the workload joined"),
    }
    let recovered = ReactDB::recover(spec(), config).unwrap();
    for (shard, key, ver) in expected {
        let row = recovered
            .table(&shard, "regs")
            .unwrap()
            .get(&Key::Int(key))
            .unwrap()
            .read_unguarded();
        assert_eq!(
            row.at(1).as_int(),
            ver,
            "{shard}:{key} recovered through the delta log"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_checker_itself_rejects_a_fabricated_cycle() {
    // Confidence in the checker: hand it a classic write-skew history and
    // make sure it would have caught it. T1 reads x@0,y@0 writes y@1;
    // T2 reads x@0,y@0 writes x@1 — RW edges both ways: a cycle.
    let obs = |key: i64, ver: i64| ReadObs {
        shard: "s".into(),
        key,
        ver,
    };
    let records = vec![
        TxnRecord {
            label: 1,
            reads: vec![obs(0, 0), obs(1, 0)],
            writes: vec![obs(1, 1)],
        },
        TxnRecord {
            label: 2,
            reads: vec![obs(0, 0), obs(1, 0)],
            writes: vec![obs(0, 1)],
        },
    ];
    let caught = std::panic::catch_unwind(|| check_history(&records, "fabricated"));
    assert!(caught.is_err(), "write skew must be rejected");
}
