//! Black-box serializability checking of concurrent executions through the
//! **in-process** session API. The register workload, observation format
//! and dependency-graph checker live in `tests/support/history.rs`, shared
//! with `tests/wire_history_check.rs`, which replays the same check over
//! the TCP wire protocol.
//!
//! The workload runs under both commit paths, durability off and
//! epoch-sync group commit: logging must never leak into the concurrency
//! semantics.

mod support;

use reactdb::common::{DeploymentConfig, DurabilityConfig};
use support::history::{check_history, run_and_check, ReadObs, TxnRecord, SHARDS};

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
