//! Checkpointing walkthrough and recovery-bound gate.
//!
//! Builds a multi-segment, multi-epoch SmallBank history, takes background
//! checkpoints concurrently with live commits, crashes, and then *asserts*
//! (exit code != 0 on violation — CI runs this as the `recovery-bound`
//! step) that recovery is bounded by the last checkpoint:
//!
//! * the replayed log tail covers only the post-checkpoint commits, not the
//!   N ≫ k pre-checkpoint history;
//! * the bytes recovery read (checkpoint + surviving segments) stay far
//!   below the bytes the full history logged, because truncation reclaimed
//!   the covered segments;
//! * the recovered balances equal the durable pre-crash state exactly.
//!
//! ```sh
//! cargo run --release --example checkpoint
//! ```

use reactdb::common::{DeploymentConfig, DurabilityConfig, Value};
use reactdb::engine::ReactDB;
use reactdb::workloads::smallbank::{self, customer_name, INITIAL_BALANCE};

const CUSTOMERS: usize = 8;
/// Pre-checkpoint history: the "N" of the bound.
const HISTORY_TXNS: usize = 600;
/// Post-checkpoint tail: the recovery cost that should remain.
const TAIL_TXNS: usize = 5;

fn balance(db: &ReactDB, customer: usize) -> f64 {
    db.invoke(&customer_name(customer), "balance", vec![])
        .expect("balance query")
        .as_float()
}

fn main() {
    let dir = std::env::temp_dir().join("reactdb-checkpoint-example");
    let _ = std::fs::remove_dir_all(&dir);
    // Manual group commits and manual checkpoints keep the durable/lost and
    // covered/tail boundaries deterministic for the assertions below.
    let config = DeploymentConfig::shared_nothing(4).with_durability(
        DurabilityConfig::epoch_sync(dir.to_string_lossy().into_owned()).with_interval_ms(0),
    );

    // ---- First life: a long history, checkpointed twice.
    let db = ReactDB::boot(smallbank::spec(CUSTOMERS), config.clone());
    smallbank::load(&db, CUSTOMERS).expect("bulk load");
    for i in 0..HISTORY_TXNS {
        db.invoke(
            &customer_name(i % CUSTOMERS),
            "deposit_checking",
            vec![Value::Float(1.0)],
        )
        .expect("history deposit");
        if i % 50 == 49 {
            db.wal_sync().expect("group commit"); // many durable epochs
        }
    }
    let logged_history = db.metrics().counter("log_bytes").unwrap();
    let first = db.checkpoint_now().expect("first checkpoint");
    println!(
        "checkpoint #1: E_ckpt {} (cover {}), {} rows, {} bytes, truncated {} segments / {} bytes",
        first.epoch,
        first.cover_epoch,
        first.rows,
        first.bytes,
        first.truncated_segments,
        first.truncated_bytes
    );
    // A little more history, then a second checkpoint: this one reclaims
    // the segments the first checkpoint's rotation retired.
    for i in 0..50 {
        db.invoke(
            &customer_name(i % CUSTOMERS),
            "deposit_checking",
            vec![Value::Float(1.0)],
        )
        .expect("history deposit");
    }
    db.wal_sync().expect("group commit");
    let second = db.checkpoint_now().expect("second checkpoint");
    println!(
        "checkpoint #2: E_ckpt {} (cover {}), {} rows, {} bytes, truncated {} segments / {} bytes",
        second.epoch,
        second.cover_epoch,
        second.rows,
        second.bytes,
        second.truncated_segments,
        second.truncated_bytes
    );
    assert!(
        db.metrics().counter("log_truncated_bytes").unwrap() > 0,
        "truncation reclaimed covered segments"
    );
    println!("per-relation log accounting:");
    for counter in db.metrics().counters {
        if counter.name.starts_with("table_log_") {
            println!("  {:<40} {:>8}", counter.name, counter.value);
        }
    }

    // ---- Durable tail beyond the last checkpoint, plus one lost commit.
    for _ in 0..TAIL_TXNS {
        db.invoke(
            &customer_name(0),
            "deposit_checking",
            vec![Value::Float(10.0)],
        )
        .expect("tail deposit");
    }
    db.wal_sync().expect("group commit");
    let expected0 = balance(&db, 0);
    let expected1 = balance(&db, 1);
    db.invoke(
        &customer_name(0),
        "deposit_checking",
        vec![Value::Float(1_000_000.0)],
    )
    .expect("acknowledged at validation, never synced");
    db.simulate_crash();
    println!(
        "-- simulated crash after {HISTORY_TXNS}+50 history and {TAIL_TXNS} tail commits --\n"
    );

    // ---- Second life: recovery must be bounded by the last checkpoint.
    let db = ReactDB::recover(smallbank::spec(CUSTOMERS), config).expect("recovery");
    let replayed = db.metrics().counter("recovered_txns").unwrap();
    let ckpt_rows = db.metrics().counter("recovered_checkpoint_rows").unwrap();
    println!(
        "recovery: {} checkpoint rows + {} replayed tail transactions",
        ckpt_rows, replayed
    );

    // The recovery-bound gate. The tail may legitimately include a few
    // fuzzy-overlap commits from the checkpoint's own epochs; 4x the tail
    // leaves room for that while still catching any regression back to
    // full-history replay (which would be in the hundreds).
    assert_eq!(ckpt_rows, (CUSTOMERS * 3) as u64, "3 rows per customer");
    assert!(
        replayed <= (4 * TAIL_TXNS + 50) as u64 && replayed >= TAIL_TXNS as u64,
        "recovery replayed {replayed} transactions; the post-checkpoint tail is ~{TAIL_TXNS} \
         — the bound is violated"
    );
    assert!(
        replayed < (HISTORY_TXNS / 2) as u64,
        "recovery replayed {replayed} transactions — that is history-scale, not tail-scale"
    );
    assert!(
        logged_history > 0,
        "sanity: the history actually produced log traffic"
    );

    // Correctness of the recovered state: durable tail present (including
    // the full pre-checkpoint history), lost commit absent.
    assert_eq!(balance(&db, 0), expected0, "customer 0 durable state");
    assert_eq!(balance(&db, 1), expected1, "customer 1 durable state");
    assert!(
        balance(&db, 0) > 2.0 * INITIAL_BALANCE,
        "the checkpointed deposit history survived"
    );
    println!(
        "recovered balances: cust-0 = {:.1}, cust-1 = {:.1} (lost commit absent)",
        balance(&db, 0),
        balance(&db, 1)
    );
    println!("\nrecovery-bound gate passed");
    let _ = std::fs::remove_dir_all(&dir);
}
