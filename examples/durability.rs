//! Durability walkthrough: epoch-based group commit, durability-aware
//! acknowledgement, and crash recovery.
//!
//! Boots a SmallBank reactor database with epoch-sync durability and shows
//! the two acknowledgement modes of the client API side by side:
//!
//! * `wait_durable()` returns only once the transaction's commit epoch is
//!   covered by a completed group commit — that transaction survives the
//!   simulated crash;
//! * `wait()` returns at validation time, before the epoch synced — a
//!   transaction acknowledged this way past the last group commit is
//!   deliberately lost in the crash.
//!
//! ```sh
//! cargo run --release --example durability
//! ```

use reactdb::common::{DeploymentConfig, DurabilityConfig, Value};
use reactdb::engine::ReactDB;
use reactdb::workloads::smallbank::{self, customer_name, INITIAL_BALANCE};

const CUSTOMERS: usize = 8;

fn balance(db: &ReactDB, customer: usize) -> f64 {
    db.invoke(&customer_name(customer), "balance", vec![])
        .expect("balance query")
        .as_float()
}

fn main() {
    let dir = std::env::temp_dir().join("reactdb-durability-example");
    let _ = std::fs::remove_dir_all(&dir);
    // Interval 0: no timed group commits, so durability is paid exactly
    // where `wait_durable()` demands it — the walkthrough stays
    // deterministic.
    let config = DeploymentConfig::shared_nothing(4).with_durability(
        DurabilityConfig::epoch_sync(dir.to_string_lossy().into_owned()).with_interval_ms(0),
    );
    println!("deployment config:\n{config:#?}\n");

    // ---- First life: load, commit with a durable ack, then crash with an
    // acknowledged-but-unsynced suffix.
    let db = ReactDB::boot(smallbank::spec(CUSTOMERS), config.clone());
    smallbank::load(&db, CUSTOMERS).expect("bulk load");
    let client = db.client();

    let deposit = client
        .submit(
            &customer_name(0),
            "deposit_checking",
            vec![Value::Float(500.0)],
        )
        .expect("submit");
    let multi = client
        .submit(
            &customer_name(0),
            "multi_transfer_opt",
            smallbank::multi_transfer_invocation(0, &[1, 2, 3], 100.0),
        )
        .expect("submit");
    // Durable acknowledgement: blocks until both commit epochs
    // group-committed (fsync + durable-epoch marker advance).
    deposit.wait_durable().expect("durable deposit");
    multi.wait_durable().expect("durable multi-transfer");
    println!(
        "durable ack: commit epoch {:?} <= durable epoch {}, {} group commits, {} redo records, {} log bytes",
        multi.commit_epoch().expect("committed"),
        db.durable_epoch().expect("durability on"),
        db.metrics().counter("log_syncs").unwrap(),
        db.metrics().counter("log_records").unwrap(),
        db.metrics().counter("log_bytes").unwrap(),
    );

    // Validation-time acknowledgement only: committed and visible, but its
    // epoch never syncs before the crash.
    client
        .submit(
            &customer_name(7),
            "deposit_checking",
            vec![Value::Float(9_999_999.0)],
        )
        .expect("submit")
        .wait()
        .expect("acknowledged at validation, never synced");
    println!(
        "before crash: cust-0 = {:.1}, cust-7 = {:.1}",
        balance(&db, 0),
        balance(&db, 7)
    );
    drop(client);
    db.simulate_crash();
    println!("-- simulated crash (buffered redo records dropped) --\n");

    // ---- Second life: recover and inspect what survived.
    let db = ReactDB::recover(smallbank::spec(CUSTOMERS), config).expect("recovery");
    println!(
        "recovered {} transactions from the log (durable epoch {})",
        db.metrics().counter("recovered_txns").unwrap(),
        db.durable_epoch().unwrap_or(0),
    );
    println!(
        "after recovery: cust-0 = {:.1} (durably acked work survived, expected {:.1})",
        balance(&db, 0),
        2.0 * INITIAL_BALANCE + 500.0 - 300.0,
    );
    println!(
        "after recovery: cust-7 = {:.1} (wait()-only deposit lost, expected {:.1})",
        balance(&db, 7),
        2.0 * INITIAL_BALANCE,
    );
    for dst in 1..=3 {
        println!(
            "after recovery: cust-{dst} = {:.1} (transfer credit survived)",
            balance(&db, dst)
        );
    }

    // The recovered database keeps serving transactions — durably.
    let client = db.client();
    client
        .invoke_durable(
            &customer_name(7),
            "deposit_checking",
            vec![Value::Float(1.0)],
        )
        .expect("post-recovery durable commit");
    println!(
        "post-recovery durable deposit: cust-7 = {:.1}",
        balance(&db, 7)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
