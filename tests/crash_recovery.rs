//! Crash-recovery integration test: a SmallBank prefix is committed under
//! epoch-based group commit, the database "crashes" mid-epoch, and recovery
//! must restore exactly the transactions of fully synced epochs — then keep
//! committing with monotonically increasing TIDs.

use reactdb::common::{DeploymentConfig, DurabilityConfig, Key, Value};
use reactdb::engine::{Call, ReactDB};
use reactdb::workloads::smallbank::{self, customer_name, INITIAL_BALANCE};

const CUSTOMERS: usize = 8;

fn wal_dir(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!(
        "reactdb-crash-recovery-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir.to_string_lossy().into_owned()
}

fn durable_config(dir: &str) -> DeploymentConfig {
    // No timed group commits (interval 0) makes the durable/lost boundary
    // deterministic; the timed path is exercised by the WAL unit tests.
    DeploymentConfig::shared_nothing(4)
        .with_durability(DurabilityConfig::epoch_sync(dir).with_interval_ms(0))
}

fn savings_balance(db: &ReactDB, customer: usize) -> f64 {
    db.table(&customer_name(customer), "savings")
        .unwrap()
        .get(&Key::Int(customer as i64))
        .unwrap()
        .read_unguarded()
        .at(1)
        .as_float()
}

fn checking_balance(db: &ReactDB, customer: usize) -> f64 {
    db.table(&customer_name(customer), "checking")
        .unwrap()
        .get(&Key::Int(customer as i64))
        .unwrap()
        .read_unguarded()
        .at(1)
        .as_float()
}

#[test]
fn smallbank_prefix_survives_crash_and_database_resumes() {
    let dir = wal_dir("smallbank");
    let config = durable_config(&dir);

    let db = ReactDB::boot(smallbank::spec(CUSTOMERS), config.clone());
    smallbank::load(&db, CUSTOMERS).unwrap();

    // --- Durable prefix: deposits plus a cross-container multi-transfer.
    for customer in 0..4 {
        db.invoke(
            &customer_name(customer),
            "deposit_checking",
            vec![Value::Float(100.0 + customer as f64)],
        )
        .unwrap();
    }
    db.invoke(
        &customer_name(0),
        "multi_transfer_opt",
        smallbank::multi_transfer_invocation(0, &[1, 2, 3], 50.0),
    )
    .unwrap();
    let durable_epoch = db.wal_sync().expect("durability enabled");
    assert!(durable_epoch >= 1);
    assert!(db.metrics().counter("log_syncs").unwrap() >= 1);
    assert!(db.metrics().counter("log_bytes").unwrap() > 0);

    // --- Mid-epoch suffix: committed and acknowledged, but never synced;
    // the simulated crash must lose it.
    db.invoke(
        &customer_name(5),
        "deposit_checking",
        vec![Value::Float(77_777.0)],
    )
    .unwrap();
    db.invoke(
        &customer_name(4),
        "multi_transfer_opt",
        smallbank::multi_transfer_invocation(4, &[5, 6], 1_000.0),
    )
    .unwrap();
    db.simulate_crash();

    // --- Recover and verify the durable prefix, row by row.
    let recovered = ReactDB::recover(smallbank::spec(CUSTOMERS), config.clone()).unwrap();
    assert!(
        recovered.metrics().counter("recovered_txns").unwrap() >= 5,
        "expected the synced prefix to replay, got {}",
        recovered.metrics().counter("recovered_txns").unwrap()
    );
    for customer in 0..4 {
        let balance = recovered
            .invoke(&customer_name(customer), "balance", vec![])
            .unwrap()
            .as_float();
        let expected = 2.0 * INITIAL_BALANCE
            + 100.0
            + customer as f64
            + if customer == 0 { -150.0 } else { 50.0 };
        assert!(
            (balance - expected).abs() < 1e-9,
            "customer {customer}: got {balance}, expected {expected}"
        );
    }
    // The unsynced suffix is gone: balances 4..=6 are untouched.
    assert_eq!(savings_balance(&recovered, 4), INITIAL_BALANCE);
    assert_eq!(savings_balance(&recovered, 5), INITIAL_BALANCE);
    let checking5 = recovered
        .table(&customer_name(5), "checking")
        .unwrap()
        .get(&Key::Int(5))
        .unwrap()
        .read_unguarded()
        .at(1)
        .as_float();
    assert_eq!(
        checking5, INITIAL_BALANCE,
        "unsynced deposit must not resurface"
    );

    // --- The recovered database resumes committing, with commit TIDs that
    // dominate every replayed TID.
    let replayed_tid = recovered
        .table(&customer_name(1), "savings")
        .unwrap()
        .get(&Key::Int(1))
        .unwrap()
        .tid();
    assert!(replayed_tid.version() > 0);
    recovered
        .invoke(
            &customer_name(1),
            "transact_saving",
            vec![Value::Float(5.0)],
        )
        .unwrap();
    let new_tid = recovered
        .table(&customer_name(1), "savings")
        .unwrap()
        .get(&Key::Int(1))
        .unwrap()
        .tid();
    assert!(
        new_tid.version() > replayed_tid.version(),
        "recovered TID generation must stay monotonic: {replayed_tid:?} -> {new_tid:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn double_crash_recovery_is_stable() {
    // Recover, commit more, crash again, recover again: both durable
    // generations must be visible exactly once.
    let dir = wal_dir("double");
    let config = durable_config(&dir);

    let db = ReactDB::boot(smallbank::spec(CUSTOMERS), config.clone());
    smallbank::load(&db, CUSTOMERS).unwrap();
    db.invoke(
        &customer_name(0),
        "transact_saving",
        vec![Value::Float(10.0)],
    )
    .unwrap();
    db.wal_sync().unwrap();
    db.simulate_crash();

    let db = ReactDB::recover(smallbank::spec(CUSTOMERS), config.clone()).unwrap();
    db.invoke(
        &customer_name(0),
        "transact_saving",
        vec![Value::Float(7.0)],
    )
    .unwrap();
    db.wal_sync().unwrap();
    db.invoke(
        &customer_name(0),
        "transact_saving",
        vec![Value::Float(100_000.0)],
    )
    .unwrap();
    db.simulate_crash();

    let db = ReactDB::recover(smallbank::spec(CUSTOMERS), config.clone()).unwrap();
    assert_eq!(
        savings_balance(&db, 0),
        INITIAL_BALANCE + 17.0,
        "both durable increments applied exactly once, unsynced one lost"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_ack_survives_crash_but_validation_ack_may_not() {
    // The two acknowledgement modes of the client API, asserted in both
    // directions across a crash:
    //
    // * a transaction acknowledged by `wait_durable()` has its commit epoch
    //   covered by a completed group commit — recovery MUST restore it;
    // * a transaction merely `wait()`-ed is acknowledged at validation
    //   time, before its epoch synced — this one commits after the last
    //   group commit and MUST be lost by the crash.
    let dir = wal_dir("durable-ack");
    let config = durable_config(&dir);
    let db = ReactDB::boot(smallbank::spec(CUSTOMERS), config.clone());
    smallbank::load(&db, CUSTOMERS).unwrap();

    {
        let client = db.client();
        let durable = client
            .submit(
                &customer_name(1),
                "deposit_checking",
                vec![Value::Float(250.0)],
            )
            .unwrap();
        let value = durable.wait_durable().expect("durable acknowledgement");
        assert_eq!(value, Value::Float(INITIAL_BALANCE + 250.0));
        let commit_epoch = durable.commit_epoch().expect("committed write");
        assert!(
            db.durable_epoch().unwrap() >= commit_epoch,
            "wait_durable returns only once durable_epoch covers the commit"
        );

        // Submitted after the group commit above, acknowledged at
        // validation only: its epoch is strictly beyond the durable marker
        // and no further sync happens before the crash (interval 0).
        let risky = client
            .submit(
                &customer_name(2),
                "deposit_checking",
                vec![Value::Float(77_777.0)],
            )
            .unwrap();
        risky.wait().expect("validation acknowledgement");
        assert_eq!(client.stats().committed, 2);
    }
    db.simulate_crash();

    let recovered = ReactDB::recover(smallbank::spec(CUSTOMERS), config).unwrap();
    assert_eq!(
        checking_balance(&recovered, 1),
        INITIAL_BALANCE + 250.0,
        "durably acknowledged transaction must survive the crash"
    );
    assert_eq!(
        checking_balance(&recovered, 2),
        INITIAL_BALANCE,
        "validation-acknowledged transaction past the last sync is lost"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn many_sessions_pipeline_handles_and_all_durable_acks_survive() {
    const SESSIONS: usize = 4;
    const PER_SESSION: usize = 25;
    let dir = wal_dir("many-sessions");
    // Timed group commits too: durable waiters park until the sync
    // thread's group commit (timed or demanded) covers them. MPL 1
    // serializes each session's same-customer deposits on its executor, so
    // none of the pipelined handles can abort on OCC validation.
    let config = DeploymentConfig::shared_nothing(4)
        .with_mpl(1)
        .with_durability(DurabilityConfig::epoch_sync(&dir).with_interval_ms(1));
    let db = ReactDB::boot(smallbank::spec(CUSTOMERS), config.clone());
    smallbank::load(&db, CUSTOMERS).unwrap();

    std::thread::scope(|scope| {
        for session in 0..SESSIONS {
            let client = db.client();
            scope.spawn(move || {
                // Pipeline a full batch, then require the durable ack for
                // every handle. Distinct customers per session: no
                // cross-session validation aborts.
                let handles = client
                    .submit_batch((0..PER_SESSION).map(|_| {
                        Call::new(
                            customer_name(session),
                            "deposit_checking",
                            vec![Value::Float(1.0)],
                        )
                    }))
                    .unwrap();
                for handle in &handles {
                    handle.wait_durable().expect("durable acknowledgement");
                }
                let stats = client.stats();
                assert_eq!(stats.submitted, PER_SESSION as u64);
                assert_eq!(stats.committed, PER_SESSION as u64);
                assert_eq!(stats.in_flight, 0);
                // No depth assertion here: how far the batch overlaps
                // depends on host scheduling. The deterministic pipelining-
                // depth check (with deliberately slow transactions) lives
                // in the engine's client_pipelines_handles unit test.
                assert!(stats.in_flight_hwm >= 1);
            });
        }
    });

    assert!(db.metrics().counter("client_committed").unwrap() >= (SESSIONS * PER_SESSION) as u64);
    assert_eq!(db.metrics().gauge("handles_in_flight"), Some(0.0));
    assert!(db.metrics().counter("handles_in_flight_hwm").unwrap() >= 1);
    db.simulate_crash();

    // Every durably acknowledged deposit survives the crash.
    let recovered = ReactDB::recover(smallbank::spec(CUSTOMERS), config).unwrap();
    for session in 0..SESSIONS {
        assert_eq!(
            checking_balance(&recovered, session),
            INITIAL_BALANCE + PER_SESSION as f64,
            "session {session}: all durably acknowledged deposits survive"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
