//! Facade smoke test that plain `cargo test` (root package only — CI runs
//! `--workspace` as well, but the keep-green rule says both invocations must
//! exercise real suites) drives the full durability vertical through the
//! `reactdb` facade: boot with delta redo logging + record compression,
//! commit through the session API, crash, recover, and check both the
//! recovered state and the delta-path statistics.

use std::collections::BTreeMap;

use reactdb::common::{DeploymentConfig, DurabilityConfig, Value};
use reactdb::engine::ReactDB;
use reactdb::workloads::smallbank::{self, customer_name};

const CUSTOMERS: usize = 4;

fn config(dir: &str, delta: bool) -> DeploymentConfig {
    DeploymentConfig::shared_nothing(2).with_durability(
        DurabilityConfig::epoch_sync(dir)
            .with_interval_ms(0)
            .with_delta_logging(delta)
            .with_compression(delta),
    )
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

#[test]
fn facade_delta_mode_commits_crash_and_recover() {
    let dir = std::env::temp_dir().join(format!("reactdb-workspace-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir = dir.to_string_lossy().into_owned();

    let db = ReactDB::boot(smallbank::spec(CUSTOMERS), config(&dir, true));
    smallbank::load(&db, CUSTOMERS).unwrap();
    let client = db.client();
    for i in 0..24 {
        client
            .invoke(
                &customer_name(i % CUSTOMERS),
                "deposit_checking",
                vec![Value::Float(1.0 + i as f64)],
            )
            .unwrap();
    }
    assert!(
        db.metrics().counter("log_delta_records").unwrap() > 0,
        "repeat balance updates ship as deltas"
    );
    assert!(db.metrics().counter("log_bytes_saved").unwrap() > 0);
    db.wal_sync().unwrap();
    let expected = balances(&db);
    // One unsynced deposit is lost by the crash.
    client
        .invoke(
            &customer_name(0),
            "deposit_checking",
            vec![Value::Float(1e6)],
        )
        .unwrap();
    drop(client);
    db.simulate_crash();

    let recovered = ReactDB::recover(smallbank::spec(CUSTOMERS), config(&dir, true)).unwrap();
    assert_eq!(
        balances(&recovered),
        expected,
        "delta + compressed log recovers the exact durable state"
    );
    // The recovered instance keeps serving and delta-logging.
    recovered
        .invoke(
            &customer_name(1),
            "deposit_checking",
            vec![Value::Float(1.0)],
        )
        .unwrap();
    recovered
        .invoke(
            &customer_name(1),
            "deposit_checking",
            vec![Value::Float(1.0)],
        )
        .unwrap();
    assert!(recovered.metrics().counter("log_delta_records").unwrap() >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}
