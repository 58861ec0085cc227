//! Facade smoke tests run by plain `cargo test` at the root: the full
//! durability vertical through the `reactdb` facade (boot with epoch-sync
//! durability, commit through the session API, checkpoint, crash,
//! recover, check the recovered state), and a check that the root
//! manifest's `default-members` still names every workspace member.

use std::collections::BTreeMap;

use reactdb::common::{DeploymentConfig, DurabilityConfig, Value};
use reactdb::engine::ReactDB;
use reactdb::workloads::smallbank::{self, customer_name};

const CUSTOMERS: usize = 4;

fn config(dir: &str) -> DeploymentConfig {
    DeploymentConfig::shared_nothing(2)
        .with_durability(DurabilityConfig::epoch_sync(dir).with_interval_ms(0))
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
fn facade_durability_commits_crash_and_recover() {
    let dir = std::env::temp_dir().join(format!("reactdb-workspace-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir = dir.to_string_lossy().into_owned();

    let db = ReactDB::boot(smallbank::spec(CUSTOMERS), config(&dir));
    smallbank::load(&db, CUSTOMERS).unwrap();
    let client = db.client();
    let deposit = |i: usize| {
        client
            .invoke(
                &customer_name(i % CUSTOMERS),
                "deposit_checking",
                vec![Value::Float(1.0 + i as f64)],
            )
            .unwrap();
    };
    (0..12).for_each(deposit);
    db.checkpoint_now().unwrap();
    (12..24).for_each(deposit);
    assert!(db.metrics().counter("log_bytes").unwrap() > 0);
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

    let recovered = ReactDB::recover(smallbank::spec(CUSTOMERS), config(&dir)).unwrap();
    assert_eq!(
        balances(&recovered),
        expected,
        "checkpoint + log tail recovers the exact durable state"
    );
    assert!(
        recovered
            .metrics()
            .counter("recovered_checkpoint_rows")
            .unwrap()
            > 0
    );
    // The recovered instance keeps serving and logging.
    let logged = recovered.metrics().counter("log_bytes").unwrap();
    recovered
        .invoke(
            &customer_name(1),
            "deposit_checking",
            vec![Value::Float(1.0)],
        )
        .unwrap();
    assert!(recovered.metrics().counter("log_bytes").unwrap() > logged);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The entries of the root manifest's `key = [ ... ]` array.
fn manifest_list(manifest: &str, key: &str) -> Vec<String> {
    let start = manifest
        .find(&format!("\n{key} = ["))
        .unwrap_or_else(|| panic!("no `{key}` list in Cargo.toml"));
    let body = &manifest[start..];
    let body = &body[body.find('[').unwrap() + 1..body.find(']').unwrap()];
    let mut entries: Vec<String> = body
        .split(',')
        .map(|entry| entry.trim().trim_matches('"').to_owned())
        .filter(|entry| !entry.is_empty())
        .collect();
    entries.sort();
    entries
}

/// Root `cargo test` runs `default-members`, so a crate listed only under
/// `members` would drop out of it without an error.
#[test]
fn default_members_are_the_facade_and_every_member() {
    let manifest = include_str!("../Cargo.toml");
    let mut members = manifest_list(manifest, "members");
    members.push(".".to_owned());
    members.sort();
    assert_eq!(manifest_list(manifest, "default-members"), members);
}
