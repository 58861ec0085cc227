//! The black-box serializability check from `tests/history_check.rs`,
//! replayed **over the wire**: the same register workload drives a spawned
//! `reactdb-server` through `reactdb-client` TCP connections instead of
//! in-process sessions. The checker is identical (shared via
//! `tests/support/history.rs`) — framing, pipelining, correlation-id
//! dispatch and the network ack paths must not change what histories the
//! engine admits.

mod support;

use std::sync::Arc;

use reactdb::common::{DeploymentConfig, DurabilityConfig, Value};
use reactdb::engine::ReactDB;
use reactdb_client::WireClient;
use reactdb_server::{Server, ServerConfig};
use support::history::{assert_commit_mix, check_history, load, run_workload_with, spec, SHARDS};

fn wal_dir(tag: &str) -> String {
    let dir =
        std::env::temp_dir().join(format!("reactdb-wire-history-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.to_string_lossy().into_owned()
}

#[test]
fn wire_histories_are_serializable() {
    let db = Arc::new(ReactDB::boot(
        spec(),
        DeploymentConfig::shared_nothing(SHARDS),
    ));
    load(&db);
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // One TCP connection per worker thread; validation-time acks.
    let records = run_workload_with(|_| {
        let client = WireClient::connect(addr).expect("connect");
        move |reactor: &str, procedure: &str, args: Vec<Value>| {
            client.invoke(reactor, procedure, args)
        }
    });
    assert_commit_mix(&records, "wire");
    check_history(&records, "wire");

    let snap = server.metrics_snapshot();
    assert!(
        snap.counter("net_requests").unwrap() > 0,
        "requests flowed over the wire"
    );
    assert_eq!(
        snap.gauge("net_requests_in_flight"),
        Some(0.0),
        "no transaction left in flight after the workload joined"
    );
    server.shutdown();
    drop(db);
}

#[test]
fn wire_histories_are_serializable_with_durable_acks() {
    let dir = wal_dir("durable");
    let config = DeploymentConfig::shared_nothing(SHARDS)
        .with_durability(DurabilityConfig::epoch_sync(&dir).with_interval_ms(1));
    let db = Arc::new(ReactDB::boot(spec(), config));
    load(&db);
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // Durable acks: the server withholds each response until the commit
    // epoch is on stable storage (the SiloR rule) — the observed histories
    // must be serializable all the same.
    let records = run_workload_with(|_| {
        let client = WireClient::connect(addr).expect("connect");
        move |reactor: &str, procedure: &str, args: Vec<Value>| {
            client.invoke_durable(reactor, procedure, args)
        }
    });
    assert_commit_mix(&records, "wire durable");
    check_history(&records, "wire durable");

    server.shutdown();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
