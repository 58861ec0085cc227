//! Robustness tests for the wire-protocol server: hostile and unlucky
//! clients must damage at most their own connection, backpressure must
//! shed load without corrupting sessions, and shutdown must drain cleanly
//! and release the WAL directory lock.

mod support;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use reactdb::common::{DeploymentConfig, DurabilityConfig, Value};
use reactdb::core::{ReactorDatabaseSpec, ReactorType};
use reactdb::engine::ReactDB;
use reactdb::wal::failpoint;
use reactdb::workloads::smallbank;
use reactdb_client::{codec, WireClient};
use reactdb_server::{Server, ServerConfig};
use support::history::{load, spec, SHARDS};

fn boot_server(config: ServerConfig) -> (Server, Arc<ReactDB>) {
    let db = Arc::new(ReactDB::boot(
        spec(),
        DeploymentConfig::shared_nothing(SHARDS),
    ));
    load(&db);
    let server = Server::start(Arc::clone(&db), config).unwrap();
    (server, db)
}

/// One of the server's exported counters.
fn counter(server: &Server, name: &str) -> u64 {
    server.metrics_snapshot().counter(name).unwrap()
}

/// One of the server's exported gauges.
fn gauge(server: &Server, name: &str) -> f64 {
    server.metrics_snapshot().gauge(name).unwrap()
}

/// Polls until `cond` holds or the deadline passes.
fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn version_mismatch_is_rejected_with_the_server_version_echoed() {
    let (server, db) = boot_server(ServerConfig::default());

    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut hello = codec::client_hello();
    hello[4..6].copy_from_slice(&99u16.to_le_bytes()); // future protocol
    raw.write_all(&hello).unwrap();

    let mut reply = [0u8; codec::HANDSHAKE_LEN];
    raw.read_exact(&mut reply).unwrap();
    match codec::parse_server_hello(&reply) {
        Err(codec::WireError::VersionMismatch { client, server }) => {
            assert_eq!(client, codec::PROTOCOL_VERSION);
            assert_eq!(server, codec::PROTOCOL_VERSION);
        }
        other => panic!("expected a version-mismatch rejection, got {other:?}"),
    }
    // The server closes after rejecting.
    let mut scratch = [0u8; 1];
    assert_eq!(raw.read(&mut scratch).unwrap(), 0, "connection closed");
    eventually("rejected connection accounted", || {
        counter(&server, "net_connections_rejected") == 1
    });

    // A correct-version client on the same server is unaffected.
    let client = WireClient::connect(server.local_addr()).unwrap();
    client.ping().unwrap();
    server.shutdown();
    drop(db);
}

#[test]
fn malformed_frames_kill_only_the_offending_connection() {
    let (server, db) = boot_server(ServerConfig::default());
    let addr = server.local_addr();

    // A healthy session, established first.
    let healthy = WireClient::connect(addr).unwrap();
    healthy.ping().unwrap();

    // An attacker session: valid handshake, then a frame whose CRC lies.
    let mut evil = TcpStream::connect(addr).unwrap();
    evil.write_all(&codec::client_hello()).unwrap();
    let mut reply = [0u8; codec::HANDSHAKE_LEN];
    evil.read_exact(&mut reply).unwrap();
    codec::parse_server_hello(&reply).unwrap();
    let mut bad = codec::frame(b"not a valid payload");
    let crc_byte = codec::FRAME_HEADER_LEN - 1;
    bad[crc_byte] ^= 0xFF;
    evil.write_all(&bad).unwrap();

    // The server kills the malformed connection...
    let mut scratch = [0u8; 64];
    assert_eq!(evil.read(&mut scratch).unwrap(), 0, "offender disconnected");
    eventually("malformed kill accounted", || {
        counter(&server, "net_connections_killed{reason=\"malformed\"}") == 1
    });

    // ...and a frame announcing more than the 1 MiB cap dies the same way,
    // from the header alone.
    let mut greedy = TcpStream::connect(addr).unwrap();
    greedy.write_all(&codec::client_hello()).unwrap();
    greedy.read_exact(&mut reply).unwrap();
    let mut huge_header = Vec::new();
    huge_header.extend_from_slice(&(codec::MAX_FRAME_LEN + 1).to_le_bytes());
    huge_header.extend_from_slice(&0u32.to_le_bytes());
    greedy.write_all(&huge_header).unwrap();
    assert_eq!(
        greedy.read(&mut scratch).unwrap(),
        0,
        "oversized disconnected"
    );
    eventually("oversized kill accounted", || {
        counter(&server, "net_connections_killed{reason=\"malformed\"}") == 2
    });

    // The healthy session never noticed.
    let v = healthy
        .invoke("shard-0", "snapshot", vec![Value::Int(0)])
        .unwrap();
    assert!(matches!(v, Value::Str(_)));
    assert!(!healthy.is_dead());
    server.shutdown();
    drop(db);
}

#[test]
fn pipelining_beyond_the_in_flight_cap_is_absorbed_by_backpressure() {
    // A tiny cap forces the server to pause reads on the flooded
    // connection; every request must still resolve, in order.
    let (server, db) = boot_server(ServerConfig::default().with_max_in_flight(4));
    let client = WireClient::connect(server.local_addr()).unwrap();

    let handles: Vec<_> = (0..200)
        .map(|_| {
            client
                .submit("shard-1", "rmw", vec![Value::Int(7), Value::Int(2)])
                .unwrap()
        })
        .collect();
    // Every request must resolve — committed or cleanly OCC-aborted; a
    // flood beyond the cap must never lose or wedge a request.
    let mut committed = 0;
    for handle in handles {
        match handle.wait() {
            Ok(_) => committed += 1,
            Err(e) => assert!(e.is_cc_abort(), "unexpected error: {e:?}"),
        }
    }
    assert!(committed > 0, "some of the flood commits");
    assert!(!client.is_dead(), "backpressure must not kill the session");
    assert_eq!(gauge(&server, "net_requests_in_flight"), 0.0);
    server.shutdown();
    drop(db);
}

#[test]
fn an_abruptly_killed_connection_leaks_nothing_and_wedges_nobody() {
    let (server, db) = boot_server(ServerConfig::default());
    let addr = server.local_addr();

    let survivor = WireClient::connect(addr).unwrap();
    let victim = WireClient::connect(addr).unwrap();
    // Load the victim's pipeline, then sever it without waiting.
    let _abandoned: Vec<_> = (0..50)
        .map(|_| {
            victim
                .submit("shard-2", "rmw", vec![Value::Int(9), Value::Int(1)])
                .unwrap()
        })
        .collect();
    drop(_abandoned);
    drop(victim);

    // The server notices the death, resolves or discards the in-flight
    // transactions, and the gauge returns to zero.
    eventually("victim's in-flight drained", || {
        gauge(&server, "net_requests_in_flight") == 0.0
    });
    eventually("victim connection reaped", || {
        gauge(&server, "net_connections_active") == 1.0
    });

    // The survivor keeps transacting, and new connections are served.
    survivor
        .invoke("shard-0", "rmw", vec![Value::Int(11), Value::Int(0)])
        .unwrap();
    WireClient::connect(addr).unwrap().ping().unwrap();
    server.shutdown();
    drop(db);
}

#[test]
fn the_metrics_reply_of_30000_tables_fits_its_frame() {
    // 10 000 SmallBank customers are 30 000 tables of three relations. Log
    // accounting is per relation, so the reply carries three
    // `table_log_bytes` series, not one per table.
    let dir = std::env::temp_dir().join(format!("reactdb-wire-bigreply-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let customers = 10_000;
    let config = DeploymentConfig::shared_nothing(2)
        .with_durability(DurabilityConfig::epoch_sync(dir.to_string_lossy()));
    let db = Arc::new(ReactDB::boot(smallbank::spec(customers), config));
    smallbank::load(&db, customers).unwrap();
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).unwrap();
    let client = WireClient::connect(server.local_addr()).unwrap();

    let text = client.metrics_prometheus().unwrap();
    assert!(text.len() <= codec::MAX_FRAME_LEN as usize);
    let series: Vec<&str> = text
        .lines()
        .filter(|line| line.starts_with("reactdb_table_log_bytes{"))
        .collect();
    assert_eq!(series.len(), 3, "{series:?}");
    assert!(series
        .iter()
        .all(|line| line.starts_with("reactdb_table_log_bytes{relation=\"")));
    server.shutdown();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_reply_over_the_frame_cap_is_an_error_and_the_connection_lives() {
    let blob =
        ReactorType::new("Blob").with_procedure("big", |_, _| Ok(Value::Str("x".repeat(2 << 20))));
    let mut spec = ReactorDatabaseSpec::new();
    spec.add_type(blob);
    spec.add_reactor("blob", "Blob");
    let db = Arc::new(ReactDB::boot(spec, DeploymentConfig::shared_nothing(1)));
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).unwrap();
    let client = WireClient::connect(server.local_addr()).unwrap();

    let error = client.invoke("blob", "big", vec![]).unwrap_err();
    assert!(
        error.to_string().contains("exceeds the frame cap"),
        "unexpected error: {error}"
    );
    client.ping().unwrap();
    assert!(!client.is_dead());
    server.shutdown();
    drop(db);
}

#[test]
fn sequential_pings_cost_a_bounded_number_of_worker_wakeups() {
    let (server, db) = boot_server(ServerConfig::default());
    let client = WireClient::connect(server.local_addr()).unwrap();
    client.ping().unwrap();

    let before = counter(&server, "net_worker_wakeups");
    for _ in 0..500 {
        client.ping().unwrap();
    }
    let spent = counter(&server, "net_worker_wakeups") - before;
    assert!(spent <= 3 * 500, "{spent} wakeups for 500 pings");
    server.shutdown();
    drop(db);
}

#[test]
fn an_idle_connection_lets_the_workers_sleep() {
    let (server, db) = boot_server(ServerConfig::default());
    let client = WireClient::connect(server.local_addr()).unwrap();
    client.ping().unwrap();

    let before = counter(&server, "net_worker_wakeups");
    std::thread::sleep(Duration::from_millis(200));
    let spent = counter(&server, "net_worker_wakeups") - before;
    assert!(spent <= 5, "{spent} wakeups while idle for 200 ms");
    client.ping().unwrap();
    server.shutdown();
    drop(db);
}

#[test]
fn graceful_shutdown_drains_and_releases_the_log_dir_lock() {
    let dir = std::env::temp_dir().join(format!("reactdb-wire-shutdown-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_string_lossy().into_owned();

    let config = DeploymentConfig::shared_nothing(SHARDS)
        .with_durability(DurabilityConfig::epoch_sync(&dir_s).with_interval_ms(1));
    let db = Arc::new(ReactDB::boot(spec(), config.clone()));
    load(&db);
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).unwrap();
    let client = WireClient::connect(server.local_addr()).unwrap();

    // In-flight work at shutdown time must be drained, not dropped.
    let pending: Vec<_> = (0..20)
        .map(|_| {
            client
                .submit_durable("shard-0", "rmw", vec![Value::Int(3), Value::Int(0)])
                .unwrap()
        })
        .collect();
    // Submission only writes to the socket; wait until the server has read
    // at least one request so the drain actually has in-flight work to
    // finish (otherwise shutdown can win the race before the worker ever
    // sees the frames, especially on a single-core machine).
    eventually("server observed the submissions", || {
        counter(&server, "net_requests") > 0
    });
    server.shutdown();
    let mut drained = 0;
    for handle in pending {
        if let Some(Ok(_)) = handle.wait_timeout(Duration::from_secs(5)) {
            drained += 1;
        }
    }
    assert!(drained > 0, "shutdown drained in-flight transactions");

    // Dropping the last engine handle shuts the engine down and releases
    // the WAL directory lock; recovery from the same directory must then
    // succeed rather than failing the lock acquisition.
    drop(db);
    let recovered = ReactDB::recover(spec(), config).unwrap();
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A server over a fresh durable engine with group-commit interval
/// `interval_ms`, and its log directory.
fn boot_durable_server(
    tag: &str,
    interval_ms: u64,
    config: ServerConfig,
) -> (Server, Arc<ReactDB>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("reactdb-wire-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durability =
        DurabilityConfig::epoch_sync(dir.to_string_lossy()).with_interval_ms(interval_ms);
    let db = Arc::new(ReactDB::boot(
        spec(),
        DeploymentConfig::shared_nothing(SHARDS).with_durability(durability),
    ));
    load(&db);
    let server = Server::start(Arc::clone(&db), config).unwrap();
    (server, db, dir)
}

#[test]
fn a_stalled_group_commit_does_not_stall_the_io_worker() {
    let (server, db, dir) =
        boot_durable_server("stall", 0, ServerConfig::default().with_workers(1));
    let durable_conn = WireClient::connect(server.local_addr()).unwrap();
    let ping_conn = WireClient::connect(server.local_addr()).unwrap();
    ping_conn.ping().unwrap();

    // Scoped by the log directory's name: no other test's commits stall.
    let point = format!("wal-sync@{}", dir.file_name().unwrap().to_string_lossy());
    failpoint::arm(&format!("{point}=stall:500:1")).unwrap();
    let pending = durable_conn
        .submit_durable("shard-0", "rmw", vec![Value::Int(5), Value::Int(1)])
        .unwrap();
    eventually("the demanded group commit stalls", || {
        failpoint::hits(&point) == 1
    });
    // The other connection on the same (only) worker is served while the
    // group commit its neighbour waits on is stuck.
    let started = Instant::now();
    ping_conn.ping().unwrap();
    let rtt = started.elapsed();
    assert!(rtt < Duration::from_millis(100), "ping took {rtt:?}");
    assert!(
        pending.try_result().is_none(),
        "the durable reply waits on the stalled commit"
    );
    pending.wait().unwrap();
    server.shutdown();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_replies_cost_a_bounded_number_of_worker_wakeups() {
    let (server, db, dir) = boot_durable_server("wakeups", 5, ServerConfig::default());
    let client = WireClient::connect(server.local_addr()).unwrap();
    client.ping().unwrap();

    let before = counter(&server, "net_worker_wakeups");
    for _ in 0..200 {
        client
            .invoke_durable("shard-1", "rmw", vec![Value::Int(4), Value::Int(1)])
            .unwrap();
    }
    let spent = counter(&server, "net_worker_wakeups") - before;
    assert!(spent <= 3 * 200, "{spent} wakeups for 200 durable invokes");
    server.shutdown();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
