//! The network server end to end, in one process: boot a SmallBank
//! engine, start `reactdb-server` on an ephemeral port, drive it over TCP
//! with pipelined `reactdb-client` connections (validation-time and
//! durable acks, a metrics fetch, a ping), then print the metrics snapshot
//! as Prometheus text — which includes the three `net_*` phase histograms
//! and the connection counters/gauges the server contributes.
//!
//! Everything except the final Prometheus text goes to stderr. The example
//! asserts the network acceptance surface: `net_decode`/`net_dispatch`/
//! `net_reply` recorded real samples, the connection counters add up, and
//! the in-flight gauge is back to zero after the drain. Any violation
//! panics (non-zero exit).
//!
//! Run with `cargo run --release --example server`.

use std::sync::Arc;
use std::time::Duration;

use reactdb::common::{DeploymentConfig, DurabilityConfig, Value};
use reactdb::workloads::smallbank;
use reactdb::ReactDB;
use reactdb_client::WireClient;
use reactdb_server::{Server, ServerConfig};

const CUSTOMERS: usize = 64;
const CONNECTIONS: usize = 8;
const TXNS_PER_CONNECTION: usize = 50;

fn main() {
    let dir = std::env::temp_dir().join(format!("reactdb-server-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DeploymentConfig::shared_nothing(2).with_durability(
        DurabilityConfig::epoch_sync(dir.to_string_lossy().as_ref()).with_interval_ms(1),
    );
    let db = ReactDB::boot(smallbank::spec(CUSTOMERS), config);
    smallbank::load(&db, CUSTOMERS).unwrap();
    let db = Arc::new(db);

    let server = Server::start(
        Arc::clone(&db),
        ServerConfig::default()
            .with_workers(2)
            .with_max_in_flight(32),
    )
    .expect("start server");
    let addr = server.local_addr();
    eprintln!("server listening on {addr}");

    // Pipelined wire workload: each connection keeps a window of four
    // requests open; every fourth is acknowledged at durable time.
    std::thread::scope(|scope| {
        for c in 0..CONNECTIONS {
            scope.spawn(move || {
                let client = WireClient::connect(addr).expect("connect");
                let mut window = Vec::new();
                for i in 0..TXNS_PER_CONNECTION {
                    let who = smallbank::customer_name((c * 7 + i * 3) % CUSTOMERS);
                    let handle = if i % 4 == 0 {
                        client.submit_durable(&who, "deposit_checking", vec![Value::Float(5.0)])
                    } else {
                        client.submit(&who, "balance", vec![])
                    }
                    .expect("submit");
                    window.push(handle);
                    if window.len() >= 4 {
                        let _ = window.remove(0).wait();
                    }
                }
                for handle in window {
                    let _ = handle.wait();
                }
                client.ping().expect("ping");
            });
        }
    });

    // One more connection fetches the metrics over the wire, like a
    // scraper would, and sanity-checks the Prometheus rendering.
    let scraper = WireClient::connect(addr).expect("connect scraper");
    let prometheus = scraper.metrics_prometheus().expect("metrics over the wire");
    for needle in [
        "reactdb_net_connections_accepted",
        "reactdb_net_connections_active",
        "reactdb_net_requests_in_flight",
        "reactdb_phase_net_decode_ns",
        "reactdb_phase_net_dispatch_ns",
        "reactdb_phase_net_reply_ns",
    ] {
        assert!(
            prometheus.contains(needle),
            "{needle} missing from the wire-scraped Prometheus text"
        );
    }
    drop(scraper);

    // Let the server notice the closed connections, then assert the
    // network acceptance surface on a fresh snapshot.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let active = |server: &Server| server.metrics_snapshot().gauge("net_connections_active");
    while active(&server) > Some(0.0) && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let snapshot = server.metrics_snapshot();
    for name in ["net_decode", "net_dispatch", "net_reply"] {
        let h = snapshot
            .histogram(&format!("phase_{name}_ns"))
            .unwrap_or_else(|| panic!("phase_{name}_ns missing from the snapshot"));
        assert!(h.count > 0, "phase_{name}_ns recorded no samples");
        eprintln!(
            "phase_{name}_ns: n={} p50={}ns p90={}ns p99={}ns max={}ns",
            h.count, h.p50_ns, h.p90_ns, h.p99_ns, h.max_ns
        );
    }
    let accepted = snapshot.counter("net_connections_accepted").unwrap();
    assert_eq!(
        accepted,
        (CONNECTIONS + 1) as u64,
        "every connection accounted for"
    );
    let requests = snapshot.counter("net_requests").unwrap();
    assert!(
        requests >= (CONNECTIONS * TXNS_PER_CONNECTION) as u64,
        "every request accounted for"
    );
    let in_flight = snapshot.gauge("net_requests_in_flight").unwrap();
    assert_eq!(in_flight, 0.0, "nothing in flight after the drain");
    eprintln!(
        "connections: accepted={accepted} active={} | requests={requests} in_flight={in_flight}",
        snapshot.gauge("net_connections_active").unwrap(),
    );

    // The Prometheus text is the only thing on stdout.
    print!("{}", snapshot.to_prometheus_text());

    server.shutdown();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
