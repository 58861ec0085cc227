//! Workspace-level acceptance test for the observability layer: a mixed
//! workload must light up the commit-path phase histograms, the abort
//! breakdown must match what actually happened, every histogram's
//! percentiles must be ordered, and the Prometheus text, rendered in
//! process or scraped over the wire, must carry the snapshot's values.

use std::collections::BTreeMap;
use std::sync::Arc;

use reactdb::common::{DeploymentConfig, DurabilityConfig, Key, TracingConfig, Value};
use reactdb::core::{ReactorDatabaseSpec, ReactorType};
use reactdb::storage::{ColumnType, RelationDef, Schema, Tuple};
use reactdb::{AbortReason, MetricsSnapshot, Phase, ReactDB, TraceKind};
use reactdb_client::WireClient;
use reactdb_server::{Server, ServerConfig};

fn spec() -> ReactorDatabaseSpec {
    let counter = ReactorType::new("Counter")
        .with_relation(RelationDef::new(
            "state",
            Schema::of(&[("id", ColumnType::Int), ("n", ColumnType::Int)], &["id"]),
        ))
        .with_procedure("init", |ctx, _| {
            ctx.insert("state", Tuple::of([Value::Int(0), Value::Int(0)]))?;
            Ok(Value::Null)
        })
        .with_procedure("bump", |ctx, _| {
            let row = ctx.update_with("state", &Key::Int(0), |t| {
                t.values_mut()[1] = Value::Int(t.at(1).as_int() + 1);
            })?;
            Ok(Value::Int(row.at(1).as_int()))
        })
        .with_procedure("refuse", |ctx, _| ctx.abort("refused"));
    let mut spec = ReactorDatabaseSpec::new();
    spec.add_type(counter);
    spec.add_reactor("c-0", "Counter");
    spec.add_reactor("c-1", "Counter");
    spec
}

/// The samples of a Prometheus text exposition, keyed by series (the
/// metric name with its label block).
fn prometheus_samples(text: &str) -> BTreeMap<&str, &str> {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| {
            line.rsplit_once(' ')
                .unwrap_or_else(|| panic!("not a sample line: {line}"))
        })
        .collect()
}

fn sample<'a>(samples: &BTreeMap<&str, &'a str>, series: &str) -> &'a str {
    samples
        .get(series)
        .unwrap_or_else(|| panic!("{series} missing from the Prometheus text"))
}

/// Every counter and gauge of `snap` shows its value in `text`, and every
/// histogram its count.
fn assert_renders(snap: &MetricsSnapshot, text: &str) {
    let samples = prometheus_samples(text);
    let shows = |series: String, value: String| {
        assert_eq!(sample(&samples, &series), value, "{series}");
    };
    shows("reactdb_uptime_us".into(), snap.uptime_us.to_string());
    for c in &snap.counters {
        shows(format!("reactdb_{}", c.name), c.value.to_string());
    }
    for g in &snap.gauges {
        shows(format!("reactdb_{}", g.name), g.value.to_string());
    }
    for h in &snap.histograms {
        shows(format!("reactdb_{}_count", h.name), h.count.to_string());
    }
}

/// For a text scraped over the wire between the snapshots `before` and
/// `after`: every counter and histogram count shows a value between its
/// two snapshot values, and every gauge that both snapshots agree on
/// shows that value. A gauge that moved in between (`executor_utilization`
/// falls while the server idles) need only show a number.
fn assert_scrape_between(before: &MetricsSnapshot, text: &str, after: &MetricsSnapshot) {
    let samples = prometheus_samples(text);
    let between = |series: String, low: u64, high: u64| {
        let shown: u64 = sample(&samples, &series).parse().unwrap();
        assert!(
            (low..=high).contains(&shown),
            "{series} shows {shown}, outside [{low}, {high}]"
        );
    };
    between(
        "reactdb_uptime_us".into(),
        before.uptime_us,
        after.uptime_us,
    );
    for c in &before.counters {
        let high = after.counter(&c.name).unwrap();
        between(format!("reactdb_{}", c.name), c.value, high);
    }
    for g in &before.gauges {
        let series = format!("reactdb_{}", g.name);
        let shown: f64 = sample(&samples, &series).parse().unwrap();
        if after.gauge(&g.name) == Some(g.value) {
            assert_eq!(shown, g.value, "{series}");
        } else {
            assert!(shown.is_finite(), "{series} shows {shown}");
        }
    }
    for h in &before.histograms {
        let high = after.histogram(&h.name).unwrap().count;
        between(format!("reactdb_{}_count", h.name), h.count, high);
    }
}

/// p50 <= p90 <= p99 <= p999 <= max on every histogram.
fn assert_percentiles_ordered(snap: &MetricsSnapshot) {
    for h in &snap.histograms {
        let chain = [h.p50_ns, h.p90_ns, h.p99_ns, h.p999_ns, h.max_ns];
        assert!(
            chain.windows(2).all(|w| w[0] <= w[1]),
            "{} percentiles out of order: {chain:?}",
            h.name
        );
    }
}

fn wal_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "reactdb-metrics-surface-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn mixed_workload_fills_the_export_surface() {
    let dir = wal_dir("fill");
    let config = DeploymentConfig::shared_nothing(2).with_durability(
        DurabilityConfig::epoch_sync(dir.to_string_lossy().as_ref()).with_interval_ms(0),
    );
    let db = ReactDB::boot(spec(), config);
    let client = db.client();
    client.invoke("c-0", "init", vec![]).unwrap();
    client.invoke("c-1", "init", vec![]).unwrap();
    for i in 0..10 {
        let handle = client
            .submit(&format!("c-{}", i % 2), "bump", vec![])
            .unwrap();
        handle.wait_durable().unwrap();
    }
    assert!(client.invoke("c-0", "refuse", vec![]).is_err());

    let before = db.metrics();
    for phase in [
        Phase::Execute,
        Phase::Lock,
        Phase::Fence,
        Phase::Validate,
        Phase::Write,
        Phase::Log,
        Phase::DurableAck,
    ] {
        let h = before
            .histogram(&format!("phase_{}_ns", phase.name()))
            .unwrap();
        assert!(h.count > 0, "{} empty", phase.name());
    }
    assert_eq!(before.counter("txn_committed"), Some(12));
    assert_eq!(before.counter("txn_aborts{reason=\"user_abort\"}"), Some(1));

    // Session-level breakdown agrees.
    let session = client.stats();
    let user_aborts = session
        .aborts_by_reason
        .iter()
        .find(|(r, _)| *r == AbortReason::UserAbort)
        .map(|(_, n)| *n)
        .unwrap();
    assert_eq!(user_aborts, 1);
    assert_eq!(session.aborted, 1);

    assert_percentiles_ordered(&before);
    // The Prometheus text carries every value of the snapshot.
    assert_renders(&before, &before.to_prometheus_text());

    // Deltas move with the workload.
    for _ in 0..5 {
        client.invoke("c-0", "bump", vec![]).unwrap();
    }
    let after = db.metrics();
    let delta = after.delta(&before);
    assert_eq!(delta.counter("txn_committed"), Some(5));

    // Trace events cover commit, abort and group-commit activity.
    let events = db.trace_events();
    assert!(events.iter().any(|e| matches!(e.kind, TraceKind::Commit)));
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, TraceKind::Abort(AbortReason::UserAbort))));
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, TraceKind::GroupCommitFsync)));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every name `Server::metrics_snapshot` exports, one per line (the
/// per-table log counters share one line: they carry the table labels).
/// perfbench and the CI smoke step read these names; a change to the list
/// is a change to the export surface.
const COUNTERS: &str = r#"
    checkpoint_bytes
    checkpoint_failures
    checkpoints_taken
    client_aborted
    client_committed
    client_timeouts
    durable_epoch
    durable_waits
    handles_in_flight_hwm
    log_bytes
    log_records
    log_sync_failures
    log_syncs
    log_truncated_bytes
    log_truncated_segments
    net_connections_accepted
    net_connections_killed{reason="malformed"}
    net_connections_killed{reason="timeout"}
    net_connections_rejected
    net_requests
    net_responses
    net_worker_wakeups
    recovered_checkpoint_rows
    recovered_txns
    recovery_replay_workers
    scan_ops
    scan_rows_returned
    scan_slots_visited
    sub_txns_dispatched
    sub_txns_inlined
    table_log_bytes{relation="state"} table_log_records{relation="state"}
    txn_aborts{reason="dangerous_structure"}
    txn_aborts{reason="lock_busy"}
    txn_aborts{reason="occ_read"}
    txn_aborts{reason="other"}
    txn_aborts{reason="phantom"}
    txn_aborts{reason="user_abort"}
    txn_aborts{reason="wal_failure"}
    txn_cc_aborts
    txn_committed
"#;

const GAUGES: &str = r#"
    executor_queue_depth{executor="0"}
    executor_queue_depth{executor="1"}
    executor_utilization{executor="0"}
    executor_utilization{executor="1"}
    handles_in_flight
    net_connections_active
    net_requests_in_flight
    repl_acked_epoch
    repl_followers
    repl_lag_epochs
    repl_quorum_epoch
    repl_quorum_epoch_lag
"#;

const HISTOGRAMS: &str = r#"
    phase_checkpoint_chunk_ns
    phase_ckpt_part_write_ns
    phase_durable_ack_ns
    phase_execute_ns
    phase_fence_ns
    phase_follower_apply_ns
    phase_lock_ns
    phase_log_ns
    phase_net_decode_ns
    phase_net_dispatch_ns
    phase_net_replicate_ns
    phase_net_reply_ns
    phase_recovery_replay_ns
    phase_session_wait_ns
    phase_validate_ns
    phase_wal_fsync_ns
    phase_wal_sync_wait_ns
    phase_write_ns
"#;

fn sorted<'a>(names: impl IntoIterator<Item = &'a str>) -> Vec<&'a str> {
    let mut names: Vec<&str> = names.into_iter().collect();
    names.sort_unstable();
    names
}

#[test]
fn the_export_surface_names_are_pinned() {
    let dir = wal_dir("pinned");
    let config = DeploymentConfig::shared_nothing(2).with_durability(
        DurabilityConfig::epoch_sync(dir.to_string_lossy().as_ref()).with_interval_ms(0),
    );
    let db = Arc::new(ReactDB::boot(spec(), config));
    db.client().invoke("c-0", "init", vec![]).unwrap();
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).unwrap();
    let client = WireClient::connect(server.local_addr()).unwrap();
    client.invoke("c-0", "bump", vec![]).unwrap();
    assert!(client.invoke("c-0", "refuse", vec![]).is_err());
    client.invoke_durable("c-0", "bump", vec![]).unwrap();

    let snap = server.metrics_snapshot();
    assert_percentiles_ordered(&snap);
    for phase in ["net_decode", "net_dispatch", "net_reply"] {
        let h = snap.histogram(&format!("phase_{phase}_ns")).unwrap();
        assert!(h.count > 0, "phase_{phase}_ns empty after wire traffic");
    }
    let scraped = client.metrics_prometheus().unwrap();
    assert_scrape_between(&snap, &scraped, &server.metrics_snapshot());
    assert_eq!(
        sorted(snap.counters.iter().map(|c| c.name.as_str())),
        sorted(COUNTERS.split_whitespace())
    );
    assert_eq!(
        sorted(snap.gauges.iter().map(|g| g.name.as_str())),
        sorted(GAUGES.split_whitespace())
    );
    assert_eq!(
        sorted(snap.histograms.iter().map(|h| h.name.as_str())),
        sorted(HISTOGRAMS.split_whitespace())
    );
    server.shutdown();
    drop(client);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn counters_count_with_tracing_off() {
    let dir = wal_dir("untraced");
    let config = DeploymentConfig::shared_nothing(2)
        .with_durability(
            DurabilityConfig::epoch_sync(dir.to_string_lossy().as_ref()).with_interval_ms(0),
        )
        .with_tracing(TracingConfig::off());
    let db = Arc::new(ReactDB::boot(spec(), config));
    db.client().invoke("c-0", "init", vec![]).unwrap();
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).unwrap();
    let client = WireClient::connect(server.local_addr()).unwrap();
    let before = server.metrics_snapshot();
    client.invoke("c-0", "bump", vec![]).unwrap();
    client.invoke_durable("c-0", "bump", vec![]).unwrap();

    let after = server.metrics_snapshot();
    let delta = after.delta(&before);
    assert_eq!(delta.counter("txn_committed"), Some(2));
    assert!(delta.counter("log_bytes").unwrap() > 0);
    assert_eq!(delta.counter("net_requests"), Some(2));
    for h in &after.histograms {
        assert_eq!(h.count, 0, "{} recorded with tracing off", h.name);
    }
    assert!(db.trace_events().is_empty());
    server.shutdown();
    drop(client);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
