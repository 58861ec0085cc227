//! The metrics export surface, end to end: a mixed workload (deposits,
//! cross-reactor transfers, range scans, user aborts, durable
//! acknowledgements, a checkpoint) with durability on, followed by the
//! full `MetricsSnapshot` printed as Prometheus text.
//!
//! Everything except the Prometheus text goes to stderr. The example also
//! asserts the observability acceptance surface: the seven commit-path
//! phase histograms are non-zero, and the Prometheus text carries the
//! snapshot's values. Any violation panics (non-zero exit).
//!
//! Run with `cargo run --release --example metrics`.

use reactdb::common::{DeploymentConfig, DurabilityConfig, Key, Value};
use reactdb::core::{ReactorDatabaseSpec, ReactorType};
use reactdb::storage::{ColumnType, RelationDef, Schema, Tuple};
use reactdb::{Phase, ReactDB, TraceKind};

fn spec() -> ReactorDatabaseSpec {
    let account = ReactorType::new("Account")
        .with_relation(RelationDef::new(
            "balance",
            Schema::of(
                &[("id", ColumnType::Int), ("amount", ColumnType::Float)],
                &["id"],
            ),
        ))
        .with_relation(RelationDef::new(
            "history",
            Schema::of(
                &[("seq", ColumnType::Int), ("amount", ColumnType::Float)],
                &["seq"],
            ),
        ))
        .with_procedure("open", |ctx, _args| {
            ctx.insert("balance", Tuple::of([Value::Int(0), Value::Float(0.0)]))?;
            Ok(Value::Null)
        })
        .with_procedure("deposit", |ctx, args| {
            let amount = args[0].as_float();
            let seq = args[1].as_int();
            let row = ctx.update_with("balance", &Key::Int(0), |t| {
                t.values_mut()[1] = Value::Float(t.at(1).as_float() + amount);
            })?;
            ctx.insert(
                "history",
                Tuple::of([Value::Int(seq), Value::Float(amount)]),
            )?;
            Ok(Value::Float(row.at(1).as_float()))
        })
        .with_procedure("transfer", |ctx, args| {
            let destination = args[0].as_str().to_owned();
            let amount = args[1].as_float();
            let seq = args[2].as_int();
            ctx.update_with("balance", &Key::Int(0), |t| {
                t.values_mut()[1] = Value::Float(t.at(1).as_float() - amount);
            })?;
            ctx.call(
                &destination,
                "deposit",
                vec![Value::Float(amount), Value::Int(seq)],
            )?;
            Ok(Value::Null)
        })
        .with_procedure("recent_activity", |ctx, args| {
            let low = args[0].as_int();
            let high = args[1].as_int();
            let rows = ctx.scan_bounded("history", Key::Int(low)..Key::Int(high))?;
            Ok(Value::Int(rows.len() as i64))
        })
        .with_procedure("audit_reject", |ctx, _args| ctx.abort("audit rejected"));

    let mut spec = ReactorDatabaseSpec::new();
    spec.add_type(account);
    for i in 0..4 {
        spec.add_reactor(format!("acct-{i}"), "Account");
    }
    spec
}

fn main() {
    let dir = std::env::temp_dir().join(format!("reactdb-metrics-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DeploymentConfig::shared_nothing(2).with_durability(
        DurabilityConfig::epoch_sync(dir.to_string_lossy().as_ref()).with_interval_ms(0),
    );
    let db = ReactDB::boot(spec(), config);
    let client = db.client();

    // Mixed workload. Durable acknowledgement on every fourth deposit
    // exercises the full group-commit path (sync wait + fsync + ack).
    for i in 0..4 {
        client.invoke(&format!("acct-{i}"), "open", vec![]).unwrap();
    }
    for seq in 0..40i64 {
        let who = format!("acct-{}", seq % 4);
        let handle = client
            .submit(&who, "deposit", vec![Value::Float(10.0), Value::Int(seq)])
            .unwrap();
        if seq % 4 == 0 {
            handle.wait_durable().unwrap();
        } else {
            handle.wait().unwrap();
        }
    }
    for seq in 40..48i64 {
        let src = format!("acct-{}", seq % 4);
        let dst = format!("acct-{}", (seq + 1) % 4);
        client
            .invoke(
                &src,
                "transfer",
                vec![Value::Str(dst), Value::Float(1.0), Value::Int(seq)],
            )
            .unwrap();
    }
    for i in 0..4 {
        client
            .invoke(
                &format!("acct-{i}"),
                "recent_activity",
                vec![Value::Int(0), Value::Int(100)],
            )
            .unwrap();
    }
    for i in 0..2 {
        let err = client
            .invoke(&format!("acct-{i}"), "audit_reject", vec![])
            .unwrap_err();
        assert!(err.is_user_abort());
    }
    db.checkpoint_now().unwrap();

    // ---- Acceptance surface. The seven commit-path phases must have
    // recorded real samples after a mixed workload with durable
    // acknowledgements.
    let snapshot = db.metrics();
    for phase in [
        Phase::Execute,
        Phase::Lock,
        Phase::Fence,
        Phase::Validate,
        Phase::Write,
        Phase::Log,
        Phase::DurableAck,
    ] {
        let name = format!("phase_{}_ns", phase.name());
        let h = snapshot
            .histogram(&name)
            .unwrap_or_else(|| panic!("{name} missing from the snapshot"));
        assert!(h.count > 0, "{name} recorded no samples");
        assert!(h.sum_ns > 0, "{name} recorded only zero spans");
        eprintln!(
            "{name}: n={} p50={}ns p90={}ns p99={}ns max={}ns",
            h.count, h.p50_ns, h.p90_ns, h.p99_ns, h.max_ns
        );
    }

    // Prometheus consistency: every counter appears with the same value.
    let prometheus = snapshot.to_prometheus_text();
    assert!(prometheus.contains(&format!(
        "reactdb_txn_committed {}",
        snapshot.counter("txn_committed").unwrap()
    )));
    assert!(prometheus.contains(&format!(
        "reactdb_txn_aborts{{reason=\"user_abort\"}} {}",
        snapshot
            .counter("txn_aborts{reason=\"user_abort\"}")
            .unwrap()
    )));
    assert!(prometheus.contains("reactdb_phase_durable_ack_ns{quantile=\"0.99\"}"));

    // The trace rings saw the workload too.
    let events = db.trace_events();
    let commits = events
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::Commit))
        .count();
    let group_commits = events
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::GroupCommitFsync))
        .count();
    assert!(commits > 0, "no commit trace events");
    assert!(group_commits > 0, "no group-commit trace events");
    eprintln!(
        "trace: {} events ({} commits, {} group-commit fsyncs)",
        events.len(),
        commits,
        group_commits
    );

    // The Prometheus text is the only thing on stdout.
    print!("{prometheus}");

    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
