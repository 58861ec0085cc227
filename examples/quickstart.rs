//! Quickstart: define a reactor database, deploy it, and run transactions
//! through a client session.
//!
//! A two-reactor-type banking application: `Account` reactors encapsulate a
//! single `balance` relation and expose `open`, `deposit`, `balance` and
//! `transfer` procedures; `transfer` moves money to another account reactor
//! through an asynchronous sub-transaction while the runtime guarantees
//! serializability of the whole root transaction.
//!
//! Clients interact through the session API: `db.client()` opens a
//! [`reactdb::Client`], `submit` pipelines root transactions (each returns
//! a [`reactdb::TxnHandle`]), `wait()` acknowledges at validation time and
//! `wait_durable()` only once the transaction's epoch group-committed.
//!
//! Run with `cargo run --example quickstart`.

use reactdb::common::{DeploymentConfig, Key, Value};
use reactdb::core::{ReactorDatabaseSpec, ReactorType};
use reactdb::engine::ReactDB;
use reactdb::storage::{ColumnType, RelationDef, Schema, Tuple};
use reactdb::{Call, RetryPolicy};

fn account_type() -> ReactorType {
    ReactorType::new("Account")
        .with_relation(RelationDef::new(
            "balance",
            Schema::of(
                &[("id", ColumnType::Int), ("amount", ColumnType::Float)],
                &["id"],
            ),
        ))
        .with_procedure("open", |ctx, args| {
            ctx.insert("balance", Tuple::of([Value::Int(0), args[0].clone()]))?;
            Ok(Value::Null)
        })
        .with_procedure("deposit", |ctx, args| {
            let amount = args[0].as_float();
            let row = ctx.update_with("balance", &Key::Int(0), |t| {
                t.values_mut()[1] = Value::Float(t.at(1).as_float() + amount);
            })?;
            Ok(Value::Float(row.at(1).as_float()))
        })
        .with_procedure("balance", |ctx, _args| {
            Ok(Value::Float(
                ctx.get_expected("balance", &Key::Int(0))?.at(1).as_float(),
            ))
        })
        .with_procedure("transfer", |ctx, args| {
            let destination = args[0].as_str().to_owned();
            let amount = args[1].as_float();
            let current = ctx.get_expected("balance", &Key::Int(0))?.at(1).as_float();
            if current < amount {
                return ctx.abort("insufficient funds");
            }
            ctx.update_with("balance", &Key::Int(0), |t| {
                t.values_mut()[1] = Value::Float(t.at(1).as_float() - amount);
            })?;
            // Asynchronous cross-reactor call; the root transaction only
            // commits once the deposit sub-transaction completed.
            ctx.call(&destination, "deposit", vec![Value::Float(amount)])?;
            Ok(Value::Null)
        })
}

fn main() {
    // 1. Declare the reactor database: types + named reactors.
    let mut spec = ReactorDatabaseSpec::new();
    spec.add_type(account_type());
    for name in ["alice", "bob", "carol"] {
        spec.add_reactor(name, "Account");
    }

    // 2. Pick a deployment. Changing the architecture (shared-everything vs
    //    shared-nothing) requires no change to the procedures above.
    let deployment = DeploymentConfig::shared_nothing(3);
    let db = ReactDB::boot(spec, deployment);

    // 3. Open a client session. Clients are cheap to clone; clones share
    //    the session and its statistics.
    let client = db.client();

    // 4. Pipelined submission: a batch of root transactions is in flight at
    //    once, each represented by a TxnHandle promise.
    let opens = client
        .submit_batch(
            ["alice", "bob", "carol"]
                .map(|name| Call::new(name, "open", vec![Value::Float(100.0)])),
        )
        .unwrap();
    for handle in &opens {
        handle.wait().unwrap();
    }

    // 5. Synchronous convenience (`invoke` == submit + wait): resolves at
    //    validation time. With a durable deployment, `wait_durable()` /
    //    `invoke_durable` would additionally block until the transaction's
    //    epoch group-committed — the acknowledgement that survives crashes.
    client
        .invoke(
            "alice",
            "transfer",
            vec![Value::Str("bob".into()), Value::Float(30.0)],
        )
        .unwrap();

    // 6. OCC validation aborts are transient; a RetryPolicy re-submits them
    //    with bounded backoff while user aborts propagate immediately.
    client
        .invoke_with_retry(
            "bob",
            "transfer",
            vec![Value::Str("carol".into()), Value::Float(55.0)],
            &RetryPolicy::occ(),
        )
        .unwrap();

    // An over-draft is rejected by application logic and rolls back cleanly.
    let rejected = client.invoke(
        "carol",
        "transfer",
        vec![Value::Str("alice".into()), Value::Float(1e6)],
    );
    println!("overdraft rejected: {}", rejected.is_err());

    for name in ["alice", "bob", "carol"] {
        let balance = client.invoke(name, "balance", vec![]).unwrap();
        println!("{name}: {balance}");
    }
    let session = client.stats();
    println!(
        "session: submitted={} committed={} aborted={} pipelined-depth={}",
        session.submitted, session.committed, session.aborted, session.in_flight_hwm
    );

    // 7. Database-wide observability goes through the metrics snapshot: the
    //    same counters the Prometheus export surface renders, plus the
    //    per-phase latency histograms the tracing layer recorded.
    let metrics = db.metrics();
    println!(
        "database: committed={} cc_aborts={} user_aborts={}",
        metrics.counter("txn_committed").unwrap_or(0),
        metrics.counter("txn_cc_aborts").unwrap_or(0),
        metrics
            .counter("txn_aborts{reason=\"user_abort\"}")
            .unwrap_or(0),
    );
    if let Some(h) = metrics.histogram("phase_execute_ns") {
        println!(
            "execute phase: n={} p50={}ns p99={}ns max={}ns",
            h.count, h.p50_ns, h.p99_ns, h.max_ns
        );
    }
}
