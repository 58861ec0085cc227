//! Per-layer probes: small timed loops around calls into one layer's public
//! functions. They do not depend on the workload being run (except the codec
//! probe, which encodes the workload's own requests), so every traced run
//! reports them and they should read the same next to every workload.

use std::hint::black_box;
use std::ops::Bound;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use reactdb_client::codec::{self, Request, Response};
use reactdb_client::{AckLevel, WireClient};
use reactdb_common::{ContainerId, DeploymentConfig, Key, TracingConfig, Value};
use reactdb_engine::ReactDB;
use reactdb_server::{Server, ServerConfig};
use reactdb_storage::{ColumnType, Schema, Table, Tuple};
use reactdb_txn::{Coordinator, EpochManager, OccTxn, TidGen};
use reactdb_workloads::smallbank;

use crate::driver::Invocation;
use crate::stats::{median, percentile};
use crate::workloads::smallbank_mix;

/// Customers of the probe database.
const PROBE_CUSTOMERS: usize = 1_000;
/// Rows of the probe tables, as in `benches/storage_ops.rs` and
/// `benches/occ_commit.rs`.
const PROBE_ROWS: i64 = 10_000;
/// Timed batches per probe; the probe reports the median batch.
const BATCHES: usize = 15;

#[derive(Debug, Default)]
pub struct Probes {
    pub codec_request_ns: f64,
    pub codec_response_ns: f64,
    pub bytes_per_req: f64,
    pub ping_rtt_us: f64,
    pub wire_overhead_us: f64,
    pub submit_ns: f64,
    pub invoke_us: f64,
    pub fanout_speedup: f64,
    pub commit_ns: f64,
    pub commit_2pc_ns: f64,
    /// `[1 thread, nproc threads]`.
    pub get_ns: [f64; 2],
    pub insert_ns: [f64; 2],
    pub scan100_ns: [f64; 2],
}

/// Median nanoseconds per call of `op` over `BATCHES` batches of `per_batch`.
fn ns_per_op(per_batch: usize, mut op: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..per_batch {
                op();
            }
            started.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&batches).expect("BATCHES is not zero")
}

/// Exact p50 in microseconds of `n` individually timed calls.
fn p50_us(n: usize, mut op: impl FnMut()) -> f64 {
    let mut ns: Vec<u64> = (0..n)
        .map(|_| {
            let started = Instant::now();
            op();
            started.elapsed().as_nanos() as u64
        })
        .collect();
    ns.sort_unstable();
    percentile(&ns, 0.5).expect("n is not zero") as f64 / 1e3
}

pub fn run(nproc: usize, seed: u64, workload_requests: &[Invocation]) -> Result<Probes, String> {
    let mut p = Probes::default();
    codec(&mut p, workload_requests);
    engine_and_server(&mut p, nproc, seed)?;
    txn(&mut p);
    storage(&mut p, nproc);
    Ok(p)
}

/// `client`: encode + frame + unframe + decode of the workload's requests,
/// and of the reply a committed request gets.
fn codec(p: &mut Probes, invocations: &[Invocation]) {
    let requests: Vec<Request> = invocations
        .iter()
        .enumerate()
        .map(|(i, inv)| Request::Invoke {
            correlation_id: i as u64,
            ack: AckLevel::Validated,
            reactor: inv.reactor.clone(),
            procedure: inv.proc.to_string(),
            args: inv.args.clone(),
        })
        .collect();
    let mut bytes = 0usize;
    let mut next = 0usize;
    p.codec_request_ns = ns_per_op(requests.len(), || {
        let framed = codec::frame(&codec::encode_request(&requests[next]));
        bytes = bytes.wrapping_add(framed.len());
        let (payload, _) = codec::decode_frame(&framed)
            .expect("own frame")
            .expect("whole frame");
        black_box(codec::decode_request(payload).expect("own request"));
        next = (next + 1) % requests.len();
    });
    p.bytes_per_req = bytes as f64 / (BATCHES * requests.len()) as f64;

    let reply = Response::TxnOk {
        correlation_id: 7,
        value: Value::Float(10_000.0),
        commit_epoch: Some(42),
    };
    p.codec_response_ns = ns_per_op(requests.len(), || {
        let framed = codec::frame(&codec::encode_response(black_box(&reply)));
        let (payload, _) = codec::decode_frame(&framed)
            .expect("own frame")
            .expect("whole frame");
        black_box(codec::decode_response(payload).expect("own response"));
    });
}

/// `server`, `engine`, `core`: a small idle SmallBank deployment, one wire
/// connection and one in-process session, one request at a time.
fn engine_and_server(p: &mut Probes, nproc: usize, seed: u64) -> Result<(), String> {
    let db = ReactDB::boot(
        smallbank::spec(PROBE_CUSTOMERS),
        DeploymentConfig::shared_nothing(nproc).with_tracing(TracingConfig::off()),
    );
    smallbank::load(&db, PROBE_CUSTOMERS).map_err(|e| format!("probe load: {e}"))?;
    let db = Arc::new(db);
    let server = Server::start(Arc::clone(&db), ServerConfig::default().with_workers(1))
        .map_err(|e| format!("probe server: {e}"))?;
    let wire =
        WireClient::connect(server.local_addr()).map_err(|e| format!("probe connect: {e}"))?;
    let local = db.client();
    let mut failures = 0u64;

    p.ping_rtt_us = p50_us(1_000, || failures += u64::from(wire.ping().is_err()));

    // The same seeded mix over the wire and in process. User aborts are
    // ordinary replies here; only transport errors count.
    let mix = |n: usize| {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| smallbank_mix(&mut rng, PROBE_CUSTOMERS))
            .collect::<Vec<_>>()
    };
    let mut calls = mix(2_000).into_iter();
    let over_wire = p50_us(2_000, || {
        let c = calls.next().expect("one call per iteration");
        let reply = wire
            .submit_with_ack(&c.reactor, c.proc, c.args, AckLevel::Validated)
            .and_then(|h| h.wait());
        failures += u64::from(matches!(reply, Err(reactdb_common::TxnError::Runtime(_))));
    });
    let mut calls = mix(2_000).into_iter();
    let in_process = p50_us(2_000, || {
        let c = calls.next().expect("one call per iteration");
        let reply = local.invoke(&c.reactor, c.proc, c.args);
        failures += u64::from(matches!(reply, Err(reactdb_common::TxnError::Runtime(_))));
    });
    p.wire_overhead_us = over_wire - in_process;

    let mut customer = 0usize;
    let mut next_customer = || {
        customer = (customer + 1) % PROBE_CUSTOMERS;
        smallbank::customer_name(customer)
    };
    let mut submit_ns = Vec::with_capacity(2_000);
    for _ in 0..2_000 {
        let name = next_customer();
        let started = Instant::now();
        let handle = local.submit(&name, "balance", vec![]);
        submit_ns.push(started.elapsed().as_nanos() as u64);
        failures += u64::from(handle.and_then(|h| h.wait()).is_err());
    }
    submit_ns.sort_unstable();
    p.submit_ns = percentile(&submit_ns, 0.5).expect("2000 samples") as f64;
    p.invoke_us = p50_us(2_000, || {
        failures += u64::from(local.invoke(&next_customer(), "balance", vec![]).is_err());
    });

    // Paper Fig. 5: one source, four destinations on other containers,
    // sequential against fully asynchronous sub-transactions.
    let dsts: Vec<usize> = (1..=4).map(|i| i * PROBE_CUSTOMERS / 5 + 1).collect();
    let args = smallbank::multi_transfer_invocation(0, &dsts, 1.0);
    let src = smallbank::customer_name(0);
    let mut formulation = |proc: &str| {
        p50_us(400, || {
            failures += u64::from(local.invoke(&src, proc, args.clone()).is_err());
        })
    };
    p.fanout_speedup =
        formulation("multi_transfer_sync") / formulation("multi_transfer_fully_async");

    drop(wire);
    server.shutdown();
    if failures > 0 {
        return Err(format!("{failures} probe requests failed"));
    }
    Ok(())
}

fn probe_table(indexes: bool) -> Arc<Table> {
    let schema = Schema::of(
        &[
            ("id", ColumnType::Int),
            ("grp", ColumnType::Int),
            ("val", ColumnType::Int),
        ],
        &["id"],
    );
    let table = if indexes {
        Table::with_indexes("probe", schema, &[vec!["grp".to_owned()]])
    } else {
        Table::new("probe", schema)
    };
    for i in 0..PROBE_ROWS {
        table
            .load_row(Tuple::of([
                Value::Int(i),
                Value::Int(i % 100),
                Value::Int(0),
            ]))
            .expect("fresh key");
    }
    Arc::new(table)
}

/// `txn`: the raw Silo commit, one container and two (2PC), as
/// `benches/occ_commit.rs` drives it.
fn txn(p: &mut Probes) {
    let t0 = probe_table(false);
    let t1 = probe_table(false);
    let epoch = EpochManager::new();
    let gen = TidGen::new();
    let row = |i: i64, v: i64| Tuple::of([Value::Int(i), Value::Int(i % 100), Value::Int(v)]);

    let mut i = 0i64;
    p.commit_ns = ns_per_op(2_000, || {
        i = (i + 1) % PROBE_ROWS;
        let mut txn = OccTxn::new(ContainerId(0));
        let v = txn
            .read_expected(&t0, &Key::Int(i))
            .expect("loaded key")
            .at(2)
            .as_int();
        txn.update(&t0, row(i, v + 1)).expect("loaded key");
        Coordinator::commit(std::slice::from_mut(&mut txn), &epoch, &gen).expect("no contention");
    });
    p.commit_2pc_ns = ns_per_op(2_000, || {
        i = (i + 1) % PROBE_ROWS;
        let mut p0 = OccTxn::new(ContainerId(0));
        let mut p1 = OccTxn::new(ContainerId(1));
        p0.update(&t0, row(i, 1)).expect("loaded key");
        p1.update(&t1, row(i, 1)).expect("loaded key");
        Coordinator::commit(&mut [p0, p1], &epoch, &gen).expect("no contention");
    });
}

/// `storage`: point read, insert and a 100-row range read on one table with
/// a secondary index, alone and with every core doing the same.
fn storage(p: &mut Probes, nproc: usize) {
    for (slot, threads) in [1, nproc].into_iter().enumerate() {
        let table = probe_table(true);
        let next_key = AtomicI64::new(PROBE_ROWS);
        let per_thread: Vec<[f64; 3]> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (table, next_key) = (&table, &next_key);
                    scope.spawn(move || {
                        let mut i = t as i64 * 1_000;
                        let get = ns_per_op(20_000, || {
                            i = (i + 7) % PROBE_ROWS;
                            let record = table.get(&Key::Int(i)).expect("loaded key");
                            black_box(record.read_stable());
                        });
                        let insert = ns_per_op(2_000, || {
                            let k = next_key.fetch_add(1, Ordering::Relaxed);
                            table
                                .load_row(Tuple::of([
                                    Value::Int(k),
                                    Value::Int(k % 100),
                                    Value::Int(0),
                                ]))
                                .expect("fresh key");
                        });
                        let scan = ns_per_op(500, || {
                            i = (i + 7) % (PROBE_ROWS - 100);
                            let hits = table.range(
                                Bound::Included(&Key::Int(i)),
                                Bound::Excluded(&Key::Int(i + 100)),
                            );
                            black_box(hits.len());
                        });
                        [get, insert, scan]
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("storage probe thread panicked"))
                .collect()
        });
        let mean = |k: usize| per_thread.iter().map(|r| r[k]).sum::<f64>() / threads as f64;
        p.get_ns[slot] = mean(0);
        p.insert_ns[slot] = mean(1);
        p.scan100_ns[slot] = mean(2);
    }
}
