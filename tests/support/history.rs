//! The black-box serializability checker and its register workload, shared
//! between the in-process history test (`tests/history_check.rs`) and the
//! wire-protocol one (`tests/wire_history_check.rs`).
//!
//! In the spirit of *Efficient Black-box Checking of Snapshot Isolation in
//! Databases* (Huang et al.): the engine is treated as a black box. A
//! concurrent workload of read-modify-write register transactions (point
//! rmw, cross-reactor 2PC rmw, and read-only snapshots) records, through
//! whatever session API the test supplies, what each committed transaction
//! *observed* — each register's version counter at read time — and what it
//! wrote (version + 1 under its own label). An offline pass then
//! reconstructs the dependency graph from the observations alone:
//!
//! * **WR**: the writer of the version a transaction read precedes it;
//! * **WW**: the writer of version `v` precedes the writer of `v + 1`;
//! * **RW**: a reader of version `v` precedes the writer of `v + 1`.
//!
//! Serializability requires this graph to be acyclic (conflict
//! serializability, Bernstein et al.; the repo's `reactdb_core::history`
//! module supplies the cycle test). A cycle means the engine committed an
//! interleaving with no equivalent serial order — the history is dumped so
//! the offending transactions can be read off. Two structural invariants
//! are checked on the way: every `(register, version)` pair has exactly
//! one writer (a duplicate is a lost update) and versions are dense (a
//! gap means a committed write built on a version that was never
//! committed).
//!
//! The workload is invoker-agnostic: [`run_workload_with`] takes a factory
//! producing one `invoke` closure per worker thread, so the same history
//! can be driven through an in-process [`reactdb::engine::ReactDB`] client
//! or a `reactdb-client` wire connection — the checker cannot tell the
//! difference, which is the point.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicI64, Ordering};

use reactdb::common::{Key, Result, TxnError, Value};
use reactdb::core::history::ConflictGraph;
use reactdb::core::{ReactorDatabaseSpec, ReactorType};
use reactdb::engine::ReactDB;
use reactdb::storage::{ColumnType, RelationDef, Schema, Tuple};

pub const SHARDS: usize = 3;
pub const KEYS_PER_SHARD: i64 = 4;
pub const THREADS: usize = 4;
pub const TXNS_PER_THREAD: usize = 40;

pub fn shard_name(i: usize) -> String {
    format!("shard-{i}")
}

/// One observed read: (shard, key) is the register, `ver` the version
/// counter the transaction saw.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReadObs {
    pub shard: String,
    pub key: i64,
    pub ver: i64,
}

pub fn parse_observations(s: &str) -> Vec<ReadObs> {
    s.split(';')
        .filter(|part| !part.is_empty())
        .map(|part| {
            let mut fields = part.split(':');
            ReadObs {
                shard: fields.next().expect("shard").to_owned(),
                key: fields.next().expect("key").parse().expect("key int"),
                ver: fields.next().expect("ver").parse().expect("ver int"),
            }
        })
        .collect()
}

/// The register server: each shard reactor owns `KEYS_PER_SHARD` versioned
/// registers. `rmw` reads and bumps each named register under the caller's
/// label and reports the observed versions; `rmw_remote` additionally bumps
/// a register on another shard through a sub-transaction (2PC);
/// `snapshot` only reads.
pub fn spec() -> ReactorDatabaseSpec {
    let rmw_local =
        |ctx: &reactdb::core::ReactorCtx<'_>, label: i64, keys: &[i64]| -> Result<String> {
            let mut obs = Vec::new();
            for key in keys {
                let row = ctx.get_expected("regs", &Key::Int(*key))?;
                let ver = row.at(1).as_int();
                obs.push(format!("{}:{}:{}", ctx.reactor_name(), key, ver));
                ctx.update(
                    "regs",
                    Tuple::of([
                        Value::Int(*key),
                        Value::Int(ver + 1),
                        Value::Int(label),
                        row.at(3).clone(),
                    ]),
                )?;
            }
            Ok(obs.join(";"))
        };
    let registers = ReactorType::new("Registers")
        .with_relation(RelationDef::new(
            "regs",
            Schema::of(
                &[
                    ("id", ColumnType::Int),
                    ("ver", ColumnType::Int),
                    ("writer", ColumnType::Int),
                    // Fixed payload: gives every logged row a realistic
                    // width.
                    ("pad", ColumnType::Str),
                ],
                &["id"],
            ),
        ))
        .with_procedure("rmw", move |ctx, args| {
            let label = args[0].as_int();
            let keys: Vec<i64> = args[1..].iter().map(|v| v.as_int()).collect();
            Ok(Value::Str(rmw_local(ctx, label, &keys)?))
        })
        .with_procedure("rmw_remote", move |ctx, args| {
            // args: [label, local key, dst shard, dst key]
            let label = args[0].as_int();
            let local = rmw_local(ctx, label, &[args[1].as_int()])?;
            let dst = args[2].as_str().to_owned();
            let remote = ctx
                .call(&dst, "rmw", vec![Value::Int(label), args[3].clone()])?
                .get()?;
            Ok(Value::Str(format!("{local};{}", remote.as_str())))
        })
        .with_procedure("snapshot", move |ctx, args| {
            let mut obs = Vec::new();
            for key in args.iter().map(|v| v.as_int()) {
                let row = ctx.get_expected("regs", &Key::Int(key))?;
                obs.push(format!(
                    "{}:{}:{}",
                    ctx.reactor_name(),
                    key,
                    row.at(1).as_int()
                ));
            }
            Ok(Value::Str(obs.join(";")))
        });

    let mut spec = ReactorDatabaseSpec::new();
    spec.add_type(registers);
    for i in 0..SHARDS {
        spec.add_reactor(shard_name(i), "Registers");
    }
    spec
}

pub fn load(db: &ReactDB) {
    for shard in 0..SHARDS {
        for key in 0..KEYS_PER_SHARD {
            db.load_row(
                &shard_name(shard),
                "regs",
                Tuple::of([
                    Value::Int(key),
                    Value::Int(0),
                    Value::Int(0),
                    Value::Str("register-payload-".repeat(4)),
                ]),
            )
            .unwrap();
        }
    }
}

/// One committed transaction's black-box record.
#[derive(Debug, Clone)]
pub struct TxnRecord {
    pub label: i64,
    pub reads: Vec<ReadObs>,
    /// Registers this transaction wrote (at version `read + 1`); empty for
    /// snapshots.
    pub writes: Vec<ReadObs>,
}

/// A tiny deterministic RNG so the workload needs no external crate state.
pub struct Lcg(pub u64);
impl Lcg {
    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Runs the concurrent workload through an in-process client per thread.
pub fn run_workload(db: &ReactDB) -> Vec<TxnRecord> {
    run_workload_with(|_| {
        let client = db.client();
        move |reactor: &str, procedure: &str, args: Vec<Value>| {
            client.invoke(reactor, procedure, args)
        }
    })
}

/// Runs the concurrent workload and returns every *committed* transaction's
/// observation record. Aborted attempts are discarded: they installed
/// nothing, so the black box never shows their labels.
///
/// `make_invoker` is called once per worker thread (on the spawning thread)
/// and produces that thread's `invoke(reactor, procedure, args)` function —
/// an in-process session or a wire connection, the checker doesn't care.
pub fn run_workload_with<C, F>(make_invoker: F) -> Vec<TxnRecord>
where
    C: Fn(&str, &str, Vec<Value>) -> std::result::Result<Value, TxnError> + Send,
    F: Fn(usize) -> C,
{
    let labels = AtomicI64::new(1);
    let records: Vec<TxnRecord> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let labels = &labels;
                let invoke = make_invoker(t);
                scope.spawn(move || {
                    let mut rng = Lcg(0x9E3779B97F4A7C15 ^ (t as u64 + 1));
                    let mut committed = Vec::new();
                    for _ in 0..TXNS_PER_THREAD {
                        let label = labels.fetch_add(1, Ordering::Relaxed);
                        let shard = rng.below(SHARDS as u64) as usize;
                        let k0 = rng.below(KEYS_PER_SHARD as u64) as i64;
                        let k1 =
                            (k0 + 1 + rng.below(KEYS_PER_SHARD as u64 - 1) as i64) % KEYS_PER_SHARD;
                        let (proc, args, writes_reads): (&str, Vec<Value>, bool) =
                            match rng.below(4) {
                                // Multi-register rmw on one shard.
                                0 | 1 => (
                                    "rmw",
                                    vec![Value::Int(label), Value::Int(k0), Value::Int(k1)],
                                    true,
                                ),
                                // Cross-shard rmw: a 2PC commit.
                                2 => {
                                    let dst = (shard + 1) % SHARDS;
                                    (
                                        "rmw_remote",
                                        vec![
                                            Value::Int(label),
                                            Value::Int(k0),
                                            Value::Str(shard_name(dst)),
                                            Value::Int(k1),
                                        ],
                                        true,
                                    )
                                }
                                // Read-only snapshot of two registers.
                                _ => ("snapshot", vec![Value::Int(k0), Value::Int(k1)], false),
                            };
                        match invoke(&shard_name(shard), proc, args) {
                            Ok(Value::Str(obs)) => {
                                let reads = parse_observations(&obs);
                                let writes = if writes_reads {
                                    reads
                                        .iter()
                                        .map(|r| ReadObs {
                                            shard: r.shard.clone(),
                                            key: r.key,
                                            ver: r.ver + 1,
                                        })
                                        .collect()
                                } else {
                                    Vec::new()
                                };
                                committed.push(TxnRecord {
                                    label,
                                    reads,
                                    writes,
                                });
                            }
                            Ok(v) => panic!("unexpected result {v:?}"),
                            // OCC/2PC aborts are part of normal operation;
                            // the label dies with the attempt.
                            Err(e) if e.is_cc_abort() || e.is_dangerous_structure() => {}
                            Err(e) => panic!("unexpected error {e:?}"),
                        }
                    }
                    committed
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    records
}

/// The offline pass: rebuilds the dependency graph from observations and
/// asserts acyclicity, dumping the history on violation.
pub fn check_history(records: &[TxnRecord], context: &str) {
    // Version ledger per register: version -> writing label. Version 0 is
    // the initial load, attributed to the virtual transaction 0.
    let mut writers: HashMap<(String, i64), BTreeMap<i64, i64>> = HashMap::new();
    for record in records {
        for w in &record.writes {
            let ledger = writers.entry((w.shard.clone(), w.key)).or_default();
            if let Some(previous) = ledger.insert(w.ver, record.label) {
                dump_and_panic(
                    records,
                    context,
                    &format!(
                        "lost update: {}:{} version {} written by both txn {} and txn {}",
                        w.shard, w.key, w.ver, previous, record.label
                    ),
                );
            }
        }
    }
    for ledger in writers.values_mut() {
        ledger.insert(0, 0);
    }
    // Density: committed writes build on committed versions only.
    for ((shard, key), ledger) in &writers {
        let max = *ledger.keys().last().unwrap();
        if ledger.len() as i64 != max + 1 {
            dump_and_panic(
                records,
                context,
                &format!("version gap on {shard}:{key}: ledger {ledger:?}"),
            );
        }
    }

    let mut nodes: Vec<u64> = records.iter().map(|r| r.label as u64).collect();
    nodes.push(0);
    let mut graph = ConflictGraph::new(nodes);
    for ledger in writers.values() {
        // WW: version order is dependency order between writers.
        let labels: Vec<i64> = ledger.values().copied().collect();
        for pair in labels.windows(2) {
            graph.add_edge(pair[0] as u64, pair[1] as u64);
        }
    }
    for record in records {
        for read in &record.reads {
            let ledger = &writers[&(read.shard.clone(), read.key)];
            // WR: the writer of the observed version precedes the reader.
            let writer = *ledger.get(&read.ver).unwrap_or_else(|| {
                dump_and_panic(
                    records,
                    context,
                    &format!(
                        "txn {} read {}:{} version {} which no committed txn wrote",
                        record.label, read.shard, read.key, read.ver
                    ),
                );
            });
            graph.add_edge(writer as u64, record.label as u64);
            // RW: the reader precedes whoever overwrote what it read.
            if let Some(next_writer) = ledger.get(&(read.ver + 1)) {
                graph.add_edge(record.label as u64, *next_writer as u64);
            }
        }
    }
    if !graph.is_acyclic() {
        dump_and_panic(
            records,
            context,
            "dependency graph has a cycle: no equivalent serial order exists",
        );
    }
    // An acyclic graph has a serial witness; sanity-check the API agrees.
    assert!(graph.serial_order().is_some(), "{context}: witness exists");
}

/// The snapshot-isolation variant of [`check_history`]: the same ledger
/// invariants, but the cycle test drops RW (anti-dependency) edges.
///
/// Under SI every transaction reads one consistent snapshot and
/// first-committer-wins orders conflicting writers, so the WW ∪ WR graph
/// must embed in the commit/snapshot order and stay acyclic — a cycle
/// means a lost update, a torn snapshot, or a read of a version newer
/// than some version the same transaction missed. What SI deliberately
/// permits (and serializability forbids) are cycles *through* RW edges —
/// write skew, and stale-but-consistent reads whose observed versions
/// were already overwritten at read time. Follower reads are exactly
/// that second case: served at the follower's applied stable epoch, they
/// may trail the primary by whole epochs, but must still be one
/// transactionally consistent snapshot. So the follower-read history is
/// checked with this variant, with the RW staleness edges excluded.
pub fn check_history_si(records: &[TxnRecord], context: &str) {
    // Version ledger per register, exactly as the serializable checker
    // builds it: unique writer per version (SI forbids lost updates) and
    // dense versions (writes build on committed versions only).
    let mut writers: HashMap<(String, i64), BTreeMap<i64, i64>> = HashMap::new();
    for record in records {
        for w in &record.writes {
            let ledger = writers.entry((w.shard.clone(), w.key)).or_default();
            if let Some(previous) = ledger.insert(w.ver, record.label) {
                dump_and_panic(
                    records,
                    context,
                    &format!(
                        "lost update: {}:{} version {} written by both txn {} and txn {}",
                        w.shard, w.key, w.ver, previous, record.label
                    ),
                );
            }
        }
    }
    for ledger in writers.values_mut() {
        ledger.insert(0, 0);
    }
    for ((shard, key), ledger) in &writers {
        let max = *ledger.keys().last().unwrap();
        if ledger.len() as i64 != max + 1 {
            dump_and_panic(
                records,
                context,
                &format!("version gap on {shard}:{key}: ledger {ledger:?}"),
            );
        }
    }

    let mut nodes: Vec<u64> = records.iter().map(|r| r.label as u64).collect();
    nodes.push(0);
    let mut graph = ConflictGraph::new(nodes);
    for ledger in writers.values() {
        // WW: first-committer-wins totally orders a register's writers.
        let labels: Vec<i64> = ledger.values().copied().collect();
        for pair in labels.windows(2) {
            graph.add_edge(pair[0] as u64, pair[1] as u64);
        }
    }
    for record in records {
        for read in &record.reads {
            let ledger = &writers[&(read.shard.clone(), read.key)];
            // WR: the writer of the observed version committed before the
            // reader's snapshot. No RW edges: staleness is SI-legal.
            let writer = *ledger.get(&read.ver).unwrap_or_else(|| {
                dump_and_panic(
                    records,
                    context,
                    &format!(
                        "txn {} read {}:{} version {} which no committed txn wrote",
                        record.label, read.shard, read.key, read.ver
                    ),
                );
            });
            graph.add_edge(writer as u64, record.label as u64);
        }
    }
    if !graph.is_acyclic() {
        dump_and_panic(
            records,
            context,
            "WW ∪ WR graph has a cycle: some transaction saw a torn snapshot",
        );
    }
}

pub fn dump_and_panic(records: &[TxnRecord], context: &str, reason: &str) -> ! {
    eprintln!("=== serializability violation ({context}): {reason} ===");
    for record in records {
        eprintln!(
            "txn {:>4}: reads {:?} writes {:?}",
            record.label, record.reads, record.writes
        );
    }
    panic!("{context}: {reason}");
}

/// Standard run for one deployment config through the in-process client.
pub fn run_and_check(config: reactdb::common::DeploymentConfig, context: &str) {
    let db = std::sync::Arc::new(ReactDB::boot(spec(), config));
    load(&db);
    let records = run_workload(&db);
    assert_commit_mix(&records, context);
    check_history(&records, context);
}

/// The run must have enough commits, and both read-write and read-only
/// ones, to be a meaningful check.
pub fn assert_commit_mix(records: &[TxnRecord], context: &str) {
    assert!(
        records.len() >= THREADS * TXNS_PER_THREAD / 2,
        "{context}: too few commits ({}) to be meaningful",
        records.len()
    );
    let rw_commits = records.iter().filter(|r| !r.writes.is_empty()).count();
    let ro_commits = records.len() - rw_commits;
    assert!(
        rw_commits > 0 && ro_commits > 0,
        "{context}: mixed workload"
    );
}
