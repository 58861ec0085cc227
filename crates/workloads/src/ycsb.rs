//! YCSB with the `multi_update` transaction (Appendix C), plus a
//! YCSB-E-style scan workload over range-partitioned shards.
//!
//! Each key is modelled as a reactor holding a single-row `usertable`
//! relation. The `multi_update` transaction performs a read-modify-write on
//! ten keys, invoking an `update` sub-transaction asynchronously on each key
//! reactor; keys are selected from a zipfian distribution whose constant
//! controls skew. Keys owned by remote executors are sorted before local
//! ones so that transactions remain fork-join (as the appendix describes).
//!
//! The scan variant ([`range_spec`]) models YCSB-E: `YcsbShard` reactors
//! each encapsulate a contiguous slice of the keyspace in one multi-row
//! `usertable`, and the workload mixes short bounded scans (the dominant
//! operation) with record inserts — exactly the mix that exercises
//! phantom-safe range scans, since every insert changes the membership of
//! ranges concurrent scans may cover.

use rand::rngs::StdRng;
use rand::Rng;
use reactdb_common::zipf::Zipfian;
use reactdb_common::{Key, Result, Value};
use reactdb_core::{ReactorDatabaseSpec, ReactorType};
use reactdb_engine::ReactDB;
use reactdb_sim::SimTxn;
use reactdb_storage::{ColumnType, RelationDef, Schema, Tuple};

/// Name of the key reactor with index `idx`.
pub fn key_name(idx: usize) -> String {
    format!("key-{idx}")
}

/// Number of keys touched by one `multi_update` transaction.
pub const KEYS_PER_TXN: usize = 10;

/// Record payload size in bytes (the appendix uses 100-byte records).
pub const RECORD_SIZE: usize = 100;

/// Processing cost of a single read-modify-write update, for the simulator
/// and the cost-model prediction (µs).
pub const UPDATE_COST_US: f64 = 1.5;

/// Builds the YCSB reactor database specification with `keys` key-reactors.
pub fn spec(keys: usize) -> ReactorDatabaseSpec {
    let key_type = ReactorType::new("YcsbKey")
        .with_relation(RelationDef::new(
            "usertable",
            Schema::of(
                &[("id", ColumnType::Int), ("field", ColumnType::Str)],
                &["id"],
            ),
        ))
        .with_procedure("read", |ctx, _args| {
            let row = ctx.get_expected("usertable", &Key::Int(0))?;
            Ok(row.at(1).clone())
        })
        .with_procedure("update", |ctx, args| {
            // Read-modify-write of the single record held by this reactor.
            let suffix = args[0].as_str().to_owned();
            let row = ctx.update_with("usertable", &Key::Int(0), |t| {
                let mut field = t.at(1).as_str().to_owned();
                field.truncate(RECORD_SIZE.saturating_sub(suffix.len()));
                field.push_str(&suffix);
                t.values_mut()[1] = Value::Str(field);
            })?;
            Ok(Value::Int(row.at(1).as_str().len() as i64))
        })
        .with_procedure("multi_update", |ctx, args| {
            // args: payload suffix followed by the target key reactor names.
            let suffix = args[0].as_str().to_owned();
            for target in &args[1..] {
                ctx.call(target.as_str(), "update", vec![Value::Str(suffix.clone())])?;
            }
            Ok(Value::Int((args.len() - 1) as i64))
        });

    let mut spec = ReactorDatabaseSpec::new();
    spec.add_type(key_type);
    for i in 0..keys {
        spec.add_reactor(key_name(i), "YcsbKey");
    }
    spec
}

/// Loads one 100-byte record into every key reactor.
pub fn load(db: &ReactDB, keys: usize) -> Result<()> {
    for i in 0..keys {
        db.load_row(
            &key_name(i),
            "usertable",
            Tuple::of([Value::Int(0), Value::Str("x".repeat(RECORD_SIZE))]),
        )?;
    }
    Ok(())
}

/// Generates the keys of one `multi_update`: zipfian-distributed, deduplicated,
/// sorted so that remote keys precede local ones (fork-join shape).
pub fn pick_keys(
    zipf: &Zipfian,
    rng: &mut StdRng,
    executor_of: impl Fn(usize) -> usize,
    home_executor: usize,
) -> Vec<usize> {
    let mut keys = Vec::with_capacity(KEYS_PER_TXN);
    while keys.len() < KEYS_PER_TXN {
        let k = zipf.sample(rng) as usize;
        if !keys.contains(&k) {
            keys.push(k);
        } else if zipf.theta() >= 4.0 {
            // Extremely skewed distributions may not have ten distinct keys
            // in practice; allow duplicates so the loop terminates (the
            // appendix's 5.0-skew case effectively touches a single key).
            keys.push(k);
        }
    }
    keys.sort_by_key(|k| {
        if executor_of(*k) == home_executor {
            1
        } else {
            0
        }
    });
    keys
}

/// Builds the engine invocation for a `multi_update` over `keys`, invoked on
/// the first key's reactor.
pub fn multi_update_invocation(keys: &[usize]) -> (String, Vec<Value>) {
    let target = key_name(keys[0]);
    let mut args = vec![Value::Str("y".repeat(8))];
    args.extend(keys.iter().map(|k| Value::Str(key_name(*k))));
    (target, args)
}

// ---------------------------------------------------------------------------
// YCSB-E: range-partitioned shards with a scan/insert mix.
// ---------------------------------------------------------------------------

/// Name of the range-shard reactor with index `idx`.
pub fn shard_name(idx: usize) -> String {
    format!("shard-{idx}")
}

/// Fraction of scan operations in the YCSB-E mix (the standard E profile is
/// 95% scans / 5% inserts).
pub const E_SCAN_FRACTION: f64 = 0.95;

/// Maximum scan length of the YCSB-E mix.
pub const E_MAX_SCAN_LEN: i64 = 100;

/// Builds the YCSB-E reactor database: `shards` `YcsbShard` reactors, each
/// encapsulating a multi-row slice of the keyspace.
pub fn range_spec(shards: usize) -> ReactorDatabaseSpec {
    let shard = ReactorType::new("YcsbShard")
        .with_relation(RelationDef::new(
            "usertable",
            Schema::of(
                &[("id", ColumnType::Int), ("field", ColumnType::Str)],
                &["id"],
            ),
        ))
        .with_procedure("scan_e", |ctx, args| {
            // args: [start, len] — the YCSB-E SCAN: a bounded range read of
            // up to `len` records starting at `start`. Phantom-safe: the
            // traversed index nodes are validated at commit.
            let start = args[0].as_int();
            let len = args[1].as_int().max(0);
            let rows = ctx.scan_bounded("usertable", Key::Int(start)..Key::Int(start + len))?;
            Ok(Value::Int(rows.len() as i64))
        })
        .with_procedure("insert_e", |ctx, args| {
            // args: [id, payload] — the YCSB-E INSERT.
            ctx.insert(
                "usertable",
                Tuple::of([Value::Int(args[0].as_int()), args[1].clone()]),
            )?;
            Ok(Value::Null)
        })
        .with_procedure("read_e", |ctx, args| {
            let row = ctx.get("usertable", &Key::Int(args[0].as_int()))?;
            Ok(row.map(|r| r.at(1).clone()).unwrap_or(Value::Null))
        })
        .with_procedure("update_e", |ctx, args| {
            let payload = args[1].clone();
            ctx.update_with("usertable", &Key::Int(args[0].as_int()), |t| {
                t.values_mut()[1] = payload.clone();
            })?;
            Ok(Value::Null)
        });

    let mut spec = ReactorDatabaseSpec::new();
    spec.add_type(shard);
    for i in 0..shards {
        spec.add_reactor(shard_name(i), "YcsbShard");
    }
    spec
}

/// Id of the first key of shard `s`'s slice. Each slice is twice
/// `keys_per_shard` wide: the lower half is populated by [`load_range`],
/// the upper half receives the mix's inserts — directly above the scanned
/// region, so inserts land inside ranges concurrent scans cover and the
/// phantom path is genuinely exercised.
pub fn shard_base(shard: usize, keys_per_shard: usize) -> i64 {
    (shard * 2 * keys_per_shard) as i64
}

/// Loads `keys_per_shard` records into the lower half of every shard's
/// slice of the keyspace.
pub fn load_range(db: &ReactDB, shards: usize, keys_per_shard: usize) -> Result<()> {
    for s in 0..shards {
        let base = shard_base(s, keys_per_shard);
        for i in 0..keys_per_shard as i64 {
            db.load_row(
                &shard_name(s),
                "usertable",
                Tuple::of([Value::Int(base + i), Value::Str("x".repeat(RECORD_SIZE))]),
            )?;
        }
    }
    Ok(())
}

/// Creates the per-shard insert sequences shared by every worker of an
/// E-mix run (one counter per shard, so inserted ids stay dense within
/// each shard's slice).
pub fn e_insert_seqs(shards: usize) -> Vec<std::sync::atomic::AtomicI64> {
    (0..shards)
        .map(|_| std::sync::atomic::AtomicI64::new(0))
        .collect()
}

/// One operation of the YCSB-E mix: the target shard reactor, procedure
/// name, and arguments. Scans dominate ([`E_SCAN_FRACTION`]); the rest are
/// inserts of fresh ids drawn from the target shard's counter in
/// `insert_seqs` (see [`e_insert_seqs`]), which the caller shares across
/// workers so ids within a shard never collide.
///
/// # Panics
/// Panics when `insert_seqs` does not hold one counter per shard.
pub fn e_mix_invocation(
    rng: &mut StdRng,
    shards: usize,
    keys_per_shard: usize,
    insert_seqs: &[std::sync::atomic::AtomicI64],
) -> (String, &'static str, Vec<Value>) {
    assert_eq!(insert_seqs.len(), shards, "one insert counter per shard");
    let shard = rng.gen_range(0..shards);
    let base = shard_base(shard, keys_per_shard);
    if rng.gen_range(0.0..1.0) < E_SCAN_FRACTION {
        let start = base + rng.gen_range(0..keys_per_shard as i64);
        let len = 1 + rng.gen_range(0..E_MAX_SCAN_LEN);
        (
            shard_name(shard),
            "scan_e",
            vec![Value::Int(start), Value::Int(len)],
        )
    } else {
        // Fresh ids fill the upper half of the slice, immediately above
        // the loaded keys: scans whose window reaches past the loaded
        // region race these inserts and must re-validate their node sets.
        let id = base
            + keys_per_shard as i64
            + insert_seqs[shard].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        (
            shard_name(shard),
            "insert_e",
            vec![Value::Int(id), Value::Str("y".repeat(RECORD_SIZE))],
        )
    }
}

/// Simulator workload for the skew experiment of Appendix C.
#[derive(Debug, Clone)]
pub struct YcsbSimWorkload {
    /// Total number of key reactors (scale factor × 10 000).
    pub keys: usize,
    /// Number of executors the keys are striped over.
    pub executors: usize,
    /// Zipfian constant controlling skew.
    pub theta: f64,
    zipf: Zipfian,
}

impl YcsbSimWorkload {
    /// Creates the workload.
    pub fn new(keys: usize, executors: usize, theta: f64) -> Self {
        Self {
            keys,
            executors,
            theta,
            zipf: Zipfian::new(keys as u64, theta),
        }
    }
}

impl reactdb_sim::SimWorkload for YcsbSimWorkload {
    fn next_txn(&mut self, _worker: usize, rng: &mut StdRng) -> SimTxn {
        let executors = self.executors;
        let keys = pick_keys(&self.zipf, rng, |k| k % executors, usize::MAX);
        // The transaction is invoked on a randomly chosen reactor among the
        // ten keys (Appendix C).
        let root_key = keys[rng.gen_range(0..keys.len())];
        let home_exec = root_key % executors;
        let mut txn = SimTxn::leaf(root_key, 1.0);
        let mut local_work = 0.0;
        for k in keys {
            if k % executors == home_exec {
                local_work += UPDATE_COST_US;
            } else {
                txn = txn.with_async(SimTxn::leaf(k, UPDATE_COST_US));
            }
        }
        txn.with_overlap(local_work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use reactdb_common::DeploymentConfig;
    use reactdb_sim::SimWorkload as _;

    #[test]
    fn multi_update_touches_every_target_reactor() {
        let db = ReactDB::boot(spec(12), DeploymentConfig::shared_nothing(4));
        load(&db, 12).unwrap();
        let client = db.client();
        let keys = [3, 7, 11];
        let (target, args) = multi_update_invocation(&keys);
        let touched = client.invoke(&target, "multi_update", args).unwrap();
        assert_eq!(touched, Value::Int(3));
        // Pipelined read-back of every touched reactor.
        let reads = client
            .submit_batch(keys.map(|k| reactdb_engine::Call::new(key_name(k), "read", vec![])))
            .unwrap();
        for handle in &reads {
            assert_eq!(
                handle.wait().unwrap(),
                Value::Str(format!("{}{}", "x".repeat(RECORD_SIZE - 8), "y".repeat(8)))
            );
        }
        // Untouched keys keep their original payload.
        assert_eq!(
            client.invoke(&key_name(0), "read", vec![]).unwrap(),
            Value::Str("x".repeat(RECORD_SIZE))
        );
    }

    #[test]
    fn scan_e_reads_bounded_windows_and_sees_inserts() {
        let db = ReactDB::boot(range_spec(2), DeploymentConfig::shared_nothing(2));
        load_range(&db, 2, 100).unwrap();
        let client = db.client();
        let base = shard_base(1, 100);
        // A window fully inside the loaded region.
        let n = client
            .invoke(
                &shard_name(1),
                "scan_e",
                vec![Value::Int(base), Value::Int(10)],
            )
            .unwrap();
        assert_eq!(n, Value::Int(10));
        // A window reaching past the loaded region sees fewer rows...
        let n = client
            .invoke(
                &shard_name(1),
                "scan_e",
                vec![Value::Int(base + 95), Value::Int(10)],
            )
            .unwrap();
        assert_eq!(n, Value::Int(5));
        // ...until an insert lands inside it.
        client
            .invoke(
                &shard_name(1),
                "insert_e",
                vec![Value::Int(base + 100), Value::Str("new".into())],
            )
            .unwrap();
        let n = client
            .invoke(
                &shard_name(1),
                "scan_e",
                vec![Value::Int(base + 95), Value::Int(10)],
            )
            .unwrap();
        assert_eq!(n, Value::Int(6));
        assert!(
            db.metrics().counter("scan_ops").unwrap() >= 3,
            "scans are counted"
        );
    }

    #[test]
    fn e_mix_under_concurrent_load_stays_consistent() {
        use reactdb_engine::RetryPolicy;
        use std::sync::Arc;

        let shards = 2;
        let kps = 120;
        let db = Arc::new(ReactDB::boot(
            range_spec(shards),
            DeploymentConfig::shared_nothing(2),
        ));
        load_range(&db, shards, kps).unwrap();
        let insert_seqs = Arc::new(e_insert_seqs(shards));

        let threads: Vec<_> = (0..3)
            .map(|worker| {
                let db = Arc::clone(&db);
                let insert_seqs = Arc::clone(&insert_seqs);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(worker);
                    let mut committed = 0u64;
                    for _ in 0..120 {
                        let (reactor, proc, args) =
                            e_mix_invocation(&mut rng, shards, kps, &insert_seqs);
                        // Phantom and validation aborts are transient; the
                        // retry policy drives the scan to a clean commit.
                        match db.client().invoke_with_retry(
                            &reactor,
                            proc,
                            args,
                            &RetryPolicy::occ(),
                        ) {
                            Ok(_) => committed += 1,
                            Err(e) if e.is_cc_abort() => {}
                            Err(e) => panic!("unexpected error {e:?}"),
                        }
                    }
                    committed
                })
            })
            .collect();
        let committed: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert!(committed > 0);
        // Every insert that committed is present exactly once: the loaded
        // rows plus the successful inserts add up.
        let total_rows: usize = (0..shards)
            .map(|s| db.table(&shard_name(s), "usertable").unwrap().visible_len())
            .sum();
        let inserted: usize = insert_seqs
            .iter()
            .map(|s| s.load(std::sync::atomic::Ordering::Relaxed) as usize)
            .sum();
        assert!(total_rows >= shards * kps && total_rows <= shards * kps + inserted);
        assert!(db.metrics().counter("scan_ops").unwrap() > 0);
    }

    #[test]
    fn pick_keys_orders_remote_before_local() {
        let zipf = Zipfian::new(1000, 0.5);
        let mut rng = StdRng::seed_from_u64(5);
        let keys = pick_keys(&zipf, &mut rng, |k| k % 4, 2);
        assert_eq!(keys.len(), KEYS_PER_TXN);
        let first_local = keys.iter().position(|k| k % 4 == 2);
        if let Some(pos) = first_local {
            assert!(
                keys[pos..].iter().all(|k| k % 4 == 2),
                "locals are a suffix: {keys:?}"
            );
        }
    }

    #[test]
    fn higher_skew_means_fewer_remote_children() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut low = YcsbSimWorkload::new(40_000, 4, 0.01);
        let mut high = YcsbSimWorkload::new(40_000, 4, 5.0);
        let avg_remote = |wl: &mut YcsbSimWorkload, rng: &mut StdRng| {
            let total: usize = (0..200)
                .map(|_| wl.next_txn(0, rng).async_children.len())
                .sum();
            total as f64 / 200.0
        };
        let low_remote = avg_remote(&mut low, &mut rng);
        let high_remote = avg_remote(&mut high, &mut rng);
        assert!(
            low_remote > high_remote,
            "uniform access should hit more remote executors ({low_remote} vs {high_remote})"
        );
        assert!(
            high_remote < 1.0,
            "at skew 5.0 nearly everything is the same key"
        );
    }
}
