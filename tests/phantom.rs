//! End-to-end phantom-serializability tests: a committed insert into a
//! concurrently scanned range must abort the scanner with a
//! phantom-classified error, a non-overlapping insert must not, and a
//! `RetryPolicy`-driven retry must then succeed. A scan that stops at a
//! limit is held to the same rule over the span it walked, and to no rule
//! beyond it — and so is a secondary-index lookup, whose entries are one
//! span of the index per index key.

use std::collections::HashSet;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use reactdb_common::{DeploymentConfig, Key, TxnError, Value};
use reactdb_core::{ReactorDatabaseSpec, ReactorType};
use reactdb_engine::{ReactDB, RetryPolicy};
use reactdb_storage::{ColumnType, RelationDef, Schema, Tuple};

/// A ledger reactor whose `scan_window` procedure scans a bounded id range
/// and then spins long enough for a concurrent insert to commit inside the
/// window before the scanner validates.
fn ledger_spec() -> ReactorDatabaseSpec {
    let ledger = ReactorType::new("Ledger")
        .with_relation(RelationDef::new(
            "entries",
            Schema::of(
                &[("id", ColumnType::Int), ("val", ColumnType::Int)],
                &["id"],
            ),
        ))
        .with_procedure("scan_window", |ctx, args| {
            // args: [low, high, spin]
            let low = args[0].as_int();
            let high = args[1].as_int();
            let spin = args[2].as_int() as u64;
            let rows = ctx.scan_bounded("entries", Key::Int(low)..Key::Int(high))?;
            ctx.busy_work(spin);
            Ok(Value::Int(rows.len() as i64))
        })
        .with_procedure("insert_entry", |ctx, args| {
            ctx.insert(
                "entries",
                Tuple::of([Value::Int(args[0].as_int()), Value::Int(0)]),
            )?;
            Ok(Value::Null)
        });
    let mut spec = ReactorDatabaseSpec::new();
    spec.add_type(ledger);
    spec.add_reactor("ledger", "Ledger");
    spec
}

fn boot() -> ReactDB {
    // Round-robin routing: the scanner and the racing inserter land on
    // different executors of the shared container, so they genuinely run
    // concurrently (affinity routing would serialize them on the ledger
    // reactor's home executor).
    let db = ReactDB::boot(
        ledger_spec(),
        DeploymentConfig::shared_everything_without_affinity(2),
    );
    for i in 0..50i64 {
        db.load_row(
            "ledger",
            "entries",
            Tuple::of([Value::Int(i), Value::Int(0)]),
        )
        .unwrap();
    }
    db
}

/// Spin budget long enough that the racing insert reliably commits while
/// the scanner is still between its scan and its validation.
const SPIN: i64 = 40_000_000;

/// Root transactions aborted by node-set validation, as exported.
fn phantom_aborts(db: &ReactDB) -> u64 {
    db.metrics()
        .counter("txn_aborts{reason=\"phantom\"}")
        .unwrap()
}

/// Submits a slow scanner of `[0, 1000)` and, while it spins, commits an
/// insert of `key`. Returns the scanner's outcome.
fn race_scan_against_insert(db: &ReactDB, key: i64) -> Result<Value, TxnError> {
    let client = db.client();
    let scanner = client
        .submit(
            "ledger",
            "scan_window",
            vec![Value::Int(0), Value::Int(1000), Value::Int(SPIN)],
        )
        .unwrap();
    // Give the scanner a head start so its scan happened, then commit the
    // insert while it is still spinning.
    std::thread::sleep(Duration::from_millis(5));
    client
        .invoke("ledger", "insert_entry", vec![Value::Int(key)])
        .unwrap();
    scanner.wait()
}

#[test]
fn committed_insert_into_scanned_range_phantom_aborts_the_scanner() {
    let db = boot();
    let mut saw_phantom = false;
    // The interleaving is timing-dependent; retry a few times, though the
    // generous spin makes the first attempt succeed in practice.
    for attempt in 0..10 {
        let key = 500 + attempt; // inside the scanned [0, 1000) window
        match race_scan_against_insert(&db, key) {
            Err(TxnError::Phantom) => {
                saw_phantom = true;
                break;
            }
            Err(e) => panic!("expected a phantom abort, got {e:?}"),
            Ok(_) => {} // insert lost the race; try again
        }
    }
    assert!(
        saw_phantom,
        "scanner must abort with a phantom-classified error"
    );
    assert!(
        phantom_aborts(&db) >= 1,
        "phantom aborts are counted separately"
    );
    assert!(
        db.metrics().counter("txn_cc_aborts").unwrap() >= phantom_aborts(&db),
        "phantoms are a subset of cc aborts"
    );
    assert!(db.metrics().counter("scan_ops").unwrap() >= 1);
}

#[test]
fn non_overlapping_insert_does_not_abort_the_scanner() {
    let db = boot();
    // Grow the table so the scanned prefix and the insert region live on
    // different index nodes.
    for i in 1000..1400i64 {
        db.load_row(
            "ledger",
            "entries",
            Tuple::of([Value::Int(i), Value::Int(0)]),
        )
        .unwrap();
    }
    let phantoms_before = phantom_aborts(&db);
    for attempt in 0..5 {
        // Insert far outside the scanned [0, 1000) window. Only the 50
        // seeded rows fall inside it, and that count must stay stable.
        let value = race_scan_against_insert(&db, 2000 + attempt)
            .expect("a disjoint insert must not abort the scan");
        assert_eq!(value, Value::Int(50), "the scanned prefix is stable");
    }
    assert_eq!(
        phantom_aborts(&db),
        phantoms_before,
        "no phantom was signalled for disjoint ranges"
    );
}

#[test]
fn retry_policy_drives_a_phantom_aborted_scan_to_success() {
    let db = Arc::new(boot());
    // A background inserter keeps committing into the scanned range while
    // the retrying scanner runs.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let inserter = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut key = 10_000i64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                key += 1;
                let _ = db.invoke("ledger", "insert_entry", vec![Value::Int(key)]);
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };
    // The scan covers the inserter's whole key range, so individual
    // attempts may phantom-abort; the OCC retry policy must absorb that
    // and return a clean result. The scan itself is short relative to the
    // insert cadence, so a retry window free of collisions exists.
    let result = db.client().invoke_with_retry(
        "ledger",
        "scan_window",
        vec![Value::Int(0), Value::Int(1_000_000), Value::Int(100_000)],
        &RetryPolicy::occ().with_max_attempts(100),
    );
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    inserter.join().unwrap();
    let count = result.expect("retries converge to a committed scan");
    assert!(
        count.as_int() >= 50,
        "the scan saw at least the loaded rows"
    );
}

// ---------------------------------------------------------------------
// Limited scans: a `scan_limit` validates what it walked and no more.
// These tests force their interleavings with barriers instead of spins.
// ---------------------------------------------------------------------

/// A procedure that reaches a gate waits there twice: once to tell the
/// test it has done its reads or writes, once to be let go on to commit.
/// The test commits whatever it wants to race in between the two.
struct Gates {
    scanner: Arc<Barrier>,
    inserter: Arc<Barrier>,
}

fn pause(gate: &Barrier) {
    gate.wait();
    gate.wait();
}

/// Even ids 10..=798 — enough rows that the index has split into several
/// nodes, with odd ids free for inserts — on a ledger whose `first_n`
/// procedure runs `scan_limit` / `scan_limit_rev` over `[0, 900)`.
fn boot_limited() -> (ReactDB, Gates) {
    let gates = Gates {
        scanner: Arc::new(Barrier::new(2)),
        inserter: Arc::new(Barrier::new(2)),
    };
    let (scanner, inserter) = (Arc::clone(&gates.scanner), Arc::clone(&gates.inserter));
    let ledger = ReactorType::new("Ledger")
        .with_relation(RelationDef::new(
            "entries",
            Schema::of(
                &[("id", ColumnType::Int), ("val", ColumnType::Int)],
                &["id"],
            ),
        ))
        // args: [n, reverse, gated, own_insert, own_delete] — the last two
        // are ids this transaction inserts / deletes before it scans (-1
        // for none). Returns the scanned ids, comma-separated.
        .with_procedure("first_n", move |ctx, args| {
            let (n, reverse, gated) = (args[0].as_int(), args[1].as_bool(), args[2].as_bool());
            if args[3].as_int() >= 0 {
                ctx.insert("entries", Tuple::of([args[3].clone(), Value::Int(0)]))?;
            }
            if args[4].as_int() >= 0 {
                ctx.delete("entries", &Key::Int(args[4].as_int()))?;
            }
            let range = Key::Int(0)..Key::Int(900);
            let rows = if reverse {
                ctx.scan_limit_rev("entries", range, n as usize)
            } else {
                ctx.scan_limit("entries", range, n as usize)
            };
            if gated {
                pause(&scanner);
            }
            let ids: Vec<String> = rows?.iter().map(|(_, t)| t.at(0).to_string()).collect();
            Ok(Value::Str(ids.join(",")))
        })
        // args: [id, gated]
        .with_procedure("insert_entry", move |ctx, args| {
            ctx.insert("entries", Tuple::of([args[0].clone(), Value::Int(0)]))?;
            if args[1].as_bool() {
                pause(&inserter);
            }
            Ok(Value::Null)
        });
    let mut spec = ReactorDatabaseSpec::new();
    spec.add_type(ledger);
    spec.add_reactor("ledger", "Ledger");
    // Two workers per executor: a procedure parked at a gate never stands
    // in the way of the transaction the test races against it.
    let db = ReactDB::boot(
        spec,
        DeploymentConfig::shared_everything_without_affinity(2).with_mpl(2),
    );
    for i in (10..800i64).step_by(2) {
        db.load_row(
            "ledger",
            "entries",
            Tuple::of([Value::Int(i), Value::Int(0)]),
        )
        .unwrap();
    }
    assert!(
        db.table("ledger", "entries").unwrap().primary_node_count() > 2,
        "the scanned range spans several index nodes"
    );
    (db, gates)
}

fn first_n_args(n: i64, reverse: bool, gated: bool) -> Vec<Value> {
    vec![
        Value::Int(n),
        Value::Bool(reverse),
        Value::Bool(gated),
        Value::Int(-1),
        Value::Int(-1),
    ]
}

/// Submits the reader `proc(args)`, which pauses at `gate`, and commits
/// `insert_entry(insert)` between its reads and its validation. Returns
/// the reader's outcome.
fn commit_between_read_and_validation(
    db: &ReactDB,
    gate: &Barrier,
    proc: &str,
    args: Vec<Value>,
    insert: Vec<Value>,
) -> Result<Value, TxnError> {
    let client = db.client();
    let reader = client.submit("ledger", proc, args).unwrap();
    gate.wait(); // the reads have happened
    client.invoke("ledger", "insert_entry", insert).unwrap();
    gate.wait(); // on to validation
    reader.wait()
}

/// Runs a gated limit-1 scan and commits an insert of `key` between the
/// scan and the scanner's validation. Returns the scanner's outcome.
fn limit_scan_racing_insert(
    db: &ReactDB,
    gates: &Gates,
    reverse: bool,
    key: i64,
) -> Result<Value, TxnError> {
    let args = first_n_args(1, reverse, true);
    let insert = vec![Value::Int(key), Value::Bool(false)];
    commit_between_read_and_validation(db, &gates.scanner, "first_n", args, insert)
}

#[test]
fn insert_beyond_a_limit_scans_stop_key_does_not_abort_it() {
    let (db, gates) = boot_limited();
    // Forward the scan stops at 10, in reverse at 798; 401 lies past
    // either stop key, on a node neither walk touched.
    for (reverse, stop) in [(false, "10"), (true, "798")] {
        let got = limit_scan_racing_insert(&db, &gates, reverse, 401 + 2 * reverse as i64)
            .expect("an insert past the stop key is not a conflict");
        assert_eq!(got, Value::Str(stop.into()));
    }
    assert_eq!(phantom_aborts(&db), 0);
    // The walk stopped where the caller had enough: one slot per scan.
    assert_eq!(db.metrics().counter("scan_slots_visited").unwrap(), 2);
    assert_eq!(db.metrics().counter("scan_rows_returned").unwrap(), 2);
}

#[test]
fn insert_inside_a_limit_scans_walked_span_phantom_aborts_it() {
    let (db, gates) = boot_limited();
    // The walked span runs from the range's near bound to the stop key:
    // [0, 10] forward, [798, 900) in reverse.
    for (reverse, inside) in [(false, 5), (true, 850)] {
        let err = limit_scan_racing_insert(&db, &gates, reverse, inside).unwrap_err();
        assert!(
            matches!(err, TxnError::Phantom),
            "reverse={reverse}: {err:?}"
        );
    }
    assert_eq!(phantom_aborts(&db), 2);
}

#[test]
fn provisional_slot_in_the_walked_span_that_commits_first_aborts_the_scanner() {
    let (db, gates) = boot_limited();
    let client = db.client();
    for (reverse, inside, stop) in [(false, 5, "10"), (true, 850, "798")] {
        // The inserter buffers its row — the slot now exists, absent —
        // and parks before committing.
        let inserter = client
            .submit(
                "ledger",
                "insert_entry",
                vec![Value::Int(inside), Value::Bool(true)],
            )
            .unwrap();
        gates.inserter.wait();
        // The scanner walks over the absent slot to the first visible row.
        let scanner = client
            .submit("ledger", "first_n", first_n_args(1, reverse, true))
            .unwrap();
        gates.scanner.wait();
        // The inserter commits first; the scanner then fails validation.
        gates.inserter.wait();
        inserter.wait().unwrap();
        gates.scanner.wait();
        let err = scanner.wait().unwrap_err();
        assert!(err.is_cc_abort(), "reverse={reverse}: {err:?}");
        // Retried, it sees the row that beat it.
        let retried = client
            .invoke("ledger", "first_n", first_n_args(1, reverse, false))
            .unwrap();
        assert_eq!(retried, Value::Str(inside.to_string()));
        assert_ne!(retried, Value::Str(stop.into()));
    }
}

#[test]
fn limit_scans_merge_own_buffered_writes() {
    let (db, _) = boot_limited();
    // Forward: own insert 5 lands ahead of the first committed row and is
    // returned first; own delete of 10 is skipped and does not count
    // toward n, so the second row is 12. Mirrored in reverse.
    for (reverse, own_insert, own_delete, expect) in
        [(false, 5, 10, "5,12"), (true, 851, 798, "851,796")]
    {
        let mut args = first_n_args(2, reverse, false);
        args[3] = Value::Int(own_insert);
        args[4] = Value::Int(own_delete);
        let got = db.invoke("ledger", "first_n", args).unwrap();
        assert_eq!(got, Value::Str(expect.into()), "reverse={reverse}");
    }
}

// ---------------------------------------------------------------------
// Secondary-index lookups: the entries under one index key are one span
// of the index, and a limited lookup validates what it walked of it.
// ---------------------------------------------------------------------

/// Groups 0..8 of 50 rows each, ids `grp * 1000 + 0..50`, under an index
/// on `grp` — 400 entries, so the index has split into several nodes. The
/// `latest` procedure returns the ids of a group's newest `n` rows and,
/// when gated, pauses at the returned barrier.
fn boot_indexed() -> (ReactDB, Arc<Barrier>) {
    let gate = Arc::new(Barrier::new(2));
    let scanner = Arc::clone(&gate);
    let ledger = ReactorType::new("Ledger")
        .with_relation(
            RelationDef::new(
                "entries",
                Schema::of(
                    &[
                        ("id", ColumnType::Int),
                        ("grp", ColumnType::Int),
                        ("val", ColumnType::Int),
                    ],
                    &["id"],
                ),
            )
            .with_index(&["grp"]),
        )
        // args: [grp, n, gated, own_insert] — `own_insert` is an id this
        // transaction inserts into `grp` before it looks (-1 for none).
        .with_procedure("latest", move |ctx, args| {
            let grp = args[0].clone();
            if args[3].as_int() >= 0 {
                ctx.insert(
                    "entries",
                    Tuple::of([args[3].clone(), grp.clone(), Value::Int(0)]),
                )?;
            }
            let key = Key::Int(grp.as_int());
            let rows = ctx.index_lookup_rev("entries", 0, &key, args[1].as_int() as usize);
            if args[2].as_bool() {
                pause(&scanner);
            }
            let ids: Vec<String> = rows?.iter().map(|(_, t)| t.at(0).to_string()).collect();
            Ok(Value::Str(ids.join(",")))
        })
        // args: [id, grp]
        .with_procedure("insert_entry", |ctx, args| {
            ctx.insert(
                "entries",
                Tuple::of([args[0].clone(), args[1].clone(), Value::Int(0)]),
            )?;
            Ok(Value::Null)
        });
    let mut spec = ReactorDatabaseSpec::new();
    spec.add_type(ledger);
    spec.add_reactor("ledger", "Ledger");
    let db = ReactDB::boot(
        spec,
        DeploymentConfig::shared_everything_without_affinity(2).with_mpl(2),
    );
    for grp in 0..8i64 {
        for i in 0..50 {
            db.load_row(
                "ledger",
                "entries",
                Tuple::of([Value::Int(grp * 1000 + i), Value::Int(grp), Value::Int(0)]),
            )
            .unwrap();
        }
    }
    (db, gate)
}

fn latest_args(grp: i64, n: i64, gated: bool, own_insert: i64) -> Vec<Value> {
    vec![
        Value::Int(grp),
        Value::Int(n),
        Value::Bool(gated),
        Value::Int(own_insert),
    ]
}

/// Runs a gated `index_lookup_rev(grp 3, 1)` and commits a row `id` under
/// `grp` between the lookup and its validation.
fn index_lookup_racing_insert(
    db: &ReactDB,
    gate: &Barrier,
    id: i64,
    grp: i64,
) -> Result<Value, TxnError> {
    let args = latest_args(3, 1, true, -1);
    let insert = vec![Value::Int(id), Value::Int(grp)];
    commit_between_read_and_validation(db, gate, "latest", args, insert)
}

#[test]
fn insert_under_the_same_index_key_inside_the_walked_span_phantom_aborts_the_lookup() {
    let (db, gate) = boot_indexed();
    // Group 3's newest row is 3049; the reverse walk spans from it to the
    // end of the group, where a newer row 3999 lands.
    let err = index_lookup_racing_insert(&db, &gate, 3999, 3).unwrap_err();
    assert!(matches!(err, TxnError::Phantom), "{err:?}");
    assert_eq!(phantom_aborts(&db), 1);
    // Retried, the lookup returns the row that beat it.
    let got = db.invoke("ledger", "latest", latest_args(3, 1, false, -1));
    assert_eq!(got.unwrap(), Value::Str("3999".into()));
}

#[test]
fn insert_under_an_index_key_in_another_node_does_not_abort_the_lookup() {
    let (db, gate) = boot_indexed();
    let table = db.table("ledger", "entries").unwrap();
    let walked = |grp: i64| -> HashSet<usize> {
        let page = table.index_walk(0, &Key::Int(grp), None, true, 1);
        page.nodes.iter().map(|o| o.node_ptr()).collect()
    };
    assert!(
        walked(3).is_disjoint(&walked(7)),
        "group 7's newest entries sit in another index node"
    );
    let got = index_lookup_racing_insert(&db, &gate, 7999, 7)
        .expect("an insert outside the walked span is not a conflict");
    assert_eq!(got, Value::Str("3049".into()));
    assert_eq!(phantom_aborts(&db), 0);
    // The lookup walked one index entry.
    assert_eq!(db.metrics().counter("scan_slots_visited").unwrap(), 1);
}

#[test]
fn an_index_lookup_returns_its_own_buffered_insert() {
    let (db, _) = boot_indexed();
    // The own insert is not in the index until commit; it is merged in
    // walk order ahead of the committed newest row.
    let got = db.invoke("ledger", "latest", latest_args(3, 2, false, 3500));
    assert_eq!(got.unwrap(), Value::Str("3500,3049".into()));
    // An own insert below the newest committed row merges behind it.
    let got = db.invoke("ledger", "latest", latest_args(4, 2, false, 3998));
    assert_eq!(got.unwrap(), Value::Str("4049,4048".into()));
    let got = db.invoke("ledger", "latest", latest_args(5, 60, false, 3997));
    let ids = got.unwrap();
    assert!(ids.as_str().ends_with(",5000,3997"), "{ids:?}");
}
