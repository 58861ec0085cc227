//! Fault-injection chaos matrix for the replication path.
//!
//! One sequential test walks every kill point × follower-count cell:
//! each cell boots a fresh primary plus {1, 2, 3} followers, arms one
//! scoped failpoint (ship-mid-file, truncate-under-cursor, ack-drop, or
//! ship-kill), then drives concurrent replicated-acked writes through
//! a checkpoint-truncation storm. Every cell must end with:
//!
//! * every write resolved — no wedged replicated ack;
//! * **quorum honesty** — in multi-follower cells (quorum 2) a
//!   replicated reply is never observed before at least two followers
//!   durably applied its commit epoch;
//! * every follower re-converged byte-for-byte on the primary's register
//!   state, however many times its stream was killed;
//! * the combined history — writes plus follower snapshot reads — passing
//!   the SI checker;
//! * a truthful `repl_followers` gauge (abruptly dropped subscriptions
//!   must not leak roster entries).
//!
//! The cells run inside one `#[test]` on purpose: failpoints are
//! process-global (scoped by log-dir name), and a single sequential
//! walk keeps each cell's arm/clear window to itself.

mod support;

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use reactdb::common::{AckLevel, DeploymentConfig, DurabilityConfig, ReplicationConfig, Value};
use reactdb::engine::ReactDB;
use reactdb::wal::failpoint;
use reactdb_client::WireClient;
use reactdb_server::{run_follower, FollowerOpts, Server, ServerConfig};
use support::history::{
    check_history_si, load, parse_observations, shard_name, spec, ReadObs, TxnRecord,
    KEYS_PER_SHARD, SHARDS,
};

const WRITER_THREADS: usize = 2;
const WRITES_PER_THREAD: i64 = 18;
const CHECKPOINT_EVERY: i64 = 6;

fn temp_path(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("reactdb-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.to_string_lossy().into_owned()
}

struct Follower {
    db: Arc<ReactDB>,
    server: Server,
    thread: std::thread::JoinHandle<std::io::Result<reactdb_server::FollowerReport>>,
    stop: Arc<AtomicBool>,
}

/// One matrix cell: boot, arm, storm, verify, tear down.
fn run_cell(kill_point: &str, fp_spec_suffix: &str, followers: usize) {
    let cell = format!("{kill_point}-f{followers}");
    let primary_wal = temp_path(&format!("{cell}-primary-wal"));

    let primary_db = Arc::new(ReactDB::boot(
        spec(),
        DeploymentConfig::shared_nothing(SHARDS)
            .with_durability(DurabilityConfig::epoch_sync(&primary_wal).with_interval_ms(1)),
    ));
    load(&primary_db);
    let quorum = followers.min(2);
    let primary = Server::start(
        Arc::clone(&primary_db),
        ServerConfig::default().with_replication(ReplicationConfig::default().with_quorum(quorum)),
    )
    .unwrap();

    // Arm the cell's kill point before any follower subscribes, so even
    // the bootstrap ship is fair game. The scope is the primary's log-dir
    // name: nothing outside this cell can trip it.
    let scope = std::path::Path::new(&primary_wal)
        .file_name()
        .unwrap()
        .to_string_lossy()
        .into_owned();
    let fp = format!("{kill_point}@{scope}");
    failpoint::arm(&format!("{fp}{fp_spec_suffix}")).unwrap();

    let fleet: Vec<Follower> = (0..followers)
        .map(|i| {
            let wal = temp_path(&format!("{cell}-follower{i}-wal"));
            let staging = temp_path(&format!("{cell}-follower{i}-staging"));
            let db = Arc::new(ReactDB::boot(
                spec(),
                DeploymentConfig::shared_nothing(SHARDS)
                    .with_durability(DurabilityConfig::epoch_sync(&wal).with_interval_ms(1)),
            ));
            let server = Server::start(Arc::clone(&db), ServerConfig::default()).unwrap();
            // The storm may kill the stream many times; the follower
            // resubscribes every time.
            let opts = FollowerOpts::new(primary.local_addr().to_string(), staging);
            let stop = Arc::new(AtomicBool::new(false));
            let thread = {
                let db = Arc::clone(&db);
                let repl = server.repl_state();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || run_follower(&db, &repl, &opts, &stop))
            };
            Follower {
                db,
                server,
                thread,
                stop,
            }
        })
        .collect();
    let wait_for_roster = |context: &str| {
        let deadline = Instant::now() + Duration::from_secs(20);
        while primary.repl_state().followers() != followers as u64 {
            assert!(
                Instant::now() < deadline,
                "[{cell}] roster stuck at {} of {followers} followers {context}",
                primary.repl_state().followers(),
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    wait_for_roster("before the storm");

    // The storm: concurrent replicated-acked writers racing periodic
    // checkpoints that truncate shipped segments under the live cursors,
    // with the cell's failpoint firing into the middle of it.
    let labels = AtomicI64::new(1);
    let follower_repls: Vec<_> = fleet.iter().map(|f| f.server.repl_state()).collect();
    let records: Vec<TxnRecord> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WRITER_THREADS)
            .map(|t| {
                let labels = &labels;
                let cell = &cell;
                let primary_db = &primary_db;
                let follower_repls = &follower_repls;
                let addr = primary.local_addr();
                scope.spawn(move || {
                    let client = WireClient::connect(addr).expect("connect primary");
                    let mut committed = Vec::new();
                    for i in 0..WRITES_PER_THREAD {
                        if t == 0 && i > 0 && i % CHECKPOINT_EVERY == 0 {
                            primary_db.checkpoint_now().expect("storm checkpoint");
                        }
                        let label = labels.fetch_add(1, Ordering::Relaxed);
                        let shard = shard_name((label as usize) % SHARDS);
                        let key = label % KEYS_PER_SHARD;
                        let handle = client
                            .submit_with_ack(
                                &shard,
                                "rmw",
                                vec![Value::Int(label), Value::Int(key)],
                                AckLevel::Replicated,
                            )
                            .expect("submit");
                        let result = handle
                            .wait_timeout(Duration::from_secs(30))
                            .unwrap_or_else(|| panic!("[{cell}] replicated ack wedged"));
                        let obs = match result {
                            Ok(Value::Str(obs)) => obs,
                            Ok(v) => panic!("[{cell}] unexpected result {v:?}"),
                            Err(e) if e.is_cc_abort() => continue,
                            Err(e) => panic!("[{cell}] write failed: {e:?}"),
                        };
                        // Quorum honesty: the reply was only now observed,
                        // so at least `quorum` followers must already have
                        // durably applied the commit epoch.
                        let epoch = handle.commit_epoch().expect("commit epoch");
                        let applied = follower_repls
                            .iter()
                            .filter(|r| r.applied_epoch() >= epoch)
                            .count();
                        assert!(
                            applied >= followers.min(2),
                            "[{cell}] replicated ack for epoch {epoch} observed with only \
                             {applied} followers durably applied",
                        );
                        let reads = parse_observations(&obs);
                        let writes: Vec<ReadObs> = reads
                            .iter()
                            .map(|r| ReadObs {
                                shard: r.shard.clone(),
                                key: r.key,
                                ver: r.ver + 1,
                            })
                            .collect();
                        committed.push(TxnRecord {
                            label,
                            reads,
                            writes,
                        });
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
    assert!(
        records.len() as i64 > WRITER_THREADS as i64 * WRITES_PER_THREAD / 2,
        "[{cell}] most writes must commit through the storm"
    );

    // Convergence: every follower — not just the quorum — catches up to
    // the primary's final register state.
    let mut expected: std::collections::HashMap<(String, i64), i64> =
        std::collections::HashMap::new();
    for shard in 0..SHARDS {
        let shard = shard_name(shard);
        let keys: Vec<Value> = (0..KEYS_PER_SHARD).map(Value::Int).collect();
        let obs = primary_db
            .invoke(&shard, "snapshot", keys)
            .expect("primary digest read");
        for read in parse_observations(obs.as_str()) {
            expected.insert((read.shard, read.key), read.ver);
        }
    }
    let mut records = records;
    for (i, follower) in fleet.iter().enumerate() {
        let deadline = Instant::now() + Duration::from_secs(20);
        'converge: loop {
            let mut seen = Vec::new();
            for shard in 0..SHARDS {
                let shard = shard_name(shard);
                let keys: Vec<Value> = (0..KEYS_PER_SHARD).map(Value::Int).collect();
                let obs = follower
                    .db
                    .invoke(&shard, "snapshot", keys)
                    .expect("follower digest read");
                seen.extend(parse_observations(obs.as_str()));
            }
            if seen
                .iter()
                .all(|r| expected[&(r.shard.clone(), r.key)] == r.ver)
            {
                // The converged snapshot joins the history as reads.
                records.push(TxnRecord {
                    label: 100_000 + i as i64,
                    reads: seen,
                    writes: Vec::new(),
                });
                break 'converge;
            }
            assert!(
                Instant::now() < deadline,
                "[{cell}] follower {i} never re-converged on the primary's digest"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    check_history_si(&records, &cell);

    // The roster healed from every dropped stream: no leaked gauge entries,
    // and per-follower acks are exported for exactly the live set.
    wait_for_roster("after the storm");
    assert_eq!(
        primary.repl_state().follower_acks().len(),
        followers,
        "[{cell}] roster must hold exactly the live followers"
    );
    assert!(
        failpoint::hits(&fp) >= 1,
        "[{cell}] the failpoint never fired; the cell tested nothing"
    );
    failpoint::clear();

    for follower in fleet {
        follower.stop.store(true, Ordering::SeqCst);
        follower.thread.join().unwrap().expect("clean stop");
        follower.server.shutdown();
        drop(follower.db);
    }
    primary.shutdown();
    drop(primary_db);
}

/// The full matrix. Kill points and their budgets:
///
/// * `ship-mid-file=err:2` — the cursor faults after shipping new segment
///   bytes, twice; nothing shipped-but-unoffset may be lost or doubled.
/// * `truncate-under-cursor=err:2` — the poll faults as if a checkpoint
///   had vanished a tracked segment (on top of the *real* truncations the
///   storm's checkpoints cause).
/// * `ack-drop=err:3` — three follower acks vanish before the roster sees
///   them; cumulative acks on later epochs must still release the gate.
/// * `ship-kill=err:1` — one subscribed connection is dropped abruptly,
///   with no `ReplEnd`; the registration it owned must keep the gauge
///   truthful and the follower resubscribe.
#[test]
fn chaos_matrix_every_kill_point_converges_and_stays_si() {
    for followers in [1usize, 2, 3] {
        run_cell("ship-mid-file", "=err:2", followers);
        run_cell("truncate-under-cursor", "=err:2", followers);
        run_cell("ack-drop", "=err:3", followers);
        run_cell("ship-kill", "=err:1", followers);
    }
}
