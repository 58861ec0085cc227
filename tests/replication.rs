//! End-to-end replication: a follower tailing a live primary over the
//! wire protocol, snapshot-isolation checking of follower reads, and
//! primary-kill failover with promotion.
//!
//! Two properties anchor the suite:
//!
//! * **Follower reads are one consistent snapshot.** The register
//!   workload runs against the primary with `AckLevel::Replicated` (so
//!   every commit is gated on the follower durably applying it), then the
//!   follower's wire server answers snapshot reads. The combined history
//!   must pass the SI variant of the black-box checker — staleness is
//!   allowed, torn snapshots are not.
//! * **Promotion loses nothing replicated-acked.** Every write is
//!   replicated-acked, the primary dies, the follower promotes itself,
//!   and every register must sit at exactly the version the acked writes
//!   left it at — then accept new writes as a primary.

mod support;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use reactdb::common::{AckLevel, DeploymentConfig, DurabilityConfig, ReplicationConfig, Value};
use reactdb::engine::ReactDB;
use reactdb_client::WireClient;
use reactdb_server::{run_follower, FollowerOpts, Server, ServerConfig};
use support::history::{
    check_history_si, load, parse_observations, run_workload_with, shard_name, spec, TxnRecord,
    KEYS_PER_SHARD, SHARDS,
};

fn temp_path(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("reactdb-repl-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.to_string_lossy().into_owned()
}

struct Cluster {
    primary_db: Arc<ReactDB>,
    primary: Server,
    follower_db: Arc<ReactDB>,
    follower: Server,
    follower_thread: std::thread::JoinHandle<std::io::Result<reactdb_server::FollowerReport>>,
    stop: Arc<AtomicBool>,
}

/// Boots a primary (registers loaded) and a follower tailing it, and
/// waits until the subscription is live.
fn boot_cluster(tag: &str, promote_on_disconnect: bool) -> Cluster {
    let primary_wal = temp_path(&format!("{tag}-primary-wal"));
    let follower_wal = temp_path(&format!("{tag}-follower-wal"));
    let staging = temp_path(&format!("{tag}-staging"));

    let primary_db = Arc::new(ReactDB::boot(
        spec(),
        DeploymentConfig::shared_nothing(SHARDS)
            .with_durability(DurabilityConfig::epoch_sync(&primary_wal).with_interval_ms(1)),
    ));
    load(&primary_db);
    let primary = Server::start(Arc::clone(&primary_db), ServerConfig::default()).unwrap();

    let follower_db = Arc::new(ReactDB::boot(
        spec(),
        DeploymentConfig::shared_nothing(SHARDS)
            .with_durability(DurabilityConfig::epoch_sync(&follower_wal).with_interval_ms(1)),
    ));
    let follower = Server::start(Arc::clone(&follower_db), ServerConfig::default()).unwrap();

    let opts = FollowerOpts::new(primary.local_addr().to_string(), staging)
        .with_reconnects(1, Duration::from_millis(50))
        .with_promote_on_disconnect(promote_on_disconnect);
    let stop = Arc::new(AtomicBool::new(false));
    let follower_thread = {
        let db = Arc::clone(&follower_db);
        let repl = follower.repl_state();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || run_follower(&db, &repl, &opts, &stop))
    };

    // The replicated-ack gate needs the subscription live before any
    // replicated invoke, or the first ack would wait forever.
    let deadline = Instant::now() + Duration::from_secs(10);
    while primary.repl_state().followers() == 0 {
        assert!(Instant::now() < deadline, "follower never subscribed");
        std::thread::sleep(Duration::from_millis(5));
    }

    Cluster {
        primary_db,
        primary,
        follower_db,
        follower,
        follower_thread,
        stop,
    }
}

#[test]
fn follower_serves_snapshot_consistent_reads_while_tailing() {
    let cluster = boot_cluster("si-reads", false);
    let primary_addr = cluster.primary.local_addr();
    let follower_addr = cluster.follower.local_addr();

    // The full register workload, every commit gated on the follower.
    let mut records = run_workload_with(|_| {
        let client = WireClient::connect(primary_addr).expect("connect primary");
        move |reactor: &str, procedure: &str, args: Vec<Value>| {
            client.invoke_with(reactor, procedure, args, AckLevel::Replicated)
        }
    });
    assert!(!records.is_empty(), "workload committed");

    // Replicated acks mean the follower has durably applied everything
    // the workload observed; its wire server now answers reads at its
    // applied stable epoch. Those reads join the history as read-only
    // transactions and the combined history must be SI.
    let reader = WireClient::connect(follower_addr).expect("connect follower");
    for i in 0..SHARDS * 4 {
        let shard = shard_name(i % SHARDS);
        let keys: Vec<Value> = (0..KEYS_PER_SHARD).map(Value::Int).collect();
        let obs = reader
            .invoke(&shard, "snapshot", keys)
            .expect("follower read");
        records.push(TxnRecord {
            label: 100_000 + i as i64,
            reads: parse_observations(obs.as_str()),
            writes: Vec::new(),
        });
    }
    check_history_si(&records, "follower reads");

    // The follower is read-only until promoted: writes bounce.
    let write = reader.invoke(&shard_name(0), "rmw", vec![Value::Int(1), Value::Int(0)]);
    assert!(
        matches!(write, Err(reactdb::common::TxnError::Runtime(ref m)) if m.contains("read-only")),
        "follower rejected the write: {write:?}"
    );

    // Replication progress is visible on both sides' metrics.
    let primary_repl = cluster.primary.repl_state();
    assert_eq!(primary_repl.followers(), 1);
    assert!(primary_repl.acked_epoch() > 0, "follower acked progress");
    let follower_repl = cluster.follower.repl_state();
    assert!(follower_repl.is_follower());
    assert!(follower_repl.applied_epoch() > 0);
    let snap = cluster.follower.metrics_snapshot();
    assert!(
        snap.gauges
            .iter()
            .any(|g| g.name == "repl_follower_lag_epochs"),
        "follower lag gauge exported"
    );

    cluster.stop.store(true, Ordering::SeqCst);
    let report = cluster.follower_thread.join().unwrap().expect("clean stop");
    assert!(!report.promoted);
    cluster.follower.shutdown();
    cluster.primary.shutdown();
    drop(cluster.primary_db);
    drop(cluster.follower_db);
}

#[test]
fn promotion_after_primary_kill_keeps_every_replicated_acked_txn() {
    let cluster = boot_cluster("failover", true);
    let primary_addr = cluster.primary.local_addr();

    // A deterministic batch of replicated-acked writes; remember exactly
    // which version each register must end up at.
    let client = WireClient::connect(primary_addr).expect("connect primary");
    let mut expected: std::collections::HashMap<(String, i64), i64> =
        std::collections::HashMap::new();
    for i in 0..30i64 {
        let shard = shard_name((i as usize) % SHARDS);
        let key = i % KEYS_PER_SHARD;
        let obs = client
            .invoke_with(
                &shard,
                "rmw",
                vec![Value::Int(1000 + i), Value::Int(key)],
                AckLevel::Replicated,
            )
            .expect("replicated write");
        for read in parse_observations(obs.as_str()) {
            expected.insert((read.shard, read.key), read.ver + 1);
        }
    }

    // Kill the primary. The follower loses the stream, fails its
    // reconnect budget, and must promote itself.
    drop(client);
    cluster.primary.shutdown();
    drop(cluster.primary_db);

    let report = cluster
        .follower_thread
        .join()
        .unwrap()
        .expect("follower promoted");
    assert!(
        report.promoted,
        "follower promoted after losing its primary"
    );
    assert!(report.failover.is_some(), "failover time measured");

    // Zero loss: every replicated-acked write is present at exactly the
    // version it committed at — and nothing else wrote these registers,
    // so a higher version would mean resurrected or invented work.
    for ((shard, key), version) in &expected {
        let obs = cluster
            .follower_db
            .invoke(shard, "snapshot", vec![Value::Int(*key)])
            .expect("read after promotion");
        let seen = parse_observations(obs.as_str());
        assert_eq!(
            seen[0].ver, *version,
            "{shard}:{key} must sit at its last replicated-acked version"
        );
    }

    // The promoted node is a serving primary: writes commit now.
    let shard = shard_name(0);
    let before = expected[&(shard.clone(), 0)];
    let obs = cluster
        .follower_db
        .invoke(&shard, "rmw", vec![Value::Int(9999), Value::Int(0)])
        .expect("write after promotion");
    assert_eq!(parse_observations(obs.as_str())[0].ver, before);

    cluster.follower.shutdown();
    drop(cluster.follower_db);
}

/// A checkpoint on the primary truncates log segments the live shipping
/// cursor is tracking; the stream dies and the follower must resubscribe
/// — bootstrapping from the *new* checkpoint chain into a fresh staging
/// generation — and re-converge on the primary's exact register state
/// without restarting empty or double-applying.
#[test]
fn follower_reconverges_after_checkpoint_truncation_kills_the_stream() {
    let primary_wal = temp_path("reconverge-primary-wal");
    let follower_wal = temp_path("reconverge-follower-wal");
    let staging = temp_path("reconverge-staging");

    let primary_db = Arc::new(ReactDB::boot(
        spec(),
        DeploymentConfig::shared_nothing(SHARDS)
            .with_durability(DurabilityConfig::epoch_sync(&primary_wal).with_interval_ms(1)),
    ));
    load(&primary_db);
    let primary = Server::start(Arc::clone(&primary_db), ServerConfig::default()).unwrap();

    let follower_db = Arc::new(ReactDB::boot(
        spec(),
        DeploymentConfig::shared_nothing(SHARDS)
            .with_durability(DurabilityConfig::epoch_sync(&follower_wal).with_interval_ms(1)),
    ));
    let follower = Server::start(Arc::clone(&follower_db), ServerConfig::default()).unwrap();
    let opts = FollowerOpts::new(primary.local_addr().to_string(), &staging)
        .with_reconnects(5, Duration::from_millis(25))
        .with_promote_on_disconnect(false);
    let stop = Arc::new(AtomicBool::new(false));
    let follower_thread = {
        let db = Arc::clone(&follower_db);
        let repl = follower.repl_state();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || run_follower(&db, &repl, &opts, &stop))
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while primary.repl_state().followers() == 0 {
        assert!(Instant::now() < deadline, "follower never subscribed");
        std::thread::sleep(Duration::from_millis(5));
    }

    let client = WireClient::connect(primary.local_addr()).expect("connect primary");
    let mut expected: std::collections::HashMap<(String, i64), i64> =
        std::collections::HashMap::new();
    let mut write = |label: i64| {
        let shard = shard_name((label as usize) % SHARDS);
        let key = label % KEYS_PER_SHARD;
        let obs = client
            .invoke_with(
                &shard,
                "rmw",
                vec![Value::Int(label), Value::Int(key)],
                AckLevel::Replicated,
            )
            .expect("replicated write");
        for read in parse_observations(obs.as_str()) {
            expected.insert((read.shard, read.key), read.ver + 1);
        }
    };
    for i in 0..20 {
        write(1000 + i);
    }

    // Truncate the shipped segments out from under the live cursor, then
    // arm the scoped failpoint so the cursor faults at least once even if
    // the real truncation missed its polling window. The scope is the
    // primary's log-dir name, so concurrently running tests never see it.
    primary_db.checkpoint_now().expect("checkpoint");
    let scope = std::path::Path::new(&primary_wal)
        .file_name()
        .unwrap()
        .to_string_lossy()
        .into_owned();
    let fp = format!("truncate-under-cursor@{scope}");
    reactdb::wal::failpoint::arm(&format!("{fp}=err:1")).unwrap();

    // Every one of these must commit through the resubscribed stream.
    for i in 0..20 {
        write(2000 + i);
    }
    assert_eq!(
        reactdb::wal::failpoint::hits(&fp),
        1,
        "the cursor fault was actually injected"
    );

    // Quorum-1 replicated acks mean the single follower durably applied
    // every write before its invoke returned; its registers must now match
    // the primary's exactly.
    for ((shard, key), version) in &expected {
        let obs = follower_db
            .invoke(shard, "snapshot", vec![Value::Int(*key)])
            .expect("follower read");
        assert_eq!(
            parse_observations(obs.as_str())[0].ver,
            *version,
            "{shard}:{key} must re-converge to the primary's version"
        );
    }

    stop.store(true, Ordering::SeqCst);
    let report = follower_thread.join().unwrap().expect("clean stop");
    assert!(!report.promoted, "no spurious promotion");
    assert!(
        report.resubscribes >= 1,
        "the follower resubscribed rather than surviving untouched: {report:?}"
    );
    follower.shutdown();
    primary.shutdown();
    drop(primary_db);
    drop(follower_db);
}

/// With `--repl-quorum 2` a `Replicated` ack must mean "durable on at
/// least three nodes": while only one follower is subscribed the reply
/// stalls, and it releases only once a second follower has durably
/// applied the commit epoch.
#[test]
fn quorum_two_stalls_replicated_acks_until_a_second_follower_acks() {
    let primary_wal = temp_path("quorum-primary-wal");

    let primary_db = Arc::new(ReactDB::boot(
        spec(),
        DeploymentConfig::shared_nothing(SHARDS)
            .with_durability(DurabilityConfig::epoch_sync(&primary_wal).with_interval_ms(1)),
    ));
    load(&primary_db);
    let primary = Server::start(
        Arc::clone(&primary_db),
        ServerConfig::default().with_replication(ReplicationConfig::default().with_quorum(2)),
    )
    .unwrap();

    let follower_a = FollowerNode::boot(&primary, "quorum-a");
    let deadline = Instant::now() + Duration::from_secs(10);
    while primary.repl_state().followers() < 1 {
        assert!(Instant::now() < deadline, "first follower never subscribed");
        std::thread::sleep(Duration::from_millis(5));
    }

    // One live follower cannot satisfy a quorum of two: the replicated
    // reply must stall (while the same write at Durable sails through on
    // a second connection — replies are ordered per connection).
    let client = WireClient::connect(primary.local_addr()).expect("connect");
    let stalled = client
        .submit_with_ack(
            &shard_name(0),
            "rmw",
            vec![Value::Int(7001), Value::Int(0)],
            AckLevel::Replicated,
        )
        .expect("submit replicated");
    let side = WireClient::connect(primary.local_addr()).expect("connect");
    side.invoke_with(
        &shard_name(1),
        "rmw",
        vec![Value::Int(7002), Value::Int(0)],
        AckLevel::Durable,
    )
    .expect("durable write proceeds while replicated stalls");
    assert!(
        stalled.wait_timeout(Duration::from_millis(400)).is_none(),
        "replicated ack released with only one of two quorum followers"
    );
    assert_eq!(
        primary.repl_state().quorum_epoch(),
        0,
        "one follower of a two-quorum contributes no quorum epoch"
    );

    // The second follower subscribing, catching up and acking releases it.
    let follower_b = FollowerNode::boot(&primary, "quorum-b");
    let value = stalled
        .wait_timeout(Duration::from_secs(20))
        .expect("replicated ack released once the quorum filled")
        .expect("write committed");
    assert!(matches!(value, Value::Str(_)));
    let commit_epoch = stalled.commit_epoch().expect("commit epoch reported");

    // Quorum honesty: at release time both followers had durably applied
    // the commit epoch (applied_epoch only moves before the ack is sent).
    for (name, follower) in [("a", &follower_a), ("b", &follower_b)] {
        let repl = follower.server.repl_state();
        assert!(
            repl.applied_epoch() >= commit_epoch,
            "follower {name} applied {} but the quorum released epoch {commit_epoch}",
            repl.applied_epoch(),
        );
    }
    assert!(primary.repl_state().quorum_epoch() >= commit_epoch);
    assert_eq!(primary.repl_state().follower_acks().len(), 2);

    follower_a.stop();
    follower_b.stop();
    primary.shutdown();
    drop(primary_db);
}

/// A follower is a connection on its primary's I/O worker, not a thread
/// of its own: one worker serves two subscriptions, and while the primary
/// idles the worker wakes only for what the log and the followers tell it
/// (a group commit's durable advance, a follower's ack), never on a timer.
#[test]
fn a_primary_serves_followers_without_a_thread_each() {
    // No timed group commits: only a demand moves the durable epoch, so
    // an idle primary has nothing to ship and any wake past the slack
    // would come from a timer.
    let primary_wal = temp_path("threads-primary-wal");
    let primary_db = Arc::new(ReactDB::boot(
        spec(),
        DeploymentConfig::shared_nothing(SHARDS)
            .with_durability(DurabilityConfig::epoch_sync(&primary_wal).with_interval_ms(0)),
    ));
    load(&primary_db);
    let primary = Server::start(
        Arc::clone(&primary_db),
        ServerConfig::default().with_workers(1),
    )
    .unwrap();
    let followers = [
        FollowerNode::boot(&primary, "threads-a"),
        FollowerNode::boot(&primary, "threads-b"),
    ];
    let deadline = Instant::now() + Duration::from_secs(10);
    while primary.repl_state().followers() < 2 {
        assert!(Instant::now() < deadline, "followers never subscribed");
        std::thread::sleep(Duration::from_millis(5));
    }
    // A replicated write runs the whole chain once: its demand commits a
    // group, the durable advance wakes the worker, the worker ships, and
    // the followers' acks release the reply.
    let client = WireClient::connect(primary.local_addr()).expect("connect primary");
    client
        .invoke_with(
            &shard_name(0),
            "rmw",
            vec![Value::Int(1), Value::Int(0)],
            AckLevel::Replicated,
        )
        .expect("replicated write");
    // Both followers past it: each has acked an epoch.
    loop {
        let acks = primary.repl_state().follower_acks();
        if acks.len() == 2 && acks.iter().all(|&(_, acked)| acked > 0) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "followers never caught up: {acks:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let repl_threads: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("reactdb-repl"))
        .collect();
    assert!(
        repl_threads.is_empty(),
        "replication runs on threads of its own: {repl_threads:?}"
    );

    let counts = || {
        let snap = primary.metrics_snapshot();
        let wakeups = snap.counter("net_worker_wakeups").unwrap();
        (wakeups, snap.counter("log_syncs").unwrap())
    };
    let (wakeups_before, syncs_before) = counts();
    std::thread::sleep(Duration::from_millis(300));
    let (wakeups_after, syncs_after) = counts();
    let (wakeups, syncs) = (wakeups_after - wakeups_before, syncs_after - syncs_before);
    assert!(
        wakeups <= 2 * syncs + 10,
        "{wakeups} worker wakeups for {syncs} group commits in 300 idle ms"
    );

    for follower in followers {
        follower.stop();
    }
    primary.shutdown();
    drop(primary_db);
}

/// A follower node tailing a primary: its engine, its wire server, and
/// the thread running [`run_follower`] with that thread's stop flag.
struct FollowerNode {
    db: Arc<ReactDB>,
    server: Server,
    thread: std::thread::JoinHandle<std::io::Result<reactdb_server::FollowerReport>>,
    stop: Arc<AtomicBool>,
}

impl FollowerNode {
    /// Boots a durable follower of `primary` that never promotes.
    fn boot(primary: &Server, tag: &str) -> Self {
        let wal = temp_path(&format!("{tag}-wal"));
        let staging = temp_path(&format!("{tag}-staging"));
        let db = Arc::new(ReactDB::boot(
            spec(),
            DeploymentConfig::shared_nothing(SHARDS)
                .with_durability(DurabilityConfig::epoch_sync(&wal).with_interval_ms(1)),
        ));
        let server = Server::start(Arc::clone(&db), ServerConfig::default()).unwrap();
        let opts = FollowerOpts::new(primary.local_addr().to_string(), staging)
            .with_reconnects(5, Duration::from_millis(25))
            .with_promote_on_disconnect(false);
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let db = Arc::clone(&db);
            let repl = server.repl_state();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || run_follower(&db, &repl, &opts, &stop))
        };
        Self {
            db,
            server,
            thread,
            stop,
        }
    }

    /// Stops the follower loop (which must not have promoted) and its
    /// server.
    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let report = self.thread.join().unwrap().expect("clean stop");
        assert!(!report.promoted);
        self.server.shutdown();
        drop(self.db);
    }
}
