//! Standalone `reactdb-server`: boots an engine instance with a builtin
//! workload schema and serves the wire protocol until interrupted.
//!
//! Reactor database specs contain Rust closures, so a standalone process
//! cannot load an arbitrary application schema from a file; instead the
//! binary offers the builtin workload schemas (SmallBank, YCSB) selected
//! by flag — enough for the load generator, smoke tests and any client
//! driving those procedures over the wire.
//!
//! ```text
//! reactdb-server --addr 127.0.0.1:5433 --workload smallbank --scale 1000 \
//!     --executors 4 --deployment shared_nothing --wal-dir /tmp/reactdb-wal
//! ```
//!
//! Flags:
//!   --addr HOST:PORT      bind address (default 127.0.0.1:5433; port 0 = ephemeral)
//!   --workload NAME       smallbank | ycsb (default smallbank)
//!   --scale N             customers / keys to load (default 1000)
//!   --executors N         engine executors (default 4)
//!   --deployment NAME     shared_nothing | shared_everything | affinity
//!                         (default shared_nothing)
//!   --net-workers N       I/O worker threads (default 2)
//!   --max-in-flight N     per-connection pipeline cap (default 128)
//!   --wal-dir PATH        enable epoch-sync durability in PATH (default off);
//!                         a PATH that already holds WAL state is recovered
//!                         instead of bulk-loaded
//!   --wal-interval-ms N   longest gap between group commits (default 10;
//!                         0 = none); durable replies demand theirs at once
//!   --checkpoint-interval-epochs N
//!                         background checkpoint every N epochs (default 0 = off)
//!   --checkpoint-max-log-bytes N
//!                         also checkpoint after N bytes of new log (default 0 = off)
//!   --checkpoint-workers N
//!                         parallel checkpoint writer threads (default 0 = all cores)
//!   --replay-workers N    parallel recovery replay lanes (default 0 = all cores)
//!   --run-secs N          exit after N seconds (default: run until killed)
//!   --follow HOST:PORT    run as a replication follower of that primary:
//!                         boot empty (no workload load), serve reads at the
//!                         applied stable epoch and tail the primary's log,
//!                         reconnecting until stopped if the primary dies.
//!                         Requires an empty --wal-dir (the follower's own
//!                         log); restarting a follower on its own directory
//!                         is not supported yet (ROADMAP item 28b).
//!   --staging-dir PATH    where the shipped copy of the primary's log dir
//!                         is staged (default: <wal-dir>.staging)
//!   --repl-quorum N       followers that must durably ack an epoch before
//!                         AckLevel::Replicated replies release (default 1)
//!   --failpoints SPEC     arm fault-injection points, e.g.
//!                         "truncate-under-cursor=err:1,ack-drop=err:3";
//!                         equivalent to setting REACTDB_FAILPOINTS
//!
//! A follower never becomes writable while it runs. Promotion is a
//! restart: stop the follower, then start `reactdb-server` on its
//! `--wal-dir` without `--follow`. Recovery finds every transaction the
//! follower acked to its primary in that directory.
//!
//! Exit codes: 2 for a bad command line, 1 when the log directory's
//! recovery refuses it (the message names the damaged file).

use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use reactdb_common::{CheckpointConfig, DeploymentConfig, DurabilityConfig};
use reactdb_engine::ReactDB;
use reactdb_server::{run_follower, FollowerOpts, Server, ServerConfig};
use reactdb_workloads::{smallbank, ycsb};

struct Opts {
    addr: String,
    workload: String,
    scale: usize,
    executors: usize,
    deployment: String,
    net_workers: usize,
    max_in_flight: usize,
    wal_dir: Option<String>,
    wal_interval_ms: u64,
    checkpoint_interval_epochs: u64,
    checkpoint_max_log_bytes: u64,
    checkpoint_workers: usize,
    replay_workers: usize,
    run_secs: Option<u64>,
    follow: Option<String>,
    staging_dir: Option<String>,
    repl_quorum: usize,
    failpoints: Option<String>,
}

fn usage_and_exit(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("see the doc comment at the top of crates/server/src/main.rs for flags");
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        addr: "127.0.0.1:5433".to_string(),
        workload: "smallbank".to_string(),
        scale: 1000,
        executors: 4,
        deployment: "shared_nothing".to_string(),
        net_workers: 2,
        max_in_flight: 128,
        wal_dir: None,
        wal_interval_ms: 10,
        checkpoint_interval_epochs: 0,
        checkpoint_max_log_bytes: 0,
        checkpoint_workers: 0,
        replay_workers: 0,
        run_secs: None,
        follow: None,
        staging_dir: None,
        repl_quorum: 1,
        failpoints: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| usage_and_exit(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--addr" => opts.addr = value("--addr"),
            "--workload" => opts.workload = value("--workload"),
            "--scale" => {
                opts.scale = value("--scale")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--scale wants an integer"))
            }
            "--executors" => {
                opts.executors = value("--executors")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--executors wants an integer"))
            }
            "--deployment" => opts.deployment = value("--deployment"),
            "--net-workers" => {
                opts.net_workers = value("--net-workers")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--net-workers wants an integer"))
            }
            "--max-in-flight" => {
                opts.max_in_flight = value("--max-in-flight")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--max-in-flight wants an integer"))
            }
            "--wal-dir" => opts.wal_dir = Some(value("--wal-dir")),
            "--wal-interval-ms" => {
                opts.wal_interval_ms = value("--wal-interval-ms")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--wal-interval-ms wants an integer"))
            }
            "--checkpoint-interval-epochs" => {
                opts.checkpoint_interval_epochs = value("--checkpoint-interval-epochs")
                    .parse()
                    .unwrap_or_else(|_| {
                        usage_and_exit("--checkpoint-interval-epochs wants an integer")
                    })
            }
            "--checkpoint-max-log-bytes" => {
                opts.checkpoint_max_log_bytes = value("--checkpoint-max-log-bytes")
                    .parse()
                    .unwrap_or_else(|_| {
                        usage_and_exit("--checkpoint-max-log-bytes wants an integer")
                    })
            }
            "--checkpoint-workers" => {
                opts.checkpoint_workers = value("--checkpoint-workers")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--checkpoint-workers wants an integer"))
            }
            "--replay-workers" => {
                opts.replay_workers = value("--replay-workers")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--replay-workers wants an integer"))
            }
            "--run-secs" => {
                opts.run_secs = Some(
                    value("--run-secs")
                        .parse()
                        .unwrap_or_else(|_| usage_and_exit("--run-secs wants an integer")),
                )
            }
            "--follow" => opts.follow = Some(value("--follow")),
            "--staging-dir" => opts.staging_dir = Some(value("--staging-dir")),
            "--repl-quorum" => {
                opts.repl_quorum = value("--repl-quorum")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--repl-quorum wants an integer"))
            }
            "--failpoints" => opts.failpoints = Some(value("--failpoints")),
            other => usage_and_exit(&format!("unknown flag {other}")),
        }
    }
    if opts.follow.is_some() && opts.wal_dir.is_none() {
        usage_and_exit("--follow requires --wal-dir (the follower's own log directory)");
    }
    opts
}

fn main() {
    let opts = parse_opts();
    if let Some(spec) = &opts.failpoints {
        reactdb_wal::failpoint::arm(spec)
            .unwrap_or_else(|e| usage_and_exit(&format!("--failpoints: {e}")));
    }

    let mut config = match opts.deployment.as_str() {
        "shared_nothing" => DeploymentConfig::shared_nothing(opts.executors),
        "shared_everything" => DeploymentConfig::shared_everything_without_affinity(opts.executors),
        "affinity" => DeploymentConfig::shared_everything_with_affinity(opts.executors),
        other => usage_and_exit(&format!("unknown deployment {other}")),
    };
    config.replication = config.replication.with_quorum(opts.repl_quorum);
    if let Some(dir) = &opts.wal_dir {
        config = config
            .with_durability(
                DurabilityConfig::epoch_sync(dir.as_str()).with_interval_ms(opts.wal_interval_ms),
            )
            .with_checkpoint(
                CheckpointConfig::every_epochs(opts.checkpoint_interval_epochs)
                    .with_max_log_bytes(opts.checkpoint_max_log_bytes)
                    .with_workers(opts.checkpoint_workers)
                    .with_replay_workers(opts.replay_workers),
            );
    }

    let spec = match opts.workload.as_str() {
        "smallbank" => smallbank::spec(opts.scale),
        "ycsb" => ycsb::spec(opts.scale),
        other => usage_and_exit(&format!("unknown workload {other}")),
    };

    // A log directory that holds state is this node's own data from an
    // earlier run: recover it rather than boot over it.
    let recovering = match opts.wal_dir.as_deref() {
        Some(dir) => reactdb_wal::log_dir_has_state(Path::new(dir)).unwrap_or_else(|e| {
            eprintln!("error: cannot inspect --wal-dir {dir}: {e}");
            std::process::exit(1);
        }),
        None => false,
    };
    if recovering && opts.follow.is_some() {
        eprintln!(
            "error: --follow needs an empty --wal-dir; restarting a follower on its own \
             directory is not supported yet (ROADMAP item 28b)"
        );
        std::process::exit(2);
    }

    eprintln!(
        "{} {} (scale {}) on {} executors, deployment {}, durability {}",
        if recovering { "recovering" } else { "booting" },
        opts.workload,
        opts.scale,
        opts.executors,
        opts.deployment,
        opts.wal_dir.as_deref().unwrap_or("off"),
    );
    let db = if recovering {
        ReactDB::recover(spec, config.clone()).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        })
    } else {
        let db = ReactDB::boot(spec, config.clone());
        // A follower gets its data from the primary's stream, not a local load.
        if opts.follow.is_none() {
            match opts.workload.as_str() {
                "smallbank" => smallbank::load(&db, opts.scale).expect("smallbank load"),
                "ycsb" => ycsb::load(&db, opts.scale).expect("ycsb load"),
                _ => unreachable!(),
            }
        }
        db
    };
    let db = Arc::new(db);

    let server = Server::start(
        Arc::clone(&db),
        ServerConfig::default()
            .with_addr(opts.addr)
            .with_workers(opts.net_workers)
            .with_max_in_flight(opts.max_in_flight)
            .with_replication(config.replication),
    )
    .expect("bind server");
    // The loadgen's --spawn mode and scripts parse this line for the port.
    println!("listening on {}", server.local_addr());

    // Follower mode: tail the primary on a dedicated thread while the
    // server above answers reads at the applied stable epoch.
    let follower_stop = Arc::new(AtomicBool::new(false));
    let follower = opts.follow.as_ref().map(|primary| {
        let staging = opts.staging_dir.clone().unwrap_or_else(|| {
            format!(
                "{}.staging",
                opts.wal_dir.as_deref().expect("checked in parse_opts")
            )
        });
        let follower_opts =
            FollowerOpts::new(primary.clone(), staging).with_replay_workers(opts.replay_workers);
        let db = Arc::clone(&db);
        let repl = server.repl_state();
        let stop = Arc::clone(&follower_stop);
        std::thread::Builder::new()
            .name("reactdb-follower".into())
            .spawn(
                move || match run_follower(&db, &repl, &follower_opts, &stop) {
                    Ok(report) => {
                        eprintln!("follower stopped at applied epoch {}", report.applied_epoch)
                    }
                    Err(e) => eprintln!("follower failed: {e}"),
                },
            )
            .expect("spawn follower thread")
    });

    match opts.run_secs {
        Some(secs) => std::thread::sleep(Duration::from_secs(secs)),
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
    eprintln!("draining and shutting down");
    follower_stop.store(true, std::sync::atomic::Ordering::SeqCst);
    server.shutdown();
    if let Some(follower) = follower {
        // The stop flag is checked between stream reads (bounded by the
        // read timeout), so this join is bounded too.
        let _ = follower.join();
    }
    // Last engine handle: drop shuts the engine down and releases the
    // log-directory lock.
    drop(db);
}
