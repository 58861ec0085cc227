//! The ReactDB database: bootstrapping, dispatch, safety and commit.
//!
//! [`ReactDB::boot`] instantiates a reactor database specification under a
//! deployment configuration: containers and their partitions are created,
//! every reactor's relations are instantiated in the container that hosts
//! it, transaction executors are created and their worker threads started.
//!
//! Execution of a root transaction follows §3.2:
//!
//! * the client's invocation is routed (round-robin or affinity) to an
//!   executor of the container hosting the target reactor;
//! * procedure code runs against a [`reactdb_core::ReactorCtx`] whose
//!   storage operations are tracked by the root transaction's per-container
//!   OCC participants;
//! * a sub-transaction call targeting a reactor in the *same* container is
//!   executed synchronously on the same executor (self-calls are inlined
//!   into the calling sub-transaction); a call targeting another container
//!   is dispatched to the affinity executor of the target reactor and a
//!   pending future is returned;
//! * a (sub-)transaction completes only after all of its children complete;
//! * the root then commits through the Silo validation protocol, escalating
//!   to two-phase commit when several containers participated.
//!
//! While a worker waits for a remote sub-transaction it keeps draining its
//! own request queue (cooperative multitasking), so mutually dependent
//! executors cannot deadlock.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use reactdb_common::ids::TxnIdGen;
use reactdb_common::{
    AckLevel, ContainerId, DeploymentConfig, ExecutorId, ReactorId, ReactorName, Result, SubTxnId,
    TxnError, Value,
};
use reactdb_core::future::WaitHook;
use reactdb_core::{
    ActiveSet, CallBackend, FulfillHook, PublishWaker, ReactorCtx, ReactorDatabaseSpec,
    ReactorFuture,
};
use reactdb_obs::{
    AbortReason, CommitProbe, Count, Counter, Gauge, Metrics, MetricsSnapshot, Phase, TraceEvent,
    TraceKind,
};
use reactdb_storage::{Table, Tuple};
use reactdb_txn::{Coordinator, EpochManager, LogSink, OccTxn};
use reactdb_wal::{CheckpointReport, CheckpointTable, Checkpointer, LogDirLock, Wal};

use crate::client::{Client, SessionShared};
use crate::container::Container;
use crate::executor::ExecutorHandle;
use crate::request::{Request, RootTxn};
use crate::router::Router;

/// How long a client invocation waits for its result before reporting a
/// runtime error. Generous: only hit if the engine is mis-configured.
pub(crate) const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

/// Period of the background epoch advancer.
const EPOCH_PERIOD: Duration = Duration::from_millis(10);

pub(crate) struct Inner {
    pub(crate) spec: Arc<ReactorDatabaseSpec>,
    config: DeploymentConfig,
    containers: Vec<Arc<Container>>,
    executors: Vec<Arc<ExecutorHandle>>,
    router: Router,
    pub(crate) epoch: Arc<EpochManager>,
    active: ActiveSet,
    txn_ids: TxnIdGen,
    /// Metrics registry: every counter, the phase histograms, busy-time
    /// accounting and the trace ring buffers. Shared with the WAL, its
    /// checkpointer and the wire server.
    pub(crate) metrics: Arc<Metrics>,
    /// Write-ahead log; `None` when the deployment's durability mode is off.
    pub(crate) wal: Option<Arc<Wal>>,
    /// Background checkpointer; present whenever durability is on (explicit
    /// `checkpoint_now` works even without the periodic daemon).
    checkpointer: Option<Arc<Checkpointer>>,
    /// Session behind [`ReactDB::invoke`], the sync convenience entry point;
    /// dedicated sessions come from [`ReactDB::client`].
    pub(crate) default_session: Arc<SessionShared>,
    /// Replication-follower mode: root transactions that would write are
    /// rejected at commit time; state changes arrive exclusively through
    /// [`ReactDB::apply_redo`]. Set once, never cleared.
    read_only: std::sync::atomic::AtomicBool,
    shutdown: std::sync::atomic::AtomicBool,
}

/// An in-memory reactor database deployed according to a
/// [`DeploymentConfig`].
pub struct ReactDB {
    inner: Arc<Inner>,
    threads: Vec<JoinHandle<()>>,
    epoch_thread: Option<JoinHandle<()>>,
    /// Set by [`ReactDB::simulate_crash`]: the final WAL flush is skipped so
    /// buffered (not yet group-committed) redo records are lost, exactly as
    /// a process crash would lose them.
    crashed: bool,
}

impl std::fmt::Debug for ReactDB {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactDB")
            .field("reactors", &self.inner.spec.reactor_count())
            .field("containers", &self.inner.containers.len())
            .field("executors", &self.inner.executors.len())
            .finish()
    }
}

impl ReactDB {
    /// Boots a reactor database under the given deployment. Creates the
    /// containers, instantiates every reactor's relations in its container,
    /// starts the executor worker threads and the epoch advancer.
    ///
    /// # Panics
    /// Panics when the deployment enables durability but the log directory
    /// cannot be initialised; use [`ReactDB::recover`] for a fallible boot
    /// that also replays an existing log.
    pub fn boot(spec: ReactorDatabaseSpec, config: DeploymentConfig) -> Self {
        Self::boot_inner(spec, config, false).expect("boot: durability initialisation failed")
    }

    /// Boots a reactor database and replays the write-ahead log found in the
    /// deployment's log directory: every transaction of a fully synced epoch
    /// is re-applied in commit-TID order before the database starts serving,
    /// and the epoch / TID-generator high-water marks resume beyond
    /// everything observed in the log.
    pub fn recover(spec: ReactorDatabaseSpec, config: DeploymentConfig) -> Result<Self> {
        Self::boot_inner(spec, config, true)
            .map_err(|e| TxnError::Runtime(format!("crash recovery failed: {e}")))
    }

    fn boot_inner(
        spec: ReactorDatabaseSpec,
        config: DeploymentConfig,
        recover: bool,
    ) -> std::io::Result<Self> {
        let spec = Arc::new(spec);
        let n_reactors = spec.reactor_count();

        let executor_configs = config.executor_configs();
        assert!(
            !executor_configs.is_empty(),
            "deployment must define at least one executor"
        );
        let n_containers = config.container_count().max(1);

        let containers: Vec<Arc<Container>> = (0..n_containers)
            .map(|c| Arc::new(Container::new(ContainerId(c as u64))))
            .collect();

        // Map reactors to containers and instantiate their relations there.
        let container_of_reactor: Vec<ContainerId> = (0..n_reactors)
            .map(|r| config.container_of_reactor(r, n_reactors))
            .collect();
        for (r, container) in container_of_reactor.iter().enumerate() {
            let ty = spec.reactor_type(r).expect("reactor indexes are dense");
            containers[container.index()]
                .partition()
                .create_reactor(ReactorId(r as u64), &ty.relations);
        }

        // Executors and their grouping by container.
        let executors: Vec<Arc<ExecutorHandle>> = executor_configs
            .iter()
            .map(|cfg| Arc::new(ExecutorHandle::new(cfg.id, cfg.container, cfg.mpl)))
            .collect();
        let mut executors_of_container: Vec<Vec<ExecutorId>> = vec![Vec::new(); n_containers];
        for cfg in &executor_configs {
            executors_of_container[cfg.container.index()].push(cfg.id);
        }

        let epoch = Arc::new(EpochManager::new());
        let metrics = Arc::new(Metrics::new(executors.len(), &config.tracing));

        // ---- Durability: lock the log directory for this instance's
        // lifetime before anything reads or writes it — enforcing the
        // single-instance rule across processes, not just by convention —
        // then preflight, recover, and open fresh segments under the lock.
        let wal = if let Some(dir) = config.durability.log_dir_path() {
            let lock = LogDirLock::acquire(dir)?;

            // Preflight: a non-recovery boot must refuse a log directory
            // that already holds WAL state — a fresh instance restarts at
            // epoch 1 and would reissue (epoch, sequence) pairs already
            // present in the old segments, corrupting the TID-ordered
            // replay of any later recovery.
            if !recover && reactdb_wal::log_dir_has_state(dir)? {
                return Err(std::io::Error::other(format!(
                    "log directory {} already contains WAL state; \
                     use ReactDB::recover or clear the directory",
                    dir.display()
                )));
            }

            // Crash recovery: replay the log before anything can run.
            if recover {
                let recovered = reactdb_wal::recover_and_compact(dir)?;
                // Base state first: the installed checkpoint fully covers
                // every epoch <= its stamp. The log tail then lands on
                // top; TID-aware replay resolves the fuzzy overlap.
                let checkpoint_rows: &[_] = recovered
                    .checkpoint
                    .as_ref()
                    .map(|c| c.rows.as_slice())
                    .unwrap_or(&[]);
                let replay_started = Instant::now();
                let workers_used = replay(
                    &containers,
                    &container_of_reactor,
                    checkpoint_rows,
                    &recovered.batches,
                    config.checkpoint.replay_workers,
                );
                metrics.record_elapsed(Phase::RecoveryReplay, usize::MAX, replay_started);
                metrics.max(Count::RecoveryReplayWorkers, workers_used as u64);
                metrics.add(Count::RecoveredCheckpointRows, checkpoint_rows.len() as u64);
                // Resume beyond every epoch observed in the log (durable or
                // discarded) so no pre-crash (epoch, sequence) pair is
                // reissued.
                let resume = recovered.max_epoch_seen.max(recovered.durable_epoch);
                epoch.advance_to(resume + 1);
                for exec in &executors {
                    exec.tidgen().observe(recovered.max_tid);
                }
                metrics.add(Count::RecoveredTxns, recovered.batches.len() as u64);
            }

            // Fresh log segments for this instance; the WAL takes over the
            // directory lock and holds it until shutdown.
            Some(Wal::open_locked(
                &config.durability,
                executors.len(),
                Arc::clone(&epoch),
                lock,
                Arc::clone(&metrics),
            )?)
        } else {
            None
        };

        // ---- Checkpointing: enumerate every table of the deployment and
        // hand the checkpointer its walk list. Always constructed when
        // durability is on so `ReactDB::checkpoint_now` works; the periodic
        // daemon only runs when an interval is configured.
        let checkpointer = match &wal {
            Some(wal) => {
                let mut tables = Vec::new();
                for container in &containers {
                    for (reactor, relation, table) in container.partition().tables() {
                        tables.push(CheckpointTable {
                            container: container.id(),
                            reactor,
                            relation,
                            table,
                        });
                    }
                }
                let checkpointer = Checkpointer::new(Arc::clone(wal), tables, config.checkpoint)?;
                if config.checkpoint.is_periodic() {
                    checkpointer.start_daemon(Arc::clone(&epoch));
                }
                Some(checkpointer)
            }
            None => None,
        };

        let router = Router::new(
            config.router_policy(),
            executors_of_container,
            container_of_reactor,
        );
        let epoch_thread = epoch.start_advancer(EPOCH_PERIOD);

        let inner = Arc::new(Inner {
            spec,
            config,
            containers,
            executors,
            router,
            epoch,
            active: ActiveSet::new(),
            txn_ids: TxnIdGen::new(),
            metrics,
            wal,
            checkpointer,
            default_session: SessionShared::new(),
            read_only: std::sync::atomic::AtomicBool::new(false),
            shutdown: std::sync::atomic::AtomicBool::new(false),
        });

        // Worker threads: `mpl` per executor.
        let mut threads = Vec::new();
        for (idx, exec) in inner.executors.iter().enumerate() {
            for worker in 0..exec.mpl() {
                let inner = Arc::clone(&inner);
                let handle = std::thread::Builder::new()
                    .name(format!("reactdb-exec-{idx}-{worker}"))
                    .spawn(move || worker_loop(inner, idx))
                    .expect("spawn executor worker");
                threads.push(handle);
            }
        }

        Ok(Self {
            inner,
            threads,
            epoch_thread: Some(epoch_thread),
            crashed: false,
        })
    }

    /// The reactor database specification this instance serves.
    pub fn spec(&self) -> &ReactorDatabaseSpec {
        &self.inner.spec
    }

    /// The deployment configuration in effect.
    pub fn config(&self) -> &DeploymentConfig {
        &self.inner.config
    }

    /// The write-ahead log, when the deployment enables durability.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.inner.wal.as_ref()
    }

    /// A point-in-time snapshot of every metric this instance exports:
    /// everything the registry counts (commits, the per-[`AbortReason`]
    /// breakdown, scans, client handles, recovery, WAL and checkpoint
    /// work, per-relation log bytes, the wire server's `net_*` counts) and
    /// the per-phase latency histograms (p50/p90/p99/p999/max), plus what
    /// only the engine can compute now: the derived `txn_cc_aborts`, the
    /// durable epoch, and per-executor queue-depth and utilization gauges.
    /// Render with [`MetricsSnapshot::to_prometheus_text`], and diff two
    /// snapshots with [`MetricsSnapshot::delta`] for interval rates.
    pub fn metrics(&self) -> MetricsSnapshot {
        let inner = &self.inner;
        let m = &inner.metrics;
        let mut snap = m.snapshot();
        let cc_aborts = AbortReason::ALL
            .into_iter()
            .filter(|reason| reason.is_cc())
            .map(|reason| m.abort_count(reason))
            .sum();
        snap.counters.push(Counter {
            name: "txn_cc_aborts".into(),
            value: cc_aborts,
        });
        snap.counters.push(Counter {
            name: "durable_epoch".into(),
            value: self.durable_epoch().unwrap_or(0),
        });

        let uptime_ns = m.now_ns().max(1);
        for (idx, exec) in inner.executors.iter().enumerate() {
            snap.gauges.push(Gauge {
                name: format!("executor_queue_depth{{executor=\"{idx}\"}}"),
                value: exec.queue_len() as f64,
            });
            // Fraction of wall-clock time this executor's workers spent
            // processing requests (cooperative drains count toward the
            // outer request's span, so the ratio never exceeds 1 per
            // worker).
            let capacity_ns = uptime_ns.saturating_mul(exec.mpl() as u64).max(1);
            snap.gauges.push(Gauge {
                name: format!("executor_utilization{{executor=\"{idx}\"}}"),
                value: m.busy_ns(idx) as f64 / capacity_ns as f64,
            });
        }
        snap
    }

    /// The live observability registry this instance records into — shared
    /// with the WAL, the checkpointer, and (when one fronts this database)
    /// the wire server, which records its `net_*` counts and phases here so
    /// they land in the same [`MetricsSnapshot`] as the engine's.
    /// For point-in-time export use [`ReactDB::metrics`].
    pub fn metrics_registry(&self) -> Arc<Metrics> {
        Arc::clone(&self.inner.metrics)
    }

    /// Drains the transaction trace rings: the most recent commit, abort,
    /// slow-transaction, group-commit, checkpoint-chunk and durable-ack
    /// events, globally ordered by sequence number. Draining resets the
    /// rings; events are overwritten oldest-first when a ring wraps. Empty
    /// when tracing is disabled ([`reactdb_common::TracingConfig::off`]).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.inner.metrics.drain_trace()
    }

    /// Closes the current epoch and forces one group commit (flush, fsync,
    /// durable-epoch advance), making every transaction committed so far
    /// durable. Returns the resulting durable epoch. Errors distinguish the
    /// two failure modes: durability not configured, and a group commit
    /// that failed with an I/O error (also counted as
    /// `log_sync_failures`). Tests use this instead of waiting
    /// for the WAL's sync thread.
    pub fn wal_sync(&self) -> Result<u64> {
        let wal = self
            .inner
            .wal
            .as_ref()
            .ok_or_else(|| TxnError::Runtime("durability is off".into()))?;
        // Commits already in flight keep the epoch they read; advancing
        // first guarantees the fence lies beyond every *completed* commit.
        self.inner.epoch.advance();
        wal.sync()
            .map_err(|e| TxnError::Runtime(format!("group commit failed: {e}")))
    }

    /// Highest epoch whose transactions are guaranteed durable; `None` when
    /// durability is off.
    pub fn durable_epoch(&self) -> Option<u64> {
        self.inner.wal.as_ref().map(|w| w.durable_epoch())
    }

    /// Takes one checkpoint right now, concurrently with live transactions:
    /// snapshots every table against the stable epoch across the parallel
    /// writer pool, waits until the capture is durable, commits the
    /// manifest and truncates every log segment the checkpoint covers.
    /// Returns a [`CheckpointReport`] — rows, bytes, part count and the
    /// cover epoch — so callers and tests need not scrape the metrics.
    /// Requires durability; see `CheckpointConfig` on the deployment for
    /// the periodic background variant.
    pub fn checkpoint_now(&self) -> Result<CheckpointReport> {
        let checkpointer = self
            .inner
            .checkpointer
            .as_ref()
            .ok_or_else(|| TxnError::Runtime("durability is off".into()))?;
        checkpointer
            .checkpoint_now()
            .map_err(|e| TxnError::Runtime(format!("checkpoint failed: {e}")))
    }

    /// Tears the database down as a crash would: worker threads stop, but
    /// the write-ahead log is *not* flushed, so every redo record buffered
    /// since the last group commit is lost. Recover with
    /// [`ReactDB::recover`] on the same deployment config.
    pub fn simulate_crash(mut self) {
        self.crashed = true;
        // Drop runs the ordinary shutdown, minus the final WAL flush.
    }

    /// Number of transaction executors.
    pub fn executor_count(&self) -> usize {
        self.inner.executors.len()
    }

    /// Number of containers.
    pub fn container_count(&self) -> usize {
        self.inner.containers.len()
    }

    /// Opens a new client session: the primary surface for running root
    /// transactions (§2.2.1 — "asynchronous function calls returning
    /// promises"). Each call creates an independent session with its own
    /// statistics; the returned [`Client`] is cheaply cloneable, and clones
    /// share the session. Many transactions may be in flight per session
    /// ([`Client::submit`] / [`Client::submit_batch`] pipeline without
    /// waiting).
    pub fn client(&self) -> Client {
        Client::new(Arc::clone(&self.inner), SessionShared::new())
    }

    /// Invokes a root transaction: `proc(args)` on the reactor named
    /// `reactor`, blocking until it commits or aborts (§2.2.3 root
    /// transactions are the unit clients interact with).
    ///
    /// Sync convenience over the session API, equivalent to
    /// `db.client().invoke(..)` but routed through a shared default session.
    /// Delegates to the default session's [`Client::invoke_with`] at
    /// [`AckLevel::Validated`]; pipelined submission, stronger ack levels
    /// and OCC retries live on [`ReactDB::client`].
    pub fn invoke(&self, reactor: &str, proc: &str, args: Vec<Value>) -> Result<Value> {
        Client::new(
            Arc::clone(&self.inner),
            Arc::clone(&self.inner.default_session),
        )
        .invoke_with(reactor, proc, args, AckLevel::Validated)
    }

    /// Non-transactional bulk load of one row into a reactor's relation.
    /// Only for benchmark loaders before measurement starts.
    ///
    /// With durability enabled the load is logged as a redo record, and the
    /// row is installed under the *same* real TID that is logged (drawn
    /// from executor 0's generator, dominating any version previously in
    /// the slot). Matching physical and logged TIDs is what keeps
    /// TID-ordered replay consistent with the conflict order: any later
    /// commit that touches the row observes this TID and must exceed it,
    /// while unrelated commits may order either way, harmlessly.
    pub fn load_row(&self, reactor: &str, relation: &str, row: Tuple) -> Result<()> {
        let inner = &self.inner;
        if inner.is_read_only() {
            // A follower's state comes exclusively from the shipped log; a
            // local load would be WAL-logged here and diverge the replica.
            return Err(TxnError::Runtime(
                "read-only follower: bulk loads are rejected".into(),
            ));
        }
        let reactor_idx = inner.spec.reactor_id(reactor)?;
        let reactor_id = ReactorId(reactor_idx as u64);
        let table = self.table(reactor, relation)?;
        let Some(wal) = &inner.wal else {
            return table.load_row(row);
        };
        // Validate before touching the primary key: key extraction panics
        // on malformed rows, and the durability-off path reports
        // BadArguments instead — keep the two paths behaviourally equal.
        table.schema().validate(table.name(), row.values())?;
        let _gate = wal.commit_guard();
        let key = row.primary_key(table.schema());
        // Dominate whatever version occupies the slot (e.g. a replayed
        // delete from a previous life of this database).
        let observed = table
            .get(&key)
            .map(|record| record.tid().unlocked())
            .unwrap_or_else(|| reactdb_storage::TidWord::committed(0, 0));
        let tid = inner.executors[0]
            .tidgen()
            .next(inner.epoch.current(), observed);
        table.load_row_with_tid(row.clone(), tid)?;
        wal.writer(0).log_commit(
            tid,
            &[reactdb_txn::RedoRecord {
                container: inner.router.container_of(reactor_id),
                reactor: reactor_id,
                relation: relation.to_owned(),
                key,
                payload: reactdb_txn::RedoPayload::Full(row),
            }],
        );
        Ok(())
    }

    /// Direct access to a reactor's relation (bulk loading and test
    /// assertions; transactional access goes through procedures).
    pub fn table(&self, reactor: &str, relation: &str) -> Result<Arc<Table>> {
        let inner = &self.inner;
        let idx = inner.spec.reactor_id(reactor)?;
        let reactor_id = ReactorId(idx as u64);
        let container = inner.router.container_of(reactor_id);
        inner.containers[container.index()]
            .partition()
            .table(reactor_id, relation)
    }

    /// Marks this instance as a read-only replication follower for the
    /// rest of its life: root transactions with a write set and bulk loads
    /// are rejected — state changes arrive exclusively through
    /// [`ReactDB::apply_redo`] — while read-only transactions keep serving
    /// against the applied snapshot. There is no way back in process:
    /// promotion is a restart, [`ReactDB::recover`] on the follower's own
    /// log directory, which holds everything it applied.
    pub fn set_read_only(&self) {
        self.inner
            .read_only
            .store(true, std::sync::atomic::Ordering::Release);
    }

    /// True while this instance is a read-only replication follower.
    pub fn is_read_only(&self) -> bool {
        self.inner.is_read_only()
    }

    /// Applies replicated redo state to this live instance: optional
    /// checkpoint base rows first, then logged transaction batches in TID
    /// order — the same TID-aware, reactor-partitioned replay crash
    /// recovery uses ([`ReactDB::recover`]), but incremental, against a
    /// serving database. Concurrent read-only transactions stay sound:
    /// `Table::replay` installs whole versions idempotently by TID, so a
    /// reader validates against either the old or the new version, never a
    /// torn one.
    ///
    /// Every applied record is re-logged through this instance's own WAL
    /// (when durability is on), so the follower's durability is
    /// self-contained: after `wal_sync` the applied prefix survives a
    /// follower crash, and [`ReactDB::recover`] on that directory boots a
    /// primary holding it. The epoch clock and TID generators advance
    /// beyond everything applied. Returns the number of transaction
    /// batches applied. `workers == 0` uses the available parallelism.
    pub fn apply_redo(
        &self,
        checkpoint_rows: &[(reactdb_storage::TidWord, reactdb_txn::RedoRecord)],
        batches: &[(reactdb_storage::TidWord, Vec<reactdb_txn::RedoRecord>)],
        workers: usize,
    ) -> usize {
        let inner = &self.inner;
        let started = Instant::now();
        replay(
            &inner.containers,
            inner.router.containers_of_reactors(),
            checkpoint_rows,
            batches,
            workers,
        );
        inner
            .metrics
            .record_elapsed(Phase::FollowerApply, usize::MAX, started);

        // Re-log through the replica's own WAL under the commit gate, so a
        // concurrent group commit cannot fence an epoch these records
        // belong to out from under them.
        if let Some(wal) = &inner.wal {
            let _gate = wal.commit_guard();
            let writer = wal.writer(0);
            for (tid, record) in checkpoint_rows {
                writer.log_commit(*tid, std::slice::from_ref(record));
            }
            for (tid, records) in batches {
                writer.log_commit(*tid, records);
            }
        }

        // Advance the clocks beyond everything applied: replayed TIDs must
        // dominate nothing the replica issues later, and the epoch clock
        // must never reissue a shipped epoch.
        let mut max_tid = reactdb_storage::TidWord(0);
        let mut max_epoch = 0u64;
        for tid in checkpoint_rows
            .iter()
            .map(|(tid, _)| *tid)
            .chain(batches.iter().map(|(tid, _)| *tid))
        {
            if tid.version() > max_tid.version() {
                max_tid = tid;
            }
            max_epoch = max_epoch.max(tid.epoch());
        }
        if max_epoch > 0 {
            inner.epoch.advance_to(max_epoch + 1);
        }
        for exec in &inner.executors {
            exec.tidgen().observe(max_tid);
        }
        inner
            .metrics
            .add(Count::RecoveredTxns, batches.len() as u64);
        inner
            .metrics
            .add(Count::RecoveredCheckpointRows, checkpoint_rows.len() as u64);
        batches.len()
    }

    /// Stops every worker thread, the epoch advancer and the WAL's sync
    /// thread (flushing the log unless a crash is being simulated). Called
    /// by `Drop`; explicit shutdown lets callers join deterministically.
    pub fn shutdown(&mut self) {
        self.inner
            .shutdown
            .store(true, std::sync::atomic::Ordering::Release);
        if self.threads.is_empty() {
            return;
        }
        for exec in &self.inner.executors {
            for _ in 0..exec.mpl() {
                let _ = exec.enqueue(Request::Shutdown);
            }
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        // Workers are gone. Close each queue *before* draining it: a
        // submitter that raced past the shutdown flag either enqueued
        // before the close (the drain below drops its request) or is
        // rejected by the closed queue (the request is dropped at the
        // submission site). Dropping a request resolves its future with a
        // runtime error and fires the session hook, so clients get a
        // prompt error instead of a timeout, in-flight accounting
        // balances, and no queued hook's `Arc<Inner>` can keep the
        // database alive as a cycle.
        for exec in &self.inner.executors {
            exec.close();
            while exec.try_recv().is_some() {}
        }
        self.inner.epoch.stop();
        if let Some(handle) = self.epoch_thread.take() {
            let _ = handle.join();
        }
        // Checkpointer before WAL: the daemon (and any in-flight
        // checkpoint) must be gone before the log directory is released.
        if let Some(checkpointer) = &self.inner.checkpointer {
            checkpointer.shutdown();
        }
        if let Some(wal) = &self.inner.wal {
            wal.shutdown(!self.crashed);
        }
    }
}

impl Drop for ReactDB {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Replays checkpoint rows, then logged batches, into the tables of
/// `containers` — the one replay path of crash recovery and follower apply.
/// Records are routed by the *current* reactor-to-container mapping
/// (`container_of_reactor[r]`): the log may be restored under a different
/// deployment of the same reactor database, and the logged container id
/// belongs to the old one. A record for a reactor the spec does not declare
/// has no home and is skipped rather than guessed at. Full images and
/// tombstones replay idempotently by TID. The work fans out over `workers`
/// reactor-partitioned lanes (`0` = the available parallelism), so each
/// reactor's records stay in order. Returns the lanes used.
fn replay(
    containers: &[Arc<Container>],
    container_of_reactor: &[ContainerId],
    checkpoint_rows: &[(reactdb_storage::TidWord, reactdb_txn::RedoRecord)],
    batches: &[(reactdb_storage::TidWord, Vec<reactdb_txn::RedoRecord>)],
    workers: usize,
) -> usize {
    let replay_one = |tid, record: &reactdb_txn::RedoRecord| {
        let Some(container) = container_of_reactor.get(record.reactor.index()) else {
            return;
        };
        let Ok(table) = containers[container.index()]
            .partition()
            .table(record.reactor, &record.relation)
        else {
            return;
        };
        table.replay(&record.key, record.image(), tid);
    };
    let workers = match workers {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    reactdb_wal::replay_partitioned(checkpoint_rows, batches, workers, replay_one)
}

fn worker_loop(inner: Arc<Inner>, executor_idx: usize) {
    let exec = Arc::clone(&inner.executors[executor_idx]);
    while let Some(request) = exec.recv() {
        if matches!(request, Request::Shutdown) {
            break;
        }
        // Busy time is measured only here, at the top level: requests
        // drained cooperatively while this one waits on a remote future run
        // *inside* this span and must not be double-counted.
        let clock = inner.metrics.clock();
        inner.process(executor_idx, request);
        if let Some(started) = clock {
            inner
                .metrics
                .add_busy(executor_idx, started.elapsed().as_nanos() as u64);
        }
    }
}

/// Wait hook installed on remote-call futures: while the caller waits, its
/// executor keeps draining requests (cooperative multitasking).
struct ExecutorWaitHook {
    inner: Arc<Inner>,
    executor_idx: usize,
}

impl WaitHook for ExecutorWaitHook {
    fn run_once(&self) -> bool {
        match self.inner.executors[self.executor_idx].try_recv() {
            Some(Request::Shutdown) => {
                // Not ours to handle here; put it back for the worker loop.
                let _ = self.inner.executors[self.executor_idx].enqueue(Request::Shutdown);
                false
            }
            Some(request) => {
                self.inner.process(self.executor_idx, request);
                true
            }
            None => false,
        }
    }
}

impl Inner {
    /// True while the database accepts new root transactions.
    pub(crate) fn is_accepting(&self) -> bool {
        !self.shutdown.load(std::sync::atomic::Ordering::Acquire)
    }

    /// True while this instance is a read-only replication follower.
    pub(crate) fn is_read_only(&self) -> bool {
        self.read_only.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Everything that can reject a root-transaction submission, checked
    /// *before* any request or accounting exists: shutdown state and the
    /// reactor name. Returns the resolved reactor id for
    /// [`Inner::enqueue_root`].
    pub(crate) fn validate_root(&self, reactor: &str) -> Result<ReactorId> {
        if !self.is_accepting() {
            return Err(TxnError::Runtime("database has shut down".into()));
        }
        let reactor_idx = self.spec.reactor_id(reactor)?;
        Ok(ReactorId(reactor_idx as u64))
    }

    /// Enqueues a validated root transaction and returns its future. This
    /// cannot fail: if the executor queue rejects the request, the request
    /// (and the writer inside it) is dropped, which resolves the future
    /// with a runtime error and fires `hook`. Callers may therefore do
    /// submission accounting between [`Inner::validate_root`] and this call
    /// and rely on `hook` firing exactly once afterwards. `waker`, when
    /// given, runs once after the result is published.
    pub(crate) fn enqueue_root(
        &self,
        reactor: ReactorId,
        proc: &str,
        args: Vec<Value>,
        hook: Option<FulfillHook>,
        waker: Option<PublishWaker>,
    ) -> ReactorFuture {
        let root = RootTxn::new(self.txn_ids.next());
        let (future, mut writer) = ReactorFuture::pending();
        if let Some(hook) = hook {
            writer.on_fulfill(hook);
        }
        if let Some(waker) = waker {
            writer.on_publish(waker);
        }
        let exec = self.router.route_root(reactor);
        let _ = self.executors[exec.index()].enqueue(Request::Root {
            root,
            reactor,
            proc: proc.to_owned(),
            args,
            writer,
        });
        future
    }

    fn process(self: &Arc<Self>, executor_idx: usize, request: Request) {
        match request {
            Request::Root {
                root,
                reactor,
                proc,
                args,
                writer,
            } => {
                let clock = self.metrics.clock();
                let result =
                    self.run_subtxn(executor_idx, &root, reactor, SubTxnId(0), &proc, &args);
                let execute_ns = clock
                    .map(|started| {
                        self.metrics
                            .record_elapsed(Phase::Execute, executor_idx, started)
                    })
                    .unwrap_or(0);
                let mut probe = self.metrics.commit_probe(executor_idx);
                let outcome = match result {
                    Ok(value) => self
                        .commit_root(executor_idx, &root, probe.as_mut())
                        .map(|epoch| (value, epoch)),
                    Err(e) => {
                        // Nothing was installed; drop the buffered
                        // participants — but still account their scan work.
                        self.record_scans(&root.take_participants());
                        Err(e)
                    }
                };
                match &outcome {
                    Ok(_) => {
                        self.metrics.add(Count::TxnCommitted, 1);
                    }
                    Err(e) => self.metrics.record_abort(AbortReason::classify(e)),
                }
                self.trace_root(executor_idx, &root, &outcome, execute_ns, probe.as_ref());
                // Thread the commit epoch into the future so durability-
                // aware clients can gate their acknowledgement on the
                // epoch's group commit.
                match outcome {
                    Ok((value, epoch)) => writer.fulfill_at(Ok(value), epoch),
                    Err(e) => writer.fulfill(Err(e)),
                }
            }
            Request::Sub {
                root,
                reactor,
                sub,
                proc,
                args,
                writer,
            } => {
                let result = self.run_subtxn(executor_idx, &root, reactor, sub, &proc, &args);
                writer.fulfill(result);
            }
            Request::Shutdown => {}
        }
    }

    /// Accounts the scan work of a finished root transaction's
    /// participants, committed or not.
    fn record_scans(&self, participants: &[OccTxn]) {
        let ops: u64 = participants.iter().map(OccTxn::scan_count).sum();
        if ops == 0 {
            return;
        }
        let m = &self.metrics;
        m.add(Count::ScanOps, ops);
        let slots = participants.iter().map(OccTxn::scan_slots_visited).sum();
        m.add(Count::ScanSlotsVisited, slots);
        let rows = participants.iter().map(OccTxn::scan_rows_returned).sum();
        m.add(Count::ScanRowsReturned, rows);
    }

    /// Commits a root transaction's participants. On success returns the
    /// epoch of the commit TID — the epoch whose group commit makes the
    /// transaction durable — or `None` for transactions that touched no
    /// container (nothing to validate or log, so durability is trivial).
    fn commit_root(
        self: &Arc<Self>,
        executor_idx: usize,
        root: &Arc<RootTxn>,
        probe: Option<&mut CommitProbe<'_>>,
    ) -> Result<Option<u64>> {
        let mut participants = root.take_participants();
        self.record_scans(&participants);
        if participants.is_empty() {
            return Ok(None);
        }
        // Follower gate: reads commit normally (they validate against the
        // applied snapshot), but anything with a write set is rejected —
        // on a replica every state change must come through the shipped
        // log, or recovering its directory as a primary could resurrect
        // writes the primary never had.
        if self.is_read_only() && participants.iter().any(|p| !p.is_read_only()) {
            return Err(TxnError::Runtime(
                "read-only follower: write transactions are rejected".into(),
            ));
        }
        // Hold the WAL's commit gate across the serialization point and the
        // log append: every group commit drains these guards before
        // declaring an epoch durable (see `reactdb_wal::Wal::sync`).
        let wal = self.wal.as_deref();
        let _commit_gate = wal.map(|w| w.commit_guard());
        let sink = wal.map(|w| &**w.writer(executor_idx) as &dyn LogSink);
        Coordinator::commit_observed(
            &mut participants,
            &self.epoch,
            self.executors[executor_idx].tidgen(),
            sink,
            probe,
        )
        .map(|tid| Some(tid.epoch()))
    }

    /// Emits the trace events for one resolved root transaction: the
    /// commit/abort event, and — when the end-to-end latency exceeded the
    /// configured threshold — a slow-transaction marker plus its per-phase
    /// breakdown. No-op when tracing is off (`execute_ns` is 0 and no probe
    /// exists, but the early return keeps even that work off the hot path).
    fn trace_root(
        &self,
        executor_idx: usize,
        root: &Arc<RootTxn>,
        outcome: &Result<(Value, Option<u64>)>,
        execute_ns: u64,
        probe: Option<&CommitProbe<'_>>,
    ) {
        if !self.metrics.enabled() {
            return;
        }
        let txn = root.id().0;
        let commit_ns = probe.map(|p| p.total_ns()).unwrap_or(0);
        let total_ns = execute_ns + commit_ns;
        match outcome {
            Ok(_) => self
                .metrics
                .trace(executor_idx, txn, TraceKind::Commit, total_ns),
            Err(e) => self.metrics.trace(
                executor_idx,
                txn,
                TraceKind::Abort(AbortReason::classify(e)),
                total_ns,
            ),
        }
        if total_ns > self.metrics.slow_txn_ns() {
            self.metrics
                .trace(executor_idx, txn, TraceKind::SlowTxn, total_ns);
            self.metrics.trace(
                executor_idx,
                txn,
                TraceKind::CommitPhase(Phase::Execute),
                execute_ns,
            );
            if let Some(p) = probe {
                for (phase, ns) in p.phase_durs() {
                    self.metrics
                        .trace(executor_idx, txn, TraceKind::CommitPhase(phase), ns);
                }
            }
        }
    }

    /// Runs one (sub-)transaction: enforces the active-set safety condition,
    /// executes the procedure, then waits for all of its children.
    fn run_subtxn(
        self: &Arc<Self>,
        executor_idx: usize,
        root: &Arc<RootTxn>,
        reactor: ReactorId,
        sub: SubTxnId,
        proc: &str,
        args: &[Value],
    ) -> Result<Value> {
        let reactor_name = self
            .spec
            .reactor_name(reactor.index())
            .cloned()
            .ok_or_else(|| TxnError::UnknownReactor(format!("#{}", reactor.raw())))?;
        let entry = self.active.enter(reactor, &reactor_name, root.id(), sub)?;
        let result =
            self.run_procedure_body(executor_idx, root, reactor, &reactor_name, sub, proc, args);
        self.active.exit(entry);
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn run_procedure_body(
        self: &Arc<Self>,
        executor_idx: usize,
        root: &Arc<RootTxn>,
        reactor: ReactorId,
        reactor_name: &str,
        sub: SubTxnId,
        proc: &str,
        args: &[Value],
    ) -> Result<Value> {
        let reactor_type = self
            .spec
            .reactor_type(reactor.index())
            .ok_or_else(|| TxnError::UnknownReactor(reactor_name.to_owned()))?;
        let procedure = reactor_type.procedure(proc)?;

        let container = self.router.container_of(reactor);
        let partition = self.containers[container.index()].partition();
        let participant = root.participant(container);

        let backend = EngineBackend {
            inner: Arc::clone(self),
            executor_idx,
            root: Arc::clone(root),
            caller_reactor: reactor,
            caller_sub: sub,
        };
        let mut ctx = ReactorCtx::new(
            reactor_name.to_owned(),
            reactor,
            partition,
            participant,
            &backend,
        );
        let mut result = procedure(&mut ctx, args);

        // Completion rule (§2.2.3): wait for every nested sub-transaction,
        // whether or not the procedure awaited it; any child failure aborts
        // the enclosing (sub-)transaction.
        for child in ctx.take_pending() {
            let child_result = child.get();
            if result.is_ok() {
                if let Err(e) = child_result {
                    result = Err(e);
                }
            }
        }
        result
    }

    /// Dispatch decision for a sub-transaction call (§3.2.1–3.2.2).
    #[allow(clippy::too_many_arguments)]
    fn dispatch_call(
        self: &Arc<Self>,
        executor_idx: usize,
        root: &Arc<RootTxn>,
        caller_reactor: ReactorId,
        caller_sub: SubTxnId,
        target: &str,
        proc: &str,
        args: Vec<Value>,
    ) -> Result<ReactorFuture> {
        let target_idx = self.spec.reactor_id(target)?;
        let target_id = ReactorId(target_idx as u64);
        let target_container = self.router.container_of(target_id);
        let caller_container = self.executors[executor_idx].container();

        // Self-call: inlined into the calling sub-transaction, executed
        // synchronously (§2.2.4).
        if target_id == caller_reactor {
            self.metrics.add(Count::SubTxnsInlined, 1);
            let result = self.run_subtxn(executor_idx, root, target_id, caller_sub, proc, &args);
            return Ok(ReactorFuture::resolved(result));
        }

        // Same container: a distinct sub-transaction, but executed
        // synchronously on the calling executor to avoid migration of
        // control (§3.2.1).
        if target_container == caller_container {
            self.metrics.add(Count::SubTxnsInlined, 1);
            let sub = root.next_sub();
            let result = self.run_subtxn(executor_idx, root, target_id, sub, proc, &args);
            return Ok(ReactorFuture::resolved(result));
        }

        // Cross-container: route to the affinity executor of the target
        // reactor and return a pending future.
        self.metrics.add(Count::SubTxnsDispatched, 1);
        let sub = root.next_sub();
        let target_exec = self.router.route_sub(target_id);
        let hook = Arc::new(ExecutorWaitHook {
            inner: Arc::clone(self),
            executor_idx,
        });
        let (future, writer) = ReactorFuture::pending_with_hook(hook);
        let ok = self.executors[target_exec.index()].enqueue(Request::Sub {
            root: Arc::clone(root),
            reactor: target_id,
            sub,
            proc: proc.to_owned(),
            args,
            writer,
        });
        if !ok {
            return Err(TxnError::Runtime("target executor queue closed".into()));
        }
        Ok(future)
    }
}

/// The [`CallBackend`] the engine hands to procedures.
struct EngineBackend {
    inner: Arc<Inner>,
    executor_idx: usize,
    root: Arc<RootTxn>,
    caller_reactor: ReactorId,
    caller_sub: SubTxnId,
}

impl CallBackend for EngineBackend {
    fn call(&self, target: &ReactorName, proc: &str, args: Vec<Value>) -> Result<ReactorFuture> {
        self.inner.dispatch_call(
            self.executor_idx,
            &self.root,
            self.caller_reactor,
            self.caller_sub,
            target,
            proc,
            args,
        )
    }

    fn current_reactor(&self) -> &str {
        self.inner
            .spec
            .reactor_name(self.caller_reactor.index())
            .map(|s| s.as_str())
            .unwrap_or("")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reactdb_common::Key;
    use reactdb_core::ReactorType;
    use reactdb_storage::{ColumnType, RelationDef, Schema};

    /// One exported counter of `db`.
    fn count(db: &ReactDB, name: &str) -> u64 {
        db.metrics()
            .counter(name)
            .unwrap_or_else(|| panic!("{name} is not exported"))
    }

    /// A minimal two-type reactor database used across the engine tests:
    /// `Account` reactors hold a single-row `balance` relation and support
    /// `deposit`, `balance`, and `transfer_in` procedures; `transfer` on an
    /// account invokes `transfer_in` on the destination account reactor.
    fn bank_spec() -> ReactorDatabaseSpec {
        let account = ReactorType::new("Account")
            .with_relation(RelationDef::new(
                "balance",
                Schema::of(
                    &[("id", ColumnType::Int), ("amount", ColumnType::Float)],
                    &["id"],
                ),
            ))
            .with_procedure("init", |ctx, _args| {
                ctx.insert("balance", Tuple::of([Value::Int(0), Value::Float(0.0)]))?;
                Ok(Value::Null)
            })
            .with_procedure("deposit", |ctx, args| {
                let amount = args[0].as_float();
                let row = ctx.update_with("balance", &Key::Int(0), |t| {
                    let cur = t.at(1).as_float();
                    t.values_mut()[1] = Value::Float(cur + amount);
                })?;
                Ok(Value::Float(row.at(1).as_float()))
            })
            .with_procedure("balance", |ctx, _args| {
                let row = ctx.get_expected("balance", &Key::Int(0))?;
                Ok(Value::Float(row.at(1).as_float()))
            })
            .with_procedure("transfer", |ctx, args| {
                // args: [dst reactor name, amount]
                let dst = args[0].as_str().to_owned();
                let amount = args[1].as_float();
                // Withdraw locally, deposit remotely (asynchronously).
                ctx.update_with("balance", &Key::Int(0), |t| {
                    let cur = t.at(1).as_float();
                    t.values_mut()[1] = Value::Float(cur - amount);
                })?;
                ctx.call(&dst, "deposit", vec![Value::Float(amount)])?;
                Ok(Value::Null)
            })
            .with_procedure("slow_deposit", |ctx, args| {
                // A deposit that holds the reactor busy long enough for the
                // dangerous-structure race below to manifest reliably.
                let amount = args[0].as_float();
                ctx.busy_work(30_000_000);
                let row = ctx.update_with("balance", &Key::Int(0), |t| {
                    let cur = t.at(1).as_float();
                    t.values_mut()[1] = Value::Float(cur + amount);
                })?;
                Ok(Value::Float(row.at(1).as_float()))
            })
            .with_procedure("dangerous_fanout", |ctx, args| {
                // Invokes slow_deposit twice asynchronously on the *same*
                // target reactor: a dangerous structure that the runtime
                // must abort.
                let dst = args[0].as_str().to_owned();
                ctx.call(&dst, "slow_deposit", vec![Value::Float(1.0)])?;
                ctx.call(&dst, "slow_deposit", vec![Value::Float(1.0)])?;
                Ok(Value::Null)
            })
            .with_procedure("failing_remote", |ctx, args| {
                let dst = args[0].as_str().to_owned();
                ctx.update_with("balance", &Key::Int(0), |t| {
                    t.values_mut()[1] = Value::Float(12345.0);
                })?;
                ctx.call(&dst, "always_abort", vec![])?;
                Ok(Value::Null)
            })
            .with_procedure("always_abort", |ctx, _| ctx.abort("no"))
            .with_procedure("self_call", |ctx, _| {
                // A synchronous call to the own reactor must be inlined.
                let own_name = ctx.reactor_name().to_owned();
                let v = ctx.call_sync(&own_name, "balance", vec![])?;
                Ok(v)
            });

        let mut spec = ReactorDatabaseSpec::new();
        spec.add_type(account);
        for i in 0..4 {
            spec.add_reactor(format!("acct-{i}"), "Account");
        }
        spec
    }

    fn boot(config: DeploymentConfig) -> ReactDB {
        let db = ReactDB::boot(bank_spec(), config);
        for i in 0..4 {
            db.invoke(&format!("acct-{i}"), "init", vec![]).unwrap();
        }
        db
    }

    fn all_deployments() -> Vec<DeploymentConfig> {
        vec![
            DeploymentConfig::shared_everything_without_affinity(2),
            DeploymentConfig::shared_everything_with_affinity(2),
            DeploymentConfig::shared_nothing(4),
        ]
    }

    #[test]
    fn deposit_and_balance_roundtrip_under_every_deployment() {
        for config in all_deployments() {
            let db = boot(config);
            let v = db
                .invoke("acct-0", "deposit", vec![Value::Float(10.0)])
                .unwrap();
            assert_eq!(v, Value::Float(10.0));
            db.invoke("acct-0", "deposit", vec![Value::Float(5.0)])
                .unwrap();
            let bal = db.invoke("acct-0", "balance", vec![]).unwrap();
            assert_eq!(bal, Value::Float(15.0));
            assert_eq!(count(&db, "txn_committed"), 4 + 3);
        }
    }

    #[test]
    fn cross_reactor_transfer_is_atomic_under_every_deployment() {
        for config in all_deployments() {
            let db = boot(config);
            db.invoke("acct-0", "deposit", vec![Value::Float(100.0)])
                .unwrap();
            db.invoke(
                "acct-0",
                "transfer",
                vec![Value::Str("acct-3".into()), Value::Float(40.0)],
            )
            .unwrap();
            assert_eq!(
                db.invoke("acct-0", "balance", vec![]).unwrap(),
                Value::Float(60.0)
            );
            assert_eq!(
                db.invoke("acct-3", "balance", vec![]).unwrap(),
                Value::Float(40.0)
            );
        }
    }

    #[test]
    fn remote_abort_rolls_back_the_whole_root_transaction() {
        for config in all_deployments() {
            let db = boot(config);
            let err = db
                .invoke(
                    "acct-0",
                    "failing_remote",
                    vec![Value::Str("acct-3".into())],
                )
                .unwrap_err();
            assert!(err.is_user_abort(), "expected user abort, got {err:?}");
            // The local write of failing_remote was not installed.
            assert_eq!(
                db.invoke("acct-0", "balance", vec![]).unwrap(),
                Value::Float(0.0)
            );
        }
    }

    #[test]
    fn dangerous_structures_are_rejected_in_shared_nothing() {
        // Two asynchronous sub-transactions of the same root on the same
        // reactor violate the safety condition of §2.2.4. In shared-nothing
        // the second dispatch races with the first; the runtime must either
        // abort with DangerousStructure or (if the first already completed)
        // execute both. Under shared-everything the calls are inlined
        // sequentially, which is always safe.
        let db = boot(DeploymentConfig::shared_nothing(4));
        let mut saw_dangerous = false;
        for _ in 0..8 {
            match db.invoke(
                "acct-0",
                "dangerous_fanout",
                vec![Value::Str("acct-1".into())],
            ) {
                Err(e) if e.is_dangerous_structure() => saw_dangerous = true,
                Err(e) => panic!("unexpected error {e:?}"),
                Ok(_) => {}
            }
            if saw_dangerous {
                break;
            }
        }
        // The target reactor is kept busy for tens of milliseconds per
        // sub-transaction, so the two asynchronous invocations overlap and
        // the safety condition fires.
        assert!(
            saw_dangerous,
            "expected at least one DangerousStructure abort"
        );
        assert!(count(&db, "txn_aborts{reason=\"dangerous_structure\"}") >= 1);
    }

    #[test]
    fn self_calls_are_inlined() {
        let db = boot(DeploymentConfig::shared_nothing(4));
        db.invoke("acct-2", "deposit", vec![Value::Float(7.0)])
            .unwrap();
        let v = db.invoke("acct-2", "self_call", vec![]).unwrap();
        assert_eq!(v, Value::Float(7.0));
        assert!(count(&db, "sub_txns_inlined") >= 1);
    }

    #[test]
    fn unknown_names_are_reported() {
        let db = boot(DeploymentConfig::shared_everything_with_affinity(1));
        assert!(matches!(
            db.invoke("nope", "balance", vec![]).unwrap_err(),
            TxnError::UnknownReactor(_)
        ));
        assert!(matches!(
            db.invoke("acct-0", "nope", vec![]).unwrap_err(),
            TxnError::UnknownProcedure { .. }
        ));
        assert!(db.table("acct-0", "balance").is_ok());
        assert!(db.table("acct-0", "nope").is_err());
    }

    #[test]
    fn concurrent_transfers_conserve_money() {
        let db = Arc::new(boot(DeploymentConfig::shared_nothing(4)));
        for i in 0..4 {
            db.invoke(&format!("acct-{i}"), "deposit", vec![Value::Float(1000.0)])
                .unwrap();
        }
        let threads: Vec<_> = (0..4)
            .map(|worker| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    let mut committed = 0;
                    let mut attempts = 0;
                    while committed < 25 && attempts < 2000 {
                        attempts += 1;
                        let src = worker;
                        let dst = (worker + 1) % 4;
                        match db.invoke(
                            &format!("acct-{src}"),
                            "transfer",
                            vec![Value::Str(format!("acct-{dst}")), Value::Float(1.0)],
                        ) {
                            Ok(_) => committed += 1,
                            Err(e) if e.is_cc_abort() || e.is_dangerous_structure() => {}
                            Err(e) => panic!("unexpected error {e:?}"),
                        }
                    }
                    committed
                })
            })
            .collect();
        let total_transfers: i32 = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert!(total_transfers > 0);
        let total: f64 = (0..4)
            .map(|i| {
                db.invoke(&format!("acct-{i}"), "balance", vec![])
                    .unwrap()
                    .as_float()
            })
            .sum();
        assert!(
            (total - 4000.0).abs() < 1e-6,
            "money not conserved: {total}"
        );
    }

    fn wal_dir(tag: &str) -> String {
        let dir = std::env::temp_dir().join(format!(
            "reactdb-engine-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_string_lossy().into_owned()
    }

    #[test]
    fn durable_deployment_logs_commits_and_recovers_them() {
        use reactdb_common::DurabilityConfig;
        let dir = wal_dir("roundtrip");
        // Manual group commit (interval 0) keeps the test deterministic.
        let config = DeploymentConfig::shared_nothing(2)
            .with_durability(DurabilityConfig::epoch_sync(&dir).with_interval_ms(0));

        let db = boot(config.clone());
        db.invoke("acct-0", "deposit", vec![Value::Float(25.0)])
            .unwrap();
        db.invoke("acct-1", "deposit", vec![Value::Float(5.0)])
            .unwrap();
        // Cross-container 2PC transaction: both participants' writes must be
        // in the same logged batch.
        db.invoke(
            "acct-0",
            "transfer",
            vec![Value::Str("acct-1".into()), Value::Float(10.0)],
        )
        .unwrap();
        assert!(count(&db, "log_bytes") > 0);
        assert!(count(&db, "log_records") >= 4);

        // Everything so far becomes durable; the next write is lost in the
        // crash.
        db.wal_sync().unwrap();
        assert!(count(&db, "log_syncs") >= 1);
        db.invoke("acct-0", "deposit", vec![Value::Float(1000.0)])
            .unwrap();
        db.simulate_crash();

        let recovered = ReactDB::recover(bank_spec(), config).unwrap();
        assert!(count(&recovered, "recovered_txns") >= 5);
        assert_eq!(
            recovered.invoke("acct-0", "balance", vec![]).unwrap(),
            Value::Float(15.0),
            "synced prefix survives, unsynced deposit is lost"
        );
        assert_eq!(
            recovered.invoke("acct-1", "balance", vec![]).unwrap(),
            Value::Float(15.0)
        );
        // The recovered database keeps committing.
        recovered
            .invoke("acct-0", "deposit", vec![Value::Float(2.0)])
            .unwrap();
        assert_eq!(
            recovered.invoke("acct-0", "balance", vec![]).unwrap(),
            Value::Float(17.0)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovered_tids_stay_monotonic_over_replayed_state() {
        use reactdb_common::DurabilityConfig;
        let dir = wal_dir("monotonic");
        let config = DeploymentConfig::shared_everything_with_affinity(1)
            .with_durability(DurabilityConfig::epoch_sync(&dir).with_interval_ms(0));

        let db = boot(config.clone());
        for _ in 0..5 {
            db.invoke("acct-0", "deposit", vec![Value::Float(1.0)])
                .unwrap();
        }
        db.wal_sync().unwrap();
        db.simulate_crash();

        let recovered = ReactDB::recover(bank_spec(), config).unwrap();
        let table = recovered.table("acct-0", "balance").unwrap();
        let replayed_tid = table.get(&reactdb_common::Key::Int(0)).unwrap().tid();
        assert!(
            replayed_tid.version() > 0,
            "replay restores real commit TIDs"
        );
        recovered
            .invoke("acct-0", "deposit", vec![Value::Float(1.0)])
            .unwrap();
        let new_tid = table.get(&reactdb_common::Key::Int(0)).unwrap().tid();
        assert!(
            new_tid.version() > replayed_tid.version(),
            "post-recovery commits dominate every replayed TID"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_shutdown_makes_every_commit_durable() {
        use reactdb_common::DurabilityConfig;
        let dir = wal_dir("clean");
        let config = DeploymentConfig::shared_nothing(2)
            .with_durability(DurabilityConfig::epoch_sync(&dir).with_interval_ms(0));
        let mut db = boot(config.clone());
        db.invoke("acct-2", "deposit", vec![Value::Float(42.0)])
            .unwrap();
        db.shutdown();
        drop(db);
        let recovered = ReactDB::recover(bank_spec(), config).unwrap();
        assert_eq!(
            recovered.invoke("acct-2", "balance", vec![]).unwrap(),
            Value::Float(42.0)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn boot_refuses_a_log_directory_with_existing_state() {
        use reactdb_common::DurabilityConfig;
        let dir = wal_dir("refuse-reuse");
        let config = DeploymentConfig::shared_everything_with_affinity(1)
            .with_durability(DurabilityConfig::epoch_sync(&dir).with_interval_ms(0));
        let db = boot(config.clone());
        db.invoke("acct-0", "deposit", vec![Value::Float(1.0)])
            .unwrap();
        db.wal_sync().unwrap();
        db.simulate_crash();
        // A plain boot over the surviving segments would restart at epoch 1
        // and reissue TIDs the old segments already contain; it must refuse.
        let result = std::panic::catch_unwind(|| ReactDB::boot(bank_spec(), config.clone()));
        assert!(result.is_err(), "boot over existing WAL state must refuse");
        // Recovery remains the sanctioned way in.
        let recovered = ReactDB::recover(bank_spec(), config).unwrap();
        assert_eq!(
            recovered.invoke("acct-0", "balance", vec![]).unwrap(),
            Value::Float(1.0)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_bounds_recovery_to_the_log_tail() {
        use reactdb_common::DurabilityConfig;
        let dir = wal_dir("checkpoint-bound");
        let config = DeploymentConfig::shared_nothing(2)
            .with_durability(DurabilityConfig::epoch_sync(&dir).with_interval_ms(0));

        let db = boot(config.clone());
        for i in 0..30 {
            db.invoke(
                &format!("acct-{}", i % 4),
                "deposit",
                vec![Value::Float(1.0)],
            )
            .unwrap();
        }
        db.wal_sync().unwrap();
        let total_before = count(&db, "log_bytes");
        let outcome = db.checkpoint_now().unwrap();
        assert_eq!(outcome.rows, 4, "one balance row per account");
        assert!(outcome.bytes > 0);
        assert!(count(&db, "checkpoints_taken") >= 1);
        assert_eq!(count(&db, "checkpoint_bytes"), outcome.bytes);
        assert!(
            outcome.truncated_segments >= 1 && count(&db, "log_truncated_bytes") > 0,
            "the pre-checkpoint history segments are reclaimed"
        );
        // Per-table accounting observed the deposits.
        let snap = db.metrics();
        assert!(
            snap.counter("table_log_bytes{relation=\"balance\"}")
                .unwrap()
                > 0
        );
        let per_table: u64 = snap
            .counters
            .iter()
            .filter(|c| c.name.starts_with("table_log_bytes"))
            .map(|c| c.value)
            .sum();
        assert!(
            per_table <= total_before,
            "per-table bytes are a breakdown of total log bytes"
        );

        // A short durable tail plus one lost (unsynced) deposit.
        db.invoke("acct-0", "deposit", vec![Value::Float(5.0)])
            .unwrap();
        db.wal_sync().unwrap();
        db.invoke("acct-0", "deposit", vec![Value::Float(1000.0)])
            .unwrap();
        db.simulate_crash();

        let recovered = ReactDB::recover(bank_spec(), config).unwrap();
        assert_eq!(
            count(&recovered, "recovered_checkpoint_rows"),
            4,
            "the checkpoint supplies the base state"
        );
        assert!(
            count(&recovered, "recovered_txns") <= 3,
            "recovery replays only the post-checkpoint tail, got {}",
            count(&recovered, "recovered_txns")
        );
        // acct-0: init 0 + 8 pre-checkpoint deposits (i % 4 == 0 of 0..30)
        // + 5 durable tail - lost 1000.
        assert_eq!(
            recovered.invoke("acct-0", "balance", vec![]).unwrap(),
            Value::Float(13.0)
        );
        assert_eq!(
            recovered.invoke("acct-1", "balance", vec![]).unwrap(),
            Value::Float(8.0)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn background_checkpoint_daemon_fires_on_epoch_intervals() {
        use reactdb_common::{CheckpointConfig, DurabilityConfig};
        let dir = wal_dir("checkpoint-daemon");
        let config = DeploymentConfig::shared_everything_with_affinity(2)
            .with_durability(DurabilityConfig::epoch_sync(&dir).with_interval_ms(1))
            .with_checkpoint(CheckpointConfig::every_epochs(2).with_chunk_size(2));
        let mut db = boot(config.clone());
        // The engine's epoch advancer ticks every 10 ms; keep committing
        // until the daemon has demonstrably fired.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while count(&db, "checkpoints_taken") < 2 {
            db.invoke("acct-0", "deposit", vec![Value::Float(1.0)])
                .unwrap();
            assert!(
                std::time::Instant::now() < deadline,
                "daemon never checkpointed"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(count(&db, "checkpoint_failures"), 0);
        let committed = db.invoke("acct-0", "balance", vec![]).unwrap().as_float();
        db.shutdown();
        drop(db);
        let recovered = ReactDB::recover(bank_spec(), config).unwrap();
        assert!(count(&recovered, "recovered_checkpoint_rows") >= 1);
        assert_eq!(
            recovered.invoke("acct-0", "balance", vec![]).unwrap(),
            Value::Float(committed),
            "clean shutdown after background checkpoints loses nothing"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_requires_durability() {
        let db = boot(DeploymentConfig::shared_nothing(2));
        assert!(matches!(
            db.checkpoint_now().unwrap_err(),
            TxnError::Runtime(_)
        ));
        assert_eq!(count(&db, "checkpoints_taken"), 0);
        let snap = db.metrics();
        assert!(!snap
            .counters
            .iter()
            .any(|c| c.name.starts_with("table_log_")));
    }

    #[test]
    fn durability_off_keeps_log_counters_at_zero() {
        let db = boot(DeploymentConfig::shared_nothing(2));
        db.invoke("acct-0", "deposit", vec![Value::Float(1.0)])
            .unwrap();
        assert!(db.wal().is_none());
        assert!(
            db.wal_sync().is_err(),
            "sync without durability is an error"
        );
        assert_eq!(db.durable_epoch(), None);
        assert_eq!(count(&db, "log_bytes"), 0);
        assert_eq!(count(&db, "log_syncs"), 0);
    }

    #[test]
    fn load_row_bypasses_transactions_for_bulk_loading() {
        let db = ReactDB::boot(bank_spec(), DeploymentConfig::shared_nothing(2));
        db.load_row(
            "acct-1",
            "balance",
            Tuple::of([Value::Int(0), Value::Float(500.0)]),
        )
        .unwrap();
        assert_eq!(
            db.invoke("acct-1", "balance", vec![]).unwrap(),
            Value::Float(500.0)
        );
        assert_eq!(db.table("acct-1", "balance").unwrap().visible_len(), 1);
    }

    #[test]
    fn client_pipelines_handles_and_tracks_session_stats() {
        // MPL 1 serializes the deposits on their executor (no OCC aborts);
        // the pipelining under test lives in the queue, not in intra-
        // reactor parallelism.
        let db = boot(DeploymentConfig::shared_nothing(4).with_mpl(1));
        let client = db.client();
        // slow_deposit keeps the executor busy long enough that all three
        // handles are genuinely in flight at once.
        let handles: Vec<_> = (0..3)
            .map(|_| {
                client
                    .submit("acct-0", "slow_deposit", vec![Value::Float(1.0)])
                    .unwrap()
            })
            .collect();
        let stats = client.stats();
        assert_eq!(stats.submitted, 3);
        assert!(stats.in_flight >= 2, "pipelined handles overlap");
        for handle in &handles {
            handle.wait().unwrap();
        }
        let stats = client.stats();
        assert_eq!(stats.committed, 3);
        assert_eq!(stats.aborted, 0);
        assert_eq!(stats.in_flight, 0);
        assert!(stats.in_flight_hwm >= 2);
        assert_eq!(
            db.invoke("acct-0", "balance", vec![]).unwrap(),
            Value::Float(3.0)
        );
        // The same outcomes are visible database-wide.
        assert!(count(&db, "client_committed") >= 3);
        assert!(count(&db, "handles_in_flight_hwm") >= 2);
        assert_eq!(db.metrics().gauge("handles_in_flight"), Some(0.0));
    }

    #[test]
    fn submit_batch_runs_every_call_and_fails_fast_on_bad_names() {
        use crate::client::Call;
        let db = boot(DeploymentConfig::shared_everything_with_affinity(2));
        let client = db.client();
        let handles = client
            .submit_batch((0..4).map(|i| {
                Call::new(
                    format!("acct-{i}"),
                    "deposit",
                    vec![Value::Float(1.0 + i as f64)],
                )
            }))
            .unwrap();
        let results: Vec<Value> = handles.iter().map(|h| h.wait().unwrap()).collect();
        assert_eq!(results[3], Value::Float(4.0));
        assert!(matches!(
            client
                .submit_batch([Call::new("nope", "deposit", vec![])])
                .unwrap_err(),
            TxnError::UnknownReactor(_)
        ));
    }

    #[test]
    fn handles_expose_commit_epoch_and_try_result() {
        let db = boot(DeploymentConfig::shared_nothing(2));
        let client = db.client();
        let handle = client
            .submit("acct-1", "deposit", vec![Value::Float(2.0)])
            .unwrap();
        assert_eq!(handle.wait().unwrap(), Value::Float(2.0));
        assert!(handle.is_resolved());
        assert!(handle.try_result().unwrap().is_ok());
        assert!(
            handle.commit_epoch().is_some(),
            "a committed write carries its epoch"
        );
        // Aborts carry no commit epoch.
        let aborted = client.submit("acct-1", "always_abort", vec![]).unwrap();
        assert!(aborted.wait().is_err());
        assert_eq!(aborted.commit_epoch(), None);
        assert_eq!(client.stats().aborted, 1);
    }

    #[test]
    fn wait_durable_blocks_until_the_commit_epoch_is_synced() {
        use reactdb_common::DurabilityConfig;
        let dir = wal_dir("durable-ack");
        // Interval 0: no timed group commits, so only the waiter's demand
        // can make the commit durable — the strictest path.
        let config = DeploymentConfig::shared_nothing(2)
            .with_durability(DurabilityConfig::epoch_sync(&dir).with_interval_ms(0));
        let db = boot(config);
        let client = db.client();
        let handle = client
            .submit("acct-0", "deposit", vec![Value::Float(9.0)])
            .unwrap();
        handle.wait().unwrap();
        let syncs = count(&db, "log_syncs");
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(count(&db, "log_syncs"), syncs, "nothing syncs unasked");
        let value = handle.wait_durable().unwrap();
        assert_eq!(count(&db, "log_syncs"), syncs + 1, "one demanded commit");
        assert_eq!(value, Value::Float(9.0));
        let commit_epoch = handle.commit_epoch().expect("committed write");
        assert!(
            db.durable_epoch().unwrap() >= commit_epoch,
            "acknowledgement implies the epoch group-committed"
        );
        assert!(count(&db, "durable_waits") >= 1);
        // With durability off, wait_durable degrades to wait.
        let volatile = boot(DeploymentConfig::shared_nothing(2));
        let h = volatile
            .client()
            .submit("acct-0", "deposit", vec![Value::Float(1.0)])
            .unwrap();
        assert_eq!(h.wait_durable().unwrap(), Value::Float(1.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_log_directory_refuses_a_second_instance() {
        use reactdb_common::DurabilityConfig;
        let dir = wal_dir("second-instance");
        let config = DeploymentConfig::shared_everything_with_affinity(1)
            .with_durability(DurabilityConfig::epoch_sync(&dir).with_interval_ms(0));
        let db = boot(config.clone());
        db.invoke("acct-0", "deposit", vec![Value::Float(1.0)])
            .unwrap();
        // While the first instance lives, the advisory lock refuses any
        // second instance — including a recovery, which would otherwise
        // compact segments out from under the live writer.
        assert!(ReactDB::recover(bank_spec(), config.clone()).is_err());
        drop(db);
        // The lock dies with the instance; recovery then proceeds.
        let recovered = ReactDB::recover(bank_spec(), config).unwrap();
        assert_eq!(
            recovered.invoke("acct-0", "balance", vec![]).unwrap(),
            Value::Float(1.0)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invoke_with_retry_commits_and_propagates_user_aborts() {
        use crate::client::RetryPolicy;
        let db = boot(DeploymentConfig::shared_nothing(2));
        let client = db.client();
        let v = client
            .invoke_with_retry(
                "acct-0",
                "deposit",
                vec![Value::Float(5.0)],
                &RetryPolicy::occ(),
            )
            .unwrap();
        assert_eq!(v, Value::Float(5.0));
        let err = client
            .invoke_with_retry("acct-0", "always_abort", vec![], &RetryPolicy::occ())
            .unwrap_err();
        assert!(err.is_user_abort(), "user aborts are not retried");
    }

    #[test]
    fn metrics_snapshot_covers_the_commit_path_end_to_end() {
        use reactdb_common::DurabilityConfig;
        let dir = wal_dir("metrics-surface");
        let config = DeploymentConfig::shared_nothing(2)
            .with_durability(DurabilityConfig::epoch_sync(&dir).with_interval_ms(0));
        let db = boot(config);
        let client = db.client();
        for _ in 0..5 {
            let handle = client
                .submit("acct-0", "deposit", vec![Value::Float(1.0)])
                .unwrap();
            handle.wait_durable().unwrap();
        }
        let _ = client
            .submit("acct-1", "always_abort", vec![])
            .unwrap()
            .wait();
        db.checkpoint_now().unwrap();

        let snapshot = db.metrics();
        assert_eq!(snapshot.counter("txn_committed"), Some(9), "4 init + 5");
        assert_eq!(
            snapshot.counter("txn_aborts{reason=\"user_abort\"}"),
            Some(1)
        );
        assert_eq!(snapshot.counter("txn_aborts{reason=\"phantom\"}"), Some(0));
        assert!(snapshot.counter("log_bytes").unwrap() > 0);
        assert!(snapshot.counter("durable_waits").unwrap() >= 1);
        assert!(
            snapshot
                .counters
                .iter()
                .any(|c| c.name.starts_with("table_log_bytes{") && c.value > 0),
            "per-table log accounting is exported"
        );
        for phase in [
            Phase::Execute,
            Phase::Lock,
            Phase::Fence,
            Phase::Validate,
            Phase::Write,
            Phase::Log,
            Phase::DurableAck,
            Phase::WalSyncWait,
            Phase::WalFsync,
            Phase::CheckpointChunk,
            Phase::SessionWait,
        ] {
            let name = format!("phase_{}_ns", phase.name());
            let h = snapshot.histogram(&name).expect("histogram exported");
            assert!(h.count > 0, "{name} recorded nothing");
            assert!(h.max_ns >= h.p50_ns, "{name} percentiles are ordered");
        }
        assert!(
            snapshot
                .gauges
                .iter()
                .any(|g| g.name.starts_with("executor_utilization{") && g.value > 0.0),
            "busy-time accounting observed the deposits"
        );
        // The Prometheus text carries every counter's value.
        let text = snapshot.to_prometheus_text();
        for c in &snapshot.counters {
            let series = format!("reactdb_{} {}\n", c.name, c.value);
            assert!(text.contains(&series), "{series} missing");
        }
        assert!(text.contains("reactdb_txn_committed 9\n"));

        let events = db.trace_events();
        assert!(
            events.iter().any(|e| matches!(e.kind, TraceKind::Commit)),
            "commit events traced"
        );
        assert!(
            events.iter().any(
                |e| matches!(e.kind, TraceKind::Abort(reason) if reason == AbortReason::UserAbort)
            ),
            "the abort event carries its classified reason"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, TraceKind::CheckpointChunk)),
            "checkpoint chunks traced"
        );
        assert!(db.trace_events().is_empty(), "draining resets the rings");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tracing_off_keeps_every_observability_surface_empty() {
        use reactdb_common::TracingConfig;
        let db = boot(DeploymentConfig::shared_nothing(2).with_tracing(TracingConfig::off()));
        db.invoke("acct-0", "deposit", vec![Value::Float(1.0)])
            .unwrap();
        let snapshot = db.metrics();
        // Counters still work (they are not gated on tracing)...
        assert_eq!(snapshot.counter("txn_committed"), Some(5));
        // ...but no clock is ever read: histograms and traces stay empty.
        for h in &snapshot.histograms {
            assert_eq!(h.count, 0, "{} recorded with tracing off", h.name);
        }
        assert!(db.trace_events().is_empty());
        assert!(snapshot
            .gauges
            .iter()
            .filter(|g| g.name.starts_with("executor_utilization"))
            .all(|g| g.value == 0.0));
    }

    #[test]
    fn invoke_with_honours_every_ack_level() {
        use reactdb_common::DurabilityConfig;
        let dir = wal_dir("ack-levels");
        let config = DeploymentConfig::shared_nothing(2)
            .with_durability(DurabilityConfig::epoch_sync(&dir).with_interval_ms(0));
        let db = boot(config);
        let client = db.client();
        for (i, level) in AckLevel::ALL.into_iter().enumerate() {
            let v = client
                .invoke_with("acct-0", "deposit", vec![Value::Float(1.0)], level)
                .unwrap();
            assert_eq!(v, Value::Float(1.0 + i as f64));
            if level.requires_durable() {
                // The handle's commit epoch must already be group-committed.
                let durable = db.durable_epoch().unwrap();
                assert!(durable >= 1, "durable ack implies a group commit ran");
            }
        }
        // The deprecated-doc wrappers stay behaviourally identical.
        let h = client
            .submit_with(
                "acct-0",
                "deposit",
                vec![Value::Float(1.0)],
                AckLevel::Durable,
            )
            .unwrap();
        assert_eq!(h.ack_level(), AckLevel::Durable);
        h.wait_acked().unwrap();
        assert!(db.durable_epoch().unwrap() >= h.commit_epoch().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_only_follower_rejects_writes() {
        let db = boot(DeploymentConfig::shared_nothing(2));
        db.invoke("acct-0", "deposit", vec![Value::Float(3.0)])
            .unwrap();
        db.set_read_only();
        assert!(db.is_read_only());
        let err = db
            .invoke("acct-0", "deposit", vec![Value::Float(1.0)])
            .unwrap_err();
        assert!(
            matches!(err, TxnError::Runtime(_)),
            "write rejected: {err:?}"
        );
        let err = db
            .load_row(
                "acct-1",
                "balance",
                Tuple::of([Value::Int(0), Value::Float(9.0)]),
            )
            .unwrap_err();
        assert!(
            matches!(err, TxnError::Runtime(_)),
            "load rejected: {err:?}"
        );
        // Read-only transactions keep serving against the applied state.
        assert_eq!(
            db.invoke("acct-0", "balance", vec![]).unwrap(),
            Value::Float(3.0)
        );
    }

    #[test]
    fn apply_redo_installs_batches_and_recovery_dominates_them() {
        use reactdb_common::DurabilityConfig;
        let dir = wal_dir("apply-redo");
        let config = DeploymentConfig::shared_nothing(2)
            .with_durability(DurabilityConfig::epoch_sync(&dir).with_interval_ms(0));
        let db = ReactDB::boot(bank_spec(), config.clone());
        db.set_read_only();
        let record = |amount: f64| reactdb_txn::RedoRecord {
            container: ContainerId(0),
            reactor: ReactorId(0),
            relation: "balance".into(),
            key: Key::Int(0),
            payload: reactdb_txn::RedoPayload::Full(Tuple::of([
                Value::Int(0),
                Value::Float(amount),
            ])),
        };
        // A checkpoint base row plus two incremental batches, as a follower
        // would apply them from the shipped stream.
        let base = reactdb_storage::TidWord::committed(2, 1);
        db.apply_redo(&[(base, record(10.0))], &[], 2);
        db.apply_redo(
            &[],
            &[
                (
                    reactdb_storage::TidWord::committed(3, 1),
                    vec![record(20.0)],
                ),
                (
                    reactdb_storage::TidWord::committed(4, 1),
                    vec![record(30.0)],
                ),
            ],
            2,
        );
        assert_eq!(
            db.invoke("acct-0", "balance", vec![]).unwrap(),
            Value::Float(30.0),
            "follower serves the applied snapshot"
        );
        // Promotion is a restart: the follower's own log holds everything
        // it applied, and recovery boots a writable primary from it.
        db.wal_sync().unwrap();
        db.simulate_crash();
        let db = ReactDB::recover(bank_spec(), config).unwrap();
        assert!(!db.is_read_only());
        db.invoke("acct-0", "deposit", vec![Value::Float(1.0)])
            .unwrap();
        assert_eq!(
            db.invoke("acct-0", "balance", vec![]).unwrap(),
            Value::Float(31.0)
        );
        let table = db.table("acct-0", "balance").unwrap();
        let tid = table.get(&Key::Int(0)).unwrap().tid();
        assert!(
            tid.epoch() > 4,
            "post-recovery commits land beyond every applied epoch, got {}",
            tid.epoch()
        );
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_is_idempotent_and_drops_cleanly() {
        let mut db = boot(DeploymentConfig::shared_everything_with_affinity(2));
        db.invoke("acct-0", "deposit", vec![Value::Float(1.0)])
            .unwrap();
        db.shutdown();
        db.shutdown();
        // Submitting after shutdown reports a runtime error rather than
        // hanging.
        let err = db
            .invoke("acct-0", "deposit", vec![Value::Float(1.0)])
            .unwrap_err();
        assert!(matches!(err, TxnError::Runtime(_)));
    }
}
