//! Deployment configuration: the paper's "configuration file".
//!
//! ReactDB decomposes and virtualizes database architecture into
//! *containers* (isolated memory regions with their own concurrency control)
//! and *transaction executors* (compute resources that own or share
//! reactors). §3.3 shows that by editing only this configuration — never the
//! application code — an infrastructure engineer can deploy the same reactor
//! database as a shared-everything engine, an affinity-based
//! shared-everything engine, or a shared-nothing engine.
//!
//! [`DeploymentConfig`] is that configuration: a plain Rust value built
//! with the constructors and `with_*` builders below (`reactdb-server`
//! builds it from its flags).

use std::path::Path;

use crate::ids::{ContainerId, ExecutorId};

/// How a transaction router picks the executor that will run a root
/// transaction (§3.1, "transaction routers").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterPolicy {
    /// Load-balance root transactions over the container's executors in
    /// round-robin order, ignoring which reactor they target (strategy S1).
    RoundRobin,
    /// Route every transaction for a given reactor to the same executor
    /// (strategies S2 and S3), maximising memory-access affinity.
    Affinity,
}

/// Configuration of one transaction executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// Identifier of the executor, unique across the deployment.
    pub id: ExecutorId,
    /// Container this executor belongs to.
    pub container: ContainerId,
    /// Multi-programming level: how many (sub-)transactions the executor may
    /// process concurrently (§3.2.3). Shared-everything-with-affinity runs
    /// with an MPL of 1; asynchronous shared-nothing deployments need a
    /// higher MPL so that an executor blocked on a remote future can keep
    /// draining its request queue.
    pub mpl: usize,
}

/// The three deployment strategies evaluated in the paper (§3.3), plus a
/// fully custom mapping for other flexible deployments ("similar to [44]").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeploymentStrategy {
    /// S1: a single container; every executor can run transactions on behalf
    /// of any reactor; round-robin routing.
    SharedEverythingWithoutAffinity {
        /// Number of transaction executors in the single container.
        executors: usize,
    },
    /// S2: a single container; an affinity router sends all transactions of a
    /// reactor to the same executor; sub-transactions are inlined (no
    /// migration of control).
    SharedEverythingWithAffinity {
        /// Number of transaction executors in the single container.
        executors: usize,
    },
    /// S3: as many containers as executors; every reactor is mapped to
    /// exactly one executor; cross-container sub-transactions migrate
    /// control to the owning executor.
    SharedNothing {
        /// Number of containers (= executors).
        executors: usize,
    },
    /// Arbitrary explicit mapping: `container_of[r]` gives the container of
    /// reactor `r` (by dense reactor id) and `executors` lists the executor
    /// configuration. Used by tests and by deployments that group several
    /// reactors per container (e.g. the Smallbank deployment with 1000
    /// reactors per container, §4.1.3).
    Custom {
        /// Router policy applied inside each container.
        router: RouterPolicy,
        /// Executor configuration (ids must be dense starting at 0).
        executors: Vec<ExecutorConfig>,
        /// For every reactor (dense id order), the container hosting it.
        container_of: Vec<ContainerId>,
    },
}

/// Durability section of a [`DeploymentConfig`]. ReactDB reuses Silo's
/// epoch-based group commit: redo records are buffered per executor and the
/// log is synchronized on epoch boundaries, so the logging fast path never
/// issues a synchronous disk write. Recovery replays exactly the
/// transactions of fully synced epochs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Directory holding the log segments and the durable-epoch marker.
    /// Durability is on exactly when this is set; `None` makes every commit
    /// volatile.
    pub log_dir: Option<String>,
    /// Longest gap in milliseconds between group commits while epochs move;
    /// a durable waiter's demand runs one at once instead. `0`: no timed
    /// group commits, only demanded, explicit and shutdown ones.
    pub group_commit_interval_ms: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self {
            log_dir: None,
            group_commit_interval_ms: 10,
        }
    }
}

impl DurabilityConfig {
    /// Durability disabled (volatile commits).
    pub fn off() -> Self {
        Self::default()
    }

    /// Epoch-based group commit into `log_dir` with the default 10 ms
    /// interval.
    pub fn epoch_sync(log_dir: impl Into<String>) -> Self {
        Self {
            log_dir: Some(log_dir.into()),
            group_commit_interval_ms: 10,
        }
    }

    /// Sets the group-commit interval (`0` = no timed group commits).
    pub fn with_interval_ms(mut self, ms: u64) -> Self {
        self.group_commit_interval_ms = ms;
        self
    }

    /// True when logging is enabled.
    pub fn is_enabled(&self) -> bool {
        self.log_dir.is_some()
    }

    /// The log directory, when durability is on.
    pub fn log_dir_path(&self) -> Option<&Path> {
        self.log_dir.as_deref().map(Path::new)
    }
}

/// Background-checkpointing section of a [`DeploymentConfig`]. Only
/// meaningful when durability is enabled: a checkpoint bounds recovery time
/// by the snapshot size plus the log tail written since it, instead of the
/// whole log history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Take a background checkpoint every this many epochs. `0` disables the
    /// background checkpointer; checkpoints then happen only on explicit
    /// `ReactDB::checkpoint_now` calls.
    pub interval_epochs: u64,
    /// Keys captured per table read-section during the snapshot walk. Larger
    /// chunks checkpoint faster; smaller chunks bound how long a chunk
    /// collection can delay concurrent commits.
    pub chunk_size: usize,
    /// Size-based trigger: also take a background checkpoint whenever this
    /// many redo-log bytes have been appended since the last completed one,
    /// so log-heavy workloads checkpoint by volume, not wall clock. `0`
    /// disables the size trigger.
    pub max_log_bytes: u64,
    /// Parallel-capture writer threads: the table walk is partitioned
    /// across this many part-file writers. `0` means one per available
    /// core (capped by the table count).
    pub workers: usize,
    /// Recovery replay workers: log records fan out to this many threads
    /// keyed by reactor (same-reactor records stay ordered within one
    /// worker). `0` means one per available core.
    pub replay_workers: usize,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        Self {
            interval_epochs: 0,
            chunk_size: 256,
            max_log_bytes: 0,
            workers: 0,
            replay_workers: 0,
        }
    }
}

impl CheckpointConfig {
    /// Background checkpoints disabled (manual `checkpoint_now` only).
    pub fn manual() -> Self {
        Self::default()
    }

    /// Background checkpoint every `epochs` epochs.
    pub fn every_epochs(epochs: u64) -> Self {
        Self {
            interval_epochs: epochs,
            ..Self::default()
        }
    }

    /// Sets the snapshot chunk size (clamped to at least 1).
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.max(1);
        self
    }

    /// Sets the bytes-logged checkpoint trigger (`0` disables it).
    pub fn with_max_log_bytes(mut self, bytes: u64) -> Self {
        self.max_log_bytes = bytes;
        self
    }

    /// Sets the parallel-capture writer count (`0` = one per core).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the recovery replay-worker count (`0` = one per core).
    pub fn with_replay_workers(mut self, workers: usize) -> Self {
        self.replay_workers = workers;
        self
    }

    /// True when the background checkpoint daemon should run (an epoch
    /// interval or a bytes-logged trigger is configured).
    pub fn is_periodic(&self) -> bool {
        self.interval_epochs > 0 || self.max_log_bytes > 0
    }
}

/// Replication section of a [`DeploymentConfig`]: log-shipping knobs used
/// by the server's replication stream (primary side) and the follower's
/// apply loop. Only meaningful when durability is enabled — the shipped
/// stream *is* the WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationConfig {
    /// Largest file chunk (bytes) shipped per replication frame, well under
    /// the wire protocol's 1 MiB frame cap.
    pub chunk_bytes: usize,
    /// Replication quorum: how many followers must durably apply a commit
    /// epoch before the primary acknowledges it at
    /// `AckLevel::Replicated` — so a replicated ack means "durable on at
    /// least `quorum + 1` nodes". The field is public, so nothing stops a
    /// caller from setting `0`; consumers read it through
    /// [`ReplicationConfig::effective_quorum`], which treats `0` as 1.
    pub quorum: usize,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        Self {
            chunk_bytes: 256 * 1024,
            quorum: 1,
        }
    }
}

impl ReplicationConfig {
    /// Sets the replicated-ack quorum (clamped to at least 1).
    pub fn with_quorum(mut self, quorum: usize) -> Self {
        self.quorum = quorum.max(1);
        self
    }

    /// The quorum consumers must honour: `quorum`, clamped to at least 1
    /// (one follower, the smallest quorum a replicated ack can mean).
    pub fn effective_quorum(&self) -> usize {
        self.quorum.max(1)
    }
}

/// Observability section of a [`DeploymentConfig`]: per-phase latency
/// histograms and ring-buffer event tracing. On by default — the hot-path
/// cost is a clock read and a relaxed atomic add per phase — and reducible
/// to a single branch with [`TracingConfig::off`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracingConfig {
    /// Master switch. When off, no timestamps are taken, no histograms are
    /// recorded and no trace events are buffered.
    pub enabled: bool,
}

impl Default for TracingConfig {
    fn default() -> Self {
        Self { enabled: true }
    }
}

impl TracingConfig {
    /// Tracing disabled: every observability entry point reduces to a
    /// branch on a `bool`.
    pub fn off() -> Self {
        Self { enabled: false }
    }
}

/// A complete deployment: strategy plus knobs shared by all strategies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeploymentConfig {
    /// The architecture strategy.
    pub strategy: DeploymentStrategy,
    /// Default multi-programming level per executor for the non-custom
    /// strategies.
    pub default_mpl: usize,
    /// Durability policy (off by default, matching the paper's in-memory
    /// evaluation).
    pub durability: DurabilityConfig,
    /// Background checkpointing policy (off by default; requires
    /// durability).
    pub checkpoint: CheckpointConfig,
    /// Observability policy (tracing on by default).
    pub tracing: TracingConfig,
    /// Log-shipping replication knobs (defaults are fine for most
    /// deployments; only consulted when a replication stream is running).
    pub replication: ReplicationConfig,
}

impl DeploymentConfig {
    /// Shared-everything deployment without affinity (S1).
    pub fn shared_everything_without_affinity(executors: usize) -> Self {
        Self {
            strategy: DeploymentStrategy::SharedEverythingWithoutAffinity { executors },
            default_mpl: 1,
            durability: DurabilityConfig::default(),
            checkpoint: CheckpointConfig::default(),
            tracing: TracingConfig::default(),
            replication: ReplicationConfig::default(),
        }
    }

    /// Shared-everything deployment with affinity routing (S2).
    pub fn shared_everything_with_affinity(executors: usize) -> Self {
        Self {
            strategy: DeploymentStrategy::SharedEverythingWithAffinity { executors },
            default_mpl: 1,
            durability: DurabilityConfig::default(),
            checkpoint: CheckpointConfig::default(),
            tracing: TracingConfig::default(),
            replication: ReplicationConfig::default(),
        }
    }

    /// Shared-nothing deployment (S3); whether programs run `sync` or `async`
    /// is a property of the application programs, not of the deployment.
    pub fn shared_nothing(executors: usize) -> Self {
        Self {
            strategy: DeploymentStrategy::SharedNothing { executors },
            default_mpl: 4,
            durability: DurabilityConfig::default(),
            checkpoint: CheckpointConfig::default(),
            tracing: TracingConfig::default(),
            replication: ReplicationConfig::default(),
        }
    }

    /// Sets the default multi-programming level.
    pub fn with_mpl(mut self, mpl: usize) -> Self {
        self.default_mpl = mpl.max(1);
        self
    }

    /// Sets the durability policy.
    pub fn with_durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = durability;
        self
    }

    /// Sets the background-checkpointing policy.
    pub fn with_checkpoint(mut self, checkpoint: CheckpointConfig) -> Self {
        self.checkpoint = checkpoint;
        self
    }

    /// Sets the observability policy.
    pub fn with_tracing(mut self, tracing: TracingConfig) -> Self {
        self.tracing = tracing;
        self
    }

    /// Sets the replication knobs.
    pub fn with_replication(mut self, replication: ReplicationConfig) -> Self {
        self.replication = replication;
        self
    }

    /// Number of transaction executors in this deployment.
    pub fn executor_count(&self) -> usize {
        match &self.strategy {
            DeploymentStrategy::SharedEverythingWithoutAffinity { executors }
            | DeploymentStrategy::SharedEverythingWithAffinity { executors }
            | DeploymentStrategy::SharedNothing { executors } => *executors,
            DeploymentStrategy::Custom { executors, .. } => executors.len(),
        }
    }

    /// Number of containers in this deployment.
    pub fn container_count(&self) -> usize {
        match &self.strategy {
            DeploymentStrategy::SharedEverythingWithoutAffinity { .. }
            | DeploymentStrategy::SharedEverythingWithAffinity { .. } => 1,
            DeploymentStrategy::SharedNothing { executors } => *executors,
            DeploymentStrategy::Custom { executors, .. } => executors
                .iter()
                .map(|e| e.container.raw() + 1)
                .max()
                .unwrap_or(0) as usize,
        }
    }

    /// Router policy of this deployment.
    pub fn router_policy(&self) -> RouterPolicy {
        match &self.strategy {
            DeploymentStrategy::SharedEverythingWithoutAffinity { .. } => RouterPolicy::RoundRobin,
            DeploymentStrategy::SharedEverythingWithAffinity { .. }
            | DeploymentStrategy::SharedNothing { .. } => RouterPolicy::Affinity,
            DeploymentStrategy::Custom { router, .. } => *router,
        }
    }

    /// Maps a reactor (by dense id) to the container that hosts it, given the
    /// total number of reactors in the database. Non-custom strategies use
    /// the paper's range/affinity mapping: shared-everything puts everything
    /// in container 0; shared-nothing assigns reactor `r` to container
    /// `r % executors` so that reactors spread evenly.
    pub fn container_of_reactor(&self, reactor_idx: usize, _total_reactors: usize) -> ContainerId {
        match &self.strategy {
            DeploymentStrategy::SharedEverythingWithoutAffinity { .. }
            | DeploymentStrategy::SharedEverythingWithAffinity { .. } => ContainerId(0),
            DeploymentStrategy::SharedNothing { executors } => {
                ContainerId((reactor_idx % executors.max(&1)) as u64)
            }
            DeploymentStrategy::Custom { container_of, .. } => container_of
                .get(reactor_idx)
                .copied()
                .unwrap_or(ContainerId(
                    (reactor_idx % container_of.len().max(1)) as u64,
                )),
        }
    }

    /// Expands the deployment into the per-executor configuration list.
    pub fn executor_configs(&self) -> Vec<ExecutorConfig> {
        match &self.strategy {
            DeploymentStrategy::SharedEverythingWithoutAffinity { executors }
            | DeploymentStrategy::SharedEverythingWithAffinity { executors } => (0..*executors)
                .map(|i| ExecutorConfig {
                    id: ExecutorId(i as u64),
                    container: ContainerId(0),
                    mpl: self.default_mpl,
                })
                .collect(),
            DeploymentStrategy::SharedNothing { executors } => (0..*executors)
                .map(|i| ExecutorConfig {
                    id: ExecutorId(i as u64),
                    container: ContainerId(i as u64),
                    mpl: self.default_mpl,
                })
                .collect(),
            DeploymentStrategy::Custom { executors, .. } => executors.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_shapes() {
        let s1 = DeploymentConfig::shared_everything_without_affinity(4);
        assert_eq!(s1.executor_count(), 4);
        assert_eq!(s1.container_count(), 1);
        assert_eq!(s1.router_policy(), RouterPolicy::RoundRobin);

        let s2 = DeploymentConfig::shared_everything_with_affinity(8);
        assert_eq!(s2.container_count(), 1);
        assert_eq!(s2.router_policy(), RouterPolicy::Affinity);

        let s3 = DeploymentConfig::shared_nothing(8);
        assert_eq!(s3.container_count(), 8);
        assert_eq!(s3.executor_count(), 8);
        assert_eq!(s3.router_policy(), RouterPolicy::Affinity);
    }

    #[test]
    fn reactor_to_container_mapping() {
        let s3 = DeploymentConfig::shared_nothing(4);
        assert_eq!(s3.container_of_reactor(0, 8), ContainerId(0));
        assert_eq!(s3.container_of_reactor(5, 8), ContainerId(1));
        let s2 = DeploymentConfig::shared_everything_with_affinity(4);
        assert_eq!(s2.container_of_reactor(5, 8), ContainerId(0));
    }

    #[test]
    fn executor_configs_are_dense() {
        let cfg = DeploymentConfig::shared_nothing(3).with_mpl(2);
        let execs = cfg.executor_configs();
        assert_eq!(execs.len(), 3);
        assert_eq!(execs[2].id, ExecutorId(2));
        assert_eq!(execs[2].container, ContainerId(2));
        assert_eq!(execs[2].mpl, 2);
    }

    #[test]
    fn checkpoint_config_defaults_and_builders() {
        let off = CheckpointConfig::default();
        assert!(!off.is_periodic());
        assert_eq!(off, CheckpointConfig::manual());
        let periodic = CheckpointConfig::every_epochs(16).with_chunk_size(0);
        assert!(periodic.is_periodic());
        assert_eq!(periodic.interval_epochs, 16);
        assert_eq!(periodic.chunk_size, 1, "chunk size clamps to at least 1");
        let sized = CheckpointConfig::manual().with_max_log_bytes(1 << 20);
        assert!(
            sized.is_periodic(),
            "the bytes-logged trigger alone warrants a daemon"
        );
        let parallel = CheckpointConfig::manual()
            .with_workers(4)
            .with_replay_workers(2);
        assert_eq!(parallel.workers, 4);
        assert_eq!(parallel.replay_workers, 2);
        assert_eq!(
            DeploymentConfig::shared_nothing(2).checkpoint,
            CheckpointConfig::default(),
            "checkpointing is off unless configured"
        );
    }

    #[test]
    fn custom_mapping_is_respected() {
        let cfg = DeploymentConfig {
            strategy: DeploymentStrategy::Custom {
                router: RouterPolicy::Affinity,
                executors: vec![
                    ExecutorConfig {
                        id: ExecutorId(0),
                        container: ContainerId(0),
                        mpl: 1,
                    },
                    ExecutorConfig {
                        id: ExecutorId(1),
                        container: ContainerId(1),
                        mpl: 1,
                    },
                ],
                container_of: vec![ContainerId(0), ContainerId(0), ContainerId(1)],
            },
            default_mpl: 1,
            durability: DurabilityConfig::default(),
            checkpoint: CheckpointConfig::default(),
            tracing: TracingConfig::default(),
            replication: ReplicationConfig::default(),
        };
        assert_eq!(cfg.container_count(), 2);
        assert_eq!(cfg.container_of_reactor(2, 3), ContainerId(1));
        assert_eq!(cfg.container_of_reactor(1, 3), ContainerId(0));
    }

    #[test]
    fn tracing_config_defaults_and_builders() {
        let on = TracingConfig::default();
        assert!(on.enabled);
        let off = TracingConfig::off();
        assert!(!off.enabled);
        let cfg = DeploymentConfig::shared_nothing(2).with_tracing(off);
        assert_eq!(cfg.tracing, off);
        assert_eq!(
            DeploymentConfig::shared_nothing(2).tracing,
            TracingConfig::default(),
            "tracing is on unless configured"
        );
    }

    #[test]
    fn durability_is_on_exactly_when_a_log_dir_is_set() {
        let off = DurabilityConfig::off();
        assert!(!off.is_enabled());
        assert_eq!(off.log_dir_path(), None);
        assert_eq!(DeploymentConfig::shared_nothing(2).durability, off);
        let on = DurabilityConfig::epoch_sync("/tmp/x").with_interval_ms(0);
        assert!(on.is_enabled());
        assert_eq!(on.log_dir_path(), Some(Path::new("/tmp/x")));
        assert_eq!(on.group_commit_interval_ms, 0);
        assert_eq!(
            DurabilityConfig::epoch_sync("/tmp/x").group_commit_interval_ms,
            10
        );
    }

    #[test]
    fn replication_defaults_and_quorum_of_at_least_one() {
        let defaults = ReplicationConfig::default();
        assert_eq!((defaults.chunk_bytes, defaults.quorum), (256 * 1024, 1));
        assert_eq!(DeploymentConfig::shared_nothing(2).replication, defaults);
        let tuned = ReplicationConfig::default().with_quorum(0);
        assert_eq!(tuned.quorum, 1, "builder clamps to at least 1");
        let zero = ReplicationConfig {
            quorum: 0,
            ..ReplicationConfig::default()
        };
        assert_eq!(zero.effective_quorum(), 1, "a zero field is read as 1");
        let two = ReplicationConfig::default().with_quorum(2);
        assert_eq!(two.effective_quorum(), 2);
        let cfg = DeploymentConfig::shared_nothing(2).with_replication(two);
        assert_eq!(cfg.replication, two);
    }

    #[test]
    fn mpl_is_clamped_to_at_least_one() {
        let cfg = DeploymentConfig::shared_nothing(2).with_mpl(0);
        assert_eq!(cfg.default_mpl, 1);
    }
}
