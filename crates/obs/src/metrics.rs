//! The metrics registry: every counter and gauge the instance exports, the
//! phase histograms, busy-time accounting and the trace buffer. Counting is
//! unconditional; phases, busy time and traces sit behind one tracing
//! toggle.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;
use reactdb_common::TracingConfig;

use crate::abort::AbortReason;
use crate::histogram::{Histogram, ShardedHistogram};
use crate::snapshot::{Counter, Gauge, HistogramSummary, MetricsSnapshot};
use crate::tracer::{TraceBuffer, TraceEvent, TraceKind};
/// A traced phase of a transaction's life (or of a background daemon's
/// work). The first seven are the commit-path phases the export surface
/// guarantees: where a root transaction's latency goes, end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Root procedure execution: `run_subtxn` from dequeue to the commit
    /// decision (includes sub-transaction fan-out and cooperative waits).
    Execute,
    /// Silo phase 1: sorting and acquiring write locks.
    Lock,
    /// Membership fence: bumping node versions whose membership the commit
    /// changes (phantom protection).
    Fence,
    /// Silo phase 3: read-set and node-set validation.
    Validate,
    /// Silo phase 4: TID generation and write installation.
    Write,
    /// Durability hook: rendering redo records and appending them to the
    /// log sink.
    Log,
    /// Client durable acknowledgement: `wait_durable` blocking until the
    /// WAL's durable epoch covers the commit epoch.
    DurableAck,
    /// Group commit: fencing the epoch and draining in-flight commits
    /// through the gate (sync queue wait).
    WalSyncWait,
    /// Group commit: flushing and fsyncing every log writer.
    WalFsync,
    /// One checkpointer chunk: snapshotting a key-range page and writing
    /// its frames.
    CheckpointChunk,
    /// One parallel-capture part file: a checkpoint writer thread's whole
    /// span from first chunk to the part fsync.
    CkptPartWrite,
    /// Recovery replay: applying checkpoint rows and the log tail to the
    /// tables (one span per replay worker).
    RecoveryReplay,
    /// Client session wait: `submit` to resolution (queueing + execute +
    /// commit), as observed by the client.
    SessionWait,
    /// Wire server: parsing one request frame off a connection's receive
    /// buffer (length/checksum verification plus body decode).
    NetDecode,
    /// Wire server: turning a decoded request into engine work — session
    /// submission for invokes, snapshot rendering for metrics requests.
    NetDispatch,
    /// Wire server: encoding a completed request's response frame and
    /// handing it to the connection's send buffer.
    NetReply,
    /// Replication primary: one shipping-cursor poll plus encoding and
    /// writing the resulting replication frames to a follower.
    NetReplicate,
    /// Replication follower: applying one shipped epoch's redo batches to
    /// the local tables (including the local re-log and sync).
    FollowerApply,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 18;

    /// Every phase, in display order.
    pub const ALL: [Phase; Phase::COUNT] = [
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
        Phase::CkptPartWrite,
        Phase::RecoveryReplay,
        Phase::SessionWait,
        Phase::NetDecode,
        Phase::NetDispatch,
        Phase::NetReply,
        Phase::NetReplicate,
        Phase::FollowerApply,
    ];

    /// The five sections of `Coordinator::commit` a [`CommitProbe`] laps.
    pub const COMMIT: [Phase; 5] = [
        Phase::Lock,
        Phase::Fence,
        Phase::Validate,
        Phase::Write,
        Phase::Log,
    ];

    /// Stable snake_case name used in metric names and labels.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Execute => "execute",
            Phase::Lock => "lock",
            Phase::Fence => "fence",
            Phase::Validate => "validate",
            Phase::Write => "write",
            Phase::Log => "log",
            Phase::DurableAck => "durable_ack",
            Phase::WalSyncWait => "wal_sync_wait",
            Phase::WalFsync => "wal_fsync",
            Phase::CheckpointChunk => "checkpoint_chunk",
            Phase::CkptPartWrite => "ckpt_part_write",
            Phase::RecoveryReplay => "recovery_replay",
            Phase::SessionWait => "session_wait",
            Phase::NetDecode => "net_decode",
            Phase::NetDispatch => "net_dispatch",
            Phase::NetReply => "net_reply",
            Phase::NetReplicate => "net_replicate",
            Phase::FollowerApply => "follower_apply",
        }
    }
}

/// Something the instance counts. Declared grouped by the threads that
/// write it — engine (executors and client sessions), then WAL (commit-path
/// appends, group commit, checkpointer), then the wire server's I/O threads
/// — so each group gets cache lines of its own in [`Metrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Count {
    /// Root transactions that committed.
    TxnCommitted,
    /// Transactional scan operations (range scans, full scans, secondary
    /// lookups), committed or aborted.
    ScanOps,
    /// Index entries those scans walked, visible or not. Against
    /// `ScanRowsReturned` it says what a returned row costs.
    ScanSlotsVisited,
    /// Rows those scans returned.
    ScanRowsReturned,
    /// Sub-transactions dispatched to another container's executor.
    SubTxnsDispatched,
    /// Sub-transactions executed synchronously on the calling executor.
    SubTxnsInlined,
    /// Client handles that resolved with a commit.
    ClientCommitted,
    /// Client handles that resolved with an error.
    ClientAborted,
    /// Waits on a client handle that hit their timeout.
    ClientTimeouts,
    /// Deepest pipelining observed: the high-water mark of `HandlesInFlight`.
    HandlesInFlightHwm,
    /// Client handles submitted and not yet resolved (gauge).
    HandlesInFlight,
    /// Log-tail transactions replayed by crash recovery.
    RecoveredTxns,
    /// Rows loaded from the newest complete checkpoint by crash recovery.
    RecoveredCheckpointRows,
    /// Workers the partitioned recovery replay fanned out to.
    RecoveryReplayWorkers,
    /// Bytes of redo frames appended to the write-ahead log.
    LogBytes,
    /// Redo records appended to the write-ahead log.
    LogRecords,
    /// Group commits (flush + fsync + durable-epoch advance) performed.
    LogSyncs,
    /// Group commits that failed with an I/O error.
    LogSyncFailures,
    /// Durable-acknowledgement waits that had to block on a group commit.
    DurableWaits,
    /// Checkpoints completed.
    CheckpointsTaken,
    /// Bytes of checkpoint data files written.
    CheckpointBytes,
    /// Checkpoint attempts that failed (the previous one stays in effect).
    CheckpointFailures,
    /// Log-segment bytes reclaimed by checkpoint truncation.
    LogTruncatedBytes,
    /// Log segments deleted by checkpoint truncation.
    LogTruncatedSegments,
    /// Wire connections accepted.
    NetConnectionsAccepted,
    /// Wire connections refused at the handshake.
    NetConnectionsRejected,
    /// Wire connections killed for a malformed frame or body.
    NetConnectionsKilledMalformed,
    /// Wire connections killed for a read or write stall.
    NetConnectionsKilledTimeout,
    /// Wire requests dispatched (all kinds).
    NetRequests,
    /// Wire responses written (all kinds).
    NetResponses,
    /// Returns from the I/O workers' readiness wait: an idle server whose
    /// count climbs is polling instead of sleeping.
    NetWorkerWakeups,
    /// Wire connections open (gauge).
    NetConnectionsActive,
    /// Invokes submitted over the wire and not yet replied to (gauge).
    NetRequestsInFlight,
}

impl Count {
    /// Number of counts.
    pub const COUNT: usize = 33;

    /// Every count, in declaration (and export) order.
    pub const ALL: [Count; Count::COUNT] = [
        Count::TxnCommitted,
        Count::ScanOps,
        Count::ScanSlotsVisited,
        Count::ScanRowsReturned,
        Count::SubTxnsDispatched,
        Count::SubTxnsInlined,
        Count::ClientCommitted,
        Count::ClientAborted,
        Count::ClientTimeouts,
        Count::HandlesInFlightHwm,
        Count::HandlesInFlight,
        Count::RecoveredTxns,
        Count::RecoveredCheckpointRows,
        Count::RecoveryReplayWorkers,
        Count::LogBytes,
        Count::LogRecords,
        Count::LogSyncs,
        Count::LogSyncFailures,
        Count::DurableWaits,
        Count::CheckpointsTaken,
        Count::CheckpointBytes,
        Count::CheckpointFailures,
        Count::LogTruncatedBytes,
        Count::LogTruncatedSegments,
        Count::NetConnectionsAccepted,
        Count::NetConnectionsRejected,
        Count::NetConnectionsKilledMalformed,
        Count::NetConnectionsKilledTimeout,
        Count::NetRequests,
        Count::NetResponses,
        Count::NetWorkerWakeups,
        Count::NetConnectionsActive,
        Count::NetRequestsInFlight,
    ];

    /// The first WAL-written count; everything before it is engine-written.
    const FIRST_WAL: usize = Count::LogBytes as usize;
    /// The first net-written count; everything from it on is net-written.
    const FIRST_NET: usize = Count::NetConnectionsAccepted as usize;

    /// The exported metric name, label block included.
    pub fn name(self) -> &'static str {
        match self {
            Count::TxnCommitted => "txn_committed",
            Count::ScanOps => "scan_ops",
            Count::ScanSlotsVisited => "scan_slots_visited",
            Count::ScanRowsReturned => "scan_rows_returned",
            Count::SubTxnsDispatched => "sub_txns_dispatched",
            Count::SubTxnsInlined => "sub_txns_inlined",
            Count::ClientCommitted => "client_committed",
            Count::ClientAborted => "client_aborted",
            Count::ClientTimeouts => "client_timeouts",
            Count::HandlesInFlightHwm => "handles_in_flight_hwm",
            Count::HandlesInFlight => "handles_in_flight",
            Count::RecoveredTxns => "recovered_txns",
            Count::RecoveredCheckpointRows => "recovered_checkpoint_rows",
            Count::RecoveryReplayWorkers => "recovery_replay_workers",
            Count::LogBytes => "log_bytes",
            Count::LogRecords => "log_records",
            Count::LogSyncs => "log_syncs",
            Count::LogSyncFailures => "log_sync_failures",
            Count::DurableWaits => "durable_waits",
            Count::CheckpointsTaken => "checkpoints_taken",
            Count::CheckpointBytes => "checkpoint_bytes",
            Count::CheckpointFailures => "checkpoint_failures",
            Count::LogTruncatedBytes => "log_truncated_bytes",
            Count::LogTruncatedSegments => "log_truncated_segments",
            Count::NetConnectionsAccepted => "net_connections_accepted",
            Count::NetConnectionsRejected => "net_connections_rejected",
            Count::NetConnectionsKilledMalformed => "net_connections_killed{reason=\"malformed\"}",
            Count::NetConnectionsKilledTimeout => "net_connections_killed{reason=\"timeout\"}",
            Count::NetRequests => "net_requests",
            Count::NetResponses => "net_responses",
            Count::NetWorkerWakeups => "net_worker_wakeups",
            Count::NetConnectionsActive => "net_connections_active",
            Count::NetRequestsInFlight => "net_requests_in_flight",
        }
    }

    /// True for the values that go up and down (exported as gauges); the
    /// rest only grow (exported as counters).
    pub fn is_gauge(self) -> bool {
        matches!(
            self,
            Count::HandlesInFlight | Count::NetConnectionsActive | Count::NetRequestsInFlight
        )
    }
}

/// Committed root transactions slower than this (execute + commit, in
/// microseconds) additionally emit a slow-transaction trace event with a
/// per-phase breakdown.
pub const SLOW_TXN_THRESHOLD_US: u64 = 1_000;

/// Trace-event slots per ring (one ring per executor plus one shared ring
/// for daemons and client threads).
pub const TRACE_RING_CAPACITY: usize = 1024;

/// Keeps its contents on cache lines of their own, so threads writing one
/// group of counts do not invalidate another group's lines.
#[repr(align(64))]
struct Padded<T>(T);

fn slots<const N: usize>() -> Padded<[AtomicU64; N]> {
    Padded(std::array::from_fn(|_| AtomicU64::new(0)))
}

/// The observability registry one database instance owns, shared with its
/// WAL, its checkpointer and the wire server in front of it. It is the only
/// place a count is stored. With tracing disabled the phase, busy-time and
/// trace entry points reduce to a branch on a `bool` — no clock reads.
pub struct Metrics {
    enabled: bool,
    birth: Instant,
    phases: Vec<ShardedHistogram>,
    busy_ns: Vec<AtomicU64>,
    tracer: TraceBuffer,
    engine: Padded<[AtomicU64; Count::FIRST_WAL]>,
    /// Aborted root transactions, one slot per [`AbortReason`].
    aborts: Padded<[AtomicU64; AbortReason::ALL.len()]>,
    wal: Padded<[AtomicU64; Count::FIRST_NET - Count::FIRST_WAL]>,
    net: Padded<[AtomicU64; Count::COUNT - Count::FIRST_NET]>,
    /// Redo bytes and records logged per relation name. Locked once per
    /// redo record, so kept off the lines the hot paths read.
    table_log: Padded<Mutex<BTreeMap<String, [u64; 2]>>>,
}

impl Metrics {
    /// Creates the registry for `executors` executors under `config`.
    pub fn new(executors: usize, config: &TracingConfig) -> Self {
        let executors = executors.max(1);
        Self {
            enabled: config.enabled,
            birth: Instant::now(),
            phases: Phase::ALL
                .iter()
                .map(|_| ShardedHistogram::new(executors))
                .collect(),
            busy_ns: (0..executors).map(|_| AtomicU64::new(0)).collect(),
            tracer: TraceBuffer::new(executors, TRACE_RING_CAPACITY),
            engine: slots(),
            aborts: slots(),
            wal: slots(),
            net: slots(),
            table_log: Padded(Mutex::new(BTreeMap::new())),
        }
    }

    fn slot(&self, count: Count) -> &AtomicU64 {
        let i = count as usize;
        if i < Count::FIRST_WAL {
            &self.engine.0[i]
        } else if i < Count::FIRST_NET {
            &self.wal.0[i - Count::FIRST_WAL]
        } else {
            &self.net.0[i - Count::FIRST_NET]
        }
    }

    /// Adds `n` to `count` and returns the new value.
    pub fn add(&self, count: Count, n: u64) -> u64 {
        self.slot(count).fetch_add(n, Ordering::Relaxed) + n
    }

    /// Subtracts `n` from a gauge `count`.
    pub fn sub(&self, count: Count, n: u64) {
        self.slot(count).fetch_sub(n, Ordering::Relaxed);
    }

    /// Raises `count` to at least `n` (high-water marks).
    pub fn max(&self, count: Count, n: u64) {
        self.slot(count).fetch_max(n, Ordering::Relaxed);
    }

    /// The current value of `count`.
    pub fn get(&self, count: Count) -> u64 {
        self.slot(count).load(Ordering::Relaxed)
    }

    /// Counts one aborted root transaction under its classified reason.
    pub fn record_abort(&self, reason: AbortReason) {
        self.aborts.0[reason as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Root transactions aborted for `reason`.
    pub fn abort_count(&self, reason: AbortReason) -> u64 {
        self.aborts.0[reason as usize].load(Ordering::Relaxed)
    }

    /// Attributes `bytes` of one redo record to its relation.
    pub fn add_table_log(&self, relation: &str, bytes: u64) {
        let mut tables = self.table_log.0.lock();
        match tables.get_mut(relation) {
            Some([b, records]) => {
                *b += bytes;
                *records += 1;
            }
            None => {
                tables.insert(relation.to_owned(), [bytes, 1]);
            }
        }
    }

    /// Whether tracing is enabled.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the registry was created (the trace timebase).
    pub fn now_ns(&self) -> u64 {
        self.birth.elapsed().as_nanos() as u64
    }

    /// The slow-transaction threshold in nanoseconds.
    pub fn slow_txn_ns(&self) -> u64 {
        SLOW_TXN_THRESHOLD_US * 1_000
    }

    /// Starts a span: `Some(now)` when tracing is on, `None` (no clock
    /// read) when off.
    pub fn clock(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Records `ns` into `phase`'s histogram, sharded by `shard`.
    pub fn record_phase(&self, phase: Phase, shard: usize, ns: u64) {
        if self.enabled {
            self.phases[phase as usize].record(shard, ns);
        }
    }

    /// Records the span from `since` (a [`Metrics::clock`] result) into
    /// `phase` and returns its length in nanoseconds.
    pub fn record_elapsed(&self, phase: Phase, shard: usize, since: Instant) -> u64 {
        let ns = since.elapsed().as_nanos() as u64;
        self.record_phase(phase, shard, ns);
        ns
    }

    /// A per-commit probe for the coordinator's phase laps, or `None` when
    /// tracing is off (the coordinator then takes no timestamps at all).
    pub fn commit_probe(&self, shard: usize) -> Option<CommitProbe<'_>> {
        self.enabled.then(|| CommitProbe {
            metrics: self,
            shard,
            last: Instant::now(),
            durs: [0; Phase::COMMIT.len()],
        })
    }

    /// Adds busy time to one executor's utilization accounting.
    pub fn add_busy(&self, executor: usize, ns: u64) {
        if self.enabled {
            self.busy_ns[executor % self.busy_ns.len()].fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Busy nanoseconds accumulated by one executor's workers.
    pub fn busy_ns(&self, executor: usize) -> u64 {
        self.busy_ns[executor % self.busy_ns.len()].load(Ordering::Relaxed)
    }

    /// Records a trace event (no-op when tracing is off). `executor`
    /// selects the ring; `usize::MAX` is the shared non-executor ring.
    pub fn trace(&self, executor: usize, txn: u64, kind: TraceKind, dur_ns: u64) {
        if self.enabled {
            self.tracer
                .record(executor, txn, kind, self.now_ns(), dur_ns);
        }
    }

    /// Drains the trace rings (most recent events, globally ordered).
    pub fn drain_trace(&self) -> Vec<TraceEvent> {
        self.tracer.drain()
    }

    /// Point-in-time merge of one phase's shards.
    pub fn phase_histogram(&self, phase: Phase) -> Histogram {
        self.phases[phase as usize].merged()
    }

    /// Samples recorded for one phase (across shards, without merging).
    pub fn phase_count(&self, phase: Phase) -> u64 {
        self.phases[phase as usize].count()
    }

    /// Everything the registry holds: each [`Count`] as a counter or a
    /// gauge, the per-reason aborts, the per-relation log counters and one
    /// histogram per [`Phase`]. Owners append what only they can compute
    /// (queue depths, the durable epoch, replication progress).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        for count in Count::ALL {
            let (name, value) = (count.name().to_owned(), self.get(count));
            if count.is_gauge() {
                gauges.push(Gauge {
                    name,
                    value: value as f64,
                });
            } else {
                counters.push(Counter { name, value });
            }
        }
        for reason in AbortReason::ALL {
            counters.push(Counter {
                name: format!("txn_aborts{{reason=\"{}\"}}", reason.name()),
                value: self.abort_count(reason),
            });
        }
        for (relation, [bytes, records]) in self.table_log.0.lock().iter() {
            for (metric, value) in [("table_log_bytes", bytes), ("table_log_records", records)] {
                counters.push(Counter {
                    name: format!("{metric}{{relation=\"{relation}\"}}"),
                    value: *value,
                });
            }
        }
        let histograms = Phase::ALL
            .iter()
            .map(|&phase| {
                HistogramSummary::of(
                    format!("phase_{}_ns", phase.name()),
                    &self.phase_histogram(phase),
                )
            })
            .collect();
        MetricsSnapshot {
            uptime_us: self.now_ns() / 1_000,
            counters,
            gauges,
            histograms,
        }
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics")
            .field("enabled", &self.enabled)
            .field("executors", &self.busy_ns.len())
            .field("traced", &self.tracer.recorded())
            .finish()
    }
}

/// Phase-lap stopwatch for one commit, handed by the engine into
/// `Coordinator::commit_observed`. Each [`CommitProbe::lap`] records the
/// span since the previous lap into the phase's histogram and remembers it
/// for slow-transaction capture. Only ever constructed when tracing is on.
pub struct CommitProbe<'m> {
    metrics: &'m Metrics,
    shard: usize,
    last: Instant,
    durs: [u64; Phase::COMMIT.len()],
}

impl CommitProbe<'_> {
    /// Restarts the stopwatch; the coordinator calls this when the commit
    /// protocol actually begins (construction time may precede it).
    pub fn begin(&mut self) {
        self.last = Instant::now();
    }

    /// Ends the current phase span, recording it under `phase` (one of
    /// [`Phase::COMMIT`]) and starting the next span.
    pub fn lap(&mut self, phase: Phase) {
        let now = Instant::now();
        let ns = now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        self.metrics.record_phase(phase, self.shard, ns);
        if let Some(slot) = Phase::COMMIT.iter().position(|p| *p == phase) {
            self.durs[slot] = ns;
        }
    }

    /// The recorded `(phase, ns)` laps, for slow-transaction capture.
    pub fn phase_durs(&self) -> [(Phase, u64); Phase::COMMIT.len()] {
        let mut out = [(Phase::Lock, 0u64); Phase::COMMIT.len()];
        for (i, phase) in Phase::COMMIT.iter().enumerate() {
            out[i] = (*phase, self.durs[i]);
        }
        out
    }

    /// Total nanoseconds across the recorded laps.
    pub fn total_ns(&self) -> u64 {
        self.durs.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_traces_nothing_but_still_counts() {
        let m = Metrics::new(1, &TracingConfig::off());
        assert!(!m.enabled());
        assert!(m.clock().is_none());
        assert!(m.commit_probe(0).is_none());
        m.record_phase(Phase::Execute, 0, 123);
        m.trace(0, 1, TraceKind::Commit, 5);
        m.add_busy(0, 10);
        assert_eq!(m.phase_count(Phase::Execute), 0);
        assert_eq!(m.busy_ns(0), 0);
        assert!(m.drain_trace().is_empty());
        m.add(Count::TxnCommitted, 2);
        m.record_abort(AbortReason::Phantom);
        assert_eq!(m.get(Count::TxnCommitted), 2);
        assert_eq!(m.abort_count(AbortReason::Phantom), 1);
    }

    #[test]
    fn every_count_has_its_own_slot_and_one_exported_series() {
        let m = Metrics::new(1, &TracingConfig::off());
        for (i, count) in Count::ALL.into_iter().enumerate() {
            assert_eq!(count as usize, i, "ALL is in declaration order");
            m.add(count, i as u64 + 1);
        }
        m.sub(Count::HandlesInFlight, 1);
        m.max(Count::HandlesInFlightHwm, 3);
        m.max(Count::HandlesInFlightHwm, 1_000);
        let snap = m.snapshot();
        for (i, count) in Count::ALL.into_iter().enumerate() {
            let expected = match count {
                Count::HandlesInFlight => i as u64,
                Count::HandlesInFlightHwm => 1_000,
                _ => i as u64 + 1,
            };
            let exported = if count.is_gauge() {
                snap.gauge(count.name()).map(|v| v as u64)
            } else {
                snap.counter(count.name())
            };
            assert_eq!(exported, Some(expected), "{}", count.name());
        }
        let mut names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        names.extend(snap.gauges.iter().map(|g| g.name.as_str()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name exported twice");
        assert_eq!(snap.histograms.len(), Phase::COUNT);
    }

    #[test]
    fn table_log_series_are_keyed_by_relation_only() {
        let m = Metrics::new(1, &TracingConfig::off());
        m.add_table_log("savings", 100);
        m.add_table_log("savings", 50);
        m.add_table_log("checking", 400);
        let snap = m.snapshot();
        assert_eq!(
            snap.counter("table_log_bytes{relation=\"savings\"}"),
            Some(150)
        );
        assert_eq!(
            snap.counter("table_log_records{relation=\"savings\"}"),
            Some(2)
        );
        assert_eq!(
            snap.counter("table_log_bytes{relation=\"checking\"}"),
            Some(400)
        );
        let series = snap
            .counters
            .iter()
            .filter(|c| c.name.starts_with("table_log_"));
        assert_eq!(series.count(), 4);
    }

    #[test]
    fn enabled_registry_records_phases_and_events() {
        let m = Metrics::new(2, &TracingConfig::default());
        m.record_phase(Phase::Lock, 0, 100);
        m.record_phase(Phase::Lock, 1, 300);
        assert_eq!(m.phase_count(Phase::Lock), 2);
        let h = m.phase_histogram(Phase::Lock);
        assert_eq!(h.count(), 2);
        assert!(h.percentile(1.0) >= 300);
        m.trace(1, 42, TraceKind::Commit, 400);
        let events = m.drain_trace();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].txn, 42);
        m.add_busy(1, 500);
        assert_eq!(m.busy_ns(1), 500);
    }

    #[test]
    fn commit_probe_laps_into_the_commit_phases() {
        let m = Metrics::new(1, &TracingConfig::default());
        let mut probe = m.commit_probe(0).unwrap();
        probe.begin();
        for phase in Phase::COMMIT {
            probe.lap(phase);
        }
        for phase in Phase::COMMIT {
            assert_eq!(m.phase_count(phase), 1, "{} not lapped", phase.name());
        }
        assert_eq!(m.phase_count(Phase::Execute), 0);
        let durs = probe.phase_durs();
        assert_eq!(durs.len(), 5);
        assert_eq!(durs[0].0, Phase::Lock);
        assert_eq!(probe.total_ns(), durs.iter().map(|(_, ns)| ns).sum());
    }

    #[test]
    fn slow_threshold_converts_to_nanoseconds() {
        let m = Metrics::new(1, &TracingConfig::default());
        assert_eq!(m.slow_txn_ns(), 1_000_000);
    }
}
