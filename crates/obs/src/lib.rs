//! Observability for ReactDB-rs: latency histograms, per-phase transaction
//! tracing, and a metrics export surface.
//!
//! The paper's central claim is that *deployment configuration* changes
//! performance without changing correctness (§3.3) — which is only a usable
//! property if the engine can show where a transaction's time goes under a
//! given deployment. This crate is that instrumentation substrate:
//!
//! * [`Histogram`] — a mergeable, HdrHistogram-style log-bucketed latency
//!   histogram over `u64` nanoseconds: power-of-two buckets subdivided into
//!   16 linear sub-buckets (`record` is two atomic adds plus a `fetch_max`,
//!   lock-free; relative quantile error is bounded by 1/16). Per-executor
//!   shards ([`ShardedHistogram`]) keep the hot path contention-free and are
//!   merged on read.
//! * [`Phase`] — the taxonomy of traced phases: the root-procedure execute
//!   span, the five sections of the Silo commit protocol (lock, membership
//!   fence, validate, write install, log append), the durable
//!   acknowledgement, WAL group-commit internals (sync queue wait vs.
//!   fsync), the checkpointer's chunk walk, the client session wait, and
//!   the wire server's request lifecycle (frame decode, dispatch, reply).
//! * [`TraceBuffer`] / [`TraceEvent`] — per-executor fixed-capacity
//!   ring-buffer tracing (overwrite-oldest, zero allocation on the hot
//!   path) of commits, slow transactions above a configurable threshold,
//!   aborts tagged with the full [`AbortReason`] taxonomy, group commits
//!   and checkpoint chunks — drainable as structured events.
//! * [`Metrics`] — the registry an engine instance owns and the only place
//!   a count is stored: one slot per [`Count`] (engine, WAL and wire-server
//!   counts each on cache lines of their own), the per-[`AbortReason`]
//!   aborts and the per-relation log bytes, all counted unconditionally;
//!   plus phase histograms, per-executor busy time and the trace buffer,
//!   which sit behind one `TracingConfig` toggle (`TracingConfig::off()`
//!   compiles those down to a branch on a `bool`).
//! * [`MetricsSnapshot`] — the point-in-time export surface
//!   ([`Metrics::snapshot`], extended by `ReactDB::metrics()` and the wire
//!   server): counters, gauges and histogram summaries with the one
//!   export format, [`MetricsSnapshot::to_prometheus_text`], and a
//!   [`MetricsSnapshot::delta`] diff helper for rate computation.
//!
//! Dependency-wise this crate sits directly above `reactdb-common`:
//! `reactdb-txn`, `reactdb-wal` and `reactdb-engine` all record into it.

pub mod abort;
pub mod histogram;
pub mod metrics;
pub mod snapshot;
pub mod tracer;

pub use abort::AbortReason;
pub use histogram::{Histogram, ShardedHistogram};
pub use metrics::{CommitProbe, Count, Metrics, Phase, SLOW_TXN_THRESHOLD_US, TRACE_RING_CAPACITY};
pub use snapshot::{Counter, Gauge, HistogramSummary, MetricsSnapshot};
pub use tracer::{TraceBuffer, TraceEvent, TraceKind};
