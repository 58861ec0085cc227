//! One pass over one workload: set up (several times, for a steady
//! `setup_s`), run the generator threads through warm-up and the measured
//! windows, read the metrics in-process, check correctness, tear down.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use reactdb_common::ReplicationConfig;
use reactdb_engine::ReactDB;
use reactdb_obs::MetricsSnapshot;
use reactdb_wal::{ShipCursor, ShipEvent};

use crate::driver::{closed_loop, open_loop, RunCtl, Span, ThreadLog, Totals};
use crate::stats::{lower_quartile, median, windows, Sample, Window};
use crate::workloads::{self, Deployed, Workload};

/// Histogram names of the engine's and server's traced phases, as
/// `MetricsSnapshot::histogram` knows them (`phase_<name>_ns`).
pub const PHASES: [&str; 18] = [
    "execute",
    "lock",
    "fence",
    "validate",
    "write",
    "log",
    "durable_ack",
    "wal_sync_wait",
    "wal_fsync",
    "checkpoint_chunk",
    "ckpt_part_write",
    "recovery_replay",
    "session_wait",
    "net_decode",
    "net_dispatch",
    "net_reply",
    "net_replicate",
    "follower_apply",
];

/// The phases a request passes through one after the other between the
/// client's send and the reply: their per-request means should add up to the
/// client's mean latency, and what they leave over is `obs.unexplained_pct`.
/// (`session_wait` spans the others, and the group-commit and checkpoint
/// phases run on daemon threads, once per epoch or chunk.)
const REQUEST_PATH: [&str; 10] = [
    "net_decode",
    "net_dispatch",
    "execute",
    "lock",
    "fence",
    "validate",
    "write",
    "log",
    "durable_ack",
    "net_reply",
];

/// How a pass is timed and where it may write.
#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    pub nproc: usize,
    pub warmup: Duration,
    /// Length of one measurement window.
    pub window: Duration,
    /// Measurement windows in the pass.
    pub windows: usize,
    /// Set-ups to time; the last one is the one that runs.
    pub setups: usize,
    /// Boot with `TracingConfig::default()` and keep the harness's spans.
    pub traced: bool,
    pub out_dir: PathBuf,
}

impl Plan {
    fn measured(&self) -> Duration {
        self.window * self.windows as u32
    }
}

/// What one pass measured, or several passes merged.
#[derive(Debug, Default)]
pub struct Pass {
    /// Seconds each set-up took.
    pub setups: Vec<f64>,
    /// The measurement windows that saw completed requests.
    pub windows: Vec<Window>,
    pub window_s: f64,
    /// Warm-up plus measurement, in seconds.
    pub run_s: f64,
    pub totals: Totals,
    pub first_error: Option<String>,
    /// Mean microseconds per request in each of `PHASES` (traced passes).
    pub phase_us: Vec<f64>,
    pub unexplained_pct: f64,
    pub executor_utilization: f64,
    pub net_requests: u64,
    pub log_bytes: u64,
    pub log_syncs: u64,
    pub wal_fsync_ms: f64,
    pub wal_checkpoints: u64,
    pub wal_checkpoint_ms: f64,
    pub wal_recover_ms: f64,
    pub wal_ship_mb_per_s: f64,
    pub spans: Vec<Span>,
    /// Failed correctness checks; empty means the pass is correct.
    pub problems: Vec<String>,
}

impl Pass {
    fn over_windows(&self, f: impl Fn(&Window) -> f64) -> f64 {
        median(&self.windows.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    }

    /// Committed transactions per second: median over the windows.
    pub fn txn_per_s(&self) -> f64 {
        self.over_windows(|w| w.committed as f64 / self.window_s)
    }

    /// Median over the windows of each window's exact p50, microseconds.
    pub fn p50_us(&self) -> f64 {
        self.over_windows(|w| w.p50_ns as f64 / 1e3)
    }

    /// Lower quartile over the windows of each window's exact p99,
    /// microseconds. Not the median: p99 is where the periodic checkpoint
    /// and the machine's own stalls land, in about four windows of ten, so
    /// the median window flips between a quiet and a disturbed one from run
    /// to run (spread 0.43 measured, against 0.13 for the lower quartile).
    /// Disturbance only ever adds latency, so the lower quartile is the p99
    /// of the undisturbed system, agreed on by a quarter of the windows.
    pub fn p99_us(&self) -> f64 {
        let p99: Vec<f64> = self.windows.iter().map(|w| w.p99_ns as f64 / 1e3).collect();
        lower_quartile(&p99).unwrap_or(0.0)
    }

    pub fn setup_s(&self) -> f64 {
        median(&self.setups).unwrap_or(0.0)
    }

    /// Latency samples inside the measured windows.
    pub fn samples(&self) -> usize {
        self.windows.iter().map(|w| w.samples).sum()
    }

    /// Requests that finished or failed during the whole pass.
    pub fn attempted(&self) -> u64 {
        self.totals.completed() + self.totals.failed
    }

    /// The issue's failure share: (aborted attempts + failed requests +
    /// replies over the latency limit) / attempts.
    pub fn fail_ratio(&self) -> f64 {
        let t = &self.totals;
        ratio(t.cc_aborts + t.failed + t.over_limit, t.attempts)
    }

    pub fn user_abort_ratio(&self) -> f64 {
        ratio(self.totals.user_aborts, self.attempted())
    }

    pub fn over_limit_ratio(&self) -> f64 {
        ratio(
            self.totals.over_limit + self.totals.failed,
            self.attempted(),
        )
    }

    pub fn cc_abort_ratio(&self) -> f64 {
        ratio(self.totals.cc_aborts, self.totals.attempts)
    }

    pub fn gen_late_ratio(&self) -> f64 {
        ratio(self.totals.late_sends, self.totals.sends)
    }

    /// Mean microseconds per completed request of a nanosecond sum.
    pub fn per_request_us(&self, ns: u64) -> f64 {
        ns as f64 / 1e3 / self.totals.completed().max(1) as f64
    }

    pub fn wal_bytes_per_txn(&self) -> f64 {
        ratio(self.log_bytes, self.totals.committed)
    }

    pub fn wal_fsyncs_per_s(&self) -> f64 {
        self.log_syncs as f64 / self.run_s
    }

    /// Merges the segments of one run into one pass: windows and set-ups
    /// side by side, counts added. (Per-pass readings of the traced run,
    /// such as the phase means, are not merged; a traced run has one pass.)
    pub fn merge(segments: Vec<Pass>) -> Pass {
        let mut all = Pass::default();
        for mut seg in segments {
            all.setups.append(&mut seg.setups);
            all.windows.append(&mut seg.windows);
            all.window_s = seg.window_s;
            all.run_s += seg.run_s;
            all.totals.add(&seg.totals);
            all.first_error = all.first_error.or(seg.first_error);
            all.net_requests += seg.net_requests;
            all.log_bytes += seg.log_bytes;
            all.log_syncs += seg.log_syncs;
            all.wal_checkpoints += seg.wal_checkpoints;
            all.problems.append(&mut seg.problems);
        }
        all
    }

    /// The checks that judge a whole run, not one segment of it.
    pub fn judge(&mut self) {
        let t = &self.totals;
        if t.failed > 0 {
            self.problems.push(format!(
                "{} requests failed, first: {}",
                t.failed,
                self.first_error.as_deref().unwrap_or("?")
            ));
        }
        let very_late = ratio(t.very_late_sends, t.sends);
        if very_late > 0.10 {
            self.problems.push(format!(
                "{:.2}% of sends were more than a group-commit period late",
                very_late * 100.0
            ));
        }
    }
}

fn snapshot(d: &Deployed) -> MetricsSnapshot {
    // Read in-process, never through the wire metrics op: with one counter
    // pair per table the reply outgrows the 1 MiB frame cap (see README,
    // "Known issues found").
    match &d.server {
        Some(server) => server.metrics_snapshot(),
        None => d.db.metrics(),
    }
}

fn counter_delta(after: &MetricsSnapshot, before: &MetricsSnapshot, name: &str) -> u64 {
    after
        .counter(name)
        .unwrap_or(0)
        .saturating_sub(before.counter(name).unwrap_or(0))
}

/// Sum (ns) and count a phase histogram gained between two snapshots.
fn phase_delta(after: &MetricsSnapshot, before: &MetricsSnapshot, phase: &str) -> (u64, u64) {
    let name = format!("phase_{phase}_ns");
    let read = |s: &MetricsSnapshot| s.histogram(&name).map_or((0, 0), |h| (h.sum_ns, h.count));
    let (a, b) = (read(after), read(before));
    (a.0.saturating_sub(b.0), a.1.saturating_sub(b.1))
}

fn fresh_log_dir(plan: &Plan, w: &Workload, n: usize) -> Result<Option<PathBuf>, String> {
    if !w.kind.durable() {
        return Ok(None);
    }
    let dir = plan.out_dir.join(format!("wal-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(Some(dir))
}

fn teardown(d: Deployed) -> Result<ReactDB, String> {
    let Deployed {
        db,
        server,
        sessions,
    } = d;
    drop(sessions);
    if let Some(server) = server {
        server.shutdown();
    }
    Arc::try_unwrap(db).map_err(|_| "the database is still shared after shutdown".to_string())
}

/// Runs one pass of `w` under `plan`.
pub fn measure(w: &Workload, plan: &Plan) -> Result<Pass, String> {
    let run_ms = (plan.warmup + plan.measured()).as_millis() as u64;
    let mut setup_s = Vec::with_capacity(plan.setups);
    let mut deployed = None;
    for n in 0..plan.setups {
        if let Some((d, dir, _)) = deployed.take() {
            drop(teardown(d)?);
            remove_dir(dir);
        }
        let dir = fresh_log_dir(plan, w, n)?;
        let config = workloads::config(w.kind, plan.nproc, plan.traced, dir.as_deref(), run_ms);
        let started = Instant::now();
        let d = workloads::deploy(w.kind, plan.nproc, config.clone())?;
        setup_s.push(started.elapsed().as_secs_f64());
        deployed = Some((d, dir, config));
    }
    let (mut d, log_dir, config) = deployed.ok_or("a pass needs at least one set-up")?;

    let before = snapshot(&d);
    let logs = drive(w, plan, std::mem::take(&mut d.sessions));
    let after = snapshot(&d);

    let mut pass = summarise(plan, logs, &before, &after);
    pass.setups = setup_s;
    if !w.kind.over_wire() && pass.net_requests != 0 {
        pass.problems.push(format!(
            "{} net requests on an embedded workload",
            pass.net_requests
        ));
    }
    if !w.kind.durable() && pass.log_bytes != 0 {
        pass.problems
            .push(format!("{} log bytes with durability off", pass.log_bytes));
    }
    if w.kind.durable() && pass.wal_checkpoints < workloads::MIN_CHECKPOINTS_PER_PASS {
        pass.problems.push(format!(
            "{} checkpoints completed during the pass, want at least {}",
            pass.wal_checkpoints,
            workloads::MIN_CHECKPOINTS_PER_PASS
        ));
    }
    if w.kind.durable() {
        let dir = log_dir.as_deref().expect("durable passes have a log dir");
        if let Err(e) = crash_and_recover(d, dir, config, &mut pass) {
            pass.problems.push(e);
        }
    } else {
        drop(teardown(d)?);
    }
    remove_dir(log_dir);
    Ok(pass)
}

fn remove_dir(dir: Option<PathBuf>) {
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Spawns one generator thread per session, lets them run through warm-up
/// and the measured windows, and collects their logs.
fn drive(w: &Workload, plan: &Plan, sessions: Vec<crate::driver::Session>) -> Vec<ThreadLog> {
    let stop = AtomicBool::new(false);
    let threads = sessions.len();
    let run = plan.warmup + plan.measured();
    // Twice the best rate seen on this class of machine, per thread.
    let capacity = (run.as_secs_f64() * 40_000.0) as usize + 1024;
    let ctl = RunCtl {
        start: Instant::now() + Duration::from_millis(50),
        stop: &stop,
        limit: w.limit,
        spans: plan.traced,
        capacity,
    };
    let shared = workloads::Shared::new(plan.nproc);
    std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .into_iter()
            .enumerate()
            .map(|(thread, session)| {
                let mut gen = workloads::generator(w.kind, plan.seed, thread, Arc::clone(&shared));
                let ctl = &ctl;
                let kind = w.kind;
                scope.spawn(move || {
                    std::thread::sleep(ctl.start.saturating_duration_since(Instant::now()));
                    if kind.durable() {
                        open_loop(
                            &session,
                            &mut gen,
                            ctl,
                            thread,
                            threads as u64,
                            workloads::DURABLE_RATE_PER_S,
                        )
                    } else {
                        closed_loop(&session, &mut gen, ctl, thread)
                    }
                })
            })
            .collect();
        std::thread::sleep((ctl.start + run).saturating_duration_since(Instant::now()));
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    })
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn summarise(
    plan: &Plan,
    logs: Vec<ThreadLog>,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
) -> Pass {
    let mut pass = Pass {
        window_s: plan.window.as_secs_f64(),
        run_s: (plan.warmup + plan.measured()).as_secs_f64(),
        ..Pass::default()
    };
    let mut samples: Vec<Sample> = Vec::new();
    for mut log in logs {
        samples.append(&mut log.samples);
        pass.spans.append(&mut log.spans);
        pass.totals.add(&log.totals);
        pass.first_error = pass.first_error.or(log.first_error);
    }
    pass.windows = windows(
        &samples,
        plan.warmup.as_nanos() as u64,
        plan.window.as_nanos() as u64,
        plan.windows,
    );
    if pass.windows.len() < plan.windows {
        pass.problems.push(format!(
            "only {} of {} windows saw a completed request",
            pass.windows.len(),
            plan.windows
        ));
    }

    // Every commit a client saw is a commit the engine counted, and no
    // other: both snapshots were taken with nothing in flight.
    let counted = counter_delta(after, before, "txn_committed");
    if counted != pass.totals.committed {
        pass.problems.push(format!(
            "clients saw {} commits, txn_committed counted {counted}",
            pass.totals.committed
        ));
    }

    let completed = pass.totals.completed().max(1) as f64;
    let phase_us = |phase: &&str| phase_delta(after, before, phase).0 as f64 / 1e3 / completed;
    let mean_latency_us = pass.per_request_us(pass.totals.latency_ns);
    let explained: f64 = REQUEST_PATH.iter().map(phase_us).sum();
    if plan.traced && mean_latency_us > 0.0 {
        pass.unexplained_pct = (1.0 - explained / mean_latency_us).max(0.0) * 100.0;
    }
    pass.phase_us = PHASES.iter().map(phase_us).collect();
    pass.executor_utilization = (0..plan.nproc)
        .filter_map(|i| after.gauge(&format!("executor_utilization{{executor=\"{i}\"}}")))
        .sum::<f64>()
        / plan.nproc as f64;

    pass.net_requests = counter_delta(after, before, "net_requests");
    pass.log_bytes = counter_delta(after, before, "log_bytes");
    pass.log_syncs = counter_delta(after, before, "log_syncs");
    let (fsync_ns, fsyncs) = phase_delta(after, before, "wal_fsync");
    pass.wal_fsync_ms = ratio(fsync_ns, fsyncs) / 1e6;
    pass.wal_checkpoints = counter_delta(after, before, "checkpoints_taken");
    pass
}

/// The durable workload's end: every request was acknowledged durable, so
/// the balances a crash leaves behind must be the balances before it.
fn crash_and_recover(
    d: Deployed,
    dir: &Path,
    config: reactdb_common::DeploymentConfig,
    pass: &mut Pass,
) -> Result<(), String> {
    let digest_before = workloads::balances_digest(&d.db)?;
    teardown(d)?.simulate_crash();

    // Ship the finished log directory the way a follower's feeder would.
    let started = Instant::now();
    let mut cursor = ShipCursor::new(dir, ReplicationConfig::default().chunk_bytes);
    let mut shipped = 0usize;
    loop {
        let events = cursor.poll().map_err(|e| format!("ship poll: {e}"))?;
        if events.is_empty() {
            break;
        }
        for event in events {
            if let ShipEvent::File { bytes, .. } = event {
                shipped += bytes.len();
            }
        }
    }
    pass.wal_ship_mb_per_s = shipped as f64 / 1e6 / started.elapsed().as_secs_f64();

    let started = Instant::now();
    let db = workloads::recover(config)?;
    pass.wal_recover_ms = started.elapsed().as_secs_f64() * 1e3;
    let digest_after = workloads::balances_digest(&db)?;
    if digest_before != digest_after {
        pass.problems.push(format!(
            "balances digest {digest_before:016x} before the crash, {digest_after:016x} after recovery"
        ));
    }

    let started = Instant::now();
    db.checkpoint_now()
        .map_err(|e| format!("final checkpoint: {e}"))?;
    pass.wal_checkpoint_ms = started.elapsed().as_secs_f64() * 1e3;
    Ok(())
}
