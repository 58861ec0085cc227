//! TCP wire-protocol front end for a ReactDB-rs engine instance.
//!
//! The offline build environment rules out async runtimes, so the server is
//! a sharded thread-per-core design in the spirit of the paper's
//! executor/affinity model: one acceptor thread plus N I/O worker threads,
//! each new connection pinned to the worker with the fewest live
//! connections and never migrated. A worker owns its connections outright,
//! so no locks are taken on the per-connection hot path.
//!
//! **Readiness loop** (Linux only; the loop is built on epoll). Each
//! worker sleeps in one epoll instance that holds its nonblocking sockets
//! (edge-triggered: readable, peer hang-up, or a full send buffer that
//! drained) and one eventfd. The eventfd is written by the engine right
//! after it *publishes* the result of a transaction submitted through one
//! of the worker's sessions (a [`reactdb_core::PublishWaker`], so the
//! worker always finds the result it was woken for), by the WAL's
//! group-commit thread after the durable epoch a reply demanded advances,
//! by [`ReplState::observe_ack`] when a follower's ack may have moved the
//! quorum epoch, by the acceptor when it hands the worker a connection,
//! and by [`Server::shutdown`]. A worker therefore runs a pass only when a
//! socket, a completion, an epoch or a handoff gave it work, and no I/O
//! thread ever syncs the log. Timed waits end only at a stall deadline or
//! the shutdown drain deadline. The acceptor sleeps the same way on the
//! listener plus a shutdown eventfd.
//!
//! Each accepted connection performs the version handshake and then maps
//! 1:1 onto an engine [`Client`] session. Requests are pipelined: a worker
//! decodes as many frames as the connection's in-flight cap allows, submits
//! each invoke without waiting ([`Client::submit`]), and polls the
//! resulting `TxnHandle`s when woken — replying at validation time, at
//! durable time, or at replicated time per the request's
//! [`AckLevel`](reactdb_common::AckLevel), in whatever order transactions
//! actually resolve (responses carry the request's correlation id, so
//! ordering is the client's problem by design).
//!
//! **Replication** — a follower is a connection. One that sends
//! `ReplSubscribe` stays on its I/O worker and gains a subscription: a
//! [`reactdb_wal::ShipCursor`] over the engine's log directory that ships
//! the installed checkpoint first, then the durable tail of every log
//! segment, interleaved with durable-epoch announcements. The worker polls
//! the cursor in the pass that accepts the subscription and again whenever
//! the WAL's durable epoch passes the last one announced (the same wake
//! durable replies use), and frames what it finds into the connection's
//! send buffer, whose high-water mark bounds the follower like any other
//! peer: a follower that stops reading is evicted by the write-stall
//! deadline. `ReplAck` frames flowing back advance that follower's entry
//! in the per-follower registry; [`ReplState::quorum_epoch`] — the
//! `quorum`-th-highest acked epoch across live followers — is the gate
//! [`AckLevel::Replicated`](reactdb_common::AckLevel) invokes wait
//! behind, so a transaction is acknowledged at that level only once a
//! quorum of followers has durably applied its commit epoch. The
//! follower side of the stream lives in [`replica`].
//!
//! Robustness rules:
//!
//! * **Backpressure** — a connection at its in-flight cap (or with a
//!   backed-up send buffer) is not read from until it drains; misbehaving
//!   clients stall themselves, not the worker. Reads paused at the cap are
//!   resumed by the completion wake that frees a slot, not by a socket
//!   edge (an edge-triggered socket with unread bytes raises no new one).
//! * **Oversized replies** — a reply whose payload exceeds the frame cap
//!   (e.g. a procedure returning a multi-MiB value) is replaced by a
//!   `ServerError` naming its size.
//! * **Timeouts** — a connection that stalls mid-frame, or that refuses to
//!   accept writes while responses are queued, is killed after a deadline.
//! * **Malformed frames** — a failed length/checksum/body decode kills
//!   only the offending connection; its session drops and the engine
//!   resolves whatever was still in flight.
//! * **Graceful shutdown** — [`Server::shutdown`] stops accepting, drains
//!   in-flight transactions and send buffers (bounded by
//!   `DRAIN_TIMEOUT`, 5 s), then joins every thread. Dropping the last
//!   `Arc<ReactDB>` afterwards releases the `LogDirLock` via the engine's
//!   own shutdown path.
//!
//! The server counts into the engine's metrics registry (the `net_*`
//! counters and gauges, and the `net_decode` / `net_dispatch` /
//! `net_reply` phases), so [`ReactDB::metrics`] already carries them; the
//! wire protocol's metrics op adds the replication gauges and returns the
//! snapshot rendered as Prometheus text — the `GET /metrics` equivalent.

#![deny(clippy::undocumented_unsafe_blocks)]

#[cfg(not(target_os = "linux"))]
compile_error!("reactdb-server's I/O loop is built on epoll and supports Linux only");

mod poll;
pub mod replica;

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use reactdb_client::codec::{self, Request, Response};
use reactdb_common::{AckLevel, ReplicationConfig};
use reactdb_core::PublishWaker;
use reactdb_engine::{Client, ReactDB, TxnHandle};
use reactdb_obs::{Count, Gauge, Metrics, MetricsSnapshot, Phase};
use reactdb_wal::failpoint::{self, FpAction};
use reactdb_wal::{DurableWaker, ShipCursor, ShipEvent};

use poll::{Poller, Waker};

pub use replica::{run_follower, FollowerOpts, FollowerReport};

/// A connection that has started a frame (or the handshake) and makes no
/// read progress for this long is killed.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// A connection with queued responses that accepts no bytes for this long
/// is killed.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Upper bound on how long [`Server::shutdown`] waits for in-flight
/// transactions and send buffers to drain before force-closing.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// I/O worker threads; each new connection is pinned to the one with
    /// the fewest live connections.
    pub workers: usize,
    /// Per-connection cap on invokes submitted but not yet replied to;
    /// reaching it pauses reads from that connection until work drains.
    pub max_in_flight: usize,
    /// Replication knobs: the shipping chunk size of every subscription and
    /// the replicated-ack quorum; defaults match
    /// [`reactdb_common::ReplicationConfig::default`].
    pub replication: ReplicationConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            max_in_flight: 128,
            replication: ReplicationConfig::default(),
        }
    }
}

impl ServerConfig {
    /// Sets the bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the I/O worker thread count (at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the per-connection in-flight cap (at least 1).
    pub fn with_max_in_flight(mut self, cap: usize) -> Self {
        self.max_in_flight = cap.max(1);
        self
    }

    /// Sets the replication shipping knobs.
    pub fn with_replication(mut self, replication: ReplicationConfig) -> Self {
        self.replication = replication;
        self
    }
}

/// One live follower subscription in the primary's registry.
#[derive(Debug, Clone)]
struct FollowerEntry {
    /// The follower's wire-carried stable id (constant across its
    /// reconnects).
    id: u64,
    /// Highest epoch this follower has durably applied and acknowledged.
    acked: u64,
    /// Live subscriptions carrying this id: briefly 2 while a resubscribe
    /// overlaps the dying connection it replaces; the entry is pruned at 0.
    live: u32,
}

/// Replication progress shared between the wire server's I/O workers and
/// (on a follower) the apply loop in [`replica`].
///
/// One struct serves both roles because a node's role is fixed when its
/// process starts, not by the server: a follower's engine is read-only for
/// life ([`ReactDB::set_read_only`]), and promotion is a restart of
/// `reactdb-server` on the follower's log directory without `--follow`.
///
/// The primary side keeps a per-follower registry keyed by the stable
/// `follower_id` each subscription carries: [`ReplState::quorum_epoch`]
/// is the `quorum`-th-highest acked epoch across *live* followers, and
/// it — not the fastest follower's ack — gates
/// [`AckLevel::Replicated`](reactdb_common::AckLevel) replies, so a
/// replicated ack means "durable on at least quorum + 1 nodes". Dead
/// followers are pruned when their connection drops (via the registration
/// guard the connection owns, so every way a connection dies prunes),
/// which can move `quorum_epoch` *backwards*: pending replicated acks then
/// correctly re-stall until a quorum of live followers catches up again.
#[derive(Debug, Default)]
pub struct ReplState {
    /// Highest epoch some (the fastest) follower has durably applied and
    /// acknowledged (primary side). Kept for observability; the
    /// replicated-ack gate is [`ReplState::quorum_epoch`].
    acked_epoch: AtomicU64,
    /// Replicated-ack quorum (how many followers must have durably
    /// applied an epoch); 0 reads as 1.
    quorum: AtomicU64,
    /// Per-follower ack registry (primary side).
    roster: Mutex<Vec<FollowerEntry>>,
    /// Highest epoch this node has durably applied (follower side).
    applied_epoch: AtomicU64,
    /// Highest durable epoch the primary has announced to this node
    /// (follower side).
    shipped_epoch: AtomicU64,
    /// When the follower's last subscription ended (or its tailing
    /// began), while none is live; `None` while subscribed (follower side).
    primary_lost_at: Mutex<Option<Instant>>,
    /// The I/O workers' wakers, called when an ack raises a follower's
    /// epoch; held weakly, so a stopped server leaves nothing behind.
    wakers: Mutex<Vec<Weak<dyn Fn() + Send + Sync>>>,
}

impl ReplState {
    /// Live follower subscriptions on this node.
    pub fn followers(&self) -> u64 {
        let roster = self.roster.lock().unwrap();
        roster.iter().map(|f| u64::from(f.live)).sum()
    }

    /// Highest epoch acknowledged as durably applied by any follower —
    /// the *fastest* follower's progress, for observability. The
    /// replicated-ack gate is [`ReplState::quorum_epoch`].
    pub fn acked_epoch(&self) -> u64 {
        self.acked_epoch.load(Ordering::Acquire)
    }

    /// The replicated-ack quorum this primary enforces (at least 1).
    pub fn quorum(&self) -> usize {
        (self.quorum.load(Ordering::Relaxed) as usize).max(1)
    }

    /// Sets the replicated-ack quorum (0 reads as 1).
    pub fn set_quorum(&self, quorum: usize) {
        self.quorum.store(quorum as u64, Ordering::Relaxed);
    }

    /// The highest epoch durably applied by at least [`ReplState::quorum`]
    /// live followers: the `quorum`-th-highest acked epoch of the
    /// registry, or 0 while fewer than `quorum` followers are subscribed.
    /// Not monotonic by design — a follower dying can lower it, re-gating
    /// pending replicated acks on the followers that still exist.
    pub fn quorum_epoch(&self) -> u64 {
        let roster = self.roster.lock().unwrap();
        let quorum = self.quorum();
        if roster.len() < quorum {
            return 0;
        }
        let mut acked: Vec<u64> = roster.iter().map(|f| f.acked).collect();
        acked.sort_unstable_by(|a, b| b.cmp(a));
        acked[quorum - 1]
    }

    /// Live follower ids and their acked epochs (for metrics and tests).
    pub fn follower_acks(&self) -> Vec<(u64, u64)> {
        let roster = self.roster.lock().unwrap();
        roster.iter().map(|f| (f.id, f.acked)).collect()
    }

    /// Highest epoch this node has durably applied from its primary.
    pub fn applied_epoch(&self) -> u64 {
        self.applied_epoch.load(Ordering::Acquire)
    }

    /// Highest durable epoch the primary has announced to this node.
    pub fn shipped_epoch(&self) -> u64 {
        self.shipped_epoch.load(Ordering::Acquire)
    }

    /// How long this follower has had no live subscription to its
    /// primary; zero while subscribed.
    pub fn primary_unreachable(&self) -> Duration {
        self.primary_lost_at
            .lock()
            .unwrap()
            .map_or(Duration::ZERO, |at| at.elapsed())
    }

    /// Enters `follower_id` into the registry (or revives its entry on a
    /// reconnect) and returns a guard whose drop deregisters it. The
    /// subscribed connection holds the guard, so a follower whose
    /// connection closes — hang-up, stall, malformed frame, a failpoint or
    /// shutdown — is pruned and the `repl_followers` gauge stays truthful.
    pub fn register_follower(self: &Arc<Self>, follower_id: u64) -> FollowerRegistration {
        {
            let mut roster = self.roster.lock().unwrap();
            match roster.iter_mut().find(|f| f.id == follower_id) {
                Some(entry) => entry.live += 1,
                None => roster.push(FollowerEntry {
                    id: follower_id,
                    acked: 0,
                    live: 1,
                }),
            }
        }
        FollowerRegistration {
            repl: Arc::clone(self),
            follower_id,
        }
    }

    /// Monotonically raises `follower_id`'s acked epoch (primary side) and
    /// wakes the I/O workers, whose replicated replies may now clear the
    /// quorum. Unregistered ids are ignored: an ack can only advance the
    /// quorum through a live registry entry.
    pub fn observe_ack(&self, follower_id: u64, applied_epoch: u64) {
        {
            let mut roster = self.roster.lock().unwrap();
            let Some(entry) = roster.iter_mut().find(|f| f.id == follower_id) else {
                return;
            };
            if applied_epoch <= entry.acked {
                return;
            }
            entry.acked = applied_epoch;
        }
        self.acked_epoch.fetch_max(applied_epoch, Ordering::AcqRel);
        let wakers = self.wakers.lock().unwrap();
        for wake in wakers.iter().filter_map(Weak::upgrade) {
            wake();
        }
    }

    /// Records follower-side apply progress.
    pub fn observe_apply(&self, applied_epoch: u64, shipped_epoch: u64) {
        self.applied_epoch
            .fetch_max(applied_epoch, Ordering::AcqRel);
        self.shipped_epoch
            .fetch_max(shipped_epoch, Ordering::AcqRel);
    }

    /// Records that a subscription went live (`true`) or that none is
    /// (`false`); the unreachable clock starts at the first `false` after a
    /// live one and keeps running across failed reconnects.
    pub fn observe_subscription(&self, live: bool) {
        let mut lost_at = self.primary_lost_at.lock().unwrap();
        if live {
            *lost_at = None;
        } else {
            lost_at.get_or_insert_with(Instant::now);
        }
    }

    fn deregister(&self, follower_id: u64) {
        let mut roster = self.roster.lock().unwrap();
        if let Some(pos) = roster.iter().position(|f| f.id == follower_id) {
            roster[pos].live = roster[pos].live.saturating_sub(1);
            if roster[pos].live == 0 {
                roster.remove(pos);
            }
        }
    }
}

/// Registration of one follower subscription; dropping it deregisters
/// the follower (see [`ReplState::register_follower`]).
#[derive(Debug)]
pub struct FollowerRegistration {
    repl: Arc<ReplState>,
    follower_id: u64,
}

impl Drop for FollowerRegistration {
    fn drop(&mut self) {
        self.repl.deregister(self.follower_id);
    }
}

struct Shared {
    db: Arc<ReactDB>,
    metrics: Arc<Metrics>,
    repl: Arc<ReplState>,
    /// Live connections per I/O worker, for pinning new ones.
    worker_loads: Vec<AtomicUsize>,
    /// Per I/O worker: the lowest durable epoch its last pass waits for —
    /// a reply's commit epoch, or the epoch after the last one a
    /// subscription announced (`u64::MAX`: none). A durable-epoch advance
    /// wakes only the workers it lets reply or ship.
    awaiting_durable: Vec<Arc<AtomicU64>>,
    config: ServerConfig,
    shutdown: AtomicBool,
}

impl Shared {
    /// The engine snapshot (which carries the server's `net_*` counts: they
    /// live in the same registry) plus the replication gauges computed from
    /// [`ReplState`] — what the wire metrics op renders.
    fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.db.metrics();
        let repl = &self.repl;
        snap.gauges.push(Gauge {
            name: "repl_followers".to_string(),
            value: repl.followers() as f64,
        });
        snap.gauges.push(Gauge {
            name: "repl_acked_epoch".to_string(),
            value: repl.acked_epoch() as f64,
        });
        // Per-follower progress plus the quorum epoch that actually gates
        // replicated acks ("durable on >= quorum + 1 nodes").
        for (id, acked) in repl.follower_acks() {
            snap.gauges.push(Gauge {
                name: format!("repl_acked_epoch{{follower=\"{id:016x}\"}}"),
                value: acked as f64,
            });
        }
        let quorum_epoch = repl.quorum_epoch();
        snap.gauges.push(Gauge {
            name: "repl_quorum_epoch".to_string(),
            value: quorum_epoch as f64,
        });
        // Primary-side lag: durable epochs no follower has acknowledged
        // yet. Zero with durability off (nothing to ship) or no follower
        // progress recorded. The quorum variant measures against the
        // quorum-acked epoch — what a replicated invoke would wait on now.
        let durable = self.db.durable_epoch();
        let lag = durable.map_or(0, |durable| durable.saturating_sub(repl.acked_epoch()));
        snap.gauges.push(Gauge {
            name: "repl_lag_epochs".to_string(),
            value: lag as f64,
        });
        let quorum_lag = durable.map_or(0, |durable| durable.saturating_sub(quorum_epoch));
        snap.gauges.push(Gauge {
            name: "repl_quorum_epoch_lag".to_string(),
            value: quorum_lag as f64,
        });
        if self.db.is_read_only() {
            snap.gauges.push(Gauge {
                name: "repl_applied_epoch".to_string(),
                value: repl.applied_epoch() as f64,
            });
            snap.gauges.push(Gauge {
                name: "repl_follower_lag_epochs".to_string(),
                value: repl.shipped_epoch().saturating_sub(repl.applied_epoch()) as f64,
            });
            snap.gauges.push(Gauge {
                name: "repl_primary_unreachable_s".to_string(),
                value: repl.primary_unreachable().as_secs_f64(),
            });
        }
        snap
    }
}

/// A running wire server fronting one engine instance.
///
/// Obtained from [`Server::start`]; stopped by [`Server::shutdown`] (or
/// drop, which performs the same drain).
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// The acceptor's waker first, then one per I/O worker: shutdown wakes
    /// them all so no thread sleeps through the flag.
    wakers: Vec<Arc<Waker>>,
}

/// Poller token of a thread's own waker; an I/O worker's connection tokens
/// are slot indices, the acceptor's listener is 0.
const WAKE: u64 = u64::MAX;

impl Server {
    /// Binds, spawns the acceptor and worker threads, and returns. The
    /// server shares `db`'s metrics registry, so its `net_*` phases land
    /// in the same snapshot as the engine's.
    pub fn start(db: Arc<ReactDB>, config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let metrics = db.metrics_registry();
        let shared = Arc::new(Shared {
            db,
            metrics,
            repl: Arc::new(ReplState::default()),
            worker_loads: (0..config.workers).map(|_| AtomicUsize::new(0)).collect(),
            awaiting_durable: (0..config.workers)
                .map(|_| Arc::new(AtomicU64::new(u64::MAX)))
                .collect(),
            config,
            shutdown: AtomicBool::new(false),
        });
        shared
            .repl
            .set_quorum(shared.config.replication.effective_quorum());

        // Every poller and waker exists before any thread does, so a
        // failure here leaves nothing running.
        let (accept_poller, accept_waker) = Poller::with_waker(WAKE)?;
        accept_poller.add(listener.as_raw_fd(), 0, false)?;
        let worker_pollers = (0..shared.config.workers)
            .map(|_| Poller::with_waker(WAKE))
            .collect::<std::io::Result<Vec<_>>>()?;

        let mut wakers = vec![accept_waker];
        let mut handoffs = Vec::new();
        let mut workers = Vec::new();
        for (idx, (poller, waker)) in worker_pollers.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel::<TcpStream>();
            wakers.push(Arc::clone(&waker));
            handoffs.push((tx, Arc::clone(&waker)));
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("reactdb-net-{idx}"))
                    .spawn(move || worker_loop(shared, rx, idx, poller, waker))?,
            );
        }
        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("reactdb-net-accept".into())
            .spawn(move || accept_loop(listener, acceptor_shared, accept_poller, handoffs))?;

        Ok(Self {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            workers,
            wakers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Replication progress: follower count and acked epoch on a primary,
    /// applied/shipped epochs on a follower. The follower apply loop
    /// ([`run_follower`]) updates the same instance, so the server's
    /// metrics snapshot reflects it live.
    pub fn repl_state(&self) -> Arc<ReplState> {
        Arc::clone(&self.shared.repl)
    }

    /// The engine's metrics snapshot plus the replication gauges: what the
    /// wire metrics op returns.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.snapshot()
    }

    /// Stops accepting, drains in-flight transactions and send buffers
    /// (bounded by a 5 s drain timeout), and joins every thread.
    /// The engine itself keeps running; dropping the last `Arc<ReactDB>`
    /// afterwards shuts it down and releases the log-directory lock.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for waker in &self.wakers {
            waker.wake();
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The worker with the fewest live connections, the lowest index on a tie:
/// connections opened one after another spread one per worker.
fn least_loaded(loads: &[AtomicUsize]) -> usize {
    (0..loads.len())
        .min_by_key(|&worker| loads[worker].load(Ordering::Relaxed))
        .expect("a server has at least one worker")
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    mut poller: Poller,
    handoffs: Vec<(mpsc::Sender<TcpStream>, Arc<Waker>)>,
) {
    let mut ready = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.metrics.add(Count::NetConnectionsAccepted, 1);
                shared.metrics.add(Count::NetConnectionsActive, 1);
                let worker = least_loaded(&shared.worker_loads);
                shared.worker_loads[worker].fetch_add(1, Ordering::Relaxed);
                let (tx, waker) = &handoffs[worker];
                if tx.send(stream).is_err() {
                    release(&shared, worker);
                    return; // workers gone; shutting down
                }
                waker.wake();
            }
            // The listener is registered level-triggered, so the wait
            // returns while any connection is queued.
            Err(e) if e.kind() == ErrorKind::WouldBlock => poller.wait(None, &mut ready),
            // E.g. out of descriptors: the listener stays readable, so back
            // off instead of spinning on it.
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Forgets one live connection of `worker` in the counters.
fn release(shared: &Shared, worker: usize) {
    shared.metrics.sub(Count::NetConnectionsActive, 1);
    shared.worker_loads[worker].fetch_sub(1, Ordering::Relaxed);
}

/// One invoke submitted to the engine, awaiting its reply point.
struct Pending {
    correlation_id: u64,
    handle: TxnHandle,
    ack: AckLevel,
}

/// Per-connection state owned by exactly one worker.
struct Conn {
    stream: TcpStream,
    session: Client,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    inflight: VecDeque<Pending>,
    handshaken: bool,
    /// The socket may hold unread bytes: set by any of its (edge-triggered)
    /// readiness events, cleared when a read reports `WouldBlock`.
    readable: bool,
    /// Last time a read made progress; the read-stall clock only matters
    /// while the peer owes bytes (mid-handshake or mid-frame).
    last_read: Instant,
    /// Last time a write drained bytes while responses were queued.
    last_write: Instant,
    /// The log stream this connection is owed, once it sent `ReplSubscribe`.
    subscription: Option<Subscription>,
    /// The connection's last frame is queued (a `ReplEnd`): it reads no
    /// more and closes once `wbuf` drains.
    closing: bool,
    /// Set when the connection must be closed.
    kill: Option<KillReason>,
}

/// A follower's subscription, held by its connection: dropping the
/// connection drops the registration and so deregisters the follower.
struct Subscription {
    cursor: ShipCursor,
    correlation_id: u64,
    registration: FollowerRegistration,
    /// The WAL's durable epoch at the last poll (`None` before the first):
    /// nothing new is shippable until it moves, so the connection's other
    /// passes skip the poll's directory walk.
    polled_at: Option<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KillReason {
    /// Peer closed or the socket errored; nothing to count specially.
    Gone,
    /// Handshake failed (magic or version); counted as rejected.
    HandshakeRejected,
    /// Frame or body failed to decode; counted as malformed.
    Malformed,
    /// Read or write stall exceeded its deadline; counted as timeout.
    Stalled,
    /// The connection drained its send buffer before closing: graceful
    /// shutdown, or a replication stream that ended.
    Drained,
}

/// Soft cap on a connection's buffered bytes; reads pause above it, and so
/// does a subscription's shipping (whose acks are still read).
const WBUF_HIGH_WATER: usize = 4 << 20;

fn worker_loop(
    shared: Arc<Shared>,
    rx: mpsc::Receiver<TcpStream>,
    worker_idx: usize,
    mut poller: Poller,
    waker: Arc<Waker>,
) {
    // Connection slots; a connection's poller token is its slot index.
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut ready = Vec::new();
    // What wakes the worker besides its sockets: published results and
    // follower acks (`wake`), and a durable-epoch advance that lets one of
    // its replies go or gives a subscription something to ship. The roster
    // and the WAL hold these weakly, so they go when the worker does; they
    // capture no `Shared`, so the last engine handle can never drop on the
    // thread that runs them.
    let wake: PublishWaker = {
        let waker = Arc::clone(&waker);
        Arc::new(move || waker.wake())
    };
    let durable_wake: Arc<DurableWaker> = {
        let waker = Arc::clone(&waker);
        let awaiting = Arc::clone(&shared.awaiting_durable[worker_idx]);
        Arc::new(move |durable| {
            if durable >= awaiting.load(Ordering::SeqCst) {
                waker.wake();
            }
        })
    };
    shared
        .repl
        .wakers
        .lock()
        .unwrap()
        .push(Arc::downgrade(&wake));
    if let Some(wal) = shared.db.wal() {
        wal.add_waker(&durable_wake);
    }
    let mut drain_deadline: Option<Instant> = None;

    loop {
        let shutting = shared.shutdown.load(Ordering::SeqCst);
        if shutting && drain_deadline.is_none() {
            drain_deadline = Some(Instant::now() + DRAIN_TIMEOUT);
        }

        // Adopt connections the acceptor pinned to this worker.
        while let Ok(stream) = rx.try_recv() {
            if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                release(&shared, worker_idx);
                continue;
            }
            let slot = conns.iter().position(Option::is_none).unwrap_or_else(|| {
                conns.push(None);
                conns.len() - 1
            });
            if poller.add(stream.as_raw_fd(), slot as u64, true).is_err() {
                release(&shared, worker_idx);
                continue;
            }
            let now = Instant::now();
            conns[slot] = Some(Conn {
                stream,
                session: shared.db.client().with_waker(Arc::clone(&wake)),
                rbuf: Vec::new(),
                wbuf: Vec::new(),
                inflight: VecDeque::new(),
                handshaken: false,
                // Bytes may have arrived before registration.
                readable: true,
                last_read: now,
                last_write: now,
                subscription: None,
                closing: false,
                kill: None,
            });
        }

        let mut next_look = drain_deadline;
        // Lowered below by every reply still waiting on the durable epoch.
        shared.awaiting_durable[worker_idx].store(u64::MAX, Ordering::SeqCst);
        for conn in conns.iter_mut().flatten() {
            let look = service(&shared, conn, worker_idx, shutting);
            next_look = [next_look, look].into_iter().flatten().min();
        }

        for slot in conns.iter_mut() {
            let Some(reason) = slot.as_ref().and_then(|conn| conn.kill) else {
                continue;
            };
            let conn = slot.take().expect("slot checked above");
            let counted = match reason {
                KillReason::HandshakeRejected => Some(Count::NetConnectionsRejected),
                KillReason::Malformed => Some(Count::NetConnectionsKilledMalformed),
                KillReason::Stalled => Some(Count::NetConnectionsKilledTimeout),
                KillReason::Gone | KillReason::Drained => None,
            };
            if let Some(count) = counted {
                shared.metrics.add(count, 1);
            }
            // Dropping the connection drops its session and handles, and a
            // follower's registration; the engine resolves whatever was
            // still in flight on its own, so a mid-run kill leaks nothing.
            // Closing the socket also drops its poller registration.
            shared
                .metrics
                .sub(Count::NetRequestsInFlight, conn.inflight.len() as u64);
            release(&shared, worker_idx);
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }

        if shutting {
            let deadline_passed = drain_deadline.is_some_and(|d| Instant::now() >= d);
            if conns.iter().all(Option::is_none) || deadline_passed {
                return;
            }
            let drained = conns
                .iter()
                .flatten()
                .all(|c| c.inflight.is_empty() && c.wbuf.is_empty());
            if drained {
                for conn in conns.iter_mut().flatten() {
                    conn.kill = Some(KillReason::Drained);
                }
                continue; // next pass closes them
            }
        }

        let timeout = next_look.map(|at| at.saturating_duration_since(Instant::now()));
        poller.wait(timeout, &mut ready);
        shared.metrics.add(Count::NetWorkerWakeups, 1);
        for &token in &ready {
            if token == WAKE {
                waker.reset();
            } else if let Some(Some(conn)) = conns.get_mut(token as usize) {
                conn.readable = true;
            }
        }
    }
}

/// Services one connection once: poll in-flight transactions, read,
/// handshake, decode/dispatch, ship a follower's log stream, flush, and
/// check stall deadlines. Returns the time by which the worker must
/// service it again even if no event arrives, or `None` when only an event
/// can give it work.
fn service(shared: &Shared, conn: &mut Conn, worker_idx: usize, shutting: bool) -> Option<Instant> {
    if conn.kill.is_some() {
        return None;
    }
    // Not reading — shutting down, closing, backpressured, or buffers
    // backed up past the high-water mark. A follower's acks are read past
    // its send buffer's mark: they are tiny, and a follower blocked on
    // writing them must never deadlock against the stream it is owed.
    let paused = |conn: &Conn| {
        shutting
            || conn.closing
            || conn.inflight.len() >= shared.config.max_in_flight
            || (conn.wbuf.len() >= WBUF_HIGH_WATER && conn.subscription.is_none())
            || conn.rbuf.len() >= WBUF_HIGH_WATER
    };
    if paused(conn) {
        // Not our peer's fault we aren't reading; restart its window so
        // the stall clock measures only willing-to-read time.
        conn.last_read = Instant::now();
    }

    // Completions first: a reply frees an in-flight slot, so this same pass
    // resumes reading a pipeline the cap paused.
    poll_inflight(shared, conn, worker_idx);

    let reading = !paused(conn);
    if reading && conn.readable {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.kill = Some(KillReason::Gone);
                    return None;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    conn.last_read = Instant::now();
                    if conn.rbuf.len() >= WBUF_HIGH_WATER {
                        break; // plenty buffered; decode before reading more
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    conn.readable = false;
                    break;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.kill = Some(KillReason::Gone);
                    return None;
                }
            }
        }
    }

    // Handshake precedes any frame.
    if !conn.handshaken && conn.rbuf.len() >= codec::HANDSHAKE_LEN {
        let mut hello = [0u8; codec::HANDSHAKE_LEN];
        hello.copy_from_slice(&conn.rbuf[..codec::HANDSHAKE_LEN]);
        conn.rbuf.drain(..codec::HANDSHAKE_LEN);
        match codec::parse_client_hello(&hello) {
            Ok(_) => {
                conn.wbuf.extend_from_slice(&codec::server_hello(true));
                conn.handshaken = true;
            }
            Err(codec::WireError::VersionMismatch { .. }) => {
                // Tell the client which version we speak, then hang up.
                let _ = conn.stream.write_all(&codec::server_hello(false));
                conn.kill = Some(KillReason::HandshakeRejected);
                return None;
            }
            Err(_) => {
                conn.kill = Some(KillReason::HandshakeRejected);
                return None;
            }
        }
    }

    // Decode and dispatch pipelined requests up to the in-flight cap.
    while conn.handshaken && conn.inflight.len() < shared.config.max_in_flight {
        let decode_clock = shared.metrics.clock();
        let request = match codec::next_message(&mut conn.rbuf, codec::decode_request) {
            Ok(Some(request)) => request,
            Ok(None) => break,
            Err(_) => {
                conn.kill = Some(KillReason::Malformed);
                return None;
            }
        };
        if let Some(since) = decode_clock {
            shared
                .metrics
                .record_elapsed(Phase::NetDecode, worker_idx, since);
        }
        shared.metrics.add(Count::NetRequests, 1);

        let dispatch_clock = shared.metrics.clock();
        match request {
            Request::Invoke {
                correlation_id,
                ack,
                reactor,
                procedure,
                args,
            } => match conn.session.submit(&reactor, &procedure, args) {
                Ok(handle) => {
                    shared.metrics.add(Count::NetRequestsInFlight, 1);
                    conn.inflight.push_back(Pending {
                        correlation_id,
                        handle,
                        ack,
                    });
                }
                Err(error) => reply(
                    shared,
                    conn,
                    worker_idx,
                    &Response::TxnErr {
                        correlation_id,
                        error,
                    },
                ),
            },
            Request::Metrics { correlation_id } => {
                let text = shared.snapshot().to_prometheus_text();
                reply(
                    shared,
                    conn,
                    worker_idx,
                    &Response::MetricsText {
                        correlation_id,
                        text,
                    },
                );
            }
            Request::Ping { correlation_id } => {
                reply(shared, conn, worker_idx, &Response::Pong { correlation_id })
            }
            Request::ReplSubscribe {
                correlation_id,
                // The primary always ships the full bootstrap (checkpoint
                // + durable log); a follower that already applied
                // through `from_epoch` skips those epochs at apply time,
                // so re-shipping is merely redundant, never wrong.
                from_epoch: _,
                follower_id,
            } => match shared.db.wal() {
                // The stream starts in this pass: the first poll follows
                // the decode loop. Chunks must fit the wire frame cap with
                // room for the envelope.
                Some(wal) => {
                    let chunk = shared.config.replication.chunk_bytes;
                    let chunk = chunk.min(codec::MAX_FRAME_LEN as usize / 2);
                    conn.subscription = Some(Subscription {
                        cursor: ShipCursor::new(wal.dir(), chunk),
                        correlation_id,
                        registration: shared.repl.register_follower(follower_id),
                        polled_at: None,
                    })
                }
                None => reply(
                    shared,
                    conn,
                    worker_idx,
                    &Response::ReplEnd {
                        correlation_id,
                        reason: "primary has durability off: nothing to replicate".to_string(),
                    },
                ),
            },
            // An ack counts only on the subscribed connection it belongs
            // to; one arriving on an ordinary connection has no registered
            // follower behind it and is dropped — it must not advance any
            // quorum it never subscribed to.
            Request::ReplAck { applied_epoch, .. } => {
                // `ack-drop`: the follower applied and acked, but the
                // primary never hears it — the quorum gate must stall, not
                // lie.
                if let Some(sub) = &conn.subscription {
                    if failpoint::fire_scoped("ack-drop", failpoint_scope(shared))
                        != Some(FpAction::Err)
                    {
                        shared
                            .repl
                            .observe_ack(sub.registration.follower_id, applied_epoch);
                    }
                }
            }
        }
        if let Some(since) = dispatch_clock {
            shared
                .metrics
                .record_elapsed(Phase::NetDispatch, worker_idx, since);
        }
    }

    let ship_deferred = ship(shared, conn, worker_idx, shutting);
    if conn.kill.is_some() {
        return None;
    }

    // Flush the send buffer.
    while !conn.wbuf.is_empty() {
        match conn.stream.write(&conn.wbuf) {
            Ok(0) => {
                conn.kill = Some(KillReason::Gone);
                return None;
            }
            Ok(n) => {
                conn.wbuf.drain(..n);
                conn.last_write = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.kill = Some(KillReason::Gone);
                return None;
            }
        }
    }

    // Stall deadlines. The read clock only matters while the peer owes us
    // bytes — mid-handshake or with the buffer's first frame incomplete —
    // and only when we were actually willing to read (a connection paused
    // by our own backpressure is not the peer stalling). An idle client
    // with no partial frame may stay connected indefinitely.
    let partial_frame =
        !conn.rbuf.is_empty() && matches!(codec::decode_frame(&conn.rbuf), Ok(None));
    let owes_bytes = !conn.handshaken || partial_frame;
    if reading && owes_bytes && conn.last_read.elapsed() >= READ_TIMEOUT {
        conn.kill = Some(KillReason::Stalled);
        return None;
    }
    if !conn.wbuf.is_empty() && conn.last_write.elapsed() >= WRITE_TIMEOUT {
        conn.kill = Some(KillReason::Stalled);
        return None;
    }
    if conn.closing && conn.wbuf.is_empty() {
        conn.kill = Some(KillReason::Drained);
        return None;
    }

    // When to look again without an event. Completions, epoch progress,
    // socket edges and send-buffer space all wake the worker; only a
    // stall deadline, bytes left unread at the high-water mark, or a ship
    // poll deferred there whose buffer has since drained below it, do not.
    let reading = !paused(conn);
    if (reading && conn.readable) || (ship_deferred && conn.wbuf.len() < WBUF_HIGH_WATER) {
        return Some(Instant::now());
    }
    let read_stall = (reading && owes_bytes).then(|| conn.last_read + READ_TIMEOUT);
    let write_stall = (!conn.wbuf.is_empty()).then(|| conn.last_write + WRITE_TIMEOUT);
    read_stall.into_iter().chain(write_stall).min()
}

/// Replies to every in-flight transaction that reached its ack point. A
/// commit still short of the durable epoch demands its group commit from
/// the WAL, whose sync thread wakes the worker once it is durable.
fn poll_inflight(shared: &Shared, conn: &mut Conn, worker_idx: usize) {
    if conn.inflight.is_empty() {
        return;
    }
    let wal = shared.db.wal();
    // The quorum epoch takes the roster lock; compute it at most once per
    // pass, and only when some pending invoke actually asked for a
    // replicated ack.
    let mut quorum_epoch: Option<u64> = None;
    let mut still_pending = VecDeque::with_capacity(conn.inflight.len());
    while let Some(pending) = conn.inflight.pop_front() {
        let outcome = match pending.handle.try_result() {
            None => {
                still_pending.push_back(pending);
                continue;
            }
            Some(outcome) => outcome,
        };
        // A durable-ack commit waits until group commit covers its epoch;
        // a replicated-ack commit additionally waits until a *quorum* of
        // followers has acknowledged durably applying it. Aborts, and
        // commits that wrote nothing, are never durable and reply
        // immediately. With no WAL configured both levels degrade to
        // validated, like the in-process `wait_durable`.
        let commit = pending.handle.commit_epoch();
        if let (Some(wal), Some(commit), true) = (wal, commit, pending.ack.requires_durable()) {
            let mut durable = commit <= wal.durable_epoch();
            if !durable {
                // Publish the wait and demand, then read again: either the
                // read sees the advance, or the advance sees both and
                // wakes this worker.
                shared.awaiting_durable[worker_idx].fetch_min(commit, Ordering::SeqCst);
                wal.demand_durable(commit);
                durable = commit <= wal.durable_epoch();
            }
            let replicated = !pending.ack.requires_replicated()
                || commit <= *quorum_epoch.get_or_insert_with(|| shared.repl.quorum_epoch());
            if !(durable && replicated) {
                still_pending.push_back(pending);
                continue;
            }
        }
        let response = match outcome {
            Ok(value) => Response::TxnOk {
                correlation_id: pending.correlation_id,
                value,
                commit_epoch: pending.handle.commit_epoch(),
            },
            Err(error) => Response::TxnErr {
                correlation_id: pending.correlation_id,
                error,
            },
        };
        shared.metrics.sub(Count::NetRequestsInFlight, 1);
        reply(shared, conn, worker_idx, &response);
    }
    conn.inflight = still_pending;
}

/// Encodes a response and queues it on the connection's send buffer,
/// recording the reply phase (`net_replicate` for replication stream
/// frames). A payload over the frame cap is replaced by a `ServerError`
/// saying so: the client learns why, and the worker keeps serving.
fn reply(shared: &Shared, conn: &mut Conn, worker_idx: usize, response: &Response) {
    let clock = shared.metrics.clock();
    let mut payload = codec::encode_response(response);
    if payload.len() > codec::MAX_FRAME_LEN as usize {
        payload = codec::encode_response(&Response::ServerError {
            correlation_id: response.correlation_id(),
            message: format!("reply of {} bytes exceeds the frame cap", payload.len()),
        });
    }
    conn.wbuf.extend_from_slice(&codec::frame(&payload));
    if let Some(since) = clock {
        let phase = match response {
            Response::ReplFile { .. } | Response::ReplEpoch { .. } | Response::ReplEnd { .. } => {
                Phase::NetReplicate
            }
            _ => Phase::NetReply,
        };
        shared.metrics.record_elapsed(phase, worker_idx, since);
    }
    shared.metrics.add(Count::NetResponses, 1);
}

/// The failpoint scope of this server's replication points: its log
/// directory's name, as the shipping cursor's own points use.
fn failpoint_scope(shared: &Shared) -> &str {
    let dir = shared.db.wal().map(|wal| wal.dir());
    dir.and_then(|d| d.file_name())
        .and_then(|n| n.to_str())
        .unwrap_or("")
}

/// Ships what a subscribed connection's cursor finds new into its send
/// buffer, as `ReplFile` and `ReplEpoch` frames.
///
/// The cursor is polled only below the high-water mark, so a follower
/// that reads slowly holds at most one poll's worth past it, and one that
/// stops reading is evicted by the write-stall deadline. It is polled once
/// when the subscription starts and then only when the durable epoch has
/// moved. Before looking, the connection publishes the next durable epoch
/// it waits for: either the look sees an advance, or the advance sees the
/// published epoch and wakes the worker. A cursor error (e.g. a checkpoint
/// truncated a tracked segment) or shutdown ends the stream with a clean
/// `ReplEnd`, so the follower resubscribes instead of seeing a drop.
///
/// The `ship-kill` failpoint (scoped to the log directory's name) is
/// passed on every such pass: `err` drops the connection without a
/// `ReplEnd`, as a crash would; `stall` holds the worker. Returns true
/// when a poll was due but deferred at the high-water mark.
fn ship(shared: &Shared, conn: &mut Conn, worker_idx: usize, shutting: bool) -> bool {
    let Some(sub) = conn.subscription.as_mut() else {
        return false;
    };
    if shutting {
        end_stream(shared, conn, worker_idx, "primary shutting down".into());
        return false;
    }
    if conn.wbuf.len() >= WBUF_HIGH_WATER {
        return true;
    }
    if failpoint::fire_scoped("ship-kill", failpoint_scope(shared)) == Some(FpAction::Err) {
        conn.kill = Some(KillReason::Gone);
        return false;
    }
    shared.awaiting_durable[worker_idx]
        .fetch_min(sub.cursor.announced_epoch() + 1, Ordering::SeqCst);
    // Read after publishing: an advance past this read wakes the worker.
    let durable = shared.db.durable_epoch();
    if sub.polled_at == durable {
        return false;
    }
    sub.polled_at = durable;
    let events = match sub.cursor.poll() {
        Ok(events) => events,
        Err(e) => {
            end_stream(shared, conn, worker_idx, e.to_string());
            return false;
        }
    };
    let correlation_id = sub.correlation_id;
    for event in events {
        let response = match event {
            ShipEvent::File {
                name,
                offset,
                bytes,
            } => Response::ReplFile {
                correlation_id,
                name,
                offset,
                bytes,
            },
            ShipEvent::DurableEpoch(epoch) => Response::ReplEpoch {
                correlation_id,
                epoch,
            },
        };
        reply(shared, conn, worker_idx, &response);
    }
    false
}

/// Ends a subscription with a `ReplEnd` naming `reason`. The follower is
/// deregistered now, and the connection closes once the frame is flushed.
fn end_stream(shared: &Shared, conn: &mut Conn, worker_idx: usize, reason: String) {
    if let Some(sub) = conn.subscription.take() {
        let correlation_id = sub.correlation_id;
        reply(
            shared,
            conn,
            worker_idx,
            &Response::ReplEnd {
                correlation_id,
                reason,
            },
        );
        conn.closing = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reactdb_client::WireClient;
    use reactdb_common::DeploymentConfig;
    use reactdb_workloads::smallbank;

    fn loads(server: &Server) -> Vec<usize> {
        let loads = &server.shared.worker_loads;
        loads.iter().map(|l| l.load(Ordering::Relaxed)).collect()
    }

    #[test]
    fn connections_spread_one_per_worker() {
        let db = Arc::new(ReactDB::boot(
            smallbank::spec(4),
            DeploymentConfig::shared_nothing(1),
        ));
        let workers = 3;
        let server = Server::start(db, ServerConfig::default().with_workers(workers)).unwrap();
        let connect = || {
            let client = WireClient::connect(server.local_addr()).unwrap();
            client.ping().unwrap();
            client
        };
        let mut clients: Vec<_> = (0..workers).map(|_| connect()).collect();
        assert_eq!(loads(&server), vec![1; workers]);

        // A closed connection frees its worker, and the next one lands there.
        drop(clients.remove(1));
        let deadline = Instant::now() + Duration::from_secs(5);
        while loads(&server) != [1, 0, 1] {
            assert!(
                Instant::now() < deadline,
                "closed connection never released"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        clients.push(connect());
        assert_eq!(loads(&server), vec![1; workers]);
        server.shutdown();
    }
}
