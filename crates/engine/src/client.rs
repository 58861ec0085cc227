//! The client session layer: pipelined transaction handles with
//! durability-aware completion.
//!
//! The paper's client contract is "asynchronous function calls returning
//! promises" (§2.2.1). This module is that contract as a first-class API:
//! [`ReactDB::client`](crate::ReactDB::client) opens a session, and the
//! cheaply-cloneable [`Client`] handle submits root transactions without
//! blocking — many may be in flight per session — returning a [`TxnHandle`]
//! per transaction.
//!
//! A handle offers three completion modes:
//!
//! * [`TxnHandle::wait`] resolves at **validation time**: the transaction
//!   passed Silo validation and its writes are installed, but its epoch may
//!   not have group-committed yet. This is the engine's historical
//!   semantics; a crash inside the window (at most one epoch) can lose an
//!   acknowledged transaction.
//! * [`TxnHandle::wait_durable`] resolves only once the WAL's **durable
//!   epoch covers the transaction's commit epoch** — the acknowledgement
//!   rule of Silo/SiloR (Tu et al., SOSP'13; Zheng et al., OSDI'14). Under
//!   epoch-sync durability a transaction acknowledged this way is
//!   guaranteed to survive a crash; with durability off it degrades to
//!   `wait`.
//! * [`TxnHandle::try_result`] polls without blocking.
//!
//! [`RetryPolicy`] packages the retry loop every OCC front end otherwise
//! re-implements: validation aborts (and optionally dangerous-structure
//! aborts) are transient, so [`Client::invoke_with_retry`] re-submits with
//! bounded exponential backoff while user aborts propagate immediately.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use reactdb_common::{AckLevel, Result, TxnError, Value};
use reactdb_core::{FulfillHook, PublishWaker, ReactorFuture};
use reactdb_obs::{AbortReason, Count, Phase, TraceKind};

use crate::database::{Inner, CLIENT_TIMEOUT};

/// Per-session counters, shared by every clone of a [`Client`] and by the
/// handles it issued. The same events also feed the database-wide
/// `client_*` and `handles_in_flight*` counts in the metrics registry.
#[derive(Debug, Default)]
pub(crate) struct SessionShared {
    submitted: AtomicU64,
    committed: AtomicU64,
    aborted: AtomicU64,
    /// One counter per [`AbortReason`], indexed by `reason as usize`.
    abort_reasons: [AtomicU64; AbortReason::ALL.len()],
    timeouts: AtomicU64,
    in_flight: AtomicU64,
    in_flight_hwm: AtomicU64,
}

impl SessionShared {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    pub(crate) fn on_submit(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let now = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.in_flight_hwm.fetch_max(now, Ordering::Relaxed);
    }

    pub(crate) fn on_resolve(&self, committed: bool, reason: Option<AbortReason>) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        if committed {
            self.committed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.aborted.fetch_add(1, Ordering::Relaxed);
            if let Some(reason) = reason {
                self.abort_reasons[reason as usize].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn on_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> SessionStats {
        let mut aborts_by_reason = [(AbortReason::Other, 0u64); AbortReason::ALL.len()];
        for (slot, reason) in aborts_by_reason.iter_mut().zip(AbortReason::ALL) {
            *slot = (
                reason,
                self.abort_reasons[reason as usize].load(Ordering::Relaxed),
            );
        }
        SessionStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            committed: self.committed.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
            phantom_aborts: self.abort_reasons[AbortReason::Phantom as usize]
                .load(Ordering::Relaxed),
            aborts_by_reason,
            timeouts: self.timeouts.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            in_flight_hwm: self.in_flight_hwm.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of one session's client-visible outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Root transactions submitted through this session.
    pub submitted: u64,
    /// Handles that resolved with a commit.
    pub committed: u64,
    /// Handles that resolved with an error (concurrency abort, user abort,
    /// or abandonment at shutdown).
    pub aborted: u64,
    /// Handles that resolved with a phantom abort — node-set validation
    /// detected that a scanned range changed membership before commit. A
    /// subset of `aborted`, separated so workload reports can tell phantom
    /// invalidations from ordinary OCC read-set conflicts. Equals the
    /// [`AbortReason::Phantom`] entry of `aborts_by_reason`.
    pub phantom_aborts: u64,
    /// Aborted handles broken down by classified cause, one `(reason,
    /// count)` per [`AbortReason::ALL`] entry. The counts sum to `aborted`.
    pub aborts_by_reason: [(AbortReason, u64); AbortReason::ALL.len()],
    /// Waits that hit the client timeout.
    pub timeouts: u64,
    /// Handles currently in flight (submitted, not yet resolved).
    pub in_flight: u64,
    /// High-water mark of in-flight handles: how deep this session actually
    /// pipelined.
    pub in_flight_hwm: u64,
}

/// One root-transaction invocation, for [`Client::submit_batch`].
#[derive(Debug, Clone)]
pub struct Call {
    /// Reactor the procedure runs on.
    pub reactor: String,
    /// Procedure name.
    pub proc: String,
    /// Procedure arguments.
    pub args: Vec<Value>,
}

impl Call {
    /// Describes `proc(args)` on the reactor named `reactor`.
    pub fn new(reactor: impl Into<String>, proc: impl Into<String>, args: Vec<Value>) -> Self {
        Self {
            reactor: reactor.into(),
            proc: proc.into(),
            args,
        }
    }
}

/// A client session handle. Cheap to clone (a few `Arc`s); clones share the
/// session and its statistics. Obtained from
/// [`ReactDB::client`](crate::ReactDB::client).
#[derive(Clone)]
pub struct Client {
    inner: Arc<Inner>,
    session: Arc<SessionShared>,
    /// Run after each submitted transaction's result is published (see
    /// [`Client::with_waker`]).
    waker: Option<PublishWaker>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.session.snapshot();
        f.debug_struct("Client")
            .field("submitted", &stats.submitted)
            .field("in_flight", &stats.in_flight)
            .finish()
    }
}

impl Client {
    pub(crate) fn new(inner: Arc<Inner>, session: Arc<SessionShared>) -> Self {
        Self {
            inner,
            session,
            waker: None,
        }
    }

    /// Makes every transaction this session submits call `waker` once its
    /// result is published, i.e. when [`TxnHandle::try_result`] has just
    /// become `Some`. An event loop that polls handles uses this to sleep
    /// until one resolves instead of polling on a timer.
    pub fn with_waker(mut self, waker: PublishWaker) -> Self {
        self.waker = Some(waker);
        self
    }

    /// Submits a root transaction without waiting and returns its handle,
    /// acknowledged at [`AckLevel::Validated`]. Equivalent to
    /// [`Client::submit_with`] at the weakest level; see there for the
    /// ack-level semantics.
    pub fn submit(&self, reactor: &str, proc: &str, args: Vec<Value>) -> Result<TxnHandle> {
        self.submit_with(reactor, proc, args, AckLevel::Validated)
    }

    /// Submits a root transaction without waiting and returns its handle.
    /// Any number of handles may be in flight; submission order does not
    /// constrain commit order (transactions are independent roots).
    ///
    /// The [`AckLevel`] is recorded on the handle and selects the guarantee
    /// [`TxnHandle::wait_acked`] provides: `Validated` resolves at OCC
    /// validation time, `Durable` once the commit epoch group-committed.
    /// `Replicated` is accepted for API uniformity but — in process, where
    /// no follower exists — waits like `Durable`: the replication gate
    /// lives in the wire server's reply path, which holds replies until a
    /// follower durably applied the commit epoch.
    pub fn submit_with(
        &self,
        reactor: &str,
        proc: &str,
        args: Vec<Value>,
        ack: AckLevel,
    ) -> Result<TxnHandle> {
        // Everything that can reject the submission happens here, before
        // any accounting, so counters only ever cover transactions that
        // actually enter the system.
        let reactor_id = self.inner.validate_root(reactor)?;

        self.session.on_submit();
        let metrics = Arc::clone(&self.inner.metrics);
        let in_flight = metrics.add(Count::HandlesInFlight, 1);
        metrics.max(Count::HandlesInFlightHwm, in_flight);
        let session = Arc::clone(&self.session);
        let hook: FulfillHook = Box::new(move |result| {
            let committed = result.is_ok();
            let reason = result.as_ref().err().map(AbortReason::classify);
            session.on_resolve(committed, reason);
            metrics.sub(Count::HandlesInFlight, 1);
            let outcome = if committed {
                Count::ClientCommitted
            } else {
                Count::ClientAborted
            };
            metrics.add(outcome, 1);
        });
        // enqueue_root cannot fail: a rejected or abandoned request drops
        // its writer, which resolves the future with an error and fires the
        // hook — the accounting above always balances.
        let future =
            self.inner
                .enqueue_root(reactor_id, proc, args, Some(hook), self.waker.clone());
        Ok(TxnHandle {
            future,
            inner: Arc::clone(&self.inner),
            session: Arc::clone(&self.session),
            ack,
            timeout_recorded: AtomicBool::new(false),
        })
    }

    /// Submits a batch of root transactions back to back (pipelined) and
    /// returns their handles in submission order. Fail-fast: an invalid
    /// call stops the batch and returns the error; earlier calls are
    /// already in flight and run to completion.
    pub fn submit_batch(&self, calls: impl IntoIterator<Item = Call>) -> Result<Vec<TxnHandle>> {
        let calls = calls.into_iter();
        let mut handles = Vec::with_capacity(calls.size_hint().0);
        for call in calls {
            handles.push(self.submit(&call.reactor, &call.proc, call.args)?);
        }
        Ok(handles)
    }

    /// Invokes a root transaction and waits for its validation-time result
    /// (see [`TxnHandle::wait`] for the exact guarantee). Equivalent to
    /// [`Client::invoke_with`] at [`AckLevel::Validated`].
    pub fn invoke(&self, reactor: &str, proc: &str, args: Vec<Value>) -> Result<Value> {
        self.invoke_with(reactor, proc, args, AckLevel::Validated)
    }

    /// Invokes a root transaction and waits until it is acknowledged at
    /// `ack` (see [`Client::submit_with`] for the per-level guarantee).
    pub fn invoke_with(
        &self,
        reactor: &str,
        proc: &str,
        args: Vec<Value>,
        ack: AckLevel,
    ) -> Result<Value> {
        self.submit_with(reactor, proc, args, ack)?.wait_acked()
    }

    /// Invokes a root transaction and acknowledges it only once it is
    /// durable. Thin wrapper over [`Client::invoke_with`] with
    /// [`AckLevel::Durable`], kept for source compatibility; prefer the
    /// explicit-level form in new code.
    pub fn invoke_durable(&self, reactor: &str, proc: &str, args: Vec<Value>) -> Result<Value> {
        self.invoke_with(reactor, proc, args, AckLevel::Durable)
    }

    /// Invokes a root transaction, transparently re-submitting it when it
    /// aborts for a transient reason according to `policy`. OCC validation
    /// aborts are the normal casualty of optimistic concurrency under
    /// contention; user aborts are application outcomes and propagate
    /// immediately.
    pub fn invoke_with_retry(
        &self,
        reactor: &str,
        proc: &str,
        args: Vec<Value>,
        policy: &RetryPolicy,
    ) -> Result<Value> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.invoke(reactor, proc, args.clone()) {
                Ok(value) => return Ok(value),
                Err(error) if policy.should_retry(&error, attempt) => {
                    let backoff = policy.backoff_for(attempt);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                }
                Err(error) => return Err(error),
            }
        }
    }

    /// Snapshot of this session's statistics.
    pub fn stats(&self) -> SessionStats {
        self.session.snapshot()
    }
}

/// Handle to one submitted root transaction.
///
/// The handle is the promise of §2.2.1 plus durability awareness: `wait`
/// resolves at validation time (results may precede durability by up to one
/// epoch), `wait_durable` resolves at group-commit time (the Silo-faithful
/// acknowledgement), and `try_result` polls.
pub struct TxnHandle {
    future: ReactorFuture,
    inner: Arc<Inner>,
    session: Arc<SessionShared>,
    /// Ack level requested at submission; drives [`TxnHandle::wait_acked`].
    ack: AckLevel,
    timeout_recorded: AtomicBool,
}

impl std::fmt::Debug for TxnHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnHandle")
            .field("resolved", &self.future.is_resolved())
            .field("commit_epoch", &self.future.commit_epoch())
            .finish()
    }
}

impl TxnHandle {
    /// Blocks until the transaction commits or aborts and returns its
    /// result. Resolution happens at **validation time**: the writes are
    /// installed and visible, but the commit's epoch may not be durable yet
    /// — a crash within the group-commit window can lose a transaction
    /// acknowledged this way. Use [`TxnHandle::wait_durable`] when the
    /// acknowledgement must imply persistence.
    pub fn wait(&self) -> Result<Value> {
        self.wait_timeout(CLIENT_TIMEOUT)
    }

    /// Like [`TxnHandle::wait`] with a caller-chosen timeout; an elapsed
    /// timeout reports a runtime error and counts as a client-visible
    /// timeout (once per handle).
    pub fn wait_timeout(&self, timeout: Duration) -> Result<Value> {
        let clock = self.inner.metrics.clock();
        let result = self.future.get_timeout(timeout);
        if let Some(started) = clock {
            // The client-observed span: queueing + execute + commit.
            self.inner
                .metrics
                .record_elapsed(Phase::SessionWait, usize::MAX, started);
        }
        if result.is_err() && !self.future.is_resolved() {
            // The error came from the timeout, not from the transaction.
            if !self.timeout_recorded.swap(true, Ordering::Relaxed) {
                self.session.on_timeout();
                self.inner.metrics.add(Count::ClientTimeouts, 1);
            }
        }
        result
    }

    /// Returns the result if the transaction already resolved, without
    /// blocking.
    pub fn try_result(&self) -> Option<Result<Value>> {
        self.future.try_get()
    }

    /// True once the transaction committed or aborted.
    pub fn is_resolved(&self) -> bool {
        self.future.is_resolved()
    }

    /// Blocks until the transaction's result is **durable**, then returns
    /// it: the WAL's durable epoch must cover the commit epoch, i.e. the
    /// group commit for the transaction's epoch completed (fsync + marker
    /// advance). This is the acknowledgement rule of Silo/SiloR — under
    /// epoch-sync durability, a transaction acknowledged by
    /// `wait_durable` survives any crash.
    ///
    /// The call demands that group commit rather than wait out the
    /// interval. One that fails meanwhile is returned as the error.
    ///
    /// With durability off there is no log to wait for, so the call is
    /// equivalent to [`TxnHandle::wait`]. Degenerate cases resolve
    /// immediately either way: aborted transactions (the error propagates;
    /// nothing was installed) and read-only transactions that wrote
    /// nothing.
    pub fn wait_durable(&self) -> Result<Value> {
        let value = self.wait()?;
        let Some(epoch) = self.future.commit_epoch() else {
            return Ok(value);
        };
        let Some(wal) = &self.inner.wal else {
            return Ok(value);
        };
        let clock = self.inner.metrics.clock();
        wal.wait_durable(epoch)
            .map_err(|e| TxnError::Runtime(format!("group commit failed: {e}")))?;
        if let Some(started) = clock {
            let ns = self
                .inner
                .metrics
                .record_elapsed(Phase::DurableAck, usize::MAX, started);
            self.inner
                .metrics
                .trace(usize::MAX, 0, TraceKind::DurableAck, ns);
        }
        Ok(value)
    }

    /// Epoch of the commit TID once committed; `None` while pending, after
    /// an abort, and for transactions with nothing to make durable.
    pub fn commit_epoch(&self) -> Option<u64> {
        self.future.commit_epoch()
    }

    /// The [`AckLevel`] this transaction was submitted with.
    pub fn ack_level(&self) -> AckLevel {
        self.ack
    }

    /// Blocks until the transaction is acknowledged at the level it was
    /// submitted with ([`Client::submit_with`]): `Validated` waits like
    /// [`TxnHandle::wait`], `Durable` like [`TxnHandle::wait_durable`].
    /// `Replicated` also waits for durability — in process there is no
    /// follower to wait for; the replication gate is enforced by the wire
    /// server's reply path, not by the embedded engine.
    pub fn wait_acked(&self) -> Result<Value> {
        if self.ack.requires_durable() {
            self.wait_durable()
        } else {
            self.wait()
        }
    }
}

/// Retry discipline for transient (concurrency-control) aborts.
///
/// OCC aborts are not failures, they are the protocol asking the client to
/// try again; this policy bounds how often and how eagerly. Backoff doubles
/// per attempt from [`RetryPolicy::with_backoff`]'s base, capped at 5 ms so
/// a contended hot key cannot park clients for long.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    max_attempts: u32,
    base_backoff: Duration,
    retry_dangerous: bool,
}

/// Upper bound on a single backoff sleep.
const MAX_BACKOFF: Duration = Duration::from_millis(5);

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::occ()
    }
}

impl RetryPolicy {
    /// Default policy for OCC front ends: up to 10 attempts, 20 µs base
    /// backoff doubling per attempt, dangerous-structure aborts retried
    /// (they are scheduling races, transient like validation aborts).
    pub fn occ() -> Self {
        Self {
            max_attempts: 10,
            base_backoff: Duration::from_micros(20),
            retry_dangerous: true,
        }
    }

    /// Never retry: every abort propagates to the caller.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            retry_dangerous: false,
        }
    }

    /// Caps the total number of attempts (first try included; clamped to at
    /// least one).
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Sets the base backoff slept after the first transient abort; it
    /// doubles per attempt up to 5 ms.
    pub fn with_backoff(mut self, base: Duration) -> Self {
        self.base_backoff = base;
        self
    }

    /// Whether dangerous-structure aborts (§2.2.4 safety condition) are
    /// retried like validation aborts.
    pub fn with_retry_dangerous(mut self, retry: bool) -> Self {
        self.retry_dangerous = retry;
        self
    }

    /// True when `error` after `attempt` completed attempts warrants
    /// another try.
    pub fn should_retry(&self, error: &TxnError, attempt: u32) -> bool {
        if attempt >= self.max_attempts {
            return false;
        }
        error.is_cc_abort() || (self.retry_dangerous && error.is_dangerous_structure())
    }

    /// Backoff to sleep after `attempt` completed attempts.
    fn backoff_for(&self, attempt: u32) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let factor = 1u32 << attempt.min(8).saturating_sub(1);
        (self.base_backoff * factor).min(MAX_BACKOFF)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_policy_classifies_errors() {
        let policy = RetryPolicy::occ();
        assert!(policy.should_retry(&TxnError::ValidationFailed, 1));
        assert!(policy.should_retry(
            &TxnError::DangerousStructure {
                reactor: "r".into()
            },
            1
        ));
        assert!(!policy.should_retry(&TxnError::UserAbort("no".into()), 1));
        assert!(!policy.should_retry(&TxnError::ValidationFailed, 10));
        assert!(!RetryPolicy::none().should_retry(&TxnError::ValidationFailed, 1));
        assert!(
            !RetryPolicy::occ().with_retry_dangerous(false).should_retry(
                &TxnError::DangerousStructure {
                    reactor: "r".into()
                },
                1
            )
        );
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy::occ().with_backoff(Duration::from_micros(100));
        assert_eq!(policy.backoff_for(1), Duration::from_micros(100));
        assert_eq!(policy.backoff_for(2), Duration::from_micros(200));
        assert_eq!(policy.backoff_for(3), Duration::from_micros(400));
        assert_eq!(policy.backoff_for(30), MAX_BACKOFF);
        assert_eq!(RetryPolicy::none().backoff_for(3), Duration::ZERO);
    }
}
