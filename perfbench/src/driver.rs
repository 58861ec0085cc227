//! Generator threads: one session each, closed loop (depth 1) or open loop
//! (fixed rate, timed from each request's due time). Everything a thread
//! observes goes into its own preallocated [`ThreadLog`]; nothing is shared
//! while the clock runs.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use reactdb_client::{AckLevel, WireClient, WireHandle};
use reactdb_common::{Result, TxnError, Value};
use reactdb_engine::{Client, TxnHandle};

use crate::stats::{due_ns, Sample};

/// A reply slower than this is a timeout: the request counts as failed and
/// the generator moves on.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Attempts per request before a concurrency-control abort counts as a
/// failure. OCC aborts ask the client to try again; ten in a row on these
/// workloads means the system is livelocked, not unlucky.
const MAX_ATTEMPTS: u32 = 10;

/// An open-loop send later than this after its due time is a late send.
const LATE_SEND: Duration = Duration::from_millis(1);

/// A send later than one group-commit period joins a later commit group than
/// it was due for. A run where more than a tenth of the sends are this late
/// has a generator that cannot keep its schedule, and is invalid. The
/// threshold is not tighter because the machine, not the database, stalls
/// generator threads: a time slice (~3 ms) a few times a second, and
/// 0.1-0.5 s a few times an hour, after which every send is late until the
/// thread has caught up. The windowed medians see past such a stall.
const VERY_LATE_SEND: Duration = Duration::from_millis(crate::workloads::GROUP_COMMIT_MS);

/// One in `SPAN_SAMPLE` requests of a traced run keeps its spans.
const SPAN_SAMPLE: u64 = 16;

/// One root-transaction call, as a workload generator produces it.
#[derive(Debug, Clone)]
pub struct Invocation {
    pub reactor: String,
    pub proc: &'static str,
    pub args: Vec<Value>,
}

/// What carries a generator thread's requests into the system.
pub enum Session {
    /// A TCP connection to the wire server; every request asks for `ack`.
    Wire { client: WireClient, ack: AckLevel },
    /// An in-process engine session.
    Embedded(Client),
}

enum Pending {
    Wire(WireHandle),
    Embedded(TxnHandle),
}

impl Session {
    fn submit(&self, inv: &Invocation) -> Result<Pending> {
        match self {
            Session::Wire { client, ack } => client
                .submit_with_ack(&inv.reactor, inv.proc, inv.args.clone(), *ack)
                .map(Pending::Wire),
            Session::Embedded(client) => client
                .submit(&inv.reactor, inv.proc, inv.args.clone())
                .map(Pending::Embedded),
        }
    }
}

impl Pending {
    /// Blocks until the reply arrives or `timeout` passes (`None`).
    fn wait(&self, timeout: Duration) -> Option<Result<Value>> {
        match self {
            Pending::Wire(h) => h.wait_timeout(timeout),
            Pending::Embedded(h) => {
                let result = h.wait_timeout(timeout);
                // The in-process handle reports a timeout as an error; only
                // an unresolved handle tells it from the transaction's own.
                (result.is_ok() || h.is_resolved()).then_some(result)
            }
        }
    }
}

/// How one attempt ended.
enum Outcome {
    Committed,
    UserAbort,
    /// Concurrency-control or dangerous-structure abort: send it again.
    Retry,
    Failed(String),
}

fn classify(reply: Option<Result<Value>>) -> Outcome {
    match reply {
        None => Outcome::Failed("timeout".into()),
        Some(Ok(_)) => Outcome::Committed,
        Some(Err(TxnError::UserAbort(_))) => Outcome::UserAbort,
        Some(Err(e)) if e.is_cc_abort() || e.is_dangerous_structure() => Outcome::Retry,
        Some(Err(e)) => Outcome::Failed(e.to_string()),
    }
}

/// A span of the harness's own trace. Spans of one request share `request`;
/// `gen`, `submit` and `wait` name `request` as the span that caused them.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub thread: usize,
    pub request: u64,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Counts and time sums of one generator thread, or of several added up.
#[derive(Debug, Default, Clone)]
pub struct Totals {
    /// Submissions, retries included.
    pub attempts: u64,
    /// Attempts that ended in a concurrency-control or dangerous-structure
    /// abort (and were sent again unless attempts ran out).
    pub cc_aborts: u64,
    pub committed: u64,
    pub user_aborts: u64,
    /// Requests that ended in a runtime or transport error, a timeout, or
    /// `MAX_ATTEMPTS` aborts in a row.
    pub failed: u64,
    /// Completed requests slower than the workload's latency limit.
    pub over_limit: u64,
    /// Open loop: sends, and sends more than `LATE_SEND` and more than
    /// `VERY_LATE_SEND` after their due time.
    pub sends: u64,
    pub late_sends: u64,
    pub very_late_sends: u64,
    /// Latency of every completed request, and the time spent inside the
    /// generator, inside submit calls and blocked in waits, in nanoseconds.
    pub latency_ns: u64,
    pub gen_ns: u64,
    pub submit_ns: u64,
    pub wait_ns: u64,
}

impl Totals {
    pub fn add(&mut self, other: &Totals) {
        self.attempts += other.attempts;
        self.cc_aborts += other.cc_aborts;
        self.committed += other.committed;
        self.user_aborts += other.user_aborts;
        self.failed += other.failed;
        self.over_limit += other.over_limit;
        self.sends += other.sends;
        self.late_sends += other.late_sends;
        self.very_late_sends += other.very_late_sends;
        self.latency_ns += other.latency_ns;
        self.gen_ns += other.gen_ns;
        self.submit_ns += other.submit_ns;
        self.wait_ns += other.wait_ns;
    }

    /// Requests that completed: commits and user aborts.
    pub fn completed(&self) -> u64 {
        self.committed + self.user_aborts
    }
}

/// Everything one generator thread saw.
#[derive(Default)]
pub struct ThreadLog {
    /// Completed requests (commits and user aborts), in completion order.
    pub samples: Vec<Sample>,
    pub totals: Totals,
    pub first_error: Option<String>,
    pub spans: Vec<Span>,
}

impl ThreadLog {
    fn with_capacity(samples: usize) -> Self {
        Self {
            samples: Vec::with_capacity(samples),
            ..Self::default()
        }
    }
}

/// What every generator thread of a run shares.
pub struct RunCtl<'a> {
    /// The start barrier's release time; sample times count from here.
    pub start: Instant,
    pub stop: &'a AtomicBool,
    /// The workload's latency limit.
    pub limit: Duration,
    /// Keep spans (the traced pass).
    pub spans: bool,
    /// Sample slots to preallocate per thread.
    pub capacity: usize,
}

/// One request's timeline so far.
struct Timeline {
    request: u64,
    gen_start: Instant,
    gen_end: Instant,
    /// Latency counts from here: first send (closed) or due time (open).
    origin: Instant,
    attempts: u32,
}

struct Recorder<'a> {
    ctl: &'a RunCtl<'a>,
    thread: usize,
    log: ThreadLog,
}

impl<'a> Recorder<'a> {
    fn new(ctl: &'a RunCtl<'a>, thread: usize) -> Self {
        Self {
            ctl,
            thread,
            log: ThreadLog::with_capacity(ctl.capacity),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.ctl.start).as_nanos() as u64
    }

    fn span(&mut self, t: &Timeline, name: &'static str, start: Instant, end: Instant) {
        if self.ctl.spans && t.request.is_multiple_of(SPAN_SAMPLE) {
            let span = Span {
                thread: self.thread,
                request: t.request,
                name,
                parent: (name != "request").then_some("request"),
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            };
            self.log.spans.push(span);
        }
    }

    fn generated(&mut self, t: &Timeline) {
        self.log.totals.gen_ns += (t.gen_end - t.gen_start).as_nanos() as u64;
        self.span(t, "gen", t.gen_start, t.gen_end);
    }

    fn submitted(&mut self, t: &Timeline, start: Instant, end: Instant) {
        self.log.totals.attempts += 1;
        self.log.totals.submit_ns += (end - start).as_nanos() as u64;
        self.span(t, "submit", start, end);
    }

    fn waited(&mut self, t: &Timeline, start: Instant, end: Instant) {
        self.log.totals.wait_ns += end.saturating_duration_since(start).as_nanos() as u64;
        self.span(t, "wait", start, end);
    }

    /// Records a finished attempt. Returns true when the request must be
    /// sent again.
    fn finished(&mut self, t: &Timeline, outcome: Outcome, done: Instant) -> bool {
        let committed = match outcome {
            Outcome::Committed => true,
            Outcome::UserAbort => false,
            Outcome::Retry => {
                self.log.totals.cc_aborts += 1;
                if t.attempts < MAX_ATTEMPTS {
                    return true;
                }
                self.fail(format!("{MAX_ATTEMPTS} aborts in a row"));
                return false;
            }
            Outcome::Failed(why) => {
                self.fail(why);
                return false;
            }
        };
        let latency = done.saturating_duration_since(t.origin);
        self.log.totals.committed += u64::from(committed);
        self.log.totals.user_aborts += u64::from(!committed);
        self.log.totals.over_limit += u64::from(latency > self.ctl.limit);
        self.log.totals.latency_ns += latency.as_nanos() as u64;
        self.log.samples.push(Sample {
            done_ns: self.ns(done),
            latency_ns: latency.as_nanos() as u64,
            committed,
        });
        self.span(t, "request", t.gen_start, done);
        false
    }

    fn fail(&mut self, why: String) {
        self.log.totals.failed += 1;
        self.log.first_error.get_or_insert(why);
    }
}

/// Depth-1 closed loop: the next request is generated only after the
/// previous one completed, so a slower system is offered less load.
pub fn closed_loop(
    session: &Session,
    gen: &mut dyn FnMut() -> Invocation,
    ctl: &RunCtl<'_>,
    thread: usize,
) -> ThreadLog {
    let mut rec = Recorder::new(ctl, thread);
    let mut request = 0u64;
    while !ctl.stop.load(Ordering::Relaxed) {
        let gen_start = Instant::now();
        let inv = gen();
        let gen_end = Instant::now();
        let mut t = Timeline {
            request,
            gen_start,
            gen_end,
            origin: gen_end,
            attempts: 0,
        };
        request += 1;
        rec.generated(&t);
        loop {
            t.attempts += 1;
            let submit_start = Instant::now();
            let pending = session.submit(&inv);
            let submit_end = Instant::now();
            rec.submitted(&t, submit_start, submit_end);
            let reply = match pending {
                Ok(p) => p.wait(REQUEST_TIMEOUT),
                Err(e) => Some(Err(e)),
            };
            // Completion is stamped the moment the blocking wait returns.
            let done = Instant::now();
            rec.waited(&t, submit_end, done);
            if !rec.finished(&t, classify(reply), done) {
                break;
            }
        }
    }
    rec.log
}

struct InFlight {
    timeline: Timeline,
    inv: Invocation,
    pending: Pending,
    submitted: Instant,
}

/// Open loop: `threads` generators share `rate_per_s`; request `i` of a
/// thread is due at `due_ns(i, ..)` after the start barrier whatever the
/// system does, and its latency counts from that due time, so a stall is
/// charged to every request it delays. While a thread waits for the next due
/// time it blocks on its oldest outstanding handle, and stamps completion
/// when that wait returns — never at the next send.
pub fn open_loop(
    session: &Session,
    gen: &mut dyn FnMut() -> Invocation,
    ctl: &RunCtl<'_>,
    thread: usize,
    threads: u64,
    rate_per_s: u64,
) -> ThreadLog {
    let mut rec = Recorder::new(ctl, thread);
    let mut queue: VecDeque<InFlight> = VecDeque::new();
    let mut i = 0u64;
    while !ctl.stop.load(Ordering::Relaxed) {
        let due = ctl.start + Duration::from_nanos(due_ns(i, threads, rate_per_s));
        let gen_start = Instant::now();
        let inv = gen();
        let gen_end = Instant::now();
        let timeline = Timeline {
            request: i,
            gen_start,
            gen_end,
            origin: due,
            attempts: 0,
        };
        rec.generated(&timeline);
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            if !reap_front(session, &mut queue, &mut rec, due - now) {
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
            }
        }
        rec.log.totals.sends += 1;
        let late = Instant::now().saturating_duration_since(due);
        rec.log.totals.late_sends += u64::from(late > LATE_SEND);
        rec.log.totals.very_late_sends += u64::from(late > VERY_LATE_SEND);
        send(session, &mut queue, &mut rec, timeline, inv);
        i += 1;
    }
    while !queue.is_empty() {
        reap_front(session, &mut queue, &mut rec, REQUEST_TIMEOUT);
    }
    rec.log
}

fn send(
    session: &Session,
    queue: &mut VecDeque<InFlight>,
    rec: &mut Recorder<'_>,
    mut timeline: Timeline,
    inv: Invocation,
) {
    timeline.attempts += 1;
    let submit_start = Instant::now();
    let pending = session.submit(&inv);
    let submitted = Instant::now();
    rec.submitted(&timeline, submit_start, submitted);
    match pending {
        Ok(pending) => queue.push_back(InFlight {
            timeline,
            inv,
            pending,
            submitted,
        }),
        Err(e) => {
            rec.finished(&timeline, classify(Some(Err(e))), submitted);
        }
    }
}

/// Blocks on the oldest outstanding request for at most `patience`. Returns
/// false when nothing is outstanding; true after a reply (recorded, and
/// resent when it was an abort) or after `patience` ran out.
fn reap_front(
    session: &Session,
    queue: &mut VecDeque<InFlight>,
    rec: &mut Recorder<'_>,
    patience: Duration,
) -> bool {
    let Some(front) = queue.front() else {
        return false;
    };
    let overdue = front.submitted.elapsed() >= REQUEST_TIMEOUT;
    let reply = front.pending.wait(patience);
    let done = Instant::now();
    if reply.is_none() && !overdue {
        return true;
    }
    let front = queue.pop_front().expect("front was just borrowed");
    rec.waited(&front.timeline, front.submitted, done);
    if rec.finished(&front.timeline, classify(reply), done) {
        send(session, queue, rec, front.timeline, front.inv);
    }
    true
}
