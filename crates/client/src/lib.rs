//! Blocking wire client for ReactDB-rs with the pipelined-handle feel of
//! the in-process session API.
//!
//! [`WireClient::connect`] opens one TCP connection — which the server maps
//! 1:1 onto an engine `Client` session — performs the version handshake,
//! and spawns a reader thread. [`WireClient::submit`] then sends a request
//! without waiting for its reply and returns a [`WireHandle`]; many may be
//! in flight, and the reader thread matches responses to handles by
//! correlation id, so responses resolve in whatever order the server
//! produces them. The handle API mirrors the in-process `TxnHandle`:
//! [`WireHandle::wait`], [`WireHandle::wait_timeout`],
//! [`WireHandle::try_result`] and [`WireHandle::commit_epoch`], with
//! the acknowledgement level chosen per request at submit time
//! ([`AckLevel`]: validated, durable, or replicated) rather than at wait
//! time — the ack point must ride in the request because it is the
//! *server* that delays the reply.
//!
//! Transport and protocol failures surface as `TxnError::Runtime` through
//! the same `Result<Value>` the in-process API uses, so workload drivers
//! and the history checker run unchanged against either. A connection that
//! dies resolves every outstanding handle with such an error — nothing
//! blocks forever on a lost reply.
//!
//! The wire format itself lives in [`codec`]; this crate depends only on
//! `reactdb-common`, so linking the driver never pulls in the engine.

pub mod codec;

pub use codec::{Request, Response, WireError, PROTOCOL_VERSION};
pub use reactdb_common::AckLevel;

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use reactdb_common::{Result, TxnError, Value};

/// How a resolved request ended, as stored in its slot.
#[derive(Debug, Clone)]
enum Outcome {
    /// The transaction committed with this value (and epoch, when known).
    Committed {
        value: Value,
        commit_epoch: Option<u64>,
    },
    /// The transaction aborted with the reconstructed engine error.
    Aborted(TxnError),
    /// A metrics request's rendered text.
    Text(String),
    /// A ping came back.
    Pong,
    /// The request failed below the transaction layer (connection lost,
    /// protocol violation, server-side refusal).
    Failed(String),
}

/// One in-flight request's rendezvous point between the submitting thread
/// and the reader thread.
#[derive(Debug)]
struct Slot {
    state: Mutex<Option<Outcome>>,
    resolved: Condvar,
}

impl Slot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(None),
            resolved: Condvar::new(),
        })
    }

    fn resolve(&self, outcome: Outcome) {
        let mut state = self.state.lock().unwrap();
        if state.is_none() {
            *state = Some(outcome);
            self.resolved.notify_all();
        }
    }

    fn wait(&self) -> Outcome {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(outcome) = state.as_ref() {
                return outcome.clone();
            }
            state = self.resolved.wait(state).unwrap();
        }
    }

    fn wait_timeout(&self, timeout: Duration) -> Option<Outcome> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(outcome) = state.as_ref() {
                return Some(outcome.clone());
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self.resolved.wait_timeout(state, deadline - now).unwrap();
            state = guard;
        }
    }

    fn try_get(&self) -> Option<Outcome> {
        self.state.lock().unwrap().clone()
    }
}

struct Shared {
    /// Write half; submissions serialize frame writes through this lock.
    writer: Mutex<TcpStream>,
    /// Unresolved requests by correlation id.
    pending: Mutex<HashMap<u64, Arc<Slot>>>,
    /// Set once when the connection dies; the reason every later submit
    /// and every then-outstanding handle reports.
    dead: Mutex<Option<String>>,
    next_id: AtomicU64,
}

impl Shared {
    /// Marks the connection dead and resolves every outstanding handle, so
    /// no waiter blocks on a reply that will never arrive.
    fn fail_all(&self, reason: &str) {
        {
            let mut dead = self.dead.lock().unwrap();
            if dead.is_none() {
                *dead = Some(reason.to_string());
            }
        }
        let drained: Vec<Arc<Slot>> = self
            .pending
            .lock()
            .unwrap()
            .drain()
            .map(|(_, s)| s)
            .collect();
        for slot in drained {
            slot.resolve(Outcome::Failed(reason.to_string()));
        }
    }
}

/// A blocking, pipelined connection to a `reactdb-server`.
///
/// Cheap to clone (all clones share the connection); dropping the last
/// clone shuts the socket down and joins the reader thread.
pub struct WireClient {
    shared: Arc<Shared>,
    /// Owned by the last clone; used to unblock and join the reader.
    lifecycle: Arc<Lifecycle>,
}

impl Clone for WireClient {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
            lifecycle: Arc::clone(&self.lifecycle),
        }
    }
}

struct Lifecycle {
    stream: TcpStream,
    reader: Mutex<Option<JoinHandle<()>>>,
}

impl Drop for Lifecycle {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(handle) = self.reader.lock().unwrap().take() {
            let _ = handle.join();
        }
    }
}

/// The client side of the protocol-version handshake on a connected
/// stream: send the hello, read the server's. A refused version or a
/// foreign reply is `ConnectionRefused`, naming the [`WireError`]; a read
/// timeout set on the stream bounds the wait.
pub fn handshake(stream: &mut TcpStream) -> std::io::Result<()> {
    stream.write_all(&codec::client_hello())?;
    let mut hello = [0u8; codec::HANDSHAKE_LEN];
    stream.read_exact(&mut hello)?;
    codec::parse_server_hello(&hello)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::ConnectionRefused, e.to_string()))
}

impl WireClient {
    /// Connects, performs the protocol-version handshake, and starts the
    /// reader thread. Handshake failures (magic, version) surface as
    /// `io::Error` with the [`WireError`] rendered in the message.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        handshake(&mut stream)?;

        let shared = Arc::new(Shared {
            writer: Mutex::new(stream.try_clone()?),
            pending: Mutex::new(HashMap::new()),
            dead: Mutex::new(None),
            next_id: AtomicU64::new(1),
        });
        let reader_shared = Arc::clone(&shared);
        let reader_stream = stream.try_clone()?;
        let reader = std::thread::Builder::new()
            .name("reactdb-wire-reader".into())
            .spawn(move || read_loop(reader_stream, reader_shared))?;
        Ok(Self {
            shared,
            lifecycle: Arc::new(Lifecycle {
                stream,
                reader: Mutex::new(Some(reader)),
            }),
        })
    }

    fn send(&self, req: &Request) -> Result<Arc<Slot>> {
        if let Some(reason) = self.shared.dead.lock().unwrap().as_ref() {
            return Err(TxnError::Runtime(format!("wire client: {reason}")));
        }
        let slot = Slot::new();
        self.shared
            .pending
            .lock()
            .unwrap()
            .insert(req.correlation_id(), Arc::clone(&slot));
        let framed = codec::frame(&codec::encode_request(req));
        let write_result = {
            let mut writer = self.shared.writer.lock().unwrap();
            writer.write_all(&framed)
        };
        if let Err(e) = write_result {
            let reason = format!("write failed: {e}");
            // Killing the socket unblocks the reader, which fails the rest.
            let _ = self.lifecycle.stream.shutdown(Shutdown::Both);
            self.shared.fail_all(&reason);
            return Err(TxnError::Runtime(format!("wire client: {reason}")));
        }
        Ok(slot)
    }

    fn next_id(&self) -> u64 {
        self.shared.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Submits a root transaction without waiting, acknowledged at
    /// validation time. Returns a handle; many may be in flight.
    pub fn submit(&self, reactor: &str, procedure: &str, args: Vec<Value>) -> Result<WireHandle> {
        self.submit_with_ack(reactor, procedure, args, AckLevel::Validated)
    }

    /// Submits a root transaction acknowledged only once its commit epoch
    /// is durable on the server (the SiloR rule).
    ///
    /// Thin wrapper over [`WireClient::submit_with_ack`] with
    /// [`AckLevel::Durable`]; prefer the explicit-level form in new code.
    pub fn submit_durable(
        &self,
        reactor: &str,
        procedure: &str,
        args: Vec<Value>,
    ) -> Result<WireHandle> {
        self.submit_with_ack(reactor, procedure, args, AckLevel::Durable)
    }

    /// Submits with an explicit acknowledgement level.
    pub fn submit_with_ack(
        &self,
        reactor: &str,
        procedure: &str,
        args: Vec<Value>,
        ack: AckLevel,
    ) -> Result<WireHandle> {
        let slot = self.send(&Request::Invoke {
            correlation_id: self.next_id(),
            ack,
            reactor: reactor.to_string(),
            procedure: procedure.to_string(),
            args,
        })?;
        Ok(WireHandle { slot })
    }

    /// Submit-and-wait convenience, validation-time acknowledgement.
    pub fn invoke(&self, reactor: &str, procedure: &str, args: Vec<Value>) -> Result<Value> {
        self.submit(reactor, procedure, args)?.wait()
    }

    /// Submit-and-wait convenience with an explicit acknowledgement
    /// level.
    pub fn invoke_with(
        &self,
        reactor: &str,
        procedure: &str,
        args: Vec<Value>,
        ack: AckLevel,
    ) -> Result<Value> {
        self.submit_with_ack(reactor, procedure, args, ack)?.wait()
    }

    /// Submit-and-wait convenience, durable acknowledgement.
    ///
    /// Thin wrapper over [`WireClient::invoke_with`] with
    /// [`AckLevel::Durable`]; prefer the explicit-level form in new code.
    pub fn invoke_durable(
        &self,
        reactor: &str,
        procedure: &str,
        args: Vec<Value>,
    ) -> Result<Value> {
        self.submit_durable(reactor, procedure, args)?.wait()
    }

    /// Fetches the server's metrics snapshot rendered as Prometheus text.
    pub fn metrics_prometheus(&self) -> Result<String> {
        let slot = self.send(&Request::Metrics {
            correlation_id: self.next_id(),
        })?;
        match slot.wait() {
            Outcome::Text(text) => Ok(text),
            Outcome::Failed(reason) => Err(TxnError::Runtime(format!("wire client: {reason}"))),
            other => Err(TxnError::Runtime(format!(
                "wire client: unexpected reply to metrics request: {other:?}"
            ))),
        }
    }

    /// Round-trips a liveness probe.
    pub fn ping(&self) -> Result<()> {
        let slot = self.send(&Request::Ping {
            correlation_id: self.next_id(),
        })?;
        match slot.wait() {
            Outcome::Pong => Ok(()),
            Outcome::Failed(reason) => Err(TxnError::Runtime(format!("wire client: {reason}"))),
            other => Err(TxnError::Runtime(format!(
                "wire client: unexpected reply to ping: {other:?}"
            ))),
        }
    }

    /// True once the connection has failed; every subsequent submit will
    /// return the stored reason.
    pub fn is_dead(&self) -> bool {
        self.shared.dead.lock().unwrap().is_some()
    }
}

/// Handle to one in-flight wire transaction, mirroring the in-process
/// `TxnHandle` surface.
pub struct WireHandle {
    slot: Arc<Slot>,
}

impl WireHandle {
    fn interpret(outcome: Outcome) -> Result<Value> {
        match outcome {
            Outcome::Committed { value, .. } => Ok(value),
            Outcome::Aborted(error) => Err(error),
            Outcome::Failed(reason) => Err(TxnError::Runtime(format!("wire client: {reason}"))),
            other => Err(TxnError::Runtime(format!(
                "wire client: unexpected reply to invoke: {other:?}"
            ))),
        }
    }

    /// Blocks until the server replies. With [`AckLevel::Validated`] the
    /// reply arrives at validation time; with [`AckLevel::Durable`] only
    /// once the commit epoch is durable; with [`AckLevel::Replicated`]
    /// only once a follower has durably applied it too.
    pub fn wait(&self) -> Result<Value> {
        Self::interpret(self.slot.wait())
    }

    /// [`wait`](Self::wait) with a deadline; `None` on timeout (the request
    /// stays in flight and may still resolve later).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Value>> {
        self.slot.wait_timeout(timeout).map(Self::interpret)
    }

    /// Polls without blocking.
    pub fn try_result(&self) -> Option<Result<Value>> {
        self.slot.try_get().map(Self::interpret)
    }

    /// True once a reply (or connection failure) has resolved this handle.
    pub fn is_resolved(&self) -> bool {
        self.slot.try_get().is_some()
    }

    /// The epoch the transaction committed in, once resolved and when the
    /// server reported one. `None` while in flight or after an abort.
    pub fn commit_epoch(&self) -> Option<u64> {
        match self.slot.try_get() {
            Some(Outcome::Committed { commit_epoch, .. }) => commit_epoch,
            _ => None,
        }
    }
}

/// Reader thread: accumulates bytes, peels frames, decodes responses and
/// resolves the matching slots. Exits — failing all outstanding handles —
/// on EOF, read error, or the first malformed frame.
fn read_loop(mut stream: TcpStream, shared: Arc<Shared>) {
    let mut buf: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    loop {
        // Drain every complete frame currently buffered.
        loop {
            match codec::next_message(&mut buf, codec::decode_response) {
                Ok(Some(response)) => dispatch(&shared, response),
                Ok(None) => break,
                Err(e) => {
                    shared.fail_all(&format!("protocol error: {e}"));
                    return;
                }
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                shared.fail_all("connection closed by server");
                return;
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => {
                shared.fail_all(&format!("read failed: {e}"));
                return;
            }
        }
    }
}

fn dispatch(shared: &Shared, response: Response) {
    let slot = shared
        .pending
        .lock()
        .unwrap()
        .remove(&response.correlation_id());
    // A response for an id we never issued (or already resolved) is
    // dropped: the server is the authority on completion, and strictness
    // here would kill a connection that is otherwise healthy.
    let Some(slot) = slot else { return };
    let outcome = match response {
        Response::TxnOk {
            value,
            commit_epoch,
            ..
        } => Outcome::Committed {
            value,
            commit_epoch,
        },
        Response::TxnErr { error, .. } => Outcome::Aborted(error),
        Response::MetricsText { text, .. } => Outcome::Text(text),
        Response::Pong { .. } => Outcome::Pong,
        Response::ServerError { message, .. } => {
            Outcome::Failed(format!("server error: {message}"))
        }
        // Replication-stream frames only flow on subscribed connections,
        // which a follower drives with its own raw stream loop — an
        // ordinary client treats a stray one as a server error.
        Response::ReplFile { .. } | Response::ReplEpoch { .. } | Response::ReplEnd { .. } => {
            Outcome::Failed("unexpected replication frame on a client connection".into())
        }
    };
    slot.resolve(outcome);
}
