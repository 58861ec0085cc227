//! Transaction executors: request queues plus the threads that drain them.
//!
//! "A transaction executor consists of a thread pool and a request queue,
//! and is responsible for executing requests, namely asynchronous procedure
//! calls. Each transaction executor is pinned to a core." (§3.1). In this
//! reproduction executors are not pinned, because it runs on machines with
//! fewer cores than executors; the queue, the configurable
//! multi-programming level and the cooperative draining while blocked are
//! implemented faithfully.

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::RwLock;
use reactdb_common::{ContainerId, ExecutorId};
use reactdb_txn::TidGen;

use crate::request::Request;

/// Handle to one transaction executor: its queue endpoints and its TID
/// generator. The worker threads themselves are owned by [`crate::ReactDB`].
#[derive(Debug)]
pub struct ExecutorHandle {
    id: ExecutorId,
    container: ContainerId,
    mpl: usize,
    sender: Sender<Request>,
    receiver: Receiver<Request>,
    /// Set at shutdown, once the worker threads are gone: the queue rejects
    /// further requests (the channel itself never disconnects, since this
    /// handle owns both endpoints). A rejected request is dropped, which
    /// resolves its future with an error. An `RwLock` rather than an
    /// atomic: enqueuers hold the read side across the send, so once
    /// [`ExecutorHandle::close`] returns from the write side, no send that
    /// observed the queue open can still be in flight — the post-close
    /// drain provably sees every stranded request.
    closed: RwLock<bool>,
    tidgen: TidGen,
}

impl ExecutorHandle {
    /// Creates an executor handle with an unbounded request queue.
    pub fn new(id: ExecutorId, container: ContainerId, mpl: usize) -> Self {
        let (sender, receiver) = unbounded();
        Self {
            id,
            container,
            mpl: mpl.max(1),
            sender,
            receiver,
            closed: RwLock::new(false),
            tidgen: TidGen::new(),
        }
    }

    /// Executor identifier.
    pub fn id(&self) -> ExecutorId {
        self.id
    }

    /// Container this executor is associated with.
    pub fn container(&self) -> ContainerId {
        self.container
    }

    /// Multi-programming level (number of worker threads draining the
    /// queue).
    pub fn mpl(&self) -> usize {
        self.mpl
    }

    /// Enqueues a request. Returns `false` when the executor has shut down;
    /// the rejected request is dropped, resolving its future (if any) with
    /// a runtime error. The closed check and the send happen under one
    /// read guard, so a send cannot interleave past a concurrent
    /// [`ExecutorHandle::close`].
    pub fn enqueue(&self, request: Request) -> bool {
        let closed = self.closed.read();
        if *closed {
            return false;
        }
        self.sender.send(request).is_ok()
    }

    /// Closes the queue: no worker threads remain, so every request still
    /// queued — or enqueued by a racing submitter from here on — must be
    /// dropped rather than left to strand its client. Taking the write
    /// side drains every in-flight `enqueue` first; afterwards the caller
    /// drains the queue with [`ExecutorHandle::try_recv`] and is
    /// guaranteed to see every request that ever entered it.
    pub fn close(&self) {
        *self.closed.write() = true;
    }

    /// Blocking receive used by the worker loop. Returns `None` once the
    /// queue is closed.
    pub fn recv(&self) -> Option<Request> {
        self.receiver.recv().ok()
    }

    /// Non-blocking receive used while a worker waits on a remote future
    /// (cooperative multitasking).
    pub fn try_recv(&self) -> Option<Request> {
        match self.receiver.try_recv() {
            Ok(req) => Some(req),
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
        }
    }

    /// Number of requests currently queued.
    pub fn queue_len(&self) -> usize {
        self.receiver.len()
    }

    /// The executor's commit-TID generator.
    pub fn tidgen(&self) -> &TidGen {
        &self.tidgen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RootTxn;
    use reactdb_common::TxnId;
    use reactdb_core::ReactorFuture;

    fn dummy_root_request() -> Request {
        let (_future, writer) = ReactorFuture::pending();
        Request::Root {
            root: RootTxn::new(TxnId(0)),
            reactor: reactdb_common::ReactorId(0),
            proc: "p".into(),
            args: vec![],
            writer,
        }
    }

    #[test]
    fn queue_roundtrip() {
        let ex = ExecutorHandle::new(ExecutorId(0), ContainerId(0), 1);
        assert_eq!(ex.mpl(), 1);
        assert!(ex.enqueue(dummy_root_request()));
        assert_eq!(ex.queue_len(), 1);
        assert!(matches!(ex.recv(), Some(Request::Root { .. })));
        assert!(ex.try_recv().is_none());
    }

    #[test]
    fn mpl_is_clamped_to_one() {
        let ex = ExecutorHandle::new(ExecutorId(1), ContainerId(0), 0);
        assert_eq!(ex.mpl(), 1);
    }

    #[test]
    fn closed_queue_rejects_requests_and_resolves_their_futures() {
        let ex = ExecutorHandle::new(ExecutorId(0), ContainerId(0), 1);
        ex.close();
        let (future, writer) = ReactorFuture::pending();
        let rejected = ex.enqueue(Request::Root {
            root: RootTxn::new(TxnId(1)),
            reactor: reactdb_common::ReactorId(0),
            proc: "p".into(),
            args: vec![],
            writer,
        });
        assert!(!rejected, "closed queues reject requests");
        // The dropped writer resolved the future: no client can be
        // stranded behind a request that will never be processed.
        assert!(future.get().is_err());
    }

    #[test]
    fn try_recv_drains_in_fifo_order() {
        let ex = ExecutorHandle::new(ExecutorId(0), ContainerId(0), 2);
        ex.enqueue(Request::Shutdown);
        ex.enqueue(dummy_root_request());
        assert!(matches!(ex.try_recv(), Some(Request::Shutdown)));
        assert!(matches!(ex.try_recv(), Some(Request::Root { .. })));
        assert!(ex.try_recv().is_none());
    }
}
