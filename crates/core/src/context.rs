//! The execution context handed to reactor procedures.
//!
//! A [`ReactorCtx`] gives a procedure exactly the two capabilities the model
//! allows (§2.2.2):
//!
//! 1. declarative operations over the relations encapsulated by the reactor
//!    the procedure is running on — point reads, inserts, updates, deletes,
//!    scans, index lookups and aggregates, all of which are routed through
//!    the transaction's OCC participant so serializability is preserved;
//! 2. [`ReactorCtx::call`] — an asynchronous procedure invocation on another
//!    (or the same) reactor, returning a [`ReactorFuture`]. How the call is
//!    executed (inlined, same-executor synchronous, or dispatched to another
//!    container) is decided by the runtime behind the [`CallBackend`] trait.
//!
//! The context also records the futures of asynchronous children so the
//! runtime can enforce the completion rule: "a transaction or
//! sub-transaction completes only when all its nested sub-transactions
//! complete" (§2.2.3).

use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

use parking_lot::Mutex;
use reactdb_common::{Key, ReactorId, ReactorName, Result, TxnError, Value};
use reactdb_storage::{Partition, Schema, Tuple};
use reactdb_txn::OccTxn;

use crate::future::ReactorFuture;

/// The runtime interface used by [`ReactorCtx::call`] to dispatch
/// sub-transaction invocations. Implemented by the engine's executors and by
/// the simulator; unit tests provide mocks.
pub trait CallBackend {
    /// Invokes `proc(args)` on the reactor named `target` within the current
    /// root transaction, returning the future of its result.
    fn call(&self, target: &ReactorName, proc: &str, args: Vec<Value>) -> Result<ReactorFuture>;

    /// Name of the reactor the current procedure is executing on.
    fn current_reactor(&self) -> &str;
}

/// Execution context of one procedure invocation on one reactor.
pub struct ReactorCtx<'a> {
    reactor_name: ReactorName,
    reactor_id: ReactorId,
    partition: Arc<Partition>,
    occ: Arc<Mutex<OccTxn>>,
    backend: &'a dyn CallBackend,
    pending: Vec<ReactorFuture>,
    compute_units: u64,
}

impl<'a> ReactorCtx<'a> {
    /// Creates a context. Called by the runtimes, not by application code.
    pub fn new(
        reactor_name: ReactorName,
        reactor_id: ReactorId,
        partition: Arc<Partition>,
        occ: Arc<Mutex<OccTxn>>,
        backend: &'a dyn CallBackend,
    ) -> Self {
        Self {
            reactor_name,
            reactor_id,
            partition,
            occ,
            backend,
            pending: Vec::new(),
            compute_units: 0,
        }
    }

    /// Name of the reactor this procedure runs on (`my_name()` in the
    /// paper's pseudocode).
    pub fn reactor_name(&self) -> &str {
        &self.reactor_name
    }

    /// Dense id of the reactor this procedure runs on.
    pub fn reactor_id(&self) -> ReactorId {
        self.reactor_id
    }

    /// Schema of one of this reactor's relations (cloned; schemas are small).
    pub fn schema(&self, relation: &str) -> Result<Schema> {
        Ok(self
            .partition
            .table(self.reactor_id, relation)?
            .schema()
            .clone())
    }

    // ----------------------------------------------------------------
    // Declarative operations on the current reactor's relations.
    // ----------------------------------------------------------------

    /// Point read by primary key.
    pub fn get(&self, relation: &str, key: &Key) -> Result<Option<Tuple>> {
        let table = self.partition.table(self.reactor_id, relation)?;
        self.occ.lock().read(&table, key)
    }

    /// Point read by primary key; missing rows are an error.
    pub fn get_expected(&self, relation: &str, key: &Key) -> Result<Tuple> {
        let table = self.partition.table(self.reactor_id, relation)?;
        self.occ.lock().read_expected(&table, key)
    }

    /// Inserts a new row.
    pub fn insert(&self, relation: &str, row: Tuple) -> Result<()> {
        let table = self.partition.table(self.reactor_id, relation)?;
        self.occ.lock().insert(&table, row)
    }

    /// Replaces an existing row (full image).
    pub fn update(&self, relation: &str, row: Tuple) -> Result<()> {
        let table = self.partition.table(self.reactor_id, relation)?;
        self.occ.lock().update(&table, row)
    }

    /// Read-modify-write of an existing row.
    pub fn update_with<F>(&self, relation: &str, key: &Key, f: F) -> Result<Tuple>
    where
        F: FnOnce(&mut Tuple),
    {
        let table = self.partition.table(self.reactor_id, relation)?;
        self.occ.lock().update_with(&table, key, f)
    }

    /// Deletes a row by primary key.
    pub fn delete(&self, relation: &str, key: &Key) -> Result<()> {
        let table = self.partition.table(self.reactor_id, relation)?;
        self.occ.lock().delete(&table, key)
    }

    /// Full scan of a relation in primary-key order. Like every scan on
    /// this context, it is phantom-safe: the traversed index-node versions
    /// join the transaction's node set and are re-validated at commit.
    pub fn scan(&self, relation: &str) -> Result<Vec<(Key, Tuple)>> {
        self.scan_limit(relation, .., usize::MAX)
    }

    /// Range scan over the primary key.
    pub fn scan_range(
        &self,
        relation: &str,
        low: Bound<&Key>,
        high: Bound<&Key>,
    ) -> Result<Vec<(Key, Tuple)>> {
        self.scan_limit(relation, (low, high), usize::MAX)
    }

    /// Bounded scan with range sugar: accepts any [`RangeBounds`] over
    /// [`Key`], so call sites read like the query they express —
    /// `ctx.scan_bounded("orders", Key::Int(10)..Key::Int(20))`,
    /// `ctx.scan_bounded("orders", Key::Int(10)..)`, or an inclusive
    /// `low..=high`. This is the preferred scan shape: it touches (and
    /// validates) only the index nodes covering the bounds, where a full
    /// [`ReactorCtx::scan`] observes the whole key space.
    pub fn scan_bounded<R>(&self, relation: &str, range: R) -> Result<Vec<(Key, Tuple)>>
    where
        R: RangeBounds<Key>,
    {
        self.scan_limit(relation, range, usize::MAX)
    }

    /// The first `n` visible rows of `range` in primary-key order — "the
    /// oldest pending order", "the next ten". The scan stops at the `n`-th
    /// row: it reads, and validates at commit, only the slots and index
    /// nodes up to there, so a concurrent insert past the last row
    /// returned does not abort the caller, and the rest of the range costs
    /// nothing.
    pub fn scan_limit<R>(&self, relation: &str, range: R, n: usize) -> Result<Vec<(Key, Tuple)>>
    where
        R: RangeBounds<Key>,
    {
        self.scan_walk(relation, range, n, false)
    }

    /// The last `n` visible rows of `range`, in descending primary-key
    /// order — [`ReactorCtx::scan_limit`] walking down from the upper
    /// bound ("the most recent entry").
    pub fn scan_limit_rev<R>(&self, relation: &str, range: R, n: usize) -> Result<Vec<(Key, Tuple)>>
    where
        R: RangeBounds<Key>,
    {
        self.scan_walk(relation, range, n, true)
    }

    fn scan_walk<R>(
        &self,
        relation: &str,
        range: R,
        n: usize,
        reverse: bool,
    ) -> Result<Vec<(Key, Tuple)>>
    where
        R: RangeBounds<Key>,
    {
        let table = self.partition.table(self.reactor_id, relation)?;
        self.occ
            .lock()
            .scan_limit(&table, range.start_bound(), range.end_bound(), n, reverse)
    }

    /// Rows matching a predicate (a scan with a filter applied).
    pub fn select_where<P>(&self, relation: &str, pred: P) -> Result<Vec<(Key, Tuple)>>
    where
        P: Fn(&Tuple) -> bool,
    {
        Ok(self
            .scan(relation)?
            .into_iter()
            .filter(|(_, t)| pred(t))
            .collect())
    }

    /// Rows within a primary-key range matching a predicate — the bounded
    /// counterpart of [`ReactorCtx::select_where`].
    pub fn select_bounded<R, P>(
        &self,
        relation: &str,
        range: R,
        pred: P,
    ) -> Result<Vec<(Key, Tuple)>>
    where
        R: RangeBounds<Key>,
        P: Fn(&Tuple) -> bool,
    {
        Ok(self
            .scan_bounded(relation, range)?
            .into_iter()
            .filter(|(_, t)| pred(t))
            .collect())
    }

    /// `SELECT SUM(column) FROM relation WHERE pred` over the current
    /// reactor's relation. Integers are widened to floats.
    pub fn sum_where<P>(&self, relation: &str, column: &str, pred: P) -> Result<f64>
    where
        P: Fn(&Tuple) -> bool,
    {
        self.sum_bounded(relation, .., column, pred)
    }

    /// `SELECT SUM(column)` over a primary-key range — the bounded
    /// counterpart of [`ReactorCtx::sum_where`]. Integers are widened to
    /// floats.
    pub fn sum_bounded<R, P>(&self, relation: &str, range: R, column: &str, pred: P) -> Result<f64>
    where
        R: RangeBounds<Key>,
        P: Fn(&Tuple) -> bool,
    {
        let table = self.partition.table(self.reactor_id, relation)?;
        let schema = table.schema().clone();
        let pos = schema.require(relation, column)?;
        let rows = self
            .occ
            .lock()
            .scan_range(&table, range.start_bound(), range.end_bound())?;
        Ok(rows
            .iter()
            .filter(|(_, t)| pred(t))
            .map(|(_, t)| match t.at(pos) {
                Value::Int(v) => *v as f64,
                Value::Float(v) => *v,
                _ => 0.0,
            })
            .sum())
    }

    /// Equality lookup on a secondary index of the relation: every visible
    /// row whose index key is `index_key`, in primary-key order.
    pub fn index_lookup(
        &self,
        relation: &str,
        index_id: usize,
        index_key: &Key,
    ) -> Result<Vec<(Key, Tuple)>> {
        self.index_walk(relation, index_id, index_key, usize::MAX, false)
    }

    /// The last `n` rows under `index_key` in primary-key order, descending
    /// ("this customer's latest order"). Like [`ReactorCtx::scan_limit_rev`]
    /// it reads, and validates at commit, only the index entries from the
    /// end of the key's span down to the `n`-th row.
    pub fn index_lookup_rev(
        &self,
        relation: &str,
        index_id: usize,
        index_key: &Key,
        n: usize,
    ) -> Result<Vec<(Key, Tuple)>> {
        self.index_walk(relation, index_id, index_key, n, true)
    }

    fn index_walk(
        &self,
        relation: &str,
        index_id: usize,
        index_key: &Key,
        n: usize,
        reverse: bool,
    ) -> Result<Vec<(Key, Tuple)>> {
        let table = self.partition.table(self.reactor_id, relation)?;
        self.occ
            .lock()
            .secondary_lookup(&table, index_id, index_key, n, reverse)
    }

    // ----------------------------------------------------------------
    // Cross-reactor communication.
    // ----------------------------------------------------------------

    /// Asynchronously invokes `proc(args)` on the reactor named `target`
    /// (the paper's `proc(args) on reactor target` syntax). The returned
    /// future may be awaited with [`ReactorFuture::get`]; if it is never
    /// awaited, the runtime still waits for the sub-transaction to complete
    /// before the enclosing (sub-)transaction completes.
    pub fn call(&mut self, target: &str, proc: &str, args: Vec<Value>) -> Result<ReactorFuture> {
        let future = self.backend.call(&target.to_owned(), proc, args)?;
        self.pending.push(future.clone());
        Ok(future)
    }

    /// Convenience wrapper performing a synchronous call: invoke and
    /// immediately wait for the result.
    pub fn call_sync(&mut self, target: &str, proc: &str, args: Vec<Value>) -> Result<Value> {
        self.call(target, proc, args)?.get()
    }

    /// Requests a user-defined abort of the enclosing root transaction.
    pub fn abort<T>(&self, reason: impl Into<String>) -> Result<T> {
        Err(TxnError::UserAbort(reason.into()))
    }

    /// Simulates CPU-bound application logic (e.g. the `sim_risk` risk
    /// calculation of Figure 1 or the stock-replenishment delay of §4.3.2)
    /// by spinning a deterministic arithmetic loop for `units` iterations.
    /// Returns a value derived from the loop; the result passes through an
    /// optimisation barrier so the spin survives release builds even when
    /// the caller discards it.
    pub fn busy_work(&mut self, units: u64) -> u64 {
        self.compute_units += units;
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15 ^ units;
        for i in 0..units {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            x ^= x >> 29;
        }
        std::hint::black_box(x)
    }

    /// Total busy-work units charged by this procedure invocation; used by
    /// the profiler to attribute processing cost.
    pub fn compute_units(&self) -> u64 {
        self.compute_units
    }

    /// Futures of the asynchronous children spawned by this invocation, in
    /// invocation order. The runtime drains this list to enforce the
    /// completion rule of §2.2.3.
    pub fn take_pending(&mut self) -> Vec<ReactorFuture> {
        std::mem::take(&mut self.pending)
    }

    /// The OCC participant this context writes through. Exposed for the
    /// runtimes and integration tests; application code has no use for it.
    pub fn participant(&self) -> Arc<Mutex<OccTxn>> {
        Arc::clone(&self.occ)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reactdb_common::ContainerId;
    use reactdb_storage::{ColumnType, RelationDef, Schema};

    struct MockBackend {
        name: String,
    }

    impl CallBackend for MockBackend {
        fn call(
            &self,
            target: &ReactorName,
            proc: &str,
            _args: Vec<Value>,
        ) -> Result<ReactorFuture> {
            Ok(ReactorFuture::resolved(Ok(Value::Str(format!(
                "{proc}@{target}"
            )))))
        }
        fn current_reactor(&self) -> &str {
            &self.name
        }
    }

    fn setup() -> (Arc<Partition>, Arc<Mutex<OccTxn>>) {
        let partition = Arc::new(Partition::new());
        partition.create_reactor(
            ReactorId(0),
            &[RelationDef::new(
                "orders",
                Schema::of(
                    &[
                        ("wallet", ColumnType::Int),
                        ("value", ColumnType::Float),
                        ("settled", ColumnType::Bool),
                    ],
                    &["wallet"],
                ),
            )],
        );
        (partition, Arc::new(Mutex::new(OccTxn::new(ContainerId(0)))))
    }

    fn ctx<'a>(
        partition: &Arc<Partition>,
        occ: &Arc<Mutex<OccTxn>>,
        backend: &'a MockBackend,
    ) -> ReactorCtx<'a> {
        ReactorCtx::new(
            "exchange".into(),
            ReactorId(0),
            Arc::clone(partition),
            Arc::clone(occ),
            backend,
        )
    }

    #[test]
    fn crud_and_aggregate_through_context() {
        let (partition, occ) = setup();
        let backend = MockBackend {
            name: "exchange".into(),
        };
        let c = ctx(&partition, &occ, &backend);

        c.insert(
            "orders",
            Tuple::of([Value::Int(1), Value::Float(100.0), Value::Bool(false)]),
        )
        .unwrap();
        c.insert(
            "orders",
            Tuple::of([Value::Int(2), Value::Float(50.0), Value::Bool(true)]),
        )
        .unwrap();
        assert_eq!(
            c.get("orders", &Key::Int(1)).unwrap().unwrap().at(1),
            &Value::Float(100.0)
        );
        assert!(c.get("orders", &Key::Int(9)).unwrap().is_none());

        let unsettled = c
            .sum_where("orders", "value", |t| t.at(2) == &Value::Bool(false))
            .unwrap();
        assert_eq!(unsettled, 100.0);

        c.update_with("orders", &Key::Int(1), |t| {
            t.values_mut()[2] = Value::Bool(true)
        })
        .unwrap();
        let all = c.sum_where("orders", "value", |_| true).unwrap();
        assert_eq!(all, 150.0);

        c.delete("orders", &Key::Int(2)).unwrap();
        assert_eq!(c.scan("orders").unwrap().len(), 1);
        assert_eq!(
            c.select_where("orders", |t| t.at(2) == &Value::Bool(true))
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn bounded_scan_sugar_covers_the_range_forms() {
        let (partition, occ) = setup();
        let backend = MockBackend {
            name: "exchange".into(),
        };
        let c = ctx(&partition, &occ, &backend);
        for w in 0..6i64 {
            c.insert(
                "orders",
                Tuple::of([
                    Value::Int(w),
                    Value::Float(w as f64),
                    Value::Bool(w % 2 == 0),
                ]),
            )
            .unwrap();
        }
        assert_eq!(
            c.scan_bounded("orders", Key::Int(1)..Key::Int(4))
                .unwrap()
                .len(),
            3
        );
        assert_eq!(c.scan_bounded("orders", Key::Int(4)..).unwrap().len(), 2);
        assert_eq!(c.scan_bounded("orders", ..=Key::Int(2)).unwrap().len(), 3);
        let wallets =
            |rows: Vec<(Key, Tuple)>| rows.into_iter().map(|(k, _)| k).collect::<Vec<_>>();
        assert_eq!(
            wallets(c.scan_limit("orders", Key::Int(2).., 2).unwrap()),
            vec![Key::Int(2), Key::Int(3)]
        );
        assert_eq!(
            wallets(c.scan_limit_rev("orders", ..Key::Int(5), 1).unwrap()),
            vec![Key::Int(4)]
        );
        let evens = c
            .select_bounded("orders", Key::Int(0)..=Key::Int(3), |t| {
                t.at(2) == &Value::Bool(true)
            })
            .unwrap();
        assert_eq!(evens.len(), 2);
        let sum = c
            .sum_bounded("orders", Key::Int(2).., "value", |_| true)
            .unwrap();
        assert_eq!(sum, 2.0 + 3.0 + 4.0 + 5.0);
    }

    #[test]
    fn unknown_relation_is_reported() {
        let (partition, occ) = setup();
        let backend = MockBackend {
            name: "exchange".into(),
        };
        let c = ctx(&partition, &occ, &backend);
        assert!(matches!(
            c.get("nope", &Key::Int(1)).unwrap_err(),
            TxnError::UnknownRelation(_)
        ));
        assert!(matches!(
            c.schema("nope").unwrap_err(),
            TxnError::UnknownRelation(_)
        ));
    }

    #[test]
    fn call_records_pending_futures() {
        let (partition, occ) = setup();
        let backend = MockBackend {
            name: "exchange".into(),
        };
        let mut c = ctx(&partition, &occ, &backend);
        let f = c
            .call("MC_US", "calc_risk", vec![Value::Float(1.0)])
            .unwrap();
        assert_eq!(f.get().unwrap(), Value::Str("calc_risk@MC_US".into()));
        let sync = c.call_sync("VISA_DK", "calc_risk", vec![]).unwrap();
        assert_eq!(sync, Value::Str("calc_risk@VISA_DK".into()));
        assert_eq!(c.take_pending().len(), 2);
        assert!(c.take_pending().is_empty());
    }

    #[test]
    fn abort_helper_produces_user_abort() {
        let (partition, occ) = setup();
        let backend = MockBackend {
            name: "exchange".into(),
        };
        let c = ctx(&partition, &occ, &backend);
        let res: Result<()> = c.abort("exposure exceeded");
        assert!(matches!(res.unwrap_err(), TxnError::UserAbort(msg) if msg == "exposure exceeded"));
    }

    #[test]
    fn busy_work_accumulates_units() {
        let (partition, occ) = setup();
        let backend = MockBackend {
            name: "exchange".into(),
        };
        let mut c = ctx(&partition, &occ, &backend);
        let a = c.busy_work(100);
        let b = c.busy_work(100);
        assert_eq!(a, b, "busy work is deterministic for equal inputs");
        assert_eq!(c.compute_units(), 200);
    }

    #[test]
    fn writes_are_visible_after_commit_via_coordinator() {
        use reactdb_txn::{Coordinator, EpochManager, TidGen};
        let (partition, occ) = setup();
        let backend = MockBackend {
            name: "exchange".into(),
        };
        {
            let c = ctx(&partition, &occ, &backend);
            c.insert(
                "orders",
                Tuple::of([Value::Int(7), Value::Float(9.0), Value::Bool(false)]),
            )
            .unwrap();
        }
        let epoch = EpochManager::new();
        let gen = TidGen::new();
        let mut participant = Arc::try_unwrap(occ)
            .expect("sole owner after ctx drop")
            .into_inner();
        Coordinator::commit(std::slice::from_mut(&mut participant), &epoch, &gen).unwrap();
        let table = partition.table(ReactorId(0), "orders").unwrap();
        assert_eq!(table.visible_len(), 1);
    }
}
