//! The computational cost model for fork-join sub-transactions (Figure 3,
//! §2.4).
//!
//! A *fork-join* sub-transaction consists of (a) sequential logic,
//! potentially with synchronous calls to child sub-transactions, and
//! (b) parallel logic in which all asynchronous invocations happen at one
//! program point, are optionally overlapped with synchronous logic, and are
//! then collected. The latency of such a sub-transaction `ST` running on
//! reactor/executor `k` is modelled as
//!
//! ```text
//! L(ST) = Pseq(ST)
//!       + Σ_{c ∈ syncseq(ST)}  L(c)
//!       + Σ_{k' ∈ dest(syncseq(ST))} (Cs(k,k') + Cr(k',k))
//!       + max( max_{c ∈ async(ST)} ( L(c) + Cr(dest(c),k)
//!                                    + Σ_{k'' ∈ dest(prefix(async(ST),c))} Cs(k,k'') ),
//!              Povp(ST) + Σ_{c ∈ syncovp(ST)} L(c)
//!                       + Σ_{k' ∈ dest(syncovp(ST))} (Cs(k,k') + Cr(k',k)) )
//! ```
//!
//! where `Cs(k,k')` is the cost of sending an invocation from `k` to `k'`
//! and `Cr(k',k)` the cost of receiving its result. The same formula applies
//! recursively to children, and to root transactions modulo commit and
//! input-generation overheads (which are reported separately, as in
//! Figure 6).

/// Calibrated cost-model parameters (all in microseconds). Communication
/// between co-located executors ("local") is distinguished from
/// communication between distinct executors ("remote"): the paper's §4.2.1
/// observes a marked asymmetry between `Cs` (atomic enqueue) and `Cr`
/// (thread switch on the receive path), which these defaults mirror.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Cost of sending a sub-transaction invocation to a different executor.
    pub cs_remote_us: f64,
    /// Cost of receiving a result from a different executor.
    pub cr_remote_us: f64,
    /// Cost of sending an invocation handled by the same executor (inlined).
    pub cs_local_us: f64,
    /// Cost of receiving a result from the same executor (inlined).
    pub cr_local_us: f64,
    /// Commit protocol overhead added to root transactions (OCC validation
    /// plus 2PC when more than one container participates).
    pub commit_us: f64,
    /// Input-generation overhead added to root transactions by the
    /// measurement methodology (§4.1.2 includes it in reported latencies).
    pub input_gen_us: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        // Defaults in the ballpark of the paper's calibration on the Xeon
        // machine (§4.2.2): single-digit microseconds per communication,
        // with Cr more expensive than Cs.
        Self {
            cs_remote_us: 2.0,
            cr_remote_us: 6.0,
            cs_local_us: 0.0,
            cr_local_us: 0.0,
            commit_us: 8.0,
            input_gen_us: 2.0,
        }
    }
}

impl CostParams {
    /// Cs between two executors.
    pub fn cs(&self, from: usize, to: usize) -> f64 {
        if from == to {
            self.cs_local_us
        } else {
            self.cs_remote_us
        }
    }

    /// Cr between two executors (result flowing back `from -> to`).
    pub fn cr(&self, from: usize, to: usize) -> f64 {
        if from == to {
            self.cr_local_us
        } else {
            self.cr_remote_us
        }
    }
}

/// A fork-join (sub-)transaction for latency prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct ForkJoinTxn {
    /// Executor (equivalently, the reactor's transaction executor) this
    /// (sub-)transaction runs on.
    pub executor: usize,
    /// Sequential processing cost `Pseq` in microseconds.
    pub p_seq_us: f64,
    /// Processing overlapped with the asynchronous children, `Povp`.
    pub p_ovp_us: f64,
    /// Children invoked synchronously before the fork point (`syncseq`).
    pub sync_seq: Vec<ForkJoinTxn>,
    /// Children invoked asynchronously at the fork point, in invocation
    /// order (`async`).
    pub async_calls: Vec<ForkJoinTxn>,
    /// Children invoked synchronously while the asynchronous ones are in
    /// flight (`syncovp`).
    pub sync_ovp: Vec<ForkJoinTxn>,
}

/// Decomposition of a predicted root-transaction latency into the components
/// plotted in Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    /// Processing of the transaction logic and of synchronous
    /// sub-transactions (first two components of the formula).
    pub sync_execution_us: f64,
    /// Forward communication for synchronous sub-transactions.
    pub cs_us: f64,
    /// Backward communication for synchronous sub-transactions.
    pub cr_us: f64,
    /// The asynchronous/overlapped term (fourth component).
    pub async_execution_us: f64,
    /// Commit and input-generation overheads (root transactions only; not
    /// part of Figure 3 itself).
    pub commit_and_input_us: f64,
}

impl CostBreakdown {
    /// Total predicted latency.
    pub fn total_us(&self) -> f64 {
        self.sync_execution_us
            + self.cs_us
            + self.cr_us
            + self.async_execution_us
            + self.commit_and_input_us
    }
}

impl ForkJoinTxn {
    /// A leaf sub-transaction: pure sequential processing on `executor`.
    pub fn leaf(executor: usize, p_seq_us: f64) -> Self {
        Self {
            executor,
            p_seq_us,
            p_ovp_us: 0.0,
            sync_seq: Vec::new(),
            async_calls: Vec::new(),
            sync_ovp: Vec::new(),
        }
    }

    /// Adds a synchronously invoked child (before the fork point).
    pub fn with_sync(mut self, child: ForkJoinTxn) -> Self {
        self.sync_seq.push(child);
        self
    }

    /// Adds an asynchronously invoked child (at the fork point).
    pub fn with_async(mut self, child: ForkJoinTxn) -> Self {
        self.async_calls.push(child);
        self
    }

    /// Adds a child invoked synchronously but overlapped with the
    /// asynchronous ones.
    pub fn with_sync_ovp(mut self, child: ForkJoinTxn) -> Self {
        self.sync_ovp.push(child);
        self
    }

    /// Sets the overlapped processing cost `Povp`.
    pub fn with_overlapped_processing(mut self, p_ovp_us: f64) -> Self {
        self.p_ovp_us = p_ovp_us;
        self
    }

    /// Predicted latency of this (sub-)transaction per Figure 3, excluding
    /// commit and input-generation overheads.
    pub fn latency_us(&self, params: &CostParams) -> f64 {
        let b = self.breakdown_inner(params);
        b.sync_execution_us + b.cs_us + b.cr_us + b.async_execution_us
    }

    /// Predicted latency of a *root* transaction: Figure 3 plus the commit
    /// and input-generation overheads of the measurement methodology.
    pub fn root_latency_us(&self, params: &CostParams) -> f64 {
        self.latency_us(params) + params.commit_us + params.input_gen_us
    }

    /// Component breakdown of a root transaction (Figure 6).
    pub fn breakdown(&self, params: &CostParams) -> CostBreakdown {
        let mut b = self.breakdown_inner(params);
        b.commit_and_input_us = params.commit_us + params.input_gen_us;
        b
    }

    fn breakdown_inner(&self, params: &CostParams) -> CostBreakdown {
        let k = self.executor;

        // First two components: own sequential processing plus the latency
        // of synchronously invoked children.
        let mut sync_execution = self.p_seq_us;
        let mut cs = 0.0;
        let mut cr = 0.0;
        for child in &self.sync_seq {
            sync_execution += child.latency_us(params);
            cs += params.cs(k, child.executor);
            cr += params.cr(child.executor, k);
        }

        // Fourth component: the fork-join term.
        let mut async_branch: f64 = 0.0;
        let mut send_prefix = 0.0;
        for child in &self.async_calls {
            send_prefix += params.cs(k, child.executor);
            let candidate = child.latency_us(params) + params.cr(child.executor, k) + send_prefix;
            async_branch = async_branch.max(candidate);
        }

        let mut overlap_branch = self.p_ovp_us;
        for child in &self.sync_ovp {
            overlap_branch += child.latency_us(params)
                + params.cs(k, child.executor)
                + params.cr(child.executor, k);
        }

        CostBreakdown {
            sync_execution_us: sync_execution,
            cs_us: cs,
            cr_us: cr,
            async_execution_us: async_branch.max(overlap_branch),
            commit_and_input_us: 0.0,
        }
    }

    /// Total processing cost (sum of all `Pseq`/`Povp` in the tree),
    /// irrespective of scheduling — a lower bound on the work performed.
    pub fn total_processing_us(&self) -> f64 {
        self.p_seq_us
            + self.p_ovp_us
            + self
                .sync_seq
                .iter()
                .chain(self.async_calls.iter())
                .chain(self.sync_ovp.iter())
                .map(|c| c.total_processing_us())
                .sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn params() -> CostParams {
        CostParams {
            cs_remote_us: 2.0,
            cr_remote_us: 6.0,
            cs_local_us: 0.0,
            cr_local_us: 0.0,
            commit_us: 10.0,
            input_gen_us: 2.0,
        }
    }

    #[test]
    fn leaf_latency_is_processing_only() {
        let txn = ForkJoinTxn::leaf(0, 7.5);
        assert_eq!(txn.latency_us(&params()), 7.5);
        assert_eq!(txn.root_latency_us(&params()), 19.5);
    }

    #[test]
    fn synchronous_remote_children_add_up_linearly() {
        // fully-sync multi-transfer shape: n remote children executed one
        // after another.
        let p = params();
        let mut txn = ForkJoinTxn::leaf(0, 1.0);
        for i in 1..=3 {
            txn = txn.with_sync(ForkJoinTxn::leaf(i, 4.0));
        }
        // 1 + 3*4 processing + 3*(2+6) communication
        assert_eq!(txn.latency_us(&p), 1.0 + 12.0 + 24.0);
    }

    #[test]
    fn local_synchronous_children_have_no_communication_cost() {
        let p = params();
        let txn = ForkJoinTxn::leaf(0, 1.0).with_sync(ForkJoinTxn::leaf(0, 4.0));
        assert_eq!(txn.latency_us(&p), 5.0);
    }

    #[test]
    fn asynchronous_children_overlap() {
        let p = params();
        // opt multi-transfer shape: n remote credits overlapped with one
        // local debit.
        let n = 4;
        let mut txn = ForkJoinTxn::leaf(0, 0.0).with_overlapped_processing(2.0);
        for i in 1..=n {
            txn = txn.with_async(ForkJoinTxn::leaf(i, 4.0));
        }
        // async branch: last child pays all n sends: L=4 + Cr=6 + n*Cs=8 => 18
        // overlap branch: 2.0
        assert_eq!(txn.latency_us(&p), 18.0);
        // The async formulation beats the equivalent fully-sync one.
        let mut sync_txn = ForkJoinTxn::leaf(0, 2.0);
        for i in 1..=n {
            sync_txn = sync_txn.with_sync(ForkJoinTxn::leaf(i, 4.0));
        }
        assert!(txn.latency_us(&p) < sync_txn.latency_us(&p));
    }

    #[test]
    fn overlap_branch_dominates_when_local_work_is_large() {
        let p = params();
        let txn = ForkJoinTxn::leaf(0, 0.0)
            .with_overlapped_processing(100.0)
            .with_async(ForkJoinTxn::leaf(1, 4.0));
        assert_eq!(txn.latency_us(&p), 100.0);
    }

    #[test]
    fn breakdown_components_sum_to_total() {
        let p = params();
        let txn = ForkJoinTxn::leaf(0, 3.0)
            .with_sync(ForkJoinTxn::leaf(1, 2.0))
            .with_async(ForkJoinTxn::leaf(2, 5.0))
            .with_overlapped_processing(1.0);
        let b = txn.breakdown(&p);
        assert!((b.total_us() - (txn.latency_us(&p) + p.commit_us + p.input_gen_us)).abs() < 1e-9);
        assert_eq!(b.sync_execution_us, 5.0);
        assert_eq!(b.cs_us, 2.0);
        assert_eq!(b.cr_us, 6.0);
        assert_eq!(b.commit_and_input_us, 12.0);
    }

    #[test]
    fn nested_fork_join_recurses() {
        let p = params();
        let inner = ForkJoinTxn::leaf(1, 1.0).with_async(ForkJoinTxn::leaf(2, 3.0));
        let outer = ForkJoinTxn::leaf(0, 1.0).with_sync(inner.clone());
        // inner latency: 1 + max(3 + 6 + 2, 0) = 12
        assert_eq!(inner.latency_us(&p), 12.0);
        // outer: 1 + 12 + (2+6)
        assert_eq!(outer.latency_us(&p), 21.0);
        assert_eq!(outer.total_processing_us(), 5.0);
    }

    proptest! {
        /// More asynchronicity never increases predicted latency: moving a
        /// remote child from the synchronous-sequential set to the
        /// asynchronous set cannot make the transaction slower.
        #[test]
        fn prop_async_never_slower_than_sync(
            work in proptest::collection::vec(0.1f64..50.0, 1..8),
            p_seq in 0.0f64..20.0,
        ) {
            let p = params();
            let mut sync_txn = ForkJoinTxn::leaf(0, p_seq);
            let mut async_txn = ForkJoinTxn::leaf(0, p_seq);
            for (i, w) in work.iter().enumerate() {
                sync_txn = sync_txn.with_sync(ForkJoinTxn::leaf(i + 1, *w));
                async_txn = async_txn.with_async(ForkJoinTxn::leaf(i + 1, *w));
            }
            prop_assert!(async_txn.latency_us(&p) <= sync_txn.latency_us(&p) + 1e-9);
        }

        /// Latency is monotone in processing cost.
        #[test]
        fn prop_latency_monotone_in_processing(
            base in 0.0f64..50.0,
            extra in 0.0f64..50.0,
        ) {
            let p = params();
            let a = ForkJoinTxn::leaf(0, base).with_async(ForkJoinTxn::leaf(1, base));
            let b = ForkJoinTxn::leaf(0, base + extra).with_async(ForkJoinTxn::leaf(1, base + extra));
            prop_assert!(b.latency_us(&p) + 1e-9 >= a.latency_us(&p));
        }

        /// Latency is never below the critical-path lower bound (own
        /// sequential processing) and never above the fully serialized sum
        /// of all processing plus all possible communication.
        #[test]
        fn prop_latency_bounds(
            work in proptest::collection::vec(0.1f64..50.0, 0..6),
            p_seq in 0.0f64..20.0,
        ) {
            let p = params();
            let mut txn = ForkJoinTxn::leaf(0, p_seq);
            for (i, w) in work.iter().enumerate() {
                txn = txn.with_async(ForkJoinTxn::leaf(i + 1, *w));
            }
            let lat = txn.latency_us(&p);
            prop_assert!(lat >= p_seq - 1e-9);
            let upper = p_seq
                + work.iter().sum::<f64>()
                + work.len() as f64 * (p.cs_remote_us + p.cr_remote_us);
            prop_assert!(lat <= upper + 1e-9);
        }
    }
}
