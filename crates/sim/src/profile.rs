//! Transaction profiles: fork-join trees of sub-transaction descriptors.

/// A (sub-)transaction as seen by the simulator: where it runs, how much
/// sequential and overlapped processing it performs, and which children it
/// invokes synchronously or asynchronously. The structure mirrors the
/// fork-join programs of the cost model (§2.4) and is produced by the
/// workload generators from the *same* parameters that drive the real
/// engine.
#[derive(Debug, Clone, PartialEq)]
pub struct SimTxn {
    /// Dense index of the reactor this (sub-)transaction executes on.
    pub reactor: usize,
    /// Sequential processing before the fork point, in microseconds.
    pub p_seq_us: f64,
    /// Processing overlapped with the asynchronous children, in
    /// microseconds.
    pub p_ovp_us: f64,
    /// Children invoked synchronously (each completes before the next
    /// statement).
    pub sync_children: Vec<SimTxn>,
    /// Children invoked asynchronously at the fork point and joined at the
    /// end.
    pub async_children: Vec<SimTxn>,
}

impl SimTxn {
    /// A leaf sub-transaction on `reactor` with the given processing cost.
    pub fn leaf(reactor: usize, p_seq_us: f64) -> Self {
        Self {
            reactor,
            p_seq_us,
            p_ovp_us: 0.0,
            sync_children: Vec::new(),
            async_children: Vec::new(),
        }
    }

    /// Adds a synchronously invoked child.
    pub fn with_sync(mut self, child: SimTxn) -> Self {
        self.sync_children.push(child);
        self
    }

    /// Adds an asynchronously invoked child.
    pub fn with_async(mut self, child: SimTxn) -> Self {
        self.async_children.push(child);
        self
    }

    /// Sets the overlapped processing cost.
    pub fn with_overlap(mut self, p_ovp_us: f64) -> Self {
        self.p_ovp_us = p_ovp_us;
        self
    }

    /// Total processing in the tree (lower bound on work).
    pub fn total_processing_us(&self) -> f64 {
        self.p_seq_us
            + self.p_ovp_us
            + self
                .sync_children
                .iter()
                .chain(self.async_children.iter())
                .map(SimTxn::total_processing_us)
                .sum::<f64>()
    }

    /// Number of sub-transactions in the tree (including this one).
    pub fn subtxn_count(&self) -> usize {
        1 + self
            .sync_children
            .iter()
            .chain(self.async_children.iter())
            .map(SimTxn::subtxn_count)
            .sum::<usize>()
    }

    /// Distinct reactors touched by the tree.
    pub fn reactors_touched(&self) -> Vec<usize> {
        let mut out = vec![self.reactor];
        for c in self.sync_children.iter().chain(self.async_children.iter()) {
            out.extend(c.reactors_touched());
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let t = SimTxn::leaf(0, 5.0)
            .with_sync(SimTxn::leaf(1, 2.0))
            .with_async(SimTxn::leaf(2, 3.0))
            .with_async(SimTxn::leaf(2, 3.0))
            .with_overlap(1.0);
        assert_eq!(t.total_processing_us(), 14.0);
        assert_eq!(t.subtxn_count(), 4);
        assert_eq!(t.reactors_touched(), vec![0, 1, 2]);
    }

    #[test]
    fn leaf_has_no_children() {
        let t = SimTxn::leaf(3, 1.0);
        assert_eq!(t.subtxn_count(), 1);
        assert_eq!(t.reactors_touched(), vec![3]);
    }
}
