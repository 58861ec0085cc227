//! Conflict-serializability formalism for the reactor model (§2.3) and its
//! projection into the classic transactional model (Theorem 2.7).
//!
//! The paper formalises transactions in the reactor model as partial orders
//! of sub-transactions, each a partial order of reads/writes on data items
//! that are *disjoint across reactors*. Serializability is defined exactly
//! as in Bernstein et al. but with sub-transactions in the role of
//! operations and with conflicts determined by their leaf-level basic
//! operations. The projection `P(·)` renames every item `x` of reactor `k`
//! to `k ◦ x` and flattens sub-transactions into plain reads and writes;
//! Theorem 2.7 states that a reactor-model history is serializable iff its
//! projection is.
//!
//! This module provides executable versions of these definitions over
//! *observed histories* (interleaved sequences of basic operations tagged
//! with their transaction, sub-transaction and reactor), a conflict-graph
//! serializability test for both models, and therefore an executable check
//! of the theorem that the test suite exercises with random histories.

use std::collections::{HashMap, HashSet};

/// A basic operation observed during an execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Op {
    /// Root transaction identifier (`i` in `ST_{i,j}^k`).
    pub txn: u64,
    /// Sub-transaction identifier within the transaction (`j`).
    pub sub: u64,
    /// Reactor the sub-transaction executed on (`k`).
    pub reactor: u64,
    /// Data item within the reactor (`x`). Items of different reactors are
    /// disjoint even when the numeric ids collide.
    pub item: u64,
    /// True for a write, false for a read.
    pub is_write: bool,
}

impl Op {
    /// A read of `item` on `reactor` by sub-transaction `(txn, sub)`.
    pub fn read(txn: u64, sub: u64, reactor: u64, item: u64) -> Self {
        Self {
            txn,
            sub,
            reactor,
            item,
            is_write: false,
        }
    }

    /// A write of `item` on `reactor` by sub-transaction `(txn, sub)`.
    pub fn write(txn: u64, sub: u64, reactor: u64, item: u64) -> Self {
        Self {
            txn,
            sub,
            reactor,
            item,
            is_write: true,
        }
    }

    /// True if two operations conflict: same reactor, same item, at least
    /// one write, different transactions.
    pub fn conflicts_with(&self, other: &Op) -> bool {
        self.txn != other.txn
            && self.reactor == other.reactor
            && self.item == other.item
            && (self.is_write || other.is_write)
    }
}

/// An operation of the classic transactional model produced by the
/// projection `P(·)` of Definition 2.3: the item is the concatenation
/// `reactor ◦ item`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClassicOp {
    /// Transaction identifier.
    pub txn: u64,
    /// Projected item name `k ◦ x`, represented as the pair.
    pub item: (u64, u64),
    /// True for a write.
    pub is_write: bool,
}

impl ClassicOp {
    /// True if two classic operations conflict.
    pub fn conflicts_with(&self, other: &ClassicOp) -> bool {
        self.txn != other.txn && self.item == other.item && (self.is_write || other.is_write)
    }
}

/// An observed history in the reactor model: the basic operations of a set
/// of committed transactions, in the total order in which they took effect.
///
/// Using a total order loses no generality for the conflict-serializability
/// test: the induced partial orders of Definitions 2.1–2.6 order exactly the
/// conflicting pairs, and those are recovered from the sequence positions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct History {
    ops: Vec<Op>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a history from a sequence of operations.
    pub fn from_ops(ops: Vec<Op>) -> Self {
        Self { ops }
    }

    /// Appends an operation.
    pub fn push(&mut self, op: Op) {
        self.ops.push(op);
    }

    /// The operations in execution order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Identifiers of the transactions appearing in the history.
    pub fn transactions(&self) -> Vec<u64> {
        let mut txns: Vec<u64> = self
            .ops
            .iter()
            .map(|o| o.txn)
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        txns.sort_unstable();
        txns
    }

    /// Projects the history into the classic transactional model
    /// (Definitions 2.3–2.6): sub-transactions are flattened and items are
    /// renamed to `reactor ◦ item`, preserving the order of conflicting
    /// operations.
    pub fn project(&self) -> ClassicHistory {
        ClassicHistory {
            ops: self
                .ops
                .iter()
                .map(|o| ClassicOp {
                    txn: o.txn,
                    item: (o.reactor, o.item),
                    is_write: o.is_write,
                })
                .collect(),
        }
    }

    /// The serializability graph of the history in the reactor model: nodes
    /// are transactions; there is an edge `Ti -> Tj` when a sub-transaction
    /// of `Ti` performs an operation that precedes and conflicts with an
    /// operation of a sub-transaction of `Tj`.
    pub fn serializability_graph(&self) -> ConflictGraph {
        let mut graph = ConflictGraph::new(self.transactions());
        for (a_idx, a) in self.ops.iter().enumerate() {
            for b in &self.ops[a_idx + 1..] {
                if a.conflicts_with(b) {
                    graph.add_edge(a.txn, b.txn);
                }
            }
        }
        graph
    }

    /// True if the history is conflict-serializable in the reactor model.
    pub fn is_serializable(&self) -> bool {
        self.serializability_graph().is_acyclic()
    }
}

/// A projected history in the classic transactional model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassicHistory {
    ops: Vec<ClassicOp>,
}

impl ClassicHistory {
    /// The operations in execution order.
    pub fn ops(&self) -> &[ClassicOp] {
        &self.ops
    }

    /// Identifiers of the transactions appearing in the history.
    pub fn transactions(&self) -> Vec<u64> {
        let mut txns: Vec<u64> = self
            .ops
            .iter()
            .map(|o| o.txn)
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        txns.sort_unstable();
        txns
    }

    /// Serializability graph in the classic model.
    pub fn serializability_graph(&self) -> ConflictGraph {
        let mut graph = ConflictGraph::new(self.transactions());
        for (a_idx, a) in self.ops.iter().enumerate() {
            for b in &self.ops[a_idx + 1..] {
                if a.conflicts_with(b) {
                    graph.add_edge(a.txn, b.txn);
                }
            }
        }
        graph
    }

    /// True if the history is conflict-serializable in the classic model.
    pub fn is_serializable(&self) -> bool {
        self.serializability_graph().is_acyclic()
    }
}

/// A directed conflict (serializability) graph over transactions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConflictGraph {
    nodes: Vec<u64>,
    edges: HashSet<(u64, u64)>,
}

impl ConflictGraph {
    /// Creates a graph with the given nodes and no edges.
    pub fn new(nodes: Vec<u64>) -> Self {
        Self {
            nodes,
            edges: HashSet::new(),
        }
    }

    /// Adds a directed edge (self-loops are ignored).
    pub fn add_edge(&mut self, from: u64, to: u64) {
        if from != to {
            self.edges.insert((from, to));
        }
    }

    /// The edge set.
    pub fn edges(&self) -> &HashSet<(u64, u64)> {
        &self.edges
    }

    /// True if the graph has no directed cycle (the serializability
    /// theorem's criterion).
    pub fn is_acyclic(&self) -> bool {
        // Kahn's algorithm.
        let mut indegree: HashMap<u64, usize> = self.nodes.iter().map(|n| (*n, 0)).collect();
        let mut out: HashMap<u64, Vec<u64>> = HashMap::new();
        for (from, to) in &self.edges {
            *indegree.entry(*to).or_insert(0) += 1;
            indegree.entry(*from).or_insert(0);
            out.entry(*from).or_default().push(*to);
        }
        let mut queue: Vec<u64> = indegree
            .iter()
            .filter(|(_, d)| **d == 0)
            .map(|(n, _)| *n)
            .collect();
        let mut visited = 0usize;
        while let Some(n) = queue.pop() {
            visited += 1;
            if let Some(succs) = out.get(&n) {
                for s in succs {
                    let d = indegree.get_mut(s).expect("node present");
                    *d -= 1;
                    if *d == 0 {
                        queue.push(*s);
                    }
                }
            }
        }
        visited == indegree.len()
    }

    /// A topological order of the transactions (an equivalent serial
    /// schedule) if the graph is acyclic.
    pub fn serial_order(&self) -> Option<Vec<u64>> {
        if !self.is_acyclic() {
            return None;
        }
        let mut indegree: HashMap<u64, usize> = self.nodes.iter().map(|n| (*n, 0)).collect();
        let mut out: HashMap<u64, Vec<u64>> = HashMap::new();
        for (from, to) in &self.edges {
            *indegree.entry(*to).or_insert(0) += 1;
            indegree.entry(*from).or_insert(0);
            out.entry(*from).or_default().push(*to);
        }
        let mut queue: Vec<u64> = indegree
            .iter()
            .filter(|(_, d)| **d == 0)
            .map(|(n, _)| *n)
            .collect();
        queue.sort_unstable();
        let mut order = Vec::with_capacity(indegree.len());
        while let Some(n) = queue.pop() {
            order.push(n);
            if let Some(succs) = out.get(&n) {
                for s in succs {
                    let d = indegree.get_mut(s).expect("node present");
                    *d -= 1;
                    if *d == 0 {
                        queue.push(*s);
                    }
                }
            }
        }
        Some(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn serial_history_is_serializable() {
        let h = History::from_ops(vec![
            Op::read(1, 0, 0, 10),
            Op::write(1, 0, 0, 10),
            Op::read(2, 0, 0, 10),
            Op::write(2, 0, 0, 10),
        ]);
        assert!(h.is_serializable());
        assert!(h.project().is_serializable());
        assert_eq!(h.serializability_graph().serial_order(), Some(vec![1, 2]));
    }

    #[test]
    fn classic_write_skew_like_cycle_is_rejected() {
        // T1 reads x then writes y; T2 reads y then writes x, interleaved so
        // that each read precedes the other's write: a cycle.
        let h = History::from_ops(vec![
            Op::read(1, 0, 0, 1),
            Op::read(2, 0, 0, 2),
            Op::write(1, 1, 0, 2),
            Op::write(2, 1, 0, 1),
        ]);
        assert!(!h.is_serializable());
        assert!(!h.project().is_serializable());
        assert_eq!(h.serializability_graph().serial_order(), None);
    }

    #[test]
    fn same_item_id_on_different_reactors_does_not_conflict() {
        // Data items of different reactors are disjoint by definition.
        let h = History::from_ops(vec![
            Op::write(1, 0, 0, 7),
            Op::write(2, 0, 1, 7),
            Op::write(1, 1, 1, 8),
            Op::write(2, 1, 0, 8),
        ]);
        assert!(h.is_serializable());
        // After projection the items are (0,7), (1,7), ... and still do not
        // collide.
        assert!(h.project().is_serializable());
    }

    #[test]
    fn cross_reactor_cycle_is_detected() {
        // T1 writes a on reactor 0 then reads b on reactor 1;
        // T2 writes b on reactor 1 (before T1 reads it) then writes a on
        // reactor 0 (after T1 wrote it): T1 -> T2 (on a) and T2 -> T1 (on b).
        let h = History::from_ops(vec![
            Op::write(1, 0, 0, 1),
            Op::write(2, 0, 1, 2),
            Op::read(1, 1, 1, 2),
            Op::write(2, 1, 0, 1),
        ]);
        assert!(!h.is_serializable());
        assert!(!h.project().is_serializable());
    }

    #[test]
    fn reads_alone_never_create_edges() {
        let h = History::from_ops(vec![
            Op::read(1, 0, 0, 1),
            Op::read(2, 0, 0, 1),
            Op::read(3, 0, 0, 1),
        ]);
        assert!(h.serializability_graph().edges().is_empty());
        assert!(h.is_serializable());
    }

    fn arbitrary_history() -> impl Strategy<Value = History> {
        // Small universes maximise the chance of conflicts and cycles.
        proptest::collection::vec(
            (0u64..4, 0u64..3, 0u64..2, 0u64..3, proptest::bool::ANY),
            0..24,
        )
        .prop_map(|raw| {
            History::from_ops(
                raw.into_iter()
                    .map(|(txn, sub, reactor, item, is_write)| Op {
                        txn,
                        sub,
                        reactor,
                        item,
                        is_write,
                    })
                    .collect(),
            )
        })
    }

    proptest! {
        /// Executable Theorem 2.7: a history is serializable in the reactor
        /// model iff its projection into the classic transactional model is
        /// serializable.
        #[test]
        fn prop_projection_preserves_serializability(h in arbitrary_history()) {
            prop_assert_eq!(h.is_serializable(), h.project().is_serializable());
        }

        /// The two serializability graphs have identical edge sets (the
        /// stronger statement underlying the theorem's proof).
        #[test]
        fn prop_projection_preserves_conflict_graph(h in arbitrary_history()) {
            let reactor_graph = h.serializability_graph();
            let classic_graph = h.project().serializability_graph();
            prop_assert_eq!(reactor_graph.edges(), classic_graph.edges());
        }

        /// A purely serial execution (transactions never interleave) is
        /// always serializable.
        #[test]
        fn prop_serial_executions_are_serializable(
            per_txn in proptest::collection::vec(
                proptest::collection::vec((0u64..2, 0u64..4, proptest::bool::ANY), 1..6),
                1..5,
            )
        ) {
            let mut ops = Vec::new();
            for (txn_idx, txn_ops) in per_txn.iter().enumerate() {
                for (sub, (reactor, item, is_write)) in txn_ops.iter().enumerate() {
                    ops.push(Op {
                        txn: txn_idx as u64,
                        sub: sub as u64,
                        reactor: *reactor,
                        item: *item,
                        is_write: *is_write,
                    });
                }
            }
            let h = History::from_ops(ops);
            prop_assert!(h.is_serializable());
        }
    }
}
