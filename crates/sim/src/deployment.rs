//! Simulated deployments: the three architecture strategies of §3.3 mapped
//! onto virtual executors.

/// The deployment strategies evaluated in the paper, as they affect the
/// simulator's routing and inlining decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimStrategy {
    /// S1: one container; root transactions are routed round-robin over the
    /// executors; all sub-transactions are inlined on the root's executor.
    SharedEverythingWithoutAffinity,
    /// S2: one container; root transactions are routed by reactor affinity;
    /// all sub-transactions are inlined on the root's executor.
    SharedEverythingWithAffinity,
    /// S3: one container per executor; sub-transactions targeting reactors
    /// owned by other executors are dispatched there (and, depending on the
    /// program formulation, possibly overlapped).
    SharedNothing,
}

/// A simulated deployment: a strategy plus the executor count and the
/// reactor-to-executor affinity map.
#[derive(Debug, Clone, PartialEq)]
pub struct SimDeployment {
    /// Strategy in effect.
    pub strategy: SimStrategy,
    /// Number of virtual executors (cores).
    pub executors: usize,
    /// For every reactor (dense index), the executor that owns it.
    pub executor_of_reactor: Vec<usize>,
}

impl SimDeployment {
    /// Builds a deployment in which reactors are striped over `executors`
    /// executors (`reactor % executors`), matching the engine's default
    /// affinity mapping.
    pub fn striped(strategy: SimStrategy, executors: usize, reactors: usize) -> Self {
        assert!(executors > 0, "need at least one executor");
        Self {
            strategy,
            executors,
            executor_of_reactor: (0..reactors).map(|r| r % executors).collect(),
        }
    }

    /// Builds a deployment with an explicit reactor-to-executor map.
    pub fn explicit(
        strategy: SimStrategy,
        executors: usize,
        executor_of_reactor: Vec<usize>,
    ) -> Self {
        assert!(executors > 0, "need at least one executor");
        assert!(
            executor_of_reactor.iter().all(|e| *e < executors),
            "reactor mapped to a nonexistent executor"
        );
        Self {
            strategy,
            executors,
            executor_of_reactor,
        }
    }

    /// Executor owning `reactor`.
    pub fn executor_of(&self, reactor: usize) -> usize {
        self.executor_of_reactor
            .get(reactor)
            .copied()
            .unwrap_or(reactor % self.executors)
    }

    /// True when sub-transactions are always inlined on the calling executor
    /// (the shared-everything strategies).
    pub fn inlines_subtxns(&self) -> bool {
        matches!(
            self.strategy,
            SimStrategy::SharedEverythingWithoutAffinity
                | SimStrategy::SharedEverythingWithAffinity
        )
    }

    /// Number of reactors known to the deployment.
    pub fn reactor_count(&self) -> usize {
        self.executor_of_reactor.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striped_mapping() {
        let d = SimDeployment::striped(SimStrategy::SharedNothing, 4, 10);
        assert_eq!(d.executor_of(0), 0);
        assert_eq!(d.executor_of(5), 1);
        assert_eq!(d.reactor_count(), 10);
        assert!(!d.inlines_subtxns());
    }

    #[test]
    fn shared_everything_inlines() {
        let d = SimDeployment::striped(SimStrategy::SharedEverythingWithAffinity, 4, 8);
        assert!(d.inlines_subtxns());
        let d = SimDeployment::striped(SimStrategy::SharedEverythingWithoutAffinity, 4, 8);
        assert!(d.inlines_subtxns());
    }

    #[test]
    #[should_panic(expected = "nonexistent executor")]
    fn explicit_mapping_validates_bounds() {
        SimDeployment::explicit(SimStrategy::SharedNothing, 2, vec![0, 1, 2]);
    }
}
