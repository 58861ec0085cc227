//! Transaction routers.
//!
//! "Transaction routers decide the transaction executor that should run a
//! transaction or sub-transaction according to a given policy, e.g.,
//! round-robin or affinity-based" (§3.1). Root transactions are routed by
//! the configured policy; sub-transactions are always routed by affinity to
//! the executor owning the target reactor, which is what gives the
//! shared-nothing deployments their program-to-data affinity.

use std::sync::atomic::{AtomicUsize, Ordering};

use reactdb_common::{ContainerId, ExecutorId, ReactorId, RouterPolicy};

/// Routing tables derived from the deployment configuration.
#[derive(Debug)]
pub struct Router {
    policy: RouterPolicy,
    /// For every container (dense id), its executors.
    executors_of_container: Vec<Vec<ExecutorId>>,
    /// For every reactor (dense id), its container.
    container_of_reactor: Vec<ContainerId>,
    /// For every reactor (dense id), its affinity executor.
    executor_of_reactor: Vec<ExecutorId>,
    round_robin: AtomicUsize,
}

impl Router {
    /// Builds routing tables.
    ///
    /// `executors_of_container[c]` lists the executors of container `c`;
    /// `container_of_reactor[r]` gives the container of reactor `r`. The
    /// affinity executor of a reactor is chosen by striping reactors across
    /// their container's executors.
    pub fn new(
        policy: RouterPolicy,
        executors_of_container: Vec<Vec<ExecutorId>>,
        container_of_reactor: Vec<ContainerId>,
    ) -> Self {
        let executor_of_reactor = container_of_reactor
            .iter()
            .enumerate()
            .map(|(r, c)| {
                let execs = &executors_of_container[c.index()];
                assert!(!execs.is_empty(), "container {c} has no executors");
                execs[r % execs.len()]
            })
            .collect();
        Self {
            policy,
            executors_of_container,
            container_of_reactor,
            executor_of_reactor,
            round_robin: AtomicUsize::new(0),
        }
    }

    /// The configured routing policy for root transactions.
    pub fn policy(&self) -> RouterPolicy {
        self.policy
    }

    /// Container hosting `reactor`.
    pub fn container_of(&self, reactor: ReactorId) -> ContainerId {
        self.container_of_reactor[reactor.index()]
    }

    /// The container of every reactor, indexed by reactor id.
    pub fn containers_of_reactors(&self) -> &[ContainerId] {
        &self.container_of_reactor
    }

    /// Affinity executor of `reactor`.
    pub fn affinity_executor_of(&self, reactor: ReactorId) -> ExecutorId {
        self.executor_of_reactor[reactor.index()]
    }

    /// Executor that should run a *root* transaction targeting `reactor`.
    pub fn route_root(&self, reactor: ReactorId) -> ExecutorId {
        match self.policy {
            RouterPolicy::Affinity => self.affinity_executor_of(reactor),
            RouterPolicy::RoundRobin => {
                let container = self.container_of(reactor);
                let execs = &self.executors_of_container[container.index()];
                let n = self.round_robin.fetch_add(1, Ordering::Relaxed);
                execs[n % execs.len()]
            }
        }
    }

    /// Executor that should run a *sub-transaction* targeting `reactor`
    /// (always affinity-based, §3.3).
    pub fn route_sub(&self, reactor: ReactorId) -> ExecutorId {
        self.affinity_executor_of(reactor)
    }

    /// Number of reactors known to the router.
    pub fn reactor_count(&self) -> usize {
        self.container_of_reactor.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared_everything_router(policy: RouterPolicy) -> Router {
        // One container, four executors, six reactors.
        Router::new(
            policy,
            vec![(0..4).map(ExecutorId).collect()],
            (0..6).map(|_| ContainerId(0)).collect(),
        )
    }

    #[test]
    fn round_robin_spreads_roots_across_executors() {
        let r = shared_everything_router(RouterPolicy::RoundRobin);
        let picks: Vec<ExecutorId> = (0..8).map(|_| r.route_root(ReactorId(0))).collect();
        assert_eq!(picks[0], ExecutorId(0));
        assert_eq!(picks[1], ExecutorId(1));
        assert_eq!(picks[4], ExecutorId(0));
        // Every executor is used.
        let distinct: std::collections::HashSet<_> = picks.iter().collect();
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn affinity_pins_each_reactor_to_one_executor() {
        let r = shared_everything_router(RouterPolicy::Affinity);
        for reactor in 0..6u64 {
            let first = r.route_root(ReactorId(reactor));
            for _ in 0..5 {
                assert_eq!(r.route_root(ReactorId(reactor)), first);
            }
            assert_eq!(r.route_sub(ReactorId(reactor)), first);
        }
        // Reactors stripe over executors.
        assert_ne!(
            r.affinity_executor_of(ReactorId(0)),
            r.affinity_executor_of(ReactorId(1))
        );
    }

    #[test]
    fn shared_nothing_maps_reactor_to_its_container_executor() {
        // Three containers, one executor each; reactors striped round-robin
        // over containers by the deployment config.
        let r = Router::new(
            RouterPolicy::Affinity,
            vec![
                vec![ExecutorId(0)],
                vec![ExecutorId(1)],
                vec![ExecutorId(2)],
            ],
            (0..9).map(|i| ContainerId(i % 3)).collect(),
        );
        assert_eq!(r.container_of(ReactorId(4)), ContainerId(1));
        assert_eq!(r.route_root(ReactorId(4)), ExecutorId(1));
        assert_eq!(r.route_sub(ReactorId(8)), ExecutorId(2));
        assert_eq!(r.reactor_count(), 9);
    }

    #[test]
    fn sub_transactions_are_always_affinity_routed() {
        let r = shared_everything_router(RouterPolicy::RoundRobin);
        let first = r.route_sub(ReactorId(2));
        for _ in 0..5 {
            assert_eq!(r.route_sub(ReactorId(2)), first);
        }
    }
}
