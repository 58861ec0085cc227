//! The virtual-time scheduler.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::deployment::{SimDeployment, SimStrategy};
use crate::profile::SimTxn;
use crate::report::{SimReport, TxnSample};

/// Calibrated virtual costs, in microseconds. Defaults follow the paper's
/// calibration methodology (§4.2.2, Appendix F.3): single-digit µs
/// communication costs with `Cr` more expensive than `Cs` (thread switch on
/// the receive path vs. atomic enqueue on the send path), a ~20 µs
/// containerization/dispatch overhead per transaction invocation, and a
/// commit cost that grows with the number of containers spanned (2PC).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimCosts {
    /// Cost of sending a sub-transaction invocation to another executor.
    pub cs_us: f64,
    /// Cost of receiving a sub-transaction result from another executor.
    pub cr_us: f64,
    /// Per-root-transaction dispatch overhead (client worker to executor).
    pub dispatch_us: f64,
    /// Base commit cost (OCC validation + write phase).
    pub commit_us: f64,
    /// Additional commit cost per extra container spanned (2PC).
    pub commit_remote_us: f64,
    /// Input-generation time included in reported latencies (§4.1.2).
    pub input_gen_us: f64,
}

impl Default for SimCosts {
    fn default() -> Self {
        Self {
            cs_us: 2.0,
            cr_us: 6.0,
            dispatch_us: 10.0,
            commit_us: 8.0,
            commit_remote_us: 4.0,
            input_gen_us: 2.0,
        }
    }
}

/// A workload generator for the simulator: produces one fork-join
/// transaction profile per invocation. Implemented by the workload crates
/// from the same parameters that drive the real engine.
pub trait SimWorkload {
    /// Generates the next transaction for `worker`.
    fn next_txn(&mut self, worker: usize, rng: &mut StdRng) -> SimTxn;
}

impl<F> SimWorkload for F
where
    F: FnMut(usize, &mut StdRng) -> SimTxn,
{
    fn next_txn(&mut self, worker: usize, rng: &mut StdRng) -> SimTxn {
        self(worker, rng)
    }
}

/// The virtual-time simulator of a ReactDB deployment.
#[derive(Debug, Clone)]
pub struct Simulator {
    deployment: SimDeployment,
    costs: SimCosts,
}

impl Simulator {
    /// Creates a simulator for the given deployment and cost calibration.
    pub fn new(deployment: SimDeployment, costs: SimCosts) -> Self {
        Self { deployment, costs }
    }

    /// The deployment being simulated.
    pub fn deployment(&self) -> &SimDeployment {
        &self.deployment
    }

    /// The cost calibration in effect.
    pub fn costs(&self) -> &SimCosts {
        &self.costs
    }

    /// Runs `workers` closed-loop client workers, each issuing
    /// `txns_per_worker` transactions produced by `workload`, and returns
    /// the aggregate report. Fully deterministic for a given seed.
    pub fn run(
        &self,
        workload: &mut dyn SimWorkload,
        workers: usize,
        txns_per_worker: usize,
        seed: u64,
    ) -> SimReport {
        assert!(workers > 0, "need at least one worker");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut state = SimState {
            free_at: vec![0.0; self.deployment.executors],
            busy_us: vec![0.0; self.deployment.executors],
            round_robin: 0,
        };
        let mut worker_ready = vec![0.0f64; workers];
        let mut issued = vec![0usize; workers];
        let mut samples = Vec::with_capacity(workers * txns_per_worker);
        let mut makespan = 0.0f64;

        loop {
            // Pick the worker whose next transaction starts earliest.
            let mut next: Option<usize> = None;
            for w in 0..workers {
                if issued[w] < txns_per_worker
                    && next.is_none_or(|n| worker_ready[w] < worker_ready[n])
                {
                    next = Some(w);
                }
            }
            let Some(w) = next else { break };
            issued[w] += 1;

            let txn = workload.next_txn(w, &mut rng);
            let start = worker_ready[w];
            let end = self.run_root(&txn, start, &mut state);
            samples.push(TxnSample {
                worker: w,
                start_us: start,
                end_us: end,
            });
            worker_ready[w] = end;
            makespan = makespan.max(end);
        }

        SimReport {
            samples,
            busy_us: state.busy_us,
            makespan_us: makespan,
        }
    }

    /// Executes one root transaction starting (from the client's point of
    /// view) at `start`, returning its completion time.
    fn run_root(&self, txn: &SimTxn, start: f64, state: &mut SimState) -> f64 {
        let root_exec = match self.deployment.strategy {
            SimStrategy::SharedEverythingWithoutAffinity => {
                let e = state.round_robin % self.deployment.executors;
                state.round_robin += 1;
                e
            }
            SimStrategy::SharedEverythingWithAffinity | SimStrategy::SharedNothing => {
                self.deployment.executor_of(txn.reactor)
            }
        };

        let arrival = start + self.costs.input_gen_us;
        let mut touched = vec![false; self.deployment.executors];
        let body_done = self.run_sub(txn, root_exec, arrival, state, &mut touched);

        // Commit on the root executor: base cost plus 2PC surcharge per
        // additional container, plus the per-invocation dispatch overhead.
        let containers = touched.iter().filter(|t| **t).count().max(1);
        let overhead = self.costs.dispatch_us
            + self.costs.commit_us
            + self.costs.commit_remote_us * (containers - 1) as f64;
        let commit_start = body_done.max(state.free_at[root_exec]);
        let end = commit_start + overhead;
        state.busy_us[root_exec] += overhead;
        state.free_at[root_exec] = end;
        end
    }

    /// Executes a (sub-)transaction on `exec`, arriving at `arrival`.
    /// Returns its completion time.
    fn run_sub(
        &self,
        sub: &SimTxn,
        exec: usize,
        arrival: f64,
        state: &mut SimState,
        touched: &mut [bool],
    ) -> f64 {
        touched[exec] = true;
        let mut now = arrival.max(state.free_at[exec]);

        // Sequential processing.
        state.busy_us[exec] += sub.p_seq_us;
        now += sub.p_seq_us;

        // Synchronously invoked children: each completes before the next
        // statement of this procedure.
        for child in &sub.sync_children {
            let child_exec = self.child_executor(child, exec);
            if child_exec == exec {
                state.free_at[exec] = now;
                now = self.run_sub(child, exec, now, state, touched);
            } else {
                state.busy_us[exec] += self.costs.cs_us;
                now += self.costs.cs_us;
                state.free_at[exec] = now;
                let done = self.run_sub(child, child_exec, now, state, touched);
                now = now.max(done);
                state.busy_us[exec] += self.costs.cr_us;
                now += self.costs.cr_us;
            }
        }

        // Asynchronously invoked children: dispatched back-to-back, then
        // joined after the overlapped processing.
        let mut remote_completions = Vec::new();
        for child in &sub.async_children {
            let child_exec = self.child_executor(child, exec);
            if child_exec == exec {
                // Same executor: no parallelism is available — the call is
                // executed synchronously (matching the engine's same
                // container inlining).
                state.free_at[exec] = now;
                now = self.run_sub(child, exec, now, state, touched);
            } else {
                state.busy_us[exec] += self.costs.cs_us;
                now += self.costs.cs_us;
                let done = self.run_sub(child, child_exec, now, state, touched);
                remote_completions.push(done);
            }
        }

        // Processing overlapped with the in-flight children.
        state.busy_us[exec] += sub.p_ovp_us;
        now += sub.p_ovp_us;

        // Join every asynchronous child. A child's result is available Cr
        // after the child completes; result deliveries overlap with waiting
        // for later children (matching the fourth component of the cost
        // model in Figure 3), so only the latest delivery lands on the
        // critical path. The receive work itself still occupies this
        // executor for utilization accounting.
        for done in remote_completions {
            state.busy_us[exec] += self.costs.cr_us;
            now = now.max(done + self.costs.cr_us);
        }

        state.free_at[exec] = state.free_at[exec].max(now);
        now
    }

    fn child_executor(&self, child: &SimTxn, caller_exec: usize) -> usize {
        if self.deployment.inlines_subtxns() {
            caller_exec
        } else {
            self.deployment.executor_of(child.reactor)
        }
    }
}

struct SimState {
    free_at: Vec<f64>,
    busy_us: Vec<f64>,
    round_robin: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs() -> SimCosts {
        SimCosts {
            cs_us: 2.0,
            cr_us: 6.0,
            dispatch_us: 10.0,
            commit_us: 8.0,
            commit_remote_us: 4.0,
            input_gen_us: 2.0,
        }
    }

    fn leaf_workload(processing: f64) -> impl FnMut(usize, &mut StdRng) -> SimTxn {
        move |worker, _rng| SimTxn::leaf(worker, processing)
    }

    #[test]
    fn single_leaf_latency_is_processing_plus_overheads() {
        let sim = Simulator::new(
            SimDeployment::striped(SimStrategy::SharedNothing, 4, 4),
            costs(),
        );
        let report = sim.run(&mut leaf_workload(100.0), 1, 10, 1);
        assert_eq!(report.committed(), 10);
        // input_gen + processing + dispatch + commit = 2 + 100 + 10 + 8
        assert!((report.avg_latency_us() - 120.0).abs() < 1e-9);
        assert!((report.throughput_tps() - 1e6 / 120.0).abs() < 1.0);
    }

    #[test]
    fn async_children_overlap_under_shared_nothing_but_not_shared_everything() {
        // Root on reactor 0, five asynchronous children on reactors 1..=5,
        // each doing 300 µs of work (the new-order-delay shape of §4.3.2).
        let txn = |_: usize, _: &mut StdRng| {
            let mut t = SimTxn::leaf(0, 10.0);
            for r in 1..=5 {
                t = t.with_async(SimTxn::leaf(r, 300.0));
            }
            t
        };
        let sn = Simulator::new(
            SimDeployment::striped(SimStrategy::SharedNothing, 8, 8),
            costs(),
        );
        let se = Simulator::new(
            SimDeployment::striped(SimStrategy::SharedEverythingWithAffinity, 8, 8),
            costs(),
        );
        let sn_report = sn.run(&mut { txn }, 1, 20, 1);
        let se_report = se.run(&mut { txn }, 1, 20, 1);
        // Shared-everything serializes the five children: >= 1500 µs.
        assert!(se_report.avg_latency_us() > 1500.0);
        // Shared-nothing overlaps them: roughly 300 µs plus overheads.
        assert!(sn_report.avg_latency_us() < 450.0);
        assert!(sn_report.throughput_tps() > 2.0 * se_report.throughput_tps());
    }

    #[test]
    fn queueing_degrades_latency_when_workers_exceed_executors() {
        let sim = Simulator::new(
            SimDeployment::striped(SimStrategy::SharedEverythingWithAffinity, 1, 1),
            costs(),
        );
        let light = sim.run(&mut leaf_workload(0.0), 1, 50, 1);
        let heavy = sim.run(&mut leaf_workload(0.0), 4, 50, 1);
        // Four closed-loop workers sharing one executor: ~4x the latency.
        assert!(heavy.avg_latency_us() > 3.0 * light.avg_latency_us());
        // Throughput saturates at the single executor's service rate: adding
        // workers closes the idle gap left by input generation (~10%) but
        // cannot scale further.
        assert!(heavy.throughput_tps() <= light.throughput_tps() * 1.25);
        assert!(heavy.throughput_tps() >= light.throughput_tps());
    }

    #[test]
    fn round_robin_spreads_load_but_affinity_keeps_it_local() {
        // Transactions always target reactor 0; with round-robin routing all
        // four executors see work, with affinity only one does.
        let wl = |_: usize, _: &mut StdRng| SimTxn::leaf(0, 50.0);
        let rr = Simulator::new(
            SimDeployment::striped(SimStrategy::SharedEverythingWithoutAffinity, 4, 4),
            costs(),
        );
        let aff = Simulator::new(
            SimDeployment::striped(SimStrategy::SharedEverythingWithAffinity, 4, 4),
            costs(),
        );
        let rr_report = rr.run(&mut { wl }, 2, 40, 1);
        let aff_report = aff.run(&mut { wl }, 2, 40, 1);
        let rr_used = rr_report.busy_us.iter().filter(|b| **b > 0.0).count();
        let aff_used = aff_report.busy_us.iter().filter(|b| **b > 0.0).count();
        assert_eq!(rr_used, 4);
        assert_eq!(aff_used, 1);
    }

    #[test]
    fn two_pc_surcharge_applies_only_to_multi_container_transactions() {
        let local = |_: usize, _: &mut StdRng| SimTxn::leaf(0, 10.0);
        let remote =
            |_: usize, _: &mut StdRng| SimTxn::leaf(0, 10.0).with_sync(SimTxn::leaf(1, 0.0));
        let sim = Simulator::new(
            SimDeployment::striped(SimStrategy::SharedNothing, 2, 2),
            costs(),
        );
        let l = sim.run(&mut { local }, 1, 10, 1);
        let r = sim.run(&mut { remote }, 1, 10, 1);
        // remote adds Cs + Cr + one 2PC surcharge = 2 + 6 + 4
        assert!((r.avg_latency_us() - l.avg_latency_us() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn simulation_is_deterministic_for_a_seed() {
        let wl = |w: usize, rng: &mut StdRng| {
            use rand::Rng;
            SimTxn::leaf(w % 4, rng.gen_range(1.0..100.0))
        };
        let sim = Simulator::new(
            SimDeployment::striped(SimStrategy::SharedNothing, 4, 4),
            costs(),
        );
        let a = sim.run(&mut { wl }, 3, 30, 42);
        let b = sim.run(&mut { wl }, 3, 30, 42);
        assert_eq!(a.samples, b.samples);
        let c = sim.run(&mut { wl }, 3, 30, 43);
        assert_ne!(a.samples, c.samples);
    }

    #[test]
    fn utilization_rises_with_load() {
        let wl = |_: usize, _: &mut StdRng| {
            let mut t = SimTxn::leaf(0, 50.0);
            for r in 1..4 {
                t = t.with_async(SimTxn::leaf(r, 50.0));
            }
            t
        };
        let sim = Simulator::new(
            SimDeployment::striped(SimStrategy::SharedNothing, 4, 4),
            costs(),
        );
        let low = sim.run(&mut { wl }, 1, 50, 1);
        let high = sim.run(&mut { wl }, 8, 50, 1);
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(avg(&high.utilization()) > avg(&low.utilization()));
    }
}
