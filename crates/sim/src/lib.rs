//! Deterministic virtual-time simulator of ReactDB deployments.
//!
//! The paper's evaluation ran on 8- and 32-hardware-thread machines; this
//! reproduction targets commodity CI machines (possibly a single core), so
//! wall-clock measurements of the real engine cannot exhibit the multi-core
//! parallelism the figures rely on. The benchmark harness therefore
//! reproduces the *shape* of every figure on a
//! simulated substrate: each transaction executor is a virtual core with a
//! FIFO queue and a virtual clock, and the costs of processing,
//! sub-transaction dispatch (`Cs`), result delivery (`Cr`), commit and input
//! generation are charged in virtual microseconds using the same calibration
//! methodology as §4.2.2.
//!
//! The simulator executes *transaction profiles* — fork-join trees of
//! sub-transaction descriptors ([`SimTxn`]) — generated by the same workload
//! crates that drive the real engine, under the same deployment strategies
//! ([`SimDeployment`]).
//!
//! Modelling notes (approximations):
//!
//! * executors are FIFO; a transaction's local segments occupy its executor,
//!   waits for remote children do not (cooperative multitasking), but a
//!   later-simulated transaction cannot back-fill into gaps left by an
//!   earlier one (scalar `free_at` per executor);
//! * concurrency-control aborts are not simulated (the paper reports abort
//!   rates below ~6% which do not change the shape of any figure);
//! * commit cost grows with the number of containers touched, mirroring 2PC.

pub mod deployment;
pub mod profile;
pub mod report;
pub mod simulator;

pub use deployment::{SimDeployment, SimStrategy};
pub use profile::SimTxn;
pub use report::{SimReport, TxnSample};
pub use simulator::{SimCosts, SimWorkload, Simulator};
