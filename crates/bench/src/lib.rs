//! Benchmark harness for ReactDB-rs.
//!
//! Shared utilities used by the `figures` binary in `src/bin/` and the
//! Criterion micro-benchmarks in `benches/`. Each `figures::figNN` /
//! `figures::table1` function regenerates the paper's table or figure of
//! that number.

pub mod figures;
pub mod harness;

pub use harness::{print_series, print_table, SeriesPoint};
