//! Virtualization of database architecture: the same TPC-C reactor database
//! (warehouse = reactor) deployed as shared-everything-without-affinity,
//! shared-everything-with-affinity, and shared-nothing — with zero changes
//! to the transaction code, only to the deployment configuration (§3.3).
//!
//! Run with `cargo run --release --example tpcc_deployments`.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use reactdb::common::DeploymentConfig;
use reactdb::engine::ReactDB;
use reactdb::workloads::tpcc::{self, TpccGenerator, TpccScale};

fn run(label: &str, config: DeploymentConfig) {
    let warehouses = 2;
    let scale = TpccScale {
        warehouses,
        districts: 4,
        customers_per_district: 20,
        items: 200,
    };
    let db = ReactDB::boot(tpcc::spec(warehouses), config);
    tpcc::load(&db, scale).unwrap();

    let generator = TpccGenerator::standard(scale);
    let client = db.client();
    let mut rng = StdRng::seed_from_u64(7);
    let txns = 400;
    let start = Instant::now();
    let mut committed = 0;
    for i in 0..txns {
        let inv = generator.next(i % warehouses, &mut rng);
        match client.invoke(&tpcc::warehouse_name(inv.warehouse), inv.proc, inv.args) {
            Ok(_) => committed += 1,
            Err(e) if e.is_cc_abort() => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    let elapsed = start.elapsed();
    // The paper's abort rate: concurrency-control aborts over attempts.
    let snap = db.metrics();
    let cc_aborts = snap.counter("txn_cc_aborts").unwrap() as f64;
    let attempts = snap.counter("txn_committed").unwrap() as f64 + cc_aborts;
    println!(
        "{label:<40} committed {committed}/{txns} in {elapsed:>8.2?}  ({:.0} txn/s, abort rate {:.2}%)",
        committed as f64 / elapsed.as_secs_f64(),
        cc_aborts / attempts.max(1.0) * 100.0
    );
}

fn main() {
    println!("TPC-C standard mix, 2 warehouse reactors, identical application code:\n");
    run(
        "shared-everything-without-affinity",
        DeploymentConfig::shared_everything_without_affinity(2),
    );
    run(
        "shared-everything-with-affinity",
        DeploymentConfig::shared_everything_with_affinity(2),
    );
    run("shared-nothing", DeploymentConfig::shared_nothing(2));
}
