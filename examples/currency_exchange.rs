//! The digital currency exchange of Figure 1: an `Exchange` reactor
//! authorises payments by fanning `calc_risk` out to `Provider` reactors
//! asynchronously, then records the order on the chosen provider — all
//! within one serializable root transaction.
//!
//! Run with `cargo run --example currency_exchange`.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use reactdb::common::DeploymentConfig;
use reactdb::engine::ReactDB;
use reactdb::workloads::exchange;
use reactdb::RetryPolicy;

fn main() {
    let providers = 4;
    // One executor for the exchange plus one per provider: the
    // procedure-parallelism deployment of Appendix G.
    let db = ReactDB::boot(
        exchange::spec(providers),
        DeploymentConfig::shared_nothing(providers + 1),
    );
    exchange::load(&db, providers, 1_000, 5_000.0, 10_000.0).unwrap();

    // Client session: OCC validation aborts are transient under the
    // fan-out/fan-in contention of auth_pay, so the front end retries them.
    let client = db.client();
    let retry = RetryPolicy::occ();
    let mut rng = StdRng::seed_from_u64(42);
    let mut accepted = 0;
    let mut rejected = 0;
    let start = Instant::now();
    let payments = 200;
    for _ in 0..payments {
        let args = exchange::auth_pay_invocation(providers, 20_000, &mut rng);
        match client.invoke_with_retry(exchange::EXCHANGE, "auth_pay", args, &retry) {
            Ok(_) => accepted += 1,
            Err(e) if e.is_user_abort() => rejected += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    let elapsed = start.elapsed();
    println!("processed {payments} auth_pay transactions in {elapsed:.2?}");
    println!("accepted={accepted} rejected={rejected}");
    println!(
        "avg latency: {:.1} µs/txn, sub-transactions dispatched: {}",
        elapsed.as_micros() as f64 / payments as f64,
        db.metrics().counter("sub_txns_dispatched").unwrap()
    );
}
