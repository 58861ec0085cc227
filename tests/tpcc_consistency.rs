//! TPC-C consistency conditions on the live engine after running the
//! standard mix, plus an end-to-end check that the simulator and the real
//! engine agree on the qualitative behaviour they are both meant to exhibit.

use rand::rngs::StdRng;
use rand::SeedableRng;
use reactdb_common::{DeploymentConfig, Key, Value};
use reactdb_engine::ReactDB;
use reactdb_workloads::tpcc::{self, TpccGenerator, TpccScale};

fn run_mix(config: DeploymentConfig, txns: usize, seed: u64) -> (ReactDB, TpccScale) {
    let warehouses = 2;
    let scale = TpccScale {
        warehouses,
        districts: 3,
        customers_per_district: 10,
        items: 100,
    };
    let db = ReactDB::boot(tpcc::spec(warehouses), config);
    tpcc::load(&db, scale).unwrap();
    let generator = TpccGenerator::standard(scale);
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..txns {
        let inv = generator.next(i % warehouses, &mut rng);
        match db.invoke(&tpcc::warehouse_name(inv.warehouse), inv.proc, inv.args) {
            Ok(_) | Err(_) => {}
        }
    }
    (db, scale)
}

/// TPC-C consistency condition 1 & 3 analogue: for every warehouse and
/// district, `d_next_o_id - 1` equals the maximum order id present in both
/// the `orders` and (if not yet delivered) `new_order` tables, and every
/// order has exactly `o_ol_cnt` order lines.
#[test]
fn order_id_allocation_is_consistent() {
    let (db, scale) = run_mix(DeploymentConfig::shared_nothing(2), 250, 11);
    for w in 0..scale.warehouses {
        let name = tpcc::warehouse_name(w);
        let districts = db.table(&name, "district").unwrap();
        let orders = db.table(&name, "orders").unwrap();
        let order_lines = db.table(&name, "order_line").unwrap();
        for d in 0..scale.districts as i64 {
            let next_o_id = districts
                .get(&Key::Int(d))
                .unwrap()
                .read_unguarded()
                .at(3)
                .as_int();
            // Max order id for this district.
            let max_o_id = orders
                .scan()
                .iter()
                .filter(|(_, r)| r.is_visible())
                .map(|(_, r)| r.read_unguarded())
                .filter(|t| t.at(0).as_int() == d)
                .map(|t| t.at(1).as_int())
                .max()
                .unwrap_or(0);
            assert_eq!(next_o_id - 1, max_o_id, "warehouse {w} district {d}");

            // Every order has exactly o_ol_cnt order lines.
            for (_, record) in orders.scan() {
                if !record.is_visible() {
                    continue;
                }
                let order = record.read_unguarded();
                if order.at(0).as_int() != d {
                    continue;
                }
                let o_id = order.at(1).as_int();
                let ol_cnt = order.at(4).as_int();
                let lines = order_lines
                    .scan()
                    .iter()
                    .filter(|(_, r)| r.is_visible())
                    .map(|(_, r)| r.read_unguarded())
                    .filter(|t| t.at(0).as_int() == d && t.at(1).as_int() == o_id)
                    .count();
                assert_eq!(lines as i64, ol_cnt, "order ({d},{o_id}) line count");
            }
        }
    }
}

/// Warehouse YTD equals the sum of its districts' YTD (TPC-C consistency
/// condition 2 analogue), since every payment updates both.
#[test]
fn payment_ytd_sums_are_consistent() {
    let (db, scale) = run_mix(
        DeploymentConfig::shared_everything_with_affinity(2),
        250,
        13,
    );
    for w in 0..scale.warehouses {
        let name = tpcc::warehouse_name(w);
        let w_ytd = db
            .table(&name, "warehouse")
            .unwrap()
            .get(&Key::Int(0))
            .unwrap()
            .read_unguarded()
            .at(2)
            .as_float();
        let d_ytd_sum: f64 = db
            .table(&name, "district")
            .unwrap()
            .scan()
            .iter()
            .map(|(_, r)| r.read_unguarded().at(2).as_float())
            .sum();
        assert!(
            (w_ytd - d_ytd_sum).abs() < 1e-6,
            "warehouse {w}: {w_ytd} vs {d_ytd_sum}"
        );
    }
}

/// `delivery_cursor` splits every district's orders into delivered and
/// pending: it never passes a pending `new_order` row, every order below
/// it carries a carrier and every order at or above it does not.
#[test]
fn delivery_cursor_separates_delivered_from_pending_orders() {
    let (db, scale) = run_mix(DeploymentConfig::shared_nothing(2), 400, 19);
    let visible = |name: &str, relation: &str| -> Vec<_> {
        db.table(name, relation)
            .unwrap()
            .scan()
            .into_iter()
            .filter(|(_, r)| r.is_visible())
            .map(|(_, r)| r.read_unguarded())
            .collect()
    };
    let mut delivered = 0;
    for w in 0..scale.warehouses {
        let name = tpcc::warehouse_name(w);
        let cursors = db.table(&name, "delivery_cursor").unwrap();
        for d in 0..scale.districts as i64 {
            let cursor = cursors
                .get(&Key::Int(d))
                .unwrap()
                .read_unguarded()
                .at(1)
                .as_int();
            let oldest_pending = visible(&name, "new_order")
                .iter()
                .filter(|t| t.at(0).as_int() == d)
                .map(|t| t.at(1).as_int())
                .min();
            assert!(
                oldest_pending.is_none_or(|o_id| cursor <= o_id),
                "warehouse {w} district {d}: cursor {cursor} passed pending {oldest_pending:?}"
            );
            for order in visible(&name, "orders") {
                if order.at(0).as_int() != d {
                    continue;
                }
                let (o_id, carrier) = (order.at(1).as_int(), order.at(3).as_int());
                assert_eq!(
                    carrier >= 0,
                    o_id < cursor,
                    "warehouse {w} order ({d},{o_id}) carrier {carrier} vs cursor {cursor}"
                );
                delivered += (o_id < cursor) as usize;
            }
        }
    }
    assert!(delivered > 0, "the mix delivered something");
}

/// A delivery that finds a district's queue empty leaves its cursor where
/// it was.
#[test]
fn delivery_of_an_empty_district_leaves_its_cursor_unchanged() {
    let db = ReactDB::boot(tpcc::spec(1), DeploymentConfig::shared_nothing(1));
    tpcc::load(&db, TpccScale::tiny(1)).unwrap();
    let w = tpcc::warehouse_name(0);
    let cursor = |d: i64| {
        let row = db.table(&w, "delivery_cursor").unwrap().get(&Key::Int(d));
        row.unwrap().read_unguarded().at(1).as_int()
    };
    let deliver = || {
        db.invoke(&w, "delivery", vec![Value::Int(3), Value::Int(2)])
            .unwrap()
    };
    assert_eq!(deliver(), Value::Int(0));
    assert_eq!((cursor(0), cursor(1)), (1, 1));
    // One order in district 0 only: its cursor moves, district 1's stays.
    let one_line = vec![
        Value::Int(0),
        Value::Int(0),
        Value::Int(0),
        Value::Int(1),
        Value::Str(w.clone()),
        Value::Int(1),
    ];
    db.invoke(&w, "new_order", one_line).unwrap();
    assert_eq!(deliver(), Value::Int(1));
    assert_eq!((cursor(0), cursor(1)), (2, 1));
    assert_eq!(deliver(), Value::Int(0));
    assert_eq!((cursor(0), cursor(1)), (2, 1));
}

/// The history table records one row per committed payment and stock remote
/// counters only grow when items were drawn from remote warehouses.
#[test]
fn remote_counters_reflect_cross_reactor_work() {
    let warehouses = 2;
    let scale = TpccScale {
        warehouses,
        districts: 2,
        customers_per_district: 5,
        items: 50,
    };
    let db = ReactDB::boot(tpcc::spec(warehouses), DeploymentConfig::shared_nothing(2));
    tpcc::load(&db, scale).unwrap();
    let mut generator = TpccGenerator::standard(scale);
    generator.new_order_only = true;
    generator.remote_item_prob = 1.0;
    let mut rng = StdRng::seed_from_u64(3);
    let mut committed = 0;
    for i in 0..60 {
        let inv = generator.next(i % warehouses, &mut rng);
        if db
            .invoke(&tpcc::warehouse_name(inv.warehouse), inv.proc, inv.args)
            .is_ok()
        {
            committed += 1;
        }
    }
    assert_eq!(
        committed, 60,
        "one stock_update_batch per remote warehouse is a safe structure"
    );
    assert_eq!(
        db.metrics()
            .counter("txn_aborts{reason=\"dangerous_structure\"}")
            .unwrap(),
        0
    );
    let remote_updates: i64 = (0..warehouses)
        .map(|w| {
            db.table(&tpcc::warehouse_name(w), "stock")
                .unwrap()
                .scan()
                .iter()
                .map(|(_, r)| r.read_unguarded().at(4).as_int())
                .sum::<i64>()
        })
        .sum();
    assert!(
        remote_updates > 0,
        "100% remote items must bump remote counters"
    );
    assert!(
        db.metrics().counter("sub_txns_dispatched").unwrap() > 0,
        "cross-container sub-transactions were dispatched"
    );
}

/// The abort rate of the engine under the standard mix at low contention is
/// negligible, matching §4.3.1's observation for 1–4 workers.
#[test]
fn low_contention_mix_has_negligible_abort_rate() {
    let (db, _) = run_mix(DeploymentConfig::shared_nothing(2), 200, 17);
    let snap = db.metrics();
    let cc_aborts = snap.counter("txn_cc_aborts").unwrap() as f64;
    let abort_rate = cc_aborts / (snap.counter("txn_committed").unwrap() as f64 + cc_aborts);
    assert!(abort_rate < 0.05, "abort rate {abort_rate}");
    assert_eq!(
        db.metrics()
            .counter("txn_aborts{reason=\"dangerous_structure\"}")
            .unwrap(),
        0
    );
}
