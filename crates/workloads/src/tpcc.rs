//! TPC-C in the reactor model (§4.1.3, §4.3, Appendices D–F).
//!
//! Each warehouse is a reactor encapsulating the warehouse's slice of every
//! TPC-C relation (the `item` catalogue is replicated into every warehouse
//! reactor, as usual for partitioned TPC-C implementations). The five
//! standard transactions are implemented as procedures on the warehouse
//! reactor; cross-warehouse work — remote stock updates in `new_order`,
//! remote customers in `payment` — is expressed as asynchronous
//! sub-transaction calls, which is what the shared-nothing-async deployment
//! exploits.
//!
//! The module also provides the *new-order-delay* variant of §4.3.2 (stock
//! replenishment modelled as a few hundred microseconds of computation per
//! remote item), the cross-reactor probability knob of Appendix E, the
//! standard-mix input generator, and the simulator profiles used by the
//! figure harness.

use rand::rngs::StdRng;
use rand::Rng;
use reactdb_common::zipf::NonUniform;
use reactdb_common::{Key, Result, TxnError, Value};
use reactdb_core::{ReactorCtx, ReactorDatabaseSpec, ReactorType};
use reactdb_engine::ReactDB;
use reactdb_sim::SimTxn;
use reactdb_storage::{ColumnType, RelationDef, Schema, Tuple};

/// Name of the warehouse reactor with 0-based index `idx`.
pub fn warehouse_name(idx: usize) -> String {
    format!("warehouse-{idx}")
}

/// Scale constants: reduced table cardinalities are allowed for functional
/// tests; the benchmark harness uses the standard values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpccScale {
    /// Number of warehouses (reactors); the TPC-C scale factor.
    pub warehouses: usize,
    /// Districts per warehouse (10 in the specification).
    pub districts: usize,
    /// Customers per district (3000 in the specification).
    pub customers_per_district: usize,
    /// Items in the catalogue (100 000 in the specification).
    pub items: usize,
}

impl TpccScale {
    /// The standard TPC-C cardinalities at the given scale factor.
    pub fn standard(warehouses: usize) -> Self {
        Self {
            warehouses,
            districts: 10,
            customers_per_district: 3000,
            items: 100_000,
        }
    }

    /// A small scale for functional tests.
    pub fn tiny(warehouses: usize) -> Self {
        Self {
            warehouses,
            districts: 2,
            customers_per_district: 5,
            items: 50,
        }
    }
}

fn relations() -> Vec<RelationDef> {
    vec![
        RelationDef::new(
            "warehouse",
            Schema::of(
                &[
                    ("w_id", ColumnType::Int),
                    ("w_tax", ColumnType::Float),
                    ("w_ytd", ColumnType::Float),
                ],
                &["w_id"],
            ),
        ),
        RelationDef::new(
            "district",
            Schema::of(
                &[
                    ("d_id", ColumnType::Int),
                    ("d_tax", ColumnType::Float),
                    ("d_ytd", ColumnType::Float),
                    ("d_next_o_id", ColumnType::Int),
                ],
                &["d_id"],
            ),
        ),
        RelationDef::new(
            "customer",
            Schema::of(
                &[
                    ("d_id", ColumnType::Int),
                    ("c_id", ColumnType::Int),
                    ("c_last", ColumnType::Str),
                    ("c_credit", ColumnType::Str),
                    ("c_balance", ColumnType::Float),
                    ("c_ytd_payment", ColumnType::Float),
                    ("c_payment_cnt", ColumnType::Int),
                    ("c_delivery_cnt", ColumnType::Int),
                ],
                &["d_id", "c_id"],
            ),
        )
        .with_index(&["d_id", "c_last"]),
        RelationDef::new(
            "item",
            Schema::of(
                &[
                    ("i_id", ColumnType::Int),
                    ("i_name", ColumnType::Str),
                    ("i_price", ColumnType::Float),
                ],
                &["i_id"],
            ),
        ),
        RelationDef::new(
            "stock",
            Schema::of(
                &[
                    ("i_id", ColumnType::Int),
                    ("s_quantity", ColumnType::Int),
                    ("s_ytd", ColumnType::Int),
                    ("s_order_cnt", ColumnType::Int),
                    ("s_remote_cnt", ColumnType::Int),
                ],
                &["i_id"],
            ),
        ),
        RelationDef::new(
            "orders",
            Schema::of(
                &[
                    ("d_id", ColumnType::Int),
                    ("o_id", ColumnType::Int),
                    ("o_c_id", ColumnType::Int),
                    ("o_carrier_id", ColumnType::Int),
                    ("o_ol_cnt", ColumnType::Int),
                ],
                &["d_id", "o_id"],
            ),
        )
        .with_index(&["d_id", "o_c_id"]),
        RelationDef::new(
            "new_order",
            Schema::of(
                &[("d_id", ColumnType::Int), ("o_id", ColumnType::Int)],
                &["d_id", "o_id"],
            ),
        ),
        // Where `delivery` resumes in each district's `new_order` queue.
        // A relation of its own, not a `district` column: every
        // `new_order` writes the district row, and a cursor there would
        // make each of them conflict with a concurrent delivery.
        RelationDef::new(
            "delivery_cursor",
            Schema::of(
                &[("d_id", ColumnType::Int), ("next_o_id", ColumnType::Int)],
                &["d_id"],
            ),
        ),
        RelationDef::new(
            "order_line",
            Schema::of(
                &[
                    ("d_id", ColumnType::Int),
                    ("o_id", ColumnType::Int),
                    ("ol_number", ColumnType::Int),
                    ("ol_i_id", ColumnType::Int),
                    ("ol_supply_w", ColumnType::Str),
                    ("ol_quantity", ColumnType::Int),
                    ("ol_amount", ColumnType::Float),
                    ("ol_delivered", ColumnType::Bool),
                ],
                &["d_id", "o_id", "ol_number"],
            ),
        ),
        RelationDef::new(
            "history",
            Schema::of(
                &[
                    ("d_id", ColumnType::Int),
                    ("c_id", ColumnType::Int),
                    ("h_seq", ColumnType::Int),
                    ("h_amount", ColumnType::Float),
                ],
                &["d_id", "c_id", "h_seq"],
            ),
        ),
    ]
}

/// Applies one order line to its item's stock row. Remote lines pay the
/// stock-replenishment calculation of §4.3.2, modelled as CPU work.
fn apply_stock_update(
    ctx: &mut ReactorCtx<'_>,
    i_id: i64,
    quantity: i64,
    remote: bool,
    delay_units: u64,
) -> Result<i64> {
    if delay_units > 0 {
        ctx.busy_work(delay_units);
    }
    let row = ctx.update_with("stock", &Key::Int(i_id), |t| {
        let s_quantity = t.at(1).as_int();
        let new_quantity = if s_quantity - quantity >= 10 {
            s_quantity - quantity
        } else {
            s_quantity - quantity + 91
        };
        t.values_mut()[1] = Value::Int(new_quantity);
        t.values_mut()[2] = Value::Int(t.at(2).as_int() + quantity);
        t.values_mut()[3] = Value::Int(t.at(3).as_int() + 1);
        if remote {
            t.values_mut()[4] = Value::Int(t.at(4).as_int() + 1);
        }
    })?;
    Ok(row.at(1).as_int())
}

/// Performs the stock update of one order line on the ordering warehouse
/// itself. `args`: `[i_id, quantity]`.
fn stock_update(ctx: &mut ReactorCtx<'_>, args: &[Value]) -> Result<Value> {
    apply_stock_update(ctx, args[0].as_int(), args[1].as_int(), false, 0).map(Value::Int)
}

/// Performs the stock updates of all the lines one order draws from this
/// (remote) warehouse. `args`: `[delay_units, (i_id, quantity)*]`.
fn stock_update_batch(ctx: &mut ReactorCtx<'_>, args: &[Value]) -> Result<Value> {
    let delay_units = args[0].as_int() as u64;
    for line in args[1..].chunks(2) {
        apply_stock_update(ctx, line[0].as_int(), line[1].as_int(), true, delay_units)?;
    }
    Ok(Value::Null)
}

/// The new-order transaction. `args`:
/// `[d_id, c_id, delay_units, (i_id, supply_warehouse_name, qty)*]`.
fn new_order(ctx: &mut ReactorCtx<'_>, args: &[Value]) -> Result<Value> {
    let d_id = args[0].as_int();
    let c_id = args[1].as_int();
    let delay_units = args[2].as_int();
    let lines = &args[3..];
    if lines.is_empty() || !lines.len().is_multiple_of(3) {
        return Err(TxnError::BadArguments(
            "new_order needs (item, warehouse, qty) triples".into(),
        ));
    }
    let ol_cnt = lines.len() / 3;

    // Warehouse and district reads; allocate the order id.
    let _warehouse = ctx.get_expected("warehouse", &Key::Int(0))?;
    let district = ctx.update_with("district", &Key::Int(d_id), |t| {
        t.values_mut()[3] = Value::Int(t.at(3).as_int() + 1);
    })?;
    let o_id = district.at(3).as_int() - 1;
    let _customer = ctx.get_expected(
        "customer",
        &Key::composite([Key::Int(d_id), Key::Int(c_id)]),
    )?;

    ctx.insert(
        "orders",
        Tuple::of([
            Value::Int(d_id),
            Value::Int(o_id),
            Value::Int(c_id),
            Value::Int(-1),
            Value::Int(ol_cnt as i64),
        ]),
    )?;
    ctx.insert("new_order", Tuple::of([Value::Int(d_id), Value::Int(o_id)]))?;

    let my_name = ctx.reactor_name().to_owned();

    // Remote stock maintenance: one asynchronous sub-transaction per
    // supplying warehouse, carrying all the lines drawn from it and
    // dispatched up front so it overlaps with the whole order-line loop.
    // One per warehouse, not one per line: two sub-transactions of one
    // root active on the same reactor are what §2.2.4's safety condition
    // aborts.
    let mut remote_batches: Vec<(&str, Vec<Value>)> = Vec::new();
    for line in lines.chunks(3) {
        let supply = line[1].as_str();
        if supply == my_name {
            continue;
        }
        let line = [line[0].clone(), line[2].clone()];
        match remote_batches.iter_mut().find(|(w, _)| *w == supply) {
            Some((_, batch)) => batch.extend(line),
            None => {
                let [i_id, qty] = line;
                remote_batches.push((supply, vec![Value::Int(delay_units), i_id, qty]));
            }
        }
    }
    for (supply, batch) in remote_batches {
        ctx.call(supply, "stock_update_batch", batch)?;
    }

    let mut total_amount = 0.0;
    for (ol_number, line) in lines.chunks(3).enumerate() {
        let i_id = line[0].as_int();
        let supply = line[1].as_str().to_owned();
        let qty = line[2].as_int();
        let item = ctx.get_expected("item", &Key::Int(i_id))?;
        let amount = item.at(2).as_float() * qty as f64;
        total_amount += amount;

        // Local stock maintenance happens here, as an inlined self-call.
        if supply == my_name {
            ctx.call(
                &supply,
                "stock_update",
                vec![Value::Int(i_id), Value::Int(qty)],
            )?;
        }

        ctx.insert(
            "order_line",
            Tuple::of([
                Value::Int(d_id),
                Value::Int(o_id),
                Value::Int(ol_number as i64),
                Value::Int(i_id),
                Value::Str(supply),
                Value::Int(qty),
                Value::Float(amount),
                Value::Bool(false),
            ]),
        )?;
    }
    let _ = total_amount;
    Ok(Value::Int(o_id))
}

/// The payment transaction. `args`:
/// `[d_id, c_id, amount, customer_warehouse_name, c_d_id]`.
fn payment(ctx: &mut ReactorCtx<'_>, args: &[Value]) -> Result<Value> {
    let d_id = args[0].as_int();
    let c_id = args[1].as_int();
    let amount = args[2].as_float();
    let customer_warehouse = args[3].as_str().to_owned();
    let c_d_id = args[4].as_int();

    ctx.update_with("warehouse", &Key::Int(0), |t| {
        t.values_mut()[2] = Value::Float(t.at(2).as_float() + amount);
    })?;
    ctx.update_with("district", &Key::Int(d_id), |t| {
        t.values_mut()[2] = Value::Float(t.at(2).as_float() + amount);
    })?;

    if customer_warehouse == ctx.reactor_name() {
        apply_customer_payment(ctx, c_d_id, c_id, amount)?;
    } else {
        // Remote customer (15% in the standard mix): asynchronous
        // sub-transaction on the customer's home warehouse.
        ctx.call(
            &customer_warehouse,
            "payment_customer",
            vec![Value::Int(c_d_id), Value::Int(c_id), Value::Float(amount)],
        )?;
    }

    // History record, keyed by the customer's payment sequence within this
    // warehouse/district: one past the customer's latest entry.
    let seq = ctx
        .scan_limit_rev(
            "history",
            Key::composite([Key::Int(d_id), Key::Int(c_id), Key::Int(0)])
                ..=Key::composite([Key::Int(d_id), Key::Int(c_id), Key::Int(i64::MAX)]),
            1,
        )?
        .first()
        .map_or(0, |(_, latest)| latest.at(2).as_int() + 1);
    ctx.insert(
        "history",
        Tuple::of([
            Value::Int(d_id),
            Value::Int(c_id),
            Value::Int(seq),
            Value::Float(amount),
        ]),
    )?;
    Ok(Value::Null)
}

fn apply_customer_payment(ctx: &ReactorCtx<'_>, d_id: i64, c_id: i64, amount: f64) -> Result<()> {
    ctx.update_with(
        "customer",
        &Key::composite([Key::Int(d_id), Key::Int(c_id)]),
        |t| {
            t.values_mut()[4] = Value::Float(t.at(4).as_float() - amount);
            t.values_mut()[5] = Value::Float(t.at(5).as_float() + amount);
            t.values_mut()[6] = Value::Int(t.at(6).as_int() + 1);
        },
    )?;
    Ok(())
}

/// Remote half of payment: updates the customer on its home warehouse.
fn payment_customer(ctx: &mut ReactorCtx<'_>, args: &[Value]) -> Result<Value> {
    apply_customer_payment(ctx, args[0].as_int(), args[1].as_int(), args[2].as_float())?;
    Ok(Value::Null)
}

/// The order-status transaction. `args`: `[d_id, c_id]`.
fn order_status(ctx: &mut ReactorCtx<'_>, args: &[Value]) -> Result<Value> {
    let d_id = args[0].as_int();
    let c_id = args[1].as_int();
    let _customer = ctx.get_expected(
        "customer",
        &Key::composite([Key::Int(d_id), Key::Int(c_id)]),
    )?;
    // Most recent order of this customer: the last entry of its
    // (d_id, o_c_id) index span, whose primary key (d_id, o_id) orders by
    // o_id.
    let latest = ctx.index_lookup_rev(
        "orders",
        0,
        &Key::composite([Key::Int(d_id), Key::Int(c_id)]),
        1,
    )?;
    let Some((_, order)) = latest.first() else {
        return Ok(Value::Int(-1));
    };
    let o_id = order.at(1).as_int();
    let lines = ctx.scan_range(
        "order_line",
        std::ops::Bound::Included(&Key::composite([
            Key::Int(d_id),
            Key::Int(o_id),
            Key::Int(0),
        ])),
        std::ops::Bound::Included(&Key::composite([
            Key::Int(d_id),
            Key::Int(o_id),
            Key::Int(i64::MAX),
        ])),
    )?;
    Ok(Value::Int(lines.len() as i64))
}

/// The delivery transaction. `args`: `[carrier_id, districts]`.
fn delivery(ctx: &mut ReactorCtx<'_>, args: &[Value]) -> Result<Value> {
    let carrier = args[0].as_int();
    let districts = args[1].as_int();
    let mut delivered = 0i64;
    for d_id in 0..districts {
        // Oldest undelivered order of the district. Every order below the
        // district's cursor is delivered, so the scan starts at the cursor
        // and stops at the first row: the tombstones of past deliveries
        // are never walked.
        let cursor = ctx
            .get_expected("delivery_cursor", &Key::Int(d_id))?
            .at(1)
            .as_int();
        let pending = ctx.scan_limit(
            "new_order",
            Key::composite([Key::Int(d_id), Key::Int(cursor)])
                ..=Key::composite([Key::Int(d_id), Key::Int(i64::MAX)]),
            1,
        )?;
        let Some((oldest_key, oldest)) = pending.first() else {
            continue;
        };
        let o_id = oldest.at(1).as_int();
        ctx.delete("new_order", oldest_key)?;
        ctx.update(
            "delivery_cursor",
            Tuple::of([Value::Int(d_id), Value::Int(o_id + 1)]),
        )?;
        let order = ctx.update_with(
            "orders",
            &Key::composite([Key::Int(d_id), Key::Int(o_id)]),
            |t| {
                t.values_mut()[3] = Value::Int(carrier);
            },
        )?;
        let c_id = order.at(2).as_int();
        let lines = ctx.scan_range(
            "order_line",
            std::ops::Bound::Included(&Key::composite([
                Key::Int(d_id),
                Key::Int(o_id),
                Key::Int(0),
            ])),
            std::ops::Bound::Included(&Key::composite([
                Key::Int(d_id),
                Key::Int(o_id),
                Key::Int(i64::MAX),
            ])),
        )?;
        let mut total = 0.0;
        for (key, line) in &lines {
            total += line.at(6).as_float();
            let mut updated = line.clone();
            updated.values_mut()[7] = Value::Bool(true);
            let _ = key;
            ctx.update("order_line", updated)?;
        }
        ctx.update_with(
            "customer",
            &Key::composite([Key::Int(d_id), Key::Int(c_id)]),
            |t| {
                t.values_mut()[4] = Value::Float(t.at(4).as_float() + total);
                t.values_mut()[7] = Value::Int(t.at(7).as_int() + 1);
            },
        )?;
        delivered += 1;
    }
    Ok(Value::Int(delivered))
}

/// The stock-level transaction. `args`: `[d_id, threshold]`.
fn stock_level(ctx: &mut ReactorCtx<'_>, args: &[Value]) -> Result<Value> {
    let d_id = args[0].as_int();
    let threshold = args[1].as_int();
    let district = ctx.get_expected("district", &Key::Int(d_id))?;
    let next_o_id = district.at(3).as_int();
    let low = (next_o_id - 20).max(0);
    let lines = ctx.scan_range(
        "order_line",
        std::ops::Bound::Included(&Key::composite([
            Key::Int(d_id),
            Key::Int(low),
            Key::Int(0),
        ])),
        std::ops::Bound::Included(&Key::composite([
            Key::Int(d_id),
            Key::Int(next_o_id),
            Key::Int(i64::MAX),
        ])),
    )?;
    let mut item_ids: Vec<i64> = lines.iter().map(|(_, l)| l.at(3).as_int()).collect();
    item_ids.sort_unstable();
    item_ids.dedup();
    let mut low_stock = 0i64;
    for i_id in item_ids {
        let stock = ctx.get_expected("stock", &Key::Int(i_id))?;
        if stock.at(1).as_int() < threshold {
            low_stock += 1;
        }
    }
    Ok(Value::Int(low_stock))
}

/// Builds the TPC-C reactor database specification.
pub fn spec(warehouses: usize) -> ReactorDatabaseSpec {
    let mut warehouse = ReactorType::new("Warehouse");
    for def in relations() {
        warehouse = warehouse.with_relation(def);
    }
    let warehouse = warehouse
        .with_procedure("new_order", new_order)
        .with_procedure("stock_update", stock_update)
        .with_procedure("stock_update_batch", stock_update_batch)
        .with_procedure("payment", payment)
        .with_procedure("payment_customer", payment_customer)
        .with_procedure("order_status", order_status)
        .with_procedure("delivery", delivery)
        .with_procedure("stock_level", stock_level);

    let mut spec = ReactorDatabaseSpec::new();
    spec.add_type(warehouse);
    for w in 0..warehouses {
        spec.add_reactor(warehouse_name(w), "Warehouse");
    }
    spec
}

/// Loads the TPC-C tables at the given scale.
pub fn load(db: &ReactDB, scale: TpccScale) -> Result<()> {
    for w in 0..scale.warehouses {
        let name = warehouse_name(w);
        db.load_row(
            &name,
            "warehouse",
            Tuple::of([Value::Int(0), Value::Float(0.1), Value::Float(0.0)]),
        )?;
        for d in 0..scale.districts {
            db.load_row(
                &name,
                "district",
                Tuple::of([
                    Value::Int(d as i64),
                    Value::Float(0.05),
                    Value::Float(0.0),
                    Value::Int(1),
                ]),
            )?;
            db.load_row(
                &name,
                "delivery_cursor",
                Tuple::of([Value::Int(d as i64), Value::Int(1)]),
            )?;
            for c in 0..scale.customers_per_district {
                db.load_row(
                    &name,
                    "customer",
                    Tuple::of([
                        Value::Int(d as i64),
                        Value::Int(c as i64),
                        Value::Str(format!("LAST{}", c % 10)),
                        Value::Str("GC".into()),
                        Value::Float(0.0),
                        Value::Float(0.0),
                        Value::Int(0),
                        Value::Int(0),
                    ]),
                )?;
            }
        }
        for i in 0..scale.items {
            db.load_row(
                &name,
                "item",
                Tuple::of([
                    Value::Int(i as i64),
                    Value::Str(format!("item-{i}")),
                    Value::Float(1.0 + (i % 100) as f64),
                ]),
            )?;
            db.load_row(
                &name,
                "stock",
                Tuple::of([
                    Value::Int(i as i64),
                    Value::Int(100),
                    Value::Int(0),
                    Value::Int(0),
                    Value::Int(0),
                ]),
            )?;
        }
    }
    Ok(())
}

/// The TPC-C transaction types of the standard mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpccTxnKind {
    /// New-order (45%).
    NewOrder,
    /// Payment (43%).
    Payment,
    /// Order-status (4%).
    OrderStatus,
    /// Delivery (4%).
    Delivery,
    /// Stock-level (4%).
    StockLevel,
}

/// A generated TPC-C invocation: target warehouse reactor, procedure and
/// arguments for the engine.
#[derive(Debug, Clone)]
pub struct TpccInvocation {
    /// Transaction type.
    pub kind: TpccTxnKind,
    /// Index of the home warehouse reactor.
    pub warehouse: usize,
    /// Procedure name.
    pub proc: &'static str,
    /// Arguments.
    pub args: Vec<Value>,
}

/// Input generator for the TPC-C workload, parameterised by the knobs the
/// evaluation varies.
#[derive(Debug, Clone)]
pub struct TpccGenerator {
    /// Scale (cardinalities).
    pub scale: TpccScale,
    /// Probability that an individual new-order item is drawn from a remote
    /// warehouse (1% in the standard mix, varied in Appendix E).
    pub remote_item_prob: f64,
    /// Probability that a payment is for a remote customer (15% standard).
    pub remote_payment_prob: f64,
    /// If `Some`, only new-order transactions are generated and every remote
    /// stock update performs this much busy-work (the new-order-delay
    /// workload of §4.3.2, units of `busy_work` iterations ≈ µs·80).
    pub new_order_delay_units: Option<(u64, u64)>,
    /// If true only new-order transactions are generated (Appendix E).
    pub new_order_only: bool,
    customer_gen: NonUniform,
    item_gen: NonUniform,
}

impl TpccGenerator {
    /// Standard-mix generator at the given scale.
    pub fn standard(scale: TpccScale) -> Self {
        Self {
            scale,
            remote_item_prob: 0.01,
            remote_payment_prob: 0.15,
            new_order_delay_units: None,
            new_order_only: false,
            customer_gen: NonUniform::new(1023, 259, 0, scale.customers_per_district as u64 - 1),
            item_gen: NonUniform::new(8191, 7911, 0, scale.items as u64 - 1),
        }
    }

    /// Home warehouse of a worker (client affinity, §4.1.3).
    pub fn home_warehouse(&self, worker: usize) -> usize {
        worker % self.scale.warehouses
    }

    fn pick_remote_warehouse(&self, home: usize, rng: &mut StdRng) -> usize {
        if self.scale.warehouses <= 1 {
            return home;
        }
        loop {
            let w = rng.gen_range(0..self.scale.warehouses);
            if w != home {
                return w;
            }
        }
    }

    /// Generates the next invocation for `worker`.
    pub fn next(&self, worker: usize, rng: &mut StdRng) -> TpccInvocation {
        let home = self.home_warehouse(worker);
        let kind = if self.new_order_only || self.new_order_delay_units.is_some() {
            TpccTxnKind::NewOrder
        } else {
            match rng.gen_range(0..100) {
                0..=44 => TpccTxnKind::NewOrder,
                45..=87 => TpccTxnKind::Payment,
                88..=91 => TpccTxnKind::OrderStatus,
                92..=95 => TpccTxnKind::Delivery,
                _ => TpccTxnKind::StockLevel,
            }
        };
        match kind {
            TpccTxnKind::NewOrder => self.gen_new_order(home, rng),
            TpccTxnKind::Payment => self.gen_payment(home, rng),
            TpccTxnKind::OrderStatus => TpccInvocation {
                kind,
                warehouse: home,
                proc: "order_status",
                args: vec![
                    Value::Int(rng.gen_range(0..self.scale.districts) as i64),
                    Value::Int(self.customer_gen.sample(rng) as i64),
                ],
            },
            TpccTxnKind::Delivery => TpccInvocation {
                kind,
                warehouse: home,
                proc: "delivery",
                args: vec![
                    Value::Int(rng.gen_range(1..=10)),
                    Value::Int(self.scale.districts as i64),
                ],
            },
            TpccTxnKind::StockLevel => TpccInvocation {
                kind,
                warehouse: home,
                proc: "stock_level",
                args: vec![
                    Value::Int(rng.gen_range(0..self.scale.districts) as i64),
                    Value::Int(rng.gen_range(10..=20)),
                ],
            },
        }
    }

    fn gen_new_order(&self, home: usize, rng: &mut StdRng) -> TpccInvocation {
        let d_id = rng.gen_range(0..self.scale.districts) as i64;
        let c_id = self.customer_gen.sample(rng) as i64;
        let ol_cnt = rng.gen_range(5..=15);
        let delay = match self.new_order_delay_units {
            Some((lo, hi)) => rng.gen_range(lo..=hi) as i64,
            None => 0,
        };
        let mut args = vec![Value::Int(d_id), Value::Int(c_id), Value::Int(delay)];
        for _ in 0..ol_cnt {
            let i_id = self.item_gen.sample(rng) as i64;
            let supply = if rng.gen_bool(self.remote_item_prob) {
                self.pick_remote_warehouse(home, rng)
            } else {
                home
            };
            args.push(Value::Int(i_id));
            args.push(Value::Str(warehouse_name(supply)));
            args.push(Value::Int(rng.gen_range(1..=10)));
        }
        TpccInvocation {
            kind: TpccTxnKind::NewOrder,
            warehouse: home,
            proc: "new_order",
            args,
        }
    }

    fn gen_payment(&self, home: usize, rng: &mut StdRng) -> TpccInvocation {
        let d_id = rng.gen_range(0..self.scale.districts) as i64;
        let c_id = self.customer_gen.sample(rng) as i64;
        let amount = rng.gen_range(1.0..5000.0);
        let customer_warehouse = if rng.gen_bool(self.remote_payment_prob) {
            self.pick_remote_warehouse(home, rng)
        } else {
            home
        };
        TpccInvocation {
            kind: TpccTxnKind::Payment,
            warehouse: home,
            proc: "payment",
            args: vec![
                Value::Int(d_id),
                Value::Int(c_id),
                Value::Float(amount),
                Value::Str(warehouse_name(customer_warehouse)),
                Value::Int(d_id),
            ],
        }
    }
}

// ---------------------------------------------------------------------------
// Simulator profiles.
// ---------------------------------------------------------------------------

/// Calibrated per-transaction processing costs (µs) for the simulator,
/// derived from the relative record-operation counts of the five TPC-C
/// transactions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TpccSimCosts {
    /// Fixed new-order processing (warehouse/district/customer/order).
    pub new_order_base_us: f64,
    /// Per order-line processing (item read, order-line insert).
    pub per_item_us: f64,
    /// One stock update.
    pub stock_update_us: f64,
    /// Payment processing on the home warehouse.
    pub payment_base_us: f64,
    /// Remote customer update.
    pub payment_customer_us: f64,
    /// Order-status processing.
    pub order_status_us: f64,
    /// Delivery processing (ten districts).
    pub delivery_us: f64,
    /// Stock-level processing.
    pub stock_level_us: f64,
}

impl Default for TpccSimCosts {
    fn default() -> Self {
        Self {
            new_order_base_us: 20.0,
            per_item_us: 4.0,
            stock_update_us: 5.0,
            payment_base_us: 25.0,
            payment_customer_us: 8.0,
            order_status_us: 30.0,
            delivery_us: 120.0,
            stock_level_us: 80.0,
        }
    }
}

/// Simulator workload generating the TPC-C mix with the same knobs as
/// [`TpccGenerator`]. Workers have client affinity to warehouses.
#[derive(Debug, Clone)]
pub struct TpccSimWorkload {
    /// Number of warehouse reactors.
    pub warehouses: usize,
    /// Probability of a remote item per order line.
    pub remote_item_prob: f64,
    /// Probability of a remote payment customer.
    pub remote_payment_prob: f64,
    /// Only new-order transactions.
    pub new_order_only: bool,
    /// Extra per-remote-stock-update delay in µs (new-order-delay, §4.3.2).
    pub delay_us: Option<(f64, f64)>,
    /// Per-transaction processing costs.
    pub costs: TpccSimCosts,
}

impl TpccSimWorkload {
    /// Standard mix at the given number of warehouses.
    pub fn standard(warehouses: usize) -> Self {
        Self {
            warehouses,
            remote_item_prob: 0.01,
            remote_payment_prob: 0.15,
            new_order_only: false,
            delay_us: None,
            costs: TpccSimCosts::default(),
        }
    }

    fn new_order_profile(&self, home: usize, rng: &mut StdRng) -> SimTxn {
        let ol_cnt = rng.gen_range(5..=15);
        let mut remote: Vec<usize> = Vec::new();
        let mut local_items = 0usize;
        for _ in 0..ol_cnt {
            if self.warehouses > 1 && rng.gen_bool(self.remote_item_prob) {
                loop {
                    let w = rng.gen_range(0..self.warehouses);
                    if w != home {
                        remote.push(w);
                        break;
                    }
                }
            } else {
                local_items += 1;
            }
        }
        let delay = match self.delay_us {
            Some((lo, hi)) => rng.gen_range(lo..=hi),
            None => 0.0,
        };
        let local_work = self.costs.new_order_base_us
            + ol_cnt as f64 * self.costs.per_item_us
            + local_items as f64 * self.costs.stock_update_us;
        let mut txn = SimTxn::leaf(home, self.costs.new_order_base_us)
            .with_overlap(local_work - self.costs.new_order_base_us);
        for w in remote {
            txn = txn.with_async(SimTxn::leaf(w, self.costs.stock_update_us + delay));
        }
        txn
    }

    fn payment_profile(&self, home: usize, rng: &mut StdRng) -> SimTxn {
        let mut txn = SimTxn::leaf(home, self.costs.payment_base_us);
        if self.warehouses > 1 && rng.gen_bool(self.remote_payment_prob) {
            let mut w = rng.gen_range(0..self.warehouses);
            while w == home {
                w = rng.gen_range(0..self.warehouses);
            }
            txn = txn.with_async(SimTxn::leaf(w, self.costs.payment_customer_us));
        } else {
            txn = txn.with_overlap(self.costs.payment_customer_us);
        }
        txn
    }
}

impl reactdb_sim::SimWorkload for TpccSimWorkload {
    fn next_txn(&mut self, worker: usize, rng: &mut StdRng) -> SimTxn {
        let home = worker % self.warehouses;
        if self.new_order_only || self.delay_us.is_some() {
            return self.new_order_profile(home, rng);
        }
        match rng.gen_range(0..100) {
            0..=44 => self.new_order_profile(home, rng),
            45..=87 => self.payment_profile(home, rng),
            88..=91 => SimTxn::leaf(home, self.costs.order_status_us),
            92..=95 => SimTxn::leaf(home, self.costs.delivery_us),
            _ => SimTxn::leaf(home, self.costs.stock_level_us),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use reactdb_common::DeploymentConfig;

    fn tiny_db(warehouses: usize, config: DeploymentConfig) -> ReactDB {
        let db = ReactDB::boot(spec(warehouses), config);
        load(&db, TpccScale::tiny(warehouses)).unwrap();
        db
    }

    fn new_order_args(d: i64, c: i64, items: &[(i64, usize, i64)]) -> Vec<Value> {
        let mut args = vec![Value::Int(d), Value::Int(c), Value::Int(0)];
        for (i, w, q) in items {
            args.push(Value::Int(*i));
            args.push(Value::Str(warehouse_name(*w)));
            args.push(Value::Int(*q));
        }
        args
    }

    #[test]
    fn new_order_allocates_ids_and_inserts_lines() {
        let db = tiny_db(2, DeploymentConfig::shared_nothing(2));
        let o1 = db
            .invoke(
                &warehouse_name(0),
                "new_order",
                new_order_args(0, 1, &[(1, 0, 3), (2, 0, 1)]),
            )
            .unwrap();
        let o2 = db
            .invoke(
                &warehouse_name(0),
                "new_order",
                new_order_args(0, 2, &[(3, 0, 2)]),
            )
            .unwrap();
        assert_eq!(o1, Value::Int(1));
        assert_eq!(o2, Value::Int(2));
        assert_eq!(
            db.table(&warehouse_name(0), "orders")
                .unwrap()
                .visible_len(),
            2
        );
        assert_eq!(
            db.table(&warehouse_name(0), "order_line")
                .unwrap()
                .visible_len(),
            3
        );
        assert_eq!(
            db.table(&warehouse_name(0), "new_order")
                .unwrap()
                .visible_len(),
            2
        );
    }

    #[test]
    fn remote_items_update_the_remote_warehouse_stock() {
        for config in [
            DeploymentConfig::shared_nothing(2),
            DeploymentConfig::shared_everything_with_affinity(2),
        ] {
            let db = tiny_db(2, config);
            db.invoke(
                &warehouse_name(0),
                "new_order",
                new_order_args(0, 1, &[(7, 1, 5), (8, 0, 2)]),
            )
            .unwrap();
            let remote_stock = db
                .table(&warehouse_name(1), "stock")
                .unwrap()
                .get(&Key::Int(7))
                .unwrap();
            let row = remote_stock.read_unguarded();
            assert_eq!(row.at(1), &Value::Int(95));
            assert_eq!(row.at(4), &Value::Int(1), "remote counter must increase");
            let local_stock = db
                .table(&warehouse_name(0), "stock")
                .unwrap()
                .get(&Key::Int(8))
                .unwrap();
            assert_eq!(local_stock.read_unguarded().at(1), &Value::Int(98));
        }
    }

    #[test]
    fn stock_wraps_around_below_threshold() {
        let db = tiny_db(1, DeploymentConfig::shared_everything_with_affinity(1));
        for _ in 0..11 {
            db.invoke(
                &warehouse_name(0),
                "new_order",
                new_order_args(0, 0, &[(5, 0, 9)]),
            )
            .unwrap();
        }
        let stock = db
            .table(&warehouse_name(0), "stock")
            .unwrap()
            .get(&Key::Int(5))
            .unwrap();
        // 100 - 11*9 = 1 without wrap; the wrap adds 91 once the quantity
        // would fall below 10.
        let q = stock.read_unguarded().at(1).as_int();
        assert!(q >= 10, "stock must be replenished, got {q}");
    }

    #[test]
    fn payment_updates_ytd_and_customer_local_and_remote() {
        let db = tiny_db(2, DeploymentConfig::shared_nothing(2));
        // Local customer.
        db.invoke(
            &warehouse_name(0),
            "payment",
            vec![
                Value::Int(0),
                Value::Int(1),
                Value::Float(100.0),
                Value::Str(warehouse_name(0)),
                Value::Int(0),
            ],
        )
        .unwrap();
        // Remote customer at warehouse 1.
        db.invoke(
            &warehouse_name(0),
            "payment",
            vec![
                Value::Int(0),
                Value::Int(2),
                Value::Float(50.0),
                Value::Str(warehouse_name(1)),
                Value::Int(1),
            ],
        )
        .unwrap();
        let w = db
            .table(&warehouse_name(0), "warehouse")
            .unwrap()
            .get(&Key::Int(0))
            .unwrap();
        assert_eq!(w.read_unguarded().at(2), &Value::Float(150.0));
        let local_cust = db
            .table(&warehouse_name(0), "customer")
            .unwrap()
            .get(&Key::composite([Key::Int(0), Key::Int(1)]))
            .unwrap();
        assert_eq!(local_cust.read_unguarded().at(4), &Value::Float(-100.0));
        let remote_cust = db
            .table(&warehouse_name(1), "customer")
            .unwrap()
            .get(&Key::composite([Key::Int(1), Key::Int(2)]))
            .unwrap();
        assert_eq!(remote_cust.read_unguarded().at(4), &Value::Float(-50.0));
        assert_eq!(
            db.table(&warehouse_name(0), "history")
                .unwrap()
                .visible_len(),
            2
        );
    }

    #[test]
    fn order_status_delivery_and_stock_level_run() {
        let db = tiny_db(1, DeploymentConfig::shared_everything_with_affinity(1));
        db.invoke(
            &warehouse_name(0),
            "new_order",
            new_order_args(1, 3, &[(1, 0, 1), (2, 0, 2)]),
        )
        .unwrap();
        let status = db
            .invoke(
                &warehouse_name(0),
                "order_status",
                vec![Value::Int(1), Value::Int(3)],
            )
            .unwrap();
        assert_eq!(status, Value::Int(2));

        let delivered = db
            .invoke(
                &warehouse_name(0),
                "delivery",
                vec![Value::Int(5), Value::Int(2)],
            )
            .unwrap();
        assert_eq!(delivered, Value::Int(1));
        // The new_order entry is consumed.
        assert_eq!(
            db.table(&warehouse_name(0), "new_order")
                .unwrap()
                .visible_len(),
            0
        );
        // Customer balance now carries the order total.
        let cust = db
            .table(&warehouse_name(0), "customer")
            .unwrap()
            .get(&Key::composite([Key::Int(1), Key::Int(3)]))
            .unwrap();
        assert!(cust.read_unguarded().at(4).as_float() > 0.0);

        let low = db
            .invoke(
                &warehouse_name(0),
                "stock_level",
                vec![Value::Int(1), Value::Int(200)],
            )
            .unwrap();
        assert_eq!(
            low,
            Value::Int(2),
            "both touched items are below an impossible threshold"
        );
    }

    #[test]
    fn delivery_cost_does_not_grow_with_the_orders_already_delivered() {
        let scale = TpccScale::tiny(1);
        let db = tiny_db(1, DeploymentConfig::shared_everything_with_affinity(1));
        let w = warehouse_name(0);
        let visited = || db.metrics().counter("scan_slots_visited").unwrap_or(0);
        let mut per_delivery = Vec::new();
        for round in 0..300i64 {
            // One order of 5..=15 lines per district, then one delivery
            // that consumes them.
            let items: Vec<_> = (0..5 + round % 11).map(|i| (i, 0, 1)).collect();
            for d in 0..scale.districts as i64 {
                db.invoke(&w, "new_order", new_order_args(d, 0, &items))
                    .unwrap();
            }
            let before = visited();
            let delivered = db
                .invoke(
                    &w,
                    "delivery",
                    vec![Value::Int(1), Value::Int(scale.districts as i64)],
                )
                .unwrap();
            assert_eq!(delivered, Value::Int(scale.districts as i64));
            per_delivery.push(visited() - before);
        }
        // One `new_order` slot plus at most 15 order lines per district,
        // however many tombstones earlier deliveries left behind.
        let bound = scale.districts as u64 * (1 + 15);
        let (first, last) = (&per_delivery[..50], &per_delivery[250..]);
        assert!(first.iter().all(|&n| n <= bound), "first 50: {first:?}");
        assert!(last.iter().all(|&n| n <= bound), "last 50: {last:?}");
        assert_eq!(
            db.table(&w, "new_order").unwrap().physical_len(),
            300 * scale.districts,
            "the tombstones are all still there; delivery just never walks them"
        );
    }

    #[test]
    fn order_status_cost_does_not_grow_with_the_customers_order_history() {
        let db = tiny_db(1, DeploymentConfig::shared_everything_with_affinity(1));
        let w = warehouse_name(0);
        let visited = || db.metrics().counter("scan_slots_visited").unwrap_or(0);
        let mut per_status = Vec::new();
        for round in 0..300i64 {
            // One more order of 5..=15 lines for the same customer, then
            // that customer's order status.
            let items: Vec<_> = (0..5 + round % 11).map(|i| (i, 0, 1)).collect();
            db.invoke(&w, "new_order", new_order_args(1, 3, &items))
                .unwrap();
            let before = visited();
            let lines = db
                .invoke(&w, "order_status", vec![Value::Int(1), Value::Int(3)])
                .unwrap();
            assert_eq!(lines, Value::Int(items.len() as i64), "the newest order");
            per_status.push(visited() - before);
        }
        // One index entry plus at most 15 order lines, however many orders
        // the customer placed before.
        let bound = 1 + 15;
        let (first, last) = (&per_status[..50], &per_status[250..]);
        assert!(first.iter().all(|&n| n <= bound), "first 50: {first:?}");
        assert!(last.iter().all(|&n| n <= bound), "last 50: {last:?}");
    }

    #[test]
    fn generator_respects_mix_and_affinity() {
        let scale = TpccScale::tiny(4);
        let gen = TpccGenerator::standard(scale);
        let mut rng = StdRng::seed_from_u64(1);
        let mut new_orders = 0;
        let mut payments = 0;
        for _ in 0..2000 {
            let inv = gen.next(2, &mut rng);
            assert_eq!(inv.warehouse, 2, "client affinity to the home warehouse");
            match inv.kind {
                TpccTxnKind::NewOrder => new_orders += 1,
                TpccTxnKind::Payment => payments += 1,
                _ => {}
            }
        }
        assert!((new_orders as f64 / 2000.0 - 0.45).abs() < 0.05);
        assert!((payments as f64 / 2000.0 - 0.43).abs() < 0.05);
    }

    #[test]
    fn generated_invocations_execute_on_the_engine() {
        let db = tiny_db(2, DeploymentConfig::shared_nothing(2));
        let client = db.client();
        let retry = reactdb_engine::RetryPolicy::occ();
        let gen = TpccGenerator::standard(TpccScale::tiny(2));
        let mut rng = StdRng::seed_from_u64(7);
        let mut committed = 0;
        for i in 0..60 {
            let inv = gen.next(i % 2, &mut rng);
            match client.invoke_with_retry(
                &warehouse_name(inv.warehouse),
                inv.proc,
                inv.args.clone(),
                &retry,
            ) {
                Ok(_) => committed += 1,
                Err(e) if e.is_cc_abort() => {}
                Err(e) => panic!("unexpected error {e:?} for {inv:?}"),
            }
        }
        assert!(committed > 50);
        assert_eq!(client.stats().in_flight, 0);
    }

    #[test]
    fn sim_workload_produces_remote_children_proportional_to_probability() {
        use reactdb_sim::SimWorkload as _;
        let mut wl = TpccSimWorkload {
            warehouses: 8,
            remote_item_prob: 1.0,
            remote_payment_prob: 0.15,
            new_order_only: true,
            delay_us: None,
            costs: TpccSimCosts::default(),
        };
        let mut rng = StdRng::seed_from_u64(3);
        let txn = wl.next_txn(0, &mut rng);
        assert!(txn.async_children.len() >= 5, "all items remote");
        let mut wl_local = TpccSimWorkload {
            remote_item_prob: 0.0,
            ..wl.clone()
        };
        let txn = wl_local.next_txn(0, &mut rng);
        assert!(txn.async_children.is_empty());
    }
}
