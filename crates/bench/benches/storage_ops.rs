//! Micro-benchmarks of the storage substrate: point reads, inserts and range
//! scans on a table with a secondary index.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use reactdb_common::{Key, Value};
use reactdb_storage::{ColumnType, Schema, Table, Tuple};
use std::sync::Arc;

fn table_with_rows(rows: i64) -> Arc<Table> {
    let schema = Schema::of(
        &[
            ("id", ColumnType::Int),
            ("grp", ColumnType::Int),
            ("val", ColumnType::Float),
        ],
        &["id"],
    );
    let table = Arc::new(Table::with_indexes(
        "bench",
        schema,
        &[vec!["grp".to_owned()]],
    ));
    for i in 0..rows {
        table
            .load_row(Tuple::of([
                Value::Int(i),
                Value::Int(i % 100),
                Value::Float(i as f64),
            ]))
            .unwrap();
    }
    table
}

fn bench_storage(c: &mut Criterion) {
    let table = table_with_rows(10_000);

    c.bench_function("storage/point_read", |b| {
        let mut i = 0i64;
        b.iter(|| {
            i = (i + 7) % 10_000;
            let record = table.get(&Key::Int(i)).unwrap();
            criterion::black_box(record.read_stable());
        })
    });

    c.bench_function("storage/range_scan_100", |b| {
        b.iter(|| {
            let hits = table.range(
                std::ops::Bound::Included(&Key::Int(500)),
                std::ops::Bound::Excluded(&Key::Int(600)),
            );
            criterion::black_box(hits.len());
        })
    });

    c.bench_function("storage/secondary_lookup", |b| {
        b.iter(|| {
            let page = table.index_walk(0, &Key::Int(42), None, false, usize::MAX);
            criterion::black_box(page.slots.len())
        })
    });

    // Keys must stay unique across criterion's warm-up and measurement
    // phases, so the counter lives outside the per-phase closure.
    let next_key = std::sync::atomic::AtomicI64::new(1_000_000);
    c.bench_function("storage/load_row", |b| {
        b.iter_batched(
            || {
                let next = next_key.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Tuple::of([Value::Int(next), Value::Int(next % 100), Value::Float(0.0)])
            },
            |row| table.load_row(row).unwrap(),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_storage);
criterion_main!(benches);
