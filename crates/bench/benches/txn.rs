//! Transaction-path benches on a 10 k-row indexed table: a mixed
//! read/write workload (4 point SELECTs per single-row UPDATE) with and
//! without a write-ahead log attached, explicit-transaction batch
//! commits, and the snapshot overhead of a read-only transaction; plus
//! `explicit_rw`, a short read-write transaction (BEGIN, a point read,
//! 2 UPDATEs, an INSERT, COMMIT) at 10 k and 100 k rows, whose cost
//! should depend on the size of the delta, not of the table.
//!
//! Before timing, each workload is cross-checked: the WAL and no-WAL
//! connections must reach identical table states, the UPDATE must locate
//! through the index seek (not a scan), and replaying the produced log
//! over a checkpoint copy must reproduce the live table exactly.

use criterion::{criterion_group, criterion_main, Criterion};
use rcalcite_core::catalog::{Catalog, MemTable, Schema};
use rcalcite_core::datum::Datum;
use rcalcite_core::types::{RowTypeBuilder, TypeKind};
use rcalcite_core::wal::{replay, MemWal, WalWriter};
use rcalcite_sql::Connection;
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

const ROWS: i64 = 10_000;

fn catalog() -> Arc<Catalog> {
    catalog_with(ROWS)
}

fn catalog_with(rows: i64) -> Arc<Catalog> {
    let catalog = Catalog::new();
    let s = Schema::new();
    s.add_table(
        "accounts",
        MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("id", TypeKind::Integer)
                .add_not_null("balance", TypeKind::Integer)
                .build(),
            (0..rows)
                .map(|i| vec![Datum::Int(i), Datum::Int(i % 1000)])
                .collect(),
        ),
    );
    catalog.add_schema("bank", s);
    catalog
}

fn indexed_conn(catalog: Arc<Catalog>) -> Connection {
    let c = Connection::builder(catalog).build();
    c.query("CREATE INDEX acc_id ON accounts (id)").unwrap();
    c.query("ANALYZE").unwrap();
    c
}

/// One step of the mixed workload: 4 point reads, then 1 point update.
fn mixed_step(c: &Connection, i: i64) {
    for k in 0..4 {
        let id = (i * 7 + k * 131) % ROWS;
        black_box(
            c.query(&format!("SELECT balance FROM accounts WHERE id = {id}"))
                .unwrap(),
        );
    }
    let id = (i * 13) % ROWS;
    black_box(
        c.query(&format!(
            "UPDATE accounts SET balance = balance + 1 WHERE id = {id}"
        ))
        .unwrap(),
    );
}

/// One explicit read-write transaction on a `rows`-row table: BEGIN, a
/// point read, 2 UPDATEs, an INSERT of a fresh id, COMMIT. The second
/// UPDATE locates its row after the transaction has written, and the
/// INSERT is staged after both updates.
fn explicit_rw_step(c: &Connection, rows: i64, i: i64) {
    c.query("BEGIN").unwrap();
    black_box(
        c.query(&format!(
            "SELECT balance FROM accounts WHERE id = {}",
            (i * 7) % rows
        ))
        .unwrap(),
    );
    for id in [(i * 13) % rows, (i * 17 + 1) % rows] {
        c.query(&format!(
            "UPDATE accounts SET balance = balance + 1 WHERE id = {id}"
        ))
        .unwrap();
    }
    c.query(&format!("INSERT INTO accounts VALUES ({}, 0)", rows + i))
        .unwrap();
    black_box(c.query("COMMIT").unwrap());
}

fn table_image(c: &Connection) -> Vec<Vec<Datum>> {
    c.query("SELECT id, balance FROM accounts ORDER BY id")
        .unwrap()
        .rows
}

fn bench_txn(c: &mut Criterion) {
    let mut group = c.benchmark_group("txn");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));

    let plain = indexed_conn(catalog());
    let logged_catalog = catalog();
    let mem = MemWal::default();
    logged_catalog
        .txns()
        .attach_wal(WalWriter::new(Box::new(mem.clone())));
    let logged = indexed_conn(logged_catalog);

    // Cross-checks: the located write is an index seek, both connections
    // converge to the same state, and the log replays to that state.
    let plan = plain
        .query("EXPLAIN UPDATE accounts SET balance = balance + 1 WHERE id = 7")
        .unwrap();
    let plan: Vec<String> = plan.rows.iter().map(|r| r[0].to_string()).collect();
    assert!(
        plan.join("\n").contains("IndexSeek"),
        "update must seek:\n{}",
        plan.join("\n")
    );
    for i in 0..100 {
        mixed_step(&plain, i);
        mixed_step(&logged, i);
    }
    assert_eq!(table_image(&plain), table_image(&logged));
    let checkpoint = catalog();
    let bytes = mem.handle().lock().clone();
    let report = replay(&bytes, &checkpoint).unwrap();
    assert_eq!(report.txns, 100, "one committed txn per workload step");
    assert_eq!(
        table_image(&Connection::builder(checkpoint).build()),
        table_image(&logged),
        "replayed state must match the live table"
    );

    let step = Cell::new(0i64);
    group.bench_function("mixed_4r1w/no_wal", |b| {
        b.iter(|| {
            let i = step.get();
            step.set(i + 1);
            mixed_step(&plain, i);
        })
    });
    let step = Cell::new(0i64);
    group.bench_function("mixed_4r1w/wal", |b| {
        b.iter(|| {
            let i = step.get();
            step.set(i + 1);
            mixed_step(&logged, i);
        })
    });

    // Explicit transaction: 16 single-row updates amortize one
    // BEGIN/COMMIT (and, on the logged connection, one WAL sync).
    let step = Cell::new(0i64);
    group.bench_function("commit_batch16/wal", |b| {
        b.iter(|| {
            let base = step.get();
            step.set(base + 16);
            logged.query("BEGIN").unwrap();
            for k in 0..16 {
                let id = (base + k * 389) % ROWS;
                logged
                    .query(&format!(
                        "UPDATE accounts SET balance = balance + 1 WHERE id = {id}"
                    ))
                    .unwrap();
            }
            black_box(logged.query("COMMIT").unwrap());
        })
    });

    // Snapshot overhead: BEGIN + 4 reads + read-only COMMIT.
    let step = Cell::new(0i64);
    group.bench_function("readonly_txn", |b| {
        b.iter(|| {
            let i = step.get();
            step.set(i + 1);
            plain.query("BEGIN").unwrap();
            for k in 0..4 {
                let id = (i * 11 + k * 43) % ROWS;
                black_box(
                    plain
                        .query(&format!("SELECT balance FROM accounts WHERE id = {id}"))
                        .unwrap(),
                );
            }
            plain.query("COMMIT").unwrap();
        })
    });
    group.finish();
}

fn bench_explicit_rw(c: &mut Criterion) {
    let mut group = c.benchmark_group("txn/explicit_rw");
    group
        .sample_size(40)
        .measurement_time(Duration::from_secs(5));
    for rows in [ROWS, 10 * ROWS] {
        let plain = indexed_conn(catalog_with(rows));
        let logged_catalog = catalog_with(rows);
        let mem = MemWal::default();
        logged_catalog
            .txns()
            .attach_wal(WalWriter::new(Box::new(mem.clone())));
        let logged = indexed_conn(logged_catalog);

        // Cross-check before timing: both connections converge, and the
        // log replays to the live state.
        for i in 0..20 {
            explicit_rw_step(&plain, rows, i);
            explicit_rw_step(&logged, rows, i);
        }
        assert_eq!(table_image(&plain), table_image(&logged));
        let checkpoint = catalog_with(rows);
        let bytes = mem.handle().lock().clone();
        let report = replay(&bytes, &checkpoint).unwrap();
        assert_eq!(report.txns, 20, "one committed txn per workload step");
        assert_eq!(
            table_image(&Connection::builder(checkpoint).build()),
            table_image(&logged),
            "replayed state must match the live table"
        );
        drop(plain);

        let step = Cell::new(20i64);
        group.bench_function(format!("{}k_rows", rows / 1000), |b| {
            b.iter(|| {
                let i = step.get();
                step.set(i + 1);
                explicit_rw_step(&logged, rows, i);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_txn, bench_explicit_rw);
criterion_main!(benches);
