//! The `oltp` workload: `nproc` closed-loop clients, each with its own
//! connection to the shared catalog, commits logged to a file WAL with
//! `sync_data` per commit, and one maintained view.
//!
//! Seeded op mix per client:
//! - 70% point reads by id
//! - 10% dashboard reads of the view's defining query
//! - 15% autocommit single-row writes: UPDATE by id (10 of 15), INSERT
//!   of a new id (4 of 15), DELETE by id (1 of 15)
//! - 5% explicit transactions: BEGIN, a point read, 2 UPDATEs, an
//!   INSERT, COMMIT
//!
//! A `TxnConflict` is retried up to 3 times.

use crate::client::{affected_rows, Client, Write};
use crate::data::{sales_row, sql_values, SALES, STORES, STREAM_OPS};
use crate::env::{self, Checks, ScratchDir};
use crate::rng::Rng;
use crate::summary::Phase;
use crate::{Args, Report, Traced};
use rcalcite_core::datum::{Datum, Row};
use rcalcite_core::error::{CalciteError, Result};
use rcalcite_core::mv::Materialization;
use rcalcite_sql::{Connection, QueryResult};
use std::time::{Duration, Instant};

pub const DASHBOARD: &str = "SELECT store, COUNT(*) AS c, SUM(qty) AS q FROM sales GROUP BY store";
const RETRIES: u32 = 3;
/// Committed transactions a `recovery_s` sample replays.
const RECOVERY_TXNS: usize = 100;
/// Warm-up reads per client before timing.
const WARM_POINT_READS: i64 = 20;

#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    PointRead(i64),
    Dashboard,
    Update(i64),
    Insert(Row),
    Delete(i64),
    Txn {
        read: i64,
        updates: [i64; 2],
        insert: Row,
    },
}

/// The kinds of op in one deck of 100, in the workload's proportions.
const DECK: [(Kind, usize); 6] = [
    (Kind::PointRead, 70),
    (Kind::Dashboard, 10),
    (Kind::Update, 10),
    (Kind::Insert, 4),
    (Kind::Delete, 1),
    (Kind::Txn, 5),
];

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    PointRead,
    Dashboard,
    Update,
    Insert,
    Delete,
    Txn,
}

/// One client's seeded op stream. Ops are dealt from shuffled decks of
/// 100 holding each kind in its exact share, so a run's mix does not
/// depend on its length. Inserted ids are `SALES + client + clients *
/// k`, so clients never collide on a new id.
pub struct OpStream {
    rng: Rng,
    deck: Vec<Kind>,
    client: i64,
    clients: i64,
    inserted: i64,
}

impl OpStream {
    pub fn new(seed: u64, client: usize, clients: usize) -> OpStream {
        OpStream {
            rng: Rng::derive(seed, STREAM_OPS << 32 | client as u64),
            deck: Vec::new(),
            client: client as i64,
            clients: clients as i64,
            inserted: 0,
        }
    }

    fn new_row(&mut self) -> Row {
        let id = SALES + self.client + self.clients * self.inserted;
        self.inserted += 1;
        sales_row(&mut self.rng, id)
    }

    fn id(&mut self) -> i64 {
        self.rng.below_i64(SALES)
    }

    pub fn next_op(&mut self) -> Op {
        if self.deck.is_empty() {
            self.deck = DECK
                .iter()
                .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
                .collect();
            self.rng.shuffle(&mut self.deck);
        }
        match self.deck.pop().expect("a deck was just dealt") {
            Kind::PointRead => Op::PointRead(self.id()),
            Kind::Dashboard => Op::Dashboard,
            Kind::Update => Op::Update(self.id()),
            Kind::Insert => Op::Insert(self.new_row()),
            Kind::Delete => Op::Delete(self.id()),
            Kind::Txn => Op::Txn {
                read: self.id(),
                updates: [self.id(), self.id()],
                insert: self.new_row(),
            },
        }
    }
}

fn point_read_sql(id: i64) -> String {
    format!("SELECT id, product, store, day, qty, discount FROM sales WHERE id = {id}")
}

fn update_sql(id: i64) -> String {
    format!("UPDATE sales SET qty = qty + 1 WHERE id = {id}")
}

fn insert_sql(row: &Row) -> String {
    format!("INSERT INTO sales VALUES ({})", sql_values(row))
}

/// A point read returns at most the one row with that id (it may have
/// been deleted).
fn point_read_ok(id: i64, r: &QueryResult) -> bool {
    r.rows.len() <= 1 && r.rows.iter().all(|row| row[0] == Datum::Int(id))
}

/// The dashboard has one row per store that still has sales.
fn dashboard_ok(r: &QueryResult) -> bool {
    !r.rows.is_empty() && r.rows.len() <= STORES as usize
}

fn wrong(what: String) -> CalciteError {
    CalciteError::execution(format!("wrong answer: {what}"))
}

fn expect_rows(r: QueryResult, ok: impl FnOnce(u64) -> bool, sql: &str) -> Result<()> {
    let n = affected_rows(&r);
    if ok(n) {
        Ok(())
    } else {
        Err(wrong(format!("{n} rows from {sql}")))
    }
}

/// Runs `body` as one write transaction, retrying a `TxnConflict` up to
/// [`RETRIES`] times.
fn with_retries(
    client: &mut Client,
    mut body: impl FnMut(&mut Client) -> Result<()>,
) -> Result<()> {
    let mut attempt = 0;
    loop {
        match body(client) {
            Err(e) if e.is_retryable() => {
                client.counts.txn_conflicts += 1;
                if attempt == RETRIES {
                    return Err(e);
                }
                attempt += 1;
                client.counts.txn_retries += 1;
            }
            Err(e) => {
                if client.conn.in_transaction() {
                    let _ = client.conn.query("ROLLBACK");
                }
                return Err(e);
            }
            Ok(()) => return Ok(()),
        }
    }
}

/// Runs one op; `Ok(true)` for a read, `Ok(false)` for a write.
fn run_op(client: &mut Client, op: &Op) -> Result<bool> {
    match op {
        Op::PointRead(id) => {
            let r = client.read(&point_read_sql(*id), false)?;
            if !point_read_ok(*id, &r) {
                return Err(wrong(format!("point read of {id}: {:?}", r.rows)));
            }
            Ok(true)
        }
        Op::Dashboard => {
            let r = client.read(DASHBOARD, true)?;
            if !dashboard_ok(&r) {
                return Err(wrong(format!("dashboard: {} rows", r.rows.len())));
            }
            Ok(true)
        }
        Op::Update(id) => {
            let sql = update_sql(*id);
            with_retries(client, |c| {
                expect_rows(c.write(Write::Autocommit, &sql)?, |n| n <= 1, &sql)
            })?;
            Ok(false)
        }
        Op::Insert(row) => {
            let sql = insert_sql(row);
            with_retries(client, |c| {
                expect_rows(c.write(Write::Autocommit, &sql)?, |n| n == 1, &sql)
            })?;
            Ok(false)
        }
        Op::Delete(id) => {
            let sql = format!("DELETE FROM sales WHERE id = {id}");
            with_retries(client, |c| {
                expect_rows(c.write(Write::Autocommit, &sql)?, |n| n <= 1, &sql)
            })?;
            Ok(false)
        }
        Op::Txn {
            read,
            updates,
            insert,
        } => {
            let read_sql = point_read_sql(*read);
            let insert = insert_sql(insert);
            with_retries(client, |c| {
                c.write(Write::Begin, "BEGIN")?;
                let r = c.read(&read_sql, false)?;
                if !point_read_ok(*read, &r) {
                    return Err(wrong(format!("point read of {read} in a transaction")));
                }
                for id in updates {
                    let sql = update_sql(*id);
                    expect_rows(c.write(Write::Dml, &sql)?, |n| n <= 1, &sql)?;
                }
                expect_rows(c.write(Write::Dml, &insert)?, |n| n == 1, &insert)?;
                c.write(Write::Commit, "COMMIT")?;
                Ok(())
            })?;
            Ok(false)
        }
    }
}

fn client_loop(
    client: &mut Client,
    stream: &mut OpStream,
    started: Instant,
    duration: Duration,
) -> Phase {
    let mut phase = Phase::default();
    while started.elapsed() < duration {
        let op = stream.next_op();
        let at = Instant::now();
        let outcome = run_op(client, &op);
        let took = at.elapsed();
        phase.ops += 1;
        match outcome {
            Ok(true) => phase.reads.push(took),
            Ok(false) => phase.writes.push(took),
            Err(e) => {
                eprintln!("perfbench: {op:?}: {e}");
                phase.failed += 1;
            }
        }
    }
    phase
}

/// All clients for `duration`.
fn timed(clients: &mut [Client], streams: &mut [OpStream], duration: Duration) -> Phase {
    let started = Instant::now();
    let phases: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(streams.iter_mut())
            .map(|(c, st)| s.spawn(move || client_loop(c, st, started, duration)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Phase::default();
    for p in phases {
        all.absorb(p);
    }
    all.elapsed = started.elapsed().as_secs_f64();
    all
}

struct Env {
    clients: Vec<Client>,
    wal: std::path::PathBuf,
    _dir: ScratchDir,
}

const VIEW: &str = "by_store";

/// Generate, load, index, ANALYZE, create the view, open the log, open
/// one connection per client, and warm each up with reads.
fn setup(args: &Args) -> Result<Env> {
    let conn = env::load_indexed(args.seed, |c| Connection::builder(c).build())?;
    conn.query("ANALYZE")?;
    conn.query(&format!("CREATE MATERIALIZED VIEW {VIEW} AS {DASHBOARD}"))?;
    let catalog = conn.catalog().clone();
    let dir = ScratchDir::new()?;
    let wal = env::attach_wal(&catalog, &dir, args.trace)?;
    let view = catalog
        .ivm()
        .get(&format!("mv.{VIEW}"))
        .ok_or_else(|| CalciteError::internal("materialized view was not registered"))?;
    let mut clients = vec![Client::new(conn, 0)];
    for i in 1..env::workers() {
        let conn = Connection::builder(catalog.clone()).build();
        conn.add_materialization(
            Materialization::new(view.name.clone(), view.table.clone(), view.plan.clone())
                .with_maintained(view.clone()),
        );
        clients.push(Client::new(conn, i as u64));
    }
    let mut ids = Rng::derive(args.seed, STREAM_OPS);
    for c in &mut clients {
        for _ in 0..WARM_POINT_READS {
            run_op(c, &Op::PointRead(ids.below_i64(SALES)))?;
        }
        run_op(c, &Op::Dashboard)?;
    }
    Ok(Env {
        clients,
        wal,
        _dir: dir,
    })
}

pub fn run(args: &Args) -> Result<Report> {
    let mut checks = Checks::default();
    let (setup_s, mut env) = env::timed_setup(|| setup(args))?;
    let n = env.clients.len();
    let mut streams: Vec<OpStream> = (0..n).map(|i| OpStream::new(args.seed, i, n)).collect();

    // A traced run reports neither `setup_s` nor `recovery_s`.
    let (phase, traced, between) = if args.trace {
        let clients = &mut env.clients;
        let (untraced, traced) = crate::sliced(args, |on, slice| {
            for c in clients.iter_mut() {
                c.set_traced(on);
            }
            timed(clients, &mut streams, slice)
        });
        let mut counts = crate::client::LayerCounts::default();
        for c in clients.iter_mut() {
            c.set_traced(false);
            counts.merge(&c.counts);
        }
        let peak_reserved = clients
            .iter()
            .map(|c| c.conn.memory_budget().peak())
            .max()
            .unwrap_or(0);
        let summary = Traced {
            untraced_throughput: untraced.throughput(),
            traced_throughput: traced.throughput(),
            // Clients run at once, so no CPU time is one exec's: this is
            // the whole process's over the traced slices.
            cpu_util: crate::ratio(traced.cpu_s, traced.elapsed),
            counts,
            peak_reserved,
        };
        (traced, Some(summary), crate::Between::default())
    } else {
        let clients = &mut env.clients;
        let (phase, between) = crate::untraced_slices(
            args,
            setup_s,
            env::Recovery::new(args.seed, &env.wal, RECOVERY_TXNS),
            || Ok(env::timed_setup(|| setup(args))?.0),
            |slice, _| timed(clients, &mut streams, slice),
        )?;
        (phase, None, between)
    };
    let peak_rss_mb = crate::procfs::peak_rss_mib().unwrap_or(0.0);

    // After the run: the log replays to the live tables, and the view
    // equals a recompute on a connection without views.
    let live = env.clients[0].conn.catalog().clone();
    let recovered = env::recover(args.seed, &env.wal)?;
    checks.expect(
        env::image(&live, env::SALES_IMAGE)? == env::image(recovered.catalog(), env::SALES_IMAGE)?,
        || "replaying the log over the initial image differs from the live sales table".into(),
    );
    checks.expect(
        env::image(
            &live,
            &format!("SELECT store, c, q FROM mv.{VIEW} ORDER BY store"),
        )? == env::image(&live, &format!("{DASHBOARD} ORDER BY store"))?,
        || format!("{VIEW} differs from a recompute of its definition"),
    );

    let mut report = Report::new(&checks, phase.ops, phase.failed);
    report.metrics = match traced {
        Some(traced) => traced.per_layer(args.spans.as_deref()),
        None => {
            let (bounded, printed) = crate::end_to_end(&phase, peak_rss_mb, &between);
            report.printed = printed;
            bounded
        }
    };
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_op_stream() {
        let ops = |seed, client| {
            let mut s = OpStream::new(seed, client, 2);
            (0..2000).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(ops(7, 0), ops(7, 0));
        assert_ne!(ops(7, 0), ops(8, 0));
        assert_ne!(ops(7, 0), ops(7, 1));
        // Every 100 ops hold the stated shares exactly.
        let all = ops(7, 0);
        let count = |f: fn(&Op) -> bool| all.iter().filter(|o| f(o)).count();
        assert_eq!(count(|o| matches!(o, Op::PointRead(_))), 1400);
        assert_eq!(count(|o| matches!(o, Op::Dashboard)), 200);
        assert_eq!(count(|o| matches!(o, Op::Update(_))), 200);
        assert_eq!(count(|o| matches!(o, Op::Insert(_))), 80);
        assert_eq!(count(|o| matches!(o, Op::Delete(_))), 20);
        assert_eq!(count(|o| matches!(o, Op::Txn { .. })), 100);
    }

    #[test]
    fn inserted_ids_are_disjoint_across_clients() {
        let ids = |client| {
            let mut s = OpStream::new(3, client, 2);
            (0..10).map(|_| s.new_row()[0].clone()).collect::<Vec<_>>()
        };
        let (a, b) = (ids(0), ids(1));
        assert!(a.iter().all(|id| !b.contains(id)));
        assert_eq!(a[0], Datum::Int(SALES));
        assert_eq!(b[0], Datum::Int(SALES + 1));
    }
}
