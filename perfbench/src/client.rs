//! One client of the SQL front door. Untraced, a statement is just
//! `Connection::execute` plus draining the `ResultSet` (reads) or
//! `Connection::query` (everything else). Traced, the client also
//! records the spans and per-layer counts of `trace`.

use crate::procfs;
use crate::trace::{tracer, SpanGuard};
use rcalcite_core::error::Result;
use rcalcite_core::planner::hep::HepPlanner;
use rcalcite_core::planner::volcano::{FixpointMode, VolcanoPlanner};
use rcalcite_core::rules::{default_logical_rules, index_access_rules, join_exploration_rules};
use rcalcite_core::traits::Convention;
use rcalcite_sql::{Connection, QueryResult};
use std::time::Instant;

/// Per-layer counts gathered by traced statements. Times live in the
/// spans; these are the counts taken next to them.
#[derive(Default, Clone, Debug)]
pub struct LayerCounts {
    pub statements: u64,
    pub parse_calls: u64,
    pub plan_cache_lookups: u64,
    pub plan_cache_hits: u64,
    pub hep_rule_firings: u64,
    pub volcano_rule_firings: u64,
    pub volcano_memo_exprs: u64,
    pub metadata_cache_entries: u64,
    pub exec_rows_out: u64,
    /// Process CPU seconds and wall seconds across the exec spans of a
    /// client that runs alone (see [`Client::solo`]).
    pub exec_cpu_s: f64,
    pub exec_wall_s: f64,
    /// The calling thread's, across exec spans.
    pub exec_ctx_switches: u64,
    pub spill_bytes_written: u64,
    pub spill_bytes_read: u64,
    pub spill_runs: u64,
    pub dml_rows: u64,
    pub dashboards: u64,
    pub mv_served: u64,
    pub txn_conflicts: u64,
    pub txn_retries: u64,
}

impl LayerCounts {
    pub fn merge(&mut self, o: &LayerCounts) {
        self.statements += o.statements;
        self.parse_calls += o.parse_calls;
        self.plan_cache_lookups += o.plan_cache_lookups;
        self.plan_cache_hits += o.plan_cache_hits;
        self.hep_rule_firings += o.hep_rule_firings;
        self.volcano_rule_firings += o.volcano_rule_firings;
        self.volcano_memo_exprs += o.volcano_memo_exprs;
        self.metadata_cache_entries += o.metadata_cache_entries;
        self.exec_rows_out += o.exec_rows_out;
        self.exec_cpu_s += o.exec_cpu_s;
        self.exec_wall_s += o.exec_wall_s;
        self.exec_ctx_switches += o.exec_ctx_switches;
        self.spill_bytes_written += o.spill_bytes_written;
        self.spill_bytes_read += o.spill_bytes_read;
        self.spill_runs += o.spill_runs;
        self.dml_rows += o.dml_rows;
        self.dashboards += o.dashboards;
        self.mv_served += o.mv_served;
        self.txn_conflicts += o.txn_conflicts;
        self.txn_retries += o.txn_retries;
    }
}

/// What a write statement is, for naming its span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Write {
    /// UPDATE/INSERT/DELETE outside a transaction: locate, stage and
    /// commit in one statement.
    Autocommit,
    Begin,
    /// UPDATE/INSERT/DELETE inside BEGIN: locate and stage only.
    Dml,
    Commit,
}

impl Write {
    fn span(self) -> &'static str {
        match self {
            Write::Autocommit => "commit.autocommit",
            Write::Begin => "txn.begin",
            Write::Dml => "dml",
            Write::Commit => "commit",
        }
    }
}

/// The planners the traced run uses to count rule firings and memo
/// size, assembled from the same public rule constructors as a built
/// connection (without the materialized-view rule).
struct Planners {
    hep: HepPlanner,
    volcano: VolcanoPlanner,
}

impl Planners {
    fn new() -> Planners {
        let mut rules = default_logical_rules();
        rules.extend(index_access_rules());
        rules.extend(join_exploration_rules());
        rules.push(rcalcite_enumerable::implement_rule());
        Planners {
            hep: HepPlanner::new(default_logical_rules()),
            volcano: VolcanoPlanner::new(rules).with_mode(FixpointMode::Exhaustive),
        }
    }
}

pub struct Client {
    pub conn: Connection,
    /// Present while tracing.
    planners: Option<Planners>,
    pub counts: LayerCounts,
    /// No other client runs while this one reads, so the process's CPU
    /// time during its exec spans is that exec's, and is counted.
    pub solo: bool,
    /// Request ids are `id << 40 | n`, unique across clients.
    id: u64,
    next_request: u64,
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl Client {
    pub fn new(conn: Connection, id: u64) -> Client {
        Client {
            conn,
            planners: None,
            counts: LayerCounts::default(),
            solo: false,
            id,
            next_request: 0,
        }
    }

    pub fn set_traced(&mut self, traced: bool) {
        self.planners = traced.then(Planners::new);
    }

    fn statement(&mut self) -> SpanGuard {
        self.next_request += 1;
        self.counts.statements += 1;
        tracer().statement(self.id << 40 | self.next_request)
    }

    /// A SELECT, fully drained. `dashboard` marks the texts a
    /// materialized view should serve.
    pub fn read(&mut self, sql: &str, dashboard: bool) -> Result<QueryResult> {
        if self.planners.is_none() {
            return self.conn.execute(sql)?.collect();
        }
        if self.conn.in_transaction() {
            let _stmt = self.statement();
            let _span = tracer().enter("txn.read");
            return self.conn.query(sql);
        }
        self.traced_read(sql, dashboard)
    }

    /// The traced read pipeline. Before the statement span opens: the
    /// plan-cache outcome from the EXPLAIN header on the same text (same
    /// cache key), and the calibration of the work public calls do
    /// inside themselves. On a miss the statement then converts and
    /// optimizes through the connection before executing.
    fn traced_read(&mut self, sql: &str, dashboard: bool) -> Result<QueryResult> {
        let t = tracer();
        let header = self.conn.explain(sql)?;
        let hit = header.starts_with("-- plan cache: hit");
        let c = &mut self.counts;
        c.plan_cache_lookups += 1;
        c.plan_cache_hits += u64::from(hit);
        if dashboard {
            c.dashboards += 1;
            c.mv_served += u64::from(
                header
                    .lines()
                    .any(|l| l.starts_with("-- mv: substituted") && l.ends_with("(fresh)")),
            );
        }
        let started = Instant::now();
        rcalcite_sql::parse(sql)?;
        let parse_ns = elapsed_ns(started);
        let mut hep_ns = 0;
        if !hit {
            let planners = self.planners.as_ref().expect("traced client");
            let logical = self.conn.parse_to_rel(sql)?;
            let mq = self.conn.metadata_query();
            let started = Instant::now();
            let (normalized, fired) = planners.hep.optimize_counted(&logical, &mq);
            hep_ns = elapsed_ns(started);
            let mq = self.conn.metadata_query();
            let (_, _, stats) = planners.volcano.optimize_with_stats(
                &normalized,
                &Convention::enumerable(),
                &mq,
            )?;
            let c = &mut self.counts;
            c.hep_rule_firings += fired as u64;
            c.volcano_rule_firings += stats.rule_firings as u64;
            c.volcano_memo_exprs += stats.expressions as u64;
            c.metadata_cache_entries += mq.cache_len() as u64;
        }
        let spill = self.conn.spill_stats();
        let spill_before = (spill.bytes_written(), spill.bytes_read(), spill.runs());
        let result = {
            let _stmt = self.statement();
            if !hit {
                let logical = {
                    let span = t.enter("convert");
                    let logical = self.conn.parse_to_rel(sql)?;
                    t.derived("parse", span.start_ns(), parse_ns);
                    logical
                };
                let span = t.enter("volcano");
                self.conn.optimize(&logical)?;
                t.derived("hep", span.start_ns(), hep_ns);
                self.counts.parse_calls += 1;
            }
            let cpu_before = self.solo.then(procfs::cpu_seconds).flatten();
            let ctx_before = procfs::thread_ctx_switches().unwrap_or(0);
            let wall = Instant::now();
            let span = t.enter("exec");
            let result = self.conn.execute(sql)?.collect()?;
            let c = &mut self.counts;
            if let Some(before) = cpu_before {
                c.exec_wall_s += wall.elapsed().as_secs_f64();
                c.exec_cpu_s += procfs::cpu_seconds().unwrap_or(before) - before;
            }
            c.exec_ctx_switches += procfs::thread_ctx_switches()
                .unwrap_or(0)
                .saturating_sub(ctx_before);
            t.derived("parse", span.start_ns(), parse_ns);
            c.parse_calls += 1;
            result
        };
        let c = &mut self.counts;
        c.exec_rows_out += result.rows.len() as u64;
        let spill = self.conn.spill_stats();
        c.spill_bytes_written += spill.bytes_written() - spill_before.0;
        c.spill_bytes_read += spill.bytes_read() - spill_before.1;
        c.spill_runs += spill.runs() - spill_before.2;
        Ok(result)
    }

    /// Any statement other than a SELECT.
    pub fn write(&mut self, kind: Write, sql: &str) -> Result<QueryResult> {
        if self.planners.is_none() {
            return self.conn.query(sql);
        }
        let result = {
            let _stmt = self.statement();
            let _span = tracer().enter(kind.span());
            self.conn.query(sql)?
        };
        if kind == Write::Dml {
            self.counts.dml_rows += affected_rows(&result);
        }
        Ok(result)
    }
}

/// The row count of a DML result message ("3 rows updated").
pub fn affected_rows(result: &QueryResult) -> u64 {
    result
        .rows
        .first()
        .and_then(|r| r.first())
        .and_then(|d| d.to_string().split(' ').next()?.parse().ok())
        .unwrap_or(0)
}
