//! `perfbench`: the end-to-end benchmark of the rcalcite SQL front door.
//!
//! ```text
//! perfbench --workload <olap|olap_spill|oltp> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! Builds the seeded dataset, runs one workload as a closed loop for
//! `--seconds`, checks every answer, and prints one JSON object as the
//! last line of stdout: the end-to-end metrics untraced (`--trace 0`),
//! or the per-layer metrics of a traced run (`--trace 1`). Exits 1 when
//! a check fails. `perfbench/run.py` builds and runs it; see
//! `perfbench/README.md`.

mod client;
mod data;
mod env;
mod olap;
mod oltp;
mod procfs;
mod queries;
mod rng;
mod summary;
mod trace;

use client::LayerCounts;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Duration;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Olap,
    OlapSpill,
    Oltp,
}

#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub spans: Option<PathBuf>,
}

impl Args {
    pub fn duration(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }

    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
            (None, None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a whole number: {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(match value.as_str() {
                        "olap" => Workload::Olap,
                        "olap_spill" => Workload::OlapSpill,
                        "oltp" => Workload::Oltp,
                        other => return Err(format!("unknown workload {other}")),
                    })
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    })
                }
                "--spans" => spans = Some(PathBuf::from(value)),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            spans,
        })
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the JSON result line.
    pub metrics: Vec<Metric>,
    /// Metrics printed before the result line only.
    pub printed: Vec<Metric>,
}

impl Report {
    pub fn new(checks: &env::Checks, attempted: u64, failed: u64) -> Report {
        Report {
            correct: checks.passed() && failed == 0,
            attempted,
            failed,
            metrics: vec![],
            printed: vec![],
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity; report those as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// What a traced run hands back: the per-layer counts, and the
/// throughput of its untraced and traced slices.
pub struct Traced {
    pub untraced_throughput: f64,
    pub traced_throughput: f64,
    pub counts: LayerCounts,
    /// `exec.cpu_util`: CPU seconds per wall second of exec.
    pub cpu_util: f64,
    /// Largest `memory_budget().peak()` over the clients.
    pub peak_reserved: usize,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

impl Traced {
    /// The per-layer metrics, from the spans recorded so far (which are
    /// then written to `spans_out`, when given).
    pub fn per_layer(&self, spans_out: Option<&std::path::Path>) -> Vec<Metric> {
        let spans = trace::tracer().take();
        if let Some(path) = spans_out {
            if let Err(e) = trace::write_spans(path, &spans) {
                eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
            }
        }
        let (own, stmt_s) = trace::self_seconds_by_name(&spans);
        let s = |name: &str| own.get(name).copied().unwrap_or(0.0);
        let attributed: f64 = own.values().sum();
        eprintln!(
            "perfbench: layer self times + unattributed = {attributed:.6} s of {stmt_s:.6} s traced statement time ({} spans)",
            spans.len()
        );
        let c = &self.counts;
        let wal = &trace::tracer().wal;
        let wal_bytes = wal.bytes.load(Ordering::Relaxed) as f64;
        let commits = wal.commits.load(Ordering::Relaxed) as f64;
        vec![
            Metric::new("parse.calls", c.parse_calls as f64, "count"),
            Metric::new("parse.self_s", s("parse"), "s"),
            Metric::new("convert.self_s", s("convert"), "s"),
            Metric::new("plan_cache.lookups", c.plan_cache_lookups as f64, "count"),
            Metric::new(
                "plan_cache.hit_ratio",
                ratio(c.plan_cache_hits as f64, c.plan_cache_lookups as f64),
                "1",
            ),
            Metric::new("hep.self_s", s("hep"), "s"),
            Metric::new("hep.rule_firings", c.hep_rule_firings as f64, "count"),
            Metric::new("volcano.self_s", s("volcano"), "s"),
            Metric::new(
                "volcano.rule_firings",
                c.volcano_rule_firings as f64,
                "count",
            ),
            Metric::new("volcano.memo_exprs", c.volcano_memo_exprs as f64, "count"),
            Metric::new(
                "metadata.cache_entries",
                c.metadata_cache_entries as f64,
                "count",
            ),
            Metric::new("exec.self_s", s("exec"), "s"),
            Metric::new("exec.rows_out", c.exec_rows_out as f64, "count"),
            Metric::new("exec.cpu_util", self.cpu_util, "1"),
            Metric::new("exec.ctx_switches", c.exec_ctx_switches as f64, "count"),
            Metric::new("spill.bytes_written", c.spill_bytes_written as f64, "bytes"),
            Metric::new("spill.bytes_read", c.spill_bytes_read as f64, "bytes"),
            Metric::new("spill.runs", c.spill_runs as f64, "count"),
            Metric::new(
                "mem.peak_reserved_bytes",
                self.peak_reserved as f64,
                "bytes",
            ),
            Metric::new("dml.self_s", s("dml"), "s"),
            Metric::new("dml.rows", c.dml_rows as f64, "count"),
            Metric::new("txn.begin_s", s("txn.begin"), "s"),
            Metric::new("txn.read_s", s("txn.read"), "s"),
            Metric::new("commit.self_s", s("commit") + s("commit.autocommit"), "s"),
            Metric::new("commit.rest_s", s("commit"), "s"),
            Metric::new("txn.conflicts", c.txn_conflicts as f64, "count"),
            Metric::new("txn.retries", c.txn_retries as f64, "count"),
            Metric::new(
                "wal.appends",
                wal.appends.load(Ordering::Relaxed) as f64,
                "count",
            ),
            Metric::new("wal.append_s", s("wal.append"), "s"),
            Metric::new("wal.bytes", wal_bytes, "bytes"),
            Metric::new(
                "wal.syncs",
                wal.syncs.load(Ordering::Relaxed) as f64,
                "count",
            ),
            Metric::new("wal.sync_s", s("wal.sync"), "s"),
            Metric::new("wal.bytes_per_commit", ratio(wal_bytes, commits), "bytes"),
            Metric::new("commit.apply_ivm_s", s("commit.apply_ivm"), "s"),
            Metric::new(
                "mv.served_ratio",
                ratio(c.mv_served as f64, c.dashboards as f64),
                "1",
            ),
            Metric::new("unattributed.self_s", s(trace::STMT), "s"),
            Metric::new("trace.stmt_s", stmt_s, "s"),
            Metric::new("trace.statements", c.statements as f64, "count"),
            Metric::new(
                "trace.overhead_ratio",
                1.0 - ratio(self.traced_throughput, self.untraced_throughput),
                "1",
            ),
        ]
    }
}

/// The end-to-end metrics of an untraced run, all over the whole timed
/// phase: those `BENCHMARK.json` bounds, then the p99s and the median
/// recovery sample, which are printed but not bounded (their run-to-run
/// spread is wider than any bound could hold; see `README.md`).
pub fn end_to_end(
    phase: &summary::Phase,
    peak_rss_mb: f64,
    between: &Between,
) -> (Vec<Metric>, Vec<Metric>) {
    let p50 = |l: &summary::Latencies| l.p50_p99().map_or(0.0, |(p50, _)| p50);
    let p99 = |l: &summary::Latencies| l.p50_p99().map_or(0.0, |(_, p99)| p99);
    let bounded = vec![
        Metric::new("setup_s", between.setup_s, "s"),
        Metric::new("throughput_ops_s", phase.throughput(), "ops/s"),
        Metric::new("read_p50_ms", p50(&phase.reads), "ms"),
        Metric::new("write_p50_ms", p50(&phase.writes), "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
        Metric::new("recovery_s", between.recovery.fastest, "s"),
    ];
    let printed = vec![
        Metric::new("read_p99_ms", p99(&phase.reads), "ms"),
        Metric::new("write_p99_ms", p99(&phase.writes), "ms"),
        Metric::new("recovery_median_s", between.recovery.median, "s"),
    ];
    (bounded, printed)
}

/// Slices of a traced run, alternately untraced and traced, so that
/// drift in the machine's speed falls on both halves alike.
const TRACE_SLICES: u32 = 10;

/// Runs a traced run's slices: `run(traced, length)` runs one slice with
/// tracing on or off. Returns the untraced and the traced phase, each
/// with the process CPU time of its slices.
pub fn sliced(
    args: &Args,
    mut run: impl FnMut(bool, Duration) -> summary::Phase,
) -> (summary::Phase, summary::Phase) {
    let slice = args.duration() / TRACE_SLICES;
    let (mut untraced, mut traced) = (summary::Phase::default(), summary::Phase::default());
    trace::tracer().take();
    for i in 0..TRACE_SLICES {
        let on = i % 2 == 1;
        let cpu_before = procfs::cpu_seconds();
        let mut phase = run(on, slice);
        if let (Some(before), Some(after)) = (cpu_before, procfs::cpu_seconds()) {
            phase.cpu_s = after - before;
        }
        if on {
            traced.absorb(phase);
        } else {
            untraced.absorb(phase);
        }
    }
    (untraced, traced)
}

/// Slices of an untraced run's timed phase.
const UNTRACED_SLICES: u32 = 25;

/// What an untraced run measures between the slices of its timed phase.
#[derive(Clone, Copy, Default)]
pub struct Between {
    /// Median of the set-up before the phase and those between slices.
    pub setup_s: f64,
    pub recovery: env::RecoveryFigures,
}

/// Runs an untraced run's slices: `run(length, last)` runs one slice
/// (`last` for the final one). After each slice, not timed as part of
/// the phase, `recovery` takes a sample, and after every
/// [`env::SETUP_EVERY`]th `setup` sets up once more and returns its
/// time; `first_setup_s` is the set-up before the phase. Returns the
/// phase of all slices together, and what was measured between them.
pub fn untraced_slices(
    args: &Args,
    first_setup_s: f64,
    mut recovery: env::Recovery,
    mut setup: impl FnMut() -> rcalcite_core::error::Result<f64>,
    mut run: impl FnMut(Duration, bool) -> summary::Phase,
) -> rcalcite_core::error::Result<(summary::Phase, Between)> {
    let mut all = summary::Phase::default();
    let mut setups = vec![first_setup_s];
    for i in 1..=UNTRACED_SLICES {
        all.absorb(run(args.duration() / UNTRACED_SLICES, i == UNTRACED_SLICES));
        recovery.sample()?;
        if i % env::SETUP_EVERY == 0 {
            setups.push(setup()?);
        }
    }
    eprintln!("perfbench: set-ups took {setups:.3?} s");
    let between = Between {
        setup_s: summary::median(&setups).expect("at least one set-up"),
        recovery: recovery.figures()?,
    };
    Ok((all, between))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `--reference --seed <n>`: the olap answer hashes on the reference
    // connection, one template per line (run as a child by `olap`).
    if let ["--reference", "--seed", seed] = argv.iter().map(String::as_str).collect::<Vec<_>>()[..]
    {
        let hashes = seed
            .parse()
            .map_err(|e| format!("--seed: {e}"))
            .and_then(|seed| olap::reference_hashes(seed).map_err(|e| e.to_string()));
        return match hashes {
            Ok(hashes) => {
                for line in hashes {
                    let line: Vec<String> = line.iter().map(u64::to_string).collect();
                    println!("{}", line.join(" "));
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match Args::parse(argv.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <olap|olap_spill|oltp> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Workload::Olap => olap::run(&args, false),
        Workload::OlapSpill => olap::run(&args, true),
        Workload::Oltp => oltp::run(&args),
    };
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in report.metrics.iter().chain(&report.printed) {
        println!("{:<26} {:>16} {}", m.name, json_number(m.value), m.unit);
    }
    println!(
        "{:<26} {:>16} 1",
        "failed_ratio",
        json_number(ratio(report.failed as f64, report.attempted as f64))
    );
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
