//! The `olap` and `olap_spill` runs: one closed-loop client over the
//! analytic query stream of [`crate::queries`], every answer checked
//! against a reference connection, with a few single-row writes after
//! each query on a second connection.

use crate::client::{affected_rows, Client, Write};
use crate::data::{SALES, STREAM_WRITES};
use crate::env::{self, Checks, ScratchDir};
use crate::queries::{texts, Stream, LITERALS_PER_TEMPLATE, TEMPLATE_NAMES};
use crate::rng::Rng;
use crate::summary::{Latencies, Phase};
use crate::{Args, Report, Traced};
use rcalcite_core::datum::Row;
use rcalcite_core::error::{CalciteError, Result};
use rcalcite_sql::{Connection, ExecutionMode};
use std::hash::{Hash, Hasher};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The byte budget of `olap_spill`: the 10k-group aggregate, the full
/// sort and the 3-way join spill under it, the other templates stay in
/// memory.
pub const SPILL_BUDGET: usize = 256 * 1024;

/// Single-row UPDATEs per second of run time, issued after each query
/// to catch up with that rate, on a second connection. A fixed rate
/// gives every run the same number of writes (and log to replay)
/// whatever its speed. They set a column to its own value, so the
/// answers stay as they were, and the query connection's plan cache
/// stays warm (a commit empties only the committing connection's
/// cache).
pub const WRITES_PER_SECOND: f64 = 40.0;

/// Committed transactions a `recovery_s` sample replays: the paced
/// writes of the first 5 seconds.
const RECOVERY_TXNS: usize = 200;

fn answer_hash(rows: &[Row]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    rows.hash(&mut h);
    h.finish()
}

/// Hashes of every text's answer on the reference connection (row
/// engine, 1 worker, unbounded memory, no indexes), `[template][literal]`.
pub fn reference_hashes(seed: u64) -> Result<Vec<Vec<u64>>> {
    let conn = Connection::builder(crate::data::Dataset::generate(seed).load())
        .execution_mode(ExecutionMode::Row)
        .workers(1)
        .build();
    texts(seed)
        .iter()
        .map(|ts| {
            ts.iter()
                .map(|q| Ok(answer_hash(&conn.query(q)?.rows)))
                .collect()
        })
        .collect()
}

/// [`reference_hashes`] computed by a child process of this binary
/// (`perfbench --reference --seed <n>`), so the reference catalog never
/// counts toward this process's peak memory. `meanwhile` runs while the
/// child works.
fn reference_hashes_in_child<T>(
    seed: u64,
    meanwhile: impl FnOnce() -> Result<T>,
) -> Result<(Vec<Vec<u64>>, T)> {
    let fail = |what: String| CalciteError::execution(format!("reference run: {what}"));
    let exe = std::env::current_exe().map_err(|e| fail(e.to_string()))?;
    let child = Command::new(exe)
        .args(["--reference", "--seed", &seed.to_string()])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| fail(e.to_string()))?;
    let ours = meanwhile();
    let out = child.wait_with_output().map_err(|e| fail(e.to_string()))?;
    let ours = ours?;
    if !out.status.success() {
        return Err(fail(format!("exited with {}", out.status)));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let hashes = text
        .lines()
        .map(|line| line.split_whitespace().map(str::parse).collect())
        .collect::<std::result::Result<Vec<Vec<u64>>, _>>()
        .map_err(|e| fail(e.to_string()))?;
    if hashes.len() != TEMPLATE_NAMES.len()
        || hashes.iter().any(|h| h.len() != LITERALS_PER_TEMPLATE)
    {
        return Err(fail(format!("unexpected output {text:?}")));
    }
    Ok((hashes, ours))
}

struct Env {
    reader: Client,
    writer: Client,
    /// The ids the writer updates.
    ids: Rng,
    wal: std::path::PathBuf,
    _dir: ScratchDir,
}

/// Generate, load, index, ANALYZE, open the log, open the writer's
/// connection, and warm up by preparing every distinct text once, which
/// fills the plan cache.
fn setup(args: &Args, spill: bool, texts: &[Vec<String>]) -> Result<Env> {
    let conn = env::load_indexed(args.seed, |c| {
        let b = Connection::builder(c);
        if spill {
            b.workers(1).memory_budget(SPILL_BUDGET).build()
        } else {
            b.workers(env::workers()).build()
        }
    })?;
    conn.query("ANALYZE")?;
    let dir = ScratchDir::new()?;
    let wal = env::attach_wal(conn.catalog(), &dir, args.trace)?;
    let writer = Connection::builder(conn.catalog().clone()).build();
    for q in texts.iter().flatten() {
        conn.prepare(q)?;
    }
    let mut reader = Client::new(conn, 0);
    reader.solo = true;
    Ok(Env {
        reader,
        writer: Client::new(writer, 1),
        ids: Rng::derive(args.seed, STREAM_WRITES),
        wal,
        _dir: dir,
    })
}

/// Closed loop until `duration` has passed and, with `finish_round`,
/// the stream's round is complete: a query, checked against its
/// reference hash, then the writes due at [`WRITES_PER_SECOND`]. Ending
/// on a round boundary gives every phase whole rounds of the seven
/// templates, so its throughput does not depend on which costly queries
/// fall at its end; the slices of one phase but its last go on from
/// where the previous one stopped, so they need not end on one.
fn timed(
    env: &mut Env,
    stream: &mut Stream,
    texts: &[Vec<String>],
    hashes: &[Vec<u64>],
    by_template: &mut [Latencies],
    duration: Duration,
    finish_round: bool,
) -> Phase {
    let mut phase = Phase {
        paced_writes: true,
        ..Phase::default()
    };
    let mut written = 0;
    let started = Instant::now();
    while started.elapsed() < duration || (finish_round && !stream.between_rounds()) {
        let (t, l) = stream.next_pick();
        let op = Instant::now();
        let outcome = env.reader.read(&texts[t][l], false);
        let took = op.elapsed();
        phase.ops += 1;
        match outcome {
            Ok(r) if answer_hash(&r.rows) == hashes[t][l] => {
                phase.reads.push(took);
                by_template[t].push(took);
            }
            Ok(_) => {
                eprintln!("perfbench: wrong answer for {}", texts[t][l]);
                phase.failed += 1;
            }
            Err(e) => {
                eprintln!("perfbench: {e} in {}", texts[t][l]);
                phase.failed += 1;
            }
        }
        let due = (started.elapsed().as_secs_f64() * WRITES_PER_SECOND) as u64;
        while written < due {
            written += 1;
            let sql = format!(
                "UPDATE sales SET qty = qty WHERE id = {}",
                env.ids.below_i64(SALES)
            );
            let op = Instant::now();
            let outcome = env.writer.write(Write::Autocommit, &sql);
            let took = op.elapsed();
            phase.ops += 1;
            match outcome {
                Ok(r) if affected_rows(&r) == 1 => phase.writes.push(took),
                other => {
                    eprintln!("perfbench: {sql}: {other:?}");
                    phase.failed += 1;
                }
            }
        }
    }
    phase.elapsed = started.elapsed().as_secs_f64();
    phase
}

pub fn run(args: &Args, spill: bool) -> Result<Report> {
    let texts = texts(args.seed);
    let mut checks = Checks::default();

    let (setup_s, mut env) = env::timed_setup(|| setup(args, spill, &texts))?;
    // Before timing: every distinct text once, against the reference.
    // The reference hashes then check every timed answer.
    let (hashes, answers) = reference_hashes_in_child(args.seed, || {
        texts
            .iter()
            .map(|ts| {
                ts.iter()
                    .map(|q| Ok(answer_hash(&env.reader.read(q, false)?.rows)))
                    .collect::<Result<Vec<u64>>>()
            })
            .collect::<Result<Vec<_>>>()
    })?;
    for ((ts, ours), theirs) in texts.iter().zip(&answers).zip(&hashes) {
        for (l, q) in ts.iter().enumerate() {
            checks.expect(theirs[l] == ours[l], || {
                format!("answer differs from the reference connection: {q}")
            });
        }
    }

    let mut stream = Stream::new(args.seed);
    let mut by_template = vec![Latencies::default(); texts.len()];
    // A traced run reports neither `setup_s` nor `recovery_s`.
    let (phase, traced, between) = if args.trace {
        let (untraced, traced) = crate::sliced(args, |on, slice| {
            env.reader.set_traced(on);
            env.writer.set_traced(on);
            timed(
                &mut env,
                &mut stream,
                &texts,
                &hashes,
                &mut by_template,
                slice,
                true,
            )
        });
        let mut counts = env.reader.counts.clone();
        counts.merge(&env.writer.counts);
        let summary = Traced {
            untraced_throughput: untraced.throughput(),
            traced_throughput: traced.throughput(),
            cpu_util: crate::ratio(counts.exec_cpu_s, counts.exec_wall_s),
            counts,
            peak_reserved: env.reader.conn.memory_budget().peak(),
        };
        (traced, Some(summary), crate::Between::default())
    } else {
        let (phase, between) = crate::untraced_slices(
            args,
            setup_s,
            env::Recovery::new(args.seed, &env.wal, RECOVERY_TXNS),
            || Ok(env::timed_setup(|| setup(args, spill, &texts))?.0),
            |slice, last| {
                timed(
                    &mut env,
                    &mut stream,
                    &texts,
                    &hashes,
                    &mut by_template,
                    slice,
                    last,
                )
            },
        )?;
        (phase, None, between)
    };
    let peak_rss_mb = crate::procfs::peak_rss_mib().unwrap_or(0.0);
    for (t, l) in by_template.iter().enumerate() {
        if let Some((p50, p99)) = l.p50_p99() {
            eprintln!(
                "perfbench: {:<30} n={:<4} p50={p50:.2}ms p99={p99:.2}ms",
                TEMPLATE_NAMES[t],
                l.len()
            );
        }
    }
    let spill_written = env.reader.conn.spill_stats().bytes_written();
    checks.expect(spill == (spill_written > 0), || {
        format!("olap_spill must spill and olap must not: {spill_written} bytes spilled")
    });

    let recovered = env::recover(args.seed, &env.wal)?;
    checks.expect(
        env::image(env.reader.conn.catalog(), env::SALES_IMAGE)?
            == env::image(recovered.catalog(), env::SALES_IMAGE)?,
        || "replaying the log over the initial image differs from the live sales table".into(),
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
