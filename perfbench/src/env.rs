//! Set-up and checks shared by the workloads: the loaded and indexed
//! catalog, the write-ahead log, recovery, and table images.

use crate::data::Dataset;
use crate::summary::median;
use crate::trace::{ApplyObserver, TracedWal};
use rcalcite_core::catalog::Catalog;
use rcalcite_core::datum::Row;
use rcalcite_core::error::{CalciteError, Result};
use rcalcite_core::wal::{replay, FileWal, ReplayReport, WalRecord, WalWriter};
use rcalcite_sql::Connection;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// An untraced run sets up once before its timed phase and once more
/// after every `SETUP_EVERY`th slice of it; `setup_s` is the median of
/// these set-ups, so they see the machine's speed across the run.
pub const SETUP_EVERY: u32 = 3;

pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Runs `setup` once; returns its wall time in seconds with its result.
pub fn timed_setup<T>(setup: impl FnOnce() -> Result<T>) -> Result<(f64, T)> {
    let started = Instant::now();
    let result = setup()?;
    Ok((started.elapsed().as_secs_f64(), result))
}

/// The seed's dataset loaded, with `CREATE INDEX … ON sales (id)`, on
/// the connection `build` makes.
pub fn load_indexed(
    seed: u64,
    build: impl FnOnce(Arc<Catalog>) -> Connection,
) -> Result<Connection> {
    let conn = build(Dataset::generate(seed).load());
    conn.query("CREATE INDEX sales_id ON sales (id)")?;
    Ok(conn)
}

/// A directory for one run's log, unique within the process, under the
/// system temp directory.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new() -> Result<ScratchDir> {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "perfbench-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| CalciteError::execution(format!("create {}: {e}", dir.display())))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Attaches a file log in `dir` to the catalog's transaction manager:
/// `sync_data` on every commit. Traced runs wrap it in [`TracedWal`] and
/// register [`ApplyObserver`] after the view-maintenance observer.
pub fn attach_wal(catalog: &Catalog, dir: &ScratchDir, traced: bool) -> Result<PathBuf> {
    let path = dir.0.join("wal.log");
    let file = FileWal::open(&path)?;
    let writer = if traced {
        catalog.txns().register_observer(Arc::new(ApplyObserver));
        WalWriter::new(Box::new(TracedWal(file)))
    } else {
        WalWriter::new(Box::new(file))
    };
    catalog.txns().attach_wal(writer);
    Ok(path)
}

/// Byte length of the log's prefix through its `n`-th `Commit` record,
/// or `None` when the log holds fewer. Frames are `[u32 len][u32 crc]
/// [payload]`, little-endian; a torn or undecodable frame ends the log.
pub fn commit_prefix(bytes: &[u8], n: usize) -> Option<usize> {
    let mut at = 0;
    let mut commits = 0;
    while commits < n {
        let len = bytes.get(at..at + 4)?;
        let end = at + 8 + u32::from_le_bytes(len.try_into().ok()?) as usize;
        let record = WalRecord::decode(bytes.get(at + 8..end)?).ok()?;
        if matches!(record, WalRecord::Commit { .. }) {
            commits += 1;
        }
        at = end;
    }
    Some(at)
}

fn read_log(wal: &Path) -> Result<Vec<u8>> {
    std::fs::read(wal).map_err(|e| CalciteError::execution(format!("read {}: {e}", wal.display())))
}

/// Replays `bytes` over a fresh load of the seed's initial image
/// (indexed like the live one); returns the connection, the report and
/// the replay's wall time in seconds (the load is not timed).
fn replay_fresh(seed: u64, bytes: &[u8]) -> Result<(Connection, ReplayReport, f64)> {
    let conn = load_indexed(seed, |c| Connection::builder(c).build())?;
    let started = Instant::now();
    let report = replay(bytes, conn.catalog())?;
    let took = started.elapsed().as_secs_f64();
    if report.discarded_bytes != 0 {
        return Err(CalciteError::execution(format!(
            "log has a torn tail of {} bytes after a clean run",
            report.discarded_bytes
        )));
    }
    Ok((conn, report, took))
}

/// The restart cost, `recovery_s`, sampled through an untraced run: a
/// sample replays the first `txns` committed transactions of the log
/// over a fresh load of the initial image, the same work in every
/// sample of every run whatever the run's speed. Taken between slices
/// of the timed phase, the samples see the machine's speed across the
/// run, as the throughput does.
pub struct Recovery {
    seed: u64,
    wal: PathBuf,
    txns: usize,
    samples: Vec<f64>,
}

impl Recovery {
    pub fn new(seed: u64, wal: &Path, txns: usize) -> Recovery {
        Recovery {
            seed,
            wal: wal.to_path_buf(),
            txns,
            samples: Vec::new(),
        }
    }

    /// Times one replay, once the log holds `txns` commits; before
    /// that, does nothing.
    pub fn sample(&mut self) -> Result<()> {
        let bytes = read_log(&self.wal)?;
        let Some(end) = commit_prefix(&bytes, self.txns) else {
            return Ok(());
        };
        let (_, report, took) = replay_fresh(self.seed, &bytes[..end])?;
        if report.txns != self.txns {
            return Err(CalciteError::execution(format!(
                "replayed {} transactions, not the first {}",
                report.txns, self.txns
            )));
        }
        self.samples.push(took);
        Ok(())
    }

    /// The fastest and the median sample. A run too short to log `txns`
    /// commits is given three replays of its whole log.
    pub fn figures(&mut self) -> Result<RecoveryFigures> {
        if self.samples.is_empty() {
            let bytes = read_log(&self.wal)?;
            for _ in 0..3 {
                self.samples.push(replay_fresh(self.seed, &bytes)?.2);
            }
        }
        eprintln!("perfbench: recovery samples took {:.4?} s", self.samples);
        Ok(RecoveryFigures {
            fastest: self.samples.iter().copied().fold(f64::INFINITY, f64::min),
            median: median(&self.samples).expect("at least one sample"),
        })
    }
}

/// What [`Recovery`] reports, in seconds. Every sample replays the same
/// log over the same image, so the work is the same and a slower sample
/// is slower only for what else ran on the machine (on a shared virtual
/// machine, slow stretches of a minute or more); the fastest sample is
/// `recovery_s`, and the median is printed beside it.
#[derive(Clone, Copy, Default)]
pub struct RecoveryFigures {
    pub fastest: f64,
    pub median: f64,
}

/// The whole log at `wal` replayed over a fresh load of the initial
/// image: a connection over the recovered catalog, for the checks.
pub fn recover(seed: u64, wal: &Path) -> Result<Connection> {
    Ok(replay_fresh(seed, &read_log(wal)?)?.0)
}

/// Rows of `sql` on a fresh connection over `catalog` (no views, no
/// materializations).
pub fn image(catalog: &Arc<Catalog>, sql: &str) -> Result<Vec<Row>> {
    Ok(Connection::builder(catalog.clone())
        .build()
        .query(sql)?
        .rows)
}

pub const SALES_IMAGE: &str = "SELECT * FROM sales ORDER BY id";

/// Failed checks, reported on stderr and in `correct`.
#[derive(Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("perfbench: check failed: {msg}");
            self.failures.push(msg);
        }
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcalcite_core::wal::{MemWal, WalStorage};

    #[test]
    fn commit_prefix_ends_after_the_nth_commit() {
        let mem = MemWal::new();
        let mut w = WalWriter::new(Box::new(mem.clone()));
        let mut ends = vec![];
        for txn in 1..=3 {
            w.append(&WalRecord::Begin { txn }).unwrap();
            w.append(&WalRecord::Delete {
                txn,
                table: "mart.sales".into(),
                row_id: txn,
            })
            .unwrap();
            w.append(&WalRecord::Commit {
                txn,
                commit_ts: txn,
            })
            .unwrap();
            ends.push(mem.contents().unwrap().len());
        }
        let bytes = mem.contents().unwrap();
        assert_eq!(commit_prefix(&bytes, 0), Some(0));
        assert_eq!(commit_prefix(&bytes, 1), Some(ends[0]));
        assert_eq!(commit_prefix(&bytes, 3), Some(ends[2]));
        assert_eq!(commit_prefix(&bytes, 4), None);
        // A torn last frame ends the log before the third commit.
        assert_eq!(commit_prefix(&bytes[..bytes.len() - 1], 3), None);
        assert_eq!(commit_prefix(&bytes[..bytes.len() - 1], 2), Some(ends[1]));
    }
}
