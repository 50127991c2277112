//! Spans for the traced run, recorded from the benchmark's own code
//! around calls into each layer's public functions. Nothing inside the
//! program is instrumented.
//!
//! A span has a name, start, end, parent and request id. Every
//! statement is a root span (`stmt`); the layer calls it makes are its
//! children. Spans are kept in memory and written out once at the end.
//! A span's self time is its duration minus the part of it its children
//! cover; a root's self time is the statement's `unattributed` time.
//!
//! Two kinds of children are not timed directly around a call:
//!
//! - *Derived* children stand for work a public call does inside
//!   itself: `Connection::parse_to_rel` and `Connection::execute` parse
//!   their text, and `Connection::optimize` runs the heuristic phase
//!   before Volcano. The benchmark times the same work on the same input
//!   just before the statement (`parse`, `HepPlanner::optimize_counted`)
//!   and records it as a child at the start of the enclosing span.
//! - Children recorded from inside the commit path, which calls the
//!   benchmark's [`TracedWal`] and [`ApplyObserver`] on the committing
//!   thread: `wal.append`, `wal.sync`, and `commit.apply_ivm` (from the
//!   sync's return to the observer, which runs after apply, index
//!   maintenance and view maintenance).

use rcalcite_core::error::Result;
use rcalcite_core::txn::{CommitObserver, DeltaOp};
use rcalcite_core::wal::{FileWal, WalStorage};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One completed span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Name of the root span of every traced statement.
pub const STMT: &str = "stmt";

struct Open {
    id: u64,
    request: u64,
}

thread_local! {
    /// Spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
    /// When this thread's last traced WAL sync returned.
    static LAST_SYNC_END: Cell<u64> = const { Cell::new(0) };
}

/// Counts taken where the WAL and commit work happens, inside traced
/// statements only.
#[derive(Default)]
pub struct WalCounters {
    pub appends: AtomicU64,
    pub bytes: AtomicU64,
    pub syncs: AtomicU64,
    /// Commits that reached the observer (applied write transactions).
    pub commits: AtomicU64,
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    pub wal: WalCounters,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();

/// The process-wide tracer, created on first use. Spans are recorded
/// only inside a statement opened with [`Tracer::statement`].
pub fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| Tracer {
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
        wal: WalCounters::default(),
    })
}

/// Whether this thread is inside a traced statement.
pub fn in_statement() -> bool {
    OPEN.with(|o| !o.borrow().is_empty())
}

/// Closes its span when dropped. Guards must drop innermost first,
/// which lexical scoping gives.
pub struct SpanGuard {
    tracer: &'static Tracer,
    id: u64,
    parent: Option<u64>,
    request: u64,
    name: &'static str,
    start_ns: u64,
}

impl SpanGuard {
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        OPEN.with(|o| o.borrow_mut().pop());
        self.tracer.push(Span {
            id: self.id,
            parent: self.parent,
            request: self.request,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
        });
    }
}

impl Tracer {
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking client")
            .push(span);
    }

    fn open(&'static self, name: &'static str, request: Option<u64>) -> SpanGuard {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, request) = OPEN.with(|o| {
            let o = o.borrow();
            match o.last() {
                Some(top) => (Some(top.id), top.request),
                None => (None, request.unwrap_or(0)),
            }
        });
        OPEN.with(|o| o.borrow_mut().push(Open { id, request }));
        SpanGuard {
            tracer: self,
            id,
            parent,
            request,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Opens the root span of statement `request` on this thread.
    pub fn statement(&'static self, request: u64) -> SpanGuard {
        debug_assert!(!in_statement(), "statements do not nest");
        self.open(STMT, Some(request))
    }

    /// Opens a layer span under the innermost open span.
    pub fn enter(&'static self, name: &'static str) -> SpanGuard {
        self.open(name, None)
    }

    /// Records a completed child of the innermost open span covering
    /// `start_ns .. start_ns + dur_ns`, cut off at the present.
    pub fn derived(&self, name: &'static str, start_ns: u64, dur_ns: u64) {
        let end_ns = (start_ns + dur_ns).min(self.now_ns());
        self.completed(name, start_ns, end_ns);
    }

    fn completed(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        let top = OPEN.with(|o| o.borrow().last().map(|t| (t.id, t.request)));
        if let Some((parent, request)) = top {
            self.push(Span {
                id: self.next_id.fetch_add(1, Ordering::Relaxed),
                parent: Some(parent),
                request,
                name,
                start_ns,
                end_ns: end_ns.max(start_ns),
            });
        }
    }

    /// Takes every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Summed self time per span name, in seconds, plus the summed
/// duration of the root spans (the traced statement time).
pub fn self_seconds_by_name(spans: &[Span]) -> (BTreeMap<&'static str, f64>, f64) {
    let own = self_times(spans);
    let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut statements = 0.0;
    for s in spans {
        *by_name.entry(s.name).or_default() += own[&s.id] as f64 / 1e9;
        if s.parent.is_none() {
            statements += (s.end_ns - s.start_ns) as f64 / 1e9;
        }
    }
    (by_name, statements)
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// The benchmark's WAL storage: a [`FileWal`] whose appends and syncs
/// are timed and counted inside traced statements.
pub struct TracedWal(pub FileWal);

impl WalStorage for TracedWal {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        if !in_statement() {
            return self.0.append(bytes);
        }
        let t = tracer();
        let _span = t.enter("wal.append");
        t.wal.appends.fetch_add(1, Ordering::Relaxed);
        t.wal.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.0.append(bytes)
    }

    fn sync(&mut self) -> Result<()> {
        if !in_statement() {
            return self.0.sync();
        }
        let t = tracer();
        let synced = {
            let _span = t.enter("wal.sync");
            self.0.sync()
        };
        t.wal.syncs.fetch_add(1, Ordering::Relaxed);
        LAST_SYNC_END.with(|c| c.set(t.now_ns()));
        synced
    }

    fn contents(&self) -> Result<Vec<u8>> {
        self.0.contents()
    }
}

/// Registered after the catalog's view-maintenance observer: it runs on
/// the committing thread once apply, index maintenance and view
/// maintenance are done, and closes the `commit.apply_ivm` span that
/// began when the WAL sync returned.
pub struct ApplyObserver;

impl CommitObserver for ApplyObserver {
    fn on_commit(&self, _changes: &[(String, &[DeltaOp])]) {
        if !in_statement() {
            return;
        }
        let t = tracer();
        t.wal.commits.fetch_add(1, Ordering::Relaxed);
        let start = LAST_SYNC_END.with(Cell::get);
        t.completed("commit.apply_ivm", start, t.now_ns());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_on_a_hand_built_tree() {
        // stmt [0,100): convert [10,40) with a derived parse [10,15),
        // volcano [40,80) with hep [40,50), exec [85,95).
        let spans = vec![
            span(1, None, STMT, 0, 100),
            span(2, Some(1), "convert", 10, 40),
            span(3, Some(2), "parse", 10, 15),
            span(4, Some(1), "volcano", 40, 80),
            span(5, Some(4), "hep", 40, 50),
            span(6, Some(1), "exec", 85, 95),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 30 - 40 - 10);
        assert_eq!(own[&2], 25);
        assert_eq!(own[&3], 5);
        assert_eq!(own[&4], 30);
        assert_eq!(own[&5], 10);
        assert_eq!(own[&6], 10);
        // Self times add up to the statement time.
        assert_eq!(own.values().sum::<u64>(), 100);
        let (by_name, stmt_s) = self_seconds_by_name(&spans);
        assert!((stmt_s - 100e-9).abs() < 1e-15);
        assert!((by_name["convert"] - 25e-9).abs() < 1e-15);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span(1, None, STMT, 0, 100),
            span(2, Some(1), "a", 10, 50),
            span(3, Some(1), "b", 30, 60),
            // A derived child may overhang its parent; only the covered
            // part counts.
            span(4, Some(1), "c", 90, 130),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 50 - 10);
    }

    #[test]
    fn guards_nest_and_record_parents() {
        let t = tracer();
        t.take();
        {
            let _stmt = t.statement(42);
            assert!(in_statement());
            let inner = t.enter("exec");
            t.derived("parse", inner.start_ns(), 1);
        }
        assert!(!in_statement());
        let spans = t.take();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == STMT).unwrap();
        let exec = spans.iter().find(|s| s.name == "exec").unwrap();
        let parse = spans.iter().find(|s| s.name == "parse").unwrap();
        assert_eq!(root.parent, None);
        assert_eq!(exec.parent, Some(root.id));
        assert_eq!(parse.parent, Some(exec.id));
        assert!(spans.iter().all(|s| s.request == 42));
    }
}
