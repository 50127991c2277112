//! MVCC transactions: snapshot isolation over the catalog's
//! copy-on-write tables, first-committer-wins conflict detection, and the
//! write path that routes row deltas through [`Table::apply_delta`].
//!
//! The design leans on the Arc-snapshot discipline the storage layer
//! already has: every MVCC-capable table hands out an immutable
//! [`TxnVersion`] (rows + stable row ids + index state, all referring to
//! the same instant), and writers replace the shared state under
//! `Arc::make_mut`, so a transaction that captured a version at BEGIN
//! keeps reading it unchanged — that *is* the version chain, with the Arc
//! holders pinning exactly the versions still needed and dropped versions
//! reclaimed by refcount.
//!
//! Writes are private until COMMIT: a [`Transaction`] stages [`DeltaOp`]s
//! per table and lays them over the BEGIN version as a [`ReadView`] — an
//! overlay holding only the rewritten rows, the deleted positions and the
//! appended inserts — so the transaction reads its own writes without
//! copying the table, and the version's indexes keep serving seeks after
//! a write. Staging and probing cost O(|delta|) plus an O(log n) row-id
//! lookup per written row ([`RowIds`]). COMMIT, under the manager's
//! global commit lock, (1) appends the whole transaction to the WAL, (2)
//! runs the first-committer-wins check — any transaction that committed
//! after this one began and wrote an overlapping row id aborts this one
//! with a retryable [`CalciteError::TxnConflict`] — then (3) logs
//! `Commit`, syncs, and applies the deltas onto the *current* table
//! state, so non-overlapping concurrent committers merge instead of
//! clobbering. The apply ([`apply_ops_to_rows`]) is O(|delta| · log n)
//! for UPDATE and INSERT: updates overwrite in place, inserts append, and
//! only index entries whose key changed are re-keyed. A DELETE compacts
//! the row store and remaps every index entry, O(n).

use crate::catalog::{Statistic, Table, TableRef};
use crate::datum::{Column, Row};
use crate::error::{CalciteError, Result};
use crate::index::{BoundProbe, IndexDef, IndexProbe, RowSource, RowsRef};
use crate::types::RowType;
use crate::wal::{WalRecord, WalWriter};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Deltas
// ---------------------------------------------------------------------

/// One row-level change, addressed by the table's stable row id (assigned
/// at insert, never reused), so deltas survive physical reordering and
/// replay deterministically from the WAL.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    Insert { row_id: u64, row: Row },
    Update { row_id: u64, row: Row },
    Delete { row_id: u64 },
}

impl DeltaOp {
    pub fn row_id(&self) -> u64 {
        match self {
            DeltaOp::Insert { row_id, .. }
            | DeltaOp::Update { row_id, .. }
            | DeltaOp::Delete { row_id } => *row_id,
        }
    }

    /// Whether this op participates in write-write conflict detection.
    /// Inserts touch rows no concurrent transaction can see, so they
    /// never conflict.
    pub fn conflicts(&self) -> bool {
        !matches!(self, DeltaOp::Insert { .. })
    }
}

/// The stable row ids of a row store, parallel to its rows, with an
/// O(log n) id → position lookup. Ids are handed out ascending, so while
/// they stay in position order the lookup is a binary search over the ids
/// themselves and costs no memory; once an id lands out of order (a
/// transaction that reserved early commits late) an id-sorted index is
/// kept beside them. It lives in the copy-on-write state next to the
/// rows, so a captured [`TxnVersion`] resolves ids against its own
/// positions.
#[derive(Debug, Clone, Default)]
pub struct RowIds {
    /// Position → id.
    ids: Vec<u64>,
    /// (id, position) sorted by id; `None` while `ids` is ascending.
    by_id: Option<Vec<(u64, usize)>>,
}

impl RowIds {
    pub fn new(ids: Vec<u64>) -> RowIds {
        let mut row_ids = RowIds { ids, by_id: None };
        row_ids.reindex();
        row_ids
    }

    /// `n` consecutive ids starting at `start`, at positions `0..n`.
    pub fn sequential(start: u64, n: usize) -> RowIds {
        RowIds::new((start..start + n as u64).collect())
    }

    pub fn as_slice(&self) -> &[u64] {
        &self.ids
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The id at `pos`.
    pub fn get(&self, pos: usize) -> u64 {
        self.ids[pos]
    }

    /// The position holding `id`, if any. O(log n).
    pub fn position(&self, id: u64) -> Option<usize> {
        match &self.by_id {
            None => self.ids.binary_search(&id).ok(),
            Some(by_id) => {
                let i = by_id.binary_search_by_key(&id, |e| e.0).ok()?;
                Some(by_id[i].1)
            }
        }
    }

    /// Appends `id` at the next position: O(1) for an id newer than every
    /// other, a binary-search insert into the id-sorted index otherwise
    /// (built in O(n) the first time the ids fall out of order).
    pub fn push(&mut self, id: u64) {
        let pos = self.ids.len();
        let ascending = self.ids.last().is_none_or(|&last| last < id);
        self.ids.push(id);
        match &mut self.by_id {
            None if ascending => {}
            None => self.reindex(),
            Some(by_id) => {
                let at = by_id.partition_point(|e| e.0 < id);
                by_id.insert(at, (id, pos));
            }
        }
    }

    /// Drops the positions `remap` deletes and renumbers the survivors.
    /// O(n): only deletes compact.
    fn compact(&mut self, remap: &[Option<usize>]) {
        let mut pos = 0;
        self.ids.retain(|_| {
            pos += 1;
            remap[pos - 1].is_some()
        });
        if let Some(by_id) = &mut self.by_id {
            by_id.retain_mut(|(_, p)| match remap[*p] {
                Some(np) => {
                    *p = np;
                    true
                }
                None => false,
            });
            if is_ascending(&self.ids) {
                self.by_id = None;
            }
        }
    }

    /// Builds the id-sorted index if the ids are out of order, drops it if
    /// they are not. O(n) for nearly sorted ids.
    fn reindex(&mut self) {
        self.by_id = (!is_ascending(&self.ids)).then(|| {
            let mut by_id: Vec<(u64, usize)> = self.ids.iter().copied().zip(0..).collect();
            by_id.sort_unstable();
            by_id
        });
    }
}

fn is_ascending(ids: &[u64]) -> bool {
    ids.windows(2).all(|w| w[0] < w[1])
}

fn check_arity(what: &str, row: &Row, arity: usize) -> Result<()> {
    if row.len() != arity {
        return Err(CalciteError::execution(format!(
            "{what} arity mismatch: row has {} values, table has {arity} columns",
            row.len()
        )));
    }
    Ok(())
}

/// Validates `ops` against a store of `len` slots whose live row ids
/// `lookup` resolves, without touching the store, and returns the slot
/// each op writes: an existing one for updates and deletes, a fresh one
/// (`len`, `len + 1`, …) for each insert. Ops see the effect of earlier
/// ops in the same stream (update-then-delete, insert-then-update).
/// O(|ops|) lookups.
fn resolve_ops(
    ops: &[DeltaOp],
    arity: usize,
    len: usize,
    lookup: impl Fn(u64) -> Option<usize>,
) -> Result<Vec<usize>> {
    // Row ids this stream already wrote: `Some(slot)` live, `None` deleted.
    let mut touched: HashMap<u64, Option<usize>> = HashMap::new();
    let mut next = len;
    let mut slots = Vec::with_capacity(ops.len());
    for op in ops {
        let id = op.row_id();
        let current = match touched.get(&id) {
            Some(s) => *s,
            None => lookup(id),
        };
        let slot = match op {
            DeltaOp::Insert { row, .. } => {
                check_arity("insert", row, arity)?;
                if current.is_some() {
                    return Err(CalciteError::internal(format!(
                        "duplicate row id {id} in insert"
                    )));
                }
                next += 1;
                next - 1
            }
            DeltaOp::Update { row, .. } => {
                check_arity("update", row, arity)?;
                current.ok_or_else(|| {
                    CalciteError::internal(format!("update of unknown row id {id}"))
                })?
            }
            DeltaOp::Delete { .. } => current
                .ok_or_else(|| CalciteError::internal(format!("delete of unknown row id {id}")))?,
        };
        let live = !matches!(op, DeltaOp::Delete { .. });
        touched.insert(id, live.then_some(slot));
        slots.push(slot);
    }
    Ok(slots)
}

/// Positional row storage [`apply_ops_to_rows`] writes through: a plain
/// row vector, or `MemTable`'s chunked copy-on-write store.
pub trait RowStore: RowSource {
    /// Overwrites the row at `pos` with a copy of `row`, reusing the old
    /// row's allocation (an update allocates and frees nothing).
    fn set(&mut self, pos: usize, row: &Row);
    fn push(&mut self, row: Row);
    /// Keeps, in order, the rows `remap` does not delete (`Some`).
    fn compact(&mut self, remap: &[Option<usize>]);
}

impl RowStore for Vec<Row> {
    fn set(&mut self, pos: usize, row: &Row) {
        self[pos].clone_from(row);
    }

    fn push(&mut self, row: Row) {
        Vec::push(self, row)
    }

    fn compact(&mut self, remap: &[Option<usize>]) {
        let mut pos = 0;
        self.retain(|_| {
            pos += 1;
            remap[pos - 1].is_some()
        });
    }
}

/// Applies `ops` in order to a row store (`rows` + parallel `ids`) and
/// reports how rows moved, so secondary indexes can be maintained
/// incrementally instead of rebuilt. Every op is validated before
/// anything is written: on error the store is unchanged.
///
/// A delete-free stream costs O(|ops| · log n): updates overwrite in
/// place (their before-images are handed back for index re-keying) and
/// inserts append. A stream with deletes compacts the store, O(n).
pub fn apply_ops_to_rows(
    rows: &mut impl RowStore,
    ids: &mut RowIds,
    ops: &[DeltaOp],
    arity: usize,
) -> Result<DeltaOutcome> {
    let old_len = rows.row_count();
    let slots = resolve_ops(ops, arity, old_len, |id| ids.position(id))?;
    let max_inserted_id = ops
        .iter()
        .filter_map(|op| match op {
            DeltaOp::Insert { row_id, .. } => Some(*row_id),
            _ => None,
        })
        .max();
    let moves = if !ops.iter().any(|op| matches!(op, DeltaOp::Delete { .. })) {
        let mut updated: Vec<(usize, Row)> = vec![];
        for (op, &slot) in ops.iter().zip(&slots) {
            match op {
                DeltaOp::Insert { row_id, row } => {
                    rows.push(row.clone());
                    ids.push(*row_id);
                }
                DeltaOp::Update { row, .. } => {
                    if slot < old_len {
                        updated.push((slot, rows.row_at(slot).clone()));
                    }
                    rows.set(slot, row);
                }
                DeltaOp::Delete { .. } => unreachable!("delete-free stream"),
            }
        }
        // A row updated twice keeps its first (pre-delta) before-image.
        updated.sort_by_key(|(pos, _)| *pos);
        updated.dedup_by_key(|(pos, _)| *pos);
        RowMoves::InPlace {
            updated,
            inserted: old_len..rows.row_count(),
        }
    } else {
        // Inserts (and any later update or delete of them) collect apart
        // and append after the surviving rows, in op order.
        let mut appended: Vec<(u64, Option<Row>)> = vec![];
        let mut deleted = vec![];
        let mut touched = vec![];
        for (op, &slot) in ops.iter().zip(&slots) {
            let target = match op {
                DeltaOp::Insert { row_id, row } => {
                    appended.push((*row_id, Some(row.clone())));
                    continue;
                }
                DeltaOp::Update { row, .. } => Some(row),
                DeltaOp::Delete { .. } => None,
            };
            match (slot < old_len, target) {
                (true, Some(row)) => {
                    rows.set(slot, row);
                    touched.push(slot);
                }
                (true, None) => deleted.push(slot),
                (false, target) => appended[slot - old_len].1 = target.cloned(),
            }
        }
        deleted.sort_unstable();
        let mut remap = Vec::with_capacity(old_len);
        let mut next_deleted = deleted.iter().peekable();
        let mut survivors = 0;
        for pos in 0..old_len {
            if next_deleted.next_if_eq(&&pos).is_some() {
                remap.push(None);
            } else {
                remap.push(Some(survivors));
                survivors += 1;
            }
        }
        rows.compact(&remap);
        ids.compact(&remap);
        touched.sort_unstable();
        touched.dedup();
        let mut reinserted: Vec<usize> = touched.iter().filter_map(|&p| remap[p]).collect();
        for (row_id, row) in appended {
            if let Some(row) = row {
                reinserted.push(rows.row_count());
                rows.push(row);
                ids.push(row_id);
            }
        }
        RowMoves::Compacted { remap, reinserted }
    };
    Ok(DeltaOutcome {
        moves,
        applied: ops.len(),
        max_inserted_id,
    })
}

/// What [`apply_ops_to_rows`] did to a row store: how rows moved (what
/// [`crate::index::IndexData::apply_delta`] needs), the op count, and
/// the largest inserted row id.
#[derive(Debug)]
pub struct DeltaOutcome {
    pub moves: RowMoves,
    /// Ops applied.
    pub applied: usize,
    /// Largest row id assigned by an insert, if any — callers bump their
    /// id counter past it (WAL replay inserts carry explicit ids).
    pub max_inserted_id: Option<u64>,
}

/// How a delta moved a row store's positions.
#[derive(Debug)]
pub enum RowMoves {
    /// No deletes: positions are stable. `updated` lists each
    /// pre-existing position that was overwritten with its before-image,
    /// ascending; `inserted` is the range of appended positions.
    InPlace {
        updated: Vec<(usize, Row)>,
        inserted: std::ops::Range<usize>,
    },
    /// Rows were deleted and the store compacted. `remap` maps each old
    /// position to its new one (`None` = deleted; monotonic over the
    /// survivors) and `reinserted` lists the new positions holding
    /// updated or inserted rows, ascending.
    Compacted {
        remap: Vec<Option<usize>>,
        reinserted: Vec<usize>,
    },
}

// ---------------------------------------------------------------------
// Versions
// ---------------------------------------------------------------------

/// An immutable point-in-time version of one table: rows, their stable
/// ids, and the index state covering exactly those rows. Cheap to capture
/// (Arc clones) and held for the life of a transaction.
pub trait TxnVersion: Send + Sync {
    fn row_count(&self) -> usize;
    fn row(&self, pos: usize) -> Row;
    fn row_id(&self, pos: usize) -> u64;
    /// The position of `row_id` in this version, if present. Must be
    /// cheap (a lookup, not a scan): staging resolves every written row
    /// id through it.
    fn position_of(&self, row_id: u64) -> Option<usize>;
    /// Indexes present in this version.
    fn index_defs(&self) -> Vec<IndexDef>;
    /// Probe handle for `index` over this version's rows, if it exists.
    fn index_probe(&self, index: &str) -> Option<Arc<dyn IndexProbe>>;
}

/// The writes a transaction staged against one table, kept apart from the
/// BEGIN version they apply to. Sized by the delta, never by the table.
#[derive(Clone, Default)]
struct Staged {
    /// BEGIN-version positions this transaction rewrote: `Some(row)` for
    /// an update, `None` for a delete.
    patched: BTreeMap<usize, Option<Row>>,
    /// Inserted rows in op order: (row id, row), `None` once deleted again.
    inserted: Vec<(u64, Option<Row>)>,
    /// Row id → index into `inserted`.
    inserted_at: HashMap<u64, usize>,
}

/// The read view a statement evaluates against: the BEGIN version with
/// the transaction's own staged writes laid over it. Rows are addressed
/// by *slot*: slots `0..n` are the version's positions, slot `n + i` is
/// the `i`-th staged insert; deleted slots are skipped. Scans run in slot
/// order — the version's rows in order, then inserts in op order — which
/// is exactly the order the table has once the transaction commits.
///
/// The overlay keeps the version's indexes: a probe returns the version's
/// matching positions minus the rewritten ones, plus every staged row the
/// probe matches, so index seeks stay seeks after a write.
#[derive(Clone)]
pub struct ReadView {
    base: Arc<dyn TxnVersion>,
    staged: Arc<Staged>,
}

impl ReadView {
    fn new(base: Arc<dyn TxnVersion>) -> ReadView {
        ReadView {
            base,
            staged: Arc::new(Staged::default()),
        }
    }

    fn is_clean(&self) -> bool {
        self.staged.patched.is_empty() && self.staged.inserted.is_empty()
    }

    /// Rows visible through the view. O(|staged|).
    pub fn row_count(&self) -> usize {
        let deleted = self.staged.patched.values().filter(|r| r.is_none()).count();
        let inserted = self
            .staged
            .inserted
            .iter()
            .filter(|(_, r)| r.is_some())
            .count();
        self.base.row_count() - deleted + inserted
    }

    /// One past the largest slot.
    fn slot_end(&self) -> usize {
        self.base.row_count() + self.staged.inserted.len()
    }

    /// The row at `slot`, or `None` if this transaction deleted it.
    fn live_row(&self, slot: usize) -> Option<Row> {
        let n = self.base.row_count();
        if slot < n {
            match self.staged.patched.get(&slot) {
                Some(patched) => patched.clone(),
                None => Some(self.base.row(slot)),
            }
        } else {
            self.staged.inserted[slot - n].1.clone()
        }
    }

    /// The row at a live `slot` (one returned by [`ReadView::rows`] or an
    /// index probe of this view).
    pub fn row(&self, slot: usize) -> Row {
        self.live_row(slot)
            .unwrap_or_else(|| panic!("slot {slot} was deleted by this transaction"))
    }

    /// The stable row id at `slot`.
    pub fn row_id(&self, slot: usize) -> u64 {
        let n = self.base.row_count();
        if slot < n {
            self.base.row_id(slot)
        } else {
            self.staged.inserted[slot - n].0
        }
    }

    /// The live slot holding `row_id`, if any. O(log n).
    fn slot_of(&self, row_id: u64) -> Option<usize> {
        if let Some(&i) = self.staged.inserted_at.get(&row_id) {
            if self.staged.inserted[i].1.is_some() {
                return Some(self.base.row_count() + i);
            }
        }
        let pos = self.base.position_of(row_id)?;
        match self.staged.patched.get(&pos) {
            Some(None) => None,
            _ => Some(pos),
        }
    }

    /// Every live (slot, row), in scan order.
    pub fn rows(&self) -> impl Iterator<Item = (usize, Row)> + Send + 'static {
        let view = self.clone();
        (0..self.slot_end()).filter_map(move |slot| view.live_row(slot).map(|row| (slot, row)))
    }

    /// Indexes present in the BEGIN version (the overlay serves them all).
    pub fn index_defs(&self) -> Vec<IndexDef> {
        self.base.index_defs()
    }

    /// Probe handle for `index` over the view: the version's own probe
    /// while nothing is staged, the overlay probe after a write.
    pub fn index_probe(&self, index: &str) -> Option<Arc<dyn IndexProbe>> {
        let base = self.base.index_probe(index)?;
        if self.is_clean() {
            return Some(base);
        }
        let def = self
            .base
            .index_defs()
            .into_iter()
            .find(|d| d.name == index)?;
        Some(Arc::new(OverlayProbe {
            view: self.clone(),
            def,
            base,
        }))
    }

    /// Lays `ops` over the view, validated first: a bad op leaves the
    /// view unchanged. O(|ops| · log n).
    fn stage(&mut self, ops: &[DeltaOp], arity: usize) -> Result<()> {
        let slots = resolve_ops(ops, arity, self.slot_end(), |id| self.slot_of(id))?;
        let n = self.base.row_count();
        let staged = Arc::make_mut(&mut self.staged);
        for (op, slot) in ops.iter().zip(slots) {
            let target = match op {
                DeltaOp::Insert { row_id, row } => {
                    staged.inserted_at.insert(*row_id, staged.inserted.len());
                    staged.inserted.push((*row_id, Some(row.clone())));
                    continue;
                }
                DeltaOp::Update { row, .. } => Some(row.clone()),
                DeltaOp::Delete { .. } => None,
            };
            if slot < n {
                staged.patched.insert(slot, target);
            } else {
                staged.inserted[slot - n].1 = target;
            }
        }
        Ok(())
    }
}

/// An index probe over a [`ReadView`] with staged writes: the version's
/// probe with rewritten positions filtered out, merged with the staged
/// rows the probe matches. O(|result| + |staged|) per probe.
struct OverlayProbe {
    view: ReadView,
    def: IndexDef,
    base: Arc<dyn IndexProbe>,
}

impl IndexProbe for OverlayProbe {
    fn row_count(&self) -> usize {
        self.view.row_count()
    }

    fn positions(&self, probe: &BoundProbe) -> Vec<usize> {
        let staged = &self.view.staged;
        let matches = |row: &Row| {
            let one = RowsRef {
                rows: std::slice::from_ref(row),
                arity: row.len(),
            };
            probe.matches(&one, 0, &self.def)
        };
        let mut out: Vec<usize> = self
            .base
            .positions(probe)
            .into_iter()
            .filter(|pos| !staged.patched.contains_key(pos))
            .collect();
        for (&slot, row) in &staged.patched {
            if row.as_ref().is_some_and(matches) {
                out.push(slot);
            }
        }
        let n = self.view.base.row_count();
        for (i, (_, row)) in staged.inserted.iter().enumerate() {
            if row.as_ref().is_some_and(matches) {
                out.push(n + i);
            }
        }
        out.sort_unstable();
        out
    }

    fn row(&self, pos: usize) -> Row {
        self.view.row(pos)
    }
}

/// A [`Table`] over a transaction's [`ReadView`], substituted for
/// base-table scans while a transaction is open so every statement reads
/// the BEGIN-time snapshot plus the transaction's own writes.
pub struct SnapshotTable {
    row_type: RowType,
    view: ReadView,
}

impl SnapshotTable {
    pub fn new(row_type: RowType, view: ReadView) -> Arc<SnapshotTable> {
        Arc::new(SnapshotTable { row_type, view })
    }
}

impl Table for SnapshotTable {
    fn row_type(&self) -> RowType {
        self.row_type.clone()
    }

    fn statistic(&self) -> Statistic {
        Statistic::of_rows(self.view.row_count() as f64)
    }

    fn scan(&self) -> Result<Box<dyn Iterator<Item = Row> + Send>> {
        Ok(Box::new(self.view.rows().map(|(_, row)| row)))
    }

    fn scan_columns(&self) -> Option<Result<Vec<Column>>> {
        let rows: Vec<Row> = self.view.rows().map(|(_, row)| row).collect();
        Some(Ok(self
            .row_type
            .fields
            .iter()
            .enumerate()
            .map(|(i, f)| Column::from_rows(&f.ty.kind, &rows, i))
            .collect()))
    }

    fn range_scan_rows(&self) -> Option<usize> {
        if self.row_type.arity() == 0 {
            return None;
        }
        Some(self.view.row_count())
    }

    fn indexes(&self) -> Vec<IndexDef> {
        self.view.index_defs()
    }

    fn index_probe_snapshot(&self, index: &str) -> Result<Option<Arc<dyn IndexProbe>>> {
        Ok(self.view.index_probe(index))
    }
}

// ---------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------

struct TxnTable {
    tref: TableRef,
    /// The BEGIN version with this transaction's staged writes laid over
    /// it (read-your-writes). Staging grows the overlay by the delta; the
    /// table is never copied.
    view: ReadView,
    ops: Vec<DeltaOp>,
    /// Row ids this transaction updated or deleted (inserts excluded):
    /// the first-committer-wins footprint.
    write_set: HashSet<u64>,
}

/// A transaction handle: BEGIN-time versions of every MVCC-capable table,
/// a staged write set, and the commit/rollback protocol. Dropping an
/// uncommitted transaction is a rollback.
pub struct Transaction {
    id: u64,
    begin_ts: u64,
    mgr: Arc<TxnManager>,
    tables: HashMap<String, TxnTable>,
    finished: bool,
}

impl Transaction {
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn begin_ts(&self) -> u64 {
        self.begin_ts
    }

    /// Qualified names of tables with staged writes.
    pub fn written_tables(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .tables
            .iter()
            .filter(|(_, t)| !t.ops.is_empty())
            .map(|(n, _)| n.clone())
            .collect();
        names.sort();
        names
    }

    /// Whether `qualified` was captured at BEGIN (i.e. is MVCC-capable).
    pub fn covers(&self, qualified: &str) -> bool {
        self.tables.contains_key(qualified)
    }

    /// The view statements should read for `qualified`: the BEGIN
    /// version with this transaction's staged writes over it. O(1).
    pub fn read_view(&self, qualified: &str) -> Option<ReadView> {
        Some(self.tables.get(qualified)?.view.clone())
    }

    /// A [`Table`] serving [`Transaction::read_view`], for substituting
    /// into scans of `qualified` while this transaction is open.
    pub fn snapshot_table(&self, qualified: &str) -> Option<Arc<SnapshotTable>> {
        let t = self.tables.get(qualified)?;
        Some(SnapshotTable::new(t.tref.table.row_type(), t.view.clone()))
    }

    /// Stages `ops` against `qualified`, recording updated/deleted row
    /// ids in the conflict footprint. O(|ops| · log n): the ops are
    /// validated against the read view and laid over it; a failing op
    /// stages nothing.
    pub fn stage(&mut self, qualified: &str, ops: Vec<DeltaOp>) -> Result<usize> {
        if ops.is_empty() {
            return Ok(0);
        }
        let t = self.tables.get_mut(qualified).ok_or_else(|| {
            CalciteError::unsupported(format!(
                "table '{qualified}' does not support transactional writes"
            ))
        })?;
        t.view.stage(&ops, t.tref.table.row_type().arity())?;
        for op in &ops {
            if op.conflicts() {
                t.write_set.insert(op.row_id());
            }
        }
        let applied = ops.len();
        t.ops.extend(ops);
        Ok(applied)
    }

    /// Commits: WAL-logs the transaction, runs first-committer-wins, and
    /// applies the staged deltas to the shared tables. Returns the commit
    /// timestamp. A conflict aborts with a retryable error; either way
    /// the transaction is finished.
    pub fn commit(mut self) -> Result<u64> {
        self.finished = true;
        // Dropping the views here unpins the BEGIN versions before the
        // apply, so it does not copy shared state nobody reads any more.
        let staged: Vec<(TableRef, Vec<DeltaOp>, HashSet<u64>)> = self
            .tables
            .drain()
            .filter(|(_, t)| !t.ops.is_empty())
            .map(|(_, t)| (t.tref, t.ops, t.write_set))
            .collect();
        let mgr = Arc::clone(&self.mgr);
        mgr.commit(self.id, self.begin_ts, staged)
    }

    /// Abandons every staged write. Nothing was shared or logged, so this
    /// only releases the snapshot.
    pub fn rollback(mut self) {
        self.finished = true;
        self.mgr.end(self.id);
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        if !self.finished {
            self.mgr.end(self.id);
        }
    }
}

// ---------------------------------------------------------------------
// Manager
// ---------------------------------------------------------------------

/// A hook invoked inside COMMIT, after the staged deltas have been
/// applied to the shared tables but while the commit lock is still held
/// — the single choke point every committed change (autocommit and
/// explicit COMMIT alike) flows through. Incremental view maintenance
/// registers here so view and base tables advance atomically with
/// respect to snapshot capture: a BEGIN (which also takes the commit
/// lock) sees either no effect of a commit or all of it, views included.
///
/// Observers must not call back into the manager (the commit lock is
/// held) and must not fail the commit — it is already durable; an
/// observer that cannot keep up records that fact on its own state (e.g.
/// marking a view stale) instead of erroring.
pub trait CommitObserver: Send + Sync {
    /// `changes`: qualified table name plus the committed ops, one entry
    /// per written table, in apply order.
    fn on_commit(&self, changes: &[(String, &[DeltaOp])]);
}

struct CommitFootprint {
    commit_ts: u64,
    /// Qualified table name → row ids updated/deleted.
    writes: Vec<(String, HashSet<u64>)>,
}

/// Issues begin/commit timestamps from one monotonic clock, tracks active
/// transactions, runs the first-committer-wins check, and owns the
/// optional WAL. One manager lives on each [`crate::catalog::Catalog`]
/// and is shared by every connection over it.
#[derive(Default)]
pub struct TxnManager {
    clock: AtomicU64,
    ids: AtomicU64,
    /// Serializes the validate→log→apply window of COMMIT.
    commit_lock: Mutex<()>,
    /// Active transaction id → begin timestamp.
    active: Mutex<BTreeMap<u64, u64>>,
    /// Footprints of committed writers, kept only while some active
    /// transaction could still conflict with them.
    history: Mutex<Vec<CommitFootprint>>,
    wal: Mutex<Option<WalWriter>>,
    /// Post-apply commit hooks (incremental view maintenance). Invoked
    /// under the commit lock; registered once at catalog construction.
    observers: Mutex<Vec<Arc<dyn CommitObserver>>>,
}

impl TxnManager {
    pub fn new() -> TxnManager {
        TxnManager::default()
    }

    /// Attaches (or replaces) the write-ahead log. Commits from this
    /// point on are logged; recovery is [`crate::wal::replay`].
    pub fn attach_wal(&self, writer: WalWriter) {
        *self.wal.lock() = Some(writer);
    }

    /// Detaches and returns the WAL writer, if any.
    pub fn detach_wal(&self) -> Option<WalWriter> {
        self.wal.lock().take()
    }

    /// Registers a [`CommitObserver`] invoked after every commit's
    /// deltas are applied, still under the commit lock.
    pub fn register_observer(&self, obs: Arc<dyn CommitObserver>) {
        self.observers.lock().push(obs);
    }

    /// Runs `f` while holding the commit lock, so no transaction can
    /// commit (and no BEGIN can capture a snapshot) during it. Used by
    /// operations that must observe or replace multi-table state
    /// atomically with respect to commits — materialized-view creation
    /// and REFRESH. `f` must not commit or begin transactions itself.
    pub fn with_commit_lock<R>(&self, f: impl FnOnce() -> R) -> R {
        let _guard = self.commit_lock.lock();
        f()
    }

    /// Advances the transaction-id and timestamp clocks past values an
    /// earlier incarnation already used. Call after WAL recovery with the
    /// [`crate::wal::ReplayReport`] maxima before attaching a writer to
    /// the same log, so continued commits never reuse an id or commit
    /// timestamp already present in the file.
    pub fn seed_counters(&self, max_txn_id: u64, max_commit_ts: u64) {
        self.ids.fetch_max(max_txn_id, Ordering::SeqCst);
        self.clock.fetch_max(max_commit_ts, Ordering::SeqCst);
    }

    /// Active transaction count (diagnostics).
    pub fn active_count(&self) -> usize {
        self.active.lock().len()
    }

    /// Begins a transaction, eagerly capturing a version of every
    /// MVCC-capable table in `tables` — the snapshot a statement at any
    /// later point in the transaction will read.
    pub fn begin(self: &Arc<Self>, tables: &[TableRef]) -> Transaction {
        let id = self.ids.fetch_add(1, Ordering::SeqCst) + 1;
        // Timestamp assignment and version capture happen under the
        // commit lock: COMMIT applies its deltas table-by-table while
        // holding it, so capturing outside could snapshot table A
        // post-commit but table B pre-commit — a half-applied committed
        // transaction, which snapshot isolation forbids. Under the lock,
        // a commit is either entirely before this begin (all its deltas
        // visible) or entirely after (none visible), and begin_ts orders
        // consistently with commit_ts either way.
        let _commit_guard = self.commit_lock.lock();
        let begin_ts = self.clock.fetch_add(1, Ordering::SeqCst) + 1;
        self.active.lock().insert(id, begin_ts);
        let mut captured = HashMap::new();
        for tref in tables {
            if let Some(version) = tref.table.txn_snapshot() {
                captured.insert(
                    tref.qualified_name(),
                    TxnTable {
                        tref: tref.clone(),
                        view: ReadView::new(version),
                        ops: vec![],
                        write_set: HashSet::new(),
                    },
                );
            }
        }
        Transaction {
            id,
            begin_ts,
            mgr: Arc::clone(self),
            tables: captured,
            finished: false,
        }
    }

    fn commit(
        &self,
        id: u64,
        begin_ts: u64,
        staged: Vec<(TableRef, Vec<DeltaOp>, HashSet<u64>)>,
    ) -> Result<u64> {
        let _commit_guard = self.commit_lock.lock();
        if staged.is_empty() {
            // Read-only: nothing to validate, log or apply.
            let commit_ts = self.clock.fetch_add(1, Ordering::SeqCst) + 1;
            self.end(id);
            return Ok(commit_ts);
        }

        // 1. Log the transaction body. A WAL failure (including injected
        // crashes) aborts the commit before anything is shared.
        let mut wal = self.wal.lock();
        if let Some(w) = wal.as_mut() {
            let logged = (|| -> Result<()> {
                w.append(&WalRecord::Begin { txn: id })?;
                for (tref, ops, _) in &staged {
                    let table = tref.qualified_name();
                    for op in ops {
                        w.append(&WalRecord::from_op(id, &table, op))?;
                    }
                }
                Ok(())
            })();
            if let Err(e) = logged {
                drop(wal);
                self.end(id);
                return Err(e);
            }
        }

        // 2. First-committer-wins: anyone who committed after we began
        // and touched a row we updated/deleted wins; we abort.
        let conflict = {
            let history = self.history.lock();
            history
                .iter()
                .filter(|rec| rec.commit_ts > begin_ts)
                .find_map(|rec| {
                    rec.writes.iter().find_map(|(table, rows)| {
                        staged
                            .iter()
                            .find(|(tref, _, ws)| {
                                tref.qualified_name() == *table && !ws.is_disjoint(rows)
                            })
                            .map(|_| table.clone())
                    })
                })
        };
        if let Some(table) = conflict {
            if let Some(w) = wal.as_mut() {
                let _ = w.append(&WalRecord::Abort { txn: id });
                let _ = w.sync();
            }
            drop(wal);
            self.end(id);
            return Err(CalciteError::txn_conflict(format!(
                "concurrent transaction already updated rows of '{table}'"
            )));
        }

        // 3. Commit point: the Commit record is durable before any table
        // state changes.
        let commit_ts = self.clock.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(w) = wal.as_mut() {
            let durable = w
                .append(&WalRecord::Commit { txn: id, commit_ts })
                .and_then(|()| w.sync());
            if let Err(e) = durable {
                drop(wal);
                self.end(id);
                return Err(e);
            }
        }
        drop(wal);

        // 4. Apply onto the *current* shared versions (not the snapshot):
        // non-conflicting concurrent commits compose.
        for (tref, ops, _) in &staged {
            tref.table.apply_delta(ops)?;
        }

        // 4b. Change feed: propagate the committed deltas to observers
        // (incremental view maintenance) while the commit lock is still
        // held, so base tables and maintained views advance atomically
        // with respect to snapshot capture.
        {
            let observers = self.observers.lock();
            if !observers.is_empty() {
                let changes: Vec<(String, &[DeltaOp])> = staged
                    .iter()
                    .map(|(tref, ops, _)| (tref.qualified_name(), ops.as_slice()))
                    .collect();
                for obs in observers.iter() {
                    obs.on_commit(&changes);
                }
            }
        }

        // 5. Publish the footprint for later committers' FCW checks.
        self.history.lock().push(CommitFootprint {
            commit_ts,
            writes: staged
                .into_iter()
                .map(|(tref, _, ws)| (tref.qualified_name(), ws))
                .collect(),
        });
        self.end(id);
        Ok(commit_ts)
    }

    /// Removes `id` from the active set and prunes history no remaining
    /// transaction can conflict with.
    fn end(&self, id: u64) {
        let mut active = self.active.lock();
        active.remove(&id);
        let min_begin = active.values().min().copied();
        drop(active);
        let mut history = self.history.lock();
        match min_begin {
            // A footprint only matters to transactions that began before
            // it committed; the oldest active begin bounds that.
            Some(m) => history.retain(|rec| rec.commit_ts > m),
            None => history.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::MemTable;
    use crate::datum::Datum;
    use crate::types::{RowTypeBuilder, TypeKind};

    fn table() -> Arc<MemTable> {
        MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("id", TypeKind::Integer)
                .add("v", TypeKind::Integer)
                .build(),
            (0..4)
                .map(|i| vec![Datum::Int(i), Datum::Int(10 * i)])
                .collect(),
        )
    }

    fn tref(t: &Arc<MemTable>) -> TableRef {
        TableRef::new("s", "t", t.clone() as Arc<dyn Table>)
    }

    #[test]
    fn apply_ops_remap_and_reinserted() {
        let mut rows: Vec<Row> = (0..4).map(|i| vec![Datum::Int(i)]).collect();
        let mut ids = RowIds::sequential(0, 4);
        let out = apply_ops_to_rows(
            &mut rows,
            &mut ids,
            &[
                DeltaOp::Delete { row_id: 1 },
                DeltaOp::Update {
                    row_id: 2,
                    row: vec![Datum::Int(99)],
                },
                DeltaOp::Insert {
                    row_id: 7,
                    row: vec![Datum::Int(70)],
                },
            ],
            1,
        )
        .unwrap();
        assert_eq!(ids.as_slice(), &[0, 2, 3, 7]);
        assert_eq!(ids.position(3), Some(2));
        assert_eq!(ids.position(1), None);
        assert_eq!(
            rows,
            vec![
                vec![Datum::Int(0)],
                vec![Datum::Int(99)],
                vec![Datum::Int(3)],
                vec![Datum::Int(70)],
            ]
        );
        let RowMoves::Compacted { remap, reinserted } = out.moves else {
            panic!("a delete compacts");
        };
        assert_eq!(remap, vec![Some(0), None, Some(1), Some(2)]);
        assert_eq!(reinserted, vec![1, 3]);
        assert_eq!(out.max_inserted_id, Some(7));
    }

    #[test]
    fn apply_ops_in_place_reports_before_images() {
        let mut rows: Vec<Row> = (0..3).map(|i| vec![Datum::Int(i)]).collect();
        let mut ids = RowIds::sequential(0, 3);
        let upd = |row_id, v| DeltaOp::Update {
            row_id,
            row: vec![Datum::Int(v)],
        };
        let out = apply_ops_to_rows(
            &mut rows,
            &mut ids,
            &[
                upd(2, 20),
                DeltaOp::Insert {
                    row_id: 9,
                    row: vec![Datum::Int(90)],
                },
                upd(2, 21),
                upd(9, 91),
            ],
            1,
        )
        .unwrap();
        assert_eq!(ids.as_slice(), &[0, 1, 2, 9]);
        assert_eq!(rows[2], vec![Datum::Int(21)]);
        assert_eq!(rows[3], vec![Datum::Int(91)]);
        let RowMoves::InPlace { updated, inserted } = out.moves else {
            panic!("no delete, no compaction");
        };
        // One entry per rewritten pre-existing row, with its pre-delta image.
        assert_eq!(updated, vec![(2, vec![Datum::Int(2)])]);
        assert_eq!(inserted, 3..4);
    }

    /// A stream that fails part-way must leave the store exactly as it
    /// was: both the compacting and the in-place path validate first.
    #[test]
    fn failing_apply_leaves_store_unchanged() {
        let rows0: Vec<Row> = (0..4).map(|i| vec![Datum::Int(i)]).collect();
        let bad_streams = [
            vec![
                DeltaOp::Delete { row_id: 1 },
                DeltaOp::Update {
                    row_id: 99,
                    row: vec![Datum::Int(0)],
                },
            ],
            vec![
                DeltaOp::Update {
                    row_id: 0,
                    row: vec![Datum::Int(-1)],
                },
                DeltaOp::Insert {
                    row_id: 3,
                    row: vec![Datum::Int(3)],
                },
            ],
            vec![DeltaOp::Delete { row_id: 2 }, DeltaOp::Delete { row_id: 2 }],
            vec![DeltaOp::Update {
                row_id: 1,
                row: vec![],
            }],
        ];
        for ops in bad_streams {
            let mut rows = rows0.clone();
            let mut ids = RowIds::sequential(0, 4);
            assert!(apply_ops_to_rows(&mut rows, &mut ids, &ops, 1).is_err());
            assert_eq!(rows, rows0, "{ops:?}");
            assert_eq!(ids.as_slice(), &[0, 1, 2, 3], "{ops:?}");
        }
    }

    #[test]
    fn apply_ops_update_then_delete_same_row() {
        let mut rows: Vec<Row> = vec![vec![Datum::Int(1)]];
        let mut ids = RowIds::sequential(0, 1);
        apply_ops_to_rows(
            &mut rows,
            &mut ids,
            &[
                DeltaOp::Update {
                    row_id: 0,
                    row: vec![Datum::Int(2)],
                },
                DeltaOp::Delete { row_id: 0 },
            ],
            1,
        )
        .unwrap();
        assert!(rows.is_empty());
        assert!(ids.is_empty());
    }

    #[test]
    fn row_ids_resolve_out_of_order_pushes() {
        let mut ids = RowIds::sequential(10, 3);
        ids.push(20);
        assert!(ids.by_id.is_none(), "ascending ids need no index");
        ids.push(15); // reserved before 20, committed after it
        ids.push(30);
        ids.push(17);
        let expect = [10, 11, 12, 20, 15, 30, 17];
        assert_eq!(ids.as_slice(), &expect);
        for (pos, id) in expect.iter().enumerate() {
            assert_eq!(ids.position(*id), Some(pos), "id {id}");
        }
        assert_eq!(ids.position(13), None);
        // Deleting the stragglers restores the order and drops the index.
        ids.compact(&[Some(0), Some(1), Some(2), Some(3), None, Some(4), None]);
        assert_eq!(ids.as_slice(), &[10, 11, 12, 20, 30]);
        assert!(ids.by_id.is_none());
        assert_eq!(ids.position(30), Some(4));
        assert_eq!(ids.position(15), None);
    }

    #[test]
    fn snapshot_pins_begin_state_and_overlay_reads_own_writes() {
        let t = table();
        let mgr = Arc::new(TxnManager::new());
        let mut txn = mgr.begin(&[tref(&t)]);
        // Another writer commits directly.
        t.apply_delta(&[DeltaOp::Update {
            row_id: 0,
            row: vec![Datum::Int(0), Datum::Int(-1)],
        }])
        .unwrap();
        let view = txn.read_view("s.t").unwrap();
        assert_eq!(view.row(0)[1], Datum::Int(0)); // pre-commit value

        // Own write becomes visible through the overlay.
        txn.stage(
            "s.t",
            vec![DeltaOp::Update {
                row_id: 3,
                row: vec![Datum::Int(3), Datum::Int(999)],
            }],
        )
        .unwrap();
        let view = txn.read_view("s.t").unwrap();
        assert_eq!(view.row(3)[1], Datum::Int(999));
        assert_eq!(view.row(0)[1], Datum::Int(0)); // still the snapshot
        txn.rollback();
        // Rollback left the live table with only the direct write.
        assert_eq!(t.rows()[0][1], Datum::Int(-1));
        assert_eq!(t.rows()[3][1], Datum::Int(30));
    }

    /// The overlay keeps the version's index: probes see staged updates
    /// (old key gone, new key found), staged inserts and deletes, in slot
    /// order, and a stage that fails validation changes nothing.
    #[test]
    fn overlay_probes_merge_staged_rows() {
        use crate::index::BoundProbe;
        let t = table();
        t.create_index(&IndexDef::ordered("by_v", vec![1])).unwrap();
        let mgr = Arc::new(TxnManager::new());
        let mut txn = mgr.begin(&[tref(&t)]);
        let id = t.reserve_row_ids(1).unwrap();
        txn.stage(
            "s.t",
            vec![
                DeltaOp::Update {
                    row_id: 1,
                    row: vec![Datum::Int(1), Datum::Int(30)],
                },
                DeltaOp::Insert {
                    row_id: id,
                    row: vec![Datum::Int(9), Datum::Int(30)],
                },
                DeltaOp::Delete { row_id: 3 },
            ],
        )
        .unwrap();
        let positions = |txn: &Transaction, v: i64| {
            let view = txn.read_view("s.t").unwrap();
            let probe = view.index_probe("by_v").unwrap();
            probe
                .positions(&BoundProbe::point(vec![Datum::Int(v)]))
                .into_iter()
                .map(|slot| view.row(slot)[0].clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(positions(&txn, 10), vec![]);
        // Key 30: the base row 3 is deleted, row 1 moved here, the
        // insert appended after the base rows.
        assert_eq!(positions(&txn, 30), vec![Datum::Int(1), Datum::Int(9)]);
        let view = txn.read_view("s.t").unwrap();
        let scan: Vec<i64> = view.rows().map(|(_, r)| r[0].as_int().unwrap()).collect();
        assert_eq!(scan, vec![0, 1, 2, 9]);
        assert_eq!(view.row_count(), 4);

        // Deleting row 1 twice fails as a whole: nothing is staged.
        let err = txn.stage(
            "s.t",
            vec![DeltaOp::Delete { row_id: 1 }, DeltaOp::Delete { row_id: 1 }],
        );
        assert!(err.is_err());
        assert_eq!(positions(&txn, 30), vec![Datum::Int(1), Datum::Int(9)]);
        assert_eq!(txn.read_view("s.t").unwrap().row_count(), 4);
        txn.rollback();
    }

    #[test]
    fn first_committer_wins() {
        let t = table();
        let mgr = Arc::new(TxnManager::new());
        let mut a = mgr.begin(&[tref(&t)]);
        let mut b = mgr.begin(&[tref(&t)]);
        let upd = |v: i64| DeltaOp::Update {
            row_id: 2,
            row: vec![Datum::Int(2), Datum::Int(v)],
        };
        a.stage("s.t", vec![upd(100)]).unwrap();
        b.stage("s.t", vec![upd(200)]).unwrap();
        a.commit().unwrap();
        let err = b.commit().unwrap_err();
        assert!(err.is_retryable(), "FCW loser must be retryable: {err}");
        assert_eq!(t.rows()[2][1], Datum::Int(100));
        assert_eq!(mgr.active_count(), 0);
    }

    #[test]
    fn disjoint_writers_both_commit() {
        let t = table();
        let mgr = Arc::new(TxnManager::new());
        let mut a = mgr.begin(&[tref(&t)]);
        let mut b = mgr.begin(&[tref(&t)]);
        a.stage(
            "s.t",
            vec![DeltaOp::Update {
                row_id: 0,
                row: vec![Datum::Int(0), Datum::Int(111)],
            }],
        )
        .unwrap();
        b.stage("s.t", vec![DeltaOp::Delete { row_id: 3 }]).unwrap();
        a.commit().unwrap();
        b.commit().unwrap();
        let rows = t.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][1], Datum::Int(111));
        assert!(rows.iter().all(|r| r[0] != Datum::Int(3)));
    }

    #[test]
    fn seed_counters_skips_replayed_ids_and_timestamps() {
        let mgr = Arc::new(TxnManager::new());
        mgr.seed_counters(41, 99);
        let txn = mgr.begin(&[]);
        assert_eq!(txn.id(), 42);
        assert!(txn.begin_ts() > 99);
        // Seeding never moves the clocks backwards.
        mgr.seed_counters(1, 1);
        let txn2 = mgr.begin(&[]);
        assert_eq!(txn2.id(), 43);
    }

    /// BEGIN must observe a multi-table commit all-or-nothing: a snapshot
    /// captured while another thread commits to two tables may never pair
    /// table A's post-commit version with table B's pre-commit one.
    #[test]
    fn begin_never_sees_half_applied_multi_table_commit() {
        let a = table();
        let b = table();
        let mgr = Arc::new(TxnManager::new());
        let refs = [
            TableRef::new("s", "a", a.clone() as Arc<dyn Table>),
            TableRef::new("s", "b", b.clone() as Arc<dyn Table>),
        ];
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let mgr = Arc::clone(&mgr);
            let refs = refs.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Each commit sets row 0 of BOTH tables to the same value.
                for i in 1..500i64 {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let mut txn = mgr.begin(&refs);
                    for t in ["s.a", "s.b"] {
                        txn.stage(
                            t,
                            vec![DeltaOp::Update {
                                row_id: 0,
                                row: vec![Datum::Int(0), Datum::Int(i)],
                            }],
                        )
                        .unwrap();
                    }
                    txn.commit().unwrap();
                }
            })
        };
        for _ in 0..500 {
            let txn = mgr.begin(&refs);
            let va = txn.read_view("s.a").unwrap().row(0)[1].clone();
            let vb = txn.read_view("s.b").unwrap().row(0)[1].clone();
            assert_eq!(va, vb, "snapshot saw a half-applied commit");
            txn.rollback();
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn inserts_never_conflict() {
        let t = table();
        let mgr = Arc::new(TxnManager::new());
        let mut a = mgr.begin(&[tref(&t)]);
        let mut b = mgr.begin(&[tref(&t)]);
        let id_a = t.reserve_row_ids(1).unwrap();
        let id_b = t.reserve_row_ids(1).unwrap();
        a.stage(
            "s.t",
            vec![DeltaOp::Insert {
                row_id: id_a,
                row: vec![Datum::Int(100), Datum::Int(0)],
            }],
        )
        .unwrap();
        b.stage(
            "s.t",
            vec![DeltaOp::Insert {
                row_id: id_b,
                row: vec![Datum::Int(101), Datum::Int(0)],
            }],
        )
        .unwrap();
        a.commit().unwrap();
        b.commit().unwrap();
        assert_eq!(t.len(), 6);
    }
}
