//! Secondary indexes. The paper frames the optimizer as choosing among
//! physical access paths supplied by adapters via rules and cost (§5);
//! this module supplies the access paths: ordered (sorted-permutation,
//! binary-search) and hash indexes over any positionally-addressable
//! store, plus the planner-side seek description ([`SeekSpec`]) and the
//! execution-side bound probe ([`BoundProbe`]).
//!
//! The machinery is backend-neutral: it reads table data through
//! [`KeyAccess`] so the same build/insert/probe code serves core's
//! row-based `MemTable` and memdb's columnar `MemRelation`. Indexes are
//! maintained incrementally on every committed delta (motivated by the
//! constant-delay-under-updates line of work) rather than rebuilt per
//! write: an UPDATE re-keys only the entries whose key changed and an
//! INSERT merges its rows in ([`IndexData::apply_delta`]).

use crate::datum::{Datum, Row};
use crate::error::{CalciteError, Result};
use crate::rex::RexNode;
use crate::txn::RowMoves;
use std::collections::HashMap;
use std::sync::Arc;

/// Physical shape of an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// A permutation of row positions sorted by the key columns
    /// (B-tree-style): supports point, prefix and range seeks.
    Ordered,
    /// Key → positions map: full-key equality probes only.
    Hash,
}

impl IndexKind {
    pub fn name(&self) -> &'static str {
        match self {
            IndexKind::Ordered => "ordered",
            IndexKind::Hash => "hash",
        }
    }
}

/// Catalog description of one index: a name, the key columns (base-table
/// field positions, significant order) and the physical kind.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexDef {
    pub name: String,
    pub columns: Vec<usize>,
    pub kind: IndexKind,
}

impl IndexDef {
    pub fn ordered(name: impl Into<String>, columns: Vec<usize>) -> IndexDef {
        IndexDef {
            name: name.into(),
            columns,
            kind: IndexKind::Ordered,
        }
    }

    pub fn hash(name: impl Into<String>, columns: Vec<usize>) -> IndexDef {
        IndexDef {
            name: name.into(),
            columns,
            kind: IndexKind::Hash,
        }
    }

    /// Stable text form for plan digests and EXPLAIN.
    pub fn digest(&self) -> String {
        let cols: Vec<String> = self.columns.iter().map(|c| format!("${c}")).collect();
        format!("{}:{}[{}]", self.name, self.kind.name(), cols.join(","))
    }
}

/// Positional access to table data, the surface indexes are built over and
/// probed against. `datum` may be called for any column (not just key
/// columns): seek results gather full rows through it.
pub trait KeyAccess {
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    fn arity(&self) -> usize;
    fn datum(&self, row: usize, col: usize) -> Datum;
}

/// Positionally addressable rows: what row-based [`KeyAccess`] reads
/// keys from. Implemented by plain row vectors and slices and by
/// `MemTable`'s chunked store.
pub trait RowSource: Send + Sync {
    fn row_count(&self) -> usize;
    fn row_at(&self, pos: usize) -> &Row;
}

impl RowSource for [Row] {
    fn row_count(&self) -> usize {
        self.len()
    }

    fn row_at(&self, pos: usize) -> &Row {
        &self[pos]
    }
}

impl RowSource for Vec<Row> {
    fn row_count(&self) -> usize {
        self.len()
    }

    fn row_at(&self, pos: usize) -> &Row {
        &self[pos]
    }
}

/// [`KeyAccess`] over shared rows (`MemTable` snapshots): an `Arc` clone
/// of the copy-on-write store, so taking the snapshot is O(1) and later
/// writes never disturb it.
pub struct RowsAccess<R: RowSource + ?Sized = Vec<Row>> {
    pub rows: Arc<R>,
    pub arity: usize,
}

impl<R: RowSource + ?Sized> KeyAccess for RowsAccess<R> {
    fn len(&self) -> usize {
        self.rows.row_count()
    }

    fn arity(&self) -> usize {
        self.arity
    }

    fn datum(&self, row: usize, col: usize) -> Datum {
        self.rows.row_at(row)[col].clone()
    }
}

/// Borrowed [`KeyAccess`] over rows (in-place index maintenance).
pub struct RowsRef<'a, R: RowSource + ?Sized = [Row]> {
    pub rows: &'a R,
    pub arity: usize,
}

impl<R: RowSource + ?Sized> KeyAccess for RowsRef<'_, R> {
    fn len(&self) -> usize {
        self.rows.row_count()
    }

    fn arity(&self) -> usize {
        self.arity
    }

    fn datum(&self, row: usize, col: usize) -> Datum {
        self.rows.row_at(row)[col].clone()
    }
}

/// A seek probe with concrete values, produced by binding a [`SeekProbe`]
/// at execution time. `eq` constrains the leading key columns; the
/// optional bounds constrain the key column right after the `eq` prefix.
/// SQL comparison semantics apply: a NULL in a key column never matches,
/// and a NULL bound value matches nothing.
#[derive(Debug, Clone, Default)]
pub struct BoundProbe {
    pub eq: Vec<Datum>,
    pub lower: Option<(Datum, bool)>,
    pub upper: Option<(Datum, bool)>,
}

impl BoundProbe {
    pub fn point(eq: Vec<Datum>) -> BoundProbe {
        BoundProbe {
            eq,
            lower: None,
            upper: None,
        }
    }

    /// Whether the probe can match anything at all (no NULL constants).
    fn satisfiable(&self) -> bool {
        !self.eq.iter().any(Datum::is_null)
            && !matches!(&self.lower, Some((d, _)) if d.is_null())
            && !matches!(&self.upper, Some((d, _)) if d.is_null())
    }

    /// Row-level form of the probe predicate, used by fallback paths (and
    /// tests) to evaluate the probe without an index. Must agree exactly
    /// with what [`IndexData::probe`] returns.
    pub fn matches(&self, data: &dyn KeyAccess, row: usize, def: &IndexDef) -> bool {
        if !self.satisfiable() {
            return false;
        }
        for (i, want) in self.eq.iter().enumerate() {
            let v = data.datum(row, def.columns[i]);
            if v.is_null() || v != *want {
                return false;
            }
        }
        if self.lower.is_none() && self.upper.is_none() {
            return true;
        }
        let Some(col) = def.columns.get(self.eq.len()) else {
            return false;
        };
        let v = data.datum(row, *col);
        if v.is_null() {
            return false;
        }
        if let Some((b, inclusive)) = &self.lower {
            if if *inclusive { v < *b } else { v <= *b } {
                return false;
            }
        }
        if let Some((b, inclusive)) = &self.upper {
            if if *inclusive { v > *b } else { v >= *b } {
                return false;
            }
        }
        true
    }
}

#[derive(Debug, Clone)]
enum IndexState {
    /// Row positions sorted by (key, position). Equal keys keep ascending
    /// positions, so range segments stream in table order.
    Ordered(Vec<usize>),
    /// Key → ascending positions. Keys containing NULL are not stored:
    /// no equality probe can match them.
    Hash(HashMap<Vec<Datum>, Vec<usize>>),
}

/// One index instance over some table data. The data itself is *not*
/// owned: callers pass the matching [`KeyAccess`] to every operation, so
/// a copy-on-write snapshot of the table snapshots the index with it.
#[derive(Debug, Clone)]
pub struct IndexData {
    pub def: IndexDef,
    state: IndexState,
}

impl IndexData {
    /// Builds the index over the current contents of `data`.
    pub fn build(def: IndexDef, data: &dyn KeyAccess) -> Result<IndexData> {
        if def.columns.is_empty() {
            return Err(CalciteError::validate(format!(
                "index '{}' has no key columns",
                def.name
            )));
        }
        for c in &def.columns {
            if *c >= data.arity() {
                return Err(CalciteError::validate(format!(
                    "index '{}' key column {c} out of range",
                    def.name
                )));
            }
        }
        let n = data.len();
        let state = match def.kind {
            IndexKind::Ordered => {
                let keys: Vec<Vec<Datum>> = (0..n).map(|r| key_of(data, &def.columns, r)).collect();
                let mut perm: Vec<usize> = (0..n).collect();
                perm.sort_by(|a, b| keys[*a].cmp(&keys[*b]).then(a.cmp(b)));
                IndexState::Ordered(perm)
            }
            IndexKind::Hash => {
                let mut map: HashMap<Vec<Datum>, Vec<usize>> = HashMap::new();
                for r in 0..n {
                    let key = key_of(data, &def.columns, r);
                    if !key.iter().any(Datum::is_null) {
                        map.entry(key).or_default().push(r);
                    }
                }
                IndexState::Hash(map)
            }
        };
        Ok(IndexData { def, state })
    }

    /// Incrementally indexes the row at position `pos` (already present in
    /// `data`). Positions need not arrive in order: both shapes insert at
    /// the sorted point, so ordered permutations keep their (key, position)
    /// order and hash postings stay ascending.
    pub fn insert(&mut self, data: &dyn KeyAccess, pos: usize) {
        let key = key_of(data, &self.def.columns, pos);
        match &mut self.state {
            IndexState::Ordered(perm) => {
                let cols = &self.def.columns;
                let at = perm.partition_point(|&p| {
                    key_of(data, cols, p).cmp(&key).then(p.cmp(&pos)) == std::cmp::Ordering::Less
                });
                perm.insert(at, pos);
            }
            IndexState::Hash(map) => {
                if !key.iter().any(Datum::is_null) {
                    let postings = map.entry(key).or_default();
                    let at = postings.partition_point(|&p| p < pos);
                    postings.insert(at, pos);
                }
            }
        }
    }

    /// Maintains the index across a delta applied to its table. `data` is
    /// the *post-delta* table and `moves` says how rows moved (see
    /// [`crate::txn::apply_ops_to_rows`]). Because the index is
    /// copy-on-write-snapshotted with its table, open probe snapshots keep
    /// serving the pre-delta state.
    ///
    /// - [`RowMoves::InPlace`] (UPDATE/INSERT): only entries whose key
    ///   changed are re-keyed, found by their before-image key, and
    ///   appended rows are merged in. O(|delta| · log n) comparisons; an
    ///   ordered index also shifts the part of its permutation past the
    ///   lowest slot it touches, a memmove that is empty when the new
    ///   keys sort last (ascending ids).
    /// - [`RowMoves::Compacted`] (DELETE): every surviving entry is
    ///   renumbered, O(n + |delta| · log n).
    pub fn apply_delta(&mut self, data: &dyn KeyAccess, moves: &RowMoves) {
        match moves {
            RowMoves::InPlace { updated, inserted } => {
                self.apply_in_place(data, updated, inserted.clone())
            }
            RowMoves::Compacted { remap, reinserted } => {
                self.apply_compacted(data, remap, reinserted)
            }
        }
    }

    fn apply_in_place(
        &mut self,
        data: &dyn KeyAccess,
        updated: &[(usize, Row)],
        inserted: std::ops::Range<usize>,
    ) {
        let cols = &self.def.columns;
        // (position, key before the delta) of every row whose key changed.
        let rekeyed: Vec<(usize, Vec<Datum>)> = updated
            .iter()
            .filter_map(|(pos, old)| {
                let before: Vec<Datum> = cols.iter().map(|c| old[*c].clone()).collect();
                (before != key_of(data, cols, *pos)).then_some((*pos, before))
            })
            .collect();
        let incoming: Vec<usize> = rekeyed
            .iter()
            .map(|(pos, _)| *pos)
            .chain(inserted)
            .collect();
        match &mut self.state {
            IndexState::Ordered(perm) => {
                // Find every stale entry before removing any: the
                // permutation is still ordered by the *old* keys.
                let stale: HashMap<usize, &[Datum]> = rekeyed
                    .iter()
                    .map(|(pos, key)| (*pos, key.as_slice()))
                    .collect();
                let key_before = |p: usize| match stale.get(&p) {
                    Some(key) => key.to_vec(),
                    None => key_of(data, cols, p),
                };
                let mut slots: Vec<usize> = rekeyed
                    .iter()
                    .map(|(pos, key)| {
                        perm.partition_point(|&p| {
                            key_before(p).cmp(key).then(p.cmp(pos)) == std::cmp::Ordering::Less
                        })
                    })
                    .collect();
                slots.sort_unstable();
                remove_slots(perm, &slots);
                Self::merge_ordered(perm, data, cols, &incoming);
            }
            IndexState::Hash(map) => {
                for (pos, key) in &rekeyed {
                    if let Some(postings) = map.get_mut(key) {
                        if let Ok(i) = postings.binary_search(pos) {
                            postings.remove(i);
                        }
                        if postings.is_empty() {
                            map.remove(key);
                        }
                    }
                }
                for pos in incoming {
                    self.insert(data, pos);
                }
            }
        }
    }

    /// Survivor entries are remapped in place — `remap` is monotonic over
    /// survivors, so both the ordered permutation's (key, position) order
    /// and the hash postings' ascending order are preserved — and changed
    /// rows are re-keyed.
    fn apply_compacted(
        &mut self,
        data: &dyn KeyAccess,
        remap: &[Option<usize>],
        reinserted: &[usize],
    ) {
        // Bitmap over new positions: O(1) membership without hashing on
        // the O(n) retain pass below.
        let mut changed = vec![false; data.len()];
        for &pos in reinserted {
            if let Some(flag) = changed.get_mut(pos) {
                *flag = true;
            }
        }
        let survives = |p: &mut usize| -> bool {
            match remap.get(*p).copied().flatten() {
                Some(np) if !changed[np] => {
                    *p = np;
                    true
                }
                _ => false,
            }
        };
        match &mut self.state {
            IndexState::Ordered(perm) => {
                perm.retain_mut(survives);
                Self::merge_ordered(perm, data, &self.def.columns, reinserted);
            }
            IndexState::Hash(map) => {
                map.retain(|_, postings| {
                    postings.retain_mut(survives);
                    !postings.is_empty()
                });
                for &pos in reinserted {
                    self.insert(data, pos);
                }
            }
        }
    }

    /// Batch-inserts `reinserted` into an ordered permutation: each entry's
    /// slot is found by binary search, then one back-to-front pass shifts
    /// every surviving segment exactly once — O(n + k log n) instead of
    /// the k · O(n) memmoves of repeated point inserts.
    fn merge_ordered(
        perm: &mut Vec<usize>,
        data: &dyn KeyAccess,
        cols: &[usize],
        reinserted: &[usize],
    ) {
        if reinserted.is_empty() {
            return;
        }
        let mut incoming: Vec<(Vec<Datum>, usize)> = reinserted
            .iter()
            .map(|&pos| (key_of(data, cols, pos), pos))
            .collect();
        incoming.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        // Ascending because `incoming` is sorted by the same comparator.
        let slots: Vec<usize> = incoming
            .iter()
            .map(|(key, pos)| {
                perm.partition_point(|&p| {
                    key_of(data, cols, p).cmp(key).then(p.cmp(pos)) == std::cmp::Ordering::Less
                })
            })
            .collect();
        let old_len = perm.len();
        perm.resize(old_len + incoming.len(), 0);
        let mut read = old_len;
        let mut write = perm.len();
        for (i, (_, pos)) in incoming.iter().enumerate().rev() {
            while read > slots[i] {
                read -= 1;
                write -= 1;
                perm[write] = perm[read];
            }
            write -= 1;
            perm[write] = *pos;
        }
    }

    /// Row positions matching `probe`, ascending. Shapes the physical
    /// index cannot serve (a range probe against a hash index, a probe
    /// past the key arity) fall back to a full position scan so the
    /// answer is always exact.
    pub fn probe(&self, data: &dyn KeyAccess, probe: &BoundProbe) -> Vec<usize> {
        if !probe.satisfiable() || probe.eq.len() > self.def.columns.len() {
            return vec![];
        }
        let ranged = probe.lower.is_some() || probe.upper.is_some();
        if ranged && probe.eq.len() >= self.def.columns.len() {
            return vec![]; // range column beyond the key: unsatisfiable shape
        }
        match &self.state {
            IndexState::Hash(map) => {
                if ranged || probe.eq.len() != self.def.columns.len() {
                    return self.scan_fallback(data, probe);
                }
                map.get(&probe.eq).cloned().unwrap_or_default()
            }
            IndexState::Ordered(perm) => {
                let cols = &self.def.columns;
                // Narrow to the run of keys whose prefix equals `eq`.
                let prefix_cmp = |p: usize| -> std::cmp::Ordering {
                    for (i, want) in probe.eq.iter().enumerate() {
                        let ord = data.datum(p, cols[i]).cmp(want);
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                };
                let lo = perm.partition_point(|&p| prefix_cmp(p) == std::cmp::Ordering::Less);
                let hi = lo
                    + perm[lo..].partition_point(|&p| prefix_cmp(p) != std::cmp::Ordering::Greater);
                let (mut lo, mut hi) = (lo, hi);
                if ranged {
                    let rcol = cols[probe.eq.len()];
                    // NULLs sort first under the Datum total order and no
                    // comparison matches them: skip them at the front.
                    lo += perm[lo..hi].partition_point(|&p| data.datum(p, rcol).is_null());
                    if let Some((b, inclusive)) = &probe.lower {
                        lo += perm[lo..hi].partition_point(|&p| {
                            let v = data.datum(p, rcol);
                            if *inclusive {
                                v < *b
                            } else {
                                v <= *b
                            }
                        });
                    }
                    if let Some((b, inclusive)) = &probe.upper {
                        hi = lo
                            + perm[lo..hi].partition_point(|&p| {
                                let v = data.datum(p, rcol);
                                if *inclusive {
                                    v <= *b
                                } else {
                                    v < *b
                                }
                            });
                    }
                }
                let mut out = perm[lo..hi].to_vec();
                // Results must stream in table order so an index plan is
                // byte-identical to the filter-over-scan it replaces.
                out.sort_unstable();
                out
            }
        }
    }

    fn scan_fallback(&self, data: &dyn KeyAccess, probe: &BoundProbe) -> Vec<usize> {
        (0..data.len())
            .filter(|r| probe.matches(data, *r, &self.def))
            .collect()
    }
}

/// Removes the entries at `slots` (ascending, distinct) in one pass that
/// shifts only the part of `perm` past the first slot.
fn remove_slots(perm: &mut Vec<usize>, slots: &[usize]) {
    let Some(&first) = slots.first() else {
        return;
    };
    let mut next = 0;
    let mut write = first;
    for read in first..perm.len() {
        if slots.get(next) == Some(&read) {
            next += 1;
        } else {
            perm[write] = perm[read];
            write += 1;
        }
    }
    perm.truncate(write);
}

fn key_of(data: &dyn KeyAccess, columns: &[usize], row: usize) -> Vec<Datum> {
    columns.iter().map(|c| data.datum(row, *c)).collect()
}

/// A consistent snapshot a table hands out for index probes: positions,
/// rows and the index all refer to the same point-in-time data, so an
/// in-flight index-nested-loop join is undisturbed by concurrent INSERTs
/// (same contract as [`crate::catalog::RangeScan`]).
pub trait IndexProbe: Send + Sync {
    fn row_count(&self) -> usize;

    /// Matching row positions, ascending.
    fn positions(&self, probe: &BoundProbe) -> Vec<usize>;

    /// The full row at `pos`.
    fn row(&self, pos: usize) -> Row;
}

/// The one [`IndexProbe`] implementation backends need: a point-in-time
/// [`KeyAccess`] plus the matching index snapshot.
pub struct SnapshotProbe<A: KeyAccess + Send + Sync> {
    pub data: A,
    pub index: Arc<IndexData>,
}

impl<A: KeyAccess + Send + Sync> IndexProbe for SnapshotProbe<A> {
    fn row_count(&self) -> usize {
        self.data.len()
    }

    fn positions(&self, probe: &BoundProbe) -> Vec<usize> {
        self.index.probe(&self.data, probe)
    }

    fn row(&self, pos: usize) -> Row {
        (0..self.data.arity())
            .map(|c| self.data.datum(pos, c))
            .collect()
    }
}

/// Positions matching any of `probes`, merged into ascending table order
/// and deduped (overlapping IN-list probes must not duplicate rows).
pub fn seek_positions(snap: &dyn IndexProbe, probes: &[BoundProbe]) -> Vec<usize> {
    let mut all: Vec<usize> = vec![];
    for p in probes {
        all.extend(snap.positions(p));
    }
    all.sort_unstable();
    all.dedup();
    all
}

/// Full rows for [`seek_positions`], in table order.
pub fn seek_rows(snap: &dyn IndexProbe, probes: &[BoundProbe]) -> Vec<Row> {
    seek_positions(snap, probes)
        .into_iter()
        .map(|p| snap.row(p))
        .collect()
}

// ---------------------------------------------------------------------
// Planner-side seek description
// ---------------------------------------------------------------------

/// One unbound probe: constant row expressions (literals or dynamic
/// parameters) for the leading key columns, plus optional bounds on the
/// next key column. Bound against the execution context into a
/// [`BoundProbe`].
#[derive(Debug, Clone)]
pub struct SeekProbe {
    pub eq: Vec<RexNode>,
    pub lower: Option<(RexNode, bool)>,
    pub upper: Option<(RexNode, bool)>,
}

impl SeekProbe {
    pub fn point(eq: Vec<RexNode>) -> SeekProbe {
        SeekProbe {
            eq,
            lower: None,
            upper: None,
        }
    }

    fn digest(&self) -> String {
        let mut parts: Vec<String> = self.eq.iter().map(|e| format!("={}", e.digest())).collect();
        if let Some((b, inclusive)) = &self.lower {
            parts.push(format!(
                "{}{}",
                if *inclusive { ">=" } else { ">" },
                b.digest()
            ));
        }
        if let Some((b, inclusive)) = &self.upper {
            parts.push(format!(
                "{}{}",
                if *inclusive { "<=" } else { "<" },
                b.digest()
            ));
        }
        parts.join(" ")
    }
}

/// The access-path payload of an `IndexSeek` plan node: one probe for a
/// point/range seek, several for an IN-list multi-probe.
#[derive(Debug, Clone)]
pub struct SeekSpec {
    pub probes: Vec<SeekProbe>,
}

impl SeekSpec {
    pub fn digest(&self) -> String {
        let parts: Vec<String> = self.probes.iter().map(|p| p.digest()).collect();
        format!("[{}]", parts.join("; "))
    }

    /// Every constant expression carried by the seek (for parameter
    /// discovery and binding).
    pub fn exprs(&self) -> Vec<&RexNode> {
        let mut out = vec![];
        for p in &self.probes {
            out.extend(p.eq.iter());
            if let Some((b, _)) = &p.lower {
                out.push(b);
            }
            if let Some((b, _)) = &p.upper {
                out.push(b);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(vals: Vec<Vec<Option<i64>>>) -> RowsAccess {
        let arity = vals.first().map_or(0, Vec::len);
        RowsAccess {
            rows: Arc::new(
                vals.into_iter()
                    .map(|r| {
                        r.into_iter()
                            .map(|v| v.map_or(Datum::Null, Datum::Int))
                            .collect()
                    })
                    .collect(),
            ),
            arity,
        }
    }

    #[test]
    fn apply_delta_matches_fresh_build() {
        // Old data: 6 rows keyed by column 0 with duplicates and a NULL.
        let old = data(vec![
            vec![Some(3), Some(0)],
            vec![Some(1), Some(1)],
            vec![Some(3), Some(2)],
            vec![None, Some(3)],
            vec![Some(2), Some(4)],
            vec![Some(1), Some(5)],
        ]);
        // Delta: delete pos 1, update pos 4 (key 2 -> 9), append one row
        // (key 3). New positions: 0->0, 2->1, 3->2, 4->3(updated), 5->4,
        // appended at 5.
        let new = data(vec![
            vec![Some(3), Some(0)],
            vec![Some(3), Some(2)],
            vec![None, Some(3)],
            vec![Some(9), Some(4)],
            vec![Some(1), Some(5)],
            vec![Some(3), Some(6)],
        ]);
        let moves = RowMoves::Compacted {
            remap: vec![Some(0), None, Some(1), Some(2), Some(3), Some(4)],
            reinserted: vec![3, 5],
        };
        for def in [
            IndexDef::ordered("i", vec![0]),
            IndexDef::hash("i", vec![0]),
        ] {
            let mut idx = IndexData::build(def.clone(), &old).unwrap();
            idx.apply_delta(&new, &moves);
            let fresh = IndexData::build(def, &new).unwrap();
            for key in [1i64, 2, 3, 9] {
                let probe = BoundProbe::point(vec![Datum::Int(key)]);
                assert_eq!(
                    idx.probe(&new, &probe),
                    fresh.probe(&new, &probe),
                    "incremental and rebuilt indexes disagree on key {key}"
                );
            }
        }
    }

    #[test]
    fn in_place_delta_matches_fresh_build() {
        let old = data(vec![
            vec![Some(3), Some(0)],
            vec![Some(1), Some(1)],
            vec![Some(3), Some(2)],
            vec![None, Some(3)],
            vec![Some(2), Some(4)],
        ]);
        // Rewrites: pos 0 key 3 -> 1, pos 3 NULL -> 2, pos 4 keeps key 2
        // (value column only); two appended rows, one with a NULL key.
        let new = data(vec![
            vec![Some(1), Some(0)],
            vec![Some(1), Some(1)],
            vec![Some(3), Some(2)],
            vec![Some(2), Some(3)],
            vec![Some(2), Some(40)],
            vec![Some(0), Some(5)],
            vec![None, Some(6)],
        ]);
        let moves = RowMoves::InPlace {
            updated: [0, 3, 4]
                .iter()
                .map(|&p| (p, old.rows[p].clone()))
                .collect(),
            inserted: 5..7,
        };
        for def in [
            IndexDef::ordered("i", vec![0]),
            IndexDef::hash("i", vec![0]),
            IndexDef::ordered("i2", vec![0, 1]),
        ] {
            let mut idx = IndexData::build(def.clone(), &old).unwrap();
            idx.apply_delta(&new, &moves);
            let fresh = IndexData::build(def.clone(), &new).unwrap();
            if let (IndexState::Ordered(a), IndexState::Ordered(b)) = (&idx.state, &fresh.state) {
                assert_eq!(a, b, "{}: permutation differs from a rebuild", def.name);
            }
            let mut probes: Vec<BoundProbe> = (0..5)
                .map(|k| BoundProbe::point(vec![Datum::Int(k)]))
                .collect();
            probes.push(BoundProbe {
                eq: vec![],
                lower: Some((Datum::Int(1), true)),
                upper: None,
            });
            for probe in &probes {
                assert_eq!(
                    idx.probe(&new, probe),
                    fresh.probe(&new, probe),
                    "{}: incremental and rebuilt indexes disagree on {probe:?}",
                    def.name
                );
            }
        }
    }

    #[test]
    fn ordered_point_and_range_probe() {
        let d = data(vec![
            vec![Some(3), Some(30)],
            vec![Some(1), Some(10)],
            vec![Some(3), Some(31)],
            vec![None, Some(99)],
            vec![Some(2), Some(20)],
        ]);
        let idx = IndexData::build(IndexDef::ordered("i", vec![0]), &d).unwrap();
        assert_eq!(
            idx.probe(&d, &BoundProbe::point(vec![Datum::Int(3)])),
            vec![0, 2]
        );
        assert_eq!(
            idx.probe(&d, &BoundProbe::point(vec![Datum::Int(7)])),
            Vec::<usize>::new()
        );
        // NULL keys never match a probe, equality or range.
        assert_eq!(
            idx.probe(&d, &BoundProbe::point(vec![Datum::Null])),
            Vec::<usize>::new()
        );
        let range = BoundProbe {
            eq: vec![],
            lower: Some((Datum::Int(2), true)),
            upper: Some((Datum::Int(3), false)),
        };
        assert_eq!(idx.probe(&d, &range), vec![4]);
        let open_below = BoundProbe {
            eq: vec![],
            lower: None,
            upper: Some((Datum::Int(3), true)),
        };
        // Lower-unbounded ranges must skip the NULL run at the front.
        assert_eq!(idx.probe(&d, &open_below), vec![0, 1, 2, 4]);
    }

    #[test]
    fn ordered_prefix_probe_with_range() {
        let d = data(vec![
            vec![Some(1), Some(10)],
            vec![Some(1), Some(20)],
            vec![Some(2), Some(10)],
            vec![Some(1), None],
        ]);
        let idx = IndexData::build(IndexDef::ordered("i", vec![0, 1]), &d).unwrap();
        let p = BoundProbe {
            eq: vec![Datum::Int(1)],
            lower: Some((Datum::Int(10), false)),
            upper: None,
        };
        // Unbounded-above within the prefix: the NULL second key (row 3)
        // must not leak in.
        assert_eq!(idx.probe(&d, &p), vec![1]);
        assert_eq!(
            idx.probe(&d, &BoundProbe::point(vec![Datum::Int(1), Datum::Int(10)])),
            vec![0]
        );
    }

    #[test]
    fn hash_probe_and_shape_fallback() {
        let d = data(vec![
            vec![Some(1), Some(10)],
            vec![Some(2), Some(20)],
            vec![Some(1), Some(30)],
            vec![None, Some(40)],
        ]);
        let idx = IndexData::build(IndexDef::hash("h", vec![0]), &d).unwrap();
        assert_eq!(
            idx.probe(&d, &BoundProbe::point(vec![Datum::Int(1)])),
            vec![0, 2]
        );
        assert_eq!(
            idx.probe(&d, &BoundProbe::point(vec![Datum::Null])),
            Vec::<usize>::new()
        );
        // A range probe against a hash index still answers (full scan).
        let range = BoundProbe {
            eq: vec![],
            lower: Some((Datum::Int(2), true)),
            upper: None,
        };
        assert_eq!(idx.probe(&d, &range), vec![1]);
    }

    #[test]
    fn incremental_insert_matches_rebuild() {
        let mut rows = vec![vec![Some(5)], vec![Some(1)], vec![Some(5)], vec![None]];
        let d0 = data(rows.clone());
        let mut ordered = IndexData::build(IndexDef::ordered("o", vec![0]), &d0).unwrap();
        let mut hash = IndexData::build(IndexDef::hash("h", vec![0]), &d0).unwrap();
        for v in [Some(5), Some(0), None, Some(9)] {
            rows.push(vec![v]);
            let d = data(rows.clone());
            ordered.insert(&d, rows.len() - 1);
            hash.insert(&d, rows.len() - 1);
        }
        let d = data(rows.clone());
        let rebuilt_o = IndexData::build(IndexDef::ordered("o", vec![0]), &d).unwrap();
        let rebuilt_h = IndexData::build(IndexDef::hash("h", vec![0]), &d).unwrap();
        for v in [0i64, 1, 5, 9, 42] {
            let p = BoundProbe::point(vec![Datum::Int(v)]);
            assert_eq!(ordered.probe(&d, &p), rebuilt_o.probe(&d, &p), "v={v}");
            assert_eq!(hash.probe(&d, &p), rebuilt_h.probe(&d, &p), "v={v}");
        }
        let range = BoundProbe {
            eq: vec![],
            lower: Some((Datum::Int(1), true)),
            upper: Some((Datum::Int(5), true)),
        };
        assert_eq!(ordered.probe(&d, &range), rebuilt_o.probe(&d, &range));
    }

    #[test]
    fn seek_merges_and_dedups_probes() {
        let d = data(vec![vec![Some(1)], vec![Some(2)], vec![Some(1)]]);
        let idx = Arc::new(IndexData::build(IndexDef::ordered("i", vec![0]), &d).unwrap());
        let snap = SnapshotProbe {
            data: d,
            index: idx,
        };
        let probes = vec![
            BoundProbe::point(vec![Datum::Int(1)]),
            BoundProbe::point(vec![Datum::Int(2)]),
            BoundProbe::point(vec![Datum::Int(1)]), // duplicate IN value
        ];
        assert_eq!(seek_positions(&snap, &probes), vec![0, 1, 2]);
        assert_eq!(
            seek_rows(&snap, &probes),
            vec![
                vec![Datum::Int(1)],
                vec![Datum::Int(2)],
                vec![Datum::Int(1)]
            ]
        );
    }

    #[test]
    fn build_validates_columns() {
        let d = data(vec![vec![Some(1)]]);
        assert!(IndexData::build(IndexDef::ordered("i", vec![]), &d).is_err());
        assert!(IndexData::build(IndexDef::ordered("i", vec![5]), &d).is_err());
    }
}
