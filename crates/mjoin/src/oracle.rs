//! Naive full-recomputation oracle for correctness testing.
//!
//! Every executor in this workspace (XJoin, and the A-Caching engine in any
//! cache configuration, caching off — the plain MJoin — included) must
//! produce *exactly* the delta multiset that a
//! from-scratch nested-loop join would. [`Oracle`] maintains plain multiset
//! relation contents and computes, per update, the canonical delta rows —
//! tests diff these against executor output via [`canonical_rows`] /
//! [`multiset_diff`].

use acq_stream::{
    Composite, CountWindow, Op, QuerySchema, RelId, StreamElement, TimeWindow, TupleData, Update,
    WindowOp,
};
use std::collections::HashMap;

/// Canonical form of one n-way join result: the per-relation tuple data in
/// relation-id order.
pub type CanonicalRow = Vec<TupleData>;

/// Canonicalize an executor's composite result (must contain all n parts).
pub fn canonical_rows(c: &Composite, n: usize) -> CanonicalRow {
    let mut row: Vec<Option<TupleData>> = vec![None; n];
    for part in c.parts() {
        let slot = &mut row[part.rel.0 as usize];
        assert!(slot.is_none(), "duplicate relation in composite");
        *slot = Some(part.data.clone());
    }
    row.into_iter()
        .map(|t| t.expect("composite must be complete"))
        .collect()
}

/// Signed multiset over canonical rows: `+k` means k more insertions than
/// deletions of that row.
pub fn signed_multiset(deltas: &[(Op, CanonicalRow)]) -> HashMap<CanonicalRow, i64> {
    let mut m: HashMap<CanonicalRow, i64> = HashMap::new();
    for (op, row) in deltas {
        let e = m.entry(row.clone()).or_insert(0);
        *e += op.sign();
        if *e == 0 {
            m.remove(row);
        }
    }
    m
}

/// Difference between two delta lists as signed multisets; empty when they
/// represent the same net effect.
pub fn multiset_diff(
    a: &[(Op, CanonicalRow)],
    b: &[(Op, CanonicalRow)],
) -> HashMap<CanonicalRow, i64> {
    let mut m = signed_multiset(a);
    for (op, row) in b {
        let e = m.entry(row.clone()).or_insert(0);
        *e -= op.sign();
        if *e == 0 {
            m.remove(row);
        }
    }
    m
}

/// Naive relation state + delta computation.
#[derive(Debug, Clone)]
pub struct Oracle {
    query: QuerySchema,
    contents: Vec<Vec<TupleData>>,
}

impl Oracle {
    /// Empty oracle for a query.
    pub fn new(query: QuerySchema) -> Oracle {
        let n = query.num_relations();
        Oracle {
            query,
            contents: vec![Vec::new(); n],
        }
    }

    /// Current multiset contents of relation `r`.
    pub fn contents(&self, r: RelId) -> &[TupleData] {
        &self.contents[r.0 as usize]
    }

    /// Apply one update and return the canonical delta rows it induces
    /// (paired with the update's own op — an insert yields `Insert` rows, a
    /// delete `Delete` rows).
    pub fn apply_and_delta(&mut self, u: &Update) -> Vec<(Op, CanonicalRow)> {
        match u.op {
            Op::Insert => {
                self.contents[u.rel.0 as usize].push(u.data.clone());
                self.join_fixed(u.rel, &u.data)
                    .into_iter()
                    .map(|row| (Op::Insert, row))
                    .collect()
            }
            Op::Delete => {
                let list = &mut self.contents[u.rel.0 as usize];
                match list.iter().rposition(|t| *t == u.data) {
                    Some(pos) => {
                        list.remove(pos);
                        self.join_fixed(u.rel, &u.data)
                            .into_iter()
                            .map(|row| (Op::Delete, row))
                            .collect()
                    }
                    None => Vec::new(),
                }
            }
        }
    }

    /// All n-way join rows where relation `fixed` is bound to `tuple` and the
    /// other relations range over current contents.
    pub fn join_fixed(&self, fixed: RelId, tuple: &TupleData) -> Vec<CanonicalRow> {
        let n = self.query.num_relations();
        let mut row: Vec<Option<&TupleData>> = vec![None; n];
        row[fixed.0 as usize] = Some(tuple);
        let mut out = Vec::new();
        self.recurse(0, fixed, &mut row, &mut out);
        out
    }

    /// The complete n-way join of current contents.
    pub fn full_join(&self) -> Vec<CanonicalRow> {
        let n = self.query.num_relations();
        let mut out = Vec::new();
        // Fix nothing: recurse with a sentinel fixed relation out of range.
        let mut row: Vec<Option<&TupleData>> = vec![None; n];
        self.recurse(0, RelId(u16::MAX), &mut row, &mut out);
        out
    }

    fn recurse<'s>(
        &'s self,
        depth: usize,
        fixed: RelId,
        row: &mut Vec<Option<&'s TupleData>>,
        out: &mut Vec<CanonicalRow>,
    ) {
        let n = self.query.num_relations();
        if depth == n {
            out.push(row.iter().map(|t| (*t.unwrap()).clone()).collect());
            return;
        }
        let r = RelId(depth as u16);
        if r == fixed {
            if self.check_preds(depth, row) {
                self.recurse(depth + 1, fixed, row, out);
            }
            return;
        }
        // Clone the candidate list indices to satisfy borrowck cheaply.
        for i in 0..self.contents[depth].len() {
            row[depth] = Some(&self.contents[depth][i]);
            if self.check_preds(depth, row) {
                self.recurse(depth + 1, fixed, row, out);
            }
        }
        row[depth] = None;
    }

    /// Check every predicate whose endpoints are both bound at `row[..=depth]`
    /// and involve relation `depth` (earlier predicates were checked at
    /// earlier depths).
    fn check_preds(&self, depth: usize, row: &[Option<&TupleData>]) -> bool {
        for p in self.query.predicates() {
            let (hi, lo) = if p.left.rel.0 as usize >= p.right.rel.0 as usize {
                (p.left, p.right)
            } else {
                (p.right, p.left)
            };
            if hi.rel.0 as usize != depth {
                continue;
            }
            let (Some(a), Some(b)) = (row[hi.rel.0 as usize], row[lo.rel.0 as usize]) else {
                continue;
            };
            if !a.get(hi.col.0).join_eq(b.get(lo.col.0)) {
                return false;
            }
        }
        true
    }
}

/// Window clause for one relation of a [`WindowedOracle`] — mirrors the
/// engine facade's window kinds without depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleWindow {
    /// `ROWS n`: keep the most recent `n` tuples.
    Count(usize),
    /// `RANGE t`: keep tuples younger than `t` nanoseconds.
    TimeNs(u64),
    /// No window; the relation shrinks only via explicit deletes fed through
    /// [`WindowedOracle::apply`].
    Unbounded,
}

enum OracleWindowState {
    Count(CountWindow),
    Time(TimeWindow),
    Unbounded,
}

/// A clock-aware oracle for append-only streams: owns the *same*
/// [`CountWindow`]/[`TimeWindow`] operators the engine facade uses, so the
/// insert/delete update stream it derives — including expiry timing and the
/// delete-before-insert order at a full count window — is identical to the
/// engine's by construction. Differential runs against `StreamJoin` (or any
/// windowed executor) therefore need no output filtering: every retraction
/// the executor emits for a window expiry is matched by an oracle delta.
pub struct WindowedOracle {
    oracle: Oracle,
    windows: Vec<OracleWindowState>,
    last_ts: u64,
}

impl WindowedOracle {
    /// An empty windowed oracle; `specs` gives one window clause per
    /// relation, in relation-id order.
    ///
    /// # Panics
    /// Panics if `specs` does not cover every relation exactly once.
    pub fn new(query: QuerySchema, specs: &[OracleWindow]) -> WindowedOracle {
        assert_eq!(
            specs.len(),
            query.num_relations(),
            "one window spec per relation"
        );
        let windows = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| match spec {
                OracleWindow::Count(n) => {
                    OracleWindowState::Count(CountWindow::new(RelId(i as u16), *n))
                }
                OracleWindow::TimeNs(t) => {
                    OracleWindowState::Time(TimeWindow::new(RelId(i as u16), *t))
                }
                OracleWindow::Unbounded => OracleWindowState::Unbounded,
            })
            .collect();
        WindowedOracle {
            oracle: Oracle::new(query),
            windows,
            last_ts: 0,
        }
    }

    /// The wrapped un-windowed oracle (current relation contents).
    pub fn oracle(&self) -> &Oracle {
        &self.oracle
    }

    /// Push one arriving tuple through its window and return the canonical
    /// result deltas — expirations (negative rows) first, then the insert's
    /// rows, exactly as the engine emits them.
    ///
    /// # Panics
    /// Panics if `ts` goes backwards (§3.1 requires a global arrival order).
    pub fn push(&mut self, rel: RelId, data: TupleData, ts: u64) -> Vec<(Op, CanonicalRow)> {
        assert!(ts >= self.last_ts, "timestamps must be nondecreasing");
        self.last_ts = ts;
        let updates = match &mut self.windows[rel.0 as usize] {
            OracleWindowState::Count(w) => w.push(StreamElement::new(rel, data, ts)),
            OracleWindowState::Time(w) => w.push(StreamElement::new(rel, data, ts)),
            OracleWindowState::Unbounded => vec![Update::insert(rel, data, ts)],
        };
        let mut out = Vec::new();
        for u in &updates {
            out.extend(self.oracle.apply_and_delta(u));
        }
        out
    }

    /// Advance the clock on time-windowed relations without pushing tuples,
    /// returning the expiry deltas.
    ///
    /// # Panics
    /// Panics if `now` goes backwards.
    pub fn advance_time(&mut self, now: u64) -> Vec<(Op, CanonicalRow)> {
        assert!(now >= self.last_ts, "timestamps must be nondecreasing");
        self.last_ts = now;
        let mut expired = Vec::new();
        for w in &mut self.windows {
            if let OracleWindowState::Time(tw) = w {
                expired.extend(tw.expire(now));
            }
        }
        let mut out = Vec::new();
        for u in &expired {
            out.extend(self.oracle.apply_and_delta(u));
        }
        out
    }

    /// Apply a raw update (explicit delete on an unbounded relation —
    /// materialized-view maintenance mode), bypassing the windows.
    ///
    /// # Panics
    /// Panics if the update's timestamp goes backwards.
    pub fn apply(&mut self, u: &Update) -> Vec<(Op, CanonicalRow)> {
        assert!(u.ts >= self.last_ts, "timestamps must be nondecreasing");
        self.last_ts = u.ts;
        self.oracle.apply_and_delta(u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(rel: u16, op: Op, vals: &[i64]) -> Update {
        Update {
            op,
            rel: RelId(rel),
            data: TupleData::ints(vals),
            ts: 0,
        }
    }

    #[test]
    fn oracle_matches_paper_example() {
        let mut o = Oracle::new(QuerySchema::chain3());
        for (rel, vals) in [
            (0u16, vec![0i64]),
            (0, vec![2]),
            (1, vec![1, 2]),
            (1, vec![1, 3]),
            (1, vec![3, 4]),
            (2, vec![2]),
            (2, vec![6]),
        ] {
            assert!(o.apply_and_delta(&upd(rel, Op::Insert, &vals)).is_empty());
        }
        let delta = o.apply_and_delta(&upd(0, Op::Insert, &[1]));
        assert_eq!(delta.len(), 1);
        let (op, row) = &delta[0];
        assert_eq!(*op, Op::Insert);
        assert_eq!(row[0], TupleData::ints(&[1]));
        assert_eq!(row[1], TupleData::ints(&[1, 2]));
        assert_eq!(row[2], TupleData::ints(&[2]));
    }

    #[test]
    fn example_3_3_after_r3_insert() {
        // Continue: inserting ⟨3⟩ into R3 makes a future ⟨1⟩ on ∆R1 produce
        // two results (paper Example 3.3).
        let mut o = Oracle::new(QuerySchema::chain3());
        for (rel, vals) in [
            (0u16, vec![0i64]),
            (0, vec![2]),
            (0, vec![1]),
            (1, vec![1, 2]),
            (1, vec![1, 3]),
            (1, vec![3, 4]),
            (2, vec![2]),
            (2, vec![6]),
        ] {
            o.apply_and_delta(&upd(rel, Op::Insert, &vals));
        }
        let delta = o.apply_and_delta(&upd(2, Op::Insert, &[3]));
        assert_eq!(delta.len(), 1, "⟨1,1,3,3⟩ appears");
        let another_r1 = o.apply_and_delta(&upd(0, Op::Insert, &[1]));
        assert_eq!(another_r1.len(), 2, "⟨1,1,2,2⟩ and ⟨1,1,3,3⟩");
    }

    #[test]
    fn delete_yields_negative_delta() {
        let mut o = Oracle::new(QuerySchema::chain3());
        o.apply_and_delta(&upd(0, Op::Insert, &[1]));
        o.apply_and_delta(&upd(1, Op::Insert, &[1, 2]));
        o.apply_and_delta(&upd(2, Op::Insert, &[2]));
        let d = o.apply_and_delta(&upd(1, Op::Delete, &[1, 2]));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].0, Op::Delete);
        assert!(o.full_join().is_empty());
    }

    #[test]
    fn delete_of_absent_is_empty_delta() {
        let mut o = Oracle::new(QuerySchema::chain3());
        assert!(o.apply_and_delta(&upd(0, Op::Delete, &[5])).is_empty());
    }

    #[test]
    fn multiset_duplicates_counted() {
        let mut o = Oracle::new(QuerySchema::chain3());
        o.apply_and_delta(&upd(0, Op::Insert, &[1]));
        o.apply_and_delta(&upd(1, Op::Insert, &[1, 2]));
        o.apply_and_delta(&upd(1, Op::Insert, &[1, 2])); // duplicate S tuple
        let d = o.apply_and_delta(&upd(2, Op::Insert, &[2]));
        assert_eq!(d.len(), 2, "duplicate S yields two identical rows");
        let ms = signed_multiset(&d);
        assert_eq!(ms.len(), 1);
        assert_eq!(*ms.values().next().unwrap(), 2);
    }

    #[test]
    fn diff_detects_mismatch_and_match() {
        let row1: CanonicalRow = vec![TupleData::ints(&[1])];
        let row2: CanonicalRow = vec![TupleData::ints(&[2])];
        let a = vec![(Op::Insert, row1.clone()), (Op::Insert, row2.clone())];
        let b = vec![(Op::Insert, row2), (Op::Insert, row1.clone())];
        assert!(multiset_diff(&a, &b).is_empty(), "order-insensitive");
        let c = vec![(Op::Insert, row1)];
        assert!(!multiset_diff(&a, &c).is_empty());
    }

    #[test]
    fn windowed_oracle_count_expiry_retracts_results() {
        let mut o = WindowedOracle::new(QuerySchema::chain3(), &[OracleWindow::Count(2); 3]);
        o.push(RelId(0), TupleData::ints(&[1]), 0);
        o.push(RelId(1), TupleData::ints(&[1, 2]), 1);
        let d = o.push(RelId(2), TupleData::ints(&[2]), 2);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].0, Op::Insert);
        // Two more R arrivals evict R=⟨1⟩: the result is retracted even
        // though neither arriving tuple joins — this is the delta an engine
        // with identical windows must also emit.
        o.push(RelId(0), TupleData::ints(&[5]), 3);
        let d = o.push(RelId(0), TupleData::ints(&[6]), 4);
        let deletes = d.iter().filter(|(op, _)| *op == Op::Delete).count();
        assert_eq!(deletes, 1, "window expiry retracts the join result");
    }

    #[test]
    fn windowed_oracle_count_full_window_delete_precedes_insert() {
        // A full count window's eviction is applied before the insert at the
        // same timestamp — the relation never transiently exceeds w, matching
        // CountWindow's ordering exactly.
        let mut o = WindowedOracle::new(QuerySchema::chain3(), &[OracleWindow::Count(1); 3]);
        o.push(RelId(0), TupleData::ints(&[1]), 0);
        o.push(RelId(1), TupleData::ints(&[1, 2]), 1);
        o.push(RelId(2), TupleData::ints(&[2]), 2);
        // New R=⟨1⟩ (same value) evicts old R=⟨1⟩: a retraction then a
        // re-assertion of the same row, in that order.
        let d = o.push(RelId(0), TupleData::ints(&[1]), 3);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].0, Op::Delete);
        assert_eq!(d[1].0, Op::Insert);
    }

    #[test]
    fn windowed_oracle_time_windows_and_advance() {
        let mut o = WindowedOracle::new(QuerySchema::chain3(), &[OracleWindow::TimeNs(100); 3]);
        o.push(RelId(0), TupleData::ints(&[1]), 0);
        o.push(RelId(1), TupleData::ints(&[1, 2]), 10);
        assert_eq!(o.push(RelId(2), TupleData::ints(&[2]), 20).len(), 1);
        let d = o.advance_time(500);
        let deletes = d.iter().filter(|(op, _)| *op == Op::Delete).count();
        assert_eq!(deletes, 1, "expiry retracts the result");
        assert!(o.advance_time(600).is_empty(), "idempotent");
        assert!(o.oracle().full_join().is_empty());
    }

    #[test]
    fn windowed_oracle_unbounded_with_explicit_deletes() {
        let mut o = WindowedOracle::new(QuerySchema::chain3(), &[OracleWindow::Unbounded; 3]);
        o.push(RelId(0), TupleData::ints(&[1]), 0);
        o.push(RelId(1), TupleData::ints(&[1, 2]), 1);
        assert_eq!(o.push(RelId(2), TupleData::ints(&[2]), 2).len(), 1);
        let d = o.apply(&Update::delete(RelId(1), TupleData::ints(&[1, 2]), 3));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].0, Op::Delete);
    }

    #[test]
    #[should_panic(expected = "timestamps must be nondecreasing")]
    fn windowed_oracle_backwards_time_panics() {
        let mut o = WindowedOracle::new(QuerySchema::chain3(), &[OracleWindow::Count(4); 3]);
        o.push(RelId(0), TupleData::ints(&[1]), 100);
        o.push(RelId(0), TupleData::ints(&[2]), 50);
    }

    #[test]
    fn full_join_counts() {
        let mut o = Oracle::new(QuerySchema::star(3));
        // Two tuples per relation, all on key 1 → 8 results.
        for r in 0..3u16 {
            o.apply_and_delta(&upd(r, Op::Insert, &[1, 0]));
            o.apply_and_delta(&upd(r, Op::Insert, &[1, 1]));
        }
        assert_eq!(o.full_join().len(), 8);
    }
}
