//! Width-sized frontiers: the intermediate tuples of a running pipeline.
//!
//! A pipeline extends its input one operator at a time (`r · r_j`, §3.1),
//! and most intermediate tuples die before they reach a sink: a probe with
//! a hundred matches feeds a second probe that keeps one of them. A
//! [`Frontier`] holds the intermediate tuples of one pipeline position as
//! borrowed `&TupleRef`s into the stores that own the parts, packed back
//! to back, exactly `width` per row; a [`Row`] is a view of one of those
//! runs. Extending, copying and dropping rows touch no reference counts,
//! and a row costs its width in pointers, not the widest join's. Owned
//! [`Composite`]s are built only where a tuple must outlive the pipeline
//! walk (result deltas, cache values).

use crate::schema::{AttrRef, RelId};
use crate::tuple::{Composite, TupleRef, MAX_PARTS};
use crate::value::Value;
use std::fmt;

/// The rows of one pipeline position, each exactly [`Frontier::width`]
/// borrowed parts, stored back to back in one buffer.
#[derive(Debug)]
pub struct Frontier<'a> {
    width: usize,
    /// `parts.len() / width`, kept so that counting rows costs no division.
    rows: usize,
    parts: Vec<&'a TupleRef>,
}

impl Default for Frontier<'_> {
    /// An empty frontier of one-part rows.
    #[inline]
    fn default() -> Self {
        Frontier::new(1)
    }
}

impl<'a> Frontier<'a> {
    /// An empty frontier of `width`-part rows.
    ///
    /// # Panics
    /// If `width` is 0 or exceeds [`MAX_PARTS`].
    #[inline]
    pub fn new(width: usize) -> Frontier<'a> {
        let mut f = Frontier {
            width: 1,
            rows: 0,
            parts: Vec::new(),
        };
        f.reset(width);
        f
    }

    /// Drop every row and hold `width`-part rows from now on, keeping the
    /// buffer's capacity.
    ///
    /// # Panics
    /// If `width` is 0 or exceeds [`MAX_PARTS`].
    #[inline]
    pub fn reset(&mut self, width: usize) {
        assert!(width != 0, "a row has at least one part");
        assert!(width <= MAX_PARTS, "row part overflow");
        self.width = width;
        self.rows = 0;
        self.parts.clear();
    }

    /// This frontier emptied and re-typed for rows of another lifetime.
    /// The part buffer's layout does not depend on the lifetime, so
    /// collecting the empty iterator reuses its allocation in place: a
    /// frontier stored between walks costs no allocation per walk.
    #[inline]
    pub fn recycle<'b>(self) -> Frontier<'b> {
        let mut parts = self.parts;
        parts.clear();
        Frontier {
            width: self.width,
            rows: 0,
            parts: parts.into_iter().map(|_| unreachable!("cleared")).collect(),
        }
    }

    /// Parts per row.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if there are no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// The rows, in push order.
    #[inline]
    pub fn rows(&self) -> impl Iterator<Item = Row<'_, 'a>> + '_ {
        // The buffer holds whole rows, so `chunks` yields exactly them;
        // `chunks_exact` would divide by the width on every call.
        self.parts.chunks(self.width).map(|parts| Row { parts })
    }

    /// Append the concatenation `row · t` (paper notation `r · r_j`).
    ///
    /// # Panics
    /// If `row` is not one part narrower than this frontier.
    #[inline]
    pub fn push_extended(&mut self, row: Row<'_, 'a>, t: &'a TupleRef) {
        assert_eq!(row.len() + 1, self.width, "row width mismatch");
        self.parts.reserve(self.width);
        // Part by part: rows are a few pointers wide, and
        // `extend_from_slice` made every match a `memcpy` call.
        for &p in row.parts {
            self.parts.push(p);
        }
        self.parts.push(t);
        self.rows += 1;
    }

    /// Append a row with the given parts, in order.
    ///
    /// # Panics
    /// If `parts` does not yield exactly [`Frontier::width`] parts.
    pub fn push_row(&mut self, parts: impl IntoIterator<Item = &'a TupleRef>) {
        let start = self.parts.len();
        self.parts.extend(parts);
        assert_eq!(self.parts.len() - start, self.width, "row width mismatch");
        self.rows += 1;
    }

    /// Overwrite row `i`'s parts in place (a cache hit's result replacing
    /// the stand-in pushed for it).
    ///
    /// # Panics
    /// If `i` is out of range or `parts` does not yield exactly
    /// [`Frontier::width`] parts.
    pub fn set_row(&mut self, i: usize, parts: impl IntoIterator<Item = &'a TupleRef>) {
        let w = self.width;
        let slots = &mut self.parts[i * w..(i + 1) * w];
        let mut parts = parts.into_iter();
        for slot in slots {
            *slot = parts.next().expect("row width mismatch");
        }
        assert!(parts.next().is_none(), "row width mismatch");
    }
}

/// A concatenated pipeline tuple whose parts are borrowed: a view of one
/// row of a [`Frontier`] (or of any part slice).
#[derive(Clone, Copy)]
pub struct Row<'r, 'a> {
    parts: &'r [&'a TupleRef],
}

const _: () = assert!(std::mem::size_of::<Row<'static, 'static>>() == 16);

impl<'r, 'a> Row<'r, 'a> {
    /// A row over `parts`, in pipeline order.
    ///
    /// # Panics
    /// If `parts` is empty or longer than [`MAX_PARTS`].
    #[inline]
    pub fn new(parts: &'r [&'a TupleRef]) -> Row<'r, 'a> {
        assert!(!parts.is_empty(), "a row has at least one part");
        assert!(parts.len() <= MAX_PARTS, "row part overflow");
        Row { parts }
    }

    /// All parts, in pipeline order.
    #[inline]
    pub fn parts(&self) -> &'r [&'a TupleRef] {
        self.parts
    }

    /// Number of parts.
    #[inline]
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Always false: a row has at least one part.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// The part for relation `r`, if present.
    #[inline]
    pub fn part(&self, r: RelId) -> Option<&'a TupleRef> {
        self.parts.iter().copied().find(|t| t.rel == r)
    }

    /// Attribute accessor across parts; `None` if the relation isn't joined
    /// in yet.
    #[inline]
    pub fn get(&self, a: AttrRef) -> Option<&'a Value> {
        self.part(a.rel).map(|t| t.data.get(a.col.0))
    }

    /// Project onto a subset of relations (given in ascending `RelId`
    /// order), preserving part order; `None` if some requested relation is
    /// absent. Used to restrict a pipeline tuple to a cached segment's
    /// relations (§3.2 maintenance and `create`). Copies nothing.
    pub fn restrict<'s>(&self, rels: &'s [RelId]) -> Option<Projection<'r, 'a, 's>> {
        debug_assert!(rels.windows(2).all(|w| w[0] < w[1]), "rels must be sorted");
        let p = Projection {
            parts: self.parts,
            rels,
        };
        (p.parts().count() == rels.len()).then_some(p)
    }

    /// An owned composite over the same parts (one reference-count
    /// increment per part).
    pub fn to_composite(&self) -> Composite {
        composite_of(self.parts.iter().copied())
    }
}

impl fmt::Debug for Row<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.parts).finish()
    }
}

/// A [`Row`] restricted to a sorted set of relations ([`Row::restrict`]):
/// the row's parts of those relations, in the row's part order.
#[derive(Clone, Copy)]
pub struct Projection<'r, 'a, 's> {
    parts: &'r [&'a TupleRef],
    rels: &'s [RelId],
}

impl<'r, 'a> Projection<'r, 'a, '_> {
    /// The kept parts, in the row's part order.
    #[inline]
    pub fn parts(&self) -> impl Iterator<Item = &'a TupleRef> + Clone + '_ {
        self.parts
            .iter()
            .copied()
            .filter(|t| self.rels.binary_search(&t.rel).is_ok())
    }

    /// Attribute accessor; `None` if the projection does not keep the
    /// attribute's relation.
    #[inline]
    pub fn get(&self, a: AttrRef) -> Option<&'a Value> {
        self.rels.binary_search(&a.rel).ok()?;
        let t = self.parts.iter().find(|t| t.rel == a.rel)?;
        Some(t.data.get(a.col.0))
    }

    /// An owned composite over the kept parts, in part order.
    pub fn to_composite(&self) -> Composite {
        composite_of(self.parts())
    }
}

fn composite_of<'a>(parts: impl Iterator<Item = &'a TupleRef>) -> Composite {
    let mut c = Composite::empty();
    for t in parts {
        c.push(t.clone());
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{make_ref, TupleData};

    fn t(rel: u16, id: u64, vals: &[i64]) -> TupleRef {
        make_ref(RelId(rel), id, TupleData::ints(vals))
    }

    fn row<'f, 'a>(f: &'f Frontier<'a>, i: usize) -> Row<'f, 'a> {
        f.rows().nth(i).expect("row in range")
    }

    /// One tuple per relation `0..n`, relation `r` holding id `100 + r`.
    fn tuples(n: usize) -> Vec<TupleRef> {
        (0..n as u16)
            .map(|r| t(r, 100 + r as u64, &[r as i64]))
            .collect()
    }

    #[test]
    fn rows_borrow_without_refcount_traffic() {
        let (a, b) = (t(0, 1, &[42]), t(1, 2, &[42, 7]));
        let mut unit = Frontier::new(1);
        unit.push_row([&a]);
        let mut f = Frontier::new(2);
        f.push_extended(row(&unit, 0), &b);
        let r = row(&f, 0);
        assert_eq!(std::sync::Arc::strong_count(&a), 1);
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(AttrRef::new(1, 1)), Some(&Value::Int(7)));
        assert_eq!(r.get(AttrRef::new(2, 0)), None);
        let c = r.to_composite();
        assert_eq!(std::sync::Arc::strong_count(&a), 2);
        assert_eq!(c.len(), 2);
        assert!(c.same_tuples(r.parts().iter().copied()));
    }

    #[test]
    fn push_and_read_back_at_every_width() {
        let all = tuples(MAX_PARTS);
        for width in 1..=MAX_PARTS {
            let parts = &all[..width];
            let mut f = Frontier::new(width);
            assert!(f.is_empty());
            // Row 0 pushed whole; row 1 extended from a one-narrower row,
            // reversed so the two rows differ.
            f.push_row(parts);
            let rev: Vec<&TupleRef> = parts.iter().rev().collect();
            if width > 1 {
                f.push_extended(Row::new(&rev[..width - 1]), rev[width - 1]);
            } else {
                f.push_row(rev.iter().copied());
            }
            assert_eq!((f.width(), f.len()), (width, 2));
            let rows: Vec<Row<'_, '_>> = f.rows().collect();
            assert_eq!(rows.len(), 2);
            let ids = |r: Row<'_, '_>| r.parts().iter().map(|p| p.id).collect::<Vec<_>>();
            let want: Vec<u64> = parts.iter().map(|p| p.id).collect();
            assert_eq!(ids(rows[0]), want);
            assert_eq!(ids(rows[1]), want.iter().rev().copied().collect::<Vec<_>>());
            for r in 0..width as u16 {
                assert_eq!(rows[0].part(RelId(r)).map(|p| p.id), Some(100 + r as u64));
                assert_eq!(rows[1].get(AttrRef::new(r, 0)), Some(&Value::Int(r as i64)));
            }
            assert!(rows[0].part(RelId(width as u16)).is_none());
        }
    }

    #[test]
    fn composites_and_identities_match_part_by_part_builds() {
        let all = tuples(MAX_PARTS);
        for width in 1..=MAX_PARTS {
            let mut c = Composite::empty();
            for p in &all[..width] {
                c.push(p.clone());
            }
            // Through a frontier, reversed: part order is kept, and the
            // stored-tuple identity does not depend on it.
            let rev: Vec<&TupleRef> = all[..width].iter().rev().collect();
            let mut f = Frontier::new(width);
            f.push_row(c.parts());
            f.push_row(rev.iter().copied());
            assert_eq!(row(&f, 0).to_composite(), c);
            assert!(c.same_tuples(row(&f, 0).parts().iter().copied()));
            let mut rc = Composite::empty();
            for p in &rev {
                rc.push((*p).clone());
            }
            assert_eq!(row(&f, 1).to_composite(), rc);
            assert!(c.same_tuples(row(&f, 1).parts().iter().copied()));
            assert_eq!(rc.identity(), c.identity());
        }
    }

    #[test]
    fn set_row_patches_exactly_one_row() {
        let all = tuples(9);
        let mut f = Frontier::new(3);
        for k in 0..3 {
            f.push_row(&all[3 * k..3 * k + 3]);
        }
        f.set_row(1, [&all[8], &all[7], &all[6]]);
        let ids: Vec<Vec<u64>> = f
            .rows()
            .map(|r| r.parts().iter().map(|p| p.id).collect())
            .collect();
        assert_eq!(
            ids,
            [
                vec![100, 101, 102],
                vec![108, 107, 106],
                vec![106, 107, 108]
            ]
        );
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn set_row_rejects_a_short_row() {
        let all = tuples(2);
        let mut f = Frontier::new(2);
        f.push_row(&all);
        f.set_row(0, [&all[0]]);
    }

    #[test]
    fn recycled_frontiers_keep_their_buffer() {
        let all = tuples(2);
        let mut f: Frontier<'_> = Frontier::new(2);
        f.push_row(&all);
        let cap = f.parts.capacity();
        let g: Frontier<'static> = f.recycle();
        assert!(g.is_empty());
        assert_eq!(g.parts.capacity(), cap);
    }

    #[test]
    fn restrict_projects_segment_in_part_order() {
        let (a, b, c) = (t(2, 5, &[99]), t(0, 1, &[1]), t(1, 2, &[1, 99]));
        let parts = [&a, &b, &c];
        let row = Row::new(&parts);
        let seg = row.restrict(&[RelId(1), RelId(2)]).unwrap();
        let ids: Vec<u64> = seg.parts().map(|p| p.id).collect();
        assert_eq!(ids, [5, 2], "part order, not relation order");
        assert_eq!(seg.get(AttrRef::new(1, 1)), Some(&Value::Int(99)));
        assert_eq!(seg.get(AttrRef::new(0, 0)), None, "dropped relation");
        let owned = seg.to_composite();
        let ids: Vec<u64> = owned.parts().map(|p| p.id).collect();
        assert_eq!(ids, [5, 2]);
        assert!(owned.same_tuples(seg.parts()));
        assert!(row.restrict(&[RelId(3)]).is_none(), "absent relation");
        assert!(row.restrict(&[RelId(0), RelId(3)]).is_none(), "one absent");
        assert!(row
            .restrict(&[])
            .is_some_and(|p| p.parts().next().is_none()));
    }

    #[test]
    #[should_panic(expected = "row part overflow")]
    fn push_past_max_parts_panics() {
        let all = tuples(MAX_PARTS);
        let mut f = Frontier::new(MAX_PARTS);
        f.push_row(&all);
        // A full-width row extends only into a wider frontier, which
        // cannot exist.
        let mut wider = Frontier::new(MAX_PARTS + 1);
        wider.push_extended(row(&f, 0), &all[0]);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn push_of_the_wrong_width_panics() {
        let all = tuples(MAX_PARTS);
        let mut f = Frontier::new(MAX_PARTS);
        f.push_row(&all);
        let mut g = Frontier::new(MAX_PARTS);
        g.push_extended(row(&f, 0), &all[0]);
    }
}
