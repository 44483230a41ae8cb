//! Borrowed rows: the intermediate tuples of a running pipeline.
//!
//! A pipeline extends its input one operator at a time (`r · r_j`, §3.1),
//! and most intermediate tuples die before they reach a sink: a probe with
//! a hundred matches feeds a second probe that keeps one of them. A
//! [`Row`] holds such an intermediate tuple as borrowed `&TupleRef`s into
//! the stores that own the parts, so extending, copying and dropping it
//! touch no reference counts. Owned [`Composite`]s are built only where a
//! tuple must outlive the pipeline walk (result deltas, cache values).

use crate::schema::{AttrRef, RelId};
use crate::tuple::{Composite, CompositeId, TupleRef, MAX_PARTS};
use crate::value::Value;
use std::fmt;

/// A concatenated pipeline tuple whose parts are borrowed.
///
/// Rows are `Copy` and fixed-size: every join up to [`MAX_PARTS`] relations
/// (Fig. 9's 9-way star included) fits without heap allocation, in 128
/// bytes. Slots past `len` repeat part 0, which keeps the array fully
/// initialized without `Option` tests or `unsafe`; they are never read as
/// parts.
#[derive(Clone, Copy)]
pub struct Row<'a> {
    len: u8,
    parts: [&'a TupleRef; MAX_PARTS],
}

// Copies of at most 128 bytes are emitted inline; the frontier copies a
// row per probe match.
const _: () = assert!(std::mem::size_of::<Row<'static>>() == 128);

impl<'a> Row<'a> {
    /// A row with a single part (the update tuple entering a pipeline).
    #[inline]
    pub fn unit(t: &'a TupleRef) -> Row<'a> {
        Row {
            len: 1,
            parts: [t; MAX_PARTS],
        }
    }

    /// A row borrowing the parts of `c`, in part order.
    ///
    /// # Panics
    /// If `c` has no parts.
    pub fn of(c: &'a Composite) -> Row<'a> {
        let mut parts = c.parts();
        let mut row = Row::unit(parts.next().expect("a row has at least one part"));
        for t in parts {
            row.push(t);
        }
        row
    }

    /// Append one part in place.
    ///
    /// # Panics
    /// If the row already holds [`MAX_PARTS`] parts.
    #[inline]
    pub fn push(&mut self, t: &'a TupleRef) {
        let len = self.len as usize;
        assert!(len < MAX_PARTS, "row part overflow");
        self.parts[len] = t;
        self.len += 1;
    }

    /// Concatenation `self · t` (paper notation `r · r_j`).
    #[inline]
    pub fn extend(&self, t: &'a TupleRef) -> Row<'a> {
        let mut r = *self;
        r.push(t);
        r
    }

    /// All parts, in pipeline order.
    #[inline]
    pub fn parts(&self) -> &[&'a TupleRef] {
        &self.parts[..self.len as usize]
    }

    /// Number of parts.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if there are no parts (only a [`Row::restrict`] to no
    /// relations is empty).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The part for relation `r`, if present.
    #[inline]
    pub fn part(&self, r: RelId) -> Option<&'a TupleRef> {
        self.parts().iter().copied().find(|t| t.rel == r)
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
    /// relations (§3.2 maintenance and `create`).
    pub fn restrict(&self, rels: &[RelId]) -> Option<Row<'a>> {
        debug_assert!(rels.windows(2).all(|w| w[0] < w[1]), "rels must be sorted");
        let mut r = Row {
            len: 0,
            parts: self.parts,
        };
        for &t in self.parts() {
            if rels.binary_search(&t.rel).is_ok() {
                r.push(t);
            }
        }
        (r.len() == rels.len()).then_some(r)
    }

    /// An owned composite over the same parts (one reference-count
    /// increment per part).
    pub fn to_composite(&self) -> Composite {
        let mut c = Composite::empty();
        for &t in self.parts() {
            c.push(t.clone());
        }
        c
    }

    /// Canonical identity; equal to the identity of
    /// [`Row::to_composite`]'s result.
    pub fn identity(&self) -> CompositeId {
        CompositeId::of_parts(self.parts().iter().copied())
    }
}

impl fmt::Debug for Row<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.parts()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{make_ref, TupleData};

    fn t(rel: u16, id: u64, vals: &[i64]) -> TupleRef {
        make_ref(RelId(rel), id, TupleData::ints(vals))
    }

    #[test]
    fn rows_borrow_without_refcount_traffic() {
        let (a, b) = (t(0, 1, &[42]), t(1, 2, &[42, 7]));
        let r = Row::unit(&a).extend(&b);
        assert_eq!(std::sync::Arc::strong_count(&a), 1);
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(AttrRef::new(1, 1)), Some(&Value::Int(7)));
        assert_eq!(r.get(AttrRef::new(2, 0)), None);
        let c = r.to_composite();
        assert_eq!(std::sync::Arc::strong_count(&a), 2);
        assert_eq!(c.len(), 2);
        assert_eq!(r.identity(), c.identity());
    }

    #[test]
    fn round_trips_through_composites() {
        // Wider than the composite's inline capacity, as wide as a row goes.
        let parts: Vec<TupleRef> = (0..MAX_PARTS as u16)
            .map(|r| t(r, 100 + r as u64, &[r as i64]))
            .collect();
        let mut c = Composite::empty();
        for p in &parts {
            c.push(p.clone());
        }
        let r = Row::of(&c);
        assert_eq!(r.len(), MAX_PARTS);
        assert_eq!(r.to_composite(), c);
        assert_eq!(r.identity(), c.identity());
        assert_eq!(r.part(RelId(11)).unwrap().id, 111);
    }

    #[test]
    fn restrict_projects_segment_in_part_order() {
        let (a, b, c) = (t(2, 5, &[99]), t(0, 1, &[1]), t(1, 2, &[1, 99]));
        let row = Row::unit(&a).extend(&b).extend(&c);
        let seg = row.restrict(&[RelId(1), RelId(2)]).unwrap();
        let ids: Vec<u64> = seg.parts().iter().map(|p| p.id).collect();
        assert_eq!(ids, [5, 2], "part order, not relation order");
        assert!(seg.part(RelId(0)).is_none());
        assert!(row.restrict(&[RelId(3)]).is_none(), "absent relation");
        assert!(row.restrict(&[]).is_some_and(|r| r.is_empty()));
    }

    #[test]
    #[should_panic(expected = "row part overflow")]
    fn overflow_panics() {
        let a = t(0, 1, &[1]);
        let mut r = Row::unit(&a);
        for _ in 0..MAX_PARTS {
            r.push(&a);
        }
    }
}
