//! Tuples, stored tuples, and composite (concatenated) pipeline tuples.
//!
//! §3.3 of the paper: *"cached values are sets of references to tuples in
//! relations, so actual tuples are never copied into the caches."* We realize
//! that with reference-counted [`StoredTuple`]s: a relation store hands out
//! [`TupleRef`]s (`Arc<StoredTuple>`), and everything downstream — result
//! deltas, cache entries, materialized XJoin subresults — holds references,
//! never copies.
//!
//! A [`Composite`] is an owned concatenation `r · r_1 · r_2 · …` (§3.1): one
//! part per relation joined. While a pipeline runs, its intermediate tuples
//! are borrowed [`Row`](crate::Row)s of a [`Frontier`](crate::Frontier)
//! instead; composites are built where a tuple outlives the walk.

use crate::schema::{AttrRef, RelId};
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Unique id of a stored tuple within its relation store (never reused).
pub type TupleId = u64;

/// Raw column values of one tuple.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleData(pub Box<[Value]>);

impl TupleData {
    /// Build from a vector of values.
    pub fn new(values: Vec<Value>) -> TupleData {
        TupleData(values.into_boxed_slice())
    }

    /// Build a tuple of integer values (the common case in experiments).
    pub fn ints(values: &[i64]) -> TupleData {
        TupleData(values.iter().map(|&i| Value::Int(i)).collect())
    }

    /// Column accessor.
    #[inline]
    pub fn get(&self, col: u16) -> &Value {
        &self.0[col as usize]
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Approximate memory footprint in bytes (§5 memory accounting).
    pub fn memory_bytes(&self) -> usize {
        16 + self.0.iter().map(Value::memory_bytes).sum::<usize>()
    }
}

impl fmt::Display for TupleData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "⟩")
    }
}

/// A tuple as stored in a relation: identity + data.
///
/// Identity (`rel`, `id`) makes delete maintenance exact under multiset
/// semantics: two stored tuples with equal data are still distinct entities,
/// and cache entries / materialized subresults remove exactly the instance
/// that was deleted.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StoredTuple {
    /// Relation this tuple belongs to.
    pub rel: RelId,
    /// Store-assigned unique id.
    pub id: TupleId,
    /// The column values.
    pub data: TupleData,
}

/// Shared reference to a stored tuple.
pub type TupleRef = Arc<StoredTuple>;

/// Maximum number of parts (relations) a join tuple can hold — the widest
/// [`Frontier`](crate::Frontier) row and the size of [`CompositeId`]'s
/// fixed inline buffer. Every experiment in the paper (and every realistic
/// stream join) has `n ≤ 15`; Fig. 9's widest star joins 9 relations.
pub const MAX_PARTS: usize = 15;

/// Inline part capacity of a [`Composite`]. Joins wider than this spill the
/// tail parts to a heap vector; at 7 the only workloads that ever spill are
/// the widest stars of the fig09 join-count sweep, and the composite struct
/// is exactly 72 bytes (len byte + 7 part slots + spill pointer) so the
/// constant moves/clones/drops the pipeline does per update stay cheap.
/// Benchmarked: chain3 steady-state throughput regressed ~20% with a
/// 16-slot inline array purely from the extra memcpy and drop-glue traffic.
const INLINE_PARTS: usize = 7;

/// A concatenated pipeline tuple: one [`TupleRef`] per relation joined so far.
///
/// Parts live in a fixed inline array (capacity `INLINE_PARTS`) rather
/// than a heap `Vec`: every result delta and cached value is one, and the
/// inline layout makes [`Composite::unit`] / [`Composite::extend_with`]
/// allocation-free for every join the repo runs. Wider joins (up to
/// [`MAX_PARTS`]) transparently spill parts `8..` to a boxed vector. Lookup
/// by relation is a linear scan — `n ≤ 15`, so this beats any map.
///
/// The inline slots are `MaybeUninit` with only the first
/// `min(len, INLINE_PARTS)` initialized: clone and drop touch exactly the
/// occupied slots instead of copying, zero-initializing, or branch-testing
/// all `INLINE_PARTS` every time.
pub struct Composite {
    /// Total part count (inline + spill).
    len: u8,
    /// Inline slots; the first `min(len, INLINE_PARTS)` are initialized.
    parts: [std::mem::MaybeUninit<TupleRef>; INLINE_PARTS],
    /// Parts `INLINE_PARTS..`, in pipeline order — `None` until a join
    /// exceeds the inline capacity (no repo workload does; boxed so the
    /// never-spilling hot path pays one null word, not an empty `Vec` —
    /// that is the point of the indirection the lint objects to).
    #[allow(clippy::box_collection)]
    spill: Option<Box<Vec<TupleRef>>>,
}

// The whole point of the inline layout: one cache line plus a word.
const _: () = assert!(std::mem::size_of::<Composite>() == 72);

impl Clone for Composite {
    fn clone(&self) -> Composite {
        let mut parts = [const { std::mem::MaybeUninit::uninit() }; INLINE_PARTS];
        for (slot, t) in parts.iter_mut().zip(self.inline_parts()) {
            slot.write(t.clone());
        }
        Composite {
            len: self.len,
            parts,
            spill: self.spill.clone(),
        }
    }
}

impl Drop for Composite {
    fn drop(&mut self) {
        let n = (self.len as usize).min(INLINE_PARTS);
        // SAFETY: the first `n` inline slots are initialized (struct
        // invariant) and are never read again — the composite is mid-drop.
        // `spill` is dropped by the normal field drop glue afterwards.
        unsafe {
            std::ptr::drop_in_place(std::ptr::slice_from_raw_parts_mut(
                self.parts.as_mut_ptr().cast::<TupleRef>(),
                n,
            ));
        }
    }
}

impl fmt::Debug for Composite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.parts()).finish()
    }
}

impl Composite {
    /// A composite with a single part (the update tuple entering a pipeline).
    pub fn unit(t: TupleRef) -> Composite {
        let mut c = Composite::empty();
        c.parts[0].write(t);
        c.len = 1;
        c
    }

    /// Empty composite (used to seed segment-restricted projections).
    pub fn empty() -> Composite {
        Composite {
            len: 0,
            parts: [const { std::mem::MaybeUninit::uninit() }; INLINE_PARTS],
            spill: None,
        }
    }

    /// The initialized inline slots, as a plain slice.
    #[inline]
    fn inline_parts(&self) -> &[TupleRef] {
        let n = (self.len as usize).min(INLINE_PARTS);
        // SAFETY: the first `n` inline slots are initialized (struct
        // invariant); `MaybeUninit<TupleRef>` has `TupleRef`'s layout.
        unsafe { std::slice::from_raw_parts(self.parts.as_ptr().cast::<TupleRef>(), n) }
    }

    /// Concatenation `self · t` (paper notation `r · r_j`): a new composite
    /// sharing all existing parts. Allocation-free — only the part
    /// refcounts are touched.
    pub fn extend_with(&self, t: TupleRef) -> Composite {
        let mut c = self.clone();
        c.push(t);
        c
    }

    /// Append one part in place.
    #[inline]
    pub fn push(&mut self, t: TupleRef) {
        let len = self.len as usize;
        if len < INLINE_PARTS {
            // The slot is uninitialized (it is the first one past the
            // occupied prefix), so `write` correctly skips dropping it.
            self.parts[len].write(t);
        } else {
            assert!(len < MAX_PARTS, "composite part overflow");
            self.spill.get_or_insert_default().push(t);
        }
        self.len += 1;
    }

    /// Visit every part in pipeline order. Internal iteration keeps the
    /// spill branch outside the loop — the `impl Iterator` chain in
    /// [`Composite::parts`] costs measurably more in hot loops (cache-hit
    /// splices, hashing).
    #[inline]
    fn for_each_part(&self, mut f: impl FnMut(&TupleRef)) {
        for p in self.inline_parts() {
            f(p);
        }
        if let Some(v) = &self.spill {
            for t in v.iter() {
                f(t);
            }
        }
    }

    /// Concatenate two composites (used when a cache hit splices a cached
    /// segment result `s` onto the probing prefix `r`: `r · s`, §3.2).
    pub fn concat(&self, other: &Composite) -> Composite {
        let mut c = self.clone();
        other.for_each_part(|t| c.push(t.clone()));
        c
    }

    /// [`concat`](Self::concat) consuming `self`: splices `other`'s parts
    /// onto the owned prefix without cloning it (no refcount traffic for the
    /// prefix parts).
    pub fn concat_owned(mut self, other: &Composite) -> Composite {
        other.for_each_part(|t| self.push(t.clone()));
        self
    }

    /// The part for relation `r`, if present.
    #[inline]
    pub fn part(&self, r: RelId) -> Option<&TupleRef> {
        // Scan the inline slots directly (the common, fully-inline case);
        // fall through to the spill only when the composite is that wide.
        for t in self.inline_parts() {
            if t.rel == r {
                return Some(t);
            }
        }
        match &self.spill {
            Some(v) => v.iter().find(|t| t.rel == r),
            None => None,
        }
    }

    /// Attribute accessor across parts; `None` if the relation isn't joined in
    /// yet.
    #[inline]
    pub fn get(&self, a: AttrRef) -> Option<&Value> {
        self.part(a.rel).map(|t| t.data.get(a.col.0))
    }

    /// All parts, in pipeline order.
    #[inline]
    pub fn parts(&self) -> impl Iterator<Item = &TupleRef> + Clone + '_ {
        self.inline_parts()
            .iter()
            .chain(self.spill.iter().flat_map(|v| v.iter()))
    }

    /// Number of parts.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if there are no parts.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Relations present in this composite.
    pub fn rels(&self) -> impl Iterator<Item = RelId> + '_ {
        self.parts().map(|t| t.rel)
    }

    /// Canonical identity of this composite: sorted, packed `(rel, id)`
    /// pairs in a fixed inline buffer. Two composites over the same stored
    /// tuples are the same join result regardless of pipeline order — this
    /// is the equality of cache values (tested in place by
    /// [`Composite::same_tuples`]) and the key of XJoin row stores.
    /// Allocation-free and `Copy`.
    pub fn identity(&self) -> CompositeId {
        match &self.spill {
            None => CompositeId::of_parts(self.inline_parts()),
            Some(v) => CompositeId::of_parts(self.inline_parts().iter().chain(v.iter())),
        }
    }

    /// True if `parts`, given in any order, are exactly this composite's
    /// stored tuples: the equality [`Composite::identity`] decides, without
    /// building or sorting an identity. Parts match by `(relation, tuple
    /// id)`; a composite holds at most one part per relation.
    pub fn same_tuples<'p>(&self, parts: impl IntoIterator<Item = &'p TupleRef>) -> bool {
        let mut n = 0;
        for t in parts {
            if !matches!(self.part(t.rel), Some(p) if p.id == t.id) {
                return false;
            }
            n += 1;
        }
        n == self.len()
    }

    /// Approximate memory footprint of the *references* (not the tuples —
    /// those are owned by the relation stores). Charged as if the parts
    /// were a heap vector of refs — the §5 cost model prices cached
    /// *reference sets*, which the inline capacity merely pre-reserves.
    pub fn ref_memory_bytes(&self) -> usize {
        24 + self.len() * std::mem::size_of::<TupleRef>()
    }
}

impl PartialEq for Composite {
    fn eq(&self, other: &Composite) -> bool {
        self.len == other.len && self.parts().eq(other.parts())
    }
}

impl Eq for Composite {}

impl std::hash::Hash for Composite {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u8(self.len);
        self.for_each_part(|t| t.hash(state));
    }
}

impl fmt::Display for Composite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, t) in self.parts().enumerate() {
            if i > 0 {
                write!(f, " · ")?;
            }
            write!(f, "R{}{}", t.rel.0, t.data)?;
        }
        write!(f, "]")
    }
}

/// Canonical identity of a [`Composite`]: its sorted `(rel, id)` pairs,
/// packed one-per-`u64` (relation in the high 16 bits, tuple id in the low
/// 48) in a fixed inline buffer. `Copy`, allocation-free, and ordered —
/// the map key for XJoin row stores and the set element of the engine's
/// brute-force cache consistency check.
#[derive(Debug, Clone, Copy)]
pub struct CompositeId {
    len: u8,
    packed: [u64; MAX_PARTS],
}

impl CompositeId {
    /// Bits of a `u64` reserved for the tuple id (low bits).
    const ID_BITS: u32 = 48;

    #[inline]
    fn pack(rel: RelId, id: TupleId) -> u64 {
        debug_assert!(id < 1 << Self::ID_BITS, "tuple id exceeds 48 bits");
        ((rel.0 as u64) << Self::ID_BITS) | id
    }

    /// Identity of the stored tuples `parts`, given in any order.
    ///
    /// # Panics
    /// If there are more than [`MAX_PARTS`] parts.
    pub fn of_parts<'p>(parts: impl IntoIterator<Item = &'p TupleRef>) -> CompositeId {
        let mut id = CompositeId {
            len: 0,
            packed: [0; MAX_PARTS],
        };
        for t in parts {
            id.packed[id.len as usize] = Self::pack(t.rel, t.id);
            id.len += 1;
        }
        id.packed[..id.len as usize].sort_unstable();
        id
    }

    /// Number of `(rel, id)` pairs.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if there are no pairs.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th pair in canonical (sorted) order.
    pub fn pair(&self, i: usize) -> (RelId, TupleId) {
        let p = self.packed[..self.len as usize][i];
        (RelId((p >> Self::ID_BITS) as u16), p & ((1 << Self::ID_BITS) - 1))
    }

    /// All pairs in canonical order.
    pub fn pairs(&self) -> impl Iterator<Item = (RelId, TupleId)> + '_ {
        (0..self.len()).map(|i| self.pair(i))
    }
}

impl PartialEq for CompositeId {
    fn eq(&self, other: &CompositeId) -> bool {
        self.packed[..self.len as usize] == other.packed[..other.len as usize]
    }
}

impl Eq for CompositeId {}

impl std::hash::Hash for CompositeId {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // No length prefix needed: the packed entries themselves determine
        // the boundary (equal prefixes of different lengths are unequal
        // slices and hash as such via the slice impl).
        self.packed[..self.len as usize].hash(state);
    }
}

impl PartialOrd for CompositeId {
    fn partial_cmp(&self, other: &CompositeId) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CompositeId {
    fn cmp(&self, other: &CompositeId) -> std::cmp::Ordering {
        self.packed[..self.len as usize].cmp(&other.packed[..other.len as usize])
    }
}

impl fmt::Display for CompositeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (rel, id)) in self.pairs().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "R{}#{}", rel.0, id)?;
        }
        write!(f, "}}")
    }
}

/// Build a [`TupleRef`] directly (handy in tests and generators; relation
/// stores normally mint these).
pub fn make_ref(rel: RelId, id: TupleId, data: TupleData) -> TupleRef {
    Arc::new(StoredTuple { rel, id, data })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rel: u16, id: u64, vals: &[i64]) -> TupleRef {
        make_ref(RelId(rel), id, TupleData::ints(vals))
    }

    #[test]
    fn tuple_data_accessors() {
        let d = TupleData::ints(&[1, 2, 3]);
        assert_eq!(d.arity(), 3);
        assert_eq!(d.get(1), &Value::Int(2));
        assert_eq!(format!("{d}"), "⟨1, 2, 3⟩");
        assert_eq!(d.memory_bytes(), 16 + 3 * 16);
    }

    #[test]
    fn composite_extension_and_access() {
        let c = Composite::unit(t(0, 1, &[10]));
        let c2 = c.extend_with(t(1, 7, &[10, 20]));
        assert_eq!(c.len(), 1, "extend_with must not mutate the original");
        assert_eq!(c2.len(), 2);
        assert_eq!(c2.get(AttrRef::new(1, 1)), Some(&Value::Int(20)));
        assert_eq!(c2.get(AttrRef::new(2, 0)), None);
        let rels: Vec<RelId> = c2.rels().collect();
        assert_eq!(rels, vec![RelId(0), RelId(1)]);
    }

    #[test]
    fn concat_splices_cached_segment() {
        let prefix = Composite::unit(t(2, 5, &[99]));
        let cached = Composite::unit(t(0, 1, &[1])).extend_with(t(1, 2, &[1, 99]));
        let full = prefix.concat(&cached);
        assert_eq!(full.len(), 3);
        assert_eq!(full.get(AttrRef::new(0, 0)), Some(&Value::Int(1)));
        assert_eq!(full.get(AttrRef::new(2, 0)), Some(&Value::Int(99)));
    }

    #[test]
    fn wide_composites_spill_past_inline_capacity() {
        // Joins wider than INLINE_PARTS (e.g. fig09's 9-way star) spill the
        // tail parts to the heap; every accessor must see both halves.
        let mut c = Composite::empty();
        for r in 0..12u16 {
            c.push(t(r, r as u64 + 100, &[r as i64]));
        }
        assert_eq!(c.len(), 12);
        assert_eq!(c.part(RelId(11)).unwrap().id, 111);
        assert_eq!(c.get(AttrRef::new(9, 0)), Some(&Value::Int(9)));
        assert_eq!(c.parts().count(), 12);
        let cloned = c.clone();
        assert_eq!(cloned, c);
        assert_eq!(cloned.identity(), c.identity());
        assert_eq!(c.identity().pair(11), (RelId(11), 111));
    }

    #[test]
    fn identity_is_order_independent() {
        let a = t(0, 1, &[1]);
        let b = t(1, 2, &[1, 99]);
        let c1 = Composite::unit(a.clone()).extend_with(b.clone());
        let c2 = Composite::unit(b).extend_with(a);
        assert_eq!(c1.identity(), c2.identity());
    }

    #[test]
    fn identity_distinguishes_equal_data_different_instance() {
        // Multiset semantics: same values, different stored instance.
        let c1 = Composite::unit(t(0, 1, &[5]));
        let c2 = Composite::unit(t(0, 2, &[5]));
        assert_ne!(c1.identity(), c2.identity());
    }

    #[test]
    fn same_tuples_is_identity_equality() {
        let (a, b, c) = (t(0, 1, &[1]), t(1, 2, &[1, 99]), t(2, 3, &[99]));
        let ab = Composite::unit(a.clone()).extend_with(b.clone());
        assert!(ab.same_tuples([&b, &a]), "any part order");
        assert!(!ab.same_tuples([&a]), "a strict subset");
        assert!(!ab.same_tuples([&a, &b, &c]), "a strict superset");
        assert!(
            !ab.same_tuples([&a, &t(1, 9, &[1, 99])]),
            "another instance"
        );
        let mut wide = Composite::empty();
        for r in 0..12u16 {
            wide.push(t(r, r as u64 + 100, &[r as i64]));
        }
        let mut rev: Vec<TupleRef> = wide.parts().cloned().collect();
        rev.reverse();
        assert!(wide.same_tuples(&rev), "spilled parts count too");
        assert!(!wide.same_tuples(&rev[1..]));
    }

    #[test]
    fn refs_are_shared_not_copied() {
        let base = t(0, 1, &[42]);
        let c = Composite::unit(base.clone());
        let c2 = c.extend_with(t(1, 2, &[42, 1]));
        // Strong count: base + c + c2 = 3.
        assert_eq!(Arc::strong_count(&base), 3);
        drop(c2);
        assert_eq!(Arc::strong_count(&base), 2);
    }

    #[test]
    fn display_formats() {
        let c = Composite::unit(t(0, 1, &[7]));
        assert_eq!(format!("{c}"), "[R0⟨7⟩]");
    }
}
