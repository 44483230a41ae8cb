//! Relation store with hash indexes.

use crate::slab::SlabStore;
use acq_sketch::FxHashMap;
use acq_stream::{ColId, RelId, StoredTuple, TupleData, TupleId, TupleRef, Value};
use std::collections::VecDeque;
use std::sync::Arc;

/// Dead [`TupleRef`]s kept for recycling (see [`Relation::insert`]). The pool
/// is a FIFO: deletes enqueue at the back, inserts pop the *oldest* entry —
/// the one whose outstanding references (delta batches held by a downstream
/// consumer, in-flight composites, cache values) have had the longest time to
/// be dropped. The cap bounds retained allocations while still riding out a
/// consumer that drains its output every few thousand updates.
const REF_POOL_CAP: usize = 8192;

/// Recycling attempts per insert. A popped ref that is still shared is put
/// back at the *back* of the queue (it will be free eventually — dropping it
/// now would defeat the pool exactly when a batching consumer makes refs
/// long-lived); bounding the tries keeps degenerate pools from turning an
/// insert into an O(n) scan.
const REF_POOL_TRIES: usize = 4;

/// A posting list of tuple ids that stays inline (no heap) up to 6 entries.
///
/// Postings are per *key value* within one window, so they are almost always
/// tiny (join-attribute multiplicity); the spill path exists for skewed
/// workloads, not the steady state. Once spilled, a list stays on the heap
/// while its key has postings, but [`HashIndex`] drops the list when its
/// last id is removed: a key that drains and recurs starts inline again and
/// allocates again if it spills again.
#[derive(Debug, Clone)]
pub enum IdList {
    /// Up to 6 ids stored inline.
    Inline {
        /// Occupied prefix length of `ids`.
        len: u8,
        /// Inline storage.
        ids: [TupleId; 6],
    },
    /// Heap storage for longer lists.
    Spilled(Vec<TupleId>),
}

impl Default for IdList {
    fn default() -> IdList {
        IdList::Inline {
            len: 0,
            ids: [0; 6],
        }
    }
}

impl IdList {
    /// The ids as a slice (unordered after removals).
    #[inline]
    pub fn as_slice(&self) -> &[TupleId] {
        match self {
            IdList::Inline { len, ids } => &ids[..*len as usize],
            IdList::Spilled(v) => v,
        }
    }

    fn push(&mut self, id: TupleId) {
        match self {
            IdList::Inline { len, ids } => {
                if (*len as usize) < ids.len() {
                    ids[*len as usize] = id;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(ids.len() * 2);
                    v.extend_from_slice(ids);
                    v.push(id);
                    *self = IdList::Spilled(v);
                }
            }
            IdList::Spilled(v) => v.push(id),
        }
    }

    /// Remove one occurrence of `id` (order not preserved). Returns whether
    /// it was present.
    fn swap_remove_id(&mut self, id: TupleId) -> bool {
        match self {
            IdList::Inline { len, ids } => {
                let Some(pos) = ids[..*len as usize].iter().position(|&x| x == id) else {
                    return false;
                };
                *len -= 1;
                ids[pos] = ids[*len as usize];
                true
            }
            IdList::Spilled(v) => {
                let Some(pos) = v.iter().position(|&x| x == id) else {
                    return false;
                };
                v.swap_remove(pos);
                true
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

/// A hash index on one column: `value → tuple ids`.
///
/// Deletions swap-remove within the posting, so postings are unordered —
/// fine, because equijoin semantics are set/multiset based.
#[derive(Debug, Default)]
pub struct HashIndex {
    map: FxHashMap<Value, IdList>,
    entries: usize,
}

impl HashIndex {
    fn insert(&mut self, v: &Value, id: TupleId) {
        // get_mut-then-insert: the key is cloned only when genuinely new
        // (and `Value` clones are allocation-free for ints anyway).
        match self.map.get_mut(v) {
            Some(list) => list.push(id),
            None => {
                let mut list = IdList::default();
                list.push(id);
                self.map.insert(v.clone(), list);
            }
        }
        self.entries += 1;
    }

    fn remove(&mut self, v: &Value, id: TupleId) {
        if let Some(list) = self.map.get_mut(v) {
            if list.swap_remove_id(id) {
                self.entries -= 1;
                if list.is_empty() {
                    self.map.remove(v);
                }
            }
        }
    }

    /// Tuple ids whose indexed column equals `v` (empty slice if none).
    pub fn probe(&self, v: &Value) -> &[TupleId] {
        self.map.get(v).map(IdList::as_slice).unwrap_or(&[])
    }

    /// Number of distinct key values currently indexed.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    /// Total posting entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True if the index holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }
}

/// The window contents of one relation, with optional hash indexes.
///
/// Tuples live in a [`SlabStore`]: ids are minted monotonically and windows
/// expire in near-insertion order, so `TupleId → TupleRef` is arithmetic
/// indexing, not a hash lookup. A delete removes the oldest live instance
/// with equal data, which a window delete finds at the slab's front in O(1).
/// Deleted tuples' `Arc` allocations are pooled and recycled on the next
/// insert, making the steady-state insert/delete cycle allocation-free (see
/// DESIGN.md, "Hot-path memory layout").
#[derive(Debug)]
pub struct Relation {
    rel: RelId,
    arity: usize,
    tuples: SlabStore,
    /// `indexes[col]` is `Some` when a hash index exists on that column.
    indexes: Vec<Option<HashIndex>>,
    next_id: TupleId,
    /// Dead tuple allocations awaiting reuse (FIFO, oldest at the front).
    ref_pool: VecDeque<TupleRef>,
    /// Running byte count of stored tuple data (for §5-style accounting and
    /// experiment reporting).
    data_bytes: usize,
}

impl Relation {
    /// An empty relation with `arity` columns and *no* indexes.
    pub fn new(rel: RelId, arity: usize) -> Relation {
        Relation {
            rel,
            arity,
            tuples: SlabStore::new(),
            indexes: (0..arity).map(|_| None).collect(),
            next_id: 0,
            ref_pool: VecDeque::new(),
            data_bytes: 0,
        }
    }

    /// Relation id.
    pub fn rel(&self) -> RelId {
        self.rel
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples currently stored (window size).
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when the window is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Build (or rebuild) a hash index on `col`, indexing existing tuples.
    pub fn add_index(&mut self, col: ColId) {
        let mut idx = HashIndex::default();
        for t in self.tuples.iter() {
            idx.insert(t.data.get(col.0), t.id);
        }
        self.indexes[col.0 as usize] = Some(idx);
    }

    /// Drop the index on `col` (Figure 10 drops the S.B index to force
    /// nested-loop joins).
    pub fn drop_index(&mut self, col: ColId) {
        self.indexes[col.0 as usize] = None;
    }

    /// True if a hash index exists on `col`.
    pub fn has_index(&self, col: ColId) -> bool {
        self.indexes[col.0 as usize].is_some()
    }

    /// The index on `col`, if any.
    pub fn index(&self, col: ColId) -> Option<&HashIndex> {
        self.indexes[col.0 as usize].as_ref()
    }

    /// Insert a tuple; returns the minted reference.
    ///
    /// The data is borrowed: a fresh `Arc<StoredTuple>` clones it exactly
    /// once, and when the reference pool holds a dead tuple no longer shared
    /// with anyone (`Arc::get_mut` succeeds) even that clone is elided — the
    /// values are copied into the recycled allocation in place.
    ///
    /// # Panics
    /// Panics if the tuple arity doesn't match the relation's.
    pub fn insert(&mut self, data: &TupleData) -> TupleRef {
        assert_eq!(data.arity(), self.arity, "arity mismatch on insert");
        let id = self.next_id;
        self.next_id += 1;
        self.data_bytes += data.memory_bytes();
        let mut recycled = None;
        for _ in 0..REF_POOL_TRIES {
            let Some(mut t) = self.ref_pool.pop_front() else {
                break;
            };
            if let Some(st) = Arc::get_mut(&mut t) {
                st.id = id;
                // Same relation, hence same arity: `clone_from` reuses the
                // existing `Box<[Value]>` allocation.
                st.data.0.clone_from(&data.0);
                recycled = Some(t);
                break;
            }
            // Still shared elsewhere (a cache or in-flight composite keeps it
            // alive past its delete) — requeue at the back and let it age.
            self.ref_pool.push_back(t);
        }
        let t = recycled.unwrap_or_else(|| {
            Arc::new(StoredTuple {
                rel: self.rel,
                id,
                data: data.clone(),
            })
        });
        for (c, slot) in self.indexes.iter_mut().enumerate() {
            if let Some(idx) = slot {
                idx.insert(t.data.get(c as u16), id);
            }
        }
        self.tuples.insert(id, t.clone());
        t
    }

    /// Delete one tuple whose data equals `data` (multiset semantics: exactly
    /// one instance is removed — the oldest, as a sliding window expires it).
    /// Returns the removed reference, or `None` if no instance matches.
    pub fn delete(&mut self, data: &TupleData) -> Option<TupleRef> {
        let id = self.oldest_equal(data)?;
        let t = self.tuples.remove(id).expect("located id is live");
        self.data_bytes -= t.data.memory_bytes();
        for (c, slot) in self.indexes.iter_mut().enumerate() {
            if let Some(idx) = slot {
                idx.remove(t.data.get(c as u16), id);
            }
        }
        if self.ref_pool.len() < REF_POOL_CAP {
            self.ref_pool.push_back(t.clone());
        }
        Some(t)
    }

    /// Id of the oldest live tuple equal to `data`. A window delete expires
    /// the front tuple, answered in O(1); otherwise the smallest matching id
    /// in the first index's posting for `data`, or, with no index, the first
    /// match of a scan in id order.
    fn oldest_equal(&self, data: &TupleData) -> Option<TupleId> {
        let front = self.tuples.first()?;
        if front.data == *data {
            return Some(front.id);
        }
        let Some((c, idx)) = self
            .indexes
            .iter()
            .enumerate()
            .find_map(|(c, idx)| Some((c, idx.as_ref()?)))
        else {
            return self.tuples.iter().find(|t| t.data == *data).map(|t| t.id);
        };
        // `get` rather than indexing: data of the wrong arity matches nothing.
        idx.probe(data.0.get(c)?)
            .iter()
            .copied()
            .filter(|&id| self.tuples.get(id).expect("index/tuples in sync").data == *data)
            .min()
    }

    /// Look up a stored tuple by id — O(1) slab indexing.
    pub fn get(&self, id: TupleId) -> Option<&TupleRef> {
        self.tuples.get(id)
    }

    /// Tuples whose column `col` equals `v`, via the hash index.
    ///
    /// # Panics
    /// Panics if no index exists on `col` — callers must check
    /// [`Relation::has_index`] and fall back to [`Relation::scan`] (that
    /// distinction is exactly the indexed-vs-nested-loop cost difference the
    /// paper's Figure 10 explores).
    pub fn probe<'s>(&'s self, col: ColId, v: &Value) -> impl Iterator<Item = &'s TupleRef> + 's {
        let idx = self.indexes[col.0 as usize]
            .as_ref()
            .expect("probe on unindexed column");
        idx.probe(v)
            .iter()
            .map(move |&id| self.tuples.get(id).expect("index/tuples in sync"))
    }

    /// Number of matches a probe would return, without materializing them.
    pub fn probe_count(&self, col: ColId, v: &Value) -> usize {
        self.indexes[col.0 as usize]
            .as_ref()
            .map(|idx| idx.probe(v).len())
            .unwrap_or(0)
    }

    /// Full scan over the window contents (nested-loop joins, consistency
    /// oracles), in insertion (id) order.
    pub fn scan(&self) -> impl Iterator<Item = &TupleRef> {
        self.tuples.iter()
    }

    /// Bytes of stored tuple data (excludes index overhead).
    pub fn data_bytes(&self) -> usize {
        self.data_bytes
    }

    /// Remove everything (window reset).
    pub fn clear(&mut self) {
        self.tuples.clear();
        self.data_bytes = 0;
        for idx in self.indexes.iter_mut().flatten() {
            *idx = HashIndex::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_with_index() -> Relation {
        let mut r = Relation::new(RelId(0), 2);
        r.add_index(ColId(0));
        r
    }

    #[test]
    fn insert_and_probe() {
        let mut r = rel_with_index();
        r.insert(&TupleData::ints(&[1, 10]));
        r.insert(&TupleData::ints(&[1, 20]));
        r.insert(&TupleData::ints(&[2, 30]));
        assert_eq!(r.len(), 3);
        let hits: Vec<i64> = r
            .probe(ColId(0), &Value::Int(1))
            .map(|t| t.data.get(1).as_int().unwrap())
            .collect();
        assert_eq!(hits.len(), 2);
        assert!(hits.contains(&10) && hits.contains(&20));
        assert_eq!(r.probe_count(ColId(0), &Value::Int(2)), 1);
        assert_eq!(r.probe_count(ColId(0), &Value::Int(99)), 0);
    }

    #[test]
    fn multiset_delete_removes_one_instance() {
        let mut r = rel_with_index();
        r.insert(&TupleData::ints(&[5, 1]));
        r.insert(&TupleData::ints(&[5, 1]));
        assert_eq!(r.len(), 2);
        let removed = r.delete(&TupleData::ints(&[5, 1])).unwrap();
        assert_eq!(removed.data, TupleData::ints(&[5, 1]));
        assert_eq!(r.len(), 1);
        assert_eq!(r.probe_count(ColId(0), &Value::Int(5)), 1);
        assert!(r.delete(&TupleData::ints(&[5, 1])).is_some());
        assert!(r.delete(&TupleData::ints(&[5, 1])).is_none(), "exhausted");
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn delete_removes_the_oldest_equal_instance() {
        // Indexed: the posting fallback; unindexed: the scan fallback.
        for indexed in [true, false] {
            let mut r = if indexed {
                rel_with_index()
            } else {
                Relation::new(RelId(0), 2)
            };
            let a = r.insert(&TupleData::ints(&[1, 1]));
            let b = r.insert(&TupleData::ints(&[2, 2]));
            let c = r.insert(&TupleData::ints(&[2, 2]));
            let d = r.insert(&TupleData::ints(&[1, 1]));
            r.insert(&TupleData::ints(&[2, 3]));
            // Behind the front: the oldest equal instance.
            assert_eq!(r.delete(&TupleData::ints(&[2, 2])).unwrap().id, b.id);
            // At the front.
            assert_eq!(r.delete(&TupleData::ints(&[1, 1])).unwrap().id, a.id);
            assert_eq!(r.delete(&TupleData::ints(&[1, 1])).unwrap().id, d.id);
            assert_eq!(r.delete(&TupleData::ints(&[2, 2])).unwrap().id, c.id);
            assert!(r.delete(&TupleData::ints(&[2, 2])).is_none());
            assert!(r.delete(&TupleData::ints(&[2])).is_none(), "wrong arity");
            assert_eq!(r.len(), 1);
        }
    }

    #[test]
    fn delete_keeps_indexes_consistent() {
        let mut r = rel_with_index();
        r.insert(&TupleData::ints(&[7, 1]));
        let t2 = r.insert(&TupleData::ints(&[7, 2]));
        r.delete(&TupleData::ints(&[7, 1]));
        let hits: Vec<TupleId> = r.probe(ColId(0), &Value::Int(7)).map(|t| t.id).collect();
        assert_eq!(hits, vec![t2.id]);
    }

    #[test]
    fn late_index_build_covers_existing_tuples() {
        let mut r = Relation::new(RelId(0), 2);
        r.insert(&TupleData::ints(&[3, 1]));
        r.insert(&TupleData::ints(&[3, 2]));
        assert!(!r.has_index(ColId(1)));
        r.add_index(ColId(1));
        assert!(r.has_index(ColId(1)));
        assert_eq!(r.probe_count(ColId(1), &Value::Int(2)), 1);
        r.drop_index(ColId(1));
        assert!(!r.has_index(ColId(1)));
    }

    #[test]
    #[should_panic(expected = "probe on unindexed column")]
    fn probe_without_index_panics() {
        let r = Relation::new(RelId(0), 1);
        let _ = r.probe(ColId(0), &Value::Int(1)).count();
    }

    #[test]
    fn tuple_ids_never_reused() {
        let mut r = rel_with_index();
        let a = r.insert(&TupleData::ints(&[1, 1]));
        r.delete(&TupleData::ints(&[1, 1]));
        let b = r.insert(&TupleData::ints(&[1, 1]));
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn scan_sees_everything() {
        let mut r = Relation::new(RelId(2), 1);
        for i in 0..10 {
            r.insert(&TupleData::ints(&[i]));
        }
        let mut vals: Vec<i64> = r.scan().map(|t| t.data.get(0).as_int().unwrap()).collect();
        vals.sort_unstable();
        assert_eq!(vals, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn memory_accounting_tracks_inserts_and_deletes() {
        let mut r = Relation::new(RelId(0), 1);
        assert_eq!(r.data_bytes(), 0);
        r.insert(&TupleData::ints(&[1]));
        let one = r.data_bytes();
        assert!(one > 0);
        r.insert(&TupleData::ints(&[2]));
        assert_eq!(r.data_bytes(), 2 * one);
        r.delete(&TupleData::ints(&[1]));
        assert_eq!(r.data_bytes(), one);
    }

    #[test]
    fn clear_resets_but_keeps_index_definitions() {
        let mut r = rel_with_index();
        r.insert(&TupleData::ints(&[1, 1]));
        r.clear();
        assert!(r.is_empty());
        assert!(r.has_index(ColId(0)));
        assert_eq!(r.probe_count(ColId(0), &Value::Int(1)), 0);
        r.insert(&TupleData::ints(&[1, 1]));
        assert_eq!(r.probe_count(ColId(0), &Value::Int(1)), 1);
    }

    #[test]
    fn index_distinct_keys() {
        let mut r = rel_with_index();
        for i in 0..10 {
            r.insert(&TupleData::ints(&[i % 3, i]));
        }
        assert_eq!(r.index(ColId(0)).unwrap().distinct_keys(), 3);
        assert_eq!(r.index(ColId(0)).unwrap().len(), 10);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let mut r = Relation::new(RelId(0), 2);
        r.insert(&TupleData::ints(&[1]));
    }
}
