//! Paged ring store: `TupleId → TupleRef` resolution by arithmetic, not
//! hashing.
//!
//! Relation stores mint tuple ids monotonically and window semantics expire
//! tuples roughly in insertion order, so the live id range at any moment is
//! a narrow band `[oldest .. next)`. [`SlabStore`] exploits that: ids map to
//! slots of fixed 64-slot pages held in a ring (`VecDeque`), so
//! [`SlabStore::get`] is two array indexings — no second hash lookup after
//! an index probe has already produced the ids.
//!
//! A front cursor tracks the oldest live id, so [`SlabStore::first`] — the
//! tuple a sliding window expires next — is O(1). Out-of-order deletes
//! (a delete whose data does not match the front tuple) simply leave `None`
//! gaps; a page is reclaimed when it empties *and* reaches the front of the
//! ring. Worst-case overhead for a pinned oldest tuple is 8 bytes per id of
//! span — negligible against the tuples themselves. Reclaimed pages are
//! pooled and reissued, so a steady-state window cycles through pages
//! without touching the allocator.

use acq_stream::{TupleId, TupleRef};
use std::collections::VecDeque;

/// Slots per page. 64 ids per 512-byte page: big enough to amortize ring
/// bookkeeping, small enough to recycle promptly as the window slides.
const PAGE: usize = 64;

/// Reclaimed pages kept for reuse. A sliding window frees pages at the rate
/// it fills them, so a handful covers steady state; beyond that the
/// allocator gets them back.
const FREE_POOL_CAP: usize = 16;

#[derive(Debug)]
struct Page {
    slots: [Option<TupleRef>; PAGE],
    occupied: u32,
}

impl Page {
    fn empty() -> Box<Page> {
        Box::new(Page {
            slots: [const { None }; PAGE],
            occupied: 0,
        })
    }
}

/// Ring of pages mapping a monotone band of [`TupleId`]s to [`TupleRef`]s.
#[derive(Debug, Default)]
pub struct SlabStore {
    /// `pages[p]` covers ids `[head_base + p·PAGE, head_base + (p+1)·PAGE)`.
    pages: VecDeque<Box<Page>>,
    /// Id of slot 0 of `pages[0]`.
    head_base: TupleId,
    /// Smallest live id while `len > 0`: every slot below it is empty.
    front: TupleId,
    len: usize,
    /// Retired empty pages kept for reuse. Boxed on purpose: pages move
    /// between here and `pages` as a pointer swap, not a 64-slot memcpy.
    #[allow(clippy::vec_box)]
    free: Vec<Box<Page>>,
}

impl SlabStore {
    /// An empty store.
    pub fn new() -> SlabStore {
        SlabStore {
            pages: VecDeque::new(),
            head_base: 0,
            front: 0,
            len: 0,
            free: Vec::new(),
        }
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no tuple is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Page index and slot for `id`, if it falls inside the current band.
    #[inline]
    fn locate(&self, id: TupleId) -> Option<(usize, usize)> {
        let off = id.checked_sub(self.head_base)? as usize;
        let page = off / PAGE;
        if page >= self.pages.len() {
            return None;
        }
        Some((page, off % PAGE))
    }

    /// Store `t` under `id`. Ids must be assigned monotonically (each
    /// insert's id is ≥ every id ever inserted) — the relation store's
    /// `next_id` counter guarantees this.
    ///
    /// # Panics
    /// Panics if `id` is below the current band (monotonicity violated) or
    /// the slot is already occupied.
    pub fn insert(&mut self, id: TupleId, t: TupleRef) {
        if self.pages.is_empty() {
            // Fresh band: align the base down to a page boundary so page
            // arithmetic stays id-stable across clears.
            self.head_base = id - (id % PAGE as u64);
        }
        assert!(id >= self.head_base, "tuple ids must be monotone");
        let off = (id - self.head_base) as usize;
        while off / PAGE >= self.pages.len() {
            let page = self.free.pop().unwrap_or_else(Page::empty);
            self.pages.push_back(page);
        }
        let page = &mut self.pages[off / PAGE];
        let slot = &mut page.slots[off % PAGE];
        assert!(slot.is_none(), "slot {id} already occupied");
        *slot = Some(t);
        page.occupied += 1;
        if self.len == 0 {
            self.front = id;
        }
        self.len += 1;
    }

    /// Remove and return the tuple stored under `id`, if any. Empty front
    /// pages are recycled into the free pool, and removing the oldest tuple
    /// moves the front cursor to the next live one.
    pub fn remove(&mut self, id: TupleId) -> Option<TupleRef> {
        let (p, s) = self.locate(id)?;
        let page = &mut self.pages[p];
        let t = page.slots[s].take()?;
        page.occupied -= 1;
        self.len -= 1;
        while let Some(front) = self.pages.front() {
            if front.occupied != 0 {
                break;
            }
            let page = self.pages.pop_front().expect("front exists");
            self.head_base += PAGE as u64;
            if self.free.len() < FREE_POOL_CAP {
                self.free.push(page);
            }
        }
        if id == self.front && self.len != 0 {
            // Walk the cursor to the next live id. It only moves forward, so
            // the walks cost O(1) amortised per id; page pops leave
            // `pages[0]` occupied, so a cursor they passed restarts there.
            let mut off = (id + 1).saturating_sub(self.head_base) as usize;
            while self.pages[off / PAGE].slots[off % PAGE].is_none() {
                off += 1;
            }
            self.front = self.head_base + off as u64;
        }
        Some(t)
    }

    /// The oldest live tuple, if any — O(1) through the front cursor (an
    /// empty store holds no pages, so a stale cursor resolves to `None`).
    #[inline]
    pub fn first(&self) -> Option<&TupleRef> {
        self.get(self.front)
    }

    /// The tuple stored under `id`, if any — O(1), two array indexings.
    #[inline]
    pub fn get(&self, id: TupleId) -> Option<&TupleRef> {
        let (p, s) = self.locate(id)?;
        self.pages[p].slots[s].as_ref()
    }

    /// All live tuples, in id order.
    pub fn iter(&self) -> impl Iterator<Item = &TupleRef> {
        self.pages
            .iter()
            .flat_map(|p| p.slots.iter().filter_map(Option::as_ref))
    }

    /// Drop everything, recycling pages into the free pool.
    pub fn clear(&mut self) {
        while let Some(mut page) = self.pages.pop_front() {
            if page.occupied != 0 {
                page.slots = [const { None }; PAGE];
                page.occupied = 0;
            }
            if self.free.len() < FREE_POOL_CAP {
                self.free.push(page);
            }
        }
        self.len = 0;
    }

    /// Ids currently spanned by resident pages (diagnostics: live band
    /// width including gap overhead).
    pub fn band_slots(&self) -> usize {
        self.pages.len() * PAGE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acq_stream::tuple::make_ref;
    use acq_stream::{RelId, TupleData};

    fn t(id: u64) -> TupleRef {
        make_ref(RelId(0), id, TupleData::ints(&[id as i64]))
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = SlabStore::new();
        for id in 0..200 {
            s.insert(id, t(id));
        }
        assert_eq!(s.len(), 200);
        assert_eq!(s.get(123).unwrap().id, 123);
        assert!(s.get(200).is_none());
        assert_eq!(s.remove(123).unwrap().id, 123);
        assert!(s.get(123).is_none());
        assert!(s.remove(123).is_none());
        assert_eq!(s.len(), 199);
    }

    #[test]
    fn sliding_window_reclaims_pages() {
        let mut s = SlabStore::new();
        for id in 0..PAGE as u64 * 100 {
            s.insert(id, t(id));
            if id >= 50 {
                s.remove(id - 50);
            }
        }
        assert_eq!(s.len(), 50);
        // The live band is 50 ids wide → a handful of resident pages, not 100.
        assert!(s.band_slots() <= 3 * PAGE, "band {} slots", s.band_slots());
    }

    #[test]
    fn out_of_order_deletes_leave_gaps_then_reclaim() {
        let mut s = SlabStore::new();
        for id in 0..130 {
            s.insert(id, t(id));
        }
        // Delete newest-first: front page stays fully occupied until last.
        for id in (0..130).rev() {
            assert_eq!(s.remove(id).unwrap().id, id);
        }
        assert!(s.is_empty());
        assert_eq!(s.band_slots(), 0);
        // Band restarts wherever ids resume.
        s.insert(500, t(500));
        assert_eq!(s.get(500).unwrap().id, 500);
        assert!(s.get(499).is_none());
    }

    #[test]
    fn first_follows_the_oldest_live_id() {
        let mut s = SlabStore::new();
        assert!(s.first().is_none());
        for id in 5..300 {
            s.insert(id, t(id));
        }
        assert_eq!(s.first().unwrap().id, 5);
        // A mid-band removal leaves the front alone.
        s.remove(6);
        assert_eq!(s.first().unwrap().id, 5);
        // Removing the front skips the gap, and whole emptied pages.
        s.remove(5);
        assert_eq!(s.first().unwrap().id, 7);
        for id in 8..200 {
            s.remove(id);
        }
        s.remove(7);
        assert_eq!(s.first().unwrap().id, 200);
        for id in 200..300 {
            assert_eq!(s.first().unwrap().id, id);
            s.remove(id);
        }
        assert!(s.first().is_none());
        s.insert(400, t(400));
        assert_eq!(s.first().unwrap().id, 400);
        s.clear();
        assert!(s.first().is_none());
        s.insert(401, t(401));
        assert_eq!(s.first().unwrap().id, 401);
    }

    #[test]
    fn iter_is_id_ordered() {
        let mut s = SlabStore::new();
        for id in [3u64, 7, 90, 91, 200] {
            s.insert(id, t(id));
        }
        s.remove(90);
        let ids: Vec<u64> = s.iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![3, 7, 91, 200]);
    }

    #[test]
    fn clear_resets_band() {
        let mut s = SlabStore::new();
        for id in 0..10 {
            s.insert(id, t(id));
        }
        s.clear();
        assert!(s.is_empty());
        assert!(s.get(5).is_none());
        s.insert(10, t(10));
        assert_eq!(s.get(10).unwrap().id, 10);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn below_band_insert_panics() {
        let mut s = SlabStore::new();
        s.insert(PAGE as u64 * 2, t(PAGE as u64 * 2));
        // The band starts at the aligned base of the first id; inserting
        // below it must panic, not alias.
        s.insert(0, t(0));
    }
}
