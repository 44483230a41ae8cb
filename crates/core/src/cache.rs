//! The cache store: a direct-mapped hash table of join-subresult entries.
//!
//! §3.3 of the paper: *"each cache is implemented as a hash table probed on
//! the cache key. … The cached values are sets of references to tuples in
//! relations, so actual tuples are never copied into the caches. … We use a
//! simple direct-mapped cache replacement scheme to keep its run-time
//! overhead low: If a new key hashes to a bucket that already contains
//! another key (i.e., a collision), then we simply replace the existing entry
//! with the new one, without violating consistency."*
//!
//! Entries are key → multiset of segment composites. Values carry
//! *witness counts* so the same store serves both plain prefix-invariant
//! caches (counts are join-result multiplicities) and globally-consistent
//! semijoin caches `X ⋉ Y` (§6), where the count of an `X`-composite is its
//! number of live witnesses in the `Y`-join and the composite is dropped when
//! the count reaches zero.

use acq_sketch::{BloomFilter, FxHashMap, FxHasher};
use acq_stream::{Composite, CompositeId, Value};
use std::hash::Hasher;

/// Hash a cache key (a projected value vector).
///
/// The hot path computes this **once** per probe key and threads it through
/// [`CacheStore::probe_hashed`] / [`CacheStore::create_hashed`] /
/// [`CacheStore::insert_hashed`] / [`CacheStore::delete_hashed`]; resident
/// entries store it, so the map walk compares hashes before keys.
pub fn hash_key(key: &[Value]) -> u64 {
    let mut h = FxHasher::default();
    for v in key {
        v.hash_into(&mut h);
    }
    h.finish()
}

/// One cached entry: the key (with its precomputed hash) and the value
/// multiset.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    key: Vec<Value>,
    /// `hash_key(&key)`, computed when the entry was created. Probes compare
    /// this before the key values, and re-hashing on resize is free.
    hash: u64,
    /// Identity → (composite, witness count).
    value: FxHashMap<CompositeId, (Composite, u32)>,
    bytes: usize,
}

impl CacheEntry {
    fn new(key: Vec<Value>, hash: u64) -> CacheEntry {
        let bytes = 48 + key.iter().map(Value::memory_bytes).sum::<usize>();
        CacheEntry {
            key,
            hash,
            value: FxHashMap::default(),
            bytes,
        }
    }

    /// Recycle a displaced entry's allocations (key vector, value map) for
    /// a new key — the steady-state `create` path never touches the
    /// allocator once the store has warmed up.
    fn reset(&mut self, key: &[Value], hash: u64) {
        self.key.clear();
        self.key.extend_from_slice(key);
        self.hash = hash;
        self.value.clear();
        self.bytes = 48 + key.iter().map(Value::memory_bytes).sum::<usize>();
    }

    /// Number of distinct composites in the value.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// True if the value set is empty (a *negative* entry — caching "no
    /// results" is exactly what saves work on repeated misses-to-be).
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// The entry's key.
    pub fn key(&self) -> &[Value] {
        &self.key
    }

    /// Iterate the composites.
    pub fn composites(&self) -> impl Iterator<Item = &Composite> {
        self.value.values().map(|(c, _)| c)
    }

    fn add(&mut self, c: Composite, count: u32) {
        let id = c.identity();
        let slot = self.value.entry(id).or_insert_with(|| {
            self.bytes += c.ref_memory_bytes() + 16;
            (c, 0)
        });
        slot.1 += count;
    }

    fn remove(&mut self, id: CompositeId, count: u32) {
        if let Some(slot) = self.value.get_mut(&id) {
            slot.1 = slot.1.saturating_sub(count);
            if slot.1 == 0 {
                let (gone, _) = self.value.remove(&id).expect("present");
                self.bytes -= gone.ref_memory_bytes() + 16;
            }
        }
    }
}

/// Bits of Bloom filter per cache slot (the resident-key pre-filter).
const BLOOM_BITS_PER_SLOT: usize = 16;

fn resident_filter(slots: usize) -> BloomFilter {
    BloomFilter::new((slots * BLOOM_BITS_PER_SLOT).max(64), 2)
}

/// Running statistics of a cache store.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Probes that found their key.
    pub hits: u64,
    /// Probes that did not.
    pub misses: u64,
    /// `create` calls.
    pub creates: u64,
    /// `create` calls that displaced a colliding entry (direct-mapped
    /// replacement).
    pub collisions: u64,
    /// `insert`/`delete` maintenance calls applied (key present).
    pub maintenance_applied: u64,
    /// Maintenance calls ignored (key absent — allowed by §3.2).
    pub maintenance_ignored: u64,
    /// Misses answered by the resident-key Bloom pre-filter alone (no set
    /// walk). A subset of `misses`.
    pub bloom_filtered: u64,
}

impl CacheStats {
    /// Observed miss probability; `None` before any probe.
    pub fn miss_prob(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            None
        } else {
            Some(self.misses as f64 / total as f64)
        }
    }

    /// Fold another stats block into this one (component-wise sum).
    ///
    /// The engine's telemetry keeps a per-group accumulator so statistics
    /// survive `reset_stats` epochs and store drops; this is the fold.
    pub fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.creates += other.creates;
        self.collisions += other.collisions;
        self.maintenance_applied += other.maintenance_applied;
        self.maintenance_ignored += other.maintenance_ignored;
        self.bloom_filtered += other.bloom_filtered;
    }

    /// Emit these stats into a snapshot as `store.*` counters labelled with
    /// the shared-group id.
    pub fn snapshot_into(&self, s: &mut acq_telemetry::TelemetrySnapshot, group: usize) {
        let g = group.to_string();
        let labels: [(&str, &str); 1] = [("group", &g)];
        s.counter("store.hits", &labels, self.hits);
        s.counter("store.misses", &labels, self.misses);
        s.counter("store.creates", &labels, self.creates);
        s.counter("store.collisions", &labels, self.collisions);
        s.counter("store.maintenance_applied", &labels, self.maintenance_applied);
        s.counter("store.maintenance_ignored", &labels, self.maintenance_ignored);
        s.counter("store.bloom_filtered", &labels, self.bloom_filtered);
    }
}

/// Set-associative cache store (paper §3.3).
///
/// The paper's implementation is **direct-mapped** (1-way): a colliding
/// `create` simply replaces the resident entry. §3.3 closes with *"In the
/// future we plan to experiment with other low-overhead cache replacement
/// schemes"* — this store implements that future work as N-way set
/// associativity with round-robin replacement within a set (still O(ways)
/// per operation, no recency metadata). `ways = 1` reproduces the paper
/// exactly and is the default.
#[derive(Debug)]
pub struct CacheStore {
    buckets: Vec<Option<CacheEntry>>,
    /// Number of sets (`buckets.len() / ways`), a power of two.
    set_mask: u64,
    ways: usize,
    /// Round-robin replacement cursor per set.
    cursor: Vec<u8>,
    /// Resident-key Bloom pre-filter: every resident key's hash is set, so
    /// a negative answer proves a miss without walking the set. Bits are
    /// *not* cleared on eviction — stale bits only cost a (confirmed) walk,
    /// never a false miss. Rebuilt on clear/resize.
    resident: BloomFilter,
    stats: CacheStats,
    entries: usize,
    value_bytes: usize,
}

impl CacheStore {
    /// A direct-mapped store with at least `min_buckets` buckets (rounded up
    /// to a power of two; §3.3: *"the number of hash buckets is chosen based
    /// on expected cache size"*).
    pub fn new(min_buckets: usize) -> CacheStore {
        CacheStore::with_associativity(min_buckets, 1)
    }

    /// An N-way set-associative store with at least `min_buckets` total
    /// slots. `ways` is clamped to a power of two ≤ 8.
    pub fn with_associativity(min_buckets: usize, ways: usize) -> CacheStore {
        let ways = ways.clamp(1, 8).next_power_of_two();
        let sets = (min_buckets.max(1).div_ceil(ways)).next_power_of_two();
        CacheStore {
            buckets: (0..sets * ways).map(|_| None).collect(),
            set_mask: sets as u64 - 1,
            ways,
            cursor: vec![0; sets],
            resident: resident_filter(sets * ways),
            stats: CacheStats::default(),
            entries: 0,
            value_bytes: 0,
        }
    }

    /// Configured associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    #[inline]
    fn set_of_hash(&self, hash: u64) -> usize {
        (acq_sketch::fx_hash_u64(hash) & self.set_mask) as usize
    }

    /// Slot index holding `key` (whose hash is `hash`), if resident.
    #[inline]
    fn slot_of_hashed(&self, key: &[Value], hash: u64) -> Option<usize> {
        let base = self.set_of_hash(hash) * self.ways;
        (base..base + self.ways).find(|&i| {
            self.buckets[i]
                .as_ref()
                .is_some_and(|e| e.hash == hash && e.key() == key)
        })
    }

    /// Slot index holding `key`, if resident.
    #[inline]
    fn slot_of(&self, key: &[Value]) -> Option<usize> {
        self.slot_of_hashed(key, hash_key(key))
    }

    /// `probe(u)` (§3.2): hit returns the entry, miss returns `None`.
    pub fn probe(&mut self, key: &[Value]) -> Option<&CacheEntry> {
        self.probe_hashed(key, hash_key(key))
    }

    /// [`CacheStore::probe`] with the key hash computed by the caller
    /// (hash-once discipline: the engine hashes the scratch probe key a
    /// single time and reuses it for the probe and any following create).
    /// Predicted misses are answered by the Bloom pre-filter without
    /// walking the set.
    pub fn probe_hashed(&mut self, key: &[Value], hash: u64) -> Option<&CacheEntry> {
        if !self.resident.contains(hash) {
            self.stats.misses += 1;
            self.stats.bloom_filtered += 1;
            return None;
        }
        match self.slot_of_hashed(key, hash) {
            Some(i) => {
                self.stats.hits += 1;
                self.buckets[i].as_ref()
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Peek without touching hit/miss statistics (used by invariant checks).
    pub fn peek(&self, key: &[Value]) -> Option<&CacheEntry> {
        self.slot_of(key).and_then(|i| self.buckets[i].as_ref())
    }

    /// `create(u, v)` (§3.2): add a complete entry. Placement: the key's own
    /// slot if resident, else a free slot in its set, else the set's
    /// round-robin victim (replacement never violates consistency — it only
    /// loses completeness, which caches don't promise).
    pub fn create(
        &mut self,
        key: Vec<Value>,
        composites: impl IntoIterator<Item = (Composite, u32)>,
    ) {
        let hash = hash_key(&key);
        self.create_hashed(&key, hash, composites);
    }

    /// [`CacheStore::create`] with a borrowed key and caller-computed hash.
    /// A displaced entry's allocations (key vector, value map) are recycled
    /// for the new entry, so the steady-state miss→create cycle does not
    /// allocate.
    pub fn create_hashed(
        &mut self,
        key: &[Value],
        hash: u64,
        composites: impl IntoIterator<Item = (Composite, u32)>,
    ) {
        self.stats.creates += 1;
        let set = self.set_of_hash(hash);
        let base = set * self.ways;
        let slot = self
            .slot_of_hashed(key, hash)
            .or_else(|| (base..base + self.ways).find(|&i| self.buckets[i].is_none()))
            .unwrap_or_else(|| {
                let victim = base + self.cursor[set] as usize % self.ways;
                self.cursor[set] = (self.cursor[set] + 1) % self.ways as u8;
                victim
            });
        let mut entry = match self.buckets[slot].take() {
            Some(mut old) => {
                self.stats.collisions += 1;
                self.entries -= 1;
                self.value_bytes -= old.bytes;
                old.reset(key, hash);
                old
            }
            None => CacheEntry::new(key.to_vec(), hash),
        };
        for (c, count) in composites {
            entry.add(c, count);
        }
        self.value_bytes += entry.bytes;
        self.entries += 1;
        self.buckets[slot] = Some(entry);
        self.resident.insert(hash);
    }

    /// `insert(u, r)` (§3.2): add `r` to the value of `u` if the key is
    /// cached; ignored otherwise. `count` is the witness multiplicity (1 for
    /// plain caches).
    pub fn insert(&mut self, key: &[Value], c: Composite, count: u32) {
        self.insert_hashed(key, hash_key(key), || c, count);
    }

    /// [`CacheStore::insert`] with a caller-computed key hash. The value is
    /// built only when the key is resident, so ignored maintenance costs no
    /// reference-count traffic.
    pub fn insert_hashed(
        &mut self,
        key: &[Value],
        hash: u64,
        value: impl FnOnce() -> Composite,
        count: u32,
    ) {
        match self.slot_of_hashed(key, hash) {
            Some(i) => {
                let e = self.buckets[i].as_mut().expect("slot_of returns occupied");
                self.value_bytes -= e.bytes;
                e.add(value(), count);
                self.value_bytes += e.bytes;
                self.stats.maintenance_applied += 1;
            }
            None => self.stats.maintenance_ignored += 1,
        }
    }

    /// `delete(u, r)` (§3.2): remove `r` (or `count` witnesses of it) from
    /// the value of `u` if cached; ignored otherwise.
    pub fn delete(&mut self, key: &[Value], c: &Composite, count: u32) {
        self.delete_hashed(key, hash_key(key), c.identity(), count);
    }

    /// [`CacheStore::delete`] with a caller-computed key hash, naming the
    /// value by its identity (values are keyed by identity, so no owned
    /// composite is needed).
    pub fn delete_hashed(&mut self, key: &[Value], hash: u64, id: CompositeId, count: u32) {
        match self.slot_of_hashed(key, hash) {
            Some(i) => {
                let e = self.buckets[i].as_mut().expect("slot_of returns occupied");
                self.value_bytes -= e.bytes;
                e.remove(id, count);
                self.value_bytes += e.bytes;
                self.stats.maintenance_applied += 1;
            }
            None => self.stats.maintenance_ignored += 1,
        }
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Approximate memory footprint: bucket array + entries.
    pub fn memory_bytes(&self) -> usize {
        self.buckets.len() * std::mem::size_of::<Option<CacheEntry>>() + self.value_bytes
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset hit/miss statistics (per observation window).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Rebuild with a new bucket count (adaptive memory allocation, §5),
    /// preserving associativity. Entries are rehashed; entries that no
    /// longer fit their set are dropped (safe: losing entries never violates
    /// consistency).
    pub fn resize(&mut self, min_buckets: usize) {
        let mut fresh = CacheStore::with_associativity(min_buckets, self.ways);
        for entry in self.buckets.drain(..).flatten() {
            let base = fresh.set_of_hash(entry.hash) * fresh.ways;
            if let Some(slot) = (base..base + fresh.ways).find(|&i| fresh.buckets[i].is_none()) {
                fresh.entries += 1;
                fresh.value_bytes += entry.bytes;
                fresh.resident.insert(entry.hash);
                fresh.buckets[slot] = Some(entry);
            }
        }
        fresh.stats = self.stats;
        *self = fresh;
    }

    /// Iterate over live entries (invariant checks).
    pub fn entries(&self) -> impl Iterator<Item = &CacheEntry> {
        self.buckets.iter().flatten()
    }

    /// Verify the store's internal bookkeeping against a from-scratch
    /// recount: `entries` equals the occupied-bucket count, `value_bytes`
    /// equals the sum of per-entry byte estimates, every resident key probes
    /// back to its own slot, and no set holds the same key twice. Returns a
    /// human-readable line per violation (empty = consistent). Used by the
    /// conformance harness's mid-run invariant sweeps.
    pub fn check_accounting(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let occupied = self.buckets.iter().flatten().count();
        if occupied != self.entries {
            problems.push(format!(
                "entry count drift: counted {occupied} occupied buckets but entries = {}",
                self.entries
            ));
        }
        let bytes: usize = self.buckets.iter().flatten().map(|e| e.bytes).sum();
        if bytes != self.value_bytes {
            problems.push(format!(
                "byte accounting drift: recomputed {bytes} but value_bytes = {}",
                self.value_bytes
            ));
        }
        for (i, e) in self.buckets.iter().enumerate() {
            let Some(e) = e else { continue };
            if e.hash != hash_key(e.key()) {
                problems.push(format!("stale stored hash for key {:?}", e.key()));
            }
            let set = self.set_of_hash(e.hash);
            let base = set * self.ways;
            if !(base..base + self.ways).contains(&i) {
                problems.push(format!(
                    "misplaced entry: key {:?} lives in slot {i}, outside its set {set}",
                    e.key()
                ));
            }
            if self.slot_of(e.key()) != Some(i) && self.slot_of(e.key()).is_none() {
                problems.push(format!("unreachable entry: key {:?} does not probe", e.key()));
            }
        }
        for set in 0..=self.set_mask as usize {
            let base = set * self.ways;
            let keys: Vec<&[Value]> = (base..base + self.ways)
                .filter_map(|i| self.buckets[i].as_ref().map(|e| e.key()))
                .collect();
            for (a, ka) in keys.iter().enumerate() {
                if keys[a + 1..].contains(ka) {
                    problems.push(format!("duplicate key {ka:?} within set {set}"));
                }
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acq_stream::tuple::make_ref;
    use acq_stream::{RelId, TupleData};

    fn comp(rel: u16, id: u64, vals: &[i64]) -> Composite {
        Composite::unit(make_ref(RelId(rel), id, TupleData::ints(vals)))
    }

    fn key(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn probe_miss_then_create_then_hit() {
        let mut c = CacheStore::new(16);
        assert!(c.probe(&key(&[1])).is_none());
        c.create(key(&[1]), vec![(comp(1, 1, &[1, 2]), 1)]);
        let e = c.probe(&key(&[1])).expect("hit");
        assert_eq!(e.len(), 1);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().miss_prob(), Some(0.5));
    }

    #[test]
    fn empty_value_entries_are_hits() {
        // Caching "no joining tuples" is valuable: repeated probes of a
        // non-joining key skip the whole segment.
        let mut c = CacheStore::new(16);
        c.create(key(&[9]), Vec::<(Composite, u32)>::new());
        let e = c.probe(&key(&[9])).expect("negative entry hit");
        assert!(e.is_empty());
    }

    #[test]
    fn insert_ignored_without_key() {
        // §3.2 Example 3.5: key ⟨2⟩ not present → insert ignored.
        let mut c = CacheStore::new(16);
        c.create(key(&[1]), vec![(comp(1, 1, &[1, 2]), 1)]);
        c.insert(&key(&[2]), comp(1, 2, &[2, 3]), 1);
        assert!(c.peek(&key(&[2])).is_none());
        assert_eq!(c.stats().maintenance_ignored, 1);
        // Key ⟨1⟩ present → insert applied.
        c.insert(&key(&[1]), comp(2, 7, &[1, 3]), 1);
        assert_eq!(c.peek(&key(&[1])).unwrap().len(), 2);
        assert_eq!(c.stats().maintenance_applied, 1);
    }

    #[test]
    fn delete_removes_exact_composite() {
        let mut c = CacheStore::new(16);
        let a = comp(1, 1, &[1, 2]);
        let b = comp(1, 2, &[1, 3]);
        c.create(key(&[1]), vec![(a.clone(), 1), (b.clone(), 1)]);
        c.delete(&key(&[1]), &a, 1);
        let e = c.peek(&key(&[1])).unwrap();
        assert_eq!(e.len(), 1);
        assert_eq!(e.composites().next().unwrap().identity(), b.identity());
        // Deleting something absent is a no-op.
        c.delete(&key(&[1]), &a, 1);
        assert_eq!(c.peek(&key(&[1])).unwrap().len(), 1);
    }

    #[test]
    fn witness_counting_semijoin_semantics() {
        // Two witnesses for the same X-composite: survives one delete,
        // vanishes after the second (globally-consistent caches, §6).
        let mut c = CacheStore::new(16);
        let x = comp(1, 1, &[1, 2]);
        c.create(key(&[1]), vec![(x.clone(), 1)]);
        c.insert(&key(&[1]), x.clone(), 1); // second witness
        c.delete(&key(&[1]), &x, 1);
        assert_eq!(c.peek(&key(&[1])).unwrap().len(), 1, "one witness left");
        c.delete(&key(&[1]), &x, 1);
        assert_eq!(c.peek(&key(&[1])).unwrap().len(), 0, "all witnesses gone");
    }

    #[test]
    fn direct_mapped_replacement() {
        // Single bucket: any second key displaces the first.
        let mut c = CacheStore::new(1);
        assert_eq!(c.num_buckets(), 1);
        c.create(key(&[1]), vec![(comp(1, 1, &[1, 1]), 1)]);
        c.create(key(&[2]), vec![(comp(1, 2, &[2, 2]), 1)]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().collisions, 1);
        assert!(c.peek(&key(&[1])).is_none(), "old entry replaced");
        assert!(c.peek(&key(&[2])).is_some());
    }

    #[test]
    fn memory_accounting_moves_with_entries() {
        let mut c = CacheStore::new(8);
        let base = c.memory_bytes();
        c.create(key(&[1]), vec![(comp(1, 1, &[1, 2]), 1)]);
        let with_one = c.memory_bytes();
        assert!(with_one > base);
        c.insert(&key(&[1]), comp(1, 2, &[1, 3]), 1);
        assert!(c.memory_bytes() > with_one);
        c.delete(&key(&[1]), &comp(1, 2, &[1, 3]), 1);
        assert_eq!(c.memory_bytes(), with_one);
    }

    #[test]
    fn resize_preserves_what_fits() {
        let mut c = CacheStore::new(64);
        for i in 0..20 {
            c.create(key(&[i]), vec![(comp(1, i as u64, &[i, i]), 1)]);
        }
        let before = c.len();
        assert!(before >= 15, "64 buckets should hold most of 20 keys");
        c.resize(8);
        assert_eq!(c.num_buckets(), 8);
        assert!(c.len() <= 8);
        // Every surviving entry still probes correctly.
        let survivors: Vec<Vec<Value>> = c.entries().map(|e| e.key().to_vec()).collect();
        for k in survivors {
            assert!(c.peek(&k).is_some());
        }
    }

    #[test]
    fn bucket_count_rounds_to_power_of_two() {
        assert_eq!(CacheStore::new(100).num_buckets(), 128);
        assert_eq!(CacheStore::new(0).num_buckets(), 1);
        assert_eq!(CacheStore::new(128).num_buckets(), 128);
    }

    #[test]
    fn two_way_set_keeps_colliding_pair() {
        // One set, two ways: two distinct keys coexist; a third evicts the
        // round-robin victim, not both.
        let mut c = CacheStore::with_associativity(2, 2);
        assert_eq!(c.num_buckets(), 2);
        assert_eq!(c.ways(), 2);
        c.create(key(&[1]), vec![(comp(1, 1, &[1, 1]), 1)]);
        c.create(key(&[2]), vec![(comp(1, 2, &[2, 2]), 1)]);
        assert_eq!(c.len(), 2, "both keys resident under 2-way");
        assert!(c.peek(&key(&[1])).is_some());
        assert!(c.peek(&key(&[2])).is_some());
        c.create(key(&[3]), vec![(comp(1, 3, &[3, 3]), 1)]);
        assert_eq!(c.len(), 2);
        assert!(c.peek(&key(&[3])).is_some(), "newest always resident");
        let survivors = [1i64, 2]
            .iter()
            .filter(|&&k| c.peek(&key(&[k])).is_some())
            .count();
        assert_eq!(survivors, 1, "round-robin evicted exactly one");
    }

    #[test]
    fn recreate_same_key_stays_in_place() {
        let mut c = CacheStore::with_associativity(4, 2);
        c.create(key(&[7]), vec![(comp(1, 1, &[7, 7]), 1)]);
        c.create(key(&[7]), vec![(comp(1, 2, &[7, 8]), 1)]);
        assert_eq!(c.len(), 1, "same key replaced in place, no duplicate");
        let e = c.peek(&key(&[7])).unwrap();
        assert_eq!(e.len(), 1);
        assert_eq!(
            e.composites().next().unwrap().identity().pair(0).1,
            2,
            "newest value wins"
        );
    }

    #[test]
    fn associativity_clamped_and_rounded() {
        assert_eq!(CacheStore::with_associativity(8, 3).ways(), 4);
        assert_eq!(CacheStore::with_associativity(8, 100).ways(), 8);
        assert_eq!(CacheStore::with_associativity(0, 0).ways(), 1);
    }

    #[test]
    fn maintenance_works_across_ways() {
        let mut c = CacheStore::with_associativity(2, 2);
        c.create(key(&[1]), vec![(comp(1, 1, &[1, 1]), 1)]);
        c.create(key(&[2]), vec![(comp(1, 2, &[2, 2]), 1)]);
        c.insert(&key(&[2]), comp(1, 9, &[2, 9]), 1);
        assert_eq!(c.peek(&key(&[2])).unwrap().len(), 2);
        c.delete(&key(&[1]), &comp(1, 1, &[1, 1]), 1);
        assert_eq!(c.peek(&key(&[1])).unwrap().len(), 0);
    }

    #[test]
    fn resize_preserves_associativity() {
        let mut c = CacheStore::with_associativity(32, 4);
        for i in 0..20 {
            c.create(key(&[i]), vec![(comp(1, i as u64, &[i, i]), 1)]);
        }
        c.resize(8);
        assert_eq!(c.ways(), 4);
        assert!(c.len() <= 8);
    }

    #[test]
    fn accounting_check_clean_store() {
        let mut c = CacheStore::with_associativity(8, 2);
        for i in 0..6 {
            c.create(key(&[i]), vec![(comp(1, i as u64, &[i, i]), 1)]);
        }
        c.insert(&key(&[0]), comp(2, 9, &[0, 9]), 1);
        c.delete(&key(&[1]), &comp(1, 1, &[1, 1]), 1);
        c.resize(4);
        assert!(c.check_accounting().is_empty());
    }

    #[test]
    fn accounting_check_detects_drift() {
        let mut c = CacheStore::new(8);
        c.create(key(&[1]), vec![(comp(1, 1, &[1, 2]), 1)]);
        c.entries += 1; // simulate a bookkeeping bug
        let problems = c.check_accounting();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("entry count drift"), "{}", problems[0]);
    }

    #[test]
    fn stats_reset() {
        let mut c = CacheStore::new(4);
        c.probe(&key(&[1]));
        assert_eq!(c.stats().misses, 1);
        c.reset_stats();
        assert_eq!(c.stats().misses, 0);
        assert_eq!(c.stats().miss_prob(), None);
    }
}
