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
//!
//! An entry's values are a flat list of `(composite, witness count)` pairs
//! in insertion order, kept distinct by stored-tuple identity: a value over
//! the same `(relation, tuple id)` parts as one already listed, in any part
//! order, bumps that value's count instead of adding a second one. Lookups
//! scan the list and compare parts directly, so no canonical
//! [`acq_stream::CompositeId`] is built or hashed on the cache path. Scans
//! are linear in an entry's value count; entries are small (the largest on
//! the benchmark workloads holds 1, 5 and 160 values on chain3, burst-shift
//! and star4), and a per-entry hash table's smallest allocation alone is
//! several times the size of a one-value list. A hit splices the values in
//! list order.

use acq_sketch::{BloomFilter, FxHasher};
use acq_stream::{Composite, TupleRef, Value};
use std::hash::Hasher;

/// Bytes the §5 memory model charges per bucket-array slot, whatever the
/// in-memory size of a slot is. Fixed at 72, the size a slot had when
/// entries kept their values in per-entry hash maps, so flattening the
/// entries moved neither the modelled store footprint nor the bucket counts
/// the Re-optimizer derives from a memory grant.
pub(crate) const BUCKET_SLOT_BYTES: usize = 72;

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
    /// Distinct composites with their witness counts, in insertion order.
    values: Vec<(Composite, u32)>,
    bytes: usize,
}

impl CacheEntry {
    fn new(key: Vec<Value>, hash: u64, capacity: usize) -> CacheEntry {
        let bytes = 48 + key.iter().map(Value::memory_bytes).sum::<usize>();
        CacheEntry {
            key,
            hash,
            values: Vec::with_capacity(capacity),
            bytes,
        }
    }

    /// Recycle a displaced entry's allocations (key vector, value list) for
    /// a new key with `capacity` values — the steady-state `create` path
    /// never touches the allocator once the store has warmed up.
    fn reset(&mut self, key: &[Value], hash: u64, capacity: usize) {
        self.key.clear();
        self.key.extend_from_slice(key);
        self.hash = hash;
        self.values.clear();
        self.values.reserve_exact(capacity);
        self.bytes = 48 + key.iter().map(Value::memory_bytes).sum::<usize>();
    }

    /// Number of distinct composites in the value.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the value set is empty (a *negative* entry — caching "no
    /// results" is exactly what saves work on repeated misses-to-be).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The entry's key.
    pub fn key(&self) -> &[Value] {
        &self.key
    }

    /// Iterate the composites, in insertion order.
    pub fn composites(&self) -> impl Iterator<Item = &Composite> {
        self.values.iter().map(|(c, _)| c)
    }

    fn add(&mut self, c: Composite, count: u32) {
        if count == 0 {
            return;
        }
        match self
            .values
            .iter_mut()
            .find(|(v, _)| v.same_tuples(c.parts()))
        {
            Some((_, n)) => *n += count,
            None => {
                self.bytes += c.ref_memory_bytes() + 16;
                self.values.push((c, count));
            }
        }
    }

    fn remove<'p>(&mut self, parts: impl Iterator<Item = &'p TupleRef> + Clone, count: u32) {
        let Some(i) = self
            .values
            .iter()
            .position(|(v, _)| v.same_tuples(parts.clone()))
        else {
            return;
        };
        let n = &mut self.values[i].1;
        *n = n.saturating_sub(count);
        if *n == 0 {
            let (gone, _) = self.values.remove(i);
            self.bytes -= gone.ref_memory_bytes() + 16;
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
    /// A new entry reserves exactly as many value slots as `composites`
    /// reports (its size hint's lower bound); a displaced entry's
    /// allocations (key vector, value list) are recycled for the new entry,
    /// so the steady-state miss→create cycle does not allocate.
    pub fn create_hashed(
        &mut self,
        key: &[Value],
        hash: u64,
        composites: impl IntoIterator<Item = (Composite, u32)>,
    ) {
        let composites = composites.into_iter();
        let capacity = composites.size_hint().0;
        self.stats.creates += 1;
        let set = self.set_of_hash(hash);
        let base = set * self.ways;
        let resident = self.slot_of_hashed(key, hash);
        let slot = resident
            .or_else(|| (base..base + self.ways).find(|&i| self.buckets[i].is_none()))
            .unwrap_or_else(|| {
                let victim = base + self.cursor[set] as usize % self.ways;
                self.cursor[set] = (self.cursor[set] + 1) % self.ways as u8;
                victim
            });
        let mut entry = match self.buckets[slot].take() {
            Some(mut old) => {
                if resident.is_none() {
                    self.stats.collisions += 1;
                }
                self.entries -= 1;
                self.value_bytes -= old.bytes;
                old.reset(key, hash, capacity);
                old
            }
            None => CacheEntry::new(key.to_vec(), hash, capacity),
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
    /// reference-count traffic; a key the resident-key filter rules out is
    /// ignored without walking its set.
    pub fn insert_hashed(
        &mut self,
        key: &[Value],
        hash: u64,
        value: impl FnOnce() -> Composite,
        count: u32,
    ) {
        self.maintain(key, hash, |e| e.add(value(), count));
    }

    /// `delete(u, r)` (§3.2): remove `r` (or `count` witnesses of it) from
    /// the value of `u` if cached; ignored otherwise.
    pub fn delete(&mut self, key: &[Value], c: &Composite, count: u32) {
        self.delete_hashed(key, hash_key(key), c.parts(), count);
    }

    /// [`CacheStore::delete`] with a caller-computed key hash, naming the
    /// value by its stored tuples `parts`, in any order (values are distinct
    /// by stored-tuple identity, so no owned composite is needed). A key the
    /// resident-key filter rules out is ignored without walking its set.
    pub fn delete_hashed<'p>(
        &mut self,
        key: &[Value],
        hash: u64,
        parts: impl Iterator<Item = &'p TupleRef> + Clone,
        count: u32,
    ) {
        self.maintain(key, hash, |e| e.remove(parts, count));
    }

    /// Apply `edit` to `key`'s entry if it is resident, counting the call
    /// as applied or ignored. A key the resident-key filter rules out is
    /// ignored without walking its set.
    fn maintain(&mut self, key: &[Value], hash: u64, edit: impl FnOnce(&mut CacheEntry)) {
        let slot = if self.resident.contains(hash) {
            self.slot_of_hashed(key, hash)
        } else {
            None
        };
        let Some(i) = slot else {
            self.stats.maintenance_ignored += 1;
            return;
        };
        let e = self.buckets[i].as_mut().expect("slot_of returns occupied");
        self.value_bytes -= e.bytes;
        edit(e);
        self.value_bytes += e.bytes;
        self.stats.maintenance_applied += 1;
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

    /// Modelled memory footprint (§5): `BUCKET_SLOT_BYTES` per bucket plus
    /// each entry's key and value-reference estimate. A model, not a heap
    /// measurement: it does not follow the in-memory layout of an entry.
    pub fn memory_bytes(&self) -> usize {
        self.buckets.len() * BUCKET_SLOT_BYTES + self.value_bytes
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
    /// back to its own slot, no set holds the same key twice, and no entry
    /// lists two values over the same stored tuples or a value with no
    /// witnesses. Returns a human-readable line per violation (empty =
    /// consistent). Used by the conformance harness's mid-run invariant
    /// sweeps.
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
            for (a, (v, n)) in e.values.iter().enumerate() {
                if *n == 0 {
                    problems.push(format!(
                        "zero witness count: value {v} under key {:?}",
                        e.key()
                    ));
                }
                if e.values[a + 1..]
                    .iter()
                    .any(|(w, _)| w.same_tuples(v.parts()))
                {
                    problems.push(format!("duplicate value {v} under key {:?}", e.key()));
                }
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
        assert_eq!(c.stats().creates, 2);
        assert_eq!(c.stats().collisions, 0, "a refresh displaces no other key");
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
    fn accounting_check_detects_duplicate_value() {
        let mut c = CacheStore::new(8);
        let (a, b) = (
            make_ref(RelId(1), 1, TupleData::ints(&[1])),
            make_ref(RelId(2), 2, TupleData::ints(&[1])),
        );
        let ab = Composite::unit(a.clone()).extend_with(b.clone());
        c.create(key(&[1]), vec![(ab, 1)]);
        assert!(c.check_accounting().is_empty());
        // The same stored tuples in the other part order, planted past `add`.
        let ba = Composite::unit(b).extend_with(a);
        let e = c.buckets.iter_mut().flatten().next().expect("one entry");
        e.values.push((ba, 1));
        let problems = c.check_accounting();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("duplicate value"), "{}", problems[0]);
    }

    #[test]
    fn accounting_check_detects_zero_witness_count() {
        let mut c = CacheStore::new(8);
        c.create(
            key(&[1]),
            vec![(comp(1, 1, &[1, 2]), 1), (comp(1, 2, &[1, 3]), 1)],
        );
        assert!(c.check_accounting().is_empty());
        let e = c.buckets.iter_mut().flatten().next().expect("one entry");
        e.values[1].1 = 0;
        let problems = c.check_accounting();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].contains("zero witness count"),
            "{}",
            problems[0]
        );
    }

    #[test]
    fn values_keep_insertion_order_and_count_repeats() {
        let mut c = CacheStore::new(8);
        let (a, b, x) = (
            comp(1, 1, &[1, 2]),
            comp(1, 2, &[1, 3]),
            comp(1, 3, &[1, 4]),
        );
        c.create(
            key(&[1]),
            vec![(b.clone(), 1), (a.clone(), 1), (b.clone(), 1)],
        );
        c.insert(&key(&[1]), x.clone(), 1);
        c.insert(&key(&[1]), a.clone(), 1);
        let ids = |c: &CacheStore| -> Vec<u64> {
            let e = c.peek(&key(&[1])).expect("resident");
            e.composites().map(|v| v.identity().pair(0).1).collect()
        };
        assert_eq!(
            ids(&c),
            [2, 1, 3],
            "one value per stored tuple, insertion order"
        );
        // b and a hold two witnesses each: one delete keeps them listed.
        c.delete(&key(&[1]), &b, 1);
        c.delete(&key(&[1]), &a, 1);
        assert_eq!(ids(&c), [2, 1, 3]);
        c.delete(&key(&[1]), &b, 1);
        assert_eq!(ids(&c), [1, 3], "removal keeps the others' order");
        assert!(c.check_accounting().is_empty());
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
