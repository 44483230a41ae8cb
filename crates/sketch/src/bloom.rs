//! Bloom filters for distinct-value / cache-miss-probability estimation.
//!
//! Paper §4.3 and Appendix A: when a candidate cache `C_ijk` is *not* in use,
//! its miss probability is estimated by hashing each probe value (the
//! cache-key projection of tuples reaching `./_ij`) into a Bloom filter over
//! non-overlapping windows of `W_d` tuples, with `α·W_d` bits (`α ≥ 1`). If
//! `b` bits are set after `W_d` tuples, the miss-probability estimate is
//! `b / W_d`: intuitively `b` approximates the number of *distinct* keys seen,
//! and each distinct key misses exactly once before being cached.
//!
//! [`BloomFilter`] is a classic `k`-hash-function filter that also counts
//! its set bits ([`BloomFilter::set_bits`], the paper's `b`).

use crate::fx::fx_hash_u64;

/// Bits per window tuple (`α`) of the miss-probability estimator's filters.
pub const MISS_ESTIMATION_ALPHA: usize = 8;

/// A Bloom filter over `u64` pre-hashed items.
///
/// Callers hash their keys to a `u64` first (e.g. with
/// [`crate::fx_hash_bytes`]); the filter derives its `k` indexes from that
/// value with double hashing (`h1 + i·h2`), the standard Kirsch–Mitzenmacher
/// construction.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    /// Number of bits (`m`), always a multiple of 64 and ≥ 64.
    m: usize,
    /// Number of hash functions (`k`).
    k: u32,
    set_bits: usize,
}

impl BloomFilter {
    /// Create a filter with at least `m_bits` bits and `k` hash functions.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(m_bits: usize, k: u32) -> Self {
        assert!(k > 0, "Bloom filter needs at least one hash function");
        let words = m_bits.div_ceil(64).max(1);
        BloomFilter {
            bits: vec![0; words],
            m: words * 64,
            k,
            set_bits: 0,
        }
    }

    /// Create a filter sized for the paper's miss-probability estimator:
    /// [`MISS_ESTIMATION_ALPHA`]` · window` bits and a single hash function,
    /// so that the set-bit count `b` directly approximates the distinct
    /// count.
    pub fn for_miss_estimation(window: usize) -> Self {
        BloomFilter::new(window.max(1) * MISS_ESTIMATION_ALPHA, 1)
    }

    /// Number of bits currently set (`b`).
    #[inline]
    pub fn set_bits(&self) -> usize {
        self.set_bits
    }

    #[inline]
    fn indexes(&self, item: u64) -> impl Iterator<Item = usize> + '_ {
        let h1 = fx_hash_u64(item);
        let h2 = fx_hash_u64(h1 ^ 0x9e37_79b9_7f4a_7c15) | 1; // odd stride
        let m = self.m as u64;
        (0..self.k).map(move |i| (h1.wrapping_add(h2.wrapping_mul(i as u64)) % m) as usize)
    }

    /// Insert a (pre-hashed) item. Returns `true` if the item was *possibly
    /// new* — i.e. at least one of its bits was previously unset. A `false`
    /// return means the item was definitely-maybe seen before (standard Bloom
    /// semantics: false positives possible, false negatives impossible).
    pub fn insert(&mut self, item: u64) -> bool {
        let mut newly_set = false;
        // Collect first to avoid borrowing issues with self.bits mutation.
        let idxs: SmallIdxVec = self.indexes(item).collect();
        for idx in idxs {
            let (w, b) = (idx / 64, idx % 64);
            let mask = 1u64 << b;
            if self.bits[w] & mask == 0 {
                self.bits[w] |= mask;
                self.set_bits += 1;
                newly_set = true;
            }
        }
        newly_set
    }

    /// Membership test: `false` means definitely absent.
    pub fn contains(&self, item: u64) -> bool {
        self.indexes(item).all(|idx| {
            let (w, b) = (idx / 64, idx % 64);
            self.bits[w] & (1u64 << b) != 0
        })
    }

    /// Reset to empty, keeping the allocation.
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.set_bits = 0;
    }
}

/// Fixed-capacity index vector used for hash indexes (k ≤ 16 in all our
/// configurations); avoids allocation in the hot insert path.
#[derive(Debug)]
pub struct SmallIdxVec {
    buf: [usize; 16],
    len: usize,
}

impl FromIterator<usize> for SmallIdxVec {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut v = SmallIdxVec {
            buf: [0; 16],
            len: 0,
        };
        for x in iter {
            assert!(
                v.len < 16,
                "Bloom filter supports at most 16 hash functions"
            );
            v.buf[v.len] = x;
            v.len += 1;
        }
        v
    }
}

impl IntoIterator for SmallIdxVec {
    type Item = usize;
    type IntoIter = std::iter::Take<std::array::IntoIter<usize, 16>>;
    fn into_iter(self) -> Self::IntoIter {
        self.buf.into_iter().take(self.len)
    }
}

/// Windowed miss-probability estimator (paper Appendix A), with one
/// refinement: **two Bloom generations**. A probe key counts as a (future)
/// miss only if it is new to *both* the current and the previous `W_d`-tuple
/// window. The paper's single-window estimate systematically overestimates
/// the miss probability of keys that recur just past a window boundary — in
/// particular the guaranteed re-probe of every key when its tuple expires
/// from a sliding window (Figure 6's "one opportunity for a cache hit"),
/// which the single window almost always misclassifies as distinct.
///
/// Feed it every probe value seen by a (virtual) `CacheLookup` operator;
/// every `W_d` tuples it closes an observation (new keys ÷ probes) and
/// rotates generations. The average of the last `W` observations (kept by
/// the caller in a [`crate::stats::WindowStat`]) is the online estimate.
#[derive(Debug, Clone)]
pub struct MissProbEstimator {
    current: BloomFilter,
    previous: BloomFilter,
    window: usize,
    seen: usize,
    new_keys: usize,
}

impl MissProbEstimator {
    /// `window` = `W_d` tuples per observation.
    pub fn new(window: usize) -> Self {
        MissProbEstimator {
            current: BloomFilter::for_miss_estimation(window),
            previous: BloomFilter::for_miss_estimation(window),
            window: window.max(1),
            seen: 0,
            new_keys: 0,
        }
    }

    /// Observe one probe key (pre-hashed). Returns `Some(miss_prob)` when a
    /// window of `W_d` tuples completes.
    pub fn observe(&mut self, key_hash: u64) -> Option<f64> {
        let seen_before = self.previous.contains(key_hash) || self.current.contains(key_hash);
        self.current.insert(key_hash);
        if !seen_before {
            self.new_keys += 1;
        }
        self.seen += 1;
        if self.seen >= self.window {
            let obs = (self.new_keys as f64 / self.seen as f64).clamp(0.0, 1.0);
            std::mem::swap(&mut self.current, &mut self.previous);
            self.current.clear();
            self.seen = 0;
            self.new_keys = 0;
            Some(obs)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::new(1024, 3);
        for i in 0..100 {
            assert!(!f.contains(i));
        }
        assert_eq!(f.set_bits(), 0);
    }

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(4096, 4);
        for i in 0..200u64 {
            f.insert(i * 7919);
        }
        for i in 0..200u64 {
            assert!(f.contains(i * 7919), "false negative for {i}");
        }
    }

    #[test]
    fn insert_reports_novelty() {
        let mut f = BloomFilter::new(1 << 16, 2);
        assert!(f.insert(42));
        assert!(!f.insert(42), "re-insert must not set new bits");
    }

    #[test]
    fn set_bits_track_distinct_count_when_sparse() {
        let mut f = BloomFilter::new(1 << 14, 1);
        let n = 500u64;
        for i in 0..n {
            f.insert(i);
            f.insert(i); // duplicates must not inflate the count
        }
        let b = f.set_bits() as f64;
        assert!(
            (b - n as f64).abs() / (n as f64) < 0.05,
            "{b} set bits vs {n} distinct items"
        );
    }

    #[test]
    fn clear_resets() {
        let mut f = BloomFilter::new(256, 2);
        f.insert(1);
        f.insert(2);
        assert!(f.set_bits() > 0);
        f.clear();
        assert_eq!(f.set_bits(), 0);
        assert!(!f.contains(1));
    }

    #[test]
    fn miss_prob_all_distinct_is_one() {
        let mut e = MissProbEstimator::new(100);
        let mut got = None;
        for i in 0..100u64 {
            if let Some(o) = e.observe(fx_hash_u64(i)) {
                got = Some(o);
            }
        }
        let miss = got.expect("window should have closed");
        assert!(
            miss > 0.9,
            "all-distinct stream must estimate near 1.0, got {miss}"
        );
    }

    #[test]
    fn miss_prob_single_value_is_low() {
        let mut e = MissProbEstimator::new(100);
        let mut got = None;
        for _ in 0..100 {
            if let Some(o) = e.observe(fx_hash_u64(777)) {
                got = Some(o);
            }
        }
        let miss = got.expect("window should have closed");
        assert!(
            miss < 0.05,
            "constant stream must estimate near 1/W_d, got {miss}"
        );
    }

    #[test]
    fn miss_prob_multiplicity_r() {
        // r repetitions of each key => miss prob ~ 1/r.
        for r in [2usize, 5, 10] {
            let mut e = MissProbEstimator::new(1000);
            let mut got = None;
            for i in 0..1000usize {
                if let Some(o) = e.observe(fx_hash_u64((i / r) as u64)) {
                    got = Some(o);
                }
            }
            let miss = got.unwrap();
            let expect = 1.0 / r as f64;
            assert!(
                (miss - expect).abs() < 0.05,
                "r={r}: estimated {miss}, expected {expect}"
            );
        }
    }

    #[test]
    fn estimator_resets_between_windows() {
        let mut e = MissProbEstimator::new(10);
        // First window: constant key.
        let mut first = None;
        for _ in 0..10 {
            first = e.observe(1).or(first);
        }
        assert!(first.unwrap() <= 0.2);
        // Second window: all distinct; the previous window's bits must be gone.
        let mut second = None;
        for i in 0..10u64 {
            if let Some(o) = e.observe(fx_hash_u64(1000 + i)) {
                second = Some(o);
            }
        }
        assert!(second.unwrap() > 0.8);
    }
}
