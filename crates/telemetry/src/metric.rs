//! The live metric primitive: a log-scale histogram.
//!
//! [`Histogram`] is a *hot-path* type: a plain array of integers with a
//! nearly branch-free record method and no allocation after construction.
//! Components embed it as a field and record inline; a
//! [`crate::TelemetrySnapshot`] is assembled from it on demand, off the hot
//! path.

/// Number of histogram buckets: one for zero plus one per power of two up
/// to `2^63`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A base-2 log-scale histogram of `u64` samples.
///
/// Bucket `0` counts exact zeros; bucket `b ≥ 1` counts samples in
/// `[2^(b−1), 2^b)`. Recording is two adds and a `leading_zeros` — cheap
/// enough for per-update paths. Merging across shards sums buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Bucket index for a sample value.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of bucket `b` (the largest sample it accepts).
    pub fn bucket_upper(b: usize) -> u64 {
        if b == 0 {
            0
        } else if b >= 64 {
            u64::MAX
        } else {
            (1u64 << b) - 1
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Histogram::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Per-bucket counts (index = [`Histogram::bucket_of`]).
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Approximate quantile `q ∈ [0, 1]`: the upper bound of the bucket
    /// containing the `q`-th sample. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(Histogram::bucket_upper(b));
            }
        }
        Some(u64::MAX)
    }

    /// Fold another histogram into this one (bucket-wise sum).
    pub fn absorb(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries() {
        // Zero gets its own bucket; powers of two start new buckets.
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(7), 3);
        assert_eq!(Histogram::bucket_of(8), 4);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        // Upper bounds are the last value each bucket accepts.
        assert_eq!(Histogram::bucket_upper(0), 0);
        assert_eq!(Histogram::bucket_upper(1), 1);
        assert_eq!(Histogram::bucket_upper(3), 7);
        assert_eq!(Histogram::bucket_upper(64), u64::MAX);
        for v in [0u64, 1, 2, 3, 5, 100, 1 << 40] {
            let b = Histogram::bucket_of(v);
            assert!(v <= Histogram::bucket_upper(b), "{v} fits its bucket");
            if b > 0 {
                assert!(v > Histogram::bucket_upper(b - 1), "{v} above prior");
            }
        }
    }

    #[test]
    fn histogram_count_sum_mean_quantile() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        for v in [0u64, 1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 106);
        assert!((h.mean() - 21.2).abs() < 1e-9);
        // Median sample is 2 → bucket [2,4) → upper bound 3.
        assert_eq!(h.quantile(0.5), Some(3));
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(127), "100 lives in [64,128)");
    }

    #[test]
    fn histogram_absorb_is_bucketwise_sum() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(1);
        a.record(5);
        b.record(5);
        b.record(1000);
        let mut merged = a.clone();
        merged.absorb(&b);
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.sum(), 1011);
        assert_eq!(merged.buckets()[Histogram::bucket_of(5)], 2);
    }
}
