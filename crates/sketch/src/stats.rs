//! Sliding-window statistics.
//!
//! Table 1 of the paper: *"Our online estimate for any statistic is the
//! average of its `W` most recent measurements"* (default `W = 10`, §7.1).
//! [`WindowStat`] implements exactly that — a ring buffer of the last `W`
//! observations with O(1) push and O(1) sum/average.

/// Ring buffer of the `W` most recent `f64` observations.
#[derive(Debug, Clone)]
pub struct WindowStat {
    buf: Vec<f64>,
    capacity: usize,
    next: usize,
    len: usize,
    sum: f64,
}

impl WindowStat {
    /// Create a window keeping the last `w` observations.
    ///
    /// # Panics
    /// Panics if `w == 0`.
    pub fn new(w: usize) -> Self {
        assert!(w > 0, "window size W must be positive");
        WindowStat {
            buf: vec![0.0; w],
            capacity: w,
            next: 0,
            len: 0,
            sum: 0.0,
        }
    }

    /// Record one observation, evicting the oldest if the window is full.
    pub fn push(&mut self, x: f64) {
        if self.len == self.capacity {
            self.sum -= self.buf[self.next];
        } else {
            self.len += 1;
        }
        self.buf[self.next] = x;
        self.sum += x;
        // Wrap with a compare instead of `%`: an integer division per
        // observation is measurable on per-tuple paths.
        self.next += 1;
        if self.next == self.capacity {
            self.next = 0;
        }
    }

    /// Average of the observations currently in the window; `None` if empty.
    pub fn average(&self) -> Option<f64> {
        if self.len == 0 {
            None
        } else {
            Some(self.sum / self.len as f64)
        }
    }

    /// Average, defaulting to `default` when no observations exist yet.
    pub fn average_or(&self, default: f64) -> f64 {
        self.average().unwrap_or(default)
    }

    /// Sum of the observations in the window (`sum(δ_j)` in Appendix A).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Number of observations currently held (≤ W).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True once at least `W` observations have been recorded — §4.5 step 2
    /// waits for this before trusting a profiled cache's statistics.
    pub fn is_warm(&self) -> bool {
        self.len == self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_average_basic() {
        let mut w = WindowStat::new(3);
        assert!(w.average().is_none());
        assert_eq!(w.average_or(7.0), 7.0);
        assert!(w.is_empty());
        w.push(1.0);
        w.push(2.0);
        assert_eq!(w.average(), Some(1.5));
        assert!(!w.is_warm());
        w.push(3.0);
        assert!(w.is_warm());
        assert_eq!(w.average(), Some(2.0));
    }

    #[test]
    fn window_evicts_oldest() {
        let mut w = WindowStat::new(3);
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            w.push(x);
        }
        assert_eq!(w.len(), 3);
        assert_eq!(w.average(), Some(4.0)); // 3,4,5
        assert_eq!(w.sum(), 12.0);
    }

    #[test]
    fn window_of_one() {
        let mut w = WindowStat::new(1);
        w.push(1.0);
        w.push(9.0);
        assert_eq!(w.average(), Some(9.0));
        assert!(w.is_warm());
    }

    #[test]
    #[should_panic(expected = "window size W must be positive")]
    fn window_zero_panics() {
        let _ = WindowStat::new(0);
    }

    #[test]
    fn window_sum_stays_accurate_after_many_evictions() {
        // Numerical drift check: running sum must track a fresh recomputation.
        let x = |i: u64| (i % 977) as f64 * 0.1;
        let mut w = WindowStat::new(10);
        for i in 0..100_000u64 {
            w.push(x(i));
        }
        let expect: f64 = (99_990..100_000).map(x).sum();
        assert!((w.sum() - expect).abs() < 1e-6);
    }
}
