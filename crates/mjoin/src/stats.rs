//! Workload statistics, configured from a generator's specification.
//!
//! Join ordering — both the A-Greedy baseline ordering and the "best XJoin"
//! search — needs stream rates, window sizes, and pairwise join
//! selectivities. [`WorkloadStats`] is that static snapshot.

use acq_stream::RelId;

/// A static snapshot of workload characteristics for an n-way join.
#[derive(Debug, Clone)]
pub struct WorkloadStats {
    /// Update-stream rate per relation (tuples per virtual second; relative
    /// scale suffices).
    pub rates: Vec<f64>,
    /// Expected window cardinality per relation.
    pub sizes: Vec<f64>,
    /// `sel[i][j]`: probability that a random `R_i` tuple joins a random
    /// `R_j` tuple (symmetric; diagonal unused/1.0).
    pub sel: Vec<Vec<f64>>,
}

impl WorkloadStats {
    /// Uniform defaults: unit rates, given window size, selectivity
    /// `1/size` (each probe matches one tuple on average).
    pub fn uniform(n: usize, window: f64) -> WorkloadStats {
        WorkloadStats {
            rates: vec![1.0; n],
            sizes: vec![window; n],
            sel: vec![vec![1.0 / window.max(1.0); n]; n],
        }
    }

    /// Expected matches in `R_j` for one tuple already bound on the other
    /// side of an `i–j` predicate: `sel[i][j] · |R_j|`.
    pub fn fanout(&self, i: RelId, j: RelId) -> f64 {
        self.sel[i.0 as usize][j.0 as usize] * self.sizes[j.0 as usize]
    }

    /// Set a symmetric pairwise selectivity.
    pub fn set_sel(&mut self, i: RelId, j: RelId, s: f64) {
        self.sel[i.0 as usize][j.0 as usize] = s;
        self.sel[j.0 as usize][i.0 as usize] = s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_defaults() {
        let s = WorkloadStats::uniform(3, 100.0);
        assert_eq!(s.rates.len(), 3);
        assert!((s.fanout(RelId(0), RelId(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fanout_uses_target_size() {
        let mut s = WorkloadStats::uniform(3, 100.0);
        s.sizes[2] = 500.0;
        s.set_sel(RelId(0), RelId(2), 0.01);
        assert!((s.fanout(RelId(0), RelId(2)) - 5.0).abs() < 1e-12);
        assert!(
            (s.fanout(RelId(2), RelId(0)) - 1.0).abs() < 1e-12,
            "asymmetric via sizes"
        );
    }
}
