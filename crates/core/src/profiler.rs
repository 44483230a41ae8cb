//! The Profiler (§4.3, Appendix A): online estimation of `d_ij`, `c_ij`,
//! stream rates, and cache miss probabilities.
//!
//! *"We maintain online estimates of `d_ij` and `c_ij` by tracking the
//! complete processing of a sample of tuples entering the i-th pipeline. For
//! each profiled tuple, we measure the number of tuples processed by each
//! join operator `./_ij` in the pipeline and the total time spent in
//! `./_ij`. We keep track of the last W measurements."* Profiled tuples
//! bypass caches in their pipeline so the full per-operator profile is
//! observable.
//!
//! `d_ij = rate(R_i) × sum(δ_j) / W` and `c_ij = sum(τ_j) / sum(δ_j)`.
//! Position `n−1` (one past the last operator) records pipeline *output*
//! counts, giving `d_{i,k+1}` for segments ending at the pipeline tail.

use acq_sketch::bloom::MissProbEstimator;
use acq_sketch::WindowStat;
use acq_stream::RelId;

/// Profiler configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProfilerConfig {
    /// Statistics window `W` (paper default 10).
    pub w: usize,
    /// Profile every k-th tuple entering a pipeline (deterministic sampling;
    /// the paper samples with probability `p_i` — a fixed stride keeps runs
    /// reproducible at the same expected overhead).
    pub profile_every: u64,
    /// Bloom observation window `W_d` (tuples per miss-prob observation;
    /// each filter holds [`acq_sketch::bloom::MISS_ESTIMATION_ALPHA`]` · W_d`
    /// bits).
    pub bloom_window: usize,
}

impl Default for ProfilerConfig {
    fn default() -> ProfilerConfig {
        ProfilerConfig {
            w: 10,
            profile_every: 8,
            bloom_window: 600,
        }
    }
}

/// Per-pipeline profile: a `WindowStat` pair per operator position, plus an
/// extra position for pipeline outputs.
#[derive(Debug)]
struct PipelineProfile {
    /// `δ_j`: tuples processed by position `j` per profiled input tuple.
    delta: Vec<WindowStat>,
    /// `τ_j`: virtual ns spent at position `j` per profiled input tuple.
    tau: Vec<WindowStat>,
    counter: u64,
}

impl PipelineProfile {
    fn new(num_ops: usize, w: usize) -> PipelineProfile {
        PipelineProfile {
            delta: (0..=num_ops).map(|_| WindowStat::new(w)).collect(),
            tau: (0..=num_ops).map(|_| WindowStat::new(w)).collect(),
            counter: 0,
        }
    }
}

/// The Profiler.
#[derive(Debug)]
pub struct Profiler {
    config: ProfilerConfig,
    pipelines: Vec<PipelineProfile>,
    update_counts: Vec<u64>,
    rates: Vec<f64>,
    epoch_start_ns: u64,
}

impl Profiler {
    /// `num_ops[i]` = operators in pipeline `i` (normally `n − 1` each).
    pub fn new(config: ProfilerConfig, num_ops: &[usize]) -> Profiler {
        Profiler {
            pipelines: num_ops
                .iter()
                .map(|&k| PipelineProfile::new(k, config.w))
                .collect(),
            update_counts: vec![0; num_ops.len()],
            rates: vec![0.0; num_ops.len()],
            epoch_start_ns: 0,
            config,
        }
    }

    /// Configuration in effect.
    pub fn config(&self) -> &ProfilerConfig {
        &self.config
    }

    /// Decide (and count) whether the next tuple entering pipeline `i` is
    /// profiled.
    pub fn should_profile(&mut self, i: RelId) -> bool {
        let p = &mut self.pipelines[i.0 as usize];
        let profiled = p.counter.is_multiple_of(self.config.profile_every);
        p.counter += 1;
        profiled
    }

    /// Record a profiled tuple's measurements: one `(tuples, ns)` pair per
    /// operator position, plus a final `(outputs, 0)` entry.
    pub fn record_profiled(&mut self, i: RelId, per_op: &[(f64, u64)]) {
        let p = &mut self.pipelines[i.0 as usize];
        assert_eq!(
            per_op.len(),
            p.delta.len(),
            "one entry per position + outputs"
        );
        for (j, &(tuples, ns)) in per_op.iter().enumerate() {
            p.delta[j].push(tuples);
            p.tau[j].push(ns as f64);
        }
    }

    /// Record one update arriving on `∆R_i` (rate estimation).
    pub fn record_update(&mut self, i: RelId) {
        self.update_counts[i.0 as usize] += 1;
    }

    /// Close the rate epoch at virtual time `now_ns`, refreshing
    /// `rate(R_i)` estimates.
    pub fn roll_rates(&mut self, now_ns: u64) {
        let span = ((now_ns.saturating_sub(self.epoch_start_ns)) as f64 / 1e9).max(1e-9);
        for (r, c) in self.rates.iter_mut().zip(self.update_counts.iter_mut()) {
            *r = *c as f64 / span;
            *c = 0;
        }
        self.epoch_start_ns = now_ns;
    }

    /// Current `rate(R_i)` (updates per virtual second).
    pub fn rate(&self, i: RelId) -> f64 {
        self.rates[i.0 as usize]
    }

    /// `d_ij`: tuples per unit time processed by operator `j` of pipeline
    /// `i`. Position `num_ops` gives the pipeline output rate (`d_{i,n}`).
    pub fn d(&self, i: RelId, j: usize) -> f64 {
        let p = &self.pipelines[i.0 as usize];
        self.rates[i.0 as usize] * p.delta[j].average_or(if j == 0 { 1.0 } else { 0.0 })
    }

    /// `c_ij`: ns per tuple at operator `j` of pipeline `i`
    /// (`sum(τ_j)/sum(δ_j)`, Appendix A).
    pub fn c(&self, i: RelId, j: usize) -> f64 {
        let p = &self.pipelines[i.0 as usize];
        let d = p.delta[j].sum();
        if d <= 0.0 {
            0.0
        } else {
            p.tau[j].sum() / d
        }
    }

    /// `d_ij · c_ij`, the unit-time processing cost of one operator.
    pub fn op_proc(&self, i: RelId, j: usize) -> f64 {
        self.d(i, j) * self.c(i, j)
    }

    /// Are all per-operator windows of pipeline `i` warm (≥ W observations,
    /// §4.5 step 2)?
    pub fn pipeline_warm(&self, i: RelId) -> bool {
        let p = &self.pipelines[i.0 as usize];
        p.delta.iter().all(WindowStat::is_warm)
    }

    /// Reset pipeline `i`'s statistics (after reordering, §4.5 step 5).
    pub fn reset_pipeline(&mut self, i: RelId, num_ops: usize) {
        self.pipelines[i.0 as usize] = PipelineProfile::new(num_ops, self.config.w);
    }

    /// A fresh miss-probability estimator for one candidate.
    pub fn new_miss_estimator(&self) -> MissProbEstimator {
        MissProbEstimator::new(self.config.bloom_window)
    }

    /// Emit the profiler's current estimates into a snapshot.
    ///
    /// Per pipeline `i`: `profiler.rate` (gauge, updates per virtual second
    /// — extensive, sums across shards) and `profiler.warm` (ratio of warm
    /// pipelines). Per position `j`: `profiler.d` (the paper's `d_ij`, as a
    /// ratio over the shard count so a cross-shard merge averages it) and
    /// `profiler.c` (the paper's `c_ij = Σd_j / Σδ_j`, merged component-wise
    /// so the quotient stays a properly weighted per-tuple cost).
    pub fn snapshot_into(&self, s: &mut acq_telemetry::TelemetrySnapshot) {
        let mut warm = 0u64;
        for (i, p) in self.pipelines.iter().enumerate() {
            let rel = RelId(i as u16);
            let pl = i.to_string();
            s.gauge("profiler.rate", &[("pipeline", &pl)], self.rates[i]);
            if self.pipeline_warm(rel) {
                warm += 1;
            }
            for j in 0..p.delta.len() {
                let pos = j.to_string();
                let labels: [(&str, &str); 2] = [("pipeline", &pl), ("pos", &pos)];
                s.ratio("profiler.d", &labels, self.d(rel, j), 1.0);
                s.ratio("profiler.c", &labels, p.tau[j].sum(), p.delta[j].sum());
            }
        }
        s.ratio("profiler.warm", &[], warm as f64, self.pipelines.len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiler() -> Profiler {
        Profiler::new(ProfilerConfig::default(), &[2, 2, 2])
    }

    #[test]
    fn stride_sampling() {
        let mut p = Profiler::new(
            ProfilerConfig {
                profile_every: 4,
                ..Default::default()
            },
            &[2],
        );
        let profiled: Vec<bool> = (0..8).map(|_| p.should_profile(RelId(0))).collect();
        assert_eq!(
            profiled,
            vec![true, false, false, false, true, false, false, false]
        );
    }

    #[test]
    fn d_and_c_from_profiles() {
        let mut p = profiler();
        // 100 updates in 1 virtual second → rate 100/s.
        for _ in 0..100 {
            p.record_update(RelId(0));
        }
        p.roll_rates(1_000_000_000);
        assert!((p.rate(RelId(0)) - 100.0).abs() < 1e-9);
        // Profiled tuples: op0 sees 1 tuple costing 500ns, fanning out to 3;
        // op1 sees 3 tuples costing 300ns total; 6 outputs.
        for _ in 0..10 {
            p.record_profiled(RelId(0), &[(1.0, 500), (3.0, 300), (6.0, 0)]);
        }
        assert!((p.d(RelId(0), 0) - 100.0).abs() < 1e-9);
        assert!((p.d(RelId(0), 1) - 300.0).abs() < 1e-9);
        assert!((p.d(RelId(0), 2) - 600.0).abs() < 1e-9, "output rate");
        assert!((p.c(RelId(0), 0) - 500.0).abs() < 1e-9);
        assert!((p.c(RelId(0), 1) - 100.0).abs() < 1e-9);
        assert!((p.op_proc(RelId(0), 1) - 300.0 * 100.0).abs() < 1e-6);
    }

    #[test]
    fn warmness_requires_w_observations() {
        let mut p = profiler();
        assert!(!p.pipeline_warm(RelId(0)));
        for _ in 0..9 {
            p.record_profiled(RelId(0), &[(1.0, 10), (1.0, 10), (1.0, 0)]);
        }
        assert!(!p.pipeline_warm(RelId(0)), "9 < W = 10");
        p.record_profiled(RelId(0), &[(1.0, 10), (1.0, 10), (1.0, 0)]);
        assert!(p.pipeline_warm(RelId(0)));
        assert!(!p.pipeline_warm(RelId(1)), "windows are per pipeline");
    }

    #[test]
    fn rates_roll_per_epoch() {
        let mut p = profiler();
        for _ in 0..50 {
            p.record_update(RelId(1));
        }
        p.roll_rates(500_000_000); // 0.5s → 100/s
        assert!((p.rate(RelId(1)) - 100.0).abs() < 1e-9);
        p.roll_rates(1_000_000_000); // no new updates → 0
        assert_eq!(p.rate(RelId(1)), 0.0);
    }

    #[test]
    fn reset_pipeline_clears_windows() {
        let mut p = profiler();
        for _ in 0..10 {
            p.record_profiled(RelId(2), &[(1.0, 10), (2.0, 10), (2.0, 0)]);
        }
        assert!(p.pipeline_warm(RelId(2)));
        p.reset_pipeline(RelId(2), 2);
        assert!(!p.pipeline_warm(RelId(2)));
        assert_eq!(p.d(RelId(2), 1), 0.0);
    }

    #[test]
    fn windowed_estimates_track_recent_behaviour() {
        let mut p = profiler();
        for _ in 0..100 {
            p.record_update(RelId(0));
        }
        p.roll_rates(1_000_000_000);
        // Old regime: fanout 10. New regime: fanout 1. After W new
        // observations the estimate must reflect only the new regime.
        for _ in 0..10 {
            p.record_profiled(RelId(0), &[(1.0, 100), (10.0, 1000), (10.0, 0)]);
        }
        assert!((p.d(RelId(0), 1) - 1000.0).abs() < 1e-6);
        for _ in 0..10 {
            p.record_profiled(RelId(0), &[(1.0, 100), (1.0, 100), (1.0, 0)]);
        }
        assert!((p.d(RelId(0), 1) - 100.0).abs() < 1e-6);
    }
}
