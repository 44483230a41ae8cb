//! Drive executors over update streams and measure steady-state rates.
//! The plain MJoin baseline `M` is an engine run with
//! [`crate::plans::config_m`].

use acq::engine::AdaptiveJoinEngine;
use acq_mjoin::xjoin::XJoin;
use acq_stream::Update;

/// Outcome of one measured run.
#[derive(Debug, Clone, Copy)]
pub struct RunStats {
    /// Updates processed in the measured window.
    pub tuples: u64,
    /// Virtual seconds elapsed in the measured window.
    pub secs: f64,
    /// Tuples per virtual second (the paper's y-axis).
    pub rate: f64,
    /// Result deltas emitted during the whole run.
    pub outputs: u64,
    /// Cache hits (engines only).
    pub cache_hits: u64,
    /// Cache misses (engines only).
    pub cache_misses: u64,
    /// Cache memory bytes at end of run (engines only).
    pub cache_bytes: usize,
}

impl RunStats {
    fn from_window(tuples: u64, ns: u64) -> RunStats {
        let secs = ns as f64 / 1e9;
        RunStats {
            tuples,
            secs,
            rate: if secs > 0.0 {
                tuples as f64 / secs
            } else {
                0.0
            },
            outputs: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_bytes: 0,
        }
    }
}

/// Run an [`AdaptiveJoinEngine`] over `updates`, measuring the post-warmup
/// window (`warmup_frac` of the stream is excluded from rate measurement).
pub fn run_engine(
    engine: &mut AdaptiveJoinEngine,
    updates: &[Update],
    warmup_frac: f64,
) -> RunStats {
    let warm = (updates.len() as f64 * warmup_frac.clamp(0.0, 0.95)) as usize;
    for u in &updates[..warm] {
        engine.process(u);
    }
    let t0 = engine.counters().tuples_processed;
    let ns0 = engine.core().now_ns();
    for u in &updates[warm..] {
        engine.process(u);
    }
    let t1 = engine.counters().tuples_processed;
    let ns1 = engine.core().now_ns();
    let mut s = RunStats::from_window(t1 - t0, ns1 - ns0);
    s.outputs = engine.counters().outputs_emitted;
    s.cache_hits = engine.counters().cache_hits;
    s.cache_misses = engine.counters().cache_misses;
    s.cache_bytes = engine.cache_memory_bytes();
    s
}

/// Run an [`XJoin`] baseline the same way.
pub fn run_xjoin(x: &mut XJoin, updates: &[Update], warmup_frac: f64) -> RunStats {
    let warm = (updates.len() as f64 * warmup_frac.clamp(0.0, 0.95)) as usize;
    for u in &updates[..warm] {
        x.process(u);
    }
    let t0 = x.tuples_processed();
    let ns0 = x.core().now_ns();
    for u in &updates[warm..] {
        x.process(u);
    }
    let mut s = RunStats::from_window(x.tuples_processed() - t0, x.core().now_ns() - ns0);
    s.outputs = x.outputs_emitted();
    s.cache_bytes = x.materialized_bytes();
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plans::config_m;
    use acq_gen::spec::chain3_default;
    use acq_mjoin::plan::PlanOrders;
    use acq_mjoin::xjoin::JoinTree;
    use acq_stream::{QuerySchema, RelId};

    #[test]
    fn engine_and_xjoin_runners_measure() {
        let q = QuerySchema::chain3();
        let w = chain3_default(3, 30, 5).generate(600);
        let mut e =
            AdaptiveJoinEngine::with_config(q.clone(), PlanOrders::identity(&q), config_m());
        let se = run_engine(&mut e, &w, 0.2);
        assert!(se.rate > 0.0);
        assert!(se.tuples > 0);

        let mut x = XJoin::new(
            q.clone(),
            JoinTree::left_deep(&[RelId(0), RelId(1), RelId(2)]),
        );
        let sx = run_xjoin(&mut x, &w, 0.2);
        assert!(sx.rate > 0.0);
        assert_eq!(se.outputs, sx.outputs, "same deltas regardless of executor");
    }
}
