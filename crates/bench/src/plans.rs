//! Plan construction helpers for the §7.3 plan-spectrum comparison.

use acq::engine::{CacheMode, EngineConfig, ReoptInterval, SelectionStrategy};
use acq::EnumerationConfig;
use acq_mjoin::ordering::GreedyOrderer;
use acq_mjoin::plan::PlanOrders;
use acq_mjoin::stats::WorkloadStats;
use acq_stream::QuerySchema;

/// Best MJoin orders for the given workload statistics (the paper's `M` is
/// "chosen using the A-Greedy algorithm from \[5\]", §7.3).
pub fn best_mjoin_orders(query: &QuerySchema, stats: &WorkloadStats) -> PlanOrders {
    GreedyOrderer.plan(query, stats)
}

/// Assemble a [`WorkloadStats`] from explicit pieces.
pub fn make_stats(rates: &[f64], windows: &[usize], sel: Vec<Vec<f64>>) -> WorkloadStats {
    WorkloadStats {
        rates: rates.to_vec(),
        sizes: windows.iter().map(|&w| w as f64).collect(),
        sel,
    }
}

/// Engine configuration for the `M` plan: the best MJoin is the engine
/// with caching off — no candidates, no profiling, no re-optimization.
pub fn config_m() -> EngineConfig {
    EngineConfig {
        mode: CacheMode::None,
        ..Default::default()
    }
}

/// Engine configuration for the `P` plan: adaptive prefix-invariant caching
/// with exhaustive selection ("both P and G are chosen by exhaustive
/// search", §7.3).
pub fn config_p() -> EngineConfig {
    EngineConfig {
        selection: SelectionStrategy::Exhaustive,
        reopt_interval: ReoptInterval::VirtualNs(2_000_000_000),
        mode: CacheMode::Adaptive,
        ..Default::default()
    }
}

/// Engine configuration for the `G` plan: `P` plus globally-consistent
/// candidates under the §6 quota `m`.
pub fn config_g(m: usize) -> EngineConfig {
    EngineConfig {
        enumeration: EnumerationConfig {
            enable_global: true,
            max_candidates: m,
        },
        ..config_p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acq_stream::RelId;

    #[test]
    fn best_orders_validate() {
        let q = QuerySchema::star(4);
        let stats = WorkloadStats::uniform(4, 100.0);
        let orders = best_mjoin_orders(&q, &stats);
        orders.validate(&q).unwrap();
    }

    #[test]
    fn plan_configs() {
        let p = config_p();
        let g = config_g(6);
        assert!(!p.enumeration.enable_global);
        assert!(g.enumeration.enable_global);
        assert_eq!(g.enumeration.max_candidates, 6);
        assert_eq!(p.selection, SelectionStrategy::Exhaustive);
        assert_eq!(config_m().mode, CacheMode::None);
    }

    #[test]
    fn make_stats_shapes() {
        let s = make_stats(&[1.0, 2.0], &[10, 20], vec![vec![0.0, 0.1], vec![0.1, 0.0]]);
        assert_eq!(s.sizes[1], 20.0);
        assert!((s.fanout(RelId(0), RelId(1)) - 2.0).abs() < 1e-12);
    }
}
