//! Figure 13 — adaptivity to the amount of memory available for join
//! subresults.
//!
//! Sample point D8 (uniform rates, pairwise selectivity 0.001). MJoin keeps
//! no subresults — flat line. The best XJoin needs its full materialization
//! (reported at its observed requirement; infeasible below). Adaptive
//! caching degrades smoothly: the §5 allocator gives pages to caches by net
//! benefit per byte, shrinking or dropping caches as the budget tightens.

use acq::engine::AdaptiveJoinEngine;
use acq::MemoryConfig;
use acq_bench::plans::{best_mjoin_orders, config_g, config_m, make_stats};
use acq_bench::report::{write_csv, write_snapshot, Table};
use acq_bench::runner::{run_engine, run_xjoin};
use acq_gen::table2::sample_point;
use acq_mjoin::xjoin::{best_tree, XJoin};
use acq_stream::QuerySchema;

fn main() {
    let window = 200usize;
    let total = 150_000usize;
    let q = QuerySchema::star(4);
    let point = sample_point("D8").unwrap();
    let updates = point.workload(window, 0xF1D).generate(total);
    let stats = make_stats(&point.rates, &[window; 4], point.sel_matrix());
    let orders = best_mjoin_orders(&q, &stats);

    // MJoin: memory-insensitive baseline.
    let mut m = AdaptiveJoinEngine::with_config(q.clone(), orders.clone(), config_m());
    let sm = run_engine(&mut m, &updates, 0.25);

    // Best XJoin: measure its rate and actual materialization requirement.
    let tree = best_tree(&q, &stats, None).expect("tree");
    let mut x = XJoin::new(q.clone(), tree);
    let sx = run_xjoin(&mut x, &updates, 0.25);
    let xjoin_kb = x.materialized_bytes() as f64 / 1024.0;

    let budgets_kb: Vec<f64> = vec![
        0.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0,
    ];
    let mut adaptive_rates = Vec::new();
    let mut adaptive_mem = Vec::new();
    let mut last_snapshot = None;
    for (i, &kb) in budgets_kb.iter().enumerate() {
        let cfg = acq::engine::EngineConfig {
            memory: MemoryConfig {
                page_bytes: 1024,
                budget_bytes: Some((kb * 1024.0) as usize),
            },
            ..config_g(6)
        };
        let mut e = AdaptiveJoinEngine::with_config(q.clone(), orders.clone(), cfg);
        let s = run_engine(&mut e, &updates, 0.25);
        eprintln!(
            "budget {kb} KB: rate {:.0}, used {:?}, cache mem {} B (seed {i})",
            s.rate,
            e.used_caches(),
            e.cache_memory_bytes()
        );
        adaptive_rates.push(s.rate);
        adaptive_mem.push(e.cache_memory_bytes() as f64 / 1024.0);
        last_snapshot = Some(e.telemetry_snapshot());
    }
    // Snapshot of the largest-budget run (memory.granted_bytes per group).
    if let Some(p) = last_snapshot.and_then(|s| write_snapshot(&s, "fig13_memory")) {
        eprintln!("wrote {}", p.display());
    }

    let mut t = Table::new(
        &format!(
            "Figure 13: adaptivity to memory (D8; XJoin needs ~{xjoin_kb:.1} KB, rate {:.0}; MJoin flat at {:.0})",
            sx.rate, sm.rate
        ),
        "budget KB",
        budgets_kb.clone(),
    );
    t.push_series("Adaptive caching (t/s)", adaptive_rates);
    t.push_series("MJoin (t/s)", vec![sm.rate; budgets_kb.len()]);
    t.push_series(
        "XJoin (t/s, needs full mem)",
        budgets_kb
            .iter()
            .map(|&kb| if kb >= xjoin_kb { sx.rate } else { 0.0 })
            .collect(),
    );
    t.push_series("cache mem used KB", adaptive_mem);
    print!("{}", t.render());
    if let Some(p) = write_csv(&t, "fig13_memory") {
        eprintln!("wrote {}", p.display());
    }
}
