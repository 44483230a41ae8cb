//! Figure 11 + Table 2 — performance of the four plan families at sample
//! points D1–D8.
//!
//! 4-way star join `R(A) ⋈ S(A) ⋈ T(A) ⋈ U(A)`; per point, relative rates
//! and pairwise selectivities from Table 2 (realized with the fitted
//! hot-value generator). Plans: `M` (best MJoin: A-Greedy orders, run on
//! the engine with caching off), `X` (best
//! XJoin via exhaustive tree search), `P` (A-Caching with the prefix
//! invariant, exhaustive selection), `G` (with globally-consistent caches,
//! m = 6). All plans get unconstrained memory (§7.3).

use acq::engine::AdaptiveJoinEngine;
use acq_bench::plans::{best_mjoin_orders, config_g, config_m, config_p, make_stats};
use acq_bench::report::{write_csv, Table};
use acq_bench::runner::{run_engine, run_xjoin};
use acq_gen::table2::TABLE2;
use acq_mjoin::xjoin::{best_tree, XJoin};
use acq_stream::QuerySchema;

fn main() {
    let window = 200usize;
    let total = 120_000usize;
    let q = QuerySchema::star(4);

    let mut m_rates = Vec::new();
    let mut x_rates = Vec::new();
    let mut p_rates = Vec::new();
    let mut g_rates = Vec::new();

    for (i, point) in TABLE2.iter().enumerate() {
        let workload = point.workload(window, 0xF1B0 + i as u64);
        let updates = workload.generate(total);
        let stats = make_stats(&point.rates, &[window; 4], point.sel_matrix());
        let orders = best_mjoin_orders(&q, &stats);

        // M: best MJoin.
        let mut m = AdaptiveJoinEngine::with_config(q.clone(), orders.clone(), config_m());
        let sm = run_engine(&mut m, &updates, 0.25);

        // X: best XJoin by exhaustive tree search over estimated cost.
        let tree = best_tree(&q, &stats, None).expect("some tree");
        let mut x = XJoin::new(q.clone(), tree.clone());
        let sx = run_xjoin(&mut x, &updates, 0.25);

        // P: prefix-invariant A-Caching.
        let mut pe = AdaptiveJoinEngine::with_config(q.clone(), orders.clone(), config_p());
        let sp = run_engine(&mut pe, &updates, 0.25);

        // G: + globally-consistent caches (m = 6).
        let mut ge = AdaptiveJoinEngine::with_config(q.clone(), orders.clone(), config_g(6));
        let sg = run_engine(&mut ge, &updates, 0.25);

        eprintln!(
            "{}: M {:.0} X {:.0} (tree {tree}, {} rows) P {:.0} ({:?}) G {:.0} ({:?})",
            point.name,
            sm.rate,
            sx.rate,
            x.materialized_rows(),
            sp.rate,
            pe.used_caches(),
            sg.rate,
            ge.used_caches()
        );
        m_rates.push(sm.rate);
        x_rates.push(sx.rate);
        p_rates.push(sp.rate);
        g_rates.push(sg.rate);
    }

    let mut t = Table::new(
        "Figure 11 / Table 2: plan spectrum at sample points D1-D8",
        "point",
        (1..=TABLE2.len()).map(|i| i as f64).collect(),
    );
    t.push_series("M (t/s)", m_rates);
    t.push_series("X (t/s)", x_rates);
    t.push_series("P (t/s)", p_rates);
    t.push_series("G (t/s)", g_rates);
    print!("{}", t.render());
    if let Some(p) = write_csv(&t, "fig11_plan_spectrum") {
        eprintln!("wrote {}", p.display());
    }
}
