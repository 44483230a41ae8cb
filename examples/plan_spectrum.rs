//! The MJoin ↔ XJoin spectrum on one workload.
//!
//! Runs the same 4-way star-join update stream through four plans — plain
//! MJoin (the A-Caching engine with caching off), fully materialized XJoin,
//! A-Caching with the prefix invariant, and A-Caching with
//! globally-consistent caches — and compares
//! throughput, state size, and (identical) outputs. A compact version of the
//! paper's Figure 11 experiment you can point at your own workload.
//!
//! Run with: `cargo run --release --example plan_spectrum`

use acq::engine::AdaptiveJoinEngine;
use acq_bench::plans::{best_mjoin_orders, config_g, config_m, config_p, make_stats};
use acq_bench::runner::{run_engine, run_xjoin};
use acq_gen::table2::sample_point;
use acq_mjoin::xjoin::{best_tree, XJoin};
use acq_stream::QuerySchema;

fn main() {
    let q = QuerySchema::star(4);
    let point = sample_point("D1").expect("table 2 point");
    let window = 200;
    println!(
        "workload: Table 2 point {} (rates {:?}, pairwise selectivities {:?})\n",
        point.name, point.rates, point.sel
    );
    let updates = point.workload(window, 99).generate(120_000);
    let stats = make_stats(&point.rates, &[window; 4], point.sel_matrix());
    let orders = best_mjoin_orders(&q, &stats);

    let mut m = AdaptiveJoinEngine::with_config(q.clone(), orders.clone(), config_m());
    let sm = run_engine(&mut m, &updates, 0.25);

    let tree = best_tree(&q, &stats, None).expect("tree");
    println!("best XJoin tree: {tree}");
    let mut x = XJoin::new(q.clone(), tree);
    let sx = run_xjoin(&mut x, &updates, 0.25);

    let mut pe = AdaptiveJoinEngine::with_config(q.clone(), orders.clone(), config_p());
    let sp = run_engine(&mut pe, &updates, 0.25);

    let mut ge = AdaptiveJoinEngine::with_config(q.clone(), orders, config_g(6));
    let sg = run_engine(&mut ge, &updates, 0.25);

    println!(
        "\n{:<28} {:>12} {:>14} {:>10}",
        "plan", "tuples/s", "state bytes", "outputs"
    );
    println!(
        "{:<28} {:>12.0} {:>14} {:>10}",
        "M  (best MJoin)", sm.rate, 0, sm.outputs
    );
    println!(
        "{:<28} {:>12.0} {:>14} {:>10}",
        "X  (best XJoin)",
        sx.rate,
        x.materialized_bytes(),
        sx.outputs
    );
    println!(
        "{:<28} {:>12.0} {:>14} {:>10}",
        "P  (prefix caches)",
        sp.rate,
        pe.cache_memory_bytes(),
        sp.outputs
    );
    println!(
        "{:<28} {:>12.0} {:>14} {:>10}",
        "G  (globally-consistent)",
        sg.rate,
        ge.cache_memory_bytes(),
        sg.outputs
    );
    println!("\nP used {:?}", pe.used_caches());
    println!("G used {:?}", ge.used_caches());

    assert_eq!(sm.outputs, sx.outputs, "all plans compute the same deltas");
    assert_eq!(sm.outputs, sp.outputs);
    assert_eq!(sm.outputs, sg.outputs);
    println!("\nall four plans emitted identical result deltas ✓");
}
