//! Figure 9 — varying the number of joining relations.
//!
//! n-way star equijoin `R_1(A) ⋈_A … ⋈_A R_n(A)`, n = 3..9. Per §7.2, the
//! join-attribute multiplicity is 1 for ⌊n/2⌋ of the streams and 5 for the
//! others. Full A-Caching (adaptive selection over all candidates — identity
//! orders yield the paper's `(n−1)(n−2)/2` candidate family, e.g. 15
//! candidates for the 7-way join) versus the plain MJoin.

use acq::engine::{AdaptiveJoinEngine, EngineConfig, ReoptInterval, SelectionStrategy};
use acq_bench::plans::config_m;
use acq_bench::report::{write_csv, Table};
use acq_bench::runner::run_engine;
use acq_gen::column::ColumnGen;
use acq_gen::spec::{StreamSpec, Workload};
use acq_mjoin::plan::PlanOrders;
use acq_stream::QuerySchema;

fn main() {
    let window = 60usize;
    let total = 250_000usize;
    let ns: Vec<usize> = (3..=9).collect();

    let mut cached = Vec::new();
    let mut mjoin = Vec::new();
    let mut ratios = Vec::new();
    let mut used_counts = Vec::new();
    let mut candidate_counts = Vec::new();

    for (i, &n) in ns.iter().enumerate() {
        let q = QuerySchema::star(n);
        // Block-random join values over a common domain, independent across
        // streams (so star fanouts don't phase-lock and multiply);
        // multiplicity-5 streams repeat each drawn value 5× consecutively —
        // the cache-hit-probability knob of §7.2.
        let streams: Vec<StreamSpec> = (0..n as u16)
            .map(|r| {
                // First ⌊n/2⌋ streams multiplicity 1, the rest 5.
                let mult = if (r as usize) < n / 2 { 1 } else { 5 };
                let join_col = ColumnGen::BlockRandom {
                    domain: window as u64,
                    repeat: mult,
                    salt: 0xA5A5_0000 + r as u64,
                };
                StreamSpec::new(r, 1.0, window, vec![join_col, ColumnGen::seq()])
            })
            .collect();
        let updates = Workload::new(streams, 0xF190 + i as u64).generate(total);

        let cfg = EngineConfig {
            selection: SelectionStrategy::Auto,
            reopt_interval: ReoptInterval::VirtualNs(2_000_000_000),
            ..Default::default()
        };
        let mut engine = AdaptiveJoinEngine::with_config(q.clone(), PlanOrders::identity(&q), cfg);
        candidate_counts.push(engine.candidate_states().len() as f64);
        let sc = run_engine(&mut engine, &updates, 0.25);
        used_counts.push(engine.used_caches().len() as f64);

        let mut m =
            AdaptiveJoinEngine::with_config(q.clone(), PlanOrders::identity(&q), config_m());
        let sm = run_engine(&mut m, &updates, 0.25);
        cached.push(sc.rate);
        mjoin.push(sm.rate);
        ratios.push(sm.rate / sc.rate);
    }

    let mut t = Table::new(
        "Figure 9: varying number of joining relations",
        "n",
        ns.iter().map(|&n| n as f64).collect(),
    );
    t.push_series("With caches (t/s)", cached);
    t.push_series("MJoin (t/s)", mjoin);
    t.push_series("ratio MJoin/cached", ratios);
    t.push_series("caches used", used_counts);
    t.push_series("candidates", candidate_counts);
    print!("{}", t.render());
    if let Some(p) = write_csv(&t, "fig09_num_joins") {
        eprintln!("wrote {}", p.display());
    }
}
