//! Figure 10 — varying join cost (nested-loop joins).
//!
//! The hash index on `S.B` is dropped, forcing ∆T's join with S into a
//! nested-loop scan whose cost is proportional to `|S|`; the S window size
//! varies 100..2000. The paper: *"the relative performance of caching
//! improves significantly with increasing join cost."*

use acq::engine::{AdaptiveJoinEngine, CacheMode, EngineConfig};
use acq_bench::plans::config_m;
use acq_bench::report::{write_csv, Table};
use acq_bench::runner::run_engine;
use acq_gen::spec::chain3_default;
use acq_mjoin::plan::{PipelineOrder, PlanOrders};
use acq_stream::{ColId, QuerySchema, RelId};

fn orders() -> PlanOrders {
    PlanOrders::new(vec![
        PipelineOrder {
            stream: RelId(0),
            order: vec![RelId(1), RelId(2)],
        },
        PipelineOrder {
            stream: RelId(1),
            order: vec![RelId(0), RelId(2)],
        },
        PipelineOrder {
            stream: RelId(2),
            order: vec![RelId(1), RelId(0)],
        },
    ])
}

fn main() {
    let total = 20_000usize;
    let q = QuerySchema::chain3();
    let sizes = [100usize, 250, 500, 1000, 1500, 2000];

    let mut cached = Vec::new();
    let mut mjoin = Vec::new();
    let mut ratios = Vec::new();
    for (i, &s_window) in sizes.iter().enumerate() {
        // R/T windows stay proportional to the default setup; S's window is
        // the x-axis. Base multiplicity r = 5.
        let mut w = chain3_default(5, 100, 0xF1A0 + i as u64);
        w.streams[1].window = s_window;
        let updates = w.generate(total);

        let cfg = EngineConfig {
            mode: CacheMode::Forced(vec![(RelId(2), vec![RelId(0), RelId(1)])]),
            ..Default::default()
        };
        let mut engine = AdaptiveJoinEngine::with_config(q.clone(), orders(), cfg);
        // Drop the S.B index: ∆T's first operator becomes a nested loop.
        engine
            .core_mut()
            .relation_mut(RelId(1))
            .drop_index(ColId(1));
        engine.recompile();
        let sc = run_engine(&mut engine, &updates, 0.2);

        let mut m = AdaptiveJoinEngine::with_config(q.clone(), orders(), config_m());
        m.core_mut().relation_mut(RelId(1)).drop_index(ColId(1));
        m.recompile();
        let sm = run_engine(&mut m, &updates, 0.2);

        cached.push(sc.rate);
        mjoin.push(sm.rate);
        ratios.push(sm.rate / sc.rate);
    }

    let mut t = Table::new(
        "Figure 10: varying join cost (no S.B index; |S| window swept)",
        "|S| window",
        sizes.iter().map(|&s| s as f64).collect(),
    );
    t.push_series("With caches (t/s)", cached);
    t.push_series("MJoin (t/s)", mjoin);
    t.push_series("ratio MJoin/cached", ratios);
    print!("{}", t.render());
    if let Some(p) = write_csv(&t, "fig10_join_cost") {
        eprintln!("wrote {}", p.display());
    }
}
