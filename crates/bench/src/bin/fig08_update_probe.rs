//! Figure 8 — varying the cache-update to cache-probe rate ratio.
//!
//! The forced R⋈S cache in ∆T's pipeline is probed at `rate(∆T)` and updated
//! at `rate(∆R) + rate(∆S)`. The x-axis is `rate(R⋈S updates) / rate(∆T)`,
//! swept 0.25..4 by scaling R's and S's arrival rates. The paper finds
//! caching degrades with update rate but stays ahead even past parity.

use acq::engine::{AdaptiveJoinEngine, CacheMode, EngineConfig};
use acq_bench::plans::config_m;
use acq_bench::report::{write_csv, Table};
use acq_bench::runner::run_engine;
use acq_gen::column::ColumnGen;
use acq_gen::spec::{StreamSpec, Workload};
use acq_mjoin::plan::{PipelineOrder, PlanOrders};
use acq_stream::{QuerySchema, RelId};

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
    let window = 100usize;
    let total = 30_000usize;
    let r_mult = 5u64;
    let q = QuerySchema::chain3();
    let xs = [0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0];

    let mut cached = Vec::new();
    let mut mjoin = Vec::new();
    let mut ratios = Vec::new();
    for (i, &x) in xs.iter().enumerate() {
        // rate(∆T) fixed at 1; R and S each at x/2 so their combined update
        // rate is x × rate(∆T). Values cycle over a fixed domain so match
        // probabilities are rate-independent.
        let rs_rate: f64 = (x / 2.0_f64).max(0.01);
        let cyc = |mult: u64| ColumnGen::Seq {
            multiplicity: mult,
            stride: 1,
            offset: 0,
            domain: window as u64,
        };
        let w = Workload::new(
            vec![
                StreamSpec::new(0, rs_rate, window, vec![cyc(1)]),
                StreamSpec::new(1, rs_rate, window, vec![cyc(1), cyc(1)]),
                StreamSpec::new(2, 1.0, window * r_mult as usize, vec![cyc(r_mult)]),
            ],
            0xF180 + i as u64,
        );
        let updates = w.generate(total);

        let cfg = EngineConfig {
            mode: CacheMode::Forced(vec![(RelId(2), vec![RelId(0), RelId(1)])]),
            ..Default::default()
        };
        let mut engine = AdaptiveJoinEngine::with_config(q.clone(), orders(), cfg);
        let sc = run_engine(&mut engine, &updates, 0.2);
        let mut m = AdaptiveJoinEngine::with_config(q.clone(), orders(), config_m());
        let sm = run_engine(&mut m, &updates, 0.2);
        cached.push(sc.rate);
        mjoin.push(sm.rate);
        ratios.push(sm.rate / sc.rate);
    }

    let mut t = Table::new(
        "Figure 8: varying update-to-probe rate ratio",
        "rate(RjoinS)/rate(T)",
        xs.to_vec(),
    );
    t.push_series("With caches (t/s)", cached);
    t.push_series("MJoin (t/s)", mjoin);
    t.push_series("ratio MJoin/cached", ratios);
    print!("{}", t.render());
    if let Some(p) = write_csv(&t, "fig08_update_probe") {
        eprintln!("wrote {}", p.display());
    }
}
