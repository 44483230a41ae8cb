//! Figure 7 — varying join selectivity (multiplicity) in ∆T's pipeline.
//!
//! The number of `R ⋈ S` tuples joining each `∆T` tuple varies 0..4. Values
//! cycle over a fixed domain (windows sized to cover exactly one cycle) so
//! the match probability is set purely by multiplicities, independent of
//! arrival rates: integer selectivities via `S` multiplicity `m` (each
//! A/B value appears in `m` S tuples), 0.5 via stride-2 S values (T probes
//! odd values in vain), 0 via disjoint domains. `T.B` keeps multiplicity 5.
//! The paper's observation: caching wins across the whole range, least near
//! selectivity 1 (hits save little there, and misses insert little).

use acq::engine::{AdaptiveJoinEngine, CacheMode, EngineConfig};
use acq_bench::plans::config_m;
use acq_bench::report::{write_csv, Table};
use acq_bench::runner::run_engine;
use acq_gen::column::ColumnGen;
use acq_gen::spec::{StreamSpec, Workload};
use acq_mjoin::plan::{PipelineOrder, PlanOrders};
use acq_stream::{QuerySchema, RelId};

const DOMAIN: u64 = 100;

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

fn cyc(mult: u64, stride: u64, offset: i64, domain: u64) -> ColumnGen {
    ColumnGen::Seq {
        multiplicity: mult,
        stride,
        offset,
        domain,
    }
}

/// Build the workload for one target ∆T selectivity.
fn workload(sel: f64, seed: u64) -> Workload {
    let r = 5u64; // T.B multiplicity (default)
    let (s_cols, s_window) = if sel == 0.0 {
        // T.B still matches S (the ∆T pipeline does real work), but S.A is
        // disjoint from R.A, so zero R⋈S tuples join any ∆T tuple — the
        // cached (empty) entries skip the whole wasted segment.
        (
            vec![cyc(1, 1, -1_000_000_000, DOMAIN), cyc(1, 1, 0, DOMAIN)],
            DOMAIN as usize,
        )
    } else if sel < 1.0 {
        // S covers only even values; T probes all → half match.
        (
            vec![cyc(1, 2, 0, DOMAIN / 2), cyc(1, 2, 0, DOMAIN / 2)],
            (DOMAIN / 2) as usize,
        )
    } else {
        // Each value appears in `sel` S tuples.
        let m = sel as u64;
        (
            vec![cyc(m, 1, 0, DOMAIN), cyc(m, 1, 0, DOMAIN)],
            (DOMAIN * m) as usize,
        )
    };
    Workload::new(
        vec![
            StreamSpec::new(0, 1.0, DOMAIN as usize, vec![cyc(1, 1, 0, DOMAIN)]),
            StreamSpec::new(1, 1.0, s_window, s_cols),
            StreamSpec::new(
                2,
                r as f64,
                (DOMAIN * r) as usize,
                vec![cyc(r, 1, 0, DOMAIN)],
            ),
        ],
        seed,
    )
}

fn main() {
    let total = 30_000usize;
    let q = QuerySchema::chain3();
    let sels = [0.0, 0.5, 1.0, 2.0, 3.0, 4.0];

    let mut cached = Vec::new();
    let mut mjoin = Vec::new();
    let mut ratios = Vec::new();
    for (i, &sel) in sels.iter().enumerate() {
        let updates = workload(sel, 0xF170 + i as u64).generate(total);
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
        "Figure 7: varying join selectivity for T tuples",
        "selectivity",
        sels.to_vec(),
    );
    t.push_series("With caches (t/s)", cached);
    t.push_series("MJoin (t/s)", mjoin);
    t.push_series("ratio MJoin/cached", ratios);
    print!("{}", t.render());
    if let Some(p) = write_csv(&t, "fig07_selectivity") {
        eprintln!("wrote {}", p.display());
    }
}
