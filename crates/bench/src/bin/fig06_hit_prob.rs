//! Figure 6 — varying cache hit probability.
//!
//! Query `R(A) ⋈_A S(A,B) ⋈_B T(B)` with sequential domains; the
//! multiplicity `r` of `T.B` varies 1..10 (each B value arrives `r` times in
//! `∆T`, so the forced R⋈S cache in `∆T`'s pipeline hits with probability
//! ≈ `1 − 1/r`, plus window-deletion re-probes). `rate(∆T) = r × rate(∆R)`.
//! Reports the absolute rates of the cached plan and the best MJoin, plus
//! the paper's ratio (MJoin ÷ cached).

use acq::engine::{AdaptiveJoinEngine, CacheMode, EngineConfig};
use acq_bench::plans::config_m;
use acq_bench::report::{write_csv, write_snapshot, Table};
use acq_bench::runner::run_engine;
use acq_gen::spec::chain3_default;
use acq_mjoin::plan::{PipelineOrder, PlanOrders};
use acq_stream::{QuerySchema, RelId};

fn orders() -> PlanOrders {
    // ∆T joins S then R (the cached R⋈S segment); {R,S} satisfies the prefix
    // invariant because ∆R starts with S and ∆S starts with R (Figure 3's
    // shape, rotated to the ∆T cache of §7.2).
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
    let q = QuerySchema::chain3();

    let rs: Vec<u64> = (1..=10).collect();
    let mut cached_rates = Vec::new();
    let mut mjoin_rates = Vec::new();
    let mut ratios = Vec::new();
    let mut hit_fracs = Vec::new();
    let mut last_snapshot = None;

    for &r in &rs {
        let updates = chain3_default(r, window, 0xF160 + r).generate(total);

        // Force the single candidate cache, as the paper does ("there is only
        // one candidate cache, which we force to be chosen").
        let cfg = EngineConfig {
            mode: CacheMode::Forced(vec![(RelId(2), vec![RelId(0), RelId(1)])]),
            ..Default::default()
        };
        let mut engine = AdaptiveJoinEngine::with_config(q.clone(), orders(), cfg);
        assert_eq!(engine.used_caches().len(), 1, "forced cache must exist");
        let sc = run_engine(&mut engine, &updates, 0.2);

        let mut mjoin = AdaptiveJoinEngine::with_config(q.clone(), orders(), config_m());
        let sm = run_engine(&mut mjoin, &updates, 0.2);

        last_snapshot = Some(engine.telemetry_snapshot());
        cached_rates.push(sc.rate);
        mjoin_rates.push(sm.rate);
        ratios.push(sm.rate / sc.rate);
        let probes = sc.cache_hits + sc.cache_misses;
        hit_fracs.push(if probes > 0 {
            sc.cache_hits as f64 / probes as f64
        } else {
            0.0
        });
    }

    let mut t = Table::new(
        "Figure 6: varying cache hit probability (multiplicity of T.B)",
        "multiplicity",
        rs.iter().map(|&r| r as f64).collect(),
    );
    t.push_series("With caches (t/s)", cached_rates);
    t.push_series("MJoin (t/s)", mjoin_rates);
    t.push_series("ratio MJoin/cached", ratios);
    t.push_series("observed hit frac", hit_fracs);
    print!("{}", t.render());
    if let Some(p) = write_csv(&t, "fig06_hit_prob") {
        eprintln!("wrote {}", p.display());
    }
    // Snapshot of the last (r = 10, highest hit probability) run.
    if let Some(p) = last_snapshot.and_then(|s| write_snapshot(&s, "fig06_hit_prob")) {
        eprintln!("wrote {}", p.display());
    }
}
