//! Figure 12 — adaptivity to a changing stream rate.
//!
//! 3-way join `R(A) ⋈ S(A,B) ⋈ T(B)`; initially `rate(∆T) = 5×` the others
//! (the §7.2 default), so the static plan `T ⋈ (R ⋈ S)` — an R⋈S cache in
//! ∆T's pipeline — is optimal. A burst then multiplies `rate(∆R)` by 20 and
//! persists, making `R ⋈ (T ⋈ S)` — an S⋈T cache in ∆R's pipeline — the
//! winner. The adaptive engine (A-Caching with globally-consistent caches
//! and I = 10,000 tuples) must converge to each regime's best plan.
//!
//! x-axis: cumulative ∆S arrivals (thousands); y: instantaneous
//! tuple-processing rate.

use acq::engine::{AdaptiveJoinEngine, CacheMode, EngineConfig, ReoptInterval, SelectionStrategy};
use acq::EnumerationConfig;
use acq_bench::report::{write_csv, write_snapshot, Table};
use acq_gen::column::ColumnGen;
use acq_gen::spec::{Burst, StreamSpec, Workload};
use acq_mjoin::plan::{PipelineOrder, PlanOrders};
use acq_stream::{Op, QuerySchema, RelId, Update};

const DOMAIN: u64 = 100;

fn cyc(mult: u64) -> ColumnGen {
    ColumnGen::Seq {
        multiplicity: mult,
        stride: 1,
        offset: 0,
        domain: DOMAIN,
    }
}

/// The workload: cyclic domains (so the burst changes load, not match
/// alignment), burst ×20 on ∆R after `burst_at` generated elements.
fn workload(burst_at: u64, seed: u64) -> Workload {
    Workload::new(
        vec![
            StreamSpec::new(0, 1.0, DOMAIN as usize, vec![cyc(1)]),
            StreamSpec::new(1, 1.0, DOMAIN as usize, vec![cyc(1), cyc(1)]),
            StreamSpec::new(2, 5.0, (DOMAIN * 5) as usize, vec![cyc(5)]),
        ],
        seed,
    )
    .with_burst(Burst {
        rel: RelId(0),
        start_after_elements: burst_at,
        end_after_elements: u64::MAX,
        factor: 20.0,
    })
}

/// Orders making the R⋈S segment cacheable in ∆T's pipeline.
fn orders_t_rs() -> PlanOrders {
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

/// Orders making the S⋈T segment cacheable in ∆R's pipeline.
fn orders_r_st() -> PlanOrders {
    PlanOrders::new(vec![
        PipelineOrder {
            stream: RelId(0),
            order: vec![RelId(1), RelId(2)],
        },
        PipelineOrder {
            stream: RelId(1),
            order: vec![RelId(2), RelId(0)],
        },
        PipelineOrder {
            stream: RelId(2),
            order: vec![RelId(1), RelId(0)],
        },
    ])
}

/// Run one engine over the updates, sampling (∆S count, rate) per bucket of
/// `sample_s` ∆S arrivals.
fn run_sampled(
    engine: &mut AdaptiveJoinEngine,
    updates: &[Update],
    sample_s: u64,
) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    let mut s_count = 0u64;
    let mut next_sample = sample_s;
    let mut last_t = 0u64;
    let mut last_ns = 0u64;
    for u in updates {
        engine.process(u);
        if u.rel == RelId(1) && u.op == Op::Insert {
            s_count += 1;
            if s_count >= next_sample {
                next_sample += sample_s;
                let t = engine.counters().tuples_processed;
                let ns = engine.core().now_ns();
                if ns > last_ns {
                    out.push((
                        s_count as f64 / 1000.0,
                        (t - last_t) as f64 * 1e9 / (ns - last_ns) as f64,
                    ));
                }
                last_t = t;
                last_ns = ns;
            }
        }
    }
    out
}

fn main() {
    // ∆S is 1/7 of arrivals pre-burst; burst at 100k ∆S tuples ≈ 700k
    // elements. Run through 160k ∆S tuples.
    let burst_at_elems = 700_000u64;
    let total_elems = 1_500_000usize;
    let sample_s = 5_000u64;
    let q = QuerySchema::chain3();
    let updates = workload(burst_at_elems, 0xF1C).generate(total_elems);
    eprintln!("{} updates generated", updates.len());

    // Static plan 1: T ⋈ (R ⋈ S).
    let cfg1 = EngineConfig {
        mode: CacheMode::Forced(vec![(RelId(2), vec![RelId(0), RelId(1)])]),
        ..Default::default()
    };
    let mut e1 = AdaptiveJoinEngine::with_config(q.clone(), orders_t_rs(), cfg1);
    let ts1 = run_sampled(&mut e1, &updates, sample_s);

    // Static plan 2: R ⋈ (T ⋈ S).
    let cfg2 = EngineConfig {
        mode: CacheMode::Forced(vec![(RelId(0), vec![RelId(1), RelId(2)])]),
        ..Default::default()
    };
    let mut e2 = AdaptiveJoinEngine::with_config(q.clone(), orders_r_st(), cfg2);
    let ts2 = run_sampled(&mut e2, &updates, sample_s);

    // Adaptive caching (I = 10,000 tuples, globally-consistent caches on).
    let cfg3 = EngineConfig {
        reopt_interval: ReoptInterval::Tuples(10_000),
        selection: SelectionStrategy::Exhaustive,
        enumeration: EnumerationConfig {
            enable_global: true,
            max_candidates: 6,
        },
        ..Default::default()
    };
    let mut e3 = AdaptiveJoinEngine::with_config(q.clone(), orders_t_rs(), cfg3);
    let ts3 = run_sampled(&mut e3, &updates, sample_s);
    eprintln!(
        "adaptive: reopts {} demotions {} final caches {:?}",
        e3.counters().reoptimizations,
        e3.counters().demotions,
        e3.used_caches()
    );

    let len = ts1.len().min(ts2.len()).min(ts3.len());
    let mut t = Table::new(
        "Figure 12: adaptivity to changing stream rate (burst ×20 on ∆R)",
        "kS tuples",
        ts1[..len].iter().map(|&(x, _)| x).collect(),
    );
    t.push_series(
        "T join (R join S)",
        ts1[..len].iter().map(|&(_, y)| y).collect(),
    );
    t.push_series(
        "R join (T join S)",
        ts2[..len].iter().map(|&(_, y)| y).collect(),
    );
    t.push_series(
        "Adaptive caching",
        ts3[..len].iter().map(|&(_, y)| y).collect(),
    );
    print!("{}", t.render());
    if let Some(p) = write_csv(&t, "fig12_adaptivity") {
        eprintln!("wrote {}", p.display());
    }
    // Telemetry of the adaptive run: the cache lifecycle (scored → added →
    // hits/misses → dropped/retained) across the rate burst, virtual-time
    // stamped — the end-to-end adaptivity trace.
    if let Some(p) = write_snapshot(&e3.telemetry_snapshot(), "fig12_adaptivity") {
        eprintln!("wrote {}", p.display());
    }
}
