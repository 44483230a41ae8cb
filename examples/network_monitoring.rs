//! Network monitoring: adaptivity under a traffic burst.
//!
//! A security team correlates three streams over sliding windows:
//!
//! * `FLOWS(src)`        — sampled flow records per source host,
//! * `DNS(src, domain)`  — DNS lookups joining flows to domains,
//! * `ALERTS(domain)`    — threat-intel hits per domain (high volume).
//!
//! The continuous query `FLOWS ⋈ DNS ⋈ ALERTS` normally sees alerts dominate
//! (so caching FLOWS⋈DNS for the alert pipeline wins). A scanning attack then
//! floods `FLOWS` at 20× — the engine must notice, via its online statistics,
//! that the cached plan is now wrong and re-place caches for the new regime.
//!
//! Run with: `cargo run --release --example network_monitoring`

use acq::engine::{AdaptiveJoinEngine, EngineConfig, ReoptInterval, SelectionStrategy};
use acq::EnumerationConfig;
use acq_gen::column::ColumnGen;
use acq_gen::spec::{Burst, StreamSpec, Workload};
use acq_stream::{AttrRef, JoinPredicate, QuerySchema, RelId, RelationSchema};

fn main() {
    // Schema: FLOWS(src), DNS(src, domain), ALERTS(domain).
    let query = QuerySchema::new(
        vec![
            RelationSchema::new("FLOWS", &["src"]),
            RelationSchema::new("DNS", &["src", "domain"]),
            RelationSchema::new("ALERTS", &["domain"]),
        ],
        vec![
            JoinPredicate::new(AttrRef::new(0, 0), AttrRef::new(1, 0)),
            JoinPredicate::new(AttrRef::new(1, 1), AttrRef::new(2, 0)),
        ],
    );

    // 100 active hosts / domains, cycling; alerts arrive 5× as fast with
    // each domain flagged 5× in a row. Then the attack: FLOWS ×20.
    let cyc = |mult: u64| ColumnGen::Seq {
        multiplicity: mult,
        stride: 1,
        offset: 0,
        domain: 100,
    };
    let workload = Workload::new(
        vec![
            StreamSpec::new(0, 1.0, 100, vec![cyc(1)]),
            StreamSpec::new(1, 1.0, 100, vec![cyc(1), cyc(1)]),
            StreamSpec::new(2, 5.0, 500, vec![cyc(5)]),
        ],
        7,
    )
    .with_burst(Burst {
        rel: RelId(0),
        start_after_elements: 700_000,
        end_after_elements: u64::MAX,
        factor: 20.0,
    });
    let updates = workload.generate(1_500_000);

    // Fast-reacting engine: re-optimize every 10k tuples, globally-consistent
    // caches allowed (the post-burst best plan needs one).
    let config = EngineConfig {
        reopt_interval: ReoptInterval::Tuples(10_000),
        selection: SelectionStrategy::Exhaustive,
        enumeration: EnumerationConfig {
            enable_global: true,
            max_candidates: 6,
        },
        ..Default::default()
    };
    // Initial pipeline orders: alerts join DNS first, then flows — the
    // natural plan while alerts dominate.
    use acq_mjoin::plan::{PipelineOrder, PlanOrders};
    let orders = PlanOrders::new(vec![
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
    ]);
    let mut engine = AdaptiveJoinEngine::with_config(query.clone(), orders, config);

    println!(
        "correlating flows × dns × alerts ({} updates)…\n",
        updates.len()
    );
    let mut last_caches = Vec::new();
    let mut last_t = 0u64;
    let mut last_ns = 0u64;
    for (i, u) in updates.iter().enumerate() {
        engine.process(u);
        if (i + 1) % 250_000 == 0 {
            let c = engine.counters();
            let ns = engine.core().now_ns();
            let rate = (c.tuples_processed - last_t) as f64 * 1e9 / (ns - last_ns).max(1) as f64;
            last_t = c.tuples_processed;
            last_ns = ns;
            let caches = engine.used_caches();
            let changed = if caches != last_caches {
                "  ← plan changed"
            } else {
                ""
            };
            println!(
                "after {:>7} updates: {:>7.0} t/s, caches {:?}{}",
                i + 1,
                rate,
                caches,
                changed
            );
            last_caches = caches;
        }
    }

    let c = engine.counters();
    println!(
        "\nre-optimizations: {}, demotions: {}",
        c.reoptimizations, c.demotions
    );
    println!(
        "cache hit rate: {:.1}%",
        100.0 * c.cache_hits as f64 / (c.cache_hits + c.cache_misses).max(1) as f64
    );
    assert!(engine.check_consistency_invariant().is_empty());
    println!("all caches consistent with their invariants ✓");
}
