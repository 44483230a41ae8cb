//! Ablations over A-Caching's design knobs (DESIGN.md):
//!
//! * statistics window `W` (paper default 10),
//! * re-optimization trigger threshold `p` (paper: 20%, §4.5c),
//! * profiling stride (sampling overhead vs. statistics freshness),
//! * direct-mapped store size (collision evictions vs. memory).
//!
//! Each ablation runs the Figure 12 burst workload (the harshest test of
//! adaptivity) and reports steady-state rates before and after the burst,
//! plus how often the re-optimizer actually ran.

use acq::engine::{AdaptiveJoinEngine, CacheMode, EngineConfig, ReoptInterval, SelectionStrategy};
use acq::EnumerationConfig;
use acq_bench::report::{write_csv, Table};
use acq_gen::column::ColumnGen;
use acq_gen::spec::{Burst, StreamSpec, Workload};
use acq_mjoin::plan::{PipelineOrder, PlanOrders};
use acq_stream::{QuerySchema, RelId, Update};

fn workload() -> Vec<Update> {
    let cyc = |mult: u64| ColumnGen::Seq {
        multiplicity: mult,
        stride: 1,
        offset: 0,
        domain: 100,
    };
    Workload::new(
        vec![
            StreamSpec::new(0, 1.0, 100, vec![cyc(1)]),
            StreamSpec::new(1, 1.0, 100, vec![cyc(1), cyc(1)]),
            StreamSpec::new(2, 5.0, 500, vec![cyc(5)]),
        ],
        0xAB1A,
    )
    .with_burst(Burst {
        rel: RelId(0),
        start_after_elements: 400_000,
        end_after_elements: u64::MAX,
        factor: 20.0,
    })
    .generate(900_000)
}

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

fn base_config() -> EngineConfig {
    EngineConfig {
        reopt_interval: ReoptInterval::Tuples(10_000),
        selection: SelectionStrategy::Exhaustive,
        enumeration: EnumerationConfig {
            enable_global: true,
            max_candidates: 6,
        },
        ..Default::default()
    }
}

/// Run and report (pre-burst rate, post-burst rate, reoptimizations).
fn run(config: EngineConfig, updates: &[Update]) -> (f64, f64, f64) {
    let q = QuerySchema::chain3();
    let mut e = AdaptiveJoinEngine::with_config(q, orders(), config);
    // Burst lands at ~55% of the update stream (generated elements × ~2).
    let split = updates.len() * 55 / 100;
    let tail_start = updates.len() * 80 / 100;
    // Pre-burst steady state: measure the 30%..55% window.
    let warm = updates.len() * 30 / 100;
    for u in &updates[..warm] {
        e.process(u);
    }
    let (t0, ns0) = (e.counters().tuples_processed, e.core().now_ns());
    for u in &updates[warm..split] {
        e.process(u);
    }
    let (t1, ns1) = (e.counters().tuples_processed, e.core().now_ns());
    for u in &updates[split..tail_start] {
        e.process(u);
    }
    let (t2, ns2) = (e.counters().tuples_processed, e.core().now_ns());
    for u in &updates[tail_start..] {
        e.process(u);
    }
    let (t3, ns3) = (e.counters().tuples_processed, e.core().now_ns());
    let _ = (t2, ns2);
    let pre = (t1 - t0) as f64 * 1e9 / (ns1 - ns0).max(1) as f64;
    let post = (t3 - t2) as f64 * 1e9 / (ns3 - ns2).max(1) as f64;
    (pre, post, e.counters().reoptimizations as f64)
}

fn main() {
    let updates = workload();
    eprintln!("{} updates; burst at ~55%", updates.len());

    // Ablation 1: statistics window W.
    let ws = [2usize, 5, 10, 25, 50];
    let mut pre = Vec::new();
    let mut post = Vec::new();
    let mut reopts = Vec::new();
    for &w in &ws {
        let mut cfg = base_config();
        cfg.profiler.w = w;
        let (a, b, r) = run(cfg, &updates);
        pre.push(a);
        post.push(b);
        reopts.push(r);
    }
    let mut t = Table::new(
        "Ablation: statistics window W",
        "W",
        ws.iter().map(|&w| w as f64).collect(),
    );
    t.push_series("pre-burst t/s", pre);
    t.push_series("post-burst t/s", post);
    t.push_series("reoptimizations", reopts);
    print!("{}", t.render());
    write_csv(&t, "ablation_w");

    // Ablation 2: re-optimization trigger threshold p.
    let ps = [0.0, 0.05, 0.2, 0.5, 2.0];
    let mut pre = Vec::new();
    let mut post = Vec::new();
    let mut reopts = Vec::new();
    for &p in &ps {
        let mut cfg = base_config();
        cfg.p_threshold = p;
        let (a, b, r) = run(cfg, &updates);
        pre.push(a);
        post.push(b);
        reopts.push(r);
    }
    let mut t = Table::new(
        "Ablation: re-optimization trigger threshold p (§4.5c)",
        "p",
        ps.to_vec(),
    );
    t.push_series("pre-burst t/s", pre);
    t.push_series("post-burst t/s", post);
    t.push_series("reoptimizations", reopts);
    print!("{}", t.render());
    write_csv(&t, "ablation_p");

    // Ablation 3: profiling stride (1 in k tuples fully profiled).
    let strides = [2u64, 4, 8, 16, 64];
    let mut pre = Vec::new();
    let mut post = Vec::new();
    let mut reopts = Vec::new();
    for &s in &strides {
        let mut cfg = base_config();
        cfg.profiler.profile_every = s;
        let (a, b, r) = run(cfg, &updates);
        pre.push(a);
        post.push(b);
        reopts.push(r);
    }
    let mut t = Table::new(
        "Ablation: profiling stride (overhead vs statistics freshness)",
        "stride",
        strides.iter().map(|&s| s as f64).collect(),
    );
    t.push_series("pre-burst t/s", pre);
    t.push_series("post-burst t/s", post);
    t.push_series("reoptimizations", reopts);
    print!("{}", t.render());
    write_csv(&t, "ablation_stride");

    // Ablation 4: direct-mapped store size under a fixed forced cache.
    // (Collision evictions vs memory; ~100 distinct keys in the workload.)
    let budgets_kb = [1usize, 4, 16, 64, 256];
    let mut rates = Vec::new();
    let mut hitf = Vec::new();
    for &kb in &budgets_kb {
        let mut cfg = base_config();
        cfg.mode = CacheMode::Adaptive;
        cfg.memory = acq::MemoryConfig {
            page_bytes: 512,
            budget_bytes: Some(kb * 1024),
        };
        let q = QuerySchema::chain3();
        let mut e = AdaptiveJoinEngine::with_config(q, orders(), cfg);
        let warm = updates.len() / 4;
        for u in &updates[..warm] {
            e.process(u);
        }
        let (t0, ns0) = (e.counters().tuples_processed, e.core().now_ns());
        for u in &updates[warm..updates.len() / 2] {
            e.process(u);
        }
        let (t1, ns1) = (e.counters().tuples_processed, e.core().now_ns());
        rates.push((t1 - t0) as f64 * 1e9 / (ns1 - ns0).max(1) as f64);
        let c = e.counters();
        hitf.push(if c.cache_hits + c.cache_misses > 0 {
            c.cache_hits as f64 / (c.cache_hits + c.cache_misses) as f64
        } else {
            0.0
        });
    }
    let mut t = Table::new(
        "Ablation: cache memory budget (direct-mapped collisions)",
        "budget KB",
        budgets_kb.iter().map(|&b| b as f64).collect(),
    );
    t.push_series("pre-burst t/s", rates);
    t.push_series("hit fraction", hitf);
    print!("{}", t.render());
    write_csv(&t, "ablation_store_size");

    // Ablation 5: cache-store associativity (§3.3 future work). Constrain
    // memory so collisions matter, then compare direct-mapped vs N-way.
    let ways_list = [1usize, 2, 4, 8];
    let mut rates = Vec::new();
    let mut hitf = Vec::new();
    for &ways in &ways_list {
        let mut cfg = base_config();
        cfg.cache_ways = ways;
        cfg.memory = acq::MemoryConfig {
            page_bytes: 512,
            budget_bytes: Some(48 * 1024),
        };
        let q = QuerySchema::chain3();
        let mut e = AdaptiveJoinEngine::with_config(q, orders(), cfg);
        let warm = updates.len() / 4;
        for u in &updates[..warm] {
            e.process(u);
        }
        let (t0, ns0) = (e.counters().tuples_processed, e.core().now_ns());
        for u in &updates[warm..updates.len() / 2] {
            e.process(u);
        }
        let (t1, ns1) = (e.counters().tuples_processed, e.core().now_ns());
        rates.push((t1 - t0) as f64 * 1e9 / (ns1 - ns0).max(1) as f64);
        let c = e.counters();
        hitf.push(if c.cache_hits + c.cache_misses > 0 {
            c.cache_hits as f64 / (c.cache_hits + c.cache_misses) as f64
        } else {
            0.0
        });
    }
    let mut t = Table::new(
        "Ablation: cache associativity (direct-mapped vs N-way, §3.3 future work)",
        "ways",
        ways_list.iter().map(|&w| w as f64).collect(),
    );
    t.push_series("pre-burst t/s", rates);
    t.push_series("hit fraction", hitf);
    print!("{}", t.render());
    write_csv(&t, "ablation_ways");

    // Ablation 6: selection strategy end-to-end (including the §8
    // incremental warm-started local search).
    let strategies: [(&str, SelectionStrategy); 4] = [
        ("exhaustive", SelectionStrategy::Exhaustive),
        ("greedy", SelectionStrategy::Greedy),
        ("randomized", SelectionStrategy::Randomized(42)),
        ("incremental", SelectionStrategy::Incremental),
    ];
    let mut pre = Vec::new();
    let mut post = Vec::new();
    let mut reopts = Vec::new();
    for (name, strat) in &strategies {
        let mut cfg = base_config();
        cfg.selection = *strat;
        let (a, b, r) = run(cfg, &updates);
        eprintln!("strategy {name}: pre {a:.0} post {b:.0} reopts {r}");
        pre.push(a);
        post.push(b);
        reopts.push(r);
    }
    let mut t = Table::new(
        "Ablation: selection strategy (1=exhaustive 2=greedy 3=randomized 4=incremental)",
        "strategy",
        (1..=strategies.len()).map(|i| i as f64).collect(),
    );
    t.push_series("pre-burst t/s", pre);
    t.push_series("post-burst t/s", post);
    t.push_series("reoptimizations", reopts);
    print!("{}", t.render());
    write_csv(&t, "ablation_selection");
}
