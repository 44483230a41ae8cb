//! Allocation regression guard for the hot path.
//!
//! Drives the engine to steady state (windows full, slab bands recycling,
//! Arc pool, cache stores and scratch buffers warm), then counts heap
//! allocations across a block of updates. The whole point of the slab
//! stores, borrowed row frontiers and hash-once probes is that a
//! steady-state update allocates **nothing** — these tests pin that
//! property so it cannot silently regress, with caching off, with a used
//! plain cache, and with a used globally-consistent cache.
//!
//! Allocations are counted per thread: `cargo test` runs tests on parallel
//! threads, and a process-wide counter would charge one test with another
//! test's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use acq::engine::{AdaptiveJoinEngine, CacheMode, EngineConfig, ReoptInterval, SelectionStrategy};
use acq::EnumerationConfig;
use acq_gen::column::ColumnGen;
use acq_gen::spec::{chain3_default, Burst, StreamSpec, Workload};
use acq_mjoin::plan::{PipelineOrder, PlanOrders};
use acq_stream::{QuerySchema, RelId, Update};

/// System allocator wrapper counting every allocation (and reallocation —
/// a growing `Vec` is still an allocation for our purposes) made by the
/// calling thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread's destructors run.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Housekeeping (stat epochs, re-optimization) runs rarely by design and
/// may allocate; these settings push it out of the measured window so the
/// tests observe the pure per-update path.
fn no_housekeeping(config: EngineConfig) -> EngineConfig {
    EngineConfig {
        reopt_interval: ReoptInterval::Tuples(u64::MAX),
        stats_epoch_ns: u64::MAX,
        ..config
    }
}

/// Feed `updates`, re-optimizing by hand every `reopt_every` updates (the
/// engine's own housekeeping is off).
fn warm(engine: &mut AdaptiveJoinEngine, updates: &[Update], reopt_every: Option<usize>) {
    let mut out = Vec::new();
    for (i, u) in updates.iter().enumerate() {
        out.clear();
        engine.process_into(u, &mut out);
        if reopt_every.is_some_and(|k| (i + 1) % k == 0) {
            engine.force_reoptimize();
        }
    }
}

/// Allocations made while feeding `updates`. Updates are pre-generated so
/// the stream generator's own allocations stay outside the measurement.
fn count_allocs(engine: &mut AdaptiveJoinEngine, updates: &[Update]) -> u64 {
    // Sized past the largest delta burst of one update.
    let mut out = Vec::with_capacity(1 << 14);
    let before = thread_allocs();
    for u in updates {
        out.clear();
        engine.process_into(u, &mut out);
    }
    thread_allocs() - before
}

#[test]
fn steady_state_update_is_allocation_free() {
    let config = no_housekeeping(EngineConfig {
        mode: CacheMode::None,
        ..EngineConfig::default()
    });
    let q = QuerySchema::chain3();
    let mut engine = AdaptiveJoinEngine::with_config(q.clone(), PlanOrders::identity(&q), config);

    // Int-only sliding-window chain workload.
    let updates = chain3_default(5, 100, 0xA110C).generate(30_000);
    let (warmup, measured) = updates.split_at(25_000);
    warm(&mut engine, warmup, None);
    let allocs = count_allocs(&mut engine, measured);
    assert_eq!(
        allocs,
        0,
        "steady-state hot path allocated {allocs} times over {} updates",
        measured.len()
    );
}

/// The §7.2 chain with its adaptive plain cache in use: cache hits, misses
/// whose `create` displaces a resident entry, maintenance taps, profiled
/// tuples and Bloom feeds of the still-profiled candidates all run in the
/// measured window.
#[test]
fn used_plain_cache_is_allocation_free() {
    let config = no_housekeeping(EngineConfig {
        memory: acq::MemoryConfig {
            budget_bytes: Some(16 * 1024),
            ..Default::default()
        },
        enumeration: EnumerationConfig {
            enable_global: true,
            ..Default::default()
        },
        ..EngineConfig::default()
    });
    let q = QuerySchema::chain3();
    let mut engine = AdaptiveJoinEngine::with_config(q.clone(), PlanOrders::identity(&q), config);
    let updates = chain3_default(5, 100, 0xA110C).generate(40_000);
    let (warmup, measured) = updates.split_at(30_000);

    warm(&mut engine, warmup, Some(2_500));
    let used = engine.used_caches();
    let before = engine.telemetry_snapshot();
    let allocs = count_allocs(&mut engine, measured);
    let after = engine.telemetry_snapshot();
    let delta = |name: &str| after.counter_total(name) - before.counter_total(name);

    assert!(!used.is_empty(), "no cache in use");
    assert!(delta("engine.cache_hits") > 0, "no cache hits");
    assert!(
        delta("store.collisions") > 0,
        "no create displaced an entry"
    );
    assert!(delta("store.maintenance_applied") > 0, "no tap maintenance");
    assert!(
        engine
            .candidate_states()
            .iter()
            .any(|(_, s)| *s == acq::engine::CacheState::Profiled),
        "no profiled candidate feeding a Bloom filter"
    );
    assert_eq!(
        allocs,
        0,
        "used plain cache allocated {allocs} times over {} updates",
        measured.len()
    );
}

/// Figure 12 after the burst: the globally-consistent S⋈T cache in ∆R's
/// pipeline is used, so every ∆S and ∆T update computes its segment-join
/// delta separately and applies it to the store.
///
/// ∆T keeps five live copies of each value. Deletes remove the oldest copy,
/// as the window expires it, so T's slab band stays as wide as the window
/// and its pages recycle. Both the cached engine and the same stream with
/// caching off must therefore run allocation-free.
#[test]
fn used_global_cache_allocates_only_what_the_stores_do() {
    const DOMAIN: u64 = 100;
    let cyc = |mult| ColumnGen::Seq {
        multiplicity: mult,
        stride: 1,
        offset: 0,
        domain: DOMAIN,
    };
    let updates = Workload::new(
        vec![
            StreamSpec::new(0, 1.0, DOMAIN as usize, vec![cyc(1)]),
            StreamSpec::new(1, 1.0, DOMAIN as usize, vec![cyc(1), cyc(1)]),
            StreamSpec::new(2, 5.0, (DOMAIN * 5) as usize, vec![cyc(5)]),
        ],
        12,
    )
    .with_burst(Burst {
        rel: RelId(0),
        start_after_elements: 5_000,
        end_after_elements: u64::MAX,
        factor: 20.0,
    })
    .generate(50_000);
    let p = |s: u16, order: [u16; 2]| PipelineOrder {
        stream: RelId(s),
        order: order.map(RelId).to_vec(),
    };
    let orders = PlanOrders::new(vec![p(0, [1, 2]), p(1, [0, 2]), p(2, [1, 0])]);
    let config = no_housekeeping(EngineConfig {
        selection: SelectionStrategy::Exhaustive,
        enumeration: EnumerationConfig {
            enable_global: true,
            max_candidates: 6,
        },
        ..Default::default()
    });
    let (warmup, measured) = updates.split_at(updates.len() - 10_000);

    let mut plain = AdaptiveJoinEngine::with_config(
        QuerySchema::chain3(),
        orders.clone(),
        EngineConfig {
            mode: CacheMode::None,
            ..config.clone()
        },
    );
    warm(&mut plain, warmup, None);
    let store_allocs = count_allocs(&mut plain, measured);

    let mut engine = AdaptiveJoinEngine::with_config(QuerySchema::chain3(), orders, config);
    warm(&mut engine, warmup, Some(5_000));
    let before = engine.telemetry_snapshot();
    let allocs = count_allocs(&mut engine, measured);
    let after = engine.telemetry_snapshot();
    let delta = |name: &str| after.counter_total(name) - before.counter_total(name);

    let used = engine.used_caches();
    assert!(
        used.iter().any(|name| name.contains('⋉')),
        "no globally-consistent cache in use: {used:?}"
    );
    assert!(delta("store.maintenance_applied") > 0, "no gc maintenance");
    assert_eq!(
        store_allocs,
        0,
        "relation stores allocated {store_allocs} times over {} updates",
        measured.len()
    );
    assert_eq!(
        allocs,
        0,
        "used global cache allocated {allocs} times over {} updates",
        measured.len()
    );
}
