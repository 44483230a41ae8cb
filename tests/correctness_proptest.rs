//! Property-based correctness: for arbitrary update sequences, arbitrary
//! engine configurations and arbitrary pipeline orders (also changed
//! mid-stream), the A-Caching engine's output delta stream must equal a
//! naive oracle's, and every active cache must satisfy its consistency
//! invariant (Definition 3.1 / 6.1). §3.1's semantics fix *what* an MJoin
//! computes; its orders only change the cost.

use acq::engine::{AdaptiveJoinEngine, CacheMode, EngineConfig, ReoptInterval, SelectionStrategy};
use acq::{EnumerationConfig, MemoryConfig, ProfilerConfig};
use acq_mjoin::oracle::{canonical_rows, multiset_diff, Oracle};
use acq_mjoin::plan::{PipelineOrder, PlanOrders};
use acq_stream::{Op, QuerySchema, RelId, TupleData, Update};
use proptest::prelude::*;

/// One step of a workload script.
#[derive(Debug, Clone)]
enum Step {
    Insert { rel: u16, a: i64, b: i64 },
    DeleteOldest { rel: u16 },
}

fn step_strategy(n_rels: u16) -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (0..n_rels, 0i64..6, 0i64..6).prop_map(|(rel, a, b)| Step::Insert { rel, a, b }),
        1 => (0..n_rels).prop_map(|rel| Step::DeleteOldest { rel }),
    ]
}

/// Materialize steps into updates (deletes target the oldest live tuple of
/// the relation, keeping windows bounded and deletes always valid).
fn materialize(steps: &[Step], query: &QuerySchema) -> Vec<Update> {
    let n = query.num_relations();
    let mut live: Vec<std::collections::VecDeque<TupleData>> =
        vec![std::collections::VecDeque::new(); n];
    let mut out = Vec::new();
    for (ts, s) in steps.iter().enumerate() {
        match *s {
            Step::Insert { rel, a, b } => {
                let arity = query.relation(RelId(rel)).arity();
                let data = if arity == 1 {
                    TupleData::ints(&[a])
                } else {
                    TupleData::ints(&[a, b])
                };
                live[rel as usize].push_back(data.clone());
                out.push(Update::insert(RelId(rel), data, ts as u64));
            }
            Step::DeleteOldest { rel } => {
                if let Some(data) = live[rel as usize].pop_front() {
                    out.push(Update::delete(RelId(rel), data, ts as u64));
                }
            }
        }
    }
    out
}

/// A permutation of 0..n−1 encoded by repeated selection.
fn permutation(n: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..1000, n).prop_map(move |keys| {
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by_key(|&i| keys[i]);
        idx
    })
}

/// Any valid plan: every pipeline joins the other relations in any order.
fn orders_strategy(n: u16) -> impl Strategy<Value = PlanOrders> {
    proptest::collection::vec(permutation(n as usize - 1), n as usize).prop_map(move |perms| {
        PlanOrders::new(
            (0..n)
                .map(|stream| {
                    let others: Vec<RelId> = (0..n).filter(|&r| r != stream).map(RelId).collect();
                    PipelineOrder {
                        stream: RelId(stream),
                        order: perms[stream as usize].iter().map(|&i| others[i]).collect(),
                    }
                })
                .collect(),
        )
    })
}

fn configs() -> Vec<(&'static str, EngineConfig)> {
    let fast_profiler = ProfilerConfig {
        w: 3,
        profile_every: 3,
        bloom_window: 16,
    };
    let base = EngineConfig {
        profiler: fast_profiler,
        reopt_interval: ReoptInterval::Tuples(40),
        stats_epoch_ns: 1_000_000,
        ..Default::default()
    };
    vec![
        (
            "no-caches",
            EngineConfig {
                mode: CacheMode::None,
                ..base.clone()
            },
        ),
        ("adaptive-auto", base.clone()),
        (
            "adaptive-greedy",
            EngineConfig {
                selection: SelectionStrategy::Greedy,
                ..base.clone()
            },
        ),
        (
            "adaptive-randomized",
            EngineConfig {
                selection: SelectionStrategy::Randomized(7),
                ..base.clone()
            },
        ),
        (
            "adaptive-global",
            EngineConfig {
                enumeration: EnumerationConfig {
                    enable_global: true,
                    max_candidates: 6,
                },
                ..base.clone()
            },
        ),
        (
            "tiny-memory",
            EngineConfig {
                memory: MemoryConfig {
                    page_bytes: 512,
                    budget_bytes: Some(2048),
                },
                ..base
            },
        ),
    ]
}

fn check_engine(query: QuerySchema, updates: &[Update], label: &str, config: EngineConfig) {
    let orders = PlanOrders::identity(&query);
    check_engine_with_orders(query, updates, label, config, orders, None);
}

/// [`check_engine`] from `orders`, switching to `reorder.1` through
/// `set_orders` before update `reorder.0`.
fn check_engine_with_orders(
    query: QuerySchema,
    updates: &[Update],
    label: &str,
    config: EngineConfig,
    orders: PlanOrders,
    reorder: Option<(usize, PlanOrders)>,
) {
    let n = query.num_relations();
    let mut engine = AdaptiveJoinEngine::with_config(query.clone(), orders, config);
    let mut oracle = Oracle::new(query);
    for (i, u) in updates.iter().enumerate() {
        if let Some((at, after)) = &reorder {
            if i == *at {
                engine.set_orders(after.clone());
            }
        }
        let got: Vec<_> = engine
            .process(u)
            .into_iter()
            .map(|(op, c)| (op, canonical_rows(&c, n)))
            .collect();
        let want = oracle.apply_and_delta(u);
        let diff = multiset_diff(&got, &want);
        assert!(
            diff.is_empty(),
            "[{label}] step {i} ({u}): {diff:?}; caches {:?}",
            engine.used_caches()
        );
    }
    let violations = engine.check_consistency_invariant();
    assert!(violations.is_empty(), "[{label}]: {violations:?}");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    #[test]
    fn chain3_engine_matches_oracle_under_all_configs(
        steps in proptest::collection::vec(step_strategy(3), 40..220),
    ) {
        let query = QuerySchema::chain3();
        let updates = materialize(&steps, &query);
        for (label, config) in configs() {
            check_engine(query.clone(), &updates, label, config);
        }
    }

    #[test]
    fn star4_engine_matches_oracle_under_key_configs(
        steps in proptest::collection::vec(step_strategy(4), 40..160),
    ) {
        let query = QuerySchema::star(4);
        let updates = materialize(&steps, &query);
        for (label, config) in configs().into_iter().take(3) {
            check_engine(query.clone(), &updates, label, config);
        }
    }

    #[test]
    fn any_pipeline_orders_give_oracle_deltas(
        steps in proptest::collection::vec(step_strategy(4), 40..120),
        orders in orders_strategy(4),
    ) {
        let query = QuerySchema::star(4);
        let updates = materialize(&steps, &query);
        for (label, config) in configs().into_iter().take(3) {
            let orders = orders.clone();
            check_engine_with_orders(query.clone(), &updates, label, config, orders, None);
        }
    }

    #[test]
    fn mid_stream_set_orders_is_transparent(
        steps in proptest::collection::vec(step_strategy(3), 40..160),
        before in orders_strategy(3),
        after in orders_strategy(3),
    ) {
        let query = QuerySchema::chain3();
        let updates = materialize(&steps, &query);
        let reorder = Some((updates.len() / 2, after));
        for (label, config) in configs() {
            let (before, reorder) = (before.clone(), reorder.clone());
            check_engine_with_orders(query.clone(), &updates, label, config, before, reorder);
        }
    }

    #[test]
    fn executors_agree_with_each_other(
        steps in proptest::collection::vec(step_strategy(3), 30..150),
    ) {
        use acq_bench::plans::config_m;
        use acq_mjoin::xjoin::{JoinTree, XJoin};

        let query = QuerySchema::chain3();
        let updates = materialize(&steps, &query);
        let orders = PlanOrders::identity(&query);
        let mut m = AdaptiveJoinEngine::with_config(query.clone(), orders, config_m());
        let mut x = XJoin::new(
            query.clone(),
            JoinTree::left_deep(&[RelId(0), RelId(1), RelId(2)]),
        );
        let mut all_m = Vec::new();
        let mut all_x = Vec::new();
        for u in &updates {
            all_m.extend(m.process(u).into_iter().map(|(op, c)| (op, canonical_rows(&c, 3))));
            all_x.extend(x.process(u).into_iter().map(|(op, c)| (op, canonical_rows(&c, 3))));
        }
        prop_assert!(multiset_diff(&all_m, &all_x).is_empty());
    }
}

#[test]
fn regression_delete_heavy_sequence() {
    // A hand-picked delete-heavy script that once exercised multiset
    // corner cases: duplicate tuples, delete of one duplicate, immediate
    // reinsert.
    let query = QuerySchema::chain3();
    let mut updates = Vec::new();
    let mut ts = 0u64;
    for _ in 0..3 {
        for (rel, vals) in [
            (0u16, vec![1i64]),
            (1, vec![1, 2]),
            (1, vec![1, 2]),
            (2, vec![2]),
        ] {
            updates.push(Update::insert(RelId(rel), TupleData::ints(&vals), ts));
            ts += 1;
        }
        updates.push(Update::delete(RelId(1), TupleData::ints(&[1, 2]), ts));
        ts += 1;
    }
    for (label, config) in configs() {
        check_engine(query.clone(), &updates, label, config);
    }
    let _ = Op::Insert;
}
