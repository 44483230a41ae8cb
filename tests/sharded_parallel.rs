//! Sharded executor equivalence: for randomized update sequences with both
//! inserts and deletes, the [`ShardedEngine`]'s merged output delta stream
//! must equal the single-engine output — per update as a multiset, and
//! bit-identically once both sides are put in canonical group order — at
//! 1, 2, and 4 shards, on queries with and without broadcast-routed
//! relations.

use acq::engine::{AdaptiveJoinEngine, EngineConfig, ReoptInterval};
use acq::shard::{canonicalize_group, ShardConfig, ShardedEngine};
use acq::ProfilerConfig;
use acq_mjoin::oracle::{canonical_rows, multiset_diff, CanonicalRow};
use acq_mjoin::plan::PlanOrders;
use acq_stream::{Op, QuerySchema, RelId, TupleData, Update};
use proptest::prelude::*;

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

/// Fast-adaptivity settings so re-optimization, cache builds, and demotions
/// all fire within short test sequences — sharding must stay correct while
/// every shard's adaptive machinery is churning.
fn fast_config() -> EngineConfig {
    EngineConfig {
        profiler: ProfilerConfig {
            w: 3,
            profile_every: 3,
            bloom_window: 16,
        },
        reopt_interval: ReoptInterval::Tuples(40),
        stats_epoch_ns: 1_000_000,
        ..Default::default()
    }
}

fn canon_group(group: &[(Op, acq_stream::Composite)], n: usize) -> Vec<(Op, CanonicalRow)> {
    group
        .iter()
        .map(|(op, c)| (*op, canonical_rows(c, n)))
        .collect()
}

/// Single-engine per-update delta groups, each put in canonical order — the
/// reference the sharded merge must reproduce bit-for-bit.
fn single_engine_groups(query: &QuerySchema, updates: &[Update]) -> Vec<Vec<(Op, CanonicalRow)>> {
    let n = query.num_relations();
    let mut engine = AdaptiveJoinEngine::with_config(
        query.clone(),
        PlanOrders::identity(query),
        fast_config(),
    );
    updates
        .iter()
        .map(|u| {
            let mut group = engine.process(u);
            canonicalize_group(&mut group, n);
            canon_group(&group, n)
        })
        .collect()
}

fn check_sharded(query: &QuerySchema, updates: &[Update], shards: usize) {
    let n = query.num_relations();
    let reference = single_engine_groups(query, updates);
    let build = || {
        ShardedEngine::with_config(
            query.clone(),
            PlanOrders::identity(query),
            fast_config(),
            ShardConfig {
                num_shards: shards,
                partition_class: None,
            },
        )
    };
    let groups = build().process_batch_grouped(updates);
    assert_eq!(groups.len(), updates.len());
    // The flat entry point must emit exactly the grouped output, concatenated.
    let flat = canon_group(&build().process_batch(updates), n);
    let concat: Vec<_> = groups.iter().flat_map(|g| canon_group(g, n)).collect();
    assert_eq!(
        flat, concat,
        "[{shards} shards] flat output diverged from grouped"
    );
    for (i, (got, want)) in groups.iter().zip(&reference).enumerate() {
        let got = canon_group(got, n);
        // Multiset equality per update: the correctness contract.
        let diff = multiset_diff(&got, want);
        assert!(
            diff.is_empty(),
            "[{shards} shards] step {i} ({}): {diff:?}",
            updates[i]
        );
        // Bit-identity after canonical ordering on both sides: the
        // determinism contract ("bit-identical to the single-engine run").
        assert_eq!(
            got, *want,
            "[{shards} shards] step {i} ({}): canonical order diverged",
            updates[i]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        .. ProptestConfig::default()
    })]

    /// Star query: every relation carries the partition class, so all
    /// updates are hash-routed (no broadcast).
    #[test]
    fn star4_sharded_matches_single_engine(
        steps in proptest::collection::vec(step_strategy(4), 60..200),
    ) {
        let query = QuerySchema::star(4);
        let updates = materialize(&steps, &query);
        for shards in [1usize, 2, 4] {
            check_sharded(&query, &updates, shards);
        }
    }

    /// Chain query R(A) ⋈ S(A,B) ⋈ T(B) partitioned on class A: T has no
    /// A-attribute and is broadcast to every shard.
    #[test]
    fn chain3_sharded_matches_single_engine_with_broadcast(
        steps in proptest::collection::vec(step_strategy(3), 60..200),
    ) {
        let query = QuerySchema::chain3();
        let updates = materialize(&steps, &query);
        for shards in [1usize, 2, 4] {
            let mut probe = ShardedEngine::new(query.clone(), shards);
            assert_eq!(probe.broadcast_relations(), vec![RelId(2)]);
            probe.process(&updates[0]);
            check_sharded(&query, &updates, shards);
        }
    }

    /// Feeding the batch one update at a time must give the same output as
    /// one big batch (batching is an amortization, not a semantic change).
    #[test]
    fn incremental_feed_equals_batched_feed(
        steps in proptest::collection::vec(step_strategy(4), 40..120),
    ) {
        let query = QuerySchema::star(4);
        let updates = materialize(&steps, &query);
        let n = query.num_relations();
        let mut batched = ShardedEngine::new(query.clone(), 3);
        let batch_groups = batched.process_batch_grouped(&updates);
        let mut incremental = ShardedEngine::new(query.clone(), 3);
        for (i, u) in updates.iter().enumerate() {
            let got = canon_group(&incremental.process(u), n);
            let want = canon_group(&batch_groups[i], n);
            prop_assert_eq!(got, want);
        }
    }
}

#[test]
fn mixed_batch_sizes_cross_inline_threshold() {
    // The executor runs small batches inline on the caller thread and
    // streams large ones through the persistent worker runtime, switching
    // at a fixed threshold (32 updates). Feeding one stream through chunk
    // sizes straddling that threshold must produce bit-identical canonical
    // output to the one-big-batch run: batching (and therefore which path
    // executes each batch) is an amortization, never a semantic change.
    let query = QuerySchema::star(4);
    let mut steps = Vec::new();
    let mut x = 0x5EEDu64;
    for _ in 0..420 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let rel = (x % 4) as u16;
        if x.is_multiple_of(5) {
            steps.push(Step::DeleteOldest { rel });
        } else {
            // Narrow value domain so multi-row delta groups appear on both
            // sides of the threshold.
            steps.push(Step::Insert {
                rel,
                a: (x / 7 % 5) as i64,
                b: (x / 11 % 5) as i64,
            });
        }
    }
    let updates = materialize(&steps, &query);
    let n = query.num_relations();

    let shard_cfg = ShardConfig {
        num_shards: 4,
        partition_class: None,
    };
    let build = || {
        ShardedEngine::with_config(
            query.clone(),
            PlanOrders::identity(&query),
            fast_config(),
            shard_cfg.clone(),
        )
    };
    let want: Vec<_> = build()
        .process_batch_grouped(&updates)
        .iter()
        .map(|g| canon_group(g, n))
        .collect();

    let mut chunked = build();
    // A twin fed the same chunks through the flat entry point.
    let mut flat = build();
    let sizes = [1usize, 8, 31, 32, 33, 64, 3, 100];
    let mut got = Vec::new();
    let mut flat_got = Vec::new();
    let mut rest = &updates[..];
    let mut si = 0;
    while !rest.is_empty() {
        let k = sizes[si % sizes.len()].min(rest.len());
        si += 1;
        for g in chunked.process_batch_grouped(&rest[..k]) {
            got.push(canon_group(&g, n));
        }
        flat_got.extend(canon_group(&flat.process_batch(&rest[..k]), n));
        rest = &rest[k..];
    }
    assert_eq!(got, want, "mixed chunk sizes diverged from one-batch run");
    assert_eq!(flat_got, got.concat(), "flat output diverged from grouped");
}

#[test]
fn delete_heavy_regression_at_four_shards() {
    // Duplicate tuples, delete of one duplicate, immediate reinsert —
    // routed deletes must land in the shard holding their insert.
    let query = QuerySchema::chain3();
    let mut updates = Vec::new();
    let mut ts = 0u64;
    for _ in 0..4 {
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
    for shards in [1usize, 2, 4] {
        check_sharded(&query, &updates, shards);
    }
}
