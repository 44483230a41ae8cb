//! Model-based testing of the direct-mapped cache store (§3.3): compare
//! against an unbounded reference map. Direct-mapped replacement means the
//! store may *lose* entries relative to the model (completeness is never
//! promised), but anything it returns must match the model exactly
//! (consistency is absolute).

use acq::cache::CacheStore;
use acq_stream::tuple::make_ref;
use acq_stream::{Composite, RelId, TupleData, Value};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// A cached value: a tuple of R1 alone, or joined with a tuple of R2 (a
/// two-relation segment). Values are identified by these stored tuples.
type Val = (u64, Option<u64>);

#[derive(Debug, Clone)]
enum CacheOp {
    Create {
        key: i64,
        vals: Vec<Val>,
    },
    /// `swapped` names the value with its parts in the other order, as a
    /// tap in another pipeline of a shared group builds it.
    Insert {
        key: i64,
        val: Val,
        swapped: bool,
    },
    Delete {
        key: i64,
        val: Val,
        swapped: bool,
    },
    Probe {
        key: i64,
    },
}

fn val_strategy() -> impl Strategy<Value = Val> {
    (0u64..12, 0u64..4).prop_map(|(a, b)| (a, (b > 0).then_some(b)))
}

fn op_strategy() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        (0i64..12, proptest::collection::vec(val_strategy(), 0..4))
            .prop_map(|(key, vals)| CacheOp::Create { key, vals }),
        (0i64..12, val_strategy(), 0u8..2).prop_map(|(key, val, s)| CacheOp::Insert {
            key,
            val,
            swapped: s == 1
        }),
        (0i64..12, val_strategy(), 0u8..2).prop_map(|(key, val, s)| CacheOp::Delete {
            key,
            val,
            swapped: s == 1
        }),
        (0i64..12).prop_map(|key| CacheOp::Probe { key }),
    ]
}

fn comp(id: u64) -> Composite {
    Composite::unit(make_ref(RelId(1), id, TupleData::ints(&[id as i64])))
}

/// The composite of `val`; R2's part first when `swapped`. Every call
/// mints fresh tuple references: the store must match values by stored
/// identity, not by pointer.
fn comp_of((a, b): Val, swapped: bool) -> Composite {
    let r1 = make_ref(RelId(1), a, TupleData::ints(&[a as i64]));
    let Some(b) = b else {
        return Composite::unit(r1);
    };
    let r2 = make_ref(RelId(2), b, TupleData::ints(&[a as i64, b as i64]));
    if swapped {
        Composite::unit(r2).extend_with(r1)
    } else {
        Composite::unit(r1).extend_with(r2)
    }
}

/// The value a composite holds, whatever its part order.
fn val_of(c: &Composite) -> Val {
    let id = |rel| c.part(RelId(rel)).map(|t| t.id);
    (id(1).expect("an R1 part"), id(2))
}

fn key_of(k: i64) -> Vec<Value> {
    vec![Value::Int(k)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn store_is_a_lossy_but_consistent_map(
        ops in proptest::collection::vec(op_strategy(), 1..250),
        buckets in 1usize..64,
    ) {
        let mut store = CacheStore::new(buckets);
        // Model: key → (value → witness count). The store's values are
        // counted multisets (globally-consistent caches need witness
        // counting); a value is visible while its count is positive.
        let mut model: BTreeMap<i64, BTreeMap<Val, u32>> = BTreeMap::new();

        for op in &ops {
            let before = (store.stats(), store.memory_bytes(), store.len());
            match op {
                CacheOp::Create { key, vals } => {
                    store.create(
                        key_of(*key),
                        vals.iter().map(|&v| (comp_of(v, false), 1)),
                    );
                    let mut counts: BTreeMap<Val, u32> = BTreeMap::new();
                    for &v in vals {
                        *counts.entry(v).or_insert(0) += 1;
                    }
                    model.insert(*key, counts);
                }
                CacheOp::Insert { key, val, swapped }
                | CacheOp::Delete { key, val, swapped } => {
                    let resident = store.peek(&key_of(*key)).is_some();
                    let c = comp_of(*val, *swapped);
                    if matches!(op, CacheOp::Insert { .. }) {
                        store.insert(&key_of(*key), c, 1);
                    } else {
                        store.delete(&key_of(*key), &c, 1);
                    }
                    let stats = store.stats();
                    if resident {
                        prop_assert_eq!(
                            stats.maintenance_applied,
                            before.0.maintenance_applied + 1
                        );
                        let counts = model.get_mut(key).expect("resident keys are modelled");
                        if matches!(op, CacheOp::Insert { .. }) {
                            *counts.entry(*val).or_insert(0) += 1;
                        } else if let Some(n) = counts.get_mut(val) {
                            *n -= 1;
                            if *n == 0 {
                                counts.remove(val);
                            }
                        }
                    } else {
                        // Maintenance of an absent key is ignored (§3.2)
                        // and changes nothing.
                        prop_assert_eq!(
                            stats.maintenance_ignored,
                            before.0.maintenance_ignored + 1
                        );
                        prop_assert_eq!(stats.maintenance_applied, before.0.maintenance_applied);
                        prop_assert_eq!((store.memory_bytes(), store.len()), (before.1, before.2));
                        prop_assert!(store.peek(&key_of(*key)).is_none());
                    }
                }
                CacheOp::Probe { key } => {
                    if let Some(entry) = store.probe(&key_of(*key)) {
                        let got: Vec<Val> = entry.composites().map(val_of).collect();
                        let distinct: BTreeSet<Val> = got.iter().copied().collect();
                        prop_assert_eq!(got.len(), distinct.len(), "a value listed twice");
                        let want: BTreeSet<Val> = model
                            .get(key)
                            .map(|c| c.keys().copied().collect())
                            .unwrap_or_default();
                        prop_assert_eq!(
                            distinct, want,
                            "store returned a value diverging from the model for key {}",
                            key
                        );
                    } else {
                        // Miss: either never created or evicted by a
                        // colliding create — drop from the model so later
                        // inserts don't accumulate there.
                        model.remove(key);
                    }
                }
            }
            // Sync: entries evicted by collisions must leave the model too.
            model.retain(|k, _| store.peek(&key_of(*k)).is_some());
            // Invariants that always hold:
            prop_assert!(store.len() <= store.num_buckets());
            prop_assert_eq!(store.check_accounting(), Vec::<String>::new());
        }
    }

    #[test]
    fn resize_never_corrupts_surviving_entries(
        keys in proptest::collection::btree_set(0i64..40, 1..30),
        new_buckets in 1usize..16,
    ) {
        let mut store = CacheStore::new(64);
        for &k in &keys {
            store.create(key_of(k), vec![(comp(k as u64), 1)]);
        }
        store.resize(new_buckets);
        for &k in &keys {
            let expected_key = key_of(k);
            if let Some(e) = store.peek(&expected_key) {
                prop_assert_eq!(e.key(), expected_key.as_slice());
                prop_assert_eq!(e.len(), 1);
            }
        }
        prop_assert!(store.len() <= store.num_buckets());
    }
}

/// Maintenance on keys the resident-key filter rules out: on a fresh store
/// the filter is empty, so it rules out every key; after one create it
/// still rules out nearly all of them. Either way the call counts as
/// ignored and changes nothing.
#[test]
fn maintenance_on_filtered_keys_is_ignored_and_changes_nothing() {
    let mut store = CacheStore::new(64);
    store.insert(&key_of(1), comp(1), 1);
    store.delete(&key_of(1), &comp(1), 1);
    assert_eq!(store.stats().maintenance_ignored, 2);
    assert!(store.is_empty());

    store.create(key_of(0), vec![(comp_of((0, Some(1)), false), 1)]);
    let before = (store.memory_bytes(), store.len());
    for k in 1..200 {
        store.insert(&key_of(k), comp_of((0, Some(1)), true), 1);
        store.delete(&key_of(k), &comp_of((0, Some(1)), false), 1);
    }
    let stats = store.stats();
    assert_eq!(stats.maintenance_ignored, 2 + 2 * 199);
    assert_eq!(stats.maintenance_applied, 0);
    assert_eq!((store.memory_bytes(), store.len()), before);
    let entry = store.peek(&key_of(0)).expect("untouched");
    assert_eq!(
        entry.composites().map(val_of).collect::<Vec<_>>(),
        [(0, Some(1))]
    );
}

/// A two-part value inserted by a tap that builds it in the other part
/// order is the same value: its witness count grows, and deletes in
/// either order take the witnesses away one by one.
#[test]
fn two_part_values_match_in_either_part_order() {
    let mut store = CacheStore::new(4);
    let v = (7, Some(3));
    store.create(
        key_of(1),
        vec![(comp_of(v, false), 1), (comp_of((8, Some(3)), false), 1)],
    );
    store.insert(&key_of(1), comp_of(v, true), 1);
    store.insert(&key_of(1), comp_of(v, true), 1);
    let vals = |s: &CacheStore| -> Vec<Val> {
        s.peek(&key_of(1))
            .expect("resident")
            .composites()
            .map(val_of)
            .collect()
    };
    assert_eq!(
        vals(&store),
        [v, (8, Some(3))],
        "one value, three witnesses"
    );
    let first = store
        .peek(&key_of(1))
        .unwrap()
        .composites()
        .next()
        .unwrap()
        .clone();
    assert_eq!(
        first.parts().next().unwrap().rel,
        RelId(1),
        "first part order kept"
    );
    store.delete(&key_of(1), &comp_of(v, true), 1);
    store.delete(&key_of(1), &comp_of(v, false), 1);
    assert_eq!(vals(&store), [v, (8, Some(3))]);
    store.delete(&key_of(1), &comp_of(v, true), 1);
    assert_eq!(vals(&store), [(8, Some(3))]);
    assert!(store.check_accounting().is_empty());
}

// Deterministic replay of tests/cache_store_model.proptest-regressions
// (cc6e66d0…): Create{9,[19]} → Insert{9,19} → Delete{9,19} → Probe{9}
// on a 1-bucket store. After create + insert the witness count for id 19
// is 2, so a single delete must leave it *visible*. The historical model
// tracked values as a set and removed the id on the first delete, then
// flagged the (correct) store as inconsistent. The model above counts
// witnesses, matching §6's globally-consistent semantics.
#[test]
fn regression_single_delete_keeps_double_witnessed_entry() {
    let mut store = CacheStore::new(1);
    store.create(key_of(9), vec![(comp(19), 1)]);
    store.insert(&key_of(9), comp(19), 1);
    store.delete(&key_of(9), &comp(19), 1);
    let entry = store.probe(&key_of(9)).expect("entry must survive");
    let ids: Vec<u64> = entry.composites().map(|c| c.identity().pair(0).1).collect();
    assert_eq!(ids, vec![19]);
    // The second delete exhausts the witness count and hides the id.
    store.delete(&key_of(9), &comp(19), 1);
    let entry = store.probe(&key_of(9)).expect("key entry persists");
    assert_eq!(entry.composites().count(), 0);
}
