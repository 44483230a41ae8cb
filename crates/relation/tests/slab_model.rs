//! Model test: [`SlabStore`] against a plain `FxHashMap<TupleId, TupleRef>`
//! reference under interleaved inserts (with id gaps), out-of-order deletes,
//! window-style expiry, front removals, and point probes.
//!
//! The slab is the hot-path replacement for the map (O(1) arithmetic lookup
//! instead of a hash probe), so any behavioural divergence — presence, the
//! stored tuple itself, length, or iteration order — is a bug.

use acq_relation::SlabStore;
use acq_sketch::FxHashMap;
use acq_stream::tuple::make_ref;
use acq_stream::{RelId, TupleData, TupleId, TupleRef};
use proptest::prelude::*;

/// One scripted operation against both stores.
#[derive(Debug, Clone)]
enum Step {
    /// Insert the next id, advancing it by `gap` first (gaps model ids
    /// consumed by other shards or rejected updates).
    Insert { gap: u8 },
    /// Remove the k-th oldest live id (out-of-order delete).
    RemoveNth(u8),
    /// Remove every live id below the current frontier minus `keep`
    /// (sliding-window expiry in id order).
    Expire { keep: u8 },
    /// Probe the k-th live id and a guaranteed-absent id.
    Probe(u8),
    /// Remove the tuple `first()` reports (a window delete).
    RemoveFirst,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (0u8..4).prop_map(|gap| Step::Insert { gap }),
        2 => (0u8..=255).prop_map(Step::RemoveNth),
        1 => (0u8..16).prop_map(|keep| Step::Expire { keep }),
        2 => (0u8..=255).prop_map(Step::Probe),
        2 => Just(Step::RemoveFirst),
    ]
}

fn tuple(id: TupleId) -> TupleRef {
    make_ref(RelId(0), id, TupleData::ints(&[id as i64, (id as i64) * 3]))
}

/// Live ids of the reference model, ascending.
fn live_ids(model: &FxHashMap<TupleId, TupleRef>) -> Vec<TupleId> {
    let mut ids: Vec<TupleId> = model.keys().copied().collect();
    ids.sort_unstable();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn slab_matches_hashmap_reference(steps in proptest::collection::vec(step_strategy(), 1..120)) {
        let mut slab = SlabStore::new();
        let mut model: FxHashMap<TupleId, TupleRef> = FxHashMap::default();
        let mut next_id: TupleId = 0;

        for step in steps {
            match step {
                Step::Insert { gap } => {
                    next_id += gap as TupleId; // leave a hole of `gap` ids
                    let t = tuple(next_id);
                    slab.insert(next_id, t.clone());
                    model.insert(next_id, t);
                    next_id += 1;
                }
                Step::RemoveNth(k) => {
                    let ids = live_ids(&model);
                    if ids.is_empty() {
                        continue;
                    }
                    let id = ids[k as usize % ids.len()];
                    let a = slab.remove(id);
                    let b = model.remove(&id);
                    prop_assert_eq!(a.is_some(), b.is_some());
                    if let (Some(a), Some(b)) = (a, b) {
                        prop_assert_eq!(a.id, b.id);
                        prop_assert_eq!(&a.data, &b.data);
                    }
                }
                Step::Expire { keep } => {
                    let cutoff = next_id.saturating_sub(keep as TupleId);
                    for id in live_ids(&model) {
                        if id >= cutoff {
                            break;
                        }
                        prop_assert!(slab.remove(id).is_some());
                        model.remove(&id);
                    }
                }
                Step::Probe(k) => {
                    let ids = live_ids(&model);
                    if let Some(&id) = ids.get(k as usize % ids.len().max(1)) {
                        let got = slab.get(id).expect("live id must resolve");
                        prop_assert_eq!(got.id, id);
                        prop_assert_eq!(&got.data, &model[&id].data);
                    }
                    // An id beyond the frontier is never present.
                    prop_assert!(slab.get(next_id + 1).is_none());
                }
                Step::RemoveFirst => {
                    let Some(id) = slab.first().map(|t| t.id) else {
                        continue;
                    };
                    prop_assert_eq!(slab.remove(id).map(|t| t.id), Some(id));
                    prop_assert!(model.remove(&id).is_some());
                }
            }

            // Global invariants after every step.
            prop_assert_eq!(slab.len(), model.len());
            let slab_ids: Vec<TupleId> = slab.iter().map(|t| t.id).collect();
            let model_ids = live_ids(&model);
            prop_assert_eq!(slab.first().map(|t| t.id), model_ids.first().copied());
            prop_assert_eq!(slab_ids, model_ids);
        }
    }
}
