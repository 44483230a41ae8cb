//! Model test: [`Relation`] against a per-relation `VecDeque` of live tuples
//! in insertion order.
//!
//! Values come from tiny domains, so most live tuples have equal-data
//! duplicates and every delete has to pick one of them. The store's rule is
//! window order: a delete removes the *oldest* live instance with equal
//! data — the model's first match — or reports `None` when there is none.
//! The same script runs with indexes on both columns, on the second column
//! only, and with every index dropped, so the slab-front answer, the
//! posting-list fallback and the id-order scan fallback are all exercised.

use acq_relation::Relation;
use acq_stream::{ColId, RelId, TupleData, TupleId, Value};
use proptest::prelude::*;
use std::collections::VecDeque;

/// One scripted operation against the store and the model.
#[derive(Debug, Clone)]
enum Step {
    /// Insert `(a, b)`.
    Insert(i64, i64),
    /// Delete the oldest live tuple's data (sliding-window expiry).
    Expire,
    /// Delete the data of the k-th oldest live tuple (out of order).
    DeleteLive(u8),
    /// Delete `(a, b)`, live or not.
    DeleteAny(i64, i64),
    /// Delete data that is never inserted.
    DeleteNever,
    /// Probe every indexed column with value `v`.
    Probe(i64),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        5 => (0i64..3, 0i64..2).prop_map(|(a, b)| Step::Insert(a, b)),
        2 => Just(Step::Expire),
        2 => (0u8..=255).prop_map(Step::DeleteLive),
        1 => (0i64..3, 0i64..2).prop_map(|(a, b)| Step::DeleteAny(a, b)),
        1 => Just(Step::DeleteNever),
        1 => (0i64..3).prop_map(Step::Probe),
    ]
}

/// Index layouts the script is replayed under.
const LAYOUTS: [&[u16]; 3] = [&[0, 1], &[1], &[]];

/// Delete `data` from both, checking the store removed the model's oldest
/// equal instance.
fn delete_both(rel: &mut Relation, model: &mut VecDeque<(TupleId, TupleData)>, data: &TupleData) {
    let expected = model.iter().position(|(_, d)| d == data);
    let got = rel.delete(data);
    match expected {
        Some(pos) => {
            let (id, _) = model.remove(pos).expect("position is in range");
            let got = got.expect("live data must be deleted");
            prop_assert_eq!(got.id, id, "not the oldest equal instance");
            prop_assert_eq!(&got.data, data);
        }
        None => prop_assert!(got.is_none(), "deleted absent data {:?}", data),
    }
}

fn run_script(steps: &[Step], indexed: &[u16]) {
    let mut rel = Relation::new(RelId(0), 2);
    for &c in indexed {
        rel.add_index(ColId(c));
    }
    let mut model: VecDeque<(TupleId, TupleData)> = VecDeque::new();

    for step in steps {
        match *step {
            Step::Insert(a, b) => {
                let data = TupleData::ints(&[a, b]);
                let t = rel.insert(&data);
                if let Some((last, _)) = model.back() {
                    prop_assert!(t.id > *last, "ids must be monotone");
                }
                model.push_back((t.id, data));
            }
            Step::Expire => {
                if let Some((_, data)) = model.front().cloned() {
                    delete_both(&mut rel, &mut model, &data);
                }
            }
            Step::DeleteLive(k) => {
                if !model.is_empty() {
                    let data = model[k as usize % model.len()].1.clone();
                    delete_both(&mut rel, &mut model, &data);
                }
            }
            Step::DeleteAny(a, b) => {
                delete_both(&mut rel, &mut model, &TupleData::ints(&[a, b]));
            }
            Step::DeleteNever => {
                delete_both(&mut rel, &mut model, &TupleData::ints(&[7, 7]));
            }
            Step::Probe(v) => {
                for &c in indexed {
                    let mut got: Vec<TupleId> =
                        rel.probe(ColId(c), &Value::Int(v)).map(|t| t.id).collect();
                    got.sort_unstable();
                    let want: Vec<TupleId> = model
                        .iter()
                        .filter(|(_, d)| *d.get(c) == Value::Int(v))
                        .map(|(id, _)| *id)
                        .collect();
                    prop_assert_eq!(rel.probe_count(ColId(c), &Value::Int(v)), want.len());
                    prop_assert_eq!(got, want);
                }
            }
        }

        prop_assert_eq!(rel.len(), model.len());
        let scanned: Vec<(TupleId, TupleData)> =
            rel.scan().map(|t| (t.id, t.data.clone())).collect();
        prop_assert_eq!(scanned, model.iter().cloned().collect::<Vec<_>>());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn deletes_remove_the_oldest_equal_instance(
        steps in proptest::collection::vec(step_strategy(), 1..160)
    ) {
        for indexed in LAYOUTS {
            run_script(&steps, indexed);
        }
    }
}

/// Cyclic duplicates, as Fig. 12's ∆T has them: a count window over a
/// three-value domain expires tuples in id order, whichever layout answers
/// the delete.
#[test]
fn cyclic_duplicates_expire_in_window_order() {
    for indexed in LAYOUTS {
        let mut rel = Relation::new(RelId(0), 2);
        for &c in indexed {
            rel.add_index(ColId(c));
        }
        let data = |i: i64| TupleData::ints(&[i % 3, 0]);
        for i in 0..15 {
            rel.insert(&data(i));
        }
        for i in 15..2_000 {
            let gone = rel.delete(&data(i - 15)).expect("window tuple is live");
            assert_eq!(gone.id, (i - 15) as TupleId, "layout {indexed:?}");
            rel.insert(&data(i));
        }
        let ids: Vec<TupleId> = rel.scan().map(|t| t.id).collect();
        assert_eq!(ids, (1_985..2_000).collect::<Vec<TupleId>>());
    }
}
