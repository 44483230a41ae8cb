//! Correctness gate: per-batch digests of the result deltas, checked
//! against an engine with caching off over the whole stream and against
//! the naive oracle over a prefix.
//!
//! A digest is a signed-multiset checksum of canonical rows (so it does
//! not depend on the order an engine enumerates results in) plus an
//! order-sensitive hash that is compared only where the executor promises
//! canonical output order (the sharded merge).

use acq::engine::AdaptiveJoinEngine;
use acq::shard::canonicalize_group;
use acq_mjoin::oracle::Oracle;
use acq_stream::{Composite, Op, TupleData, Value};

use crate::workload::Workload;

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    /// Inserted minus deleted rows.
    pub count: i64,
    /// Signed sum of row hashes.
    pub sum: u64,
    /// Hash of the row sequence in output order.
    pub ordered: u64,
}

impl Digest {
    fn add(&mut self, op: Op, row: u64) {
        let sign = op.sign();
        self.count += sign;
        self.sum = self.sum.wrapping_add((sign as u64).wrapping_mul(row));
        self.ordered = mix(self.ordered.rotate_left(7) ^ row ^ sign as u64);
    }

    pub fn extend(&mut self, deltas: &[(Op, Composite)]) {
        for (op, c) in deltas {
            self.add(*op, row_hash(c.parts().map(|t| (t.rel.0, &t.data))));
        }
    }

    /// Equal as signed multisets of rows.
    pub fn same_rows(&self, other: &Digest) -> bool {
        self.count == other.count && self.sum == other.sum
    }
}

/// splitmix64 finalizer.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash of one result row given as (relation, tuple) parts in any order.
fn row_hash<'a>(parts: impl Iterator<Item = (u16, &'a TupleData)>) -> u64 {
    let mut acc = 0u64;
    for (rel, data) in parts {
        let mut h = rel as u64 + 1;
        for v in data.0.iter() {
            let x = match v {
                Value::Int(i) => *i as u64,
                Value::Null => 0x6E75_6C6C,
                Value::Str(s) => s.bytes().fold(0x0073_7472, |h, b| mix(h ^ b as u64)),
            };
            h = (h.rotate_left(5) ^ x).wrapping_mul(0x517C_C1B7_2722_0A95);
        }
        acc = acc.wrapping_add(mix(h));
    }
    mix(acc)
}

/// Updates the naive oracle replays per workload: it recomputes each delta
/// by nested loops, so the prefix is kept to about a second of work.
fn oracle_prefix(w: &Workload) -> usize {
    match w.name {
        "star4" => 2_048,
        _ => 16_384,
    }
}

/// Expected per-batch digests for a workload's whole stream.
pub struct Reference {
    pub batches: Vec<Digest>,
}

impl Reference {
    /// Digests from the same engine with caching off, each update's rows
    /// put in canonical order. Errors if the oracle disagrees on the
    /// prefix it replays.
    pub fn compute(w: &Workload) -> Result<Reference, String> {
        let n = w.query.num_relations();
        let mut engine =
            AdaptiveJoinEngine::with_config(w.query.clone(), w.orders.clone(), w.no_cache_config());
        let mut out = Vec::new();
        let batches: Vec<Digest> = w
            .updates
            .chunks(w.batch)
            .map(|batch| {
                let mut d = Digest::default();
                for u in batch {
                    out.clear();
                    engine.process_into(u, &mut out);
                    canonicalize_group(&mut out, n);
                    d.extend(&out);
                }
                d
            })
            .collect();

        let mut oracle = Oracle::new(w.query.clone());
        let prefix = oracle_prefix(w).min(w.updates.len());
        for (i, batch) in w.updates[..prefix].chunks(w.batch).enumerate() {
            let mut d = Digest::default();
            for u in batch {
                for (op, row) in oracle.apply_and_delta(u) {
                    let parts = row.iter().enumerate().map(|(r, t)| (r as u16, t));
                    d.add(op, row_hash(parts));
                }
            }
            if !d.same_rows(&batches[i]) {
                return Err(format!(
                    "reference engine disagrees with the oracle in batch {i}"
                ));
            }
        }
        Ok(Reference { batches })
    }
}
