//! Join ordering in the spirit of A-Greedy.
//!
//! The paper's modular approach (§4) takes the join ordering from previous
//! work — A-Greedy \[5\] — and layers cache selection on top: *"We use A-Greedy
//! from \[5\] for adaptive join ordering in our implementation, but the
//! benefits of our approach should be independent of the ordering algorithm
//! used."*
//!
//! [`GreedyOrderer`] implements the greedy rule specialized to join
//! pipelines: order each `∆R_i` pipeline to minimize expected intermediate
//! cardinality at every step (pick next the relation with the smallest
//! expected fanout against the already-joined set, preferring connected
//! relations to avoid cross products). It derives static orders from
//! workload statistics — the best-MJoin orders of the §7.3 plan spectrum.
//! Orders change at run time only through the engine's `set_orders`, which
//! flushes the affected caches (§4.5 step 5); no online reordering loop
//! runs.

use crate::plan::{PipelineOrder, PlanOrders};
use crate::stats::WorkloadStats;
use acq_stream::{QuerySchema, RelId};

/// Greedy minimum-intermediate-cardinality orderer.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyOrderer;

impl GreedyOrderer {
    /// Derive the greedy order for one pipeline.
    ///
    /// Expected cardinality after joining `j` into the current set `S` is
    /// `card(S) × Π_{s∈S, s~j} sel(s,j) × |R_j|` where `s ~ j` ranges over
    /// predicates between set members and `j` (via the query graph). Among
    /// relations connected to `S` (all of them, if none are connected — a
    /// forced cross product), pick the one minimizing that cardinality,
    /// breaking ties toward cheaper (smaller) relations and then lower ids
    /// for determinism.
    pub fn order_pipeline(
        &self,
        query: &QuerySchema,
        stats: &WorkloadStats,
        stream: RelId,
    ) -> PipelineOrder {
        let n = query.num_relations();
        let mut in_set = vec![false; n];
        in_set[stream.0 as usize] = true;
        let mut order = Vec::with_capacity(n - 1);
        for _ in 1..n {
            let set: Vec<RelId> = (0..n as u16)
                .map(RelId)
                .filter(|r| in_set[r.0 as usize])
                .collect();
            let candidates: Vec<RelId> = (0..n as u16)
                .map(RelId)
                .filter(|r| !in_set[r.0 as usize])
                .collect();
            let connected: Vec<RelId> = candidates
                .iter()
                .copied()
                .filter(|&c| query.predicates_between(&[c], &set).next().is_some())
                .collect();
            let pool = if connected.is_empty() {
                &candidates
            } else {
                &connected
            };
            let best = pool
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    let fa = Self::growth_factor(query, stats, &set, a);
                    let fb = Self::growth_factor(query, stats, &set, b);
                    fa.partial_cmp(&fb)
                        .unwrap()
                        .then_with(|| {
                            stats.sizes[a.0 as usize]
                                .partial_cmp(&stats.sizes[b.0 as usize])
                                .unwrap()
                        })
                        .then_with(|| a.0.cmp(&b.0))
                })
                .expect("pool non-empty");
            in_set[best.0 as usize] = true;
            order.push(best);
        }
        PipelineOrder { stream, order }
    }

    /// Multiplicative growth of intermediate cardinality when joining `j`
    /// after `set`.
    fn growth_factor(query: &QuerySchema, stats: &WorkloadStats, set: &[RelId], j: RelId) -> f64 {
        let mut sel_product = 1.0;
        let mut any = false;
        for p in query.predicates_between(&[j], set) {
            let other = if p.left.rel == j {
                p.right.rel
            } else {
                p.left.rel
            };
            sel_product *= stats.sel[other.0 as usize][j.0 as usize];
            any = true;
        }
        if !any {
            sel_product = 1.0; // cross product: full fanout
        }
        sel_product * stats.sizes[j.0 as usize].max(1.0)
    }

    /// Derive the full plan (all pipelines).
    pub fn plan(&self, query: &QuerySchema, stats: &WorkloadStats) -> PlanOrders {
        PlanOrders {
            pipelines: query
                .rel_ids()
                .map(|r| self.order_pipeline(query, stats, r))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_prefers_connected_order() {
        // R(A) ⋈ S(A,B) ⋈ T(B): from R, joining S first is connected; T first
        // would be a cross product. Greedy must pick S.
        let q = QuerySchema::chain3();
        let stats = WorkloadStats::uniform(3, 100.0);
        let o = GreedyOrderer;
        let p = o.order_pipeline(&q, &stats, RelId(0));
        assert_eq!(p.order, vec![RelId(1), RelId(2)]);
        // From T likewise: S first.
        let p = o.order_pipeline(&q, &stats, RelId(2));
        assert_eq!(p.order, vec![RelId(1), RelId(0)]);
    }

    #[test]
    fn selective_relation_joined_first() {
        // Star join: R2 has tiny fanout, R3 huge — greedy puts R2 before R3.
        let q = QuerySchema::star(4);
        let mut stats = WorkloadStats::uniform(4, 100.0);
        stats.set_sel(RelId(0), RelId(1), 0.001); // fanout 0.1
        stats.set_sel(RelId(0), RelId(2), 0.1); // fanout 10
        stats.set_sel(RelId(0), RelId(3), 0.01); // fanout 1
        let o = GreedyOrderer;
        let p = o.order_pipeline(&q, &stats, RelId(0));
        assert_eq!(p.order[0], RelId(1));
        assert_eq!(p.order.last(), Some(&RelId(2)));
    }

    #[test]
    fn plan_covers_all_streams() {
        let q = QuerySchema::star(5);
        let stats = WorkloadStats::uniform(5, 50.0);
        let plan = GreedyOrderer.plan(&q, &stats);
        plan.validate(&q).unwrap();
    }
}
