//! [`JoinCore`]: relation stores + query graph + virtual clock.
//!
//! The single-operator primitive [`Meter::probe_row`] implements `./_{i_j}`
//! of §3.1 — join a borrowed input row with one relation, enforcing all
//! compiled predicates, via hash index when the operator has an access path
//! and nested-loop scan otherwise — charging the virtual clock for every
//! physical step. It appends each match `input · t` straight into the
//! output [`Frontier`], one row of exactly the output width, so no row is
//! built or copied per match beyond its own parts. It is the one place the
//! probe charging rules live: the A-Caching engine walks its pipelines
//! over frontiers with it (caching off, that walk is the plain MJoin), and
//! the XJoin baseline calls it through the owned-composite wrapper
//! [`JoinCore::probe_join`].

use crate::clock::{CostModel, VirtualClock};
use crate::plan::CompiledOp;
use acq_relation::Relation;
use acq_stream::{Composite, Frontier, Op, QuerySchema, RelId, Row, TupleRef, Update, MAX_PARTS};

/// Shared execution state: one [`Relation`] per joined relation, the query
/// graph, and the [`Meter`] (cost model + virtual clock).
#[derive(Debug)]
pub struct JoinCore {
    query: QuerySchema,
    relations: Vec<Relation>,
    meter: Meter,
    /// [`JoinCore::probe_join`]'s result rows, stored empty between calls.
    results: Frontier<'static>,
}

/// The charging half of a [`JoinCore`]: cost model, virtual clock and probe
/// counters. [`JoinCore::split`] hands it out next to a shared borrow of the
/// relation stores, so a pipeline walk can hold [`Row`]s that point into
/// the stores while it charges the clock.
#[derive(Debug)]
pub struct Meter {
    cost: CostModel,
    clock: VirtualClock,
    /// Index-probe matches resolved `TupleId → TupleRef` by direct slab
    /// indexing (i.e. without a second hash lookup). Telemetry:
    /// `probe.resolved_direct`.
    resolved_direct: u64,
}

impl Meter {
    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Current virtual time (ns).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Charge arbitrary virtual time.
    #[inline]
    pub fn charge(&mut self, ns: u64) {
        self.clock.charge(ns);
    }

    /// Execute one join operator: join `input` with `op.target` in
    /// `relations`, appending each matching concatenation `input · t` to
    /// `out` in match order. Returns the number of rows appended.
    ///
    /// Charges an index probe (or a scan) plus one concat per match; index
    /// probes with a NULL probe value match nothing but still pay the probe.
    ///
    /// # Panics
    /// If `out` does not hold rows one part wider than `input`.
    #[inline]
    pub fn probe_row<'a>(
        &mut self,
        relations: &'a [Relation],
        input: Row<'_, 'a>,
        op: &CompiledOp,
        out: &mut Frontier<'a>,
    ) -> usize {
        let rel = &relations[op.target.0 as usize];
        let mut produced = 0usize;
        match op.index_access {
            Some((col, probe_attr)) => {
                let v = input
                    .get(probe_attr)
                    .expect("probe attribute must be bound in the prefix");
                if v.is_null() {
                    // Equijoin: NULL matches nothing; still pay the probe.
                    self.clock.charge(self.cost.index_probe);
                    return 0;
                }
                let mut matches = 0usize;
                for t in rel.probe(col, v) {
                    matches += 1;
                    if residuals_hold(input, t, &op.residual) {
                        out.push_extended(input, t);
                        produced += 1;
                    }
                }
                self.resolved_direct += matches as u64;
                self.clock.charge(
                    self.cost.indexed_join(matches, op.residual.len())
                        + produced as u64 * self.cost.concat,
                );
            }
            None => {
                for t in rel.scan() {
                    if residuals_hold(input, t, &op.residual) {
                        out.push_extended(input, t);
                        produced += 1;
                    }
                }
                self.clock.charge(
                    self.cost.scan_join(rel.len(), op.residual.len())
                        + produced as u64 * self.cost.concat,
                );
            }
        }
        produced
    }
}

impl JoinCore {
    /// Build a core for `query` with hash indexes on **every join-attribute
    /// column** (§7.1: hash indexes by default).
    pub fn new(query: QuerySchema) -> JoinCore {
        JoinCore::with_cost_model(query, CostModel::default())
    }

    /// Like [`JoinCore::new`] with an explicit cost model.
    pub fn with_cost_model(query: QuerySchema, cost: CostModel) -> JoinCore {
        let mut relations: Vec<Relation> = query
            .rel_ids()
            .map(|r| Relation::new(r, query.relation(r).arity()))
            .collect();
        for p in query.predicates() {
            for a in [p.left, p.right] {
                if !relations[a.rel.0 as usize].has_index(a.col) {
                    relations[a.rel.0 as usize].add_index(a.col);
                }
            }
        }
        JoinCore {
            query,
            relations,
            meter: Meter {
                cost,
                clock: VirtualClock::new(),
                resolved_direct: 0,
            },
            results: Frontier::default(),
        }
    }

    /// The query graph.
    pub fn query(&self) -> &QuerySchema {
        &self.query
    }

    /// Relation store accessor.
    pub fn relation(&self, r: RelId) -> &Relation {
        &self.relations[r.0 as usize]
    }

    /// Mutable relation store accessor (index management in experiments).
    pub fn relation_mut(&mut self, r: RelId) -> &mut Relation {
        &mut self.relations[r.0 as usize]
    }

    /// All relation stores.
    pub fn relations(&self) -> &[Relation] {
        &self.relations
    }

    /// The relation stores (shared) and the [`Meter`] (exclusive) at once:
    /// the borrow a pipeline walk over [`Row`]s needs.
    pub fn split(&mut self) -> (&[Relation], &mut Meter) {
        (&self.relations, &mut self.meter)
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.meter.cost
    }

    /// Current virtual time (ns).
    pub fn now_ns(&self) -> u64 {
        self.meter.now_ns()
    }

    /// Current virtual time (s).
    pub fn now_secs(&self) -> f64 {
        self.meter.clock.now_secs()
    }

    /// Index-probe matches resolved to their [`TupleRef`] by direct slab
    /// indexing rather than a second hash lookup (the whole probe path
    /// after the one hash on the key value).
    pub fn resolved_direct(&self) -> u64 {
        self.meter.resolved_direct
    }

    /// Charge arbitrary virtual time (callers layering extra machinery —
    /// caches, profiling — charge through this).
    pub fn charge(&mut self, ns: u64) {
        self.meter.charge(ns);
    }

    /// Apply an update to its relation store, charging maintenance cost.
    ///
    /// * `Insert` mints and returns the stored tuple's reference.
    /// * `Delete` removes one instance with matching data and returns its
    ///   reference; returns `None` (and charges nothing further) if no
    ///   instance matches — a window never produces such a delete, but
    ///   defensive callers may feed arbitrary update streams.
    pub fn apply_update(&mut self, u: &Update) -> Option<TupleRef> {
        match u.op {
            Op::Insert => {
                self.meter.charge(self.meter.cost.store_insert);
                Some(self.relations[u.rel.0 as usize].insert(&u.data))
            }
            Op::Delete => {
                self.meter.charge(self.meter.cost.store_delete);
                self.relations[u.rel.0 as usize].delete(&u.data)
            }
        }
    }

    /// [`Meter::probe_row`] over an owned composite input, appending owned
    /// results to `out`. Returns the number of results.
    pub fn probe_join(
        &mut self,
        input: &Composite,
        op: &CompiledOp,
        out: &mut Vec<Composite>,
    ) -> usize {
        let mut parts = input.parts();
        let first = parts.next().expect("a row has at least one part");
        let mut buf = [first; MAX_PARTS];
        for (slot, t) in buf[1..].iter_mut().zip(parts) {
            *slot = t;
        }
        let row = Row::new(&buf[..input.len()]);
        let mut results = std::mem::take(&mut self.results).recycle();
        results.reset(row.len() + 1);
        let n = self.meter.probe_row(&self.relations, row, op, &mut results);
        out.extend(results.rows().map(|r| r.to_composite()));
        self.results = results.recycle();
        n
    }

    /// Charge the per-result output cost for `count` emitted deltas.
    pub fn charge_outputs(&mut self, count: usize) {
        self.meter
            .charge(count as u64 * self.meter.cost.emit_output);
    }
}

/// Evaluate residual predicates `(target attr, prefix attr)` between a
/// candidate target tuple and the bound prefix.
#[inline]
fn residuals_hold(
    input: Row<'_, '_>,
    candidate: &TupleRef,
    residual: &[(acq_stream::AttrRef, acq_stream::AttrRef)],
) -> bool {
    // Single-predicate equijoins (the overwhelmingly common compiled shape)
    // carry no residuals; skip the iterator machinery outright.
    if residual.is_empty() {
        return true;
    }
    residual.iter().all(|(t_attr, p_attr)| {
        let tv = candidate.data.get(t_attr.col.0);
        match input.get(*p_attr) {
            Some(pv) => tv.join_eq(pv),
            None => false,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CompiledOp, PipelineOrder};
    use acq_stream::{QuerySchema, TupleData};

    fn chain3_core() -> JoinCore {
        JoinCore::new(QuerySchema::chain3())
    }

    /// Run `seed` through every operator of `ops` (no caches).
    fn run_pipeline(core: &mut JoinCore, seed: TupleRef, ops: &[CompiledOp]) -> Vec<Composite> {
        let mut frontier = vec![Composite::unit(seed)];
        for op in ops {
            let mut next = Vec::new();
            for c in &frontier {
                core.probe_join(c, op, &mut next);
            }
            frontier = next;
        }
        frontier
    }

    fn ins(core: &mut JoinCore, rel: u16, vals: &[i64]) -> TupleRef {
        core.apply_update(&Update::insert(RelId(rel), TupleData::ints(vals), 0))
            .unwrap()
    }

    #[test]
    fn indexes_created_on_join_columns() {
        let core = chain3_core();
        assert!(core.relation(RelId(0)).has_index(acq_stream::ColId(0))); // R.A
        assert!(core.relation(RelId(1)).has_index(acq_stream::ColId(0))); // S.A
        assert!(core.relation(RelId(1)).has_index(acq_stream::ColId(1))); // S.B
        assert!(core.relation(RelId(2)).has_index(acq_stream::ColId(0))); // T.B
    }

    #[test]
    fn paper_example_3_1() {
        // Figure 2(b): R1 = {0,2}, R2 = {(1,2),(1,3),(3,4)}, R3 = {2,6};
        // insertion ⟨1⟩ on ∆R1 produces ⟨1,1,2,2⟩ only.
        let mut core = chain3_core();
        ins(&mut core, 0, &[0]);
        ins(&mut core, 0, &[2]);
        ins(&mut core, 1, &[1, 2]);
        ins(&mut core, 1, &[1, 3]);
        ins(&mut core, 1, &[3, 4]);
        ins(&mut core, 2, &[2]);
        ins(&mut core, 2, &[6]);

        let r_new = ins(&mut core, 0, &[1]);
        let order = PipelineOrder {
            stream: RelId(0),
            order: vec![RelId(1), RelId(2)],
        };
        let ops = CompiledOp::compile_pipeline(core.query(), core.relations(), &order);
        let results = run_pipeline(&mut core, r_new, &ops);
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert_eq!(
            r.get(acq_stream::AttrRef::new(0, 0)).unwrap().as_int(),
            Some(1)
        );
        assert_eq!(
            r.get(acq_stream::AttrRef::new(1, 1)).unwrap().as_int(),
            Some(2)
        );
        assert_eq!(
            r.get(acq_stream::AttrRef::new(2, 0)).unwrap().as_int(),
            Some(2)
        );
    }

    #[test]
    fn intermediate_fanout() {
        // The first operator in Example 3.1 produces two intermediate tuples.
        let mut core = chain3_core();
        ins(&mut core, 1, &[1, 2]);
        ins(&mut core, 1, &[1, 3]);
        let r_new = ins(&mut core, 0, &[1]);
        let op = CompiledOp::compile(core.query(), core.relations(), &[RelId(0)], RelId(1));
        let mut out = Vec::new();
        let n = core.probe_join(&Composite::unit(r_new), &op, &mut out);
        assert_eq!(n, 2);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn probe_charges_clock() {
        let mut core = chain3_core();
        ins(&mut core, 1, &[1, 2]);
        let before = core.now_ns();
        let r_new = ins(&mut core, 0, &[1]);
        let op = CompiledOp::compile(core.query(), core.relations(), &[RelId(0)], RelId(1));
        let mut out = Vec::new();
        core.probe_join(&Composite::unit(r_new), &op, &mut out);
        let cost = core.now_ns() - before;
        let m = core.cost_model();
        assert_eq!(cost, m.store_insert + m.indexed_join(1, 0) + m.concat);
    }

    #[test]
    fn scan_join_without_index() {
        let mut core = chain3_core();
        core.relation_mut(RelId(1)).drop_index(acq_stream::ColId(0));
        ins(&mut core, 1, &[1, 2]);
        ins(&mut core, 1, &[2, 3]);
        ins(&mut core, 1, &[1, 4]);
        let r_new = ins(&mut core, 0, &[1]);
        let op = CompiledOp::compile(core.query(), core.relations(), &[RelId(0)], RelId(1));
        assert!(op.index_access.is_none());
        let mut out = Vec::new();
        let n = core.probe_join(&Composite::unit(r_new), &op, &mut out);
        assert_eq!(n, 2, "two S tuples with A=1");
    }

    #[test]
    fn null_probe_matches_nothing() {
        let mut core = chain3_core();
        core.apply_update(&Update::insert(
            RelId(1),
            TupleData::new(vec![acq_stream::Value::Null, acq_stream::Value::Int(1)]),
            0,
        ));
        let r_new = core
            .apply_update(&Update::insert(
                RelId(0),
                TupleData::new(vec![acq_stream::Value::Null]),
                0,
            ))
            .unwrap();
        let op = CompiledOp::compile(core.query(), core.relations(), &[RelId(0)], RelId(1));
        let mut out = Vec::new();
        let n = core.probe_join(&Composite::unit(r_new), &op, &mut out);
        assert_eq!(n, 0, "NULL = NULL must not join");
    }

    #[test]
    fn probe_join_extends_composites_wider_than_the_inline_parts() {
        // A nine-way star: the last operator extends an eight-part input,
        // past a composite's seven inline parts, into nine parts.
        let mut core = JoinCore::new(QuerySchema::star(9));
        for r in 1..9u16 {
            ins(&mut core, r, &[7, r as i64]);
            ins(&mut core, r, &[8, r as i64]);
        }
        ins(&mut core, 8, &[7, 80]);
        let seed = ins(&mut core, 0, &[7, 0]);
        let mut input = Composite::unit(seed);
        for r in 1..8u16 {
            let t = core.relation(RelId(r)).scan().next().unwrap().clone();
            input.push(t);
        }
        assert_eq!(input.len(), 8);
        let prefix: Vec<RelId> = (0..8).map(RelId).collect();
        let op = CompiledOp::compile(core.query(), core.relations(), &prefix, RelId(8));
        let mut out = Vec::new();
        let n = core.probe_join(&input, &op, &mut out);
        assert_eq!((n, out.len()), (2, 2), "two R9 tuples with A=7");
        for c in &out {
            assert_eq!(c.len(), 9);
            assert!(
                c.parts().take(8).eq(input.parts()),
                "input parts first, in order"
            );
            assert_eq!(
                c.get(acq_stream::AttrRef::new(8, 0)).unwrap().as_int(),
                Some(7)
            );
        }
        let p = |c: &Composite| c.get(acq_stream::AttrRef::new(8, 1)).unwrap().as_int();
        assert_eq!([p(&out[0]), p(&out[1])], [Some(8), Some(80)], "match order");
    }

    #[test]
    fn delete_of_absent_tuple_is_noop() {
        let mut core = chain3_core();
        let removed = core.apply_update(&Update::delete(RelId(0), TupleData::ints(&[9]), 0));
        assert!(removed.is_none());
        assert_eq!(core.relation(RelId(0)).len(), 0);
    }

    #[test]
    fn run_pipeline_empty_frontier_short_circuits() {
        let mut core = chain3_core();
        // Empty S: pipeline dies at the first operator.
        let r_new = ins(&mut core, 0, &[1]);
        let order = PipelineOrder {
            stream: RelId(0),
            order: vec![RelId(1), RelId(2)],
        };
        let ops = CompiledOp::compile_pipeline(core.query(), core.relations(), &order);
        let results = run_pipeline(&mut core, r_new, &ops);
        assert!(results.is_empty());
    }
}
