//! The Executor's pipeline walk (§3.1–§3.2, §6), over width-sized
//! frontiers.
//!
//! One [`Walk`] processes one update's pipeline: plain operators, cache
//! lookups with their miss-path segment runs, plain-cache maintenance taps,
//! Bloom feeds for profiled candidates, and the separate delta computation
//! of globally-consistent caches. The intermediate tuples of a pipeline
//! position live in a [`Frontier`]: rows of exactly that position's width
//! (`j + 1` parts before operator `j`), packed back to back as borrowed
//! parts from the relation stores (or the update's own tuple). The walk
//! therefore performs no reference-count traffic for tuples that die
//! before a sink, and a row costs its own width, not the widest join's.
//! Owned [`Composite`]s are built at exactly three sinks: result deltas
//! written to the caller's buffer, values handed to
//! [`CacheStore::create_hashed`], and tap maintenance values. A cache hit
//! splices owned cached values, so its results are owned too: they go to
//! the caller directly when the cache ends the pipeline, and are otherwise
//! held for the rest of the walk while rows borrow them.
//!
//! A walk borrows the engine's fields disjointly — the relation stores
//! shared, the clock, statistics and cache stores exclusively — which is
//! what lets rows point into the stores while the walk charges and
//! maintains. The walk keeps the breadth-first operator order of the
//! paper's executor, so virtual time, profiler samples and delta order do
//! not depend on how intermediate tuples are held.

use super::adapt::{CacheGroup, CandRuntime};
use super::{EngineCounters, InjectedFault};
use crate::cache::{hash_key, CacheStore};
use crate::profiler::Profiler;
use acq_mjoin::exec::Meter;
use acq_mjoin::metrics::PipelineMetrics;
use acq_mjoin::plan::CompiledOp;
use acq_relation::Relation;
use acq_stream::{AttrRef, Composite, Frontier, Op, Projection, RelId, Row, TupleRef, Value};

/// A pipeline's execution plan, derived from the candidate states by the
/// Re-optimizer.
#[derive(Debug)]
pub(super) struct PipelinePlan {
    /// `lookup[j]` = used candidate starting at position `j`.
    pub(super) lookup: Vec<Option<usize>>,
    /// `taps[j]` = plain-cache maintenance taps before position `j`.
    pub(super) taps: Vec<Vec<Tap>>,
    /// `bloom[j]` = profiled candidates whose probe stream passes position
    /// `j`.
    pub(super) bloom: Vec<Vec<usize>>,
    /// Globally-consistent groups whose segment contains this pipeline's
    /// stream: their segment-join delta is computed separately on every
    /// update to this relation.
    pub(super) gc_direct: Vec<GcTap>,
}

/// One maintenance tap: feed segment deltas of `group` at a pipeline
/// position.
#[derive(Debug, Clone)]
pub(super) struct Tap {
    pub(super) group: usize,
    pub(super) segment: Vec<RelId>,
    pub(super) maint_attrs: Vec<AttrRef>,
}

/// A globally-consistent group's maintenance for updates to one of its
/// segment relations: the updated tuple is joined with the other segment
/// relations through `ops`, compiled when the plan is built.
#[derive(Debug, Clone)]
pub(super) struct GcTap {
    pub(super) tap: Tap,
    pub(super) ops: Vec<CompiledOp>,
}

/// Buffers reused across walks, so a steady-state update allocates
/// nothing. Frontiers are stored empty and re-typed per walk by
/// [`Frontier::recycle`], since their rows borrow from that walk only.
#[derive(Debug, Default)]
pub(super) struct Scratch {
    frontier: Frontier<'static>,
    next: Frontier<'static>,
    seg: Frontier<'static>,
    seg_next: Frontier<'static>,
    /// Cache-hit results that continue through further operators, one
    /// buffer per cache lookup of the walk (rows borrow each once filled).
    held: Vec<Vec<Composite>>,
    /// Frontier positions of the rows that stand in for held results.
    holes: Vec<usize>,
    /// `create(u, v)` value staging.
    values: Vec<(Composite, u32)>,
    /// Per-operator profile record for sampled tuples.
    profile: Vec<(f64, u64)>,
    /// Probe/maintenance key.
    key: Vec<Value>,
}

/// Where a cache segment's results go.
enum Dest<'d, 'w> {
    /// The segment ends the pipeline: results are deltas of kind `Op`.
    Sink(&'d mut Vec<(Op, Composite)>, Op),
    /// Operators follow. Miss results continue as rows in `next`; hit
    /// results are owned, so they go to `held` and a stand-in row of the
    /// full width takes their place in `next` (its position recorded in
    /// `holes`) until the walk can borrow them.
    Rows {
        next: &'d mut Frontier<'w>,
        held: &'d mut Vec<Composite>,
        holes: &'d mut Vec<usize>,
    },
}

impl<'w> Dest<'_, 'w> {
    /// Take an owned hit result; `filler` is any part, repeated to make
    /// the stand-in row.
    fn push_owned(&mut self, c: Composite, filler: &'w TupleRef) {
        match self {
            Dest::Sink(out, op) => out.push((*op, c)),
            Dest::Rows { next, held, holes } => {
                holes.push(next.len());
                let width = next.width();
                next.push_row(std::iter::repeat_n(filler, width));
                held.push(c);
            }
        }
    }

    fn push_row(&mut self, r: Row<'_, 'w>) {
        match self {
            Dest::Sink(out, op) => out.push((*op, r.to_composite())),
            Dest::Rows { next, .. } => next.push_row(r.parts().iter().copied()),
        }
    }
}

/// One update's pipeline walk, borrowing the engine's fields disjointly.
pub(super) struct Walk<'e> {
    pub(super) relations: &'e [Relation],
    pub(super) meter: &'e mut Meter,
    /// The update's pipeline (its stream relation).
    pub(super) stream: RelId,
    pub(super) ops: &'e [CompiledOp],
    pub(super) plan: &'e PipelinePlan,
    pub(super) cands: &'e mut [CandRuntime],
    pub(super) groups: &'e mut [CacheGroup],
    pub(super) profiler: &'e mut Profiler,
    pub(super) metrics: &'e mut PipelineMetrics,
    pub(super) counters: &'e mut EngineCounters,
    pub(super) scratch: &'e mut Scratch,
    pub(super) fault: Option<InjectedFault>,
}

impl<'e> Walk<'e> {
    /// Walk `seed` through the pipeline, honouring caches, taps and
    /// profiling, and append the result deltas to `out`.
    pub(super) fn run(
        &mut self,
        seed: &TupleRef,
        op_kind: Op,
        profiled: bool,
        out: &mut Vec<(Op, Composite)>,
    ) {
        let (relations, ops, plan) = (self.relations, self.ops, self.plan);
        let num_ops = ops.len();
        let mut held = std::mem::take(&mut self.scratch.held);
        if held.len() < num_ops {
            held.resize_with(num_ops, Vec::new);
        }
        let mut holes = std::mem::take(&mut self.scratch.holes);
        let mut profile_rec = std::mem::take(&mut self.scratch.profile);
        profile_rec.clear();
        {
            // Held results are borrowed by rows until the walk ends; each
            // cache lookup fills the next unused buffer and then only
            // reads it.
            let mut unused_held = &mut held[..];
            let mut frontier = std::mem::take(&mut self.scratch.frontier).recycle();
            let mut next = std::mem::take(&mut self.scratch.next).recycle();
            let mut seg = std::mem::take(&mut self.scratch.seg).recycle();
            let mut seg_next = std::mem::take(&mut self.scratch.seg_next).recycle();
            frontier.reset(1);
            frontier.push_row([seed]);
            if profiled {
                self.meter.charge(self.meter.cost_model().profile_overhead);
            }

            let mut j = 0usize;
            while j < num_ops {
                // (a) plain-cache maintenance taps at this position.
                if !plan.taps[j].is_empty() && !frontier.is_empty() {
                    self.feed_plain_taps(&plan.taps[j], &frontier, op_kind);
                }
                // (b) Bloom probe-stream feeds for profiled candidates.
                if !plan.bloom[j].is_empty() && !frontier.is_empty() {
                    self.feed_bloom(&plan.bloom[j], &frontier);
                }
                if frontier.is_empty() {
                    if profiled {
                        profile_rec.push((0.0, 0));
                    }
                    j += 1;
                    continue;
                }
                // (c) CacheLookup (skipped for profiled tuples, §4.3/App. A).
                let lookup = if profiled { None } else { plan.lookup[j] };
                if let Some(ci) = lookup {
                    let end = self.cands[ci].cand.end;
                    if end + 1 == num_ops {
                        self.cache_segment(
                            ci,
                            &frontier,
                            &mut seg,
                            &mut seg_next,
                            Dest::Sink(out, op_kind),
                        );
                        frontier.reset(end + 2);
                    } else {
                        let (buf, rest) = std::mem::take(&mut unused_held)
                            .split_first_mut()
                            .expect("one held buffer per operator position");
                        unused_held = rest;
                        next.reset(end + 2);
                        holes.clear();
                        let dest = Dest::Rows {
                            next: &mut next,
                            held: &mut *buf,
                            holes: &mut holes,
                        };
                        self.cache_segment(ci, &frontier, &mut seg, &mut seg_next, dest);
                        let buf: &Vec<Composite> = buf;
                        for (&h, c) in holes.iter().zip(buf) {
                            next.set_row(h, c.parts());
                        }
                        std::mem::swap(&mut frontier, &mut next);
                    }
                    j = end + 1;
                    continue;
                }
                // (d) plain operator execution.
                let t0 = self.meter.now_ns();
                let in_count = frontier.len();
                next.reset(j + 2);
                for row in frontier.rows() {
                    self.meter.probe_row(relations, row, &ops[j], &mut next);
                }
                let dt = self.meter.now_ns() - t0;
                if profiled {
                    profile_rec.push((in_count as f64, dt));
                }
                self.metrics
                    .record_op(j, in_count as u64, next.len() as u64, dt);
                std::mem::swap(&mut frontier, &mut next);
                j += 1;
            }

            if profiled {
                profile_rec.push((frontier.len() as f64, 0));
                // Caches are disabled for profiled tuples, so every position
                // recorded an entry.
                debug_assert_eq!(profile_rec.len(), num_ops + 1);
                self.profiler.record_profiled(self.stream, &profile_rec);
            }
            out.extend(frontier.rows().map(|r| (op_kind, r.to_composite())));
            self.scratch.frontier = frontier.recycle();
            self.scratch.next = next.recycle();
            self.scratch.seg = seg.recycle();
            self.scratch.seg_next = seg_next.recycle();
        }
        for buf in &mut held {
            buf.clear();
        }
        self.scratch.held = held;
        self.scratch.holes = holes;
        self.scratch.profile = profile_rec;
    }

    /// Probe used cache `ci` for every frontier row; on a miss, run the
    /// covered segment and `create` the entry. Results go to `dest` in
    /// frontier order.
    ///
    /// Hash-once discipline: the probe key is assembled in a reused scratch
    /// buffer and hashed a single time; the same hash serves the probe, the
    /// Bloom pre-filter, and the `create` on a miss. Steady state allocates
    /// nothing (displaced entries donate their buffers to new ones).
    fn cache_segment<'w>(
        &mut self,
        ci: usize,
        frontier: &Frontier<'w>,
        seg: &mut Frontier<'w>,
        seg_next: &mut Frontier<'w>,
        mut dest: Dest<'_, 'w>,
    ) where
        'e: 'w,
    {
        let relations = self.relations;
        let cand = &self.cands[ci].cand;
        let (start, end, group) = (cand.start, cand.end, cand.group);
        let (key_attrs, segment) = (&cand.probe_attrs, &cand.segment);
        let key = &mut self.scratch.key;
        let values = &mut self.scratch.values;
        let store = &mut self.groups[group].store;
        let store = store.as_mut().expect("used cache has a store");
        let model_probe = self.meter.cost_model().cache_probe(key_attrs.len());
        let model_hit_per_tuple = self.meter.cost_model().cache_hit_per_tuple;
        let (mut hits, mut misses, mut hit_ns, mut miss_ns) = (0u64, 0u64, 0u64, 0u64);

        for row in frontier.rows() {
            let t0 = self.meter.now_ns();
            key.clear();
            key.extend(
                key_attrs
                    .iter()
                    .map(|a| row.get(*a).expect("probe attrs bound in prefix").clone()),
            );
            let hash = hash_key(key);
            self.meter.charge(model_probe);
            match store.probe_hashed(key, hash) {
                Some(entry) => {
                    hits += 1;
                    self.meter.charge(entry.len() as u64 * model_hit_per_tuple);
                    // Splice cached values onto the prefix, built once and
                    // moved into the last splice.
                    let mut cached = entry.composites().peekable();
                    if cached.peek().is_some() {
                        let mut prefix = Some(row.to_composite());
                        while let Some(v) = cached.next() {
                            let c = if cached.peek().is_none() {
                                prefix.take().expect("moved once").concat_owned(v)
                            } else {
                                prefix.as_ref().expect("not yet moved").concat(v)
                            };
                            dest.push_owned(c, row.parts()[0]);
                        }
                    }
                    hit_ns += self.meter.now_ns() - t0;
                }
                None => {
                    misses += 1;
                    // Run the covered segment for this row alone.
                    seg.reset(row.len());
                    seg.push_row(row.parts().iter().copied());
                    for op in &self.ops[start..=end] {
                        seg_next.reset(seg.width() + 1);
                        for r in seg.rows() {
                            self.meter.probe_row(relations, r, op, seg_next);
                        }
                        std::mem::swap(seg, seg_next);
                        if seg.is_empty() {
                            break;
                        }
                    }
                    // create(u, v): v restricted to segment relations.
                    values.clear();
                    values.extend(
                        seg.rows()
                            .filter_map(|r| r.restrict(segment))
                            .map(|v| (v.to_composite(), 1)),
                    );
                    let create_cost = self.meter.cost_model().cache_update(values.len());
                    store.create_hashed(key, hash, values.drain(..));
                    self.meter.charge(create_cost);
                    for r in seg.rows() {
                        dest.push_row(r);
                    }
                    miss_ns += self.meter.now_ns() - t0;
                }
            }
        }
        // For deletes probing a *global* cache the semantics are identical:
        // cached values reflect the current segment join (upper bound), and
        // the probing prefix tuple was already removed from its store.
        self.counters.cache_hits += hits;
        self.counters.cache_misses += misses;
        let cr = &mut self.cands[ci];
        cr.hits += hits;
        cr.misses += misses;
        cr.hit_ns += hit_ns;
        cr.miss_ns += miss_ns;
    }

    /// Feed plain-cache maintenance deltas (§3.2): the frontier at the tap
    /// position, restricted to the segment, inserted/deleted per the update's
    /// kind.
    fn feed_plain_taps(&mut self, taps: &[Tap], frontier: &Frontier<'_>, op_kind: Op) {
        let mut cost = 0u64;
        let key = &mut self.scratch.key;
        for tap in taps {
            let Some(store) = self.groups[tap.group].store.as_mut() else {
                continue;
            };
            for row in frontier.rows() {
                let Some(seg) = row.restrict(&tap.segment) else {
                    continue;
                };
                let skipped = match op_kind {
                    Op::Insert => self.fault == Some(InjectedFault::SkipTapInserts),
                    Op::Delete => self.fault == Some(InjectedFault::SkipTapDeletes),
                };
                if !skipped {
                    apply_delta(store, key, tap, seg, op_kind);
                }
                cost += 1;
            }
        }
        let per = self.meter.cost_model().cache_update(1);
        self.meter.charge(cost * per);
    }

    /// Separately-computed maintenance for globally-consistent caches: join
    /// the updated tuple with the other segment relations (charged through
    /// the normal operator costs) and apply the resulting segment-join delta.
    pub(super) fn maintain_gc_direct(&mut self, seed: &TupleRef, op_kind: Op) {
        let (relations, plan) = (self.relations, self.plan);
        let mut frontier = std::mem::take(&mut self.scratch.frontier).recycle();
        let mut next = std::mem::take(&mut self.scratch.next).recycle();
        for gc in &plan.gc_direct {
            let tap = &gc.tap;
            let Some(store) = self.groups[tap.group].store.as_mut() else {
                continue;
            };
            // Progressive join through the remaining segment relations.
            frontier.reset(1);
            frontier.push_row([seed]);
            for op in &gc.ops {
                next.reset(frontier.width() + 1);
                for r in frontier.rows() {
                    self.meter.probe_row(relations, r, op, &mut next);
                }
                std::mem::swap(&mut frontier, &mut next);
                if frontier.is_empty() {
                    break;
                }
            }
            if frontier.is_empty() {
                continue;
            }
            let per = self.meter.cost_model().cache_update(1);
            self.meter.charge(frontier.len() as u64 * per);
            for row in frontier.rows() {
                if let Some(seg) = row.restrict(&tap.segment) {
                    apply_delta(store, &mut self.scratch.key, tap, seg, op_kind);
                }
            }
        }
        self.scratch.frontier = frontier.recycle();
        self.scratch.next = next.recycle();
    }

    /// Feed Bloom miss-probability estimators with probe-key hashes.
    fn feed_bloom(&mut self, cand_idxs: &[usize], frontier: &Frontier<'_>) {
        use std::hash::Hasher;
        let bloom_cost = self.meter.cost_model().bloom_insert;
        let mut charged = 0u64;
        for &ci in cand_idxs {
            let cr = &mut self.cands[ci];
            for row in frontier.rows() {
                let mut h = acq_sketch::FxHasher::default();
                for a in &cr.cand.probe_attrs {
                    row.get(*a).expect("probe attr bound").hash_into(&mut h);
                }
                if let Some(miss) = cr.miss_est.observe(h.finish()) {
                    cr.miss_window.push(miss);
                }
                charged += 1;
            }
        }
        self.meter.charge(charged * bloom_cost);
    }
}

/// Apply one segment delta `seg` to `tap`'s cache entry, keyed on the tap's
/// maintenance attributes (§3.2 `insert(u, r)` / `delete(u, r)`).
fn apply_delta(
    store: &mut CacheStore,
    key: &mut Vec<Value>,
    tap: &Tap,
    seg: Projection<'_, '_, '_>,
    op: Op,
) {
    key.clear();
    key.extend(
        tap.maint_attrs
            .iter()
            .map(|a| seg.get(*a).expect("maint attrs bound in segment").clone()),
    );
    let hash = hash_key(key);
    match op {
        Op::Insert => store.insert_hashed(key, hash, || seg.to_composite(), 1),
        Op::Delete => store.delete_hashed(key, hash, seg.parts(), 1),
    }
}
