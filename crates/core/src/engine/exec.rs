//! The Executor's pipeline walk (§3.1–§3.2, §6), over borrowed rows.
//!
//! One [`Walk`] processes one update's pipeline: plain operators, cache
//! lookups with their miss-path segment runs, plain-cache maintenance taps,
//! Bloom feeds for profiled candidates, and the separate delta computation
//! of globally-consistent caches. Intermediate tuples are [`Row`]s that
//! borrow their parts from the relation stores (or the update's own tuple),
//! so the walk performs no reference-count traffic for tuples that die
//! before a sink. Owned [`Composite`]s are built at exactly three sinks:
//! result deltas written to the caller's buffer, values handed to
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

use super::{CandRuntime, EngineCounters, InjectedFault, PipelinePlan, Tap};
use crate::cache::{hash_key, CacheStore};
use crate::profiler::Profiler;
use acq_mjoin::exec::Meter;
use acq_mjoin::metrics::PipelineMetrics;
use acq_mjoin::plan::CompiledOp;
use acq_mjoin::stats::OnlineStats;
use acq_relation::Relation;
use acq_stream::{Composite, Op, RelId, Row, TupleRef, Value};

/// A globally-consistent group's maintenance for updates to one of its
/// segment relations: the updated tuple is joined with the other segment
/// relations through `ops`, compiled when the plan is built.
#[derive(Debug, Clone)]
pub(super) struct GcTap {
    pub(super) tap: Tap,
    pub(super) ops: Vec<CompiledOp>,
}

/// Buffers reused across walks, so a steady-state update allocates
/// nothing. Row buffers are stored empty and re-typed per walk by
/// [`recycle`], since their rows borrow from that walk only.
#[derive(Debug, Default)]
pub(super) struct Scratch {
    frontier: Vec<Row<'static>>,
    next: Vec<Row<'static>>,
    seg: Vec<Row<'static>>,
    seg_next: Vec<Row<'static>>,
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

/// Re-type an emptied row buffer for rows of another lifetime. `Row`'s
/// layout does not depend on its lifetime, so collecting the empty
/// iterator reuses the allocation in place.
fn recycle<'b>(mut v: Vec<Row<'_>>) -> Vec<Row<'b>> {
    v.clear();
    v.into_iter().map(|_| unreachable!("cleared")).collect()
}

/// Where a cache segment's results go.
enum Dest<'d, 'w> {
    /// The segment ends the pipeline: results are deltas of kind `Op`.
    Sink(&'d mut Vec<(Op, Composite)>, Op),
    /// Operators follow. Miss results continue as rows in `next`; hit
    /// results are owned, so they go to `held` and a stand-in row takes
    /// their place in `next` (its position recorded in `holes`) until the
    /// walk can borrow them.
    Rows {
        next: &'d mut Vec<Row<'w>>,
        held: &'d mut Vec<Composite>,
        holes: &'d mut Vec<usize>,
    },
}

impl<'w> Dest<'_, 'w> {
    fn push_owned(&mut self, c: Composite, stand_in: Row<'w>) {
        match self {
            Dest::Sink(out, op) => out.push((*op, c)),
            Dest::Rows { next, held, holes } => {
                holes.push(next.len());
                next.push(stand_in);
                held.push(c);
            }
        }
    }

    fn push_row(&mut self, r: Row<'w>) {
        match self {
            Dest::Sink(out, op) => out.push((*op, r.to_composite())),
            Dest::Rows { next, .. } => next.push(r),
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
    pub(super) stores: &'e mut [Option<CacheStore>],
    pub(super) profiler: &'e mut Profiler,
    pub(super) online: &'e mut OnlineStats,
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
            let mut frontier = recycle(std::mem::take(&mut self.scratch.frontier));
            let mut next = recycle(std::mem::take(&mut self.scratch.next));
            let mut seg = recycle(std::mem::take(&mut self.scratch.seg));
            let mut seg_next = recycle(std::mem::take(&mut self.scratch.seg_next));
            frontier.push(Row::unit(seed));
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
                        frontier.clear();
                    } else {
                        let (buf, rest) = std::mem::take(&mut unused_held)
                            .split_first_mut()
                            .expect("one held buffer per operator position");
                        unused_held = rest;
                        next.clear();
                        holes.clear();
                        let dest = Dest::Rows {
                            next: &mut next,
                            held: &mut *buf,
                            holes: &mut holes,
                        };
                        self.cache_segment(ci, &frontier, &mut seg, &mut seg_next, dest);
                        let buf: &Vec<Composite> = buf;
                        for (&h, c) in holes.iter().zip(buf) {
                            next[h] = Row::of(c);
                        }
                        std::mem::swap(&mut frontier, &mut next);
                    }
                    j = end + 1;
                    continue;
                }
                // (d) plain operator execution.
                let t0 = self.meter.now_ns();
                let in_count = frontier.len();
                let op = &ops[j];
                // Only single-predicate probes identify a selectivity sample.
                let sample_source = match (op.index_access, op.residual.as_slice()) {
                    (Some((_, p)), []) => Some(p.rel),
                    (None, [(_, p)]) => Some(p.rel),
                    _ => None,
                };
                let target_len = relations[op.target.0 as usize].len();
                next.clear();
                for row in &frontier {
                    let produced = self.meter.probe_row(relations, row, op, |r| next.push(r));
                    if let Some(source) = sample_source {
                        self.online
                            .record_probe(source, op.target, produced, target_len);
                    }
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
            out.extend(frontier.iter().map(|r| (op_kind, r.to_composite())));
            self.scratch.frontier = recycle(frontier);
            self.scratch.next = recycle(next);
            self.scratch.seg = recycle(seg);
            self.scratch.seg_next = recycle(seg_next);
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
        frontier: &[Row<'w>],
        seg: &mut Vec<Row<'w>>,
        seg_next: &mut Vec<Row<'w>>,
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
        let store = self.stores[group].as_mut().expect("used cache has a store");
        let model_probe = self.meter.cost_model().cache_probe(key_attrs.len());
        let model_hit_per_tuple = self.meter.cost_model().cache_hit_per_tuple;
        let (mut hits, mut misses, mut hit_ns, mut miss_ns) = (0u64, 0u64, 0u64, 0u64);

        for &row in frontier {
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
                            dest.push_owned(c, row);
                        }
                    }
                    hit_ns += self.meter.now_ns() - t0;
                }
                None => {
                    misses += 1;
                    // Run the covered segment for this row alone.
                    seg.clear();
                    seg.push(row);
                    for op in &self.ops[start..=end] {
                        seg_next.clear();
                        for r in seg.iter() {
                            self.meter.probe_row(relations, r, op, |x| seg_next.push(x));
                        }
                        std::mem::swap(seg, seg_next);
                        if seg.is_empty() {
                            break;
                        }
                    }
                    // create(u, v): v restricted to segment relations.
                    values.clear();
                    values.extend(
                        seg.iter()
                            .filter_map(|r| r.restrict(segment))
                            .map(|v| (v.to_composite(), 1)),
                    );
                    let create_cost = self.meter.cost_model().cache_update(values.len());
                    store.create_hashed(key, hash, values.drain(..));
                    self.meter.charge(create_cost);
                    for &r in seg.iter() {
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
    fn feed_plain_taps(&mut self, taps: &[Tap], frontier: &[Row<'_>], op_kind: Op) {
        let mut cost = 0u64;
        let key = &mut self.scratch.key;
        for tap in taps {
            let Some(store) = self.stores[tap.group].as_mut() else {
                continue;
            };
            for row in frontier {
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
        let mut frontier = recycle(std::mem::take(&mut self.scratch.frontier));
        let mut next = recycle(std::mem::take(&mut self.scratch.next));
        for gc in &plan.gc_direct {
            let tap = &gc.tap;
            let Some(store) = self.stores[tap.group].as_mut() else {
                continue;
            };
            // Progressive join through the remaining segment relations.
            frontier.clear();
            frontier.push(Row::unit(seed));
            for op in &gc.ops {
                next.clear();
                for r in &frontier {
                    self.meter.probe_row(relations, r, op, |x| next.push(x));
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
            for row in &frontier {
                if let Some(seg) = row.restrict(&tap.segment) {
                    apply_delta(store, &mut self.scratch.key, tap, seg, op_kind);
                }
            }
        }
        self.scratch.frontier = recycle(frontier);
        self.scratch.next = recycle(next);
    }

    /// Feed Bloom miss-probability estimators with probe-key hashes.
    fn feed_bloom(&mut self, cand_idxs: &[usize], frontier: &[Row<'_>]) {
        use std::hash::Hasher;
        let bloom_cost = self.meter.cost_model().bloom_insert;
        let mut charged = 0u64;
        for &ci in cand_idxs {
            let cr = &mut self.cands[ci];
            for row in frontier {
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
fn apply_delta(store: &mut CacheStore, key: &mut Vec<Value>, tap: &Tap, seg: Row<'_>, op: Op) {
    key.clear();
    key.extend(
        tap.maint_attrs
            .iter()
            .map(|a| seg.get(*a).expect("maint attrs bound in segment").clone()),
    );
    let hash = hash_key(key);
    match op {
        Op::Insert => store.insert_hashed(key, hash, || seg.to_composite(), 1),
        Op::Delete => store.delete_hashed(key, hash, seg.identity(), 1),
    }
}
