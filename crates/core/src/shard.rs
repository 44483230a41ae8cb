//! Sharded parallel execution of the A-Caching engine.
//!
//! The paper's engine (§3.1) is a strictly single-threaded event loop:
//! every update, across all streams, is processed to completion in global
//! arrival order. [`ShardedEngine`] scales that loop across cores by
//! **partitioning the update stream on one join-attribute equivalence
//! class** over `N` independent [`AdaptiveJoinEngine`] shards, executed by
//! the persistent worker runtime ([`crate::runtime`]):
//!
//! * A **partition class** is chosen (automatically: the equivalence class
//!   whose member attributes span the most relations). Every relation with
//!   an attribute in that class is *routed*: each of its updates goes to
//!   the single shard owning that attribute's value. Relations without
//!   such an attribute are *broadcast* to every shard.
//! * Shard ownership of a partition-class value is assigned by a
//!   **balancing directory**: the first insert of a value sends it to the
//!   least-loaded shard (load = the shard's virtual cost clock, refreshed
//!   every batch, plus an estimate for updates routed since), and the
//!   assignment is pinned in a directory until the value's live tuple
//!   count returns to zero. Deletes follow the directory, so windows
//!   shrink in the shard they grew in. Compared to PR 1's stateless
//!   `hash(v) % N`, this evens out key-popularity skew instead of freezing
//!   it into the shard assignment.
//! * Each shard runs the full adaptive machinery (profiler, re-optimizer,
//!   cache stores) over its substream on a **long-lived worker thread**
//!   that owns the shard's engine; batches stream through std channels
//!   and results merge incrementally while routing is still in
//!   progress (see [`crate::runtime`] for the pipeline and its safety
//!   protocol). Batches under `INLINE_BATCH` updates run inline on the
//!   caller — thread hand-off costs more than it buys for a handful of
//!   updates.
//! * Output deltas are merged back into **global arrival order** by batch
//!   index; within one update's delta group the results are put in
//!   canonical row order ([`canonicalize_group`]), making the merged
//!   output a pure function of the input batch — bit-identical across
//!   runs, shard counts, and thread schedules.
//!
//! **Correctness.** All attributes of the partition class are transitively
//! equated by equijoin predicates, so every n-way result binds them to one
//! common value `v` (NULL joins nothing). The tuples of routed relations
//! participating in that result live only in the shard the directory
//! assigned to `v`, hence each result delta materializes in *exactly one*
//! shard: no result is lost (the probing update reaches that shard —
//! directly if routed, by broadcast otherwise) and none is duplicated (any
//! other shard lacks the routed tuples). A directory entry is only evicted
//! once its live count hits zero — at which point no routed tuple bound to
//! `v` remains in any shard — so a value reassigned after eviction starts
//! from empty state everywhere.
//!
//! **Failure containment.** A panic inside a shard worker no longer aborts
//! the process: the worker catches it, poisons only its own shard, and the
//! engine surfaces a typed [`ShardPanic`] (shard id + last telemetry
//! snapshot) from the `try_*` methods while the remaining shards drain
//! cleanly and stay inspectable.

use crate::engine::{AdaptiveJoinEngine, EngineConfig, EngineCounters};
use crate::runtime::{Dispatch, ShardRuntime};
pub use crate::runtime::ShardPanic;
use acq_mjoin::clock::ClockAggregate;
use acq_mjoin::plan::PlanOrders;
use acq_stream::{AttrRef, ColId, Composite, EquivClassId, Op, QuerySchema, RelId, Update};
use acq_telemetry::{FieldValue, TelemetrySnapshot};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Below this batch size the shards run inline on the calling thread —
/// thread hand-off costs more than it buys for a handful of updates.
const INLINE_BATCH: usize = 32;

/// Sharding configuration.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of engine shards (≥ 1).
    pub num_shards: usize,
    /// Partition class; `None` selects the class spanning the most
    /// relations (ties toward the lower class id).
    pub partition_class: Option<EquivClassId>,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            num_shards: 4,
            partition_class: None,
        }
    }
}

/// Routing counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoutingStats {
    /// Updates routed to a single shard.
    pub routed: u64,
    /// Updates broadcast to every shard (relations outside the partition
    /// class).
    pub broadcast: u64,
}

/// Pick the partition class covering the most relations (ties toward the
/// lower class id). `None` when the query has no join predicates at all.
pub fn auto_partition_class(query: &QuerySchema) -> Option<EquivClassId> {
    let mut best: Option<(EquivClassId, usize)> = None;
    for c in 0..query.num_equiv_classes() {
        let cls = EquivClassId(c);
        let cover = query
            .rel_ids()
            .filter(|&r| partition_col(query, r, cls).is_some())
            .count();
        if best.is_none_or(|(_, bc)| cover > bc) {
            best = Some((cls, cover));
        }
    }
    best.map(|(cls, _)| cls)
}

/// First column of relation `r` belonging to equivalence class `cls`.
fn partition_col(query: &QuerySchema, r: RelId, cls: EquivClassId) -> Option<ColId> {
    (0..query.relation(r).arity() as u16)
        .map(ColId)
        .find(|&c| query.equiv_class(AttrRef { rel: r, col: c }) == Some(cls))
}

/// Mixed 64-bit identity of one partition-class value. FxHash's low bits
/// are weak; the finalization mix spreads them before the directory (and,
/// in the reference executor, `% num_shards`) looks at them.
fn partition_key(u: &Update, col: ColId) -> u64 {
    use std::hash::Hasher;
    let mut h = acq_sketch::FxHasher::default();
    // NULL partition values key like any other value: the tuple joins
    // nothing (join_eq is false for NULL), so *which* shard stores it is
    // irrelevant — only that its insert and delete agree.
    u.data.get(col.0).hash_into(&mut h);
    let mut x = h.finish();
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x
}

/// Pass-through hasher for the directory: [`partition_key`] already
/// murmur-finalizes its output, so rehashing it would only add latency to
/// the per-update routing path.
#[derive(Debug, Default)]
struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("directory keys hash as u64");
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// Directory record for one live partition-class value.
#[derive(Debug, Clone, Copy)]
struct DirEntry {
    /// Owning shard.
    shard: u32,
    /// Net live tuple count (inserts − deletes) under this value.
    live: u32,
}

/// Load-balancing router: per-relation broadcast table plus the
/// value→shard directory.
#[derive(Debug)]
struct Router {
    /// `part_col[rel]` = column keyed on, or `None` to broadcast.
    part_col: Vec<Option<ColId>>,
    num_shards: usize,
    /// Live partition-value assignments (64-bit mixed key → entry; a hash
    /// collision merely colocates two values, which is always correct).
    directory: HashMap<u64, DirEntry, BuildHasherDefault<KeyHasher>>,
    /// Estimated virtual-ns load per shard: the shard clock at the last
    /// refresh plus `est_unit` per update routed since.
    load: Vec<u64>,
    /// Running estimate of virtual ns per routed update.
    est_unit: u64,
    /// Routed updates seen (denominator for `est_unit`).
    routed_seen: u64,
    /// Routed updates since the last [`Router::refresh_load`]; the caller
    /// re-anchors once this reaches [`REFRESH_EVERY`] (reading every shard
    /// clock per tiny batch would dominate the inline path).
    routed_since_refresh: u64,
    /// Routed/broadcast counts of every update routed so far.
    stats: RoutingStats,
}

/// Re-anchor router load estimates on the true shard clocks at the first
/// batch boundary after this many routed updates. Large batches refresh at
/// every boundary; small inline batches amortize the clock reads.
const REFRESH_EVERY: u64 = 64;

impl Router {
    fn new(query: &QuerySchema, cls: EquivClassId, num_shards: usize) -> Router {
        Router {
            part_col: query
                .rel_ids()
                .map(|r| partition_col(query, r, cls))
                .collect(),
            num_shards,
            directory: HashMap::default(),
            load: vec![0; num_shards],
            est_unit: 1,
            routed_seen: 0,
            routed_since_refresh: REFRESH_EVERY,
            stats: RoutingStats::default(),
        }
    }

    /// Time to re-anchor on the shard clocks? (Deterministic: depends only
    /// on the routed-update count, and the clocks themselves are virtual.)
    fn needs_refresh(&self) -> bool {
        self.routed_since_refresh >= REFRESH_EVERY
    }

    /// Re-anchor per-shard load on the true virtual cost clocks (called at
    /// every batch boundary; clocks are deterministic, so routing is too).
    fn refresh_load(&mut self, clocks: impl Iterator<Item = u64>) {
        let mut sum = 0u64;
        for (slot, clock) in self.load.iter_mut().zip(clocks) {
            *slot = clock;
            sum += clock;
        }
        if let Some(unit) = sum.checked_div(self.routed_seen) {
            self.est_unit = unit.max(1);
        }
        self.routed_since_refresh = 0;
    }

    fn least_loaded(&self) -> usize {
        // Ties toward the lower shard id (min_by_key keeps the first min).
        self.load
            .iter()
            .enumerate()
            .min_by_key(|&(_, l)| *l)
            .map(|(i, _)| i)
            .expect("at least one shard")
    }

    /// Pick the shard(s) for `u` and count it in [`Router::stats`].
    fn route(&mut self, u: &Update) -> Dispatch {
        let Some(col) = self.part_col[u.rel.0 as usize] else {
            self.stats.broadcast += 1;
            return Dispatch::All;
        };
        self.stats.routed += 1;
        if self.num_shards == 1 {
            self.routed_seen += 1;
            return Dispatch::Shard(0);
        }
        let key = partition_key(u, col);
        let shard = match u.op {
            Op::Insert => match self.directory.get_mut(&key) {
                Some(e) => {
                    e.live += 1;
                    e.shard as usize
                }
                None => {
                    let s = self.least_loaded();
                    self.directory.insert(
                        key,
                        DirEntry {
                            shard: s as u32,
                            live: 1,
                        },
                    );
                    s
                }
            },
            Op::Delete => match self.directory.get_mut(&key) {
                Some(e) => {
                    let s = e.shard as usize;
                    e.live = e.live.saturating_sub(1);
                    if e.live == 0 {
                        self.directory.remove(&key);
                    }
                    s
                }
                // A delete with no directory entry reverts nothing in any
                // shard; route it anywhere consistent.
                None => self.least_loaded(),
            },
        };
        self.load[shard] += self.est_unit;
        self.routed_seen += 1;
        self.routed_since_refresh += 1;
        Dispatch::Shard(shard)
    }
}

/// Put one update's delta group into canonical row order (sorted by the
/// per-relation tuple data of each result). Both the sharded merge and any
/// single-engine output being compared against it must use this — engines
/// emit equal delta *multisets* per update, but their internal enumeration
/// order depends on store layout and adaptive plan state.
pub fn canonicalize_group(group: &mut [(Op, Composite)], num_relations: usize) {
    if group.len() > 1 {
        // Unstable sort: elements comparing equal have identical canonical
        // rows, so any relative order is the same canonical output.
        group.sort_unstable_by(|(_, a), (_, b)| cmp_canonical(a, b, num_relations));
    }
}

/// Lexicographic comparison of two composites' [`canonical_rows`] keys,
/// computed part-by-part so no key vectors (or `TupleData` clones) are
/// materialized — this runs on the hot batch path for every multi-row
/// delta group.
fn cmp_canonical(a: &Composite, b: &Composite, num_relations: usize) -> std::cmp::Ordering {
    for r in 0..num_relations as u16 {
        let pa = a.part(RelId(r)).map(|t| &t.data);
        let pb = b.part(RelId(r)).map(|t| &t.data);
        match pa.cmp(&pb) {
            std::cmp::Ordering::Equal => {}
            o => return o,
        }
    }
    std::cmp::Ordering::Equal
}

/// A partitioned parallel A-Caching executor: `N` independent
/// [`AdaptiveJoinEngine`]s on persistent worker threads behind a
/// deterministic balancing router and streaming merge.
#[derive(Debug)]
pub struct ShardedEngine {
    query: QuerySchema,
    runtime: ShardRuntime,
    router: Router,
    partition_class: EquivClassId,
}

impl ShardedEngine {
    /// Build with default engine settings and identity pipeline orders.
    pub fn new(query: QuerySchema, num_shards: usize) -> ShardedEngine {
        let orders = PlanOrders::identity(&query);
        ShardedEngine::with_config(
            query,
            orders,
            EngineConfig::default(),
            ShardConfig {
                num_shards,
                partition_class: None,
            },
        )
    }

    /// Build with explicit orders, per-shard engine configuration, and
    /// sharding configuration. Every shard gets an identical engine; they
    /// diverge only through the substreams they see. With more than one
    /// shard this spawns the persistent worker threads (reaped on drop).
    pub fn with_config(
        query: QuerySchema,
        orders: PlanOrders,
        config: EngineConfig,
        shard_cfg: ShardConfig,
    ) -> ShardedEngine {
        assert!(shard_cfg.num_shards >= 1, "need at least one shard");
        let partition_class = shard_cfg
            .partition_class
            .or_else(|| auto_partition_class(&query))
            .expect("query has no join predicates — nothing to partition on");
        let router = Router::new(&query, partition_class, shard_cfg.num_shards);
        assert!(
            router.part_col.iter().any(Option::is_some),
            "partition class covers no relation"
        );
        let engines = (0..shard_cfg.num_shards)
            .map(|_| AdaptiveJoinEngine::with_config(query.clone(), orders.clone(), config.clone()))
            .collect();
        ShardedEngine {
            query,
            runtime: ShardRuntime::new(engines),
            router,
            partition_class,
        }
    }

    // ------------------------------------------------------------------
    // Accessors

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.runtime.num_shards()
    }

    /// The equivalence class the stream is partitioned on.
    pub fn partition_class(&self) -> EquivClassId {
        self.partition_class
    }

    /// Relations routed by broadcast (no attribute in the partition class).
    pub fn broadcast_relations(&self) -> Vec<RelId> {
        self.router
            .part_col
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_none())
            .map(|(r, _)| RelId(r as u16))
            .collect()
    }

    /// Routing counters.
    pub fn routing_stats(&self) -> RoutingStats {
        self.router.stats
    }

    /// Run `f` against shard `i`'s engine. Engines live behind the worker
    /// runtime's per-shard locks (each is normally owned by its worker
    /// thread), so access is scoped to a closure instead of a borrow.
    pub fn with_shard<R>(&self, i: usize, f: impl FnOnce(&AdaptiveJoinEngine) -> R) -> R {
        f(&self.runtime.engine(i))
    }

    /// Indices of shards poisoned by a worker panic (normally empty).
    pub fn poisoned_shards(&self) -> Vec<usize> {
        self.runtime.poisoned_shards()
    }

    /// Test-only: make shard `i`'s worker panic on its next message,
    /// poisoning that shard (requires `num_shards > 1`). Exercises the
    /// graceful-degradation path surfaced by the `try_*` methods.
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn inject_worker_panic(&mut self, i: usize) {
        assert!(
            self.runtime.is_threaded(),
            "worker panic injection needs a threaded runtime"
        );
        self.runtime.inject_panic(i);
    }

    /// Aggregated virtual clocks: total work across shards, critical path,
    /// balance.
    pub fn clock_aggregate(&self) -> ClockAggregate {
        ClockAggregate::from_ns(
            (0..self.num_shards()).map(|i| self.runtime.engine(i).core().now_ns()),
        )
    }

    /// Engine counters summed over shards. A broadcast update counts once
    /// per shard in `tuples_processed`.
    pub fn counters_aggregate(&self) -> EngineCounters {
        let mut agg = EngineCounters::default();
        for i in 0..self.num_shards() {
            let c = self.runtime.engine(i).counters();
            agg.tuples_processed += c.tuples_processed;
            agg.outputs_emitted += c.outputs_emitted;
            agg.cache_hits += c.cache_hits;
            agg.cache_misses += c.cache_misses;
            agg.reoptimizations += c.reoptimizations;
            agg.demotions += c.demotions;
            agg.reorderings += c.reorderings;
        }
        agg
    }

    /// The canonical cross-shard telemetry merge, mirroring the delta-run
    /// merge: each shard's [`AdaptiveJoinEngine::telemetry_snapshot`] is
    /// taken, its events are stamped with a `shard` field, and the parts
    /// are folded with [`TelemetrySnapshot::merge`] — counters and
    /// histograms sum, ratios merge component-wise (so intensive
    /// quantities stay weighted averages), and events interleave in
    /// virtual-time order. Counter totals are therefore invariant to the
    /// shard count for routed-only workloads. Routing counters and the
    /// shard count ride along as `routing.*` / `shard.count`, and the
    /// worker runtime contributes `shard.queue_depth` (per shard),
    /// `shard.parked_ratio`, and `merge.lag` (see OBSERVABILITY.md).
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut merged = TelemetrySnapshot::new();
        let (mut parks, mut runs) = (0u64, 0u64);
        for i in 0..self.num_shards() {
            let mut part = self.runtime.engine(i).telemetry_snapshot();
            part.tag_events("shard", FieldValue::U64(i as u64));
            merged.merge(&part);
            merged.gauge(
                "shard.queue_depth",
                &[("shard", &i.to_string())],
                self.runtime.queue_depth(i) as f64,
            );
            let (p, r) = self.runtime.park_stats(i);
            parks += p;
            runs += r;
        }
        merged.gauge("shard.count", &[], self.num_shards() as f64);
        let wakeups = parks + runs;
        merged.gauge(
            "shard.parked_ratio",
            &[],
            if wakeups == 0 {
                0.0
            } else {
                parks as f64 / wakeups as f64
            },
        );
        merged.gauge("merge.lag", &[], self.runtime.merge_lag());
        merged.counter("routing.routed", &[], self.router.stats.routed);
        merged.counter("routing.broadcast", &[], self.router.stats.broadcast);
        merged
    }

    /// Run [`AdaptiveJoinEngine::check_structural_invariants`] on every
    /// shard plus cross-shard sanity checks (routing counters consistent
    /// with the configured topology, no poisoned workers). Violations are
    /// prefixed with the offending shard index; empty = healthy.
    /// Diagnostic use only.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for i in 0..self.num_shards() {
            for v in self.runtime.engine(i).check_structural_invariants() {
                violations.push(format!("shard {i}: {v}"));
            }
        }
        for i in self.runtime.poisoned_shards() {
            violations.push(format!("shard {i}: worker poisoned by panic"));
        }
        if self.broadcast_relations().is_empty() && self.router.stats.broadcast > 0 {
            violations.push(format!(
                "routing: {} broadcasts but every relation has a partition column",
                self.router.stats.broadcast
            ));
        }
        violations
    }

    // ------------------------------------------------------------------
    // Processing

    /// Process one update. Equivalent to a one-element
    /// [`ShardedEngine::process_batch`]; panics if a shard is poisoned.
    pub fn process(&mut self, u: &Update) -> Vec<(Op, Composite)> {
        self.process_batch(std::slice::from_ref(u))
    }

    /// Process a batch of updates (in the given order), returning the
    /// concatenated result deltas in global update order. Each update's
    /// delta group is in canonical row order. Panics if a shard is
    /// poisoned — use [`ShardedEngine::try_process_batch`] for typed
    /// failure handling.
    pub fn process_batch(&mut self, updates: &[Update]) -> Vec<(Op, Composite)> {
        self.try_process_batch(updates)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`ShardedEngine::process_batch`] but keeps per-update grouping:
    /// `result[i]` is the canonical delta list of `updates[i]`. Panics if a
    /// shard is poisoned — use [`ShardedEngine::try_process_batch_grouped`]
    /// for typed failure handling.
    pub fn process_batch_grouped(&mut self, updates: &[Update]) -> Vec<Vec<(Op, Composite)>> {
        self.try_process_batch_grouped(updates)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`ShardedEngine::process_batch`]: a poisoned shard yields a
    /// [`ShardPanic`] instead of a panic.
    pub fn try_process_batch(
        &mut self,
        updates: &[Update],
    ) -> Result<Vec<(Op, Composite)>, ShardPanic> {
        let mut out = Vec::new();
        self.drive(updates, &mut out, |_| {})?;
        Ok(out)
    }

    /// Fallible [`ShardedEngine::process_batch_grouped`]: a poisoned shard
    /// yields a [`ShardPanic`] instead of a panic.
    pub fn try_process_batch_grouped(
        &mut self,
        updates: &[Update],
    ) -> Result<Vec<Vec<(Op, Composite)>>, ShardPanic> {
        let mut flat = Vec::new();
        let mut ends = Vec::with_capacity(updates.len());
        self.drive(updates, &mut flat, |end| ends.push(end))?;
        let mut deltas = flat.into_iter();
        let mut start = 0;
        Ok(ends
            .into_iter()
            .map(|end| {
                let group = deltas.by_ref().take(end - start).collect();
                start = end;
                group
            })
            .collect())
    }

    /// The batch driver. Routes the batch (updating the balancing
    /// directory), then either runs it inline (small batches / single
    /// shard) or streams it through the persistent worker runtime. Each
    /// update's delta group is appended to `out` in canonical row order,
    /// in update order, and `group_end` is called with `out.len()` after
    /// each group. On `Err` the failing shard is poisoned permanently;
    /// healthy shards remain drained and inspectable, but further
    /// processing is refused because the poisoned shard's substream state
    /// is lost.
    fn drive(
        &mut self,
        updates: &[Update],
        out: &mut Vec<(Op, Composite)>,
        mut group_end: impl FnMut(usize),
    ) -> Result<(), ShardPanic> {
        if updates.is_empty() {
            return Ok(());
        }
        if let Some(failure) = self.runtime.first_failure() {
            return Err(failure);
        }
        let n_shards = self.num_shards();
        let runtime = &mut self.runtime;
        let router = &mut self.router;
        if n_shards > 1 && router.needs_refresh() {
            router.refresh_load((0..n_shards).map(|i| runtime.engine(i).core().now_ns()));
        }
        let n_rels = self.query.num_relations();
        let mut close_group = |out: &mut Vec<(Op, Composite)>, start: usize| {
            canonicalize_group(&mut out[start..], n_rels);
            group_end(out.len());
        };
        let mut route = |u: &Update| router.route(u);
        if runtime.is_threaded() && updates.len() >= INLINE_BATCH {
            let mut groups = vec![Vec::new(); updates.len()];
            runtime.run_batch(updates, route, &mut groups)?;
            for mut group in groups {
                let start = out.len();
                out.append(&mut group);
                close_group(out, start);
            }
        } else {
            // Inline path: process in arrival order on the caller thread,
            // holding every shard lock for the batch (the workers only
            // touch engines through jobs; none are sent).
            let mut engines: Vec<_> = (0..n_shards).map(|i| runtime.engine(i)).collect();
            for u in updates {
                let start = out.len();
                match route(u) {
                    Dispatch::Shard(s) => engines[s].process_into(u, out),
                    Dispatch::All => {
                        for e in engines.iter_mut() {
                            e.process_into(u, out);
                        }
                    }
                }
                close_group(out, start);
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Scoped-thread reference executor

#[cfg(any(test, feature = "reference-exec"))]
pub mod reference {
    //! The pre-runtime sharded executor, kept as a differential reference.
    //!
    //! [`ScopedShardedEngine`] reproduces the PR 1 execution model exactly:
    //! stateless `mix(hash(v)) % N` routing, a fresh `std::thread::scope`
    //! spawn + join per batch, and a barrier k-way merge of per-shard runs.
    //! The harness sweeps it against the persistent runtime to assert the
    //! canonical delta streams stayed bit-identical across the rework.
    //! Compiled only for tests and the `reference-exec` feature.

    use super::*;
    use acq_stream::merge_ordered_runs;

    /// One update's delta group tagged with its global batch index.
    type IndexedGroup = (usize, Vec<(Op, Composite)>);

    /// Stateless hash router: the PR 1 policy (`mix(hash(v)) % N`).
    #[derive(Debug, Clone)]
    struct StatelessRouter {
        part_col: Vec<Option<ColId>>,
        num_shards: usize,
    }

    impl StatelessRouter {
        fn route(&self, u: &Update) -> Dispatch {
            let Some(col) = self.part_col[u.rel.0 as usize] else {
                return Dispatch::All;
            };
            Dispatch::Shard((partition_key(u, col) % self.num_shards as u64) as usize)
        }
    }

    /// Scoped-thread sharded executor with stateless hash routing — the
    /// exact pre-persistent-runtime behavior, for differential testing.
    #[derive(Debug)]
    pub struct ScopedShardedEngine {
        query: QuerySchema,
        shards: Vec<AdaptiveJoinEngine>,
        router: StatelessRouter,
    }

    impl ScopedShardedEngine {
        /// Build with default engine settings and identity pipeline orders.
        pub fn new(query: QuerySchema, num_shards: usize) -> ScopedShardedEngine {
            let orders = PlanOrders::identity(&query);
            ScopedShardedEngine::with_config(
                query,
                orders,
                EngineConfig::default(),
                ShardConfig {
                    num_shards,
                    partition_class: None,
                },
            )
        }

        /// Build with explicit orders and configuration (mirrors
        /// [`ShardedEngine::with_config`]).
        pub fn with_config(
            query: QuerySchema,
            orders: PlanOrders,
            config: EngineConfig,
            shard_cfg: ShardConfig,
        ) -> ScopedShardedEngine {
            assert!(shard_cfg.num_shards >= 1, "need at least one shard");
            let cls = shard_cfg
                .partition_class
                .or_else(|| auto_partition_class(&query))
                .expect("query has no join predicates — nothing to partition on");
            let router = StatelessRouter {
                part_col: query
                    .rel_ids()
                    .map(|r| partition_col(&query, r, cls))
                    .collect(),
                num_shards: shard_cfg.num_shards,
            };
            let shards = (0..shard_cfg.num_shards)
                .map(|_| {
                    AdaptiveJoinEngine::with_config(query.clone(), orders.clone(), config.clone())
                })
                .collect();
            ScopedShardedEngine {
                query,
                shards,
                router,
            }
        }

        /// Number of shards.
        pub fn num_shards(&self) -> usize {
            self.shards.len()
        }

        /// Process a batch, returning concatenated canonical deltas in
        /// global update order.
        pub fn process_batch(&mut self, updates: &[Update]) -> Vec<(Op, Composite)> {
            let mut out = Vec::new();
            for group in self.process_batch_grouped(updates) {
                out.extend(group);
            }
            out
        }

        /// Per-update grouped batch processing: the verbatim PR 1 path
        /// (route → scoped spawn → join barrier → k-way merge → canon).
        pub fn process_batch_grouped(&mut self, updates: &[Update]) -> Vec<Vec<(Op, Composite)>> {
            if updates.is_empty() {
                return Vec::new();
            }
            let n_shards = self.shards.len();
            let mut work: Vec<Vec<(usize, &Update)>> = vec![Vec::new(); n_shards];
            for (gi, u) in updates.iter().enumerate() {
                match self.router.route(u) {
                    Dispatch::Shard(s) => work[s].push((gi, u)),
                    Dispatch::All => {
                        for w in &mut work {
                            w.push((gi, u));
                        }
                    }
                }
            }
            let per_shard: Vec<Vec<IndexedGroup>> =
                if n_shards == 1 || updates.len() < INLINE_BATCH {
                    self.shards
                        .iter_mut()
                        .zip(&work)
                        .map(|(eng, items)| run_shard(eng, items))
                        .collect()
                } else {
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = self
                            .shards
                            .iter_mut()
                            .zip(&work)
                            .map(|(eng, items)| scope.spawn(move || run_shard(eng, items)))
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| h.join().expect("shard worker panicked"))
                            .collect()
                    })
                };
            let merged = merge_ordered_runs(per_shard, |&(gi, _)| gi);
            let mut out: Vec<Vec<(Op, Composite)>> =
                (0..updates.len()).map(|_| Vec::new()).collect();
            for (gi, group) in merged {
                out[gi].extend(group);
            }
            let n_rels = self.query.num_relations();
            for group in &mut out {
                canonicalize_group(group, n_rels);
            }
            out
        }
    }

    fn run_shard(engine: &mut AdaptiveJoinEngine, items: &[(usize, &Update)]) -> Vec<IndexedGroup> {
        items
            .iter()
            .map(|&(gi, u)| (gi, engine.process(u)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ScopedShardedEngine;
    use super::*;
    use acq_mjoin::oracle::{canonical_rows, multiset_diff};
    use acq_stream::TupleData;

    fn ins(rel: u16, vals: &[i64], ts: u64) -> Update {
        Update::insert(RelId(rel), TupleData::ints(vals), ts)
    }

    fn del(rel: u16, vals: &[i64], ts: u64) -> Update {
        Update::delete(RelId(rel), TupleData::ints(vals), ts)
    }

    /// Simple deterministic workload over a query: inserts with occasional
    /// deletes of live tuples, values in a small domain to force joins.
    fn workload(query: &QuerySchema, seed: u64, len: usize) -> Vec<Update> {
        let mut state = seed.max(1);
        let mut rng = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        let n = query.num_relations() as u64;
        let mut live: Vec<Vec<TupleData>> = vec![Vec::new(); n as usize];
        let mut out = Vec::new();
        for ts in 0..len as u64 {
            let rel = rng(n) as usize;
            let arity = query.relation(RelId(rel as u16)).arity();
            if !live[rel].is_empty() && rng(4) == 0 {
                let data = live[rel].remove(0);
                out.push(Update::delete(RelId(rel as u16), data, ts));
            } else {
                let vals: Vec<i64> = (0..arity).map(|_| rng(5) as i64).collect();
                let data = TupleData::ints(&vals);
                live[rel].push(data.clone());
                out.push(Update::insert(RelId(rel as u16), data, ts));
            }
        }
        out
    }

    fn canon(group: &[(Op, Composite)], n: usize) -> Vec<(Op, Vec<TupleData>)> {
        group
            .iter()
            .map(|(op, c)| (*op, canonical_rows(c, n)))
            .collect()
    }

    #[test]
    fn absent_deletes_sum_over_shards() {
        // chain3 partitions on A: R routes to one shard, T(B) broadcasts,
        // so an absent T delete counts once on every shard.
        use acq_telemetry::MetricValue::Counter;
        let mut sharded = ShardedEngine::new(QuerySchema::chain3(), 2);
        assert!(sharded.process(&del(0, &[9], 0)).is_empty());
        assert!(sharded.process(&del(2, &[9], 1)).is_empty());
        let snap = sharded.telemetry_snapshot();
        let count = |rel: &str| {
            snap.get("relation.absent_deletes", &[("rel", rel)])
                .cloned()
        };
        assert_eq!(count("0"), Some(Counter(1)));
        assert_eq!(count("1"), Some(Counter(0)));
        assert_eq!(count("2"), Some(Counter(2)));
    }

    #[test]
    fn auto_class_prefers_widest_coverage() {
        // Star: the single A class covers everything.
        let q = QuerySchema::star(4);
        assert_eq!(auto_partition_class(&q), Some(EquivClassId(0)));
        // Chain3: A covers {R,S}, B covers {S,T} — tie, lower id wins.
        let q = QuerySchema::chain3();
        assert_eq!(auto_partition_class(&q), Some(EquivClassId(0)));
    }

    #[test]
    fn star_has_no_broadcast_relations() {
        let e = ShardedEngine::new(QuerySchema::star(4), 4);
        assert!(e.broadcast_relations().is_empty());
    }

    #[test]
    fn chain3_broadcasts_t() {
        let e = ShardedEngine::new(QuerySchema::chain3(), 2);
        assert_eq!(e.broadcast_relations(), vec![RelId(2)]);
    }

    #[test]
    fn matches_single_engine_on_star() {
        let q = QuerySchema::star(4);
        let updates = workload(&q, 7, 400);
        let mut single = AdaptiveJoinEngine::new(q.clone());
        let mut sharded = ShardedEngine::new(q.clone(), 3);
        let groups = sharded.process_batch_grouped(&updates);
        for (u, got) in updates.iter().zip(&groups) {
            let want = canon(&single.process(u), 4);
            let got = canon(got, 4);
            assert!(
                multiset_diff(&got, &want).is_empty(),
                "diverged on {u}: got {got:?} want {want:?}"
            );
        }
    }

    #[test]
    fn matches_single_engine_with_broadcast() {
        let q = QuerySchema::chain3();
        let updates = workload(&q, 3, 400);
        let mut single = AdaptiveJoinEngine::new(q.clone());
        let mut sharded = ShardedEngine::new(q.clone(), 4);
        let groups = sharded.process_batch_grouped(&updates);
        assert!(sharded.routing_stats().broadcast > 0, "T must broadcast");
        for (u, got) in updates.iter().zip(&groups) {
            let want = canon(&single.process(u), 3);
            let got = canon(got, 3);
            assert!(
                multiset_diff(&got, &want).is_empty(),
                "diverged on {u}: got {got:?} want {want:?}"
            );
        }
    }

    #[test]
    fn batch_output_is_bit_deterministic() {
        let q = QuerySchema::star(4);
        let updates = workload(&q, 11, 300);
        let run = |shards: usize| {
            let mut e = ShardedEngine::new(q.clone(), shards);
            e.process_batch_grouped(&updates)
                .iter()
                .map(|g| canon(g, 4))
                .collect::<Vec<_>>()
        };
        // Identical across repeated runs *and* shard counts — the per-group
        // canonical order makes the merged output a pure function of input.
        let base = run(2);
        assert_eq!(base, run(2));
        assert_eq!(base, run(4));
    }

    #[test]
    fn matches_scoped_thread_reference() {
        // The persistent runtime (balanced routing, streaming merge) must
        // emit the same canonical delta stream as the PR 1 scoped-thread
        // executor it replaced, at every shard count.
        let q = QuerySchema::star(4);
        let updates = workload(&q, 23, 500);
        let mut reference = ScopedShardedEngine::new(q.clone(), 4);
        let want: Vec<_> = reference
            .process_batch_grouped(&updates)
            .iter()
            .map(|g| canon(g, 4))
            .collect();
        for shards in [1, 2, 4] {
            let mut e = ShardedEngine::new(q.clone(), shards);
            let got: Vec<_> = e
                .process_batch_grouped(&updates)
                .iter()
                .map(|g| canon(g, 4))
                .collect();
            assert_eq!(got, want, "diverged from reference at {shards} shards");
        }
    }

    #[test]
    fn single_shard_defers_to_inner_engine() {
        let q = QuerySchema::chain3();
        let mut sharded = ShardedEngine::new(q.clone(), 1);
        let mut single = AdaptiveJoinEngine::new(q);
        let ups = vec![
            ins(0, &[1], 0),
            ins(1, &[1, 2], 1),
            ins(2, &[2], 2),
            del(1, &[1, 2], 3),
        ];
        for u in &ups {
            let mut want = single.process(u);
            canonicalize_group(&mut want, 3);
            let got = sharded.process(u);
            assert_eq!(canon(&got, 3), canon(&want, 3));
        }
    }

    #[test]
    fn deletes_route_to_inserting_shard() {
        // Insert then delete the same tuples; all shard windows must end
        // empty (a mis-routed delete would leave a phantom tuple behind).
        let q = QuerySchema::star(3);
        let mut e = ShardedEngine::new(q.clone(), 4);
        let mut ups = Vec::new();
        for k in 0..50i64 {
            ups.push(ins(0, &[k, 0], k as u64));
        }
        for k in 0..50i64 {
            ups.push(del(0, &[k, 0], 50 + k as u64));
        }
        e.process_batch(&ups);
        for i in 0..e.num_shards() {
            let len = e.with_shard(i, |s| s.core().relation(RelId(0)).len());
            assert_eq!(len, 0);
        }
    }

    #[test]
    fn directory_balances_and_evicts() {
        let q = QuerySchema::star(3);
        let mut e = ShardedEngine::new(q.clone(), 4);
        // 64 distinct keys, equal weight: argmin assignment must spread
        // them evenly (16 per shard at equal cost).
        let mut ups = Vec::new();
        for k in 0..64i64 {
            ups.push(ins(0, &[k, 0], k as u64));
        }
        e.process_batch(&ups);
        assert_eq!(e.router.directory.len(), 64);
        let max = *e.router.load.iter().max().unwrap();
        let min = *e.router.load.iter().min().unwrap();
        assert!(
            max - min <= e.router.est_unit,
            "unbalanced assignment: load {:?}",
            e.router.load
        );
        // Deleting every tuple must drain the directory completely.
        let dels: Vec<_> = (0..64i64).map(|k| del(0, &[k, 0], 100 + k as u64)).collect();
        e.process_batch(&dels);
        assert_eq!(e.router.directory.len(), 0, "live=0 entries must evict");
    }

    #[test]
    fn worker_panic_poisons_only_its_shard() {
        let q = QuerySchema::star(4);
        let updates = workload(&q, 13, 200);
        let mut e = ShardedEngine::new(q.clone(), 4);
        e.process_batch(&updates[..100]);
        e.inject_worker_panic(1);
        // The batch (or the pre-flight check) must surface the typed error.
        let err = e
            .try_process_batch_grouped(&updates[100..])
            .expect_err("poisoned shard must fail the batch");
        assert_eq!(err.shard, 1);
        assert!(err.message.contains("injected worker panic"), "{err}");
        assert_eq!(e.poisoned_shards(), vec![1]);
        // Healthy shards stay inspectable and drained; further processing
        // keeps failing with the same typed error.
        for i in [0usize, 2, 3] {
            let _ = e.with_shard(i, |s| s.counters());
        }
        assert!(e
            .check_invariants()
            .iter()
            .any(|v| v.contains("worker poisoned")));
        let err2 = e
            .try_process_batch(&updates[..1])
            .expect_err("still poisoned");
        assert_eq!(err2.shard, 1);
    }

    #[test]
    fn clock_and_counter_aggregation() {
        let q = QuerySchema::star(3);
        let updates = workload(&q, 5, 200);
        let mut e = ShardedEngine::new(q, 2);
        e.process_batch(&updates);
        let agg = e.clock_aggregate();
        assert_eq!(agg.shards, 2);
        assert!(agg.total_ns > 0);
        assert!(agg.max_ns >= agg.min_ns);
        let c = e.counters_aggregate();
        // Star has no broadcast relations → every update processed once.
        assert_eq!(c.tuples_processed, updates.len() as u64);
        let rs = e.routing_stats();
        assert_eq!(rs.routed, updates.len() as u64);
        assert_eq!(rs.broadcast, 0);
    }

    #[test]
    fn runtime_telemetry_gauges_present() {
        let q = QuerySchema::star(3);
        let updates = workload(&q, 9, 300);
        let mut e = ShardedEngine::new(q, 2);
        e.process_batch(&updates);
        let snap = e.telemetry_snapshot();
        let text = snap.to_json();
        for metric in ["shard.queue_depth", "shard.parked_ratio", "merge.lag"] {
            assert!(text.contains(metric), "missing {metric} in snapshot");
        }
    }

    /// Drop `e` on another thread and fail (instead of hanging) if the
    /// workers do not all stop within a few seconds.
    fn assert_drops_promptly(e: ShardedEngine) {
        let (tx, rx) = std::sync::mpsc::channel();
        let dropper = std::thread::spawn(move || {
            drop(e);
            let _ = tx.send(());
        });
        rx.recv_timeout(std::time::Duration::from_secs(5))
            .expect("dropping a ShardedEngine must stop its workers promptly");
        dropper.join().expect("drop thread");
    }

    #[test]
    fn drop_returns_promptly_when_idle() {
        // Fresh workers: wait until each has fallen through to a blocking
        // receive (it counts the park just before blocking).
        let e = ShardedEngine::new(QuerySchema::star(3), 4);
        let start = std::time::Instant::now();
        while (0..4).any(|i| e.runtime.park_stats(i).0 == 0) {
            assert!(start.elapsed() < std::time::Duration::from_secs(5), "workers never idled");
            std::thread::yield_now();
        }
        assert_drops_promptly(e);
        // Right after a batch, while workers wind down from it.
        let q = QuerySchema::star(3);
        let updates = workload(&q, 21, 300);
        let mut e = ShardedEngine::new(q, 2);
        e.process_batch(&updates);
        assert_drops_promptly(e);
    }

    #[test]
    fn drop_returns_promptly_with_a_poisoned_shard() {
        let q = QuerySchema::star(3);
        let updates = workload(&q, 22, 300);
        let mut e = ShardedEngine::new(q, 3);
        e.process_batch(&updates[..100]);
        e.inject_worker_panic(2);
        let err = e
            .try_process_batch(&updates[100..])
            .expect_err("poisoned shard must fail the batch");
        assert_eq!(err.shard, 2);
        assert_drops_promptly(e);
        // A panic job still queued when the engine drops.
        let mut e = ShardedEngine::new(QuerySchema::star(3), 2);
        e.inject_worker_panic(0);
        assert_drops_promptly(e);
    }

    #[test]
    fn panics_on_consecutive_batches_poison_both_shards() {
        let q = QuerySchema::star(4);
        let updates = workload(&q, 23, 400);
        let mut e = ShardedEngine::new(q, 4);
        e.process_batch(&updates[..100]);
        e.inject_worker_panic(1);
        let err = e
            .try_process_batch(&updates[100..200])
            .expect_err("first panic fails its batch");
        assert_eq!(err.shard, 1);
        e.inject_worker_panic(3);
        let err = e
            .try_process_batch_grouped(&updates[200..300])
            .expect_err("second batch is refused");
        assert_eq!(err.shard, 1);
        // The refused batch fenced nothing, so shard 3 takes its panic job
        // on its own time.
        let start = std::time::Instant::now();
        while e.poisoned_shards() != [1, 3] {
            assert!(
                start.elapsed() < std::time::Duration::from_secs(5),
                "poisoned shards {:?}, expected [1, 3]",
                e.poisoned_shards()
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // Every entry point reports the lower-numbered shard, whether the
        // batch would run inline or on the workers.
        for batch in [&updates[300..301], &updates[300..]] {
            for err in [
                e.try_process_batch(batch).expect_err("flat"),
                e.try_process_batch_grouped(batch).expect_err("grouped"),
            ] {
                assert_eq!(err.shard, 1);
                assert!(err.message.contains("injected worker panic"), "{err}");
            }
        }
        // Healthy shards stay readable, alone and through the merged view.
        for i in [0usize, 2] {
            assert!(e.with_shard(i, |s| s.counters().tuples_processed) > 0);
        }
        let snap = e.telemetry_snapshot();
        assert!(snap.to_json().contains("shard.queue_depth"));
        let violations = e.check_invariants();
        for i in [1, 3] {
            let tag = format!("shard {i}: worker poisoned");
            assert!(violations.iter().any(|v| v.contains(&tag)), "{violations:?}");
        }
    }
}
