//! The A-Caching engine: Executor + Profiler + Re-optimizer (§4.2, Figure 4).
//!
//! [`AdaptiveJoinEngine`] processes a globally ordered stream of updates
//! through MJoin pipelines while adaptively placing and removing join
//! subresult caches:
//!
//! * **Executor** — walks each update through its pipeline. At positions
//!   where a *used* cache starts, a CacheLookup probes the store; hits bypass
//!   the cached segment, misses run it and `create` the entry (§3.2).
//!   CacheUpdate taps feed maintenance deltas to every active cache whose
//!   segment the current stream belongs to.
//! * **Profiler** — a deterministic 1-in-`k` sample of tuples is processed
//!   with caches disabled, measuring per-operator `δ_j`/`τ_j`; Bloom filters
//!   over candidate probe streams estimate miss probabilities (§4.3,
//!   Appendix A).
//! * **Re-optimizer** — every interval `I`, if some candidate's
//!   benefit/cost drifted beyond `p` (default 20%), reruns offline selection
//!   (§4.4), reallocates memory (§5), and transitions cache states. Used
//!   caches are monitored continuously and demoted immediately when their
//!   net benefit goes negative (§4.5a).
//!
//! The Executor's pipeline walk lives in `engine/exec.rs`, the Profiler in
//! [`crate::profiler`], and the Re-optimizer — candidate states, cache
//! groups, plans and the adaptivity loop — in `engine/adapt.rs`. This
//! module assembles them: it constructs the engine, routes each update
//! through the walk, and exposes accessors, the telemetry snapshot and the
//! invariant checks.
//!
//! Globally-consistent caches (§6) relax the prefix invariant: the cached
//! segment's deltas are *not* computed by regular join processing, so this
//! engine computes them **separately** — on any update to a segment relation
//! of an active global cache, the delta to the segment join is derived
//! directly (a charged index-join of the updated tuple against the other
//! segment relations) and applied to the store. The cached set is then
//! exactly `σ_K(X-join)`, which satisfies the global-consistency invariant
//! (Definition 6.1) at its upper bound. The paper instead maintains the
//! semijoin-reduced lower bound from full-join deltas; that variant cannot
//! repair entries for segment tuples that are unwitnessed at insert time and
//! is unsound when the probing stream belongs to the witness set (e.g. the
//! Figure 12 plan), so we trade a little maintenance work for correctness —
//! see DESIGN.md.

mod adapt;
mod exec;

use crate::candidates::{Candidate, EnumerationConfig};
use crate::memory::MemoryConfig;
use crate::profiler::{Profiler, ProfilerConfig};
use acq_mjoin::exec::JoinCore;
use acq_mjoin::metrics::PipelineMetrics;
use acq_mjoin::plan::{CompiledOp, PlanOrders};
use acq_stream::{Composite, CompositeId, Op, QuerySchema, RelId, Update, Value};
use acq_telemetry::{Event, EventLog, Histogram, TelemetrySnapshot};
use adapt::{Host, Reoptimizer};
use exec::{Scratch, Walk};

/// Which offline selection algorithm the Re-optimizer runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionStrategy {
    /// §4.4 dispatch ([`crate::select::solve_auto`]): recursive DP when nothing
    /// is shared, exhaustive while `m` is small, greedy beyond.
    Auto,
    /// Always exhaustive (exact; the paper's `P`/`G` plans use this).
    Exhaustive,
    /// Always the Appendix B greedy approximation.
    Greedy,
    /// Always LP randomized rounding with the given seed.
    Randomized(u64),
    /// Warm-started local search from the previous selection (§8 future
    /// work (i): incremental re-optimization).
    Incremental,
}

/// How cache placement is decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheMode {
    /// Full A-Caching adaptivity.
    Adaptive,
    /// Force exactly these caches (pipeline, sorted segment rels) into the
    /// used state forever — the §7.2 single-cache experiments.
    Forced(Vec<(RelId, Vec<RelId>)>),
    /// Never use caches: the plain MJoin of §3.1, the paper's baseline `M`.
    /// Nothing is profiled or re-optimized, so only join work and store
    /// maintenance are charged.
    None,
}

/// When the Re-optimizer wakes up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReoptInterval {
    /// Every `I` virtual nanoseconds (paper default: 2 s).
    VirtualNs(u64),
    /// Every `I` processed updates (Figure 12 uses 10,000 tuples).
    Tuples(u64),
}

/// Engine configuration. Defaults mirror §7.1.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Profiler settings (`W = 10` by default).
    pub profiler: ProfilerConfig,
    /// Re-optimization interval `I` (default 2 virtual seconds).
    pub reopt_interval: ReoptInterval,
    /// Statistics/monitoring epoch (used-cache demotion checks, rate rolls);
    /// default 250 virtual ms, `I / 8` of the default interval.
    pub stats_epoch_ns: u64,
    /// Re-optimization trigger threshold `p` (§4.5c; default 0.2).
    pub p_threshold: f64,
    /// Candidate enumeration options (globally-consistent candidates and
    /// their quota).
    pub enumeration: EnumerationConfig,
    /// Memory allocator settings (§5).
    pub memory: MemoryConfig,
    /// Selection algorithm.
    pub selection: SelectionStrategy,
    /// Cache placement mode.
    pub mode: CacheMode,
    /// Cache-store associativity (1 = the paper's direct-mapped scheme;
    /// 2/4/8-way round-robin implements §3.3's "other low-overhead cache
    /// replacement schemes" future work).
    pub cache_ways: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            profiler: ProfilerConfig::default(),
            reopt_interval: ReoptInterval::VirtualNs(2_000_000_000),
            stats_epoch_ns: 250_000_000,
            p_threshold: 0.2,
            enumeration: EnumerationConfig::default(),
            memory: MemoryConfig::default(),
            selection: SelectionStrategy::Auto,
            mode: CacheMode::Adaptive,
            cache_ways: 1,
        }
    }
}

/// Lifecycle state of a candidate cache (§4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheState {
    /// Being used in join processing.
    Used,
    /// Not used; benefit/cost being estimated.
    Profiled,
    /// Neither used nor (actively) considered until the next
    /// re-optimization.
    Unused,
}

/// Aggregate engine counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCounters {
    /// Updates processed.
    pub tuples_processed: u64,
    /// Result deltas emitted.
    pub outputs_emitted: u64,
    /// Cache probes that hit.
    pub cache_hits: u64,
    /// Cache probes that missed.
    pub cache_misses: u64,
    /// Re-optimizations performed (offline algorithm runs).
    pub reoptimizations: u64,
    /// Immediate demotions of used caches (§4.5a).
    pub demotions: u64,
    /// Pipeline order changes ([`AdaptiveJoinEngine::set_orders`] calls).
    pub reorderings: u64,
}

/// A deliberately introduced cache-maintenance bug, used to validate that
/// the differential-testing harness actually detects the discrepancy classes
/// it claims to cover. Faults are inert in production: the field holding one
/// is always `None` unless set through the test-only
/// `AdaptiveJoinEngine::inject_fault` entry point (compiled only under
/// `cfg(test)` or the `fault-injection` feature).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Drop plain-cache `insert` maintenance: cached entries go stale when a
    /// segment relation grows (violates Definition 3.1 consistency).
    SkipTapInserts,
    /// Drop plain-cache `delete` maintenance: cached entries keep tuples the
    /// window already expired (the classic stale-subresult bug).
    SkipTapDeletes,
}

/// The adaptive stream-join engine.
#[derive(Debug)]
pub struct AdaptiveJoinEngine {
    core: JoinCore,
    orders: PlanOrders,
    compiled: Vec<Vec<CompiledOp>>,
    config: EngineConfig,
    profiler: Profiler,
    /// The Re-optimizer: candidate states, cache groups and plans.
    reopt: Reoptimizer,
    counters: EngineCounters,
    /// Pipeline-walk buffers reused across updates.
    scratch: Scratch,
    /// Per-pipeline operator metrics (telemetry; reset when orders change).
    op_metrics: Vec<PipelineMetrics>,
    /// Distribution of result-delta counts per processed update.
    out_hist: Histogram,
    /// Deletes that found no live instance, per relation.
    absent_deletes: Vec<u64>,
    /// Structured telemetry event log (virtual-time stamped).
    tlog: EventLog,
    /// Harness-injected maintenance bug; always `None` in production.
    fault: Option<InjectedFault>,
}

impl AdaptiveJoinEngine {
    /// Build an engine with default §7.1 settings and identity pipeline
    /// orders.
    pub fn new(query: QuerySchema) -> AdaptiveJoinEngine {
        let orders = PlanOrders::identity(&query);
        AdaptiveJoinEngine::with_config(query, orders, EngineConfig::default())
    }

    /// Build with explicit orders and configuration.
    pub fn with_config(
        query: QuerySchema,
        orders: PlanOrders,
        config: EngineConfig,
    ) -> AdaptiveJoinEngine {
        orders.validate(&query).expect("invalid plan orders");
        let core = JoinCore::new(query);
        AdaptiveJoinEngine::from_core(core, orders, config)
    }

    /// Build from a preconfigured [`JoinCore`] (custom indexes/cost model).
    pub fn from_core(
        core: JoinCore,
        orders: PlanOrders,
        config: EngineConfig,
    ) -> AdaptiveJoinEngine {
        let n = core.query().num_relations();
        let num_ops: Vec<usize> = orders.pipelines.iter().map(|p| p.order.len()).collect();
        let mut engine = AdaptiveJoinEngine {
            core,
            orders,
            compiled: Vec::new(),
            profiler: Profiler::new(config.profiler, &num_ops),
            reopt: Reoptimizer::default(),
            counters: EngineCounters::default(),
            scratch: Scratch::default(),
            op_metrics: num_ops.iter().map(|&k| PipelineMetrics::new(k)).collect(),
            out_hist: Histogram::new(),
            absent_deletes: vec![0; n],
            tlog: EventLog::default(),
            fault: None,
            config,
        };
        engine.compile_pipelines();
        let (reopt, host) = engine.split_reopt();
        reopt.reenumerate(host);
        engine
    }

    /// The Re-optimizer and the engine state it works against, borrowed
    /// disjointly.
    fn split_reopt(&mut self) -> (&mut Reoptimizer, Host<'_>) {
        let host = Host {
            core: &mut self.core,
            orders: &self.orders,
            config: &self.config,
            profiler: &mut self.profiler,
            counters: &mut self.counters,
            tlog: &mut self.tlog,
        };
        (&mut self.reopt, host)
    }

    // ------------------------------------------------------------------
    // Accessors

    /// The execution core.
    pub fn core(&self) -> &JoinCore {
        &self.core
    }

    /// Mutable core access (experiments drop indexes etc.; call
    /// [`AdaptiveJoinEngine::recompile`] afterwards).
    pub fn core_mut(&mut self) -> &mut JoinCore {
        &mut self.core
    }

    /// Current pipeline orders.
    pub fn orders(&self) -> &PlanOrders {
        &self.orders
    }

    /// Engine counters.
    pub fn counters(&self) -> EngineCounters {
        self.counters
    }

    /// The configuration in effect.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// All candidates with their states.
    pub fn candidate_states(&self) -> Vec<(&Candidate, CacheState)> {
        self.reopt
            .cands
            .iter()
            .map(|c| (&c.cand, c.state))
            .collect()
    }

    /// Names of currently used caches.
    pub fn used_caches(&self) -> Vec<String> {
        self.reopt
            .cands
            .iter()
            .filter(|c| c.state == CacheState::Used)
            .map(|c| c.cand.name())
            .collect()
    }

    /// Total bytes held by cache stores (Figure 13's memory axis).
    pub fn cache_memory_bytes(&self) -> usize {
        self.reopt.cache_memory_bytes()
    }

    /// Updates per virtual second (the paper's tuple-processing rate).
    pub fn processing_rate(&self) -> f64 {
        let secs = self.core.now_secs();
        if secs <= 0.0 {
            0.0
        } else {
            self.counters.tuples_processed as f64 / secs
        }
    }

    /// Recompile operators after external index changes.
    pub fn recompile(&mut self) {
        self.compile_pipelines();
        self.reopt.rebuild_plans(&self.core, &self.orders);
    }

    fn compile_pipelines(&mut self) {
        self.compiled = self
            .orders
            .pipelines
            .iter()
            .map(|p| CompiledOp::compile_pipeline(self.core.query(), self.core.relations(), p))
            .collect();
    }

    // ------------------------------------------------------------------
    // Processing

    /// Process one update, returning the n-way join result deltas.
    pub fn process(&mut self, u: &Update) -> Vec<(Op, Composite)> {
        let mut out = Vec::new();
        self.process_into(u, &mut out);
        out
    }

    /// [`AdaptiveJoinEngine::process`] writing deltas into a caller-owned
    /// sink instead of returning a fresh vector. With a reused sink the
    /// steady-state update path performs no heap allocation at all (see
    /// `tests/alloc_regression.rs`).
    pub fn process_into(&mut self, u: &Update, out: &mut Vec<(Op, Composite)>) {
        self.counters.tuples_processed += 1;
        // With caching off there are no candidates to estimate, so nothing
        // is profiled: baseline `M` pays for joins alone.
        let profiling = self.config.mode != CacheMode::None;
        if profiling {
            self.profiler.record_update(u.rel);
        }

        // Apply to the store first: deltas and cache maintenance carry the
        // stored tuple's identity, which the store assigns on insert and,
        // on delete, picks as it removes (the oldest equal instance).
        let Some(tref) = self.core.apply_update(u) else {
            // Only a delete of data with no live instance lands here.
            self.absent_deletes[u.rel.0 as usize] += 1;
            self.maybe_housekeeping();
            return;
        };

        let pi = u.rel.0 as usize;
        self.op_metrics[pi].record_update();
        let profiled = profiling && self.profiler.should_profile(u.rel);
        let before = out.len();
        let (relations, meter) = self.core.split();
        let mut walk = Walk {
            relations,
            meter,
            stream: u.rel,
            ops: &self.compiled[pi],
            plan: &self.reopt.plans[pi],
            cands: &mut self.reopt.cands,
            groups: &mut self.reopt.groups,
            profiler: &mut self.profiler,
            metrics: &mut self.op_metrics[pi],
            counters: &mut self.counters,
            scratch: &mut self.scratch,
            fault: self.fault,
        };
        // Globally-consistent maintenance: compute the segment-join delta
        // separately (§6; the prefix invariant doesn't hand it to us) and
        // apply it before any pipeline runs.
        if !walk.plan.gc_direct.is_empty() {
            walk.maintain_gc_direct(&tref, u.op);
        }
        // The walk writes `(op, composite)` deltas straight into the
        // caller's sink — no staging vector, no second copy per delta.
        walk.run(&tref, u.op, profiled, out);

        let produced = out.len() - before;
        self.core.charge_outputs(produced);
        self.counters.outputs_emitted += produced as u64;
        self.out_hist.record(produced as u64);
        self.maybe_housekeeping();
    }

    fn maybe_housekeeping(&mut self) {
        let (reopt, host) = self.split_reopt();
        reopt.housekeeping(host);
    }

    /// Install new pipeline orders: flush all caches, re-enumerate
    /// candidates, reset order-specific statistics (§4.5 step 5). The one
    /// way orders change after construction; each call counts as a
    /// reordering and logs `plan.reordered`.
    pub fn set_orders(&mut self, orders: PlanOrders) {
        orders.validate(self.core.query()).expect("invalid plan");
        self.orders = orders;
        self.counters.reorderings += 1;
        self.tlog
            .push(Event::new(self.core.now_ns(), "plan.reordered", ""));
        self.compile_pipelines();
        self.op_metrics = self
            .orders
            .pipelines
            .iter()
            .map(|p| PipelineMetrics::new(p.order.len()))
            .collect();
        for (i, p) in self.orders.pipelines.iter().enumerate() {
            self.profiler.reset_pipeline(RelId(i as u16), p.order.len());
        }
        let (reopt, host) = self.split_reopt();
        reopt.reenumerate(host);
    }

    /// Capture the engine's full telemetry state: counters, per-operator and
    /// per-candidate metrics, store statistics, memory grants, profiler
    /// estimates, and the structured adaptivity event trace. Not on the hot
    /// path — allocates freely.
    ///
    /// Metric names and labels are documented in `OBSERVABILITY.md`. The
    /// snapshot is self-contained: sharded engines merge per-shard snapshots
    /// with [`TelemetrySnapshot::merge`].
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot::new();
        s.counter("engine.tuples_processed", &[], self.counters.tuples_processed);
        s.counter("engine.outputs_emitted", &[], self.counters.outputs_emitted);
        s.counter("engine.cache_hits", &[], self.counters.cache_hits);
        s.counter("engine.cache_misses", &[], self.counters.cache_misses);
        s.counter("engine.reoptimizations", &[], self.counters.reoptimizations);
        s.counter("engine.demotions", &[], self.counters.demotions);
        s.counter("engine.reorderings", &[], self.counters.reorderings);
        s.counter("engine.virtual_ns", &[], self.core.now_ns());
        s.counter("probe.resolved_direct", &[], self.core.resolved_direct());
        s.ratio(
            "engine.rate",
            &[],
            self.counters.tuples_processed as f64,
            self.core.now_secs(),
        );
        s.histogram("engine.outputs_per_update", &[], &self.out_hist);
        for (r, &n) in self.absent_deletes.iter().enumerate() {
            s.counter("relation.absent_deletes", &[("rel", &r.to_string())], n);
        }
        self.reopt.snapshot_memory(&mut s);
        for (pi, pm) in self.op_metrics.iter().enumerate() {
            pm.snapshot_into(&mut s, pi);
        }
        self.profiler.snapshot_into(&mut s);
        self.reopt.snapshot_into(&mut s);
        s.extend_events(self.tlog.iter().cloned(), self.tlog.dropped());
        s
    }

    /// Force an immediate re-optimization (tests, experiments).
    pub fn force_reoptimize(&mut self) {
        let (reopt, host) = self.split_reopt();
        reopt.force_reoptimize(host);
    }

    /// Install (or clear) an [`InjectedFault`]. Only compiled for tests and
    /// the `fault-injection` feature the conformance harness enables — there
    /// is deliberately no way to set a fault from a production build.
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn inject_fault(&mut self, fault: Option<InjectedFault>) {
        self.fault = fault;
    }

    /// Run every cheap-enough structural invariant in one sweep and return
    /// all violations (empty = healthy). Combines:
    ///
    /// * the Definition 3.1/6.1 cache-consistency check
    ///   ([`AdaptiveJoinEngine::check_consistency_invariant`]), which also
    ///   requires every used candidate's shared group to have a live store;
    /// * the §3 prefix invariant — every *used* plain cache's segment must be
    ///   a prefix set of the current pipeline orders (global candidates are
    ///   exempt: §6 exists to relax exactly this);
    /// * store bookkeeping ([`crate::cache::CacheStore::check_accounting`]);
    /// * counter conservation — the aggregate `cache_hits`/`cache_misses`
    ///   engine counters must equal the per-candidate totals.
    ///
    /// O(everything); meant for the conformance harness's mid-run sweeps and
    /// post-run audits, not the hot path.
    pub fn check_structural_invariants(&self) -> Vec<String> {
        let mut violations = self.check_consistency_invariant();
        for cr in &self.reopt.cands {
            let c = &cr.cand;
            if cr.state == CacheState::Used
                && !c.is_global()
                && !crate::candidates::is_prefix_set(&self.orders, &c.segment)
            {
                violations.push(format!(
                    "{}: used plain cache violates the prefix invariant under orders {:?}",
                    c.name(),
                    self.orders.pipelines[c.pipeline.0 as usize].order
                ));
            }
        }
        for (g, group) in self.reopt.groups.iter().enumerate() {
            let Some(store) = &group.store else { continue };
            for p in store.check_accounting() {
                violations.push(format!("store group {g}: {p}"));
            }
        }
        let (cand_hits, cand_misses) = self.reopt.probe_totals();
        if cand_hits != self.counters.cache_hits {
            violations.push(format!(
                "counter conservation: engine.cache_hits = {} but Σ per-cache hits = {cand_hits}",
                self.counters.cache_hits
            ));
        }
        if cand_misses != self.counters.cache_misses {
            violations.push(format!(
                "counter conservation: engine.cache_misses = {} but Σ per-cache misses = {cand_misses}",
                self.counters.cache_misses
            ));
        }
        violations
    }

    /// Check every active cache against its consistency invariant
    /// (Definition 3.1 / 6.1) by recomputing the segment join from base
    /// relations. O(everything) — test/diagnostic use only.
    ///
    /// Returns a list of human-readable violations (empty = consistent).
    pub fn check_consistency_invariant(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for cr in &self.reopt.cands {
            if cr.state != CacheState::Used {
                continue;
            }
            let c = &cr.cand;
            let Some(store) = self.reopt.groups[c.group].store.as_ref() else {
                violations.push(format!("{}: used but no store", c.name()));
                continue;
            };
            for entry in store.entries() {
                // Recompute σ_{K=u}(segment join) by brute force. Both plain
                // and globally-consistent caches maintain exactly this set
                // (the latter sits at Definition 6.1's upper bound).
                let expected = self.segment_join_matching(c, entry.key());
                let cached: std::collections::BTreeSet<CompositeId> =
                    entry.composites().map(|v| v.identity()).collect();
                if cached != expected {
                    violations.push(format!(
                        "{}: key {:?}: cached {} vs expected {} composites",
                        c.name(),
                        entry.key(),
                        cached.len(),
                        expected.len()
                    ));
                }
            }
        }
        violations
    }

    /// Brute-force σ_{K=u}(segment join) as identity sets.
    fn segment_join_matching(
        &self,
        c: &Candidate,
        key: &[Value],
    ) -> std::collections::BTreeSet<CompositeId> {
        let mut results = std::collections::BTreeSet::new();
        let mut partial: Vec<Composite> = vec![Composite::empty()];
        for (idx, &rel) in c.segment.iter().enumerate() {
            let mut next = Vec::new();
            for p in &partial {
                for t in self.core.relation(rel).scan() {
                    let cand = if idx == 0 {
                        Composite::unit(t.clone())
                    } else {
                        p.extend_with(t.clone())
                    };
                    // Enforce intra-segment predicates among bound rels.
                    let ok = self.core.query().predicates().iter().all(|pr| {
                        match (cand.get(pr.left), cand.get(pr.right)) {
                            (Some(a), Some(b)) => a.join_eq(b),
                            _ => true,
                        }
                    });
                    if ok {
                        next.push(cand);
                    }
                }
            }
            partial = next;
        }
        // Filter by key.
        for p in partial {
            let k: Vec<Value> = c
                .maint_attrs
                .iter()
                .map(|a| p.get(*a).expect("bound").clone())
                .collect();
            if k == key {
                results.insert(p.identity());
            }
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acq_mjoin::plan::PipelineOrder;
    use acq_stream::TupleData;

    /// Forced Figure-3 cache ({S,T} in ∆R's pipeline) over chain3.
    fn forced_engine() -> AdaptiveJoinEngine {
        let q = QuerySchema::chain3();
        let orders = PlanOrders::new(vec![
            PipelineOrder {
                stream: RelId(0),
                order: vec![RelId(1), RelId(2)],
            },
            PipelineOrder {
                stream: RelId(1),
                order: vec![RelId(2), RelId(0)],
            },
            PipelineOrder {
                stream: RelId(2),
                order: vec![RelId(1), RelId(0)],
            },
        ]);
        let config = EngineConfig {
            mode: CacheMode::Forced(vec![(RelId(0), vec![RelId(1), RelId(2)])]),
            ..EngineConfig::default()
        };
        AdaptiveJoinEngine::with_config(q, orders, config)
    }

    /// A workload that populates the cache, then updates the cached segment.
    fn drive(engine: &mut AdaptiveJoinEngine) {
        for i in 0..6i64 {
            engine.process(&Update::insert(RelId(1), TupleData::ints(&[i, i]), 0));
            engine.process(&Update::insert(RelId(2), TupleData::ints(&[i]), 0));
        }
        // Probe ∆R so entries get created…
        for i in 0..6i64 {
            engine.process(&Update::insert(RelId(0), TupleData::ints(&[i]), 1));
        }
        // …then churn the cached segment so maintenance must run. The
        // re-insert carries the same value but a fresh tuple identity, so
        // both the delete and the insert produce a nonempty maintenance
        // delta for the resident keys.
        for i in 0..6i64 {
            engine.process(&Update::delete(RelId(2), TupleData::ints(&[i]), 2));
            engine.process(&Update::insert(RelId(2), TupleData::ints(&[i]), 2));
        }
    }

    #[test]
    fn absent_delete_is_counted_and_emits_nothing() {
        let mut engine = forced_engine();
        engine.process(&Update::insert(RelId(2), TupleData::ints(&[1]), 0));
        let before = engine.telemetry_snapshot();
        let out = engine.process(&Update::delete(RelId(2), TupleData::ints(&[9]), 1));
        let after = engine.telemetry_snapshot();
        assert!(out.is_empty(), "absent delete emitted {out:?}");
        let count = |s: &TelemetrySnapshot, name: &str, labels: &[(&str, &str)]| match s
            .get(name, labels)
        {
            Some(acq_telemetry::MetricValue::Counter(v)) => *v,
            other => panic!("{name} {labels:?}: {other:?}"),
        };
        let delta = |name: &str, labels: &[(&str, &str)]| {
            count(&after, name, labels) - count(&before, name, labels)
        };
        assert_eq!(delta("engine.tuples_processed", &[]), 1);
        assert_eq!(delta("pipeline.updates", &[("pipeline", "2")]), 0);
        assert_eq!(delta("relation.absent_deletes", &[("rel", "2")]), 1);
        assert_eq!(delta("relation.absent_deletes", &[("rel", "0")]), 0);
        assert_eq!(engine.core.relation(RelId(2)).len(), 1);
    }

    #[test]
    fn injected_fault_breaks_consistency_invariant() {
        // Sanity: the same workload with no fault is invariant-clean.
        let mut clean = forced_engine();
        drive(&mut clean);
        assert!(clean.check_structural_invariants().is_empty());

        // SkipTapDeletes leaves expired tuples in cached values — the
        // consistency checker must flag it.
        let mut broken = forced_engine();
        broken.inject_fault(Some(InjectedFault::SkipTapDeletes));
        drive(&mut broken);
        let violations = broken.check_structural_invariants();
        assert!(
            !violations.is_empty(),
            "stale-delete fault must violate Definition 3.1"
        );

        // Clearing the fault stops the bleeding (state stays corrupt, which
        // is fine — we only assert the setter round-trips).
        broken.inject_fault(None);
    }

    #[test]
    fn injected_insert_fault_detected_too() {
        let mut broken = forced_engine();
        broken.inject_fault(Some(InjectedFault::SkipTapInserts));
        drive(&mut broken);
        assert!(
            !broken.check_structural_invariants().is_empty(),
            "missed-insert fault must violate Definition 3.1"
        );
    }
}
