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

mod exec;

use crate::cache::{CacheStats, CacheStore};
use crate::candidates::{enumerate_candidates, Candidate, EnumerationConfig};
use crate::cost::{benefit_cost, BenefitCost, CandidateEstimates};
use crate::memory::{allocate, buckets_for, Allocation, MemoryConfig, MemoryRequest};
use crate::profiler::{Profiler, ProfilerConfig};
use crate::select::{self, CacheChoice, SelectionInstance};
use acq_mjoin::exec::JoinCore;
use acq_mjoin::metrics::PipelineMetrics;
use acq_mjoin::plan::{CompiledOp, PlanOrders};
use acq_sketch::bloom::MissProbEstimator;
use acq_sketch::WindowStat;
use acq_stream::{Composite, CompositeId, Op, QuerySchema, RelId, Update, Value};
use acq_telemetry::{Event, EventLog, Histogram, TelemetrySnapshot};
use exec::{GcTap, Scratch, Walk};

/// Which offline selection algorithm the Re-optimizer runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionStrategy {
    /// §4.4 dispatch ([`select::solve_auto`]): recursive DP when nothing
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
    /// default `I / 4`.
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

/// Per-candidate runtime state.
#[derive(Debug)]
struct CandRuntime {
    cand: Candidate,
    state: CacheState,
    miss_est: MissProbEstimator,
    /// Last `W` miss-probability observations (Bloom windows or direct
    /// observation while used).
    miss_window: WindowStat,
    /// Benefit/cost at the last selection (the §4.5c drift reference).
    bc_at_selection: Option<BenefitCost>,
    /// Most recent benefit/cost estimate.
    bc_now: Option<BenefitCost>,
    /// Virtual time when the candidate last entered the used state. Caches
    /// are populated incrementally (§3.2), so the §4.5a demotion monitor
    /// grants a warmup grace period — early probes of an empty store miss by
    /// construction and say nothing about steady-state benefit.
    used_since_ns: u64,
    /// Lifetime probe hits while used (survives re-optimizations; reset only
    /// when plan orders change and candidates are re-enumerated).
    hits: u64,
    /// Lifetime probe misses while used.
    misses: u64,
    /// Virtual ns spent servicing hits (probe + splice).
    hit_ns: u64,
    /// Virtual ns spent servicing misses (probe + segment run + create).
    miss_ns: u64,
}

/// One maintenance tap: feed segment deltas of `group` at a pipeline
/// position.
#[derive(Debug, Clone)]
struct Tap {
    group: usize,
    segment: Vec<RelId>,
    maint_attrs: Vec<acq_stream::AttrRef>,
}

/// Per-pipeline execution plan derived from candidate states.
#[derive(Debug)]
struct PipelinePlan {
    /// `lookup[j]` = used candidate starting at position `j`.
    lookup: Vec<Option<usize>>,
    /// `taps[j]` = plain-cache maintenance taps before position `j`.
    taps: Vec<Vec<Tap>>,
    /// `bloom[j]` = profiled candidates whose probe stream passes position
    /// `j`.
    bloom: Vec<Vec<usize>>,
    /// Globally-consistent groups whose segment contains this pipeline's
    /// stream: their segment-join delta is computed separately on every
    /// update to this relation.
    gc_direct: Vec<GcTap>,
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

/// Typed per-candidate diagnostics. One entry per enumerated candidate
/// cache, in enumeration order.
#[derive(Debug, Clone)]
pub struct CandidateDiagnostics {
    /// Candidate name, e.g. `C[∆R2: R0⋈R1 @0..1]`.
    pub name: String,
    /// Current lifecycle state (§4.5).
    pub state: CacheState,
    /// Is the hosting pipeline's profiler warm enough to estimate?
    pub warm: bool,
    /// Windowed miss-probability estimate, `None` until observed.
    pub miss_prob: Option<f64>,
    /// `d_ij`: tuples per unit time reaching the segment's first operator.
    pub d_in: f64,
    /// `Σ d_il·c_il`: unit-time processing the segment costs uncached.
    pub seg_proc: f64,
    /// Current §4.1 benefit/cost estimate, `None` until statistics warm up.
    pub benefit_cost: Option<BenefitCost>,
    /// Lifetime probe hits while this candidate was used.
    pub hits: u64,
    /// Lifetime probe misses while this candidate was used.
    pub misses: u64,
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
    cands: Vec<CandRuntime>,
    /// One store per shared group (Definition 4.1) — `Some` while any member
    /// is used.
    stores: Vec<Option<CacheStore>>,
    group_count: usize,
    plans: Vec<PipelinePlan>,
    counters: EngineCounters,
    last_reopt_ns: u64,
    last_reopt_tuples: u64,
    last_epoch_ns: u64,
    /// Consecutive re-optimizations that left the used-cache set unchanged
    /// (§8 future work (ii): statistics whose significant changes tend not
    /// to produce new selections get progressively damped by widening the
    /// effective trigger threshold).
    fruitless_streak: u32,
    /// Pipeline-walk buffers reused across updates.
    scratch: Scratch,
    /// Per-pipeline operator metrics (telemetry; reset when orders change).
    op_metrics: Vec<PipelineMetrics>,
    /// Store statistics accumulated across stat epochs and store drops, one
    /// per shared group — [`CacheStore::reset_stats`] starts a new epoch, so
    /// totals for the snapshot live here.
    group_stats: Vec<CacheStats>,
    /// Bytes granted per group at the last §5 allocation round.
    granted_bytes: Vec<usize>,
    /// Distribution of result-delta counts per processed update.
    out_hist: Histogram,
    /// Deletes that found no live instance, per relation.
    absent_deletes: Vec<u64>,
    /// Structured telemetry event log (virtual-time stamped).
    tlog: EventLog,
    /// Harness-injected maintenance bug; always `None` in production.
    fault: Option<InjectedFault>,
    /// Probe hits/misses of candidates retired by re-enumeration
    /// (`rebuild_candidates` resets per-candidate counters; the aggregate
    /// engine counters persist, so conservation needs this carry).
    retired_hits: u64,
    /// Miss half of the retired-candidate carry.
    retired_misses: u64,
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
        let profiler = Profiler::new(config.profiler, &num_ops);
        let compiled = orders
            .pipelines
            .iter()
            .map(|p| CompiledOp::compile_pipeline(core.query(), core.relations(), p))
            .collect();
        let mut engine = AdaptiveJoinEngine {
            core,
            orders,
            compiled,
            profiler,
            cands: Vec::new(),
            stores: Vec::new(),
            group_count: 0,
            plans: Vec::new(),
            counters: EngineCounters::default(),
            last_reopt_ns: 0,
            last_reopt_tuples: 0,
            last_epoch_ns: 0,
            fruitless_streak: 0,
            scratch: Scratch::default(),
            op_metrics: num_ops.iter().map(|&k| PipelineMetrics::new(k)).collect(),
            group_stats: Vec::new(),
            granted_bytes: Vec::new(),
            out_hist: Histogram::new(),
            absent_deletes: vec![0; n],
            tlog: EventLog::default(),
            fault: None,
            retired_hits: 0,
            retired_misses: 0,
            config,
        };
        engine.rebuild_candidates();
        engine.apply_forced_mode();
        engine
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
        self.cands.iter().map(|c| (&c.cand, c.state)).collect()
    }

    /// Names of currently used caches.
    pub fn used_caches(&self) -> Vec<String> {
        self.cands
            .iter()
            .filter(|c| c.state == CacheState::Used)
            .map(|c| c.cand.name())
            .collect()
    }

    /// Total bytes held by cache stores (Figure 13's memory axis).
    pub fn cache_memory_bytes(&self) -> usize {
        self.stores
            .iter()
            .flatten()
            .map(CacheStore::memory_bytes)
            .sum()
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
        self.rebuild_plans();
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
    // Candidate lifecycle

    fn rebuild_candidates(&mut self) {
        // Carry retiring candidates' probe totals so the aggregate engine
        // counters stay reconcilable with per-cache counters (conservation).
        for cr in &self.cands {
            self.retired_hits += cr.hits;
            self.retired_misses += cr.misses;
        }
        let candidates =
            enumerate_candidates(self.core.query(), &self.orders, &self.config.enumeration);
        self.group_count = crate::candidates::num_groups(&candidates);
        self.stores = (0..self.group_count).map(|_| None).collect();
        // Group ids are only meaningful within one candidate enumeration, so
        // accumulated store stats and grants restart with the new groups.
        self.group_stats = vec![CacheStats::default(); self.group_count];
        self.granted_bytes = vec![0; self.group_count];
        self.cands = candidates
            .into_iter()
            .map(|cand| CandRuntime {
                cand,
                state: CacheState::Profiled,
                miss_est: self.profiler.new_miss_estimator(),
                miss_window: WindowStat::new(self.config.profiler.w),
                bc_at_selection: None,
                bc_now: None,
                used_since_ns: 0,
                hits: 0,
                misses: 0,
                hit_ns: 0,
                miss_ns: 0,
            })
            .collect();
        self.rebuild_plans();
    }

    fn apply_forced_mode(&mut self) {
        let forced = match &self.config.mode {
            CacheMode::Forced(list) => list.clone(),
            CacheMode::None => {
                for c in &mut self.cands {
                    c.state = CacheState::Unused;
                }
                self.rebuild_plans();
                return;
            }
            CacheMode::Adaptive => return,
        };
        for c in &mut self.cands {
            let mut seg = c.cand.segment.clone();
            seg.sort_unstable();
            let matched = forced.iter().any(|(p, s)| {
                let mut s = s.clone();
                s.sort_unstable();
                *p == c.cand.pipeline && s == seg
            });
            c.state = if matched {
                CacheState::Used
            } else {
                CacheState::Unused
            };
        }
        // Materialize stores for forced groups.
        for i in 0..self.cands.len() {
            if self.cands[i].state == CacheState::Used {
                let g = self.cands[i].cand.group;
                if self.stores[g].is_none() {
                    self.stores[g] =
                        Some(CacheStore::with_associativity(1024, self.config.cache_ways));
                }
            }
        }
        self.rebuild_plans();
    }

    /// Rebuild per-pipeline execution plans from candidate states.
    fn rebuild_plans(&mut self) {
        let n = self.orders.pipelines.len();
        let mut plans: Vec<PipelinePlan> = (0..n)
            .map(|i| {
                let ops = self.orders.pipelines[i].order.len();
                PipelinePlan {
                    lookup: vec![None; ops],
                    taps: (0..ops).map(|_| Vec::new()).collect(),
                    bloom: (0..ops).map(|_| Vec::new()).collect(),
                    gc_direct: Vec::new(),
                }
            })
            .collect();

        // Active groups: any used member.
        let mut group_used = vec![false; self.group_count];
        for c in &self.cands {
            if c.state == CacheState::Used {
                group_used[c.cand.group] = true;
            }
        }
        // Drop stores of inactive groups; create stores of newly active ones
        // happen in apply_selection (they need sizing); forced mode created
        // them directly. Stats of a dropped store fold into the group
        // accumulator so snapshot totals survive the drop.
        for (g, used) in group_used.iter().enumerate() {
            if !used {
                if let Some(store) = self.stores[g].take() {
                    self.group_stats[g].absorb(&store.stats());
                }
            }
        }

        let mut tap_added: Vec<(usize, RelId)> = Vec::new(); // (group, pipeline) dedupe
        for c in &self.cands {
            match c.state {
                CacheState::Used => {
                    let pi = c.cand.pipeline.0 as usize;
                    plans[pi].lookup[c.cand.start] = Some(self.cand_index(&c.cand));
                }
                CacheState::Profiled => {
                    let pi = c.cand.pipeline.0 as usize;
                    plans[pi].bloom[c.cand.start].push(self.cand_index(&c.cand));
                }
                CacheState::Unused => {}
            }
        }
        // Maintenance taps for active groups (one per group per member
        // pipeline).
        for c in &self.cands {
            let g = c.cand.group;
            if !group_used[g] {
                continue;
            }
            let tap = Tap {
                group: g,
                segment: c.cand.segment.clone(),
                maint_attrs: c.cand.maint_attrs.clone(),
            };
            if c.cand.is_global() {
                // Maintained by separate delta computation on updates to
                // segment relations: the updated tuple joins the other
                // segment relations in segment order.
                for &l in &c.cand.segment {
                    if tap_added.contains(&(g, l)) {
                        continue;
                    }
                    tap_added.push((g, l));
                    let mut done = vec![l];
                    let mut ops = Vec::new();
                    for &target in c.cand.segment.iter().filter(|&&r| r != l) {
                        ops.push(CompiledOp::compile(
                            self.core.query(),
                            self.core.relations(),
                            &done,
                            target,
                        ));
                        done.push(target);
                    }
                    plans[l.0 as usize].gc_direct.push(GcTap {
                        tap: tap.clone(),
                        ops,
                    });
                }
            } else {
                let tap_pos = c.cand.segment.len() - 1;
                for &l in &c.cand.segment {
                    if tap_added.contains(&(g, l)) {
                        continue;
                    }
                    tap_added.push((g, l));
                    plans[l.0 as usize].taps[tap_pos].push(tap.clone());
                }
            }
        }
        // Safety net: no used cache may cover another group's maintenance
        // tap strictly inside its span (taps at the cache's own start
        // position fire before the lookup and are fine). The adaptive
        // re-optimizer resolves these conflicts before applying a selection;
        // a Forced configuration that violates this would silently corrupt
        // cache consistency, so refuse it loudly.
        for (pi, plan) in plans.iter().enumerate() {
            for (j, lookup) in plan.lookup.iter().enumerate() {
                let Some(ci) = lookup else { continue };
                let end = self.cands[*ci].cand.end;
                for t in (j + 1)..=end {
                    assert!(
                        plan.taps[t].is_empty(),
                        "used cache {} covers a maintenance tap at pipeline {pi} position {t}; \
                         this configuration starves that cache's maintenance",
                        self.cands[*ci].cand.name()
                    );
                }
            }
        }
        self.plans = plans;
    }

    fn cand_index(&self, cand: &Candidate) -> usize {
        self.cands
            .iter()
            .position(|c| std::ptr::eq(&c.cand, cand))
            .expect("candidate belongs to engine")
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
        self.profiler.record_update(u.rel);

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
        // With caching off there are no candidates to estimate, so no
        // tuple is profiled: baseline `M` pays for joins alone.
        let profiled = self.config.mode != CacheMode::None && self.profiler.should_profile(u.rel);
        let before = out.len();
        let (relations, meter) = self.core.split();
        let mut walk = Walk {
            relations,
            meter,
            stream: u.rel,
            ops: &self.compiled[pi],
            plan: &self.plans[pi],
            cands: &mut self.cands,
            stores: &mut self.stores,
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

    // ------------------------------------------------------------------
    // Adaptivity

    fn maybe_housekeeping(&mut self) {
        let now = self.core.now_ns();
        if now.saturating_sub(self.last_epoch_ns) >= self.config.stats_epoch_ns {
            self.stats_epoch(now);
        }
        if self.config.mode != CacheMode::Adaptive {
            return;
        }
        let due = match self.config.reopt_interval {
            ReoptInterval::VirtualNs(i) => now.saturating_sub(self.last_reopt_ns) >= i,
            ReoptInterval::Tuples(t) => {
                self.counters
                    .tuples_processed
                    .saturating_sub(self.last_reopt_tuples)
                    >= t
            }
        };
        if due {
            self.reoptimize(now);
        }
    }

    /// Per-epoch statistics maintenance and used-cache monitoring (§4.5a).
    fn stats_epoch(&mut self, now: u64) {
        self.last_epoch_ns = now;
        self.profiler.roll_rates(now);
        // Observed miss probability for used caches.
        for ci in 0..self.cands.len() {
            if self.cands[ci].state != CacheState::Used {
                continue;
            }
            let g = self.cands[ci].cand.group;
            // Gate the direct observation on a minimum probe count: a
            // two-probe epoch against a freshly created store observes
            // "miss" by construction, not by workload.
            let min_probes = (self.config.profiler.bloom_window / 4).max(8) as u64;
            if let Some(store) = self.stores[g].as_mut() {
                let s = store.stats();
                if s.hits + s.misses >= min_probes {
                    if let Some(mp) = s.miss_prob() {
                        self.cands[ci].miss_window.push(mp);
                    }
                    // Fold the epoch into the group accumulator before the
                    // reset so telemetry totals span all epochs.
                    self.group_stats[g].absorb(&s);
                    store.reset_stats();
                }
            }
        }
        if self.config.mode == CacheMode::Adaptive {
            let grace = self.config.stats_epoch_ns.saturating_mul(2);
            let mut any_demoted = false;
            for ci in 0..self.cands.len() {
                if self.cands[ci].state != CacheState::Used {
                    continue;
                }
                if now.saturating_sub(self.cands[ci].used_since_ns) < grace {
                    continue; // §3.2: populated incrementally — let it warm up
                }
                if let Some(bc) = self.estimate(ci) {
                    self.cands[ci].bc_now = Some(bc);
                    if bc.net() < 0.0 {
                        self.cands[ci].state = CacheState::Unused;
                        self.counters.demotions += 1;
                        self.tlog.push(
                            Event::new(now, "cache.dropped", self.cands[ci].cand.name())
                                .field("reason", "demoted")
                                .field("net", bc.net()),
                        );
                        any_demoted = true;
                    }
                }
            }
            if any_demoted {
                self.rebuild_plans();
            }
        }
    }

    /// Estimate benefit/cost for one candidate from current profiler state.
    /// `None` when statistics aren't warm enough to trust.
    fn estimate(&self, ci: usize) -> Option<BenefitCost> {
        let cr = &self.cands[ci];
        let c = &cr.cand;
        let i = c.pipeline;
        if !self.profiler.pipeline_warm(i) {
            return None;
        }
        let miss = cr.miss_window.average()?;
        let d_in = self.profiler.d(i, c.start);
        let d_out = self.profiler.d(i, c.end + 1);
        let seg_proc: f64 = (c.start..=c.end).map(|j| self.profiler.op_proc(i, j)).sum();
        let maint_rate = if c.is_global() {
            // Separate maintenance: each segment-relation update joins with
            // the other segment relations; its delta size is approximately
            // the average entry size.
            let avg_entry = if d_in > 0.0 {
                (d_out / d_in).max(1.0)
            } else {
                1.0
            };
            let update_rate: f64 = c.segment.iter().map(|&l| self.profiler.rate(l)).sum();
            update_rate * avg_entry
        } else {
            let tap_pos = c.segment.len() - 1;
            c.segment.iter().map(|&l| self.profiler.d(l, tap_pos)).sum()
        };
        let est = CandidateEstimates {
            d_in,
            d_out,
            seg_proc,
            miss_prob: miss,
            maint_rate,
            expected_entries: self.expected_entries(d_in, miss),
        };
        Some(benefit_cost(
            self.core.cost_model(),
            c.key_classes.len(),
            &est,
        ))
    }

    fn expected_entries(&self, d_in: f64, miss: f64) -> f64 {
        let horizon = match self.config.reopt_interval {
            ReoptInterval::VirtualNs(i) => i as f64 / 1e9,
            ReoptInterval::Tuples(_) => 1.0,
        };
        (miss * d_in * horizon).clamp(16.0, 1_048_576.0)
    }

    /// The §4.5 re-optimization step.
    fn reoptimize(&mut self, now: u64) {
        self.last_reopt_ns = now;
        self.last_reopt_tuples = self.counters.tuples_processed;

        // Estimates for all candidates.
        let mut est: Vec<Option<BenefitCost>> = Vec::with_capacity(self.cands.len());
        for ci in 0..self.cands.len() {
            est.push(self.estimate(ci));
        }
        for (cr, e) in self.cands.iter_mut().zip(&est) {
            cr.bc_now = *e;
        }

        // §4.5c trigger: skip the offline algorithm when nothing drifted
        // beyond p since the last selection. Fruitless re-optimizations
        // (selection unchanged) widen the effective threshold up to 4× —
        // the paper's §8(ii) "unimportant statistics" idea in aggregate form.
        let effective_p =
            self.config.p_threshold * (1.0 + 0.5 * self.fruitless_streak as f64).min(4.0);
        let drifted = self
            .cands
            .iter()
            .zip(&est)
            .any(|(cr, e)| match (cr.bc_at_selection, e) {
                (Some(prev), Some(cur)) => prev.max_relative_change(cur) > effective_p,
                (None, Some(_)) => true, // newly estimable candidate
                _ => false,
            });
        if !drifted {
            self.tlog.push(
                Event::new(now, "selection.skipped", "")
                    .field("effective_p", effective_p)
                    .field("fruitless_streak", self.fruitless_streak as u64),
            );
            return;
        }
        self.counters.reoptimizations += 1;
        self.core.charge(self.core.cost_model().reoptimize);

        // Decision trace: every candidate the selector will score.
        for (cr, e) in self.cands.iter().zip(&est) {
            let Some(bc) = e else { continue };
            self.tlog.push(
                Event::new(now, "cache.scored", cr.cand.name())
                    .field("benefit", bc.benefit)
                    .field("cost", bc.cost)
                    .field("net", bc.net())
                    .field("miss_prob", cr.miss_window.average().unwrap_or(1.0)),
            );
        }

        // Build the selection instance over estimable candidates.
        let op_proc: Vec<Vec<f64>> = self
            .orders
            .pipelines
            .iter()
            .map(|p| {
                (0..p.order.len())
                    .map(|j| self.profiler.op_proc(p.stream, j))
                    .collect()
            })
            .collect();
        let mut choices = Vec::new();
        let mut group_cost = vec![0.0; self.group_count];
        for (ci, (cr, e)) in self.cands.iter().zip(&est).enumerate() {
            let Some(bc) = e else { continue };
            choices.push(CacheChoice {
                id: ci,
                pipeline: cr.cand.pipeline.0 as usize,
                start: cr.cand.start,
                end: cr.cand.end,
                benefit: bc.benefit,
                proc: bc.proc,
                group: cr.cand.group,
            });
            group_cost[cr.cand.group] = bc.cost;
        }
        let instance = SelectionInstance {
            op_proc,
            choices,
            group_cost,
        };
        let (solver, sol) = match self.config.selection {
            SelectionStrategy::Auto => select::solve_auto(&instance),
            SelectionStrategy::Exhaustive => (
                select::exhaustive::NAME,
                select::solve_exhaustive(&instance),
            ),
            SelectionStrategy::Greedy => (select::greedy::NAME, select::solve_greedy(&instance)),
            SelectionStrategy::Randomized(seed) => (
                select::randomized::NAME,
                select::solve_randomized(&instance, seed),
            ),
            SelectionStrategy::Incremental => {
                // Map the currently used candidates to instance choice
                // positions as the warm start.
                let warm: Vec<usize> = instance
                    .choices
                    .iter()
                    .enumerate()
                    .filter(|(_, ch)| self.cands[ch.id].state == CacheState::Used)
                    .map(|(pos, _)| pos)
                    .collect();
                (
                    select::incremental::NAME,
                    select::solve_incremental(&instance, &warm),
                )
            }
        };
        self.tlog.push(
            Event::new(now, "selection.run", "")
                .field("solver", solver)
                .field("candidates", instance.choices.len() as u64)
                .field("chosen", sol.len() as u64)
                .field("objective", instance.net_objective(&sol)),
        );
        let mut chosen: Vec<usize> = sol.iter().map(|&s| instance.choices[s].id).collect();

        // Tap-conflict fixpoint: a used cache must not cover another active
        // group's maintenance-tap position in the same pipeline (the
        // CacheLookup bypass would starve that CacheUpdate operator).
        loop {
            let mut conflict: Option<usize> = None;
            'outer: for &a in &chosen {
                // `a` is a potential coverer: ANY used cache (plain or
                // globally-consistent) bypasses its covered positions on
                // hits, starving maintenance taps placed there.
                let ca = &self.cands[a].cand;
                for &b in &chosen {
                    // `b` is a potential tap owner; globally-consistent
                    // groups own no pipeline taps (their maintenance is
                    // computed separately), so they are exempt here.
                    let cb = &self.cands[b].cand;
                    if cb.group == ca.group || cb.is_global() {
                        continue;
                    }
                    // Group of b taps pipelines of its segment at
                    // `len(segment)-1`.
                    if cb.segment.contains(&ca.pipeline) {
                        let tap_pos = cb.segment.len() - 1;
                        if ca.covers(tap_pos) {
                            // Drop the lower-benefit one.
                            let na = self.cands[a].bc_now.map(|x| x.net()).unwrap_or(0.0);
                            let nb = self.cands[b].bc_now.map(|x| x.net()).unwrap_or(0.0);
                            conflict = Some(if na <= nb { a } else { b });
                            break 'outer;
                        }
                    }
                }
            }
            match conflict {
                Some(x) => {
                    self.tlog.push(
                        Event::new(now, "cache.dropped", self.cands[x].cand.name())
                            .field("reason", "tap_conflict"),
                    );
                    chosen.retain(|&c| c != x);
                }
                None => break,
            }
        }

        // §8(ii) damping bookkeeping: did the selection actually change?
        let currently_used: std::collections::BTreeSet<usize> = self
            .cands
            .iter()
            .enumerate()
            .filter(|(_, c)| c.state == CacheState::Used)
            .map(|(i, _)| i)
            .collect();
        let newly_chosen: std::collections::BTreeSet<usize> = chosen.iter().copied().collect();
        if newly_chosen == currently_used {
            self.fruitless_streak = self.fruitless_streak.saturating_add(1);
        } else {
            self.fruitless_streak = 0;
        }

        self.apply_selection(&chosen);
    }

    /// Transition states per the selection, allocate memory, create stores.
    fn apply_selection(&mut self, chosen: &[usize]) {
        // Memory requests per active group.
        let mut group_net = vec![0.0f64; self.group_count];
        let mut group_bytes = vec![0usize; self.group_count];
        let mut group_entry_bytes = vec![64usize; self.group_count];
        let mut group_cost_paid = vec![false; self.group_count];
        for &ci in chosen {
            let cr = &self.cands[ci];
            let bc = cr.bc_now.unwrap_or_default();
            let g = cr.cand.group;
            group_net[g] += bc.benefit;
            if !group_cost_paid[g] {
                group_net[g] -= bc.cost;
                group_cost_paid[g] = true;
            }
            // Entry size estimate: key + refs.
            let d_in = self.profiler.d(cr.cand.pipeline, cr.cand.start);
            let d_out = self.profiler.d(cr.cand.pipeline, cr.cand.end + 1);
            let avg_tuples = if d_in > 0.0 { d_out / d_in } else { 1.0 };
            let entry_bytes =
                48 + cr.cand.key_classes.len() * 16 + (avg_tuples.max(1.0) as usize) * 40;
            let miss = cr.miss_window.average_or(0.5);
            let entries = self.expected_entries(d_in, miss);
            group_entry_bytes[g] = group_entry_bytes[g].max(entry_bytes);
            group_bytes[g] = group_bytes[g].max((entries as usize).saturating_mul(entry_bytes));
        }
        let requests: Vec<MemoryRequest> = (0..self.group_count)
            .filter(|&g| group_cost_paid[g])
            .map(|g| MemoryRequest {
                id: g,
                net_benefit: group_net[g],
                expected_bytes: group_bytes[g].max(4096),
            })
            .collect();
        let grants: Vec<Allocation> = allocate(&self.config.memory, &requests);
        let mut granted = vec![0usize; self.group_count];
        for a in grants {
            granted[a.id] = a.bytes;
        }
        self.granted_bytes.clone_from(&granted);
        // Convert byte grants into budget-respecting bucket counts (each
        // bucket costs its array slot plus the expected entry footprint).
        let slot = std::mem::size_of::<Option<crate::cache::CacheEntry>>();
        let group_buckets: Vec<usize> = (0..self.group_count)
            .map(|g| {
                if self.config.memory.budget_bytes.is_some() {
                    crate::memory::buckets_within_budget(granted[g], group_entry_bytes[g], slot)
                } else if granted[g] > 0 {
                    buckets_for(granted[g], group_entry_bytes[g])
                } else {
                    0
                }
            })
            .collect();

        // Transition: chosen (with memory) → Used; everything else →
        // Profiled with fresh estimators. Each transition leaves a
        // lifecycle event in the telemetry log.
        let now = self.core.now_ns();
        let mut used_any = vec![false; self.group_count];
        for ci in 0..self.cands.len() {
            let g = self.cands[ci].cand.group;
            let was_used = self.cands[ci].state == CacheState::Used;
            let is_chosen = chosen.contains(&ci) && group_buckets[g] > 0;
            if is_chosen {
                let bc = self.cands[ci].bc_now.unwrap_or_default();
                if !was_used {
                    self.cands[ci].used_since_ns = now;
                    self.tlog.push(
                        Event::new(now, "cache.added", self.cands[ci].cand.name())
                            .field("benefit", bc.benefit)
                            .field("cost", bc.cost)
                            .field("granted_bytes", granted[g] as u64),
                    );
                } else {
                    self.tlog.push(
                        Event::new(now, "cache.retained", self.cands[ci].cand.name())
                            .field("net", bc.net()),
                    );
                }
                self.cands[ci].state = CacheState::Used;
                self.cands[ci].bc_at_selection = self.cands[ci].bc_now;
                used_any[g] = true;
            } else {
                if was_used {
                    self.tlog.push(
                        Event::new(now, "cache.dropped", self.cands[ci].cand.name()).field(
                            "reason",
                            if chosen.contains(&ci) {
                                "no_memory"
                            } else {
                                "deselected"
                            },
                        ),
                    );
                } else if chosen.contains(&ci) {
                    self.tlog.push(
                        Event::new(now, "cache.dropped", self.cands[ci].cand.name())
                            .field("reason", "no_memory"),
                    );
                }
                self.cands[ci].state = CacheState::Profiled;
                self.cands[ci].bc_at_selection = self.cands[ci].bc_now;
                self.cands[ci].miss_est = self.profiler.new_miss_estimator();
            }
        }
        for g in 0..self.group_count {
            if used_any[g] {
                let buckets = group_buckets[g];
                match self.stores[g].as_mut() {
                    Some(store) => {
                        // Resize only on substantial change (avoid thrash).
                        let cur = store.num_buckets();
                        if buckets > cur * 2 || buckets * 4 < cur {
                            store.resize(buckets);
                        }
                    }
                    None => {
                        self.stores[g] = Some(CacheStore::with_associativity(
                            buckets,
                            self.config.cache_ways,
                        ))
                    }
                }
            } else if let Some(store) = self.stores[g].take() {
                self.group_stats[g].absorb(&store.stats());
            }
        }
        self.rebuild_plans();
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
        self.rebuild_candidates();
        self.apply_forced_mode();
    }

    /// Per-candidate diagnostics: state, key statistics, and the current
    /// benefit/cost estimate. Observability API for operators, experiments,
    /// and debugging — not on the hot path.
    pub fn candidate_diagnostics(&self) -> Vec<CandidateDiagnostics> {
        self.cands
            .iter()
            .enumerate()
            .map(|(ci, cr)| {
                let c = &cr.cand;
                let i = c.pipeline;
                CandidateDiagnostics {
                    name: c.name(),
                    state: cr.state,
                    warm: self.profiler.pipeline_warm(i),
                    miss_prob: cr.miss_window.average(),
                    d_in: self.profiler.d(i, c.start),
                    seg_proc: (c.start..=c.end).map(|j| self.profiler.op_proc(i, j)).sum(),
                    benefit_cost: self.estimate(ci),
                    hits: cr.hits,
                    misses: cr.misses,
                }
            })
            .collect()
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
        s.gauge("memory.cache_bytes", &[], self.cache_memory_bytes() as f64);
        crate::memory::snapshot_allocations(&mut s, &self.granted_bytes);
        for (pi, pm) in self.op_metrics.iter().enumerate() {
            pm.snapshot_into(&mut s, pi);
        }
        self.profiler.snapshot_into(&mut s);
        if self.retired_hits > 0 || self.retired_misses > 0 {
            // Totals of candidates dropped by re-enumeration, kept so
            // Σ cache.hits == engine.cache_hits (counter conservation).
            let labels: [(&str, &str); 1] = [("cache", "<retired>")];
            s.counter("cache.hits", &labels, self.retired_hits);
            s.counter("cache.misses", &labels, self.retired_misses);
        }
        for cr in &self.cands {
            let name = cr.cand.name();
            let labels: [(&str, &str); 1] = [("cache", name.as_str())];
            s.counter("cache.hits", &labels, cr.hits);
            s.counter("cache.misses", &labels, cr.misses);
            s.counter("cache.hit_ns", &labels, cr.hit_ns);
            s.counter("cache.miss_ns", &labels, cr.miss_ns);
            let state = match cr.state {
                CacheState::Used => "used",
                CacheState::Profiled => "profiled",
                CacheState::Unused => "unused",
            };
            s.gauge("cache.state", &[("cache", name.as_str()), ("state", state)], 1.0);
            if let Some(m) = cr.miss_window.average() {
                s.ratio("cache.miss_prob", &labels, m, 1.0);
            }
            if let Some(bc) = cr.bc_now {
                bc.snapshot_into(&mut s, "cache.current", &labels);
            }
            if let Some(bc) = cr.bc_at_selection {
                bc.snapshot_into(&mut s, "cache.predicted", &labels);
            }
        }
        for g in 0..self.group_count {
            let mut st = self.group_stats[g];
            if let Some(store) = self.stores[g].as_ref() {
                st.absorb(&store.stats());
                let gl = g.to_string();
                s.gauge("store.memory_bytes", &[("group", &gl)], store.memory_bytes() as f64);
                s.gauge("store.buckets", &[("group", &gl)], store.num_buckets() as f64);
                s.gauge("store.entries", &[("group", &gl)], store.len() as f64);
            }
            st.snapshot_into(&mut s, g);
        }
        s.extend_events(self.tlog.iter().cloned(), self.tlog.dropped());
        s
    }

    /// Force an immediate re-optimization (tests, experiments).
    pub fn force_reoptimize(&mut self) {
        let now = self.core.now_ns();
        self.stats_epoch(now);
        self.reoptimize(now);
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
    ///   ([`AdaptiveJoinEngine::check_consistency_invariant`]);
    /// * the §3 prefix invariant — every *used* plain cache's segment must be
    ///   a prefix set of the current pipeline orders (global candidates are
    ///   exempt: §6 exists to relax exactly this);
    /// * used-cache ⇄ store coherence — a used candidate's shared group must
    ///   have a live store;
    /// * store bookkeeping ([`CacheStore::check_accounting`]);
    /// * counter conservation — the aggregate `cache_hits`/`cache_misses`
    ///   engine counters must equal the per-candidate totals.
    ///
    /// O(everything); meant for the conformance harness's mid-run sweeps and
    /// post-run audits, not the hot path.
    pub fn check_structural_invariants(&self) -> Vec<String> {
        let mut violations = self.check_consistency_invariant();
        for cr in &self.cands {
            if cr.state != CacheState::Used {
                continue;
            }
            let c = &cr.cand;
            if !c.is_global() && !crate::candidates::is_prefix_set(&self.orders, &c.segment) {
                violations.push(format!(
                    "{}: used plain cache violates the prefix invariant under orders {:?}",
                    c.name(),
                    self.orders.pipelines[c.pipeline.0 as usize].order
                ));
            }
            if self.stores.get(c.group).is_none_or(|s| s.is_none()) {
                violations.push(format!("{}: used cache has no backing store", c.name()));
            }
        }
        for (g, store) in self.stores.iter().enumerate() {
            let Some(store) = store else { continue };
            for p in store.check_accounting() {
                violations.push(format!("store group {g}: {p}"));
            }
        }
        let (cand_hits, cand_misses) = self.cands.iter().fold(
            (self.retired_hits, self.retired_misses),
            |(h, m), cr| (h + cr.hits, m + cr.misses),
        );
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
        for cr in &self.cands {
            if cr.state != CacheState::Used {
                continue;
            }
            let c = &cr.cand;
            let Some(store) = self.stores[c.group].as_ref() else {
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
