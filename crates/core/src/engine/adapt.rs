//! The Re-optimizer (§4.4–§5, Figure 4): candidate cache states, the
//! shared cache groups that back them (Definition 4.1), the per-pipeline
//! plans derived from those states, and the adaptivity loop that moves
//! candidates between states.
//!
//! The engine lends [`Reoptimizer`] the state it reads and charges — the
//! clock, the Profiler, the event log — as a [`Host`] for one call at a
//! time: re-enumeration, housekeeping after each update, a forced
//! re-optimization, and its part of the telemetry snapshot. The Executor's
//! walk borrows the candidates, groups and plans directly. With caching
//! off (`CacheMode::None`, baseline `M`) the loop never runs.

use super::exec::{GcTap, PipelinePlan, Tap};
use super::{
    CacheMode, CacheState, EngineConfig, EngineCounters, ReoptInterval, SelectionStrategy,
};
use crate::cache::{CacheStats, CacheStore};
use crate::candidates::{enumerate_candidates, num_groups, Candidate};
use crate::cost::{benefit_cost, BenefitCost, CandidateEstimates};
use crate::memory::{allocate, buckets_for, buckets_within_budget, MemoryRequest};
use crate::profiler::Profiler;
use crate::select::{self, CacheChoice, SelectionInstance};
use acq_mjoin::exec::JoinCore;
use acq_mjoin::plan::{CompiledOp, PlanOrders};
use acq_sketch::{bloom::MissProbEstimator, WindowStat};
use acq_stream::RelId;
use acq_telemetry::{Event, EventLog, TelemetrySnapshot};
use std::collections::BTreeSet;

/// Per-candidate runtime state.
#[derive(Debug)]
pub(super) struct CandRuntime {
    pub(super) cand: Candidate,
    pub(super) state: CacheState,
    pub(super) miss_est: MissProbEstimator,
    /// Last `W` miss-probability observations (Bloom windows or direct
    /// observation while used).
    pub(super) miss_window: WindowStat,
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
    pub(super) hits: u64,
    /// Lifetime probe misses while used.
    pub(super) misses: u64,
    /// Virtual ns spent servicing hits (probe + splice).
    pub(super) hit_ns: u64,
    /// Virtual ns spent servicing misses (probe + segment run + create).
    pub(super) miss_ns: u64,
}

/// One shared-cache group (Definition 4.1): the store its members share
/// and the statistics that outlive it.
#[derive(Debug, Default)]
pub(super) struct CacheGroup {
    /// `Some` while any member is used.
    pub(super) store: Option<CacheStore>,
    /// Statistics of closed epochs and retired stores —
    /// [`CacheStore::reset_stats`] starts a new epoch, so totals for the
    /// snapshot live here.
    retired: CacheStats,
    /// Bytes granted at the last §5 allocation round.
    granted_bytes: usize,
}

impl CacheGroup {
    /// Drop the store, keeping its statistics.
    fn retire_store(&mut self) {
        if let Some(store) = self.store.take() {
            self.retired.absorb(&store.stats());
        }
    }

    /// Fold the store's current epoch into the totals and start a new one.
    fn close_epoch(&mut self) {
        if let Some(store) = self.store.as_mut() {
            self.retired.absorb(&store.stats());
            store.reset_stats();
        }
    }

    /// Give the group a store of about `buckets` buckets: create one, or
    /// resize the live one on a substantial change (avoids thrash).
    fn provision(&mut self, buckets: usize, ways: usize) {
        match self.store.as_mut() {
            Some(store) => {
                let cur = store.num_buckets();
                if buckets > cur * 2 || buckets * 4 < cur {
                    store.resize(buckets);
                }
            }
            None => self.store = Some(CacheStore::with_associativity(buckets, ways)),
        }
    }

    /// `store.*` metrics: lifetime statistics, plus the live store's size.
    fn snapshot_into(&self, s: &mut TelemetrySnapshot, g: usize) {
        let mut st = self.retired;
        if let Some(store) = self.store.as_ref() {
            st.absorb(&store.stats());
            let gl = g.to_string();
            let labels = [("group", gl.as_str())];
            s.gauge("store.memory_bytes", &labels, store.memory_bytes() as f64);
            s.gauge("store.buckets", &labels, store.num_buckets() as f64);
            s.gauge("store.entries", &labels, store.len() as f64);
        }
        st.snapshot_into(s, g);
    }
}

/// The engine state the Re-optimizer reads, charges and logs to, borrowed
/// for one call.
pub(super) struct Host<'a> {
    pub(super) core: &'a mut JoinCore,
    pub(super) orders: &'a PlanOrders,
    pub(super) config: &'a EngineConfig,
    pub(super) profiler: &'a mut Profiler,
    pub(super) counters: &'a mut EngineCounters,
    pub(super) tlog: &'a mut EventLog,
}

/// Candidate states, cache groups, execution plans and the adaptivity
/// loop's clocks.
#[derive(Debug, Default)]
pub(super) struct Reoptimizer {
    pub(super) cands: Vec<CandRuntime>,
    pub(super) groups: Vec<CacheGroup>,
    pub(super) plans: Vec<PipelinePlan>,
    last_reopt_ns: u64,
    last_reopt_tuples: u64,
    last_epoch_ns: u64,
    /// Consecutive re-optimizations that left the used-cache set unchanged
    /// (§8 future work (ii): statistics whose significant changes tend not
    /// to produce new selections get progressively damped by widening the
    /// effective trigger threshold).
    fruitless_streak: u32,
    /// Probe `(hits, misses)` of candidates retired by re-enumeration (it
    /// resets per-candidate counters; the aggregate engine counters persist,
    /// so conservation needs this carry).
    retired: (u64, u64),
}

impl Reoptimizer {
    /// Enumerate candidates for the current orders, set their initial
    /// states per the cache mode and rebuild the plans. Candidates and
    /// groups of the previous orders are discarded.
    pub(super) fn reenumerate(&mut self, host: Host<'_>) {
        // Carry retiring candidates' probe totals so the aggregate engine
        // counters stay reconcilable with per-cache counters (conservation).
        self.retired = self.probe_totals();
        let candidates =
            enumerate_candidates(host.core.query(), host.orders, &host.config.enumeration);
        // Group ids are only meaningful within one candidate enumeration, so
        // stores, accumulated stats and grants restart with the new groups.
        self.groups = std::iter::repeat_with(CacheGroup::default)
            .take(num_groups(&candidates))
            .collect();
        self.cands = candidates
            .into_iter()
            .map(|cand| CandRuntime {
                cand,
                state: CacheState::Profiled,
                miss_est: host.profiler.new_miss_estimator(),
                miss_window: WindowStat::new(host.config.profiler.w),
                bc_at_selection: None,
                bc_now: None,
                used_since_ns: 0,
                hits: 0,
                misses: 0,
                hit_ns: 0,
                miss_ns: 0,
            })
            .collect();
        self.apply_forced_mode(host.config);
        self.rebuild_plans(host.core, host.orders);
    }

    /// Non-adaptive modes fix the states: `Forced` uses exactly the listed
    /// caches (with stores), `None` uses nothing.
    fn apply_forced_mode(&mut self, config: &EngineConfig) {
        let forced: &[(RelId, Vec<RelId>)] = match &config.mode {
            CacheMode::Forced(list) => list,
            CacheMode::None => &[],
            CacheMode::Adaptive => return,
        };
        for c in &mut self.cands {
            // Candidate segments are sorted; the listed ones may not be.
            let matched = forced.iter().any(|(p, s)| {
                let mut s = s.clone();
                s.sort_unstable();
                *p == c.cand.pipeline && s == c.cand.segment
            });
            if !matched {
                c.state = CacheState::Unused;
                continue;
            }
            c.state = CacheState::Used;
            self.groups[c.cand.group]
                .store
                .get_or_insert_with(|| CacheStore::with_associativity(1024, config.cache_ways));
        }
    }

    /// Rebuild per-pipeline execution plans from candidate states, retiring
    /// the stores of groups with no used member.
    pub(super) fn rebuild_plans(&mut self, core: &JoinCore, orders: &PlanOrders) {
        let mut plans: Vec<PipelinePlan> = orders
            .pipelines
            .iter()
            .map(|p| PipelinePlan {
                lookup: vec![None; p.order.len()],
                taps: vec![Vec::new(); p.order.len()],
                bloom: vec![Vec::new(); p.order.len()],
                gc_direct: Vec::new(),
            })
            .collect();

        // Active groups: any used member. Stores of newly active groups are
        // created where they are sized (apply_selection, or forced mode).
        let mut group_used = vec![false; self.groups.len()];
        for c in self.cands.iter().filter(|c| c.state == CacheState::Used) {
            group_used[c.cand.group] = true;
        }
        for (group, &used) in self.groups.iter_mut().zip(&group_used) {
            if !used {
                group.retire_store();
            }
        }

        for (ci, c) in self.cands.iter().enumerate() {
            let pi = c.cand.pipeline.0 as usize;
            match c.state {
                CacheState::Used => plans[pi].lookup[c.cand.start] = Some(ci),
                CacheState::Profiled => plans[pi].bloom[c.cand.start].push(ci),
                CacheState::Unused => {}
            }
        }
        // Maintenance taps for active groups (one per group per member
        // pipeline).
        let mut tap_added: Vec<(usize, RelId)> = Vec::new(); // (group, pipeline) dedupe
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
            for &l in &c.cand.segment {
                if tap_added.contains(&(g, l)) {
                    continue;
                }
                tap_added.push((g, l));
                let plan = &mut plans[l.0 as usize];
                if !c.cand.is_global() {
                    plan.taps[c.cand.tap_pos()].push(tap.clone());
                    continue;
                }
                // Maintained by separate delta computation on updates to
                // segment relations: the updated tuple joins the other
                // segment relations in segment order.
                let mut done = vec![l];
                let mut ops = Vec::new();
                for &target in c.cand.segment.iter().filter(|&&r| r != l) {
                    ops.push(CompiledOp::compile(
                        core.query(),
                        core.relations(),
                        &done,
                        target,
                    ));
                    done.push(target);
                }
                plan.gc_direct.push(GcTap {
                    tap: tap.clone(),
                    ops,
                });
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

    /// Roll a statistics epoch and re-optimize when they are due. Runs
    /// after every update, so its checks are inlined into the engine's
    /// update path.
    #[inline]
    pub(super) fn housekeeping(&mut self, mut host: Host<'_>) {
        if host.config.mode == CacheMode::None {
            return;
        }
        let now = host.core.now_ns();
        if now.saturating_sub(self.last_epoch_ns) >= host.config.stats_epoch_ns {
            self.stats_epoch(now, &mut host);
        }
        if host.config.mode != CacheMode::Adaptive {
            return;
        }
        let tuples = host.counters.tuples_processed;
        let due = match host.config.reopt_interval {
            ReoptInterval::VirtualNs(i) => now.saturating_sub(self.last_reopt_ns) >= i,
            ReoptInterval::Tuples(t) => tuples.saturating_sub(self.last_reopt_tuples) >= t,
        };
        if due {
            self.reoptimize(now, &mut host);
        }
    }

    /// Roll a statistics epoch and re-optimize now.
    pub(super) fn force_reoptimize(&mut self, mut host: Host<'_>) {
        if host.config.mode != CacheMode::None {
            let now = host.core.now_ns();
            self.stats_epoch(now, &mut host);
            self.reoptimize(now, &mut host);
        }
    }

    /// Per-epoch statistics maintenance and used-cache monitoring (§4.5a).
    fn stats_epoch(&mut self, now: u64, host: &mut Host<'_>) {
        self.last_epoch_ns = now;
        host.profiler.roll_rates(now);
        // Observed miss probability for used caches. Gate the direct
        // observation on a minimum probe count: a two-probe epoch against a
        // freshly created store observes "miss" by construction, not by
        // workload.
        let min_probes = (host.config.profiler.bloom_window / 4).max(8) as u64;
        for cr in self
            .cands
            .iter_mut()
            .filter(|c| c.state == CacheState::Used)
        {
            let group = &mut self.groups[cr.cand.group];
            let Some(s) = group.store.as_ref().map(CacheStore::stats) else {
                continue;
            };
            if s.hits + s.misses >= min_probes {
                if let Some(mp) = s.miss_prob() {
                    cr.miss_window.push(mp);
                }
                group.close_epoch();
            }
        }
        if host.config.mode != CacheMode::Adaptive {
            return;
        }
        let grace = host.config.stats_epoch_ns.saturating_mul(2);
        let mut any_demoted = false;
        for ci in 0..self.cands.len() {
            let cr = &self.cands[ci];
            // §3.2: a new cache is populated incrementally — let it warm up.
            if cr.state != CacheState::Used || now.saturating_sub(cr.used_since_ns) < grace {
                continue;
            }
            if let Some(bc) = self.estimate(ci, host) {
                let cr = &mut self.cands[ci];
                cr.bc_now = Some(bc);
                if bc.net() < 0.0 {
                    cr.state = CacheState::Unused;
                    host.counters.demotions += 1;
                    host.tlog.push(
                        Event::new(now, "cache.dropped", cr.cand.name())
                            .field("reason", "demoted")
                            .field("net", bc.net()),
                    );
                    any_demoted = true;
                }
            }
        }
        if any_demoted {
            self.rebuild_plans(host.core, host.orders);
        }
    }

    /// Estimate benefit/cost for one candidate from current profiler state.
    /// `None` when statistics aren't warm enough to trust.
    fn estimate(&self, ci: usize, host: &Host<'_>) -> Option<BenefitCost> {
        let profiler = &*host.profiler;
        let cr = &self.cands[ci];
        let c = &cr.cand;
        let i = c.pipeline;
        if !profiler.pipeline_warm(i) {
            return None;
        }
        let miss = cr.miss_window.average()?;
        let d_in = profiler.d(i, c.start);
        let d_out = profiler.d(i, c.end + 1);
        let seg_proc: f64 = (c.start..=c.end).map(|j| profiler.op_proc(i, j)).sum();
        let maint_rate = if c.is_global() {
            // Separate maintenance: each segment-relation update joins with
            // the other segment relations; its delta size is approximately
            // the average entry size.
            let avg_entry = if d_in > 0.0 { d_out / d_in } else { 1.0 }.max(1.0);
            let update_rate: f64 = c.segment.iter().map(|&l| profiler.rate(l)).sum();
            update_rate * avg_entry
        } else {
            c.segment.iter().map(|&l| profiler.d(l, c.tap_pos())).sum()
        };
        let est = CandidateEstimates {
            d_in,
            d_out,
            seg_proc,
            miss_prob: miss,
            maint_rate,
            expected_entries: expected_entries(host.config, d_in, miss),
        };
        Some(benefit_cost(
            host.core.cost_model(),
            c.key_classes.len(),
            &est,
        ))
    }

    /// The §4.5 re-optimization step.
    fn reoptimize(&mut self, now: u64, host: &mut Host<'_>) {
        self.last_reopt_ns = now;
        self.last_reopt_tuples = host.counters.tuples_processed;

        // Estimates for all candidates.
        let est: Vec<Option<BenefitCost>> = (0..self.cands.len())
            .map(|ci| self.estimate(ci, host))
            .collect();
        for (cr, e) in self.cands.iter_mut().zip(&est) {
            cr.bc_now = *e;
        }

        // §4.5c trigger: skip the offline algorithm when nothing drifted
        // beyond p since the last selection. Fruitless re-optimizations
        // (selection unchanged) widen the effective threshold up to 4× —
        // the paper's §8(ii) "unimportant statistics" idea in aggregate form.
        let effective_p =
            host.config.p_threshold * (1.0 + 0.5 * self.fruitless_streak as f64).min(4.0);
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
            host.tlog.push(
                Event::new(now, "selection.skipped", "")
                    .field("effective_p", effective_p)
                    .field("fruitless_streak", self.fruitless_streak as u64),
            );
            return;
        }
        host.counters.reoptimizations += 1;
        host.core.charge(host.core.cost_model().reoptimize);

        // Build the selection instance over estimable candidates, tracing
        // every candidate the selector will score.
        let op_proc: Vec<Vec<f64>> = host
            .orders
            .pipelines
            .iter()
            .map(|p| {
                (0..p.order.len())
                    .map(|j| host.profiler.op_proc(p.stream, j))
                    .collect()
            })
            .collect();
        let mut choices = Vec::new();
        let mut group_cost = vec![0.0; self.groups.len()];
        for (ci, (cr, e)) in self.cands.iter().zip(&est).enumerate() {
            let Some(bc) = e else { continue };
            host.tlog.push(
                Event::new(now, "cache.scored", cr.cand.name())
                    .field("benefit", bc.benefit)
                    .field("cost", bc.cost)
                    .field("net", bc.net())
                    .field("miss_prob", cr.miss_window.average().unwrap_or(1.0)),
            );
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
        let (solver, sol) = match host.config.selection {
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
        host.tlog.push(
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
        while let Some(x) = self.tap_conflict(&chosen) {
            host.tlog.push(
                Event::new(now, "cache.dropped", self.cands[x].cand.name())
                    .field("reason", "tap_conflict"),
            );
            chosen.retain(|&c| c != x);
        }

        // §8(ii) damping bookkeeping: did the selection actually change?
        let newly_chosen: BTreeSet<usize> = chosen.iter().copied().collect();
        let unchanged = (0..self.cands.len())
            .filter(|&ci| self.cands[ci].state == CacheState::Used)
            .eq(newly_chosen);
        self.fruitless_streak = if unchanged {
            self.fruitless_streak.saturating_add(1)
        } else {
            0
        };

        self.apply_selection(&chosen, host);
    }

    /// The lower-benefit member of the first pair in `chosen` where cache
    /// `a` covers the tap position of another group's cache `b` in `a`'s
    /// pipeline. Any used cache, plain or globally-consistent, bypasses its
    /// span on hits; only plain groups own pipeline taps (globally-consistent
    /// maintenance is computed separately). Unlike the plan builder's
    /// safety net, a tap at `a`'s own start position counts.
    fn tap_conflict(&self, chosen: &[usize]) -> Option<usize> {
        let net = |ci: usize| self.cands[ci].bc_now.map_or(0.0, |x| x.net());
        for &a in chosen {
            let ca = &self.cands[a].cand;
            for &b in chosen {
                let cb = &self.cands[b].cand;
                if cb.group != ca.group
                    && !cb.is_global()
                    && cb.segment.contains(&ca.pipeline)
                    && ca.covers(cb.tap_pos())
                {
                    return Some(if net(a) <= net(b) { a } else { b });
                }
            }
        }
        None
    }

    /// Transition states per the selection, allocate memory, create stores.
    fn apply_selection(&mut self, chosen: &[usize], host: &mut Host<'_>) {
        let group_count = self.groups.len();
        // Memory requests per active group.
        // `group_net[g]` is `None` for groups with no chosen member; a
        // group's cost is paid once, by its first member.
        let mut group_net: Vec<Option<f64>> = vec![None; group_count];
        let mut group_bytes = vec![0usize; group_count];
        let mut group_entry_bytes = vec![64usize; group_count];
        for &ci in chosen {
            let cr = &self.cands[ci];
            let bc = cr.bc_now.unwrap_or_default();
            let g = cr.cand.group;
            *group_net[g].get_or_insert(-bc.cost) += bc.benefit;
            // Entry size estimate: key + refs.
            let d_in = host.profiler.d(cr.cand.pipeline, cr.cand.start);
            let d_out = host.profiler.d(cr.cand.pipeline, cr.cand.end + 1);
            let avg_tuples = if d_in > 0.0 { d_out / d_in } else { 1.0 };
            let entry_bytes =
                48 + cr.cand.key_classes.len() * 16 + (avg_tuples.max(1.0) as usize) * 40;
            let entries = expected_entries(host.config, d_in, cr.miss_window.average_or(0.5));
            group_entry_bytes[g] = group_entry_bytes[g].max(entry_bytes);
            group_bytes[g] = group_bytes[g].max((entries as usize).saturating_mul(entry_bytes));
        }
        let requests: Vec<MemoryRequest> = (0..group_count)
            .filter_map(|g| {
                Some(MemoryRequest {
                    id: g,
                    net_benefit: group_net[g]?,
                    expected_bytes: group_bytes[g].max(4096),
                })
            })
            .collect();
        let mut granted = vec![0usize; group_count];
        for a in allocate(&host.config.memory, &requests) {
            granted[a.id] = a.bytes;
        }
        for (group, &bytes) in self.groups.iter_mut().zip(&granted) {
            group.granted_bytes = bytes;
        }
        // Convert byte grants into budget-respecting bucket counts (each
        // bucket costs its array slot plus the expected entry footprint).
        let slot = crate::cache::BUCKET_SLOT_BYTES;
        let group_buckets: Vec<usize> = (0..group_count)
            .map(|g| {
                if host.config.memory.budget_bytes.is_some() {
                    buckets_within_budget(granted[g], group_entry_bytes[g], slot)
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
        let now = host.core.now_ns();
        let mut used_any = vec![false; group_count];
        for (ci, cr) in self.cands.iter_mut().enumerate() {
            let g = cr.cand.group;
            let was_used = cr.state == CacheState::Used;
            let is_chosen = chosen.contains(&ci) && group_buckets[g] > 0;
            if is_chosen {
                let bc = cr.bc_now.unwrap_or_default();
                let event = if was_used {
                    Event::new(now, "cache.retained", cr.cand.name()).field("net", bc.net())
                } else {
                    cr.used_since_ns = now;
                    Event::new(now, "cache.added", cr.cand.name())
                        .field("benefit", bc.benefit)
                        .field("cost", bc.cost)
                        .field("granted_bytes", granted[g] as u64)
                };
                host.tlog.push(event);
                cr.state = CacheState::Used;
                used_any[g] = true;
            } else {
                if was_used || chosen.contains(&ci) {
                    let reason = if chosen.contains(&ci) {
                        "no_memory"
                    } else {
                        "deselected"
                    };
                    host.tlog.push(
                        Event::new(now, "cache.dropped", cr.cand.name()).field("reason", reason),
                    );
                }
                cr.state = CacheState::Profiled;
                cr.miss_est = host.profiler.new_miss_estimator();
            }
            cr.bc_at_selection = cr.bc_now;
        }
        for (g, group) in self.groups.iter_mut().enumerate() {
            if used_any[g] {
                group.provision(group_buckets[g], host.config.cache_ways);
            } else {
                group.retire_store();
            }
        }
        self.rebuild_plans(host.core, host.orders);
    }

    /// Total bytes held by cache stores.
    pub(super) fn cache_memory_bytes(&self) -> usize {
        self.groups
            .iter()
            .filter_map(|g| g.store.as_ref())
            .map(CacheStore::memory_bytes)
            .sum()
    }

    /// Lifetime `(hits, misses)` over every candidate, retired ones
    /// included (the per-cache side of counter conservation).
    pub(super) fn probe_totals(&self) -> (u64, u64) {
        let hits: u64 = self.cands.iter().map(|c| c.hits).sum();
        let misses: u64 = self.cands.iter().map(|c| c.misses).sum();
        (self.retired.0 + hits, self.retired.1 + misses)
    }

    /// `memory.*` metrics: cache bytes held and the last round's grants.
    pub(super) fn snapshot_memory(&self, s: &mut TelemetrySnapshot) {
        s.gauge("memory.cache_bytes", &[], self.cache_memory_bytes() as f64);
        let granted: Vec<usize> = self.groups.iter().map(|g| g.granted_bytes).collect();
        crate::memory::snapshot_allocations(s, &granted);
    }

    /// `cache.*` and `store.*` metrics.
    pub(super) fn snapshot_into(&self, s: &mut TelemetrySnapshot) {
        if self.retired != (0, 0) {
            // Totals of candidates dropped by re-enumeration, kept so
            // Σ cache.hits == engine.cache_hits (counter conservation).
            let labels: [(&str, &str); 1] = [("cache", "<retired>")];
            s.counter("cache.hits", &labels, self.retired.0);
            s.counter("cache.misses", &labels, self.retired.1);
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
            let state_labels = [("cache", name.as_str()), ("state", state)];
            s.gauge("cache.state", &state_labels, 1.0);
            if let Some(m) = cr.miss_window.average() {
                s.ratio("cache.miss_prob", &labels, m, 1.0);
            }
            if let Some(bc) = cr.bc_now {
                bc.snapshot_into(s, "cache.current", &labels);
            }
            if let Some(bc) = cr.bc_at_selection {
                bc.snapshot_into(s, "cache.predicted", &labels);
            }
        }
        for (g, group) in self.groups.iter().enumerate() {
            group.snapshot_into(s, g);
        }
    }
}

/// Entries a cache is expected to hold over one re-optimization horizon.
fn expected_entries(config: &EngineConfig, d_in: f64, miss: f64) -> f64 {
    let horizon = match config.reopt_interval {
        ReoptInterval::VirtualNs(i) => i as f64 / 1e9,
        ReoptInterval::Tuples(_) => 1.0,
    };
    (miss * d_in * horizon).clamp(16.0, 1_048_576.0)
}
