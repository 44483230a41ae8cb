//! The conformance sweep: run one case across the configuration × shard
//! matrix, cross-checking every run against the naive oracle and the
//! structural invariant checkers.
//!
//! Checks per case:
//!
//! 1. **Windowing cross-check** — for churn-free cases, a
//!    [`WindowedOracle`] fed the raw arrivals must agree with the plain
//!    [`Oracle`] fed the derived update stream (same window operators, two
//!    independent code paths).
//! 2. **Plan-space differential** — every engine configuration processes the
//!    derived updates; each update's result delta must equal the oracle's as
//!    a signed multiset, and [`check_structural_invariants`] must stay clean
//!    at periodic sweep points and at the end.
//! 3. **Shard determinism** — the sharded executor at every requested shard
//!    count must emit *bit-identical* canonicalized per-update deltas, match
//!    the oracle, and pass [`ShardedEngine::check_invariants`] both at
//!    periodic mid-run sweep points and at the end. At every shard count
//!    the persistent worker runtime is also swept against the pre-runtime
//!    scoped-thread executor ([`acq::shard::reference::ScopedShardedEngine`],
//!    kept behind the `reference-exec` feature), whose canonical deltas
//!    must be bit-identical too.
//! 4. **Telemetry conservation** — every run's final snapshot satisfies the
//!    [`acq_telemetry::ENGINE_LAWS`] counter conservation laws, and the
//!    engine's `tuples_processed` equals the number of updates fed.
//!
//! [`check_structural_invariants`]: AdaptiveJoinEngine::check_structural_invariants

use crate::casefile::{CaseSpec, ConfigId, SchemaSpec};
use acq::engine::{
    AdaptiveJoinEngine, CacheMode, EngineConfig, ReoptInterval, SelectionStrategy,
};
use acq::shard::reference::ScopedShardedEngine;
use acq::shard::{canonicalize_group, ShardConfig, ShardedEngine};
use acq::{EnumerationConfig, MemoryConfig, ProfilerConfig};
use acq_mjoin::oracle::{
    canonical_rows, multiset_diff, CanonicalRow, Oracle, OracleWindow, WindowedOracle,
};
use acq_mjoin::plan::{PipelineOrder, PlanOrders};
use acq_stream::{CountWindow, Op, RelId, StreamElement, TupleData, Update, WindowOp};
use acq_telemetry::{check_laws, ENGINE_LAWS};

/// Run invariant sweeps every this many updates (and always at the end).
const INVARIANT_EVERY: usize = 48;

/// Batch size for the sharded executor. Above `shard::INLINE_BATCH` (32),
/// so full batches run on the worker threads (batching, fences and the
/// streaming merge) while a case's short tail batch stays inline.
const SHARD_BATCH: usize = 48;

/// Canonicalized per-update deltas for one full run.
type RunDeltas = Vec<Vec<(Op, CanonicalRow)>>;

/// A detected conformance violation, with enough context to reproduce.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    /// Which run failed (`config:greedy`, `shards:4`, `windowing`, …).
    pub run: String,
    /// Human-readable description of the divergence.
    pub detail: String,
}

/// Summary of a green case.
#[derive(Debug, Clone, Copy, Default)]
pub struct CaseOutcome {
    /// Windowed updates derived from the arrival list.
    pub updates: usize,
    /// Engine/shard runs executed.
    pub runs: usize,
}

/// Derive the windowed update stream from a case's arrivals: each arrival
/// passes through its relation's count window, with churns applied at their
/// arrival-count thresholds. This is the exact stream every engine run and
/// the oracle consume, so windowing is shared — discrepancies then isolate
/// to the executors.
pub fn derive_updates(spec: &CaseSpec) -> Vec<Update> {
    let mut windows: Vec<CountWindow> = spec
        .windows
        .iter()
        .enumerate()
        .map(|(r, &w)| CountWindow::new(RelId(r as u16), w))
        .collect();
    let mut out = Vec::new();
    let mut last_ts = 0u64;
    for (i, a) in spec.arrivals.iter().enumerate() {
        for &(rel, after, neww) in &spec.churns {
            if after == i as u64 {
                out.extend(windows[rel].set_capacity(neww, last_ts));
            }
        }
        last_ts = a.ts;
        let elem = StreamElement::new(RelId(a.rel), TupleData::ints(&a.vals), a.ts);
        out.extend(windows[a.rel as usize].push(elem));
    }
    out
}

/// Materialize the [`EngineConfig`] for one sweep point. Fast-adaptivity
/// settings (small profiler windows, tuple-count re-optimization) so the
/// adaptive loop exercises cache placement/demotion within small cases.
pub fn engine_config(id: ConfigId, schema: SchemaSpec) -> EngineConfig {
    let mut c = EngineConfig {
        profiler: ProfilerConfig {
            w: 3,
            profile_every: 3,
            bloom_window: 16,
        },
        reopt_interval: ReoptInterval::Tuples(40),
        stats_epoch_ns: 1_000_000,
        ..EngineConfig::default()
    };
    match id {
        ConfigId::NoCaches => c.mode = CacheMode::None,
        ConfigId::Exhaustive => c.selection = SelectionStrategy::Exhaustive,
        ConfigId::Greedy => c.selection = SelectionStrategy::Greedy,
        ConfigId::Incremental => c.selection = SelectionStrategy::Incremental,
        ConfigId::LpRounding => c.selection = SelectionStrategy::Randomized(0xACE1),
        ConfigId::TinyMemory => {
            c.memory = MemoryConfig {
                budget_bytes: Some(2048),
                ..MemoryConfig::default()
            };
        }
        ConfigId::Forced => {
            // Figure 3's {S,T} cache in ∆R's pipeline; identity orders make
            // that segment a valid prefix set for chain3. Star cases swap in
            // a 2-way associative exhaustive run instead (a distinct sweep
            // point, not a duplicate of `Exhaustive`).
            if schema == SchemaSpec::Chain3 {
                c.mode = CacheMode::Forced(vec![(RelId(0), vec![RelId(1), RelId(2)])]);
            } else {
                c.selection = SelectionStrategy::Exhaustive;
                c.cache_ways = 2;
            }
        }
        ConfigId::GlobalEnum => {
            c.enumeration = EnumerationConfig {
                enable_global: true,
                ..EnumerationConfig::default()
            };
        }
    }
    c
}

/// Pipeline orders for one sweep point. Identity orders everywhere except
/// the chain3 `Forced` run: its `{S,T}` cache only satisfies the prefix
/// invariant (Definition 3.2) under Figure 3's orders — with identity orders
/// `∆S`'s pipeline starts at `R`, the candidate is never enumerated, and
/// forced mode would silently cache nothing.
pub fn plan_orders(id: ConfigId, schema: SchemaSpec) -> PlanOrders {
    let query = schema.query();
    if id == ConfigId::Forced && schema == SchemaSpec::Chain3 {
        return PlanOrders::new(vec![
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
    }
    PlanOrders::identity(&query)
}

/// Drive one engine through `updates`, comparing every per-update delta to
/// the precomputed oracle deltas and sweeping the structural invariants
/// periodically. Shared by the sweep and by the conformance tests' planted
/// fault checks.
pub fn run_engine_updates(
    engine: &mut AdaptiveJoinEngine,
    updates: &[Update],
    oracle_deltas: &[Vec<(Op, CanonicalRow)>],
) -> Result<(), String> {
    let n = engine.core().query().num_relations();
    for (step, u) in updates.iter().enumerate() {
        let got: Vec<(Op, CanonicalRow)> = engine
            .process(u)
            .into_iter()
            .map(|(op, c)| (op, canonical_rows(&c, n)))
            .collect();
        let diff = multiset_diff(&got, &oracle_deltas[step]);
        if !diff.is_empty() {
            return Err(format!(
                "delta mismatch at update {step} ({:?} {:?}): {} row(s) differ, e.g. {:?}",
                u.op,
                u.rel,
                diff.len(),
                diff.iter().next()
            ));
        }
        if (step + 1) % INVARIANT_EVERY == 0 {
            let v = engine.check_structural_invariants();
            if !v.is_empty() {
                return Err(format!("invariant violation at update {step}: {}", v.join("; ")));
            }
        }
    }
    let v = engine.check_structural_invariants();
    if !v.is_empty() {
        return Err(format!("post-run invariant violation: {}", v.join("; ")));
    }
    let snap = engine.telemetry_snapshot();
    let laws = check_laws(&snap, ENGINE_LAWS);
    if !laws.is_empty() {
        return Err(format!("telemetry conservation: {}", laws.join("; ")));
    }
    if engine.counters().tuples_processed != updates.len() as u64 {
        return Err(format!(
            "tuples_processed = {} but {} updates were fed",
            engine.counters().tuples_processed,
            updates.len()
        ));
    }
    Ok(())
}

/// Precompute the oracle's per-update deltas for the derived stream.
pub fn oracle_deltas(spec: &CaseSpec, updates: &[Update]) -> RunDeltas {
    let mut oracle = Oracle::new(spec.schema.query());
    updates.iter().map(|u| oracle.apply_and_delta(u)).collect()
}

/// Run the full conformance sweep for one case.
pub fn run_case(spec: &CaseSpec) -> Result<CaseOutcome, CaseFailure> {
    let updates = derive_updates(spec);
    let deltas = oracle_deltas(spec, &updates);
    let mut outcome = CaseOutcome {
        updates: updates.len(),
        runs: 0,
    };

    // 1. Windowing cross-check (churn-free cases): the WindowedOracle fed
    // raw arrivals must land on the same final state as the plain oracle
    // fed derived updates.
    if spec.churns.is_empty() {
        let windows: Vec<OracleWindow> =
            spec.windows.iter().map(|&w| OracleWindow::Count(w)).collect();
        let mut wo = WindowedOracle::new(spec.schema.query(), &windows);
        for a in &spec.arrivals {
            wo.push(RelId(a.rel), TupleData::ints(&a.vals), a.ts);
        }
        let mut final_oracle = Oracle::new(spec.schema.query());
        for u in &updates {
            final_oracle.apply_and_delta(u);
        }
        let mut a = wo.oracle().full_join();
        let mut b = final_oracle.full_join();
        a.sort();
        b.sort();
        if a != b {
            return Err(CaseFailure {
                run: "windowing".to_string(),
                detail: format!(
                    "WindowedOracle final join has {} rows, derived-update oracle has {}",
                    a.len(),
                    b.len()
                ),
            });
        }
    }

    // 2. Plan-space differential runs.
    let query = spec.schema.query();
    for &cfg in &spec.configs {
        let config = engine_config(cfg, spec.schema);
        let orders = plan_orders(cfg, spec.schema);
        let mut engine = AdaptiveJoinEngine::with_config(query.clone(), orders, config);
        outcome.runs += 1;
        run_engine_updates(&mut engine, &updates, &deltas).map_err(|detail| CaseFailure {
            run: format!("config:{}", cfg.as_str()),
            detail,
        })?;
    }

    // 3. Shard determinism: identical canonicalized per-update deltas at
    // every shard count, each matching the oracle.
    let n = query.num_relations();
    let mut reference: Option<(usize, RunDeltas)> = None;
    for &num_shards in &spec.shards {
        let config = engine_config(ConfigId::Exhaustive, spec.schema);
        let orders = PlanOrders::identity(&query);
        let mut sharded = ShardedEngine::with_config(
            query.clone(),
            orders,
            config,
            ShardConfig {
                num_shards,
                partition_class: None,
            },
        );
        outcome.runs += 1;
        let mut grouped: RunDeltas = Vec::with_capacity(updates.len());
        let mut since_sweep = 0usize;
        for batch in updates.chunks(SHARD_BATCH) {
            for mut group in sharded.process_batch_grouped(batch) {
                canonicalize_group(&mut group, n);
                grouped.push(
                    group
                        .into_iter()
                        .map(|(op, c)| (op, canonical_rows(&c, n)))
                        .collect(),
                );
            }
            // Mid-run invariant sweeps: the persistent workers hold live
            // engine state between batches, so sweep it while in flight,
            // not only after the stream ends.
            since_sweep += batch.len();
            if since_sweep >= INVARIANT_EVERY {
                since_sweep = 0;
                let v = sharded.check_invariants();
                if !v.is_empty() {
                    return Err(CaseFailure {
                        run: format!("shards:{num_shards}"),
                        detail: format!(
                            "mid-run shard invariants at update {}: {}",
                            grouped.len(),
                            v.join("; ")
                        ),
                    });
                }
            }
        }
        for (step, (got, want)) in grouped.iter().zip(&deltas).enumerate() {
            let diff = multiset_diff(got, want);
            if !diff.is_empty() {
                return Err(CaseFailure {
                    run: format!("shards:{num_shards}"),
                    detail: format!("delta mismatch vs oracle at update {step}"),
                });
            }
        }
        let v = sharded.check_invariants();
        if !v.is_empty() {
            return Err(CaseFailure {
                run: format!("shards:{num_shards}"),
                detail: format!("shard invariants: {}", v.join("; ")),
            });
        }
        let laws = check_laws(&sharded.telemetry_snapshot(), ENGINE_LAWS);
        if !laws.is_empty() {
            return Err(CaseFailure {
                run: format!("shards:{num_shards}"),
                detail: format!("merged-snapshot conservation: {}", laws.join("; ")),
            });
        }
        // Pre-runtime scoped-thread executor: the retired per-batch
        // spawn+join path, kept behind `reference-exec` purely as a
        // differential baseline. Its canonical deltas must match the
        // persistent runtime's bit-for-bit at the same shard count.
        outcome.runs += 1;
        let mut scoped = ScopedShardedEngine::with_config(
            query.clone(),
            PlanOrders::identity(&query),
            engine_config(ConfigId::Exhaustive, spec.schema),
            ShardConfig {
                num_shards,
                partition_class: None,
            },
        );
        let mut scoped_grouped: RunDeltas = Vec::with_capacity(updates.len());
        for batch in updates.chunks(SHARD_BATCH) {
            for mut group in scoped.process_batch_grouped(batch) {
                canonicalize_group(&mut group, n);
                scoped_grouped.push(
                    group
                        .into_iter()
                        .map(|(op, c)| (op, canonical_rows(&c, n)))
                        .collect(),
                );
            }
        }
        if scoped_grouped != grouped {
            let at = scoped_grouped
                .iter()
                .zip(&grouped)
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            return Err(CaseFailure {
                run: format!("shards:{num_shards}:scoped-reference"),
                detail: format!(
                    "scoped-thread reference diverges from the persistent \
                     runtime at update {at}"
                ),
            });
        }
        match &reference {
            None => reference = Some((num_shards, grouped)),
            Some((ref_shards, ref_grouped)) => {
                if *ref_grouped != grouped {
                    let at = ref_grouped
                        .iter()
                        .zip(&grouped)
                        .position(|(a, b)| a != b)
                        .unwrap_or(0);
                    return Err(CaseFailure {
                        run: format!("shards:{num_shards}"),
                        detail: format!(
                            "output diverges from {ref_shards}-shard run at update {at} \
                             (shard merge must be bit-identical)"
                        ),
                    });
                }
            }
        }
    }

    Ok(outcome)
}
