//! The traced run: per-layer metrics from spans the benchmark records
//! around its calls into each layer, and from the program's own counters
//! read afterwards.
//!
//! The workload's engine runs four passes, untraced and traced in turn
//! (the traced ones give `trace.overhead` and the engine's span times).
//! Then each layer runs once more over the same stream on its own: the
//! bare store (`JoinCore::apply_update`), the engine with caching off
//! (`CacheMode::None`), `ShardedEngine` at one and two shards, and the
//! engine with `force_reoptimize()` called at fixed update counts. Every
//! run's deltas go through the correctness gate.

use std::hint::black_box;

use acq::engine::EngineConfig;
use acq_mjoin::exec::JoinCore;
use acq_telemetry::{MetricValue, TelemetrySnapshot};

use crate::exec::Exec;
use crate::gate::{Digest, Reference};
use crate::pass::{self, Pass, Tally};
use crate::report::{Json, Report};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{Executor, Workload};

/// `force_reoptimize()` calls spread evenly over the timed phase.
const REOPT_CALLS: usize = 16;
/// `telemetry_snapshot()` calls timed at the end of the traced pass.
const SNAPSHOT_CALLS: usize = 9;
/// Where the span file goes, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

pub fn run(w: &Workload, reference: &Reference) -> Report {
    let mut r = Report::default();
    let mut tracer = Tracer::new();
    let timed = w.timed_updates().len() as f64;
    let all = w.updates.len() as f64;

    // The workload's own executor, untraced and traced in turn.
    let (mut loop_untraced, mut loop_traced, mut allocs) = (Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<Pass> = None;
    for i in 0..4 {
        let traced = i % 2 == 1;
        let mut p = pass::run(w, reference, traced.then_some(&mut tracer));
        r.audit(w, &mut p);
        if p.loop_ns == 0 {
            return r;
        }
        let ups = timed * 1e9 / p.loop_ns as f64;
        if traced {
            loop_traced.push(ups);
            last = Some(p);
        } else {
            loop_untraced.push(ups);
            allocs.push(p.allocs as f64 / timed);
        }
    }
    let main = last.expect("four passes ran");
    let snap = {
        let mut snap = TelemetrySnapshot::new();
        for k in 0..SNAPSHOT_CALLS {
            snap = tracer.span("telemetry.snapshot", k, || {
                main.engine().telemetry_snapshot()
            });
        }
        snap
    };
    let c = main.engine().counters();
    let engine_ns = tracer.total_ns("engine.run_batch") as f64 / (2.0 * timed);

    // One run per layer over the same stream.
    let (store_ns, live_tuples) = store_probe(w, &mut tracer);
    let no_cache = w.no_cache_config();
    probe(
        w,
        reference,
        Executor::Single,
        no_cache,
        &mut tracer,
        "mjoin.run_batch",
        &mut r,
    );
    let mjoin_ns = tracer.total_ns("mjoin.run_batch") as f64 / timed;
    let config = w.config.clone();
    probe(
        w,
        reference,
        Executor::Sharded(1),
        config.clone(),
        &mut tracer,
        "shard1.run_batch",
        &mut r,
    );
    let shard1_ns = tracer.total_ns("shard1.run_batch") as f64 / timed;
    let shard2 = probe(
        w,
        reference,
        Executor::Sharded(2),
        config,
        &mut tracer,
        "shard2.run_batch",
        &mut r,
    );
    let shard2_ns = tracer.total_ns("shard2.run_batch") as f64 / timed;
    let reopt_us = reopt_probe(w, reference, &mut tracer, &mut r);

    let counter = |name: &str| snap.counter_total(name) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let shard_snap = shard2.telemetry();
    let routed = shard_snap.counter_total("routing.routed") as f64;
    let broadcast = shard_snap.counter_total("routing.broadcast") as f64;
    let per_shard: Vec<f64> = match &shard2 {
        Exec::Sharded(e) => (0..e.num_shards())
            .map(|i| e.with_shard(i, |s| s.counters().tuples_processed as f64))
            .collect(),
        Exec::Single(_) => unreachable!("built as a sharded executor"),
    };
    let mean_shard = per_shard.iter().sum::<f64>() / per_shard.len() as f64;

    r.metric(
        "engine.allocs_per_update",
        stats::median(&mut allocs),
        "count/update",
    );
    r.metric(
        "engine.outputs_per_update",
        c.outputs_emitted as f64 / all,
        "count/update",
    );
    r.metric("engine.ns_per_update", engine_ns, "ns/update");
    r.metric("store.apply_ns_per_update", store_ns, "ns/update");
    r.metric("store.live_tuples", live_tuples as f64, "count");
    r.metric("mjoin.ns_per_update", mjoin_ns, "ns/update");
    r.metric(
        "mjoin.resolved_direct_per_update",
        counter("probe.resolved_direct") / all,
        "count/update",
    );
    r.metric(
        "cache.hit_ratio",
        ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
        "ratio",
    );
    r.metric(
        "cache.bloom_filtered_share",
        ratio(counter("store.bloom_filtered"), counter("store.misses")),
        "ratio",
    );
    r.metric(
        "cache.collisions_per_kupdate",
        counter("store.collisions") * 1e3 / all,
        "count/kupdate",
    );
    r.metric("cache.bytes", gauge_sum(&snap, "memory.cache_bytes"), "B");
    r.metric(
        "cache.saving_ns_per_update",
        mjoin_ns - engine_ns,
        "ns/update",
    );
    r.metric(
        "adapt.reopt_us_p50",
        stats::median(&mut reopt_us.clone()),
        "us",
    );
    r.metric(
        "adapt.reopt_us_max",
        reopt_us.iter().copied().fold(0.0, f64::max),
        "us",
    );
    r.metric("adapt.reoptimizations", c.reoptimizations as f64, "count");
    r.metric("adapt.demotions", c.demotions as f64, "count");
    r.metric(
        "adapt.selection_runs",
        snap.events_of_kind("selection.run").count() as f64,
        "count",
    );
    r.metric("adapt.plan_changes", main.plan_log.len() as f64, "count");
    r.metric(
        "adapt.recovery_updates",
        recovery_updates(w, &main) as f64,
        "count",
    );
    r.metric(
        "adapt.model_rate_tps",
        snap.get("engine.rate", &[])
            .and_then(MetricValue::as_ratio)
            .unwrap_or(0.0),
        "1/s",
    );
    r.metric(
        "shard.overhead_ns_per_update",
        shard1_ns - engine_ns,
        "ns/update",
    );
    r.metric("shard.speedup", shard1_ns / shard2_ns, "x");
    r.metric("shard.speedup_base_ups", 1e9 / shard1_ns, "1/s");
    r.metric(
        "shard.imbalance",
        per_shard.iter().copied().fold(0.0, f64::max) / mean_shard,
        "ratio",
    );
    r.metric(
        "shard.broadcast_share",
        ratio(broadcast, routed + broadcast),
        "ratio",
    );
    r.metric(
        "shard.parked_ratio",
        gauge_sum(&shard_snap, "shard.parked_ratio"),
        "ratio",
    );
    r.metric("merge.lag", gauge_sum(&shard_snap, "merge.lag"), "runs");
    r.metric(
        "telemetry.snapshot_us",
        stats::median(&mut tracer.durations_us("telemetry.snapshot")),
        "us",
    );
    r.metric(
        "trace.overhead",
        stats::median(&mut loop_traced) / stats::median(&mut loop_untraced),
        "ratio",
    );

    let spans_file = format!("{OUT_DIR}/{}.spans.csv", w.name);
    match std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&spans_file, tracer.to_csv()))
    {
        Ok(()) => r.record.push(("spans_file", Json::str(&spans_file))),
        Err(e) => eprintln!("perfbench: could not write {spans_file}: {e}"),
    }
    r.record.push(("spans", Json::U(tracer.len() as u64)));
    r.record
        .push(("events_dropped", Json::U(snap.events_dropped())));
    r.record.push((
        "plan_log",
        Json::Arr(
            main.plan_log
                .iter()
                .map(|(at, caches)| {
                    Json::obj(vec![
                        ("at_update", Json::U(*at as u64)),
                        (
                            "caches",
                            Json::Arr(caches.iter().map(|c| Json::str(c)).collect()),
                        ),
                    ])
                })
                .collect(),
        ),
    ));
    r.record.push((
        "span_self_ns_per_update",
        Json::Obj(
            tracer
                .totals()
                .into_iter()
                .map(|(name, t)| (name, Json::F(t.self_ns as f64 / timed)))
                .collect(),
        ),
    ));
    r
}

fn gauge_sum(snap: &TelemetrySnapshot, name: &str) -> f64 {
    snap.metrics()
        .iter()
        .filter(|m| m.name == name)
        .map(|m| match m.value {
            MetricValue::Gauge(v) => v,
            _ => 0.0,
        })
        .sum()
}

/// Updates from the burst's start until the cache set in use at the end
/// of the stream was first in use; 0 on a workload without a burst.
fn recovery_updates(w: &Workload, main: &Pass) -> usize {
    let Some(burst) = w.burst_at else { return 0 };
    let last = main.plan_log.last().map(|(_, c)| c);
    main.plan_log
        .iter()
        .find(|(at, caches)| *at >= burst && Some(caches) == last)
        .map_or(0, |(at, _)| at - burst)
}

/// Run `executor` over the stream, one `span` per timed batch, checking
/// every batch's deltas.
fn probe(
    w: &Workload,
    reference: &Reference,
    executor: Executor,
    config: EngineConfig,
    tracer: &mut Tracer,
    span: &'static str,
    r: &mut Report,
) -> Exec {
    let mut exec = Exec::build(w, executor, config);
    let mut tally = Tally::default();
    run_probe(
        w,
        reference,
        executor,
        &mut exec,
        tracer,
        span,
        &mut tally,
        |_, _, _| {},
    );
    r.absorb(tally);
    exec
}

#[allow(clippy::too_many_arguments)]
fn run_probe(
    w: &Workload,
    reference: &Reference,
    executor: Executor,
    exec: &mut Exec,
    tracer: &mut Tracer,
    span: &'static str,
    tally: &mut Tally,
    mut after_batch: impl FnMut(&mut Exec, usize, &mut Tracer),
) {
    let ordered = matches!(executor, Executor::Sharded(_));
    let setup_batches = w.setup / w.batch;
    let mut out = Vec::new();
    for (bi, batch) in w.updates.chunks(w.batch).enumerate() {
        let timed = bi >= setup_batches;
        let id = timed.then(|| tracer.open(span, bi));
        let result = exec.run_batch(batch, &mut out);
        if let Some(id) = id {
            tracer.close(id);
        }
        let mut d = Digest::default();
        d.extend(&out);
        out.clear();
        let failed = result.is_err();
        tally.check(bi, result, d, &reference.batches[bi], ordered);
        if failed {
            return;
        }
        if timed {
            after_batch(exec, bi, tracer);
        }
    }
}

/// The bare store: every update applied to a `JoinCore` with no
/// pipelines; returns ns per timed update and the live tuples at the end.
fn store_probe(w: &Workload, tracer: &mut Tracer) -> (f64, usize) {
    let mut core = JoinCore::new(w.query.clone());
    for u in w.setup_updates() {
        black_box(core.apply_update(u));
    }
    let setup_batches = w.setup / w.batch;
    for (k, batch) in w.timed_updates().chunks(w.batch).enumerate() {
        let id = tracer.open("store.apply_update", setup_batches + k);
        for u in batch {
            black_box(core.apply_update(u));
        }
        tracer.close(id);
    }
    let live = w.query.rel_ids().map(|r| core.relation(r).len()).sum();
    (
        tracer.total_ns("store.apply_update") as f64 / w.timed_updates().len() as f64,
        live,
    )
}

/// The single adaptive engine with `force_reoptimize()` called at
/// [`REOPT_CALLS`] evenly spaced batches; returns each call's µs.
fn reopt_probe(
    w: &Workload,
    reference: &Reference,
    tracer: &mut Tracer,
    r: &mut Report,
) -> Vec<f64> {
    let mut exec = Exec::build(w, Executor::Single, w.config.clone());
    let setup_batches = w.setup / w.batch;
    let every = (w.timed_updates().len() / w.batch / REOPT_CALLS).max(1);
    let mut tally = Tally::default();
    run_probe(
        w,
        reference,
        Executor::Single,
        &mut exec,
        tracer,
        "reopt.run_batch",
        &mut tally,
        |e, bi, t| {
            if (bi - setup_batches + 1).is_multiple_of(every) {
                if let Exec::Single(e) = e {
                    t.span("adapt.force_reoptimize", bi, || e.force_reoptimize());
                }
            }
        },
    );
    r.absorb(tally);
    if let (true, Some(e)) = (w.check_invariants, exec.single()) {
        for v in e.check_structural_invariants() {
            r.violations
                .push(format!("invariant after forced re-optimization: {v}"));
        }
    }
    tracer.durations_us("adapt.force_reoptimize")
}
