//! End-to-end telemetry: the cross-shard snapshot merge must be associative
//! and shard-count-invariant for counter totals (star queries route every
//! update, so no shard count may change what was counted); snapshot cache
//! hit/miss counters must agree exactly with [`EngineCounters`] on the
//! Figure 6 forced-cache workload; and the Figure 12 adaptivity lifecycle
//! (candidate scored → added → hits accrued → retained/dropped) must appear
//! with virtual-time stamps identically in the 1-shard and 4-shard merged
//! snapshots.

use acq::engine::{
    AdaptiveJoinEngine, CacheMode, EngineConfig, ReoptInterval, SelectionStrategy,
};
use acq::shard::{ShardConfig, ShardedEngine};
use acq::{ProfilerConfig, TelemetrySnapshot};
use acq_mjoin::plan::{PipelineOrder, PlanOrders};
use acq_stream::{QuerySchema, RelId, TupleData, Update};
use acq_telemetry::MetricValue;
use proptest::prelude::*;
use std::collections::VecDeque;

/// Fast-adaptivity settings (same shape as the sharded-equivalence tests) so
/// profiling, re-optimization, and cache churn all happen within short
/// sequences.
fn fast_config() -> EngineConfig {
    EngineConfig {
        profiler: ProfilerConfig {
            w: 3,
            profile_every: 3,
            bloom_window: 16,
        },
        reopt_interval: ReoptInterval::Tuples(40),
        stats_epoch_ns: 1_000_000,
        ..Default::default()
    }
}

/// Deterministic star-query workload with count-window deletes: every
/// relation carries the partition attribute, so every update is routed (no
/// broadcast) and counter totals must not depend on the shard count.
fn star_workload(q: &QuerySchema, seed: u64, len: usize) -> Vec<Update> {
    let n = q.num_relations();
    let mut live: Vec<VecDeque<TupleData>> = vec![VecDeque::new(); n];
    let mut state = seed | 1;
    let mut next = || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut out = Vec::with_capacity(len);
    for ts in 0..len {
        let r = next();
        let rel = (r % n as u64) as u16;
        if r % 4 == 3 {
            if let Some(data) = live[rel as usize].pop_front() {
                out.push(Update::delete(RelId(rel), data, ts as u64));
                continue;
            }
        }
        let a = ((r >> 8) % 5) as i64;
        let p = ((r >> 16) % 7) as i64;
        let data = TupleData::ints(&[a, p]);
        live[rel as usize].push_back(data.clone());
        out.push(Update::insert(RelId(rel), data, ts as u64));
    }
    out
}

fn sharded(q: &QuerySchema, shards: usize) -> ShardedEngine {
    ShardedEngine::with_config(
        q.clone(),
        PlanOrders::identity(q),
        fast_config(),
        ShardConfig {
            num_shards: shards,
            partition_class: None,
        },
    )
}

/// Exact equality for the discrete merge algebra (counters, histograms),
/// tolerance for the float one (gauges, ratios), where different fold orders
/// legitimately reassociate `f64` additions.
fn assert_metrics_equivalent(a: &TelemetrySnapshot, b: &TelemetrySnapshot, what: &str) {
    assert_eq!(a.metrics().len(), b.metrics().len(), "{what}: metric counts");
    for m in a.metrics() {
        let labels: Vec<(&str, &str)> = m
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let other = b
            .get(&m.name, &labels)
            .unwrap_or_else(|| panic!("{what}: {} {:?} missing", m.name, m.labels));
        match (&m.value, other) {
            (MetricValue::Counter(x), MetricValue::Counter(y)) => {
                assert_eq!(x, y, "{what}: counter {}", m.name)
            }
            (
                MetricValue::Histogram { buckets, count, sum },
                MetricValue::Histogram {
                    buckets: b2,
                    count: c2,
                    sum: s2,
                },
            ) => {
                assert_eq!((buckets, count, sum), (b2, c2, s2), "{what}: hist {}", m.name)
            }
            (MetricValue::Gauge(x), MetricValue::Gauge(y)) => {
                assert!((x - y).abs() <= 1e-9 * x.abs().max(1.0), "{what}: gauge {}", m.name)
            }
            (
                MetricValue::Ratio { num, den },
                MetricValue::Ratio { num: n2, den: d2 },
            ) => {
                assert!(
                    (num - n2).abs() <= 1e-9 * num.abs().max(1.0)
                        && (den - d2).abs() <= 1e-9 * den.abs().max(1.0),
                    "{what}: ratio {}",
                    m.name
                );
            }
            (x, y) => panic!("{what}: {} changed kind: {x:?} vs {y:?}", m.name),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Counter totals from the canonical cross-shard merge are invariant in
    /// the shard count on a routed-only (star) workload, and the merge
    /// itself is associative: left fold, right fold, and `merged()` agree.
    #[test]
    fn merge_associative_and_shard_invariant(seed in 1u64..u64::MAX, len in 120usize..320) {
        let q = QuerySchema::star(3);
        let updates = star_workload(&q, seed, len);

        let mut totals = Vec::new();
        for shards in [1usize, 2, 4] {
            let mut e = sharded(&q, shards);
            e.process_batch(&updates);
            let snap = e.telemetry_snapshot();
            totals.push((
                shards,
                snap.counter_total("engine.tuples_processed"),
                snap.counter_total("engine.outputs_emitted"),
                snap.counter_total("routing.routed"),
            ));

            // Associativity on this engine's real per-shard parts.
            let parts: Vec<TelemetrySnapshot> = (0..shards)
                .map(|i| {
                    let mut p = e.with_shard(i, |s| s.telemetry_snapshot());
                    p.tag_events("shard", acq_telemetry::FieldValue::U64(i as u64));
                    p
                })
                .collect();
            let mut left = TelemetrySnapshot::new();
            for p in &parts {
                left.merge(p);
            }
            let mut right = TelemetrySnapshot::new();
            for p in parts.iter().rev() {
                let mut acc = p.clone();
                acc.merge(&right);
                right = acc;
            }
            let canonical = TelemetrySnapshot::merged(&parts);
            assert_metrics_equivalent(&left, &right, "left vs right fold");
            assert_metrics_equivalent(&left, &canonical, "left fold vs merged()");
            prop_assert_eq!(left.events().len(), right.events().len());
            prop_assert_eq!(left.events().len(), canonical.events().len());
        }

        let (_, t1, o1, r1) = totals[0];
        prop_assert_eq!(t1, updates.len() as u64);
        for &(shards, t, o, r) in &totals[1..] {
            prop_assert_eq!(t, t1, "tuples_processed diverged at {} shards", shards);
            prop_assert_eq!(o, o1, "outputs_emitted diverged at {} shards", shards);
            prop_assert_eq!(r, r1, "routing.routed diverged at {} shards", shards);
        }
    }
}

/// Figure 6 plan orders: `∆T` joins S then R, making the R⋈S segment
/// cacheable in `∆T`'s pipeline.
fn fig6_orders() -> PlanOrders {
    PlanOrders::new(vec![
        PipelineOrder {
            stream: RelId(0),
            order: vec![RelId(1), RelId(2)],
        },
        PipelineOrder {
            stream: RelId(1),
            order: vec![RelId(0), RelId(2)],
        },
        PipelineOrder {
            stream: RelId(2),
            order: vec![RelId(1), RelId(0)],
        },
    ])
}

/// A deterministic Figure 6-style chain3 workload: `rate(∆T) = 5×` the
/// others with each `T.B` value arriving five times in a row (hit
/// probability ≈ 0.8 for the R⋈S cache), count-window deletes keeping
/// windows bounded.
fn fig6_workload(total: usize) -> Vec<Update> {
    const WINDOW: usize = 40;
    let mut live: Vec<VecDeque<TupleData>> = vec![VecDeque::new(); 3];
    let mut out = Vec::new();
    let mut ts = 0u64;
    let push = |live: &mut Vec<VecDeque<TupleData>>,
                    out: &mut Vec<Update>,
                    ts: &mut u64,
                    rel: u16,
                    data: TupleData| {
        live[rel as usize].push_back(data.clone());
        out.push(Update::insert(RelId(rel), data, *ts));
        *ts += 1;
        if live[rel as usize].len() > WINDOW {
            let old = live[rel as usize].pop_front().unwrap();
            out.push(Update::delete(RelId(rel), old, *ts));
            *ts += 1;
        }
    };
    let mut i = 0i64;
    while out.len() < total {
        push(&mut live, &mut out, &mut ts, 0, TupleData::ints(&[i % 24]));
        push(
            &mut live,
            &mut out,
            &mut ts,
            1,
            TupleData::ints(&[i % 24, i % 17]),
        );
        let b = i % 17;
        for _ in 0..5 {
            push(&mut live, &mut out, &mut ts, 2, TupleData::ints(&[b]));
        }
        i += 1;
    }
    out.truncate(total);
    out
}

/// On the Figure 6 forced-cache workload, the snapshot's per-cache
/// `cache.hits` / `cache.misses` totals, the `engine.cache_hits` /
/// `engine.cache_misses` counters, and the store-level `store.hits` /
/// `store.misses` totals (accumulated across stats epochs) must all equal
/// [`EngineCounters`] exactly.
#[test]
fn fig6_snapshot_counts_match_engine_counters() {
    let q = QuerySchema::chain3();
    let updates = fig6_workload(6_000);
    let cfg = EngineConfig {
        mode: CacheMode::Forced(vec![(RelId(2), vec![RelId(0), RelId(1)])]),
        ..Default::default()
    };
    let mut e = AdaptiveJoinEngine::with_config(q, fig6_orders(), cfg);
    assert_eq!(e.used_caches().len(), 1, "forced cache must exist");
    for u in &updates {
        e.process(u);
    }
    let c = e.counters();
    assert!(c.cache_hits > 0, "workload must produce cache hits");
    assert!(c.cache_misses > 0, "workload must produce cache misses");

    let snap = e.telemetry_snapshot();
    assert_eq!(snap.counter_total("engine.cache_hits"), c.cache_hits);
    assert_eq!(snap.counter_total("engine.cache_misses"), c.cache_misses);
    // Per-candidate counters (labelled by cache name) cover every probe.
    assert_eq!(snap.counter_total("cache.hits"), c.cache_hits);
    assert_eq!(snap.counter_total("cache.misses"), c.cache_misses);
    // Store-level stats survive `reset_stats` epochs via the accumulator.
    assert_eq!(snap.counter_total("store.hits"), c.cache_hits);
    assert_eq!(snap.counter_total("store.misses"), c.cache_misses);
    assert_eq!(
        snap.counter_total("engine.tuples_processed"),
        updates.len() as u64
    );
}

/// Lifecycle stages observed for one cache subject in a snapshot.
#[derive(Debug, PartialEq)]
struct Lifecycle {
    scored: bool,
    added: bool,
    hits: u64,
    retained_or_dropped: bool,
}

fn lifecycle_of(snap: &TelemetrySnapshot, name: &str) -> Lifecycle {
    let has = |kind: &str| snap.events_of_kind(kind).any(|e| e.subject == name);
    Lifecycle {
        scored: has("cache.scored"),
        added: has("cache.added"),
        hits: match snap.get("cache.hits", &[("cache", name)]) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        },
        retained_or_dropped: has("cache.retained") || has("cache.dropped"),
    }
}

/// The Figure 12 acceptance trace: an adaptive run over the Figure 6-style
/// workload must show, for at least one cache, the full lifecycle —
/// candidate scored → added → hits accrued → retained or dropped — with
/// virtual-time stamps, and the same lifecycle must be visible in the
/// 1-shard and 4-shard merged snapshots.
#[test]
fn fig12_lifecycle_identical_across_shard_merge() {
    let q = QuerySchema::chain3();
    let updates = fig6_workload(14_000);
    let cfg = EngineConfig {
        profiler: ProfilerConfig {
            w: 3,
            profile_every: 3,
            bloom_window: 16,
        },
        reopt_interval: ReoptInterval::Tuples(200),
        selection: SelectionStrategy::Exhaustive,
        ..Default::default()
    };

    let mut snaps = Vec::new();
    for shards in [1usize, 4] {
        let mut e = ShardedEngine::with_config(
            q.clone(),
            fig6_orders(),
            cfg.clone(),
            ShardConfig {
                num_shards: shards,
                partition_class: None,
            },
        );
        for chunk in updates.chunks(1024) {
            e.process_batch(chunk);
        }
        let snap = e.telemetry_snapshot();

        // Virtual-time stamps: positive and nondecreasing after the merge.
        let events = snap.events();
        assert!(!events.is_empty(), "{shards} shards: no events");
        assert!(events.iter().all(|ev| ev.at_ns > 0));
        assert!(
            events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns),
            "{shards} shards: merged events out of virtual-time order"
        );
        snaps.push((shards, snap));
    }

    // A cache that completed the full lifecycle in the single-shard run …
    let (_, single) = &snaps[0];
    let full = |lc: &Lifecycle| lc.scored && lc.added && lc.hits > 0 && lc.retained_or_dropped;
    let subject = single
        .events_of_kind("cache.added")
        .map(|e| e.subject.clone())
        .find(|name| full(&lifecycle_of(single, name)))
        .expect("single-shard run must show a full cache lifecycle");

    // … must show the same lifecycle stages in the 4-shard merged snapshot.
    for (shards, snap) in &snaps {
        let lc = lifecycle_of(snap, &subject);
        assert!(
            full(&lc),
            "{shards} shards: lifecycle of {subject} incomplete: {lc:?}"
        );
        // Selection traces name the concrete solver that ran.
        assert!(
            snap.events_of_kind("selection.run")
                .all(|e| e.get("solver").is_some()),
            "{shards} shards: selection.run missing solver field"
        );
    }
}
