//! Baseline `M`: the plain MJoin of §3.1 — one pipeline per update stream,
//! no intermediate subresults — which is the A-Caching engine with caching
//! off ([`config_m`]).
//!
//! The pinned runs record the final virtual time, the number of result
//! deltas and an order-sensitive hash of the delta stream on one chain and
//! one star stream. They were recorded with the standalone MJoin executor
//! this engine mode replaced. Every figure's `M` series is a rate over this
//! virtual time, so any extra charge on the plain path (profiling, Bloom
//! feeds, re-optimization) moves these numbers.

use acq::engine::AdaptiveJoinEngine;
use acq_bench::plans::config_m;
use acq_gen::column::ColumnGen;
use acq_gen::spec::{chain3_default, StreamSpec, Workload};
use acq_mjoin::plan::PlanOrders;
use acq_stream::{Op, QuerySchema, RelId, TupleData, Update};
use acq_telemetry::{MetricValue, TelemetrySnapshot};

fn engine_m(query: QuerySchema) -> AdaptiveJoinEngine {
    let orders = PlanOrders::identity(&query);
    AdaptiveJoinEngine::with_config(query, orders, config_m())
}

/// `(virtual ns, deltas, FNV-1a hash over each delta's kind and parts)`.
fn run_m(query: QuerySchema, updates: &[Update]) -> (u64, u64, u64) {
    let mut m = engine_m(query);
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    let mut deltas = 0u64;
    for u in updates {
        for (op, c) in m.process(u) {
            word(matches!(op, Op::Insert) as u64);
            for t in c.parts() {
                word(((t.rel.0 as u64) << 48) | t.id);
            }
            deltas += 1;
        }
    }
    (m.core().now_ns(), deltas, hash)
}

#[test]
fn chain3_baseline_matches_pinned_run() {
    let updates = chain3_default(5, 100, 7).generate(8_000);
    let got = run_m(QuerySchema::chain3(), &updates);
    assert_eq!(got, (17_571_335_750, 10_929, 0xe5f6_01fb_a3ae_15d4));
}

#[test]
fn star4_baseline_matches_pinned_run() {
    let streams = (0..4u16)
        .map(|r| {
            let join_col = ColumnGen::BlockRandom {
                domain: 200,
                repeat: if r < 2 { 1 } else { 5 },
                salt: 0xA5A5_0000 + r as u64,
            };
            StreamSpec::new(r, 1.0, 200, vec![join_col, ColumnGen::seq()])
        })
        .collect();
    let updates = Workload::new(streams, 9).generate(8_000);
    let got = run_m(QuerySchema::star(4), &updates);
    assert_eq!(got, (825_843_500, 20_935, 0x7982_d894_a3ae_c5dd));
}

fn upd(rel: u16, op: Op, vals: &[i64], ts: u64) -> Update {
    Update {
        op,
        rel: RelId(rel),
        data: TupleData::ints(vals),
        ts,
    }
}

fn counter(s: &TelemetrySnapshot, name: &str, labels: &[(&str, &str)]) -> u64 {
    match s.get(name, labels) {
        Some(MetricValue::Counter(v)) => *v,
        other => panic!("{name} {labels:?} is not a counter: {other:?}"),
    }
}

/// `(op.tuples_in, op.tuples_out, op.cost_ns)` of one operator.
fn op_stats(m: &AdaptiveJoinEngine, pipeline: &str, op: &str) -> [u64; 3] {
    let s = m.telemetry_snapshot();
    let labels = [("pipeline", pipeline), ("op", op)];
    ["op.tuples_in", "op.tuples_out", "op.cost_ns"].map(|name| counter(&s, name, &labels))
}

#[test]
fn example_3_1_end_to_end() {
    let mut m = engine_m(QuerySchema::chain3());
    for (rel, vals) in [
        (0u16, vec![0i64]),
        (0, vec![2]),
        (1, vec![1, 2]),
        (1, vec![1, 3]),
        (1, vec![3, 4]),
        (2, vec![2]),
        (2, vec![6]),
    ] {
        let out = m.process(&upd(rel, Op::Insert, &vals, 0));
        assert!(out.is_empty(), "no complete join results yet");
    }
    let out = m.process(&upd(0, Op::Insert, &[1], 1));
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].0, Op::Insert);
    assert_eq!(m.counters().outputs_emitted, 1);
    assert_eq!(m.counters().tuples_processed, 8);
    assert!(m.processing_rate() > 0.0);
}

#[test]
fn deletes_produce_negative_deltas() {
    let mut m = engine_m(QuerySchema::chain3());
    m.process(&upd(0, Op::Insert, &[1], 0));
    m.process(&upd(1, Op::Insert, &[1, 2], 1));
    let out = m.process(&upd(2, Op::Insert, &[2], 2));
    assert_eq!(out.len(), 1);
    // Deleting the S tuple removes the single result.
    let out = m.process(&upd(1, Op::Delete, &[1, 2], 3));
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].0, Op::Delete);
    // Another T insertion now finds no S to join through.
    let out = m.process(&upd(2, Op::Insert, &[2], 4));
    assert!(out.is_empty(), "S is gone, no results");
}

#[test]
fn op_stats_accumulate_in_telemetry() {
    let mut m = engine_m(QuerySchema::chain3());
    m.process(&upd(1, Op::Insert, &[1, 2], 0));
    m.process(&upd(1, Op::Insert, &[1, 3], 0));
    m.process(&upd(0, Op::Insert, &[1], 1));
    let [tuples_in, tuples_out, cost_ns] = op_stats(&m, "0", "0");
    assert_eq!(tuples_in, 1, "one update entered the pipeline");
    assert_eq!(tuples_out, 2, "fanout 2 into S");
    assert!(cost_ns > 0);
    let [tuples_in, tuples_out, _] = op_stats(&m, "0", "1");
    assert_eq!(tuples_in, 2);
    assert_eq!(tuples_out, 0, "T empty");
}

#[test]
fn set_orders_resets_op_stats_and_counts_a_reordering() {
    let q = QuerySchema::chain3();
    let mut m = engine_m(q.clone());
    m.process(&upd(1, Op::Insert, &[1, 2], 0));
    m.process(&upd(0, Op::Insert, &[1], 1));
    assert!(op_stats(&m, "0", "0")[0] > 0);
    assert_eq!(m.counters().reorderings, 0);

    let mut orders = PlanOrders::identity(&q);
    orders.pipelines[0].order = vec![RelId(2), RelId(1)];
    m.set_orders(orders);
    assert_eq!(op_stats(&m, "0", "0"), [0, 0, 0]);
    assert_eq!(m.counters().reorderings, 1);
    assert_eq!(m.orders().pipeline(RelId(0)).order[0], RelId(2));
    let s = m.telemetry_snapshot();
    assert_eq!(counter(&s, "engine.reorderings", &[]), 1);
    assert_eq!(s.events_of_kind("plan.reordered").count(), 1);

    // Still correct after the reorder.
    m.process(&upd(2, Op::Insert, &[2], 2));
    let out = m.process(&upd(0, Op::Insert, &[1], 3));
    assert_eq!(out.len(), 1);
}

#[test]
fn baseline_estimates_nothing() {
    // With caching off no estimate is ever read, so the engine counts no
    // stream rates, rolls no statistics epochs and profiles no tuple: over
    // a stream spanning many epochs every profiler gauge stays at zero.
    let updates = chain3_default(5, 100, 7).generate(8_000);
    let mut m = engine_m(QuerySchema::chain3());
    for u in &updates {
        m.process(u);
    }
    let s = m.telemetry_snapshot();
    for pipeline in ["0", "1", "2"] {
        assert_eq!(
            s.get("profiler.rate", &[("pipeline", pipeline)]),
            Some(&MetricValue::Gauge(0.0)),
            "pipeline {pipeline} counted a rate"
        );
    }
    assert_eq!(
        s.get("profiler.warm", &[]),
        Some(&MetricValue::Ratio { num: 0.0, den: 3.0 })
    );
    assert!(s.events().is_empty(), "{:?}", s.events());
}
