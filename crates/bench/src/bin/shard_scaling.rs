//! Shard scaling — parallel speedup of the sharded A-Caching executor.
//!
//! The Figure 9 star workload (§7.2: n-way star equijoin, join-attribute
//! multiplicity 1 for half the streams and 5 for the rest) processed by
//! [`ShardedEngine`] at 1, 2, 4, and 8 shards versus a plain single
//! [`AdaptiveJoinEngine`].
//!
//! Two throughputs are reported side by side, and never mixed:
//!
//! * **Modeled** throughput is updates per second of the executor's elapsed
//!   clock on the virtual cost substrate (see `acq-mjoin::clock`). For the
//!   sharded executor the elapsed clock is the **parallel critical path** —
//!   the slowest shard's virtual time (`ClockAggregate::max_ns`) — since
//!   shards would run concurrently and the merge completes when the last
//!   one does. The modeled speedup `single-engine virtual time /
//!   critical-path virtual time` equals shard count divided by load
//!   imbalance, whatever the host.
//! * **Wall** throughput is updates per host wall-clock second, and the
//!   wall speedup is the single engine's wall time over the sharded
//!   run's. It is what the host actually delivered: shard counts above
//!   `available_parallelism` are oversubscribed and cannot speed up.
//!
//! Before measuring, the merged sharded output is checked bit-identical to
//! the single-engine output (both in canonical per-update group order) on a
//! prefix of the stream.

use acq::engine::{AdaptiveJoinEngine, EngineConfig, ReoptInterval, SelectionStrategy};
use acq::shard::{canonicalize_group, ShardConfig, ShardedEngine};
use acq_bench::report::{write_csv, write_snapshot, Table};
use acq_gen::column::ColumnGen;
use acq_gen::spec::{StreamSpec, Workload};
use acq_mjoin::oracle::canonical_rows;
use acq_mjoin::plan::PlanOrders;
use acq_stream::{Op, QuerySchema, Update};
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Updates per ingestion batch: large enough to amortize the per-batch
/// thread fan-out, small enough to bound delta buffering.
const CHUNK: usize = 8192;

fn fig9_star_workload(n: usize, window: usize, total: usize) -> (QuerySchema, Vec<Update>) {
    let q = QuerySchema::star(n);
    let streams: Vec<StreamSpec> = (0..n as u16)
        .map(|r| {
            let mult = if (r as usize) < n / 2 { 1 } else { 5 };
            let join_col = ColumnGen::BlockRandom {
                domain: window as u64,
                repeat: mult,
                salt: 0xA5A5_0000 + r as u64,
            };
            StreamSpec::new(r, 1.0, window, vec![join_col, ColumnGen::seq()])
        })
        .collect();
    (q, Workload::new(streams, 0x5CA1E).generate(total))
}

fn config() -> EngineConfig {
    EngineConfig {
        selection: SelectionStrategy::Auto,
        reopt_interval: ReoptInterval::VirtualNs(2_000_000_000),
        ..Default::default()
    }
}

/// Order-sensitive fingerprint of a canonicalized delta group.
fn fold_group(h: &mut std::collections::hash_map::DefaultHasher, group: &[(Op, acq_stream::Composite)], n: usize) {
    for (op, c) in group {
        h.write_i64(op.sign());
        canonical_rows(c, n).hash(h);
    }
}

/// Assert the sharded merge reproduces the single-engine delta stream
/// bit-for-bit (canonical group order on both sides) over a stream prefix.
fn check_bit_identical(q: &QuerySchema, updates: &[Update], shards: usize) {
    let n = q.num_relations();
    let mut single = AdaptiveJoinEngine::with_config(q.clone(), PlanOrders::identity(q), config());
    let mut sharded = ShardedEngine::with_config(
        q.clone(),
        PlanOrders::identity(q),
        config(),
        ShardConfig {
            num_shards: shards,
            partition_class: None,
        },
    );
    let mut hs = std::collections::hash_map::DefaultHasher::new();
    let mut hp = std::collections::hash_map::DefaultHasher::new();
    let mut count_s = 0u64;
    let mut count_p = 0u64;
    for u in updates {
        let mut group = single.process(u);
        canonicalize_group(&mut group, n);
        count_s += group.len() as u64;
        fold_group(&mut hs, &group, n);
    }
    for chunk in updates.chunks(CHUNK) {
        for group in sharded.process_batch_grouped(chunk) {
            count_p += group.len() as u64;
            fold_group(&mut hp, &group, n);
        }
    }
    assert_eq!(count_s, count_p, "delta counts diverged at {shards} shards");
    assert_eq!(
        hs.finish(),
        hp.finish(),
        "delta fingerprints diverged at {shards} shards"
    );
    println!(
        "output check: {count_s} deltas bit-identical at {shards} shards over {} updates",
        updates.len()
    );
}

struct Measured {
    /// Elapsed executor clock: single-engine virtual time, or the parallel
    /// critical path (slowest shard) for the sharded engine.
    elapsed_secs: f64,
    /// Total virtual work performed across all shards.
    total_virtual_secs: f64,
    /// Host wall-clock seconds (reference only; machine-dependent).
    host_wall_secs: f64,
    /// Updates per elapsed virtual second.
    rate: f64,
    imbalance: f64,
    /// End-of-run telemetry: the engine's snapshot, or the canonical
    /// cross-shard merge for the sharded executor.
    snapshot: acq::TelemetrySnapshot,
}

fn run_single(q: &QuerySchema, updates: &[Update]) -> Measured {
    let mut e = AdaptiveJoinEngine::with_config(q.clone(), PlanOrders::identity(q), config());
    let t0 = Instant::now();
    let mut emitted = 0usize;
    let mut out = Vec::new();
    for u in updates {
        e.process_into(u, &mut out);
        emitted += out.len();
        out.clear();
    }
    let wall = t0.elapsed().as_secs_f64();
    std::hint::black_box(emitted);
    let vsecs = e.core().now_ns() as f64 / 1e9;
    Measured {
        elapsed_secs: vsecs,
        total_virtual_secs: vsecs,
        host_wall_secs: wall,
        rate: updates.len() as f64 / vsecs,
        imbalance: 1.0,
        snapshot: e.telemetry_snapshot(),
    }
}

fn run_sharded(q: &QuerySchema, updates: &[Update], shards: usize) -> Measured {
    let mut e = ShardedEngine::with_config(
        q.clone(),
        PlanOrders::identity(q),
        config(),
        ShardConfig {
            num_shards: shards,
            partition_class: None,
        },
    );
    let t0 = Instant::now();
    let mut emitted = 0usize;
    for chunk in updates.chunks(CHUNK) {
        emitted += e.process_batch(chunk).len();
    }
    let wall = t0.elapsed().as_secs_f64();
    std::hint::black_box(emitted);
    let agg = e.clock_aggregate();
    Measured {
        elapsed_secs: agg.critical_path_secs(),
        total_virtual_secs: agg.total_secs(),
        host_wall_secs: wall,
        rate: updates.len() as f64 / agg.critical_path_secs(),
        imbalance: agg.imbalance(),
        snapshot: e.telemetry_snapshot(),
    }
}

fn main() {
    let n = 5usize;
    let window = 60usize;
    let total = 250_000usize;
    let shard_counts = [1usize, 2, 4, 8];

    let (q, updates) = fig9_star_workload(n, window, total);
    println!(
        "workload: {n}-way star, window {window}, {} updates",
        updates.len()
    );
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!("host: available_parallelism {cores}; more shards than that are oversubscribed");

    // Determinism/equality gate before any timing.
    check_bit_identical(&q, &updates[..updates.len().min(60_000)], 4);

    let base = run_single(&q, &updates);
    let base_wall_rate = updates.len() as f64 / base.host_wall_secs;
    println!(
        "single engine: {:.2} elapsed virtual s → {:.0} modeled t/s; \
         {:.2} host wall s → {base_wall_rate:.0} wall t/s",
        base.elapsed_secs, base.rate, base.host_wall_secs
    );

    let mut elapsed = Vec::new();
    let mut total_work = Vec::new();
    let mut wall = Vec::new();
    let mut rates = Vec::new();
    let mut speedups = Vec::new();
    let mut wall_rates = Vec::new();
    let mut wall_speedups = Vec::new();
    let mut imbalances = Vec::new();
    for &s in &shard_counts {
        let m = run_sharded(&q, &updates, s);
        let speedup = m.rate / base.rate;
        let wall_rate = updates.len() as f64 / m.host_wall_secs;
        let wall_speedup = base.host_wall_secs / m.host_wall_secs;
        // Cross-shard merged telemetry for the headline 4-shard point; the
        // single-engine snapshot rides along for counter comparison (the
        // star query routes every update, so counter totals must match).
        if s == 4 {
            if let Some(p) = write_snapshot(&m.snapshot, "shard_scaling_4shard") {
                eprintln!("wrote {}", p.display());
            }
            if let Some(p) = write_snapshot(&base.snapshot, "shard_scaling_single") {
                eprintln!("wrote {}", p.display());
            }
        }
        let oversubscribed = if s > cores { " [oversubscribed]" } else { "" };
        println!(
            "{s} shards{oversubscribed}: critical path {:.2} virtual s, total work {:.2} \
             virtual s → {:.0} modeled t/s ({speedup:.2}x modeled, imbalance {:.2}); \
             {:.2} host wall s → {wall_rate:.0} wall t/s ({wall_speedup:.2}x wall)",
            m.elapsed_secs, m.total_virtual_secs, m.rate, m.imbalance, m.host_wall_secs
        );
        elapsed.push(m.elapsed_secs);
        total_work.push(m.total_virtual_secs);
        wall.push(m.host_wall_secs);
        rates.push(m.rate);
        speedups.push(speedup);
        wall_rates.push(wall_rate);
        wall_speedups.push(wall_speedup);
        imbalances.push(m.imbalance);
    }

    let four = shard_counts.iter().position(|&s| s == 4).unwrap();
    if speedups[four] >= 2.0 {
        println!("PASS: 4-shard modeled speedup {:.2}x >= 2x", speedups[four]);
    } else {
        eprintln!(
            "WARN: 4-shard modeled speedup {:.2}x < 2x target",
            speedups[four]
        );
    }

    let mut t = Table::new(
        "Shard scaling: modeled (virtual critical path) and wall-clock throughput",
        "shards",
        shard_counts.iter().map(|&s| s as f64).collect(),
    );
    t.push_series("critical path (virtual s)", elapsed);
    t.push_series("total work (virtual s)", total_work);
    t.push_series("host wall secs", wall);
    t.push_series("modeled throughput (virtual t/s)", rates);
    t.push_series("modeled speedup (virtual critical path)", speedups);
    t.push_series("wall throughput (t/s)", wall_rates);
    t.push_series("wall speedup vs single", wall_speedups);
    t.push_series("imbalance (max/mean)", imbalances);
    print!("{}", t.render());
    if let Some(p) = write_csv(&t, "shard_scaling") {
        eprintln!("wrote {}", p.display());
    }
}
