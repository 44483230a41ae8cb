//! Golden behaviour: fixed-seed runs of the A-Caching engine whose
//! virtual-time charges, profiler samples, plan decisions and delta stream
//! are pinned exactly.
//!
//! The executor's inner data layout (how intermediate tuples are held
//! while a pipeline runs) may change for speed, but the engine must still
//! charge, sample and emit exactly as before: the same final virtual time,
//! the same counters, the same per-operator statistics, the same sequence
//! of used-cache sets and the same deltas in the same order with the same
//! part order. The Re-optimizer's decisions are pinned through its event
//! trace (every score, selection run, memory grant and cache transition)
//! and the store and memory metrics they leave behind. Any drift in these
//! values is a behaviour change. Two delta hashes tell apart the kinds of
//! drift: `delta_hash` pins the exact emission order, `canonical_hash`
//! only each update's multiset of deltas, so a change that reorders deltas
//! within an update moves the first and must leave the second alone.

use acq::engine::{AdaptiveJoinEngine, EngineConfig, ReoptInterval, SelectionStrategy};
use acq::EnumerationConfig;
use acq_gen::column::ColumnGen;
use acq_gen::spec::{chain3_default, Burst, StreamSpec, Workload};
use acq_mjoin::plan::{PipelineOrder, PlanOrders};
use acq_stream::{Op, QuerySchema, RelId, Update};
use acq_telemetry::{FieldValue, MetricValue, TelemetrySnapshot};

/// Everything the golden runs pin.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    virtual_ns: u64,
    /// tuples processed, outputs, cache hits, cache misses,
    /// re-optimizations, demotions, reorderings, `probe.resolved_direct`.
    counters: [u64; 8],
    /// `(op.tuples_in, op.tuples_out, op.cost_ns)` per pipeline, per
    /// operator position.
    ops: Vec<[u64; 3]>,
    /// The distinct used-cache sets in the order the engine adopted them.
    plans: Vec<String>,
    /// Order-sensitive FNV-1a hash over every delta: its kind, then each
    /// part's `(relation, tuple id)` in part order.
    delta_hash: u64,
    /// Order-insensitive hash over each update's deltas: the multiset of
    /// `(kind, parts' (relation, tuple id) in part order)`, sorted, so it
    /// pins what every update emits but not the order it emits it in.
    canonical_hash: u64,
    deltas: u64,
    /// Order-sensitive hash over the snapshot's event trace: each event's
    /// virtual time, kind, subject and every field with its value.
    event_hash: u64,
    /// `(events retained, events dropped)`.
    events: [u64; 2],
    /// Each metric of [`STORE_METRICS`], summed over its groups.
    store_totals: [u64; 13],
    /// Order-sensitive hash over every `memory.*` and `store.*` metric:
    /// its name, labels and value, in snapshot order.
    store_hash: u64,
}

/// The `memory.*` and `store.*` metrics whose totals are pinned.
const STORE_METRICS: [&str; 13] = [
    "memory.cache_bytes",
    "memory.granted_bytes",
    "memory.granted_total",
    "store.memory_bytes",
    "store.buckets",
    "store.entries",
    "store.hits",
    "store.misses",
    "store.creates",
    "store.collisions",
    "store.maintenance_applied",
    "store.maintenance_ignored",
    "store.bloom_filtered",
];

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// A length-prefixed string, so adjacent strings cannot run together.
    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn event_hash(s: &TelemetrySnapshot) -> u64 {
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    for e in s.events() {
        h.word(e.at_ns);
        h.str(e.kind);
        h.str(&e.subject);
        h.word(e.fields.len() as u64);
        for (key, value) in &e.fields {
            h.str(key);
            match value {
                FieldValue::U64(v) => {
                    h.word(0);
                    h.word(*v);
                }
                FieldValue::F64(v) => {
                    h.word(1);
                    h.word(v.to_bits());
                }
                FieldValue::Str(v) => {
                    h.word(2);
                    h.str(v);
                }
                FieldValue::Bool(v) => {
                    h.word(3);
                    h.word(*v as u64);
                }
            }
        }
    }
    h.0
}

/// `(totals per STORE_METRICS entry, hash over every memory.*/store.* metric)`.
fn store_metrics(s: &TelemetrySnapshot) -> ([u64; 13], u64) {
    let mut totals = [0u64; 13];
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    for m in s.metrics() {
        if !(m.name.starts_with("memory.") || m.name.starts_with("store.")) {
            continue;
        }
        let v = match m.value {
            MetricValue::Counter(v) => v,
            MetricValue::Gauge(v) => {
                assert_eq!(v.fract(), 0.0, "{} is a whole number", m.name);
                v as u64
            }
            ref other => panic!("{} is not a counter or gauge: {other:?}", m.name),
        };
        h.str(&m.name);
        for (k, l) in &m.labels {
            h.str(k);
            h.str(l);
        }
        h.word(v);
        if let Some(i) = STORE_METRICS.iter().position(|&n| n == m.name) {
            totals[i] += v;
        }
    }
    (totals, h.0)
}

fn observe(mut engine: AdaptiveJoinEngine, updates: &[Update]) -> Observed {
    let mut plans: Vec<String> = Vec::new();
    let mut hash = Fnv(0xCBF2_9CE4_8422_2325);
    let mut canonical = Fnv(0xCBF2_9CE4_8422_2325);
    let mut deltas = 0u64;
    let mut out = Vec::new();
    let mut update_deltas: Vec<Vec<u64>> = Vec::new();
    for u in updates {
        out.clear();
        engine.process_into(u, &mut out);
        update_deltas.clear();
        for (op, c) in &out {
            let mut words = vec![matches!(op, Op::Insert) as u64];
            words.extend(c.parts().map(|t| ((t.rel.0 as u64) << 48) | t.id));
            for &w in &words {
                hash.word(w);
            }
            update_deltas.push(words);
            deltas += 1;
        }
        update_deltas.sort_unstable();
        canonical.word(update_deltas.len() as u64);
        for words in &update_deltas {
            canonical.word(words.len() as u64);
            for &w in words {
                canonical.word(w);
            }
        }
        let used = engine.used_caches().join(" ");
        if plans.last() != Some(&used) {
            plans.push(used);
        }
    }
    let s = engine.telemetry_snapshot();
    let counter = |name: &str, labels: &[(&str, &str)]| match s.get(name, labels) {
        Some(MetricValue::Counter(v)) => *v,
        other => panic!("{name} {labels:?} is not a counter: {other:?}"),
    };
    let c = engine.counters();
    let mut ops = Vec::new();
    for (pi, p) in engine.orders().pipelines.iter().enumerate() {
        for j in 0..p.order.len() {
            let (pl, jl) = (pi.to_string(), j.to_string());
            let labels = [("pipeline", pl.as_str()), ("op", jl.as_str())];
            ops.push([
                counter("op.tuples_in", &labels),
                counter("op.tuples_out", &labels),
                counter("op.cost_ns", &labels),
            ]);
        }
    }
    let (store_totals, store_hash) = store_metrics(&s);
    Observed {
        virtual_ns: counter("engine.virtual_ns", &[]),
        counters: [
            c.tuples_processed,
            c.outputs_emitted,
            c.cache_hits,
            c.cache_misses,
            c.reoptimizations,
            c.demotions,
            c.reorderings,
            counter("probe.resolved_direct", &[]),
        ],
        ops,
        plans,
        delta_hash: hash.0,
        canonical_hash: canonical.0,
        deltas,
        event_hash: event_hash(&s),
        events: [s.events().len() as u64, s.events_dropped()],
        store_totals,
        store_hash,
    }
}

/// §7.2 default chain, adaptive plain caches, identity orders.
fn chain3_run() -> Observed {
    let q = QuerySchema::chain3();
    let engine = AdaptiveJoinEngine::with_config(
        q.clone(),
        PlanOrders::identity(&q),
        EngineConfig::default(),
    );
    let updates = chain3_default(5, 100, 7).generate(40_000);
    observe(engine, &updates)
}

/// Figure 12: cyclic domains, ∆T at 5×, ∆R ×20 after 20,000 arrivals,
/// globally-consistent candidates, re-optimization every 10,000 updates.
fn fig12_run() -> Observed {
    const DOMAIN: u64 = 100;
    let cyc = |mult| ColumnGen::Seq {
        multiplicity: mult,
        stride: 1,
        offset: 0,
        domain: DOMAIN,
    };
    let updates = Workload::new(
        vec![
            StreamSpec::new(0, 1.0, DOMAIN as usize, vec![cyc(1)]),
            StreamSpec::new(1, 1.0, DOMAIN as usize, vec![cyc(1), cyc(1)]),
            StreamSpec::new(2, 5.0, (DOMAIN * 5) as usize, vec![cyc(5)]),
        ],
        12,
    )
    .with_burst(Burst {
        rel: RelId(0),
        start_after_elements: 20_000,
        end_after_elements: u64::MAX,
        factor: 20.0,
    })
    .generate(60_000);
    let p = |s: u16, order: [u16; 2]| PipelineOrder {
        stream: RelId(s),
        order: order.map(RelId).to_vec(),
    };
    let orders = PlanOrders::new(vec![p(0, [1, 2]), p(1, [0, 2]), p(2, [1, 0])]);
    let config = EngineConfig {
        reopt_interval: ReoptInterval::Tuples(10_000),
        selection: SelectionStrategy::Exhaustive,
        enumeration: EnumerationConfig {
            enable_global: true,
            max_candidates: 6,
        },
        ..Default::default()
    };
    let engine = AdaptiveJoinEngine::with_config(QuerySchema::chain3(), orders, config);
    observe(engine, &updates)
}

/// Figure 9's four-way star (multiplicities 1, 1, 5, 5): three operators
/// per pipeline, so caches can end before the last one and cache-hit
/// results continue through a further probe.
fn star4_run() -> Observed {
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
    let updates = Workload::new(streams, 9).generate(40_000);
    let q = QuerySchema::star(4);
    let engine = AdaptiveJoinEngine::with_config(
        q.clone(),
        PlanOrders::identity(&q),
        EngineConfig::default(),
    );
    observe(engine, &updates)
}

/// Figure 9's nine-way star (multiplicity 1 on the first four streams, 5
/// on the other five): results are nine parts wide, past a composite's
/// inline capacity of seven, so intermediate tuples wider than any other
/// golden's and spilled composites are both pinned.
fn star9_run() -> Observed {
    const N: u16 = 9;
    const WINDOW: usize = 50;
    let streams = (0..N)
        .map(|r| {
            let join_col = ColumnGen::BlockRandom {
                domain: WINDOW as u64,
                repeat: if r < N / 2 { 1 } else { 5 },
                salt: 0xA5A5_0000 + r as u64,
            };
            StreamSpec::new(r, 1.0, WINDOW, vec![join_col, ColumnGen::seq()])
        })
        .collect();
    let updates = Workload::new(streams, 0xF196).generate(20_000);
    let q = QuerySchema::star(N as usize);
    let engine = AdaptiveJoinEngine::with_config(
        q.clone(),
        PlanOrders::identity(&q),
        EngineConfig::default(),
    );
    observe(engine, &updates)
}

fn plans(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

#[test]
fn chain3_matches_golden() {
    let expected = Observed {
        virtual_ns: 25_355_386_650,
        counters: [79_300, 56_645, 41_582, 6_700, 2, 0, 0, 1_520_455],
        ops: vec![
            [11_330, 5_615, 118_615_000],
            [5_615, 28_075, 235_830_000],
            [11_330, 5_715, 119_315_000],
            [5_715, 0, 40_005_000],
            [8_358, 811_050, 4_055_250_000],
            [811_050, 980, 9_127_742_500],
        ],
        plans: plans(&["", "C[∆R2: R0⋈R1 @0..1]"]),
        delta_hash: 8_751_838_108_590_015_211,
        canonical_hash: 4_672_583_554_023_789_670,
        deltas: 56_645,
        event_hash: 18_434_680_007_837_037_184,
        events: [16, 0],
        store_totals: [
            144_104, 77_824, 77_824, 144_104, 1_024, 1_020, 41_582, 6_700, 6_700, 5_680, 4_367,
            6_669, 5_118,
        ],
        store_hash: 6_038_549_395_519_706_300,
    };
    assert_eq!(chain3_run(), expected);
}

#[test]
fn fig12_burst_matches_golden() {
    let expected = Observed {
        virtual_ns: 4_764_014_900,
        counters: [119_300, 421_652, 61_912, 4_855, 5, 0, 0, 275_508],
        ops: vec![
            [20_499, 20_399, 286_286_000],
            [20_399, 101_995, 856_758_000],
            [8_694, 8_694, 121_716_000],
            [8_694, 42_970, 361_648_000],
            [23_340, 23_340, 326_760_000],
            [23_340, 23_340, 326_760_000],
        ],
        plans: plans(&["", "C[∆R2: R0⋈R1 @0..1]", "C[∆R0: R1⋈R2⋉ @0..1]"]),
        // ∆T keeps five live copies of each value and a delete removes the
        // oldest, so this hash pins which copy each delete's deltas carry.
        delta_hash: 4_851_702_711_706_913_072,
        canonical_hash: 6_855_438_160_298_959_376,
        deltas: 421_652,
        event_hash: 10_767_857_418_437_885_155,
        events: [35, 0],
        store_totals: [
            181_168, 593_920, 593_920, 181_168, 2_048, 98, 61_912, 4_855, 4_855, 4_661, 38_978,
            4_682, 267,
        ],
        store_hash: 5_768_237_321_305_907_011,
    };
    assert_eq!(fig12_run(), expected);
}

#[test]
fn star4_matches_golden() {
    let expected = Observed {
        virtual_ns: 3_722_757_850,
        counters: [79_200, 82_943, 16_933, 902, 1, 0, 0, 196_377],
        ops: vec![
            [19_800, 19_489, 275_023_000],
            [19_489, 19_081, 284_300_750],
            [19_081, 22_017, 320_711_500],
            [19_800, 19_488, 275_016_000],
            [19_488, 19_272, 285_774_000],
            [19_272, 21_475, 317_441_500],
            [10_883, 10_672, 150_885_000],
            [10_672, 10_378, 155_133_500],
            [19_067, 19_774, 301_548_000],
            [10_882, 10_471, 149_471_000],
            [10_471, 10_854, 157_415_500],
            [10_854, 11_265, 171_730_500],
        ],
        plans: plans(&["", "C[∆R2: R0⋈R1 @0..1] C[∆R3: R0⋈R1⋈R2 @0..2]"]),
        delta_hash: 5_646_940_436_405_515_006,
        canonical_hash: 7_461_138_820_702_309_611,
        deltas: 82_943,
        event_hash: 17_704_617_903_731_851_309,
        events: [6, 0],
        store_totals: [
            149_392, 233_472, 233_472, 149_392, 1_536, 336, 16_933, 902, 902, 566, 35_609, 13_976,
            398,
        ],
        store_hash: 11_969_812_686_321_286_171,
    };
    assert_eq!(star4_run(), expected);
}

#[test]
fn star9_matches_golden() {
    let expected = Observed {
        virtual_ns: 5_296_795_350,
        counters: [39_550, 15_000, 11_923, 1_994, 2, 4, 0, 269_695],
        ops: vec![
            [4_396, 4_433, 61_803_000],
            [4_433, 4_501, 65_913_750],
            [4_501, 4_930, 73_412_000],
            [4_930, 6_707, 96_549_750],
            [6_707, 7_120, 118_149_000],
            [7_120, 4_825, 101_708_750],
            [4_825, 8_875, 135_837_500],
            [8_875, 0, 62_125_000],
            [4_396, 4_416, 61_684_000],
            [4_416, 4_504, 65_818_000],
            [4_504, 4_833, 72_608_500],
            [4_833, 6_402, 93_049_500],
            [6_402, 5_168, 96_494_000],
            [5_168, 1_375, 50_957_250],
            [1_375, 0, 9_625_000],
            [0, 0, 0],
            [2_133, 2_156, 30_023_000],
            [2_156, 2_026, 30_793_500],
            [4_421, 4_663, 70_582_500],
            [4_663, 5_536, 83_849_000],
            [5_536, 3_410, 72_852_000],
            [3_410, 2_050, 45_907_500],
            [2_050, 2_500, 43_100_000],
            [2_500, 0, 17_500_000],
            [2_133, 2_146, 29_953_000],
            [2_146, 2_126, 31_498_500],
            [3_379, 3_618, 54_406_000],
            [4_822, 6_374, 92_713_500],
            [6_374, 3_775, 82_368_000],
            [3_775, 4_075, 70_231_250],
            [4_075, 9_000, 132_025_000],
            [9_000, 0, 63_000_000],
            [2_971, 3_049, 42_140_000],
            [3_049, 3_160, 45_833_000],
            [3_160, 3_260, 49_830_000],
            [3_260, 3_493, 55_130_250],
            [5_581, 4_372, 82_787_000],
            [4_372, 1_900, 51_029_000],
            [1_900, 2_500, 42_050_000],
            [2_500, 7_500, 109_375_000],
            [2_460, 2_459, 34_433_000],
            [2_459, 2_529, 36_812_750],
            [2_529, 2_314, 37_372_000],
            [3_340, 3_057, 51_657_250],
            [3_894, 4_473, 71_988_000],
            [4_473, 10_875, 148_217_250],
            [10_875, 6_750, 153_750_000],
            [6_750, 0, 47_250_000],
            [2_532, 2_467, 34_993_000],
            [2_467, 2_413, 35_969_750],
            [2_413, 2_474, 37_920_000],
            [2_474, 2_214, 37_797_500],
            [2_214, 2_600, 41_498_000],
            [2_600, 1_300, 32_175_000],
            [7_100, 1_500, 66_950_000],
            [1_500, 7_500, 102_375_000],
            [2_479, 2_429, 34_356_000],
            [2_429, 2_395, 35_564_250],
            [2_395, 2_828, 40_803_000],
            [2_828, 2_746, 45_196_500],
            [2_746, 5_275, 71_972_000],
            [5_275, 9_100, 134_750_000],
            [10_000, 17_125, 266_937_500],
            [17_125, 0, 119_875_000],
            [2_133, 2_131, 29_848_000],
            [2_131, 2_094, 31_145_500],
            [2_094, 1_573, 28_028_500],
            [1_573, 1_715, 26_874_750],
            [1_715, 2_533, 37_335_000],
            [2_533, 4_850, 69_868_500],
            [7_250, 0, 50_750_000],
            [0, 0, 0],
        ],
        plans: plans(&[
            "",
            "C[∆R2: R0⋈R1 @0..1] C[∆R3: R0⋈R1 @0..1] C[∆R4: R0⋈R1⋈R2⋈R3 @0..3] C[∆R5: R0⋈R1⋈R2⋈R3 @0..3] C[∆R6: R0⋈R1⋈R2⋈R3⋈R4⋈R5 @0..5] C[∆R7: R0⋈R1⋈R2⋈R3⋈R4⋈R5 @0..5] C[∆R8: R0⋈R1⋈R2⋈R3⋈R4⋈R5 @0..5]",
            "C[∆R2: R0⋈R1 @0..1] C[∆R3: R0⋈R1 @0..1] C[∆R4: R0⋈R1⋈R2⋈R3 @0..3] C[∆R5: R0⋈R1⋈R2⋈R3 @0..3] C[∆R7: R0⋈R1⋈R2⋈R3⋈R4⋈R5 @0..5] C[∆R8: R0⋈R1⋈R2⋈R3⋈R4⋈R5 @0..5]",
            "C[∆R2: R0⋈R1 @0..1] C[∆R3: R0⋈R1 @0..1] C[∆R4: R0⋈R1⋈R2⋈R3 @0..3] C[∆R5: R0⋈R1⋈R2⋈R3 @0..3] C[∆R8: R0⋈R1⋈R2⋈R3⋈R4⋈R5 @0..5]",
            "C[∆R2: R0⋈R1 @0..1] C[∆R3: R0⋈R1 @0..1] C[∆R4: R0⋈R1⋈R2⋈R3 @0..3] C[∆R8: R0⋈R1⋈R2⋈R3⋈R4⋈R5 @0..5]",
            "C[∆R2: R0⋈R1 @0..1] C[∆R3: R0⋈R1⋈R2 @0..2] C[∆R4: R0⋈R1⋈R2⋈R3 @0..3] C[∆R5: R0⋈R1⋈R2 @0..2] C[∆R6: R0⋈R1⋈R2⋈R3⋈R4⋈R5 @0..5] C[∆R7: R0⋈R1⋈R2⋈R3⋈R4⋈R5 @0..5] C[∆R8: R0⋈R1⋈R2⋈R3⋈R4⋈R5⋈R6 @0..6]",
            "C[∆R2: R0⋈R1 @0..1] C[∆R3: R0⋈R1⋈R2 @0..2] C[∆R5: R0⋈R1⋈R2 @0..2] C[∆R6: R0⋈R1⋈R2⋈R3⋈R4⋈R5 @0..5] C[∆R7: R0⋈R1⋈R2⋈R3⋈R4⋈R5 @0..5] C[∆R8: R0⋈R1⋈R2⋈R3⋈R4⋈R5⋈R6 @0..6]",
        ]),
        delta_hash: 2_171_657_565_076_945_541,
        canonical_hash: 9_532_118_516_306_847_613,
        deltas: 15_000,
        event_hash: 7_511_211_891_338_390_589,
        events: [78, 0],
        store_totals: [
            44_864, 57_344, 57_344, 44_864, 448, 144, 11_923, 1_994, 1_994, 1_811, 48_544, 8_938,
            246,
        ],
        store_hash: 15_010_553_880_763_476_002,
    };
    assert_eq!(star9_run(), expected);
}
