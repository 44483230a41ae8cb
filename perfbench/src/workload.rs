//! The benchmark's workloads: generated update streams plus the executor
//! each one runs through. See `BENCHMARK.md` for why each was chosen.

use acq::engine::{CacheMode, EngineConfig, ReoptInterval, SelectionStrategy};
use acq::EnumerationConfig;
use acq_gen::column::ColumnGen;
use acq_gen::spec::{chain3_default, Burst, StreamSpec, Workload as Spec};
use acq_mjoin::plan::{PipelineOrder, PlanOrders};
use acq_stream::{Op, QuerySchema, RelId, Update};

pub const NAMES: [&str; 3] = ["chain3", "burst-shift", "star4"];

/// An executor to run a workload's stream through. End-to-end runs use
/// the single engine; the traced run also measures the sharded one.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    Single,
    Sharded(usize),
}

pub struct Workload {
    pub name: &'static str,
    pub query: QuerySchema,
    pub orders: PlanOrders,
    pub config: EngineConfig,
    /// Updates per batch handed to the engine.
    pub batch: usize,
    /// Every update, set-up prefix first; a whole number of batches.
    pub updates: Vec<Update>,
    /// Length of the set-up prefix (windows fill, the plan settles).
    pub setup: usize,
    /// Index of the first update generated after the rate burst began.
    pub burst_at: Option<usize>,
    /// Whether the gate runs the executor's structural invariant checks
    /// on this workload. They recompute every cached entry from the base
    /// relations, so on star4's 20,000-tuple windows they would
    /// run for hours; its [`Workload::twin`] is checked instead.
    pub check_invariants: bool,
}

impl Workload {
    pub fn generate(name: &str, seed: u64) -> Option<Workload> {
        let w = match name {
            "chain3" => chain3(seed),
            "burst-shift" => burst_shift(seed),
            "star4" => star4(seed, 20_000, 900_000, 180_224),
            _ => return None,
        };
        assert!(w.setup % w.batch == 0 && w.updates.len() % w.batch == 0);
        Some(w)
    }

    /// A smaller copy of a workload whose invariants are too costly to
    /// check at full size: same query, executor and configuration, with
    /// windows small enough for the checks to take about a second.
    pub fn twin(name: &str, seed: u64) -> Option<Workload> {
        match name {
            "star4" => Some(star4(seed, 200, 150_000, 10_240)),
            _ => None,
        }
    }

    pub fn setup_updates(&self) -> &[Update] {
        &self.updates[..self.setup]
    }

    pub fn timed_updates(&self) -> &[Update] {
        &self.updates[self.setup..]
    }

    /// The same query, orders and configuration with caching switched off:
    /// a plain MJoin driven through the same engine.
    pub fn no_cache_config(&self) -> EngineConfig {
        EngineConfig {
            mode: CacheMode::None,
            ..self.config.clone()
        }
    }
}

/// A value offset drawn from the seed. The sequential and cyclic columns
/// below draw nothing from the generator's RNG, so shifting every join
/// column by the same offset is what makes their inputs depend on the seed
/// while keeping the join structure (and so the work per update) intact.
fn seed_offset(seed: u64) -> i64 {
    (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as i64
}

fn shift(spec: &mut Spec, by: i64) {
    for s in &mut spec.streams {
        for c in &mut s.columns {
            if let ColumnGen::Seq { offset, .. } = c {
                *offset += by;
            }
        }
    }
}

/// Truncate to whole batches.
fn whole_batches(mut updates: Vec<Update>, batch: usize) -> Vec<Update> {
    updates.truncate(updates.len() / batch * batch);
    updates
}

/// §7.2 default three-way chain `R(A) ⋈ S(A,B) ⋈ T(B)`, r = 5, windows of
/// 100 tuples, on one engine with 64-update batches. The stream is short
/// (~0.5M timed updates) because the caching-off reference replays all of
/// it at a third of the engine's speed.
fn chain3(seed: u64) -> Workload {
    const BATCH: usize = 64;
    let mut spec = chain3_default(5, 100, seed);
    shift(&mut spec, seed_offset(seed));
    let updates = whole_batches(spec.generate(300_000), BATCH);
    let q = QuerySchema::chain3();
    Workload {
        name: "chain3",
        orders: PlanOrders::identity(&q),
        query: q,
        config: EngineConfig::default(),
        batch: BATCH,
        updates,
        setup: 100_032,
        burst_at: None,
        check_invariants: true,
    }
}

/// Figure 12: the chain with cyclic domains, ∆T at 5×, and ∆R ×20 from
/// 5% into the timed phase onward. Starts from the plan that caches R⋈S
/// in ∆T's pipeline; the burst makes a cache in ∆R's pipeline the better
/// choice. The timed phase thus covers the re-plan and the new regime;
/// the old regime stays below the 10% of windows that the timing
/// statistics leave out, so they describe one regime, not a mix.
fn burst_shift(seed: u64) -> Workload {
    const BATCH: usize = 128;
    const DOMAIN: u64 = 100;
    const SETUP_ELEMENTS: u64 = 150_000;
    const TIMED_ELEMENTS: u64 = 1_000_000;
    let cyc = |mult| ColumnGen::Seq {
        multiplicity: mult,
        stride: 1,
        offset: 0,
        domain: DOMAIN,
    };
    let burst_elements = SETUP_ELEMENTS + TIMED_ELEMENTS / 20;
    let mut spec = Spec::new(
        vec![
            StreamSpec::new(0, 1.0, DOMAIN as usize, vec![cyc(1)]),
            StreamSpec::new(1, 1.0, DOMAIN as usize, vec![cyc(1), cyc(1)]),
            StreamSpec::new(2, 5.0, (DOMAIN * 5) as usize, vec![cyc(5)]),
        ],
        seed,
    )
    .with_burst(Burst {
        rel: RelId(0),
        start_after_elements: burst_elements,
        end_after_elements: u64::MAX,
        factor: 20.0,
    });
    shift(&mut spec, seed_offset(seed));
    let updates = whole_batches(
        spec.generate((SETUP_ELEMENTS + TIMED_ELEMENTS) as usize),
        BATCH,
    );
    // Each arrival is one insert (plus the delete it pushes out of its
    // window); the burst begins with arrival number `burst_elements`.
    let mut inserts = 0u64;
    let burst_at = updates.iter().position(|u| {
        inserts += (u.op == Op::Insert) as u64;
        inserts > burst_elements
    });
    let setup_target = updates
        .iter()
        .scan(0u64, |n, u| {
            *n += (u.op == Op::Insert) as u64;
            Some(*n)
        })
        .position(|n| n > SETUP_ELEMENTS)
        .expect("stream longer than its set-up prefix");
    let q = QuerySchema::chain3();
    Workload {
        name: "burst-shift",
        query: q,
        orders: orders_t_rs(),
        config: EngineConfig {
            reopt_interval: ReoptInterval::Tuples(10_000),
            selection: SelectionStrategy::Exhaustive,
            enumeration: EnumerationConfig {
                enable_global: true,
                max_candidates: 6,
                ..Default::default()
            },
            ..Default::default()
        },
        batch: BATCH,
        updates,
        setup: setup_target / BATCH * BATCH,
        burst_at,
        check_invariants: true,
    }
}

/// Orders that make the R⋈S segment cacheable in ∆T's pipeline (the
/// pre-burst optimum of Figure 12).
fn orders_t_rs() -> PlanOrders {
    let p = |s: u16, order: [u16; 2]| PipelineOrder {
        stream: RelId(s),
        order: order.map(RelId).to_vec(),
    };
    PlanOrders::new(vec![p(0, [1, 2]), p(1, [0, 2]), p(2, [1, 0])])
}

/// Figure 9's four-way star with join-value multiplicities 1, 1, 5, 5, on
/// one engine. The benchmark's windows hold 20,000 tuples; a set-up
/// prefix of 4 × 20,000 inserts fills them and 100k more updates settle
/// the plan. The plan keeps changing afterwards, about once per 40 batches
/// of 1024 updates; 128-update batches keep those re-optimization stalls
/// well under 1% of batches, so the batch-latency quantiles describe
/// ordinary batches rather than landing on the edge of the stalls.
fn star4(seed: u64, window: usize, elements: usize, setup: usize) -> Workload {
    const BATCH: usize = 128;
    const N: usize = 4;
    let salt = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let streams = (0..N as u16)
        .map(|r| {
            let repeat = if (r as usize) < N / 2 { 1 } else { 5 };
            let join_col = ColumnGen::BlockRandom {
                domain: window as u64,
                repeat,
                salt: salt ^ (0xA5A5_0000 + r as u64),
            };
            StreamSpec::new(r, 1.0, window, vec![join_col, ColumnGen::seq()])
        })
        .collect();
    let updates = whole_batches(Spec::new(streams, seed).generate(elements), BATCH);
    let q = QuerySchema::star(N);
    Workload {
        name: "star4",
        orders: PlanOrders::identity(&q),
        query: q,
        config: EngineConfig {
            selection: SelectionStrategy::Auto,
            reopt_interval: ReoptInterval::VirtualNs(2_000_000_000),
            ..Default::default()
        },
        batch: BATCH,
        updates,
        setup,
        burst_at: None,
        check_invariants: window <= 1_000,
    }
}
