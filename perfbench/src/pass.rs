//! One pass over a workload's stream: build the executor, run the set-up
//! prefix, then time every batch of the rest, checking each batch's
//! deltas against the reference digests.

use std::time::Instant;

use acq::engine::{AdaptiveJoinEngine, CacheState};

use crate::alloc;
use crate::exec::Exec;
use crate::gate::{Digest, Reference};
use crate::host;
use crate::trace::Tracer;
use crate::workload::{Executor, Workload};

/// Errors kept per pass; the rest are only counted.
const MAX_ERRORS: usize = 8;

pub struct Pass {
    pub exec: Exec,
    pub setup_s: f64,
    /// Wall time of each timed batch's engine call, in microseconds.
    pub latencies_us: Vec<f64>,
    /// Wall time of the whole timed loop, the benchmark's own work included.
    pub loop_ns: u64,
    /// Peak live heap during the timed phase, above the live heap before
    /// the executor was built.
    pub heap_peak_bytes: i64,
    /// Allocations during the timed phase.
    pub allocs: u64,
    pub runqueue_wait_ns: u64,
    pub tally: Tally,
    /// Pipelines hosting a used cache just before the first burst batch.
    pub pre_burst_pipelines: Option<Vec<u16>>,
    /// (update index, used caches) at each change of the used-cache set;
    /// recorded only on traced passes.
    pub plan_log: Vec<(usize, Vec<String>)>,
}

/// Batches handed to an executor, those that failed, and why.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Count one batch: it fails on an error from the executor or when its
    /// deltas differ from the reference (in order too, if `ordered`).
    pub fn check(
        &mut self,
        batch: usize,
        result: Result<(), String>,
        got: Digest,
        want: &Digest,
        ordered: bool,
    ) {
        self.attempted += 1;
        let error = match result {
            Err(e) => Some(format!("batch {batch}: {e}")),
            Ok(()) if !got.same_rows(want) || (ordered && got.ordered != want.ordered) => Some(
                format!("batch {batch}: delta digest {got:?} != reference {want:?}"),
            ),
            Ok(()) => None,
        };
        if let Some(e) = error {
            self.failed += 1;
            if self.errors.len() < MAX_ERRORS {
                self.errors.push(e);
            }
        }
    }
}

impl Pass {
    pub fn engine(&self) -> &AdaptiveJoinEngine {
        self.exec.single().expect("a pass drives the single engine")
    }
}

/// Pipelines (by stream relation) that host a used cache.
pub fn cached_pipelines(engine: &AdaptiveJoinEngine) -> Vec<u16> {
    let mut p: Vec<u16> = engine
        .candidate_states()
        .into_iter()
        .filter(|(_, s)| *s == CacheState::Used)
        .map(|(c, _)| c.pipeline.0)
        .collect();
    p.sort_unstable();
    p.dedup();
    p
}

/// Polls the used-cache set after batches that re-optimized, demoted or
/// reordered (nothing else changes it).
#[derive(Default)]
pub struct PlanWatch {
    last_counts: (u64, u64, u64),
    last: Vec<String>,
    log: Vec<(usize, Vec<String>)>,
}

impl PlanWatch {
    fn poll(&mut self, engine: &AdaptiveJoinEngine, at: usize) {
        let c = engine.counters();
        let counts = (c.reoptimizations, c.demotions, c.reorderings);
        if counts == self.last_counts && at > 0 {
            return;
        }
        self.last_counts = counts;
        let used = engine.used_caches();
        if used != self.last {
            self.log.push((at, used.clone()));
            self.last = used;
        }
    }
}

/// Build the single engine and feed it the set-up prefix, checking every
/// batch. Returns the engine, its set-up time (construction plus the
/// engine calls, not the benchmark's checks) and the batch tally.
pub fn set_up(
    w: &Workload,
    reference: &Reference,
    mut watch: Option<&mut PlanWatch>,
) -> (Exec, f64, Tally) {
    let t = Instant::now();
    let mut exec = Exec::build(w, Executor::Single, w.config.clone());
    let mut setup_ns = t.elapsed().as_nanos() as u64;
    let mut tally = Tally::default();
    let mut out = Vec::new();
    for (bi, batch) in w.setup_updates().chunks(w.batch).enumerate() {
        let t = Instant::now();
        let r = exec.run_batch(batch, &mut out);
        setup_ns += t.elapsed().as_nanos() as u64;
        let failed = r.is_err();
        let mut d = Digest::default();
        d.extend(&out);
        out.clear();
        tally.check(bi, r, d, &reference.batches[bi], false);
        if failed {
            break;
        }
        if let (Some(watch), Some(e)) = (watch.as_deref_mut(), exec.single()) {
            watch.poll(e, (bi + 1) * w.batch);
        }
    }
    (exec, setup_ns as f64 / 1e9, tally)
}

/// One pass of the workload's own executor, the single adaptive engine,
/// with spans recorded into `tracer` if given.
pub fn run(w: &Workload, reference: &Reference, mut tracer: Option<&mut Tracer>) -> Pass {
    let heap_base = alloc::live();
    let mut watch = tracer.is_some().then(PlanWatch::default);
    let (exec, setup_s, tally) = set_up(w, reference, watch.as_mut());
    let mut p = Pass {
        exec,
        setup_s,
        latencies_us: Vec::with_capacity(w.timed_updates().len() / w.batch),
        loop_ns: 0,
        heap_peak_bytes: 0,
        allocs: 0,
        runqueue_wait_ns: 0,
        tally,
        pre_burst_pipelines: None,
        plan_log: Vec::new(),
    };
    if p.tally.failed > 0 {
        p.plan_log = watch.map(|w| w.log).unwrap_or_default();
        return p;
    }
    let mut out = Vec::new();
    let setup_batches = w.setup / w.batch;

    alloc::reset_peak();
    let allocs0 = alloc::allocs();
    let wait0 = host::runqueue_wait_ns();
    let loop_start = Instant::now();
    for (k, batch) in w.timed_updates().chunks(w.batch).enumerate() {
        let bi = setup_batches + k;
        let start = bi * w.batch;
        if let Some(at) = w.burst_at {
            if p.pre_burst_pipelines.is_none() && start + w.batch > at {
                p.pre_burst_pipelines = Some(cached_pipelines(p.engine()));
            }
        }
        let span = open(&mut tracer, "batch", bi);
        let engine_span = open(&mut tracer, "engine.run_batch", bi);
        let t = Instant::now();
        let r = p.exec.run_batch(batch, &mut out);
        let dt = t.elapsed().as_nanos() as u64;
        close(&mut tracer, engine_span);
        let digest_span = open(&mut tracer, "gate.digest", bi);
        let mut d = Digest::default();
        d.extend(&out);
        out.clear();
        close(&mut tracer, digest_span);
        let failed = r.is_err();
        p.tally.check(bi, r, d, &reference.batches[bi], false);
        if let Some(watch) = watch.as_mut() {
            let watch_span = open(&mut tracer, "adapt.plan_watch", bi);
            watch.poll(p.engine(), start + batch.len());
            close(&mut tracer, watch_span);
        }
        close(&mut tracer, span);
        if failed {
            // A failed executor may be left inconsistent: stop the pass.
            break;
        }
        p.latencies_us.push(dt as f64 / 1e3);
    }
    p.loop_ns = loop_start.elapsed().as_nanos() as u64;
    p.runqueue_wait_ns = host::runqueue_wait_ns().saturating_sub(wait0);
    p.allocs = alloc::allocs() - allocs0;
    p.heap_peak_bytes = alloc::peak() - heap_base;
    p.plan_log = watch.map(|w| w.log).unwrap_or_default();
    p
}

fn open(tracer: &mut Option<&mut Tracer>, name: &'static str, batch: usize) -> Option<u32> {
    tracer.as_deref_mut().map(|t| t.open(name, batch))
}

fn close(tracer: &mut Option<&mut Tracer>, id: Option<u32>) {
    if let (Some(t), Some(id)) = (tracer.as_deref_mut(), id) {
        t.close(id);
    }
}
