//! Persistent sharded worker runtime: spawn-free batches over std channels.
//!
//! The sharded executor once paid a `std::thread::scope` spawn + join for
//! every batch. This module keeps **long-lived worker threads** instead,
//! one per shard, each owning its [`AdaptiveJoinEngine`] behind an
//! uncontended mutex:
//!
//! * The caller routes a batch and feeds each worker through its own
//!   `std::sync::mpsc` **job channel** of index runs into the caller's
//!   batch slice. Routing is chunked (`ROUTE_CHUNK`), so shard *i* starts
//!   probing while the router is still classifying the tail of the batch.
//! * Workers stream delta runs back through one shared **result channel**
//!   whose messages carry the shard index; the caller merges them into
//!   per-update groups *incrementally* — while routing is still in
//!   progress and while other workers are still running — instead of
//!   joining all workers at a barrier.
//! * Both sides wait the same way (`recv_backoff`): spin, yield a few
//!   times, then block in `recv`. A blocked worker costs nothing between
//!   batches.
//! * A panicking worker **poisons only its shard**: the panic is caught,
//!   the shard's last telemetry snapshot is captured into a typed
//!   [`ShardPanic`], and the remaining shards drain cleanly; the batch then
//!   fails with the typed error instead of aborting the process.
//! * Workers exit when the runtime drops their job senders. A worker that
//!   exits any other way (by unwinding past its job firewall) poisons its
//!   shard and sends `Died` from a drop guard. The runtime holds no result
//!   sender, so its blocking receive can never wait on a dead worker.
//!
//! # Safety protocol (borrowed batches)
//!
//! Jobs reference the caller's `&[Update]` batch by raw pointer
//! (`BatchPtr`) so nothing is cloned onto the data plane. The protocol
//! that keeps this sound: `ShardRuntime::run_batch` does not return —
//! normally or by unwind — until every lane has acknowledged the batch's
//! `Flush` fence with a `Done` message (channels are FIFO: `Done` implies
//! every preceding `Run` job was consumed) or reported `Died` (a dead
//! worker never receives again). Engines are only ever touched by their
//! worker thread or, for inline batches and control access, by the caller
//! through the same mutex while no batch is in flight.

use crate::engine::AdaptiveJoinEngine;
use acq_stream::{Composite, Op, Update};
use acq_telemetry::TelemetrySnapshot;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvError, Sender, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Staged routed indices per shard before a run job is flushed to the
/// worker: the double-buffering grain of the router→worker pipeline.
const ROUTE_CHUNK: usize = 256;

/// Worker emits a result run after this many buffered delta groups (or
/// earlier, whenever its job queue goes empty).
const EMIT_RUN: usize = 64;

/// Empty polls spent spinning, then yielding, before a receive blocks.
const SPINS: u32 = 64;
const YIELDS: u32 = 8;

/// One update's delta group.
type Group = Vec<(Op, Composite)>;

/// A run of delta groups tagged with their global batch indices, ascending.
type RunBuf = Vec<(u32, Group)>;

/// Raw pointer to the caller's batch slice, sent to workers inside jobs.
///
/// Validity is guaranteed by the batch fence protocol (module docs): the
/// pointee outlives every job that can still be received.
#[derive(Clone, Copy)]
struct BatchPtr(*const Update);

// SAFETY: see the module-level safety protocol — the pointee slice is
// pinned by the caller for the whole fence window, and `Update` is `Sync`.
unsafe impl Send for BatchPtr {}

enum Job {
    /// Process `base[gi]` for each `gi` in `indices` (ascending).
    Run { base: BatchPtr, indices: Vec<u32> },
    /// Batch fence: emit buffered results, then acknowledge with
    /// `ResultMsg::Done(epoch)`.
    Flush(u64),
    /// Test-only: panic inside the worker to exercise shard poisoning.
    #[cfg(any(test, feature = "fault-injection"))]
    Panic,
}

enum ResultMsg {
    /// A run of processed delta groups (ascending batch indices).
    Run(RunBuf),
    /// All jobs up to the batch's `Flush` fence have been processed.
    Done(u64),
    /// The worker is exiting unexpectedly; its shard is poisoned.
    Died,
}

/// Where one update goes, as decided by the caller's router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dispatch {
    /// Exactly this shard.
    Shard(usize),
    /// Every shard.
    All,
}

/// A worker panic that poisoned one shard.
///
/// Returned by the `try_*` processing methods of
/// [`ShardedEngine`](crate::shard::ShardedEngine): the panic payload is
/// captured as a message, together with the poisoned shard's last
/// obtainable telemetry snapshot. Other shards remain healthy and
/// drainable (their engines, counters, and telemetry stay accessible), but
/// further batch processing is refused because the poisoned shard's state
/// is lost.
pub struct ShardPanic {
    /// Index of the shard whose worker panicked.
    pub shard: usize,
    /// Rendered panic payload.
    pub message: String,
    /// Telemetry captured from the poisoned shard right after the panic
    /// (empty if the engine was too damaged to snapshot).
    pub telemetry: TelemetrySnapshot,
}

impl fmt::Debug for ShardPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardPanic")
            .field("shard", &self.shard)
            .field("message", &self.message)
            .finish_non_exhaustive()
    }
}

impl fmt::Display for ShardPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard {} worker panicked: {}", self.shard, self.message)
    }
}

impl std::error::Error for ShardPanic {}

/// What a worker records about its own death.
struct WorkerFailure {
    message: String,
    telemetry: TelemetrySnapshot,
}

/// Shared per-shard state: the engine and what both sides observe.
struct Slot {
    engine: Mutex<AdaptiveJoinEngine>,
    /// Set when the worker panicked or died; the shard's state is lost.
    failure: Mutex<Option<WorkerFailure>>,
    /// Jobs sent to the worker minus jobs it has taken. A gauge and the
    /// worker's emit hint; it publishes no data, so `Relaxed` suffices.
    queued: AtomicUsize,
    /// Times the worker fell through to a blocking receive (idle).
    parks: AtomicU64,
    /// Run jobs the worker processed.
    runs: AtomicU64,
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Caller-side handle to one worker's job channel and per-batch staging.
struct Lane {
    jobs: Sender<Job>,
    /// Routed batch indices not yet flushed to the worker.
    staging: Vec<u32>,
    /// The current batch's `Done` has been received (or the worker died).
    done: bool,
}

/// The persistent worker pool behind a sharded engine: engines, channels,
/// and threads. With a single shard no threads are spawned and every batch
/// runs inline on the caller.
pub(crate) struct ShardRuntime {
    slots: Vec<Arc<Slot>>,
    /// One per shard when threaded; empty when running inline-only.
    lanes: Vec<Lane>,
    /// Results from every worker, tagged with the shard index.
    results: Receiver<(usize, ResultMsg)>,
    handles: Vec<JoinHandle<()>>,
    epoch: u64,
    /// Results taken / merge passes while waiting on a fence (the
    /// `merge.lag` gauge).
    lag_sum: u64,
    lag_samples: u64,
}

impl fmt::Debug for ShardRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardRuntime")
            .field("shards", &self.slots.len())
            .field("threaded", &self.is_threaded())
            .field("poisoned", &self.poisoned_shards())
            .finish()
    }
}

impl ShardRuntime {
    /// Build the runtime, moving the engines into per-shard slots. Worker
    /// threads are spawned only for `engines.len() > 1`.
    pub(crate) fn new(engines: Vec<AdaptiveJoinEngine>) -> ShardRuntime {
        let threaded = engines.len() > 1;
        let (result_tx, results) = mpsc::channel();
        let slots: Vec<Arc<Slot>> = engines
            .into_iter()
            .map(|engine| {
                Arc::new(Slot {
                    engine: Mutex::new(engine),
                    failure: Mutex::new(None),
                    queued: AtomicUsize::new(0),
                    parks: AtomicU64::new(0),
                    runs: AtomicU64::new(0),
                })
            })
            .collect();
        let mut lanes = Vec::new();
        let mut handles = Vec::new();
        for (i, slot) in slots.iter().enumerate().filter(|_| threaded) {
            let (jobs, inbox) = mpsc::channel();
            let guard = DeathGuard {
                shard: i,
                slot: Arc::clone(slot),
                results: result_tx.clone(),
            };
            let handle = std::thread::Builder::new()
                .name(format!("acq-shard-{i}"))
                .spawn(move || worker_loop(guard, inbox))
                .expect("spawn shard worker");
            handles.push(handle);
            lanes.push(Lane {
                jobs,
                staging: Vec::with_capacity(ROUTE_CHUNK),
                done: true,
            });
        }
        // `result_tx` drops here: only workers hold result senders.
        ShardRuntime {
            slots,
            lanes,
            results,
            handles,
            epoch: 0,
            lag_sum: 0,
            lag_samples: 0,
        }
    }

    pub(crate) fn num_shards(&self) -> usize {
        self.slots.len()
    }

    /// Whether persistent worker threads exist (more than one shard).
    pub(crate) fn is_threaded(&self) -> bool {
        !self.lanes.is_empty()
    }

    /// Lock shard `i`'s engine for caller-side access. Sound whenever no
    /// batch is in flight, which `&self`/`&mut self` exclusivity on the
    /// owning engine guarantees between calls.
    pub(crate) fn engine(&self, i: usize) -> MutexGuard<'_, AdaptiveJoinEngine> {
        lock_ignore_poison(&self.slots[i].engine)
    }

    /// Indices of shards whose workers panicked or died.
    pub(crate) fn poisoned_shards(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| lock_ignore_poison(&s.failure).is_some())
            .map(|(i, _)| i)
            .collect()
    }

    /// The typed failure of the first poisoned shard, if any.
    pub(crate) fn first_failure(&self) -> Option<ShardPanic> {
        self.slots.iter().enumerate().find_map(|(i, s)| {
            let failure = lock_ignore_poison(&s.failure);
            let f = failure.as_ref()?;
            Some(ShardPanic {
                shard: i,
                message: f.message.clone(),
                telemetry: f.telemetry.clone(),
            })
        })
    }

    /// Jobs sent to shard `i`'s worker and not yet taken (0 when not
    /// threaded).
    pub(crate) fn queue_depth(&self, i: usize) -> usize {
        self.slots[i].queued.load(Ordering::Relaxed)
    }

    /// `(parks, run jobs processed)` counters of shard `i`'s worker.
    pub(crate) fn park_stats(&self, i: usize) -> (u64, u64) {
        (
            self.slots[i].parks.load(Ordering::Relaxed),
            self.slots[i].runs.load(Ordering::Relaxed),
        )
    }

    /// Mean results taken per merge pass while waiting on a fence.
    pub(crate) fn merge_lag(&self) -> f64 {
        if self.lag_samples == 0 {
            0.0
        } else {
            self.lag_sum as f64 / self.lag_samples as f64
        }
    }

    /// Test-only: make shard `i`'s worker panic on its next job, poisoning
    /// the shard. Requires a threaded runtime.
    #[cfg(any(test, feature = "fault-injection"))]
    pub(crate) fn inject_panic(&mut self, i: usize) {
        self.send(i, Job::Panic);
    }

    /// Run one batch through the persistent workers: route every update
    /// with `route`, pipeline index runs into the job channels, and stream
    /// result runs back into `out[gi]` as they arrive. Returns once every
    /// lane has fenced the batch; `Err` if any shard is (or becomes)
    /// poisoned.
    ///
    /// `out` must hold one (possibly pre-filled) group per update.
    pub(crate) fn run_batch(
        &mut self,
        updates: &[Update],
        route: impl FnMut(&Update) -> Dispatch,
        out: &mut [Group],
    ) -> Result<(), ShardPanic> {
        debug_assert!(self.is_threaded());
        debug_assert_eq!(updates.len(), out.len());
        self.epoch += 1;
        for lane in &mut self.lanes {
            lane.done = false;
        }
        // Feed + fence + drain, with a panic firewall: even if something in
        // the feed path unwinds, the fence/drain below still runs before
        // the borrowed batch goes out of scope (see module safety notes).
        let feed = catch_unwind(AssertUnwindSafe(|| self.feed(updates, route, out)));
        let drain = self.finish(BatchPtr(updates.as_ptr()), out);
        match feed {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => drain,
        }
    }

    fn feed(
        &mut self,
        updates: &[Update],
        mut route: impl FnMut(&Update) -> Dispatch,
        out: &mut [Group],
    ) {
        let base = BatchPtr(updates.as_ptr());
        for (gi, u) in updates.iter().enumerate() {
            match route(u) {
                Dispatch::Shard(s) => self.stage(s, gi as u32, base, out),
                Dispatch::All => {
                    for s in 0..self.lanes.len() {
                        self.stage(s, gi as u32, base, out);
                    }
                }
            }
        }
    }

    /// Stage one routed index; send a run job when the chunk fills.
    fn stage(&mut self, shard: usize, gi: u32, base: BatchPtr, out: &mut [Group]) {
        self.lanes[shard].staging.push(gi);
        if self.lanes[shard].staging.len() >= ROUTE_CHUNK {
            self.flush_shard(shard, base);
            // Keep the merge streaming while routing continues.
            self.drain(out);
        }
    }

    /// Send shard `shard`'s staged indices as one run job.
    fn flush_shard(&mut self, shard: usize, base: BatchPtr) {
        if self.lanes[shard].staging.is_empty() {
            return;
        }
        let indices = std::mem::replace(
            &mut self.lanes[shard].staging,
            Vec::with_capacity(ROUTE_CHUNK),
        );
        self.send(shard, Job::Run { base, indices });
    }

    /// Send one job. A job to a dead worker is dropped (its batch indices
    /// produce no output; the worker's `Died` ends the wait for its lane).
    fn send(&self, shard: usize, job: Job) {
        let queued = &self.slots[shard].queued;
        // Counted before the send, so the worker's decrement never runs first.
        queued.fetch_add(1, Ordering::Relaxed);
        if self.lanes[shard].jobs.send(job).is_err() {
            queued.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Fence every lane, then merge results until all lanes are done.
    fn finish(&mut self, base: BatchPtr, out: &mut [Group]) -> Result<(), ShardPanic> {
        for s in 0..self.lanes.len() {
            self.flush_shard(s, base);
            self.send(s, Job::Flush(self.epoch));
        }
        while self.lanes.iter().any(|l| !l.done) {
            // Every worker holds a result sender until it exits and reports
            // `Died` first, so this only fails once every worker is gone.
            let Ok(msg) = recv_backoff(&self.results, || {}) else {
                break;
            };
            self.take(msg, out);
            let taken = 1 + self.drain(out);
            self.lag_sum += taken as u64;
            self.lag_samples += 1;
        }
        match self.first_failure() {
            Some(f) => Err(f),
            None => Ok(()),
        }
    }

    /// Take every result already waiting; returns how many.
    fn drain(&mut self, out: &mut [Group]) -> usize {
        let mut taken = 0;
        while let Ok(msg) = self.results.try_recv() {
            self.take(msg, out);
            taken += 1;
        }
        taken
    }

    /// Place one result: delta groups into `out`, fence acknowledgements
    /// and deaths into the lane's state.
    fn take(&mut self, (shard, msg): (usize, ResultMsg), out: &mut [Group]) {
        match msg {
            ResultMsg::Run(mut groups) => {
                for (gi, group) in &mut groups {
                    let dst = &mut out[*gi as usize];
                    if dst.is_empty() {
                        // Routed updates have a single source shard: steal
                        // the buffer outright.
                        std::mem::swap(dst, group);
                    } else {
                        dst.append(group);
                    }
                }
            }
            ResultMsg::Done(epoch) => {
                if epoch == self.epoch {
                    self.lanes[shard].done = true;
                }
            }
            ResultMsg::Died => self.lanes[shard].done = true,
        }
    }
}

impl Drop for ShardRuntime {
    fn drop(&mut self) {
        // Dropping the job senders ends every worker's receive loop.
        self.lanes.clear();
        for h in self.handles.drain(..) {
            // A worker that unwound already poisoned its shard; there is
            // nothing useful to propagate from a drop.
            let _ = h.join();
        }
    }
}

/// Receive from `rx`: poll it while spinning, then while yielding (which
/// matters on small machines where the other side shares our core), then
/// block, calling `on_park` first. `Err` once every sender is gone.
fn recv_backoff<T>(rx: &Receiver<T>, on_park: impl FnOnce()) -> Result<T, RecvError> {
    for poll in 0..SPINS + YIELDS {
        match rx.try_recv() {
            Ok(v) => return Ok(v),
            Err(TryRecvError::Disconnected) => return Err(RecvError),
            Err(TryRecvError::Empty) if poll < SPINS => std::hint::spin_loop(),
            Err(TryRecvError::Empty) => std::thread::yield_now(),
        }
    }
    on_park();
    rx.recv()
}

// ---------------------------------------------------------------------
// Worker side

/// A worker's identity and result sender. If the worker unwinds past its
/// job firewall, dropping the guard poisons the shard and reports `Died`,
/// so the caller's fence never waits on a corpse.
struct DeathGuard {
    shard: usize,
    slot: Arc<Slot>,
    results: Sender<(usize, ResultMsg)>,
}

impl DeathGuard {
    fn send(&self, msg: ResultMsg) {
        // The caller only drops its receiver after our job sender.
        let _ = self.results.send((self.shard, msg));
    }
}

impl Drop for DeathGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            lock_ignore_poison(&self.slot.failure).get_or_insert_with(|| WorkerFailure {
                message: "worker thread terminated unexpectedly".to_string(),
                telemetry: TelemetrySnapshot::new(),
            });
            self.send(ResultMsg::Died);
        }
    }
}

fn worker_loop(guard: DeathGuard, inbox: Receiver<Job>) {
    let slot = &*guard.slot;
    let mut cur: RunBuf = Vec::with_capacity(EMIT_RUN);
    // After a caught panic the worker sinks run jobs so fences stay live.
    let mut poisoned = false;
    let park = || {
        slot.parks.fetch_add(1, Ordering::Relaxed);
    };
    while let Ok(job) = recv_backoff(&inbox, park) {
        slot.queued.fetch_sub(1, Ordering::Relaxed);
        match job {
            Job::Run { base, indices } => {
                slot.runs.fetch_add(1, Ordering::Relaxed);
                if poisoned {
                    continue;
                }
                let run = catch_unwind(AssertUnwindSafe(|| {
                    let mut engine = lock_ignore_poison(&slot.engine);
                    for &gi in &indices {
                        // SAFETY: `base` points at the caller's pinned
                        // batch; the fence protocol keeps it alive until
                        // after our `Done` for this batch.
                        let u = unsafe { &*base.0.add(gi as usize) };
                        cur.push((gi, engine.process(u)));
                    }
                }));
                if let Err(payload) = run {
                    cur.clear();
                    poison(slot, payload);
                    poisoned = true;
                } else if cur.len() >= EMIT_RUN || slot.queued.load(Ordering::Relaxed) == 0 {
                    emit(&guard, &mut cur);
                }
            }
            Job::Flush(epoch) => {
                emit(&guard, &mut cur);
                guard.send(ResultMsg::Done(epoch));
            }
            #[cfg(any(test, feature = "fault-injection"))]
            Job::Panic => {
                if let Err(payload) = catch_unwind(|| -> () { panic!("injected worker panic") }) {
                    cur.clear();
                    poison(slot, payload);
                    poisoned = true;
                }
            }
        }
    }
}

/// Send the worker's buffered run, if any.
fn emit(guard: &DeathGuard, cur: &mut RunBuf) {
    if !cur.is_empty() {
        let run = std::mem::replace(cur, Vec::with_capacity(EMIT_RUN));
        guard.send(ResultMsg::Run(run));
    }
}

/// Record a caught worker panic, poisoning the shard.
fn poison(slot: &Slot, payload: Box<dyn std::any::Any + Send>) {
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    // The engine is memory-safe but logically suspect after a panic;
    // snapshotting is best-effort.
    let telemetry = catch_unwind(AssertUnwindSafe(|| {
        lock_ignore_poison(&slot.engine).telemetry_snapshot()
    }))
    .unwrap_or_else(|_| TelemetrySnapshot::new());
    *lock_ignore_poison(&slot.failure) = Some(WorkerFailure { message, telemetry });
}
