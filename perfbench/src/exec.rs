//! The executors a workload runs through, behind one batch call that turns
//! panics and shard failures into errors.

use acq::engine::{AdaptiveJoinEngine, EngineConfig};
use acq::shard::{ShardConfig, ShardedEngine};
use acq_stream::{Composite, Op, Update};
use acq_telemetry::TelemetrySnapshot;
use std::panic::{catch_unwind, AssertUnwindSafe};
#[cfg(feature = "fault-injection")]
use std::sync::OnceLock;

use crate::workload::{Executor, Workload};

pub type Deltas = Vec<(Op, Composite)>;

/// A fault every executor built from now on carries: an `InjectedFault`
/// for the single engine, a worker panic on shard 0 for the sharded one.
#[cfg(feature = "fault-injection")]
static FAULT: OnceLock<acq::InjectedFault> = OnceLock::new();

/// Plant `skip-tap-inserts` or `skip-tap-deletes` in every executor.
#[cfg(feature = "fault-injection")]
pub fn plant_fault(name: &str) -> Result<(), String> {
    let fault = match name {
        "skip-tap-inserts" => acq::InjectedFault::SkipTapInserts,
        "skip-tap-deletes" => acq::InjectedFault::SkipTapDeletes,
        _ => return Err(format!("unknown fault {name:?}")),
    };
    FAULT
        .set(fault)
        .map_err(|_| "fault already planted".to_string())
}

pub enum Exec {
    // Boxed: the engine is a large flat struct.
    Single(Box<AdaptiveJoinEngine>),
    Sharded(Box<ShardedEngine>),
}

impl Exec {
    pub fn build(w: &Workload, executor: Executor, config: EngineConfig) -> Exec {
        let exec = match executor {
            Executor::Single => Exec::Single(Box::new(AdaptiveJoinEngine::with_config(
                w.query.clone(),
                w.orders.clone(),
                config,
            ))),
            Executor::Sharded(num_shards) => Exec::Sharded(Box::new(ShardedEngine::with_config(
                w.query.clone(),
                w.orders.clone(),
                config,
                ShardConfig {
                    num_shards,
                    partition_class: None,
                },
            ))),
        };
        #[cfg(feature = "fault-injection")]
        let exec = exec.with_planted_fault();
        exec
    }

    #[cfg(feature = "fault-injection")]
    fn with_planted_fault(mut self) -> Exec {
        match (&mut self, FAULT.get()) {
            (Exec::Single(e), Some(f)) => e.inject_fault(Some(*f)),
            (Exec::Sharded(e), Some(_)) if e.num_shards() > 1 => e.inject_worker_panic(0),
            _ => {}
        }
        self
    }

    /// Hand one batch to the engine; its deltas land in `out`, which must
    /// be empty. The single engine writes into the caller's buffer (its
    /// allocation-free path); the sharded engine returns a fresh vector.
    pub fn run_batch(&mut self, batch: &[Update], out: &mut Deltas) -> Result<(), String> {
        let result = catch_unwind(AssertUnwindSafe(|| match self {
            Exec::Single(e) => {
                for u in batch {
                    e.process_into(u, out);
                }
                Ok(())
            }
            Exec::Sharded(e) => e.try_process_batch(batch).map(|v| *out = v),
        }));
        match result {
            Ok(Ok(())) => Ok(()),
            Ok(Err(shard_panic)) => Err(format!("shard failure: {shard_panic}")),
            Err(payload) => Err(format!(
                "engine panicked: {}",
                payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("<non-string payload>")
            )),
        }
    }

    pub fn telemetry(&self) -> TelemetrySnapshot {
        match self {
            Exec::Single(e) => e.telemetry_snapshot(),
            Exec::Sharded(e) => e.telemetry_snapshot(),
        }
    }

    /// The engine, when this is the single-engine executor.
    pub fn single(&self) -> Option<&AdaptiveJoinEngine> {
        match self {
            Exec::Single(e) => Some(e),
            Exec::Sharded(_) => None,
        }
    }
}
