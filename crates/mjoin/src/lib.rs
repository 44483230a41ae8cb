//! # acq-mjoin — MJoin execution core and baselines
//!
//! The execution substrate the paper's A-Caching algorithm runs on, plus
//! what the baseline plan families are built from. The plain MJoin
//! baseline `M` is not a separate executor: it is the A-Caching engine
//! (`acq::engine::AdaptiveJoinEngine`) with caching off
//! (`CacheMode::None`), so one pipeline walk serves every MJoin plan.
//!
//! * [`clock`] — the deterministic **virtual cost clock**. The paper reports
//!   wall-clock tuple-processing rates on the authors' testbed; we charge
//!   every physical operation (index probe, match retrieval, predicate
//!   evaluation, tuple concatenation, store maintenance, cache probe/update,
//!   Bloom insert) a calibrated number of virtual nanoseconds, making every
//!   experiment deterministic and machine-independent while preserving
//!   *relative* costs (see DESIGN.md, substitution 1).
//! * [`plan`] — pipeline orders and compiled join operators (`./_ij` of §3.1:
//!   each operator joins its input with one relation, enforcing all
//!   predicates against the relations already joined, via hash index when
//!   available).
//! * [`exec`] — [`exec::JoinCore`]: relation stores + query graph + clock;
//!   the single-operator row kernel [`exec::Meter::probe_row`] that the
//!   A-Caching engine drives directly and XJoin drives through
//!   [`exec::JoinCore::probe_join`].
//! * [`metrics`] — per-pipeline / per-operator execution metrics
//!   ([`metrics::OpStats`], [`metrics::PipelineMetrics`]) recorded by the
//!   A-Caching engine's pipeline walk, exportable into `acq-telemetry`
//!   snapshots.
//! * [`ordering`] — A-Greedy–style join ordering (reference \[5\] of the
//!   paper): static pipeline orders derived from [`stats::WorkloadStats`],
//!   the best-MJoin orders of the §7.3 plan spectrum.
//! * [`xjoin`] — the XJoin baseline (`X`): binary join trees with fully
//!   materialized intermediate subresults, plus exhaustive best-tree search.
//! * [`oracle`] — a naive full-recomputation oracle used by tests to verify
//!   that every executor produces exactly the correct output delta multiset.

#![warn(missing_docs)]

pub mod clock;
pub mod exec;
pub mod metrics;
pub mod oracle;
pub mod ordering;
pub mod plan;
pub mod stats;
pub mod xjoin;

pub use clock::{ClockAggregate, CostModel, VirtualClock};
pub use exec::JoinCore;
pub use metrics::{OpStats, PipelineMetrics};
pub use ordering::GreedyOrderer;
pub use plan::{CompiledOp, PipelineOrder, PlanOrders};
pub use stats::WorkloadStats;
pub use xjoin::{JoinTree, XJoin};
