//! # acq-telemetry — zero-dependency telemetry substrate
//!
//! Observability primitives for the A-Caching workspace: a log-scale
//! [`Histogram`] that components record into on the hot path, a
//! structured event log stamped with **virtual time** (the engines'
//! deterministic cost clock, see `acq-mjoin::clock`), and a mergeable
//! [`TelemetrySnapshot`] with JSON and aligned-text renderers.
//!
//! Design constraints, in order:
//!
//! 1. **Zero dependencies.** The workspace builds offline; this crate
//!    uses only `std`.
//! 2. **Allocation-light hot path.** [`Histogram`] never allocates after
//!    construction, and components keep their counters as plain integers;
//!    building a snapshot (which does allocate) happens only when one is
//!    requested.
//! 3. **Canonical cross-shard merge.** [`TelemetrySnapshot::merge`] is
//!    associative: counters/gauges/histograms sum, [`MetricValue::Ratio`]
//!    merges component-wise, and event traces stable-merge by timestamp.
//!    Splitting a workload across N shards and merging their snapshots
//!    yields the same counter totals as a single-shard run — mirroring
//!    the engine's deterministic delta-run merge.
//!
//! The metric namespace (names, labels, units, paper-symbol
//! cross-references) is documented in the repository's `OBSERVABILITY.md`.

#![warn(missing_docs)]

mod conservation;
mod event;
mod metric;
mod snapshot;

pub use conservation::{check_laws, ConservationLaw, ENGINE_LAWS};
pub use event::{Event, EventLog, FieldValue};
pub use metric::{Histogram, HISTOGRAM_BUCKETS};
pub use snapshot::{Metric, MetricValue, TelemetrySnapshot, MAX_HISTOGRAM_BUCKETS};
