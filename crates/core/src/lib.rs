//! # acq — A-Caching: adaptive caching for continuous multiway join queries
//!
//! A from-scratch reproduction of **“Adaptive Caching for Continuous
//! Queries”** (Babu, Munagala, Widom, Motwani — ICDE 2005, Stanford STREAM
//! project).
//!
//! The paper's setting: a continuous n-way join (a *stream join*) processed
//! by an MJoin — one pipeline per update stream `∆R_i`, no intermediate
//! state. MJoins recompute subresults over and over; XJoins (binary join
//! trees) materialize every intermediate result and pay to maintain it. This
//! crate implements the paper's middle way: start from an MJoin and
//! **adaptively add/remove join-subresult caches**, covering the whole plan
//! spectrum between MJoins and XJoins.
//!
//! ## Quickstart
//!
//! ```
//! use acq::engine::AdaptiveJoinEngine;
//! use acq_stream::{QuerySchema, RelId, TupleData, Update};
//!
//! // R(A) ⋈ S(A,B) ⋈ T(B), the paper's 3-way experiment query.
//! let mut engine = AdaptiveJoinEngine::new(QuerySchema::chain3());
//! engine.process(&Update::insert(RelId(0), TupleData::ints(&[1]), 0));
//! engine.process(&Update::insert(RelId(1), TupleData::ints(&[1, 2]), 1));
//! let out = engine.process(&Update::insert(RelId(2), TupleData::ints(&[2]), 2));
//! assert_eq!(out.len(), 1); // ⟨1⟩·⟨1,2⟩·⟨2⟩ joined
//! ```
//!
//! ## Module map (paper section → module)
//!
//! | Paper | Module |
//! |---|---|
//! | §3.2–3.3 caches, consistency invariant, direct-mapped store | [`cache`] |
//! | §3.2 prefix invariant, §4.2 candidates, Def. 4.1 sharing, §6 globally-consistent candidates | [`candidates`] |
//! | §4.1 benefit/cost/proc model | [`cost`] |
//! | §4.3 + Appendix A online estimation | [`profiler`] |
//! | §4.4 + Appendix B offline selection (DP / exhaustive / greedy / LP rounding) | [`select`] |
//! | §4.5 adaptive algorithm + §5 memory allocation + §6 global caches | [`engine`], [`memory`] |
//!
//! Substrates live in sibling crates: `acq-stream` (tuples, windows, update
//! streams), `acq-relation` (windowed stores + hash indexes), `acq-mjoin`
//! (pipelines, the virtual cost clock, A-Greedy ordering, the XJoin
//! baseline), `acq-sketch` (Bloom filters, W-window statistics), `acq-lp`
//! (the simplex solver behind randomized rounding).
//!
//! Observability: every engine exposes a structured
//! [`acq_telemetry::TelemetrySnapshot`] (metrics + virtual-time event trace);
//! the metric namespace is documented in `OBSERVABILITY.md` at the repo root.

#![warn(missing_docs)]

pub mod cache;
pub mod candidates;
pub mod cost;
pub mod engine;
pub mod memory;
pub mod profiler;
pub mod runtime;
pub mod select;
pub mod shard;
pub mod stream_join;

pub use cache::{CacheStats, CacheStore};
pub use candidates::{enumerate_candidates, is_prefix_set, Candidate, EnumerationConfig};
pub use cost::{benefit_cost, BenefitCost, CandidateEstimates};
pub use engine::{
    AdaptiveJoinEngine, CacheMode, CacheState, EngineConfig, EngineCounters, InjectedFault,
    ReoptInterval, SelectionStrategy,
};
pub use memory::{allocate, Allocation, MemoryConfig, MemoryRequest};
pub use profiler::{Profiler, ProfilerConfig};
pub use select::{SelectionInstance, Solution};
pub use shard::{
    auto_partition_class, canonicalize_group, RoutingStats, ShardConfig, ShardPanic, ShardedEngine,
};
pub use stream_join::{StreamJoin, StreamJoinBuilder, WindowSpec};
pub use acq_telemetry::TelemetrySnapshot;
