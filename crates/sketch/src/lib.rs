//! # acq-sketch — statistics substrate for A-Caching
//!
//! Small, dependency-free building blocks used throughout the reproduction of
//! *Adaptive Caching for Continuous Queries* (ICDE 2005):
//!
//! * [`fx`] — an inline implementation of the FxHash algorithm (the fast,
//!   non-cryptographic hash popularized by rustc), so hot join/cache paths
//!   never pay SipHash costs. See DESIGN.md for the dependency justification.
//! * [`bloom`] — Bloom filters, used by the Profiler to estimate the number of
//!   distinct cache-key values in a probe stream, and hence the cache miss
//!   probability (paper §4.3 / Appendix A).
//! * [`stats`] — `W`-window sliding statistics ("our online estimate for any
//!   statistic is the average of its `W` most recent measurements", Table 1).

#![warn(missing_docs)]

pub mod bloom;
pub mod fx;
pub mod stats;

pub use bloom::BloomFilter;
pub use fx::{fx_hash_bytes, fx_hash_u64, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use stats::WindowStat;
