//! # acq-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§7). One
//! binary per figure (`fig06_hit_prob` … `fig13_memory`), a Table 2 /
//! Figure 11 runner, ablation drivers, and an `all_experiments` aggregator
//! that writes CSVs into `EXPERIMENTS_OUTPUT/`.
//!
//! The metric mirrors the paper: *"the maximum load the system can handle, in
//! terms of the number of tuples processed per second"* — here tuples per
//! **virtual** second on the deterministic cost clock (see
//! `acq-mjoin::clock`), measured over the steady-state portion of a run
//! (warmup excluded). All overheads — profiling, Bloom maintenance,
//! re-optimization, cache maintenance — are charged to the same clock, as in
//! the paper ("these numbers include all types of overheads").

pub mod plans;
pub mod report;
pub mod runner;

pub use plans::best_mjoin_orders;
pub use report::{write_csv, Series, Table};
pub use runner::{run_engine, run_xjoin, RunStats};
