//! # acq-relation — windowed relation store
//!
//! The per-relation state an MJoin keeps: the current window contents of each
//! `R_i`, with hash indexes on join attributes (§7.1: *"All joins use hash
//! indexes by default"*) and multiset delete support (windows emit deletes by
//! value; the store removes exactly one matching instance, the oldest, as the
//! window expires it).
//!
//! Tuples are stored once and handed out as reference-counted [`TupleRef`](acq_stream::TupleRef)s;
//! composite pipeline tuples, cache entries, and XJoin materializations all
//! share them (§3.3: tuples are never copied into caches).

pub mod slab;
pub mod store;

pub use slab::SlabStore;
pub use store::{HashIndex, IdList, Relation};
