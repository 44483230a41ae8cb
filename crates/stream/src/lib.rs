//! # acq-stream — stream substrate
//!
//! Foundation types for the reproduction of *Adaptive Caching for Continuous
//! Queries* (ICDE 2005): values, schemas, reference-counted tuples, composite
//! (concatenated) tuples flowing through MJoin pipelines, insert/delete update
//! streams (`∆R_i`), sliding-window operators turning append-only streams into
//! update streams, and global-order merging of multiple update streams
//! (paper §3.1: *"updates ... have a global ordering on input ... updates are
//! processed strictly in this order"*).

pub mod merge;
pub mod parse;
pub mod row;
pub mod schema;
pub mod tuple;
pub mod update;
pub mod value;
pub mod window;

pub use merge::{merge_by_timestamp, merge_ordered_runs};
pub use parse::{parse_query, ParseError};
pub use row::{Frontier, Projection, Row};
pub use schema::{AttrRef, ColId, EquivClassId, JoinPredicate, QuerySchema, RelId, RelationSchema};
pub use tuple::{Composite, CompositeId, StoredTuple, TupleData, TupleId, TupleRef, MAX_PARTS};
pub use update::{Op, StreamElement, Update};
pub use value::Value;
pub use window::{CountWindow, TimeWindow, WindowOp};
