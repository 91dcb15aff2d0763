//! # kge-serve — online link prediction over training snapshots
//!
//! The serving half of serve-while-training: the trainer publishes its
//! model replica at epoch boundaries
//! ([`kge_train::train_with_snapshots`]), and this crate answers
//! `(head, rel) → best k tails` queries against the latest published
//! generation while the next one trains.
//!
//! - [`snapshot`]: immutable, double-buffered [`ModelSnapshot`]
//!   generations behind a [`SnapshotHub`] (a
//!   [`kge_train::SnapshotSink`]). Each snapshot pre-builds the
//!   column-major transposed entity tiles ([`kge_eval::TransposedTable`])
//!   once, so queries never pay the transpose.
//! - [`topk`]: the selection kernel — a fixed-capacity partial heap with
//!   a threshold fast path over the 16-lane score tiles, deterministic
//!   tie-breaking by entity id, and a scalar full-sort oracle the results
//!   are bit-identical to.
//! - [`engine`]: batched query admission — concurrent queries are
//!   coalesced, sorted into relation groups, and served by **one**
//!   tile-major sweep of the entity table, so a batch pays the table
//!   stream once instead of once per query. Optional filtered mode
//!   excludes known true tails via [`kge_data::GroupedFilter`], exactly.
//! - [`loadgen`]: an open-loop Poisson load generator on simgrid's
//!   simulated clock with power-law query skew, reporting p50/p99
//!   latency and QPS.

pub mod engine;
pub mod loadgen;
pub mod snapshot;
pub mod topk;

pub use engine::{Query, ServeEngine, TopKResults};
pub use loadgen::{run_open_loop, LoadReport, LoadgenConfig};
pub use snapshot::{ModelSnapshot, SnapshotHub};
pub use topk::{beats, oracle_topk, TopHit, TopKHeap};
