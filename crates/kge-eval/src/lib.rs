//! # kge-eval — evaluation of knowledge-graph embeddings
//!
//! Plays the role OpenKE's evaluation protocol plays in the paper (§3.2):
//!
//! - [`ranking`]: link-prediction ranking — **raw and filtered MRR**,
//!   Hits@{1,3,10} and mean rank, replacing heads and tails against every
//!   entity, with the filtered variant skipping candidates that are known
//!   true triples. Built on the blocked one-vs-all kernel
//!   ([`kge_core::KgeModel::score_one_vs_all_transposed`]) with a reusable
//!   [`RankingWorkspace`]; bit-identical to the scalar reference
//!   [`ranking::rank_of_scalar`].
//! - [`distributed`]: the same metrics with queries sharded across simgrid
//!   ranks and the metric sums allreduced — full-dataset eval inside the
//!   cluster timing model.
//! - [`tca`]: **triple classification accuracy** — per-relation score
//!   thresholds fitted on validation (positives + sampled negatives),
//!   applied to test.
//! - [`quick`]: the cheap per-epoch validation signal the trainer's
//!   learning-rate plateau schedule watches (the paper reduces the LR when
//!   "validation accuracy" stalls for 15 epochs).
//! - [`transpose`]: the tile-blocked column-major entity-table copy the
//!   transposed one-vs-all kernels consume — shared by ranking evaluation
//!   and the `kge-serve` snapshot builder.

pub mod distributed;
pub mod quick;
pub mod ranking;
pub mod tca;
pub mod transpose;

pub use distributed::evaluate_ranking_distributed;
pub use quick::fast_valid_accuracy;
pub use ranking::{
    evaluate_ranking, evaluate_ranking_by_category, evaluate_ranking_by_category_with,
    evaluate_ranking_with, rank_of_scalar, RankingMetrics, RankingOptions, RankingWorkspace,
};
pub use tca::{triple_classification, TcaResult};
pub use transpose::{tile_rows_for, TransposedTable};
