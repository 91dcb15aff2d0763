//! # kge-core — numeric core for knowledge-graph embeddings
//!
//! This crate provides the model zoo and numeric machinery the paper's
//! trainer is built on, playing the role TensorFlow + OpenKE's model code
//! played for the authors:
//!
//! - [`EmbeddingTable`]: row-major `f32` parameter matrices with seeded
//!   Xavier initialization.
//! - [`KgeModel`] and implementations: [`ComplEx`] (the paper's model),
//!   plus [`DistMult`] and [`TransE`] baselines (the paper argues its
//!   strategies generalize to other models; these let us check).
//!   All scores and gradients are analytic — KGE scoring functions have
//!   closed forms, so no autodiff framework is needed.
//! - [`SparseGrad`]: a row-sparse gradient accumulator. KGE batches touch
//!   only the entity/relation rows that appear in the batch, which is the
//!   sparsity every strategy in the paper exploits.
//! - [`Adam`] / [`Adagrad`] optimizers with both **dense** and **lazy (row-
//!   sparse)** update styles, mirroring the paper's dense (all-reduce) and
//!   sparse (all-gather) update paths.

#[cfg(feature = "alloc-count")]
pub mod alloc_count;
pub mod grad;
pub mod init;
pub mod loss;
pub mod matrix;
pub mod model;
pub mod optim;
pub mod scratch;
pub mod simd;

pub use grad::SparseGrad;
pub use matrix::EmbeddingTable;
pub use model::{
    ComplEx, DistMult, Forward, KgeModel, ReplaceDir, RotatE, SimplE, TransE, BLOCK_GROUP,
    OVA_T_LANES, SCORE_LANES,
};
pub use optim::{
    Adagrad, AdagradOptimizer, AdagradState, Adam, AdamOptimizer, AdamState, OptimStateView,
    RowOptimizer,
};
pub use scratch::BlockScratch;
