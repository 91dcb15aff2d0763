//! # kge-train — the paper's distributed KGE trainer
//!
//! Assembles the substrates (`simgrid`, `kge-core`, `kge-data`,
//! `kge-compress`, `kge-partition`, `kge-eval`) into the data-parallel
//! trainer of *"Dynamic Strategies for High Performance
//! Training of Knowledge Graph Embeddings"* (ICPP '22), with all five
//! strategies toggleable:
//!
//! | Strategy | Paper | Module |
//! |----------|-------|--------|
//! | S1 dynamic all-reduce/all-gather selection (DRS) | §4.1 | [`comm_select`] |
//! | S2 random selection of gradient rows (RS)        | §4.2 | via [`kge_compress::row_select`] |
//! | S3 1-/2-bit gradient quantization                | §4.3 | via [`kge_compress::quant`] |
//! | S4 relation partition (RP)                       | §4.4 | via [`kge_partition`] |
//! | S5 negative sample selection (SS)                | §4.5 | [`neg`] |
//!
//! plus the paper's training regime: Adam, capped linear LR scaling
//! (`lr × min(4, p)`), plateau decay (×0.1 after `tolerance` epochs
//! without validation improvement, down to a floor), and convergence
//! detection.
//!
//! The trainer runs on a [`simgrid::Cluster`]: every logical node holds a
//! full model replica, computes gradients on its shard, and exchanges
//! entity/relation gradients through collectives whose bytes are real and
//! whose time is charged to the simulated clock.

pub mod checkpoint;
pub mod comm_select;
pub mod config;
pub mod exchange;
pub mod lr;
pub mod neg;
pub mod ps;
pub mod report;
pub mod shard;
pub mod snapshot;
pub mod trainer;

pub use checkpoint::{
    checkpoint_path, Checkpoint, CheckpointError, CheckpointView, OptimSnapshot, Tallies,
};
pub use comm_select::{CommChoice, DynamicCommSelector};

/// SplitMix64 finalizer — the seed-derivation mixer used to give each
/// gradient chunk / quantized row its own independent RNG stream from a
/// handful of structural coordinates (seed, rank, epoch, batch, chunk).
/// Sequential mixing of coordinates keeps derived streams deterministic
/// and independent of thread count.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}
pub use config::{
    CommMode, ModelKind, NegSampling, OptimizerKind, PrefetchMode, ShardedConfig, StrategyConfig,
    TrainConfig, UpdateStyle,
};
pub use exchange::{ExchangeStats, GatherBufs};
pub use lr::{LrDecision, PlateauSchedule};
pub use ps::train_ps;
pub use report::{EpochTrace, ShardedReport, TrainOutcome, TrainReport};
pub use snapshot::{PublishedModel, RecordedSnapshot, RecordingSink, SnapshotSink};
pub use trainer::{train, train_with_snapshots, BatchWorkspace, StepInputs};
