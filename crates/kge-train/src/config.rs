//! Trainer configuration.

use kge_compress::{QuantScheme, RowSelector};
use serde::{Deserialize, Serialize};

/// How gradients are aggregated across nodes each step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CommMode {
    /// Dense all-reduce of the full gradient matrix (baseline "dense").
    AllReduce,
    /// Sparse all-gather of non-zero gradient rows (baseline "sparse").
    AllGather,
    /// §4.1: start with all-reduce; probe the other arms every
    /// `check_every` epochs and switch permanently to the fastest one
    /// that beats all-reduce. A probe round times the synchronous
    /// all-gather, then the pipelined variant (staleness window 1) of
    /// whichever base collective was faster.
    Dynamic { check_every: usize },
    /// Pipelined sparse all-gather: batch N's encode + collective overlaps
    /// batch N+1's compute, with applied-gradient lag ≤ `staleness`
    /// batches. `staleness == 0` is the synchronous all-gather path,
    /// bit-exactly.
    Pipelined { staleness: usize },
    /// Pipelined dense all-reduce — the dense counterpart of
    /// [`CommMode::Pipelined`]. `staleness == 0` is the synchronous
    /// all-reduce path, bit-exactly.
    PipelinedAllReduce { staleness: usize },
}

impl CommMode {
    /// The paper's DRS setting (k = 10).
    pub fn paper_dynamic() -> Self {
        CommMode::Dynamic { check_every: 10 }
    }

    /// The pipelined-gather default: overlap one batch deep.
    pub fn pipelined() -> Self {
        CommMode::Pipelined { staleness: 1 }
    }
}

/// Optimizer update style per communication path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UpdateStyle {
    /// Dense Adam after all-reduce, lazy Adam after all-gather — the
    /// framework semantics the paper inherited from Horovod + TF.
    Auto,
    /// Always dense Adam (requires densifying gathered gradients).
    Dense,
    /// Always lazy (row-sparse) Adam.
    Lazy,
}

/// §4.5 negative sampling: draw `pool` candidates per positive, train on
/// the `train` hardest (highest-scoring) ones. `pool == train` disables
/// selection (the "n out of n" baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NegSampling {
    pub pool: usize,
    pub train: usize,
}

impl NegSampling {
    /// `train` negatives per positive, no selection.
    pub fn uniform(n: usize) -> Self {
        NegSampling { pool: n, train: n }
    }

    /// The paper's sample selection: best `m` out of `n` candidates.
    pub fn select(m: usize, n: usize) -> Self {
        assert!(m <= n && m >= 1);
        NegSampling { pool: n, train: m }
    }

    /// Whether the extra scoring pass (§4.5) runs.
    pub fn uses_selection(&self) -> bool {
        self.pool > self.train
    }
}

/// The five strategies plus supporting knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StrategyConfig {
    /// S1 — communication mode.
    pub comm: CommMode,
    /// S2 — gradient-row selection before communication.
    pub row_select: RowSelector,
    /// S3 — gradient quantization for communicated entity rows.
    pub quant: QuantScheme,
    /// Keep quantization error as feedback for the next step.
    pub error_feedback: bool,
    /// S4 — partition triples by relation; relation gradients are then
    /// node-local (never communicated, never quantized).
    pub relation_partition: bool,
    /// S5 — negative sampling policy.
    pub neg: NegSampling,
    /// Corrupt heads vs tails with the per-relation `bern` bias of
    /// Wang et al. (2014) instead of a fair coin.
    pub bern: bool,
    /// Optimizer update style.
    pub update_style: UpdateStyle,
}

impl StrategyConfig {
    /// The plain all-reduce baseline of §3.4.
    pub fn baseline_allreduce(neg: usize) -> Self {
        StrategyConfig {
            comm: CommMode::AllReduce,
            row_select: RowSelector::None,
            quant: QuantScheme::None,
            error_feedback: false,
            relation_partition: false,
            neg: NegSampling::uniform(neg),
            bern: false,
            update_style: UpdateStyle::Auto,
        }
    }

    /// The plain all-gather baseline of §3.4.
    pub fn baseline_allgather(neg: usize) -> Self {
        StrategyConfig {
            comm: CommMode::AllGather,
            ..Self::baseline_allreduce(neg)
        }
    }

    /// The paper's full combination: DRS + RS + 1-bit + RP + SS(1:n).
    ///
    /// Error feedback stays **off**: the paper's chosen 1-bit scheme is
    /// plain `sign·max(|v|)`, and max-scaling is not a contraction, so
    /// accumulating its error as feedback oscillates and destroys
    /// convergence (measurable via the `ablation` bench experiment).
    /// Karimireddy-style EF pairs with *mean*-scaled signs instead.
    pub fn combined(neg_pool: usize) -> Self {
        StrategyConfig {
            comm: CommMode::paper_dynamic(),
            row_select: RowSelector::paper_rs(),
            quant: QuantScheme::paper_one_bit(),
            error_feedback: false,
            relation_partition: true,
            neg: NegSampling::select(1, neg_pool),
            bern: false,
            update_style: UpdateStyle::Auto,
        }
    }
}

/// Which scoring model to train. The paper uses ComplEx throughout and
/// notes its strategies (except SS, which is model-agnostic here anyway)
/// apply to other KGE models; DistMult and TransE are provided to check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelKind {
    ComplEx,
    DistMult,
    TransE,
    RotatE,
    SimplE,
}

impl ModelKind {
    /// Instantiate the scoring model at the given rank.
    pub fn build(self, rank: usize) -> Box<dyn kge_core::KgeModel> {
        match self {
            ModelKind::ComplEx => Box::new(kge_core::ComplEx::new(rank)),
            ModelKind::DistMult => Box::new(kge_core::DistMult::new(rank)),
            ModelKind::TransE => Box::new(kge_core::TransE::new(rank)),
            ModelKind::RotatE => Box::new(kge_core::RotatE::new(rank)),
            ModelKind::SimplE => Box::new(kge_core::SimplE::new(rank)),
        }
    }
}

/// Optimizer selection. The paper trains with Adam; AdaGrad is what
/// DGL-KE ships and is included for comparison runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OptimizerKind {
    Adam,
    Adagrad,
}

impl OptimizerKind {
    /// Build an optimizer instance for a `rows × dim` table with the
    /// given base learning rate.
    pub fn build(
        self,
        base_lr: f32,
        rows: usize,
        dim: usize,
    ) -> Box<dyn kge_core::RowOptimizer> {
        match self {
            OptimizerKind::Adam => Box::new(kge_core::AdamOptimizer::new(
                kge_core::Adam {
                    lr: base_lr,
                    ..kge_core::Adam::default()
                },
                rows,
                dim,
            )),
            OptimizerKind::Adagrad => Box::new(kge_core::AdagradOptimizer::new(
                kge_core::Adagrad {
                    lr: base_lr,
                    ..kge_core::Adagrad::default()
                },
                rows,
                dim,
            )),
        }
    }
}

/// Pipelining policy for the sharded pull/push lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PrefetchMode {
    /// Lookahead 0 — the synchronous per-batch round-trip: pull, compute,
    /// push, every batch blocking in turn.
    #[default]
    Off,
    /// Lookahead 1 — while batch *b* computes, batch *b+1*'s touched rows
    /// are already requested and in flight and batch *b*'s gradient push
    /// settles behind the next compute window.
    On,
}

/// Partitioned entity storage (the "sharded store"): each entity row is
/// resident only on its owner rank, batches pull the rows they touch over
/// point-to-point links, and row-sparse gradients are routed back to
/// owners for the lazy Adam step. A capacity-bounded cache of high-degree
/// rows is replicated on every rank so the hottest rows are synced once
/// per admission instead of pulled once per batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardedConfig {
    /// Hot-cache capacity in entity rows (0 disables the cache; every
    /// touched row is then pulled from its owner each batch).
    pub hot_cache_rows: usize,
    /// Store cold (owner-arena) rows 8-bit quantized instead of f32.
    /// Deterministic but lossy: the trajectory diverges from the
    /// full-replica trainer while staying identical run-to-run.
    #[serde(default)]
    pub cold_int8: bool,
    /// Pull/push pipelining policy: the synchronous per-batch round-trip
    /// or the one-batch-ahead prefetch ring.
    #[serde(default)]
    pub prefetch: PrefetchMode,
}

/// Full training configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Scoring model (paper: ComplEx).
    pub model: ModelKind,
    /// Optimizer (paper: Adam).
    pub optimizer: OptimizerKind,
    /// Model rank (for ComplEx embeddings live in C^rank; storage 2·rank).
    pub rank: usize,
    /// Positive triples per batch per worker (paper: 10 000).
    pub batch_size: usize,
    /// Base learning rate (paper: 0.001).
    pub base_lr: f32,
    /// LR scale cap: `lr × min(cap, p)` (paper: 4).
    pub lr_scale_cap: f32,
    /// Epochs without validation improvement before decaying LR
    /// (paper: 15).
    pub plateau_tolerance: usize,
    /// LR decay factor on plateau (paper: 0.1).
    pub lr_decay: f32,
    /// Number of LR decays before the schedule bottoms out.
    pub max_lr_drops: usize,
    /// Hard epoch cap.
    pub max_epochs: usize,
    /// L2 regularization weight λ.
    pub l2: f32,
    /// Validation samples per epoch for the plateau signal.
    pub valid_samples: usize,
    /// Strategy toggles.
    pub strategy: StrategyConfig,
    /// Master seed (per-node streams derive from it).
    pub seed: u64,
    /// When a rank crashes mid-run (fault injection), shrink the
    /// communicator to the survivors, re-partition the triples, and keep
    /// training at the reduced world size. When off, training stops at
    /// the crashed epoch and reports what it has.
    #[serde(default)]
    pub recover_from_crashes: bool,
    /// Run the full filtered-ranking evaluation on the validation split
    /// every this many epochs (0 = never), sharded across ranks with
    /// allreduced metric sums. Results land in `EpochTrace::ranking`; the
    /// eval's compute and collective time are charged to the simulated
    /// clock.
    #[serde(default)]
    pub eval_every: usize,
    /// Query cap for the per-epoch ranking eval (deterministic subsample;
    /// `None` = the whole validation split).
    #[serde(default)]
    pub eval_max_queries: Option<usize>,
    /// Write a versioned per-rank checkpoint (`ckpt-r{rank}.kgc` in
    /// `checkpoint_dir`) at the end of every this-many-th epoch
    /// (0 = never). The latest checkpoint overwrites the previous one;
    /// serialization time is charged to the simulated clock's
    /// `checkpoint_s` bucket.
    #[serde(default)]
    pub checkpoint_every: usize,
    /// Directory receiving the per-rank checkpoint files.
    #[serde(default)]
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Resume from the per-rank checkpoint files in this directory
    /// instead of initializing fresh. The resumed run continues at the
    /// checkpointed epoch cursor and is bit-identical to the
    /// uninterrupted run (see `tests/resume_determinism.rs`).
    #[serde(default)]
    pub resume_from: Option<std::path::PathBuf>,
    /// Train with partitioned entity storage instead of full replicas.
    /// Sharded mode supports the plain all-gather strategy arm only; see
    /// [`TrainConfig::validate`] for the exact compatibility rules.
    #[serde(default)]
    pub sharded: Option<ShardedConfig>,
    /// Publish a model snapshot to the serving sink (see
    /// [`train_with_snapshots`]) at the end of every this-many-th epoch
    /// (0 = never). Every rank is charged the modeled in-memory copy
    /// cost; rank 0 performs the publish. Requires full replicas — not
    /// supported in sharded mode.
    ///
    /// [`train_with_snapshots`]: crate::trainer::train_with_snapshots
    #[serde(default)]
    pub serve_snapshots: usize,
}

impl TrainConfig {
    /// Paper-like defaults for quick experiments; callers override fields.
    pub fn new(rank: usize, batch_size: usize, strategy: StrategyConfig) -> Self {
        TrainConfig {
            model: ModelKind::ComplEx,
            optimizer: OptimizerKind::Adam,
            rank,
            batch_size,
            base_lr: 1e-3,
            lr_scale_cap: 4.0,
            plateau_tolerance: 15,
            lr_decay: 0.1,
            max_lr_drops: 2,
            max_epochs: 500,
            l2: 1e-5,
            valid_samples: 512,
            strategy,
            seed: 0,
            recover_from_crashes: true,
            eval_every: 0,
            eval_max_queries: None,
            checkpoint_every: 0,
            checkpoint_dir: None,
            resume_from: None,
            sharded: None,
            serve_snapshots: 0,
        }
    }

    /// Validate parameter sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.rank == 0 {
            return Err("rank must be positive".into());
        }
        if self.batch_size == 0 {
            return Err("batch_size must be positive".into());
        }
        if self.base_lr <= 0.0 || self.base_lr.is_nan() {
            return Err("base_lr must be positive".into());
        }
        if !(0.0..1.0).contains(&self.lr_decay) {
            return Err("lr_decay must be in (0,1)".into());
        }
        if self.strategy.neg.train > self.strategy.neg.pool || self.strategy.neg.train == 0 {
            return Err("neg sampling needs 1 <= train <= pool".into());
        }
        if let CommMode::Dynamic { check_every } = self.strategy.comm {
            if check_every == 0 {
                return Err("dynamic comm check_every must be positive".into());
            }
        }
        if self.checkpoint_every > 0 && self.checkpoint_dir.is_none() {
            return Err("checkpoint_every requires checkpoint_dir".into());
        }
        if self.sharded.is_some() {
            // The sharded store implements exactly the plain all-gather /
            // lazy-Adam arm; everything that reads the full entity table
            // (selection-based negatives, dense updates, validation,
            // ranking eval, checkpointing) or reshapes the wire payload
            // (row selection, quantization, RP) is out of scope in v1.
            if self.strategy.comm != CommMode::AllGather {
                return Err("sharded mode requires CommMode::AllGather".into());
            }
            if self.strategy.row_select != RowSelector::None {
                return Err("sharded mode does not support row selection".into());
            }
            if self.strategy.quant != QuantScheme::None {
                return Err("sharded mode does not support wire quantization".into());
            }
            if self.strategy.error_feedback {
                return Err("sharded mode does not support error feedback".into());
            }
            if self.strategy.relation_partition {
                return Err("sharded mode does not support relation partition".into());
            }
            if self.strategy.neg.uses_selection() {
                return Err("sharded mode does not support negative selection".into());
            }
            if self.strategy.update_style == UpdateStyle::Dense {
                return Err("sharded mode requires lazy updates".into());
            }
            if self.optimizer != OptimizerKind::Adam {
                return Err("sharded mode requires the Adam optimizer".into());
            }
            if self.valid_samples != 0 {
                return Err("sharded mode requires valid_samples = 0".into());
            }
            if self.eval_every != 0 {
                return Err("sharded mode does not support per-epoch ranking eval".into());
            }
            if self.checkpoint_every != 0 || self.resume_from.is_some() {
                return Err("sharded mode does not support checkpointing".into());
            }
            if self.serve_snapshots != 0 {
                return Err("sharded mode does not support snapshot publishing".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baselines_and_combined_are_valid() {
        for s in [
            StrategyConfig::baseline_allreduce(10),
            StrategyConfig::baseline_allgather(1),
            StrategyConfig::combined(5),
        ] {
            assert!(TrainConfig::new(16, 100, s).validate().is_ok());
        }
    }

    #[test]
    fn combined_enables_everything() {
        let s = StrategyConfig::combined(10);
        assert_eq!(s.comm, CommMode::Dynamic { check_every: 10 });
        assert!(s.relation_partition);
        assert!(s.neg.uses_selection());
        assert_eq!(s.neg.train, 1);
        assert_eq!(s.quant, QuantScheme::paper_one_bit());
    }

    #[test]
    fn pipelined_modes_are_valid() {
        for comm in [
            CommMode::pipelined(),
            CommMode::Pipelined { staleness: 0 },
            CommMode::PipelinedAllReduce { staleness: 2 },
        ] {
            let mut s = StrategyConfig::baseline_allreduce(2);
            s.comm = comm;
            assert!(TrainConfig::new(16, 100, s).validate().is_ok());
        }
    }

    #[test]
    fn neg_sampling_modes() {
        assert!(!NegSampling::uniform(10).uses_selection());
        assert!(NegSampling::select(1, 10).uses_selection());
    }

    #[test]
    #[should_panic]
    fn select_more_than_pool_panics() {
        let _ = NegSampling::select(5, 3);
    }

    #[test]
    fn validation_catches_bad_params() {
        let mut c = TrainConfig::new(16, 100, StrategyConfig::baseline_allreduce(1));
        c.rank = 0;
        assert!(c.validate().is_err());
        let mut c = TrainConfig::new(16, 100, StrategyConfig::baseline_allreduce(1));
        c.lr_decay = 1.5;
        assert!(c.validate().is_err());
        let mut c = TrainConfig::new(16, 100, StrategyConfig::baseline_allreduce(1));
        c.strategy.comm = CommMode::Dynamic { check_every: 0 };
        assert!(c.validate().is_err());
        let mut c = TrainConfig::new(16, 0, StrategyConfig::baseline_allreduce(1));
        c.batch_size = 0;
        assert!(c.validate().is_err());
        let mut c = TrainConfig::new(16, 100, StrategyConfig::baseline_allreduce(1));
        c.checkpoint_every = 2;
        assert!(c.validate().is_err(), "checkpointing needs a directory");
        c.checkpoint_dir = Some(std::path::PathBuf::from("/tmp/ckpt"));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn sharded_mode_compatibility_rules() {
        let base = || {
            let mut c = TrainConfig::new(16, 100, StrategyConfig::baseline_allgather(2));
            c.valid_samples = 0;
            c.sharded = Some(ShardedConfig {
                hot_cache_rows: 8,
                cold_int8: false,
                prefetch: PrefetchMode::Off,
            });
            c
        };
        assert!(base().validate().is_ok());
        let mut c = base();
        c.strategy.comm = CommMode::AllReduce;
        assert!(c.validate().is_err(), "sharded needs all-gather");
        let mut c = base();
        c.strategy.neg = NegSampling::select(1, 4);
        assert!(c.validate().is_err(), "no negative selection");
        let mut c = base();
        c.strategy.relation_partition = true;
        assert!(c.validate().is_err(), "no relation partition");
        let mut c = base();
        c.valid_samples = 64;
        assert!(c.validate().is_err(), "no validation sampling");
        let mut c = base();
        c.optimizer = OptimizerKind::Adagrad;
        assert!(c.validate().is_err(), "Adam only");
        let mut c = base();
        c.strategy.update_style = UpdateStyle::Dense;
        assert!(c.validate().is_err(), "lazy updates only");
    }

    #[test]
    fn model_kinds_build_expected_models() {
        assert_eq!(ModelKind::ComplEx.build(5).storage_dim(), 10);
        assert_eq!(ModelKind::DistMult.build(5).storage_dim(), 5);
        assert_eq!(ModelKind::TransE.build(5).storage_dim(), 5);
        assert_eq!(ModelKind::ComplEx.build(5).name(), "complex");
        assert_eq!(ModelKind::RotatE.build(5).storage_dim(), 10);
        assert_eq!(ModelKind::SimplE.build(5).storage_dim(), 10);
    }

    #[test]
    fn optimizer_kinds_build() {
        use kge_core::{EmbeddingTable, SparseGrad};
        for kind in [OptimizerKind::Adam, OptimizerKind::Adagrad] {
            let mut opt = kind.build(0.01, 2, 2);
            let mut table = EmbeddingTable::zeros(2, 2);
            let mut g = SparseGrad::new(2);
            g.row_mut(0).copy_from_slice(&[1.0, 1.0]);
            opt.step_lazy(&mut table, &g, 1.0);
            assert!(table.row(0)[0] < 0.0, "{kind:?}");
        }
    }
}
