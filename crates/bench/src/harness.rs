//! Dataset presets at bench scale and the train+evaluate runner.

use kge_data::synth::{generate, SynthPreset};
use kge_data::{Dataset, FilterIndex};
use kge_eval::{evaluate_ranking, triple_classification, RankingOptions};
use kge_train::{train, StrategyConfig, TrainConfig, TrainReport};
use simgrid::{Cluster, ClusterSpec};

/// Scale factors and budget knobs for bench runs. `quick` shrinks
/// everything further for smoke runs.
#[derive(Debug, Clone, Copy)]
pub struct BenchScale {
    /// Dataset scale relative to the paper's full sizes.
    pub fb15k_scale: f64,
    pub fb250k_scale: f64,
    /// Epoch cap (the plateau schedule usually stops earlier).
    pub max_epochs: usize,
    /// Plateau tolerance in epochs (paper: 15; bench default smaller so
    /// experiments finish in laptop time — N values scale accordingly).
    pub tolerance: usize,
    /// Ranking-evaluation query cap.
    pub mrr_queries: usize,
    pub seed: u64,
}

impl Default for BenchScale {
    fn default() -> Self {
        BenchScale {
            fb15k_scale: 0.1,
            fb250k_scale: 0.02,
            max_epochs: 150,
            tolerance: 12,
            mrr_queries: 500,
            seed: 7,
        }
    }
}

impl BenchScale {
    /// Tiny smoke-test configuration (seconds, not minutes).
    pub fn quick() -> Self {
        BenchScale {
            fb15k_scale: 0.02,
            fb250k_scale: 0.004,
            max_epochs: 15,
            tolerance: 3,
            mrr_queries: 100,
            seed: 7,
        }
    }
}

/// Bench-scale FB15K-shaped dataset. Batch size scales with the dataset
/// (the paper's 10 000 is ~2% of FB15K's training split).
pub fn fb15k_bench(s: &BenchScale) -> (Dataset, usize) {
    let ds = generate(&SynthPreset::Fb15kLike.config(s.fb15k_scale, s.seed));
    let batch = ((10_000.0 * s.fb15k_scale) as usize).max(32);
    (ds, batch)
}

/// Bench-scale FB250K-shaped dataset.
pub fn fb250k_bench(s: &BenchScale) -> (Dataset, usize) {
    let ds = generate(&SynthPreset::Fb250kLike.config(s.fb250k_scale, s.seed.wrapping_add(1)));
    let batch = ((30_000.0 * s.fb250k_scale) as usize).max(32);
    (ds, batch)
}

/// One experiment row: the paper's TT / N / TCA / MRR plus extras.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub dataset: String,
    pub method: String,
    pub nodes: usize,
    /// Simulated total training time, hours (paper `TT`).
    pub tt_hours: f64,
    /// Epochs to convergence (paper `N`).
    pub epochs: usize,
    /// Triple classification accuracy, percent.
    pub tca: f64,
    /// Filtered MRR.
    pub mrr: f64,
    /// Mean simulated epoch time, seconds (Fig. 1d).
    pub epoch_seconds: f64,
    /// Fraction of epochs that used all-reduce.
    pub allreduce_fraction: f64,
    /// Full training report (per-epoch traces for the figure series).
    pub report: TrainReport,
}

/// Train `strategy` on `dataset` over `nodes` simulated Cray nodes, then
/// evaluate filtered MRR and TCA on the test split.
pub fn run_one(
    dataset: &Dataset,
    batch: usize,
    nodes: usize,
    rank: usize,
    strategy: StrategyConfig,
    method_name: &str,
    s: &BenchScale,
) -> RunResult {
    let mut config = TrainConfig::new(rank, batch, strategy);
    config.max_epochs = s.max_epochs;
    config.plateau_tolerance = s.tolerance;
    config.max_lr_drops = 2;
    config.valid_samples = 512;
    config.seed = s.seed;
    // The paper's 1e-3 is tuned for full-scale data (hundreds of batches
    // per epoch); at bench scale there are far fewer optimizer steps per
    // epoch, so a proportionally larger base rate reaches the same
    // operating point. Documented in EXPERIMENTS.md.
    config.base_lr = 5e-3;

    let cluster = Cluster::new(nodes, ClusterSpec::cray_xc40());
    let outcome = train(dataset, &cluster, &config);

    let model = kge_core::ComplEx::new(rank);
    let filter = FilterIndex::build(dataset);
    let ranking = evaluate_ranking(
        &model,
        &outcome.entities,
        &outcome.relations,
        &dataset.test,
        &filter,
        &RankingOptions {
            filtered: true,
            max_queries: Some(s.mrr_queries),
            seed: s.seed,
        },
    );
    let tca = triple_classification(
        &model,
        &outcome.entities,
        &outcome.relations,
        &dataset.valid,
        &dataset.test,
        &filter,
        dataset.n_entities,
        dataset.n_relations,
        s.seed,
    );

    RunResult {
        dataset: dataset.name.clone(),
        method: method_name.to_string(),
        nodes,
        tt_hours: outcome.report.total_hours(),
        epochs: outcome.report.epochs,
        tca: tca.accuracy_pct,
        mrr: ranking.mrr,
        epoch_seconds: outcome.report.mean_epoch_seconds(),
        allreduce_fraction: outcome.report.allreduce_fraction(),
        report: outcome.report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kge_train::StrategyConfig;

    #[test]
    fn quick_run_produces_sane_metrics() {
        let s = BenchScale::quick();
        let (ds, batch) = fb15k_bench(&s);
        let r = run_one(
            &ds,
            batch,
            2,
            8,
            StrategyConfig::baseline_allreduce(2),
            "allreduce",
            &s,
        );
        assert!(r.tt_hours > 0.0);
        assert!(r.epochs > 0 && r.epochs <= s.max_epochs);
        assert!((0.0..=100.0).contains(&r.tca));
        assert!((0.0..=1.0).contains(&r.mrr));
        assert_eq!(r.nodes, 2);
        assert_eq!(r.method, "allreduce");
    }

    #[test]
    fn bench_datasets_have_paper_shape() {
        let s = BenchScale::quick();
        let (fb15, _) = fb15k_bench(&s);
        let (fb250, _) = fb250k_bench(&s);
        assert!(fb250.n_entities > fb15.n_entities);
        assert!(fb250.train.len() > fb15.train.len());
        assert!(fb15.validate().is_ok());
        assert!(fb250.validate().is_ok());
    }
}
