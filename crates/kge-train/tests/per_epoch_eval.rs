//! The opt-in per-epoch ranking evaluation: sharded across ranks inside
//! the trainer's epoch loop, metrics allreduced, recorded on the trace.

use kge_data::synth::{generate, SynthConfig};
use kge_train::{train, train_ps, StrategyConfig, TrainConfig};
use simgrid::{Cluster, ClusterSpec};

fn dataset() -> kge_data::Dataset {
    generate(&SynthConfig {
        name: "per-epoch-eval".into(),
        n_entities: 120,
        n_relations: 8,
        n_triples: 1500,
        relation_zipf: 1.0,
        entity_zipf: 0.8,
        noise_frac: 0.05,
        valid_frac: 0.1,
        test_frac: 0.08,
        seed: 23,
    })
}

fn config() -> TrainConfig {
    let mut c = TrainConfig::new(4, 64, StrategyConfig::baseline_allreduce(2));
    c.plateau_tolerance = 3;
    c.max_lr_drops = 1;
    c.max_epochs = 6;
    c.valid_samples = 64;
    c.base_lr = 5e-3;
    c.eval_every = 2;
    c.eval_max_queries = Some(40);
    c
}

#[test]
fn eval_epochs_record_ranking_metrics() {
    let ds = dataset();
    let cluster = Cluster::new(2, ClusterSpec::cray_xc40());
    let out = train(&ds, &cluster, &config());
    assert!(out.report.epochs >= 2, "needs at least one eval epoch");
    for e in &out.report.trace {
        if (e.epoch + 1) % 2 == 0 {
            let m = e.ranking.expect("eval epoch must carry ranking metrics");
            assert_eq!(m.n_queries, 2 * 40.min(ds.valid.len()));
            assert!(m.mrr > 0.0 && m.mrr <= 1.0);
            assert!(m.hits1 <= m.hits3 && m.hits3 <= m.hits10 && m.hits10 <= 1.0);
            assert!(m.mean_rank >= 1.0 && m.mean_rank <= ds.n_entities as f64);
        } else {
            assert!(e.ranking.is_none(), "off-cadence epoch carries no eval");
        }
    }
}

#[test]
fn per_epoch_eval_is_deterministic_and_node_count_invariant_in_count() {
    // Same config on 1 and 2 nodes: the subsample (hence n_queries) and
    // the integer-valued hit counts match; reruns are bit-identical.
    let ds = dataset();
    let a = train(&ds, &Cluster::new(1, ClusterSpec::ideal()), &config());
    let b = train(&ds, &Cluster::new(1, ClusterSpec::ideal()), &config());
    let c = train(&ds, &Cluster::new(2, ClusterSpec::ideal()), &config());
    let ranks_a: Vec<_> = a.report.trace.iter().filter_map(|e| e.ranking).collect();
    let ranks_b: Vec<_> = b.report.trace.iter().filter_map(|e| e.ranking).collect();
    assert!(!ranks_a.is_empty());
    assert_eq!(ranks_a, ranks_b, "rerun must be bit-identical");
    for (ea, ec) in a.report.trace.iter().zip(&c.report.trace) {
        if let (Some(ma), Some(mc)) = (ea.ranking, ec.ranking) {
            assert_eq!(ma.n_queries, mc.n_queries);
        }
    }
}

#[test]
fn parameter_server_ranks_the_assembled_model_every_epoch() {
    // Every PS rank holds the full model after the epoch's assembly, so
    // the ranking eval runs on it like on a replica, across all ranks.
    let ds = dataset();
    let mut c = config();
    c.strategy = StrategyConfig::baseline_allgather(2);
    c.eval_every = 1;
    let out = train_ps(&ds, &Cluster::new(3, ClusterSpec::cray_xc40()), &c, 1);
    assert!(out.report.epochs >= 2);
    for e in &out.report.trace {
        let m = e.ranking.expect("every epoch carries ranking metrics");
        assert_eq!(m.n_queries, 2 * 40.min(ds.valid.len()));
        assert!(m.mrr > 0.0 && m.mrr <= 1.0);
    }
}
