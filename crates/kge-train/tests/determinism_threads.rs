//! Thread-count independence: the chunked-parallel training hot path must
//! produce bit-identical results whether each simulated node's worker pool
//! has 1 thread or 4. Chunk structure, per-chunk RNG streams, and the
//! chunk-ordered merge are all fixed by `(seed, rank, epoch, batch, chunk)`
//! coordinates, never by the executing thread.

use kge_train::{train, train_ps, StrategyConfig, TrainConfig};
use kge_data::synth::{generate, SynthConfig};
use kge_train::TrainOutcome;
use simgrid::{Cluster, ClusterSpec};

fn dataset() -> kge_data::Dataset {
    generate(&SynthConfig {
        name: "threads".into(),
        n_entities: 150,
        n_relations: 10,
        n_triples: 2000,
        relation_zipf: 1.0,
        entity_zipf: 0.8,
        noise_frac: 0.05,
        valid_frac: 0.08,
        test_frac: 0.08,
        seed: 17,
    })
}

/// One run at `threads` per node: the replica trainer on 2 nodes, or with
/// `ps_servers = Some(s)` the parameter server with `s` servers and 2
/// workers.
fn run_with_threads(
    threads: usize,
    strategy: StrategyConfig,
    ps_servers: Option<usize>,
) -> TrainOutcome {
    // The per-node pool honors RAYON_NUM_THREADS (see
    // `trainer::node_pool_threads`); this test is the only one in this
    // binary, so flipping the process-wide variable between runs is safe.
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    let ds = dataset();
    let mut c = TrainConfig::new(4, 64, strategy);
    c.plateau_tolerance = 3;
    c.max_lr_drops = 1;
    c.max_epochs = 6;
    c.valid_samples = 64;
    c.base_lr = 5e-3;
    let out = match ps_servers {
        None => train(&ds, &Cluster::new(2, ClusterSpec::cray_xc40()), &c),
        Some(s) => train_ps(&ds, &Cluster::new(s + 2, ClusterSpec::cray_xc40()), &c, s),
    };
    std::env::remove_var("RAYON_NUM_THREADS");
    out
}

#[test]
fn training_is_bit_identical_at_1_and_4_threads() {
    for (strategy, ps_servers) in [
        (StrategyConfig::baseline_allreduce(2), None),
        (StrategyConfig::baseline_allgather(2), None),
        (StrategyConfig::combined(3), None),
        (StrategyConfig::baseline_allgather(2), Some(1)),
    ] {
        let a = run_with_threads(1, strategy, ps_servers);
        let b = run_with_threads(4, strategy, ps_servers);
        assert_eq!(
            a.entities.as_slice(),
            b.entities.as_slice(),
            "entities diverged across thread counts"
        );
        assert_eq!(
            a.relations.as_slice(),
            b.relations.as_slice(),
            "relations diverged across thread counts"
        );
        assert_eq!(a.report.epochs, b.report.epochs);
        assert_eq!(
            a.report.sim_total_seconds, b.report.sim_total_seconds,
            "simulated time must not depend on host thread count"
        );
    }
}
