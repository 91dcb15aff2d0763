//! Parameter server vs. all-reduce — the architectural choice the paper's
//! introduction motivates: the PS funnels every worker's pulls and pushes
//! through the server's link (a many-to-one ingress bottleneck), while
//! synchronous all-reduce spreads the same aggregation over a ring.
//!
//! ```text
//! cargo run --release --example ps_vs_allreduce
//! ```

use kge::prelude::*;

fn main() {
    let dataset = kge::data::synth::generate(&SynthPreset::Fb15kLike.config(0.04, 21));
    println!(
        "dataset: {} — {} entities, {} relations, {} train triples\n",
        dataset.name,
        dataset.n_entities,
        dataset.n_relations,
        dataset.train.len()
    );

    let mut config = TrainConfig::new(16, 256, StrategyConfig::baseline_allreduce(1));
    config.max_epochs = 10;
    config.plateau_tolerance = 10; // fixed epoch budget: compare time/epoch
    config.base_lr = 5e-3;
    config.seed = 21;

    println!(
        "{:<34} {:>8} {:>12} {:>10}",
        "architecture", "workers", "epoch(s)", "v-acc"
    );
    // Mean epoch seconds per worker count, (all-reduce, PS).
    let mut epoch_s = Vec::new();
    for workers in [2usize, 4, 8] {
        // All-reduce: `workers` peer nodes, no extra machines.
        let ar = train(
            &dataset,
            &Cluster::new(workers, ClusterSpec::cray_xc40()),
            &config,
        );
        // Parameter server: one server + the same number of workers.
        let ps = train_ps(
            &dataset,
            &Cluster::new(workers + 1, ClusterSpec::cray_xc40()),
            &config,
            1,
        );
        println!(
            "{:<34} {:>8} {:>12.3} {:>10.3}",
            "all-reduce (peers)",
            workers,
            ar.report.mean_epoch_seconds(),
            ar.report.trace.last().unwrap().valid_acc
        );
        println!(
            "{:<34} {:>8} {:>12.3} {:>10.3}",
            "parameter server (1 server)",
            workers,
            ps.report.mean_epoch_seconds(),
            ps.report.trace.last().unwrap().valid_acc
        );
        epoch_s.push((
            ar.report.mean_epoch_seconds(),
            ps.report.mean_epoch_seconds(),
        ));
    }
    let ((ar2, ps2), (ar8, ps8)) = (epoch_s[0], epoch_s[2]);
    println!("\nepoch time at 8 workers / at 2 workers:");
    println!("  all-reduce (peers)           {:.3}", ar8 / ar2);
    println!("  parameter server (1 server)  {:.3}", ps8 / ps2);
}
