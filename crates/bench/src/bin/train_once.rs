//! Train a single configuration and print the full per-epoch trace —
//! the workhorse CLI for poking at convergence behaviour.
//!
//! ```text
//! train_once [--preset fb15k|fb250k] [--scale F] [--nodes P] [--rank R]
//!            [--batch B] [--epochs E] [--tolerance T] [--neg N] [--pool N]
//!            [--combined] [--allgather] [--onebit] [--twobit] [--rs]
//!            [--no-ef] [--lr F] [--seed S]
//! ```
//!
//! An unknown flag or preset, or a flag without a parsable value, exits 2
//! with the usage.

use kge_data::synth::SynthPreset;
use kge_data::FilterIndex;
use kge_eval::{evaluate_ranking, triple_classification, RankingOptions};
use kge_train::{train, NegSampling, StrategyConfig, TrainConfig};
use simgrid::{Cluster, ClusterSpec};
use std::str::FromStr;

const USAGE: &str = "usage: train_once [--preset fb15k|fb250k] [--scale F] [--nodes P] [--rank R] \
                     [--batch B] [--epochs E] [--tolerance T] [--neg N] [--pool N] [--combined] \
                     [--allgather] [--onebit] [--twobit] [--rs] [--no-ef] [--lr F] [--seed S]";

fn refuse(msg: &str) -> ! {
    eprintln!("train_once: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// The value after `flag`, parsed.
fn value<T: FromStr>(flag: &str, v: String) -> T {
    v.parse().unwrap_or_else(|_| refuse(&format!("{flag}: cannot parse {v:?}")))
}

fn main() {
    let mut preset = SynthPreset::Fb15kLike;
    let mut scale = 0.05f64;
    let mut nodes = 1usize;
    let mut rank = 16usize;
    let mut batch = 512usize;
    let mut epochs = 100usize;
    let mut tolerance = 8usize;
    let mut neg = 4usize;
    let mut pool = 0usize;
    let mut combined = false;
    let mut allgather = false;
    let mut onebit = false;
    let mut twobit = false;
    let mut rs = false;
    let mut no_ef = false;
    let mut lr = 1e-3f32;
    let mut seed = 7u64;

    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        let mut next = || argv.next().unwrap_or_else(|| refuse(&format!("{a} needs a value")));
        match a.as_str() {
            "--preset" => {
                preset = match next().as_str() {
                    "fb15k" => SynthPreset::Fb15kLike,
                    "fb250k" => SynthPreset::Fb250kLike,
                    other => refuse(&format!("unknown preset: {other}")),
                }
            }
            "--scale" => scale = value(&a, next()),
            "--nodes" => nodes = value(&a, next()),
            "--rank" => rank = value(&a, next()),
            "--batch" => batch = value(&a, next()),
            "--epochs" => epochs = value(&a, next()),
            "--tolerance" => tolerance = value(&a, next()),
            "--neg" => neg = value(&a, next()),
            "--pool" => pool = value(&a, next()),
            "--lr" => lr = value(&a, next()),
            "--seed" => seed = value(&a, next()),
            "--combined" => combined = true,
            "--allgather" => allgather = true,
            "--onebit" => onebit = true,
            "--twobit" => twobit = true,
            "--rs" => rs = true,
            "--no-ef" => no_ef = true,
            other => refuse(&format!("unknown flag: {other}")),
        }
    }

    let ds = kge_data::synth::generate(&preset.config(scale, seed));
    println!(
        "{}: {} ents, {} rels, {} train, {} valid, {} test",
        ds.name,
        ds.n_entities,
        ds.n_relations,
        ds.train.len(),
        ds.valid.len(),
        ds.test.len()
    );

    let strategy = if combined {
        StrategyConfig::combined(pool.max(5))
    } else {
        let mut s = if allgather {
            StrategyConfig::baseline_allgather(neg)
        } else {
            StrategyConfig::baseline_allreduce(neg)
        };
        if pool > 0 {
            s.neg = NegSampling::select(neg, pool);
        }
        if onebit {
            s.quant = kge_compress::QuantScheme::paper_one_bit();
            s.error_feedback = !no_ef;
        }
        if twobit {
            s.quant = kge_compress::QuantScheme::TwoBit;
            s.error_feedback = !no_ef;
        }
        if rs {
            s.row_select = kge_compress::RowSelector::paper_rs();
        }
        s
    };
    let mut config = TrainConfig::new(rank, batch, strategy);
    config.max_epochs = epochs;
    config.plateau_tolerance = tolerance;
    config.base_lr = lr;
    config.seed = seed;

    let wall = std::time::Instant::now();
    let cluster = Cluster::new(nodes, ClusterSpec::cray_xc40());
    let out = train(&ds, &cluster, &config);
    println!(
        "epoch  sim(s)    loss    v-acc  lr     nz-rows rows-sent sparsity comm"
    );
    for t in &out.report.trace {
        println!(
            "{:>5} {:>7.2} {:>8.4} {:>7.3} {:>6.4} {:>8.0} {:>8.0} {:>8.2} {:?}",
            t.epoch,
            t.sim_seconds,
            t.train_loss,
            t.valid_acc,
            t.lr_scale,
            t.mean_nonzero_rows,
            t.mean_rows_sent,
            t.rs_sparsity,
            t.comm
        );
    }
    println!(
        "N={} converged={} TT={:.3}h wall={:.1}s",
        out.report.epochs,
        out.report.converged,
        out.report.total_hours(),
        wall.elapsed().as_secs_f64()
    );

    let model = kge_core::ComplEx::new(rank);
    let filter = FilterIndex::build(&ds);
    let m = evaluate_ranking(
        &model,
        &out.entities,
        &out.relations,
        &ds.test,
        &filter,
        &RankingOptions {
            max_queries: Some(300),
            ..Default::default()
        },
    );
    let tca = triple_classification(
        &model,
        &out.entities,
        &out.relations,
        &ds.valid,
        &ds.test,
        &filter,
        ds.n_entities,
        ds.n_relations,
        seed,
    );
    println!(
        "MRR={:.4} hits1={:.3} hits10={:.3} meanrank={:.1} TCA={:.1}%",
        m.mrr, m.hits1, m.hits10, m.mean_rank, tca.accuracy_pct
    );
}
