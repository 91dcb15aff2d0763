//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <experiment>... [--quick] [--out DIR] [--scale15 F] [--scale250 F]
//!       [--seed N] [--methods a,b] [--nodes 1,2,4]
//!
//! experiments: table1 table2 table3 table4 fig1 fig2 fig3 fig4 fig5
//!              fig6 fig7 fig8 fig9 ablation ps all
//! ```
//!
//! Results print as tables (the paper's TT / N / TCA / MRR columns) and
//! append to `<out>/results.jsonl` + `<out>/trace.jsonl`. `--quick` runs
//! a smoke-scale version of everything (seconds per experiment). A bad
//! command line — an unknown experiment, a flag without its value, or
//! filters that leave a named experiment nothing to run — exits 2 with
//! the usage before anything runs.
//!
//! Absolute numbers come from the simulated Cray clock and the synthetic
//! Freebase-shaped datasets; the *shapes* (which method wins, where
//! crossovers fall) are the reproduction targets — see EXPERIMENTS.md.

use bench::harness::{fb15k_bench, fb250k_bench, run_one, BenchScale, RunResult};
use bench::methods::{fb15k_methods, fb250k_methods, Method};
use bench::reportfmt::{print_table, write_json, write_trace_json};
use kge_compress::{QuantScheme, RowSelector};
use kge_train::{NegSampling, StrategyConfig};
use std::path::PathBuf;
use std::str::FromStr;

const RANK: usize = 16;

const USAGE: &str = "usage: repro <experiment>... [--quick] [--out DIR] [--scale15 F] [--scale250 F] \
                     [--seed N] [--methods a,b] [--nodes 1,2,4]
experiments: table1 table2 table3 table4 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 ablation ps all";

type Experiment = fn(&Args);

/// Every experiment by name (`all` expands to the ones it runs).
const EXPERIMENTS: [(&str, Experiment); 15] = [
    ("table1", table1),
    ("fig1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("fig7", table4),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig8", fig8),
    ("fig9", fig9),
    ("ablation", ablation),
    ("ps", ps),
];

struct Args {
    experiments: Vec<String>,
    scale: BenchScale,
    out: PathBuf,
    /// Optional method-name filter (`--methods a,b`), for chunked runs.
    methods: Option<Vec<String>>,
    /// Optional node-count filter (`--nodes 1,2,4`), for chunked runs.
    nodes: Option<Vec<usize>>,
}

impl Args {
    /// Whether the `--methods` / `--nodes` filters keep `method` at `p` nodes.
    fn selects(&self, method: &str, p: usize) -> bool {
        self.methods
            .as_ref()
            .is_none_or(|m| m.iter().any(|f| f == method))
            && self.nodes.as_ref().is_none_or(|n| n.contains(&p))
    }
}

/// The value after `flag`, parsed.
fn value<T: FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
    let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
}

/// Parse and check the command line: every experiment name is known and
/// every named experiment has a run left after the filters, so a typo
/// fails before anything runs.
fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        experiments: Vec::new(),
        scale: BenchScale::default(),
        out: PathBuf::from("results"),
        methods: None,
        nodes: None,
    };
    let list = |flag: &str, v: Option<String>| -> Result<Vec<String>, String> {
        let v: String = value(flag, v)?;
        Ok(v.split(',').map(str::to_string).collect())
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--quick" => {
                args.scale = BenchScale {
                    seed: args.scale.seed,
                    ..BenchScale::quick()
                }
            }
            "--out" => args.out = value::<PathBuf>(&a, argv.next())?,
            "--scale15" => args.scale.fb15k_scale = value(&a, argv.next())?,
            "--scale250" => args.scale.fb250k_scale = value(&a, argv.next())?,
            "--seed" => args.scale.seed = value(&a, argv.next())?,
            "--methods" => args.methods = Some(list(&a, argv.next())?),
            "--nodes" => {
                let nodes = list(&a, argv.next())?.into_iter();
                args.nodes = Some(
                    nodes
                        .map(|p| value(&a, Some(p)))
                        .collect::<Result<_, _>>()?,
                )
            }
            other if other == "all" || EXPERIMENTS.iter().any(|(e, _)| *e == other) => {
                args.experiments.push(a)
            }
            other => return Err(format!("unknown experiment: {other}")),
        }
    }
    if args.experiments.is_empty() {
        return Err("no experiment named".into());
    }
    if args.experiments.iter().any(|e| e == "all") {
        args.experiments = [
            "table1", "table2", "table3", "table4", "fig2", "fig3", "fig4", "fig5", "fig6",
            "fig8", "fig9", "ablation", "ps",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    if args.experiments.iter().any(|e| e == "fig2") && !args.selects("allgather", 4) {
        return Err("fig2: no run selected (it runs allgather at p = 4 only)".into());
    }
    Ok(args)
}

fn emit(args: &Args, experiment: &str, title: &str, rows: &[RunResult]) {
    print_table(title, rows);
    write_json(&args.out.join("results.jsonl"), experiment, rows).expect("write results");
    write_trace_json(&args.out.join("trace.jsonl"), experiment, rows).expect("write traces");
}

fn run_sweep(
    args: &Args,
    dataset: &kge_data::Dataset,
    batch: usize,
    methods: &[Method],
    nodes: &[usize],
) -> Vec<RunResult> {
    let mut rows = Vec::new();
    for m in methods {
        for &p in nodes {
            if !args.selects(m.name, p) {
                continue;
            }
            let r = run_one(dataset, batch, p, RANK, m.strategy, m.name, &args.scale);
            println!(
                "  [{:>16} p={:<2}] TT={:.3}h N={} TCA={:.1} MRR={:.3}",
                m.name, p, r.tt_hours, r.epochs, r.tca, r.mrr
            );
            rows.push(r);
        }
    }
    rows
}

fn baselines(neg: usize) -> Vec<Method> {
    vec![
        Method {
            name: "allreduce",
            strategy: StrategyConfig::baseline_allreduce(neg),
        },
        Method {
            name: "allgather",
            strategy: StrategyConfig::baseline_allgather(neg),
        },
    ]
}

/// Table 1 + Fig. 1a: FB15K baselines over 1–8 nodes.
fn table1(args: &Args) {
    let (ds, batch) = fb15k_bench(&args.scale);
    let rows = run_sweep(args, &ds, batch, &baselines(10), &[1, 2, 4, 8]);
    emit(args, "table1", "Table 1 / Fig 1a — FB15K baselines", &rows);
}

/// Table 2 + Fig. 1b–d: FB250K baselines over 1–16 nodes.
fn table2(args: &Args) {
    let (ds, batch) = fb250k_bench(&args.scale);
    let rows = run_sweep(args, &ds, batch, &baselines(1), &[1, 2, 4, 8, 16]);
    emit(args, "table2", "Table 2 / Fig 1b-d — FB250K baselines", &rows);
}

/// Table 3: the relation-partition worked example (§4.4).
fn table3(_args: &Args) {
    use kge_data::Triple;
    let triples = vec![
        Triple::new(1, 1, 2),
        Triple::new(2, 1, 10),
        Triple::new(3, 2, 5),
        Triple::new(6, 3, 9),
        Triple::new(7, 3, 8),
    ];
    let part = kge_partition::relation_partition(&triples, 4, 2);
    println!("\n== Table 3 — relation partition worked example ==");
    for (i, shard) in part.shards.iter().enumerate() {
        let rels: Vec<u32> = {
            let mut r: Vec<u32> = shard.iter().map(|t| t.rel).collect();
            r.dedup();
            r
        };
        println!(
            "processor {} gets {} triples, relations {:?}",
            i + 1,
            shard.len(),
            rels
        );
        for t in shard {
            println!("    ({}, {}, {})", t.head, t.rel, t.tail);
        }
    }
    let stats = part.stats();
    println!("relation-disjoint: {}", stats.relation_disjoint);
    assert!(stats.relation_disjoint);
}

/// Table 4 + Fig. 7: sample-selection ratios on 2 nodes with 1-bit quant.
fn table4(args: &Args) {
    let (ds, batch) = fb15k_bench(&args.scale);
    let base = StrategyConfig {
        quant: QuantScheme::paper_one_bit(),
        error_feedback: false,
        row_select: RowSelector::paper_rs(),
        ..StrategyConfig::baseline_allgather(1)
    };
    let ratios: Vec<(&'static str, NegSampling)> = vec![
        ("1 out of 1", NegSampling::uniform(1)),
        ("1 out of 5", NegSampling::select(1, 5)),
        ("1 out of 10", NegSampling::select(1, 10)),
        ("1 out of 20", NegSampling::select(1, 20)),
        ("1 out of 30", NegSampling::select(1, 30)),
        ("5 out of 5", NegSampling::uniform(5)),
        ("10 out of 10", NegSampling::uniform(10)),
    ];
    let mut rows = Vec::new();
    for (name, neg) in ratios {
        // Paper-faithful series: RS + 1-bit quantized gradients. At
        // bench scale the compressed-gradient noise overwhelms the single
        // hard negative's signal for pools >= 10 (documented in
        // EXPERIMENTS.md), so a plain full-precision control series
        // (no RS, no quantization) isolates the SS effect itself.
        for (suffix, quant, row_select) in [
            ("", QuantScheme::paper_one_bit(), base.row_select),
            (" (f32)", QuantScheme::None, RowSelector::None),
        ] {
            let strategy = StrategyConfig {
                neg,
                quant,
                row_select,
                ..base
            };
            let label = format!("{name}{suffix}");
            let r = run_one(&ds, batch, 2, RANK, strategy, &label, &args.scale);
            println!(
                "  [{:>18}] TT={:.3}h N={} TCA={:.1} MRR={:.3}",
                label, r.tt_hours, r.epochs, r.tca, r.mrr
            );
            rows.push(r);
        }
    }
    emit(
        args,
        "table4",
        "Table 4 / Fig 7 — negative sample selection (2 nodes, 1-bit)",
        &rows,
    );
}

/// Fig. 2: non-zero gradient rows shrink over training.
fn fig2(args: &Args) {
    let (ds, batch) = fb250k_bench(&args.scale);
    let m = Method {
        name: "allgather",
        strategy: StrategyConfig::baseline_allgather(1),
    };
    let rows = run_sweep(args, &ds, batch, &[m], &[4]);
    println!("\n== Fig 2 — non-zero gradient rows per batch over epochs ==");
    // `parse_args` refuses a fig2 whose one run the filters drop.
    for t in rows.iter().flat_map(|r| &r.report.trace) {
        println!("  epoch {:>3}: {:>10.1} rows", t.epoch, t.mean_nonzero_rows);
    }
    emit(args, "fig2", "Fig 2 — run summary", &rows);
}

/// Fig. 3: row-selection thresholds — accuracy and sparsity.
fn fig3(args: &Args) {
    let (ds, batch) = fb15k_bench(&args.scale);
    let base = StrategyConfig::baseline_allgather(10);
    let methods = vec![
        Method {
            name: "dense",
            strategy: base,
        },
        Method {
            name: "avg",
            strategy: StrategyConfig {
                row_select: RowSelector::Threshold { factor: 1.0 },
                ..base
            },
        },
        Method {
            name: "avgx0.1",
            strategy: StrategyConfig {
                row_select: RowSelector::Threshold { factor: 0.1 },
                ..base
            },
        },
        Method {
            name: "random-selection",
            strategy: StrategyConfig {
                row_select: RowSelector::paper_rs(),
                ..base
            },
        },
    ];
    let rows = run_sweep(args, &ds, batch, &methods, &[2]);
    println!("\n== Fig 3b — sparsity by selection policy ==");
    for r in &rows {
        let mean_sparsity: f64 = r.report.trace.iter().map(|t| t.rs_sparsity).sum::<f64>()
            / r.report.trace.len().max(1) as f64;
        println!("  {:>18}: mean sparsity {:.2}", r.method, mean_sparsity);
    }
    emit(args, "fig3", "Fig 3 — RS thresholds (TCA + sparsity)", &rows);
}

/// Fig. 4: 2-bit quantization with and without random selection.
fn fig4(args: &Args) {
    let (ds, batch) = fb15k_bench(&args.scale);
    let base = StrategyConfig {
        quant: QuantScheme::TwoBit,
        error_feedback: false,
        ..StrategyConfig::baseline_allgather(10)
    };
    let methods = vec![
        Method {
            name: "2-bit",
            strategy: base,
        },
        Method {
            name: "2-bit+RS",
            strategy: StrategyConfig {
                row_select: RowSelector::paper_rs(),
                ..base
            },
        },
    ];
    let rows = run_sweep(args, &ds, batch, &methods, &[2]);
    emit(args, "fig4", "Fig 4 — 2-bit quantization ± RS", &rows);
}

/// Fig. 5: 1-bit vs 2-bit quantization (with RS) over nodes.
fn fig5(args: &Args) {
    let (ds, batch) = fb15k_bench(&args.scale);
    let rs_gather = StrategyConfig {
        row_select: RowSelector::paper_rs(),
        error_feedback: false,
        ..StrategyConfig::baseline_allgather(10)
    };
    let methods = vec![
        Method {
            name: "1-bit",
            strategy: StrategyConfig {
                quant: QuantScheme::paper_one_bit(),
                ..rs_gather
            },
        },
        Method {
            name: "2-bit",
            strategy: StrategyConfig {
                quant: QuantScheme::TwoBit,
                ..rs_gather
            },
        },
    ];
    let rows = run_sweep(args, &ds, batch, &methods, &[2, 4, 8]);
    emit(args, "fig5", "Fig 5 — 1-bit vs 2-bit quantization (+RS)", &rows);
}

/// Fig. 6: relation partition on/off — convergence (FB15K) and epoch
/// time (FB250K).
fn fig6(args: &Args) {
    let (ds15, batch15) = fb15k_bench(&args.scale);
    let rs1bit = StrategyConfig {
        row_select: RowSelector::paper_rs(),
        quant: QuantScheme::paper_one_bit(),
        error_feedback: false,
        ..StrategyConfig::baseline_allgather(10)
    };
    let methods = vec![
        Method {
            name: "without-RP",
            strategy: rs1bit,
        },
        Method {
            name: "with-RP",
            strategy: StrategyConfig {
                relation_partition: true,
                ..rs1bit
            },
        },
    ];
    let rows15 = run_sweep(args, &ds15, batch15, &methods, &[4]);
    emit(args, "fig6a", "Fig 6a — RP convergence (FB15K, 4 nodes)", &rows15);

    let (ds250, batch250) = fb250k_bench(&args.scale);
    let rs1bit250 = StrategyConfig {
        neg: NegSampling::uniform(1),
        ..rs1bit
    };
    let methods250 = vec![
        Method {
            name: "without-RP",
            strategy: rs1bit250,
        },
        Method {
            name: "with-RP",
            strategy: StrategyConfig {
                relation_partition: true,
                ..rs1bit250
            },
        },
    ];
    let rows250 = run_sweep(args, &ds250, batch250, &methods250, &[4, 8, 16]);
    emit(args, "fig6b", "Fig 6b — RP epoch time (FB250K)", &rows250);
}

/// Fig. 8: FB15K combined-method comparison.
fn fig8(args: &Args) {
    let (ds, batch) = fb15k_bench(&args.scale);
    let methods = fb15k_methods(10, 10);
    let rows = run_sweep(args, &ds, batch, &methods, &[1, 2, 4, 8]);
    emit(args, "fig8", "Fig 8 — FB15K method comparison", &rows);
}

/// Ablations of the repo's design choices (DESIGN.md): error feedback
/// on/off, rescaled (unbiased) vs paper RS, forced update styles, and a
/// TernGrad-faithful max-scale 2-bit variant. Run at 4 nodes on the
/// FB15K-shaped set.
fn ablation(args: &Args) {
    use kge_compress::ScaleRule;
    use kge_train::UpdateStyle;
    let (ds, batch) = fb15k_bench(&args.scale);
    let base = StrategyConfig {
        row_select: RowSelector::paper_rs(),
        quant: QuantScheme::paper_one_bit(),
        error_feedback: false,
        ..StrategyConfig::baseline_allgather(10)
    };
    let methods = vec![
        Method { name: "combined-ref", strategy: base },
        Method {
            // EF with the max-scaled sign is NOT a contraction: expect
            // this row to collapse — the reason the default is off.
            name: "with-error-feedback",
            strategy: StrategyConfig { error_feedback: true, ..base },
        },
        Method {
            name: "rescaled-RS",
            strategy: StrategyConfig {
                row_select: RowSelector::Bernoulli { rescale: true },
                ..base
            },
        },
        Method {
            name: "1bit-avg-scale",
            strategy: StrategyConfig {
                quant: QuantScheme::OneBit { rule: ScaleRule::Avg },
                ..base
            },
        },
        Method {
            name: "1bit-posneg-max",
            strategy: StrategyConfig {
                quant: QuantScheme::OneBit { rule: ScaleRule::PosNegMax },
                ..base
            },
        },
        Method {
            name: "forced-dense-adam",
            strategy: StrategyConfig { update_style: UpdateStyle::Dense, ..base },
        },
    ];
    let rows = run_sweep(args, &ds, batch, &methods, &[4]);
    emit(args, "ablation", "Ablations — design choices (4 nodes)", &rows);
}

/// Extra experiment (paper §1): parameter-server baseline vs all-reduce
/// epoch time as workers scale — the architectural motivation.
fn ps(args: &Args) {
    use kge_train::{train_ps, TrainConfig};
    let (ds, batch) = fb15k_bench(&args.scale);
    let mut rows = Vec::new();
    for workers in [2usize, 4, 8] {
        if let Some(filter) = &args.nodes {
            if !filter.contains(&workers) {
                continue;
            }
        }
        let mut config = TrainConfig::new(RANK, batch, StrategyConfig::baseline_allreduce(1));
        config.max_epochs = 12;
        config.plateau_tolerance = 12;
        config.base_lr = 5e-3;
        config.seed = args.scale.seed;
        let cluster = simgrid::Cluster::new(workers, simgrid::ClusterSpec::cray_xc40());
        let ar = kge_train::train(&ds, &cluster, &config);
        let cluster_ps = simgrid::Cluster::new(workers + 1, simgrid::ClusterSpec::cray_xc40());
        let ps = train_ps(&ds, &cluster_ps, &config, 1);
        println!(
            "  workers={workers}: all-reduce {:.3}s/epoch vs PS {:.3}s/epoch",
            ar.report.mean_epoch_seconds(),
            ps.report.mean_epoch_seconds()
        );
        for (name, out) in [("allreduce-peers", ar), ("param-server", ps)] {
            rows.push(RunResult {
                dataset: ds.name.clone(),
                method: name.to_string(),
                nodes: workers,
                tt_hours: out.report.total_hours(),
                epochs: out.report.epochs,
                tca: 0.0,
                mrr: 0.0,
                epoch_seconds: out.report.mean_epoch_seconds(),
                allreduce_fraction: out.report.allreduce_fraction(),
                report: out.report,
            });
        }
    }
    emit(args, "ps", "PS vs all-reduce — epoch time by worker count", &rows);
}

/// Fig. 9: FB250K combined-method comparison.
fn fig9(args: &Args) {
    let (ds, batch) = fb250k_bench(&args.scale);
    let methods = fb250k_methods(1, 5);
    let rows = run_sweep(args, &ds, batch, &methods, &[1, 2, 4, 8, 16]);
    emit(args, "fig9", "Fig 9 — FB250K method comparison", &rows);
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("repro: {e}\n{USAGE}");
        std::process::exit(2);
    });
    for exp in &args.experiments {
        let (_, run) = EXPERIMENTS
            .iter()
            .find(|(e, _)| e == exp)
            .expect("parse_args checked every name");
        let t0 = std::time::Instant::now();
        println!("\n### running {exp} ###");
        run(&args);
        println!(
            "### {exp} done in {:.1}s (wall) ###",
            t0.elapsed().as_secs_f64()
        );
    }
}
