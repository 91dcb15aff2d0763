//! Strategy × interconnect × exchange-mode matrix: each of the paper's
//! five strategies (DRS, row selection, quantization, relation partition,
//! sample selection) trains to a finite loss on both an ideal (zero-cost)
//! and a Cray-XC40-like network, in both synchronous and pipelined
//! exchange modes, with a monotone simulated clock and exact wire-level
//! traffic conservation (Σ bytes sent == Σ bytes received across ranks).
//! Pipelining may only hide communication behind compute, so for every
//! cell the pipelined run must not take longer than its synchronous twin;
//! on a communication-bound shape it must hide most of the collective.

use kge_compress::quant::QuantScheme;
use kge_data::synth::{generate, SynthConfig, SynthPreset};
use kge_train::config::{CommMode, NegSampling, StrategyConfig, TrainConfig};
use kge_train::report::TrainOutcome;
use kge_train::train;
use simgrid::{Cluster, ClusterSpec};

fn dataset() -> kge_data::Dataset {
    generate(&SynthConfig {
        name: "matrix".into(),
        n_entities: 120,
        n_relations: 8,
        n_triples: 1500,
        relation_zipf: 1.0,
        entity_zipf: 0.8,
        noise_frac: 0.05,
        valid_frac: 0.08,
        test_frac: 0.08,
        seed: 23,
    })
}

/// One strategy flag flipped on per entry, against the all-reduce
/// baseline — the paper's ablation axes.
fn strategies() -> Vec<(&'static str, StrategyConfig)> {
    let mut drs = StrategyConfig::baseline_allreduce(2);
    drs.comm = CommMode::Dynamic { check_every: 2 };

    let mut rs = StrategyConfig::baseline_allgather(2);
    rs.row_select = kge_compress::RowSelector::paper_rs();

    let mut quant = StrategyConfig::baseline_allgather(2);
    quant.quant = QuantScheme::paper_one_bit();

    let mut rp = StrategyConfig::baseline_allgather(2);
    rp.relation_partition = true;

    let mut ss = StrategyConfig::baseline_allreduce(2);
    ss.neg = NegSampling::select(1, 4);

    vec![
        ("drs", drs),
        ("row-select", rs),
        ("quantization", quant),
        ("relation-partition", rp),
        ("sample-selection", ss),
    ]
}

/// Map a strategy's collective to its pipelined variant (window 1).
/// Dynamic stays dynamic — DRS probes the pipelined arms on its own.
fn pipelined(mut s: StrategyConfig) -> StrategyConfig {
    s.comm = match s.comm {
        CommMode::AllReduce => CommMode::PipelinedAllReduce { staleness: 1 },
        CommMode::AllGather => CommMode::Pipelined { staleness: 1 },
        other => other,
    };
    s
}

fn run(ds: &kge_data::Dataset, spec: &ClusterSpec, strategy: StrategyConfig) -> TrainOutcome {
    let cluster = Cluster::new(4, spec.clone());
    let mut c = TrainConfig::new(4, 64, strategy);
    c.plateau_tolerance = 3;
    c.max_lr_drops = 1;
    c.max_epochs = 4;
    c.valid_samples = 64;
    c.base_lr = 5e-3;
    train(ds, &cluster, &c)
}

fn assert_invariants(out: &TrainOutcome, tag: &str) {
    let r = &out.report;

    assert_eq!(r.epochs, r.trace.len(), "{tag}");
    assert!(r.epochs > 0, "{tag}");
    assert_eq!(r.surviving_nodes, 4, "{tag}");
    assert_eq!(r.recoveries, 0, "{tag}");
    assert!(r.crashed_ranks.is_empty(), "{tag}");

    // Finite loss everywhere, and the model actually moved.
    for t in &r.trace {
        assert!(t.train_loss.is_finite(), "{tag} epoch {}", t.epoch);
        assert!(t.valid_acc.is_finite(), "{tag} epoch {}", t.epoch);
    }
    assert!(out.entities.as_slice().iter().all(|v| v.is_finite()), "{tag}");

    // Monotone simulated clock: every epoch costs nonnegative time and
    // the total is at least the sum of the parts.
    let mut sum = 0.0;
    for t in &r.trace {
        assert!(t.sim_seconds >= 0.0, "{tag} epoch {}", t.epoch);
        sum += t.sim_seconds;
    }
    assert!(
        r.sim_total_seconds >= sum * (1.0 - 1e-9),
        "{tag}: total {} < epoch sum {sum}",
        r.sim_total_seconds
    );
    // Real networks take real time; ideal networks still charge compute.
    assert!(r.sim_total_seconds > 0.0, "{tag}");

    // Exact wire conservation across all four ranks.
    assert!(r.wire_bytes_sent > 0, "{tag}: nothing communicated?");
    assert_eq!(
        r.wire_bytes_sent, r.wire_bytes_recv,
        "{tag}: wire bytes not conserved"
    );
}

#[test]
fn five_strategies_on_two_interconnects_sync_and_pipelined() {
    let ds = dataset();
    for (spec_name, spec) in [
        ("ideal", ClusterSpec::ideal()),
        ("cray_xc40", ClusterSpec::cray_xc40()),
    ] {
        for (strat_name, strategy) in strategies() {
            let tag = format!("{strat_name}/{spec_name}");
            let sync = run(&ds, &spec, strategy);
            assert_invariants(&sync, &format!("{tag}/sync"));

            let piped = run(&ds, &spec, pipelined(strategy));
            assert_invariants(&piped, &format!("{tag}/pipelined"));

            // Overlap can only hide time, never add it. DRS maps to
            // itself, where the comparison degenerates to equality. The
            // 1% slack covers strategies with stochastic row selection:
            // the pipelined launch draws from a stage-keyed RNG, not the
            // node RNG, so the selected rows (and their flop charges)
            // differ by a hair even though the exchange itself is never
            // dearer.
            assert!(
                piped.report.sim_total_seconds
                    <= sync.report.sim_total_seconds * 1.01,
                "{tag}: pipelined {} slower than synchronous {}",
                piped.report.sim_total_seconds,
                sync.report.sim_total_seconds
            );
        }
    }
}

#[test]
fn pipelined_allreduce_hides_the_comm_bound_collective() {
    // The synchronous against the pipelined dense exchange; everything
    // asserted is on the simulated clock, so it is exact. FB15K-like
    // x0.02, batch 200, rank 32, 4 ranks, 6 epochs.
    let ds = generate(&SynthPreset::Fb15kLike.config(0.02, 7));
    let arm = |comm, spec: &ClusterSpec| {
        let mut strategy = StrategyConfig::baseline_allreduce(2);
        strategy.comm = comm;
        let mut c = TrainConfig::new(32, 200, strategy);
        c.max_epochs = 6;
        c.plateau_tolerance = 3;
        c.max_lr_drops = 1;
        c.valid_samples = 64;
        c.seed = 7;
        c.base_lr = 5e-3;
        train(&ds, &Cluster::new(4, spec.clone()), &c).report
    };
    let piped = CommMode::PipelinedAllReduce { staleness: 1 };

    // Communication-bound: on the stock Cray an epoch's collective costs
    // more than its compute, so batch N's exchange riding behind batch
    // N+1's compute brings the run toward max(compute, comm) instead of
    // their sum; 1.15x leaves room for the un-overlapped first launch,
    // the drain and validation.
    let stock = ClusterSpec::cray_xc40();
    let (sync, ring) = (arm(CommMode::AllReduce, &stock), arm(piped, &stock));
    let (sync_s, ring_s) = (sync.sim_total_seconds, ring.sim_total_seconds);
    assert!(ring_s <= 0.7 * sync_s, "pipelined {ring_s:.4} sim-s exceeds 0.7x sync {sync_s:.4}");
    let bound = sync.breakdown.compute_s.max(sync.breakdown.comm_s);
    assert!(
        ring_s <= 1.15 * bound,
        "pipelined {ring_s:.4} sim-s exceeds 1.15x max(compute, comm) = {bound:.4}"
    );

    // Compute-bound: 4x the bandwidth puts the collective below the
    // compute; nearly all of it hides and the pipeline is never slower.
    let fast = ClusterSpec {
        bandwidth_bps: stock.bandwidth_bps * 4.0,
        ..stock
    };
    let (sync, ring) = (arm(CommMode::AllReduce, &fast), arm(piped, &fast));
    assert!(
        sync.breakdown.compute_s > sync.breakdown.comm_s,
        "4x bandwidth left the run communication-bound"
    );
    assert!(
        ring.sim_total_seconds <= sync.sim_total_seconds * (1.0 + 1e-9),
        "compute-bound pipelined {} sim-s slower than sync {}",
        ring.sim_total_seconds,
        sync.sim_total_seconds
    );
}
