//! Determinism guarantees of the pipelined gradient exchange.
//!
//! Two properties, both bit-level:
//!
//! 1. **Staleness 0 collapses to the synchronous path.** A pipelined mode
//!    with an empty window must reproduce its synchronous base collective
//!    exactly — per-epoch losses, final model rows, and wire bytes — for
//!    every model × quantization combination, at any thread count.
//! 2. **A non-empty window is thread-count independent.** With staleness
//!    ≥ 1 the interleaving of launches and completions is fixed by batch
//!    index, and every stochastic stage draw comes from an RNG keyed on
//!    `(seed, rank, epoch, batch, stage)` — so 1-thread and 4-thread
//!    worker pools produce identical bits.
//!
//! A third, `replica_golden`, pins the replica trainer's clock, model,
//! wire bytes and counters to the bit over every exchange mode and world
//! size, in the style of `sharded_golden`.
//!
//! `scripts/check.sh` re-runs this binary under `KGE_FORCE_SCALAR=1`, so
//! both SIMD dispatch arms are covered.

use kge_compress::quant::QuantScheme;
use kge_data::synth::{generate, SynthConfig};
use kge_train::config::{CommMode, ModelKind, StrategyConfig, TrainConfig, UpdateStyle};
use kge_train::{train, TrainOutcome};
use simgrid::{Cluster, ClusterSpec, FaultPlan};
use std::sync::Mutex;

/// Tests in one binary run concurrently; every test that flips the
/// process-wide `RAYON_NUM_THREADS` serializes through this lock.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn dataset() -> kge_data::Dataset {
    generate(&SynthConfig {
        name: "pipeline".into(),
        n_entities: 120,
        n_relations: 8,
        n_triples: 1500,
        relation_zipf: 1.0,
        entity_zipf: 0.8,
        noise_frac: 0.05,
        valid_frac: 0.08,
        test_frac: 0.08,
        seed: 41,
    })
}

fn run(comm: CommMode, model: ModelKind, quant: QuantScheme, threads: usize) -> TrainOutcome {
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    let ds = dataset();
    let cluster = Cluster::new(2, ClusterSpec::cray_xc40());
    let mut strategy = StrategyConfig::baseline_allgather(2);
    strategy.comm = comm;
    strategy.quant = quant;
    let mut c = TrainConfig::new(4, 64, strategy);
    c.model = model;
    c.plateau_tolerance = 3;
    c.max_lr_drops = 1;
    c.max_epochs = 4;
    c.valid_samples = 64;
    c.base_lr = 5e-3;
    let out = train(&ds, &cluster, &c);
    std::env::remove_var("RAYON_NUM_THREADS");
    out
}

/// Bitwise comparison of everything the staleness-0 equivalence promises:
/// losses, model rows, and wire traffic.
fn assert_bit_identical(a: &TrainOutcome, b: &TrainOutcome, tag: &str) {
    assert_eq!(a.entities.as_slice(), b.entities.as_slice(), "{tag}: entity rows");
    assert_eq!(a.relations.as_slice(), b.relations.as_slice(), "{tag}: relation rows");
    assert_eq!(a.report.epochs, b.report.epochs, "{tag}: epochs");
    for (x, y) in a.report.trace.iter().zip(&b.report.trace) {
        assert_eq!(
            x.train_loss.to_bits(),
            y.train_loss.to_bits(),
            "{tag}: loss at epoch {}",
            x.epoch
        );
        assert_eq!(x.bytes_sent, y.bytes_sent, "{tag}: bytes at epoch {}", x.epoch);
        assert_eq!(
            x.sim_seconds.to_bits(),
            y.sim_seconds.to_bits(),
            "{tag}: sim time at epoch {}",
            x.epoch
        );
    }
    assert_eq!(a.report.wire_bytes_sent, b.report.wire_bytes_sent, "{tag}: wire sent");
    assert_eq!(a.report.wire_bytes_recv, b.report.wire_bytes_recv, "{tag}: wire recv");
}

#[test]
fn staleness_zero_reproduces_synchronous_allgather_bit_exactly() {
    let _guard = ENV_LOCK.lock().unwrap();
    for model in [ModelKind::ComplEx, ModelKind::DistMult, ModelKind::TransE] {
        for quant in [QuantScheme::None, QuantScheme::paper_one_bit()] {
            let sync = run(CommMode::AllGather, model, quant, 1);
            assert_eq!(sync.report.pipelined_epochs, 0);
            for threads in [1usize, 4] {
                let stale0 = run(CommMode::Pipelined { staleness: 0 }, model, quant, threads);
                // An empty window never runs the pipelined machinery.
                assert_eq!(stale0.report.pipelined_epochs, 0);
                assert_bit_identical(
                    &sync,
                    &stale0,
                    &format!("{model:?}/{quant:?}/{threads}t"),
                );
            }
        }
    }
}

#[test]
fn staleness_zero_reproduces_synchronous_allreduce_bit_exactly() {
    let _guard = ENV_LOCK.lock().unwrap();
    // Quantization only touches the gather wire path; one scheme suffices.
    for model in [ModelKind::ComplEx, ModelKind::DistMult, ModelKind::TransE] {
        let sync = run(CommMode::AllReduce, model, QuantScheme::None, 1);
        for threads in [1usize, 4] {
            let stale0 = run(
                CommMode::PipelinedAllReduce { staleness: 0 },
                model,
                QuantScheme::None,
                threads,
            );
            assert_eq!(stale0.report.pipelined_epochs, 0);
            assert_bit_identical(&sync, &stale0, &format!("{model:?}/allreduce/{threads}t"));
        }
    }
}

#[test]
fn pipelined_window_is_bit_identical_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    // TwoBit's dithered encoding draws from the stage RNG on every row —
    // the sharpest probe of stage-keyed determinism.
    for (comm, quant) in [
        (CommMode::Pipelined { staleness: 1 }, QuantScheme::None),
        (CommMode::Pipelined { staleness: 1 }, QuantScheme::paper_one_bit()),
        (CommMode::Pipelined { staleness: 2 }, QuantScheme::TwoBit),
        (CommMode::PipelinedAllReduce { staleness: 1 }, QuantScheme::None),
    ] {
        let a = run(comm, ModelKind::ComplEx, quant, 1);
        let b = run(comm, ModelKind::ComplEx, quant, 4);
        // Every epoch actually ran pipelined.
        assert_eq!(a.report.pipelined_epochs, a.report.epochs, "{comm:?}");
        assert_bit_identical(&a, &b, &format!("{comm:?}/{quant:?}"));
        assert_eq!(
            a.report.sim_total_seconds.to_bits(),
            b.report.sim_total_seconds.to_bits(),
            "{comm:?}: simulated time must not depend on host thread count"
        );
    }
}

#[test]
fn pipelined_run_is_deterministic_across_invocations() {
    let _guard = ENV_LOCK.lock().unwrap();
    let comm = CommMode::pipelined();
    let a = run(comm, ModelKind::ComplEx, QuantScheme::paper_one_bit(), 2);
    let b = run(comm, ModelKind::ComplEx, QuantScheme::paper_one_bit(), 2);
    assert_bit_identical(&a, &b, "repeat");
}

/// FNV-1a over a table's f32 bit patterns.
fn fnv(values: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One line of `replica_golden.txt`: everything a replica run reports on
/// the simulated clock, in bytes or in counters, with floats as bit
/// patterns so equality is exact.
fn golden_line(cell: &str, out: &TrainOutcome) -> String {
    let r = &out.report;
    let b = &r.breakdown;
    let bits = |xs: &[f64]| {
        let hex: Vec<String> = xs.iter().map(|x| format!("{:016x}", x.to_bits())).collect();
        hex.join(",")
    };
    let epochs: Vec<String> = r
        .trace
        .iter()
        .map(|t| {
            let mrr = t.ranking.map_or(0.0, |m| m.mrr);
            format!(
                "{}/{}/{}",
                bits(&[t.train_loss, t.sim_seconds, t.mean_rows_sent, t.valid_acc, mrr]),
                t.bytes_sent,
                t.lr_scale.to_bits(),
            )
        })
        .collect();
    format!(
        "{cell} | sim={} breakdown={} ent={:016x} rel={:016x} wire={}/{} \
         tallies={}/{}/{}/{}/{}/{}/{:?} nodes={}/{} epochs={} converged={} | {}",
        bits(&[r.sim_total_seconds]),
        bits(&[
            b.compute_s,
            b.comm_s,
            b.idle_s,
            b.fault_s,
            b.retry_s,
            b.checkpoint_s,
            b.overlap_s,
            b.hidden_comm_s
        ]),
        fnv(out.entities.as_slice()),
        fnv(out.relations.as_slice()),
        r.wire_bytes_sent,
        r.wire_bytes_recv,
        r.allreduce_epochs,
        r.allgather_epochs,
        r.pipelined_epochs,
        r.recoveries,
        r.rejoins,
        r.checkpoints_written,
        r.crashed_ranks,
        r.nodes,
        r.surviving_nodes,
        r.epochs,
        r.converged,
        epochs.join(" "),
    )
}

/// The combined strategy as the golden table runs it: RS + 1-bit + EF + RP
/// + SS under lazy Adam, at the given exchange mode.
fn combined(comm: CommMode) -> StrategyConfig {
    let mut s = StrategyConfig::combined(5);
    s.comm = comm;
    s.error_feedback = true;
    s.update_style = UpdateStyle::Lazy;
    s
}

fn golden_run(
    p: usize,
    strategy: StrategyConfig,
    epochs: usize,
    plan: Option<FaultPlan>,
) -> TrainOutcome {
    let mut cluster = Cluster::new(p, ClusterSpec::cray_xc40());
    if let Some(plan) = plan {
        cluster = cluster.with_fault_plan(plan);
    }
    let mut c = TrainConfig::new(4, 64, strategy);
    c.plateau_tolerance = 3;
    c.max_lr_drops = 1;
    c.max_epochs = epochs;
    c.valid_samples = 64;
    c.base_lr = 5e-3;
    train(&dataset(), &cluster, &c)
}

#[test]
fn replica_golden() {
    // The contract of the one-replica-step refactor (PR 22), pinned at its
    // parent commit: p x exchange mode x {plain all-gather, combined}
    // plus a 2-bit + EF cell, a crash-shrink and a crash-rejoin cell at
    // window 0 and window 1, and a per-epoch ranking-eval cell must
    // reproduce the recorded clock, breakdown, model, wire bytes, tallies
    // and per-epoch trace to the bit. The model hashes go through the
    // host's `exp`/`ln`, so the table is tied to this toolchain and libm;
    // to regenerate it after an *intended* change of trajectory or
    // pricing:
    //   1. cargo test --release -p kge-train --test pipeline_determinism replica_golden -- --nocapture \
    //        | grep '^p=' > /tmp/golden; mv /tmp/golden crates/kge-train/tests/replica_golden.txt
    //   2. git diff crates/kge-train/tests/replica_golden.txt   # every changed cell is a claim
    //   3. commit the file with the change that explains the diff
    let _guard = ENV_LOCK.lock().unwrap();
    let modes = [
        CommMode::AllReduce,
        CommMode::AllGather,
        CommMode::Pipelined { staleness: 0 },
        CommMode::Pipelined { staleness: 1 },
        CommMode::Pipelined { staleness: 2 },
        CommMode::PipelinedAllReduce { staleness: 1 },
        CommMode::Dynamic { check_every: 1 },
    ];
    let mut lines = Vec::new();
    for p in [1usize, 2, 3] {
        for comm in modes {
            let mut plain = StrategyConfig::baseline_allgather(2);
            plain.comm = comm;
            for (name, strategy) in [("allgather", plain), ("combined", combined(comm))] {
                let out = golden_run(p, strategy, 4, None);
                lines.push(golden_line(&format!("p={p} {comm:?} {name}"), &out));
            }
        }
    }

    let mut two_bit = combined(CommMode::AllGather);
    two_bit.quant = QuantScheme::TwoBit;
    lines.push(golden_line("p=2 AllGather twobit+ef", &golden_run(2, two_bit, 4, None)));

    for comm in [CommMode::AllGather, CommMode::Pipelined { staleness: 1 }] {
        let total = golden_run(3, combined(comm), 6, None).report.sim_total_seconds;
        let shrink = FaultPlan::seeded(7).with_crash(2, 0.4 * total);
        let out = golden_run(3, combined(comm), 6, Some(shrink));
        assert_eq!(out.report.recoveries, 1, "{comm:?}: the crash must trigger a shrink");
        lines.push(golden_line(&format!("p=3 {comm:?} combined crash"), &out));
        let rejoin = FaultPlan::seeded(7).with_crash_and_rejoin(2, 0.4 * total, 0.5 * total);
        let out = golden_run(3, combined(comm), 6, Some(rejoin));
        assert_eq!(out.report.rejoins, 1, "{comm:?}: the crashed rank must rejoin");
        lines.push(golden_line(&format!("p=3 {comm:?} combined rejoin"), &out));
    }

    let mut cluster_eval = TrainConfig::new(4, 64, StrategyConfig::baseline_allgather(2));
    cluster_eval.plateau_tolerance = 3;
    cluster_eval.max_lr_drops = 1;
    cluster_eval.max_epochs = 2;
    cluster_eval.valid_samples = 64;
    cluster_eval.base_lr = 5e-3;
    cluster_eval.eval_every = 1;
    let out = train(&dataset(), &Cluster::new(2, ClusterSpec::cray_xc40()), &cluster_eval);
    assert!(out.report.trace.iter().all(|t| t.ranking.is_some()), "eval ran every epoch");
    lines.push(golden_line("p=2 AllGather allgather eval", &out));

    for line in &lines {
        println!("{line}");
    }
    let golden = include_str!("replica_golden.txt");
    for (want, got) in golden.lines().zip(&lines) {
        assert_eq!(want, got, "golden cell moved");
    }
    assert_eq!(golden.lines().count(), lines.len(), "golden cell count");
}
