//! Resume equivalence: checkpoint-at-k then resume must be bit-identical
//! to the uninterrupted run.
//!
//! Every cell runs three legs from one seed:
//!
//! - **A** — the uninterrupted run: `max_epochs` epochs with periodic
//!   checkpointing enabled (`checkpoint_every = CKPT_AT`).
//! - **B1** — the "crashed" run: identical config but stopped after
//!   `CKPT_AT` epochs, leaving a checkpoint on disk.
//! - **B2** — the resumed run: `resume_from` B1's checkpoint directory,
//!   full `max_epochs`, checkpointing still enabled so the simulated
//!   clock charges the same `checkpoint_s` as leg A.
//!
//! B2 must equal A bit-for-bit: final loss history, every entity and
//! relation row, per-epoch simulated clocks and wire bytes — i.e. the
//! resumed run replays every RNG draw, quantization dither, and f32
//! summation of the run it replaces. `scripts/check.sh` re-runs this
//! binary under `KGE_FORCE_SCALAR=1` to cover both SIMD dispatch arms.
//! Beside the matrix, the insurance premium: what a checkpoint every
//! other epoch costs on the simulated clock.

use kge_compress::quant::QuantScheme;
use kge_data::synth::{generate, SynthConfig, SynthPreset};
use kge_train::config::{CommMode, ModelKind, OptimizerKind, StrategyConfig, TrainConfig};
use kge_train::{train, TrainOutcome};
use simgrid::{Cluster, ClusterSpec};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Epoch count of the full run and the epoch the "crashed" leg stops at.
const FULL_EPOCHS: usize = 4;
const CKPT_AT: usize = 2;

/// Tests in one binary run concurrently; every test that flips the
/// process-wide `RAYON_NUM_THREADS` serializes through this lock.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Unique scratch directories: tests run concurrently in one process and
/// the same binary may run twice (plain + forced-scalar) side by side.
static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "kge-resume-{}-{}-{}",
        std::process::id(),
        tag,
        n
    ))
}

fn dataset() -> kge_data::Dataset {
    generate(&SynthConfig {
        name: "resume".into(),
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

#[derive(Clone, Copy)]
struct Cell {
    model: ModelKind,
    comm: CommMode,
    quant: QuantScheme,
    optimizer: OptimizerKind,
    threads: usize,
}

fn config_for(cell: &Cell) -> TrainConfig {
    let mut strategy = StrategyConfig::baseline_allgather(2);
    strategy.comm = cell.comm;
    strategy.quant = cell.quant;
    let mut c = TrainConfig::new(4, 64, strategy);
    c.model = cell.model;
    c.optimizer = cell.optimizer;
    c.plateau_tolerance = 3;
    c.max_lr_drops = 1;
    c.max_epochs = FULL_EPOCHS;
    c.valid_samples = 64;
    c.base_lr = 5e-3;
    c
}

fn run_leg(
    cell: &Cell,
    max_epochs: usize,
    ckpt_dir: &Path,
    resume_from: Option<&Path>,
) -> TrainOutcome {
    std::env::set_var("RAYON_NUM_THREADS", cell.threads.to_string());
    let ds = dataset();
    let cluster = Cluster::new(2, ClusterSpec::cray_xc40());
    let mut c = config_for(cell);
    c.max_epochs = max_epochs;
    c.checkpoint_every = CKPT_AT;
    c.checkpoint_dir = Some(ckpt_dir.to_path_buf());
    c.resume_from = resume_from.map(Path::to_path_buf);
    let out = train(&ds, &cluster, &c);
    std::env::remove_var("RAYON_NUM_THREADS");
    out
}

/// Run the three legs for one cell and assert B2 ≡ A bit-for-bit.
fn assert_resume_equivalent(cell: &Cell, tag: &str) {
    let dir_a = scratch_dir("a");
    let dir_b = scratch_dir("b");

    let a = run_leg(cell, FULL_EPOCHS, &dir_a, None);
    let b1 = run_leg(cell, CKPT_AT, &dir_b, None);
    assert_eq!(
        b1.report.checkpoints_written, 1,
        "{tag}: interrupted leg must leave exactly one checkpoint"
    );
    let b2 = run_leg(cell, FULL_EPOCHS, &dir_b, Some(&dir_b));

    assert_eq!(
        a.entities.as_slice(),
        b2.entities.as_slice(),
        "{tag}: entity rows"
    );
    assert_eq!(
        a.relations.as_slice(),
        b2.relations.as_slice(),
        "{tag}: relation rows"
    );
    assert_eq!(a.report.epochs, b2.report.epochs, "{tag}: epochs");
    assert_eq!(a.report.converged, b2.report.converged, "{tag}: converged");
    assert_eq!(
        a.report.checkpoints_written, b2.report.checkpoints_written,
        "{tag}: checkpoint tally carries across the resume"
    );
    assert_eq!(
        a.report.allreduce_epochs, b2.report.allreduce_epochs,
        "{tag}: allreduce tally"
    );
    assert_eq!(
        a.report.allgather_epochs, b2.report.allgather_epochs,
        "{tag}: allgather tally"
    );
    assert_eq!(
        a.report.pipelined_epochs, b2.report.pipelined_epochs,
        "{tag}: pipelined tally"
    );
    for (x, y) in a.report.trace.iter().zip(&b2.report.trace) {
        assert_eq!(
            x.train_loss.to_bits(),
            y.train_loss.to_bits(),
            "{tag}: loss at epoch {}",
            x.epoch
        );
        assert_eq!(
            x.valid_acc.to_bits(),
            y.valid_acc.to_bits(),
            "{tag}: valid acc at epoch {}",
            x.epoch
        );
        assert_eq!(
            x.sim_seconds.to_bits(),
            y.sim_seconds.to_bits(),
            "{tag}: sim clock at epoch {}",
            x.epoch
        );
        assert_eq!(x.bytes_sent, y.bytes_sent, "{tag}: bytes at epoch {}", x.epoch);
    }
    assert_eq!(
        a.report.sim_total_seconds.to_bits(),
        b2.report.sim_total_seconds.to_bits(),
        "{tag}: total simulated time"
    );

    for d in [dir_a, dir_b] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn resume_matrix_synchronous_allgather() {
    let _guard = ENV_LOCK.lock().unwrap();
    for model in [ModelKind::ComplEx, ModelKind::DistMult, ModelKind::TransE] {
        for quant in [QuantScheme::None, QuantScheme::paper_one_bit()] {
            for threads in [1usize, 4] {
                let cell = Cell {
                    model,
                    comm: CommMode::AllGather,
                    quant,
                    optimizer: OptimizerKind::Adam,
                    threads,
                };
                assert_resume_equivalent(
                    &cell,
                    &format!("{model:?}/allgather/{quant:?}/{threads}t"),
                );
            }
        }
    }
}

#[test]
fn resume_matrix_pipelined() {
    let _guard = ENV_LOCK.lock().unwrap();
    // The pipelined window is where the RNG-stream bookkeeping is
    // sharpest: stage-keyed draws for row selection and dither, plus the
    // in-flight slot protocol straddling the checkpoint epoch boundary
    // (the window drains at epoch end, so the boundary is clean).
    for model in [ModelKind::ComplEx, ModelKind::DistMult, ModelKind::TransE] {
        for quant in [QuantScheme::None, QuantScheme::paper_one_bit()] {
            for threads in [1usize, 4] {
                let cell = Cell {
                    model,
                    comm: CommMode::Pipelined { staleness: 1 },
                    quant,
                    optimizer: OptimizerKind::Adam,
                    threads,
                };
                assert_resume_equivalent(
                    &cell,
                    &format!("{model:?}/pipelined/{quant:?}/{threads}t"),
                );
            }
        }
    }
}

#[test]
fn resume_preserves_dynamic_selector_state() {
    let _guard = ENV_LOCK.lock().unwrap();
    // check_every = 2 puts the selector mid-probe at the checkpoint epoch:
    // the snapshot must carry the probe state machine, not just the arm.
    let cell = Cell {
        model: ModelKind::ComplEx,
        comm: CommMode::Dynamic { check_every: 2 },
        quant: QuantScheme::paper_one_bit(),
        optimizer: OptimizerKind::Adam,
        threads: 2,
    };
    assert_resume_equivalent(&cell, "dynamic/check2");
}

#[test]
fn resume_preserves_adagrad_accumulators() {
    let _guard = ENV_LOCK.lock().unwrap();
    let cell = Cell {
        model: ModelKind::DistMult,
        comm: CommMode::AllReduce,
        quant: QuantScheme::None,
        optimizer: OptimizerKind::Adagrad,
        threads: 2,
    };
    assert_resume_equivalent(&cell, "adagrad/allreduce");
}

#[test]
fn resume_from_missing_or_mismatched_checkpoint_fails_loudly() {
    let _guard = ENV_LOCK.lock().unwrap();
    let dir = scratch_dir("bad");
    let cell = Cell {
        model: ModelKind::ComplEx,
        comm: CommMode::AllGather,
        quant: QuantScheme::None,
        optimizer: OptimizerKind::Adam,
        threads: 1,
    };
    // Missing checkpoint directory: the run must panic, not silently
    // train from scratch while claiming to resume.
    let missing = dir.clone();
    let c = cell;
    let res = std::panic::catch_unwind(move || run_leg(&c, FULL_EPOCHS, &missing, Some(&missing)));
    assert!(res.is_err(), "resume from a missing checkpoint must fail");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn checkpoint_every_two_epochs_costs_under_a_fifth_of_the_clock() {
    // The write is priced on the simulated clock, so the share is exact.
    // FB15K-like x0.02, batch 200, rank 8, 4 ranks, 8 epochs.
    let dir = scratch_dir("share");
    let ds = generate(&SynthPreset::Fb15kLike.config(0.02, 7));
    let mut c = TrainConfig::new(8, 200, StrategyConfig::baseline_allreduce(2));
    c.max_epochs = 8;
    c.plateau_tolerance = 3;
    c.max_lr_drops = 1;
    c.valid_samples = 128;
    c.seed = 7;
    c.base_lr = 5e-3;
    c.checkpoint_every = 2;
    c.checkpoint_dir = Some(dir.clone());
    let r = train(&ds, &Cluster::new(4, ClusterSpec::cray_xc40()), &c).report;
    let _ = std::fs::remove_dir_all(dir);
    assert!(
        r.checkpoints_written > 0 && r.breakdown.checkpoint_s > 0.0,
        "no checkpoint work recorded"
    );
    let share = r.breakdown.checkpoint_s / r.sim_total_seconds;
    assert!(share < 0.2, "checkpoint_s is {:.1} % of simulated time", 100.0 * share);
}
