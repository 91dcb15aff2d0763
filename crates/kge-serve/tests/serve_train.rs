//! Serve-while-training integration: snapshots published mid-training
//! carry exactly the checkpoint-derived model bytes, publishing cost on
//! the simulated clock stays within the ISSUE budget, and a hub-fed
//! engine answers queries from the freshest generation.

use std::sync::Arc;

use kge_data::synth::{generate, SynthConfig};
use kge_serve::{Query, ServeEngine, SnapshotHub};
use kge_train::{
    checkpoint, train, train_with_snapshots, RecordingSink, StrategyConfig, TrainConfig,
};
use simgrid::{Cluster, ClusterSpec};

fn dataset() -> kge_data::Dataset {
    generate(&SynthConfig {
        name: "serve-train".into(),
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
    c
}

/// A snapshot published at an epoch boundary must equal the checkpoint
/// written at the same boundary, bit-for-bit, on both tables.
#[test]
fn published_snapshot_equals_checkpoint_bytes() {
    let ds = dataset();
    let dir = std::env::temp_dir().join(format!("kge-serve-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("ckpt dir");
    let mut cfg = config();
    cfg.max_epochs = 4;
    cfg.checkpoint_every = 2;
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.serve_snapshots = 2;
    let sink = RecordingSink::new();
    let cluster = Cluster::new(2, ClusterSpec::cray_xc40());
    let out = train_with_snapshots(&ds, &cluster, &cfg, Some(&sink));
    assert_eq!(out.report.epochs, 4);

    let snaps = sink.snapshots();
    assert_eq!(snaps.len(), 2, "cadence 2 over 4 epochs publishes twice");
    assert_eq!(snaps[0].epochs_done, 2);
    assert_eq!(snaps[1].epochs_done, 4);
    assert!(snaps[0].sim_now_s < snaps[1].sim_now_s);

    // The final checkpoint was written at the epoch-4 boundary, the same
    // boundary as the second publication: identical model bytes.
    let ckpt = checkpoint::read_file(&checkpoint::checkpoint_path(&dir, 0)).expect("read ckpt");
    assert_eq!(ckpt.next_epoch, 4);
    assert_eq!(snaps[1].ent, ckpt.ent.as_slice(), "entity bytes diverge");
    assert_eq!(snaps[1].rel, ckpt.rel.as_slice(), "relation bytes diverge");

    // And the final published model is the trainer's final model.
    assert_eq!(snaps[1].ent, out.entities.as_slice());
    assert_eq!(snaps[1].rel, out.relations.as_slice());
    std::fs::remove_dir_all(&dir).ok();
}

/// Snapshot publishing must not perturb training: the model bytes with
/// publishing on equal the plain run's exactly, and the simulated-time
/// overhead at cadence 1 stays ≤ 5%.
#[test]
fn publishing_is_nonintrusive_and_cheap() {
    let ds = dataset();
    let base_cfg = config();
    let cluster = Cluster::new(2, ClusterSpec::cray_xc40());
    let base = train(&ds, &cluster, &base_cfg);

    let mut snap_cfg = config();
    snap_cfg.serve_snapshots = 1;
    let sink = RecordingSink::new();
    let with_snaps = train_with_snapshots(&ds, &cluster, &snap_cfg, Some(&sink));

    assert_eq!(
        base.entities.as_slice(),
        with_snaps.entities.as_slice(),
        "publishing changed the trained model"
    );
    assert_eq!(sink.snapshots().len(), with_snaps.report.epochs);
    let t0 = base.report.sim_total_seconds;
    let t1 = with_snaps.report.sim_total_seconds;
    assert!(t1 >= t0, "publishing charges nonzero simulated time");
    assert!(
        t1 <= t0 * 1.05,
        "cadence-1 publishing overhead {:.2}% exceeds 5% ({t0} -> {t1})",
        (t1 / t0 - 1.0) * 100.0
    );
}

/// End-to-end: feed a `SnapshotHub` from training, then serve top-k from
/// the latest generation and check it against the engine's oracle.
#[test]
fn hub_fed_engine_serves_final_generation() {
    let ds = dataset();
    let mut cfg = config();
    // Cadence 1: every epoch becomes a generation, so the hub's latest
    // is the final model no matter where convergence stops the run.
    cfg.serve_snapshots = 1;
    let hub = SnapshotHub::new(Arc::from(cfg.model.build(cfg.rank)));
    let cluster = Cluster::new(2, ClusterSpec::cray_xc40());
    let out = train_with_snapshots(&ds, &cluster, &cfg, Some(&hub));

    assert_eq!(hub.generation() as usize, out.report.epochs);
    let snap = hub.latest().expect("training published at least once");
    assert_eq!(snap.ent().as_slice(), out.entities.as_slice());
    assert_eq!(snap.n_entities(), ds.n_entities);

    let mut engine = ServeEngine::new(snap);
    for head in [0u32, 7, 63] {
        let q = Query { head, rel: 1, k: 10, filtered: false };
        engine.submit(q);
        engine.drain();
        let got = engine.results().get(0).to_vec();
        assert_eq!(got.len(), 10);
        assert_eq!(got, engine.oracle(&q), "head {head}");
    }
}
