//! Sharded-trainer equivalence and determinism guards.
//!
//! The load-bearing claim of the sharded store is that partitioning the
//! entity table changes *where* rows live, never *what* is computed:
//! with f32 cold storage, a sharded run — with or without the hot cache
//! — is **bit-identical** to the full-replica all-gather trainer on the
//! same config, at 1 and 4 worker threads. Int8 cold storage follows a
//! different (quantized) trajectory but must be deterministic
//! run-to-run, and crash recovery (shrink + state migration) must both
//! complete and be deterministic. One `#[ignore]`d cell (about two minutes;
//! `scripts/check.sh` runs it with `--ignored`) holds the point of it all:
//! at the full FB250K shape a rank keeps well under half the replica.

use kge_data::synth::{generate, SynthConfig, SynthPreset};
use kge_train::{train, PrefetchMode, ShardedConfig, StrategyConfig, TrainConfig, TrainOutcome};
use simgrid::{Cluster, ClusterSpec, FaultPlan};

fn sharded_cfg(hot_cache_rows: usize, cold_int8: bool) -> ShardedConfig {
    ShardedConfig {
        hot_cache_rows,
        cold_int8,
        prefetch: PrefetchMode::On,
    }
}

fn dataset() -> kge_data::Dataset {
    generate(&SynthConfig {
        name: "sharded-det".into(),
        n_entities: 180,
        n_relations: 10,
        n_triples: 2400,
        relation_zipf: 1.0,
        entity_zipf: 0.9,
        noise_frac: 0.05,
        valid_frac: 0.08,
        test_frac: 0.08,
        seed: 23,
    })
}

fn config(nodes_batch: usize, sharded: Option<ShardedConfig>) -> TrainConfig {
    let mut c = TrainConfig::new(4, nodes_batch, StrategyConfig::baseline_allgather(2));
    c.plateau_tolerance = 3;
    c.max_lr_drops = 1;
    c.max_epochs = 4;
    // Sharded mode defers ranking/validation to post-training eval; the
    // replica reference must run the same (constant) plateau signal.
    c.valid_samples = 0;
    c.base_lr = 5e-3;
    c.sharded = sharded;
    c
}

fn run(
    p: usize,
    threads: usize,
    batch: usize,
    sharded: Option<ShardedConfig>,
    plan: Option<FaultPlan>,
) -> TrainOutcome {
    // The per-node pool honors RAYON_NUM_THREADS (see
    // `trainer::node_pool_threads`); tests in this binary run serially
    // within each #[test], and each run resets the variable.
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    let ds = dataset();
    let mut cluster = Cluster::new(p, ClusterSpec::cray_xc40());
    if let Some(plan) = plan {
        cluster = cluster.with_fault_plan(plan);
    }
    let out = train(&ds, &cluster, &config(batch, sharded));
    std::env::remove_var("RAYON_NUM_THREADS");
    out
}

fn assert_same_model(a: &TrainOutcome, b: &TrainOutcome, tag: &str) {
    assert_eq!(
        a.entities.as_slice(),
        b.entities.as_slice(),
        "{tag}: entities diverged"
    );
    assert_eq!(
        a.relations.as_slice(),
        b.relations.as_slice(),
        "{tag}: relations diverged"
    );
    assert_eq!(a.report.epochs, b.report.epochs, "{tag}: epoch count");
}

#[test]
fn sharded_config_sweep_matches_replica() {
    // Small proptest-style sweep over (world size, batch size, cache
    // capacity): every cell must agree with its replica reference.
    for (p, batch, cache) in [
        (2usize, 32usize, 8usize),
        (2, 96, 64),
        (3, 48, 16),
        (4, 32, 128),
    ] {
        let replica = run(p, 1, batch, None, None);
        let sharded = run(p, 1, batch, Some(sharded_cfg(cache, false)), None);
        assert_same_model(&replica, &sharded, &format!("p={p} batch={batch} cache={cache}"));
    }
}

#[test]
fn sharded_f32_matches_replica_bit_for_bit() {
    // The prefetch ring changes *when* rows move, never what is computed:
    // with f32 storage, sharded runs — any thread count, cache on or off
    // — must be bit-identical to the full-replica trainer (hot rows only
    // change which aggregate carries a gradient, never its f32 summation
    // order), and their simulated timelines must agree across thread
    // counts.
    for p in [1usize, 4] {
        let replica = run(p, 1, 64, None, None);
        for cache in [0usize, 32] {
            let mut sim_bits = None;
            for threads in [1usize, 4] {
                let sharded = run(p, threads, 64, Some(sharded_cfg(cache, false)), None);
                let tag = format!("p={p} cache={cache} threads={threads}");
                assert_same_model(&replica, &sharded, &tag);
                let bits = sharded.report.sim_total_seconds.to_bits();
                if let Some(prev) = sim_bits {
                    assert_eq!(prev, bits, "{tag}: timeline diverged across threads");
                }
                sim_bits = Some(bits);
                let sh = sharded.report.sharded.expect("sharded report attached");
                assert!(
                    sh.resident_model_bytes < sh.replica_model_bytes || p == 1,
                    "{tag}: sharding must shrink the per-rank resident model"
                );
                if cache > 0 && p > 1 {
                    assert!(sh.cache_accesses > 0, "{tag}: touch counter dead");
                }
                if p > 1 {
                    assert!(
                        sh.hidden_pull_s > 0.0,
                        "{tag}: prefetched pulls hid no seconds"
                    );
                    assert!(
                        sh.hidden_push_s > 0.0,
                        "{tag}: deferred pushes hid no seconds"
                    );
                }
            }
        }
    }
}

#[test]
fn sharded_int8_cold_storage_is_deterministic() {
    // Int8-at-rest quantizes the cold tier, so it is *not* bit-equal to
    // the replica — but two runs (across thread counts) must agree
    // exactly, and the trained model must stay close to the f32 one.
    let cfg = Some(sharded_cfg(32, true));
    let a = run(4, 1, 64, cfg, None);
    let b = run(4, 4, 64, cfg, None);
    assert_same_model(&a, &b, "int8 threads=1 vs 4");
    assert_eq!(
        a.report.sim_total_seconds.to_bits(),
        b.report.sim_total_seconds.to_bits(),
        "int8 timeline diverged"
    );

    let f32_run = run(4, 1, 64, None, None);
    let (qa, fa) = (a.entities.as_slice(), f32_run.entities.as_slice());
    let max_abs = qa
        .iter()
        .zip(fa)
        .map(|(x, y)| (x - y).abs())
        .fold(0f32, f32::max);
    assert!(
        max_abs < 0.05,
        "int8 cold tier drifted {max_abs} from the f32 model"
    );
}

#[test]
fn sharded_crash_recovery_shrinks_and_stays_deterministic() {
    // Crash rank 2 partway through, while the prefetch ring has a
    // launched slot and deferred push charges in flight: the shrink drops
    // the undelivered wire messages with the old world (each counted
    // received by its addressee, so wire bytes stay conserved) and the
    // ring resets; survivors migrate cached + exchanged rows onto the new
    // ownership map and finish — and the whole recovery trajectory stays
    // bit-reproducible across thread counts.
    let fault_free = run(4, 1, 64, None, None);
    let total = fault_free.report.sim_total_seconds;
    let cfg = Some(sharded_cfg(32, false));
    let plan = || FaultPlan::seeded(7).with_crash(2, 0.4 * total);
    let a = run(4, 1, 64, cfg, Some(plan()));
    let b = run(4, 4, 64, cfg, Some(plan()));
    assert_eq!(a.report.recoveries, 1, "the crash must trigger a shrink");
    assert_eq!(a.report.surviving_nodes, 3);
    assert_eq!(a.report.crashed_ranks, vec![2]);
    assert!(
        a.report.epochs > 0,
        "survivors must keep training after the shrink"
    );
    assert_eq!(
        a.report.wire_bytes_sent, a.report.wire_bytes_recv,
        "crash mid-ring lost wire bytes"
    );
    assert_same_model(&a, &b, "crash mid-ring threads=1 vs 4");
    assert_eq!(
        a.report.sim_total_seconds.to_bits(),
        b.report.sim_total_seconds.to_bits(),
        "mid-ring recovery timeline diverged"
    );
}

#[test]
fn sharded_crash_and_rejoin_plan_shrinks_without_regrowing() {
    // Sharded storage has no elastic rejoin: the epoch loop re-grows only
    // replicas. Under a plan that brings rank 2 back up, the survivors
    // must shrink once and never re-admit it, conserve wire bytes (the
    // messages the crash strands are counted at their addressees), and
    // reproduce the whole report to the bit.
    let total = run(4, 1, 64, None, None).report.sim_total_seconds;
    let plan = || FaultPlan::seeded(7).with_crash_and_rejoin(2, 0.4 * total, 0.5 * total);
    for cache in [0usize, 32] {
        let cfg = Some(sharded_cfg(cache, false));
        let a = run(4, 1, 64, cfg, Some(plan()));
        let b = run(4, 1, 64, cfg, Some(plan()));
        let tag = format!("cache={cache} crash+rejoin");
        let r = &a.report;
        assert_eq!(
            (r.rejoins, r.recoveries, r.surviving_nodes),
            (0, 1, 3),
            "{tag}: rejoins, recoveries, surviving ranks"
        );
        assert_eq!(r.wire_bytes_sent, r.wire_bytes_recv, "{tag}: wire bytes not conserved");
        assert_same_model(&a, &b, &tag);
        assert_eq!(golden_line(&tag, &a), golden_line(&tag, &b), "{tag}: reports differ");
    }
}

#[test]
fn prefetch_hides_the_pull_bound_lane() {
    // The one-batch-ahead ring on a pull-bound shape; everything asserted
    // is on the simulated clock, so it is exact. 4 ranks on the stock Cray
    // interconnect with the hot cache *disabled*, so every touched row
    // rides the pull/push lane. The ring must hide seconds on both lanes,
    // and at least a fifth of the run's priced time: the clock reads at
    // most 0.8x what it would with nothing hidden.
    let ds = generate(&SynthConfig {
        name: "pull-bound".into(),
        n_entities: 2_000,
        n_relations: 50,
        n_triples: 20_000,
        relation_zipf: 1.0,
        entity_zipf: 0.9,
        noise_frac: 0.05,
        valid_frac: 0.02,
        test_frac: 0.02,
        seed: 5,
    });
    let mut c = TrainConfig::new(32, 500, StrategyConfig::baseline_allgather(1));
    c.max_epochs = 2;
    c.plateau_tolerance = 1;
    c.max_lr_drops = 1;
    c.valid_samples = 0;
    c.base_lr = 5e-3;
    c.sharded = Some(sharded_cfg(0, false));
    let ring = train(&ds, &Cluster::new(4, ClusterSpec::cray_xc40()), &c);
    let sh = ring.report.sharded.unwrap();
    assert!(
        sh.hidden_pull_s > 0.0 && sh.hidden_push_s > 0.0,
        "prefetch ring hid no lane seconds"
    );
    let ring_s = ring.report.sim_total_seconds;
    let unhidden_s = ring_s + ring.report.breakdown.hidden_comm_s;
    assert!(
        ring_s <= 0.8 * unhidden_s,
        "prefetch run {ring_s:.4} sim-s exceeds 0.8x its unhidden {unhidden_s:.4}"
    );
}

#[test]
#[ignore = "full FB250K shape, about two minutes in release; scripts/check.sh runs it"]
fn sharding_breaks_the_replica_memory_wall_at_fb250k_scale() {
    // Resident bytes, cache counters and wire bytes are exact. The cell
    // cannot shrink: at x0.02-x0.1 of the shape, caches scaled to match,
    // the f32 resident share reads 0.401-0.402 and the hit rate 0.46-0.50.
    // The preset's triple count is raised so the train split (91 %) clears
    // 16 M; paper batch, rank 32, 4 ranks, one epoch.
    let ds = generate(&SynthConfig {
        n_triples: 17_600_000,
        ..SynthPreset::Fb250kLike.config(1.0, 8)
    });
    assert!(ds.train.len() >= 16_000_000, "train split {} below 16 M", ds.train.len());
    let arm = |hot_cache_rows, cold_int8| {
        let mut c = TrainConfig::new(32, 10_000, StrategyConfig::baseline_allgather(1));
        c.max_epochs = 1;
        c.plateau_tolerance = 1;
        c.max_lr_drops = 1;
        c.valid_samples = 0;
        c.seed = 7;
        c.base_lr = 5e-3;
        c.sharded = Some(sharded_cfg(hot_cache_rows, cold_int8));
        let out = train(&ds, &Cluster::new(4, ClusterSpec::cray_xc40()), &c);
        assert_eq!(out.report.epochs, 1, "the sharded epoch did not complete");
        out.report.sharded.expect("sharded report attached")
    };
    let f32_cold = arm(24_000, false);
    assert!(
        f32_cold.resident_fraction() <= 0.40,
        "f32 resident share {:.4} exceeds 0.40",
        f32_cold.resident_fraction()
    );
    assert!(
        f32_cold.hit_rate() >= 0.5,
        "f32 hot-tier hit rate {:.4} below 0.5",
        f32_cold.hit_rate()
    );
    assert!(
        f32_cold.pull_wire_bytes > 0 && f32_cold.push_wire_bytes > 0,
        "sharded wire counters are dead"
    );
    let int8_cold = arm(10_000, true);
    assert!(
        int8_cold.resident_fraction() <= 0.15,
        "int8 resident share {:.4} exceeds 0.15",
        int8_cold.resident_fraction()
    );
}

/// FNV-1a over a table's f32 bit patterns.
fn fnv(values: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One line of `sharded_golden.txt`: everything a sharded run reports on
/// the simulated clock, in bytes or in counters — the run totals, every
/// epoch's trace entry and the per-rank footprint — with floats as bit
/// patterns so equality is exact.
fn golden_line(cell: &str, out: &TrainOutcome) -> String {
    let r = &out.report;
    let b = &r.breakdown;
    let sh = r.sharded.as_ref().expect("sharded report attached");
    let bits = |xs: &[f64]| {
        let hex: Vec<String> = xs.iter().map(|x| format!("{:016x}", x.to_bits())).collect();
        hex.join(",")
    };
    let trace: Vec<String> = r
        .trace
        .iter()
        .map(|t| {
            format!(
                "{}:{:08x}:{}:{}",
                bits(&[t.sim_seconds, t.train_loss]),
                t.lr_scale.to_bits(),
                t.bytes_sent,
                bits(&[t.mean_nonzero_rows, t.mean_rows_sent]),
            )
        })
        .collect();
    format!(
        "{cell} | sim={} breakdown={} ent={:016x} rel={:016x} wire={}/{} hits={}/{}/{} lanes={} hidden={} \
         epochs={} recoveries={} allgather_epochs={} surviving={} crashed={:?} \
         converged={} wire_total={}/{} footprint={}/{}/{}/{}/{} trace={}",
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
        sh.pull_wire_bytes,
        sh.push_wire_bytes,
        sh.cache_hits,
        sh.cache_accesses,
        sh.entity_touches,
        bits(&[sh.pull_lane_s, sh.push_lane_s]),
        bits(&[sh.hidden_pull_s, sh.hidden_push_s]),
        r.epochs,
        r.recoveries,
        r.allgather_epochs,
        r.surviving_nodes,
        r.crashed_ranks,
        r.converged,
        r.wire_bytes_sent,
        r.wire_bytes_recv,
        sh.resident_model_bytes,
        sh.opt_state_bytes,
        sh.owned_rows,
        sh.hot_capacity,
        sh.eligible_rows,
        trace.join(";"),
    )
}

#[test]
fn sharded_golden() {
    // The contract of the one-step refactor (PR 19), pinned at its parent
    // commit: 16 cells p x cache x storage plus a mid-run crash + shrink
    // must reproduce the recorded clock,
    // breakdown, model, wire bytes, counters and lane seconds to the bit.
    // The model hashes go through the host's `exp`/`ln`, so the table is
    // tied to this toolchain and libm; to regenerate it after an
    // *intended* change of trajectory or pricing:
    //   1. cargo test --release -p kge-train --test sharded_determinism sharded_golden -- --nocapture \
    //        | grep '^p=' > /tmp/golden; mv /tmp/golden crates/kge-train/tests/sharded_golden.txt
    //   2. git diff crates/kge-train/tests/sharded_golden.txt   # every changed cell is a claim
    //   3. commit the file with the change that explains the diff
    let mut lines = Vec::new();
    for p in [1usize, 2, 3, 4] {
        for cache in [0usize, 32] {
            for int8 in [false, true] {
                let out = run(p, 1, 64, Some(sharded_cfg(cache, int8)), None);
                let storage = if int8 { "int8" } else { "f32" };
                lines.push(golden_line(&format!("p={p} cache={cache} {storage} On"), &out));
            }
        }
    }
    let total = run(4, 1, 64, None, None).report.sim_total_seconds;
    let plan = FaultPlan::seeded(7).with_crash(2, 0.4 * total);
    let out = run(4, 1, 64, Some(sharded_cfg(32, false)), Some(plan));
    assert_eq!(out.report.recoveries, 1, "the crash must trigger a shrink");
    lines.push(golden_line("p=4 cache=32 f32 On crash", &out));
    for line in &lines {
        println!("{line}");
    }
    let golden = include_str!("sharded_golden.txt");
    for (want, got) in golden.lines().zip(&lines) {
        assert_eq!(want, got, "golden cell moved");
    }
    assert_eq!(golden.lines().count(), lines.len(), "golden cell count");
}
