//! Smoke benchmark for the chunked-parallel batch gradient hot path.
//!
//! Runs `kge_train::batch_gradients` on a bench-scale FB15K-like dataset
//! (batch 10 000 positives, dim 64) under per-node worker pools of 1 and
//! 4 threads, verifies the gradients are bit-identical across thread
//! counts, and writes `BENCH_batch.json` with triples/sec per pool size.
//!
//! It then runs a quick-scale end-to-end training pair — fault-free vs a
//! seeded fault plan (straggler + mid-run rank crash) — and records both
//! simulated-time profiles plus the recovery overhead under
//! `fault_injection` in the same JSON, including a bit-reproducibility
//! check of the faulted run.
//!
//! The JSON includes `host_cores`: on a host with fewer cores than the
//! pool size the extra threads time-slice one core, so the "speedup" is
//! honest scheduling overhead, not parallel scaling. Usage:
//!
//! ```text
//! bench_batch [OUTPUT_PATH]   # default ./BENCH_batch.json
//! ```

use bench::{fb15k_bench, BenchScale};
use kge_core::loss::{logistic_loss, logistic_loss_grad};
use kge_core::{
    Adam, AdamOptimizer, BlockScratch, EmbeddingTable, KgeModel, RowOptimizer, SparseGrad,
};
use kge_data::synth::{generate, SynthConfig, SynthPreset};
use kge_data::{Dataset, FilterIndex};
use kge_train::{
    batch_gradients, train, BatchWorkspace, CommMode, PrefetchMode, ShardedConfig, StrategyConfig,
    TrainConfig, TrainOutcome,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simgrid::{Cluster, ClusterSpec, FaultPlan, StragglerWindow};
use std::time::Instant;

/// With `--features count-allocs` the binary counts every heap
/// allocation, letting the JSON prove the steady-state loop allocates
/// nothing at one thread.
#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: kge_core::alloc_count::CountingAlloc = kge_core::alloc_count::CountingAlloc;

/// Current allocation-event count, when the counting allocator is in.
fn alloc_events() -> Option<u64> {
    #[cfg(feature = "count-allocs")]
    {
        Some(kge_core::alloc_count::snapshot().allocs)
    }
    #[cfg(not(feature = "count-allocs"))]
    {
        None
    }
}

const BATCHES: usize = 5;
const THREAD_COUNTS: [usize; 2] = [1, 4];
/// Timed passes of the bare fused kernel over one staged batch.
const KERNEL_PASSES: usize = 5;

/// Sorted (row, values) snapshot of a sparse gradient, for bitwise
/// comparison across thread-pool sizes.
type GradRows = Vec<(u32, Vec<f32>)>;

fn grad_rows(g: &SparseGrad) -> GradRows {
    g.iter_sorted().map(|(r, v)| (r, v.to_vec())).collect()
}

/// Nodes in the end-to-end fault-injection pair.
const FAULT_NODES: usize = 4;

/// Quick-scale end-to-end training run for the faulted/fault-free pair.
fn fault_pair_run(plan: Option<FaultPlan>) -> TrainOutcome {
    let s = BenchScale::quick();
    let (ds, batch) = fb15k_bench(&s);
    let mut config = TrainConfig::new(8, batch, StrategyConfig::baseline_allreduce(2));
    config.max_epochs = 8;
    config.plateau_tolerance = 3;
    config.max_lr_drops = 1;
    config.valid_samples = 128;
    config.seed = s.seed;
    config.base_lr = 5e-3;
    let mut cluster = Cluster::new(FAULT_NODES, ClusterSpec::cray_xc40());
    if let Some(plan) = plan {
        cluster = cluster.with_fault_plan(plan);
    }
    train(&ds, &cluster, &config)
}

/// The quick-scale fault-free run with periodic checkpointing enabled,
/// for the checkpoint-overhead profile.
fn checkpointed_run(dir: &std::path::Path) -> TrainOutcome {
    let s = BenchScale::quick();
    let (ds, batch) = fb15k_bench(&s);
    let mut config = TrainConfig::new(8, batch, StrategyConfig::baseline_allreduce(2));
    config.max_epochs = 8;
    config.plateau_tolerance = 3;
    config.max_lr_drops = 1;
    config.valid_samples = 128;
    config.seed = s.seed;
    config.base_lr = 5e-3;
    config.checkpoint_every = 2;
    config.checkpoint_dir = Some(dir.to_path_buf());
    let cluster = Cluster::new(FAULT_NODES, ClusterSpec::cray_xc40());
    train(&ds, &cluster, &config)
}

/// Straggler window early on, then a hard crash of rank 2 mid-run.
fn fault_plan(fault_free_total_s: f64) -> FaultPlan {
    FaultPlan::seeded(77)
        .with_straggler(StragglerWindow {
            rank: 1,
            start_s: 0.0,
            end_s: 0.2 * fault_free_total_s,
            slowdown: 2.0,
        })
        .with_crash(2, 0.45 * fault_free_total_s)
}

fn run_profile(out: &TrainOutcome) -> serde_json::Value {
    let r = &out.report;
    serde_json::json!({
        "sim_total_seconds": r.sim_total_seconds,
        "epochs": r.epochs,
        "compute_s": r.breakdown.compute_s,
        "comm_s": r.breakdown.comm_s,
        "hidden_comm_s": r.breakdown.hidden_comm_s,
        "overlap_window_s": r.breakdown.overlap_s,
        "idle_s": r.breakdown.idle_s,
        "fault_s": r.breakdown.fault_s,
        "retry_s": r.breakdown.retry_s,
        "checkpoint_s": r.breakdown.checkpoint_s,
        "recoveries": r.recoveries,
        "surviving_nodes": r.surviving_nodes,
        "crashed_ranks": r.crashed_ranks.clone(),
        "wire_bytes_sent": r.wire_bytes_sent,
        "wire_bytes_recv": r.wire_bytes_recv,
    })
}

/// Quick-scale end-to-end run for the synchronous-vs-pipelined exchange
/// A/B: one collective, one interconnect, everything else pinned.
fn exchange_pair_run(comm: CommMode, rank: usize, spec: &ClusterSpec) -> TrainOutcome {
    let s = BenchScale::quick();
    let (ds, batch) = fb15k_bench(&s);
    let mut strategy = StrategyConfig::baseline_allreduce(2);
    strategy.comm = comm;
    let mut config = TrainConfig::new(rank, batch, strategy);
    config.max_epochs = 6;
    config.plateau_tolerance = 3;
    config.max_lr_drops = 1;
    config.valid_samples = 64;
    config.seed = s.seed;
    config.base_lr = 5e-3;
    let cluster = Cluster::new(FAULT_NODES, spec.clone());
    train(&ds, &cluster, &config)
}

/// Ranks in the sharded-memory FB250K profile.
const SHARD_NODES: usize = 4;
/// Hot-cache capacity for the f32 cold-tier arm (rows).
const SHARD_F32_CACHE: usize = 24_000;
/// Hot-cache capacity for the int8 cold-tier arm (rows).
const SHARD_INT8_CACHE: usize = 10_000;

/// Full-scale FB250K-shaped dataset for the sharded-memory profile. The
/// preset's triple count is bumped so the *train split* (91% after the
/// valid/test carve-out) clears the 16M-triple acceptance floor.
fn fb250k_full() -> Dataset {
    generate(&SynthConfig {
        n_triples: 17_600_000,
        ..SynthPreset::Fb250kLike.config(1.0, BenchScale::default().seed.wrapping_add(1))
    })
}

/// One-epoch sharded training pass over the full-scale FB250K shape:
/// paper batch (10 000 positives), rank 32, 4 ranks, all-gather
/// baseline. One epoch is enough to reach cache steady state and
/// exercise every pull/push path; convergence runs live in bench_e2e.
fn sharded_fb250k_run(ds: &Dataset, hot_cache_rows: usize, cold_int8: bool) -> TrainOutcome {
    let mut config = TrainConfig::new(32, 10_000, StrategyConfig::baseline_allgather(1));
    config.max_epochs = 1;
    config.plateau_tolerance = 1;
    config.max_lr_drops = 1;
    config.valid_samples = 0;
    config.seed = BenchScale::default().seed;
    config.base_lr = 5e-3;
    config.sharded = Some(ShardedConfig {
        hot_cache_rows,
        cold_int8,
        prefetch: PrefetchMode::Off,
    });
    let cluster = Cluster::new(SHARD_NODES, ClusterSpec::cray_xc40());
    train(ds, &cluster, &config)
}

/// JSON profile of one sharded run's memory/wire/cache economics.
fn sharded_profile(out: &TrainOutcome) -> serde_json::Value {
    let sh = out.report.sharded.as_ref().expect("sharded report attached");
    let coverage = if sh.entity_touches > 0 {
        sh.cache_accesses as f64 / sh.entity_touches as f64
    } else {
        0.0
    };
    serde_json::json!({
        "epochs": out.report.epochs,
        "sim_total_seconds": out.report.sim_total_seconds,
        "resident_model_bytes_per_rank": sh.resident_model_bytes,
        "replica_model_bytes": sh.replica_model_bytes,
        "resident_fraction": sh.resident_fraction(),
        "opt_state_bytes_per_rank": sh.opt_state_bytes,
        "owned_rows": sh.owned_rows,
        "hot_capacity": sh.hot_capacity,
        "eligible_rows": sh.eligible_rows,
        "pull_wire_bytes": sh.pull_wire_bytes,
        "push_wire_bytes": sh.push_wire_bytes,
        "cache_hits": sh.cache_hits,
        "cache_lookups": sh.cache_accesses,
        "entity_touches": sh.entity_touches,
        "hot_tier_hit_rate": sh.hit_rate(),
        "hot_tier_coverage": coverage,
    })
}

/// Time the Adam row kernel under both dispatch arms: a dense step over a
/// `rows × dim` table and a lazy step over `grad`'s rows, single-threaded.
/// Each arm owns a table and optimizer and takes the same steps, in
/// strictly alternating passes (best pass per arm, as for the grad kernels
/// above), so the arms' final parameters and moments must agree bit for
/// bit — recorded as `avx_vs_scalar_bit_identical`.
fn optimizer_kernel_bench(rows: usize, grad: &SparseGrad, seed: u64) -> serde_json::Value {
    let dim = grad.dim();
    let mut rng = StdRng::seed_from_u64(seed);
    let init = EmbeddingTable::xavier(rows, dim, &mut rng);
    let dense_grad = EmbeddingTable::xavier(rows, dim, &mut rng);
    let new_arm = || (AdamOptimizer::new(Adam::default(), rows, dim), init.clone());
    // [scalar, avx], indexed by `!force_scalar`.
    let mut arms = [new_arm(), new_arm()];
    let mut best = [[f64::INFINITY; 2]; 2];
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("thread pool");
    pool.install(|| {
        for pass in 0..=KERNEL_PASSES {
            for (arm, force_scalar) in [true, false].into_iter().enumerate() {
                kge_core::simd::set_force_scalar(Some(force_scalar));
                let (opt, table) = &mut arms[arm];
                let start = Instant::now();
                opt.step_dense(table, dense_grad.as_slice(), 1.0);
                let dense_s = start.elapsed().as_secs_f64();
                let start = Instant::now();
                opt.step_lazy(table, grad, 1.0);
                let lazy_s = start.elapsed().as_secs_f64();
                if pass > 0 {
                    // Pass 0 warms the arm.
                    best[arm][0] = best[arm][0].min(dense_s);
                    best[arm][1] = best[arm][1].min(lazy_s);
                }
            }
        }
    });
    kge_core::simd::set_force_scalar(None);
    let [(scalar_opt, scalar_table), (avx_opt, avx_table)] = &arms;
    let bit_identical = scalar_table.as_slice() == avx_table.as_slice()
        && scalar_opt.state_view() == avx_opt.state_view();
    let ns_per_elem = |secs: f64, elems: usize| secs * 1e9 / elems as f64;
    let (dense_elems, lazy_elems) = (rows * dim, grad.nnz() * dim);
    let report = serde_json::json!({
        "rows": rows,
        "dim": dim,
        "lazy_rows": grad.nnz(),
        "threads": 1,
        "passes": KERNEL_PASSES,
        "adam_dense_ns_per_elem": ns_per_elem(best[1][0], dense_elems),
        "adam_dense_ns_per_elem_scalar": ns_per_elem(best[0][0], dense_elems),
        "adam_lazy_ns_per_elem": ns_per_elem(best[1][1], lazy_elems),
        "adam_lazy_ns_per_elem_scalar": ns_per_elem(best[0][1], lazy_elems),
        "avx_vs_scalar_bit_identical": bit_identical,
    });
    eprintln!("  adam kernel (dim {dim}, {rows} rows dense / {} lazy): {report}", grad.nnz());
    report
}

/// Fraction of the total communication price the pipeline hid behind
/// compute (0 for a synchronous run).
fn overlap_efficiency(out: &TrainOutcome) -> f64 {
    let b = &out.report.breakdown;
    let total = b.hidden_comm_s + b.comm_s;
    if total > 0.0 {
        b.hidden_comm_s / total
    } else {
        0.0
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_batch.json".to_string());
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Full-scale FB15K-like shape so the harness batch size is the
    // paper's 10 000 positives.
    let scale = BenchScale {
        fb15k_scale: 1.0,
        ..BenchScale::default()
    };
    let (ds, batch) = fb15k_bench(&scale);
    let mut config = TrainConfig::new(32, batch, StrategyConfig::baseline_allreduce(2));
    config.seed = scale.seed;
    let model = config.model.build(config.rank);
    let dim = model.storage_dim();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let ent = EmbeddingTable::xavier(ds.n_entities, dim, &mut rng);
    let rel = EmbeddingTable::xavier(ds.n_relations, dim, &mut rng);
    let filter = FilterIndex::build(&ds);
    let examples_per_batch = batch * (1 + config.strategy.neg.train);

    eprintln!(
        "bench_batch: {} | batch {} positives (+{} neg each), dim {}, host cores {}",
        ds.name, batch, config.strategy.neg.train, dim, host_cores
    );

    let mut results = Vec::new();
    let mut reference: Option<(GradRows, GradRows)> = None;
    let mut identical = true;

    for &threads in &THREAD_COUNTS {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("bench thread pool");

        // Determinism probe across pool sizes (allocating entry point).
        let (_, _, ent_g, rel_g) = pool.install(|| {
            batch_gradients(model.as_ref(), &ent, &rel, &ds.train, 0, &config, &filter, None, 0, 0)
        });
        match &reference {
            None => reference = Some((grad_rows(&ent_g), grad_rows(&rel_g))),
            Some((re, rr)) => {
                identical &= *re == grad_rows(&ent_g) && *rr == grad_rows(&rel_g);
            }
        }

        // Steady-state path: one reused workspace, as the trainer runs it.
        // Warm every batch index first so the timed (and, at one thread,
        // allocation-counted) passes hit only warm buffers.
        let mut ws = BatchWorkspace::new(dim);
        pool.install(|| {
            for b in 0..BATCHES {
                ws.batch_gradients_into(
                    model.as_ref(), &ent, &rel, &ds.train, b, &config, &filter, None, 0, 0,
                );
            }
        });

        let allocs_before = alloc_events();
        let start = Instant::now();
        pool.install(|| {
            for b in 0..BATCHES {
                let out = ws.batch_gradients_into(
                    model.as_ref(), &ent, &rel, &ds.train, b, &config, &filter, None, 0, 0,
                );
                std::hint::black_box(&out);
            }
        });
        let secs = start.elapsed().as_secs_f64();
        // Thread pools >1 spawn workers per parallel region by design;
        // the zero-allocation guarantee is the single-thread hot path.
        let steady_allocs = match (allocs_before, alloc_events()) {
            (Some(before), Some(after)) if threads == 1 => Some(after - before),
            _ => None,
        };
        let triples_per_sec = (examples_per_batch * BATCHES) as f64 / secs;
        eprintln!(
            "  threads {}: {:.3} s / {} batches -> {:.0} triples/sec{}",
            threads,
            secs,
            BATCHES,
            triples_per_sec,
            match steady_allocs {
                Some(a) => format!(", steady-state allocs {a}"),
                None => String::new(),
            }
        );
        if let Some(a) = steady_allocs {
            assert_eq!(a, 0, "steady-state batch loop allocated at one thread");
        }
        results.push((threads, secs / BATCHES as f64, triples_per_sec, steady_allocs));
    }

    // Kernel-level throughput: stage one batch's example list once, then
    // time the bare fused block kernel (rows → score, grad → slab) with
    // no sampling around it.
    let n_staged = examples_per_batch;
    let staged: Vec<(u32, u32, u32)> = (0..n_staged)
        .map(|i| {
            let t = ds.train[i % ds.train.len()];
            (t.head, t.rel, t.tail)
        })
        .collect();
    let labels: Vec<f32> = (0..n_staged)
        .map(|i| {
            if i % (1 + config.strategy.neg.train) == 0 {
                1.0
            } else {
                -1.0
            }
        })
        .collect();
    let inv = 1.0 / n_staged as f32;
    let mut block = BlockScratch::new();
    let mut kent = SparseGrad::new(dim);
    let mut krel = SparseGrad::new(dim);
    let kernel_pass = |kent: &mut SparseGrad, krel: &mut SparseGrad, block: &mut BlockScratch| {
        kent.clear();
        krel.clear();
        let mut loss = 0.0f64;
        let mut coeff = |i: usize, s: f32| {
            let y = labels[i];
            loss += logistic_loss(y, s) as f64;
            logistic_loss_grad(y, s) * inv
        };
        model.score_grad_block(
            &ent,
            &rel,
            &staged,
            2.0 * config.l2 * inv,
            block,
            &mut coeff,
            kent,
            krel,
        );
        std::hint::black_box(loss);
    };
    kernel_pass(&mut kent, &mut krel, &mut block); // warm the arena
    let start = Instant::now();
    for _ in 0..KERNEL_PASSES {
        kernel_pass(&mut kent, &mut krel, &mut block);
    }
    let kernel_secs = start.elapsed().as_secs_f64();
    let kernel_triples_per_sec = (n_staged * KERNEL_PASSES) as f64 / kernel_secs;
    eprintln!(
        "  fused kernel alone: {:.3} s / {} passes -> {:.0} triples/sec",
        kernel_secs, KERNEL_PASSES, kernel_triples_per_sec
    );

    // SIMD-vs-scalar A/B of the fused kernel at the larger rank
    // (ComplEx 64 → storage dim 128), single thread: the same staged
    // examples run under both arms of the force-scalar override, the
    // final pass's loss and both gradient accumulators are compared
    // bitwise, and the speedup of the dispatched arm over the forced
    // scalar fused kernel is reported. Examples are fed in trainer-sized
    // chunks, the block shape `compute_chunk` hands the kernel.
    const SIMD_CHUNK: usize = 1024;
    let simd_model = kge_core::ComplEx::new(64);
    let simd_dim = simd_model.storage_dim();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x51D);
    let simd_ent = EmbeddingTable::xavier(ds.n_entities, simd_dim, &mut rng);
    let simd_rel = EmbeddingTable::xavier(ds.n_relations, simd_dim, &mut rng);
    let mut sblock = BlockScratch::new();
    let mut sent_g = SparseGrad::new(simd_dim);
    let mut srel_g = SparseGrad::new(simd_dim);
    let simd_kernel_pass =
        |kent: &mut SparseGrad, krel: &mut SparseGrad, block: &mut BlockScratch| -> f64 {
            kent.clear();
            krel.clear();
            let mut loss = 0.0f64;
            for (c, chunk) in staged.chunks(SIMD_CHUNK).enumerate() {
                let base = c * SIMD_CHUNK;
                let mut coeff = |i: usize, s: f32| {
                    let y = labels[base + i];
                    loss += logistic_loss(y, s) as f64;
                    logistic_loss_grad(y, s) * inv
                };
                simd_model.score_grad_block(
                    &simd_ent,
                    &simd_rel,
                    chunk,
                    2.0 * config.l2 * inv,
                    block,
                    &mut coeff,
                    kent,
                    krel,
                );
            }
            loss
        };
    // The two arms are timed in strictly alternating passes and each arm
    // reports its best pass. Alternation keeps slow drift on a shared
    // host (frequency or noisy-neighbor changes) from systematically
    // favoring one arm, and timing noise only ever adds time, so the
    // per-pass minimum is the robust estimate of true throughput.
    let timed_pass = |force_scalar: bool,
                          best: &mut f64,
                          sent_g: &mut SparseGrad,
                          srel_g: &mut SparseGrad,
                          sblock: &mut BlockScratch|
     -> f64 {
        kge_core::simd::set_force_scalar(Some(force_scalar));
        let start = Instant::now();
        let loss = simd_kernel_pass(sent_g, srel_g, sblock);
        *best = best.min(start.elapsed().as_secs_f64());
        loss
    };
    kge_core::simd::set_force_scalar(Some(true));
    simd_kernel_pass(&mut sent_g, &mut srel_g, &mut sblock); // warm scalar arm
    kge_core::simd::set_force_scalar(Some(false));
    simd_kernel_pass(&mut sent_g, &mut srel_g, &mut sblock); // warm simd arm
    let (mut scalar_best, mut simd_best) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..KERNEL_PASSES {
        timed_pass(true, &mut scalar_best, &mut sent_g, &mut srel_g, &mut sblock);
        timed_pass(false, &mut simd_best, &mut sent_g, &mut srel_g, &mut sblock);
    }
    // One more pass per arm, outside the timing contest, to capture the
    // loss and gradient state compared bitwise below.
    let mut sink = f64::INFINITY;
    let scalar_loss = timed_pass(true, &mut sink, &mut sent_g, &mut srel_g, &mut sblock);
    let scalar_rows = (grad_rows(&sent_g), grad_rows(&srel_g));
    let simd_loss = timed_pass(false, &mut sink, &mut sent_g, &mut srel_g, &mut sblock);
    let simd_rows = (grad_rows(&sent_g), grad_rows(&srel_g));
    kge_core::simd::set_force_scalar(None);
    let scalar_tps = n_staged as f64 / scalar_best;
    let simd_tps = n_staged as f64 / simd_best;
    let (scalar_ent_rows, scalar_rel_rows) = scalar_rows;
    let (simd_ent_rows, simd_rel_rows) = simd_rows;
    let avx_host = kge_core::simd::avx_detected();
    let simd_bit_identical = scalar_loss.to_bits() == simd_loss.to_bits()
        && scalar_ent_rows == simd_ent_rows
        && scalar_rel_rows == simd_rel_rows;
    let simd_speedup = simd_tps / scalar_tps;
    eprintln!(
        "  simd kernel (dim {}): {:.0} vs scalar {:.0} triples/sec -> {:.2}x \
         (avx host: {}, bit-identical: {})",
        simd_dim, simd_tps, scalar_tps, simd_speedup, avx_host, simd_bit_identical
    );

    // The optimizer row kernel, both arms, over the same table shape and
    // the entity rows the last kernel pass touched.
    let optimizer_simd = optimizer_kernel_bench(ds.n_entities, &sent_g, config.seed ^ 0x0A7);

    // Faulted vs fault-free end-to-end pair on the simulated cluster.
    // Both runs share one seed; the crash time is anchored to the
    // fault-free run's simulated total so the pair stays comparable as
    // the model or dataset evolves.
    eprintln!("bench_batch: fault-injection pair ({FAULT_NODES} simulated nodes)");
    let fault_free = fault_pair_run(None);
    let total = fault_free.report.sim_total_seconds;
    let faulted = fault_pair_run(Some(fault_plan(total)));
    let faulted_again = fault_pair_run(Some(fault_plan(total)));
    let fault_reproducible = faulted.entities.as_slice() == faulted_again.entities.as_slice()
        && faulted.report.breakdown == faulted_again.report.breakdown
        && faulted.report.sim_total_seconds.to_bits()
            == faulted_again.report.sim_total_seconds.to_bits();
    let fault_overhead = faulted.report.sim_total_seconds / total;
    eprintln!(
        "  fault-free {:.2} sim-s over {} epochs | faulted {:.2} sim-s over {} epochs \
         (recoveries {}, crashed {:?}, overhead {:.2}x, reproducible {})",
        total,
        fault_free.report.epochs,
        faulted.report.sim_total_seconds,
        faulted.report.epochs,
        faulted.report.recoveries,
        faulted.report.crashed_ranks,
        fault_overhead,
        fault_reproducible,
    );

    // Checkpoint overhead: the same fault-free quick-scale run with a
    // checkpoint every 2 epochs. The modeled write cost lands in the
    // clock's `checkpoint_s` bucket; its fraction of total simulated time
    // is the operational price of crash insurance at this cadence.
    let ckpt_dir = std::env::temp_dir().join(format!("kge-bench-ckpt-{}", std::process::id()));
    let ckpt = checkpointed_run(&ckpt_dir);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let ckpt_fraction = ckpt.report.breakdown.checkpoint_s / ckpt.report.sim_total_seconds;
    let ckpt_overhead = ckpt.report.sim_total_seconds / total;
    eprintln!(
        "  checkpoint_every=2: {} checkpoints, {:.4} sim-s in checkpoint_s \
         ({:.2}% of total, {:.3}x the uncheckpointed run)",
        ckpt.report.checkpoints_written,
        ckpt.report.breakdown.checkpoint_s,
        100.0 * ckpt_fraction,
        ckpt_overhead,
    );

    // Synchronous vs pipelined gradient exchange on two regimes.
    //
    // Communication-bound: dense all-reduce on the stock Cray, where the
    // per-epoch collective price is ~1.6x the compute — the regime a
    // one-deep pipeline targets: batch N's exchange rides behind batch
    // N+1's compute, so the epoch approaches max(compute, comm) instead
    // of their sum. (Cutting bandwidth further makes comm *dominate*,
    // which caps the win at compute/comm — pipelining hides at most one
    // batch of compute per exchange.)
    //
    // Compute-bound: the same collective pair on a 4x-bandwidth Cray,
    // where comm shrinks below compute. Nearly all of it hides, the
    // absolute win is small, and the pipelined run must never be slower.
    eprintln!("bench_batch: sync-vs-pipelined exchange A/B ({FAULT_NODES} simulated nodes)");
    const EXCHANGE_RANK: usize = 32;
    let compute_bound_spec = ClusterSpec {
        bandwidth_bps: ClusterSpec::cray_xc40().bandwidth_bps * 4.0,
        ..ClusterSpec::cray_xc40()
    };
    let cb_sync = exchange_pair_run(CommMode::AllReduce, EXCHANGE_RANK, &ClusterSpec::cray_xc40());
    let cb_piped = exchange_pair_run(
        CommMode::PipelinedAllReduce { staleness: 1 },
        EXCHANGE_RANK,
        &ClusterSpec::cray_xc40(),
    );
    let xb_sync = exchange_pair_run(CommMode::AllReduce, EXCHANGE_RANK, &compute_bound_spec);
    let xb_piped = exchange_pair_run(
        CommMode::PipelinedAllReduce { staleness: 1 },
        EXCHANGE_RANK,
        &compute_bound_spec,
    );
    let cb_speedup = cb_sync.report.sim_total_seconds / cb_piped.report.sim_total_seconds;
    let xb_speedup = xb_sync.report.sim_total_seconds / xb_piped.report.sim_total_seconds;
    // The ideal pipelined epoch is bounded below by whichever resource
    // saturates; 1.15x leaves room for the un-overlapped first launch,
    // the drain, and validation work.
    let cb_lower_bound = cb_sync
        .report
        .breakdown
        .compute_s
        .max(cb_sync.report.breakdown.comm_s);
    eprintln!(
        "  comm-bound (rank {EXCHANGE_RANK}, stock cray): sync {:.3} sim-s vs pipelined {:.3} \
         sim-s -> {:.2}x (lower bound {:.3}, overlap efficiency {:.2})",
        cb_sync.report.sim_total_seconds,
        cb_piped.report.sim_total_seconds,
        cb_speedup,
        cb_lower_bound,
        overlap_efficiency(&cb_piped),
    );
    eprintln!(
        "  compute-bound (rank {EXCHANGE_RANK}, 4x bandwidth): sync {:.3} sim-s vs pipelined \
         {:.3} sim-s -> {:.2}x (overlap efficiency {:.2})",
        xb_sync.report.sim_total_seconds,
        xb_piped.report.sim_total_seconds,
        xb_speedup,
        overlap_efficiency(&xb_piped),
    );

    // Sharded storage at the memory-wall scale: the full FB250K shape
    // (240K entities, >=16M train triples) over 4 ranks, one epoch,
    // once with f32 cold rows and once with int8-at-rest. The resident
    // model per rank (owned arena + hot cache + replicated relations)
    // is compared against the full-replica footprint the other trainers
    // pay, and the hot tier's hit rate is measured over cache lookups
    // (touches of rows the tier manages; `hot_tier_coverage` reports
    // what fraction of all touches those are).
    eprintln!("bench_batch: sharded-memory FB250K profile ({SHARD_NODES} simulated nodes)");
    let shard_ds = fb250k_full();
    eprintln!(
        "  dataset {}: {} entities, {} train triples",
        shard_ds.name,
        shard_ds.n_entities,
        shard_ds.train.len()
    );
    let sh_f32 = sharded_fb250k_run(&shard_ds, SHARD_F32_CACHE, false);
    let f32_report = sh_f32.report.sharded.expect("sharded report");
    eprintln!(
        "  f32 cold tier (cache {SHARD_F32_CACHE}): resident {:.1} MiB/rank = {:.1}% of replica \
         {:.1} MiB, hit rate {:.3} over {} lookups ({:.1}% of {} touches)",
        f32_report.resident_model_bytes as f64 / (1 << 20) as f64,
        100.0 * f32_report.resident_fraction(),
        f32_report.replica_model_bytes as f64 / (1 << 20) as f64,
        f32_report.hit_rate(),
        f32_report.cache_accesses,
        100.0 * f32_report.cache_accesses as f64 / f32_report.entity_touches.max(1) as f64,
        f32_report.entity_touches,
    );
    let sh_int8 = sharded_fb250k_run(&shard_ds, SHARD_INT8_CACHE, true);
    let int8_report = sh_int8.report.sharded.expect("sharded report");
    eprintln!(
        "  int8 cold tier (cache {SHARD_INT8_CACHE}): resident {:.1} MiB/rank = {:.1}% of \
         replica, hit rate {:.3}",
        int8_report.resident_model_bytes as f64 / (1 << 20) as f64,
        100.0 * int8_report.resident_fraction(),
        int8_report.hit_rate(),
    );
    let (shard_n_entities, shard_train_len) = (shard_ds.n_entities, shard_ds.train.len());
    drop(shard_ds);

    // A 4-thread-over-1 speedup is only meaningful when the host can
    // actually run 4 threads in parallel; on smaller hosts the "parallel"
    // run just time-slices one core and the ratio measures scheduler
    // noise, so record null plus the reason instead.
    let max_threads = *THREAD_COUNTS.iter().max().unwrap();
    let (speedup, speedup_skipped_reason) = if host_cores >= max_threads {
        (Some(results[1].2 / results[0].2), None)
    } else {
        (
            None,
            Some(format!(
                "host has {host_cores} core(s) < {max_threads} threads; \
                 threads would time-slice one core"
            )),
        )
    };
    let rows: Vec<serde_json::Value> = results
        .iter()
        .map(|&(threads, seconds_per_batch, triples_per_sec, steady_allocs)| {
            serde_json::json!({
                "threads": threads,
                "seconds_per_batch": seconds_per_batch,
                "triples_per_sec": triples_per_sec,
                // null unless built with --features count-allocs and
                // threads == 1 (the scope of the zero-alloc guarantee).
                "steady_state_allocs": steady_allocs,
            })
        })
        .collect();
    let report = serde_json::json!({
        "bench": "batch_grad",
        "dataset": ds.name,
        "batch_size": batch,
        "negatives_per_positive": config.strategy.neg.train,
        "dim": dim,
        "batches_timed": BATCHES,
        "host_cores": host_cores,
        "results": rows,
        "kernel": serde_json::json!({
            "triples_per_sec": kernel_triples_per_sec,
            "examples_per_pass": n_staged,
            "passes": KERNEL_PASSES,
        }),
        "kernel_simd": serde_json::json!({
            "model": "complex",
            "dim": simd_dim,
            "threads": 1,
            "avx_host": avx_host,
            "triples_per_sec_simd": simd_tps,
            "triples_per_sec_scalar": scalar_tps,
            "speedup_simd_over_scalar": simd_speedup,
            "avx_vs_scalar_bit_identical": simd_bit_identical,
            "examples_per_pass": n_staged,
            "passes": KERNEL_PASSES,
        }),
        "optimizer_simd": optimizer_simd,
        "speedup_4_threads_over_1": speedup,
        "speedup_skipped_reason": speedup_skipped_reason,
        "gradients_bit_identical_across_pools": identical,
        "fault_injection": serde_json::json!({
            "nodes": FAULT_NODES,
            "plan": "seed 77: rank-1 straggler (2x, first 20% of run), rank-2 crash at 45%",
            "fault_free": run_profile(&fault_free),
            "faulted": run_profile(&faulted),
            "sim_time_overhead": fault_overhead,
            "faulted_run_bit_reproducible": fault_reproducible,
        }),
        "checkpointing": serde_json::json!({
            "nodes": FAULT_NODES,
            "checkpoint_every": 2,
            "checkpoints_written": ckpt.report.checkpoints_written,
            "checkpoint_s": ckpt.report.breakdown.checkpoint_s,
            "checkpoint_s_fraction": ckpt_fraction,
            "sim_time_overhead_vs_uncheckpointed": ckpt_overhead,
            "profile": run_profile(&ckpt),
        }),
        "sharded_memory": serde_json::json!({
            "nodes": SHARD_NODES,
            "dataset": "fb250k-like (full scale)",
            "n_entities": shard_n_entities,
            "train_triples": shard_train_len,
            "dim": 64,
            "batch_size": 10_000,
            "f32_cold": sharded_profile(&sh_f32),
            "int8_cold": sharded_profile(&sh_int8),
        }),
        "pipelined_exchange": serde_json::json!({
            "nodes": FAULT_NODES,
            "staleness": 1,
            "comm_bound": serde_json::json!({
                "rank": EXCHANGE_RANK,
                "interconnect": "cray_xc40",
                "sync": run_profile(&cb_sync),
                "pipelined": run_profile(&cb_piped),
                "speedup_pipelined_over_sync": cb_speedup,
                "lower_bound_s": cb_lower_bound,
                "overlap_efficiency": overlap_efficiency(&cb_piped),
            }),
            "compute_bound": serde_json::json!({
                "rank": EXCHANGE_RANK,
                "interconnect": "cray_xc40 at 4x bandwidth",
                "sync": run_profile(&xb_sync),
                "pipelined": run_profile(&xb_piped),
                "speedup_pipelined_over_sync": xb_speedup,
                "overlap_efficiency": overlap_efficiency(&xb_piped),
            }),
        }),
    });
    std::fs::write(&out_path, format!("{report}\n")).expect("write BENCH_batch.json");
    match speedup {
        Some(s) => eprintln!(
            "bench_batch: speedup(4/1) = {:.2} on {} host core(s); grads identical: {}; wrote {}",
            s, host_cores, identical, out_path
        ),
        None => eprintln!(
            "bench_batch: speedup(4/1) skipped ({} host core(s)); grads identical: {}; wrote {}",
            host_cores, identical, out_path
        ),
    }
    assert!(identical, "gradients diverged across pool sizes");
    assert!(
        simd_bit_identical,
        "SIMD and forced-scalar fused kernels diverged"
    );
    assert_eq!(
        optimizer_simd["avx_vs_scalar_bit_identical"],
        serde_json::Value::Bool(true),
        "AVX and forced-scalar Adam row kernels diverged"
    );
    if avx_host {
        assert!(
            simd_speedup >= 1.5,
            "expected >= 1.5x SIMD kernel speedup on an AVX host, got {simd_speedup:.2}x"
        );
    }
    assert!(
        fault_reproducible,
        "faulted run diverged across invocations"
    );
    assert_eq!(
        faulted.report.recoveries, 1,
        "expected exactly one recovery in the faulted profile"
    );
    assert!(
        ckpt.report.checkpoints_written > 0 && ckpt.report.breakdown.checkpoint_s > 0.0,
        "checkpointed profile recorded no checkpoint work"
    );
    assert!(
        ckpt_fraction < 0.2,
        "checkpoint_s is {:.1}% of simulated time — the cadence-2 insurance \
         premium should stay well under 20%",
        100.0 * ckpt_fraction
    );
    // ISSUE acceptance: on the communication-bound configuration the
    // pipeline must hide enough of the collective to cut simulated time
    // by >= 30% and land within 15% of the saturating-resource bound.
    assert!(
        cb_piped.report.sim_total_seconds <= 0.7 * cb_sync.report.sim_total_seconds,
        "comm-bound pipelined run {:.4} sim-s exceeds 0.7x sync {:.4} sim-s",
        cb_piped.report.sim_total_seconds,
        cb_sync.report.sim_total_seconds
    );
    assert!(
        cb_piped.report.sim_total_seconds <= 1.15 * cb_lower_bound,
        "comm-bound pipelined run {:.4} sim-s exceeds 1.15x max(compute, comm) = {:.4} sim-s",
        cb_piped.report.sim_total_seconds,
        cb_lower_bound
    );
    assert!(
        xb_piped.report.sim_total_seconds
            <= xb_sync.report.sim_total_seconds * (1.0 + 1e-9),
        "compute-bound pipelined run must never be slower than synchronous"
    );
    // ISSUE acceptance: the FB250K-scale sharded run must complete and
    // break the memory wall — per-rank resident model <= 40% of the full
    // replica (<= 15% with int8 cold rows) — while the hot tier serves
    // at least half of its lookups from cache under the Zipf skew.
    assert!(
        shard_train_len >= 16_000_000,
        "FB250K train split shrank below the 16M-triple floor: {shard_train_len}"
    );
    assert_eq!(sh_f32.report.epochs, 1, "f32 sharded run did not complete");
    assert_eq!(sh_int8.report.epochs, 1, "int8 sharded run did not complete");
    assert!(
        f32_report.resident_fraction() <= 0.40,
        "f32 sharded resident fraction {:.3} exceeds 0.40",
        f32_report.resident_fraction()
    );
    assert!(
        int8_report.resident_fraction() <= 0.15,
        "int8 sharded resident fraction {:.3} exceeds 0.15",
        int8_report.resident_fraction()
    );
    assert!(
        f32_report.hit_rate() >= 0.5,
        "f32 hot-tier hit rate {:.3} fell below 0.5",
        f32_report.hit_rate()
    );
    assert!(
        f32_report.pull_wire_bytes > 0 && f32_report.push_wire_bytes > 0,
        "sharded wire counters are dead"
    );
}
