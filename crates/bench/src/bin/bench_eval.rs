//! Smoke benchmark for the blocked one-vs-all ranking evaluation.
//!
//! Runs filtered ranking over a bench-scale FB15K-like validation split
//! through both paths — the scalar one-candidate-at-a-time oracle
//! (`rank_of_scalar`: one virtual `score` dispatch plus one filter hash
//! probe per candidate) and the blocked pipeline (`evaluate_ranking_with`:
//! fused one-vs-all tile kernels, known-true competitors masked per tile) — at
//! embedding dims 64/128/256 (ComplEx ranks 32/64/128), verifies the
//! metrics are bit-identical, and writes `BENCH_eval.json` with
//! candidates-scored-per-second for each.
//!
//! Both timed paths run on a single-thread pool so the recorded speedup
//! is pure kernel/memory-layout gain, not parallelism; a multi-thread
//! blocked row is recorded separately for context. The JSON includes
//! `host_cores` so that row stays honest on small hosts. Usage:
//!
//! ```text
//! bench_eval [OUTPUT_PATH]   # default ./BENCH_eval.json
//! ```

use bench::{fb15k_bench, BenchScale};
use kge_core::{ComplEx, EmbeddingTable, KgeModel};
use kge_data::{FilterIndex, GroupedFilter};
use kge_eval::{
    evaluate_ranking_with, rank_of_scalar, RankingMetrics, RankingOptions, RankingWorkspace,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Ranking queries per pass (triples; each is scored in both directions).
const QUERIES: usize = 200;
const SCALAR_PASSES: usize = 5;
const BLOCKED_PASSES: usize = 30;
/// Threads for the informational multi-thread blocked row.
const MT_THREADS: usize = 4;

/// Best-of-N timing: runs `f` for `passes` passes and returns the minimum
/// single-pass wall time. On a small shared host the minimum is the least
/// noise-contaminated estimate of the true cost; means fold in scheduler
/// jitter from whichever pass was unlucky.
fn min_pass_secs(passes: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..passes {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_eval.json".to_string());
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let scale = BenchScale::default();
    let (ds, _) = fb15k_bench(&scale);
    let filter = FilterIndex::build(&ds);
    let grouped = GroupedFilter::from_index(&filter);
    let opts = RankingOptions {
        filtered: true,
        max_queries: Some(QUERIES),
        seed: scale.seed,
    };
    let n_sub = QUERIES.min(ds.valid.len());

    eprintln!(
        "bench_eval: {} | {} entities, {} valid triples, {} queries/pass, host cores {}",
        ds.name,
        ds.n_entities,
        ds.valid.len(),
        n_sub,
        host_cores
    );

    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("single-thread pool");
    let multi = rayon::ThreadPoolBuilder::new()
        .num_threads(MT_THREADS)
        .build()
        .expect("multi-thread pool");

    let mut rows = Vec::new();
    let mut speedup_dim128 = 0.0f64;
    let mut all_identical = true;

    for rank in [32usize, 64, 128] {
        let model = ComplEx::new(rank);
        let dim = model.storage_dim();
        let mut rng = StdRng::seed_from_u64(scale.seed ^ rank as u64);
        let ent = EmbeddingTable::xavier(ds.n_entities, dim, &mut rng);
        let rel = EmbeddingTable::xavier(ds.n_relations, dim, &mut rng);
        // Candidates scored per pass: every entity, both directions.
        let candidates = (n_sub * 2 * ds.n_entities) as f64;

        let mut ws = RankingWorkspace::new();

        // Blocked, single thread (warm pass sizes the workspace).
        let blocked_metrics = single.install(|| {
            evaluate_ranking_with(&mut ws, &model, &ent, &rel, &ds.valid, &grouped, &opts)
        });
        let blocked_secs = single.install(|| {
            min_pass_secs(BLOCKED_PASSES, || {
                std::hint::black_box(evaluate_ranking_with(
                    &mut ws, &model, &ent, &rel, &ds.valid, &grouped, &opts,
                ));
            })
        });
        let blocked_cps = candidates / blocked_secs;

        // Scalar oracle over the same subsample (ws.queries() holds it).
        let mut scalar_ranks = Vec::with_capacity(n_sub * 2);
        for &t in ws.queries() {
            scalar_ranks.push(rank_of_scalar(&model, &ent, &rel, t, true, Some(&filter)));
            scalar_ranks.push(rank_of_scalar(&model, &ent, &rel, t, false, Some(&filter)));
        }
        let scalar_metrics = RankingMetrics::from_ranks(&scalar_ranks);
        let identical = blocked_metrics == scalar_metrics;
        all_identical &= identical;

        let queries: Vec<_> = ws.queries().to_vec();
        let scalar_secs = single.install(|| {
            min_pass_secs(SCALAR_PASSES, || {
                let mut sum = 0usize;
                for &t in &queries {
                    sum += rank_of_scalar(&model, &ent, &rel, t, true, Some(&filter));
                    sum += rank_of_scalar(&model, &ent, &rel, t, false, Some(&filter));
                }
                std::hint::black_box(sum);
            })
        });
        let scalar_cps = candidates / scalar_secs;

        // Blocked, multi-thread (informational; see host_cores).
        multi.install(|| {
            std::hint::black_box(evaluate_ranking_with(
                &mut ws, &model, &ent, &rel, &ds.valid, &grouped, &opts,
            ));
        });
        let blocked_mt_secs = multi.install(|| {
            min_pass_secs(BLOCKED_PASSES, || {
                std::hint::black_box(evaluate_ranking_with(
                    &mut ws, &model, &ent, &rel, &ds.valid, &grouped, &opts,
                ));
            })
        });
        let blocked_mt_cps = candidates / blocked_mt_secs;

        let speedup = blocked_cps / scalar_cps;
        if dim == 128 {
            speedup_dim128 = speedup;
        }
        eprintln!(
            "  dim {dim}: scalar {scalar_cps:.0} cand/s | blocked {blocked_cps:.0} cand/s \
             ({speedup:.2}x, 1 thread) | blocked x{MT_THREADS} threads {blocked_mt_cps:.0} cand/s \
             | metrics identical: {identical}"
        );
        rows.push(serde_json::json!({
            "dim": dim,
            "scalar_candidates_per_sec": scalar_cps,
            "blocked_candidates_per_sec": blocked_cps,
            "speedup_single_thread": speedup,
            "blocked_mt_candidates_per_sec": blocked_mt_cps,
            "mt_threads": MT_THREADS,
            "metrics_bit_identical": identical,
        }));
    }

    let report = serde_json::json!({
        "bench": "eval_ranking",
        "dataset": ds.name,
        "n_entities": ds.n_entities,
        "valid_triples": ds.valid.len(),
        "queries_per_pass": n_sub,
        "candidates_per_pass": n_sub * 2 * ds.n_entities,
        "scalar_passes": SCALAR_PASSES,
        "blocked_passes": BLOCKED_PASSES,
        "host_cores": host_cores,
        "results": rows,
        "speedup_dim128_single_thread": speedup_dim128,
        "metrics_bit_identical": all_identical,
    });
    std::fs::write(&out_path, format!("{report}\n")).expect("write BENCH_eval.json");
    eprintln!(
        "bench_eval: speedup(dim 128, 1 thread) = {speedup_dim128:.2}x; metrics identical: \
         {all_identical}; wrote {out_path}"
    );
    assert!(all_identical, "blocked metrics diverged from the scalar oracle");
    assert!(
        speedup_dim128 >= 4.0,
        "blocked eval must be >= 4x scalar at dim 128 single-thread, got {speedup_dim128:.2}x"
    );
}
