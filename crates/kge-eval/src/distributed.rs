//! Distributed ranking evaluation over a simgrid communicator.
//!
//! Full-dataset filtered MRR is O(|queries| × |E|) model evaluations — the
//! one remaining phase that ran outside the cluster timing model. Here the
//! (deterministically subsampled) query list is sharded across ranks in
//! round-robin order, each rank runs the blocked local pipeline
//! ([`crate::evaluate_ranking_with`]) on its shard, and the f64 metric
//! *sums* are combined with `allreduce_sum_f64`, so every rank returns the
//! same [`RankingMetrics`] and the evaluation's compute and collective
//! time are charged to the simulated clock like a training epoch's.
//!
//! Determinism: the shard assignment, the per-shard rank computation, and
//! the fixed-rank-order reduction are all deterministic, so results are
//! bit-reproducible across runs and thread counts. They are *not* claimed
//! bit-identical to a single-node [`crate::evaluate_ranking`] over the
//! same queries — the f64 sums associate per shard first (same values to
//! within reduction reordering, typically ~1e-15 relative).

use crate::ranking::{subsample_into, RankingMetrics, RankingOptions, RankingWorkspace};
use kge_core::{EmbeddingTable, KgeModel};
use kge_data::{GroupedFilter, Triple};
use simgrid::Communicator;

/// Evaluate ranking metrics with queries sharded across the communicator.
///
/// Collective: every rank of `comm` must call this with identical
/// `queries`, `grouped`, and `opts` (model replicas are identical by
/// construction in data-parallel training). The simulated clock is charged
/// the *shared* per-rank share `ceil(n/size)` of the sweep flops on every
/// rank, so replica clocks stay aligned through the reduction.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_ranking_distributed(
    comm: &mut Communicator,
    ws: &mut RankingWorkspace,
    model: &dyn KgeModel,
    ent: &EmbeddingTable,
    rel: &EmbeddingTable,
    queries: &[Triple],
    grouped: &GroupedFilter,
    opts: &RankingOptions,
) -> RankingMetrics {
    let rank = comm.rank();
    let size = comm.size().max(1);

    // Subsample identically on every rank, then take a round-robin shard.
    let mut idx = Vec::new();
    let mut full = Vec::new();
    subsample_into(queries, opts, &mut idx, &mut full);
    let n_sub = full.len();
    let mine: Vec<Triple> = full
        .iter()
        .copied()
        .skip(rank)
        .step_by(size)
        .collect();

    let local_opts = RankingOptions {
        max_queries: None, // already subsampled above
        ..opts.clone()
    };
    evaluate_ranking_with(comm, ws, model, ent, rel, &mine, grouped, &local_opts, n_sub)
}

#[allow(clippy::too_many_arguments)]
fn evaluate_ranking_with(
    comm: &mut Communicator,
    ws: &mut RankingWorkspace,
    model: &dyn KgeModel,
    ent: &EmbeddingTable,
    rel: &EmbeddingTable,
    mine: &[Triple],
    grouped: &GroupedFilter,
    local_opts: &RankingOptions,
    n_sub: usize,
) -> RankingMetrics {
    crate::evaluate_ranking_with(ws, model, ent, rel, mine, grouped, local_opts);

    // Charge the sweep cost: 2 directions × |E| candidates per query, at
    // the per-rank ceiling share so every replica's clock moves equally
    // (the filter is applied inside the sweep and costs no scoring).
    let size = comm.size().max(1);
    let per_rank = n_sub.div_ceil(size);
    comm.clock_mut()
        .charge_flops((per_rank * 2 * ent.rows()) as f64 * model.score_flops());

    // Local f64 sums in shard order, then fixed-rank-order reductions.
    let mut sum_inv = 0.0f64;
    let mut sum_rank = 0.0f64;
    let (mut h1, mut h3, mut h10) = (0.0f64, 0.0f64, 0.0f64);
    for &r in ws.ranks() {
        sum_inv += 1.0 / r as f64;
        sum_rank += r as f64;
        h1 += f64::from(u8::from(r <= 1));
        h3 += f64::from(u8::from(r <= 3));
        h10 += f64::from(u8::from(r <= 10));
    }
    let n_local = ws.ranks().len() as f64;

    let n = comm.allreduce_sum_f64(n_local);
    let sum_inv = comm.allreduce_sum_f64(sum_inv);
    let sum_rank = comm.allreduce_sum_f64(sum_rank);
    let h1 = comm.allreduce_sum_f64(h1);
    let h3 = comm.allreduce_sum_f64(h3);
    let h10 = comm.allreduce_sum_f64(h10);

    let d = n.max(1.0);
    RankingMetrics {
        mrr: sum_inv / d,
        mean_rank: sum_rank / d,
        hits1: h1 / d,
        hits3: h3 / d,
        hits10: h10 / d,
        n_queries: n as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate_ranking, RankingOptions};
    use kge_core::ComplEx;
    use kge_data::FilterIndex;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use simgrid::{Cluster, ClusterSpec};

    fn fixture() -> (ComplEx, EmbeddingTable, EmbeddingTable, Vec<Triple>, FilterIndex) {
        let model = ComplEx::new(4);
        let mut rng = StdRng::seed_from_u64(17);
        let ent = EmbeddingTable::xavier(40, 8, &mut rng);
        let rel = EmbeddingTable::xavier(3, 8, &mut rng);
        let queries: Vec<Triple> = (0..30)
            .map(|i| Triple::new(i % 40, i % 3, (i * 11 + 5) % 40))
            .collect();
        let filter = FilterIndex::from_triples(queries.iter().copied());
        (model, ent, rel, queries, filter)
    }

    #[test]
    fn sharded_eval_matches_local_metrics() {
        let (model, ent, rel, queries, filter) = fixture();
        let opts = RankingOptions::default();
        let local = evaluate_ranking(&model, &ent, &rel, &queries, &filter, &opts);

        for nodes in [1usize, 3, 4] {
            let grouped = GroupedFilter::from_index(&filter);
            let results = Cluster::new(nodes, ClusterSpec::ideal()).run(|ctx| {
                let mut ws = RankingWorkspace::new();
                evaluate_ranking_distributed(
                    ctx.comm_mut(),
                    &mut ws,
                    &model,
                    &ent,
                    &rel,
                    &queries,
                    &grouped,
                    &RankingOptions::default(),
                )
            });
            for m in &results {
                assert_eq!(m.n_queries, local.n_queries, "{nodes} nodes");
                assert!(
                    (m.mrr - local.mrr).abs() < 1e-12,
                    "{nodes} nodes: {} vs {}",
                    m.mrr,
                    local.mrr
                );
                assert!((m.mean_rank - local.mean_rank).abs() < 1e-9);
                assert_eq!(m.hits1, local.hits1); // counts are exact sums
                assert_eq!(m.hits3, local.hits3);
                assert_eq!(m.hits10, local.hits10);
            }
            // Every rank returns the identical reduced metrics.
            for m in &results[1..] {
                assert_eq!(*m, results[0]);
            }
        }
    }

    #[test]
    fn sharded_eval_respects_subsampling_and_charges_time() {
        let (model, ent, rel, queries, filter) = fixture();
        let grouped = GroupedFilter::from_index(&filter);
        let opts = RankingOptions {
            max_queries: Some(10),
            seed: 7,
            ..Default::default()
        };
        let local = evaluate_ranking(&model, &ent, &rel, &queries, &filter, &opts);
        let results = Cluster::new(2, ClusterSpec::ideal()).run(|ctx| {
            let mut ws = RankingWorkspace::new();
            let m = evaluate_ranking_distributed(
                ctx.comm_mut(),
                &mut ws,
                &model,
                &ent,
                &rel,
                &queries,
                &grouped,
                &opts,
            );
            (m, ctx.comm().clock().now_s())
        });
        for (m, elapsed) in &results {
            assert_eq!(m.n_queries, local.n_queries); // same subsample size
            assert!((m.mrr - local.mrr).abs() < 1e-12);
            assert!(*elapsed > 0.0, "eval must charge simulated time");
        }
        // Clock alignment: uniform charging keeps replica clocks equal.
        assert_eq!(results[0].1, results[1].1);
    }
}
