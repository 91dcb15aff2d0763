//! Zero-allocation regression test for the steady-state training hot
//! path (ISSUE: fused batched kernels + fully reused buffers).
//!
//! Installs the counting global allocator from `kge-core` and drives the
//! exact batch pipeline the trainer runs — fused block-kernel gradient
//! computation, row selection, the all-reduce *and* all-gather exchanges
//! (with and without 1-bit quantization), and the optimizer step — with a
//! single-thread worker pool per rank. After one full warm-up pass over
//! every batch, a second pass over the same batches must perform **zero**
//! heap allocations: every arena, wire buffer, sparse slab, and optimizer
//! structure is reused.
//!
//! Two strategies, each on one rank and on two, run one after the other
//! because the allocation counter is process-global: the all-reduce
//! baseline (`RowSelector::None`, uniform negatives), and the paper's
//! combined strategies — S5 pool scoring and Bernoulli row selection in
//! front of the same exchanges and lazy Adam. On one rank every collective
//! returns before it meets a peer; the two-rank cells put the wire path
//! proper — staging slots, barriers, result slices, in-place decode of a
//! peer's payload — under the same guard, counting both ranks' allocations
//! between two barriers. Under S5 the negatives a batch trains on depend
//! on the embeddings, so buffer sizes drift as the model moves; the
//! combined cells therefore replay their warm-up pass exactly (learning
//! rate scaled to zero, RNG reseeded per pass): any allocation left is one
//! the code makes per call.
//!
//! Scope: the guarantee is single-thread per rank. Multi-thread pools
//! spawn workers, and point-to-point messages own their payloads, both of
//! which allocate outside the kernel path by construction (see DESIGN.md).

#[global_allocator]
static ALLOC: kge_core::alloc_count::CountingAlloc = kge_core::alloc_count::CountingAlloc;

use kge_compress::row_select::select_rows;
use kge_compress::QuantScheme;
use kge_core::alloc_count;
use kge_train::exchange::{exchange_allgather_into, exchange_allreduce, GatherBufs};
use kge_train::{BatchWorkspace, StrategyConfig, TrainConfig};
use kge_core::SparseGrad;
use kge_data::synth::{generate, SynthConfig};
use kge_data::FilterIndex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simgrid::{Cluster, ClusterSpec};

/// Allocations, over all `ranks`, of a second pass over every batch under
/// `strategy`. `frozen` makes that pass an exact replay of the first (see
/// the module docs).
fn steady_state_allocs(
    strategy: StrategyConfig,
    frozen: bool,
    ranks: usize,
) -> alloc_count::AllocSnapshot {
    let ds = generate(&SynthConfig {
        name: "alloc-probe".into(),
        n_entities: 300,
        n_relations: 12,
        n_triples: 3000,
        relation_zipf: 1.0,
        entity_zipf: 0.8,
        noise_frac: 0.05,
        valid_frac: 0.05,
        test_frac: 0.05,
        seed: 9,
    });
    let config = TrainConfig::new(4, 256, strategy);
    let lr_scale = if frozen { 0.0 } else { 1.0 };

    let deltas = Cluster::new(ranks, ClusterSpec::cray_xc40()).run(|ctx| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("single-thread pool");
        pool.install(|| {
            let model = config.model.build(config.rank);
            let model = model.as_ref();
            let dim = model.storage_dim();
            let filter = FilterIndex::build(&ds);
            let mut init_rng = StdRng::seed_from_u64(config.seed);
            let mut ent = kge_core::EmbeddingTable::xavier(ds.n_entities, dim, &mut init_rng);
            let mut rel = kge_core::EmbeddingTable::xavier(ds.n_relations, dim, &mut init_rng);
            let mut ent_opt = config.optimizer.build(config.base_lr, ds.n_entities, dim);
            let mut rel_opt = config.optimizer.build(config.base_lr, ds.n_relations, dim);
            let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5DEECE66D);
            let mut ws = BatchWorkspace::new(dim);
            // One wire-buffer set per scheme, like a real run (the
            // trainer's scheme is fixed; a shared buffer would rebuild
            // the quantized-row variant on every switch).
            let mut gather = [GatherBufs::new(), GatherBufs::new()];
            let mut agg = SparseGrad::new(dim);
            let mut dense_ent = vec![0.0f32; ds.n_entities * dim];
            let mut dense_rel = vec![0.0f32; ds.n_relations * dim];
            let batches = ds.train.len().div_ceil(config.batch_size);

            // One epoch = every batch through all three exchange flavors,
            // so each pass exercises identical code and buffer shapes.
            let epoch = |ent: &mut kge_core::EmbeddingTable,
                             rel: &mut kge_core::EmbeddingTable,
                             ws: &mut BatchWorkspace,
                             rng: &mut StdRng,
                             gather: &mut [GatherBufs; 2],
                             agg: &mut SparseGrad,
                             dense_ent: &mut Vec<f32>,
                             dense_rel: &mut Vec<f32>,
                             ent_opt: &mut dyn kge_core::RowOptimizer,
                             rel_opt: &mut dyn kge_core::RowOptimizer,
                             ctx: &mut simgrid::NodeCtx| {
                if frozen {
                    *rng = StdRng::seed_from_u64(config.seed ^ 0x5DEECE66D);
                }
                for b in 0..batches {
                    // Ranks walk the batches from different offsets, so
                    // their payloads differ.
                    let b = (b + ctx.rank()) % batches;
                    ws.batch_gradients_into(
                        model, ent, rel, &ds.train, b, &config, &filter, None, 0, 0,
                    );
                    select_rows(config.strategy.row_select, ws.ent_grad_mut(), rng);

                    // All-reduce flavor: dense wire buffer + dense step.
                    exchange_allreduce(ctx.comm_mut(), ws.ent_grad(), dense_ent)
                        .expect("allreduce");
                    ent_opt.step_dense(ent, dense_ent, lr_scale);

                    // All-gather flavors: f32 and 1-bit quantized wire
                    // rows into the reused gather buffers + sparse agg,
                    // then a lazy (row-sparse) step.
                    for (i, scheme) in [QuantScheme::None, QuantScheme::paper_one_bit()]
                        .into_iter()
                        .enumerate()
                    {
                        ws.ent_grad_mut().ensure_sorted();
                        exchange_allgather_into(
                            ctx.comm_mut(),
                            ws.ent_grad(),
                            dim,
                            scheme,
                            None,
                            rng,
                            &mut gather[i],
                            agg,
                        )
                        .expect("allgather");
                        agg.ensure_sorted();
                        ent_opt.step_lazy(ent, agg, lr_scale);
                    }

                    exchange_allreduce(ctx.comm_mut(), ws.rel_grad(), dense_rel)
                        .expect("rel allreduce");
                    rel_opt.step_dense(rel, dense_rel, lr_scale);
                }
            };

            // Warm-up pass: allowed (and expected) to allocate.
            epoch(
                &mut ent,
                &mut rel,
                &mut ws,
                &mut rng,
                &mut gather,
                &mut agg,
                &mut dense_ent,
                &mut dense_rel,
                ent_opt.as_mut(),
                rel_opt.as_mut(),
                ctx,
            );

            // Steady-state pass: every buffer must be reused. The counter
            // is process-wide, so between the two barriers rank 0's delta
            // holds every rank's allocations.
            ctx.comm_mut().barrier();
            let start = alloc_count::snapshot();
            epoch(
                &mut ent,
                &mut rel,
                &mut ws,
                &mut rng,
                &mut gather,
                &mut agg,
                &mut dense_ent,
                &mut dense_rel,
                ent_opt.as_mut(),
                rel_opt.as_mut(),
                ctx,
            );
            ctx.comm_mut().barrier();
            alloc_count::since(start)
        })
    });

    deltas[0]
}

#[test]
fn steady_state_batch_loop_allocates_nothing() {
    let cells = [
        ("baseline_allreduce(2)", StrategyConfig::baseline_allreduce(2), false),
        ("combined(5)", StrategyConfig::combined(5), true),
    ];
    for (name, strategy, frozen) in cells {
        for ranks in [1, 2] {
            let delta = steady_state_allocs(strategy, frozen, ranks);
            assert_eq!(
                delta.allocs, 0,
                "steady-state {name} batch loop on {ranks} rank(s) allocated {} times ({} bytes)",
                delta.allocs, delta.bytes
            );
        }
    }
}
