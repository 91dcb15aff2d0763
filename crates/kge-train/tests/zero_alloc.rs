//! Zero-allocation regression test for the replica trainer's steady state.
//!
//! Installs the counting global allocator from `kge-core` and drives the
//! trainer's own batch step, `replica_batch_step`, and its epoch drain —
//! fused block-kernel gradients, row selection, the launch and settle of
//! the all-reduce *and* the all-gather exchange, and the optimizer steps —
//! with a single-thread worker pool per rank, at window 0 (each batch
//! settles its own launch straight through the communicator's staging
//! slots) and at window 2 (two exchanges in flight in the slot ring).
//! After a warm-up pass — one epoch per collective — a second pass over
//! the same batches must perform **zero** heap allocations: every arena,
//! wire buffer, ring slot, sparse slab and optimizer structure is reused.
//!
//! Cells: two strategies × both windows × one rank and two. The all-reduce
//! baseline (`RowSelector::None`, uniform negatives, raw f32 rows on the
//! gather), and the paper's combined strategies — S5 pool scoring,
//! Bernoulli row selection, the 1-bit gather, RP's node-local relation
//! step, lazy Adam. On one rank every collective returns before it meets a
//! peer; the two-rank cells put the wire path proper — staging slots,
//! barriers, result slices, in-place decode of a peer's payload — under
//! the same guard, counting both ranks' allocations between two barriers.
//! Under S5 the negatives a batch trains on depend on the embeddings, so
//! buffer sizes drift as the model moves; the combined cells therefore
//! replay their warm-up pass exactly (learning rate scaled to zero, node
//! stream reseeded per pass): any allocation left is one the code makes
//! per call.
//!
//! The counter is process-global and the harness runs a binary's tests on
//! parallel threads (allocating itself when one finishes), so every cell
//! runs inside the one `#[test]`.
//!
//! Scope: the guarantee is single-thread per rank. Multi-thread pools
//! spawn workers, and point-to-point messages own their payloads, both of
//! which allocate outside the kernel path by construction (see DESIGN.md).

#[global_allocator]
static ALLOC: kge_core::alloc_count::CountingAlloc = kge_core::alloc_count::CountingAlloc;

use kge_core::alloc_count;
use kge_data::synth::{generate, SynthConfig};
use kge_data::FilterIndex;
use kge_train::trainer::{
    replica_batch_step, replica_epoch_drain, EpochPlan, EpochSums, ReplicaState,
};
use kge_train::{CommChoice, CommMode, StepInputs, StrategyConfig, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simgrid::{Cluster, ClusterSpec, NodeCtx};

/// Allocations, over all `ranks`, of a second pass over every batch under
/// `strategy` at `window`. `frozen` makes that pass an exact replay of the
/// first (see the module docs).
fn steady_state_allocs(
    strategy: StrategyConfig,
    frozen: bool,
    window: usize,
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
    let mut config = TrainConfig::new(4, 256, strategy);
    // The configured mode sizes the slot ring.
    config.strategy.comm = CommMode::Pipelined { staleness: window };
    let choices = if window == 0 {
        [CommChoice::AllReduce, CommChoice::AllGather]
    } else {
        [CommChoice::PipelinedAllReduce, CommChoice::PipelinedAllGather]
    };
    let lr_scale = if frozen { 0.0 } else { 1.0 };

    let deltas = Cluster::new(ranks, ClusterSpec::cray_xc40()).run(|ctx| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("single-thread pool");
        pool.install(|| {
            let model = config.model.build(config.rank);
            let filter = FilterIndex::build(&ds);
            let inputs = StepInputs {
                model: model.as_ref(),
                config: &config,
                filter: &filter,
                bias: None,
            };
            let mut st = ReplicaState::new(&inputs, &ds, ctx.rank());
            st.shard = ds.train.clone();
            let batches = ds.train.len().div_ceil(config.batch_size);
            assert!(batches > window, "need a steady state deeper than the window");

            // One pass = one epoch per collective, each drained, so every
            // pass exercises identical code and buffer shapes.
            let pass = |ctx: &mut NodeCtx, st: &mut ReplicaState| {
                if frozen {
                    st.rng = StdRng::seed_from_u64(config.seed ^ 0x5DEECE66D);
                }
                for choice in choices {
                    let plan = EpochPlan {
                        epoch: 0,
                        choice,
                        window,
                        lr_scale,
                        batches,
                    };
                    let mut sums = EpochSums::default();
                    for b in 0..batches {
                        replica_batch_step(ctx, &inputs, st, &plan, b, &mut sums)
                            .expect("no fault plan, no crash");
                    }
                    replica_epoch_drain(ctx, &inputs, st, &plan).expect("drain");
                }
            };

            // Warm-up pass: allowed (and expected) to allocate.
            pass(ctx, &mut st);

            // Steady-state pass: every buffer must be reused. The counter
            // is process-wide, so between the two barriers rank 0's delta
            // holds every rank's allocations.
            ctx.comm_mut().barrier();
            let start = alloc_count::snapshot();
            pass(ctx, &mut st);
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
        for window in [0, 2] {
            for ranks in [1, 2] {
                let delta = steady_state_allocs(strategy, frozen, window, ranks);
                assert_eq!(
                    delta.allocs, 0,
                    "steady-state {name} batch step at window {window} on {ranks} rank(s) \
                     allocated {} times ({} bytes)",
                    delta.allocs, delta.bytes
                );
            }
        }
    }
}
