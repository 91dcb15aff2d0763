//! Zero-allocation regression test for the sharded batch pipeline.
//!
//! Same contract as `zero_alloc.rs`, extended to the partitioned-storage
//! path: after a warm-up epoch, a steady-state epoch through
//! `sharded_batch_step` — staging into a ring slot, touched-union dedup,
//! launch-time classification, request staging, batch-local table fill,
//! compute from the slot table, gradient split/encode, hot all-gather +
//! decode, relation exchange, lazy Adam on arena and cache rows, the
//! cache admission/eviction machinery and, one batch ahead, eviction
//! capture into the launched slot, deferred-push settlement and the epoch
//! drain — must perform **zero** heap allocations.
//!
//! Scope: per-rank and single-thread, like the replica guarantee.
//! Multi-rank runs move p2p payloads through channels (`Message` owns
//! its bytes) and multi-thread pools spawn workers, both of which
//! allocate by construction. On one rank the pull and push loops skip
//! self, the own-bucket cold gradient is decoded from its reused wire
//! buffer, and the single-participant all-gathers stage and read in
//! place.

#[global_allocator]
static ALLOC: kge_core::alloc_count::CountingAlloc = kge_core::alloc_count::CountingAlloc;

use kge_core::alloc_count;
use kge_data::synth::{generate, SynthConfig};
use kge_data::FilterIndex;
use kge_partition::{entity_owners, partition_for};
use kge_train::shard::{
    sharded_batch_step, sharded_epoch_prefetch_drain, PrefetchRing, RankState, ShardedBufs,
    ShardedStore,
};
use kge_train::trainer::{EpochPlan, EpochSums};
use kge_train::{CommChoice, PrefetchMode, ShardedConfig, StepInputs, StrategyConfig, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simgrid::{Cluster, ClusterSpec};

/// The allocation counter is process-global, and the test harness runs the
/// `#[test]`s of one binary on parallel threads (and allocates itself when
/// one finishes): two tests here would count each other's set-up. So this
/// binary holds one test.
#[test]
fn steady_state_sharded_loops_allocate_nothing() {
    let delta = steady_state_epoch();
    assert_eq!(
        delta.allocs, 0,
        "steady-state sharded batch loop allocated {} times ({} bytes)",
        delta.allocs, delta.bytes
    );
}

/// One warm-up epoch, then the allocations of a second epoch.
fn steady_state_epoch() -> alloc_count::AllocSnapshot {
    let ds = generate(&SynthConfig {
        name: "sharded-alloc-probe".into(),
        n_entities: 300,
        n_relations: 12,
        n_triples: 3000,
        relation_zipf: 1.0,
        entity_zipf: 0.9,
        noise_frac: 0.05,
        valid_frac: 0.05,
        test_frac: 0.05,
        seed: 9,
    });
    let mut config = TrainConfig::new(4, 256, StrategyConfig::baseline_allgather(2));
    config.valid_samples = 0;
    config.sharded = Some(ShardedConfig {
        hot_cache_rows: 48,
        cold_int8: false,
        prefetch: PrefetchMode::On,
    });
    config.validate().expect("valid sharded config");

    let deltas = Cluster::new(1, ClusterSpec::cray_xc40()).run(|ctx| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("single-thread pool");
        pool.install(|| {
            let model = config.model.build(config.rank);
            let dim = model.storage_dim();
            let filter = FilterIndex::build(&ds);
            let run = StepInputs {
                model: model.as_ref(),
                config: &config,
                filter: &filter,
                bias: None,
            };
            let degrees = ds.stats().entity_degrees;
            let part = partition_for(&ds.train, ds.n_relations, 1, false);
            let owners = entity_owners(&part, ds.n_entities);

            let mut init_rng = StdRng::seed_from_u64(config.seed);
            let ent = kge_core::EmbeddingTable::xavier(ds.n_entities, dim, &mut init_rng);
            let rel = kge_core::EmbeddingTable::xavier(ds.n_relations, dim, &mut init_rng);
            let mut store = ShardedStore::new(
                kge_compress::ArenaKind::F32,
                dim,
                0,
                owners,
                &degrees,
                config.sharded.unwrap().hot_cache_rows,
                config.base_lr,
            );
            store.init_owned_from(&ent);
            drop(ent);
            let mut st = RankState {
                store,
                rel,
                rel_opt: config.optimizer.build(config.base_lr, ds.n_relations, dim),
                bufs: ShardedBufs::new(dim, 1),
                ring: PrefetchRing::new(dim, ds.n_entities, 1, &config),
                rng: StdRng::seed_from_u64(config.seed ^ 1),
                shard: ds.train.clone(),
                tick: 0,
            };
            let batches = ds.train.len().div_ceil(config.batch_size);

            let mut epoch_pass = |epoch: usize, ctx: &mut simgrid::NodeCtx| {
                let plan = EpochPlan {
                    epoch,
                    choice: CommChoice::AllGather,
                    window: 0,
                    lr_scale: 1.0,
                    batches,
                };
                let mut sums = EpochSums::default();
                for b in 0..batches {
                    sharded_batch_step(ctx, &run, &mut st, &plan, b, &mut sums)
                        .expect("single-rank batch cannot crash");
                }
                sharded_epoch_prefetch_drain(ctx, &mut st);
                st.store.flush_epoch();
            };

            // Warm-up epoch: allowed (and expected) to allocate — slot
            // tables, wire buffers, sparse slabs, the LRU queue all reach
            // steady size.
            epoch_pass(0, ctx);

            // Steady-state epoch: every buffer must be reused. Cache
            // churn (admissions, evictions, bumps, the epoch flush)
            // happens in-place.
            let start = alloc_count::snapshot();
            epoch_pass(1, ctx);
            alloc_count::since(start)
        })
    });
    deltas[0]
}
