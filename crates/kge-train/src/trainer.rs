//! The synchronous data-parallel trainer.
//!
//! [`train`] runs one SPMD program per cluster node. Every node holds a
//! full replica of the ComplEx model; each batch it computes gradients on
//! its own triples, exchanges the entity (and, without relation partition,
//! relation) gradients through the epoch's collective, and applies an
//! identical optimizer step — so replicas stay bit-identical, which the
//! integration tests assert. With relation partition, relation rows are
//! owned and updated node-locally and re-assembled once per epoch.
//!
//! Simulated time: local compute is charged analytically per batch
//! (forward/backward/optimizer flops) to each node's clock; collectives
//! charge and synchronize clocks through the communicator. The reported
//! `TT`/epoch times are those simulated clocks — the real wall time of
//! the host machine never enters the results.

use crate::checkpoint::{self, CheckpointView, Tallies};
use crate::comm_select::{CommChoice, DynamicCommSelector};
use crate::config::{CommMode, TrainConfig, UpdateStyle};
use crate::exchange::{
    complete_allreduce_overlapped, complete_gather_exchange_overlapped, encode_gather_payload,
    exchange_allgather_into, exchange_allreduce, gather_table_rows, stage_allreduce_payload,
    GatherBufs, PipelineSlot,
};
use crate::lr::PlateauSchedule;
use crate::neg::{CorruptionBias, NegSampler, NegScratch};
use crate::report::{EpochTrace, TrainOutcome, TrainReport};
use crate::snapshot::{PublishedModel, SnapshotSink};
use kge_compress::quant::QuantScheme;
use kge_compress::row_select::select_rows;
use kge_compress::ResidualStore;
use kge_core::loss::{logistic_loss, logistic_loss_grad};
use kge_core::{BlockScratch, EmbeddingTable, KgeModel, RowOptimizer, ScratchPool, SparseGrad};
use kge_data::batch::EpochShuffler;
use kge_data::{Dataset, FilterIndex, GroupedFilter, Triple};
use kge_eval::{evaluate_ranking_distributed, fast_valid_accuracy, RankingOptions, RankingWorkspace};
use kge_partition::{partition_for, Partition};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simgrid::{Cluster, Collective, NodeCtx, SimError};

/// Threshold below which a gradient row counts as "zero" for the Fig. 2
/// statistic (f32 rows of well-fit triples underflow toward this).
pub(crate) const ZERO_ROW_EPS: f32 = 1e-7;

/// Positives per parallel gradient chunk. Fixed — never derived from the
/// thread count — so the chunk structure, each chunk's RNG stream, and the
/// f32 summation order of the chunk-ordered merge are identical no matter
/// how many workers execute the chunks.
pub(crate) const GRAD_CHUNK: usize = 256;

/// Fixed initiation latency charged per checkpoint. The write itself is
/// asynchronous (drained by the burst buffer behind later compute); what
/// training pays synchronously is starting the transfer plus streaming
/// the serialized image out of the node.
const CKPT_LATENCY_S: f64 = 1e-3;

/// Modeled bandwidth of the checkpoint device (burst-buffer class).
const CKPT_BW_BYTES_S: f64 = 2e9;

/// Fixed initiation latency charged per serving-snapshot publish. Much
/// cheaper than a checkpoint: the publish is a lock-and-swap plus an
/// in-memory copy of the model tables into the serve hub's spare buffers
/// — no serialization, no optimizer state, no storage device.
const SNAP_LATENCY_S: f64 = 1e-5;

/// Modeled bandwidth of the in-memory snapshot copy (DRAM-streaming
/// class).
const SNAP_BW_BYTES_S: f64 = 8e9;

/// Train on `dataset` with `config` across `cluster`. Returns the lead
/// survivor's report and final (assembled) model. With a fault plan that
/// crashes ranks, the reporting rank is whichever survivor holds rank 0
/// after the final shrink; crashed ranks contribute only their wire
/// traffic totals.
pub fn train(dataset: &Dataset, cluster: &Cluster, config: &TrainConfig) -> TrainOutcome {
    train_with_snapshots(dataset, cluster, config, None)
}

/// [`train`], additionally publishing model snapshots to `sink` every
/// [`TrainConfig::serve_snapshots`] epochs (the serve-while-training entry
/// point — `kge-serve`'s snapshot hub is the intended sink). With
/// `sink = None` or cadence 0 this is exactly [`train`].
pub fn train_with_snapshots(
    dataset: &Dataset,
    cluster: &Cluster,
    config: &TrainConfig,
    sink: Option<&dyn SnapshotSink>,
) -> TrainOutcome {
    config.validate().expect("invalid training config");
    dataset.validate().expect("invalid dataset");
    if config.sharded.is_some() {
        return crate::shard::train_sharded(dataset, cluster, config);
    }
    let indexes = RunIndexes::build(dataset, config);
    let mut results = cluster.run(|ctx| run_node(ctx, dataset, config, sink, &indexes));
    // Wire-level conservation is global: crashed ranks' pre-crash traffic
    // counts, so sum before discarding the non-reporting nodes.
    let wire_sent: u64 = results.iter().map(|r| r.wire_sent).sum();
    let wire_recv: u64 = results.iter().map(|r| r.wire_recv).sum();
    let lead = results
        .iter()
        .position(|r| r.report.is_some())
        .expect("a surviving rank returns the report");
    let lead = results.swap_remove(lead);
    let mut report = lead.report.expect("position() found a report");
    report.wire_bytes_sent = wire_sent;
    report.wire_bytes_recv = wire_recv;
    TrainOutcome {
        report,
        entities: lead.entities,
        relations: lead.relations,
    }
}

/// The read-only lookup structures of one run. They depend on the dataset
/// and config alone, so each training entry point builds them once, before
/// `Cluster::run`, and every rank closure borrows them: one build and one
/// resident copy per run, not one per rank.
pub(crate) struct RunIndexes {
    pub(crate) filter: FilterIndex,
    /// `bern` head-vs-tail corruption bias, when the strategy asks for it.
    pub(crate) bias: Option<CorruptionBias>,
    /// The filter grouped for ranking, when per-epoch eval is on.
    grouped: Option<GroupedFilter>,
}

impl RunIndexes {
    pub(crate) fn build(dataset: &Dataset, config: &TrainConfig) -> Self {
        let filter = FilterIndex::build(dataset);
        RunIndexes {
            bias: config.strategy.bern.then(|| CorruptionBias::fit(dataset)),
            grouped: (config.eval_every > 0).then(|| GroupedFilter::from_index(&filter)),
            filter,
        }
    }
}

/// Per-batch working state that is reused across batches to keep the hot
/// loop allocation-free in steady state: gradient accumulators and the
/// chunk-scratch pool live in [`BatchWorkspace`]; the dense all-reduce
/// outputs, sparse aggregates and gather scratch all keep their capacity
/// across batches and epochs. (The wire buffers are the communicator's
/// staging slots.)
struct Scratch {
    batch: BatchWorkspace,
    dense_ent: Vec<f32>,
    dense_rel: Vec<f32>,
    ent_agg: SparseGrad,
    rel_agg: SparseGrad,
    gather: GatherBufs,
}

/// Width of the per-node worker pool: an explicit `RAYON_NUM_THREADS`
/// wins; otherwise each simulated node gets an equal share of the host's
/// cores (floor 1), mirroring how ranks of a real job split a machine.
pub(crate) fn node_pool_threads(nodes: usize) -> usize {
    if let Ok(s) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (cores / nodes.max(1)).max(1)
}

/// What one node hands back to [`train`]: the report (lead survivor
/// only), its final model replica, and its wire-level traffic totals.
pub(crate) struct NodeResult {
    pub(crate) report: Option<TrainReport>,
    pub(crate) entities: EmbeddingTable,
    pub(crate) relations: EmbeddingTable,
    pub(crate) wire_sent: u64,
    pub(crate) wire_recv: u64,
}

fn run_node(
    ctx: &mut NodeCtx,
    dataset: &Dataset,
    config: &TrainConfig,
    sink: Option<&dyn SnapshotSink>,
    indexes: &RunIndexes,
) -> NodeResult {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(node_pool_threads(ctx.size()))
        .build()
        .expect("node thread pool");
    pool.install(|| run_node_inner(ctx, dataset, config, sink, indexes))
}

/// Recompute everything that depends on the world size: the partition,
/// this node's shard, the relations it owns under RP, and the number of
/// batches per epoch (the max over shards, so every rank runs the same
/// count and collectives stay well-formed).
pub(crate) fn distribute(
    dataset: &Dataset,
    relation_disjoint: bool,
    rank: usize,
    p: usize,
    batch_size: usize,
) -> (Vec<Triple>, Vec<u32>, usize) {
    let partition: Partition = partition_for(&dataset.train, dataset.n_relations, p, relation_disjoint);
    let batches_per_epoch = partition
        .shards
        .iter()
        .map(|s| s.len().div_ceil(batch_size))
        .max()
        .unwrap_or(0)
        .max(1);
    let shard = partition.shards[rank].clone();
    let mut owned_rels: Vec<u32> = shard.iter().map(|t| t.rel).collect();
    owned_rels.sort_unstable();
    owned_rels.dedup();
    (shard, owned_rels, batches_per_epoch)
}

fn run_node_inner(
    ctx: &mut NodeCtx,
    dataset: &Dataset,
    config: &TrainConfig,
    sink: Option<&dyn SnapshotSink>,
    indexes: &RunIndexes,
) -> NodeResult {
    let mut rank = ctx.rank();
    let mut p = ctx.size();
    let initial_p = p;
    let model = config.model.build(config.rank);
    let model: &dyn KgeModel = model.as_ref();
    let dim = model.storage_dim();
    let strategy = config.strategy;

    // --- Data distribution (identical computation on every node). -------
    // `base_shard` keeps the distribution order; each epoch copies it into
    // `shard` and shuffles, so an epoch's data order is a pure function of
    // `(distribution, epoch)` — never of shuffle history. Checkpoint
    // resume and rank rejoin depend on this: neither replays past epochs.
    let (mut base_shard, mut owned_rels, mut batches_per_epoch) = distribute(
        dataset,
        strategy.relation_partition,
        rank,
        p,
        config.batch_size,
    );
    let mut shard = base_shard.clone();

    let (filter, bias) = (&indexes.filter, indexes.bias.as_ref());
    // Per-epoch ranking eval (opt-in): the workspace is built once and
    // reused, so steady-state evaluation allocates only its per-call query
    // shard.
    let mut eval_state = indexes
        .grouped
        .as_ref()
        .map(|grouped| (grouped, RankingWorkspace::new()));

    // --- Model replicas: identical initialization on every node. --------
    let mut init_rng = StdRng::seed_from_u64(config.seed);
    let mut ent = EmbeddingTable::xavier(dataset.n_entities, dim, &mut init_rng);
    let mut rel = EmbeddingTable::xavier(dataset.n_relations, dim, &mut init_rng);
    let mut ent_opt = config
        .optimizer
        .build(config.base_lr, dataset.n_entities, dim);
    let mut rel_opt = config
        .optimizer
        .build(config.base_lr, dataset.n_relations, dim);
    let mut ent_residual = ResidualStore::new();
    let mut rel_residual = ResidualStore::new();

    // Per-node RNG streams (data order / negatives / stochastic strategies
    // differ per node; model state stays identical because aggregated
    // gradients are identical).
    let mut rng = StdRng::seed_from_u64(
        config.seed ^ (rank as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15),
    );
    let shuffler = EpochShuffler::new(config.seed ^ (rank as u64) << 32);

    let mut schedule = PlateauSchedule::new(
        p,
        config.lr_scale_cap,
        config.lr_decay,
        config.plateau_tolerance,
        config.max_lr_drops,
    );
    let mut selector = match strategy.comm {
        CommMode::Dynamic { check_every } => Some(DynamicCommSelector::new(check_every)),
        _ => None,
    };

    let mut scratch = Scratch {
        batch: BatchWorkspace::new(dim),
        dense_ent: vec![0.0; dataset.n_entities * dim],
        dense_rel: vec![0.0; dataset.n_relations * dim],
        ent_agg: SparseGrad::new(dim),
        rel_agg: SparseGrad::new(dim),
        gather: GatherBufs::new(),
    };

    // Slot ring for the pipelined exchange, sized once to the largest
    // staleness window any epoch of this run can use, so the steady-state
    // loop never allocates slots. Each slot owns its wire buffers.
    let max_window = match strategy.comm {
        CommMode::Pipelined { staleness } | CommMode::PipelinedAllReduce { staleness } => staleness,
        CommMode::Dynamic { .. } => 1,
        _ => 0,
    };
    let mut pipeline: Vec<PipelineSlot> =
        (0..max_window).map(|_| PipelineSlot::default()).collect();

    let mut trace: Vec<EpochTrace> = Vec::new();
    let mut converged = false;
    let mut tallies = Tallies::default();
    let mut survived = true;

    // Pooled checkpoint buffers: the encoded image, the residual-id
    // scratch, and the exported traffic table are reused across every
    // checkpoint (and across rejoin state transfers), so steady-state
    // checkpointing stops allocating once warm.
    let mut ckpt_buf: Vec<u8> = Vec::new();
    let mut ckpt_ids: Vec<u32> = Vec::new();
    let mut ckpt_traffic: Vec<(Collective, [u64; 6])> = Vec::new();

    // --- Resume: adopt a checkpointed rank state wholesale. -------------
    // Every piece of state that influences a future draw, update, or clock
    // charge is restored, which is what makes the resumed run bit-identical
    // to the uninterrupted one (tests/resume_determinism.rs).
    let mut epoch = 0usize;
    if let Some(dir) = config.resume_from.as_ref() {
        let path = checkpoint::checkpoint_path(dir, rank);
        let ck = checkpoint::read_file(&path)
            .unwrap_or_else(|e| panic!("resume rank {rank} from {}: {e}", path.display()));
        assert_eq!(ck.world_size, p, "checkpoint world size mismatch");
        assert_eq!(ck.rank, rank, "checkpoint rank mismatch");
        assert_eq!(ck.seed, config.seed, "checkpoint seed mismatch");
        assert_eq!(
            (ck.dim, ck.n_entities, ck.n_relations),
            (dim, dataset.n_entities, dataset.n_relations),
            "checkpoint model shape mismatch"
        );
        ent.as_mut_slice().copy_from_slice(ck.ent.as_slice());
        rel.as_mut_slice().copy_from_slice(ck.rel.as_slice());
        ent_opt
            .load_state(ck.ent_opt.as_view())
            .unwrap_or_else(|e| panic!("resume rank {rank}: entity optimizer: {e}"));
        rel_opt
            .load_state(ck.rel_opt.as_view())
            .unwrap_or_else(|e| panic!("resume rank {rank}: relation optimizer: {e}"));
        ent_residual.clear();
        for (row, values) in &ck.ent_residual {
            ent_residual.set_row(*row, values);
        }
        rel_residual.clear();
        for (row, values) in &ck.rel_residual {
            rel_residual.set_row(*row, values);
        }
        rng = StdRng::from_state(ck.rng_state);
        schedule = PlateauSchedule::restore(&ck.schedule);
        if let Some(snap) = &ck.selector {
            selector = Some(
                DynamicCommSelector::restore(snap)
                    .unwrap_or_else(|e| panic!("resume rank {rank}: comm selector: {e}")),
            );
        }
        tallies = ck.tallies.clone();
        trace = ck.trace.clone();
        ctx.comm_mut().clock_mut().restore(ck.clock_now_s, ck.breakdown);
        ctx.comm_mut().traffic_mut().import(&ck.traffic);
        ctx.comm_mut().restore_sequences(ck.coll_seq, &ck.p2p_seq);
        epoch = ck.next_epoch;
    }

    // Set by a rank that was re-admitted mid-loop: it re-enters the epoch
    // the survivors are about to run, whose grow step already happened.
    let mut skip_grow = false;

    while epoch < config.max_epochs {
        // --- Elastic re-grow: re-admit recovered ranks at the epoch
        // boundary. Free (no collective) unless the fault plan schedules
        // recoveries. The decision is a pure function of the aligned clock
        // and the plan, so every survivor takes the same branch.
        if config.recover_from_crashes && !skip_grow {
            let rejoined_now = ctx.comm_mut().try_grow();
            if !rejoined_now.is_empty() {
                rank = ctx.rank();
                p = ctx.size();
                let (s, o, b) = distribute(
                    dataset,
                    strategy.relation_partition,
                    rank,
                    p,
                    config.batch_size,
                );
                base_shard = s;
                shard.clone_from(&base_shard);
                owned_rels = o;
                batches_per_epoch = b;
                // Same re-partitioning price as the shrink path.
                ctx.comm_mut()
                    .clock_mut()
                    .charge_flops((dataset.train.len() * 8) as f64);
                // DRS timings were measured at the old world size; every
                // rank (the rejoiner included, below) re-probes fresh.
                if let Some(sel) = selector.as_mut() {
                    sel.reset();
                }
                tallies.rejoins += rejoined_now.len();
                // The grow leader (lowest surviving original id) ships the
                // authoritative replica state to each rejoiner; its stale
                // copy died with the crash. The payload is a checkpoint
                // image — same codec, pooled buffers.
                let leader_orig = ctx
                    .comm()
                    .orig_ranks()
                    .iter()
                    .copied()
                    .find(|r| !rejoined_now.contains(r))
                    .expect("at least one survivor leads the grow");
                let leader = ctx
                    .comm()
                    .orig_ranks()
                    .iter()
                    .position(|&r| r == leader_orig)
                    .expect("leader present in grown world");
                if rank == leader {
                    for &orig in &rejoined_now {
                        let dst = ctx
                            .comm()
                            .orig_ranks()
                            .iter()
                            .position(|&r| r == orig)
                            .expect("rejoiner present in grown world");
                        encode_rank_state(
                            &mut ckpt_buf,
                            &mut ckpt_ids,
                            &mut ckpt_traffic,
                            ctx,
                            config,
                            epoch,
                            p,
                            rank,
                            &ent,
                            &rel,
                            ent_opt.as_ref(),
                            rel_opt.as_ref(),
                            &ent_residual,
                            &rel_residual,
                            &rng,
                            &schedule,
                            selector.as_ref(),
                            &tallies,
                            &trace,
                        );
                        let buf = std::mem::take(&mut ckpt_buf);
                        ctx.comm_mut()
                            .send_bytes(dst, &buf)
                            .unwrap_or_else(|e| panic!("rejoin state send: {e}"));
                        ckpt_buf = buf;
                    }
                }
            }
        }
        skip_grow = false;

        // Epoch barrier: aligns every clock so that the per-epoch times —
        // which the dynamic comm selector compares — are identical on all
        // nodes (every post-collective charge below derives from shared
        // quantities, so clocks stay equal through the epoch's end).
        ctx.comm_mut().barrier();
        let epoch_start = ctx.comm().clock().now_s();
        let bytes_at_start = ctx.comm().traffic().total_sent();
        shard.copy_from_slice(&base_shard);
        shuffler.shuffle(&mut shard, epoch as u64);

        // The epoch's collective and its staleness window. `window == 0`
        // is the synchronous path (bit-identical to the pre-pipelining
        // trainer); a pipelined choice with staleness 0 degrades to its
        // synchronous base, so `Pipelined { staleness: 0 }` reproduces
        // `AllGather` exactly. Dynamic probes pipelined arms at window 1.
        let (choice, window) = match strategy.comm {
            CommMode::AllReduce => (CommChoice::AllReduce, 0),
            CommMode::AllGather => (CommChoice::AllGather, 0),
            CommMode::Pipelined { staleness } => {
                if staleness == 0 {
                    (CommChoice::AllGather, 0)
                } else {
                    (CommChoice::PipelinedAllGather, staleness)
                }
            }
            CommMode::PipelinedAllReduce { staleness } => {
                if staleness == 0 {
                    (CommChoice::AllReduce, 0)
                } else {
                    (CommChoice::PipelinedAllReduce, staleness)
                }
            }
            CommMode::Dynamic { .. } => {
                let c = selector.as_ref().expect("dynamic selector").choice();
                (c, if c.is_pipelined() { 1 } else { 0 })
            }
        };
        match choice.base() {
            CommChoice::AllReduce => tallies.allreduce_epochs += 1,
            CommChoice::AllGather => tallies.allgather_epochs += 1,
            _ => unreachable!("base() is synchronous"),
        }
        if choice.is_pipelined() {
            tallies.pipelined_epochs += 1;
        }

        let mut epoch_loss = 0.0f64;
        let mut epoch_examples = 0usize;
        let mut nonzero_rows_sum = 0usize;
        let mut rows_sent_sum = 0usize;
        let mut rows_before_rs = 0usize;
        let mut rows_after_rs = 0usize;
        let lr_scale = schedule.lr_scale();

        // A `RankCrashed` error is observed by every participant at the
        // same collective (detection derives from shared clock deposits),
        // so all nodes — survivors and the crashed rank alike — abort the
        // epoch's batch loop together and the program stays collectively
        // well-formed. Any other error is a bug and panics as before.
        let mut crashed_this_epoch = false;
        macro_rules! try_exchange {
            ($expr:expr, $what:literal, $batches:lifetime) => {
                match $expr {
                    Ok(v) => v,
                    Err(SimError::RankCrashed { .. }) => {
                        crashed_this_epoch = true;
                        break $batches
                    }
                    Err(e) => panic!(concat!($what, ": {}"), e),
                }
            };
        }

        // Complete the in-flight exchange held in `pipeline[$idx]`: run the
        // overlapped collective priced from the slot's launch anchor,
        // decode/average, and apply the (stale) optimizer step. Used from
        // inside the batch loop (window full) and from the epoch-end drain;
        // `$lbl` names the loop a `RankCrashed` error aborts.
        macro_rules! complete_slot {
            ($idx:expr, $lbl:lifetime) => {{
                let idx: usize = $idx;
                match choice.base() {
                    CommChoice::AllReduce => {
                        {
                            let slot = &mut pipeline[idx];
                            try_exchange!(
                                complete_allreduce_overlapped(
                                    ctx.comm_mut(),
                                    &mut slot.ent_dense,
                                    slot.anchor_s,
                                ),
                                "pipelined entity allreduce",
                                $lbl
                            );
                        }
                        if !strategy.relation_partition {
                            let slot = &mut pipeline[idx];
                            try_exchange!(
                                complete_allreduce_overlapped(
                                    ctx.comm_mut(),
                                    &mut slot.rel_dense,
                                    slot.anchor_s,
                                ),
                                "pipelined relation allreduce",
                                $lbl
                            );
                        }
                        apply_update(
                            ctx,
                            ent_opt.as_mut(),
                            strategy.update_style,
                            choice,
                            &mut ent,
                            AggRef::Dense {
                                buf: &pipeline[idx].ent_dense,
                                sparse_scratch: &mut scratch.ent_agg,
                            },
                            lr_scale,
                        );
                        if !strategy.relation_partition {
                            apply_update(
                                ctx,
                                rel_opt.as_mut(),
                                strategy.update_style,
                                choice,
                                &mut rel,
                                AggRef::Dense {
                                    buf: &pipeline[idx].rel_dense,
                                    sparse_scratch: &mut scratch.rel_agg,
                                },
                                lr_scale,
                            );
                        }
                    }
                    CommChoice::AllGather => {
                        let gathered = {
                            let slot = &mut pipeline[idx];
                            let (gathered, _overlap) = try_exchange!(
                                complete_gather_exchange_overlapped(
                                    ctx.comm_mut(),
                                    dim,
                                    &mut slot.ent_gather,
                                    &mut scratch.ent_agg,
                                    slot.anchor_s,
                                ),
                                "pipelined entity allgather",
                                $lbl
                            );
                            gathered
                        };
                        // Decode + local sum cost (same charge as the
                        // synchronous gather path; `gathered` is a shared
                        // quantity, so clocks stay rank-identical).
                        ctx.comm_mut()
                            .clock_mut()
                            .charge_flops((gathered * dim) as f64);
                        if !strategy.relation_partition {
                            let slot = &mut pipeline[idx];
                            let _ = try_exchange!(
                                complete_gather_exchange_overlapped(
                                    ctx.comm_mut(),
                                    dim,
                                    &mut slot.rel_gather,
                                    &mut scratch.rel_agg,
                                    slot.anchor_s,
                                ),
                                "pipelined relation allgather",
                                $lbl
                            );
                        }
                        apply_update(
                            ctx,
                            ent_opt.as_mut(),
                            strategy.update_style,
                            choice,
                            &mut ent,
                            AggRef::Sparse {
                                grad: &mut scratch.ent_agg,
                                dense_scratch: &mut scratch.dense_ent,
                            },
                            lr_scale,
                        );
                        if !strategy.relation_partition {
                            apply_update(
                                ctx,
                                rel_opt.as_mut(),
                                strategy.update_style,
                                choice,
                                &mut rel,
                                AggRef::Sparse {
                                    grad: &mut scratch.rel_agg,
                                    dense_scratch: &mut scratch.dense_rel,
                                },
                                lr_scale,
                            );
                        }
                    }
                    _ => unreachable!("base() is synchronous"),
                }
            }};
        }

        'batches: for b in 0..batches_per_epoch {
            let (loss, n_examples) = scratch.batch.batch_gradients_into(
                model, &ent, &rel, &shard, b, config, filter, bias, rank, epoch,
            );
            epoch_loss += loss;
            epoch_examples += n_examples;

            // Charge the batch's forward+backward compute.
            let fwd_bwd = n_examples as f64 * model.score_flops() * 3.0;
            let pool_extra = if strategy.neg.uses_selection() {
                // pool scored per positive; positives = examples / (1+train)
                let positives = n_examples / (1 + strategy.neg.train);
                (positives * strategy.neg.pool) as f64 * model.score_flops()
            } else {
                0.0
            };
            ctx.comm_mut().clock_mut().charge_flops(fwd_bwd + pool_extra);

            nonzero_rows_sum += scratch.batch.ent_grad.rows_above_norm(ZERO_ROW_EPS);

            if window > 0 {
                // --- Pipelined exchange: complete the slot this batch is
                // about to reuse (it holds batch `b − window`), then launch
                // batch `b`'s exchange so its collective rides behind the
                // compute of the next `window` batches. ---------------------
                let slot_idx = b % window;
                if b >= window {
                    complete_slot!(slot_idx, 'batches);
                }

                // Stage RNG streams are keyed on (seed, rank, epoch, batch,
                // stage), so every stochastic draw of the launch (row
                // selection, quantization dithers) is independent of thread
                // count and of when the overlapped collective completes.
                let mut ent_stage_rng =
                    StdRng::seed_from_u64(stage_seed(config.seed, rank, epoch, b, STAGE_ENT));
                let mut rel_stage_rng =
                    StdRng::seed_from_u64(stage_seed(config.seed, rank, epoch, b, STAGE_REL));

                // Anchor before the encode: quantize + encode run on the
                // comm thread of a real pipelined exchange, so their cost
                // (charged to this clock below) is part of the window the
                // collective's price may hide behind.
                pipeline[slot_idx].anchor_s = ctx.comm().clock().now_s();
                pipeline[slot_idx].batch = b;

                if strategy.error_feedback && !matches!(strategy.quant, QuantScheme::None) {
                    ent_residual.add_into(&mut scratch.batch.ent_grad);
                }
                let sel =
                    select_rows(strategy.row_select, &mut scratch.batch.ent_grad, &mut ent_stage_rng);
                rows_before_rs += sel.rows_before;
                rows_after_rs += sel.rows_after;
                ctx.comm_mut()
                    .clock_mut()
                    .charge_flops((sel.rows_before * dim * 2) as f64);

                match choice.base() {
                    CommChoice::AllReduce => {
                        let slot = &mut pipeline[slot_idx];
                        slot.ent_stats = stage_allreduce_payload(
                            &scratch.batch.ent_grad,
                            &mut slot.ent_dense,
                            dataset.n_entities * dim,
                        );
                        rows_sent_sum += slot.ent_stats.rows_sent;
                        if !strategy.relation_partition {
                            slot.rel_stats = stage_allreduce_payload(
                                &scratch.batch.rel_grad,
                                &mut slot.rel_dense,
                                dataset.n_relations * dim,
                            );
                        }
                    }
                    CommChoice::AllGather => {
                        // Quantization costs ~2 flops per element.
                        ctx.comm_mut()
                            .clock_mut()
                            .charge_flops((scratch.batch.ent_grad.nnz() * dim * 2) as f64);
                        let residuals = if strategy.error_feedback
                            && !matches!(strategy.quant, QuantScheme::None)
                        {
                            Some(&mut ent_residual)
                        } else {
                            None
                        };
                        scratch.batch.ent_grad.ensure_sorted();
                        let slot = &mut pipeline[slot_idx];
                        slot.ent_stats = encode_gather_payload(
                            &scratch.batch.ent_grad,
                            dim,
                            strategy.quant,
                            residuals,
                            &mut ent_stage_rng,
                            &mut slot.ent_gather,
                        );
                        rows_sent_sum += slot.ent_stats.rows_sent;
                        if !strategy.relation_partition {
                            let residuals = if strategy.error_feedback
                                && !matches!(strategy.quant, QuantScheme::None)
                            {
                                Some(&mut rel_residual)
                            } else {
                                None
                            };
                            scratch.batch.rel_grad.ensure_sorted();
                            slot.rel_stats = encode_gather_payload(
                                &scratch.batch.rel_grad,
                                dim,
                                strategy.quant,
                                residuals,
                                &mut rel_stage_rng,
                                &mut slot.rel_gather,
                            );
                        }
                    }
                    _ => unreachable!("base() is synchronous"),
                }

                // Under RP relation rows never travel; apply them
                // synchronously — the staleness window covers exchanged
                // gradients only.
                if strategy.relation_partition {
                    apply_update(
                        ctx,
                        rel_opt.as_mut(),
                        strategy.update_style,
                        choice,
                        &mut rel,
                        AggRef::Sparse {
                            grad: &mut scratch.batch.rel_grad,
                            dense_scratch: &mut scratch.dense_rel,
                        },
                        lr_scale,
                    );
                }
                continue 'batches;
            }

            // --- Entity gradient pipeline. ---------------------------
            if strategy.error_feedback && !matches!(strategy.quant, QuantScheme::None) {
                ent_residual.add_into(&mut scratch.batch.ent_grad);
            }
            let sel = select_rows(strategy.row_select, &mut scratch.batch.ent_grad, &mut rng);
            rows_before_rs += sel.rows_before;
            rows_after_rs += sel.rows_after;
            // Norm computation + selection cost.
            ctx.comm_mut()
                .clock_mut()
                .charge_flops((sel.rows_before * dim * 2) as f64);

            // `true` means the aggregate landed in the dense scratch
            // buffer; `false` means it landed in the sparse aggregate.
            let ent_dense: bool = match choice {
                CommChoice::AllReduce => {
                    let stats = try_exchange!(
                        exchange_allreduce(
                            ctx.comm_mut(),
                            &scratch.batch.ent_grad,
                            &mut scratch.dense_ent,
                        ),
                        "entity allreduce",
                        'batches
                    );
                    rows_sent_sum += stats.rows_sent;
                    true
                }
                CommChoice::AllGather => {
                    // Quantization costs ~2 flops per element.
                    ctx.comm_mut()
                        .clock_mut()
                        .charge_flops((scratch.batch.ent_grad.nnz() * dim * 2) as f64);
                    let residuals = if strategy.error_feedback
                        && !matches!(strategy.quant, QuantScheme::None)
                    {
                        Some(&mut ent_residual)
                    } else {
                        None
                    };
                    // Sort now (cheap, reuses the cached order) so the
                    // wire iteration below borrows instead of cloning.
                    scratch.batch.ent_grad.ensure_sorted();
                    let stats = try_exchange!(
                        exchange_allgather_into(
                            ctx.comm_mut(),
                            &scratch.batch.ent_grad,
                            dim,
                            strategy.quant,
                            residuals,
                            &mut rng,
                            &mut scratch.gather,
                            &mut scratch.ent_agg,
                        ),
                        "entity allgather",
                        'batches
                    );
                    rows_sent_sum += stats.rows_sent;
                    // Decode + local sum cost.
                    ctx.comm_mut()
                        .clock_mut()
                        .charge_flops((stats.rows_gathered * dim) as f64);
                    false
                }
                _ => unreachable!("pipelined choices imply window > 0"),
            };

            // --- Relation gradient pipeline. --------------------------
            // With relation partition there is no communication; relation
            // rows are node-local and stay full precision (the paper's
            // accuracy argument for RP) — the local gradient is applied
            // directly below.
            let rel_dense: bool = if strategy.relation_partition {
                false
            } else {
                match choice {
                    CommChoice::AllReduce => {
                        let _ = try_exchange!(
                            exchange_allreduce(
                                ctx.comm_mut(),
                                &scratch.batch.rel_grad,
                                &mut scratch.dense_rel,
                            ),
                            "relation allreduce",
                            'batches
                        );
                        true
                    }
                    CommChoice::AllGather => {
                        let residuals = if strategy.error_feedback
                            && !matches!(strategy.quant, QuantScheme::None)
                        {
                            Some(&mut rel_residual)
                        } else {
                            None
                        };
                        scratch.batch.rel_grad.ensure_sorted();
                        let _ = try_exchange!(
                            exchange_allgather_into(
                                ctx.comm_mut(),
                                &scratch.batch.rel_grad,
                                dim,
                                strategy.quant,
                                residuals,
                                &mut rng,
                                &mut scratch.gather,
                                &mut scratch.rel_agg,
                            ),
                            "relation allgather",
                            'batches
                        );
                        false
                    }
                    _ => unreachable!("pipelined choices imply window > 0"),
                }
            };

            // --- Optimizer step. ---------------------------------------
            let ent_ref = if ent_dense {
                AggRef::Dense {
                    buf: &scratch.dense_ent,
                    sparse_scratch: &mut scratch.ent_agg,
                }
            } else {
                AggRef::Sparse {
                    grad: &mut scratch.ent_agg,
                    dense_scratch: &mut scratch.dense_ent,
                }
            };
            apply_update(
                ctx,
                ent_opt.as_mut(),
                strategy.update_style,
                choice,
                &mut ent,
                ent_ref,
                lr_scale,
            );
            let rel_ref = if strategy.relation_partition {
                AggRef::Sparse {
                    grad: &mut scratch.batch.rel_grad,
                    dense_scratch: &mut scratch.dense_rel,
                }
            } else if rel_dense {
                AggRef::Dense {
                    buf: &scratch.dense_rel,
                    sparse_scratch: &mut scratch.rel_agg,
                }
            } else {
                AggRef::Sparse {
                    grad: &mut scratch.rel_agg,
                    dense_scratch: &mut scratch.dense_rel,
                }
            };
            apply_update(
                ctx,
                rel_opt.as_mut(),
                strategy.update_style,
                choice,
                &mut rel,
                rel_ref,
                lr_scale,
            );
        }

        // --- Pipeline drain: complete every still-in-flight exchange in
        // launch (FIFO) order, so staleness never crosses an epoch
        // boundary and the validation signal sees every batch applied.
        // After a crash the in-flight slots are discarded instead — their
        // updates were never applied, so dropping them *is* the rollback
        // of the partial window. ----------------------------------------
        if window > 0 && !crashed_this_epoch {
            'drain: for b in batches_per_epoch.saturating_sub(window)..batches_per_epoch {
                complete_slot!(b % window, 'drain);
            }
        }

        // --- Relation assembly under RP (once per epoch, so validation
        // and the final model see every relation's owner copy). ----------
        if !crashed_this_epoch && strategy.relation_partition && p > 1 {
            match gather_table_rows(ctx.comm_mut(), &mut rel, owned_rels.iter().copied()) {
                Ok(()) => {}
                Err(SimError::RankCrashed { .. }) => crashed_this_epoch = true,
                Err(e) => panic!("relation assembly allgather: {e}"),
            }
        }

        // --- Degradation policy: drop the aborted epoch, shrink the
        // communicator to the survivors, rebalance, keep training. -------
        if crashed_this_epoch {
            // The aborted epoch yields no trace entry or validation
            // signal; un-count its collective choice so the tallies keep
            // matching the trace length.
            match choice.base() {
                CommChoice::AllReduce => tallies.allreduce_epochs -= 1,
                CommChoice::AllGather => tallies.allgather_epochs -= 1,
                _ => unreachable!("base() is synchronous"),
            }
            if choice.is_pipelined() {
                tallies.pipelined_epochs -= 1;
            }
            tallies.crashed_ranks.extend(ctx.comm().failed_ranks());
            if !config.recover_from_crashes {
                break;
            }
            match ctx.comm_mut().shrink() {
                Ok(true) => {
                    // Survivor: adopt the shrunken world and redistribute
                    // the triples over it. The LR schedule keeps its
                    // original world-size scaling (deliberate — see
                    // DESIGN.md); DRS forgets its timings and re-probes
                    // at the new size.
                    tallies.recoveries += 1;
                    rank = ctx.rank();
                    p = ctx.size();
                    let (s, o, b) = distribute(
                        dataset,
                        strategy.relation_partition,
                        rank,
                        p,
                        config.batch_size,
                    );
                    base_shard = s;
                    shard.clone_from(&base_shard);
                    owned_rels = o;
                    batches_per_epoch = b;
                    // Re-partitioning cost: a sort-like pass over the full
                    // triple set, identical on every survivor.
                    ctx.comm_mut()
                        .clock_mut()
                        .charge_flops((dataset.train.len() * 8) as f64);
                    if let Some(sel) = selector.as_mut() {
                        sel.reset();
                    }
                    epoch += 1;
                    continue;
                }
                Ok(false) => {
                    // This is the crashed rank. It parks in the rejoin
                    // lobby: if the fault plan schedules its recovery, the
                    // survivors re-admit it at an epoch boundary;
                    // otherwise they close the lobby when the run ends and
                    // it leaves the job (its replica is stale; train()
                    // only uses its wire traffic totals).
                    match ctx.comm_mut().await_rejoin() {
                        Some(leader) => {
                            rank = ctx.rank();
                            p = ctx.size();
                            let (s, o, b) = distribute(
                                dataset,
                                strategy.relation_partition,
                                rank,
                                p,
                                config.batch_size,
                            );
                            base_shard = s;
                            shard.clone_from(&base_shard);
                            owned_rels = o;
                            batches_per_epoch = b;
                            // Adopt the authoritative replica state from
                            // the grow leader. Local stream state (RNG,
                            // clock, traffic, fault cursors) stays this
                            // rank's own; residuals reset — the error
                            // feedback died with the crash.
                            let msg = ctx
                                .comm_mut()
                                .recv_bytes_from(leader)
                                .unwrap_or_else(|e| panic!("rejoin state recv: {e}"));
                            let ck = checkpoint::decode(&msg.payload)
                                .unwrap_or_else(|e| panic!("rejoin state decode: {e}"));
                            ent.as_mut_slice().copy_from_slice(ck.ent.as_slice());
                            rel.as_mut_slice().copy_from_slice(ck.rel.as_slice());
                            ent_opt
                                .load_state(ck.ent_opt.as_view())
                                .unwrap_or_else(|e| panic!("rejoin: entity optimizer: {e}"));
                            rel_opt
                                .load_state(ck.rel_opt.as_view())
                                .unwrap_or_else(|e| panic!("rejoin: relation optimizer: {e}"));
                            ent_residual.clear();
                            rel_residual.clear();
                            schedule = PlateauSchedule::restore(&ck.schedule);
                            // Mirror the survivors' post-grow DRS reset.
                            selector = match strategy.comm {
                                CommMode::Dynamic { check_every } => {
                                    Some(DynamicCommSelector::new(check_every))
                                }
                                _ => None,
                            };
                            tallies = ck.tallies.clone();
                            trace = ck.trace.clone();
                            // Re-enter at the epoch the survivors are
                            // about to run; their grow step this epoch
                            // already happened.
                            epoch = ck.next_epoch;
                            skip_grow = true;
                            continue;
                        }
                        None => {
                            survived = false;
                            break;
                        }
                    }
                }
                Err(e) => panic!("communicator shrink: {e}"),
            }
        }

        // --- Validation signal + schedule. ------------------------------
        let acc = fast_valid_accuracy(
            model,
            &ent,
            &rel,
            &dataset.valid,
            filter,
            dataset.n_entities,
            config.valid_samples,
            config.seed ^ (epoch as u64).wrapping_mul(0x2545F4914F6CDD1D),
        );
        ctx.comm_mut().clock_mut().charge_flops(
            (config.valid_samples.min(dataset.valid.len()) * 2) as f64 * model.score_flops(),
        );

        let epoch_time = ctx.comm().clock().now_s() - epoch_start;
        if let Some(sel) = selector.as_mut() {
            sel.observe_epoch(epoch_time);
        }

        // --- Optional full ranking eval, sharded across ranks. ----------
        // Runs after `epoch_time` is taken so the dynamic comm selector's
        // per-epoch signal stays a pure training measurement; the eval's
        // compute and collectives still land on the simulated clock (and
        // therefore in `sim_total_seconds`). Collective: every surviving
        // rank reaches this point with the same epoch counter.
        let ranking = match eval_state.as_mut() {
            Some((grouped, ws))
                if (epoch + 1).is_multiple_of(config.eval_every) && !dataset.valid.is_empty() =>
            {
                Some(evaluate_ranking_distributed(
                    ctx.comm_mut(),
                    ws,
                    model,
                    &ent,
                    &rel,
                    &dataset.valid,
                    grouped,
                    &RankingOptions {
                        filtered: true,
                        max_queries: config.eval_max_queries,
                        seed: config.seed,
                    },
                ))
            }
            _ => None,
        };

        let batches = batches_per_epoch as f64;
        trace.push(EpochTrace {
            epoch,
            sim_seconds: epoch_time,
            comm: choice,
            valid_acc: acc,
            train_loss: if epoch_examples > 0 {
                epoch_loss / epoch_examples as f64
            } else {
                0.0
            },
            lr_scale,
            mean_nonzero_rows: nonzero_rows_sum as f64 / batches,
            mean_rows_sent: rows_sent_sum as f64 / batches,
            rs_sparsity: if rows_before_rs > 0 {
                1.0 - rows_after_rs as f64 / rows_before_rs as f64
            } else {
                0.0
            },
            bytes_sent: ctx.comm().traffic().total_sent() - bytes_at_start,
            ranking,
        });

        let decision = schedule.observe(acc);

        // --- Periodic checkpoint. ---------------------------------------
        // Written after the schedule has observed this epoch, so a resume
        // continues from exactly the state the uninterrupted run carries
        // into the next epoch. The modeled write cost is charged to the
        // clock's `checkpoint_s` bucket *before* the clock is captured:
        // the image embeds the post-charge clock, which is the clock the
        // uninterrupted run continues with.
        if config.checkpoint_every > 0 && (epoch + 1).is_multiple_of(config.checkpoint_every) {
            let dir = config
                .checkpoint_dir
                .as_ref()
                .expect("validated: checkpoint_every requires checkpoint_dir");
            tallies.checkpoints_written += 1;
            // Cost model: latency + model + optimizer bytes over the
            // checkpoint device bandwidth. A deterministic function of
            // table shapes only, so every rank charges the same amount
            // and clocks stay aligned.
            let state_bytes = 2 * (ent.nbytes() + rel.nbytes());
            ctx.comm_mut()
                .clock_mut()
                .charge_checkpoint_seconds(CKPT_LATENCY_S + state_bytes as f64 / CKPT_BW_BYTES_S);
            encode_rank_state(
                &mut ckpt_buf,
                &mut ckpt_ids,
                &mut ckpt_traffic,
                ctx,
                config,
                epoch + 1,
                p,
                rank,
                &ent,
                &rel,
                ent_opt.as_ref(),
                rel_opt.as_ref(),
                &ent_residual,
                &rel_residual,
                &rng,
                &schedule,
                selector.as_ref(),
                &tallies,
                &trace,
            );
            let path = checkpoint::checkpoint_path(dir, rank);
            checkpoint::write_file(&path, &ckpt_buf)
                .unwrap_or_else(|e| panic!("checkpoint write {}: {e}", path.display()));
        }

        // --- Serving-snapshot publish. ----------------------------------
        // Same boundary as the checkpoint (after the schedule observed the
        // epoch), so the bytes a sink receives equal the checkpoint-derived
        // model bytes bit-for-bit. The modeled in-memory copy cost is a
        // pure function of table shapes, so *every* rank charges it and
        // clocks stay aligned; only rank 0 calls the sink — replicas are
        // bit-identical, and after a crash-shrink the lead survivor holds
        // rank 0.
        if config.serve_snapshots > 0 && (epoch + 1).is_multiple_of(config.serve_snapshots) {
            let model_bytes = ent.nbytes() + rel.nbytes();
            let clock = ctx.comm_mut().clock_mut();
            clock.charge_checkpoint_seconds(SNAP_LATENCY_S + model_bytes as f64 / SNAP_BW_BYTES_S);
            let sim_now_s = clock.now_s();
            if rank == 0 {
                if let Some(sink) = sink {
                    sink.publish(&PublishedModel {
                        epochs_done: epoch + 1,
                        sim_now_s,
                        ent: &ent,
                        rel: &rel,
                    });
                }
            }
        }

        if matches!(decision, crate::lr::LrDecision::Converged) {
            converged = true;
            break;
        }
        epoch += 1;
    }

    // Wake any rank still parked on a recovery the run never reached.
    // Idempotent; a no-op for runs without fault plans.
    if survived {
        ctx.comm().close_lobby();
    }

    let breakdown = ctx.comm().clock().breakdown();
    // After a shrink the lead survivor holds rank 0 of the new world; the
    // crashed rank never reports even if it was the original rank 0.
    let report = if survived && rank == 0 {
        Some(TrainReport {
            dataset: dataset.name.clone(),
            nodes: initial_p,
            epochs: trace.len(),
            converged,
            sim_total_seconds: ctx.comm().clock().now_s(),
            breakdown,
            trace,
            allreduce_epochs: tallies.allreduce_epochs,
            allgather_epochs: tallies.allgather_epochs,
            pipelined_epochs: tallies.pipelined_epochs,
            surviving_nodes: p,
            recoveries: tallies.recoveries,
            rejoins: tallies.rejoins,
            checkpoints_written: tallies.checkpoints_written,
            crashed_ranks: tallies.crashed_ranks,
            // Filled in by train(), which sums over every rank.
            wire_bytes_sent: 0,
            wire_bytes_recv: 0,
            sharded: None,
        })
    } else {
        None
    };
    let traffic = ctx.comm().traffic().report();
    NodeResult {
        report,
        entities: ent,
        relations: rel,
        wire_sent: traffic.total_wire_sent(),
        wire_recv: traffic.total_wire_recv(),
    }
}

/// One chunk's reusable working state: the example staging arrays fed to
/// the fused block kernel, the kernel's scratch, the
/// negative-sampling scratch, and the chunk-local gradient accumulators.
/// Instances live in a [`ScratchPool`] so every buffer is reused across
/// chunks, batches, and epochs — after warmup, processing a chunk
/// performs no heap allocation.
pub(crate) struct ChunkScratch {
    pub(crate) loss: f64,
    pub(crate) examples: usize,
    /// Example labels (+1 positive / −1 negative), in example order.
    pub(crate) labels: Vec<f32>,
    /// `(head, rel, tail)` ids in example order, the block kernel's input.
    pub(crate) triples: Vec<(u32, u32, u32)>,
    pub(crate) block: BlockScratch,
    pub(crate) neg_scratch: NegScratch,
    pub(crate) ent: SparseGrad,
    pub(crate) rel: SparseGrad,
}

impl ChunkScratch {
    pub(crate) fn new(dim: usize) -> Self {
        ChunkScratch {
            loss: 0.0,
            examples: 0,
            labels: Vec::new(),
            triples: Vec::new(),
            block: BlockScratch::new(),
            neg_scratch: NegScratch::default(),
            ent: SparseGrad::new(dim),
            rel: SparseGrad::new(dim),
        }
    }
}

/// Serialize this rank's full training state into `buf` using the pooled
/// scratch vectors — no allocations in steady state once the pools have
/// grown to their high-water marks. `next_epoch` is the first epoch the
/// restored run executes.
#[allow(clippy::too_many_arguments)]
fn encode_rank_state(
    buf: &mut Vec<u8>,
    ids: &mut Vec<u32>,
    traffic_scratch: &mut Vec<(Collective, [u64; 6])>,
    ctx: &NodeCtx,
    config: &TrainConfig,
    next_epoch: usize,
    world_size: usize,
    rank: usize,
    ent: &EmbeddingTable,
    rel: &EmbeddingTable,
    ent_opt: &dyn RowOptimizer,
    rel_opt: &dyn RowOptimizer,
    ent_residual: &ResidualStore,
    rel_residual: &ResidualStore,
    rng: &StdRng,
    schedule: &PlateauSchedule,
    selector: Option<&DynamicCommSelector>,
    tallies: &Tallies,
    trace: &[EpochTrace],
) {
    ctx.comm().traffic().export_into(traffic_scratch);
    let view = CheckpointView {
        world_size,
        rank,
        next_epoch,
        seed: config.seed,
        ent,
        rel,
        ent_opt: ent_opt.state_view(),
        rel_opt: rel_opt.state_view(),
        ent_residual,
        rel_residual,
        rng_state: rng.state(),
        schedule: schedule.snapshot(),
        selector: selector.map(|s| s.snapshot()),
        tallies,
        trace,
        clock_now_s: ctx.comm().clock().now_s(),
        breakdown: ctx.comm().clock().breakdown(),
        traffic: &*traffic_scratch,
        coll_seq: ctx.comm().coll_seq(),
        p2p_seq: ctx.comm().p2p_seq(),
    };
    checkpoint::encode_into(&view, ids, buf);
}

/// RNG seed for one gradient chunk, derived from its structural
/// coordinates by sequentially mixing each through splitmix64. Every
/// `(seed, rank, epoch, batch, chunk)` tuple gets an independent stream
/// regardless of which worker thread runs the chunk.
pub(crate) fn chunk_seed(
    seed: u64,
    rank: usize,
    epoch: usize,
    batch_idx: usize,
    chunk_idx: usize,
) -> u64 {
    let mut h = seed;
    for w in [
        rank as u64,
        epoch as u64,
        batch_idx as u64,
        chunk_idx as u64,
    ] {
        h = crate::splitmix64(h ^ w);
    }
    h
}

/// Stage ids for [`stage_seed`]: the entity and relation exchange stages
/// of one batch's pipelined launch.
const STAGE_ENT: u64 = 0;
const STAGE_REL: u64 = 1;

/// RNG seed for one pipelined exchange stage, derived like [`chunk_seed`]
/// but from a tagged chain — it starts at `splitmix64(seed ^ TAG)` instead
/// of `seed` — so stage streams can never collide with a gradient chunk's
/// stream. Keying on `(seed, rank, epoch, batch, stage)` makes every
/// stochastic draw of a launch (row selection, quantization dithers)
/// independent of thread count and of interleaving with completions.
fn stage_seed(seed: u64, rank: usize, epoch: usize, batch: usize, stage: u64) -> u64 {
    const TAG: u64 = 0x5049_5045_4C49_4E45; // ASCII "PIPELINE"
    let mut h = crate::splitmix64(seed ^ TAG);
    for w in [rank as u64, epoch as u64, batch as u64, stage] {
        h = crate::splitmix64(h ^ w);
    }
    h
}

/// Stage one chunk's examples and run them through the fused block
/// kernel. Phase 1 draws positives and negatives in the exact RNG order
/// of the scalar path, staging `(label, triple)` pairs in example order;
/// phase 2 makes a single [`KgeModel::score_grad_block`] call that
/// scores the chunk, forms coefficients (accumulating the f64 loss in
/// example order), and adds regularized gradients into the chunk
/// accumulators — bit-identical to per-example score/grad/axpy.
#[allow(clippy::too_many_arguments)]
fn process_chunk(
    model: &dyn KgeModel,
    ent: &EmbeddingTable,
    rel: &EmbeddingTable,
    shard: &[Triple],
    start: usize,
    lo: usize,
    hi: usize,
    inv_batch: f32,
    config: &TrainConfig,
    filter: &FilterIndex,
    bias: Option<&CorruptionBias>,
    rng_seed: u64,
    cs: &mut ChunkScratch,
) {
    stage_chunk(
        model,
        ent,
        rel,
        ent.rows(),
        shard,
        start,
        lo,
        hi,
        config,
        filter,
        bias,
        rng_seed,
        cs,
    );
    compute_chunk(model, ent, rel, inv_batch, config, cs);
}

/// Phase 1 of [`process_chunk`]: draw the chunk's negatives — every pool
/// first, then one scoring call under selection ([`NegSampler::sample`]) —
/// and stage `(label, triple)` pairs in example order. `n_entities` is the
/// corruption range — the replica path passes `ent.rows()`, while the
/// sharded path stages against placeholder tables before the pull fills
/// them, so the range must be the global entity count, not the table
/// height. The chunk's gradient accumulators are cleared here so a staged
/// chunk is always ready for [`compute_chunk`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn stage_chunk(
    model: &dyn KgeModel,
    ent: &EmbeddingTable,
    rel: &EmbeddingTable,
    n_entities: usize,
    shard: &[Triple],
    start: usize,
    lo: usize,
    hi: usize,
    config: &TrainConfig,
    filter: &FilterIndex,
    bias: Option<&CorruptionBias>,
    rng_seed: u64,
    cs: &mut ChunkScratch,
) {
    cs.loss = 0.0;
    cs.labels.clear();
    cs.triples.clear();
    cs.ent.clear();
    cs.rel.clear();
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let sampler = NegSampler {
        policy: config.strategy.neg,
        model,
        ent,
        rel,
        filter,
        bias,
        n_entities,
    };
    let positives = (lo..hi).map(|i| shard[(start + i) % shard.len()]);
    sampler.stage(positives, &mut rng, &mut cs.neg_scratch, &mut cs.labels, &mut cs.triples);
    cs.examples = cs.triples.len();
}

/// Phase 2 of [`process_chunk`]: the fused kernel call over an
/// already-staged chunk. The entity ids in `cs.triples` index `ent` —
/// global ids for the replica path, batch-local ids for the sharded path
/// (the kernel reads only the rows the triples name, so the remap is
/// value-transparent).
pub(crate) fn compute_chunk(
    model: &dyn KgeModel,
    ent: &EmbeddingTable,
    rel: &EmbeddingTable,
    inv_batch: f32,
    config: &TrainConfig,
    cs: &mut ChunkScratch,
) {
    let ChunkScratch {
        loss,
        labels,
        triples,
        block,
        ent: ent_g,
        rel: rel_g,
        ..
    } = cs;
    let mut coeff_of = |i: usize, score: f32| {
        let y = labels[i];
        *loss += logistic_loss(y, score) as f64;
        logistic_loss_grad(y, score) * inv_batch
    };
    model.score_grad_block(
        ent,
        rel,
        triples,
        2.0 * config.l2 * inv_batch,
        block,
        &mut coeff_of,
        ent_g,
        rel_g,
    );
}

/// Fold chunk `c`'s accumulators into the batch's, chunks in order. The
/// first chunk's are handed over by swap — the batch's are empty then, and
/// adding a chunk sum to a zeroed slab changes no bit: a slab element
/// starts at +0.0 and `x + y` is −0.0 only when both are, so a chunk sum
/// is never −0.0 and `0.0 + v == v`. Rows, values and insertion order come
/// out exactly as a merge leaves them.
pub(crate) fn fold_chunk(
    c: usize,
    cs: &mut ChunkScratch,
    ent_grad: &mut SparseGrad,
    rel_grad: &mut SparseGrad,
) {
    if c == 0 {
        debug_assert!(ent_grad.is_empty() && rel_grad.is_empty());
        std::mem::swap(ent_grad, &mut cs.ent);
        std::mem::swap(rel_grad, &mut cs.rel);
    } else {
        ent_grad.merge(&cs.ent);
        rel_grad.merge(&cs.rel);
    }
}

/// Reusable workspace for the batch-gradient hot path: the per-batch
/// entity/relation accumulators plus the pool of per-chunk scratch
/// state. Public so benches and the allocation-regression test can drive
/// the exact code the trainer runs.
pub struct BatchWorkspace {
    ent_grad: SparseGrad,
    rel_grad: SparseGrad,
    chunk_pool: ScratchPool<ChunkScratch>,
}

impl BatchWorkspace {
    pub fn new(dim: usize) -> Self {
        BatchWorkspace {
            ent_grad: SparseGrad::new(dim),
            rel_grad: SparseGrad::new(dim),
            chunk_pool: ScratchPool::new(),
        }
    }

    /// Accumulate one batch's gradients into the workspace accumulators
    /// (cleared first). Returns `(summed loss, trained examples)`.
    ///
    /// The batch is split into fixed-size chunks of [`GRAD_CHUNK`]
    /// positives. Each chunk samples its negatives from its own seeded
    /// RNG stream (see [`chunk_seed`]) and runs the fused block kernel
    /// into pooled chunk-local accumulators; chunks are then merged **in
    /// chunk order**, so the result is bit-identical at any thread
    /// count. On a single-thread pool the chunks run inline with no
    /// intermediate collection, so steady-state batches allocate nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn batch_gradients_into(
        &mut self,
        model: &dyn KgeModel,
        ent: &EmbeddingTable,
        rel: &EmbeddingTable,
        shard: &[Triple],
        batch_idx: usize,
        config: &TrainConfig,
        filter: &FilterIndex,
        bias: Option<&CorruptionBias>,
        rank: usize,
        epoch: usize,
    ) -> (f64, usize) {
        self.ent_grad.clear();
        self.rel_grad.clear();
        if shard.is_empty() {
            return (0.0, 0);
        }
        let bs = config.batch_size.min(shard.len());
        let start = batch_idx * config.batch_size;
        let dim = ent.dim();
        // Every positive trains against exactly `neg.train` negatives
        // (`NegSampler::sample` keeps `train` out of `pool ≥ train`),
        // so the batch normalizer is known before any chunk runs.
        let inv_batch = 1.0f32 / (bs * (1 + config.strategy.neg.train)) as f32;
        let n_chunks = bs.div_ceil(GRAD_CHUNK);
        let pool = &self.chunk_pool;

        let mut loss_sum = 0.0f64;
        let mut examples = 0usize;
        if rayon::current_num_threads() <= 1 || n_chunks == 1 {
            // Sequential fast path: one pooled scratch processes the
            // chunks in order and merges each immediately — same chunk
            // seeds, same merge order, no intermediate collection.
            let mut cs = pool.acquire_with(|| ChunkScratch::new(dim));
            for c in 0..n_chunks {
                let lo = c * GRAD_CHUNK;
                let hi = (lo + GRAD_CHUNK).min(bs);
                process_chunk(
                    model,
                    ent,
                    rel,
                    shard,
                    start,
                    lo,
                    hi,
                    inv_batch,
                    config,
                    filter,
                    bias,
                    chunk_seed(config.seed, rank, epoch, batch_idx, c),
                    &mut cs,
                );
                loss_sum += cs.loss;
                examples += cs.examples;
                fold_chunk(c, &mut cs, &mut self.ent_grad, &mut self.rel_grad);
            }
            pool.release(cs);
        } else {
            let chunks: Vec<Box<ChunkScratch>> = rayon::par_map_index(n_chunks, |c| {
                let mut cs = pool.acquire_with(|| ChunkScratch::new(dim));
                let lo = c * GRAD_CHUNK;
                let hi = (lo + GRAD_CHUNK).min(bs);
                process_chunk(
                    model,
                    ent,
                    rel,
                    shard,
                    start,
                    lo,
                    hi,
                    inv_batch,
                    config,
                    filter,
                    bias,
                    chunk_seed(config.seed, rank, epoch, batch_idx, c),
                    &mut cs,
                );
                cs
            });
            for (c, mut cs) in chunks.into_iter().enumerate() {
                loss_sum += cs.loss;
                examples += cs.examples;
                fold_chunk(c, &mut cs, &mut self.ent_grad, &mut self.rel_grad);
                pool.release(cs);
            }
        }
        (loss_sum, examples)
    }

    /// The entity-gradient accumulator from the last batch.
    pub fn ent_grad(&self) -> &SparseGrad {
        &self.ent_grad
    }

    /// The relation-gradient accumulator from the last batch.
    pub fn rel_grad(&self) -> &SparseGrad {
        &self.rel_grad
    }

    /// Mutable access for downstream pipeline stages (selection,
    /// residual feedback, sort warm-up) that edit the gradient in place.
    pub fn ent_grad_mut(&mut self) -> &mut SparseGrad {
        &mut self.ent_grad
    }

    /// See [`BatchWorkspace::ent_grad_mut`].
    pub fn rel_grad_mut(&mut self) -> &mut SparseGrad {
        &mut self.rel_grad
    }
}

/// Public entry point for benches and tests: one batch's chunked-parallel
/// gradient computation, returning `(loss, examples, ent_grad, rel_grad)`.
/// Allocates a fresh [`BatchWorkspace`] per call; steady-state callers
/// should hold a workspace and use [`BatchWorkspace::batch_gradients_into`].
#[allow(clippy::too_many_arguments)]
pub fn batch_gradients(
    model: &dyn KgeModel,
    ent: &EmbeddingTable,
    rel: &EmbeddingTable,
    shard: &[Triple],
    batch_idx: usize,
    config: &TrainConfig,
    filter: &FilterIndex,
    bias: Option<&CorruptionBias>,
    rank: usize,
    epoch: usize,
) -> (f64, usize, SparseGrad, SparseGrad) {
    let mut ws = BatchWorkspace::new(ent.dim());
    let (loss, examples) =
        ws.batch_gradients_into(model, ent, rel, shard, batch_idx, config, filter, bias, rank, epoch);
    (loss, examples, ws.ent_grad, ws.rel_grad)
}

/// A borrowed view of one batch's aggregated gradient, paired with the
/// scratch buffer the *other* representation would need, so the update
/// step can convert in place without allocating.
enum AggRef<'a> {
    /// Dense mean gradient (all-reduce result). `sparse_scratch` holds a
    /// reusable sparse view for lazy update styles.
    Dense {
        buf: &'a [f32],
        sparse_scratch: &'a mut SparseGrad,
    },
    /// Sparse aggregated gradient (all-gather result or RP-local rows).
    /// `dense_scratch` holds the full-table buffer dense update styles
    /// scatter into. Mutable so the lazy path can warm the sorted-row
    /// cache in place before the optimizer iterates it.
    Sparse {
        grad: &'a mut SparseGrad,
        dense_scratch: &'a mut Vec<f32>,
    },
}

/// Apply the optimizer step for one table, honoring the update style, and
/// charge its simulated compute. Representation conversions (dense↔sparse)
/// reuse the scratch buffer carried inside [`AggRef`].
fn apply_update(
    ctx: &mut NodeCtx,
    opt: &mut dyn RowOptimizer,
    style: UpdateStyle,
    choice: CommChoice,
    table: &mut EmbeddingTable,
    agg: AggRef<'_>,
    lr_scale: f32,
) {
    let dim = table.dim();
    let dense_style = match style {
        UpdateStyle::Auto => matches!(choice.base(), CommChoice::AllReduce),
        UpdateStyle::Dense => true,
        UpdateStyle::Lazy => false,
    };
    match agg {
        AggRef::Dense { buf, sparse_scratch } => {
            if dense_style {
                opt.step_dense(table, buf, lr_scale);
                ctx.comm_mut()
                    .clock_mut()
                    .charge_flops(opt.dense_step_flops());
            } else {
                sparse_from_dense_into(buf, dim, sparse_scratch);
                sparse_scratch.ensure_sorted();
                ctx.comm_mut()
                    .clock_mut()
                    .charge_flops(opt.lazy_step_flops(sparse_scratch.nnz()));
                opt.step_lazy(table, sparse_scratch, lr_scale);
            }
        }
        AggRef::Sparse {
            grad,
            dense_scratch,
        } => {
            if dense_style {
                dense_scratch.resize(table.rows() * dim, 0.0);
                dense_scratch.fill(0.0);
                grad.scatter_into(dense_scratch);
                opt.step_dense(table, dense_scratch, lr_scale);
                ctx.comm_mut()
                    .clock_mut()
                    .charge_flops(opt.dense_step_flops());
            } else {
                grad.ensure_sorted();
                ctx.comm_mut()
                    .clock_mut()
                    .charge_flops(opt.lazy_step_flops(grad.nnz()));
                opt.step_lazy(table, grad, lr_scale);
            }
        }
    }
}

/// Rows of a dense buffer with any non-zero entry, rebuilt into the
/// reusable sparse gradient (cleared first).
fn sparse_from_dense_into(buf: &[f32], dim: usize, g: &mut SparseGrad) {
    g.clear();
    for (row, chunk) in buf.chunks(dim).enumerate() {
        if chunk.iter().any(|&x| x != 0.0) {
            g.row_mut(row as u32).copy_from_slice(chunk);
        }
    }
}

/// Extension trait: total bytes sent across all collectives (used for the
/// per-epoch byte accounting in the trace).
trait TotalSent {
    fn total_sent(&self) -> u64;
}

impl TotalSent for simgrid::TrafficStats {
    fn total_sent(&self) -> u64 {
        let r = self.report();
        r.bytes_sent(Collective::AllReduce)
            + r.bytes_sent(Collective::AllGatherV)
            + r.bytes_sent(Collective::Broadcast)
            + r.bytes_sent(Collective::Gather)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StrategyConfig;
    use kge_data::synth::{generate, SynthConfig};
    use simgrid::ClusterSpec;

    fn tiny_config(seed: u64) -> SynthConfig {
        SynthConfig {
            name: "tiny".into(),
            n_entities: 120,
            n_relations: 8,
            n_triples: 1500,
            relation_zipf: 1.0,
            entity_zipf: 0.8,
            noise_frac: 0.05,
            valid_frac: 0.08,
            test_frac: 0.08,
            seed,
        }
    }

    fn tiny_dataset(seed: u64) -> Dataset {
        generate(&tiny_config(seed))
    }

    fn quick_config(strategy: StrategyConfig) -> TrainConfig {
        let mut c = TrainConfig::new(4, 64, strategy);
        c.plateau_tolerance = 3;
        c.max_lr_drops = 1;
        c.max_epochs = 12;
        c.valid_samples = 64;
        // Tiny datasets have few optimizer steps per epoch; use a larger
        // base rate so a dozen epochs show clear movement.
        c.base_lr = 5e-3;
        c
    }

    #[test]
    fn single_node_loss_decreases() {
        let ds = tiny_dataset(1);
        let cluster = Cluster::new(1, ClusterSpec::cray_xc40());
        let out = train(&ds, &cluster, &quick_config(StrategyConfig::baseline_allreduce(2)));
        let first = out.report.trace.first().unwrap().train_loss;
        let last = out.report.trace.last().unwrap().train_loss;
        assert!(last < first, "loss should fall: {first} -> {last}");
        assert!(out.report.sim_total_seconds > 0.0);
        assert_eq!(out.report.nodes, 1);
    }

    #[test]
    fn replicas_stay_identical_across_nodes() {
        let ds = tiny_dataset(2);
        let cluster = Cluster::new(3, ClusterSpec::cray_xc40());
        let config = quick_config(StrategyConfig::baseline_allgather(2));
        let indexes = RunIndexes::build(&ds, &config);
        let results = cluster.run(|ctx| {
            let res = run_node(ctx, &ds, &config, None, &indexes);
            (res.entities, res.relations)
        });
        for (ent, rel) in &results[1..] {
            assert_eq!(ent.as_slice(), results[0].0.as_slice(), "entity replicas diverged");
            assert_eq!(rel.as_slice(), results[0].1.as_slice(), "relation replicas diverged");
        }
    }

    #[test]
    fn allreduce_and_allgather_agree_under_forced_lazy_updates() {
        // With no compression and lazy updates on both paths, the two
        // collectives aggregate the same values — models must match.
        let ds = tiny_dataset(3);
        let cluster = Cluster::new(2, ClusterSpec::cray_xc40());
        let mut c_ar = quick_config(StrategyConfig::baseline_allreduce(1));
        c_ar.strategy.update_style = UpdateStyle::Lazy;
        c_ar.max_epochs = 3;
        let mut c_ag = quick_config(StrategyConfig::baseline_allgather(1));
        c_ag.strategy.update_style = UpdateStyle::Lazy;
        c_ag.max_epochs = 3;
        let a = train(&ds, &cluster, &c_ar);
        let b = train(&ds, &cluster, &c_ag);
        assert_eq!(a.entities.as_slice(), b.entities.as_slice());
        assert_eq!(a.relations.as_slice(), b.relations.as_slice());
    }

    #[test]
    fn training_is_deterministic() {
        let ds = tiny_dataset(4);
        let cluster = Cluster::new(2, ClusterSpec::cray_xc40());
        let config = quick_config(StrategyConfig::combined(3));
        let a = train(&ds, &cluster, &config);
        let b = train(&ds, &cluster, &config);
        assert_eq!(a.entities.as_slice(), b.entities.as_slice());
        assert_eq!(a.report.epochs, b.report.epochs);
        assert_eq!(a.report.sim_total_seconds, b.report.sim_total_seconds);
    }

    #[test]
    fn combined_strategy_trains_and_reports() {
        let ds = tiny_dataset(5);
        let cluster = Cluster::new(4, ClusterSpec::cray_xc40());
        let out = train(&ds, &cluster, &quick_config(StrategyConfig::combined(4)));
        assert!(out.report.epochs > 0);
        let t = out.report.trace.last().unwrap();
        assert!(t.train_loss.is_finite());
        // RS must be dropping some rows.
        assert!(t.rs_sparsity > 0.0, "sparsity {}", t.rs_sparsity);
    }

    #[test]
    fn relation_partition_keeps_relation_bytes_off_the_wire() {
        // Use uniform relation frequencies and enough relations that the
        // partition's relation-boundary quantization is fine-grained, so
        // the comparison isolates the relation-gradient bytes RP
        // eliminates (at paper scale, 1345+ relations, this is the
        // operating regime).
        let ds = generate(&SynthConfig {
            relation_zipf: 0.0,
            n_relations: 32,
            n_triples: 6000,
            ..tiny_config(6)
        });
        let cluster = Cluster::new(4, ClusterSpec::cray_xc40());
        let mut with_rp = quick_config(StrategyConfig::baseline_allgather(1));
        with_rp.strategy.relation_partition = true;
        with_rp.max_epochs = 4;
        let mut without = quick_config(StrategyConfig::baseline_allgather(1));
        without.max_epochs = 4;
        let a = train(&ds, &cluster, &with_rp);
        let b = train(&ds, &cluster, &without);
        let bytes_rp: u64 = a.report.trace.iter().map(|t| t.bytes_sent).sum();
        let bytes_no: u64 = b.report.trace.iter().map(|t| t.bytes_sent).sum();
        assert!(
            bytes_rp < bytes_no,
            "RP should communicate less: {bytes_rp} vs {bytes_no}"
        );
    }

    #[test]
    fn dynamic_mode_starts_with_allreduce() {
        let ds = tiny_dataset(7);
        let cluster = Cluster::new(2, ClusterSpec::cray_xc40());
        let mut c = quick_config(StrategyConfig::baseline_allreduce(1));
        c.strategy.comm = CommMode::Dynamic { check_every: 2 };
        c.max_epochs = 6;
        let out = train(&ds, &cluster, &c);
        assert_eq!(out.report.trace[0].comm, CommChoice::AllReduce);
        assert!(out.report.allreduce_epochs + out.report.allgather_epochs == out.report.epochs);
    }

    #[test]
    fn distmult_and_transe_also_train() {
        // The paper's generality claim: the strategies apply to other KGE
        // models. Run the full combined stack under each model.
        use crate::config::ModelKind;
        let ds = tiny_dataset(10);
        let cluster = Cluster::new(2, ClusterSpec::cray_xc40());
        for kind in [ModelKind::DistMult, ModelKind::TransE] {
            let mut c = quick_config(StrategyConfig::combined(3));
            c.model = kind;
            c.max_epochs = 6;
            let out = train(&ds, &cluster, &c);
            assert_eq!(out.report.epochs, 6, "{kind:?}");
            let first = out.report.trace.first().unwrap().train_loss;
            let last = out.report.trace.last().unwrap().train_loss;
            assert!(last < first, "{kind:?} loss {first} -> {last}");
            assert_eq!(out.entities.dim(), c.model.build(c.rank).storage_dim());
        }
    }

    #[test]
    fn quantized_gather_sends_fewer_bytes_than_f32_gather() {
        let ds = tiny_dataset(8);
        let cluster = Cluster::new(2, ClusterSpec::cray_xc40());
        let mut q = quick_config(StrategyConfig::baseline_allgather(1));
        q.strategy.quant = QuantScheme::paper_one_bit();
        q.max_epochs = 3;
        let mut f = quick_config(StrategyConfig::baseline_allgather(1));
        f.max_epochs = 3;
        let a = train(&ds, &cluster, &q);
        let b = train(&ds, &cluster, &f);
        let qb: u64 = a.report.trace.iter().map(|t| t.bytes_sent).sum();
        let fb: u64 = b.report.trace.iter().map(|t| t.bytes_sent).sum();
        assert!(qb * 3 < fb, "1-bit {qb} should be ≪ f32 {fb}");
    }
}
