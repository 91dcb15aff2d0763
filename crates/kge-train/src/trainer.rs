//! The data-parallel trainer and its one epoch loop.
//!
//! [`train`] runs one SPMD program per cluster node. Every node holds a
//! full replica of the model — any [`ModelKind`](crate::ModelKind); each
//! batch it computes gradients on its own triples, exchanges the entity
//! (and, without relation partition, relation) gradients through the
//! epoch's collective, and applies an identical optimizer step — so
//! replicas stay bit-identical, which the integration tests assert. With
//! relation partition, relation rows are owned and updated node-locally
//! and re-assembled once per epoch.
//!
//! One step, a window: [`replica_batch_step`] launches each batch's
//! exchange into a ring of slots and settles it `window` batches later, so
//! the collective rides behind the compute in between (the epoch-end
//! drain settles the rest). Window 0 — every synchronous epoch — settles
//! the launch in the same batch. A rank's mutable state is one
//! [`ReplicaState`].
//!
//! One loop, three placements: with [`TrainConfig::sharded`] set, the same
//! epoch loop — barrier, shuffle, batches, crash and shrink, trace,
//! plateau step — drives the owner-sharded entity store of
//! [`crate::shard`] instead of a replica, and under
//! [`train_ps`](crate::train_ps) the parameter-server ranks of
//! [`crate::ps`]. Two questions cover what differs for the loop: which
//! ranks hold triples (`Placement::trainers`: they take the partition,
//! set the schedule's world size, and the first reports) and whether the
//! full tables exist after the epoch (`Placement::tables`: validation and
//! ranking eval run on them). The replica-only steps (resume and rejoin,
//! checkpoint, snapshot publish, RP relation assembly) are skipped
//! elsewhere; `TrainConfig::validate` rejects their options in sharded
//! mode.
//!
//! Simulated time: local compute is charged analytically per batch
//! (forward/backward/optimizer flops) to each node's clock; collectives
//! charge and synchronize clocks through the communicator. The reported
//! `TT`/epoch times are those simulated clocks — the real wall time of
//! the host machine never enters the results.

use crate::checkpoint::{self, Checkpoint, CheckpointView, Tallies};
use crate::comm_select::{CommChoice, DynamicCommSelector};
use crate::config::{CommMode, StrategyConfig, TrainConfig, UpdateStyle};
use crate::exchange::{gather_table_rows, Encoder, GatherBufs, Staged, Wire};
use crate::lr::{LrDecision, PlateauSchedule};
use crate::neg::{CorruptionBias, NegSampler, NegScratch};
use crate::ps::PsRank;
use crate::report::{EpochTrace, ShardedReport, TrainOutcome, TrainReport};
use crate::shard::{sharded_batch_step, sharded_epoch_prefetch_drain, RankState};
use crate::snapshot::{PublishedModel, SnapshotSink};
use kge_compress::quant::QuantScheme;
use kge_compress::row_select::select_rows;
use kge_compress::ResidualStore;
use kge_core::loss::logistic_loss_and_grad;
use kge_core::{BlockScratch, EmbeddingTable, Forward, KgeModel, RowOptimizer, SparseGrad};
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

/// Train on `dataset` with `config` across `cluster`, on full replicas or,
/// with `config.sharded` set, on the owner-sharded entity store. Returns
/// the lead survivor's report and final (assembled) model. With a fault
/// plan that crashes ranks, the reporting rank is whichever survivor holds
/// rank 0 after the final shrink; crashed ranks contribute only their wire
/// traffic totals (and, sharded, their store counters).
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
    run(dataset, cluster, config, sink, None)
}

/// The one runner behind every entry point: replicas or the sharded store
/// with `n_servers = None`, the parameter server's ranks with
/// `Some(n_servers)`.
pub(crate) fn run(
    dataset: &Dataset,
    cluster: &Cluster,
    config: &TrainConfig,
    sink: Option<&dyn SnapshotSink>,
    n_servers: Option<usize>,
) -> TrainOutcome {
    config.validate().expect("invalid training config");
    dataset.validate().expect("invalid dataset");
    let indexes = RunIndexes::build(dataset, config);
    let mut results =
        cluster.run(|ctx| run_node(ctx, dataset, config, sink, &indexes, n_servers));
    // Wire-level conservation is global: crashed ranks' pre-crash traffic
    // counts, so sum before discarding the non-reporting nodes. The same
    // holds for the sharded store's per-rank counters.
    let wire_sent: u64 = results.iter().map(|r| r.wire_sent).sum();
    let wire_recv: u64 = results.iter().map(|r| r.wire_recv).sum();
    let sharded = config
        .sharded
        .map(|_| crate::shard::sum_rank_reports(results.iter().filter_map(|r| r.sharded.as_ref())));
    let lead = results
        .iter()
        .position(|r| r.report.is_some())
        .expect("a surviving rank returns the report");
    let lead = results.swap_remove(lead);
    let mut report = lead.report.expect("position() found a report");
    report.wire_bytes_sent = wire_sent;
    report.wire_bytes_recv = wire_recv;
    report.sharded = sharded;
    TrainOutcome {
        report,
        entities: lead.entities,
        relations: lead.relations,
    }
}

/// The read-only lookup structures of one run. They depend on the dataset
/// and config alone, so [`run`] builds them once, before `Cluster::run`,
/// and every rank closure borrows them: one build and one resident copy
/// per run, not one per rank.
struct RunIndexes {
    filter: FilterIndex,
    /// `bern` head-vs-tail corruption bias, when the strategy asks for it.
    bias: Option<CorruptionBias>,
    /// The filter grouped for ranking, when per-epoch eval is on.
    grouped: Option<GroupedFilter>,
}

impl RunIndexes {
    fn build(dataset: &Dataset, config: &TrainConfig) -> Self {
        let filter = FilterIndex::build(dataset);
        RunIndexes {
            bias: config.strategy.bern.then(|| CorruptionBias::fit(dataset)),
            grouped: (config.eval_every > 0).then(|| GroupedFilter::from_index(&filter)),
            filter,
        }
    }
}

/// Read-only inputs of a batch step, the same for every batch — shared by
/// the replica and the sharded step.
pub struct StepInputs<'a> {
    pub model: &'a dyn KgeModel,
    pub config: &'a TrainConfig,
    pub filter: &'a FilterIndex,
    pub bias: Option<&'a CorruptionBias>,
}

/// Width of the per-node worker pool: an explicit `RAYON_NUM_THREADS`
/// wins; otherwise each simulated node gets an equal share of the host's
/// cores (floor 1), mirroring how ranks of a real job split a machine.
fn node_pool_threads(nodes: usize) -> usize {
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
/// only), its final model, its wire-level traffic totals and, under
/// sharded storage, its store's counters and footprint.
struct NodeResult {
    report: Option<TrainReport>,
    entities: EmbeddingTable,
    relations: EmbeddingTable,
    wire_sent: u64,
    wire_recv: u64,
    sharded: Option<ShardedReport>,
}

fn run_node(
    ctx: &mut NodeCtx,
    dataset: &Dataset,
    config: &TrainConfig,
    sink: Option<&dyn SnapshotSink>,
    indexes: &RunIndexes,
    n_servers: Option<usize>,
) -> NodeResult {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(node_pool_threads(ctx.size()))
        .build()
        .expect("node thread pool");
    pool.install(|| run_node_inner(ctx, dataset, config, sink, indexes, n_servers))
}

/// Recompute everything that depends on the world size: the partition
/// over the `n` ranks that hold triples, this rank's shard (`index` among
/// them; none on a parameter server), the relations it owns under RP, and
/// the number of batches per epoch (the max over shards, so every rank
/// runs the same count and collectives stay well-formed).
fn distribute(
    dataset: &Dataset,
    relation_disjoint: bool,
    (index, n): (Option<usize>, usize),
    batch_size: usize,
) -> (Vec<Triple>, Vec<u32>, usize) {
    let partition: Partition = partition_for(&dataset.train, dataset.n_relations, n, relation_disjoint);
    let batches_per_epoch = partition
        .shards
        .iter()
        .map(|s| s.len().div_ceil(batch_size))
        .max()
        .unwrap_or(0)
        .max(1);
    let shard = index.map_or_else(Vec::new, |i| partition.shards[i].clone());
    let mut owned_rels: Vec<u32> = shard.iter().map(|t| t.rel).collect();
    owned_rels.sort_unstable();
    owned_rels.dedup();
    (shard, owned_rels, batches_per_epoch)
}

/// Where a rank adopts a checkpointed state from.
#[derive(Clone, Copy, PartialEq)]
enum Adopt {
    /// Its own checkpoint file (`TrainConfig::resume_from`).
    Resume,
    /// The grow leader's image, received when this crashed rank rejoins.
    Rejoin { leader: usize },
}

fn run_node_inner(
    ctx: &mut NodeCtx,
    dataset: &Dataset,
    config: &TrainConfig,
    sink: Option<&dyn SnapshotSink>,
    indexes: &RunIndexes,
    n_servers: Option<usize>,
) -> NodeResult {
    let initial_p = ctx.size();
    let model = config.model.build(config.rank);
    let inputs = StepInputs {
        model: model.as_ref(),
        config,
        filter: &indexes.filter,
        bias: indexes.bias.as_ref(),
    };
    let model = inputs.model;
    let strategy = config.strategy;
    let mut place = Placement::new(&inputs, dataset, ctx.rank(), ctx.size(), n_servers);
    let mut progress = Progress::new(config, place.trainers(ctx.rank(), ctx.size()).1);
    // An epoch's data order is a pure function of `(distribution, epoch)`
    // — never of shuffle history: each epoch copies `base_shard` into the
    // shard and shuffles. Resume and rejoin depend on this: neither
    // replays past epochs.
    let shuffler = EpochShuffler::new(config.seed ^ (ctx.rank() as u64) << 32);
    // Per-epoch ranking eval (opt-in): the workspace is built once and
    // reused, so steady-state evaluation allocates only its per-call query
    // shard.
    let mut eval_state = indexes
        .grouped
        .as_ref()
        .map(|grouped| (grouped, RankingWorkspace::new()));
    let mut ckpt = CkptBufs::default();

    let (mut base_shard, mut owned_rels, mut batches_per_epoch) = (Vec::new(), Vec::new(), 0);
    let mut world_changed = true;
    let mut adopt = config.resume_from.as_ref().map(|_| Adopt::Resume);
    let mut epoch = 0usize;
    let mut converged = false;
    let mut survived = true;

    loop {
        // --- Adopt a checkpointed rank state: resume from this rank's
        // file, or a rejoiner's image from the grow leader. Replica only:
        // `validate` rejects resume under sharded storage, and sharded
        // survivors never grow. --------------------------------------------
        let adopted = adopt.take();
        if let Some(from) = adopted {
            let Placement::Replica(st) = &mut place else {
                unreachable!("only replicas resume or rejoin");
            };
            let ck = match from {
                Adopt::Resume => read_own_checkpoint(ctx, config),
                Adopt::Rejoin { leader } => {
                    let msg = ctx
                        .comm_mut()
                        .recv_bytes_from(leader)
                        .unwrap_or_else(|e| panic!("rejoin state recv: {e}"));
                    checkpoint::decode(&msg.payload)
                        .unwrap_or_else(|e| panic!("rejoin state decode: {e}"))
                }
            };
            epoch = st.adopt(ctx, &ck, from == Adopt::Resume, &mut progress);
        }
        if epoch >= config.max_epochs {
            break;
        }

        // --- Elastic re-grow: re-admit recovered ranks at the epoch
        // boundary. Free (no collective) unless the fault plan schedules
        // recoveries. The decision is a pure function of the aligned clock
        // and the plan, so every survivor takes the same branch. A
        // rejoiner re-enters the epoch the survivors are about to run,
        // whose grow step already happened. Replica only: a rejoiner's
        // state is a replica image, and the sharded store would have to
        // hand it owned rows instead, so a crashed sharded rank stays
        // parked until the run ends. -----------------------------------
        let rejoining = matches!(adopted, Some(Adopt::Rejoin { .. }));
        let grows = config.recover_from_crashes && !rejoining;
        let rejoined = match &place {
            Placement::Replica(_) if grows => ctx.comm_mut().try_grow(),
            _ => Vec::new(),
        };

        // --- The one redistribution after the world changed (start,
        // grow, shrink, rejoin). -----------------------------------------
        if world_changed || !rejoined.is_empty() {
            let trainers = place.trainers(ctx.rank(), ctx.size());
            (base_shard, owned_rels, batches_per_epoch) =
                distribute(dataset, strategy.relation_partition, trainers, config.batch_size);
            world_changed = false;
        }

        if let (Placement::Replica(st), false) = (&place, rejoined.is_empty()) {
            progress.repartition_charge(ctx, dataset);
            progress.tallies.rejoins += rejoined.len();
            // The grow leader (lowest surviving original id) ships the
            // authoritative replica state to each rejoiner; its stale copy
            // died with the crash. The payload is a checkpoint image —
            // same codec, pooled buffers.
            let leader = ctx
                .comm()
                .orig_ranks()
                .iter()
                .position(|r| !rejoined.contains(r))
                .expect("at least one survivor leads the grow");
            if ctx.rank() == leader {
                for orig in &rejoined {
                    let dst = ctx
                        .comm()
                        .orig_ranks()
                        .iter()
                        .position(|r| r == orig)
                        .expect("rejoiner present in grown world");
                    encode_rank_state(&mut ckpt, ctx, config.seed, epoch, st, &progress);
                    ctx.comm_mut()
                        .send_bytes(dst, &ckpt.buf)
                        .unwrap_or_else(|e| panic!("rejoin state send: {e}"));
                }
            }
        }

        // Epoch barrier: aligns every clock so that the per-epoch times —
        // which the dynamic comm selector compares — are identical on all
        // nodes (every post-collective charge below derives from shared
        // quantities, so clocks stay equal through the epoch's end).
        ctx.comm_mut().barrier();
        let epoch_start = ctx.comm().clock().now_s();
        let bytes_at_start = bytes_sent(ctx);
        let shard = place.shard_mut();
        shard.clone_from(&base_shard);
        shuffler.shuffle(shard, epoch as u64);
        let lr_scale = progress.schedule.lr_scale();
        let plan = EpochPlan::new(
            strategy.comm,
            progress.selector.as_ref(),
            epoch,
            lr_scale,
            batches_per_epoch,
        );

        // --- The batches and the epoch's end: the replica's drain and,
        // under RP, relation assembly (once per epoch, so validation and
        // the final model see every relation's owner copy); the sharded
        // ring's drain and cache flush. A `RankCrashed` error aborts the
        // rest of the epoch on every rank together. -----------------------
        let mut sums = EpochSums::default();
        let mut crashed = (0..plan.batches)
            .any(|b| is_crash(place.step(ctx, &inputs, &plan, b, &mut sums)));
        if !crashed {
            crashed = is_crash(place.end_epoch(ctx, &inputs, &plan, &owned_rels));
        }

        // --- Degradation policy: drop the aborted epoch (no trace entry,
        // validation signal or tally), shrink the communicator to the
        // survivors, rebalance, keep training. After a crash the in-flight
        // slots are discarded — their updates were never applied, so
        // dropping them *is* the rollback of the partial window. ----------
        if crashed {
            progress.tallies.crashed_ranks.extend(ctx.comm().failed_ranks());
            if !config.recover_from_crashes {
                break;
            }
            match ctx.comm_mut().shrink() {
                // Survivor: the LR schedule keeps its original world-size
                // scaling (deliberate — see DESIGN.md).
                Ok(true) => {
                    progress.tallies.recoveries += 1;
                    place.after_shrink(ctx, dataset, config);
                    progress.repartition_charge(ctx, dataset);
                    epoch += 1;
                }
                // The crashed rank parks in the rejoin lobby: if the fault
                // plan schedules its recovery, the survivors re-admit it at
                // an epoch boundary and it adopts the leader's state;
                // otherwise they close the lobby when the run ends and it
                // leaves the job (its model is stale; train() only uses
                // its wire traffic totals and store counters).
                Ok(false) => match ctx.comm_mut().await_rejoin() {
                    Some(leader) => adopt = Some(Adopt::Rejoin { leader }),
                    None => {
                        survived = false;
                        break;
                    }
                },
                Err(e) => panic!("communicator shrink: {e}"),
            }
            world_changed = true;
            continue;
        }
        match plan.choice.base() {
            CommChoice::AllReduce => progress.tallies.allreduce_epochs += 1,
            _ => progress.tallies.allgather_epochs += 1,
        }
        if plan.choice.is_pipelined() {
            progress.tallies.pipelined_epochs += 1;
        }

        // --- Validation signal + schedule. Sharded storage holds no full
        // entity table to validate against (`validate` pins
        // `valid_samples` to 0 there): its signal is the constant 0.0
        // that `fast_valid_accuracy` returns for zero samples. -----------
        let acc = match place.tables() {
            Some((ent, rel)) => {
                let acc = fast_valid_accuracy(
                    model,
                    ent,
                    rel,
                    &dataset.valid,
                    &indexes.filter,
                    dataset.n_entities,
                    config.valid_samples,
                    config.seed ^ (epoch as u64).wrapping_mul(0x2545F4914F6CDD1D),
                );
                ctx.comm_mut().clock_mut().charge_flops(
                    (config.valid_samples.min(dataset.valid.len()) * 2) as f64
                        * model.score_flops(),
                );
                acc
            }
            None => 0.0,
        };

        let epoch_time = ctx.comm().clock().now_s() - epoch_start;
        if let Some(sel) = progress.selector.as_mut() {
            sel.observe_epoch(epoch_time);
        }

        // --- Optional full ranking eval, sharded across ranks. ----------
        // Runs after `epoch_time` is taken so the dynamic comm selector's
        // per-epoch signal stays a pure training measurement; the eval's
        // compute and collectives still land on the simulated clock (and
        // therefore in `sim_total_seconds`). Collective: every surviving
        // rank reaches this point with the same epoch counter.
        let ranking = match (eval_state.as_mut(), place.tables()) {
            (Some((grouped, ws)), Some((ent, rel)))
                if (epoch + 1).is_multiple_of(config.eval_every) && !dataset.valid.is_empty() =>
            {
                Some(evaluate_ranking_distributed(
                    ctx.comm_mut(),
                    ws,
                    model,
                    ent,
                    rel,
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
        progress.trace.push(EpochTrace {
            epoch,
            sim_seconds: epoch_time,
            comm: plan.choice,
            valid_acc: acc,
            train_loss: if sums.examples > 0 {
                sums.loss / sums.examples as f64
            } else {
                0.0
            },
            lr_scale: plan.lr_scale,
            mean_nonzero_rows: sums.nonzero_rows as f64 / batches,
            mean_rows_sent: sums.rows_sent as f64 / batches,
            rs_sparsity: if sums.rows_before_rs > 0 {
                1.0 - sums.rows_after_rs as f64 / sums.rows_before_rs as f64
            } else {
                0.0
            },
            bytes_sent: bytes_sent(ctx) - bytes_at_start,
            ranking,
        });

        let decision = progress.schedule.observe(acc);

        if let Placement::Replica(st) = &place {
            // --- Periodic checkpoint. -----------------------------------
            // Written after the schedule has observed this epoch, so a
            // resume continues from exactly the state the uninterrupted
            // run carries into the next epoch. The modeled write cost is
            // charged to the clock's `checkpoint_s` bucket *before* the
            // clock is captured: the image embeds the post-charge clock,
            // which is the clock the uninterrupted run continues with.
            if config.checkpoint_every > 0 && (epoch + 1).is_multiple_of(config.checkpoint_every) {
                let dir = config
                    .checkpoint_dir
                    .as_ref()
                    .expect("validated: checkpoint_every requires checkpoint_dir");
                progress.tallies.checkpoints_written += 1;
                // Cost model: latency + model + optimizer bytes over the
                // checkpoint device bandwidth. A deterministic function of
                // table shapes only, so every rank charges the same amount
                // and clocks stay aligned.
                let state_bytes = 2 * (st.ent.nbytes() + st.rel.nbytes());
                ctx.comm_mut().clock_mut().charge_checkpoint_seconds(
                    CKPT_LATENCY_S + state_bytes as f64 / CKPT_BW_BYTES_S,
                );
                encode_rank_state(&mut ckpt, ctx, config.seed, epoch + 1, st, &progress);
                let path = checkpoint::checkpoint_path(dir, ctx.rank());
                checkpoint::write_file(&path, &ckpt.buf)
                    .unwrap_or_else(|e| panic!("checkpoint write {}: {e}", path.display()));
            }

            // --- Serving-snapshot publish. ------------------------------
            // Same boundary as the checkpoint (after the schedule observed
            // the epoch), so the bytes a sink receives equal the
            // checkpoint-derived model bytes bit-for-bit. The modeled
            // in-memory copy cost is a pure function of table shapes, so
            // *every* rank charges it and clocks stay aligned; only rank 0
            // calls the sink — replicas are bit-identical, and after a
            // crash-shrink the lead survivor holds rank 0.
            if config.serve_snapshots > 0 && (epoch + 1).is_multiple_of(config.serve_snapshots) {
                let model_bytes = st.ent.nbytes() + st.rel.nbytes();
                let rank = ctx.rank();
                let clock = ctx.comm_mut().clock_mut();
                clock.charge_checkpoint_seconds(
                    SNAP_LATENCY_S + model_bytes as f64 / SNAP_BW_BYTES_S,
                );
                let sim_now_s = clock.now_s();
                if let (0, Some(sink)) = (rank, sink) {
                    sink.publish(&PublishedModel {
                        epochs_done: epoch + 1,
                        sim_now_s,
                        ent: &st.ent,
                        rel: &st.rel,
                    });
                }
            }
        }

        if matches!(decision, LrDecision::Converged) {
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

    // The final model (under sharded storage, the survivors' one gather of
    // their owned rows, priced before the report reads the clock). The
    // first rank that holds triples reports: after a shrink the lead
    // survivor holds rank 0 of the new world, and the crashed rank never
    // reports even if it was the original rank 0.
    let Progress { tallies, trace, .. } = progress;
    let leads = place.trainers(ctx.rank(), ctx.size()).0 == Some(0);
    let (entities, relations, sharded) = place.finish(ctx, dataset, config, survived);
    let report = (survived && leads).then(|| TrainReport {
        dataset: dataset.name.clone(),
        nodes: initial_p,
        epochs: trace.len(),
        converged,
        sim_total_seconds: ctx.comm().clock().now_s(),
        breakdown: ctx.comm().clock().breakdown(),
        trace,
        allreduce_epochs: tallies.allreduce_epochs,
        allgather_epochs: tallies.allgather_epochs,
        pipelined_epochs: tallies.pipelined_epochs,
        surviving_nodes: ctx.size(),
        recoveries: tallies.recoveries,
        rejoins: tallies.rejoins,
        checkpoints_written: tallies.checkpoints_written,
        crashed_ranks: tallies.crashed_ranks,
        // Filled in by train(), which sums over every rank.
        wire_bytes_sent: 0,
        wire_bytes_recv: 0,
        sharded: None,
    });
    let traffic = ctx.comm().traffic().report();
    NodeResult {
        report,
        entities,
        relations,
        wire_sent: traffic.total_wire_sent(),
        wire_recv: traffic.total_wire_recv(),
        sharded,
    }
}

/// This rank's own checkpoint file, checked against the run it resumes.
fn read_own_checkpoint(ctx: &NodeCtx, config: &TrainConfig) -> Checkpoint {
    let rank = ctx.rank();
    let dir = config.resume_from.as_ref().expect("resuming");
    let path = checkpoint::checkpoint_path(dir, rank);
    let ck = checkpoint::read_file(&path)
        .unwrap_or_else(|e| panic!("resume rank {rank} from {}: {e}", path.display()));
    assert_eq!(ck.world_size, ctx.size(), "checkpoint world size mismatch");
    assert_eq!(ck.rank, rank, "checkpoint rank mismatch");
    assert_eq!(ck.seed, config.seed, "checkpoint seed mismatch");
    ck
}

/// Whether `r` failed with the crash every participant observes at the
/// same collective (detection derives from shared clock deposits), so all
/// nodes — survivors and the crashed rank alike — abort the epoch together
/// and the program stays collectively well-formed. Any other error is a
/// bug and panics.
fn is_crash<T>(r: Result<T, SimError>) -> bool {
    match r {
        Ok(_) => false,
        Err(SimError::RankCrashed { .. }) => true,
        Err(e) => panic!("batch step: {e}"),
    }
}

/// Bytes this rank sent through its training traffic: the replica's
/// gradient exchanges, RP relation assembly and per-epoch ranking
/// all-reduce, the sharded store's hot and relation all-gathers and its
/// pull and push lanes, a parameter-server rank's point-to-point pull and
/// push rounds and its epoch-end assembly. No placement touches another's
/// lanes, so one sum serves all three. (A replica's rejoin state also
/// moves point-to-point, but before an epoch's first reading.)
fn bytes_sent(ctx: &NodeCtx) -> u64 {
    let r = ctx.comm().traffic().report();
    [
        Collective::AllReduce,
        Collective::AllGatherV,
        Collective::ShardPull,
        Collective::ShardPush,
        Collective::PointToPoint,
    ]
    .into_iter()
    .map(|op| r.bytes_sent(op))
    .sum()
}

// --- The rank's state and the batch step --------------------------------

/// The epoch loop's own state, the same whichever way the entity rows are
/// placed: the LR schedule, the DRS selector, the run's tallies and the
/// per-epoch trace. A replica checkpoint carries it next to the tables.
struct Progress {
    schedule: PlateauSchedule,
    selector: Option<DynamicCommSelector>,
    tallies: Tallies,
    trace: Vec<EpochTrace>,
}

impl Progress {
    fn new(config: &TrainConfig, p: usize) -> Self {
        Progress {
            schedule: PlateauSchedule::new(
                p,
                config.lr_scale_cap,
                config.lr_decay,
                config.plateau_tolerance,
                config.max_lr_drops,
            ),
            selector: match config.strategy.comm {
                CommMode::Dynamic { check_every } => Some(DynamicCommSelector::new(check_every)),
                _ => None,
            },
            tallies: Tallies::default(),
            trace: Vec::new(),
        }
    }

    /// Price of re-partitioning after the world changed — a sort-like pass
    /// over the full triple set, identical on every survivor — and DRS
    /// forgetting timings measured at the old world size.
    fn repartition_charge(&mut self, ctx: &mut NodeCtx, dataset: &Dataset) {
        ctx.comm_mut()
            .clock_mut()
            .charge_flops((dataset.train.len() * 8) as f64);
        if let Some(sel) = self.selector.as_mut() {
            sel.reset();
        }
    }
}

/// Where a rank's entity rows live: a full replica on every rank, the
/// owner-sharded store with its hot cache ([`crate::shard`]), or a
/// parameter server's or worker's tables ([`crate::ps`]). The epoch loop
/// is one; these are the points where the three differ.
enum Placement {
    Replica(Box<ReplicaState>),
    Sharded(Box<RankState>),
    Ps(Box<PsRank>),
}

impl Placement {
    fn new(
        inputs: &StepInputs,
        dataset: &Dataset,
        rank: usize,
        p: usize,
        n_servers: Option<usize>,
    ) -> Self {
        match (n_servers, inputs.config.sharded) {
            (Some(s), _) => Placement::Ps(Box::new(PsRank::new(inputs, dataset, rank, s))),
            (None, None) => Placement::Replica(Box::new(ReplicaState::new(inputs, dataset, rank))),
            (None, Some(_)) => Placement::Sharded(Box::new(RankState::new(inputs, dataset, rank, p))),
        }
    }

    /// This rank's index among the `n` ranks that hold triples (`None` on
    /// a parameter server) and `n`: every rank of a replica or sharded
    /// run, the workers of a parameter-server run.
    fn trainers(&self, rank: usize, p: usize) -> (Option<usize>, usize) {
        match self {
            Placement::Ps(st) => st.trainers(rank, p),
            _ => (Some(rank), p),
        }
    }

    /// The full tables after [`Placement::end_epoch`]; `None` when the
    /// entity rows are sharded.
    fn tables(&self) -> Option<(&EmbeddingTable, &EmbeddingTable)> {
        match self {
            Placement::Replica(st) => Some((&st.ent, &st.rel)),
            Placement::Sharded(_) => None,
            Placement::Ps(st) => Some(st.tables()),
        }
    }

    /// This rank's triples, in the running epoch's order.
    fn shard_mut(&mut self) -> &mut Vec<Triple> {
        match self {
            Placement::Replica(st) => &mut st.shard,
            Placement::Sharded(st) => &mut st.shard,
            Placement::Ps(st) => &mut st.shard,
        }
    }

    fn step(
        &mut self,
        ctx: &mut NodeCtx,
        inputs: &StepInputs,
        plan: &EpochPlan,
        b: usize,
        sums: &mut EpochSums,
    ) -> Result<(), SimError> {
        match self {
            Placement::Replica(st) => replica_batch_step(ctx, inputs, st, plan, b, sums),
            Placement::Sharded(st) => sharded_batch_step(ctx, inputs, st, plan, b, sums),
            Placement::Ps(st) => {
                st.step(ctx, inputs, plan.lr_scale, b, sums);
                Ok(())
            }
        }
    }

    /// After the last batch: the replica settles the exchanges still in
    /// flight and, under RP, assembles the relation table from its
    /// owners; the sharded store settles the ring's deferred pushes and
    /// flushes the hot cache back to the owners; the parameter server's
    /// ranks assemble the full model.
    fn end_epoch(
        &mut self,
        ctx: &mut NodeCtx,
        inputs: &StepInputs,
        plan: &EpochPlan,
        owned_rels: &[u32],
    ) -> Result<(), SimError> {
        match self {
            Placement::Replica(st) => {
                replica_epoch_drain(ctx, inputs, st, plan)?;
                if inputs.config.strategy.relation_partition && ctx.size() > 1 {
                    gather_table_rows(ctx.comm_mut(), &mut st.rel, owned_rels.iter().copied())?;
                }
            }
            Placement::Sharded(st) => {
                sharded_epoch_prefetch_drain(ctx, st);
                st.store.flush_epoch();
            }
            Placement::Ps(st) => st.end_epoch(ctx)?,
        }
        Ok(())
    }

    /// A survivor's storage after the shrink: the sharded store drops the
    /// aborted epoch's in-flight ring slots and migrates its rows onto the
    /// new ownership map. Replicas hold every row, and their exchange
    /// slots are simply relaunched. The parameter server has no recovery
    /// policy: its rounds panic on a crashed peer.
    fn after_shrink(&mut self, ctx: &mut NodeCtx, dataset: &Dataset, config: &TrainConfig) {
        if let Placement::Sharded(st) = self {
            st.after_shrink(ctx, dataset, config);
        }
    }

    /// The final `(entities, relations)` and, under sharded storage, this
    /// rank's store report. A sharded survivor gathers the owned rows of
    /// every survivor here — a collective, priced on the clock.
    fn finish(
        self,
        ctx: &mut NodeCtx,
        dataset: &Dataset,
        config: &TrainConfig,
        survived: bool,
    ) -> (EmbeddingTable, EmbeddingTable, Option<ShardedReport>) {
        match self {
            Placement::Replica(st) => (st.ent, st.rel, None),
            Placement::Ps(st) => {
                let (ent, rel) = st.into_tables();
                (ent, rel, None)
            }
            Placement::Sharded(st) => {
                let (ent, rel, report) = st.finish(ctx, dataset, config, survived);
                (ent, rel, Some(report))
            }
        }
    }
}

/// Everything one replica rank mutates while it trains: the tables,
/// optimizers, residuals and node stream a checkpoint carries (next to
/// the loop's `Progress`), this rank's shard, and the step's reused
/// buffers.
pub struct ReplicaState {
    ent: EmbeddingTable,
    rel: EmbeddingTable,
    ent_opt: Box<dyn RowOptimizer>,
    rel_opt: Box<dyn RowOptimizer>,
    /// Error-feedback residuals (quantizing schemes only).
    ent_residual: ResidualStore,
    rel_residual: ResidualStore,
    /// The node stream. Data order and negatives have streams of their
    /// own; this one feeds window-0 row selection and quantization.
    pub rng: StdRng,
    /// This rank's triples, in the running epoch's order.
    pub shard: Vec<Triple>,
    bufs: StepBufs,
}

/// The step's reused buffers: after the first batches have sized them the
/// steady state allocates nothing. (The wire buffers of window 0 are the
/// communicator's staging slots.)
struct StepBufs {
    batch: BatchWorkspace,
    /// The gathered aggregate, or a dense result's rows under lazy updates.
    ent_agg: SparseGrad,
    rel_agg: SparseGrad,
    /// Full-table scratch for a dense step over a sparse aggregate.
    dense_ent: Vec<f32>,
    dense_rel: Vec<f32>,
    gather: GatherBufs,
    /// One slot per batch in flight — `max(window, 1)` of them, sized once
    /// to the largest window any epoch of the run can use.
    ring: Vec<Slot>,
}

/// One exchange in flight: both tables' staged payloads and the launch
/// anchor the overlapped pricing needs.
#[derive(Default)]
struct Slot {
    ent: Staged,
    rel: Staged,
    anchor: Option<f64>,
}

impl ReplicaState {
    /// Rank `rank`'s fresh state: identical Xavier tables on every rank
    /// (entity table first), fresh optimizers, a per-rank node stream, and
    /// buffers for the run's largest window.
    pub fn new(inputs: &StepInputs, dataset: &Dataset, rank: usize) -> Self {
        let config = inputs.config;
        let dim = inputs.model.storage_dim();
        let mut init_rng = StdRng::seed_from_u64(config.seed);
        let ent = EmbeddingTable::xavier(dataset.n_entities, dim, &mut init_rng);
        let rel = EmbeddingTable::xavier(dataset.n_relations, dim, &mut init_rng);
        let max_window = match config.strategy.comm {
            CommMode::Pipelined { staleness } => staleness,
            CommMode::PipelinedAllReduce { staleness } => staleness,
            CommMode::Dynamic { .. } => 1,
            _ => 0,
        };
        ReplicaState {
            ent,
            rel,
            ent_opt: config.optimizer.build(config.base_lr, dataset.n_entities, dim),
            rel_opt: config.optimizer.build(config.base_lr, dataset.n_relations, dim),
            ent_residual: ResidualStore::new(),
            rel_residual: ResidualStore::new(),
            rng: StdRng::seed_from_u64(
                config.seed ^ (rank as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15),
            ),
            shard: Vec::new(),
            bufs: StepBufs {
                batch: BatchWorkspace::new(dim),
                ent_agg: SparseGrad::new(dim),
                rel_agg: SparseGrad::new(dim),
                dense_ent: Vec::new(),
                dense_rel: Vec::new(),
                gather: GatherBufs::new(),
                ring: (0..max_window.max(1)).map(|_| Slot::default()).collect(),
            },
        }
    }

    /// Adopt a checkpointed state, this rank's and the loop's; returns the
    /// epoch to run next. Every piece of replicated state that influences
    /// a future draw, update or clock charge is taken over. A resumed rank
    /// (`resume`) also takes back its own streams — residuals, node RNG,
    /// clock, traffic, fault cursors — which is what makes the resumed run
    /// bit-identical to the uninterrupted one (tests/resume_determinism.rs).
    /// A rejoiner keeps its own streams and drops its residuals: the error
    /// feedback died with the crash.
    fn adopt(
        &mut self,
        ctx: &mut NodeCtx,
        ck: &Checkpoint,
        resume: bool,
        progress: &mut Progress,
    ) -> usize {
        assert_eq!(
            (ck.dim, ck.n_entities, ck.n_relations),
            (self.ent.dim(), self.ent.rows(), self.rel.rows()),
            "checkpoint model shape mismatch"
        );
        self.ent.as_mut_slice().copy_from_slice(ck.ent.as_slice());
        self.rel.as_mut_slice().copy_from_slice(ck.rel.as_slice());
        self.ent_opt
            .load_state(ck.ent_opt.as_view())
            .unwrap_or_else(|e| panic!("adopt: entity optimizer: {e}"));
        self.rel_opt
            .load_state(ck.rel_opt.as_view())
            .unwrap_or_else(|e| panic!("adopt: relation optimizer: {e}"));
        self.ent_residual.clear();
        self.rel_residual.clear();
        progress.schedule = PlateauSchedule::restore(&ck.schedule);
        // A rejoiner takes the leader's selector, reset by the grow step
        // like every survivor's.
        if let Some(snap) = &ck.selector {
            let sel = DynamicCommSelector::restore(snap)
                .unwrap_or_else(|e| panic!("adopt: comm selector: {e}"));
            progress.selector = Some(sel);
        }
        progress.tallies.clone_from(&ck.tallies);
        progress.trace.clone_from(&ck.trace);
        if resume {
            for (row, values) in &ck.ent_residual {
                self.ent_residual.set_row(*row, values);
            }
            for (row, values) in &ck.rel_residual {
                self.rel_residual.set_row(*row, values);
            }
            self.rng = StdRng::from_state(ck.rng_state);
            let comm = ctx.comm_mut();
            comm.clock_mut().restore(ck.clock_now_s, ck.breakdown);
            comm.traffic_mut().import(&ck.traffic);
            comm.restore_sequences(ck.coll_seq, &ck.p2p_seq);
        }
        ck.next_epoch
    }
}

/// How one epoch exchanges.
#[derive(Debug, Clone, Copy)]
pub struct EpochPlan {
    pub epoch: usize,
    /// The epoch's collective, synchronous or pipelined.
    pub choice: CommChoice,
    /// Batches an exchange stays in flight: 0 settles each batch's exchange
    /// in the batch that launched it.
    pub window: usize,
    /// LR multiplier in effect.
    pub lr_scale: f32,
    /// Batches in the epoch (the max over the ranks' shards).
    pub batches: usize,
}

impl EpochPlan {
    /// The epoch's collective and staleness window. A pipelined mode with
    /// staleness 0 is its synchronous base, so `Pipelined { staleness: 0 }`
    /// reproduces `AllGather` exactly; DRS probes pipelined arms at window 1.
    fn new(
        comm: CommMode,
        selector: Option<&DynamicCommSelector>,
        epoch: usize,
        lr_scale: f32,
        batches: usize,
    ) -> Self {
        let (choice, window) = match comm {
            CommMode::AllReduce => (CommChoice::AllReduce, 0),
            CommMode::AllGather => (CommChoice::AllGather, 0),
            CommMode::Pipelined { staleness } => (CommChoice::PipelinedAllGather, staleness),
            CommMode::PipelinedAllReduce { staleness } => {
                (CommChoice::PipelinedAllReduce, staleness)
            }
            CommMode::Dynamic { .. } => {
                let c = selector.expect("dynamic selector").choice();
                (c, usize::from(c.is_pipelined()))
            }
        };
        let choice = if window == 0 { choice.base() } else { choice };
        EpochPlan {
            epoch,
            choice,
            window,
            lr_scale,
            batches,
        }
    }
}

/// An epoch's running sums over the batches it launched.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochSums {
    pub(crate) loss: f64,
    pub(crate) examples: usize,
    /// Entity-gradient rows above the zero threshold, before selection.
    pub(crate) nonzero_rows: usize,
    /// Entity rows put on the wire, after selection.
    pub(crate) rows_sent: usize,
    rows_before_rs: usize,
    rows_after_rs: usize,
}

/// Whether the strategy feeds quantization error back (EF needs a
/// quantizing scheme).
fn feedback(s: &StrategyConfig) -> bool {
    s.error_feedback && !matches!(s.quant, QuantScheme::None)
}

/// One table's wire under the epoch's collective: the dense table, or its
/// rows encoded under the strategy's scheme with `residual` as error
/// feedback (when on) and `rng` for the dithers.
fn wire<'a>(
    s: &StrategyConfig,
    base: CommChoice,
    table: &EmbeddingTable,
    residual: &'a mut ResidualStore,
    rng: &'a mut StdRng,
    bufs: &'a mut GatherBufs,
) -> Wire<'a> {
    match base {
        CommChoice::AllReduce => Wire::Dense {
            len: table.as_slice().len(),
        },
        _ => Wire::Rows(Encoder {
            scheme: s.quant,
            residuals: feedback(s).then_some(residual),
            rng,
            bufs,
        }),
    }
}

/// One batch of the replica trainer: compute its gradients (charging the
/// forward/backward flops), settle the exchange launched `window` batches
/// ago, launch this batch's, and — under RP — step the node-local
/// relation rows. Every stochastic draw, f32 summation and clock charge is
/// fixed by `(plan, b)`, so the result is independent of thread count. A
/// `RankCrashed` from any collective propagates so the epoch loop can run
/// the recovery policy. Public so the allocation-regression test drives
/// the exact code the trainer runs.
pub fn replica_batch_step(
    ctx: &mut NodeCtx,
    inputs: &StepInputs,
    st: &mut ReplicaState,
    plan: &EpochPlan,
    b: usize,
    sums: &mut EpochSums,
) -> Result<(), SimError> {
    let (model, config) = (inputs.model, inputs.config);
    let s = &config.strategy;
    let (loss, examples) = st.bufs.batch.batch_gradients_into(
        model,
        &st.ent,
        &st.rel,
        &st.shard,
        b,
        config,
        inputs.filter,
        inputs.bias,
        ctx.rank(),
        plan.epoch,
    );
    sums.loss += loss;
    sums.examples += examples;
    let fwd_bwd = examples as f64 * model.score_flops() * 3.0;
    let pool_extra = if s.neg.uses_selection() {
        // pool scored per positive; positives = examples / (1+train)
        let positives = examples / (1 + s.neg.train);
        (positives * s.neg.pool) as f64 * model.score_flops()
    } else {
        0.0
    };
    ctx.comm_mut().clock_mut().charge_flops(fwd_bwd + pool_extra);
    sums.nonzero_rows += st.bufs.batch.ent_grad.rows_above_norm(ZERO_ROW_EPS);

    // Branch (5), when settle runs: at window ≥ 1 the slot this batch is
    // about to reuse holds batch `b − window`, settled now (the drain
    // settles the last `window`); at window 0 the batch settles its own
    // launch.
    let slot = b % plan.window.max(1);
    if plan.window > 0 && b >= plan.window {
        settle(ctx, config, st, plan, slot)?;
    }
    launch(ctx, config, st, plan, b, slot, sums);
    if plan.window == 0 {
        settle(ctx, config, st, plan, slot)?;
    }

    // Branch (4): under RP relation rows never travel, and their step runs
    // here — after the entity step at window 0, at launch at window ≥ 1 —
    // never in a deferred settle: the local `rel_grad`'s nnz differs per
    // rank, so moving its charge across a collective moves `idle_s`.
    if s.relation_partition {
        let StepBufs { batch, dense_rel, .. } = &mut st.bufs;
        let agg = AggRef::Sparse {
            grad: &mut batch.rel_grad,
            dense_scratch: dense_rel,
        };
        let (opt, rel) = (st.rel_opt.as_mut(), &mut st.rel);
        apply_update(ctx, opt, s.update_style, plan.choice, rel, agg, plan.lr_scale);
    }
    Ok(())
}

/// Epoch-end drain: settle every exchange still in flight, in launch
/// (FIFO) order, so staleness never crosses an epoch boundary and the
/// validation signal sees every batch applied. Nothing is in flight at
/// window 0.
pub fn replica_epoch_drain(
    ctx: &mut NodeCtx,
    inputs: &StepInputs,
    st: &mut ReplicaState,
    plan: &EpochPlan,
) -> Result<(), SimError> {
    let n_batches = plan.batches;
    for b in n_batches.saturating_sub(plan.window)..n_batches {
        settle(ctx, inputs.config, st, plan, b % plan.window)?;
    }
    Ok(())
}

/// Launch batch `b`'s exchange into ring slot `slot`: error-feedback
/// residuals, row selection and their flop charges, and at window ≥ 1 the
/// staged payloads.
fn launch(
    ctx: &mut NodeCtx,
    config: &TrainConfig,
    st: &mut ReplicaState,
    plan: &EpochPlan,
    b: usize,
    slot: usize,
    sums: &mut EpochSums,
) {
    let s = &config.strategy;
    let base = plan.choice.base();
    let ReplicaState { ent, rel, ent_residual, rel_residual, rng, bufs, .. } = st;
    let StepBufs { batch, gather, ring, .. } = bufs;
    let slot = &mut ring[slot];
    let dim = ent.dim();

    // Branch (3), the anchor: a launch at window ≥ 1 is priced as an
    // overlapped collective from here — before the encode, because
    // quantize + encode run on the comm thread of a real pipelined
    // exchange, so their cost is part of the window the collective's price
    // may hide behind. Window 0 is the synchronous collective.
    slot.anchor = (plan.window > 0).then(|| ctx.comm().clock().now_s());

    // Branch (1), the RNG source: at window 0 row selection and
    // quantization draw from the node's checkpointed stream; at window ≥ 1
    // from streams keyed on (seed, rank, epoch, batch, stage), so every
    // draw of a launch is independent of thread count and of when the
    // overlapped collective completes.
    let (seed, rank) = (config.seed, ctx.rank());
    let stage_rng = |stage| StdRng::seed_from_u64(stage_seed(seed, rank, plan.epoch, b, stage));
    let (mut ent_stage, mut rel_stage) = (stage_rng(STAGE_ENT), stage_rng(STAGE_REL));
    let ent_rng = if plan.window == 0 { rng } else { &mut ent_stage };

    if feedback(s) {
        ent_residual.add_into(&mut batch.ent_grad);
    }
    let sel = select_rows(s.row_select, &mut batch.ent_grad, ent_rng);
    sums.rows_before_rs += sel.rows_before;
    sums.rows_after_rs += sel.rows_after;
    sums.rows_sent += batch.ent_grad.nnz();
    // Norm computation + selection cost.
    ctx.comm_mut()
        .clock_mut()
        .charge_flops((sel.rows_before * dim * 2) as f64);
    if base == CommChoice::AllGather {
        // Quantization costs ~2 flops per element.
        ctx.comm_mut()
            .clock_mut()
            .charge_flops((batch.ent_grad.nnz() * dim * 2) as f64);
        // Sort now (cheap, reuses the cached order) so the encode borrows.
        batch.ent_grad.ensure_sorted();
        batch.rel_grad.ensure_sorted();
    }

    // Branch (2), the payload source: at window ≥ 1 the payload is staged
    // into the slot now and deposited at settle; at window 0 settle stages
    // the live gradient straight into the communicator (no copy).
    if plan.window > 0 {
        slot.ent.stage(&batch.ent_grad, wire(s, base, ent, ent_residual, ent_rng, gather));
        if !s.relation_partition {
            let rel_wire = wire(s, base, rel, rel_residual, &mut rel_stage, gather);
            slot.rel.stage(&batch.rel_grad, rel_wire);
        }
    }
}

/// Settle the exchange held in ring slot `slot`: the entity collective,
/// the decode charge, the relation collective (never under RP), then both
/// optimizer steps.
fn settle(
    ctx: &mut NodeCtx,
    config: &TrainConfig,
    st: &mut ReplicaState,
    plan: &EpochPlan,
    slot: usize,
) -> Result<(), SimError> {
    let s = &config.strategy;
    let base = plan.choice.base();
    let ReplicaState {
        ent,
        rel,
        ent_opt,
        rel_opt,
        ent_residual,
        rel_residual,
        rng,
        bufs,
        ..
    } = st;
    let StepBufs { batch, ent_agg, rel_agg, dense_ent, dense_rel, gather, ring } = bufs;
    let Slot { ent: ent_slot, rel: rel_slot, anchor } = &mut ring[slot];
    let dim = ent.dim();
    // Branch (2): at window 0 the live gradient goes straight into the
    // communicator's staging slot — PR 18's zero-copy path; staging it
    // into the ring first would copy the whole dense table per batch.
    let live = plan.window == 0;

    let ent_wire = wire(s, base, ent, ent_residual, rng, gather);
    let ent_live = live.then_some(&batch.ent_grad);
    let gathered = ent_slot.collective(ctx.comm_mut(), ent_wire, ent_live, *anchor, ent_agg)?;
    if base == CommChoice::AllGather {
        // Decode + local sum cost (`gathered` is a shared quantity, so
        // clocks stay rank-identical).
        ctx.comm_mut()
            .clock_mut()
            .charge_flops((gathered * dim) as f64);
    }
    if !s.relation_partition {
        let rel_wire = wire(s, base, rel, rel_residual, rng, gather);
        let rel_live = live.then_some(&batch.rel_grad);
        rel_slot.collective(ctx.comm_mut(), rel_wire, rel_live, *anchor, rel_agg)?;
    }

    let dense = base == CommChoice::AllReduce;
    let agg = AggRef::of(dense, &ent_slot.dense, ent_agg, dense_ent);
    apply_update(ctx, ent_opt.as_mut(), s.update_style, plan.choice, ent, agg, plan.lr_scale);
    if !s.relation_partition {
        let agg = AggRef::of(dense, &rel_slot.dense, rel_agg, dense_rel);
        apply_update(ctx, rel_opt.as_mut(), s.update_style, plan.choice, rel, agg, plan.lr_scale);
    }
    Ok(())
}

/// Pooled checkpoint buffers: the encoded image, the residual-id scratch
/// and the exported traffic table are reused across every checkpoint and
/// rejoin transfer, so steady-state checkpointing stops allocating once
/// warm.
#[derive(Default)]
struct CkptBufs {
    buf: Vec<u8>,
    ids: Vec<u32>,
    traffic: Vec<(Collective, [u64; 6])>,
}

/// Serialize this rank's full training state into `out.buf`.
/// `next_epoch` is the first epoch the restored run executes.
fn encode_rank_state(
    out: &mut CkptBufs,
    ctx: &NodeCtx,
    seed: u64,
    next_epoch: usize,
    st: &ReplicaState,
    progress: &Progress,
) {
    let comm = ctx.comm();
    comm.traffic().export_into(&mut out.traffic);
    let view = CheckpointView {
        world_size: ctx.size(),
        rank: ctx.rank(),
        next_epoch,
        seed,
        ent: &st.ent,
        rel: &st.rel,
        ent_opt: st.ent_opt.state_view(),
        rel_opt: st.rel_opt.state_view(),
        ent_residual: &st.ent_residual,
        rel_residual: &st.rel_residual,
        rng_state: st.rng.state(),
        schedule: progress.schedule.snapshot(),
        selector: progress.selector.as_ref().map(|s| s.snapshot()),
        tallies: &progress.tallies,
        trace: &progress.trace,
        clock_now_s: comm.clock().now_s(),
        breakdown: comm.clock().breakdown(),
        traffic: &out.traffic,
        coll_seq: comm.coll_seq(),
        p2p_seq: comm.p2p_seq(),
    };
    checkpoint::encode_into(&view, &mut out.ids, &mut out.buf);
}

/// One chunk's reusable working state: the example staging arrays fed to
/// the fused block kernel, the kernel's scratch, the
/// negative-sampling scratch, and the chunk-local gradient accumulators.
/// The workspaces own their instances, so every buffer is reused across
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
/// phase 2 makes a single [`KgeModel::grad_block`] call that scores the
/// chunk — or, under selection, takes phase 1's scores, formed on these
/// same tables — forms coefficients (accumulating the f64 loss in example
/// order), and adds regularized gradients into the chunk accumulators —
/// bit-identical to per-example score/grad/axpy.
fn process_chunk(
    inputs: &StepInputs,
    ent: &EmbeddingTable,
    rel: &EmbeddingTable,
    positives: impl Iterator<Item = Triple> + Clone,
    inv_batch: f32,
    rng_seed: u64,
    cs: &mut ChunkScratch,
) {
    stage_chunk(inputs, ent, rel, ent.rows(), positives, rng_seed, cs);
    compute_chunk(inputs, (ent, rel), inv_batch, true, cs);
}

/// Phase 1 of [`process_chunk`]: draw the chunk's negatives — every pool
/// first, then one scoring call under selection ([`NegSampler::sample`]) —
/// and stage `(label, triple)` pairs in example order. `n_entities` is the
/// corruption range — the replica path passes `ent.rows()`, while the
/// sharded path stages against placeholder tables before the pull fills
/// them, so the range must be the global entity count, not the table
/// height. The chunk's gradient accumulators are cleared here so a staged
/// chunk is always ready for [`compute_chunk`].
pub(crate) fn stage_chunk(
    inputs: &StepInputs,
    ent: &EmbeddingTable,
    rel: &EmbeddingTable,
    n_entities: usize,
    positives: impl Iterator<Item = Triple> + Clone,
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
        policy: inputs.config.strategy.neg,
        model: inputs.model,
        ent,
        rel,
        filter: inputs.filter,
        bias: inputs.bias,
        n_entities,
    };
    sampler.stage(positives, &mut rng, &mut cs.neg_scratch, &mut cs.labels, &mut cs.triples);
    cs.examples = cs.triples.len();
}

/// The positives at `range` of the shard's batch order, wrapping around
/// the shard.
pub(crate) fn chunk_positives(
    shard: &[Triple],
    range: std::ops::Range<usize>,
) -> impl Iterator<Item = Triple> + Clone + '_ {
    range.map(|i| shard[i % shard.len()])
}

/// Phase 2 of [`process_chunk`]: the fused kernel call over an
/// already-staged chunk. The entity ids in `cs.triples` index `tables` —
/// global ids for the replica path, batch-local ids for the sharded path
/// (the kernel reads only the rows the triples name, so the remap is
/// value-transparent). `staged_tables` says these are the tables phase 1
/// read, so its selection scores stand in for the forward; the sharded
/// path staged on placeholders and passes `false`.
pub(crate) fn compute_chunk(
    inputs: &StepInputs,
    tables: (&EmbeddingTable, &EmbeddingTable),
    inv_batch: f32,
    staged_tables: bool,
    cs: &mut ChunkScratch,
) {
    let ChunkScratch { loss, labels, triples, block, neg_scratch, ent: ent_g, rel: rel_g, .. } = cs;
    let mut coeff_of = |i: usize, score: f32| {
        let (l, g) = logistic_loss_and_grad(labels[i], score);
        *loss += l as f64;
        g * inv_batch
    };
    let scores = neg_scratch.scores();
    let given = staged_tables && !scores.is_empty();
    let forward = if given { Forward::Given(scores) } else { Forward::Score(block) };
    let l2 = 2.0 * inputs.config.l2 * inv_batch;
    inputs.model.grad_block(tables, triples, forward, l2, &mut coeff_of, (ent_g, rel_g));
}

/// Fold the chunks `first..first + chunks.len()` into the batch's
/// accumulators and `sums` (loss, examples), in chunk order. Chunk 0's
/// accumulators are handed over by swap — the batch's are empty then, and
/// adding a chunk sum to a zeroed slab changes no bit: a slab element
/// starts at +0.0 and `x + y` is −0.0 only when both are, so a chunk sum
/// is never −0.0 and `0.0 + v == v`. Rows, values and insertion order come
/// out exactly as a merge leaves them.
pub(crate) fn fold_chunks(
    first: usize,
    chunks: &mut [ChunkScratch],
    (ent_grad, rel_grad): (&mut SparseGrad, &mut SparseGrad),
    sums: &mut (f64, usize),
) {
    for (c, cs) in (first..).zip(chunks) {
        sums.0 += cs.loss;
        sums.1 += cs.examples;
        if c == 0 {
            debug_assert!(ent_grad.is_empty() && rel_grad.is_empty());
            std::mem::swap(ent_grad, &mut cs.ent);
            std::mem::swap(rel_grad, &mut cs.rel);
        } else {
            ent_grad.merge(&cs.ent);
            rel_grad.merge(&cs.rel);
        }
    }
}

/// Reusable workspace for the batch-gradient hot path: the per-batch
/// entity/relation accumulators plus one chunk scratch per thread. Public
/// so benches and the allocation-regression test can drive the exact code
/// the trainer runs.
pub struct BatchWorkspace {
    ent_grad: SparseGrad,
    rel_grad: SparseGrad,
    /// `min(threads, chunks)` of the widest batch so far.
    chunks: Vec<ChunkScratch>,
}

impl BatchWorkspace {
    pub fn new(dim: usize) -> Self {
        BatchWorkspace {
            ent_grad: SparseGrad::new(dim),
            rel_grad: SparseGrad::new(dim),
            chunks: Vec::new(),
        }
    }

    /// Accumulate one batch's gradients into the workspace accumulators
    /// (cleared first). Returns `(summed loss, trained examples)`.
    ///
    /// The batch is split into fixed-size chunks of `GRAD_CHUNK`
    /// positives. Each chunk samples its negatives from its own seeded
    /// RNG stream (see `chunk_seed`) and runs the fused block kernel
    /// into chunk-local accumulators. The chunks run in waves, one chunk
    /// per thread, and each wave is folded **in chunk order**, so the
    /// result is bit-identical at any thread count. On a single-thread
    /// pool every wave is one chunk run inline, so steady-state batches
    /// allocate nothing and hold one chunk's scratch.
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
        // Every positive trains against exactly `neg.train` negatives
        // (`NegSampler::sample` keeps `train` out of `pool ≥ train`),
        // so the batch normalizer is known before any chunk runs.
        let inv_batch = 1.0f32 / (bs * (1 + config.strategy.neg.train)) as f32;
        let n_chunks = bs.div_ceil(GRAD_CHUNK);
        let width = rayon::current_num_threads().min(n_chunks);
        if self.chunks.len() < width {
            self.chunks.resize_with(width, || ChunkScratch::new(ent.dim()));
        }
        let inputs = StepInputs {
            model,
            config,
            filter,
            bias,
        };

        let mut sums = (0.0f64, 0usize);
        for first in (0..n_chunks).step_by(width) {
            let wave = &mut self.chunks[..width.min(n_chunks - first)];
            rayon::par_for_each_mut(wave, |j, cs| {
                let c = first + j;
                let lo = c * GRAD_CHUNK;
                let hi = (lo + GRAD_CHUNK).min(bs);
                process_chunk(
                    &inputs,
                    ent,
                    rel,
                    chunk_positives(shard, start + lo..start + hi),
                    inv_batch,
                    chunk_seed(config.seed, rank, epoch, batch_idx, c),
                    cs,
                );
            });
            fold_chunks(first, wave, (&mut self.ent_grad, &mut self.rel_grad), &mut sums);
        }
        sums
    }

    /// The entity-gradient accumulator from the last batch.
    pub fn ent_grad(&self) -> &SparseGrad {
        &self.ent_grad
    }

    /// The relation-gradient accumulator from the last batch.
    pub fn rel_grad(&self) -> &SparseGrad {
        &self.rel_grad
    }
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

impl<'a> AggRef<'a> {
    /// What a settle left: the dense all-reduce result `buf`, or the
    /// gathered rows `agg`.
    fn of(
        dense: bool,
        buf: &'a [f32],
        agg: &'a mut SparseGrad,
        dense_scratch: &'a mut Vec<f32>,
    ) -> Self {
        if dense {
            AggRef::Dense {
                buf,
                sparse_scratch: agg,
            }
        } else {
            AggRef::Sparse {
                grad: agg,
                dense_scratch,
            }
        }
    }
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
            let res = run_node(ctx, &ds, &config, None, &indexes, None);
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
    fn rejoiner_probes_in_step_with_the_survivors() {
        // A rejoiner adopts the grow leader's (reset) DRS selector. One
        // built fresh restarts its epoch counter, so under `check_every >
        // 1` it can probe a different collective than the survivors — the
        // world then deadlocks in mismatched collectives.
        let ds = tiny_dataset(11);
        let mut c = quick_config(StrategyConfig::baseline_allreduce(2));
        c.strategy.comm = CommMode::Dynamic { check_every: 2 };
        c.max_epochs = 10;
        let total = train(&ds, &Cluster::new(4, ClusterSpec::cray_xc40()), &c)
            .report
            .sim_total_seconds;
        let plan = simgrid::FaultPlan::seeded(99).with_crash_and_rejoin(2, 0.2 * total, 0.3 * total);
        let cluster = Cluster::new(4, ClusterSpec::cray_xc40()).with_fault_plan(plan);
        let out = train(&ds, &cluster, &c);
        assert_eq!((out.report.recoveries, out.report.rejoins), (1, 1));
        assert_eq!(out.report.surviving_nodes, 4);
        assert_eq!(out.report.allreduce_epochs + out.report.allgather_epochs, out.report.epochs);
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
