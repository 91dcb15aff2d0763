//! Synchronous parameter-server baseline.
//!
//! The paper's introduction motivates its all-reduce/all-gather design by
//! the drawbacks of the parameter-server (PS) architecture (Li et al.,
//! OSDI '14): servers store the model shards, workers compute gradients,
//! and every iteration funnels pull requests and gradient pushes through
//! the servers — a many-to-one pattern whose ingress bandwidth becomes
//! the bottleneck, and whose multi-server generalization degenerates into
//! an inefficient all-to-all. This module implements that architecture on
//! the same simulated cluster so the claim is measurable (see the
//! `ps_vs_allreduce` example and the `ps` experiment in the bench crate).
//!
//! Protocol (synchronous, one round per batch):
//!
//! 1. Every worker assembles its batch, collects the entity/relation row
//!    ids it needs, and sends a **pull request** to each owning server
//!    (ownership is derived from the locality-aware triple partition —
//!    see [`PsOwnership`] — so a row usually lives on the server whose
//!    partition shard touches it most, not at `row % n_servers`).
//! 2. Servers answer with the current row values; workers install them in
//!    their local cache.
//! 3. Workers compute gradients and **push** the row-sparse gradients
//!    back to the owning servers.
//! 4. Servers aggregate pushes from all workers (fixed order —
//!    deterministic) and apply a lazy Adam step to their shard.
//!
//! Epoch boundaries reuse the collectives: shards are all-gathered so
//! every rank holds the full model for validation, keeping the plateau
//! schedule identical to the all-reduce trainer's.

use crate::config::TrainConfig;
use crate::exchange::{add_payload_into, gather_table_rows, write_payload_into};
use crate::lr::PlateauSchedule;
use crate::neg::sample_negatives;
use crate::report::{EpochTrace, TrainOutcome, TrainReport};
use crate::trainer::RunIndexes;
use kge_compress::codec::RowEncoder;
use kge_compress::WireFormat;
use kge_core::loss::logistic_loss_and_grad;
use kge_core::{Adam, AdamState, BlockScratch, EmbeddingTable, KgeModel, SparseGrad};
use kge_data::batch::{uniform_shards, EpochShuffler};
use kge_data::{Dataset, Triple};
use kge_partition::{entity_owners, partition_for, relation_owners};
use kge_eval::fast_valid_accuracy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simgrid::{Cluster, Communicator, NodeCtx};

/// Which table a message refers to (tag byte on the wire).
const TAG_ENTITY: u8 = 0;
const TAG_RELATION: u8 = 1;

/// Train with `n_servers` parameter servers; the remaining
/// `cluster.size() − n_servers` ranks are workers. Returns the report
/// from rank 0 (a server) and the assembled model.
pub fn train_ps(
    dataset: &Dataset,
    cluster: &Cluster,
    config: &TrainConfig,
    n_servers: usize,
) -> TrainOutcome {
    assert!(n_servers >= 1, "need at least one server");
    assert!(
        cluster.size() > n_servers,
        "need at least one worker beside {n_servers} servers"
    );
    config.validate().expect("invalid training config");
    dataset.validate().expect("invalid dataset");
    let indexes = RunIndexes::build(dataset, config);
    let mut results = cluster.run(|ctx| run_ps_node(ctx, dataset, config, n_servers, &indexes));
    let wire_sent: u64 = results.iter().map(|r| r.3).sum();
    let wire_recv: u64 = results.iter().map(|r| r.4).sum();
    let (report, entities, relations, _, _) = results.swap_remove(0);
    let mut report = report.expect("rank 0 returns the report");
    report.wire_bytes_sent = wire_sent;
    report.wire_bytes_recv = wire_recv;
    TrainOutcome {
        report,
        entities,
        relations,
    }
}

/// Row → owning-server maps for both tables, derived from the same
/// locality-aware triple partition the collective trainers shard with
/// (majority endpoint/relation shard wins; ties to the lowest rank).
/// Deterministic — every rank derives identical maps from the dataset —
/// and far better aligned with access patterns than `row % n_servers`:
/// most of a worker's pulls land on the server whose partition shard its
/// triples came from.
struct PsOwnership {
    ent: Vec<u32>,
    rel: Vec<u32>,
}

impl PsOwnership {
    fn derive(dataset: &Dataset, n_servers: usize) -> Self {
        let part = partition_for(&dataset.train, dataset.n_relations, n_servers, false);
        PsOwnership {
            ent: entity_owners(&part, dataset.n_entities),
            rel: relation_owners(&part, dataset.n_relations),
        }
    }
}

/// Owning server (rank id) of a row under an ownership map.
#[inline]
fn owner(row: u32, owners: &[u32]) -> usize {
    owners[row as usize] as usize
}

fn encode_ids(tag: u8, ids: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 4 * ids.len());
    out.push(tag);
    for &id in ids {
        out.extend_from_slice(&id.to_le_bytes());
    }
    out
}

fn decode_ids(payload: &[u8]) -> (u8, Vec<u32>) {
    let tag = payload[0];
    let ids = payload[1..]
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    (tag, ids)
}

fn encode_table_rows(dim: usize, table: &EmbeddingTable, ids: &[u32]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(WireFormat::F32.payload_bytes(dim, ids.len()));
    let mut enc = RowEncoder::new(WireFormat::F32, dim, &mut buf);
    for &id in ids {
        enc.push_f32(id, table.row(id as usize)).expect("encode full rows");
    }
    enc.finish();
    buf
}

fn encode_grad(dim: usize, grad: &SparseGrad, server: usize, owners: &[u32]) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut enc = RowEncoder::new(WireFormat::F32, dim, &mut buf);
    for (row, g) in grad.iter_sorted() {
        if owner(row, owners) == server {
            enc.push_f32(row, g).expect("encode gradient rows");
        }
    }
    enc.finish();
    buf
}

fn run_ps_node(
    ctx: &mut NodeCtx,
    dataset: &Dataset,
    config: &TrainConfig,
    n_servers: usize,
    indexes: &RunIndexes,
) -> (Option<TrainReport>, EmbeddingTable, EmbeddingTable, u64, u64) {
    let rank = ctx.rank();
    let p = ctx.size();
    let n_workers = p - n_servers;
    let is_server = rank < n_servers;
    let owners = PsOwnership::derive(dataset, n_servers);
    let model = config.model.build(config.rank);
    let model: &dyn KgeModel = model.as_ref();
    let dim = model.storage_dim();

    // Worker shards (workers are ranks n_servers..p).
    let worker_shards = uniform_shards(&dataset.train, n_workers);
    let batches_per_epoch = worker_shards
        .iter()
        .map(|s| s.len().div_ceil(config.batch_size))
        .max()
        .unwrap_or(0)
        .max(1);
    let mut shard: Vec<Triple> = if is_server {
        Vec::new()
    } else {
        worker_shards[rank - n_servers].clone()
    };

    let (filter, bias) = (&indexes.filter, indexes.bias.as_ref());

    let mut ps = PsState::new(dataset, config, dim);
    let mut rng = StdRng::seed_from_u64(
        config.seed ^ (rank as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15),
    );
    let shuffler = EpochShuffler::new(config.seed ^ (rank as u64) << 32);
    let mut schedule = PlateauSchedule::new(
        n_workers,
        config.lr_scale_cap,
        config.lr_decay,
        config.plateau_tolerance,
        config.max_lr_drops,
    );

    let mut trace: Vec<EpochTrace> = Vec::new();
    let mut converged = false;

    // A worker's per-batch gradient state, cleared and refilled each batch.
    let mut block: Vec<(u32, u32, u32)> = Vec::new();
    let mut scratch = BlockScratch::new();
    let (mut ent_grad, mut rel_grad) = (SparseGrad::new(dim), SparseGrad::new(dim));

    for epoch in 0..config.max_epochs {
        ctx.comm_mut().barrier();
        let epoch_start = ctx.comm().clock().now_s();
        shuffler.shuffle(&mut shard, epoch as u64);
        let lr_scale = schedule.lr_scale();
        let mut epoch_loss = 0.0f64;
        let mut epoch_examples = 0usize;
        let mut rows_pulled = 0usize;

        for b in 0..batches_per_epoch {
            if is_server {
                ps.serve_one_round(ctx.comm_mut(), n_servers, n_workers, lr_scale);
                continue;
            }
            let PsState { ent, rel, .. } = &mut ps;
            // ---------------- Worker side. ----------------
            // Assemble the batch and its negative samples up front so the
            // pull covers every row the backward pass touches.
            let mut examples: Vec<(Triple, f32)> = Vec::new();
            if !shard.is_empty() {
                let bs = config.batch_size.min(shard.len());
                let start = b * config.batch_size;
                for i in 0..bs {
                    let pos = shard[(start + i) % shard.len()];
                    examples.push((pos, 1.0));
                    let negs = sample_negatives(
                        config.strategy.neg,
                        pos,
                        model,
                        ent,
                        rel,
                        filter,
                        bias,
                        ent.rows(),
                        &mut rng,
                    );
                    for neg in negs.train {
                        examples.push((neg, -1.0));
                    }
                }
            }
            let mut ent_ids: Vec<u32> = examples
                .iter()
                .flat_map(|(t, _)| [t.head, t.tail])
                .collect();
            ent_ids.sort_unstable();
            ent_ids.dedup();
            let mut rel_ids: Vec<u32> = examples.iter().map(|(t, _)| t.rel).collect();
            rel_ids.sort_unstable();
            rel_ids.dedup();
            rows_pulled += ent_ids.len() + rel_ids.len();

            // 1. Pull: request rows from each owning server.
            for server in 0..n_servers {
                let e: Vec<u32> = ent_ids
                    .iter()
                    .copied()
                    .filter(|&r| owner(r, &owners.ent) == server)
                    .collect();
                let r: Vec<u32> = rel_ids
                    .iter()
                    .copied()
                    .filter(|&r| owner(r, &owners.rel) == server)
                    .collect();
                ctx.comm_mut()
                    .send_bytes(server, &encode_ids(TAG_ENTITY, &e))
                    .expect("pull request (entities)");
                ctx.comm_mut()
                    .send_bytes(server, &encode_ids(TAG_RELATION, &r))
                    .expect("pull request (relations)");
            }
            // 2. Install replies. Per-source FIFO ordering guarantees the
            //    first reply answers the entity request, the second the
            //    relation request.
            for server in 0..n_servers {
                for which in 0..2 {
                    let msg = ctx.comm_mut().recv_bytes_from(server).expect("pull reply");
                    let table = if which == 0 { &mut *ent } else { &mut *rel };
                    write_payload_into(&msg.payload, table, "reply payload");
                }
            }

            // 3. Compute gradients locally, through the trainers' block
            //    kernel: score, loss coefficient, regularized backward.
            ent_grad.clear();
            rel_grad.clear();
            block.clear();
            block.extend(examples.iter().map(|(t, _)| (t.head, t.rel, t.tail)));
            let inv = if examples.is_empty() {
                0.0
            } else {
                1.0 / examples.len() as f32
            };
            model.score_grad_block(
                ent,
                rel,
                &block,
                2.0 * config.l2 * inv,
                &mut scratch,
                &mut |i, score| {
                    let (loss, grad) = logistic_loss_and_grad(examples[i].1, score);
                    epoch_loss += loss as f64;
                    grad * inv
                },
                &mut ent_grad,
                &mut rel_grad,
            );
            epoch_examples += examples.len();
            ctx.comm_mut()
                .clock_mut()
                .charge_flops(examples.len() as f64 * model.score_flops() * 3.0);

            // 4. Push gradients to the owners.
            for server in 0..n_servers {
                let e = encode_grad(dim, &ent_grad, server, &owners.ent);
                let r = encode_grad(dim, &rel_grad, server, &owners.rel);
                ctx.comm_mut().send_bytes(server, &e).expect("push (entities)");
                ctx.comm_mut().send_bytes(server, &r).expect("push (relations)");
            }
        }

        // ---- Epoch end: assemble the full model on every rank. --------
        assemble_full_model(ctx, n_servers, &owners, &mut ps.ent, &mut ps.rel);

        let acc = fast_valid_accuracy(
            model,
            &ps.ent,
            &ps.rel,
            &dataset.valid,
            filter,
            dataset.n_entities,
            config.valid_samples,
            config.seed ^ (epoch as u64).wrapping_mul(0x2545F4914F6CDD1D),
        );
        ctx.comm_mut().clock_mut().charge_flops(
            (config.valid_samples.min(dataset.valid.len()) * 2) as f64 * model.score_flops(),
        );
        // Align clocks (worker/server compute differs) so the schedule and
        // epoch times are identical everywhere.
        ctx.comm_mut().barrier();
        let epoch_time = ctx.comm().clock().now_s() - epoch_start;
        let loss_sum = ctx.comm_mut().allreduce_sum_f64(epoch_loss);
        let examples_sum = ctx.comm_mut().allreduce_sum_f64(epoch_examples as f64);

        trace.push(EpochTrace {
            epoch,
            sim_seconds: epoch_time,
            comm: crate::comm_select::CommChoice::AllGather, // PS uses p2p; tag as sparse
            valid_acc: acc,
            train_loss: if examples_sum > 0.0 {
                loss_sum / examples_sum
            } else {
                0.0
            },
            lr_scale,
            mean_nonzero_rows: rows_pulled as f64 / batches_per_epoch as f64,
            mean_rows_sent: rows_pulled as f64 / batches_per_epoch as f64,
            rs_sparsity: 0.0,
            bytes_sent: 0,
            // The PS topology has no symmetric communicator for the
            // sharded eval collective; per-epoch ranking stays off here.
            ranking: None,
        });
        if matches!(schedule.observe(acc), crate::lr::LrDecision::Converged) {
            converged = true;
            break;
        }
    }

    let report = if rank == 0 {
        Some(TrainReport {
            dataset: dataset.name.clone(),
            nodes: p,
            epochs: trace.len(),
            converged,
            sim_total_seconds: ctx.comm().clock().now_s(),
            breakdown: ctx.comm().clock().breakdown(),
            trace,
            allreduce_epochs: 0,
            allgather_epochs: 0,
            pipelined_epochs: 0,
            // The PS path has no crash-recovery policy (fault tolerance
            // lives in the collective trainer); wire totals are summed by
            // train_ps across all ranks.
            surviving_nodes: p,
            recoveries: 0,
            rejoins: 0,
            checkpoints_written: 0,
            crashed_ranks: Vec::new(),
            wire_bytes_sent: 0,
            wire_bytes_recv: 0,
            sharded: None,
        })
    } else {
        None
    };
    let traffic = ctx.comm().traffic().report();
    (
        report,
        ps.ent,
        ps.rel,
        traffic.total_wire_sent(),
        traffic.total_wire_recv(),
    )
}

/// One rank's model and what a server's step needs. Every rank holds full
/// tables: servers treat their owned rows as the source of truth, workers
/// use theirs as a pull-through cache. The Adam states and the push
/// aggregates (reused across rounds) are a server's.
struct PsState {
    ent: EmbeddingTable,
    rel: EmbeddingTable,
    ent_adam: AdamState,
    rel_adam: AdamState,
    adam: Adam,
    ent_agg: SparseGrad,
    rel_agg: SparseGrad,
}

impl PsState {
    /// The same Xavier tables on every rank (entity table first), fresh
    /// Adam states.
    fn new(dataset: &Dataset, config: &TrainConfig, dim: usize) -> Self {
        let mut init_rng = StdRng::seed_from_u64(config.seed);
        PsState {
            ent: EmbeddingTable::xavier(dataset.n_entities, dim, &mut init_rng),
            rel: EmbeddingTable::xavier(dataset.n_relations, dim, &mut init_rng),
            ent_adam: AdamState::new(dataset.n_entities, dim),
            rel_adam: AdamState::new(dataset.n_relations, dim),
            adam: Adam {
                lr: config.base_lr,
                ..Adam::default()
            },
            ent_agg: SparseGrad::new(dim),
            rel_agg: SparseGrad::new(dim),
        }
    }

    /// One server-side round: answer every worker's pull, then absorb every
    /// worker's push (fixed worker order — deterministic).
    fn serve_one_round(
        &mut self,
        comm: &mut Communicator,
        n_servers: usize,
        n_workers: usize,
        lr_scale: f32,
    ) {
        let dim = self.ent.dim();
        // Pull phase.
        for w in 0..n_workers {
            let worker_rank = n_servers + w;
            for _ in 0..2 {
                let msg = comm.recv_bytes_from(worker_rank).expect("pull request");
                let (tag, ids) = decode_ids(&msg.payload);
                let table = if tag == TAG_ENTITY { &self.ent } else { &self.rel };
                let reply = encode_table_rows(dim, table, &ids);
                comm.send_bytes(worker_rank, &reply).expect("pull reply");
            }
        }
        // Push phase: aggregate all workers, then one optimizer step.
        self.ent_agg.clear();
        self.rel_agg.clear();
        for w in 0..n_workers {
            let worker_rank = n_servers + w;
            for table in 0..2 {
                let msg = comm.recv_bytes_from(worker_rank).expect("gradient push");
                let agg = if table == 0 { &mut self.ent_agg } else { &mut self.rel_agg };
                add_payload_into(&msg.payload, agg, "push payload");
            }
        }
        let inv = 1.0 / n_workers as f32;
        self.ent_agg.scale(inv);
        self.rel_agg.scale(inv);
        comm.clock_mut().charge_flops(
            self.ent_adam.lazy_step_flops(self.ent_agg.nnz())
                + self.rel_adam.lazy_step_flops(self.rel_agg.nnz()),
        );
        self.adam.step_lazy(&mut self.ent_adam, &mut self.ent, &self.ent_agg, lr_scale);
        self.adam.step_lazy(&mut self.rel_adam, &mut self.rel, &self.rel_agg, lr_scale);
    }
}

/// All-gather each server's owned rows so every rank ends with the full,
/// current model (used at epoch boundaries for validation and finally for
/// evaluation).
fn assemble_full_model(
    ctx: &mut NodeCtx,
    n_servers: usize,
    owners: &PsOwnership,
    ent: &mut EmbeddingTable,
    rel: &mut EmbeddingTable,
) {
    let rank = ctx.rank();
    for (map, table) in [(&owners.ent, ent), (&owners.rel, rel)] {
        // Workers own nothing and contribute an empty payload.
        let rows = if rank < n_servers { table.rows() as u32 } else { 0 };
        let owned = (0..rows).filter(|&r| owner(r, map) == rank);
        gather_table_rows(ctx.comm_mut(), table, owned).expect("shard assembly");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StrategyConfig;
    use kge_data::synth::{generate, SynthConfig};
    use simgrid::ClusterSpec;

    fn tiny_dataset(seed: u64) -> Dataset {
        generate(&SynthConfig {
            name: "ps-tiny".into(),
            n_entities: 100,
            n_relations: 6,
            n_triples: 1200,
            relation_zipf: 0.75,
            entity_zipf: 0.8,
            noise_frac: 0.05,
            valid_frac: 0.08,
            test_frac: 0.08,
            seed,
        })
    }

    fn quick_config() -> TrainConfig {
        let mut c = TrainConfig::new(4, 64, StrategyConfig::baseline_allgather(1));
        c.plateau_tolerance = 3;
        c.max_lr_drops = 1;
        c.max_epochs = 8;
        c.valid_samples = 64;
        c.base_lr = 5e-3;
        c
    }

    #[test]
    fn ps_trains_and_loss_decreases() {
        let ds = tiny_dataset(1);
        let cluster = Cluster::new(3, ClusterSpec::cray_xc40()); // 1 server + 2 workers
        let out = train_ps(&ds, &cluster, &quick_config(), 1);
        assert!(out.report.epochs >= 4, "N={}", out.report.epochs);
        let first = out.report.trace.first().unwrap().train_loss;
        let last = out.report.trace.last().unwrap().train_loss;
        assert!(last < first, "loss should fall: {first} -> {last}");
        assert!(out.report.sim_total_seconds > 0.0);
    }

    #[test]
    fn ps_is_deterministic() {
        let ds = tiny_dataset(2);
        let cluster = Cluster::new(4, ClusterSpec::cray_xc40()); // 2 servers + 2 workers
        let a = train_ps(&ds, &cluster, &quick_config(), 2);
        let b = train_ps(&ds, &cluster, &quick_config(), 2);
        assert_eq!(a.entities.as_slice(), b.entities.as_slice());
        assert_eq!(a.report.sim_total_seconds, b.report.sim_total_seconds);
    }

    #[test]
    fn ps_model_quality_comparable_to_allreduce() {
        // Same dataset, same worker count: the synchronous PS computes
        // the same kind of averaged-gradient updates, so validation
        // accuracy should land in the same region as the all-reduce
        // trainer (it is the *time*, not the math, that suffers).
        let ds = tiny_dataset(3);
        let mut cfg = quick_config();
        cfg.max_epochs = 10;
        // 64-sample validation is granular (steps of 1/64) and both runs
        // are short; a larger probe keeps the comparison about the math,
        // not sampling noise.
        cfg.valid_samples = 256;
        let ps = train_ps(&ds, &Cluster::new(3, ClusterSpec::cray_xc40()), &cfg, 1);
        let ar = crate::trainer::train(
            &ds,
            &Cluster::new(2, ClusterSpec::cray_xc40()),
            &TrainConfig {
                strategy: StrategyConfig::baseline_allreduce(1),
                ..cfg.clone()
            },
        );
        let acc_ps = ps.report.trace.last().unwrap().valid_acc;
        let acc_ar = ar.report.trace.last().unwrap().valid_acc;
        assert!(
            acc_ps > acc_ar - 0.1,
            "PS accuracy {acc_ps} collapsed vs all-reduce {acc_ar}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn ps_requires_a_worker() {
        let ds = tiny_dataset(4);
        let cluster = Cluster::new(2, ClusterSpec::cray_xc40());
        let _ = train_ps(&ds, &cluster, &quick_config(), 2);
    }

    #[test]
    fn row_ownership_partitions_rows() {
        // Partition-derived maps must assign every row to exactly one
        // valid server, cover every server, and align with locality:
        // most pulls from a worker's shard should hit the server that
        // owns that shard's triples.
        let ds = tiny_dataset(5);
        for n_servers in 1..5usize {
            let owners = PsOwnership::derive(&ds, n_servers);
            assert_eq!(owners.ent.len(), ds.n_entities);
            assert_eq!(owners.rel.len(), ds.n_relations);
            let mut seen = vec![0usize; n_servers];
            for row in 0..ds.n_entities as u32 {
                let o = owner(row, &owners.ent);
                assert!(o < n_servers);
                seen[o] += 1;
            }
            assert_eq!(seen.iter().sum::<usize>(), ds.n_entities);
            assert!(seen.iter().all(|&c| c > 0), "empty server at p={n_servers}");
            for row in 0..ds.n_relations as u32 {
                assert!(owner(row, &owners.rel) < n_servers);
            }
        }
        // Locality: with the partition that produced the map, a shard's
        // majority entity lands on its own server by construction.
        let part = partition_for(&ds.train, ds.n_relations, 3, false);
        let owners = PsOwnership::derive(&ds, 3);
        let mut aligned = 0usize;
        let mut total = 0usize;
        for (s, shard) in part.shards.iter().enumerate() {
            for t in shard {
                total += 2;
                aligned += usize::from(owner(t.head, &owners.ent) == s);
                aligned += usize::from(owner(t.tail, &owners.ent) == s);
            }
        }
        // `row % n_servers` co-locates ~1/p of the touches by chance;
        // majority ownership must do strictly better than that baseline.
        assert!(
            aligned * 3 > total,
            "majority ownership should beat the uniform-hash baseline \
             (1/3) on co-located endpoint touches ({aligned}/{total})"
        );
    }
}
