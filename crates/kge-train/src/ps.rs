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
//!    see `PsOwnership` — so a row usually lives on the server whose
//!    partition shard touches it most, not at `row % n_servers`).
//! 2. Servers answer with the current row values; workers install them in
//!    their local cache.
//! 3. Workers compute gradients and **push** the row-sparse gradients
//!    back to the owning servers.
//! 4. Servers aggregate pushes from all workers (fixed order —
//!    deterministic) and apply a lazy Adam step to their shard.
//!
//! The epoch loop is the trainer's own: a `PsRank` is the third
//! placement of `trainer::run_node_inner`, beside the replica and the
//! sharded store. Its step is one round above; its epoch end all-gathers
//! the servers' owned rows, so every rank holds the full model for
//! validation, per-epoch ranking and the final report. Workers are the
//! ranks that hold triples: they get the uniform partition, set the LR
//! schedule's world size, and the first of them reports.

use crate::config::{CommMode, StrategyConfig, TrainConfig};
use crate::exchange::{add_payload_into, gather_table_rows, write_payload_into};
use crate::neg::{NegSampler, NegScratch};
use crate::report::TrainOutcome;
use crate::trainer::{chunk_positives, EpochSums, StepInputs};
use kge_compress::codec::RowEncoder;
use kge_compress::WireFormat;
use kge_core::loss::logistic_loss_and_grad;
use kge_core::{Adam, AdamState, BlockScratch, EmbeddingTable, SparseGrad};
use kge_data::{Dataset, Triple};
use kge_partition::{entity_owners, partition_for, relation_owners};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simgrid::{Cluster, Communicator, NodeCtx, SimError};

/// Which table a message refers to (tag byte on the wire).
const TAG_ENTITY: u8 = 0;
const TAG_RELATION: u8 = 1;

/// Train with `n_servers` parameter servers; the remaining
/// `cluster.size() − n_servers` ranks are workers. Returns the first
/// worker's report and the assembled model; the report's wire totals are
/// summed over all ranks. The run carries the sparse all-gather tag on
/// every epoch and no relation partition; sharded storage and resume are
/// replica-trainer options it does not run.
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
    let config = TrainConfig {
        strategy: StrategyConfig {
            comm: CommMode::AllGather,
            relation_partition: false,
            ..config.strategy
        },
        sharded: None,
        resume_from: None,
        ..config.clone()
    };
    crate::trainer::run(dataset, cluster, &config, None, Some(n_servers))
}

/// Row → owning-server maps for both tables, derived from the same
/// locality-aware triple partition the collective trainers shard with
/// (majority endpoint/relation shard wins; ties to the lowest rank).
/// Deterministic — every rank derives identical maps from the dataset —
/// and far better aligned with access patterns than `row % n_servers`:
/// most of a worker's pulls land on the server whose partition shard its
/// triples came from.
struct PsOwnership {
    /// Ranks `0..servers` serve; the rest are workers.
    servers: usize,
    ent: Vec<u32>,
    rel: Vec<u32>,
}

impl PsOwnership {
    fn derive(dataset: &Dataset, n_servers: usize) -> Self {
        let part = partition_for(&dataset.train, dataset.n_relations, n_servers, false);
        PsOwnership {
            servers: n_servers,
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

/// One parameter-server rank, the trainer's third placement. Every rank
/// holds full tables: a server treats the rows it owns as the source of
/// truth, a worker uses its copy as a pull-through cache.
pub(crate) struct PsRank {
    model: PsModel,
    /// This rank's triples, in the running epoch's order (none on a
    /// server).
    pub(crate) shard: Vec<Triple>,
    role: Role,
}

/// The tables and who owns their rows.
struct PsModel {
    owners: PsOwnership,
    ent: EmbeddingTable,
    rel: EmbeddingTable,
}

/// What a rank does in each round: serve its rows, or train on triples.
enum Role {
    Server(Box<Server>),
    Worker(Box<Worker>),
}

/// A server's Adam state over the rows it owns and its push aggregates,
/// reused across rounds.
struct Server {
    ent_adam: AdamState,
    rel_adam: AdamState,
    adam: Adam,
    ent_agg: SparseGrad,
    rel_agg: SparseGrad,
}

/// A worker's node stream and its per-batch state, cleared and refilled
/// each round: the staged examples (each positive, then its negatives)
/// with their labels, and the kernel's scratch and gradients.
struct Worker {
    rng: StdRng,
    negs: NegScratch,
    labels: Vec<f32>,
    block: Vec<(u32, u32, u32)>,
    scratch: BlockScratch,
    ent_grad: SparseGrad,
    rel_grad: SparseGrad,
}

impl PsRank {
    /// Rank `rank`'s fresh state: the same Xavier tables on every rank
    /// (entity table first); fresh Adam states on a server, the per-rank
    /// node stream on a worker.
    pub(crate) fn new(inputs: &StepInputs, dataset: &Dataset, rank: usize, n_servers: usize) -> Self {
        let config = inputs.config;
        let dim = inputs.model.storage_dim();
        let mut init_rng = StdRng::seed_from_u64(config.seed);
        let ent = EmbeddingTable::xavier(dataset.n_entities, dim, &mut init_rng);
        let rel = EmbeddingTable::xavier(dataset.n_relations, dim, &mut init_rng);
        let role = if rank < n_servers {
            Role::Server(Box::new(Server {
                ent_adam: AdamState::new(dataset.n_entities, dim),
                rel_adam: AdamState::new(dataset.n_relations, dim),
                adam: Adam {
                    lr: config.base_lr,
                    ..Adam::default()
                },
                ent_agg: SparseGrad::new(dim),
                rel_agg: SparseGrad::new(dim),
            }))
        } else {
            Role::Worker(Box::new(Worker {
                rng: StdRng::seed_from_u64(
                    config.seed ^ (rank as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15),
                ),
                negs: NegScratch::default(),
                labels: Vec::new(),
                block: Vec::new(),
                scratch: BlockScratch::new(),
                ent_grad: SparseGrad::new(dim),
                rel_grad: SparseGrad::new(dim),
            }))
        };
        PsRank {
            model: PsModel {
                owners: PsOwnership::derive(dataset, n_servers),
                ent,
                rel,
            },
            shard: Vec::new(),
            role,
        }
    }

    /// This rank's index among the workers (`None` on a server) and the
    /// worker count.
    pub(crate) fn trainers(&self, rank: usize, p: usize) -> (Option<usize>, usize) {
        let servers = self.model.owners.servers;
        (rank.checked_sub(servers), p - servers)
    }

    /// One synchronous round: a worker pulls, computes and pushes batch
    /// `b`; a server answers every worker's pull and applies the pushes.
    pub(crate) fn step(
        &mut self,
        ctx: &mut NodeCtx,
        inputs: &StepInputs,
        lr_scale: f32,
        b: usize,
        sums: &mut EpochSums,
    ) {
        match &mut self.role {
            Role::Server(s) => s.serve_one_round(ctx.comm_mut(), &mut self.model, lr_scale),
            Role::Worker(w) => w.round(ctx, inputs, &mut self.model, &self.shard, b, sums),
        }
    }

    /// All-gather each server's owned rows so every rank ends the epoch
    /// with the full, current model.
    pub(crate) fn end_epoch(&mut self, ctx: &mut NodeCtx) -> Result<(), SimError> {
        let rank = ctx.rank();
        let PsModel { owners, ent, rel } = &mut self.model;
        for (map, table) in [(&owners.ent, ent), (&owners.rel, rel)] {
            // Workers own nothing and contribute an empty payload.
            let rows = if rank < owners.servers { table.rows() as u32 } else { 0 };
            let owned = (0..rows).filter(|&r| owner(r, map) == rank);
            gather_table_rows(ctx.comm_mut(), table, owned)?;
        }
        Ok(())
    }

    /// The full tables (current after [`PsRank::end_epoch`]).
    pub(crate) fn tables(&self) -> (&EmbeddingTable, &EmbeddingTable) {
        (&self.model.ent, &self.model.rel)
    }

    /// The final model.
    pub(crate) fn into_tables(self) -> (EmbeddingTable, EmbeddingTable) {
        (self.model.ent, self.model.rel)
    }
}

impl Worker {
    /// Batch `b` of the worker's shard: pull every row it touches, compute
    /// its gradients through the trainers' block kernel, push them to the
    /// owners.
    fn round(
        &mut self,
        ctx: &mut NodeCtx,
        inputs: &StepInputs,
        model: &mut PsModel,
        shard: &[Triple],
        b: usize,
        sums: &mut EpochSums,
    ) {
        let (config, kge) = (inputs.config, inputs.model);
        let PsModel { owners, ent, rel } = model;
        let n_servers = owners.servers;
        let Worker { rng, negs, labels, block, scratch, ent_grad, rel_grad } = self;
        // Stage the batch and its negatives up front so the pull covers
        // every row the backward pass touches.
        labels.clear();
        block.clear();
        if !shard.is_empty() {
            let start = b * config.batch_size;
            let positives = chunk_positives(shard, start..start + config.batch_size.min(shard.len()));
            let sampler = NegSampler {
                policy: config.strategy.neg,
                model: kge,
                ent,
                rel,
                filter: inputs.filter,
                bias: inputs.bias,
                n_entities: ent.rows(),
            };
            sampler.stage(positives, rng, negs, labels, block);
        }
        let mut ent_ids: Vec<u32> = block.iter().flat_map(|&(h, _, t)| [h, t]).collect();
        ent_ids.sort_unstable();
        ent_ids.dedup();
        let mut rel_ids: Vec<u32> = block.iter().map(|&(_, r, _)| r).collect();
        rel_ids.sort_unstable();
        rel_ids.dedup();
        let pulled = ent_ids.len() + rel_ids.len();
        sums.nonzero_rows += pulled;
        sums.rows_sent += pulled;

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
        let inv = if block.is_empty() { 0.0 } else { 1.0 / block.len() as f32 };
        kge.score_grad_block(
            ent,
            rel,
            block,
            2.0 * config.l2 * inv,
            scratch,
            &mut |i, score| {
                let (loss, grad) = logistic_loss_and_grad(labels[i], score);
                sums.loss += loss as f64;
                grad * inv
            },
            ent_grad,
            rel_grad,
        );
        sums.examples += block.len();
        ctx.comm_mut()
            .clock_mut()
            .charge_flops(block.len() as f64 * kge.score_flops() * 3.0);

        // 4. Push gradients to the owners.
        let dim = ent.dim();
        for server in 0..n_servers {
            let e = encode_grad(dim, ent_grad, server, &owners.ent);
            let r = encode_grad(dim, rel_grad, server, &owners.rel);
            ctx.comm_mut().send_bytes(server, &e).expect("push (entities)");
            ctx.comm_mut().send_bytes(server, &r).expect("push (relations)");
        }
    }
}

impl Server {
    /// One server-side round: answer every worker's pull, then absorb every
    /// worker's push (fixed worker order — deterministic).
    fn serve_one_round(&mut self, comm: &mut Communicator, model: &mut PsModel, lr_scale: f32) {
        let n_servers = model.owners.servers;
        let n_workers = comm.size() - n_servers;
        let dim = model.ent.dim();
        // Pull phase.
        for w in 0..n_workers {
            let worker_rank = n_servers + w;
            for _ in 0..2 {
                let msg = comm.recv_bytes_from(worker_rank).expect("pull request");
                let (tag, ids) = decode_ids(&msg.payload);
                let table = if tag == TAG_ENTITY { &model.ent } else { &model.rel };
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
        self.adam.step_lazy(&mut self.ent_adam, &mut model.ent, &self.ent_agg, lr_scale);
        self.adam.step_lazy(&mut self.rel_adam, &mut model.rel, &self.rel_agg, lr_scale);
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
        for t in &out.report.trace {
            assert!(t.mean_nonzero_rows > 0.0, "epoch {}: no rows pulled", t.epoch);
            assert!(t.mean_rows_sent > 0.0, "epoch {}: no rows sent", t.epoch);
        }
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
