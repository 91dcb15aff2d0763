//! Per-layer metrics of the traced run.
//!
//! Deterministic ones are read off `TrainReport`/`ShardedReport`. Host
//! ones come from probes: the workload's own batches, rows and queries
//! replayed through the named public function of one layer, timed on the
//! `ref` clock exactly as the end-to-end phases are. A probe measures the
//! function alone, so the probes' sum is held against the CPU time of
//! `train()` and what they do not explain is reported as
//! `kge-train.unattributed_share`.

use kge_compress::row_select::select_rows;
use kge_compress::{QuantScheme, RowDecoder, RowEncoder, RowSelector};
use kge_core::loss::{logistic_loss, logistic_loss_grad};
use kge_core::{Adam, AdamState, BlockScratch, ReplaceDir, SparseGrad};
use kge_data::batch::{batches_per_epoch, EpochShuffler};
use kge_data::Triple;
use kge_eval::{evaluate_ranking_with, RankingOptions, RankingWorkspace, TransposedTable};
use kge_partition::HotSetStats;
use kge_train::exchange::{exchange_allgather_into, exchange_allreduce, wire_format, GatherBufs};
use kge_train::neg::{sample_negatives_into, NegScratch};
use kge_train::{BatchWorkspace, CommMode, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simgrid::{Cluster, ClusterSpec, NodeCtx};

use crate::clock::{Segment, REF_NOMINAL_S};
use crate::scenario::{traced, Evaluating, Inputs, Run, Scenario, SetupTimes, Trained};
use crate::serve::{replay_once, OpenLoop, Serving, WINDOW};
use crate::stats::{iqr_share, median_of};
use crate::workloads::RANKS;

/// Calls per probe segment (a reference sample between each).
const CALLS: usize = 4;
/// Batch gradients kept for the compress/optimizer/exchange probes.
const KEPT_GRADS: usize = 8;
/// Collective rounds inside one `Cluster::run` of the exchange probes.
const ROUNDS: usize = 8;

/// One probe: `segments` segments of `CALLS` calls of `f(call_index)`,
/// each call a span; returns the `ref` seconds of every segment.
fn probe(
    run: &mut Run,
    name: &'static str,
    unit_count: (&'static str, u64),
    mut f: impl FnMut(usize),
) -> Vec<f64> {
    (0..run.plan.probe_segments)
        .map(|s| {
            let mut t = Segment::start(&mut run.rc, 1);
            for c in 0..CALLS {
                traced(&mut run.rec, &mut t, name, &[unit_count], || {
                    f(s * CALLS + c)
                });
                t.reference(&mut run.rc, 1);
            }
            run.close(&t);
            t.ref_s()
        })
        .collect()
}

/// Rates per segment: `units` per call, `CALLS` calls per segment.
fn rate(units_per_call: f64, seg_s: &[f64]) -> Vec<f64> {
    seg_s
        .iter()
        .map(|s| CALLS as f64 * units_per_call / s)
        .collect()
}

/// Median `ref` seconds of one call.
fn per_call_s(seg_s: &[f64]) -> f64 {
    median_of(seg_s) / CALLS as f64
}

/// Measure every per-layer metric after the scenario `sc` has run.
pub fn measure(run: &mut Run, sc: &mut Scenario, jiffies0: Option<(u64, u64)>) {
    from_reports(run, &sc.trained);
    from_setup(run, &sc.inputs, &sc.setup);
    train_layers(run, &sc.inputs, &sc.trained);
    eval_layers(run, &sc.inputs, &sc.trained, &sc.evaluating);
    serve_layers(run, &sc.trained, &mut sc.serving, &sc.open_loop);
    host_record(run, &sc.trained, jiffies0);
}

/// simgrid's clock and counters, and the trainer's own tallies: all
/// deterministic, read from the report of the repeated `train()`.
fn from_reports(run: &mut Run, trained: &Trained) {
    let r = &trained.outcome.report;
    let epochs = r.epochs as f64;
    let b = &r.breakdown;
    let m = &mut run.metrics;
    m.set("simgrid.compute_s", b.compute_s / epochs);
    m.set("simgrid.comm_s", b.comm_s / epochs);
    m.set("simgrid.idle_s", b.idle_s / epochs);
    m.set("simgrid.hidden_comm_s", b.hidden_comm_s / epochs);
    m.set("simgrid.checkpoint_s", b.checkpoint_s / epochs);
    m.set(
        "simgrid.wire_bytes_per_epoch",
        r.wire_bytes_sent as f64 / epochs,
    );
    m.set(
        "simgrid.wire_conserved",
        f64::from(u8::from(r.wire_bytes_sent == r.wire_bytes_recv)),
    );
    let mean = |f: fn(&kge_train::EpochTrace) -> f64| r.trace.iter().map(f).sum::<f64>() / epochs;
    m.set("kge-train.mean_rows_sent", mean(|e| e.mean_rows_sent));
    m.set("kge-train.rs_sparsity", mean(|e| e.rs_sparsity));
    m.set("kge-train.allreduce_epochs", r.allreduce_epochs as f64);
    m.set("kge-train.allgather_epochs", r.allgather_epochs as f64);
    m.set("kge-train.pipelined_epochs", r.pipelined_epochs as f64);
    let sh = r.sharded.unwrap_or_default();
    // With the prefetch ring on, the report's push lane counts only the
    // visible part of a deferred settlement, so a share is taken against
    // whichever of lane and hidden seconds is larger.
    let share = |hidden: f64, lane: f64| {
        if hidden > 0.0 {
            hidden / lane.max(hidden)
        } else {
            0.0
        }
    };
    m.set(
        "kge-train.pull_wire_bytes_per_epoch",
        sh.pull_wire_bytes as f64 / epochs,
    );
    m.set(
        "kge-train.push_wire_bytes_per_epoch",
        sh.push_wire_bytes as f64 / epochs,
    );
    m.set("kge-train.hot_hit_rate", sh.hit_rate());
    m.set("kge-train.resident_fraction", sh.resident_fraction());
    m.set("kge-train.pull_lane_s", sh.pull_lane_s / epochs);
    m.set("kge-train.push_lane_s", sh.push_lane_s / epochs);
    m.set(
        "kge-train.hidden_pull_share",
        share(sh.hidden_pull_s, sh.pull_lane_s),
    );
    m.set(
        "kge-train.hidden_push_share",
        share(sh.hidden_push_s, sh.push_lane_s),
    );
}

/// kge-data and kge-partition: the set-up calls, already timed one by one.
fn from_setup(run: &mut Run, inputs: &Inputs, setup: &SetupTimes) {
    let n_triples = (inputs.ds.train.len() + inputs.ds.valid.len() + inputs.ds.test.len()) as f64;
    let synth: Vec<f64> = setup.generate.iter().map(|s| n_triples / s).collect();
    let m = &mut run.metrics;
    m.set_median("kge-data.synth_triples_per_s", &synth);
    m.set_median("kge-data.filter_build_s", &setup.filter);
    m.set_median("kge-partition.partition_s", &setup.partition);
    m.set_median("kge-partition.ownership_s", &setup.ownership);
    m.set(
        "kge-partition.imbalance",
        inputs.partition.stats().imbalance(),
    );
    m.set(
        "kge-partition.hot_set_coverage",
        HotSetStats::measure(&inputs.degrees, &inputs.hot).coverage,
    );
    // The owner map is part of what set-up built; it must cover every row.
    let owners_ok = inputs.owners.len() == inputs.ds.n_entities
        && inputs.owners.iter().all(|&o| (o as usize) < RANKS);
    run.check(owners_ok, || {
        "entity_owners left a row without a rank".into()
    });
}

/// What the train probes share: rank 0's shard in epoch-0 order and a few
/// real batch gradients.
struct TrainProbe {
    shard: Vec<Triple>,
    n_batches: usize,
    ent_grads: Vec<SparseGrad>,
    rel_grads: Vec<SparseGrad>,
}

fn train_layers(run: &mut Run, inputs: &Inputs, trained: &Trained) {
    let cfg = &trained.cfg;
    let model = trained.model.as_ref();
    let (ent, rel) = (&trained.outcome.entities, &trained.outcome.relations);
    let dim = ent.dim();
    let neg = cfg.strategy.neg;
    let examples_per_pos = (1 + neg.train) as f64;

    // kge-data.shuffle_s_per_epoch: every rank reshuffles its shard.
    let shuffler = EpochShuffler::new(cfg.seed);
    let mut shards = inputs.partition.shards.clone();
    let shuffle_s = probe(
        run,
        "kge-data.epoch_shuffle",
        ("triples", inputs.ds.train.len() as u64),
        |i| {
            for shard in &mut shards {
                shuffler.shuffle(shard, i as u64);
            }
        },
    );
    let shuffle_per_epoch = per_call_s(&shuffle_s);
    run.metrics
        .set("kge-data.shuffle_s_per_epoch", shuffle_per_epoch);

    let shard = shards.swap_remove(0);
    let n_batches = batches_per_epoch(
        inputs
            .partition
            .shards
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0),
        cfg.batch_size,
    );
    let bs = cfg.batch_size.min(shard.len());
    let mut tp = TrainProbe {
        shard,
        n_batches,
        ent_grads: Vec::new(),
        rel_grads: Vec::new(),
    };

    // kge-train.batch_gradients_examples_per_s: the trainer's own batch
    // hot path (sample, stage, fused kernel, merge).
    let mut ws = BatchWorkspace::new(dim);
    let batch_s = probe(
        run,
        "kge-train.batch_gradients_into",
        ("examples", (bs as f64 * examples_per_pos) as u64),
        |i| {
            let b = i % tp.n_batches;
            ws.batch_gradients_into(
                model,
                ent,
                rel,
                &tp.shard,
                b,
                cfg,
                &inputs.filter,
                None,
                0,
                0,
            );
            if tp.ent_grads.len() < KEPT_GRADS {
                tp.ent_grads.push(ws.ent_grad().clone());
                tp.rel_grads.push(ws.rel_grad().clone());
            }
        },
    );
    run.metrics.set_median(
        "kge-train.batch_gradients_examples_per_s",
        &rate(bs as f64 * examples_per_pos, &batch_s),
    );

    // kge-train.neg_sample_examples_per_s: candidates drawn (and, with
    // selection, scored) for one batch of positives.
    let mut scratch = NegScratch::default();
    let mut negs: Vec<Triple> = Vec::new();
    let neg_s = probe(
        run,
        "kge-train.sample_negatives_into",
        ("examples", (bs * neg.pool) as u64),
        |i| {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ i as u64);
            let start = (i % tp.n_batches) * cfg.batch_size;
            for p in 0..bs {
                negs.clear();
                let pos = tp.shard[(start + p) % tp.shard.len()];
                sample_negatives_into(
                    neg,
                    pos,
                    model,
                    ent,
                    rel,
                    &inputs.filter,
                    None,
                    ent.rows(),
                    &mut rng,
                    &mut scratch,
                    &mut negs,
                );
            }
        },
    );
    run.metrics.set_median(
        "kge-train.neg_sample_examples_per_s",
        &rate((bs * neg.pool) as f64, &neg_s),
    );

    // kge-core.score_grad_examples_per_s: the fused kernel alone, on one
    // staged chunk (256 positives and their negatives), as the trainer
    // calls it.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut triples: Vec<(u32, u32, u32)> = Vec::new();
    let mut labels: Vec<f32> = Vec::new();
    for pos in tp.shard.iter().take(256) {
        triples.push((pos.head, pos.rel, pos.tail));
        labels.push(1.0);
        negs.clear();
        sample_negatives_into(
            neg,
            *pos,
            model,
            ent,
            rel,
            &inputs.filter,
            None,
            ent.rows(),
            &mut rng,
            &mut scratch,
            &mut negs,
        );
        for n in &negs {
            triples.push((n.head, n.rel, n.tail));
            labels.push(-1.0);
        }
    }
    let inv_batch = 1.0 / (bs as f32 * examples_per_pos as f32);
    let l2_reg = 2.0 * cfg.l2 * inv_batch;
    let mut block = BlockScratch::default();
    let (mut ent_g, mut rel_g) = (SparseGrad::new(dim), SparseGrad::new(dim));
    let mut loss = 0.0f64;
    let kernel_s = probe(
        run,
        "kge-core.score_grad_block",
        ("examples", triples.len() as u64),
        |_| {
            ent_g.clear();
            rel_g.clear();
            let mut coeff_of = |i: usize, score: f32| {
                loss += f64::from(logistic_loss(labels[i], score));
                logistic_loss_grad(labels[i], score) * inv_batch
            };
            model.score_grad_block(
                ent,
                rel,
                &triples,
                l2_reg,
                &mut block,
                &mut coeff_of,
                &mut ent_g,
                &mut rel_g,
            );
        },
    );
    run.check(loss.is_finite(), || {
        "score_grad_block produced a non-finite loss".into()
    });
    let m = &mut run.metrics;
    m.set_median(
        "kge-core.score_grad_examples_per_s",
        &rate(triples.len() as f64, &kernel_s),
    );
    // From shapes: forward + backward as the trainer charges them, and
    // three gathered rows read plus three gradient rows read-modify-
    // written, per example.
    m.set(
        "kge-core.score_grad_flops_per_example",
        model.score_flops() * 3.0,
    );
    m.set(
        "kge-core.score_grad_bytes_per_example",
        (9 * dim * 4) as f64,
    );
    m.set(
        "kge-core.avx_dispatch",
        f64::from(u8::from(kge_core::simd::use_avx()) + u8::from(kge_core::simd::use_avx2())),
    );

    let optim_s = optimizer_layers(run, trained, &tp);
    let compress_s = compress_layers(run, trained, &mut tp);
    let exchange_s = exchange_layers(run, trained, &tp);

    // What the probes explain of one epoch of `train()`, all ranks.
    let per_batch_rank = per_call_s(&batch_s) + optim_s + compress_s;
    let attributed =
        shuffle_per_epoch + tp.n_batches as f64 * (RANKS as f64 * per_batch_rank + exchange_s);
    let cpu_per_epoch = median_of(&trained.ref_s) / cfg.max_epochs as f64;
    run.metrics.set("kge-train.cpu_s_per_epoch", cpu_per_epoch);
    run.metrics.set(
        "kge-train.unattributed_share",
        1.0 - attributed / cpu_per_epoch,
    );
}

/// Does the workload exchange dense gradients (all-reduce, then dense
/// Adam)? Every other communication mode gathers sparse rows and steps
/// lazily.
fn dense_path(cfg: &TrainConfig) -> bool {
    matches!(
        cfg.strategy.comm,
        CommMode::AllReduce | CommMode::PipelinedAllReduce { .. }
    )
}

/// kge-core optimizer steps on the workload's own gradients. Returns the
/// `ref` seconds per batch of the step the workload's update path takes.
fn optimizer_layers(run: &mut Run, trained: &Trained, tp: &TrainProbe) -> f64 {
    let cfg = &trained.cfg;
    let adam = Adam {
        lr: cfg.base_lr,
        ..Adam::default()
    };
    let (ent, rel) = (&trained.outcome.entities, &trained.outcome.relations);
    let mut table = ent.clone();
    let mut rel_table = rel.clone();
    let mut state = AdamState::new(ent.rows(), ent.dim());
    let mut rel_state = AdamState::new(rel.rows(), rel.dim());
    let dense: Vec<Vec<f32>> = tp
        .ent_grads
        .iter()
        .map(|g| g.to_dense(ent.rows()))
        .collect();
    let rel_dense: Vec<Vec<f32>> = tp
        .rel_grads
        .iter()
        .map(|g| g.to_dense(rel.rows()))
        .collect();
    let n = dense.len();
    let dense_s = probe(
        run,
        "kge-core.adam_step_dense",
        ("rows", (ent.rows() + rel.rows()) as u64),
        |i| {
            adam.step_dense(&mut state, &mut table, &dense[i % n], 1.0);
            adam.step_dense(&mut rel_state, &mut rel_table, &rel_dense[i % n], 1.0);
        },
    );
    let rows: usize = (0..CALLS)
        .map(|i| tp.ent_grads[i % n].nnz() + tp.rel_grads[i % n].nnz())
        .sum();
    let lazy_s = probe(
        run,
        "kge-core.adam_step_lazy",
        ("rows", (rows / CALLS) as u64),
        |i| {
            adam.step_lazy(&mut state, &mut table, &tp.ent_grads[i % n], 1.0);
            adam.step_lazy(&mut rel_state, &mut rel_table, &tp.rel_grads[i % n], 1.0);
        },
    );
    run.check(table.as_slice().iter().all(|v| v.is_finite()), || {
        "optimizer probe left a non-finite parameter".into()
    });
    let (dense_step_s, lazy_step_s) = (per_call_s(&dense_s), per_call_s(&lazy_s));
    run.metrics
        .set("kge-core.optim_dense_s_per_step", dense_step_s);
    let lazy_rates: Vec<f64> = lazy_s.iter().map(|s| rows as f64 / s).collect();
    run.metrics
        .set_median("kge-core.optim_lazy_rows_per_s", &lazy_rates);
    if dense_path(cfg) {
        dense_step_s
    } else {
        lazy_step_s
    }
}

/// kge-compress on the workload's own gradients: row selection, then the
/// workload's wire codec. Returns the `ref` seconds per batch these cost
/// on the path the workload takes (0 where it does not compress).
fn compress_layers(run: &mut Run, trained: &Trained, tp: &mut TrainProbe) -> f64 {
    let cfg = &trained.cfg;
    let dim = trained.outcome.entities.dim();
    let n = tp.ent_grads.len();

    // Selection edits the gradient in place: each call gets a fresh copy,
    // cloned outside the timed closure by rotating through spares.
    let mut spares: Vec<SparseGrad> = (0..run.plan.probe_segments * CALLS)
        .map(|i| tp.ent_grads[i % n].clone())
        .collect();
    let (mut before, mut after) = (0usize, 0usize);
    let select_s = probe(
        run,
        "kge-compress.select_rows",
        ("rows", tp.ent_grads[0].nnz() as u64),
        |i| {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ i as u64);
            let sel = select_rows(RowSelector::paper_rs(), &mut spares[i], &mut rng);
            before += sel.rows_before;
            after += sel.rows_after;
        },
    );
    let rows_per_segment = before as f64 / run.plan.probe_segments as f64;
    let select_rates: Vec<f64> = select_s.iter().map(|s| rows_per_segment / s).collect();
    run.metrics
        .set_median("kge-compress.select_rows_per_s", &select_rates);
    run.metrics.set(
        "kge-compress.kept_share",
        after as f64 / before.max(1) as f64,
    );

    // The codec runs on what selection kept when the workload selects.
    let selects = cfg.strategy.row_select != RowSelector::None;
    let mut grads: Vec<SparseGrad> = if selects {
        spares.truncate(n);
        spares
    } else {
        tp.ent_grads.clone()
    };
    for g in &mut grads {
        g.ensure_sorted();
    }
    let scheme = cfg.strategy.quant;
    let format = wire_format(scheme);
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); n];
    let mean_rows = grads.iter().map(SparseGrad::nnz).sum::<usize>() as f64 / n as f64;
    let raw_mb = mean_rows * dim as f64 * 4.0 / 1e6;
    let encode_s = probe(
        run,
        "kge-compress.row_encoder",
        ("rows", mean_rows as u64),
        |i| {
            let g = &grads[i % n];
            let mut enc = RowEncoder::new(format, dim, &mut bufs[i % n]);
            for (row, v) in g.iter_sorted() {
                match scheme {
                    QuantScheme::OneBit { rule } => {
                        enc.push_one_bit(row, v, rule)
                            .expect("row of the table's width");
                    }
                    _ => enc.push_f32(row, v).expect("row of the table's width"),
                }
            }
            enc.finish();
        },
    );
    let mut agg = SparseGrad::new(dim);
    let mut decoded = 0usize;
    let decode_s = probe(
        run,
        "kge-compress.row_decoder",
        ("rows", mean_rows as u64),
        |i| {
            agg.clear();
            let mut dec = RowDecoder::new(&bufs[i % n]).expect("payload encoded above");
            while let Some(r) = dec.next_row() {
                let r = r.expect("payload encoded above");
                r.add_into(agg.row_mut(r.row));
                decoded += 1;
            }
        },
    );
    let want: usize = (0..run.plan.probe_segments * CALLS)
        .map(|i| grads[i % n].nnz())
        .sum();
    run.check(decoded == want, || {
        format!("decoder returned {decoded} rows, encoder wrote {want}")
    });
    let wire_bytes = bufs.iter().map(Vec::len).sum::<usize>() as f64 / n as f64;
    let m = &mut run.metrics;
    m.set_median("kge-compress.encode_mb_per_s", &rate(raw_mb, &encode_s));
    m.set_median("kge-compress.decode_mb_per_s", &rate(raw_mb, &decode_s));
    m.set(
        "kge-compress.wire_bytes_per_row",
        wire_bytes / mean_rows.max(1.0),
    );
    if selects {
        tp.ent_grads = grads;
    }
    let on_path = |yes: bool, s: &[f64]| if yes { per_call_s(s) } else { 0.0 };
    let gathers = !dense_path(cfg);
    // A rank decodes every rank's payload.
    on_path(selects, &select_s)
        + on_path(gathers, &encode_s)
        + RANKS as f64 * on_path(gathers, &decode_s)
}

/// One `Cluster::run` of `ROUNDS` rounds of `body` on every rank, timed as
/// one call on the process clock (it covers both rank threads).
fn cluster_probe(
    run: &mut Run,
    name: &'static str,
    unit_count: (&'static str, u64),
    body: impl Fn(&mut NodeCtx, usize) + Sync,
) -> Vec<f64> {
    let cluster = Cluster::new(RANKS, ClusterSpec::cray_xc40());
    (0..run.plan.probe_segments)
        .map(|_| {
            let mut t = Segment::start(&mut run.rc, 2);
            traced(&mut run.rec, &mut t, name, &[unit_count], || {
                cluster.run(|ctx| {
                    for round in 0..ROUNDS {
                        body(ctx, round);
                    }
                });
            });
            t.reference(&mut run.rc, 2);
            run.close(&t);
            t.ref_s() / ROUNDS as f64
        })
        .collect()
}

/// simgrid's collectives on the workload's payload sizes, and the
/// trainer's exchange on its real gradients. Returns the `ref` seconds
/// per batch (all ranks) of the workload's exchange.
fn exchange_layers(run: &mut Run, trained: &Trained, tp: &TrainProbe) -> f64 {
    let cfg = &trained.cfg;
    let (ent, rel) = (&trained.outcome.entities, &trained.outcome.relations);
    let dim = ent.dim();
    let dense_len = ent.as_slice().len() + rel.as_slice().len();
    let n = tp.ent_grads.len();
    let format = wire_format(cfg.strategy.quant);
    let payload_bytes = format.payload_bytes(dim, tp.ent_grads[0].nnz());

    let round_s = cluster_probe(
        run,
        "simgrid.allreduce_sum_f32",
        ("bytes", (dense_len * 4) as u64),
        |ctx, _| {
            let mut buf = vec![1.0f32; dense_len];
            ctx.comm_mut()
                .allreduce_sum_f32(&mut buf)
                .expect("no faults planned");
        },
    );
    let mbps = |bytes: usize, s: &[f64]| -> Vec<f64> {
        s.iter().map(|s| bytes as f64 / 1e6 / s).collect()
    };
    run.metrics.set_median(
        "simgrid.allreduce_host_mb_per_s",
        &mbps(dense_len * 4, &round_s),
    );

    let round_s = cluster_probe(
        run,
        "simgrid.allgatherv_bytes_into",
        ("bytes", payload_bytes as u64),
        |ctx, _| {
            let send = vec![7u8; payload_bytes];
            let (mut recv, mut counts) = (Vec::new(), Vec::new());
            ctx.comm_mut()
                .allgatherv_bytes_into(&send, &mut recv, &mut counts)
                .expect("no faults planned");
        },
    );
    run.metrics.set_median(
        "simgrid.allgatherv_host_mb_per_s",
        &mbps(payload_bytes, &round_s),
    );

    // Ping-pong of one pulled block: 64 rows out, 64 rows back.
    let msg = vec![3u8; 64 * dim * 4];
    let round_s = cluster_probe(run, "simgrid.send_recv_bytes", ("messages", 2), |ctx, _| {
        let peer = 1 - ctx.rank();
        if ctx.rank() == 0 {
            ctx.comm_mut()
                .send_bytes(peer, &msg)
                .expect("no faults planned");
            ctx.comm_mut()
                .recv_bytes_from(peer)
                .expect("no faults planned");
        } else {
            ctx.comm_mut()
                .recv_bytes_from(peer)
                .expect("no faults planned");
            ctx.comm_mut()
                .send_bytes(peer, &msg)
                .expect("no faults planned");
        }
    });
    let msgs: Vec<f64> = round_s.iter().map(|s| 2.0 / s).collect();
    run.metrics.set_median("simgrid.p2p_host_msgs_per_s", &msgs);

    // kge-train's exchange as the workload's communication path runs it.
    let dense_path = dense_path(cfg);
    let scheme = cfg.strategy.quant;
    let exchange_s = if dense_path {
        cluster_probe(
            run,
            "kge-train.exchange_allreduce",
            ("bytes", (dense_len * 4) as u64),
            |ctx, round| {
                let mut dense_ent = vec![0.0f32; ent.as_slice().len()];
                let mut dense_rel = vec![0.0f32; rel.as_slice().len()];
                exchange_allreduce(ctx.comm_mut(), &tp.ent_grads[round % n], &mut dense_ent)
                    .expect("no faults planned");
                exchange_allreduce(ctx.comm_mut(), &tp.rel_grads[round % n], &mut dense_rel)
                    .expect("no faults planned");
            },
        )
    } else {
        cluster_probe(
            run,
            "kge-train.exchange_allgather_into",
            ("bytes", payload_bytes as u64),
            |ctx, round| {
                let mut rng = StdRng::seed_from_u64(cfg.seed);
                let mut bufs = GatherBufs::new();
                let mut agg = SparseGrad::new(dim);
                exchange_allgather_into(
                    ctx.comm_mut(),
                    &tp.ent_grads[round % n],
                    dim,
                    scheme,
                    None,
                    &mut rng,
                    &mut bufs,
                    &mut agg,
                )
                .expect("no faults planned");
            },
        )
    };
    let per_batch = median_of(&exchange_s);
    run.metrics
        .set("kge-train.exchange_host_s_per_batch", per_batch);
    // The gather exchange encodes and decodes inside itself; the codec
    // probes already count those, so only the dense path adds here.
    if dense_path {
        per_batch
    } else {
        0.0
    }
}

/// kge-eval and the kernel under it.
fn eval_layers(run: &mut Run, inputs: &Inputs, trained: &Trained, evaluated: &Evaluating) {
    let model = trained.model.as_ref();
    let (ent, rel) = (&trained.outcome.entities, &trained.outcome.relations);
    run.metrics
        .set_median("kge-eval.queries_per_s", &evaluated.queries_per_s);

    let n = run.w.eval_triples.min(inputs.ds.test.len());
    let opts = RankingOptions {
        filtered: false,
        max_queries: Some(n),
        seed: 0,
    };
    let candidates = (2 * n * ent.rows()) as u64;
    let mut ws = RankingWorkspace::new();
    evaluate_ranking_with(
        &mut ws,
        model,
        ent,
        rel,
        &inputs.ds.test,
        &inputs.grouped,
        &opts,
    );
    let raw_s = probe(
        run,
        "kge-eval.evaluate_ranking_with_raw",
        ("candidates", candidates),
        |_| {
            evaluate_ranking_with(
                &mut ws,
                model,
                ent,
                rel,
                &inputs.ds.test,
                &inputs.grouped,
                &opts,
            );
        },
    );
    run.attempted += (run.plan.probe_segments * CALLS * 2 * n) as u64;
    run.metrics.set_median(
        "kge-eval.unfiltered_candidates_per_s",
        &rate(candidates as f64, &raw_s),
    );

    let mut ent_t = TransposedTable::new();
    let build_s = probe(
        run,
        "kge-eval.transposed_build_into",
        ("rows", ent.rows() as u64),
        |_| {
            ent_t.build_into(ent);
        },
    );
    let build_ms = per_call_s(&build_s) * 1e3;
    run.metrics.set("kge-eval.transpose_build_ms", build_ms);

    // kge-core.one_vs_all_candidates_per_s: the transposed kernel swept
    // over every tile for 16 queries, as eval and serve both drive it.
    let queries: Vec<Triple> = inputs.ds.test.iter().take(16).copied().collect();
    let mut scores = vec![0.0f32; ent_t.tile_rows()];
    let mut checksum = 0.0f64;
    let swept = (queries.len() * ent.rows()) as u64;
    let ova_s = probe(
        run,
        "kge-core.score_one_vs_all_transposed",
        ("candidates", swept),
        |_| {
            let mut e0 = 0;
            while e0 < ent.rows() {
                let (tile, rows) = ent_t.tile(e0);
                for q in &queries {
                    model.score_one_vs_all_transposed(
                        ent.row(q.head as usize),
                        rel.row(q.rel as usize),
                        tile,
                        rows,
                        ReplaceDir::Tail,
                        &mut scores[..rows],
                    );
                    checksum += f64::from(scores[0]);
                }
                e0 += rows;
            }
        },
    );
    run.check(checksum.is_finite(), || {
        "one-vs-all kernel produced a non-finite score".into()
    });
    run.metrics.set_median(
        "kge-core.one_vs_all_candidates_per_s",
        &rate(swept as f64, &ova_s),
    );
}

/// kge-serve: publish, drains by batch size, and the open loop at the
/// two other rates.
fn serve_layers(run: &mut Run, trained: &Trained, sv: &mut Serving, mid: &OpenLoop) {
    for (name, batch) in [
        ("kge-serve.drain_ms_b1", 1usize),
        ("kge-serve.drain_ms_b16", 16),
        ("kge-serve.drain_ms_b256", WINDOW),
    ] {
        let ms: Vec<f64> = (0..run.plan.probe_segments)
            .map(|s| {
                let mut t = Segment::start(&mut run.rc, 1);
                for c in 0..CALLS {
                    let lo = ((s * CALLS + c) * batch) % (sv.queries.len() - batch + 1);
                    sv.drain(run, &mut t, lo..lo + batch);
                    t.reference(&mut run.rc, 1);
                }
                run.close(&t);
                t.ref_s() / CALLS as f64 * 1e3
            })
            .collect();
        run.metrics.set_median(name, &ms);
    }

    let mut lo = OpenLoop::new(run.w.rate_qps * 0.5);
    let mut hi = OpenLoop::new(run.w.rate_qps * 1.5);
    for _ in 0..run.plan.side_replays {
        replay_once(run, sv, trained, &mut lo);
        replay_once(run, sv, trained, &mut hi);
    }
    println!(
        "open loop, rates {} / {} / {} queries per ref second, p99 limit {} ms",
        lo.rate_qps, mid.rate_qps, hi.rate_qps, run.w.p99_limit_ms
    );
    let limit = run.w.p99_limit_ms;
    let within = [&lo, mid, &hi]
        .iter()
        .filter(|o| median_of(&o.p99_ms) <= limit)
        .map(|o| o.rate_qps)
        .fold(0.0, f64::max);
    let publish_ms: Vec<f64> = sv.publish_s.iter().map(|s| s * 1e3).collect();
    let m = &mut run.metrics;
    m.set_median("kge-serve.publish_ms", &publish_ms);
    m.set_median("kge-serve.mean_batch", &mid.mean_batch);
    m.set_median("kge-serve.p90_ms", &mid.p90_ms);
    m.set_median("kge-serve.p99_ms", &mid.p99_ms);
    m.set_median("kge-serve.p50_ms_rate_lo", &lo.p50_ms);
    m.set_median("kge-serve.p50_ms_rate_hi", &hi.p50_ms);
    m.set_median("kge-serve.backlog_growth_ms", &hi.backlog_growth_ms);
    m.set("kge-serve.max_rate_within_limit_qps", within);
    m.set("kge-serve.oracle_mismatches", sv.oracle_mismatches as f64);
}

/// The run's own disturbance record.
fn host_record(run: &mut Run, trained: &Trained, jiffies0: Option<(u64, u64)>) {
    let samples = &run.rc.samples;
    let speed = REF_NOMINAL_S / median_of(samples);
    let spread = iqr_share(samples);
    let steal = match (jiffies0, crate::host::cpu_jiffies()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    };
    let by = |on: bool| -> Vec<f64> {
        trained
            .ref_s
            .iter()
            .zip(&trained.traced)
            .filter(|(_, &t)| t == on)
            .map(|(s, _)| *s)
            .collect()
    };
    let (traced_s, untraced_s) = (by(true), by(false));
    let overhead = if traced_s.is_empty() || untraced_s.is_empty() {
        0.0
    } else {
        median_of(&traced_s) / median_of(&untraced_s) - 1.0
    };
    let m = &mut run.metrics;
    m.set("host.ref_speed_median", speed);
    m.set("host.ref_speed_spread", spread);
    m.set("host.wall_over_cpu", run.timed_wall_s / run.timed_cpu_s);
    m.set("host.steal_share", steal);
    m.set("host.trace_overhead_share", overhead);
}
