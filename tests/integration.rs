//! Cross-crate integration tests: end-to-end training on the simulated
//! cluster, evaluated with the full metric pipeline, exercising every
//! strategy of the paper through the public `kge` API.

use kge::compress::{QuantScheme, RowSelector};
use kge::core::simd::{set_level, Level};
use kge::prelude::*;

/// `f`'s result at every dispatch level this host has, lowest first. Tests
/// run on parallel threads, so the process-global level is held under a
/// lock while `f` runs, and detection is re-armed afterwards.
fn at_each_level<T>(mut f: impl FnMut(Level) -> T) -> Vec<T> {
    static PIN: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _pin = PIN.lock().unwrap_or_else(|e| e.into_inner());
    let out = Level::detected()
        .iter()
        .map(|&level| {
            set_level(Some(level));
            f(level)
        })
        .collect();
    set_level(None);
    out
}

fn dataset(seed: u64) -> Dataset {
    kge::data::synth::generate(&SynthPreset::Fb15kLike.config(0.015, seed))
}

fn quick(strategy: StrategyConfig, seed: u64) -> TrainConfig {
    let mut c = TrainConfig::new(8, 128, strategy);
    c.plateau_tolerance = 4;
    c.max_lr_drops = 1;
    c.max_epochs = 25;
    c.valid_samples = 128;
    c.seed = seed;
    // Bench-scale datasets have few optimizer steps per epoch; a larger
    // base rate reaches the paper's operating point (see EXPERIMENTS.md).
    c.base_lr = 5e-3;
    c
}

fn mrr_of(outcome: &TrainOutcome, ds: &Dataset, rank: usize) -> f64 {
    let model = ComplEx::new(rank);
    let filter = FilterIndex::build(ds);
    evaluate_ranking(
        &model,
        &outcome.entities,
        &outcome.relations,
        &ds.test,
        &filter,
        &RankingOptions {
            max_queries: Some(150),
            ..Default::default()
        },
    )
    .mrr
}

#[test]
fn training_beats_random_embeddings_on_mrr() {
    let ds = dataset(1);
    let cluster = Cluster::new(2, ClusterSpec::cray_xc40());
    let mut config = quick(StrategyConfig::baseline_allreduce(4), 1);
    config.max_epochs = 70;
    config.plateau_tolerance = 70; // use the full budget
    let outcome = train(&ds, &cluster, &config);
    let trained = mrr_of(&outcome, &ds, 8);

    // Random baseline: untouched Xavier tables.
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let random = TrainOutcome {
        report: outcome.report.clone(),
        entities: EmbeddingTable::xavier(ds.n_entities, 16, &mut rng),
        relations: EmbeddingTable::xavier(ds.n_relations, 16, &mut rng),
    };
    let untrained = mrr_of(&random, &ds, 8);
    assert!(
        trained > 2.0 * untrained,
        "trained MRR {trained} must beat random {untrained}"
    );
}

#[test]
fn all_five_strategies_compose_and_converge() {
    let ds = dataset(2);
    let cluster = Cluster::new(4, ClusterSpec::cray_xc40());
    let outcome = train(&ds, &cluster, &quick(StrategyConfig::combined(5), 2));
    assert!(outcome.report.epochs > 0);
    let last = outcome.report.trace.last().unwrap();
    assert!(last.train_loss.is_finite() && last.train_loss > 0.0);
    assert!(last.rs_sparsity > 0.0, "RS must drop rows");
    // Entities and relations must have moved from init.
    assert!(outcome.entities.sq_norm() > 0.0);
}

#[test]
fn combined_strategy_cuts_simulated_time_vs_baseline() {
    // The paper's headline: the combination beats the baseline TT at a
    // fixed node count. The dynamic selector's first all-gather probe is
    // at epoch 10 (paper k=10), so the run must be long enough for the
    // switch to pay off; compare per-epoch simulated cost and bytes
    // against all-reduce, the stronger baseline at 8 nodes.
    let ds = kge::data::synth::generate(&SynthPreset::Fb250kLike.config(0.005, 3));
    let cluster = Cluster::new(8, ClusterSpec::cray_xc40());
    let mut base_cfg = quick(StrategyConfig::baseline_allreduce(1), 12);
    base_cfg.max_epochs = 24;
    base_cfg.plateau_tolerance = 25; // force the full epoch budget
    let mut comb_cfg = quick(StrategyConfig::combined(5), 3);
    comb_cfg.max_epochs = 24;
    comb_cfg.plateau_tolerance = 25;

    let base = train(&ds, &cluster, &base_cfg);
    let comb = train(&ds, &cluster, &comb_cfg);
    assert_eq!(base.report.epochs, comb.report.epochs);
    assert!(
        comb.report.sim_total_seconds < base.report.sim_total_seconds,
        "combined {}s must undercut baseline {}s",
        comb.report.sim_total_seconds,
        base.report.sim_total_seconds
    );
    let comb_bytes: u64 = comb.report.trace.iter().map(|t| t.bytes_sent).sum();
    let base_bytes: u64 = base.report.trace.iter().map(|t| t.bytes_sent).sum();
    assert!(
        comb_bytes < base_bytes / 2,
        "combined bytes {comb_bytes} vs baseline {base_bytes}"
    );
}

#[test]
fn quantized_gather_beats_f32_gather_on_wire_bytes() {
    let ds = dataset(4);
    let cluster = Cluster::new(2, ClusterSpec::cray_xc40());
    let f32_cfg = quick(StrategyConfig::baseline_allgather(2), 4);
    let mut q_cfg = quick(StrategyConfig::baseline_allgather(2), 4);
    q_cfg.strategy.quant = QuantScheme::paper_one_bit();
    q_cfg.strategy.error_feedback = true;

    let f = train(&ds, &cluster, &f32_cfg);
    let q = train(&ds, &cluster, &q_cfg);
    let fb: u64 = f.report.trace.iter().map(|t| t.bytes_sent).sum::<u64>()
        / f.report.epochs.max(1) as u64;
    let qb: u64 = q.report.trace.iter().map(|t| t.bytes_sent).sum::<u64>()
        / q.report.epochs.max(1) as u64;
    assert!(qb * 3 < fb, "1-bit per-epoch bytes {qb} vs f32 {fb}");
}

#[test]
fn dynamic_selector_switches_to_gather_when_rows_sparsify() {
    // With quantization making the gather path cheap, the dynamic
    // selector should abandon all-reduce at one of its probes.
    let ds = dataset(5);
    let cluster = Cluster::new(4, ClusterSpec::cray_xc40());
    let mut cfg = quick(StrategyConfig::baseline_allreduce(2), 5);
    cfg.strategy.comm = CommMode::Dynamic { check_every: 3 };
    cfg.strategy.row_select = RowSelector::paper_rs();
    cfg.strategy.quant = QuantScheme::paper_one_bit();
    cfg.strategy.error_feedback = true;
    cfg.max_epochs = 15;
    cfg.plateau_tolerance = 15;
    let out = train(&ds, &cluster, &cfg);
    assert!(
        out.report.allgather_epochs > 0,
        "selector never probed/switched: {} AR vs {} AG epochs",
        out.report.allreduce_epochs,
        out.report.allgather_epochs
    );
}

#[test]
fn relation_partition_preserves_model_quality() {
    let ds = dataset(6);
    let cluster = Cluster::new(4, ClusterSpec::cray_xc40());
    let no_rp = train(&ds, &cluster, &quick(StrategyConfig::baseline_allgather(2), 6));
    let mut rp_cfg = quick(StrategyConfig::baseline_allgather(2), 6);
    rp_cfg.strategy.relation_partition = true;
    let rp = train(&ds, &cluster, &rp_cfg);
    let m_no = mrr_of(&no_rp, &ds, 8);
    let m_rp = mrr_of(&rp, &ds, 8);
    // RP changes data placement, not the objective: quality stays in the
    // same ballpark (allow generous slack — tiny dataset, few epochs).
    assert!(
        m_rp > 0.4 * m_no,
        "RP MRR {m_rp} collapsed vs non-RP {m_no}"
    );
}

#[test]
fn dataset_roundtrip_through_tsv_then_train() {
    let ds = dataset(7);
    let dir = std::env::temp_dir().join(format!("kge-int-io-{}", std::process::id()));
    kge::data::io::save_dir(&ds, &dir).unwrap();
    let (loaded, _, _) = kge::data::io::load_dir(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(loaded.train.len(), ds.train.len());
    let cluster = Cluster::new(2, ClusterSpec::cray_xc40());
    let mut cfg = quick(StrategyConfig::baseline_allreduce(1), 12);
    cfg.max_epochs = 3;
    let out = train(&loaded, &cluster, &cfg);
    assert_eq!(out.report.epochs, 3);
}

#[test]
fn simulated_time_grows_with_slower_network() {
    let ds = dataset(8);
    let mut cfg = quick(StrategyConfig::baseline_allreduce(1), 12);
    cfg.max_epochs = 4;
    cfg.plateau_tolerance = 10;
    let fast = train(&ds, &Cluster::new(4, ClusterSpec::cray_xc40()), &cfg);
    let slow = train(&ds, &Cluster::new(4, ClusterSpec::ethernet_10g()), &cfg);
    let ideal = train(&ds, &Cluster::new(4, ClusterSpec::ideal()), &cfg);
    // Numerics identical regardless of the network spec...
    assert_eq!(fast.entities.as_slice(), slow.entities.as_slice());
    assert_eq!(fast.entities.as_slice(), ideal.entities.as_slice());
    // ...but simulated comm time ranks ideal < cray (compute rates differ
    // between specs, so compare the comm component, which is spec-driven).
    assert!(ideal.report.breakdown.comm_s < 1e-12);
    assert!(fast.report.breakdown.comm_s > 0.0);
}

#[test]
fn sample_selection_improves_ranking_quality() {
    // 1-of-5 hardest-negative selection sharpens the ranking (Table 4's
    // MRR story). Hard negatives trade pairwise margin against random
    // corruptions for top-rank precision, so the right metric to compare
    // is MRR, and the dataset must be large enough that "hard" negatives
    // are not mostly unobserved-true pairs.
    let ds = kge::data::synth::generate(&SynthPreset::Fb15kLike.config(0.03, 12));
    let cluster = Cluster::new(2, ClusterSpec::cray_xc40());
    let mut uni = quick(StrategyConfig::baseline_allreduce(1), 12);
    uni.max_epochs = 30;
    uni.plateau_tolerance = 30;
    let mut sel = quick(StrategyConfig::baseline_allreduce(1), 12);
    sel.strategy.neg = NegSampling::select(1, 5);
    sel.max_epochs = 30;
    sel.plateau_tolerance = 30;
    let a = train(&ds, &cluster, &uni);
    let b = train(&ds, &cluster, &sel);
    let mrr_uni = mrr_of(&a, &ds, 8);
    let mrr_sel = mrr_of(&b, &ds, 8);
    assert!(
        mrr_sel >= mrr_uni * 0.9,
        "sample selection collapsed ranking quality: {mrr_sel} vs {mrr_uni}"
    );
}

/// One cell of `kge-core`'s `prop_optim_kernels` suite (which runs in full
/// at every dispatch level from `scripts/check.sh`), so the tier-1 command
/// exercises every copy of the optimizer row kernels: dense and lazy Adam
/// and AdaGrad steps over a table with SIMD tails and more than one dense
/// chunk must give the same bits at every level as at `Scalar`.
#[test]
fn optimizer_kernels_bit_identical_across_dispatch_arms() {
    use kge::core::{Adagrad, AdagradOptimizer, Adam, AdamOptimizer, RowOptimizer, SparseGrad};
    use rand::SeedableRng;
    const ROWS: usize = 150;
    const DIM: usize = 61;
    let mut rng = rand::rngs::StdRng::seed_from_u64(15);
    let init = EmbeddingTable::xavier(ROWS, DIM, &mut rng);
    let dense = EmbeddingTable::xavier(ROWS, DIM, &mut rng);
    let mut sparse = SparseGrad::new(DIM);
    for row in [149u32, 0, 77, 3] {
        sparse.row_mut(row).copy_from_slice(dense.row(row as usize));
    }
    let runs = at_each_level(|_| {
        let opts: [Box<dyn RowOptimizer>; 2] = [
            Box::new(AdamOptimizer::new(Adam::default(), ROWS, DIM)),
            Box::new(AdagradOptimizer::new(Adagrad::default(), ROWS, DIM)),
        ];
        let mut out = Vec::new();
        for mut opt in opts {
            let mut table = init.clone();
            for _ in 0..3 {
                opt.step_dense(&mut table, dense.as_slice(), 1.0);
                opt.step_lazy(&mut table, &sparse, 1.0);
            }
            out.extend(table.as_slice().iter().map(|x| x.to_bits()));
        }
        out
    });
    for (level, got) in Level::detected().iter().zip(&runs) {
        assert_eq!(got, &runs[0], "{level:?} against Scalar");
    }
}

/// One cell of `kge-core`'s `prop_train_kernels` suite (which runs in full
/// at every dispatch level from `scripts/check.sh`), so the tier-1 command
/// exercises the training kernel: on a training-shaped block — positives
/// each followed by negatives that keep the relation and one entity, a
/// self-loop, more than one 16-example group plus a tail — the block kernel
/// gives the bits and the row order of the per-triple definition at every
/// level, for the paper's model (ComplEx) and for one that had no kernel of
/// its own before the generic drivers (RotatE).
#[test]
fn block_kernel_matches_per_triple_path_on_both_dispatch_arms() {
    use kge::core::matrix::axpy;
    use kge::core::{BlockScratch, SparseGrad};
    use rand::SeedableRng;
    const RANK: usize = 13;
    const L2: f32 = 1e-3;
    let mut block: Vec<(u32, u32, u32)> = Vec::new();
    for p in 0..7u32 {
        let (h, r, t) = (p * 5 % 23, p % 3, (p * 7 + 2) % 23);
        block.extend([(h, r, t), ((h + 9) % 23, r, t), (h, r, (t + 4) % 23), (h, r, h), (t, r, t)]);
    }
    let coeff = |i: usize, s: f32| (if i.is_multiple_of(5) { 0.3 } else { -0.1 }) * s - 0.05;
    type Entries = Vec<(u32, Vec<u32>)>;
    let entries = |g: &SparseGrad| -> Entries {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect();
        (0..g.nnz()).map(|i| (g.entry(i).0, bits(g.entry(i).1))).collect()
    };
    for model in [ModelKind::ComplEx, ModelKind::RotatE] {
        let model = model.build(RANK);
        let dim = model.storage_dim();
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        let ent = EmbeddingTable::xavier(23, dim, &mut rng);
        let rel = EmbeddingTable::xavier(3, dim, &mut rng);

        let (mut want_ent, mut want_rel) = (SparseGrad::new(dim), SparseGrad::new(dim));
        for (i, &(h, r, t)) in block.iter().enumerate() {
            let (hrow, rrow, trow) = (ent.row(h as usize), rel.row(r as usize), ent.row(t as usize));
            let c = coeff(i, model.score(hrow, rrow, trow));
            let (mut gh, mut gr, mut gt) = (vec![0.0; dim], vec![0.0; dim], vec![0.0; dim]);
            model.grad(hrow, rrow, trow, c, &mut gh, &mut gr, &mut gt);
            axpy(L2, hrow, &mut gh);
            axpy(L2, rrow, &mut gr);
            axpy(L2, trow, &mut gt);
            axpy(1.0, &gh, want_ent.row_mut(h));
            axpy(1.0, &gt, want_ent.row_mut(t));
            axpy(1.0, &gr, want_rel.row_mut(r));
        }

        at_each_level(|level| {
            let (mut got_ent, mut got_rel) = (SparseGrad::new(dim), SparseGrad::new(dim));
            model.score_grad_block(
                &ent,
                &rel,
                &block,
                L2,
                &mut BlockScratch::new(),
                &mut |i, s| coeff(i, s),
                &mut got_ent,
                &mut got_rel,
            );
            let arm = format!("{} {level:?}", model.name());
            assert_eq!(entries(&got_ent), entries(&want_ent), "entity gradient, {arm}");
            assert_eq!(entries(&got_rel), entries(&want_rel), "relation gradient, {arm}");
        });
    }
}

/// One cell each of `kge-eval`'s `prop_eval` and `kge-serve`'s `prop_topk`
/// suites (both run in full, at every dispatch level, from
/// `scripts/check.sh`), on a model the trainer produced: RotatE — which had
/// no one-vs-all kernel before the generic transposed driver — trained for
/// two epochs on two ranks, then, at every level, (i) the blocked
/// evaluation's filtered ranks equal a ranking by `score` written out here
/// and (ii) served top-k equals a sort by `score`.
#[test]
fn rotate_trains_then_ranks_and_serves_like_scalar_score_on_both_dispatch_arms() {
    let ds = dataset(21);
    let cluster = Cluster::new(2, ClusterSpec::cray_xc40());
    let mut config = quick(StrategyConfig::baseline_allreduce(2), 21);
    config.model = ModelKind::RotatE;
    config.max_epochs = 2;
    let outcome = train(&ds, &cluster, &config);
    assert_eq!(outcome.report.epochs, 2);
    let (ent, rel) = (&outcome.entities, &outcome.relations);
    let model: std::sync::Arc<dyn KgeModel> = std::sync::Arc::new(RotatE::new(8));
    let score = |h: u32, r: u32, t: u32| model.score(ent.row(h as usize), rel.row(r as usize), ent.row(t as usize));

    // (i) 1 + better + ties/2 over every entity that is neither the true one
    // nor a known competitor, head direction then tail direction.
    let filter = FilterIndex::build(&ds);
    let queries = &ds.test[..ds.test.len().min(40)];
    let want_ranks: Vec<[usize; 2]> = queries
        .iter()
        .map(|&q| {
            let truth = score(q.head, q.rel, q.tail);
            [true, false].map(|replace_head| {
                let (mut better, mut ties) = (0, 0);
                for e in 0..ds.n_entities as u32 {
                    let c = if replace_head { q.with_head(e) } else { q.with_tail(e) };
                    if c != q && !filter.contains(c) {
                        let s = score(c.head, c.rel, c.tail);
                        better += usize::from(s > truth);
                        ties += usize::from(s == truth);
                    }
                }
                1 + better + ties / 2
            })
        })
        .collect();
    // (ii) every entity by (score descending, id ascending), first k.
    let served = Query { head: queries[0].head, rel: queries[0].rel, k: 10, filtered: false };
    let mut all: Vec<(u32, f32)> =
        (0..ds.n_entities as u32).map(|e| (e, score(served.head, served.rel, e))).collect();
    all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let want_hits: Vec<(u32, u32)> = all[..served.k].iter().map(|&(e, s)| (e, s.to_bits())).collect();

    let grouped = GroupedFilter::from_index(&filter);
    let snapshot = std::sync::Arc::new(ModelSnapshot::build(model.clone(), ent, rel, 2));
    at_each_level(|level| {
        let mut ws = RankingWorkspace::new();
        evaluate_ranking_with(&mut ws, model.as_ref(), ent, rel, queries, &grouped, &RankingOptions::default());
        let mut engine = ServeEngine::new(snapshot.clone());
        let hits: Vec<(u32, u32)> =
            engine.query_one(served).iter().map(|h| (h.entity, h.score.to_bits())).collect();
        let got_ranks: Vec<[usize; 2]> =
            ws.head_ranks().iter().zip(ws.tail_ranks()).map(|(&h, &t)| [h, t]).collect();
        assert_eq!(ws.queries(), queries, "no subsampling");
        assert_eq!(got_ranks, want_ranks, "filtered ranks, {level:?}");
        assert_eq!(hits, want_hits, "top-k, {level:?}");
    });
}

/// One cell of `kge-eval`'s `prop_eval` suite (which `scripts/check.sh`
/// runs in full at every dispatch level) at the paper's model and a
/// realistic width: ComplEx rank 32 trained for two epochs, so 64-float
/// rows and more than three 16 KB tiles of entities. At every level, the
/// filtered ranks of 60 test triples — units of eight that change
/// relation, known lists corrected tile by tile as the sweep reaches them
/// — equal `rank_of_scalar`'s.
#[test]
fn filtered_ranking_over_several_tiles_matches_scalar_on_both_dispatch_arms() {
    let ds = dataset(22);
    let cluster = Cluster::new(2, ClusterSpec::cray_xc40());
    let mut config = quick(StrategyConfig::baseline_allreduce(2), 22);
    config.rank = 32;
    config.max_epochs = 2;
    let outcome = train(&ds, &cluster, &config);
    assert_eq!(outcome.report.epochs, 2);
    let (ent, rel) = (&outcome.entities, &outcome.relations);
    let model = ComplEx::new(32);
    assert!(
        ds.n_entities > 3 * kge::eval::tile_rows_for(model.storage_dim()),
        "{} entities span fewer than three tiles",
        ds.n_entities
    );

    let filter = FilterIndex::build(&ds);
    let queries = &ds.test[..ds.test.len().min(60)];
    let want: Vec<[usize; 2]> = queries
        .iter()
        .map(|&q| [true, false].map(|head| kge::eval::rank_of_scalar(&model, ent, rel, q, head, Some(&filter))))
        .collect();
    let grouped = GroupedFilter::from_index(&filter);
    at_each_level(|level| {
        let mut ws = RankingWorkspace::new();
        evaluate_ranking_with(&mut ws, &model, ent, rel, queries, &grouped, &RankingOptions::default());
        let got: Vec<[usize; 2]> = ws.head_ranks().iter().zip(ws.tail_ranks()).map(|(&h, &t)| [h, t]).collect();
        assert_eq!(ws.queries(), queries, "no subsampling");
        assert_eq!(got, want, "filtered ranks, {level:?}");
    });
}

/// One cell of `kge-train`'s `prop_neg_selection` suite joined to the
/// kernel's (both run in full, at every dispatch level, from
/// `scripts/check.sh`), so the tier-1 command exercises the combined
/// strategy's gradient path: one `combined(5)` batch — every pool drawn
/// first, all candidates scored in one `score_triples` call, the hardest
/// picked by arg-max, the block kernel's forward through the same kernel —
/// gives the loss, the gradient bits and the row order of the definition
/// written out here: per positive, five `corrupt` draws, `score` per
/// candidate, a stable descending sort; then score, loss and gradient one
/// example at a time.
#[test]
fn combined_batch_matches_per_positive_staging_on_both_dispatch_arms() {
    use kge::core::loss::{logistic_loss, logistic_loss_grad};
    use kge::core::matrix::axpy;
    use kge::core::SparseGrad;
    use kge::train::neg::corrupt;
    use rand::SeedableRng;
    let ds = dataset(17);
    let mut config = TrainConfig::new(13, 200, StrategyConfig::combined(5));
    config.seed = 17;
    let model = config.model.build(config.rank);
    let dim = model.storage_dim();
    let filter = FilterIndex::build(&ds);
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let ent = EmbeddingTable::xavier(ds.n_entities, dim, &mut rng);
    let rel = EmbeddingTable::xavier(ds.n_relations, dim, &mut rng);
    let score = |t: Triple| model.score(ent.row(t.head as usize), rel.row(t.rel as usize), ent.row(t.tail as usize));

    // The chunk's RNG stream: the seed mixed with (rank, epoch, batch,
    // chunk) = (0, 0, 0, 0) through splitmix64, as `chunk_seed` does.
    let mut stream = config.seed;
    for _ in 0..4 {
        let mut x = stream.wrapping_add(0x9E3779B97F4A7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
        stream = x ^ (x >> 31);
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(stream);
    let mut examples: Vec<(Triple, f32)> = Vec::new();
    for &pos in &ds.train[..config.batch_size] {
        examples.push((pos, 1.0));
        let mut scored: Vec<(f32, Triple)> = (0..5)
            .map(|_| corrupt(pos, ds.n_entities, &filter, None, &mut rng))
            .map(|c| (score(c), c))
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        examples.push((scored[0].1, -1.0));
    }
    let inv_batch = 1.0f32 / examples.len() as f32;
    let l2 = 2.0 * config.l2 * inv_batch;
    let (mut want_ent, mut want_rel, mut want_loss) = (SparseGrad::new(dim), SparseGrad::new(dim), 0.0f64);
    for &(t, y) in &examples {
        let (hrow, rrow, trow) = (ent.row(t.head as usize), rel.row(t.rel as usize), ent.row(t.tail as usize));
        let s = score(t);
        want_loss += logistic_loss(y, s) as f64;
        let (mut gh, mut gr, mut gt) = (vec![0.0; dim], vec![0.0; dim], vec![0.0; dim]);
        model.grad(hrow, rrow, trow, logistic_loss_grad(y, s) * inv_batch, &mut gh, &mut gr, &mut gt);
        axpy(l2, hrow, &mut gh);
        axpy(l2, rrow, &mut gr);
        axpy(l2, trow, &mut gt);
        axpy(1.0, &gh, want_ent.row_mut(t.head));
        axpy(1.0, &gt, want_ent.row_mut(t.tail));
        axpy(1.0, &gr, want_rel.row_mut(t.rel));
    }

    type Entries = Vec<(u32, Vec<u32>)>;
    let entries = |g: &SparseGrad| -> Entries {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect();
        (0..g.nnz()).map(|i| (g.entry(i).0, bits(g.entry(i).1))).collect()
    };
    at_each_level(|level| {
        let mut ws = kge::train::BatchWorkspace::new(dim);
        let (loss, n) =
            ws.batch_gradients_into(model.as_ref(), &ent, &rel, &ds.train, 0, &config, &filter, None, 0, 0);
        assert_eq!((loss.to_bits(), n), (want_loss.to_bits(), examples.len()), "{level:?}");
        assert_eq!(entries(ws.ent_grad()), entries(&want_ent), "entity gradient, {level:?}");
        assert_eq!(entries(ws.rel_grad()), entries(&want_rel), "relation gradient, {level:?}");
    });
}

/// One cell of `kge-train`'s `pipeline_determinism` suite (which
/// `scripts/check.sh` runs in full under both dispatch arms), on three
/// ranks so the all-reduce's per-rank slices are uneven: a pipelined mode
/// with an empty staleness window must reproduce its synchronous
/// collective in model bytes, epoch trace and simulated clock, and a
/// one-batch window — the overlapped pricing arm of the same staged
/// collectives — must repeat bit for bit and put the same bytes on the wire.
#[test]
fn pipelined_exchange_matches_synchronous_collectives_on_three_ranks() {
    let ds = dataset(6);
    let run = |comm: CommMode| {
        let mut strategy = StrategyConfig::baseline_allgather(2);
        strategy.comm = comm;
        let mut config = quick(strategy, 6);
        config.max_epochs = 3;
        train(&ds, &Cluster::new(3, ClusterSpec::cray_xc40()), &config)
    };
    let same = |a: &TrainOutcome, b: &TrainOutcome, what: &str| {
        let bits = |t: &EmbeddingTable| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.entities), bits(&b.entities), "{what}: entity rows");
        assert_eq!(bits(&a.relations), bits(&b.relations), "{what}: relation rows");
        assert_eq!(a.report.trace, b.report.trace, "{what}: epoch trace");
        assert_eq!(
            a.report.sim_total_seconds.to_bits(),
            b.report.sim_total_seconds.to_bits(),
            "{what}: simulated clock"
        );
    };
    for (sync, stale0, stale1) in [
        (
            CommMode::AllGather,
            CommMode::Pipelined { staleness: 0 },
            CommMode::Pipelined { staleness: 1 },
        ),
        (
            CommMode::AllReduce,
            CommMode::PipelinedAllReduce { staleness: 0 },
            CommMode::PipelinedAllReduce { staleness: 1 },
        ),
    ] {
        let reference = run(sync);
        same(&reference, &run(stale0), &format!("{stale0:?} vs {sync:?}"));
        let overlapped = run(stale1);
        assert_eq!(overlapped.report.pipelined_epochs, overlapped.report.epochs);
        same(&overlapped, &run(stale1), &format!("{stale1:?} twice"));
        assert_eq!(
            (overlapped.report.wire_bytes_sent, overlapped.report.wire_bytes_recv),
            (reference.report.wire_bytes_sent, reference.report.wire_bytes_recv),
            "{stale1:?}: wire bytes"
        );
        assert!(overlapped.report.breakdown.hidden_comm_s > 0.0, "{stale1:?} hides nothing");
    }
}

/// One cell of `kge-train`'s `sharded_determinism` suite (which
/// `scripts/check.sh` runs in full under both dispatch arms), on three
/// ranks: with f32 storage the one sharded step — one batch ahead, cold
/// traffic and hot cache both in play — must train the replica trainer's
/// model to the bit in the same number of epochs.
#[test]
fn sharded_step_matches_replica_on_three_ranks() {
    use kge::train::{PrefetchMode, ShardedConfig};
    let ds = dataset(7);
    let run = |sharded: Option<ShardedConfig>| {
        let mut config = quick(StrategyConfig::baseline_allgather(2), 7);
        config.max_epochs = 3;
        // Sharded mode defers validation to post-training eval; the
        // replica reference runs the same (constant) plateau signal.
        config.valid_samples = 0;
        config.sharded = sharded;
        train(&ds, &Cluster::new(3, ClusterSpec::cray_xc40()), &config)
    };
    let bits = |t: &EmbeddingTable| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let replica = run(None);
    let prefetch = PrefetchMode::On;
    let sharded = run(Some(ShardedConfig { hot_cache_rows: 24, cold_int8: false, prefetch }));
    assert_eq!(bits(&sharded.entities), bits(&replica.entities), "entity rows");
    assert_eq!(bits(&sharded.relations), bits(&replica.relations), "relation rows");
    assert_eq!(sharded.report.epochs, replica.report.epochs, "epoch count");
    let sh = sharded.report.sharded.expect("sharded report attached");
    assert!(sh.pull_wire_bytes > 0 && sh.cache_hits > 0, "a tier was idle");
    assert!(sh.hidden_pull_s > 0.0, "hidden pull seconds");
}

/// One cell of `kge-train`'s `resume_determinism` matrix (which
/// `scripts/check.sh` runs in full under both dispatch arms): the combined
/// strategy, pipelined one batch deep on two ranks, checkpointed after
/// epoch 2 and resumed, must equal the uninterrupted four-epoch run in
/// model bytes, epoch trace and simulated clock — every stream, residual,
/// schedule and clock charge the replica step reads crosses the checkpoint.
#[test]
fn checkpoint_resume_replays_the_uninterrupted_run_to_the_bit() {
    let ds = dataset(8);
    let dir = std::env::temp_dir().join(format!("kge-integration-resume-{}", std::process::id()));
    let run = |max_epochs: usize, ckpt_dir: std::path::PathBuf, resume: bool| {
        let mut strategy = StrategyConfig::combined(5);
        strategy.comm = CommMode::Pipelined { staleness: 1 };
        let mut config = quick(strategy, 8);
        config.max_epochs = max_epochs;
        config.checkpoint_every = 2;
        config.resume_from = resume.then(|| ckpt_dir.clone());
        config.checkpoint_dir = Some(ckpt_dir);
        train(&ds, &Cluster::new(2, ClusterSpec::cray_xc40()), &config)
    };
    let whole = run(4, dir.join("whole"), false);
    let first = run(2, dir.join("split"), false);
    assert_eq!(first.report.checkpoints_written, 1, "the short leg leaves one checkpoint");
    let resumed = run(4, dir.join("split"), true);
    let _ = std::fs::remove_dir_all(&dir);

    let bits = |t: &EmbeddingTable| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&whole.entities), bits(&resumed.entities), "entity rows");
    assert_eq!(bits(&whole.relations), bits(&resumed.relations), "relation rows");
    assert_eq!(whole.report.trace, resumed.report.trace, "epoch trace");
    assert_eq!(
        whole.report.sim_total_seconds.to_bits(),
        resumed.report.sim_total_seconds.to_bits(),
        "simulated clock"
    );
    assert_eq!(whole.report.pipelined_epochs, 4, "every epoch ran pipelined");
}

/// One cell of `kge-data`'s `synth_golden` table (which `scripts/check.sh`
/// runs in full): the benchmark's FB15K-shaped graph must keep its split
/// lengths and bytes, since every workload trained on it — its
/// `final_train_loss`, `test_mrr` and simulated clock — starts there.
#[test]
fn benchmark_graph_keeps_its_bytes() {
    let ds = kge::data::synth::generate(&SynthPreset::Fb15kLike.config(0.15, 2022));
    let fnv = |split: &[Triple]| {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in split.iter().flat_map(|t| [t.head, t.rel, t.tail]).flat_map(u32::to_le_bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    };
    assert_eq!((ds.train.len(), ds.valid.len(), ds.test.len()), (80837, 3553, 4441));
    assert_eq!(fnv(&ds.train), 0x4413_013d_8034_3d35, "train");
    assert_eq!(fnv(&ds.valid), 0xfe80_0441_acbe_238b, "valid");
    assert_eq!(fnv(&ds.test), 0xa709_f506_da83_cbfb, "test");
}
