//! Property tests for evaluation: metric bounds, filtering monotonicity,
//! threshold-fit optimality, blocked ranks equal to the scalar oracle's
//! at every dispatch level the host has, and ranks independent of the
//! worker pool's width.

use std::sync::Mutex;

use kge_core::simd::{set_level, Level};
use kge_core::{ComplEx, DistMult, EmbeddingTable, KgeModel, RotatE, SimplE, TransE};
use kge_data::{FilterIndex, GroupedFilter, Triple};
use kge_eval::{
    evaluate_ranking, evaluate_ranking_with, rank_of_scalar, tile_rows_for,
    triple_classification, RankingMetrics, RankingOptions, RankingWorkspace,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn world(seed: u64, n_ent: usize, n_rel: usize) -> (DistMult, EmbeddingTable, EmbeddingTable) {
    let mut rng = StdRng::seed_from_u64(seed);
    (
        DistMult::new(4),
        EmbeddingTable::xavier(n_ent, 4, &mut rng),
        EmbeddingTable::xavier(n_rel, 4, &mut rng),
    )
}

fn triples_strategy(n_ent: u32, n_rel: u32) -> impl Strategy<Value = Vec<Triple>> {
    proptest::collection::vec(
        (0..n_ent, 0..n_rel, 0..n_ent).prop_map(Triple::from),
        1..30,
    )
}

/// Embeddings drawn from a coarse lattice ({-1, -0.5, 0, 0.5, 1}) so score
/// ties are common and the `ties/2` midpoint correction gets exercised.
fn quantized_table(rows: usize, dim: usize, seed: u64) -> EmbeddingTable {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = EmbeddingTable::zeros(rows, dim);
    for i in 0..rows {
        for v in t.row_mut(i) {
            *v = rng.gen_range(-2i32..=2) as f32 * 0.5;
        }
    }
    t
}

/// Blocked ranks of `queries` at every dispatch level the host has, each
/// level's held to `want` (per query: head rank, tail rank), and the
/// metrics of the last level. Tests run on parallel threads, so the
/// process-global level is held under a lock.
fn blocked_ranks_at_every_level(
    ws: &mut RankingWorkspace,
    model: &dyn KgeModel,
    (ent, rel): (&EmbeddingTable, &EmbeddingTable),
    queries: &[Triple],
    grouped: &GroupedFilter,
    opts: &RankingOptions,
    want: impl Fn(&[Triple]) -> Vec<[usize; 2]>,
) -> RankingMetrics {
    static ARM: Mutex<()> = Mutex::new(());
    let _arm = ARM.lock().unwrap_or_else(|e| e.into_inner());
    let mut metrics = None;
    for &level in Level::detected() {
        set_level(Some(level));
        metrics = Some(evaluate_ranking_with(ws, model, ent, rel, queries, grouped, opts));
        set_level(None);
        let got: Vec<[usize; 2]> =
            ws.head_ranks().iter().zip(ws.tail_ranks()).map(|(&h, &t)| [h, t]).collect();
        assert_eq!(got, want(ws.queries()), "ranks diverge from the scalar oracle at {level:?}");
    }
    metrics.expect("Scalar is always detected")
}

/// Storage width of the wide cell's model, ComplEx rank 32: 64 floats a
/// row, so 64 rows to a 16 KB tile.
const WIDE_DIM: usize = 64;
/// Relations of the wide cell.
const WIDE_RELS: u32 = 4;
/// Entities past the wide cell's three full tiles: the ragged fourth tile
/// is one padded lane chunk of 1, 17, 21 or 31 candidates.
const WIDE_RAGGED: [usize; 4] = [1, 17, 21, 31];

/// Each thread ranks one contiguous run of units and the runs' ranks are
/// merged after the region, so every rank and every metric bit must be the
/// same at any pool width. 275 queries make 35 units of eight, a count that
/// no width above one divides, so some run is short.
#[test]
fn ranks_are_bit_identical_at_every_pool_width() {
    let (model, ent, rel) = world(23, 61, 5);
    let mut rng = StdRng::seed_from_u64(29);
    let queries: Vec<Triple> = (0..275)
        .map(|_| Triple::new(rng.gen_range(0..61), rng.gen_range(0..5), rng.gen_range(0..61)))
        .collect();
    assert_eq!(queries.len().div_ceil(8), 35);
    let grouped = GroupedFilter::from_triples(queries.iter().copied());
    for filtered in [false, true] {
        let opts = RankingOptions { filtered, max_queries: None, seed: 0 };
        let mut ws = RankingWorkspace::new();
        let mut at_width = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let m = pool.install(|| {
                evaluate_ranking_with(&mut ws, &model, &ent, &rel, &queries, &grouped, &opts)
            });
            (m.mrr.to_bits(), m.mean_rank.to_bits(), ws.ranks().to_vec())
        };
        let want = at_width(1);
        for threads in [2usize, 3, 8] {
            let got = at_width(threads);
            assert!(want == got, "ranks diverge at {threads} threads, filtered={filtered}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The filter correction inside the tile loop, at a realistic width:
    /// ComplEx rank 32 over three full tiles and a ragged last one. Query
    /// `i` takes relation `i % 4`, so sorted queries change relation inside
    /// every unit; every query's known lists hold its true entity, both
    /// sides of every tile boundary, the ragged tile's last entity and a
    /// few random ones. Each rank equals the scalar oracle's, per query and
    /// direction, raw and filtered, at every level.
    #[test]
    fn ranks_match_scalar_oracle_over_ragged_tiles_and_mixed_relation_units(
        pairs in proptest::collection::vec((any::<u32>(), any::<u32>()), 9..24),
        extra in proptest::collection::vec(any::<u32>(), 0..12),
        ragged in 0..WIDE_RAGGED.len(),
        seed in any::<u64>(),
        filtered in any::<bool>(),
    ) {
        let model = ComplEx::new(WIDE_DIM / 2);
        let tile = tile_rows_for(WIDE_DIM);
        let n_ent = 3 * tile + WIDE_RAGGED[ragged];
        let entity = |x: u32| x % n_ent as u32;
        let ent = quantized_table(n_ent, WIDE_DIM, seed);
        let rel = quantized_table(WIDE_RELS as usize, WIDE_DIM, seed ^ 0x9E37_79B9);
        let queries: Vec<Triple> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(h, t))| Triple::new(entity(h), i as u32 % WIDE_RELS, entity(t)))
            .collect();
        let edges: Vec<u32> = (1..=3)
            .flat_map(|i| [i * tile - 1, i * tile])
            .chain([n_ent - 1])
            .map(|e| e as u32)
            .chain(extra.iter().map(|&x| entity(x)))
            .collect();
        let mut known = queries.clone();
        for q in &queries {
            for &e in &edges {
                known.push(q.with_head(e));
                known.push(q.with_tail(e));
            }
        }
        let filter = FilterIndex::from_triples(known.iter().copied());
        let grouped = GroupedFilter::from_triples(known.iter().copied());
        let opts = RankingOptions { filtered, ..Default::default() };

        let f = filtered.then_some(&filter);
        let want: Vec<[usize; 2]> = queries
            .iter()
            .map(|&t| [true, false].map(|head| rank_of_scalar(&model, &ent, &rel, t, head, f)))
            .collect();
        let mut ws = RankingWorkspace::new();
        blocked_ranks_at_every_level(&mut ws, &model, (&ent, &rel), &queries, &grouped, &opts, |sub| {
            assert_eq!(sub, queries.as_slice(), "no subsampling");
            want.clone()
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ranking_metrics_are_bounded_and_ordered(
        triples in triples_strategy(40, 3),
        seed in any::<u64>(),
    ) {
        let (model, ent, rel) = world(seed, 40, 3);
        let filter = FilterIndex::from_triples(triples.iter().copied());
        let m = evaluate_ranking(&model, &ent, &rel, &triples, &filter, &RankingOptions::default());
        prop_assert!(m.mrr > 0.0 && m.mrr <= 1.0);
        prop_assert!(m.mean_rank >= 1.0 && m.mean_rank <= 40.0);
        prop_assert!(m.hits1 <= m.hits3 + 1e-12);
        prop_assert!(m.hits3 <= m.hits10 + 1e-12);
        prop_assert!(m.hits10 <= 1.0);
        prop_assert_eq!(m.n_queries, triples.len() * 2);
        // MRR is at least 1/mean_rank-ish lower bound sanity: reciprocal
        // mean ≥ 1/max rank.
        prop_assert!(m.mrr >= 1.0 / 40.0 - 1e-12);
    }

    #[test]
    fn filtered_mrr_never_below_raw(
        triples in triples_strategy(30, 2),
        seed in any::<u64>(),
    ) {
        let (model, ent, rel) = world(seed, 30, 2);
        let filter = FilterIndex::from_triples(triples.iter().copied());
        let raw = evaluate_ranking(
            &model, &ent, &rel, &triples, &filter,
            &RankingOptions { filtered: false, ..Default::default() },
        );
        let filt = evaluate_ranking(
            &model, &ent, &rel, &triples, &filter,
            &RankingOptions::default(),
        );
        // Filtering only removes competitors, so ranks can only improve.
        prop_assert!(filt.mrr >= raw.mrr - 1e-9, "filt {} < raw {}", filt.mrr, raw.mrr);
        prop_assert!(filt.mean_rank <= raw.mean_rank + 1e-9);
    }

    #[test]
    fn tca_bounded_and_deterministic(
        triples in triples_strategy(30, 2),
        seed in any::<u64>(),
    ) {
        prop_assume!(triples.len() >= 4);
        let (model, ent, rel) = world(seed, 30, 2);
        let filter = FilterIndex::from_triples(triples.iter().copied());
        let half = triples.len() / 2;
        let a = triple_classification(
            &model, &ent, &rel, &triples[..half], &triples[half..], &filter, 30, 2, seed,
        );
        let b = triple_classification(
            &model, &ent, &rel, &triples[..half], &triples[half..], &filter, 30, 2, seed,
        );
        prop_assert!((0.0..=100.0).contains(&a.accuracy_pct));
        prop_assert_eq!(a.accuracy_pct, b.accuracy_pct);
        prop_assert_eq!(a.n_test, (triples.len() - half) * 2);
    }

    /// The blocked one-vs-all pipeline (fused kernels, tiling, grouped
    /// filter inversion, unit scheduling) must reproduce the scalar
    /// oracle's ranks *bit-identically* — per query and direction, under
    /// both raw and filtered protocols, through subsampling, on tie-heavy
    /// quantized tables where midpoint tie handling matters, and at every
    /// dispatch level.
    #[test]
    fn blocked_ranks_match_scalar_oracle(
        model_id in 0usize..5,
        rank in 2usize..5,
        triples in triples_strategy(25, 3),
        seed in any::<u64>(),
        filtered in any::<bool>(),
        subsample in any::<bool>(),
    ) {
        let model: Box<dyn KgeModel> = match model_id {
            0 => Box::new(ComplEx::new(rank)),
            1 => Box::new(DistMult::new(rank)),
            2 => Box::new(TransE::new(rank)),
            3 => Box::new(RotatE::new(rank)),
            _ => Box::new(SimplE::new(rank)),
        };
        let dim = model.storage_dim();
        let ent = quantized_table(25, dim, seed);
        let rel = quantized_table(3, dim, seed ^ 0x9E37_79B9);
        let filter = FilterIndex::from_triples(triples.iter().copied());
        let grouped = GroupedFilter::from_triples(triples.iter().copied());
        let opts = RankingOptions {
            filtered,
            max_queries: subsample.then(|| triples.len().div_ceil(2)),
            seed,
        };

        let f = filtered.then_some(&filter);
        let scalar = |sub: &[Triple]| -> Vec<[usize; 2]> {
            sub.iter()
                .map(|&t| [true, false].map(|head| rank_of_scalar(model.as_ref(), &ent, &rel, t, head, f)))
                .collect()
        };
        let mut ws = RankingWorkspace::new();
        let blocked = blocked_ranks_at_every_level(
            &mut ws, model.as_ref(), (&ent, &rel), &triples, &grouped, &opts, scalar,
        );
        // Same ranks in the same interleaved order ⇒ the f64 metric sums
        // must match bit-for-bit too.
        let scalar_ranks = scalar(ws.queries()).concat();
        prop_assert_eq!(blocked, RankingMetrics::from_ranks(&scalar_ranks));
    }

    #[test]
    fn perfectly_separable_scores_classify_perfectly(
        margin in 0.5f32..5.0,
        n in 2usize..10,
    ) {
        // Positives score +margin; every *legal* corruption must involve
        // one of the two all-zero spare entities (all other combinations
        // are registered as known-true), so corruptions score 0.
        let model = DistMult::new(4);
        let mut ent = EmbeddingTable::zeros(2 * n + 2, 4);
        for i in 0..n {
            ent.row_mut(i)[0] = margin; // heads
            ent.row_mut(n + i)[0] = 1.0; // tails
        }
        let mut rel = EmbeddingTable::zeros(1, 4);
        rel.row_mut(0)[0] = 1.0;
        let triples: Vec<Triple> = (0..n as u32)
            .map(|i| Triple::new(i, 0, n as u32 + i))
            .collect();
        let mut known = Vec::new();
        for a in 0..(2 * n) as u32 {
            for b in 0..(2 * n) as u32 {
                known.push(Triple::new(a, 0, b));
            }
        }
        let filter = FilterIndex::from_triples(known.iter().copied());
        let res = triple_classification(
            &model, &ent, &rel, &triples, &triples, &filter, 2 * n + 2, 1, 5,
        );
        prop_assert!(
            res.accuracy_pct >= 95.0,
            "separable world must classify near-perfectly: {}",
            res.accuracy_pct
        );
    }
}
