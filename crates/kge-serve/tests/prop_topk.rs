//! Bit-identity of the serving top-k path against the scalar full-sort
//! oracle: ids, scores, and order, across models × dims × k ×
//! filtered/unfiltered, batched and single-query admission, and entity
//! counts whose last tile ends in every kind of padded lane chunk — every
//! drain at every dispatch level the host has.

use std::sync::{Arc, Mutex};

use kge_core::simd::{set_level, Level};
use kge_core::{ComplEx, DistMult, EmbeddingTable, KgeModel, RotatE, SimplE, TransE};
use kge_data::{GroupedFilter, Triple};
use kge_eval::tile_rows_for;
use kge_serve::{ModelSnapshot, Query, ServeEngine};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIMS: [usize; 3] = [15, 64, 128];
const KS: [usize; 3] = [1, 10, 100];

fn build_model(model_id: usize, rank: usize) -> Arc<dyn KgeModel> {
    match model_id {
        0 => Arc::new(ComplEx::new(rank)),
        1 => Arc::new(DistMult::new(rank)),
        2 => Arc::new(TransE::new(rank)),
        3 => Arc::new(RotatE::new(rank)),
        _ => Arc::new(SimplE::new(rank)),
    }
}

/// Embeddings on a coarse lattice so score ties are common and the
/// deterministic id tie-break is actually exercised.
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

fn filter_for(n_ent: u32, n_rel: u32, seed: u64) -> Arc<GroupedFilter> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF117E4);
    let triples: Vec<Triple> = (0..200)
        .map(|_| {
            Triple::new(
                rng.gen_range(0..n_ent),
                rng.gen_range(0..n_rel),
                rng.gen_range(0..n_ent),
            )
        })
        .collect();
    Arc::new(GroupedFilter::from_triples(triples.into_iter()))
}

/// `f` once per dispatch level the host has. Tests run on parallel threads,
/// so the process-global level is held under a lock while `f` runs.
fn at_every_level(mut f: impl FnMut(Level)) {
    static ARM: Mutex<()> = Mutex::new(());
    let _arm = ARM.lock().unwrap_or_else(|e| e.into_inner());
    for &level in Level::detected() {
        set_level(Some(level));
        f(level);
    }
    set_level(None);
}

/// Submit `queries` as one batch at every level and check every slot
/// against the scalar oracle — exact ids, exact score bits, exact order.
fn assert_batch_matches_oracle(engine: &mut ServeEngine, queries: &[Query]) {
    at_every_level(|level| {
        for &q in queries {
            engine.submit(q);
        }
        engine.drain();
        for (i, q) in queries.iter().enumerate() {
            let got = engine.results().get(i).to_vec();
            let want = engine.oracle(q);
            assert_eq!(got, want, "query {i} ({q:?}) diverges from scalar oracle at {level:?}");
        }
    });
}

/// Exhaustive pin of the ISSUE matrix: 5 models × dims {15, 64, 128} ×
/// k {1, 10, 100} × filtered/unfiltered, one seeded world each.
#[test]
fn full_matrix_matches_scalar_oracle() {
    let n_ent = 150usize;
    let n_rel = 5u32;
    for model_id in 0..5usize {
        for (di, &rank) in DIMS.iter().enumerate() {
            let model = build_model(model_id, rank);
            let dim = model.storage_dim();
            let seed = (model_id as u64) << 8 | di as u64;
            let ent = quantized_table(n_ent, dim, seed);
            let rel = quantized_table(n_rel as usize, dim, seed ^ 0x9E37);
            let snap = Arc::new(ModelSnapshot::build(model, &ent, &rel, 1));
            let filter = filter_for(n_ent as u32, n_rel, seed);
            let mut engine = ServeEngine::with_filter(snap, Some(filter));
            for &k in &KS {
                for filtered in [false, true] {
                    let queries: Vec<Query> = (0..8u32)
                        .map(|i| Query {
                            head: (i * 37 + k as u32) % n_ent as u32,
                            rel: i % n_rel,
                            k,
                            filtered,
                        })
                        .collect();
                    assert_batch_matches_oracle(&mut engine, &queries);
                }
            }
        }
    }
}

/// NaN embedding rows are excluded from result sets entirely — on both
/// the heap path and the oracle.
#[test]
fn nan_rows_never_ranked() {
    for model_id in 0..5usize {
        let model = build_model(model_id, 15);
        let dim = model.storage_dim();
        let mut ent = quantized_table(80, dim, 3);
        for &e in &[0usize, 17, 79] {
            ent.row_mut(e)[0] = f32::NAN;
        }
        let rel = quantized_table(2, dim, 4);
        let snap = Arc::new(ModelSnapshot::build(model, &ent, &rel, 1));
        let mut engine = ServeEngine::new(snap);
        // head 5 is finite; heads 0/17/79 give NaN query rows → every
        // candidate scores NaN → empty result set, matching the oracle.
        at_every_level(|level| {
            for head in [5u32, 0, 17] {
                let q = Query { head, rel: 0, k: 10, filtered: false };
                let got = engine.query_one(q).to_vec();
                for &e in &[0u32, 17, 79] {
                    assert!(got.iter().all(|h| h.entity != e), "NaN row {e} ranked at {level:?}");
                }
                assert_eq!(got, engine.oracle(&q), "model {model_id} head {head} {level:?}");
            }
        });
    }
}

/// Entity counts of two whole tiles and 1, 17 or 31 more: the last tile is
/// a padded lane chunk alone, which is where the sweep's zero padding must
/// never reach a result. Five models at a narrow and a wide rank (ComplEx
/// rank 64 has 32-row tiles, a single lane chunk each).
#[test]
fn ragged_last_tiles_match_scalar_oracle() {
    let n_rel = 3u32;
    for model_id in 0..5usize {
        for rank in [15usize, 64] {
            let model = build_model(model_id, rank);
            let dim = model.storage_dim();
            for extra in [1usize, 17, 31] {
                let n_ent = 2 * tile_rows_for(dim) + extra;
                let seed = (model_id * 1000 + rank * 10 + extra) as u64;
                let ent = quantized_table(n_ent, dim, seed);
                let rel = quantized_table(n_rel as usize, dim, seed ^ 0x9E37);
                let snap = Arc::new(ModelSnapshot::build(model.clone(), &ent, &rel, 1));
                let filter = filter_for(n_ent as u32, n_rel, seed);
                let mut engine = ServeEngine::with_filter(snap, Some(filter));
                let queries: Vec<Query> = (0..6u32)
                    .map(|i| Query {
                        head: (i * 53 + extra as u32) % n_ent as u32,
                        rel: i % n_rel,
                        k: if i % 2 == 0 { 10 } else { 40 },
                        filtered: i % 3 == 0,
                    })
                    .collect();
                assert_batch_matches_oracle(&mut engine, &queries);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random worlds, batch shapes, and ks: batched admission must stay
    /// bit-identical to the oracle (and hence to single-query admission,
    /// which the engine unit tests pin separately).
    #[test]
    fn random_batches_match_scalar_oracle(
        model_id in 0usize..5,
        dim_idx in 0usize..3,
        k_idx in 0usize..3,
        filtered in any::<bool>(),
        seed in any::<u64>(),
        n_queries in 1usize..24,
    ) {
        let rank = DIMS[dim_idx];
        let k = KS[k_idx];
        let n_ent = 120usize;
        let n_rel = 4u32;
        let model = build_model(model_id, rank);
        let dim = model.storage_dim();
        let ent = quantized_table(n_ent, dim, seed);
        let rel = quantized_table(n_rel as usize, dim, seed ^ 0x517C0DE);
        let snap = Arc::new(ModelSnapshot::build(model, &ent, &rel, 1));
        let filter = filter_for(n_ent as u32, n_rel, seed);
        let mut engine = ServeEngine::with_filter(snap, Some(filter));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C4);
        let queries: Vec<Query> = (0..n_queries)
            .map(|_| Query {
                head: rng.gen_range(0..n_ent as u32),
                rel: rng.gen_range(0..n_rel),
                k,
                filtered,
            })
            .collect();
        assert_batch_matches_oracle(&mut engine, &queries);
    }
}
