//! Bit-identity of the serving top-k path against the scalar full-sort
//! oracle: ids, scores, and order, across models × dims × k ×
//! filtered/unfiltered, batched and single-query admission.
//!
//! `scripts/check.sh` runs this suite twice — plain (AVX dispatch where
//! the host has it) and under `KGE_FORCE_SCALAR=1` — so the equality is
//! pinned on both kernel paths.

use std::sync::Arc;

use kge_core::{ComplEx, DistMult, EmbeddingTable, KgeModel, RotatE, SimplE, TransE};
use kge_data::{GroupedFilter, Triple};
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

/// Submit `queries` as one batch and check every slot against the scalar
/// oracle — exact ids, exact score bits, exact order.
fn assert_batch_matches_oracle(engine: &mut ServeEngine, queries: &[Query]) {
    for &q in queries {
        engine.submit(q);
    }
    engine.drain();
    for (i, q) in queries.iter().enumerate() {
        let got = engine.results().get(i).to_vec();
        let want = engine.oracle(q);
        assert_eq!(got, want, "query {i} ({q:?}) diverges from scalar oracle");
    }
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
        for head in [5u32, 0, 17] {
            let q = Query { head, rel: 0, k: 10, filtered: false };
            for &e in &[0u32, 17, 79] {
                engine.submit(q);
                engine.drain();
                let got = engine.results().get(0).to_vec();
                assert!(got.iter().all(|h| h.entity != e), "NaN row {e} ranked");
                assert_eq!(got, engine.oracle(&q), "model {model_id} head {head}");
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
        for &q in &queries {
            engine.submit(q);
        }
        engine.drain();
        for (i, q) in queries.iter().enumerate() {
            let got = engine.results().get(i).to_vec();
            let want = engine.oracle(q);
            prop_assert_eq!(got, want, "query {} diverges", i);
        }
    }
}
