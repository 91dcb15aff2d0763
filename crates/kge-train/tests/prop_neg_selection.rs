//! Property test for S5's staging: drawing every pool of a chunk first,
//! scoring all candidates in one `score_triples` call and picking each
//! positive's hardest by arg-max rounds (`NegSampler::stage`) must stage
//! exactly what the one-positive-at-a-time loop it replaced staged — the
//! same labels and triples in the same order, from the same RNG draws, and
//! leave the RNG in the same state. The old loop (`corrupt` × `pool`,
//! `model.score` per candidate, stable descending `sort_by`) is written out
//! here as the reference; `sample_negatives_into`, the one-positive case of
//! the same function, is held to it too.
//!
//! Covered: pools below, at and far above the kernel's 8-lane group, `train`
//! of 1, 2 and the whole pool (no selection), with and without the `bern`
//! bias, tables built to tie scores (draw order must win, `+0.0` against
//! `-0.0` included), and a NaN score, which must still panic.
//!
//! `scripts/check.sh` runs the suite under both dispatch arms.

use kge_core::{ComplEx, DistMult, EmbeddingTable, KgeModel};
use kge_data::synth::{generate, SynthConfig};
use kge_data::{Dataset, FilterIndex, Triple};
use kge_train::neg::{
    corrupt, sample_negatives_into, CorruptionBias, NegSampler, NegScratch,
};
use kge_train::NegSampling;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const POOLS: [usize; 5] = [1, 2, 5, 16, 70];
const RANK: usize = 6;

type Staged = (Vec<f32>, Vec<(u32, u32, u32)>);

fn dataset(seed: u64) -> Dataset {
    generate(&SynthConfig {
        name: "neg-probe".into(),
        n_entities: 48,
        n_relations: 5,
        n_triples: 500,
        relation_zipf: 1.0,
        entity_zipf: 0.8,
        noise_frac: 0.05,
        valid_frac: 0.05,
        test_frac: 0.05,
        seed,
    })
}

/// The per-positive loop `stage_chunk` ran before chunk-wide pools, and the
/// number of scored-but-discarded candidates per positive.
fn reference(s: &NegSampler<'_>, positives: &[Triple], rng: &mut StdRng) -> (Staged, usize) {
    let (mut labels, mut triples) = (Vec::new(), Vec::new());
    let mut discarded = 0;
    for &pos in positives {
        labels.push(1.0);
        triples.push((pos.head, pos.rel, pos.tail));
        let pool: Vec<Triple> = (0..s.policy.pool)
            .map(|_| corrupt(pos, s.n_entities, s.filter, s.bias, rng))
            .collect();
        let kept = if s.policy.uses_selection() {
            let row = |e: u32| s.ent.row(e as usize);
            let mut scored: Vec<(f32, Triple)> = pool
                .iter()
                .map(|&t| (s.model.score(row(t.head), s.rel.row(t.rel as usize), row(t.tail)), t))
                .collect();
            scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
            let keep = s.policy.train.min(scored.len());
            discarded = scored.len() - keep;
            scored[..keep].iter().map(|&(_, t)| t).collect()
        } else {
            pool
        };
        for n in kept {
            labels.push(-1.0);
            triples.push((n.head, n.rel, n.tail));
        }
    }
    ((labels, triples), discarded)
}

/// Chunk-wide staging and the one-positive entry point against the
/// reference, under both dispatch arms.
fn check(s: &NegSampler<'_>, positives: &[Triple], seed: u64) {
    // Tests run on parallel threads; hold the process-global override for
    // the whole check so each arm really is the one asked for.
    static ARM: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _arm = ARM.lock().unwrap_or_else(|e| e.into_inner());
    let mut want_rng = StdRng::seed_from_u64(seed);
    let (want, want_discarded) = reference(s, positives, &mut want_rng);
    let what = format!("{:?} bern={} seed={seed}", s.policy, s.bias.is_some());
    let mut scratch = NegScratch::default();
    for force_scalar in [true, false] {
        kge_core::simd::set_force_scalar(Some(force_scalar));

        let mut rng = StdRng::seed_from_u64(seed);
        let mut got: Staged = Default::default();
        s.stage(positives.iter().copied(), &mut rng, &mut scratch, &mut got.0, &mut got.1);
        assert_eq!(got, want, "chunk-wide staging, {what} force_scalar={force_scalar}");
        assert_eq!(rng.state(), want_rng.state(), "RNG after chunk-wide staging, {what}");

        let mut rng = StdRng::seed_from_u64(seed);
        let mut got: Staged = Default::default();
        let mut negs = Vec::new();
        for &pos in positives {
            negs.clear();
            let discarded = sample_negatives_into(
                s.policy, pos, s.model, s.ent, s.rel, s.filter, s.bias, s.n_entities, &mut rng,
                &mut scratch, &mut negs,
            );
            assert_eq!(discarded, want_discarded, "discarded count, {what}");
            got.0.push(1.0);
            got.1.push((pos.head, pos.rel, pos.tail));
            got.0.extend(negs.iter().map(|_| -1.0));
            got.1.extend(negs.iter().map(|n| (n.head, n.rel, n.tail)));
        }
        assert_eq!(got, want, "sample_negatives_into, {what} force_scalar={force_scalar}");
        assert_eq!(rng.state(), want_rng.state(), "RNG after sample_negatives_into, {what}");
    }
    kge_core::simd::set_force_scalar(None);
}

/// DistMult tables where every score is `h₀·t₀` with `h₀, t₀ ∈ {-1, 0, 1}`:
/// each pool is mostly ties, `+0.0` against `-0.0` among them.
fn tie_tables(n_entities: usize, n_relations: usize) -> (EmbeddingTable, EmbeddingTable) {
    let mut ent = EmbeddingTable::zeros(n_entities, RANK);
    for i in 0..n_entities {
        ent.row_mut(i)[0] = (i % 3) as f32 - 1.0;
    }
    let mut rel = EmbeddingTable::zeros(n_relations, RANK);
    for r in 0..n_relations {
        rel.row_mut(r)[0] = 1.0;
    }
    (ent, rel)
}

/// Every pool × every `train` × with and without `bern`, on tables of the
/// given kind.
fn check_grid(ties: bool, seed: u64) {
    let ds = dataset(seed);
    let filter = FilterIndex::build(&ds);
    let bias = CorruptionBias::fit(&ds);
    let mut init = StdRng::seed_from_u64(seed ^ 0xE7);
    let (model, ent, rel): (Box<dyn KgeModel>, _, _) = if ties {
        let (ent, rel) = tie_tables(ds.n_entities, ds.n_relations);
        (Box::new(DistMult::new(RANK)), ent, rel)
    } else {
        let ent = EmbeddingTable::xavier(ds.n_entities, 2 * RANK, &mut init);
        let rel = EmbeddingTable::xavier(ds.n_relations, 2 * RANK, &mut init);
        (Box::new(ComplEx::new(RANK)), ent, rel)
    };
    // 37 positives: with a pool of 5, 23 full scoring groups and a short one.
    let positives = &ds.train[..37];
    for pool in POOLS {
        for train in [1, 2, pool] {
            for bias in [None, Some(&bias)] {
                let sampler = NegSampler {
                    policy: NegSampling { pool, train: train.min(pool) },
                    model: model.as_ref(),
                    ent: &ent,
                    rel: &rel,
                    filter: &filter,
                    bias,
                    n_entities: ds.n_entities,
                };
                check(&sampler, positives, seed.wrapping_add(pool as u64));
            }
        }
    }
}

#[test]
fn chunk_wide_staging_matches_the_per_positive_loop() {
    check_grid(false, 11);
}

#[test]
fn draw_order_wins_score_ties() {
    check_grid(true, 12);
}

#[test]
#[should_panic(expected = "finite scores")]
fn nan_score_still_panics() {
    let ds = dataset(13);
    let filter = FilterIndex::build(&ds);
    let (mut ent, rel) = tie_tables(ds.n_entities, ds.n_relations);
    ent.as_mut_slice().fill(f32::NAN);
    let sampler = NegSampler {
        policy: NegSampling::select(1, 5),
        model: &DistMult::new(RANK),
        ent: &ent,
        rel: &rel,
        filter: &filter,
        bias: None,
        n_entities: ds.n_entities,
    };
    let mut rng = StdRng::seed_from_u64(13);
    sampler.sample(ds.train[..3].iter().copied(), &mut rng, &mut NegScratch::default());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn staging_matches_for_any_seed(seed in any::<u64>(), ties in any::<bool>()) {
        check_grid(ties, seed);
    }
}
