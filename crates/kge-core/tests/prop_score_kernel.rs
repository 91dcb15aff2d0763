//! Property test: `KgeModel::score_triples` — the training forward and
//! S5's pool scoring — gives **exactly** `KgeModel::score`'s bits (but for
//! the sign of a RotatE NaN, [`same_forward_bits`]), triple for triple, for
//! every model constructible from `ModelKind`, at every dispatch level the
//! host has, at ranks below, at and straddling the vector width, for every
//! length of the last [`SCORE_LANES`] group, on the shapes training stages
//! and on the values where a reordered or fused sum would show: signed
//! zeros, denormals and magnitudes that overflow. The transposed one-vs-all
//! driver is held to `score`'s bits per candidate with no exception, in
//! both directions, at every level, over empty tiles, tiles shorter than a
//! lane chunk, and tiles at, around and between chunk boundaries.

use kge_core::model::complex_score_oracle;
use kge_core::simd::{set_level, Level};
use kge_core::{
    ComplEx, DistMult, EmbeddingTable, KgeModel, ReplaceDir, RotatE, SimplE, TransE, SCORE_LANES,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const RANKS: [usize; 10] = [1, 3, 7, 8, 9, 16, 31, 32, 33, 64];
const N_ENT: usize = 24;
const N_REL: usize = 5;

type Triple = (u32, u32, u32);

fn models(rank: usize) -> [Box<dyn KgeModel>; 5] {
    [
        Box::new(ComplEx::new(rank)),
        Box::new(DistMult::new(rank)),
        Box::new(TransE::new(rank)),
        Box::new(RotatE::new(rank)),
        Box::new(SimplE::new(rank)),
    ]
}

/// What the table elements look like.
#[derive(Debug, Clone, Copy)]
enum Values {
    /// Uniform in `(-1, 1)`: the trained-embedding regime, where ComplEx is
    /// also held to the complex-arithmetic oracle.
    Unit,
    /// A third of the elements `+0.0`, a third `-0.0`: summands of either
    /// zero sign, which a sum started anywhere but `+0.0` gets wrong.
    SignedZeros,
    /// Elements around `1e-40` among unit ones: denormal operands and
    /// products that flush to zero.
    Denormals,
    /// Every row scaled by `1e-30`, `1` or `1e30`: products that underflow,
    /// overflow to `±inf` and cancel to NaN (the tables themselves hold no
    /// NaN; see [`same_forward_bits`] for the one NaN score excused).
    Magnitudes,
}

const VALUES: [Values; 4] =
    [Values::Unit, Values::SignedZeros, Values::Denormals, Values::Magnitudes];

fn table(rows: usize, dim: usize, values: Values, rng: &mut StdRng) -> EmbeddingTable {
    let mut t = EmbeddingTable::zeros(rows, dim);
    for i in 0..rows {
        let row_scale = [1e-30f32, 1.0, 1e30][rng.gen_range(0..3usize)];
        for x in t.row_mut(i) {
            let unit: f32 = rng.gen_range(-1.0..1.0);
            *x = match (values, rng.gen_range(0..3u32)) {
                (Values::SignedZeros, 0) => 0.0,
                (Values::SignedZeros, 1) => -0.0,
                (Values::Denormals, 0) => unit * 1e-40,
                (Values::Magnitudes, _) => unit * row_scale,
                _ => unit,
            };
        }
    }
    t
}

/// The triple lists the kernel must get right.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Independent uniform triples.
    Random,
    /// What staging produces and what a pool is: runs of triples that share
    /// the relation and one entity.
    Training,
    /// Every other triple has `h == t`.
    SelfLoops,
}

const SHAPES: [Shape; 3] = [Shape::Random, Shape::Training, Shape::SelfLoops];

fn triples(shape: Shape, n: usize, rng: &mut StdRng) -> Vec<Triple> {
    let mut ent = || rng.gen_range(0..N_ENT as u32);
    let mut out: Vec<Triple> = Vec::with_capacity(n + 5);
    while out.len() < n {
        let (h, t) = (ent(), ent());
        let r = (h + t) % N_REL as u32;
        match shape {
            Shape::Random => out.push((h, r, t)),
            Shape::Training => {
                out.push((h, r, t));
                out.extend((0..5).map(|j| if j % 2 == 0 { (ent(), r, t) } else { (h, r, ent()) }));
            }
            Shape::SelfLoops => out.extend([(h, r, h), (h, r, t)]),
        }
    }
    out.truncate(n);
    out
}

/// The forward's one exception to bit equality: a RotatE score that is NaN
/// on both sides may differ in the NaN's sign. RotatE's summand is `-(…)`;
/// where `…` cancels `inf − inf` the compiler folds the negation into a
/// subtraction in `score` (the NaN keeps its sign) and the forward stages
/// the negated summand first (the sign flips). A NaN's sign is outside
/// every f32 contract Rust gives and nothing downstream reads it (ranking
/// and top-k ask `is_nan`). No other model is excused: ComplEx, DistMult and
/// SimplE negate nothing, TransE's sums stay finite in every regime here,
/// and the one-vs-all driver folds the negation as `score` does.
fn same_forward_bits(model: &dyn KgeModel, got: f32, want: f32) -> bool {
    got.to_bits() == want.to_bits() || (model.name() == "rotate" && got.is_nan() && want.is_nan())
}

// Tests run on parallel threads; a call at a chosen level holds this for
// as long as it holds the process-global override, so each level really is
// the one asked for.
static ARM: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// `f` with the dispatch level pinned to `level`.
fn at_level<T>(level: Level, f: impl FnOnce() -> T) -> T {
    let _arm = ARM.lock().unwrap_or_else(|e| e.into_inner());
    set_level(Some(level));
    let out = f();
    set_level(None);
    out
}

/// `score_triples` at the given dispatch level.
fn fused(
    model: &dyn KgeModel,
    ent: &EmbeddingTable,
    rel: &EmbeddingTable,
    triples: &[Triple],
    scratch: &mut Vec<f32>,
    level: Level,
) -> Vec<f32> {
    // Poisoned, so every score has to be written.
    let mut scores = vec![f32::from_bits(0x7FC0_BEEF); triples.len()];
    at_level(level, || model.score_triples(ent, rel, triples, scratch, &mut scores));
    scores
}

/// Every model at `rank`, every level, against `score` (and ComplEx on unit
/// values against the oracle).
fn check_all_models(rank: usize, values: Values, shape: Shape, n: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let list = triples(shape, n, &mut rng);
    for model in models(rank).iter() {
        let dim = model.storage_dim();
        let ent = table(N_ENT, dim, values, &mut rng);
        let rel = table(N_REL, dim, values, &mut rng);
        let row = |t: &Triple| (ent.row(t.0 as usize), rel.row(t.1 as usize), ent.row(t.2 as usize));
        let want: Vec<f32> = list.iter().map(&row).map(|(h, r, t)| model.score(h, r, t)).collect();
        // One scratch across every level and a longer list first: stale
        // summands from an earlier call must not leak into a short group.
        let mut scratch = Vec::new();
        let widest = *Level::detected().last().expect("Scalar is always detected");
        fused(model.as_ref(), &ent, &rel, &triples(Shape::Random, 11, &mut rng), &mut scratch, widest);
        for &level in Level::detected() {
            let got = fused(model.as_ref(), &ent, &rel, &list, &mut scratch, level);
            for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    same_forward_bits(model.as_ref(), g, w),
                    "{} rank={rank} {values:?} {shape:?} n={n} {level:?} \
                     triple {i} {:?}: {g:e} ({:#x}) vs score {w:e} ({:#x})",
                    model.name(),
                    list[i],
                    g.to_bits(),
                    w.to_bits()
                );
            }
            if model.name() == "complex" && matches!(values, Values::Unit) {
                for (t, &g) in list.iter().zip(&got) {
                    let (h, r, t) = row(t);
                    let oracle = complex_score_oracle(rank, h, r, t);
                    assert!((g - oracle).abs() <= 1e-5 * rank as f32, "{g} vs oracle {oracle}");
                }
            }
        }
    }
}

/// The whole grid once: every rank × every length of the last group (none,
/// `1..SCORE_LANES`, a full one), alone and behind two full groups × every
/// value regime × every shape.
#[test]
fn every_rank_remainder_value_regime_and_shape_matches_score() {
    for rank in RANKS {
        for rem in 0..=SCORE_LANES {
            for n in [rem, 2 * SCORE_LANES + rem] {
                for values in VALUES {
                    for shape in SHAPES {
                        check_all_models(rank, values, shape, n, (rank * 131 + n) as u64);
                    }
                }
            }
        }
    }
}

/// Tile heights for the transposed driver, against its 32-lane chunks:
/// none; padded chunks alone (1, 15, 16, 17, 31); one chunk (32); one chunk
/// and a padded one (33, 47, 48, 63); two chunks (64); two and a padded one
/// (65); three and a padded one (97).
const TILE_HEIGHTS: [usize; 14] = [0, 1, 15, 16, 17, 31, 32, 33, 47, 48, 63, 64, 65, 97];

/// The transposed one-vs-all driver: every model × rank × tile height ×
/// value regime × direction × level — every candidate's score is `score`'s
/// with the candidate substituted.
#[test]
fn transposed_one_vs_all_matches_score_per_candidate() {
    let mut rng = StdRng::seed_from_u64(0x07A);
    for rank in [1, 5, 8, 13, 32] {
        for model in models(rank).iter() {
            for rows in TILE_HEIGHTS {
                for values in VALUES {
                    check_transposed(model.as_ref(), rows, values, &mut rng);
                }
            }
        }
    }
}

fn check_transposed(model: &dyn KgeModel, rows: usize, values: Values, rng: &mut StdRng) {
    let dim = model.storage_dim();
    let cand = table(rows, dim, values, rng);
    let fixed = table(2, dim, values, rng);
    let (query, r) = (fixed.row(0), fixed.row(1));
    let mut tile_t = vec![0.0f32; rows * dim];
    for j in 0..rows {
        for k in 0..dim {
            tile_t[k * rows + j] = cand.row(j)[k];
        }
    }
    for dir in [ReplaceDir::Head, ReplaceDir::Tail] {
        for &level in Level::detected() {
            // Poisoned, so every score has to be written.
            let mut got = vec![f32::from_bits(0x7FC0_BEEF); rows];
            at_level(level, || model.score_one_vs_all_transposed(query, r, &tile_t, rows, dir, &mut got));
            for (j, &g) in got.iter().enumerate() {
                let w = match dir {
                    ReplaceDir::Head => model.score(cand.row(j), r, query),
                    ReplaceDir::Tail => model.score(query, r, cand.row(j)),
                };
                assert!(
                    g.to_bits() == w.to_bits(),
                    "{} rank={} {values:?} {dir:?} rows={rows} {level:?} \
                     candidate {j}: {g:e} ({:#x}) vs score {w:e} ({:#x})",
                    model.name(),
                    model.rank(),
                    g.to_bits(),
                    w.to_bits()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn score_triples_bit_identical_to_score(
        seed in any::<u64>(),
        rank_idx in 0usize..RANKS.len(),
        n in 0usize..70,
        values_idx in 0usize..4,
        shape_idx in 0usize..3,
    ) {
        check_all_models(RANKS[rank_idx], VALUES[values_idx], SHAPES[shape_idx], n, seed);
    }
}
