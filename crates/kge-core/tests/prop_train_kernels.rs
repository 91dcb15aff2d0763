//! Property test: the blocked training kernel (`score_grad_block`: groups
//! scored straight from the table rows, accumulating backward straight into
//! the `SparseGrad` slabs, memoized slots) is **bit-identical** to the scalar
//! per-triple path — every per-example score (hence loss), every gradient
//! bit and the insertion order of both accumulators — for every model
//! constructible from `ModelKind`, dims straddling the AVX register width,
//! block sizes straddling [`BLOCK_GROUP`], the block shapes training
//! produces, and every dispatch level the host has, through the in-process
//! override.

use kge_core::loss::{logistic_loss_and_grad, logistic_loss_grad};
use kge_core::matrix::axpy;
use kge_core::simd::{set_level, Level};
use kge_core::{
    BlockScratch, ComplEx, DistMult, EmbeddingTable, Forward, KgeModel, RotatE, SimplE, SparseGrad,
    TransE, BLOCK_GROUP,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Model ranks: 15 and 127 leave SIMD tails in the backward `dim` loop
/// (and, for ComplEx, odd half-row widths); 64 and 128 are the bench
/// configurations.
const RANKS: [usize; 4] = [15, 64, 127, 128];
/// Block sizes straddling the 16-example group: sub-group (1 and 7 are one
/// short 8-lane forward group, 15 a full one plus a short one), exactly
/// one group, group + tail, and multi-group + tail.
const BLOCKS: [usize; 6] = [1, 7, 15, 16, 17, 33];
const N_ENT: usize = 40;
const N_REL: usize = 8;
const L2: f32 = 1e-3;

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

fn tables(model: &dyn KgeModel, seed: u64) -> (EmbeddingTable, EmbeddingTable) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ent = EmbeddingTable::xavier(N_ENT, model.storage_dim(), &mut rng);
    let rel = EmbeddingTable::xavier(N_REL, model.storage_dim(), &mut rng);
    (ent, rel)
}

/// The block shapes the kernel must get right.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Independent uniform triples.
    Random,
    /// What `stage_chunk` produces: each positive followed by `k` negatives
    /// that keep its relation and one of its entities — the slot memo's
    /// hit pattern.
    Training { k: usize },
    /// Every other example has `h == t`: head and tail gradients land in
    /// one destination row.
    SelfLoops,
    /// A three-entity, one-relation pool, and the first example of every
    /// group repeating the last example of the group before: the same rows
    /// on both sides of each group boundary.
    Straddle,
}

const SHAPES: [Shape; 5] = [
    Shape::Random,
    Shape::Training { k: 1 },
    Shape::Training { k: 4 },
    Shape::SelfLoops,
    Shape::Straddle,
];

fn block(shape: Shape, n: usize, seed: u64) -> Vec<Triple> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A);
    let mut uniform = |n_ent: usize, n_rel: usize| {
        (
            rng.gen_range(0..n_ent as u32),
            rng.gen_range(0..n_rel as u32),
            rng.gen_range(0..n_ent as u32),
        )
    };
    let mut out: Vec<Triple> = Vec::with_capacity(n + 4);
    match shape {
        Shape::Random => out.extend((0..n).map(|_| uniform(N_ENT, N_REL))),
        Shape::Training { k } => {
            while out.len() < n {
                let (h, r, t) = uniform(N_ENT, N_REL);
                out.push((h, r, t));
                for j in 0..k {
                    let (c, _, _) = uniform(N_ENT, N_REL);
                    out.push(if j % 2 == 0 { (c, r, t) } else { (h, r, c) });
                }
            }
            out.truncate(n);
        }
        Shape::SelfLoops => out.extend((0..n).map(|i| {
            let (h, r, t) = uniform(N_ENT, N_REL);
            (h, r, if i % 2 == 0 { h } else { t })
        })),
        Shape::Straddle => {
            for i in 0..n {
                let repeat = i > 0 && i % BLOCK_GROUP == 0;
                out.push(if repeat { out[i - 1] } else { uniform(3, 1) });
            }
        }
    }
    out
}

fn coeff_for(i: usize, score: f32) -> f32 {
    let y = if i.is_multiple_of(2) { 1.0 } else { -1.0 };
    logistic_loss_grad(y, score)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One run's observable result: score bits, then per accumulator the row
/// ids in `entry(i)` order and the dense gradient bits.
#[derive(Debug, PartialEq)]
struct RunBits {
    scores: Vec<u32>,
    ent_order: Vec<u32>,
    ent: Vec<u32>,
    rel_order: Vec<u32>,
    rel: Vec<u32>,
}

fn run_bits(scores: &[f32], ent_g: &SparseGrad, rel_g: &SparseGrad) -> RunBits {
    let order = |g: &SparseGrad| (0..g.nnz()).map(|i| g.entry(i).0).collect();
    RunBits {
        scores: bits(scores),
        ent_order: order(ent_g),
        ent: bits(&ent_g.to_dense(N_ENT)),
        rel_order: order(rel_g),
        rel: bits(&rel_g.to_dense(N_REL)),
    }
}

/// The pre-blocking semantics, written out triple by triple: score, loss
/// coefficient, zero-filled accumulating grad, L2 term, scatter in
/// (head, tail, rel) order.
fn per_triple_reference(
    model: &dyn KgeModel,
    ent: &EmbeddingTable,
    rel: &EmbeddingTable,
    block: &[Triple],
) -> RunBits {
    let dim = model.storage_dim();
    let mut ent_g = SparseGrad::new(dim);
    let mut rel_g = SparseGrad::new(dim);
    let mut scores = Vec::with_capacity(block.len());
    let (mut gh, mut gr, mut gt) = (vec![0.0; dim], vec![0.0; dim], vec![0.0; dim]);
    for (i, &(h, r, t)) in block.iter().enumerate() {
        let (hrow, rrow, trow) = (ent.row(h as usize), rel.row(r as usize), ent.row(t as usize));
        let s = model.score(hrow, rrow, trow);
        scores.push(s);
        let coeff = coeff_for(i, s);
        gh.fill(0.0);
        gr.fill(0.0);
        gt.fill(0.0);
        model.grad(hrow, rrow, trow, coeff, &mut gh, &mut gr, &mut gt);
        axpy(L2, hrow, &mut gh);
        axpy(L2, rrow, &mut gr);
        axpy(L2, trow, &mut gt);
        axpy(1.0, &gh, ent_g.row_mut(h));
        axpy(1.0, &gt, ent_g.row_mut(t));
        axpy(1.0, &gr, rel_g.row_mut(r));
    }
    run_bits(&scores, &ent_g, &rel_g)
}

/// Tests run on parallel threads; a run holds the process-global override
/// for its whole length, so each level really is the one asked for.
static ARM: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// One fused `score_grad_block` run at the given dispatch level.
fn blocked(
    model: &dyn KgeModel,
    ent: &EmbeddingTable,
    rel: &EmbeddingTable,
    block: &[Triple],
    level: Level,
) -> RunBits {
    let _arm = ARM.lock().unwrap_or_else(|e| e.into_inner());
    set_level(Some(level));
    let mut scratch = BlockScratch::new();
    let mut ent_g = SparseGrad::new(model.storage_dim());
    let mut rel_g = SparseGrad::new(model.storage_dim());
    let mut scores = vec![0.0f32; block.len()];
    let mut coeff = |i: usize, s: f32| {
        scores[i] = s;
        coeff_for(i, s)
    };
    model.score_grad_block(ent, rel, block, L2, &mut scratch, &mut coeff, &mut ent_g, &mut rel_g);
    set_level(None);
    run_bits(&scores, &ent_g, &rel_g)
}

/// Every level against the reference, for every model at `rank`.
fn check_all_models(rank: usize, shape: Shape, n: usize, seed: u64) {
    let block = block(shape, n, seed);
    for model in models(rank).iter() {
        let (ent, rel) = tables(model.as_ref(), seed);
        let reference = per_triple_reference(model.as_ref(), &ent, &rel, &block);
        for &level in Level::detected() {
            let got = blocked(model.as_ref(), &ent, &rel, &block, level);
            assert_eq!(
                reference,
                got,
                "fused kernel diverged: {} rank={rank} {shape:?} n={n} {level:?}",
                model.name()
            );
        }
    }
}

/// One `grad_block` run at `level` and the chunk loss the trainer's
/// coefficient closure sums. Its scores come from the block's own forward,
/// or, `prescored`, from one `score_triples` call over a pool the way the
/// sampler forms one: each example followed by a copy of itself (a tie) and
/// a corruption, so every example sits in another forward lane than the
/// block's own forward puts it.
fn loss_and_bits(
    model: &dyn KgeModel,
    (ent, rel): (&EmbeddingTable, &EmbeddingTable),
    block: &[Triple],
    prescored: bool,
    level: Level,
) -> (u64, RunBits) {
    let _arm = ARM.lock().unwrap_or_else(|e| e.into_inner());
    set_level(Some(level));
    let pool: Vec<Triple> = (block.iter())
        .flat_map(|&(h, r, t)| [(h, r, t), (h, r, t), (h, r, (t + 1) % N_ENT as u32)])
        .collect();
    let mut pool_scores = vec![0.0f32; pool.len()];
    model.score_triples(ent, rel, &pool, &mut Vec::new(), &mut pool_scores);
    assert!(pool_scores.chunks(3).all(|c| c[0].to_bits() == c[1].to_bits()), "a tie scores alike");
    let given: Vec<f32> = pool_scores.iter().step_by(3).copied().collect();
    let mut scratch = BlockScratch::new();
    let forward = if prescored { Forward::Given(&given) } else { Forward::Score(&mut scratch) };
    let (mut ent_g, mut rel_g) = (SparseGrad::new(model.storage_dim()), SparseGrad::new(model.storage_dim()));
    let (mut scores, mut loss) = (vec![0.0f32; block.len()], 0.0f64);
    let mut coeff = |i: usize, s: f32| {
        scores[i] = s;
        let (l, g) = logistic_loss_and_grad(if i.is_multiple_of(3) { 1.0 } else { -1.0 }, s);
        loss += f64::from(l);
        g
    };
    model.grad_block((ent, rel), block, forward, L2, &mut coeff, (&mut ent_g, &mut rel_g));
    set_level(None);
    (loss.to_bits(), run_bits(&scores, &ent_g, &rel_g))
}

/// The block handed S5's scores against the block that scores itself: loss
/// bits and both accumulators' rows, values and insertion order, for all
/// five models, every shape (self-loops and repeated rows among them) and
/// block size, at every level.
#[test]
fn prescored_block_matches_the_scoring_block() {
    for shape in SHAPES {
        for n in BLOCKS {
            for rank in [5, 8, 13] {
                let block = block(shape, n, 11 + n as u64);
                for model in models(rank).iter() {
                    let tables = tables(model.as_ref(), 5);
                    let tables = (&tables.0, &tables.1);
                    for &level in Level::detected() {
                        let want = loss_and_bits(model.as_ref(), tables, &block, false, level);
                        let got = loss_and_bits(model.as_ref(), tables, &block, true, level);
                        assert_eq!(want, got, "{} rank={rank} {shape:?} n={n} {level:?}", model.name());
                    }
                }
            }
        }
    }
}

/// Every shape × block size, at ranks with a vector step only (8), a tail
/// only (5) and both (13) — the grid the random cases below sample from,
/// walked once in full.
#[test]
fn every_shape_and_block_size_matches_the_reference() {
    for shape in SHAPES {
        for n in BLOCKS {
            for rank in [5, 8, 13] {
                check_all_models(rank, shape, n, 7 + n as u64);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn blocked_kernel_bit_identical_to_scalar_path(
        seed in any::<u64>(),
        rank_idx in 0usize..4,
        block_idx in 0usize..6,
        shape_idx in 0usize..5,
    ) {
        check_all_models(RANKS[rank_idx], SHAPES[shape_idx], BLOCKS[block_idx], seed);
    }
}
