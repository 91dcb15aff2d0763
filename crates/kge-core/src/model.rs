//! KGE scoring models with analytic gradients.
//!
//! Every model maps a triple of embedding rows `(h, r, t)` to a scalar
//! plausibility score `φ(h, r, t)` and exposes the exact gradient of `φ`
//! with respect to each row. Training composes these with the loss
//! derivative (chain rule) — no autodiff needed.
//!
//! A model is **defined once**, by two per-element functions over the `P`
//! parts of its rows (`P = 2` for the complex and two-role models, `1` for
//! the real ones): `term(h_k, r_k, t_k)`, the `k`-th summand of the score,
//! and `grad_terms(coeff, h_k, r_k, t_k)`, `coeff` times its three
//! partials. Everything that runs — the scalar [`KgeModel::score`] and
//! [`KgeModel::grad`] references, the training forward, the transposed
//! one-vs-all sweep and the accumulating backward — is one of a handful of
//! generic loops over that pair, so every path forms each summand with the
//! same f32 expression and adds the summands in the same order: from
//! `+0.0`, `k` ascending. That is the bit-identity contract; the drivers
//! may form independent elements at any vector width, and never fuse a
//! multiply with an add. (The AVX copies of the training forward add a
//! group's summands through `simd::row_sums_8`, which transposes them in
//! registers: the same additions, one lane per example.) The contract stops
//! at the sign of a NaN, which no f32 operation in Rust defines: a `term`
//! that ends in a negation (RotatE's `-(…)` is the one that can reach
//! `inf − inf`) may be folded into a subtraction on one path and staged
//! negated on another, so two paths can both answer NaN with opposite
//! signs. Nothing reads a NaN's sign.

use std::cell::Cell;

use crate::scratch::BlockScratch;
use crate::{EmbeddingTable, SparseGrad};

/// Which side of a query a one-vs-all candidate sweep replaces.
///
/// Link-prediction evaluation asks two questions per test triple: "which
/// head completes `(?, r, t)`" and "which tail completes `(h, r, ?)`".
/// [`KgeModel::score_one_vs_all_transposed`] answers one of them for a
/// whole tile of candidate entities at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplaceDir {
    /// Candidates substitute the head: `φ(c, r, query)`.
    Head,
    /// Candidates substitute the tail: `φ(query, r, c)`.
    Tail,
}

/// Lane width of the transposed one-vs-all driver: 32 accumulators = two
/// 512-bit or four 256-bit vector chains, enough independent adds to hide
/// FP-add latency at either width while leaving registers for the column
/// loads and broadcast scalars. Bit-identity to the scalar `score` path
/// forbids reassociating one candidate's f32 sum, so a single candidate can
/// never vectorize — its accumulator is one serial add chain; the lanes are
/// that many *independent* chains, each still summed in its own original
/// order. Tile row counts are rounded up to a multiple of this, so only a
/// table's last tile has a ragged end.
pub const OVA_T_LANES: usize = 32;

/// Examples per group of [`KgeModel::score_grad_block`]: scores become
/// loss coefficients a group at a time, so the loss code and the kernel
/// code each run this many times in a row instead of alternating.
pub const BLOCK_GROUP: usize = 16;

/// Examples summed together by [`KgeModel::score_triples`]: eight
/// independent add chains run at add throughput where one example's chain
/// would wait out every add's latency.
pub const SCORE_LANES: usize = 8;

/// Elements formed together by the accumulating backward: one 256-bit
/// vector.
const GRAD_LANES: usize = 8;

/// Where [`KgeModel::grad_block`] takes each example's score from.
pub enum Forward<'a> {
    /// Score each group with [`KgeModel::score_triples`], its summands
    /// staged in the scratch.
    Score(&'a mut BlockScratch),
    /// Scores already formed by [`KgeModel::score_triples`] on the same
    /// tables, one per triple (S5's pool pass): the forward is skipped.
    Given(&'a [f32]),
}

/// The `k`-th summand of a model's [`KgeModel::score`] from element `k` of
/// each of the `P` parts of the head, relation and tail rows.
trait Term<const P: usize>: Fn([f32; P], [f32; P], [f32; P]) -> f32 + Copy {}
impl<const P: usize, F: Fn([f32; P], [f32; P], [f32; P]) -> f32 + Copy> Term<P> for F {}

/// `coeff · ∂term/∂x` for `x = h, r, t` (in that order), per part.
trait GradTerms<const P: usize>:
    Fn(f32, [f32; P], [f32; P], [f32; P]) -> [[f32; P]; 3] + Copy
{
}
impl<const P: usize, F> GradTerms<P> for F where
    F: Fn(f32, [f32; P], [f32; P], [f32; P]) -> [[f32; P]; 3] + Copy
{
}

/// The in-order sums of a forward group's summands, [`SCORE_LANES`] rows
/// of `rank` floats: [`in_order_sums`], or the transposed
/// `simd::row_sums_8` in the AVX copies.
trait Sums: Fn(&[f32], usize) -> [f32; SCORE_LANES] + Copy {}
impl<F: Fn(&[f32], usize) -> [f32; SCORE_LANES] + Copy> Sums for F {}

/// What a training driver runs: a model's definition and rank, and the
/// in-order sums of the level it runs at.
#[derive(Clone, Copy)]
struct Kernel<T, G, S> {
    term: T,
    grad_terms: G,
    sums: S,
    rank: usize,
}

impl<T, G, S> Kernel<T, G, S> {
    /// The same kernel, summing its forward groups with `sums`.
    #[inline(always)]
    fn with_sums<S2>(self, sums: S2) -> Kernel<T, G, S2> {
        Kernel { term: self.term, grad_terms: self.grad_terms, sums, rank: self.rank }
    }
}

/// A row of `P · rank` floats as its `P` parts of `rank` floats.
///
/// This and [`at`] are plain index loops on purpose: `array::from_fn` and
/// `array::map` put closures in the drivers' hot loops that inline late, or
/// not at all, into the `#[target_feature]` copies, and the loops around
/// them then keep bounds checks or stop vectorising (DESIGN.md §5).
#[inline(always)]
fn parts<const P: usize, T>(row: &[T], rank: usize) -> [&[T]; P] {
    debug_assert_eq!(row.len(), P * rank);
    // Sliced to `rank` last, so every part's length is the one value the
    // loops count to and their element reads need no checks of their own.
    let mut out = [&row[..0]; P];
    for p in 0..P {
        out[p] = &row[p * rank..][..rank];
    }
    out
}

/// Element `k` of every part.
#[inline(always)]
fn at<const P: usize>(row: &[&[f32]; P], k: usize) -> [f32; P] {
    let mut out = [0.0f32; P];
    for p in 0..P {
        out[p] = row[p][k];
    }
    out
}

/// The forward driver of every model: lengths asserted once, for every
/// level, then [`score_triples_body`]'s AVX-compiled copy at
/// [`crate::simd::Level::Avx`] and above, its baseline copy otherwise.
#[inline]
fn score_triples<const P: usize>(
    k: Kernel<impl Term<P>, impl GradTerms<P>, impl Sums>,
    tables: (&EmbeddingTable, &EmbeddingTable),
    triples: &[(u32, u32, u32)],
    scratch: &mut Vec<f32>,
    scores: &mut [f32],
) {
    assert_eq!(triples.len(), scores.len(), "one score per triple");
    assert!(tables.0.dim() == P * k.rank && tables.1.dim() == P * k.rank, "table rows");
    #[cfg(target_arch = "x86_64")]
    if crate::simd::use_avx() {
        // SAFETY: AVX was just detected at runtime.
        return unsafe { score_triples_avx(k, tables, triples, scratch, scores) };
    }
    score_triples_body(k, tables, triples, scratch, scores)
}

/// The same safe code with AVX enabled: the elementwise loops auto-vectorise
/// eight wide, and a group's sums are `simd::row_sums_8`'s transposed ones.
/// `avx` alone never licenses a fused multiply-add, which would round once
/// where [`KgeModel::score`] rounds twice.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn score_triples_avx<const P: usize>(
    k: Kernel<impl Term<P>, impl GradTerms<P>, impl Sums>,
    tables: (&EmbeddingTable, &EmbeddingTable),
    triples: &[(u32, u32, u32)],
    scratch: &mut Vec<f32>,
    scores: &mut [f32],
) {
    let k = k.with_sums(|terms: &[f32], n| crate::simd::row_sums_8::<false>(terms, n));
    score_triples_body(k, tables, triples, scratch, scores)
}

/// Score `triples` in groups of [`SCORE_LANES`], two phases per group.
/// **Terms**: one example's `term(h_k, r_k, t_k)` for every `k`, straight
/// from its three table rows into its `rank` floats of `scratch` —
/// elementwise, so any vector width gives the scalar expression's bits.
/// **In-order sums**: `k.sums`, each example's chain from `+0.0` in
/// `score`'s order — every example's additions are `score`'s, and only
/// independent chains overlap. A short last group sums whatever its unused
/// lanes hold and drops it.
#[inline(always)]
fn score_triples_body<const P: usize>(
    k: Kernel<impl Term<P>, impl GradTerms<P>, impl Sums>,
    (ent, rel): (&EmbeddingTable, &EmbeddingTable),
    triples: &[(u32, u32, u32)],
    scratch: &mut Vec<f32>,
    scores: &mut [f32],
) {
    let rank = k.rank;
    scratch.resize(SCORE_LANES * rank, 0.0);
    for (group, out) in triples.chunks(SCORE_LANES).zip(scores.chunks_mut(SCORE_LANES)) {
        for (&(h, r, t), terms) in group.iter().zip(scratch.chunks_exact_mut(rank)) {
            terms_of(k.term, ent.row(h as usize), rel.row(r as usize), ent.row(t as usize), terms);
        }
        // Zipped, not `copy_from_slice`: a copy of a length known only at
        // run time is a `memcpy` call per group.
        for (o, s) in out.iter_mut().zip((k.sums)(scratch, rank)) {
            *o = s;
        }
    }
}

/// The baseline copies' [`Sums`]: `acc[j] += terms[j][k]` for `k`
/// ascending, the group's chains interleaved.
#[inline(always)]
fn in_order_sums(terms: &[f32], rank: usize) -> [f32; SCORE_LANES] {
    let mut lanes = terms.chunks_exact(rank);
    let lanes: [&[f32]; SCORE_LANES] = std::array::from_fn(|_| lanes.next().expect("8 lanes"));
    let mut acc = [0.0f32; SCORE_LANES];
    for k in 0..rank {
        for (a, lane) in acc.iter_mut().zip(&lanes) {
            *a += lane[k];
        }
    }
    acc
}

/// One example's summands: `terms[k] = term(h_k, r_k, t_k)`. A function of
/// its own, with the rows and `terms` as separate reference parameters,
/// because that is what tells the compiler the stores cannot alias the
/// loads: written inline in the group loop, the same code pays three
/// overlap checks per example before it may vectorise.
///
/// `terms.len()` is `rank`. Counting a plain index to it, over parts cut to
/// it, is the form that vectorises whole: under `iter_mut().enumerate()` a
/// bounds check survives as a second loop exit and up to 16 elements per
/// example run scalar.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn terms_of<const P: usize>(term: impl Term<P>, h: &[f32], r: &[f32], t: &[f32], terms: &mut [f32]) {
    let n = terms.len();
    let (h, r, t) = (parts(h, n), parts(r, n), parts(t, n));
    for k in 0..n {
        terms[k] = term(at(&h, k), at(&r, k), at(&t, k));
    }
}

/// The transposed one-vs-all driver of every model: shapes asserted once,
/// for every level, then one of [`ova_t_body`]'s three copies — baseline,
/// AVX or AVX-512 — by [`crate::simd::level`]. `fixed` is `[query, r]`.
#[inline]
fn ova_t<const P: usize>(
    term: impl Term<P>,
    rank: usize,
    fixed: [&[f32]; 2],
    tile_t: &[f32],
    rows: usize,
    dir: ReplaceDir,
    scores: &mut [f32],
) {
    let dim = P * rank;
    assert!(fixed.iter().all(|x| x.len() == dim), "query and relation rows hold {dim} floats");
    assert_eq!(tile_t.len(), rows * dim, "tile of {rows} candidates");
    assert_eq!(scores.len(), rows, "one score per candidate");
    match crate::simd::level() {
        // SAFETY: the level is never above what the CPU was detected to run.
        #[cfg(target_arch = "x86_64")]
        crate::simd::Level::Avx512 => unsafe { ova_t_avx512(term, rank, fixed, tile_t, rows, dir, scores) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        crate::simd::Level::Avx => unsafe { ova_t_avx(term, rank, fixed, tile_t, rows, dir, scores) },
        _ => ova_t_body(term, rank, fixed, tile_t, rows, dir, scores),
    }
}

/// The same safe code with AVX enabled (see [`score_triples_avx`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn ova_t_avx<const P: usize>(
    term: impl Term<P>,
    rank: usize,
    fixed: [&[f32]; 2],
    tile_t: &[f32],
    rows: usize,
    dir: ReplaceDir,
    scores: &mut [f32],
) {
    ova_t_body(term, rank, fixed, tile_t, rows, dir, scores)
}

/// The same safe code with AVX-512 enabled: a chunk's 32 accumulators are
/// two `zmm` chains. `avx512f` makes a fused multiply-add available, but the
/// compiler never contracts a separate multiply and add into one, so the
/// bits are the other copies'. Only this driver has a 512-bit copy: compiled
/// at this width, the training forward and backward measured slower
/// (EXPERIMENTS.md, "Measured and rejected", (c)).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn ova_t_avx512<const P: usize>(
    term: impl Term<P>,
    rank: usize,
    fixed: [&[f32]; 2],
    tile_t: &[f32],
    rows: usize,
    dir: ReplaceDir,
    scores: &mut [f32],
) {
    ova_t_body(term, rank, fixed, tile_t, rows, dir, scores)
}

/// `dir` decides once, outside every loop, which side the candidate takes.
#[inline(always)]
fn ova_t_body<const P: usize>(
    term: impl Term<P>,
    rank: usize,
    [query, r]: [&[f32]; 2],
    tile_t: &[f32],
    rows: usize,
    dir: ReplaceDir,
    scores: &mut [f32],
) {
    match dir {
        ReplaceDir::Head => ova_t_sweep(|q, r, c| term(c, r, q), rank, query, r, tile_t, rows, scores),
        ReplaceDir::Tail => ova_t_sweep(term, rank, query, r, tile_t, rows, scores),
    }
}

/// Score every candidate of a column-major tile (`tile_t[k · rows + j]` is
/// element `k` of candidate `j`), [`OVA_T_LANES`] at a time: a chunk's
/// accumulators stay in registers across the whole `k` loop, start at
/// `+0.0` and take `term(query_k, r_k, candidate_k)` for `k` ascending —
/// each lane is one candidate's [`KgeModel::score`] sum, expression and
/// order, and only independent chains run side by side. Whatever of the
/// term depends on the query and relation alone is the same f32 value for
/// every lane, so it is formed once per `k`.
///
/// The ragged end of the tile, `rem < W` candidates, runs as one more
/// chunk: per `k`, its `rem` column elements are copied into a zeroed
/// stack buffer, the whole chunk is summed, and only `acc[..rem]` is kept.
/// The padding lanes sum terms of zeros that nothing reads.
#[inline(always)]
fn ova_t_sweep<const P: usize>(
    term: impl Term<P>,
    rank: usize,
    query: &[f32],
    r: &[f32],
    tile_t: &[f32],
    rows: usize,
    scores: &mut [f32],
) {
    const W: usize = OVA_T_LANES;
    let (q, r) = (parts::<P, _>(query, rank), parts::<P, _>(r, rank));
    // Part `p`'s `rank` columns of `rows` candidates each.
    let cols = parts::<P, _>(tile_t, rank * rows);
    let n_grouped = rows - rows % W;
    for (c0, out) in (0..n_grouped).step_by(W).zip(scores.chunks_exact_mut(W)) {
        let mut acc = [0.0f32; W];
        for k in 0..rank {
            let (qk, rk) = (at(&q, k), at(&r, k));
            let mut lanes = [&tile_t[..0]; P];
            for p in 0..P {
                // SAFETY: `k < rank` and `c0 + W <= n_grouped <= rows`, so
                // the range ends at or before `rank * rows`, the length
                // `parts` cut `cols[p]` to. A checked range here costs the
                // sweep 1.1–1.3× (EXPERIMENTS.md, "PR 21").
                lanes[p] = unsafe { cols[p].get_unchecked(k * rows + c0..k * rows + c0 + W) };
            }
            for (j, a) in acc.iter_mut().enumerate() {
                *a += term(qk, rk, at(&lanes, j));
            }
        }
        out.copy_from_slice(&acc);
    }
    let rem = rows - n_grouped;
    if rem != 0 {
        let mut acc = [0.0f32; W];
        let mut pad = [[0.0f32; W]; P];
        for k in 0..rank {
            let (qk, rk) = (at(&q, k), at(&r, k));
            for p in 0..P {
                pad[p][..rem].copy_from_slice(&cols[p][k * rows + n_grouped..][..rem]);
            }
            for (j, a) in acc.iter_mut().enumerate() {
                let mut cj = [0.0f32; P];
                for p in 0..P {
                    cj[p] = pad[p][j];
                }
                *a += term(qk, rk, cj);
            }
        }
        scores[n_grouped..].copy_from_slice(&acc[..rem]);
    }
}

/// Where one example's gradient lands in the two [`SparseGrad`] slabs.
/// Head and tail are offsets into one borrow of the entity slab, not two
/// slices, because a self-loop (`h == t`) names the same row twice.
struct GradDst<'a> {
    /// The entity accumulator's slab ([`SparseGrad::slab_mut`]).
    ent: &'a mut [f32],
    /// Offset of the head's row in `ent`.
    h: usize,
    /// Offset of the tail's row in `ent`.
    t: usize,
    /// The relation's row.
    rel: &'a mut [f32],
}

/// The block driver of every model: shapes asserted once per call, for
/// every level, then [`grad_block_body`]'s AVX-compiled or baseline copy,
/// as [`score_triples`] chooses — so the level is read once per block and
/// every group's forward and backward run inside one copy.
#[inline]
fn grad_block<const P: usize>(
    k: Kernel<impl Term<P>, impl GradTerms<P>, impl Sums>,
    tables: (&EmbeddingTable, &EmbeddingTable),
    triples: &[(u32, u32, u32)],
    forward: Forward<'_>,
    l2: f32,
    coeff_of: &mut dyn FnMut(usize, f32) -> f32,
    out: (&mut SparseGrad, &mut SparseGrad),
) {
    let dim = P * k.rank;
    assert!(tables.0.dim() == dim && tables.1.dim() == dim, "table rows");
    assert!(out.0.dim() == dim && out.1.dim() == dim, "accumulator rows");
    if let Forward::Given(scores) = &forward {
        assert_eq!(scores.len(), triples.len(), "one score per triple");
    }
    #[cfg(target_arch = "x86_64")]
    if crate::simd::use_avx() {
        // SAFETY: AVX was just detected at runtime.
        return unsafe { grad_block_avx(k, tables, triples, forward, l2, coeff_of, out) };
    }
    grad_block_body(k, tables, triples, forward, l2, coeff_of, out)
}

/// The same safe code with AVX enabled (see [`score_triples_avx`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn grad_block_avx<const P: usize>(
    k: Kernel<impl Term<P>, impl GradTerms<P>, impl Sums>,
    tables: (&EmbeddingTable, &EmbeddingTable),
    triples: &[(u32, u32, u32)],
    forward: Forward<'_>,
    l2: f32,
    coeff_of: &mut dyn FnMut(usize, f32) -> f32,
    out: (&mut SparseGrad, &mut SparseGrad),
) {
    let k = k.with_sums(|terms: &[f32], n| crate::simd::row_sums_8::<false>(terms, n));
    grad_block_body(k, tables, triples, forward, l2, coeff_of, out)
}

/// [`KgeModel::grad_block`], one group of [`BLOCK_GROUP`] examples at a
/// time: the group's scores ([`score_triples_body`], or the given ones),
/// then its coefficients in example order, then example by example the
/// regularized backward ([`grad_add_body`]) into the example's accumulator
/// rows, head slot before tail slot.
#[inline(always)]
fn grad_block_body<const P: usize>(
    k: Kernel<impl Term<P>, impl GradTerms<P>, impl Sums>,
    (ent, rel): (&EmbeddingTable, &EmbeddingTable),
    triples: &[(u32, u32, u32)],
    mut forward: Forward<'_>,
    l2: f32,
    coeff_of: &mut dyn FnMut(usize, f32) -> f32,
    (ent_out, rel_out): (&mut SparseGrad, &mut SparseGrad),
) {
    const L: usize = BLOCK_GROUP;
    let dim = P * k.rank;
    let mut scores = [0.0f32; L];
    // Every row the block names is below its table's height: declared as
    // the accumulators' bound, each lookup is one load from the row map.
    ent_out.reserve_rows(ent.rows());
    rel_out.reserve_rows(rel.rows());
    for (g, group) in triples.chunks(L).enumerate() {
        let scores = &mut scores[..group.len()];
        match &mut forward {
            Forward::Score(scratch) => score_triples_body(k, (ent, rel), group, &mut scratch.terms, scores),
            Forward::Given(given) => scores.copy_from_slice(&given[g * L..][..group.len()]),
        }
        // Scores become coefficients in place, the whole group before its
        // first backward.
        for (i, s) in scores.iter_mut().enumerate() {
            *s = coeff_of(g * L + i, *s);
        }
        for (&coeff, &(h, r, t)) in scores.iter().zip(group) {
            let (hs, ts, rs) = (ent_out.slot_of(h), ent_out.slot_of(t), rel_out.slot_of(r));
            let src = [ent.row(h as usize), rel.row(r as usize), ent.row(t as usize)];
            let dst = GradDst {
                ent: ent_out.slab_mut(),
                h: hs * dim,
                t: ts * dim,
                rel: rel_out.slot_mut(rs),
            };
            grad_add_body(k.grad_terms, k.rank, src, coeff, l2, dst);
        }
    }
}

/// One example's `coeff · ∂φ/∂x + l2 · x` for `x = h, t, r`, read from the
/// table rows `src = [h, r, t]` and added into the rows `dst` names,
/// [`GRAD_LANES`] elements of every part at a time and the rest of `rank`
/// one by one. The backward is elementwise over `k`, so any width forms the
/// scalar expression's bits.
///
/// The destinations are `Cell`s because a self-loop's head and tail rows
/// are one row: every element is fully formed before it is added, and a row
/// receives its head addition before its tail addition — the f32 sequence
/// of "form the example's three gradient rows, then `+=` them head, tail,
/// relation", without the rows in between.
#[inline(always)]
fn grad_add_body<const P: usize>(
    grad_terms: impl GradTerms<P>,
    rank: usize,
    src: [&[f32]; 3],
    coeff: f32,
    l2: f32,
    dst: GradDst<'_>,
) {
    const W: usize = GRAD_LANES;
    let dim = P * rank;
    let ent = Cell::from_mut(dst.ent).as_slice_of_cells();
    let rel = Cell::from_mut(dst.rel).as_slice_of_cells();
    let dst = [&ent[dst.h..dst.h + dim], &ent[dst.t..dst.t + dim], rel];
    let (src_wide, src_rest) = chunked::<P, W, _>(src, rank);
    let (dst_wide, dst_rest) = chunked::<P, W, _>(dst, rank);
    grad_add_chunks(grad_terms, coeff, l2, src_wide, dst_wide);
    grad_add_chunks(grad_terms, coeff, l2, src_rest, dst_rest);
}

/// The `P` parts of three rows, each part as a run of `W`-element chunks.
type Chunks<'a, T, const P: usize, const W: usize> = [[&'a [[T; W]]; P]; 3];

/// Each of the `P` parts of three rows as its whole chunks of `W`, and what
/// is left of `rank` past them as chunks of one.
#[inline(always)]
fn chunked<const P: usize, const W: usize, T>(
    rows: [&[T]; 3],
    rank: usize,
) -> (Chunks<'_, T, P, W>, Chunks<'_, T, P, 1>) {
    let (mut wide, mut rest) = ([[&[][..]; P]; 3], [[&[][..]; P]; 3]);
    for (i, row) in rows.into_iter().enumerate() {
        for (p, part) in parts::<P, _>(row, rank).into_iter().enumerate() {
            let (chunks, tail) = part.as_chunks();
            (wide[i][p], rest[i][p]) = (chunks, tail.as_chunks().0);
        }
    }
    (wide, rest)
}

/// [`grad_add_body`] over chunks of `W` elements: form a chunk's
/// `3 · P · W` values from `[h, r, t]`, then add them to
/// `[head, tail, relation]` in that order.
#[inline(always)]
fn grad_add_chunks<const P: usize, const W: usize>(
    grad_terms: impl GradTerms<P>,
    coeff: f32,
    l2: f32,
    src: Chunks<'_, f32, P, W>,
    [gh, gt, gr]: Chunks<'_, Cell<f32>, P, W>,
) {
    let [h, r, t] = src;
    for i in 0..h[0].len() {
        // Three staging arrays, not one `[[[f32; W]; P]; 3]`: the compiler
        // vectorises the `j` loop over these and not over that.
        let (mut add_h, mut add_r, mut add_t) = ([[0.0f32; W]; P], [[0.0f32; W]; P], [[0.0f32; W]; P]);
        for j in 0..W {
            let (mut hj, mut rj, mut tj) = ([0.0f32; P], [0.0f32; P], [0.0f32; P]);
            for p in 0..P {
                (hj[p], rj[p], tj[p]) = (h[p][i][j], r[p][i][j], t[p][i][j]);
            }
            let [dh, dr, dt] = grad_terms(coeff, hj, rj, tj);
            for p in 0..P {
                add_h[p][j] = dh[p] + l2 * hj[p];
                add_r[p][j] = dr[p] + l2 * rj[p];
                add_t[p][j] = dt[p] + l2 * tj[p];
            }
        }
        for (row, add) in [(gh, add_h), (gt, add_t), (gr, add_r)] {
            for (part, add) in row.iter().zip(&add) {
                for (d, a) in part[i].iter().zip(add) {
                    d.set(d.get() + a);
                }
            }
        }
    }
}

/// A knowledge-graph embedding scoring model.
///
/// `storage_dim(d)` says how many floats one embedding row needs for a
/// model "rank" of `d` (ComplEx stores real and imaginary halves, so `2d`).
pub trait KgeModel: Send + Sync {
    /// Human-readable name, e.g. `"complex"`.
    fn name(&self) -> &'static str;

    /// Model rank (the `d` of the paper; embeddings live in C^d or R^d).
    fn rank(&self) -> usize;

    /// Floats stored per embedding row.
    fn storage_dim(&self) -> usize;

    /// Plausibility score of the triple: the model's summands added from
    /// `+0.0` for `k` ascending — the scalar reference every kernel below
    /// reproduces to the bit.
    fn score(&self, h: &[f32], r: &[f32], t: &[f32]) -> f32;

    /// Accumulate `coeff · ∂φ/∂(h,r,t)` into the three gradient rows.
    ///
    /// `coeff` is the upstream loss derivative `∂L/∂φ`, so after this call
    /// the gradient rows hold `∂L/∂row` contributions for this triple.
    /// Training goes through [`Self::score_grad_block`]; this is the scalar
    /// reference the test suites and benches hold it to, and has no other
    /// caller.
    #[allow(clippy::too_many_arguments)]
    fn grad(
        &self,
        h: &[f32],
        r: &[f32],
        t: &[f32],
        coeff: f32,
        gh: &mut [f32],
        gr: &mut [f32],
        gt: &mut [f32],
    );

    /// Floating-point operations of one `score` call (for the simulated
    /// clock). A `grad` call is costed at twice this.
    fn score_flops(&self) -> f64;

    /// Score one query against a **column-major** tile of candidate
    /// entities — the one-vs-all evaluation and serving kernel.
    ///
    /// `query` is the fixed entity row (the head under [`ReplaceDir::Tail`],
    /// the tail under [`ReplaceDir::Head`]), `r` the relation row, and
    /// `tile_t[k * rows + j]` holds element `k` of candidate `j`
    /// (`0 ≤ j < rows`, `0 ≤ k < storage_dim()`). `scores[j]` receives `φ`
    /// with candidate `j` substituted on the replaced side, by the exact
    /// expression and reduction order of [`Self::score`], so every score is
    /// **bit-identical** to the scalar call — ranks derived from a tile
    /// sweep (including tie counts) match the one-candidate-at-a-time path
    /// exactly.
    ///
    /// The transposed layout makes the inner candidate loop unit-stride —
    /// one `k` broadcasts the query/relation scalars against a contiguous
    /// run of candidate elements. Callers transpose a tile once and reuse
    /// it across every query and direction of a work unit.
    fn score_one_vs_all_transposed(
        &self,
        query: &[f32],
        r: &[f32],
        tile_t: &[f32],
        rows: usize,
        dir: ReplaceDir,
        scores: &mut [f32],
    );

    /// Forward-score `(head, rel, tail)` triples straight from the tables —
    /// the training forward and S5's pool scoring: `scores[i]` receives
    /// exactly [`Self::score`]'s bits for `triples[i]` — but a RotatE score
    /// that is NaN may carry the other sign, because the negated summand is
    /// staged here and folded into a subtraction there (module docs). One
    /// group's summands live in `scratch` (`SCORE_LANES × rank` floats,
    /// reused).
    fn score_triples(
        &self,
        ent: &EmbeddingTable,
        rel: &EmbeddingTable,
        triples: &[(u32, u32, u32)],
        scratch: &mut Vec<f32>,
        scores: &mut [f32],
    );

    /// Fused batched kernel for one block of `(head, rel, tail)` triples,
    /// one group of [`BLOCK_GROUP`] examples at a time: **score** the group
    /// ([`Self::score_triples`]), turn each score into an upstream loss
    /// coefficient via `coeff_of(example_idx, score)` (called in example
    /// order — the place to accumulate the loss), then, example by example,
    /// **add** the regularized gradient `coeff · ∂φ/∂x + l2_reg · x` for
    /// `x = h, t, r` (L2 always executed, each element fully formed first)
    /// to the example's rows of the sparse accumulators. Rows enter an
    /// accumulator in example order, head before tail.
    ///
    /// No embedding row is copied and no gradient row is staged, and every
    /// destination row receives the f32 additions of the
    /// one-triple-at-a-time path in its order, so chunked results stay
    /// bit-identical across thread-pool sizes and dispatch arms. `scratch`
    /// is sized by `rank()` alone and reused — steady state allocates
    /// nothing. The same as [`Self::grad_block`] with [`Forward::Score`].
    #[allow(clippy::too_many_arguments)]
    fn score_grad_block(
        &self,
        ent: &EmbeddingTable,
        rel: &EmbeddingTable,
        triples: &[(u32, u32, u32)],
        l2_reg: f32,
        scratch: &mut BlockScratch,
        coeff_of: &mut dyn FnMut(usize, f32) -> f32,
        ent_out: &mut SparseGrad,
        rel_out: &mut SparseGrad,
    ) {
        let forward = Forward::Score(scratch);
        self.grad_block((ent, rel), triples, forward, l2_reg, coeff_of, (ent_out, rel_out));
    }

    /// [`Self::score_grad_block`] over `tables = (ent, rel)` into
    /// `out = (ent_out, rel_out)`, taking its scores from `forward`: given
    /// scores are exactly the ones it would form, so the accumulators and
    /// every `coeff_of` call come out the same to the bit either way.
    fn grad_block(
        &self,
        tables: (&EmbeddingTable, &EmbeddingTable),
        triples: &[(u32, u32, u32)],
        forward: Forward<'_>,
        l2_reg: f32,
        coeff_of: &mut dyn FnMut(usize, f32) -> f32,
        out: (&mut SparseGrad, &mut SparseGrad),
    );
}

/// A model from its definition: the struct, and a [`KgeModel`] whose every
/// method is a generic loop over `$term` / `$grad_terms` on rows of `$parts`
/// parts.
macro_rules! kge_model {
    (
        $(#[$doc:meta])*
        $model:ident, $name:literal, parts = $parts:literal, flops_per_rank = $flops:literal,
        $term:ident, $grad_terms:ident
    ) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct $model {
            rank: usize,
        }

        impl $model {
            pub fn new(rank: usize) -> Self {
                assert!(rank > 0);
                $model { rank }
            }

            /// The training drivers' kernel, at the baseline level's sums.
            #[inline(always)]
            fn kernel(&self) -> Kernel<impl Term<$parts>, impl GradTerms<$parts>, impl Sums> {
                Kernel { term: $term, grad_terms: $grad_terms, sums: in_order_sums, rank: self.rank }
            }
        }

        impl KgeModel for $model {
            fn name(&self) -> &'static str {
                $name
            }

            fn rank(&self) -> usize {
                self.rank
            }

            fn storage_dim(&self) -> usize {
                $parts * self.rank
            }

            fn score(&self, h: &[f32], r: &[f32], t: &[f32]) -> f32 {
                let rank = self.rank;
                let (h, r, t) = (parts(h, rank), parts(r, rank), parts(t, rank));
                let mut s = 0.0f32;
                for k in 0..rank {
                    s += $term(at(&h, k), at(&r, k), at(&t, k));
                }
                s
            }

            fn grad(
                &self,
                h: &[f32],
                r: &[f32],
                t: &[f32],
                coeff: f32,
                gh: &mut [f32],
                gr: &mut [f32],
                gt: &mut [f32],
            ) {
                let rank = self.rank;
                let (h, r, t) = (parts(h, rank), parts(r, rank), parts(t, rank));
                for k in 0..rank {
                    let [dh, dr, dt] = $grad_terms(coeff, at(&h, k), at(&r, k), at(&t, k));
                    for p in 0..$parts {
                        gh[p * rank + k] += dh[p];
                        gr[p * rank + k] += dr[p];
                        gt[p * rank + k] += dt[p];
                    }
                }
            }

            fn score_flops(&self) -> f64 {
                ($flops * self.rank) as f64
            }

            fn grad_block(
                &self,
                tables: (&EmbeddingTable, &EmbeddingTable),
                triples: &[(u32, u32, u32)],
                forward: Forward<'_>,
                l2_reg: f32,
                coeff_of: &mut dyn FnMut(usize, f32) -> f32,
                out: (&mut SparseGrad, &mut SparseGrad),
            ) {
                grad_block::<$parts>(self.kernel(), tables, triples, forward, l2_reg, coeff_of, out)
            }

            fn score_one_vs_all_transposed(
                &self,
                query: &[f32],
                r: &[f32],
                tile_t: &[f32],
                rows: usize,
                dir: ReplaceDir,
                scores: &mut [f32],
            ) {
                ova_t::<$parts>($term, self.rank, [query, r], tile_t, rows, dir, scores)
            }

            fn score_triples(
                &self,
                ent: &EmbeddingTable,
                rel: &EmbeddingTable,
                triples: &[(u32, u32, u32)],
                scratch: &mut Vec<f32>,
                scores: &mut [f32],
            ) {
                score_triples::<$parts>(self.kernel(), (ent, rel), triples, scratch, scores)
            }
        }
    };
}

kge_model! {
    /// ComplEx (Trouillon et al., 2016) — the paper's model.
    ///
    /// Rows store `[Re(e_1..d) | Im(e_1..d)]`. The score is
    /// `φ = Re(⟨r, h, conj(t)⟩)`, expanded (paper Eq. 1) as
    ///
    /// ```text
    /// φ = Σ_k  Re(r)(Re(h)Re(t) + Im(h)Im(t)) + Im(r)(Re(h)Im(t) − Im(h)Re(t))
    /// ```
    ///
    /// with no algebraic refactoring (e.g. pre-folding `r` into the query),
    /// which would change f32 rounding.
    ComplEx, "complex", parts = 2, flops_per_rank = 10, complex_term, complex_grad_terms
}

#[inline(always)]
fn complex_term([hr, hi]: [f32; 2], [rr, ri]: [f32; 2], [tr, ti]: [f32; 2]) -> f32 {
    rr * (hr * tr + hi * ti) + ri * (hr * ti - hi * tr)
}

#[inline(always)]
fn complex_grad_terms(
    c: f32,
    [hr, hi]: [f32; 2],
    [rr, ri]: [f32; 2],
    [tr, ti]: [f32; 2],
) -> [[f32; 2]; 3] {
    [
        // ∂φ/∂Re(h) = Re(r)Re(t) + Im(r)Im(t), ∂φ/∂Im(h) = Re(r)Im(t) − Im(r)Re(t)
        [c * (rr * tr + ri * ti), c * (rr * ti - ri * tr)],
        // ∂φ/∂Re(r) = Re(h)Re(t) + Im(h)Im(t), ∂φ/∂Im(r) = Re(h)Im(t) − Im(h)Re(t)
        [c * (hr * tr + hi * ti), c * (hr * ti - hi * tr)],
        // ∂φ/∂Re(t) = Re(r)Re(h) − Im(r)Im(h), ∂φ/∂Im(t) = Re(r)Im(h) + Im(r)Re(h)
        [c * (rr * hr - ri * hi), c * (rr * hi + ri * hr)],
    ]
}

kge_model! {
    /// DistMult — ComplEx restricted to real embeddings: `φ = Σ (h·r)·t`,
    /// in that association on every path.
    DistMult, "distmult", parts = 1, flops_per_rank = 3, distmult_term, distmult_grad_terms
}

#[inline(always)]
fn distmult_term([h]: [f32; 1], [r]: [f32; 1], [t]: [f32; 1]) -> f32 {
    h * r * t
}

#[inline(always)]
fn distmult_grad_terms(c: f32, [h]: [f32; 1], [r]: [f32; 1], [t]: [f32; 1]) -> [[f32; 1]; 3] {
    [[c * r * t], [c * h * t], [c * h * r]]
}

kge_model! {
    /// TransE — translation model. The *score* here is the negated squared
    /// distance `φ = −‖(h + r) − t‖²` so that, like the multiplicative
    /// models, larger means more plausible and the same logistic loss
    /// applies. The summand is `−(d·d)`; adding the negation is `s -= d·d`
    /// to the bit.
    TransE, "transe", parts = 1, flops_per_rank = 4, transe_term, transe_grad_terms
}

#[inline(always)]
fn transe_term([h]: [f32; 1], [r]: [f32; 1], [t]: [f32; 1]) -> f32 {
    let d = h + r - t;
    -(d * d)
}

#[inline(always)]
fn transe_grad_terms(c: f32, [h]: [f32; 1], [r]: [f32; 1], [t]: [f32; 1]) -> [[f32; 1]; 3] {
    let d = h + r - t;
    // ∂φ/∂h = −2d, ∂φ/∂r = −2d, ∂φ/∂t = +2d
    [[c * (-2.0 * d)], [c * (-2.0 * d)], [c * (2.0 * d)]]
}

kge_model! {
    /// RotatE-style rotation model (Sun et al. 2019), unconstrained variant:
    /// entities and relations are complex vectors (rows split re/im like
    /// ComplEx's) and the score is the negated squared modulus of the
    /// rotation residual, `φ = −Σ_k |h_k · r_k − t_k|²`. The canonical
    /// RotatE constrains `|r_k| = 1`; this implementation leaves the modulus
    /// free (a common relaxation that keeps the parametrization
    /// unconstrained and the gradient simple) — relations can rotate *and*
    /// scale.
    RotatE, "rotate", parts = 2, flops_per_rank = 14, rotate_term, rotate_grad_terms
}

#[inline(always)]
fn rotate_term([hr, hi]: [f32; 2], [rr, ri]: [f32; 2], [tr, ti]: [f32; 2]) -> f32 {
    let ure = hr * rr - hi * ri - tr;
    let uim = hr * ri + hi * rr - ti;
    -(ure * ure + uim * uim)
}

#[inline(always)]
fn rotate_grad_terms(
    coeff: f32,
    [hr, hi]: [f32; 2],
    [rr, ri]: [f32; 2],
    [tr, ti]: [f32; 2],
) -> [[f32; 2]; 3] {
    let ure = hr * rr - hi * ri - tr;
    let uim = hr * ri + hi * rr - ti;
    let c = -2.0 * coeff;
    [
        [c * (ure * rr + uim * ri), c * (-ure * ri + uim * rr)],
        [c * (ure * hr + uim * hi), c * (-ure * hi + uim * hr)],
        [-c * ure, -c * uim],
    ]
}

kge_model! {
    /// SimplE (Kazemi & Poole 2018): every entity keeps a head-role and a
    /// tail-role embedding, every relation a forward and an inverse vector;
    /// `φ = ½(⟨h_head, r, t_tail⟩ + ⟨t_head, r⁻¹, h_tail⟩)`. Rows store
    /// `[head-role | tail-role]` for entities and `[forward | inverse]` for
    /// relations, so the uniform `storage_dim = 2·rank` layout holds.
    SimplE, "simple", parts = 2, flops_per_rank = 6, simple_term, simple_grad_terms
}

#[inline(always)]
fn simple_term([hh, ht]: [f32; 2], [rf, rinv]: [f32; 2], [th, tt]: [f32; 2]) -> f32 {
    0.5 * (hh * rf * tt + th * rinv * ht)
}

#[inline(always)]
fn simple_grad_terms(
    coeff: f32,
    [hh, ht]: [f32; 2],
    [rf, rinv]: [f32; 2],
    [th, tt]: [f32; 2],
) -> [[f32; 2]; 3] {
    let half = 0.5 * coeff;
    [
        [half * rf * tt, half * th * rinv],
        [half * hh * tt, half * th * ht],
        [half * rinv * ht, half * hh * rf],
    ]
}

/// ComplEx score expressed via complex-number arithmetic; slow oracle used
/// by tests to validate the fused implementation.
pub fn complex_score_oracle(rank: usize, h: &[f32], r: &[f32], t: &[f32]) -> f32 {
    let (hr, hi) = h.split_at(rank);
    let (rr, ri) = r.split_at(rank);
    let (tr, ti) = t.split_at(rank);
    let mut total = 0.0f32;
    for k in 0..rank {
        // Re( r * h * conj(t) )
        let (a, b) = (rr[k], ri[k]); // r
        let (c, d) = (hr[k], hi[k]); // h
        let (e, f) = (tr[k], -ti[k]); // conj(t)
        // (a+bi)(c+di) = (ac−bd) + (ad+bc)i
        let (x, y) = (a * c - b * d, a * d + b * c);
        // (x+yi)(e+fi) real part = xe − yf
        total += x * e - y * f;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::axpy;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_vec(rng: &mut StdRng, n: usize) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    /// Whether two slices are elementwise within `tol`.
    fn approx_eq(a: &[f32], b: &[f32], tol: f32) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
    }

    fn numeric_grad(
        model: &dyn KgeModel,
        h: &[f32],
        r: &[f32],
        t: &[f32],
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let eps = 1e-3f32;
        let d = model.storage_dim();
        let mut gh = vec![0.0; d];
        let mut gr = vec![0.0; d];
        let mut gt = vec![0.0; d];
        let mut hh = h.to_vec();
        let mut rr = r.to_vec();
        let mut tt = t.to_vec();
        for k in 0..d {
            hh[k] = h[k] + eps;
            let up = model.score(&hh, r, t);
            hh[k] = h[k] - eps;
            let dn = model.score(&hh, r, t);
            hh[k] = h[k];
            gh[k] = (up - dn) / (2.0 * eps);

            rr[k] = r[k] + eps;
            let up = model.score(h, &rr, t);
            rr[k] = r[k] - eps;
            let dn = model.score(h, &rr, t);
            rr[k] = r[k];
            gr[k] = (up - dn) / (2.0 * eps);

            tt[k] = t[k] + eps;
            let up = model.score(h, r, &tt);
            tt[k] = t[k] - eps;
            let dn = model.score(h, r, &tt);
            tt[k] = t[k];
            gt[k] = (up - dn) / (2.0 * eps);
        }
        (gh, gr, gt)
    }

    fn check_model_grads(model: &dyn KgeModel) {
        let mut rng = StdRng::seed_from_u64(42);
        let d = model.storage_dim();
        for _ in 0..5 {
            let h = rand_vec(&mut rng, d);
            let r = rand_vec(&mut rng, d);
            let t = rand_vec(&mut rng, d);
            let (nh, nr, nt) = numeric_grad(model, &h, &r, &t);
            let mut gh = vec![0.0; d];
            let mut gr = vec![0.0; d];
            let mut gt = vec![0.0; d];
            model.grad(&h, &r, &t, 1.0, &mut gh, &mut gr, &mut gt);
            assert!(approx_eq(&gh, &nh, 2e-2), "{} dφ/dh", model.name());
            assert!(approx_eq(&gr, &nr, 2e-2), "{} dφ/dr", model.name());
            assert!(approx_eq(&gt, &nt, 2e-2), "{} dφ/dt", model.name());
        }
    }

    #[test]
    fn complex_grad_matches_numeric() {
        check_model_grads(&ComplEx::new(6));
    }

    #[test]
    fn distmult_grad_matches_numeric() {
        check_model_grads(&DistMult::new(8));
    }

    #[test]
    fn transe_grad_matches_numeric() {
        check_model_grads(&TransE::new(8));
    }

    #[test]
    fn complex_matches_complex_arithmetic_oracle() {
        let mut rng = StdRng::seed_from_u64(9);
        let m = ComplEx::new(5);
        for _ in 0..20 {
            let h = rand_vec(&mut rng, 10);
            let r = rand_vec(&mut rng, 10);
            let t = rand_vec(&mut rng, 10);
            let fused = m.score(&h, &r, &t);
            let oracle = complex_score_oracle(5, &h, &r, &t);
            assert!((fused - oracle).abs() < 1e-4, "{fused} vs {oracle}");
        }
    }

    #[test]
    fn grad_accumulates_with_coeff() {
        let m = DistMult::new(2);
        let h = [1.0, 2.0];
        let r = [3.0, 4.0];
        let t = [5.0, 6.0];
        let mut gh = vec![100.0, 100.0];
        let mut gr = vec![0.0, 0.0];
        let mut gt = vec![0.0, 0.0];
        m.grad(&h, &r, &t, 0.5, &mut gh, &mut gr, &mut gt);
        // gh += 0.5 * r*t = 0.5*[15, 24]
        assert_eq!(gh, vec![107.5, 112.0]);
    }

    #[test]
    fn storage_dims() {
        assert_eq!(ComplEx::new(100).storage_dim(), 200);
        assert_eq!(DistMult::new(100).storage_dim(), 100);
        assert_eq!(TransE::new(100).storage_dim(), 100);
    }

    #[test]
    fn transe_score_is_negative_distance() {
        let m = TransE::new(2);
        // perfect translation: h + r == t
        assert_eq!(m.score(&[1.0, 0.0], &[0.5, 0.5], &[1.5, 0.5]), 0.0);
        assert!(m.score(&[1.0, 0.0], &[0.5, 0.5], &[0.0, 0.0]) < 0.0);
    }

    #[test]
    fn rotate_grad_matches_numeric() {
        check_model_grads(&RotatE::new(5));
    }

    #[test]
    fn simple_grad_matches_numeric() {
        check_model_grads(&SimplE::new(6));
    }

    #[test]
    fn rotate_score_zero_for_exact_rotation() {
        // h = (1, 0), r = (0, 1) [rotation by 90°], t = h·r = (0, 1).
        let m = RotatE::new(1);
        assert_eq!(m.score(&[1.0, 0.0], &[0.0, 1.0], &[0.0, 1.0]), 0.0);
        // Any other tail scores negative.
        assert!(m.score(&[1.0, 0.0], &[0.0, 1.0], &[1.0, 0.0]) < 0.0);
    }

    /// The block kernel's backward against the definition — form the three
    /// rows with `grad` and the L2 term, then `+=` them head, tail, relation
    /// — into accumulators already holding values, on distinct rows in
    /// either slot order and on a self-loop, where head and tail land in one
    /// row.
    fn check_block_backward_matches_scalar(model: &dyn KgeModel) {
        let mut rng = StdRng::seed_from_u64(33);
        let dim = model.storage_dim();
        let (mut ent, mut rel) = (EmbeddingTable::zeros(2, dim), EmbeddingTable::zeros(1, dim));
        ent.as_mut_slice().copy_from_slice(&rand_vec(&mut rng, 2 * dim));
        rel.as_mut_slice().copy_from_slice(&rand_vec(&mut rng, dim));
        let (coeff, l2) = (0.37f32, 0.011f32);
        for (t, slots) in [(1u32, [0u32, 1]), (1, [1, 0]), (0, [0, 1])] {
            let (hrow, rrow, trow) = (ent.row(0), rel.row(0), ent.row(t as usize));
            let (mut gh, mut gr, mut gt) = (vec![0.0f32; dim], vec![0.0f32; dim], vec![0.0f32; dim]);
            model.grad(hrow, rrow, trow, coeff, &mut gh, &mut gr, &mut gt);
            axpy(l2, hrow, &mut gh);
            axpy(l2, rrow, &mut gr);
            axpy(l2, trow, &mut gt);
            // Non-zero destinations, so accumulation is what is checked.
            let (mut ent_out, mut rel_out) = (SparseGrad::new(dim), SparseGrad::new(dim));
            for row in slots {
                ent_out.row_mut(row).copy_from_slice(&rand_vec(&mut rng, dim));
            }
            rel_out.row_mut(0).copy_from_slice(&rand_vec(&mut rng, dim));
            let (mut want_ent, mut want_rel) = (ent_out.clone(), rel_out.clone());
            axpy(1.0, &gh, want_ent.row_mut(0));
            axpy(1.0, &gt, want_ent.row_mut(t));
            axpy(1.0, &gr, want_rel.row_mut(0));
            let forward = Forward::Given(&[f32::NAN]);
            let out = (&mut ent_out, &mut rel_out);
            model.grad_block((&ent, &rel), &[(0, 0, t)], forward, l2, &mut |_, _| coeff, out);
            for row in slots {
                assert_eq!(ent_out.get(row), want_ent.get(row), "{} entity row {row}, tail {t}", model.name());
            }
            assert_eq!(rel_out.get(0), want_rel.get(0), "{} relation row, tail {t}", model.name());
        }
    }

    #[test]
    fn block_backward_matches_scalar_for_every_model() {
        check_block_backward_matches_scalar(&ComplEx::new(13)); // one vector step + tail
        check_block_backward_matches_scalar(&DistMult::new(19));
        check_block_backward_matches_scalar(&TransE::new(8));
        check_block_backward_matches_scalar(&RotatE::new(5)); // tail only
        check_block_backward_matches_scalar(&SimplE::new(16)); // vector steps only
    }

    fn check_transposed_matches_scalar(model: &dyn KgeModel) {
        let mut rng = StdRng::seed_from_u64(56);
        let dim = model.storage_dim();
        // Not a multiple of any lane width, to exercise ragged columns.
        let rows = 11;
        let query = rand_vec(&mut rng, dim);
        let r = rand_vec(&mut rng, dim);
        let candidates = rand_vec(&mut rng, rows * dim);
        let mut tile_t = vec![0.0f32; rows * dim];
        for j in 0..rows {
            for k in 0..dim {
                tile_t[k * rows + j] = candidates[j * dim + k];
            }
        }
        for dir in [ReplaceDir::Head, ReplaceDir::Tail] {
            // Poison the output so overwrite semantics are exercised.
            let mut scores = vec![99.0f32; rows];
            model.score_one_vs_all_transposed(&query, &r, &tile_t, rows, dir, &mut scores);
            for j in 0..rows {
                let c = &candidates[j * dim..(j + 1) * dim];
                let scalar = match dir {
                    ReplaceDir::Head => model.score(c, &r, &query),
                    ReplaceDir::Tail => model.score(&query, &r, c),
                };
                assert_eq!(
                    scores[j].to_bits(),
                    scalar.to_bits(),
                    "{} transposed one-vs-all {dir:?} candidate {j}",
                    model.name()
                );
            }
        }
    }

    #[test]
    fn transposed_one_vs_all_matches_scalar() {
        check_transposed_matches_scalar(&ComplEx::new(5));
        check_transposed_matches_scalar(&DistMult::new(8));
        check_transposed_matches_scalar(&TransE::new(8));
        check_transposed_matches_scalar(&RotatE::new(5));
        check_transposed_matches_scalar(&SimplE::new(6));
    }

    /// Every driver checks its shapes before it dispatches: a wrong length
    /// panics at every level, where the baseline copies once left a
    /// too-long `scores` half-written.
    #[test]
    fn drivers_reject_bad_shapes_at_every_level() {
        use crate::simd::{set_level, Level};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let _arm = crate::simd::TEST_ARM.lock().unwrap_or_else(|e| e.into_inner());
        let m = ComplEx::new(4);
        let row = [0.5f32; 8];
        let (ent, rel) = (EmbeddingTable::zeros(3, 8), EmbeddingTable::zeros(1, 8));
        // `tile` floats for three candidates into `scores` slots; one forward
        // triple into `fwd` slots; one block triple with `given` scores.
        let run = |tile: usize, scores: usize, fwd: usize, given: usize| {
            catch_unwind(AssertUnwindSafe(|| {
                let tile_t = vec![0.25f32; tile];
                m.score_one_vs_all_transposed(&row, &row, &tile_t, 3, ReplaceDir::Tail, &mut vec![0.0; scores]);
                m.score_triples(&ent, &rel, &[(0, 0, 1)], &mut Vec::new(), &mut vec![0.0; fwd]);
                let (mut eg, mut rg) = (SparseGrad::new(8), SparseGrad::new(8));
                let forward = Forward::Given(&[0.5; 2][..given]);
                m.grad_block((&ent, &rel), &[(0, 0, 1)], forward, 0.01, &mut |_, s| s, (&mut eg, &mut rg));
            }))
            .is_ok()
        };
        for &level in Level::detected() {
            set_level(Some(level));
            assert!(run(24, 3, 1, 1), "well-formed calls pass ({level:?})");
            assert!(!run(23, 3, 1, 1), "short tile ({level:?})");
            assert!(!run(24, 4, 1, 1), "long one-vs-all scores ({level:?})");
            assert!(!run(24, 3, 2, 1), "long forward scores ({level:?})");
            assert!(!run(24, 3, 1, 2), "long given scores ({level:?})");
        }
        set_level(None);
    }

    #[test]
    fn score_grad_block_matches_one_triple_path() {
        use crate::scratch::BlockScratch;
        use crate::EmbeddingTable;
        use crate::SparseGrad;

        let model = ComplEx::new(4);
        let dim = model.storage_dim();
        let mut rng = StdRng::seed_from_u64(77);
        let ent = EmbeddingTable::xavier(12, dim, &mut rng);
        let rel = EmbeddingTable::xavier(3, dim, &mut rng);
        // Repeats + head==tail collision exercise scatter ordering.
        let triples = [(0u32, 0u32, 5u32), (5, 1, 5), (0, 0, 5), (7, 2, 1)];
        let l2_reg = 0.03f32;
        let coeff = |i: usize, s: f32| (i as f32 + 1.0) * 0.1 - s * 0.2;

        // Reference: the scalar one-triple-at-a-time accumulation.
        let mut ref_ent = SparseGrad::new(dim);
        let mut ref_rel = SparseGrad::new(dim);
        let mut gh = vec![0.0f32; dim];
        let mut gr = vec![0.0f32; dim];
        let mut gt = vec![0.0f32; dim];
        for (i, &(h, r, t)) in triples.iter().enumerate() {
            let (hrow, rrow, trow) = (ent.row(h as usize), rel.row(r as usize), ent.row(t as usize));
            let s = model.score(hrow, rrow, trow);
            let c = coeff(i, s);
            gh.fill(0.0);
            gr.fill(0.0);
            gt.fill(0.0);
            model.grad(hrow, rrow, trow, c, &mut gh, &mut gr, &mut gt);
            axpy(l2_reg, hrow, &mut gh);
            axpy(l2_reg, rrow, &mut gr);
            axpy(l2_reg, trow, &mut gt);
            axpy(1.0, &gh, ref_ent.row_mut(h));
            axpy(1.0, &gt, ref_ent.row_mut(t));
            axpy(1.0, &gr, ref_rel.row_mut(r));
        }

        let mut scratch = BlockScratch::new();
        let mut ent_out = SparseGrad::new(dim);
        let mut rel_out = SparseGrad::new(dim);
        let mut seen = Vec::new();
        model.score_grad_block(
            &ent,
            &rel,
            &triples,
            l2_reg,
            &mut scratch,
            &mut |i, s| {
                seen.push(i);
                coeff(i, s)
            },
            &mut ent_out,
            &mut rel_out,
        );
        assert_eq!(seen, vec![0, 1, 2, 3], "coeffs drawn in example order");
        for (row, g) in ref_ent.iter_sorted() {
            assert_eq!(ent_out.get(row).unwrap(), g, "entity row {row}");
        }
        for (row, g) in ref_rel.iter_sorted() {
            assert_eq!(rel_out.get(row).unwrap(), g, "relation row {row}");
        }
        assert_eq!(ent_out.nnz(), ref_ent.nnz());
        assert_eq!(rel_out.nnz(), ref_rel.nnz());

        // A second block on the same scratch reuses it.
        let mut ent_out2 = SparseGrad::new(dim);
        let mut rel_out2 = SparseGrad::new(dim);
        model.score_grad_block(
            &ent,
            &rel,
            &triples[..2],
            l2_reg,
            &mut scratch,
            &mut |i, s| coeff(i, s),
            &mut ent_out2,
            &mut rel_out2,
        );
        assert_eq!(ent_out2.nnz(), 2); // entity rows {0, 5} across both triples
    }

    #[test]
    fn simple_is_symmetric_in_inverse_direction() {
        // Swapping (h, t) while swapping r's forward/inverse halves
        // leaves the score unchanged.
        let m = SimplE::new(2);
        let h = [0.3, -0.7, 0.2, 0.9];
        let t = [-0.4, 0.5, 0.8, -0.1];
        let r = [0.6, 0.2, -0.3, 0.7];
        let r_swapped = [-0.3, 0.7, 0.6, 0.2];
        let a = m.score(&h, &r, &t);
        let b = m.score(&t, &r_swapped, &h);
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }
}
