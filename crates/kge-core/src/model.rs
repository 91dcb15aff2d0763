//! KGE scoring models with analytic gradients.
//!
//! Every model maps a triple of embedding rows `(h, r, t)` to a scalar
//! plausibility score `φ(h, r, t)` and exposes the exact gradient of `φ`
//! with respect to each row. Training composes these with the loss
//! derivative (chain rule) — no autodiff needed.

use std::cell::Cell;

use crate::matrix::{axpy, dot};
use crate::scratch::BlockScratch;
use crate::{EmbeddingTable, SparseGrad};

/// Which side of a query a one-vs-all candidate sweep replaces.
///
/// Link-prediction evaluation asks two questions per test triple: "which
/// head completes `(?, r, t)`" and "which tail completes `(h, r, ?)`".
/// [`KgeModel::score_one_vs_all`] answers one of them for a whole tile of
/// candidate entities at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplaceDir {
    /// Candidates substitute the head: `φ(c, r, query)`.
    Head,
    /// Candidates substitute the tail: `φ(query, r, c)`.
    Tail,
}

/// Candidate rows processed together by the fused one-vs-all kernels.
///
/// Bit-identity to the scalar `score` path forbids reassociating the
/// per-candidate f32 sum, so a single candidate can never vectorize — its
/// accumulator is one serial add chain, latency-bound. Grouping `OVA_LANES`
/// candidates gives that many *independent* chains (each still summed in
/// its own original order), which the compiler turns into ILP/SIMD across
/// lanes. 8 lanes × 4 B counters comfortably fit the register file and
/// divide the evaluation tile sizes.
const OVA_LANES: usize = 8;

/// Lane width of the **transposed** one-vs-all kernels: 16 accumulators =
/// two 256-bit (or four 128-bit) vector chains, enough independent adds
/// to hide FP-add latency while leaving registers for the column loads
/// and broadcast scalars. Tile row counts are rounded up to a multiple of
/// this so the remainder path stays cold.
pub const OVA_T_LANES: usize = 16;

/// Dispatchers for the transposed one-vs-all kernels: explicit AVX
/// vector code where the CPU supports it (runtime-detected once, cached
/// by `std`, overridable via [`crate::simd::force_scalar`]), the portable
/// register-blocked body otherwise. The AVX kernels use **only**
/// mul/add/sub intrinsics — never FMA: a fused multiply-add rounds once
/// where [`KgeModel::score`] rounds twice, which would break the
/// bit-identity contract. Wider registers alone reorder nothing: every
/// lane is one candidate's own serial sum, in `score`'s exact order.
macro_rules! ova_t_dispatch {
    ($base:ident, $avx:ident, $body:ident) => {
        #[inline]
        fn $base(
            rank: usize,
            query: &[f32],
            r: &[f32],
            tile_t: &[f32],
            rows: usize,
            dir: ReplaceDir,
            scores: &mut [f32],
        ) {
            #[cfg(target_arch = "x86_64")]
            if crate::simd::use_avx() {
                // SAFETY: the target feature was just detected at runtime;
                // slice bounds are asserted inside before any raw access.
                return unsafe { $avx(rank, query, r, tile_t, rows, dir, scores) };
            }
            $body(rank, query, r, tile_t, rows, dir, scores)
        }
    };
}

ova_t_dispatch!(complex_ova_t, complex_ova_t_avx, complex_ova_t_body);
ova_t_dispatch!(distmult_ova_t, distmult_ova_t_avx, distmult_ova_t_body);
ova_t_dispatch!(transe_ova_t, transe_ova_t_avx, transe_ova_t_body);

/// AVX ComplEx transposed kernel: 16 lanes = two 256-bit accumulators per
/// candidate chunk, held in registers across the whole `k` loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn complex_ova_t_avx(
    rank: usize,
    query: &[f32],
    r: &[f32],
    tile_t: &[f32],
    rows: usize,
    dir: ReplaceDir,
    scores: &mut [f32],
) {
    use std::arch::x86_64::*;
    let d = rank;
    assert_eq!(tile_t.len(), rows * 2 * d);
    assert_eq!(scores.len(), rows);
    assert!(query.len() >= 2 * d && r.len() >= 2 * d);
    let (qr, qi) = query.split_at(d);
    let (rr, ri) = r.split_at(d);
    let n_grouped = rows - rows % OVA_T_LANES;
    let tp = tile_t.as_ptr();
    let sp = scores.as_mut_ptr();
    for c0 in (0..n_grouped).step_by(OVA_T_LANES) {
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        for k in 0..d {
            let vqr = _mm256_set1_ps(*qr.get_unchecked(k));
            let vqi = _mm256_set1_ps(*qi.get_unchecked(k));
            let vrr = _mm256_set1_ps(*rr.get_unchecked(k));
            let vri = _mm256_set1_ps(*ri.get_unchecked(k));
            let re = tp.add(k * rows + c0);
            let im = tp.add((d + k) * rows + c0);
            let (re0, re1) = (_mm256_loadu_ps(re), _mm256_loadu_ps(re.add(8)));
            let (im0, im1) = (_mm256_loadu_ps(im), _mm256_loadu_ps(im.add(8)));
            // acc += rr·(qr·re + qi·im) + ri·b per lane, where the cross
            // term b flips sign structure with direction: Tail is
            // qr·im − qi·re, Head is re·qi − im·qr. The first bracket is
            // shared — f32 multiplication of finite values is bitwise
            // commutative, so qr·re here equals score's re·qr exactly.
            let a0 = _mm256_add_ps(_mm256_mul_ps(vqr, re0), _mm256_mul_ps(vqi, im0));
            let a1 = _mm256_add_ps(_mm256_mul_ps(vqr, re1), _mm256_mul_ps(vqi, im1));
            let (b0, b1) = match dir {
                ReplaceDir::Tail => (
                    _mm256_sub_ps(_mm256_mul_ps(vqr, im0), _mm256_mul_ps(vqi, re0)),
                    _mm256_sub_ps(_mm256_mul_ps(vqr, im1), _mm256_mul_ps(vqi, re1)),
                ),
                ReplaceDir::Head => (
                    _mm256_sub_ps(_mm256_mul_ps(re0, vqi), _mm256_mul_ps(im0, vqr)),
                    _mm256_sub_ps(_mm256_mul_ps(re1, vqi), _mm256_mul_ps(im1, vqr)),
                ),
            };
            acc0 = _mm256_add_ps(
                acc0,
                _mm256_add_ps(_mm256_mul_ps(vrr, a0), _mm256_mul_ps(vri, b0)),
            );
            acc1 = _mm256_add_ps(
                acc1,
                _mm256_add_ps(_mm256_mul_ps(vrr, a1), _mm256_mul_ps(vri, b1)),
            );
        }
        _mm256_storeu_ps(sp.add(c0), acc0);
        _mm256_storeu_ps(sp.add(c0 + 8), acc1);
    }
    for c in n_grouped..rows {
        let mut acc = 0.0f32;
        for k in 0..d {
            let (tr, ti) = (tile_t[k * rows + c], tile_t[(d + k) * rows + c]);
            acc += match dir {
                ReplaceDir::Tail => {
                    rr[k] * (qr[k] * tr + qi[k] * ti) + ri[k] * (qr[k] * ti - qi[k] * tr)
                }
                ReplaceDir::Head => {
                    rr[k] * (tr * qr[k] + ti * qi[k]) + ri[k] * (tr * qi[k] - ti * qr[k])
                }
            };
        }
        scores[c] = acc;
    }
}

/// AVX DistMult transposed kernel (see [`complex_ova_t_avx`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn distmult_ova_t_avx(
    rank: usize,
    query: &[f32],
    r: &[f32],
    tile_t: &[f32],
    rows: usize,
    dir: ReplaceDir,
    scores: &mut [f32],
) {
    use std::arch::x86_64::*;
    let dim = rank;
    assert_eq!(tile_t.len(), rows * dim);
    assert_eq!(scores.len(), rows);
    assert!(query.len() >= dim && r.len() >= dim);
    let n_grouped = rows - rows % OVA_T_LANES;
    let tp = tile_t.as_ptr();
    let sp = scores.as_mut_ptr();
    for c0 in (0..n_grouped).step_by(OVA_T_LANES) {
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        for k in 0..dim {
            let col = tp.add(k * rows + c0);
            let (c0v, c1v) = (_mm256_loadu_ps(col), _mm256_loadu_ps(col.add(8)));
            match dir {
                ReplaceDir::Tail => {
                    // The exact scalar product query[k]·r[k], broadcast.
                    let p = _mm256_set1_ps(*query.get_unchecked(k) * *r.get_unchecked(k));
                    acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(p, c0v));
                    acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(p, c1v));
                }
                ReplaceDir::Head => {
                    let vr = _mm256_set1_ps(*r.get_unchecked(k));
                    let vq = _mm256_set1_ps(*query.get_unchecked(k));
                    acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_mul_ps(c0v, vr), vq));
                    acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_mul_ps(c1v, vr), vq));
                }
            }
        }
        _mm256_storeu_ps(sp.add(c0), acc0);
        _mm256_storeu_ps(sp.add(c0 + 8), acc1);
    }
    for c in n_grouped..rows {
        let mut acc = 0.0f32;
        for k in 0..dim {
            let v = tile_t[k * rows + c];
            acc += match dir {
                ReplaceDir::Tail => query[k] * r[k] * v,
                ReplaceDir::Head => v * r[k] * query[k],
            };
        }
        scores[c] = acc;
    }
}

/// AVX TransE transposed kernel (see [`complex_ova_t_avx`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn transe_ova_t_avx(
    rank: usize,
    query: &[f32],
    r: &[f32],
    tile_t: &[f32],
    rows: usize,
    dir: ReplaceDir,
    scores: &mut [f32],
) {
    use std::arch::x86_64::*;
    let dim = rank;
    assert_eq!(tile_t.len(), rows * dim);
    assert_eq!(scores.len(), rows);
    assert!(query.len() >= dim && r.len() >= dim);
    let n_grouped = rows - rows % OVA_T_LANES;
    let tp = tile_t.as_ptr();
    let sp = scores.as_mut_ptr();
    for c0 in (0..n_grouped).step_by(OVA_T_LANES) {
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        for k in 0..dim {
            let col = tp.add(k * rows + c0);
            let (c0v, c1v) = (_mm256_loadu_ps(col), _mm256_loadu_ps(col.add(8)));
            let (d0, d1) = match dir {
                ReplaceDir::Tail => {
                    // The exact scalar sum query[k] + r[k], broadcast.
                    let s = _mm256_set1_ps(*query.get_unchecked(k) + *r.get_unchecked(k));
                    (_mm256_sub_ps(s, c0v), _mm256_sub_ps(s, c1v))
                }
                ReplaceDir::Head => {
                    let vr = _mm256_set1_ps(*r.get_unchecked(k));
                    let vq = _mm256_set1_ps(*query.get_unchecked(k));
                    (
                        _mm256_sub_ps(_mm256_add_ps(c0v, vr), vq),
                        _mm256_sub_ps(_mm256_add_ps(c1v, vr), vq),
                    )
                }
            };
            acc0 = _mm256_sub_ps(acc0, _mm256_mul_ps(d0, d0));
            acc1 = _mm256_sub_ps(acc1, _mm256_mul_ps(d1, d1));
        }
        _mm256_storeu_ps(sp.add(c0), acc0);
        _mm256_storeu_ps(sp.add(c0 + 8), acc1);
    }
    for c in n_grouped..rows {
        let mut acc = 0.0f32;
        for k in 0..dim {
            let v = tile_t[k * rows + c];
            let d = match dir {
                ReplaceDir::Tail => query[k] + r[k] - v,
                ReplaceDir::Head => v + r[k] - query[k],
            };
            acc -= d * d;
        }
        scores[c] = acc;
    }
}

#[inline(always)]
fn complex_ova_t_body(
    rank: usize,
    query: &[f32],
    r: &[f32],
    tile_t: &[f32],
    rows: usize,
    dir: ReplaceDir,
    scores: &mut [f32],
) {
    const W: usize = OVA_T_LANES;
    let d = rank;
    debug_assert_eq!(tile_t.len(), rows * 2 * d);
    debug_assert_eq!(scores.len(), rows);
    let (qr, qi) = query.split_at(d);
    let (rr, ri) = r.split_at(d);
    let n_grouped = rows - rows % W;
    for c0 in (0..n_grouped).step_by(W) {
        let mut acc = [0.0f32; W];
        for k in 0..d {
            let (qrk, qik, rrk, rik) = (qr[k], qi[k], rr[k], ri[k]);
            let re: &[f32; W] = tile_t[k * rows + c0..k * rows + c0 + W]
                .try_into()
                .unwrap();
            let im: &[f32; W] = tile_t[(d + k) * rows + c0..(d + k) * rows + c0 + W]
                .try_into()
                .unwrap();
            match dir {
                ReplaceDir::Tail => {
                    for j in 0..W {
                        let (tr, ti) = (re[j], im[j]);
                        acc[j] += rrk * (qrk * tr + qik * ti) + rik * (qrk * ti - qik * tr);
                    }
                }
                ReplaceDir::Head => {
                    for j in 0..W {
                        let (hr, hi) = (re[j], im[j]);
                        acc[j] += rrk * (hr * qrk + hi * qik) + rik * (hr * qik - hi * qrk);
                    }
                }
            }
        }
        scores[c0..c0 + W].copy_from_slice(&acc);
    }
    for c in n_grouped..rows {
        let mut acc = 0.0f32;
        for k in 0..d {
            let (tr, ti) = (tile_t[k * rows + c], tile_t[(d + k) * rows + c]);
            acc += match dir {
                ReplaceDir::Tail => {
                    rr[k] * (qr[k] * tr + qi[k] * ti) + ri[k] * (qr[k] * ti - qi[k] * tr)
                }
                ReplaceDir::Head => {
                    rr[k] * (tr * qr[k] + ti * qi[k]) + ri[k] * (tr * qi[k] - ti * qr[k])
                }
            };
        }
        scores[c] = acc;
    }
}

#[inline(always)]
fn distmult_ova_t_body(
    rank: usize,
    query: &[f32],
    r: &[f32],
    tile_t: &[f32],
    rows: usize,
    dir: ReplaceDir,
    scores: &mut [f32],
) {
    const W: usize = OVA_T_LANES;
    let dim = rank;
    debug_assert_eq!(tile_t.len(), rows * dim);
    debug_assert_eq!(scores.len(), rows);
    let n_grouped = rows - rows % W;
    for c0 in (0..n_grouped).step_by(W) {
        let mut acc = [0.0f32; W];
        for k in 0..dim {
            let col: &[f32; W] = tile_t[k * rows + c0..k * rows + c0 + W]
                .try_into()
                .unwrap();
            match dir {
                ReplaceDir::Tail => {
                    let qrk = query[k] * r[k];
                    for j in 0..W {
                        acc[j] += qrk * col[j];
                    }
                }
                ReplaceDir::Head => {
                    let (rk, qk) = (r[k], query[k]);
                    for j in 0..W {
                        acc[j] += col[j] * rk * qk;
                    }
                }
            }
        }
        scores[c0..c0 + W].copy_from_slice(&acc);
    }
    for c in n_grouped..rows {
        let mut acc = 0.0f32;
        for k in 0..dim {
            let v = tile_t[k * rows + c];
            acc += match dir {
                ReplaceDir::Tail => query[k] * r[k] * v,
                ReplaceDir::Head => v * r[k] * query[k],
            };
        }
        scores[c] = acc;
    }
}

#[inline(always)]
fn transe_ova_t_body(
    rank: usize,
    query: &[f32],
    r: &[f32],
    tile_t: &[f32],
    rows: usize,
    dir: ReplaceDir,
    scores: &mut [f32],
) {
    const W: usize = OVA_T_LANES;
    let dim = rank;
    debug_assert_eq!(tile_t.len(), rows * dim);
    debug_assert_eq!(scores.len(), rows);
    let n_grouped = rows - rows % W;
    for c0 in (0..n_grouped).step_by(W) {
        let mut acc = [0.0f32; W];
        for k in 0..dim {
            let col: &[f32; W] = tile_t[k * rows + c0..k * rows + c0 + W]
                .try_into()
                .unwrap();
            match dir {
                ReplaceDir::Tail => {
                    let qrk = query[k] + r[k];
                    for j in 0..W {
                        let d = qrk - col[j];
                        acc[j] -= d * d;
                    }
                }
                ReplaceDir::Head => {
                    let (rk, qk) = (r[k], query[k]);
                    for j in 0..W {
                        let d = col[j] + rk - qk;
                        acc[j] -= d * d;
                    }
                }
            }
        }
        scores[c0..c0 + W].copy_from_slice(&acc);
    }
    for c in n_grouped..rows {
        let mut acc = 0.0f32;
        for k in 0..dim {
            let v = tile_t[k * rows + c];
            let d = match dir {
                ReplaceDir::Tail => query[k] + r[k] - v,
                ReplaceDir::Head => v + r[k] - query[k],
            };
            acc -= d * d;
        }
        scores[c] = acc;
    }
}

/// Examples per group of [`KgeModel::score_grad_block`]: scores become
/// loss coefficients a group at a time, so the loss code and the kernel
/// code each run this many times in a row instead of alternating.
pub const BLOCK_GROUP: usize = 16;

/// Examples summed together by the fused [`KgeModel::score_triples`]: eight
/// independent add chains run at add throughput where one example's chain
/// would wait out every add's latency.
pub const SCORE_LANES: usize = 8;

/// The fused [`KgeModel::score_triples`] of a model with a `rank` and the
/// given summand loop: [`score_triples_body`]'s AVX-compiled copy where the
/// CPU has AVX (runtime-detected, overridable via
/// [`crate::simd::force_scalar`]), its baseline copy otherwise.
macro_rules! fused_score_triples {
    ($terms:ident) => {
        fn score_triples(
            &self,
            ent: &EmbeddingTable,
            rel: &EmbeddingTable,
            triples: &[(u32, u32, u32)],
            scratch: &mut Vec<f32>,
            scores: &mut [f32],
        ) {
            let tables = (ent, rel);
            #[cfg(target_arch = "x86_64")]
            if crate::simd::use_avx() {
                // SAFETY: AVX was just detected at runtime.
                return unsafe { score_triples_avx(self.rank, $terms, tables, triples, scratch, scores) };
            }
            score_triples_body(self.rank, $terms, tables, triples, scratch, scores)
        }
    };
}

/// The same safe code with AVX enabled: the elementwise loops auto-vectorise
/// eight wide. `avx` alone never licenses a fused multiply-add, which would
/// round once where [`KgeModel::score`] rounds twice.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn score_triples_avx(
    rank: usize,
    terms_of: impl Fn(&[f32], &[f32], &[f32], &mut [f32]),
    tables: (&EmbeddingTable, &EmbeddingTable),
    triples: &[(u32, u32, u32)],
    scratch: &mut Vec<f32>,
    scores: &mut [f32],
) {
    score_triples_body(rank, terms_of, tables, triples, scratch, scores)
}

/// Score `triples` in groups of [`SCORE_LANES`], two phases per group.
/// **Terms**: `terms_of(h, r, t, out)` forms one example's per-`k` summands
/// of [`KgeModel::score`]'s loop, straight from its three table rows into
/// its `rank` floats of `scratch` — elementwise, so any vector width gives
/// the scalar expression's bits. **In-order sums**: `acc[j] += terms[j][k]`
/// for `k` ascending, the group's chains interleaved — every example's
/// additions are `score`'s, from `0.0` in `score`'s order, and only
/// independent chains overlap. A short last group sums whatever its unused
/// lanes hold and drops it.
#[inline(always)]
fn score_triples_body(
    rank: usize,
    terms_of: impl Fn(&[f32], &[f32], &[f32], &mut [f32]),
    (ent, rel): (&EmbeddingTable, &EmbeddingTable),
    triples: &[(u32, u32, u32)],
    scratch: &mut Vec<f32>,
    scores: &mut [f32],
) {
    const G: usize = SCORE_LANES;
    assert_eq!(triples.len(), scores.len());
    scratch.resize(G * rank, 0.0);
    for (group, out) in triples.chunks(G).zip(scores.chunks_mut(G)) {
        for (&(h, r, t), terms) in group.iter().zip(scratch.chunks_exact_mut(rank)) {
            terms_of(ent.row(h as usize), rel.row(r as usize), ent.row(t as usize), terms);
        }
        let mut lanes = scratch.chunks_exact(rank);
        let lanes: [&[f32]; G] = std::array::from_fn(|_| lanes.next().expect("G lanes"));
        let mut acc = [0.0f32; G];
        for k in 0..rank {
            for (a, lane) in acc.iter_mut().zip(&lanes) {
                *a += lane[k];
            }
        }
        out.copy_from_slice(&acc[..group.len()]);
    }
}

/// ComplEx summands: `rr·(hr·tr + hi·ti) + ri·(hr·ti − hi·tr)`.
#[inline(always)]
fn complex_terms(h: &[f32], r: &[f32], t: &[f32], out: &mut [f32]) {
    let d = out.len();
    let ((hr, hi), (rr, ri), (tr, ti)) = (h.split_at(d), r.split_at(d), t.split_at(d));
    let (hi, ri, ti) = (&hi[..d], &ri[..d], &ti[..d]);
    for k in 0..d {
        out[k] = rr[k] * (hr[k] * tr[k] + hi[k] * ti[k]) + ri[k] * (hr[k] * ti[k] - hi[k] * tr[k]);
    }
}

/// DistMult summands: `(h·r)·t`.
#[inline(always)]
fn distmult_terms(h: &[f32], r: &[f32], t: &[f32], out: &mut [f32]) {
    let (h, r, t) = (&h[..out.len()], &r[..out.len()], &t[..out.len()]);
    for k in 0..out.len() {
        out[k] = h[k] * r[k] * t[k];
    }
}

/// TransE summands: `−(d·d)`, `d = (h + r) − t`; adding the negation is
/// `score`'s `s -= d·d` to the bit.
#[inline(always)]
fn transe_terms(h: &[f32], r: &[f32], t: &[f32], out: &mut [f32]) {
    let (h, r, t) = (&h[..out.len()], &r[..out.len()], &t[..out.len()]);
    for k in 0..out.len() {
        let d = h[k] + r[k] - t[k];
        out[k] = -(d * d);
    }
}

/// Where one example's gradient lands in the two [`SparseGrad`] slabs.
/// Head and tail are offsets into one borrow of the entity slab, not two
/// slices, because a self-loop (`h == t`) names the same row twice.
pub struct GradDst<'a> {
    /// The entity accumulator's slab ([`SparseGrad::slab_mut`]).
    pub ent: &'a mut [f32],
    /// Offset of the head's row in `ent`.
    pub h: usize,
    /// Offset of the tail's row in `ent`.
    pub t: usize,
    /// The relation's row.
    pub rel: &'a mut [f32],
}

impl GradDst<'_> {
    /// Panic unless all three rows hold `dim` floats — the bounds the
    /// vector arms' raw accesses rely on.
    fn check(&self, dim: usize) {
        let last = self.ent.len().checked_sub(dim).expect("entity slab shorter than a row");
        assert!(self.h <= last && self.t <= last && self.rel.len() == dim);
    }
}

/// Dispatchers for the accumulating backward kernels: one example's
/// `coeff · ∂φ/∂x + l2 · x` for `x = h, t, r` is read from the table rows
/// `src = [h, r, t]` and added into the destination rows — head, then
/// tail, then relation. The backward is elementwise over `dim`, so the AVX
/// arm (mul/add/sub only, never FMA) forms each element with the portable
/// loop's exact expression, eight at a time; the portable loop is the
/// forced-scalar arm and the vector arm's tail.
///
/// Each element is fully formed before it is added, and a destination row
/// receives its additions in example order, head before tail: the f32
/// sequence of "form the example's three gradient rows, then `+=` them",
/// without the rows in between.
macro_rules! grad_add_dispatch {
    ($base:ident, $avx:ident, $tail:ident, $floats_per_rank:expr) => {
        #[inline]
        #[allow(unused_mut)]
        fn $base(rank: usize, src: [&[f32]; 3], coeff: f32, l2: f32, mut dst: GradDst<'_>) {
            let dim = $floats_per_rank * rank;
            assert!(src.iter().all(|x| x.len() == dim));
            dst.check(dim);
            let mut done = 0;
            #[cfg(target_arch = "x86_64")]
            if crate::simd::use_avx() {
                // SAFETY: AVX was just detected at runtime; the three
                // source rows and the three destination rows hold `dim`
                // floats (asserted above).
                done = unsafe { $avx(rank, src, coeff, l2, &mut dst) };
            }
            $tail(rank, done, src, coeff, l2, dst)
        }
    };
}

grad_add_dispatch!(complex_grad_add, complex_grad_add_avx, complex_grad_add_tail, 2);
grad_add_dispatch!(distmult_grad_add, distmult_grad_add_avx, distmult_grad_add_tail, 1);
grad_add_dispatch!(transe_grad_add, transe_grad_add_avx, transe_grad_add_tail, 1);

/// `p[0..8] += v`.
///
/// # Safety
/// The CPU must support AVX and `p` must be valid for eight floats.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx")]
unsafe fn add8(p: *mut f32, v: std::arch::x86_64::__m256) {
    use std::arch::x86_64::*;
    _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), v));
}

/// The three destination row pointers of `dst`: head, tail, relation.
/// Head and tail derive from one base pointer, so they may alias.
///
/// # Safety
/// `dst.h` and `dst.t` must lie inside `dst.ent`.
#[cfg(target_arch = "x86_64")]
#[inline]
unsafe fn dst_ptrs(dst: &mut GradDst<'_>) -> (*mut f32, *mut f32, *mut f32) {
    let ent = dst.ent.as_mut_ptr();
    (ent.add(dst.h), ent.add(dst.t), dst.rel.as_mut_ptr())
}

/// AVX arm of [`complex_grad_add`] over the largest multiple of 8 of
/// `rank`, both halves of every row; returns how many it covered.
///
/// # Safety
/// The CPU must support AVX; the rows of `src` must hold `2 * rank` floats
/// and `dst.check(2 * rank)` must have passed.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn complex_grad_add_avx(
    rank: usize,
    [h, r, t]: [&[f32]; 3],
    coeff: f32,
    l2: f32,
    dst: &mut GradDst<'_>,
) -> usize {
    use std::arch::x86_64::*;
    let d = rank;
    let d8 = d - d % 8;
    let (hp, rp, tp) = (h.as_ptr(), r.as_ptr(), t.as_ptr());
    let (gh, gt, gr) = dst_ptrs(dst);
    let (vc, vl2) = (_mm256_set1_ps(coeff), _mm256_set1_ps(l2));
    for k in (0..d8).step_by(8) {
        let (vhr, vhi) = (_mm256_loadu_ps(hp.add(k)), _mm256_loadu_ps(hp.add(d + k)));
        let (vrr, vri) = (_mm256_loadu_ps(rp.add(k)), _mm256_loadu_ps(rp.add(d + k)));
        let (vtr, vti) = (_mm256_loadu_ps(tp.add(k)), _mm256_loadu_ps(tp.add(d + k)));
        let xhr = _mm256_add_ps(_mm256_mul_ps(vrr, vtr), _mm256_mul_ps(vri, vti));
        let xhi = _mm256_sub_ps(_mm256_mul_ps(vrr, vti), _mm256_mul_ps(vri, vtr));
        let xtr = _mm256_sub_ps(_mm256_mul_ps(vrr, vhr), _mm256_mul_ps(vri, vhi));
        let xti = _mm256_add_ps(_mm256_mul_ps(vrr, vhi), _mm256_mul_ps(vri, vhr));
        let xrr = _mm256_add_ps(_mm256_mul_ps(vhr, vtr), _mm256_mul_ps(vhi, vti));
        let xri = _mm256_sub_ps(_mm256_mul_ps(vhr, vti), _mm256_mul_ps(vhi, vtr));
        add8(gh.add(k), _mm256_add_ps(_mm256_mul_ps(vc, xhr), _mm256_mul_ps(vl2, vhr)));
        add8(gh.add(d + k), _mm256_add_ps(_mm256_mul_ps(vc, xhi), _mm256_mul_ps(vl2, vhi)));
        add8(gt.add(k), _mm256_add_ps(_mm256_mul_ps(vc, xtr), _mm256_mul_ps(vl2, vtr)));
        add8(gt.add(d + k), _mm256_add_ps(_mm256_mul_ps(vc, xti), _mm256_mul_ps(vl2, vti)));
        add8(gr.add(k), _mm256_add_ps(_mm256_mul_ps(vc, xrr), _mm256_mul_ps(vl2, vrr)));
        add8(gr.add(d + k), _mm256_add_ps(_mm256_mul_ps(vc, xri), _mm256_mul_ps(vl2, vri)));
    }
    d8
}

/// Portable arm of [`complex_grad_add`], elements `from..rank` of both
/// halves ([`ComplEx::grad`]'s terms).
#[inline(always)]
fn complex_grad_add_tail(
    rank: usize,
    from: usize,
    [h, r, t]: [&[f32]; 3],
    coeff: f32,
    l2: f32,
    dst: GradDst<'_>,
) {
    let d = rank;
    let GradDst { ent, h: gh, t: gt, rel } = dst;
    for k in from..d {
        let (hr, hi, rr, ri, tr, ti) = (h[k], h[d + k], r[k], r[d + k], t[k], t[d + k]);
        ent[gh + k] += coeff * (rr * tr + ri * ti) + l2 * hr;
        ent[gh + d + k] += coeff * (rr * ti - ri * tr) + l2 * hi;
        ent[gt + k] += coeff * (rr * hr - ri * hi) + l2 * tr;
        ent[gt + d + k] += coeff * (rr * hi + ri * hr) + l2 * ti;
        rel[k] += coeff * (hr * tr + hi * ti) + l2 * rr;
        rel[d + k] += coeff * (hr * ti - hi * tr) + l2 * ri;
    }
}

/// AVX arm of [`distmult_grad_add`] (see [`complex_grad_add_avx`]).
///
/// # Safety
/// The CPU must support AVX; the rows of `src` must hold `rank` floats and
/// `dst.check(rank)` must have passed.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn distmult_grad_add_avx(
    rank: usize,
    [h, r, t]: [&[f32]; 3],
    coeff: f32,
    l2: f32,
    dst: &mut GradDst<'_>,
) -> usize {
    use std::arch::x86_64::*;
    let d8 = rank - rank % 8;
    let (gh, gt, gr) = dst_ptrs(dst);
    let (vc, vl2) = (_mm256_set1_ps(coeff), _mm256_set1_ps(l2));
    for k in (0..d8).step_by(8) {
        let vh = _mm256_loadu_ps(h.as_ptr().add(k));
        let vr = _mm256_loadu_ps(r.as_ptr().add(k));
        let vt = _mm256_loadu_ps(t.as_ptr().add(k));
        // grad: gh = (c·r)·t, gt = (c·h)·r, gr = (c·h)·t
        let (vcr, vch) = (_mm256_mul_ps(vc, vr), _mm256_mul_ps(vc, vh));
        add8(gh.add(k), _mm256_add_ps(_mm256_mul_ps(vcr, vt), _mm256_mul_ps(vl2, vh)));
        add8(gt.add(k), _mm256_add_ps(_mm256_mul_ps(vch, vr), _mm256_mul_ps(vl2, vt)));
        add8(gr.add(k), _mm256_add_ps(_mm256_mul_ps(vch, vt), _mm256_mul_ps(vl2, vr)));
    }
    d8
}

/// Portable arm of [`distmult_grad_add`] ([`DistMult::grad`]'s terms).
#[inline(always)]
fn distmult_grad_add_tail(
    rank: usize,
    from: usize,
    [h, r, t]: [&[f32]; 3],
    coeff: f32,
    l2: f32,
    dst: GradDst<'_>,
) {
    let GradDst { ent, h: gh, t: gt, rel } = dst;
    for k in from..rank {
        ent[gh + k] += coeff * r[k] * t[k] + l2 * h[k];
        ent[gt + k] += coeff * h[k] * r[k] + l2 * t[k];
        rel[k] += coeff * h[k] * t[k] + l2 * r[k];
    }
}

/// AVX arm of [`transe_grad_add`] (see [`complex_grad_add_avx`]).
///
/// # Safety
/// The CPU must support AVX; the rows of `src` must hold `rank` floats and
/// `dst.check(rank)` must have passed.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn transe_grad_add_avx(
    rank: usize,
    [h, r, t]: [&[f32]; 3],
    coeff: f32,
    l2: f32,
    dst: &mut GradDst<'_>,
) -> usize {
    use std::arch::x86_64::*;
    let d8 = rank - rank % 8;
    let (gh, gt, gr) = dst_ptrs(dst);
    let (vc, vl2) = (_mm256_set1_ps(coeff), _mm256_set1_ps(l2));
    let (vm2, vp2) = (_mm256_set1_ps(-2.0), _mm256_set1_ps(2.0));
    for k in (0..d8).step_by(8) {
        let vh = _mm256_loadu_ps(h.as_ptr().add(k));
        let vr = _mm256_loadu_ps(r.as_ptr().add(k));
        let vt = _mm256_loadu_ps(t.as_ptr().add(k));
        // grad: d = (h + r) − t; gh = gr = c·(−2·d), gt = c·(2·d)
        let vd = _mm256_sub_ps(_mm256_add_ps(vh, vr), vt);
        let neg = _mm256_mul_ps(vc, _mm256_mul_ps(vm2, vd));
        let pos = _mm256_mul_ps(vc, _mm256_mul_ps(vp2, vd));
        add8(gh.add(k), _mm256_add_ps(neg, _mm256_mul_ps(vl2, vh)));
        add8(gt.add(k), _mm256_add_ps(pos, _mm256_mul_ps(vl2, vt)));
        add8(gr.add(k), _mm256_add_ps(neg, _mm256_mul_ps(vl2, vr)));
    }
    d8
}

/// Portable arm of [`transe_grad_add`] ([`TransE::grad`]'s terms).
#[inline(always)]
fn transe_grad_add_tail(
    rank: usize,
    from: usize,
    [h, r, t]: [&[f32]; 3],
    coeff: f32,
    l2: f32,
    dst: GradDst<'_>,
) {
    let GradDst { ent, h: gh, t: gt, rel } = dst;
    for k in from..rank {
        let d = h[k] + r[k] - t[k];
        ent[gh + k] += coeff * (-2.0 * d) + l2 * h[k];
        ent[gt + k] += coeff * (2.0 * d) + l2 * t[k];
        rel[k] += coeff * (-2.0 * d) + l2 * r[k];
    }
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

/// A row of `P · rank` floats as its `P` parts of `rank` floats.
#[inline(always)]
fn parts<const P: usize, T>(row: &[T], rank: usize) -> [&[T]; P] {
    std::array::from_fn(|p| &row[p * rank..(p + 1) * rank])
}

/// Element `k` of every part.
#[inline(always)]
fn at<const P: usize>(row: &[&[f32]; P], k: usize) -> [f32; P] {
    row.map(|part| part[k])
}

/// The transposed one-vs-all driver of every model: shapes asserted once,
/// for both arms, then [`ova_t_body`]'s AVX-compiled copy where the CPU has
/// AVX (runtime-detected, overridable via [`crate::simd::force_scalar`]),
/// its baseline copy otherwise.
#[inline]
#[allow(clippy::too_many_arguments)]
fn ova_t<const P: usize>(
    term: impl Term<P>,
    rank: usize,
    query: &[f32],
    r: &[f32],
    tile_t: &[f32],
    rows: usize,
    dir: ReplaceDir,
    scores: &mut [f32],
) {
    let dim = P * rank;
    assert!(query.len() == dim && r.len() == dim, "query and relation rows hold {dim} floats");
    assert_eq!(tile_t.len(), rows * dim, "tile of {rows} candidates");
    assert_eq!(scores.len(), rows, "one score per candidate");
    #[cfg(target_arch = "x86_64")]
    if crate::simd::use_avx() {
        // SAFETY: AVX was just detected at runtime.
        return unsafe { ova_t_avx(term, rank, query, r, tile_t, rows, dir, scores) };
    }
    ova_t_body(term, rank, query, r, tile_t, rows, dir, scores)
}

/// The same safe code with AVX enabled (see [`score_triples_avx`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[allow(clippy::too_many_arguments)]
fn ova_t_avx<const P: usize>(
    term: impl Term<P>,
    rank: usize,
    query: &[f32],
    r: &[f32],
    tile_t: &[f32],
    rows: usize,
    dir: ReplaceDir,
    scores: &mut [f32],
) {
    ova_t_body(term, rank, query, r, tile_t, rows, dir, scores)
}

/// `dir` decides once, outside every loop, which side the candidate takes.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn ova_t_body<const P: usize>(
    term: impl Term<P>,
    rank: usize,
    query: &[f32],
    r: &[f32],
    tile_t: &[f32],
    rows: usize,
    dir: ReplaceDir,
    scores: &mut [f32],
) {
    match dir {
        ReplaceDir::Head => ova_t_sweep(|q, r, c| term(c, r, q), rank, query, r, tile_t, rows, scores),
        ReplaceDir::Tail => ova_t_sweep(|q, r, c| term(q, r, c), rank, query, r, tile_t, rows, scores),
    }
}

/// Score every candidate of a column-major tile, [`OVA_T_LANES`] at a time:
/// a chunk's accumulators start at `+0.0` and take `term(query_k, r_k,
/// candidate_k)` for `k` ascending — each lane is one candidate's
/// [`KgeModel::score`] sum, expression and order, and only independent
/// chains run side by side. Whatever of the term depends on the query and
/// relation alone is the same f32 value for every lane, so it is formed
/// once per `k`. The ragged end of the tile goes one candidate at a time.
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
            let lanes: [&[f32; W]; P] = cols.map(|part| {
                part[k * rows + c0..k * rows + c0 + W].try_into().expect("W lanes")
            });
            for (j, a) in acc.iter_mut().enumerate() {
                *a += term(qk, rk, lanes.map(|col| col[j]));
            }
        }
        out.copy_from_slice(&acc);
    }
    for (c, out) in scores.iter_mut().enumerate().skip(n_grouped) {
        let mut acc = 0.0f32;
        for k in 0..rank {
            acc += term(at(&q, k), at(&r, k), cols.map(|part| part[k * rows + c]));
        }
        *out = acc;
    }
}

/// The accumulating backward driver of every model: shapes asserted once,
/// for both arms, then [`grad_add_body`]'s AVX-compiled copy or its
/// baseline copy, as [`ova_t`] chooses.
#[inline]
fn grad_add<const P: usize>(
    grad_terms: impl GradTerms<P>,
    rank: usize,
    src: [&[f32]; 3],
    coeff: f32,
    l2: f32,
    dst: GradDst<'_>,
) {
    let dim = P * rank;
    assert!(src.iter().all(|x| x.len() == dim), "source rows hold {dim} floats");
    let last = dst.ent.len().checked_sub(dim).expect("entity slab shorter than a row");
    assert!(dst.h <= last && dst.t <= last, "head and tail rows inside the entity slab");
    assert_eq!(dst.rel.len(), dim, "relation row");
    #[cfg(target_arch = "x86_64")]
    if crate::simd::use_avx() {
        // SAFETY: AVX was just detected at runtime.
        return unsafe { grad_add_avx(grad_terms, rank, src, coeff, l2, dst) };
    }
    grad_add_body(grad_terms, rank, src, coeff, l2, dst)
}

/// The same safe code with AVX enabled (see [`score_triples_avx`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn grad_add_avx<const P: usize>(
    grad_terms: impl GradTerms<P>,
    rank: usize,
    src: [&[f32]; 3],
    coeff: f32,
    l2: f32,
    dst: GradDst<'_>,
) {
    grad_add_body(grad_terms, rank, src, coeff, l2, dst)
}

/// Elements formed together by the accumulating backward: one 256-bit
/// vector.
const GRAD_LANES: usize = 8;

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
    let src = src.map(|row| parts::<P, _>(row, rank).map(|part| part.as_chunks::<W>()));
    let dst = dst.map(|row| parts::<P, _>(row, rank).map(|part| part.as_chunks::<W>()));
    for i in 0..rank / W {
        grad_add_lanes(
            grad_terms,
            coeff,
            l2,
            src.map(|row| row.map(|(chunks, _)| &chunks[i])),
            dst.map(|row| row.map(|(chunks, _)| &chunks[i])),
        );
    }
    for k in 0..rank % W {
        grad_add_lanes(
            grad_terms,
            coeff,
            l2,
            src.map(|row| row.map(|(_, rest)| std::array::from_ref(&rest[k]))),
            dst.map(|row| row.map(|(_, rest)| std::array::from_ref(&rest[k]))),
        );
    }
}

/// `W` elements of [`grad_add_body`]: form all `3 · P · W` values from
/// `[h, r, t]`, then add them to `[head, tail, relation]` in that order.
#[inline(always)]
fn grad_add_lanes<const P: usize, const W: usize>(
    grad_terms: impl GradTerms<P>,
    coeff: f32,
    l2: f32,
    src: [[&[f32; W]; P]; 3],
    [gh, gt, gr]: [[&[Cell<f32>; W]; P]; 3],
) {
    let mut add = [[[0.0f32; W]; P]; 3];
    for j in 0..W {
        let x = src.map(|row| row.map(|part| part[j]));
        let g = grad_terms(coeff, x[0], x[1], x[2]);
        for (add, (g, x)) in add.iter_mut().zip(g.iter().zip(&x)) {
            for p in 0..P {
                add[p][j] = g[p] + l2 * x[p];
            }
        }
    }
    let [add_h, add_r, add_t] = add;
    for (row, add) in [(gh, add_h), (gt, add_t), (gr, add_r)] {
        for (part, add) in row.iter().zip(&add) {
            for (d, a) in part.iter().zip(add) {
                d.set(d.get() + a);
            }
        }
    }
}

/// ComplEx: `rr·(hr·tr + hi·ti) + ri·(hr·ti − hi·tr)`.
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

/// DistMult: `(h·r)·t`.
#[inline(always)]
fn distmult_term([h]: [f32; 1], [r]: [f32; 1], [t]: [f32; 1]) -> f32 {
    h * r * t
}

#[inline(always)]
fn distmult_grad_terms(c: f32, [h]: [f32; 1], [r]: [f32; 1], [t]: [f32; 1]) -> [[f32; 1]; 3] {
    [[c * r * t], [c * h * t], [c * h * r]]
}

/// TransE: `−(d·d)`, `d = (h + r) − t`; adding the negation is `s -= d·d`
/// to the bit.
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

/// RotatE: `−|u|²` for the rotation residual `u = h·r − t`.
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

/// SimplE: `½(h_head·r·t_tail + t_head·r⁻¹·h_tail)`.
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

    /// Plausibility score of the triple.
    fn score(&self, h: &[f32], r: &[f32], t: &[f32]) -> f32;

    /// Accumulate `coeff · ∂φ/∂(h,r,t)` into the three gradient rows.
    ///
    /// `coeff` is the upstream loss derivative `∂L/∂φ`, so after this call
    /// the gradient rows hold `∂L/∂row` contributions for this triple.
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
    fn score_flops(&self) -> f64 {
        (6 * self.storage_dim()) as f64
    }

    /// Score one query against a contiguous tile of candidate entity rows —
    /// the one-vs-all evaluation kernel.
    ///
    /// `query` is the fixed entity row (the head under [`ReplaceDir::Tail`],
    /// the tail under [`ReplaceDir::Head`]), `r` the relation row, and
    /// `candidates` holds `scores.len()` rows of `storage_dim()` floats —
    /// typically a slice straight out of the entity table, so sweeping all
    /// entities needs no gather at all. `scores[i]` receives `φ` with
    /// candidate `i` substituted on the replaced side.
    ///
    /// Per-candidate arithmetic uses the exact expression and reduction
    /// order of [`Self::score`], so every score is **bit-identical** to the
    /// scalar call — ranks derived from a tile sweep (including tie counts)
    /// match the one-candidate-at-a-time path exactly. The default
    /// delegates row by row (monomorphized per model, so `score` inlines);
    /// fused overrides hoist the query/relation splits out of the candidate
    /// loop and stream the tile once.
    fn score_one_vs_all(
        &self,
        query: &[f32],
        r: &[f32],
        candidates: &[f32],
        dir: ReplaceDir,
        scores: &mut [f32],
    ) {
        let dim = self.storage_dim();
        debug_assert_eq!(candidates.len(), scores.len() * dim);
        for (c, s) in candidates.chunks_exact(dim).zip(scores.iter_mut()) {
            *s = match dir {
                ReplaceDir::Head => self.score(c, r, query),
                ReplaceDir::Tail => self.score(query, r, c),
            };
        }
    }

    /// Whether [`Self::score_one_vs_all_transposed`] has a fused
    /// implementation. Callers that pay the tile-transpose cost must check
    /// this first — the transposed default panics rather than silently
    /// running a slow gather.
    fn has_transposed_kernel(&self) -> bool {
        false
    }

    /// One-vs-all against a **column-major** candidate tile:
    /// `tile_t[k * rows + j]` holds element `k` of candidate `j`
    /// (`0 ≤ j < rows`, `0 ≤ k < storage_dim()`), i.e. the row-major tile
    /// transposed. Semantics otherwise match [`Self::score_one_vs_all`]:
    /// each candidate's expression and accumulation order are exactly
    /// [`Self::score`]'s, so scores are bit-identical to the scalar call.
    ///
    /// The transposed layout makes the inner candidate loop unit-stride —
    /// one `k` broadcasts the query/relation scalars against a contiguous
    /// run of candidate elements, which vectorizes where the row-major
    /// kernel's strided lane loads cannot. Callers transpose a tile once
    /// and reuse it across every query and direction of a work unit.
    fn score_one_vs_all_transposed(
        &self,
        _query: &[f32],
        _r: &[f32],
        _tile_t: &[f32],
        _rows: usize,
        _dir: ReplaceDir,
        _scores: &mut [f32],
    ) {
        unimplemented!(
            "{}: no transposed one-vs-all kernel; check has_transposed_kernel()",
            self.name()
        )
    }

    /// Forward-score `(head, rel, tail)` triples straight from the tables —
    /// the training forward and S5's pool scoring: `scores[i]` receives
    /// exactly [`Self::score`]'s bits for `triples[i]`. The default calls
    /// `score` per triple; fused overrides ([`score_triples_body`]) keep one
    /// group's summands in `scratch` (`SCORE_LANES × rank` floats, reused).
    fn score_triples(
        &self,
        ent: &EmbeddingTable,
        rel: &EmbeddingTable,
        triples: &[(u32, u32, u32)],
        _scratch: &mut Vec<f32>,
        scores: &mut [f32],
    ) {
        assert_eq!(triples.len(), scores.len());
        for (s, &(h, r, t)) in scores.iter_mut().zip(triples) {
            *s = self.score(ent.row(h as usize), rel.row(r as usize), ent.row(t as usize));
        }
    }

    /// Backward of one example, accumulating: add
    /// `coeff · ∂φ/∂x + l2 · x` for `x = h, t, r` — each element fully
    /// formed first — into the rows `dst` names, head, then tail, then
    /// relation. `src` is `[h, r, t]`.
    ///
    /// The default forms the three gradient rows in `tmp` (`3 ×
    /// storage_dim()` floats) through [`Self::grad`]; fused overrides add
    /// the same values element by element straight from the source rows
    /// and leave `tmp` alone.
    fn grad_add(&self, src: [&[f32]; 3], coeff: f32, l2: f32, dst: GradDst<'_>, tmp: &mut [f32]) {
        let dim = self.storage_dim();
        let [h, r, t] = src;
        tmp.fill(0.0);
        let (gh, rest) = tmp.split_at_mut(dim);
        let (gr, gt) = rest.split_at_mut(dim);
        self.grad(h, r, t, coeff, gh, gr, gt);
        axpy(l2, h, gh);
        axpy(l2, r, gr);
        axpy(l2, t, gt);
        axpy(1.0, gh, &mut dst.ent[dst.h..dst.h + dim]);
        axpy(1.0, gt, &mut dst.ent[dst.t..dst.t + dim]);
        axpy(1.0, gr, dst.rel);
    }

    /// Fused batched kernel for one block of `(head, rel, tail)` triples,
    /// one group of [`BLOCK_GROUP`] examples at a time: **score** the group
    /// ([`Self::score_triples`]), turn each score into an upstream loss
    /// coefficient via `coeff_of(example_idx, score)` (called in example
    /// order — the place to accumulate the loss), then, example by example,
    /// **add** the regularized gradient ([`Self::grad_add`], L2 always
    /// executed) to the example's rows of the sparse accumulators. Rows
    /// enter an accumulator in example order, head before tail.
    ///
    /// No embedding row is copied and no gradient row is staged, and every
    /// destination row receives the f32 additions of the
    /// one-triple-at-a-time path in its order, so chunked results stay
    /// bit-identical across thread-pool sizes and dispatch arms. `scratch`
    /// is sized by `storage_dim()` alone and reused — steady state
    /// allocates nothing.
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
        const L: usize = BLOCK_GROUP;
        let dim = self.storage_dim();
        assert!(ent.dim() == dim && rel.dim() == dim);
        assert!(ent_out.dim() == dim && rel_out.dim() == dim);
        scratch.tmp.resize(3 * dim, 0.0);
        let mut scores = [0.0f32; L];
        // The previous example's rows and slots: a negative shares its
        // positive's relation and one entity, and skips their index probes.
        let (mut ent_memo, mut rel_memo) = ([None; 2], [None; 1]);
        for (g, group) in triples.chunks(L).enumerate() {
            let scores = &mut scores[..group.len()];
            self.score_triples(ent, rel, group, &mut scratch.terms, scores);
            // Scores become coefficients in place, the whole group before
            // its first backward.
            for (i, s) in scores.iter_mut().enumerate() {
                *s = coeff_of(g * L + i, *s);
            }
            for (&coeff, &(h, r, t)) in scores.iter().zip(group) {
                let hs = ent_out.slot_of(h, &ent_memo);
                let ts = ent_out.slot_of(t, &[Some((h, hs)), ent_memo[1], ent_memo[0]]);
                let rs = rel_out.slot_of(r, &rel_memo);
                (ent_memo, rel_memo) = ([Some((h, hs)), Some((t, ts))], [Some((r, rs))]);
                let src = [ent.row(h as usize), rel.row(r as usize), ent.row(t as usize)];
                let dst = GradDst {
                    ent: ent_out.slab_mut(),
                    h: hs * dim,
                    t: ts * dim,
                    rel: rel_out.slot_mut(rs),
                };
                self.grad_add(src, coeff, l2_reg, dst, &mut scratch.tmp);
            }
        }
    }
}

/// ComplEx (Trouillon et al., 2016) — the paper's model.
///
/// Rows store `[Re(e_1..d) | Im(e_1..d)]`. The score is
/// `φ = Re(⟨r, h, conj(t)⟩)`, expanded (paper Eq. 1) as
///
/// ```text
/// φ = Σ_k  Re(r)(Re(h)Re(t) + Im(h)Im(t)) + Im(r)(Re(h)Im(t) − Im(h)Re(t))
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComplEx {
    rank: usize,
}

impl ComplEx {
    pub fn new(rank: usize) -> Self {
        assert!(rank > 0);
        ComplEx { rank }
    }
}

impl KgeModel for ComplEx {
    fn name(&self) -> &'static str {
        "complex"
    }

    fn rank(&self) -> usize {
        self.rank
    }

    fn storage_dim(&self) -> usize {
        2 * self.rank
    }

    fn score(&self, h: &[f32], r: &[f32], t: &[f32]) -> f32 {
        let d = self.rank;
        debug_assert_eq!(h.len(), 2 * d);
        debug_assert_eq!(r.len(), 2 * d);
        debug_assert_eq!(t.len(), 2 * d);
        let (hr, hi) = h.split_at(d);
        let (rr, ri) = r.split_at(d);
        let (tr, ti) = t.split_at(d);
        let mut s = 0.0f32;
        for k in 0..d {
            s += rr[k] * (hr[k] * tr[k] + hi[k] * ti[k]) + ri[k] * (hr[k] * ti[k] - hi[k] * tr[k]);
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
        let d = self.rank;
        let (hr, hi) = h.split_at(d);
        let (rr, ri) = r.split_at(d);
        let (tr, ti) = t.split_at(d);
        let (ghr, ghi) = gh.split_at_mut(d);
        let (grr, gri) = gr.split_at_mut(d);
        let (gtr, gti) = gt.split_at_mut(d);
        for k in 0..d {
            // ∂φ/∂Re(h) = Re(r)Re(t) + Im(r)Im(t)
            ghr[k] += coeff * (rr[k] * tr[k] + ri[k] * ti[k]);
            // ∂φ/∂Im(h) = Re(r)Im(t) − Im(r)Re(t)
            ghi[k] += coeff * (rr[k] * ti[k] - ri[k] * tr[k]);
            // ∂φ/∂Re(r) = Re(h)Re(t) + Im(h)Im(t)
            grr[k] += coeff * (hr[k] * tr[k] + hi[k] * ti[k]);
            // ∂φ/∂Im(r) = Re(h)Im(t) − Im(h)Re(t)
            gri[k] += coeff * (hr[k] * ti[k] - hi[k] * tr[k]);
            // ∂φ/∂Re(t) = Re(r)Re(h) − Im(r)Im(h)
            gtr[k] += coeff * (rr[k] * hr[k] - ri[k] * hi[k]);
            // ∂φ/∂Im(t) = Re(r)Im(h) + Im(r)Re(h)
            gti[k] += coeff * (rr[k] * hi[k] + ri[k] * hr[k]);
        }
    }

    fn score_flops(&self) -> f64 {
        (10 * self.rank) as f64
    }

    fn grad_add(&self, src: [&[f32]; 3], coeff: f32, l2: f32, dst: GradDst<'_>, _: &mut [f32]) {
        complex_grad_add(self.rank, src, coeff, l2, dst);
    }

    fused_score_triples!(complex_terms);

    /// Fused one-vs-all: query/relation halves are split once, then the
    /// candidate tile streams through in groups of [`OVA_LANES`] rows with
    /// one accumulator per row. Each candidate's per-`k` expression and
    /// accumulation order are exactly [`Self::score`]'s with `h` or `t`
    /// substituted — no algebraic refactoring (e.g. pre-folding `r` into
    /// the query), which would change f32 rounding and break rank
    /// bit-identity. The cross-candidate grouping only interleaves
    /// *independent* sum chains, trading the single chain's add latency
    /// for instruction-level parallelism.
    fn score_one_vs_all(
        &self,
        query: &[f32],
        r: &[f32],
        candidates: &[f32],
        dir: ReplaceDir,
        scores: &mut [f32],
    ) {
        let d = self.rank;
        let dim = 2 * d;
        debug_assert_eq!(candidates.len(), scores.len() * dim);
        let (qr, qi) = query.split_at(d);
        let (rr, ri) = r.split_at(d);
        let n = scores.len();
        let n_grouped = n - n % OVA_LANES;
        match dir {
            ReplaceDir::Tail => {
                for c0 in (0..n_grouped).step_by(OVA_LANES) {
                    let mut rows = [(&[][..], &[][..]); OVA_LANES];
                    for (j, row) in rows.iter_mut().enumerate() {
                        *row = candidates[(c0 + j) * dim..(c0 + j + 1) * dim].split_at(d);
                    }
                    let mut acc = [0.0f32; OVA_LANES];
                    for k in 0..d {
                        let (qrk, qik, rrk, rik) = (qr[k], qi[k], rr[k], ri[k]);
                        for (a, (tr, ti)) in acc.iter_mut().zip(&rows) {
                            *a += rrk * (qrk * tr[k] + qik * ti[k])
                                + rik * (qrk * ti[k] - qik * tr[k]);
                        }
                    }
                    scores[c0..c0 + OVA_LANES].copy_from_slice(&acc);
                }
                for c in n_grouped..n {
                    let (tr, ti) = candidates[c * dim..(c + 1) * dim].split_at(d);
                    let mut acc = 0.0f32;
                    for k in 0..d {
                        acc += rr[k] * (qr[k] * tr[k] + qi[k] * ti[k])
                            + ri[k] * (qr[k] * ti[k] - qi[k] * tr[k]);
                    }
                    scores[c] = acc;
                }
            }
            ReplaceDir::Head => {
                for c0 in (0..n_grouped).step_by(OVA_LANES) {
                    let mut rows = [(&[][..], &[][..]); OVA_LANES];
                    for (j, row) in rows.iter_mut().enumerate() {
                        *row = candidates[(c0 + j) * dim..(c0 + j + 1) * dim].split_at(d);
                    }
                    let mut acc = [0.0f32; OVA_LANES];
                    for k in 0..d {
                        let (qrk, qik, rrk, rik) = (qr[k], qi[k], rr[k], ri[k]);
                        for (a, (hr, hi)) in acc.iter_mut().zip(&rows) {
                            *a += rrk * (hr[k] * qrk + hi[k] * qik)
                                + rik * (hr[k] * qik - hi[k] * qrk);
                        }
                    }
                    scores[c0..c0 + OVA_LANES].copy_from_slice(&acc);
                }
                for c in n_grouped..n {
                    let (hr, hi) = candidates[c * dim..(c + 1) * dim].split_at(d);
                    let mut acc = 0.0f32;
                    for k in 0..d {
                        acc += rr[k] * (hr[k] * qr[k] + hi[k] * qi[k])
                            + ri[k] * (hr[k] * qi[k] - hi[k] * qr[k]);
                    }
                    scores[c] = acc;
                }
            }
        }
    }

    fn has_transposed_kernel(&self) -> bool {
        true
    }

    /// Transposed one-vs-all, register-blocked: each [`OVA_T_LANES`]-wide
    /// candidate chunk keeps its accumulators in registers across the
    /// whole `k` loop (`0` then `+=` per `k` in ascending order —
    /// [`Self::score`]'s exact sequence per candidate), loading the
    /// tile's `k`-th column pair with unit-stride vector loads. Runs the
    /// AVX2 function-multiversion where the CPU supports it.
    fn score_one_vs_all_transposed(
        &self,
        query: &[f32],
        r: &[f32],
        tile_t: &[f32],
        rows: usize,
        dir: ReplaceDir,
        scores: &mut [f32],
    ) {
        complex_ova_t(self.rank, query, r, tile_t, rows, dir, scores);
    }
}

/// DistMult — ComplEx restricted to real embeddings: `φ = Σ h·r·t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistMult {
    rank: usize,
}

impl DistMult {
    pub fn new(rank: usize) -> Self {
        assert!(rank > 0);
        DistMult { rank }
    }
}

impl KgeModel for DistMult {
    fn name(&self) -> &'static str {
        "distmult"
    }

    fn rank(&self) -> usize {
        self.rank
    }

    fn storage_dim(&self) -> usize {
        self.rank
    }

    fn score(&self, h: &[f32], r: &[f32], t: &[f32]) -> f32 {
        let mut s = 0.0;
        for k in 0..self.rank {
            s += h[k] * r[k] * t[k];
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
        for k in 0..self.rank {
            gh[k] += coeff * r[k] * t[k];
            gr[k] += coeff * h[k] * t[k];
            gt[k] += coeff * h[k] * r[k];
        }
    }

    fn score_flops(&self) -> f64 {
        (3 * self.rank) as f64
    }

    fn grad_add(&self, src: [&[f32]; 3], coeff: f32, l2: f32, dst: GradDst<'_>, _: &mut [f32]) {
        distmult_grad_add(self.rank, src, coeff, l2, dst);
    }

    fused_score_triples!(distmult_terms);

    /// Fused one-vs-all (see [`ComplEx::score_one_vs_all`]): the product
    /// keeps [`Self::score`]'s `h·r` then `·t` association in both
    /// directions, so scores stay bit-identical to the scalar path.
    /// In the tail direction `query[k]·r[k]` is hoisted out of the lane
    /// loop — the identical f32 product, computed once per `k`.
    fn score_one_vs_all(
        &self,
        query: &[f32],
        r: &[f32],
        candidates: &[f32],
        dir: ReplaceDir,
        scores: &mut [f32],
    ) {
        let dim = self.rank;
        debug_assert_eq!(candidates.len(), scores.len() * dim);
        let n = scores.len();
        let n_grouped = n - n % OVA_LANES;
        match dir {
            ReplaceDir::Tail => {
                for c0 in (0..n_grouped).step_by(OVA_LANES) {
                    let mut rows = [&[][..]; OVA_LANES];
                    for (j, row) in rows.iter_mut().enumerate() {
                        *row = &candidates[(c0 + j) * dim..(c0 + j + 1) * dim];
                    }
                    let mut acc = [0.0f32; OVA_LANES];
                    for k in 0..dim {
                        let qrk = query[k] * r[k];
                        for (a, c) in acc.iter_mut().zip(&rows) {
                            *a += qrk * c[k];
                        }
                    }
                    scores[c0..c0 + OVA_LANES].copy_from_slice(&acc);
                }
                for c in n_grouped..n {
                    let row = &candidates[c * dim..(c + 1) * dim];
                    let mut acc = 0.0f32;
                    for k in 0..dim {
                        acc += query[k] * r[k] * row[k];
                    }
                    scores[c] = acc;
                }
            }
            ReplaceDir::Head => {
                for c0 in (0..n_grouped).step_by(OVA_LANES) {
                    let mut rows = [&[][..]; OVA_LANES];
                    for (j, row) in rows.iter_mut().enumerate() {
                        *row = &candidates[(c0 + j) * dim..(c0 + j + 1) * dim];
                    }
                    let mut acc = [0.0f32; OVA_LANES];
                    for k in 0..dim {
                        let (rk, qk) = (r[k], query[k]);
                        for (a, c) in acc.iter_mut().zip(&rows) {
                            *a += c[k] * rk * qk;
                        }
                    }
                    scores[c0..c0 + OVA_LANES].copy_from_slice(&acc);
                }
                for c in n_grouped..n {
                    let row = &candidates[c * dim..(c + 1) * dim];
                    let mut acc = 0.0f32;
                    for k in 0..dim {
                        acc += row[k] * r[k] * query[k];
                    }
                    scores[c] = acc;
                }
            }
        }
    }

    fn has_transposed_kernel(&self) -> bool {
        true
    }

    /// Transposed one-vs-all (see [`ComplEx::score_one_vs_all_transposed`]).
    /// Tail hoists the exact `query[k]·r[k]` product; head keeps
    /// [`Self::score`]'s `(c·r)·q` association with the scalars in
    /// registers.
    fn score_one_vs_all_transposed(
        &self,
        query: &[f32],
        r: &[f32],
        tile_t: &[f32],
        rows: usize,
        dir: ReplaceDir,
        scores: &mut [f32],
    ) {
        distmult_ova_t(self.rank, query, r, tile_t, rows, dir, scores);
    }
}

/// TransE — translation model. The *score* here is the negated squared
/// distance `φ = −‖h + r − t‖²` so that, like the multiplicative models,
/// larger means more plausible and the same logistic loss applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransE {
    rank: usize,
}

impl TransE {
    pub fn new(rank: usize) -> Self {
        assert!(rank > 0);
        TransE { rank }
    }
}

impl KgeModel for TransE {
    fn name(&self) -> &'static str {
        "transe"
    }

    fn rank(&self) -> usize {
        self.rank
    }

    fn storage_dim(&self) -> usize {
        self.rank
    }

    fn score(&self, h: &[f32], r: &[f32], t: &[f32]) -> f32 {
        let mut s = 0.0;
        for k in 0..self.rank {
            let d = h[k] + r[k] - t[k];
            s -= d * d;
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
        for k in 0..self.rank {
            let d = h[k] + r[k] - t[k];
            // ∂φ/∂h = −2d, ∂φ/∂r = −2d, ∂φ/∂t = +2d
            gh[k] += coeff * (-2.0 * d);
            gr[k] += coeff * (-2.0 * d);
            gt[k] += coeff * (2.0 * d);
        }
    }

    fn score_flops(&self) -> f64 {
        (4 * self.rank) as f64
    }

    fn grad_add(&self, src: [&[f32]; 3], coeff: f32, l2: f32, dst: GradDst<'_>, _: &mut [f32]) {
        transe_grad_add(self.rank, src, coeff, l2, dst);
    }

    fused_score_triples!(transe_terms);

    /// Fused one-vs-all (see [`ComplEx::score_one_vs_all`]): the residual
    /// keeps [`Self::score`]'s `(h + r) - t` association. In the tail
    /// direction the already-associated `query[k] + r[k]` is hoisted out
    /// of the lane loop — the identical f32 sum, computed once per `k`;
    /// in the head direction each candidate supplies `h`, so nothing can
    /// be hoisted past the scalar `r[k]`/`query[k]` loads.
    fn score_one_vs_all(
        &self,
        query: &[f32],
        r: &[f32],
        candidates: &[f32],
        dir: ReplaceDir,
        scores: &mut [f32],
    ) {
        let dim = self.rank;
        debug_assert_eq!(candidates.len(), scores.len() * dim);
        let n = scores.len();
        let n_grouped = n - n % OVA_LANES;
        match dir {
            ReplaceDir::Tail => {
                for c0 in (0..n_grouped).step_by(OVA_LANES) {
                    let mut rows = [&[][..]; OVA_LANES];
                    for (j, row) in rows.iter_mut().enumerate() {
                        *row = &candidates[(c0 + j) * dim..(c0 + j + 1) * dim];
                    }
                    let mut acc = [0.0f32; OVA_LANES];
                    for k in 0..dim {
                        let qrk = query[k] + r[k];
                        for (a, c) in acc.iter_mut().zip(&rows) {
                            let d = qrk - c[k];
                            *a -= d * d;
                        }
                    }
                    scores[c0..c0 + OVA_LANES].copy_from_slice(&acc);
                }
                for c in n_grouped..n {
                    let row = &candidates[c * dim..(c + 1) * dim];
                    let mut acc = 0.0f32;
                    for k in 0..dim {
                        let d = query[k] + r[k] - row[k];
                        acc -= d * d;
                    }
                    scores[c] = acc;
                }
            }
            ReplaceDir::Head => {
                for c0 in (0..n_grouped).step_by(OVA_LANES) {
                    let mut rows = [&[][..]; OVA_LANES];
                    for (j, row) in rows.iter_mut().enumerate() {
                        *row = &candidates[(c0 + j) * dim..(c0 + j + 1) * dim];
                    }
                    let mut acc = [0.0f32; OVA_LANES];
                    for k in 0..dim {
                        let (rk, qk) = (r[k], query[k]);
                        for (a, c) in acc.iter_mut().zip(&rows) {
                            let d = c[k] + rk - qk;
                            *a -= d * d;
                        }
                    }
                    scores[c0..c0 + OVA_LANES].copy_from_slice(&acc);
                }
                for c in n_grouped..n {
                    let row = &candidates[c * dim..(c + 1) * dim];
                    let mut acc = 0.0f32;
                    for k in 0..dim {
                        let d = row[k] + r[k] - query[k];
                        acc -= d * d;
                    }
                    scores[c] = acc;
                }
            }
        }
    }

    fn has_transposed_kernel(&self) -> bool {
        true
    }

    /// Transposed one-vs-all (see [`ComplEx::score_one_vs_all_transposed`]).
    /// Tail hoists the exact already-associated `query[k] + r[k]`; head
    /// keeps [`Self::score`]'s `(c + r) − q` association.
    fn score_one_vs_all_transposed(
        &self,
        query: &[f32],
        r: &[f32],
        tile_t: &[f32],
        rows: usize,
        dir: ReplaceDir,
        scores: &mut [f32],
    ) {
        transe_ova_t(self.rank, query, r, tile_t, rows, dir, scores);
    }
}


/// RotatE-style rotation model (Sun et al. 2019), unconstrained variant:
/// entities and relations are complex vectors and the score is the
/// negated squared modulus of the rotation residual,
/// `φ = −Σ_k |h_k · r_k − t_k|²`. The canonical RotatE constrains
/// `|r_k| = 1`; this implementation leaves the modulus free (a common
/// relaxation that keeps the parametrization unconstrained and the
/// gradient simple) — relations can rotate *and* scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RotatE {
    rank: usize,
}

impl RotatE {
    pub fn new(rank: usize) -> Self {
        assert!(rank > 0);
        RotatE { rank }
    }
}

impl KgeModel for RotatE {
    fn name(&self) -> &'static str {
        "rotate"
    }

    fn rank(&self) -> usize {
        self.rank
    }

    fn storage_dim(&self) -> usize {
        2 * self.rank
    }

    fn score(&self, h: &[f32], r: &[f32], t: &[f32]) -> f32 {
        let d = self.rank;
        let (hr, hi) = h.split_at(d);
        let (rr, ri) = r.split_at(d);
        let (tr, ti) = t.split_at(d);
        let mut s = 0.0f32;
        for k in 0..d {
            let ure = hr[k] * rr[k] - hi[k] * ri[k] - tr[k];
            let uim = hr[k] * ri[k] + hi[k] * rr[k] - ti[k];
            s -= ure * ure + uim * uim;
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
        let d = self.rank;
        let (hr, hi) = h.split_at(d);
        let (rr, ri) = r.split_at(d);
        let (tr, ti) = t.split_at(d);
        let (ghr, ghi) = gh.split_at_mut(d);
        let (grr, gri) = gr.split_at_mut(d);
        let (gtr, gti) = gt.split_at_mut(d);
        for k in 0..d {
            let ure = hr[k] * rr[k] - hi[k] * ri[k] - tr[k];
            let uim = hr[k] * ri[k] + hi[k] * rr[k] - ti[k];
            let c = -2.0 * coeff;
            ghr[k] += c * (ure * rr[k] + uim * ri[k]);
            ghi[k] += c * (-ure * ri[k] + uim * rr[k]);
            grr[k] += c * (ure * hr[k] + uim * hi[k]);
            gri[k] += c * (-ure * hi[k] + uim * hr[k]);
            gtr[k] += -c * ure;
            gti[k] += -c * uim;
        }
    }

    fn score_flops(&self) -> f64 {
        (14 * self.rank) as f64
    }
}

/// SimplE (Kazemi & Poole 2018): every entity keeps a head-role and a
/// tail-role embedding, every relation a forward and an inverse vector;
/// `φ = ½(⟨h_head, r, t_tail⟩ + ⟨t_head, r⁻¹, h_tail⟩)`. Rows store
/// `[head-role | tail-role]` for entities and `[forward | inverse]` for
/// relations, so the uniform `storage_dim = 2·rank` layout holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimplE {
    rank: usize,
}

impl SimplE {
    pub fn new(rank: usize) -> Self {
        assert!(rank > 0);
        SimplE { rank }
    }
}

impl KgeModel for SimplE {
    fn name(&self) -> &'static str {
        "simple"
    }

    fn rank(&self) -> usize {
        self.rank
    }

    fn storage_dim(&self) -> usize {
        2 * self.rank
    }

    fn score(&self, h: &[f32], r: &[f32], t: &[f32]) -> f32 {
        let d = self.rank;
        let (hh, ht) = h.split_at(d);
        let (rf, rinv) = r.split_at(d);
        let (th, tt) = t.split_at(d);
        let mut s = 0.0f32;
        for k in 0..d {
            s += 0.5 * (hh[k] * rf[k] * tt[k] + th[k] * rinv[k] * ht[k]);
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
        let d = self.rank;
        let (hh, ht) = h.split_at(d);
        let (rf, rinv) = r.split_at(d);
        let (th, tt) = t.split_at(d);
        let (ghh, ght) = gh.split_at_mut(d);
        let (grf, grinv) = gr.split_at_mut(d);
        let (gth, gtt) = gt.split_at_mut(d);
        let half = 0.5 * coeff;
        for k in 0..d {
            ghh[k] += half * rf[k] * tt[k];
            ght[k] += half * th[k] * rinv[k];
            grf[k] += half * hh[k] * tt[k];
            grinv[k] += half * th[k] * ht[k];
            gth[k] += half * rinv[k] * ht[k];
            gtt[k] += half * hh[k] * rf[k];
        }
    }

    fn score_flops(&self) -> f64 {
        (6 * self.rank) as f64
    }
}

/// Helper for tests and evaluation: score a triple given whole tables.
pub fn score_rows(
    model: &dyn KgeModel,
    ent: &crate::EmbeddingTable,
    rel: &crate::EmbeddingTable,
    h: usize,
    r: usize,
    t: usize,
) -> f32 {
    model.score(ent.row(h), rel.row(r), ent.row(t))
}

/// Check two slices are elementwise within `tol` (test helper, re-used by
/// downstream crates' tests).
pub fn approx_eq(a: &[f32], b: &[f32], tol: f32) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
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

/// Convenience: the plain real dot-product triple score used in sanity
/// tests (`h·t` ignoring the relation).
pub fn dot_score(h: &[f32], t: &[f32]) -> f32 {
    dot(h, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_vec(rng: &mut StdRng, n: usize) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
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
    fn score_rows_reads_tables() {
        use crate::EmbeddingTable;
        let mut ent = EmbeddingTable::zeros(2, 2);
        let mut rel = EmbeddingTable::zeros(1, 2);
        ent.row_mut(0).copy_from_slice(&[1.0, 2.0]);
        ent.row_mut(1).copy_from_slice(&[3.0, 4.0]);
        rel.row_mut(0).copy_from_slice(&[1.0, 1.0]);
        let m = DistMult::new(2);
        assert_eq!(score_rows(&m, &ent, &rel, 0, 0, 1), 1.0 * 3.0 + 2.0 * 4.0);
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

    /// `grad_add` against the definition — form the three rows with `grad`
    /// and the L2 term, then `+=` them head, tail, relation — on distinct
    /// rows and on a self-loop, where head and tail land in one row.
    fn check_grad_add_matches_scalar(model: &dyn KgeModel) {
        let mut rng = StdRng::seed_from_u64(33);
        let dim = model.storage_dim();
        let (h, r, t) = (rand_vec(&mut rng, dim), rand_vec(&mut rng, dim), rand_vec(&mut rng, dim));
        let (coeff, l2) = (0.37f32, 0.011f32);
        let (mut gh, mut gr, mut gt) = (vec![0.0f32; dim], vec![0.0f32; dim], vec![0.0f32; dim]);
        model.grad(&h, &r, &t, coeff, &mut gh, &mut gr, &mut gt);
        axpy(l2, &h, &mut gh);
        axpy(l2, &r, &mut gr);
        axpy(l2, &t, &mut gt);
        for (ho, to) in [(0, dim), (dim, 0), (dim, dim)] {
            // Non-zero destinations, so accumulation is what is checked.
            let ent0 = rand_vec(&mut rng, 2 * dim);
            let rel0 = rand_vec(&mut rng, dim);
            let (mut want_ent, mut want_rel) = (ent0.clone(), rel0.clone());
            axpy(1.0, &gh, &mut want_ent[ho..ho + dim]);
            axpy(1.0, &gt, &mut want_ent[to..to + dim]);
            axpy(1.0, &gr, &mut want_rel);
            let (mut ent, mut rel) = (ent0, rel0);
            let dst = GradDst { ent: &mut ent, h: ho, t: to, rel: &mut rel };
            model.grad_add([&h, &r, &t], coeff, l2, dst, &mut vec![9.0f32; 3 * dim]);
            assert_eq!(ent, want_ent, "{} entity rows at ({ho}, {to})", model.name());
            assert_eq!(rel, want_rel, "{} relation row at ({ho}, {to})", model.name());
        }
    }

    #[test]
    fn grad_add_matches_scalar_for_every_model() {
        check_grad_add_matches_scalar(&ComplEx::new(13)); // one vector step + tail
        check_grad_add_matches_scalar(&DistMult::new(19));
        check_grad_add_matches_scalar(&TransE::new(8));
        check_grad_add_matches_scalar(&RotatE::new(5)); // default impl
        check_grad_add_matches_scalar(&SimplE::new(6));
    }

    fn check_one_vs_all_matches_scalar(model: &dyn KgeModel) {
        let mut rng = StdRng::seed_from_u64(55);
        let dim = model.storage_dim();
        let n_cand = 9;
        let query = rand_vec(&mut rng, dim);
        let r = rand_vec(&mut rng, dim);
        let candidates = rand_vec(&mut rng, n_cand * dim);
        for dir in [ReplaceDir::Head, ReplaceDir::Tail] {
            // Poison the output so overwrite semantics are exercised.
            let mut scores = vec![99.0f32; n_cand];
            model.score_one_vs_all(&query, &r, &candidates, dir, &mut scores);
            for i in 0..n_cand {
                let c = &candidates[i * dim..(i + 1) * dim];
                let scalar = match dir {
                    ReplaceDir::Head => model.score(c, &r, &query),
                    ReplaceDir::Tail => model.score(&query, &r, c),
                };
                assert_eq!(
                    scores[i].to_bits(),
                    scalar.to_bits(),
                    "{} one-vs-all {dir:?} candidate {i}",
                    model.name()
                );
            }
        }
    }

    #[test]
    fn one_vs_all_matches_scalar_for_every_model() {
        check_one_vs_all_matches_scalar(&ComplEx::new(5));
        check_one_vs_all_matches_scalar(&DistMult::new(8));
        check_one_vs_all_matches_scalar(&TransE::new(8));
        check_one_vs_all_matches_scalar(&RotatE::new(5)); // default impl
        check_one_vs_all_matches_scalar(&SimplE::new(6));
    }

    #[test]
    fn one_vs_all_handles_empty_tile() {
        let m = DistMult::new(4);
        let mut scores: Vec<f32> = Vec::new();
        m.score_one_vs_all(&[1.0; 4], &[1.0; 4], &[], ReplaceDir::Tail, &mut scores);
        assert!(scores.is_empty());
    }

    fn check_transposed_matches_scalar(model: &dyn KgeModel) {
        assert!(model.has_transposed_kernel(), "{}", model.name());
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
    fn transposed_one_vs_all_matches_scalar_where_fused() {
        check_transposed_matches_scalar(&ComplEx::new(5));
        check_transposed_matches_scalar(&DistMult::new(8));
        check_transposed_matches_scalar(&TransE::new(8));
        // Models without a fused transposed kernel must say so.
        assert!(!RotatE::new(5).has_transposed_kernel());
        assert!(!SimplE::new(6).has_transposed_kernel());
    }

    #[test]
    #[should_panic(expected = "no transposed one-vs-all kernel")]
    fn transposed_default_panics() {
        let m = RotatE::new(3);
        let mut scores = [0.0f32; 1];
        let row = vec![0.0f32; m.storage_dim()];
        m.score_one_vs_all_transposed(&row, &row, &row, 1, ReplaceDir::Tail, &mut scores);
    }

    #[test]
    fn score_grad_block_matches_one_triple_path() {
        use crate::matrix::axpy;
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

    /// Temporary (deleted with the kernels it reads): the generic drivers
    /// reproduce the hand-written kernels' outputs to the bit — one-vs-all
    /// in both directions over full, ragged and empty tiles, backward on
    /// distinct rows and on a self-loop — under both dispatch arms.
    #[test]
    fn generic_drivers_match_the_hand_written_kernels() {
        fn check<const P: usize>(
            model: &dyn KgeModel,
            term: impl Term<P>,
            grad_terms: impl GradTerms<P>,
        ) {
            let mut rng = StdRng::seed_from_u64(91);
            let (rank, dim) = (model.rank(), model.storage_dim());
            for force_scalar in [true, false] {
                crate::simd::set_force_scalar(Some(force_scalar));
                for rows in [0usize, 1, 15, 16, 17, 33, 48] {
                    let (query, r) = (rand_vec(&mut rng, dim), rand_vec(&mut rng, dim));
                    let tile_t = rand_vec(&mut rng, rows * dim);
                    for dir in [ReplaceDir::Head, ReplaceDir::Tail] {
                        let (mut old, mut new) = (vec![9.0f32; rows], vec![7.0f32; rows]);
                        model.score_one_vs_all_transposed(&query, &r, &tile_t, rows, dir, &mut old);
                        ova_t(term, rank, &query, &r, &tile_t, rows, dir, &mut new);
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&old), bits(&new), "{} {dir:?} rows={rows}", model.name());
                    }
                }
                let (h, r, t) = (rand_vec(&mut rng, dim), rand_vec(&mut rng, dim), rand_vec(&mut rng, dim));
                for (ho, to) in [(0, dim), (dim, 0), (dim, dim)] {
                    let (ent0, rel0) = (rand_vec(&mut rng, 2 * dim), rand_vec(&mut rng, dim));
                    let (mut old_ent, mut old_rel) = (ent0.clone(), rel0.clone());
                    let dst = GradDst { ent: &mut old_ent, h: ho, t: to, rel: &mut old_rel };
                    model.grad_add([&h, &r, &t], 0.37, 0.011, dst, &mut []);
                    let (mut ent, mut rel) = (ent0, rel0);
                    let dst = GradDst { ent: &mut ent, h: ho, t: to, rel: &mut rel };
                    grad_add(grad_terms, rank, [&h, &r, &t], 0.37, 0.011, dst);
                    assert_eq!(old_ent, ent, "{} entity rows at ({ho}, {to})", model.name());
                    assert_eq!(old_rel, rel, "{} relation row at ({ho}, {to})", model.name());
                }
            }
            crate::simd::set_force_scalar(None);
        }
        for rank in [5, 8, 13, 32] {
            check(&ComplEx::new(rank), complex_term, complex_grad_terms);
            check(&DistMult::new(rank), distmult_term, distmult_grad_terms);
            check(&TransE::new(rank), transe_term, transe_grad_terms);
        }
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
