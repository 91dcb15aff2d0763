//! Top-k selection over one-vs-all score sweeps.
//!
//! The serving hot path scores every entity against a query tile by tile,
//! 32 lanes at a time ([`KgeModel::score_one_vs_all_transposed`]), and must
//! keep only the best `k`. [`TopKHeap`] is a fixed-capacity partial heap
//! with a two-level threshold filter: per tile, a vectorizable max-reduce
//! against the worst kept entry rejects whole tiles at once
//! ([`offer_tile`]); per candidate, a full heap rejects losers with a
//! single root comparison (`offer`) — so in steady state (almost every
//! tile loses) selection costs a fraction of a comparison per candidate
//! on top of the SIMD scoring sweep.
//!
//! [`offer_tile`]: TopKHeap::offer_tile
//!
//! Ordering is total and deterministic: higher score wins, ties break
//! toward the **lower entity id** ([`beats`]), and NaN scores are
//! excluded entirely — so the result set, its order, and its scores are
//! bit-identical to the scalar full-sort oracle ([`oracle_topk`]), which
//! the property suite asserts across models, dims, and `k`.
//!
//! [`KgeModel::score_one_vs_all_transposed`]: kge_core::KgeModel::score_one_vs_all_transposed

use kge_core::{EmbeddingTable, KgeModel, ReplaceDir};

/// One scored candidate in a top-k result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopHit {
    pub entity: u32,
    pub score: f32,
}

/// Strict total order on `(score, entity)` pairs: does candidate `a` rank
/// ahead of `b`? Higher score first; equal scores break toward the lower
/// entity id. Returns `false` when `score_a` is NaN (a NaN candidate
/// never beats anything, so NaN rows can never enter a result set).
#[inline]
pub fn beats(score_a: f32, entity_a: u32, score_b: f32, entity_b: u32) -> bool {
    score_a > score_b || (score_a == score_b && entity_a < entity_b)
}

/// Fixed-capacity selection heap: keeps the best `k` `(entity, score)`
/// pairs seen so far, worst-of-the-kept at the root. Buffers are pooled
/// and reused via [`reset`] — steady-state batches allocate nothing.
///
/// [`reset`]: TopKHeap::reset
#[derive(Default)]
pub struct TopKHeap {
    /// Binary min-heap under [`beats`]: `entries[0]` is beaten by every
    /// other kept entry.
    entries: Vec<TopHit>,
    k: usize,
}

impl TopKHeap {
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty the heap and set its capacity to `k` (keeping allocation).
    pub fn reset(&mut self, k: usize) {
        self.entries.clear();
        self.entries.reserve(k);
        self.k = k;
    }

    /// Entries currently kept.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The score a candidate must beat to enter a **full** heap — the
    /// per-tile threshold filter: a whole tile whose score upper bound
    /// falls below this cannot contribute and may be skipped wholesale.
    pub fn threshold(&self) -> Option<f32> {
        (self.k > 0 && self.entries.len() == self.k).then(|| self.entries[0].score)
    }

    /// Offer one candidate. NaN scores are ignored; a full heap rejects
    /// losers with a single root comparison.
    #[inline]
    fn offer(&mut self, entity: u32, score: f32) {
        if score.is_nan() || self.k == 0 {
            return;
        }
        if self.entries.len() < self.k {
            self.entries.push(TopHit { entity, score });
            self.sift_up(self.entries.len() - 1);
        } else {
            let root = self.entries[0];
            if beats(score, entity, root.score, root.entity) {
                self.entries[0] = TopHit { entity, score };
                self.sift_down(0);
            }
        }
    }

    /// Offer a whole scored tile (`scores[j]` is entity `e0 + j`) with a
    /// vectorized threshold pre-filter: when the heap is full, a single
    /// max-reduce over the tile decides whether any candidate *can*
    /// enter — strictly-below-threshold tiles (the steady state) are
    /// rejected without touching the heap at all. Exact: a candidate
    /// with `score < root score` is rejected by `offer` anyway, and a
    /// tile whose max ties the threshold falls through to the per-entry
    /// path where id tie-breaking applies. `f32::max` ignores NaN, so an
    /// all-NaN tile reduces to `-inf` and is skipped — `offer` drops
    /// NaN candidates too.
    #[inline]
    pub fn offer_tile(&mut self, e0: u32, scores: &[f32]) {
        if let Some(threshold) = self.threshold() {
            let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            if max < threshold {
                return;
            }
        }
        for (j, &s) in scores.iter().enumerate() {
            self.offer(e0 + j as u32, s);
        }
    }

    /// Move the kept entries into `out` (appending), best first, leaving
    /// the heap empty with its capacity intact.
    pub fn drain_sorted_into(&mut self, out: &mut Vec<TopHit>) {
        let start = out.len();
        out.extend_from_slice(&self.entries);
        self.entries.clear();
        out[start..].sort_unstable_by(|a, b| {
            if beats(a.score, a.entity, b.score, b.entity) {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Greater
            }
        });
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            let (c, p) = (self.entries[i], self.entries[parent]);
            // Min-heap under `beats`: the parent must lose to the child.
            if beats(p.score, p.entity, c.score, c.entity) {
                self.entries.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.entries.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut worst = i;
            for c in [l, r] {
                if c < n {
                    let (cand, cur) = (self.entries[c], self.entries[worst]);
                    if beats(cur.score, cur.entity, cand.score, cand.entity) {
                        worst = c;
                    }
                }
            }
            if worst == i {
                break;
            }
            self.entries.swap(i, worst);
            i = worst;
        }
    }
}

/// Scalar full-sort reference: score **every** entity with the frozen
/// per-triple [`KgeModel::score`] path, drop NaNs and the (sorted)
/// `exclude` ids, sort by [`beats`], truncate to `k`. The engine's heap
/// path must match this bit-for-bit — ids, scores, and order.
pub fn oracle_topk(
    model: &dyn KgeModel,
    ent: &EmbeddingTable,
    r_row: &[f32],
    query_row: &[f32],
    dir: ReplaceDir,
    k: usize,
    exclude: &[u32],
) -> Vec<TopHit> {
    debug_assert!(exclude.windows(2).all(|w| w[0] <= w[1]), "exclude sorted");
    let mut all: Vec<TopHit> = (0..ent.rows() as u32)
        .filter(|e| exclude.binary_search(e).is_err())
        .map(|e| {
            let c = ent.row(e as usize);
            let score = match dir {
                ReplaceDir::Head => model.score(c, r_row, query_row),
                ReplaceDir::Tail => model.score(query_row, r_row, c),
            };
            TopHit { entity: e, score }
        })
        .filter(|h| !h.score.is_nan())
        .collect();
    all.sort_unstable_by(|a, b| {
        if beats(a.score, a.entity, b.score, b.entity) {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Greater
        }
    });
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(h: &mut TopKHeap) -> Vec<TopHit> {
        let mut out = Vec::new();
        h.drain_sorted_into(&mut out);
        out
    }

    #[test]
    fn keeps_best_k_sorted() {
        let mut h = TopKHeap::new();
        h.reset(3);
        for (e, s) in [(0, 1.0), (1, 5.0), (2, -2.0), (3, 4.0), (4, 0.5)] {
            h.offer(e, s);
        }
        let hits = drain(&mut h);
        assert_eq!(
            hits,
            vec![
                TopHit { entity: 1, score: 5.0 },
                TopHit { entity: 3, score: 4.0 },
                TopHit { entity: 0, score: 1.0 },
            ]
        );
    }

    #[test]
    fn ties_break_toward_lower_id() {
        let mut h = TopKHeap::new();
        h.reset(2);
        for e in [7u32, 3, 9, 1] {
            h.offer(e, 1.0);
        }
        let hits = drain(&mut h);
        assert_eq!(hits[0].entity, 1);
        assert_eq!(hits[1].entity, 3);
    }

    #[test]
    fn nan_never_enters() {
        let mut h = TopKHeap::new();
        h.reset(4);
        h.offer(0, f32::NAN);
        h.offer(1, -1.0);
        h.offer(2, f32::NAN);
        let hits = drain(&mut h);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].entity, 1);
    }

    #[test]
    fn threshold_is_worst_kept_when_full() {
        let mut h = TopKHeap::new();
        h.reset(2);
        assert_eq!(h.threshold(), None);
        h.offer(0, 3.0);
        h.offer(1, 7.0);
        assert_eq!(h.threshold(), Some(3.0));
        h.offer(2, 5.0);
        assert_eq!(h.threshold(), Some(5.0));
    }

    #[test]
    fn reset_reuses_and_zero_k_keeps_nothing() {
        let mut h = TopKHeap::new();
        h.reset(0);
        h.offer(0, 1.0);
        assert!(h.is_empty());
        h.reset(5);
        h.offer(0, 1.0);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn offer_tile_matches_per_entry_offers() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        for trial in 0..40 {
            let k = 1 + trial % 8;
            // Quantized scores force threshold ties; sprinkle NaNs.
            let scores: Vec<f32> = (0..160)
                .map(|_| {
                    if rng.gen::<f64>() < 0.05 {
                        f32::NAN
                    } else {
                        (rng.gen_range(0..9) - 4) as f32 * 0.5
                    }
                })
                .collect();
            let mut tiled = TopKHeap::new();
            let mut scalar = TopKHeap::new();
            tiled.reset(k);
            scalar.reset(k);
            for (t, tile) in scores.chunks(16).enumerate() {
                tiled.offer_tile((t * 16) as u32, tile);
            }
            for (e, &s) in scores.iter().enumerate() {
                scalar.offer(e as u32, s);
            }
            assert_eq!(drain(&mut tiled), drain(&mut scalar), "trial {trial}");
        }
    }

    #[test]
    fn offer_tile_skips_losing_tiles_but_admits_threshold_ties() {
        let mut h = TopKHeap::new();
        h.reset(2);
        h.offer_tile(0, &[5.0, 3.0]);
        assert_eq!(h.threshold(), Some(3.0));
        // Strictly below threshold: rejected wholesale.
        h.offer_tile(16, &[2.9, -1.0, 0.0]);
        assert_eq!(h.threshold(), Some(3.0));
        // Tie with the threshold at a *higher* id loses on the id order,
        // but the tile must still be examined.
        h.offer_tile(32, &[3.0]);
        let hits = drain(&mut h);
        assert_eq!(hits[1], TopHit { entity: 1, score: 3.0 });
    }

    #[test]
    fn matches_naive_on_random_streams() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..50 {
            let n = 1 + (trial * 13) % 200;
            let k = 1 + trial % 12;
            let cands: Vec<(u32, f32)> = (0..n as u32)
                .map(|e| (e, (rng.gen::<f64>() * 8.0 - 4.0) as f32))
                .collect();
            let mut h = TopKHeap::new();
            h.reset(k);
            for &(e, s) in &cands {
                h.offer(e, s);
            }
            let got = drain(&mut h);
            let mut expect = cands
                .iter()
                .map(|&(e, s)| TopHit { entity: e, score: s })
                .collect::<Vec<_>>();
            expect.sort_unstable_by(|a, b| {
                if beats(a.score, a.entity, b.score, b.entity) {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Greater
                }
            });
            expect.truncate(k);
            assert_eq!(got, expect, "trial {trial}");
        }
    }
}
