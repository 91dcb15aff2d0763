//! Link-prediction ranking metrics (raw & filtered MRR, Hits@k, mean rank).
//!
//! The filtered protocol scores every query against *all* entities —
//! O(|queries| × |E|) model evaluations, which dwarfs a training epoch on
//! Freebase-shaped data. This module therefore runs evaluation the same
//! way the trainer runs its hot path:
//!
//! - queries are sorted by relation and cut into units of eight, whatever
//!   their relations; each unit is swept against the entity table in
//!   L1-sized tiles through [`KgeModel::score_one_vs_all_transposed`], so one
//!   tile serves sixteen kernel calls (eight queries, two directions). The
//!   kernel's per-candidate reduction order is bit-identical to `score`, so
//!   every rank (including tie counts) matches the scalar reference path
//!   [`rank_of_scalar`] exactly;
//! - the per-candidate `FilterIndex::contains` hash probe is gone: each
//!   query side keeps a cursor into its short, sorted [`GroupedFilter`]
//!   list, and as the sweep reaches a tile it masks the scores it has just
//!   written for the true entity and the known completions in that tile,
//!   so they count as neither better nor tied — the scalar path's
//!   skip-before-score, with nothing scored twice;
//! - all state lives in a reusable [`RankingWorkspace`], which owns one
//!   scratch per thread, as the training batch loop does: each thread
//!   ranks one contiguous run of units, and steady-state evaluation
//!   allocates nothing on the single-thread path, with bit-identical
//!   results at any thread count.

use crate::transpose::TransposedTable;
use kge_core::{EmbeddingTable, KgeModel, ReplaceDir};
use kge_data::{FilterIndex, GroupedFilter, RelationCategory, Triple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Options for a ranking evaluation.
#[derive(Debug, Clone)]
pub struct RankingOptions {
    /// Skip candidate entities that form known true triples (the paper's
    /// filtered-MRR, its headline accuracy metric).
    pub filtered: bool,
    /// Evaluate at most this many queries, deterministically subsampled —
    /// keeps large-dataset evaluations tractable. `None` = all.
    pub max_queries: Option<usize>,
    /// Subsample seed.
    pub seed: u64,
}

impl Default for RankingOptions {
    fn default() -> Self {
        RankingOptions {
            filtered: true,
            max_queries: None,
            seed: 0,
        }
    }
}

/// Aggregated ranking metrics over both head- and tail-replacement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankingMetrics {
    pub mrr: f64,
    pub mean_rank: f64,
    pub hits1: f64,
    pub hits3: f64,
    pub hits10: f64,
    /// Number of (triple, direction) queries evaluated.
    pub n_queries: usize,
}

impl RankingMetrics {
    /// Aggregate a rank list (ordered; the f64 sums are taken in list
    /// order, so callers that need bit-identical metrics must present
    /// ranks in the same order).
    pub fn from_ranks(ranks: &[usize]) -> Self {
        let n = ranks.len().max(1);
        let mrr = ranks.iter().map(|&r| 1.0 / r as f64).sum::<f64>() / n as f64;
        let mean_rank = ranks.iter().map(|&r| r as f64).sum::<f64>() / n as f64;
        let hits = |k: usize| ranks.iter().filter(|&&r| r <= k).count() as f64 / n as f64;
        RankingMetrics {
            mrr,
            mean_rank,
            hits1: hits(1),
            hits3: hits(3),
            hits10: hits(10),
            n_queries: ranks.len(),
        }
    }
}

/// Rank of the true entity among all candidates for one query — the
/// scalar reference path (one `score` call and one filter hash probe per
/// candidate).
///
/// Rank = 1 + number of candidates scoring strictly higher, plus half of
/// the ties (the unbiased tie treatment; with continuous scores ties are
/// rare and this matches the strict definition).
///
/// Kept public as the oracle the blocked pipeline is property-tested and
/// benchmarked against; use [`evaluate_ranking`] for real evaluations.
pub fn rank_of_scalar(
    model: &dyn KgeModel,
    ent: &EmbeddingTable,
    rel: &EmbeddingTable,
    triple: Triple,
    replace_head: bool,
    filter: Option<&FilterIndex>,
) -> usize {
    let r = rel.row(triple.rel as usize);
    let true_score = model.score(
        ent.row(triple.head as usize),
        r,
        ent.row(triple.tail as usize),
    );
    let mut better = 0usize;
    let mut ties = 0usize;
    let n_entities = ent.rows();
    for e in 0..n_entities {
        let e32 = e as u32;
        if replace_head {
            if e32 == triple.head {
                continue;
            }
            if let Some(f) = filter {
                if f.contains(triple.with_head(e32)) {
                    continue;
                }
            }
        } else {
            if e32 == triple.tail {
                continue;
            }
            if let Some(f) = filter {
                if f.contains(triple.with_tail(e32)) {
                    continue;
                }
            }
        }
        let s = if replace_head {
            model.score(ent.row(e), r, ent.row(triple.tail as usize))
        } else {
            model.score(ent.row(triple.head as usize), r, ent.row(e))
        };
        if s > true_score {
            better += 1;
        } else if s == true_score {
            ties += 1;
        }
    }
    1 + better + ties / 2
}

/// Queries per work unit: one L1-resident candidate tile serves every query
/// of the unit in both directions (2 × `UNIT_QUERIES` kernel calls) before
/// the sweep moves on. Each query is O(|E| · dim) work, so small units
/// still load-balance across the pool.
const UNIT_QUERIES: usize = 8;

/// Per-thread scratch for one run of query units (every buffer grows to a
/// high-water mark during warm-up and is reused verbatim afterwards).
#[derive(Default)]
struct EvalScratch {
    /// One candidate tile's scores.
    tile_scores: Vec<f32>,
    /// Output of one unit: `(subsample slot, head rank, tail rank)` per query.
    ranks: Vec<(u32, usize, usize)>,
    /// Every unit's `ranks` of the run, merged after the parallel region.
    run: Vec<(u32, usize, usize)>,
}

/// Reusable state for [`evaluate_ranking_with`]: the query subsample, the
/// evaluation order, one scratch per thread, and the per-query rank
/// buffers. Steady-state reuse allocates nothing on the single-thread path.
#[derive(Default)]
pub struct RankingWorkspace {
    scratches: Vec<EvalScratch>,
    idx: Vec<usize>,
    subsample: Vec<Triple>,
    /// Subsample slots sorted by `(rel, slot)`, cut into work units of
    /// [`UNIT_QUERIES`] consecutive slots whatever their relations — so
    /// queries sharing a relation row sit side by side, and every unit but
    /// the last is full.
    order: Vec<u32>,
    /// Tile-blocked column-major copy of the entity table. Built **once per
    /// evaluation** and shared read-only by every unit — the transpose
    /// depends only on the entity table, not on the queries. The same
    /// builder feeds the serving layer's published snapshots (`kge-serve`).
    ent_t: TransposedTable,
    head_ranks: Vec<usize>,
    tail_ranks: Vec<usize>,
    ranks: Vec<usize>,
}

impl RankingWorkspace {
    pub fn new() -> Self {
        Self::default()
    }

    /// The subsampled queries of the last evaluation, in subsample order.
    pub fn queries(&self) -> &[Triple] {
        &self.subsample
    }

    /// Head-replacement ranks of the last evaluation, per subsampled query.
    pub fn head_ranks(&self) -> &[usize] {
        &self.head_ranks
    }

    /// Tail-replacement ranks of the last evaluation, per subsampled query.
    pub fn tail_ranks(&self) -> &[usize] {
        &self.tail_ranks
    }

    /// Interleaved `[head, tail]` ranks in subsample order — the exact
    /// order [`RankingMetrics::from_ranks`] sums over.
    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    /// Draw `opts`'s deterministic subsample of `queries` (a shuffled index
    /// prefix, with the original scalar implementation's RNG draws) and
    /// keep shard `part` of `parts` of it, round-robin: subsample slots
    /// `part, part + parts, …`. Returns the subsample's length before
    /// sharding. Reuses the workspace's buffers.
    pub(crate) fn subsample_shard(
        &mut self,
        queries: &[Triple],
        opts: &RankingOptions,
        part: usize,
        parts: usize,
    ) -> usize {
        let (idx, out) = (&mut self.idx, &mut self.subsample);
        out.clear();
        match opts.max_queries {
            Some(k) if k < queries.len() => {
                idx.clear();
                idx.extend(0..queries.len());
                let mut rng = StdRng::seed_from_u64(opts.seed);
                for i in (1..idx.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    idx.swap(i, j);
                }
                out.extend(idx[..k].iter().map(|&i| queries[i]));
            }
            _ => out.extend_from_slice(queries),
        }
        let n = out.len();
        let mut slot = 0;
        out.retain(|_| {
            slot += 1;
            (slot - 1) % parts == part
        });
        n
    }

    /// Rank the workspace's subsample in both directions, then interleave
    /// `[head, tail]` per query into [`Self::ranks`] in subsample order —
    /// the exact rank order the scalar implementation summed in.
    pub(crate) fn rank_subsample(
        &mut self,
        model: &dyn KgeModel,
        ent: &EmbeddingTable,
        rel: &EmbeddingTable,
        grouped: Option<&GroupedFilter>,
    ) {
        evaluate_ranks_into(self, model, ent, rel, grouped);
        self.ranks.clear();
        for (&h, &t) in self.head_ranks.iter().zip(&self.tail_ranks) {
            self.ranks.extend([h, t]);
        }
    }
}

/// What every unit of one evaluation reads: the model and its tables, the
/// shared column-major copy of the entity table (see
/// [`RankingWorkspace::ent_t`]) and, in filtered mode, the known
/// completions of every query side.
struct Sweep<'a> {
    model: &'a dyn KgeModel,
    ent: &'a EmbeddingTable,
    ent_t: &'a TransposedTable,
    rel: &'a EmbeddingTable,
    grouped: Option<&'a GroupedFilter>,
}

/// One query in one direction, as the tile loop walks it.
#[derive(Clone, Copy, Default)]
struct Side<'a> {
    /// The kept entity's row (the tail when heads are replaced).
    fixed: &'a [f32],
    rel: &'a [f32],
    /// The true entity on the replaced side.
    truth: usize,
    /// Score of the unmodified test triple.
    true_score: f32,
    /// The cursor into the side's sorted [`GroupedFilter`] list: the known
    /// completions the sweep has not reached yet.
    known: &'a [u32],
    better: usize,
    ties: usize,
}

impl Sweep<'_> {
    /// Rank the unit of queries `sub[slot]` for `slot` in `slots` (at most
    /// [`UNIT_QUERIES`], any mix of relations) in both directions, into
    /// `s.ranks`.
    fn rank_unit(&self, sub: &[Triple], slots: &[u32], s: &mut EvalScratch) {
        let Sweep { model, ent, ent_t, rel, grouped } = *self;
        let q = slots.len();
        let mut sides = [Side::default(); 2 * UNIT_QUERIES];
        for (qi, &slot) in slots.iter().enumerate() {
            let t = sub[slot as usize];
            let (head, tail) = (ent.row(t.head as usize), ent.row(t.tail as usize));
            let r = rel.row(t.rel as usize);
            let true_score = model.score(head, r, tail);
            let (known_heads, known_tails) = grouped.map_or((&[][..], &[][..]), |g| {
                (g.known_heads(t.tail, t.rel), g.known_tails(t.head, t.rel))
            });
            sides[qi] = Side {
                fixed: tail,
                rel: r,
                truth: t.head as usize,
                true_score,
                known: known_heads,
                ..Side::default()
            };
            sides[q + qi] = Side {
                fixed: head,
                rel: r,
                truth: t.tail as usize,
                true_score,
                known: known_tails,
                ..Side::default()
            };
        }

        // Tile-major sweep: each candidate tile (in its shared column-major
        // copy) stays hot across the unit's queries in both directions.
        // Per-side counts are integer sums, so accumulating them tile by
        // tile is order-independent and every rank is bit-identical to the
        // scalar path.
        s.tile_scores.resize(ent_t.tile_rows(), 0.0);
        let mut e0 = 0usize;
        while e0 < ent_t.rows() {
            let (block, rows) = ent_t.tile(e0);
            let e1 = e0 + rows;
            for (i, side) in sides[..2 * q].iter_mut().enumerate() {
                let dir = if i < q { ReplaceDir::Head } else { ReplaceDir::Tail };
                let scores = &mut s.tile_scores[..rows];
                model.score_one_vs_all_transposed(side.fixed, side.rel, block, rows, dir, scores);
                // The scalar path skips the true entity and every known
                // completion before scoring; here the sweep's own scores
                // for those in this tile become NaN, which counts as
                // neither better nor tied. (The true entity is usually in
                // its known list as well; masking twice is harmless.)
                if (e0..e1).contains(&side.truth) {
                    scores[side.truth - e0] = f32::NAN;
                }
                while let Some((&e, rest)) = side.known.split_first() {
                    if e as usize >= e1 {
                        break;
                    }
                    scores[e as usize - e0] = f32::NAN;
                    side.known = rest;
                }
                // Branchless: score-vs-true comparisons are effectively
                // random, so a branchy count would mispredict per
                // candidate and dominate the fused kernel's cost. A tile's
                // counts fit u32, whose lanes match the f32 scores' (a
                // usize count widens every comparison mask first).
                let ts = side.true_score;
                let (mut better, mut ties) = (0u32, 0u32);
                for &sc in scores.iter() {
                    better += u32::from(sc > ts);
                    ties += u32::from(sc == ts);
                }
                side.better += better as usize;
                side.ties += ties as usize;
            }
            e0 = e1;
        }

        let rank = |side: &Side| 1 + side.better + side.ties / 2;
        s.ranks.clear();
        s.ranks.extend(
            slots
                .iter()
                .enumerate()
                .map(|(qi, &slot)| (slot, rank(&sides[qi]), rank(&sides[q + qi]))),
        );
    }
}

/// Fill `ws.head_ranks` / `ws.tail_ranks` for the current `ws.subsample`.
fn evaluate_ranks_into(
    ws: &mut RankingWorkspace,
    model: &dyn KgeModel,
    ent: &EmbeddingTable,
    rel: &EmbeddingTable,
    grouped: Option<&GroupedFilter>,
) {
    let RankingWorkspace {
        scratches,
        subsample,
        order,
        head_ranks,
        tail_ranks,
        ent_t,
        ..
    } = ws;
    let n = subsample.len();

    // Transpose the entity table tile-by-tile once per evaluation; every
    // unit then sweeps the same read-only copy. (Done per unit, the
    // transpose would repeat per unit × per tile and rival the kernel
    // cost for units with few queries.)
    ent_t.build_into(ent);

    order.clear();
    order.extend(0..n as u32);
    // Unstable sort with the slot as tiebreak: deterministic, in-place,
    // allocation-free.
    order.sort_unstable_by_key(|&s| (subsample[s as usize].rel, s));

    head_ranks.clear();
    head_ranks.resize(n, 0);
    tail_ranks.clear();
    tail_ranks.resize(n, 0);

    let sweep = Sweep { model, ent, ent_t, rel, grouped };
    let n_units = n.div_ceil(UNIT_QUERIES);
    let unit = |u: usize| &order[u * UNIT_QUERIES..((u + 1) * UNIT_QUERIES).min(n)];
    let width = rayon::current_num_threads().min(n_units).max(1);
    if scratches.len() < width {
        scratches.resize_with(width, EvalScratch::default);
    }
    // One contiguous run of units per thread. Units write disjoint slots,
    // so the merge order is immaterial for the result — ranks are
    // bit-identical at any thread count.
    let per = n_units.div_ceil(width);
    let scratches = &mut scratches[..width];
    rayon::par_for_each_mut(scratches, |t, s| {
        s.run.clear();
        for u in t * per..((t + 1) * per).min(n_units) {
            sweep.rank_unit(subsample, unit(u), s);
            s.run.extend_from_slice(&s.ranks);
        }
    });
    for &(slot, hr, tr) in scratches.iter().flat_map(|s| &s.run) {
        head_ranks[slot as usize] = hr;
        tail_ranks[slot as usize] = tr;
    }
}

/// Blocked ranking evaluation against a reusable workspace and a
/// prebuilt [`GroupedFilter`] — the steady-state entry point (per-epoch
/// eval, benchmarks). Allocation-free after warm-up on the single-thread
/// path; metrics are bit-identical to the scalar reference at any thread
/// count.
pub fn evaluate_ranking_with(
    ws: &mut RankingWorkspace,
    model: &dyn KgeModel,
    ent: &EmbeddingTable,
    rel: &EmbeddingTable,
    queries: &[Triple],
    grouped: &GroupedFilter,
    opts: &RankingOptions,
) -> RankingMetrics {
    ws.subsample_shard(queries, opts, 0, 1);
    ws.rank_subsample(model, ent, rel, opts.filtered.then_some(grouped));
    RankingMetrics::from_ranks(&ws.ranks)
}

/// Evaluate ranking metrics on `queries` (both directions per triple).
///
/// Convenience wrapper that builds the workspace and grouped filter per
/// call; long-running callers should hold a [`RankingWorkspace`] and a
/// [`GroupedFilter`] and use [`evaluate_ranking_with`].
pub fn evaluate_ranking(
    model: &dyn KgeModel,
    ent: &EmbeddingTable,
    rel: &EmbeddingTable,
    queries: &[Triple],
    filter: &FilterIndex,
    opts: &RankingOptions,
) -> RankingMetrics {
    let grouped = if opts.filtered {
        GroupedFilter::from_index(filter)
    } else {
        GroupedFilter::default()
    };
    let mut ws = RankingWorkspace::new();
    evaluate_ranking_with(&mut ws, model, ent, rel, queries, &grouped, opts)
}

/// Ranking metrics broken down by Bordes relation category (1-1 / 1-N /
/// N-1 / N-N) — the standard analysis for where a KGE model's MRR comes
/// from. `categories[r]` classifies relation id `r` (see
/// [`kge_data::classify_relations`]).
///
/// Single-pass: the query set is subsampled **once** (same draw as
/// [`evaluate_ranking`]) and every query is ranked once; the per-category
/// metrics then partition those ranks by the query relation's category.
/// (Previously each category re-scanned and re-subsampled `queries`
/// independently, so the union of the four subsamples was inconsistent
/// with the full evaluation's subsample.)
pub fn evaluate_ranking_by_category(
    model: &dyn KgeModel,
    ent: &EmbeddingTable,
    rel: &EmbeddingTable,
    queries: &[Triple],
    categories: &[RelationCategory],
    filter: &FilterIndex,
    opts: &RankingOptions,
) -> Vec<(RelationCategory, RankingMetrics)> {
    let grouped = if opts.filtered {
        GroupedFilter::from_index(filter)
    } else {
        GroupedFilter::default()
    };
    let mut ws = RankingWorkspace::new();
    evaluate_ranking_by_category_with(
        &mut ws, model, ent, rel, queries, categories, &grouped, opts,
    )
}

/// Workspace-reusing variant of [`evaluate_ranking_by_category`].
#[allow(clippy::too_many_arguments)]
pub fn evaluate_ranking_by_category_with(
    ws: &mut RankingWorkspace,
    model: &dyn KgeModel,
    ent: &EmbeddingTable,
    rel: &EmbeddingTable,
    queries: &[Triple],
    categories: &[RelationCategory],
    grouped: &GroupedFilter,
    opts: &RankingOptions,
) -> Vec<(RelationCategory, RankingMetrics)> {
    use RelationCategory::*;
    ws.subsample_shard(queries, opts, 0, 1);
    evaluate_ranks_into(ws, model, ent, rel, opts.filtered.then_some(grouped));
    [OneToOne, OneToMany, ManyToOne, ManyToMany]
        .into_iter()
        .map(|cat| {
            let ranks: Vec<usize> = ws
                .subsample
                .iter()
                .enumerate()
                .filter(|(_, t)| categories[t.rel as usize] == cat)
                .flat_map(|(i, _)| [ws.head_ranks[i], ws.tail_ranks[i]])
                .collect();
            (cat, RankingMetrics::from_ranks(&ranks))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kge_core::DistMult;

    /// Build tables where entity i has a one-hot-ish embedding, so scores
    /// are fully controlled.
    fn setup() -> (DistMult, EmbeddingTable, EmbeddingTable) {
        let model = DistMult::new(4);
        let mut ent = EmbeddingTable::zeros(4, 4);
        for i in 0..4 {
            ent.row_mut(i)[i] = 1.0;
        }
        let mut rel = EmbeddingTable::zeros(1, 4);
        rel.row_mut(0).copy_from_slice(&[1.0, 1.0, 1.0, 1.0]);
        (model, ent, rel)
    }

    #[test]
    fn perfect_model_has_rank_one() {
        // Make entity 3's embedding align with entity 0 under relation 0 so
        // the true tail scores highest.
        let (model, mut ent, rel) = setup();
        ent.row_mut(3).copy_from_slice(&[2.0, 0.0, 0.0, 0.0]); // matches head 0
        let t = Triple::new(0, 0, 3);
        // (3,0,3) also scores high; it is a known true triple, so the
        // filtered ranking skips it as a head candidate.
        let filter = FilterIndex::from_triples([t, Triple::new(3, 0, 3)].into_iter());
        let m = evaluate_ranking(
            &model,
            &ent,
            &rel,
            &[t],
            &filter,
            &RankingOptions::default(),
        );
        // Tail query: candidates 1, 2 score 0 < 2 → rank 1. Head query:
        // true head 0 scores 2; other heads score 0 → rank 1.
        assert_eq!(m.mrr, 1.0);
        assert_eq!(m.hits1, 1.0);
        assert_eq!(m.n_queries, 2);
    }

    #[test]
    fn filtering_removes_known_true_competitors() {
        let (model, mut ent, rel) = setup();
        // Entity 2 outscores the true tail 3 for head 0, but (0,0,2) is a
        // known true triple, so filtering removes it as a competitor.
        ent.row_mut(2).copy_from_slice(&[3.0, 0.0, 0.0, 0.0]);
        ent.row_mut(3).copy_from_slice(&[2.0, 0.0, 0.0, 0.0]);
        let test = Triple::new(0, 0, 3);
        let known = Triple::new(0, 0, 2);
        let filter = FilterIndex::from_triples([test, known].into_iter());

        let raw = evaluate_ranking(
            &model,
            &ent,
            &rel,
            &[test],
            &filter,
            &RankingOptions {
                filtered: false,
                ..Default::default()
            },
        );
        let filt = evaluate_ranking(
            &model,
            &ent,
            &rel,
            &[test],
            &filter,
            &RankingOptions::default(),
        );
        assert!(
            filt.mrr > raw.mrr,
            "filtered {} must beat raw {}",
            filt.mrr,
            raw.mrr
        );
        // The tail query is rank 1 after filtering (the head query still
        // has legitimate higher-scoring competitors).
        assert!(filt.hits1 >= 0.5);
    }

    #[test]
    fn random_model_has_low_mrr() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let model = DistMult::new(8);
        let mut rng = StdRng::seed_from_u64(5);
        let ent = EmbeddingTable::xavier(200, 8, &mut rng);
        let rel = EmbeddingTable::xavier(4, 8, &mut rng);
        let queries: Vec<Triple> = (0..50)
            .map(|i| Triple::new(i as u32, (i % 4) as u32, (i as u32 + 50) % 200))
            .collect();
        let filter = FilterIndex::from_triples(queries.iter().copied());
        let m = evaluate_ranking(&model, &ent, &rel, &queries, &filter, &RankingOptions::default());
        // Random ranks over 200 entities: MRR far below a trained model.
        assert!(m.mrr < 0.2, "random model MRR {}", m.mrr);
        assert!(m.mean_rank > 20.0);
    }

    #[test]
    fn max_queries_subsamples_deterministically() {
        let (model, ent, rel) = setup();
        let queries: Vec<Triple> = (0..4).map(|i| Triple::new(i, 0, (i + 1) % 4)).collect();
        let filter = FilterIndex::from_triples(queries.iter().copied());
        let opts = RankingOptions {
            max_queries: Some(2),
            ..Default::default()
        };
        let a = evaluate_ranking(&model, &ent, &rel, &queries, &filter, &opts);
        let b = evaluate_ranking(&model, &ent, &rel, &queries, &filter, &opts);
        assert_eq!(a.n_queries, 4); // 2 triples × 2 directions
        assert_eq!(a, b);
    }

    #[test]
    fn metrics_bounds() {
        let (model, ent, rel) = setup();
        let queries: Vec<Triple> = (0..4).map(|i| Triple::new(i, 0, (i + 2) % 4)).collect();
        let filter = FilterIndex::from_triples(queries.iter().copied());
        let m = evaluate_ranking(&model, &ent, &rel, &queries, &filter, &RankingOptions::default());
        assert!(m.mrr > 0.0 && m.mrr <= 1.0);
        assert!(m.hits1 <= m.hits3 && m.hits3 <= m.hits10);
        assert!(m.hits10 <= 1.0);
        assert!(m.mean_rank >= 1.0);
    }

    #[test]
    fn category_breakdown_partitions_queries() {
        let (model, ent, rel2) = setup();
        let mut rel = EmbeddingTable::zeros(2, 4);
        rel.row_mut(0).copy_from_slice(rel2.row(0));
        rel.row_mut(1).copy_from_slice(rel2.row(0));
        let queries = vec![
            Triple::new(0, 0, 1),
            Triple::new(1, 0, 2),
            Triple::new(2, 1, 3),
        ];
        let filter = FilterIndex::from_triples(queries.iter().copied());
        let categories = vec![
            kge_data::RelationCategory::OneToOne,
            kge_data::RelationCategory::ManyToMany,
        ];
        let by_cat = evaluate_ranking_by_category(
            &model, &ent, &rel, &queries, &categories, &filter,
            &RankingOptions::default(),
        );
        let total: usize = by_cat.iter().map(|(_, m)| m.n_queries).sum();
        assert_eq!(total, queries.len() * 2);
        let one_one = by_cat
            .iter()
            .find(|(c, _)| *c == kge_data::RelationCategory::OneToOne)
            .unwrap();
        assert_eq!(one_one.1.n_queries, 4); // two rel-0 triples × 2 dirs
    }

    #[test]
    fn blocked_matches_scalar_on_mixed_relations() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let model = DistMult::new(6);
        let mut rng = StdRng::seed_from_u64(11);
        let ent = EmbeddingTable::xavier(60, 6, &mut rng);
        let rel = EmbeddingTable::xavier(5, 6, &mut rng);
        let queries: Vec<Triple> = (0..40)
            .map(|i| Triple::new(i % 60, i % 5, (i * 7 + 3) % 60))
            .collect();
        let filter = FilterIndex::from_triples(queries.iter().copied());
        for filtered in [false, true] {
            let opts = RankingOptions {
                filtered,
                ..Default::default()
            };
            let blocked = evaluate_ranking(&model, &ent, &rel, &queries, &filter, &opts);
            let f = filtered.then_some(&filter);
            let scalar_ranks: Vec<usize> = queries
                .iter()
                .flat_map(|&t| {
                    [
                        rank_of_scalar(&model, &ent, &rel, t, true, f),
                        rank_of_scalar(&model, &ent, &rel, t, false, f),
                    ]
                })
                .collect();
            let scalar = RankingMetrics::from_ranks(&scalar_ranks);
            assert_eq!(blocked, scalar, "filtered={filtered}");
        }
    }

    #[test]
    fn workspace_reuse_is_stable_across_query_sets() {
        let (model, ent, rel) = setup();
        let queries: Vec<Triple> = (0..4).map(|i| Triple::new(i, 0, (i + 1) % 4)).collect();
        let filter = FilterIndex::from_triples(queries.iter().copied());
        let grouped = GroupedFilter::from_index(&filter);
        let mut ws = RankingWorkspace::new();
        let opts = RankingOptions::default();
        let a = evaluate_ranking_with(&mut ws, &model, &ent, &rel, &queries, &grouped, &opts);
        // Smaller query set on the same workspace: stale state must not leak.
        let b = evaluate_ranking_with(&mut ws, &model, &ent, &rel, &queries[..1], &grouped, &opts);
        assert_eq!(b.n_queries, 2);
        // And back to the full set reproduces the first result exactly.
        let c = evaluate_ranking_with(&mut ws, &model, &ent, &rel, &queries, &grouped, &opts);
        assert_eq!(a, c);
        assert_eq!(ws.ranks().len(), 8);
        assert_eq!(ws.queries().len(), 4);
    }

    #[test]
    fn nan_scores_do_not_underflow_rank_counts() {
        // A NaN true score compares false against everything: the sweep
        // counts no better/ties, and the rank comes out 1 — same as the
        // scalar path.
        let (model, mut ent, rel) = setup();
        ent.row_mut(0)[0] = f32::NAN;
        let t = Triple::new(0, 0, 1);
        let filter = FilterIndex::from_triples([t, Triple::new(0, 0, 2)].into_iter());
        let blocked = evaluate_ranking(&model, &ent, &rel, &[t], &filter, &RankingOptions::default());
        let scalar_ranks = [
            rank_of_scalar(&model, &ent, &rel, t, true, Some(&filter)),
            rank_of_scalar(&model, &ent, &rel, t, false, Some(&filter)),
        ];
        assert_eq!(blocked, RankingMetrics::from_ranks(&scalar_ranks));
    }
}
