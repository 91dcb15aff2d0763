//! Negative sampling, including the paper's §4.5 sample selection.
//!
//! Negatives are produced by corrupting the head or the tail of a positive
//! triple with a uniformly random entity, rejecting corruptions that are
//! known true triples. With sample selection enabled, `pool` candidates
//! are drawn per positive, scored with a forward pass, and only the
//! `train` **hardest** (highest-scoring — "least negative score" in the
//! paper's phrasing) are kept for the backward pass. A forward pass is far
//! cheaper than backward, so discarding `pool − train` candidates after
//! scoring is a net win when it buys convergence.
//!
//! One implementation, [`NegSampler::sample`], serves one positive or a
//! whole chunk of them: every pool is drawn first, all candidates and their
//! positives are scored in one [`KgeModel::score_triples`] call, and each
//! positive's hardest are picked without a sort. The scores of the kept
//! examples are the block kernel's forward, which then need not run.

use crate::config::NegSampling;
use kge_core::{EmbeddingTable, KgeModel};
use kge_data::{Dataset, FilterIndex, Triple};
use rand::rngs::StdRng;
use rand::Rng;

/// Per-relation head-vs-tail corruption bias — the `bern` strategy of
/// Wang et al. (2014), as implemented in OpenKE: corrupt the head with
/// probability `tph / (tph + hpt)` (tails-per-head / heads-per-tail), so
/// 1-N relations mostly corrupt heads and N-1 relations mostly corrupt
/// tails, reducing accidental false negatives.
#[derive(Debug, Clone)]
pub struct CorruptionBias {
    /// P(corrupt the head) per relation id.
    head_prob: Vec<f64>,
}

impl CorruptionBias {
    /// Uniform 50/50 bias for every relation.
    pub fn uniform(n_relations: usize) -> Self {
        CorruptionBias {
            head_prob: vec![0.5; n_relations],
        }
    }

    /// Fit tph/hpt statistics on the training split.
    pub fn fit(ds: &Dataset) -> Self {
        use std::collections::HashMap;
        let mut tails_per_head: HashMap<(u32, u32), usize> = HashMap::new();
        let mut heads_per_tail: HashMap<(u32, u32), usize> = HashMap::new();
        for t in &ds.train {
            *tails_per_head.entry((t.rel, t.head)).or_default() += 1;
            *heads_per_tail.entry((t.rel, t.tail)).or_default() += 1;
        }
        let mut tph_sum = vec![0.0f64; ds.n_relations];
        let mut tph_cnt = vec![0usize; ds.n_relations];
        for (&(rel, _), &c) in &tails_per_head {
            tph_sum[rel as usize] += c as f64;
            tph_cnt[rel as usize] += 1;
        }
        let mut hpt_sum = vec![0.0f64; ds.n_relations];
        let mut hpt_cnt = vec![0usize; ds.n_relations];
        for (&(rel, _), &c) in &heads_per_tail {
            hpt_sum[rel as usize] += c as f64;
            hpt_cnt[rel as usize] += 1;
        }
        let head_prob = (0..ds.n_relations)
            .map(|r| {
                if tph_cnt[r] == 0 || hpt_cnt[r] == 0 {
                    return 0.5;
                }
                let tph = tph_sum[r] / tph_cnt[r] as f64;
                let hpt = hpt_sum[r] / hpt_cnt[r] as f64;
                tph / (tph + hpt)
            })
            .collect();
        CorruptionBias { head_prob }
    }

    /// P(corrupt the head) for relation `rel`.
    #[inline]
    pub fn head_prob(&self, rel: u32) -> f64 {
        self.head_prob.get(rel as usize).copied().unwrap_or(0.5)
    }
}

/// Draw one corruption of `t` that is not a known true triple (bounded
/// rejection; falls back to the last candidate on pathological data).
/// The head-vs-tail choice follows `bias` when provided (`bern`),
/// otherwise a fair coin.
pub fn corrupt(
    t: Triple,
    n_entities: usize,
    filter: &FilterIndex,
    bias: Option<&CorruptionBias>,
    rng: &mut StdRng,
) -> Triple {
    let head_p = bias.map_or(0.5, |b| b.head_prob(t.rel));
    let mut cand = t;
    for _ in 0..64 {
        let e = rng.gen_range(0..n_entities) as u32;
        cand = if rng.gen_bool(head_p) {
            t.with_head(e)
        } else {
            t.with_tail(e)
        };
        if cand != t && !filter.contains(cand) {
            return cand;
        }
    }
    cand
}

/// Outcome of negative generation for one positive triple.
#[derive(Debug, Clone, Default)]
pub struct NegBatch {
    /// Negatives to train on.
    pub train: Vec<Triple>,
    /// Candidates that were scored but discarded (counted for the
    /// simulated forward-pass cost).
    pub scored_discarded: usize,
}

/// Reusable buffers of [`NegSampler::sample`]. One per worker; capacities
/// persist across calls, so the steady state allocates nothing — with or
/// without selection.
#[derive(Debug, Clone, Default)]
pub struct NegScratch {
    /// Examples as `(head, rel, tail)`: each positive, then its pool in
    /// draw order. Selection moves each positive's kept candidates to the
    /// front of its pool, then drops the rest, so the last call leaves
    /// each positive followed by its kept negatives.
    cands: Vec<(u32, u32, u32)>,
    /// The examples' scores (selection only), moved along with them.
    scores: Vec<f32>,
    /// [`KgeModel::score_triples`]' summand scratch.
    terms: Vec<f32>,
    /// Candidates drawn per positive by the last call.
    pool: usize,
    /// Candidates kept per positive by the last call.
    keep: usize,
}

impl NegScratch {
    /// The negatives the last [`NegSampler::sample`] call kept for its
    /// `i`-th positive — hardest first under selection, draw order
    /// otherwise.
    pub fn kept(&self, i: usize) -> &[(u32, u32, u32)] {
        &self.cands[i * (1 + self.keep) + 1..][..self.keep]
    }

    /// The scores [`NegSampler::stage`] staged, one per example in
    /// example order: the block kernel's forward on the tables the
    /// sampler read. Empty without selection, which scores nothing.
    pub fn scores(&self) -> &[f32] {
        &self.scores
    }
}

/// What a corruption draw and a pool score read.
#[derive(Clone, Copy)]
pub struct NegSampler<'a> {
    pub policy: NegSampling,
    pub model: &'a dyn KgeModel,
    pub ent: &'a EmbeddingTable,
    pub rel: &'a EmbeddingTable,
    pub filter: &'a FilterIndex,
    /// `bern` head-vs-tail bias; a fair coin without it.
    pub bias: Option<&'a CorruptionBias>,
    /// Corruption range: the global entity count.
    pub n_entities: usize,
}

impl NegSampler<'_> {
    /// Negatives for every positive of `positives`, left in `scratch`
    /// (read them back with [`NegScratch::kept`]).
    ///
    /// Every pool is drawn first, in positive order: [`corrupt`] is the
    /// only RNG consumer and scoring consumes no randomness, so the draws
    /// are those of sampling one positive at a time, draw for draw. Under
    /// selection the positives and all `positives × pool` candidates are
    /// then scored in one [`KgeModel::score_triples`] call, and each
    /// positive keeps the first `train` entries of its pool's stable
    /// descending order — `train` rounds of arg-max where the earliest draw
    /// wins a tie, each winner rotated to the front so the rest keep their
    /// draw order.
    pub fn sample(
        &self,
        positives: impl Iterator<Item = Triple>,
        rng: &mut StdRng,
        scratch: &mut NegScratch,
    ) {
        let NegSampling { pool, train } = self.policy;
        scratch.cands.clear();
        scratch.scores.clear();
        for pos in positives {
            scratch.cands.push((pos.head, pos.rel, pos.tail));
            scratch.cands.extend((0..pool).map(|_| {
                let c = corrupt(pos, self.n_entities, self.filter, self.bias, rng);
                (c.head, c.rel, c.tail)
            }));
        }
        let select = self.policy.uses_selection();
        (scratch.pool, scratch.keep) = (pool, if select { train } else { pool });
        if !select {
            return;
        }
        scratch.scores.resize(scratch.cands.len(), 0.0);
        let NegScratch { cands, scores, terms, .. } = scratch;
        self.model.score_triples(self.ent, self.rel, cands, terms, scores);
        let stride = 1 + pool;
        for (cands, scores) in cands.chunks_exact_mut(stride).zip(scores.chunks_exact_mut(stride)) {
            let (cands, scores) = (&mut cands[1..], &mut scores[1..]);
            for round in 0..train {
                let mut best = round;
                for i in round + 1..pool {
                    let order = scores[i].partial_cmp(&scores[best]).expect("finite scores");
                    if order == std::cmp::Ordering::Greater {
                        best = i;
                    }
                }
                cands[round..=best].rotate_right(1);
                scores[round..=best].rotate_right(1);
            }
        }
        // Each positive with its kept candidates, packed in example order:
        // a copy lands at or before its source, over pools already packed.
        let n = cands.len() / stride;
        for i in 0..n {
            cands.copy_within(i * stride..i * stride + 1 + train, i * (1 + train));
            scores.copy_within(i * stride..i * stride + 1 + train, i * (1 + train));
        }
        cands.truncate(n * (1 + train));
        scores.truncate(n * (1 + train));
    }

    /// Stage `positives` and their negatives as the block kernel's input:
    /// each positive (label `+1`) followed by its kept negatives (label
    /// `−1`), appended to `labels` and `triples` in example order. Under
    /// selection their scores are left in [`NegScratch::scores`].
    pub fn stage(
        &self,
        positives: impl Iterator<Item = Triple>,
        rng: &mut StdRng,
        scratch: &mut NegScratch,
        labels: &mut Vec<f32>,
        triples: &mut Vec<(u32, u32, u32)>,
    ) {
        self.sample(positives, rng, scratch);
        for _ in scratch.cands.chunks_exact(1 + scratch.keep) {
            labels.push(1.0);
            labels.extend(std::iter::repeat_n(-1.0, scratch.keep));
        }
        triples.extend_from_slice(&scratch.cands);
    }
}

/// Generate negatives for `positive` under `policy`.
///
/// With selection enabled this performs the extra forward passes on
/// `model`/tables; the caller charges `scored_discarded + train.len()`
/// forward-pass flops to the simulated clock.
#[allow(clippy::too_many_arguments)]
pub fn sample_negatives(
    policy: NegSampling,
    positive: Triple,
    model: &dyn KgeModel,
    ent: &EmbeddingTable,
    rel: &EmbeddingTable,
    filter: &FilterIndex,
    bias: Option<&CorruptionBias>,
    n_entities: usize,
    rng: &mut StdRng,
) -> NegBatch {
    let mut scratch = NegScratch::default();
    let mut train = Vec::new();
    let scored_discarded = sample_negatives_into(
        policy, positive, model, ent, rel, filter, bias, n_entities, rng, &mut scratch, &mut train,
    );
    NegBatch {
        train,
        scored_discarded,
    }
}

/// Buffer-reusing [`sample_negatives`] — the one-positive case of
/// [`NegSampler::sample`]: appends the kept negatives to `out` and returns
/// the number of scored-but-discarded candidates.
#[allow(clippy::too_many_arguments)]
pub fn sample_negatives_into(
    policy: NegSampling,
    positive: Triple,
    model: &dyn KgeModel,
    ent: &EmbeddingTable,
    rel: &EmbeddingTable,
    filter: &FilterIndex,
    bias: Option<&CorruptionBias>,
    n_entities: usize,
    rng: &mut StdRng,
    scratch: &mut NegScratch,
    out: &mut Vec<Triple>,
) -> usize {
    let sampler = NegSampler { policy, model, ent, rel, filter, bias, n_entities };
    sampler.sample(std::iter::once(positive), rng, scratch);
    out.extend(scratch.kept(0).iter().copied().map(Triple::from));
    scratch.pool - scratch.keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use kge_core::DistMult;
    use rand::SeedableRng;

    fn setup() -> (DistMult, EmbeddingTable, EmbeddingTable, FilterIndex) {
        let model = DistMult::new(2);
        let mut ent = EmbeddingTable::zeros(10, 2);
        for i in 0..10 {
            // Entity i has embedding [i, 1] → higher id = higher score.
            ent.row_mut(i).copy_from_slice(&[i as f32, 1.0]);
        }
        let mut rel = EmbeddingTable::zeros(1, 2);
        rel.row_mut(0).copy_from_slice(&[1.0, 0.0]);
        let filter = FilterIndex::from_triples([Triple::new(1, 0, 2)].into_iter());
        (model, ent, rel, filter)
    }

    #[test]
    fn uniform_policy_returns_pool_unscored() {
        let (model, ent, rel, filter) = setup();
        let mut rng = StdRng::seed_from_u64(0);
        let nb = sample_negatives(
            NegSampling::uniform(5),
            Triple::new(1, 0, 2),
            &model,
            &ent,
            &rel,
            &filter,
            None,
            10,
            &mut rng,
        );
        assert_eq!(nb.train.len(), 5);
        assert_eq!(nb.scored_discarded, 0);
        for t in &nb.train {
            assert!(!filter.contains(*t));
            assert_ne!(*t, Triple::new(1, 0, 2));
        }
    }

    #[test]
    fn selection_keeps_hardest() {
        let (model, ent, rel, filter) = setup();
        // Run many rounds: the kept negative must always have the max
        // score within its own pool. We reproduce the pool with the same
        // RNG stream to check.
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut rng2 = StdRng::seed_from_u64(seed);
            let policy = NegSampling::select(1, 8);
            let pool: Vec<Triple> = (0..8)
                .map(|_| corrupt(Triple::new(1, 0, 2), 10, &filter, None, &mut rng2))
                .collect();
            let nb = sample_negatives(
                policy,
                Triple::new(1, 0, 2),
                &model,
                &ent,
                &rel,
                &filter,
                None,
                10,
                &mut rng,
            );
            assert_eq!(nb.train.len(), 1);
            assert_eq!(nb.scored_discarded, 7);
            let best = pool
                .iter()
                .map(|t| {
                    model.score(
                        ent.row(t.head as usize),
                        rel.row(t.rel as usize),
                        ent.row(t.tail as usize),
                    )
                })
                .fold(f32::NEG_INFINITY, f32::max);
            let kept = model.score(
                ent.row(nb.train[0].head as usize),
                rel.row(0),
                ent.row(nb.train[0].tail as usize),
            );
            assert_eq!(kept, best, "seed {seed}");
        }
    }

    #[test]
    fn selection_m_of_n_keeps_m_sorted_hard() {
        let (model, ent, rel, filter) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let nb = sample_negatives(
            NegSampling::select(3, 10),
            Triple::new(1, 0, 2),
            &model,
            &ent,
            &rel,
            &filter,
            None,
            10,
            &mut rng,
        );
        assert_eq!(nb.train.len(), 3);
        assert_eq!(nb.scored_discarded, 7);
        let scores: Vec<f32> = nb
            .train
            .iter()
            .map(|t| {
                model.score(
                    ent.row(t.head as usize),
                    rel.row(t.rel as usize),
                    ent.row(t.tail as usize),
                )
            })
            .collect();
        assert!(scores.windows(2).all(|w| w[0] >= w[1]), "{scores:?}");
    }

    #[test]
    fn corruption_is_deterministic_per_seed() {
        let (_, _, _, filter) = setup();
        let t = Triple::new(1, 0, 2);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            assert_eq!(
                corrupt(t, 10, &filter, None, &mut a),
                corrupt(t, 10, &filter, None, &mut b)
            );
        }
    }

    #[test]
    fn bern_bias_prefers_head_corruption_for_one_to_many() {
        use kge_data::Dataset;
        // Relation 0: one head fans out to many tails (1-N) → tph high,
        // hpt = 1 → corrupt heads most of the time.
        // Relation 1: the reverse (N-1).
        let mut train = Vec::new();
        for t in 1..=20u32 {
            train.push(Triple::new(0, 0, t));
            train.push(Triple::new(t, 1, 0));
        }
        let ds = Dataset {
            name: "bern".into(),
            n_entities: 21,
            n_relations: 2,
            train,
            valid: vec![],
            test: vec![],
        };
        let bias = CorruptionBias::fit(&ds);
        assert!(bias.head_prob(0) > 0.9, "1-N: {}", bias.head_prob(0));
        assert!(bias.head_prob(1) < 0.1, "N-1: {}", bias.head_prob(1));
        // Unknown relations default to a fair coin.
        assert_eq!(bias.head_prob(99), 0.5);
        assert_eq!(CorruptionBias::uniform(3).head_prob(1), 0.5);
    }

    #[test]
    fn bern_corruption_respects_bias_statistically() {
        let (_, _, _, filter) = setup();
        let mut head_prob = CorruptionBias::uniform(1);
        head_prob.head_prob[0] = 0.95;
        let t = Triple::new(1, 0, 2);
        let mut rng = StdRng::seed_from_u64(0);
        let mut heads = 0;
        for _ in 0..400 {
            let c = corrupt(t, 10, &filter, Some(&head_prob), &mut rng);
            if c.head != t.head {
                heads += 1;
            }
        }
        assert!(heads > 330, "head corruptions {heads}/400 under p=0.95");
    }
}
