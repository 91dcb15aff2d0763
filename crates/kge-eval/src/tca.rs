//! Triple classification accuracy (TCA) with per-relation thresholds.
//!
//! OpenKE protocol: for every positive validation/test triple, sample one
//! corrupted negative that is not a known true triple. Fit, per relation,
//! the score threshold that best separates validation positives from
//! negatives (falling back to a global threshold for relations without
//! validation data), then report accuracy on the test positives+negatives.

use kge_core::{EmbeddingTable, KgeModel};
use kge_data::{FilterIndex, Triple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Outcome of a triple-classification evaluation.
#[derive(Debug, Clone)]
pub struct TcaResult {
    /// Test accuracy in percent (the paper reports e.g. 90.7).
    pub accuracy_pct: f64,
    /// Fitted per-relation thresholds (`None` → global threshold used).
    pub thresholds: Vec<Option<f32>>,
    /// Fallback threshold fitted on all validation scores.
    pub global_threshold: f32,
    pub n_test: usize,
}

/// Corrupt `t` into a negative not present in `filter`. Alternates between
/// head and tail corruption; gives up after a bounded number of rejection
/// draws (returning the last candidate) so adversarial inputs can't loop
/// forever.
pub fn corrupt(t: Triple, n_entities: usize, filter: &FilterIndex, rng: &mut StdRng) -> Triple {
    debug_assert!(n_entities >= 2);
    let mut cand = t;
    for attempt in 0..64 {
        let e = rng.gen_range(0..n_entities) as u32;
        cand = if (attempt + rng.gen_range(0..2)) % 2 == 0 {
            t.with_tail(e)
        } else {
            t.with_head(e)
        };
        if cand != t && !filter.contains(cand) {
            return cand;
        }
    }
    cand
}

fn score_of(model: &dyn KgeModel, ent: &EmbeddingTable, rel: &EmbeddingTable, t: Triple) -> f32 {
    model.score(
        ent.row(t.head as usize),
        rel.row(t.rel as usize),
        ent.row(t.tail as usize),
    )
}

/// Best-accuracy threshold for `(score, is_positive)` pairs: classify
/// `score >= threshold` as positive. Returns `(threshold, accuracy)`.
fn fit_threshold(mut pairs: Vec<(f32, bool)>) -> (f32, f64) {
    if pairs.is_empty() {
        return (0.0, 0.0);
    }
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite scores"));
    let n = pairs.len();
    let total_pos = pairs.iter().filter(|&&(_, p)| p).count();
    // Sweep candidate thresholds between consecutive scores. Threshold
    // below everything classifies all as positive.
    let mut best_correct = total_pos;
    let mut best_thr = pairs[0].0 - 1.0;
    let mut negatives_below = 0usize;
    let mut positives_below = 0usize;
    for i in 0..n {
        if pairs[i].1 {
            positives_below += 1;
        } else {
            negatives_below += 1;
        }
        // Threshold just above pairs[i].0.
        let correct = negatives_below + (total_pos - positives_below);
        if correct > best_correct {
            best_correct = correct;
            best_thr = if i + 1 < n {
                (pairs[i].0 + pairs[i + 1].0) / 2.0
            } else {
                pairs[i].0 + 1.0
            };
        }
    }
    (best_thr, best_correct as f64 / n as f64)
}

/// Run the full TCA protocol.
#[allow(clippy::too_many_arguments)]
pub fn triple_classification(
    model: &dyn KgeModel,
    ent: &EmbeddingTable,
    rel: &EmbeddingTable,
    valid: &[Triple],
    test: &[Triple],
    filter: &FilterIndex,
    n_entities: usize,
    n_relations: usize,
    seed: u64,
) -> TcaResult {
    let mut rng = StdRng::seed_from_u64(seed);

    // Labeled validation scores grouped per relation.
    let mut per_rel: Vec<Vec<(f32, bool)>> = vec![Vec::new(); n_relations];
    let mut all: Vec<(f32, bool)> = Vec::with_capacity(valid.len() * 2);
    for &t in valid {
        let neg = corrupt(t, n_entities, filter, &mut rng);
        let sp = score_of(model, ent, rel, t);
        let sn = score_of(model, ent, rel, neg);
        per_rel[t.rel as usize].push((sp, true));
        per_rel[t.rel as usize].push((sn, false));
        all.push((sp, true));
        all.push((sn, false));
    }
    let (global_threshold, _) = fit_threshold(all);
    let thresholds: Vec<Option<f32>> = per_rel
        .into_iter()
        .map(|pairs| {
            if pairs.len() >= 4 {
                Some(fit_threshold(pairs).0)
            } else {
                None
            }
        })
        .collect();

    // Classify test positives + sampled negatives.
    let mut correct = 0usize;
    let mut n_test = 0usize;
    for &t in test {
        let neg = corrupt(t, n_entities, filter, &mut rng);
        let thr = thresholds[t.rel as usize].unwrap_or(global_threshold);
        if score_of(model, ent, rel, t) >= thr {
            correct += 1;
        }
        if score_of(model, ent, rel, neg) < thr {
            correct += 1;
        }
        n_test += 2;
    }
    TcaResult {
        accuracy_pct: if n_test == 0 {
            0.0
        } else {
            100.0 * correct as f64 / n_test as f64
        },
        thresholds,
        global_threshold,
        n_test,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kge_core::DistMult;

    #[test]
    fn fit_threshold_separable() {
        let pairs = vec![(0.1f32, false), (0.2, false), (0.8, true), (0.9, true)];
        let (thr, acc) = fit_threshold(pairs);
        assert!(thr > 0.2 && thr < 0.8);
        assert_eq!(acc, 1.0);
    }

    #[test]
    fn fit_threshold_all_positive() {
        let (thr, acc) = fit_threshold(vec![(0.5, true), (0.7, true)]);
        assert!(thr < 0.5);
        assert_eq!(acc, 1.0);
    }

    #[test]
    fn fit_threshold_empty() {
        assert_eq!(fit_threshold(vec![]), (0.0, 0.0));
    }

    #[test]
    fn fit_threshold_overlapping_distributions() {
        // pos: 0.4, 0.6; neg: 0.5 → best accuracy 2/3 achievable several
        // ways; must be ≥ majority-class rate.
        let (_, acc) = fit_threshold(vec![(0.4, true), (0.6, true), (0.5, false)]);
        assert!(acc >= 2.0 / 3.0 - 1e-9);
    }

    #[test]
    fn corrupt_avoids_known_triples_and_self() {
        let known: Vec<Triple> = (0..10).map(|i| Triple::new(i, 0, (i + 1) % 10)).collect();
        let filter = FilterIndex::from_triples(known.iter().copied());
        let mut rng = StdRng::seed_from_u64(1);
        for &t in &known {
            for _ in 0..20 {
                let neg = corrupt(t, 10, &filter, &mut rng);
                assert_ne!(neg, t);
                assert!(!filter.contains(neg));
            }
        }
    }

    /// A model that separates well should get high TCA; a zeroed model
    /// should hover near chance.
    #[test]
    fn tca_tracks_model_quality() {
        let model = DistMult::new(4);
        // Structured embeddings: positives = (i, 0, i) diagonal pattern.
        let mut ent = EmbeddingTable::zeros(20, 4);
        for i in 0..20 {
            ent.row_mut(i)[i % 4] = 1.0;
        }
        let mut rel = EmbeddingTable::zeros(1, 4);
        rel.row_mut(0).copy_from_slice(&[1.0; 4]);
        // Positives pair entities with the same one-hot index → score 1;
        // most random corruptions score 0.
        let triples: Vec<Triple> = (0..16).map(|i| Triple::new(i, 0, i + 4)).collect();
        let filter = FilterIndex::from_triples(triples.iter().copied());
        let valid = &triples[..8];
        let test = &triples[8..];
        let good = triple_classification(&model, &ent, &rel, valid, test, &filter, 20, 1, 7);
        let zeroed = EmbeddingTable::zeros(20, 4);
        let bad = triple_classification(&model, &zeroed, &rel, valid, test, &filter, 20, 1, 7);
        assert!(
            good.accuracy_pct > 80.0,
            "separable case: {}",
            good.accuracy_pct
        );
        assert!(
            bad.accuracy_pct <= good.accuracy_pct,
            "zero model {} vs good {}",
            bad.accuracy_pct,
            good.accuracy_pct
        );
    }

    #[test]
    fn tca_deterministic_per_seed() {
        let model = DistMult::new(2);
        let mut rng = StdRng::seed_from_u64(3);
        let ent = EmbeddingTable::xavier(30, 2, &mut rng);
        let rel = EmbeddingTable::xavier(2, 2, &mut rng);
        let triples: Vec<Triple> = (0..20).map(|i| Triple::new(i, i % 2, (i + 7) % 30)).collect();
        let filter = FilterIndex::from_triples(triples.iter().copied());
        let a = triple_classification(&model, &ent, &rel, &triples[..10], &triples[10..], &filter, 30, 2, 9);
        let b = triple_classification(&model, &ent, &rel, &triples[..10], &triples[10..], &filter, 30, 2, 9);
        assert_eq!(a.accuracy_pct, b.accuracy_pct);
        assert_eq!(a.n_test, 20);
    }
}
