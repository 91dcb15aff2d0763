//! §4.2 — Selecting the gradient vectors.
//!
//! The 2-norm of a gradient row is used as a proxy for how much that row
//! contributes to reducing the loss. Rows below a threshold are dropped
//! before communication. The paper compares three policies and adopts the
//! Bernoulli one (its "random selection", RS):
//!
//! - `avg` threshold: drop rows with `‖g‖ < mean‖g‖` — too aggressive;
//! - `avg × 0.1`: drop rows with `‖g‖ < 0.1·mean‖g‖`;
//! - **Bernoulli**: keep row `i` with `P = min(1, ‖g_i‖ / mean‖g‖)` —
//!   small rows still get through occasionally, which preserves
//!   convergence while introducing substantial sparsity (Fig. 3).

use kge_core::matrix::l2_norms;
use kge_core::SparseGrad;
use rand::Rng;

/// Row-selection policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RowSelector {
    /// Keep everything (dense baseline).
    None,
    /// Drop rows whose norm is below `factor × mean norm`.
    Threshold { factor: f32 },
    /// The paper's random selection: keep with `min(1, norm/mean)`.
    /// `rescale` divides kept rows by their keep probability, making the
    /// estimator unbiased (Wangni et al.); the paper does not rescale, so
    /// its RS uses `rescale = false`.
    Bernoulli { rescale: bool },
    /// Related-work baseline (Aji & Heafield 2017 adapted to rows): keep
    /// only the `keep_fraction` of rows with the largest norms.
    TopK { keep_fraction: f32 },
}

impl RowSelector {
    /// The paper's RS configuration.
    pub fn paper_rs() -> Self {
        RowSelector::Bernoulli { rescale: false }
    }
}

/// Outcome statistics of one selection pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowSelection {
    pub rows_before: usize,
    pub rows_after: usize,
}

impl RowSelection {
    /// Fraction of rows dropped (the paper's "sparsity", Fig. 3b).
    pub fn sparsity(&self) -> f64 {
        if self.rows_before == 0 {
            0.0
        } else {
            1.0 - self.rows_after as f64 / self.rows_before as f64
        }
    }
}

/// Apply the policy to `grad` in place, dropping (and optionally
/// rescaling) rows. Returns before/after row counts.
///
/// Each row's norm is computed into `grad`'s per-slot scratch (twice under
/// [`RowSelector::TopK`], whose cut ranks them in place) and then
/// overwritten by the row's weight — `0.0` drops the row, anything else
/// keeps it scaled by that weight. Whatever depends on an order (the mean's
/// f32 sum, the Bernoulli draws) walks the rows ascending, off the sorted
/// cache this builds first. The norms are [`l2_norms`]', eight rows at a
/// time on AVX hosts. Nothing is allocated once the scratch is warm.
pub fn select_rows<R: Rng>(
    selector: RowSelector,
    grad: &mut SparseGrad,
    rng: &mut R,
) -> RowSelection {
    let rows_before = grad.nnz();
    if rows_before == 0 || matches!(selector, RowSelector::None) {
        return RowSelection {
            rows_before,
            rows_after: rows_before,
        };
    }
    grad.ensure_sorted();
    let mut weights = std::mem::take(grad.slot_scratch_mut());
    weights.resize(rows_before, 0.0);
    let dim = grad.dim();
    l2_norms(grad.slab_mut(), dim, &mut weights);
    // Mean of row 2-norms (the paper's C).
    let mean = grad.sorted_slots().map(|s| weights[s]).sum::<f32>() / rows_before as f32;
    let keep = |kept: bool| if kept { 1.0 } else { 0.0 };
    match selector {
        RowSelector::None => unreachable!(),
        // All-zero gradient: nothing worth communicating.
        _ if mean <= 0.0 => weights.fill(0.0),
        RowSelector::Threshold { factor } => {
            let cut = factor * mean;
            weights.iter_mut().for_each(|w| *w = keep(*w >= cut));
        }
        RowSelector::TopK { keep_fraction } => {
            let n_keep = ((rows_before as f32 * keep_fraction).ceil() as usize)
                .clamp(1, rows_before);
            // The keep-th largest norm is the cut; ranking the weights in
            // place reorders them, so the norms are computed again.
            let (_, &mut cut, _) = weights.select_nth_unstable_by(n_keep - 1, |a, b| {
                b.partial_cmp(a).expect("finite norms")
            });
            l2_norms(grad.slab_mut(), dim, &mut weights);
            // `>= cut` may keep a few extra ties; acceptable and simple.
            weights.iter_mut().for_each(|w| *w = keep(*w >= cut));
        }
        RowSelector::Bernoulli { rescale } => {
            // Draw keep decisions in sorted-row order so the outcome is
            // deterministic given the RNG state.
            for s in grad.sorted_slots() {
                let p = (weights[s] / mean).min(1.0);
                let kept = p > 0.0 && rng.gen::<f32>() < p;
                weights[s] = if kept && rescale { 1.0 / p } else { keep(kept) };
            }
        }
    }
    // `retain` visits the slots in order and compacts the kept rows down
    // in that order, so the kept weights line up with the kept rows.
    let mut by_slot = weights.iter();
    grad.retain(|_, _| *by_slot.next().expect("one weight per slot") != 0.0);
    let (dim, kept_weights) = (grad.dim(), weights.iter().filter(|&&w| w != 0.0));
    for (row, &w) in grad.slab_mut().chunks_exact_mut(dim).zip(kept_weights) {
        if w != 1.0 {
            row.iter_mut().for_each(|v| *v *= w);
        }
    }
    *grad.slot_scratch_mut() = weights;
    RowSelection {
        rows_before,
        rows_after: grad.nnz(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// 20 rows with norms 1..=20 (row id = norm).
    fn graded_grad() -> SparseGrad {
        let mut g = SparseGrad::new(2);
        for i in 1..=20u32 {
            let v = (i as f32) / 2f32.sqrt();
            g.row_mut(i).copy_from_slice(&[v, v]);
        }
        g
    }

    #[test]
    fn none_keeps_everything() {
        let mut g = graded_grad();
        let mut rng = StdRng::seed_from_u64(0);
        let sel = select_rows(RowSelector::None, &mut g, &mut rng);
        assert_eq!(sel.rows_after, 20);
        assert_eq!(sel.sparsity(), 0.0);
    }

    #[test]
    fn avg_threshold_drops_below_mean() {
        let mut g = graded_grad();
        let mut rng = StdRng::seed_from_u64(0);
        let sel = select_rows(RowSelector::Threshold { factor: 1.0 }, &mut g, &mut rng);
        // mean norm = 10.5, rows 11..=20 survive.
        assert_eq!(sel.rows_after, 10);
        assert!(g.get(11).is_some());
        assert!(g.get(10).is_none());
    }

    #[test]
    fn tenth_of_avg_threshold_keeps_most() {
        let mut g = graded_grad();
        let mut rng = StdRng::seed_from_u64(0);
        let sel = select_rows(RowSelector::Threshold { factor: 0.1 }, &mut g, &mut rng);
        // cut = 1.05: only row 1 (norm 1) dropped.
        assert_eq!(sel.rows_after, 19);
    }

    #[test]
    fn bernoulli_always_keeps_rows_at_or_above_mean() {
        for seed in 0..20 {
            let mut g = graded_grad();
            let mut rng = StdRng::seed_from_u64(seed);
            select_rows(RowSelector::paper_rs(), &mut g, &mut rng);
            for row in 11..=20u32 {
                assert!(g.get(row).is_some(), "row {row} must survive (p=1)");
            }
        }
    }

    #[test]
    fn bernoulli_introduces_sparsity_on_skewed_grads() {
        // One dominant row and many tiny ones: tiny rows are mostly dropped.
        let mut g = SparseGrad::new(1);
        g.row_mut(0)[0] = 100.0;
        for i in 1..200u32 {
            g.row_mut(i)[0] = 0.01;
        }
        let mut rng = StdRng::seed_from_u64(5);
        let sel = select_rows(RowSelector::paper_rs(), &mut g, &mut rng);
        assert!(g.get(0).is_some());
        assert!(
            sel.sparsity() > 0.9,
            "tiny rows should mostly drop: {}",
            sel.sparsity()
        );
    }

    #[test]
    fn bernoulli_keep_probability_matches_norm_ratio() {
        // Row with norm = mean/2 should survive ~50% of seeds.
        let mut kept = 0usize;
        let trials = 400;
        for seed in 0..trials {
            let mut g = SparseGrad::new(1);
            g.row_mut(0)[0] = 1.0; // the probe row
            g.row_mut(1)[0] = 3.0; // mean = 2 → p(probe) = 0.5
            let mut rng = StdRng::seed_from_u64(seed as u64);
            select_rows(RowSelector::paper_rs(), &mut g, &mut rng);
            if g.get(0).is_some() {
                kept += 1;
            }
        }
        let rate = kept as f64 / trials as f64;
        assert!((rate - 0.5).abs() < 0.08, "keep rate {rate}");
    }

    #[test]
    fn rescaled_bernoulli_is_unbiased() {
        // E[kept value] should equal the original value when rescaling.
        let trials = 2000;
        let mut sum = 0.0f64;
        for seed in 0..trials {
            let mut g = SparseGrad::new(1);
            g.row_mut(0)[0] = 1.0;
            g.row_mut(1)[0] = 3.0;
            let mut rng = StdRng::seed_from_u64(seed as u64);
            select_rows(RowSelector::Bernoulli { rescale: true }, &mut g, &mut rng);
            sum += g.get(0).map_or(0.0, |v| v[0] as f64);
        }
        let mean = sum / trials as f64;
        assert!((mean - 1.0).abs() < 0.08, "estimator mean {mean}");
    }

    #[test]
    fn zero_gradient_clears() {
        let mut g = SparseGrad::new(2);
        g.row_mut(3); // all-zero row
        let mut rng = StdRng::seed_from_u64(0);
        let sel = select_rows(RowSelector::paper_rs(), &mut g, &mut rng);
        assert_eq!(sel.rows_after, 0);
        assert_eq!(sel.sparsity(), 1.0);
    }

    #[test]
    fn empty_gradient_is_noop() {
        let mut g = SparseGrad::new(2);
        let mut rng = StdRng::seed_from_u64(0);
        let sel = select_rows(RowSelector::paper_rs(), &mut g, &mut rng);
        assert_eq!(sel.rows_before, 0);
        assert_eq!(sel.sparsity(), 0.0);
    }

    #[test]
    fn topk_keeps_exactly_the_largest() {
        let mut g = graded_grad(); // norms 1..=20
        let mut rng = StdRng::seed_from_u64(0);
        let sel = select_rows(
            RowSelector::TopK { keep_fraction: 0.25 },
            &mut g,
            &mut rng,
        );
        assert_eq!(sel.rows_after, 5);
        for row in 16..=20u32 {
            assert!(g.get(row).is_some(), "row {row} is in the top 25%");
        }
        assert!(g.get(15).is_none());
    }

    #[test]
    fn topk_keeps_at_least_one_row() {
        let mut g = graded_grad();
        let mut rng = StdRng::seed_from_u64(0);
        let sel = select_rows(
            RowSelector::TopK { keep_fraction: 0.0 },
            &mut g,
            &mut rng,
        );
        assert_eq!(sel.rows_after, 1);
        assert!(g.get(20).is_some());
    }

    #[test]
    fn topk_full_fraction_keeps_everything() {
        let mut g = graded_grad();
        let mut rng = StdRng::seed_from_u64(0);
        let sel = select_rows(
            RowSelector::TopK { keep_fraction: 1.0 },
            &mut g,
            &mut rng,
        );
        assert_eq!(sel.rows_after, 20);
    }
}
