//! Loss functions for KGE training.
//!
//! The paper trains ComplEx with the logistic loss
//! `Σ log(1 + exp(−y·φ)) + λ‖θ‖²` where `y = +1` for true triples and
//! `−1` for corrupted ones (§3.1). All functions here are numerically
//! stable for large `|φ|`.

/// Numerically stable `log(1 + exp(x))`.
#[inline]
pub fn softplus(x: f32) -> f32 {
    // max(x, 0) + ln(1 + exp(-|x|))
    x.max(0.0) + (-x.abs()).exp().ln_1p()
}

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Logistic loss of one triple: `log(1 + exp(−y·φ))`.
///
/// `label` must be `+1.0` or `−1.0`.
#[inline]
pub fn logistic_loss(label: f32, score: f32) -> f32 {
    debug_assert!(label == 1.0 || label == -1.0);
    softplus(-label * score)
}

/// `∂/∂φ` of [`logistic_loss`]: `−y·σ(−y·φ)`.
#[inline]
pub fn logistic_loss_grad(label: f32, score: f32) -> f32 {
    debug_assert!(label == 1.0 || label == -1.0);
    -label * sigmoid(-label * score)
}

/// `(`[`logistic_loss`]`, `[`logistic_loss_grad`]`)` from one `exp`: with
/// `x = −y·φ` and `e = exp(−|x|)`, the loss is `max(x, 0) + ln_1p(e)` and
/// the sigmoid `1/(1+e)` for `x ≥ 0`, `e/(1+e)` below. The two calls'
/// exponentials are this `e`, since `−x == −|x|` for `x ≥ 0` and
/// `x == −|x|` for `x < 0`, so both values carry their bits (a NaN input
/// gives NaNs, whose signs nothing defines).
#[inline]
pub fn logistic_loss_and_grad(label: f32, score: f32) -> (f32, f32) {
    debug_assert!(label == 1.0 || label == -1.0);
    let x = -label * score;
    let e = (-x.abs()).exp();
    let sigmoid = if x >= 0.0 { 1.0 / (1.0 + e) } else { e / (1.0 + e) };
    (x.max(0.0) + e.ln_1p(), -label * sigmoid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softplus_matches_naive_in_safe_range() {
        for x in [-5.0f32, -1.0, 0.0, 0.5, 3.0] {
            let naive = (1.0 + x.exp()).ln();
            assert!((softplus(x) - naive).abs() < 1e-6, "x={x}");
        }
    }

    #[test]
    fn softplus_stable_for_extremes() {
        assert!(softplus(100.0).is_finite());
        assert!((softplus(100.0) - 100.0).abs() < 1e-3);
        // softplus(-100) = exp(-100) up to rounding — a denormal, not inf/nan.
        assert!(softplus(-100.0) >= 0.0 && softplus(-100.0) < 1e-40);
    }

    #[test]
    fn sigmoid_basic_properties() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(30.0) > 0.999_999);
        assert!(sigmoid(-30.0) < 1e-6);
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn loss_decreases_as_correct_score_grows() {
        assert!(logistic_loss(1.0, 3.0) < logistic_loss(1.0, 0.0));
        assert!(logistic_loss(-1.0, -3.0) < logistic_loss(-1.0, 0.0));
    }

    #[test]
    fn grad_is_derivative_of_loss() {
        let eps = 1e-3f32;
        for &(y, phi) in &[(1.0f32, 0.7f32), (-1.0, 0.7), (1.0, -2.0), (-1.0, -2.0)] {
            let num = (logistic_loss(y, phi + eps) - logistic_loss(y, phi - eps)) / (2.0 * eps);
            let ana = logistic_loss_grad(y, phi);
            assert!((num - ana).abs() < 1e-3, "y={y} phi={phi} num={num} ana={ana}");
        }
    }

    #[test]
    fn grad_signs() {
        // Positive triple with low score: pushing score up reduces loss.
        assert!(logistic_loss_grad(1.0, -1.0) < 0.0);
        // Negative triple with high score: pushing score down reduces loss.
        assert!(logistic_loss_grad(-1.0, 1.0) > 0.0);
    }

    /// One `exp` gives both calls' bits, at both labels, on the inputs
    /// where the two branches, the sign of zero, underflow, overflow and
    /// NaN would show a difference.
    #[test]
    fn loss_and_grad_is_both_calls_to_the_bit() {
        let smallest = f32::from_bits(1);
        let magnitudes = [0.0, smallest, 1e-30, 1.0, 20.0, 88.7, 89.0, 1e30, f32::INFINITY];
        for y in [1.0f32, -1.0] {
            for score in magnitudes.into_iter().flat_map(|m| [m, -m]) {
                let got = logistic_loss_and_grad(y, score);
                let want = (logistic_loss(y, score), logistic_loss_grad(y, score));
                assert_eq!(
                    (got.0.to_bits(), got.1.to_bits()),
                    (want.0.to_bits(), want.1.to_bits()),
                    "y={y} score={score:e}"
                );
            }
            let (loss, grad) = logistic_loss_and_grad(y, f32::NAN);
            assert!(loss.is_nan() && grad.is_nan(), "y={y}: NaN in, NaN out");
            assert!(logistic_loss(y, f32::NAN).is_nan() && logistic_loss_grad(y, f32::NAN).is_nan());
        }
    }
}
