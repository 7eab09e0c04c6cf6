//! Probability utilities: softmax, logits, entropy and temperature scaling.
//!
//! Temperature scaling (Guo et al., ICML'17) is the post-hoc calibration the
//! paper applies to classifier outputs before computing discrepancy scores:
//! badly calibrated deep models emit near-one-hot distributions whose raw
//! divergences swamp the score, so each model's logits are divided by a
//! scalar temperature fitted on held-out data.

/// Numerically stable softmax.
///
/// # Examples
///
/// ```
/// let p = schemble_tensor::prob::softmax(&[0.0, 0.0]);
/// assert!((p[0] - 0.5).abs() < 1e-12);
/// ```
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    let mut probs = logits.to_vec();
    softmax_in_place(&mut probs);
    probs
}

/// [`softmax`] over `xs` itself: the logits become the probabilities.
pub fn softmax_in_place(xs: &mut [f64]) {
    let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
    }
    let sum: f64 = xs.iter().sum();
    for x in xs.iter_mut() {
        *x /= sum;
    }
}

/// Applies temperature scaling directly to a probability vector: the
/// logits `ln p` (floored at [`crate::dist::EPS`]) divided by `t`, then
/// softmax (`t > 1` softens, `t < 1` sharpens). One allocation, the result.
///
/// # Panics
/// Panics if `t <= 0`.
pub fn rescale_probs(probs: &[f64], t: f64) -> Vec<f64> {
    assert!(t > 0.0, "temperature must be positive, got {t}");
    let mut scaled: Vec<f64> = probs.iter().map(|&p| p.max(crate::dist::EPS).ln() / t).collect();
    softmax_in_place(&mut scaled);
    scaled
}

/// Shannon entropy in nats.
pub fn entropy(p: &[f64]) -> f64 {
    p.iter().map(|&pi| if pi <= 0.0 { 0.0 } else { -pi * pi.max(crate::dist::EPS).ln() }).sum()
}

/// Index of the maximum element (prediction argmax). Ties break toward the
/// lower index, matching the deterministic tie-break used throughout.
pub fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

/// Negative log-likelihood of `label` after temperature scaling, from the
/// output's logits `logs[c] = ln(max(p_c, EPS))`: the term
/// `-ln(max(rescale_probs(p, t)[label], EPS))` a calibration fit sums, bit
/// for bit, without materialising the rescaled vector. The steps are
/// [`rescale_probs`]'s: each logit divided by `t`, the maximum, `exp` of each
/// minus it summed in class order, the label's term over the sum. The
/// maximum is taken before dividing: a correctly rounded division by `t > 0`
/// never reorders two values, so the largest quotient is the largest
/// logit's, and a division per class is saved.
pub fn temperature_nll(logs: &[f64], label: usize, t: f64) -> f64 {
    let max = logs.iter().copied().fold(f64::NEG_INFINITY, f64::max) / t;
    let sum: f64 = logs.iter().map(|&l| (l / t - max).exp()).sum();
    let q = (logs[label] / t - max).exp() / sum;
    -q.max(crate::dist::EPS).ln()
}

/// Fits a calibration temperature by golden-section search, minimising
/// `mean_nll(t)` — the average [`temperature_nll`] over held-out samples.
///
/// This is the one-parameter optimisation from Guo et al.; the search
/// interval `[0.05, 20]` comfortably covers the miscalibration range of the
/// synthetic models. `mean_nll` is evaluated once per probe, in a fixed probe
/// order, so the result is a function of the values it returns.
pub fn fit_temperature(mean_nll: impl Fn(f64) -> f64) -> f64 {
    golden_section_min(mean_nll, 0.05, 20.0, 1e-4)
}

/// Golden-section minimisation of a unimodal function on `[a, b]`.
fn golden_section_min(f: impl Fn(f64) -> f64, mut a: f64, mut b: f64, tol: f64) -> f64 {
    let inv_phi = (5f64.sqrt() - 1.0) / 2.0;
    let mut c = b - inv_phi * (b - a);
    let mut d = a + inv_phi * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);
    while (b - a).abs() > tol {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - inv_phi * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + inv_phi * (b - a);
            fd = f(d);
        }
    }
    0.5 * (a + b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_prob_vector(p: &[f64]) {
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn softmax_sums_to_one_and_orders_by_logit() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert_prob_vector(&p);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let p1 = softmax(&[1.0, 2.0, 3.0]);
        let p2 = softmax(&[1001.0, 1002.0, 1003.0]);
        for (a, b) in p1.iter().zip(&p2) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn high_temperature_flattens() {
        let p = softmax(&[0.0, 4.0]);
        let sharp = rescale_probs(&p, 1.0);
        let flat = rescale_probs(&p, 10.0);
        assert!(flat[1] < sharp[1]);
        assert!(flat[1] > 0.5, "order must be preserved");
    }

    #[test]
    fn rescale_probs_roundtrips_at_t1() {
        let p = softmax(&[0.3, -1.2, 2.0]);
        let q = rescale_probs(&p, 1.0);
        for (a, b) in p.iter().zip(&q) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn entropy_max_for_uniform() {
        let u = [0.25; 4];
        let skew = [0.97, 0.01, 0.01, 0.01];
        assert!(entropy(&u) > entropy(&skew));
        assert!((entropy(&u) - (4f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn argmax_breaks_ties_low() {
        assert_eq!(argmax(&[1.0, 1.0, 0.5]), 0);
        assert_eq!(argmax(&[0.1, 0.9, 0.9]), 1);
    }

    /// The mean [`temperature_nll`] of 100 copies of `probs` whose label is
    /// class 0 seven times in ten.
    fn seventy_percent_right(probs: [f64; 2]) -> impl Fn(f64) -> f64 {
        let logs = probs.map(|p| p.max(crate::dist::EPS).ln());
        move |t| {
            (0..100).map(|i| temperature_nll(&logs, usize::from(i % 10 >= 7), t)).sum::<f64>()
                / 100.0
        }
    }

    #[test]
    fn fit_temperature_softens_overconfident_model() {
        // Model says 0.99 for class 0 but is right only ~70% of the time:
        // the fitted temperature must be > 1 (softening).
        let t = fit_temperature(seventy_percent_right([0.99, 0.01]));
        assert!(t > 1.5, "expected strong softening, got t = {t}");
    }

    #[test]
    fn fit_temperature_keeps_calibrated_model_near_one() {
        // Model says 0.7/0.3 and is right exactly 70% of the time.
        let t = fit_temperature(seventy_percent_right([0.7, 0.3]));
        assert!((t - 1.0).abs() < 0.25, "calibrated model should keep t ≈ 1, got {t}");
    }

    #[test]
    fn temperature_nll_is_the_nll_of_the_rescaled_output() {
        let p = softmax(&[0.3, -1.2, 2.0, 0.0]);
        let logs: Vec<f64> = p.iter().map(|&x| x.max(crate::dist::EPS).ln()).collect();
        for t in [0.05, 0.7, 1.0, 3.3, 20.0] {
            let q = rescale_probs(&p, t);
            for (label, &q_label) in q.iter().enumerate() {
                let want = -q_label.max(crate::dist::EPS).ln();
                assert_eq!(temperature_nll(&logs, label, t).to_bits(), want.to_bits());
            }
        }
    }
}
