//! Loss functions, each returning `(loss, ∂loss/∂prediction)`.
//!
//! Cross-entropy losses operate in **logit space** (the final layer uses
//! [`crate::Activation::Identity`]); fusing the sigmoid/softmax into the loss
//! is the numerically stable formulation and gives the famously simple
//! gradient `σ(z) − y`.

use schemble_tensor::prob::softmax;
use schemble_tensor::Matrix;

/// Mean squared error over every element of the batch.
///
/// `loss = mean((pred − target)²)`, `grad = 2(pred − target)/n`.
pub fn mse(pred: &Matrix, target: &Matrix) -> (f64, Matrix) {
    assert_eq!(pred.shape(), target.shape(), "mse shape mismatch");
    let mut grad = Matrix::zeros(pred.rows(), pred.cols());
    let loss = mse_into(pred.as_slice(), target.as_slice().iter().copied(), grad.as_mut_slice());
    (loss, grad)
}

/// [`mse`] against targets read in element order, writing the gradient into
/// `grad` (one slot per prediction): the training loops' allocation-free
/// form, with the same arithmetic.
pub(crate) fn mse_into(pred: &[f64], target: impl Iterator<Item = f64>, grad: &mut [f64]) -> f64 {
    let n = pred.len() as f64;
    for ((d, &p), t) in grad.iter_mut().zip(pred).zip(target) {
        *d = p - t;
    }
    let loss = grad.iter().map(|d| d * d).sum::<f64>() / n;
    for d in grad.iter_mut() {
        *d = 2.0 * *d / n;
    }
    loss
}

/// Binary cross-entropy on logits, averaged over the batch.
///
/// `pred` holds raw logits `z`; `target` holds labels in `[0, 1]` (soft
/// labels are allowed — the pipelines use the ensemble's probability as the
/// label). Uses the overflow-safe form
/// `max(z,0) − z·y + ln(1 + e^(−|z|))`; gradient is `(σ(z) − y)/n`.
pub fn bce_with_logits(pred: &Matrix, target: &Matrix) -> (f64, Matrix) {
    assert_eq!(pred.shape(), target.shape(), "bce shape mismatch");
    let mut grad = Matrix::zeros(pred.rows(), pred.cols());
    let loss = bce_with_logits_into(
        pred.as_slice(),
        target.as_slice().iter().copied(),
        grad.as_mut_slice(),
    );
    (loss, grad)
}

/// [`bce_with_logits`] in the form of [`mse_into`].
pub(crate) fn bce_with_logits_into(
    pred: &[f64],
    target: impl Iterator<Item = f64>,
    grad: &mut [f64],
) -> f64 {
    let n = pred.len() as f64;
    let mut loss = 0.0;
    for ((g, &z), y) in grad.iter_mut().zip(pred).zip(target) {
        loss += z.max(0.0) - z * y + (1.0 + (-z.abs()).exp()).ln();
        let sig = 1.0 / (1.0 + (-z).exp());
        *g = (sig - y) / n;
    }
    loss / n
}

/// Multi-class cross-entropy on logits with integer class labels, averaged
/// over the batch. Gradient is `(softmax(z) − onehot(y))/batch`.
pub fn softmax_ce_with_logits(pred: &Matrix, labels: &[usize]) -> (f64, Matrix) {
    assert_eq!(pred.rows(), labels.len(), "label count mismatch");
    let batch = pred.rows() as f64;
    let mut loss = 0.0;
    let mut grad = Matrix::zeros(pred.rows(), pred.cols());
    for r in 0..pred.rows() {
        let probs = softmax(pred.row(r));
        let y = labels[r];
        assert!(y < pred.cols(), "label {y} out of range for {} classes", pred.cols());
        loss += -probs[y].max(1e-12).ln();
        for c in 0..pred.cols() {
            grad[(r, c)] = (probs[c] - if c == y { 1.0 } else { 0.0 }) / batch;
        }
    }
    (loss / batch, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_zero_at_target() {
        let p = Matrix::row_vector(&[1.0, 2.0]);
        let (l, g) = mse(&p, &p);
        assert_eq!(l, 0.0);
        assert_eq!(g.frobenius_norm(), 0.0);
    }

    #[test]
    fn mse_gradient_finite_difference() {
        let p = Matrix::row_vector(&[0.3, -0.8, 1.2]);
        let t = Matrix::row_vector(&[0.0, 0.5, 1.0]);
        let (_, g) = mse(&p, &t);
        let eps = 1e-6;
        for i in 0..3 {
            let mut pp = p.clone();
            pp.as_mut_slice()[i] += eps;
            let mut pm = p.clone();
            pm.as_mut_slice()[i] -= eps;
            let numeric = (mse(&pp, &t).0 - mse(&pm, &t).0) / (2.0 * eps);
            assert!((numeric - g.as_slice()[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn bce_gradient_is_sigmoid_minus_label() {
        let z = Matrix::row_vector(&[0.0]);
        let y = Matrix::row_vector(&[1.0]);
        let (loss, g) = bce_with_logits(&z, &y);
        assert!((loss - (2f64).ln()).abs() < 1e-9, "BCE at z=0,y=1 is ln 2");
        assert!((g[(0, 0)] - (0.5 - 1.0)).abs() < 1e-9);
    }

    #[test]
    fn bce_stable_for_large_logits() {
        let z = Matrix::row_vector(&[1000.0, -1000.0]);
        let y = Matrix::row_vector(&[1.0, 0.0]);
        let (loss, g) = bce_with_logits(&z, &y);
        assert!(loss.is_finite() && loss < 1e-6, "confident+correct ⇒ near-zero loss");
        assert!(g.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn bce_gradient_finite_difference() {
        let z = Matrix::row_vector(&[0.7, -1.3]);
        let y = Matrix::row_vector(&[1.0, 0.3]);
        let (_, g) = bce_with_logits(&z, &y);
        let eps = 1e-6;
        for i in 0..2 {
            let mut zp = z.clone();
            zp.as_mut_slice()[i] += eps;
            let mut zm = z.clone();
            zm.as_mut_slice()[i] -= eps;
            let numeric = (bce_with_logits(&zp, &y).0 - bce_with_logits(&zm, &y).0) / (2.0 * eps);
            assert!((numeric - g.as_slice()[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_ce_prefers_correct_class() {
        let good = Matrix::row_vector(&[5.0, 0.0, 0.0]);
        let bad = Matrix::row_vector(&[0.0, 5.0, 0.0]);
        let (lg, _) = softmax_ce_with_logits(&good, &[0]);
        let (lb, _) = softmax_ce_with_logits(&bad, &[0]);
        assert!(lg < lb);
    }

    #[test]
    fn softmax_ce_gradient_rows_sum_to_zero() {
        let z = Matrix::from_vec(2, 3, vec![0.1, 0.5, -0.2, 1.0, -1.0, 0.0]);
        let (_, g) = softmax_ce_with_logits(&z, &[2, 0]);
        for r in 0..2 {
            let s: f64 = g.row(r).iter().sum();
            assert!(s.abs() < 1e-12, "softmax-CE row gradients must sum to 0");
        }
    }

    #[test]
    fn softmax_ce_gradient_finite_difference() {
        let z = Matrix::row_vector(&[0.4, -0.9, 0.2]);
        let labels = [1usize];
        let (_, g) = softmax_ce_with_logits(&z, &labels);
        let eps = 1e-6;
        for i in 0..3 {
            let mut zp = z.clone();
            zp.as_mut_slice()[i] += eps;
            let mut zm = z.clone();
            zm.as_mut_slice()[i] -= eps;
            let numeric = (softmax_ce_with_logits(&zp, &labels).0
                - softmax_ce_with_logits(&zm, &labels).0)
                / (2.0 * eps);
            assert!((numeric - g.as_slice()[i]).abs() < 1e-6);
        }
    }
}
