//! First-order optimisers.
//!
//! Optimisers update parameters keyed by a stable slot id so that stateful
//! methods (Adam's moment estimates) can track each tensor across steps
//! without the network owning optimiser state.

use schemble_tensor::Matrix;
use std::collections::HashMap;

/// A parameter-update rule.
pub trait Optimizer {
    /// Applies one update to `param` given its accumulated `grad`. `key`
    /// uniquely identifies the parameter tensor across calls.
    fn step(&mut self, key: usize, param: &mut Matrix, grad: &Matrix);
}

/// Plain stochastic gradient descent with optional L2 weight decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f64,
    /// L2 penalty coefficient (0 disables).
    pub weight_decay: f64,
}

impl Sgd {
    /// SGD with the given learning rate, no weight decay.
    pub fn new(lr: f64) -> Self {
        Self { lr, weight_decay: 0.0 }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, _key: usize, param: &mut Matrix, grad: &Matrix) {
        if self.weight_decay > 0.0 {
            let decayed = param.map(|w| w * self.weight_decay);
            param.axpy(-self.lr, &decayed);
        }
        param.axpy(-self.lr, grad);
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Denominator fuzz.
    pub eps: f64,
    state: HashMap<usize, AdamSlot>,
}

#[derive(Debug, Clone)]
struct AdamSlot {
    m: Matrix,
    v: Matrix,
    t: u64,
}

impl Adam {
    /// Adam with standard hyperparameters (β₁=0.9, β₂=0.999, ε=1e-8).
    pub fn new(lr: f64) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, state: HashMap::new() }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, key: usize, param: &mut Matrix, grad: &Matrix) {
        let slot = self.state.entry(key).or_insert_with(|| AdamSlot {
            m: Matrix::zeros(grad.rows(), grad.cols()),
            v: Matrix::zeros(grad.rows(), grad.cols()),
            t: 0,
        });
        assert_eq!(slot.m.shape(), grad.shape(), "optimizer key reused for different shape");
        assert_eq!(param.shape(), grad.shape(), "parameter and gradient shapes differ");
        slot.t += 1;
        let (b1, b2) = (self.beta1, self.beta2);
        let moments = slot.m.as_mut_slice().iter_mut().zip(slot.v.as_mut_slice());
        for ((m, v), &g) in moments.zip(grad.as_slice()) {
            *m = b1 * *m + (1.0 - b1) * g;
            *v = b2 * *v + (1.0 - b2) * g * g;
        }
        let bc1 = 1.0 - b1.powi(slot.t as i32);
        let bc2 = 1.0 - b2.powi(slot.t as i32);
        let moments = slot.m.as_slice().iter().zip(slot.v.as_slice());
        for (p, (&m, &v)) in param.as_mut_slice().iter_mut().zip(moments) {
            let m_hat = m / bc1;
            let v_hat = v / bc2;
            *p -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise f(w) = (w - 3)² with each optimiser; both must converge.
    fn run<O: Optimizer>(mut opt: O, steps: usize) -> f64 {
        let mut w = Matrix::row_vector(&[0.0]);
        for _ in 0..steps {
            let grad = Matrix::row_vector(&[2.0 * (w[(0, 0)] - 3.0)]);
            opt.step(0, &mut w, &grad);
        }
        w[(0, 0)]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let w = run(Sgd::new(0.1), 200);
        assert!((w - 3.0).abs() < 1e-6, "sgd stalled at {w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let w = run(Adam::new(0.1), 600);
        assert!((w - 3.0).abs() < 1e-3, "adam stalled at {w}");
    }

    #[test]
    fn adam_state_is_per_key() {
        let mut opt = Adam::new(0.1);
        let mut w1 = Matrix::row_vector(&[0.0]);
        let mut w2 = Matrix::row_vector(&[0.0, 0.0]);
        // Different shapes under different keys must coexist.
        opt.step(0, &mut w1, &Matrix::row_vector(&[1.0]));
        opt.step(1, &mut w2, &Matrix::row_vector(&[1.0, -1.0]));
        assert!(w1[(0, 0)] < 0.0);
        assert!(w2[(0, 1)] > 0.0);
    }

    #[test]
    #[should_panic(expected = "key reused")]
    fn adam_rejects_shape_change_under_same_key() {
        let mut opt = Adam::new(0.1);
        let mut w1 = Matrix::row_vector(&[0.0]);
        opt.step(0, &mut w1, &Matrix::row_vector(&[1.0]));
        let mut w2 = Matrix::row_vector(&[0.0, 0.0]);
        opt.step(0, &mut w2, &Matrix::row_vector(&[1.0, 1.0]));
    }

    #[test]
    fn sgd_weight_decay_shrinks_weights() {
        let mut opt = Sgd { lr: 0.1, weight_decay: 0.5 };
        let mut w = Matrix::row_vector(&[1.0]);
        opt.step(0, &mut w, &Matrix::row_vector(&[0.0]));
        assert!(w[(0, 0)] < 1.0);
    }
}
