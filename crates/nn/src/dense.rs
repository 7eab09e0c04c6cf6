//! Fully connected layer with fused activation.

use rand::Rng;
use schemble_tensor::Matrix;

/// Activation functions supported by [`Dense`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// No activation — emit raw pre-activations (logits).
    Identity,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// Applies the activation elementwise.
    fn apply(self, z: f64) -> f64 {
        match self {
            Activation::Identity => z,
            Activation::Relu => z.max(0.0),
            Activation::Tanh => z.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-z).exp()),
        }
    }

    /// Derivative expressed in terms of the *activated output* `a` (all four
    /// activations admit this form, which spares caching pre-activations).
    fn derivative_from_output(self, a: f64) -> f64 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if a > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - a * a,
            Activation::Sigmoid => a * (1.0 - a),
        }
    }
}

/// A dense layer `y = act(x·W + b)` over row-major batches.
///
/// `forward` caches the input batch and activated output; `backward` consumes
/// those caches to accumulate `grad_w`/`grad_b` and return the gradient with
/// respect to the input.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weight matrix, `in_dim × out_dim`.
    pub w: Matrix,
    /// Bias row vector, `1 × out_dim`.
    pub b: Matrix,
    /// Accumulated weight gradient (zeroed by the optimiser step).
    pub grad_w: Matrix,
    /// Accumulated bias gradient.
    pub grad_b: Matrix,
    activation: Activation,
    input_cache: Option<Matrix>,
    output_cache: Option<Matrix>,
}

impl Dense {
    /// A new layer with Kaiming-uniform initialised weights and zero biases.
    pub fn new(in_dim: usize, out_dim: usize, activation: Activation, rng: &mut impl Rng) -> Self {
        // Kaiming/He uniform: U(-limit, limit), limit = sqrt(6 / in_dim).
        // Works well for ReLU and is a fine default for the others at the
        // tiny depths used here.
        let limit = (6.0 / in_dim as f64).sqrt();
        let w = Matrix::from_fn(in_dim, out_dim, |_, _| rng.random_range(-limit..limit));
        Self {
            w,
            b: Matrix::zeros(1, out_dim),
            grad_w: Matrix::zeros(in_dim, out_dim),
            grad_b: Matrix::zeros(1, out_dim),
            activation,
            input_cache: None,
            output_cache: None,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Forward pass over a batch (`rows = samples`), caching for backward.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut out = x.matmul(&self.w);
        out.add_row_broadcast(&self.b);
        out.map_inplace(|z| self.activation.apply(z));
        self.input_cache = Some(x.clone());
        self.output_cache = Some(out.clone());
        out
    }

    /// Forward pass without caching — for inference.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut out = x.matmul(&self.w);
        out.add_row_broadcast(&self.b);
        out.map_inplace(|z| self.activation.apply(z));
        out
    }

    /// Backward pass: `grad_out` is ∂L/∂(activated output). Accumulates into
    /// `grad_w`/`grad_b` and returns ∂L/∂input.
    ///
    /// # Panics
    /// Panics if called before `forward`.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let x = self.input_cache.as_ref().expect("backward before forward");
        let a = self.output_cache.as_ref().expect("backward before forward");
        // δ = grad_out ⊙ act'(a)
        let delta = Matrix::from_fn(grad_out.rows(), grad_out.cols(), |r, c| {
            grad_out[(r, c)] * self.activation.derivative_from_output(a[(r, c)])
        });
        self.grad_w.axpy(1.0, &x.transpose().matmul(&delta));
        self.grad_b.axpy(1.0, &delta.sum_rows());
        delta.matmul(&self.w.transpose())
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_w.map_inplace(|_| 0.0);
        self.grad_b.map_inplace(|_| 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn forward_shapes() {
        let mut layer = Dense::new(4, 3, Activation::Relu, &mut rng());
        let x = Matrix::zeros(5, 4);
        assert_eq!(layer.forward(&x).shape(), (5, 3));
    }

    #[test]
    fn identity_layer_is_affine() {
        let mut layer = Dense::new(2, 1, Activation::Identity, &mut rng());
        layer.w = Matrix::from_vec(2, 1, vec![2.0, -1.0]);
        layer.b = Matrix::row_vector(&[0.5]);
        let x = Matrix::row_vector(&[3.0, 4.0]);
        let y = layer.forward(&x);
        assert!((y[(0, 0)] - (6.0 - 4.0 + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn relu_clamps_negative_preactivations() {
        let mut layer = Dense::new(1, 1, Activation::Relu, &mut rng());
        layer.w = Matrix::from_vec(1, 1, vec![1.0]);
        layer.b = Matrix::row_vector(&[0.0]);
        assert_eq!(layer.forward(&Matrix::row_vector(&[-5.0]))[(0, 0)], 0.0);
        assert_eq!(layer.forward(&Matrix::row_vector(&[5.0]))[(0, 0)], 5.0);
    }

    /// Finite-difference check of the backward pass for every activation.
    #[test]
    fn gradients_match_finite_differences() {
        for act in [Activation::Identity, Activation::Relu, Activation::Tanh, Activation::Sigmoid] {
            let mut layer = Dense::new(3, 2, act, &mut rng());
            let x = Matrix::from_vec(2, 3, vec![0.3, -0.7, 1.1, 0.9, 0.2, -0.4]);
            // Scalar loss L = sum(forward(x)); dL/d(out) = ones.
            let out = layer.forward(&x);
            let ones = Matrix::filled(out.rows(), out.cols(), 1.0);
            layer.zero_grad();
            let grad_x = layer.backward(&ones);

            let eps = 1e-6;
            // Check a few weight gradients.
            for &(r, c) in &[(0usize, 0usize), (1, 1), (2, 0)] {
                let orig = layer.w[(r, c)];
                layer.w[(r, c)] = orig + eps;
                let lp = layer.infer(&x).sum();
                layer.w[(r, c)] = orig - eps;
                let lm = layer.infer(&x).sum();
                layer.w[(r, c)] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = layer.grad_w[(r, c)];
                assert!(
                    (numeric - analytic).abs() < 1e-4,
                    "{act:?} dW[{r},{c}]: numeric {numeric} vs analytic {analytic}"
                );
            }
            // Check an input gradient.
            let probe = |layer: &Dense, x: &Matrix| layer.infer(x).sum();
            let mut xp = x.clone();
            xp[(0, 1)] += eps;
            let mut xm = x.clone();
            xm[(0, 1)] -= eps;
            let numeric = (probe(&layer, &xp) - probe(&layer, &xm)) / (2.0 * eps);
            assert!(
                (numeric - grad_x[(0, 1)]).abs() < 1e-4,
                "{act:?} dX: numeric {numeric} vs analytic {}",
                grad_x[(0, 1)]
            );
        }
    }

    #[test]
    fn zero_grad_resets_accumulators() {
        let mut layer = Dense::new(2, 2, Activation::Tanh, &mut rng());
        let x = Matrix::filled(1, 2, 1.0);
        let out = layer.forward(&x);
        layer.backward(&Matrix::filled(out.rows(), out.cols(), 1.0));
        assert!(layer.grad_w.frobenius_norm() > 0.0);
        layer.zero_grad();
        assert_eq!(layer.grad_w.frobenius_norm(), 0.0);
        assert_eq!(layer.grad_b.frobenius_norm(), 0.0);
    }
}
