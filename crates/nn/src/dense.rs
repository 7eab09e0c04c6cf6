//! Fully connected layer with fused activation.

use rand::Rng;
use schemble_tensor::{gemm, Layout, Matrix};

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
/// those caches to accumulate `grad_w`/`grad_b` and computes the gradient with
/// respect to the input. The caches, `δ` and the input gradient are buffers
/// the layer keeps from step to step, so a training step allocates nothing
/// once the first batch has sized them. Every product is one
/// [`schemble_tensor::gemm`]; no transpose is built.
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
    input: Matrix,
    output: Matrix,
    delta: Matrix,
    grad_input: Matrix,
}

impl Dense {
    /// A new layer with Kaiming-uniform initialised weights and zero biases.
    pub fn new(in_dim: usize, out_dim: usize, activation: Activation, rng: &mut impl Rng) -> Self {
        // Kaiming/He uniform: U(-limit, limit), limit = sqrt(6 / in_dim).
        // Works well for ReLU and is a fine default for the others at the
        // tiny depths used here.
        let limit = (6.0 / in_dim as f64).sqrt();
        let w = Matrix::from_fn(in_dim, out_dim, |_, _| rng.random_range(-limit..limit));
        let empty = || Matrix::zeros(0, 0);
        Self {
            w,
            b: Matrix::zeros(1, out_dim),
            grad_w: Matrix::zeros(in_dim, out_dim),
            grad_b: Matrix::zeros(1, out_dim),
            activation,
            input: empty(),
            output: empty(),
            delta: empty(),
            grad_input: empty(),
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
    pub fn forward(&mut self, x: &Matrix) -> &Matrix {
        self.input.clone_from(x);
        self.output.reset(x.rows(), self.out_dim());
        affine_into(&self.w, &self.b, self.activation, x, &mut self.output);
        &self.output
    }

    /// Forward pass without caching — for inference.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.out_dim());
        affine_into(&self.w, &self.b, self.activation, x, &mut out);
        out
    }

    /// Backward pass: `grad_out` is ∂L/∂(activated output). Accumulates into
    /// `grad_w`/`grad_b` and returns ∂L/∂input.
    ///
    /// # Panics
    /// Panics if `grad_out` is not the shape of the last `forward`'s output.
    pub fn backward(&mut self, grad_out: &Matrix) -> &Matrix {
        self.backward_params(grad_out);
        self.grad_input.reset(self.delta.rows(), self.in_dim());
        gemm(Layout::TransposeRhs, &self.delta, &self.w, self.grad_input.as_mut_slice());
        &self.grad_input
    }

    /// [`Dense::backward`] without ∂L/∂input, for a network's first layer,
    /// whose input gradient nothing reads.
    ///
    /// # Panics
    /// Panics if `grad_out` is not the shape of the last `forward`'s output.
    pub fn backward_params(&mut self, grad_out: &Matrix) {
        assert_eq!(grad_out.shape(), self.output.shape(), "backward before forward");
        // δ = grad_out ⊙ act'(a)
        self.delta.clone_from(grad_out);
        for (d, &a) in self.delta.as_mut_slice().iter_mut().zip(self.output.as_slice()) {
            *d *= self.activation.derivative_from_output(a);
        }
        gemm(Layout::TransposeLhs, &self.input, &self.delta, self.grad_w.as_mut_slice());
        for r in 0..self.delta.rows() {
            for (g, &d) in self.grad_b.as_mut_slice().iter_mut().zip(self.delta.row(r)) {
                *g += d;
            }
        }
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_w.as_mut_slice().fill(0.0);
        self.grad_b.as_mut_slice().fill(0.0);
    }

    /// The activation this layer applies.
    #[cfg(test)]
    pub(crate) fn activation(&self) -> Activation {
        self.activation
    }
}

/// `out = act(x·W + b)` into a zeroed `out`.
fn affine_into(w: &Matrix, b: &Matrix, activation: Activation, x: &Matrix, out: &mut Matrix) {
    gemm(Layout::Plain, x, w, out.as_mut_slice());
    out.add_row_broadcast(b);
    out.map_inplace(|z| activation.apply(z));
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
            let grad_x = layer.backward(&ones).clone();

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
        let (rows, cols) = layer.forward(&x).shape();
        layer.backward(&Matrix::filled(rows, cols, 1.0));
        assert!(layer.grad_w.frobenius_norm() > 0.0);
        layer.zero_grad();
        assert_eq!(layer.grad_w.frobenius_norm(), 0.0);
        assert_eq!(layer.grad_b.frobenius_norm(), 0.0);
    }
}
