//! Sequential multi-layer perceptron with a mini-batch training loop.

use crate::dense::{Activation, Dense};
use crate::optim::Optimizer;
use rand::seq::SliceRandom;
use rand::Rng;
use schemble_tensor::Matrix;

/// A stack of [`Dense`] layers trained by backpropagation.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Builds an MLP from layer sizes.
    ///
    /// `dims = [in, h1, …, out]`; hidden layers use `hidden_act`, the output
    /// layer uses `out_act` (pass [`Activation::Identity`] for logit-space
    /// losses).
    ///
    /// # Panics
    /// Panics if fewer than two dims are given.
    pub fn new(
        dims: &[usize],
        hidden_act: Activation,
        out_act: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            let act = if i == dims.len() - 2 { out_act } else { hidden_act };
            layers.push(Dense::new(dims[i], dims[i + 1], act, rng));
        }
        Self { layers }
    }

    /// The layers, input first.
    #[cfg(test)]
    pub(crate) fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// [`Mlp::layers`], mutably.
    #[cfg(test)]
    pub(crate) fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Number of trainable parameters (for the Fig. 13 overhead analysis).
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Estimated memory footprint in bytes (`f64` weights).
    pub fn memory_bytes(&self) -> usize {
        self.param_count() * std::mem::size_of::<f64>()
    }

    /// Multiply–accumulate count of one forward pass for a single sample;
    /// a hardware-independent proxy for predictor latency.
    pub fn flops_per_sample(&self) -> usize {
        self.layers.iter().map(|l| 2 * l.in_dim() * l.out_dim()).sum()
    }

    /// Forward pass caching intermediates for training.
    pub fn forward(&mut self, x: &Matrix) -> &Matrix {
        let (first, rest) = self.layers.split_first_mut().expect("at least one layer");
        let mut h = first.forward(x);
        for layer in rest {
            h = layer.forward(h);
        }
        h
    }

    /// Forward pass without caches — for inference.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let (first, rest) = self.layers.split_first().expect("at least one layer");
        let mut h = first.infer(x);
        for layer in rest {
            h = layer.infer(&h);
        }
        h
    }

    /// Convenience: inference on a single feature vector.
    pub fn infer_one(&self, features: &[f64]) -> Vec<f64> {
        let out = self.infer(&Matrix::row_vector(features));
        out.as_slice().to_vec()
    }

    /// Backpropagates `grad_out` (∂L/∂network-output) through the stack,
    /// accumulating every layer's parameter gradients. The network's input
    /// gradient is not computed: nothing reads it.
    pub fn backward(&mut self, grad_out: &Matrix) {
        let (first, rest) = self.layers.split_first_mut().expect("at least one layer");
        let mut g = grad_out;
        for layer in rest.iter_mut().rev() {
            g = layer.backward(g);
        }
        first.backward_params(g);
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Applies one optimiser step using keys offset by `key_base` (so several
    /// networks can share one optimiser without key collisions), then zeroes
    /// gradients.
    pub fn apply_grads(&mut self, opt: &mut impl Optimizer, key_base: usize) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            opt.step(key_base + 2 * i, &mut layer.w, &layer.grad_w);
            opt.step(key_base + 2 * i + 1, &mut layer.b, &layer.grad_b);
        }
        self.zero_grad();
    }

    /// Mini-batch training against a caller-supplied loss.
    ///
    /// The batch, every layer's caches and gradients are buffers reused from
    /// step to step; what a step allocates is the callback's gradient.
    ///
    /// `loss_fn(pred, row_indices)` returns `(loss, ∂loss/∂pred)` for the
    /// rows of the batch (indices refer to the full training set, letting
    /// the callback look up arbitrary label structures). Returns the average
    /// loss of the final epoch.
    pub fn fit(
        &mut self,
        x: &Matrix,
        epochs: usize,
        batch_size: usize,
        opt: &mut impl Optimizer,
        rng: &mut impl Rng,
        mut loss_fn: impl FnMut(&Matrix, &[usize]) -> (f64, Matrix),
    ) -> f64 {
        assert!(batch_size > 0, "batch_size must be positive");
        let n = x.rows();
        let mut order: Vec<usize> = (0..n).collect();
        let mut last_epoch_loss = 0.0;
        let mut xb = Matrix::zeros(0, x.cols());
        for _ in 0..epochs {
            order.shuffle(rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in order.chunks(batch_size) {
                xb.fill_rows(x.cols(), chunk.iter().map(|&r| x.row(r)));
                let pred = self.forward(&xb);
                let (loss, grad) = loss_fn(pred, chunk);
                self.backward(&grad);
                self.apply_grads(opt, 0);
                epoch_loss += loss;
                batches += 1;
            }
            last_epoch_loss = epoch_loss / batches.max(1) as f64;
        }
        last_epoch_loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{bce_with_logits, mse};
    use crate::optim::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn learns_xor() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Matrix::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let y = [0.0, 1.0, 1.0, 0.0];
        let mut net = Mlp::new(&[2, 8, 1], Activation::Tanh, Activation::Identity, &mut rng);
        let mut opt = Adam::new(0.05);
        net.fit(&x, 400, 4, &mut opt, &mut rng, |pred, idx| {
            let target = Matrix::from_fn(idx.len(), 1, |r, _| y[idx[r]]);
            bce_with_logits(pred, &target)
        });
        for (i, &label) in y.iter().enumerate() {
            let logit = net.infer_one(x.row(i))[0];
            let p = 1.0 / (1.0 + (-logit).exp());
            assert!(
                (p - label).abs() < 0.2,
                "xor({:?}) predicted {p:.3}, wanted {label}",
                x.row(i)
            );
        }
    }

    #[test]
    fn learns_linear_regression() {
        let mut rng = StdRng::seed_from_u64(11);
        // y = 2a - b + 0.5
        let n = 200;
        let x = Matrix::from_fn(n, 2, |_, _| rng.random_range(-1.0..1.0));
        let targets: Vec<f64> = (0..n).map(|r| 2.0 * x[(r, 0)] - x[(r, 1)] + 0.5).collect();
        let mut net = Mlp::new(&[2, 1], Activation::Identity, Activation::Identity, &mut rng);
        let mut opt = Adam::new(0.05);
        let final_loss = net.fit(&x, 200, 32, &mut opt, &mut rng, |pred, idx| {
            let t = Matrix::from_fn(idx.len(), 1, |r, _| targets[idx[r]]);
            mse(pred, &t)
        });
        assert!(final_loss < 1e-3, "regression failed to converge: {final_loss}");
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = Mlp::new(&[3, 4, 2], Activation::Relu, Activation::Sigmoid, &mut rng);
        let x = Matrix::from_fn(2, 3, |_, _| rng.random_range(-1.0..1.0));
        let a = net.forward(&x).clone();
        let b = net.infer(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn param_count_and_flops() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = Mlp::new(&[10, 20, 3], Activation::Relu, Activation::Identity, &mut rng);
        assert_eq!(net.param_count(), 10 * 20 + 20 + 20 * 3 + 3);
        assert_eq!(net.flops_per_sample(), 2 * (10 * 20 + 20 * 3));
        assert_eq!(net.memory_bytes(), net.param_count() * 8);
    }
}
