//! The training step as it was before the dense kernel, kept as the oracle
//! the allocation-free step must match bit for bit.
//!
//! Every product here is a fresh skip-zero loop over explicit transposes,
//! every step allocates its batch, targets, caches and gradients anew, the
//! first layer's input gradient is computed and dropped, and Adam indexes
//! its slices — the code `Dense`, `Mlp::fit`, `DiscrepancyPredictor::fit`,
//! the losses and `Adam::step` ran before they shared one kernel and kept
//! their buffers.

use crate::dense::{Activation, Dense};
use crate::loss::softmax_ce_with_logits;
use crate::mlp::Mlp;
use crate::predictor::{DiscrepancyPredictor, PredictorConfig, TaskLoss};
use crate::{optim::Adam as NewAdam, Optimizer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use schemble_tensor::Matrix;
use std::collections::HashMap;

/// `lhs · rhs` in `ikj` order, skipping every zero of `lhs`.
fn matmul_skip_zero(lhs: &Matrix, rhs: &Matrix) -> Matrix {
    assert_eq!(lhs.cols(), rhs.rows());
    let mut out = Matrix::zeros(lhs.rows(), rhs.cols());
    for i in 0..lhs.rows() {
        for k in 0..lhs.cols() {
            let a = lhs[(i, k)];
            if a == 0.0 {
                continue;
            }
            for j in 0..rhs.cols() {
                out[(i, j)] += a * rhs[(k, j)];
            }
        }
    }
    out
}

fn transposed(m: &Matrix) -> Matrix {
    Matrix::from_fn(m.cols(), m.rows(), |r, c| m[(c, r)])
}

fn apply(activation: Activation, z: f64) -> f64 {
    match activation {
        Activation::Identity => z,
        Activation::Relu => z.max(0.0),
        Activation::Tanh => z.tanh(),
        Activation::Sigmoid => 1.0 / (1.0 + (-z).exp()),
    }
}

fn derivative_from_output(activation: Activation, a: f64) -> f64 {
    match activation {
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

/// A dense layer with per-step caches.
#[derive(Clone)]
struct OldDense {
    w: Matrix,
    b: Matrix,
    grad_w: Matrix,
    grad_b: Matrix,
    activation: Activation,
    input_cache: Option<Matrix>,
    output_cache: Option<Matrix>,
}

impl OldDense {
    fn of(layer: &Dense) -> Self {
        Self {
            w: layer.w.clone(),
            b: layer.b.clone(),
            grad_w: Matrix::zeros(layer.in_dim(), layer.out_dim()),
            grad_b: Matrix::zeros(1, layer.out_dim()),
            activation: layer.activation(),
            input_cache: None,
            output_cache: None,
        }
    }

    fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut out = matmul_skip_zero(x, &self.w);
        out.add_row_broadcast(&self.b);
        out.map_inplace(|z| apply(self.activation, z));
        self.input_cache = Some(x.clone());
        self.output_cache = Some(out.clone());
        out
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let x = self.input_cache.as_ref().expect("backward before forward");
        let a = self.output_cache.as_ref().expect("backward before forward");
        let delta = Matrix::from_fn(grad_out.rows(), grad_out.cols(), |r, c| {
            grad_out[(r, c)] * derivative_from_output(self.activation, a[(r, c)])
        });
        self.grad_w.axpy(1.0, &matmul_skip_zero(&transposed(x), &delta));
        let mut delta_sums = Matrix::zeros(1, delta.cols());
        for r in 0..delta.rows() {
            for c in 0..delta.cols() {
                delta_sums[(0, c)] += delta[(r, c)];
            }
        }
        self.grad_b.axpy(1.0, &delta_sums);
        matmul_skip_zero(&delta, &transposed(&self.w))
    }

    fn zero_grad(&mut self) {
        self.grad_w.map_inplace(|_| 0.0);
        self.grad_b.map_inplace(|_| 0.0);
    }
}

/// Adam with indexed loops.
struct OldAdam {
    lr: f64,
    state: HashMap<usize, (Matrix, Matrix, u64)>,
}

impl OldAdam {
    fn new(lr: f64) -> Self {
        Self { lr, state: HashMap::new() }
    }

    fn step(&mut self, key: usize, param: &mut Matrix, grad: &Matrix) {
        let (b1, b2, eps) = (0.9f64, 0.999f64, 1e-8);
        let (m, v, t) = self.state.entry(key).or_insert_with(|| {
            (Matrix::zeros(grad.rows(), grad.cols()), Matrix::zeros(grad.rows(), grad.cols()), 0)
        });
        *t += 1;
        for i in 0..grad.len() {
            let g = grad.as_slice()[i];
            let m = &mut m.as_mut_slice()[i];
            *m = b1 * *m + (1.0 - b1) * g;
            let v = &mut v.as_mut_slice()[i];
            *v = b2 * *v + (1.0 - b2) * g * g;
        }
        let bc1 = 1.0 - b1.powi(*t as i32);
        let bc2 = 1.0 - b2.powi(*t as i32);
        for i in 0..param.len() {
            let m_hat = m.as_slice()[i] / bc1;
            let v_hat = v.as_slice()[i] / bc2;
            param.as_mut_slice()[i] -= self.lr * m_hat / (v_hat.sqrt() + eps);
        }
    }

    fn step_layer(&mut self, key: usize, layer: &mut OldDense) {
        self.step(key, &mut layer.w, &layer.grad_w);
        self.step(key + 1, &mut layer.b, &layer.grad_b);
        layer.zero_grad();
    }
}

fn old_mse(pred: &Matrix, target: &Matrix) -> (f64, Matrix) {
    let n = pred.len() as f64;
    let diff = pred - target;
    let loss = diff.as_slice().iter().map(|d| d * d).sum::<f64>() / n;
    (loss, diff.map(|d| 2.0 * d / n))
}

fn old_bce_with_logits(pred: &Matrix, target: &Matrix) -> (f64, Matrix) {
    let n = pred.len() as f64;
    let mut loss = 0.0;
    let mut grad = Matrix::zeros(pred.rows(), pred.cols());
    for r in 0..pred.rows() {
        for c in 0..pred.cols() {
            let z = pred[(r, c)];
            let y = target[(r, c)];
            loss += z.max(0.0) - z * y + (1.0 + (-z.abs()).exp()).ln();
            let sig = 1.0 / (1.0 + (-z).exp());
            grad[(r, c)] = (sig - y) / n;
        }
    }
    (loss / n, grad)
}

/// The old `Mlp::fit` over `layers`.
fn old_mlp_fit(
    layers: &mut [OldDense],
    x: &Matrix,
    epochs: usize,
    batch_size: usize,
    lr: f64,
    rng: &mut impl Rng,
    mut loss_fn: impl FnMut(&Matrix, &[usize]) -> (f64, Matrix),
) -> f64 {
    let mut opt = OldAdam::new(lr);
    let mut order: Vec<usize> = (0..x.rows()).collect();
    let mut last_epoch_loss = 0.0;
    for _ in 0..epochs {
        order.shuffle(rng);
        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        for chunk in order.chunks(batch_size) {
            let mut h = Matrix::from_fn(chunk.len(), x.cols(), |r, c| x[(chunk[r], c)]);
            for layer in layers.iter_mut() {
                h = layer.forward(&h);
            }
            let (loss, mut g) = loss_fn(&h, chunk);
            for layer in layers.iter_mut().rev() {
                g = layer.backward(&g);
            }
            for (i, layer) in layers.iter_mut().enumerate() {
                opt.step_layer(2 * i, layer);
            }
            epoch_loss += loss;
            batches += 1;
        }
        last_epoch_loss = epoch_loss / batches.max(1) as f64;
    }
    last_epoch_loss
}

/// The old `DiscrepancyPredictor::fit`, from the weights of `predictor`.
/// Returns the final-epoch loss and every layer after training, trunk
/// first, then the task head and the discrepancy head.
fn old_predictor_fit(
    predictor: &DiscrepancyPredictor,
    features: &Matrix,
    task_labels: &[f64],
    dis_labels: &[f64],
    rng: &mut impl Rng,
) -> (f64, Vec<OldDense>) {
    let config = predictor.config().clone();
    let mut layers: Vec<OldDense> = predictor.layers().map(OldDense::of).collect();
    let trunk_len = layers.len() - 2;
    let (trunk, heads) = layers.split_at_mut(trunk_len);
    let [task_head, dis_head] = heads else { unreachable!("two heads") };
    let mut opt = OldAdam::new(config.lr);
    let mut order: Vec<usize> = (0..features.rows()).collect();
    let mut last = 0.0;
    for _ in 0..config.epochs {
        order.shuffle(rng);
        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        for chunk in order.chunks(config.batch_size) {
            let mut h =
                Matrix::from_fn(chunk.len(), features.cols(), |r, c| features[(chunk[r], c)]);
            for layer in trunk.iter_mut() {
                h = layer.forward(&h);
            }
            let task_out = task_head.forward(&h);
            let dis_out = dis_head.forward(&h);
            let t_target = Matrix::from_fn(chunk.len(), 1, |r, _| task_labels[chunk[r]]);
            let d_target = Matrix::from_fn(chunk.len(), 1, |r, _| dis_labels[chunk[r]]);
            let (task_l, task_g) = match config.task_loss {
                TaskLoss::Binary => old_bce_with_logits(&task_out, &t_target),
                TaskLoss::Regression => old_mse(&task_out, &t_target),
            };
            let (dis_l, dis_g) = old_mse(&dis_out, &d_target);
            let g_from_task = task_head.backward(&task_g);
            let g_from_dis = dis_head.backward(&dis_g.map(|g| g * config.lambda));
            let mut g = &g_from_task + &g_from_dis;
            for layer in trunk.iter_mut().rev() {
                g = layer.backward(&g);
            }
            for (i, layer) in trunk.iter_mut().enumerate() {
                opt.step_layer(2 * i, layer);
            }
            opt.step_layer(1_000_000, task_head);
            opt.step_layer(2_000_000, dis_head);
            epoch_loss += task_l + config.lambda * dis_l;
            batches += 1;
        }
        last = epoch_loss / batches.max(1) as f64;
    }
    (last, layers)
}

/// A loss callback's result from the current loss and from the old one.
type BothLosses = ((f64, Matrix), (f64, Matrix));

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn assert_same_weights<'a>(new: impl Iterator<Item = &'a Dense>, old: &[OldDense]) {
    let new: Vec<&Dense> = new.collect();
    assert_eq!(new.len(), old.len(), "layer count");
    for (i, (new, old)) in new.iter().zip(old).enumerate() {
        assert_eq!(bits(&new.w), bits(&old.w), "layer {i} weights");
        assert_eq!(bits(&new.b), bits(&old.b), "layer {i} biases");
    }
}

/// Features in `[-1, 1)` with exact zeros sprinkled in, and labels.
fn history(n: usize, dim: usize, seed: u64) -> (Matrix, Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let features = Matrix::from_fn(n, dim, |_, _| {
        if rng.random_range(0.0..1.0) < 0.2 {
            0.0
        } else {
            rng.random_range(-1.0..1.0)
        }
    });
    let task = (0..n).map(|r| f64::from(features[(r, 0)] > 0.0)).collect();
    let dis = (0..n).map(|r| (features[(r, 1)] + 1.0) / 2.0).collect();
    (features, task, dis)
}

/// Trains one predictor both ways from the same weights and RNG state.
fn predictor_matches_the_oracle(
    task_loss: TaskLoss,
    n: usize,
    edit: impl FnOnce(&mut DiscrepancyPredictor),
) {
    let (features, task, dis) = history(n, 6, n as u64);
    let config = PredictorConfig { epochs: 7, ..PredictorConfig::default_for(6, task_loss) };
    let mut rng = StdRng::seed_from_u64(3);
    let mut predictor = DiscrepancyPredictor::new(config, &mut rng);
    edit(&mut predictor);
    let (old_loss, old_layers) =
        old_predictor_fit(&predictor, &features, &task, &dis, &mut rng.clone());
    let loss = predictor.fit(&features, &task, &dis, &mut rng);
    assert_eq!(loss.to_bits(), old_loss.to_bits(), "final-epoch loss");
    assert_same_weights(predictor.layers(), &old_layers);
}

#[test]
fn predictor_fit_is_the_old_step_bit_for_bit_under_both_losses() {
    // 203 rows: the last of each epoch's batches holds 11.
    predictor_matches_the_oracle(TaskLoss::Binary, 203, |_| {});
    predictor_matches_the_oracle(TaskLoss::Regression, 203, |_| {});
}

#[test]
fn predictor_fit_is_the_old_step_bit_for_bit_with_a_dead_relu_unit() {
    predictor_matches_the_oracle(TaskLoss::Binary, 96, |predictor| {
        // The first trunk unit never fires: its outputs and δs are all zero.
        let first = predictor.layers_mut().next().expect("a trunk layer");
        first.b[(0, 0)] = -1e3;
    });
}

#[test]
fn mlp_fit_is_the_old_step_bit_for_bit_in_the_gating_and_stacking_shapes() {
    let (features, _, _) = history(150, 9, 5);
    // Gating: one sigmoid-logit per model, BCE against agreement targets.
    let targets = Matrix::from_fn(150, 3, |r, c| f64::from(features[(r, c)] > 0.1));
    let gating_loss = |pred: &Matrix, idx: &[usize]| {
        let t = Matrix::from_fn(idx.len(), 3, |r, c| targets[(idx[r], c)]);
        (crate::loss::bce_with_logits(pred, &t), old_bce_with_logits(pred, &t))
    };
    // Stacking: softmax cross-entropy over two classes.
    let classes: Vec<usize> = (0..150).map(|r| usize::from(features[(r, 2)] > 0.0)).collect();
    let stacking_loss = |pred: &Matrix, idx: &[usize]| {
        let batch: Vec<usize> = idx.iter().map(|&i| classes[i]).collect();
        let out = softmax_ce_with_logits(pred, &batch);
        (out.clone(), out)
    };
    for (dims, epochs, loss) in [
        (&[9, 32, 16, 3][..], 6, &gating_loss as &dyn Fn(&Matrix, &[usize]) -> BothLosses),
        (&[9, 16, 2][..], 5, &stacking_loss),
    ] {
        let mut rng = StdRng::seed_from_u64(17);
        let mut net = Mlp::new(dims, Activation::Relu, Activation::Identity, &mut rng);
        let mut old_layers: Vec<OldDense> = net.layers().iter().map(OldDense::of).collect();
        let old_loss =
            old_mlp_fit(&mut old_layers, &features, epochs, 32, 0.01, &mut rng.clone(), |p, i| {
                loss(p, i).1
            });
        let mut opt = NewAdam::new(0.01);
        let new_loss = net.fit(&features, epochs, 32, &mut opt, &mut rng, |p, i| loss(p, i).0);
        assert_eq!(new_loss.to_bits(), old_loss.to_bits(), "{dims:?} final-epoch loss");
        assert_same_weights(net.layers().iter(), &old_layers);
    }
}

#[test]
fn adam_is_the_indexed_loop_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(8);
    let mut new = NewAdam::new(0.03);
    let mut old = OldAdam::new(0.03);
    let mut p_new = Matrix::from_fn(5, 7, |_, _| rng.random_range(-1.0..1.0));
    let mut p_old = p_new.clone();
    for _ in 0..50 {
        let g = Matrix::from_fn(5, 7, |_, _| rng.random_range(-2.0..2.0));
        new.step(4, &mut p_new, &g);
        old.step(4, &mut p_old, &g);
    }
    assert_eq!(bits(&p_new), bits(&p_old));
}
