//! The two-headed discrepancy-score predictor (paper §V-C, Eq. 2).
//!
//! A shared trunk feeds two heads: the first predicts the *original task*
//! output (with the ensemble's output used as the label — "we regard the
//! ensemble's output as the label"), the second regresses the discrepancy
//! score. Training minimises the weighted loss
//!
//! ```text
//! Loss = l(label, out₁) + λ · MSE(dis, out₂)
//! ```
//!
//! The paper found that keeping the task head improves discrepancy
//! prediction ("sample difficulty is closely related to what we expect to
//! derive from the sample"); only the discrepancy head is used at inference
//! time.

use crate::dense::{Activation, Dense};
use crate::loss::{bce_with_logits_into, mse_into};
use crate::mlp::Mlp;
use crate::optim::{Adam, Optimizer};
use rand::seq::SliceRandom;
use rand::Rng;
use schemble_tensor::Matrix;

/// Loss used by the task head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskLoss {
    /// Binary classification (text matching): BCE on logits.
    Binary,
    /// Regression (vehicle counting, retrieval scores): MSE.
    Regression,
}

/// Hyperparameters of the predictor.
#[derive(Debug, Clone)]
pub struct PredictorConfig {
    /// Feature-vector dimension.
    pub input_dim: usize,
    /// Hidden layer widths of the shared trunk.
    pub hidden: Vec<usize>,
    /// Task-head loss.
    pub task_loss: TaskLoss,
    /// Weight λ of the discrepancy MSE term (paper uses 0.2).
    pub lambda: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
}

impl PredictorConfig {
    /// The defaults used throughout the experiments: a two-hidden-layer
    /// trunk, λ = 0.2 as in the paper.
    pub fn default_for(input_dim: usize, task_loss: TaskLoss) -> Self {
        Self {
            input_dim,
            hidden: vec![32, 16],
            task_loss,
            lambda: 0.2,
            epochs: 60,
            batch_size: 32,
            lr: 0.01,
        }
    }
}

/// The trained two-headed network.
#[derive(Debug, Clone)]
pub struct DiscrepancyPredictor {
    trunk: Mlp,
    task_head: Dense,
    dis_head: Dense,
    config: PredictorConfig,
}

impl DiscrepancyPredictor {
    /// Builds an untrained predictor.
    pub fn new(config: PredictorConfig, rng: &mut impl Rng) -> Self {
        let mut dims = vec![config.input_dim];
        dims.extend_from_slice(&config.hidden);
        let trunk = Mlp::new(&dims, Activation::Relu, Activation::Relu, rng);
        let h = *dims.last().expect("non-empty dims");
        // Task head emits a logit (binary) or raw value (regression);
        // discrepancy head squashes to [0, 1] where the score lives.
        let task_head = Dense::new(h, 1, Activation::Identity, rng);
        let dis_head = Dense::new(h, 1, Activation::Sigmoid, rng);
        Self { trunk, task_head, dis_head, config }
    }

    /// Trains on historical data: `features` (one row per sample),
    /// `task_labels` (ensemble outputs) and `dis_labels` (ground-truth
    /// discrepancy scores). Returns the final-epoch average combined loss.
    ///
    /// # Panics
    /// Panics if the label slices don't match the feature row count.
    pub fn fit(
        &mut self,
        features: &Matrix,
        task_labels: &[f64],
        dis_labels: &[f64],
        rng: &mut impl Rng,
    ) -> f64 {
        let n = features.rows();
        assert_eq!(task_labels.len(), n, "task label count mismatch");
        assert_eq!(dis_labels.len(), n, "discrepancy label count mismatch");
        let mut opt = Adam::new(self.config.lr);
        let mut order: Vec<usize> = (0..n).collect();
        let mut last = 0.0;
        // Key bases keep trunk/heads from colliding in the shared optimiser:
        // the trunk uses [0, 2·layers), heads use high bases.
        const TASK_KEYS: usize = 1_000_000;
        const DIS_KEYS: usize = 2_000_000;
        let lambda = self.config.lambda;
        // Per-step buffers, sized by the first batch and reused after it.
        let mut xb = Matrix::zeros(0, features.cols());
        let mut task_g = Matrix::zeros(0, 1);
        let mut dis_g = Matrix::zeros(0, 1);
        let mut trunk_g = Matrix::zeros(0, 0);
        for _ in 0..self.config.epochs {
            order.shuffle(rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in order.chunks(self.config.batch_size) {
                xb.fill_rows(features.cols(), chunk.iter().map(|&r| features.row(r)));
                let h = self.trunk.forward(&xb);
                let task_out = self.task_head.forward(h);
                let dis_out = self.dis_head.forward(h);

                let t_target = chunk.iter().map(|&i| task_labels[i]);
                let d_target = chunk.iter().map(|&i| dis_labels[i]);
                task_g.reset(chunk.len(), 1);
                dis_g.reset(chunk.len(), 1);
                let task_l = match self.config.task_loss {
                    TaskLoss::Binary => {
                        bce_with_logits_into(task_out.as_slice(), t_target, task_g.as_mut_slice())
                    }
                    TaskLoss::Regression => {
                        mse_into(task_out.as_slice(), t_target, task_g.as_mut_slice())
                    }
                };
                let dis_l = mse_into(dis_out.as_slice(), d_target, dis_g.as_mut_slice());
                dis_g.map_inplace(|g| g * lambda);

                trunk_g.clone_from(self.task_head.backward(&task_g));
                let g_from_dis = self.dis_head.backward(&dis_g);
                for (g, &d) in trunk_g.as_mut_slice().iter_mut().zip(g_from_dis.as_slice()) {
                    *g += d;
                }
                self.trunk.backward(&trunk_g);

                self.trunk.apply_grads(&mut opt, 0);
                opt.step(TASK_KEYS, &mut self.task_head.w, &self.task_head.grad_w);
                opt.step(TASK_KEYS + 1, &mut self.task_head.b, &self.task_head.grad_b);
                self.task_head.zero_grad();
                opt.step(DIS_KEYS, &mut self.dis_head.w, &self.dis_head.grad_w);
                opt.step(DIS_KEYS + 1, &mut self.dis_head.b, &self.dis_head.grad_b);
                self.dis_head.zero_grad();

                epoch_loss += task_l + lambda * dis_l;
                batches += 1;
            }
            last = epoch_loss / batches.max(1) as f64;
        }
        last
    }

    /// Predicts the discrepancy score for a single feature vector.
    pub fn predict_score(&self, features: &[f64]) -> f64 {
        let h = self.trunk.infer(&Matrix::row_vector(features));
        self.dis_head.infer(&h)[(0, 0)]
    }

    /// Predicts discrepancy scores for a batch of feature vectors.
    pub fn predict_scores(&self, features: &Matrix) -> Vec<f64> {
        let h = self.trunk.infer(features);
        self.dis_head.infer(&h).as_slice().to_vec()
    }

    /// Parameter count — reported by the Fig. 13 overhead experiment.
    pub fn param_count(&self) -> usize {
        self.trunk.param_count() + self.task_head.param_count() + self.dis_head.param_count()
    }

    /// Memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.param_count() * std::mem::size_of::<f64>()
    }

    /// Multiply–accumulate count per inference — the latency proxy.
    pub fn flops_per_sample(&self) -> usize {
        self.trunk.flops_per_sample() + 2 * self.task_head.in_dim() + 2 * self.dis_head.in_dim()
    }

    /// Every layer: the trunk's, input first, then the task head and the
    /// discrepancy head.
    #[cfg(test)]
    pub(crate) fn layers(&self) -> impl Iterator<Item = &Dense> {
        self.trunk.layers().iter().chain([&self.task_head, &self.dis_head])
    }

    /// [`DiscrepancyPredictor::layers`], mutably.
    #[cfg(test)]
    pub(crate) fn layers_mut(&mut self) -> impl Iterator<Item = &mut Dense> {
        self.trunk.layers_mut().iter_mut().chain([&mut self.task_head, &mut self.dis_head])
    }

    /// The configuration this predictor was built with.
    pub fn config(&self) -> &PredictorConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use schemble_tensor::stats::pearson;

    /// Synthetic check: the score head must recover a smooth function of the
    /// features well enough to *rank* samples (ranking is what the scheduler
    /// consumes, via bin assignment).
    #[test]
    fn predictor_ranks_difficulty() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 600;
        let feat_dim = 6;
        let mut features = Matrix::zeros(n, feat_dim);
        let mut dis = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for r in 0..n {
            let z: f64 = rng.random_range(0.0..1.0);
            // Feature 0 and 1 carry (noisy) difficulty; rest are nuisance.
            features[(r, 0)] = z + rng.random_range(-0.08..0.08);
            features[(r, 1)] = 1.0 - z + rng.random_range(-0.08..0.08);
            for c in 2..feat_dim {
                features[(r, c)] = rng.random_range(-1.0..1.0);
            }
            dis.push(z);
            labels.push(if z > 0.5 { 1.0 } else { 0.0 });
        }
        let cfg = PredictorConfig {
            epochs: 80,
            ..PredictorConfig::default_for(feat_dim, TaskLoss::Binary)
        };
        let mut pred = DiscrepancyPredictor::new(cfg, &mut rng);
        pred.fit(&features, &labels, &dis, &mut rng);
        let scores = pred.predict_scores(&features);
        let corr = pearson(&scores, &dis);
        assert!(corr > 0.85, "predicted/true score correlation too low: {corr:.3}");
    }

    #[test]
    fn batched_scores_are_bit_identical_to_single() {
        // The engine's batched score prefetch relies on this being exact
        // equality, not approximate: matmul rows accumulate independently
        // (each output row is its own tiles' sums, in k order), so batching
        // changes no bit.
        let mut rng = StdRng::seed_from_u64(11);
        let pred =
            DiscrepancyPredictor::new(PredictorConfig::default_for(5, TaskLoss::Binary), &mut rng);
        let batch = Matrix::from_fn(17, 5, |_, _| rng.random_range(-4.0..4.0));
        let batched = pred.predict_scores(&batch);
        for (r, score) in batched.iter().enumerate() {
            let single = pred.predict_score(batch.row(r));
            assert_eq!(single.to_bits(), score.to_bits(), "row {r} diverged");
        }
    }

    #[test]
    fn scores_live_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        let pred =
            DiscrepancyPredictor::new(PredictorConfig::default_for(4, TaskLoss::Binary), &mut rng);
        for _ in 0..50 {
            let f: Vec<f64> = (0..4).map(|_| rng.random_range(-10.0..10.0)).collect();
            let s = pred.predict_score(&f);
            assert!((0.0..=1.0).contains(&s), "score {s} escaped [0,1]");
        }
    }

    #[test]
    fn fit_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 200;
        let features = Matrix::from_fn(n, 3, |_, _| rng.random_range(0.0..1.0));
        let dis: Vec<f64> = (0..n).map(|r| features[(r, 0)]).collect();
        let labels: Vec<f64> =
            (0..n).map(|r| if features[(r, 1)] > 0.5 { 1.0 } else { 0.0 }).collect();
        let short =
            PredictorConfig { epochs: 2, ..PredictorConfig::default_for(3, TaskLoss::Binary) };
        let long =
            PredictorConfig { epochs: 60, ..PredictorConfig::default_for(3, TaskLoss::Binary) };
        let mut rng_a = StdRng::seed_from_u64(10);
        let mut p_short = DiscrepancyPredictor::new(short, &mut rng_a);
        let l_short = p_short.fit(&features, &labels, &dis, &mut rng_a);
        let mut rng_b = StdRng::seed_from_u64(10);
        let mut p_long = DiscrepancyPredictor::new(long, &mut rng_b);
        let l_long = p_long.fit(&features, &labels, &dis, &mut rng_b);
        assert!(l_long < l_short, "more epochs should reduce loss: {l_long} vs {l_short}");
    }

    #[test]
    fn regression_task_head_trains() {
        let mut rng = StdRng::seed_from_u64(21);
        let n = 300;
        let features = Matrix::from_fn(n, 2, |_, _| rng.random_range(0.0..1.0));
        let task: Vec<f64> = (0..n).map(|r| 3.0 * features[(r, 0)]).collect();
        let dis: Vec<f64> = (0..n).map(|r| features[(r, 1)]).collect();
        let cfg = PredictorConfig::default_for(2, TaskLoss::Regression);
        let mut pred = DiscrepancyPredictor::new(cfg, &mut rng);
        pred.fit(&features, &task, &dis, &mut rng);
        let scores = pred.predict_scores(&features);
        assert!(pearson(&scores, &dis) > 0.8);
    }

    #[test]
    fn overhead_accounting_is_positive_and_consistent() {
        let mut rng = StdRng::seed_from_u64(2);
        let pred =
            DiscrepancyPredictor::new(PredictorConfig::default_for(8, TaskLoss::Binary), &mut rng);
        assert!(pred.param_count() > 0);
        assert_eq!(pred.memory_bytes(), pred.param_count() * 8);
        assert!(pred.flops_per_sample() > 0);
    }
}
