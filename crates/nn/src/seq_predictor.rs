//! MV-LSTM-style sequence predictor (§V-C, text modality).
//!
//! The paper's text-matching difficulty predictor runs an efficient LSTM
//! matcher and maps the concatenation of its *final* output and
//! *intermediate* outputs to the discrepancy score. This wrapper mirrors
//! that: the flat feature vector is read as a sequence of fixed-width
//! chunks (standing in for token embeddings), an [`Lstm`] encodes it, and
//! two dense heads over `[h_last ‖ mean_t h_t]` emit the task output and
//! the discrepancy score, trained with the Eq. 2 weighted loss.

use crate::dense::{Activation, Dense};
use crate::loss::{bce_with_logits, mse};
use crate::lstm::Lstm;
use crate::optim::{Adam, Optimizer};
use crate::predictor::TaskLoss;
use rand::seq::SliceRandom;
use rand::Rng;
use schemble_tensor::Matrix;

/// Hyperparameters of the sequence predictor.
#[derive(Debug, Clone)]
pub struct SeqPredictorConfig {
    /// Flat feature dimension (must be divisible by `chunk`).
    pub input_dim: usize,
    /// Width of each pseudo-token chunk.
    pub chunk: usize,
    /// LSTM hidden size.
    pub hidden: usize,
    /// Task-head loss.
    pub task_loss: TaskLoss,
    /// Eq. 2 weight λ.
    pub lambda: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
}

impl SeqPredictorConfig {
    /// Defaults matching the MLP predictor's capacity class.
    pub fn default_for(input_dim: usize, task_loss: TaskLoss) -> Self {
        // Pick the largest chunk ≤ 4 dividing the input.
        let chunk =
            (1..=4usize.min(input_dim)).rev().find(|&c| input_dim.is_multiple_of(c)).unwrap_or(1);
        Self { input_dim, chunk, hidden: 12, task_loss, lambda: 0.2, epochs: 30, lr: 0.01 }
    }
}

/// The trained MV-LSTM-style predictor.
#[derive(Debug, Clone)]
pub struct SequencePredictor {
    lstm: Lstm,
    task_head: Dense,
    dis_head: Dense,
    config: SeqPredictorConfig,
}

impl SequencePredictor {
    /// An untrained predictor.
    ///
    /// # Panics
    /// Panics if `input_dim` is not divisible by `chunk`.
    pub fn new(config: SeqPredictorConfig, rng: &mut impl Rng) -> Self {
        assert_eq!(
            config.input_dim % config.chunk,
            0,
            "input_dim {} not divisible by chunk {}",
            config.input_dim,
            config.chunk
        );
        let lstm = Lstm::new(config.chunk, config.hidden, rng);
        // Heads read [h_last ‖ mean_t h_t].
        let task_head = Dense::new(2 * config.hidden, 1, Activation::Identity, rng);
        let dis_head = Dense::new(2 * config.hidden, 1, Activation::Sigmoid, rng);
        Self { lstm, task_head, dis_head, config }
    }

    fn to_sequence(&self, features: &[f64]) -> Vec<Vec<f64>> {
        features.chunks(self.config.chunk).map(|c| c.to_vec()).collect()
    }

    fn encode(&mut self, features: &[f64]) -> (Vec<Vec<f64>>, Vec<f64>) {
        let seq = self.to_sequence(features);
        let outs = self.lstm.forward(&seq);
        (outs.clone(), pooled(&outs))
    }

    /// Trains on historical data (one sample per step — the sequences are
    /// short, so per-sample SGD converges quickly). Returns the final-epoch
    /// average combined loss.
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
        const LSTM_KEYS: usize = 0;
        const TASK_KEYS: usize = 1_000_000;
        const DIS_KEYS: usize = 2_000_000;
        let t_steps = self.config.input_dim / self.config.chunk;
        for _ in 0..self.config.epochs {
            order.shuffle(rng);
            let mut epoch_loss = 0.0;
            for &idx in &order {
                let (outs, feat) = self.encode(features.row(idx));
                let feat_m = Matrix::row_vector(&feat);
                let task_out = self.task_head.forward(&feat_m);
                let dis_out = self.dis_head.forward(&feat_m);
                let t_target = Matrix::row_vector(&[task_labels[idx]]);
                let d_target = Matrix::row_vector(&[dis_labels[idx]]);
                let (task_l, task_g) = match self.config.task_loss {
                    TaskLoss::Binary => bce_with_logits(task_out, &t_target),
                    TaskLoss::Regression => mse(task_out, &t_target),
                };
                let (dis_l, dis_g) = mse(dis_out, &d_target);
                let g_task = self.task_head.backward(&task_g);
                let g_dis = self.dis_head.backward(&dis_g.map(|g| g * self.config.lambda));
                let g_feat = g_task + g_dis;
                // Split [h_last ‖ mean] gradient back across the steps.
                let h = self.config.hidden;
                let mut grad_h = vec![vec![0.0f64; h]; outs.len()];
                for j in 0..h {
                    *grad_h.last_mut().expect("non-empty").get_mut(j).expect("width") +=
                        g_feat[(0, j)];
                }
                for step in grad_h.iter_mut() {
                    for j in 0..h {
                        step[j] += g_feat[(0, h + j)] / t_steps as f64;
                    }
                }
                self.lstm.backward(&grad_h);
                self.lstm.apply_grads(&mut opt, LSTM_KEYS);
                opt.step(TASK_KEYS, &mut self.task_head.w, &self.task_head.grad_w);
                opt.step(TASK_KEYS + 1, &mut self.task_head.b, &self.task_head.grad_b);
                self.task_head.zero_grad();
                opt.step(DIS_KEYS, &mut self.dis_head.w, &self.dis_head.grad_w);
                opt.step(DIS_KEYS + 1, &mut self.dis_head.b, &self.dis_head.grad_b);
                self.dis_head.zero_grad();
                epoch_loss += task_l + self.config.lambda * dis_l;
            }
            last = epoch_loss / n as f64;
        }
        last
    }

    /// Predicts the discrepancy score for one feature vector.
    pub fn predict_score(&self, features: &[f64]) -> f64 {
        let outs = self.lstm.infer(&self.to_sequence(features));
        let feat = pooled(&outs);
        self.dis_head.infer(&Matrix::row_vector(&feat))[(0, 0)]
    }

    /// Batched [`SequencePredictor::predict_score`]: one row per sample.
    ///
    /// The LSTM is inherently sequential per sample, but the pooled features
    /// of the whole batch go through `dis_head` in a single matmul. Each
    /// output row is bit-identical to the per-sample path (matmul rows are
    /// independent and elementwise ops commute with batching) — a test pins
    /// exact `f64` equality.
    pub fn predict_scores(&self, features: &Matrix) -> Vec<f64> {
        let n = features.rows();
        let mut feats = Matrix::zeros(n, 2 * self.config.hidden);
        for r in 0..n {
            let outs = self.lstm.infer(&self.to_sequence(features.row(r)));
            feats.row_mut(r).copy_from_slice(&pooled(&outs));
        }
        let out = self.dis_head.infer(&feats);
        (0..n).map(|r| out[(r, 0)]).collect()
    }

    /// Trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.lstm.param_count() + self.task_head.param_count() + self.dis_head.param_count()
    }
}

/// `[h_last ‖ mean_t h_t]`.
fn pooled(outs: &[Vec<f64>]) -> Vec<f64> {
    let h = outs.last().expect("non-empty sequence").len();
    let mut feat = Vec::with_capacity(2 * h);
    feat.extend_from_slice(outs.last().expect("non-empty"));
    for j in 0..h {
        feat.push(outs.iter().map(|o| o[j]).sum::<f64>() / outs.len() as f64);
    }
    feat
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use schemble_tensor::stats::pearson;

    #[test]
    fn predicts_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        let p =
            SequencePredictor::new(SeqPredictorConfig::default_for(12, TaskLoss::Binary), &mut rng);
        for _ in 0..30 {
            use rand::Rng;
            let f: Vec<f64> = (0..12).map(|_| rng.random_range(-3.0..3.0)).collect();
            let s = p.predict_score(&f);
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn learns_difficulty_from_sequence_features() {
        let mut rng = StdRng::seed_from_u64(5);
        use rand::Rng;
        let n = 400;
        let dim = 12;
        let mut features = Matrix::zeros(n, dim);
        let mut dis = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for r in 0..n {
            let z: f64 = rng.random_range(0.0..1.0);
            features[(r, 0)] = z + rng.random_range(-0.05..0.05);
            features[(r, 4)] = 1.0 - z + rng.random_range(-0.05..0.05);
            for c in [1, 2, 3, 5, 6, 7, 8, 9, 10, 11] {
                features[(r, c)] = rng.random_range(-0.5..0.5);
            }
            dis.push(z);
            labels.push(f64::from(z > 0.5));
        }
        let cfg = SeqPredictorConfig {
            epochs: 40,
            ..SeqPredictorConfig::default_for(dim, TaskLoss::Binary)
        };
        let mut p = SequencePredictor::new(cfg, &mut rng);
        p.fit(&features, &labels, &dis, &mut rng);
        let predicted: Vec<f64> = (0..n).map(|r| p.predict_score(features.row(r))).collect();
        let corr = pearson(&predicted, &dis);
        assert!(corr > 0.8, "sequence predictor correlation too low: {corr:.3}");
    }

    #[test]
    fn batched_scores_are_bit_identical_to_single() {
        let mut rng = StdRng::seed_from_u64(8);
        let p =
            SequencePredictor::new(SeqPredictorConfig::default_for(12, TaskLoss::Binary), &mut rng);
        use rand::Rng;
        let batch = Matrix::from_fn(9, 12, |_, _| rng.random_range(-3.0..3.0));
        let batched = p.predict_scores(&batch);
        for (r, score) in batched.iter().enumerate() {
            let single = p.predict_score(batch.row(r));
            assert_eq!(single.to_bits(), score.to_bits(), "row {r} diverged");
        }
    }

    #[test]
    fn chunking_covers_input() {
        let cfg = SeqPredictorConfig::default_for(12, TaskLoss::Binary);
        assert_eq!(cfg.chunk, 4);
        let cfg = SeqPredictorConfig::default_for(7, TaskLoss::Binary);
        assert_eq!(cfg.chunk, 1);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn invalid_chunk_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = SeqPredictorConfig {
            chunk: 5,
            ..SeqPredictorConfig::default_for(12, TaskLoss::Binary)
        };
        let _ = SequencePredictor::new(cfg, &mut rng);
    }
}
