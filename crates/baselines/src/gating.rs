//! The gating-network baseline (§II, §V-C, Fig. 2d).
//!
//! A network takes the query's features and emits one weight per base model;
//! training regresses each model's per-query *correctness* (agreement with
//! the ensemble) — "the gating network is trying to estimate whether
//! d(f(x;θ_k), E(x)) is large for every k". At inference, models whose gate
//! weight clears a threshold are selected.
//!
//! The paper's analysis predicts this baseline struggles: per-model
//! correctness is dominated by seed-dependent idiosyncratic noise the
//! features cannot explain, so the gate learns something close to each
//! model's *average* accuracy and "outputs similar weights for all samples".

use rand::Rng;
use schemble_core::pipeline::SelectionPolicy;
use schemble_data::Query;
use schemble_models::{Ensemble, ModelSet, Sample};
use schemble_nn::loss::bce_with_logits;
use schemble_nn::optim::Adam;
use schemble_nn::{Activation, Mlp};
use schemble_tensor::Matrix;

/// The trained gating selector.
#[derive(Debug, Clone)]
pub struct GatingSelector {
    gate: Mlp,
    /// Models with `σ(gate_k) ≥ threshold · max_k σ(gate_k)` are selected.
    pub relative_threshold: f64,
}

impl GatingSelector {
    /// Default relative threshold.
    pub const DEFAULT_THRESHOLD: f64 = 0.97;

    /// Trains the gate on historical samples (correctness vs the ensemble).
    pub fn fit(ensemble: &Ensemble, history: &[Sample], rng: &mut impl Rng) -> Self {
        assert!(!history.is_empty(), "cannot fit gating on empty history");
        let m = ensemble.m();
        let feat_dim = history[0].features.len();
        // Targets: 1 when model k agrees with the ensemble on the sample.
        let targets: Vec<Vec<f64>> = history
            .iter()
            .map(|s| {
                let reference = ensemble.ensemble_output(s);
                ensemble
                    .infer_all(s)
                    .iter()
                    .map(|o| f64::from(o.agrees_with(&reference, &ensemble.spec)))
                    .collect()
            })
            .collect();
        let features = Matrix::from_rows(feat_dim, history.iter().map(|s| s.features.as_slice()));
        // Same architecture family as the discrepancy predictor (§VIII).
        let mut gate =
            Mlp::new(&[feat_dim, 32, 16, m], Activation::Relu, Activation::Identity, rng);
        let mut opt = Adam::new(0.01);
        gate.fit(&features, 60, 32, &mut opt, rng, |pred, idx| {
            let t = Matrix::from_fn(idx.len(), m, |r, c| targets[idx[r]][c]);
            bce_with_logits(pred, &t)
        });
        Self { gate, relative_threshold: Self::DEFAULT_THRESHOLD }
    }

    /// Gate weights (σ of the logits) for a feature vector.
    pub fn weights(&self, features: &[f64]) -> Vec<f64> {
        self.gate.infer_one(features).into_iter().map(|z| 1.0 / (1.0 + (-z).exp())).collect()
    }

    /// The subset selected for a feature vector.
    pub fn select_for(&self, features: &[f64]) -> ModelSet {
        let w = self.weights(features);
        let best = w.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut set = ModelSet::EMPTY;
        for (k, &wk) in w.iter().enumerate() {
            if wk >= best * self.relative_threshold {
                set = set.with(k);
            }
        }
        if set.is_empty() {
            set = ModelSet::singleton(0);
        }
        set
    }
}

impl SelectionPolicy for GatingSelector {
    fn select(&mut self, query: &Query, _ensemble: &Ensemble) -> ModelSet {
        self.select_for(&query.sample.features)
    }
    fn name(&self) -> String {
        "Gating".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemble_data::TaskKind;
    use schemble_sim::rng::stream_rng;
    use schemble_tensor::stats::{mean, std_dev};

    fn fixture() -> (Ensemble, Vec<Sample>, GatingSelector) {
        let task = TaskKind::TextMatching;
        let ens = task.ensemble(1);
        let gen = task.default_generator(1);
        let history = gen.batch(0, 1000);
        let mut rng = stream_rng(3, "gating");
        let gate = GatingSelector::fit(&ens, &history, &mut rng);
        (ens, history, gate)
    }

    #[test]
    fn selects_nonempty_sets() {
        let (_, history, gate) = fixture();
        for s in history.iter().take(200) {
            assert!(!gate.select_for(&s.features).is_empty());
        }
    }

    #[test]
    fn gate_weights_track_average_model_quality() {
        let (ens, history, gate) = fixture();
        let m = ens.m();
        let mut avg = vec![0.0f64; m];
        for s in &history {
            for (a, w) in avg.iter_mut().zip(gate.weights(&s.features)) {
                *a += w;
            }
        }
        for a in &mut avg {
            *a /= history.len() as f64;
        }
        assert!(avg[2] > avg[0], "BERT weight {:.3} should beat BiLSTM {:.3}", avg[2], avg[0]);
    }

    #[test]
    fn gate_outputs_have_low_per_query_variance() {
        // The §V-C phenomenon: preferences are unlearnable from features, so
        // the gate's weights vary little across queries relative to their
        // mean level.
        let (_, history, gate) = fixture();
        let w0: Vec<f64> = history.iter().take(400).map(|s| gate.weights(&s.features)[2]).collect();
        let spread = std_dev(&w0);
        let level = mean(&w0);
        assert!(
            spread < 0.35 * level.max(0.1),
            "gate weight spread {spread:.3} suspiciously high vs level {level:.3}"
        );
    }

    #[test]
    fn deterministic_per_features() {
        let (_, history, gate) = fixture();
        let s = &history[0];
        assert_eq!(gate.select_for(&s.features), gate.select_for(&s.features));
    }
}
