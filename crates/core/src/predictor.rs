//! Online difficulty estimation.
//!
//! At serving time the base models have not run yet, so the discrepancy
//! score must be *predicted* from the query's features (§V-C). Three scorers
//! cover the paper's variants:
//!
//! * [`OnlineScorer::Predictor`] — the trained two-headed network (Schemble);
//! * [`OnlineScorer::Oracle`] — the true score, computed by secretly running
//!   the base models (the `Schemble*(Oracle)` upper bound of Fig. 16);
//! * [`OnlineScorer::Constant`] — every query gets the same score
//!   (`Schemble(t)`, the no-difficulty ablation of Exp-3).

use crate::discrepancy::DiscrepancyScorer;
use crate::history::{workers, HistoryPass};
use rand::Rng;
use schemble_models::{Ensemble, Output, Sample, TaskSpec};
use schemble_nn::predictor::{PredictorConfig, TaskLoss};
use schemble_nn::DiscrepancyPredictor;
use schemble_tensor::Matrix;

/// A difficulty scorer usable at serving time.
///
/// The variants intentionally differ in size — scorers are constructed once
/// per run, never in hot loops.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum OnlineScorer {
    /// Trained MLP over query features.
    Predictor(DiscrepancyPredictor),
    /// The offline scorer run on demand (oracle ablation).
    Oracle(DiscrepancyScorer),
    /// Fixed score for every query.
    Constant(f64),
}

impl OnlineScorer {
    /// Scores one query.
    pub fn score(&self, sample: &Sample, ensemble: &Ensemble) -> f64 {
        match self {
            OnlineScorer::Predictor(nn) => nn.predict_score(&sample.features),
            OnlineScorer::Oracle(scorer) => scorer.score(ensemble, sample),
            OnlineScorer::Constant(c) => *c,
        }
    }

    /// Scores a batch of queries in one predictor forward pass.
    ///
    /// Returns one score per sample, in order, each bit-identical to what
    /// [`OnlineScorer::score`] would produce for that sample alone (pinned by
    /// a test): the NN path runs a single batched matmul whose rows are
    /// computed independently, and the oracle/constant paths are per-sample
    /// by construction. The engine uses this to prefetch scores for a window
    /// of arrivals, amortising per-forward overhead without changing any
    /// scheduling decision.
    pub fn score_batch(&self, samples: &[&Sample], ensemble: &Ensemble) -> Vec<f64> {
        if samples.is_empty() {
            return Vec::new();
        }
        match self {
            OnlineScorer::Predictor(nn) => {
                let rows = samples.iter().map(|s| s.features.as_slice());
                nn.predict_scores(&Matrix::from_rows(samples[0].features.len(), rows))
            }
            OnlineScorer::Oracle(scorer) => {
                samples.iter().map(|s| scorer.score(ensemble, s)).collect()
            }
            OnlineScorer::Constant(c) => vec![*c; samples.len()],
        }
    }

    /// Short label for experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            OnlineScorer::Predictor(_) => "predictor",
            OnlineScorer::Oracle(_) => "oracle",
            OnlineScorer::Constant(_) => "constant",
        }
    }
}

/// Eq. 2's weight λ on the discrepancy head, as the paper fixes it.
pub(crate) const DEFAULT_LAMBDA: f64 = 0.2;

/// Trains the two-headed predictor on historical samples labelled with their
/// true discrepancy scores (Eq. 2's training setup: task label = ensemble
/// output, `dis` = ground-truth score).
pub fn train_score_predictor(
    ensemble: &Ensemble,
    history: &[Sample],
    scores: &[f64],
    rng: &mut impl Rng,
) -> DiscrepancyPredictor {
    train_score_predictor_with_lambda(ensemble, history, scores, DEFAULT_LAMBDA, rng)
}

/// Like [`train_score_predictor`] with an explicit Eq. 2 weight λ — the
/// `ablation` experiment sweeps it (the paper fixes λ = 0.2).
pub fn train_score_predictor_with_lambda(
    ensemble: &Ensemble,
    history: &[Sample],
    scores: &[f64],
    lambda: f64,
    rng: &mut impl Rng,
) -> DiscrepancyPredictor {
    assert_eq!(history.len(), scores.len(), "history/scores length mismatch");
    assert!(!history.is_empty(), "cannot train predictor on empty history");
    let (task_loss, task_labels) = task_labels_for(ensemble, history);
    train_on_labels(history, task_loss, &task_labels, scores, lambda, rng)
}

/// Trains the predictor on history features against given task-head labels
/// and discrepancy scores.
pub(crate) fn train_on_labels(
    history: &[Sample],
    task_loss: TaskLoss,
    task_labels: &[f64],
    scores: &[f64],
    lambda: f64,
    rng: &mut impl Rng,
) -> DiscrepancyPredictor {
    let feat_dim = history[0].features.len();
    let features = Matrix::from_rows(feat_dim, history.iter().map(|s| s.features.as_slice()));
    let config = PredictorConfig { lambda, ..PredictorConfig::default_for(feat_dim, task_loss) };
    let mut predictor = DiscrepancyPredictor::new(config, rng);
    predictor.fit(&features, task_labels, scores, rng);
    predictor
}

/// Task-head labels per Eq. 2: the ensemble's output stands in for the
/// ground truth. Binary classification keeps the positive-class probability;
/// other categorical tasks use the ensemble's top-1 confidence; regression
/// rescales the scalar into a trainable range.
pub fn task_labels_for(ensemble: &Ensemble, history: &[Sample]) -> (TaskLoss, Vec<f64>) {
    let pass = HistoryPass { ensemble, distances: None, agreement: None, labels: true };
    (task_loss(&ensemble.spec), pass.run(workers(), history).labels)
}

/// The loss the task head trains under for `spec`.
pub(crate) fn task_loss(spec: &TaskSpec) -> TaskLoss {
    match spec {
        TaskSpec::Classification { num_classes: 2 } => TaskLoss::Binary,
        _ => TaskLoss::Regression,
    }
}

/// One sample's task-head label, from the ensemble's output on it.
pub(crate) fn task_label(spec: &TaskSpec, ensemble_output: &Output) -> f64 {
    match (spec, ensemble_output) {
        (TaskSpec::Classification { num_classes: 2 }, Output::Probs(p)) => p[1],
        (TaskSpec::Classification { .. } | TaskSpec::Retrieval { .. }, Output::Probs(p)) => {
            p.iter().cloned().fold(0.0, f64::max)
        }
        // Counts live in roughly [0, 25]; scale into [0, 1] for training.
        (TaskSpec::Regression { .. }, output) => output.value() / 25.0,
        (_, Output::Scalar(_)) => unreachable!("categorical spec"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discrepancy::DifficultyMetric;
    use schemble_models::zoo;
    use schemble_models::{DifficultyDist, SampleGenerator};
    use schemble_sim::rng::stream_rng;
    use schemble_tensor::stats::pearson;

    #[test]
    fn trained_predictor_ranks_like_the_oracle() {
        let ens = zoo::text_matching(1);
        let gen = SampleGenerator::new(ens.spec, DifficultyDist::Uniform, 5);
        let history = gen.batch(0, 1200);
        let oracle = DiscrepancyScorer::fit(&ens, &history, DifficultyMetric::Discrepancy);
        let scores = oracle.score_batch(&ens, &history);
        let mut rng = stream_rng(7, "predictor");
        let nn = train_score_predictor(&ens, &history, &scores, &mut rng);

        // Evaluate on *fresh* samples.
        let test = gen.batch(5000, 500);
        let truth = oracle.score_batch(&ens, &test);
        let predicted: Vec<f64> = test.iter().map(|s| nn.predict_score(&s.features)).collect();
        let corr = pearson(&predicted, &truth);
        assert!(corr > 0.25, "predictor/oracle correlation too weak: {corr:.3}");
    }

    #[test]
    fn online_scorer_variants() {
        let ens = zoo::text_matching(1);
        let gen = SampleGenerator::new(ens.spec, DifficultyDist::Uniform, 5);
        let history = gen.batch(0, 400);
        let oracle = DiscrepancyScorer::fit(&ens, &history, DifficultyMetric::Discrepancy);
        let s = gen.sample(999);

        let constant = OnlineScorer::Constant(0.42);
        assert_eq!(constant.score(&s, &ens), 0.42);
        assert_eq!(constant.name(), "constant");

        let oracle_scorer = OnlineScorer::Oracle(oracle.clone());
        let direct = oracle.score(&ens, &s);
        assert_eq!(oracle_scorer.score(&s, &ens), direct);
        assert_eq!(oracle_scorer.name(), "oracle");
    }

    #[test]
    fn score_batch_is_bit_identical_to_per_sample_scores() {
        let ens = zoo::text_matching(1);
        let gen = SampleGenerator::new(ens.spec, DifficultyDist::Uniform, 5);
        let history = gen.batch(0, 300);
        let oracle = DiscrepancyScorer::fit(&ens, &history, DifficultyMetric::Discrepancy);
        let truth = oracle.score_batch(&ens, &history);
        let mut rng = stream_rng(7, "predictor-batch");
        let nn = train_score_predictor(&ens, &history, &truth, &mut rng);

        let test = gen.batch(9000, 40);
        let refs: Vec<&Sample> = test.iter().collect();
        for scorer in [
            OnlineScorer::Predictor(nn),
            OnlineScorer::Oracle(oracle),
            OnlineScorer::Constant(0.37),
        ] {
            let batched = scorer.score_batch(&refs, &ens);
            assert_eq!(batched.len(), refs.len());
            for (i, s) in test.iter().enumerate() {
                let single = scorer.score(s, &ens);
                assert_eq!(
                    single.to_bits(),
                    batched[i].to_bits(),
                    "{} diverged at sample {i}",
                    scorer.name()
                );
            }
            assert!(scorer.score_batch(&[], &ens).is_empty());
        }
    }

    #[test]
    fn regression_task_labels_are_bounded() {
        let ens = zoo::vehicle_counting(1);
        let gen = SampleGenerator::new(ens.spec, DifficultyDist::Uniform, 5);
        let history = gen.batch(0, 200);
        let (loss, labels) = task_labels_for(&ens, &history);
        assert_eq!(loss, TaskLoss::Regression);
        assert!(labels.iter().all(|&l| (-0.5..=1.5).contains(&l)));
    }
}
