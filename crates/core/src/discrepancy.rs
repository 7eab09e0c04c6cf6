//! The discrepancy score (Eq. 1) and the ensemble-agreement baseline.
//!
//! For sample `x` with calibrated base-model outputs `f_k(x)` and ensemble
//! output `E(x)`:
//!
//! ```text
//! Dis(x) = (1/m) Σ_k Norm_x( d(f_k(x), E(x)) )
//! ```
//!
//! `d` is JS divergence for categorical outputs, Euclidean distance for
//! regression. `Norm` is a per-model z-score fitted on historical data so
//! that inaccurate models (whose distances are large *on average*) do not
//! dominate the sum — the paper's fix for heterogeneous ensembles. Scores are
//! finally min-max rescaled to `[0, 1]` on the fit set so they can be binned.
//!
//! The **ensemble agreement** metric (Carlini et al.) that the paper compares
//! against averages the pairwise symmetric-KL between *raw* base-model
//! outputs — no calibration, no per-model normalisation, no reference to the
//! ensemble's output. Both are implemented behind [`DifficultyMetric`] so the
//! Schemble(ea) ablation swaps cleanly.

use crate::calibration::Calibration;
use crate::history::{workers, HistoryPass};
use schemble_models::{Ensemble, Output, Sample};
use schemble_tensor::stats::{MinMax, ZScore};

/// Which difficulty metric a scorer computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DifficultyMetric {
    /// The paper's discrepancy score (Eq. 1).
    Discrepancy,
    /// The ensemble-agreement baseline (pairwise symmetric KL, uncalibrated).
    EnsembleAgreement,
}

/// A fitted difficulty scorer. Computing a score requires the base models'
/// outputs, so this is an *offline* oracle: it labels historical data for
/// predictor training and profiling, and serves as the ground-truth scorer in
/// the oracle ablations.
#[derive(Debug, Clone)]
pub struct DiscrepancyScorer {
    metric: DifficultyMetric,
    calibration: Calibration,
    /// Per-model distance normalisers (discrepancy metric only).
    norms: Vec<ZScore>,
    /// Final rescale of the averaged score into [0, 1].
    rescale: MinMax,
}

impl DiscrepancyScorer {
    /// Fits the scorer on historical samples.
    ///
    /// # Panics
    /// Panics on an empty history.
    pub fn fit(ensemble: &Ensemble, history: &[Sample], metric: DifficultyMetric) -> Self {
        let workers = workers();
        let calibration = Self::calibration_for(workers, ensemble, history, metric);
        let pass = HistoryPass {
            ensemble,
            distances: Some((&calibration, metric)),
            agreement: None,
            labels: false,
        };
        let rows = pass.run(workers, history);
        Self::from_distances(metric, calibration, ensemble.m(), &rows.distances).0
    }

    /// The calibration `metric` scores under: fitted for the discrepancy
    /// score, identity for the agreement baseline — which deliberately skips
    /// calibration, one of the two failure modes the paper identifies in it.
    ///
    /// # Panics
    /// Panics on an empty history.
    pub(crate) fn calibration_for(
        workers: usize,
        ensemble: &Ensemble,
        history: &[Sample],
        metric: DifficultyMetric,
    ) -> Calibration {
        assert!(!history.is_empty(), "cannot fit scorer on empty history");
        match metric {
            DifficultyMetric::EnsembleAgreement => Calibration::identity(ensemble.m()),
            DifficultyMetric::Discrepancy => Calibration::fit_on(workers, ensemble, history),
        }
    }

    /// Fits the normalisers and the `[0, 1]` map on the raw distances of a
    /// history (`distances[i * m + k]`, see [`HistoryPass`]), and returns
    /// the scorer with the score of every history sample — bit-equal to
    /// [`DiscrepancyScorer::score`] on it.
    pub(crate) fn from_distances(
        metric: DifficultyMetric,
        calibration: Calibration,
        m: usize,
        distances: &[f64],
    ) -> (Self, Vec<f64>) {
        let norms: Vec<ZScore> = match metric {
            DifficultyMetric::Discrepancy => (0..m)
                .map(|k| {
                    let column: Vec<f64> = distances.iter().skip(k).step_by(m).copied().collect();
                    ZScore::fit(&column)
                })
                .collect(),
            // Agreement has no per-model normalisation.
            DifficultyMetric::EnsembleAgreement => vec![ZScore { mean: 0.0, std: 1.0 }; m],
        };
        let mut scorer =
            Self { metric, calibration, norms, rescale: MinMax { min: 0.0, max: 1.0 } };
        let combined: Vec<f64> = distances.chunks_exact(m).map(|d| scorer.combine(d)).collect();
        scorer.rescale = MinMax::fit(&combined);
        let scores = combined.into_iter().map(|c| scorer.rescale.apply(c)).collect();
        (scorer, scores)
    }

    /// The metric this scorer computes.
    pub fn metric(&self) -> DifficultyMetric {
        self.metric
    }

    /// Borrow of the fitted calibration.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// Scores one sample in `[0, 1]` (runs all base models — offline only).
    pub fn score(&self, ensemble: &Ensemble, sample: &Sample) -> f64 {
        let outputs = ensemble.infer_all(sample);
        let reference = ensemble.aggregate_iter(outputs.iter().enumerate());
        let mut d = vec![0.0; outputs.len()];
        raw_distances(&self.calibration, self.metric, &outputs, &reference, &mut d);
        self.rescale.apply(self.combine(&d))
    }

    /// Scores a batch of samples, on every core.
    pub fn score_batch(&self, ensemble: &Ensemble, samples: &[Sample]) -> Vec<f64> {
        let pass = HistoryPass {
            ensemble,
            distances: Some((&self.calibration, self.metric)),
            agreement: None,
            labels: false,
        };
        let rows = pass.run(workers(), samples);
        rows.distances
            .chunks_exact(ensemble.m())
            .map(|d| self.rescale.apply(self.combine(d)))
            .collect()
    }

    /// The averaged normalised distance of one sample, before the `[0, 1]`
    /// map.
    fn combine(&self, distances: &[f64]) -> f64 {
        distances.iter().zip(&self.norms).map(|(&v, norm)| norm.apply(v)).sum::<f64>()
            / distances.len() as f64
    }
}

/// Writes into `out` the raw (pre-normalisation) per-model distances of one
/// sample, from its base-model outputs and the ensemble's output on them.
pub(crate) fn raw_distances(
    calibration: &Calibration,
    metric: DifficultyMetric,
    outputs: &[Output],
    ensemble_output: &Output,
    out: &mut [f64],
) {
    match metric {
        DifficultyMetric::Discrepancy => {
            // The ensemble output aggregates the *raw* outputs (aggregation
            // is part of the deployed model); distances use calibrated ones,
            // and the reference is calibrated with each model's own
            // temperature so both sides of the divergence live on the same
            // confidence scale.
            for (k, (o, d)) in outputs.iter().zip(out).enumerate() {
                *d = calibration.apply(k, o).distance(&calibration.apply(k, ensemble_output));
            }
        }
        DifficultyMetric::EnsembleAgreement => {
            // Mean pairwise symmetric KL of raw outputs, attributed equally
            // to each model (so the same per-model averaging code applies).
            let m = outputs.len();
            let denom = (m.max(2) - 1) as f64;
            for (i, d) in out.iter_mut().enumerate() {
                let mut total = 0.0;
                for j in (0..m).filter(|&j| j != i) {
                    total += outputs[i].agreement_distance(&outputs[j]);
                }
                *d = total / denom;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemble_models::zoo;
    use schemble_models::{DifficultyDist, SampleGenerator};
    use schemble_tensor::stats::pearson;

    fn history(n: usize) -> (Ensemble, Vec<Sample>) {
        let ens = zoo::text_matching(1);
        let gen = SampleGenerator::new(ens.spec, DifficultyDist::Uniform, 5);
        let h = gen.batch(0, n);
        (ens, h)
    }

    #[test]
    fn scores_live_in_unit_interval() {
        let (ens, h) = history(800);
        let scorer = DiscrepancyScorer::fit(&ens, &h, DifficultyMetric::Discrepancy);
        for s in &h {
            let v = scorer.score(&ens, s);
            assert!((0.0..=1.0).contains(&v), "score {v} out of range");
        }
    }

    #[test]
    fn discrepancy_tracks_latent_difficulty() {
        let (ens, h) = history(1500);
        let scorer = DiscrepancyScorer::fit(&ens, &h, DifficultyMetric::Discrepancy);
        let scores = scorer.score_batch(&ens, &h);
        let zs: Vec<f64> = h.iter().map(|s| s.difficulty).collect();
        let corr = pearson(&scores, &zs);
        assert!(corr > 0.40, "discrepancy/difficulty correlation too weak: {corr:.3}");
    }

    #[test]
    fn discrepancy_outranks_agreement_on_difficulty() {
        // The paper's core claim for the metric: with heterogeneous,
        // miscalibrated models, the normalised+calibrated discrepancy score
        // ranks samples by difficulty better than raw ensemble agreement.
        let (ens, h) = history(1500);
        let dis = DiscrepancyScorer::fit(&ens, &h, DifficultyMetric::Discrepancy);
        let ea = DiscrepancyScorer::fit(&ens, &h, DifficultyMetric::EnsembleAgreement);
        let zs: Vec<f64> = h.iter().map(|s| s.difficulty).collect();
        let c_dis = pearson(&dis.score_batch(&ens, &h), &zs);
        let c_ea = pearson(&ea.score_batch(&ens, &h), &zs);
        assert!(c_dis > c_ea, "discrepancy ({c_dis:.3}) should beat agreement ({c_ea:.3})");
    }

    #[test]
    fn easy_samples_score_low() {
        let (ens, h) = history(1000);
        let scorer = DiscrepancyScorer::fit(&ens, &h, DifficultyMetric::Discrepancy);
        let easy_gen = SampleGenerator::new(ens.spec, DifficultyDist::Fixed(0.02), 7);
        let hard_gen = SampleGenerator::new(ens.spec, DifficultyDist::Fixed(0.98), 7);
        let easy: f64 =
            scorer.score_batch(&ens, &easy_gen.batch(0, 300)).iter().sum::<f64>() / 300.0;
        let hard: f64 =
            scorer.score_batch(&ens, &hard_gen.batch(0, 300)).iter().sum::<f64>() / 300.0;
        assert!(easy + 0.1 < hard, "easy mean {easy:.3} should sit below hard mean {hard:.3}");
    }

    #[test]
    fn works_for_regression_ensembles() {
        let ens = zoo::vehicle_counting(1);
        let gen = SampleGenerator::new(ens.spec, DifficultyDist::Uniform, 5);
        let h = gen.batch(0, 800);
        let scorer = DiscrepancyScorer::fit(&ens, &h, DifficultyMetric::Discrepancy);
        let scores = scorer.score_batch(&ens, &h);
        let zs: Vec<f64> = h.iter().map(|s| s.difficulty).collect();
        assert!(pearson(&scores, &zs) > 0.4);
        assert!(scores.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn score_is_stable_across_ensemble_reseeding() {
        // Fig. 5 diagonal: discrepancy scores from re-seeded ensembles stay
        // strongly correlated, unlike per-model preferences.
        let ens_a = zoo::text_matching(100);
        let ens_b = zoo::text_matching(200);
        let gen = SampleGenerator::new(ens_a.spec, DifficultyDist::Uniform, 5);
        let h = gen.batch(0, 1000);
        let sc_a = DiscrepancyScorer::fit(&ens_a, &h, DifficultyMetric::Discrepancy);
        let sc_b = DiscrepancyScorer::fit(&ens_b, &h, DifficultyMetric::Discrepancy);
        let a = sc_a.score_batch(&ens_a, &h);
        let b = sc_b.score_batch(&ens_b, &h);
        let corr = pearson(&a, &b);
        assert!(corr > 0.15, "reseeded-ensemble score correlation too weak: {corr:.3}");
    }
}
