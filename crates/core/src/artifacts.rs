//! Offline-trained artifacts shared by pipeline runs.
//!
//! Everything Schemble learns before serving — calibration temperatures, the
//! discrepancy scorer, the accuracy profile and the score-prediction network
//! — is fitted once on *historical* data (yesterday's queries) and reused
//! across the deadline sweeps of an experiment. [`SchembleArtifacts`]
//! packages that training step.

use crate::discrepancy::{DifficultyMetric, DiscrepancyScorer};
use crate::pipeline::schemble::SchembleConfig;
use crate::predictor::{train_score_predictor, OnlineScorer};
use crate::profiling::AccuracyProfile;
use crate::scheduler::DpScheduler;
use schemble_models::{Ensemble, SampleGenerator};
use schemble_nn::DiscrepancyPredictor;
use schemble_sim::rng::stream_rng;
use schemble_tensor::stats::mean;

/// The trained state of one Schemble deployment.
#[derive(Debug, Clone)]
pub struct SchembleArtifacts {
    /// The offline (oracle) difficulty scorer.
    pub scorer: DiscrepancyScorer,
    /// The per-bin subset reward table.
    pub profile: AccuracyProfile,
    /// The online score predictor.
    pub predictor: DiscrepancyPredictor,
    /// Mean historical score — the constant used by the `Schemble(t)`
    /// ablation.
    pub mean_score: f64,
    /// The metric the artifacts were built around.
    pub metric: DifficultyMetric,
}

impl SchembleArtifacts {
    /// Trains artifacts with explicit sizes.
    ///
    /// `history_ids` start at a high offset so serving workloads (ids from 0)
    /// never overlap the training data.
    pub fn build(
        ensemble: &Ensemble,
        generator: &SampleGenerator,
        history_n: usize,
        bins: usize,
        metric: DifficultyMetric,
        seed: u64,
    ) -> Self {
        const HISTORY_OFFSET: u64 = 1 << 40;
        let history = generator.batch(HISTORY_OFFSET, history_n);
        let scorer = DiscrepancyScorer::fit(ensemble, &history, metric);
        let scores = scorer.score_batch(ensemble, &history);
        let profile = AccuracyProfile::fit(ensemble, &history, &scores, bins);
        let mut rng = stream_rng(seed, "artifacts-predictor");
        let predictor = train_score_predictor(ensemble, &history, &scores, &mut rng);
        let mean_score = mean(&scores);
        Self { scorer, profile, predictor, mean_score, metric }
    }

    /// Paper-default sizes (2 000 historical samples, 10 bins, discrepancy
    /// metric).
    pub fn build_default(ensemble: &Ensemble, generator: &SampleGenerator, seed: u64) -> Self {
        Self::build(
            ensemble,
            generator,
            2000,
            AccuracyProfile::DEFAULT_BINS,
            DifficultyMetric::Discrepancy,
            seed,
        )
    }

    /// The paper-default pipeline over these artifacts: DP scheduler
    /// (δ = 0.01), the trained score predictor, the fitted profile.
    pub fn pipeline(&self) -> SchembleConfig {
        SchembleConfig::new(
            Box::new(DpScheduler::default()),
            OnlineScorer::Predictor(self.predictor.clone()),
            self.profile.clone(),
        )
    }

    /// Small/fast variant for tests.
    pub fn build_small(ensemble: &Ensemble, generator: &SampleGenerator, seed: u64) -> Self {
        Self::build(ensemble, generator, 600, 8, DifficultyMetric::Discrepancy, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemble_data::TaskKind;

    #[test]
    fn artifacts_fit_together() {
        let task = TaskKind::TextMatching;
        let ens = task.ensemble(1);
        let gen = task.default_generator(1);
        let art = SchembleArtifacts::build_small(&ens, &gen, 9);
        assert_eq!(art.profile.m(), ens.m());
        assert!((0.0..=1.0).contains(&art.mean_score));
        // Predictor and scorer must be usable on fresh samples.
        let s = gen.sample(123_456);
        let predicted = art.predictor.predict_score(&s.features);
        let truth = art.scorer.score(&ens, &s);
        assert!((0.0..=1.0).contains(&predicted));
        assert!((0.0..=1.0).contains(&truth));
    }

    #[test]
    fn ea_variant_uses_agreement_metric() {
        let task = TaskKind::TextMatching;
        let ens = task.ensemble(1);
        let gen = task.default_generator(1);
        let art =
            SchembleArtifacts::build(&ens, &gen, 400, 8, DifficultyMetric::EnsembleAgreement, 9);
        assert_eq!(art.metric, DifficultyMetric::EnsembleAgreement);
    }
}
