//! Offline-trained artifacts shared by pipeline runs.
//!
//! Everything Schemble learns before serving — calibration temperatures, the
//! discrepancy scorer, the accuracy profile and the score-prediction network
//! — is fitted once on *historical* data (yesterday's queries) and reused
//! across the deadline sweeps of an experiment. [`SchembleArtifacts`]
//! packages that training step.

use crate::discrepancy::{DifficultyMetric, DiscrepancyScorer};
use crate::history::{workers, HistoryPass, HistoryRows};
use crate::pipeline::schemble::SchembleConfig;
use crate::pipeline::ResultAssembler;
use crate::predictor::{task_loss, train_on_labels, OnlineScorer, DEFAULT_LAMBDA};
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
    /// Trains artifacts with explicit sizes, on every core.
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
        Self::build_on(workers(), ensemble, generator, history_n, bins, metric, seed)
    }

    /// [`SchembleArtifacts::build`] on `workers` threads, in two passes over
    /// the history: the calibration pass infers one model at a time, then
    /// one [`HistoryPass`] infers every model once per sample and yields the
    /// scorer's distances, the profile's agreement masks and the predictor's
    /// task labels together. The history's scores come from the scorer fit
    /// itself. Nothing depends on `workers`.
    fn build_on(
        workers: usize,
        ensemble: &Ensemble,
        generator: &SampleGenerator,
        history_n: usize,
        bins: usize,
        metric: DifficultyMetric,
        seed: u64,
    ) -> Self {
        const HISTORY_OFFSET: u64 = 1 << 40;
        let history = generator.batch(HISTORY_OFFSET, history_n);
        let m = ensemble.m();
        let calibration = DiscrepancyScorer::calibration_for(workers, ensemble, &history, metric);
        let pass = HistoryPass {
            ensemble,
            distances: Some((&calibration, metric)),
            agreement: Some((&ResultAssembler::Direct, m)),
            labels: true,
        };
        let HistoryRows { distances, masks, labels } = pass.run(workers, &history);
        // Each table is dropped once read, before training allocates.
        let (scorer, scores) =
            DiscrepancyScorer::from_distances(metric, calibration, m, &distances);
        drop(distances);
        let profile = AccuracyProfile::from_masks(ensemble, &scores, &masks, bins, m);
        drop(masks);
        let mut rng = stream_rng(seed, "artifacts-predictor");
        let predictor = train_on_labels(
            &history,
            task_loss(&ensemble.spec),
            &labels,
            &scores,
            DEFAULT_LAMBDA,
            &mut rng,
        );
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
    use schemble_models::{zoo, DifficultyDist, Sample};

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

    /// FNV-1a over the bits of everything a build fits: temperatures, mean
    /// score, every history score, every profile row and bin count, and the
    /// predictor's score on every history sample.
    fn fingerprint(art: &SchembleArtifacts, ens: &Ensemble, history: &[Sample]) -> u64 {
        let profile = &art.profile;
        let mut values: Vec<f64> =
            (0..ens.m()).map(|k| art.scorer.calibration().temperature(k)).collect();
        values.push(art.mean_score);
        values.extend(history.iter().map(|s| art.scorer.score(ens, s)));
        for b in 0..profile.bins() {
            values.extend(profile.utility_vector((b as f64 + 0.5) / profile.bins() as f64).iter());
            values.push(profile.bin_count(b) as f64);
        }
        values.extend(history.iter().map(|s| art.predictor.predict_score(&s.features)));
        values.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, v| {
            v.to_bits()
                .to_le_bytes()
                .iter()
                .fold(hash, |h, &byte| (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3))
        })
    }

    #[test]
    fn the_build_does_not_depend_on_the_worker_count() {
        // 301 samples split unevenly over every worker count tried.
        let n = 301;
        let ensembles = [zoo::cifar_zoo(4, 2), zoo::text_matching(2), zoo::vehicle_counting(2)];
        for ens in &ensembles {
            let gen = SampleGenerator::new(ens.spec, DifficultyDist::Uniform, 3);
            let history = gen.batch(1 << 40, n);
            let prints: Vec<u64> = [1, 2, 3, 7]
                .iter()
                .map(|&w| {
                    let art = SchembleArtifacts::build_on(
                        w,
                        ens,
                        &gen,
                        n,
                        8,
                        DifficultyMetric::Discrepancy,
                        5,
                    );
                    fingerprint(&art, ens, &history)
                })
                .collect();
            assert!(prints.iter().all(|&p| p == prints[0]), "{:?}: {prints:x?}", ens.spec);
        }
    }
}
