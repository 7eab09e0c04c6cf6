//! Per-model temperature scaling (§V-A).
//!
//! Deep networks are "discovered to be poorly calibrated"; divergences
//! between raw outputs are dominated by each model's confidence habits rather
//! than genuine disagreement. Before computing discrepancy scores, each
//! classifier's outputs are temperature-scaled with a scalar fitted on
//! historical data (Guo et al., ICML'17). Regression models need no
//! calibration and get temperature 1.

use crate::history::{par_map, runs, workers};
use schemble_models::{Ensemble, Output, Sample};
use schemble_tensor::dist::EPS;
use schemble_tensor::prob::{fit_temperature, temperature_nll};
use std::ops::Range;

/// Fitted per-model calibration temperatures.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    temps: Vec<f64>,
}

impl Calibration {
    /// Identity calibration (all temperatures 1) for `m` models.
    pub fn identity(m: usize) -> Self {
        Self { temps: vec![1.0; m] }
    }

    /// Fits one temperature per base model on historical samples, minimising
    /// NLL against the true labels.
    pub fn fit(ensemble: &Ensemble, history: &[Sample]) -> Self {
        Self::fit_on(workers(), ensemble, history)
    }

    /// [`Calibration::fit`] on `workers` threads. One model's history
    /// outputs are held at a time, as logits (`ln max(p, EPS)`); each worker
    /// infers and then scores a contiguous run of samples, and a probe's
    /// per-sample NLL terms are summed in sample order, so the temperatures
    /// do not depend on `workers`.
    pub(crate) fn fit_on(workers: usize, ensemble: &Ensemble, history: &[Sample]) -> Self {
        assert!(!history.is_empty(), "cannot calibrate on empty history");
        if !ensemble.spec.is_categorical() {
            return Self::identity(ensemble.m());
        }
        let runs = runs(workers, history.len());
        let temps = (0..ensemble.m())
            .map(|k| {
                // Each run's outputs, turned in place into their logits.
                let logs: Vec<Vec<Vec<f64>>> = par_map(runs.len(), |r| {
                    let logits = |s| {
                        let Output::Probs(mut p) = ensemble.models[k].infer(s, &ensemble.spec)
                        else {
                            unreachable!("categorical spec")
                        };
                        p.iter_mut().for_each(|x| *x = x.max(EPS).ln());
                        p
                    };
                    history[runs[r].clone()].iter().map(logits).collect()
                });
                fit_temperature(|t| mean_nll(&runs, &logs, history, t))
            })
            .collect();
        Self { temps }
    }

    /// The fitted temperature of model `k`.
    pub fn temperature(&self, k: usize) -> f64 {
        self.temps[k]
    }

    /// Applies model `k`'s calibration to an output.
    pub fn apply(&self, k: usize, output: &Output) -> Output {
        output.calibrated(self.temps[k])
    }

    /// Number of models covered.
    pub fn len(&self) -> usize {
        self.temps.len()
    }

    /// True when covering zero models.
    pub fn is_empty(&self) -> bool {
        self.temps.is_empty()
    }
}

/// The mean NLL at temperature `t` of `history`, whose logits `logs` are
/// held run by run: each run's per-sample terms on a worker of its own, all
/// of them summed in sample order.
fn mean_nll(runs: &[Range<usize>], logs: &[Vec<Vec<f64>>], history: &[Sample], t: f64) -> f64 {
    let terms = par_map(runs.len(), |r| {
        logs[r]
            .iter()
            .zip(&history[runs[r].clone()])
            .map(|(l, s)| temperature_nll(l, s.label.class(), t))
            .collect::<Vec<f64>>()
    });
    terms.iter().flatten().sum::<f64>() / history.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemble_models::zoo;
    use schemble_models::{DifficultyDist, SampleGenerator};
    use schemble_tensor::prob::rescale_probs;

    #[test]
    fn fitted_temperatures_soften_overconfident_models() {
        let ens = zoo::text_matching(1);
        let gen = SampleGenerator::new(ens.spec, DifficultyDist::Uniform, 3);
        let history = gen.batch(0, 1500);
        let cal = Calibration::fit(&ens, &history);
        let fitted_all: Vec<f64> = (0..ens.m()).map(|k| cal.temperature(k)).collect();
        // Ordering must track the injected miscalibration: BiLSTM (3.4) >
        // RoBERTa (2.0) > BERT (1.4).
        assert!(
            fitted_all[0] > fitted_all[1] && fitted_all[1] > fitted_all[2],
            "fitted temperatures should order like injected ones: {fitted_all:?}"
        );
        for k in 0..ens.m() {
            let injected = ens.models[k].miscal_temp;
            let fitted = cal.temperature(k);
            assert!(
                fitted > 1.2,
                "model {k} ({}) should need softening: fitted {fitted:.2}",
                ens.models[k].name
            );
            // The difficulty-dependent logit gain means the single fitted
            // temperature exceeds the injected constant; what must survive
            // is that more-miscalibrated models fit larger temperatures.
            let _ = injected;
        }
    }

    #[test]
    fn regression_models_are_identity() {
        let ens = zoo::vehicle_counting(1);
        let gen = SampleGenerator::new(ens.spec, DifficultyDist::Uniform, 3);
        let history = gen.batch(0, 200);
        let cal = Calibration::fit(&ens, &history);
        for k in 0..ens.m() {
            assert_eq!(cal.temperature(k), 1.0);
        }
    }

    #[test]
    fn apply_softens_probabilities() {
        let cal = Calibration { temps: vec![2.0] };
        let out = Output::Probs(vec![0.95, 0.05]);
        if let Output::Probs(p) = cal.apply(0, &out) {
            assert!(p[0] < 0.95 && p[0] > 0.5);
        } else {
            panic!("calibration changed output kind");
        }
    }

    #[test]
    fn identity_is_noop() {
        let cal = Calibration::identity(2);
        let out = Output::Probs(vec![0.7, 0.3]);
        if let Output::Probs(p) = cal.apply(1, &out) {
            assert!((p[0] - 0.7).abs() < 1e-9);
        }
    }

    #[test]
    fn mean_nll_is_the_sample_order_mean_on_any_worker_count() {
        let ens = zoo::text_matching(1);
        let gen = SampleGenerator::new(ens.spec, DifficultyDist::Uniform, 3);
        let history = gen.batch(0, 301);
        let probs: Vec<Vec<f64>> =
            history.iter().map(|s| ens.models[0].infer(s, &ens.spec).as_vec()).collect();
        for t in [0.05, 0.7, 1.3, 2.9, 20.0] {
            // The per-sample NLL of the rescaled output, summed in order.
            let want = probs
                .iter()
                .zip(&history)
                .map(|(p, s)| -rescale_probs(p, t)[s.label.class()].max(EPS).ln())
                .sum::<f64>()
                / history.len() as f64;
            for workers in [1, 2, 3, 7] {
                let runs = runs(workers, history.len());
                let logs: Vec<Vec<Vec<f64>>> = runs
                    .iter()
                    .map(|run| {
                        probs[run.clone()]
                            .iter()
                            .map(|p| p.iter().map(|&x| x.max(EPS).ln()).collect())
                            .collect()
                    })
                    .collect();
                let got = mean_nll(&runs, &logs, &history, t);
                assert_eq!(got.to_bits(), want.to_bits(), "t = {t}, {workers} workers");
            }
        }
    }
}
