//! Convenience runners wiring DES/Gating into the serving pipeline, so the
//! experiment drivers can sweep all six baselines of Table I uniformly.

use crate::des::DesSelector;
use crate::gating::GatingSelector;
use schemble_core::pipeline::{
    run_immediate, AdmissionMode, Deployment, ResultAssembler, SelectionPolicy,
};
use schemble_data::Workload;
use schemble_metrics::RunSummary;
use schemble_models::{Ensemble, SampleGenerator};
use schemble_sim::rng::stream_rng;

/// The feature-based selection baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// FIRE-DES++-style dynamic ensemble selection.
    Des,
    /// Gating network with thresholded weights.
    Gating,
}

impl BaselineKind {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            BaselineKind::Des => "DES",
            BaselineKind::Gating => "Gating",
        }
    }

    /// Trains the baseline's selection policy on `history_n` fresh
    /// historical samples.
    pub fn train(
        self,
        ensemble: &Ensemble,
        generator: &SampleGenerator,
        history_n: usize,
        seed: u64,
    ) -> Box<dyn SelectionPolicy> {
        // Historical ids start above every serving workload (shared
        // convention with `SchembleArtifacts`).
        let history = generator.batch(1 << 41, history_n);
        match self {
            BaselineKind::Des => {
                let mut rng = stream_rng(seed, "des-train");
                let regions = DesSelector::DEFAULT_REGIONS;
                Box::new(DesSelector::fit(ensemble, &history, regions, &mut rng))
            }
            BaselineKind::Gating => {
                let mut rng = stream_rng(seed, "gating-train");
                Box::new(GatingSelector::fit(ensemble, &history, &mut rng))
            }
        }
    }
}

/// Trains and runs one baseline over a workload on the identity deployment.
pub fn run_baseline(
    kind: BaselineKind,
    ensemble: &Ensemble,
    generator: &SampleGenerator,
    workload: &Workload,
    admission: AdmissionMode,
    history_n: usize,
    seed: u64,
) -> RunSummary {
    run_immediate(
        ensemble,
        &Deployment::identity(ensemble.m()),
        kind.train(ensemble, generator, history_n, seed).as_mut(),
        &ResultAssembler::Direct,
        workload,
        admission,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemble_data::{DeadlinePolicy, PoissonTrace, TaskKind};

    #[test]
    fn both_baselines_run_end_to_end() {
        let task = TaskKind::TextMatching;
        let ens = task.ensemble(1);
        let gen = task.default_generator(1);
        let workload = Workload::generate(
            &gen,
            &PoissonTrace { rate_per_sec: 30.0, n: 200 },
            &DeadlinePolicy::constant_millis(120.0),
            7,
        );
        for kind in [BaselineKind::Des, BaselineKind::Gating] {
            let summary = run_baseline(kind, &ens, &gen, &workload, AdmissionMode::Reject, 400, 3);
            assert_eq!(summary.len(), 200, "{} lost queries", kind.label());
            assert!(summary.accuracy() > 0.2, "{} acc collapsed", kind.label());
        }
    }
}
