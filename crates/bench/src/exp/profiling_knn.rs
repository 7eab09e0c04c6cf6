//! **Exp-7 / Fig. 20** — accuracy-profile estimation and KNN robustness.
//!
//! (a) MSE between the Eq. 3-estimated profile (pairs/singletons profiled,
//!     larger sets extrapolated) and the exactly profiled table, for CIFAR
//!     ensembles of size 3–6. Shape: MSE stays tiny (paper < 1.6e-4 at their
//!     scale; the shape to hold is "estimation ≈ truth").
//! (b) Schemble accuracy with stacking aggregation as the KNN filler's k
//!     sweeps 1→100. Shape: flat — robust to k, slight dip only at k=1.

use super::Scale;
use crate::fmt::{pct, Report};
use crate::row;
use schemble_core::discrepancy::{DifficultyMetric, DiscrepancyScorer};
use schemble_core::filling::KnnFiller;
use schemble_core::pipeline::ResultAssembler;
use schemble_core::profiling::AccuracyProfile;
use schemble_data::TaskKind;
use schemble_models::aggregate::train_stacking_meta;
use schemble_models::zoo::cifar_zoo;
use schemble_models::{Aggregator, DifficultyDist, Label, ModelSet, SampleGenerator};
use schemble_sim::rng::stream_rng;

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut out = Report::default();
    // --- Fig. 20a ---------------------------------------------------------
    let mut rows: Vec<Vec<String>> = Vec::new();
    for size in 3..=6 {
        let ens = cifar_zoo(size, 42);
        let gen = SampleGenerator::new(ens.spec, DifficultyDist::Uniform, 7);
        let history = gen.batch(0, scale.sized(2000));
        let scorer = DiscrepancyScorer::fit(&ens, &history, DifficultyMetric::Discrepancy);
        let scores = scorer.score_batch(&ens, &history);
        let exact = AccuracyProfile::fit(&ens, &history, &scores, 8);
        let estimated = AccuracyProfile::fit_with_cutoff(&ens, &history, &scores, 8, 3);
        rows.push(row![size, format!("{:.2e}", estimated.mse_against(&exact))]);
    }
    out.table(
        "Fig. 20a — MSE of Eq. 3 profile estimation vs exact profiling (CIFAR zoo)",
        &["ensemble size", "MSE"],
        &rows,
    );

    // --- Fig. 20b ---------------------------------------------------------
    // Stacking aggregation on text matching; vary the KNN filler's k and
    // measure subset-result accuracy vs the (stacking) ensemble output.
    let task = TaskKind::TextMatching;
    let mut ens = task.ensemble(42);
    let gen = task.default_generator(42);
    let history = gen.batch(0, scale.sized(1500));
    let mut rng = stream_rng(42, "fig20-stacking");
    let rows_bank: Vec<Vec<f64>> = history
        .iter()
        .map(|s| ens.infer_all(s).iter().flat_map(|o| o.as_vec()).collect())
        .collect();
    let labels: Vec<Label> = history.iter().map(|s| s.label).collect();
    let meta = train_stacking_meta(&rows_bank, &labels, &ens.spec, &mut rng);
    ens.aggregator = Aggregator::Stacking { meta };

    let eval = gen.batch(1_000_000, scale.sized(800));
    // Run the {fast two models} subset through filling + stacking.
    let subset = ModelSet::from_indices(&[0, 1]);
    let mut rows: Vec<Vec<String>> = Vec::new();
    for k in [1usize, 5, 10, 25, 50, 100] {
        let assembler = ResultAssembler::KnnFill(KnnFiller::fit(&ens, &history, k));
        let agrees = |s: &&schemble_models::Sample| {
            let result = assembler.assemble(&ens, &ens.infer_subset(s, subset), subset);
            result.agrees_with(&ens.ensemble_output(s), &ens.spec)
        };
        let correct = eval.iter().filter(agrees).count();
        rows.push(row![k, pct(correct as f64 / eval.len() as f64)]);
    }
    out.table(
        "Fig. 20b — stacking accuracy with KNN filling as k varies (subset {BiLSTM,RoBERTa})",
        &["k", "Acc %"],
        &rows,
    );
    out
}
