//! **Exp-3 / Fig. 10** — how the difficulty distribution affects each method.
//!
//! Queries' latent difficulty is resampled from Normal(mean, 0.03) and
//! Gamma(mean) distributions with the mean swept; deadline fixed at 105 ms.
//! Reports accuracy and processed accuracy, with `Schemble(t)` (no
//! difficulty prediction) added. Shape: accuracy decreases with the mean;
//! Schemble leads except against Schemble(t) at extreme means (where
//! distinguishing queries is pointless and the constant-score variant's
//! lower overhead wins); in the middle Schemble's gap is largest.

use super::{paper_config, Scale};
use crate::fmt::{pct, Report};
use crate::row;
use schemble_baselines::Method;
use schemble_core::experiment::ExperimentContext;
use schemble_data::TaskKind;
use schemble_models::DifficultyDist;

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut out = Report::default();
    let methods = Method::table1().chain(Method::named("schemble-t"));
    let methods: Vec<&Method> = methods.collect();
    type Law = fn(f64) -> DifficultyDist;
    let normal: Law = |mean| DifficultyDist::Normal { mean, std: 0.03 };
    let gamma: Law = |mean| DifficultyDist::Gamma { mean };
    for (dist_name, make) in [("Normal (σ=0.03)", normal), ("Gamma (scale=1)", gamma)] {
        let mut rows: Vec<Vec<String>> = Vec::new();
        for mean in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let mut config = paper_config(TaskKind::TextMatching, 42, scale.sized(4000))
                .with_deadline_millis(105.0);
            config.difficulty = make(mean);
            let mut ctx = ExperimentContext::new(config);
            let workload = ctx.workload();
            for method in &methods {
                let summary = method.run(&mut ctx, &workload);
                let (acc, processed) = (pct(summary.accuracy()), pct(summary.processed_accuracy()));
                rows.push(row![format!("{mean:.1}"), method.label, acc, processed]);
            }
        }
        out.table(
            &format!("Fig. 10 — {dist_name} difficulty mean sweep (text matching, d=105ms)"),
            &["mean", "method", "Acc %", "processed Acc %"],
            &rows,
        );
    }
    out
}
