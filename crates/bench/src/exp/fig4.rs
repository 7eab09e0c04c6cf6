//! **Fig. 4** — discrepancy-score analysis.
//!
//! (a) Distribution of discrepancy scores on the three datasets: a large
//!     share of samples must sit in the low-score bins.
//! (b) Accuracy (vs. the ensemble) of every model combination per score bin
//!     on text matching: easy bins ≥ ~90% for all combos; hard bins show
//!     much larger error for small sets.

use super::Scale;
use crate::fmt::{f3, Report};
use crate::row;
use schemble_core::discrepancy::{DifficultyMetric, DiscrepancyScorer};
use schemble_core::profiling::AccuracyProfile;
use schemble_data::TaskKind;
use schemble_models::ModelSet;
use schemble_tensor::stats::histogram;

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut out = Report::default();
    let n = scale.sized(6000);
    let scored = |task: TaskKind| {
        let (ens, gen) = (task.ensemble(42), task.default_generator(42));
        let history = gen.batch(0, n);
        let scorer = DiscrepancyScorer::fit(&ens, &history, DifficultyMetric::Discrepancy);
        let scores = scorer.score_batch(&ens, &history);
        (ens, history, scores)
    };
    // --- Fig. 4a ---------------------------------------------------------
    let mut rows: Vec<Vec<String>> = Vec::new();
    for task in TaskKind::ALL {
        let hist = histogram(&scored(task).2, 0.0, 1.0, 10);
        let mut row = row![task.label()];
        row.extend(hist.iter().map(|c| format!("{:.1}", 100.0 * *c as f64 / n as f64)));
        rows.push(row);
    }
    out.table(
        "Fig. 4a — distribution of discrepancy scores (% of samples per decile bin)",
        &["task", "0.0", "0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9"],
        &rows,
    );

    // --- Fig. 4b ---------------------------------------------------------
    let (ens, history, scores) = scored(TaskKind::TextMatching);
    let profile = AccuracyProfile::fit(&ens, &history, &scores, 10);
    let combos: Vec<(String, ModelSet)> = ModelSet::all_nonempty(ens.m())
        .map(|set| {
            let names: Vec<&str> = set.iter().map(|k| ens.models[k].name.as_str()).collect();
            (names.join("+"), set)
        })
        .collect();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for b in 0..10 {
        let (lo, hi, score) = (b as f64 / 10.0, (b + 1) as f64 / 10.0, (b as f64 + 0.5) / 10.0);
        let mut row = row![format!("[{lo:.1},{hi:.1})"), profile.bin_count(b)];
        row.extend(combos.iter().map(|(_, set)| f3(profile.utility(score, *set))));
        rows.push(row);
    }
    let mut headers: Vec<&str> = vec!["score bin", "n"];
    headers.extend(combos.iter().map(|(name, _)| name.as_str()));
    out.table(
        "Fig. 4b — accuracy of model combinations per discrepancy bin (text matching)",
        &headers,
        &rows,
    );
    out.line(format!(
        "  shape check: singleton accuracy in bin 0 = {:.3} vs bin 9 = {:.3}",
        profile.utility(0.05, ModelSet::singleton(0)),
        profile.utility(0.95, ModelSet::singleton(0)),
    ));
    out
}
