//! **Fig. 1** — the motivating observation.
//!
//! (a) One-day query traffic and the Original pipeline's deadline miss rate
//!     per time segment: the miss rate must track the traffic and blow up
//!     during the burst.
//! (b) Accuracy (vs. true labels) and latency of the ensemble vs. each base
//!     model: the ensemble is the most accurate and slightly slower than its
//!     slowest member.

use super::{paper_config, Scale};
use crate::fmt::{f3, pct, Report};
use crate::row;
use schemble_core::experiment::{ExperimentContext, PipelineKind};
use schemble_data::TaskKind;
use schemble_metrics::SegmentSeries;
use schemble_models::{ModelSet, Output};

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut out = Report::default();
    let config = paper_config(TaskKind::TextMatching, 42, scale.sized(12_000));
    let mut ctx = ExperimentContext::new(config);
    let workload = ctx.workload();
    let trace = ctx.diurnal().expect("text matching uses the diurnal trace");

    // --- Fig. 1a ---------------------------------------------------------
    let summary = ctx.run(PipelineKind::Original, &workload);
    let series = SegmentSeries::compute(summary.records(), 24, |r| trace.hour_of(r.arrival));
    let rows: Vec<Vec<String>> =
        (0..24).map(|h| row![h, series.counts[h], pct(series.dmr[h])]).collect();
    out.table(
        "Fig. 1a — one-day traffic and Original-pipeline deadline miss rate",
        &["hour", "queries", "DMR %"],
        &rows,
    );
    let burst_dmr: f64 = series.dmr[10..18].iter().sum::<f64>() / 8.0;
    let night_dmr: f64 = series.dmr[0..8].iter().sum::<f64>() / 8.0;
    out.line(format!(
        "  burst-hours mean DMR {:.1}%  vs  night-hours {:.1}%  (paper: ~45% at the burst)",
        100.0 * burst_dmr,
        100.0 * night_dmr
    ));

    // --- Fig. 1b ---------------------------------------------------------
    let ens = &ctx.ensemble;
    let eval = ctx.generator.batch(5_000_000, scale.sized(4000));
    // Accuracy on the true labels of whatever `output` answers per sample.
    let accuracy = |output: &dyn Fn(&schemble_models::Sample) -> Output| {
        let correct = eval.iter().filter(|s| output(s).predicted_class() == s.label.class());
        f3(correct.count() as f64 / eval.len() as f64)
    };
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (k, model) in ens.models.iter().enumerate() {
        let acc = accuracy(&|s| ens.subset_output(s, ModelSet::singleton(k)));
        let latency = model.latency.planned().as_millis_f64();
        rows.push(row![model.name, acc, format!("{latency:.0} ms")]);
    }
    let latency = ens.slowest_planned_latency().as_millis_f64();
    let latency = format!("{latency:.0} ms (max base + aggregation)");
    rows.push(row!["Ensemble", accuracy(&|s| ens.ensemble_output(s)), latency]);
    out.table(
        "Fig. 1b — ensemble vs base models (accuracy on true labels, nominal latency)",
        &["model", "accuracy", "latency"],
        &rows,
    );

    // Traffic profile context for the reader.
    let (hour12, hour2) = (trace.hour_rate(12), trace.hour_rate(2));
    out.line(format!(
        "\n  traffic: hour-12 rate {hour12:.1}/s vs hour-2 rate {hour2:.1}/s ({}x burst)",
        (hour12 / hour2).round()
    ));
    out
}
