//! **Fig. 9 / Fig. 14** — behaviour across the one-day trace.
//!
//! Per-time-segment latency, accuracy and DMR for all six methods on the
//! text-matching diurnal trace. Shape: all methods are clean overnight;
//! during the burst Original/DES collapse, Schemble/Static/Gating keep the
//! latency flat, and Schemble keeps the highest accuracy by shedding models
//! adaptively (its mean models/query drops during the burst).

use super::{paper_config, Scale};
use crate::fmt::{f3, pct, Report};
use crate::row;
use schemble_baselines::Method;
use schemble_core::experiment::ExperimentContext;
use schemble_data::TaskKind;
use schemble_metrics::SegmentSeries;

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut out = Report::default();
    let config = paper_config(TaskKind::TextMatching, 42, scale.sized(9000));
    let mut ctx = ExperimentContext::new(config);
    let workload = ctx.workload();
    let trace = ctx.diurnal().expect("diurnal trace");

    // Aggregate into 6 four-hour segments for readability.
    let seg_of = |hour: usize| hour / 4;
    let mut rows: Vec<Vec<String>> = Vec::new();
    // Adaptivity: Schemble's models/query across segments.
    let mut seg_models = [(0.0f64, 0usize); 6];
    for method in Method::table1() {
        let summary = method.run(&mut ctx, &workload);
        let series =
            SegmentSeries::compute(summary.records(), 6, |r| seg_of(trace.hour_of(r.arrival)));
        for seg in 0..6 {
            let (acc, dmr) = (pct(series.accuracy[seg]), pct(series.dmr[seg]));
            let segment = format!("{:02}-{:02}h", seg * 4, seg * 4 + 4);
            let latency = f3(series.mean_latency[seg]);
            rows.push(row![segment, method.label, series.counts[seg], acc, dmr, latency]);
        }
        if method.is_schemble() {
            for r in summary.records() {
                let seg = &mut seg_models[seg_of(trace.hour_of(r.arrival))];
                *seg = (seg.0 + r.models_used as f64, seg.1 + 1);
            }
        }
    }
    rows.sort_by(|a, b| a[0].cmp(&b[0]));
    out.table(
        "Fig. 9/14 — per-segment accuracy, DMR and latency (text matching, one day)",
        &["segment", "method", "n", "Acc %", "DMR %", "lat s"],
        &rows,
    );
    let adapt: Vec<String> =
        seg_models.iter().map(|(sum, n)| format!("{:.2}", sum / (*n).max(1) as f64)).collect();
    out.line(format!(
        "\n  Schemble mean models/query per segment: {}  \
         (drops during the 08–16h burst — the paper's adaptive shedding)",
        adapt.join("  ")
    ));
    out
}
