//! **Exp-2 / Table II** — forced processing: every query must be served.
//!
//! Rejection is disabled; the pipelines must eventually process everything.
//! Reports accuracy (vs. the ensemble, deadline-free) plus mean/P95/max
//! latency. Shape: Original's queues blow up (latency in the tens of
//! seconds on the bursty trace), Static/Gating are fast but less accurate,
//! Schemble keeps high accuracy at near-Static latency with the lowest
//! P95/max among the accurate methods.

use super::{paper_config, Scale};
use crate::fmt::{f3, pct, Report};
use crate::row;
use schemble_baselines::Method;
use schemble_core::experiment::ExperimentContext;
use schemble_core::pipeline::AdmissionMode;
use schemble_data::TaskKind;

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut out = Report::default();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for task in TaskKind::ALL {
        let mut config = paper_config(task, 42, scale.sized(6000));
        config.admission = AdmissionMode::ForceAll;
        let mut ctx = ExperimentContext::new(config);
        let workload = ctx.workload();
        for method in Method::table1() {
            let summary = method.run(&mut ctx, &workload);
            let served = summary.completion_rate();
            assert!((served - 1.0).abs() < 1e-9, "{} failed to process everything", method.label);
            let (acc, stats) = (pct(summary.processed_accuracy()), summary.latency_stats());
            let label = method.label;
            rows.push(row![task.label(), label, acc, f3(stats.mean), f3(stats.p95), f3(stats.max)]);
        }
    }
    out.table(
        "Table II — forced processing: accuracy and latency (seconds)",
        &["task", "method", "Acc %", "mean", "P95", "max"],
        &rows,
    );
    let mean = |task: &str, method: &str| -> f64 {
        let row = rows.iter().find(|r| r[0] == task && r[1] == method).expect("row");
        row[3].parse().expect("numeric")
    };
    out.line(format!(
        "\n  TM headline: Original mean latency {:.1}s vs Schemble {:.3}s — {:.0}x \
         (paper: 50.5s vs 0.10s, ~500x)",
        mean("TM", "Original"),
        mean("TM", "Schemble"),
        mean("TM", "Original") / mean("TM", "Schemble").max(1e-6)
    ));
    out
}
