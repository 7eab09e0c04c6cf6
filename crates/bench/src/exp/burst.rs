//! **Fig. 19** — schedulers on the bursty 14–19 h trace slice.
//!
//! Cuts the afternoon burst window out of the one-day text-matching trace
//! (a [`DiurnalSliceTrace`]: the exact arrivals the full day places in
//! 14–19 h, re-based to `t = 0`) and runs the scheduling-algorithm ablation
//! on that slice alone — every query in the run faces burst-level
//! contention, unlike the `scheduler` experiment's whole-day run which post-filters
//! records. Shape: under sustained pressure the greedy orderings lose
//! accuracy to queue expiry while DP(0.01) sheds models instead; DP(0.001)
//! pays too much planning latency precisely when the queue is longest.

use super::{paper_config, scheduler_variants, Scale};
use crate::fmt::{f3, pct, Report};
use crate::row;
use schemble_core::experiment::ExperimentContext;
use schemble_data::{DiurnalSliceTrace, DiurnalTrace, TaskKind, Workload};

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut out = Report::default();
    // Size the *day* so the 14-19h window holds the target volume at the
    // paper's 15 queries/s average rate.
    let slice_of = |day| DiurnalSliceTrace { day, start_hour: 14, end_hour: 19 };
    let fraction = slice_of(DiurnalTrace { n: 0, day_secs: 0.0 }).expected_fraction();
    let day_n = (scale.sized(5000) as f64 / fraction).round() as usize;
    let slice = slice_of(DiurnalTrace { n: day_n, day_secs: day_n as f64 / 15.0 });

    let config = paper_config(TaskKind::TextMatching, 42, day_n).with_deadline_millis(105.0);
    let mut ctx = ExperimentContext::new(config);
    let workload =
        Workload::generate(&ctx.generator, &slice, &ctx.config.deadline, ctx.config.seed);
    let span = workload.duration.as_secs_f64();
    out.line(format!(
        "slice 14-19h: {} queries over {:.0}s ({:.1}/s sustained vs 15/s day average)",
        workload.len(),
        span,
        workload.len() as f64 / span
    ));

    let mut rows: Vec<Vec<String>> = Vec::new();
    for kind in scheduler_variants() {
        let summary = ctx.run(kind, &workload);
        let (acc, dmr) = (pct(summary.accuracy()), pct(summary.deadline_miss_rate()));
        let (latency, models) = (f3(summary.latency_stats().mean), summary.mean_models_used());
        rows.push(row![kind.label(), summary.len(), acc, dmr, latency, format!("{models:.2}")]);
    }
    out.table(
        "Fig. 19 — scheduling algorithms on the bursty 14-19h slice (text matching)",
        &["scheduler", "n", "Acc %", "DMR %", "lat s", "models/q"],
        &rows,
    );
    out
}
