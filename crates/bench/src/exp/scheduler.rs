//! **Exp-4 / Fig. 12, 17, 18, 19** — scheduling-algorithm ablation.
//!
//! With the discrepancy module fixed, compares Greedy+EDF/FIFO/SJF against
//! the DP scheduler at δ ∈ {0.1, 0.01, 0.001} across a deadline sweep for
//! each task, plus a bursty-segment slice (Fig. 19). Shape: DP(0.01) is the
//! best overall; greedy falls behind as deadlines loosen (more room for
//! scheduling); DP(0.001) pays so much scheduling latency that it loses;
//! gaps grow when traffic is heavy.

use super::{deadline_sweep, paper_config, scheduler_variants, Scale};
use crate::fmt::{pct, Report};
use crate::row;
use schemble_core::experiment::ExperimentContext;
use schemble_data::TaskKind;
use schemble_metrics::SegmentSeries;

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut out = Report::default();
    for (task, fig) in TaskKind::ALL.into_iter().zip(["12", "17", "18"]) {
        let mut rows: Vec<Vec<String>> = Vec::new();
        for deadline_ms in deadline_sweep(task) {
            let config = paper_config(task, 42, scale.sized(4000));
            let mut ctx = ExperimentContext::new(config.with_deadline_millis(deadline_ms));
            let workload = ctx.workload();
            for kind in scheduler_variants() {
                let summary = ctx.run(kind, &workload);
                let (acc, dmr) = (pct(summary.accuracy()), pct(summary.deadline_miss_rate()));
                rows.push(row![format!("{deadline_ms:.0}"), kind.label(), acc, dmr]);
            }
        }
        out.table(
            &format!("Fig. {fig} — scheduling algorithms on {} (deadline sweep)", task.label()),
            &["deadline ms", "scheduler", "Acc %", "DMR %"],
            &rows,
        );
    }

    // Fig. 19 — the bursty 14–19h slice of the text-matching day.
    let config = paper_config(TaskKind::TextMatching, 42, scale.sized(6000));
    let mut ctx = ExperimentContext::new(config.with_deadline_millis(105.0));
    let workload = ctx.workload();
    let trace = ctx.diurnal().expect("diurnal");
    let mut rows: Vec<Vec<String>> = Vec::new();
    for kind in scheduler_variants() {
        let summary = ctx.run(kind, &workload);
        let series = SegmentSeries::compute(summary.records(), 24, |r| trace.hour_of(r.arrival));
        let (mut acc, mut dmr, mut n) = (0.0, 0.0, 0usize);
        for h in 14..19 {
            acc += series.accuracy[h] * series.counts[h] as f64;
            dmr += series.dmr[h] * series.counts[h] as f64;
            n += series.counts[h];
        }
        rows.push(row![kind.label(), n, pct(acc / n as f64), pct(dmr / n as f64)]);
    }
    out.table(
        "Fig. 19 — scheduling algorithms on the bursty 14–19h slice (text matching)",
        &["scheduler", "n", "Acc %", "DMR %"],
        &rows,
    );
    out
}
