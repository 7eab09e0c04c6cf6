//! **Exp-1 / Fig. 6–8 / Table I** — overall accuracy and deadline miss rate.
//!
//! For each task, sweeps the deadline constraint and runs all six methods
//! (Original, Static, DES, Gating, Schemble(ea), Schemble) with rejection
//! enabled, printing Acc/DMR per deadline (the Fig. 6/7/8 series) and the
//! per-task averages (Table I).
//!
//! Shape to reproduce: Schemble wins accuracy everywhere and (near-)wins
//! DMR; Original collapses under load; Static/Gating are competitive on DMR
//! but lose accuracy; DES sits between; Schemble(ea) trails Schemble on
//! accuracy at similar DMR. On image retrieval (2 models) Static's
//! single-model deployment can edge the DMR while losing mAP.

use super::{deadline_sweep, paper_config, Scale};
use crate::fmt::{pct, Report};
use crate::row;
use schemble_baselines::Method;
use schemble_core::experiment::ExperimentContext;
use schemble_data::TaskKind;

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut out = Report::default();
    let methods: Vec<&Method> = Method::table1().collect();
    let mut table1: Vec<Vec<String>> = Vec::new();
    for (task, fig) in TaskKind::ALL.into_iter().zip(["6", "7", "8"]) {
        let config = paper_config(task, 42, scale.sized(6000));
        let mut avgs: Vec<(f64, f64)> = vec![(0.0, 0.0); methods.len()];
        let sweep = deadline_sweep(task);
        let mut rows: Vec<Vec<String>> = Vec::new();
        for deadline_ms in sweep {
            let mut ctx = ExperimentContext::new(config.clone().with_deadline_millis(deadline_ms));
            let workload = ctx.workload();
            for (method, avg) in methods.iter().zip(&mut avgs) {
                let summary = method.run(&mut ctx, &workload);
                let (acc, dmr) = (summary.accuracy(), summary.deadline_miss_rate());
                (avg.0, avg.1) = (avg.0 + acc, avg.1 + dmr);
                rows.push(row![format!("{deadline_ms:.0}"), method.label, pct(acc), pct(dmr)]);
            }
        }
        let metric = if task == TaskKind::ImageRetrieval { "mAP" } else { "accuracy" };
        out.table(
            &format!("Fig. {fig} — {} ({metric}): Acc/DMR vs deadline", task.label()),
            &["deadline ms", "method", "Acc %", "DMR %"],
            &rows,
        );
        let n = sweep.len() as f64;
        for (method, (acc, dmr)) in methods.iter().zip(avgs) {
            table1.push(row![task.label(), method.label, pct(acc / n), pct(dmr / n)]);
        }
    }
    out.table(
        "Table I — average Acc/DMR across deadline constraints",
        &["task", "method", "Acc %", "DMR %"],
        &table1,
    );
    // Headline claims from the paper, recomputed on our runs.
    let get = |task: &str, method: &str, col: usize| -> f64 {
        let row = table1.iter().find(|r| r[0] == task && r[1] == method).expect("row present");
        row[col].parse().expect("numeric")
    };
    let acc_gain = get("TM", "Schemble", 2) - get("TM", "Original", 2);
    let dmr_ratio = get("TM", "Original", 3) / get("TM", "Schemble", 3).max(0.1);
    out.line(format!(
        "\n  TM headline: Schemble accuracy +{acc_gain:.1} points over Original; \
         Original/Schemble DMR ratio {dmr_ratio:.1}x (paper: +32.9 points, ~5x)"
    ));
    out
}
