//! Seed-robustness check: the Table-I headline orderings across independent
//! re-seedings of everything (models, workload, training).
//!
//! The paper reports single runs; a reproduction should show its claims
//! aren't seed luck. Runs the text-matching comparison over `SEEDS`
//! (default 5) root seeds and reports mean ± std per method, asserting the
//! headline ordering (Schemble > Original) holds in *every* run.

use super::{paper_config, Scale};
use crate::fmt::Report;
use crate::row;
use schemble_baselines::Method;
use schemble_core::experiment::ExperimentContext;
use schemble_data::TaskKind;
use schemble_metrics::aggregate::SeedStats;

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut out = Report::default();
    let seeds = scale.seeds;
    let methods: Vec<&Method> = Method::table1().collect();
    // Per method: its accuracy and its DMR in every run.
    let mut runs: Vec<(Vec<f64>, Vec<f64>)> = vec![Default::default(); methods.len()];
    for seed in 0..seeds {
        let config = paper_config(TaskKind::TextMatching, 1000 + seed, scale.sized(4000));
        let mut ctx = ExperimentContext::new(config);
        let workload = ctx.workload();
        for (method, (acc, dmr)) in methods.iter().zip(&mut runs) {
            let summary = method.run(&mut ctx, &workload);
            acc.push(summary.accuracy());
            dmr.push(summary.deadline_miss_rate());
        }
    }
    let stats = |runs: &[f64]| SeedStats::from_runs(runs);
    let rows: Vec<Vec<String>> = methods
        .iter()
        .zip(&runs)
        .map(|(method, (acc, dmr))| row![method.label, stats(acc).pct(), stats(dmr).pct()])
        .collect();
    out.table(
        &format!("Seed robustness — TM over {seeds} independent seeds (mean ± std, %)"),
        &["method", "Acc", "DMR"],
        &rows,
    );

    let acc_of = |label: &str| {
        let found = methods.iter().position(|m| m.label == label).expect("method present");
        stats(&runs[found].0)
    };
    let (schemble, original) = (acc_of("Schemble"), acc_of("Original"));
    assert!(
        original.clearly_below(&schemble),
        "headline ordering not seed-robust: Original max {:.3} vs Schemble min {:.3}",
        original.max,
        schemble.min
    );
    out.line(format!(
        "\n  Schemble beats Original in every run: worst Schemble {:.1}% > best Original {:.1}%",
        100.0 * schemble.min,
        100.0 * original.max
    ));
    out
}
