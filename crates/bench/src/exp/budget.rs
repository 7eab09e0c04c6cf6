//! **Exp-4 (appendix) / Fig. 16** — offline cumulative-runtime budgets.
//!
//! The setting of prior ensemble-selection work: no arrivals, no deadlines —
//! select a model set per sample under a budget on *average cumulative
//! runtime*. Compares Random, Static (subset points), `Schemble*`
//! (predicted scores), `Schemble*(ea)` and `Schemble*(Oracle)`. Shape:
//! methods converge at tight budgets (one model eats everything); as budget
//! grows, `Schemble*` and the oracle pull ahead; the oracle upper-bounds the
//! predictor.

use super::offline::{budgeted_selection, random_selection, set_costs_ms, utility_rows};
use super::Scale;
use crate::fmt::{pct, Report};
use crate::row;
use schemble_core::artifacts::SchembleArtifacts;
use schemble_core::experiment::{ExperimentConfig, ExperimentContext};
use schemble_data::TaskKind;
use schemble_models::{ModelSet, Sample};
use schemble_sim::rng::stream_rng;

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut out = Report::default();
    for task in [TaskKind::TextMatching, TaskKind::VehicleCounting] {
        // Paper-default training: 2 000 historical samples, 10 bins.
        let mut ctx = ExperimentContext::new(ExperimentConfig::paper_default(task, 42));
        let (art, ea) = (ctx.artifacts(), ctx.ea_artifacts());
        let (ens, gen) = (&ctx.ensemble, &ctx.generator);
        let n = scale.sized(3000);
        let samples = gen.batch(0, n);
        let costs = set_costs_ms(ens);

        // Score estimates per variant.
        let predict = |art: &SchembleArtifacts| -> Vec<f64> {
            let score = |s: &Sample| art.predictor.predict_score(&s.features).clamp(0.0, 1.0);
            samples.iter().map(score).collect()
        };
        let (oracle_scores, predicted) = (art.scorer.score_batch(ens, &samples), predict(&art));
        let ea_scores = predict(&ea);

        let accuracy = |sets: &[ModelSet]| -> f64 {
            samples
                .iter()
                .zip(sets)
                .filter(|(s, set)| {
                    let reference = ens.ensemble_output(s);
                    ens.subset_output(s, **set).agrees_with(&reference, &ens.spec)
                })
                .count() as f64
                / samples.len() as f64
        };

        let full_cost = ens.set_cumulative_latency(ens.full_set()).as_millis_f64();
        let min_cost =
            ens.planned_latencies().iter().map(|d| d.as_millis_f64()).fold(f64::INFINITY, f64::min);
        let budgets: Vec<f64> =
            (0..6).map(|i| min_cost + (full_cost - min_cost) * i as f64 / 5.0).collect();

        let mut rows: Vec<Vec<String>> = Vec::new();
        for &per_sample in &budgets {
            let budget = per_sample * n as f64;
            let mut rng = stream_rng(42, "budget-random");
            let rand_sets = random_selection(ens.m(), n, &costs, budget, &mut rng);
            let smart = budgeted_selection(&utility_rows(&art.profile, &predicted), &costs, budget);
            let oracle =
                budgeted_selection(&utility_rows(&art.profile, &oracle_scores), &costs, budget);
            let ea_sel = budgeted_selection(&utility_rows(&ea.profile, &ea_scores), &costs, budget);
            let sets = [&rand_sets, &ea_sel.sets, &smart.sets, &oracle.sets];
            let mut row = row![format!("{per_sample:.0}")];
            row.extend(sets.map(|sets| pct(accuracy(sets))));
            rows.push(row);
        }
        out.table(
            &format!(
                "Fig. 16 — accuracy under average runtime budgets ({}, budget in ms/sample)",
                task.label()
            ),
            &["budget", "Random %", "Schemble*(ea) %", "Schemble* %", "Oracle %"],
            &rows,
        );

        // Static points: one subset for all samples (no replicas offline).
        let static_rows: Vec<Vec<String>> = ModelSet::all_nonempty(ens.m())
            .map(|set| {
                let cost = ens.set_cumulative_latency(set).as_millis_f64();
                row![set, format!("{cost:.0}"), pct(accuracy(&vec![set; n]))]
            })
            .collect();
        out.table(
            &format!("Fig. 16 — static subset points ({})", task.label()),
            &["subset", "cost ms", "Acc %"],
            &static_rows,
        );
    }
    out
}
