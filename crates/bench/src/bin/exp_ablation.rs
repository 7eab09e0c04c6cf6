//! Ablations of Schemble's design choices (beyond the paper's own Exp-3/4):
//!
//! 1. **Profile bins** — how coarse can the score binning get before the
//!    reward function stops discriminating?
//! 2. **Eq. 2's λ** — the paper claims the auxiliary task head (λ > 0)
//!    improves discrepancy prediction; sweep λ including 0 (no task head
//!    signal) and large values (task loss drowned out).
//! 3. **Predictor latency** — how sensitive is the pipeline to the
//!    difficulty-prediction delay (Fig. 13's cost, injected at 0–15 ms)?
//! 4. **Fast path (§VIII)** — the skip-the-scheduler optimisation at light
//!    and heavy load.

use schemble_bench::fmt::{f3, pct, print_table};
use schemble_bench::runner::sized;
use schemble_core::artifacts::SchembleArtifacts;
use schemble_core::discrepancy::{DifficultyMetric, DiscrepancyScorer};
use schemble_core::experiment::{ExperimentConfig, ExperimentContext, Traffic};
use schemble_core::pipeline::schemble::run_schemble;
use schemble_core::predictor::train_score_predictor_with_lambda;
use schemble_data::TaskKind;
use schemble_sim::rng::stream_rng;
use schemble_sim::SimDuration;
use schemble_tensor::stats::pearson;

fn main() {
    let task = TaskKind::TextMatching;
    let mut base = ExperimentConfig::paper_default(task, 42);
    base.n_queries = sized(5000);
    base.traffic = Traffic::Diurnal { day_secs: base.n_queries as f64 / 15.0 };

    // ---- 1. profile bins --------------------------------------------------
    let mut rows = Vec::new();
    for bins in [2usize, 5, 10, 20, 40] {
        let ctx = ExperimentContext::new(base.clone());
        let art = SchembleArtifacts::build(
            &ctx.ensemble,
            &ctx.generator,
            base.history_n,
            bins,
            DifficultyMetric::Discrepancy,
            42,
        );
        let workload = ctx.workload();
        let config = art.pipeline();
        let summary = run_schemble(&ctx.ensemble, &config, &workload, 42);
        rows.push(vec![
            bins.to_string(),
            pct(summary.accuracy()),
            pct(summary.deadline_miss_rate()),
        ]);
    }
    print_table("Ablation 1 — profile bin count (TM, diurnal)", &["bins", "Acc %", "DMR %"], &rows);

    // ---- 2. Eq. 2 λ -------------------------------------------------------
    let ens = task.ensemble(42);
    let gen = task.default_generator(42);
    let history = gen.batch(1 << 42, sized(2000));
    let scorer = DiscrepancyScorer::fit(&ens, &history, DifficultyMetric::Discrepancy);
    let scores = scorer.score_batch(&ens, &history);
    let test = gen.batch(1 << 43, sized(800));
    let truth = scorer.score_batch(&ens, &test);
    let mut rows = Vec::new();
    for lambda in [0.0, 0.05, 0.2, 1.0, 5.0] {
        let mut rng = stream_rng(42, "ablation-lambda");
        let nn = train_score_predictor_with_lambda(&ens, &history, &scores, lambda, &mut rng);
        let predicted: Vec<f64> = test.iter().map(|s| nn.predict_score(&s.features)).collect();
        rows.push(vec![format!("{lambda}"), f3(pearson(&predicted, &truth))]);
    }
    print_table(
        "Ablation 2 — Eq. 2 weight λ vs predictor/oracle correlation",
        &["λ", "corr"],
        &rows,
    );
    println!(
        "  (λ = 0 removes the discrepancy head's gradient entirely — the head\n   \
         never trains; very large λ drowns the auxiliary task signal the paper\n   \
         found helpful. λ = 0.2 is the paper's choice.)"
    );

    // ---- 2b. predictor architecture (MLP vs MV-LSTM-style) -----------------
    let mut rows = Vec::new();
    {
        let mut rng = stream_rng(42, "ablation-arch");
        let mlp =
            schemble_core::predictor::train_score_predictor(&ens, &history, &scores, &mut rng);
        let mlp_pred: Vec<f64> = test.iter().map(|s| mlp.predict_score(&s.features)).collect();
        rows.push(vec![
            "MLP".to_string(),
            mlp.param_count().to_string(),
            f3(pearson(&mlp_pred, &truth)),
        ]);
        let mut rng = stream_rng(42, "ablation-arch-seq");
        let seq =
            schemble_core::predictor::train_seq_score_predictor(&ens, &history, &scores, &mut rng);
        let seq_pred: Vec<f64> = test.iter().map(|s| seq.predict_score(&s.features)).collect();
        rows.push(vec![
            "MV-LSTM".to_string(),
            seq.param_count().to_string(),
            f3(pearson(&seq_pred, &truth)),
        ]);
    }
    print_table(
        "Ablation 2b — predictor architecture vs oracle correlation",
        &["arch", "params", "corr"],
        &rows,
    );

    // ---- 3. predictor latency --------------------------------------------
    let mut rows = Vec::new();
    let mut ctx = ExperimentContext::new(base.clone());
    let art = ctx.artifacts().clone();
    let workload = ctx.workload();
    for ms in [0u64, 3, 8, 15, 30] {
        let mut config = art.pipeline();
        config.predictor_latency = SimDuration::from_millis(ms);
        let summary = run_schemble(&ctx.ensemble, &config, &workload, 42);
        rows.push(vec![
            format!("{ms}"),
            pct(summary.accuracy()),
            pct(summary.deadline_miss_rate()),
            format!("{:.3}", summary.latency_stats().mean),
        ]);
    }
    print_table(
        "Ablation 3 — discrepancy-prediction latency (TM, 105ms deadlines)",
        &["pred ms", "Acc %", "DMR %", "mean lat s"],
        &rows,
    );

    // ---- 4. fast path ------------------------------------------------------
    let mut rows = Vec::new();
    for (label, rate) in [("light (3/s)", 3.0), ("heavy (45/s)", 45.0)] {
        let mut cfg = base.clone();
        cfg.traffic = Traffic::Poisson { rate_per_sec: rate };
        cfg.n_queries = sized(1500);
        let mut ctx = ExperimentContext::new(cfg);
        let art = ctx.artifacts().clone();
        let workload = ctx.workload();
        for fast in [false, true] {
            let mut config = art.pipeline();
            config.fast_path = fast;
            let summary = run_schemble(&ctx.ensemble, &config, &workload, 42);
            rows.push(vec![
                label.to_string(),
                if fast { "on" } else { "off" }.to_string(),
                pct(summary.accuracy()),
                pct(summary.deadline_miss_rate()),
                format!("{:.4}", summary.latency_stats().mean),
            ]);
        }
    }
    print_table(
        "Ablation 4 — §VIII fast-path dispatch",
        &["load", "fast path", "Acc %", "DMR %", "mean lat s"],
        &rows,
    );
}
