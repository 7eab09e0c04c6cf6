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

use super::{paper_config, Scale};
use crate::fmt::{f3, pct, Report};
use crate::row;
use rand::Rng;
use schemble_core::discrepancy::{DifficultyMetric, DiscrepancyScorer};
use schemble_core::experiment::{ExperimentContext, Traffic};
use schemble_core::pipeline::schemble::run_schemble;
use schemble_core::predictor::{
    task_labels_for, train_score_predictor, train_score_predictor_with_lambda,
};
use schemble_core::profiling::AccuracyProfile;
use schemble_data::TaskKind;
use schemble_models::{Ensemble, Sample};
use schemble_nn::seq_predictor::SeqPredictorConfig;
use schemble_nn::SequencePredictor;
use schemble_sim::rng::stream_rng;
use schemble_sim::SimDuration;
use schemble_tensor::stats::pearson;
use schemble_tensor::Matrix;

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut out = Report::default();
    let task = TaskKind::TextMatching;
    let base = paper_config(task, 42, scale.sized(5000));
    let ctx = ExperimentContext::new(base.clone());
    let (ens, workload) = (&ctx.ensemble, ctx.workload());

    // ---- 1. profile bins --------------------------------------------------
    let mut rows = Vec::new();
    for bins in [2usize, 5, 10, 20, 40] {
        let config = ctx.trained(bins, DifficultyMetric::Discrepancy).pipeline();
        let summary = run_schemble(ens, &config, &workload, 42);
        rows.push(row![bins, pct(summary.accuracy()), pct(summary.deadline_miss_rate())]);
    }
    out.table("Ablation 1 — profile bin count (TM, diurnal)", &["bins", "Acc %", "DMR %"], &rows);

    // ---- 2. Eq. 2 λ -------------------------------------------------------
    let history = ctx.generator.batch(1 << 42, scale.sized(2000));
    let scorer = DiscrepancyScorer::fit(ens, &history, DifficultyMetric::Discrepancy);
    let scores = scorer.score_batch(ens, &history);
    let test = ctx.generator.batch(1 << 43, scale.sized(800));
    let truth = scorer.score_batch(ens, &test);
    // Correlation of a predictor's scores on the test set with the oracle's.
    let corr = |predict: &dyn Fn(&[f64]) -> f64| {
        let predicted: Vec<f64> = test.iter().map(|s| predict(&s.features)).collect();
        f3(pearson(&predicted, &truth))
    };
    let mut rows = Vec::new();
    for lambda in [0.0, 0.05, 0.2, 1.0, 5.0] {
        let mut rng = stream_rng(42, "ablation-lambda");
        let nn = train_score_predictor_with_lambda(ens, &history, &scores, lambda, &mut rng);
        rows.push(row![lambda, corr(&|x| nn.predict_score(x))]);
    }
    out.table("Ablation 2 — Eq. 2 weight λ vs predictor/oracle correlation", &["λ", "corr"], &rows);
    out.line(
        "  (λ = 0 removes the discrepancy head's gradient entirely — the head\n   \
         never trains; very large λ drowns the auxiliary task signal the paper\n   \
         found helpful. λ = 0.2 is the paper's choice.)"
            .to_string(),
    );

    // ---- 2b. predictor architecture (MLP vs MV-LSTM-style) -----------------
    let mlp = train_score_predictor(ens, &history, &scores, &mut stream_rng(42, "ablation-arch"));
    let mut rng = stream_rng(42, "ablation-arch-seq");
    let seq = train_seq_score_predictor(ens, &history, &scores, &mut rng);
    let rows = [
        row!["MLP", mlp.param_count(), corr(&|x| mlp.predict_score(x))],
        row!["MV-LSTM", seq.param_count(), corr(&|x| seq.predict_score(x))],
    ];
    out.table(
        "Ablation 2b — predictor architecture vs oracle correlation",
        &["arch", "params", "corr"],
        &rows,
    );

    // ---- 3. predictor latency --------------------------------------------
    let mut rows = Vec::new();
    let art = ctx.trained(AccuracyProfile::DEFAULT_BINS, DifficultyMetric::Discrepancy);
    for ms in [0u64, 3, 8, 15, 30] {
        let mut config = art.pipeline();
        config.predictor_latency = SimDuration::from_millis(ms);
        let summary = run_schemble(ens, &config, &workload, 42);
        let (acc, dmr) = (pct(summary.accuracy()), pct(summary.deadline_miss_rate()));
        rows.push(row![ms, acc, dmr, f3(summary.latency_stats().mean)]);
    }
    out.table(
        "Ablation 3 — discrepancy-prediction latency (TM, 105ms deadlines)",
        &["pred ms", "Acc %", "DMR %", "mean lat s"],
        &rows,
    );

    // ---- 4. fast path ------------------------------------------------------
    let mut rows = Vec::new();
    for (label, rate) in [("light (3/s)", 3.0), ("heavy (45/s)", 45.0)] {
        let mut cfg = base.clone();
        cfg.traffic = Traffic::Poisson { rate_per_sec: rate };
        cfg.n_queries = scale.sized(1500);
        let workload = ExperimentContext::new(cfg).workload();
        for (fast_path, switch) in [(false, "off"), (true, "on")] {
            let mut config = art.pipeline();
            config.fast_path = fast_path;
            let summary = run_schemble(ens, &config, &workload, 42);
            let (acc, dmr) = (pct(summary.accuracy()), pct(summary.deadline_miss_rate()));
            let latency = format!("{:.4}", summary.latency_stats().mean);
            rows.push(row![label, switch, acc, dmr, latency]);
        }
    }
    out.table(
        "Ablation 4 — §VIII fast-path dispatch",
        &["load", "fast path", "Acc %", "DMR %", "mean lat s"],
        &rows,
    );
    out
}

/// Trains the MV-LSTM-style sequence predictor (the paper's text-modality
/// architecture) on the same data layout as [`train_score_predictor`]. Row
/// 2b is its only use: no run serves with it.
fn train_seq_score_predictor(
    ensemble: &Ensemble,
    history: &[Sample],
    scores: &[f64],
    rng: &mut impl Rng,
) -> SequencePredictor {
    assert_eq!(history.len(), scores.len(), "history/scores length mismatch");
    assert!(!history.is_empty(), "cannot train predictor on empty history");
    let feat_dim = history[0].features.len();
    let features = Matrix::from_rows(feat_dim, history.iter().map(|s| s.features.as_slice()));
    let (task_loss, task_labels) = task_labels_for(ensemble, history);
    let config = SeqPredictorConfig::default_for(feat_dim, task_loss);
    let mut predictor = SequencePredictor::new(config, rng);
    predictor.fit(&features, &task_labels, scores, rng);
    predictor
}
