//! **Exp-5 / Fig. 13** — computation and memory overhead of Schemble.
//!
//! Measures the discrepancy-prediction network's cost relative to the deep
//! ensemble: parameters/memory and a FLOP-based latency proxy, plus a
//! wall-clock microbenchmark of one prediction. Shape: the predictor costs a
//! few percent of the ensemble's runtime and a fraction of a percent of its
//! memory.

use super::Scale;
use crate::fmt::Report;
use crate::row;
use schemble_core::artifacts::SchembleArtifacts;
use schemble_data::TaskKind;
use std::time::Instant;

/// Rough total parameter count of the real architectures the synthetic
/// models stand in for (used only to put the predictor's memory in
/// perspective, exactly as Fig. 13 does).
fn reference_params(task: TaskKind) -> usize {
    match task {
        // BiLSTM 4M + RoBERTa 125M + BERT 110M
        TaskKind::TextMatching => 239_000_000,
        // EfficientDet-0 3.9M + YOLOv5l6 76M + YOLOX 54M
        TaskKind::VehicleCounting => 133_900_000,
        // DELG-R50 25M + DELG-R101 44M
        TaskKind::ImageRetrieval => 69_000_000,
    }
}

/// Runs the experiment; it is the same size at every scale.
pub fn run(_scale: Scale) -> Report {
    let mut out = Report::default();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for task in TaskKind::ALL {
        let ens = task.ensemble(42);
        let gen = task.default_generator(42);
        let art = SchembleArtifacts::build_small(&ens, &gen, 42);
        let predictor = &art.predictor;

        // Wall-clock per prediction.
        let sample = gen.sample(1_000_000);
        let reps = 20_000;
        let start = Instant::now();
        let mut sink = 0.0;
        for _ in 0..reps {
            sink += predictor.predict_score(&sample.features);
        }
        let per_pred_us = start.elapsed().as_secs_f64() * 1e6 / reps as f64;
        std::hint::black_box(sink);

        // The paper deploys the predictor on the GPU next to the ensemble;
        // our FLOP proxy scales its cost against a base model of ~1 GFLOP.
        let ens_latency_ms = ens.slowest_planned_latency().as_millis_f64();
        let runtime_frac = 100.0 * (per_pred_us / 1000.0) / ens_latency_ms;
        let memory_frac = 100.0 * predictor.param_count() as f64 / reference_params(task) as f64;
        rows.push(row![
            task.label(),
            predictor.param_count(),
            format!("{} B", predictor.memory_bytes()),
            predictor.flops_per_sample(),
            format!("{per_pred_us:.1} µs"),
            format!("{runtime_frac:.2} %"),
            format!("{memory_frac:.4} %"),
        ]);
    }
    out.table(
        "Fig. 13 — discrepancy predictor overhead vs the deep ensemble",
        &[
            "task",
            "params",
            "memory",
            "flops/query",
            "latency",
            "% of ens. runtime",
            "% of ens. memory",
        ],
        &rows,
    );
    out.line(
        "\n  (paper: predictor ≈ 6.5% of ensemble runtime and 0.4–2% of its memory; \
         our MLP stand-in is far smaller than MV-LSTM/MobileNet, hence even cheaper)"
            .to_string(),
    );
    out
}
