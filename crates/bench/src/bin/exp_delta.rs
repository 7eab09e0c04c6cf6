//! **Exp-8 / Fig. 21** — the quantization step δ: overhead vs performance.
//!
//! For δ spanning 0.1 → 0.001, reports the DP scheduler's *planning work*
//! (extension count — the scheduling-overhead proxy charged to the clock)
//! and the end-to-end accuracy/DMR. Shape: work grows steeply as δ shrinks;
//! accuracy peaks at a middle δ (0.01 in the paper) because too-coarse
//! quantization loses plan quality while too-fine quantization burns the
//! inference-time budget on scheduling.

use schemble_bench::fmt::{pct, print_table};
use schemble_bench::runner::sized;
use schemble_core::experiment::{ExperimentConfig, ExperimentContext, PipelineKind, Traffic};
use schemble_core::scheduler::{DpScheduler, Scheduler};
use schemble_data::TaskKind;

fn main() {
    // Planning-work microcosm: one heavy buffer instance per δ.
    let mut work_rows: Vec<Vec<String>> = Vec::new();
    for &delta in &[0.1, 0.05, 0.01, 0.005, 0.001] {
        let input = heavy_instance();
        let plan = DpScheduler::with_delta(delta).plan(&input);
        work_rows.push(vec![
            format!("{delta}"),
            plan.work.to_string(),
            format!("{:.3}", input.plan_utility(&plan)),
        ]);
    }
    print_table(
        "Fig. 21 (left) — planning work and plan utility vs δ (16-query buffer)",
        &["δ", "work units", "plan utility"],
        &work_rows,
    );

    // End-to-end: accuracy/DMR for each δ on both evaluated tasks.
    for task in [TaskKind::TextMatching, TaskKind::VehicleCounting] {
        let mut rows: Vec<Vec<String>> = Vec::new();
        for &delta in &[0.1, 0.05, 0.01, 0.005, 0.001] {
            let mut config = ExperimentConfig::paper_default(task, 42);
            config.n_queries = sized(4000);
            if let Traffic::Diurnal { .. } = config.traffic {
                config.traffic = Traffic::Diurnal { day_secs: config.n_queries as f64 / 15.0 };
            }
            let mut ctx = ExperimentContext::new(config);
            let workload = ctx.workload();
            let summary = ctx.run(PipelineKind::DpDelta(delta), &workload);
            rows.push(vec![
                format!("{delta}"),
                pct(summary.accuracy()),
                pct(summary.deadline_miss_rate()),
            ]);
        }
        print_table(
            &format!("Fig. 21 (right) — end-to-end accuracy/DMR vs δ ({})", task.label()),
            &["δ", "Acc %", "DMR %"],
            &rows,
        );
    }
}

/// A contention-heavy buffer: 16 queries, 3 models, staggered deadlines.
fn heavy_instance() -> schemble_core::scheduler::ScheduleInput {
    use schemble_core::scheduler::{BufferedQuery, ScheduleInput};
    use schemble_sim::{SimDuration, SimTime};
    let m = 3;
    let latencies = vec![
        SimDuration::from_millis(18),
        SimDuration::from_millis(42),
        SimDuration::from_millis(48),
    ];
    let queries = (0..16u64)
        .map(|id| {
            // Monotone utility vector resembling a mid-difficulty bin.
            let utilities = vec![0.0, 0.82, 0.88, 0.90, 0.89, 0.93, 0.95, 1.0];
            BufferedQuery {
                id,
                arrival: SimTime::from_millis(id),
                deadline: SimTime::from_millis(90 + 12 * id),
                utilities: utilities.into(),
                score: 0.4,
            }
        })
        .collect();
    ScheduleInput { now: SimTime::ZERO, availability: vec![SimTime::ZERO; m], latencies, queries }
}
