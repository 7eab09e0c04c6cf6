//! **Exp-8 / Fig. 21** — the quantization step δ: overhead vs performance.
//!
//! For δ spanning 0.1 → 0.001, reports the DP scheduler's *planning work*
//! (extension count — the scheduling-overhead proxy charged to the clock)
//! and the end-to-end accuracy/DMR. Shape: work grows steeply as δ shrinks;
//! accuracy peaks at a middle δ (0.01 in the paper) because too-coarse
//! quantization loses plan quality while too-fine quantization burns the
//! inference-time budget on scheduling.

use super::{paper_config, Scale};
use crate::fmt::{f3, pct, Report};
use crate::row;
use schemble_core::experiment::{ExperimentContext, PipelineKind};
use schemble_core::scheduler::{BufferedQuery, DpScheduler, ScheduleInput, Scheduler};
use schemble_data::TaskKind;
use schemble_sim::{SimDuration, SimTime};

const DELTAS: [f64; 5] = [0.1, 0.05, 0.01, 0.005, 0.001];

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut out = Report::default();
    // Planning-work microcosm: one heavy buffer instance per δ.
    let input = heavy_instance();
    let work_rows: Vec<Vec<String>> = DELTAS
        .iter()
        .map(|&delta| {
            let plan = DpScheduler::with_delta(delta).plan(&input);
            row![delta, plan.work, f3(input.plan_utility(&plan))]
        })
        .collect();
    out.table(
        "Fig. 21 (left) — planning work and plan utility vs δ (16-query buffer)",
        &["δ", "work units", "plan utility"],
        &work_rows,
    );

    // End-to-end: accuracy/DMR for each δ on both evaluated tasks.
    for task in [TaskKind::TextMatching, TaskKind::VehicleCounting] {
        let mut ctx = ExperimentContext::new(paper_config(task, 42, scale.sized(4000)));
        let workload = ctx.workload();
        let mut rows: Vec<Vec<String>> = Vec::new();
        for delta in DELTAS {
            let summary = ctx.run(PipelineKind::DpDelta(delta), &workload);
            rows.push(row![delta, pct(summary.accuracy()), pct(summary.deadline_miss_rate())]);
        }
        out.table(
            &format!("Fig. 21 (right) — end-to-end accuracy/DMR vs δ ({})", task.label()),
            &["δ", "Acc %", "DMR %"],
            &rows,
        );
    }
    out
}

/// A contention-heavy buffer: 16 queries, 3 models, staggered deadlines.
fn heavy_instance() -> ScheduleInput {
    let latencies = [18, 42, 48].map(SimDuration::from_millis).to_vec();
    let queries = (0..16u64)
        .map(|id| BufferedQuery {
            id,
            arrival: SimTime::from_millis(id),
            deadline: SimTime::from_millis(90 + 12 * id),
            // Monotone utility vector resembling a mid-difficulty bin.
            utilities: vec![0.0, 0.82, 0.88, 0.90, 0.89, 0.93, 0.95, 1.0].into(),
            score: 0.4,
        })
        .collect();
    ScheduleInput { now: SimTime::ZERO, availability: vec![SimTime::ZERO; 3], latencies, queries }
}
