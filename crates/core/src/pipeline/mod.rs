//! Discrete-event serving pipelines.
//!
//! Two pipeline families reproduce Fig. 2/3:
//!
//! * [`immediate`] — the conventional pipelines: a selection policy chooses a
//!   model subset *at arrival* (Original = always everything; Static = fixed
//!   subset over a replica deployment; DES/Gating = feature-based selectors
//!   plugged in through [`SelectionPolicy`]), tasks are enqueued to
//!   per-instance FIFO queues immediately, with optional admission rejection
//!   when the estimated completion exceeds the deadline.
//! * [`schemble`] — the paper's pipeline (Fig. 3): arrivals land in a query
//!   buffer, the discrepancy-score predictor tags them, the task scheduler
//!   re-plans on every arrival/completion, and tasks are dispatched only when
//!   models idle. Scheduling cost is charged to the simulated clock, so a
//!   too-fine quantization step slows the *served* system (Fig. 12/21).
//!
//! [`static_select`] implements the greedy search for the best static
//! deployment (subset + replicas); [`eval`] scores results against the full
//! ensemble's output.

pub mod eval;
pub mod immediate;
pub mod schemble;
pub mod static_select;

pub use immediate::{
    run_immediate, Deployment, FixedSubsetPolicy, FullEnsemblePolicy, SelectionPolicy,
};
pub use schemble::{run_schemble, run_schemble_traced, SchembleConfig};
pub use static_select::best_static_deployment;

use crate::backend::{BackendEvent, ExecutionBackend, SimBackend};
use crate::engine::PipelineEngine;
use schemble_data::Workload;
use schemble_sim::SimTime;

/// Where the driver loop's events come from: the simulator ([`SimBackend`],
/// whose queue is its clock) or `schemble-serve`'s wall clock (worker
/// reports, timers and an arrival lane). Either way [`advance`] is the one
/// loop that hands the events to an engine.
pub trait EventSource {
    /// The backend an engine dispatches into while it handles an event.
    type Backend: ExecutionBackend;

    /// The backend an engine dispatches into.
    fn backend(&mut self) -> &mut Self::Backend;

    /// The next event strictly before `until` (with no bound, the next at
    /// all) and the instant to handle it at. `None` ends the advance:
    /// `until` is reached, or, with no bound, nothing is left for `engine`
    /// or the source has [`halted`](Self::halted).
    fn next_event(
        &mut self,
        engine: &mut dyn PipelineEngine,
        until: Option<SimTime>,
    ) -> Option<(SimTime, BackendEvent)>;

    /// True once every arrival is delivered and every executor is idle.
    fn exhausted(&self) -> bool;

    /// The instant a driver stands at once it has advanced to `t`: `t`
    /// itself, unless the source's clock runs on its own.
    fn instant(&self, t: SimTime) -> SimTime {
        t
    }

    /// True once the source has ended the run early.
    fn halted(&self) -> bool {
        false
    }
}

/// The driver loop, written once for both clocks ("advance to instant
/// `until`"): hands `engine` every event `source` surfaces strictly before
/// `until`, or until the source has nothing left. Returns the last instant
/// handled. Generic over the source, so the simulator's per-event path has
/// no dynamic dispatch beyond the engine's own.
pub fn advance<S: EventSource>(
    engine: &mut dyn PipelineEngine,
    source: &mut S,
    until: Option<SimTime>,
) -> Option<SimTime> {
    let mut last = None;
    while let Some((now, event)) = source.next_event(engine, until) {
        engine.handle(event, now, source.backend());
        last = Some(now);
    }
    last
}

/// The deterministic replay: pushes every arrival of `workload` into
/// `backend` and runs it out. `schemble-serve`'s runtime runs the same
/// [`advance`], so its decisions agree with the DES drivers' by construction.
pub fn drive(
    engine: &mut dyn PipelineEngine,
    backend: &mut SimBackend,
    workload: &Workload,
) -> SimTime {
    for (i, q) in workload.queries.iter().enumerate() {
        backend.push_arrival(q.arrival, i);
    }
    run_out(engine, backend, SimTime::ZERO)
}

/// The end of every run: advances `source` with no bound, then drains the
/// engine at the instant it stands at (after the last instant handled, or
/// `end` — the last a driver that paused at its own boundaries reached)
/// and returns that instant.
pub fn run_out<S: EventSource>(
    engine: &mut dyn PipelineEngine,
    source: &mut S,
    end: SimTime,
) -> SimTime {
    let last = advance(engine, source, None).unwrap_or(end);
    let end = source.instant(last);
    engine.drain(end);
    end
}

/// Whether queries may be refused service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionMode {
    /// Queries whose estimated completion exceeds their deadline are
    /// rejected/expired (the deadline-miss-rate experiments, Exp-1).
    Reject,
    /// Every query must eventually be processed (the latency experiments,
    /// Exp-2 / Table II).
    ForceAll,
}

/// How a query's result is assembled from its executed models' outputs.
#[derive(Debug, Clone)]
pub enum ResultAssembler {
    /// Aggregate the present outputs directly (voting excludes missing
    /// outputs; weighted averaging renormalises).
    Direct,
    /// Fill missing outputs with the KNN imputer first (required for
    /// stacking aggregators).
    KnnFill(crate::filling::KnnFiller),
}

impl ResultAssembler {
    /// Produces the final output for a query that executed `set`.
    pub fn assemble(
        &self,
        ensemble: &schemble_models::Ensemble,
        outputs: &[(usize, schemble_models::Output)],
        set: schemble_models::ModelSet,
    ) -> schemble_models::Output {
        match self {
            ResultAssembler::Direct => {
                ensemble.aggregate_iter(outputs.iter().map(|(k, o)| (*k, o)))
            }
            ResultAssembler::KnnFill(filler) => {
                let present: Vec<(usize, &schemble_models::Output)> =
                    outputs.iter().map(|(k, o)| (*k, o)).collect();
                let filled = filler.fill_outputs(&present, set, ensemble.spec.is_categorical());
                let refs: Vec<(usize, &schemble_models::Output)> =
                    filled.iter().enumerate().collect();
                ensemble.aggregate(&refs)
            }
        }
    }
}
