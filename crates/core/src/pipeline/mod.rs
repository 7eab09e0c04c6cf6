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

use crate::backend::SimBackend;
use crate::engine::PipelineEngine;
use schemble_data::Workload;
use schemble_sim::SimTime;

/// The deterministic replay, written once: every arrival of `workload` is
/// pushed into `backend`, every event is popped and handled in virtual-time
/// order, and the engine is drained at the last instant handled, which is
/// returned. The DES drivers of this module and `schemble-serve`'s
/// virtual-clock runtime all run this loop, so their decisions agree by
/// construction.
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

/// The tail of [`drive`], for a driver that has already consumed a prefix
/// of the events under its own cut rule (the steal-epoch rendezvous): pops
/// and handles whatever is left, then drains the engine. `end` is the last
/// instant that driver handled.
pub fn run_out(
    engine: &mut dyn PipelineEngine,
    backend: &mut SimBackend,
    mut end: SimTime,
) -> SimTime {
    while let Some((now, event)) = backend.pop_event() {
        engine.handle(event, now, backend);
        end = now;
    }
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
