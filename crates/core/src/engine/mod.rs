//! Backend-agnostic pipeline engines.
//!
//! An engine is the pure *decision* half of a serving pipeline — admission,
//! scoring, planning, dispatch order, result assembly — expressed as a state
//! machine over [`BackendEvent`]s. The *execution* half (where tasks run,
//! how time passes) lives behind [`ExecutionBackend`]. One driver loop,
//! [`crate::pipeline::advance`], drives these engines — under the DES
//! drivers of [`crate::pipeline`] and under `schemble-serve`'s runtime on
//! both of its clocks — which is what makes their admission decisions
//! comparable: same events in, same decisions out, regardless of substrate.
//!
//! Two engines cover the paper's pipeline families:
//!
//! * [`SchembleEngine`] — the buffered, re-planning pipeline of Fig. 3
//!   (query buffer, discrepancy predictor, DP scheduler, EDF
//!   dispatch-on-idle, deadline expiry).
//! * [`ImmediateEngine`] — the immediate-selection family of Fig. 2a–d
//!   (Original / Static / DES / Gating): a [`SelectionPolicy`] picks a
//!   subset at arrival and tasks join per-instance FIFO queues at once.
//!
//! Both book every query through the same three private pieces — the
//! `ledger` (records, counters, trace), the id-ordered open `table` and the
//! per-query `fault` book — so they tell one lifecycle story.
//!
//! [`SelectionPolicy`]: crate::pipeline::SelectionPolicy

mod fault;
mod immediate;
mod ledger;
mod schemble;
mod table;

pub use fault::FailurePolicy;
pub use immediate::ImmediateEngine;
pub use schemble::{AnytimePolicy, SchembleEngine};
pub use schemble_metrics::EngineStats;

use crate::backend::{BackendEvent, ExecutionBackend};
use schemble_data::Query;
use schemble_metrics::QueryRecord;
use schemble_sim::SimTime;

/// A query released by one shard engine for adoption by another, carrying
/// the admission state that must survive the transfer. The thief re-plans
/// the query but never re-scores it: the discrepancy prediction is a pure
/// function of the sample, so carrying the score keeps the transfer free
/// *and* keeps scoring byte-identical to a run without stealing.
#[derive(Debug, Clone)]
pub struct StolenQuery {
    /// The query itself, keeping its *original* arrival time and deadline —
    /// a transfer buys capacity, never extra slack.
    pub query: Query,
    /// Predicted discrepancy score, already clamped to `[0, 1]`.
    pub score: f64,
    /// Difficulty bin of `score` under the utility profile.
    pub bin: u8,
}

/// Where a stolen query came from; stamped into the thief's
/// [`TraceEvent::QueryStolen`] so lineage survives into every export.
///
/// [`TraceEvent::QueryStolen`]: schemble_trace::TraceEvent::QueryStolen
#[derive(Debug, Clone, Copy)]
pub struct StealLineage {
    /// Steal-epoch index (0-based) at whose boundary the transfer happened.
    pub epoch: u32,
    /// Shard the query was released from.
    pub victim: u16,
    /// Shard that adopted it.
    pub thief: u16,
    /// Victim's eligible-queue depth in the epoch snapshot.
    pub victim_depth: u32,
    /// Thief's eligible-queue depth in the epoch snapshot.
    pub thief_depth: u32,
}

/// A pipeline's decision logic as a state machine over backend events.
///
/// The driver (DES loop or serving runtime) owns the backend, feeds every
/// event through [`PipelineEngine::handle`], and finally collects records.
pub trait PipelineEngine {
    /// Processes one event and issues any resulting backend actions.
    fn handle(&mut self, event: BackendEvent, now: SimTime, backend: &mut dyn ExecutionBackend);

    /// Queries admitted but not yet completed or expired.
    fn open_count(&self) -> usize;

    /// The next instant at which the engine needs a [`BackendEvent::Wake`]
    /// even if nothing completes or arrives (pending plan, predictor
    /// completion, earliest deadline). `None` when no timer is needed.
    fn next_wake_hint(&self, now: SimTime) -> Option<SimTime>;

    /// Closes out queries that can no longer make progress (end of trace,
    /// no running tasks). Their records keep the default `Missed` outcome.
    fn drain(&mut self, now: SimTime);

    /// Takes the per-query records accumulated so far.
    fn take_records(&mut self) -> Vec<QueryRecord>;

    /// Current outcome counters.
    fn stats(&self) -> EngineStats;

    /// Drains `(query id, latency secs)` pairs of queries completed since
    /// the last call — the runtime feeds these into its latency histogram.
    fn take_completions(&mut self) -> Vec<(u64, f64)>;

    /// This engine's admitted-but-unplanned backlog as
    /// `(depth, predicted_us)`: how many steal-eligible queries it holds
    /// (admitted, scored, no task started) and the sum of their predicted
    /// service demands in integer microseconds. Pure and side-effect free —
    /// the steal coordinator snapshots every shard with it at each epoch
    /// boundary. Engines that cannot release work report `(0, 0)`.
    fn steal_backlog(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Releases up to `count` steal-eligible queries — latest deadlines
    /// first, so the victim keeps the work it is most likely to finish in
    /// time — removing them from this engine entirely. Default: releases
    /// nothing (paired with the `(0, 0)` backlog above).
    fn release_for_steal(&mut self, count: usize, now: SimTime) -> Vec<StolenQuery> {
        let _ = (count, now);
        Vec::new()
    }

    /// Adopts a query released by another engine, assigning it a fresh
    /// local id (returned). The caller re-plans afterwards via
    /// [`PipelineEngine::on_rebalanced`]. Engines reporting a `(0, 0)`
    /// backlog are never paired as thieves, so the default is unreachable
    /// under the coordinator's protocol.
    fn adopt_stolen(&mut self, stolen: StolenQuery, lineage: StealLineage, now: SimTime) -> u64 {
        let _ = (stolen, lineage, now);
        unreachable!("this engine does not participate in work stealing")
    }

    /// Re-plans after an epoch rebalance changed this engine's buffer
    /// (released and/or adopted queries). Called at most once per engine
    /// per epoch, and only when it transferred at least one query — a
    /// zero-transfer epoch leaves the engine byte-untouched.
    fn on_rebalanced(&mut self, now: SimTime, backend: &mut dyn ExecutionBackend) {
        let _ = (now, backend);
    }
}
