//! The trace event vocabulary: one span-able event per step of a query's
//! lifecycle, timestamped in **backend time** ([`SimTime`] — virtual time in
//! the DES, dilated simulated time in the wall-clock runtime), so traces
//! from both substrates are directly comparable.
//!
//! Events are deliberately `Copy` and free of wall-clock measurements: a
//! virtual-clock serve run and a DES pipeline run over the same seeded
//! trace produce *identical* event streams (the `trace_export` integration
//! test pins this). Anything timing-dependent — the scheduler's real
//! planning time — lives in [`crate::sink::PlanningProfile`] instead.

use schemble_sim::{SimDuration, SimTime};

/// What admission control decided when a query arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// Buffered for planning (the Schemble pipeline's deferred decision).
    Buffered,
    /// §VIII fast path: dispatched straight to an idle executor, bypassing
    /// the predictor and the scheduler.
    FastPath {
        /// The executor it ran on.
        executor: u16,
    },
    /// An immediate-selection policy chose this model subset at arrival.
    Selected {
        /// Chosen subset as a `ModelSet` bit mask (see `schemble-models`).
        set: u32,
    },
    /// Refused at arrival (estimated completion past the deadline).
    Rejected,
}

impl AdmissionVerdict {
    /// The verdict's name in every export (audit, chrome, explain, recorder).
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionVerdict::Buffered => "buffered",
            AdmissionVerdict::FastPath { .. } => "fast-path",
            AdmissionVerdict::Selected { .. } => "selected",
            AdmissionVerdict::Rejected => "rejected",
        }
    }
}

/// One event in a query's lifecycle or the scheduler's own activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A query arrived at the pipeline.
    Arrival {
        /// Event time.
        t: SimTime,
        /// Query id.
        query: u64,
        /// The query's absolute deadline.
        deadline: SimTime,
    },
    /// Admission control decided the query's fate at arrival.
    Admission {
        /// Event time.
        t: SimTime,
        /// Query id.
        query: u64,
        /// The decision.
        verdict: AdmissionVerdict,
    },
    /// The buffer scheduler produced a plan (one DP/greedy invocation).
    Plan {
        /// Event time (plan input instant).
        t: SimTime,
        /// Queries in the unstarted buffer the plan covered.
        buffer: u32,
        /// How many of them received a non-empty model set.
        scheduled: u32,
        /// Abstract work units the scheduler consumed.
        work: u64,
        /// Simulated scheduling cost charged before the plan takes effect.
        cost: SimDuration,
    },
    /// A task joined an executor's FIFO backlog (immediate pipelines).
    TaskEnqueue {
        /// Event time.
        t: SimTime,
        /// Query the task belongs to.
        query: u64,
        /// Executor index.
        executor: u16,
    },
    /// A task began executing on an executor.
    TaskStart {
        /// Event time.
        t: SimTime,
        /// Query the task belongs to.
        query: u64,
        /// Executor index.
        executor: u16,
    },
    /// A task finished executing.
    TaskDone {
        /// Event time.
        t: SimTime,
        /// Query the task belongs to.
        query: u64,
        /// Executor index.
        executor: u16,
    },
    /// The query completed with a result assembled over `set`.
    QueryDone {
        /// Event time.
        t: SimTime,
        /// Query id.
        query: u64,
        /// The (possibly shrunk) model set the result was assembled from.
        set: u32,
    },
    /// The query was dropped after admission (deadline passed before any
    /// task started, or end of trace).
    QueryExpired {
        /// Event time.
        t: SimTime,
        /// Query id.
        query: u64,
    },
    /// A task failed (transient fault, timeout kill, or executor crash)
    /// instead of completing.
    TaskFailed {
        /// Event time.
        t: SimTime,
        /// Query the task belongs to.
        query: u64,
        /// Executor index.
        executor: u16,
    },
    /// A previously failed task was re-dispatched after backoff.
    TaskRetried {
        /// Event time.
        t: SimTime,
        /// Query the task belongs to.
        query: u64,
        /// Executor index it restarts on.
        executor: u16,
        /// Retry attempt number (1 = first retry).
        attempt: u8,
    },
    /// An executor was marked down (fault-plan crash window opened, or its
    /// worker thread died).
    ExecutorDown {
        /// Event time.
        t: SimTime,
        /// Executor index.
        executor: u16,
    },
    /// A down executor recovered.
    ExecutorUp {
        /// Event time.
        t: SimTime,
        /// Executor index.
        executor: u16,
    },
    /// The query was answered from a *partial* ensemble: some of its planned
    /// tasks failed permanently or its deadline arrived first, and the
    /// runtime assembled a result from the outputs that did complete.
    DegradedAnswer {
        /// Event time.
        t: SimTime,
        /// Query id.
        query: u64,
        /// The model subset the degraded result was assembled from.
        set: u32,
    },
    /// The difficulty predictor scored a buffered query at admission.
    ///
    /// Carries the *predicted* difficulty in fixed point so the event stream
    /// stays integer-exact (and therefore byte-identical) across backends.
    Scored {
        /// Event time.
        t: SimTime,
        /// Query id.
        query: u64,
        /// Predicted difficulty bin (`AccuracyProfile::bin_of`).
        bin: u8,
        /// Predicted discrepancy score × 10^6, clamped to `[0, 10^6]`.
        score_fp: u32,
    },
    /// A planning pass (re-)assigned this query's model set.
    ///
    /// Emitted only when the assignment *changed*, so the stream records the
    /// plan lineage of each query without repeating unchanged decisions on
    /// every re-plan. Emitted only while the sink is observing (enabled or
    /// tapped) — the predicted-finish replay is explain-only work.
    PlanAssign {
        /// Event time (the plan's input instant).
        t: SimTime,
        /// Query id.
        query: u64,
        /// Newly assigned model set (bit mask; may be empty on revocation).
        set: u32,
        /// Predicted completion instant of the assigned set, replayed from
        /// the plan's own availability model (`ScheduleInput::completions`).
        predicted_finish: SimTime,
        /// Candidate-frontier width of the planning pass that produced the
        /// assignment (`SchedulePlan::frontier`; 0 = untracked scheduler).
        frontier: u32,
    },
    /// The assembled result was evaluated: the *realized* discrepancy.
    ///
    /// The drift-detection counterpart of [`TraceEvent::Scored`], emitted
    /// just before the query's terminal `QueryDone`/`DegradedAnswer`.
    Realized {
        /// Event time.
        t: SimTime,
        /// Query id.
        query: u64,
        /// Realized discrepancy score × 10^6, clamped to `[0, 10^6]`.
        score_fp: u32,
        /// Whether the assembled answer was correct.
        correct: bool,
    },
    /// A planned task was quit by the anytime policy before completing: the
    /// partial vote was already confident enough (or the deadline margin too
    /// thin) to justify running it. One event per shed task.
    TaskQuit {
        /// Event time.
        t: SimTime,
        /// Query the shed task belonged to.
        query: u64,
        /// Executor index the task was planned (or running) on.
        executor: u16,
    },
    /// Summary of one anytime early-exit decision: `saved` tasks of `query`
    /// were shed in this pass. Emitted once after the per-task
    /// [`TraceEvent::TaskQuit`] events.
    WorkSaved {
        /// Event time.
        t: SimTime,
        /// Query id.
        query: u64,
        /// Number of planned tasks shed.
        saved: u32,
    },
    /// An executor launched a batch of `size` coalesced tasks. Emitted at
    /// the launch instant, after the members' [`TraceEvent::TaskStart`]
    /// events (which all share this timestamp — that shared instant is how
    /// exporters recover batch membership).
    BatchFormed {
        /// Event time (the batch's launch instant).
        t: SimTime,
        /// Executor index.
        executor: u16,
        /// Monotonic per-backend batch id.
        batch: u64,
        /// Number of member tasks.
        size: u32,
    },
    /// A queued query was transferred between shard engines at a work-steal
    /// epoch boundary. Emitted once, by the **thief**, at the instant it
    /// adopts the query; carries enough of the query's admission state
    /// (arrival, deadline, difficulty bin, score) for downstream exporters
    /// to seed the thief-side record without replaying the victim's stream.
    QueryStolen {
        /// Event time (the epoch boundary the transfer resolved at).
        t: SimTime,
        /// Query id.
        query: u64,
        /// Steal epoch index (`boundary / epoch length`).
        epoch: u32,
        /// Shard the query was admitted on (its home shard).
        victim: u16,
        /// Shard that adopted and will serve the query.
        thief: u16,
        /// Steal-eligible queue depth the victim published this epoch.
        victim_depth: u32,
        /// Steal-eligible queue depth the thief published this epoch.
        thief_depth: u32,
        /// The query's original arrival time (travels with the transfer).
        arrival: SimTime,
        /// The query's absolute deadline (unchanged by the transfer).
        deadline: SimTime,
        /// Predicted difficulty bin carried from the victim's admission.
        bin: u8,
        /// Predicted discrepancy score × 10^6 carried from admission.
        score_fp: u32,
    },
}

/// `score` as the fixed-point (× 10^6) representation used by
/// [`TraceEvent::Scored`] / [`TraceEvent::Realized`].
pub fn score_fixed_point(score: f64) -> u32 {
    (score.clamp(0.0, 1.0) * 1e6).round() as u32
}

/// Which variants carry a query id / an executor index; borrows as `$ev` does.
macro_rules! ids {
    ($ev:expr) => {
        match $ev {
            TraceEvent::Admission {
                query,
                verdict: AdmissionVerdict::FastPath { executor },
                ..
            }
            | TraceEvent::TaskEnqueue { query, executor, .. }
            | TraceEvent::TaskStart { query, executor, .. }
            | TraceEvent::TaskDone { query, executor, .. }
            | TraceEvent::TaskFailed { query, executor, .. }
            | TraceEvent::TaskRetried { query, executor, .. }
            | TraceEvent::TaskQuit { query, executor, .. } => (Some(query), Some(executor)),
            TraceEvent::Arrival { query, .. }
            | TraceEvent::Admission { query, .. }
            | TraceEvent::QueryDone { query, .. }
            | TraceEvent::QueryExpired { query, .. }
            | TraceEvent::DegradedAnswer { query, .. }
            | TraceEvent::Scored { query, .. }
            | TraceEvent::PlanAssign { query, .. }
            | TraceEvent::Realized { query, .. }
            | TraceEvent::WorkSaved { query, .. }
            | TraceEvent::QueryStolen { query, .. } => (Some(query), None),
            TraceEvent::ExecutorDown { executor, .. }
            | TraceEvent::ExecutorUp { executor, .. }
            | TraceEvent::BatchFormed { executor, .. } => (None, Some(executor)),
            TraceEvent::Plan { .. } => (None, None),
        }
    };
}

impl TraceEvent {
    /// The event's timestamp in backend time.
    pub fn time(&self) -> SimTime {
        match *self {
            TraceEvent::Arrival { t, .. }
            | TraceEvent::Admission { t, .. }
            | TraceEvent::Plan { t, .. }
            | TraceEvent::TaskEnqueue { t, .. }
            | TraceEvent::TaskStart { t, .. }
            | TraceEvent::TaskDone { t, .. }
            | TraceEvent::QueryDone { t, .. }
            | TraceEvent::QueryExpired { t, .. }
            | TraceEvent::TaskFailed { t, .. }
            | TraceEvent::TaskRetried { t, .. }
            | TraceEvent::ExecutorDown { t, .. }
            | TraceEvent::ExecutorUp { t, .. }
            | TraceEvent::DegradedAnswer { t, .. }
            | TraceEvent::Scored { t, .. }
            | TraceEvent::PlanAssign { t, .. }
            | TraceEvent::Realized { t, .. }
            | TraceEvent::TaskQuit { t, .. }
            | TraceEvent::WorkSaved { t, .. }
            | TraceEvent::BatchFormed { t, .. }
            | TraceEvent::QueryStolen { t, .. } => t,
        }
    }

    /// The query the event concerns, if it is query-scoped.
    pub fn query(&self) -> Option<u64> {
        ids!(self).0.copied()
    }

    /// The event's query id and executor index (a fast-path verdict's
    /// included; `QueryStolen`'s victim/thief are shard ids), for renumbering.
    pub fn ids_mut(&mut self) -> (Option<&mut u64>, Option<&mut u16>) {
        ids!(self)
    }
}

/// Model indices contained in a `ModelSet` bit mask (ascending).
pub fn set_members(mask: u32) -> Vec<u16> {
    (0..32).filter(|k| mask & (1 << k) != 0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_cover_every_variant() {
        let t = SimTime::from_millis(5);
        let events = [
            TraceEvent::Arrival { t, query: 1, deadline: SimTime::from_millis(9) },
            TraceEvent::Admission { t, query: 1, verdict: AdmissionVerdict::Buffered },
            TraceEvent::Plan { t, buffer: 2, scheduled: 1, work: 10, cost: SimDuration::ZERO },
            TraceEvent::TaskEnqueue { t, query: 1, executor: 0 },
            TraceEvent::TaskStart { t, query: 1, executor: 0 },
            TraceEvent::TaskDone { t, query: 1, executor: 0 },
            TraceEvent::QueryDone { t, query: 1, set: 0b101 },
            TraceEvent::QueryExpired { t, query: 1 },
            TraceEvent::TaskFailed { t, query: 1, executor: 0 },
            TraceEvent::TaskRetried { t, query: 1, executor: 0, attempt: 1 },
            TraceEvent::ExecutorDown { t, executor: 0 },
            TraceEvent::ExecutorUp { t, executor: 0 },
            TraceEvent::DegradedAnswer { t, query: 1, set: 0b1 },
            TraceEvent::Scored { t, query: 1, bin: 3, score_fp: 312_500 },
            TraceEvent::PlanAssign {
                t,
                query: 1,
                set: 0b11,
                predicted_finish: SimTime::from_millis(8),
                frontier: 4,
            },
            TraceEvent::Realized { t, query: 1, score_fp: 250_000, correct: true },
            TraceEvent::TaskQuit { t, query: 1, executor: 0 },
            TraceEvent::WorkSaved { t, query: 1, saved: 2 },
            TraceEvent::BatchFormed { t, executor: 0, batch: 3, size: 4 },
            TraceEvent::QueryStolen {
                t,
                query: 1,
                epoch: 2,
                victim: 0,
                thief: 1,
                victim_depth: 5,
                thief_depth: 0,
                arrival: SimTime::from_millis(4),
                deadline: SimTime::from_millis(9),
                bin: 3,
                score_fp: 312_500,
            },
        ];
        for ev in events {
            assert_eq!(ev.time(), t);
            match ev {
                TraceEvent::Plan { .. }
                | TraceEvent::ExecutorDown { .. }
                | TraceEvent::ExecutorUp { .. }
                | TraceEvent::BatchFormed { .. } => assert_eq!(ev.query(), None),
                _ => assert_eq!(ev.query(), Some(1)),
            }
        }
    }

    #[test]
    fn score_fixed_point_clamps_and_rounds() {
        assert_eq!(score_fixed_point(0.0), 0);
        assert_eq!(score_fixed_point(1.0), 1_000_000);
        assert_eq!(score_fixed_point(2.5), 1_000_000);
        assert_eq!(score_fixed_point(-0.1), 0);
        assert_eq!(score_fixed_point(0.3125), 312_500);
    }

    #[test]
    fn set_members_decodes_masks() {
        assert_eq!(set_members(0), Vec::<u16>::new());
        assert_eq!(set_members(0b101), vec![0, 2]);
        assert_eq!(set_members(0b110), vec![1, 2]);
    }
}
