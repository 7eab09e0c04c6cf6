//! Task-failure bookkeeping shared by both engines: the retry policy and the
//! per-query fault book (failures per model, retry gate, degradation mark).

use schemble_sim::{SimDuration, SimTime};

/// Retry and degradation knobs for fault-tolerant runs.
///
/// Engines handle [`BackendEvent::TaskFailed`](crate::backend::BackendEvent)
/// with [`FailurePolicy::default`] even when a config carries `None`, so a
/// fault injected into any run is absorbed rather than fatal. But only an
/// explicit policy opts into *deadline-aware degradation* (answering with the
/// outputs in hand the moment the deadline arrives); with `None` and no
/// faults, every decision is identical to a build without this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailurePolicy {
    /// Re-dispatch a failed task at most this many times before its model
    /// is dropped from the query's set.
    pub max_retries: u32,
    /// Base retry delay of [`SchembleEngine`](super::SchembleEngine), which
    /// dispatches on idle: retry attempt `a` is held back `backoff * 2^(a-1)`.
    /// [`ImmediateEngine`](super::ImmediateEngine) ignores it — a failed task
    /// rejoins the FIFO queue of the least-loaded live instance of its model
    /// at once, and that queue's backlog is the delay.
    pub backoff: SimDuration,
}

impl Default for FailurePolicy {
    fn default() -> Self {
        Self { max_retries: 2, backoff: SimDuration::from_millis(2) }
    }
}

impl FailurePolicy {
    /// How long retry attempt `attempt` (from 1) is held back.
    pub(super) fn delay(&self, attempt: u32) -> SimDuration {
        SimDuration::from_micros(
            self.backoff.as_micros().saturating_mul(1u64 << (attempt - 1).min(16)),
        )
    }
}

/// Per-query failure bookkeeping. Vectors stay empty (no allocation) until
/// the query's first task failure.
#[derive(Debug, Default)]
pub(super) struct FaultBook {
    /// Failures seen per base model.
    pub(super) attempts: Vec<u8>,
    /// Pending backoff deadline per base model; gates re-dispatch.
    pub(super) retry_at: Vec<Option<SimTime>>,
    /// The query lost at least one planned model to faults or its deadline.
    pub(super) degraded: bool,
}

impl FaultBook {
    /// Books one more failure of model `k` (of `m`) and returns how many it
    /// has had on this query.
    pub(super) fn fail(&mut self, k: usize, m: usize) -> u8 {
        if self.attempts.len() < m {
            self.attempts.resize(m, 0);
            self.retry_at.resize(m, None);
        }
        self.attempts[k] = self.attempts[k].saturating_add(1);
        self.attempts[k]
    }

    pub(super) fn attempts(&self, k: usize) -> u8 {
        self.attempts.get(k).copied().unwrap_or(0)
    }

    pub(super) fn retry_pending(&self, k: usize) -> Option<SimTime> {
        self.retry_at.get(k).copied().flatten()
    }

    /// Lifts model `k`'s retry gate (it was re-dispatched, or quit).
    pub(super) fn clear_retry(&mut self, k: usize) {
        if let Some(slot) = self.retry_at.get_mut(k) {
            *slot = None;
        }
    }
}
