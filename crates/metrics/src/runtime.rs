//! Live metrics for the serving runtime (`schemble-serve`): one plain record
//! behind one lock.
//!
//! The record's counters are the run's own counts, declared here once: the
//! engine's [`EngineStats`] and the executor bank's [`TaskCounters`]
//! (`schemble-core` re-exports both at their old paths). Beside them sit a
//! row of [`ExecutorGauges`] per executor and the latency and batch-size
//! [`LatencyHistogram`]s. Only the runtime's scheduler thread writes the
//! record; an observer (the periodic reporter, the exporter after the run)
//! locks it and reads one consistent instant.

use crate::histogram::LatencyHistogram;
use std::sync::{Mutex, MutexGuard};

/// Live query-outcome counters, maintained incrementally by every engine.
///
/// Conservation invariant (the serve runtime's property tests check it):
/// `submitted + stolen_in == completed + degraded + rejected + expired +
/// stolen_out + open`, with `open` reaching zero once the engine has
/// drained. Without work stealing both `stolen_*` terms are zero and this
/// is the familiar `submitted == terminals + open`; with it, summing
/// per-shard stats cancels the transfer terms (every release is someone's
/// adoption), so the *global* invariant is unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Arrival events handled.
    pub submitted: u64,
    /// Queries completed with an assembled result.
    pub completed: u64,
    /// Queries answered from a partial ensemble after task failures or a
    /// deadline cut the planned set short.
    pub degraded: u64,
    /// Queries refused at arrival by admission control.
    pub rejected: u64,
    /// Queries dropped after admission (deadline or end-of-trace).
    pub expired: u64,
    /// Task executions that failed (transient fault, timeout or crash).
    /// Not part of conservation: a failure may be retried.
    pub tasks_failed: u64,
    /// Failed tasks that were re-dispatched.
    pub tasks_retried: u64,
    /// Planned tasks quit before completing because the anytime policy
    /// judged the partial ensemble already confident enough. Not part of
    /// conservation: the query itself still completes.
    pub tasks_saved: u64,
    /// Queries adopted from another shard engine by work stealing.
    pub stolen_in: u64,
    /// Queries released to another shard engine by work stealing.
    pub stolen_out: u64,
}

impl EngineStats {
    /// Queries owned by this engine but not yet decided.
    pub fn open(&self) -> u64 {
        (self.submitted + self.stolen_in)
            - (self.completed + self.degraded + self.rejected + self.expired + self.stolen_out)
    }

    /// Adds `other`'s counts to `self`. Addition commutes, so folding any
    /// number of per-shard stats in any order gives the same global stats.
    pub fn merge(&mut self, other: &EngineStats) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.degraded += other.degraded;
        self.rejected += other.rejected;
        self.expired += other.expired;
        self.tasks_failed += other.tasks_failed;
        self.tasks_retried += other.tasks_retried;
        self.tasks_saved += other.tasks_saved;
        self.stolen_in += other.stolen_in;
        self.stolen_out += other.stolen_out;
    }
}

/// Lifetime task totals across an executor bank's executors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskCounters {
    /// Tasks that began executing (batch members count individually).
    pub started: u64,
    /// Tasks that completed.
    pub completed: u64,
    /// Tasks launched as members of a batch.
    pub batched: u64,
}

impl TaskCounters {
    /// Adds `other`'s counts to `self`.
    pub fn merge(&mut self, other: &TaskCounters) {
        self.started += other.started;
        self.completed += other.completed;
        self.batched += other.batched;
    }
}

/// One executor's gauges, as the bank last reported them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorGauges {
    /// Tasks waiting in the executor's FIFO backlog.
    pub queue_depth: u64,
    /// 1 while a task is running, 0 while idle.
    pub running: u64,
    /// 1 while the executor is up, 0 while crashed/dead.
    pub up: u64,
    /// Cumulative busy time, in simulated microseconds.
    pub busy_micros: u64,
    /// Tasks completed by this executor.
    pub tasks: u64,
}

impl Default for ExecutorGauges {
    fn default() -> Self {
        Self { queue_depth: 0, running: 0, up: 1, busy_micros: 0, tasks: 0 }
    }
}

impl ExecutorGauges {
    /// Fraction of `elapsed_secs` the executor was busy (0 before any time
    /// has passed).
    pub fn utilization(&self, elapsed_secs: f64) -> f64 {
        if elapsed_secs > 0.0 {
            (self.busy_micros as f64 / 1e6 / elapsed_secs).min(1.0)
        } else {
            0.0
        }
    }
}

/// What the runtime has counted of one run.
#[derive(Debug, Default)]
pub struct RuntimeRecord {
    /// The engine's query-outcome counters.
    pub stats: EngineStats,
    /// The executor bank's task totals.
    pub tasks: TaskCounters,
    /// Per-executor gauges.
    pub executors: Vec<ExecutorGauges>,
    /// End-to-end latency of answered queries.
    pub latency: LatencyHistogram,
    /// Size of each launched batch. The histogram machinery is shared with
    /// latency, so "observations" here are batch sizes (1, 2, …), not
    /// seconds; the log-spaced buckets resolve sizes up to the low hundreds.
    pub batch_size: LatencyHistogram,
}

/// The runtime's [`RuntimeRecord`], shared between the scheduler thread
/// that writes it and the observers that read it.
#[derive(Debug)]
pub struct RuntimeMetrics(Mutex<RuntimeRecord>);

impl RuntimeMetrics {
    /// Metrics for a runtime with `executors` executors (all up and idle
    /// until the first report).
    pub fn new(executors: usize) -> Self {
        let executors = vec![ExecutorGauges::default(); executors];
        Self(Mutex::new(RuntimeRecord { executors, ..RuntimeRecord::default() }))
    }

    /// Locks the record. Every write leaves it valid (whole-struct stores,
    /// histogram records), so a lock poisoned by a panicking writer is
    /// recovered: a later report shows the counts as they stood.
    pub fn lock(&self) -> MutexGuard<'_, RuntimeRecord> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Aggregates per-shard metrics into one view: counters and histograms
    /// are summed (order-insensitive), executor gauges concatenated in the
    /// order given, so shard `s`'s executor `k` lands at global index
    /// `s * m + k`.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a RuntimeMetrics>) -> RuntimeMetrics {
        let mut out = RuntimeRecord::default();
        for part in parts {
            let part = part.lock();
            out.stats.merge(&part.stats);
            out.tasks.merge(&part.tasks);
            out.executors.extend_from_slice(&part.executors);
            out.latency.merge(&part.latency);
            out.batch_size.merge(&part.batch_size);
        }
        RuntimeMetrics(Mutex::new(out))
    }

    /// A consistent copy of the query counters and gauges. `elapsed_secs`
    /// is the (simulated) time base for utilisation; pass the run's elapsed
    /// time.
    pub fn snapshot(&self, elapsed_secs: f64) -> RuntimeSnapshot {
        let r = self.lock();
        RuntimeSnapshot { stats: r.stats, executors: r.executors.clone(), elapsed_secs }
    }
}

/// A point-in-time copy of a [`RuntimeRecord`]'s query counters and gauges,
/// what the periodic reporter prints.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeSnapshot {
    /// The engine's query-outcome counters.
    pub stats: EngineStats,
    /// Per-executor gauges.
    pub executors: Vec<ExecutorGauges>,
    /// Simulated seconds elapsed at the copy, the utilisation base.
    pub elapsed_secs: f64,
}

impl RuntimeSnapshot {
    /// One-line human-readable form for periodic progress output.
    pub fn brief(&self) -> String {
        let s = &self.stats;
        format!(
            "submitted {} | completed {} | degraded {} | rejected {} | expired {} | open {} | queues {:?} | util {}",
            s.submitted,
            s.completed,
            s.degraded,
            s.rejected,
            s.expired,
            s.open(),
            self.executors.iter().map(|e| e.queue_depth).collect::<Vec<_>>(),
            self.executors
                .iter()
                .map(|e| format!("{:.0}%", e.utilization(self.elapsed_secs) * 100.0))
                .collect::<Vec<_>>()
                .join("/"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degraded_queries_are_closed_and_steals_balance_open() {
        let s = EngineStats {
            submitted: 10,
            completed: 5,
            degraded: 1,
            rejected: 1,
            expired: 2,
            stolen_in: 3,
            stolen_out: 2,
            ..EngineStats::default()
        };
        assert_eq!(s.open(), 2, "degraded queries are closed, adoptions are owned");
    }

    #[test]
    fn merged_metrics_concatenate_executors_and_sum_counts() {
        let s0 = RuntimeMetrics::new(2);
        let s1 = RuntimeMetrics::new(2);
        {
            let (mut r0, mut r1) = (s0.lock(), s1.lock());
            r0.stats = EngineStats { submitted: 5, completed: 6, stolen_in: 1, ..r0.stats };
            r1.stats = EngineStats { submitted: 3, completed: 2, stolen_out: 1, ..r1.stats };
            r0.tasks = TaskCounters { started: 7, completed: 6, batched: 2 };
            r1.tasks = TaskCounters { started: 1, completed: 1, batched: 0 };
            r0.latency.record(0.010);
            r1.latency.record(0.020);
            r0.executors[1].busy_micros = 250_000;
            r1.executors[0].busy_micros = 750_000;
            r1.executors[1].up = 0;
        }
        let forward = RuntimeMetrics::merged([&s0, &s1]);
        let backward = RuntimeMetrics::merged([&s1, &s0]);
        let (f, b) = (forward.lock(), backward.lock());
        assert_eq!((f.stats, f.tasks), (b.stats, b.tasks), "sums do not depend on order");
        assert_eq!((f.stats.submitted, f.stats.open()), (8, 0), "transfers cancel globally");
        assert_eq!(f.tasks, TaskCounters { started: 8, completed: 7, batched: 2 });
        assert_eq!(f.latency.count(), 2);
        let up: Vec<u64> = f.executors.iter().map(|e| e.up).collect();
        assert_eq!(up, [1, 1, 1, 0]);
        assert!((f.executors[1].utilization(1.0) - 0.25).abs() < 1e-9);
        assert!((f.executors[2].utilization(1.0) - 0.75).abs() < 1e-9, "shard 1 executor 0");
    }

    #[test]
    fn snapshot_reflects_gauges() {
        let m = RuntimeMetrics::new(2);
        {
            let mut r = m.lock();
            r.stats.submitted = 3;
            r.executors[1].queue_depth = 4;
            r.executors[0].busy_micros = 500_000;
        }
        let s = m.snapshot(1.0);
        assert_eq!(s.executors[1].queue_depth, 4);
        assert!((s.executors[0].utilization(1.0) - 0.5).abs() < 1e-9);
        assert_eq!(s.executors[0].utilization(0.0), 0.0, "no time, no utilisation");
        assert_eq!(
            s.brief(),
            "submitted 3 | completed 0 | degraded 0 | rejected 0 | expired 0 | open 3 \
             | queues [0, 4] | util 50%/0%"
        );
    }
}
