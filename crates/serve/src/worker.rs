//! Per-executor worker threads.
//!
//! Each executor (base-model instance) gets one OS thread that realises
//! synthetic model latencies as actual (dilated) waits. Work reaches a
//! worker over a **bounded** channel sized for the single running job —
//! backlogs, batches and fates live in the backend's
//! [`ExecutorBank`](schemble_core::executor::ExecutorBank), which hands a
//! worker one job per *pass*, keyed by the pass id (the `query` field of the
//! messages below is an opaque `u64` key the worker echoes back). Reports
//! flow back to the runtime over a shared bounded channel, so a stalled
//! scheduler exerts backpressure instead of accumulating unbounded buffers.
//!
//! A worker times its job by waiting on its own channel
//! ([`precise_recv_timeout`]) rather than sleeping: the backend submits only
//! to an executor its bank sees idle, so a message arriving mid-job means
//! the bank has killed the pass (a crash or a cancel). The worker abandons
//! it unreported and handles the message — the next pass starts on time
//! instead of after the dead one's sleep.
//!
//! A job submitted with `failed = true` still occupies the worker for its
//! time but reports [`RuntimeMsg::TaskFailed`] instead of
//! [`RuntimeMsg::TaskDone`]. A worker thread that *dies* (panics) is visible
//! through [`WorkerPool::is_finished`]; the backend folds that into the
//! executor-down path.

use crate::clock::precise_recv_timeout;
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::thread::JoinHandle;
use std::time::Duration;

/// Messages to a worker thread.
pub enum WorkerMsg {
    /// Realise one task: wait out `wall`, then report completion or
    /// failure. Any message arriving first abandons the task unreported.
    Run {
        /// Query the task belongs to.
        query: u64,
        /// Dilated wall-clock execution time.
        wall: Duration,
        /// The task's predetermined fate: report `TaskFailed` instead of
        /// `TaskDone` after the wait.
        failed: bool,
    },
    /// Panic the worker thread. Fault-injection instrumentation: lets tests
    /// prove a dead worker is detected and degraded around, not hung on.
    Poison,
    /// Exit the worker loop.
    Shutdown,
}

/// Worker reports into the runtime's wall-clock event source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeMsg {
    /// `executor` finished its task for `query`.
    TaskDone {
        /// Executor index.
        executor: usize,
        /// Query id.
        query: u64,
    },
    /// `executor`'s task for `query` failed (transient fault or timeout).
    TaskFailed {
        /// Executor index.
        executor: usize,
        /// Query id.
        query: u64,
    },
}

/// Handles to the spawned worker threads.
pub struct WorkerPool {
    senders: Vec<SyncSender<WorkerMsg>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns one worker per executor, reporting completions to `done_tx`.
    pub fn spawn(executors: usize, done_tx: SyncSender<RuntimeMsg>) -> Self {
        let mut senders = Vec::with_capacity(executors);
        let mut handles = Vec::with_capacity(executors);
        for executor in 0..executors {
            // Small bound: a running job's worker takes the next message at
            // once, so the slot normally holds at most one. Back-to-back
            // kills and resubmits can outpace the worker being scheduled,
            // so leave a little headroom before try_send would fail.
            let (tx, rx) = std::sync::mpsc::sync_channel::<WorkerMsg>(8);
            let done = done_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("schemble-worker-{executor}"))
                .spawn(move || worker_loop(executor, rx, done))
                .expect("spawn worker thread");
            senders.push(tx);
            handles.push(handle);
        }
        Self { senders, handles }
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.senders.len()
    }

    /// True when the pool has no workers.
    pub fn is_empty(&self) -> bool {
        self.senders.is_empty()
    }

    /// True when `executor`'s thread has exited — after [`Self::shutdown`],
    /// or because it panicked. The runtime polls this to detect dead
    /// workers and mark their executors down.
    pub fn is_finished(&self, executor: usize) -> bool {
        self.handles[executor].is_finished()
    }

    /// Hands `executor` a task, abandoning the one it is timing, if any.
    /// Panics if the worker's slot is full — the backend must only submit
    /// to idle executors (non-preemptive contract), so a job still running
    /// is one the bank has killed.
    pub fn submit(&self, executor: usize, query: u64, wall: Duration, failed: bool) {
        self.senders[executor]
            .try_send(WorkerMsg::Run { query, wall, failed })
            .expect("submitted to a busy executor");
    }

    /// Makes `executor`'s thread panic (fault injection for tests).
    pub fn poison(&self, executor: usize) {
        let _ = self.senders[executor].try_send(WorkerMsg::Poison);
    }

    /// Stops all workers and joins them. A job still running is abandoned
    /// unreported, not waited out.
    pub fn shutdown(self) {
        for tx in &self.senders {
            // A worker gone after a disconnect (panic) is already stopped.
            let _ = tx.send(WorkerMsg::Shutdown);
        }
        drop(self.senders);
        for handle in self.handles {
            // A panicked worker joins with Err; shutdown proceeds anyway.
            let _ = handle.join();
        }
    }
}

fn worker_loop(executor: usize, rx: Receiver<WorkerMsg>, done: SyncSender<RuntimeMsg>) {
    let mut next = rx.recv();
    while let Ok(msg) = next {
        next = match msg {
            // Waiting out the pass on the channel: the backend only submits
            // to an idle executor, so a message before the deadline means
            // this pass is dead. Drop it unreported and take the message.
            WorkerMsg::Run { query, wall, failed } => match precise_recv_timeout(&rx, wall) {
                Err(RecvTimeoutError::Timeout) => {
                    let report = if failed {
                        RuntimeMsg::TaskFailed { executor, query }
                    } else {
                        RuntimeMsg::TaskDone { executor, query }
                    };
                    // The runtime dropping its receiver means shutdown; exit.
                    if done.send(report).is_err() {
                        return;
                    }
                    rx.recv()
                }
                Err(RecvTimeoutError::Disconnected) => return,
                Ok(msg) => Ok(msg),
            },
            WorkerMsg::Poison => panic!("worker {executor} poisoned (fault injection)"),
            WorkerMsg::Shutdown => return,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_realise_tasks_and_report() {
        let (done_tx, done_rx) = std::sync::mpsc::sync_channel(16);
        let pool = WorkerPool::spawn(2, done_tx);
        assert_eq!(pool.len(), 2);
        pool.submit(0, 7, Duration::from_millis(2), false);
        pool.submit(1, 8, Duration::from_millis(1), false);
        let mut got: Vec<RuntimeMsg> = (0..2).map(|_| done_rx.recv().unwrap()).collect();
        got.sort_by_key(|m| match m {
            RuntimeMsg::TaskDone { executor, .. } => *executor,
            _ => usize::MAX,
        });
        assert_eq!(
            got,
            vec![
                RuntimeMsg::TaskDone { executor: 0, query: 7 },
                RuntimeMsg::TaskDone { executor: 1, query: 8 },
            ]
        );
        pool.shutdown();
    }

    #[test]
    fn doomed_tasks_report_failure() {
        let (done_tx, done_rx) = std::sync::mpsc::sync_channel(16);
        let pool = WorkerPool::spawn(1, done_tx);
        pool.submit(0, 3, Duration::from_millis(1), true);
        assert_eq!(done_rx.recv().unwrap(), RuntimeMsg::TaskFailed { executor: 0, query: 3 });
        pool.shutdown();
    }

    #[test]
    fn poisoned_worker_is_detected_and_shutdown_survives() {
        let (done_tx, _done_rx) = std::sync::mpsc::sync_channel(16);
        let pool = WorkerPool::spawn(2, done_tx);
        assert!(!pool.is_finished(0));
        pool.poison(0);
        // The panic unwinds promptly; poll until the handle reports it.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while !pool.is_finished(0) && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(pool.is_finished(0), "dead worker must be observable");
        assert!(!pool.is_finished(1), "healthy worker unaffected");
        pool.shutdown();
    }

    #[test]
    fn shutdown_joins_idle_workers() {
        let (done_tx, _done_rx) = std::sync::mpsc::sync_channel(1);
        let pool = WorkerPool::spawn(3, done_tx);
        pool.shutdown();
    }
}
