//! The threaded execution backend.
//!
//! [`ThreadedBackend`] is the wall-clock adapter of the shared
//! [`ExecutorBank`]: the bank decides everything about an executor (draws,
//! backlog, batches, fates, cancellation, crash casualties, accounting) and
//! this type only *times* the passes the bank starts — each one becomes one
//! job on the executor's [`WorkerPool`] thread, keyed by the pass id, which
//! waits out the dilated duration and reports back. The runtime hands that
//! report to [`ThreadedBackend::retire`]. A pass killed by a crash or a
//! cancel is abandoned by its worker at the next submit, so the executor's
//! next pass is timed from its own start; a report that still races the
//! kill carries a pass id the bank no longer runs and is swallowed.
//!
//! Beside the bank live the things only a wall clock needs: the wake heap,
//! the cursor over the fault plan's crash/recovery schedule
//! ([`ThreadedBackend::take_due_fault_events`]), dead-worker detection
//! ([`ThreadedBackend::reap_dead`], permanent executor-down) and the
//! `QUEUE_CAPACITY` bound. The runtime reports from the bank itself
//! ([`ThreadedBackend::bank`]). All methods run on the runtime's scheduler
//! thread.

use crate::clock::DilatedClock;
use crate::worker::WorkerPool;
use schemble_core::backend::{BackendEvent, ExecutionBackend, ExecutorUsage};
use schemble_core::executor::{ExecutorBank, PassStart};
use schemble_sim::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-executor backlog bound; exceeding it is a bug, not backpressure.
const QUEUE_CAPACITY: usize = 4096;

/// [`ExecutionBackend`] over per-executor worker threads.
pub struct ThreadedBackend {
    bank: ExecutorBank,
    pool: WorkerPool,
    clock: DilatedClock,
    /// Pending wake-ups requested by the engine.
    wakes: BinaryHeap<Reverse<SimTime>>,
    /// Next fault-plan transition not yet surfaced.
    cursor: usize,
    /// Worker thread exited (panic); never recovers.
    dead: Vec<bool>,
}

impl ThreadedBackend {
    /// A backend timing `bank`'s executors on `pool`'s workers, one each.
    pub fn new(bank: ExecutorBank, pool: WorkerPool, clock: DilatedClock) -> Self {
        assert_eq!(pool.len(), bank.executors(), "one worker per executor");
        let dead = vec![false; bank.executors()];
        Self { bank, pool, clock, wakes: BinaryHeap::new(), cursor: 0, dead }
    }

    /// The executors this backend times (what the runtime reports from).
    pub fn bank(&self) -> &ExecutorBank {
        &self.bank
    }

    /// Access to the worker pool (fault-injection tests poison workers).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Hands a pass the bank just started on `executor` (if any) to its
    /// worker. The job is a pure timer keyed by the pass id: member fates
    /// are the bank's to apply at retirement, so it always reports
    /// `TaskDone`.
    fn run(&mut self, executor: usize, pass: Option<PassStart>) {
        if let Some(p) = pass {
            self.pool.submit(executor, p.pass, self.clock.dilate(p.duration), false);
        }
    }

    /// Applies the report of `executor`'s worker for `pass`: retires the
    /// pass's next member (starting the next backlog task after the last)
    /// and returns the event the engine must see. Call until `None`: a
    /// batched pass retires one member per call, so the engine handles each
    /// before the next retires, as in the simulator. `None` straight away
    /// means the report was stale — its pass was killed by a crash or a
    /// cancel and the engine has already been told.
    pub fn retire(&mut self, executor: usize, pass: u64, now: SimTime) -> Option<BackendEvent> {
        let retired = self.bank.retire(executor, pass, now)?;
        self.run(executor, retired.next);
        Some(retired.event)
    }

    /// Takes `executor` down, appending to `out` the events the engine must
    /// observe, `ExecutorDown` first.
    fn bring_down(&mut self, executor: usize, now: SimTime, out: &mut Vec<BackendEvent>) {
        out.push(BackendEvent::ExecutorDown { executor });
        let lost = self.bank.crash(executor, now);
        out.extend(lost.iter().map(|&query| BackendEvent::TaskFailed { executor, query }));
    }

    /// Surfaces fault-plan transitions due at or before `now` as backend
    /// events (executor down/up plus the tasks a crash killed). Call at the
    /// top of each wall-clock step, before waiting on the channel.
    pub fn take_due_fault_events(&mut self, now: SimTime) -> Vec<BackendEvent> {
        let mut out = Vec::new();
        while let Some(&tr) = self.bank.transitions().get(self.cursor).filter(|t| t.at <= now) {
            self.cursor += 1;
            if !tr.up {
                if self.bank.is_up(tr.executor) {
                    self.bring_down(tr.executor, now, &mut out);
                }
            } else if !self.dead[tr.executor] {
                // (a dead worker never recovers)
                self.bank.recover(tr.executor, now);
                out.push(BackendEvent::ExecutorUp { executor: tr.executor });
            }
        }
        out
    }

    /// Detects worker threads that died (panicked) and marks their
    /// executors permanently down, returning the resulting events. Poll
    /// this from the wall-clock source's timeout path.
    pub fn reap_dead(&mut self, now: SimTime) -> Vec<BackendEvent> {
        let mut out = Vec::new();
        for e in 0..self.dead.len() {
            if self.dead[e] || !self.pool.is_finished(e) {
                continue;
            }
            self.dead[e] = true;
            if self.bank.is_up(e) {
                self.bring_down(e, now, &mut out);
            }
        }
        out
    }

    /// Launches every open batch whose window expired at or before `now`.
    /// Poll at the top of each wall-clock step, before waiting on the channel
    /// ([`Self::next_wake`] includes the earliest launch deadline).
    pub fn launch_due_batches(&mut self, now: SimTime) {
        while let Some((_, k)) = self.bank.next_launch_due().filter(|&(due, _)| due <= now) {
            let pass = self.bank.launch_batch(k, now);
            self.run(k, Some(pass));
        }
    }

    /// True when no executor is running or holding backlog.
    pub fn all_idle(&self) -> bool {
        self.bank.all_idle()
    }

    /// Earliest pending wake-up, fault transition, or batch-window expiry.
    pub fn next_wake(&self) -> Option<SimTime> {
        let wake = self.wakes.peek().map(|Reverse(t)| *t);
        let fault = self.bank.transitions().get(self.cursor).map(|t| t.at);
        let launch = self.bank.next_launch_due().map(|(due, _)| due);
        [wake, fault, launch].into_iter().flatten().min()
    }

    /// Pops one wake-up due at or before `now`; true if one fired.
    pub fn take_due_wake(&mut self, now: SimTime) -> bool {
        if self.wakes.peek().is_some_and(|Reverse(t)| *t <= now) {
            self.wakes.pop();
            true
        } else {
            false
        }
    }

    /// Stops the worker threads and joins them; a killed pass still being
    /// timed is abandoned, not waited out.
    pub fn shutdown(self) {
        self.pool.shutdown();
    }
}

impl ExecutionBackend for ThreadedBackend {
    fn executors(&self) -> usize {
        self.bank.executors()
    }

    fn is_idle(&self, executor: usize) -> bool {
        self.bank.is_idle(executor)
    }

    fn is_up(&self, executor: usize) -> bool {
        self.bank.is_up(executor)
    }

    fn available_at(&self, executor: usize, now: SimTime) -> SimTime {
        let at = self.bank.available_at(executor, now);
        if self.dead[executor] {
            // A dead worker never recovers: steer the planner far away.
            return at.max(now + SimDuration::from_micros(3_600_000_000));
        }
        at
    }

    fn start_task(&mut self, executor: usize, query: u64, now: SimTime) {
        let pass = self.bank.start_task(executor, query, now);
        self.run(executor, Some(pass));
    }

    fn enqueue_task(&mut self, executor: usize, query: u64, now: SimTime) {
        let pass = self.bank.enqueue_task(executor, query, now);
        assert!(
            self.bank.backlog_len(executor) <= QUEUE_CAPACITY,
            "executor {executor} backlog exceeded queue capacity {QUEUE_CAPACITY}"
        );
        self.run(executor, pass);
    }

    fn cancel_task(&mut self, executor: usize, query: u64, now: SimTime) -> bool {
        let (cancelled, next) = self.bank.cancel_task(executor, query, now);
        self.run(executor, next);
        cancelled
    }

    fn submit_batch(&mut self, executor: usize, query: u64, now: SimTime) {
        let pass = self.bank.submit_batch(executor, query, now);
        self.run(executor, pass);
    }

    fn open_batch_len(&self, executor: usize) -> usize {
        self.bank.open_batch_len(executor)
    }

    fn request_wake(&mut self, at: SimTime) {
        self.wakes.push(Reverse(at));
    }

    fn usage(&self) -> Vec<ExecutorUsage> {
        self.bank.usage()
    }
}

#[cfg(test)]
mod tests {
    //! What the executors themselves do is tested on the bank
    //! (`schemble_core::executor`); these cover what the threads add.
    use super::*;
    use crate::worker::RuntimeMsg;
    use schemble_sim::{BatchConfig, FaultPlan, LatencyModel};
    use std::sync::mpsc::Receiver;
    use std::time::{Duration, Instant};

    fn backend(
        ms: &[f64],
        dilation: f64,
        arm: impl FnOnce(ExecutorBank) -> ExecutorBank,
    ) -> (ThreadedBackend, Receiver<RuntimeMsg>) {
        let latencies: Vec<LatencyModel> =
            ms.iter().map(|&m| LatencyModel::constant_millis(m)).collect();
        let (tx, rx) = std::sync::mpsc::sync_channel(64);
        let pool = WorkerPool::spawn(latencies.len(), tx);
        let clock = DilatedClock::start(dilation);
        let bank = arm(ExecutorBank::new(latencies, 1, "test"));
        (ThreadedBackend::new(bank, pool, clock), rx)
    }

    /// The pass id carried by the next worker report.
    fn report(rx: &Receiver<RuntimeMsg>) -> u64 {
        match rx.recv_timeout(Duration::from_secs(2)).expect("worker report") {
            RuntimeMsg::TaskDone { executor: 0, query: pass } => pass,
            other => panic!("unexpected report {other:?}"),
        }
    }

    #[test]
    fn passes_round_trip_through_workers_and_retire_into_the_bank() {
        let (mut b, rx) = backend(&[2.0], 50.0, |bank| bank);
        let now = SimTime::ZERO;
        b.enqueue_task(0, 1, now);
        b.enqueue_task(0, 2, now);
        assert_eq!((b.bank.running_pass(0).is_some(), b.bank.backlog_len(0)), (true, 1));
        let first = report(&rx);
        let done = b.retire(0, first, now + SimDuration::from_millis(2));
        assert_eq!(done, Some(BackendEvent::TaskDone { executor: 0, query: 1 }));
        assert_eq!(b.retire(0, first, now), None, "one member, one event");
        // Retiring the first task handed the backlog head to the worker.
        let second = report(&rx);
        let done = b.retire(0, second, now + SimDuration::from_millis(4));
        assert_eq!(done, Some(BackendEvent::TaskDone { executor: 0, query: 2 }));
        assert!(b.all_idle());
        assert_eq!((b.bank.running_pass(0).is_some(), b.bank.backlog_len(0)), (false, 0));
        assert_eq!((b.bank.tasks(0), b.bank.busy(0).as_micros()), (2, 4_000));
        assert_eq!(b.bank.counters().completed, 2);
        b.shutdown();
    }

    #[test]
    fn wake_heap_orders_and_fires() {
        let (mut b, _rx) = backend(&[1.0], 1000.0, |bank| bank);
        b.request_wake(SimTime::from_millis(30));
        b.request_wake(SimTime::from_millis(10));
        assert_eq!(b.next_wake(), Some(SimTime::from_millis(10)));
        assert!(!b.take_due_wake(SimTime::from_millis(5)));
        assert!(b.take_due_wake(SimTime::from_millis(10)));
        assert_eq!(b.next_wake(), Some(SimTime::from_millis(30)));
        b.shutdown();
    }

    #[test]
    fn window_expiry_is_a_wake_and_launches_one_worker_job_per_batch() {
        let cfg = BatchConfig::new(4, SimDuration::from_millis(2));
        let (mut b, rx) = backend(&[5.0], 100.0, |bank| bank.with_batching(Some(cfg)));
        b.submit_batch(0, 7, SimTime::ZERO);
        b.submit_batch(0, 8, SimTime::ZERO);
        assert_eq!(b.next_wake(), Some(SimTime::from_millis(2)), "launch deadline is a wake");
        b.launch_due_batches(SimTime::from_millis(1));
        assert_eq!(b.open_batch_len(0), 2, "window not expired yet");
        b.launch_due_batches(SimTime::from_millis(2));
        assert_eq!(b.open_batch_len(0), 0);
        assert_eq!(b.bank.counters().batched, 2);
        // One report stands in for the whole pass; members retire in turn.
        let pass = report(&rx);
        let now = SimTime::from_micros(7_750);
        assert_eq!(b.retire(0, pass, now), Some(BackendEvent::TaskDone { executor: 0, query: 7 }));
        assert_eq!(b.retire(0, pass, now), Some(BackendEvent::TaskDone { executor: 0, query: 8 }));
        assert_eq!(b.retire(0, pass, now), None);
        assert!(b.all_idle());
        b.shutdown();
    }

    /// Regression (wall mode): a crash kills a launched batch led by query
    /// 4, the executor recovers and the engine's retry launches a new batch
    /// led by query 4 again while the killed pass's worker is still timing
    /// it. That worker used to sleep the killed pass out and report it
    /// first — once matched by query id, retiring the *new* batch before its
    /// service time had elapsed. Now the retry's submit abandons the killed
    /// pass: the only report is the retried batch's, after its full time.
    #[test]
    fn killed_batch_is_abandoned_and_spares_the_retried_batch() {
        let plan = FaultPlan::parse("crash 0 0.001 0.002").unwrap();
        let cfg = BatchConfig::new(2, SimDuration::from_millis(2));
        // 5 s passes at dilation 100: 50 ms of wall time each.
        let (mut b, rx) = backend(&[5_000.0], 100.0, |bank| {
            bank.with_faults(Some(&plan), 1).with_batching(Some(cfg))
        });
        b.submit_batch(0, 4, SimTime::ZERO);
        b.submit_batch(0, 5, SimTime::ZERO); // full → launched
        assert_eq!(b.next_wake(), Some(SimTime::from_millis(1)), "the crash is a wake");
        let down = vec![
            BackendEvent::ExecutorDown { executor: 0 },
            BackendEvent::TaskFailed { executor: 0, query: 4 },
            BackendEvent::TaskFailed { executor: 0, query: 5 },
        ];
        assert_eq!(b.take_due_fault_events(SimTime::from_millis(1)), down);
        assert!(!b.is_up(0));
        assert_eq!(b.available_at(0, SimTime::from_millis(1)), SimTime::from_millis(2));
        let up = vec![BackendEvent::ExecutorUp { executor: 0 }];
        assert_eq!(b.take_due_fault_events(SimTime::from_millis(2)), up);
        b.submit_batch(0, 4, SimTime::from_millis(4));
        b.submit_batch(0, 5, SimTime::from_millis(4)); // the retry, launched
        let launched = Instant::now();
        let retried = report(&rx);
        assert!(launched.elapsed() >= Duration::from_millis(50), "retired early");
        let now = SimTime::from_millis(5_004);
        assert_eq!(
            b.retire(0, retried, now),
            Some(BackendEvent::TaskDone { executor: 0, query: 4 }),
            "the first report is the retried batch's"
        );
        assert_eq!(
            b.retire(0, retried, now),
            Some(BackendEvent::TaskDone { executor: 0, query: 5 })
        );
        assert!(b.all_idle());
        b.shutdown();
    }

    /// Regression (wall mode): an anytime exit cancels a running task and
    /// the bank starts the backlog's next pass at once. Its worker used to
    /// sleep out the cancelled pass first, so the live pass reported a
    /// whole pass late (40 ms for a 20 ms pass); the virtual clock never
    /// had that delay.
    #[test]
    fn a_cancelled_pass_does_not_delay_the_next_one() {
        // 200 ms passes at dilation 10: 20 ms of wall time each.
        let (mut b, rx) = backend(&[200.0], 10.0, |bank| bank);
        b.enqueue_task(0, 1, SimTime::ZERO);
        b.enqueue_task(0, 2, SimTime::ZERO);
        let cancelled = Instant::now();
        assert!(b.cancel_task(0, 1, SimTime::ZERO));
        let live = report(&rx);
        let took = cancelled.elapsed();
        assert!(took >= Duration::from_millis(20), "retired early: {took:?}");
        assert!(took < Duration::from_millis(30), "live pass reported after {took:?}");
        let done = b.retire(0, live, SimTime::from_millis(200));
        assert_eq!(done, Some(BackendEvent::TaskDone { executor: 0, query: 2 }));
        assert!(b.all_idle());
        b.shutdown();
    }

    #[test]
    fn reap_dead_marks_poisoned_worker_down_forever() {
        let (mut b, _rx) = backend(&[1.0, 1.0], 1000.0, |bank| bank);
        b.pool().poison(0);
        let deadline = Instant::now() + Duration::from_secs(2);
        while !b.pool().is_finished(0) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let events = b.reap_dead(SimTime::from_millis(3));
        assert_eq!(events, vec![BackendEvent::ExecutorDown { executor: 0 }]);
        assert!(!b.is_up(0));
        assert!(b.is_up(1));
        assert!(b.reap_dead(SimTime::from_millis(4)).is_empty(), "reported once");
        // Far-future availability steers the planner away for good.
        assert!(b.available_at(0, SimTime::from_millis(4)) > SimTime::from_secs_f64(60.0));
        b.shutdown();
    }
}
