//! Execution backends: where tasks actually run.
//!
//! The pipelines in [`crate::pipeline`] decide *what* to run (admission,
//! model-set selection, dispatch order); an [`ExecutionBackend`] decides
//! *how* running happens — inside the discrete-event simulator
//! ([`SimBackend`]) or on real worker threads (`schemble-serve`'s threaded
//! backend). Keeping the decision logic in [`crate::engine`] and the
//! execution substrate behind this trait is what lets the same pipeline run
//! unchanged in simulation and in the wall-clock serving runtime, and is
//! also what makes the serve runtime's virtual-clock parity mode possible:
//! the runtime drives the *identical* engine code over a [`SimBackend`], so
//! its admission decisions match the DES pipeline's by construction.
//!
//! What an executor *is* — idle/busy/down, FIFO backlog, open and launched
//! batches, fault fates, cancellation, crash casualties, busy accounting —
//! is implemented once, in [`crate::executor::ExecutorBank`]; a backend is
//! that bank plus a way to time its passes.
//!
//! Executors are indexed `0..executors()`. For the Schemble pipeline the
//! executor index *is* the base-model index (identity deployment); the
//! immediate-selection family maps instances to base models through its
//! `Deployment`.

use crate::engine::PipelineEngine;
use crate::executor::{ExecutorBank, PassStart};
use crate::pipeline::EventSource;
use schemble_sim::{EventQueue, SimTime};

/// An event surfaced by a backend to the engine driving it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendEvent {
    /// Query `workload.queries[i]` has arrived.
    Arrival(usize),
    /// `executor` finished its running task for `query`.
    TaskDone {
        /// Executor (server instance) index.
        executor: usize,
        /// Query id the finished task belonged to.
        query: u64,
    },
    /// `executor`'s task for `query` failed (transient fault, timeout kill,
    /// or executor crash) instead of completing.
    TaskFailed {
        /// Executor (server instance) index.
        executor: usize,
        /// Query id the failed task belonged to.
        query: u64,
    },
    /// `executor` went down (fault-plan crash window opened or its worker
    /// died). Any running task and backlog surface as separate
    /// [`BackendEvent::TaskFailed`] events.
    ExecutorDown {
        /// Executor index.
        executor: usize,
    },
    /// A down `executor` recovered and accepts work again.
    ExecutorUp {
        /// Executor index.
        executor: usize,
    },
    /// A requested wake-up fired (plan effective, predictor done, deadline).
    Wake,
}

/// Per-executor lifetime counters, for usage reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutorUsage {
    /// Total busy time in seconds.
    pub busy_secs: f64,
    /// Tasks completed.
    pub tasks: u64,
}

/// An execution substrate for pipeline engines.
///
/// Contract shared by all implementations:
///
/// * **Non-preemptive.** A started task runs to completion; `start_task`
///   panics (or asserts) if the executor is busy.
/// * **Sampling at submission.** The task's (synthetic) execution time is
///   drawn from the executor's latency model when the task is submitted
///   (`start_task`/`enqueue_task`), in call order — this keeps runs
///   deterministic for a fixed seed regardless of substrate.
/// * **Completion surfaces as an event.** The backend delivers
///   [`BackendEvent::TaskDone`] through its own event channel; engines
///   never poll.
pub trait ExecutionBackend {
    /// Number of executors (server instances).
    fn executors(&self) -> usize;

    /// True when `executor` has no running task (a down executor is never
    /// idle — it cannot accept work).
    fn is_idle(&self, executor: usize) -> bool;

    /// True when `executor` is up (not inside a fault-plan crash window and
    /// its worker alive). Backends without fault support are always up.
    fn is_up(&self, _executor: usize) -> bool {
        true
    }

    /// Indices of currently idle executors, ascending (allocating
    /// convenience over [`Self::is_idle`]).
    fn idle_executors(&self) -> Vec<usize> {
        (0..self.executors()).filter(|&k| self.is_idle(k)).collect()
    }

    /// True when any executor is idle.
    fn any_idle(&self) -> bool {
        (0..self.executors()).any(|k| self.is_idle(k))
    }

    /// Earliest time `executor` could start a new task, counting its
    /// backlog at planned (nominal) durations.
    fn available_at(&self, executor: usize, now: SimTime) -> SimTime;

    /// [`Self::available_at`] for every executor, written into `out`
    /// (cleared first). The scratch-reuse twin of [`Self::availability`]:
    /// callers that plan repeatedly hold one buffer and refill it, so
    /// steady-state planning allocates nothing even when batching multiplies
    /// the number of availability queries per plan.
    fn availability_into(&self, now: SimTime, out: &mut Vec<SimTime>) {
        out.clear();
        for k in 0..self.executors() {
            out.push(self.available_at(k, now));
        }
    }

    /// [`Self::available_at`] for every executor (allocating convenience
    /// wrapper over [`Self::availability_into`]).
    fn availability(&self, now: SimTime) -> Vec<SimTime> {
        let mut out = Vec::with_capacity(self.executors());
        self.availability_into(now, &mut out);
        out
    }

    /// Starts `query` on an idle `executor` immediately (dispatch-on-idle
    /// pipelines). Panics if the executor is busy.
    fn start_task(&mut self, executor: usize, query: u64, now: SimTime);

    /// Appends `query` to `executor`'s FIFO backlog (immediate-selection
    /// pipelines); the executor starts it as soon as it idles.
    fn enqueue_task(&mut self, executor: usize, query: u64, now: SimTime);

    /// Cancels `executor`'s *running* task for `query` (anytime early exit):
    /// the task stops occupying the executor now, its completion never
    /// surfaces, and the time spent so far is charged as busy time — exactly
    /// the accounting a crash kill performs, minus the failure. On a
    /// batching backend, a member of a not-yet-launched open batch is simply
    /// removed (nothing ran, nothing is charged) and the call succeeds; a
    /// member of an already-launched batch is refused — the whole batch
    /// shares one forward pass and cannot shed one member mid-flight.
    /// Returns whether a matching task was cancelled; `false` means the
    /// executor is running something else (or nothing), e.g. because a crash
    /// already killed the task, and the caller must leave its bookkeeping to
    /// the failure path. Backends without cancellation support always refuse.
    fn cancel_task(&mut self, _executor: usize, _query: u64, _now: SimTime) -> bool {
        false
    }

    /// Adds `query`'s task to `executor`'s open batch, opening one if none
    /// is pending (cross-query batched execution). The batch launches when
    /// it reaches the backend's configured `batch_max` — or when its
    /// batching window expires, whichever is first — and every member then
    /// executes in one pass whose duration follows the backend's
    /// [`schemble_sim::BatchCurve`]. Like `start_task`, the member's
    /// synthetic duration and fault fate are drawn at submission, in call
    /// order. On a backend without batching (or with it inactive) this *is*
    /// [`Self::start_task`]: a batch of one, launched immediately.
    fn submit_batch(&mut self, executor: usize, query: u64, now: SimTime) {
        self.start_task(executor, query, now);
    }

    /// Number of tasks in `executor`'s open (not yet launched) batch; `0`
    /// without batching.
    fn open_batch_len(&self, _executor: usize) -> usize {
        0
    }

    /// Asks the backend to surface [`BackendEvent::Wake`] at `at`.
    fn request_wake(&mut self, at: SimTime);

    /// Lifetime busy-time/task counters per executor.
    fn usage(&self) -> Vec<ExecutorUsage>;
}

/// What the simulator's event heap holds.
enum Timer {
    /// Surfaces as is: wakes, fault transitions (applied to the bank when
    /// they pop) and the `TaskFailed` of each crash casualty. Arrivals take
    /// this shape too once they leave the arrival lane.
    Event(BackendEvent),
    /// A pass's service time elapsed.
    PassEnd { executor: usize, pass: u64 },
}

/// The discrete-event-simulation backend: an [`ExecutorBank`] plus an
/// [`EventQueue`] that times its passes and orders them against arrivals,
/// wake-ups and fault transitions.
///
/// [`SimBackend::pop_event`] is the simulation loop's clock: it advances
/// virtual time to the next event and performs the executor-side mechanics
/// of completions (retiring the finished task and starting the next backlog
/// task) before handing the event to the engine.
///
/// Arrivals do not go through the heap: a workload is known up front and
/// already in time order, so they wait in a sorted *lane* that `pop_event`
/// merges with the heap, which then holds only the few dynamic events
/// pending at any moment. A lane entry carries the sequence number the heap
/// would have given it, so the merged order is exactly the `(time, push
/// order)` of one queue holding everything (DESIGN.md, "Engine hot path").
pub struct SimBackend {
    bank: ExecutorBank,
    events: EventQueue<Timer>,
    /// The arrival lane: `(time, sequence number, query index)`, surfaced
    /// from `next_arrival` on.
    arrivals: Vec<(SimTime, u64, usize)>,
    next_arrival: usize,
    /// The lane is in time order (false after an out-of-order push, until
    /// the first pop sorts it).
    arrivals_sorted: bool,
    /// `pop_event` has been called: the lane is closed.
    started: bool,
    /// A batched pass whose timer popped but which still has members to
    /// retire, one per `pop_event` call, at the current instant.
    draining: Option<(usize, u64)>,
}

impl SimBackend {
    /// A backend timing `bank`'s executors. The fault plan's up/down
    /// transitions are pushed into the event queue *now*, so they take the
    /// lowest sequence numbers: every backend constructed this way surfaces
    /// a transition before any arrival or dynamic event due at its instant.
    pub fn new(bank: ExecutorBank) -> Self {
        let mut events = EventQueue::new();
        for tr in bank.transitions() {
            let event = if tr.up {
                BackendEvent::ExecutorUp { executor: tr.executor }
            } else {
                BackendEvent::ExecutorDown { executor: tr.executor }
            };
            events.push(tr.at, Timer::Event(event));
        }
        Self {
            bank,
            events,
            arrivals: Vec::new(),
            next_arrival: 0,
            arrivals_sorted: true,
            started: false,
            draining: None,
        }
    }

    /// The executors this backend times: what ran, for how long, in what
    /// batches — the counters a runtime mirrors into its metrics.
    pub fn bank(&self) -> &ExecutorBank {
        &self.bank
    }

    /// Schedules `Arrival(index)` at `at` by appending it to the arrival
    /// lane. Arrivals at one instant surface in push order. Pushing in time
    /// order is free; any other order is sorted (stably) at the first
    /// [`Self::pop_event`].
    ///
    /// # Panics
    /// Panics once `pop_event` has been called: the lane is merged from a
    /// cursor and cannot take an entry behind it.
    pub fn push_arrival(&mut self, at: SimTime, index: usize) {
        assert!(!self.started, "arrival {index} pushed after the first pop_event");
        self.arrivals_sorted &= self.arrivals.last().is_none_or(|last| last.0 <= at);
        self.arrivals.push((at, self.events.reserve_seq(), index));
    }

    /// The virtual time of the next event this backend would surface,
    /// without advancing: the earliest of the arrival lane's head, the
    /// event heap's head and any due batch launch. (The next
    /// [`Self::pop_event`] returns a later time only if all that is due then
    /// is silent — a batch launch, a killed pass's stale timer — which is why
    /// a driver that must stop at a boundary pops with
    /// [`Self::pop_event_before`] instead of comparing this against it.)
    pub fn peek_time(&self) -> Option<SimTime> {
        let head = self.head_time();
        match self.bank.next_launch_due() {
            Some((due, _)) => Some(head.map_or(due, |t| t.min(due))),
            None => head,
        }
    }

    /// Time of the next timer or arrival: now while a batched pass is
    /// draining.
    fn head_time(&self) -> Option<SimTime> {
        if self.draining.is_some() {
            return Some(self.events.now());
        }
        let arrival = if self.arrivals_sorted {
            self.arrivals.get(self.next_arrival).map(|entry| entry.0)
        } else {
            // Only before the first pop, and only after an out-of-order push.
            self.arrivals.iter().map(|entry| entry.0).min()
        };
        match (arrival, self.events.peek_time()) {
            (Some(a), Some(t)) => Some(a.min(t)),
            (a, t) => a.or(t),
        }
    }

    /// Pops the earlier of the lane's head and the heap's head in
    /// `(time, sequence number)` order, advancing the clock to it.
    fn pop_timer(&mut self) -> Option<(SimTime, Timer)> {
        if let Some(&(at, seq, index)) = self.arrivals.get(self.next_arrival) {
            if self.events.peek_key().is_none_or(|key| (at, seq) < key) {
                self.next_arrival += 1;
                self.events.advance_to(at);
                return Some((at, Timer::Event(BackendEvent::Arrival(index))));
            }
        }
        self.events.pop()
    }

    /// Advances to and returns the next event, or `None` once drained.
    ///
    /// Completions are applied to the bank here (including starting the
    /// executor's next backlog task), so by the time the engine sees
    /// [`BackendEvent::TaskDone`] the executor is already idle or re-busy.
    /// Failures are applied the same way; crash transitions kill the running
    /// pass and drop the backlog, surfacing one [`BackendEvent::TaskFailed`]
    /// per affected task at the crash instant — through the heap, so they
    /// queue behind whatever else was already due at that instant.
    pub fn pop_event(&mut self) -> Option<(SimTime, BackendEvent)> {
        self.pop_bounded(None)
    }

    /// [`Self::pop_event`] for drivers that pause at a virtual-time boundary
    /// (the steal-epoch rendezvous): returns the next event strictly before
    /// `limit`, or `None` when there is none. Silent timers before `limit` —
    /// a window-due batch launch, a killed pass's stale timer — are consumed
    /// on the way, but nothing at or past `limit` is delivered, launched or
    /// advanced to, so whatever the driver does at the boundary happens
    /// before every event due after it.
    pub fn pop_event_before(&mut self, limit: SimTime) -> Option<(SimTime, BackendEvent)> {
        self.pop_bounded(Some(limit))
    }

    fn pop_bounded(&mut self, limit: Option<SimTime>) -> Option<(SimTime, BackendEvent)> {
        let past = |t: SimTime| limit.is_some_and(|limit| t >= limit);
        if !self.started {
            self.started = true;
            if !self.arrivals_sorted {
                // Stable, so equal instants keep their push order.
                self.arrivals.sort_by_key(|&(at, _, _)| at);
                self.arrivals_sorted = true;
            }
        }
        loop {
            // A full batch launches synchronously in `submit_batch`; an
            // unfilled one launches when its window expires. Launching due
            // batches *before* popping any event at or past their deadline
            // means virtual time never slides past a pending launch.
            if let Some((due, k)) = self.bank.next_launch_due() {
                if self.head_time().is_none_or(|t| due <= t) {
                    if past(due) {
                        return None;
                    }
                    let pass = self.bank.launch_batch(k, due);
                    self.time(Some(pass));
                    continue;
                }
            }
            let (now, timer) = match self.draining.take() {
                Some((executor, pass)) => (self.events.now(), Timer::PassEnd { executor, pass }),
                // (An unbounded pop skips the look-ahead.)
                None if limit.is_some() && self.head_time().is_some_and(past) => return None,
                None => self.pop_timer()?,
            };
            let event = match timer {
                Timer::PassEnd { executor, pass } => {
                    // A stale timer (pass killed by a crash or a cancel) is
                    // swallowed; the clock has still advanced to it.
                    let Some(retired) = self.bank.retire(executor, pass, now) else { continue };
                    self.time(retired.next);
                    if self.bank.running_pass(executor) == Some(pass) {
                        self.draining = Some((executor, pass));
                    }
                    retired.event
                }
                Timer::Event(event) => {
                    match event {
                        BackendEvent::ExecutorDown { executor } => {
                            for &query in self.bank.crash(executor, now) {
                                let failed = BackendEvent::TaskFailed { executor, query };
                                self.events.push(now, Timer::Event(failed));
                            }
                        }
                        BackendEvent::ExecutorUp { executor } => self.bank.recover(executor, now),
                        _ => {}
                    }
                    event
                }
            };
            return Some((now, event));
        }
    }

    /// Schedules the end of a pass the bank just started.
    fn time(&mut self, pass: Option<PassStart>) {
        if let Some(p) = pass {
            self.events.push(p.completes_at, Timer::PassEnd { executor: p.executor, pass: p.pass });
        }
    }
}

/// The simulator's clock is its event queue.
impl EventSource for SimBackend {
    type Backend = Self;

    fn backend(&mut self) -> &mut Self {
        self
    }

    fn next_event(
        &mut self,
        _: &mut dyn PipelineEngine,
        until: Option<SimTime>,
    ) -> Option<(SimTime, BackendEvent)> {
        match until {
            Some(limit) => self.pop_event_before(limit),
            None => self.pop_event(),
        }
    }

    fn exhausted(&self) -> bool {
        self.peek_time().is_none()
    }
}

impl ExecutionBackend for SimBackend {
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
        self.bank.available_at(executor, now)
    }

    fn start_task(&mut self, executor: usize, query: u64, now: SimTime) {
        let pass = self.bank.start_task(executor, query, now);
        self.time(Some(pass));
    }

    fn enqueue_task(&mut self, executor: usize, query: u64, now: SimTime) {
        let pass = self.bank.enqueue_task(executor, query, now);
        self.time(pass);
    }

    fn cancel_task(&mut self, executor: usize, query: u64, now: SimTime) -> bool {
        let (cancelled, next) = self.bank.cancel_task(executor, query, now);
        self.time(next);
        cancelled
    }

    fn submit_batch(&mut self, executor: usize, query: u64, now: SimTime) {
        let pass = self.bank.submit_batch(executor, query, now);
        self.time(pass);
    }

    fn open_batch_len(&self, executor: usize) -> usize {
        self.bank.open_batch_len(executor)
    }

    fn request_wake(&mut self, at: SimTime) {
        self.events.push(at, Timer::Event(BackendEvent::Wake));
    }

    fn usage(&self) -> Vec<ExecutorUsage> {
        self.bank.usage()
    }
}

#[cfg(test)]
mod tests {
    //! What the executors themselves do is tested on the bank
    //! ([`crate::executor`]); these cover what the simulator adds — the
    //! heap's timing and same-instant ordering.
    use super::*;
    use schemble_sim::{BatchConfig, FaultPlan, LatencyModel, SimDuration};

    fn bank(ms: &[f64]) -> ExecutorBank {
        let latencies = ms.iter().map(|&m| LatencyModel::constant_millis(m)).collect();
        ExecutorBank::new(latencies, 1, "test")
    }

    #[test]
    fn pass_timers_surface_completions_and_chain_the_backlog() {
        let mut b = SimBackend::new(bank(&[10.0, 20.0]));
        assert_eq!(b.executors(), 2);
        assert_eq!(b.idle_executors(), vec![0, 1]);
        b.enqueue_task(0, 7, SimTime::ZERO);
        b.enqueue_task(0, 8, SimTime::ZERO);
        assert!(!b.is_idle(0) && b.any_idle());
        assert_eq!(b.idle_executors(), vec![1]);
        assert_eq!(b.peek_time(), Some(SimTime::from_millis(10)));
        let (t, ev) = b.pop_event().expect("completion queued");
        assert_eq!(
            (t, ev),
            (SimTime::from_millis(10), BackendEvent::TaskDone { executor: 0, query: 7 })
        );
        // The backlog task was started, and timed, at the completion instant.
        let (t, ev) = b.pop_event().expect("second completion");
        assert_eq!(
            (t, ev),
            (SimTime::from_millis(20), BackendEvent::TaskDone { executor: 0, query: 8 })
        );
        assert!(b.pop_event().is_none() && b.is_idle(0));
        assert_eq!(b.usage()[0].tasks, 2);
    }

    #[test]
    fn wakes_and_arrivals_interleave_in_time_order() {
        let mut b = SimBackend::new(bank(&[1.0]));
        b.push_arrival(SimTime::ZERO + SimDuration::from_millis(5), 0);
        b.request_wake(SimTime::ZERO + SimDuration::from_millis(2));
        assert_eq!(b.pop_event().unwrap().1, BackendEvent::Wake);
        assert_eq!(b.pop_event().unwrap().1, BackendEvent::Arrival(0));
    }

    #[test]
    fn a_bounded_pop_swallows_stale_timers_without_crossing_its_limit() {
        let mut b = SimBackend::new(bank(&[10.0]));
        b.start_task(0, 1, SimTime::ZERO);
        assert!(b.cancel_task(0, 1, SimTime::from_millis(4)), "leaves a stale timer at 10ms");
        b.request_wake(SimTime::from_millis(30));
        let limit = SimTime::from_millis(20);
        assert_eq!(b.peek_time(), Some(SimTime::from_millis(10)), "the stale timer is the head");
        assert_eq!(b.pop_event_before(limit), None, "the wake is past the limit");
        assert!(b.events.now() <= limit, "the clock stopped at {:?}", b.events.now());
        assert_eq!(b.peek_time(), Some(SimTime::from_millis(30)), "the stale timer is gone");
        // At the limit is past it; one tick later the wake is deliverable.
        assert_eq!(b.pop_event_before(SimTime::from_millis(30)), None);
        let wake = Some((SimTime::from_millis(30), BackendEvent::Wake));
        assert_eq!(b.pop_event_before(SimTime::from_micros(30_001)), wake);
        assert_eq!(b.pop_event(), None);
    }

    #[test]
    fn crash_casualties_queue_behind_events_already_due_at_that_instant() {
        let plan = FaultPlan::parse("crash 0 0.015 0.040").unwrap();
        let mut b = SimBackend::new(bank(&[10.0]).with_faults(Some(&plan), 1));
        b.push_arrival(SimTime::from_millis(15), 0);
        b.enqueue_task(0, 1, SimTime::ZERO);
        b.enqueue_task(0, 2, SimTime::ZERO); // running at the crash → killed
        b.enqueue_task(0, 3, SimTime::ZERO); // backlogged at the crash → dropped
        assert_eq!(b.pop_event().unwrap().1, BackendEvent::TaskDone { executor: 0, query: 1 });
        let crash = SimTime::from_millis(15);
        assert_eq!(b.pop_event().unwrap(), (crash, BackendEvent::ExecutorDown { executor: 0 }));
        assert!(!b.is_up(0));
        // The arrival was already queued for this instant; the casualties
        // were pushed when the crash popped, so they follow it.
        assert_eq!(b.pop_event().unwrap(), (crash, BackendEvent::Arrival(0)));
        assert_eq!(
            b.pop_event().unwrap(),
            (crash, BackendEvent::TaskFailed { executor: 0, query: 2 })
        );
        assert_eq!(
            b.pop_event().unwrap(),
            (crash, BackendEvent::TaskFailed { executor: 0, query: 3 })
        );
        let up = (SimTime::from_millis(40), BackendEvent::ExecutorUp { executor: 0 });
        assert_eq!(b.pop_event().unwrap(), up, "the killed task's stale timer was swallowed");
        assert!(b.is_up(0) && b.is_idle(0));
        assert!(b.pop_event().is_none());
    }

    #[test]
    fn batch_launches_at_its_window_and_members_surface_one_per_pop() {
        let cfg = BatchConfig::new(4, SimDuration::from_millis(2));
        let mut b = SimBackend::new(bank(&[10.0]).with_batching(Some(cfg)));
        b.submit_batch(0, 1, SimTime::ZERO);
        b.submit_batch(0, 2, SimTime::ZERO);
        b.request_wake(SimTime::from_millis(5));
        assert_eq!(b.open_batch_len(0), 2);
        assert_eq!(b.peek_time(), Some(SimTime::from_millis(2)), "the launch is the next event");
        // Launched at the 2ms window expiry, before time moves past it;
        // gamma(2) = 1.15 scales the 10ms pass to 11.5ms, so both members
        // finish at 13.5ms.
        assert_eq!(b.pop_event().unwrap(), (SimTime::from_millis(5), BackendEvent::Wake));
        assert!(b.open_batch_len(0) == 0 && !b.is_idle(0));
        let finish = SimTime::from_micros(13_500);
        b.request_wake(finish);
        assert_eq!(
            b.pop_event().unwrap(),
            (finish, BackendEvent::TaskDone { executor: 0, query: 1 })
        );
        assert!(!b.is_idle(0), "occupied until the last member is out");
        assert_eq!(b.peek_time(), Some(finish), "the second member is due now");
        assert_eq!(
            b.pop_event().unwrap(),
            (finish, BackendEvent::TaskDone { executor: 0, query: 2 })
        );
        assert!(b.is_idle(0));
        // Members come out back to back, ahead of anything queued for the
        // same instant after the launch.
        assert_eq!(b.pop_event().unwrap(), (finish, BackendEvent::Wake));
        assert!(b.pop_event().is_none() && b.peek_time().is_none());
        assert_eq!((b.bank().counters().batched, b.bank().batch_sizes()), (2, &[2][..]));
    }
}
