//! The executor bank: the one implementation of per-executor semantics.
//!
//! An executor is a non-preemptive server for one deployed model. It runs at
//! most one *pass* at a time — a single task is a pass of one member, a
//! launched cross-query batch a pass of several — keeps a FIFO backlog of
//! committed tasks, may hold one *open* batch that is still accepting
//! members, and can be down (crashed). [`ExecutorBank`] owns all of that for
//! every executor of a backend, plus the draws that make runs reproducible
//! (latency sample, then fault fate, at submission, in call order), the
//! busy/task counters and the task lifecycle trace events.
//!
//! The bank has no clock, no threads and no event queue. An adapter tells it
//! what happened and when (`now`), and it answers with what the adapter must
//! *time* ([`PassStart`]: a pass began and ends after `duration`) and what the
//! engine must *see* ([`crate::backend::BackendEvent`]s). `SimBackend` times
//! passes with its event heap; `schemble-serve`'s `ThreadedBackend` times
//! them with worker threads. When the timer fires the adapter calls
//! [`ExecutorBank::retire`] with the pass id it was given.
//!
//! **Stale timers.** A pass killed by a crash or a cancel leaves its timer
//! (heap entry, sleeping worker) behind. Pass ids are never reused, so one
//! rule covers every case: a timer whose pass id is not the executor's
//! running pass is stale, and `retire` ignores it.

use crate::backend::{BackendEvent, ExecutorUsage};
use rand::rngs::StdRng;
pub use schemble_metrics::TaskCounters;
use schemble_sim::rng::stream_rng;
use schemble_sim::{
    BatchConfig, FaultPlan, FaultState, FaultTransition, LatencyModel, SimDuration, SimTime,
};
use schemble_trace::{TraceEvent, TraceSink};
use std::collections::VecDeque;
use std::sync::Arc;

/// A pass that just began occupying an executor: what the adapter must time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassStart {
    /// Executor the pass occupies.
    pub executor: usize,
    /// Identity to hand back to [`ExecutorBank::retire`]; never reused.
    pub pass: u64,
    /// Service time of the whole pass.
    pub duration: SimDuration,
    /// `now + duration` at the instant the pass began.
    pub completes_at: SimTime,
}

/// One member of a finished pass, retired by [`ExecutorBank::retire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired {
    /// The member's completion or (pre-drawn) failure, for the engine.
    pub event: BackendEvent,
    /// The backlog task that took over the executor, when this was the
    /// pass's last member and the backlog was not empty.
    pub next: Option<PassStart>,
}

/// A submitted task with its fate, drawn at submission.
#[derive(Clone, Copy)]
struct Task {
    query: u64,
    /// Time the task occupies the executor (cut short when `doomed`).
    duration: SimDuration,
    /// Ends in failure (transient fault or timeout) instead of completion.
    doomed: bool,
}

/// The pass occupying an executor; its members live in [`Slot::members`].
struct Pass {
    id: u64,
    started_at: SimTime,
    duration: SimDuration,
    /// Launched through the batch path. Even a batch of one is committed
    /// as a whole and refuses cancellation.
    batched: bool,
    /// Members already retired (a pass retires one member per call).
    retired: usize,
}

#[derive(Default)]
struct Slot {
    pass: Option<Pass>,
    /// `(query, doomed)` per member of `pass`, in submission order. Kept
    /// across passes so steady-state starts allocate nothing.
    members: Vec<(u64, bool)>,
    backlog: VecDeque<Task>,
    /// The open batch (empty = none) and the instant its first member
    /// joined.
    open: Vec<Task>,
    opened_at: SimTime,
    down: bool,
    busy: SimDuration,
    tasks: u64,
}

/// Per-executor state machines for one backend. See the module docs.
pub struct ExecutorBank {
    slots: Vec<Slot>,
    latencies: Vec<LatencyModel>,
    rng: StdRng,
    trace: Arc<TraceSink>,
    /// Fault-fate sampler; `None` never touches the `"faults"` RNG stream.
    faults: Option<FaultState>,
    /// The plan's up/down transitions (sorted), for recovery-time lookups
    /// and for the adapter to schedule.
    transitions: Vec<FaultTransition>,
    /// Per-executor timeout derived from the plan's latency quantile.
    timeouts: Vec<Option<SimDuration>>,
    /// `None` unless an *active* config was installed.
    batching: Option<BatchConfig>,
    next_pass: u64,
    /// Batch-id source for [`TraceEvent::BatchFormed`].
    next_batch: u64,
    /// Tasks that began executing, and those that did so as batch members.
    started: u64,
    batched: u64,
    /// Size of every launched batch, in launch order.
    batch_sizes: Vec<u32>,
    /// Reused result buffer of [`Self::crash`].
    casualties: Vec<u64>,
}

impl ExecutorBank {
    /// A bank with one executor per entry of `latencies`, drawing execution
    /// times from the `(seed, stream)` RNG stream.
    pub fn new(latencies: Vec<LatencyModel>, seed: u64, stream: &str) -> Self {
        let n = latencies.len();
        Self {
            slots: (0..n).map(|_| Slot::default()).collect(),
            latencies,
            rng: stream_rng(seed, stream),
            trace: TraceSink::disabled(),
            faults: None,
            transitions: Vec::new(),
            timeouts: vec![None; n],
            batching: None,
            next_pass: 0,
            next_batch: 0,
            started: 0,
            batched: 0,
            batch_sizes: Vec::new(),
            casualties: Vec::new(),
        }
    }

    /// Emits task lifecycle events into `trace`, stamped with the `now` of
    /// the call that caused them.
    pub fn with_trace(mut self, trace: Arc<TraceSink>) -> Self {
        self.trace = trace;
        self
    }

    /// Enables cross-query batching. `None` and an inactive config
    /// (`batch_max <= 1`) are ignored entirely — the off switch
    /// `--batch-max 1` relies on.
    pub fn with_batching(mut self, config: Option<BatchConfig>) -> Self {
        self.batching = config.filter(BatchConfig::active);
        self
    }

    /// Arms the bank with a fault plan, seeding the dedicated `"faults"` RNG
    /// stream from `seed`. `None` and a no-op plan change nothing. Crash
    /// windows are not applied by the bank itself: the adapter schedules
    /// [`Self::transitions`] and calls [`Self::crash`]/[`Self::recover`].
    ///
    /// # Panics
    /// Panics when the plan names an executor this bank does not have
    /// ([`FaultPlan::check_executors`] is the recoverable form of the check).
    pub fn with_faults(mut self, plan: Option<&FaultPlan>, seed: u64) -> Self {
        let Some(plan) = plan.filter(|p| !p.is_noop()) else { return self };
        if let Err(unknown) = plan.check_executors(self.slots.len()) {
            panic!("{unknown}");
        }
        self.transitions = plan.transitions();
        let state = FaultState::new(plan.clone(), seed);
        self.timeouts = self.latencies.iter().map(|l| state.timeout_for(l)).collect();
        self.faults = Some(state);
        self
    }

    /// Number of executors.
    pub fn executors(&self) -> usize {
        self.slots.len()
    }

    /// The fault plan's up/down transitions for this bank's executors,
    /// sorted by `(at, executor, up)`.
    pub fn transitions(&self) -> &[FaultTransition] {
        &self.transitions
    }

    /// True when `executor` is up and runs no pass. An *open* batch leaves
    /// it idle — it is still accepting members.
    pub fn is_idle(&self, executor: usize) -> bool {
        let slot = &self.slots[executor];
        !slot.down && slot.pass.is_none()
    }

    /// True when `executor` is not crashed.
    pub fn is_up(&self, executor: usize) -> bool {
        !self.slots[executor].down
    }

    /// Id of the pass occupying `executor`, if any.
    pub fn running_pass(&self, executor: usize) -> Option<u64> {
        self.slots[executor].pass.as_ref().map(|p| p.id)
    }

    /// Tasks waiting in `executor`'s FIFO backlog.
    pub fn backlog_len(&self, executor: usize) -> usize {
        self.slots[executor].backlog.len()
    }

    /// Tasks in `executor`'s open (not yet launched) batch.
    pub fn open_batch_len(&self, executor: usize) -> usize {
        self.slots[executor].open.len()
    }

    /// True when no executor runs a pass or holds a backlog or open batch.
    pub fn all_idle(&self) -> bool {
        self.slots.iter().all(|s| s.pass.is_none() && s.backlog.is_empty() && s.open.is_empty())
    }

    /// Earliest time `executor` could start a new task: the rest of the
    /// running pass plus the backlog at its drawn durations, the price of
    /// joining an open batch, and the recovery instant while down.
    pub fn available_at(&self, executor: usize, now: SimTime) -> SimTime {
        let slot = &self.slots[executor];
        let mut at = slot.pass.as_ref().map_or(now, |p| (p.started_at + p.duration).max(now));
        for task in &slot.backlog {
            at += task.duration;
        }
        if let (Some(cfg), false) = (&self.batching, slot.open.is_empty()) {
            // Quote the *marginal* cost of joining the open batch: it
            // launches at `opened_at + window` at the latest and would then
            // run one pass of `s + 1` members, so the instant that makes
            // `available_at + planned` equal the predicted joined finish is
            // `launch + (gamma(s + 1) - 1) · planned`. The DP thereby prices
            // joining an open batch against opening a fresh one elsewhere.
            let planned = self.latencies[executor].planned();
            let gamma = cfg.curve.gamma(slot.open.len() + 1);
            let marginal = SimDuration::from_micros(
                (planned.as_micros() as f64 * (gamma - 1.0)).round() as u64,
            );
            at = at.max(slot.opened_at + cfg.window + marginal);
        }
        if slot.down {
            let recovery =
                self.transitions.iter().find(|t| t.executor == executor && t.up && t.at > now);
            at = recovery.map_or(at, |t| at.max(t.at));
        }
        at
    }

    /// Starts `query` on `executor` now. Panics if the executor is down or
    /// already runs a pass — dispatching onto either is a policy bug.
    pub fn start_task(&mut self, executor: usize, query: u64, now: SimTime) -> PassStart {
        assert!(!self.slots[executor].down, "start_task on a down executor");
        debug_assert!(
            self.slots[executor].open.is_empty(),
            "start_task alongside an open batch on executor {executor}"
        );
        let task = self.draw(executor, query, now);
        self.begin_single(executor, task, now)
    }

    /// Appends `query` to `executor`'s FIFO backlog; an idle executor starts
    /// it at once (the returned pass).
    pub fn enqueue_task(&mut self, executor: usize, query: u64, now: SimTime) -> Option<PassStart> {
        debug_assert!(!self.slots[executor].down, "enqueue_task on a down executor");
        let task = self.draw(executor, query, now);
        self.slots[executor].backlog.push_back(task);
        if self.slots[executor].pass.is_none() {
            return self.start_next(executor, now);
        }
        self.trace.emit(TraceEvent::TaskEnqueue { t: now, query, executor: executor as u16 });
        None
    }

    /// Adds `query` to `executor`'s open batch, opening one if none is
    /// pending; reaching `batch_max` launches it (the returned pass).
    /// Without active batching this *is* [`Self::start_task`].
    pub fn submit_batch(&mut self, executor: usize, query: u64, now: SimTime) -> Option<PassStart> {
        let Some(cfg) = self.batching else {
            return Some(self.start_task(executor, query, now));
        };
        assert!(!self.slots[executor].down, "submit_batch on a down executor");
        debug_assert!(
            self.slots[executor].pass.is_none(),
            "open batches only exist while executor {executor} is idle"
        );
        // Same draw discipline as `start_task`: duration then fate, in
        // submission order, so a fixed seed yields the same per-task numbers
        // whether or not tasks end up co-batched.
        let task = self.draw(executor, query, now);
        // `TaskEnqueue` marks the batch-queue wait; `TaskStart` lands at the
        // launch instant, so exporters see queue-wait vs service split.
        self.trace.emit(TraceEvent::TaskEnqueue { t: now, query, executor: executor as u16 });
        let slot = &mut self.slots[executor];
        if slot.open.is_empty() {
            slot.opened_at = now;
        }
        slot.open.push(task);
        (slot.open.len() >= cfg.batch_max).then(|| self.launch_batch(executor, now))
    }

    /// Earliest open-batch window expiry `(at, executor)`, if any. Executor
    /// order breaks ties, deterministically.
    pub fn next_launch_due(&self) -> Option<(SimTime, usize)> {
        let window = self.batching.as_ref()?.window;
        let mut due: Option<(SimTime, usize)> = None;
        for (k, slot) in self.slots.iter().enumerate() {
            let at = slot.opened_at + window;
            if !slot.open.is_empty() && due.is_none_or(|(t, _)| at < t) {
                due = Some((at, k));
            }
        }
        due
    }

    /// Launches `executor`'s open batch at `at`: one pass covering every
    /// member, with the service time of the longest member scaled by the
    /// batch curve. Panics if no batch is open.
    pub fn launch_batch(&mut self, executor: usize, at: SimTime) -> PassStart {
        let cfg = self.batching.expect("batching configured");
        let slot = &mut self.slots[executor];
        let size = slot.open.len();
        let longest = slot.open.iter().map(|t| t.duration).max().expect("an open batch to launch");
        let duration = cfg.curve.scale(longest, size);
        let batch = self.next_batch;
        self.next_batch += 1;
        self.batched += size as u64;
        self.batch_sizes.push(size as u32);
        slot.members.clear();
        slot.members.extend(slot.open.drain(..).map(|t| (t.query, t.doomed)));
        let pass = self.begin(executor, duration, true, at);
        self.trace.emit(TraceEvent::BatchFormed {
            t: at,
            executor: executor as u16,
            batch,
            size: size as u32,
        });
        pass
    }

    /// The timer of `pass` on `executor` fired: retires the pass's next
    /// member. The last member out charges the pass's busy time, frees the
    /// executor and starts its next backlog task. Call again while
    /// [`Self::running_pass`] is still `pass`. `None` means the timer was
    /// stale (see the module docs) and nothing changed.
    pub fn retire(&mut self, executor: usize, pass: u64, now: SimTime) -> Option<Retired> {
        let slot = &mut self.slots[executor];
        let run = slot.pass.as_mut().filter(|p| p.id == pass)?;
        let (query, doomed) = slot.members[run.retired];
        run.retired += 1;
        let finished = (run.retired == slot.members.len()).then_some(run.duration);
        let event = if doomed {
            self.trace.emit(TraceEvent::TaskFailed { t: now, query, executor: executor as u16 });
            BackendEvent::TaskFailed { executor, query }
        } else {
            slot.tasks += 1;
            self.trace.emit(TraceEvent::TaskDone { t: now, query, executor: executor as u16 });
            BackendEvent::TaskDone { executor, query }
        };
        let mut next = None;
        if let Some(duration) = finished {
            slot.busy = slot.busy + duration;
            slot.pass = None;
            next = self.start_next(executor, now);
        }
        Some(Retired { event, next })
    }

    /// Cancels `query` on `executor` (anytime early exit). A member of the
    /// open batch never ran and is simply removed; a running single task is
    /// killed, the time it spent charged as busy time and the next backlog
    /// task started (the returned pass); a member of a launched batch is
    /// refused — the batch shares one pass and cannot shed a member
    /// mid-flight. Returns whether a matching task was cancelled.
    pub fn cancel_task(
        &mut self,
        executor: usize,
        query: u64,
        now: SimTime,
    ) -> (bool, Option<PassStart>) {
        let slot = &mut self.slots[executor];
        if let Some(i) = slot.open.iter().position(|t| t.query == query) {
            slot.open.remove(i);
            return (true, None);
        }
        if !slot.pass.as_ref().is_some_and(|p| !p.batched && slot.members[0].0 == query) {
            return (false, None);
        }
        slot.kill(now);
        (true, self.start_next(executor, now))
    }

    /// Takes `executor` down at `now`: kills its running pass (time spent so
    /// far is charged), drops its backlog and open batch, and returns every
    /// task lost — pass members, then backlog, then open members — each of
    /// which the engine must see as a `TaskFailed` after the `ExecutorDown`.
    pub fn crash(&mut self, executor: usize, now: SimTime) -> &[u64] {
        let slot = &mut self.slots[executor];
        slot.down = true;
        self.trace.emit(TraceEvent::ExecutorDown { t: now, executor: executor as u16 });
        self.casualties.clear();
        if let Some(run) = slot.kill(now) {
            self.casualties.extend(slot.members[run.retired..].iter().map(|&(q, _)| q));
        }
        self.casualties.extend(slot.backlog.drain(..).map(|t| t.query));
        self.casualties.extend(slot.open.drain(..).map(|t| t.query));
        for &query in &self.casualties {
            self.trace.emit(TraceEvent::TaskFailed { t: now, query, executor: executor as u16 });
        }
        &self.casualties
    }

    /// Brings a crashed `executor` back up at `now`.
    pub fn recover(&mut self, executor: usize, now: SimTime) {
        self.slots[executor].down = false;
        self.trace.emit(TraceEvent::ExecutorUp { t: now, executor: executor as u16 });
    }

    /// Busy time charged to `executor` so far.
    pub fn busy(&self, executor: usize) -> SimDuration {
        self.slots[executor].busy
    }

    /// Tasks `executor` has completed.
    pub fn tasks(&self, executor: usize) -> u64 {
        self.slots[executor].tasks
    }

    /// Lifetime busy-time/task counters per executor.
    pub fn usage(&self) -> Vec<ExecutorUsage> {
        self.slots
            .iter()
            .map(|s| ExecutorUsage { busy_secs: s.busy.as_secs_f64(), tasks: s.tasks })
            .collect()
    }

    /// Lifetime task totals.
    pub fn counters(&self) -> TaskCounters {
        TaskCounters {
            started: self.started,
            completed: self.slots.iter().map(|s| s.tasks).sum(),
            batched: self.batched,
        }
    }

    /// Sizes of every batch launched so far, in launch order.
    pub fn batch_sizes(&self) -> &[u32] {
        &self.batch_sizes
    }

    /// Latency sample, then fault fate: the one draw order every submission
    /// path shares.
    fn draw(&mut self, executor: usize, query: u64, now: SimTime) -> Task {
        let sampled = self.latencies[executor].sample(&mut self.rng);
        match self.faults.as_mut() {
            Some(f) => {
                let fate = f.task_fate(executor, now, sampled, self.timeouts[executor]);
                Task { query, duration: fate.duration, doomed: fate.failed }
            }
            None => Task { query, duration: sampled, doomed: false },
        }
    }

    /// Occupies `executor` with a pass over the members already in its slot.
    fn begin(
        &mut self,
        executor: usize,
        duration: SimDuration,
        batched: bool,
        now: SimTime,
    ) -> PassStart {
        let slot = &mut self.slots[executor];
        assert!(slot.pass.is_none(), "executor {executor} already runs a pass");
        for &(query, _) in &slot.members {
            self.trace.emit(TraceEvent::TaskStart { t: now, query, executor: executor as u16 });
        }
        self.started += slot.members.len() as u64;
        let id = self.next_pass;
        self.next_pass += 1;
        slot.pass = Some(Pass { id, started_at: now, duration, batched, retired: 0 });
        PassStart { executor, pass: id, duration, completes_at: now + duration }
    }

    fn begin_single(&mut self, executor: usize, task: Task, now: SimTime) -> PassStart {
        let members = &mut self.slots[executor].members;
        members.clear();
        members.push((task.query, task.doomed));
        self.begin(executor, task.duration, false, now)
    }

    /// Starts the head of `executor`'s backlog, unless it is down or empty.
    fn start_next(&mut self, executor: usize, now: SimTime) -> Option<PassStart> {
        let slot = &mut self.slots[executor];
        if slot.down {
            return None;
        }
        let task = slot.backlog.pop_front()?;
        Some(self.begin_single(executor, task, now))
    }
}

impl Slot {
    /// Kills the running pass, charging only the time spent before `now`.
    fn kill(&mut self, now: SimTime) -> Option<Pass> {
        let run = self.pass.take()?;
        self.busy = self.busy + run.duration.min(now.saturating_since(run.started_at));
        Some(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    fn bank(model_ms: f64) -> ExecutorBank {
        ExecutorBank::new(vec![LatencyModel::constant_millis(model_ms)], 1, "test")
    }

    fn batching(model_ms: f64, batch_max: usize) -> ExecutorBank {
        bank(model_ms).with_batching(Some(BatchConfig::new(batch_max, SimDuration::from_millis(2))))
    }

    fn done(query: u64) -> BackendEvent {
        BackendEvent::TaskDone { executor: 0, query }
    }

    #[test]
    fn tasks_run_one_pass_at_a_time_and_chain_through_the_backlog() {
        let mut b = bank(10.0);
        let first = b.enqueue_task(0, 1, SimTime::ZERO).expect("idle executor starts at once");
        assert_eq!((first.duration, first.completes_at), (SimDuration::from_millis(10), ms(10)));
        assert_eq!(b.enqueue_task(0, 2, SimTime::ZERO), None, "busy executor queues");
        assert!(!b.is_idle(0) && b.backlog_len(0) == 1);
        assert_eq!(b.available_at(0, SimTime::ZERO), ms(20));
        // Retiring the first task starts the backlog head at that instant.
        let retired = b.retire(0, first.pass, ms(10)).expect("live pass");
        assert_eq!(retired.event, done(1));
        assert_eq!(b.retire(0, first.pass, ms(10)), None, "a pass retires once");
        let second = retired.next.expect("backlog head started");
        assert_eq!(second.completes_at, ms(20));
        let last = b.retire(0, second.pass, ms(20)).unwrap();
        assert_eq!(last, Retired { event: done(2), next: None });
        assert!(b.is_idle(0) && b.all_idle());
        assert_eq!(b.usage(), vec![ExecutorUsage { busy_secs: 0.020, tasks: 2 }]);
        assert_eq!(b.counters(), TaskCounters { started: 2, completed: 2, batched: 0 });
    }

    #[test]
    fn batch_launches_when_window_expires_or_it_fills() {
        let mut b = batching(10.0, 4);
        assert_eq!(b.submit_batch(0, 1, SimTime::ZERO), None);
        assert_eq!(b.submit_batch(0, 2, SimTime::ZERO), None);
        assert_eq!(b.open_batch_len(0), 2);
        assert!(b.is_idle(0), "an open batch keeps the executor joinable");
        assert!(!b.all_idle(), "an open batch holds work");
        assert_eq!(b.next_launch_due(), Some((ms(2), 0)));
        // gamma(2) = 1.15 scales the 10ms pass to 11.5ms.
        let pass = b.launch_batch(0, ms(2));
        assert_eq!(pass.completes_at, SimTime::from_micros(13_500));
        assert_eq!((b.open_batch_len(0), b.next_launch_due()), (0, None));
        // Members retire one per call, in submission order.
        assert_eq!(b.retire(0, pass.pass, pass.completes_at).unwrap().event, done(1));
        assert_eq!(b.running_pass(0), Some(pass.pass), "occupied until the last member is out");
        assert_eq!(b.retire(0, pass.pass, pass.completes_at).unwrap().event, done(2));
        assert!(b.all_idle());
        assert_eq!(b.counters(), TaskCounters { started: 2, completed: 2, batched: 2 });
        assert_eq!(b.batch_sizes(), &[2]);
        // One shared pass: 11.5ms of busy time, not 20ms.
        assert_eq!((b.busy(0), b.tasks(0)), (SimDuration::from_micros(11_500), 2));

        let mut b = batching(10.0, 2);
        assert_eq!(b.submit_batch(0, 1, SimTime::ZERO), None);
        let pass = b.submit_batch(0, 2, SimTime::ZERO).expect("reaching batch_max launches");
        assert_eq!(pass.completes_at, SimTime::from_micros(11_500), "no window wait");
        assert!(!b.is_idle(0), "a launched batch occupies the executor");
    }

    #[test]
    fn cancel_removes_open_member_refuses_launched_member_and_kills_single_task() {
        let mut b = batching(10.0, 4);
        b.submit_batch(0, 1, SimTime::ZERO);
        b.submit_batch(0, 2, SimTime::ZERO);
        assert_eq!(b.cancel_task(0, 1, SimTime::ZERO), (true, None), "open members are removable");
        assert_eq!(b.open_batch_len(0), 1);
        // The survivor launches alone and costs the plain 10ms — and, being
        // a launched batch (of one), is committed.
        let pass = b.launch_batch(0, ms(2));
        assert_eq!(pass.duration, SimDuration::from_millis(10));
        assert_eq!(b.cancel_task(0, 2, ms(3)), (false, None), "launched members cannot be shed");
        assert_eq!(b.busy(0), SimDuration::ZERO, "removing an open member charges nothing");

        let mut b = bank(10.0);
        let first = b.enqueue_task(0, 3, SimTime::ZERO).unwrap();
        b.enqueue_task(0, 4, SimTime::ZERO);
        assert_eq!(b.cancel_task(0, 4, ms(1)), (false, None), "backlogged, not running");
        let (cancelled, next) = b.cancel_task(0, 3, ms(4));
        assert!(cancelled);
        assert_eq!(next.expect("backlog head takes over").completes_at, ms(14));
        assert_eq!(b.busy(0), SimDuration::from_millis(4), "time spent before the quit is charged");
        assert_eq!(b.tasks(0), 0, "a quit task is not a completion");
        assert_eq!(b.retire(0, first.pass, ms(10)), None, "the killed pass's timer is stale");
    }

    #[test]
    fn crash_kills_pass_backlog_and_open_batch() {
        let plan = FaultPlan::parse("crash 0 0.015 0.040").unwrap();
        let mut b = bank(10.0).with_faults(Some(&plan), 1);
        assert_eq!(b.transitions().len(), 2);
        let first = b.enqueue_task(0, 1, SimTime::ZERO).unwrap();
        b.enqueue_task(0, 2, SimTime::ZERO);
        b.enqueue_task(0, 3, SimTime::ZERO);
        let second = b.retire(0, first.pass, ms(10)).unwrap().next.unwrap();
        // Running task first, then the backlog.
        assert_eq!(b.crash(0, ms(15)), &[2, 3]);
        assert!(!b.is_up(0) && !b.is_idle(0), "a down executor is not idle");
        assert_eq!(b.available_at(0, ms(15)), ms(40), "advertises its recovery time");
        assert_eq!(b.retire(0, second.pass, ms(20)), None, "killed pass's timer is stale");
        b.recover(0, ms(40));
        assert!(b.is_up(0) && b.all_idle());
        // 10ms completed + 10..15ms of the killed task.
        assert_eq!((b.busy(0), b.tasks(0)), (SimDuration::from_millis(15), 1));

        // A launched batch dies mid-pass; an open one before it ever ran.
        let mut b = batching(20.0, 4).with_faults(Some(&plan), 1);
        b.submit_batch(0, 1, SimTime::ZERO);
        b.submit_batch(0, 2, SimTime::ZERO);
        let pass = b.launch_batch(0, ms(2));
        assert_eq!(pass.duration, SimDuration::from_millis(23));
        assert_eq!(b.crash(0, ms(15)), &[1, 2]);
        assert_eq!((b.busy(0), b.tasks(0)), (SimDuration::from_millis(13), 0));
        b.recover(0, ms(40));
        b.submit_batch(0, 3, ms(41));
        assert_eq!(b.crash(0, ms(42)), &[3]);
        assert_eq!(b.busy(0), SimDuration::from_millis(13), "open members never ran");
    }

    #[test]
    fn open_batch_quotes_marginal_join_cost() {
        let mut b = batching(10.0, 4);
        assert_eq!(b.available_at(0, SimTime::ZERO), SimTime::ZERO);
        b.submit_batch(0, 1, SimTime::ZERO);
        // Joining makes a batch of two: launch at 2ms, plus (gamma(2)−1) of
        // the 10ms planned latency = 1.5ms, so avail = 3.5ms and
        // avail + planned = 13.5ms — exactly the joined finish instant.
        assert_eq!(b.available_at(0, SimTime::ZERO), SimTime::from_micros(3_500));
    }

    #[test]
    fn inactive_batching_and_noop_fault_plan_change_nothing() {
        let jittered =
            || ExecutorBank::new(vec![LatencyModel::jittered_millis(10.0, 0.2)], 7, "test");
        let mut plain = jittered();
        let mut off = jittered()
            .with_batching(Some(BatchConfig::new(1, SimDuration::from_millis(2))))
            .with_faults(Some(&FaultPlan::default()), 7);
        for q in 0..4 {
            let a = plain.start_task(0, q, ms(q));
            let b = off.submit_batch(0, q, ms(q)).expect("a batch of one, launched at once");
            assert_eq!(a, b);
            assert_eq!(plain.retire(0, a.pass, ms(q)), off.retire(0, b.pass, ms(q)));
        }
        assert_eq!(off.counters().batched, 0);
        assert!(off.transitions().is_empty());
    }

    #[test]
    fn timeout_fails_the_task_at_the_cap() {
        // 3x straggler pushes the 10ms task past the q=1.0 timeout (= 10ms
        // nominal with zero jitter), so it is killed at the cap.
        let plan = FaultPlan::parse("straggle 0 0 1 3.0\ntimeout-q 1.0").unwrap();
        let mut b = bank(10.0).with_faults(Some(&plan), 1);
        let pass = b.start_task(0, 9, SimTime::ZERO);
        assert_eq!(pass.completes_at, ms(10), "killed at the timeout, not at 30ms");
        let retired = b.retire(0, pass.pass, ms(10)).unwrap();
        assert_eq!(retired.event, BackendEvent::TaskFailed { executor: 0, query: 9 });
        assert!(b.is_idle(0), "a failed task releases the executor");
        assert_eq!((b.busy(0), b.tasks(0)), (SimDuration::from_millis(10), 0));
    }

    /// The wall-mode defect of the old per-backend copies: a killed batch's
    /// late timer was matched by its first member's query id, so when the
    /// engine's retry rebuilt a batch led by the same query the stale timer
    /// retired the *new* batch early. Pass ids make the two distinct.
    #[test]
    fn killed_batchs_timer_cannot_retire_the_retried_batch() {
        let plan = FaultPlan::parse("crash 0 0.001 0.002").unwrap();
        let mut b = batching(50.0, 2).with_faults(Some(&plan), 1);
        b.submit_batch(0, 4, SimTime::ZERO);
        let killed = b.submit_batch(0, 5, SimTime::ZERO).expect("full batch launches");
        assert_eq!(b.crash(0, ms(1)), &[4, 5]);
        b.recover(0, ms(2));
        b.submit_batch(0, 4, ms(4));
        let retry = b.submit_batch(0, 5, ms(4)).expect("retried batch launches");
        assert_eq!(b.retire(0, killed.pass, killed.completes_at), None, "stale: retires nothing");
        assert_eq!(b.running_pass(0), Some(retry.pass), "the retried batch keeps running");
        assert_eq!(b.retire(0, retry.pass, retry.completes_at).unwrap().event, done(4));
        assert_eq!(b.retire(0, retry.pass, retry.completes_at).unwrap().event, done(5));
    }
}
