//! Timing wrappers around the program's three public seams.
//!
//! * [`TimedEngine`] implements `PipelineEngine` around the real
//!   `SchembleEngine` and is what the public drivers (`run_virtual`,
//!   `run_wall`) are handed: one span per `handle` call.
//! * Inside `handle` it lends the engine a [`TimedBackend`] around the
//!   driver's own backend, which tallies every `ExecutionBackend` call the
//!   engine makes.
//! * [`TimedScheduler`] sits in the `SchembleConfig::scheduler` box around
//!   the real scheduler: one span per `plan_into` call.
//!
//! All three forward every call unchanged — including the trait methods
//! that have default bodies, which the real backends override — so a
//! traced pass takes exactly the decisions of an untraced one (the gate
//! compares their records).

use crate::spans::{Layer, Recorder, NO_QUERY};
use schemble_core::backend::{BackendEvent, ExecutionBackend, ExecutorUsage};
use schemble_core::engine::{
    EngineStats, PipelineEngine, SchembleEngine, StealLineage, StolenQuery,
};
use schemble_core::scheduler::{SchedScratch, ScheduleInput, SchedulePlan, Scheduler};
use schemble_data::Workload;
use schemble_metrics::QueryRecord;
use schemble_sim::SimTime;
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

/// Calls made through a [`TimedBackend`] and the time they took.
#[derive(Debug, Default)]
struct BackendTally {
    calls: Cell<u64>,
    ns: Cell<u64>,
}

/// An `ExecutionBackend` that times every call into the backend it wraps.
struct TimedBackend<'b> {
    inner: &'b mut dyn ExecutionBackend,
    tally: &'b BackendTally,
}

impl TimedBackend<'_> {
    fn note(&self, started: Instant) {
        self.tally.calls.set(self.tally.calls.get() + 1);
        self.tally.ns.set(self.tally.ns.get() + started.elapsed().as_nanos() as u64);
    }
}

/// Forwards one trait method to the wrapped backend, timing the call.
macro_rules! timed {
    ($self:ident . $method:ident ( $($arg:expr),* )) => {{
        let started = Instant::now();
        let out = $self.inner.$method($($arg),*);
        $self.note(started);
        out
    }};
}

impl ExecutionBackend for TimedBackend<'_> {
    fn executors(&self) -> usize {
        timed!(self.executors())
    }
    fn is_idle(&self, executor: usize) -> bool {
        timed!(self.is_idle(executor))
    }
    fn is_up(&self, executor: usize) -> bool {
        timed!(self.is_up(executor))
    }
    fn idle_executors(&self) -> Vec<usize> {
        timed!(self.idle_executors())
    }
    fn any_idle(&self) -> bool {
        timed!(self.any_idle())
    }
    fn available_at(&self, executor: usize, now: SimTime) -> SimTime {
        timed!(self.available_at(executor, now))
    }
    fn availability_into(&self, now: SimTime, out: &mut Vec<SimTime>) {
        timed!(self.availability_into(now, out))
    }
    fn availability(&self, now: SimTime) -> Vec<SimTime> {
        timed!(self.availability(now))
    }
    fn start_task(&mut self, executor: usize, query: u64, now: SimTime) {
        timed!(self.start_task(executor, query, now))
    }
    fn enqueue_task(&mut self, executor: usize, query: u64, now: SimTime) {
        timed!(self.enqueue_task(executor, query, now))
    }
    fn cancel_task(&mut self, executor: usize, query: u64, now: SimTime) -> bool {
        timed!(self.cancel_task(executor, query, now))
    }
    fn submit_batch(&mut self, executor: usize, query: u64, now: SimTime) {
        timed!(self.submit_batch(executor, query, now))
    }
    fn open_batch_len(&self, executor: usize) -> usize {
        timed!(self.open_batch_len(executor))
    }
    fn request_wake(&mut self, at: SimTime) {
        timed!(self.request_wake(at))
    }
    fn usage(&self) -> Vec<ExecutorUsage> {
        timed!(self.usage())
    }
}

/// The query an event is about, if any.
fn event_query(event: &BackendEvent) -> u64 {
    match *event {
        BackendEvent::Arrival(i) => i as u64,
        BackendEvent::TaskDone { query, .. } | BackendEvent::TaskFailed { query, .. } => query,
        BackendEvent::ExecutorDown { .. }
        | BackendEvent::ExecutorUp { .. }
        | BackendEvent::Wake => NO_QUERY,
    }
}

/// A `PipelineEngine` that records a span per `handle` call of the real
/// engine and, on a wall clock, how late each arrival reached it.
pub struct TimedEngine<'a> {
    inner: SchembleEngine<'a>,
    recorder: Arc<Recorder>,
    workload: &'a Workload,
    /// Simulated seconds per wall second; `None` on the virtual clock,
    /// where an arrival is by construction handled at its own instant.
    dilation: Option<f64>,
    /// Per arrival: wall microseconds between the instant the trace
    /// scheduled it and the instant the engine was handed it — what the
    /// generator thread, the channel and the scheduler loop added.
    arrival_lag_us: Vec<f64>,
}

impl<'a> TimedEngine<'a> {
    pub fn new(
        inner: SchembleEngine<'a>,
        recorder: Arc<Recorder>,
        workload: &'a Workload,
        dilation: Option<f64>,
    ) -> Self {
        let lags = if dilation.is_some() { workload.len() } else { 0 };
        Self { inner, recorder, workload, dilation, arrival_lag_us: Vec::with_capacity(lags) }
    }

    /// The wrapped engine and the arrival lags seen.
    pub fn into_parts(self) -> (SchembleEngine<'a>, Vec<f64>) {
        (self.inner, self.arrival_lag_us)
    }
}

impl PipelineEngine for TimedEngine<'_> {
    fn handle(&mut self, event: BackendEvent, now: SimTime, backend: &mut dyn ExecutionBackend) {
        let open = self.recorder.begin();
        if let (Some(dilation), BackendEvent::Arrival(i)) = (self.dilation, event) {
            let due = self.workload.queries[i].arrival;
            self.arrival_lag_us.push(now.saturating_since(due).as_secs_f64() / dilation * 1e6);
        }
        let tally = BackendTally::default();
        self.inner.handle(event, now, &mut TimedBackend { inner: backend, tally: &tally });
        self.recorder.end(
            open,
            Layer::Handle,
            event_query(&event),
            tally.calls.get(),
            tally.ns.get(),
        );
    }
    fn open_count(&self) -> usize {
        self.inner.open_count()
    }
    fn next_wake_hint(&self, now: SimTime) -> Option<SimTime> {
        self.inner.next_wake_hint(now)
    }
    fn drain(&mut self, now: SimTime) {
        self.inner.drain(now)
    }
    fn take_records(&mut self) -> Vec<QueryRecord> {
        self.inner.take_records()
    }
    fn stats(&self) -> EngineStats {
        self.inner.stats()
    }
    fn take_completions(&mut self) -> Vec<(u64, f64)> {
        self.inner.take_completions()
    }
    fn steal_backlog(&self) -> (u64, u64) {
        self.inner.steal_backlog()
    }
    fn release_for_steal(&mut self, count: usize, now: SimTime) -> Vec<StolenQuery> {
        self.inner.release_for_steal(count, now)
    }
    fn adopt_stolen(&mut self, stolen: StolenQuery, lineage: StealLineage, now: SimTime) -> u64 {
        self.inner.adopt_stolen(stolen, lineage, now)
    }
    fn on_rebalanced(&mut self, now: SimTime, backend: &mut dyn ExecutionBackend) {
        self.inner.on_rebalanced(now, backend)
    }
}

/// A `Scheduler` that records a span per `plan_into` call of the scheduler
/// it wraps. `Sync`, so the shards of a sharded run can share it.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    recorder: Arc<Recorder>,
}

impl TimedScheduler {
    pub fn new(inner: Box<dyn Scheduler>, recorder: Arc<Recorder>) -> Self {
        Self { inner, recorder }
    }
}

impl Scheduler for TimedScheduler {
    fn plan_into(&self, input: &ScheduleInput, scratch: &mut SchedScratch, out: &mut SchedulePlan) {
        let start_ns = self.recorder.now_ns();
        self.inner.plan_into(input, scratch, out);
        let end_ns = self.recorder.now_ns();
        self.recorder.leaf(
            Layer::Plan,
            start_ns,
            end_ns,
            NO_QUERY,
            input.queries.len() as u64,
            out.work,
        );
    }
    fn name(&self) -> String {
        self.inner.name()
    }
}
