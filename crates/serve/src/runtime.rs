//! The serving runtime: one driver for both clocks, and reports.
//!
//! Every run goes through [`schemble_core::pipeline::advance`]: pop the next
//! event strictly before an instant `t` from an [`EventSource`] and hand it
//! to [`PipelineEngine::handle`]. [`run_virtual`]'s source is the DES
//! [`SimBackend`], so a virtual-clock serve run makes the DES pipelines'
//! decisions bit-for-bit by construction (the `serve_runtime` integration
//! test checks what is left to differ: each side's bank and engine setup).
//! [`run_wall`]'s source is real (dilated) time: worker threads realise
//! task latencies as timed waits, arrivals are read off a lane, and the
//! source waits on [`precise_recv_timeout`] in between. The steal-epoch
//! rendezvous is written once on top, for both clocks (`run_source`). The
//! run's counters are the engine's [`EngineStats`] and the
//! [`ExecutorBank`]'s task counts and busy times, copied into the
//! [`RuntimeMetrics`] record by one function (`sync_metrics` — after every
//! step on the wall clock, once at the end on the virtual one).

use crate::backend::ThreadedBackend;
use crate::clock::{precise_recv_timeout, DilatedClock};
use crate::steal::{execute_steal_round, LoadSnapshot, Rendezvous, StealHandle};
use crate::worker::{RuntimeMsg, WorkerPool};
use schemble_core::backend::{BackendEvent, ExecutionBackend, ExecutorUsage, SimBackend};
use schemble_core::engine::{
    EngineStats, FailurePolicy, ImmediateEngine, PipelineEngine, SchembleEngine,
};
use schemble_core::executor::ExecutorBank;
use schemble_core::pipeline::immediate::{Deployment, SelectionPolicy};
use schemble_core::pipeline::{
    advance, run_out, AdmissionMode, EventSource, ResultAssembler, SchembleConfig,
};
use schemble_data::Workload;
use schemble_metrics::{ExecutorGauges, RunSummary, RuntimeMetrics, RuntimeSnapshot};
use schemble_models::Ensemble;
use schemble_obs::{FlightRecorder, TripReason};
use schemble_sim::{BatchConfig, FaultPlan, LatencyModel, SimTime};
use schemble_trace::TraceSink;
use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Capacity of the bounded channel carrying worker reports.
const CHANNEL_CAPACITY: usize = 1024;

/// How the runtime's clock advances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClockMode {
    /// Real threads and sleeps; simulated time = wall time × `dilation`.
    Wall {
        /// Simulated seconds per wall second (1.0 = faithful real time).
        dilation: f64,
    },
    /// Deterministic virtual clock over the discrete-event simulator —
    /// reproduces the DES pipelines' decisions exactly.
    Virtual,
}

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Clock mode (wall dilation or deterministic virtual time).
    pub mode: ClockMode,
    /// Print a metrics snapshot at this (wall) interval, if set.
    pub report_every: Option<Duration>,
    /// Sink receiving query lifecycle events from the engine and backend;
    /// `None` runs untraced (the engine/backend get a disabled sink).
    pub trace: Option<Arc<TraceSink>>,
    /// Seeded fault schedule injected into the backend (both clock modes);
    /// `None` (or a no-op plan) leaves backends byte-identical to a
    /// fault-free run.
    pub faults: Option<FaultPlan>,
    /// Retry/degradation policy handed to the engine. Applies to the
    /// immediate pipelines only — the Schemble pipeline carries its policy
    /// in [`SchembleConfig::failure`]. Of its two knobs they use
    /// `max_retries`: a failed task rejoins the FIFO queue of the
    /// least-loaded live instance at once (that backlog is the delay), so
    /// `backoff` has no effect here.
    pub failure: Option<FailurePolicy>,
    /// Engine shards for [`serve_schemble`]. `1` (the default) runs the
    /// single-engine path unchanged; `S > 1` hash-routes arrivals across
    /// `S` parallel engines (see [`crate::shard`]), each with its own
    /// executor replica.
    pub shards: usize,
    /// Post-mortem flight recorder. Tapped into the trace sink by the
    /// caller; the runtime additionally trips it on wedge detection and
    /// worker panics so the dump records *why* the run went sideways.
    pub recorder: Option<Arc<schemble_obs::FlightRecorder>>,
    /// Cross-query batched execution, installed into the backend (both
    /// clock modes). [`serve_schemble`] fills this from
    /// [`SchembleConfig::batching`]; `None` — and equally an inactive
    /// config — keeps the backends byte-identical to an unbatched run.
    pub batching: Option<BatchConfig>,
    /// Inter-shard work stealing: shard engines pause at every virtual-time
    /// boundary of this length and rebalance admitted-but-unplanned queries
    /// (see [`crate::steal`]). Only the sharded Schemble path uses it;
    /// `None` (the default) is byte-identical to a build without stealing.
    pub steal_epoch: Option<schemble_sim::SimDuration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            mode: ClockMode::Wall { dilation: 1.0 },
            report_every: None,
            trace: None,
            faults: None,
            failure: None,
            shards: 1,
            recorder: None,
            batching: None,
            steal_epoch: None,
        }
    }
}

impl ServeConfig {
    /// The sink engines and backends should emit into.
    fn sink(&self) -> Arc<TraceSink> {
        self.trace.clone().unwrap_or_else(TraceSink::disabled)
    }

    /// The executors of one run, with this config's sink, fault plan and
    /// batching installed — the same for both clock modes.
    fn bank(&self, latencies: Vec<LatencyModel>, seed: u64, stream: &str) -> ExecutorBank {
        ExecutorBank::new(latencies, seed, stream)
            .with_trace(self.sink())
            .with_faults(self.faults.as_ref(), seed)
            .with_batching(self.batching)
    }
}

/// Low-level result of one runtime execution.
pub struct RunStats {
    /// Per-executor busy/task counters.
    pub usage: Vec<ExecutorUsage>,
    /// Wall-clock seconds the run took.
    pub wall_secs: f64,
    /// Simulated seconds the replayed trace spanned.
    pub sim_secs: f64,
}

/// Everything a serve/loadtest run reports.
pub struct ServeReport {
    /// Per-query outcomes, identical in shape to a DES run's summary.
    pub summary: RunSummary,
    /// The engine's final admission counters.
    pub stats: EngineStats,
    /// The run's metrics record (task totals, per-executor gauges, latency
    /// and batch-size histograms) — what the Prometheus exporter renders.
    pub metrics: Arc<RuntimeMetrics>,
    /// Wall-clock seconds the run took.
    pub wall_secs: f64,
    /// Simulated seconds the replayed trace spanned.
    pub sim_secs: f64,
}

/// Copies what the engine and the bank have counted into `metrics` under
/// one lock: the engine's stats, the bank's task totals and executor
/// gauges, and the answers and launched batches since the last call
/// (`batches` is the caller's cursor into the bank's launch log). Both clock
/// modes report through this — the wall clock after every loop step, the
/// virtual one once at the end — so neither counts anything of its own.
fn sync_metrics(
    engine: &mut dyn PipelineEngine,
    bank: &ExecutorBank,
    metrics: &RuntimeMetrics,
    batches: &mut usize,
) {
    let answers = engine.take_completions();
    let mut r = metrics.lock();
    r.stats = engine.stats();
    r.tasks = bank.counters();
    r.executors.clear();
    r.executors.extend((0..bank.executors()).map(|k| ExecutorGauges {
        queue_depth: bank.backlog_len(k) as u64,
        running: bank.running_pass(k).is_some() as u64,
        up: bank.is_up(k) as u64,
        busy_micros: bank.busy(k).as_micros(),
        tasks: bank.tasks(k),
    }));
    for (_, latency_secs) in answers {
        r.latency.record(latency_secs);
    }
    for &size in &bank.batch_sizes()[*batches..] {
        r.batch_size.record(size as f64);
    }
    *batches = bank.batch_sizes().len();
}

/// The periodic reporter: a thread printing what `snapshot` returns — the
/// metrics at one instant of simulated time — to stderr
/// every `every` of wall time. Dropping the guard stops and joins it; the
/// stop flag lives under a condvar, so shutdown interrupts the interval
/// sleep at once instead of blocking the run for up to a full period.
pub(crate) struct Reporter {
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Reporter {
    pub(crate) fn spawn(
        every: Duration,
        snapshot: impl Fn() -> RuntimeSnapshot + Send + 'static,
    ) -> Self {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let signal = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("schemble-reporter".into())
            .spawn(move || {
                let (flag, cv) = &*signal;
                // A poisoned flag (panicked peer) must not kill reporting:
                // recover the guard and carry on.
                let mut stopped = flag.lock().unwrap_or_else(|e| e.into_inner());
                while !*stopped {
                    let (guard, timeout) =
                        cv.wait_timeout(stopped, every).unwrap_or_else(|e| e.into_inner());
                    stopped = guard;
                    if !*stopped && timeout.timed_out() {
                        let snap = snapshot();
                        eprintln!("[serve t={:.1}s] {}", snap.elapsed_secs, snap.brief());
                    }
                }
            })
            .expect("spawn reporter");
        Self { stop, thread: Some(thread) }
    }
}

impl Drop for Reporter {
    fn drop(&mut self) {
        let (flag, cv) = &*self.stop;
        *flag.lock().unwrap_or_else(|e| e.into_inner()) = true;
        cv.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The wall clock as an [`EventSource`]: worker reports arrive on `rx` and
/// arrivals are read off a lane; in between, the source waits on
/// [`precise_recv_timeout`] until the earliest of the lane's head, a
/// backend timer, the engine's wake hint and the advance's bound.
struct WallSource<'a> {
    backend: ThreadedBackend,
    rx: Receiver<RuntimeMsg>,
    clock: DilatedClock,
    /// The arrival lane: `workload.queries[next..]` have not arrived yet.
    workload: &'a Workload,
    next: usize,
    /// The instant the events in hand are handled at: a worker report whose
    /// pass may still have members to retire, and the rest of what one
    /// instant brought (fault transitions, or a timeout's dead workers and
    /// its wake).
    now: SimTime,
    draining: Option<(usize, u64)>,
    pending: VecDeque<BackendEvent>,
    /// The events in hand came from a timeout: the wedge breaker looks
    /// once they are handled. `stalled` counts such timeouts in a row.
    timed_out: bool,
    stalled: u32,
    halted: bool,
    recorder: Option<Arc<FlightRecorder>>,
    metrics: &'a RuntimeMetrics,
    /// Cursor into the bank's launch log for [`sync_metrics`].
    batches: usize,
}

impl EventSource for WallSource<'_> {
    type Backend = ThreadedBackend;

    fn backend(&mut self) -> &mut ThreadedBackend {
        &mut self.backend
    }

    fn next_event(
        &mut self,
        engine: &mut dyn PipelineEngine,
        until: Option<SimTime>,
    ) -> Option<(SimTime, BackendEvent)> {
        loop {
            // A batched pass retires one member per event, so the engine
            // handles each before the next retires, as in the simulator.
            // A stale report retires nothing.
            if let Some((executor, pass)) = self.draining {
                match self.backend.retire(executor, pass, self.now) {
                    Some(event) => return Some((self.now, event)),
                    None => self.draining = None,
                }
            }
            if let Some(event) = self.pending.pop_front() {
                return Some((self.now, event));
            }
            // Keep the record live for `--report-ms` after every step.
            sync_metrics(engine, self.backend.bank(), self.metrics, &mut self.batches);
            // Wedge breaker: open queries, but nothing running, no timer
            // pending anywhere and the trace replayed. Three such timeouts
            // in a row end the run; `drain` then closes the stranded
            // queries (degraded or expired), so they are never lost.
            if std::mem::take(&mut self.timed_out) {
                let stuck = self.exhausted()
                    && self.backend.next_wake().is_none()
                    && engine.next_wake_hint(self.clock.now_sim()).is_none()
                    && engine.open_count() > 0;
                self.stalled = if stuck { self.stalled + 1 } else { 0 };
                if self.stalled >= 3 {
                    if let Some(recorder) = &self.recorder {
                        recorder.trip(TripReason::Wedge);
                    }
                    self.halted = true;
                }
            }
            if self.halted {
                return None;
            }
            // At one instant: due fault transitions, a due wake, due batch
            // launches (their deadline is part of `next_wake`), then due
            // arrivals — none at or past `until`.
            let now = self.clock.now_sim();
            self.now = now;
            let faults = self.backend.take_due_fault_events(now);
            if !faults.is_empty() {
                self.pending.extend(faults);
                continue;
            }
            if self.backend.take_due_wake(now) {
                return Some((now, BackendEvent::Wake));
            }
            self.backend.launch_due_batches(now);
            let arrival = self.workload.queries.get(self.next).map(|q| q.arrival);
            let lane_due = |t| arrival.is_some_and(|at| at <= t && until.is_none_or(|u| at < u));
            if lane_due(now) {
                self.next += 1;
                self.stalled = 0;
                return Some((now, BackendEvent::Arrival(self.next - 1)));
            }
            match until {
                Some(t) if now >= t => return None,
                None if self.exhausted() && engine.open_count() == 0 => return None,
                _ => {}
            }
            let timer = [self.backend.next_wake(), engine.next_wake_hint(now)];
            let timer = timer.into_iter().flatten().min();
            let timeout = match [arrival, timer, until].into_iter().flatten().min() {
                Some(t) => self.clock.wall_until(t),
                None => Duration::from_millis(20),
            };
            match precise_recv_timeout(&self.rx, timeout) {
                // A worker report is a pass's timer firing, keyed by the
                // pass id (the backend always submits with `failed =
                // false`; fates are the bank's).
                Ok(RuntimeMsg::TaskDone { executor, query: pass })
                | Ok(RuntimeMsg::TaskFailed { executor, query: pass }) => {
                    self.now = self.clock.now_sim();
                    self.draining = Some((executor, pass));
                    self.stalled = 0;
                }
                // Dead (panicked) workers surface on a timeout, as
                // executor-down; then the engine gets a wake, unless all
                // that came due is an arrival (delivered on the next turn).
                Err(RecvTimeoutError::Timeout) => {
                    self.now = self.clock.now_sim();
                    let dead = self.backend.reap_dead(self.now);
                    if !dead.is_empty() {
                        if let Some(recorder) = &self.recorder {
                            recorder.trip(TripReason::WorkerPanic);
                        }
                    }
                    self.pending.extend(dead);
                    if !lane_due(self.now) || timer.is_some_and(|t| t <= self.now) {
                        self.pending.push_back(BackendEvent::Wake);
                        self.timed_out = true;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => self.halted = true,
            }
        }
    }

    fn exhausted(&self) -> bool {
        self.next == self.workload.len() && self.backend.all_idle()
    }

    /// Real time does not stop at `t`: the driver stands at the clock's
    /// reading.
    fn instant(&self, _: SimTime) -> SimTime {
        self.clock.now_sim()
    }

    fn halted(&self) -> bool {
        self.halted
    }
}

/// Runs `engine` over `source` to the end, on either clock. With a
/// [`StealHandle`] the shard advances to each epoch boundary (events
/// strictly before it), rendezvouses, and runs the round at the instant the
/// source stands at — the boundary itself on the virtual clock, so sharded
/// runs with stealing are byte-identical across DES and virtual drivers.
/// Once the rounds stop, or the source halts, the rest runs out.
fn run_source<S: EventSource>(
    engine: &mut dyn PipelineEngine,
    source: &mut S,
    steal: Option<&mut StealHandle>,
) -> SimTime {
    let mut end = SimTime::ZERO;
    if let Some(handle) = steal {
        loop {
            let boundary = handle.next_boundary();
            if let Some(last) = advance(engine, source, Some(boundary)) {
                end = last;
            }
            if source.halted() {
                break;
            }
            let done = source.exhausted() && engine.open_count() == 0;
            let (depth, backlog_us) = engine.steal_backlog();
            match handle.rendezvous(LoadSnapshot { depth, backlog_us, done }) {
                Rendezvous::Stop => break,
                Rendezvous::Round(plan) => {
                    let now = source.instant(boundary);
                    if execute_steal_round(engine, source.backend(), handle, &plan, now) {
                        end = now;
                    }
                }
            }
        }
        // An early exit (wedge breaker, disconnect) leaves the rendezvous
        // for good, so the peer shards' barriers recompute without this
        // one; after a stop it is a no-op.
        handle.detach();
    }
    run_out(engine, source, end)
}

/// Drives `engine` in wall-clock mode over a [`ThreadedBackend`].
///
/// Returns once the whole trace has been replayed, every admitted query has
/// completed or expired, and all executors have drained (or the wedge
/// breaker or a lost channel ended the run); worker threads are then shut
/// down, abandoning a killed pass still being timed.
#[allow(clippy::too_many_arguments)]
pub fn run_wall(
    engine: &mut dyn PipelineEngine,
    latencies: Vec<LatencyModel>,
    workload: &Workload,
    seed: u64,
    stream: &str,
    config: &ServeConfig,
    dilation: f64,
    metrics: &Arc<RuntimeMetrics>,
    steal: Option<&mut StealHandle>,
) -> RunStats {
    let wall_start = Instant::now();
    // Stealing shards share the coordinator's clock origin.
    let clock =
        steal.as_deref().map_or_else(|| DilatedClock::start(dilation), |h| h.clock(dilation));
    let (tx, rx) = sync_channel::<RuntimeMsg>(CHANNEL_CAPACITY);
    let pool = WorkerPool::spawn(latencies.len(), tx);
    let backend = ThreadedBackend::new(config.bank(latencies, seed, stream), pool, clock);
    // Optional periodic reporter, copying the metrics record under its lock.
    let _reporter = config.report_every.map(|every| {
        let metrics = Arc::clone(metrics);
        Reporter::spawn(every, move || metrics.snapshot(clock.now_sim().as_secs_f64()))
    });
    let mut source = WallSource {
        backend,
        rx,
        clock,
        workload,
        next: 0,
        now: SimTime::ZERO,
        draining: None,
        pending: VecDeque::new(),
        timed_out: false,
        stalled: 0,
        halted: false,
        recorder: config.recorder.clone(),
        metrics,
        batches: 0,
    };
    let end = run_source(engine, &mut source, steal);
    sync_metrics(engine, source.backend.bank(), metrics, &mut source.batches);
    let usage = source.backend.usage();
    source.backend.shutdown();
    RunStats { usage, wall_secs: wall_start.elapsed().as_secs_f64(), sim_secs: end.as_secs_f64() }
}

/// Drives `engine` deterministically over the DES [`SimBackend`] through
/// the loop `run_schemble`/`run_immediate` run, so decisions (admissions,
/// model sets, completion times) are those pipelines'.
#[allow(clippy::too_many_arguments)]
pub fn run_virtual(
    engine: &mut dyn PipelineEngine,
    latencies: Vec<LatencyModel>,
    workload: &Workload,
    seed: u64,
    stream: &str,
    config: &ServeConfig,
    metrics: &RuntimeMetrics,
    steal: Option<&mut StealHandle>,
) -> RunStats {
    let wall_start = Instant::now();
    let mut backend = SimBackend::new(config.bank(latencies, seed, stream));
    for (i, q) in workload.queries.iter().enumerate() {
        backend.push_arrival(q.arrival, i);
    }
    let end = run_source(engine, &mut backend, steal);
    // The simulator has no observer to keep the record live for: report
    // once, at the end.
    sync_metrics(engine, backend.bank(), metrics, &mut 0);
    RunStats {
        usage: backend.usage(),
        wall_secs: wall_start.elapsed().as_secs_f64(),
        sim_secs: end.as_secs_f64(),
    }
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn run_with(
    engine: &mut dyn PipelineEngine,
    latencies: Vec<LatencyModel>,
    workload: &Workload,
    seed: u64,
    stream: &str,
    config: &ServeConfig,
    metrics: &Arc<RuntimeMetrics>,
    steal: Option<&mut StealHandle>,
) -> RunStats {
    match config.mode {
        ClockMode::Virtual => {
            run_virtual(engine, latencies, workload, seed, stream, config, metrics, steal)
        }
        ClockMode::Wall { dilation } => {
            run_wall(engine, latencies, workload, seed, stream, config, dilation, metrics, steal)
        }
    }
}

/// Serves `workload` through the Schemble pipeline on this runtime.
pub fn serve_schemble(
    ensemble: &Ensemble,
    pipeline: &SchembleConfig,
    workload: &Workload,
    seed: u64,
    config: &ServeConfig,
) -> ServeReport {
    // The pipeline's batching choice rides into the backend via the serve
    // config (shards clone it per shard, so the sharded path inherits it).
    let config =
        &ServeConfig { batching: pipeline.batching.filter(|b| b.active()), ..config.clone() };
    if config.shards > 1 {
        return crate::shard::serve_schemble_sharded(ensemble, pipeline, workload, seed, config);
    }
    let latencies = (0..ensemble.m()).map(|k| ensemble.latency(k)).collect();
    let engine = SchembleEngine::new(ensemble, pipeline, workload).with_trace(config.sink());
    let stream = "schemble-latency";
    serve_engine(engine, SchembleEngine::into_summary, latencies, workload, seed, stream, config)
}

/// Serves `workload` through an immediate-selection pipeline (Original /
/// Static / DES / Gating) on this runtime.
#[allow(clippy::too_many_arguments)]
pub fn serve_immediate(
    ensemble: &Ensemble,
    deployment: &Deployment,
    policy: &mut dyn SelectionPolicy,
    assembler: &ResultAssembler,
    admission: AdmissionMode,
    workload: &Workload,
    seed: u64,
    config: &ServeConfig,
) -> ServeReport {
    let latencies = deployment.hosts.iter().map(|&h| ensemble.latency(h)).collect();
    let engine = ImmediateEngine::new(ensemble, deployment, policy, assembler, admission, workload)
        .with_trace(config.sink())
        .with_failure(config.failure);
    let stream = "immediate-latency";
    serve_engine(engine, ImmediateEngine::into_summary, latencies, workload, seed, stream, config)
}

/// One engine, one metrics block, one run on `config`'s clock: the body of
/// every unsharded serve. `into_summary` is the engine's own (it folds
/// per-executor usage into per-model usage through its deployment).
fn serve_engine<E: PipelineEngine>(
    mut engine: E,
    into_summary: fn(E, Vec<ExecutorUsage>) -> RunSummary,
    latencies: Vec<LatencyModel>,
    workload: &Workload,
    seed: u64,
    stream: &str,
    config: &ServeConfig,
) -> ServeReport {
    let metrics = Arc::new(RuntimeMetrics::new(latencies.len()));
    let run = run_with(&mut engine, latencies, workload, seed, stream, config, &metrics, None);
    let stats = engine.stats();
    ServeReport {
        summary: into_summary(engine, run.usage),
        stats,
        metrics,
        wall_secs: run.wall_secs,
        sim_secs: run.sim_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemble_data::Query;
    use schemble_metrics::QueryRecord;
    use schemble_models::{Label, Sample};

    /// Admits every query and never dispatches one: the shape of a wedge.
    #[derive(Default)]
    struct Stuck {
        open: usize,
        stats: EngineStats,
    }

    impl PipelineEngine for Stuck {
        fn handle(&mut self, event: BackendEvent, _: SimTime, _: &mut dyn ExecutionBackend) {
            if let BackendEvent::Arrival(_) = event {
                self.open += 1;
                self.stats.submitted += 1;
            }
        }
        fn open_count(&self) -> usize {
            self.open
        }
        fn next_wake_hint(&self, _: SimTime) -> Option<SimTime> {
            None
        }
        fn drain(&mut self, _: SimTime) {
            self.stats.expired += std::mem::take(&mut self.open) as u64;
        }
        fn take_records(&mut self) -> Vec<QueryRecord> {
            Vec::new()
        }
        fn stats(&self) -> EngineStats {
            self.stats
        }
        fn take_completions(&mut self) -> Vec<(u64, f64)> {
            Vec::new()
        }
    }

    #[test]
    fn the_wedge_breaker_ends_a_stuck_wall_run_and_drains_it() {
        let sample = Sample {
            id: 0,
            difficulty: 0.0,
            shared_noise: 0.0,
            label: Label::Class(0),
            features: Vec::new(),
        };
        let deadline = SimTime::from_millis(50);
        let query = Query { id: 0, key: 0, sample, arrival: SimTime::ZERO, deadline };
        let workload = Workload { queries: vec![query], duration: deadline };
        let recorder = Arc::new(FlightRecorder::new(16, None));
        let config = ServeConfig { recorder: Some(Arc::clone(&recorder)), ..Default::default() };
        let metrics = Arc::new(RuntimeMetrics::new(1));
        let mut engine = Stuck::default();
        let latencies = vec![LatencyModel::constant_millis(1.0)];
        let started = Instant::now();
        run_wall(&mut engine, latencies, &workload, 1, "test", &config, 100.0, &metrics, None);
        // Three idle waits of 20 ms each, then the breaker.
        assert!(started.elapsed() < Duration::from_secs(5), "took {:?}", started.elapsed());
        assert_eq!(recorder.tripped(), Some(TripReason::Wedge));
        assert_eq!(engine.open_count(), 0, "drain closed the stranded query");
        let stats = metrics.lock().stats;
        assert_eq!((stats.submitted, stats.expired), (1, 1));
    }
}
