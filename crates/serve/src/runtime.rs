//! The serving runtime: scheduler loop, load generator and reports.
//!
//! [`run_wall`] drives a [`PipelineEngine`] in real (dilated) time: a load
//! generator thread replays the workload's arrival trace, worker threads
//! realise task latencies as timed waits, and the scheduler loop reacts to
//! arrivals, completions and timer wake-ups — re-running the engine's
//! planning logic on every event exactly as the simulator does, and
//! enforcing deadlines by waiting on its channel with the calibrated timer
//! of [`crate::clock`] ([`precise_recv_timeout`]) until the next instant
//! [`PipelineEngine::next_wake_hint`] or the backend asks for.
//! [`run_virtual`] drives the same engine over the deterministic
//! [`SimBackend`] instead, through [`drive`] — the one loop the DES
//! pipelines of `schemble-core` run too — so a virtual-clock serve run
//! makes those pipelines' decisions bit-for-bit by construction (the
//! `serve_runtime` integration test checks what is left to differ: how
//! each side sets up its bank and engine). Either way the run's counters
//! are the engine's [`EngineStats`] and the [`ExecutorBank`]'s own task
//! counts and busy times, copied into the [`RuntimeMetrics`] record by one
//! function (`sync_metrics` — after every loop step on the wall clock, once
//! at the end on the virtual one).

use crate::backend::ThreadedBackend;
use crate::clock::{precise_recv_timeout, precise_sleep, DilatedClock};
use crate::steal::{execute_steal_round, LoadSnapshot, Rendezvous, StealHandle};
use crate::worker::{RuntimeMsg, WorkerPool};
use schemble_core::backend::{BackendEvent, ExecutionBackend, ExecutorUsage, SimBackend};
use schemble_core::engine::{
    EngineStats, FailurePolicy, ImmediateEngine, PipelineEngine, SchembleEngine,
};
use schemble_core::executor::ExecutorBank;
use schemble_core::pipeline::immediate::{Deployment, SelectionPolicy};
use schemble_core::pipeline::{drive, run_out, AdmissionMode, ResultAssembler, SchembleConfig};
use schemble_data::Workload;
use schemble_metrics::{ExecutorGauges, RunSummary, RuntimeMetrics, RuntimeSnapshot};
use schemble_models::Ensemble;
use schemble_sim::{BatchConfig, FaultPlan, LatencyModel, SimTime};
use schemble_trace::TraceSink;
use std::sync::mpsc::{sync_channel, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Capacity of the bounded channel feeding the scheduler loop.
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

/// Drives `engine` in wall-clock mode over a [`ThreadedBackend`].
///
/// Returns once the whole trace has been replayed, every admitted query has
/// completed or expired, and all executors have drained; worker threads are
/// then shut down (queues are empty; a killed pass still being timed is
/// abandoned).
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
    mut steal: Option<&mut StealHandle>,
) -> RunStats {
    let wall_start = Instant::now();
    let clock =
        steal.as_deref().map_or_else(|| DilatedClock::start(dilation), |h| h.clock(dilation));
    let (tx, rx) = sync_channel::<RuntimeMsg>(CHANNEL_CAPACITY);
    let pool = WorkerPool::spawn(latencies.len(), tx.clone());
    let bank = config.bank(latencies, seed, stream);
    let mut backend = ThreadedBackend::new(bank, pool, clock);

    // Trace-replay load generator: one thread sleeping to each arrival.
    let arrivals: Vec<SimTime> = workload.queries.iter().map(|q| q.arrival).collect();
    let loadgen = std::thread::Builder::new()
        .name("schemble-loadgen".into())
        .spawn(move || {
            for (i, at) in arrivals.into_iter().enumerate() {
                let wait = clock.wall_until(at);
                if !wait.is_zero() {
                    precise_sleep(wait);
                }
                if tx.send(RuntimeMsg::Arrive(i)).is_err() {
                    return; // runtime gone; stop replaying.
                }
            }
            let _ = tx.send(RuntimeMsg::ArrivalsDone);
        })
        .expect("spawn load generator");

    // Optional periodic reporter, copying the metrics record under its lock.
    let _reporter = config.report_every.map(|every| {
        let metrics = Arc::clone(metrics);
        Reporter::spawn(every, move || metrics.snapshot(clock.now_sim().as_secs_f64()))
    });

    // Applies one runtime message to the engine. Shared between the main
    // recv loop and the pre-rendezvous drain.
    fn deliver(
        msg: RuntimeMsg,
        now: SimTime,
        engine: &mut dyn PipelineEngine,
        backend: &mut ThreadedBackend,
        arrivals_done: &mut bool,
        stalled: &mut u32,
    ) {
        match msg {
            RuntimeMsg::Arrive(i) => {
                engine.handle(BackendEvent::Arrival(i), now, backend);
                *stalled = 0;
            }
            // A worker report is a pass's timer firing, keyed by the pass
            // id (the backend always submits with `failed = false`; fates
            // are the bank's). Each member retires and is handled in turn;
            // a stale report retires nothing.
            RuntimeMsg::TaskDone { executor, query: pass }
            | RuntimeMsg::TaskFailed { executor, query: pass } => {
                while let Some(event) = backend.retire(executor, pass, now) {
                    engine.handle(event, now, backend);
                }
                *stalled = 0;
            }
            RuntimeMsg::ArrivalsDone => *arrivals_done = true,
        }
    }

    let mut arrivals_done = false;
    let mut stalled = 0u32;
    let mut batches = 0;
    let mut steal_stopped = steal.is_none();
    loop {
        let now = clock.now_sim();
        // Epoch rendezvous: once wall time passes a steal boundary, pause
        // and rebalance with the peer shards.
        if !steal_stopped {
            let handle = steal.as_deref_mut().expect("steal handle present until stopped");
            let boundary = handle.next_boundary();
            if now >= boundary {
                // A rendezvous round can outlast the wall time between
                // epoch boundaries (small epochs, high dilation). Drain
                // everything already due before blocking on the barrier —
                // back-to-back rounds would otherwise starve the message
                // channel, wedging the loadgen against its bounded buffer
                // so arrivals (and the run) never finish.
                while let Ok(msg) = rx.try_recv() {
                    let now = clock.now_sim();
                    deliver(msg, now, &mut *engine, &mut backend, &mut arrivals_done, &mut stalled);
                }
                let now = clock.now_sim();
                for event in backend.take_due_fault_events(now) {
                    engine.handle(event, now, &mut backend);
                }
                if backend.take_due_wake(now) {
                    engine.handle(BackendEvent::Wake, now, &mut backend);
                }
                backend.launch_due_batches(now);
                let done = arrivals_done && engine.open_count() == 0 && backend.all_idle();
                let (depth, backlog_us) = engine.steal_backlog();
                match handle.rendezvous(LoadSnapshot { depth, backlog_us, done }) {
                    Rendezvous::Stop => steal_stopped = true,
                    Rendezvous::Round(plan) => {
                        execute_steal_round(engine, &mut backend, handle, &plan, now);
                    }
                }
                sync_metrics(engine, backend.bank(), metrics, &mut batches);
                continue;
            }
        }
        // Fault-plan transitions due now (crashes, recoveries, and the
        // tasks a crash killed) reach the engine before anything else.
        let fault_events = backend.take_due_fault_events(now);
        if !fault_events.is_empty() {
            for event in fault_events {
                engine.handle(event, now, &mut backend);
            }
            sync_metrics(engine, backend.bank(), metrics, &mut batches);
            continue;
        }
        // Engine-requested wake-ups that have come due fire next.
        if backend.take_due_wake(now) {
            engine.handle(BackendEvent::Wake, now, &mut backend);
            sync_metrics(engine, backend.bank(), metrics, &mut batches);
            continue;
        }
        // Open batches whose coalescing window expired launch before the
        // loop sleeps again (their deadline is part of `next_wake`).
        backend.launch_due_batches(now);
        // With stealing live, a drained shard keeps rendezvousing (it may
        // yet adopt work) until the coordinator declares a global stop.
        if arrivals_done && engine.open_count() == 0 && backend.all_idle() && steal_stopped {
            break;
        }
        // Sleep until the next arrival/completion, or the next timer the
        // engine needs (pending plan, predictor done, earliest deadline).
        let mut next = backend.next_wake();
        if let Some(hint) = engine.next_wake_hint(now) {
            next = Some(next.map_or(hint, |n| n.min(hint)));
        }
        if !steal_stopped {
            let boundary = steal.as_ref().expect("steal handle present").next_boundary();
            next = Some(next.map_or(boundary, |n| n.min(boundary)));
        }
        let timeout = match next {
            Some(t) => clock.wall_until(t),
            None => Duration::from_millis(20),
        };
        match precise_recv_timeout(&rx, timeout) {
            Ok(msg) => {
                let now = clock.now_sim();
                deliver(msg, now, &mut *engine, &mut backend, &mut arrivals_done, &mut stalled);
            }
            Err(RecvTimeoutError::Timeout) => {
                let now = clock.now_sim();
                // Dead (panicked) workers surface here, as executor-down.
                let dead = backend.reap_dead(now);
                if !dead.is_empty() {
                    if let Some(rec) = &config.recorder {
                        rec.trip(schemble_obs::TripReason::WorkerPanic);
                    }
                }
                for event in dead {
                    engine.handle(event, now, &mut backend);
                }
                engine.handle(BackendEvent::Wake, now, &mut backend);
                // Wedge breaker: open queries but nothing running, no timer
                // pending anywhere, trace replayed — nothing can make
                // progress. Three consecutive idle timeouts end the loop;
                // drain() below closes the stranded queries (degraded or
                // expired), so they are never silently lost.
                if arrivals_done
                    && backend.all_idle()
                    && backend.next_wake().is_none()
                    && engine.next_wake_hint(clock.now_sim()).is_none()
                    && engine.open_count() > 0
                {
                    stalled += 1;
                    if stalled >= 3 {
                        if let Some(rec) = &config.recorder {
                            rec.trip(schemble_obs::TripReason::Wedge);
                        }
                        break;
                    }
                } else {
                    stalled = 0;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
        sync_metrics(engine, backend.bank(), metrics, &mut batches);
    }

    // An early exit (wedge breaker, disconnect) leaves the rendezvous for
    // good so the peer shards' barriers recompute without this one.
    if let Some(handle) = steal {
        handle.detach();
    }
    let end = clock.now_sim();
    engine.drain(end);
    sync_metrics(engine, backend.bank(), metrics, &mut batches);
    let _ = loadgen.join();
    let usage = backend.usage();
    backend.shutdown();
    RunStats { usage, wall_secs: wall_start.elapsed().as_secs_f64(), sim_secs: end.as_secs_f64() }
}

/// Drives `engine` deterministically over the DES [`SimBackend`] through
/// [`drive`] — the loop `run_schemble`/`run_immediate` run, so decisions
/// (admissions, model sets, completion times) are those pipelines'.
///
/// With a [`StealHandle`], the shard additionally pauses at every epoch
/// boundary: events strictly before the boundary are processed first, then
/// the shard rendezvouses (boundary-time events run after), so every shard
/// cuts its epochs at identical virtual instants — the property that makes
/// sharded runs with stealing byte-identical across DES and wall drivers.
/// Once the coordinator stops the rounds, the rest of the trace runs out
/// through [`drive`]'s own tail, [`run_out`].
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
    let end = match steal {
        None => drive(engine, &mut backend, workload),
        Some(handle) => {
            for (i, q) in workload.queries.iter().enumerate() {
                backend.push_arrival(q.arrival, i);
            }
            let mut end = SimTime::ZERO;
            loop {
                let boundary = handle.next_boundary();
                while let Some((now, event)) = backend.pop_event_before(boundary) {
                    engine.handle(event, now, &mut backend);
                    end = now;
                }
                let done = backend.peek_time().is_none() && engine.open_count() == 0;
                let (depth, backlog_us) = engine.steal_backlog();
                match handle.rendezvous(LoadSnapshot { depth, backlog_us, done }) {
                    Rendezvous::Stop => break,
                    Rendezvous::Round(plan) => {
                        if execute_steal_round(engine, &mut backend, handle, &plan, boundary) {
                            end = boundary;
                        }
                    }
                }
            }
            handle.detach();
            run_out(engine, &mut backend, end)
        }
    };
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
