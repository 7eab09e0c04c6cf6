//! One replay of a workload through the program, and what came out of it.
//!
//! An untraced pass calls the public `serve_schemble` and nothing else. A
//! traced pass makes the same run through the timing wrappers of
//! [`crate::timed`]: on one shard it builds the engine itself and hands a
//! [`TimedEngine`] to the public `run_virtual` / `run_wall`; on the sharded
//! workload the engines are built inside `serve_schemble_sharded`, so only
//! the shared [`TimedScheduler`](crate::timed::TimedScheduler) and the
//! whole-call span apply.

use crate::procfs::cpu_seconds;
use crate::scenario::Setup;
use crate::spans::{Layer, Recorder, NO_QUERY};
use crate::stats;
use crate::timed::TimedEngine;
use schemble_core::engine::{EngineStats, PipelineEngine, SchembleEngine};
use schemble_core::pipeline::SchembleConfig;
use schemble_data::Workload;
use schemble_metrics::{QueryOutcome, QueryRecord, RunSummary, RuntimeMetrics};
use schemble_obs::{FlightRecorder, ObsConfig, ObsState};
use schemble_serve::{run_virtual, run_wall, serve_schemble, ClockMode, ServeConfig};
use schemble_sim::rng::mix;
use schemble_sim::LatencyModel;
use schemble_trace::{audit_ndjson, prometheus_text, TraceEvent, TraceSink};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

/// Capacity of the observed workload's sink: comfortably above the ~1.1 M
/// events of a pass, so an event is never dropped.
const SINK_CAPACITY: usize = 1 << 22;

/// What the always-on telemetry of the observed workload produced and cost.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    pub events: usize,
    pub dropped: u64,
    /// `prometheus_text` over the runtime's metrics block.
    pub prometheus_ms: f64,
    /// `audit_ndjson` over the drained events.
    pub audit_ms: f64,
    /// `ObsState::fold` over the drained events.
    pub fold_ms: f64,
    /// `slo_ndjson` + `prometheus` of the folded state.
    pub obs_export_ms: f64,
    /// Bytes of all four rendered documents.
    pub bytes: usize,
    /// The drained events themselves, when the caller asked to keep them.
    pub captured: Vec<TraceEvent>,
}

/// How to make a pass; the default is an untraced pass of the workload
/// as configured.
#[derive(Clone, Copy, Default)]
pub struct PassOptions<'r> {
    /// Trace the pass into this recorder. The pipeline must then hold a
    /// `TimedScheduler` around the same recorder.
    pub recorder: Option<&'r Arc<Recorder>>,
    /// Keep the drained trace events in [`Telemetry::captured`].
    pub keep_events: bool,
    /// Replay on the virtual clock whatever the workload's own clock is.
    pub virtual_clock: bool,
    /// Run on one engine shard (hence without stealing) however many the
    /// workload has.
    pub one_shard: bool,
}

/// The outcome of one pass.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Queries in the replayed workload.
    pub queries: usize,
    /// Backend seconds the replay spanned.
    pub sim_s: f64,
    /// `plan_into` calls and their work units, from the program's own
    /// always-on planning profile.
    pub plans: u64,
    pub work_units: u64,
    /// Wall seconds of the serve call plus the telemetry the workload
    /// configures.
    pub wall_s: f64,
    /// Process CPU seconds (all threads) over the same interval.
    pub cpu_s: f64,
    pub stats: EngineStats,
    /// Records answered by their deadline.
    pub ontime: usize,
    /// `RunSummary::accuracy()`: a missed query is a wrong one.
    pub accuracy: f64,
    /// Queries that got an answer, on time or late.
    pub answered: usize,
    /// Exact nearest-rank order statistics of the answered queries'
    /// latencies, in backend milliseconds (0 when nothing was answered).
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
    pub models_per_query: f64,
    /// Hash of every record's id, outcome, completion instant and model
    /// count: equal on two passes exactly when they decided identically.
    pub record_hash: u64,
    /// Problems with the records themselves (missing, duplicated or
    /// misnumbered ids), as text; empty when there is one record per query.
    pub record_faults: Vec<String>,
    pub telemetry: Option<Telemetry>,
    /// Traced passes on a wall clock: per arrival, how late it reached the
    /// engine, in wall microseconds.
    pub arrival_lag_us: Vec<f64>,
}

impl Pass {
    /// Queries that ended in no terminal state, plus those left open: the
    /// failed-operation count. Rejected and expired queries are *not* lost —
    /// they are the system shedding load, and count against `ontime`.
    pub fn lost(&self) -> u64 {
        let s = &self.stats;
        let terminal = s.completed + s.degraded + s.rejected + s.expired;
        (self.queries as u64).abs_diff(terminal).max(s.open())
    }

    pub fn ontime_pct(&self) -> f64 {
        100.0 * self.ontime as f64 / self.queries as f64
    }

    pub fn accuracy_pct(&self) -> f64 {
        100.0 * self.accuracy
    }

    pub fn replay_qps(&self) -> f64 {
        self.queries as f64 / self.wall_s
    }

    pub fn cpu_us_per_query(&self) -> f64 {
        1e6 * self.cpu_s / self.queries as f64
    }
}

/// What a serve call hands back, in the shape both paths share.
struct Served {
    summary: RunSummary,
    stats: EngineStats,
    metrics: Arc<RuntimeMetrics>,
    sim_secs: f64,
    arrival_lag_us: Vec<f64>,
}

/// Replays `workload` once.
pub fn run_pass(
    setup: &Setup,
    pipeline: &SchembleConfig,
    workload: &Workload,
    options: PassOptions,
) -> Pass {
    let scenario = &setup.scenario;
    let PassOptions { recorder, keep_events, .. } = options;
    // Dark workloads get a disabled sink of their own rather than none (the
    // program would make one itself): emission is the same single atomic
    // load, and the always-on planning profile inside it can be read back.
    let sink =
        if scenario.observed { TraceSink::new(SINK_CAPACITY) } else { TraceSink::disabled() };
    let flight = scenario.observed.then(|| {
        let flight = Arc::new(FlightRecorder::new(4096, Some(u64::MAX)));
        sink.set_tap(Some(flight.clone()));
        flight
    });
    let shards = if options.one_shard { 1 } else { scenario.shards() };
    let config = ServeConfig {
        mode: if options.virtual_clock { ClockMode::Virtual } else { scenario.clock },
        trace: Some(Arc::clone(&sink)),
        faults: setup.faults(),
        shards,
        recorder: flight,
        steal_epoch: scenario.steal_epoch().filter(|_| shards > 1),
        ..ServeConfig::default()
    };

    let cpu_start = cpu_seconds();
    let wall_start = Instant::now();
    let run_span = recorder.map(|r| r.begin());
    let served = match recorder {
        Some(recorder) if shards == 1 => {
            serve_through_wrappers(setup, pipeline, workload, &config, recorder)
        }
        _ => {
            let report = serve_schemble(&setup.ensemble, pipeline, workload, setup.seed, &config);
            Served {
                summary: report.summary,
                stats: report.stats,
                metrics: report.metrics,
                sim_secs: report.sim_secs,
                arrival_lag_us: Vec::new(),
            }
        }
    };
    let telemetry = scenario.observed.then(|| render_telemetry(setup, &sink, &served, keep_events));
    if let (Some(recorder), Some(open)) = (recorder, run_span) {
        recorder.end(open, Layer::Run, NO_QUERY, 0, 0);
    }
    let wall_s = wall_start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu_start;

    let records = served.summary.records();
    let latencies_ms = stats::sorted(
        &records.iter().filter_map(QueryRecord::latency_secs).map(|s| s * 1e3).collect::<Vec<_>>(),
    );
    let latency_ms = |q: f64| {
        if latencies_ms.is_empty() {
            0.0
        } else {
            stats::quantile_sorted(&latencies_ms, q)
        }
    };
    Pass {
        queries: workload.len(),
        sim_s: served.sim_secs,
        plans: sink.planning.plans.load(Relaxed),
        work_units: sink.planning.work_units.load(Relaxed),
        wall_s,
        cpu_s,
        stats: served.stats,
        ontime: records.iter().filter(|r| r.met_deadline()).count(),
        accuracy: served.summary.accuracy(),
        answered: latencies_ms.len(),
        latency_p50_ms: latency_ms(0.50),
        latency_p99_ms: latency_ms(0.99),
        models_per_query: served.summary.mean_models_used(),
        record_hash: hash_records(records),
        record_faults: record_faults(records, workload.len()),
        telemetry,
        arrival_lag_us: served.arrival_lag_us,
    }
}

/// `serve_schemble`'s single-shard body, with the engine wrapped.
fn serve_through_wrappers(
    setup: &Setup,
    pipeline: &SchembleConfig,
    workload: &Workload,
    config: &ServeConfig,
    recorder: &Arc<Recorder>,
) -> Served {
    let ensemble = &setup.ensemble;
    let config =
        &ServeConfig { batching: pipeline.batching.filter(|b| b.active()), ..config.clone() };
    let latencies: Vec<LatencyModel> = (0..ensemble.m()).map(|k| ensemble.latency(k)).collect();
    let metrics = Arc::new(RuntimeMetrics::new(latencies.len()));
    let sink = config.trace.clone().unwrap_or_else(TraceSink::disabled);
    let engine = SchembleEngine::new(ensemble, pipeline, workload).with_trace(sink);
    let stream = "schemble-latency";
    let (run, engine, arrival_lag_us) = match config.mode {
        ClockMode::Virtual => {
            let mut timed = TimedEngine::new(engine, Arc::clone(recorder), workload, None);
            let run = run_virtual(
                &mut timed, latencies, workload, setup.seed, stream, config, &metrics, None,
            );
            let (engine, lags) = timed.into_parts();
            (run, engine, lags)
        }
        ClockMode::Wall { dilation } => {
            let mut timed =
                TimedEngine::new(engine, Arc::clone(recorder), workload, Some(dilation));
            let run = run_wall(
                &mut timed, latencies, workload, setup.seed, stream, config, dilation, &metrics,
                None,
            );
            let (engine, lags) = timed.into_parts();
            (run, engine, lags)
        }
    };
    let stats = PipelineEngine::stats(&engine);
    Served {
        summary: engine.into_summary(run.usage),
        stats,
        metrics,
        sim_secs: run.sim_secs,
        arrival_lag_us,
    }
}

/// Drains the sink and renders what an operator's scrape and log shipping
/// would: the metrics exposition, the decision audit log, and the SLO
/// series and drift gauges of the introspection fold. Everything stays in
/// memory. (The Chrome trace is an on-demand debug dump, not always-on
/// telemetry; the ledger times it separately.)
fn render_telemetry(setup: &Setup, sink: &TraceSink, served: &Served, keep: bool) -> Telemetry {
    let ms_since = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let events = sink.drain();

    let started = Instant::now();
    let exposition = prometheus_text(&served.metrics, served.sim_secs, Some(&sink.planning));
    let prometheus_ms = ms_since(started);

    let started = Instant::now();
    let audit = audit_ndjson(&events);
    let audit_ms = ms_since(started);

    let obs_config = ObsConfig {
        bins: setup.artifacts.profile.bins(),
        profiled_latencies_us: setup
            .ensemble
            .planned_latencies()
            .iter()
            .map(|d| d.as_micros())
            .collect(),
        ..ObsConfig::default()
    };
    let started = Instant::now();
    let state = ObsState::fold(&obs_config, &events);
    let fold_ms = ms_since(started);

    let started = Instant::now();
    let slo = state.slo_ndjson();
    let gauges = state.prometheus();
    let obs_export_ms = ms_since(started);

    Telemetry {
        events: events.len(),
        dropped: sink.dropped(),
        prometheus_ms,
        audit_ms,
        fold_ms,
        obs_export_ms,
        bytes: exposition.len() + audit.len() + slo.len() + gauges.len(),
        captured: if keep { events } else { Vec::new() },
    }
}

/// Folds what each record decided into one word.
fn hash_records(records: &[QueryRecord]) -> u64 {
    let mut h = 0u64;
    for r in records {
        let (kind, score) = match r.outcome {
            QueryOutcome::Completed { correct, score } => (1 + u64::from(correct), score),
            QueryOutcome::Degraded { correct, score } => (3 + u64::from(correct), score),
            QueryOutcome::Missed => (0, 0.0),
        };
        let completion = r.completion.map_or(u64::MAX, |t| t.0);
        for word in [r.id, kind, score.to_bits(), completion, r.models_used as u64] {
            h = mix(h, word);
        }
    }
    h
}

/// Checks there is exactly one record per submitted id, in id order.
fn record_faults(records: &[QueryRecord], queries: usize) -> Vec<String> {
    let mut faults = Vec::new();
    if records.len() != queries {
        faults.push(format!("{} records for {queries} queries", records.len()));
    }
    if let Some((i, r)) = records.iter().enumerate().find(|(i, r)| r.id != *i as u64) {
        faults.push(format!("record {i} carries id {}", r.id));
    }
    faults
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemble_sim::SimTime;

    fn record(id: u64, completion_us: Option<u64>) -> QueryRecord {
        QueryRecord {
            id,
            arrival: SimTime::ZERO,
            deadline: SimTime::from_millis(100),
            completion: completion_us.map(SimTime::from_micros),
            outcome: match completion_us {
                Some(_) => QueryOutcome::Completed { correct: true, score: 1.0 },
                None => QueryOutcome::Missed,
            },
            models_used: 2,
        }
    }

    #[test]
    fn hash_sees_every_decided_field() {
        let base = vec![record(0, Some(5_000)), record(1, None)];
        let h = hash_records(&base);
        assert_eq!(h, hash_records(&base.clone()));
        let mut later = base.clone();
        later[0].completion = Some(SimTime::from_micros(5_001));
        assert_ne!(h, hash_records(&later));
        let mut wrong = base.clone();
        wrong[0].outcome = QueryOutcome::Completed { correct: false, score: 0.0 };
        assert_ne!(h, hash_records(&wrong));
        let mut fewer_models = base.clone();
        fewer_models[1].models_used = 1;
        assert_ne!(h, hash_records(&fewer_models));
        let mut degraded = base;
        degraded[0].outcome = QueryOutcome::Degraded { correct: true, score: 1.0 };
        assert_ne!(h, hash_records(&degraded));
    }

    #[test]
    fn one_record_per_submitted_id() {
        let good = vec![record(0, None), record(1, None)];
        assert!(record_faults(&good, 2).is_empty());
        assert_eq!(record_faults(&good, 3).len(), 1);
        let duplicated = vec![record(0, None), record(0, None)];
        assert_eq!(record_faults(&duplicated, 2), vec!["record 1 carries id 0".to_string()]);
    }

    #[test]
    fn lost_counts_unaccounted_and_open_queries() {
        let mut pass = Pass {
            queries: 10,
            sim_s: 1.0,
            plans: 0,
            work_units: 0,
            wall_s: 1.0,
            cpu_s: 1.0,
            stats: EngineStats {
                submitted: 10,
                completed: 6,
                degraded: 1,
                rejected: 2,
                expired: 1,
                ..EngineStats::default()
            },
            ontime: 7,
            accuracy: 0.6,
            answered: 7,
            latency_p50_ms: 1.0,
            latency_p99_ms: 1.0,
            models_per_query: 1.0,
            record_hash: 0,
            record_faults: Vec::new(),
            telemetry: None,
            arrival_lag_us: Vec::new(),
        };
        assert_eq!(pass.lost(), 0, "rejected and expired queries are accounted for");
        assert_eq!(pass.ontime_pct(), 70.0);
        pass.stats.expired = 0;
        assert_eq!(pass.lost(), 1);
        pass.stats.submitted = 12;
        assert_eq!(pass.lost(), 3, "queries still open are lost too");
    }
}
