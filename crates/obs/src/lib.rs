//! `schemble-obs`: live introspection over the trace stream.
//!
//! Everything in this crate is a *pure fold* over the
//! [`TraceEvent`] stream the serving stack
//! already emits — no new instrumentation in the hot path, no wall-clock
//! reads, integer arithmetic throughout. Because the DES pipeline and the
//! virtual-clock serve backend produce byte-identical event streams (pinned
//! by the repo's `trace_export` test), every export this crate derives is
//! byte-identical between them *by construction*; the same argument covers
//! sharded runs, whose merged stream is invariant to shard interleaving.
//!
//! Four subsystems:
//!
//! * [`series`] — windowed SLO time-series (one [`SloCounters`] set and
//!   one latency histogram per window, plus run totals) in a fixed-capacity
//!   ring keyed by absolute window index, exported as NDJSON
//!   ([`ObsState::slo_ndjson`]) and a Prometheus exposition
//!   ([`ObsState::prometheus`], written with `schemble_trace::prometheus`).
//!   Both read the SLO counters from one table (`EXPORTED_COUNTERS`).
//! * [`explain`] — per-query plan explainability: `schemble explain`
//!   reconstructs one query's causal timeline (predicted bin, plan lineage
//!   with frontier widths and predicted finishes, retries, outcome).
//! * [`drift`] — streaming calibration-drift detectors (predicted vs.
//!   realized difficulty bin; executor latency vs. its profiled curve).
//! * [`recorder`] — a bounded, overwrite-oldest flight recorder tapped into
//!   the sink, tripped on SLO breach / wedge / worker panic, dumping a
//!   schema-checked JSON post-mortem.

pub mod drift;
pub mod explain;
pub mod recorder;
pub mod series;

pub use drift::{DriftState, ExecutorDrift};
pub use explain::{explain_query, AssignStep, Outcome, PlanExplain, TaskStep, TaskStepKind};
pub use recorder::{event_json, FlightRecorder, TripReason};
use series::EXPORTED_COUNTERS;
pub use series::{LatencyWindow, SloCounters, SloSeries, WindowStats};

use schemble_sim::{SimDuration, SimTime};
use schemble_trace::prometheus::{family, labeled_sample, per_executor, single};
use schemble_trace::{AdmissionVerdict, TraceEvent};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Configuration for an [`ObsState`] fold.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// SLO window width (default 1 s).
    pub window: SimDuration,
    /// Windows retained in the ring (default 512).
    pub capacity: usize,
    /// Difficulty bins for the calibration detector (0 disables it).
    pub bins: usize,
    /// Profiled planned latency per executor, microseconds (empty disables
    /// the latency-drift detector).
    pub profiled_latencies_us: Vec<u64>,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            window: SimDuration::from_millis(1000),
            capacity: 512,
            bins: 0,
            profiled_latencies_us: Vec::new(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct OpenQuery {
    arrival: SimTime,
    deadline: SimTime,
}

/// The full introspection fold: SLO series + drift detectors.
#[derive(Debug, Clone)]
pub struct ObsState {
    /// The windowed SLO time-series.
    pub series: SloSeries,
    /// The drift detectors.
    pub drift: DriftState,
    open: HashMap<u64, OpenQuery>,
    /// Last steal-eligible queue depth each shard published at a steal
    /// epoch (keyed by shard id; populated only by `QueryStolen` events, so
    /// runs without stealing carry — and export — nothing here).
    shard_backlog: BTreeMap<u16, u64>,
}

impl ObsState {
    /// An empty fold.
    pub fn new(config: &ObsConfig) -> Self {
        Self {
            series: SloSeries::new(config.window, config.capacity),
            drift: DriftState::new(config.bins, config.profiled_latencies_us.clone()),
            open: HashMap::new(),
            shard_backlog: BTreeMap::new(),
        }
    }

    /// Folds a whole drained stream.
    pub fn fold(config: &ObsConfig, events: &[TraceEvent]) -> Self {
        let mut state = Self::new(config);
        for ev in events {
            state.ingest(ev);
        }
        state
    }

    /// Folds one event. The stream must be time-sorted (both backends emit
    /// it that way, and the shard merge re-establishes it).
    pub fn ingest(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Arrival { t, query, deadline } => {
                self.series.on_arrival(t);
                self.open.insert(query, OpenQuery { arrival: t, deadline });
            }
            TraceEvent::Admission { t, query, verdict } => {
                if verdict == AdmissionVerdict::Rejected {
                    self.series.on_rejected(t);
                    self.open.remove(&query);
                }
            }
            TraceEvent::Plan { t, work, cost, .. } => self.series.on_plan(t, cost, work),
            TraceEvent::TaskEnqueue { .. } => {}
            TraceEvent::TaskStart { t, query, executor } => {
                self.drift.on_task_start(query, executor, t)
            }
            TraceEvent::TaskDone { t, query, executor } => {
                self.drift.on_task_done(query, executor, t)
            }
            TraceEvent::TaskFailed { t, query, executor } => {
                self.series.on_task_failed(t);
                self.drift.on_task_failed(query, executor);
            }
            TraceEvent::TaskRetried { t, .. } => self.series.on_task_retried(t),
            TraceEvent::QueryDone { t, query, .. } => {
                let (latency, missed) = self.close(query, t);
                self.series.on_completed(t, latency, missed);
                self.drift.on_query_closed(query);
            }
            TraceEvent::DegradedAnswer { t, query, .. } => {
                let (latency, missed) = self.close(query, t);
                self.series.on_degraded(t, latency, missed);
                self.drift.on_query_closed(query);
            }
            TraceEvent::QueryExpired { t, query } => {
                self.open.remove(&query);
                self.series.on_expired(t);
                self.drift.on_query_closed(query);
            }
            TraceEvent::ExecutorDown { .. } | TraceEvent::ExecutorUp { .. } => {}
            TraceEvent::Scored { query, bin, .. } => self.drift.on_scored(query, bin),
            TraceEvent::PlanAssign { .. } => {}
            TraceEvent::Realized { query, score_fp, correct, .. } => {
                self.drift.on_realized(query, score_fp, correct)
            }
            // A quit running task never completes, so discard its open start
            // like a failure would — a quit span must not feed the
            // latency-drift detector. WorkSaved is a summary of TaskQuit
            // events and changes no fold state.
            TraceEvent::TaskQuit { query, executor, .. } => {
                self.drift.on_task_failed(query, executor)
            }
            TraceEvent::WorkSaved { .. } => {}
            // Batch launches change no SLO or drift state: members' own
            // TaskStart/TaskDone events already carry their timings.
            TraceEvent::BatchFormed { .. } => {}
            // A steal moves the query between shards without closing it:
            // count it and remember the depths both sides published.
            TraceEvent::QueryStolen { t, victim, thief, victim_depth, thief_depth, .. } => {
                self.series.on_stolen(t);
                self.shard_backlog.insert(victim, victim_depth as u64);
                self.shard_backlog.insert(thief, thief_depth as u64);
            }
        }
    }

    fn close(&mut self, query: u64, t: SimTime) -> (u64, bool) {
        match self.open.remove(&query) {
            Some(q) => (t.saturating_since(q.arrival).as_micros(), t > q.deadline),
            None => (0, false),
        }
    }

    /// The SLO time-series as NDJSON, one line per retained window, oldest
    /// first. Integer fields only, so two folds of equal streams are
    /// byte-identical.
    pub fn slo_ndjson(&self) -> String {
        let window_us = self.series.window_us();
        // The `stolen` key is emitted only when the run actually stole work
        // (uniformly, on every line), so exports from runs without
        // `--steal-epoch-ms` keep their exact historical bytes.
        let with_steals = self.series.totals.stolen > 0;
        let mut out = String::new();
        for w in self.series.windows() {
            let _ = write!(out, "{{\"window\":{},\"start_us\":{}", w.index, w.index * window_us);
            for (key, _, _, value) in EXPORTED_COUNTERS {
                let _ = write!(out, ",\"{key}\":{}", value(&w.counts));
            }
            let _ = write!(
                out,
                ",\"p50_us\":{},\"p99_us\":{},\"latency_count\":{},\"latency_sum_us\":{},\"queue_depth\":{}",
                w.latency_us(0.50),
                w.latency_us(0.99),
                w.latency.count(),
                w.latency.sum_raw(),
                w.open_at_end.unwrap_or(0),
            );
            if with_steals {
                let _ = write!(out, ",\"stolen\":{}", w.counts.stolen);
            }
            out.push_str("}\n");
        }
        out
    }

    /// Prometheus text exposition of the fold: run totals, the newest
    /// window's gauges, and the drift counters. Integer samples only.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        let t = &self.series.totals;
        for (_, name, help, value) in EXPORTED_COUNTERS {
            single(&mut out, name, "counter", help, value(t));
        }
        // Steal telemetry appears only when the run stole work, keeping
        // no-steal expositions byte-identical to historical output.
        if t.stolen > 0 {
            let help = "Queries transferred between shards by work stealing.";
            single(&mut out, "schemble_obs_queries_stolen_total", "counter", help, t.stolen);
        }
        let d = &self.drift;
        for (name, help, value) in [
            ("schemble_obs_drift_pairs_total", "Predicted/realized bin pairs.", d.pairs),
            ("schemble_obs_drift_agree_total", "Pairs with matching bins.", d.agree),
            (
                "schemble_obs_drift_distance_total",
                "Sum of |predicted - realized| bin distance.",
                d.distance,
            ),
            ("schemble_obs_drift_incorrect_total", "Incorrect assembled answers.", d.incorrect),
        ] {
            single(&mut out, name, "counter", help, value);
        }

        let windows = self.series.windows();
        let mut gauges = vec![
            ("schemble_obs_open_queries", "Queries in flight.", self.series.live_open()),
            ("schemble_obs_windows", "SLO windows retained.", windows.len() as u64),
        ];
        if let Some(w) = windows.last() {
            gauges.extend([
                ("schemble_obs_window_index", "Newest window's absolute index.", w.index),
                (
                    "schemble_obs_window_p50_micros",
                    "Newest window's p50 end-to-end latency, microseconds.",
                    w.latency_us(0.50),
                ),
                (
                    "schemble_obs_window_p99_micros",
                    "Newest window's p99 end-to-end latency, microseconds.",
                    w.latency_us(0.99),
                ),
                ("schemble_obs_window_missed", "Newest window's deadline misses.", w.counts.missed),
                (
                    "schemble_obs_window_degraded",
                    "Newest window's degraded answers.",
                    w.counts.degraded,
                ),
                (
                    "schemble_obs_window_queue_depth",
                    "Open queries at the newest window's close.",
                    w.open_at_end.unwrap_or(0),
                ),
                (
                    "schemble_obs_window_sched_cost_micros",
                    "Newest window's scheduling cost, microseconds.",
                    w.counts.sched_cost_us,
                ),
            ]);
        }
        for (name, help, value) in gauges {
            single(&mut out, name, "gauge", help, value);
        }
        if !self.shard_backlog.is_empty() {
            let name = "schemble_obs_shard_backlog";
            let help = "Steal-eligible queue depth each shard last published at a steal epoch.";
            family(&mut out, name, "gauge", help);
            for (shard, depth) in &self.shard_backlog {
                labeled_sample(&mut out, name, "shard", &shard.to_string(), depth);
            }
        }
        if !d.executors.is_empty() {
            for (name, help, get) in [
                (
                    "schemble_obs_exec_tasks_total",
                    "Completed tasks measured by the latency-drift detector.",
                    (|e: &ExecutorDrift| e.tasks) as fn(&ExecutorDrift) -> u64,
                ),
                (
                    "schemble_obs_exec_observed_micros_total",
                    "Observed task service time, microseconds.",
                    |e: &ExecutorDrift| e.observed_us,
                ),
                (
                    "schemble_obs_exec_expected_micros_total",
                    "Profiled task service time, microseconds.",
                    |e: &ExecutorDrift| e.expected_us,
                ),
                (
                    "schemble_obs_exec_latency_outliers_total",
                    "Tasks outside the +/-25% profiled-latency band.",
                    |e: &ExecutorDrift| e.outliers,
                ),
            ] {
                per_executor(&mut out, name, "counter", help, d.executors.iter().map(get));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemble_trace::json::validate_ndjson;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn stream() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Arrival { t: at(0), query: 0, deadline: at(100) },
            TraceEvent::Admission { t: at(0), query: 0, verdict: AdmissionVerdict::Buffered },
            TraceEvent::Scored { t: at(0), query: 0, bin: 0, score_fp: 100_000 },
            TraceEvent::Plan {
                t: at(0),
                buffer: 1,
                scheduled: 1,
                work: 32,
                cost: SimDuration::from_micros(250),
            },
            TraceEvent::TaskStart { t: at(1), query: 0, executor: 0 },
            TraceEvent::Arrival { t: at(5), query: 1, deadline: at(30) },
            TraceEvent::Admission { t: at(5), query: 1, verdict: AdmissionVerdict::Rejected },
            TraceEvent::TaskDone { t: at(21), query: 0, executor: 0 },
            TraceEvent::Realized { t: at(21), query: 0, score_fp: 120_000, correct: true },
            TraceEvent::QueryDone { t: at(21), query: 0, set: 0b1 },
            TraceEvent::Arrival { t: at(1500), query: 2, deadline: at(1600) },
            TraceEvent::QueryExpired { t: at(1700), query: 2 },
        ]
    }

    fn config() -> ObsConfig {
        ObsConfig {
            window: SimDuration::from_millis(1000),
            capacity: 8,
            bins: 4,
            profiled_latencies_us: vec![20_000],
        }
    }

    #[test]
    fn fold_builds_series_and_drift_from_one_stream() {
        let s = ObsState::fold(&config(), &stream());
        assert_eq!(s.series.totals.arrivals, 3);
        assert_eq!(s.series.totals.completed, 1);
        assert_eq!(s.series.totals.rejected, 1);
        assert_eq!(s.series.totals.expired, 1);
        assert_eq!(s.series.totals.missed, 1);
        assert_eq!(s.series.totals.sched_cost_us, 250);
        assert_eq!(s.drift.pairs, 1);
        assert_eq!(s.drift.agree, 1, "bin 0 predicted, 0.12 realizes into bin 0 of 4");
        assert_eq!(s.drift.executors[0].tasks, 1);
        assert_eq!(s.drift.executors[0].observed_us, 20_000);
        assert_eq!(s.series.live_open(), 0);
    }

    #[test]
    fn ndjson_export_is_valid_and_deterministic() {
        let a = ObsState::fold(&config(), &stream());
        let b = ObsState::fold(&config(), &stream());
        let ndjson = a.slo_ndjson();
        validate_ndjson(&ndjson).expect("well-formed NDJSON");
        assert_eq!(ndjson, b.slo_ndjson(), "same stream, same bytes");
        assert_eq!(ndjson.lines().count(), 2, "windows 0 and 1 are occupied");
        assert!(ndjson.lines().next().unwrap().contains("\"sched_cost_us\":250"));
    }

    #[test]
    fn steal_events_surface_in_both_exports_and_stay_absent_without_them() {
        // Without steals: neither export mentions stealing at all.
        let plain = ObsState::fold(&config(), &stream());
        assert!(!plain.slo_ndjson().contains("stolen"));
        assert!(!plain.prometheus().contains("stolen"));
        assert!(!plain.prometheus().contains("shard_backlog"));

        // With a steal mid-stream: the query still closes exactly once, the
        // per-window counter and shard backlog gauges appear.
        let mut events = stream();
        events.insert(
            5,
            TraceEvent::QueryStolen {
                t: at(2),
                query: 0,
                epoch: 1,
                victim: 0,
                thief: 1,
                victim_depth: 4,
                thief_depth: 1,
                arrival: at(0),
                deadline: at(100),
                bin: 0,
                score_fp: 100_000,
            },
        );
        let s = ObsState::fold(&config(), &events);
        assert_eq!(s.series.totals.stolen, 1);
        assert_eq!(s.series.totals.completed, 1);
        assert_eq!(s.series.live_open(), 0, "a steal must not open or close a query");
        let ndjson = s.slo_ndjson();
        validate_ndjson(&ndjson).expect("well-formed NDJSON");
        assert!(ndjson.lines().next().unwrap().contains("\"stolen\":1"));
        let prom = s.prometheus();
        assert!(prom.contains("schemble_obs_queries_stolen_total 1"));
        assert!(prom.contains("schemble_obs_shard_backlog{shard=\"0\"} 4"));
        assert!(prom.contains("schemble_obs_shard_backlog{shard=\"1\"} 1"));
    }

    #[test]
    fn prometheus_export_has_help_type_and_integer_samples() {
        let s = ObsState::fold(&config(), &stream());
        let text = s.prometheus();
        assert_eq!(text, ObsState::fold(&config(), &stream()).prometheus());
        for needle in [
            "# HELP schemble_obs_arrivals_total",
            "# TYPE schemble_obs_arrivals_total counter",
            "schemble_obs_arrivals_total 3",
            "schemble_obs_deadline_missed_total 1",
            "schemble_obs_drift_pairs_total 1",
            "schemble_obs_exec_observed_micros_total{executor=\"0\"} 20000",
            "# TYPE schemble_obs_open_queries gauge",
        ] {
            assert!(text.contains(needle), "missing {needle:?}");
        }
    }
}
