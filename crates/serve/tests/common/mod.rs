//! The one harness under the serve runtime's property tests: a fixture
//! builder, one traced run per clock, and the global invariants every run
//! must keep (conservation, causal order). The full-product proptest of
//! ROADMAP item 5 lands here.
#![allow(dead_code)] // each test binary uses its own part of the harness

use schemble_core::experiment::{ExperimentConfig, ExperimentContext, Traffic};
use schemble_core::pipeline::schemble::SchembleConfig;
use schemble_core::pipeline::AdmissionMode;
use schemble_data::{TaskKind, Workload};
use schemble_models::Ensemble;
use schemble_serve::{serve_schemble, ClockMode, ServeConfig, ServeReport};
use schemble_trace::{audit_records, prometheus_text, TraceEvent, TraceSink};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

pub struct Fixture {
    pub ensemble: Ensemble,
    pub pipeline: SchembleConfig,
    pub workload: Workload,
    pub seed: u64,
}

/// What a [`Fixture`] is built from: a seeded text-matching Poisson trace,
/// on the task's default deadline in Reject mode unless said otherwise.
pub struct FixtureSpec {
    seed: u64,
    n_queries: usize,
    rate: f64,
    deadline_ms: Option<f64>,
    force_all: bool,
    zipf: Option<(usize, f64)>,
}

pub fn fixture(seed: u64, n_queries: usize, rate: f64) -> FixtureSpec {
    FixtureSpec { seed, n_queries, rate, deadline_ms: None, force_all: false, zipf: None }
}

impl FixtureSpec {
    pub fn deadline_ms(self, ms: f64) -> Self {
        Self { deadline_ms: Some(ms), ..self }
    }

    pub fn force_all(self, force_all: bool) -> Self {
        Self { force_all, ..self }
    }

    /// Re-keys the queries with a Zipfian draw over `keys` keys at skew
    /// `theta`, so the hash router concentrates load on few shards — the
    /// regime stealing exists for.
    pub fn zipf_keys(self, keys: usize, theta: f64) -> Self {
        Self { zipf: Some((keys, theta)), ..self }
    }

    /// Trains the artifacts and generates the workload; `arm` may switch
    /// optional features of the pipeline on.
    pub fn build(self, arm: impl FnOnce(&mut SchembleConfig)) -> Fixture {
        let mut config = ExperimentConfig::small(TaskKind::TextMatching, self.seed);
        config.n_queries = self.n_queries;
        config.traffic = Traffic::Poisson { rate_per_sec: self.rate };
        if let Some(ms) = self.deadline_ms {
            config = config.with_deadline_millis(ms);
        }
        if self.force_all {
            config.admission = AdmissionMode::ForceAll;
        }
        let mut ctx = ExperimentContext::new(config);
        let mut workload = ctx.workload();
        if let Some((keys, theta)) = self.zipf {
            workload = workload.with_zipf_keys(keys, theta, self.seed);
        }
        let mut pipeline = ctx.artifacts().pipeline();
        pipeline.admission = ctx.config.admission;
        arm(&mut pipeline);
        Fixture { ensemble: ctx.ensemble, pipeline, workload, seed: ctx.config.seed }
    }
}

/// One served run and what it exported: the Prometheus text (without the
/// planning profile, whose wall-clock measurements genuinely differ between
/// two runs), the audit lines in id order, and the raw event stream.
pub struct Run {
    pub report: ServeReport,
    pub prom: String,
    pub audit: Vec<String>,
    pub events: Vec<TraceEvent>,
}

fn run(fx: &Fixture, mode: ClockMode, arm: impl FnOnce(&mut ServeConfig)) -> Run {
    let sink = TraceSink::enabled();
    let mut config = ServeConfig { mode, trace: Some(Arc::clone(&sink)), ..ServeConfig::default() };
    arm(&mut config);
    let report = serve_schemble(&fx.ensemble, &fx.pipeline, &fx.workload, fx.seed, &config);
    let events = sink.drain();
    let prom = prometheus_text(&report.metrics, report.sim_secs, None);
    let audit = audit_records(&events).iter().map(|r| r.to_json_line()).collect();
    Run { report, prom, audit, events }
}

/// One traced virtual-clock run, checked for causal order; `arm` sets the
/// shards, faults and steal epoch.
pub fn run_once(fx: &Fixture, arm: impl FnOnce(&mut ServeConfig)) -> Run {
    let run = run(fx, ClockMode::Virtual, arm);
    assert_causal(&run.events);
    run
}

/// One traced run on real threads at 100x. Only time-independent facts
/// are expected of it, so the order of its event stream is not checked.
pub fn run_wall(fx: &Fixture, arm: impl FnOnce(&mut ServeConfig)) -> Run {
    run(fx, ClockMode::Wall { dilation: 100.0 }, arm)
}

/// No event of a query precedes its `Arrival`, and every adoption happens
/// at or after the arrival it carries.
pub fn assert_causal(events: &[TraceEvent]) {
    let arrivals: HashMap<u64, _> = events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::Arrival { t, query, .. } => Some((query, t)),
            _ => None,
        })
        .collect();
    for e in events {
        if let TraceEvent::QueryStolen { t, query, arrival, .. } = *e {
            assert!(t >= arrival, "query {query} adopted at {t:?}, before it arrived: {e:?}");
        }
        if let Some(query) = e.query() {
            assert!(
                e.time() >= arrivals[&query],
                "an event precedes query {query}'s arrival: {e:?}"
            );
        }
    }
}

/// Every one of the `n` queries is resolved exactly once, on some shard:
/// the counters partition the submitted set, releases balance adoptions,
/// and records and audit lines agree with them.
pub fn assert_conserved(run: &Run, n: usize) {
    let s = &run.report.stats;
    assert_eq!(s.submitted, n as u64, "every arrival submitted");
    assert_eq!(
        s.submitted,
        s.completed + s.degraded + s.rejected + s.expired,
        "completed + degraded + rejected + expired must partition the submitted set"
    );
    assert_eq!(s.open(), 0, "no query left open on any shard");
    assert_eq!(s.stolen_in, s.stolen_out, "every released query was adopted");
    let records = run.report.summary.records();
    assert_eq!(records.len(), n, "one record per query");
    let ids: HashSet<u64> = records.iter().map(|r| r.id).collect();
    assert_eq!(ids, (0..n as u64).collect::<HashSet<u64>>(), "global ids restored, each once");
    let answered = records.iter().filter(|r| r.completion.is_some()).count();
    assert_eq!(answered as u64, s.completed + s.degraded, "records agree with the counters");
    assert_eq!(run.audit.len(), n, "one audit line per query");
}
