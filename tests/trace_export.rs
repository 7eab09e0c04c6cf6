//! End-to-end tests for the tracing subsystem and its exporters.
//!
//! The contract under test: (1) enabling tracing changes no scheduling
//! decision; (2) a DES run and a virtual-clock serve run on the same
//! seeded trace emit the *identical* event stream, so their audit logs and
//! Chrome traces are byte-equal; (3) every query round-trips through the
//! trace — one audit record per submitted query, every started task span
//! closed; (4) all three export formats are well-formed.

use schemble::core::engine::{AnytimePolicy, FailurePolicy};
use schemble::core::experiment::{ExperimentConfig, ExperimentContext, Traffic};
use schemble::core::pipeline::schemble::{run_schemble, run_schemble_traced, SchembleConfig};
use schemble::core::pipeline::{
    Deployment, FixedSubsetPolicy, FullEnsemblePolicy, ResultAssembler, SelectionPolicy,
};
use schemble::data::TaskKind;
use schemble::metrics::QueryOutcome;
use schemble::models::ModelSet;
use schemble::obs::{ObsConfig, ObsState};
use schemble::serve::{serve_immediate, serve_schemble, ClockMode, ServeConfig, ServeReport};
use schemble::sim::{BatchConfig, FaultPlan, SimDuration};
use schemble::trace::{
    audit_ndjson, audit_records, chrome_trace, complete_task_spans, json, prometheus_text,
    AdmissionVerdict, TraceEvent, TraceSink,
};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

fn context(n_queries: usize) -> ExperimentContext {
    let mut config = ExperimentConfig::paper_default(TaskKind::TextMatching, 42);
    config.n_queries = n_queries;
    config.traffic = Traffic::Diurnal { day_secs: n_queries as f64 / 15.0 };
    ExperimentContext::new(config)
}

fn schemble_config(ctx: &mut ExperimentContext) -> SchembleConfig {
    let mut config = ctx.artifacts().pipeline();
    config.admission = ctx.config.admission;
    config
}

#[test]
fn tracing_changes_no_scheduling_decision() {
    let mut ctx = context(400);
    let workload = ctx.workload();
    let seed = ctx.config.seed;

    let untraced_cfg = schemble_config(&mut ctx);
    let untraced = run_schemble(&ctx.ensemble, &untraced_cfg, &workload, seed);

    let sink = TraceSink::enabled();
    let traced_cfg = schemble_config(&mut ctx);
    let traced =
        run_schemble_traced(&ctx.ensemble, &traced_cfg, &workload, seed, Arc::clone(&sink));

    assert_eq!(
        traced.records(),
        untraced.records(),
        "an enabled sink must not perturb any per-query decision"
    );
    assert!(!sink.is_empty(), "the traced run actually emitted events");
    assert_eq!(sink.dropped(), 0);
}

#[test]
fn des_and_virtual_serve_emit_identical_traces() {
    let mut ctx = context(400);
    let workload = ctx.workload();
    let seed = ctx.config.seed;
    let m = ctx.ensemble.m();

    let des_sink = TraceSink::enabled();
    let des_cfg = schemble_config(&mut ctx);
    let des = run_schemble_traced(&ctx.ensemble, &des_cfg, &workload, seed, Arc::clone(&des_sink));

    let serve_sink = TraceSink::enabled();
    let serve_cfg = ServeConfig {
        mode: ClockMode::Virtual,
        trace: Some(Arc::clone(&serve_sink)),
        ..ServeConfig::default()
    };
    let runtime_cfg = schemble_config(&mut ctx);
    let report = serve_schemble(&ctx.ensemble, &runtime_cfg, &workload, seed, &serve_cfg);
    assert_eq!(report.summary.records(), des.records());

    let des_events = des_sink.drain();
    let serve_events = serve_sink.drain();
    assert_eq!(
        des_events, serve_events,
        "DES and virtual-clock serve must emit the identical event stream"
    );
    assert_eq!(
        audit_ndjson(&des_events),
        audit_ndjson(&serve_events),
        "audit decision sequences must match byte-for-byte"
    );
    assert_eq!(
        chrome_trace(&des_events, m, "schemble"),
        chrome_trace(&serve_events, m, "schemble")
    );
}

/// Events of `events` that `pick` selects.
fn count(events: &[TraceEvent], pick: impl Fn(&TraceEvent) -> bool) -> u64 {
    events.iter().filter(|e| pick(e)).count() as u64
}

/// What every serve must leave on the trace, whichever engine decided:
/// one audit record per query, closed task spans, counters equal to the
/// stream's, and every answer evaluated. `sheds_tasks`: some started task
/// ends without completing (quit while running, or failed).
fn assert_round_trip(case: &str, report: &ServeReport, events: &[TraceEvent], sheds_tasks: bool) {
    // One audit record per submitted query, in query order.
    let records = audit_records(events);
    assert_eq!(records.len() as u64, report.stats.submitted, "{case}: one record per query");
    for w in records.windows(2) {
        assert!(w[0].query < w[1].query, "{case}: audit records sorted by query id");
    }

    // Every completed task closed its span.
    let starts = count(events, |e| matches!(e, TraceEvent::TaskStart { .. }));
    let done = count(events, |e| matches!(e, TraceEvent::TaskDone { .. }));
    let spans: u64 = complete_task_spans(events).values().map(|&n| n as u64).sum();
    assert_eq!(spans, done, "{case}: every TaskDone closes a TaskStart");
    if sheds_tasks {
        assert!(starts > done, "{case}: no running task was quit or failed");
    } else {
        assert_eq!(starts, done, "{case}: every TaskStart has a matching TaskDone");
    }

    // The runtime's counters are the event stream's, exactly.
    let record = report.metrics.lock();
    let (s, t) = (&record.stats, &record.tasks);
    let rejected = |e: &TraceEvent| {
        matches!(e, TraceEvent::Admission { verdict: AdmissionVerdict::Rejected, .. })
    };
    let batched: u64 = events
        .iter()
        .map(|e| match *e {
            TraceEvent::BatchFormed { size, .. } => u64::from(size),
            _ => 0,
        })
        .sum();
    for (name, counter, traced) in [
        ("submitted", s.submitted, count(events, |e| matches!(e, TraceEvent::Arrival { .. }))),
        ("completed", s.completed, count(events, |e| matches!(e, TraceEvent::QueryDone { .. }))),
        ("degraded", s.degraded, count(events, |e| matches!(e, TraceEvent::DegradedAnswer { .. }))),
        ("rejected", s.rejected, count(events, rejected)),
        ("expired", s.expired, count(events, |e| matches!(e, TraceEvent::QueryExpired { .. }))),
        (
            "tasks_failed",
            s.tasks_failed,
            count(events, |e| matches!(e, TraceEvent::TaskFailed { .. })),
        ),
        (
            "tasks_retried",
            s.tasks_retried,
            count(events, |e| matches!(e, TraceEvent::TaskRetried { .. })),
        ),
        ("tasks_saved", s.tasks_saved, count(events, |e| matches!(e, TraceEvent::TaskQuit { .. }))),
        ("stolen", s.stolen_in, count(events, |e| matches!(e, TraceEvent::QueryStolen { .. }))),
        ("tasks_started", t.started, starts),
        ("tasks_completed", t.completed, done),
        ("tasks_batched", t.batched, batched),
    ] {
        assert_eq!(counter, traced, "{case}: {name} diverges from the trace");
    }

    // The obs fold counts the same outcomes from the same stream: its run
    // totals are the engine's counters wherever both count one thing.
    let fold = ObsState::fold(&ObsConfig::default(), events);
    let totals = &fold.series.totals;
    for (name, engine, obs) in [
        ("submitted / arrivals", s.submitted, totals.arrivals),
        ("completed", s.completed, totals.completed),
        ("degraded", s.degraded, totals.degraded),
        ("rejected", s.rejected, totals.rejected),
        ("expired", s.expired, totals.expired),
        ("tasks_failed / failures", s.tasks_failed, totals.failures),
        ("tasks_retried / retries", s.tasks_retried, totals.retries),
        ("stolen_in / stolen", s.stolen_in, totals.stolen),
    ] {
        assert_eq!(engine, obs, "{case}: {name}: the engine and the obs fold disagree");
    }

    let answer = |e: &TraceEvent| match *e {
        TraceEvent::QueryDone { query, .. } | TraceEvent::DegradedAnswer { query, .. } => {
            Some(query)
        }
        _ => None,
    };
    let answered = count(events, |e| answer(e).is_some());
    assert_eq!(record.latency.count(), answered, "{case}: one latency per answer");

    // Every answer is evaluated on the trace, right before it is announced,
    // and the drift fold counts exactly the answers the records call wrong.
    let realized = count(events, |e| matches!(e, TraceEvent::Realized { .. }));
    assert_eq!(realized, answered, "{case}: one realized score per answer");
    for pair in events.windows(2) {
        if let TraceEvent::Realized { query, .. } = pair[0] {
            assert_eq!(answer(&pair[1]), Some(query), "{case}: realized, then the answer");
        }
    }
    let wrong = report.summary.records().iter().filter(|r| {
        matches!(
            r.outcome,
            QueryOutcome::Completed { correct: false, .. }
                | QueryOutcome::Degraded { correct: false, .. }
        )
    });
    assert_eq!(fold.drift.incorrect, wrong.count() as u64, "{case}: incorrect answers");
}

#[test]
fn serve_trace_round_trips_every_submitted_query() {
    let mut ctx = context(400);
    let workload = ctx.workload();
    let seed = ctx.config.seed;
    let traced = || {
        let sink = TraceSink::enabled();
        let config = ServeConfig {
            mode: ClockMode::Virtual,
            trace: Some(Arc::clone(&sink)),
            ..ServeConfig::default()
        };
        (sink, config)
    };

    // The plain run, then the features under which a started task ends
    // other than by completing (quit while running) or shares its pass with
    // others (a batch) — on one engine and on two shards.
    let quit = Some(AnytimePolicy::default());
    let batch = Some(BatchConfig::new(8, SimDuration::from_millis(2)));
    let cases = [(None, None), (quit, None), (quit, batch)];
    for ((anytime, batching), shards) in cases.into_iter().flat_map(|c| [(c, 1), (c, 2)]) {
        let case = format!("anytime {anytime:?}, batching {batching:?}, {shards} shard(s)");
        let (sink, serve_cfg) = traced();
        let serve_cfg = ServeConfig { shards, ..serve_cfg };
        let cfg = SchembleConfig { anytime, batching, ..schemble_config(&mut ctx) };
        let report = serve_schemble(&ctx.ensemble, &cfg, &workload, seed, &serve_cfg);
        // A launched batch refuses to shed a member, so batching rules a
        // quit of a running task out.
        let sheds_tasks = anytime.is_some() && batching.is_none();
        assert_round_trip(&case, &report, &sink.drain(), sheds_tasks);
    }

    // Two shards stealing from each other on a hot-key trace: the thief
    // counts each adoption, and the trace carries it once.
    let hot = workload.clone().with_zipf_keys(64, 2.0, seed);
    let (sink, serve_cfg) = traced();
    let steal_epoch = Some(SimDuration::from_millis(50));
    let serve_cfg = ServeConfig { shards: 2, steal_epoch, ..serve_cfg };
    let cfg = schemble_config(&mut ctx);
    let report = serve_schemble(&ctx.ensemble, &cfg, &hot, seed, &serve_cfg);
    assert!(report.stats.stolen_in > 0, "the hot shard shed no work");
    assert_round_trip("2 shards, stealing", &report, &sink.drain(), false);

    // The immediate family: every model on the identity deployment, a fixed
    // subset on a replicated one — clean, and with one task in ten failing.
    let identity = Deployment::identity(ctx.ensemble.m());
    let replicated = Deployment { hosts: vec![0, 1, 1] };
    let transient = FaultPlan::parse("transient 0.1").expect("valid plan");
    for faults in [None, Some(transient)] {
        for deployment in [&identity, &replicated] {
            let case = format!("immediate on {:?}, faults {faults:?}", deployment.hosts);
            let (sink, serve_cfg) = traced();
            let serve_cfg = ServeConfig {
                failure: faults.as_ref().map(|_| FailurePolicy::default()),
                faults: faults.clone(),
                ..serve_cfg
            };
            let mut full = FullEnsemblePolicy;
            let mut subset = FixedSubsetPolicy { set: ModelSet::from_indices(&[0, 1]) };
            let policy: &mut dyn SelectionPolicy =
                if deployment == &identity { &mut full } else { &mut subset };
            let report = serve_immediate(
                &ctx.ensemble,
                deployment,
                policy,
                &ResultAssembler::Direct,
                ctx.config.admission,
                &workload,
                seed,
                &serve_cfg,
            );
            assert_round_trip(&case, &report, &sink.drain(), faults.is_some());
        }
    }
}

#[test]
fn exports_are_well_formed() {
    let mut ctx = context(300);
    let workload = ctx.workload();
    let seed = ctx.config.seed;
    let m = ctx.ensemble.m();

    let sink = TraceSink::enabled();
    let serve_cfg = ServeConfig {
        mode: ClockMode::Virtual,
        trace: Some(Arc::clone(&sink)),
        ..ServeConfig::default()
    };
    let cfg = schemble_config(&mut ctx);
    let report = serve_schemble(&ctx.ensemble, &cfg, &workload, seed, &serve_cfg);
    let events = sink.drain();

    let chrome = chrome_trace(&events, m, "schemble");
    json::validate(&chrome).expect("Chrome trace must be valid JSON");
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("\"name\":\"scheduler\""));

    let audit = audit_ndjson(&events);
    json::validate_ndjson(&audit).expect("audit log must be valid NDJSON");
    assert_eq!(audit.lines().count() as u64, report.stats.submitted);

    let prom = prometheus_text(&report.metrics, report.sim_secs, Some(&sink.planning));
    for family in [
        "schemble_queries_submitted_total",
        "schemble_queries_completed_total",
        "schemble_tasks_completed_total",
        "schemble_query_latency_seconds_bucket",
        "schemble_query_latency_seconds_sum",
        "schemble_sched_plans_total",
        "schemble_executor_utilization",
    ] {
        assert!(prom.contains(family), "metrics exposition missing {family}");
    }
    assert!(
        prom.contains(&format!("schemble_queries_submitted_total {}", report.stats.submitted)),
        "submitted counter must carry the run's value"
    );
    // Planning self-profile made it into the exposition with >= 1 plan.
    assert!(sink.planning.plans.load(Relaxed) > 0);
}
