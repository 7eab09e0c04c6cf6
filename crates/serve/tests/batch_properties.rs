//! Properties of cross-query batched execution on the serving runtime.
//!
//! The load-bearing contract is the degradation guarantee: `batch_max = 1`
//! (and equally no batch config at all) must be *byte-identical* to an
//! unbatched build — same per-query records, same audit lines, same merged
//! Prometheus text — across shard counts. That identity is what lets the
//! feature ship default-off without re-validating every existing baseline.
//! Enabled batching keeps the conservation invariant (every member of every
//! batch resolves exactly once, faults included) and never co-batches two
//! tasks of the same query (a batch runs on one executor, and a query sends
//! at most one task per executor).

use proptest::prelude::*;
use schemble_core::experiment::{ExperimentConfig, ExperimentContext, Traffic};
use schemble_core::pipeline::schemble::SchembleConfig;
use schemble_data::{TaskKind, Workload};
use schemble_models::Ensemble;
use schemble_serve::{serve_schemble, ClockMode, ServeConfig, ServeReport};
use schemble_sim::{BatchConfig, FaultPlan, SimDuration};
use schemble_trace::{audit_records, prometheus_text, TraceEvent, TraceSink};
use std::collections::HashMap;
use std::sync::Arc;

struct Fixture {
    ensemble: Ensemble,
    pipeline: SchembleConfig,
    workload: Workload,
    seed: u64,
}

fn fixture(seed: u64, n_queries: usize, rate: f64, batching: Option<BatchConfig>) -> Fixture {
    let mut config = ExperimentConfig::small(TaskKind::TextMatching, seed);
    config.n_queries = n_queries;
    config.traffic = Traffic::Poisson { rate_per_sec: rate };
    let mut ctx = ExperimentContext::new(config);
    let workload = ctx.workload();
    let mut pipeline = ctx.artifacts().pipeline();
    pipeline.admission = ctx.config.admission;
    pipeline.batching = batching;
    let seed = ctx.config.seed;
    Fixture { ensemble: ctx.ensemble, pipeline, workload, seed }
}

/// One virtual-clock run; returns the report plus its exported artifacts
/// (Prometheus text sans the wall-clock planning profile, audit lines, and
/// the raw trace events for membership checks).
fn run_once(
    fx: &Fixture,
    shards: usize,
    faults: Option<FaultPlan>,
) -> (ServeReport, String, Vec<String>, Vec<TraceEvent>) {
    let sink = TraceSink::enabled();
    let config = ServeConfig {
        mode: ClockMode::Virtual,
        trace: Some(Arc::clone(&sink)),
        shards,
        faults,
        ..ServeConfig::default()
    };
    let report = serve_schemble(&fx.ensemble, &fx.pipeline, &fx.workload, fx.seed, &config);
    let events = sink.drain();
    let prom = prometheus_text(&report.metrics, report.sim_secs, None);
    let audit: Vec<String> = audit_records(&events).iter().map(|r| r.to_json_line()).collect();
    (report, prom, audit, events)
}

/// Groups `TaskStart` events by their launch instant per executor — the
/// same `(executor, t)` key the exporters use to recover batch membership —
/// and returns each group's query ids.
fn start_groups(events: &[TraceEvent]) -> HashMap<(u16, u64), Vec<u64>> {
    let mut groups: HashMap<(u16, u64), Vec<u64>> = HashMap::new();
    for event in events {
        if let TraceEvent::TaskStart { t, query, executor } = event {
            groups.entry((*executor, t.as_micros())).or_default().push(*query);
        }
    }
    groups
}

proptest! {
    // Each case runs several full pipelines; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The degradation guarantee: `batch_max = 1` and no batching at all
    /// produce byte-identical runs — records, stats, audit lines and
    /// Prometheus text — whether the runtime is single-shard or sharded.
    #[test]
    fn batch_max_one_is_byte_identical_to_none(
        seed in 0u64..1000,
        rate in 10.0f64..80.0,
        window_ms in 1u64..20,
        sharded in proptest::bool::ANY,
    ) {
        let shards = if sharded { 4 } else { 1 };
        let none = fixture(seed, 100, rate, None);
        let inert =
            fixture(seed, 100, rate, Some(BatchConfig::new(1, SimDuration::from_millis(window_ms))));
        let (report_a, prom_a, audit_a, _) = run_once(&none, shards, None);
        let (report_b, prom_b, audit_b, _) = run_once(&inert, shards, None);
        prop_assert_eq!(report_a.stats, report_b.stats, "engine stats must match");
        prop_assert_eq!(report_b.snapshot.tasks_batched, 0, "batch_max = 1 never batches");
        prop_assert_eq!(
            report_a.summary.records(), report_b.summary.records(),
            "per-query outcomes must be byte-identical"
        );
        prop_assert_eq!(audit_a, audit_b, "audit lines must be byte-identical");
        prop_assert_eq!(prom_a, prom_b, "Prometheus text must be byte-identical");
    }

    /// Enabled batching conserves queries, faults or not: every submitted
    /// query resolves exactly once even when whole batches are killed by a
    /// crash window mid-run.
    #[test]
    fn batching_conserves_queries_under_faults(
        seed in 0u64..1000,
        rate in 20.0f64..80.0,
        batch_max in 2usize..16,
        faulted in proptest::bool::ANY,
    ) {
        let fx = fixture(
            seed,
            100,
            rate,
            Some(BatchConfig::new(batch_max, SimDuration::from_millis(2))),
        );
        let faults = faulted
            .then(|| FaultPlan::parse("crash 0 0.3 0.8\ntransient 0.05").expect("valid plan"));
        let n = fx.workload.len();
        let (report, _, audit, _) = run_once(&fx, 1, faults);
        let s = &report.stats;
        prop_assert_eq!(s.submitted, n as u64, "every arrival submitted");
        prop_assert_eq!(
            s.submitted,
            s.completed + s.degraded + s.rejected + s.expired,
            "outcomes partition the submitted set"
        );
        prop_assert_eq!(s.open(), 0, "no query left open");
        prop_assert_eq!(report.summary.len(), n, "one record per query");
        prop_assert_eq!(audit.len(), n, "one audit line per query");
    }

    /// A batch never contains two tasks of the same query: every group of
    /// tasks launched together on one executor has distinct query ids.
    #[test]
    fn no_batch_holds_two_tasks_of_one_query(
        seed in 0u64..1000,
        rate in 20.0f64..80.0,
        batch_max in 2usize..16,
    ) {
        let fx = fixture(
            seed,
            120,
            rate,
            Some(BatchConfig::new(batch_max, SimDuration::from_millis(2))),
        );
        let (report, _, _, events) = run_once(&fx, 1, None);
        let mut saw_multi = false;
        for ((executor, t), queries) in start_groups(&events) {
            let mut unique = queries.clone();
            unique.sort_unstable();
            unique.dedup();
            prop_assert_eq!(
                unique.len(), queries.len(),
                "executor {} launched a duplicate query in one batch at t={}us: {:?}",
                executor, t, queries
            );
            prop_assert!(queries.len() <= batch_max, "batch exceeded batch_max");
            saw_multi |= queries.len() > 1;
        }
        // A multi-member launch group must be reflected in the counter.
        prop_assert!(!saw_multi || report.snapshot.tasks_batched > 0);
    }
}

/// Enabled batching actually batches on a loaded fixture, and a batched run
/// stays deterministic: re-running it reproduces every artifact.
#[test]
fn batching_is_deterministic_and_actually_batches() {
    let fx = fixture(11, 300, 60.0, Some(BatchConfig::new(8, SimDuration::from_millis(2))));
    let (report_a, prom_a, audit_a, _) = run_once(&fx, 1, None);
    assert!(report_a.snapshot.tasks_batched > 0, "a loaded run forms real batches");
    let (report_b, prom_b, audit_b, _) = run_once(&fx, 1, None);
    assert_eq!(report_a.stats, report_b.stats);
    assert_eq!(report_a.summary.records(), report_b.summary.records());
    assert_eq!(audit_a, audit_b);
    assert_eq!(prom_a, prom_b);
}
