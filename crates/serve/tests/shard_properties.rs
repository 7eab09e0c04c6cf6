//! Properties of the sharded serving runtime.
//!
//! Conservation must hold *globally* — summed over every shard, each
//! submitted query resolves exactly once — and the merged outputs
//! (Prometheus text, audit line set, trace stream, per-query records) must
//! be invariant to thread interleaving: re-running the same sharded
//! configuration gives byte-identical merged artifacts even though the
//! shard threads race differently every time.

use proptest::prelude::*;
use schemble_core::experiment::{ExperimentConfig, ExperimentContext, Traffic};
use schemble_core::pipeline::schemble::SchembleConfig;
use schemble_core::pipeline::AdmissionMode;
use schemble_data::{TaskKind, Workload};
use schemble_models::Ensemble;
use schemble_serve::{serve_schemble, ClockMode, ServeConfig, ServeReport, ShardRouter};
use schemble_trace::{audit_records, prometheus_text, TraceSink};
use std::collections::HashSet;
use std::sync::Arc;

struct Fixture {
    ensemble: Ensemble,
    pipeline: SchembleConfig,
    workload: Workload,
    seed: u64,
}

fn fixture(seed: u64, n_queries: usize, rate: f64, deadline_ms: f64, force_all: bool) -> Fixture {
    let mut config = ExperimentConfig::small(TaskKind::TextMatching, seed);
    config.n_queries = n_queries;
    config.traffic = Traffic::Poisson { rate_per_sec: rate };
    let mut config = config.with_deadline_millis(deadline_ms);
    if force_all {
        config.admission = AdmissionMode::ForceAll;
    }
    let mut ctx = ExperimentContext::new(config);
    let workload = ctx.workload();
    let mut pipeline = ctx.artifacts().pipeline();
    pipeline.admission = ctx.config.admission;
    let seed = ctx.config.seed;
    Fixture { ensemble: ctx.ensemble, pipeline, workload, seed }
}

/// One sharded virtual-clock run; returns the report plus its exported
/// artifacts (Prometheus text sans wall-clock planning profile, audit
/// lines, merged trace length).
fn run_sharded(fx: &Fixture, shards: usize) -> (ServeReport, String, Vec<String>, usize) {
    let sink = TraceSink::enabled();
    let config = ServeConfig {
        mode: ClockMode::Virtual,
        trace: Some(Arc::clone(&sink)),
        shards,
        ..ServeConfig::default()
    };
    let report = serve_schemble(&fx.ensemble, &fx.pipeline, &fx.workload, fx.seed, &config);
    let events = sink.drain();
    // The planning profile holds wall-clock measurements (genuinely
    // timing-dependent), so the determinism comparison renders without it.
    let prom = prometheus_text(&report.metrics, report.sim_secs, None);
    let audit: Vec<String> = audit_records(&events).iter().map(|r| r.to_json_line()).collect();
    (report, prom, audit, events.len())
}

proptest! {
    // Each case runs a full pipeline several times; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Global conservation across shards: submitted == completed + degraded
    /// + rejected + expired summed over shards, one record per query, and
    /// the merged record ids are exactly the workload's ids.
    #[test]
    fn sharded_serve_conserves_queries_globally(
        seed in 0u64..1000,
        shards in 2usize..=4,
        rate in 10.0f64..80.0,
        deadline_ms in 50.0f64..200.0,
        force_all in proptest::bool::ANY,
    ) {
        let fx = fixture(seed, 120, rate, deadline_ms, force_all);
        let n = fx.workload.len();
        let (report, _, audit, _) = run_sharded(&fx, shards);
        let s = &report.stats;
        prop_assert_eq!(s.submitted, n as u64, "every arrival submitted");
        prop_assert_eq!(
            s.submitted,
            s.completed + s.degraded + s.rejected + s.expired,
            "outcomes partition the submitted set"
        );
        prop_assert_eq!(s.open(), 0, "no query left open in any shard");
        prop_assert_eq!(report.summary.len(), n, "one record per query");
        let ids: HashSet<u64> = report.summary.records().iter().map(|r| r.id).collect();
        prop_assert_eq!(ids, (0..n as u64).collect::<HashSet<u64>>(), "global ids restored");
        prop_assert_eq!(audit.len(), n, "one audit line per query");
        // The merged runtime counters agree with the engine stats.
        prop_assert_eq!(report.snapshot.submitted, s.submitted);
        prop_assert_eq!(report.snapshot.completed, s.completed);
        prop_assert_eq!(report.snapshot.open, 0);
        if force_all {
            prop_assert_eq!(s.rejected, 0, "ForceAll never rejects");
        }
    }

    /// Interleaving invariance: the same sharded configuration re-run (with
    /// whatever thread schedule the OS picks this time) produces identical
    /// merged Prometheus text, identical audit line sets, and identical
    /// per-query records.
    #[test]
    fn sharded_outputs_are_invariant_to_interleaving(
        seed in 0u64..1000,
        shards in 2usize..=4,
    ) {
        let fx = fixture(seed, 100, 45.0, 120.0, false);
        let (report_a, prom_a, audit_a, trace_len_a) = run_sharded(&fx, shards);
        let (report_b, prom_b, audit_b, trace_len_b) = run_sharded(&fx, shards);
        prop_assert_eq!(prom_a, prom_b, "merged Prometheus text must be byte-identical");
        prop_assert_eq!(audit_a, audit_b, "audit line sets (in id order) must match");
        prop_assert_eq!(trace_len_a, trace_len_b, "merged trace length must match");
        prop_assert_eq!(report_a.stats, report_b.stats);
        prop_assert_eq!(
            report_a.summary.records(), report_b.summary.records(),
            "per-query outcomes must not depend on shard timing"
        );
        prop_assert_eq!(report_a.sim_secs, report_b.sim_secs);
    }
}

/// The router's partition is what the merged records reflect: each query's
/// record exists regardless of which shard served it, and shard assignment
/// is stable across runs.
#[test]
fn router_partition_matches_workload_split() {
    let fx = fixture(3, 200, 40.0, 150.0, false);
    let router = ShardRouter::new(3);
    let parts = fx.workload.partition(3, |q| router.route(q.key));
    let mut seen: Vec<u64> = Vec::new();
    for part in &parts {
        seen.extend(&part.global_ids);
    }
    seen.sort_unstable();
    assert_eq!(seen, (0..200u64).collect::<Vec<_>>());
}

/// Wall-clock sharded serve: conservation and a drained shutdown hold when
/// every shard runs its own worker pool and load generator.
#[test]
fn wall_clock_sharded_serve_drains_cleanly() {
    let fx = fixture(7, 120, 60.0, 100.0, false);
    let config = ServeConfig {
        mode: ClockMode::Wall { dilation: 100.0 },
        shards: 4,
        ..ServeConfig::default()
    };
    let report = serve_schemble(&fx.ensemble, &fx.pipeline, &fx.workload, fx.seed, &config);
    let s = &report.stats;
    assert_eq!(s.submitted, 120);
    assert_eq!(s.submitted, s.completed + s.degraded + s.rejected + s.expired);
    assert_eq!(s.open(), 0);
    let snap = &report.snapshot;
    assert_eq!(snap.tasks_started, snap.tasks_completed, "all tasks returned before shutdown");
    assert!(snap.queue_depths.iter().all(|&d| d == 0), "backlogs drained");
    assert_eq!(
        snap.queue_depths.len(),
        4 * fx.ensemble.m(),
        "merged metrics expose every shard's executor replica"
    );
}
