//! Properties of the anytime early-exit policy on the serving runtime.
//!
//! The load-bearing contract is the off-switch: a configured-but-inactive
//! policy (threshold above 1.0) must be *byte-identical* to no policy at
//! all — same per-query records, same audit lines, same merged Prometheus
//! text — across shard counts. That identity is what lets the feature ship
//! default-off without re-validating every existing baseline. The enabled
//! mode keeps the conservation invariant (quit queries still resolve
//! exactly once) while actually saving work.

use proptest::prelude::*;
use schemble_core::engine::AnytimePolicy;
use schemble_core::experiment::{ExperimentConfig, ExperimentContext, Traffic};
use schemble_core::pipeline::schemble::SchembleConfig;
use schemble_data::{TaskKind, Workload};
use schemble_models::Ensemble;
use schemble_serve::{serve_schemble, ClockMode, ServeConfig, ServeReport};
use schemble_trace::{audit_records, prometheus_text, TraceSink};
use std::sync::Arc;

struct Fixture {
    ensemble: Ensemble,
    pipeline: SchembleConfig,
    workload: Workload,
    seed: u64,
}

fn fixture(seed: u64, n_queries: usize, rate: f64, anytime: Option<AnytimePolicy>) -> Fixture {
    let mut config = ExperimentConfig::small(TaskKind::TextMatching, seed);
    config.n_queries = n_queries;
    config.traffic = Traffic::Poisson { rate_per_sec: rate };
    let mut ctx = ExperimentContext::new(config);
    let workload = ctx.workload();
    let mut pipeline = ctx.artifacts().pipeline();
    pipeline.admission = ctx.config.admission;
    pipeline.anytime = anytime;
    let seed = ctx.config.seed;
    Fixture { ensemble: ctx.ensemble, pipeline, workload, seed }
}

/// One virtual-clock run; returns the report plus its exported artifacts
/// (Prometheus text sans the wall-clock planning profile, audit lines).
fn run_once(fx: &Fixture, shards: usize) -> (ServeReport, String, Vec<String>) {
    let sink = TraceSink::enabled();
    let config = ServeConfig {
        mode: ClockMode::Virtual,
        trace: Some(Arc::clone(&sink)),
        shards,
        ..ServeConfig::default()
    };
    let report = serve_schemble(&fx.ensemble, &fx.pipeline, &fx.workload, fx.seed, &config);
    let events = sink.drain();
    let prom = prometheus_text(&report.metrics, report.sim_secs, None);
    let audit: Vec<String> = audit_records(&events).iter().map(|r| r.to_json_line()).collect();
    (report, prom, audit)
}

proptest! {
    // Each case runs several full pipelines; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The off-switch identity: an inactive threshold (> 1.0) and no policy
    /// at all produce byte-identical runs — records, stats, audit lines and
    /// Prometheus text — whether the runtime is single-shard or sharded.
    #[test]
    fn inactive_policy_is_byte_identical_to_none(
        seed in 0u64..1000,
        rate in 10.0f64..80.0,
        threshold in 1.01f64..10.0,
        sharded in proptest::bool::ANY,
    ) {
        let shards = if sharded { 4 } else { 1 };
        let none = fixture(seed, 100, rate, None);
        let inert = fixture(seed, 100, rate, Some(AnytimePolicy { confidence_threshold: threshold }));
        let (report_a, prom_a, audit_a) = run_once(&none, shards);
        let (report_b, prom_b, audit_b) = run_once(&inert, shards);
        prop_assert_eq!(report_a.stats, report_b.stats, "engine stats must match");
        prop_assert_eq!(report_b.stats.tasks_saved, 0, "an inert policy never quits");
        prop_assert_eq!(
            report_a.summary.records(), report_b.summary.records(),
            "per-query outcomes must be byte-identical"
        );
        prop_assert_eq!(audit_a, audit_b, "audit lines must be byte-identical");
        prop_assert_eq!(prom_a, prom_b, "Prometheus text must be byte-identical");
    }

    /// Enabled mode: conservation still holds — every submitted query
    /// resolves exactly once even when parts of its plan were quit — and
    /// the runtime counters mirror the engine's saved-task count.
    #[test]
    fn enabled_policy_conserves_queries(
        seed in 0u64..1000,
        rate in 10.0f64..80.0,
        sharded in proptest::bool::ANY,
    ) {
        let shards = if sharded { 4 } else { 1 };
        let fx = fixture(seed, 100, rate, Some(AnytimePolicy::default()));
        let n = fx.workload.len();
        let (report, _, audit) = run_once(&fx, shards);
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
        prop_assert_eq!(report.snapshot.tasks_saved, s.tasks_saved, "counters mirror stats");
    }
}

/// The default policy actually saves work on a loaded fixture, and a quit
/// run stays deterministic: re-running it reproduces every artifact.
#[test]
fn default_policy_saves_work_deterministically() {
    let fx = fixture(11, 300, 60.0, Some(AnytimePolicy::default()));
    let (report_a, prom_a, audit_a) = run_once(&fx, 1);
    assert!(report_a.stats.tasks_saved > 0, "the default threshold quits work under load");
    let (report_b, prom_b, audit_b) = run_once(&fx, 1);
    assert_eq!(report_a.stats, report_b.stats);
    assert_eq!(report_a.summary.records(), report_b.summary.records());
    assert_eq!(audit_a, audit_b);
    assert_eq!(prom_a, prom_b);
}
