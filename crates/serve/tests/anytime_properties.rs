//! Properties of the anytime early-exit policy on the serving runtime.
//!
//! The load-bearing contract is the off-switch: a configured-but-inactive
//! policy (threshold above 1.0) must be *byte-identical* to no policy at
//! all — same per-query records, same audit lines, same merged Prometheus
//! text — across shard counts. That identity is what lets the feature ship
//! default-off without re-validating every existing baseline. The enabled
//! mode keeps the conservation invariant (quit queries still resolve
//! exactly once) while actually saving work.

mod common;

use common::{assert_conserved, fixture, run_once, Fixture};
use proptest::prelude::*;
use schemble_core::engine::AnytimePolicy;
use schemble_trace::TraceEvent;

fn armed(seed: u64, n_queries: usize, rate: f64, anytime: Option<AnytimePolicy>) -> Fixture {
    fixture(seed, n_queries, rate).build(|pipeline| pipeline.anytime = anytime)
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
        let none = armed(seed, 100, rate, None);
        let inert = armed(seed, 100, rate, Some(AnytimePolicy { confidence_threshold: threshold }));
        let a = run_once(&none, |c| c.shards = shards);
        let b = run_once(&inert, |c| c.shards = shards);
        prop_assert_eq!(a.report.stats, b.report.stats, "engine stats must match");
        prop_assert_eq!(b.report.stats.tasks_saved, 0, "an inert policy never quits");
        prop_assert_eq!(
            a.report.summary.records(), b.report.summary.records(),
            "per-query outcomes must be byte-identical"
        );
        prop_assert_eq!(a.audit, b.audit, "audit lines must be byte-identical");
        prop_assert_eq!(a.prom, b.prom, "Prometheus text must be byte-identical");
    }

    /// Enabled mode: conservation still holds — every submitted query
    /// resolves exactly once even when parts of its plan were quit — and
    /// the engine counts one saved task per `TaskQuit` on the trace.
    #[test]
    fn enabled_policy_conserves_queries(
        seed in 0u64..1000,
        rate in 10.0f64..80.0,
        sharded in proptest::bool::ANY,
    ) {
        let shards = if sharded { 4 } else { 1 };
        let fx = armed(seed, 100, rate, Some(AnytimePolicy::default()));
        let run = run_once(&fx, |c| c.shards = shards);
        assert_conserved(&run, fx.workload.len());
        let report = &run.report;
        let quits = run.events.iter().filter(|e| matches!(e, TraceEvent::TaskQuit { .. })).count();
        prop_assert_eq!(report.stats.tasks_saved, quits as u64, "one trace event per saved task");
    }
}

/// The default policy actually saves work on a loaded fixture, and a quit
/// run stays deterministic: re-running it reproduces every artifact.
#[test]
fn default_policy_saves_work_deterministically() {
    let fx = armed(11, 300, 60.0, Some(AnytimePolicy::default()));
    let a = run_once(&fx, |_| {});
    assert!(a.report.stats.tasks_saved > 0, "the default threshold quits work under load");
    let b = run_once(&fx, |_| {});
    assert_eq!(a.report.stats, b.report.stats);
    assert_eq!(a.report.summary.records(), b.report.summary.records());
    assert_eq!(a.audit, b.audit);
    assert_eq!(a.prom, b.prom);
}
