//! Properties of the sharded serving runtime.
//!
//! Conservation must hold *globally* — summed over every shard, each
//! submitted query resolves exactly once — and the merged outputs
//! (Prometheus text, audit line set, trace stream, per-query records) must
//! be invariant to thread interleaving: re-running the same sharded
//! configuration gives byte-identical merged artifacts even though the
//! shard threads race differently every time.

mod common;

use common::{assert_conserved, fixture, run_once, run_wall, Fixture};
use proptest::prelude::*;
use schemble_serve::ShardRouter;

fn armed(seed: u64, n_queries: usize, rate: f64, deadline_ms: f64, force_all: bool) -> Fixture {
    fixture(seed, n_queries, rate).deadline_ms(deadline_ms).force_all(force_all).build(|_| {})
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
        let fx = armed(seed, 120, rate, deadline_ms, force_all);
        let run = run_once(&fx, |c| c.shards = shards);
        assert_conserved(&run, fx.workload.len());
        // The merged gauges are every shard's, and their task counts sum to
        // the merged bank total.
        let s = &run.report.stats;
        let record = run.report.metrics.lock();
        prop_assert_eq!(record.executors.len(), shards * fx.ensemble.m());
        prop_assert_eq!(record.executors.iter().map(|e| e.tasks).sum::<u64>(), record.tasks.completed);
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
        let fx = armed(seed, 100, 45.0, 120.0, false);
        let a = run_once(&fx, |c| c.shards = shards);
        let b = run_once(&fx, |c| c.shards = shards);
        prop_assert_eq!(a.prom, b.prom, "merged Prometheus text must be byte-identical");
        prop_assert_eq!(a.audit, b.audit, "audit line sets (in id order) must match");
        prop_assert_eq!(a.events.len(), b.events.len(), "merged trace length must match");
        prop_assert_eq!(a.report.stats, b.report.stats);
        prop_assert_eq!(
            a.report.summary.records(), b.report.summary.records(),
            "per-query outcomes must not depend on shard timing"
        );
        prop_assert_eq!(a.report.sim_secs, b.report.sim_secs);
    }
}

/// The router's partition is what the merged records reflect: each query's
/// record exists regardless of which shard served it, and shard assignment
/// is stable across runs.
#[test]
fn router_partition_matches_workload_split() {
    let fx = armed(3, 200, 40.0, 150.0, false);
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
/// every shard runs its own worker pool and arrival lane.
#[test]
fn wall_clock_sharded_serve_drains_cleanly() {
    let fx = armed(7, 120, 60.0, 100.0, false);
    let report = run_wall(&fx, |c| c.shards = 4).report;
    let s = &report.stats;
    assert_eq!(s.submitted, 120);
    assert_eq!(s.submitted, s.completed + s.degraded + s.rejected + s.expired);
    assert_eq!(s.open(), 0);
    let record = report.metrics.lock();
    assert_eq!(record.tasks.started, record.tasks.completed, "all tasks returned before shutdown");
    assert!(record.executors.iter().all(|e| e.queue_depth == 0), "backlogs drained");
    assert_eq!(
        record.executors.len(),
        4 * fx.ensemble.m(),
        "merged metrics expose every shard's executor replica"
    );
}
