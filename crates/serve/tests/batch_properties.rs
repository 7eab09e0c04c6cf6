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

mod common;

use common::{assert_conserved, fixture, run_once, Fixture};
use proptest::prelude::*;
use schemble_sim::{BatchConfig, FaultPlan, SimDuration};
use schemble_trace::TraceEvent;
use std::collections::HashMap;

fn armed(seed: u64, n_queries: usize, rate: f64, batching: Option<BatchConfig>) -> Fixture {
    fixture(seed, n_queries, rate).build(|pipeline| pipeline.batching = batching)
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
        let none = armed(seed, 100, rate, None);
        let inert =
            armed(seed, 100, rate, Some(BatchConfig::new(1, SimDuration::from_millis(window_ms))));
        let a = run_once(&none, |c| c.shards = shards);
        let b = run_once(&inert, |c| c.shards = shards);
        prop_assert_eq!(a.report.stats, b.report.stats, "engine stats must match");
        prop_assert_eq!(b.report.metrics.lock().tasks.batched, 0, "batch_max = 1 never batches");
        prop_assert_eq!(
            a.report.summary.records(), b.report.summary.records(),
            "per-query outcomes must be byte-identical"
        );
        prop_assert_eq!(a.audit, b.audit, "audit lines must be byte-identical");
        prop_assert_eq!(a.prom, b.prom, "Prometheus text must be byte-identical");
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
        let batching = Some(BatchConfig::new(batch_max, SimDuration::from_millis(2)));
        let fx = armed(seed, 100, rate, batching);
        let faults = faulted
            .then(|| FaultPlan::parse("crash 0 0.3 0.8\ntransient 0.05").expect("valid plan"));
        assert_conserved(&run_once(&fx, |c| c.faults = faults), fx.workload.len());
    }

    /// A batch never contains two tasks of the same query: every group of
    /// tasks launched together on one executor has distinct query ids.
    #[test]
    fn no_batch_holds_two_tasks_of_one_query(
        seed in 0u64..1000,
        rate in 20.0f64..80.0,
        batch_max in 2usize..16,
    ) {
        let batching = Some(BatchConfig::new(batch_max, SimDuration::from_millis(2)));
        let run = run_once(&armed(seed, 120, rate, batching), |_| {});
        let mut saw_multi = false;
        for ((executor, t), queries) in start_groups(&run.events) {
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
        prop_assert!(!saw_multi || run.report.metrics.lock().tasks.batched > 0);
    }
}

/// Enabled batching actually batches on a loaded fixture, and a batched run
/// stays deterministic: re-running it reproduces every artifact.
#[test]
fn batching_is_deterministic_and_actually_batches() {
    let fx = armed(11, 300, 60.0, Some(BatchConfig::new(8, SimDuration::from_millis(2))));
    let a = run_once(&fx, |_| {});
    assert!(a.report.metrics.lock().tasks.batched > 0, "a loaded run forms real batches");
    let b = run_once(&fx, |_| {});
    assert_eq!(a.report.stats, b.report.stats);
    assert_eq!(a.report.summary.records(), b.report.summary.records());
    assert_eq!(a.audit, b.audit);
    assert_eq!(a.prom, b.prom);
}
