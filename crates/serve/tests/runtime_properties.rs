//! Properties of the serving runtime.
//!
//! Conservation: every submitted query is resolved — completed, rejected or
//! expired — exactly once, whatever the seed, traffic intensity, deadline
//! tightness or admission mode. Shutdown: when the runtime returns, worker
//! queues have drained and every started task has finished. On the wall
//! clock the same holds with batching, anytime exit, crashes and transient
//! failures all armed at once.

mod common;

use common::{assert_conserved, fixture, run_once, run_wall};
use proptest::prelude::*;
use schemble_core::engine::{AnytimePolicy, FailurePolicy};
use schemble_metrics::QueryOutcome;
use schemble_sim::{BatchConfig, FaultPlan, SimDuration};

proptest! {
    // Each case is a full pipeline run; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Virtual-clock conservation under arbitrary seeds, load levels,
    /// deadline tightness and both admission modes.
    #[test]
    fn every_query_is_resolved_exactly_once(
        seed in 0u64..1000,
        rate in 10.0f64..80.0,
        deadline_ms in 50.0f64..200.0,
        force_all in proptest::bool::ANY,
    ) {
        let fx = fixture(seed, 150, rate).deadline_ms(deadline_ms).force_all(force_all);
        let fx = fx.build(|_| {});
        let n = fx.workload.len();
        let run = run_once(&fx, |_| {});
        assert_conserved(&run, n);
        let report = &run.report;
        if force_all {
            prop_assert_eq!(report.stats.rejected, 0, "ForceAll never rejects");
            // ForceAll also never drops admitted queries.
            prop_assert_eq!(report.stats.completed, n as u64);
        }
        // Rejected/expired queries are recorded as missed, not completed.
        for r in report.summary.records() {
            let missed = matches!(r.outcome, QueryOutcome::Missed);
            prop_assert_eq!(missed, r.completion.is_none());
        }
    }
}

/// Wall-clock conservation and drained shutdown: the threaded runtime under
/// an overloaded trace still resolves every query exactly once, and when it
/// returns no task is running and no backlog remains.
#[test]
fn wall_clock_shutdown_drains_all_queues() {
    let fx = fixture(7, 120, 60.0).deadline_ms(80.0).build(|_| {});
    let report = run_wall(&fx, |_| {}).report;
    let s = &report.stats;
    assert_eq!(s.submitted, fx.workload.len() as u64);
    assert_eq!(s.submitted, s.completed + s.rejected + s.expired);
    assert_eq!(s.open(), 0);

    let record = report.metrics.lock();
    assert_eq!(
        record.tasks.started, record.tasks.completed,
        "every task handed to a worker came back before shutdown"
    );
    assert!(record.executors.iter().all(|e| e.queue_depth == 0), "backlogs drained");
    assert!(record.executors.iter().all(|e| e.running == 0), "no worker mid-task at shutdown");
}

/// ForceAll on the wall clock: heavy overload, yet nothing is lost and the
/// run still terminates (drain logic never strands a query).
#[test]
fn wall_clock_force_all_completes_everything() {
    let fx = fixture(11, 100, 80.0).deadline_ms(60.0).force_all(true).build(|_| {});
    let report = run_wall(&fx, |_| {}).report;
    assert_eq!(report.stats.completed, fx.workload.len() as u64);
    assert_eq!(report.stats.rejected + report.stats.expired, 0);
    let tasks = report.metrics.lock().tasks;
    assert_eq!(tasks.started, tasks.completed);
}

/// Everything at once on real threads: batched passes, anytime cancels,
/// retries, transient failures, and crash windows *shorter than a model
/// pass* — so an executor is back up, and the engine's retry resubmitted,
/// while the killed pass's worker is still asleep and its report still to
/// come. Only time-independent facts are asserted: nothing is lost, nothing
/// is resolved twice, and the runtime shuts down clean.
#[test]
fn wall_clock_conserves_under_batching_anytime_and_short_crashes() {
    let mut plan = String::from("transient 0.1\n");
    for i in 0..12 {
        let from = 0.2 + 0.4 * i as f64;
        plan += &format!("crash {} {from:.3} {:.3}\n", i % 3, from + 0.004);
    }
    let fx = fixture(13, 150, 30.0).deadline_ms(200.0).build(|pipeline| {
        pipeline.batching = Some(BatchConfig::new(8, SimDuration::from_millis(2)));
        pipeline.failure = Some(FailurePolicy::default());
        pipeline.anytime = Some(AnytimePolicy::default());
    });
    let run = run_wall(&fx, |c| c.faults = Some(FaultPlan::parse(&plan).expect("plan parses")));
    // The record ids are the workload's, each once.
    assert!(fx.workload.queries.iter().enumerate().all(|(i, q)| q.id == i as u64));
    assert_conserved(&run, fx.workload.len());
    let report = &run.report;
    assert!(report.stats.tasks_failed > 0, "the plan must actually bite");
    // `serve_schemble` returning means the workers and the reporter were
    // joined; the gauges agree nothing was left behind.
    let record = report.metrics.lock();
    assert!(record.executors.iter().all(|e| e.queue_depth == 0), "backlogs drained");
    assert!(record.executors.iter().all(|e| e.running == 0), "no worker mid-task at shutdown");
    assert!(record.executors.iter().all(|e| e.up == 1), "every crash window closed");
}
