//! Properties of the serving runtime.
//!
//! Conservation: every submitted query is resolved — completed, rejected or
//! expired — exactly once, whatever the seed, traffic intensity, deadline
//! tightness or admission mode. Shutdown: when the runtime returns, worker
//! queues have drained and every started task has finished. On the wall
//! clock the same holds with batching, anytime exit, crashes and transient
//! failures all armed at once.

use proptest::prelude::*;
use schemble_core::engine::{AnytimePolicy, FailurePolicy};
use schemble_core::experiment::{ExperimentConfig, ExperimentContext, Traffic};
use schemble_core::pipeline::schemble::SchembleConfig;
use schemble_core::pipeline::AdmissionMode;
use schemble_data::{TaskKind, Workload};
use schemble_metrics::QueryOutcome;
use schemble_serve::{serve_schemble, ClockMode, ServeConfig, ServeReport};
use schemble_sim::{BatchConfig, FaultPlan, SimDuration};
use std::collections::HashSet;

/// One served run; `arm` may switch optional features on first.
fn serve(
    seed: u64,
    n_queries: usize,
    rate: f64,
    deadline_ms: f64,
    force_all: bool,
    mode: ClockMode,
    arm: impl FnOnce(&mut SchembleConfig, &mut ServeConfig),
) -> (ServeReport, Workload) {
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
    let mut serve_cfg = ServeConfig { mode, ..ServeConfig::default() };
    arm(&mut pipeline, &mut serve_cfg);
    let report = serve_schemble(&ctx.ensemble, &pipeline, &workload, ctx.config.seed, &serve_cfg);
    (report, workload)
}

/// No optional feature.
fn plain(_: &mut SchembleConfig, _: &mut ServeConfig) {}

/// Each query appears in the records exactly once, and the engine's
/// counters partition the submitted set.
fn assert_conserved(report: &ServeReport, n: usize) {
    let s = &report.stats;
    prop_assert_eq!(s.submitted, n as u64, "every arrival submitted");
    prop_assert_eq!(
        s.submitted,
        s.completed + s.degraded + s.rejected + s.expired,
        "completed + degraded + rejected + expired must partition the submitted set"
    );
    prop_assert_eq!(s.open(), 0, "no query left open");
    prop_assert_eq!(report.summary.len(), n, "one record per query");
    let ids: HashSet<u64> = report.summary.records().iter().map(|r| r.id).collect();
    prop_assert_eq!(ids.len(), n, "record ids are unique");
    let completed = report.summary.records().iter().filter(|r| r.completion.is_some()).count();
    prop_assert_eq!(completed as u64, s.completed + s.degraded, "records agree with the counters");
}

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
        let (report, workload) =
            serve(seed, 150, rate, deadline_ms, force_all, ClockMode::Virtual, plain);
        let n = workload.len();
        assert_conserved(&report, n);
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
    let (report, workload) =
        serve(7, 120, 60.0, 80.0, false, ClockMode::Wall { dilation: 100.0 }, plain);
    let s = &report.stats;
    assert_eq!(s.submitted, workload.len() as u64);
    assert_eq!(s.submitted, s.completed + s.rejected + s.expired);
    assert_eq!(s.open(), 0);

    let snap = &report.snapshot;
    assert_eq!(
        snap.tasks_started, snap.tasks_completed,
        "every task handed to a worker came back before shutdown"
    );
    assert!(snap.queue_depths.iter().all(|&d| d == 0), "backlogs drained: {:?}", snap.queue_depths);
    assert!(!snap.running.iter().any(|&r| r), "no worker mid-task at shutdown");
}

/// ForceAll on the wall clock: heavy overload, yet nothing is lost and the
/// run still terminates (drain logic never strands a query).
#[test]
fn wall_clock_force_all_completes_everything() {
    let (report, workload) =
        serve(11, 100, 80.0, 60.0, true, ClockMode::Wall { dilation: 100.0 }, plain);
    assert_eq!(report.stats.completed, workload.len() as u64);
    assert_eq!(report.stats.rejected + report.stats.expired, 0);
    assert_eq!(report.snapshot.tasks_started, report.snapshot.tasks_completed);
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
    let mode = ClockMode::Wall { dilation: 100.0 };
    let (report, workload) = serve(13, 150, 30.0, 200.0, false, mode, |pipeline, serve| {
        pipeline.batching = Some(BatchConfig::new(8, SimDuration::from_millis(2)));
        pipeline.failure = Some(FailurePolicy::default());
        pipeline.anytime = Some(AnytimePolicy::default());
        serve.faults = Some(FaultPlan::parse(&plan).expect("plan parses"));
    });
    assert_conserved(&report, workload.len());
    let ids: HashSet<u64> = report.summary.records().iter().map(|r| r.id).collect();
    assert_eq!(ids, workload.queries.iter().map(|q| q.id).collect::<HashSet<u64>>());
    assert!(report.stats.tasks_failed > 0, "the plan must actually bite");
    // `serve_schemble` returning means the workers, the load generator and
    // the reporter were joined; the gauges agree nothing was left behind.
    let snap = &report.snapshot;
    assert!(snap.queue_depths.iter().all(|&d| d == 0), "backlogs drained: {:?}", snap.queue_depths);
    assert!(!snap.running.iter().any(|&r| r), "no worker mid-task at shutdown");
    assert!(snap.up.iter().all(|&u| u), "every crash window closed");
}
