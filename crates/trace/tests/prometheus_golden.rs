//! Golden-file pin of the Prometheus text exposition.
//!
//! The exporter's exact output — family ordering, `# HELP`/`# TYPE` lines,
//! label escaping, float formatting — is a contract consumed by scrape
//! configs and the CI telemetry job, so it is pinned byte-for-byte against
//! a checked-in fixture. Regenerate deliberately with
//! `BLESS_GOLDEN=1 cargo test -p schemble-trace --test prometheus_golden`.

use schemble_metrics::{EngineStats, ExecutorGauges, RuntimeMetrics, TaskCounters};
use schemble_trace::{prometheus_text, PlanningProfile};
use std::time::Duration;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_metrics.prom");

/// A fully deterministic metrics fixture exercising every family: counters,
/// per-executor gauges (two executors, one down), a multi-bucket latency
/// histogram, and the scheduler self-profile.
fn fixture() -> (RuntimeMetrics, PlanningProfile) {
    let metrics = RuntimeMetrics::new(2);
    {
        let mut r = metrics.lock();
        r.stats = EngineStats {
            submitted: 20,
            completed: 14,
            rejected: 2,
            expired: 1,
            degraded: 3,
            tasks_failed: 2,
            tasks_retried: 1,
            ..EngineStats::default()
        };
        r.tasks = TaskCounters { started: 31, completed: 29, batched: 0 };
        r.executors[0] =
            ExecutorGauges { queue_depth: 3, busy_micros: 1_500_000, tasks: 17, ..r.executors[0] };
        r.executors[1] =
            ExecutorGauges { busy_micros: 250_000, tasks: 12, up: 0, ..r.executors[1] };
        for lat in [0.0005, 0.004, 0.004, 0.032, 0.25] {
            r.latency.record(lat);
        }
    }
    let planning = PlanningProfile::default();
    planning.record(40, Duration::from_micros(200));
    planning.record(120, Duration::from_micros(800));
    (metrics, planning)
}

#[test]
fn exposition_matches_the_checked_in_golden_file() {
    let (metrics, planning) = fixture();
    let text = prometheus_text(&metrics, 2.0, Some(&planning));
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &text).expect("write golden file");
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file checked in");
    assert_eq!(
        text, golden,
        "Prometheus exposition drifted from the golden file; if the change \
         is intentional, regenerate with BLESS_GOLDEN=1"
    );
    // Spot-check the golden file itself still carries the contract pieces.
    assert!(golden.contains("# HELP schemble_queries_submitted_total"));
    assert!(golden.contains("# TYPE schemble_query_latency_seconds histogram"));
    assert!(golden.contains("schemble_executor_up{executor=\"1\"} 0"));
}
