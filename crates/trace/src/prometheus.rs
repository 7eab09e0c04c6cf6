//! Prometheus text-exposition exporter.
//!
//! Renders the runtime's lock-light metrics ([`RuntimeMetrics`] counters,
//! per-executor gauges, the latency histogram) and the scheduler's
//! self-profile ([`PlanningProfile`]) in the Prometheus text format
//! (version 0.0.4), hand-rolled like the rest of the workspace's exporters.
//! Histograms emit cumulative `le` buckets at the log-spaced bucket edges
//! that actually hold observations, plus the mandatory `+Inf`/`_sum`/
//! `_count` series.

use crate::sink::PlanningProfile;
use schemble_metrics::{LatencyHistogram, RuntimeMetrics};
use std::fmt::Write as _;
use std::sync::atomic::Ordering::Relaxed;

fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Escapes a label *value* per the Prometheus text format: backslash,
/// double-quote and newline must be backslash-escaped inside the quoted
/// value (a different alphabet from JSON string escaping — `\t` et al. pass
/// through verbatim).
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// One `name{key="value"} value` sample line with the label value escaped.
pub(crate) fn labeled_sample(
    out: &mut String,
    name: &str,
    label: &str,
    value: &str,
    sample: impl std::fmt::Display,
) {
    let _ = writeln!(out, "{name}{{{label}=\"{}\"}} {sample}", escape_label(value));
}

fn histogram(out: &mut String, name: &str, help: &str, hist: &LatencyHistogram) {
    family(out, name, "histogram", help);
    let total = hist.count();
    for (upper, cumulative) in hist.cumulative_buckets() {
        let _ = writeln!(out, "{name}_bucket{{le=\"{upper}\"}} {cumulative}");
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {total}");
    let _ = writeln!(out, "{name}_sum {}", hist.sum_secs());
    let _ = writeln!(out, "{name}_count {total}");
}

/// Renders `metrics` (and, when given, the scheduler self-profile) as a
/// Prometheus text exposition. `elapsed_secs` is the run's elapsed backend
/// time, used for utilisation.
pub fn prometheus_text(
    metrics: &RuntimeMetrics,
    elapsed_secs: f64,
    planning: Option<&PlanningProfile>,
) -> String {
    let mut out = String::with_capacity(4096);
    let c = &metrics.counters;
    for (name, help, value) in [
        (
            "schemble_queries_submitted_total",
            "Queries handed to the pipeline.",
            c.submitted.load(Relaxed),
        ),
        (
            "schemble_queries_completed_total",
            "Queries completed with a result.",
            c.completed.load(Relaxed),
        ),
        (
            "schemble_queries_rejected_total",
            "Queries refused at arrival.",
            c.rejected.load(Relaxed),
        ),
        (
            "schemble_queries_expired_total",
            "Queries dropped after admission.",
            c.expired.load(Relaxed),
        ),
        (
            "schemble_tasks_started_total",
            "Tasks started on executors.",
            c.tasks_started.load(Relaxed),
        ),
        (
            "schemble_tasks_completed_total",
            "Tasks finished by executors.",
            c.tasks_completed.load(Relaxed),
        ),
        (
            "schemble_queries_degraded_total",
            "Queries answered from a partial ensemble.",
            c.degraded.load(Relaxed),
        ),
        (
            "schemble_tasks_failed_total",
            "Tasks that failed (transient fault, timeout, crash).",
            c.tasks_failed.load(Relaxed),
        ),
        (
            "schemble_tasks_retried_total",
            "Failed tasks re-dispatched after backoff.",
            c.tasks_retried.load(Relaxed),
        ),
        (
            "schemble_tasks_saved_total",
            "Planned tasks quit by the anytime policy before completing.",
            c.tasks_saved.load(Relaxed),
        ),
        (
            "schemble_tasks_batched_total",
            "Tasks launched as members of a cross-query batch.",
            c.tasks_batched.load(Relaxed),
        ),
    ] {
        family(&mut out, name, "counter", help);
        let _ = writeln!(out, "{name} {value}");
    }
    // Emitted only when the run actually stole work, so expositions from
    // runs without `--steal-epoch-ms` stay byte-identical to historical
    // output.
    let stolen = c.queries_stolen.load(Relaxed);
    if stolen > 0 {
        family(
            &mut out,
            "schemble_queries_stolen_total",
            "counter",
            "Queries transferred between shards by work stealing.",
        );
        let _ = writeln!(out, "schemble_queries_stolen_total {stolen}");
    }
    family(&mut out, "schemble_queries_open", "gauge", "Queries submitted but not yet decided.");
    let _ = writeln!(out, "schemble_queries_open {}", c.open());

    family(
        &mut out,
        "schemble_executor_queue_depth",
        "gauge",
        "Tasks waiting in the executor's FIFO backlog.",
    );
    for (k, e) in metrics.executors.iter().enumerate() {
        labeled_sample(
            &mut out,
            "schemble_executor_queue_depth",
            "executor",
            &k.to_string(),
            e.queue_depth.load(Relaxed),
        );
    }
    family(
        &mut out,
        "schemble_executor_busy_seconds_total",
        "counter",
        "Cumulative busy time per executor.",
    );
    for (k, e) in metrics.executors.iter().enumerate() {
        labeled_sample(
            &mut out,
            "schemble_executor_busy_seconds_total",
            "executor",
            &k.to_string(),
            e.busy_micros.load(Relaxed) as f64 / 1e6,
        );
    }
    family(&mut out, "schemble_executor_tasks_total", "counter", "Tasks completed per executor.");
    for (k, e) in metrics.executors.iter().enumerate() {
        labeled_sample(
            &mut out,
            "schemble_executor_tasks_total",
            "executor",
            &k.to_string(),
            e.tasks.load(Relaxed),
        );
    }
    family(
        &mut out,
        "schemble_executor_up",
        "gauge",
        "Whether the executor is up (1) or down (0).",
    );
    for (k, e) in metrics.executors.iter().enumerate() {
        labeled_sample(
            &mut out,
            "schemble_executor_up",
            "executor",
            &k.to_string(),
            e.up.load(Relaxed),
        );
    }
    family(
        &mut out,
        "schemble_executor_utilization",
        "gauge",
        "Fraction of elapsed time the executor was busy.",
    );
    for (k, e) in metrics.executors.iter().enumerate() {
        let util = if elapsed_secs > 0.0 {
            (e.busy_micros.load(Relaxed) as f64 / 1e6 / elapsed_secs).min(1.0)
        } else {
            0.0
        };
        labeled_sample(&mut out, "schemble_executor_utilization", "executor", &k.to_string(), util);
    }

    histogram(
        &mut out,
        "schemble_query_latency_seconds",
        "End-to-end latency of completed queries.",
        &metrics.latency,
    );
    histogram(
        &mut out,
        "schemble_batch_size",
        "Size of each launched cross-query batch (observations are sizes, not seconds).",
        &metrics.batch_size,
    );

    if let Some(p) = planning {
        family(&mut out, "schemble_sched_plans_total", "counter", "Scheduler planning passes.");
        let _ = writeln!(out, "schemble_sched_plans_total {}", p.plans.load(Relaxed));
        family(
            &mut out,
            "schemble_sched_plan_work_units_total",
            "counter",
            "Abstract work units consumed by the scheduler.",
        );
        let _ =
            writeln!(out, "schemble_sched_plan_work_units_total {}", p.work_units.load(Relaxed));
        family(
            &mut out,
            "schemble_sched_plan_wall_seconds_total",
            "counter",
            "Wall-clock time spent planning.",
        );
        let _ = writeln!(
            out,
            "schemble_sched_plan_wall_seconds_total {}",
            p.wall_nanos.load(Relaxed) as f64 / 1e9
        );
        histogram(
            &mut out,
            "schemble_sched_plan_seconds",
            "Wall-clock duration of one scheduler planning pass.",
            &p.hist,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn exposition_contains_all_families_and_is_line_shaped() {
        let metrics = RuntimeMetrics::new(2);
        metrics.counters.submitted.fetch_add(10, Relaxed);
        metrics.counters.completed.fetch_add(9, Relaxed);
        metrics.latency.record(0.05);
        let planning = PlanningProfile::default();
        planning.record(40, Duration::from_micros(200));
        let text = prometheus_text(&metrics, 2.0, Some(&planning));
        for family in [
            "schemble_queries_submitted_total 10",
            "schemble_queries_completed_total 9",
            "schemble_queries_open 1",
            "schemble_queries_degraded_total 0",
            "schemble_tasks_failed_total 0",
            "schemble_tasks_retried_total 0",
            "schemble_tasks_saved_total 0",
            "schemble_executor_up{executor=\"0\"} 1",
            "schemble_executor_queue_depth{executor=\"1\"} 0",
            "schemble_query_latency_seconds_count 1",
            "schemble_query_latency_seconds_bucket{le=\"+Inf\"} 1",
            "schemble_sched_plans_total 1",
            "schemble_sched_plan_seconds_count 1",
        ] {
            assert!(text.contains(family), "missing: {family}\n{text}");
        }
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.rsplitn(2, ' ').count(), 2, "bad line: {line}");
        }
    }

    #[test]
    fn label_values_are_escaped_per_prometheus_rules() {
        assert_eq!(escape_label("plain-0"), "plain-0");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape_label("line\nbreak"), "line\\nbreak");
        // Tabs are legal inside a label value — unlike JSON, no escape.
        assert_eq!(escape_label("tab\there"), "tab\there");
        let mut out = String::new();
        labeled_sample(&mut out, "m", "executor", "we\"ird\\name", 7u64);
        assert_eq!(out, "m{executor=\"we\\\"ird\\\\name\"} 7\n");
    }
}
