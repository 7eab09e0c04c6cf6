//! Prometheus text-exposition writer and the runtime's exporter.
//!
//! The writer functions ([`family`], [`single`], [`labeled_sample`],
//! [`per_executor`] and the private `histogram`) are the only code in the
//! workspace that formats exposition lines; [`prometheus_text`] and the obs
//! crate's `ObsState::prometheus` are both written with them.
//! [`prometheus_text`] renders the runtime's lock-light metrics
//! ([`RuntimeMetrics`] counters, per-executor gauges, the latency and
//! batch-size histograms) and the scheduler's self-profile
//! ([`PlanningProfile`]) in the Prometheus text format (version 0.0.4).
//! Histograms emit cumulative `le` rows at the log-spaced bucket edges that
//! hold observations, plus the mandatory `+Inf`/`_sum`/`_count` series;
//! observations past a layout's top edge count toward `+Inf` and `_count`
//! only.

use crate::sink::PlanningProfile;
use schemble_metrics::{Counter, ExecutorGauges, LogHistogram, RuntimeMetrics};
use std::fmt::{Display, Write as _};

/// Writes the `# HELP`/`# TYPE` header of one metric family.
pub fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Writes one family holding a single unlabelled sample.
pub fn single(out: &mut String, name: &str, kind: &str, help: &str, value: impl Display) {
    family(out, name, kind, help);
    let _ = writeln!(out, "{name} {value}");
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

/// One `name{key="value"} sample` line with the label value escaped.
pub fn labeled_sample(
    out: &mut String,
    name: &str,
    label: &str,
    value: &str,
    sample: impl Display,
) {
    let _ = writeln!(out, "{name}{{{label}=\"{}\"}} {sample}", escape_label(value));
}

/// Writes one family with a sample per executor, labelled by its index.
pub fn per_executor<T: Display>(
    out: &mut String,
    name: &str,
    kind: &str,
    help: &str,
    samples: impl IntoIterator<Item = T>,
) {
    family(out, name, kind, help);
    for (k, sample) in samples.into_iter().enumerate() {
        labeled_sample(out, name, "executor", &k.to_string(), sample);
    }
}

/// Writes one histogram family. `scale` is the histogram's unit per
/// exported unit (1 for seconds and sizes, 1e9 for nanoseconds exported as
/// seconds); it divides the `le` edges and the sum.
fn histogram<const L: usize, C: Counter>(
    out: &mut String,
    name: &str,
    help: &str,
    hist: &LogHistogram<L, C>,
    scale: f64,
) {
    family(out, name, "histogram", help);
    let total = hist.count();
    for (upper, cumulative) in hist.cumulative_buckets() {
        let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cumulative}", upper / scale);
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {total}");
    let _ = writeln!(out, "{name}_sum {}", hist.sum() / scale);
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
        ("schemble_queries_submitted_total", "Queries handed to the pipeline.", &c.submitted),
        ("schemble_queries_completed_total", "Queries completed with a result.", &c.completed),
        ("schemble_queries_rejected_total", "Queries refused at arrival.", &c.rejected),
        ("schemble_queries_expired_total", "Queries dropped after admission.", &c.expired),
        ("schemble_tasks_started_total", "Tasks started on executors.", &c.tasks_started),
        ("schemble_tasks_completed_total", "Tasks finished by executors.", &c.tasks_completed),
        (
            "schemble_queries_degraded_total",
            "Queries answered from a partial ensemble.",
            &c.degraded,
        ),
        (
            "schemble_tasks_failed_total",
            "Tasks that failed (transient fault, timeout, crash).",
            &c.tasks_failed,
        ),
        (
            "schemble_tasks_retried_total",
            "Failed tasks re-dispatched after backoff.",
            &c.tasks_retried,
        ),
        (
            "schemble_tasks_saved_total",
            "Planned tasks quit by the anytime policy before completing.",
            &c.tasks_saved,
        ),
        (
            "schemble_tasks_batched_total",
            "Tasks launched as members of a cross-query batch.",
            &c.tasks_batched,
        ),
    ] {
        single(&mut out, name, "counter", help, value.get());
    }
    // Emitted only when the run actually stole work, so expositions from
    // runs without `--steal-epoch-ms` stay byte-identical to historical
    // output.
    let stolen = c.queries_stolen.get();
    if stolen > 0 {
        let help = "Queries transferred between shards by work stealing.";
        single(&mut out, "schemble_queries_stolen_total", "counter", help, stolen);
    }
    let help = "Queries submitted but not yet decided.";
    single(&mut out, "schemble_queries_open", "gauge", help, c.open());

    let busy_secs = |e: &ExecutorGauges| e.busy_micros.get() as f64 / 1e6;
    let utilization = |e: &ExecutorGauges| {
        if elapsed_secs > 0.0 {
            (busy_secs(e) / elapsed_secs).min(1.0)
        } else {
            0.0
        }
    };
    // Counts are exact as f64 (and print without a fraction) below 2^53.
    type Sample<'a> = &'a dyn Fn(&ExecutorGauges) -> f64;
    let executor_families: [(&str, &str, &str, Sample); 5] = [
        (
            "schemble_executor_queue_depth",
            "gauge",
            "Tasks waiting in the executor's FIFO backlog.",
            &|e| e.queue_depth.get() as f64,
        ),
        (
            "schemble_executor_busy_seconds_total",
            "counter",
            "Cumulative busy time per executor.",
            &busy_secs,
        ),
        ("schemble_executor_tasks_total", "counter", "Tasks completed per executor.", &|e| {
            e.tasks.get() as f64
        }),
        ("schemble_executor_up", "gauge", "Whether the executor is up (1) or down (0).", &|e| {
            e.up.get() as f64
        }),
        (
            "schemble_executor_utilization",
            "gauge",
            "Fraction of elapsed time the executor was busy.",
            &utilization,
        ),
    ];
    for (name, kind, help, sample) in executor_families {
        per_executor(&mut out, name, kind, help, metrics.executors.iter().map(sample));
    }

    histogram(
        &mut out,
        "schemble_query_latency_seconds",
        "End-to-end latency of completed queries.",
        &metrics.latency,
        1.0,
    );
    histogram(
        &mut out,
        "schemble_batch_size",
        "Size of each launched cross-query batch (observations are sizes, not seconds).",
        &metrics.batch_size,
        1.0,
    );

    if let Some(p) = planning {
        for (name, help, value) in [
            ("schemble_sched_plans_total", "Scheduler planning passes.", p.plans.get() as f64),
            (
                "schemble_sched_plan_work_units_total",
                "Abstract work units consumed by the scheduler.",
                p.work_units.get() as f64,
            ),
            (
                "schemble_sched_plan_wall_seconds_total",
                "Wall-clock time spent planning.",
                p.hist.sum() / 1e9,
            ),
        ] {
            single(&mut out, name, "counter", help, value);
        }
        histogram(
            &mut out,
            "schemble_sched_plan_seconds",
            "Wall-clock duration of one scheduler planning pass.",
            &p.hist,
            1e9,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::Relaxed;
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
