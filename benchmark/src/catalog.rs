//! Every metric the benchmark reports, by name.
//!
//! `BENCHMARK.json` at the root of the repository lists the same names,
//! units, directions and bounds; a test keeps the two in step. Later
//! changes are judged against these names, so a metric is never renamed or
//! redefined — a new measurement gets a new name.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

/// A metric of one layer. Reported, never gated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "replay_qps", unit: "1/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "cpu_us_per_query", unit: "us", better: Lower, bound: 0.25 },
    EndToEnd { name: "ontime_pct", unit: "%", better: Higher, bound: 0.10 },
    EndToEnd { name: "accuracy_pct", unit: "%", better: Higher, bound: 0.10 },
    EndToEnd { name: "latency_p50_ms", unit: "ms", better: Lower, bound: 0.10 },
    EndToEnd { name: "latency_p99_ms", unit: "ms", better: Lower, bound: 0.05 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Lower, bound: 0.10 },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 50] = [
    layer("core.predictor.score_rows", "count", Lower),
    layer("core.predictor.score_us_per_row", "us", Lower),
    layer("core.scheduler.plans", "count", Lower),
    layer("core.scheduler.work_units", "count", Lower),
    layer("core.scheduler.buffer_n_mean", "count", Lower),
    layer("core.scheduler.buffer_n_max", "count", Lower),
    layer("core.scheduler.plan_busy_s", "s", Lower),
    layer("core.scheduler.plan_p50_us", "us", Lower),
    layer("core.scheduler.plan_p99_us", "us", Lower),
    layer("core.scheduler.plan_share_pct", "%", Lower),
    layer("core.engine.handle_calls", "count", Lower),
    layer("core.engine.handle_busy_s", "s", Lower),
    layer("core.engine.self_s", "s", Lower),
    layer("core.engine.self_us_per_query", "us", Lower),
    layer("core.engine.models_per_query", "count", Lower),
    layer("core.engine.tasks_saved", "count", Higher),
    layer("core.engine.tasks_retried", "count", Lower),
    layer("core.backend.calls", "count", Lower),
    layer("core.backend.busy_s", "s", Lower),
    layer("core.backend.driver_other_s", "s", Lower),
    layer("serve.runtime.arrival_lag_p50_us", "us", Lower),
    layer("serve.runtime.arrival_lag_p99_us", "us", Lower),
    layer("serve.runtime.arrival_lag_max_us", "us", Lower),
    layer("serve.runtime.handle_busy_s", "s", Lower),
    layer("serve.runtime.cpu_s", "s", Lower),
    layer("serve.runtime.ontime_gap_pp", "pp", Lower),
    layer("serve.backend.calls", "count", Lower),
    layer("serve.backend.busy_s", "s", Lower),
    layer("serve.clock.sleep_overshoot_p50_us", "us", Lower),
    layer("serve.clock.sleep_overshoot_p99_us", "us", Lower),
    layer("serve.worker.roundtrip_p50_us", "us", Lower),
    layer("serve.worker.roundtrip_p99_us", "us", Lower),
    layer("trace.sink.events", "count", Lower),
    layer("trace.sink.events_per_query", "count", Lower),
    layer("trace.sink.dropped", "count", Lower),
    layer("trace.sink.emit_ns", "ns", Lower),
    layer("trace.export.prometheus_ms", "ms", Lower),
    layer("trace.export.audit_ms", "ms", Lower),
    layer("trace.export.chrome_ms", "ms", Lower),
    layer("trace.export.bytes", "bytes", Lower),
    layer("obs.fold_ms", "ms", Lower),
    layer("obs.export_ms", "ms", Lower),
    layer("serve.shard.merge_ms", "ms", Lower),
    layer("serve.shard.scaling_s2", "ratio", Higher),
    layer("serve.steal.queries_stolen", "count", Higher),
    layer("serve.steal.rounds", "count", Lower),
    layer("serve.steal.round_us", "us", Lower),
    layer("core.artifacts.build_s", "s", Lower),
    layer("data.workload_gen_s", "s", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::scenario::{Scenario, Size, WORKLOAD_NAMES};

    fn array<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        match doc.get(key) {
            Some(Value::Array(items)) => items,
            other => panic!("BENCHMARK.json: {key} is {other:?}"),
        }
    }

    fn text<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("no {key} in {v:?}"))
    }

    /// `BENCHMARK.json` is what the outside world reads; this file is what
    /// the binary reports. They must name the same things.
    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).unwrap();

        let workloads: Vec<&str> =
            array(&doc, "workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(workloads, WORKLOAD_NAMES);
        for w in array(&doc, "workloads") {
            let size = Size { seconds: 10.0, quick: false };
            let scenario = Scenario::named(text(w, "name"), size).expect("a known workload");
            assert_eq!(
                text(w, "why").split_whitespace().collect::<Vec<_>>(),
                scenario.why.split_whitespace().collect::<Vec<_>>()
            );
        }

        let e2e = array(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (listed, ours) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(listed, "name"), ours.name);
            assert_eq!(text(listed, "unit"), ours.unit, "{}", ours.name);
            assert_eq!(text(listed, "better"), ours.better.as_str(), "{}", ours.name);
            assert_eq!(
                listed.get("bound").and_then(Value::as_f64),
                Some(ours.bound),
                "{}",
                ours.name
            );
        }

        let layers = array(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (listed, ours) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(listed, "name"), ours.name);
            assert_eq!(text(listed, "unit"), ours.unit, "{}", ours.name);
            assert_eq!(text(listed, "better"), ours.better.as_str(), "{}", ours.name);
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract_alphabet() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOAD_NAMES);
        for name in &names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len());
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
    }
}
