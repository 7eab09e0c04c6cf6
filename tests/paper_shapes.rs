//! The paper-fidelity gate: the shapes EXPERIMENTS.md claims, asserted on
//! the `exp` driver's own tables.
//!
//! Each test calls an experiment of `schemble-bench` in-process at the quick
//! scale (`Scale` is an argument; swap in `Scale::FULL` to check `results/`
//! itself — every assertion below was chosen because it holds at both
//! scales). A shape that holds at one scale only is listed under "Known
//! deviations" in EXPERIMENTS.md, not asserted. The experiments share the
//! process-wide trained state, so the four tests train six artifact sets and
//! six selectors between them.

use schemble::data::TaskKind;
use schemble_bench::exp::{deadline_sweep, latency, overall, scheduler, segments};
use schemble_bench::{Report, Scale, Table};

const SCALE: Scale = Scale::QUICK;

/// The first table of `report` whose title starts with `prefix`.
fn find<'a>(report: &'a Report, prefix: &str) -> &'a Table {
    let found = report.tables.iter().find(|t| t.title.starts_with(prefix));
    found.unwrap_or_else(|| panic!("no table titled '{prefix}…'"))
}

/// The numeric cell under `column` of the row whose leading cells are `key`.
fn cell(table: &Table, key: &[&str], column: &str) -> f64 {
    let row = table.rows.iter().find(|row| row.iter().zip(key).all(|(cell, k)| cell == k));
    let row = row.unwrap_or_else(|| panic!("no row {key:?} in '{}'", table.title));
    let at = table.headers.iter().position(|h| h == column).expect("a column of the table");
    row[at].parse().unwrap_or_else(|_| panic!("'{}' in row {key:?} is not a number", row[at]))
}

#[test]
fn table1_orders_the_methods_as_the_paper_does() {
    let report = overall::run(SCALE);
    let table = find(&report, "Table I");
    let acc = |task: &str, method: &str| cell(table, &[task, method], "Acc %");
    let dmr = |task: &str, method: &str| cell(table, &[task, method], "DMR %");

    // Text matching reproduces the paper's full accuracy ordering.
    let order = ["Original", "DES", "Gating", "Static", "Schemble(ea)", "Schemble"];
    for pair in order.windows(2) {
        assert!(
            acc("TM", pair[0]) < acc("TM", pair[1]),
            "TM accuracy: {} {} must be below {} {}",
            pair[0],
            acc("TM", pair[0]),
            pair[1],
            acc("TM", pair[1])
        );
    }
    assert!(dmr("TM", "Schemble") <= dmr("TM", "Static") + 0.5);

    for task in ["TM", "VC", "IR"] {
        // Queue-blind methods collapse under load; the framework does not.
        for blind in ["Original", "DES", "Gating"] {
            assert!(acc(task, "Schemble") > acc(task, blind) + 5.0, "{task}: Schemble vs {blind}");
            assert!(dmr(task, "Schemble") < dmr(task, blind), "{task}: DMR vs {blind}");
        }
        // The agreement metric is a near-tie, never a clear win.
        assert!(acc(task, "Schemble(ea)") <= acc(task, "Schemble") + 1.0, "{task}: (ea)");
        // Static is the one close competitor: behind on TM (above), within
        // 2.5 points either way on VC and IR (EXPERIMENTS.md, deviations).
        assert!((acc(task, "Schemble") - acc(task, "Static")).abs() <= 2.5, "{task}: Static");
    }
}

#[test]
fn table2_everything_is_served_and_schemble_stays_near_static_latency() {
    // `latency::run` itself asserts every method completes every query.
    let report = latency::run(SCALE);
    let table = find(&report, "Table II");
    for task in ["TM", "VC", "IR"] {
        let mean = |method: &str| cell(table, &[task, method], "mean");
        let acc = |method: &str| cell(table, &[task, method], "Acc %");
        assert_eq!(acc("Original"), 100.0, "{task}: the reference is the full ensemble");
        assert!(mean("Schemble") <= 4.0 * mean("Static"), "{task}: near-Static latency");
        assert!(mean("Schemble") * 10.0 < mean("Original"), "{task}: Original's queues blow up");
        assert!(acc("Schemble") >= acc("Static"), "{task}: accuracy at that latency");
        for queued in ["DES", "Gating"] {
            assert!(mean(queued) > 3.0 * mean("Schemble"), "{task}: {queued} inherits queues");
        }
    }
}

#[test]
fn dp_beats_greedy_edf_across_the_deadline_sweep() {
    let report = scheduler::run(SCALE);
    // VC is a known deviation: Greedy+EDF edges the DP there at both scales.
    for (task, fig) in [(TaskKind::TextMatching, "Fig. 12"), (TaskKind::ImageRetrieval, "Fig. 18")]
    {
        let table = find(&report, fig);
        let gaps: Vec<f64> = deadline_sweep(task)
            .iter()
            .map(|deadline| {
                let acc =
                    |scheduler: &str| cell(table, &[&format!("{deadline:.0}"), scheduler], "Acc %");
                acc("DP(δ=0.01)") - acc("Greedy+EDF")
            })
            .collect();
        assert!(gaps.iter().all(|gap| *gap >= 0.0), "{fig}: DP(0.01) − Greedy+EDF = {gaps:?}");
        if task == TaskKind::ImageRetrieval {
            // More slack, more room for scheduling: the gap grows.
            assert!(gaps.windows(2).all(|w| w[0] < w[1]), "{fig}: gaps {gaps:?} must grow");
        }
    }
}

#[test]
fn schemble_sheds_models_in_the_burst_segments() {
    let report = segments::run(SCALE);
    let per_segment = models_per_segment(&report);
    assert_eq!(per_segment.len(), 6);
    let (burst, calm) = ([2, 3], [0, 1, 5]);
    for b in burst {
        for c in calm {
            assert!(
                per_segment[b] + 0.4 < per_segment[c],
                "segment {b} ({}) must shed against segment {c} ({})",
                per_segment[b],
                per_segment[c]
            );
        }
    }
}

/// Fig. 9's adaptivity line: Schemble's mean models/query per 4-hour segment.
fn models_per_segment(report: &Report) -> Vec<f64> {
    let line =
        report.text.lines().find(|l| l.contains("models/query per segment:")).expect("printed");
    let numbers = line.split_once(':').expect("colon").1.split("  (").next().expect("numbers");
    numbers.split_whitespace().map(|n| n.parse().expect("a number")).collect()
}
