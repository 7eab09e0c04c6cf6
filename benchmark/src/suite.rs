//! The whole set: every workload, untraced and traced, each in a fresh
//! process, and the same set twice for the repeat check.

use crate::catalog::{Better, END_TO_END, PER_LAYER};
use crate::json::{escape, number, parse_result_line, ParsedResult};
use crate::run::{cores, detail_path};
use crate::scenario::{Scenario, Size, WORKLOAD_NAMES};
use schemble_serve::ClockMode;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SuiteOptions {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub out_dir: PathBuf,
}

/// One workload's two results.
pub struct WorkloadResults {
    pub name: &'static str,
    pub end_to_end: ParsedResult,
    pub per_layer: ParsedResult,
}

/// One complete set of runs.
pub struct SetResults {
    /// Every run exited cleanly, passed its gate and lost no query.
    pub ok: bool,
    pub workloads: Vec<WorkloadResults>,
}

/// Runs one workload in a child process, echoing its report, and reads its
/// result line back.
fn run_child(
    options: &SuiteOptions,
    out_dir: &Path,
    workload: &str,
    trace: bool,
) -> Result<(ParsedResult, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &number(options.seconds)])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(out_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if options.quick {
        command.arg("--quick");
    }
    // `output` waits for the child to exit, so no process outlives the set.
    let output = command.output().map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, line) = match stdout.trim_end().rsplit_once('\n') {
        Some((report, line)) => (report, line),
        None => ("", stdout.trim_end()),
    };
    println!("{report}");
    let parsed = parse_result_line(line)
        .map_err(|e| format!("{workload} --trace {}: no result line ({e})", u8::from(trace)))?;
    Ok((parsed, output.status.success()))
}

/// Runs every workload untraced then traced, with `out_dir` for their
/// files, and writes `<out_dir>/results.json`.
pub fn run_set(options: &SuiteOptions, out_dir: &Path) -> Result<SetResults, String> {
    let started = Instant::now();
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot make {}: {e}", out_dir.display()))?;
    let mut set = SetResults { ok: true, workloads: Vec::new() };
    for name in WORKLOAD_NAMES {
        let (end_to_end, clean0) = run_child(options, out_dir, name, false)?;
        let (per_layer, clean1) = run_child(options, out_dir, name, true)?;
        for (result, clean, mode) in
            [(&end_to_end, clean0, "untraced"), (&per_layer, clean1, "traced")]
        {
            if !(clean && result.correct && result.failed == 0) {
                println!(
                    "FAILED [{name}] {mode} run: correct {} failed {} of {} clean exit {clean}",
                    result.correct, result.failed, result.attempted
                );
                set.ok = false;
            }
        }
        println!();
        set.workloads.push(WorkloadResults { name, end_to_end, per_layer });
    }
    let path = out_dir.join("results.json");
    std::fs::write(&path, results_json(options, out_dir, &set))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "# {} workloads x 2 runs in {:.1} s; results in {}",
        set.workloads.len(),
        started.elapsed().as_secs_f64(),
        path.display()
    );
    Ok(set)
}

/// Everything one set measured, with each metric's unit, direction and
/// bound, and each run's own detailed result (seed, cores, pass counts,
/// quartiles, tracing overhead) embedded as written.
fn results_json(options: &SuiteOptions, out_dir: &Path, set: &SetResults) -> String {
    let mut out = String::new();
    let cores = cores();
    let _ = write!(
        out,
        "{{\"seed\": {}, \"seconds\": {}, \"quick\": {}, \"cores\": {cores}, \"ok\": {}, \"workloads\": [",
        options.seed,
        number(options.seconds),
        options.quick,
        set.ok
    );
    for (i, w) in set.workloads.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n{{\"name\": \"{}\", \"end_to_end\": {{",
            if i == 0 { "" } else { "," },
            w.name
        );
        for (k, spec) in END_TO_END.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n  \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                if k == 0 { "" } else { "," },
                spec.name,
                number(w.end_to_end.value(spec.name).unwrap_or(0.0)),
                escape(spec.unit),
                spec.better.as_str(),
                number(spec.bound)
            );
        }
        out.push_str("},\n \"per_layer\": {");
        for (k, spec) in PER_LAYER.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n  \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"better\": \"{}\"}}",
                if k == 0 { "" } else { "," },
                spec.name,
                number(w.per_layer.value(spec.name).unwrap_or(0.0)),
                escape(spec.unit),
                spec.better.as_str()
            );
        }
        out.push_str("},\n \"runs\": [");
        for (k, trace) in [false, true].into_iter().enumerate() {
            let detail = std::fs::read_to_string(detail_path(out_dir, w.name, trace));
            let _ = write!(
                out,
                "{}{}",
                if k == 0 { "" } else { "," },
                detail.as_deref().unwrap_or("null").trim_end()
            );
        }
        out.push_str("]}");
    }
    out.push_str("\n]}\n");
    out
}

/// By how much `second` is worse than `first`, as a share of `first`
/// (negative when it is better).
pub fn worsening(better: Better, first: f64, second: f64) -> f64 {
    let delta = match better {
        Better::Lower => second - first,
        Better::Higher => first - second,
    };
    delta / first.abs()
}

/// Runs the whole set twice with the same seed and compares the two: every
/// end-to-end metric must agree within its bound, and on the virtual-clock
/// workloads everything the clock decides — deadlines met, accuracy,
/// latencies, every count — must agree exactly.
pub fn repeat_check(options: &SuiteOptions) -> Result<bool, String> {
    let first = run_set(options, &options.out_dir.join("repeat-1"))?;
    let second = run_set(options, &options.out_dir.join("repeat-2"))?;
    let mut ok = first.ok && second.ok;
    println!("\n# repeat check, seed {}: first set, second set, difference, bound", options.seed);
    for (a, b) in first.workloads.iter().zip(&second.workloads) {
        let size = Size { seconds: options.seconds, quick: options.quick };
        let virtual_clock =
            Scenario::named(a.name, size).is_some_and(|s| s.clock == ClockMode::Virtual);
        println!("## {}", a.name);
        for spec in &END_TO_END {
            let (Some(x), Some(y)) = (a.end_to_end.value(spec.name), b.end_to_end.value(spec.name))
            else {
                return Err(format!("{}: {} missing from a result", a.name, spec.name));
            };
            let apart = worsening(spec.better, x, y).abs();
            let exact = virtual_clock
                && matches!(
                    spec.name,
                    "ontime_pct" | "accuracy_pct" | "latency_p50_ms" | "latency_p99_ms"
                );
            let agree = if exact { x == y } else { apart <= spec.bound };
            println!(
                "{:<20} {:>16.4} {:>16.4} {:>8.2}% {:>8} {}",
                spec.name,
                x,
                y,
                100.0 * apart,
                if exact { "exact".to_string() } else { format!("{:.0}%", 100.0 * spec.bound) },
                if agree { "" } else { "DISAGREE" }
            );
            ok &= agree;
        }
        if virtual_clock {
            for spec in PER_LAYER.iter().filter(|s| s.unit == "count") {
                let (x, y) = (a.per_layer.value(spec.name), b.per_layer.value(spec.name));
                if x != y {
                    println!(
                        "{:<38} {:?} vs {:?} DISAGREE (a count on the virtual clock)",
                        spec.name, x, y
                    );
                    ok = false;
                }
            }
        }
    }
    println!("# repeat check {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metrics_direction() {
        assert!((worsening(Better::Lower, 100.0, 105.0) - 0.05).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 95.0) + 0.05).abs() < 1e-12);
        assert!((worsening(Better::Higher, 200.0, 190.0) - 0.05).abs() < 1e-12);
        assert!((worsening(Better::Higher, 200.0, 210.0) + 0.05).abs() < 1e-12);
    }
}
