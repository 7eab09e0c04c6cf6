//! The Schemble benchmark.
//!
//! ```text
//! schemble-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of standard output is the
//!     result as one JSON object
//! schemble-benchmark [--seed <n>] [--seconds <s>]
//!     every workload, untraced and traced, each in a process of its own;
//!     prints every metric and writes <out-dir>/results.json
//! schemble-benchmark --repeat-check [--seed <n>] [--seconds <s>]
//!     the whole set twice; fails if two medians of one end-to-end metric
//!     disagree by more than the metric's bound
//! ```
//!
//! `--quick` shrinks every workload about fifty-fold (a smoke test; its
//! numbers mean nothing) and `--out-dir` says where the span dumps and
//! detailed results go (default `benchmark/out`). See `README.md`.

mod catalog;
mod json;
mod layers;
mod ledger;
mod pass;
mod procfs;
mod run;
mod scenario;
mod spans;
mod stats;
mod suite;
mod timed;

use run::RunArgs;
use std::path::PathBuf;
use std::process::ExitCode;

/// The seed runs use unless told otherwise. Seed 7 is the hold-out: a
/// change that claims a gain must show it on both.
const DEFAULT_SEED: u64 = 42;

/// Matches `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repeat_check: bool,
    out_dir: PathBuf,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        repeat_check: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                cli.seed = v.parse().map_err(|_| format!("--seed: `{v}` is not a whole number"))?;
            }
            "--seconds" => {
                let v = value()?;
                cli.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("--seconds: `{v}` is not a duration in (0, 3600]"))?;
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is neither 0 nor 1")),
                };
            }
            "--out-dir" => cli.out_dir = PathBuf::from(value()?),
            "--quick" => cli.quick = true,
            "--repeat-check" => cli.repeat_check = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.repeat_check && cli.workload.is_some() {
        return Err("--repeat-check runs every workload; drop --workload".into());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n\nusage: schemble-benchmark [--workload <name>] [--seed <n>] \
                       [--seconds <s>] [--trace <0|1>] [--quick] [--repeat-check] [--out-dir <dir>]\n\
                       workloads: {}", scenario::WORKLOAD_NAMES.join(", "));
            return ExitCode::from(2);
        }
    };
    let ok = match &cli.workload {
        Some(workload) => {
            let args = RunArgs {
                workload: workload.clone(),
                seed: cli.seed,
                seconds: cli.seconds,
                trace: cli.trace,
                quick: cli.quick,
                out_dir: cli.out_dir.clone(),
            };
            match run::run(&args) {
                Ok(finished) => {
                    print!("{}", finished.report);
                    println!("{}", finished.result.to_json_line());
                    finished.result.correct && finished.result.failed == 0
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        None => {
            let options = suite::SuiteOptions {
                seed: cli.seed,
                seconds: cli.seconds,
                quick: cli.quick,
                out_dir: cli.out_dir.clone(),
            };
            let outcome = if cli.repeat_check {
                suite::repeat_check(&options)
            } else {
                suite::run_set(&options, &options.out_dir).map(|set| set.ok)
            };
            match outcome {
                Ok(ok) => ok,
                Err(e) => {
                    eprintln!("error: {e}");
                    false
                }
            }
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{END_TO_END, PER_LAYER};
    use crate::scenario::WORKLOAD_NAMES;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let c = cli(&[
            "--workload",
            "c8_poisson_dark",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload.as_deref(), Some("c8_poisson_dark"));
        assert_eq!((c.seed, c.seconds, c.trace), (7, 10.0, true));
        let d = cli(&[]).unwrap();
        assert_eq!((d.seed, d.seconds, d.trace, d.workload), (42, 20.0, false, None));
    }

    #[test]
    fn bad_command_lines_are_errors_not_panics() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--seed", "-1"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--seconds", "1e9"],
            &["--trace", "2"],
            &["--frobnicate"],
            &["--repeat-check", "--workload", "c8_poisson_dark"],
        ] {
            assert!(cli(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// Every workload at a fiftieth of its size, untraced and traced: the
    /// gates hold, both wrappers record spans, and each run reports exactly
    /// the catalogue's metrics.
    #[test]
    fn quick_smoke_runs_all_four_workloads_through_both_modes() {
        let out_dir =
            std::env::temp_dir().join(format!("schemble-benchmark-test-{}", std::process::id()));
        for workload in WORKLOAD_NAMES {
            for trace in [false, true] {
                let args = RunArgs {
                    workload: workload.to_string(),
                    seed: 42,
                    seconds: 10.0,
                    trace,
                    quick: true,
                    out_dir: out_dir.clone(),
                };
                let finished = run::run(&args).expect("a known workload");
                let result = &finished.result;
                assert!(result.correct, "{workload} trace {trace}:\n{}", finished.report);
                assert_eq!(result.failed, 0);
                assert!(result.attempted >= 40);
                let names: Vec<&str> = result.metrics.iter().map(|m| m.name).collect();
                if trace {
                    assert_eq!(names, PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
                    let value =
                        |name: &str| result.metrics.iter().find(|m| m.name == name).unwrap().value;
                    assert!(value("core.scheduler.plans") > 0.0, "{workload}: TimedScheduler idle");
                    let sharded = workload == "tm3_skew_observed";
                    assert_eq!(value("core.engine.handle_calls") > 0.0, !sharded, "{workload}");
                    let wall = workload == "tm3_poisson_wall_x10";
                    assert_eq!(value("serve.backend.calls") > 0.0, wall, "{workload}");
                    assert_eq!(value("serve.runtime.arrival_lag_max_us") > 0.0, wall, "{workload}");
                    assert_eq!(value("core.backend.calls") > 0.0, !wall && !sharded, "{workload}");
                    assert_eq!(value("trace.sink.events") > 0.0, sharded, "{workload}");
                    assert!(run::detail_path(&out_dir, workload, true).exists());
                    assert!(out_dir.join(format!("{workload}.spans.json")).exists());
                } else {
                    assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
                    assert!(result.metrics.iter().all(|m| m.value > 0.0), "{}", finished.report);
                }
                let line = result.to_json_line();
                let parsed = json::parse_result_line(&line).expect("the result line parses");
                assert_eq!(parsed.metrics.len(), result.metrics.len());
            }
        }
        let _ = std::fs::remove_dir_all(&out_dir);
    }
}
