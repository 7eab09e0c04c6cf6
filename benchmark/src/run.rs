//! One run of one workload: set up, measure, check, report.
//!
//! `--trace 0` measures the end-to-end metrics over untraced passes;
//! `--trace 1` makes one traced pass and reports where its time went. Both
//! end in the same correctness gate and the same one-line result.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::json::{escape, number, Metric, RunResult};
use crate::layers::LayerCosts;
use crate::ledger::{self, Reps};
use crate::pass::{run_pass, Pass, PassOptions};
use crate::procfs::peak_rss_mb;
use crate::scenario::{Scenario, Setup, Size};
use crate::spans::{spans_json, Recorder};
use crate::stats::{quantile_sorted, sorted, supports_quantile, PassStat};
use crate::timed::TimedScheduler;
use schemble_core::scheduler::DpScheduler;
use schemble_serve::ClockMode;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// At most this many spans go into the span dump (the first to end); the
/// per-layer metrics are always summed over all of them.
const SPAN_DUMP_LIMIT: usize = 200_000;

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Where the span dump and the detailed result go.
    pub out_dir: PathBuf,
}

/// A finished run: the contract's result plus the human-readable report.
pub struct Finished {
    pub result: RunResult,
    /// One line per metric, then one per failed check.
    pub report: String,
}

/// Runs `args.workload` once. `Err` is a usage error; a failed correctness
/// check comes back as `Ok` with `result.correct == false`.
pub fn run(args: &RunArgs) -> Result<Finished, String> {
    let size = Size { seconds: args.seconds, quick: args.quick };
    let scenario = Scenario::named(&args.workload, size)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let mut gate = Gate::default();
    let mut detail = String::new();
    let (attempted, failed, metrics) = if args.trace {
        per_layer_run(scenario, args, &mut gate, &mut detail)
    } else {
        end_to_end_run(scenario, args, &mut gate, &mut detail)
    };

    let mut report = format!(
        "# workload {} seed {} seconds {} trace {} cores {}{}\n",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cores(),
        if args.quick { " QUICK (numbers mean nothing)" } else { "" }
    );
    report.push_str(&detail);
    for failure in &gate.failures {
        let _ = writeln!(report, "GATE FAILED [{}] {failure}", args.workload);
    }
    let result = RunResult { correct: gate.failures.is_empty(), attempted, failed, metrics };
    write_detail(args, &result, &report);
    Ok(Finished { result, report })
}

/// Cores this process may run on; stored with every result.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Failed checks, as text.
#[derive(Default)]
struct Gate {
    failures: Vec<String>,
}

impl Gate {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Checks every pass must pass on its own.
    fn pass(&mut self, label: &str, pass: &Pass, observed: bool) {
        self.check(pass.lost() == 0, || format!("{label}: {} queries lost", pass.lost()));
        self.check(pass.stats.open() == 0, || format!("{label}: {} left open", pass.stats.open()));
        self.check(pass.stats.submitted == pass.queries as u64, || {
            format!("{label}: {} of {} queries submitted", pass.stats.submitted, pass.queries)
        });
        for fault in &pass.record_faults {
            self.check(false, || format!("{label}: {fault}"));
        }
        self.check(pass.answered > 0, || format!("{label}: no query was answered"));
        let sunk = pass.telemetry.as_ref().map_or((0, 0), |t| (t.events, t.dropped));
        if observed {
            self.check(sunk.1 == 0, || format!("{label}: sink dropped {} events", sunk.1));
            self.check(sunk.0 >= 15 * pass.queries, || {
                format!("{label}: only {} events for {} queries", sunk.0, pass.queries)
            });
        } else {
            self.check(sunk.0 == 0, || format!("{label}: dark workload emitted {} events", sunk.0));
        }
    }

    /// On the virtual clock a replay is a pure function of its inputs:
    /// every pass must decide, plan and emit exactly what the first did.
    fn same_decisions(&mut self, label: &str, first: &Pass, other: &Pass) {
        self.check(other.record_hash == first.record_hash, || {
            format!("{label}: records differ from the first pass")
        });
        self.check((other.plans, other.work_units) == (first.plans, first.work_units), || {
            format!(
                "{label}: {} plans / {} work units, first pass {} / {}",
                other.plans, other.work_units, first.plans, first.work_units
            )
        });
        let events = |p: &Pass| p.telemetry.as_ref().map_or(0, |t| t.events);
        self.check(events(other) == events(first), || {
            format!("{label}: {} events, first pass {}", events(other), events(first))
        });
    }
}

fn metric_line(out: &mut String, name: &str, value: f64, unit: &str, note: &str) {
    let _ = writeln!(out, "{name:<38} {:>16} {unit:<6} {note}", format!("{value:.4}"));
}

/// `--trace 0`: set up [`SETUP_REPEATS`] times, replay untraced passes for
/// `--seconds`, report medians over the passes.
fn end_to_end_run(
    scenario: Scenario,
    args: &RunArgs,
    gate: &mut Gate,
    detail: &mut String,
) -> (u64, u64, Vec<Metric>) {
    let virtual_clock = scenario.clock == ClockMode::Virtual;
    let observed = scenario.observed;
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..if args.quick { 1 } else { SETUP_REPEATS } {
        drop(built.take());
        let started = Instant::now();
        let setup = Setup::build(scenario.clone(), args.seed);
        let pipeline = setup.pipeline(Box::new(DpScheduler::default()));
        let warmup = run_pass(&setup, &pipeline, &setup.warmup, PassOptions::default());
        setup_s.push(started.elapsed().as_secs_f64());
        gate.pass("warm-up", &warmup, observed);
        built = Some((setup, pipeline));
    }
    let (setup, pipeline) = built.expect("at least one set-up");

    let mut passes: Vec<Pass> = Vec::new();
    let started = Instant::now();
    loop {
        let pass = run_pass(&setup, &pipeline, &setup.workload, PassOptions::default());
        let label = format!("pass {}", passes.len() + 1);
        gate.pass(&label, &pass, observed);
        if let (true, Some(first)) = (virtual_clock, passes.first()) {
            gate.same_decisions(&label, first, &pass);
        }
        let last_s = pass.wall_s;
        passes.push(pass);
        // Stop once another pass would overshoot `--seconds` by more than
        // it undershoots now. A quick run makes exactly two passes, enough
        // to compare their decisions.
        let elapsed = started.elapsed().as_secs_f64();
        let enough =
            if args.quick { passes.len() >= 2 } else { elapsed + last_s / 2.0 >= args.seconds };
        if enough {
            break;
        }
    }
    let answered = passes.iter().map(|p| p.answered).min().unwrap_or(0);
    if !args.quick {
        gate.check(supports_quantile(answered, 0.99), || {
            format!("p99 needs ten samples beyond it; a pass answered only {answered}")
        });
    }

    let over = |f: &dyn Fn(&Pass) -> f64| PassStat::of(&passes.iter().map(f).collect::<Vec<_>>());
    let values: [(&str, PassStat, &str); 8] = [
        ("setup_s", PassStat::of(&setup_s), "set-ups"),
        ("replay_qps", over(&|p| p.replay_qps()), "passes"),
        ("cpu_us_per_query", over(&|p| p.cpu_us_per_query()), "passes"),
        ("ontime_pct", over(&|p| p.ontime_pct()), "passes"),
        ("accuracy_pct", over(&|p| p.accuracy_pct()), "passes"),
        ("latency_p50_ms", over(&|p| p.latency_p50_ms), "passes"),
        ("latency_p99_ms", over(&|p| p.latency_p99_ms), "passes"),
        ("peak_rss_mb", PassStat::of(&[peak_rss_mb()]), "process"),
    ];
    let _ = writeln!(
        detail,
        "# passes {} queries/pass {} answered/pass {} shards {} plans/pass {} work_units/pass {}",
        passes.len(),
        scenario.queries,
        answered,
        scenario.shards(),
        passes[0].plans,
        passes[0].work_units
    );
    let walls: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
    let _ = writeln!(detail, "# pass wall seconds: {}", walls.join(" "));
    let mut metrics = Vec::with_capacity(END_TO_END.len());
    for (spec, (name, stat, over_what)) in END_TO_END.iter().zip(values) {
        assert_eq!(spec.name, name, "end-to-end values are listed in catalogue order");
        let note = format!("q1 {:.4} q3 {:.4} over {} {over_what}", stat.q1, stat.q3, stat.n);
        metric_line(detail, spec.name, stat.median, spec.unit, &note);
        metrics.push(Metric { name: spec.name, value: stat.median, unit: spec.unit });
    }
    let attempted = passes.iter().map(|p| p.queries as u64).sum();
    let failed = passes.iter().map(Pass::lost).sum();
    (attempted, failed, metrics)
}

/// `--trace 1`: one untraced and one traced pass, the ledger, and the
/// extra passes two workloads need for their comparisons.
fn per_layer_run(
    scenario: Scenario,
    args: &RunArgs,
    gate: &mut Gate,
    detail: &mut String,
) -> (u64, u64, Vec<Metric>) {
    let virtual_clock = scenario.clock == ClockMode::Virtual;
    let wall_clock = !virtual_clock;
    let observed = scenario.observed;
    let single_shard = scenario.shards() == 1;
    let reps = if args.quick { Reps::QUICK } else { Reps::FULL };
    let setup = Setup::build(scenario.clone(), args.seed);
    let plain = setup.pipeline(Box::new(DpScheduler::default()));
    let warmup = run_pass(&setup, &plain, &setup.warmup, PassOptions::default());
    gate.pass("warm-up", &warmup, observed);

    let untraced = run_pass(&setup, &plain, &setup.workload, PassOptions::default());
    gate.pass("untraced pass", &untraced, observed);

    // Room for every span up front (8 to 13 a query were seen), so the
    // buffer never grows, and never moves, while the pass is being timed.
    let recorder = Arc::new(Recorder::with_capacity(16 * scenario.queries + 1024));
    let wrapped = setup.pipeline(Box::new(TimedScheduler::new(
        Box::new(DpScheduler::default()),
        Arc::clone(&recorder),
    )));
    let options =
        PassOptions { recorder: Some(&recorder), keep_events: true, ..Default::default() };
    let mut traced = run_pass(&setup, &wrapped, &setup.workload, options);
    gate.pass("traced pass", &traced, observed);
    if virtual_clock {
        // The wrappers forward every call unchanged, so tracing must not
        // change a single decision.
        gate.same_decisions("traced pass", &untraced, &traced);
    }
    let spans = recorder.take();
    let costs = LayerCosts::from_spans(&spans);
    write_out(args, "spans.json", &spans_json(scenario.name, &spans, SPAN_DUMP_LIMIT));
    let _ = writeln!(
        detail,
        "# traced pass {:.4} s, untraced {:.4} s, {} spans ({} in the dump)",
        traced.wall_s,
        untraced.wall_s,
        spans.len(),
        spans.len().min(SPAN_DUMP_LIMIT)
    );
    drop(spans);
    gate.check(costs.plans == traced.plans && costs.work_units == traced.work_units, || {
        format!(
            "plan spans saw {} plans / {} units, the program's own profile {} / {}",
            costs.plans, costs.work_units, traced.plans, traced.work_units
        )
    });
    if single_shard {
        gate.check(costs.handle_calls > 0, || "no handle span was recorded".to_string());
        let gap = (costs.parts_s() - traced.wall_s).abs() / traced.wall_s;
        gate.check(gap <= 0.02, || {
            format!("layer parts sum to {:.4} s of a {:.4} s pass", costs.parts_s(), traced.wall_s)
        });
    }

    // Tracing overhead: wall time where the pass is CPU-bound, CPU time
    // where its wall time is pinned by the trace.
    let overhead_pct = if wall_clock {
        100.0 * (traced.cpu_s - untraced.cpu_s) / untraced.cpu_s
    } else {
        100.0 * (traced.wall_s - untraced.wall_s) / untraced.wall_s
    };

    let mut attempted = (untraced.queries + traced.queries) as u64;
    let mut failed = untraced.lost() + traced.lost();
    let mut extra = |pass: &Pass, label: &str, gate: &mut Gate| {
        gate.pass(label, pass, observed);
        attempted += pass.queries as u64;
        failed += pass.lost();
    };

    // The wall-clock workload replayed once on the virtual clock: what the
    // same decisions achieve when nothing runs late.
    let ontime_gap_pp = if wall_clock {
        let options = PassOptions { virtual_clock: true, ..Default::default() };
        let ideal = run_pass(&setup, &plain, &setup.workload, options);
        extra(&ideal, "virtual replay", gate);
        ideal.ontime_pct() - traced.ontime_pct()
    } else {
        0.0
    };
    // The sharded workload replayed once on one shard: S=2 over S=1.
    let scaling_s2 = if single_shard {
        0.0
    } else {
        let options = PassOptions { one_shard: true, ..Default::default() };
        let one = run_pass(&setup, &plain, &setup.workload, options);
        extra(&one, "one-shard pass", gate);
        let _ = writeln!(
            detail,
            "# serve.shard.scaling_s2 = {:.1} q/s on 2 shards / {:.1} q/s on 1 shard",
            untraced.replay_qps(),
            one.replay_qps()
        );
        untraced.replay_qps() / one.replay_qps()
    };

    let (score_rows, score_us_per_row) = ledger::score_rows(&setup);
    let (sleep_p50, sleep_p99, trip_p50, trip_p99) = if wall_clock {
        let (s50, s99) = ledger::sleep_overshoot_us(reps.sleeps);
        let (t50, t99) = ledger::worker_roundtrip_us(reps.roundtrips);
        (s50, s99, t50, t99)
    } else {
        (0.0, 0.0, 0.0, 0.0)
    };
    let telemetry = traced.telemetry.take().unwrap_or_default();
    let executors = scenario.shards() * setup.ensemble.m();
    let (emit_ns, chrome_ms, merge_ms, steal_round_us) = if observed {
        (
            ledger::emit_ns(&telemetry.captured),
            ledger::chrome_ms(&telemetry.captured, executors),
            ledger::shard_merge_ms(&telemetry.captured, scenario.queries),
            ledger::steal_round_us(reps.steal_rounds),
        )
    } else {
        (0.0, 0.0, 0.0, 0.0)
    };
    // One rendezvous per epoch boundary the run crossed.
    let steal_rounds =
        scenario.steal_epoch().map_or(0.0, |epoch| (traced.sim_s / epoch.as_secs_f64()).floor());

    let lags = sorted(&traced.arrival_lag_us);
    let lag = |q: f64| if lags.is_empty() { 0.0 } else { quantile_sorted(&lags, q) };
    // Span-derived costs are attributed to the layer that ran: the engine
    // and scheduler always; the DES backend and its driver on the virtual
    // clock, the threaded backend and the scheduler loop on the wall clock.
    let on = |cond: bool, v: f64| if cond { v } else { 0.0 };
    let sim_backend = single_shard && virtual_clock;
    let q = traced.queries as f64;
    let values: [(&str, f64); 50] = [
        ("core.predictor.score_rows", score_rows as f64),
        ("core.predictor.score_us_per_row", score_us_per_row),
        ("core.scheduler.plans", costs.plans as f64),
        ("core.scheduler.work_units", costs.work_units as f64),
        ("core.scheduler.buffer_n_mean", costs.buffer_n_mean),
        ("core.scheduler.buffer_n_max", costs.buffer_n_max as f64),
        ("core.scheduler.plan_busy_s", costs.plan_busy_s),
        ("core.scheduler.plan_p50_us", costs.plan_p50_us),
        ("core.scheduler.plan_p99_us", costs.plan_p99_us),
        ("core.scheduler.plan_share_pct", costs.plan_share_pct()),
        ("core.engine.handle_calls", costs.handle_calls as f64),
        ("core.engine.handle_busy_s", costs.handle_busy_s),
        ("core.engine.self_s", costs.engine_self_s),
        ("core.engine.self_us_per_query", 1e6 * costs.engine_self_s / q),
        ("core.engine.models_per_query", traced.models_per_query),
        ("core.engine.tasks_saved", traced.stats.tasks_saved as f64),
        ("core.engine.tasks_retried", traced.stats.tasks_retried as f64),
        ("core.backend.calls", on(sim_backend, costs.backend_calls as f64)),
        ("core.backend.busy_s", on(sim_backend, costs.backend_busy_s)),
        ("core.backend.driver_other_s", on(sim_backend, costs.run_self_s)),
        ("serve.runtime.arrival_lag_p50_us", lag(0.50)),
        ("serve.runtime.arrival_lag_p99_us", lag(0.99)),
        ("serve.runtime.arrival_lag_max_us", lag(1.0)),
        ("serve.runtime.handle_busy_s", on(wall_clock, costs.handle_busy_s)),
        ("serve.runtime.cpu_s", on(wall_clock, traced.cpu_s)),
        ("serve.runtime.ontime_gap_pp", ontime_gap_pp),
        ("serve.backend.calls", on(wall_clock, costs.backend_calls as f64)),
        ("serve.backend.busy_s", on(wall_clock, costs.backend_busy_s)),
        ("serve.clock.sleep_overshoot_p50_us", sleep_p50),
        ("serve.clock.sleep_overshoot_p99_us", sleep_p99),
        ("serve.worker.roundtrip_p50_us", trip_p50),
        ("serve.worker.roundtrip_p99_us", trip_p99),
        ("trace.sink.events", telemetry.events as f64),
        ("trace.sink.events_per_query", telemetry.events as f64 / q),
        ("trace.sink.dropped", telemetry.dropped as f64),
        ("trace.sink.emit_ns", emit_ns),
        ("trace.export.prometheus_ms", telemetry.prometheus_ms),
        ("trace.export.audit_ms", telemetry.audit_ms),
        ("trace.export.chrome_ms", chrome_ms),
        ("trace.export.bytes", telemetry.bytes as f64),
        ("obs.fold_ms", telemetry.fold_ms),
        ("obs.export_ms", telemetry.obs_export_ms),
        ("serve.shard.merge_ms", merge_ms),
        ("serve.shard.scaling_s2", scaling_s2),
        ("serve.steal.queries_stolen", traced.stats.stolen_in as f64),
        ("serve.steal.rounds", steal_rounds),
        ("serve.steal.round_us", steal_round_us),
        ("core.artifacts.build_s", setup.timings.artifacts_s),
        ("data.workload_gen_s", setup.timings.workload_gen_s),
        ("bench.trace_overhead_pct", overhead_pct),
    ];
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for (spec, (name, value)) in PER_LAYER.iter().zip(values) {
        assert_eq!(spec.name, name, "per-layer values are listed in catalogue order");
        metric_line(detail, spec.name, value, spec.unit, "");
        metrics.push(Metric { name: spec.name, value, unit: spec.unit });
    }
    (attempted, failed, metrics)
}

/// Writes `<out_dir>/<workload>.<suffix>`; failing to is reported, not
/// fatal — the result line is what counts.
fn write_out(args: &RunArgs, suffix: &str, contents: &str) {
    let path = args.out_dir.join(format!("{}.{suffix}", args.workload));
    let written =
        std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, contents));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Suffix of the detailed result a run writes.
fn detail_suffix(trace: bool) -> String {
    format!("trace{}.json", u8::from(trace))
}

/// The detailed result of this run, as JSON: everything in the result line
/// plus what was run and on what.
fn write_detail(args: &RunArgs, result: &RunResult, report: &str) {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"quick\": {}, \
         \"cores\": {}, \"result\": {}, \"report\": [",
        escape(&args.workload),
        args.seed,
        number(args.seconds),
        u8::from(args.trace),
        args.quick,
        cores(),
        result.to_json_line()
    );
    for (i, line) in report.lines().enumerate() {
        let _ = write!(out, "{}\n  \"{}\"", if i == 0 { "" } else { "," }, escape(line));
    }
    out.push_str("\n]}\n");
    write_out(args, &detail_suffix(args.trace), &out);
}

/// Path of the detailed result a run of `workload` writes.
pub fn detail_path(out_dir: &Path, workload: &str, trace: bool) -> PathBuf {
    out_dir.join(format!("{workload}.{}", detail_suffix(trace)))
}
