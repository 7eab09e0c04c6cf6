//! The `schemble` command-line front end. [`flags`] holds the flag spec
//! ([`METHODS`], the method table, is shared with the `exp` driver and lives
//! in `schemble-baselines`); a `Session` is one parsed command line with
//! its context, workload and sink. Every subcommand that executes a pipeline
//! assembles it in `Session::pipeline` and runs it through
//! `Session::serve` — on the virtual clock for the deterministic replays
//! (`run`, `compare`, `explain`, `loadtest`'s reference) — and `run`, `serve`
//! and `loadtest` end in `Session::finish`.

pub mod flags;

pub use crate::baselines::{Method, METHODS};
pub use flags::{parse, usage, Cli, Command, FLAGS};

use crate::core::engine::{AnytimePolicy, FailurePolicy};
use crate::core::experiment::{
    default_rate, ExperimentConfig, ExperimentContext, Pipeline, Traffic,
};
use crate::core::pipeline::{AdmissionMode, ResultAssembler};
use crate::data::Workload;
use crate::metrics::{write_csv, QueryOutcome, RunSummary};
use crate::obs::{explain_query, FlightRecorder, ObsConfig, ObsState};
use crate::serve::{serve_immediate, serve_schemble, ClockMode, ServeConfig, ServeReport};
use crate::sim::{BatchConfig, FaultPlan, SimDuration};
use crate::trace::{audit_ndjson, chrome_trace_named, prometheus_text, TraceEvent, TraceSink};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Duration;

fn print_summary(label: &str, s: &RunSummary) {
    println!(
        "{label:<16} acc {:>5.1}%  dmr {:>5.1}%  mean-lat {:>7.3}s  p95 {:>7.3}s  models/query {:.2}",
        100.0 * s.accuracy(),
        100.0 * s.deadline_miss_rate(),
        s.latency_stats().mean,
        s.latency_stats().p95,
        s.mean_models_used()
    );
}

fn print_report(method: &str, report: &ServeReport, mode: ClockMode) {
    print_summary(method, &report.summary);
    let s = &report.stats;
    println!(
        "  runtime [{}]: {} submitted = {} completed + {} degraded + {} rejected + {} expired",
        if mode == ClockMode::Virtual { "virtual clock" } else { "wall clock" },
        s.submitted,
        s.completed,
        s.degraded,
        s.rejected,
        s.expired,
    );
    if s.tasks_failed > 0 || s.degraded > 0 {
        println!(
            "  faults: {} task failures, {} retried, {} degraded answers",
            s.tasks_failed, s.tasks_retried, s.degraded
        );
    }
    if s.tasks_saved > 0 {
        println!("  anytime: {} planned tasks quit early (work saved)", s.tasks_saved);
    }
    println!(
        "  {:.1}s of simulated traffic in {:.2}s wall ({:.1}x); {}",
        report.sim_secs,
        report.wall_secs,
        report.sim_secs / report.wall_secs.max(1e-9),
        report.metrics.snapshot(report.sim_secs).brief()
    );
}

fn write(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("writing {path}: {e}"))
}

/// One parsed command line and the state every subcommand works on.
struct Session {
    cli: Cli,
    ctx: ExperimentContext,
    workload: Workload,
    /// Emission is armed only when an export was requested (`explain` always
    /// needs the events); the planning self-profile records either way.
    /// Tracing never changes a scheduling decision.
    sink: Arc<TraceSink>,
    /// Armed by `--flight-recorder` as a sink tap, so every emitted event
    /// lands in its bounded ring even with all exports off.
    recorder: Option<Arc<FlightRecorder>>,
}

impl Session {
    fn new(command: Command, cli: Cli) -> Self {
        let mut config = ExperimentConfig::paper_default(cli.task, cli.seed);
        config.n_queries = cli.queries;
        config.traffic = if cli.diurnal {
            Traffic::Diurnal { day_secs: cli.queries as f64 / 15.0 }
        } else {
            Traffic::Poisson { rate_per_sec: cli.rate.unwrap_or(default_rate(cli.task)) }
        };
        if let Some(d) = cli.deadline_ms {
            config = config.with_deadline_millis(d);
        }
        if cli.force_all {
            config.admission = AdmissionMode::ForceAll;
        }
        let ctx = ExperimentContext::new(config);
        // `--skew` re-keys the workload so the hash router concentrates load
        // on few shards, the regime `--steal-epoch-ms` exists for (64 keys is
        // plenty for any realistic shard count). Keys steer only the router.
        let workload = match cli.skew {
            Some(theta) => ctx.workload().with_zipf_keys(64, theta, cli.seed),
            None => ctx.workload(),
        };
        let sink = TraceSink::enabled();
        sink.set_enabled(cli.wants_export() || command == Command::Explain);
        let recorder = cli.flight_recorder.as_ref().map(|_| {
            let recorder = Arc::new(FlightRecorder::new(4096, cli.breach_expired));
            sink.set_tap(Some(recorder.clone()));
            recorder
        });
        Self { cli, ctx, workload, sink, recorder }
    }

    /// Assembles `method`'s pipeline — the one place flags become a
    /// `SchembleConfig`; with none set it is `ExperimentContext::run`'s.
    /// `failure` is the retry policy the fault flags request.
    fn pipeline(&mut self, method: &Method, failure: Option<FailurePolicy>) -> Pipeline {
        let cli = &self.cli;
        let mut pipeline = method.pipeline(&mut self.ctx, &self.workload);
        if let (Pipeline::Schemble(config), true) = (&mut pipeline, method.is_schemble()) {
            config.fast_path = cli.fast_path;
            let quit_at = AnytimePolicy::default().confidence_threshold;
            let confidence_threshold = cli.confidence_threshold.unwrap_or(quit_at);
            config.anytime = cli.anytime.then_some(AnytimePolicy { confidence_threshold });
            // `--batch-max 1` normalises to `None` — byte-identical to no flag.
            config.batching = cli.batch_max.and_then(|batch_max| {
                let window = SimDuration::from_millis_f64(cli.batch_window_ms.unwrap_or(2.0));
                Some(BatchConfig::new(batch_max, window)).filter(|b| b.active())
            });
            config.failure = failure;
        }
        pipeline
    }

    /// The fault plan and retry policy the flags request; `(None, None)` is
    /// decision-identical to a build without fault support.
    fn faults(&self) -> Result<(Option<FaultPlan>, Option<FailurePolicy>), String> {
        let cli = &self.cli;
        let read = |path: &String| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            FaultPlan::parse(&text)
        };
        let mut plan = cli.fault_plan.as_ref().map(read).transpose()?;
        if let Some(plan) = &plan {
            // Every bank of the run — one per shard — has one executor per model.
            plan.check_executors(self.ctx.ensemble.m())?;
        }
        if let Some(q) = cli.task_timeout_q {
            plan.get_or_insert_with(FaultPlan::default).timeout_quantile = Some(q);
        }
        let policy = FailurePolicy::default();
        let max_retries = cli.max_retries.unwrap_or(policy.max_retries);
        let armed = plan.is_some() || cli.max_retries.is_some();
        Ok((plan, armed.then_some(FailurePolicy { max_retries, ..policy })))
    }

    /// Runs `method` on the schemble-serve runtime; on [`ClockMode::Virtual`]
    /// that is the deterministic replay of the flags. An `observed` run emits
    /// into the session's sink, feeds its recorder and honours the fault
    /// flags; an unobserved one is a clean reference.
    fn serve(
        &mut self,
        method: &Method,
        mode: ClockMode,
        observed: bool,
    ) -> Result<ServeReport, String> {
        let (faults, failure) = if observed { self.faults()? } else { (None, None) };
        let config = ServeConfig {
            mode,
            report_every: self.cli.report_ms.map(Duration::from_millis),
            trace: observed.then(|| Arc::clone(&self.sink)),
            faults,
            failure,
            shards: self.cli.shards,
            steal_epoch: self.cli.steal_epoch_ms.map(SimDuration::from_millis_f64),
            recorder: self.recorder.clone().filter(|_| observed),
            ..ServeConfig::default()
        };
        let pipeline = self.pipeline(method, failure);
        let (ctx, workload) = (&self.ctx, &self.workload);
        Ok(match pipeline {
            Pipeline::Schemble(pipeline) => {
                serve_schemble(&ctx.ensemble, &pipeline, workload, ctx.config.seed, &config)
            }
            Pipeline::Immediate(deployment, mut policy) => serve_immediate(
                &ctx.ensemble,
                &deployment,
                policy.as_mut(),
                &ResultAssembler::Direct,
                ctx.config.admission,
                workload,
                ctx.config.seed,
                &config,
            ),
        })
    }

    /// Writes the requested exports from one snapshot of the sink; the
    /// metrics exposition renders the report's own counters and elapsed time.
    /// Everything else is a pure fold over the events, so `run` and a
    /// `--virtual-clock` serve of one command line write equal bytes.
    fn export(&mut self, method: &Method, report: &ServeReport) -> Result<(), String> {
        let (cli, sink) = (&self.cli, &self.sink);
        let events = sink.snapshot();
        if sink.dropped() > 0 {
            eprintln!(
                "warning: trace ring dropped {} events; exports are truncated",
                sink.dropped()
            );
        }
        // Metadata thread naming covers every executor that appears in the
        // trace even when the deployment has more instances than base models.
        let executors = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::TaskEnqueue { executor, .. }
                | TraceEvent::TaskStart { executor, .. }
                | TraceEvent::TaskDone { executor, .. } => Some(*executor as usize + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0)
            .max(report.metrics.lock().executors.len());
        if let Some(path) = &cli.trace_out {
            // Sharded runs name tracks by shard: global executor s*m+k is
            // shard s's replica of model k.
            let tracks: Vec<String> = if cli.shards > 1 && executors % cli.shards == 0 {
                let m = executors / cli.shards;
                (0..executors).map(|k| format!("shard-{}/executor-{}", k / m, k % m)).collect()
            } else {
                (0..executors).map(|k| format!("executor-{k}")).collect()
            };
            write(path, &chrome_trace_named(&events, &tracks, method.name))?;
            println!("  wrote Chrome trace ({} events) to {path}", events.len());
        }
        if let Some(path) = &cli.audit_out {
            let log = audit_ndjson(&events);
            println!("  wrote audit log ({} queries) to {path}", log.lines().count());
            write(path, &log)?;
        }
        if let Some(path) = &cli.metrics_out {
            let text = prometheus_text(&report.metrics, report.sim_secs, Some(&sink.planning));
            write(path, &text)?;
            println!("  wrote metrics exposition to {path}");
        }
        if cli.slo_out.is_none() && cli.obs_out.is_none() {
            return Ok(());
        }
        // The calibration detector needs the difficulty-bin layout, which only
        // schemble-family pipelines carry; other methods skip that detector.
        let schemble_family = method.name.starts_with("schemble");
        let bins = if schemble_family { self.ctx.artifacts().profile.bins() } else { 0 };
        let latencies = self.ctx.ensemble.planned_latencies();
        let config = ObsConfig {
            window: SimDuration::from_millis(cli.slo_window_ms),
            bins,
            profiled_latencies_us: latencies.iter().map(|d| d.as_micros()).collect(),
            ..ObsConfig::default()
        };
        let state = ObsState::fold(&config, &events);
        if let Some(path) = &cli.slo_out {
            let text = state.slo_ndjson();
            write(path, &text)?;
            println!("  wrote SLO time-series ({} windows) to {path}", text.lines().count());
        }
        if let Some(path) = &cli.obs_out {
            write(path, &state.prometheus())?;
            println!("  wrote introspection metrics to {path}");
        }
        Ok(())
    }

    /// The tail of `run`, `serve` and `loadtest`: report, the scheduler's
    /// self-profile, `--csv`, the exports, the recorder dump, the wedge check.
    /// An unsharded `run` is the summary view: it prints no runtime block.
    fn finish(
        &mut self,
        command: Command,
        report: &ServeReport,
        mode: ClockMode,
    ) -> Result<(), String> {
        let method = self.cli.method();
        if command == Command::Run && self.cli.shards == 1 {
            print_summary(method.name, &report.summary);
        } else {
            print_report(method.name, report, mode);
        }
        let p = &self.sink.planning;
        if let Some(mean) = p.mean_secs() {
            println!(
                "  scheduler: {} plans, mean {:.1} us, p95 {:.1} us, {} work units planned",
                p.plans.load(Relaxed),
                mean * 1e6,
                p.hist.quantile(0.95).map_or(mean * 1e6, |ns| ns / 1e3),
                p.work_units.load(Relaxed)
            );
        }
        if let (Command::Run, Some(path)) = (command, &self.cli.csv) {
            let summary = &report.summary;
            write_csv(std::path::Path::new(path), summary.records())
                .map_err(|e| format!("writing {path}: {e}"))?;
            println!("wrote {} records to {path}", summary.len());
        }
        if self.cli.wants_export() {
            self.export(method, report)?;
        }
        // An untripped recorder writes nothing: no file is the all-clear.
        if let (Some(rec), Some(path)) = (&self.recorder, &self.cli.flight_recorder) {
            match rec.tripped() {
                Some(reason) => {
                    write(path, &rec.dump_json())?;
                    println!(
                        "  flight recorder tripped ({}): wrote {} events to {path}",
                        reason.as_str(),
                        rec.events().len()
                    );
                }
                None => println!("  flight recorder armed, never tripped; nothing written"),
            }
        }
        // Every admitted query must end completed, degraded, rejected or
        // expired, faults or not (the CI gauntlets rely on the non-zero exit).
        match report.stats.open() {
            0 => Ok(()),
            open => Err(format!("{open} queries left open at shutdown (wedged)")),
        }
    }

    /// Cross-checks a `loadtest` run against the fault-free deterministic
    /// replay of the same flags (shard engines included: an unsharded replay
    /// has fewer executors and is not comparable). Under `--virtual-clock`
    /// the counts must coincide; on the wall clock small drift is expected;
    /// under faults the gap to the clean reference IS the measurement.
    fn cross_check(&mut self, report: &ServeReport) -> Result<(), String> {
        let reference = self.serve(self.cli.method(), ClockMode::Virtual, false)?;
        let des = &reference.summary;
        print_summary("des-reference", des);
        let counts = |s: &RunSummary| {
            let missed = s.records().iter().filter(|r| r.outcome == QueryOutcome::Missed).count();
            (s.len() - missed, missed)
        };
        let ((sa, sm), (da, dm)) = (counts(&report.summary), counts(des));
        let cli = &self.cli;
        if cli.fault_plan.is_some() || cli.task_timeout_q.is_some() || cli.max_retries.is_some() {
            println!(
                "  under faults vs clean DES: acc {:+.1} pp, dmr {:+.1} pp, p95 {:+.3}s, \
                 {} degraded answers",
                100.0 * (report.summary.accuracy() - des.accuracy()),
                100.0 * (report.summary.deadline_miss_rate() - des.deadline_miss_rate()),
                report.summary.latency_stats().p95 - des.latency_stats().p95,
                report.stats.degraded,
            );
        } else {
            let verdict = if (sa, sm) == (da, dm) {
                "consistent"
            } else if cli.virtual_clock {
                "MISMATCH"
            } else {
                "drift (expected under wall clock)"
            };
            println!("  runtime vs DES: accepted {sa} vs {da}, missed {sm} vs {dm} -> {verdict}");
            if verdict == "MISMATCH" {
                return Err("the virtual-clock run disagrees with its own replay".to_string());
            }
        }
        Ok(())
    }
}

/// Parses and executes one command line (without the program name).
pub fn run(args: &[String]) -> Result<(), String> {
    let (command, cli) = parse(args)?;
    let method = cli.method();
    let mut s = Session::new(command, cli);
    match command {
        Command::Run => {
            let report = s.serve(method, ClockMode::Virtual, true)?;
            s.finish(command, &report, ClockMode::Virtual)
        }
        Command::Serve | Command::Loadtest => {
            let mut dilation = 1.0;
            if command == Command::Loadtest {
                dilation = 20.0;
                println!(
                    "loadtest: replaying the {} trace ({} queries) through '{}'",
                    s.cli.trace.as_deref().unwrap_or("one-day"),
                    s.workload.len(),
                    method.name
                );
            }
            let mode = match s.cli.virtual_clock {
                true => ClockMode::Virtual,
                false => ClockMode::Wall { dilation: s.cli.dilation.unwrap_or(dilation) },
            };
            let report = s.serve(method, mode, true)?;
            let finished = s.finish(command, &report, mode);
            if command == Command::Loadtest {
                s.cross_check(&report)?;
            }
            finished
        }
        Command::Compare => {
            for method in METHODS.iter().filter(|m| m.compare) {
                print_summary(method.name, &s.serve(method, ClockMode::Virtual, false)?.summary);
            }
            Ok(())
        }
        Command::Trace => {
            println!("id,arrival_s,deadline_s,difficulty");
            for q in &s.workload.queries {
                println!(
                    "{},{:.6},{:.6},{:.4}",
                    q.id,
                    q.arrival.as_secs_f64(),
                    q.deadline.as_secs_f64(),
                    q.sample.difficulty
                );
            }
            Ok(())
        }
        Command::Score => {
            let art = s.ctx.artifacts();
            println!("id,difficulty,true_score,predicted_score");
            for q in &s.workload.queries {
                println!(
                    "{},{:.4},{:.4},{:.4}",
                    q.id,
                    q.sample.difficulty,
                    art.scorer.score(&s.ctx.ensemble, &q.sample),
                    art.predictor.predict_score(&q.sample.features)
                );
            }
            Ok(())
        }
        Command::Explain => {
            let id = s.cli.query.unwrap_or_default();
            // The stack is deterministic per seed, so a traced replay is
            // exact: this is the timeline any run with the same flags lived
            // through (sharded flags included: steal lineage is explainable).
            s.serve(method, ClockMode::Virtual, true)?;
            match explain_query(&s.sink.snapshot(), id) {
                Some(explain) => {
                    print!("{}", explain.render());
                    Ok(())
                }
                // `explain_query` returns `None` (never an empty timeline)
                // when no event mentions the id, so both miss cases exit
                // non-zero with a cause instead of printing nothing.
                None if id < s.workload.len() as u64 => Err(format!(
                    "query {id} is in range but absent from the trace \
                     (the ring dropped {} events; retry with fewer --queries)",
                    s.sink.dropped()
                )),
                None => Err(format!(
                    "query {id} never arrived (the workload has ids 0..{})",
                    s.workload.len()
                )),
            }
        }
    }
}
