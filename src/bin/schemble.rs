//! `schemble` — command-line front end for the reproduction.
//!
//! ```text
//! schemble run     --task tm --method schemble [--queries N] [--rate R]
//!                  [--deadline-ms D] [--diurnal] [--force-all] [--seed S]
//!                  [--fast-path]
//! schemble compare --task tm [...]            # all six Table-I methods
//! schemble trace   --task tm [--queries N]    # dump the workload as CSV
//! schemble score   --task tm [--queries N]    # discrepancy scores as CSV
//! schemble serve   --task tm --method schemble [--dilation G]
//!                  [--virtual-clock] [--report-ms MS]   # real-time runtime
//! schemble loadtest --trace one-day --method schemble   # replay + DES check
//! schemble explain --query 17 [--method schemble]       # one query's plan
//! ```
//!
//! `run`, `serve` and `loadtest` accept `--trace-out` (Chrome trace-event
//! JSON, open in Perfetto), `--metrics-out` (Prometheus text exposition)
//! and `--audit-out` (NDJSON scheduler decision audit log), plus the
//! introspection exports: `--slo-out` (windowed SLO time-series NDJSON),
//! `--obs-out` (introspection Prometheus exposition) and
//! `--flight-recorder` (post-mortem event-ring dump, written on trip).
//!
//! Argument parsing is hand-rolled to keep the dependency set at the
//! approved offline crates.

use schemble::baselines::{run_baseline_traced, train_des, train_gating, BaselineKind};
use schemble::core::artifacts::SchembleArtifacts;
use schemble::core::engine::{AnytimePolicy, FailurePolicy};
use schemble::core::experiment::{ExperimentConfig, ExperimentContext, PipelineKind, Traffic};
use schemble::core::pipeline::schemble::{run_schemble_traced, SchembleConfig};
use schemble::core::pipeline::{
    best_static_deployment, AdmissionMode, Deployment, FixedSubsetPolicy, FullEnsemblePolicy,
    ResultAssembler,
};
use schemble::core::predictor::OnlineScorer;
use schemble::core::scheduler::{DpScheduler, QueueOrder};
use schemble::data::TaskKind;
use schemble::metrics::{RunSummary, RuntimeMetrics};
use schemble::obs::{explain_query, FlightRecorder, ObsConfig, ObsState};
use schemble::serve::{serve_immediate, serve_schemble, ClockMode, ServeConfig, ServeReport};
use schemble::sim::{BatchConfig, FaultPlan, SimDuration};
use schemble::trace::{
    audit_ndjson, chrome_trace_named, metrics_from_events, prometheus_text, TraceEvent, TraceSink,
};
use std::process::ExitCode;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  schemble run      --method <METHOD> [--task <tm|vc|ir>] [options]
  schemble compare  [--task <tm|vc|ir>] [options]
  schemble trace    [--task <tm|vc|ir>] [options]
  schemble score    [--task <tm|vc|ir>] [options]
  schemble serve    --method <METHOD> [--task <tm|vc|ir>] [serve options]
  schemble loadtest --method <METHOD> [--task <tm|vc|ir>] [serve options]
  schemble explain  --query <ID> [--method <METHOD>] [--task <tm|vc|ir>]

methods:
  original | static | des | gating | schemble | schemble-ea | schemble-t |
  schemble-oracle | greedy-edf | greedy-fifo | greedy-sjf

options:
  --queries <N>       number of queries          (default 3000)
  --rate <R>          Poisson arrival rate /s    (default per task)
  --diurnal           use the one-day bursty trace instead of Poisson
  --deadline-ms <D>   relative deadline          (default per task)
  --seed <S>          root seed                  (default 42)
  --force-all         disable rejection (Table II mode)
  --fast-path         enable the §VIII fast-path dispatch optimisation
  --anytime           anytime early exit: quit a query's remaining tasks
                      once its partial ensemble is already confident
                      (schemble method only)
  --confidence-threshold <C>  anytime quit confidence in [0,1]: quit once
                      the partial result is within 1-C of the full plan's
                      profiled utility; values above 1 disable quitting
                      entirely  (default 0.98)
  --batch-max <B>     coalesce up to B compatible tasks of the same model
                      into one batched pass (schemble method only; 1 =
                      unbatched, the default — byte-identical to no flag)
  --batch-window-ms <W>  how long an open batch waits for more members
                      before launching  (default 2; requires --batch-max)
  --csv <PATH>        (run) write per-query records to a CSV file
  (--task defaults to tm, the paper's primary text-matching task)

telemetry (run/serve/loadtest):
  --trace-out <PATH>    write a Chrome trace-event JSON (open in Perfetto)
  --metrics-out <PATH>  write a Prometheus text exposition
  --audit-out <PATH>    write the per-query scheduler audit log (NDJSON)

introspection (run/serve/loadtest):
  --slo-out <PATH>      write the windowed SLO time-series (NDJSON)
  --slo-window-ms <MS>  SLO window width in backend millis    (default 1000)
  --obs-out <PATH>      write the introspection Prometheus exposition
                        (SLO totals, newest-window gauges, drift counters)
  --flight-recorder <PATH>  arm a bounded post-mortem recorder; dumps the
                        event ring to PATH on wedge, worker panic or breach
  --breach-expired <N>  trip the recorder once N queries have expired

explain:
  --query <ID>          the query to explain (re-runs the seeded DES and
                        reconstructs that query's plan lineage)

serve/loadtest options (methods: original|static|des|gating|schemble):
  --dilation <G>      simulated seconds per wall second
                      (serve default 1; loadtest default 20)
  --virtual-clock     deterministic virtual time: decisions match the DES
  --report-ms <MS>    print a live metrics snapshot every MS wall millis
  --trace <T>         (loadtest) one-day | poisson   (default one-day)
  --shards <S>        run S parallel engine shards behind a hash router
                      (schemble method only; 1 = unsharded, the default;
                      also accepted by run/explain, which then replay the
                      sharded engines on the deterministic virtual clock)
  --steal-epoch-ms <MS>  rebalance shard backlogs at every MS of virtual
                      time: overloaded shards hand eligible queued queries
                      to idle peers via a deterministic rendezvous
                      (requires --shards > 1; off by default)
  --skew <THETA>      re-key the workload with a Zipf(THETA) draw over 64
                      hot keys so the hash router concentrates load on few
                      shards (0 = uniform; try 2.0 to see stealing work)

fault injection (serve/loadtest):
  --fault-plan <PATH>   seeded fault schedule (crash/straggle/transient/
                        timeout-q directives; see DESIGN.md)
  --task-timeout-q <Q>  kill tasks exceeding this profiled latency quantile
  --max-retries <N>     re-dispatch a failed task at most N times (default 2)";

struct Cli {
    task: TaskKind,
    method: Option<String>,
    queries: usize,
    rate: Option<f64>,
    diurnal: bool,
    deadline_ms: Option<f64>,
    seed: u64,
    force_all: bool,
    fast_path: bool,
    anytime: bool,
    confidence_threshold: Option<f64>,
    batch_max: Option<usize>,
    batch_window_ms: Option<f64>,
    csv: Option<String>,
    dilation: Option<f64>,
    virtual_clock: bool,
    report_ms: Option<u64>,
    shards: usize,
    steal_epoch_ms: Option<f64>,
    skew: Option<f64>,
    trace: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    audit_out: Option<String>,
    slo_out: Option<String>,
    slo_window_ms: u64,
    obs_out: Option<String>,
    flight_recorder: Option<String>,
    breach_expired: Option<u64>,
    query: Option<u64>,
    fault_plan: Option<String>,
    task_timeout_q: Option<f64>,
    max_retries: Option<u32>,
}

impl Cli {
    /// True when any telemetry export was requested.
    fn wants_export(&self) -> bool {
        self.trace_out.is_some()
            || self.metrics_out.is_some()
            || self.audit_out.is_some()
            || self.slo_out.is_some()
            || self.obs_out.is_some()
    }
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        task: TaskKind::TextMatching,
        method: None,
        queries: 3000,
        rate: None,
        diurnal: false,
        deadline_ms: None,
        seed: 42,
        force_all: false,
        fast_path: false,
        anytime: false,
        confidence_threshold: None,
        batch_max: None,
        batch_window_ms: None,
        csv: None,
        dilation: None,
        virtual_clock: false,
        report_ms: None,
        shards: 1,
        steal_epoch_ms: None,
        skew: None,
        trace: None,
        trace_out: None,
        metrics_out: None,
        audit_out: None,
        slo_out: None,
        slo_window_ms: 1000,
        obs_out: None,
        flight_recorder: None,
        breach_expired: None,
        query: None,
        fault_plan: None,
        task_timeout_q: None,
        max_retries: None,
    };
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Result<&String, String> {
            *i += 1;
            args.get(*i).ok_or_else(|| format!("{} needs a value", args[*i - 1]))
        };
        match args[i].as_str() {
            "--task" => {
                cli.task = match take(&mut i)?.as_str() {
                    "tm" => TaskKind::TextMatching,
                    "vc" => TaskKind::VehicleCounting,
                    "ir" => TaskKind::ImageRetrieval,
                    other => return Err(format!("unknown task '{other}'")),
                };
            }
            "--method" => cli.method = Some(take(&mut i)?.clone()),
            "--queries" => {
                cli.queries = take(&mut i)?.parse().map_err(|_| "bad --queries".to_string())?
            }
            "--rate" => {
                cli.rate = Some(take(&mut i)?.parse().map_err(|_| "bad --rate".to_string())?)
            }
            "--deadline-ms" => {
                cli.deadline_ms =
                    Some(take(&mut i)?.parse().map_err(|_| "bad --deadline-ms".to_string())?)
            }
            "--seed" => cli.seed = take(&mut i)?.parse().map_err(|_| "bad --seed".to_string())?,
            "--csv" => cli.csv = Some(take(&mut i)?.clone()),
            "--dilation" => {
                cli.dilation =
                    Some(take(&mut i)?.parse().map_err(|_| "bad --dilation".to_string())?)
            }
            "--report-ms" => {
                cli.report_ms =
                    Some(take(&mut i)?.parse().map_err(|_| "bad --report-ms".to_string())?)
            }
            "--shards" => {
                cli.shards = take(&mut i)?.parse().map_err(|_| "bad --shards".to_string())?;
                if cli.shards == 0 {
                    return Err("--shards must be at least 1".to_string());
                }
            }
            "--steal-epoch-ms" => {
                let ms: f64 =
                    take(&mut i)?.parse().map_err(|_| "bad --steal-epoch-ms".to_string())?;
                if !ms.is_finite() || ms <= 0.0 {
                    return Err("--steal-epoch-ms must be positive".to_string());
                }
                cli.steal_epoch_ms = Some(ms);
            }
            "--skew" => {
                let theta: f64 = take(&mut i)?.parse().map_err(|_| "bad --skew".to_string())?;
                if !theta.is_finite() || theta < 0.0 {
                    return Err("--skew must be a non-negative Zipf exponent".to_string());
                }
                cli.skew = Some(theta);
            }
            "--trace" => cli.trace = Some(take(&mut i)?.clone()),
            "--trace-out" => cli.trace_out = Some(take(&mut i)?.clone()),
            "--metrics-out" => cli.metrics_out = Some(take(&mut i)?.clone()),
            "--audit-out" => cli.audit_out = Some(take(&mut i)?.clone()),
            "--slo-out" => cli.slo_out = Some(take(&mut i)?.clone()),
            "--slo-window-ms" => {
                cli.slo_window_ms =
                    take(&mut i)?.parse().map_err(|_| "bad --slo-window-ms".to_string())?;
                if cli.slo_window_ms == 0 {
                    return Err("--slo-window-ms must be at least 1".to_string());
                }
            }
            "--obs-out" => cli.obs_out = Some(take(&mut i)?.clone()),
            "--flight-recorder" => cli.flight_recorder = Some(take(&mut i)?.clone()),
            "--breach-expired" => {
                cli.breach_expired =
                    Some(take(&mut i)?.parse().map_err(|_| "bad --breach-expired".to_string())?)
            }
            "--query" => {
                cli.query = Some(take(&mut i)?.parse().map_err(|_| "bad --query".to_string())?)
            }
            "--fault-plan" => cli.fault_plan = Some(take(&mut i)?.clone()),
            "--task-timeout-q" => {
                cli.task_timeout_q =
                    Some(take(&mut i)?.parse().map_err(|_| "bad --task-timeout-q".to_string())?)
            }
            "--max-retries" => {
                cli.max_retries =
                    Some(take(&mut i)?.parse().map_err(|_| "bad --max-retries".to_string())?)
            }
            "--confidence-threshold" => {
                cli.confidence_threshold = Some(
                    take(&mut i)?.parse().map_err(|_| "bad --confidence-threshold".to_string())?,
                )
            }
            "--batch-max" => {
                let b: usize = take(&mut i)?.parse().map_err(|_| "bad --batch-max".to_string())?;
                if b == 0 {
                    return Err("--batch-max must be at least 1".to_string());
                }
                cli.batch_max = Some(b);
            }
            "--batch-window-ms" => {
                let w: f64 =
                    take(&mut i)?.parse().map_err(|_| "bad --batch-window-ms".to_string())?;
                if !w.is_finite() || w <= 0.0 {
                    return Err("--batch-window-ms must be positive".to_string());
                }
                cli.batch_window_ms = Some(w);
            }
            "--virtual-clock" => cli.virtual_clock = true,
            "--diurnal" => cli.diurnal = true,
            "--force-all" => cli.force_all = true,
            "--fast-path" => cli.fast_path = true,
            "--anytime" => cli.anytime = true,
            other => return Err(format!("unknown option '{other}'")),
        }
        i += 1;
    }
    if cli.confidence_threshold.is_some() && !cli.anytime {
        return Err("--confidence-threshold requires --anytime".to_string());
    }
    if cli.batch_window_ms.is_some() && cli.batch_max.is_none() {
        return Err("--batch-window-ms requires --batch-max".to_string());
    }
    if cli.steal_epoch_ms.is_some() && cli.shards <= 1 {
        return Err(
            "--steal-epoch-ms requires --shards > 1 (stealing rebalances between shard engines)"
                .to_string(),
        );
    }
    Ok(cli)
}

fn context_for(cli: &Cli) -> ExperimentContext {
    let mut config = ExperimentConfig::paper_default(cli.task, cli.seed);
    config.n_queries = cli.queries;
    config.traffic = if cli.diurnal {
        Traffic::Diurnal { day_secs: cli.queries as f64 / 15.0 }
    } else {
        Traffic::Poisson {
            rate_per_sec: cli
                .rate
                .unwrap_or_else(|| schemble::core::experiment::default_rate(cli.task)),
        }
    };
    if let Some(d) = cli.deadline_ms {
        config = config.with_deadline_millis(d);
    }
    if cli.force_all {
        config.admission = AdmissionMode::ForceAll;
    }
    ExperimentContext::new(config)
}

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

/// The batch configuration requested by the CLI flags, if any.
/// `--batch-max 1` normalises to `None` — byte-identical to no flag.
fn batch_config(cli: &Cli) -> Option<BatchConfig> {
    let batch_max = cli.batch_max?;
    let window = SimDuration::from_millis_f64(cli.batch_window_ms.unwrap_or(2.0));
    Some(BatchConfig::new(batch_max, window)).filter(|b| b.active())
}

/// The anytime policy requested by the CLI flags, if any. A bare
/// `--confidence-threshold` without `--anytime` is rejected in [`parse`].
fn anytime_policy(cli: &Cli) -> Option<AnytimePolicy> {
    cli.anytime.then(|| {
        let mut policy = AnytimePolicy::default();
        if let Some(t) = cli.confidence_threshold {
            policy.confidence_threshold = t;
        }
        policy
    })
}

fn run_one(
    ctx: &mut ExperimentContext,
    method: &str,
    cli: &Cli,
    sink: &Arc<TraceSink>,
) -> Result<RunSummary, String> {
    let fast_path = cli.fast_path;
    let anytime = anytime_policy(cli);
    let batching = batch_config(cli);
    let workload = ctx.workload();
    let kind = match method {
        "original" => Some(PipelineKind::Original),
        "static" => Some(PipelineKind::Static),
        "schemble-ea" => Some(PipelineKind::SchembleEa),
        "schemble-t" => Some(PipelineKind::SchembleT),
        "schemble-oracle" => Some(PipelineKind::SchembleOracle),
        "greedy-edf" => Some(PipelineKind::Greedy(QueueOrder::Edf)),
        "greedy-fifo" => Some(PipelineKind::Greedy(QueueOrder::Fifo)),
        "greedy-sjf" => Some(PipelineKind::Greedy(QueueOrder::Sjf)),
        _ => None,
    };
    if let Some(kind) = kind {
        return Ok(ctx.run_traced(kind, &workload, Arc::clone(sink)));
    }
    match method {
        "schemble" if fast_path || anytime.is_some() || batching.is_some() => {
            // Assemble manually so the fast-path/anytime/batching flags can
            // be set.
            let art = ctx.artifacts().clone();
            let mut config = SchembleConfig::new(
                Box::new(DpScheduler::default()),
                OnlineScorer::Predictor(art.predictor),
                art.profile,
            );
            config.admission = ctx.config.admission;
            config.fast_path = fast_path;
            config.anytime = anytime;
            config.batching = batching;
            Ok(run_schemble_traced(
                &ctx.ensemble,
                &config,
                &workload,
                ctx.config.seed,
                Arc::clone(sink),
            ))
        }
        "schemble" => Ok(ctx.run_traced(PipelineKind::Schemble, &workload, Arc::clone(sink))),
        "des" | "gating" => {
            let kind = if method == "des" { BaselineKind::Des } else { BaselineKind::Gating };
            Ok(run_baseline_traced(
                kind,
                &ctx.ensemble,
                &ctx.generator,
                &workload,
                ctx.config.admission,
                ctx.config.history_n,
                ctx.config.seed,
                Arc::clone(sink),
            ))
        }
        other => Err(format!("unknown method '{other}'")),
    }
}

/// Writes the requested telemetry exports from a finished run's sink.
///
/// For serve/loadtest the live [`RuntimeMetrics`] block is passed in; for
/// DES runs (no live metrics) the counters, gauges and latency histogram
/// are reconstructed from the trace itself. Backend elapsed time falls
/// back to the last event's timestamp when the caller has no report.
fn export_telemetry(
    cli: &Cli,
    sink: &TraceSink,
    label: &str,
    executors: usize,
    sim_secs: Option<f64>,
    metrics: Option<&RuntimeMetrics>,
) -> Result<(), String> {
    if !cli.wants_export() {
        return Ok(());
    }
    let events = sink.snapshot();
    if sink.dropped() > 0 {
        eprintln!("warning: trace ring dropped {} events; exports are truncated", sink.dropped());
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
        .max(executors);
    let write = |path: &str, contents: &str| -> Result<(), String> {
        std::fs::write(path, contents).map_err(|e| format!("writing {path}: {e}"))
    };
    if let Some(path) = &cli.trace_out {
        // Sharded runs name tracks by shard: global executor s*m+k is
        // shard s's replica of model k.
        let tracks: Vec<String> = if cli.shards > 1 && executors % cli.shards == 0 {
            let m = executors / cli.shards;
            (0..executors).map(|k| format!("shard-{}/executor-{}", k / m, k % m)).collect()
        } else {
            (0..executors).map(|k| format!("executor-{k}")).collect()
        };
        write(path, &chrome_trace_named(&events, &tracks, label))?;
        println!("  wrote Chrome trace ({} events) to {path}", events.len());
    }
    if let Some(path) = &cli.audit_out {
        let log = audit_ndjson(&events);
        println!("  wrote audit log ({} queries) to {path}", log.lines().count());
        write(path, &log)?;
    }
    if let Some(path) = &cli.metrics_out {
        let elapsed = sim_secs.unwrap_or_else(|| {
            events.iter().map(|e| e.time()).max().map_or(0.0, |t| t.as_secs_f64())
        });
        let derived;
        let m = match metrics {
            Some(m) => m,
            None => {
                derived = metrics_from_events(&events, executors);
                &derived
            }
        };
        write(path, &prometheus_text(m, elapsed, Some(&sink.planning)))?;
        println!("  wrote metrics exposition to {path}");
    }
    Ok(())
}

/// Writes the introspection exports (`--slo-out` / `--obs-out`): a pure
/// fold over the finished run's trace snapshot, so a DES `run` and a
/// `--virtual-clock` serve of the same seed produce byte-identical files.
fn export_obs(
    cli: &Cli,
    ctx: &mut ExperimentContext,
    method: &str,
    sink: &TraceSink,
) -> Result<(), String> {
    if cli.slo_out.is_none() && cli.obs_out.is_none() {
        return Ok(());
    }
    // The calibration detector needs the difficulty-bin layout, which only
    // schemble-family pipelines carry; other methods skip that detector.
    let bins = if method.starts_with("schemble") { ctx.artifacts().profile.bins() } else { 0 };
    let config = ObsConfig {
        window: SimDuration::from_millis(cli.slo_window_ms),
        bins,
        profiled_latencies_us: ctx
            .ensemble
            .planned_latencies()
            .iter()
            .map(|d| d.as_micros())
            .collect(),
        ..ObsConfig::default()
    };
    let state = ObsState::fold(&config, &sink.snapshot());
    if let Some(path) = &cli.slo_out {
        let text = state.slo_ndjson();
        std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
        println!("  wrote SLO time-series ({} windows) to {path}", text.lines().count());
    }
    if let Some(path) = &cli.obs_out {
        std::fs::write(path, state.prometheus()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("  wrote introspection metrics to {path}");
    }
    Ok(())
}

/// Arms the flight recorder (when requested) as a sink tap, so every
/// emitted event lands in its bounded ring even with all exports off.
fn arm_recorder(cli: &Cli, sink: &Arc<TraceSink>) -> Option<Arc<FlightRecorder>> {
    cli.flight_recorder.as_ref()?;
    let rec = Arc::new(FlightRecorder::new(4096, cli.breach_expired));
    sink.set_tap(Some(rec.clone()));
    Some(rec)
}

/// Dumps the recorder's ring if it tripped. An untripped recorder writes
/// nothing: the absence of the file is the all-clear.
fn finish_recorder(cli: &Cli, recorder: &Option<Arc<FlightRecorder>>) -> Result<(), String> {
    let Some(rec) = recorder else { return Ok(()) };
    let path = cli.flight_recorder.as_deref().unwrap_or_default();
    match rec.tripped() {
        Some(reason) => {
            let dump = rec.dump_json();
            std::fs::write(path, &dump).map_err(|e| format!("writing {path}: {e}"))?;
            println!(
                "  flight recorder tripped ({}): wrote {} events to {path}",
                reason.as_str(),
                rec.events().len()
            );
        }
        None => println!("  flight recorder armed, never tripped; nothing written"),
    }
    Ok(())
}

/// Prints the scheduler's self-profile when at least one plan ran.
fn print_planning(sink: &TraceSink) {
    let p = &sink.planning;
    let n = p.plans.load(Relaxed);
    let Some(mean) = p.mean_secs() else { return };
    let p95 = p.hist.quantile(0.95).unwrap_or(mean);
    println!(
        "  scheduler: {n} plans, mean {:.1} us, p95 {:.1} us, {} work units planned",
        mean * 1e6,
        p95 * 1e6,
        p.work_units.load(Relaxed)
    );
}

/// Builds the fault plan and retry policy requested by the CLI flags.
/// `(None, None)` — the common case — leaves every run fault-free and
/// decision-identical to a build without fault support.
fn fault_setup(cli: &Cli) -> Result<(Option<FaultPlan>, Option<FailurePolicy>), String> {
    let mut plan = match &cli.fault_plan {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            Some(FaultPlan::parse(&text)?)
        }
        None => None,
    };
    if let Some(q) = cli.task_timeout_q {
        if !(0.0..=1.0).contains(&q) {
            return Err("--task-timeout-q must be in [0, 1]".to_string());
        }
        plan.get_or_insert_with(FaultPlan::default).timeout_quantile = Some(q);
    }
    let failure = (plan.is_some() || cli.max_retries.is_some()).then(|| {
        let mut policy = FailurePolicy::default();
        if let Some(n) = cli.max_retries {
            policy.max_retries = n;
        }
        policy
    });
    Ok((plan, failure))
}

/// Builds the runtime configuration from the CLI flags.
fn serve_config(
    cli: &Cli,
    default_dilation: f64,
    sink: &Arc<TraceSink>,
    recorder: Option<Arc<FlightRecorder>>,
) -> Result<ServeConfig, String> {
    let (faults, failure) = fault_setup(cli)?;
    Ok(ServeConfig {
        mode: if cli.virtual_clock {
            ClockMode::Virtual
        } else {
            ClockMode::Wall { dilation: cli.dilation.unwrap_or(default_dilation) }
        },
        report_every: cli.report_ms.map(Duration::from_millis),
        trace: Some(Arc::clone(sink)),
        faults,
        failure,
        shards: cli.shards,
        steal_epoch: cli.steal_epoch_ms.map(SimDuration::from_millis_f64),
        recorder,
        ..ServeConfig::default()
    })
}

/// Runs one method on the schemble-serve runtime.
fn serve_one(
    ctx: &mut ExperimentContext,
    method: &str,
    cli: &Cli,
    default_dilation: f64,
    sink: &Arc<TraceSink>,
    recorder: Option<Arc<FlightRecorder>>,
) -> Result<ServeReport, String> {
    if cli.shards > 1 && method != "schemble" {
        return Err(format!(
            "--shards requires --method schemble (the immediate '{method}' pipeline keeps \
             per-query selection state that is not shardable)"
        ));
    }
    let mut workload = ctx.workload();
    if let Some(theta) = cli.skew {
        // Hot-key skew: the hash router then concentrates load on few
        // shards, the regime --steal-epoch-ms exists for. 64 keys is
        // plenty for any realistic shard count.
        workload = workload.with_zipf_keys(64, theta, ctx.config.seed);
    }
    let seed = ctx.config.seed;
    let admission = ctx.config.admission;
    let scfg = serve_config(cli, default_dilation, sink, recorder)?;
    let m = ctx.ensemble.m();
    match method {
        "schemble" => {
            let art = ctx.artifacts().clone();
            let mut config = SchembleConfig::new(
                Box::new(DpScheduler::default()),
                OnlineScorer::Predictor(art.predictor),
                art.profile,
            );
            config.admission = admission;
            config.fast_path = cli.fast_path;
            config.anytime = anytime_policy(cli);
            config.batching = batch_config(cli);
            config.failure = scfg.failure;
            Ok(serve_schemble(&ctx.ensemble, &config, &workload, seed, &scfg))
        }
        "original" => Ok(serve_immediate(
            &ctx.ensemble,
            &Deployment::identity(m),
            &mut FullEnsemblePolicy,
            &ResultAssembler::Direct,
            admission,
            &workload,
            seed,
            &scfg,
        )),
        "static" => {
            let pilot = (workload.len() / 5).clamp(100, 2000);
            let (set, deployment) = best_static_deployment(&ctx.ensemble, &workload, pilot, seed);
            Ok(serve_immediate(
                &ctx.ensemble,
                &deployment,
                &mut FixedSubsetPolicy { set },
                &ResultAssembler::Direct,
                admission,
                &workload,
                seed,
                &scfg,
            ))
        }
        "des" => {
            let mut policy = train_des(&ctx.ensemble, &ctx.generator, ctx.config.history_n, seed);
            Ok(serve_immediate(
                &ctx.ensemble,
                &Deployment::identity(m),
                &mut policy,
                &ResultAssembler::Direct,
                admission,
                &workload,
                seed,
                &scfg,
            ))
        }
        "gating" => {
            let mut policy =
                train_gating(&ctx.ensemble, &ctx.generator, ctx.config.history_n, seed);
            Ok(serve_immediate(
                &ctx.ensemble,
                &Deployment::identity(m),
                &mut policy,
                &ResultAssembler::Direct,
                admission,
                &workload,
                seed,
                &scfg,
            ))
        }
        other => Err(format!("method '{other}' is not supported by the serving runtime")),
    }
}

/// Hard-fails (non-zero exit) when the runtime finished with queries still
/// open — every admitted query must end completed, degraded, rejected or
/// expired, faults or not. The CI fault gauntlet relies on this check.
fn check_not_wedged(report: &ServeReport) -> Result<(), String> {
    let open = report.stats.open();
    if open != 0 {
        return Err(format!("{open} queries left open at shutdown (wedged)"));
    }
    Ok(())
}

fn print_report(method: &str, report: &ServeReport, virtual_clock: bool) {
    print_summary(method, &report.summary);
    let s = &report.stats;
    println!(
        "  runtime [{}]: {} submitted = {} completed + {} degraded + {} rejected + {} expired",
        if virtual_clock { "virtual clock" } else { "wall clock" },
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
        report.snapshot.brief()
    );
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err("missing command".to_string());
    };
    let mut cli = parse(&args[1..])?;
    if command == "loadtest" {
        match cli.trace.as_deref().unwrap_or("one-day") {
            "one-day" => cli.diurnal = true,
            "poisson" => cli.diurnal = false,
            other => return Err(format!("unknown trace '{other}'")),
        }
    }
    if (cli.wants_export() || cli.flight_recorder.is_some())
        && !matches!(command.as_str(), "run" | "serve" | "loadtest")
    {
        return Err(
            "telemetry and introspection exports require run, serve or loadtest".to_string()
        );
    }
    if cli.shards > 1 && !matches!(command.as_str(), "run" | "serve" | "loadtest" | "explain") {
        return Err("--shards requires run, serve, loadtest or explain".to_string());
    }
    if cli.anytime && cli.method.as_deref().is_some_and(|m| m != "schemble") {
        return Err("--anytime requires --method schemble (the buffered pipeline \
                    is the only one that tracks a partial-ensemble vote)"
            .to_string());
    }
    if cli.batch_max.is_some() && cli.method.as_deref().is_some_and(|m| m != "schemble") {
        return Err("--batch-max requires --method schemble (only the buffered \
                    pipeline coalesces compatible tasks across queries)"
            .to_string());
    }
    // Event emission is armed only when an export was requested; the
    // planning self-profile records either way. Tracing never changes a
    // scheduling decision (events carry backend time only).
    let sink = TraceSink::enabled();
    sink.set_enabled(cli.wants_export());
    let mut ctx = context_for(&cli);
    match command.as_str() {
        "run" => {
            let method = cli.method.clone().ok_or_else(|| "--method is required".to_string())?;
            if cli.shards > 1 {
                // The single-engine DES driver cannot host shard engines;
                // a sharded `run` replays them on the virtual-clock serving
                // runtime, which is byte-identical to the DES — so
                // `run --shards` and `serve --virtual-clock --shards`
                // produce the same exports (the CI steal gauntlet compares
                // them with `cmp`).
                cli.virtual_clock = true;
                let recorder = arm_recorder(&cli, &sink);
                let report = serve_one(&mut ctx, &method, &cli, 1.0, &sink, recorder.clone())?;
                print_report(&method, &report, true);
                print_planning(&sink);
                if let Some(path) = &cli.csv {
                    schemble::metrics::write_csv(
                        std::path::Path::new(path),
                        report.summary.records(),
                    )
                    .map_err(|e| format!("writing {path}: {e}"))?;
                    println!("wrote {} records to {path}", report.summary.len());
                }
                export_telemetry(
                    &cli,
                    &sink,
                    &method,
                    report.metrics.executors.len(),
                    Some(report.sim_secs),
                    Some(&report.metrics),
                )?;
                export_obs(&cli, &mut ctx, &method, &sink)?;
                finish_recorder(&cli, &recorder)?;
                return check_not_wedged(&report);
            }
            let recorder = arm_recorder(&cli, &sink);
            let summary = run_one(&mut ctx, &method, &cli, &sink)?;
            print_summary(&method, &summary);
            print_planning(&sink);
            if let Some(path) = &cli.csv {
                schemble::metrics::write_csv(std::path::Path::new(path), summary.records())
                    .map_err(|e| format!("writing {path}: {e}"))?;
                println!("wrote {} records to {path}", summary.len());
            }
            export_telemetry(&cli, &sink, &method, ctx.ensemble.m(), None, None)?;
            export_obs(&cli, &mut ctx, &method, &sink)?;
            finish_recorder(&cli, &recorder)
        }
        "compare" => {
            for method in ["original", "static", "des", "gating", "schemble-ea", "schemble"] {
                let summary = run_one(&mut ctx, method, &cli, &TraceSink::disabled())?;
                print_summary(method, &summary);
            }
            Ok(())
        }
        "trace" => {
            let workload = ctx.workload();
            println!("id,arrival_s,deadline_s,difficulty");
            for q in &workload.queries {
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
        "score" => {
            let workload = ctx.workload();
            let art: SchembleArtifacts = ctx.artifacts().clone();
            println!("id,difficulty,true_score,predicted_score");
            for q in &workload.queries {
                println!(
                    "{},{:.4},{:.4},{:.4}",
                    q.id,
                    q.sample.difficulty,
                    art.scorer.score(&ctx.ensemble, &q.sample),
                    art.predictor.predict_score(&q.sample.features)
                );
            }
            Ok(())
        }
        "explain" => {
            let id = cli.query.ok_or_else(|| "--query is required".to_string())?;
            let method = cli.method.clone().unwrap_or_else(|| "schemble".to_string());
            // The whole stack is deterministic per seed, so re-running the
            // DES with tracing armed is an exact replay: the timeline below
            // is the one any earlier run with the same flags lived through.
            // Sharded flags replay through the (equally deterministic)
            // virtual-clock shard engines so steal lineage is explainable.
            sink.set_enabled(true);
            if cli.shards > 1 {
                cli.virtual_clock = true;
                serve_one(&mut ctx, &method, &cli, 1.0, &sink, None)?;
            } else {
                run_one(&mut ctx, &method, &cli, &sink)?;
            }
            match explain_query(&sink.snapshot(), id) {
                Some(explain) => {
                    print!("{}", explain.render());
                    Ok(())
                }
                // `explain_query` returns `None` (never an empty timeline)
                // when no event mentions the id, so both miss cases exit
                // non-zero with a cause instead of printing nothing.
                None if id < cli.queries as u64 => Err(format!(
                    "query {id} is in range but absent from the trace \
                     (the ring dropped {} events; retry with fewer --queries)",
                    sink.dropped()
                )),
                None => Err(format!(
                    "query {id} never arrived (the workload has ids 0..{})",
                    cli.queries
                )),
            }
        }
        "serve" => {
            let method = cli.method.clone().ok_or_else(|| "--method is required".to_string())?;
            let recorder = arm_recorder(&cli, &sink);
            let report = serve_one(&mut ctx, &method, &cli, 1.0, &sink, recorder.clone())?;
            print_report(&method, &report, cli.virtual_clock);
            print_planning(&sink);
            export_telemetry(
                &cli,
                &sink,
                &method,
                report.metrics.executors.len(),
                Some(report.sim_secs),
                Some(&report.metrics),
            )?;
            export_obs(&cli, &mut ctx, &method, &sink)?;
            finish_recorder(&cli, &recorder)?;
            check_not_wedged(&report)
        }
        "loadtest" => {
            let method = cli.method.clone().ok_or_else(|| "--method is required".to_string())?;
            let trace = cli.trace.clone().unwrap_or_else(|| "one-day".to_string());
            println!(
                "loadtest: replaying the {trace} trace ({} queries) through '{method}'",
                cli.queries
            );
            let recorder = arm_recorder(&cli, &sink);
            let report = serve_one(&mut ctx, &method, &cli, 20.0, &sink, recorder.clone())?;
            print_report(&method, &report, cli.virtual_clock);
            print_planning(&sink);
            export_telemetry(
                &cli,
                &sink,
                &method,
                report.metrics.executors.len(),
                Some(report.sim_secs),
                Some(&report.metrics),
            )?;
            export_obs(&cli, &mut ctx, &method, &sink)?;
            finish_recorder(&cli, &recorder)?;
            // Cross-check against the *fault-free* discrete-event simulator
            // on the same seeded trace: without faults and under
            // --virtual-clock the counts must coincide exactly; in
            // wall-clock mode small timing drift is expected; under a fault
            // plan the gap vs the clean reference IS the measurement.
            // The reference run gets a disabled sink so the exports above
            // describe only the runtime run.
            let des = run_one(&mut ctx, &method, &cli, &TraceSink::disabled())?;
            print_summary("des-reference", &des);
            let missed = |s: &RunSummary| {
                s.records()
                    .iter()
                    .filter(|r| matches!(r.outcome, schemble::metrics::QueryOutcome::Missed))
                    .count()
            };
            let (sa, sm) =
                (report.summary.len() - missed(&report.summary), missed(&report.summary));
            let (da, dm) = (des.len() - missed(&des), missed(&des));
            let (faults, failure) = fault_setup(&cli)?;
            if faults.is_some() || failure.is_some() {
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
                println!(
                    "  runtime vs DES: accepted {sa} vs {da}, missed {sm} vs {dm} -> {verdict}"
                );
            }
            check_not_wedged(&report)
        }
        other => Err(format!("unknown command '{other}'")),
    }
}
