//! `bench_serve` — serving-runtime benchmark with a regression gate.
//!
//! Replays a small deterministic workload through the virtual-clock serving
//! runtime and reports:
//!
//! * `p50_latency_ms` / `p99_latency_ms` — end-to-end query latency
//!   quantiles. Virtual clock + fixed seed make these **exactly**
//!   reproducible: any drift means a decision change, not noise.
//! * `queries_per_sec` — serving throughput (queries ÷ wall time of the
//!   *measured* pass; an untimed warmup pass runs first so cold caches and
//!   allocator warmup never leak into the rate).
//! * `plans_per_sec` — scheduler re-planning throughput over the measured
//!   pass only.
//! * `sched_overhead_us` — mean wall-clock cost of one plan.
//!
//! ```text
//! bench_serve [--shards|--obs|--anytime|--batch|--steal] [--out PATH] [--check BASELINE] [--write PATH]
//! ```
//!
//! `--shards` switches to the shard-scaling sweep: S ∈ {1, 2, 4, 8} engine
//! shards, run twice — once with offered load scaled proportionally (so
//! per-shard load — and hence the deterministic latency profile — is
//! constant while total throughput must grow with the core count), and
//! once with the S=1 offered load held fixed while shards grow (strong
//! scaling — the series where the shard plateau shows). The passes are a
//! few milliseconds long, so their throughput and speedups are printed for
//! orientation only; `BENCH_serve_shards.json` holds, and `--check` gates,
//! the deterministic per-S quality metrics. Shard throughput is measured
//! by `benchmark/` (`tm3_skew_observed`, `serve.shard.scaling_s2`).
//!
//! `--steal` switches to the work-stealing comparison: a Zipfian hot-key
//! trace (θ = 2.0 over 64 keys) at S = 4 whose hash-routed partition
//! saturates one shard, served once with `steal_epoch` off and once at
//! 50 ms. Throughput is *served* load in simulated time (completed ÷ sim
//! seconds) — virtual-clock deterministic — and the comparison self-gates
//! on every run: stealing must lift served throughput ≥ 1.5x while moving
//! the deadline-miss rate by at most +1 pp, the off pass must steal
//! nothing, and the on pass must actually steal.
//!
//! `--obs` switches to the introspection-overhead benchmark: the same
//! measured pass runs once with all observability off and once with the
//! full stack on (event emission, a tapped flight recorder, and the
//! post-run SLO/drift fold). The virtual-clock p99 must agree within 5%
//! between the two — tracing is decision-neutral, so any drift is a leak
//! of observability into scheduling — and that self-gate applies on every
//! run, `--check` or not.
//!
//! `--batch` switches to the cross-query batching sweep: batch_max ∈
//! {1, 4, 16} on a diurnal trace offered well above unbatched capacity.
//! The reported throughput is *served* load in simulated time
//! (completed ÷ sim seconds) — virtual-clock deterministic — and the
//! sweep self-gates on every run: batch_max = 16 must serve ≥ 1.5x the
//! unbatched reference while moving the deadline-miss rate by at most
//! +1 pp (in practice batching *improves* it: more capacity means fewer
//! expiries).
//!
//! `--out` (default `BENCH_serve.json`, or `BENCH_serve_shards.json` with
//! `--shards`, or `BENCH_obs.json` with `--obs`, or `BENCH_anytime.json`
//! with `--anytime`, or `BENCH_batch.json` with `--batch`, or
//! `BENCH_steal.json` with `--steal`) writes the results as JSON — the CI bench jobs upload it as
//! an artifact. `--check` compares against a checked-in baseline and exits
//! non-zero on regression: >20% on the deterministic latency quantiles; 4x
//! on the wall-clock-dependent throughput/overhead numbers (CI runners vary
//! widely in single-core speed, so a tight gate there would only produce
//! flakes). `--write` regenerates the baseline file.

use schemble_core::engine::AnytimePolicy;
use schemble_core::experiment::{ExperimentConfig, ExperimentContext, Traffic};
use schemble_core::pipeline::schemble::SchembleConfig;
use schemble_core::pipeline::AdmissionMode;
use schemble_core::predictor::OnlineScorer;
use schemble_core::scheduler::DpScheduler;
use schemble_data::{TaskKind, Workload};
use schemble_models::Ensemble;
use schemble_obs::{FlightRecorder, ObsConfig, ObsState};
use schemble_serve::{serve_schemble, ClockMode, ServeConfig, ServeReport};
use schemble_sim::{BatchConfig, SimDuration};
use schemble_trace::TraceSink;
use std::process::ExitCode;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

/// Base offered load at S=1; the shard sweep multiplies both by S.
const BASE_QUERIES: usize = 600;
const BASE_RATE: f64 = 35.0;
/// Query count for the anytime accuracy-vs-compute bench; its one-day
/// diurnal trace keeps the mean rate at 15 q/s like the loadtest.
const ANYTIME_QUERIES: usize = 1500;
/// Shard counts swept by `--shards`.
const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];
/// Batch caps swept by `--batch`; `1` is the unbatched reference point.
const BATCH_SWEEP: [usize; 3] = [1, 4, 16];
/// Query count and mean rate for the `--batch` diurnal trace. The mean sits
/// well above unbatched capacity (the flat bench saturates near 35 q/s and
/// the diurnal peak is ~2.9x the mean), so the sweep measures batching where
/// it matters: how much offered load the system can actually retire.
const BATCH_QUERIES: usize = 1500;
const BATCH_RATE: f64 = 90.0;
/// Coalescing window used by every batched point in the sweep.
const BATCH_WINDOW_MS: u64 = 2;
/// Required served-throughput gain at batch_max = 16 over unbatched.
const B16_SPEEDUP_FLOOR: f64 = 1.5;
/// Batching may not cost more than this much deadline-miss rate.
const BATCH_DMR_CEILING_PP: f64 = 0.01;
/// The `--steal` fixture: a hot-key Zipfian trace at S = 4, offered well
/// above what the hash router's hottest shard can retire alone. The key
/// count and skew match the serve-crate property tests; the rate is set so
/// the hot shard saturates while the ensemble as a whole has headroom —
/// the regime work stealing exists for.
const STEAL_SHARDS: usize = 4;
const STEAL_QUERIES: usize = 1200;
const STEAL_RATE: f64 = 140.0;
const STEAL_KEYS: usize = 64;
const STEAL_THETA: f64 = 2.0;
const STEAL_EPOCH_MS: u64 = 50;
const STEAL_DEADLINE_MS: f64 = 150.0;
/// Required served-throughput gain with stealing on vs off.
const STEAL_SPEEDUP_FLOOR: f64 = 1.5;
/// Stealing may not cost more than this much deadline-miss rate.
const STEAL_DMR_CEILING_PP: f64 = 0.01;

struct BenchResult {
    queries: usize,
    p50_latency_ms: f64,
    p99_latency_ms: f64,
    queries_per_sec: f64,
    plans_per_sec: f64,
    sched_overhead_us: f64,
    wall_secs: f64,
}

impl BenchResult {
    fn to_json(&self) -> String {
        format!(
            "{{\n  \"queries\": {},\n  \"p50_latency_ms\": {:.4},\n  \"p99_latency_ms\": {:.4},\n  \"queries_per_sec\": {:.1},\n  \"plans_per_sec\": {:.1},\n  \"sched_overhead_us\": {:.2},\n  \"wall_secs\": {:.3}\n}}\n",
            self.queries,
            self.p50_latency_ms,
            self.p99_latency_ms,
            self.queries_per_sec,
            self.plans_per_sec,
            self.sched_overhead_us,
            self.wall_secs,
        )
    }
}

/// One shard count's measured pass in the scaling sweep.
struct ShardPoint {
    shards: usize,
    queries: usize,
    queries_per_sec: f64,
    p99_latency_ms: f64,
    deadline_miss_rate: f64,
}

struct ShardSweep {
    cores: usize,
    /// Scaled-load series: offered load grows with S (weak scaling), so
    /// per-shard pressure — and the deterministic quality profile — is
    /// constant while total throughput must grow with the core count.
    points: Vec<ShardPoint>,
    /// Fixed-load series: the S=1 offered load is held constant while the
    /// shard count grows (strong scaling). This is the series that exposes
    /// the shard-scaling plateau: with total work fixed, adding shards
    /// only helps until coordination and partition imbalance eat the gain.
    fixed: Vec<ShardPoint>,
}

impl ShardSweep {
    fn speedup_of(points: &[ShardPoint], shards: usize) -> f64 {
        let base = points[0].queries_per_sec.max(1e-9);
        points.iter().find(|p| p.shards == shards).map_or(0.0, |p| p.queries_per_sec / base)
    }

    fn speedup(&self, shards: usize) -> f64 {
        Self::speedup_of(&self.points, shards)
    }

    fn fixed_speedup(&self, shards: usize) -> f64 {
        Self::speedup_of(&self.fixed, shards)
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"base_queries\": {BASE_QUERIES},\n"));
        out.push_str(&format!("  \"base_rate_per_sec\": {BASE_RATE:.1},\n"));
        for p in &self.points {
            let s = p.shards;
            out.push_str(&format!("  \"s{s}_queries\": {},\n", p.queries));
            out.push_str(&format!("  \"s{s}_p99_latency_ms\": {:.4},\n", p.p99_latency_ms));
            out.push_str(&format!("  \"s{s}_deadline_miss_rate\": {:.6},\n", p.deadline_miss_rate));
        }
        for p in &self.fixed {
            let s = p.shards;
            out.push_str(&format!("  \"f{s}_p99_latency_ms\": {:.4},\n", p.p99_latency_ms));
            out.push_str(&format!("  \"f{s}_deadline_miss_rate\": {:.6},\n", p.deadline_miss_rate));
        }
        // Trailing key without a comma keeps the document valid JSON.
        out.push_str(&format!("  \"shard_counts\": {}\n}}\n", SHARD_SWEEP.len()));
        out
    }
}

/// The introspection-overhead comparison: one pass dark, one pass with
/// the full obs stack armed.
struct ObsResult {
    queries: usize,
    p99_obs_off_ms: f64,
    p99_obs_on_ms: f64,
    p99_obs_delta_pct: f64,
    events: usize,
    obs_fold_ms: f64,
    wall_off_secs: f64,
    wall_on_secs: f64,
}

impl ObsResult {
    fn to_json(&self) -> String {
        format!(
            "{{\n  \"queries\": {},\n  \"p99_obs_off_ms\": {:.4},\n  \"p99_obs_on_ms\": {:.4},\n  \"p99_obs_delta_pct\": {:.4},\n  \"events\": {},\n  \"obs_fold_ms\": {:.3},\n  \"wall_off_secs\": {:.3},\n  \"wall_on_secs\": {:.3}\n}}\n",
            self.queries,
            self.p99_obs_off_ms,
            self.p99_obs_on_ms,
            self.p99_obs_delta_pct,
            self.events,
            self.obs_fold_ms,
            self.wall_off_secs,
            self.wall_on_secs,
        )
    }
}

/// The anytime accuracy-vs-compute comparison on the diurnal trace: one
/// pass with full plans, one with the early-exit policy quitting tasks.
struct AnytimeResult {
    queries: usize,
    acc_full_pct: f64,
    acc_anytime_pct: f64,
    /// Accuracy given up by quitting, in percentage points (negative when
    /// anytime comes out *ahead*, which early completion under load can).
    acc_delta_pp: f64,
    tasks_saved: u64,
    /// Quit tasks as a fraction of everything the anytime run attempted.
    saved_frac: f64,
    p99_full_ms: f64,
    p99_anytime_ms: f64,
    models_per_query_full: f64,
    models_per_query_anytime: f64,
    wall_full_secs: f64,
    wall_anytime_secs: f64,
}

impl AnytimeResult {
    fn to_json(&self) -> String {
        format!(
            "{{\n  \"queries\": {},\n  \"acc_full_pct\": {:.4},\n  \"acc_anytime_pct\": {:.4},\n  \"acc_delta_pp\": {:.4},\n  \"tasks_saved\": {},\n  \"saved_frac\": {:.4},\n  \"p99_full_ms\": {:.4},\n  \"p99_anytime_ms\": {:.4},\n  \"models_per_query_full\": {:.4},\n  \"models_per_query_anytime\": {:.4},\n  \"wall_full_secs\": {:.3},\n  \"wall_anytime_secs\": {:.3}\n}}\n",
            self.queries,
            self.acc_full_pct,
            self.acc_anytime_pct,
            self.acc_delta_pp,
            self.tasks_saved,
            self.saved_frac,
            self.p99_full_ms,
            self.p99_anytime_ms,
            self.models_per_query_full,
            self.models_per_query_anytime,
            self.wall_full_secs,
            self.wall_anytime_secs,
        )
    }
}

/// One batch cap's measured pass in the cross-query batching sweep.
struct BatchPoint {
    batch_max: usize,
    completed: u64,
    /// Served throughput in *simulated* time: completed / sim_secs. Under
    /// the virtual clock this is exactly reproducible, so it isolates how
    /// much more offered load batching lets the executors retire — wall
    /// speed of the runner never enters.
    queries_per_sec: f64,
    deadline_miss_rate: f64,
    tasks_batched: u64,
    p99_latency_ms: f64,
}

struct BatchSweep {
    points: Vec<BatchPoint>,
}

impl BatchSweep {
    fn speedup(&self, batch_max: usize) -> f64 {
        let base = self.points[0].queries_per_sec.max(1e-9);
        self.points
            .iter()
            .find(|p| p.batch_max == batch_max)
            .map_or(0.0, |p| p.queries_per_sec / base)
    }

    fn point(&self, batch_max: usize) -> &BatchPoint {
        self.points.iter().find(|p| p.batch_max == batch_max).expect("swept point")
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"queries\": {BATCH_QUERIES},\n"));
        out.push_str(&format!("  \"mean_rate_per_sec\": {BATCH_RATE:.1},\n"));
        out.push_str(&format!("  \"batch_window_ms\": {BATCH_WINDOW_MS},\n"));
        for p in &self.points {
            let b = p.batch_max;
            out.push_str(&format!("  \"b{b}_completed\": {},\n", p.completed));
            out.push_str(&format!("  \"b{b}_queries_per_sec\": {:.4},\n", p.queries_per_sec));
            out.push_str(&format!("  \"b{b}_deadline_miss_rate\": {:.6},\n", p.deadline_miss_rate));
            out.push_str(&format!("  \"b{b}_tasks_batched\": {},\n", p.tasks_batched));
            out.push_str(&format!("  \"b{b}_p99_latency_ms\": {:.4},\n", p.p99_latency_ms));
        }
        for &b in &BATCH_SWEEP[1..] {
            out.push_str(&format!("  \"speedup_b{b}\": {:.4},\n", self.speedup(b)));
        }
        // Trailing key without a comma keeps the document valid JSON.
        out.push_str(&format!("  \"batch_counts\": {}\n}}\n", BATCH_SWEEP.len()));
        out
    }
}

/// The work-stealing comparison: the same hot-key trace served at S = 4
/// with the steal epoch off and on. Both passes are virtual-clock runs, so
/// every number here is exactly reproducible.
struct StealResult {
    queries: usize,
    shards: usize,
    zipf_keys: usize,
    zipf_theta: f64,
    steal_epoch_ms: u64,
    off_completed: u64,
    /// Served throughput in *simulated* time: completed / sim_secs, the
    /// same served-load metric the batching sweep gates on.
    off_queries_per_sec: f64,
    off_deadline_miss_rate: f64,
    on_completed: u64,
    on_queries_per_sec: f64,
    on_deadline_miss_rate: f64,
    /// Queries that actually changed shards in the stealing-on pass.
    queries_stolen: u64,
    speedup: f64,
}

impl StealResult {
    fn to_json(&self) -> String {
        format!(
            "{{\n  \"queries\": {},\n  \"shards\": {},\n  \"zipf_keys\": {},\n  \"zipf_theta\": {:.2},\n  \"steal_epoch_ms\": {},\n  \"off_completed\": {},\n  \"off_queries_per_sec\": {:.4},\n  \"off_deadline_miss_rate\": {:.6},\n  \"on_completed\": {},\n  \"on_queries_per_sec\": {:.4},\n  \"on_deadline_miss_rate\": {:.6},\n  \"queries_stolen\": {},\n  \"speedup\": {:.4}\n}}\n",
            self.queries,
            self.shards,
            self.zipf_keys,
            self.zipf_theta,
            self.steal_epoch_ms,
            self.off_completed,
            self.off_queries_per_sec,
            self.off_deadline_miss_rate,
            self.on_completed,
            self.on_queries_per_sec,
            self.on_deadline_miss_rate,
            self.queries_stolen,
            self.speedup,
        )
    }
}

/// Pulls `"key": <number>` out of the baseline JSON. The file is produced
/// by `to_json` above, so a flat scan is all the parsing needed.
fn json_number(text: &str, key: &str) -> Result<f64, String> {
    let pat = format!("\"{key}\":");
    let start = text.find(&pat).ok_or_else(|| format!("baseline is missing \"{key}\""))?;
    let rest = &text[start + pat.len()..];
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().map_err(|_| format!("baseline \"{key}\" is not a number"))
}

struct BenchSetup {
    ensemble: Ensemble,
    pipeline: SchembleConfig,
    workload: Workload,
    seed: u64,
}

/// Deterministic bench fixture with offered load scaled by `scale` (shard
/// sweeps keep per-shard load constant by growing the total with S).
fn setup(scale: usize) -> BenchSetup {
    let mut config = ExperimentConfig::paper_default(TaskKind::TextMatching, 42);
    config.n_queries = BASE_QUERIES * scale;
    config.traffic = Traffic::Poisson { rate_per_sec: BASE_RATE * scale as f64 };
    let mut ctx = ExperimentContext::new(config);
    let workload = ctx.workload();
    let art = ctx.artifacts().clone();
    let mut pipeline = SchembleConfig::new(
        Box::new(DpScheduler::default()),
        OnlineScorer::Predictor(art.predictor),
        art.profile,
    );
    pipeline.admission = ctx.config.admission;
    BenchSetup { ensemble: ctx.ensemble, pipeline, workload, seed: ctx.config.seed }
}

/// Fixture for the anytime accuracy-vs-compute comparison: the one-day
/// diurnal trace (mean 15 q/s, peak ≈ 44 q/s) the loadtest uses, so the
/// bench measures the policy where it matters — under a load swing, not
/// flat Poisson. Both passes share the seed; only `anytime` differs.
fn setup_anytime(anytime: Option<AnytimePolicy>) -> BenchSetup {
    let mut config = ExperimentConfig::paper_default(TaskKind::TextMatching, 42);
    config.n_queries = ANYTIME_QUERIES;
    config.traffic = Traffic::Diurnal { day_secs: ANYTIME_QUERIES as f64 / 15.0 };
    let mut ctx = ExperimentContext::new(config);
    let workload = ctx.workload();
    let art = ctx.artifacts().clone();
    let mut pipeline = SchembleConfig::new(
        Box::new(DpScheduler::default()),
        OnlineScorer::Predictor(art.predictor),
        art.profile,
    );
    pipeline.admission = ctx.config.admission;
    pipeline.anytime = anytime;
    BenchSetup { ensemble: ctx.ensemble, pipeline, workload, seed: ctx.config.seed }
}

/// One virtual-clock serve pass. Each pass gets a fresh sink so the
/// planning self-profile covers exactly this pass — warmup plans never
/// inflate a measured rate.
fn serve_once(bench: &BenchSetup, shards: usize) -> (ServeReport, Arc<TraceSink>) {
    let sink = TraceSink::enabled();
    // Events off: only the planning self-profile records, so the bench
    // measures the scheduler, not the trace ring.
    sink.set_enabled(false);
    let scfg = ServeConfig {
        mode: ClockMode::Virtual,
        trace: Some(Arc::clone(&sink)),
        shards,
        ..ServeConfig::default()
    };
    let report =
        serve_schemble(&bench.ensemble, &bench.pipeline, &bench.workload, bench.seed, &scfg);
    assert_eq!(report.stats.open(), 0, "bench run left queries open");
    (report, sink)
}

fn run_bench() -> BenchResult {
    let bench = setup(1);
    // Untimed warmup pass: first-touch page faults, lazy allocations and
    // branch-predictor training land here, not in the measured window.
    let _ = serve_once(&bench, 1);
    let (report, sink) = serve_once(&bench, 1);

    let p = &sink.planning;
    let plans = p.plans.load(Relaxed);
    BenchResult {
        queries: bench.workload.len(),
        p50_latency_ms: 1e3 * report.metrics.latency.quantile(0.50).unwrap_or(0.0),
        p99_latency_ms: 1e3 * report.metrics.latency.quantile(0.99).unwrap_or(0.0),
        queries_per_sec: bench.workload.len() as f64 / report.wall_secs.max(1e-9),
        plans_per_sec: plans as f64 / report.wall_secs.max(1e-9),
        sched_overhead_us: 1e6 * p.mean_secs().unwrap_or(0.0),
        wall_secs: report.wall_secs,
    }
}

/// One virtual-clock serve pass with the whole introspection stack armed:
/// event emission on, a flight recorder tapped into the sink, and the
/// post-run SLO/drift fold with both exports rendered.
fn serve_once_obs(bench: &BenchSetup) -> (ServeReport, usize, f64) {
    let sink = TraceSink::enabled();
    let recorder = Arc::new(FlightRecorder::new(4096, Some(u64::MAX)));
    sink.set_tap(Some(recorder.clone()));
    let scfg = ServeConfig {
        mode: ClockMode::Virtual,
        trace: Some(Arc::clone(&sink)),
        recorder: Some(recorder),
        ..ServeConfig::default()
    };
    let report =
        serve_schemble(&bench.ensemble, &bench.pipeline, &bench.workload, bench.seed, &scfg);
    assert_eq!(report.stats.open(), 0, "bench run left queries open");
    let events = sink.snapshot();
    let ocfg = ObsConfig {
        bins: 4,
        profiled_latencies_us: (0..bench.ensemble.m())
            .map(|k| bench.ensemble.latency(k).planned().as_micros())
            .collect(),
        ..ObsConfig::default()
    };
    let fold_start = Instant::now();
    let state = ObsState::fold(&ocfg, &events);
    let exports = state.slo_ndjson().len() + state.prometheus().len();
    assert!(exports > 0, "the fold produced both exports");
    let fold_ms = fold_start.elapsed().as_secs_f64() * 1e3;
    (report, events.len(), fold_ms)
}

fn run_obs_bench() -> Result<ObsResult, String> {
    let bench = setup(1);
    let _ = serve_once(&bench, 1); // warmup, untimed
    let (off, _) = serve_once(&bench, 1);
    let (on, events, obs_fold_ms) = serve_once_obs(&bench);

    let p99_off = 1e3 * off.metrics.latency.quantile(0.99).unwrap_or(0.0);
    let p99_on = 1e3 * on.metrics.latency.quantile(0.99).unwrap_or(0.0);
    let delta_pct = 100.0 * (p99_on - p99_off).abs() / p99_off.max(1e-9);
    let result = ObsResult {
        queries: bench.workload.len(),
        p99_obs_off_ms: p99_off,
        p99_obs_on_ms: p99_on,
        p99_obs_delta_pct: delta_pct,
        events,
        obs_fold_ms,
        wall_off_secs: off.wall_secs,
        wall_on_secs: on.wall_secs,
    };
    // The hard acceptance gate, applied on every run: full observability
    // must not move the virtual-clock p99 by more than 5%. Decision
    // neutrality actually makes the two identical; any gap at all means
    // the obs layer leaked into a scheduling decision.
    if delta_pct > 5.0 {
        return Err(format!(
            "observability perturbed p99: {p99_on:.4} ms with obs vs {p99_off:.4} ms without \
             ({delta_pct:.2}% > 5%)"
        ));
    }
    Ok(result)
}

fn check_obs(result: &ObsResult, baseline_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("reading {baseline_path}: {e}"))?;
    println!("obs regression check vs {baseline_path}:");
    let mut failures = Vec::new();
    for (label, new, key, tol, higher) in [
        // Deterministic under the virtual clock: tight gates.
        ("p99_obs_off_ms", result.p99_obs_off_ms, "p99_obs_off_ms", 0.20, false),
        ("p99_obs_on_ms", result.p99_obs_on_ms, "p99_obs_on_ms", 0.20, false),
        // Wall-clock dependent: loose gate, CI runners vary widely.
        ("obs_fold_ms", result.obs_fold_ms, "obs_fold_ms", 4.0, false),
    ] {
        if let Err(e) = gate(label, new, json_number(&text, key)?, tol, higher) {
            failures.push(e);
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn run_anytime_bench() -> Result<AnytimeResult, String> {
    let full = setup_anytime(None);
    let _ = serve_once(&full, 1); // warmup, untimed
    let (full_report, _) = serve_once(&full, 1);
    let any = setup_anytime(Some(AnytimePolicy::default()));
    let (any_report, _) = serve_once(&any, 1);

    let acc_full_pct = 100.0 * full_report.summary.accuracy();
    let acc_anytime_pct = 100.0 * any_report.summary.accuracy();
    let tasks_saved = any_report.snapshot.tasks_saved;
    // Everything the anytime run attempted: tasks that ran to completion
    // plus tasks it planned and then quit.
    let attempted = any_report.snapshot.tasks_completed + tasks_saved;
    let result = AnytimeResult {
        queries: full.workload.len(),
        acc_full_pct,
        acc_anytime_pct,
        acc_delta_pp: acc_full_pct - acc_anytime_pct,
        tasks_saved,
        saved_frac: tasks_saved as f64 / attempted.max(1) as f64,
        p99_full_ms: 1e3 * full_report.metrics.latency.quantile(0.99).unwrap_or(0.0),
        p99_anytime_ms: 1e3 * any_report.metrics.latency.quantile(0.99).unwrap_or(0.0),
        models_per_query_full: full_report.summary.mean_models_used(),
        models_per_query_anytime: any_report.summary.mean_models_used(),
        wall_full_secs: full_report.wall_secs,
        wall_anytime_secs: any_report.wall_secs,
    };
    // The hard acceptance gates, applied on every run (not just --check):
    // early exit must actually save meaningful work, and the saved work
    // must not cost meaningful accuracy.
    if result.saved_frac < 0.15 {
        return Err(format!(
            "anytime saved too little work: {:.1}% of attempted tasks quit (< 15% floor)",
            100.0 * result.saved_frac
        ));
    }
    if result.acc_delta_pp > 0.5 {
        return Err(format!(
            "anytime gave up too much accuracy: {:.2} pp drop ({:.2}% -> {:.2}%, > 0.5 pp ceiling)",
            result.acc_delta_pp, acc_full_pct, acc_anytime_pct
        ));
    }
    Ok(result)
}

fn check_anytime(result: &AnytimeResult, baseline_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("reading {baseline_path}: {e}"))?;
    println!("anytime regression check vs {baseline_path}:");
    let mut failures = Vec::new();
    for (label, new, key, tol, higher) in [
        // Virtual-clock deterministic: drift here is a decision change.
        ("p99_full_ms", result.p99_full_ms, "p99_full_ms", 0.20, false),
        ("p99_anytime_ms", result.p99_anytime_ms, "p99_anytime_ms", 0.20, false),
        ("saved_frac", result.saved_frac, "saved_frac", 0.25, true),
        ("acc_anytime_pct", result.acc_anytime_pct, "acc_anytime_pct", 0.01, true),
    ] {
        if let Err(e) = gate(label, new, json_number(&text, key)?, tol, higher) {
            failures.push(e);
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// Fixture for the cross-query batching sweep: the same one-day diurnal
/// shape the anytime bench uses, but offered at a mean rate the unbatched
/// executors cannot keep up with. Only `batch_max` varies across points;
/// `batch_max = 1` normalizes to no batching at all (the degradation
/// guarantee), making point `b1` the exact unbatched reference.
fn setup_batch(batch_max: usize) -> BenchSetup {
    let mut config = ExperimentConfig::paper_default(TaskKind::TextMatching, 42);
    config.n_queries = BATCH_QUERIES;
    config.traffic = Traffic::Diurnal { day_secs: BATCH_QUERIES as f64 / BATCH_RATE };
    let mut ctx = ExperimentContext::new(config);
    let workload = ctx.workload();
    let art = ctx.artifacts().clone();
    let mut pipeline = SchembleConfig::new(
        Box::new(DpScheduler::default()),
        OnlineScorer::Predictor(art.predictor),
        art.profile,
    );
    pipeline.admission = ctx.config.admission;
    pipeline.batching =
        Some(BatchConfig::new(batch_max, SimDuration::from_millis(BATCH_WINDOW_MS)));
    BenchSetup { ensemble: ctx.ensemble, pipeline, workload, seed: ctx.config.seed }
}

fn run_batch_sweep() -> Result<BatchSweep, String> {
    let mut points = Vec::with_capacity(BATCH_SWEEP.len());
    for &batch_max in &BATCH_SWEEP {
        let bench = setup_batch(batch_max);
        let (report, _) = serve_once(&bench, 1);
        let point = BatchPoint {
            batch_max,
            completed: report.stats.completed,
            queries_per_sec: report.stats.completed as f64 / report.sim_secs.max(1e-9),
            deadline_miss_rate: report.summary.deadline_miss_rate(),
            tasks_batched: report.snapshot.tasks_batched,
            p99_latency_ms: 1e3 * report.metrics.latency.quantile(0.99).unwrap_or(0.0),
        };
        println!(
            "  b={:<2} {:>5} completed  {:>8.1} q/s served  dmr {:>6.3}%  p99 {:>8.3} ms  {:>5} tasks batched",
            point.batch_max,
            point.completed,
            point.queries_per_sec,
            100.0 * point.deadline_miss_rate,
            point.p99_latency_ms,
            point.tasks_batched,
        );
        points.push(point);
    }
    let sweep = BatchSweep { points };

    // Hard acceptance gates, applied on every run (not just --check). All
    // three quantities are virtual-clock deterministic.
    let b1 = sweep.point(1);
    let b16 = sweep.point(16);
    if b1.tasks_batched != 0 {
        return Err(format!(
            "batch_max = 1 formed {} batched tasks; the reference point must be unbatched",
            b1.tasks_batched
        ));
    }
    if b16.tasks_batched == 0 {
        return Err("batch_max = 16 never batched under saturation".into());
    }
    let speedup = sweep.speedup(16);
    if speedup < B16_SPEEDUP_FLOOR {
        return Err(format!(
            "batching speedup too small: {speedup:.3}x served throughput at batch_max = 16 \
             (floor {B16_SPEEDUP_FLOOR:.2}x)"
        ));
    }
    let dmr_delta = b16.deadline_miss_rate - b1.deadline_miss_rate;
    if dmr_delta > BATCH_DMR_CEILING_PP {
        return Err(format!(
            "batching costs deadlines: miss rate {:.4} at batch_max = 16 vs {:.4} unbatched \
             (+{:.2} pp > +{:.2} pp ceiling)",
            b16.deadline_miss_rate,
            b1.deadline_miss_rate,
            100.0 * dmr_delta,
            100.0 * BATCH_DMR_CEILING_PP
        ));
    }
    Ok(sweep)
}

fn check_batch(sweep: &BatchSweep, baseline_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("reading {baseline_path}: {e}"))?;
    println!("batching check vs {baseline_path}:");
    let mut failures = Vec::new();

    // Every number in the sweep is virtual-clock deterministic — served
    // throughput is completed / sim_secs, not a wall rate — so the gates
    // are tight: any drift is a decision change, not noise.
    for p in &sweep.points {
        let b = p.batch_max;
        let qps_key = format!("b{b}_queries_per_sec");
        match json_number(&text, &qps_key) {
            Ok(base) => {
                if let Err(e) = gate(&qps_key, p.queries_per_sec, base, 0.05, true) {
                    failures.push(e);
                }
            }
            Err(e) => failures.push(e),
        }
        let dmr_key = format!("b{b}_deadline_miss_rate");
        match json_number(&text, &dmr_key) {
            Ok(base) => {
                let ceiling = base + BATCH_DMR_CEILING_PP;
                let regressed = p.deadline_miss_rate > ceiling;
                println!(
                    "  {dmr_key:<22} {:>10.4}  (baseline {base:>10.4}, max tolerated {ceiling:>10.4}) {}",
                    p.deadline_miss_rate,
                    if regressed { "REGRESSED" } else { "ok" }
                );
                if regressed {
                    failures.push(format!(
                        "{dmr_key} regressed: {:.4} vs baseline {base:.4}",
                        p.deadline_miss_rate
                    ));
                }
            }
            Err(e) => failures.push(e),
        }
    }
    match json_number(&text, "speedup_b16") {
        Ok(base) => {
            if let Err(e) = gate("speedup_b16", sweep.speedup(16), base, 0.10, true) {
                failures.push(e);
            }
        }
        Err(e) => failures.push(e),
    }

    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn run_shard_sweep() -> ShardSweep {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut points = Vec::with_capacity(SHARD_SWEEP.len());
    println!("  scaled offered load (per-shard pressure constant):");
    for &shards in &SHARD_SWEEP {
        let bench = setup(shards);
        let _ = serve_once(&bench, shards); // warmup, untimed
        let (report, _) = serve_once(&bench, shards);
        let point = ShardPoint {
            shards,
            queries: bench.workload.len(),
            queries_per_sec: bench.workload.len() as f64 / report.wall_secs.max(1e-9),
            p99_latency_ms: 1e3 * report.metrics.latency.quantile(0.99).unwrap_or(0.0),
            deadline_miss_rate: report.summary.deadline_miss_rate(),
        };
        println!(
            "  S={:<2} {:>5} queries  {:>9.0} q/s  p99 {:>8.3} ms  dmr {:>6.3}%  ({:.3}s wall)",
            point.shards,
            point.queries,
            point.queries_per_sec,
            point.p99_latency_ms,
            100.0 * point.deadline_miss_rate,
            report.wall_secs,
        );
        points.push(point);
    }
    // Fixed total offered load: the S=1 workload, re-served at every shard
    // count. Total work is constant, so any speedup is pure parallelism —
    // and the flattening of this series is the scaling plateau itself.
    let bench = setup(1);
    let mut fixed = Vec::with_capacity(SHARD_SWEEP.len());
    println!(
        "  fixed total offered load ({} queries at {BASE_RATE:.0} q/s):",
        bench.workload.len()
    );
    for &shards in &SHARD_SWEEP {
        let _ = serve_once(&bench, shards); // warmup, untimed
        let (report, _) = serve_once(&bench, shards);
        let point = ShardPoint {
            shards,
            queries: bench.workload.len(),
            queries_per_sec: bench.workload.len() as f64 / report.wall_secs.max(1e-9),
            p99_latency_ms: 1e3 * report.metrics.latency.quantile(0.99).unwrap_or(0.0),
            deadline_miss_rate: report.summary.deadline_miss_rate(),
        };
        println!(
            "  S={:<2} {:>5} queries  {:>9.0} q/s  p99 {:>8.3} ms  dmr {:>6.3}%  ({:.3}s wall)",
            point.shards,
            point.queries,
            point.queries_per_sec,
            point.p99_latency_ms,
            100.0 * point.deadline_miss_rate,
            report.wall_secs,
        );
        fixed.push(point);
    }
    ShardSweep { cores, points, fixed }
}

/// Fixture for the `--steal` comparison: a Zipfian hot-key trace whose
/// hash-routed partition overloads one shard while its siblings idle.
/// Deadlines are generous enough that queries survive a rebalancing hop
/// but tight enough that a saturated hot shard sheds them as expiries;
/// ForceAll admission keeps the offered set identical across both passes
/// so served throughput measures retirement capacity, not gatekeeping.
fn setup_steal() -> BenchSetup {
    let mut config = ExperimentConfig::paper_default(TaskKind::TextMatching, 42);
    config.n_queries = STEAL_QUERIES;
    config.traffic = Traffic::Poisson { rate_per_sec: STEAL_RATE };
    let mut config = config.with_deadline_millis(STEAL_DEADLINE_MS);
    config.admission = AdmissionMode::ForceAll;
    let mut ctx = ExperimentContext::new(config);
    let workload = ctx.workload().with_zipf_keys(STEAL_KEYS, STEAL_THETA, ctx.config.seed);
    let art = ctx.artifacts().clone();
    let mut pipeline = SchembleConfig::new(
        Box::new(DpScheduler::default()),
        OnlineScorer::Predictor(art.predictor),
        art.profile,
    );
    pipeline.admission = ctx.config.admission;
    BenchSetup { ensemble: ctx.ensemble, pipeline, workload, seed: ctx.config.seed }
}

/// One virtual-clock sharded pass with an optional steal epoch.
fn serve_once_steal(bench: &BenchSetup, steal_epoch: Option<SimDuration>) -> ServeReport {
    let scfg = ServeConfig {
        mode: ClockMode::Virtual,
        shards: STEAL_SHARDS,
        steal_epoch,
        ..ServeConfig::default()
    };
    let report =
        serve_schemble(&bench.ensemble, &bench.pipeline, &bench.workload, bench.seed, &scfg);
    assert_eq!(report.stats.open(), 0, "bench run left queries open");
    report
}

fn run_steal_bench() -> Result<StealResult, String> {
    let bench = setup_steal();
    let off = serve_once_steal(&bench, None);
    let on = serve_once_steal(&bench, Some(SimDuration::from_millis(STEAL_EPOCH_MS)));

    let off_qps = off.stats.completed as f64 / off.sim_secs.max(1e-9);
    let on_qps = on.stats.completed as f64 / on.sim_secs.max(1e-9);
    let result = StealResult {
        queries: bench.workload.len(),
        shards: STEAL_SHARDS,
        zipf_keys: STEAL_KEYS,
        zipf_theta: STEAL_THETA,
        steal_epoch_ms: STEAL_EPOCH_MS,
        off_completed: off.stats.completed,
        off_queries_per_sec: off_qps,
        off_deadline_miss_rate: off.summary.deadline_miss_rate(),
        on_completed: on.stats.completed,
        on_queries_per_sec: on_qps,
        on_deadline_miss_rate: on.summary.deadline_miss_rate(),
        queries_stolen: on.stats.stolen_in,
        speedup: on_qps / off_qps.max(1e-9),
    };

    // Hard acceptance gates, applied on every run (not just --check). All
    // of these are virtual-clock deterministic.
    if off.stats.stolen_in != 0 {
        return Err(format!(
            "steal-off pass stole {} queries; the reference must be untouched",
            off.stats.stolen_in
        ));
    }
    if result.queries_stolen == 0 {
        return Err("stealing-on pass never stole under a saturated hot key".into());
    }
    if result.speedup < STEAL_SPEEDUP_FLOOR {
        return Err(format!(
            "stealing speedup too small: {:.3}x served throughput at S = {STEAL_SHARDS} \
             (floor {STEAL_SPEEDUP_FLOOR:.2}x)",
            result.speedup
        ));
    }
    let dmr_delta = result.on_deadline_miss_rate - result.off_deadline_miss_rate;
    if dmr_delta > STEAL_DMR_CEILING_PP {
        return Err(format!(
            "stealing costs deadlines: miss rate {:.4} on vs {:.4} off \
             (+{:.2} pp > +{:.2} pp ceiling)",
            result.on_deadline_miss_rate,
            result.off_deadline_miss_rate,
            100.0 * dmr_delta,
            100.0 * STEAL_DMR_CEILING_PP
        ));
    }
    Ok(result)
}

fn check_steal(result: &StealResult, baseline_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("reading {baseline_path}: {e}"))?;
    println!("stealing check vs {baseline_path}:");
    let mut failures = Vec::new();
    // Virtual-clock deterministic throughout: tight gates, any drift is a
    // decision change rather than runner noise.
    for (label, new, key, tol, higher) in [
        ("off_queries_per_sec", result.off_queries_per_sec, "off_queries_per_sec", 0.05, true),
        ("on_queries_per_sec", result.on_queries_per_sec, "on_queries_per_sec", 0.05, true),
        ("speedup", result.speedup, "speedup", 0.10, true),
        ("queries_stolen", result.queries_stolen as f64, "queries_stolen", 0.25, true),
    ] {
        match json_number(&text, key) {
            Ok(base) => {
                if let Err(e) = gate(label, new, base, tol, higher) {
                    failures.push(e);
                }
            }
            Err(e) => failures.push(e),
        }
    }
    match json_number(&text, "on_deadline_miss_rate") {
        Ok(base) => {
            let ceiling = base + STEAL_DMR_CEILING_PP;
            let regressed = result.on_deadline_miss_rate > ceiling;
            println!(
                "  {:<22} {:>10.4}  (baseline {base:>10.4}, max tolerated {ceiling:>10.4}) {}",
                "on_deadline_miss_rate",
                result.on_deadline_miss_rate,
                if regressed { "REGRESSED" } else { "ok" }
            );
            if regressed {
                failures.push(format!(
                    "on_deadline_miss_rate regressed: {:.4} vs baseline {base:.4}",
                    result.on_deadline_miss_rate
                ));
            }
        }
        Err(e) => failures.push(e),
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// One gate: `label` regressed if the new value is worse than the baseline
/// by more than `tolerance` (relative). `higher_is_better` flips direction.
fn gate(
    label: &str,
    new: f64,
    base: f64,
    tolerance: f64,
    higher_is_better: bool,
) -> Result<(), String> {
    let regressed = if higher_is_better {
        new < base / (1.0 + tolerance)
    } else {
        new > base * (1.0 + tolerance)
    };
    let arrow = if higher_is_better { "min" } else { "max" };
    println!(
        "  {label:<22} {new:>10.3}  (baseline {base:>10.3}, {arrow} tolerated {:>10.3}) {}",
        if higher_is_better { base / (1.0 + tolerance) } else { base * (1.0 + tolerance) },
        if regressed { "REGRESSED" } else { "ok" }
    );
    if regressed {
        return Err(format!("{label} regressed: {new:.3} vs baseline {base:.3}"));
    }
    Ok(())
}

fn check(result: &BenchResult, baseline_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("reading {baseline_path}: {e}"))?;
    println!("regression check vs {baseline_path}:");
    let mut failures = Vec::new();
    for (label, new, key, tol, higher) in [
        ("p50_latency_ms", result.p50_latency_ms, "p50_latency_ms", 0.20, false),
        ("p99_latency_ms", result.p99_latency_ms, "p99_latency_ms", 0.20, false),
        ("queries_per_sec", result.queries_per_sec, "queries_per_sec", 3.0, true),
        ("plans_per_sec", result.plans_per_sec, "plans_per_sec", 3.0, true),
        ("sched_overhead_us", result.sched_overhead_us, "sched_overhead_us", 3.0, false),
    ] {
        if let Err(e) = gate(label, new, json_number(&text, key)?, tol, higher) {
            failures.push(e);
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn check_shards(sweep: &ShardSweep, baseline_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("reading {baseline_path}: {e}"))?;
    println!("shard-scaling check vs {baseline_path} ({} cores):", sweep.cores);
    let mut failures = Vec::new();

    // Per-S quality metrics are virtual-clock deterministic — any drift is
    // a decision change. p99 gates at 20%; the miss rate gates absolutely
    // (baselines can legitimately be 0, where a relative gate degenerates).
    for p in &sweep.points {
        let s = p.shards;
        let p99_key = format!("s{s}_p99_latency_ms");
        match json_number(&text, &p99_key) {
            Ok(base) => {
                if let Err(e) = gate(&p99_key, p.p99_latency_ms, base, 0.20, false) {
                    failures.push(e);
                }
            }
            Err(e) => failures.push(e),
        }
        let dmr_key = format!("s{s}_deadline_miss_rate");
        match json_number(&text, &dmr_key) {
            Ok(base) => {
                let ceiling = base + 0.01;
                let regressed = p.deadline_miss_rate > ceiling;
                println!(
                    "  {dmr_key:<22} {:>10.4}  (baseline {base:>10.4}, max tolerated {ceiling:>10.4}) {}",
                    p.deadline_miss_rate,
                    if regressed { "REGRESSED" } else { "ok" }
                );
                if regressed {
                    failures.push(format!(
                        "{dmr_key} regressed: {:.4} vs baseline {base:.4}",
                        p.deadline_miss_rate
                    ));
                }
            }
            Err(e) => failures.push(e),
        }
    }

    // Fixed-load quality metrics are just as deterministic: the same
    // workload partitioned S ways must reproduce its latency profile.
    for p in &sweep.fixed {
        let s = p.shards;
        let p99_key = format!("f{s}_p99_latency_ms");
        match json_number(&text, &p99_key) {
            Ok(base) => {
                if let Err(e) = gate(&p99_key, p.p99_latency_ms, base, 0.20, false) {
                    failures.push(e);
                }
            }
            Err(e) => failures.push(e),
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut write_path: Option<String> = None;
    let mut shards_mode = false;
    let mut obs_mode = false;
    let mut anytime_mode = false;
    let mut batch_mode = false;
    let mut steal_mode = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" if i + 1 < args.len() => {
                i += 1;
                out = Some(args[i].clone());
            }
            "--check" if i + 1 < args.len() => {
                i += 1;
                check_path = Some(args[i].clone());
            }
            "--write" if i + 1 < args.len() => {
                i += 1;
                write_path = Some(args[i].clone());
            }
            "--shards" => shards_mode = true,
            "--obs" => obs_mode = true,
            "--anytime" => anytime_mode = true,
            "--batch" => batch_mode = true,
            "--steal" => steal_mode = true,
            other => {
                eprintln!(
                    "usage: bench_serve [--shards|--obs|--anytime|--batch|--steal] [--out PATH] \
                     [--check BASELINE] [--write PATH]"
                );
                eprintln!("unknown argument '{other}'");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let (json, check_result) = if steal_mode {
        println!(
            "bench_serve --steal: hot-key trace (zipf theta {STEAL_THETA:.1} over {STEAL_KEYS} \
             keys) at S={STEAL_SHARDS}, steal epoch off vs {STEAL_EPOCH_MS} ms"
        );
        let result = match run_steal_bench() {
            Ok(result) => result,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "  off: {:>5} completed  {:>8.1} q/s served  dmr {:>6.3}%",
            result.off_completed,
            result.off_queries_per_sec,
            100.0 * result.off_deadline_miss_rate,
        );
        println!(
            "  on:  {:>5} completed  {:>8.1} q/s served  dmr {:>6.3}%  ({} stolen)",
            result.on_completed,
            result.on_queries_per_sec,
            100.0 * result.on_deadline_miss_rate,
            result.queries_stolen,
        );
        println!("  served-throughput speedup with stealing: x{:.2}", result.speedup);
        let check_result = check_path.as_deref().map(|p| check_steal(&result, p));
        (result.to_json(), check_result)
    } else if batch_mode {
        println!(
            "bench_serve --batch: cross-query batching sweep over batch_max in {BATCH_SWEEP:?} \
             on the saturated diurnal trace"
        );
        let sweep = match run_batch_sweep() {
            Ok(sweep) => sweep,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "  served-throughput speedups vs batch_max=1: x{:.2} (b=4), x{:.2} (b=16)",
            sweep.speedup(4),
            sweep.speedup(16),
        );
        let check_result = check_path.as_deref().map(|p| check_batch(&sweep, p));
        (sweep.to_json(), check_result)
    } else if anytime_mode {
        println!("bench_serve --anytime: accuracy vs compute on the diurnal trace");
        let result = match run_anytime_bench() {
            Ok(result) => result,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "  acc {:.2}% full vs {:.2}% anytime ({:+.2} pp); {} tasks quit ({:.1}% of \
             attempted); {:.2} vs {:.2} models/query; p99 {:.3} vs {:.3} ms",
            result.acc_full_pct,
            result.acc_anytime_pct,
            -result.acc_delta_pp,
            result.tasks_saved,
            100.0 * result.saved_frac,
            result.models_per_query_full,
            result.models_per_query_anytime,
            result.p99_full_ms,
            result.p99_anytime_ms,
        );
        let check_result = check_path.as_deref().map(|p| check_anytime(&result, p));
        (result.to_json(), check_result)
    } else if obs_mode {
        println!("bench_serve --obs: introspection overhead, obs-off vs full obs stack");
        let result = match run_obs_bench() {
            Ok(result) => result,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "  p99 {:.3} ms dark vs {:.3} ms with obs ({:.2}% delta); {} events, fold {:.2} ms, \
             wall {:.3}s vs {:.3}s",
            result.p99_obs_off_ms,
            result.p99_obs_on_ms,
            result.p99_obs_delta_pct,
            result.events,
            result.obs_fold_ms,
            result.wall_off_secs,
            result.wall_on_secs,
        );
        let check_result = check_path.as_deref().map(|p| check_obs(&result, p));
        (result.to_json(), check_result)
    } else if shards_mode {
        println!("bench_serve --shards: scaling sweep over S in {SHARD_SWEEP:?}");
        let sweep = run_shard_sweep();
        println!(
            "  scaled-load speedups vs S=1: x{:.2} (S=2), x{:.2} (S=4), x{:.2} (S=8) on {} cores",
            sweep.speedup(2),
            sweep.speedup(4),
            sweep.speedup(8),
            sweep.cores,
        );
        println!(
            "  fixed-load speedups vs S=1:  x{:.2} (S=2), x{:.2} (S=4), x{:.2} (S=8)",
            sweep.fixed_speedup(2),
            sweep.fixed_speedup(4),
            sweep.fixed_speedup(8),
        );
        let check_result = check_path.as_deref().map(|p| check_shards(&sweep, p));
        (sweep.to_json(), check_result)
    } else {
        let result = run_bench();
        println!(
            "bench_serve: {} queries, p50 {:.3} ms, p99 {:.3} ms, {:.0} q/s, {:.0} plans/s, {:.1} us/plan, {:.2}s wall",
            result.queries,
            result.p50_latency_ms,
            result.p99_latency_ms,
            result.queries_per_sec,
            result.plans_per_sec,
            result.sched_overhead_us,
            result.wall_secs,
        );
        let check_result = check_path.as_deref().map(|p| check(&result, p));
        (result.to_json(), check_result)
    };

    let out = out.unwrap_or_else(|| {
        if steal_mode {
            "BENCH_steal.json"
        } else if batch_mode {
            "BENCH_batch.json"
        } else if anytime_mode {
            "BENCH_anytime.json"
        } else if obs_mode {
            "BENCH_obs.json"
        } else if shards_mode {
            "BENCH_serve_shards.json"
        } else {
            "BENCH_serve.json"
        }
        .to_string()
    });
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("error: writing {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");
    if let Some(path) = write_path {
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote baseline {path}");
    }
    if let Some(Err(e)) = check_result {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
