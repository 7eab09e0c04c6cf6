//! Behavioural floors of the serving runtime, as deterministic assertions.
//!
//! Every run here is a seeded virtual-clock pass, so each number below is
//! exactly reproducible: a pinned quantile that moves is a decision change,
//! and a floor is judged on simulated — never wall — time. Nothing is timed;
//! throughput, overhead and latency under load are measured by `benchmark/`
//! (`BENCHMARK.json`) on runs long enough to repeat.
//!
//! "Served throughput" is completed queries per *simulated* second: how much
//! of the offered load the executors actually retired.

use schemble::core::engine::AnytimePolicy;
use schemble::core::experiment::{ExperimentConfig, ExperimentContext, Traffic};
use schemble::core::pipeline::schemble::SchembleConfig;
use schemble::core::pipeline::AdmissionMode;
use schemble::data::{TaskKind, Workload};
use schemble::models::Ensemble;
use schemble::obs::{FlightRecorder, ObsConfig, ObsState};
use schemble::serve::{serve_schemble, ClockMode, ServeConfig, ServeReport};
use schemble::sim::{BatchConfig, SimDuration};
use schemble::trace::TraceSink;
use std::sync::Arc;

/// The flat reference load: 600 Poisson queries at 35 q/s, just under what
/// one unbatched engine saturates at. The shard sweep scales both by S.
const BASE_QUERIES: usize = 600;
const BASE_RATE: f64 = 35.0;

struct Fixture {
    ensemble: Ensemble,
    pipeline: SchembleConfig,
    workload: Workload,
    seed: u64,
}

/// The paper's text-matching setup at seed 42 with the given load.
fn config(n_queries: usize, traffic: Traffic) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_default(TaskKind::TextMatching, 42);
    config.n_queries = n_queries;
    config.traffic = traffic;
    config
}

fn poisson(scale: usize) -> ExperimentConfig {
    config(BASE_QUERIES * scale, Traffic::Poisson { rate_per_sec: BASE_RATE * scale as f64 })
}

/// A one-day diurnal trace (peak ≈ 2.9x the mean) at `mean_rate` q/s.
fn diurnal(n_queries: usize, mean_rate: f64) -> ExperimentConfig {
    config(n_queries, Traffic::Diurnal { day_secs: n_queries as f64 / mean_rate })
}

fn fixture(config: ExperimentConfig) -> Fixture {
    // Task, seed and training history are the same in every gate, so the
    // trained artifacts are too: the process-wide cache trains them once,
    // whichever test gets here first.
    let mut ctx = ExperimentContext::new(config);
    let workload = ctx.workload();
    let mut pipeline = ctx.artifacts().pipeline();
    pipeline.admission = ctx.config.admission;
    Fixture { ensemble: ctx.ensemble, pipeline, workload, seed: ctx.config.seed }
}

/// One virtual-clock pass that must leave no query open.
fn serve(fx: &Fixture, config: ServeConfig) -> ServeReport {
    let config = ServeConfig { mode: ClockMode::Virtual, ..config };
    let report = serve_schemble(&fx.ensemble, &fx.pipeline, &fx.workload, fx.seed, &config);
    assert_eq!(report.stats.open(), 0, "the run left queries open");
    report
}

fn sharded(shards: usize) -> ServeConfig {
    ServeConfig { shards, ..ServeConfig::default() }
}

/// A latency quantile in milliseconds, to the four decimals it is pinned at.
/// The runtime histogram reports a bucket's geometric midpoint and buckets
/// are ~9 % wide, so a pinned quantile moves only when latency shifts by a
/// bucket; the miss rates pinned beside it move with a single query.
fn latency_ms(report: &ServeReport, q: f64) -> String {
    format!("{:.4}", 1e3 * report.metrics.lock().latency.quantile(q).expect("queries completed"))
}

fn miss_rate(report: &ServeReport) -> String {
    format!("{:.6}", report.summary.deadline_miss_rate())
}

fn served_per_sec(report: &ServeReport) -> f64 {
    report.stats.completed as f64 / report.sim_secs
}

#[test]
fn poisson_reference_run_pins_its_latency_quantiles() {
    let report = serve(&fixture(poisson(1)), ServeConfig::default());
    assert_eq!(report.stats.submitted, BASE_QUERIES as u64);
    assert_eq!(latency_ms(&report, 0.50), "75.6135", "p50 moved: a decision changed");
    assert_eq!(latency_ms(&report, 0.99), "106.9336", "p99 moved: a decision changed");
}

/// S ∈ {1, 2, 4, 8}: once with the offered load scaled by S, so per-shard
/// pressure — and hence the latency profile — stays constant, and once with
/// the S = 1 load held fixed, where more shards mean fewer misses.
#[test]
fn shard_sweep_pins_p99_and_miss_rate_per_shard_count() {
    // (shards, p99 ms, deadline-miss rate)
    const SCALED: [(usize, &str, &str); 4] = [
        (1, "106.9336", "0.015000"),
        (2, "106.9336", "0.016667"),
        (4, "106.9336", "0.022500"),
        (8, "106.9336", "0.016458"),
    ];
    const FIXED: [(usize, &str, &str); 4] = [
        (1, "106.9336", "0.015000"),
        (2, "106.9336", "0.005000"),
        (4, "98.0586", "0.001667"),
        (8, "98.0586", "0.000000"),
    ];
    for (shards, p99, dmr) in SCALED {
        let fx = fixture(poisson(shards));
        assert_eq!(fx.workload.len(), BASE_QUERIES * shards);
        let report = serve(&fx, sharded(shards));
        let got = (latency_ms(&report, 0.99), miss_rate(&report));
        assert_eq!(got, (p99.into(), dmr.into()), "scaled load, S = {shards}");
    }
    let fx = fixture(poisson(1));
    for (shards, p99, dmr) in FIXED {
        let report = serve(&fx, sharded(shards));
        let got = (latency_ms(&report, 0.99), miss_rate(&report));
        assert_eq!(got, (p99.into(), dmr.into()), "fixed load, S = {shards}");
    }
}

/// Event emission, a tapped flight recorder and the post-run SLO/drift fold
/// all on: not one record may differ from the dark run.
#[test]
fn full_observability_changes_no_record() {
    let fx = fixture(poisson(1));
    let dark = serve(&fx, ServeConfig::default());

    let sink = TraceSink::enabled();
    let recorder = Arc::new(FlightRecorder::new(4096, Some(u64::MAX)));
    sink.set_tap(Some(recorder.clone()));
    let observed = serve(
        &fx,
        ServeConfig {
            trace: Some(Arc::clone(&sink)),
            recorder: Some(recorder),
            ..ServeConfig::default()
        },
    );
    let obs = ObsConfig {
        bins: 4,
        profiled_latencies_us: fx
            .ensemble
            .planned_latencies()
            .iter()
            .map(|d| d.as_micros())
            .collect(),
        ..ObsConfig::default()
    };
    let state = ObsState::fold(&obs, &sink.snapshot());
    assert!(!state.slo_ndjson().is_empty() && !state.prometheus().is_empty());

    assert_eq!(observed.summary.records(), dark.summary.records());
    assert_eq!(latency_ms(&observed, 0.99), latency_ms(&dark, 0.99));
}

/// On the one-day diurnal trace (mean 15 q/s) the default anytime policy
/// must quit a real share of the tasks it attempts, and quitting them must
/// not cost accuracy.
#[test]
fn anytime_saves_work_without_costing_accuracy() {
    const SAVED_FLOOR: f64 = 0.15;
    const ACCURACY_LOSS_CEILING_PP: f64 = 0.5;
    let mut fx = fixture(diurnal(1500, 15.0));
    let full = serve(&fx, ServeConfig::default());
    fx.pipeline.anytime = Some(AnytimePolicy::default());
    let anytime = serve(&fx, ServeConfig::default());

    let saved = anytime.stats.tasks_saved;
    let attempted = anytime.metrics.lock().tasks.completed + saved;
    let saved_frac = saved as f64 / attempted as f64;
    assert!(
        saved_frac >= SAVED_FLOOR,
        "anytime quit {saved} of {attempted} attempted tasks ({saved_frac:.4} < {SAVED_FLOOR})"
    );
    let (acc_full, acc_anytime) = (full.summary.accuracy(), anytime.summary.accuracy());
    let loss_pp = 100.0 * (acc_full - acc_anytime);
    assert!(
        loss_pp <= ACCURACY_LOSS_CEILING_PP,
        "anytime gave up {loss_pp:.4} pp of accuracy ({acc_full:.4} -> {acc_anytime:.4})"
    );
}

/// The same diurnal shape offered at 90 q/s, far above unbatched capacity:
/// `batch_max = 16` must retire much more of it without missing more
/// deadlines. `batch_max = 1` is the unbatched run by construction.
#[test]
fn batching_lifts_served_throughput_at_no_deadline_cost() {
    const SPEEDUP_FLOOR: f64 = 1.5;
    const MISS_RATE_CEILING: f64 = 0.01;
    let mut fx = fixture(diurnal(1500, 90.0));
    let mut batched = |batch_max: usize| {
        fx.pipeline.batching = Some(BatchConfig::new(batch_max, SimDuration::from_millis(2)));
        serve(&fx, ServeConfig::default())
    };
    let (b1, b16) = (batched(1), batched(16));

    assert_eq!(b1.metrics.lock().tasks.batched, 0, "batch_max = 1 must not batch");
    assert!(b16.metrics.lock().tasks.batched > 0, "batch_max = 16 never batched under saturation");
    let speedup = served_per_sec(&b16) / served_per_sec(&b1);
    assert!(speedup >= SPEEDUP_FLOOR, "batching served only {speedup:.4}x (< {SPEEDUP_FLOOR}x)");
    let (dmr1, dmr16) = (b1.summary.deadline_miss_rate(), b16.summary.deadline_miss_rate());
    assert!(dmr16 - dmr1 <= MISS_RATE_CEILING, "batching costs deadlines: {dmr1:.4} -> {dmr16:.4}");
}

/// A Zipfian hot-key trace (θ = 2 over 64 keys) at S = 4 and 140 q/s: the
/// hash router saturates one shard while the ensemble as a whole has
/// headroom. 150 ms deadlines survive a rebalancing hop but not a saturated
/// queue, and `ForceAll` keeps the offered set equal across both passes.
#[test]
fn stealing_lifts_served_throughput_on_a_hot_key_trace() {
    const SPEEDUP_FLOOR: f64 = 1.5;
    const MISS_RATE_CEILING: f64 = 0.01;
    let mut config = config(1200, Traffic::Poisson { rate_per_sec: 140.0 });
    config = config.with_deadline_millis(150.0);
    config.admission = AdmissionMode::ForceAll;
    let mut fx = fixture(config);
    fx.workload = fx.workload.with_zipf_keys(64, 2.0, fx.seed);

    let off = serve(&fx, sharded(4));
    let on =
        serve(&fx, ServeConfig { steal_epoch: Some(SimDuration::from_millis(50)), ..sharded(4) });
    assert_eq!(off.stats.stolen_in, 0, "the steal-off pass must not steal");
    assert!(on.stats.stolen_in > 0, "the steal-on pass never stole under a saturated hot key");
    let speedup = served_per_sec(&on) / served_per_sec(&off);
    assert!(speedup >= SPEEDUP_FLOOR, "stealing served only {speedup:.4}x (< {SPEEDUP_FLOOR}x)");
    let (dmr_off, dmr_on) = (off.summary.deadline_miss_rate(), on.summary.deadline_miss_rate());
    assert!(
        dmr_on - dmr_off <= MISS_RATE_CEILING,
        "stealing costs deadlines: {dmr_off:.4} -> {dmr_on:.4}"
    );
}
