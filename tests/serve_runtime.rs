//! The serving runtime against the discrete-event simulator.
//!
//! Under `ClockMode::Virtual` the runtime drives the *same* engine over the
//! *same* `SimBackend` the DES pipelines use, so its admission decisions,
//! model sets and completion times must reproduce the DES run bit-for-bit
//! on the same seeded trace. A wall-clock smoke run then checks the
//! threaded runtime completes a replayed trace and conserves queries.

use schemble::core::experiment::{ExperimentConfig, ExperimentContext, Traffic};
use schemble::core::pipeline::schemble::{run_schemble, SchembleConfig};
use schemble::core::pipeline::{
    run_immediate, AdmissionMode, Deployment, FullEnsemblePolicy, ResultAssembler,
};
use schemble::data::TaskKind;
use schemble::serve::{serve_immediate, serve_schemble, ClockMode, ServeConfig};

fn context(n_queries: usize) -> ExperimentContext {
    let mut config = ExperimentConfig::paper_default(TaskKind::TextMatching, 42);
    config.n_queries = n_queries;
    config.traffic = Traffic::Diurnal { day_secs: n_queries as f64 / 15.0 };
    ExperimentContext::new(config)
}

fn schemble_config(ctx: &mut ExperimentContext) -> SchembleConfig {
    let mut config = ctx.artifacts().pipeline();
    config.admission = ctx.config.admission;
    config
}

#[test]
fn virtual_clock_schemble_matches_des_pipeline() {
    let mut ctx = context(600);
    let workload = ctx.workload();
    let seed = ctx.config.seed;

    let des_config = schemble_config(&mut ctx);
    let des = run_schemble(&ctx.ensemble, &des_config, &workload, seed);

    let serve_cfg = ServeConfig { mode: ClockMode::Virtual, ..ServeConfig::default() };
    let runtime_config = schemble_config(&mut ctx);
    let report = serve_schemble(&ctx.ensemble, &runtime_config, &workload, seed, &serve_cfg);

    assert_eq!(
        report.summary.records(),
        des.records(),
        "virtual-clock runtime must reproduce the DES pipeline's per-query decisions"
    );
    assert_eq!(report.stats.submitted, workload.len() as u64);
    assert_eq!(report.stats.open(), 0, "no query left open after the run");
    // Busy-time accounting flows through the same ExecutorUsage path.
    for (a, b) in report.summary.usage().iter().zip(des.usage()) {
        assert!((a.busy_secs - b.busy_secs).abs() < 1e-9, "{} vs {}", a.busy_secs, b.busy_secs);
        assert_eq!(a.tasks, b.tasks);
    }
}

#[test]
fn virtual_clock_original_matches_des_pipeline() {
    let ctx = context(500);
    let workload = ctx.workload();
    let seed = ctx.config.seed;
    let m = ctx.ensemble.m();
    let deployment = Deployment::identity(m);

    let des = run_immediate(
        &ctx.ensemble,
        &deployment,
        &mut FullEnsemblePolicy,
        &ResultAssembler::Direct,
        &workload,
        AdmissionMode::Reject,
        seed,
    );

    let serve_cfg = ServeConfig { mode: ClockMode::Virtual, ..ServeConfig::default() };
    let report = serve_immediate(
        &ctx.ensemble,
        &deployment,
        &mut FullEnsemblePolicy,
        &ResultAssembler::Direct,
        AdmissionMode::Reject,
        &workload,
        seed,
        &serve_cfg,
    );

    assert_eq!(report.summary.records(), des.records());
    let s = &report.stats;
    assert_eq!(s.submitted, s.completed + s.rejected + s.expired);
}

#[test]
fn wall_clock_runtime_replays_a_trace_to_completion() {
    let mut ctx = context(200);
    let workload = ctx.workload();
    let seed = ctx.config.seed;
    let config = schemble_config(&mut ctx);

    // High dilation keeps the test fast; decisions may drift from the DES
    // under real timing, but conservation and termination must hold.
    let serve_cfg =
        ServeConfig { mode: ClockMode::Wall { dilation: 100.0 }, ..ServeConfig::default() };
    let report = serve_schemble(&ctx.ensemble, &config, &workload, seed, &serve_cfg);

    let s = &report.stats;
    assert_eq!(s.submitted, workload.len() as u64, "every arrival reached the engine");
    assert_eq!(
        s.submitted,
        s.completed + s.rejected + s.expired,
        "each query resolved exactly once"
    );
    assert_eq!(report.summary.len(), workload.len());
    assert!(report.wall_secs > 0.0 && report.sim_secs > 0.0);
    // The metrics record was last written after the drain: it holds the
    // engine's final counters and one latency per answer.
    let record = report.metrics.lock();
    assert_eq!(record.stats, *s);
    assert_eq!(record.latency.count(), s.completed + s.degraded);
}
