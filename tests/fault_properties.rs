//! Properties of fault injection and degradation.
//!
//! 1. **Cross-backend determinism**: under any seeded [`FaultPlan`], a DES
//!    run and a virtual-clock serve run make byte-identical decisions and
//!    emit byte-identical traces (the serve runtime honours faults through
//!    the exact same `SimBackend` path).
//! 2. **Conservation**: faults never lose queries — submitted is always
//!    partitioned by completed + degraded + rejected + expired.
//! 3. **Decision neutrality**: a no-op plan (and a `None` policy) leaves
//!    every record identical to a fault-unaware run.

use proptest::prelude::*;
use schemble::core::engine::FailurePolicy;
use schemble::core::experiment::{ExperimentConfig, ExperimentContext, Traffic};
use schemble::core::pipeline::schemble::{run_schemble, run_schemble_faulted, SchembleConfig};
use schemble::data::TaskKind;
use schemble::serve::{serve_schemble, ClockMode, ServeConfig};
use schemble::sim::{CrashWindow, FaultPlan, SimTime, StragglerEpisode};
use schemble::trace::TraceSink;
use std::sync::Arc;

fn context(seed: u64, n_queries: usize) -> ExperimentContext {
    let mut config = ExperimentConfig::small(TaskKind::TextMatching, seed);
    config.n_queries = n_queries;
    config.traffic = Traffic::Poisson { rate_per_sec: 30.0 };
    ExperimentContext::new(config)
}

fn pipeline(ctx: &mut ExperimentContext, failure: Option<FailurePolicy>) -> SchembleConfig {
    let mut config = ctx.artifacts().pipeline();
    config.admission = ctx.config.admission;
    config.failure = failure;
    config
}

proptest! {
    // Each case runs two full pipelines; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any seeded plan: DES and virtual-clock serve agree byte-for-byte,
    /// and conservation (including degraded answers) holds in both.
    #[test]
    fn faulted_des_and_virtual_serve_stay_byte_identical(
        seed in 0u64..500,
        crash_exec in 0usize..3,
        crash_from in 0.2f64..4.0,
        crash_len in 0.2f64..3.0,
        strag_exec in 0usize..3,
        strag_from in 0.0f64..4.0,
        strag_len in 0.5f64..4.0,
        strag_mult in 1.5f64..8.0,
        transient in 0.0f64..0.08,
        use_timeout in proptest::bool::ANY,
    ) {
        let mut plan = FaultPlan::default();
        plan.crashes.push(CrashWindow {
            executor: crash_exec,
            from: SimTime::from_secs_f64(crash_from),
            until: SimTime::from_secs_f64(crash_from + crash_len),
        });
        plan.stragglers.push(StragglerEpisode {
            executor: strag_exec,
            from: SimTime::from_secs_f64(strag_from),
            until: SimTime::from_secs_f64(strag_from + strag_len),
            multiplier: strag_mult,
        });
        plan.transient_p = transient;
        if use_timeout {
            plan.timeout_quantile = Some(0.95);
        }

        let mut ctx = context(seed, 120);
        let workload = ctx.workload();
        let root = ctx.config.seed;

        let des_sink = TraceSink::enabled();
        let des_config = pipeline(&mut ctx, Some(FailurePolicy::default()));
        let des = run_schemble_faulted(
            &ctx.ensemble, &des_config, &workload, root, Arc::clone(&des_sink), Some(&plan),
        );

        let serve_sink = TraceSink::enabled();
        let serve_config = pipeline(&mut ctx, Some(FailurePolicy::default()));
        let scfg = ServeConfig {
            mode: ClockMode::Virtual,
            trace: Some(Arc::clone(&serve_sink)),
            faults: Some(plan.clone()),
            ..ServeConfig::default()
        };
        let report = serve_schemble(&ctx.ensemble, &serve_config, &workload, root, &scfg);

        prop_assert_eq!(
            report.summary.records(),
            des.records(),
            "faulted virtual serve must reproduce the faulted DES decisions"
        );
        prop_assert_eq!(
            serve_sink.snapshot(),
            des_sink.snapshot(),
            "fault traces must be byte-identical across backends"
        );
        let s = &report.stats;
        prop_assert_eq!(s.submitted, workload.len() as u64);
        prop_assert_eq!(
            s.submitted,
            s.completed + s.degraded + s.rejected + s.expired,
            "conservation with degradation"
        );
        prop_assert_eq!(s.open(), 0, "no query left open under faults");
        prop_assert_eq!(s.tasks_retried <= s.tasks_failed, true, "retries never exceed failures");
    }
}

/// A no-op plan plus an explicit policy that never fires must not change a
/// single record relative to the plain fault-unaware pipeline.
#[test]
fn noop_plan_is_decision_neutral() {
    let mut ctx = context(42, 200);
    let workload = ctx.workload();
    let root = ctx.config.seed;

    let plain_config = pipeline(&mut ctx, None);
    let plain = run_schemble(&ctx.ensemble, &plain_config, &workload, root);

    let noop_config = pipeline(&mut ctx, None);
    let noop = run_schemble_faulted(
        &ctx.ensemble,
        &noop_config,
        &workload,
        root,
        TraceSink::disabled(),
        Some(&FaultPlan::default()),
    );
    assert_eq!(plain.records(), noop.records(), "a no-op plan must change nothing");
}

/// Wall-clock smoke under a crash + straggler + transient plan: the threaded
/// runtime terminates, conserves queries, and reports fault activity.
#[test]
fn wall_clock_faulted_run_conserves_and_terminates() {
    let plan =
        FaultPlan::parse("crash 1 0.5 2.0\nstraggle 0 0.5 3.0 5.0\ntransient 0.05\ntimeout-q 0.95")
            .expect("plan parses");
    let mut ctx = context(7, 120);
    let workload = ctx.workload();
    let root = ctx.config.seed;
    let config = pipeline(&mut ctx, Some(FailurePolicy::default()));
    let scfg = ServeConfig {
        mode: ClockMode::Wall { dilation: 50.0 },
        faults: Some(plan),
        ..ServeConfig::default()
    };
    let report = serve_schemble(&ctx.ensemble, &config, &workload, root, &scfg);
    let s = &report.stats;
    assert_eq!(s.submitted, workload.len() as u64);
    assert_eq!(s.submitted, s.completed + s.degraded + s.rejected + s.expired);
    assert_eq!(s.open(), 0, "no wedged queries under faults");
    assert!(s.tasks_failed > 0, "the plan must actually inject failures");
}
