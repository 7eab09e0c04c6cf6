//! End-to-end tests for the introspection layer (`schemble-obs`).
//!
//! The contract under test: (1) the obs exports — SLO time-series NDJSON
//! and the introspection Prometheus exposition — are *byte-identical*
//! between a DES run and a virtual-clock serve run of the same seeded
//! trace, because both are pure folds over the same event stream; (2) a
//! sharded virtual-clock run's exports are invariant to thread
//! interleaving (proptested over shard counts and seeds); (3) the plan
//! explainer reconstructs a coherent causal timeline for any traced
//! query; (4) a flight recorder tapped into a faulted serve run trips and
//! dumps well-formed JSON.

use proptest::prelude::*;
use schemble::core::experiment::{ExperimentConfig, ExperimentContext, Traffic};
use schemble::core::pipeline::schemble::{run_schemble_traced, SchembleConfig};
use schemble::data::TaskKind;
use schemble::obs::{explain_query, FlightRecorder, ObsConfig, ObsState, Outcome, TripReason};
use schemble::serve::{serve_schemble, ClockMode, ServeConfig};
use schemble::sim::{FaultPlan, SimDuration};
use schemble::trace::{json, TraceEvent, TraceSink};
use std::sync::Arc;

fn context(seed: u64, n_queries: usize) -> ExperimentContext {
    let mut config = ExperimentConfig::paper_default(TaskKind::TextMatching, seed);
    config.n_queries = n_queries;
    config.traffic = Traffic::Diurnal { day_secs: n_queries as f64 / 15.0 };
    ExperimentContext::new(config)
}

fn schemble_config(ctx: &mut ExperimentContext) -> SchembleConfig {
    let mut config = ctx.artifacts().pipeline();
    config.admission = ctx.config.admission;
    config
}

fn obs_config(ctx: &mut ExperimentContext) -> ObsConfig {
    ObsConfig {
        window: SimDuration::from_millis(1000),
        bins: ctx.artifacts().profile.bins(),
        profiled_latencies_us: ctx
            .ensemble
            .planned_latencies()
            .iter()
            .map(|d| d.as_micros())
            .collect(),
        ..ObsConfig::default()
    }
}

/// Both obs exports from one event stream.
fn exports(cfg: &ObsConfig, events: &[TraceEvent]) -> (String, String) {
    let state = ObsState::fold(cfg, events);
    (state.slo_ndjson(), state.prometheus())
}

#[test]
fn obs_exports_are_byte_identical_between_des_and_virtual_serve() {
    let mut ctx = context(42, 400);
    let workload = ctx.workload();
    let seed = ctx.config.seed;
    let ocfg = obs_config(&mut ctx);

    let des_sink = TraceSink::enabled();
    let des_cfg = schemble_config(&mut ctx);
    run_schemble_traced(&ctx.ensemble, &des_cfg, &workload, seed, Arc::clone(&des_sink));

    let serve_sink = TraceSink::enabled();
    let serve_cfg = ServeConfig {
        mode: ClockMode::Virtual,
        trace: Some(Arc::clone(&serve_sink)),
        ..ServeConfig::default()
    };
    let pipeline = schemble_config(&mut ctx);
    serve_schemble(&ctx.ensemble, &pipeline, &workload, seed, &serve_cfg);

    let (des_slo, des_prom) = exports(&ocfg, &des_sink.snapshot());
    let (srv_slo, srv_prom) = exports(&ocfg, &serve_sink.snapshot());
    assert!(!des_slo.is_empty() && !des_prom.is_empty());
    json::validate_ndjson(&des_slo).expect("well-formed SLO NDJSON");
    assert_eq!(des_slo, srv_slo, "SLO NDJSON must not depend on the backend");
    assert_eq!(des_prom, srv_prom, "obs Prometheus must not depend on the backend");
    assert!(
        des_prom.contains("schemble_obs_drift_pairs_total"),
        "the calibration detector saw predicted/realized pairs"
    );
}

#[test]
fn explainer_reconstructs_a_coherent_timeline() {
    let mut ctx = context(42, 300);
    let workload = ctx.workload();
    let seed = ctx.config.seed;
    let sink = TraceSink::enabled();
    let cfg = schemble_config(&mut ctx);
    let summary = run_schemble_traced(&ctx.ensemble, &cfg, &workload, seed, Arc::clone(&sink));
    let events = sink.snapshot();

    let mut explained = 0usize;
    for record in summary.records() {
        let Some(ex) = explain_query(&events, record.id) else {
            panic!("query {} arrived but has no explanation", record.id);
        };
        assert_eq!(ex.query, record.id);
        if matches!(ex.outcome, Outcome::Completed { .. } | Outcome::Degraded { .. }) {
            assert!(!ex.assigns.is_empty(), "resolved query {} was never planned", record.id);
            for plan in &ex.assigns {
                assert!(plan.frontier >= 1, "a DP plan visits at least one frontier layer");
            }
        }
        assert!(!matches!(ex.outcome, Outcome::Open), "run finished; nothing stays open");
        let text = ex.render();
        assert!(text.starts_with(&format!("query {}\n", record.id)));
        explained += 1;
    }
    assert_eq!(explained, summary.len());
}

#[test]
fn tapped_flight_recorder_trips_on_expiry_storm_and_dumps_valid_json() {
    let mut ctx = context(42, 200);
    let workload = ctx.workload();
    let seed = ctx.config.seed;
    // Every executor dark for the whole run: admitted queries can only
    // expire, so a threshold of 1 must trip the recorder.
    let faults = FaultPlan::parse("crash 0 0.0 1e9\ncrash 1 0.0 1e9\ncrash 2 0.0 1e9").unwrap();
    let recorder = Arc::new(FlightRecorder::new(256, Some(1)));
    let sink = TraceSink::disabled();
    sink.set_tap(Some(recorder.clone()));
    let serve_cfg = ServeConfig {
        mode: ClockMode::Virtual,
        trace: Some(Arc::clone(&sink)),
        faults: Some(faults),
        failure: Some(Default::default()),
        recorder: Some(recorder.clone()),
        ..ServeConfig::default()
    };
    let pipeline = schemble_config(&mut ctx);
    serve_schemble(&ctx.ensemble, &pipeline, &workload, seed, &serve_cfg);

    assert_eq!(recorder.tripped(), Some(TripReason::SloBreach));
    let dump = recorder.dump_json();
    json::validate(&dump).expect("schema-valid flight-recorder dump");
    assert!(dump.contains("\"reason\":\"slo-breach\""));
    assert!(!recorder.events().is_empty(), "the ring retained the events leading to the trip");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A sharded virtual-clock run's obs exports are a deterministic
    /// function of (seed, shards): re-running the same configuration —
    /// with shard threads racing differently — reproduces them byte for
    /// byte, and dropping the whole stream through the fold twice is a
    /// no-op.
    #[test]
    fn sharded_obs_exports_are_invariant_to_interleaving(
        seed in 1u64..1000,
        shards in 2usize..=4,
    ) {
        let mut config = ExperimentConfig::small(TaskKind::TextMatching, seed);
        config.n_queries = 120;
        config.traffic = Traffic::Poisson { rate_per_sec: 40.0 };
        let mut ctx = ExperimentContext::new(config);
        let workload = ctx.workload();
        let seed = ctx.config.seed;
        let ocfg = obs_config(&mut ctx);
        let pipeline = schemble_config(&mut ctx);

        let run = || {
            let sink = TraceSink::enabled();
            let serve_cfg = ServeConfig {
                mode: ClockMode::Virtual,
                trace: Some(Arc::clone(&sink)),
                shards,
                ..ServeConfig::default()
            };
            serve_schemble(&ctx.ensemble, &pipeline, &workload, seed, &serve_cfg);
            exports(&ocfg, &sink.snapshot())
        };
        let (slo_a, prom_a) = run();
        let (slo_b, prom_b) = run();
        prop_assert!(!slo_a.is_empty());
        prop_assert_eq!(slo_a, slo_b);
        prop_assert_eq!(prom_a, prom_b);
    }
}
