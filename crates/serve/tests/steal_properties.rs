//! Properties of deterministic inter-shard work stealing.
//!
//! The load-bearing contracts, in order of importance:
//!
//! 1. **Off means off**: `steal_epoch: None` takes exactly the code path
//!    main shipped before stealing existed, and an epoch so large that no
//!    boundary fires inside the run is *byte-identical* to `None` — same
//!    records, stats, audit lines, Prometheus text.
//! 2. **Determinism**: with stealing enabled the run is still a pure
//!    function of (workload, seed, config). Re-running the same skewed
//!    sharded configuration — whatever thread schedule the OS picks —
//!    reproduces every merged artifact byte-for-byte, at S = 2 and S = 4,
//!    with and without an injected fault plan.
//! 3. **Conservation**: every stolen query resolves exactly once, on some
//!    shard. Globally `submitted == completed + degraded + rejected +
//!    expired`, `stolen_in == stolen_out`, one record and one audit line
//!    per query, and the merged id set is exactly the workload's.
//! 4. **Causal order**: in the merged stream no event of a query precedes
//!    its arrival — a thief never adopts a query its victim has yet to see.

use proptest::prelude::*;
use schemble_core::experiment::{ExperimentConfig, ExperimentContext, Traffic};
use schemble_core::pipeline::schemble::SchembleConfig;
use schemble_core::pipeline::AdmissionMode;
use schemble_data::{TaskKind, Workload};
use schemble_models::Ensemble;
use schemble_serve::{serve_schemble, ClockMode, ServeConfig, ServeReport};
use schemble_sim::{BatchConfig, FaultPlan, SimDuration};
use schemble_trace::{audit_records, prometheus_text, TraceEvent, TraceSink};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

struct Fixture {
    ensemble: Ensemble,
    pipeline: SchembleConfig,
    workload: Workload,
    seed: u64,
}

/// A hot-key fixture: queries are re-keyed with a Zipfian draw over `keys`
/// keys at skew `theta`, so the hash router concentrates load on few
/// shards — the regime stealing exists for.
fn fixture(seed: u64, n_queries: usize, rate: f64, keys: usize, theta: f64) -> Fixture {
    let mut config = ExperimentConfig::small(TaskKind::TextMatching, seed);
    config.n_queries = n_queries;
    config.traffic = Traffic::Poisson { rate_per_sec: rate };
    let mut config = config.with_deadline_millis(150.0);
    config.admission = AdmissionMode::ForceAll;
    let mut ctx = ExperimentContext::new(config);
    let workload = ctx.workload().with_zipf_keys(keys, theta, seed);
    let mut pipeline = ctx.artifacts().pipeline();
    pipeline.admission = ctx.config.admission;
    let seed = ctx.config.seed;
    Fixture { ensemble: ctx.ensemble, pipeline, workload, seed }
}

/// One sharded virtual-clock run, checked for causal order; returns the
/// report plus its exported artifacts (Prometheus text sans the wall-clock
/// planning profile, audit lines in id order).
fn run_once(
    fx: &Fixture,
    shards: usize,
    steal_epoch: Option<SimDuration>,
    faults: Option<FaultPlan>,
) -> (ServeReport, String, Vec<String>) {
    let sink = TraceSink::enabled();
    let config = ServeConfig {
        mode: ClockMode::Virtual,
        trace: Some(Arc::clone(&sink)),
        shards,
        steal_epoch,
        faults,
        ..ServeConfig::default()
    };
    let report = serve_schemble(&fx.ensemble, &fx.pipeline, &fx.workload, fx.seed, &config);
    let events = sink.drain();
    assert_causal(&events);
    let prom = prometheus_text(&report.metrics, report.sim_secs, None);
    let audit: Vec<String> = audit_records(&events).iter().map(|r| r.to_json_line()).collect();
    (report, prom, audit)
}

/// No event of a query precedes its `Arrival`, and every adoption happens
/// at or after the arrival it carries.
fn assert_causal(events: &[TraceEvent]) {
    let arrivals: HashMap<u64, _> = events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::Arrival { t, query, .. } => Some((query, t)),
            _ => None,
        })
        .collect();
    for e in events {
        if let TraceEvent::QueryStolen { t, query, arrival, .. } = *e {
            assert!(t >= arrival, "query {query} adopted at {t:?}, before it arrived: {e:?}");
        }
        if let Some(query) = e.query() {
            assert!(
                e.time() >= arrivals[&query],
                "an event precedes query {query}'s arrival: {e:?}"
            );
        }
    }
}

fn assert_conserved(report: &ServeReport, audit: &[String], n: usize) {
    let s = &report.stats;
    assert_eq!(s.submitted, n as u64, "every arrival submitted");
    assert_eq!(
        s.submitted,
        s.completed + s.degraded + s.rejected + s.expired,
        "outcomes partition the submitted set"
    );
    assert_eq!(s.open(), 0, "no query left open on any shard");
    assert_eq!(s.stolen_in, s.stolen_out, "every released query was adopted");
    assert_eq!(report.summary.len(), n, "one record per query");
    let ids: HashSet<u64> = report.summary.records().iter().map(|r| r.id).collect();
    assert_eq!(ids, (0..n as u64).collect::<HashSet<u64>>(), "global ids restored");
    assert_eq!(audit.len(), n, "one audit line per query");
    assert_eq!(report.snapshot.open, 0);
    assert_eq!(report.snapshot.queries_stolen, s.stolen_in, "runtime counter tracks adoptions");
}

proptest! {
    // Each case runs several full pipelines; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// An epoch that never fires inside the run is byte-identical to
    /// stealing disabled: same stats, records, audit lines, Prometheus
    /// text, and the stolen counters stay zero.
    #[test]
    fn idle_epoch_is_byte_identical_to_off(
        seed in 0u64..1000,
        shards in 2usize..=4,
        rate in 20.0f64..80.0,
    ) {
        let fx = fixture(seed, 100, rate, 8, 1.5);
        let (report_off, prom_off, audit_off) = run_once(&fx, shards, None, None);
        // Far beyond any 100-query run's horizon: the first boundary never
        // fires, so the coordinator sees one all-done rendezvous and stops.
        let idle = Some(SimDuration::from_millis(3_600_000));
        let (report_on, prom_on, audit_on) = run_once(&fx, shards, idle, None);
        prop_assert_eq!(report_on.stats.stolen_in, 0, "no boundary, no steals");
        prop_assert_eq!(&report_off.stats, &report_on.stats, "engine stats must match");
        prop_assert_eq!(
            report_off.summary.records(), report_on.summary.records(),
            "per-query outcomes must be byte-identical"
        );
        prop_assert_eq!(audit_off, audit_on, "audit lines must be byte-identical");
        prop_assert_eq!(prom_off, prom_on, "Prometheus text must be byte-identical");
        prop_assert_eq!(report_off.sim_secs, report_on.sim_secs);
    }

    /// With stealing enabled on a hot-key workload the run is invariant to
    /// thread interleaving: re-running the same configuration produces
    /// byte-identical merged artifacts at any shard count.
    #[test]
    fn stealing_runs_are_invariant_to_interleaving(
        seed in 0u64..1000,
        wide in proptest::bool::ANY,
        rate in 40.0f64..120.0,
        epoch_ms in 10u64..80,
    ) {
        let shards = if wide { 4usize } else { 2 };
        let fx = fixture(seed, 150, rate, 8, 2.0);
        let epoch = Some(SimDuration::from_millis(epoch_ms));
        let (report_a, prom_a, audit_a) = run_once(&fx, shards, epoch, None);
        let (report_b, prom_b, audit_b) = run_once(&fx, shards, epoch, None);
        prop_assert_eq!(&report_a.stats, &report_b.stats, "engine stats must match");
        prop_assert_eq!(
            report_a.summary.records(), report_b.summary.records(),
            "per-query outcomes must not depend on shard timing"
        );
        prop_assert_eq!(audit_a, audit_b, "audit lines must be byte-identical");
        prop_assert_eq!(prom_a, prom_b, "Prometheus text must be byte-identical");
        prop_assert_eq!(report_a.sim_secs, report_b.sim_secs);
    }

    /// Conservation holds with stealing enabled, faults or not: every query
    /// — stolen, re-stolen, or killed by a crash window — resolves exactly
    /// once, and the released/adopted counters balance globally.
    #[test]
    fn stealing_conserves_queries_under_faults(
        seed in 0u64..1000,
        shards in 2usize..=4,
        rate in 40.0f64..120.0,
        faulted in proptest::bool::ANY,
    ) {
        let fx = fixture(seed, 150, rate, 8, 2.0);
        let faults = faulted
            .then(|| FaultPlan::parse("crash 0 0.3 0.9\ntransient 0.05").expect("valid plan"));
        let n = fx.workload.len();
        let epoch = Some(SimDuration::from_millis(25));
        let (report, _, audit) = run_once(&fx, shards, epoch, faults);
        assert_conserved(&report, &audit, n);
    }
}

/// A saturated hot-key run at S = 4 actually steals — the counters move,
/// the balance holds, and re-running reproduces every artifact including
/// the steal lineage baked into the audit lines.
#[test]
fn hot_key_load_actually_steals_and_stays_deterministic() {
    let fx = fixture(11, 400, 120.0, 8, 2.5);
    let epoch = Some(SimDuration::from_millis(25));
    let (report_a, prom_a, audit_a) = run_once(&fx, 4, epoch, None);
    assert!(report_a.stats.stolen_in > 0, "a saturated hot shard must shed work");
    assert_conserved(&report_a, &audit_a, 400);
    assert!(
        audit_a.iter().any(|line| line.contains("\"stolen\"")),
        "steal lineage reaches the audit export"
    );
    let (report_b, prom_b, audit_b) = run_once(&fx, 4, epoch, None);
    assert_eq!(report_a.stats, report_b.stats);
    assert_eq!(report_a.summary.records(), report_b.summary.records());
    assert_eq!(audit_a, audit_b);
    assert_eq!(prom_a, prom_b);
}

/// Where causal order used to break: a window-due batch launch (or a killed
/// pass's stale timer) just before an epoch boundary let the victim run past
/// the boundary, admit a later arrival and release it to a thief whose round
/// ran *at* the boundary — `run_once` asserts that no longer happens.
#[test]
fn batched_stealing_never_adopts_a_query_before_it_arrives() {
    let mut fx = fixture(42, 1000, 140.0, 64, 2.0);
    fx.pipeline.batching = Some(BatchConfig::new(8, SimDuration::from_millis(2)));
    let (report, _, audit) = run_once(&fx, 2, Some(SimDuration::from_millis(50)), None);
    assert!(report.stats.stolen_in > 0, "the hot shard must shed work");
    assert_conserved(&report, &audit, 1000);
}

/// Stealing under a total blackout (every executor down mid-run) still
/// drains: the wedge-breaker and the steal rendezvous compose without
/// deadlocking a shard, and the run stays deterministic.
#[test]
fn stealing_survives_a_blackout_deterministically() {
    let fx = fixture(23, 200, 80.0, 8, 2.0);
    let plan = "crash 0 0.5 3.0\ncrash 1 0.5 3.0\ncrash 2 0.5 3.0";
    let faults = FaultPlan::parse(plan).expect("valid plan");
    let epoch = Some(SimDuration::from_millis(25));
    let (report_a, prom_a, audit_a) = run_once(&fx, 4, epoch, Some(faults.clone()));
    assert_conserved(&report_a, &audit_a, 200);
    let (report_b, prom_b, audit_b) = run_once(&fx, 4, epoch, Some(faults));
    assert_eq!(report_a.stats, report_b.stats);
    assert_eq!(audit_a, audit_b);
    assert_eq!(prom_a, prom_b);
    assert_eq!(report_a.summary.records(), report_b.summary.records());
}

/// Wall-clock sharded serve with stealing: conservation and a drained
/// shutdown hold when shard threads hit real rendezvous barriers.
#[test]
fn wall_clock_stealing_drains_cleanly() {
    let fx = fixture(7, 150, 80.0, 8, 2.0);
    let config = ServeConfig {
        mode: ClockMode::Wall { dilation: 100.0 },
        shards: 4,
        steal_epoch: Some(SimDuration::from_millis(25)),
        ..ServeConfig::default()
    };
    let report = serve_schemble(&fx.ensemble, &fx.pipeline, &fx.workload, fx.seed, &config);
    let s = &report.stats;
    assert_eq!(s.submitted, 150);
    assert_eq!(s.submitted, s.completed + s.degraded + s.rejected + s.expired);
    assert_eq!(s.open(), 0);
    assert_eq!(s.stolen_in, s.stolen_out);
    let snap = &report.snapshot;
    assert_eq!(snap.tasks_started, snap.tasks_completed, "all tasks returned before shutdown");
    assert!(snap.queue_depths.iter().all(|&d| d == 0), "backlogs drained");
}
