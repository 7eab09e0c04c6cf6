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

mod common;

use common::{assert_conserved, fixture, run_once, run_wall, Fixture};
use proptest::prelude::*;
use schemble_sim::{BatchConfig, FaultPlan, SimDuration};

/// A hot-key fixture: ForceAll on a 150 ms deadline, keys drawn Zipfian.
fn hot_keys(seed: u64, n_queries: usize, rate: f64, keys: usize, theta: f64) -> Fixture {
    let spec = fixture(seed, n_queries, rate).deadline_ms(150.0).force_all(true);
    spec.zipf_keys(keys, theta).build(|_| {})
}

/// One causally ordered virtual-clock run on `shards` shards.
fn run_shards(
    fx: &Fixture,
    shards: usize,
    steal_epoch: Option<SimDuration>,
    faults: Option<FaultPlan>,
) -> common::Run {
    run_once(fx, |c| {
        c.shards = shards;
        c.steal_epoch = steal_epoch;
        c.faults = faults;
    })
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
        let fx = hot_keys(seed, 100, rate, 8, 1.5);
        let off = run_shards(&fx, shards, None, None);
        // Far beyond any 100-query run's horizon: the first boundary never
        // fires, so the coordinator sees one all-done rendezvous and stops.
        let idle = Some(SimDuration::from_millis(3_600_000));
        let on = run_shards(&fx, shards, idle, None);
        prop_assert_eq!(on.report.stats.stolen_in, 0, "no boundary, no steals");
        prop_assert_eq!(&off.report.stats, &on.report.stats, "engine stats must match");
        prop_assert_eq!(
            off.report.summary.records(), on.report.summary.records(),
            "per-query outcomes must be byte-identical"
        );
        prop_assert_eq!(off.audit, on.audit, "audit lines must be byte-identical");
        prop_assert_eq!(off.prom, on.prom, "Prometheus text must be byte-identical");
        prop_assert_eq!(off.report.sim_secs, on.report.sim_secs);
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
        let fx = hot_keys(seed, 150, rate, 8, 2.0);
        let epoch = Some(SimDuration::from_millis(epoch_ms));
        let a = run_shards(&fx, shards, epoch, None);
        let b = run_shards(&fx, shards, epoch, None);
        prop_assert_eq!(&a.report.stats, &b.report.stats, "engine stats must match");
        prop_assert_eq!(
            a.report.summary.records(), b.report.summary.records(),
            "per-query outcomes must not depend on shard timing"
        );
        prop_assert_eq!(a.audit, b.audit, "audit lines must be byte-identical");
        prop_assert_eq!(a.prom, b.prom, "Prometheus text must be byte-identical");
        prop_assert_eq!(a.report.sim_secs, b.report.sim_secs);
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
        let fx = hot_keys(seed, 150, rate, 8, 2.0);
        let faults = faulted
            .then(|| FaultPlan::parse("crash 0 0.3 0.9\ntransient 0.05").expect("valid plan"));
        let epoch = Some(SimDuration::from_millis(25));
        assert_conserved(&run_shards(&fx, shards, epoch, faults), fx.workload.len());
    }
}

/// A saturated hot-key run at S = 4 actually steals — the counters move,
/// the balance holds, and re-running reproduces every artifact including
/// the steal lineage baked into the audit lines.
#[test]
fn hot_key_load_actually_steals_and_stays_deterministic() {
    let fx = hot_keys(11, 400, 120.0, 8, 2.5);
    let epoch = Some(SimDuration::from_millis(25));
    let a = run_shards(&fx, 4, epoch, None);
    assert!(a.report.stats.stolen_in > 0, "a saturated hot shard must shed work");
    assert_conserved(&a, 400);
    assert!(
        a.audit.iter().any(|line| line.contains("\"stolen\"")),
        "steal lineage reaches the audit export"
    );
    let b = run_shards(&fx, 4, epoch, None);
    assert_eq!(a.report.stats, b.report.stats);
    assert_eq!(a.report.summary.records(), b.report.summary.records());
    assert_eq!(a.audit, b.audit);
    assert_eq!(a.prom, b.prom);
}

/// Where causal order used to break: a window-due batch launch (or a killed
/// pass's stale timer) just before an epoch boundary let the victim run past
/// the boundary, admit a later arrival and release it to a thief whose round
/// ran *at* the boundary — `run_once` asserts that no longer happens.
#[test]
fn batched_stealing_never_adopts_a_query_before_it_arrives() {
    let mut fx = hot_keys(42, 1000, 140.0, 64, 2.0);
    fx.pipeline.batching = Some(BatchConfig::new(8, SimDuration::from_millis(2)));
    let run = run_shards(&fx, 2, Some(SimDuration::from_millis(50)), None);
    assert!(run.report.stats.stolen_in > 0, "the hot shard must shed work");
    assert_conserved(&run, 1000);
}

/// Stealing under a total blackout (every executor down mid-run) still
/// drains: the wedge-breaker and the steal rendezvous compose without
/// deadlocking a shard, and the run stays deterministic.
#[test]
fn stealing_survives_a_blackout_deterministically() {
    let fx = hot_keys(23, 200, 80.0, 8, 2.0);
    let plan = "crash 0 0.5 3.0\ncrash 1 0.5 3.0\ncrash 2 0.5 3.0";
    let faults = FaultPlan::parse(plan).expect("valid plan");
    let epoch = Some(SimDuration::from_millis(25));
    let a = run_shards(&fx, 4, epoch, Some(faults.clone()));
    assert_conserved(&a, 200);
    let b = run_shards(&fx, 4, epoch, Some(faults));
    assert_eq!(a.report.stats, b.report.stats);
    assert_eq!(a.audit, b.audit);
    assert_eq!(a.prom, b.prom);
    assert_eq!(a.report.summary.records(), b.report.summary.records());
}

/// Wall-clock sharded serve with stealing: conservation and a drained
/// shutdown hold when shard threads hit real rendezvous barriers.
#[test]
fn wall_clock_stealing_drains_cleanly() {
    let fx = hot_keys(7, 150, 80.0, 8, 2.0);
    let report = run_wall(&fx, |c| {
        c.shards = 4;
        c.steal_epoch = Some(SimDuration::from_millis(25));
    })
    .report;
    let s = &report.stats;
    assert_eq!(s.submitted, 150);
    assert_eq!(s.submitted, s.completed + s.degraded + s.rejected + s.expired);
    assert_eq!(s.open(), 0);
    assert_eq!(s.stolen_in, s.stolen_out);
    let record = report.metrics.lock();
    assert_eq!(record.tasks.started, record.tasks.completed, "all tasks returned before shutdown");
    assert!(record.executors.iter().all(|e| e.queue_depth == 0), "backlogs drained");
}
