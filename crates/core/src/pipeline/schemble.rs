//! The Schemble serving pipeline (Fig. 3).
//!
//! Arrivals enter a **query buffer**. The discrepancy-score predictor tags
//! each query (its prediction latency delays the query's earliest dispatch,
//! mirroring the GPU-side predictor of §VIII). On every arrival and task
//! completion the **task scheduler** re-plans the buffer against current
//! model availability; plans take effect only after the scheduler's own
//! (simulated) execution time — the mechanism by which a too-fine `δ` hurts
//! end-to-end performance (Exp-4, Fig. 21). Tasks are dispatched when models
//! idle; once any task of a query starts, its model set is frozen
//! (non-preemptive execution).

use super::{drive, AdmissionMode, ResultAssembler};
use crate::backend::{ExecutionBackend, SimBackend};
use crate::engine::{AnytimePolicy, FailurePolicy, SchembleEngine};
use crate::executor::ExecutorBank;
use crate::predictor::OnlineScorer;
use crate::profiling::AccuracyProfile;
use crate::scheduler::Scheduler;
use schemble_data::Workload;
use schemble_metrics::RunSummary;
use schemble_models::Ensemble;
use schemble_sim::{BatchConfig, FaultPlan, SimDuration};
use schemble_trace::TraceSink;
use std::sync::Arc;

/// Configuration of a Schemble pipeline run.
pub struct SchembleConfig {
    /// The buffer scheduler (DP or a greedy ablation).
    pub scheduler: Box<dyn Scheduler>,
    /// Online difficulty scorer.
    pub scorer: OnlineScorer,
    /// The profiled reward function.
    pub profile: AccuracyProfile,
    /// Result assembly (direct aggregation or KNN-filled stacking).
    pub assembler: ResultAssembler,
    /// Admission mode.
    pub admission: AdmissionMode,
    /// Latency of one discrepancy-score prediction (delays dispatch
    /// eligibility of the query; ~6.5% of ensemble runtime in Fig. 13).
    pub predictor_latency: SimDuration,
    /// Simulated cost per scheduler work unit (nanoseconds).
    pub sched_ns_per_unit: f64,
    /// Fixed per-invocation scheduler overhead.
    pub sched_base_overhead: SimDuration,
    /// §VIII's final optimisation: when the buffer is empty and a model
    /// idles, an arriving query bypasses the predictor and scheduler
    /// entirely and runs the fastest idle model immediately, eliminating the
    /// prediction/scheduling wait on an unloaded system. The skipped query
    /// never consults the profile, so at very light load this trades a
    /// little accuracy for latency (the `ablation` experiment measures it).
    pub fast_path: bool,
    /// Retry/degradation policy for fault-tolerant runs. `None` (the
    /// default) keeps every decision identical to a fault-unaware build;
    /// see [`FailurePolicy`] for what `Some` opts into.
    pub failure: Option<FailurePolicy>,
    /// Anytime early-exit policy. `None` (the default) — and equally any
    /// policy whose threshold disables it — keeps every decision
    /// byte-identical to an engine without the feature; see
    /// [`AnytimePolicy`] for the quit rule `Some` opts into.
    pub anytime: Option<AnytimePolicy>,
    /// Cross-query batched execution. `None` (the default) — and equally a
    /// config with `batch_max <= 1` — keeps every decision byte-identical
    /// to an unbatched engine; see [`BatchConfig`] for the coalescing rule
    /// `Some` opts into.
    pub batching: Option<BatchConfig>,
}

impl SchembleConfig {
    /// Paper-default knobs for a given scheduler/scorer/profile.
    pub fn new(
        scheduler: Box<dyn Scheduler>,
        scorer: OnlineScorer,
        profile: AccuracyProfile,
    ) -> Self {
        Self {
            scheduler,
            scorer,
            profile,
            assembler: ResultAssembler::Direct,
            admission: AdmissionMode::Reject,
            predictor_latency: SimDuration::from_millis(3),
            sched_ns_per_unit: 25.0,
            sched_base_overhead: SimDuration::from_micros(50),
            fast_path: false,
            failure: None,
            anytime: None,
            batching: None,
        }
    }
}

/// Runs the Schemble pipeline over a workload in the discrete-event
/// simulator.
///
/// This is a thin driver: all decision logic lives in [`SchembleEngine`],
/// which [`drive`] steps over a [`SimBackend`]. The `schemble-serve`
/// runtime drives the identical engine through the same loop, over the
/// simulator on its virtual clock and over worker threads on the wall clock.
pub fn run_schemble(
    ensemble: &Ensemble,
    config: &SchembleConfig,
    workload: &Workload,
    seed: u64,
) -> RunSummary {
    run_schemble_traced(ensemble, config, workload, seed, TraceSink::disabled())
}

/// [`run_schemble`] with lifecycle events emitted into `trace`.
///
/// The sink observes, never steers: a traced run makes exactly the
/// decisions of an untraced one (`tests/trace_export.rs` pins this).
pub fn run_schemble_traced(
    ensemble: &Ensemble,
    config: &SchembleConfig,
    workload: &Workload,
    seed: u64,
    trace: Arc<TraceSink>,
) -> RunSummary {
    run_schemble_faulted(ensemble, config, workload, seed, trace, None)
}

/// [`run_schemble_traced`] with a seeded [`FaultPlan`] injected into the
/// simulated backend.
///
/// The `schemble-serve` virtual-clock runtime builds its backend the same
/// way (faults installed before arrivals) and runs the same loop, so
/// what `tests/fault_properties` pins — a faulted DES run and a faulted
/// serve run byte-identical — is a statement about this setup alone. `None`
/// (or a no-op plan) leaves the backend untouched.
pub fn run_schemble_faulted(
    ensemble: &Ensemble,
    config: &SchembleConfig,
    workload: &Workload,
    seed: u64,
    trace: Arc<TraceSink>,
    faults: Option<&FaultPlan>,
) -> RunSummary {
    let latencies = (0..ensemble.m()).map(|k| ensemble.latency(k)).collect();
    let bank = ExecutorBank::new(latencies, seed, "schemble-latency")
        .with_trace(trace.clone())
        .with_faults(faults, seed)
        .with_batching(config.batching);
    let mut backend = SimBackend::new(bank);
    let mut engine = SchembleEngine::new(ensemble, config, workload).with_trace(trace);
    drive(&mut engine, &mut backend, workload);
    engine.into_summary(backend.usage())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::SchembleArtifacts;
    use crate::pipeline::immediate::{run_immediate, Deployment, FullEnsemblePolicy};
    use schemble_data::{DeadlinePolicy, PoissonTrace, TaskKind, Workload};

    fn setup(rate: f64, n: usize, deadline_ms: f64) -> (Ensemble, Workload, SchembleConfig) {
        let task = TaskKind::TextMatching;
        let ens = task.ensemble(1);
        let art = SchembleArtifacts::build_small(&ens, &task.default_generator(1), 1);
        let gen = task.default_generator(1);
        let w = Workload::generate(
            &gen,
            &PoissonTrace { rate_per_sec: rate, n },
            &DeadlinePolicy::constant_millis(deadline_ms),
            7,
        );
        let config = art.pipeline();
        (ens, w, config)
    }

    #[test]
    fn light_load_uses_full_sets_and_hits_deadlines() {
        let (ens, w, config) = setup(2.0, 150, 200.0);
        let summary = run_schemble(&ens, &config, &w, 3);
        assert!(summary.deadline_miss_rate() < 0.05, "dmr {}", summary.deadline_miss_rate());
        assert!(summary.accuracy() > 0.9, "acc {}", summary.accuracy());
        assert!(
            summary.mean_models_used() > 2.0,
            "light traffic should run (nearly) the whole ensemble, got {}",
            summary.mean_models_used()
        );
    }

    #[test]
    fn heavy_load_schemble_beats_original() {
        let (ens, w, config) = setup(55.0, 800, 120.0);
        let schemble = run_schemble(&ens, &config, &w, 3);
        let original = run_immediate(
            &ens,
            &Deployment::identity(3),
            &mut FullEnsemblePolicy,
            &ResultAssembler::Direct,
            &w,
            AdmissionMode::Reject,
            3,
        );
        assert!(
            schemble.deadline_miss_rate() < original.deadline_miss_rate() * 0.5,
            "schemble dmr {} vs original {}",
            schemble.deadline_miss_rate(),
            original.deadline_miss_rate()
        );
        assert!(
            schemble.accuracy() > original.accuracy() + 0.1,
            "schemble acc {} vs original {}",
            schemble.accuracy(),
            original.accuracy()
        );
        // Under load, Schemble sheds models per query.
        assert!(schemble.mean_models_used() < 2.5);
    }

    #[test]
    fn forced_mode_serves_every_query() {
        let (ens, w, mut config) = setup(40.0, 400, 100.0);
        config.admission = AdmissionMode::ForceAll;
        let summary = run_schemble(&ens, &config, &w, 3);
        assert_eq!(summary.completion_rate(), 1.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let (ens, w, config) = setup(25.0, 200, 120.0);
        let a = run_schemble(&ens, &config, &w, 5);
        let b = run_schemble(&ens, &config, &w, 5);
        assert_eq!(a.records(), b.records());
    }
}

#[cfg(test)]
mod anytime_tests {
    use super::*;
    use crate::artifacts::SchembleArtifacts;
    use schemble_data::{DeadlinePolicy, PoissonTrace, TaskKind, Workload};

    fn setup(rate: f64, n: usize, deadline_ms: f64) -> (Ensemble, Workload, SchembleConfig) {
        let task = TaskKind::TextMatching;
        let ens = task.ensemble(1);
        let art = SchembleArtifacts::build_small(&ens, &task.default_generator(1), 1);
        let gen = task.default_generator(1);
        let w = Workload::generate(
            &gen,
            &PoissonTrace { rate_per_sec: rate, n },
            &DeadlinePolicy::constant_millis(deadline_ms),
            7,
        );
        let config = art.pipeline();
        (ens, w, config)
    }

    #[test]
    fn inactive_threshold_changes_no_decision() {
        // A policy whose threshold can never be crossed must be
        // indistinguishable from no policy at all, record for record.
        let (ens, w, mut config) = setup(25.0, 200, 120.0);
        let base = run_schemble(&ens, &config, &w, 5);
        config.anytime = Some(AnytimePolicy { confidence_threshold: 2.0 });
        let inert = run_schemble(&ens, &config, &w, 5);
        assert_eq!(base.records(), inert.records());
    }

    #[test]
    fn active_policy_saves_work_without_wrecking_accuracy() {
        let (ens, w, mut config) = setup(25.0, 300, 120.0);
        let full = run_schemble(&ens, &config, &w, 5);
        config.anytime = Some(AnytimePolicy::default());
        let anytime = run_schemble(&ens, &config, &w, 5);
        assert!(
            anytime.mean_models_used() < full.mean_models_used(),
            "anytime {} vs full {} models/query — nothing was quit",
            anytime.mean_models_used(),
            full.mean_models_used()
        );
        assert!(
            anytime.accuracy() > full.accuracy() - 0.05,
            "anytime acc {} vs full {}",
            anytime.accuracy(),
            full.accuracy()
        );
    }

    #[test]
    fn anytime_runs_are_deterministic() {
        let (ens, w, mut config) = setup(25.0, 200, 120.0);
        config.anytime = Some(AnytimePolicy::default());
        let a = run_schemble(&ens, &config, &w, 5);
        let b = run_schemble(&ens, &config, &w, 5);
        assert_eq!(a.records(), b.records());
    }
}

#[cfg(test)]
mod batching_tests {
    use super::*;
    use crate::artifacts::SchembleArtifacts;
    use schemble_data::{DeadlinePolicy, PoissonTrace, TaskKind, Workload};

    fn setup(rate: f64, n: usize, deadline_ms: f64) -> (Ensemble, Workload, SchembleConfig) {
        let task = TaskKind::TextMatching;
        let ens = task.ensemble(1);
        let art = SchembleArtifacts::build_small(&ens, &task.default_generator(1), 1);
        let gen = task.default_generator(1);
        let w = Workload::generate(
            &gen,
            &PoissonTrace { rate_per_sec: rate, n },
            &DeadlinePolicy::constant_millis(deadline_ms),
            7,
        );
        let config = art.pipeline();
        (ens, w, config)
    }

    #[test]
    fn batch_max_one_changes_no_decision() {
        // A batch cap of one must be indistinguishable from no batching at
        // all, record for record — the degradation guarantee the serve-side
        // property tests extend to bytes of exported state.
        let (ens, w, mut config) = setup(25.0, 200, 120.0);
        let base = run_schemble(&ens, &config, &w, 5);
        config.batching = Some(BatchConfig::new(1, SimDuration::from_millis(2)));
        let inert = run_schemble(&ens, &config, &w, 5);
        assert_eq!(base.records(), inert.records());
    }

    #[test]
    fn batching_completes_more_under_saturation() {
        // Deep saturation: the batch curve's sublinear service time lets a
        // batching backend retire strictly more queries than serial service.
        let (ens, w, mut config) = setup(70.0, 600, 120.0);
        let serial = run_schemble(&ens, &config, &w, 3);
        config.batching = Some(BatchConfig::new(16, SimDuration::from_millis(2)));
        let batched = run_schemble(&ens, &config, &w, 3);
        assert!(
            batched.completion_rate() > serial.completion_rate(),
            "batched {} vs serial {} completion",
            batched.completion_rate(),
            serial.completion_rate()
        );
    }

    #[test]
    fn batched_runs_are_deterministic() {
        let (ens, w, mut config) = setup(40.0, 300, 120.0);
        config.batching = Some(BatchConfig::new(8, SimDuration::from_millis(2)));
        let a = run_schemble(&ens, &config, &w, 5);
        let b = run_schemble(&ens, &config, &w, 5);
        assert_eq!(a.records(), b.records());
    }
}

#[cfg(test)]
mod fast_path_tests {
    use super::*;
    use crate::artifacts::SchembleArtifacts;
    use schemble_data::{DeadlinePolicy, PoissonTrace, TaskKind, Workload};

    fn config_with_fast_path(fast: bool) -> (Ensemble, Workload, SchembleConfig) {
        let task = TaskKind::TextMatching;
        let ens = task.ensemble(1);
        let gen = task.default_generator(1);
        let art = SchembleArtifacts::build_small(&ens, &gen, 1);
        let w = Workload::generate(
            &gen,
            &PoissonTrace { rate_per_sec: 3.0, n: 150 },
            &DeadlinePolicy::constant_millis(150.0),
            7,
        );
        let mut config = art.pipeline();
        config.fast_path = fast;
        (ens, w, config)
    }

    #[test]
    fn fast_path_cuts_light_load_latency() {
        let (ens, w, slow) = config_with_fast_path(false);
        let (_, _, fast) = config_with_fast_path(true);
        let base = run_schemble(&ens, &slow, &w, 3);
        let quick = run_schemble(&ens, &fast, &w, 3);
        // At 3 qps almost every arrival hits the fast path: latency drops by
        // at least the 3 ms predictor wait.
        assert!(
            quick.latency_stats().mean + 0.002 < base.latency_stats().mean,
            "fast {:.4}s vs base {:.4}s",
            quick.latency_stats().mean,
            base.latency_stats().mean
        );
        assert!(quick.deadline_miss_rate() <= base.deadline_miss_rate() + 0.02);
        // The price: single-model answers on an unloaded system.
        assert!(quick.mean_models_used() < base.mean_models_used());
    }

    #[test]
    fn fast_path_queries_are_recorded_normally() {
        let (ens, w, fast) = config_with_fast_path(true);
        let summary = run_schemble(&ens, &fast, &w, 3);
        assert_eq!(summary.len(), w.len());
        assert_eq!(summary.completion_rate() + summary.deadline_miss_rate(), 1.0);
    }
}
