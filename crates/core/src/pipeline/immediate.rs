//! Immediate-selection pipelines (Fig. 2a–d).
//!
//! A [`SelectionPolicy`] picks a model subset the moment a query arrives;
//! tasks join per-instance FIFO queues immediately. This family covers the
//! Original pipeline (select everything), Static selection over a replica
//! [`Deployment`], and the DES/Gating baselines (feature-based selectors
//! implemented in `schemble-baselines`).

use super::{drive, AdmissionMode, ResultAssembler};
use crate::backend::{ExecutionBackend, SimBackend};
use crate::engine::ImmediateEngine;
use crate::executor::ExecutorBank;
use schemble_data::{Query, Workload};
use schemble_metrics::RunSummary;
use schemble_models::{Ensemble, ModelSet};

/// Chooses a model subset for each arriving query, immediately.
pub trait SelectionPolicy {
    /// The subset to execute for `query`.
    fn select(&mut self, query: &Query, ensemble: &Ensemble) -> ModelSet;
    /// Label for experiment output.
    fn name(&self) -> String;
}

/// The Original pipeline: every model, every query.
#[derive(Debug, Clone, Copy, Default)]
pub struct FullEnsemblePolicy;

impl SelectionPolicy for FullEnsemblePolicy {
    fn select(&mut self, _query: &Query, ensemble: &Ensemble) -> ModelSet {
        ensemble.full_set()
    }
    fn name(&self) -> String {
        "Original".to_string()
    }
}

/// Static selection: the same subset for every query.
#[derive(Debug, Clone, Copy)]
pub struct FixedSubsetPolicy {
    /// The fixed subset (over *distinct base models*).
    pub set: ModelSet,
}

impl SelectionPolicy for FixedSubsetPolicy {
    fn select(&mut self, _query: &Query, _ensemble: &Ensemble) -> ModelSet {
        self.set
    }
    fn name(&self) -> String {
        format!("Static{}", self.set)
    }
}

/// A physical deployment: which base model each server instance hosts.
/// Static selection frees memory by dropping unchosen models and spends it
/// on replicas of chosen ones (Fig. 2b).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deployment {
    /// `hosts[instance] = base model index`.
    pub hosts: Vec<usize>,
}

impl Deployment {
    /// One instance per base model, in order — the non-replicated layout
    /// used by Original/DES/Gating/Schemble.
    pub fn identity(m: usize) -> Self {
        Self { hosts: (0..m).collect() }
    }

    /// Instances hosting base model `k`.
    pub fn instances_of(&self, k: usize) -> impl Iterator<Item = usize> + '_ {
        self.hosts.iter().enumerate().filter_map(move |(i, &h)| (h == k).then_some(i))
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// True when no instances exist.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }
}

/// Runs an immediate-selection pipeline over a workload in the
/// discrete-event simulator.
///
/// In [`AdmissionMode::Reject`] a query is rejected at arrival when its
/// estimated completion (per-instance queue depth + nominal latency) exceeds
/// its deadline. Rejected and never-completed queries are recorded as missed.
///
/// This is a thin driver: all decision logic lives in [`ImmediateEngine`],
/// which [`drive`] steps over a [`SimBackend`]. The `schemble-serve`
/// runtime drives the identical engine through the same loop, over the
/// simulator on its virtual clock and over worker threads on the wall clock — and is where a
/// traced or fault-injected run of this family goes.
pub fn run_immediate(
    ensemble: &Ensemble,
    deployment: &Deployment,
    policy: &mut dyn SelectionPolicy,
    assembler: &ResultAssembler,
    workload: &Workload,
    admission: AdmissionMode,
    seed: u64,
) -> RunSummary {
    let latencies = deployment.hosts.iter().map(|&h| ensemble.latency(h)).collect();
    let mut backend = SimBackend::new(ExecutorBank::new(latencies, seed, "immediate-latency"));
    let mut engine =
        ImmediateEngine::new(ensemble, deployment, policy, assembler, admission, workload);
    drive(&mut engine, &mut backend, workload);
    engine.into_summary(backend.usage())
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemble_data::{DeadlinePolicy, PoissonTrace, TaskKind, Workload};

    fn workload(rate: f64, n: usize, deadline_ms: f64) -> (Ensemble, Workload) {
        let task = TaskKind::TextMatching;
        let ens = task.ensemble(1);
        let gen = task.default_generator(1);
        let w = Workload::generate(
            &gen,
            &PoissonTrace { rate_per_sec: rate, n },
            &DeadlinePolicy::constant_millis(deadline_ms),
            7,
        );
        (ens, w)
    }

    #[test]
    fn light_load_original_pipeline_is_perfect() {
        let (ens, w) = workload(2.0, 200, 150.0);
        let summary = run_immediate(
            &ens,
            &Deployment::identity(3),
            &mut FullEnsemblePolicy,
            &ResultAssembler::Direct,
            &w,
            AdmissionMode::Reject,
            3,
        );
        assert!(summary.deadline_miss_rate() < 0.02, "dmr {}", summary.deadline_miss_rate());
        assert!(summary.accuracy() > 0.97, "acc {}", summary.accuracy());
        assert_eq!(summary.completion_rate(), 1.0 - summary.deadline_miss_rate());
    }

    #[test]
    fn overload_blows_up_the_original_pipeline() {
        // 60 qps into a 3-model ensemble whose slowest member takes 48 ms —
        // the Fig. 1a situation: massive deadline misses.
        let (ens, w) = workload(60.0, 600, 120.0);
        let summary = run_immediate(
            &ens,
            &Deployment::identity(3),
            &mut FullEnsemblePolicy,
            &ResultAssembler::Direct,
            &w,
            AdmissionMode::Reject,
            3,
        );
        assert!(
            summary.deadline_miss_rate() > 0.3,
            "expected heavy misses, dmr {}",
            summary.deadline_miss_rate()
        );
    }

    #[test]
    fn static_with_replicas_survives_more_load() {
        let (ens, w) = workload(60.0, 600, 120.0);
        // BiLSTM + RoBERTa, replicating the bottleneck (RoBERTa, 42 ms).
        let deployment = Deployment { hosts: vec![0, 1, 1] };
        let mut policy = FixedSubsetPolicy { set: ModelSet::from_indices(&[0, 1]) };
        let summary = run_immediate(
            &ens,
            &deployment,
            &mut policy,
            &ResultAssembler::Direct,
            &w,
            AdmissionMode::Reject,
            3,
        );
        let full = run_immediate(
            &ens,
            &Deployment::identity(3),
            &mut FullEnsemblePolicy,
            &ResultAssembler::Direct,
            &w,
            AdmissionMode::Reject,
            3,
        );
        assert!(
            summary.deadline_miss_rate() < full.deadline_miss_rate() * 0.7,
            "static {} vs original {}",
            summary.deadline_miss_rate(),
            full.deadline_miss_rate()
        );
    }

    #[test]
    fn force_all_completes_everything() {
        let (ens, w) = workload(40.0, 300, 100.0);
        let summary = run_immediate(
            &ens,
            &Deployment::identity(3),
            &mut FullEnsemblePolicy,
            &ResultAssembler::Direct,
            &w,
            AdmissionMode::ForceAll,
            3,
        );
        assert_eq!(summary.completion_rate(), 1.0);
        // Queue blocking should push latency way past the service time.
        assert!(summary.latency_stats().max > 0.3);
    }

    #[test]
    fn run_is_deterministic() {
        let (ens, w) = workload(20.0, 150, 120.0);
        let go = || {
            run_immediate(
                &ens,
                &Deployment::identity(3),
                &mut FullEnsemblePolicy,
                &ResultAssembler::Direct,
                &w,
                AdmissionMode::Reject,
                11,
            )
        };
        let a = go();
        let b = go();
        assert_eq!(a.records(), b.records());
    }
}
