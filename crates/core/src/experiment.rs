//! Experiment plumbing: configurations, contexts and pipeline runs.
//!
//! An [`ExperimentContext`] runs any number of pipeline variants over any
//! workload. What it trains is held once per process in a [`TrainedCache`]
//! under its [`TrainingKey`] — task, seed, difficulty law and history size,
//! the only things training reads — so every context of a deadline, traffic
//! or admission sweep (Exp-1/4 build one per deadline) reuses the same
//! trained state, exactly as a deployed system would.

use crate::artifacts::SchembleArtifacts;
use crate::discrepancy::DifficultyMetric;
use crate::pipeline::immediate::{
    run_immediate, Deployment, FixedSubsetPolicy, FullEnsemblePolicy, SelectionPolicy,
};
use crate::pipeline::schemble::{run_schemble, SchembleConfig};
use crate::pipeline::static_select::best_static_deployment;
use crate::pipeline::{AdmissionMode, ResultAssembler};
use crate::predictor::OnlineScorer;
use crate::profiling::AccuracyProfile;
use crate::scheduler::{DpScheduler, GreedyScheduler, QueueOrder};
use schemble_data::{DeadlinePolicy, DiurnalTrace, PoissonTrace, TaskKind, Workload};
use schemble_metrics::RunSummary;
use schemble_models::{DifficultyDist, Ensemble, SampleGenerator};
use std::sync::{Arc, Mutex, OnceLock};

/// Arrival process of an experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// Homogeneous Poisson at the given rate.
    Poisson {
        /// Queries per second.
        rate_per_sec: f64,
    },
    /// The compressed one-day diurnal trace (text matching).
    Diurnal {
        /// Compressed day length in seconds.
        day_secs: f64,
    },
}

/// A fully specified experiment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Which application.
    pub task: TaskKind,
    /// Root seed (models, workloads, training all derive from it).
    pub seed: u64,
    /// Number of queries.
    pub n_queries: usize,
    /// Arrival process.
    pub traffic: Traffic,
    /// Deadline policy.
    pub deadline: DeadlinePolicy,
    /// Latent difficulty distribution of the query payloads.
    pub difficulty: DifficultyDist,
    /// Admission mode.
    pub admission: AdmissionMode,
    /// Historical samples used for training artifacts.
    pub history_n: usize,
}

impl ExperimentConfig {
    /// A fast, small configuration for tests and the quickstart example.
    pub fn small(task: TaskKind, seed: u64) -> Self {
        Self {
            task,
            seed,
            n_queries: 400,
            traffic: Traffic::Poisson { rate_per_sec: default_rate(task) },
            deadline: default_deadline(task),
            difficulty: task.default_difficulty(),
            admission: AdmissionMode::Reject,
            history_n: 600,
        }
    }

    /// The paper-scale defaults per task (§VIII): diurnal trace for text
    /// matching, Poisson for the other two.
    pub fn paper_default(task: TaskKind, seed: u64) -> Self {
        // Diurnal day length keeps the mean rate at 15/s (peak ≈ 44/s, about
        // 2× the Original pipeline's capacity — the Fig. 1a overload regime).
        let traffic = match task {
            TaskKind::TextMatching => Traffic::Diurnal { day_secs: 12_000.0 / 15.0 },
            _ => Traffic::Poisson { rate_per_sec: default_rate(task) },
        };
        Self {
            task,
            seed,
            n_queries: 12_000,
            traffic,
            deadline: default_deadline(task),
            difficulty: task.default_difficulty(),
            admission: AdmissionMode::Reject,
            history_n: 2000,
        }
    }

    /// What training on this configuration depends on.
    pub fn training_key(&self) -> TrainingKey {
        (self.task, self.seed, self.difficulty, self.history_n)
    }

    /// Same configuration with a different constant deadline (sweeps).
    pub fn with_deadline_millis(mut self, ms: f64) -> Self {
        self.deadline = match self.task {
            TaskKind::VehicleCounting => DeadlinePolicy::cameras_around_millis(ms),
            _ => DeadlinePolicy::constant_millis(ms),
        };
        self
    }
}

/// The part of an [`ExperimentConfig`] that training reads — task, seed,
/// difficulty law, history size: the ensemble and the generator derive from
/// the first three, the history from the last. Deadline, traffic, query
/// count and admission only shape the workload, so configurations that
/// differ in those share trained state.
pub type TrainingKey = (TaskKind, u64, DifficultyDist, usize);

type Slot<V> = Arc<OnceLock<Arc<V>>>;

/// A memo of trained state, meant for a `static`: training is deterministic
/// in its key, so `train` runs once per distinct key and every later request
/// shares the result. Two threads asking for different keys train in
/// parallel; two asking for the same key train once.
pub struct TrainedCache<K, V> {
    slots: Mutex<Vec<(K, Slot<V>)>>,
}

impl<K: PartialEq, V> TrainedCache<K, V> {
    /// A cache with nothing trained yet.
    pub const fn empty() -> Self {
        Self { slots: Mutex::new(Vec::new()) }
    }

    /// The state trained for `key`, running `train` if this is its first use.
    pub fn get_or_train(&self, key: K, train: impl FnOnce() -> V) -> Arc<V> {
        let slot = {
            let mut slots = self.slots.lock().expect("no training runs under the lock");
            match slots.iter().find(|(k, _)| *k == key) {
                Some((_, slot)) => Arc::clone(slot),
                None => {
                    let slot = Slot::default();
                    slots.push((key, Arc::clone(&slot)));
                    slot
                }
            }
        };
        Arc::clone(slot.get_or_init(|| Arc::new(train())))
    }
}

/// Every [`SchembleArtifacts`] trained in this process, by training key,
/// profile bin count and difficulty metric.
static ARTIFACTS: TrainedCache<(TrainingKey, usize, DifficultyMetric), SchembleArtifacts> =
    TrainedCache::empty();

/// Per-task default query rate: comfortably above the Original pipeline's
/// capacity (the paper's overload regime) but below the aggregate
/// single-model capacity so difficulty-aware scheduling has room to win.
pub fn default_rate(task: TaskKind) -> f64 {
    match task {
        TaskKind::TextMatching => 45.0, // Original capacity ≈ 1/48ms ≈ 21/s
        TaskKind::VehicleCounting => 48.0, // capacity ≈ 1/34ms ≈ 29/s
        TaskKind::ImageRetrieval => 24.0, // capacity ≈ 1/85ms ≈ 12/s
    }
}

/// Per-task default mean deadline, above the slowest model (§VIII).
pub fn default_deadline(task: TaskKind) -> DeadlinePolicy {
    match task {
        TaskKind::TextMatching => DeadlinePolicy::constant_millis(105.0),
        TaskKind::VehicleCounting => DeadlinePolicy::cameras_around_millis(90.0),
        TaskKind::ImageRetrieval => DeadlinePolicy::constant_millis(180.0),
    }
}

/// The pipeline variants runnable directly from core. (DES and Gating live
/// in `schemble-baselines` and plug in through
/// [`crate::pipeline::SelectionPolicy`].)
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PipelineKind {
    /// Original: all models for every query.
    Original,
    /// Static subset + replicas, greedy-searched on a pilot.
    Static,
    /// Full Schemble (DP δ=0.01, NN score predictor).
    Schemble,
    /// Schemble with the ensemble-agreement difficulty metric.
    SchembleEa,
    /// Schemble without difficulty prediction (constant score).
    SchembleT,
    /// Schemble with oracle (true) discrepancy scores.
    SchembleOracle,
    /// Schemble with a greedy scheduler in the given queue order (Exp-4).
    Greedy(QueueOrder),
    /// Schemble with a DP scheduler at a specific quantization step (Exp-4).
    DpDelta(f64),
}

impl PipelineKind {
    /// Label used in experiment tables.
    pub fn label(&self) -> String {
        match self {
            PipelineKind::Original => "Original".into(),
            PipelineKind::Static => "Static".into(),
            PipelineKind::Schemble => "Schemble".into(),
            PipelineKind::SchembleEa => "Schemble(ea)".into(),
            PipelineKind::SchembleT => "Schemble(t)".into(),
            PipelineKind::SchembleOracle => "Schemble(oracle)".into(),
            PipelineKind::Greedy(QueueOrder::Edf) => "Greedy+EDF".into(),
            PipelineKind::Greedy(QueueOrder::Fifo) => "Greedy+FIFO".into(),
            PipelineKind::Greedy(QueueOrder::Sjf) => "Greedy+SJF".into(),
            PipelineKind::DpDelta(d) => format!("DP(δ={d})"),
        }
    }
}

/// One experiment's configuration, ensemble and generator; its trained state
/// lives in the process-wide cache.
pub struct ExperimentContext {
    /// The configuration. Its workload fields (deadline, traffic, query
    /// count, admission) may be changed between runs; the ensemble and the
    /// generator were built from its [`TrainingKey`] fields, which must not.
    pub config: ExperimentConfig,
    /// The deployed ensemble.
    pub ensemble: Ensemble,
    /// The query generator.
    pub generator: SampleGenerator,
}

impl ExperimentContext {
    /// Builds the context (no training yet — artifacts are lazy, and shared
    /// with every other context of the same [`TrainingKey`]).
    pub fn new(config: ExperimentConfig) -> Self {
        let ensemble = config.task.ensemble(config.seed);
        let generator = config.task.generator(config.difficulty, config.seed);
        Self { config, ensemble, generator }
    }

    /// The trained Schemble artifacts (trained on first use).
    pub fn artifacts(&mut self) -> Arc<SchembleArtifacts> {
        self.trained(AccuracyProfile::DEFAULT_BINS, DifficultyMetric::Discrepancy)
    }

    /// The ensemble-agreement artifacts (Schemble(ea)).
    pub fn ea_artifacts(&mut self) -> Arc<SchembleArtifacts> {
        self.trained(AccuracyProfile::DEFAULT_BINS, DifficultyMetric::EnsembleAgreement)
    }

    /// The artifacts trained on this context's history with `bins` profile
    /// bins around `metric` — trained on the first request in the process.
    pub fn trained(&self, bins: usize, metric: DifficultyMetric) -> Arc<SchembleArtifacts> {
        let config = &self.config;
        ARTIFACTS.get_or_train((config.training_key(), bins, metric), || {
            let (ensemble, generator) = (&self.ensemble, &self.generator);
            SchembleArtifacts::build(
                ensemble,
                generator,
                config.history_n,
                bins,
                metric,
                config.seed,
            )
        })
    }

    /// Generates the workload described by the config.
    pub fn workload(&self) -> Workload {
        let deadline = self.config.deadline.clone();
        match self.config.traffic {
            Traffic::Poisson { rate_per_sec } => Workload::generate(
                &self.generator,
                &PoissonTrace { rate_per_sec, n: self.config.n_queries },
                &deadline,
                self.config.seed,
            ),
            Traffic::Diurnal { day_secs } => Workload::generate(
                &self.generator,
                &DiurnalTrace { n: self.config.n_queries, day_secs },
                &deadline,
                self.config.seed,
            ),
        }
    }

    /// The diurnal trace helper (segment mapping for Fig. 9/14); `None` for
    /// Poisson traffic.
    pub fn diurnal(&self) -> Option<DiurnalTrace> {
        match self.config.traffic {
            Traffic::Diurnal { day_secs } => {
                Some(DiurnalTrace { n: self.config.n_queries, day_secs })
            }
            Traffic::Poisson { .. } => None,
        }
    }

    /// Assembles pipeline variant `kind` from the trained state. `workload`
    /// is what the Static variant runs its pilot search on.
    pub fn pipeline(&mut self, kind: PipelineKind, workload: &Workload) -> Pipeline {
        let identity = Deployment::identity(self.ensemble.m());
        let mut config = match kind {
            PipelineKind::Original => {
                return Pipeline::Immediate(identity, Box::new(FullEnsemblePolicy));
            }
            PipelineKind::Static => {
                let pilot = (workload.len() / 5).clamp(100, 2000);
                let (set, deployment) =
                    best_static_deployment(&self.ensemble, workload, pilot, self.config.seed);
                return Pipeline::Immediate(deployment, Box::new(FixedSubsetPolicy { set }));
            }
            PipelineKind::SchembleEa => self.ea_artifacts().pipeline(),
            _ => self.artifacts().pipeline(),
        };
        match kind {
            PipelineKind::SchembleT => {
                config.scorer = OnlineScorer::Constant(self.artifacts().mean_score);
            }
            PipelineKind::SchembleOracle => {
                config.scorer = OnlineScorer::Oracle(self.artifacts().scorer.clone());
            }
            PipelineKind::Greedy(order) => config.scheduler = Box::new(GreedyScheduler::new(order)),
            PipelineKind::DpDelta(delta) => {
                config.scheduler = Box::new(DpScheduler::with_delta(delta));
            }
            _ => {}
        }
        config.admission = self.config.admission;
        Pipeline::Schemble(Box::new(config))
    }

    /// Runs one pipeline variant on a workload.
    pub fn run(&mut self, kind: PipelineKind, workload: &Workload) -> RunSummary {
        let pipeline = self.pipeline(kind, workload);
        self.run_assembled(pipeline, workload)
    }

    /// Runs an already assembled pipeline in the discrete-event simulator,
    /// untraced, under this context's seed; its admission mode applies to
    /// the immediate variant (a Schemble config carries its own).
    pub fn run_assembled(&self, pipeline: Pipeline, workload: &Workload) -> RunSummary {
        match pipeline {
            Pipeline::Immediate(deployment, mut policy) => run_immediate(
                &self.ensemble,
                &deployment,
                policy.as_mut(),
                &ResultAssembler::Direct,
                workload,
                self.config.admission,
                self.config.seed,
            ),
            Pipeline::Schemble(config) => {
                run_schemble(&self.ensemble, &config, workload, self.config.seed)
            }
        }
    }
}

/// An assembled pipeline: everything [`ExperimentContext::pipeline`] (or a
/// selection baseline's trainer) decides before a backend runs it.
pub enum Pipeline {
    /// An immediate-selection pipeline: a deployment and its per-query policy.
    Immediate(Deployment, Box<dyn SelectionPolicy>),
    /// A buffered Schemble-family pipeline.
    Schemble(Box<SchembleConfig>),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_config_runs_all_core_pipelines() {
        let mut config = ExperimentConfig::small(TaskKind::TextMatching, 42);
        config.n_queries = 150;
        let mut ctx = ExperimentContext::new(config);
        let workload = ctx.workload();
        for kind in [
            PipelineKind::Original,
            PipelineKind::Static,
            PipelineKind::Schemble,
            PipelineKind::SchembleT,
        ] {
            let summary = ctx.run(kind, &workload);
            assert_eq!(summary.len(), workload.len(), "{:?} lost queries", kind);
        }
    }

    #[test]
    fn schemble_beats_original_under_default_load() {
        let mut config = ExperimentConfig::small(TaskKind::TextMatching, 7);
        config.n_queries = 400;
        let mut ctx = ExperimentContext::new(config);
        let workload = ctx.workload();
        let schemble = ctx.run(PipelineKind::Schemble, &workload);
        let original = ctx.run(PipelineKind::Original, &workload);
        assert!(
            schemble.accuracy() > original.accuracy(),
            "schemble {:.3} vs original {:.3}",
            schemble.accuracy(),
            original.accuracy()
        );
        assert!(schemble.deadline_miss_rate() < original.deadline_miss_rate());
    }

    #[test]
    fn trained_state_is_shared_by_key_not_by_deadline() {
        let cache: TrainedCache<TrainingKey, usize> = TrainedCache::empty();
        let config = ExperimentConfig::small(TaskKind::TextMatching, 3);
        let loose = config.clone().with_deadline_millis(500.0);
        let mut trainings = 0;
        for cfg in [&config, &loose, &config] {
            cache.get_or_train(cfg.training_key(), || {
                trainings += 1;
                trainings
            });
        }
        let mut reseeded = config.clone();
        reseeded.seed += 1;
        assert_eq!(*cache.get_or_train(reseeded.training_key(), || 7), 7);
        assert_eq!(trainings, 1, "a deadline is not a training input; a seed is");

        // Two contexts of one key hand out the very same artifacts.
        let (mut a, mut b) = (ExperimentContext::new(config), ExperimentContext::new(loose));
        assert!(Arc::ptr_eq(&a.artifacts(), &b.artifacts()));
        assert!(!Arc::ptr_eq(&a.artifacts(), &a.ea_artifacts()));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PipelineKind::Schemble.label(), "Schemble");
        assert_eq!(PipelineKind::Greedy(QueueOrder::Sjf).label(), "Greedy+SJF");
        assert_eq!(PipelineKind::DpDelta(0.1).label(), "DP(δ=0.1)");
    }

    #[test]
    fn deadline_override_respects_task() {
        let cfg = ExperimentConfig::small(TaskKind::VehicleCounting, 1).with_deadline_millis(150.0);
        assert!(matches!(cfg.deadline, DeadlinePolicy::PerCameraUniform { .. }));
        let cfg = ExperimentConfig::small(TaskKind::TextMatching, 1).with_deadline_millis(150.0);
        assert!(matches!(cfg.deadline, DeadlinePolicy::Constant(_)));
    }
}
