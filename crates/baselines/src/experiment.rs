//! The method table — every pipeline the CLI's `--method` and the `exp`
//! driver can name, Table I's six first — and the runners wiring DES/Gating
//! into the serving pipeline.

use crate::des::DesSelector;
use crate::gating::GatingSelector;
use schemble_core::experiment::{
    ExperimentContext, Pipeline, PipelineKind as Kind, TrainedCache, TrainingKey,
};
use schemble_core::pipeline::{
    run_immediate, AdmissionMode, Deployment, ResultAssembler, SelectionPolicy,
};
use schemble_core::scheduler::QueueOrder;
use schemble_data::Workload;
use schemble_metrics::RunSummary;
use schemble_models::{Ensemble, SampleGenerator};
use schemble_sim::rng::stream_rng;

/// The feature-based selection baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// FIRE-DES++-style dynamic ensemble selection.
    Des,
    /// Gating network with thresholded weights.
    Gating,
}

/// A trained selector. Selecting reads it and never changes it, so one
/// training serves every run: each run gets a clone.
#[derive(Clone)]
enum Selector {
    Des(DesSelector),
    Gating(GatingSelector),
}

/// Every selector trained through [`BaselineKind::pipeline`] in this process.
static SELECTORS: TrainedCache<(BaselineKind, TrainingKey), Selector> = TrainedCache::empty();

impl BaselineKind {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            BaselineKind::Des => "DES",
            BaselineKind::Gating => "Gating",
        }
    }

    fn fit(
        self,
        ensemble: &Ensemble,
        generator: &SampleGenerator,
        history_n: usize,
        seed: u64,
    ) -> Selector {
        // Historical ids start above every serving workload (shared
        // convention with `SchembleArtifacts`).
        let history = generator.batch(1 << 41, history_n);
        match self {
            BaselineKind::Des => {
                let mut rng = stream_rng(seed, "des-train");
                let regions = DesSelector::DEFAULT_REGIONS;
                Selector::Des(DesSelector::fit(ensemble, &history, regions, &mut rng))
            }
            BaselineKind::Gating => {
                let mut rng = stream_rng(seed, "gating-train");
                Selector::Gating(GatingSelector::fit(ensemble, &history, &mut rng))
            }
        }
    }

    /// Trains the baseline's selection policy on `history_n` fresh
    /// historical samples.
    pub fn train(
        self,
        ensemble: &Ensemble,
        generator: &SampleGenerator,
        history_n: usize,
        seed: u64,
    ) -> Box<dyn SelectionPolicy> {
        self.fit(ensemble, generator, history_n, seed).boxed()
    }

    /// The baseline on the identity deployment, its selector trained on the
    /// context's history — once per process and [`TrainingKey`].
    pub fn pipeline(self, ctx: &ExperimentContext) -> Pipeline {
        let config = &ctx.config;
        let selector = SELECTORS.get_or_train((self, config.training_key()), || {
            self.fit(&ctx.ensemble, &ctx.generator, config.history_n, config.seed)
        });
        Pipeline::Immediate(
            Deployment::identity(ctx.ensemble.m()),
            Selector::clone(&selector).boxed(),
        )
    }
}

impl Selector {
    fn boxed(self) -> Box<dyn SelectionPolicy> {
        match self {
            Selector::Des(selector) => Box::new(selector),
            Selector::Gating(selector) => Box::new(selector),
        }
    }
}

/// Trains and runs one baseline over a workload on the identity deployment.
pub fn run_baseline(
    kind: BaselineKind,
    ensemble: &Ensemble,
    generator: &SampleGenerator,
    workload: &Workload,
    admission: AdmissionMode,
    history_n: usize,
    seed: u64,
) -> RunSummary {
    run_immediate(
        ensemble,
        &Deployment::identity(ensemble.m()),
        kind.train(ensemble, generator, history_n, seed).as_mut(),
        &ResultAssembler::Direct,
        workload,
        admission,
        seed,
    )
}

/// One method under evaluation: a `--method` value of the CLI and a row
/// label of the experiment tables.
#[derive(Debug)]
pub struct Method {
    /// The `--method` spelling, also the label on the CLI's report line.
    pub name: &'static str,
    /// The label in the paper's tables.
    pub label: &'static str,
    how: How,
    /// Accepted by `serve` and `loadtest`.
    pub serve: bool,
    /// One of the six Table-I rows, in table order.
    pub compare: bool,
}

/// Where a method's pipeline comes from.
#[derive(Debug)]
enum How {
    Core(Kind),
    Baseline(BaselineKind),
}
use How::{Baseline, Core};

const fn method(
    name: &'static str,
    label: &'static str,
    how: How,
    serve: bool,
    compare: bool,
) -> Method {
    Method { name, label, how, serve, compare }
}

/// Every method, Table I's six first and in the paper's row order.
pub const METHODS: &[Method] = &[
    method("original", "Original", Core(Kind::Original), true, true),
    method("static", "Static", Core(Kind::Static), true, true),
    method("des", "DES", Baseline(BaselineKind::Des), true, true),
    method("gating", "Gating", Baseline(BaselineKind::Gating), true, true),
    method("schemble-ea", "Schemble(ea)", Core(Kind::SchembleEa), false, true),
    method("schemble", "Schemble", Core(Kind::Schemble), true, true),
    method("schemble-t", "Schemble(t)", Core(Kind::SchembleT), false, false),
    method("schemble-oracle", "Schemble(oracle)", Core(Kind::SchembleOracle), false, false),
    method("greedy-edf", "Greedy+EDF", Core(Kind::Greedy(QueueOrder::Edf)), false, false),
    method("greedy-fifo", "Greedy+FIFO", Core(Kind::Greedy(QueueOrder::Fifo)), false, false),
    method("greedy-sjf", "Greedy+SJF", Core(Kind::Greedy(QueueOrder::Sjf)), false, false),
];

impl Method {
    /// The method `--method name` selects.
    pub fn named(name: &str) -> Option<&'static Method> {
        METHODS.iter().find(|m| m.name == name)
    }

    /// The six methods of Table I, in the paper's row order.
    pub fn table1() -> impl Iterator<Item = &'static Method> {
        METHODS.iter().filter(|m| m.compare)
    }

    /// The only method the fast-path, anytime, batching and sharding flags
    /// apply to, and `explain`'s default.
    pub fn is_schemble(&self) -> bool {
        self.name == "schemble"
    }

    /// Assembles the method's pipeline from the trained state of the
    /// context's [`TrainingKey`] (`Static` pilots on the workload).
    pub fn pipeline(&self, ctx: &mut ExperimentContext, workload: &Workload) -> Pipeline {
        match self.how {
            Core(kind) => ctx.pipeline(kind, workload),
            Baseline(kind) => kind.pipeline(ctx),
        }
    }

    /// Runs the method over a workload on the discrete-event simulator.
    pub fn run(&self, ctx: &mut ExperimentContext, workload: &Workload) -> RunSummary {
        let pipeline = self.pipeline(ctx, workload);
        ctx.run_assembled(pipeline, workload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemble_core::experiment::ExperimentConfig;
    use schemble_data::{DeadlinePolicy, PoissonTrace, TaskKind};

    #[test]
    fn table1_is_the_six_paper_methods_in_row_order() {
        let labels: Vec<&str> = Method::table1().map(|m| m.label).collect();
        assert_eq!(labels, ["Original", "Static", "DES", "Gating", "Schemble(ea)", "Schemble"]);
    }

    #[test]
    fn labels_agree_with_the_kinds_they_name() {
        for method in METHODS {
            match method.how {
                Core(kind) => assert_eq!(method.label, kind.label()),
                Baseline(kind) => assert_eq!(method.label, kind.label()),
            }
        }
    }

    #[test]
    fn a_cached_selector_runs_like_a_freshly_trained_one() {
        let mut config = ExperimentConfig::small(TaskKind::TextMatching, 5);
        (config.n_queries, config.history_n) = (150, 300);
        let mut ctx = ExperimentContext::new(config.clone());
        let workload = ctx.workload();
        for (name, kind) in [("des", BaselineKind::Des), ("gating", BaselineKind::Gating)] {
            let fresh = run_baseline(
                kind,
                &ctx.ensemble,
                &ctx.generator,
                &workload,
                config.admission,
                config.history_n,
                config.seed,
            );
            let method = Method::named(name).expect("in the table");
            for _ in 0..2 {
                assert_eq!(method.run(&mut ctx, &workload).records(), fresh.records());
            }
        }
    }

    #[test]
    fn both_baselines_run_end_to_end() {
        let task = TaskKind::TextMatching;
        let ens = task.ensemble(1);
        let gen = task.default_generator(1);
        let workload = Workload::generate(
            &gen,
            &PoissonTrace { rate_per_sec: 30.0, n: 200 },
            &DeadlinePolicy::constant_millis(120.0),
            7,
        );
        for kind in [BaselineKind::Des, BaselineKind::Gating] {
            let summary = run_baseline(kind, &ens, &gen, &workload, AdmissionMode::Reject, 400, 3);
            assert_eq!(summary.len(), 200, "{} lost queries", kind.label());
            assert!(summary.accuracy() > 0.2, "{} acc collapsed", kind.label());
        }
    }
}
