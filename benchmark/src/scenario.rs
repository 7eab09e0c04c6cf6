//! The four workloads, and the set-up each one needs before it can run.
//!
//! Every workload is an open-loop replay: the arrival schedule is a pure
//! function of the seed, the program is handed nothing but the generated
//! [`Workload`], and latency is counted from each query's scheduled arrival
//! instant, so a stall is charged to every query it delays.
//!
//! What the seed decides is the *traffic*: arrival instants, query payloads,
//! routing keys, and the random streams the run draws task durations and
//! fault fates from. The *deployment* — the base models and everything
//! trained offline on their history — is the same under every seed, the way
//! a served system is the same on every day of traffic.

use schemble_core::engine::{AnytimePolicy, FailurePolicy};
use schemble_core::pipeline::SchembleConfig;
use schemble_core::predictor::OnlineScorer;
use schemble_core::scheduler::Scheduler;
use schemble_core::{AccuracyProfile, DifficultyMetric, SchembleArtifacts};
use schemble_data::{DeadlinePolicy, DiurnalTrace, PoissonTrace, TaskKind, Workload};
use schemble_models::{zoo, Ensemble, SampleGenerator, TaskSpec};
use schemble_serve::ClockMode;
use schemble_sim::{BatchConfig, FaultPlan, SimDuration};
use std::time::Instant;

/// Seed of the deployment (models, training history, predictor training).
const DEPLOY_SEED: u64 = 42;

/// Simulated seconds per wall second on the wall-clock workload. Ten is the
/// highest dilation at which results repeat on two cores; at twenty the
/// on-time share swings by ten points from run to run.
pub const WALL_DILATION: f64 = 10.0;

/// Which base models are deployed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Models {
    /// The paper's text-matching ensemble: BiLSTM, RoBERTa, BERT (m = 3).
    TextMatching3,
    /// Eight CIFAR-like classifiers (m = 8), where the DP planner has
    /// 2^8 candidate subsets per query.
    Cifar8,
}

/// The arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// Compressed one-day trace: quiet night, 30x mid-day burst (peak about
    /// three times the mean).
    Diurnal {
        mean_rate: f64,
    },
    Poisson {
        rate: f64,
    },
}

/// One workload, as data.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    pub name: &'static str,
    pub why: &'static str,
    pub models: Models,
    pub traffic: Traffic,
    pub deadline_ms: f64,
    /// Queries per measured pass.
    pub queries: usize,
    /// Queries of the warm-up pass that ends set-up.
    pub warmup_queries: usize,
    /// Re-key the stream over this many keys with this Zipf exponent, so
    /// hash routing overloads one shard.
    pub zipf_keys: Option<(usize, f64)>,
    pub clock: ClockMode,
    /// Turns on everything optional at once: two engine shards with work
    /// stealing, cross-query batching, anytime early exit, transient task
    /// faults with retries, an enabled trace sink with a flight recorder
    /// tapped in, and the always-on telemetry rendered after each pass.
    pub observed: bool,
}

pub const WORKLOAD_NAMES: [&str; 4] =
    ["tm3_diurnal_dark", "c8_poisson_dark", "tm3_skew_observed", "tm3_poisson_wall_x10"];

/// How large to make the workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    /// `--seconds`: the wall-clock workload replays a trace this long.
    pub seconds: f64,
    /// `--quick`: every workload at about a fiftieth of its size, for the
    /// smoke test. Numbers from a quick run mean nothing.
    pub quick: bool,
}

impl Scenario {
    /// The workload called `name`, or `None`.
    pub fn named(name: &str, size: Size) -> Option<Scenario> {
        let shrink = |n: usize| if size.quick { (n / 50).max(40) } else { n };
        let s = match name {
            "tm3_diurnal_dark" => Scenario {
                name: "tm3_diurnal_dark",
                why: "plain decision path at scale: engine, small-buffer DP, scorer and DES \
                      driver; trace, obs, shard, steal and wall layers all bypassed",
                models: Models::TextMatching3,
                traffic: Traffic::Diurnal { mean_rate: 15.0 },
                deadline_ms: 105.0,
                queries: shrink(300_000),
                warmup_queries: shrink(20_000),
                zipf_keys: None,
                clock: ClockMode::Virtual,
                observed: false,
            },
            "c8_poisson_dark" => Scenario {
                name: "c8_poisson_dark",
                why: "m=8 overload: plan_into is ~95% of the wall time and its simulated cost \
                      decides how many deadlines are met; every other layer does little",
                models: Models::Cifar8,
                traffic: Traffic::Poisson { rate: 90.0 },
                deadline_ms: 40.0,
                // Not the issue's 2 000: the work of a pass is dominated by
                // its few largest plans and overload feeds on itself, so two
                // seeds' passes differ by 10 % in total work at any size
                // tried (2 000 to 10 000); 4 000 gives three passes a run.
                queries: shrink(4_000),
                warmup_queries: shrink(400),
                zipf_keys: None,
                clock: ClockMode::Virtual,
                observed: false,
            },
            "tm3_skew_observed" => Scenario {
                name: "tm3_skew_observed",
                why: "every optional path at once on hot-key traffic: 2 shards + stealing, \
                      batching, anytime exit, faults + retries, live trace sink, exporters, obs",
                models: Models::TextMatching3,
                traffic: Traffic::Poisson { rate: 60.0 },
                deadline_ms: 150.0,
                // Capped so neither shard's internal sink (2^20 events, made
                // inside the sharded path, drops not surfaced) can overflow.
                queries: shrink(60_000),
                warmup_queries: shrink(3_000),
                zipf_keys: Some((64, 1.2)),
                clock: ClockMode::Virtual,
                observed: true,
            },
            "tm3_poisson_wall_x10" => {
                let rate = 30.0;
                let full = (rate * WALL_DILATION * size.seconds).round() as usize;
                Scenario {
                    name: "tm3_poisson_wall_x10",
                    why: "the only run on real threads: run_wall, ThreadedBackend, WorkerPool, \
                          dilated clock and spinning sleeps; virtual workloads never enter them",
                    models: Models::TextMatching3,
                    traffic: Traffic::Poisson { rate },
                    deadline_ms: 105.0,
                    queries: shrink(full.max(1)),
                    warmup_queries: shrink(150),
                    zipf_keys: None,
                    clock: ClockMode::Wall { dilation: WALL_DILATION },
                    observed: false,
                }
            }
            _ => return None,
        };
        Some(s)
    }

    /// Engine shards the workload runs on.
    pub fn shards(&self) -> usize {
        if self.observed {
            2
        } else {
            1
        }
    }

    /// Steal-epoch length of the observed workload.
    pub fn steal_epoch(&self) -> Option<SimDuration> {
        self.observed.then_some(SimDuration::from_millis(50))
    }

    fn ensemble(&self) -> Ensemble {
        match self.models {
            Models::TextMatching3 => TaskKind::TextMatching.ensemble(DEPLOY_SEED),
            Models::Cifar8 => Ensemble::weighted_average(
                (0..8usize)
                    .map(|i| zoo::cifar_model(i % 6, DEPLOY_SEED + (i / 6) as u64))
                    .collect(),
                TaskSpec::Classification { num_classes: 100 },
            ),
        }
    }

    fn generator(&self, spec: TaskSpec, seed: u64) -> SampleGenerator {
        SampleGenerator::new(spec, TaskKind::TextMatching.default_difficulty(), seed)
    }

    fn generate(&self, generator: &SampleGenerator, n: usize, seed: u64) -> Workload {
        let deadline = DeadlinePolicy::constant_millis(self.deadline_ms);
        let workload = match self.traffic {
            Traffic::Diurnal { mean_rate } => {
                let trace = DiurnalTrace { n, day_secs: n as f64 / mean_rate };
                Workload::generate(generator, &trace, &deadline, seed)
            }
            Traffic::Poisson { rate } => {
                let trace = PoissonTrace { rate_per_sec: rate, n };
                Workload::generate(generator, &trace, &deadline, seed)
            }
        };
        match self.zipf_keys {
            Some((keys, theta)) => workload.with_zipf_keys(keys, theta, seed),
            None => workload,
        }
    }
}

/// Wall seconds each part of set-up took.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimings {
    /// `SchembleArtifacts::build`: profiling and predictor training.
    pub artifacts_s: f64,
    /// Generating the measured and the warm-up workload.
    pub workload_gen_s: f64,
}

/// Everything a pass needs, built once per set-up.
pub struct Setup {
    pub scenario: Scenario,
    pub seed: u64,
    pub ensemble: Ensemble,
    pub artifacts: SchembleArtifacts,
    pub workload: Workload,
    pub warmup: Workload,
    pub timings: SetupTimings,
}

impl Setup {
    /// Builds the deployment and generates the traffic for `seed`.
    pub fn build(scenario: Scenario, seed: u64) -> Setup {
        let ensemble = scenario.ensemble();
        let started = Instant::now();
        let history = scenario.generator(ensemble.spec, DEPLOY_SEED.wrapping_add(0x5a5a));
        let artifacts = SchembleArtifacts::build(
            &ensemble,
            &history,
            2000,
            AccuracyProfile::DEFAULT_BINS,
            DifficultyMetric::Discrepancy,
            DEPLOY_SEED,
        );
        let artifacts_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let generator = scenario.generator(ensemble.spec, seed);
        let workload = scenario.generate(&generator, scenario.queries, seed);
        // The warm-up replays its own, shorter trace of the same shape
        // (a prefix of the measured one would be all overnight traffic on
        // the diurnal workload).
        let warmup = scenario.generate(&generator, scenario.warmup_queries, seed ^ 0x77);
        let workload_gen_s = started.elapsed().as_secs_f64();

        Setup {
            scenario,
            seed,
            ensemble,
            artifacts,
            workload,
            warmup,
            timings: SetupTimings { artifacts_s, workload_gen_s },
        }
    }

    /// The pipeline configuration of this workload around `scheduler`.
    pub fn pipeline(&self, scheduler: Box<dyn Scheduler>) -> SchembleConfig {
        let mut pipeline = SchembleConfig::new(
            scheduler,
            OnlineScorer::Predictor(self.artifacts.predictor.clone()),
            self.artifacts.profile.clone(),
        );
        if self.scenario.observed {
            pipeline.batching = Some(BatchConfig::new(8, SimDuration::from_millis(2)));
            pipeline.anytime = Some(AnytimePolicy::default());
            pipeline.failure = Some(FailurePolicy::default());
        }
        pipeline
    }

    /// The fault plan of this workload.
    pub fn faults(&self) -> Option<FaultPlan> {
        self.scenario
            .observed
            .then(|| FaultPlan::parse("transient 0.02").expect("a valid fault plan"))
    }
}
