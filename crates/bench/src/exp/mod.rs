//! The experiments: one function per paper table/figure, each returning its
//! [`Report`], and the parts they share — the scale, the paper-default
//! configuration, the deadline sweeps and the scheduler variants.
//!
//! Nothing here trains: every [`ExperimentContext`](schemble_core::experiment::ExperimentContext)
//! and [`Method`](schemble_baselines::Method) draws on the process-wide
//! trained state, so an experiment that sweeps the deadline, or runs after
//! another on the same task and seed, only regenerates its workload.

use crate::fmt::Report;
use schemble_core::experiment::{ExperimentConfig, PipelineKind, Traffic};
use schemble_core::scheduler::QueueOrder;
use schemble_data::TaskKind;

pub mod ablation;
pub mod budget;
pub mod burst;
pub mod delta;
pub mod difficulty_dist;
pub mod fig1;
pub mod fig4;
pub mod fig5;
pub mod latency;
pub mod offline;
pub mod overall;
pub mod overhead;
pub mod profiling_knn;
pub mod scheduler;
pub mod segments;
pub mod tradeoff;
pub mod variance;

/// How large the experiments run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Shrink every workload about 10× (smoke runs and the tier-1 gate).
    pub quick: bool,
    /// Independent root seeds of the seed-robustness check.
    pub seeds: u64,
}

impl Scale {
    /// The scale `results/` is printed at.
    pub const FULL: Scale = Scale { quick: false, seeds: 5 };
    /// The ~10× smaller smoke scale.
    pub const QUICK: Scale = Scale { quick: true, ..Scale::FULL };

    /// `QUICK=1` selects the quick scale, `SEEDS=n` the number of seeds.
    pub fn from_env() -> Scale {
        let quick = std::env::var("QUICK").is_ok_and(|v| v == "1");
        let seeds = std::env::var("SEEDS").ok().and_then(|v| v.parse().ok());
        Scale { quick, seeds: seeds.unwrap_or(Scale::FULL.seeds) }
    }

    /// A full-scale size, scaled down in quick mode.
    pub fn sized(self, full: usize) -> usize {
        if self.quick {
            (full / 10).max(100)
        } else {
            full
        }
    }
}

/// One experiment of the `exp` driver: its name on the command line (its
/// output is `results/exp_<name>.txt`), the paper artefact it regenerates,
/// and the function that runs it.
pub type Experiment = (&'static str, &'static str, fn(Scale) -> Report);

/// Every experiment, in the order `exp all` runs them (README's table).
pub const EXPERIMENTS: &[Experiment] = &[
    ("fig1", "Fig. 1 (motivation)", fig1::run),
    ("fig4", "Fig. 4 (score analysis)", fig4::run),
    ("fig5", "Fig. 5 (preference instability)", fig5::run),
    ("overall", "Fig. 6–8 + Table I", overall::run),
    ("latency", "Table II (forced latency)", latency::run),
    ("segments", "Fig. 9/14 (day segments)", segments::run),
    ("difficulty_dist", "Fig. 10 (difficulty dists)", difficulty_dist::run),
    ("tradeoff", "Fig. 11/15 (trade-off)", tradeoff::run),
    ("scheduler", "Fig. 12/17/18/19 (schedulers)", scheduler::run),
    ("burst", "Fig. 19 (bursty 14–19 h slice)", burst::run),
    ("overhead", "Fig. 13 (overhead)", overhead::run),
    ("budget", "Fig. 16 (offline budgets)", budget::run),
    ("profiling_knn", "Fig. 20 (profiling + KNN)", profiling_knn::run),
    ("delta", "Fig. 21 (δ sweep)", delta::run),
    (
        "ablation",
        "design-choice ablations (bins, λ, predictor arch/latency, fast path)",
        ablation::run,
    ),
    ("variance", "seed robustness (mean ± std over reseedings)", variance::run),
];

/// The experiments `names` select, in the order given; `all` is every one.
pub fn select(names: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if names.is_empty() {
        return Err("name at least one experiment".into());
    }
    let mut selected = Vec::new();
    for name in names {
        match EXPERIMENTS.iter().find(|e| e.0 == name) {
            Some(experiment) => selected.push(experiment),
            None if name == "all" => selected.extend(EXPERIMENTS),
            None => return Err(format!("unknown experiment '{name}'")),
        }
    }
    Ok(selected)
}

/// The paper-scale defaults of `task` (§VIII) at `n_queries` queries. The
/// diurnal day is resized with the query count, so the arrival *rates* stay
/// fixed (15/s on average) when the count shrinks.
pub fn paper_config(task: TaskKind, seed: u64, n_queries: usize) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_default(task, seed);
    config.n_queries = n_queries;
    if let Traffic::Diurnal { .. } = config.traffic {
        config.traffic = Traffic::Diurnal { day_secs: n_queries as f64 / 15.0 };
    }
    config
}

/// The deadline constraints (ms) Exp-1 and Exp-4 sweep for `task`.
pub fn deadline_sweep(task: TaskKind) -> [f64; 5] {
    match task {
        TaskKind::TextMatching => [60.0, 80.0, 105.0, 130.0, 160.0],
        TaskKind::VehicleCounting => [50.0, 70.0, 90.0, 120.0, 150.0],
        TaskKind::ImageRetrieval => [110.0, 140.0, 180.0, 220.0, 260.0],
    }
}

/// Exp-4's scheduling algorithms: the three greedy queue orders and the DP
/// at three quantization steps.
pub fn scheduler_variants() -> [PipelineKind; 6] {
    [
        PipelineKind::Greedy(QueueOrder::Edf),
        PipelineKind::Greedy(QueueOrder::Fifo),
        PipelineKind::Greedy(QueueOrder::Sjf),
        PipelineKind::DpDelta(0.1),
        PipelineKind::DpDelta(0.01),
        PipelineKind::DpDelta(0.001),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_scales_in_quick_mode_only() {
        assert_eq!(Scale::FULL.sized(5000), 5000);
        assert_eq!(Scale::QUICK.sized(5000), 500);
        assert_eq!(Scale::QUICK.sized(800), 100, "never below 100");
        assert_eq!(Scale::QUICK.seeds, Scale::FULL.seeds);
    }

    #[test]
    fn select_takes_names_in_order_and_all() {
        let names = |list: &[&str]| list.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        let picked = select(&names(&["delta", "fig1"])).expect("both exist");
        assert_eq!(picked.iter().map(|e| e.0).collect::<Vec<_>>(), ["delta", "fig1"]);
        assert_eq!(select(&names(&["all"])).expect("all").len(), EXPERIMENTS.len());
        assert!(select(&names(&["exp_fig1"])).is_err());
        assert!(select(&[]).is_err());
    }

    /// `exp all` runs in README-table order, and every row names a real
    /// experiment.
    #[test]
    fn readme_table_lists_the_experiments_in_order() {
        let readme = include_str!("../../../../README.md");
        let rows: Vec<(&str, &str)> = readme
            .lines()
            .filter_map(|line| {
                let (artefact, command) = line.strip_prefix("| ")?.split_once(" | `")?;
                let name = command.split_once("--bin exp -- ")?.1.strip_suffix("` |")?;
                Some((artefact, name))
            })
            .collect();
        let table: Vec<(&str, &str)> = EXPERIMENTS.iter().map(|e| (e.1, e.0)).collect();
        assert_eq!(rows, table);
    }

    #[test]
    fn diurnal_day_follows_the_query_count() {
        let config = paper_config(TaskKind::TextMatching, 42, 600);
        assert_eq!(config.traffic, Traffic::Diurnal { day_secs: 40.0 });
        let config = paper_config(TaskKind::VehicleCounting, 42, 600);
        assert!(matches!(config.traffic, Traffic::Poisson { .. }));
    }
}
