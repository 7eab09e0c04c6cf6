//! Offline budgeted selection — `Schemble*` (Fig. 16).
//!
//! Prior ensemble-selection work controls *cumulative runtime on offline
//! datasets* rather than online latency. To compare in their setting, the
//! scheduling problem is replaced by: choose a model set per sample so that
//! total utility is maximised subject to a budget on the summed (cumulative)
//! execution time. With per-sample utilities that are concave in cost this is
//! a separable knapsack, solved here by global greedy density upgrades
//! (the paper solves the LP directly; greedy on the per-sample efficient
//! frontiers attains the same solution up to one fractional item).

use rand::seq::IndexedRandom;
use rand::Rng;
use schemble_core::profiling::AccuracyProfile;
use schemble_models::{Ensemble, ModelSet};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Result of a budgeted selection.
#[derive(Debug, Clone)]
pub struct OfflineSelection {
    /// Chosen set per sample.
    pub sets: Vec<ModelSet>,
    /// Total cumulative runtime in milliseconds.
    pub total_cost_ms: f64,
    /// Total profiled utility.
    pub expected_utility: f64,
}

/// Per-set cumulative runtime (ms) of every subset of `ensemble`.
pub fn set_costs_ms(ensemble: &Ensemble) -> Vec<f64> {
    let m = ensemble.m();
    (0..(1u32 << m))
        .map(|mask| ensemble.set_cumulative_latency(ModelSet(mask)).as_millis_f64())
        .collect()
}

#[derive(Debug, PartialEq)]
struct Upgrade {
    density: f64,
    sample: usize,
    target: ModelSet,
}

impl Eq for Upgrade {}
impl Ord for Upgrade {
    fn cmp(&self, other: &Self) -> Ordering {
        self.density
            .partial_cmp(&other.density)
            .expect("NaN density")
            .then_with(|| self.sample.cmp(&other.sample))
    }
}
impl PartialOrd for Upgrade {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Maximises Σ utility subject to Σ cost ≤ `budget_ms`.
///
/// `utilities[i][set]` is sample *i*'s utility for each subset mask. Every
/// sample gets at least the cheapest single model (the offline task processes
/// everything); upgrades are then applied in order of utility-per-millisecond
/// until the budget is exhausted.
pub fn budgeted_selection(
    utilities: &[Vec<f64>],
    set_costs: &[f64],
    budget_ms: f64,
) -> OfflineSelection {
    assert!(!utilities.is_empty(), "no samples to select for");
    let n_sets = set_costs.len();
    // Cheapest singleton as mandatory baseline.
    let cheapest = (0..n_sets)
        .filter(|&s| ModelSet(s as u32).len() == 1)
        .min_by(|&a, &b| set_costs[a].partial_cmp(&set_costs[b]).expect("finite cost"))
        .expect("at least one model");

    let mut sets = vec![ModelSet(cheapest as u32); utilities.len()];
    let mut total_cost: f64 = utilities.len() as f64 * set_costs[cheapest];

    let best_upgrade = |current: ModelSet, u_row: &[f64]| -> Option<Upgrade> {
        let cur_cost = set_costs[current.0 as usize];
        let cur_util = u_row[current.0 as usize];
        let mut best: Option<Upgrade> = None;
        for s in 1..n_sets {
            let cost = set_costs[s];
            let util = u_row[s];
            if cost <= cur_cost + 1e-12 || util <= cur_util + 1e-12 {
                continue;
            }
            let density = (util - cur_util) / (cost - cur_cost);
            if best.as_ref().is_none_or(|b| density > b.density) {
                best = Some(Upgrade { density, sample: 0, target: ModelSet(s as u32) });
            }
        }
        best
    };

    let mut heap: BinaryHeap<Upgrade> = BinaryHeap::new();
    for (i, u_row) in utilities.iter().enumerate() {
        if let Some(mut up) = best_upgrade(sets[i], u_row) {
            up.sample = i;
            heap.push(up);
        }
    }
    while let Some(up) = heap.pop() {
        let i = up.sample;
        // Stale entries (the sample has been upgraded since) are re-derived.
        let fresh = best_upgrade(sets[i], &utilities[i]);
        let Some(mut fresh) = fresh else { continue };
        fresh.sample = i;
        if (fresh.target, fresh.density.to_bits()) != (up.target, up.density.to_bits()) {
            heap.push(fresh);
            continue;
        }
        let delta = set_costs[up.target.0 as usize] - set_costs[sets[i].0 as usize];
        if total_cost + delta > budget_ms {
            continue; // cannot afford this one; cheaper upgrades may still fit.
        }
        total_cost += delta;
        sets[i] = up.target;
        if let Some(mut next) = best_upgrade(sets[i], &utilities[i]) {
            next.sample = i;
            heap.push(next);
        }
    }

    let expected_utility = sets.iter().zip(utilities).map(|(s, u)| u[s.0 as usize]).sum();
    OfflineSelection { sets, total_cost_ms: total_cost, expected_utility }
}

/// Utility rows for a batch of scores under a profile.
pub fn utility_rows(profile: &AccuracyProfile, scores: &[f64]) -> Vec<Vec<f64>> {
    scores.iter().map(|&s| profile.utility_vector(s).to_vec()).collect()
}

/// The Random baseline: uniformly random non-empty sets, re-drawn until the
/// budget constraint holds in expectation (sets are downgraded to the
/// cheapest singleton while over budget).
pub fn random_selection(
    m: usize,
    n: usize,
    set_costs: &[f64],
    budget_ms: f64,
    rng: &mut impl Rng,
) -> Vec<ModelSet> {
    let all: Vec<ModelSet> = ModelSet::all_nonempty(m).collect();
    let cheapest = *all
        .iter()
        .filter(|s| s.len() == 1)
        .min_by(|a, b| {
            set_costs[a.0 as usize].partial_cmp(&set_costs[b.0 as usize]).expect("finite")
        })
        .expect("non-empty ensemble");
    let mut sets: Vec<ModelSet> = (0..n).map(|_| *all.choose(rng).expect("non-empty")).collect();
    let mut cost: f64 = sets.iter().map(|s| set_costs[s.0 as usize]).sum();
    let mut idx = 0usize;
    while cost > budget_ms && idx < n {
        cost -= set_costs[sets[idx].0 as usize] - set_costs[cheapest.0 as usize];
        sets[idx] = cheapest;
        idx += 1;
    }
    sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemble_core::artifacts::SchembleArtifacts;
    use schemble_data::TaskKind;
    use schemble_sim::rng::stream_rng;

    fn fixture() -> (Ensemble, AccuracyProfile, Vec<f64>, Vec<schemble_models::Sample>) {
        let task = TaskKind::TextMatching;
        let ens = task.ensemble(1);
        let gen = task.default_generator(1);
        let art = SchembleArtifacts::build_small(&ens, &gen, 3);
        let samples = gen.batch(0, 400);
        let scores = art.scorer.score_batch(&ens, &samples);
        (ens, art.profile, scores, samples)
    }

    #[test]
    fn selection_respects_budget() {
        let (ens, profile, scores, _) = fixture();
        let costs = set_costs_ms(&ens);
        let rows = utility_rows(&profile, &scores);
        for budget_per_sample in [25.0, 60.0, 120.0] {
            let budget = budget_per_sample * rows.len() as f64;
            let sel = budgeted_selection(&rows, &costs, budget);
            // Mandatory singleton may exceed a sub-minimal budget; otherwise
            // the constraint must hold.
            let min_cost = rows.len() as f64 * 18.0;
            assert!(
                sel.total_cost_ms <= budget.max(min_cost) + 1e-6,
                "budget {budget} exceeded: {}",
                sel.total_cost_ms
            );
            assert!(sel.sets.iter().all(|s| !s.is_empty()));
        }
    }

    #[test]
    fn utility_grows_with_budget() {
        let (ens, profile, scores, _) = fixture();
        let costs = set_costs_ms(&ens);
        let rows = utility_rows(&profile, &scores);
        let n = rows.len() as f64;
        let tight = budgeted_selection(&rows, &costs, 25.0 * n);
        let loose = budgeted_selection(&rows, &costs, 120.0 * n);
        assert!(
            loose.expected_utility > tight.expected_utility,
            "more budget must not reduce utility"
        );
        // Unlimited budget ⇒ every sample attains its maximum utility (ties
        // between a subset and the full set stop upgrades early, so the sets
        // themselves need not all be the full ensemble).
        let unlimited = budgeted_selection(&rows, &costs, 1e12);
        let max_total: f64 = rows.iter().map(|r| r.iter().cloned().fold(0.0, f64::max)).sum();
        assert!(
            (unlimited.expected_utility - max_total).abs() < 1e-9,
            "unlimited budget should reach max utility: {} vs {}",
            unlimited.expected_utility,
            max_total
        );
    }

    #[test]
    fn difficulty_aware_selection_beats_random_at_same_budget() {
        let (ens, profile, scores, samples) = fixture();
        let costs = set_costs_ms(&ens);
        let rows = utility_rows(&profile, &scores);
        let n = rows.len() as f64;
        let budget = 60.0 * n;
        let smart = budgeted_selection(&rows, &costs, budget);
        let mut rng = stream_rng(1, "random-sel");
        let random = random_selection(ens.m(), rows.len(), &costs, budget, &mut rng);

        let accuracy = |sets: &[ModelSet]| {
            let mut hits = 0.0;
            for (s, set) in samples.iter().zip(sets) {
                let reference = ens.ensemble_output(s);
                if ens.subset_output(s, *set).agrees_with(&reference, &ens.spec) {
                    hits += 1.0;
                }
            }
            hits / samples.len() as f64
        };
        let acc_smart = accuracy(&smart.sets);
        let acc_random = accuracy(&random);
        assert!(
            acc_smart > acc_random,
            "Schemble* {acc_smart:.3} must beat Random {acc_random:.3}"
        );
    }

    #[test]
    fn hard_samples_get_more_models() {
        let (_, profile, scores, _) = fixture();
        let ens = TaskKind::TextMatching.ensemble(1);
        let costs = set_costs_ms(&ens);
        let rows = utility_rows(&profile, &scores);
        let budget = 55.0 * rows.len() as f64;
        let sel = budgeted_selection(&rows, &costs, budget);
        // Correlation between score and models assigned should be positive.
        let sizes: Vec<f64> = sel.sets.iter().map(|s| s.len() as f64).collect();
        let corr = schemble_tensor::stats::pearson(&sizes, &scores);
        assert!(corr > 0.2, "harder samples should get more models, corr {corr:.3}");
    }
}
