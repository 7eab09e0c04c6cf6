//! Deep ensembles: base models + aggregation module.

use crate::aggregate::Aggregator;
use crate::base::BaseModel;
use crate::modelset::ModelSet;
use crate::output::{Output, TaskSpec};
use crate::sample::Sample;
use schemble_sim::{LatencyModel, SimDuration};
use std::borrow::Borrow;

/// A deep ensemble: `m` base models, a task spec and an aggregation module.
#[derive(Debug, Clone)]
pub struct Ensemble {
    /// The base models, in deployment order.
    pub models: Vec<BaseModel>,
    /// Task specification.
    pub spec: TaskSpec,
    /// Aggregation module.
    pub aggregator: Aggregator,
}

impl Ensemble {
    /// Builds an ensemble with accuracy-proportional weighted averaging —
    /// the aggregator used by the vehicle-counting and image-retrieval tasks.
    pub fn weighted_average(models: Vec<BaseModel>, spec: TaskSpec) -> Self {
        assert!(!models.is_empty(), "ensemble needs at least one model");
        let weights: Vec<f64> = models.iter().map(BaseModel::mean_accuracy).collect();
        Self { models, spec, aggregator: Aggregator::WeightedAverage { weights } }
    }

    /// Number of base models.
    pub fn m(&self) -> usize {
        self.models.len()
    }

    /// The full model set.
    pub fn full_set(&self) -> ModelSet {
        ModelSet::full(self.m())
    }

    /// Runs every base model on `sample`.
    pub fn infer_all(&self, sample: &Sample) -> Vec<Output> {
        self.models.iter().map(|bm| bm.infer(sample, &self.spec)).collect()
    }

    /// Runs only the models in `set`, returning `(model index, output)` pairs.
    ///
    /// # Panics
    /// Panics on the empty set.
    pub fn infer_subset(&self, sample: &Sample, set: ModelSet) -> Vec<(usize, Output)> {
        assert!(!set.is_empty(), "cannot infer with the empty model set");
        set.iter().map(|k| (k, self.models[k].infer(sample, &self.spec))).collect()
    }

    /// Aggregates already-computed outputs of the present models.
    pub fn aggregate(&self, present: &[(usize, &Output)]) -> Output {
        self.aggregator.aggregate(present, &self.spec, self.m())
    }

    /// [`Ensemble::aggregate`] over outputs streamed in one pass, borrowed or
    /// owned ([`Aggregator::aggregate_iter`]).
    pub fn aggregate_iter<O: Borrow<Output>>(
        &self,
        present: impl IntoIterator<Item = (usize, O)>,
    ) -> Output {
        self.aggregator.aggregate_iter(present, &self.spec, self.m())
    }

    /// The full ensemble's output on `sample` — the evaluation ground truth
    /// of §VIII.
    pub fn ensemble_output(&self, sample: &Sample) -> Output {
        let outputs = self.infer_all(sample);
        let present: Vec<(usize, &Output)> = outputs.iter().enumerate().collect();
        self.aggregate(&present)
    }

    /// Output of the sub-ensemble `set` on `sample`, aggregated with the
    /// missing models excluded (voting) / reweighted (averaging). Stacking
    /// aggregators cannot aggregate partial sets — use the KNN filler in
    /// `schemble-core` for those.
    pub fn subset_output(&self, sample: &Sample, set: ModelSet) -> Output {
        let outputs = self.infer_subset(sample, set);
        let present: Vec<(usize, &Output)> = outputs.iter().map(|(k, o)| (*k, o)).collect();
        self.aggregate(&present)
    }

    /// Latency profile of model `k`.
    pub fn latency(&self, k: usize) -> LatencyModel {
        self.models[k].latency
    }

    /// Planned (nominal) execution times of each model — the `{T_k}` input
    /// of Alg. 1.
    pub fn planned_latencies(&self) -> Vec<SimDuration> {
        self.models.iter().map(|bm| bm.latency.planned()).collect()
    }

    /// The slowest model's nominal latency — the floor for feasible
    /// deadlines ("all deadlines assigned are larger than the time delay of
    /// the slowest model", §VIII).
    pub fn slowest_planned_latency(&self) -> SimDuration {
        self.models.iter().map(|bm| bm.latency.planned()).max().unwrap_or(SimDuration::ZERO)
    }

    /// Sum of planned execution times of `set` — the *cumulative runtime*
    /// notion used by the offline budget experiment (Fig. 16).
    pub fn set_cumulative_latency(&self, set: ModelSet) -> SimDuration {
        set.iter().fold(SimDuration::ZERO, |acc, k| acc + self.models[k].latency.planned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::difficulty::DifficultyDist;
    use crate::sample::SampleGenerator;

    fn small_ensemble() -> Ensemble {
        Ensemble::weighted_average(
            vec![
                BaseModel::classifier("weak", 0.92, 0.55, 18.0, 1.5, 1),
                BaseModel::classifier("mid", 0.96, 0.68, 42.0, 2.0, 2),
                BaseModel::classifier("strong", 0.975, 0.72, 48.0, 2.3, 3),
            ],
            TaskSpec::Classification { num_classes: 2 },
        )
    }

    fn gen() -> SampleGenerator {
        SampleGenerator::new(
            TaskSpec::Classification { num_classes: 2 },
            DifficultyDist::Uniform,
            77,
        )
    }

    #[test]
    fn ensemble_beats_best_base_model() {
        let ens = small_ensemble();
        let g = gen();
        let n = 6000;
        let samples = g.batch(0, n);
        let mut base_correct = vec![0usize; ens.m()];
        let mut ens_correct = 0usize;
        for s in &samples {
            let outs = ens.infer_all(s);
            for (k, o) in outs.iter().enumerate() {
                if o.predicted_class() == s.label.class() {
                    base_correct[k] += 1;
                }
            }
            let present: Vec<(usize, &Output)> = outs.iter().enumerate().collect();
            if ens.aggregate(&present).predicted_class() == s.label.class() {
                ens_correct += 1;
            }
        }
        let best_base = base_correct.iter().max().copied().unwrap() as f64 / n as f64;
        let ens_acc = ens_correct as f64 / n as f64;
        assert!(
            ens_acc > best_base + 0.005,
            "ensemble {ens_acc:.4} should beat best base {best_base:.4}"
        );
    }

    #[test]
    fn redundancy_structure_matches_paper() {
        // §I: ~78% of samples are solved (w.r.t. the ensemble output) by
        // *every single* base model alone; only a small fraction require the
        // full ensemble. Check the shape: most samples solvable by any one
        // model, few needing all three.
        let ens = small_ensemble();
        let g = gen();
        let n = 5000;
        let mut any_single = 0usize;
        let mut need_all = 0usize;
        for s in g.batch(0, n) {
            let reference = ens.ensemble_output(&s);
            let solo_ok: Vec<bool> = (0..ens.m())
                .map(|k| {
                    ens.subset_output(&s, ModelSet::singleton(k)).agrees_with(&reference, &ens.spec)
                })
                .collect();
            if solo_ok.iter().all(|&b| b) {
                any_single += 1;
            }
            // "Needs all" ≈ no proper subset matches the ensemble.
            let any_pair_ok = ModelSet::all_nonempty(ens.m())
                .filter(|set| set.len() == 2)
                .any(|set| ens.subset_output(&s, set).agrees_with(&reference, &ens.spec));
            if !solo_ok.iter().any(|&b| b) && !any_pair_ok {
                need_all += 1;
            }
        }
        let frac_any = any_single as f64 / n as f64;
        let frac_all = need_all as f64 / n as f64;
        assert!(frac_any > 0.6, "fraction solvable by every single model too low: {frac_any:.3}");
        assert!(frac_all < 0.15, "fraction needing all models too high: {frac_all:.3}");
    }

    #[test]
    fn subset_output_of_full_set_equals_ensemble_output() {
        let ens = small_ensemble();
        let s = gen().sample(12);
        assert_eq!(ens.subset_output(&s, ens.full_set()), ens.ensemble_output(&s));
    }

    #[test]
    fn latency_helpers() {
        let ens = small_ensemble();
        assert_eq!(ens.slowest_planned_latency(), SimDuration::from_millis(48));
        assert_eq!(
            ens.set_cumulative_latency(ModelSet::from_indices(&[0, 1])),
            SimDuration::from_millis(60)
        );
    }

    #[test]
    #[should_panic(expected = "empty model set")]
    fn empty_subset_inference_panics() {
        let ens = small_ensemble();
        let s = gen().sample(0);
        ens.infer_subset(&s, ModelSet::EMPTY);
    }
}
