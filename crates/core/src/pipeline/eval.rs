//! Result scoring against the full ensemble's output (§VIII: "we refer to
//! results from the original deep ensemble as the ground truth").

use schemble_models::{Ensemble, ModelSet, Output, Sample, TaskSpec};
use std::borrow::Cow;

/// The set of models that produced `outputs`.
pub(crate) fn produced_set(outputs: &[(usize, Output)]) -> ModelSet {
    outputs.iter().fold(ModelSet::EMPTY, |s, (k, _)| s.with(*k))
}

/// The full ensemble's output on `sample` — [`Ensemble::ensemble_output`] —
/// given that the outputs in `held` have been computed already.
///
/// `infer` is a pure function of the model and the sample, and the
/// aggregation streams every model's output in model order, as
/// `ensemble_output` aggregates them, so the result is bit-equal to
/// recomputing every output. A model missing from `held` is inferred when
/// the aggregation reaches it; nothing but those outputs is allocated.
fn reference_output(ensemble: &Ensemble, sample: &Sample, held: &[(usize, Output)]) -> Output {
    debug_assert_eq!(produced_set(held).len(), held.len(), "two held outputs of one model");
    ensemble.aggregate_iter((0..ensemble.m()).map(|k| match held.iter().find(|(j, _)| *j == k) {
        Some((_, output)) => (k, Cow::Borrowed(output)),
        None => (k, Cow::Owned(ensemble.models[k].infer(sample, &ensemble.spec))),
    }))
}

/// Scores a returned result for one query whose caller already holds some
/// base-model outputs of `sample`: `held` pairs distinct model indices with
/// the outputs those models produced, and only the models missing from it
/// are run to build the reference.
///
/// Returns `(correct, score)` where `score` is what accumulates into the
/// accuracy/mAP columns: plain 0/1 agreement for classification and
/// regression, average precision (1/rank of the reference's top candidate)
/// for retrieval.
pub fn evaluate_with_outputs(
    ensemble: &Ensemble,
    sample: &Sample,
    held: &[(usize, Output)],
    result: &Output,
) -> (bool, f64) {
    let reference = reference_output(ensemble, sample, held);
    let correct = result.agrees_with(&reference, &ensemble.spec);
    let score = match ensemble.spec {
        TaskSpec::Retrieval { .. } => {
            let relevant = reference.predicted_class();
            1.0 / result.rank_of(relevant) as f64
        }
        _ => {
            if correct {
                1.0
            } else {
                0.0
            }
        }
    };
    (correct, score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use schemble_models::zoo;
    use schemble_models::{Aggregator, DifficultyDist, SampleGenerator};

    /// The oracle: scores `result` recomputing every base-model output.
    fn evaluate(ensemble: &Ensemble, sample: &Sample, result: &Output) -> (bool, f64) {
        evaluate_with_outputs(ensemble, sample, &[], result)
    }

    proptest! {
        #[test]
        fn outputs_in_hand_score_bit_equal_to_recomputing(
            kind in 0usize..5,
            id in 0u64..10_000,
            difficulty in 0.0f64..1.0,
            mask in 1u32..64,
            reversed in bool::ANY,
        ) {
            // Classification (weighted average, voting, six 100-class
            // softmaxes), regression and retrieval.
            let mut ens = match kind {
                0 | 1 => zoo::text_matching(1),
                2 => zoo::vehicle_counting(1),
                3 => zoo::image_retrieval(1),
                _ => zoo::cifar_zoo(6, 1),
            };
            if kind == 1 {
                ens.aggregator = Aggregator::Voting;
            }
            let set = ModelSet(mask & ens.full_set().0);
            if set.is_empty() {
                continue;
            }
            let gen = SampleGenerator::new(ens.spec, DifficultyDist::Fixed(difficulty), 5);
            let sample = gen.batch(id, 1).remove(0);
            let mut held = ens.infer_subset(&sample, set);
            if reversed {
                held.reverse();
            }
            // `==` on `f64`s throughout: equal bits, not a tolerance.
            prop_assert_eq!(reference_output(&ens, &sample, &held), ens.ensemble_output(&sample));
            // Scored on a sub-ensemble's answer, so agreement, disagreement
            // and partial retrieval credit all occur.
            let result = ens.subset_output(&sample, set);
            prop_assert_eq!(
                evaluate_with_outputs(&ens, &sample, &held, &result),
                evaluate(&ens, &sample, &result)
            );
        }
    }

    #[test]
    fn full_ensemble_result_scores_perfectly() {
        let ens = zoo::text_matching(1);
        let gen = SampleGenerator::new(ens.spec, DifficultyDist::Uniform, 5);
        for s in gen.batch(0, 50) {
            let result = ens.ensemble_output(&s);
            let (correct, score) = evaluate(&ens, &s, &result);
            assert!(correct);
            assert_eq!(score, 1.0);
        }
    }

    #[test]
    fn retrieval_scores_by_reciprocal_rank() {
        let ens = zoo::image_retrieval(1);
        let gen = SampleGenerator::new(ens.spec, DifficultyDist::Uniform, 5);
        let mut saw_partial = false;
        for s in gen.batch(0, 300) {
            let result = ens.subset_output(&s, ModelSet::singleton(0));
            let (correct, score) = evaluate(&ens, &s, &result);
            assert!((0.0..=1.0).contains(&score));
            if correct {
                assert_eq!(score, 1.0, "top-1 agreement means rank 1");
            } else if score > 0.0 {
                saw_partial = true;
                assert!(score < 1.0);
            }
        }
        assert!(saw_partial, "expected some partial-credit retrieval results");
    }

    #[test]
    fn regression_tolerance_is_respected() {
        let ens = zoo::vehicle_counting(1);
        let gen = SampleGenerator::new(ens.spec, DifficultyDist::Fixed(0.05), 5);
        let mut correct_count = 0;
        let samples = gen.batch(0, 200);
        for s in &samples {
            let result = ens.subset_output(&s.clone(), ModelSet::full(3));
            let (correct, score) = evaluate(&ens, s, &result);
            assert!(correct && score == 1.0);
            correct_count += 1;
        }
        assert_eq!(correct_count, 200);
    }
}
