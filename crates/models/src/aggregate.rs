//! Aggregation modules (paper §VII).
//!
//! Three aggregators, matching the paper's missing-value strategies:
//!
//! * **Voting** — missing outputs simply stay out of the vote;
//! * **Weighted averaging** — missing weights are zeroed and the rest
//!   renormalised;
//! * **Stacking** — a trained meta-classifier with fixed input arity; it
//!   *requires* a full output vector, so callers must fill missing outputs
//!   first (the KNN filler in `schemble-core`).

use crate::modelset::ModelSet;
use crate::output::{Output, TaskSpec};
use rand::Rng;
use schemble_nn::loss::{mse, softmax_ce_with_logits};
use schemble_nn::optim::Adam;
use schemble_nn::{Activation, Mlp};
use schemble_tensor::prob::softmax;
use schemble_tensor::Matrix;
use std::borrow::Borrow;

/// How base-model outputs combine into the ensemble's output.
#[derive(Debug, Clone)]
pub enum Aggregator {
    /// Majority vote over predicted classes (categorical) / median (scalar).
    /// The emitted categorical output is the normalised vote histogram.
    Voting,
    /// Weighted average; `weights[k]` is model k's weight (need not sum to 1 —
    /// present weights are renormalised per query).
    WeightedAverage {
        /// Per-model weights.
        weights: Vec<f64>,
    },
    /// Trained meta-classifier over the concatenated base outputs.
    Stacking {
        /// The meta network. Categorical: emits class logits; regression:
        /// emits the scalar directly.
        meta: Mlp,
    },
}

impl Aggregator {
    /// Aggregates the outputs of the *present* models.
    ///
    /// `present` pairs each output with its model index (needed to pick the
    /// right weight). For [`Aggregator::Stacking`] the slice must cover the
    /// full ensemble in model order — fill missing outputs first.
    ///
    /// # Panics
    /// Panics on an empty `present` slice, or on a partial slice with
    /// stacking.
    pub fn aggregate(&self, present: &[(usize, &Output)], spec: &TaskSpec, m: usize) -> Output {
        self.aggregate_iter(present.iter().copied(), spec, m)
    }

    /// [`Aggregator::aggregate`] over outputs streamed in one pass, borrowed
    /// or owned, so a caller that holds them in another shape — or makes
    /// some on the way — collects nothing. The result is bit-equal to
    /// aggregating the same sequence as a slice.
    ///
    /// # Panics
    /// As [`Aggregator::aggregate`].
    pub fn aggregate_iter<O: Borrow<Output>>(
        &self,
        present: impl IntoIterator<Item = (usize, O)>,
        spec: &TaskSpec,
        m: usize,
    ) -> Output {
        let present = present.into_iter();
        match self {
            Aggregator::Voting => aggregate_voting(present, spec),
            Aggregator::WeightedAverage { weights } => aggregate_weighted(present, spec, weights),
            Aggregator::Stacking { meta } => {
                let mut features = Vec::new();
                let mut count = 0;
                for (idx, o) in present {
                    assert_eq!(idx, count, "stacking inputs must be in model order");
                    features.extend(o.borrow().as_vec());
                    count += 1;
                }
                assert_nonempty(count);
                assert_eq!(count, m, "stacking needs all {m} outputs; fill missing values first");
                let raw = meta.infer_one(&features);
                match spec {
                    TaskSpec::Regression { .. } => Output::Scalar(raw[0]),
                    _ => Output::Probs(softmax(&raw)),
                }
            }
        }
    }
}

fn assert_nonempty(count: usize) {
    assert!(count > 0, "cannot aggregate zero outputs");
}

fn aggregate_voting<O: Borrow<Output>>(
    present: impl Iterator<Item = (usize, O)>,
    spec: &TaskSpec,
) -> Output {
    match spec {
        TaskSpec::Regression { .. } => {
            // Median vote for scalars.
            let mut vals: Vec<f64> = present.map(|(_, o)| o.borrow().value()).collect();
            assert_nonempty(vals.len());
            vals.sort_by(|a, b| a.partial_cmp(b).expect("NaN in regression output"));
            let n = vals.len();
            let median =
                if n % 2 == 1 { vals[n / 2] } else { 0.5 * (vals[n / 2 - 1] + vals[n / 2]) };
            Output::Scalar(median)
        }
        _ => {
            let c = spec.output_dim();
            let mut votes = vec![0.0f64; c];
            let mut count = 0;
            for (_, o) in present {
                votes[o.borrow().predicted_class()] += 1.0;
                count += 1;
            }
            assert_nonempty(count);
            let total: f64 = votes.iter().sum();
            Output::Probs(votes.into_iter().map(|v| v / total).collect())
        }
    }
}

fn aggregate_weighted<O: Borrow<Output>>(
    present: impl Iterator<Item = (usize, O)>,
    spec: &TaskSpec,
    weights: &[f64],
) -> Output {
    // Sums start where `Iterator::sum` does for floats (−0.0), so one pass
    // adds exactly what a sum per quantity over a slice would.
    let (mut count, mut wsum) = (0, -0.0);
    let out = match spec {
        TaskSpec::Regression { .. } => {
            let mut v = -0.0;
            for (k, o) in present {
                wsum += weights[k];
                v += weights[k] * o.borrow().value();
                count += 1;
            }
            Output::Scalar(v)
        }
        _ => {
            let mut acc = vec![0.0f64; spec.output_dim()];
            for (k, o) in present {
                wsum += weights[k];
                match o.borrow() {
                    Output::Probs(p) => {
                        for (a, &pi) in acc.iter_mut().zip(p) {
                            *a += weights[k] * pi;
                        }
                    }
                    Output::Scalar(_) => panic!("scalar output under categorical spec"),
                }
                count += 1;
            }
            Output::Probs(acc)
        }
    };
    assert_nonempty(count);
    assert!(wsum > 0.0, "all present weights are zero");
    match out {
        Output::Scalar(v) => Output::Scalar(v / wsum),
        Output::Probs(mut acc) => {
            for a in &mut acc {
                *a /= wsum;
            }
            Output::Probs(acc)
        }
    }
}

/// Every subset's weighted average of one sample's outputs, built by
/// extension.
///
/// Subsets are visited depth first, each grown from the set without its
/// highest model by adding that model's weighted output
/// (`acc(S) = acc(S−hi) + w_hi·p_hi`, `wsum(S) = wsum(S−hi) + w_hi`). Each
/// sum therefore adds the terms [`Aggregator::WeightedAverage`] adds, in the
/// same ascending model order, from the same start (`0.0` per class, `−0.0`
/// for a scalar and for the weight sum), and [`SubsetAverage`] divides as it
/// does: every average is bit-equal to aggregating the subset, at one
/// multiply-add per dimension per subset instead of one per member. Only
/// the current path's sums are held: `(m + 1) × dim` floats, kept across
/// calls.
#[derive(Debug, Clone, Default)]
pub struct SubsetAverages {
    dim: usize,
    /// Row `d` holds the weighted sums of the path's set of `d` models.
    sums: Vec<f64>,
    /// `weight_sums[d]`: the sum of that set's weights.
    weight_sums: Vec<f64>,
}

/// One subset's weighted average, as [`SubsetAverages::visit`] hands it out.
#[derive(Debug, Clone, Copy)]
pub struct SubsetAverage<'a> {
    sums: &'a [f64],
    weight_sum: f64,
}

impl SubsetAverage<'_> {
    /// The average in output dimension `c`.
    pub fn value(&self, c: usize) -> f64 {
        self.sums[c] / self.weight_sum
    }

    /// [`Output::predicted_class`] of the average, without materialising it.
    pub fn predicted_class(&self) -> usize {
        let (mut best, mut best_value) = (0, self.value(0));
        for c in 1..self.sums.len() {
            let v = self.value(c);
            if v > best_value {
                (best, best_value) = (c, v);
            }
        }
        best
    }
}

impl SubsetAverages {
    /// Visits every non-empty subset of `outputs` (one per model, in model
    /// order) of at most `max_len` models, with its average under `weights`.
    ///
    /// # Panics
    /// Panics if a weight is not positive (the average of its singleton
    /// would have no weight), or if an output's kind or dimension does not
    /// match `spec`.
    pub fn visit(
        &mut self,
        outputs: &[Output],
        weights: &[f64],
        spec: &TaskSpec,
        max_len: usize,
        mut visit: impl FnMut(ModelSet, SubsetAverage<'_>),
    ) {
        let m = outputs.len();
        assert!(weights[..m].iter().all(|&w| w > 0.0), "all present weights are zero");
        self.dim = spec.output_dim();
        let start = if spec.is_categorical() { 0.0 } else { -0.0 };
        self.sums.clear();
        self.sums.resize((m + 1) * self.dim, start);
        self.weight_sums.clear();
        self.weight_sums.resize(m + 1, -0.0);
        self.extend(outputs, weights, spec, ModelSet::EMPTY, max_len.min(m), &mut visit);
    }

    /// Visits every extension of `set`, whose sums are on the path, by one
    /// model above its highest, each followed by its own extensions.
    fn extend(
        &mut self,
        outputs: &[Output],
        weights: &[f64],
        spec: &TaskSpec,
        set: ModelSet,
        max_len: usize,
        visit: &mut impl FnMut(ModelSet, SubsetAverage<'_>),
    ) {
        let depth = set.len();
        if depth == max_len {
            return;
        }
        let dim = self.dim;
        let from = set.iter().last().map_or(0, |hi| hi + 1);
        for k in from..outputs.len() {
            let values = match (&outputs[k], spec.is_categorical()) {
                (Output::Probs(p), true) => p.as_slice(),
                (Output::Scalar(v), false) => std::slice::from_ref(v),
                _ => panic!("output kind does not match task spec"),
            };
            assert_eq!(values.len(), dim, "output dimension does not match task spec");
            let w = weights[k];
            let (path, next) = self.sums.split_at_mut((depth + 1) * dim);
            let row = &mut next[..dim];
            for ((a, &b), &p) in row.iter_mut().zip(&path[depth * dim..]).zip(values) {
                *a = b + w * p;
            }
            let weight_sum = self.weight_sums[depth] + w;
            self.weight_sums[depth + 1] = weight_sum;
            let grown = set.with(k);
            visit(grown, SubsetAverage { sums: row, weight_sum });
            self.extend(outputs, weights, spec, grown, max_len, visit);
        }
    }
}

/// Trains a stacking meta-classifier on full historical output files.
///
/// `rows` holds the concatenated base-model output vectors; `labels` holds
/// the ground-truth targets (class index, or scalar for regression).
pub fn train_stacking_meta(
    rows: &[Vec<f64>],
    labels: &[crate::sample::Label],
    spec: &TaskSpec,
    rng: &mut impl Rng,
) -> Mlp {
    assert!(!rows.is_empty(), "cannot train stacking on empty data");
    assert_eq!(rows.len(), labels.len(), "row/label count mismatch");
    let in_dim = rows[0].len();
    let out_dim = spec.output_dim();
    let x = Matrix::from_fn(rows.len(), in_dim, |r, c| rows[r][c]);
    let mut meta = Mlp::new(&[in_dim, 16, out_dim], Activation::Relu, Activation::Identity, rng);
    let mut opt = Adam::new(0.01);
    match spec {
        TaskSpec::Regression { .. } => {
            let targets: Vec<f64> = labels.iter().map(|l| l.value()).collect();
            meta.fit(&x, 40, 32, &mut opt, rng, |pred, idx| {
                let t = Matrix::from_fn(idx.len(), 1, |r, _| targets[idx[r]]);
                mse(pred, &t)
            });
        }
        _ => {
            let targets: Vec<usize> = labels.iter().map(|l| l.class()).collect();
            meta.fit(&x, 40, 32, &mut opt, rng, |pred, idx| {
                let batch: Vec<usize> = idx.iter().map(|&i| targets[i]).collect();
                softmax_ce_with_logits(pred, &batch)
            });
        }
    }
    meta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::Label;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cls_spec() -> TaskSpec {
        TaskSpec::Classification { num_classes: 2 }
    }

    #[test]
    fn voting_majority_wins() {
        let a = Output::Probs(vec![0.9, 0.1]);
        let b = Output::Probs(vec![0.6, 0.4]);
        let c = Output::Probs(vec![0.2, 0.8]);
        let agg = Aggregator::Voting;
        let out = agg.aggregate(&[(0, &a), (1, &b), (2, &c)], &cls_spec(), 3);
        assert_eq!(out.predicted_class(), 0);
        if let Output::Probs(p) = out {
            assert!((p[0] - 2.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn voting_excludes_missing() {
        // With the dissenting model missing, the vote is unanimous.
        let a = Output::Probs(vec![0.2, 0.8]);
        let b = Output::Probs(vec![0.3, 0.7]);
        let out = Aggregator::Voting.aggregate(&[(0, &a), (2, &b)], &cls_spec(), 3);
        assert_eq!(out.predicted_class(), 1);
        if let Output::Probs(p) = out {
            assert_eq!(p[1], 1.0);
        }
    }

    #[test]
    fn voting_median_for_regression() {
        let spec = TaskSpec::Regression { tolerance: 0.5 };
        let o = [Output::Scalar(1.0), Output::Scalar(10.0), Output::Scalar(3.0)];
        let out = Aggregator::Voting.aggregate(&[(0, &o[0]), (1, &o[1]), (2, &o[2])], &spec, 3);
        assert_eq!(out.value(), 3.0);
    }

    #[test]
    fn weighted_average_renormalises_missing() {
        let w = Aggregator::WeightedAverage { weights: vec![0.5, 0.3, 0.2] };
        let a = Output::Probs(vec![1.0, 0.0]);
        let b = Output::Probs(vec![0.0, 1.0]);
        // Only models 0 and 1 present: weights renormalise to 5/8, 3/8.
        let out = w.aggregate(&[(0, &a), (1, &b)], &cls_spec(), 3);
        if let Output::Probs(p) = out {
            assert!((p[0] - 0.625).abs() < 1e-12);
            assert!((p[1] - 0.375).abs() < 1e-12);
        } else {
            panic!("expected probs");
        }
    }

    #[test]
    fn weighted_average_scalar() {
        let spec = TaskSpec::Regression { tolerance: 0.5 };
        let w = Aggregator::WeightedAverage { weights: vec![1.0, 3.0] };
        let out = w.aggregate(&[(0, &Output::Scalar(0.0)), (1, &Output::Scalar(4.0))], &spec, 2);
        assert_eq!(out.value(), 3.0);
    }

    #[test]
    fn stacking_learns_xor_of_experts() {
        // Two "experts" whose concatenated outputs determine the label in a
        // non-linear way only a trained meta can express.
        let mut rng = StdRng::seed_from_u64(8);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..400 {
            let a = (i / 2) % 2;
            let b = i % 2;
            let y = a ^ b;
            rows.push(vec![
                if a == 1 { 0.9 } else { 0.1 },
                if a == 1 { 0.1 } else { 0.9 },
                if b == 1 { 0.85 } else { 0.15 },
                if b == 1 { 0.15 } else { 0.85 },
            ]);
            labels.push(Label::Class(y));
        }
        let spec = cls_spec();
        let meta = train_stacking_meta(&rows, &labels, &spec, &mut rng);
        let agg = Aggregator::Stacking { meta };
        let mk = |hi: bool| {
            if hi {
                Output::Probs(vec![0.9, 0.1])
            } else {
                Output::Probs(vec![0.1, 0.9])
            }
        };
        for (a, b) in [(true, true), (true, false), (false, true), (false, false)] {
            let (o1, o2) = (mk(a), mk(b));
            let out = agg.aggregate(&[(0, &o1), (1, &o2)], &spec, 2);
            let want = usize::from(a != b);
            assert_eq!(out.predicted_class(), want, "stacking failed on ({a},{b})");
        }
    }

    #[test]
    #[should_panic(expected = "fill missing values first")]
    fn stacking_rejects_partial_inputs() {
        let mut rng = StdRng::seed_from_u64(1);
        let meta = Mlp::new(&[4, 2], Activation::Identity, Activation::Identity, &mut rng);
        let agg = Aggregator::Stacking { meta };
        let o = Output::Probs(vec![0.5, 0.5]);
        agg.aggregate(&[(0, &o)], &cls_spec(), 2);
    }

    #[test]
    #[should_panic(expected = "zero outputs")]
    fn empty_aggregation_panics() {
        Aggregator::Voting.aggregate(&[], &cls_spec(), 3);
    }
}
