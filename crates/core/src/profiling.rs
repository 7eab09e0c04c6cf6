//! Model-combination accuracy profiling (§V-D).
//!
//! Historical samples are bucketed into `B` bins by discrepancy score; inside
//! each bin the accuracy of every model subset is measured *against the full
//! ensemble's output* (the evaluation ground truth of §VIII). The resulting
//! table `U(bin, S)` is the scheduler's reward function.
//!
//! Two refinements from the paper:
//!
//! * **Monotone repair.** Assumption 1 (diminishing marginal utility, which
//!   implies supersets never hurt) can be violated by sampling noise in
//!   sparse bins; the table is repaired so `S ⊆ S' ⇒ U(b,S) ≤ U(b,S')`.
//! * **Marginal-reward estimation (Eq. 3).** When the ensemble grows,
//!   profiling all `2^m` subsets is expensive; subsets larger than a cutoff
//!   are estimated from pair/singleton profiles with a fitted diminishing
//!   factor `γ_k` (Fig. 20a checks the estimation error).

use crate::history::{workers, HistoryPass};
use crate::pipeline::ResultAssembler;
use schemble_models::aggregate::SubsetAverages;
use schemble_models::{Aggregator, Ensemble, ModelSet, Output, Sample, TaskSpec};
use std::sync::Arc;

/// The per-bin subset-accuracy table.
#[derive(Debug, Clone)]
pub struct AccuracyProfile {
    bins: usize,
    m: usize,
    /// `table[bin][set.0]` = accuracy of `set` in `bin` (index 0 = ∅ = 0.0).
    /// Rows are shared with every query scored into the bin
    /// ([`AccuracyProfile::utility_vector`]), so they are immutable once
    /// fitting is done.
    table: Vec<Arc<[f64]>>,
    /// Samples observed per bin.
    counts: Vec<usize>,
}

impl AccuracyProfile {
    /// Default number of score bins.
    pub const DEFAULT_BINS: usize = 10;

    /// Profiles every subset exactly.
    ///
    /// `scores[i]` is the discrepancy score of `history[i]` in `[0, 1]`.
    ///
    /// # Panics
    /// Panics if lengths mismatch, history is empty, or `bins == 0`.
    pub fn fit(ensemble: &Ensemble, history: &[Sample], scores: &[f64], bins: usize) -> Self {
        Self::fit_with_cutoff(ensemble, history, scores, bins, ensemble.m())
    }

    /// Profiles subsets of size ≤ `profile_cutoff` exactly and estimates the
    /// rest with Eq. 3.
    pub fn fit_with_cutoff(
        ensemble: &Ensemble,
        history: &[Sample],
        scores: &[f64],
        bins: usize,
        profile_cutoff: usize,
    ) -> Self {
        Self::fit_with_assembler(
            ensemble,
            history,
            scores,
            bins,
            profile_cutoff,
            &ResultAssembler::Direct,
        )
    }

    /// Profiles subset accuracies with an explicit result assembler —
    /// required for stacking ensembles, whose aggregation needs missing
    /// outputs KNN-filled before the meta-classifier can run (§VII).
    pub fn fit_with_assembler(
        ensemble: &Ensemble,
        history: &[Sample],
        scores: &[f64],
        bins: usize,
        profile_cutoff: usize,
        assembler: &ResultAssembler,
    ) -> Self {
        assert!(!history.is_empty(), "cannot profile on empty history");
        assert_eq!(history.len(), scores.len(), "history/scores length mismatch");
        let cutoff = profile_cutoff.min(ensemble.m());
        let pass = HistoryPass {
            ensemble,
            distances: None,
            agreement: Some((assembler, cutoff)),
            labels: false,
        };
        let rows = pass.run(workers(), history);
        Self::from_masks(ensemble, scores, &rows.masks, bins, cutoff)
    }

    /// Counts each sample's agreement mask (see [`HistoryPass`]) into its
    /// score's bin and fits the table: measured for subsets of at most
    /// `cutoff` models, Eq. 3 estimates above, then repaired to be monotone.
    pub(crate) fn from_masks(
        ensemble: &Ensemble,
        scores: &[f64],
        masks: &[u64],
        bins: usize,
        cutoff: usize,
    ) -> Self {
        assert!(bins > 0, "need at least one bin");
        let m = ensemble.m();
        let n_sets = 1usize << m;
        let words = mask_words(m);
        assert_eq!(masks.len(), scores.len() * words, "one agreement mask per score");

        let mut hits = vec![vec![0usize; n_sets]; bins];
        let mut counts = vec![0usize; bins];
        for (mask, &score) in masks.chunks_exact(words).zip(scores) {
            let b = bin_of_score(score, bins);
            counts[b] += 1;
            for (w, &word) in mask.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    hits[b][w * 64 + bits.trailing_zeros() as usize] += 1;
                    bits &= bits - 1;
                }
            }
        }

        // Global (all-bins) accuracies back-fill empty bins.
        let mut global = vec![0.0f64; n_sets];
        let total: usize = counts.iter().sum();
        for set_idx in 1..n_sets {
            let sum: usize = hits.iter().map(|h| h[set_idx]).sum();
            global[set_idx] = sum as f64 / total as f64;
        }

        let mut table = vec![vec![0.0f64; n_sets]; bins];
        for b in 0..bins {
            for set_idx in 1..n_sets {
                table[b][set_idx] = if counts[b] == 0 {
                    global[set_idx]
                } else {
                    hits[b][set_idx] as f64 / counts[b] as f64
                };
            }
        }

        let table = table.into_iter().map(Arc::from).collect();
        let mut profile = Self { bins, m, table, counts };
        if cutoff < m {
            profile.estimate_large_sets(ensemble, cutoff);
        }
        profile.monotone_repair();
        profile
    }

    /// Bin `b`'s row for in-place edits. Only fitting calls this, before
    /// the profile (and so any clone of a row) has left `fit_with_assembler`.
    fn row_mut(&mut self, b: usize) -> &mut [f64] {
        Arc::get_mut(&mut self.table[b]).expect("rows are unshared while fitting")
    }

    /// Eq. 3: estimate utilities of sets larger than `cutoff` from smaller
    /// profiles. Models are ranked by accuracy; the diminishing factor γ_k is
    /// fitted so the estimated full-profile marginals match the largest
    /// exactly-profiled size.
    fn estimate_large_sets(&mut self, ensemble: &Ensemble, cutoff: usize) {
        assert!(cutoff >= 2, "Eq. 3 needs at least pairs profiled");
        // Rank models by mean accuracy, descending (the paper sorts by acc).
        let mut order: Vec<usize> = (0..self.m).collect();
        order.sort_by(|&a, &b| {
            ensemble.models[b]
                .mean_accuracy()
                .partial_cmp(&ensemble.models[a].mean_accuracy())
                .expect("NaN accuracy")
        });
        // γ fitted on the transition from size cutoff-1 → cutoff where both
        // sides are known: γ = observed_gain / predicted_raw_gain, averaged.
        let gamma = self.fit_gamma(&order, cutoff);
        let m = self.m;
        for b in 0..self.bins {
            let row = self.row_mut(b);
            // Build up ordered prefix sets {m1}, {m1,m2}, … estimating each
            // missing size from the previous one.
            for k in cutoff..m {
                let prefix = ModelSet::from_indices(&order[..k]);
                let next_model = order[k];
                let grown = prefix.with(next_model);
                if grown.len() <= cutoff {
                    continue;
                }
                let base = row[prefix.0 as usize];
                let mut marginal = 0.0;
                for &q in &order[..k] {
                    let pair = ModelSet::from_indices(&[q, next_model]);
                    let single = ModelSet::singleton(q);
                    marginal += row[pair.0 as usize] - row[single.0 as usize];
                }
                marginal /= k as f64;
                row[grown.0 as usize] = (base + gamma * marginal).clamp(0.0, 1.0);
                // Non-prefix large sets get the estimate of their own best
                // prefix-style recursion: approximate by the grown-prefix
                // value of the same size (the scheduler only needs ordered
                // growth in practice — large ensembles run ordered subsets).
                for set in ModelSet::all_nonempty(m) {
                    if set.len() == grown.len() && row[set.0 as usize] == 0.0 {
                        let approx: f64 = set
                            .iter()
                            .map(|i| row[ModelSet::singleton(i).0 as usize])
                            .fold(0.0, f64::max);
                        row[set.0 as usize] = approx.max(row[grown.0 as usize] * 0.98);
                    }
                }
            }
        }
    }

    fn fit_gamma(&self, order: &[usize], cutoff: usize) -> f64 {
        // Use the profiled transition (cutoff-1 → cutoff) on the ordered
        // prefix to calibrate γ.
        let k = cutoff - 1;
        let prefix = ModelSet::from_indices(&order[..k]);
        let grown = ModelSet::from_indices(&order[..cutoff]);
        let next_model = order[k];
        let mut num = 0.0;
        let mut den = 0.0;
        for b in 0..self.bins {
            if self.counts[b] == 0 {
                continue;
            }
            let observed = self.table[b][grown.0 as usize] - self.table[b][prefix.0 as usize];
            let mut raw = 0.0;
            for &q in &order[..k] {
                let pair = ModelSet::from_indices(&[q, next_model]);
                raw += self.table[b][pair.0 as usize]
                    - self.table[b][ModelSet::singleton(q).0 as usize];
            }
            raw /= k as f64;
            num += observed * self.counts[b] as f64;
            den += raw * self.counts[b] as f64;
        }
        if den.abs() < 1e-9 {
            1.0
        } else {
            (num / den).clamp(0.0, 2.0)
        }
    }

    /// Enforces `S ⊆ S' ⇒ U(b,S) ≤ U(b,S')` by propagating maxima upward
    /// through single-element extensions.
    fn monotone_repair(&mut self) {
        let n_sets = 1usize << self.m;
        for b in 0..self.bins {
            let row = self.row_mut(b);
            // Process sets in increasing popcount order.
            let mut by_size: Vec<u32> = (1..n_sets as u32).collect();
            by_size.sort_by_key(|s| s.count_ones());
            for &set in &by_size {
                let set = ModelSet(set);
                let mut best = row[set.0 as usize];
                for k in set.iter() {
                    let smaller = set.without(k);
                    if !smaller.is_empty() {
                        best = best.max(row[smaller.0 as usize]);
                    }
                }
                row[set.0 as usize] = best;
            }
        }
    }

    /// Bin index of a score.
    pub fn bin_of(&self, score: f64) -> usize {
        bin_of_score(score, self.bins)
    }

    /// The profiled utility `U(bin(score), set)`; the empty set is worth 0.
    pub fn utility(&self, score: f64, set: ModelSet) -> f64 {
        if set.is_empty() {
            return 0.0;
        }
        self.table[self.bin_of(score)][set.0 as usize]
    }

    /// Utility vector over all `2^m` subsets for a score — the per-query
    /// reward input of Alg. 1. This is the bin's own row, shared: a refcount
    /// bump per call, and every query of a bin holds the same pointer.
    pub fn utility_vector(&self, score: f64) -> Arc<[f64]> {
        Arc::clone(&self.table[self.bin_of(score)])
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Ensemble size.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Samples observed in bin `b`.
    pub fn bin_count(&self, b: usize) -> usize {
        self.counts[b]
    }

    /// Mean squared error of this profile's table against a reference
    /// profile (Fig. 20a compares Eq. 3 estimates with exact profiling).
    pub fn mse_against(&self, reference: &AccuracyProfile) -> f64 {
        assert_eq!(self.bins, reference.bins);
        assert_eq!(self.m, reference.m);
        let mut sum = 0.0;
        let mut n = 0usize;
        for b in 0..self.bins {
            for set_idx in 1..(1usize << self.m) {
                let d = self.table[b][set_idx] - reference.table[b][set_idx];
                sum += d * d;
                n += 1;
            }
        }
        sum / n as f64
    }
}

/// Words of one sample's agreement mask: a bit per subset of `m` models.
pub(crate) fn mask_words(m: usize) -> usize {
    (1usize << m).div_ceil(64)
}

/// Sets in `mask` the bit of every non-empty subset of at most `cutoff`
/// models whose assembled output agrees with `reference`, the ensemble's
/// output on the same `outputs`.
///
/// A weighted average assembled directly is extended subset by subset
/// through `averages` ([`SubsetAverages`], bit-equal to aggregating each
/// subset); any other aggregator or assembler assembles each subset anew.
pub(crate) fn agreement_mask(
    ensemble: &Ensemble,
    assembler: &ResultAssembler,
    cutoff: usize,
    outputs: &[Output],
    reference: &Output,
    averages: &mut SubsetAverages,
    mask: &mut [u64],
) {
    let spec = &ensemble.spec;
    let mut mark = |set: ModelSet, agrees: bool| {
        if agrees {
            mask[set.0 as usize / 64] |= 1 << (set.0 % 64);
        }
    };
    match (assembler, &ensemble.aggregator) {
        (ResultAssembler::Direct, Aggregator::WeightedAverage { weights }) => {
            // `Output::agrees_with` on each subset's average.
            match (spec, reference) {
                (TaskSpec::Regression { tolerance }, Output::Scalar(want)) => {
                    averages.visit(outputs, weights, spec, cutoff, |set, average| {
                        mark(set, (average.value(0) - want).abs() <= *tolerance);
                    });
                }
                (_, Output::Probs(_)) => {
                    let want = reference.predicted_class();
                    averages.visit(outputs, weights, spec, cutoff, |set, average| {
                        mark(set, average.predicted_class() == want);
                    });
                }
                _ => panic!("output kind does not match task spec"),
            }
        }
        _ => {
            for set in ModelSet::all_nonempty(ensemble.m()).filter(|set| set.len() <= cutoff) {
                let present: Vec<(usize, Output)> =
                    set.iter().map(|k| (k, outputs[k].clone())).collect();
                let assembled = assembler.assemble(ensemble, &present, set);
                mark(set, assembled.agrees_with(reference, spec));
            }
        }
    }
}

fn bin_of_score(score: f64, bins: usize) -> usize {
    ((score * bins as f64).floor() as isize).clamp(0, bins as isize - 1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discrepancy::{DifficultyMetric, DiscrepancyScorer};
    use schemble_models::zoo;
    use schemble_models::{DifficultyDist, SampleGenerator};

    fn fixture() -> (Ensemble, Vec<Sample>, Vec<f64>) {
        let ens = zoo::text_matching(1);
        let gen = SampleGenerator::new(ens.spec, DifficultyDist::Uniform, 5);
        let h = gen.batch(0, 2000);
        let scorer = DiscrepancyScorer::fit(&ens, &h, DifficultyMetric::Discrepancy);
        let scores = scorer.score_batch(&ens, &h);
        (ens, h, scores)
    }

    #[test]
    fn full_set_utility_is_one_everywhere() {
        let (ens, h, scores) = fixture();
        let p = AccuracyProfile::fit(&ens, &h, &scores, 10);
        for b in 0..10 {
            let u = p.table[b][ens.full_set().0 as usize];
            assert!(
                (u - 1.0).abs() < 1e-9,
                "full set must match the ensemble exactly, bin {b}: {u}"
            );
        }
    }

    #[test]
    fn monotone_in_set_inclusion() {
        let (ens, h, scores) = fixture();
        let p = AccuracyProfile::fit(&ens, &h, &scores, 10);
        for b in 0..10 {
            let score = (b as f64 + 0.5) / 10.0;
            for set in ModelSet::all_nonempty(ens.m()) {
                for k in 0..ens.m() {
                    if !set.contains(k) {
                        let bigger = set.with(k);
                        assert!(
                            p.utility(score, bigger) >= p.utility(score, set) - 1e-12,
                            "monotonicity violated in bin {b}: {set} vs {bigger}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn small_sets_degrade_with_difficulty() {
        // Fig. 4b: easy bins get high accuracy for every combo; hard bins
        // show much larger error for small sets.
        let (ens, h, scores) = fixture();
        let p = AccuracyProfile::fit(&ens, &h, &scores, 10);
        let single = ModelSet::singleton(0);
        let easy = p.utility(0.05, single);
        let hard = p.utility(0.95, single);
        assert!(
            easy > hard + 0.1,
            "singleton utility should drop with difficulty: easy {easy:.3} hard {hard:.3}"
        );
        assert!(easy > 0.85, "easy-bin singleton accuracy should be high: {easy:.3}");
    }

    #[test]
    fn empty_set_is_worthless() {
        let (ens, h, scores) = fixture();
        let p = AccuracyProfile::fit(&ens, &h, &scores, 10);
        assert_eq!(p.utility(0.4, ModelSet::EMPTY), 0.0);
    }

    #[test]
    fn utility_vector_matches_point_queries() {
        let (ens, h, scores) = fixture();
        let p = AccuracyProfile::fit(&ens, &h, &scores, 10);
        let v = p.utility_vector(0.35);
        for set in ModelSet::all_nonempty(ens.m()) {
            assert_eq!(v[set.0 as usize], p.utility(0.35, set));
        }
    }

    #[test]
    fn eq3_estimation_is_close_to_exact_profiling() {
        // Fig. 20a: Eq. 3 estimates approximate the true accuracy closely.
        let ens = zoo::cifar_zoo(5, 3);
        let gen = SampleGenerator::new(ens.spec, DifficultyDist::Uniform, 9);
        let h = gen.batch(0, 1200);
        let scorer = DiscrepancyScorer::fit(&ens, &h, DifficultyMetric::Discrepancy);
        let scores = scorer.score_batch(&ens, &h);
        let exact = AccuracyProfile::fit(&ens, &h, &scores, 8);
        let estimated = AccuracyProfile::fit_with_cutoff(&ens, &h, &scores, 8, 3);
        let mse = estimated.mse_against(&exact);
        assert!(mse < 0.01, "Eq. 3 estimation MSE too large: {mse}");
    }

    #[test]
    fn bin_of_clamps() {
        let (ens, h, scores) = fixture();
        let p = AccuracyProfile::fit(&ens, &h, &scores, 10);
        assert_eq!(p.bin_of(-0.3), 0);
        assert_eq!(p.bin_of(0.0), 0);
        assert_eq!(p.bin_of(0.999), 9);
        assert_eq!(p.bin_of(1.0), 9);
        assert_eq!(p.bin_of(7.0), 9);
        drop(ens);
    }

    /// `m` models' outputs under `kind` (0: scalar, 1: 2 classes, 2: 100
    /// classes), with the weights of a weighted average. Entries are drawn
    /// from `0.0`, `-0.0`, subnormal and tiny values and ordinary ones, so
    /// ties, signed zeros and underflow all occur.
    fn outputs_of(m: usize, kind: usize, seed: u64) -> (Ensemble, Vec<Output>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let entry = |rng: &mut rand::rngs::StdRng| match rng.random_range(0..5) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from_bits(rng.random_range(1..1u64 << 20)),
            3 => rng.random_range(-1.0..1.0) * 1e-300,
            _ => rng.random_range(0.0..1.0),
        };
        let (spec, dim) = match kind {
            0 => (TaskSpec::Regression { tolerance: 0.5 }, 1),
            1 => (TaskSpec::Classification { num_classes: 2 }, 2),
            _ => (TaskSpec::Classification { num_classes: 100 }, 100),
        };
        let outputs = (0..m)
            .map(|_| {
                let values: Vec<f64> = (0..dim).map(|_| entry(&mut rng)).collect();
                if spec.is_categorical() {
                    Output::Probs(values)
                } else {
                    Output::Scalar(values[0] * 30.0)
                }
            })
            .collect();
        let weights = (0..m)
            .map(|_| if rng.random_range(0..4) == 0 { 1e-300 } else { rng.random_range(0.01..1.0) })
            .collect();
        let models = (0..m).map(|k| zoo::cifar_model(k % 6, k as u64)).collect();
        let ensemble =
            Ensemble { models, spec, aggregator: Aggregator::WeightedAverage { weights } };
        (ensemble, outputs)
    }

    proptest::proptest! {
        /// The extension reproduces every subset's aggregate bit for bit,
        /// and its mask is `assemble` + `agrees_with` per subset.
        #[test]
        fn extension_mask_equals_assembling_every_subset(
            m in 1usize..9,
            kind in 0usize..3,
            cutoff in 1usize..9,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let (ens, outputs) = outputs_of(m, kind, seed);
            let reference = ens.aggregate_iter(outputs.iter().enumerate());
            let direct = ResultAssembler::Direct;
            let assembled: Vec<Output> = ModelSet::all(m)
                .map(|set| {
                    let present: Vec<(usize, Output)> =
                        set.iter().map(|k| (k, outputs[k].clone())).collect();
                    if set.is_empty() { reference.clone() } else { direct.assemble(&ens, &present, set) }
                })
                .collect();
            // Every subset's average, bit for bit, each visited once.
            let mut averages = SubsetAverages::default();
            let mut visits = vec![0; 1 << m];
            let Aggregator::WeightedAverage { weights } = &ens.aggregator else { unreachable!() };
            averages.visit(&outputs, weights, &ens.spec, m, |set, average| {
                visits[set.0 as usize] += 1;
                for (c, v) in assembled[set.0 as usize].as_vec().into_iter().enumerate() {
                    assert_eq!(average.value(c).to_bits(), v.to_bits(), "{set} class {c}");
                }
            });
            proptest::prop_assert!(visits[1..].iter().all(|&n| n == 1));
            // The mask is `assemble` + `agrees_with` per subset up to the cutoff.
            let mut mask = vec![0u64; mask_words(m)];
            agreement_mask(&ens, &direct, cutoff, &outputs, &reference, &mut averages, &mut mask);
            for set in ModelSet::all_nonempty(m) {
                let agrees = set.len() <= cutoff.min(m)
                    && assembled[set.0 as usize].agrees_with(&reference, &ens.spec);
                let bit = mask[set.0 as usize / 64] >> (set.0 % 64) & 1 == 1;
                proptest::prop_assert_eq!(bit, agrees);
            }
        }
    }
}
