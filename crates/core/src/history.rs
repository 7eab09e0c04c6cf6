//! One pass over the historical samples the offline fits read.
//!
//! The scorer's distances, the profile's agreement masks and the predictor's
//! task labels are all functions of each sample's base-model outputs and the
//! ensemble's output on them. [`HistoryPass`] infers each sample once and
//! derives whichever of the three a fit asks for from those outputs, on
//! every core: the history is cut into contiguous runs, one per worker, and
//! the runs' rows are appended in sample order, so what a pass returns does
//! not depend on the number of workers.

use crate::calibration::Calibration;
use crate::discrepancy::{raw_distances, DifficultyMetric};
use crate::pipeline::ResultAssembler;
use crate::predictor::task_label;
use crate::profiling::{agreement_mask, mask_words};
use schemble_models::aggregate::SubsetAverages;
use schemble_models::{Ensemble, Sample};
use std::ops::Range;

/// Worker threads of an offline pass: one per core this process may use.
pub(crate) fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `0..n` cut into at most `workers` contiguous runs of near-equal length
/// (one empty run when `n == 0`).
pub(crate) fn runs(workers: usize, n: usize) -> Vec<Range<usize>> {
    let k = workers.clamp(1, n.max(1));
    (0..k).map(|i| i * n / k..(i + 1) * n / k).collect()
}

/// `work(i)` for every `i < tasks`, in order of `i`: task 0 on the calling
/// thread, every other on a scoped thread of its own. A panic in a task is
/// re-raised here.
pub(crate) fn par_map<R: Send>(tasks: usize, work: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let work = &work;
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..tasks).map(|i| scope.spawn(move || work(i))).collect();
        let mut out = Vec::with_capacity(tasks);
        out.extend((tasks > 0).then(|| work(0)));
        out.extend(
            spawned.into_iter().map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))),
        );
        out
    })
}

/// What one pass derives from each sample's outputs.
pub(crate) struct HistoryPass<'a> {
    pub ensemble: &'a Ensemble,
    /// The scorer's raw per-model distances, under this calibration and
    /// metric.
    pub distances: Option<(&'a Calibration, DifficultyMetric)>,
    /// The agreement mask of every subset of at most this many models,
    /// assembled this way.
    pub agreement: Option<(&'a ResultAssembler, usize)>,
    /// The task-head label.
    pub labels: bool,
}

/// A pass's per-sample results, in sample order; a field the pass did not
/// ask for is empty.
#[derive(Debug, Default)]
pub(crate) struct HistoryRows {
    /// `distances[i * m + k]`: model `k`'s raw distance on sample `i`.
    pub distances: Vec<f64>,
    /// Sample `i`'s agreement mask is `masks[i * w..(i + 1) * w]` with
    /// `w = mask_words(m)`: bit `s % 64` of word `s / 64` is set when subset
    /// `s` agrees with the ensemble.
    pub masks: Vec<u64>,
    /// Sample `i`'s task-head label.
    pub labels: Vec<f64>,
}

impl HistoryPass<'_> {
    /// Runs the pass over `history` on `workers` threads.
    pub fn run(&self, workers: usize, history: &[Sample]) -> HistoryRows {
        let runs = runs(workers, history.len());
        let mut parts = par_map(runs.len(), |r| self.rows(&history[runs[r].clone()])).into_iter();
        let mut rows = parts.next().unwrap_or_default();
        for part in parts {
            rows.distances.extend(part.distances);
            rows.masks.extend(part.masks);
            rows.labels.extend(part.labels);
        }
        rows
    }

    /// The rows of a run of samples.
    fn rows(&self, samples: &[Sample]) -> HistoryRows {
        let ensemble = self.ensemble;
        let (m, words) = (ensemble.m(), mask_words(ensemble.m()));
        let n = samples.len();
        let mut rows = HistoryRows {
            distances: Vec::with_capacity(if self.distances.is_some() { n * m } else { 0 }),
            masks: Vec::with_capacity(if self.agreement.is_some() { n * words } else { 0 }),
            labels: Vec::with_capacity(if self.labels { n } else { 0 }),
        };
        let mut averages = SubsetAverages::default();
        for s in samples {
            let outputs = ensemble.infer_all(s);
            // The ensemble's output aggregates the raw outputs.
            let reference = ensemble.aggregate_iter(outputs.iter().enumerate());
            if let Some((calibration, metric)) = self.distances {
                let at = rows.distances.len();
                rows.distances.resize(at + m, 0.0);
                raw_distances(calibration, metric, &outputs, &reference, &mut rows.distances[at..]);
            }
            if let Some((assembler, cutoff)) = self.agreement {
                let at = rows.masks.len();
                rows.masks.resize(at + words, 0);
                let mask = &mut rows.masks[at..];
                agreement_mask(
                    ensemble,
                    assembler,
                    cutoff,
                    &outputs,
                    &reference,
                    &mut averages,
                    mask,
                );
            }
            if self.labels {
                rows.labels.push(task_label(&ensemble.spec, &reference));
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_cover_the_range_in_order() {
        for (workers, n) in [(1, 301), (2, 301), (3, 301), (7, 301), (4, 2), (3, 0), (0, 5)] {
            let runs = runs(workers, n);
            assert!(!runs.is_empty() && runs.len() <= workers.max(1));
            assert_eq!(runs[0].start, 0);
            assert_eq!(runs.last().unwrap().end, n);
            assert!(runs.windows(2).all(|w| w[0].end == w[1].start));
        }
    }

    #[test]
    fn par_map_keeps_task_order() {
        assert_eq!(par_map(5, |i| i * i), vec![0, 1, 4, 9, 16]);
        assert!(par_map(0, |i| i).is_empty());
    }
}
