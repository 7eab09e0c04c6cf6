//! Per-query records and run-level summaries.

use crate::latency::LatencyStats;
use schemble_sim::SimTime;

/// What happened to one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryOutcome {
    /// A result was returned by the deadline (or, in forced-processing mode,
    /// eventually). `score` is 1/0 correctness for classification and
    /// regression, or the average precision (1/rank of the relevant item)
    /// for retrieval.
    Completed {
        /// Agreement with the reference (ensemble) output.
        correct: bool,
        /// Scalar quality in `[0, 1]` (== `correct` except for retrieval).
        score: f64,
    },
    /// A result was assembled from a *partial* ensemble: task failures or
    /// the deadline shrank the executed set below the planned one
    /// (graceful degradation). Scored like a completion — a degraded answer
    /// delivered on time still counts what it scores.
    Degraded {
        /// Agreement with the reference (ensemble) output.
        correct: bool,
        /// Scalar quality in `[0, 1]`.
        score: f64,
    },
    /// No result by the deadline (queue expiry or admission rejection).
    Missed,
}

/// The full per-query evaluation record a pipeline run emits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRecord {
    /// Query id.
    pub id: u64,
    /// Arrival instant.
    pub arrival: SimTime,
    /// Absolute deadline.
    pub deadline: SimTime,
    /// Completion instant, if a result was produced.
    pub completion: Option<SimTime>,
    /// Outcome.
    pub outcome: QueryOutcome,
    /// Number of base models executed for this query.
    pub models_used: usize,
}

impl QueryRecord {
    /// Response latency in seconds (completion − arrival); `None` if missed.
    pub fn latency_secs(&self) -> Option<f64> {
        self.completion.map(|c| c.saturating_since(self.arrival).as_secs_f64())
    }

    /// True if the query was answered by its deadline (full or degraded).
    pub fn met_deadline(&self) -> bool {
        matches!(self.outcome, QueryOutcome::Completed { .. } | QueryOutcome::Degraded { .. })
            && self.completion.is_some_and(|c| c <= self.deadline)
    }
}

/// Busy-time accounting for one executor (base model or replica group).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelUsage {
    /// Model name.
    pub name: String,
    /// Total busy seconds across the run (summed over replicas).
    pub busy_secs: f64,
    /// Inference tasks completed.
    pub tasks: u64,
    /// Number of deployed instances of this model.
    pub instances: usize,
}

impl ModelUsage {
    /// Mean utilisation of this model's instances over `span_secs`.
    pub fn utilisation(&self, span_secs: f64) -> f64 {
        if span_secs <= 0.0 || self.instances == 0 {
            return 0.0;
        }
        self.busy_secs / (span_secs * self.instances as f64)
    }
}

/// Aggregated results of one pipeline run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    records: Vec<QueryRecord>,
    usage: Vec<ModelUsage>,
}

impl RunSummary {
    /// Wraps the per-query records.
    pub fn new(records: Vec<QueryRecord>) -> Self {
        Self { records, usage: Vec::new() }
    }

    /// Attaches per-model busy-time accounting.
    pub fn with_usage(mut self, usage: Vec<ModelUsage>) -> Self {
        self.usage = usage;
        self
    }

    /// Per-model busy-time accounting (empty when the pipeline did not
    /// record it).
    pub fn usage(&self) -> &[ModelUsage] {
        &self.usage
    }

    /// Borrow of the underlying records.
    pub fn records(&self) -> &[QueryRecord] {
        &self.records
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the run saw no queries.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Paper accuracy: mean score with missed queries scored 0
    /// ("queries that miss their deadline are considered incorrect") —
    /// a completion *after* the deadline counts as a miss too.
    /// For retrieval tasks this *is* the mAP column of Table I.
    pub fn accuracy(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records
            .iter()
            .map(|r| match r.outcome {
                QueryOutcome::Completed { score, .. } | QueryOutcome::Degraded { score, .. }
                    if r.met_deadline() =>
                {
                    score
                }
                _ => 0.0,
            })
            .sum::<f64>()
            / self.records.len() as f64
    }

    /// Accuracy over completed queries only (Fig. 10b "processed accuracy").
    pub fn processed_accuracy(&self) -> f64 {
        let completed: Vec<f64> =
            self.records
                .iter()
                .filter_map(|r| match r.outcome {
                    QueryOutcome::Completed { score, .. }
                    | QueryOutcome::Degraded { score, .. } => Some(score),
                    QueryOutcome::Missed => None,
                })
                .collect();
        if completed.is_empty() {
            return 0.0;
        }
        completed.iter().sum::<f64>() / completed.len() as f64
    }

    /// Deadline miss rate: fraction of queries with no result by deadline.
    pub fn deadline_miss_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let missed = self.records.iter().filter(|r| !r.met_deadline()).count();
        missed as f64 / self.records.len() as f64
    }

    /// Latency statistics over completed queries (Table II).
    pub fn latency_stats(&self) -> LatencyStats {
        LatencyStats::from_samples(
            &self.records.iter().filter_map(QueryRecord::latency_secs).collect::<Vec<_>>(),
        )
    }

    /// Mean number of base models executed per query (resource usage).
    pub fn mean_models_used(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.models_used as f64).sum::<f64>() / self.records.len() as f64
    }

    /// Fraction of queries completed (by deadline or not).
    pub fn completion_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.completion.is_some()).count() as f64
            / self.records.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        id: u64,
        arrival_ms: u64,
        deadline_ms: u64,
        completion_ms: Option<u64>,
        correct: bool,
    ) -> QueryRecord {
        QueryRecord {
            id,
            arrival: SimTime::from_millis(arrival_ms),
            deadline: SimTime::from_millis(deadline_ms),
            completion: completion_ms.map(SimTime::from_millis),
            outcome: if completion_ms.is_some() {
                QueryOutcome::Completed { correct, score: if correct { 1.0 } else { 0.0 } }
            } else {
                QueryOutcome::Missed
            },
            models_used: 2,
        }
    }

    #[test]
    fn accuracy_counts_missed_as_wrong() {
        let s = RunSummary::new(vec![
            rec(0, 0, 100, Some(50), true),
            rec(1, 0, 100, Some(60), false),
            rec(2, 0, 100, None, false),
            rec(3, 0, 100, Some(80), true),
        ]);
        assert!((s.accuracy() - 0.5).abs() < 1e-12);
        assert!((s.processed_accuracy() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.deadline_miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn late_completion_counts_as_missed_deadline() {
        // Completed after the deadline: latency recorded, deadline missed.
        let r = rec(0, 0, 100, Some(150), true);
        assert!(!r.met_deadline());
        let s = RunSummary::new(vec![r]);
        assert_eq!(s.deadline_miss_rate(), 1.0);
        assert_eq!(s.completion_rate(), 1.0);
        assert!((s.latency_stats().mean - 0.15).abs() < 1e-9);
    }

    #[test]
    fn empty_run_is_safe() {
        let s = RunSummary::new(vec![]);
        assert_eq!(s.accuracy(), 0.0);
        assert_eq!(s.deadline_miss_rate(), 0.0);
        assert_eq!(s.mean_models_used(), 0.0);
    }

    #[test]
    fn mean_models_used_averages() {
        let mut a = rec(0, 0, 100, Some(10), true);
        a.models_used = 1;
        let mut b = rec(1, 0, 100, Some(10), true);
        b.models_used = 3;
        let s = RunSummary::new(vec![a, b]);
        assert_eq!(s.mean_models_used(), 2.0);
    }

    #[test]
    fn degraded_on_time_scores_like_a_completion() {
        let degraded = QueryRecord {
            id: 0,
            arrival: SimTime::ZERO,
            deadline: SimTime::from_millis(100),
            completion: Some(SimTime::from_millis(40)),
            outcome: QueryOutcome::Degraded { correct: true, score: 1.0 },
            models_used: 1,
        };
        assert!(degraded.met_deadline());
        let s = RunSummary::new(vec![degraded, rec(1, 0, 100, None, false)]);
        assert!((s.accuracy() - 0.5).abs() < 1e-12);
        assert!((s.processed_accuracy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn retrieval_scores_flow_into_accuracy() {
        let r = QueryRecord {
            id: 0,
            arrival: SimTime::ZERO,
            deadline: SimTime::from_millis(100),
            completion: Some(SimTime::from_millis(10)),
            outcome: QueryOutcome::Completed { correct: false, score: 0.5 },
            models_used: 1,
        };
        let s = RunSummary::new(vec![r]);
        assert_eq!(s.accuracy(), 0.5);
    }
}
