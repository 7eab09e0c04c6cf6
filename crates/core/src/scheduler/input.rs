//! Scheduling problem instances and plans.

use schemble_models::ModelSet;
use schemble_sim::{SimDuration, SimTime};
use std::sync::Arc;

/// One query waiting in the buffer.
#[derive(Debug, Clone)]
pub struct BufferedQuery {
    /// Query id (for dispatching).
    pub id: u64,
    /// Arrival instant (FIFO ordering input).
    pub arrival: SimTime,
    /// Absolute deadline.
    pub deadline: SimTime,
    /// Reward per subset, indexed by `ModelSet.0` (`utilities[0]` = ∅ = 0).
    /// Shared, not owned: the engine hands every query of a difficulty bin
    /// the profile's own row, so building a plan input copies no table (and
    /// the DP recognises queries that share one by pointer).
    pub utilities: Arc<[f64]>,
    /// Predicted discrepancy score (SJF ordering input).
    pub score: f64,
}

/// A local scheduling subproblem: the buffer at one instant.
#[derive(Debug, Clone)]
pub struct ScheduleInput {
    /// Current time.
    pub now: SimTime,
    /// Earliest instant each base model can start a new task
    /// ("base models' remained execution time" in Alg. 1).
    pub availability: Vec<SimTime>,
    /// Planned execution time of each base model (`{T_k}` in Alg. 1).
    pub latencies: Vec<SimDuration>,
    /// The buffered queries.
    pub queries: Vec<BufferedQuery>,
}

impl ScheduleInput {
    /// Ensemble size.
    pub fn m(&self) -> usize {
        self.latencies.len()
    }

    /// Query indices sorted by deadline (EDF), ties by arrival then id.
    pub fn edf_order(&self) -> Vec<usize> {
        let mut idx = Vec::new();
        self.edf_order_into(&mut idx);
        idx
    }

    /// [`ScheduleInput::edf_order`] into a reusable buffer (hot path: the
    /// scheduler re-derives the order on every re-plan).
    ///
    /// The buffer is usually already deadline-sorted — the engine builds it
    /// in ascending-id order and deadlines typically grow with arrival (any
    /// constant-deadline policy guarantees it) — so the common case is
    /// detected with one linear scan and the sort skipped. When a sort is
    /// needed it is stable, so the output is identical either way.
    pub fn edf_order_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(0..self.queries.len());
        let key = |q: &BufferedQuery| (q.deadline, q.arrival, q.id);
        if !self.queries.windows(2).all(|w| key(&w[0]) <= key(&w[1])) {
            out.sort_by_key(|&i| key(&self.queries[i]));
        }
    }

    /// Simulates a plan under consistent EDF order and returns per-query
    /// completion times (`None` for unscheduled queries).
    pub fn completions(&self, plan: &SchedulePlan) -> Vec<Option<SimTime>> {
        let mut avail = self.availability.clone();
        let mut out = vec![None; self.queries.len()];
        for &qi in &plan.order {
            let set = plan.assignments[qi];
            if set.is_empty() {
                continue;
            }
            let mut completion = SimTime::ZERO;
            for k in set.iter() {
                let finish = avail[k].max(self.now) + self.latencies[k];
                avail[k] = finish;
                completion = completion.max(finish);
            }
            out[qi] = Some(completion);
        }
        out
    }

    /// True if every scheduled query completes by its deadline.
    pub fn plan_is_feasible(&self, plan: &SchedulePlan) -> bool {
        self.completions(plan)
            .iter()
            .zip(&self.queries)
            .all(|(c, q)| c.is_none_or(|t| t <= q.deadline))
    }

    /// Total (unquantized) utility a plan collects.
    pub fn plan_utility(&self, plan: &SchedulePlan) -> f64 {
        plan.assignments.iter().zip(&self.queries).map(|(set, q)| q.utilities[set.0 as usize]).sum()
    }
}

/// A scheduler's output.
///
/// `PartialEq`/`Eq` compare the full decision (assignments, order and
/// `work`) — the granularity at which the DP refactor is differential-tested
/// against its reference implementation. `frontier` is introspection
/// metadata, not part of the decision, and is deliberately excluded.
#[derive(Debug, Clone)]
pub struct SchedulePlan {
    /// Model set per query (parallel to `ScheduleInput::queries`;
    /// `ModelSet::EMPTY` = left unscheduled this round).
    pub assignments: Vec<ModelSet>,
    /// Execution order over query indices (EDF for all built-in schedulers).
    /// Unscheduled queries may appear and are skipped at dispatch.
    pub order: Vec<usize>,
    /// Abstract work units the scheduler consumed — converted into
    /// scheduling latency by the pipeline's cost model (Exp-4/Fig. 21).
    pub work: u64,
    /// Peak candidate-frontier width observed while planning (the widest
    /// pruned Pareto layer for the DP). Diagnostics only — surfaced in
    /// plan-explainability traces; `0` means the scheduler doesn't track it.
    pub frontier: u32,
}

impl PartialEq for SchedulePlan {
    fn eq(&self, other: &Self) -> bool {
        self.assignments == other.assignments
            && self.order == other.order
            && self.work == other.work
    }
}

impl Eq for SchedulePlan {}

impl SchedulePlan {
    /// A plan scheduling nothing.
    pub fn empty(n: usize) -> Self {
        Self { assignments: vec![ModelSet::EMPTY; n], order: Vec::new(), work: 0, frontier: 0 }
    }

    /// Number of queries that received at least one model.
    pub fn scheduled_count(&self) -> usize {
        self.assignments.iter().filter(|s| !s.is_empty()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }
    fn at(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    fn two_query_input() -> ScheduleInput {
        ScheduleInput {
            now: at(0),
            availability: vec![at(0), at(5)],
            latencies: vec![ms(10), ms(20)],
            queries: vec![
                BufferedQuery {
                    id: 0,
                    arrival: at(0),
                    deadline: at(100),
                    utilities: vec![0.0, 0.5, 0.6, 1.0].into(),
                    score: 0.1,
                },
                BufferedQuery {
                    id: 1,
                    arrival: at(1),
                    deadline: at(50),
                    utilities: vec![0.0, 0.5, 0.6, 1.0].into(),
                    score: 0.9,
                },
            ],
        }
    }

    #[test]
    fn edf_order_sorts_by_deadline() {
        let input = two_query_input();
        assert_eq!(input.edf_order(), vec![1, 0]);
    }

    #[test]
    fn edf_order_into_reuses_buffer_and_matches_sort() {
        let mut input = two_query_input();
        let mut buf = vec![9usize; 64]; // stale content must be overwritten
        input.edf_order_into(&mut buf);
        assert_eq!(buf, vec![1, 0]);

        // Already-sorted buffers (the common case the sort-skip detects):
        // identity order, including deadline ties broken by arrival then id.
        input.queries.swap(0, 1);
        input.edf_order_into(&mut buf);
        assert_eq!(buf, vec![0, 1]);
        // A deadline tie falls back to (arrival, id): query 1 (arrival 0,
        // id 0) now precedes query 0 (arrival 1, id 1).
        input.queries[1].deadline = input.queries[0].deadline;
        input.edf_order_into(&mut buf);
        assert_eq!(buf, vec![1, 0]);
    }

    #[test]
    fn edf_order_matches_full_sort_on_shuffled_inputs() {
        // Pseudo-random deadlines/arrivals: the fast path must never fire
        // incorrectly — compare against an explicit sort.
        for seed in 0..50u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let queries: Vec<BufferedQuery> = (0..12u64)
                .map(|id| BufferedQuery {
                    id,
                    arrival: at(next() % 40),
                    deadline: at(40 + next() % 5), // frequent ties
                    utilities: vec![0.0, 1.0].into(),
                    score: 0.5,
                })
                .collect();
            let input = ScheduleInput {
                now: at(0),
                availability: vec![at(0)],
                latencies: vec![ms(10)],
                queries,
            };
            let mut expected: Vec<usize> = (0..input.queries.len()).collect();
            expected.sort_by_key(|&i| {
                (input.queries[i].deadline, input.queries[i].arrival, input.queries[i].id)
            });
            assert_eq!(input.edf_order(), expected, "seed {seed}");
        }
    }

    #[test]
    fn completions_respect_availability_and_serial_queues() {
        let input = two_query_input();
        let plan = SchedulePlan {
            assignments: vec![ModelSet::from_indices(&[0, 1]), ModelSet::singleton(0)],
            order: vec![1, 0],
            work: 0,
            frontier: 0,
        };
        let completions = input.completions(&plan);
        // Query 1 runs first on model 0: 0 + 10 = 10.
        assert_eq!(completions[1], Some(at(10)));
        // Query 0: model 0 free at 10 → 20; model 1 free at 5 → 25. Max 25.
        assert_eq!(completions[0], Some(at(25)));
    }

    #[test]
    fn feasibility_and_utility() {
        let input = two_query_input();
        let feasible = SchedulePlan {
            assignments: vec![ModelSet::singleton(0), ModelSet::singleton(0)],
            order: vec![1, 0],
            work: 0,
            frontier: 0,
        };
        assert!(input.plan_is_feasible(&feasible));
        assert!((input.plan_utility(&feasible) - 1.0).abs() < 1e-12);

        let too_late = SchedulePlan {
            assignments: vec![ModelSet::EMPTY, ModelSet::singleton(1)],
            order: vec![1],
            work: 0,
            frontier: 0,
        };
        // Model 1: avail 5 + 20 = 25 ≤ 50 — feasible.
        assert!(input.plan_is_feasible(&too_late));
    }

    #[test]
    fn empty_plan_is_feasible_and_worthless() {
        let input = two_query_input();
        let plan = SchedulePlan::empty(2);
        assert!(input.plan_is_feasible(&plan));
        assert_eq!(input.plan_utility(&plan), 0.0);
        assert_eq!(plan.scheduled_count(), 0);
    }
}
