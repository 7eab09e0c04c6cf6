//! Greedy scheduling baselines (Exp-4).
//!
//! "Greedily select the model set with the highest rewards that could
//! complete by the deadline for every query", visiting queries in EDF, FIFO
//! or SJF order. The greedy choice ignores the remaining buffer, which is
//! exactly why it "incurs deadline misses more easily when queries arrive
//! quickly" — the DP exists to fix this.

use super::input::{ScheduleInput, SchedulePlan};
use super::scratch::SchedScratch;
use super::Scheduler;
use schemble_models::ModelSet;
use schemble_sim::SimTime;

/// Queue-visiting order for the greedy scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueOrder {
    /// Earliest deadline first.
    Edf,
    /// First in, first out (earliest arrival).
    Fifo,
    /// Shortest job first — "the query with the smallest estimated
    /// discrepancy score first" (§VIII Exp-4).
    Sjf,
}

/// Greedy per-query maximum-reward selection under a queue order.
#[derive(Debug, Clone, Copy)]
pub struct GreedyScheduler {
    order: QueueOrder,
}

impl GreedyScheduler {
    /// A greedy scheduler visiting queries in `order`.
    pub fn new(order: QueueOrder) -> Self {
        Self { order }
    }

    #[cfg(test)]
    fn visit_order(&self, input: &ScheduleInput) -> Vec<usize> {
        let mut idx = Vec::new();
        self.visit_order_into(input, &mut idx);
        idx
    }

    fn visit_order_into(&self, input: &ScheduleInput, out: &mut Vec<usize>) {
        match self.order {
            QueueOrder::Edf => input.edf_order_into(out),
            QueueOrder::Fifo => {
                out.clear();
                out.extend(0..input.queries.len());
                out.sort_by_key(|&i| {
                    (input.queries[i].arrival, input.queries[i].deadline, input.queries[i].id)
                });
            }
            QueueOrder::Sjf => {
                out.clear();
                out.extend(0..input.queries.len());
                out.sort_by(|&a, &b| {
                    input.queries[a]
                        .score
                        .partial_cmp(&input.queries[b].score)
                        .expect("NaN score")
                        .then_with(|| input.queries[a].id.cmp(&input.queries[b].id))
                });
            }
        }
    }
}

impl Scheduler for GreedyScheduler {
    fn plan_into(&self, input: &ScheduleInput, scratch: &mut SchedScratch, out: &mut SchedulePlan) {
        let n = input.queries.len();
        let m = input.m();
        self.visit_order_into(input, &mut out.order);
        scratch.avail.clear();
        scratch.avail.extend(input.availability.iter().map(|&a| a.max(input.now)));
        let avail = &mut scratch.avail;
        out.assignments.clear();
        out.assignments.resize(n, ModelSet::EMPTY);
        out.frontier = 0;
        let mut work = 0u64;
        for &qi in &out.order {
            let q = &input.queries[qi];
            let mut best_set = ModelSet::EMPTY;
            let mut best_reward = 0.0f64;
            let mut best_completion = SimTime(u64::MAX);
            for set in ModelSet::all_nonempty(m) {
                work += 1;
                let mut completion = SimTime::ZERO;
                for k in set.iter() {
                    completion = completion.max(avail[k] + input.latencies[k]);
                }
                if completion > q.deadline {
                    continue;
                }
                let reward = q.utilities[set.0 as usize];
                let better = reward > best_reward + 1e-12
                    || ((reward - best_reward).abs() <= 1e-12 && completion < best_completion);
                if better {
                    best_set = set;
                    best_reward = reward;
                    best_completion = completion;
                }
            }
            if !best_set.is_empty() {
                for k in best_set.iter() {
                    avail[k] += input.latencies[k];
                }
                out.assignments[qi] = best_set;
            }
        }
        out.work = work;
    }

    fn name(&self) -> String {
        match self.order {
            QueueOrder::Edf => "Greedy+EDF".to_string(),
            QueueOrder::Fifo => "Greedy+FIFO".to_string(),
            QueueOrder::Sjf => "Greedy+SJF".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::input::BufferedQuery;
    use schemble_sim::SimDuration;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }
    fn at(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    fn input() -> ScheduleInput {
        ScheduleInput {
            now: at(0),
            availability: vec![at(0), at(0)],
            latencies: vec![ms(10), ms(30)],
            queries: vec![
                BufferedQuery {
                    id: 0,
                    arrival: at(0),
                    deadline: at(100),
                    utilities: vec![0.0, 0.6, 0.7, 1.0].into(),
                    score: 0.9,
                },
                BufferedQuery {
                    id: 1,
                    arrival: at(2),
                    deadline: at(40),
                    utilities: vec![0.0, 0.6, 0.7, 1.0].into(),
                    score: 0.1,
                },
            ],
        }
    }

    #[test]
    fn greedy_takes_best_feasible_set_per_query() {
        let plan = GreedyScheduler::new(QueueOrder::Edf).plan(&input());
        // EDF visits query 1 first; full set completes at 30 ≤ 40 → takes it.
        assert_eq!(plan.assignments[1], ModelSet::full(2));
        assert!(input().plan_is_feasible(&plan));
    }

    #[test]
    fn orders_differ() {
        let input = input();
        assert_eq!(GreedyScheduler::new(QueueOrder::Edf).visit_order(&input), vec![1, 0]);
        assert_eq!(GreedyScheduler::new(QueueOrder::Fifo).visit_order(&input), vec![0, 1]);
        assert_eq!(GreedyScheduler::new(QueueOrder::Sjf).visit_order(&input), vec![1, 0]);
    }

    #[test]
    fn greedy_myopia_documented() {
        // The defining failure: greedy gives the first query everything and
        // starves the second; DP shares. Construct the §I two-easy-queries
        // situation and observe greedy scheduling strictly fewer queries.
        let utilities: std::sync::Arc<[f64]> =
            vec![0.0, 0.9, 0.9, 0.92, 0.9, 0.92, 0.92, 1.0].into();
        let mk = |id| BufferedQuery {
            id,
            arrival: at(id),
            deadline: at(25),
            utilities: utilities.clone(),
            score: 0.1,
        };
        let input = ScheduleInput {
            now: at(0),
            availability: vec![at(0); 3],
            latencies: vec![ms(20); 3],
            queries: vec![mk(0), mk(1)],
        };
        let greedy = GreedyScheduler::new(QueueOrder::Fifo).plan(&input);
        // Greedy grabs the full set for query 0, leaving query 1 infeasible.
        assert_eq!(greedy.assignments[0], ModelSet::full(3));
        assert!(greedy.assignments[1].is_empty());
        let dp = crate::scheduler::DpScheduler::default().plan(&input);
        assert!(
            input.plan_utility(&dp) > input.plan_utility(&greedy),
            "DP must beat the myopic greedy here"
        );
    }

    #[test]
    fn infeasible_queries_are_skipped() {
        let mut inp = input();
        inp.queries[1].deadline = at(5); // nothing fits
        let plan = GreedyScheduler::new(QueueOrder::Edf).plan(&inp);
        assert!(plan.assignments[1].is_empty());
        assert!(!plan.assignments[0].is_empty());
    }
}
