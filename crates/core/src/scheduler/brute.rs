//! Exact exponential solver for validating the DP on small instances.
//!
//! Enumerates every assignment of subsets to queries under consistent EDF
//! order (which Theorems 1–2 show is without loss of optimality) and returns
//! a maximum-utility feasible plan. Cost is `(2^m)^n` — test-only.

use super::input::{ScheduleInput, SchedulePlan};
use schemble_models::ModelSet;

/// The optimal plan under EDF order.
///
/// # Panics
/// Panics on instances large enough to be a mistake (`(2^m)^n > 10^7`).
pub fn optimal_plan(input: &ScheduleInput) -> SchedulePlan {
    let n = input.queries.len();
    let m = input.m();
    let options = 1usize << m;
    let combos = (options as f64).powi(n as i32);
    assert!(combos <= 1e7, "brute force over {combos} assignments — use the DP");

    let order = input.edf_order();
    let mut best = SchedulePlan::empty(n);
    let mut best_utility = 0.0f64;
    let mut assignment = vec![ModelSet::EMPTY; n];
    search(input, &order, 0, &mut assignment, &mut best, &mut best_utility);
    best.order = order;
    best
}

fn search(
    input: &ScheduleInput,
    order: &[usize],
    depth: usize,
    assignment: &mut Vec<ModelSet>,
    best: &mut SchedulePlan,
    best_utility: &mut f64,
) {
    if depth == order.len() {
        let plan = SchedulePlan {
            assignments: assignment.clone(),
            order: order.to_vec(),
            work: 0,
            frontier: 0,
        };
        if input.plan_is_feasible(&plan) {
            let u = input.plan_utility(&plan);
            if u > *best_utility {
                *best_utility = u;
                *best = plan;
            }
        }
        return;
    }
    let qi = order[depth];
    for set in ModelSet::all(input.m()) {
        assignment[qi] = set;
        search(input, order, depth + 1, assignment, best, best_utility);
    }
    assignment[qi] = ModelSet::EMPTY;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::input::BufferedQuery;
    use schemble_sim::{SimDuration, SimTime};

    #[test]
    fn finds_the_sharing_optimum() {
        let utilities: std::sync::Arc<[f64]> = vec![0.0, 0.9, 0.9, 1.0].into();
        let mk = |id| BufferedQuery {
            id,
            arrival: SimTime::ZERO,
            deadline: SimTime::from_millis(15),
            utilities: utilities.clone(),
            score: 0.5,
        };
        let input = ScheduleInput {
            now: SimTime::ZERO,
            availability: vec![SimTime::ZERO; 2],
            latencies: vec![SimDuration::from_millis(10); 2],
            queries: vec![mk(0), mk(1)],
        };
        let plan = optimal_plan(&input);
        // Optimal: one model each (0.9 + 0.9) beats full-set-for-one (1.0).
        assert!((input.plan_utility(&plan) - 1.8).abs() < 1e-9);
        assert!(input.plan_is_feasible(&plan));
    }

    #[test]
    #[should_panic(expected = "brute force")]
    fn refuses_large_instances() {
        let q = BufferedQuery {
            id: 0,
            arrival: SimTime::ZERO,
            deadline: SimTime::from_millis(10),
            utilities: vec![0.0; 1 << 4].into(),
            score: 0.0,
        };
        let input = ScheduleInput {
            now: SimTime::ZERO,
            availability: vec![SimTime::ZERO; 4],
            latencies: vec![SimDuration::from_millis(1); 4],
            queries: vec![q; 8],
        };
        let _ = optimal_plan(&input);
    }
}
