//! Property-based tests (proptest) of the scheduler stack and core
//! invariants.

use proptest::prelude::*;
use schemble::core::scheduler::{
    BufferedQuery, DpScheduler, GreedyScheduler, QueueOrder, ScheduleInput, Scheduler,
};
use schemble::models::ModelSet;
use schemble::sim::{SimDuration, SimTime};
use schemble::tensor::dist::{euclidean, js_divergence, symmetric_kl};
use schemble::tensor::prob::softmax;

/// Strategy: a scheduling instance with monotone utilities.
fn arb_instance() -> impl Strategy<Value = ScheduleInput> {
    (2usize..=3, 1usize..=6, any::<u64>()).prop_flat_map(|(m, n, seed)| {
        let lat = proptest::collection::vec(5u64..40, m);
        let deadlines = proptest::collection::vec(15u64..150, n);
        let bases = proptest::collection::vec(0.3f64..0.9, n);
        (lat, deadlines, bases, Just(m), Just(seed)).prop_map(
            |(lat, deadlines, bases, m, _seed)| {
                let queries = deadlines
                    .iter()
                    .zip(&bases)
                    .enumerate()
                    .map(|(id, (&d, &base))| {
                        let mut utilities = vec![0.0; 1 << m];
                        let mut masks: Vec<u32> = (1..(1u32 << m)).collect();
                        masks.sort_by_key(|s| s.count_ones());
                        for &mask in &masks {
                            let set = ModelSet(mask);
                            // base + diminishing bonus per extra model.
                            let v = (base + 0.1 * (set.len() as f64 - 1.0)).min(1.0);
                            let mut best = v;
                            for k in set.iter() {
                                let sub = set.without(k);
                                if !sub.is_empty() {
                                    best = best.max(utilities[sub.0 as usize]);
                                }
                            }
                            utilities[mask as usize] = best;
                        }
                        BufferedQuery {
                            id: id as u64,
                            arrival: SimTime::from_millis(id as u64),
                            deadline: SimTime::from_millis(d),
                            utilities: utilities.into(),
                            score: base,
                        }
                    })
                    .collect();
                ScheduleInput {
                    now: SimTime::ZERO,
                    availability: vec![SimTime::ZERO; m],
                    latencies: lat.into_iter().map(SimDuration::from_millis).collect(),
                    queries,
                }
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The DP never emits a plan that misses an accepted deadline.
    #[test]
    fn dp_plans_are_always_feasible(input in arb_instance()) {
        let plan = DpScheduler::default().plan(&input);
        prop_assert!(input.plan_is_feasible(&plan));
    }

    /// The DP's utility dominates every greedy variant on the same buffer.
    #[test]
    fn dp_dominates_greedy(input in arb_instance()) {
        let dp = DpScheduler { delta: 0.001, max_frontier: 4096, max_queries: 24 }
            .plan(&input);
        let dp_u = input.plan_utility(&dp);
        for order in [QueueOrder::Edf, QueueOrder::Fifo, QueueOrder::Sjf] {
            let greedy = GreedyScheduler::new(order).plan(&input);
            prop_assert!(input.plan_is_feasible(&greedy));
            prop_assert!(
                dp_u >= input.plan_utility(&greedy) - 1e-9,
                "dp {} < greedy({:?}) {}", dp_u, order, input.plan_utility(&greedy)
            );
        }
    }

    /// Scheduled sets are valid subsets and the order covers the buffer.
    #[test]
    fn plans_are_structurally_sound(input in arb_instance()) {
        let plan = DpScheduler::default().plan(&input);
        prop_assert_eq!(plan.assignments.len(), input.queries.len());
        let full = ModelSet::full(input.m());
        for set in &plan.assignments {
            prop_assert!(set.is_subset_of(full));
        }
        let mut seen: Vec<usize> = plan.order.clone();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), plan.order.len(), "order must not repeat queries");
    }

    /// Finer quantization never yields a worse plan (scheduling cost aside).
    #[test]
    fn finer_delta_never_hurts_plan_quality(input in arb_instance()) {
        let coarse = DpScheduler::with_delta(0.2).plan(&input);
        let fine = DpScheduler::with_delta(0.002).plan(&input);
        prop_assert!(
            input.plan_utility(&fine) + 1e-9 >= input.plan_utility(&coarse)
        );
        // …and the dense-table cost model charges the finer run more.
        prop_assert!(fine.work >= coarse.work);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// JS divergence: symmetric, bounded by ln 2, zero iff inputs equal
    /// (over softmax-normalised vectors).
    #[test]
    fn js_properties(a in proptest::collection::vec(-5.0f64..5.0, 2..6)) {
        let p = softmax(&a);
        let q = softmax(&a.iter().rev().cloned().collect::<Vec<_>>());
        let d_pq = js_divergence(&p, &q);
        let d_qp = js_divergence(&q, &p);
        prop_assert!((d_pq - d_qp).abs() < 1e-12);
        prop_assert!((0.0..=std::f64::consts::LN_2 + 1e-12).contains(&d_pq));
        prop_assert!(js_divergence(&p, &p).abs() < 1e-12);
    }

    /// Symmetric KL is symmetric and non-negative.
    #[test]
    fn symmetric_kl_properties(a in proptest::collection::vec(-4.0f64..4.0, 2..5),
                               b in proptest::collection::vec(-4.0f64..4.0, 2..5)) {
        let n = a.len().min(b.len());
        let p = softmax(&a[..n]);
        let q = softmax(&b[..n]);
        prop_assert!((symmetric_kl(&p, &q) - symmetric_kl(&q, &p)).abs() < 1e-9);
        prop_assert!(symmetric_kl(&p, &q) >= -1e-12);
    }

    /// Euclidean distance satisfies the triangle inequality.
    #[test]
    fn euclidean_triangle(a in proptest::collection::vec(-10.0f64..10.0, 3),
                          b in proptest::collection::vec(-10.0f64..10.0, 3),
                          c in proptest::collection::vec(-10.0f64..10.0, 3)) {
        prop_assert!(euclidean(&a, &c) <= euclidean(&a, &b) + euclidean(&b, &c) + 1e-9);
    }
}
