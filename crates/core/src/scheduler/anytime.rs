//! The quit-aware ("anytime") ranking.
//!
//! Anytime execution splits into two decisions. *What to plan* stays with
//! the configured scheduler, untouched: the DP's subset selection is already
//! utility-optimal and the engine runs on an identity deployment, where each
//! query's task *start* order is fixed by executor availability rather than
//! by the plan. *What to quit* — and in which order the still-missing tasks
//! would be worth finishing — is the new part: [`gain_order_into`] ranks a
//! query's remaining tasks by marginal profiled utility per unit of planned
//! latency, and the engine's quit rule keeps only the cheapest prefix of
//! that ranking that crosses the confidence threshold (see
//! `SchembleEngine::anytime_quit`).

use schemble_models::ModelSet;
use schemble_sim::SimDuration;

/// Ranks `remaining` tasks by expected information gain: greedy marginal
/// utility per planned latency, starting from the `produced` subset.
///
/// `utilities` is the query's profiled utility vector indexed by subset mask
/// (monotone: supersets never score lower). Each round picks the task whose
/// addition to the accumulated subset buys the most utility per microsecond
/// of planned latency; ties break toward the lowest model index, so the
/// order is deterministic. The result is written into `out` (cleared first)
/// so steady-state callers can reuse one buffer.
pub fn gain_order_into(
    utilities: &[f64],
    latencies: &[SimDuration],
    produced: ModelSet,
    remaining: ModelSet,
    out: &mut Vec<usize>,
) {
    out.clear();
    let mut acc = produced;
    let mut pool = remaining;
    while !pool.is_empty() {
        let base = utilities[acc.0 as usize];
        // Lowest index first, so it also wins when no gain compares greater.
        let mut best = pool.iter().next().expect("non-empty pool");
        let mut best_gain = f64::NEG_INFINITY;
        for k in pool.iter() {
            let gain = (utilities[acc.with(k).0 as usize] - base)
                / (latencies[k].as_micros().max(1) as f64);
            if gain > best_gain {
                best_gain = gain;
                best = k;
            }
        }
        pool = pool.without(best);
        acc = acc.with(best);
        out.push(best);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_order_ranks_by_marginal_utility_per_latency() {
        // Masks: [∅, {0}, {1}, {0,1}]. Model 0: +0.6 over 10ms = 0.06/ms;
        // model 1: +0.7 over 20ms = 0.035/ms — model 0 first.
        let utilities = vec![0.0, 0.6, 0.7, 1.0];
        let latencies = vec![SimDuration::from_millis(10), SimDuration::from_millis(20)];
        let mut order = Vec::new();
        gain_order_into(&utilities, &latencies, ModelSet::EMPTY, ModelSet::full(2), &mut order);
        assert_eq!(order, vec![0, 1]);
        // Starting from {0}, only model 1 remains.
        gain_order_into(
            &utilities,
            &latencies,
            ModelSet::singleton(0),
            ModelSet::singleton(1),
            &mut order,
        );
        assert_eq!(order, vec![1]);
    }

    #[test]
    fn gain_order_breaks_ties_toward_lowest_index() {
        // Identical marginal utilities and latencies: ascending index order.
        let utilities = vec![0.0, 0.5, 0.5, 1.0];
        let latencies = vec![SimDuration::from_millis(10); 2];
        let mut order = Vec::new();
        gain_order_into(&utilities, &latencies, ModelSet::EMPTY, ModelSet::full(2), &mut order);
        assert_eq!(order, vec![0, 1]);
    }
}
