//! The task scheduler (§VI).
//!
//! A scheduler receives the current **query buffer** — arrived queries whose
//! inference tasks have not started — plus each base model's earliest
//! availability, and decides (a) a model subset per query and (b) the
//! execution order. Theorem 1 lets the order be *consistent* across models,
//! and Theorem 2 makes Earliest-Deadline-First optimal once sets are fixed
//! and feasible, so every scheduler here emits EDF-ordered plans and the
//! decision reduces to subset selection.
//!
//! * [`dp::DpScheduler`] — Alg. 1: quantized dynamic programming over
//!   (queries × cumulative reward) with Pareto pruning of per-model
//!   finish-time vectors. `δ` trades plan quality against scheduling cost
//!   (Exp-4 / Fig. 21).
//! * [`greedy::GreedyScheduler`] — the Greedy+EDF/FIFO/SJF baselines of
//!   Exp-4: pick the highest-reward feasible set per query in queue order,
//!   ignoring the rest of the buffer.
//! * [`brute::optimal_plan`] — exponential exact solver used to validate the
//!   DP on small instances.

pub mod anytime;
pub mod brute;
pub mod dp;
pub mod greedy;
pub mod input;
pub mod scratch;

pub use anytime::gain_order_into;
pub use dp::DpScheduler;
pub use greedy::{GreedyScheduler, QueueOrder};
pub use input::{BufferedQuery, ScheduleInput, SchedulePlan};
pub use scratch::{DpStats, SchedScratch};

/// A buffer-scheduling algorithm.
///
/// `Send + Sync` is a supertrait requirement so one boxed scheduler inside
/// a `SchembleConfig` can be planned against concurrently from every shard
/// of a sharded serve run (`plan_into` takes `&self`; all state lives in
/// the caller's scratch).
pub trait Scheduler: Send + Sync {
    /// Produces a plan for the buffered queries, writing it into `out` and
    /// working out of `scratch`.
    ///
    /// This is the hot path: the engine holds one [`SchedScratch`] and one
    /// [`SchedulePlan`] for the whole run, so a steady-state invocation
    /// allocates nothing. `out` is fully overwritten — no state carries over
    /// from its previous contents, and no decision state may carry over
    /// through `scratch` (schedulers must produce identical plans through a
    /// shared and a fresh scratch; a memo that is a pure function of its key,
    /// like the DP's subset lists, is not decision state).
    fn plan_into(&self, input: &ScheduleInput, scratch: &mut SchedScratch, out: &mut SchedulePlan);

    /// Convenience wrapper around [`Scheduler::plan_into`] that allocates
    /// fresh buffers per call. Fine for experiments and tests; the serving
    /// hot path uses `plan_into` directly.
    fn plan(&self, input: &ScheduleInput) -> SchedulePlan {
        let mut scratch = SchedScratch::new();
        let mut out = SchedulePlan::empty(0);
        self.plan_into(input, &mut scratch, &mut out);
        out
    }

    /// Short label for experiment output.
    fn name(&self) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemble_models::ModelSet;
    use schemble_sim::{SimDuration, SimTime};

    /// Shared fixture: two fast models, three queries with staggered
    /// deadlines that cannot all take the full set.
    pub(crate) fn tight_instance() -> ScheduleInput {
        let latencies = vec![SimDuration::from_millis(10), SimDuration::from_millis(20)];
        // Utility vectors indexed by subset mask: [∅, {0}, {1}, {0,1}].
        let utilities: std::sync::Arc<[f64]> = vec![0.0, 0.6, 0.7, 1.0].into();
        let queries = (0..3)
            .map(|i| BufferedQuery {
                id: i,
                arrival: SimTime::ZERO,
                deadline: SimTime::from_millis(25 + 10 * i),
                utilities: utilities.clone(),
                score: 0.5,
            })
            .collect();
        ScheduleInput {
            now: SimTime::ZERO,
            availability: vec![SimTime::ZERO; 2],
            latencies,
            queries,
        }
    }

    #[test]
    fn dp_beats_or_matches_greedy_on_tight_instance() {
        let input = tight_instance();
        let dp = DpScheduler::default().plan(&input);
        let greedy = GreedyScheduler::new(QueueOrder::Edf).plan(&input);
        let dp_u = input.plan_utility(&dp);
        let greedy_u = input.plan_utility(&greedy);
        assert!(dp_u >= greedy_u - 1e-9, "dp {dp_u} vs greedy {greedy_u}");
    }

    #[test]
    fn plans_respect_feasibility() {
        let input = tight_instance();
        for plan in [
            DpScheduler::default().plan(&input),
            GreedyScheduler::new(QueueOrder::Edf).plan(&input),
            GreedyScheduler::new(QueueOrder::Fifo).plan(&input),
        ] {
            assert!(input.plan_is_feasible(&plan), "infeasible plan emitted");
        }
    }

    #[test]
    fn full_sets_when_capacity_allows() {
        // One query, loose deadline: every scheduler should run everything.
        let mut input = tight_instance();
        input.queries.truncate(1);
        input.queries[0].deadline = SimTime::from_millis(1000);
        let dp = DpScheduler::default().plan(&input);
        assert_eq!(dp.assignments[0], ModelSet::full(2));
    }
}
