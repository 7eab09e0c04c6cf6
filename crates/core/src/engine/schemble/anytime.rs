//! Anytime early exit: the policy, and the quit decision
//! [`SchembleEngine`] takes after every assembled output.

use super::{produced_set, QState, SchembleEngine};
use crate::backend::ExecutionBackend;
use crate::pipeline::schemble::SchembleConfig;
use crate::pipeline::{AdmissionMode, ResultAssembler};
use crate::scheduler::anytime::gain_order_into;
use schemble_models::{Aggregator, Ensemble, ModelSet};
use schemble_sim::SimTime;
use schemble_trace::TraceEvent;

/// Early-exit ("anytime") execution policy.
///
/// With an active policy, [`SchembleEngine`] re-evaluates a query's partial
/// ensemble after every assembled output. When the outputs in hand are
/// already confident — the running vote is mathematically decided, or the
/// produced subset's profiled utility is within `1 - confidence_threshold`
/// of the full planned set's — the remaining planned tasks are quit:
/// running ones are cancelled through [`ExecutionBackend::cancel_task`],
/// unstarted ones are shed from the set, and the query completes
/// immediately with the partial answer.
///
/// A threshold above `1.0` disables every quit; such a run is byte-identical
/// to one without the policy (records, audit and metrics — pinned by
/// proptest), which is what lets the flag ship default-off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnytimePolicy {
    /// Quit the rest of a plan once the produced subset's profiled utility
    /// is within `1 - confidence_threshold` of the full planned set's —
    /// i.e. a quit gives up at most `1 - C` of profiled accuracy on that
    /// query. At exactly `1.0` only lossless quits fire (a decided vote,
    /// or a subset the profile scores level with the full plan); above
    /// `1.0` the policy is inert.
    pub confidence_threshold: f64,
}

impl Default for AnytimePolicy {
    fn default() -> Self {
        Self { confidence_threshold: 0.98 }
    }
}

impl AnytimePolicy {
    /// Whether the policy can ever quit a task.
    pub fn active(&self) -> bool {
        self.confidence_threshold <= 1.0
    }
}

/// Whether the partial vote is already mathematically decided: under
/// direct majority voting over a categorical task, the leading class wins
/// no matter where the remaining votes land. Such a quit is lossless — the
/// assembled class equals the full plan's. `votes` is working memory.
fn vote_decided(
    config: &SchembleConfig,
    ensemble: &Ensemble,
    state: &QState,
    votes: &mut Vec<usize>,
) -> bool {
    if !matches!(config.assembler, ResultAssembler::Direct)
        || !matches!(ensemble.aggregator, Aggregator::Voting)
    {
        return false;
    }
    let Some(classes) = ensemble.spec.num_classes() else { return false };
    votes.clear();
    votes.resize(classes, 0);
    for (_, o) in &state.outputs {
        votes[o.predicted_class()] += 1;
    }
    let remaining = state.set.len() - state.outputs.len();
    let leader = votes.iter().copied().max().unwrap_or(0);
    // Strict margin: the leader must beat every other class even if all
    // remaining votes land on it (ties count against the leader, so
    // aggregator tie-breaking never comes into play).
    votes.iter().filter(|&&v| v == leader).count() == 1
        && votes.iter().all(|&v| v == leader || leader > v + remaining)
}

impl SchembleEngine<'_> {
    /// Anytime early exit: after a new output lands, quits the rest of the
    /// query's plan if the partial ensemble is already confident enough —
    /// running tasks are cancelled through the backend, unstarted ones shed
    /// from the set — so [`Self::settle`] closes the query with
    /// the outputs in hand. In Reject mode a kept task whose predicted
    /// latency no longer fits the deadline margin is shed too (and the
    /// answer degrades, matching the expiry path's semantics).
    ///
    /// With no policy, or an inactive threshold, this returns before
    /// touching any state: every decision stays byte-identical to an engine
    /// without the feature (pinned by proptest).
    pub(super) fn anytime_quit(
        &mut self,
        pos: usize,
        now: SimTime,
        backend: &mut dyn ExecutionBackend,
    ) {
        let Some(policy) = self.config.anytime else { return };
        if !policy.active() {
            return;
        }
        let state = &self.open[pos];
        if state.outputs.is_empty() || state.outputs.len() >= state.set.len() {
            return;
        }
        let query = state.id;
        let produced = produced_set(&state.outputs);
        let remaining = state.set.minus(produced);
        // Confidence is relative to the plan the scheduler chose: the quit
        // is taken once the produced subset's profiled utility is within
        // `1 - C` of the full planned set's, so a quit gives up at most
        // `1 - C` of profiled accuracy on this query. (An absolute floor —
        // "utility >= C" — looked natural but quits cheap plans far below
        // what they would have delivered; the marginal form bounds the
        // loss instead.) A mathematically decided vote is confidence 1.0.
        let slack = 1.0 - policy.confidence_threshold;
        let target = state.utilities[state.set.0 as usize] - slack;
        let confident = vote_decided(self.config, self.ensemble, state, &mut self.anytime_scratch)
            || state.utilities[produced.0 as usize] >= target;
        let mut keep = ModelSet::EMPTY;
        if !confident {
            // Not confident yet: keep the cheapest prefix — in marginal
            // utility-per-planned-latency order — that reaches the target,
            // shedding the near-zero-marginal tail. The walk reaches the
            // target at the latest on the last task (acc is the full set
            // there), so at worst everything is kept and the plan runs to
            // completion as planned.
            let latencies = &self.plan_input.latencies;
            let order = &mut self.anytime_scratch;
            gain_order_into(&state.utilities, latencies, produced, remaining, order);
            let mut acc = produced;
            for &k in order.iter() {
                acc = acc.with(k);
                keep = keep.with(k);
                if state.utilities[acc.0 as usize] >= target {
                    break;
                }
            }
        }
        let mut deadline_cut = false;
        if self.config.admission == AdmissionMode::Reject {
            // Deadline guard: a kept but unstarted task whose predicted
            // latency exceeds the remaining margin can only make the answer
            // late — shed it now instead of degrading at the deadline.
            // Running tasks are left to the regular expiry path.
            for k in keep.minus(state.started).iter() {
                if now + self.ensemble.latency(k).planned() > state.deadline {
                    keep = keep.without(k);
                    deadline_cut = true;
                }
            }
        }
        let state = &mut self.open[pos];
        let mut saved = 0u32;
        for k in remaining.minus(keep).iter() {
            if state.started.contains(k) {
                // Running: cancel through the backend. A refusal means a
                // crash got there first and its `TaskFailed` is already on
                // the way — leave that bookkeeping to the failure path.
                if !backend.cancel_task(k, query, now) {
                    continue;
                }
                state.started = state.started.without(k);
            }
            state.set = state.set.without(k);
            state.fault.clear_retry(k);
            saved += 1;
            self.ledger.trace.emit(TraceEvent::TaskQuit { t: now, query, executor: k as u16 });
        }
        if saved == 0 {
            return;
        }
        self.ledger.stats.tasks_saved += u64::from(saved);
        if deadline_cut {
            // A deadline-driven cut answers short of the plan for time, not
            // confidence — that is a degradation, like the expiry path.
            state.fault.degraded = true;
        }
        self.ledger.trace.emit(TraceEvent::WorkSaved { t: now, query, saved });
    }
}
