//! Work-stealing custody of [`SchembleEngine`]'s buffer: what it reports to
//! the steal coordinator, how it releases unplanned queries, and how it
//! adopts (and later looks up) queries released by another shard.

use super::{QState, SchembleEngine, StealLineage, StolenQuery};
use schemble_data::{Query, Workload};
use schemble_sim::SimTime;
use schemble_trace::{score_fixed_point, TraceEvent};

/// The query behind local id `id`: the workload query at that index, or the
/// adopted (stolen) query past the workload's end. A free function (not a
/// method) so callers can keep a disjoint `&mut` borrow of other engine
/// fields while holding the returned reference.
pub(super) fn query_of<'q>(
    workload: &'q Workload,
    adopted: &'q [Option<Query>],
    id: u64,
) -> &'q Query {
    match (id as usize).checked_sub(workload.len()) {
        None => &workload.queries[id as usize],
        Some(slot) => adopted[slot].as_ref().expect("an open adopted query is in custody"),
    }
}

impl SchembleEngine<'_> {
    /// Predicted service demand of one steal-eligible query in integer
    /// microseconds: the summed planned latencies of its assigned set, or —
    /// when no plan has touched it yet — the cheapest single model, the
    /// least any admitted query will cost. Integer micros keep the epoch
    /// snapshot (and hence the transfer plan) platform-independent.
    fn predicted_cost_us(&self, state: &QState) -> u64 {
        if state.set.is_empty() {
            (0..self.ensemble.m())
                .map(|k| self.ensemble.latency(k).planned().as_micros())
                .min()
                .unwrap_or(0)
        } else {
            state.set.iter().map(|k| self.ensemble.latency(k).planned().as_micros()).sum()
        }
    }

    /// [`PipelineEngine::steal_backlog`](super::PipelineEngine::steal_backlog).
    pub(super) fn backlog(&self) -> (u64, u64) {
        let mut depth = 0u64;
        let mut predicted_us = 0u64;
        for state in self.open.iter().filter(|s| !s.frozen) {
            depth += 1;
            predicted_us += self.predicted_cost_us(state);
        }
        (depth, predicted_us)
    }

    /// [`PipelineEngine::release_for_steal`](super::PipelineEngine::release_for_steal).
    pub(super) fn release(&mut self, count: usize) -> Vec<StolenQuery> {
        // Latest deadlines go: the victim keeps the queries it is most
        // likely to still finish in time. Sorted by (deadline, id) so the
        // choice is a pure function of engine state.
        self.edf.clear();
        self.edf.extend(self.open.iter().filter(|s| !s.frozen).map(|s| (s.deadline, s.id)));
        self.edf.sort_unstable();
        let keep = self.edf.len().saturating_sub(count);
        let mut out = Vec::with_capacity(self.edf.len() - keep);
        for i in (keep..self.edf.len()).rev() {
            let id = self.edf[i].1;
            let pos = self.open.position(id).expect("present");
            let state = self.open.remove(pos);
            debug_assert!(
                state.started.is_empty() && state.outputs.is_empty(),
                "released query {id} had running work"
            );
            // An adopted query stolen back leaves a tombstone in its slot.
            let query = match (id as usize).checked_sub(self.workload.len()) {
                None => self.workload.queries[id as usize].clone(),
                Some(slot) => self.adopted[slot].take().expect("released from custody once"),
            };
            // The released record slot stays `Missed` in this engine; the
            // shard merge drops it in favour of the thief's record.
            let bin = self.config.profile.bin_of(state.score) as u8;
            self.ledger.stats.stolen_out += 1;
            out.push(StolenQuery { query, score: state.score, bin });
        }
        out
    }

    /// [`PipelineEngine::adopt_stolen`](super::PipelineEngine::adopt_stolen).
    pub(super) fn adopt(
        &mut self,
        stolen: StolenQuery,
        lineage: StealLineage,
        now: SimTime,
    ) -> u64 {
        // Fresh local id: the workload is borrowed immutably, so adopted
        // queries extend the records vector instead.
        let mut query = stolen.query;
        let id = self.ledger.adoption(query.arrival, query.deadline);
        query.id = id;
        let utilities = self.config.profile.utility_vector(stolen.score);
        // Already scored on the victim: dispatchable immediately.
        self.open.admit(QState::buffered(&query, now, stolen.score, utilities));
        self.ledger.stats.stolen_in += 1;
        self.ledger.trace.emit(TraceEvent::QueryStolen {
            t: now,
            query: id,
            epoch: lineage.epoch,
            victim: lineage.victim,
            thief: lineage.thief,
            victim_depth: lineage.victim_depth,
            thief_depth: lineage.thief_depth,
            arrival: query.arrival,
            deadline: query.deadline,
            bin: stolen.bin,
            score_fp: score_fixed_point(stolen.score),
        });
        debug_assert_eq!(id as usize, self.workload.len() + self.adopted.len());
        self.adopted.push(Some(query));
        id
    }
}
