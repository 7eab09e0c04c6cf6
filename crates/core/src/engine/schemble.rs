//! The Schemble pipeline (Fig. 3): arrival, scoring, re-planning, EDF
//! dispatch-on-idle and deadline expiry. The anytime early exit and the
//! work-stealing custody of its buffer are in the two child modules.

mod anytime;
mod steal;

pub use anytime::AnytimePolicy;

use super::fault::FaultBook;
use super::ledger::Ledger;
use super::table::{Keyed, OpenTable};
use super::{EngineStats, PipelineEngine, StealLineage, StolenQuery};
use crate::backend::{BackendEvent, ExecutionBackend, ExecutorUsage};
use crate::pipeline::eval::produced_set;
use crate::pipeline::immediate::Deployment;
use crate::pipeline::schemble::SchembleConfig;
use crate::pipeline::AdmissionMode;
use crate::scheduler::{BufferedQuery, SchedScratch, ScheduleInput, SchedulePlan};
use schemble_data::{Query, Workload};
use schemble_metrics::{QueryRecord, RunSummary};
use schemble_models::{Ensemble, ModelSet, Output, Sample};
use schemble_sim::{SimDuration, SimTime};
use schemble_trace::{score_fixed_point, AdmissionVerdict, TraceEvent, TraceSink};
use std::sync::Arc;
use std::time::Instant;

/// How many queries the engine scores per predictor forward pass; batching
/// only amortises the per-forward overhead.
const SCORE_BATCH: usize = 32;

#[derive(Debug)]
struct QState {
    id: u64,
    deadline: SimTime,
    arrival: SimTime,
    /// Earliest dispatch (arrival + predictor latency).
    ready_at: SimTime,
    score: f64,
    /// The profile's row for the query's difficulty bin, shared with the
    /// profile and with every plan input the query appears in.
    utilities: Arc<[f64]>,
    set: ModelSet,
    started: ModelSet,
    /// Set once any task starts: the model set is committed and the query
    /// never re-enters planning, even if failures empty `started` again.
    frozen: bool,
    outputs: Vec<(usize, Output)>,
    fault: FaultBook,
}

impl QState {
    /// A scored query with no plan yet, dispatchable from `ready_at`.
    fn buffered(q: &Query, ready_at: SimTime, score: f64, utilities: Arc<[f64]>) -> Self {
        Self {
            id: q.id,
            deadline: q.deadline,
            arrival: q.arrival,
            ready_at,
            score,
            utilities,
            set: ModelSet::EMPTY,
            started: ModelSet::EMPTY,
            frozen: false,
            outputs: Vec::new(),
            fault: FaultBook::default(),
        }
    }
}

impl Keyed for QState {
    fn id(&self) -> u64 {
        self.id
    }
}

/// The Schemble pipeline (Fig. 3) as a backend-agnostic engine.
///
/// Executor indices must equal base-model indices (identity deployment) —
/// the layout Schemble runs on in the paper.
pub struct SchembleEngine<'a> {
    ensemble: &'a Ensemble,
    config: &'a SchembleConfig,
    workload: &'a Workload,
    open: OpenTable<QState>,
    /// Queries adopted from other shards by work stealing: the one with
    /// local id `workload.len() + i` (the borrowed workload itself is
    /// immutable, and adoption ids are consecutive) is `adopted[i]`, `None`
    /// once it has been stolen back. [`steal::query_of`] makes lookups
    /// transparent, so the rest of the engine never cares where a query
    /// came from.
    adopted: Vec<Option<Query>>,
    plan_ready_at: SimTime,
    ledger: Ledger<'a>,
    /// Scheduler working memory, reused across every re-plan of the run —
    /// steady-state planning allocates nothing (see `scheduler::scratch`).
    sched_scratch: SchedScratch,
    /// Reusable plan output buffer, paired with `sched_scratch`.
    plan_buf: SchedulePlan,
    /// Predicted discrepancy scores, filled [`SCORE_BATCH`] at a time: one
    /// matrix forward over the next chunk of arrivals instead of a per-query
    /// MLP forward. Scores are bit-identical to per-query scoring (pinned by
    /// `predictor::tests::score_batch_is_bit_identical_to_per_sample_scores`),
    /// so batching never changes a decision.
    score_cache: Vec<f64>,
    score_ready: Vec<bool>,
    /// The scheduler's input, held across re-plans so building one
    /// allocates nothing: `latencies` is filled once (the ensemble's planned
    /// latencies never change), `availability` is refilled in place via
    /// [`ExecutionBackend::availability_into`], and `queries` is cleared and
    /// refilled with refcount bumps of each query's utility row.
    plan_input: ScheduleInput,
    /// Second availability scratch for the raw (unadjusted) lookups the
    /// ForceAll fallback and explainability paths need.
    avail_raw: Vec<SimTime>,
    /// `(deadline, key)` pairs for the two walks that go by
    /// `(deadline, id)` instead of id: `dispatch` (key = table position,
    /// which orders like the id) and `release_for_steal` (key = id).
    edf: Vec<(SimTime, u64)>,
    /// The anytime policy's working memory: the vote histogram, then the
    /// gain order of the remaining tasks.
    anytime_scratch: Vec<usize>,
    /// The samples of the score window being prefetched.
    score_samples: Vec<&'a Sample>,
}

impl<'a> SchembleEngine<'a> {
    /// An engine over `workload`, with no queries admitted yet.
    pub fn new(ensemble: &'a Ensemble, config: &'a SchembleConfig, workload: &'a Workload) -> Self {
        Self {
            ensemble,
            config,
            workload,
            open: OpenTable::new(),
            adopted: Vec::new(),
            plan_ready_at: SimTime::ZERO,
            ledger: Ledger::new(ensemble, &config.assembler, workload),
            sched_scratch: SchedScratch::new(),
            plan_buf: SchedulePlan::empty(0),
            score_cache: vec![0.0; workload.len()],
            score_ready: vec![false; workload.len()],
            plan_input: ScheduleInput {
                now: SimTime::ZERO,
                availability: Vec::new(),
                latencies: ensemble.planned_latencies(),
                queries: Vec::new(),
            },
            avail_raw: Vec::new(),
            edf: Vec::new(),
            anytime_scratch: Vec::new(),
            score_samples: Vec::new(),
        }
    }

    /// Whether cross-query batching is on (an inactive config is `None`).
    fn batching(&self) -> Option<schemble_sim::BatchConfig> {
        self.config.batching.filter(|b| b.active())
    }

    /// The predicted discrepancy score of workload query `i`, served from
    /// the batch cache (scoring the next [`SCORE_BATCH`] arrivals in one
    /// matrix forward on a miss). Scoring is pure and deterministic per
    /// sample, so prefetching ahead of arrival order changes no score.
    fn predicted_score(&mut self, i: usize) -> f64 {
        if !self.score_ready[i] {
            let end = (i + SCORE_BATCH).min(self.workload.queries.len());
            let workload = self.workload;
            self.score_samples.clear();
            self.score_samples.extend(workload.queries[i..end].iter().map(|q| &q.sample));
            let scores = self.config.scorer.score_batch(&self.score_samples, self.ensemble);
            for (off, s) in scores.into_iter().enumerate() {
                self.score_cache[i + off] = s;
                self.score_ready[i + off] = true;
            }
        }
        self.score_cache[i]
    }

    /// Emits decision events into `trace` (and plan timings into its
    /// [`PlanningProfile`](schemble_trace::PlanningProfile)). Tracing never
    /// alters a decision: events carry only data the engine computed anyway.
    pub fn with_trace(mut self, trace: Arc<TraceSink>) -> Self {
        self.ledger.trace = trace;
        self
    }

    /// Consumes the engine, aggregating backend usage into a [`RunSummary`].
    pub fn into_summary(self, usage: Vec<ExecutorUsage>) -> RunSummary {
        debug_assert!(self.open.iter().all(|s| s.started.is_empty()), "drained with running tasks");
        self.ledger.into_summary(&Deployment::identity(self.ensemble.m()), usage)
    }

    fn on_arrival(&mut self, i: usize, now: SimTime, backend: &mut dyn ExecutionBackend) {
        let q = &self.workload.queries[i];
        self.ledger.arrival(q, now);
        // Fast path (§VIII): empty buffer + an idle model ⇒ skip
        // prediction and scheduling, run the fastest idle model now.
        if self.config.fast_path && self.open.is_empty() && backend.any_idle() {
            let k = (0..backend.executors())
                .filter(|&k| backend.is_idle(k))
                .min_by_key(|&k| self.ensemble.latency(k).planned())
                .expect("an idle server exists");
            self.ledger.admission(q.id, AdmissionVerdict::FastPath { executor: k as u16 }, now);
            if self.batching().is_some() {
                // A batching backend may hold an open batch on an idle
                // executor; joining it is the fast path's batched analogue.
                backend.submit_batch(k, q.id, now);
            } else {
                backend.start_task(k, q.id, now);
            }
            self.open.admit(QState {
                set: ModelSet::singleton(k),
                started: ModelSet::singleton(k),
                frozen: true,
                ..QState::buffered(q, q.arrival, 0.0, self.config.profile.utility_vector(0.0))
            });
            return;
        }
        self.ledger.admission(q.id, AdmissionVerdict::Buffered, now);
        let score = self.predicted_score(i).clamp(0.0, 1.0);
        let utilities = self.config.profile.utility_vector(score);
        self.ledger.trace.emit(TraceEvent::Scored {
            t: now,
            query: q.id,
            bin: self.config.profile.bin_of(score) as u8,
            score_fp: score_fixed_point(score),
        });
        // The query only becomes dispatchable once its score
        // prediction lands; make sure something fires then.
        let ready_at = q.arrival + self.config.predictor_latency;
        self.open.admit(QState::buffered(q, ready_at, score, utilities));
        backend.request_wake(ready_at.max(now));
        self.replan(now, backend);
    }

    fn on_task_done(
        &mut self,
        executor: usize,
        query: u64,
        now: SimTime,
        backend: &mut dyn ExecutionBackend,
    ) {
        let Some(pos) = self.open.position(query) else {
            // Only deadline-aware degradation closes a query while a
            // task of its is still running; the late output is dropped.
            let tolerant = self.ledger.fault_mode(self.config.failure);
            assert!(tolerant, "completion for unknown query {query}");
            return;
        };
        let q = steal::query_of(self.workload, &self.adopted, query);
        let output = self.ensemble.models[executor].infer(&q.sample, &self.ensemble.spec);
        self.open[pos].outputs.push((executor, output));
        self.anytime_quit(pos, now, backend);
        self.settle(pos, now);
        self.replan(now, backend);
    }

    /// A task execution failed (transient fault, timeout, or executor
    /// crash). Retries it after exponential backoff while the budget and
    /// deadline allow; otherwise drops the model from the query's set and
    /// degrades ("quit when you can": a partial answer on time beats a full
    /// ensemble late).
    fn on_task_failed(
        &mut self,
        executor: usize,
        query: u64,
        now: SimTime,
        backend: &mut dyn ExecutionBackend,
    ) {
        self.ledger.task_failed();
        let policy = self.config.failure.unwrap_or_default();
        let m = self.ensemble.m();
        if let Some(pos) = self.open.position(query) {
            let state = &mut self.open[pos];
            state.started = state.started.without(executor);
            let attempts = u32::from(state.fault.fail(executor, m));
            let worth_retrying =
                self.config.admission == AdmissionMode::ForceAll || state.deadline > now;
            if attempts <= policy.max_retries && worth_retrying {
                let retry_at = now + policy.delay(attempts);
                state.fault.retry_at[executor] = Some(retry_at);
                backend.request_wake(retry_at);
            } else {
                state.set = state.set.without(executor);
                state.fault.retry_at[executor] = None;
                state.fault.degraded = true;
                self.settle(pos, now);
            }
        }
        // (A crash may also kill a task of an already-closed query; the
        // failure is counted above and otherwise ignored.)
        self.replan(now, backend);
    }

    /// What every change to the buffer or the executors is followed by:
    /// deadline housekeeping, a fresh plan, and a wake-up for the instant
    /// that plan takes effect.
    fn replan(&mut self, now: SimTime, backend: &mut dyn ExecutionBackend) {
        self.expire(now);
        self.plan(now, backend);
        if self.plan_ready_at > now {
            backend.request_wake(self.plan_ready_at);
        }
    }

    /// Plans the unstarted buffer; updates when the new plan takes effect.
    ///
    /// The plan's queries are the unfrozen entries of the open table in
    /// table order (ascending id), so the plan's `pos`-th assignment belongs
    /// to the `pos`-th unfrozen entry — nothing here looks a query up by id.
    fn plan(&mut self, now: SimTime, backend: &mut dyn ExecutionBackend) {
        let input = &mut self.plan_input;
        input.queries.clear();
        input.queries.extend(self.open.iter().filter(|s| !s.frozen).map(|s| BufferedQuery {
            id: s.id,
            arrival: s.arrival,
            deadline: s.deadline,
            utilities: Arc::clone(&s.utilities),
            score: s.score,
        }));
        if input.queries.is_empty() {
            self.plan_ready_at = self.plan_ready_at.max(now);
            return;
        }
        input.now = now;
        // Availability must account for *committed* work: tasks of frozen
        // (already-started) queries that have not begun executing yet will
        // occupy their models before anything planned now — without this, the
        // planner overcommits and every plan completes late.
        backend.availability_into(now, &mut input.availability);
        for state in self.open.iter().filter(|s| s.frozen) {
            for k in state.set.minus(state.started).iter() {
                input.availability[k] += input.latencies[k];
            }
        }
        let input = &self.plan_input;
        let plan_t0 = Instant::now();
        self.config.scheduler.plan_into(input, &mut self.sched_scratch, &mut self.plan_buf);
        self.ledger.trace.planning.record(self.plan_buf.work, plan_t0.elapsed());
        let cost = SimDuration::from_micros(
            (self.config.sched_ns_per_unit * self.plan_buf.work as f64 / 1000.0).round() as u64,
        ) + self.config.sched_base_overhead;
        self.plan_ready_at = now + cost;
        self.ledger.trace.emit(TraceEvent::Plan {
            t: now,
            buffer: input.queries.len() as u32,
            scheduled: self.plan_buf.scheduled_count() as u32,
            work: self.plan_buf.work,
            cost,
        });
        // Explainability bookkeeping is gated on `observing()` so the silent
        // hot path pays nothing; nothing in it feeds back into a decision.
        let observing = self.ledger.trace.observing();
        let completions = if observing { input.completions(&self.plan_buf) } else { Vec::new() };
        let force_all = self.config.admission == AdmissionMode::ForceAll;
        if force_all || observing {
            backend.availability_into(now, &mut self.avail_raw);
        }
        let planned = self.open.iter_mut().filter(|s| !s.frozen);
        for (pos, (s, &set)) in planned.zip(&self.plan_buf.assignments).enumerate() {
            let prev = std::mem::replace(&mut s.set, set);
            if force_all && set.is_empty() {
                // Forced mode: a query the plan abandoned but that must run
                // gets the least-loaded single model.
                let best = (0..input.m())
                    .min_by_key(|&k| self.avail_raw[k] + input.latencies[k])
                    .expect("non-empty ensemble");
                s.set = ModelSet::singleton(best);
            }
            if observing && s.set != prev {
                // One `PlanAssign` per query whose assignment this round
                // changed, in id order after the `Plan` event, carrying the
                // plan's own completion estimate (or, for a ForceAll fallback
                // singleton the plan left out, an availability-based one).
                let predicted_finish = completions[pos].unwrap_or_else(|| {
                    let mut finish = SimTime::ZERO;
                    for k in s.set.iter() {
                        finish = finish.max(self.avail_raw[k].max(now) + input.latencies[k]);
                    }
                    finish
                });
                self.ledger.trace.emit(TraceEvent::PlanAssign {
                    t: now,
                    query: s.id,
                    set: s.set.0,
                    predicted_finish,
                    frontier: self.plan_buf.frontier,
                });
            }
        }
    }

    /// Starts tasks on idle executors per the current plan, in EDF order.
    fn dispatch(&mut self, now: SimTime, backend: &mut dyn ExecutionBackend) {
        if self.open.is_empty() {
            return;
        }
        // EDF order over open queries: by (deadline, id). Table positions
        // order like ids, and deadlines mostly rise with them, so this sort
        // is usually one pass over a sorted list.
        self.edf.clear();
        self.edf.extend(self.open.iter().enumerate().map(|(pos, s)| (s.deadline, pos as u64)));
        self.edf.sort_unstable();
        let batching = self.batching();
        for k in 0..backend.executors() {
            // Dispatching onto `k` never changes another executor's
            // idleness, so the live check sees what a snapshot would.
            if !backend.is_idle(k) {
                continue;
            }
            // With batching active an idle executor accepts up to
            // `batch_max` members (counting an already-open batch); without
            // it, exactly one task as before.
            let mut room = match batching {
                Some(cfg) => cfg.batch_max.saturating_sub(backend.open_batch_len(k)),
                None => 1,
            };
            for &(_, pos) in &self.edf {
                if room == 0 {
                    break;
                }
                let state = &mut self.open[pos as usize];
                if !state.set.contains(k)
                    || state.started.contains(k)
                    || state.ready_at > now
                    || state.fault.retry_pending(k).is_some_and(|t| t > now)
                {
                    continue;
                }
                if batching.is_some() {
                    // Joining a non-empty open batch delays launch (window)
                    // and dilates service (batch curve); only coalesce when
                    // the quoted joined finish still meets the deadline.
                    // ForceAll queries run regardless, mirroring admission.
                    if self.config.admission == AdmissionMode::Reject
                        && backend.open_batch_len(k) > 0
                    {
                        let finish =
                            backend.available_at(k, now) + self.ensemble.latency(k).planned();
                        if finish > state.deadline {
                            continue;
                        }
                    }
                    backend.submit_batch(k, state.id, now);
                } else {
                    backend.start_task(k, state.id, now);
                }
                state.started = state.started.with(k);
                state.frozen = true;
                let attempt = state.fault.attempts(k);
                if attempt > 0 {
                    state.fault.clear_retry(k);
                    self.ledger.retried(state.id, k, attempt, now);
                }
                room -= 1;
            }
        }
    }

    /// Takes the started query at table position `pos` off the table and
    /// closes it in the ledger once outputs for its whole (possibly shrunk)
    /// set have arrived. Returns whether it did — a sweep that calls this
    /// stays at `pos` when the entry is gone.
    fn settle(&mut self, pos: usize, now: SimTime) -> bool {
        if self.open[pos].outputs.len() != self.open[pos].set.len() {
            return false;
        }
        let state = self.open.remove(pos);
        let q = steal::query_of(self.workload, &self.adopted, state.id);
        self.ledger.close(q, state.set, state.outputs, state.fault.degraded, now);
        true
    }

    /// Deadline housekeeping (Reject mode only; ForceAll keeps everything):
    /// unstarted expired queries are dropped, and already-started expired
    /// queries stop scheduling *further* tasks (their set shrinks to what
    /// has started — a late result is a miss either way, so the remaining
    /// capacity goes to queries that can still make it). Both sweeps go in
    /// id order, which the emitted trace depends on.
    fn expire(&mut self, now: SimTime) {
        if self.config.admission == AdmissionMode::ForceAll
            || !self.open.iter().any(|s| s.deadline < now)
        {
            return;
        }
        let ledger = &mut self.ledger;
        self.open.retain(|s| {
            let expired = s.started.is_empty() && s.deadline < now;
            if expired {
                ledger.expired(s.id, now);
            }
            !expired
        });
        let mut pos = 0;
        while pos < self.open.len() {
            let state = &mut self.open[pos];
            let mut shrunk = false;
            if state.deadline < now {
                if self.config.failure.is_some() && !state.outputs.is_empty() {
                    // Deadline-aware degradation: answer *now* from the outputs
                    // in hand instead of waiting for still-running tasks.
                    let produced = produced_set(&state.outputs);
                    if state.set != produced {
                        state.fault.degraded = true;
                    }
                    state.set = produced;
                    shrunk = true;
                } else if state.set != state.started {
                    state.set = state.started;
                    shrunk = true;
                }
            }
            if !(shrunk && self.settle(pos, now)) {
                pos += 1;
            }
        }
    }
}

impl PipelineEngine for SchembleEngine<'_> {
    fn handle(&mut self, event: BackendEvent, now: SimTime, backend: &mut dyn ExecutionBackend) {
        match event {
            BackendEvent::Arrival(i) => self.on_arrival(i, now, backend),
            BackendEvent::TaskDone { executor, query } => {
                self.on_task_done(executor, query, now, backend)
            }
            BackendEvent::TaskFailed { executor, query } => {
                self.on_task_failed(executor, query, now, backend)
            }
            BackendEvent::ExecutorDown { .. } | BackendEvent::ExecutorUp { .. } => {
                // Availability changed: re-plan the buffer against it. (The
                // backend traces the transition and surfaces any killed task
                // as its own `TaskFailed`.)
                self.ledger.fault_seen();
                self.replan(now, backend);
            }
            BackendEvent::Wake => self.expire(now),
        }
        // Dispatch whenever the latest plan is effective.
        if now >= self.plan_ready_at {
            self.dispatch(now, backend);
        }
    }

    fn open_count(&self) -> usize {
        self.open.len()
    }

    fn next_wake_hint(&self, now: SimTime) -> Option<SimTime> {
        let mut next: Option<SimTime> = None;
        let mut consider = |t: SimTime| {
            if t > now {
                next = Some(next.map_or(t, |n| n.min(t)));
            }
        };
        if self.plan_ready_at > now {
            consider(self.plan_ready_at);
        }
        for state in self.open.iter() {
            if !state.frozen {
                consider(state.ready_at);
            }
            if self.config.admission == AdmissionMode::Reject {
                consider(state.deadline);
            }
            for t in state.fault.retry_at.iter().flatten() {
                consider(*t);
            }
        }
        next
    }

    fn drain(&mut self, now: SimTime) {
        // End of trace: whatever never started can no longer complete.
        let ledger = &mut self.ledger;
        self.open.retain(|s| {
            let stuck = s.started.is_empty();
            if stuck {
                ledger.expired(s.id, now);
            }
            !stuck
        });
        if self.ledger.fault_mode(self.config.failure) {
            // Under faults a query can be wedged with tasks that will never
            // report (e.g. the runtime stopped waiting on a dead worker).
            // Close every remainder: partial outputs become a degraded
            // answer, the rest expire.
            while let Some(state) = self.open.first_mut() {
                state.set = produced_set(&state.outputs);
                state.fault.degraded = true;
                self.settle(0, now);
            }
        }
    }

    fn take_records(&mut self) -> Vec<QueryRecord> {
        std::mem::take(&mut self.ledger.records)
    }

    fn stats(&self) -> EngineStats {
        self.ledger.stats
    }

    fn take_completions(&mut self) -> Vec<(u64, f64)> {
        std::mem::take(&mut self.ledger.completions)
    }

    fn steal_backlog(&self) -> (u64, u64) {
        self.backlog()
    }

    fn release_for_steal(&mut self, count: usize, _now: SimTime) -> Vec<StolenQuery> {
        self.release(count)
    }

    fn adopt_stolen(&mut self, stolen: StolenQuery, lineage: StealLineage, now: SimTime) -> u64 {
        self.adopt(stolen, lineage, now)
    }

    fn on_rebalanced(&mut self, now: SimTime, backend: &mut dyn ExecutionBackend) {
        self.replan(now, backend);
        if now >= self.plan_ready_at {
            self.dispatch(now, backend);
        }
    }
}

#[cfg(test)]
mod tests {
    //! The open table and the engine-owned scratch, tested on the engine's
    //! own state: entries are admitted directly, so each test decides the
    //! sets, deadlines and outputs it needs instead of steering a planner
    //! into them.
    use super::*;
    use crate::backend::SimBackend;
    use crate::executor::ExecutorBank;
    use crate::predictor::OnlineScorer;
    use crate::profiling::AccuracyProfile;
    use crate::scheduler::DpScheduler;
    use schemble_data::{DeadlinePolicy, PoissonTrace};
    use schemble_models::{zoo, Aggregator, DifficultyDist, SampleGenerator};
    use schemble_sim::{BatchConfig, FaultPlan};

    fn fixture(n: usize) -> (Ensemble, SchembleConfig, Workload) {
        let ens = zoo::text_matching(1);
        let gen = SampleGenerator::new(ens.spec, DifficultyDist::Uniform, 5);
        let history = gen.batch(0, 300);
        let scores: Vec<f64> = history.iter().map(|s| s.difficulty).collect();
        let profile = AccuracyProfile::fit(&ens, &history, &scores, 4);
        let config = SchembleConfig::new(
            Box::new(DpScheduler::default()),
            OnlineScorer::Constant(0.4),
            profile,
        );
        let trace = PoissonTrace { rate_per_sec: 40.0, n };
        let workload = Workload::generate(&gen, &trace, &DeadlinePolicy::constant_millis(105.0), 7);
        (ens, config, workload)
    }

    /// A backend that only records what the engine asks of it. Executors in
    /// `idle` accept work; `start_task` occupies one, `submit_batch` joins
    /// its open batch.
    struct Recorder {
        idle: Vec<bool>,
        started: Vec<(usize, u64)>,
    }

    impl ExecutionBackend for Recorder {
        fn executors(&self) -> usize {
            self.idle.len()
        }
        fn is_idle(&self, executor: usize) -> bool {
            self.idle[executor]
        }
        fn available_at(&self, _executor: usize, now: SimTime) -> SimTime {
            now
        }
        fn start_task(&mut self, executor: usize, query: u64, _now: SimTime) {
            self.idle[executor] = false;
            self.started.push((executor, query));
        }
        fn enqueue_task(&mut self, _executor: usize, _query: u64, _now: SimTime) {
            unreachable!("the Schemble engine dispatches on idle")
        }
        fn submit_batch(&mut self, executor: usize, query: u64, _now: SimTime) {
            self.started.push((executor, query));
        }
        fn open_batch_len(&self, executor: usize) -> usize {
            self.started.iter().filter(|&&(k, _)| k == executor).count()
        }
        fn request_wake(&mut self, _at: SimTime) {}
        fn usage(&self) -> Vec<ExecutorUsage> {
            Vec::new()
        }
    }

    /// An admitted, scored, unstarted query planned onto `set`.
    fn entry(engine: &SchembleEngine, id: u64, deadline_ms: u64, set: &[usize]) -> QState {
        QState {
            id,
            deadline: SimTime::from_millis(deadline_ms),
            arrival: SimTime::ZERO,
            ready_at: SimTime::ZERO,
            score: 0.4,
            utilities: engine.config.profile.utility_vector(0.4),
            set: ModelSet::from_indices(set),
            started: ModelSet::EMPTY,
            frozen: false,
            outputs: Vec::new(),
            fault: FaultBook::default(),
        }
    }

    /// `entry` with tasks running on `started` and `done`'s outputs in hand.
    fn running(
        engine: &SchembleEngine,
        id: u64,
        deadline_ms: u64,
        started: &[usize],
        done: &[usize],
    ) -> QState {
        let sample = &engine.workload.queries[id as usize].sample;
        let outputs = done
            .iter()
            .map(|&k| (k, engine.ensemble.models[k].infer(sample, &engine.ensemble.spec)))
            .collect();
        QState {
            started: ModelSet::from_indices(started),
            frozen: true,
            outputs,
            ..entry(engine, id, deadline_ms, started)
        }
    }

    fn ids(engine: &SchembleEngine) -> Vec<u64> {
        engine.open.iter().map(|s| s.id).collect()
    }

    #[test]
    fn an_arrival_after_an_adoption_lands_in_id_order() {
        let (ens, config, workload) = fixture(3);
        let mut engine = SchembleEngine::new(&ens, &config, &workload);
        let mut backend = Recorder { idle: vec![false; 3], started: Vec::new() };
        let t = workload.queries[0].arrival;
        engine.handle(BackendEvent::Arrival(0), t, &mut backend);
        let stolen = StolenQuery { query: workload.queries[2].clone(), score: 0.7, bin: 2 };
        let lineage =
            StealLineage { epoch: 0, victim: 1, thief: 0, victim_depth: 4, thief_depth: 1 };
        assert_eq!(engine.adopt_stolen(stolen, lineage, t), 3, "adopted ids follow the workload's");
        // Query 1 arrives with the adopted query 3 already open: it goes
        // before it, and the plan input it triggers is in id order too.
        engine.handle(BackendEvent::Arrival(1), workload.queries[1].arrival, &mut backend);
        assert_eq!(ids(&engine), [0, 1, 3]);
        let planned: Vec<u64> = engine.plan_input.queries.iter().map(|q| q.id).collect();
        assert_eq!(planned, [0, 1, 3]);
        assert_eq!(engine.open.position(3), Some(2));
        assert_eq!(engine.open.position(2), None);
        // Releasing it again takes it — the latest deadline — off the end.
        let released = engine.release_for_steal(1, t);
        assert_eq!(released.len(), 1);
        assert_eq!(ids(&engine), [0, 1]);
    }

    #[test]
    fn the_expiry_sweeps_survive_the_removals_they_make() {
        let (ens, mut config, workload) = fixture(7);
        config.failure = Some(crate::engine::FailurePolicy::default());
        let sink = TraceSink::new(64);
        let mut engine = SchembleEngine::new(&ens, &config, &workload).with_trace(sink.clone());
        // Two adjacent queries that degrade and leave in the second sweep
        // (the entry after a removal slides into the swept position), two
        // unstarted ones the first sweep drops around a survivor, and a
        // late query that only stops scheduling further tasks.
        for state in [
            running(&engine, 0, 50, &[0, 1], &[0]),
            running(&engine, 1, 50, &[0, 2], &[2]),
            entry(&engine, 2, 50, &[0]),
            running(&engine, 3, 50, &[1], &[]),
            entry(&engine, 4, 500, &[1]),
            entry(&engine, 5, 50, &[2]),
            running(&engine, 6, 500, &[0], &[]),
        ] {
            engine.open.admit(state);
        }
        engine.open[3].set = ModelSet::from_indices(&[1, 2]);
        engine.ledger.stats.submitted = 7;
        engine.expire(SimTime::from_millis(60));
        assert_eq!(ids(&engine), [3, 4, 6]);
        assert_eq!(engine.open[0].set, ModelSet::singleton(1), "late: shrunk to what started");
        let stats = engine.stats();
        assert_eq!((stats.expired, stats.degraded, stats.open()), (2, 2, 3));
        assert_eq!(engine.ledger.records[0].models_used, 1);
        assert_eq!(engine.ledger.records[1].models_used, 1);
        // Both sweeps go in id order, the dropped queries first.
        let order: Vec<(&str, u64)> = sink
            .drain()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::QueryExpired { query, .. } => Some(("expired", query)),
                TraceEvent::DegradedAnswer { query, .. } => Some(("degraded", query)),
                _ => None,
            })
            .collect();
        assert_eq!(order, [("expired", 2), ("expired", 5), ("degraded", 0), ("degraded", 1)]);
        // Nothing is past its deadline any more: the next sweep is a no-op.
        engine.open[0].deadline = SimTime::from_millis(500);
        engine.expire(SimTime::from_millis(70));
        assert_eq!(ids(&engine), [3, 4, 6]);
    }

    #[test]
    fn dispatch_goes_by_deadline_then_id_not_by_table_order() {
        let (ens, mut config, workload) = fixture(5);
        config.batching = Some(BatchConfig::new(8, SimDuration::from_millis(2)));
        let mut engine = SchembleEngine::new(&ens, &config, &workload);
        // Per-query deadlines (and adopted queries, which keep theirs) make
        // deadlines non-monotone in id.
        for (id, deadline_ms) in [(0, 300), (1, 100), (2, 200), (3, 100), (4, 250)] {
            let state = entry(&engine, id, deadline_ms, &[0]);
            engine.open.admit(state);
        }
        let mut backend = Recorder { idle: vec![true, false, false], started: Vec::new() };
        engine.dispatch(SimTime::from_millis(1), &mut backend);
        assert_eq!(backend.started, [(0, 1), (0, 3), (0, 2), (0, 4), (0, 0)]);
        assert!(engine.open.iter().all(|s| s.frozen && s.started == ModelSet::singleton(0)));
        // Without batching an idle executor takes exactly the EDF head.
        let (ens, config, workload) = fixture(5);
        let mut engine = SchembleEngine::new(&ens, &config, &workload);
        for (id, deadline_ms) in [(0, 300), (1, 100), (2, 200), (3, 100)] {
            let state = entry(&engine, id, deadline_ms, &[0, 1]);
            engine.open.admit(state);
        }
        let mut backend = Recorder { idle: vec![true, true, false], started: Vec::new() };
        engine.dispatch(SimTime::from_millis(1), &mut backend);
        assert_eq!(backend.started, [(0, 1), (1, 1)]);
    }

    /// Replays `workload` through a faulted, batching `SimBackend`;
    /// `before_event` runs on the engine ahead of every event.
    fn run_hooked(
        ens: &Ensemble,
        config: &SchembleConfig,
        workload: &Workload,
        mut before_event: impl FnMut(&mut SchembleEngine),
    ) -> (Vec<QueryRecord>, EngineStats, Vec<TraceEvent>) {
        let plan = FaultPlan::parse("transient 0.05\ncrash 1 1.0 1.2").expect("valid plan");
        let latencies = (0..ens.m()).map(|k| ens.latency(k)).collect();
        let sink = TraceSink::new(1 << 16);
        let bank = ExecutorBank::new(latencies, 3, "engine-test")
            .with_trace(sink.clone())
            .with_faults(Some(&plan), 3)
            .with_batching(config.batching);
        let mut backend = SimBackend::new(bank);
        for (i, q) in workload.queries.iter().enumerate() {
            backend.push_arrival(q.arrival, i);
        }
        let mut engine = SchembleEngine::new(ens, config, workload).with_trace(sink.clone());
        let mut end = SimTime::ZERO;
        while let Some((now, event)) = backend.pop_event() {
            before_event(&mut engine);
            engine.handle(event, now, &mut backend);
            end = now;
        }
        engine.drain(end);
        assert_eq!(engine.open_count(), 0);
        (engine.take_records(), engine.stats(), sink.drain())
    }

    #[test]
    fn scratch_carried_across_events_changes_nothing() {
        // The engine's working memory (EDF order, vote histogram and gain
        // order, score window) outlives every event. An engine that gets it
        // fresh before each event must decide exactly the same — with
        // anytime exit under voting, batching, faults and non-monotone
        // deadlines all drawing on it.
        let (mut ens, mut config, mut workload) = fixture(400);
        ens.aggregator = Aggregator::Voting;
        config.anytime = Some(AnytimePolicy { confidence_threshold: 0.9 });
        config.failure = Some(crate::engine::FailurePolicy::default());
        config.batching = Some(BatchConfig::new(4, SimDuration::from_millis(2)));
        for q in workload.queries.iter_mut().step_by(3) {
            q.deadline += SimDuration::from_millis(60);
        }
        let carried = run_hooked(&ens, &config, &workload, |_| {});
        let fresh = run_hooked(&ens, &config, &workload, |engine| {
            engine.edf = Vec::new();
            engine.anytime_scratch = Vec::new();
            engine.score_samples = Vec::new();
        });
        assert!(carried.1.tasks_saved > 0 && carried.1.tasks_retried > 0, "{:?}", carried.1);
        assert_eq!(carried.0, fresh.0);
        assert_eq!(carried.1, fresh.1);
        assert_eq!(carried.2, fresh.2);
    }
}
