//! Backend-agnostic pipeline engines.
//!
//! An engine is the pure *decision* half of a serving pipeline — admission,
//! scoring, planning, dispatch order, result assembly — expressed as a state
//! machine over [`BackendEvent`]s. The *execution* half (where tasks run,
//! how time passes) lives behind [`ExecutionBackend`]. The deterministic
//! loop [`crate::pipeline::drive`] — under the DES drivers of
//! [`crate::pipeline`] and `schemble-serve`'s virtual clock alike — and that
//! crate's wall-clock loop drive these same engines, which is what makes
//! their admission decisions comparable: same events in, same decisions
//! out, regardless of substrate.
//!
//! Two engines cover the paper's pipeline families:
//!
//! * [`SchembleEngine`] — the buffered, re-planning pipeline of Fig. 3
//!   (query buffer, discrepancy predictor, DP scheduler, EDF
//!   dispatch-on-idle, deadline expiry).
//! * [`ImmediateEngine`] — the immediate-selection family of Fig. 2a–d
//!   (Original / Static / DES / Gating): a [`SelectionPolicy`] picks a
//!   subset at arrival and tasks join per-instance FIFO queues at once.

use crate::backend::{BackendEvent, ExecutionBackend, ExecutorUsage};
use crate::pipeline::eval::{evaluate, evaluate_with_outputs};
use crate::pipeline::immediate::{Deployment, SelectionPolicy};
use crate::pipeline::schemble::SchembleConfig;
use crate::pipeline::{AdmissionMode, ResultAssembler};
use crate::scheduler::anytime::gain_order_into;
use crate::scheduler::{BufferedQuery, SchedScratch, ScheduleInput, SchedulePlan};
use schemble_data::{Query, Workload};
use schemble_metrics::{ModelUsage, QueryOutcome, QueryRecord, RunSummary};
use schemble_models::{Aggregator, Ensemble, ModelSet, Output, Sample};
use schemble_sim::{SimDuration, SimTime};
use schemble_trace::{score_fixed_point, AdmissionVerdict, TraceEvent, TraceSink};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// How many queries the engine scores per predictor forward pass; batching
/// only amortises the per-forward overhead.
const SCORE_BATCH: usize = 32;

/// Live query-outcome counters, maintained incrementally by every engine.
///
/// Conservation invariant (the serve runtime's property tests check it):
/// `submitted + stolen_in == completed + degraded + rejected + expired +
/// stolen_out + open`, with `open` reaching zero after
/// [`PipelineEngine::drain`]. Without work stealing both `stolen_*` terms
/// are zero and this is the familiar `submitted == terminals + open`; with
/// it, summing per-shard stats cancels the transfer terms (every release is
/// someone's adoption), so the *global* invariant is unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Arrival events handled.
    pub submitted: u64,
    /// Queries completed with an assembled result.
    pub completed: u64,
    /// Queries answered from a partial ensemble after task failures or a
    /// deadline cut the planned set short.
    pub degraded: u64,
    /// Queries refused at arrival by admission control.
    pub rejected: u64,
    /// Queries dropped after admission (deadline or end-of-trace).
    pub expired: u64,
    /// Task executions that failed (transient fault, timeout or crash).
    /// Not part of conservation: a failure may be retried.
    pub tasks_failed: u64,
    /// Failed tasks that were re-dispatched.
    pub tasks_retried: u64,
    /// Planned tasks quit before completing because the anytime policy
    /// judged the partial ensemble already confident enough. Not part of
    /// conservation: the query itself still completes.
    pub tasks_saved: u64,
    /// Queries adopted from another shard engine by work stealing.
    pub stolen_in: u64,
    /// Queries released to another shard engine by work stealing.
    pub stolen_out: u64,
}

impl EngineStats {
    /// Queries owned by this engine but not yet decided.
    pub fn open(&self) -> u64 {
        (self.submitted + self.stolen_in)
            - (self.completed + self.degraded + self.rejected + self.expired + self.stolen_out)
    }

    /// Adds `other`'s counts to `self`. Addition commutes, so folding any
    /// number of per-shard stats in any order gives the same global stats.
    pub fn merge(&mut self, other: &EngineStats) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.degraded += other.degraded;
        self.rejected += other.rejected;
        self.expired += other.expired;
        self.tasks_failed += other.tasks_failed;
        self.tasks_retried += other.tasks_retried;
        self.tasks_saved += other.tasks_saved;
        self.stolen_in += other.stolen_in;
        self.stolen_out += other.stolen_out;
    }
}

/// A query released by one shard engine for adoption by another, carrying
/// the admission state that must survive the transfer. The thief re-plans
/// the query but never re-scores it: the discrepancy prediction is a pure
/// function of the sample, so carrying the score keeps the transfer free
/// *and* keeps scoring byte-identical to a run without stealing.
#[derive(Debug, Clone)]
pub struct StolenQuery {
    /// The query itself, keeping its *original* arrival time and deadline —
    /// a transfer buys capacity, never extra slack.
    pub query: Query,
    /// Predicted discrepancy score, already clamped to `[0, 1]`.
    pub score: f64,
    /// Difficulty bin of `score` under the utility profile.
    pub bin: u8,
}

/// Where a stolen query came from; stamped into the thief's
/// [`TraceEvent::QueryStolen`] so lineage survives into every export.
#[derive(Debug, Clone, Copy)]
pub struct StealLineage {
    /// Steal-epoch index (0-based) at whose boundary the transfer happened.
    pub epoch: u32,
    /// Shard the query was released from.
    pub victim: u16,
    /// Shard that adopted it.
    pub thief: u16,
    /// Victim's eligible-queue depth in the epoch snapshot.
    pub victim_depth: u32,
    /// Thief's eligible-queue depth in the epoch snapshot.
    pub thief_depth: u32,
}

/// Retry and degradation knobs for fault-tolerant runs.
///
/// Engines handle [`BackendEvent::TaskFailed`] with
/// [`FailurePolicy::default`] even when a config carries `None`, so a fault
/// injected into any run is absorbed rather than fatal. But only an explicit
/// policy opts into *deadline-aware degradation* (answering with the outputs
/// in hand the moment the deadline arrives); with `None` and no faults, every
/// decision is identical to a build without this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailurePolicy {
    /// Re-dispatch a failed task at most this many times before its model
    /// is dropped from the query's set.
    pub max_retries: u32,
    /// Base retry delay; retry attempt `a` waits `backoff * 2^(a-1)`.
    pub backoff: SimDuration,
}

impl Default for FailurePolicy {
    fn default() -> Self {
        Self { max_retries: 2, backoff: SimDuration::from_millis(2) }
    }
}

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

/// A pipeline's decision logic as a state machine over backend events.
///
/// The driver (DES loop or serving runtime) owns the backend, feeds every
/// event through [`PipelineEngine::handle`], and finally collects records.
pub trait PipelineEngine {
    /// Processes one event and issues any resulting backend actions.
    fn handle(&mut self, event: BackendEvent, now: SimTime, backend: &mut dyn ExecutionBackend);

    /// Queries admitted but not yet completed or expired.
    fn open_count(&self) -> usize;

    /// The next instant at which the engine needs a [`BackendEvent::Wake`]
    /// even if nothing completes or arrives (pending plan, predictor
    /// completion, earliest deadline). `None` when no timer is needed.
    fn next_wake_hint(&self, now: SimTime) -> Option<SimTime>;

    /// Closes out queries that can no longer make progress (end of trace,
    /// no running tasks). Their records keep the default `Missed` outcome.
    fn drain(&mut self, now: SimTime);

    /// Takes the per-query records accumulated so far.
    fn take_records(&mut self) -> Vec<QueryRecord>;

    /// Current outcome counters.
    fn stats(&self) -> EngineStats;

    /// Drains `(query id, latency secs)` pairs of queries completed since
    /// the last call — the runtime feeds these into its latency histogram.
    fn take_completions(&mut self) -> Vec<(u64, f64)>;

    /// This engine's admitted-but-unplanned backlog as
    /// `(depth, predicted_us)`: how many steal-eligible queries it holds
    /// (admitted, scored, no task started) and the sum of their predicted
    /// service demands in integer microseconds. Pure and side-effect free —
    /// the steal coordinator snapshots every shard with it at each epoch
    /// boundary. Engines that cannot release work report `(0, 0)`.
    fn steal_backlog(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Releases up to `count` steal-eligible queries — latest deadlines
    /// first, so the victim keeps the work it is most likely to finish in
    /// time — removing them from this engine entirely. Default: releases
    /// nothing (paired with the `(0, 0)` backlog above).
    fn release_for_steal(&mut self, count: usize, now: SimTime) -> Vec<StolenQuery> {
        let _ = (count, now);
        Vec::new()
    }

    /// Adopts a query released by another engine, assigning it a fresh
    /// local id (returned). The caller re-plans afterwards via
    /// [`PipelineEngine::on_rebalanced`]. Engines reporting a `(0, 0)`
    /// backlog are never paired as thieves, so the default is unreachable
    /// under the coordinator's protocol.
    fn adopt_stolen(&mut self, stolen: StolenQuery, lineage: StealLineage, now: SimTime) -> u64 {
        let _ = (stolen, lineage, now);
        unreachable!("this engine does not participate in work stealing")
    }

    /// Re-plans after an epoch rebalance changed this engine's buffer
    /// (released and/or adopted queries). Called at most once per engine
    /// per epoch, and only when it transferred at least one query — a
    /// zero-transfer epoch leaves the engine byte-untouched.
    fn on_rebalanced(&mut self, now: SimTime, backend: &mut dyn ExecutionBackend) {
        let _ = (now, backend);
    }
}

fn blank_records(workload: &Workload) -> Vec<QueryRecord> {
    workload
        .queries
        .iter()
        .map(|q| QueryRecord {
            id: q.id,
            arrival: q.arrival,
            deadline: q.deadline,
            completion: None,
            outcome: QueryOutcome::Missed,
            models_used: 0,
        })
        .collect()
}

/// Per-query failure bookkeeping. Vectors stay empty (no allocation) until
/// the query's first task failure.
#[derive(Debug, Default)]
struct FaultBook {
    /// Failures seen per executor.
    attempts: Vec<u8>,
    /// Pending backoff deadline per executor; gates re-dispatch.
    retry_at: Vec<Option<SimTime>>,
    /// The query lost at least one planned model to faults or its deadline.
    degraded: bool,
}

impl FaultBook {
    fn ensure(&mut self, m: usize) {
        if self.attempts.len() < m {
            self.attempts.resize(m, 0);
            self.retry_at.resize(m, None);
        }
    }

    fn attempts(&self, k: usize) -> u8 {
        self.attempts.get(k).copied().unwrap_or(0)
    }

    fn retry_pending(&self, k: usize) -> Option<SimTime> {
        self.retry_at.get(k).copied().flatten()
    }
}

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

/// The executor set that produced `outputs`.
fn produced_set(outputs: &[(usize, Output)]) -> ModelSet {
    outputs.iter().fold(ModelSet::EMPTY, |s, (k, _)| s.with(*k))
}

/// The query behind local id `id`: an adopted (stolen) query if one exists,
/// otherwise the workload query at that index. A free function (not a
/// method) so callers can keep a disjoint `&mut` borrow of other engine
/// fields while holding the returned reference.
fn query_of<'q>(workload: &'q Workload, adopted: &'q HashMap<u64, Query>, id: u64) -> &'q Query {
    adopted.get(&id).unwrap_or_else(|| &workload.queries[id as usize])
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

/// Books query `id` as expired at `now`; its record keeps the default
/// `Missed` outcome. Takes the engine's fields one by one so a sweep over
/// the open table can call it while it holds the table.
fn book_expired(
    records: &mut [QueryRecord],
    stats: &mut EngineStats,
    trace: &TraceSink,
    id: u64,
    now: SimTime,
) {
    records[id as usize].models_used = 0;
    stats.expired += 1;
    trace.emit(TraceEvent::QueryExpired { t: now, query: id });
}

/// The Schemble pipeline (Fig. 3) as a backend-agnostic engine.
///
/// Executor indices must equal base-model indices (identity deployment) —
/// the layout Schemble runs on in the paper.
pub struct SchembleEngine<'a> {
    ensemble: &'a Ensemble,
    config: &'a SchembleConfig,
    workload: &'a Workload,
    /// The open queries, in ascending id: arrivals append, an adoption (or
    /// an arrival after one) inserts by binary search, lookups search.
    /// Ascending id is the order plans, sweeps and the trace go by, so
    /// nothing that walks the table has to sort it first.
    open: Vec<QState>,
    /// Queries adopted from other shards by work stealing, keyed by the
    /// fresh local id assigned at adoption (`>= workload.len()`, since the
    /// borrowed workload itself is immutable). [`query_of`] makes lookups
    /// transparent, so the rest of the engine never cares where a query
    /// came from.
    adopted: HashMap<u64, Query>,
    plan_ready_at: SimTime,
    records: Vec<QueryRecord>,
    stats: EngineStats,
    completions: Vec<(u64, f64)>,
    trace: Arc<TraceSink>,
    /// Set once any fault event arrives; enables tolerant bookkeeping (late
    /// completions, drain-time degradation) even without an explicit policy.
    faults_seen: bool,
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
            open: Vec::new(),
            adopted: HashMap::new(),
            plan_ready_at: SimTime::ZERO,
            records: blank_records(workload),
            stats: EngineStats::default(),
            completions: Vec::new(),
            trace: TraceSink::disabled(),
            faults_seen: false,
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

    /// Position of query `id` in the open table.
    fn position(&self, id: u64) -> Option<usize> {
        self.open.binary_search_by_key(&id, |s| s.id).ok()
    }

    /// Adds a query to the open table at its place in id order (the end,
    /// for an arrival with no adopted query open).
    fn admit(&mut self, state: QState) {
        let pos = self.open.partition_point(|s| s.id < state.id);
        debug_assert!(self.open.get(pos).is_none_or(|s| s.id != state.id), "query admitted twice");
        self.open.insert(pos, state);
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

    /// Fault handling is live: either an explicit policy was configured or a
    /// fault event has already been observed.
    fn fault_mode(&self) -> bool {
        self.faults_seen || self.config.failure.is_some()
    }

    /// Emits decision events into `trace` (and plan timings into its
    /// [`PlanningProfile`](schemble_trace::PlanningProfile)). Tracing never
    /// alters a decision: events carry only data the engine computed anyway.
    pub fn with_trace(mut self, trace: Arc<TraceSink>) -> Self {
        self.trace = trace;
        self
    }

    /// Consumes the engine, aggregating backend usage into a [`RunSummary`].
    pub fn into_summary(self, usage: Vec<ExecutorUsage>) -> RunSummary {
        debug_assert!(self.open.iter().all(|s| s.started.is_empty()), "drained with running tasks");
        let models = (0..self.ensemble.m())
            .map(|k| ModelUsage {
                name: self.ensemble.models[k].name.clone(),
                busy_secs: usage[k].busy_secs,
                tasks: usage[k].tasks,
                instances: 1,
            })
            .collect();
        RunSummary::new(self.records).with_usage(models)
    }

    fn on_arrival(&mut self, i: usize, now: SimTime, backend: &mut dyn ExecutionBackend) {
        let q = &self.workload.queries[i];
        self.stats.submitted += 1;
        self.trace.emit(TraceEvent::Arrival { t: now, query: q.id, deadline: q.deadline });
        // Fast path (§VIII): empty buffer + an idle model ⇒ skip
        // prediction and scheduling, run the fastest idle model now.
        if self.config.fast_path && self.open.is_empty() && backend.any_idle() {
            let k = (0..backend.executors())
                .filter(|&k| backend.is_idle(k))
                .min_by_key(|&k| self.ensemble.latency(k).planned())
                .expect("an idle server exists");
            self.trace.emit(TraceEvent::Admission {
                t: now,
                query: q.id,
                verdict: AdmissionVerdict::FastPath { executor: k as u16 },
            });
            if self.batching().is_some() {
                // A batching backend may hold an open batch on an idle
                // executor; joining it is the fast path's batched analogue.
                backend.submit_batch(k, q.id, now);
            } else {
                backend.start_task(k, q.id, now);
            }
            self.admit(QState {
                id: q.id,
                deadline: q.deadline,
                arrival: q.arrival,
                ready_at: q.arrival,
                score: 0.0,
                utilities: self.config.profile.utility_vector(0.0),
                set: ModelSet::singleton(k),
                started: ModelSet::singleton(k),
                frozen: true,
                outputs: Vec::new(),
                fault: FaultBook::default(),
            });
            return;
        }
        self.trace.emit(TraceEvent::Admission {
            t: now,
            query: q.id,
            verdict: AdmissionVerdict::Buffered,
        });
        let score = self.predicted_score(i).clamp(0.0, 1.0);
        let q = &self.workload.queries[i];
        let utilities = self.config.profile.utility_vector(score);
        self.trace.emit(TraceEvent::Scored {
            t: now,
            query: q.id,
            bin: self.config.profile.bin_of(score) as u8,
            score_fp: score_fixed_point(score),
        });
        self.admit(QState {
            id: q.id,
            deadline: q.deadline,
            arrival: q.arrival,
            ready_at: q.arrival + self.config.predictor_latency,
            score,
            utilities,
            set: ModelSet::EMPTY,
            started: ModelSet::EMPTY,
            frozen: false,
            outputs: Vec::new(),
            fault: FaultBook::default(),
        });
        // The query only becomes dispatchable once its score
        // prediction lands; make sure something fires then.
        let ready_at = q.arrival + self.config.predictor_latency;
        backend.request_wake(ready_at.max(now));
        self.expire(now);
        self.replan(now, backend);
        self.schedule_dispatch(now, backend);
    }

    fn on_task_done(
        &mut self,
        executor: usize,
        query: u64,
        now: SimTime,
        backend: &mut dyn ExecutionBackend,
    ) {
        let Some(pos) = self.position(query) else {
            // Only deadline-aware degradation closes a query while a
            // task of its is still running; the late output is dropped.
            assert!(self.fault_mode(), "completion for unknown query {query}");
            return;
        };
        let q = query_of(self.workload, &self.adopted, query);
        let output = self.ensemble.models[executor].infer(&q.sample, &self.ensemble.spec);
        self.open[pos].outputs.push((executor, output));
        self.anytime_quit(pos, now, backend);
        self.finish_if_complete(pos, now);
        self.expire(now);
        self.replan(now, backend);
        self.schedule_dispatch(now, backend);
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
        self.faults_seen = true;
        self.stats.tasks_failed += 1;
        let policy = self.config.failure.unwrap_or_default();
        let m = self.ensemble.m();
        if let Some(pos) = self.position(query) {
            let state = &mut self.open[pos];
            state.fault.ensure(m);
            state.started = state.started.without(executor);
            state.fault.attempts[executor] = state.fault.attempts[executor].saturating_add(1);
            let attempts = u32::from(state.fault.attempts[executor]);
            let worth_retrying =
                self.config.admission == AdmissionMode::ForceAll || state.deadline > now;
            if attempts <= policy.max_retries && worth_retrying {
                let delay = SimDuration::from_micros(
                    policy.backoff.as_micros().saturating_mul(1u64 << (attempts - 1).min(16)),
                );
                state.fault.retry_at[executor] = Some(now + delay);
                backend.request_wake(now + delay);
            } else {
                state.set = state.set.without(executor);
                state.fault.retry_at[executor] = None;
                state.fault.degraded = true;
                if state.set.is_empty() {
                    // Every planned model failed permanently: expire.
                    self.open.remove(pos);
                    book_expired(&mut self.records, &mut self.stats, &self.trace, query, now);
                } else {
                    self.finish_if_complete(pos, now);
                }
            }
        }
        // (A crash may also kill a task of an already-closed query; the
        // failure is counted above and otherwise ignored.)
        self.expire(now);
        self.replan(now, backend);
        self.schedule_dispatch(now, backend);
    }

    /// Re-plans the unstarted buffer; updates when the new plan takes effect.
    ///
    /// The plan's queries are the unfrozen entries of the open table in
    /// table order (ascending id), so the plan's `pos`-th assignment belongs
    /// to the `pos`-th unfrozen entry — nothing here looks a query up by id.
    fn replan(&mut self, now: SimTime, backend: &mut dyn ExecutionBackend) {
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
        self.trace.planning.record(self.plan_buf.work, plan_t0.elapsed());
        // Explainability bookkeeping is gated on `observing()` so the silent
        // hot path pays nothing; nothing below feeds back into a decision.
        let observing = self.trace.observing();
        let prev_sets: Vec<ModelSet> = if observing {
            self.open.iter().filter(|s| !s.frozen).map(|s| s.set).collect()
        } else {
            Vec::new()
        };
        // Forced mode: queries the plan abandoned but that must run get the
        // least-loaded single model.
        let force_all = self.config.admission == AdmissionMode::ForceAll;
        if force_all {
            backend.availability_into(now, &mut self.avail_raw);
        }
        let planned = self.open.iter_mut().filter(|s| !s.frozen);
        for (s, &set) in planned.zip(&self.plan_buf.assignments) {
            s.set = set;
            if force_all && set.is_empty() {
                let best = (0..input.m())
                    .min_by_key(|&k| self.avail_raw[k] + input.latencies[k])
                    .expect("non-empty ensemble");
                s.set = ModelSet::singleton(best);
            }
        }
        let cost = SimDuration::from_micros(
            (self.config.sched_ns_per_unit * self.plan_buf.work as f64 / 1000.0).round() as u64,
        ) + self.config.sched_base_overhead;
        self.plan_ready_at = now + cost;
        self.trace.emit(TraceEvent::Plan {
            t: now,
            buffer: input.queries.len() as u32,
            scheduled: self.plan_buf.scheduled_count() as u32,
            work: self.plan_buf.work,
            cost,
        });
        if observing {
            // One `PlanAssign` per query whose assignment this round changed,
            // carrying the plan's own completion estimate (or, for ForceAll
            // fallback singletons the plan left out, an availability-based
            // one). Emitted in id order after the `Plan` event so the stream
            // stays deterministic.
            let completions = input.completions(&self.plan_buf);
            backend.availability_into(now, &mut self.avail_raw);
            for (pos, s) in self.open.iter().filter(|s| !s.frozen).enumerate() {
                let set = s.set;
                if set == prev_sets[pos] {
                    continue;
                }
                let predicted_finish = completions[pos].unwrap_or_else(|| {
                    let mut finish = SimTime::ZERO;
                    for k in set.iter() {
                        finish = finish.max(self.avail_raw[k].max(now) + input.latencies[k]);
                    }
                    finish
                });
                self.trace.emit(TraceEvent::PlanAssign {
                    t: now,
                    query: s.id,
                    set: set.0,
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
                    if let Some(slot) = state.fault.retry_at.get_mut(k) {
                        *slot = None;
                    }
                    self.stats.tasks_retried += 1;
                    self.trace.emit(TraceEvent::TaskRetried {
                        t: now,
                        query: state.id,
                        executor: k as u16,
                        attempt,
                    });
                }
                room -= 1;
            }
        }
    }

    /// Anytime early exit: after a new output lands, quits the rest of the
    /// query's plan if the partial ensemble is already confident enough —
    /// running tasks are cancelled through the backend, unstarted ones shed
    /// from the set — so [`Self::finish_if_complete`] closes the query with
    /// the outputs in hand. In Reject mode a kept task whose predicted
    /// latency no longer fits the deadline margin is shed too (and the
    /// answer degrades, matching the expiry path's semantics).
    ///
    /// With no policy, or an inactive threshold, this returns before
    /// touching any state: every decision stays byte-identical to an engine
    /// without the feature (pinned by proptest).
    fn anytime_quit(&mut self, pos: usize, now: SimTime, backend: &mut dyn ExecutionBackend) {
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
            if let Some(slot) = state.fault.retry_at.get_mut(k) {
                *slot = None;
            }
            saved += 1;
            self.trace.emit(TraceEvent::TaskQuit { t: now, query, executor: k as u16 });
        }
        if saved == 0 {
            return;
        }
        self.stats.tasks_saved += u64::from(saved);
        if deadline_cut {
            // A deadline-driven cut answers short of the plan for time, not
            // confidence — that is a degradation, like the expiry path.
            state.fault.degraded = true;
        }
        self.trace.emit(TraceEvent::WorkSaved { t: now, query, saved });
    }

    /// Completes the query at table position `pos` once outputs for its
    /// whole (possibly shrunk) set have arrived: assembles the result,
    /// evaluates it, records it and takes the query off the table. Returns
    /// whether it did — a sweep that calls this stays at `pos` when the
    /// entry is gone.
    fn finish_if_complete(&mut self, pos: usize, now: SimTime) -> bool {
        let state = &self.open[pos];
        if state.set.is_empty() || state.outputs.len() != state.set.len() {
            return false;
        }
        let mut state = self.open.remove(pos);
        let query = state.id;
        let q = query_of(self.workload, &self.adopted, query);
        let degraded = state.fault.degraded;
        state.outputs.sort_by_key(|(k, _)| *k);
        let result = self.config.assembler.assemble(self.ensemble, &state.outputs, state.set);
        // The outputs in hand are part of the reference: only the models
        // that did not run are inferred for it.
        let (correct, score) =
            evaluate_with_outputs(self.ensemble, &q.sample, &state.outputs, &result);
        let record = &mut self.records[query as usize];
        record.completion = Some(now);
        record.outcome = if degraded {
            QueryOutcome::Degraded { correct, score }
        } else {
            QueryOutcome::Completed { correct, score }
        };
        record.models_used = state.set.len();
        let set = state.set;
        self.completions.push((query, (now - q.arrival).as_secs_f64()));
        self.trace.emit(TraceEvent::Realized {
            t: now,
            query,
            score_fp: score_fixed_point(score),
            correct,
        });
        if degraded {
            self.stats.degraded += 1;
            self.trace.emit(TraceEvent::DegradedAnswer { t: now, query, set: set.0 });
        } else {
            self.stats.completed += 1;
            self.trace.emit(TraceEvent::QueryDone { t: now, query, set: set.0 });
        }
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
        let (records, stats, trace) = (&mut self.records, &mut self.stats, &self.trace);
        self.open.retain(|s| {
            let expired = s.started.is_empty() && s.deadline < now;
            if expired {
                book_expired(records, stats, trace, s.id, now);
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
            if !(shrunk && self.finish_if_complete(pos, now)) {
                pos += 1;
            }
        }
    }

    /// Ensures a wake-up fires when a pending plan becomes effective.
    fn schedule_dispatch(&mut self, now: SimTime, backend: &mut dyn ExecutionBackend) {
        if self.plan_ready_at > now {
            backend.request_wake(self.plan_ready_at);
        }
    }

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
                self.faults_seen = true;
                self.expire(now);
                self.replan(now, backend);
                self.schedule_dispatch(now, backend);
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
        for state in &self.open {
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
        let (records, stats, trace) = (&mut self.records, &mut self.stats, &self.trace);
        self.open.retain(|s| {
            let stuck = s.started.is_empty();
            if stuck {
                book_expired(records, stats, trace, s.id, now);
            }
            !stuck
        });
        if self.fault_mode() {
            // Under faults a query can be wedged with tasks that will never
            // report (e.g. the runtime stopped waiting on a dead worker).
            // Close every remainder: partial outputs become a degraded
            // answer, the rest expire.
            let mut pos = 0;
            while pos < self.open.len() {
                let state = &mut self.open[pos];
                if state.outputs.is_empty() {
                    let id = self.open.remove(pos).id;
                    book_expired(&mut self.records, &mut self.stats, &self.trace, id, now);
                } else {
                    state.set = produced_set(&state.outputs);
                    state.fault.degraded = true;
                    if !self.finish_if_complete(pos, now) {
                        pos += 1;
                    }
                }
            }
        }
    }

    fn take_records(&mut self) -> Vec<QueryRecord> {
        std::mem::take(&mut self.records)
    }

    fn stats(&self) -> EngineStats {
        self.stats
    }

    fn take_completions(&mut self) -> Vec<(u64, f64)> {
        std::mem::take(&mut self.completions)
    }

    fn steal_backlog(&self) -> (u64, u64) {
        let mut depth = 0u64;
        let mut predicted_us = 0u64;
        for state in self.open.iter().filter(|s| !s.frozen) {
            depth += 1;
            predicted_us += self.predicted_cost_us(state);
        }
        (depth, predicted_us)
    }

    fn release_for_steal(&mut self, count: usize, now: SimTime) -> Vec<StolenQuery> {
        let _ = now;
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
            let pos = self.position(id).expect("present");
            let state = self.open.remove(pos);
            debug_assert!(
                state.started.is_empty() && state.outputs.is_empty(),
                "released query {id} had running work"
            );
            let query = match self.adopted.remove(&id) {
                Some(q) => q,
                None => self.workload.queries[id as usize].clone(),
            };
            // The released record slot stays `Missed` in this engine; the
            // shard merge drops it in favour of the thief's record.
            let bin = self.config.profile.bin_of(state.score) as u8;
            self.stats.stolen_out += 1;
            out.push(StolenQuery { query, score: state.score, bin });
        }
        out
    }

    fn adopt_stolen(&mut self, stolen: StolenQuery, lineage: StealLineage, now: SimTime) -> u64 {
        // Fresh local id: the workload is borrowed immutably, so adopted
        // queries extend the records vector instead.
        let id = self.records.len() as u64;
        let mut query = stolen.query;
        query.id = id;
        self.records.push(QueryRecord {
            id,
            arrival: query.arrival,
            deadline: query.deadline,
            completion: None,
            outcome: QueryOutcome::Missed,
            models_used: 0,
        });
        let utilities = self.config.profile.utility_vector(stolen.score);
        self.admit(QState {
            id,
            deadline: query.deadline,
            arrival: query.arrival,
            // Already scored on the victim: dispatchable immediately.
            ready_at: now,
            score: stolen.score,
            utilities,
            set: ModelSet::EMPTY,
            started: ModelSet::EMPTY,
            frozen: false,
            outputs: Vec::new(),
            fault: FaultBook::default(),
        });
        self.stats.stolen_in += 1;
        self.trace.emit(TraceEvent::QueryStolen {
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
        self.adopted.insert(id, query);
        id
    }

    fn on_rebalanced(&mut self, now: SimTime, backend: &mut dyn ExecutionBackend) {
        self.expire(now);
        self.replan(now, backend);
        self.schedule_dispatch(now, backend);
        if now >= self.plan_ready_at {
            self.dispatch(now, backend);
        }
    }
}

#[derive(Debug)]
struct Pending {
    set: ModelSet,
    outputs: Vec<(usize, Output)>,
    expected: usize,
    /// Failure count per base model (sparse; empty until a task fails).
    attempts: Vec<(usize, u8)>,
    /// The query lost at least one selected model to faults.
    degraded: bool,
}

/// The immediate-selection family (Fig. 2a–d) as a backend-agnostic engine.
///
/// Executor indices are deployment *instances*; `deployment.hosts` maps
/// each instance to the base model it serves.
pub struct ImmediateEngine<'a> {
    ensemble: &'a Ensemble,
    deployment: &'a Deployment,
    policy: &'a mut dyn SelectionPolicy,
    assembler: &'a ResultAssembler,
    admission: AdmissionMode,
    workload: &'a Workload,
    pending: HashMap<u64, Pending>,
    records: Vec<QueryRecord>,
    stats: EngineStats,
    completions: Vec<(u64, f64)>,
    trace: Arc<TraceSink>,
    failure: Option<FailurePolicy>,
    faults_seen: bool,
}

impl<'a> ImmediateEngine<'a> {
    /// An engine over `workload` with nothing pending yet.
    pub fn new(
        ensemble: &'a Ensemble,
        deployment: &'a Deployment,
        policy: &'a mut dyn SelectionPolicy,
        assembler: &'a ResultAssembler,
        admission: AdmissionMode,
        workload: &'a Workload,
    ) -> Self {
        Self {
            ensemble,
            deployment,
            policy,
            assembler,
            admission,
            workload,
            pending: HashMap::new(),
            records: blank_records(workload),
            stats: EngineStats::default(),
            completions: Vec::new(),
            trace: TraceSink::disabled(),
            failure: None,
            faults_seen: false,
        }
    }

    /// Emits decision events into `trace`; never alters a decision.
    pub fn with_trace(mut self, trace: Arc<TraceSink>) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the retry/degradation policy used when tasks fail.
    pub fn with_failure(mut self, policy: Option<FailurePolicy>) -> Self {
        self.failure = policy;
        self
    }

    /// Consumes the engine, aggregating per-instance usage into per-model
    /// [`ModelUsage`] through the deployment map.
    pub fn into_summary(self, usage: Vec<ExecutorUsage>) -> RunSummary {
        assert!(self.pending.is_empty(), "drained with pending queries");
        let models = (0..self.ensemble.m())
            .map(|k| {
                let mut busy = 0.0;
                let mut tasks = 0u64;
                let mut instances = 0usize;
                for inst in self.deployment.instances_of(k) {
                    busy += usage[inst].busy_secs;
                    tasks += usage[inst].tasks;
                    instances += 1;
                }
                ModelUsage {
                    name: self.ensemble.models[k].name.clone(),
                    busy_secs: busy,
                    tasks,
                    instances,
                }
            })
            .collect();
        RunSummary::new(self.records).with_usage(models)
    }

    fn on_arrival(&mut self, i: usize, now: SimTime, backend: &mut dyn ExecutionBackend) {
        let query = &self.workload.queries[i];
        self.stats.submitted += 1;
        self.trace.emit(TraceEvent::Arrival { t: now, query: query.id, deadline: query.deadline });
        let set = self.policy.select(query, self.ensemble);
        assert!(!set.is_empty(), "policy must select at least one model");
        // Choose the least-loaded *live* instance per selected model; a
        // model whose every instance is down drops out of the set up front.
        let mut usable = ModelSet::EMPTY;
        let mut chosen: Vec<usize> = Vec::with_capacity(set.len());
        for k in set.iter() {
            let mut hosted = false;
            let mut best: Option<usize> = None;
            for inst in self.deployment.instances_of(k) {
                hosted = true;
                if !backend.is_up(inst) {
                    continue;
                }
                let better = match best {
                    Some(b) => backend.available_at(inst, now) < backend.available_at(b, now),
                    None => true,
                };
                if better {
                    best = Some(inst);
                }
            }
            assert!(hosted, "deployment hosts no instance of model {k}");
            if let Some(inst) = best {
                usable = usable.with(k);
                chosen.push(inst);
            }
        }
        if usable.is_empty() {
            // Every selected model is down: refuse the query.
            self.stats.rejected += 1;
            self.trace.emit(TraceEvent::Admission {
                t: now,
                query: query.id,
                verdict: AdmissionVerdict::Rejected,
            });
            return;
        }
        // Serving fewer models than the policy asked for is already a
        // degraded answer, even before any task runs.
        let shrunk = usable != set;
        let set = usable;
        if self.admission == AdmissionMode::Reject {
            let est = chosen
                .iter()
                .map(|&inst| {
                    backend.available_at(inst, now)
                        + self.ensemble.latency(self.deployment.hosts[inst]).planned()
                })
                .max()
                .expect("non-empty set");
            if est > query.deadline {
                self.stats.rejected += 1;
                self.trace.emit(TraceEvent::Admission {
                    t: now,
                    query: query.id,
                    verdict: AdmissionVerdict::Rejected,
                });
                return; // rejected; record stays Missed.
            }
        }
        self.trace.emit(TraceEvent::Admission {
            t: now,
            query: query.id,
            verdict: AdmissionVerdict::Selected { set: set.0 },
        });
        self.records[i].models_used = set.len();
        self.pending.insert(
            query.id,
            Pending {
                set,
                outputs: Vec::new(),
                expected: set.len(),
                attempts: Vec::new(),
                degraded: shrunk,
            },
        );
        for &inst in &chosen {
            backend.enqueue_task(inst, query.id, now);
        }
    }

    fn on_task_done(&mut self, executor: usize, query: u64, now: SimTime) {
        let model = self.deployment.hosts[executor];
        let q = &self.workload.queries[query as usize];
        let entry = self.pending.get_mut(&query).expect("completion for unknown query");
        // Replicated deployments may run the same model once; outputs
        // are keyed by base model.
        entry
            .outputs
            .push((model, self.ensemble.models[model].infer(&q.sample, &self.ensemble.spec)));
        if entry.outputs.len() == entry.expected {
            self.finalize(query, now);
        }
    }

    /// A task execution failed. Re-enqueues it on the least-loaded live
    /// instance of the same model while the retry budget lasts; afterwards
    /// the model drops out and the query degrades to the remaining outputs.
    fn on_task_failed(
        &mut self,
        executor: usize,
        query: u64,
        now: SimTime,
        backend: &mut dyn ExecutionBackend,
    ) {
        self.faults_seen = true;
        self.stats.tasks_failed += 1;
        let policy = self.failure.unwrap_or_default();
        let model = self.deployment.hosts[executor];
        let mut finalize_now = false;
        let mut retry: Option<(usize, u8)> = None;
        {
            let Some(entry) = self.pending.get_mut(&query) else { return };
            let attempts = match entry.attempts.iter_mut().find(|(k, _)| *k == model) {
                Some((_, a)) => {
                    *a = a.saturating_add(1);
                    *a
                }
                None => {
                    entry.attempts.push((model, 1));
                    1
                }
            };
            let target = (u32::from(attempts) <= policy.max_retries)
                .then(|| {
                    self.deployment
                        .instances_of(model)
                        .filter(|&inst| backend.is_up(inst))
                        .min_by_key(|&inst| backend.available_at(inst, now))
                })
                .flatten();
            match target {
                Some(inst) => retry = Some((inst, attempts)),
                None => {
                    entry.set = entry.set.without(model);
                    entry.degraded = true;
                    entry.expected -= 1;
                    finalize_now = entry.outputs.len() == entry.expected;
                }
            }
        }
        if let Some((inst, attempt)) = retry {
            self.stats.tasks_retried += 1;
            self.trace.emit(TraceEvent::TaskRetried {
                t: now,
                query,
                executor: inst as u16,
                attempt,
            });
            backend.enqueue_task(inst, query, now);
        } else if finalize_now {
            self.finalize(query, now);
        }
    }

    /// Closes a pending query: assembles whatever arrived, or expires it
    /// when every selected model failed permanently.
    fn finalize(&mut self, query: u64, now: SimTime) {
        let done = self.pending.remove(&query).expect("present");
        let q = &self.workload.queries[query as usize];
        if done.outputs.is_empty() {
            self.records[query as usize].models_used = 0;
            self.stats.expired += 1;
            self.trace.emit(TraceEvent::QueryExpired { t: now, query });
            return;
        }
        let mut outputs = done.outputs;
        outputs.sort_by_key(|(k, _)| *k);
        let result = self.assembler.assemble(self.ensemble, &outputs, done.set);
        let (correct, score) = evaluate(self.ensemble, &q.sample, &result);
        self.records[query as usize].completion = Some(now);
        self.records[query as usize].models_used = done.set.len();
        self.completions.push((query, (now - q.arrival).as_secs_f64()));
        if done.degraded {
            self.records[query as usize].outcome = QueryOutcome::Degraded { correct, score };
            self.stats.degraded += 1;
            self.trace.emit(TraceEvent::DegradedAnswer { t: now, query, set: done.set.0 });
        } else {
            self.records[query as usize].outcome = QueryOutcome::Completed { correct, score };
            self.stats.completed += 1;
            self.trace.emit(TraceEvent::QueryDone { t: now, query, set: done.set.0 });
        }
    }
}

impl PipelineEngine for ImmediateEngine<'_> {
    fn handle(&mut self, event: BackendEvent, now: SimTime, backend: &mut dyn ExecutionBackend) {
        match event {
            BackendEvent::Arrival(i) => self.on_arrival(i, now, backend),
            BackendEvent::TaskDone { executor, query } => self.on_task_done(executor, query, now),
            BackendEvent::TaskFailed { executor, query } => {
                self.on_task_failed(executor, query, now, backend)
            }
            BackendEvent::ExecutorDown { .. } | BackendEvent::ExecutorUp { .. } => {
                // Selection consults `backend.is_up` live at arrival and on
                // retry; no standing state to update.
                self.faults_seen = true;
            }
            BackendEvent::Wake => {}
        }
    }

    fn open_count(&self) -> usize {
        self.pending.len()
    }

    fn next_wake_hint(&self, _now: SimTime) -> Option<SimTime> {
        // Immediate pipelines admit or reject at arrival and never expire
        // in-flight work; no timers needed.
        None
    }

    fn drain(&mut self, now: SimTime) {
        // Without faults, submitted tasks always run to completion; nothing
        // can be stuck. Under faults a query may be wedged waiting on a task
        // that will never report — close it with what it has.
        if !(self.faults_seen || self.failure.is_some()) {
            return;
        }
        let mut ids: Vec<u64> = self.pending.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            {
                let entry = self.pending.get_mut(&id).expect("present");
                entry.set = produced_set(&entry.outputs);
                entry.expected = entry.outputs.len();
                entry.degraded = true;
            }
            self.finalize(id, now);
        }
    }

    fn take_records(&mut self) -> Vec<QueryRecord> {
        std::mem::take(&mut self.records)
    }

    fn stats(&self) -> EngineStats {
        self.stats
    }

    fn take_completions(&mut self) -> Vec<(u64, f64)> {
        std::mem::take(&mut self.completions)
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
    use schemble_models::{zoo, DifficultyDist, SampleGenerator};
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
        assert_eq!(engine.position(3), Some(2));
        assert_eq!(engine.position(2), None);
        // Releasing it again takes it — the latest deadline — off the end.
        let released = engine.release_for_steal(1, t);
        assert_eq!(released.len(), 1);
        assert_eq!(ids(&engine), [0, 1]);
    }

    #[test]
    fn the_expiry_sweeps_survive_the_removals_they_make() {
        let (ens, mut config, workload) = fixture(7);
        config.failure = Some(FailurePolicy::default());
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
            engine.admit(state);
        }
        engine.open[3].set = ModelSet::from_indices(&[1, 2]);
        engine.stats.submitted = 7;
        engine.expire(SimTime::from_millis(60));
        assert_eq!(ids(&engine), [3, 4, 6]);
        assert_eq!(engine.open[0].set, ModelSet::singleton(1), "late: shrunk to what started");
        let stats = engine.stats();
        assert_eq!((stats.expired, stats.degraded, stats.open()), (2, 2, 3));
        assert_eq!(engine.records[0].models_used, 1);
        assert_eq!(engine.records[1].models_used, 1);
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
            engine.admit(state);
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
            engine.admit(state);
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
        config.failure = Some(FailurePolicy::default());
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
