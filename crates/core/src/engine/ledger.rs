//! The query ledger: one engine's records, counters and trace sink, and the
//! only code that books an arrival, a rejection, an expiry, a retry or a
//! closed query — so every engine tells the same lifecycle story to
//! `RunSummary`, the audit log and the obs fold.

use super::{EngineStats, FailurePolicy};
use crate::backend::ExecutorUsage;
use crate::pipeline::eval::evaluate_with_outputs;
use crate::pipeline::immediate::Deployment;
use crate::pipeline::ResultAssembler;
use schemble_data::{Query, Workload};
use schemble_metrics::{ModelUsage, QueryOutcome, QueryRecord, RunSummary};
use schemble_models::{Ensemble, ModelSet, Output};
use schemble_sim::SimTime;
use schemble_trace::{score_fixed_point, AdmissionVerdict, TraceEvent, TraceSink};
use std::sync::Arc;

fn blank_record(id: u64, arrival: SimTime, deadline: SimTime) -> QueryRecord {
    QueryRecord {
        id,
        arrival,
        deadline,
        completion: None,
        outcome: QueryOutcome::Missed,
        models_used: 0,
    }
}

pub(super) struct Ledger<'a> {
    ensemble: &'a Ensemble,
    assembler: &'a ResultAssembler,
    /// One record per query id; `Missed` until the query closes.
    pub(super) records: Vec<QueryRecord>,
    pub(super) stats: EngineStats,
    /// `(query id, latency secs)` of every query closed since last taken.
    pub(super) completions: Vec<(u64, f64)>,
    /// Decision events (and plan timings) go here. Tracing never alters a
    /// decision: events carry only data the engine computed anyway.
    pub(super) trace: Arc<TraceSink>,
    /// Set once any fault event arrives; enables tolerant bookkeeping (late
    /// completions, drain-time degradation) even without an explicit policy.
    faults_seen: bool,
}

impl<'a> Ledger<'a> {
    /// A ledger with a blank record per query of `workload`; closed queries
    /// are assembled by `assembler` and scored against `ensemble`.
    pub(super) fn new(
        ensemble: &'a Ensemble,
        assembler: &'a ResultAssembler,
        workload: &Workload,
    ) -> Self {
        Self {
            ensemble,
            assembler,
            records: workload
                .queries
                .iter()
                .map(|q| blank_record(q.id, q.arrival, q.deadline))
                .collect(),
            stats: EngineStats::default(),
            completions: Vec::new(),
            trace: TraceSink::disabled(),
            faults_seen: false,
        }
    }

    pub(super) fn arrival(&mut self, q: &Query, now: SimTime) {
        self.stats.submitted += 1;
        self.trace.emit(TraceEvent::Arrival { t: now, query: q.id, deadline: q.deadline });
    }

    /// Appends the record of a query adopted from another shard and returns
    /// its fresh local id, the next after every id booked so far.
    pub(super) fn adoption(&mut self, arrival: SimTime, deadline: SimTime) -> u64 {
        let id = self.records.len() as u64;
        self.records.push(blank_record(id, arrival, deadline));
        id
    }

    pub(super) fn admission(&self, id: u64, verdict: AdmissionVerdict, now: SimTime) {
        self.trace.emit(TraceEvent::Admission { t: now, query: id, verdict });
    }

    /// Books query `id` as refused at arrival; its record stays `Missed`.
    pub(super) fn rejected(&mut self, id: u64, now: SimTime) {
        self.stats.rejected += 1;
        self.admission(id, AdmissionVerdict::Rejected, now);
    }

    /// Books query `id` as expired at `now`; its record keeps the default
    /// `Missed` outcome.
    pub(super) fn expired(&mut self, id: u64, now: SimTime) {
        self.records[id as usize].models_used = 0;
        self.stats.expired += 1;
        self.trace.emit(TraceEvent::QueryExpired { t: now, query: id });
    }

    /// Notes a fault event; from here on [`Self::fault_mode`] holds.
    pub(super) fn fault_seen(&mut self) {
        self.faults_seen = true;
    }

    pub(super) fn task_failed(&mut self) {
        self.faults_seen = true;
        self.stats.tasks_failed += 1;
    }

    /// Books the re-dispatch of query `id`'s failed task onto `executor`.
    pub(super) fn retried(&mut self, id: u64, executor: usize, attempt: u8, now: SimTime) {
        self.stats.tasks_retried += 1;
        self.trace.emit(TraceEvent::TaskRetried {
            t: now,
            query: id,
            executor: executor as u16,
            attempt,
        });
    }

    /// Fault handling is live: either an explicit policy was configured or a
    /// fault event has already been observed.
    pub(super) fn fault_mode(&self, policy: Option<FailurePolicy>) -> bool {
        self.faults_seen || policy.is_some()
    }

    /// Closes query `q` with the `outputs` of `set` in hand: assembles the
    /// result, evaluates it against the full ensemble, records it and says
    /// so on the trace — realized score first, then the terminal event. A
    /// query whose every model failed for good (`set` is empty) expires.
    pub(super) fn close(
        &mut self,
        q: &Query,
        set: ModelSet,
        mut outputs: Vec<(usize, Output)>,
        degraded: bool,
        now: SimTime,
    ) {
        if set.is_empty() {
            return self.expired(q.id, now);
        }
        outputs.sort_by_key(|(k, _)| *k);
        let result = self.assembler.assemble(self.ensemble, &outputs, set);
        // The outputs in hand are part of the reference: only the models
        // that did not run are inferred for it.
        let (correct, score) = evaluate_with_outputs(self.ensemble, &q.sample, &outputs, &result);
        let record = &mut self.records[q.id as usize];
        record.completion = Some(now);
        record.outcome = if degraded {
            QueryOutcome::Degraded { correct, score }
        } else {
            QueryOutcome::Completed { correct, score }
        };
        record.models_used = set.len();
        self.completions.push((q.id, (now - q.arrival).as_secs_f64()));
        self.trace.emit(TraceEvent::Realized {
            t: now,
            query: q.id,
            score_fp: score_fixed_point(score),
            correct,
        });
        if degraded {
            self.stats.degraded += 1;
            self.trace.emit(TraceEvent::DegradedAnswer { t: now, query: q.id, set: set.0 });
        } else {
            self.stats.completed += 1;
            self.trace.emit(TraceEvent::QueryDone { t: now, query: q.id, set: set.0 });
        }
    }

    /// Consumes the ledger, folding per-instance backend usage into
    /// per-model [`ModelUsage`] through the deployment map.
    pub(super) fn into_summary(
        self,
        deployment: &Deployment,
        usage: Vec<ExecutorUsage>,
    ) -> RunSummary {
        let models = (0..self.ensemble.m())
            .map(|k| {
                let mut model = ModelUsage {
                    name: self.ensemble.models[k].name.clone(),
                    busy_secs: 0.0,
                    tasks: 0,
                    instances: 0,
                };
                for inst in deployment.instances_of(k) {
                    model.busy_secs += usage[inst].busy_secs;
                    model.tasks += usage[inst].tasks;
                    model.instances += 1;
                }
                model
            })
            .collect();
        RunSummary::new(self.records).with_usage(models)
    }
}
