//! The immediate-selection family (Fig. 2a–d): a policy selects a subset at
//! arrival, each task joins the FIFO queue of the least-loaded live instance
//! of its model, and the query closes when the last one reports.

use super::fault::FaultBook;
use super::ledger::Ledger;
use super::table::{Keyed, OpenTable};
use super::{EngineStats, FailurePolicy, PipelineEngine};
use crate::backend::{BackendEvent, ExecutionBackend, ExecutorUsage};
use crate::pipeline::eval::produced_set;
use crate::pipeline::immediate::{Deployment, SelectionPolicy};
use crate::pipeline::{AdmissionMode, ResultAssembler};
use schemble_data::Workload;
use schemble_metrics::{QueryRecord, RunSummary};
use schemble_models::{Ensemble, ModelSet, Output};
use schemble_sim::SimTime;
use schemble_trace::{AdmissionVerdict, TraceSink};
use std::sync::Arc;

/// An admitted query: the models it still counts on and what they returned.
#[derive(Debug)]
struct Pending {
    id: u64,
    set: ModelSet,
    /// Replicated deployments run a model once per query; outputs are keyed
    /// by base model.
    outputs: Vec<(usize, Output)>,
    fault: FaultBook,
}

impl Keyed for Pending {
    fn id(&self) -> u64 {
        self.id
    }
}

/// The immediate-selection family (Fig. 2a–d) as a backend-agnostic engine.
///
/// Executor indices are deployment *instances*; `deployment.hosts` maps
/// each instance to the base model it serves.
pub struct ImmediateEngine<'a> {
    ensemble: &'a Ensemble,
    deployment: &'a Deployment,
    policy: &'a mut dyn SelectionPolicy,
    admission: AdmissionMode,
    workload: &'a Workload,
    open: OpenTable<Pending>,
    ledger: Ledger<'a>,
    failure: Option<FailurePolicy>,
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
            admission,
            workload,
            open: OpenTable::new(),
            ledger: Ledger::new(ensemble, assembler, workload),
            failure: None,
        }
    }

    /// Emits decision events into `trace`; never alters a decision.
    pub fn with_trace(mut self, trace: Arc<TraceSink>) -> Self {
        self.ledger.trace = trace;
        self
    }

    /// Sets the retry/degradation policy used when tasks fail.
    pub fn with_failure(mut self, policy: Option<FailurePolicy>) -> Self {
        self.failure = policy;
        self
    }

    /// Consumes the engine, aggregating per-instance usage into per-model
    /// usage through the deployment map.
    pub fn into_summary(self, usage: Vec<ExecutorUsage>) -> RunSummary {
        assert!(self.open.is_empty(), "drained with pending queries");
        self.ledger.into_summary(self.deployment, usage)
    }

    /// The least-loaded live instance of base model `k`.
    fn live_instance(
        &self,
        k: usize,
        now: SimTime,
        backend: &dyn ExecutionBackend,
    ) -> Option<usize> {
        self.deployment
            .instances_of(k)
            .filter(|&inst| backend.is_up(inst))
            .min_by_key(|&inst| backend.available_at(inst, now))
    }

    fn on_arrival(&mut self, i: usize, now: SimTime, backend: &mut dyn ExecutionBackend) {
        let query = &self.workload.queries[i];
        self.ledger.arrival(query, now);
        let set = self.policy.select(query, self.ensemble);
        assert!(!set.is_empty(), "policy must select at least one model");
        // Choose the least-loaded *live* instance per selected model; a
        // model whose every instance is down drops out of the set up front.
        let mut usable = ModelSet::EMPTY;
        let mut chosen: Vec<usize> = Vec::with_capacity(set.len());
        for k in set.iter() {
            assert!(
                self.deployment.hosts.contains(&k),
                "deployment hosts no instance of model {k}"
            );
            if let Some(inst) = self.live_instance(k, now, backend) {
                usable = usable.with(k);
                chosen.push(inst);
            }
        }
        // Refused when every selected model is down or, in Reject mode,
        // when the slowest chosen queue cannot make the deadline.
        let late = |&inst: &usize| {
            backend.available_at(inst, now)
                + self.ensemble.latency(self.deployment.hosts[inst]).planned()
                > query.deadline
        };
        if usable.is_empty() || (self.admission == AdmissionMode::Reject && chosen.iter().any(late))
        {
            self.ledger.rejected(query.id, now);
            return;
        }
        self.ledger.admission(query.id, AdmissionVerdict::Selected { set: usable.0 }, now);
        self.ledger.records[i].models_used = usable.len();
        // Serving fewer models than the policy asked for is already a
        // degraded answer, even before any task runs.
        let fault = FaultBook { degraded: usable != set, ..FaultBook::default() };
        self.open.admit(Pending { id: query.id, set: usable, outputs: Vec::new(), fault });
        for &inst in &chosen {
            backend.enqueue_task(inst, query.id, now);
        }
    }

    fn on_task_done(&mut self, executor: usize, query: u64, now: SimTime) {
        let model = self.deployment.hosts[executor];
        let sample = &self.workload.queries[query as usize].sample;
        let pos = self.open.position(query).expect("completion for unknown query");
        let output = self.ensemble.models[model].infer(sample, &self.ensemble.spec);
        self.open[pos].outputs.push((model, output));
        self.settle(pos, now);
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
        self.ledger.task_failed();
        let policy = self.failure.unwrap_or_default();
        let model = self.deployment.hosts[executor];
        let Some(pos) = self.open.position(query) else { return };
        let attempt = self.open[pos].fault.fail(model, self.ensemble.m());
        let target = (u32::from(attempt) <= policy.max_retries)
            .then(|| self.live_instance(model, now, backend))
            .flatten();
        match target {
            Some(inst) => {
                self.ledger.retried(query, inst, attempt, now);
                backend.enqueue_task(inst, query, now);
            }
            None => {
                let entry = &mut self.open[pos];
                entry.set = entry.set.without(model);
                entry.fault.degraded = true;
                self.settle(pos, now);
            }
        }
    }

    /// Takes the query at table position `pos` off the table and closes it
    /// in the ledger once every model left in its set has reported.
    fn settle(&mut self, pos: usize, now: SimTime) {
        if self.open[pos].outputs.len() != self.open[pos].set.len() {
            return;
        }
        let done = self.open.remove(pos);
        let q = &self.workload.queries[done.id as usize];
        self.ledger.close(q, done.set, done.outputs, done.fault.degraded, now);
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
                self.ledger.fault_seen();
            }
            BackendEvent::Wake => {}
        }
    }

    fn open_count(&self) -> usize {
        self.open.len()
    }

    fn next_wake_hint(&self, _now: SimTime) -> Option<SimTime> {
        // Immediate pipelines admit or reject at arrival and never expire
        // in-flight work; no timers needed.
        None
    }

    fn drain(&mut self, now: SimTime) {
        // Without faults, submitted tasks always run to completion; nothing
        // can be stuck. Under faults a query may be wedged waiting on a task
        // that will never report — close it, in id order, with what it has.
        if !self.ledger.fault_mode(self.failure) {
            return;
        }
        while let Some(entry) = self.open.first_mut() {
            entry.set = produced_set(&entry.outputs);
            entry.fault.degraded = true;
            self.settle(0, now);
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
}
