//! Property test of the executor bank: random command sequences against a
//! small reference model.
//!
//! The model knows only *where each task is* (a backlog, an open batch, a
//! running pass, or ended) and what the bank has told it (pass ids,
//! durations, finish times). Task ids grow with submission, so id order is
//! submission order. From that it checks, after every command: every
//! submitted task ends exactly once (done, failed, cancelled or crash
//! casualty); an executor runs at most one pass; backlogs and batches retire
//! in submission order; `available_at` is the rest of the pass plus the
//! backlog (plus the batch-join quote); busy time is the sum of charged pass
//! time and never exceeds the time elapsed; a stale pass id changes nothing.

use proptest::prelude::*;
use schemble_core::backend::BackendEvent;
use schemble_core::executor::{ExecutorBank, PassStart};
use schemble_sim::{BatchConfig, FaultPlan, LatencyModel, SimDuration, SimTime};

const WINDOW: SimDuration = SimDuration::from_millis(2);

fn planned(executor: usize) -> SimDuration {
    SimDuration::from_millis(5 + 3 * executor as u64)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Place {
    Backlog(usize),
    Open(usize),
    Running(usize),
    Ended,
}

struct Model {
    bank: ExecutorBank,
    batching: Option<BatchConfig>,
    /// No fault plan: every drawn duration is exactly the model latency.
    exact: bool,
    now: SimTime,
    /// Where each submitted task is, indexed by task id.
    place: Vec<Place>,
    /// The running pass per executor, and whether it is a batch.
    pass: Vec<Option<(PassStart, bool)>>,
    opened_at: Vec<SimTime>,
    busy: Vec<SimDuration>,
    completed: u64,
    /// Tasks that began executing, batch members counted one by one.
    ran: u64,
    /// Every pass ever started, live or long dead.
    timers: Vec<PassStart>,
}

impl Model {
    fn new(executors: usize, batch_max: usize, faults: bool, seed: u64) -> Self {
        let jitter = if faults { 0.2 } else { 0.0 };
        let latencies = (0..executors)
            .map(|k| LatencyModel::jittered_millis(planned(k).as_millis_f64(), jitter))
            .collect();
        let config = BatchConfig::new(batch_max, WINDOW);
        let plan = FaultPlan::parse("transient 0.3\nstraggle 0 0 0.05 2.5\ntimeout-q 0.9").unwrap();
        let bank = ExecutorBank::new(latencies, seed, "prop")
            .with_batching(Some(config))
            .with_faults(faults.then_some(&plan), seed);
        Self {
            bank,
            batching: config.active().then_some(config),
            exact: !faults,
            now: SimTime::ZERO,
            place: Vec::new(),
            pass: vec![None; executors],
            opened_at: vec![SimTime::ZERO; executors],
            busy: vec![SimDuration::ZERO; executors],
            completed: 0,
            ran: 0,
            timers: Vec::new(),
        }
    }

    /// Tasks at `place`, in submission order.
    fn at(&self, place: Place) -> Vec<u64> {
        (0..self.place.len()).filter(|&t| self.place[t] == place).map(|t| t as u64).collect()
    }

    fn new_task(&mut self, place: Place) -> u64 {
        self.place.push(place);
        self.place.len() as u64 - 1
    }

    fn end(&mut self, task: u64) {
        assert_ne!(self.place[task as usize], Place::Ended, "task {task} ended twice");
        self.place[task as usize] = Place::Ended;
    }

    fn started(&mut self, pass: PassStart, members: &[u64], batched: bool) {
        let k = pass.executor;
        assert!(self.pass[k].is_none(), "second pass on executor {k}");
        assert_eq!(pass.completes_at, self.now + pass.duration);
        if self.exact {
            let curve = self.batching.map(|c| c.curve).unwrap_or_default();
            assert_eq!(pass.duration, curve.scale(planned(k), members.len()));
        }
        for &task in members {
            self.place[task as usize] = Place::Running(k);
        }
        self.ran += members.len() as u64;
        self.timers.push(pass);
        self.pass[k] = Some((pass, batched));
    }

    /// The bank reported what it started from `k`'s backlog: its head, if
    /// the executor is up and has one.
    fn started_next(&mut self, k: usize, pass: Option<PassStart>) {
        let head = self.at(Place::Backlog(k)).first().copied().filter(|_| self.bank.is_up(k));
        assert_eq!(pass.is_some(), head.is_some(), "backlog head on executor {k}");
        if let (Some(pass), Some(head)) = (pass, head) {
            self.started(pass, &[head], false);
        }
    }

    /// Charges what a pass killed now has spent, as the bank must, and
    /// returns the members it still held.
    fn kill(&mut self, k: usize) -> Vec<u64> {
        let Some((pass, _)) = self.pass[k].take() else { return Vec::new() };
        let started_at =
            SimTime::from_micros(pass.completes_at.as_micros() - pass.duration.as_micros());
        self.busy[k] = self.busy[k] + pass.duration.min(self.now.saturating_since(started_at));
        self.at(Place::Running(k))
    }

    fn submit(&mut self, k: usize, enqueue: bool) {
        if !self.bank.is_up(k) {
            return;
        }
        if let Some(cfg) = self.batching {
            if !self.bank.is_idle(k) {
                return;
            }
            if self.at(Place::Open(k)).is_empty() {
                self.opened_at[k] = self.now;
            }
            let task = self.new_task(Place::Open(k));
            let launched = self.bank.submit_batch(k, task, self.now);
            let members = self.at(Place::Open(k));
            assert_eq!(launched.is_some(), members.len() >= cfg.batch_max);
            if let Some(pass) = launched {
                self.started(pass, &members, true);
            }
        } else if enqueue {
            let task = self.new_task(Place::Backlog(k));
            let pass = self.bank.enqueue_task(k, task, self.now);
            assert_eq!(pass.is_some(), self.pass[k].is_none());
            if pass.is_some() {
                self.started_next(k, pass);
            }
        } else if self.bank.is_idle(k) {
            let task = self.new_task(Place::Running(k));
            // Inactive batching: `submit_batch` must be `start_task`.
            let pass = if task & 1 == 0 {
                self.bank.start_task(k, task, self.now)
            } else {
                self.bank.submit_batch(k, task, self.now).expect("a batch of one launches")
            };
            self.started(pass, &[task], false);
        }
    }

    fn launch_due(&mut self) {
        while let Some((due, k)) = self.bank.next_launch_due() {
            assert_eq!(due, self.opened_at[k] + WINDOW);
            if due > self.now {
                return;
            }
            let pass = self.bank.launch_batch(k, self.now);
            let members = self.at(Place::Open(k));
            self.started(pass, &members, true);
        }
        let open = self.place.iter().any(|p| matches!(p, Place::Open(_)));
        assert!(!open, "an open batch with no launch deadline");
    }

    /// Fires the timer of `pass`, live or stale.
    fn fire(&mut self, pass: PassStart) {
        let k = pass.executor;
        if self.pass[k].map(|(p, _)| p.pass) != Some(pass.pass) {
            let before = self.snapshot();
            assert_eq!(self.bank.retire(k, pass.pass, self.now), None, "stale timer retired");
            assert_eq!(before, self.snapshot(), "stale timer changed state");
            return;
        }
        self.now = self.now.max(pass.completes_at);
        let members = self.at(Place::Running(k));
        for (i, &task) in members.iter().enumerate() {
            assert_eq!(self.bank.running_pass(k), Some(pass.pass), "freed before its last member");
            let retired = self.bank.retire(k, pass.pass, self.now).expect("live pass");
            match retired.event {
                BackendEvent::TaskDone { executor, query } => {
                    assert_eq!((executor, query), (k, task), "retired out of order");
                    self.completed += 1;
                }
                BackendEvent::TaskFailed { executor, query } => {
                    assert_eq!((executor, query), (k, task), "retired out of order");
                    assert!(!self.exact, "failure without a fault plan");
                }
                other => panic!("retire surfaced {other:?}"),
            }
            self.end(task);
            if i + 1 == members.len() {
                self.busy[k] = self.busy[k] + pass.duration;
                self.pass[k] = None;
                self.started_next(k, retired.next);
            } else {
                assert_eq!(retired.next, None);
            }
        }
        assert_eq!(self.bank.retire(k, pass.pass, self.now), None, "a retired pass is stale");
    }

    fn cancel(&mut self, k: usize, task: u64) {
        let open = self.place[task as usize] == Place::Open(k);
        let runs_alone = self.place[task as usize] == Place::Running(k)
            && self.pass[k].is_some_and(|(_, batched)| !batched);
        let (cancelled, next) = self.bank.cancel_task(k, task, self.now);
        assert_eq!(cancelled, open || runs_alone, "cancel verdict for task {task}");
        if cancelled {
            self.end(task);
        }
        if runs_alone {
            self.kill(k);
            self.started_next(k, next);
        } else {
            assert_eq!(next, None);
        }
    }

    fn crash_or_recover(&mut self, k: usize) {
        if !self.bank.is_up(k) {
            return self.bank.recover(k, self.now);
        }
        let mut lost = self.kill(k);
        lost.extend(self.at(Place::Backlog(k)));
        lost.extend(self.at(Place::Open(k)));
        assert_eq!(self.bank.crash(k, self.now), &lost[..]);
        for task in lost {
            self.end(task);
        }
    }

    fn snapshot(&self) -> Vec<(Option<u64>, usize, usize, bool, SimDuration, u64)> {
        let b = &self.bank;
        (0..b.executors())
            .map(|k| {
                let held = (b.backlog_len(k), b.open_batch_len(k));
                (b.running_pass(k), held.0, held.1, b.is_up(k), b.busy(k), b.tasks(k))
            })
            .collect()
    }

    fn check(&self) {
        let b = &self.bank;
        for k in 0..b.executors() {
            let pass = self.pass[k].map(|(p, _)| p);
            let (backlog, open) = (self.at(Place::Backlog(k)), self.at(Place::Open(k)));
            assert_eq!(b.running_pass(k), pass.map(|p| p.pass));
            assert_eq!(b.is_idle(k), b.is_up(k) && pass.is_none());
            assert_eq!((b.backlog_len(k), b.open_batch_len(k)), (backlog.len(), open.len()));
            assert_eq!(b.busy(k), self.busy[k], "busy time is the sum of charged pass time");
            assert!(b.busy(k) <= self.now.saturating_since(SimTime::ZERO), "busier than elapsed");
            let rest = pass.map_or(self.now, |p| p.completes_at.max(self.now));
            let at = b.available_at(k, self.now);
            assert!(at >= rest);
            if self.exact {
                let mut expect = rest;
                for _ in &backlog {
                    expect += planned(k);
                }
                if let (Some(cfg), false) = (self.batching, open.is_empty()) {
                    let joined = cfg.curve.gamma(open.len() + 1) - 1.0;
                    let marginal = (planned(k).as_micros() as f64 * joined).round() as u64;
                    let quote = self.opened_at[k] + WINDOW + SimDuration::from_micros(marginal);
                    expect = expect.max(quote);
                }
                assert_eq!(at, expect, "available_at on executor {k}");
            }
        }
        let tasks: u64 = (0..b.executors()).map(|k| b.tasks(k)).sum();
        assert_eq!((tasks, b.counters().completed), (self.completed, self.completed));
        assert_eq!(b.counters().started, self.ran);
    }

    /// Lets everything in flight finish: afterwards every task has ended.
    fn drain(&mut self) {
        while !self.bank.all_idle() {
            for k in 0..self.bank.executors() {
                if !self.bank.is_up(k) {
                    self.bank.recover(k, self.now);
                }
                if let Some((pass, _)) = self.pass[k] {
                    self.fire(pass);
                }
            }
            self.now += WINDOW;
            self.launch_due();
            self.check();
        }
        assert!(self.place.iter().all(|&p| p == Place::Ended), "a task never ended");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_command_sequences_keep_every_invariant(
        seed in 0u64..1_000,
        executors in 1usize..4,
        batch_max in 1usize..4,
        faults in proptest::bool::ANY,
        commands in proptest::collection::vec((0u8..10, 0usize..3, 0u64..1_000, 0u64..4_000), 1..160),
    ) {
        let mut m = Model::new(executors, batch_max, faults, seed);
        for (op, k, pick, dt_us) in commands {
            m.now += SimDuration::from_micros(dt_us);
            let k = k % executors;
            match op {
                0..=2 => m.submit(k, false),
                3 | 4 => m.submit(k, true),
                5 | 6 if !m.timers.is_empty() => {
                    let pass = m.timers[pick as usize % m.timers.len()];
                    m.fire(pass);
                }
                7 if !m.place.is_empty() => m.cancel(k, pick % m.place.len() as u64),
                8 => m.crash_or_recover(k),
                _ => m.launch_due(),
            }
            m.check();
        }
        m.drain();
    }
}
