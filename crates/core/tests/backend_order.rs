//! `SimBackend` surfaces events in exactly the order of one queue holding
//! everything.
//!
//! The backend keeps arrivals in a sorted lane beside its event heap and
//! merges the two. [`OneQueue`] is the reference: the same bank, but every
//! arrival pushed into the [`EventQueue`] itself, so its order is the
//! queue's own `(time, push order)`. A random run — arrivals bunched on a
//! millisecond grid, crash windows opening and closing on those same
//! instants, and tasks, wakes and batch members submitted between pops —
//! must give the same `(time, event)` sequence from both, with the same
//! `peek_time` before every pop (the steal-epoch driver cuts on it), which
//! is the popped event's own time whenever the pop has nothing silent to do
//! first.

use proptest::prelude::*;
use schemble_core::backend::{BackendEvent, ExecutionBackend, SimBackend};
use schemble_core::executor::{ExecutorBank, PassStart};
use schemble_sim::{BatchConfig, EventQueue, FaultPlan, LatencyModel, SimDuration, SimTime};

enum Timer {
    Event(BackendEvent),
    PassEnd { executor: usize, pass: u64 },
}

/// A bank timed by a single event queue that also holds the arrivals.
struct OneQueue {
    bank: ExecutorBank,
    events: EventQueue<Timer>,
    draining: Option<(usize, u64)>,
}

impl OneQueue {
    fn new(bank: ExecutorBank) -> Self {
        let mut events = EventQueue::new();
        for tr in bank.transitions() {
            let event = if tr.up {
                BackendEvent::ExecutorUp { executor: tr.executor }
            } else {
                BackendEvent::ExecutorDown { executor: tr.executor }
            };
            events.push(tr.at, Timer::Event(event));
        }
        Self { bank, events, draining: None }
    }

    fn push_arrival(&mut self, at: SimTime, index: usize) {
        self.events.push(at, Timer::Event(BackendEvent::Arrival(index)));
    }

    fn request_wake(&mut self, at: SimTime) {
        self.events.push(at, Timer::Event(BackendEvent::Wake));
    }

    fn time(&mut self, pass: Option<PassStart>) {
        if let Some(p) = pass {
            self.events.push(p.completes_at, Timer::PassEnd { executor: p.executor, pass: p.pass });
        }
    }

    fn head_time(&self) -> Option<SimTime> {
        match self.draining {
            Some(_) => Some(self.events.now()),
            None => self.events.peek_time(),
        }
    }

    fn peek_time(&self) -> Option<SimTime> {
        let head = self.head_time();
        match self.bank.next_launch_due() {
            Some((due, _)) => Some(head.map_or(due, |t| t.min(due))),
            None => head,
        }
    }

    fn pop_event(&mut self) -> Option<(SimTime, BackendEvent)> {
        loop {
            if let Some((due, k)) = self.bank.next_launch_due() {
                if self.head_time().is_none_or(|t| due <= t) {
                    let pass = self.bank.launch_batch(k, due);
                    self.time(Some(pass));
                    continue;
                }
            }
            let (now, timer) = match self.draining.take() {
                Some((executor, pass)) => (self.events.now(), Timer::PassEnd { executor, pass }),
                None => self.events.pop()?,
            };
            let event = match timer {
                Timer::PassEnd { executor, pass } => {
                    let Some(retired) = self.bank.retire(executor, pass, now) else { continue };
                    self.time(retired.next);
                    if self.bank.running_pass(executor) == Some(pass) {
                        self.draining = Some((executor, pass));
                    }
                    retired.event
                }
                Timer::Event(event) => {
                    match event {
                        BackendEvent::ExecutorDown { executor } => {
                            for &query in self.bank.crash(executor, now) {
                                let failed = BackendEvent::TaskFailed { executor, query };
                                self.events.push(now, Timer::Event(failed));
                            }
                        }
                        BackendEvent::ExecutorUp { executor } => self.bank.recover(executor, now),
                        _ => {}
                    }
                    event
                }
            };
            return Some((now, event));
        }
    }
}

const EXECUTORS: usize = 2;

fn ms(t: u64) -> SimTime {
    SimTime::from_millis(t)
}

fn bank(crashes: &[(usize, u64, u64)], batched: bool) -> ExecutorBank {
    // Whole-millisecond service times, so completions land on the grid the
    // arrivals and crash windows use and same-instant ties are the rule.
    let latencies = vec![LatencyModel::constant_millis(3.0), LatencyModel::constant_millis(5.0)];
    let mut text = String::from("transient 0.2\n");
    for &(executor, from, len) in crashes {
        text += &format!("crash {executor} {} {}\n", from as f64 / 1e3, (from + len) as f64 / 1e3);
    }
    let plan = (!crashes.is_empty()).then(|| FaultPlan::parse(&text).expect("valid plan"));
    let batching = batched.then(|| BatchConfig::new(3, SimDuration::from_millis(2)));
    ExecutorBank::new(latencies, 7, "order").with_faults(plan.as_ref(), 7).with_batching(batching)
}

/// What the script may do after a pop.
#[derive(Debug, Clone, Copy)]
enum Command {
    Nothing,
    Wake { after_ms: u64 },
    Start { executor: usize },
    Batch { executor: usize },
    Enqueue { executor: usize },
}

fn command() -> impl Strategy<Value = Command> {
    (0u8..5, 0..EXECUTORS, 0u64..4).prop_map(|(kind, executor, after_ms)| match kind {
        0 => Command::Nothing,
        1 => Command::Wake { after_ms },
        2 => Command::Start { executor },
        3 => Command::Batch { executor },
        _ => Command::Enqueue { executor },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lane_and_heap_merge_in_single_queue_order(
        arrivals in collection::vec(0u64..12, 0..25),
        unsorted in 0u8..5,
        early_wakes in collection::vec((0u64..12, 0usize..25), 0..3),
        crashes in collection::vec((0..EXECUTORS, 0u64..12, 1u64..6), 0..3),
        batched in bool::ANY,
        script in collection::vec(command(), 0..80),
    ) {
        // Mostly the documented input — sorted — and sometimes not.
        let mut arrivals = arrivals;
        if unsorted != 0 {
            arrivals.sort_unstable();
        }
        let mut lane = SimBackend::new(bank(&crashes, batched));
        let mut one = OneQueue::new(bank(&crashes, batched));
        // Wakes requested before and among the arrival pushes take sequence
        // numbers below later arrivals', and must surface ahead of them.
        for (i, &at) in arrivals.iter().enumerate() {
            for &(wake, _) in early_wakes.iter().filter(|&&(_, before)| before == i) {
                lane.request_wake(ms(wake));
                one.request_wake(ms(wake));
            }
            lane.push_arrival(ms(at), i);
            one.push_arrival(ms(at), i);
        }
        let mut script = script.into_iter();
        let mut next_query = 1000u64;
        loop {
            let peek = lane.peek_time();
            prop_assert_eq!(peek, one.peek_time());
            let popped = lane.pop_event();
            prop_assert_eq!(popped, one.pop_event());
            let Some((now, _)) = popped else { break };
            // The peeked instant is the popped one unless the pop spent it
            // on something that surfaces no event: a window-due batch
            // launch, or the stale timer of a pass a crash killed.
            prop_assert!(peek <= Some(now));
            if crashes.is_empty() && !batched {
                prop_assert_eq!(peek, Some(now));
            }
            let query = next_query;
            match script.next().unwrap_or(Command::Nothing) {
                Command::Nothing => continue,
                Command::Wake { after_ms } => {
                    let at = now + SimDuration::from_millis(after_ms);
                    lane.request_wake(at);
                    one.request_wake(at);
                }
                Command::Start { executor } => {
                    if !lane.is_idle(executor) || lane.open_batch_len(executor) > 0 {
                        continue;
                    }
                    lane.start_task(executor, query, now);
                    let pass = one.bank.start_task(executor, query, now);
                    one.time(Some(pass));
                }
                Command::Batch { executor } => {
                    if !lane.is_idle(executor) {
                        continue;
                    }
                    lane.submit_batch(executor, query, now);
                    let pass = one.bank.submit_batch(executor, query, now);
                    one.time(pass);
                }
                Command::Enqueue { executor } => {
                    if !lane.is_up(executor) || lane.open_batch_len(executor) > 0 {
                        continue;
                    }
                    lane.enqueue_task(executor, query, now);
                    let pass = one.bank.enqueue_task(executor, query, now);
                    one.time(pass);
                }
            }
            next_query += 1;
        }
        prop_assert_eq!(lane.usage(), one.bank.usage());
    }
}

#[test]
fn an_unsorted_lane_pops_in_time_then_push_order() {
    let mut b = SimBackend::new(bank(&[], false));
    for (index, at) in [5, 2, 5, 0, 2].into_iter().enumerate() {
        b.push_arrival(ms(at), index);
    }
    assert_eq!(b.peek_time(), Some(ms(0)), "the head is known before the first pop sorts");
    let order: Vec<_> = std::iter::from_fn(|| b.pop_event()).collect();
    let want = [(0, 3), (2, 1), (2, 4), (5, 0), (5, 2)];
    assert_eq!(order, want.map(|(at, index)| (ms(at), BackendEvent::Arrival(index))));
}

#[test]
#[should_panic(expected = "pushed after the first pop_event")]
fn an_arrival_pushed_after_the_first_pop_panics() {
    let mut b = SimBackend::new(bank(&[], false));
    b.push_arrival(ms(1), 0);
    b.pop_event();
    b.push_arrival(ms(2), 1);
}
