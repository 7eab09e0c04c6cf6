//! Plan explainability: reconstructing one query's causal timeline.
//!
//! [`explain_query`] folds a drained trace stream into a [`PlanExplain`]
//! record — the predicted difficulty bin, the plan lineage (every
//! re-assignment with its predicted finish and the planning pass's
//! candidate-frontier width), the task/retry/failure history, and the
//! terminal outcome with realized score. [`PlanExplain::render`] turns it
//! into the human-readable timeline the `schemble explain` subcommand
//! prints.

use schemble_sim::SimTime;
use schemble_trace::{set_members, AdmissionVerdict, TraceEvent};

/// One (re-)assignment in a query's plan lineage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssignStep {
    /// When the planning pass ran.
    pub t: SimTime,
    /// Assigned model set (bit mask; 0 = revoked).
    pub set: u32,
    /// The plan's own predicted completion instant.
    pub predicted_finish: SimTime,
    /// Candidate-frontier width of the pass (0 = untracked scheduler).
    pub frontier: u32,
}

/// One task-level step in the query's execution history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskStep {
    /// Event time.
    pub t: SimTime,
    /// Executor involved.
    pub executor: u16,
    /// What happened.
    pub kind: TaskStepKind,
}

/// Task-step discriminant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStepKind {
    /// Task began executing.
    Start,
    /// Task finished.
    Done,
    /// Task failed.
    Failed,
    /// Task was re-dispatched (`attempt` = retry number).
    Retried(u8),
    /// Task was quit early by the anytime policy.
    Quit,
}

/// This query's membership in one launched cross-query batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchStep {
    /// Launch instant.
    pub t: SimTime,
    /// Executor that ran the batched pass.
    pub executor: u16,
    /// Backend-assigned batch id.
    pub batch: u64,
    /// Total members in the batch (this query included).
    pub size: u32,
    /// The other queries co-batched into the same pass.
    pub co_queries: Vec<u64>,
    /// How long this query's task waited in the open batch before the
    /// launch, µs (the queue-wait half of its latency; the service half is
    /// the start→done span).
    pub queue_wait_us: u64,
}

/// One inter-shard transfer in a query's steal lineage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealStep {
    /// The epoch boundary the transfer resolved at.
    pub t: SimTime,
    /// Steal epoch index.
    pub epoch: u32,
    /// Shard the query left.
    pub victim: u16,
    /// Shard that adopted it.
    pub thief: u16,
}

/// How the query ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Full result assembled over `set`.
    Completed {
        /// Completion instant.
        t: SimTime,
        /// Assembled model set.
        set: u32,
    },
    /// Partial-ensemble answer over `set`.
    Degraded {
        /// Completion instant.
        t: SimTime,
        /// Assembled model set.
        set: u32,
    },
    /// Dropped after admission.
    Expired {
        /// Expiry instant.
        t: SimTime,
    },
    /// Refused at arrival.
    Rejected {
        /// Rejection instant.
        t: SimTime,
    },
    /// Still in flight when the trace ended.
    Open,
}

/// Everything the trace recorded about one query's scheduling story.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanExplain {
    /// The query.
    pub query: u64,
    /// Arrival instant.
    pub arrival: Option<SimTime>,
    /// Absolute deadline.
    pub deadline: Option<SimTime>,
    /// Admission verdict, as a stable label.
    pub admission: Option<&'static str>,
    /// Predicted difficulty bin.
    pub bin: Option<u8>,
    /// Predicted discrepancy score, ×10⁶.
    pub score_fp: Option<u32>,
    /// Plan lineage: every assignment change, oldest first.
    pub assigns: Vec<AssignStep>,
    /// Task history, oldest first.
    pub tasks: Vec<TaskStep>,
    /// Batches this query's tasks were launched in, oldest first.
    pub batches: Vec<BatchStep>,
    /// Work-steal lineage: every inter-shard transfer, oldest first (empty
    /// for the never-stolen common case, which renders unchanged).
    pub steals: Vec<StealStep>,
    /// Realized discrepancy score ×10⁶ (set on evaluation).
    pub realized_fp: Option<u32>,
    /// Whether the assembled answer was correct.
    pub correct: Option<bool>,
    /// Terminal outcome.
    pub outcome: Outcome,
}

impl PlanExplain {
    /// The shard the query was admitted on: the first steal's victim.
    /// `None` when the query was never stolen (unsharded runs, or a query
    /// that stayed home — the trace only records shard identity on
    /// transfers).
    pub fn home_shard(&self) -> Option<u16> {
        self.steals.first().map(|s| s.victim)
    }

    /// The shard that ultimately served the query: the last steal's thief.
    pub fn serving_shard(&self) -> Option<u16> {
        self.steals.last().map(|s| s.thief)
    }

    /// Deadline slack of the last plan, µs: positive means the plan expected
    /// to finish early. `None` until both a deadline and an assignment exist.
    pub fn predicted_slack_us(&self) -> Option<i64> {
        let deadline = self.deadline?;
        let last = self.assigns.last()?;
        Some(deadline.as_micros() as i64 - last.predicted_finish.as_micros() as i64)
    }

    /// Renders the timeline as indented human-readable text.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let ms = |t: SimTime| t.as_micros() as f64 / 1000.0;
        let _ = writeln!(out, "query {}", self.query);
        if let (Some(a), Some(d)) = (self.arrival, self.deadline) {
            let _ = writeln!(out, "  arrival {:.3} ms, deadline {:.3} ms", ms(a), ms(d));
        }
        if let Some(v) = self.admission {
            let _ = writeln!(out, "  admission: {v}");
        }
        if let (Some(bin), Some(fp)) = (self.bin, self.score_fp) {
            let _ =
                writeln!(out, "  predicted difficulty: bin {bin} (score {:.6})", fp as f64 / 1e6);
        }
        if let (Some(home), Some(serving)) = (self.home_shard(), self.serving_shard()) {
            let _ = writeln!(out, "  home shard {home}, served by shard {serving}");
            for s in &self.steals {
                let _ = writeln!(
                    out,
                    "  stolen @ {:.3} ms: epoch {}, shard {} -> shard {}",
                    ms(s.t),
                    s.epoch,
                    s.victim,
                    s.thief
                );
            }
        }
        for a in &self.assigns {
            let members = set_members(a.set);
            let _ = writeln!(
                out,
                "  plan @ {:.3} ms: set {:?}, predicted finish {:.3} ms, frontier {}",
                ms(a.t),
                members,
                ms(a.predicted_finish),
                a.frontier
            );
        }
        if let Some(slack) = self.predicted_slack_us() {
            let _ = writeln!(out, "  predicted deadline slack: {:.3} ms", slack as f64 / 1000.0);
        }
        for task in &self.tasks {
            let what = match task.kind {
                TaskStepKind::Start => "start".to_string(),
                TaskStepKind::Done => "done".to_string(),
                TaskStepKind::Failed => "FAILED".to_string(),
                TaskStepKind::Retried(n) => format!("retry #{n}"),
                TaskStepKind::Quit => "QUIT (anytime)".to_string(),
            };
            let _ =
                writeln!(out, "  task @ {:.3} ms: executor {} {what}", ms(task.t), task.executor);
        }
        for b in &self.batches {
            let _ = writeln!(
                out,
                "  batch #{} @ {:.3} ms: executor {}, size {}, co-batched with {:?}, queue-wait {:.3} ms",
                b.batch,
                ms(b.t),
                b.executor,
                b.size,
                b.co_queries,
                b.queue_wait_us as f64 / 1000.0
            );
        }
        if let Some(fp) = self.realized_fp {
            let _ = writeln!(
                out,
                "  realized score {:.6}, correct: {}",
                fp as f64 / 1e6,
                self.correct.unwrap_or(false)
            );
        }
        let verdict = match self.outcome {
            Outcome::Completed { t, set } => {
                format!("completed @ {:.3} ms over set {:?}", ms(t), set_members(set))
            }
            Outcome::Degraded { t, set } => {
                format!("DEGRADED @ {:.3} ms over set {:?}", ms(t), set_members(set))
            }
            Outcome::Expired { t } => format!("EXPIRED @ {:.3} ms", ms(t)),
            Outcome::Rejected { t } => format!("rejected @ {:.3} ms", ms(t)),
            Outcome::Open => "still open at end of trace".to_string(),
        };
        let _ = writeln!(out, "  outcome: {verdict}");
        out
    }
}

/// Folds `events` into one query's [`PlanExplain`]. Returns `None` if the
/// stream never mentions the query.
pub fn explain_query(events: &[TraceEvent], query: u64) -> Option<PlanExplain> {
    let mut e = PlanExplain {
        query,
        arrival: None,
        deadline: None,
        admission: None,
        bin: None,
        score_fp: None,
        assigns: Vec::new(),
        tasks: Vec::new(),
        batches: Vec::new(),
        steals: Vec::new(),
        realized_fp: None,
        correct: None,
        outcome: Outcome::Open,
    };
    let mut seen = false;
    for ev in events {
        if ev.query() != Some(query) {
            continue;
        }
        seen = true;
        match *ev {
            TraceEvent::Arrival { t, deadline, .. } => {
                e.arrival = Some(t);
                e.deadline = Some(deadline);
            }
            TraceEvent::Admission { verdict, .. } => {
                e.admission = Some(verdict.label());
                if let AdmissionVerdict::Rejected = verdict {
                    e.outcome = Outcome::Rejected { t: ev.time() };
                }
            }
            TraceEvent::Scored { bin, score_fp, .. } => {
                e.bin = Some(bin);
                e.score_fp = Some(score_fp);
            }
            TraceEvent::PlanAssign { t, set, predicted_finish, frontier, .. } => {
                e.assigns.push(AssignStep { t, set, predicted_finish, frontier });
            }
            TraceEvent::TaskEnqueue { .. } => {}
            TraceEvent::TaskStart { t, executor, .. } => {
                e.tasks.push(TaskStep { t, executor, kind: TaskStepKind::Start });
            }
            TraceEvent::TaskDone { t, executor, .. } => {
                e.tasks.push(TaskStep { t, executor, kind: TaskStepKind::Done });
            }
            TraceEvent::TaskFailed { t, executor, .. } => {
                e.tasks.push(TaskStep { t, executor, kind: TaskStepKind::Failed });
            }
            TraceEvent::TaskRetried { t, executor, attempt, .. } => {
                e.tasks.push(TaskStep { t, executor, kind: TaskStepKind::Retried(attempt) });
            }
            TraceEvent::Realized { score_fp, correct, .. } => {
                e.realized_fp = Some(score_fp);
                e.correct = Some(correct);
            }
            TraceEvent::QueryDone { t, set, .. } => e.outcome = Outcome::Completed { t, set },
            TraceEvent::DegradedAnswer { t, set, .. } => e.outcome = Outcome::Degraded { t, set },
            TraceEvent::QueryExpired { t, .. } => e.outcome = Outcome::Expired { t },
            TraceEvent::TaskQuit { t, executor, .. } => {
                e.tasks.push(TaskStep { t, executor, kind: TaskStepKind::Quit });
            }
            TraceEvent::QueryStolen { t, epoch, victim, thief, arrival, deadline, bin, .. } => {
                e.steals.push(StealStep { t, epoch, victim, thief });
                // A thief-side stream may never have seen the victim's
                // Arrival/Scored; the steal carries the admission state.
                e.arrival.get_or_insert(arrival);
                e.deadline.get_or_insert(deadline);
                e.bin.get_or_insert(bin);
            }
            // The per-decision summary adds nothing beyond its TaskQuit events.
            TraceEvent::WorkSaved { .. } => {}
            // Carries no query id; membership is recovered in the second
            // pass below from the shared (executor, launch-instant) key.
            TraceEvent::BatchFormed { .. } => {}
            TraceEvent::Plan { .. }
            | TraceEvent::ExecutorDown { .. }
            | TraceEvent::ExecutorUp { .. } => {}
        }
    }
    if !seen {
        return None;
    }
    // Batch membership: a launch emits every member's TaskStart and then one
    // BatchFormed, all at the launch instant on the launching executor — so
    // a BatchFormed sharing (executor, t) with one of this query's starts is
    // a batch containing it, and the other starts at that key are its
    // co-members. Queue-wait is measured from the member's TaskEnqueue.
    let starts: Vec<(SimTime, u16)> = e
        .tasks
        .iter()
        .filter(|s| s.kind == TaskStepKind::Start)
        .map(|s| (s.t, s.executor))
        .collect();
    for ev in events {
        if let TraceEvent::BatchFormed { t, executor, batch, size } = *ev {
            if !starts.contains(&(t, executor)) {
                continue;
            }
            let co_queries: Vec<u64> = events
                .iter()
                .filter_map(|other| match *other {
                    TraceEvent::TaskStart { t: t2, query: q2, executor: k2 }
                        if t2 == t && k2 == executor && q2 != query =>
                    {
                        Some(q2)
                    }
                    _ => None,
                })
                .collect();
            let queue_wait_us = events
                .iter()
                .filter_map(|other| match *other {
                    TraceEvent::TaskEnqueue { t: t2, query: q2, executor: k2 }
                        if q2 == query && k2 == executor && t2 <= t =>
                    {
                        Some(t2)
                    }
                    _ => None,
                })
                .max()
                .map_or(0, |t0| t.saturating_since(t0).as_micros());
            e.batches.push(BatchStep { t, executor, batch, size, co_queries, queue_wait_us });
        }
    }
    Some(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn story() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Arrival { t: at(0), query: 3, deadline: at(100) },
            TraceEvent::Admission { t: at(0), query: 3, verdict: AdmissionVerdict::Buffered },
            TraceEvent::Scored { t: at(0), query: 3, bin: 2, score_fp: 612_500 },
            TraceEvent::PlanAssign {
                t: at(1),
                query: 3,
                set: 0b11,
                predicted_finish: at(60),
                frontier: 12,
            },
            TraceEvent::TaskStart { t: at(2), query: 3, executor: 0 },
            TraceEvent::TaskFailed { t: at(10), query: 3, executor: 0 },
            TraceEvent::TaskRetried { t: at(15), query: 3, executor: 0, attempt: 1 },
            TraceEvent::PlanAssign {
                t: at(20),
                query: 3,
                set: 0b01,
                predicted_finish: at(80),
                frontier: 9,
            },
            TraceEvent::TaskStart { t: at(20), query: 3, executor: 0 },
            TraceEvent::TaskDone { t: at(70), query: 3, executor: 0 },
            TraceEvent::Realized { t: at(70), query: 3, score_fp: 550_000, correct: true },
            TraceEvent::DegradedAnswer { t: at(70), query: 3, set: 0b01 },
            // Noise from other queries must be ignored.
            TraceEvent::Arrival { t: at(5), query: 4, deadline: at(50) },
            TraceEvent::QueryExpired { t: at(50), query: 4 },
        ]
    }

    #[test]
    fn unknown_query_yields_none_not_an_empty_timeline() {
        // The CLI maps `None` to a non-zero exit with a clear error; a
        // `Some` with an empty timeline would silently exit 0 instead.
        assert!(explain_query(&story(), 99).is_none());
        assert!(explain_query(&[], 0).is_none());
    }

    #[test]
    fn reconstructs_the_full_lineage() {
        let e = explain_query(&story(), 3).expect("query 3 is in the stream");
        assert_eq!(e.arrival, Some(at(0)));
        assert_eq!(e.deadline, Some(at(100)));
        assert_eq!(e.admission, Some("buffered"));
        assert_eq!(e.bin, Some(2));
        assert_eq!(e.assigns.len(), 2);
        assert_eq!(e.assigns[1].set, 0b01);
        assert_eq!(e.assigns[1].frontier, 9);
        assert_eq!(e.predicted_slack_us(), Some(20_000), "deadline 100ms − finish 80ms");
        assert_eq!(e.tasks.len(), 5, "start, fail, retry, restart, done");
        assert_eq!(e.tasks[1].kind, TaskStepKind::Failed);
        assert_eq!(e.realized_fp, Some(550_000));
        assert_eq!(e.outcome, Outcome::Degraded { t: at(70), set: 0b01 });
    }

    #[test]
    fn render_mentions_every_section() {
        let e = explain_query(&story(), 3).unwrap();
        let text = e.render();
        for needle in [
            "query 3",
            "deadline 100.000 ms",
            "bin 2",
            "frontier 12",
            "predicted deadline slack: 20.000 ms",
            "retry #1",
            "DEGRADED",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn batch_membership_is_recovered_from_the_shared_launch_instant() {
        let events = vec![
            TraceEvent::Arrival { t: at(0), query: 7, deadline: at(100) },
            TraceEvent::TaskEnqueue { t: at(1), query: 7, executor: 2 },
            TraceEvent::TaskEnqueue { t: at(2), query: 8, executor: 2 },
            // Launch at 3ms: both members start, then the batch marker.
            TraceEvent::TaskStart { t: at(3), query: 7, executor: 2 },
            TraceEvent::TaskStart { t: at(3), query: 8, executor: 2 },
            TraceEvent::BatchFormed { t: at(3), executor: 2, batch: 5, size: 2 },
            // An unrelated batch on another executor must not attach.
            TraceEvent::TaskStart { t: at(3), query: 9, executor: 0 },
            TraceEvent::BatchFormed { t: at(3), executor: 0, batch: 6, size: 1 },
            TraceEvent::TaskDone { t: at(10), query: 7, executor: 2 },
            TraceEvent::QueryDone { t: at(10), query: 7, set: 0b100 },
        ];
        let e = explain_query(&events, 7).expect("query 7 is in the stream");
        assert_eq!(e.batches.len(), 1);
        let b = &e.batches[0];
        assert_eq!((b.batch, b.size, b.executor), (5, 2, 2));
        assert_eq!(b.co_queries, vec![8]);
        assert_eq!(b.queue_wait_us, 2_000, "enqueued at 1ms, launched at 3ms");
        let text = e.render();
        assert!(text.contains("batch #5"), "render shows membership:\n{text}");
        assert!(text.contains("co-batched with [8]"), "{text}");
        assert!(text.contains("queue-wait 2.000 ms"), "{text}");
    }

    #[test]
    fn never_stolen_query_renders_unchanged() {
        // The steal-aware renderer must not add a single byte for a query
        // with no steal lineage: same fold, same render as a hand-built
        // explain with the steal fields absent.
        let e = explain_query(&story(), 3).unwrap();
        assert!(e.steals.is_empty());
        assert_eq!(e.home_shard(), None);
        assert_eq!(e.serving_shard(), None);
        let text = e.render();
        assert!(!text.contains("shard"), "no shard lines for a never-stolen query:\n{text}");
        assert!(!text.contains("stolen"), "{text}");
        let mut stripped = e.clone();
        stripped.steals = Vec::new();
        assert_eq!(stripped.render(), text);
    }

    #[test]
    fn steal_lineage_shows_home_and_serving_shard() {
        let mut events = story();
        events.insert(
            4,
            TraceEvent::QueryStolen {
                t: at(1),
                query: 3,
                epoch: 1,
                victim: 2,
                thief: 0,
                victim_depth: 7,
                thief_depth: 1,
                arrival: at(0),
                deadline: at(100),
                bin: 2,
                score_fp: 612_500,
            },
        );
        let e = explain_query(&events, 3).unwrap();
        assert_eq!(e.steals.len(), 1);
        assert_eq!(e.home_shard(), Some(2));
        assert_eq!(e.serving_shard(), Some(0));
        let text = e.render();
        assert!(text.contains("home shard 2, served by shard 0"), "{text}");
        assert!(text.contains("stolen @ 1.000 ms: epoch 1, shard 2 -> shard 0"), "{text}");

        // Thief-only stream (no Arrival): the steal seeds the admission
        // state so the timeline still has an arrival and deadline.
        let thief_stream =
            vec![events[4], TraceEvent::QueryDone { t: at(70), query: 3, set: 0b01 }];
        let t = explain_query(&thief_stream, 3).unwrap();
        assert_eq!(t.arrival, Some(at(0)));
        assert_eq!(t.deadline, Some(at(100)));
        assert_eq!(t.bin, Some(2));
    }

    #[test]
    fn absent_queries_and_expiries_are_reported() {
        assert_eq!(explain_query(&story(), 99), None);
        let e = explain_query(&story(), 4).unwrap();
        assert_eq!(e.outcome, Outcome::Expired { t: at(50) });
        assert_eq!(e.predicted_slack_us(), None, "no plan ever assigned");
    }
}
