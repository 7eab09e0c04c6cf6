//! The post-mortem flight recorder.
//!
//! A bounded ring of the most recent trace events, fed through the sink's
//! [`EventTap`] so it sees the stream even when the main trace ring is
//! disabled. Unlike [`TraceSink`] (which drops *new* events when full), the
//! recorder overwrites the *oldest* — a post-mortem wants the moments before
//! the failure, not the start of the run.
//!
//! The recorder trips at most once, on the first of:
//!
//! * **SLO breach** — the tap has counted `breach_expired` query expiries;
//! * **wedge** — the serve runtime's watchdog declared the run stalled;
//! * **worker panic** — a worker thread died and was reaped.
//!
//! Once tripped, [`FlightRecorder::dump_json`] renders the ring plus the
//! trip context as a single JSON document (validated in tests and CI by the
//! repo's hand-rolled `schemble_trace::json::validate`).
//!
//! [`TraceSink`]: schemble_trace::TraceSink
//! [`EventTap`]: schemble_trace::EventTap

use schemble_trace::json::escape;
use schemble_trace::{EventTap, TraceEvent};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Mutex;

/// Why the recorder tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TripReason {
    /// The expiry count crossed the configured SLO-breach threshold.
    SloBreach,
    /// The runtime's wedge watchdog fired (no progress across timeouts).
    Wedge,
    /// A worker thread panicked and was reaped.
    WorkerPanic,
}

impl TripReason {
    /// Stable label used in the dump.
    pub fn as_str(self) -> &'static str {
        match self {
            TripReason::SloBreach => "slo-breach",
            TripReason::Wedge => "wedge",
            TripReason::WorkerPanic => "worker-panic",
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    ring: VecDeque<TraceEvent>,
    /// Events overwritten because the ring was full.
    overwritten: u64,
    /// `QueryExpired` events seen.
    expired: u64,
    reason: Option<TripReason>,
}

/// A lock-light bounded flight recorder (one short mutex hold per event, or
/// per batch through [`EventTap::on_events`]).
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    breach_expired: Option<u64>,
    tripped: AtomicBool,
    inner: Mutex<Inner>,
}

impl FlightRecorder {
    /// A recorder retaining the most recent `capacity` events; `breach_expired`
    /// arms the SLO-breach trip at that many query expiries (`None` = never).
    pub fn new(capacity: usize, breach_expired: Option<u64>) -> Self {
        Self {
            capacity: capacity.max(1),
            breach_expired,
            tripped: AtomicBool::new(false),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panicking worker mid-record must not poison the post-mortem path.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Trips the recorder; the first reason wins. Returns whether this call
    /// set it.
    pub fn trip(&self, reason: TripReason) -> bool {
        let mut g = self.lock();
        if g.reason.is_some() {
            return false;
        }
        g.reason = Some(reason);
        self.tripped.store(true, Relaxed);
        true
    }

    /// The trip reason, if the recorder has tripped.
    pub fn tripped(&self) -> Option<TripReason> {
        if !self.tripped.load(Relaxed) {
            return None;
        }
        self.lock().reason
    }

    /// Events currently retained (oldest first).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock().ring.iter().copied().collect()
    }

    /// Renders the ring plus trip context as one JSON document.
    pub fn dump_json(&self) -> String {
        let g = self.lock();
        let mut out = String::with_capacity(64 + g.ring.len() * 96);
        out.push_str("{\"reason\":");
        match g.reason {
            Some(r) => {
                out.push('"');
                out.push_str(r.as_str());
                out.push('"');
            }
            None => out.push_str("null"),
        }
        out.push_str(&format!(
            ",\"expired\":{},\"overwritten\":{},\"events\":[",
            g.expired, g.overwritten
        ));
        for (i, ev) in g.ring.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&event_json(ev));
        }
        out.push_str("]}");
        out
    }
}

impl EventTap for FlightRecorder {
    fn on_event(&self, event: TraceEvent) {
        self.on_events(std::slice::from_ref(&event));
    }

    /// One lock for the whole batch. Expiries are counted in order, so a
    /// breach trips at the same event; then only the last `capacity` events
    /// are kept and the rest counted as overwritten — the state one
    /// [`on_event`](EventTap::on_event) per event leaves.
    fn on_events(&self, events: &[TraceEvent]) {
        let mut g = self.lock();
        for event in events {
            if let TraceEvent::QueryExpired { .. } = event {
                g.expired += 1;
                let breached = self.breach_expired.is_some_and(|at| g.expired >= at);
                if breached && g.reason.is_none() {
                    g.reason = Some(TripReason::SloBreach);
                    self.tripped.store(true, Relaxed);
                }
            }
        }
        let kept = &events[events.len().saturating_sub(self.capacity)..];
        let evicted = (g.ring.len() + kept.len()).saturating_sub(self.capacity);
        g.ring.drain(..evicted);
        g.overwritten += (evicted + events.len() - kept.len()) as u64;
        g.ring.extend(kept);
    }
}

/// One trace event as a self-describing JSON object (integer fields only, so
/// the encoding is exact).
pub fn event_json(ev: &TraceEvent) -> String {
    use schemble_trace::AdmissionVerdict as V;
    let t = ev.time().as_micros();
    match *ev {
        TraceEvent::Arrival { query, deadline, .. } => format!(
            "{{\"type\":\"arrival\",\"t_us\":{t},\"query\":{query},\"deadline_us\":{}}}",
            deadline.as_micros()
        ),
        TraceEvent::Admission { query, verdict, .. } => {
            let extra = match verdict {
                V::FastPath { executor } => format!(",\"executor\":{executor}"),
                V::Selected { set } => format!(",\"set\":{set}"),
                V::Buffered | V::Rejected => String::new(),
            };
            format!(
                "{{\"type\":\"admission\",\"t_us\":{t},\"query\":{query},\"verdict\":\"{}\"{extra}}}",
                escape(verdict.label())
            )
        }
        TraceEvent::Plan { buffer, scheduled, work, cost, .. } => format!(
            "{{\"type\":\"plan\",\"t_us\":{t},\"buffer\":{buffer},\"scheduled\":{scheduled},\"work\":{work},\"cost_us\":{}}}",
            cost.as_micros()
        ),
        TraceEvent::TaskEnqueue { query, executor, .. } => format!(
            "{{\"type\":\"task-enqueue\",\"t_us\":{t},\"query\":{query},\"executor\":{executor}}}"
        ),
        TraceEvent::TaskStart { query, executor, .. } => format!(
            "{{\"type\":\"task-start\",\"t_us\":{t},\"query\":{query},\"executor\":{executor}}}"
        ),
        TraceEvent::TaskDone { query, executor, .. } => format!(
            "{{\"type\":\"task-done\",\"t_us\":{t},\"query\":{query},\"executor\":{executor}}}"
        ),
        TraceEvent::QueryDone { query, set, .. } => {
            format!("{{\"type\":\"query-done\",\"t_us\":{t},\"query\":{query},\"set\":{set}}}")
        }
        TraceEvent::QueryExpired { query, .. } => {
            format!("{{\"type\":\"query-expired\",\"t_us\":{t},\"query\":{query}}}")
        }
        TraceEvent::TaskFailed { query, executor, .. } => format!(
            "{{\"type\":\"task-failed\",\"t_us\":{t},\"query\":{query},\"executor\":{executor}}}"
        ),
        TraceEvent::TaskRetried { query, executor, attempt, .. } => format!(
            "{{\"type\":\"task-retried\",\"t_us\":{t},\"query\":{query},\"executor\":{executor},\"attempt\":{attempt}}}"
        ),
        TraceEvent::ExecutorDown { executor, .. } => {
            format!("{{\"type\":\"executor-down\",\"t_us\":{t},\"executor\":{executor}}}")
        }
        TraceEvent::ExecutorUp { executor, .. } => {
            format!("{{\"type\":\"executor-up\",\"t_us\":{t},\"executor\":{executor}}}")
        }
        TraceEvent::DegradedAnswer { query, set, .. } => {
            format!("{{\"type\":\"degraded\",\"t_us\":{t},\"query\":{query},\"set\":{set}}}")
        }
        TraceEvent::Scored { query, bin, score_fp, .. } => format!(
            "{{\"type\":\"scored\",\"t_us\":{t},\"query\":{query},\"bin\":{bin},\"score_fp\":{score_fp}}}"
        ),
        TraceEvent::PlanAssign { query, set, predicted_finish, frontier, .. } => format!(
            "{{\"type\":\"plan-assign\",\"t_us\":{t},\"query\":{query},\"set\":{set},\"predicted_finish_us\":{},\"frontier\":{frontier}}}",
            predicted_finish.as_micros()
        ),
        TraceEvent::Realized { query, score_fp, correct, .. } => format!(
            "{{\"type\":\"realized\",\"t_us\":{t},\"query\":{query},\"score_fp\":{score_fp},\"correct\":{correct}}}"
        ),
        TraceEvent::TaskQuit { query, executor, .. } => format!(
            "{{\"type\":\"task-quit\",\"t_us\":{t},\"query\":{query},\"executor\":{executor}}}"
        ),
        TraceEvent::WorkSaved { query, saved, .. } => {
            format!("{{\"type\":\"work-saved\",\"t_us\":{t},\"query\":{query},\"saved\":{saved}}}")
        }
        TraceEvent::BatchFormed { executor, batch, size, .. } => format!(
            "{{\"type\":\"batch-formed\",\"t_us\":{t},\"executor\":{executor},\"batch\":{batch},\"size\":{size}}}"
        ),
        TraceEvent::QueryStolen { query, epoch, victim, thief, .. } => format!(
            "{{\"type\":\"query-stolen\",\"t_us\":{t},\"query\":{query},\"epoch\":{epoch},\"victim\":{victim},\"thief\":{thief}}}"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use schemble_sim::{SimDuration, SimTime};
    use schemble_trace::json::validate;
    use schemble_trace::TraceSink;
    use std::sync::Arc;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn ring_overwrites_oldest_and_counts() {
        let rec = FlightRecorder::new(3, None);
        for q in 0..5u64 {
            rec.on_event(TraceEvent::Arrival { t: at(q), query: q, deadline: at(q + 9) });
        }
        let kept: Vec<u64> = rec.events().iter().filter_map(|e| e.query()).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest events are overwritten");
        assert_eq!(rec.lock().overwritten, 2);
    }

    #[test]
    fn expiry_threshold_trips_slo_breach_once() {
        let rec = FlightRecorder::new(8, Some(2));
        rec.on_event(TraceEvent::QueryExpired { t: at(1), query: 0 });
        assert_eq!(rec.tripped(), None);
        rec.on_event(TraceEvent::QueryExpired { t: at(2), query: 1 });
        assert_eq!(rec.tripped(), Some(TripReason::SloBreach));
        // A later manual trip does not override the first reason.
        assert!(!rec.trip(TripReason::Wedge));
        assert_eq!(rec.tripped(), Some(TripReason::SloBreach));
    }

    #[test]
    fn manual_trip_wins_when_first() {
        let rec = FlightRecorder::new(8, Some(100));
        assert!(rec.trip(TripReason::WorkerPanic));
        assert_eq!(rec.tripped(), Some(TripReason::WorkerPanic));
    }

    #[test]
    fn dump_is_valid_json_covering_every_variant() {
        let rec = FlightRecorder::new(64, Some(1));
        // Feed one of every event variant through the tap entry point.
        let events = vec![
            TraceEvent::Arrival { t: at(0), query: 1, deadline: at(9) },
            TraceEvent::Admission {
                t: at(0),
                query: 1,
                verdict: schemble_trace::AdmissionVerdict::FastPath { executor: 2 },
            },
            TraceEvent::Plan {
                t: at(1),
                buffer: 2,
                scheduled: 1,
                work: 64,
                cost: SimDuration::from_micros(17),
            },
            TraceEvent::TaskEnqueue { t: at(1), query: 1, executor: 0 },
            TraceEvent::TaskStart { t: at(1), query: 1, executor: 0 },
            TraceEvent::TaskDone { t: at(2), query: 1, executor: 0 },
            TraceEvent::TaskFailed { t: at(2), query: 1, executor: 1 },
            TraceEvent::TaskRetried { t: at(3), query: 1, executor: 1, attempt: 1 },
            TraceEvent::ExecutorDown { t: at(3), executor: 1 },
            TraceEvent::ExecutorUp { t: at(4), executor: 1 },
            TraceEvent::Scored { t: at(4), query: 1, bin: 3, score_fp: 437_500 },
            TraceEvent::PlanAssign {
                t: at(4),
                query: 1,
                set: 0b101,
                predicted_finish: at(8),
                frontier: 6,
            },
            TraceEvent::Realized { t: at(5), query: 1, score_fp: 431_000, correct: true },
            TraceEvent::TaskQuit { t: at(5), query: 1, executor: 2 },
            TraceEvent::WorkSaved { t: at(5), query: 1, saved: 1 },
            TraceEvent::BatchFormed { t: at(5), executor: 1, batch: 3, size: 4 },
            TraceEvent::DegradedAnswer { t: at(5), query: 1, set: 0b001 },
            TraceEvent::QueryDone { t: at(5), query: 2, set: 0b111 },
            TraceEvent::QueryExpired { t: at(6), query: 3 },
        ];
        for ev in events {
            rec.on_event(ev);
        }
        assert_eq!(rec.tripped(), Some(TripReason::SloBreach));
        let dump = rec.dump_json();
        validate(&dump).expect("dump must be well-formed JSON");
        assert!(dump.starts_with("{\"reason\":\"slo-breach\""));
        assert!(dump.contains("\"type\":\"plan-assign\""));
        assert!(dump.contains("\"predicted_finish_us\":8000"));
    }

    #[test]
    fn untripped_dump_has_null_reason() {
        let rec = FlightRecorder::new(4, None);
        rec.on_event(TraceEvent::QueryExpired { t: at(1), query: 0 });
        let dump = rec.dump_json();
        validate(&dump).expect("valid JSON");
        assert!(dump.starts_with("{\"reason\":null,\"expired\":1"));
    }

    #[test]
    fn tap_wiring_reaches_the_recorder_with_the_ring_disabled() {
        let rec = Arc::new(FlightRecorder::new(8, None));
        let sink = TraceSink::disabled();
        sink.set_tap(Some(rec.clone()));
        sink.emit(TraceEvent::QueryExpired { t: at(1), query: 7 });
        assert_eq!(rec.events().len(), 1);
        assert_eq!(sink.drain().len(), 0, "the main ring stayed disabled");
    }

    /// Everything the recorder keeps: ring, overwritten, expired, reason.
    fn state(rec: &FlightRecorder) -> (Vec<TraceEvent>, u64, u64, Option<TripReason>) {
        let g = rec.lock();
        (g.ring.iter().copied().collect(), g.overwritten, g.expired, g.reason)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Batches fed through `on_events` leave, after every batch, the
        /// state one `on_event` per event leaves — including when a manual
        /// trip lands between two batches, so the breach trips at the same
        /// event.
        #[test]
        fn a_batch_equals_one_event_at_a_time(
            kinds in collection::vec(0u8..4, 0..200),
            cuts in collection::vec(1usize..24, 1..16),
            capacity_pick in 0usize..3,
            threshold in 1u64..12,
            wedge_after in 0usize..16,
        ) {
            let capacity = [1, 3, 4096][capacity_pick];
            // One event in four is an expiry, so batches straddle the
            // threshold.
            let events: Vec<TraceEvent> = kinds
                .iter()
                .enumerate()
                .map(|(i, &kind)| match kind {
                    0 => TraceEvent::QueryExpired { t: at(i as u64), query: i as u64 },
                    _ => TraceEvent::Arrival { t: at(i as u64), query: i as u64, deadline: at(9) },
                })
                .collect();
            let batched = FlightRecorder::new(capacity, Some(threshold));
            let single = FlightRecorder::new(capacity, Some(threshold));
            batched.on_events(&[]);
            let mut rest = events.as_slice();
            for (b, &cut) in cuts.iter().cycle().enumerate() {
                if rest.is_empty() {
                    break;
                }
                let (batch, tail) = rest.split_at(cut.min(rest.len()));
                rest = tail;
                batched.on_events(batch);
                batch.iter().for_each(|&event| single.on_event(event));
                if b == wedge_after {
                    let wedge = TripReason::Wedge;
                    prop_assert_eq!(batched.trip(wedge), single.trip(wedge));
                }
                prop_assert_eq!(state(&batched), state(&single));
            }
            prop_assert_eq!(batched.dump_json(), single.dump_json());
        }
    }
}
