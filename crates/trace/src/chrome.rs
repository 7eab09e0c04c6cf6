//! Chrome trace-event JSON exporter.
//!
//! Produces the [Trace Event Format] consumed by Perfetto and
//! `chrome://tracing`: one track (`tid`) per executor carrying complete
//! (`"ph":"X"`) spans for every task execution, plus a scheduler track
//! (`tid` 0) carrying plan spans (duration = the simulated scheduling cost)
//! and instant markers for arrivals, admission verdicts, completions and
//! expiries. Timestamps are the events' backend time in microseconds, so a
//! DES trace and a serve trace line up on the same axis.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::event::{set_members, AdmissionVerdict, TraceEvent};
use crate::json::escape;

/// The scheduler's track id; executor `k` renders on track `k + 1`.
pub const SCHEDULER_TID: u32 = 0;

fn push_event(out: &mut Vec<String>, body: String) {
    out.push(format!("{{{body}}}"));
}

fn instant(out: &mut Vec<String>, name: &str, ts: u64, tid: u32, args: &str) {
    push_event(
        out,
        format!(
            "\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":0,\"tid\":{tid},\"args\":{{{args}}}",
            escape(name)
        ),
    );
}

fn span(out: &mut Vec<String>, name: &str, ts: u64, dur: u64, tid: u32, args: &str) {
    push_event(
        out,
        format!(
            "\"name\":\"{}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":0,\"tid\":{tid},\"args\":{{{args}}}",
            escape(name)
        ),
    );
}

/// Renders `events` as a Chrome trace-event JSON document.
///
/// `executors` fixes the number of executor tracks (so idle executors still
/// get a named, empty track); `label` names the process in the trace viewer
/// (pipeline/method name).
pub fn chrome_trace(events: &[TraceEvent], executors: usize, label: &str) -> String {
    let tracks: Vec<String> = (0..executors).map(|k| format!("executor-{k}")).collect();
    chrome_trace_named(events, &tracks, label)
}

/// [`chrome_trace`] with caller-supplied executor track names — executor
/// `k` renders on track `k + 1` named `tracks[k]`. Sharded serve runs pass
/// `shard-<s>/executor-<k>` names so a merged trace keeps its shard labels.
pub fn chrome_trace_named(events: &[TraceEvent], tracks: &[String], label: &str) -> String {
    let executors = tracks.len();
    let mut out: Vec<String> = Vec::with_capacity(events.len() + executors + 2);
    push_event(
        &mut out,
        format!(
            "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{{\"name\":\"schemble {}\"}}",
            escape(label)
        ),
    );
    push_event(
        &mut out,
        "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"scheduler\"}"
            .to_string(),
    );
    for (k, track) in tracks.iter().enumerate() {
        push_event(
            &mut out,
            format!(
                "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\"args\":{{\"name\":\"{}\"}}",
                k as u32 + 1,
                escape(track)
            ),
        );
    }

    // Open task per executor: (query, start time). Backends are
    // non-preemptive, so sequential pairing per track is exact.
    let mut open: Vec<Option<(u64, u64)>> = vec![None; executors];
    let mut last_ts = 0u64;
    for ev in events {
        let ts = ev.time().as_micros();
        last_ts = last_ts.max(ts);
        match *ev {
            TraceEvent::Arrival { query, deadline, .. } => instant(
                &mut out,
                "arrival",
                ts,
                SCHEDULER_TID,
                &format!("\"query\":{query},\"deadline_us\":{}", deadline.as_micros()),
            ),
            TraceEvent::Admission { query, verdict, .. } => {
                let args = match verdict {
                    AdmissionVerdict::FastPath { executor } => {
                        format!("\"query\":{query},\"executor\":{executor}")
                    }
                    AdmissionVerdict::Selected { set } => {
                        format!("\"query\":{query},\"set\":{:?}", set_members(set))
                    }
                    AdmissionVerdict::Buffered | AdmissionVerdict::Rejected => {
                        format!("\"query\":{query}")
                    }
                };
                instant(&mut out, verdict.label(), ts, SCHEDULER_TID, &args);
            }
            TraceEvent::Plan { buffer, scheduled, work, cost, .. } => span(
                &mut out,
                "plan",
                ts,
                cost.as_micros(),
                SCHEDULER_TID,
                &format!("\"buffer\":{buffer},\"scheduled\":{scheduled},\"work\":{work}"),
            ),
            TraceEvent::TaskEnqueue { query, executor, .. } => instant(
                &mut out,
                &format!("enqueue q{query}"),
                ts,
                executor as u32 + 1,
                &format!("\"query\":{query}"),
            ),
            TraceEvent::TaskStart { query, executor, .. } => {
                if let Some(slot) = open.get_mut(executor as usize) {
                    *slot = Some((query, ts));
                }
            }
            TraceEvent::TaskDone { query, executor, .. } => {
                let started = open
                    .get_mut(executor as usize)
                    .and_then(Option::take)
                    .filter(|(q, _)| *q == query);
                let start_ts = started.map_or(ts, |(_, t0)| t0);
                span(
                    &mut out,
                    &format!("q{query}"),
                    start_ts,
                    ts - start_ts,
                    executor as u32 + 1,
                    &format!("\"query\":{query}"),
                );
            }
            TraceEvent::QueryDone { query, set, .. } => instant(
                &mut out,
                "complete",
                ts,
                SCHEDULER_TID,
                &format!("\"query\":{query},\"set\":{:?}", set_members(set)),
            ),
            TraceEvent::QueryExpired { query, .. } => {
                instant(&mut out, "expire", ts, SCHEDULER_TID, &format!("\"query\":{query}"))
            }
            TraceEvent::TaskFailed { query, executor, .. } => {
                // A failure closes the open span like a completion would,
                // but renders with a distinct name so Perfetto colours it.
                let started = open
                    .get_mut(executor as usize)
                    .and_then(Option::take)
                    .filter(|(q, _)| *q == query);
                let start_ts = started.map_or(ts, |(_, t0)| t0);
                span(
                    &mut out,
                    &format!("q{query} FAILED"),
                    start_ts,
                    ts - start_ts,
                    executor as u32 + 1,
                    &format!("\"query\":{query},\"failed\":true"),
                );
            }
            TraceEvent::TaskRetried { query, executor, attempt, .. } => instant(
                &mut out,
                &format!("retry q{query}"),
                ts,
                executor as u32 + 1,
                &format!("\"query\":{query},\"attempt\":{attempt}"),
            ),
            TraceEvent::ExecutorDown { executor, .. } => instant(
                &mut out,
                "executor-down",
                ts,
                executor as u32 + 1,
                &format!("\"executor\":{executor}"),
            ),
            TraceEvent::ExecutorUp { executor, .. } => instant(
                &mut out,
                "executor-up",
                ts,
                executor as u32 + 1,
                &format!("\"executor\":{executor}"),
            ),
            TraceEvent::DegradedAnswer { query, set, .. } => instant(
                &mut out,
                "degraded",
                ts,
                SCHEDULER_TID,
                &format!("\"query\":{query},\"set\":{:?}", set_members(set)),
            ),
            TraceEvent::Scored { query, bin, score_fp, .. } => instant(
                &mut out,
                "scored",
                ts,
                SCHEDULER_TID,
                &format!("\"query\":{query},\"bin\":{bin},\"score_fp\":{score_fp}"),
            ),
            TraceEvent::PlanAssign { query, set, predicted_finish, frontier, .. } => instant(
                &mut out,
                "assign",
                ts,
                SCHEDULER_TID,
                &format!(
                    "\"query\":{query},\"set\":{:?},\"predicted_finish_us\":{},\"frontier\":{frontier}",
                    set_members(set),
                    predicted_finish.as_micros()
                ),
            ),
            TraceEvent::Realized { query, score_fp, correct, .. } => instant(
                &mut out,
                "realized",
                ts,
                SCHEDULER_TID,
                &format!("\"query\":{query},\"score_fp\":{score_fp},\"correct\":{correct}"),
            ),
            TraceEvent::TaskQuit { query, executor, .. } => {
                // A quit of a running task closes its open span like a
                // failure would; a quit of an unstarted task has no open
                // span and renders as a zero-length marker at the decision.
                let started = open
                    .get_mut(executor as usize)
                    .and_then(Option::take)
                    .filter(|(q, _)| *q == query);
                let start_ts = started.map_or(ts, |(_, t0)| t0);
                span(
                    &mut out,
                    &format!("q{query} QUIT"),
                    start_ts,
                    ts - start_ts,
                    executor as u32 + 1,
                    &format!("\"query\":{query},\"quit\":true"),
                );
            }
            TraceEvent::WorkSaved { query, saved, .. } => instant(
                &mut out,
                "work-saved",
                ts,
                SCHEDULER_TID,
                &format!("\"query\":{query},\"saved\":{saved}"),
            ),
            TraceEvent::BatchFormed { executor, batch, size, .. } => instant(
                &mut out,
                &format!("batch#{batch} x{size}"),
                ts,
                executor as u32 + 1,
                &format!("\"batch\":{batch},\"size\":{size}"),
            ),
            TraceEvent::QueryStolen { query, epoch, victim, thief, .. } => instant(
                &mut out,
                &format!("steal q{query} s{victim}->s{thief}"),
                ts,
                SCHEDULER_TID,
                &format!("\"query\":{query},\"epoch\":{epoch},\"victim\":{victim},\"thief\":{thief}"),
            ),
        }
    }
    // A task still running when the trace was drained renders as a span to
    // the last observed instant (only happens on mid-run snapshots).
    for (k, slot) in open.into_iter().enumerate() {
        if let Some((query, t0)) = slot {
            span(
                &mut out,
                &format!("q{query}"),
                t0,
                last_ts - t0,
                k as u32 + 1,
                &format!("\"query\":{query},\"truncated\":true"),
            );
        }
    }

    let mut doc = String::with_capacity(out.iter().map(|s| s.len() + 2).sum::<usize>() + 64);
    doc.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, ev) in out.iter().enumerate() {
        doc.push_str(ev);
        if i + 1 != out.len() {
            doc.push(',');
        }
        doc.push('\n');
    }
    doc.push_str("]}\n");
    doc
}

/// Number of complete (start+done) task spans per query in `events`.
///
/// Used by round-trip tests: after a drained run every started task has
/// exactly one `TaskStart`/`TaskDone` pair.
pub fn complete_task_spans(events: &[TraceEvent]) -> std::collections::HashMap<u64, usize> {
    let mut starts: std::collections::HashMap<(u64, u16), usize> = std::collections::HashMap::new();
    let mut spans: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    for ev in events {
        match *ev {
            TraceEvent::TaskStart { query, executor, .. } => {
                *starts.entry((query, executor)).or_default() += 1;
            }
            TraceEvent::TaskDone { query, executor, .. } => {
                let open = starts.entry((query, executor)).or_default();
                if *open > 0 {
                    *open -= 1;
                    *spans.entry(query).or_default() += 1;
                }
            }
            _ => {}
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;
    use schemble_sim::{SimDuration, SimTime};

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Arrival { t: at(0), query: 1, deadline: at(50) },
            TraceEvent::Admission { t: at(0), query: 1, verdict: AdmissionVerdict::Buffered },
            TraceEvent::Plan {
                t: at(0),
                buffer: 1,
                scheduled: 1,
                work: 12,
                cost: SimDuration::from_micros(80),
            },
            TraceEvent::TaskStart { t: at(1), query: 1, executor: 0 },
            TraceEvent::TaskDone { t: at(11), query: 1, executor: 0 },
            TraceEvent::QueryDone { t: at(11), query: 1, set: 0b1 },
        ]
    }

    #[test]
    fn output_is_valid_json_with_task_span() {
        let doc = chrome_trace(&sample_events(), 2, "schemble");
        validate(&doc).expect("chrome trace must parse");
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"name\":\"q1\""));
        assert!(doc.contains("\"dur\":10000"), "10ms span in micros");
        assert!(doc.contains("executor-1"), "all executor tracks named");
    }

    #[test]
    fn named_tracks_carry_shard_labels() {
        let tracks = vec!["shard-0/executor-0".to_string(), "shard-1/executor-0".to_string()];
        let doc = chrome_trace_named(&sample_events(), &tracks, "schemble x4");
        validate(&doc).expect("named-track trace must parse");
        assert!(doc.contains("shard-0/executor-0"));
        assert!(doc.contains("shard-1/executor-0"));
        assert!(!doc.contains("\"executor-0\""), "default names replaced");
    }

    #[test]
    fn span_counter_pairs_starts_with_dones() {
        let spans = complete_task_spans(&sample_events());
        assert_eq!(spans.get(&1), Some(&1));
        // An unmatched start contributes no complete span.
        let mut events = sample_events();
        events.push(TraceEvent::TaskStart { t: at(20), query: 2, executor: 1 });
        assert_eq!(complete_task_spans(&events).get(&2), None);
    }

    #[test]
    fn truncated_running_task_still_renders() {
        let mut events = sample_events();
        events.push(TraceEvent::TaskStart { t: at(20), query: 2, executor: 1 });
        let doc = chrome_trace(&events, 2, "x");
        validate(&doc).expect("valid despite open span");
        assert!(doc.contains("\"truncated\":true"));
    }
}
