//! The decision audit log: one NDJSON line per submitted query.
//!
//! Collapses a run's event stream into per-query decision records —
//! admission verdict, chosen model subset, task count, outcome, completion
//! time — with deterministic key order and query ordering, so two runs can
//! be compared with a plain line diff (`schemble` vs a baseline, DES vs the
//! serve runtime, before vs after a scheduler change).

use crate::event::{set_members, AdmissionVerdict, TraceEvent};
use schemble_sim::SimTime;
use std::collections::BTreeMap;

/// Work-steal lineage of a transferred query: which epoch moved it and
/// between which shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditSteal {
    /// Steal epoch index the transfer resolved at.
    pub epoch: u32,
    /// Home shard the query was admitted on.
    pub victim: u16,
    /// Shard that adopted and served the query.
    pub thief: u16,
}

/// The collapsed lifecycle of one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRecord {
    /// Query id.
    pub query: u64,
    /// Arrival instant.
    pub arrival: SimTime,
    /// Absolute deadline.
    pub deadline: SimTime,
    /// Admission verdict label (`buffered` / `fast-path` / `selected` /
    /// `rejected`).
    pub admission: &'static str,
    /// Final model set: the assembled set for completed queries, the
    /// selected set for rejected-after-selection ones, empty otherwise.
    pub set: u32,
    /// Tasks that started executing for this query.
    pub tasks: u32,
    /// Task retries dispatched for this query.
    pub retries: u32,
    /// Terminal outcome (`completed` / `degraded` / `rejected` / `expired` /
    /// `open`).
    pub outcome: &'static str,
    /// Completion instant for completed (or degraded) queries.
    pub completion: Option<SimTime>,
    /// Predicted difficulty bin (from the `Scored` event; `None` for
    /// fast-path / immediate-pipeline queries that skip the predictor).
    pub bin: Option<u8>,
    /// Candidate-frontier width of the last planning pass that assigned
    /// this query's set (`None` without `PlanAssign` events).
    pub frontier: Option<u32>,
    /// Predicted completion instant of the last assigned plan.
    pub predicted_finish: Option<SimTime>,
    /// Steal lineage for queries transferred between shards (`None` for the
    /// common never-stolen case, which keeps its exact historical line
    /// bytes — the `stolen` key only appears on transferred queries).
    pub stolen: Option<AuditSteal>,
}

impl AuditRecord {
    /// The record as one NDJSON line (no trailing newline), keys in a fixed
    /// order so equal decisions give byte-equal lines.
    pub fn to_json_line(&self) -> String {
        fn or_null(v: Option<String>) -> String {
            v.unwrap_or_else(|| "null".to_string())
        }
        let completion = or_null(self.completion.map(|t| t.as_micros().to_string()));
        let bin = or_null(self.bin.map(|b| b.to_string()));
        let frontier = or_null(self.frontier.map(|f| f.to_string()));
        let predicted = or_null(self.predicted_finish.map(|t| t.as_micros().to_string()));
        let stolen = match self.stolen {
            Some(s) => format!(
                ",\"stolen\":{{\"epoch\":{},\"victim\":{},\"thief\":{}}}",
                s.epoch, s.victim, s.thief
            ),
            None => String::new(),
        };
        format!(
            "{{\"query\":{},\"arrival_us\":{},\"deadline_us\":{},\"admission\":\"{}\",\"set\":{:?},\"models\":{},\"tasks\":{},\"retries\":{},\"outcome\":\"{}\",\"completion_us\":{},\"bin\":{},\"frontier\":{},\"predicted_finish_us\":{}{stolen}}}",
            self.query,
            self.arrival.as_micros(),
            self.deadline.as_micros(),
            self.admission,
            set_members(self.set),
            set_members(self.set).len(),
            self.tasks,
            self.retries,
            self.outcome,
            completion,
            bin,
            frontier,
            predicted,
        )
    }
}

/// Collapses an event stream into per-query records, ordered by query id.
pub fn audit_records(events: &[TraceEvent]) -> Vec<AuditRecord> {
    let mut records: BTreeMap<u64, AuditRecord> = BTreeMap::new();
    for ev in events {
        match *ev {
            TraceEvent::Arrival { t, query, deadline } => {
                records.entry(query).or_insert(AuditRecord {
                    query,
                    arrival: t,
                    deadline,
                    admission: "buffered",
                    set: 0,
                    tasks: 0,
                    retries: 0,
                    outcome: "open",
                    completion: None,
                    bin: None,
                    frontier: None,
                    predicted_finish: None,
                    stolen: None,
                });
            }
            // A steal *annotates* the record the victim's Arrival made
            // under the same global id; in a stream that holds the thief's
            // side only (one shard's events) it *creates* the record.
            TraceEvent::QueryStolen {
                query, epoch, victim, thief, arrival, deadline, bin, ..
            } => {
                let r = records.entry(query).or_insert(AuditRecord {
                    query,
                    arrival,
                    deadline,
                    admission: "buffered",
                    set: 0,
                    tasks: 0,
                    retries: 0,
                    outcome: "open",
                    completion: None,
                    bin: None,
                    frontier: None,
                    predicted_finish: None,
                    stolen: None,
                });
                r.bin = Some(bin);
                r.stolen = Some(AuditSteal { epoch, victim, thief });
            }
            TraceEvent::Admission { query, verdict, .. } => {
                if let Some(r) = records.get_mut(&query) {
                    r.admission = verdict.label();
                    match verdict {
                        AdmissionVerdict::Selected { set } => r.set = set,
                        AdmissionVerdict::Rejected => r.outcome = "rejected",
                        AdmissionVerdict::Buffered | AdmissionVerdict::FastPath { .. } => {}
                    }
                }
            }
            TraceEvent::TaskStart { query, .. } => {
                if let Some(r) = records.get_mut(&query) {
                    r.tasks += 1;
                }
            }
            TraceEvent::QueryDone { t, query, set } => {
                if let Some(r) = records.get_mut(&query) {
                    r.outcome = "completed";
                    r.set = set;
                    r.completion = Some(t);
                }
            }
            TraceEvent::QueryExpired { query, .. } => {
                if let Some(r) = records.get_mut(&query) {
                    r.outcome = "expired";
                }
            }
            TraceEvent::TaskRetried { query, .. } => {
                if let Some(r) = records.get_mut(&query) {
                    r.retries += 1;
                }
            }
            TraceEvent::DegradedAnswer { t, query, set } => {
                if let Some(r) = records.get_mut(&query) {
                    r.outcome = "degraded";
                    r.set = set;
                    r.completion = Some(t);
                }
            }
            TraceEvent::Scored { query, bin, .. } => {
                if let Some(r) = records.get_mut(&query) {
                    r.bin = Some(bin);
                }
            }
            TraceEvent::PlanAssign { query, frontier, predicted_finish, .. } => {
                if let Some(r) = records.get_mut(&query) {
                    r.frontier = Some(frontier);
                    r.predicted_finish = Some(predicted_finish);
                }
            }
            TraceEvent::Plan { .. }
            | TraceEvent::TaskEnqueue { .. }
            | TraceEvent::TaskDone { .. }
            | TraceEvent::TaskFailed { .. }
            | TraceEvent::ExecutorDown { .. }
            | TraceEvent::ExecutorUp { .. }
            | TraceEvent::Realized { .. }
            | TraceEvent::TaskQuit { .. }
            | TraceEvent::WorkSaved { .. }
            | TraceEvent::BatchFormed { .. } => {}
        }
    }
    records.into_values().collect()
}

/// The audit log as NDJSON: one line per submitted query, ordered by id.
pub fn audit_ndjson(events: &[TraceEvent]) -> String {
    let records = audit_records(events);
    let mut out = String::new();
    for (i, record) in records.iter().enumerate() {
        let line = record.to_json_line();
        if i == 0 {
            // Sized once from the first (shortest-numbered) line plus an
            // eighth, not doubled up from a few bytes: a log of tens of
            // megabytes regrown from a small recycled chunk lives in
            // whichever malloc arena that chunk came from, and the
            // process's peak memory differs from run to run with it.
            out.reserve(records.len() * (line.len() + 1) / 8 * 9);
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_ndjson;
    use schemble_sim::SimDuration;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn lifecycle() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Arrival { t: at(0), query: 3, deadline: at(100) },
            TraceEvent::Admission { t: at(0), query: 3, verdict: AdmissionVerdict::Buffered },
            TraceEvent::Arrival { t: at(1), query: 1, deadline: at(40) },
            TraceEvent::Admission { t: at(1), query: 1, verdict: AdmissionVerdict::Rejected },
            TraceEvent::Plan {
                t: at(1),
                buffer: 1,
                scheduled: 1,
                work: 4,
                cost: SimDuration::ZERO,
            },
            TraceEvent::TaskStart { t: at(2), query: 3, executor: 0 },
            TraceEvent::TaskStart { t: at(2), query: 3, executor: 2 },
            TraceEvent::TaskDone { t: at(9), query: 3, executor: 0 },
            TraceEvent::TaskDone { t: at(12), query: 3, executor: 2 },
            TraceEvent::QueryDone { t: at(12), query: 3, set: 0b101 },
        ]
    }

    #[test]
    fn one_record_per_query_in_id_order() {
        let records = audit_records(&lifecycle());
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].query, 1);
        assert_eq!(records[0].outcome, "rejected");
        assert_eq!(records[1].query, 3);
        assert_eq!(records[1].outcome, "completed");
        assert_eq!(records[1].set, 0b101);
        assert_eq!(records[1].tasks, 2);
        assert_eq!(records[1].completion, Some(at(12)));
    }

    #[test]
    fn ndjson_is_valid_and_line_count_matches_queries() {
        let log = audit_ndjson(&lifecycle());
        validate_ndjson(&log).expect("audit lines must parse");
        assert_eq!(log.lines().count(), 2);
        assert!(log.contains("\"set\":[0, 2]"));
    }

    #[test]
    fn degraded_lifecycle_records_retries_and_partial_set() {
        let events = vec![
            TraceEvent::Arrival { t: at(0), query: 5, deadline: at(60) },
            TraceEvent::TaskStart { t: at(1), query: 5, executor: 0 },
            TraceEvent::TaskStart { t: at(1), query: 5, executor: 1 },
            TraceEvent::TaskFailed { t: at(8), query: 5, executor: 1 },
            TraceEvent::TaskRetried { t: at(10), query: 5, executor: 1, attempt: 1 },
            TraceEvent::TaskStart { t: at(10), query: 5, executor: 1 },
            TraceEvent::TaskFailed { t: at(15), query: 5, executor: 1 },
            TraceEvent::TaskDone { t: at(20), query: 5, executor: 0 },
            TraceEvent::DegradedAnswer { t: at(20), query: 5, set: 0b1 },
        ];
        let records = audit_records(&events);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].outcome, "degraded");
        assert_eq!(records[0].retries, 1);
        assert_eq!(records[0].set, 0b1);
        assert_eq!(records[0].completion, Some(at(20)));
        let line = records[0].to_json_line();
        assert!(line.contains("\"retries\":1"));
        assert!(line.contains("\"outcome\":\"degraded\""));
    }

    #[test]
    fn expiry_without_completion_stays_expired() {
        let events = vec![
            TraceEvent::Arrival { t: at(0), query: 9, deadline: at(5) },
            TraceEvent::QueryExpired { t: at(6), query: 9 },
        ];
        let records = audit_records(&events);
        assert_eq!(records[0].outcome, "expired");
        assert_eq!(records[0].completion, None);
        let line = records[0].to_json_line();
        assert!(line.contains("\"completion_us\":null"), "{line}");
        assert!(line.ends_with("\"bin\":null,\"frontier\":null,\"predicted_finish_us\":null}"));
    }

    #[test]
    fn explain_events_enrich_the_record() {
        let events = vec![
            TraceEvent::Arrival { t: at(0), query: 2, deadline: at(80) },
            TraceEvent::Scored { t: at(0), query: 2, bin: 7, score_fp: 730_000 },
            TraceEvent::PlanAssign {
                t: at(1),
                query: 2,
                set: 0b11,
                predicted_finish: at(42),
                frontier: 5,
            },
            TraceEvent::TaskStart { t: at(2), query: 2, executor: 0 },
            TraceEvent::TaskStart { t: at(2), query: 2, executor: 1 },
            TraceEvent::Realized { t: at(40), query: 2, score_fp: 650_000, correct: true },
            TraceEvent::QueryDone { t: at(40), query: 2, set: 0b11 },
        ];
        let records = audit_records(&events);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].bin, Some(7));
        assert_eq!(records[0].frontier, Some(5));
        assert_eq!(records[0].predicted_finish, Some(at(42)));
        let line = records[0].to_json_line();
        validate_ndjson(&line).expect("explain fields must serialise to valid JSON");
        assert!(line.contains("\"bin\":7"));
        assert!(line.contains("\"frontier\":5"));
        assert!(line.contains("\"predicted_finish_us\":42000"));
    }

    #[test]
    fn steal_creates_or_annotates_the_record_and_plain_lines_are_unchanged() {
        let stolen_ev = TraceEvent::QueryStolen {
            t: at(10),
            query: 4,
            epoch: 2,
            victim: 0,
            thief: 1,
            victim_depth: 6,
            thief_depth: 1,
            arrival: at(3),
            deadline: at(90),
            bin: 5,
            score_fp: 400_000,
        };
        // Thief-side stream: no Arrival, the steal must create the record.
        let thief_only = vec![stolen_ev, TraceEvent::QueryDone { t: at(30), query: 4, set: 0b1 }];
        let records = audit_records(&thief_only);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].arrival, at(3));
        assert_eq!(records[0].deadline, at(90));
        assert_eq!(records[0].bin, Some(5));
        assert_eq!(records[0].outcome, "completed");
        assert_eq!(records[0].stolen, Some(AuditSteal { epoch: 2, victim: 0, thief: 1 }));
        let line = records[0].to_json_line();
        validate_ndjson(&line).expect("steal lineage must serialise to valid JSON");
        assert!(line.contains("\"stolen\":{\"epoch\":2,\"victim\":0,\"thief\":1}"), "{line}");

        // Merged stream: the victim's Arrival already made the entry; the
        // steal only annotates it (exactly one line, not two).
        let merged = vec![
            TraceEvent::Arrival { t: at(3), query: 4, deadline: at(90) },
            stolen_ev,
            TraceEvent::QueryDone { t: at(30), query: 4, set: 0b1 },
        ];
        let merged_records = audit_records(&merged);
        assert_eq!(merged_records, records);

        // A never-stolen query's line carries no "stolen" key at all.
        let plain = audit_records(&lifecycle());
        for r in &plain {
            assert!(!r.to_json_line().contains("stolen"));
        }
    }
}
