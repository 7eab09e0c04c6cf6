//! The decision audit log: one NDJSON line per submitted query.
//!
//! Collapses a run's event stream into per-query decision records —
//! admission verdict, chosen model subset, task count, outcome, completion
//! time — with deterministic key order and query ordering, so two runs can
//! be compared with a plain line diff (`schemble` vs a baseline, DES vs the
//! serve runtime, before vs after a scheduler change).

use crate::event::{AdmissionVerdict, TraceEvent};
use crate::idhash::IdMap;
use schemble_sim::SimTime;

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
    /// The record a query's first event opens.
    fn open(query: u64, arrival: SimTime, deadline: SimTime) -> Self {
        AuditRecord {
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
        }
    }

    /// The record as one NDJSON line (no trailing newline), keys in a fixed
    /// order so equal decisions give byte-equal lines.
    pub fn to_json_line(&self) -> String {
        let mut line = String::new();
        self.write_json_line(&mut line);
        line
    }

    /// Appends [`to_json_line`](AuditRecord::to_json_line)'s line to `out`,
    /// with no allocation of its own.
    fn write_json_line(&self, out: &mut String) {
        out.push_str("{\"query\":");
        push_u64(out, self.query);
        out.push_str(",\"arrival_us\":");
        push_u64(out, self.arrival.as_micros());
        out.push_str(",\"deadline_us\":");
        push_u64(out, self.deadline.as_micros());
        out.push_str(",\"admission\":\"");
        out.push_str(self.admission);
        // The model indices as `{:?}` prints a `Vec<u16>`: "[0, 2]".
        out.push_str("\",\"set\":[");
        let mut members = 0;
        for k in (0..32).filter(|k| self.set & (1 << k) != 0) {
            if members > 0 {
                out.push_str(", ");
            }
            push_u64(out, k);
            members += 1;
        }
        out.push_str("],\"models\":");
        push_u64(out, members);
        out.push_str(",\"tasks\":");
        push_u64(out, self.tasks.into());
        out.push_str(",\"retries\":");
        push_u64(out, self.retries.into());
        out.push_str(",\"outcome\":\"");
        out.push_str(self.outcome);
        out.push('"');
        for (key, value) in [
            (",\"completion_us\":", self.completion.map(SimTime::as_micros)),
            (",\"bin\":", self.bin.map(u64::from)),
            (",\"frontier\":", self.frontier.map(u64::from)),
            (",\"predicted_finish_us\":", self.predicted_finish.map(SimTime::as_micros)),
        ] {
            out.push_str(key);
            match value {
                Some(v) => push_u64(out, v),
                None => out.push_str("null"),
            }
        }
        if let Some(s) = self.stolen {
            out.push_str(",\"stolen\":{\"epoch\":");
            push_u64(out, s.epoch.into());
            out.push_str(",\"victim\":");
            push_u64(out, s.victim.into());
            out.push_str(",\"thief\":");
            push_u64(out, s.thief.into());
            out.push('}');
        }
        out.push('}');
    }
}

/// Appends `n` in decimal. Hand-rolled rather than `write!`: on the
/// benchmark's 60 000-line log the formatting machinery cost about 9 ms of
/// the 29 ms the writer took with it.
fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Per-query records in order of first appearance, found by query id.
#[derive(Default)]
struct AuditFold {
    records: Vec<AuditRecord>,
    slots: IdMap<u64, usize>,
}

impl AuditFold {
    /// The query's record, opened at `arrival` if it has none yet.
    fn open(&mut self, query: u64, arrival: SimTime, deadline: SimTime) -> &mut AuditRecord {
        let fresh = self.records.len();
        let slot = *self.slots.entry(query).or_insert(fresh);
        if slot == fresh {
            self.records.push(AuditRecord::open(query, arrival, deadline));
        }
        &mut self.records[slot]
    }

    /// The query's record, if an earlier event opened one.
    fn get(&mut self, query: u64) -> Option<&mut AuditRecord> {
        let slot = *self.slots.get(&query)?;
        Some(&mut self.records[slot])
    }
}

/// Collapses an event stream into per-query records, ordered by query id.
pub fn audit_records(events: &[TraceEvent]) -> Vec<AuditRecord> {
    let mut fold = AuditFold::default();
    for ev in events {
        match *ev {
            TraceEvent::Arrival { t, query, deadline } => {
                fold.open(query, t, deadline);
            }
            // A steal *annotates* the record the victim's Arrival made
            // under the same global id; in a stream that holds the thief's
            // side only (one shard's events) it *creates* the record.
            TraceEvent::QueryStolen {
                query, epoch, victim, thief, arrival, deadline, bin, ..
            } => {
                let r = fold.open(query, arrival, deadline);
                r.bin = Some(bin);
                r.stolen = Some(AuditSteal { epoch, victim, thief });
            }
            TraceEvent::Admission { query, verdict, .. } => {
                if let Some(r) = fold.get(query) {
                    r.admission = verdict.label();
                    match verdict {
                        AdmissionVerdict::Selected { set } => r.set = set,
                        AdmissionVerdict::Rejected => r.outcome = "rejected",
                        AdmissionVerdict::Buffered | AdmissionVerdict::FastPath { .. } => {}
                    }
                }
            }
            TraceEvent::TaskStart { query, .. } => {
                if let Some(r) = fold.get(query) {
                    r.tasks += 1;
                }
            }
            TraceEvent::QueryDone { t, query, set } => {
                if let Some(r) = fold.get(query) {
                    r.outcome = "completed";
                    r.set = set;
                    r.completion = Some(t);
                }
            }
            TraceEvent::QueryExpired { query, .. } => {
                if let Some(r) = fold.get(query) {
                    r.outcome = "expired";
                }
            }
            TraceEvent::TaskRetried { query, .. } => {
                if let Some(r) = fold.get(query) {
                    r.retries += 1;
                }
            }
            TraceEvent::DegradedAnswer { t, query, set } => {
                if let Some(r) = fold.get(query) {
                    r.outcome = "degraded";
                    r.set = set;
                    r.completion = Some(t);
                }
            }
            TraceEvent::Scored { query, bin, .. } => {
                if let Some(r) = fold.get(query) {
                    r.bin = Some(bin);
                }
            }
            TraceEvent::PlanAssign { query, frontier, predicted_finish, .. } => {
                if let Some(r) = fold.get(query) {
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
    let mut records = fold.records;
    // Ids are unique, so the unstable sort is deterministic.
    records.sort_unstable_by_key(|r| r.query);
    records
}

/// The audit log as NDJSON: one line per submitted query, ordered by id,
/// each written straight into the one output string.
pub fn audit_ndjson(events: &[TraceEvent]) -> String {
    let records = audit_records(events);
    let Some(first) = records.first() else { return String::new() };
    let mut first_line = String::new();
    first.write_json_line(&mut first_line);
    // Sized once from the first (shortest-numbered) line plus an eighth,
    // not doubled up from a few bytes: a log of tens of megabytes regrown
    // from a small recycled chunk lives in whichever malloc arena that
    // chunk came from, and the process's peak memory differs from run to
    // run with it.
    let mut out = String::with_capacity(records.len() * (first_line.len() + 1) / 8 * 9);
    out.push_str(&first_line);
    out.push('\n');
    for record in &records[1..] {
        record.write_json_line(&mut out);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::set_members;
    use crate::json::validate_ndjson;
    use proptest::prelude::*;
    use schemble_sim::SimDuration;

    /// The `format!`-based line writer the direct one replaced, kept as the
    /// byte-identity oracle.
    fn format_line(r: &AuditRecord) -> String {
        fn or_null(v: Option<String>) -> String {
            v.unwrap_or_else(|| "null".to_string())
        }
        let completion = or_null(r.completion.map(|t| t.as_micros().to_string()));
        let bin = or_null(r.bin.map(|b| b.to_string()));
        let frontier = or_null(r.frontier.map(|f| f.to_string()));
        let predicted = or_null(r.predicted_finish.map(|t| t.as_micros().to_string()));
        let stolen = match r.stolen {
            Some(s) => format!(
                ",\"stolen\":{{\"epoch\":{},\"victim\":{},\"thief\":{}}}",
                s.epoch, s.victim, s.thief
            ),
            None => String::new(),
        };
        format!(
            "{{\"query\":{},\"arrival_us\":{},\"deadline_us\":{},\"admission\":\"{}\",\"set\":{:?},\"models\":{},\"tasks\":{},\"retries\":{},\"outcome\":\"{}\",\"completion_us\":{},\"bin\":{},\"frontier\":{},\"predicted_finish_us\":{}{stolen}}}",
            r.query,
            r.arrival.as_micros(),
            r.deadline.as_micros(),
            r.admission,
            set_members(r.set),
            set_members(r.set).len(),
            r.tasks,
            r.retries,
            r.outcome,
            completion,
            bin,
            frontier,
            predicted,
        )
    }

    /// Ids and instants near zero, anywhere, and at `u64::MAX`.
    fn wide_u64() -> impl Strategy<Value = u64> {
        (0u8..3, 0u64..8, any::<u64>()).prop_map(|(pick, small, wide)| match pick {
            0 => small,
            1 => wide,
            _ => u64::MAX,
        })
    }

    /// Sets empty, full (32 members) and in between.
    fn set_mask() -> impl Strategy<Value = u32> {
        (0u8..3, any::<u32>()).prop_map(|(pick, mask)| [0, u32::MAX, mask][pick as usize])
    }

    /// `None` or `Some` of a wide value, half each.
    fn maybe() -> impl Strategy<Value = Option<u64>> {
        (any::<bool>(), wide_u64()).prop_map(|(some, v)| some.then_some(v))
    }

    fn record_strategy() -> impl Strategy<Value = AuditRecord> {
        (
            (wide_u64(), wide_u64(), wide_u64(), set_mask(), any::<u32>(), any::<u32>()),
            (0usize..4, 0usize..5, maybe(), maybe(), maybe(), maybe()),
            (any::<bool>(), any::<u32>(), any::<u16>(), any::<u16>()),
        )
            .prop_map(
                |(
                    (query, arrival, deadline, set, tasks, retries),
                    (admission, outcome, completion, bin, frontier, predicted),
                    (stolen, epoch, victim, thief),
                )| AuditRecord {
                    query,
                    arrival: SimTime(arrival),
                    deadline: SimTime(deadline),
                    admission: ["buffered", "fast-path", "selected", "rejected"][admission],
                    set,
                    tasks,
                    retries,
                    outcome: ["completed", "degraded", "rejected", "expired", "open"][outcome],
                    completion: completion.map(SimTime),
                    bin: bin.map(|b| b as u8),
                    frontier: frontier.map(|f| f as u32),
                    predicted_finish: predicted.map(SimTime),
                    stolen: stolen.then_some(AuditSteal { epoch, victim, thief }),
                },
            )
    }

    /// Events of every variant the audit reads, over a few shared ids (and
    /// `u64::MAX`) so lifecycles interleave.
    fn event_strategy() -> impl Strategy<Value = TraceEvent> {
        let query = (0u64..7).prop_map(|q| if q == 6 { u64::MAX } else { q });
        let at = || wide_u64().prop_map(SimTime);
        (0u8..11, query, (at(), at()), set_mask(), (any::<u8>(), any::<u32>()), any::<u16>())
            .prop_map(|(kind, query, (t, other), set, (small, wide), executor)| match kind {
                0 => TraceEvent::Arrival { t, query, deadline: other },
                1 => TraceEvent::Admission {
                    t,
                    query,
                    verdict: match small % 4 {
                        0 => AdmissionVerdict::Buffered,
                        1 => AdmissionVerdict::FastPath { executor },
                        2 => AdmissionVerdict::Selected { set },
                        _ => AdmissionVerdict::Rejected,
                    },
                },
                2 => TraceEvent::TaskStart { t, query, executor },
                3 => TraceEvent::QueryDone { t, query, set },
                4 => TraceEvent::QueryExpired { t, query },
                5 => TraceEvent::TaskRetried { t, query, executor, attempt: small },
                6 => TraceEvent::DegradedAnswer { t, query, set },
                7 => TraceEvent::Scored { t, query, bin: small, score_fp: wide },
                8 => TraceEvent::PlanAssign {
                    t,
                    query,
                    set,
                    predicted_finish: other,
                    frontier: wide,
                },
                9 => TraceEvent::TaskDone { t, query, executor },
                _ => TraceEvent::QueryStolen {
                    t,
                    query,
                    epoch: wide,
                    victim: executor,
                    thief: executor.wrapping_add(1),
                    victim_depth: wide,
                    thief_depth: 0,
                    arrival: other,
                    deadline: t,
                    bin: small,
                    score_fp: wide,
                },
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn the_direct_writer_matches_the_format_oracle(record in record_strategy()) {
            prop_assert_eq!(record.to_json_line(), format_line(&record));
            let mut appended = String::from("prefix");
            record.write_json_line(&mut appended);
            prop_assert_eq!(&appended[6..], format_line(&record));
        }

        #[test]
        fn the_log_matches_the_oracle_line_by_line(
            events in collection::vec(event_strategy(), 0..80),
        ) {
            let records = audit_records(&events);
            let oracle: String = records.iter().map(|r| format_line(r) + "\n").collect();
            prop_assert_eq!(audit_ndjson(&events), oracle);
            prop_assert!(records.windows(2).all(|w| w[0].query < w[1].query));
        }
    }

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
