//! Golden-file pins of the two obs exports: the SLO time-series NDJSON
//! ([`ObsState::slo_ndjson`]) and the introspection Prometheus exposition
//! ([`ObsState::prometheus`]).
//!
//! Both are folds of one stream, and their exact bytes — key and family
//! order, `# HELP`/`# TYPE` lines, label rows, the conditional steal rows —
//! are what the DES/serve identity tests and the CI `cmp` steps compare, so
//! they are pinned byte-for-byte against checked-in fixtures. Regenerate
//! deliberately with
//! `BLESS_GOLDEN=1 cargo test -p schemble-obs --test obs_golden`.

use schemble_obs::{ObsConfig, ObsState};
use schemble_sim::{SimDuration, SimTime};
use schemble_trace::{AdmissionVerdict, TraceEvent};

const NDJSON_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_slo.ndjson");
const PROM_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_obs.prom");

fn at(us: u64) -> SimTime {
    SimTime::from_micros(us)
}

fn config() -> ObsConfig {
    ObsConfig {
        window: SimDuration::from_millis(100),
        capacity: 4096,
        bins: 4,
        profiled_latencies_us: vec![10_000, 20_000, 15_000],
    }
}

/// A deterministic stream touching every counter and row both exports
/// carry: on-time, late and degraded answers, expiries, rejections, task
/// failures and retries, costed plans, steals between two shards, drift
/// pairs with profiled task latencies on three executors, several sparse
/// windows, and one latency past the top histogram edge (~105 s).
fn stream() -> Vec<TraceEvent> {
    let mut events = Vec::new();
    for q in 0..30u64 {
        let t0 = q * 23_000;
        let executor = (q % 3) as u16;
        let deadline = at(t0 + 60_000);
        events.push(TraceEvent::Arrival { t: at(t0), query: q, deadline });
        if q % 7 == 3 {
            let verdict = AdmissionVerdict::Rejected;
            events.push(TraceEvent::Admission { t: at(t0), query: q, verdict });
            continue;
        }
        let verdict = AdmissionVerdict::Buffered;
        events.push(TraceEvent::Admission { t: at(t0), query: q, verdict });
        let (bin, score_fp) = ((q % 4) as u8, (q as u32 * 137_000) % 1_000_000);
        events.push(TraceEvent::Scored { t: at(t0), query: q, bin, score_fp });
        let cost = SimDuration::from_micros(40 + 13 * q);
        events.push(TraceEvent::Plan { t: at(t0 + 1), buffer: 1, scheduled: 1, work: 5 * q, cost });
        if q % 5 == 1 {
            events.push(TraceEvent::QueryStolen {
                t: at(t0 + 2),
                query: q,
                epoch: q as u32,
                victim: 0,
                thief: 1,
                victim_depth: 3 + q as u32,
                thief_depth: 1,
                arrival: at(t0),
                deadline,
                bin,
                score_fp,
            });
        }
        let start = t0 + 3;
        events.push(TraceEvent::TaskStart { t: at(start), query: q, executor });
        if q % 6 == 4 {
            events.push(TraceEvent::TaskFailed { t: at(start + 5_000), query: q, executor });
            let attempt = 1;
            events.push(TraceEvent::TaskRetried {
                t: at(start + 6_000),
                query: q,
                executor,
                attempt,
            });
            events.push(TraceEvent::TaskStart { t: at(start + 6_000), query: q, executor });
        }
        if q % 9 == 8 {
            events.push(TraceEvent::QueryExpired { t: at(t0 + 60_001), query: q });
            continue;
        }
        // Service times around each executor's profile, some outside the band.
        let service = [10_000, 20_000, 15_000][executor as usize] + (q % 4) * 4_000;
        let done = start + service + if q % 6 == 4 { 6_000 } else { 0 };
        events.push(TraceEvent::TaskDone { t: at(done), query: q, executor });
        let correct = q % 4 != 2;
        events.push(TraceEvent::Realized { t: at(done), query: q, score_fp, correct });
        let close = if q % 8 == 5 { done + 70_000 } else { done };
        if q % 4 == 1 {
            events.push(TraceEvent::DegradedAnswer { t: at(close), query: q, set: 0b1 });
        } else {
            events.push(TraceEvent::QueryDone { t: at(close), query: q, set: 0b11 });
        }
    }
    // One answer ~105 s after its arrival: past the latency layout's top edge.
    let (q, t0) = (1_000, 700_000);
    events.push(TraceEvent::Arrival { t: at(t0), query: q, deadline: at(t0 + 60_000) });
    let verdict = AdmissionVerdict::Buffered;
    events.push(TraceEvent::Admission { t: at(t0), query: q, verdict });
    events.push(TraceEvent::QueryDone { t: at(t0 + 105_000_000), query: q, set: 0b1 });
    events.sort_by_key(TraceEvent::time);
    events
}

fn check(path: &str, text: &str) {
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(path, text).expect("write golden file");
    }
    let golden = std::fs::read_to_string(path).expect("golden file checked in");
    assert_eq!(
        text, golden,
        "{path} drifted; if the change is intentional, regenerate with BLESS_GOLDEN=1"
    );
}

#[test]
fn slo_ndjson_matches_the_checked_in_golden_file() {
    let text = ObsState::fold(&config(), &stream()).slo_ndjson();
    check(NDJSON_PATH, &text);
    assert!(text.lines().count() >= 3, "the fixture spans several windows");
    assert!(text.contains("\"stolen\":1"));
    assert!(text.contains("\"p99_us\":104857600"), "the overflowing latency reports the top edge");
}

#[test]
fn obs_prometheus_matches_the_checked_in_golden_file() {
    let text = ObsState::fold(&config(), &stream()).prometheus();
    check(PROM_PATH, &text);
    for needle in [
        "schemble_obs_queries_stolen_total ",
        "schemble_obs_shard_backlog{shard=\"1\"} ",
        "schemble_obs_exec_latency_outliers_total{executor=\"2\"} ",
        "schemble_obs_task_retries_total ",
    ] {
        assert!(text.contains(needle), "missing {needle:?}");
    }
}
