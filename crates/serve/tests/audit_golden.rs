//! Golden-file pin of a sharded, stealing run's decision audit log.
//!
//! Two shards on hot keys, a 25 ms steal epoch, a crash window and
//! transient faults: the log holds completed, degraded and expired
//! queries, retries, and `stolen` lines, merged from both shards' streams.
//! Every line is pinned byte for byte, so a change to the audit fold, its
//! writer or the shard merge that moves a single byte fails here.
//! Regenerate deliberately with
//! `BLESS_GOLDEN=1 cargo test -p schemble-serve --test audit_golden`.

mod common;

use common::{fixture, run_once};
use schemble_sim::{FaultPlan, SimDuration};
use schemble_trace::audit_ndjson;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_audit.ndjson");

#[test]
fn two_shard_stealing_audit_matches_the_checked_in_golden_file() {
    let fx =
        fixture(7, 240, 250.0).deadline_ms(60.0).force_all(true).zipf_keys(8, 1.5).build(|_| {});
    let faults = FaultPlan::parse("crash 0 0.2 0.6\ncrash 1 0.4 0.8\ntransient 0.2\ntimeout-q 0.9")
        .expect("valid plan");
    let run = run_once(&fx, |c| {
        c.shards = 2;
        c.steal_epoch = Some(SimDuration::from_millis(25));
        c.faults = Some(faults);
    });
    let log = audit_ndjson(&run.events);
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &log).expect("write golden file");
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file checked in");
    assert_eq!(
        log, golden,
        "the audit log drifted from the golden file; if the change is \
         intentional, regenerate with BLESS_GOLDEN=1"
    );
    // The fixture still reaches what it is meant to pin.
    assert_eq!(golden.lines().count(), 240);
    for needle in [
        "\"stolen\":{",
        "\"outcome\":\"completed\"",
        "\"outcome\":\"degraded\"",
        "\"outcome\":\"expired\"",
        "\"retries\":1",
    ] {
        assert!(golden.contains(needle), "the fixture lost {needle}");
    }
}
