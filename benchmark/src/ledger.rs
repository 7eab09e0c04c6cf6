//! Stand-alone timings of layers the span wrappers cannot reach.
//!
//! The scorer is a concrete type inside the engine, the sink and the
//! exporters are called from deep inside the program, and the clock, the
//! worker pool and the steal rendezvous sit under the wall-clock driver.
//! Each is timed here on its own, through its public functions, on the
//! inputs the workload generated or the events its traced pass captured.
//! A ledger entry says what one call costs; how many calls a pass makes is
//! in the counts next to it.

use crate::scenario::Setup;
use crate::stats::{quantile_sorted, sorted};
use schemble_core::predictor::OnlineScorer;
use schemble_models::Sample;
use schemble_serve::clock::precise_sleep;
use schemble_serve::steal::Rendezvous;
use schemble_serve::worker::{RuntimeMsg, WorkerPool};
use schemble_serve::{LoadSnapshot, StealCoordinator};
use schemble_sim::SimDuration;
use schemble_trace::{chrome_trace, globalize_events, merge_shard_events, TraceEvent, TraceSink};
use std::hint::black_box;
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

/// How many repetitions each ledger entry makes.
#[derive(Debug, Clone, Copy)]
pub struct Reps {
    pub sleeps: usize,
    pub roundtrips: usize,
    pub steal_rounds: usize,
}

impl Reps {
    pub const FULL: Reps = Reps { sleeps: 1000, roundtrips: 2000, steal_rounds: 2000 };
    pub const QUICK: Reps = Reps { sleeps: 30, roundtrips: 100, steal_rounds: 100 };
}

fn p50_p99(samples_us: &[f64]) -> (f64, f64) {
    let s = sorted(samples_us);
    (quantile_sorted(&s, 0.50), quantile_sorted(&s, 0.99))
}

/// `OnlineScorer::score_batch` over every sample of the workload, in the
/// engine's windows of 32: `(rows, microseconds per row)`.
pub fn score_rows(setup: &Setup) -> (usize, f64) {
    let scorer = OnlineScorer::Predictor(setup.artifacts.predictor.clone());
    let samples: Vec<&Sample> = setup.workload.samples();
    let started = Instant::now();
    for window in samples.chunks(32) {
        black_box(scorer.score_batch(black_box(window), &setup.ensemble));
    }
    let us = started.elapsed().as_secs_f64() * 1e6;
    (samples.len(), us / samples.len() as f64)
}

/// How far `precise_sleep` overshoots requests of 0.5 to 5 ms: `(p50, p99)`
/// in microseconds.
pub fn sleep_overshoot_us(reps: usize) -> (f64, f64) {
    let overshoot: Vec<f64> = (0..reps)
        .map(|i| {
            let want = Duration::from_micros(500 + (4500 * i / reps.max(2)) as u64);
            let started = Instant::now();
            precise_sleep(want);
            (started.elapsed() - want).as_secs_f64() * 1e6
        })
        .collect();
    p50_p99(&overshoot)
}

/// Submit-to-`TaskDone` time of a zero-length task on a one-worker pool:
/// `(p50, p99)` in microseconds. Two channel hops and two thread wake-ups.
pub fn worker_roundtrip_us(reps: usize) -> (f64, f64) {
    let (done_tx, done_rx) = sync_channel::<RuntimeMsg>(16);
    let pool = WorkerPool::spawn(1, done_tx);
    let trips: Vec<f64> = (0..reps as u64)
        .map(|query| {
            let started = Instant::now();
            pool.submit(0, query, Duration::ZERO, false);
            let report = done_rx.recv().expect("worker reports every task");
            assert_eq!(report, RuntimeMsg::TaskDone { executor: 0, query });
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    pool.shutdown();
    p50_p99(&trips)
}

/// Nanoseconds per `TraceSink::emit` into an enabled sink with room for
/// every event.
pub fn emit_ns(events: &[TraceEvent]) -> f64 {
    if events.is_empty() {
        return 0.0;
    }
    let sink = TraceSink::new(events.len());
    let started = Instant::now();
    for &event in events {
        sink.emit(event);
    }
    let ns = started.elapsed().as_nanos() as f64;
    assert_eq!((sink.len(), sink.dropped()), (events.len(), 0));
    ns / events.len() as f64
}

/// Milliseconds to render the Chrome trace of `events`. An on-demand debug
/// dump of about 100 MB whose time swings with page-fault noise, which is
/// why no end-to-end metric includes it.
pub fn chrome_ms(events: &[TraceEvent], executors: usize) -> f64 {
    let started = Instant::now();
    black_box(chrome_trace(events, executors, "benchmark").len());
    started.elapsed().as_secs_f64() * 1e3
}

/// Milliseconds to globalize and merge `events` as two shard streams (the
/// captured stream dealt out alternately, ids already global).
pub fn shard_merge_ms(events: &[TraceEvent], queries: usize) -> f64 {
    let identity: Vec<u64> = (0..queries as u64).collect();
    let mut streams =
        [Vec::with_capacity(events.len() / 2 + 1), Vec::with_capacity(events.len() / 2)];
    for (i, &event) in events.iter().enumerate() {
        streams[i % 2].push(event);
    }
    let started = Instant::now();
    let streams: Vec<Vec<TraceEvent>> =
        streams.into_iter().map(|s| globalize_events(s, &identity, 0)).collect();
    let merged = merge_shard_events(streams);
    let ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(merged.len(), events.len());
    ms
}

/// Microseconds per steal round with nothing to steal: two threads meeting
/// at `rendezvous` and again at `exchange`, `rounds` times.
pub fn steal_round_us(rounds: usize) -> f64 {
    let coordinator = StealCoordinator::new(2, SimDuration::from_millis(50));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for shard in 0..2u16 {
            let coordinator = &coordinator;
            scope.spawn(move || {
                let mut handle = coordinator.handle(shard, Vec::new());
                for _ in 0..rounds {
                    let idle = LoadSnapshot { depth: 0, backlog_us: 0, done: false };
                    match handle.rendezvous(idle) {
                        Rendezvous::Round(plan) => assert!(plan.is_empty()),
                        Rendezvous::Stop => unreachable!("no shard is done"),
                    }
                    assert!(handle.exchange().is_empty());
                }
                handle.detach();
            });
        }
    });
    started.elapsed().as_secs_f64() * 1e6 / rounds as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemble_sim::SimTime;

    fn arrivals(n: u64) -> Vec<TraceEvent> {
        (0..n)
            .map(|q| TraceEvent::Arrival {
                t: SimTime::from_millis(q),
                query: q,
                deadline: SimTime::from_millis(q + 100),
            })
            .collect()
    }

    #[test]
    fn clock_worker_and_steal_ledgers_return_ordered_percentiles() {
        let (p50, p99) = sleep_overshoot_us(Reps::QUICK.sleeps);
        assert!(0.0 <= p50 && p50 <= p99);
        let (p50, p99) = worker_roundtrip_us(Reps::QUICK.roundtrips);
        assert!(0.0 < p50 && p50 <= p99);
        assert!(steal_round_us(Reps::QUICK.steal_rounds) > 0.0);
    }

    #[test]
    fn event_ledgers_handle_every_event_once() {
        let events = arrivals(500);
        assert!(emit_ns(&events) > 0.0);
        assert_eq!(emit_ns(&[]), 0.0);
        assert!(shard_merge_ms(&events, 500) >= 0.0);
        assert!(chrome_ms(&events, 3) >= 0.0);
    }
}
