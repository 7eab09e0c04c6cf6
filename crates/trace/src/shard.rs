//! Cross-shard trace aggregation.
//!
//! A sharded serve run gives every shard its own [`TraceSink`]; each shard
//! records events in its *local* namespace (query ids index the shard's
//! sub-workload, executor ids index its private executor replica). Merging
//! happens in two steps:
//!
//! 1. [`globalize_events`] rewrites one shard's stream into the global
//!    namespace — query ids through the shard's local→global map, executor
//!    ids offset by `shard * executors_per_shard`.
//! 2. [`merge_shard_streams`] (collected: [`merge_shard_events`]) combines
//!    the globalized streams into one stream ordered by `(backend time,
//!    shard id, within-shard sequence)` — a k-way merge, because each
//!    shard's stream is already in time order.
//!
//! Both steps are pure functions of the per-shard streams, and the merge
//! key is a total order independent of which shard thread finished first,
//! so the merged trace is invariant to thread interleaving — the property
//! the serve crate's shard proptests pin.
//!
//! [`TraceSink`]: crate::sink::TraceSink

use crate::event::TraceEvent;
use schemble_sim::SimTime;
use std::borrow::Cow;

/// Rewrites `event` from a shard-local namespace into the global one.
///
/// `query_map[local]` is the global query id; `executor_offset` is added to
/// every executor index (shard `s` with `m` executors per shard passes
/// `s * m`).
pub fn globalize_event(
    mut event: TraceEvent,
    query_map: &[u64],
    executor_offset: u16,
) -> TraceEvent {
    // Batch ids stay shard-local (they are only unique per backend):
    // exporters key membership on (executor, launch instant), which the
    // offset keeps globally unambiguous. `QueryStolen`'s victim/thief are
    // *shard* ids, already global; only its query id (thief-local, appended
    // to the thief's map at adoption) rewrites.
    let (query, executor) = event.ids_mut();
    if let Some(q) = query {
        *q = query_map[*q as usize];
    }
    if let Some(e) = executor {
        *e += executor_offset;
    }
    event
}

/// [`globalize_event`] over a whole shard stream.
pub fn globalize_events(
    events: Vec<TraceEvent>,
    query_map: &[u64],
    executor_offset: u16,
) -> Vec<TraceEvent> {
    events.into_iter().map(|ev| globalize_event(ev, query_map, executor_offset)).collect()
}

/// A streaming k-way merge over per-shard event streams (indexed by shard
/// id), yielding them in `(time, shard, within-shard sequence)` order as
/// maximal runs of consecutive events from one stream
/// ([`next_run`](ShardMerge::next_run)).
///
/// A stream that is non-decreasing in [`TraceEvent::time`] — what a shard's
/// sink holds, its engine and backend emit in virtual-time order — is
/// borrowed and walked by a cursor: the next merged event is the earliest
/// stream head, ties to the lower shard id, which is exactly the order a
/// global sort on that key would produce. That head's stream keeps the
/// lead for as long as its events still sort before every other stream's
/// head, so the whole stretch is handed out as one slice. A stream that is
/// *not* sorted is copied and stable-sorted by time first, which puts it in
/// `(time, sequence)` order and so leaves the merged order unchanged. The
/// shard count is small (a handful), so the head scan is linear — no heap.
pub struct ShardMerge<'a> {
    streams: Vec<Cow<'a, [TraceEvent]>>,
    /// Per stream: index of its head event.
    cursors: Vec<usize>,
    /// Per stream: its head event's time, `None` once spent. Each event's
    /// time is read once, when it is checked against the other heads.
    heads: Vec<Option<SimTime>>,
}

/// Merges borrowed shard streams lazily; see [`ShardMerge`].
pub fn merge_shard_streams(streams: &[Vec<TraceEvent>]) -> ShardMerge<'_> {
    let streams: Vec<Cow<'_, [TraceEvent]>> = streams
        .iter()
        .map(|stream| {
            if stream.windows(2).all(|w| w[0].time() <= w[1].time()) {
                Cow::Borrowed(stream.as_slice())
            } else {
                let mut sorted = stream.clone();
                sorted.sort_by_key(TraceEvent::time);
                Cow::Owned(sorted)
            }
        })
        .collect();
    let heads = streams.iter().map(|s| s.first().map(TraceEvent::time)).collect();
    ShardMerge { cursors: vec![0; streams.len()], streams, heads }
}

/// The merge order: by time, ties to the lower shard id. Within a stream
/// the cursor keeps emission order, so this is the whole tie rule.
fn merge_key(time: SimTime, shard: usize) -> (SimTime, usize) {
    (time, shard)
}

impl ShardMerge<'_> {
    /// The next run of the merged order: the longest stretch of one
    /// stream whose events all sort before every other stream's head.
    /// `None` once every stream is spent.
    pub fn next_run(&mut self) -> Option<&[TraceEvent]> {
        // The earliest head and the runner-up, under `merge_key`.
        let mut best: Option<(SimTime, usize)> = None;
        let mut runner_up: Option<(SimTime, usize)> = None;
        for (shard, head) in self.heads.iter().enumerate() {
            let Some(time) = *head else { continue };
            let key = merge_key(time, shard);
            if best.is_none_or(|b| key < b) {
                runner_up = best;
                best = Some(key);
            } else if runner_up.is_none_or(|r| key < r) {
                runner_up = Some(key);
            }
        }
        let (_, shard) = best?;
        let stream = &self.streams[shard];
        let start = self.cursors[shard];
        self.heads[shard] = None;
        let mut end = start + 1;
        match runner_up {
            // The only stream left is one run.
            None => end = stream.len(),
            Some(bound) => {
                while let Some(event) = stream.get(end) {
                    let time = event.time();
                    if merge_key(time, shard) > bound {
                        self.heads[shard] = Some(time);
                        break;
                    }
                    end += 1;
                }
            }
        }
        self.cursors[shard] = end;
        Some(&stream[start..end])
    }

    /// Events not yet handed out.
    pub fn len(&self) -> usize {
        self.streams.iter().zip(&self.cursors).map(|(s, &c)| s.len() - c).sum()
    }

    /// True once every stream is spent.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Merges per-shard event streams (indexed by shard id) into one stream
/// ordered by `(time, shard, within-shard sequence)`: [`merge_shard_streams`]
/// collected run by run into a vector of exact capacity.
///
/// The key is a total order over all events that depends only on the
/// streams' contents, never on which shard thread delivered its stream
/// first — merging in any shard order yields byte-identical output.
pub fn merge_shard_events(streams: Vec<Vec<TraceEvent>>) -> Vec<TraceEvent> {
    let mut merge = merge_shard_streams(&streams);
    let mut merged = Vec::with_capacity(merge.len());
    while let Some(run) = merge.next_run() {
        merged.extend_from_slice(run);
    }
    merged
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::event::AdmissionVerdict;
    use proptest::prelude::*;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// The sort-based merge the streaming one replaced, kept as the oracle:
    /// key every event by `(time, shard, sequence)` and sort globally.
    fn merge_by_global_sort(streams: &[Vec<TraceEvent>]) -> Vec<TraceEvent> {
        let mut keyed: Vec<((SimTime, usize, usize), TraceEvent)> = Vec::new();
        for (shard, stream) in streams.iter().enumerate() {
            for (seq, &ev) in stream.iter().enumerate() {
                keyed.push(((ev.time(), shard, seq), ev));
            }
        }
        keyed.sort_unstable_by_key(|&(key, _)| key);
        keyed.into_iter().map(|(_, ev)| ev).collect()
    }

    #[test]
    fn globalize_rewrites_queries_and_executors() {
        let map = vec![10, 42, 77];
        let events = vec![
            TraceEvent::Arrival { t: at(0), query: 1, deadline: at(50) },
            TraceEvent::Admission {
                t: at(0),
                query: 1,
                verdict: AdmissionVerdict::FastPath { executor: 2 },
            },
            TraceEvent::TaskStart { t: at(1), query: 1, executor: 2 },
            TraceEvent::ExecutorDown { t: at(2), executor: 0 },
            TraceEvent::QueryDone { t: at(3), query: 2, set: 0b1 },
        ];
        let out = globalize_events(events, &map, 5);
        assert_eq!(out[0], TraceEvent::Arrival { t: at(0), query: 42, deadline: at(50) });
        assert_eq!(
            out[1],
            TraceEvent::Admission {
                t: at(0),
                query: 42,
                verdict: AdmissionVerdict::FastPath { executor: 7 },
            }
        );
        assert_eq!(out[2], TraceEvent::TaskStart { t: at(1), query: 42, executor: 7 });
        assert_eq!(out[3], TraceEvent::ExecutorDown { t: at(2), executor: 5 });
        assert_eq!(out[4], TraceEvent::QueryDone { t: at(3), query: 77, set: 0b1 });
    }

    #[test]
    fn merge_orders_by_time_then_shard_and_ignores_stream_arrival_order() {
        let shard0 = vec![
            TraceEvent::Arrival { t: at(0), query: 0, deadline: at(9) },
            TraceEvent::QueryDone { t: at(5), query: 0, set: 0b1 },
        ];
        let shard1 = vec![
            TraceEvent::Arrival { t: at(0), query: 1, deadline: at(9) },
            TraceEvent::QueryDone { t: at(3), query: 1, set: 0b1 },
        ];
        let merged = merge_shard_events(vec![shard0.clone(), shard1.clone()]);
        // Equal times break by shard id; later times follow.
        assert_eq!(merged[0], shard0[0]);
        assert_eq!(merged[1], shard1[0]);
        assert_eq!(merged[2], shard1[1]);
        assert_eq!(merged[3], shard0[1]);
        // The merge is a function of the (indexed) streams, so re-merging
        // the same streams gives identical output regardless of how the
        // shard threads raced to produce them.
        assert_eq!(merged, merge_shard_events(vec![shard0, shard1]));
    }

    #[test]
    fn within_shard_order_is_preserved_at_equal_times() {
        let shard = vec![
            TraceEvent::TaskStart { t: at(4), query: 0, executor: 0 },
            TraceEvent::TaskDone { t: at(4), query: 0, executor: 0 },
            TraceEvent::QueryDone { t: at(4), query: 0, set: 0b1 },
        ];
        let merged = merge_shard_events(vec![shard.clone()]);
        assert_eq!(merged, shard, "equal-time events keep their emission order");
    }

    #[test]
    fn empty_and_single_streams_merge_to_themselves() {
        assert!(merge_shard_events(Vec::new()).is_empty());
        assert!(merge_shard_events(vec![Vec::new(), Vec::new()]).is_empty());
        let only = vec![
            TraceEvent::Arrival { t: at(1), query: 0, deadline: at(9) },
            TraceEvent::QueryDone { t: at(2), query: 0, set: 0b1 },
        ];
        assert_eq!(merge_shard_events(vec![only.clone()]), only);
        // Empty streams between non-empty ones neither yield nor shift ids.
        let merged = merge_shard_events(vec![Vec::new(), only.clone(), Vec::new()]);
        assert_eq!(merged, only);
        let mut merge = merge_shard_streams(std::slice::from_ref(&only));
        assert_eq!(merge.len(), 2);
        assert_eq!(merge.next_run(), Some(only.as_slice()), "one stream is one run");
        assert!(merge.is_empty() && merge.next_run().is_none());
    }

    #[test]
    fn unsorted_stream_falls_back_to_a_stable_sort_of_that_stream() {
        // Shard 1 runs backwards in time; its equal-time pair must keep its
        // emission order, and shard 0 still wins the cross-shard tie.
        let shard0 = vec![TraceEvent::Arrival { t: at(2), query: 0, deadline: at(9) }];
        let shard1 = vec![
            TraceEvent::QueryDone { t: at(3), query: 1, set: 0b1 },
            TraceEvent::TaskStart { t: at(2), query: 1, executor: 0 },
            TraceEvent::TaskDone { t: at(2), query: 1, executor: 0 },
        ];
        let merged = merge_shard_events(vec![shard0.clone(), shard1.clone()]);
        assert_eq!(merged, vec![shard0[0], shard1[1], shard1[2], shard1[0]]);
        assert_eq!(merged, merge_by_global_sort(&[shard0, shard1]));
    }

    /// 1..=4 streams over a handful of distinct instants, so equal
    /// timestamps are the norm within and across shards. Streams are built
    /// time-sorted; `scramble` reverses one to exercise the fallback. The
    /// query id encodes `(shard, sequence)`, making every event distinct.
    pub(crate) fn streams_strategy() -> impl Strategy<Value = Vec<Vec<TraceEvent>>> {
        (proptest::collection::vec(proptest::collection::vec(0u64..6, 0..40), 1..=4), 0usize..8)
            .prop_map(|(times, scramble)| {
                let shards = times.len();
                times
                    .into_iter()
                    .enumerate()
                    .map(|(shard, mut ts)| {
                        ts.sort_unstable();
                        if scramble == shard {
                            ts.reverse();
                        }
                        ts.into_iter()
                            .enumerate()
                            .map(|(seq, t)| TraceEvent::QueryExpired {
                                t: at(t),
                                query: (seq * shards + shard) as u64,
                            })
                            .collect()
                    })
                    .collect()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn streaming_merge_equals_the_global_sort(
            streams in streams_strategy(),
            rotate in 0usize..4,
        ) {
            let oracle = merge_by_global_sort(&streams);
            prop_assert_eq!(&merge_shard_events(streams.clone()), &oracle);
            // Runs are maximal: consecutive runs come from different streams.
            let mut merge = merge_shard_streams(&streams);
            let mut last_stream = None;
            let stream_of = |e: &TraceEvent| e.query().map(|q| q as usize % streams.len());
            while let Some(run) = merge.next_run() {
                prop_assert!(!run.is_empty());
                let stream = stream_of(&run[0]);
                prop_assert!(run.iter().all(|e| stream_of(e) == stream));
                prop_assert_ne!(stream, last_stream);
                last_stream = stream;
            }
            // Hand the streams over in another order, ids kept: the merge
            // reads them by shard id, so the result cannot change.
            let shards = streams.len();
            let mut handed: Vec<(usize, Vec<TraceEvent>)> =
                streams.into_iter().enumerate().collect();
            handed.rotate_left(rotate % shards);
            let mut by_id = vec![Vec::new(); shards];
            for (shard, stream) in handed {
                by_id[shard] = stream;
            }
            prop_assert_eq!(&merge_shard_events(by_id), &oracle);
        }
    }
}
