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
//! [`StreamingMerge`] is the same merge over streams that are still being
//! written: it takes each shard's stream in chunks, as the shards run, and
//! emits whatever no later chunk can sort before.
//!
//! [`TraceSink`]: crate::sink::TraceSink

use crate::event::TraceEvent;
use crate::sink::TraceSink;
use schemble_sim::SimTime;

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
/// Each stream must be non-decreasing in [`TraceEvent::time`] — what a
/// shard's sink holds, its engine and backend emit in virtual-time order
/// (debug builds assert it). A stream is borrowed and walked by a cursor:
/// the next merged event is the earliest stream head, ties to the lower
/// shard id, which is exactly the order a global sort on that key would
/// produce. That head's stream keeps the lead for as long as its events
/// still sort before every other stream's head, so the whole stretch is
/// handed out as one slice. The shard count is small (a handful), so the
/// head scan is linear — no heap.
pub struct ShardMerge<'a> {
    streams: Vec<&'a [TraceEvent]>,
    /// Per stream: index of its head event.
    cursors: Vec<usize>,
    /// Per stream: its head event's time, `None` once spent. Each event's
    /// time is read once, when it is checked against the other heads.
    heads: Vec<Option<SimTime>>,
}

/// Merges borrowed shard streams, each in time order, lazily; see
/// [`ShardMerge`].
pub fn merge_shard_streams(streams: &[Vec<TraceEvent>]) -> ShardMerge<'_> {
    ShardMerge::over(streams.iter().map(Vec::as_slice).collect())
}

/// The merge order: by time, ties to the lower shard id. Within a stream
/// the cursor keeps emission order, so this is the whole tie rule.
fn merge_key(time: SimTime, shard: usize) -> (SimTime, usize) {
    (time, shard)
}

impl<'a> ShardMerge<'a> {
    /// The merge of `streams`, each already in time order.
    fn over(streams: Vec<&'a [TraceEvent]>) -> Self {
        debug_assert!(
            streams.iter().all(|s| s.windows(2).all(|w| w[0].time() <= w[1].time())),
            "a shard stream is out of time order"
        );
        let heads = streams.iter().map(|s| s.first().map(TraceEvent::time)).collect();
        ShardMerge { cursors: vec![0; streams.len()], streams, heads }
    }

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

/// The shard merge over streams that are still being written: each shard's
/// stream arrives in chunks ([`push`](StreamingMerge::push)), and
/// [`emit_before`](StreamingMerge::emit_before) hands every pending event
/// older than a horizon to a [`TraceSink`] in merge order, through
/// [`TraceSink::emit_all`].
///
/// *Precondition:* each shard's stream is non-decreasing in
/// [`TraceEvent::time`] (its engine and backend emit in backend-time order;
/// debug builds assert it per chunk). A shard that has not finished can
/// then add nothing older than its last pushed event, so every pending
/// event older than [`horizon`](StreamingMerge::horizon) — the earliest of
/// those last events over unfinished shards — sorts before everything
/// still to come. Emitting up to any horizon no later than that one, as
/// often as the caller likes, therefore writes the sink exactly as one
/// `emit_all(merge_shard_streams(..))` over the whole streams would: the
/// same ring, the same `dropped()`, the same tap sequence.
#[derive(Debug)]
pub struct StreamingMerge {
    /// Per shard: events pushed, emitted up to `emitted[shard]`.
    pending: Vec<Vec<TraceEvent>>,
    emitted: Vec<usize>,
    /// Per shard: the time of its last pushed event, zero before any.
    last: Vec<SimTime>,
    /// Per shard: its whole stream has been pushed.
    finished: Vec<bool>,
}

impl StreamingMerge {
    /// A merge over `shards` streams, none of them pushed yet.
    pub fn new(shards: usize) -> Self {
        Self {
            pending: vec![Vec::new(); shards],
            emitted: vec![0; shards],
            last: vec![SimTime::ZERO; shards],
            finished: vec![false; shards],
        }
    }

    /// Appends `chunk`, the next events of `shard`'s stream in emission
    /// order (already globalized).
    pub fn push(&mut self, shard: usize, chunk: impl IntoIterator<Item = TraceEvent>) {
        debug_assert!(!self.finished[shard], "shard {shard} pushed after it finished");
        let pending = &mut self.pending[shard];
        let start = pending.len();
        pending.extend(chunk);
        let Some(last) = pending.last() else { return };
        debug_assert!(
            pending[start..].first().is_none_or(|e| e.time() >= self.last[shard])
                && pending[start..].windows(2).all(|w| w[0].time() <= w[1].time()),
            "shard {shard} emitted out of time order"
        );
        self.last[shard] = last.time();
    }

    /// Marks `shard`'s stream complete: it no longer holds the horizon back.
    pub fn finish(&mut self, shard: usize) {
        self.finished[shard] = true;
    }

    /// True once `shard`'s stream is complete.
    pub fn is_finished(&self, shard: usize) -> bool {
        self.finished[shard]
    }

    /// True once every stream is complete.
    pub fn all_finished(&self) -> bool {
        self.finished.iter().all(|&f| f)
    }

    /// The latest horizon [`emit_before`](StreamingMerge::emit_before) may
    /// be given: the earliest last-pushed time over unfinished shards, or
    /// `None` (no bound) once every shard has finished.
    pub fn horizon(&self) -> Option<SimTime> {
        self.last.iter().zip(&self.finished).filter(|(_, &f)| !f).map(|(&t, _)| t).min()
    }

    /// Emits into `sink`, in merge order, every pending event older than
    /// `horizon` (every pending event when `None`). `horizon` must not be
    /// later than [`horizon`](StreamingMerge::horizon).
    pub fn emit_before(&mut self, horizon: Option<SimTime>, sink: &TraceSink) {
        let bound = self.horizon();
        debug_assert!(
            bound.is_none_or(|b| horizon.is_some_and(|h| h <= b)),
            "horizon {horizon:?} is past the shards' bound {bound:?}"
        );
        let before = |e: &TraceEvent| horizon.is_none_or(|h| e.time() < h);
        let cuts: Vec<usize> = self
            .pending
            .iter()
            .zip(&self.emitted)
            .map(|(pending, &from)| from + pending[from..].partition_point(before))
            .collect();
        let ready = self
            .pending
            .iter()
            .zip(&self.emitted)
            .zip(&cuts)
            .map(|((pending, &from), &to)| &pending[from..to])
            .collect();
        sink.emit_all(ShardMerge::over(ready));
        for ((pending, emitted), cut) in self.pending.iter_mut().zip(&mut self.emitted).zip(cuts) {
            *emitted = cut;
            // Drop the emitted prefix once it is at least half the buffer,
            // so each event is moved at most a bounded number of times.
            if 2 * cut >= pending.len() {
                pending.drain(..cut);
                *emitted = 0;
            }
        }
    }
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

    /// 1..=4 time-sorted streams over a handful of distinct instants, so
    /// equal timestamps are the norm within and across shards. The query id
    /// encodes `(shard, sequence)`, making every event distinct.
    pub(crate) fn sorted_streams_strategy() -> impl Strategy<Value = Vec<Vec<TraceEvent>>> {
        let times = proptest::collection::vec(proptest::collection::vec(0u64..6, 0..40), 1..=4);
        times.prop_map(|times| {
            let shards = times.len();
            times
                .into_iter()
                .enumerate()
                .map(|(shard, mut ts)| {
                    ts.sort_unstable();
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

    #[test]
    fn a_streaming_merge_emits_only_what_no_running_shard_can_precede() {
        let expired = |t, query| TraceEvent::QueryExpired { t: at(t), query };
        let sink = TraceSink::new(64);
        let mut merge = StreamingMerge::new(2);
        assert_eq!(merge.horizon(), Some(SimTime::ZERO), "nothing pushed bounds everything");
        merge.push(0, [expired(1, 0), expired(3, 1), expired(5, 2)]);
        merge.push(1, [expired(1, 3), expired(2, 4)]);
        // Shard 1 may still emit at 2 ms, so only what is older goes.
        assert_eq!(merge.horizon(), Some(at(2)));
        merge.emit_before(merge.horizon(), &sink);
        assert_eq!(sink.drain(), vec![expired(1, 0), expired(1, 3)]);
        // A finished shard holds nothing back: shard 0's events all go, the
        // equal-time tie to the lower shard id.
        merge.push(1, [expired(3, 5)]);
        merge.finish(1);
        assert_eq!(merge.horizon(), Some(at(5)));
        merge.emit_before(merge.horizon(), &sink);
        assert_eq!(sink.drain(), vec![expired(2, 4), expired(3, 1), expired(3, 5)]);
        merge.finish(0);
        assert!(merge.all_finished() && merge.horizon().is_none());
        merge.emit_before(None, &sink);
        assert_eq!(sink.drain(), vec![expired(5, 2)]);
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    #[should_panic(expected = "out of time order")]
    #[cfg(debug_assertions)]
    fn a_chunk_older_than_its_shards_last_event_is_refused() {
        let mut merge = StreamingMerge::new(1);
        merge.push(0, [TraceEvent::QueryExpired { t: at(4), query: 0 }]);
        merge.push(0, [TraceEvent::QueryExpired { t: at(3), query: 1 }]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn streaming_merge_equals_the_global_sort(
            streams in sorted_streams_strategy(),
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
