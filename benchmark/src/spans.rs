//! Spans recorded around the calls into each layer of the program.
//!
//! The benchmark wraps the program's public seams (see [`crate::timed`])
//! and records one span per call: which layer, when it started and ended,
//! and the span that was open when it started. Spans stay in a
//! preallocated buffer for the whole traced pass and are only summarised
//! and written out once the pass has ended.
//!
//! A layer's *self time* is its spans' duration minus the part of each
//! span that its child spans cover; summed over all layers, self times add
//! up to the root span exactly, which is what lets per-layer costs be read
//! as shares of the pass.

use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// The layer a span was recorded around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The whole traced pass (the driver: `run_virtual` / `run_wall` /
    /// `serve_schemble`). Its self time is what the driver itself spends:
    /// popping events, feeding arrivals, draining.
    Run,
    /// One `PipelineEngine::handle` call. `arg0`/`arg1` hold how many
    /// `ExecutionBackend` calls the engine made inside it and the
    /// nanoseconds those took (kept as a tally, not as spans: there are
    /// several per handle call and millions per pass).
    Handle,
    /// One `Scheduler::plan_into` call. `arg0` is the buffer size,
    /// `arg1` the plan's work units.
    Plan,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Run => "run",
            Layer::Handle => "core.engine.handle",
            Layer::Plan => "core.scheduler.plan_into",
        }
    }
}

/// Id of "no span": the parent of the root.
pub const NO_PARENT: u32 = 0;

/// One recorded span. Times are nanoseconds since the recorder was made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within the recorder, from 1.
    pub id: u32,
    /// Id of the span open when this one started ([`NO_PARENT`] for the
    /// root).
    pub parent: u32,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The query the call was about (`u64::MAX` when it has none) — spans
    /// of one request share it.
    pub query: u64,
    pub arg0: u64,
    pub arg1: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Query id of spans that are about no particular query.
pub const NO_QUERY: u64 = u64::MAX;

/// A span that has started and not ended yet.
#[derive(Debug)]
pub struct OpenSpan {
    id: u32,
    parent: u32,
    start_ns: u64,
}

/// Collects spans from any thread.
///
/// Nesting is tracked for one thread only — the one that drives the
/// engine: [`Recorder::begin`] makes the new span the parent of whatever
/// starts before the matching [`Recorder::end`]. Leaf spans
/// ([`Recorder::leaf`]) never become parents, so other threads may record
/// them concurrently (the sharded workload's schedulers do).
pub struct Recorder {
    origin: Instant,
    next_id: AtomicU32,
    current: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder with room for `capacity` spans before it reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            current: AtomicU32::new(NO_PARENT),
            spans: Mutex::new(Vec::with_capacity(capacity)),
        }
    }

    /// Nanoseconds since the recorder was made.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a span that may have children.
    pub fn begin(&self) -> OpenSpan {
        let id = self.next_id.fetch_add(1, Relaxed);
        let parent = self.current.swap(id, Relaxed);
        OpenSpan { id, parent, start_ns: self.now_ns() }
    }

    /// Ends `open`, recording it.
    pub fn end(&self, open: OpenSpan, layer: Layer, query: u64, arg0: u64, arg1: u64) {
        let end_ns = self.now_ns();
        self.current.store(open.parent, Relaxed);
        self.push(Span {
            id: open.id,
            parent: open.parent,
            layer,
            start_ns: open.start_ns,
            end_ns,
            query,
            arg0,
            arg1,
        });
    }

    /// Records a finished span that has no children, under whichever span
    /// is open now.
    pub fn leaf(&self, layer: Layer, start_ns: u64, end_ns: u64, query: u64, arg0: u64, arg1: u64) {
        let id = self.next_id.fetch_add(1, Relaxed);
        let parent = self.current.load(Relaxed);
        self.push(Span { id, parent, layer, start_ns, end_ns, query, arg0, arg1 });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Takes every recorded span, in the order they ended.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// Self time of every span, in nanoseconds, parallel to `spans`: the
/// span's duration minus the part of its interval that its children cover.
/// Children are clipped to the parent and overlapping children (spans
/// recorded by concurrent threads) are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    // Children grouped by parent, each group ordered by start.
    let mut order: Vec<usize> =
        (0..spans.len()).filter(|&i| spans[i].parent != NO_PARENT).collect();
    order.sort_unstable_by_key(|&i| (spans[i].parent, spans[i].start_ns));
    let mut index_of_id =
        vec![usize::MAX; spans.iter().map(|s| s.id as usize + 1).max().unwrap_or(0)];
    for (i, s) in spans.iter().enumerate() {
        index_of_id[s.id as usize] = i;
    }
    let mut out: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    let mut k = 0;
    while k < order.len() {
        let parent_id = spans[order[k]].parent;
        let parent = index_of_id.get(parent_id as usize).copied().filter(|&p| p != usize::MAX);
        let mut covered = 0u64;
        // Sweep the group, merging overlapping child intervals.
        let mut reach = parent.map_or(0, |p| spans[p].start_ns);
        while k < order.len() && spans[order[k]].parent == parent_id {
            if let Some(p) = parent {
                let child = &spans[order[k]];
                let start = child.start_ns.max(reach);
                let end = child.end_ns.min(spans[p].end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            k += 1;
        }
        if let Some(p) = parent {
            out[p] -= covered;
        }
    }
    out
}

/// Writes at most `limit` spans (the first to end) as one JSON document:
/// a header with the totals, then one object per span.
pub fn spans_json(workload: &str, spans: &[Span], limit: usize) -> String {
    use std::fmt::Write as _;
    let written = spans.len().min(limit);
    let mut out = String::with_capacity(128 + 112 * written);
    let _ = write!(
        out,
        "{{\"workload\": \"{}\", \"time_unit\": \"ns\", \"spans_recorded\": {}, \
         \"spans_written\": {}, \"spans\": [",
        crate::json::escape(workload),
        spans.len(),
        written
    );
    for (i, s) in spans[..written].iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start\": {}, \"end\": {}",
            s.id,
            s.parent,
            s.layer.name(),
            s.start_ns,
            s.end_ns
        );
        if s.query != NO_QUERY {
            let _ = write!(out, ", \"query\": {}", s.query);
        }
        match s.layer {
            Layer::Run => {}
            Layer::Handle => {
                let _ = write!(out, ", \"backend_calls\": {}, \"backend_ns\": {}", s.arg0, s.arg1);
            }
            Layer::Plan => {
                let _ = write!(out, ", \"buffer_n\": {}, \"work_units\": {}", s.arg0, s.arg1);
            }
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, layer: Layer, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, layer, start_ns, end_ns, query: NO_QUERY, arg0: 0, arg1: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            // Recorded in end order, as the recorder does: leaves first.
            span(3, 2, Layer::Plan, 20, 30),
            span(4, 2, Layer::Plan, 30, 45), // adjacent to its sibling
            span(2, 1, Layer::Handle, 10, 50),
            span(5, 1, Layer::Handle, 60, 70),
            span(1, NO_PARENT, Layer::Run, 0, 100),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![10, 15, 40 - 25, 10, 100 - 50]);
        // Self times partition the root: nothing is counted twice or lost.
        assert_eq!(own.iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let spans = vec![
            span(2, 1, Layer::Plan, 10, 40),
            span(3, 1, Layer::Plan, 30, 60), // overlaps the first (another thread)
            span(4, 1, Layer::Plan, 90, 120), // ends after its parent
            span(1, NO_PARENT, Layer::Run, 0, 100),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[3], 100 - 50 - 10);
    }

    #[test]
    fn an_orphan_span_keeps_its_whole_duration() {
        let spans = vec![span(7, 99, Layer::Plan, 5, 9)];
        assert_eq!(self_times_ns(&spans), vec![4]);
    }

    #[test]
    fn recorder_tracks_the_open_span_as_parent() {
        let rec = Recorder::with_capacity(8);
        let run = rec.begin();
        let handle = rec.begin();
        let t = rec.now_ns();
        rec.leaf(Layer::Plan, t, t + 1, 5, 2, 9);
        rec.end(handle, Layer::Handle, 5, 3, 100);
        let t = rec.now_ns();
        rec.leaf(Layer::Plan, t, t + 1, NO_QUERY, 0, 0);
        rec.end(run, Layer::Run, NO_QUERY, 0, 0);
        let spans = rec.take();
        let by_id = |id: u32| spans.iter().find(|s| s.id == id).unwrap();
        assert_eq!(spans.len(), 4);
        assert_eq!(by_id(1).parent, NO_PARENT);
        assert_eq!(by_id(2).parent, 1);
        assert_eq!(by_id(3).parent, 2, "a leaf inside the handle call is its child");
        assert_eq!(by_id(4).parent, 1, "after the handle call ended the run is the parent again");
        assert_eq!((by_id(3).query, by_id(3).arg0, by_id(3).arg1), (5, 2, 9));
        assert!(rec.take().is_empty());
    }

    #[test]
    fn dump_is_valid_json_and_honours_the_limit() {
        let spans = vec![
            Span { query: 4, arg0: 2, arg1: 77, ..span(2, 1, Layer::Plan, 1, 2) },
            Span { query: 4, arg0: 3, arg1: 50, ..span(3, 1, Layer::Handle, 0, 5) },
            span(1, NO_PARENT, Layer::Run, 0, 10),
        ];
        let text = spans_json("w", &spans, 2);
        let v = crate::json::parse(&text).unwrap();
        assert_eq!(v.get("spans_recorded").and_then(|n| n.as_f64()), Some(3.0));
        assert_eq!(v.get("spans_written").and_then(|n| n.as_f64()), Some(2.0));
        let crate::json::Value::Array(items) = v.get("spans").unwrap() else { panic!() };
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].get("work_units").and_then(|n| n.as_f64()), Some(77.0));
        assert_eq!(items[1].get("backend_ns").and_then(|n| n.as_f64()), Some(50.0));
    }
}
