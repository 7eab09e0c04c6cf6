//! The trace sink: a bounded, lock-light event buffer plus the scheduler's
//! always-on self-profile.
//!
//! Emission is gated by one relaxed atomic load ([`TraceSink::is_enabled`]),
//! so a disabled sink costs the hot path a single branch. Enabled emission
//! takes a short mutex on the ring buffer — every emitter in both runtimes
//! (engine decisions, backend task events) runs on the scheduler thread, so
//! the lock is effectively uncontended; it exists so observer threads can
//! snapshot safely. When the buffer is full, *new* events are dropped and
//! counted ([`TraceSink::dropped`]) rather than evicting history — a
//! truncated trace with an honest drop count beats a silently rewritten one.

use crate::event::TraceEvent;
use schemble_metrics::PlanHistogram;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Default ring-buffer capacity (events).
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// The scheduler's self-profile: how long planning actually takes.
///
/// Recorded on **every** plan regardless of whether event tracing is
/// enabled — the paper's Sec. VI scheduling-overhead measurement as a
/// first-class metric. All fields are relaxed atomics; recording is a
/// wall-clock measurement and never feeds back into decisions.
#[derive(Debug, Default)]
pub struct PlanningProfile {
    /// Plans produced.
    pub plans: AtomicU64,
    /// Total abstract work units consumed across plans.
    pub work_units: AtomicU64,
    /// Wall-clock planning time per plan, in nanoseconds (100 ns to
    /// ~105 ms); its sum is the total time spent planning.
    pub hist: PlanHistogram,
}

impl PlanningProfile {
    /// Records one planning pass: its abstract work and real duration.
    pub fn record(&self, work: u64, wall: Duration) {
        self.plans.fetch_add(1, Relaxed);
        self.work_units.fetch_add(work, Relaxed);
        self.hist.record(wall.as_nanos() as f64);
    }

    /// Mean wall-clock planning time in seconds, if any plan ran.
    pub fn mean_secs(&self) -> Option<f64> {
        let n = self.plans.load(Relaxed);
        (n > 0).then(|| self.hist.sum() / 1e9 / n as f64)
    }

    /// Folds `other`'s profile into `self` (order-insensitive): used to
    /// aggregate the per-shard scheduler self-profiles of a sharded serve
    /// run into one exportable profile.
    pub fn merge(&self, other: &PlanningProfile) {
        self.plans.fetch_add(other.plans.load(Relaxed), Relaxed);
        self.work_units.fetch_add(other.work_units.load(Relaxed), Relaxed);
        self.hist.merge(&other.hist);
    }
}

#[derive(Debug)]
struct Ring {
    events: Vec<TraceEvent>,
    capacity: usize,
}

/// A secondary, live consumer of the event stream (e.g. the observability
/// crate's flight recorder). Called synchronously from [`TraceSink::emit`]
/// on the emitting (scheduler) thread, *before* the enabled check — a tap
/// sees every event even when the ring buffer is off. Taps must be cheap
/// and must never feed back into decisions.
pub trait EventTap: Send + Sync {
    /// Observes one emitted event.
    fn on_event(&self, event: TraceEvent);
}

/// The shared event sink engines and backends emit into.
pub struct TraceSink {
    enabled: AtomicBool,
    ring: Mutex<Ring>,
    dropped: AtomicU64,
    /// One relaxed load gates the tap dispatch so untapped emission stays a
    /// branch, mirroring the `enabled` gate on the ring.
    has_tap: AtomicBool,
    tap: Mutex<Option<Arc<dyn EventTap>>>,
    /// Scheduler self-profiling (always on).
    pub planning: PlanningProfile,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("enabled", &self.is_enabled())
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .field("tapped", &self.has_tap.load(Relaxed))
            .finish()
    }
}

impl TraceSink {
    /// An enabled sink bounded at `capacity` events.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            enabled: AtomicBool::new(true),
            ring: Mutex::new(Ring { events: Vec::new(), capacity: capacity.max(1) }),
            dropped: AtomicU64::new(0),
            has_tap: AtomicBool::new(false),
            tap: Mutex::new(None),
            planning: PlanningProfile::default(),
        })
    }

    /// An enabled sink whose ring is allocated at `capacity` once, here,
    /// instead of doubling as events arrive. Pages the run never writes are
    /// never resident, so this costs address space, not memory; a capacity
    /// the allocator refuses falls back to growing on demand. For rings
    /// filled on short-lived threads (the sharded serve path): a buffer
    /// regrown there lands in whichever allocator arena the thread drew,
    /// and the process's peak memory then differs from run to run.
    pub fn preallocated(capacity: usize) -> Arc<Self> {
        let sink = Self::new(capacity);
        let _ = sink.ring.lock().expect("trace ring poisoned").events.try_reserve_exact(capacity);
        sink
    }

    /// An enabled sink at the default capacity.
    pub fn enabled() -> Arc<Self> {
        Self::new(DEFAULT_CAPACITY)
    }

    /// A disabled sink: emission is a no-op (one atomic load), planning
    /// self-profiling still records. The default for untraced runs. It
    /// keeps the default capacity, so enabling it later — or sizing shard
    /// sinks from it when only a tap observes — behaves like `enabled()`.
    pub fn disabled() -> Arc<Self> {
        let sink = Self::enabled();
        sink.enabled.store(false, Relaxed);
        sink
    }

    /// True when event emission is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Relaxed)
    }

    /// Turns event emission on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Relaxed);
    }

    /// Installs (or removes) the live event tap. Set it before the run
    /// starts: the emitting thread reads it under the tap lock, so swapping
    /// mid-run is safe but may briefly block emission.
    pub fn set_tap(&self, tap: Option<Arc<dyn EventTap>>) {
        let mut slot = self.tap.lock().expect("trace tap poisoned");
        self.has_tap.store(tap.is_some(), Relaxed);
        *slot = tap;
    }

    /// The installed tap, if any (shards propagate the parent sink's tap).
    pub fn tap(&self) -> Option<Arc<dyn EventTap>> {
        self.tap.lock().expect("trace tap poisoned").clone()
    }

    /// True when somebody consumes emitted events: the ring is enabled or a
    /// tap is installed. Engines gate *observability-only* computation
    /// (e.g. predicted-finish replay for `PlanAssign`) on this so untraced
    /// runs pay nothing; the gate never changes a decision.
    #[inline]
    pub fn observing(&self) -> bool {
        self.is_enabled() || self.has_tap.load(Relaxed)
    }

    /// Records one event (no-op while disabled; counted-drop when full).
    /// An installed tap sees the event even while the ring is disabled.
    #[inline]
    pub fn emit(&self, event: TraceEvent) {
        if self.has_tap.load(Relaxed) {
            if let Some(tap) = &*self.tap.lock().expect("trace tap poisoned") {
                tap.on_event(event);
            }
        }
        if !self.is_enabled() {
            return;
        }
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        if ring.events.len() >= ring.capacity {
            drop(ring);
            self.dropped.fetch_add(1, Relaxed);
            return;
        }
        ring.events.push(event);
    }

    /// Records an ordered batch exactly as one [`emit`](TraceSink::emit)
    /// per event would — the tap sees every event in order, a disabled ring
    /// stores nothing, events past the capacity are counted as dropped —
    /// but takes the tap lock and the ring lock once each and grows the
    /// ring once, to the size it will end at. The sharded serve path hands
    /// its merged shard streams over through this.
    pub fn emit_all(&self, events: impl ExactSizeIterator<Item = TraceEvent>) {
        let tap_slot =
            self.has_tap.load(Relaxed).then(|| self.tap.lock().expect("trace tap poisoned"));
        let tap = tap_slot.as_ref().and_then(|slot| slot.as_deref());
        if !self.is_enabled() {
            if let Some(tap) = tap {
                events.for_each(|event| tap.on_event(event));
            }
            return;
        }
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        let room = ring.capacity.saturating_sub(ring.events.len());
        ring.events.reserve_exact(events.len().min(room));
        let mut dropped = 0u64;
        for event in events {
            if let Some(tap) = tap {
                tap.on_event(event);
            }
            if ring.events.len() < ring.capacity {
                ring.events.push(event);
            } else {
                dropped += 1;
            }
        }
        self.dropped.fetch_add(dropped, Relaxed);
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Relaxed)
    }

    /// Counts `n` events lost upstream of this sink as dropped: a sharded
    /// run's per-shard rings fill (and drop) before their streams reach the
    /// outer sink, and its count must own up to those too.
    pub fn add_dropped(&self, n: u64) {
        self.dropped.fetch_add(n, Relaxed);
    }

    /// The most events the ring holds before it starts dropping.
    pub fn capacity(&self) -> usize {
        self.ring.lock().expect("trace ring poisoned").capacity
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("trace ring poisoned").events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes every buffered event, leaving the sink empty.
    pub fn drain(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.ring.lock().expect("trace ring poisoned").events)
    }

    /// A copy of the buffered events (the run can keep going).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.ring.lock().expect("trace ring poisoned").events.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemble_sim::SimTime;

    fn arrival(q: u64) -> TraceEvent {
        TraceEvent::Arrival { t: SimTime::from_millis(q), query: q, deadline: SimTime::ZERO }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::disabled();
        sink.emit(arrival(1));
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn full_ring_drops_new_events_with_a_count() {
        let sink = TraceSink::new(2);
        for q in 0..5 {
            sink.emit(arrival(q));
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 3);
        let events = sink.drain();
        assert_eq!(events, vec![arrival(0), arrival(1)]);
        assert!(sink.is_empty());
    }

    #[test]
    fn planning_profile_accumulates_even_when_disabled() {
        let sink = TraceSink::disabled();
        sink.planning.record(100, Duration::from_micros(250));
        sink.planning.record(300, Duration::from_micros(750));
        assert_eq!(sink.planning.plans.load(Relaxed), 2);
        assert_eq!(sink.planning.work_units.load(Relaxed), 400);
        let mean = sink.planning.mean_secs().expect("two plans recorded");
        assert!((mean - 500e-6).abs() < 1e-9, "mean {mean}");
        assert_eq!(sink.planning.hist.count(), 2);
    }

    #[test]
    fn a_plan_of_five_microseconds_is_resolved_not_floored() {
        let planning = PlanningProfile::default();
        planning.record(1, Duration::from_micros(5));
        let p95_us = planning.hist.quantile(0.95).expect("one plan") / 1e3;
        assert!((p95_us / 5.0 - 1.0).abs() < 2f64.powf(1.0 / 8.0) - 1.0, "p95 {p95_us} us");
        planning.record(1, Duration::from_nanos(1_234));
        assert_eq!(planning.hist.sum_raw(), 6_234, "the sum keeps whole nanoseconds");
    }

    #[test]
    fn tap_sees_events_even_while_ring_is_disabled() {
        struct Counter(AtomicU64);
        impl EventTap for Counter {
            fn on_event(&self, _event: TraceEvent) {
                self.0.fetch_add(1, Relaxed);
            }
        }
        let sink = TraceSink::disabled();
        assert!(!sink.observing());
        let tap = Arc::new(Counter(AtomicU64::new(0)));
        sink.set_tap(Some(tap.clone()));
        assert!(sink.observing(), "a tap makes the sink observing");
        sink.emit(arrival(1));
        sink.emit(arrival(2));
        assert_eq!(tap.0.load(Relaxed), 2, "tap sees every event");
        assert!(sink.is_empty(), "disabled ring still records nothing");
        sink.set_tap(None);
        sink.emit(arrival(3));
        assert_eq!(tap.0.load(Relaxed), 2, "removed tap sees nothing");
        assert!(!sink.observing());
    }

    #[test]
    fn snapshot_preserves_buffer_drain_clears_it() {
        let sink = TraceSink::enabled();
        sink.emit(arrival(7));
        assert_eq!(sink.snapshot().len(), 1);
        assert_eq!(sink.len(), 1, "snapshot must not consume");
        assert_eq!(sink.drain().len(), 1);
        assert!(sink.is_empty());
    }

    /// A tap that keeps what it saw, in call order.
    #[derive(Default)]
    struct Recording(Mutex<Vec<TraceEvent>>);
    impl EventTap for Recording {
        fn on_event(&self, event: TraceEvent) {
            self.0.lock().unwrap().push(event);
        }
    }

    /// Ring contents, drop count and tap call sequence after `preload`
    /// single emits followed by `batch` events, emitted in bulk or singly.
    fn after_emitting(
        capacity: usize,
        enabled: bool,
        preload: u64,
        batch: u64,
        bulk: bool,
    ) -> (Vec<TraceEvent>, u64, Vec<TraceEvent>) {
        let sink = TraceSink::new(capacity);
        sink.set_enabled(enabled);
        let tap = Arc::new(Recording::default());
        sink.set_tap(Some(tap.clone()));
        (0..preload).for_each(|q| sink.emit(arrival(q)));
        let events: Vec<TraceEvent> = (preload..preload + batch).map(arrival).collect();
        if bulk {
            sink.emit_all(events.into_iter());
        } else {
            events.into_iter().for_each(|event| sink.emit(event));
        }
        let seen = tap.0.lock().unwrap().clone();
        (sink.drain(), sink.dropped(), seen)
    }

    #[test]
    fn bulk_emit_equals_single_emits() {
        // (capacity, enabled, preloaded, batch): room to spare, exactly
        // full, one past the boundary, a ring already full, a ring disabled
        // but tapped, and an empty batch.
        for (capacity, enabled, preload, batch) in [
            (16, true, 0, 5),
            (5, true, 0, 5),
            (5, true, 0, 6),
            (8, true, 3, 5),
            (8, true, 3, 9),
            (4, true, 4, 3),
            (8, false, 0, 5),
            (8, true, 2, 0),
        ] {
            let bulk = after_emitting(capacity, enabled, preload, batch, true);
            let single = after_emitting(capacity, enabled, preload, batch, false);
            assert_eq!(bulk, single, "capacity {capacity} enabled {enabled} {preload}+{batch}");
            assert_eq!(bulk.2.len() as u64, preload + batch, "the tap sees every event");
        }
    }

    #[test]
    fn bulk_emit_without_a_tap_stores_and_counts() {
        let sink = TraceSink::new(3);
        sink.emit_all((0..5u32).map(|q| arrival(q.into())));
        assert_eq!(sink.drain(), vec![arrival(0), arrival(1), arrival(2)]);
        assert_eq!(sink.dropped(), 2);
        sink.add_dropped(4);
        assert_eq!(sink.dropped(), 6, "upstream losses fold into the same count");
        let dark = TraceSink::disabled();
        dark.emit_all((0..5u32).map(|q| arrival(q.into())));
        assert!(dark.is_empty());
        assert_eq!(dark.dropped(), 0);
        assert_eq!(dark.capacity(), DEFAULT_CAPACITY);
    }

    #[test]
    fn a_preallocated_ring_never_regrows_and_bounds_like_any_other() {
        let sink = TraceSink::preallocated(3);
        let allocated = sink.ring.lock().unwrap().events.capacity();
        assert!(allocated >= 3);
        (0..5).for_each(|q| sink.emit(arrival(q)));
        assert_eq!(sink.ring.lock().unwrap().events.capacity(), allocated);
        assert_eq!(sink.drain(), vec![arrival(0), arrival(1), arrival(2)]);
        assert_eq!(sink.dropped(), 2);
        // A bound no allocator can honour is still a valid bound.
        let vast = TraceSink::preallocated(usize::MAX);
        vast.emit(arrival(0));
        assert_eq!((vast.len(), vast.capacity()), (1, usize::MAX));
    }
}
