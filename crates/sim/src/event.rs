//! Totally ordered event queue.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled entry: fire time, tie-break sequence, payload.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. seq breaks ties deterministically in insertion order.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A future-event list with deterministic same-instant ordering.
///
/// Events scheduled for the same [`SimTime`] pop in the order they were
/// pushed, which makes whole-simulation runs reproducible regardless of heap
/// internals.
///
/// # Examples
///
/// ```
/// use schemble_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(20), "late");
/// q.push(SimTime::from_millis(10), "early");
/// assert_eq!(q.pop().unwrap().1, "early");
/// assert_eq!(q.now(), SimTime::from_millis(10));
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at time zero.
    pub fn new() -> Self {
        Self { heap: BinaryHeap::new(), next_seq: 0, now: SimTime::ZERO }
    }

    /// Current simulation clock: the fire time of the most recently popped
    /// event (or zero before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` to fire at `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock — an event in the
    /// past indicates a logic error in the caller, not a recoverable state.
    pub fn push(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: {} < now {}",
            at.as_micros(),
            self.now.as_micros()
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Pops the next event, advancing the clock to its fire time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.at;
        Some((entry.at, entry.payload))
    }

    /// Fire time of the next event, if any, without popping.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// `(fire time, sequence number)` of the next event — the key the queue
    /// orders by. With [`Self::reserve_seq`] and [`Self::advance_to`] it lets
    /// a caller keep pre-sorted events in a list of its own and merge them
    /// with the queue in the queue's own total order.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|e| (e.at, e.seq))
    }

    /// Takes the sequence number the next [`Self::push`] would have used,
    /// for an event the caller holds outside the queue.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Advances the clock to `at`, as popping an event due then would.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock.
    pub fn advance_to(&mut self, at: SimTime) {
        assert!(
            at >= self.now,
            "clock moved backwards: {} < now {}",
            at.as_micros(),
            self.now.as_micros()
        );
        self.now = at;
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), "c");
        q.push(SimTime::from_millis(10), "a");
        q.push(SimTime::from_millis(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(7));
    }

    #[test]
    fn can_push_at_current_instant_during_processing() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(1), 0u32);
        let (t, _) = q.pop().unwrap();
        q.push(t, 1); // same instant re-entry (e.g. immediate dispatch)
        q.push(t + SimDuration::from_millis(1), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn pushing_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), ());
        q.pop();
        q.push(SimTime::from_millis(5), ());
    }

    #[test]
    fn an_outside_event_merges_by_its_reserved_key() {
        // The caller holds "b" itself: its reserved sequence number places
        // it between the pushes around it, and advancing the clock to it
        // keeps the "not in the past" guard honest.
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(4);
        q.push(t, "a");
        let held = (t, q.reserve_seq());
        q.push(t, "c");
        assert!(q.peek_key().unwrap() < held);
        assert_eq!(q.pop().unwrap().1, "a");
        assert!(held < q.peek_key().unwrap());
        q.advance_to(held.0);
        assert_eq!(q.now(), t);
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.peek_key(), None);
    }

    #[test]
    #[should_panic(expected = "clock moved backwards")]
    fn advancing_into_the_past_panics() {
        let mut q = EventQueue::<()>::new();
        q.advance_to(SimTime::from_millis(2));
        q.advance_to(SimTime::from_millis(1));
    }

    #[test]
    fn peek_does_not_advance_clock() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }
}
