//! Property-based tests of the simulation engine.

use proptest::prelude::*;
use schemble_sim::{EventQueue, SimDuration, SimTime};

proptest! {
    /// Events always pop in (time, insertion) order regardless of push order.
    #[test]
    fn event_queue_is_a_stable_priority_queue(
        times in proptest::collection::vec(0u64..1000, 1..50)
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_millis(t), i);
        }
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "insertion order violated on tie");
            }
        }
    }

    /// Time arithmetic round-trips through milliseconds and seconds.
    #[test]
    fn time_conversions_roundtrip(us in 0u64..10_000_000_000) {
        let t = SimTime::from_micros(us);
        prop_assert_eq!(SimTime::from_secs_f64(t.as_secs_f64()).as_micros() as i64 - us as i64, 0);
        let d = SimDuration::from_micros(us);
        prop_assert!((d.as_millis_f64() - us as f64 / 1000.0).abs() < 1e-6);
    }
}
