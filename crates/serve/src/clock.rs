//! Mapping between simulated time and wall-clock time, and the one timer
//! every wall-clock wait goes through.
//!
//! The runtime replays workloads whose timestamps are [`SimTime`]s. A
//! [`DilatedClock`] anchors the simulation epoch to an [`Instant`] and
//! scales it by a *dilation* factor: with dilation 10, ten simulated
//! seconds elapse per wall second, so a one-day trace replays in ~2.4
//! hours and synthetic model latencies sleep for a tenth of their nominal
//! duration. Dilation 1 is faithful real time.
//!
//! A dilated replay needs waits accurate to well under a millisecond, and
//! the OS wakes a sleeping thread late by tens to hundreds of microseconds.
//! [`precise_sleep`] and [`precise_recv_timeout`] therefore OS-wait until a
//! *spin window* before their target and busy-wait the rest. The window is
//! calibrated rather than fixed: each thread keeps a streaming estimate of
//! the p95 of its own measured wake-up overshoot (a frugal quantile: one
//! up-step of 19 µs when a wake-up lands past the target, one down-step of
//! 1 µs otherwise, so the window settles where 5 % of wake-ups overshoot
//! it). A fixed window has to be sized for the worst moment and then burns
//! that much CPU on every wait, on every thread, starving the very threads
//! whose timing it protects. The window is clamped to [20 µs, 300 µs] and a
//! fresh thread starts at the ceiling, so the worst case is the old fixed
//! 300 µs spin.

use schemble_sim::{SimDuration, SimTime};
use std::cell::Cell;
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

/// A wall-clock anchored, dilated view of simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DilatedClock {
    origin: Instant,
    dilation: f64,
}

impl DilatedClock {
    /// Starts the clock: sim time `ZERO` is *now*, advancing `dilation`
    /// simulated seconds per wall second.
    ///
    /// # Panics
    /// Panics unless `dilation` is positive and finite.
    pub fn start(dilation: f64) -> Self {
        Self::starting_at(Instant::now(), dilation)
    }

    /// A clock whose sim time `ZERO` is `origin`: the shards of one
    /// stealing run share their coordinator's, so an instant means the
    /// same on every shard.
    pub(crate) fn starting_at(origin: Instant, dilation: f64) -> Self {
        assert!(dilation.is_finite() && dilation > 0.0, "dilation must be positive");
        Self { origin, dilation }
    }

    /// The dilation factor.
    pub fn dilation(&self) -> f64 {
        self.dilation
    }

    /// Current simulated time.
    pub fn now_sim(&self) -> SimTime {
        let wall = self.origin.elapsed().as_secs_f64();
        SimTime::from_secs_f64(wall * self.dilation)
    }

    /// Wall time remaining until simulated instant `t` (zero if past).
    pub fn wall_until(&self, t: SimTime) -> Duration {
        let target_wall = Duration::from_secs_f64(t.as_secs_f64() / self.dilation);
        target_wall.saturating_sub(self.origin.elapsed())
    }

    /// The wall-clock duration a simulated span occupies.
    pub fn dilate(&self, d: SimDuration) -> Duration {
        Duration::from_secs_f64(d.as_secs_f64() / self.dilation)
    }
}

/// Floor of the spin window: a thread that has not woken late in a long
/// while still keeps a short spin, because the estimate climbs only one
/// up-step per late wake-up when the OS suddenly gets slower.
const WINDOW_MIN_US: u32 = 20;
/// Ceiling of the spin window, and a fresh thread's window: the fixed spin
/// every wait used before the window was calibrated.
const WINDOW_MAX_US: u32 = 300;
/// Window growth after a wake-up that landed past the target.
const STEP_UP_US: u32 = 19;
/// Window shrink after a wake-up that landed in time. Up and down steps
/// in the ratio 19 : 1 balance where 5 % of wake-ups overshoot: the p95.
const STEP_DOWN_US: u32 = 1;

thread_local! {
    /// This thread's spin window, in microseconds.
    static WINDOW_US: Cell<u32> = const { Cell::new(WINDOW_MAX_US) };
}

/// The spin window after a wake-up `overshoot_us` past the OS wait's end,
/// given the current `window_us`: the frugal p95 step, clamped.
fn next_window(window_us: u32, overshoot_us: u32) -> u32 {
    let next = if overshoot_us > window_us {
        window_us.saturating_add(STEP_UP_US)
    } else {
        window_us.saturating_sub(STEP_DOWN_US)
    };
    next.clamp(WINDOW_MIN_US, WINDOW_MAX_US)
}

/// Waits until `target`: hands `block` the time until this thread's spin
/// window opens, then spins calling `poll`. Either cuts the wait short by
/// returning `Some`; `None` means `target` has passed. Only a wait `block`
/// saw out feeds the window estimate.
fn wait_until<T>(
    target: Instant,
    block: impl FnOnce(Duration) -> Option<T>,
    mut poll: impl FnMut() -> Option<T>,
) -> Option<T> {
    let window = WINDOW_US.get();
    if let Some(wake) = target.checked_sub(Duration::from_micros(window.into())) {
        let bulk = wake.saturating_duration_since(Instant::now());
        if !bulk.is_zero() {
            if let Some(early) = block(bulk) {
                return Some(early);
            }
            let overshoot = Instant::now().saturating_duration_since(wake).as_micros();
            WINDOW_US.set(next_window(window, u32::try_from(overshoot).unwrap_or(u32::MAX)));
        }
    }
    loop {
        if let Some(got) = poll() {
            return Some(got);
        }
        if Instant::now() >= target {
            return None;
        }
        std::hint::spin_loop();
    }
}

/// Sleeps `d` of wall time with sub-millisecond accuracy: OS sleep for the
/// bulk, then a spin through this thread's calibrated window (see the
/// module docs). Never returns before `d` has elapsed. Synthetic model
/// latencies are a few to tens of milliseconds (less when dilated), where
/// plain `thread::sleep` overshoot would distort the replay.
pub fn precise_sleep(d: Duration) {
    let target = Instant::now() + d;
    wait_until(
        target,
        |bulk| {
            std::thread::sleep(bulk);
            None::<()>
        },
        || None,
    );
}

/// [`Receiver::recv_timeout`] on the [`precise_sleep`] timer: returns a
/// message as soon as one arrives, [`RecvTimeoutError::Timeout`] no earlier
/// than `timeout` from now, and [`RecvTimeoutError::Disconnected`] once the
/// channel is empty and every sender is gone. A zero `timeout` is
/// [`Receiver::try_recv`].
pub fn precise_recv_timeout<T>(rx: &Receiver<T>, timeout: Duration) -> Result<T, RecvTimeoutError> {
    let Some(target) = Instant::now().checked_add(timeout) else {
        return rx.recv().map_err(|_| RecvTimeoutError::Disconnected);
    };
    let block = |bulk| match rx.recv_timeout(bulk) {
        Err(RecvTimeoutError::Timeout) => None,
        got => Some(got),
    };
    let poll = || match rx.try_recv() {
        Ok(msg) => Some(Ok(msg)),
        Err(TryRecvError::Disconnected) => Some(Err(RecvTimeoutError::Disconnected)),
        Err(TryRecvError::Empty) => None,
    };
    wait_until(target, block, poll).unwrap_or(Err(RecvTimeoutError::Timeout))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, sync_channel};

    #[test]
    fn dilation_scales_sim_time() {
        let clock = DilatedClock::start(100.0);
        precise_sleep(Duration::from_millis(20));
        let sim = clock.now_sim().as_secs_f64();
        // 20 ms wall at 100x ≈ 2 sim seconds; generous bounds for CI noise.
        assert!((1.5..4.0).contains(&sim), "sim {sim}");
    }

    #[test]
    fn wall_until_past_instants_is_zero() {
        let clock = DilatedClock::start(1000.0);
        precise_sleep(Duration::from_millis(5));
        assert_eq!(clock.wall_until(SimTime::from_millis(1)), Duration::ZERO);
    }

    #[test]
    fn dilate_divides_by_factor() {
        let clock = DilatedClock::start(10.0);
        let wall = clock.dilate(SimDuration::from_millis(100));
        assert_eq!(wall, Duration::from_millis(10));
    }

    /// A deterministic overshoot stream, uniform over `lo..hi` µs.
    fn uniform(lo: u32, hi: u32) -> impl Iterator<Item = u32> {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        std::iter::repeat_with(move || {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            lo + ((state >> 33) % u64::from(hi - lo)) as u32
        })
    }

    /// Feeds `stream` to the estimator from a fresh thread's window: the
    /// window after `warmup` steps, then its mean over the next 4 000.
    fn settle(stream: impl Iterator<Item = u32>, warmup: usize) -> (u32, f64) {
        let mut window = WINDOW_MAX_US;
        let mut stream = stream;
        for over in stream.by_ref().take(warmup) {
            window = next_window(window, over);
        }
        let settled = window;
        let mut sum = 0.0;
        for over in stream.take(4_000) {
            window = next_window(window, over);
            sum += f64::from(window);
        }
        (settled, sum / 4_000.0)
    }

    #[test]
    fn window_converges_to_the_overshoot_p95() {
        // From the ceiling, a stream of p95 190 µs within 1 000 wake-ups
        // and one of p95 116 µs within 2 000 (the down-step is 1 µs).
        for (lo, hi, p95, steps) in [(0, 200, 190.0, 1_000), (40, 120, 116.0, 2_000)] {
            let (settled, mean) = settle(uniform(lo, hi), steps);
            assert!((f64::from(settled) - p95).abs() <= 25.0, "{lo}..{hi}: at {settled}");
            assert!((mean - p95).abs() <= 8.0, "{lo}..{hi}: mean {mean:.1} vs p95 {p95}");
        }
    }

    #[test]
    fn window_never_leaves_its_clamp() {
        let streams: [&mut dyn Iterator<Item = u32>; 3] =
            [&mut std::iter::repeat(0), &mut std::iter::repeat(u32::MAX), &mut uniform(0, 1_000)];
        for stream in streams {
            let mut window = WINDOW_MAX_US;
            for over in stream.take(1_000) {
                window = next_window(window, over);
                assert!((WINDOW_MIN_US..=WINDOW_MAX_US).contains(&window), "{window}");
            }
        }
        assert_eq!(settle(std::iter::repeat(0), 300).0, WINDOW_MIN_US, "no overshoot: floor");
        assert_eq!(settle(std::iter::repeat(5_000), 1).0, WINDOW_MAX_US, "all late: ceiling");
    }

    #[test]
    fn one_outlier_moves_the_window_one_up_step() {
        for window in WINDOW_MIN_US..=WINDOW_MAX_US {
            let next = next_window(window, 5_000);
            assert!(next > window || window == WINDOW_MAX_US);
            assert!(next - window <= STEP_UP_US, "{window} -> {next}");
        }
    }

    /// Runs `f` on a thread of its own, so it starts from a fresh window.
    fn fresh_thread(f: impl FnOnce() + Send + 'static) {
        std::thread::spawn(f).join().expect("timer contract holds");
    }

    /// Zero, one microsecond, either side of a fresh thread's window (the
    /// pure-spin and the sleep-then-spin paths), and a long wait.
    const DURATIONS_US: [u64; 5] =
        [0, 1, WINDOW_MAX_US as u64 - 5, WINDOW_MAX_US as u64 + 5, 2_000];

    #[test]
    fn waits_never_end_before_their_target() {
        fresh_thread(|| {
            let (_tx, rx) = channel::<()>();
            for us in DURATIONS_US {
                let d = Duration::from_micros(us);
                let start = Instant::now();
                precise_sleep(d);
                assert!(start.elapsed() >= d, "precise_sleep({us} µs) woke early");
                let start = Instant::now();
                assert_eq!(precise_recv_timeout(&rx, d), Err(RecvTimeoutError::Timeout));
                assert!(start.elapsed() >= d, "receive timed out early at {us} µs");
            }
        });
    }

    #[test]
    fn a_message_ends_the_wait_at_once() {
        fresh_thread(|| {
            let (tx, rx) = sync_channel(1);
            let sender = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(1));
                tx.send(7).unwrap();
            });
            let start = Instant::now();
            assert_eq!(precise_recv_timeout(&rx, Duration::from_secs(5)), Ok(7));
            assert!(start.elapsed() < Duration::from_secs(1), "took {:?}", start.elapsed());
            sender.join().unwrap();
        });
    }

    #[test]
    fn a_zero_timeout_is_try_recv() {
        fresh_thread(|| {
            let (tx, rx) = channel();
            assert_eq!(precise_recv_timeout(&rx, Duration::ZERO), Err(RecvTimeoutError::Timeout));
            tx.send(3).unwrap();
            assert_eq!(precise_recv_timeout(&rx, Duration::ZERO), Ok(3));
            drop(tx);
            let got = precise_recv_timeout(&rx, Duration::ZERO);
            assert_eq!(got, Err(RecvTimeoutError::Disconnected));
        });
    }

    #[test]
    fn dropping_every_sender_disconnects_after_the_backlog() {
        fresh_thread(|| {
            for us in DURATIONS_US {
                let (tx, rx) = channel();
                tx.send(1).unwrap();
                drop(tx);
                let d = Duration::from_micros(us);
                assert_eq!(precise_recv_timeout(&rx, d), Ok(1), "backlog first");
                assert_eq!(precise_recv_timeout(&rx, d), Err(RecvTimeoutError::Disconnected));
            }
            // A sender dropped mid-wait ends the wait too.
            let (tx, rx) = channel::<()>();
            let dropper = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(1));
                drop(tx);
            });
            let start = Instant::now();
            let got = precise_recv_timeout(&rx, Duration::from_secs(5));
            assert_eq!(got, Err(RecvTimeoutError::Disconnected));
            assert!(start.elapsed() < Duration::from_secs(1), "took {:?}", start.elapsed());
            dropper.join().unwrap();
        });
    }
}
