//! Windowed SLO time-series over the trace stream.
//!
//! Backend time is divided into fixed-width windows held in a fixed-capacity
//! ring keyed by the *absolute* window index, so a long run holds the most
//! recent `capacity` windows and evicts the oldest in O(1). Each window
//! keeps one [`SloCounters`] set (arrival/terminal counters, scheduler
//! overhead sums) and a [`LatencyWindow`], the integer-µs instantiation of
//! `schemble_metrics`' one log-bucketed histogram; the run totals are one
//! more `SloCounters`, exempt from eviction, and every `on_*` event updates
//! window and totals through one path. All aggregation is integer
//! arithmetic over event fields — folding the same stream always yields
//! byte-identical exports, which is what lets the DES and the virtual-clock
//! serve backend cross-validate their telemetry.

pub use schemble_metrics::LatencyWindow;
use schemble_sim::{SimDuration, SimTime};

/// Ring-slot sentinel: no window stored.
const EMPTY_SLOT: u64 = u64::MAX;

/// One exported SLO counter: NDJSON key, Prometheus family, help text, value.
type Exported = (&'static str, &'static str, &'static str, fn(&SloCounters) -> u64);

/// The SLO counters every export carries, in export order. `stolen` is not
/// among them: exports carry it only when the run stole work.
pub(crate) const EXPORTED_COUNTERS: [Exported; 11] = [
    ("arrivals", "schemble_obs_arrivals_total", "Query arrivals observed.", |c| c.arrivals),
    ("completed", "schemble_obs_completed_total", "Full completions observed.", |c| c.completed),
    ("degraded", "schemble_obs_degraded_total", "Degraded answers observed.", |c| c.degraded),
    ("expired", "schemble_obs_expired_total", "Post-admission expiries observed.", |c| c.expired),
    ("rejected", "schemble_obs_rejected_total", "Admission rejections observed.", |c| c.rejected),
    ("missed", "schemble_obs_deadline_missed_total", "Terminal events past deadline.", |c| {
        c.missed
    }),
    ("failures", "schemble_obs_task_failures_total", "Task failures observed.", |c| c.failures),
    ("retries", "schemble_obs_task_retries_total", "Task retries observed.", |c| c.retries),
    ("plans", "schemble_obs_plans_total", "Planning passes observed.", |c| c.plans),
    (
        "sched_cost_us",
        "schemble_obs_sched_cost_micros_total",
        "Simulated scheduling cost charged, microseconds.",
        |c| c.sched_cost_us,
    ),
    ("plan_work", "schemble_obs_plan_work_total", "Scheduler work units consumed.", |c| {
        c.plan_work
    }),
];

/// The SLO counters: one set per window and one for the whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SloCounters {
    /// Query arrivals.
    pub arrivals: u64,
    /// Queries completed with a full result.
    pub completed: u64,
    /// Queries answered from a partial ensemble.
    pub degraded: u64,
    /// Queries dropped after admission.
    pub expired: u64,
    /// Queries refused at arrival.
    pub rejected: u64,
    /// Terminal events past the query's deadline (every expiry; late
    /// completions and degradations).
    pub missed: u64,
    /// Task failures.
    pub failures: u64,
    /// Task retries dispatched.
    pub retries: u64,
    /// Planning passes.
    pub plans: u64,
    /// Simulated scheduling cost charged, microseconds.
    pub sched_cost_us: u64,
    /// Abstract scheduler work units consumed.
    pub plan_work: u64,
    /// Queries adopted by a thief shard via work stealing.
    pub stolen: u64,
}

impl SloCounters {
    /// Adds `other`, counter by counter.
    fn add(&mut self, other: &SloCounters) {
        self.arrivals += other.arrivals;
        self.completed += other.completed;
        self.degraded += other.degraded;
        self.expired += other.expired;
        self.rejected += other.rejected;
        self.missed += other.missed;
        self.failures += other.failures;
        self.retries += other.retries;
        self.plans += other.plans;
        self.sched_cost_us += other.sched_cost_us;
        self.plan_work += other.plan_work;
        self.stolen += other.stolen;
    }
}

/// Aggregates for one time window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Absolute window index (`t / window_us`).
    pub index: u64,
    /// The window's counters.
    pub counts: SloCounters,
    /// End-to-end latency of queries closed in this window.
    pub latency: LatencyWindow,
    /// Open queries when the window closed (`None` until a later window
    /// opens; the export stamps the live value for the newest window).
    pub open_at_end: Option<u64>,
}

impl WindowStats {
    /// The window's `q`-quantile latency as an integer bucket edge in µs
    /// (0 while the window closed no query).
    pub(crate) fn latency_us(&self, q: f64) -> u64 {
        self.latency.quantile(q).map_or(0, |us| us as u64)
    }
}

/// The windowed ring: most recent `capacity` windows by absolute index.
#[derive(Debug, Clone)]
pub struct SloSeries {
    window_us: u64,
    slots: Vec<WindowStats>,
    /// Highest window index seen (`EMPTY_SLOT` until the first event).
    max_index: u64,
    /// Open queries right now (arrivals − terminals − rejections).
    live_open: u64,
    /// Run totals.
    pub totals: SloCounters,
}

impl SloSeries {
    /// A series with `window` wide windows and room for `capacity` of them.
    pub fn new(window: SimDuration, capacity: usize) -> Self {
        let mut slots = vec![WindowStats::default(); capacity.max(1)];
        for s in &mut slots {
            s.index = EMPTY_SLOT;
        }
        Self {
            window_us: window.as_micros().max(1),
            slots,
            max_index: EMPTY_SLOT,
            live_open: 0,
            totals: SloCounters::default(),
        }
    }

    /// Window width, microseconds.
    pub fn window_us(&self) -> u64 {
        self.window_us
    }

    /// Open queries right now.
    pub fn live_open(&self) -> u64 {
        self.live_open
    }

    fn index_of(&self, t: SimTime) -> u64 {
        t.as_micros() / self.window_us
    }

    /// Advances the ring to the window holding `t` and returns its slot
    /// index. Called *before* the event's own gauge updates so the closing
    /// window is stamped with the queue depth as it stood at the boundary.
    /// Returns `None` for an event older than the ring's oldest retained
    /// window — impossible for the sorted streams the fold consumes, but
    /// tolerated so a malformed input degrades to totals-only accounting.
    fn touch(&mut self, t: SimTime) -> Option<usize> {
        let idx = self.index_of(t);
        let cap = self.slots.len() as u64;
        if self.max_index == EMPTY_SLOT || idx > self.max_index {
            // Advancing: the previously-newest window is now closed; stamp
            // its end-of-window queue depth before any later event mutates
            // the live gauge.
            if self.max_index != EMPTY_SLOT {
                let prev = &mut self.slots[(self.max_index % cap) as usize];
                if prev.index == self.max_index {
                    prev.open_at_end = Some(self.live_open);
                }
            }
            self.max_index = idx;
        } else if idx + cap <= self.max_index {
            return None; // Older than anything retained.
        }
        let slot_idx = (idx % cap) as usize;
        let slot = &mut self.slots[slot_idx];
        if slot.index != idx {
            *slot = WindowStats { index: idx, ..WindowStats::default() };
        }
        Some(slot_idx)
    }

    /// Applies `count` to the run totals and to the window holding `t`;
    /// returns that window's slot.
    fn count(&mut self, t: SimTime, count: impl Fn(&mut SloCounters)) -> Option<usize> {
        let slot = self.touch(t);
        count(&mut self.totals);
        if let Some(i) = slot {
            count(&mut self.slots[i].counts);
        }
        slot
    }

    /// Counts a terminal event, closes its query and files its end-to-end
    /// latency (answered queries only) in the window.
    fn close(&mut self, t: SimTime, latency_us: Option<u64>, count: impl Fn(&mut SloCounters)) {
        if let (Some(i), Some(us)) = (self.count(t, count), latency_us) {
            self.slots[i].latency.record(us as f64);
        }
        self.live_open = self.live_open.saturating_sub(1);
    }

    /// Records a query arrival.
    pub fn on_arrival(&mut self, t: SimTime) {
        self.count(t, |c| c.arrivals += 1);
        self.live_open += 1;
    }

    /// Records an admission rejection.
    pub fn on_rejected(&mut self, t: SimTime) {
        self.close(t, None, |c| c.rejected += 1);
    }

    /// Records a full completion; `latency_us` is end-to-end, `missed` marks
    /// a past-deadline finish.
    pub fn on_completed(&mut self, t: SimTime, latency_us: u64, missed: bool) {
        self.close(t, Some(latency_us), |c| {
            c.completed += 1;
            c.missed += missed as u64;
        });
    }

    /// Records a degraded answer.
    pub fn on_degraded(&mut self, t: SimTime, latency_us: u64, missed: bool) {
        self.close(t, Some(latency_us), |c| {
            c.degraded += 1;
            c.missed += missed as u64;
        });
    }

    /// Records a post-admission expiry (always a deadline miss).
    pub fn on_expired(&mut self, t: SimTime) {
        self.close(t, None, |c| {
            c.expired += 1;
            c.missed += 1;
        });
    }

    /// Records one planning pass.
    pub fn on_plan(&mut self, t: SimTime, cost: SimDuration, work: u64) {
        self.count(t, |c| {
            c.plans += 1;
            c.sched_cost_us += cost.as_micros();
            c.plan_work += work;
        });
    }

    /// Records a task failure.
    pub fn on_task_failed(&mut self, t: SimTime) {
        self.count(t, |c| c.failures += 1);
    }

    /// Records a task retry.
    pub fn on_task_retried(&mut self, t: SimTime) {
        self.count(t, |c| c.retries += 1);
    }

    /// Records a work-steal adoption. The query stays open (stealing moves
    /// it between shards without closing it), so only the counters move.
    pub fn on_stolen(&mut self, t: SimTime) {
        self.count(t, |c| c.stolen += 1);
    }

    /// The retained windows in ascending index order, with the newest
    /// window's queue depth stamped from the live gauge. A slot whose window
    /// was logically evicted by a far jump (its index now trails the newest
    /// by at least the capacity) is excluded even if nothing overwrote it.
    pub fn windows(&self) -> Vec<WindowStats> {
        let cap = self.slots.len() as u64;
        let mut out: Vec<WindowStats> = self
            .slots
            .iter()
            .filter(|s| s.index != EMPTY_SLOT && s.index + cap > self.max_index)
            .cloned()
            .collect();
        out.sort_by_key(|w| w.index);
        if let Some(last) = out.last_mut() {
            if last.open_at_end.is_none() {
                last.open_at_end = Some(self.live_open);
            }
        }
        out
    }

    /// Merges two series (e.g. per-shard folds) window-by-absolute-index:
    /// counters add, histograms merge, queue depths add (each shard's open
    /// set is disjoint). Both series must share the window width. The result
    /// keeps the larger capacity and the most recent windows.
    pub fn merged(&self, other: &SloSeries) -> SloSeries {
        assert_eq!(self.window_us, other.window_us, "window widths must match to merge");
        let mut out =
            SloSeries::new(SimDuration(self.window_us), self.slots.len().max(other.slots.len()));
        let mut all = self.windows();
        all.extend(other.windows());
        all.sort_by_key(|w| w.index);
        let cap = out.slots.len() as u64;
        for w in all {
            if out.max_index == EMPTY_SLOT || w.index > out.max_index {
                out.max_index = w.index;
            }
            if w.index + cap <= out.max_index {
                continue;
            }
            let slot = &mut out.slots[(w.index % cap) as usize];
            if slot.index != w.index {
                *slot = WindowStats { index: w.index, ..WindowStats::default() };
                slot.open_at_end = Some(0);
            }
            slot.counts.add(&w.counts);
            slot.latency.merge(&w.latency);
            slot.open_at_end = match (slot.open_at_end, w.open_at_end) {
                (Some(a), Some(b)) => Some(a + b),
                _ => None,
            };
        }
        out.totals = self.totals;
        out.totals.add(&other.totals);
        out.live_open = self.live_open + other.live_open;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn windows_partition_time_and_aggregate_counts() {
        let mut s = SloSeries::new(SimDuration::from_millis(100), 16);
        s.on_arrival(at(10));
        s.on_arrival(at(20));
        s.on_completed(at(150), 140_000, false);
        s.on_expired(at(250));
        let ws = s.windows();
        assert_eq!(ws.len(), 3);
        assert_eq!((ws[0].index, ws[0].counts.arrivals), (0, 2));
        assert_eq!((ws[1].index, ws[1].counts.completed), (1, 1));
        assert_eq!((ws[2].index, ws[2].counts.expired, ws[2].counts.missed), (2, 1, 1));
        // Queue depth: 2 open after window 0, 1 after window 1, 0 now.
        assert_eq!(ws[0].open_at_end, Some(2));
        assert_eq!(ws[1].open_at_end, Some(1));
        assert_eq!(ws[2].open_at_end, Some(0));
        assert_eq!(s.totals.arrivals, 2);
        assert_eq!(s.totals.missed, 1);
    }

    #[test]
    fn ring_wraps_and_keeps_only_the_newest_windows() {
        let mut s = SloSeries::new(SimDuration::from_millis(10), 4);
        for w in 0..10u64 {
            s.on_arrival(SimTime::from_micros(w * 10_000 + 1));
            s.on_completed(SimTime::from_micros(w * 10_000 + 2), 500, false);
        }
        let ws = s.windows();
        assert_eq!(ws.len(), 4, "capacity bounds the retained windows");
        assert_eq!(ws.iter().map(|w| w.index).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        // Totals survive eviction.
        assert_eq!(s.totals.arrivals, 10);
        assert_eq!(s.totals.completed, 10);
        // A fresh arrival far in the future evicts everything else.
        s.on_arrival(SimTime::from_micros(100 * 10_000));
        let ws = s.windows();
        assert_eq!(ws.last().unwrap().index, 100);
        assert!(ws.iter().all(|w| w.index + 4 > 100));
    }

    #[test]
    fn sparse_streams_skip_empty_windows() {
        let mut s = SloSeries::new(SimDuration::from_millis(10), 8);
        s.on_arrival(at(5));
        s.on_completed(at(65), 60_000, true);
        let ws = s.windows();
        assert_eq!(ws.iter().map(|w| w.index).collect::<Vec<_>>(), vec![0, 6]);
        assert_eq!(ws[1].counts.missed, 1);
    }

    #[test]
    fn merging_two_shards_adds_counts_and_depths() {
        let mut a = SloSeries::new(SimDuration::from_millis(100), 8);
        let mut b = SloSeries::new(SimDuration::from_millis(100), 8);
        a.on_arrival(at(10));
        a.on_completed(at(50), 40_000, false);
        b.on_arrival(at(20));
        b.on_arrival(at(120));
        let m = a.merged(&b);
        let ws = m.windows();
        assert_eq!(ws[0].counts.arrivals, 2);
        assert_eq!(ws[0].counts.completed, 1);
        assert_eq!(ws[1].counts.arrivals, 1);
        assert_eq!(m.totals.arrivals, 3);
        assert_eq!(m.live_open(), 2);
        // Merge is symmetric.
        let m2 = b.merged(&a);
        assert_eq!(m.windows(), m2.windows());
        assert_eq!(m.totals, m2.totals);
    }
}
