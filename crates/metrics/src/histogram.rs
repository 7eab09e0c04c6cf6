//! One log-bucketed histogram under every latency-shaped aggregate.
//!
//! [`LogHistogram`] files `v` into bucket `⌊log2(v / floor) · per_octave⌋`
//! of one of three constant layouts — HdrHistogram's logarithmic layout
//! without its linear sub-buckets. Values below the floor (and NaN) land in
//! an underflow cell, values at or past the top edge in an overflow cell
//! that counts toward the total (`+Inf`, `_count`) and never toward a finite
//! `le` row.
//!
//! | alias | unit | per octave | range | `_sum` in | cells |
//! |---|---|---|---|---|---|
//! | [`LatencyHistogram`] | s | 8 | 100 µs – ~105 s | µs | `AtomicU64` |
//! | [`PlanHistogram`] | ns | 8 | 100 ns – ~105 ms | ns | `AtomicU64` |
//! | [`LatencyWindow`] | µs | 4 | 100 µs – ~105 s | µs | `Cell<u64>` |

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// A histogram or counter cell: `AtomicU64` where several threads record,
/// `Cell<u64>` in single-threaded folds.
pub trait Counter: Default {
    /// The current count.
    fn get(&self) -> u64;
    /// Adds `n`, clamping at `u64::MAX`: merged totals never wrap.
    fn add(&self, n: u64);
}

impl Counter for AtomicU64 {
    fn get(&self) -> u64 {
        self.load(Relaxed)
    }

    fn add(&self, n: u64) {
        let _ = self.fetch_update(Relaxed, Relaxed, |cur| Some(cur.saturating_add(n)));
    }
}

impl Counter for Cell<u64> {
    fn get(&self) -> u64 {
        Cell::get(self)
    }

    fn add(&self, n: u64) {
        self.set(Cell::get(self).saturating_add(n));
    }
}

/// A bucket layout: `buckets` buckets, `per_octave` per doubling, from
/// `floor` to the top edge `floor · 2^(buckets / per_octave)`.
struct Layout {
    floor: f64,
    per_octave: f64,
    buckets: usize,
    /// Each positive finite observation adds `⌊v · sum_scale⌋` to the sum.
    sum_scale: f64,
    /// What a quantile reports when its rank falls in bucket `[lo, hi)`.
    point: fn(f64, f64) -> f64,
}

fn midpoint(lo: f64, hi: f64) -> f64 {
    (lo * hi).sqrt()
}

const QUERY_SECONDS: usize = 0;
const PLAN_NANOS: usize = 1;
const WINDOW_MICROS: usize = 2;
const LAYOUTS: [Layout; 3] = [
    Layout { floor: 1e-4, per_octave: 8.0, buckets: 160, sum_scale: 1e6, point: midpoint },
    Layout { floor: 100.0, per_octave: 8.0, buckets: 160, sum_scale: 1.0, point: midpoint },
    // Rounded upper edges keep every number a window exports an integer.
    Layout {
        floor: 100.0,
        per_octave: 4.0,
        buckets: 80,
        sum_scale: 1.0,
        point: |_, hi| hi.round(),
    },
];

/// End-to-end latency of completed queries, in seconds; `RuntimeMetrics`
/// also files launched batch sizes in it (sizes 1 … 104 resolve).
pub type LatencyHistogram = LogHistogram<QUERY_SECONDS>;
/// Wall-clock duration of one scheduler planning pass, in nanoseconds.
pub type PlanHistogram = LogHistogram<PLAN_NANOS>;
/// Latency of the queries one SLO window closed, in microseconds.
pub type LatencyWindow = LogHistogram<WINDOW_MICROS, Cell<u64>>;

/// A log-bucketed histogram in layout `L` over [`Counter`] cells `C`. The
/// layouts are this module's constants; name a histogram by its alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram<const L: usize, C = AtomicU64> {
    buckets: Box<[C]>,
    underflow: C,
    overflow: C,
    /// Observations summed in units of `1 / sum_scale`.
    sum: C,
}

impl<const L: usize, C: Counter> Default for LogHistogram<L, C> {
    fn default() -> Self {
        let buckets = (0..LAYOUTS[L].buckets).map(|_| C::default()).collect();
        Self { buckets, underflow: C::default(), overflow: C::default(), sum: C::default() }
    }
}

impl<const L: usize, C: Counter> LogHistogram<L, C> {
    /// The one bucket-index computation: the cell `v` is filed in.
    fn cell(&self, v: f64) -> &C {
        let layout = &LAYOUTS[L];
        if v.is_nan() || v < layout.floor {
            return &self.underflow;
        }
        let i = ((v / layout.floor).log2() * layout.per_octave) as usize;
        self.buckets.get(i).unwrap_or(&self.overflow)
    }

    /// Lower edge of bucket `i`; `edge(buckets)` is the top edge.
    fn edge(i: usize) -> f64 {
        LAYOUTS[L].floor * 2f64.powf(i as f64 / LAYOUTS[L].per_octave)
    }

    /// Records one observation, in the layout's unit.
    pub fn record(&self, v: f64) {
        self.cell(v).add(1);
        if v.is_finite() && v > 0.0 {
            self.sum.add((v * LAYOUTS[L].sum_scale) as u64);
        }
    }

    /// Total observations, underflow and overflow included.
    pub fn count(&self) -> u64 {
        let outside = self.underflow.get().saturating_add(self.overflow.get());
        self.buckets.iter().fold(outside, |n, b| n.saturating_add(b.get()))
    }

    /// Sum of all observations, in the layout's unit.
    pub fn sum(&self) -> f64 {
        self.sum.get() as f64 / LAYOUTS[L].sum_scale
    }

    /// The sum cell itself: whole µs for the latency layouts, ns for planning.
    pub fn sum_raw(&self) -> u64 {
        self.sum.get()
    }

    /// Approximate `q`-quantile (0 ≤ q ≤ 1); `None` while empty. A rank in
    /// the underflow reports 0, one in a bucket the layout's point of it,
    /// one in the overflow the top edge.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = self.underflow.get();
        if seen >= target {
            return Some(0.0);
        }
        for (i, b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(b.get());
            if seen >= target {
                return Some((LAYOUTS[L].point)(Self::edge(i), Self::edge(i + 1)));
            }
        }
        Some(Self::edge(LAYOUTS[L].buckets))
    }

    /// Cumulative counts at each occupied bucket's *upper* edge, as
    /// `(upper_edge, cumulative_count)` pairs — the shape Prometheus `le`
    /// buckets want. Underflow is reported at the floor; overflow is left to
    /// the caller's `+Inf` row. Only edges where the count grows are
    /// emitted, so sparse histograms stay small.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::default();
        let mut cumulative = self.underflow.get();
        if cumulative > 0 {
            out.push((LAYOUTS[L].floor, cumulative));
        }
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.get();
            if n > 0 {
                cumulative = cumulative.saturating_add(n);
                out.push((Self::edge(i + 1), cumulative));
            }
        }
        out
    }

    /// Folds `other`'s observations into `self`, cell by cell (saturating),
    /// so merges of per-shard or per-window histograms commute.
    pub fn merge(&self, other: &Self) {
        for (dst, src) in self.cells().zip(other.cells()) {
            dst.add(src.get());
        }
    }

    fn cells(&self) -> impl Iterator<Item = &C> {
        self.buckets.iter().chain([&self.underflow, &self.overflow, &self.sum])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks the histogram's one contract with its exporters on `values`:
    /// every `(le, cum)` row counts exactly the observations below `le`,
    /// rows strictly increase, and only the total counts what lies at or
    /// past the top edge.
    fn rows_hold_exactly_the_observations_below<const L: usize, C: Counter>(values: &[f64]) {
        let h = LogHistogram::<L, C>::default();
        for &v in values {
            h.record(v);
        }
        let rows = h.cumulative_buckets();
        for &(le, cum) in &rows {
            let below = values.iter().filter(|&&v| v < le).count() as u64;
            assert_eq!(cum, below, "row le={le}");
        }
        for w in rows.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 < w[1].1, "rows strictly increase: {w:?}");
        }
        assert_eq!(h.count(), values.len() as u64);
        let top = LogHistogram::<L, C>::edge(LAYOUTS[L].buckets);
        let past_top = values.iter().filter(|&&v| v >= top).count() as u64;
        assert_eq!(h.count() - rows.last().map_or(0, |r| r.1), past_top, "overflow is +Inf only");
    }

    /// The pinned cases of layout `L`: the floor, one and two octaves up
    /// (exact edges), just above and below them, below the floor, the top
    /// edge and far past it, and a log-uniform sweep across the range.
    fn cases<const L: usize>() -> Vec<f64> {
        let floor = LAYOUTS[L].floor;
        let top = LogHistogram::<L>::edge(LAYOUTS[L].buckets);
        let mut v = vec![0.0, -1.0, floor * 0.99, floor, floor * 2.0, floor * 4.0];
        v.extend([floor * 2.0001, floor * 1.9999, top * 0.9999, top, top * 1.5, top * 1e6]);
        v.extend((0..400).map(|k| floor * 0.5 * 2f64.powf(k as f64 * 0.0631)));
        v
    }

    #[test]
    fn every_layout_counts_each_observation_only_below_the_edges_above_it() {
        rows_hold_exactly_the_observations_below::<QUERY_SECONDS, AtomicU64>(&cases::<0>());
        rows_hold_exactly_the_observations_below::<PLAN_NANOS, AtomicU64>(&cases::<1>());
        let whole_us: Vec<f64> =
            cases::<WINDOW_MICROS>().iter().map(|v| v.max(0.0).round()).collect();
        rows_hold_exactly_the_observations_below::<WINDOW_MICROS, Cell<u64>>(&whole_us);
        // A batch of 200 members is past the seconds layout's top edge:
        // +Inf and _count only, no finite row.
        let batches = LatencyHistogram::default();
        batches.record(200.0);
        assert!(batches.cumulative_buckets().is_empty());
        assert_eq!(batches.count(), 1);
        assert_eq!(
            batches.quantile(0.5),
            Some(LatencyHistogram::edge(160)),
            "reports the top edge"
        );
    }

    #[test]
    fn layouts_pin_their_edges_and_indices() {
        type S = LatencyHistogram;
        let s = S::default();
        let files = |v: f64, cell: &AtomicU64| std::ptr::eq(s.cell(v), cell);
        // Seconds: edge(i) = 1e-4 · 2^(i/8), bit for bit.
        assert_eq!(S::edge(0), 1e-4);
        assert_eq!(S::edge(3), 1e-4 * 2f64.powf(3.0 / 8.0));
        assert!((S::edge(8) - 2e-4).abs() < 1e-12, "one octave doubles");
        assert!((S::edge(16) - 4e-4).abs() < 1e-12, "two octaves quadruple");
        assert!((0..160).all(|i| S::edge(i) < S::edge(i + 1)), "edges strictly increase");
        assert!(files(1e-4, &s.buckets[0]) && files(2.0001e-4, &s.buckets[8]));
        assert!(files(9.9e-5, &s.underflow) && files(f64::NAN, &s.underflow));
        assert!(files(1e9, &s.overflow) && files(f64::INFINITY, &s.overflow));
        // Window: 4 per octave from 100 µs to 100 · 2^20 µs.
        let w = LatencyWindow::default();
        assert_eq!(LatencyWindow::edge(80), 104_857_600.0);
        assert!(std::ptr::eq(w.cell(119.0), &w.buckets[1]));
        assert!(std::ptr::eq(w.cell(104_857_599.0), &w.buckets[79]));
        // Planning: 8 per octave from 100 ns to past 100 ms.
        assert_eq!(PlanHistogram::edge(0), 100.0);
        assert!(PlanHistogram::edge(160) > 1e8);
    }

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = LatencyHistogram::default();
        for _ in 0..100 {
            h.record(0.010);
        }
        for _ in 0..5 {
            h.record(1.0);
        }
        assert_eq!(h.count(), 105);
        let p50 = h.quantile(0.5).unwrap();
        assert!((0.005..0.02).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((0.5..2.0).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn quantiles_are_integer_bucket_edges() {
        let h = LatencyWindow::default();
        for _ in 0..99 {
            h.record(10_000.0);
        }
        h.record(1_000_000.0);
        let p50 = h.quantile(0.50).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert_eq!(p50.fract(), 0.0);
        assert!((8_000.0..=14_000.0).contains(&p50), "p50 {p50}");
        assert!((8_000.0..=14_000.0).contains(&p99), "p99 {p99}: 99 of 100 at 10ms");
        assert!(h.quantile(1.0).unwrap() > 800_000.0);
        assert_eq!(h.sum_raw(), 99 * 10_000 + 1_000_000);
        assert_eq!(LatencyWindow::default().quantile(0.5), None);
        let tiny = LatencyWindow::default();
        tiny.record(10.0); // below the first edge
        assert_eq!(tiny.quantile(0.5), Some(0.0));
    }

    #[test]
    fn histogram_handles_tiny_and_zero_values() {
        let h = LatencyHistogram::default();
        h.record(0.0);
        h.record(1e-6);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.5), Some(0.0));
        assert_eq!(h.cumulative_buckets(), vec![(1e-4, 2)], "underflow is reported at the floor");
    }

    #[test]
    fn cumulative_buckets_match_prometheus_shape() {
        let h = LatencyHistogram::default();
        h.record(5e-5); // underflow
        for _ in 0..3 {
            h.record(0.010);
        }
        for _ in 0..2 {
            h.record(1.0);
        }
        let cum = h.cumulative_buckets();
        assert_eq!(cum.first().copied(), Some((1e-4, 1)));
        assert_eq!(cum.last().map(|&(_, n)| n), Some(h.count()), "last bucket holds the total");
        let edge_10ms = cum[1].0;
        assert!((0.010..0.012).contains(&edge_10ms), "upper edge {edge_10ms}");
        assert!((h.sum() - (5e-5 + 3.0 * 0.010 + 2.0)).abs() < 1e-5);
    }

    #[test]
    fn histogram_merge_is_order_insensitive() {
        let a = LatencyHistogram::default();
        let b = LatencyHistogram::default();
        for _ in 0..50 {
            a.record(0.010);
        }
        a.record(5e-5); // underflow
        a.record(500.0); // overflow
        for _ in 0..7 {
            b.record(1.0);
        }
        b.record(0.010);

        let ab = LatencyHistogram::default();
        ab.merge(&a);
        ab.merge(&b);
        let ba = LatencyHistogram::default();
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab.count(), a.count() + b.count());
        assert_eq!(ab.cumulative_buckets(), ba.cumulative_buckets());
        assert_eq!(ab.sum_raw(), a.sum_raw() + b.sum_raw());
        assert_eq!(ab.quantile(0.5), ba.quantile(0.5));
        assert_eq!(ab.quantile(1.0), Some(LatencyHistogram::edge(160)));
    }

    #[test]
    fn histogram_merge_saturates_instead_of_wrapping() {
        let a = LatencyHistogram::default();
        a.sum.store(u64::MAX - 10, Relaxed);
        a.buckets[0].store(u64::MAX - 1, Relaxed);
        let b = LatencyHistogram::default();
        b.sum.store(100, Relaxed);
        b.buckets[0].store(100, Relaxed);
        b.overflow.store(3, Relaxed);
        a.merge(&b);
        assert_eq!(a.sum_raw(), u64::MAX);
        assert_eq!(a.buckets[0].load(Relaxed), u64::MAX);
        assert_eq!(a.count(), u64::MAX);
        // A saturated count still yields a well-defined (clamped) quantile.
        assert_eq!(a.quantile(1.0), a.quantile(0.0));
    }

    #[test]
    fn single_bucket_histograms_merge_to_that_bucket() {
        let a = LatencyWindow::default();
        let b = LatencyWindow::default();
        for _ in 0..3 {
            a.record(10_000.0);
            b.record(10_000.0);
        }
        let m = LatencyWindow::default();
        m.merge(&a);
        m.merge(&b);
        assert_eq!(m.count(), 6);
        assert_eq!(m.cumulative_buckets().len(), 1);
        assert_eq!(m.quantile(0.0), m.quantile(1.0), "all mass in one bucket");
        assert_eq!(m.quantile(0.5), a.quantile(0.5));
        let empty = LatencyWindow::default();
        empty.merge(&LatencyWindow::default());
        assert_eq!((empty.count(), empty.sum_raw(), empty.quantile(0.5)), (0, 0, None));
        assert!(empty.cumulative_buckets().is_empty());
    }
}
