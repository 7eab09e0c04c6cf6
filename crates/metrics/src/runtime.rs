//! Lock-light live metrics for the serving runtime (`schemble-serve`).
//!
//! The runtime's hot path (scheduler loop, worker threads) updates plain
//! atomics; observers take consistent-enough [`RuntimeSnapshot`]s without
//! stopping the world. Counters use `Relaxed` ordering throughout — each
//! value is independently meaningful and monotone, which is all a metrics
//! export needs.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Saturating atomic add: `dst += n`, clamping at `u64::MAX` instead of
/// wrapping. Merging counters from many shards must never wrap a total.
fn sat_add(dst: &AtomicU64, n: u64) {
    if n == 0 {
        return;
    }
    // fetch_update with a pure closure never fails permanently under Relaxed.
    let _ = dst.fetch_update(Relaxed, Relaxed, |cur| Some(cur.saturating_add(n)));
}

/// Query- and task-level counters shared between the runtime and observers.
///
/// Query conservation invariant (checked by `schemble-serve`'s property
/// tests): `submitted == completed + degraded + rejected + expired + open`,
/// and at drain `open == 0`.
#[derive(Debug, Default)]
pub struct RuntimeCounters {
    /// Queries handed to the pipeline (arrival events delivered).
    pub submitted: AtomicU64,
    /// Queries that finished with a full assembled result.
    pub completed: AtomicU64,
    /// Queries answered from a partial ensemble after task failures or at
    /// the deadline (graceful degradation).
    pub degraded: AtomicU64,
    /// Queries refused at arrival (admission control).
    pub rejected: AtomicU64,
    /// Queries dropped after admission (deadline passed before completion).
    pub expired: AtomicU64,
    /// Tasks started on executors.
    pub tasks_started: AtomicU64,
    /// Tasks finished by executors.
    pub tasks_completed: AtomicU64,
    /// Tasks that failed (transient fault, timeout kill, executor crash).
    pub tasks_failed: AtomicU64,
    /// Failed tasks that were re-dispatched after backoff.
    pub tasks_retried: AtomicU64,
    /// Planned tasks quit by the anytime policy before completing (the
    /// partial ensemble was already confident enough).
    pub tasks_saved: AtomicU64,
    /// Tasks launched as members of a cross-query batch (sum of launched
    /// batch sizes, singleton batches included).
    pub tasks_batched: AtomicU64,
    /// Queries transferred between shards by work stealing. Counted on the
    /// thief at adoption; conservation is unaffected because the victim's
    /// `submitted` and the thief's terminal outcome still pair up globally.
    pub queries_stolen: AtomicU64,
}

impl RuntimeCounters {
    /// A zeroed counter block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds `other`'s counts into `self` (saturating).
    ///
    /// Addition is commutative and associative, so merging any number of
    /// per-shard counter blocks in any order produces the same totals —
    /// the property cross-shard aggregation relies on.
    pub fn merge(&self, other: &RuntimeCounters) {
        sat_add(&self.submitted, other.submitted.load(Relaxed));
        sat_add(&self.completed, other.completed.load(Relaxed));
        sat_add(&self.degraded, other.degraded.load(Relaxed));
        sat_add(&self.rejected, other.rejected.load(Relaxed));
        sat_add(&self.expired, other.expired.load(Relaxed));
        sat_add(&self.tasks_started, other.tasks_started.load(Relaxed));
        sat_add(&self.tasks_completed, other.tasks_completed.load(Relaxed));
        sat_add(&self.tasks_failed, other.tasks_failed.load(Relaxed));
        sat_add(&self.tasks_retried, other.tasks_retried.load(Relaxed));
        sat_add(&self.tasks_saved, other.tasks_saved.load(Relaxed));
        sat_add(&self.tasks_batched, other.tasks_batched.load(Relaxed));
        sat_add(&self.queries_stolen, other.queries_stolen.load(Relaxed));
    }

    /// Queries submitted but not yet decided.
    pub fn open(&self) -> u64 {
        let submitted = self.submitted.load(Relaxed);
        let closed = self.completed.load(Relaxed)
            + self.degraded.load(Relaxed)
            + self.rejected.load(Relaxed)
            + self.expired.load(Relaxed);
        submitted.saturating_sub(closed)
    }
}

/// Per-executor gauges: queue depth, liveness and cumulative busy time.
#[derive(Debug)]
pub struct ExecutorGauges {
    /// Tasks waiting in the executor's FIFO backlog.
    pub queue_depth: AtomicU64,
    /// 1 while a task is running, 0 while idle.
    pub running: AtomicU64,
    /// 1 while the executor is up, 0 while crashed/dead.
    pub up: AtomicU64,
    /// Cumulative busy time, in simulated microseconds.
    pub busy_micros: AtomicU64,
    /// Tasks completed by this executor.
    pub tasks: AtomicU64,
}

impl Default for ExecutorGauges {
    fn default() -> Self {
        Self {
            queue_depth: AtomicU64::new(0),
            running: AtomicU64::new(0),
            up: AtomicU64::new(1),
            busy_micros: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
        }
    }
}

impl ExecutorGauges {
    /// A point-in-time copy of the gauge values (used when concatenating
    /// per-shard gauge blocks into one merged metrics view).
    pub fn copied(&self) -> ExecutorGauges {
        ExecutorGauges {
            queue_depth: AtomicU64::new(self.queue_depth.load(Relaxed)),
            running: AtomicU64::new(self.running.load(Relaxed)),
            up: AtomicU64::new(self.up.load(Relaxed)),
            busy_micros: AtomicU64::new(self.busy_micros.load(Relaxed)),
            tasks: AtomicU64::new(self.tasks.load(Relaxed)),
        }
    }
}

/// A fixed-bucket, log-spaced latency histogram with atomic counts.
///
/// Buckets span 100 µs to ~100 s with 8 buckets per octave; one update is a
/// single relaxed `fetch_add`, so worker threads can record without
/// coordination.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    /// Values below the first bucket edge.
    underflow: AtomicU64,
    /// Sum of all observations, in microseconds (for exporter `_sum` rows).
    sum_micros: AtomicU64,
}

/// Number of histogram buckets (8 per octave over 20 octaves).
const HIST_BUCKETS: usize = 160;
/// Lower edge of bucket 0, seconds.
const HIST_MIN_SECS: f64 = 1e-4;
/// Buckets per factor-of-two.
const HIST_PER_OCTAVE: f64 = 8.0;

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            underflow: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }

    fn bucket_of(secs: f64) -> Option<usize> {
        if secs.is_nan() || secs < HIST_MIN_SECS {
            return None;
        }
        let idx = ((secs / HIST_MIN_SECS).log2() * HIST_PER_OCTAVE) as usize;
        Some(idx.min(HIST_BUCKETS - 1))
    }

    /// Lower edge of bucket `i`, seconds.
    fn edge(i: usize) -> f64 {
        HIST_MIN_SECS * 2f64.powf(i as f64 / HIST_PER_OCTAVE)
    }

    /// Records one latency observation.
    pub fn record(&self, secs: f64) {
        match Self::bucket_of(secs) {
            Some(i) => self.buckets[i].fetch_add(1, Relaxed),
            None => self.underflow.fetch_add(1, Relaxed),
        };
        if secs.is_finite() && secs > 0.0 {
            self.sum_micros.fetch_add((secs * 1e6) as u64, Relaxed);
        }
    }

    /// Sum of all observations, in seconds (µs resolution).
    pub fn sum_secs(&self) -> f64 {
        self.sum_micros.load(Relaxed) as f64 / 1e6
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.underflow.load(Relaxed) + self.buckets.iter().map(|b| b.load(Relaxed)).sum::<u64>()
    }

    /// Approximate `q`-quantile (0 ≤ q ≤ 1) from bucket edges; `None` while
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow.load(Relaxed);
        if seen >= target {
            return Some(0.0);
        }
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Relaxed);
            if seen >= target {
                // Report the bucket's geometric midpoint.
                return Some((Self::edge(i) * Self::edge(i + 1)).sqrt());
            }
        }
        Some(Self::edge(HIST_BUCKETS))
    }

    /// Cumulative counts at each occupied bucket's *upper* edge, as
    /// `(upper_edge_secs, cumulative_count)` pairs — the shape Prometheus
    /// `le` buckets want. Only edges where the cumulative count grows are
    /// emitted, so sparse histograms stay small.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut cumulative = self.underflow.load(Relaxed);
        if cumulative > 0 {
            out.push((HIST_MIN_SECS, cumulative));
        }
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Relaxed);
            if n > 0 {
                cumulative += n;
                out.push((Self::edge(i + 1), cumulative));
            }
        }
        out
    }

    /// Folds `other`'s observations into `self` (saturating, bucket-wise).
    ///
    /// Both histograms share the fixed bucket layout, so the merge is a
    /// pairwise add; like [`RuntimeCounters::merge`] it is order-insensitive,
    /// which makes cross-shard histogram aggregation deterministic no matter
    /// which shard finishes first.
    pub fn merge(&self, other: &LatencyHistogram) {
        for (dst, src) in self.buckets.iter().zip(other.buckets.iter()) {
            sat_add(dst, src.load(Relaxed));
        }
        sat_add(&self.underflow, other.underflow.load(Relaxed));
        sat_add(&self.sum_micros, other.sum_micros.load(Relaxed));
    }
}

/// Everything the runtime exposes to observers, behind one allocation.
#[derive(Debug)]
pub struct RuntimeMetrics {
    /// Query/task counters.
    pub counters: RuntimeCounters,
    /// Per-executor gauges, fixed at construction.
    pub executors: Vec<ExecutorGauges>,
    /// End-to-end latency of completed queries.
    pub latency: LatencyHistogram,
    /// Size of each launched batch. The histogram machinery is shared with
    /// latency, so "observations" here are batch sizes (1, 2, …), not
    /// seconds; the log-spaced buckets resolve sizes up to the low hundreds.
    pub batch_size: LatencyHistogram,
}

impl RuntimeMetrics {
    /// Metrics for a runtime with `executors` executors.
    pub fn new(executors: usize) -> Self {
        Self {
            counters: RuntimeCounters::new(),
            executors: (0..executors).map(|_| ExecutorGauges::default()).collect(),
            latency: LatencyHistogram::new(),
            batch_size: LatencyHistogram::new(),
        }
    }

    /// Aggregates per-shard metrics blocks into one view: counters and
    /// latency histograms are merged (order-insensitive), executor gauges
    /// are concatenated in the order given, so shard `s`'s executor `k`
    /// lands at global index `s * m + k`.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a RuntimeMetrics>) -> RuntimeMetrics {
        let mut out = RuntimeMetrics::new(0);
        for part in parts {
            out.counters.merge(&part.counters);
            out.latency.merge(&part.latency);
            out.batch_size.merge(&part.batch_size);
            out.executors.extend(part.executors.iter().map(ExecutorGauges::copied));
        }
        out
    }

    /// Takes a point-in-time snapshot. `elapsed_secs` is the (simulated)
    /// time base for utilisation; pass the run's elapsed sim time.
    pub fn snapshot(&self, elapsed_secs: f64) -> RuntimeSnapshot {
        let c = &self.counters;
        RuntimeSnapshot {
            submitted: c.submitted.load(Relaxed),
            completed: c.completed.load(Relaxed),
            degraded: c.degraded.load(Relaxed),
            rejected: c.rejected.load(Relaxed),
            expired: c.expired.load(Relaxed),
            open: c.open(),
            tasks_started: c.tasks_started.load(Relaxed),
            tasks_completed: c.tasks_completed.load(Relaxed),
            tasks_failed: c.tasks_failed.load(Relaxed),
            tasks_retried: c.tasks_retried.load(Relaxed),
            tasks_saved: c.tasks_saved.load(Relaxed),
            tasks_batched: c.tasks_batched.load(Relaxed),
            queries_stolen: c.queries_stolen.load(Relaxed),
            up: self.executors.iter().map(|e| e.up.load(Relaxed) == 1).collect(),
            queue_depths: self
                .executors
                .iter()
                .map(|e| e.queue_depth.load(Relaxed) as usize)
                .collect(),
            running: self.executors.iter().map(|e| e.running.load(Relaxed) == 1).collect(),
            utilization: self
                .executors
                .iter()
                .map(|e| {
                    if elapsed_secs > 0.0 {
                        (e.busy_micros.load(Relaxed) as f64 / 1e6 / elapsed_secs).min(1.0)
                    } else {
                        0.0
                    }
                })
                .collect(),
            latency_p50: self.latency.quantile(0.50),
            latency_p95: self.latency.quantile(0.95),
            latency_p99: self.latency.quantile(0.99),
        }
    }
}

/// A point-in-time view of [`RuntimeMetrics`], safe to print or export.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeSnapshot {
    /// Queries handed to the pipeline.
    pub submitted: u64,
    /// Queries completed with a full result.
    pub completed: u64,
    /// Queries answered from a partial ensemble.
    pub degraded: u64,
    /// Queries refused at arrival.
    pub rejected: u64,
    /// Queries dropped after admission.
    pub expired: u64,
    /// Queries still in flight.
    pub open: u64,
    /// Tasks started on executors.
    pub tasks_started: u64,
    /// Tasks finished by executors.
    pub tasks_completed: u64,
    /// Tasks that failed.
    pub tasks_failed: u64,
    /// Failed tasks re-dispatched after backoff.
    pub tasks_retried: u64,
    /// Planned tasks quit early by the anytime policy.
    pub tasks_saved: u64,
    /// Tasks launched as members of a cross-query batch.
    pub tasks_batched: u64,
    /// Queries transferred between shards by work stealing.
    pub queries_stolen: u64,
    /// Whether each executor is up.
    pub up: Vec<bool>,
    /// Backlog length per executor.
    pub queue_depths: Vec<usize>,
    /// Whether each executor is mid-task.
    pub running: Vec<bool>,
    /// Fraction of elapsed time each executor was busy.
    pub utilization: Vec<f64>,
    /// Median completed-query latency, seconds.
    pub latency_p50: Option<f64>,
    /// 95th-percentile completed-query latency, seconds.
    pub latency_p95: Option<f64>,
    /// 99th-percentile completed-query latency, seconds.
    pub latency_p99: Option<f64>,
}

impl RuntimeSnapshot {
    /// One-line human-readable form for periodic progress output.
    pub fn brief(&self) -> String {
        format!(
            "submitted {} | completed {} | degraded {} | rejected {} | expired {} | open {} | queues {:?} | util {}",
            self.submitted,
            self.completed,
            self.degraded,
            self.rejected,
            self.expired,
            self.open,
            self.queue_depths,
            self.utilization
                .iter()
                .map(|u| format!("{:.0}%", u * 100.0))
                .collect::<Vec<_>>()
                .join("/"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_conserve_queries() {
        let c = RuntimeCounters::new();
        c.submitted.fetch_add(10, Relaxed);
        c.completed.fetch_add(5, Relaxed);
        c.degraded.fetch_add(1, Relaxed);
        c.rejected.fetch_add(1, Relaxed);
        c.expired.fetch_add(2, Relaxed);
        assert_eq!(c.open(), 1, "degraded queries are closed, not open");
    }

    #[test]
    fn executors_default_to_up() {
        let m = RuntimeMetrics::new(2);
        let s = m.snapshot(0.0);
        assert_eq!(s.up, vec![true, true]);
        m.executors[1].up.store(0, Relaxed);
        assert_eq!(m.snapshot(0.0).up, vec![true, false]);
    }

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = LatencyHistogram::new();
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
    fn histogram_handles_tiny_and_zero_values() {
        let h = LatencyHistogram::new();
        h.record(0.0);
        h.record(1e-6);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.5), Some(0.0));
    }

    #[test]
    fn log_bucket_boundaries_pin_to_spec() {
        // The histogram spans 1e-4 s upward with 8 buckets per octave:
        // edge(i) = 1e-4 * 2^(i/8). Pin the boundaries so a silent change
        // to the bucket layout breaks loudly (exporters and dashboards
        // depend on these edges).
        assert_eq!(LatencyHistogram::edge(0), HIST_MIN_SECS);
        assert!((LatencyHistogram::edge(8) - 2e-4).abs() < 1e-12, "one octave doubles");
        assert!((LatencyHistogram::edge(16) - 4e-4).abs() < 1e-12, "two octaves quadruple");
        for i in 0..HIST_BUCKETS {
            assert!(
                LatencyHistogram::edge(i) < LatencyHistogram::edge(i + 1),
                "edges must be strictly increasing at {i}"
            );
        }
        // Values at (or just above) a lower edge land in that bucket;
        // values below the first edge underflow.
        assert_eq!(LatencyHistogram::bucket_of(HIST_MIN_SECS), Some(0));
        assert_eq!(LatencyHistogram::bucket_of(2.0001e-4), Some(8));
        assert_eq!(LatencyHistogram::bucket_of(9.9e-5), None);
        assert_eq!(LatencyHistogram::bucket_of(f64::NAN), None);
        // Far beyond the last edge clamps into the final bucket.
        assert_eq!(LatencyHistogram::bucket_of(1e9), Some(HIST_BUCKETS - 1));
    }

    #[test]
    fn cumulative_buckets_match_prometheus_shape() {
        let h = LatencyHistogram::new();
        h.record(5e-5); // underflow
        for _ in 0..3 {
            h.record(0.010);
        }
        for _ in 0..2 {
            h.record(1.0);
        }
        let cum = h.cumulative_buckets();
        assert_eq!(cum.first().map(|&(e, n)| (e, n)), Some((HIST_MIN_SECS, 1)));
        assert_eq!(cum.last().map(|&(_, n)| n), Some(h.count()), "last bucket holds the total");
        for w in cum.windows(2) {
            assert!(w[0].0 < w[1].0, "upper edges strictly increase");
            assert!(w[0].1 <= w[1].1, "counts are cumulative");
        }
        // Each observation must sit at or below the upper edge it counts
        // toward: 0.010 s under the first post-underflow edge.
        let edge_10ms = cum[1].0;
        assert!((0.010..0.012).contains(&edge_10ms), "upper edge {edge_10ms}");
        assert!((h.sum_secs() - (5e-5 + 3.0 * 0.010 + 2.0)).abs() < 1e-5);
    }

    #[test]
    fn open_never_underflows_under_concurrent_updates() {
        use std::sync::Arc;
        // Each worker closes every query it submits, but a reader may see
        // the close before the submit (all updates are Relaxed). open()
        // must saturate rather than wrap, and must settle to exactly zero.
        let m = Arc::new(RuntimeMetrics::new(1));
        const WORKERS: usize = 4;
        const PER_WORKER: u64 = 5_000;
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..PER_WORKER {
                        m.counters.submitted.fetch_add(1, Relaxed);
                        match (w as u64 + i) % 3 {
                            0 => m.counters.completed.fetch_add(1, Relaxed),
                            1 => m.counters.rejected.fetch_add(1, Relaxed),
                            _ => m.counters.expired.fetch_add(1, Relaxed),
                        };
                    }
                })
            })
            .collect();
        let reader = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                let total = (WORKERS as u64) * PER_WORKER;
                for _ in 0..10_000 {
                    let open = m.counters.open();
                    assert!(open <= total, "open {open} exceeds every possible in-flight count");
                }
            })
        };
        for t in workers {
            t.join().unwrap();
        }
        reader.join().unwrap();
        assert_eq!(m.counters.open(), 0, "every submitted query was closed");
        assert_eq!(m.counters.submitted.load(Relaxed), (WORKERS as u64) * PER_WORKER);
    }

    fn seeded_counters(base: u64) -> RuntimeCounters {
        let c = RuntimeCounters::new();
        c.submitted.store(base + 9, Relaxed);
        c.completed.store(base + 4, Relaxed);
        c.degraded.store(base + 1, Relaxed);
        c.rejected.store(base + 2, Relaxed);
        c.expired.store(base + 2, Relaxed);
        c.tasks_started.store(base * 3, Relaxed);
        c.tasks_completed.store(base * 2, Relaxed);
        c.tasks_failed.store(base, Relaxed);
        c.tasks_retried.store(base / 2, Relaxed);
        c.tasks_saved.store(base / 3, Relaxed);
        c.tasks_batched.store(base / 4, Relaxed);
        c
    }

    fn counter_values(c: &RuntimeCounters) -> [u64; 11] {
        [
            c.submitted.load(Relaxed),
            c.completed.load(Relaxed),
            c.degraded.load(Relaxed),
            c.rejected.load(Relaxed),
            c.expired.load(Relaxed),
            c.tasks_started.load(Relaxed),
            c.tasks_completed.load(Relaxed),
            c.tasks_failed.load(Relaxed),
            c.tasks_retried.load(Relaxed),
            c.tasks_saved.load(Relaxed),
            c.tasks_batched.load(Relaxed),
        ]
    }

    #[test]
    fn counter_merge_is_order_insensitive_and_saturating() {
        let parts = [seeded_counters(3), seeded_counters(40), seeded_counters(700)];
        let forward = RuntimeCounters::new();
        for p in &parts {
            forward.merge(p);
        }
        let backward = RuntimeCounters::new();
        for p in parts.iter().rev() {
            backward.merge(p);
        }
        assert_eq!(counter_values(&forward), counter_values(&backward));
        assert_eq!(forward.submitted.load(Relaxed), 9 * 3 + 3 + 40 + 700);
        assert_eq!(forward.open(), parts.iter().map(|p| p.open()).sum::<u64>());

        // Merging near-full counters clamps instead of wrapping.
        let full = RuntimeCounters::new();
        full.submitted.store(u64::MAX - 1, Relaxed);
        full.merge(&parts[0]);
        assert_eq!(full.submitted.load(Relaxed), u64::MAX);
    }

    #[test]
    fn histogram_merge_is_order_insensitive() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        for _ in 0..50 {
            a.record(0.010);
        }
        a.record(5e-5); // underflow
        for _ in 0..7 {
            b.record(1.0);
        }
        b.record(0.010);

        let ab = LatencyHistogram::new();
        ab.merge(&a);
        ab.merge(&b);
        let ba = LatencyHistogram::new();
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab.count(), a.count() + b.count());
        assert_eq!(ab.cumulative_buckets(), ba.cumulative_buckets());
        assert!((ab.sum_secs() - (a.sum_secs() + b.sum_secs())).abs() < 1e-9);
        assert_eq!(ab.quantile(0.5), ba.quantile(0.5));
    }

    #[test]
    fn merging_empty_counters_and_histograms_is_identity() {
        let c = RuntimeCounters::new();
        c.merge(&RuntimeCounters::new());
        assert_eq!(counter_values(&c), [0; 11]);
        assert_eq!(c.open(), 0);

        let h = LatencyHistogram::new();
        h.merge(&LatencyHistogram::new());
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum_secs(), 0.0);
        assert_eq!(h.quantile(0.5), None);
        assert!(h.cumulative_buckets().is_empty());

        // Identity also holds asymmetrically: empty ⊕ seeded == seeded.
        let seeded = seeded_counters(5);
        let into = RuntimeCounters::new();
        into.merge(&seeded);
        assert_eq!(counter_values(&into), counter_values(&seeded));
    }

    #[test]
    fn histogram_merge_saturates_instead_of_wrapping() {
        let a = LatencyHistogram::new();
        a.sum_micros.store(u64::MAX - 10, Relaxed);
        a.buckets[0].store(u64::MAX - 1, Relaxed);
        let b = LatencyHistogram::new();
        b.sum_micros.store(100, Relaxed);
        b.buckets[0].store(100, Relaxed);
        a.merge(&b);
        assert_eq!(a.sum_micros.load(Relaxed), u64::MAX);
        assert_eq!(a.buckets[0].load(Relaxed), u64::MAX);
        // A saturated count still yields a well-defined (clamped) quantile.
        assert_eq!(a.quantile(1.0), a.quantile(0.0));
    }

    #[test]
    fn single_bucket_histograms_merge_to_that_bucket() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        for _ in 0..3 {
            a.record(0.010);
            b.record(0.010);
        }
        let m = LatencyHistogram::new();
        m.merge(&a);
        m.merge(&b);
        assert_eq!(m.count(), 6);
        assert_eq!(m.cumulative_buckets().len(), 1);
        assert_eq!(m.quantile(0.0), m.quantile(1.0), "all mass in one bucket");
        assert_eq!(m.quantile(0.5), a.quantile(0.5));
    }

    #[test]
    fn merged_metrics_concatenate_executors_and_sum_counts() {
        let s0 = RuntimeMetrics::new(2);
        let s1 = RuntimeMetrics::new(2);
        s0.counters.submitted.store(5, Relaxed);
        s0.counters.completed.store(5, Relaxed);
        s1.counters.submitted.store(3, Relaxed);
        s1.counters.completed.store(3, Relaxed);
        s0.latency.record(0.010);
        s1.latency.record(0.020);
        s0.executors[1].busy_micros.store(250_000, Relaxed);
        s1.executors[0].busy_micros.store(750_000, Relaxed);
        s1.executors[1].up.store(0, Relaxed);

        let merged = RuntimeMetrics::merged([&s0, &s1]);
        let snap = merged.snapshot(1.0);
        assert_eq!(snap.submitted, 8);
        assert_eq!(snap.open, 0);
        assert_eq!(merged.latency.count(), 2);
        assert_eq!(snap.up, vec![true, true, true, false]);
        assert!((snap.utilization[1] - 0.25).abs() < 1e-9);
        assert!((snap.utilization[2] - 0.75).abs() < 1e-9, "shard 1 executor 0 at index 2");
    }

    #[test]
    fn snapshot_reflects_gauges() {
        let m = RuntimeMetrics::new(2);
        m.counters.submitted.fetch_add(3, Relaxed);
        m.executors[1].queue_depth.store(4, Relaxed);
        m.executors[0].busy_micros.store(500_000, Relaxed);
        let s = m.snapshot(1.0);
        assert_eq!(s.submitted, 3);
        assert_eq!(s.queue_depths, vec![0, 4]);
        assert!((s.utilization[0] - 0.5).abs() < 1e-9);
        assert!(s.brief().contains("submitted 3"));
    }
}
