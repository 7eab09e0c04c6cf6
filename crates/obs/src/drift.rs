//! Streaming calibration-drift detection.
//!
//! Two detectors, both pure integer folds over the trace stream:
//!
//! * **Difficulty calibration** — pairs each query's predicted difficulty
//!   bin ([`TraceEvent::Scored`]) with the bin its *realized* discrepancy
//!   falls into ([`TraceEvent::Realized`]) and accumulates agreement /
//!   distance counters. A predictor in calibration keeps the mean bin
//!   distance near zero; drift shows up as a growing distance-per-pair.
//! * **Executor latency** — compares each completed task's observed service
//!   time (`TaskDone.t − TaskStart.t`) against the executor's profiled
//!   planned latency, accumulating observed vs. expected microsecond sums
//!   and a count of tasks deviating beyond a fixed ±25% guard band.
//!
//! [`TraceEvent::Scored`]: schemble_trace::TraceEvent::Scored
//! [`TraceEvent::Realized`]: schemble_trace::TraceEvent::Realized

use schemble_sim::SimTime;
use schemble_trace::IdMap;

/// Fixed guard band for the latency detector: a task deviating more than
/// this fraction from its profiled latency counts as an outlier.
const LATENCY_BAND_PCT: u64 = 25;

/// Per-executor latency-drift counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorDrift {
    /// Completed tasks measured.
    pub tasks: u64,
    /// Sum of observed service times, microseconds.
    pub observed_us: u64,
    /// Sum of profiled (expected) service times, microseconds.
    pub expected_us: u64,
    /// Tasks whose observed time left the ±25% band around the profile.
    pub outliers: u64,
}

/// The streaming drift state.
#[derive(Debug, Clone, Default)]
pub struct DriftState {
    /// Difficulty bins in play (0 disables the calibration detector).
    bins: usize,
    /// Profiled planned latency per (local) executor, microseconds. A
    /// sharded stream's global executor `k` maps back to profile
    /// `k % profiled.len()`.
    profiled_us: Vec<u64>,
    /// Predicted bin per open query.
    predicted: IdMap<u64, u8>,
    /// Start instant of each in-flight task.
    starts: IdMap<(u64, u16), SimTime>,
    /// (predicted, realized) bin pairs observed.
    pub pairs: u64,
    /// Pairs where predicted == realized bin.
    pub agree: u64,
    /// Σ |predicted − realized| over all pairs.
    pub distance: u64,
    /// Realized answers that were incorrect.
    pub incorrect: u64,
    /// Pairs per predicted bin.
    pub per_bin_predicted: Vec<u64>,
    /// Pairs per realized bin.
    pub per_bin_realized: Vec<u64>,
    /// Per-executor latency counters, indexed by global executor id.
    pub executors: Vec<ExecutorDrift>,
}

impl DriftState {
    /// A detector over `bins` difficulty bins and the given per-executor
    /// profiled latencies (µs). Either may be empty to disable that side.
    pub fn new(bins: usize, profiled_us: Vec<u64>) -> Self {
        Self {
            bins,
            profiled_us,
            per_bin_predicted: vec![0; bins],
            per_bin_realized: vec![0; bins],
            ..Self::default()
        }
    }

    /// The realized bin a fixed-point score falls into (mirrors
    /// `AccuracyProfile::bin_of` over the ×10⁶ representation).
    pub fn bin_of_fp(&self, score_fp: u32) -> u8 {
        if self.bins == 0 {
            return 0;
        }
        ((score_fp as u64 * self.bins as u64 / 1_000_000).min(self.bins as u64 - 1)) as u8
    }

    /// A query was scored at admission.
    pub fn on_scored(&mut self, query: u64, bin: u8) {
        self.predicted.insert(query, bin);
    }

    /// A query's assembled answer was evaluated.
    pub fn on_realized(&mut self, query: u64, score_fp: u32, correct: bool) {
        self.incorrect += (!correct) as u64;
        let Some(pred) = self.predicted.remove(&query) else { return };
        if self.bins == 0 {
            return;
        }
        let real = self.bin_of_fp(score_fp);
        self.pairs += 1;
        self.agree += (pred == real) as u64;
        self.distance += (pred as i64 - real as i64).unsigned_abs();
        if let Some(slot) = self.per_bin_predicted.get_mut(pred as usize) {
            *slot += 1;
        }
        if let Some(slot) = self.per_bin_realized.get_mut(real as usize) {
            *slot += 1;
        }
    }

    /// A task started on `executor`.
    pub fn on_task_start(&mut self, query: u64, executor: u16, t: SimTime) {
        self.starts.insert((query, executor), t);
    }

    /// A task failed; its start no longer produces a latency sample.
    pub fn on_task_failed(&mut self, query: u64, executor: u16) {
        self.starts.remove(&(query, executor));
    }

    /// A task completed; fold its observed service time into the detector.
    pub fn on_task_done(&mut self, query: u64, executor: u16, t: SimTime) {
        let Some(start) = self.starts.remove(&(query, executor)) else { return };
        if self.profiled_us.is_empty() {
            return;
        }
        let observed = t.saturating_since(start).as_micros();
        let expected = self.profiled_us[executor as usize % self.profiled_us.len()];
        if self.executors.len() <= executor as usize {
            self.executors.resize(executor as usize + 1, ExecutorDrift::default());
        }
        let e = &mut self.executors[executor as usize];
        e.tasks += 1;
        e.observed_us += observed;
        e.expected_us += expected;
        let band = expected * LATENCY_BAND_PCT / 100;
        if observed > expected + band || observed + band < expected {
            e.outliers += 1;
        }
    }

    /// A query left the system without evaluation; forget its prediction.
    pub fn on_query_closed(&mut self, query: u64) {
        self.predicted.remove(&query);
        self.starts.retain(|&(q, _), _| q != query);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(x: u64) -> SimTime {
        SimTime::from_micros(x)
    }

    #[test]
    fn calibration_pairs_accumulate_agreement_and_distance() {
        let mut d = DriftState::new(4, vec![]);
        d.on_scored(0, 1);
        d.on_realized(0, 300_000, true); // bin 1 of 4 → agree
        d.on_scored(1, 0);
        d.on_realized(1, 999_999, false); // bin 3 → distance 3
        assert_eq!(d.pairs, 2);
        assert_eq!(d.agree, 1);
        assert_eq!(d.distance, 3);
        assert_eq!(d.incorrect, 1);
        assert_eq!(d.per_bin_predicted, vec![1, 1, 0, 0]);
        assert_eq!(d.per_bin_realized, vec![0, 1, 0, 1]);
    }

    #[test]
    fn realized_bin_clamps_to_the_top_bin() {
        let d = DriftState::new(4, vec![]);
        assert_eq!(d.bin_of_fp(0), 0);
        assert_eq!(d.bin_of_fp(249_999), 0);
        assert_eq!(d.bin_of_fp(250_000), 1);
        assert_eq!(d.bin_of_fp(1_000_000), 3, "score 1.0 clamps into the last bin");
    }

    #[test]
    fn latency_detector_tracks_observed_vs_profile_and_outliers() {
        let mut d = DriftState::new(0, vec![10_000, 20_000]);
        d.on_task_start(0, 0, us(0));
        d.on_task_done(0, 0, us(10_000)); // exactly on profile
        d.on_task_start(1, 1, us(0));
        d.on_task_done(1, 1, us(40_000)); // 2× profile → outlier
        d.on_task_start(2, 0, us(0));
        d.on_task_failed(2, 0); // failed tasks produce no sample
        d.on_task_done(2, 0, us(99_000)); // no matching start: ignored
        assert_eq!(
            d.executors[0],
            ExecutorDrift { tasks: 1, observed_us: 10_000, expected_us: 10_000, outliers: 0 }
        );
        assert_eq!(
            d.executors[1],
            ExecutorDrift { tasks: 1, observed_us: 40_000, expected_us: 20_000, outliers: 1 }
        );
    }

    #[test]
    fn sharded_executors_map_back_to_the_local_profile() {
        // Global executor 3 with a 2-model profile uses profile[1].
        let mut d = DriftState::new(0, vec![10_000, 20_000]);
        d.on_task_start(0, 3, us(0));
        d.on_task_done(0, 3, us(20_000));
        assert_eq!(d.executors[3].expected_us, 20_000);
        assert_eq!(d.executors[3].outliers, 0);
    }

    #[test]
    fn unrealized_queries_never_pair() {
        let mut d = DriftState::new(4, vec![]);
        d.on_scored(7, 2);
        d.on_query_closed(7); // expired before evaluation
        d.on_realized(7, 0, true); // stale event: no prediction left
        assert_eq!(d.pairs, 0);
    }
}
