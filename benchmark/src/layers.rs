//! Per-layer costs of a traced pass, summed from its spans.

use crate::spans::{self_times_ns, Layer, Span};
use crate::stats::{quantile_sorted, sorted};

/// What the spans of one traced pass add up to. Seconds unless named
/// otherwise.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerCosts {
    /// Duration of the root span: the whole pass.
    pub run_s: f64,
    /// What the root span spent outside `handle` calls and plans: the
    /// driver itself (popping events, feeding arrivals, draining), plus on
    /// the sharded workload everything the wrappers cannot see.
    pub run_self_s: f64,
    pub handle_calls: u64,
    pub handle_busy_s: f64,
    /// `handle` spans minus the plans and backend calls made inside them.
    pub engine_self_s: f64,
    pub backend_calls: u64,
    pub backend_busy_s: f64,
    pub plans: u64,
    pub work_units: u64,
    pub buffer_n_mean: f64,
    pub buffer_n_max: u64,
    pub plan_busy_s: f64,
    pub plan_p50_us: f64,
    pub plan_p99_us: f64,
}

impl LayerCosts {
    /// Sums `spans` by layer.
    pub fn from_spans(spans: &[Span]) -> LayerCosts {
        let own = self_times_ns(spans);
        let mut c = LayerCosts::default();
        let (mut handle_own_ns, mut backend_ns, mut buffered) = (0u64, 0u64, 0u64);
        let mut plan_us = Vec::new();
        for (span, own_ns) in spans.iter().zip(own) {
            match span.layer {
                Layer::Run => {
                    c.run_s += span.duration_ns() as f64 / 1e9;
                    c.run_self_s += own_ns as f64 / 1e9;
                }
                Layer::Handle => {
                    c.handle_calls += 1;
                    c.handle_busy_s += span.duration_ns() as f64 / 1e9;
                    handle_own_ns += own_ns;
                    c.backend_calls += span.arg0;
                    backend_ns += span.arg1;
                }
                Layer::Plan => {
                    c.plans += 1;
                    buffered += span.arg0;
                    c.buffer_n_max = c.buffer_n_max.max(span.arg0);
                    c.work_units += span.arg1;
                    c.plan_busy_s += span.duration_ns() as f64 / 1e9;
                    plan_us.push(span.duration_ns() as f64 / 1e3);
                }
            }
        }
        // Backend calls are tallied inside each handle span rather than
        // recorded as child spans, so they come off its self time here.
        c.engine_self_s = handle_own_ns.saturating_sub(backend_ns) as f64 / 1e9;
        c.backend_busy_s = backend_ns as f64 / 1e9;
        if c.plans > 0 {
            c.buffer_n_mean = buffered as f64 / c.plans as f64;
            let plan_us = sorted(&plan_us);
            c.plan_p50_us = quantile_sorted(&plan_us, 0.50);
            c.plan_p99_us = quantile_sorted(&plan_us, 0.99);
        }
        c
    }

    /// Share of the pass's wall time spent planning, in percent. On the
    /// sharded workload plans run on two threads, so this is thread-seconds
    /// per wall second and may pass 100.
    pub fn plan_share_pct(&self) -> f64 {
        100.0 * self.plan_busy_s / self.run_s
    }

    /// The four single-thread parts of a pass; they add up to `run_s`.
    pub fn parts_s(&self) -> f64 {
        self.engine_self_s + self.plan_busy_s + self.backend_busy_s + self.run_self_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::{NO_PARENT, NO_QUERY};

    fn span(id: u32, parent: u32, layer: Layer, start: u64, end: u64, a0: u64, a1: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            start_ns: start,
            end_ns: end,
            query: NO_QUERY,
            arg0: a0,
            arg1: a1,
        }
    }

    #[test]
    fn parts_add_up_to_the_pass() {
        let spans = vec![
            span(3, 2, Layer::Plan, 2_000, 5_000, 2, 40),
            span(2, 1, Layer::Handle, 1_000, 8_000, 3, 1_500),
            span(5, 4, Layer::Plan, 11_000, 12_000, 4, 60),
            span(4, 1, Layer::Handle, 10_000, 14_000, 1, 500),
            span(1, NO_PARENT, Layer::Run, 0, 20_000, 0, 0),
        ];
        let c = LayerCosts::from_spans(&spans);
        assert_eq!((c.handle_calls, c.plans, c.backend_calls), (2, 2, 4));
        assert_eq!((c.work_units, c.buffer_n_max), (100, 4));
        assert_eq!(c.buffer_n_mean, 3.0);
        assert!((c.run_s - 20e-6).abs() < 1e-12);
        assert!((c.handle_busy_s - 11e-6).abs() < 1e-12);
        assert!((c.plan_busy_s - 4e-6).abs() < 1e-12);
        assert!((c.backend_busy_s - 2e-6).abs() < 1e-12);
        // handle 11 µs − plans 4 µs − backend 2 µs.
        assert!((c.engine_self_s - 5e-6).abs() < 1e-12);
        assert!((c.run_self_s - 9e-6).abs() < 1e-12);
        assert!((c.parts_s() - c.run_s).abs() < 1e-12);
        assert!((c.plan_share_pct() - 20.0).abs() < 1e-9);
        assert_eq!((c.plan_p50_us, c.plan_p99_us), (1.0, 3.0));
    }

    #[test]
    fn no_plans_means_zeroes_not_nans() {
        let c = LayerCosts::from_spans(&[span(1, NO_PARENT, Layer::Run, 0, 10, 0, 0)]);
        assert_eq!((c.plans, c.buffer_n_mean, c.plan_p99_us), (0, 0.0, 0.0));
        assert_eq!(c.plan_share_pct(), 0.0);
    }
}
