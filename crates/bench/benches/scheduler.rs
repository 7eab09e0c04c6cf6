//! Criterion micro-benchmarks of the scheduling algorithms: planning cost vs
//! buffer size and quantization step (the wall-clock counterpart of the
//! Fig. 21 overhead panel).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use schemble_core::scheduler::{
    BufferedQuery, DpScheduler, GreedyScheduler, QueueOrder, ScheduleInput, Scheduler,
};
use schemble_models::ModelSet;
use schemble_sim::rng::stream_rng;
use schemble_sim::{SimDuration, SimTime};
use std::hint::black_box;

fn build_instance(n: usize, m: usize, seed: u64) -> ScheduleInput {
    use rand::Rng;
    let mut rng = stream_rng(seed, "bench-sched");
    let latencies: Vec<SimDuration> =
        (0..m).map(|_| SimDuration::from_millis(rng.random_range(15..50))).collect();
    let queries = (0..n as u64)
        .map(|id| {
            let mut utilities = vec![0.0; 1 << m];
            let mut masks: Vec<u32> = (1..(1u32 << m)).collect();
            masks.sort_by_key(|s| s.count_ones());
            for &mask in &masks {
                let set = ModelSet(mask);
                let mut v: f64 = set
                    .iter()
                    .map(|k| 0.5 + 0.12 * k as f64 + rng.random_range(0.0..0.08))
                    .fold(0.0, f64::max);
                for k in set.iter() {
                    let sub = set.without(k);
                    if !sub.is_empty() {
                        v = v.max(utilities[sub.0 as usize]);
                    }
                }
                utilities[mask as usize] = v.min(1.0);
            }
            BufferedQuery {
                id,
                arrival: SimTime::from_millis(id),
                deadline: SimTime::from_millis(rng.random_range(60..400)),
                utilities: utilities.into(),
                score: rng.random_range(0.0..1.0),
            }
        })
        .collect();
    ScheduleInput { now: SimTime::ZERO, availability: vec![SimTime::ZERO; m], latencies, queries }
}

fn bench_buffer_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("dp_plan_vs_buffer_size");
    for n in [4usize, 8, 16, 24] {
        let input = build_instance(n, 3, 7);
        group.bench_with_input(BenchmarkId::from_parameter(n), &input, |b, input| {
            let dp = DpScheduler::default();
            b.iter(|| black_box(dp.plan(black_box(input))));
        });
    }
    group.finish();
}

fn bench_delta(c: &mut Criterion) {
    let mut group = c.benchmark_group("dp_plan_vs_delta");
    let input = build_instance(16, 3, 11);
    for delta in [0.1, 0.01, 0.001] {
        group.bench_with_input(BenchmarkId::from_parameter(delta), &input, |b, input| {
            let dp = DpScheduler::with_delta(delta);
            b.iter(|| black_box(dp.plan(black_box(input))));
        });
    }
    group.finish();
}

fn bench_greedy(c: &mut Criterion) {
    let input = build_instance(16, 3, 13);
    c.bench_function("greedy_edf_plan_16", |b| {
        let greedy = GreedyScheduler::new(QueueOrder::Edf);
        b.iter(|| black_box(greedy.plan(black_box(&input))));
    });
}

criterion_group!(benches, bench_buffer_size, bench_delta, bench_greedy);
criterion_main!(benches);
