//! Allocation gate for the engine's plain decision path and its planner.
//!
//! Schemble re-plans on every arrival and completion and dispatches on every
//! idle transition, so what one engine event costs bounds the event rate a
//! deployment sustains. The contract (DESIGN.md, "Engine hot path"): once
//! warm, bookkeeping allocates nothing — a `Wake` is free, a task completion
//! pays only for the output it produces — and what a query allocates over
//! its life is its outputs, the vector holding them and the two aggregated
//! outputs that close it (the answer and the reference). A warm DP plan
//! allocates nothing at all, even for a caller that hands it a new utility
//! row on every plan. This binary counts allocation events per thread —
//! each test counts on the thread that runs it — and replays a few thousand
//! plain-path queries, and a few hundred m = 8 plans, to hold the engine
//! and the planner to that.

use schemble_core::backend::{BackendEvent, SimBackend};
use schemble_core::engine::{PipelineEngine, SchembleEngine};
use schemble_core::executor::ExecutorBank;
use schemble_core::pipeline::SchembleConfig;
use schemble_core::predictor::OnlineScorer;
use schemble_core::scheduler::{
    BufferedQuery, DpScheduler, SchedScratch, ScheduleInput, SchedulePlan, Scheduler,
};
use schemble_core::AccuracyProfile;
use schemble_data::{DeadlinePolicy, PoissonTrace, Workload};
use schemble_models::{zoo, DifficultyDist, ModelSet, SampleGenerator};
use schemble_sim::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    // `const` and without a destructor, so reading it from inside the
    // allocator can neither allocate nor run during thread teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// Counts allocation *events* (alloc + grow) per thread, which is what an
// allocation-free steady state promises; frees are uncounted on purpose.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const QUERIES: usize = 4000;
const WARM_UP: usize = 1000;

#[test]
fn plain_path_bookkeeping_allocates_nothing() {
    let ens = zoo::text_matching(1);
    let gen = SampleGenerator::new(ens.spec, DifficultyDist::Uniform, 5);
    let history = gen.batch(0, 300);
    let scores: Vec<f64> = history.iter().map(|s| s.difficulty).collect();
    let profile = AccuracyProfile::fit(&ens, &history, &scores, 4);
    let config =
        SchembleConfig::new(Box::new(DpScheduler::default()), OnlineScorer::Constant(0.4), profile);
    // Busy enough that buffers hold several queries and sets get shed.
    let trace = PoissonTrace { rate_per_sec: 45.0, n: QUERIES };
    let workload = Workload::generate(&gen, &trace, &DeadlinePolicy::constant_millis(105.0), 7);

    let latencies = (0..ens.m()).map(|k| ens.latency(k)).collect();
    let mut backend = SimBackend::new(ExecutorBank::new(latencies, 7, "alloc-gate"));
    for (i, q) in workload.queries.iter().enumerate() {
        backend.push_arrival(q.arrival, i);
    }
    let mut engine = SchembleEngine::new(&ens, &config, &workload);

    // What the exempt allocations cost here, measured rather than assumed:
    // one base-model output, and one aggregated output.
    let m = ens.m() as u64;
    let sample = &workload.queries[0].sample;
    let before = allocs();
    let output = ens.models[0].infer(sample, &ens.spec);
    let per_output = allocs() - before;
    // The probabilities are the logits vector, softmaxed where it lies.
    assert_eq!(per_output, 1, "one categorical output is one allocation");
    let before = allocs();
    let _aggregated = ens.aggregate(&[(0, &output)]);
    let per_aggregate = allocs() - before;
    // A completed query's whole life: every model inferred once (run for
    // the answer, or inferred for the reference) + the vector of outputs in
    // hand + the answer and the reference, each an aggregated output (both
    // aggregations stream the outputs where they lie).
    let per_query_budget = m * per_output + 1 + 2 * per_aggregate;

    let mut warm = false;
    let (mut wakes, mut wakes_on_open_queries, mut partial_completions) = (0u64, 0u64, 0u64);
    let (mut window_allocs, mut closed_at_warm_up) = (0u64, 0u64);
    let closed = |e: &SchembleEngine| e.stats().completed + e.stats().degraded;
    while let Some((now, event)) = backend.pop_event() {
        if event == BackendEvent::Arrival(WARM_UP) {
            warm = true;
            closed_at_warm_up = closed(&engine);
        }
        let (open_before, closed_before) = (engine.open_count(), closed(&engine));
        let before = allocs();
        engine.handle(event, now, &mut backend);
        let spent = allocs() - before;
        if !warm {
            continue;
        }
        window_allocs += spent;
        match event {
            BackendEvent::Wake => {
                wakes += 1;
                wakes_on_open_queries += u64::from(open_before > 0);
                assert_eq!(spent, 0, "a Wake at {now:?} with {open_before} open queries allocated");
            }
            BackendEvent::TaskDone { query, .. } if closed(&engine) == closed_before => {
                // The query stays open: the new output, and the vector it
                // goes into if it is the query's first.
                partial_completions += 1;
                assert!(
                    spent <= per_output + 1,
                    "TaskDone for open query {query} allocated {spent} times"
                );
            }
            _ => {}
        }
    }
    let completed = closed(&engine) - closed_at_warm_up;
    // The gate saw what it is about: wakes with work on the table,
    // completions that leave their query open, a few thousand queries.
    assert!(wakes_on_open_queries > 500, "{wakes_on_open_queries} of {wakes} wakes had work");
    assert!(partial_completions > 500, "{partial_completions} partial completions");
    assert!(completed > 2000, "{completed} queries completed after warm-up");
    // On top of the per-query budget: the score window's vector (one per
    // `SCORE_BATCH` arrivals), the completions list's doubling, and the
    // outputs of the few queries that expire with a task still running.
    let per_query = window_allocs as f64 / completed as f64;
    assert!(
        per_query <= per_query_budget as f64 + 0.2,
        "{per_query:.2} allocations per completed query, budget {per_query_budget}"
    );
}

#[test]
fn warm_m8_plans_allocate_nothing_with_a_fresh_utility_row_each() {
    // Sixteen queries over eight models, all sharing one utility row that
    // is a new `Arc` on every plan (same contents): the DP's subset-list
    // cache misses on every plan and overflows every few dozen, which is
    // the worst its bound has to hold under. The rows are built before
    // counting starts.
    let m = 8;
    let latencies: Vec<SimDuration> =
        (0..m).map(|k| SimDuration::from_millis(15 + 4 * k as u64)).collect();
    // One minus the chance that every chosen model misses (0 for ∅).
    let table: Vec<f64> = (0..1u32 << m)
        .map(|mask| 1.0 - ModelSet(mask).iter().map(|k| 0.45 - 0.03 * k as f64).product::<f64>())
        .collect();
    let inputs: Vec<ScheduleInput> = (0..400u64)
        .map(|plan| {
            let row: Arc<[f64]> = Arc::from(table.as_slice());
            let queries = (0..16u64)
                .map(|id| BufferedQuery {
                    id,
                    arrival: SimTime::from_millis(id),
                    deadline: SimTime::from_millis(60 + 23 * ((id + plan) % 16)),
                    utilities: Arc::clone(&row),
                    score: 0.5,
                })
                .collect();
            ScheduleInput {
                now: SimTime::ZERO,
                availability: vec![SimTime::ZERO; m],
                latencies: latencies.clone(),
                queries,
            }
        })
        .collect();
    let dp = DpScheduler::default();
    let mut scratch = SchedScratch::new();
    let mut plan = SchedulePlan::empty(0);
    let (warm_up, measured) = inputs.split_at(200);
    for input in warm_up {
        dp.plan_into(input, &mut scratch, &mut plan);
    }
    let before = allocs();
    for input in measured {
        dp.plan_into(input, &mut scratch, &mut plan);
    }
    let spent = allocs() - before;
    assert!(plan.scheduled_count() > 0, "the plans scheduled nothing");
    assert_eq!(spent, 0, "{spent} allocations over {} warm m = 8 plans", measured.len());
}
