//! `bench_dp` — scheduler hot-path microbenchmark with a regression gate.
//!
//! Plans synthetic buffers through [`DpScheduler::plan_into`] across a
//! (buffer size × ensemble size) grid and reports, per configuration:
//!
//! * `dp_n{n}_m{m}_ns` — mean wall-clock nanoseconds per plan. Machine
//!   dependent (CI runners vary widely in single-core speed), so gated
//!   loosely (4x) — except `dp_n16_m8_ns`, which also has to stay under an absolute 2 ms:
//!   a planner for 40 ms deadlines must fit inside them (ROADMAP).
//! * `dp_n{n}_m{m}_nodes` — candidates the DP visited per plan
//!   ([`DpStats::nodes_expanded`](schemble_core::scheduler::DpStats)). Fully
//!   deterministic (fixed seed, integer DP), so gated tightly: any drift is
//!   an algorithm change, not noise.
//!
//! plus one global:
//!
//! * `allocs_per_plan` — steady-state heap allocations per `plan_into` call,
//!   counted by a wrapping global allocator behind the `bench-alloc`
//!   feature. The scratch-based hot path promises **zero**; the baseline
//!   pins that promise. Without the feature the counter reports `-1` and
//!   the gate is skipped.
//!
//! ```text
//! bench_dp [--out PATH] [--check BASELINE] [--write PATH]
//! ```
//!
//! Run with `--features bench-alloc` to include the allocation gate:
//!
//! ```text
//! cargo run --release -p schemble-bench --features bench-alloc \
//!     --bin bench_dp -- --check crates/bench/baselines/BENCH_dp.json
//! ```

use schemble_core::scheduler::{
    BufferedQuery, DpScheduler, SchedScratch, ScheduleInput, SchedulePlan, Scheduler,
};
use schemble_models::ModelSet;
use schemble_sim::rng::stream_rng;
use schemble_sim::{SimDuration, SimTime};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Heap-allocation counter, active only under `--features bench-alloc` so
/// the default build keeps the system allocator untouched.
#[cfg(feature = "bench-alloc")]
mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    pub fn count() -> u64 {
        ALLOCS.load(Relaxed)
    }

    struct CountingAlloc;

    // Counts allocation *events* (alloc + grow), which is what "allocation-
    // free steady state" promises; frees are uncounted on purpose.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static COUNTER: CountingAlloc = CountingAlloc;
}

#[cfg(feature = "bench-alloc")]
fn alloc_count() -> Option<u64> {
    Some(alloc_counter::count())
}

#[cfg(not(feature = "bench-alloc"))]
fn alloc_count() -> Option<u64> {
    None
}

/// The (buffer size, ensemble size) grid. Covers the paper's operating
/// range: small/large buffers against small/large ensembles.
const GRID: [(usize, usize); 9] =
    [(4, 3), (4, 5), (4, 8), (16, 3), (16, 5), (16, 8), (24, 3), (24, 5), (24, 8)];

/// Steady-state measuring time per grid point. Plans run from about a
/// microsecond (n=4, m=3) to about a millisecond (n=24, m=8), so a time
/// budget gives every point thousands of plans without a per-shape table of
/// iteration counts to keep in step with the planner's speed.
const MEASURE_BUDGET: Duration = Duration::from_millis(300);

/// Plans per clock read, so the timer stays out of the microsecond points.
const PLANS_PER_CLOCK_READ: u64 = 16;

/// The absolute ceiling on `dp_n16_m8_ns`, checked on every `--check`.
const N16_M8_CEILING_NS: f64 = 2_000_000.0;

/// A synthetic planning instance: monotone subset utilities, latencies
/// 15–50 ms, deadlines 60–400 ms.
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

struct ConfigResult {
    n: usize,
    m: usize,
    ns_per_plan: f64,
    nodes_per_plan: u64,
}

struct BenchResult {
    configs: Vec<ConfigResult>,
    /// `-1.0` when the `bench-alloc` feature (and thus the counter) is off.
    allocs_per_plan: f64,
    wall_secs: f64,
}

impl BenchResult {
    fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        for c in &self.configs {
            s.push_str(&format!("  \"dp_n{}_m{}_ns\": {:.1},\n", c.n, c.m, c.ns_per_plan));
            s.push_str(&format!("  \"dp_n{}_m{}_nodes\": {},\n", c.n, c.m, c.nodes_per_plan));
        }
        s.push_str(&format!("  \"allocs_per_plan\": {:.3},\n", self.allocs_per_plan));
        s.push_str(&format!("  \"wall_secs\": {:.3}\n}}\n", self.wall_secs));
        s
    }
}

/// Pulls `"key": <number>` out of the baseline JSON. The file is produced
/// by `to_json` above, so a flat scan is all the parsing needed.
fn json_number(text: &str, key: &str) -> Result<f64, String> {
    let pat = format!("\"{key}\":");
    let start = text.find(&pat).ok_or_else(|| format!("baseline is missing \"{key}\""))?;
    let rest = &text[start + pat.len()..];
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().map_err(|_| format!("baseline \"{key}\" is not a number"))
}

fn run_bench() -> BenchResult {
    let wall_t0 = Instant::now();
    let dp = DpScheduler::default();
    let mut scratch = SchedScratch::new();
    let mut plan = SchedulePlan::empty(0);
    let mut configs = Vec::new();
    let mut steady_plans = 0u64;
    let mut steady_allocs = 0u64;
    for (n, m) in GRID {
        let input = build_instance(n, m, 7);
        // Warm the scratch to its high-water mark for this shape, then
        // measure steady state only.
        for _ in 0..3 {
            dp.plan_into(&input, &mut scratch, &mut plan);
        }
        let nodes_per_plan = scratch.stats().nodes_expanded;
        let allocs_before = alloc_count();
        let mut iters = 0u64;
        let t0 = Instant::now();
        let elapsed = loop {
            for _ in 0..PLANS_PER_CLOCK_READ {
                dp.plan_into(black_box(&input), &mut scratch, &mut plan);
                black_box(&plan);
            }
            iters += PLANS_PER_CLOCK_READ;
            let elapsed = t0.elapsed();
            if elapsed >= MEASURE_BUDGET {
                break elapsed;
            }
        };
        if let (Some(before), Some(after)) = (allocs_before, alloc_count()) {
            steady_allocs += after - before;
            steady_plans += iters;
        }
        configs.push(ConfigResult {
            n,
            m,
            ns_per_plan: elapsed.as_nanos() as f64 / iters as f64,
            nodes_per_plan,
        });
    }
    let allocs_per_plan =
        if steady_plans > 0 { steady_allocs as f64 / steady_plans as f64 } else { -1.0 };
    BenchResult { configs, allocs_per_plan, wall_secs: wall_t0.elapsed().as_secs_f64() }
}

/// One gate: `label` regressed if the new value exceeds the baseline by more
/// than `tolerance` (relative). Lower is better for every bench_dp metric.
fn gate(label: &str, new: f64, base: f64, tolerance: f64) -> Result<(), String> {
    let limit = base * (1.0 + tolerance);
    let regressed = new > limit;
    println!(
        "  {label:<18} {new:>12.1}  (baseline {base:>12.1}, max tolerated {limit:>12.1}) {}",
        if regressed { "REGRESSED" } else { "ok" }
    );
    if regressed {
        return Err(format!("{label} regressed: {new:.1} vs baseline {base:.1}"));
    }
    Ok(())
}

fn check(result: &BenchResult, baseline_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("reading {baseline_path}: {e}"))?;
    println!("regression check vs {baseline_path}:");
    let mut failures = Vec::new();
    for c in &result.configs {
        // Node counts are deterministic: tight gate. Wall time is not: 4x.
        let nodes_key = format!("dp_n{}_m{}_nodes", c.n, c.m);
        if let Err(e) =
            gate(&nodes_key, c.nodes_per_plan as f64, json_number(&text, &nodes_key)?, 0.20)
        {
            failures.push(e);
        }
        let ns_key = format!("dp_n{}_m{}_ns", c.n, c.m);
        if let Err(e) = gate(&ns_key, c.ns_per_plan, json_number(&text, &ns_key)?, 3.0) {
            failures.push(e);
        }
        if (c.n, c.m) == (16, 8) {
            if let Err(e) = gate("dp_n16_m8_ns (abs)", c.ns_per_plan, N16_M8_CEILING_NS, 0.0) {
                failures.push(e);
            }
        }
    }
    let base_allocs = json_number(&text, "allocs_per_plan")?;
    if result.allocs_per_plan < 0.0 || base_allocs < 0.0 {
        println!("  allocs_per_plan    skipped (bench-alloc feature off)");
    } else if let Err(e) = gate("allocs_per_plan", result.allocs_per_plan, base_allocs, 0.20) {
        // A zero baseline tolerates exactly zero: 0 * 1.2 = 0.
        failures.push(e);
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = "BENCH_dp.json".to_string();
    let mut check_path: Option<String> = None;
    let mut write_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" if i + 1 < args.len() => {
                i += 1;
                out = args[i].clone();
            }
            "--check" if i + 1 < args.len() => {
                i += 1;
                check_path = Some(args[i].clone());
            }
            "--write" if i + 1 < args.len() => {
                i += 1;
                write_path = Some(args[i].clone());
            }
            other => {
                eprintln!("usage: bench_dp [--out PATH] [--check BASELINE] [--write PATH]");
                eprintln!("unknown argument '{other}'");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let result = run_bench();
    for c in &result.configs {
        println!(
            "bench_dp: n={:<2} m={}  {:>10.0} ns/plan  {:>7} nodes",
            c.n, c.m, c.ns_per_plan, c.nodes_per_plan
        );
    }
    match alloc_count() {
        Some(_) => println!("bench_dp: {:.3} allocs/plan (steady state)", result.allocs_per_plan),
        None => println!("bench_dp: allocs/plan not counted (build with --features bench-alloc)"),
    }
    let json = result.to_json();
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("error: writing {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");
    if let Some(path) = write_path {
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote baseline {path}");
    }
    if let Some(path) = check_path {
        if let Err(e) = check(&result, &path) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
