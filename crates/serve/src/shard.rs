//! Sharded serving: `S` independent engine shards behind a deterministic
//! router.
//!
//! The Schemble scheduler is per-buffer — the DP plans one query buffer, and
//! the §VII competitive argument is per-buffer too — so the natural
//! scale-out unit is a *shard*: a full engine replica (query buffer,
//! scheduler scratch, scorer, trace sink, runtime counters) plus its own
//! executor bank, fed a hash-routed slice of the arrival stream. Admission,
//! scoring and DP planning then run on `S` threads instead of one, which is
//! where throughput comes from once planning saturates a core.
//!
//! Determinism is preserved by construction:
//!
//! * **Routing** ([`ShardRouter`]) hashes the query id with the SplitMix64
//!   finaliser — deterministic and *seed-independent*, so the same workload
//!   always splits the same way regardless of the run seed.
//! * **Per-shard RNG streams** derive from `(seed, shard_id)` via
//!   [`mix`], so no shard shares a random stream with another and `S`
//!   changes never perturb an unsharded run (`shards <= 1` takes the
//!   pre-existing single-engine path, byte-identical to before).
//! * **Aggregation is order-insensitive**: counters and histograms merge by
//!   commutative addition, per-query records sort by global id, and trace
//!   streams merge on the total order `(time, shard, sequence)` — so every
//!   export folded from the merged stream (the audit log included) is the
//!   same whichever shard finishes first.
//! * **The trace merges while the shards run.** The calling thread drains
//!   the shard sinks every `DRAIN_INTERVAL` and emits into the caller's
//!   sink whatever no running shard can still precede
//!   ([`StreamingMerge`]). Each shard emits in time order, so that is the
//!   same stream, tap sequence and drop count as one merge after the join,
//!   whenever the drains happen; the stream is held once, not twice.
//!
//! Shared across shards (immutably): the ensemble, the pipeline config
//! (schedulers are `Send + Sync` and plan out of caller-owned scratch), and
//! the fault plan. Owned per shard: the engine and its buffers, the
//! sub-workload, executors `s*m .. (s+1)*m`, the RNG streams, a trace sink
//! and a metrics block. A stealing shard's id map is shared with the
//! merging thread, which reads it to globalize the shard's events.

use crate::runtime::{run_with, ClockMode, Reporter, RunStats, ServeConfig, ServeReport};
use crate::steal::{StealCoordinator, StealHandle};
use schemble_core::engine::{PipelineEngine, SchembleEngine};
use schemble_core::pipeline::SchembleConfig;
use schemble_data::Workload;
use schemble_metrics::{ModelUsage, QueryRecord, RunSummary, RuntimeMetrics};
use schemble_models::Ensemble;
use schemble_sim::rng::{mix, splitmix64};
use schemble_sim::LatencyModel;
use schemble_trace::{globalize_event, StreamingMerge, TraceSink};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering::Acquire, Ordering::Release};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Deterministic, seed-independent hash router from routing keys to shards.
///
/// Routes on [`Query::key`](schemble_data::Query), which defaults to the
/// query id — so uniform workloads split evenly, while a skewed key
/// distribution (hot keys, Zipfian tenants) concentrates load on the hot
/// key's *home shard*, the imbalance work stealing exists to fix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// A router over `shards` shards (clamped to at least one).
    pub fn new(shards: usize) -> Self {
        Self { shards: shards.max(1) }
    }

    /// Number of shards routed across.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard serving routing key `key`. Pure function of the key and
    /// the shard count — independent of seed, arrival time and thread
    /// timing.
    #[inline]
    pub fn route(&self, key: u64) -> usize {
        (splitmix64(key) % self.shards as u64) as usize
    }
}

/// What one shard thread hands back to the merger.
struct ShardOutcome {
    records: Vec<QueryRecord>,
    run: RunStats,
}

/// How often the calling thread drains the shard sinks while a traced
/// sharded run is in flight. It bounds how many events wait in the shard
/// rings between drains; nothing in the output depends on it.
const DRAIN_INTERVAL: Duration = Duration::from_micros(500);

/// One shard's trace as the calling thread sees it while the shard runs.
struct ShardTrace {
    sink: Arc<TraceSink>,
    /// Local query id -> global id; a stealing shard extends it as it
    /// adopts.
    ids: Arc<Mutex<Vec<u64>>>,
    /// Set once the shard has emitted its last event.
    finished: AtomicBool,
}

/// Sets a shard's `finished` flag when dropped: at the end of the run, or
/// while unwinding from a panic, which `join` then reports.
struct FinishOnDrop<'a>(&'a AtomicBool);

impl Drop for FinishOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Release);
    }
}

/// Serves `workload` through `config.shards` parallel Schemble engine
/// shards and merges their outputs into one [`ServeReport`] shaped exactly
/// like an unsharded run's (executor-indexed fields hold `S * m` entries,
/// shard `s`'s executor `k` at index `s * m + k`).
pub fn serve_schemble_sharded(
    ensemble: &Ensemble,
    pipeline: &SchembleConfig,
    workload: &Workload,
    seed: u64,
    config: &ServeConfig,
) -> ServeReport {
    let shards = config.shards.max(1);
    let m = ensemble.m();
    let router = ShardRouter::new(shards);
    let parts = workload.partition(shards, |q| router.route(q.key));
    // Epoch-boundary work stealing, opt-in via `steal_epoch`. The
    // coordinator is the only mutable state shards share, and every
    // decision it mediates is a pure function of epoch snapshots — see
    // `crate::steal` for the determinism argument.
    let coordinator = config.steal_epoch.map(|epoch| StealCoordinator::new(shards, epoch));
    let mut steal: Vec<Option<StealHandle>> = (0..shards)
        .map(|s| coordinator.as_ref().map(|c| c.handle(s as u16, parts[s].global_ids.clone())))
        .collect();

    // Shard sinks record whenever the outer sink is enabled *or* tapped
    // (e.g. by a flight recorder): the merged stream feeds the outer tap,
    // so a tap-only sink still needs shard-level capture. They are
    // unbounded: the calling thread empties them as the shards run, and
    // only the outer sink applies its capacity — to the merged stream, so
    // what a truncated trace keeps never depends on when the drains ran.
    let outer = config.trace.as_ref().filter(|sink| sink.observing());
    let traces: Vec<ShardTrace> = parts
        .iter()
        .zip(&steal)
        .map(|(part, handle)| ShardTrace {
            sink: match outer {
                Some(_) => TraceSink::new(usize::MAX),
                None => TraceSink::disabled(),
            },
            ids: match handle {
                Some(handle) => handle.id_map(),
                None => Arc::new(Mutex::new(part.global_ids.clone())),
            },
            finished: AtomicBool::new(false),
        })
        .collect();
    let shard_metrics: Vec<Arc<RuntimeMetrics>> =
        (0..shards).map(|_| Arc::new(RuntimeMetrics::new(m))).collect();

    let wall_start = Instant::now();
    // One aggregate reporter across all shards (wall mode only), in place of
    // the per-run reporter the unsharded path uses.
    let reporter = match (config.mode, config.report_every) {
        (ClockMode::Wall { dilation }, Some(every)) => {
            let shard_metrics = shard_metrics.clone();
            Some(Reporter::spawn(every, move || {
                let sim = wall_start.elapsed().as_secs_f64() * dilation;
                RuntimeMetrics::merged(shard_metrics.iter().map(Arc::as_ref)).snapshot(sim)
            }))
        }
        _ => None,
    };
    let outcomes: Vec<ShardOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .iter()
            .zip(&traces)
            .zip(&mut steal)
            .enumerate()
            .map(|(s, ((part, trace), steal))| {
                let metrics = Arc::clone(&shard_metrics[s]);
                let mut steal = steal.take();
                scope.spawn(move || {
                    let finished = FinishOnDrop(&trace.finished);
                    // Everything random in this shard — task latencies,
                    // fault fates — derives from (seed, shard).
                    let shard_seed = mix(seed, s as u64);
                    let latencies: Vec<LatencyModel> =
                        (0..m).map(|k| ensemble.latency(k)).collect();
                    let shard_config = ServeConfig {
                        report_every: None,
                        trace: Some(Arc::clone(&trace.sink)),
                        shards: 1,
                        ..config.clone()
                    };
                    let mut engine = SchembleEngine::new(ensemble, pipeline, &part.workload)
                        .with_trace(Arc::clone(&trace.sink));
                    let run = run_with(
                        &mut engine,
                        latencies,
                        &part.workload,
                        shard_seed,
                        "schemble-latency",
                        &shard_config,
                        &metrics,
                        steal.as_mut(),
                    );
                    drop(finished);
                    // Stealing marks released slots stale; without it there
                    // are none.
                    let released_slots: HashSet<u64> = steal
                        .map(StealHandle::into_released_slots)
                        .unwrap_or_default()
                        .into_iter()
                        .collect();
                    let mut records = engine.take_records();
                    // A released query's blank record slot stays behind on
                    // the victim; its current owner's record is the live
                    // one. Filter by *local* slot before translating ids —
                    // a query stolen back gets a fresh slot, and that one
                    // must survive even though an older slot of the same
                    // global id went stale.
                    records.retain(|r| !released_slots.contains(&r.id));
                    let global_ids = trace.ids.lock().unwrap_or_else(|e| e.into_inner());
                    for r in &mut records {
                        r.id = global_ids[r.id as usize];
                    }
                    ShardOutcome { records, run }
                })
            })
            .collect();
        // The calling thread merges the shard traces while the shards run.
        if let Some(outer) = outer {
            merge_while_running(outer, &traces, m);
        }
        handles.into_iter().map(|h| h.join().expect("shard thread panicked")).collect()
    });
    drop(reporter);
    if let Some(sink) = &config.trace {
        for trace in &traces {
            sink.planning.merge(&trace.sink.planning);
        }
    }

    // --- Order-insensitive merge (outcomes are indexed by shard id; no
    // step below depends on which shard thread finished first). ---
    let mut records: Vec<QueryRecord> = Vec::with_capacity(workload.len());
    let mut runs: Vec<RunStats> = Vec::with_capacity(shards);
    for outcome in outcomes {
        records.extend(outcome.records);
        runs.push(outcome.run);
    }
    let sim_secs = runs.iter().map(|run| run.sim_secs).fold(0f64, f64::max);
    records.sort_by_key(|r| r.id);

    // Each shard ran a full executor replica, so model `k`'s usage sums
    // over shards and reports `instances = S`.
    let models: Vec<ModelUsage> = (0..m)
        .map(|k| ModelUsage {
            name: ensemble.models[k].name.clone(),
            busy_secs: runs.iter().map(|run| run.usage[k].busy_secs).sum(),
            tasks: runs.iter().map(|run| run.usage[k].tasks).sum(),
            instances: shards,
        })
        .collect();
    let summary = RunSummary::new(records).with_usage(models);

    let metrics = Arc::new(RuntimeMetrics::merged(shard_metrics.iter().map(Arc::as_ref)));
    let stats = metrics.lock().stats;
    ServeReport { summary, stats, metrics, wall_secs: wall_start.elapsed().as_secs_f64(), sim_secs }
}

/// The calling thread's part of a traced sharded run: every
/// [`DRAIN_INTERVAL`] it takes each running shard's new events, globalizes
/// them, and emits into `outer` whatever [`StreamingMerge`]'s horizon lets
/// through; once every shard has finished, it emits the rest. Each event is
/// held once — in its shard's ring, in the merge's pending chunk or in
/// `outer` — and `outer`, its tap and its drop count end exactly as one
/// emit of the whole merged stream after the join would leave them.
fn merge_while_running(outer: &TraceSink, traces: &[ShardTrace], executors_per_shard: usize) {
    // The outer ring ends as the largest buffer of the run; grown by
    // doubling, each step would copy it and peak memory would depend on
    // where the copies landed.
    outer.preallocate();
    let mut merge = StreamingMerge::new(traces.len());
    let mut spare = Vec::new();
    loop {
        for (s, trace) in traces.iter().enumerate() {
            if merge.is_finished(s) {
                continue;
            }
            // Read before the drain: a shard seen finished has emitted its
            // last event, so this drain takes the rest of its stream.
            let finished = trace.finished.load(Acquire);
            trace.sink.swap_out(&mut spare);
            // Locked after the drain, the map holds every id the drained
            // events name (`StealHandle::id_map`).
            let ids = trace.ids.lock().unwrap_or_else(|e| e.into_inner());
            let offset = (s * executors_per_shard) as u16;
            merge.push(s, spare.drain(..).map(|event| globalize_event(event, &ids, offset)));
            if finished {
                merge.finish(s);
            }
        }
        merge.emit_before(merge.horizon(), outer);
        if merge.all_finished() {
            return;
        }
        std::thread::sleep(DRAIN_INTERVAL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemble_core::experiment::{ExperimentConfig, ExperimentContext};
    use schemble_data::TaskKind;
    use schemble_sim::SimDuration;
    use schemble_trace::{TraceEvent, DEFAULT_CAPACITY};

    #[test]
    fn shared_shard_state_is_sync() {
        fn is_sync<T: Sync + ?Sized>() {}
        // The shard threads borrow these immutably; losing Sync on any of
        // them (e.g. interior mutability creeping into a scheduler) must
        // fail here, at the narrowest point, not in the thread::scope call.
        is_sync::<Ensemble>();
        is_sync::<SchembleConfig>();
        is_sync::<ServeConfig>();
        is_sync::<Workload>();
    }

    #[test]
    fn router_is_deterministic_and_covers_all_shards() {
        let router = ShardRouter::new(4);
        for id in 0..1000u64 {
            assert_eq!(router.route(id), router.route(id));
            assert!(router.route(id) < 4);
        }
        let mut counts = [0usize; 4];
        for id in 0..1000u64 {
            counts[router.route(id)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!((150..=350).contains(&c), "shard {s} got {c} of 1000 — router is skewed");
        }
        // Single shard routes everything to shard 0; zero clamps to one.
        assert_eq!(ShardRouter::new(1).route(123), 0);
        assert_eq!(ShardRouter::new(0).shards(), 1);
    }

    /// Two-shard virtual-clock runs of one `queries`-long workload, each
    /// traced into an outer sink of the given capacity, stealing every
    /// `steal_epoch` if given: per run, the stored events and the sink's
    /// drop count.
    fn traced_runs(
        queries: usize,
        steal_epoch: Option<SimDuration>,
        capacities: &[usize],
    ) -> Vec<(Vec<TraceEvent>, u64)> {
        let mut config = ExperimentConfig::small(TaskKind::TextMatching, 11);
        config.n_queries = queries;
        let mut ctx = ExperimentContext::new(config);
        let workload = ctx.workload();
        let pipeline = ctx.artifacts().pipeline();
        capacities
            .iter()
            .map(|&capacity| {
                let sink = TraceSink::new(capacity);
                let config = ServeConfig {
                    mode: ClockMode::Virtual,
                    trace: Some(Arc::clone(&sink)),
                    shards: 2,
                    steal_epoch,
                    ..ServeConfig::default()
                };
                serve_schemble_sharded(&ctx.ensemble, &pipeline, &workload, 11, &config);
                (sink.drain(), sink.dropped())
            })
            .collect()
    }

    /// Only the outer sink bounds the trace, and it bounds the merged
    /// stream: a truncated run keeps exactly the head of the untruncated
    /// one and counts the rest, whatever the drains happened to find, run
    /// after run.
    #[test]
    fn a_truncated_sharded_trace_is_the_head_of_the_whole_one() {
        for steal_epoch in [None, Some(SimDuration::from_millis(25))] {
            let runs = traced_runs(150, steal_epoch, &[DEFAULT_CAPACITY, 64, 64, 64]);
            let (full, none_dropped) = &runs[0];
            assert_eq!(*none_dropped, 0);
            assert!(full.len() > 64 * 4, "the run must overflow the outer sink");
            let stole = full.iter().any(|e| matches!(e, TraceEvent::QueryStolen { .. }));
            assert_eq!(stole, steal_epoch.is_some(), "only the stealing run steals");
            for (kept, dropped) in &runs[1..] {
                assert_eq!(kept[..], full[..64]);
                assert_eq!(*dropped, (full.len() - 64) as u64);
            }
        }
    }

    /// Where it used to break: more events per shard than the default
    /// capacity, which shard sinks once had whatever the outer sink's — the
    /// merged stream lost its tail while `dropped()` said 0.
    #[test]
    fn shard_sinks_hold_what_a_larger_outer_sink_can() {
        let queries = 180_000;
        let (events, dropped) = traced_runs(queries, None, &[DEFAULT_CAPACITY * 4]).remove(0);
        assert!(events.len() > DEFAULT_CAPACITY * 2, "only {} events", events.len());
        assert_eq!(dropped, 0);
        let arrivals = events.iter().filter(|e| matches!(e, TraceEvent::Arrival { .. })).count();
        assert_eq!(arrivals, queries, "the stream is whole");
    }
}
