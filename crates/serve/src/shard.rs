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
//!
//! Shared across shards (immutably): the ensemble, the pipeline config
//! (schedulers are `Send + Sync` and plan out of caller-owned scratch), and
//! the fault plan. Owned per shard: the engine and its buffers, the
//! sub-workload, executors `s*m .. (s+1)*m`, the RNG streams, a trace sink
//! and a metrics block.

use crate::runtime::{run_with, ClockMode, Reporter, RunStats, ServeConfig, ServeReport};
use crate::steal::StealCoordinator;
use schemble_core::engine::{PipelineEngine, SchembleEngine};
use schemble_core::pipeline::SchembleConfig;
use schemble_data::Workload;
use schemble_metrics::{ModelUsage, QueryRecord, RunSummary, RuntimeMetrics};
use schemble_models::Ensemble;
use schemble_sim::rng::{mix, splitmix64};
use schemble_sim::LatencyModel;
use schemble_trace::{globalize_events, merge_shard_streams, TraceEvent, TraceSink};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

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
    events: Vec<TraceEvent>,
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

    // Shard sinks record whenever the outer sink is enabled *or* tapped
    // (e.g. by a flight recorder): the merged re-emission below feeds the
    // outer tap, so a tap-only sink still needs shard-level capture. Each
    // holds as much as the outer sink: more could not be kept anyway, and
    // what a shard drops is added to the outer drop count below. The
    // rings are allocated here, on the calling thread, at their full size:
    // they are the run's largest buffers, and one grown on a shard thread
    // sits in whichever malloc arena that thread drew, so how much memory
    // stays resident afterwards differs from run to run.
    let sinks: Vec<Arc<TraceSink>> = (0..shards)
        .map(|_| match &config.trace {
            Some(outer) if outer.observing() => TraceSink::preallocated(outer.capacity()),
            _ => TraceSink::disabled(),
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
            .enumerate()
            .map(|(s, part)| {
                let sink = Arc::clone(&sinks[s]);
                let metrics = Arc::clone(&shard_metrics[s]);
                let coordinator = coordinator.clone();
                scope.spawn(move || {
                    // Everything random in this shard — task latencies,
                    // fault fates — derives from (seed, shard).
                    let shard_seed = mix(seed, s as u64);
                    let latencies: Vec<LatencyModel> =
                        (0..m).map(|k| ensemble.latency(k)).collect();
                    let shard_config = ServeConfig {
                        report_every: None,
                        trace: Some(Arc::clone(&sink)),
                        shards: 1,
                        ..config.clone()
                    };
                    let mut engine = SchembleEngine::new(ensemble, pipeline, &part.workload)
                        .with_trace(Arc::clone(&sink));
                    let mut steal =
                        coordinator.map(|c| c.handle(s as u16, part.global_ids.clone()));
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
                    // Stealing extends the id map (adopted queries) and
                    // marks released slots stale; without it, both reduce
                    // to the partition's own map.
                    let (global_ids, released_slots) = match steal {
                        Some(handle) => handle.into_maps(),
                        None => (part.global_ids.clone(), Vec::new()),
                    };
                    let released_slots: HashSet<u64> = released_slots.into_iter().collect();
                    let mut records = engine.take_records();
                    // A released query's blank record slot stays behind on
                    // the victim; its current owner's record is the live
                    // one. Filter by *local* slot before translating ids —
                    // a query stolen back gets a fresh slot, and that one
                    // must survive even though an older slot of the same
                    // global id went stale.
                    records.retain(|r| !released_slots.contains(&r.id));
                    for r in &mut records {
                        r.id = global_ids[r.id as usize];
                    }
                    let events = globalize_events(sink.drain(), &global_ids, (s * m) as u16);
                    ShardOutcome { records, run, events }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("shard thread panicked")).collect()
    });
    drop(reporter);

    // --- Order-insensitive merge (outcomes are indexed by shard id; no
    // step below depends on which shard thread finished first). ---
    let mut records: Vec<QueryRecord> = Vec::with_capacity(workload.len());
    let mut runs: Vec<RunStats> = Vec::with_capacity(shards);
    let mut streams: Vec<Vec<TraceEvent>> = Vec::with_capacity(shards);
    for outcome in outcomes {
        records.extend(outcome.records);
        runs.push(outcome.run);
        streams.push(outcome.events);
    }
    let sim_secs = runs.iter().map(|run| run.sim_secs).fold(0f64, f64::max);
    records.sort_by_key(|r| r.id);

    // The shard streams are each in time order, so they merge lazily
    // straight into the outer sink and are freed right after: the event
    // stream is held twice at most (shard streams + outer ring).
    if let Some(sink) = &config.trace {
        sink.emit_all(merge_shard_streams(&streams));
        for shard_sink in &sinks {
            sink.add_dropped(shard_sink.dropped());
            sink.planning.merge(&shard_sink.planning);
        }
    }
    drop(streams);

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

#[cfg(test)]
mod tests {
    use super::*;
    use schemble_core::experiment::{ExperimentConfig, ExperimentContext};
    use schemble_data::TaskKind;
    use schemble_trace::DEFAULT_CAPACITY;

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
    /// traced into an outer sink of the given capacity: per run, the
    /// stored events and the sink's drop count.
    fn traced_runs(queries: usize, capacities: &[usize]) -> Vec<(Vec<TraceEvent>, u64)> {
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
                    ..ServeConfig::default()
                };
                serve_schemble_sharded(&ctx.ensemble, &pipeline, &workload, 11, &config);
                (sink.drain(), sink.dropped())
            })
            .collect()
    }

    #[test]
    fn a_truncated_sharded_trace_owns_up_to_every_dropped_event() {
        let runs = traced_runs(150, &[DEFAULT_CAPACITY, 64]);
        let (full, none_dropped) = &runs[0];
        let (kept, dropped) = &runs[1];
        assert_eq!(*none_dropped, 0);
        assert!(full.len() > 64 * 4, "the run must overflow both shard sinks");
        // Shard sinks are sized like the outer one: each drops its own
        // tail, the outer sink drops again at the merge, and the count
        // covers both.
        assert_eq!(kept.len(), 64);
        assert_eq!(*dropped, (full.len() - kept.len()) as u64);
    }

    /// Where it used to break: more events per shard than the default
    /// capacity, which shard sinks once had whatever the outer sink's — the
    /// merged stream lost its tail while `dropped()` said 0.
    #[test]
    fn shard_sinks_hold_what_a_larger_outer_sink_can() {
        let queries = 180_000;
        let (events, dropped) = traced_runs(queries, &[DEFAULT_CAPACITY * 4]).remove(0);
        assert!(events.len() > DEFAULT_CAPACITY * 2, "only {} events", events.len());
        assert_eq!(dropped, 0);
        let arrivals = events.iter().filter(|e| matches!(e, TraceEvent::Arrival { .. })).count();
        assert_eq!(arrivals, queries, "the stream is whole");
    }
}
