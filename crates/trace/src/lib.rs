//! `schemble-trace`: end-to-end query lifecycle tracing and exportable
//! telemetry for both execution backends.
//!
//! Every query's lifecycle — arrival, admission decision, DP plan, per-task
//! dispatch/start/completion on each executor, assembly or expiry — is
//! emitted as a [`TraceEvent`] into a shared, bounded [`TraceSink`].
//! Events are timestamped in *backend* time (virtual for the DES backend,
//! dilated-wall for the threaded one) and carry no wall-clock measurements,
//! so a discrete-event run and a real-time replay of the same trace produce
//! comparable — for the virtual-clock serve backend, byte-identical —
//! traces. Emission behind a disabled sink is one relaxed atomic load, and
//! enabling tracing never changes a scheduling decision.
//!
//! Three exporters turn a drained event stream into files:
//!
//! * [`chrome_trace`] — Chrome trace-event JSON for Perfetto /
//!   `chrome://tracing`: one track per executor plus a scheduler track.
//! * [`prometheus_text`] — Prometheus text exposition of the runtime
//!   counters, per-executor gauges, latency histogram and the scheduler's
//!   self-profile, written with [`prometheus`]'s line writer (the obs
//!   crate's exposition uses the same one).
//! * [`audit_ndjson`] — a newline-delimited JSON decision audit log, one
//!   line per query in deterministic order, built for diffing runs.
//!
//! The scheduler additionally self-profiles into [`PlanningProfile`]
//! (always on, pure atomics): a wall-clock histogram of DP planning time
//! (100 ns to ~105 ms, 8 buckets per octave), kept strictly out of the
//! event stream so traces stay deterministic.

pub mod audit;
pub mod chrome;
pub mod event;
pub mod json;
pub mod prometheus;
pub mod shard;
pub mod sink;

pub use audit::{audit_ndjson, audit_records, AuditRecord};
pub use chrome::{chrome_trace, chrome_trace_named, complete_task_spans, SCHEDULER_TID};
pub use event::{score_fixed_point, set_members, AdmissionVerdict, TraceEvent};
pub use prometheus::{escape_label, prometheus_text};
pub use shard::{
    globalize_event, globalize_events, merge_shard_events, merge_shard_streams, ShardMerge,
};
pub use sink::{EventTap, PlanningProfile, TraceSink, DEFAULT_CAPACITY};
