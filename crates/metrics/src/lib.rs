//! Evaluation metrics for the Schemble experiments.
//!
//! Implements exactly the quantities the paper reports:
//!
//! * **accuracy** — fraction of queries whose returned result agrees with the
//!   original ensemble's output, counting missed/rejected queries as
//!   incorrect ("queries that miss their deadline are considered incorrect");
//! * **processed accuracy** — accuracy over completed queries only (Fig. 10b);
//! * **deadline miss rate (DMR)** — fraction of queries with no valid result
//!   by their deadline;
//! * **mAP** — mean average precision for retrieval (AP of a single relevant
//!   item = 1/rank);
//! * **latency statistics** — mean / P95 / max (Table II);
//! * **trade-off objective** — `c = 100·Acc − λ·Latency` (Fig. 11/15);
//! * **per-time-segment aggregation** — hourly series (Fig. 9/14);
//!
//! and the serving runtime's telemetry: live counters ([`runtime`]) and one
//! [`LogHistogram`] under every latency-shaped aggregate ([`histogram`]).

pub mod aggregate;
pub mod export;
pub mod histogram;
pub mod latency;
pub mod outcome;
pub mod runtime;
pub mod segments;
pub mod tradeoff;

pub use aggregate::SeedStats;
pub use export::{to_csv, write_csv};
pub use histogram::{Counter, LatencyHistogram, LatencyWindow, LogHistogram, PlanHistogram};
pub use latency::LatencyStats;
pub use outcome::{ModelUsage, QueryOutcome, QueryRecord, RunSummary};
pub use runtime::{ExecutorGauges, RuntimeCounters, RuntimeMetrics, RuntimeSnapshot};
pub use segments::SegmentSeries;
pub use tradeoff::tradeoff_objective;
