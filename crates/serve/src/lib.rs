//! `schemble-serve`: a wall-clock, multi-threaded serving runtime for the
//! Schemble pipelines.
//!
//! The simulator (`schemble-sim` + the DES drivers in `schemble-core`)
//! answers *what would happen*; this crate runs the same pipelines for
//! real: per-model worker threads realise synthetic model latencies as
//! actual waits, a load generator replays any
//! [`ArrivalTrace`](schemble_data::ArrivalTrace) in (dilated) real time,
//! and a scheduler loop re-runs the DP over the live buffer on every
//! arrival and completion, enforcing deadlines with timers.
//!
//! The load-bearing design choice is that **decision logic is shared, not
//! duplicated**: pipelines are [`PipelineEngine`]s (in
//! `schemble_core::engine`), and this crate only supplies an
//! [`ExecutionBackend`](schemble_core::backend::ExecutionBackend) made of
//! threads and channels. Running the engine over the simulator backend
//! instead ([`ClockMode::Virtual`]) reproduces the DES pipelines'
//! admission decisions exactly — the bridge that lets wall-clock behaviour
//! be validated against the paper's simulated results.
//!
//! ```text
//!   loadgen ──Arrive──▶ ┌────────────────┐ ──start/enqueue──▶ workers
//!                       │ scheduler loop │                    (wait τ/γ)
//!   timers ───Wake────▶ │ PipelineEngine │ ◀────TaskDone────────┘
//!                       └────────────────┘
//!                               │ sync_metrics, one lock per step
//!                               ▼
//!                  RuntimeMetrics record ──▶ snapshots, exporters
//! ```
//!
//! Loadgen, loop and workers all wait on [`clock::precise_sleep`] /
//! [`clock::precise_recv_timeout`]: an OS wait, then a spin through a
//! window each thread sizes from its own wake-up overshoot. A worker's
//! wait is on its own channel, so a pass the bank killed is abandoned at
//! the next submit instead of delaying it.

pub mod backend;
pub mod clock;
pub mod runtime;
pub mod shard;
pub mod steal;
pub mod worker;

pub use backend::ThreadedBackend;
pub use clock::DilatedClock;
pub use runtime::{
    run_virtual, run_wall, serve_immediate, serve_schemble, ClockMode, RunStats, ServeConfig,
    ServeReport,
};
pub use schemble_core::engine::PipelineEngine;
pub use shard::{serve_schemble_sharded, ShardRouter};
pub use steal::{transfer_plan, LoadSnapshot, StealCoordinator, StealHandle, Transfer};
