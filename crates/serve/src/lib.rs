//! `schemble-serve`: a wall-clock, multi-threaded serving runtime for the
//! Schemble pipelines.
//!
//! The simulator (`schemble-sim` + the DES drivers in `schemble-core`)
//! answers *what would happen*; this crate runs the same pipelines for
//! real: per-model worker threads realise synthetic model latencies as
//! actual waits, any [`ArrivalTrace`](schemble_data::ArrivalTrace) is
//! replayed in (dilated) real time from an arrival lane, and the DP
//! re-runs over the live buffer on every arrival and completion, with
//! deadlines enforced by timers.
//!
//! The load-bearing design choice is that **decision logic is shared, not
//! duplicated**: pipelines are [`PipelineEngine`]s (in
//! `schemble_core::engine`), and this crate only supplies an
//! [`ExecutionBackend`](schemble_core::backend::ExecutionBackend) made of
//! threads and channels, plus the event source that waits on them. Both
//! clocks run one driver loop, `schemble_core::pipeline::advance`; over the
//! simulator instead ([`ClockMode::Virtual`]) it reproduces the DES
//! pipelines' admission decisions exactly — the bridge that lets
//! wall-clock behaviour be validated against the paper's simulated results.
//!
//! ```text
//!   arrival lane ──Arrival──▶ ┌──────────────────┐ ──start/enqueue──▶ workers
//!   timers ────────Wake─────▶ │ advance(t)       │                    (wait τ/γ)
//!                             │ → PipelineEngine │ ◀────TaskDone────────┘
//!                             └──────────────────┘
//!                                     │ sync_metrics, one lock per step
//!                                     ▼
//!                        RuntimeMetrics record ──▶ snapshots, exporters
//! ```
//!
//! The driver and the workers all wait on [`clock::precise_recv_timeout`]
//! (the timer [`clock::precise_sleep`] uses too): an OS wait, then a spin
//! through a window each thread sizes from its own wake-up overshoot. A
//! worker's wait is on its own channel, so a pass the bank killed is
//! abandoned at the next submit instead of delaying it.

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
