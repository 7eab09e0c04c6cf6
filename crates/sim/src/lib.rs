//! Deterministic discrete-event simulation engine.
//!
//! The paper evaluates Schemble on a GPU server executing base-model
//! inference tasks non-preemptively. This crate substitutes that testbed with
//! a discrete-event simulator exposing exactly the observables the scheduler
//! consumes: a virtual clock, known (approximately constant) execution
//! times, seeded faults and a totally ordered event stream. The per-model
//! executors themselves (running pass, FIFO backlog, batches) are
//! `schemble-core`'s `ExecutorBank`, shared with the wall-clock runtime.
//!
//! Design points:
//!
//! * **Integer time.** [`SimTime`]/[`SimDuration`] are microsecond counters
//!   (`u64`). Floating-point time makes event ordering platform-dependent;
//!   integer microseconds keep every run bit-reproducible.
//! * **Total event order.** The event heap breaks time ties with a
//!   monotonically increasing sequence number, so two events at the same
//!   instant always pop in insertion order.
//! * **Deterministic randomness.** [`rng::derive_seed`] splits a root seed
//!   into independent named streams so workload generation, latency jitter
//!   and model noise never share state.

pub mod batch;
pub mod event;
pub mod fault;
pub mod latency;
pub mod rng;
pub mod time;

pub use batch::{BatchConfig, BatchCurve};
pub use event::EventQueue;
pub use fault::{CrashWindow, FaultPlan, FaultState, FaultTransition, StragglerEpisode, TaskFate};
pub use latency::LatencyModel;
pub use time::{SimDuration, SimTime};
