//! Workload generation: samples, arrival traces and deadline assignment.
//!
//! The paper drives each application with a different query process
//! (§VIII, "Query traffic and evaluation metric"):
//!
//! * **Text matching** — a recorded one-day trace from a production Q&A
//!   system with a pronounced daytime burst (traffic "multiplied by 30"),
//!   constant deadlines. [`trace::DiurnalTrace`] reproduces the shape with a
//!   compressed day whose per-hour rates follow the paper's Fig. 1a profile.
//! * **Vehicle counting** — Poisson arrivals with constant rate; each query
//!   carries a deadline drawn per *camera* from a uniform distribution
//!   (locations have different priorities).
//! * **Image retrieval** — Poisson arrivals, constant deadlines.
//!
//! [`workload::Workload`] ties a sample generator, an arrival trace and a
//! deadline policy into the query stream consumed by the serving pipelines.

pub mod deadline;
pub mod task;
pub mod trace;
pub mod workload;

pub use deadline::DeadlinePolicy;
pub use task::TaskKind;
pub use trace::{ArrivalTrace, DiurnalSliceTrace, DiurnalTrace, PoissonTrace};
pub use workload::{Query, Workload};
