//! # Schemble
//!
//! A from-scratch Rust reproduction of **"Efficient Deep Ensemble Inference
//! via Query Difficulty-dependent Task Scheduling"** (ICDE 2023).
//!
//! Schemble serves deep-ensemble inference under per-query deadlines by
//! splitting each ensemble inference into per-base-model tasks, predicting
//! each query's *difficulty* (discrepancy score), and scheduling the tasks
//! with a quantized dynamic-programming algorithm over the query buffer.
//!
//! This umbrella crate re-exports the workspace crates under stable paths:
//!
//! * [`tensor`] — dense linear algebra + probability distances.
//! * [`nn`] — from-scratch neural networks (the discrepancy predictor).
//! * [`sim`] — deterministic discrete-event simulation engine.
//! * [`models`] — synthetic base models, ensembles and aggregation.
//! * [`data`] — sample generators, difficulty distributions, arrival traces.
//! * [`core`] — discrepancy score, profiling, DP scheduler, pipelines.
//! * [`baselines`] — DES and gating-network selection baselines.
//! * [`serve`] — wall-clock multi-threaded serving runtime (worker threads,
//!   an arrival lane replaying the trace, and the simulator's driver loop
//!   re-planning live on a dilated clock).
//! * [`metrics`] — accuracy / deadline-miss-rate / latency evaluation.
//! * [`trace`] — query lifecycle tracing, scheduler audit log, and the
//!   Chrome-trace / Prometheus / NDJSON exporters.
//! * [`cli`] — the `schemble` binary's subcommands, flag spec and method table.
//! * [`obs`] — live introspection: windowed SLO time-series, per-query plan
//!   explainability, drift detectors and the post-mortem flight recorder.
//!
//! ## Quickstart
//!
//! ```
//! use schemble::core::experiment::{ExperimentConfig, ExperimentContext, PipelineKind};
//! use schemble::data::task::TaskKind;
//!
//! let mut ctx = ExperimentContext::new(ExperimentConfig::small(TaskKind::TextMatching, 42));
//! let outcome = ctx.run(PipelineKind::Schemble, &ctx.workload());
//! println!("accuracy={:.3} dmr={:.3}", outcome.accuracy(), outcome.deadline_miss_rate());
//! ```

pub mod cli;

pub use schemble_baselines as baselines;
pub use schemble_core as core;
pub use schemble_data as data;
pub use schemble_metrics as metrics;
pub use schemble_models as models;
pub use schemble_nn as nn;
pub use schemble_obs as obs;
pub use schemble_serve as serve;
pub use schemble_sim as sim;
pub use schemble_tensor as tensor;
pub use schemble_trace as trace;
