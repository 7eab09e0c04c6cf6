//! Schemble core: the paper's contribution.
//!
//! The framework decomposes into the modules of Fig. 3:
//!
//! * [`calibration`] — per-model temperature scaling (Guo et al.), applied to
//!   classifier outputs before any divergence is computed (§V-A).
//! * [`discrepancy`] — the **discrepancy score** (Eq. 1): normalised average
//!   distance between each base model's calibrated output and the ensemble's
//!   output; plus the *ensemble agreement* baseline metric it improves on.
//! * [`profiling`] — **model-combination accuracy profiling** (§V-D): bin
//!   historical samples by score, measure every subset's agreement with the
//!   ensemble per bin, and (for large ensembles) estimate big-set utilities
//!   with the marginal-reward recursion of Eq. 3.
//! * [`predictor`] — online score estimation: the two-headed network of §V-C
//!   (implemented in `schemble-nn`) plus oracle/constant scorers used by the
//!   `Schemble*(Oracle)` and `Schemble(t)` ablations.
//! * [`scheduler`] — the **task scheduler** (§VI): the quantized
//!   dynamic-programming algorithm (Alg. 1) with Pareto pruning and EDF
//!   execution order, plus the Greedy+EDF/FIFO/SJF baselines of Exp-4.
//! * [`filling`] — **missing-value filling** (§VII): vote exclusion, weight
//!   renormalisation, and the KNN filler for stacking aggregators.
//! * [`engine`] — the pipelines' decision logic as state machines over
//!   backend events: `SchembleEngine` (query buffer, re-planning,
//!   dispatch-on-idle, anytime exit, steal custody) and `ImmediateEngine`
//!   (selection at arrival, FIFO enqueue), over one query ledger, one
//!   id-ordered open-query table and one fault book. [`backend`] and
//!   [`executor`] are what they run on.
//! * [`pipeline`] — the discrete-event serving pipelines: the original
//!   run-everything pipeline, immediate-selection baselines (static
//!   deployments with replicas, feature-based selectors) and the full
//!   Schemble pipeline (query buffer, dispatch-on-idle, re-planning,
//!   scheduling-cost accounting).
//! * [`artifacts`] / [`experiment`] — everything wired together: train once
//!   per task/seed, then run any pipeline under any workload.

pub mod artifacts;
pub mod backend;
pub mod calibration;
pub mod discrepancy;
pub mod engine;
pub mod executor;
pub mod experiment;
pub mod filling;
mod history;
pub mod pipeline;
pub mod predictor;
pub mod profiling;
pub mod scheduler;

pub use artifacts::SchembleArtifacts;
pub use discrepancy::{DifficultyMetric, DiscrepancyScorer};
pub use profiling::AccuracyProfile;
