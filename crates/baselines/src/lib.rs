//! Dynamic-selection baselines: DES (FIRE-DES++-style) and the gating
//! network (§II, §V-C).
//!
//! Both pick a model subset from the query's *features alone*, ignoring
//! queue state — the two failure modes the paper's scheduler fixes. They
//! plug into the immediate-selection pipeline through
//! [`schemble_core::pipeline::SelectionPolicy`].
//!
//! * [`des::DesSelector`] — clusters the historical feature space (k-means,
//!   from scratch), estimates a per-region *competence score* for every
//!   model (its agreement rate with the ensemble inside the region), and
//!   selects the models whose competence clears a threshold in the arriving
//!   query's region.
//! * [`gating::GatingSelector`] — trains a gating network (same architecture
//!   family as the discrepancy predictor) to regress every model's
//!   per-query correctness, then thresholds the gate weights.

pub mod des;
pub mod experiment;
pub mod gating;
pub mod kmeans;

pub use des::DesSelector;
pub use experiment::{run_baseline, BaselineKind, Method, METHODS};
pub use gating::GatingSelector;
