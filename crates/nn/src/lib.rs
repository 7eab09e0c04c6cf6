//! From-scratch neural networks for the Schemble reproduction.
//!
//! The paper trains *lightweight* networks in three places:
//!
//! 1. the **discrepancy-score predictor** (§V-C) — a two-headed network whose
//!    first head predicts the original task output and whose second head
//!    regresses the discrepancy score, trained with the weighted loss of
//!    Eq. 2: `l(label, out₁) + λ·MSE(dis, out₂)`;
//! 2. the **gating network** baseline (§II/§V-C) — same architecture, but
//!    outputs one weight per base model;
//! 3. the **stacking meta-classifier** (§VII) — aggregates base-model outputs.
//!
//! All three are multi-layer perceptrons over modest feature vectors, so this
//! crate implements exactly that: dense layers with pluggable activations,
//! logit-space losses (numerically stable binary/softmax cross-entropy),
//! mean-squared error, SGD and Adam optimisers, and a mini-batch training
//! loop. No autograd graph — backprop is hand-derived per layer, which keeps
//! the implementation small, fast and easy to audit.
//!
//! # One kernel, no per-step allocation
//!
//! Every product a training step or a score takes — the forward `X·W`, the
//! weight gradient `Xᵀ·δ` and the input gradient `δ·Wᵀ` — is one call of
//! [`schemble_tensor::gemm`], which reads a transposed operand in place and
//! writes into the layer's own buffer. A [`Dense`] layer keeps its input and
//! output caches, `δ`, its gradients and its input gradient from step to
//! step, and the training loops keep their batch, so once the first batch
//! has sized them a step of [`DiscrepancyPredictor::fit`] allocates nothing
//! (a test gate counts it). A network's first layer computes no input
//! gradient: nothing reads it.
//!
//! The kernel has no branch on the data; it adds a zero term like any other.
//! Its one precondition: it is bit-equal to a loop that skips the zeros of
//! the left-hand side only while the right-hand side (the weights, or `δ`
//! in a weight gradient) is finite — a zero times an infinity is NaN where
//! the skip would have added nothing. Weights start finite and Adam's step
//! is bounded, and `δ` is finite while the forward pass is, so the right-hand
//! side of a step is non-finite only after a step has already overflowed,
//! when training is lost either way; no caller keeps the skip.

pub mod dense;
pub mod loss;
pub mod lstm;
pub mod mlp;
pub mod optim;
pub mod predictor;
pub mod seq_predictor;

pub use dense::{Activation, Dense};
pub use lstm::Lstm;
pub use mlp::Mlp;
pub use optim::{Adam, Optimizer, Sgd};
pub use predictor::{DiscrepancyPredictor, PredictorConfig};
pub use seq_predictor::{SeqPredictorConfig, SequencePredictor};

#[cfg(test)]
mod oracle;
