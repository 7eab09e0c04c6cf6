//! Minimal dense linear algebra and probability-distance kernels.
//!
//! This crate is the numeric substrate for the Schemble reproduction. It
//! provides exactly what the upper layers need and nothing more:
//!
//! * [`Matrix`] — a row-major dense `f64` matrix with the handful of BLAS-like
//!   operations the neural-network crate uses (matmul, elementwise
//!   maps, row/column reductions), and [`gemm`], the one dense kernel under
//!   every product: `out += a·b`, `aᵀ·b` or `a·bᵀ` into a caller's slice,
//!   register-tiled and branch-free.
//! * [`dist`] — distances between probability distributions (KL, symmetric
//!   KL, Jensen–Shannon) and vectors (Euclidean), used by the discrepancy
//!   score (Eq. 1 of the paper) and the ensemble-agreement baseline.
//! * [`prob`] — softmax / log-softmax / entropy / temperature scaling helpers.
//! * [`stats`] — scalar statistics (mean, variance, z-score and min-max
//!   normalisation, percentiles, Pearson correlation) shared across profiling
//!   and evaluation code.
//!
//! Everything operates on `f64`: the matrices involved are tiny (predictor
//! networks with a few thousand weights), so simplicity and numerical headroom
//! beat `f32` throughput here.

pub mod dist;
pub mod matrix;
pub mod prob;
pub mod stats;

pub use matrix::{gemm, Layout, Matrix};
