//! The `exp` driver's experiments (`src/bin/exp.rs` is only `main`).
//!
//! Each function of [`exp`] regenerates one of the paper's tables/figures as
//! a [`Report`] of printed series; [`EXPERIMENTS`] lists them in the order
//! `exp all` runs them. The [`Scale`] is an argument: `QUICK=1` in the
//! environment of the binary shrinks workloads for smoke runs, and the
//! defaults are sized so a full regeneration of `results/` finishes in
//! about a minute on a laptop.

pub mod exp;
pub mod fmt;

pub use exp::{select, Experiment, Scale, EXPERIMENTS};
pub use fmt::{Report, Table};
