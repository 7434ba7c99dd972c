//! # bluedove-bench
//!
//! Shared experiment plumbing for the Criterion micro-benchmarks and the
//! `experiments` binary that regenerates every figure of the paper's
//! evaluation (see `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured results). [`json`] and
//! [`trajectory::validate`] are what `loadbench/` writes and checks its
//! reports with.

pub mod exp;
pub mod json;
pub mod trajectory;

pub use exp::*;
