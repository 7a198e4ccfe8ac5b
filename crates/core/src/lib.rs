#![warn(missing_docs)]
//! # alperf-core
//!
//! The paper's framework, assembled: "a new framework for performance
//! analysis based on Active Learning and Gaussian Process Regressions
//! [that] helps identify optimal sequences of experiments for reducing
//! uncertainty about various quantities of interest" (Section I).
//!
//! Two modes, mirroring Section V-A:
//!
//! * **Offline** ([`analysis`]): replay AL against a database of collected
//!   measurements — partition into Initial/Active/Test, iterate, compare
//!   strategies across many random partitions. This is how every figure in
//!   the paper is produced.
//! * **Online** ([`online`]): "the target use case ... where every
//!   iteration of AL includes selecting an experiment, running it, and
//!   using the experiment outcome to update the underlying GPR model."
//!   The oracle can be anything that measures — the `online_al` example
//!   plugs in the real multigrid solver from `alperf-hpgmg`.

pub mod analysis;
pub mod online;

pub use analysis::{AnalysisConfig, PerformanceAnalysis, PreparedProblem};
pub use online::{OnlineAl, OnlineRecord};
