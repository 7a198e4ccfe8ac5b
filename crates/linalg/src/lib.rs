#![warn(missing_docs)]
//! # alperf-linalg
//!
//! Dense linear-algebra substrate for the Active-Learning performance-analysis
//! framework. The Gaussian Process Regression layer (`alperf-gp`) needs
//! exactly the operations implemented here:
//!
//! * a row-major dense [`Matrix`] with (parallel) matrix–vector and
//!   matrix–matrix products,
//! * a robust [Cholesky factorization](cholesky::Cholesky) of symmetric
//!   positive-definite matrices with jitter-based retry (covariance matrices
//!   are SPD in exact arithmetic but frequently borderline in `f64`),
//! * forward/backward [triangular solves](triangular) used to apply
//!   `K_y^{-1}` without ever forming an explicit inverse,
//! * small [statistics helpers](stats) (mean, variance, standardization)
//!   shared by the dataset and metric layers.
//!
//! Everything is `f64`; the library is deliberately free of external
//! linear-algebra dependencies so that the whole reproduction is
//! self-contained. Hot loops (covariance assembly, GEMM) use
//! [rayon](https://docs.rs/rayon) data parallelism with serial fallbacks for
//! small problem sizes where the fork-join overhead would dominate.

pub mod cholesky;
pub mod error;
pub mod fastmath;
pub mod matrix;
pub mod stats;
pub mod threads;
pub mod triangular;
pub mod vector;

pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use matrix::Matrix;
