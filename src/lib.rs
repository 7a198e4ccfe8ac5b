#![warn(missing_docs)]
//! # alperf — Active Learning in Performance Analysis
//!
//! A from-scratch Rust reproduction of *Active Learning in Performance
//! Analysis* (Duplyakin, Brown, Ricci — IEEE CLUSTER 2016): adaptive
//! experiment design for performance/energy studies of HPC codes, built on
//! Gaussian Process Regression.
//!
//! ## The 30-second tour
//!
//! ```
//! use alperf::gp::kernel::SquaredExponential;
//! use alperf::gp::noise::NoiseFloor;
//! use alperf::gp::optimize::{fit_gpr, GprConfig};
//! use alperf::linalg::matrix::Matrix;
//!
//! // Measurements of a noisy performance curve.
//! let x = Matrix::from_vec(5, 1, vec![1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
//! let y = vec![1.1, 1.9, 3.2, 3.9, 5.1];
//!
//! // Fit a GPR with marginal-likelihood hyperparameter optimization and
//! // the paper's recommended noise floor (sigma_n >= 0.1).
//! let cfg = GprConfig::new(Box::new(SquaredExponential::unit()))
//!     .with_noise_floor(NoiseFloor::recommended());
//! let (model, _) = fit_gpr(&x, &y, &cfg).unwrap();
//!
//! // Predict with uncertainty — the quantity Active Learning feeds on.
//! let p = model.predict_one(&[2.5]).unwrap();
//! assert!((p.mean - 2.5).abs() < 0.5);
//! assert!(p.std > 0.0);
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`linalg`] | dense matrices, Cholesky, triangular solves |
//! | [`gp`] | GPR, kernels, LML optimization, noise floors |
//! | [`data`] | datasets, partitions, transforms, CSV, Table I summaries |
//! | [`hpgmg`] | full-multigrid Poisson solver + calibrated perf/energy model |
//! | [`cluster`] | SLURM-like scheduler, IPMI power traces, campaign pipeline, focus slice |
//! | [`al`] | acquisition strategies, AL loop, metrics, tradeoff analysis |
//! | [`framework`] | high-level offline/online analysis sessions |
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `crates/bench/src/bin/` for the per-figure reproduction binaries.

pub use alperf_al as al;
pub use alperf_cluster as cluster;
pub use alperf_core as framework;
pub use alperf_data as data;
pub use alperf_gp as gp;
pub use alperf_hpgmg as hpgmg;
pub use alperf_linalg as linalg;
