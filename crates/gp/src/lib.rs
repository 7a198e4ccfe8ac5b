#![warn(missing_docs)]
//! # alperf-gp
//!
//! Exact Gaussian Process Regression with marginal-likelihood hyperparameter
//! optimization — the statistical engine of the paper's Active-Learning
//! framework (Section III).
//!
//! The paper's pipeline needs, at every AL iteration:
//!
//! 1. a posterior predictive distribution `N(mu_*, sigma_*^2)` at arbitrary
//!    input points (Eqs. 4–10) — [`Gpr::predict_one`];
//! 2. hyperparameters `(l, sigma_f, sigma_n)` fit by maximizing the log
//!    marginal likelihood (Eqs. 12–13) with **bounded** multi-restart
//!    gradient ascent — [`optimize::fit_gpr`]; the lower bound on the noise
//!    level `sigma_n` is the paper's anti-overfitting mechanism (Fig. 7);
//! 3. a menu of covariance functions — [`kernel`] implements the squared
//!    exponential of Eq. 11 plus ARD, Matérn 3/2 & 5/2 and rational
//!    quadratic variants with analytic gradients in log-parameter space.
//!
//! All heavy lifting (Cholesky, triangular solves) is delegated to
//! `alperf-linalg`. A fit runs on its caller's thread, restarts included:
//! the workspace parallelizes over whole AL campaigns instead
//! (`alperf_linalg::threads::replicates`).

pub mod kernel;
pub mod lml;
pub mod loocv;
pub mod model;
pub mod noise;
pub mod optimize;
pub mod sample;
pub mod surrogate;

pub use kernel::{
    ArdSquaredExponential, Kernel, Matern32, Matern52, RationalQuadratic, SquaredExponential,
};
pub use model::{Gpr, Prediction};
pub use noise::NoiseFloor;
pub use optimize::{fit_gpr, GprConfig, OptimOutcome};
