#![warn(missing_docs)]
//! # alperf-hpgmg
//!
//! A from-scratch stand-in for the paper's benchmark, HPGMG-FE: a geometric
//! **Full Multigrid (FMG)** solver for elliptic problems on structured 3-D
//! grids, plus an analytic performance/energy model calibrated to the
//! paper's Table I.
//!
//! The paper runs "HPGMG-FE, the compute- and cache-intensive component
//! which solves constant- and variable-coefficient elliptic problems on
//! deformed meshes using Full Multigrid" with an `Operator` factor taking
//! the levels `poisson1`, `poisson2`, `poisson2affine`. This crate maps
//! those to:
//!
//! * [`operator::OperatorKind::Poisson1`] — constant-coefficient Poisson,
//!   7-point stencil;
//! * [`operator::OperatorKind::Poisson2`] — variable-coefficient
//!   `-div(a(x) grad u)` with a smooth positive coefficient field, flux
//!   stencil with face-averaged coefficients;
//! * [`operator::OperatorKind::Poisson2Affine`] — constant-coefficient
//!   problem on an affinely deformed (axis-scaled) mesh, which becomes an
//!   anisotropic diffusion tensor on the unit cube. (Shear terms of a
//!   general affine map are omitted — the performance-relevant structure,
//!   an anisotropic 7-point stencil with distinct per-axis costs, is
//!   retained; see DESIGN.md.)
//!
//! The solver is real and runnable (see the `online_al` example, where AL
//! drives actual solves and measures wall-clock time); the
//! [`model::PerfModel`] extrapolates runtime and energy to the full Table I
//! problem-size range (up to 1.1e9 unknowns) that cannot be executed
//! locally.
//!
//! Grid fills, updates and norms, operator applications, residuals and
//! smoothers sweep z-slabs through `alperf_linalg::threads::fan_out` once a
//! grid has 32³ interior points, following HPGMG's own OpenMP slab
//! decomposition.

pub mod cycle;
pub mod grid3;
pub mod model;
pub mod operator;
pub mod smoother;
pub mod solver;
pub mod transfer;

pub use grid3::Grid3;
pub use model::{MachineSpec, PerfModel};
pub use operator::OperatorKind;
pub use solver::{FmgSolver, SolveStats};
