//! Benchmark of the paper's workloads — Fig. 7, Fig. 8 and the grid
//! claims — end to end and layer by layer.
//!
//! Every layer is timed from outside the program: pass-through wrappers
//! around the public `Strategy`, `ExperimentOracle` and `Kernel` traits,
//! timed calls to `Campaign::run`, `run_al_with_oracle` and `run_grid`,
//! and once-per-campaign probes of `fit_surrogate`,
//! `lml::lml_and_grad_cached`, `Surrogate::{with_observation,
//! predict_batch}` and `Cholesky::decompose_jittered`. The program's own
//! spans are neither added nor read.

pub mod campaign;
pub mod gridload;
pub mod instrument;
pub mod paper;
pub mod pass;
pub mod run;
pub mod stats;
pub mod sys;
