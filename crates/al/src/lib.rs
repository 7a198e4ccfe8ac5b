#![warn(missing_docs)]
//! # alperf-al
//!
//! Active Learning for regression in performance analysis — the paper's
//! contribution (Sections III and V). The pieces:
//!
//! * [`strategy`]: acquisition strategies over a finite candidate pool —
//!   **Variance Reduction** (max predictive SD, the paper's basic
//!   algorithm), **Cost Efficiency** (max `sigma - mu` on log-cost
//!   responses, Eq. 14), random sampling, and the
//!   [`emcm`] baseline the paper critiques (Eq. 1, bootstrap ensemble).
//! * [`runner`]: the AL loop — seed GPR on the Initial set, then repeatedly
//!   (re)fit hyperparameters, score the Active pool, select, query, grow
//!   the training set — recording the paper's three progress metrics per
//!   iteration: `sigma_f(x*)`, AMSD over the pool, and Test-set RMSE
//!   (Section V-B3), plus cumulative experiment cost (runtime x cores).
//!   Its `batch` setting picks several experiments per round through
//!   greedy fantasy updates (the paper's future-work extension for
//!   parallel experiments).
//! * [`tradeoff`]: cost–error tradeoff curves averaged over many random
//!   partitions, crossover detection, and relative-error-reduction
//!   readouts at cost multiples (the paper's 38% / 25% / 21% / 16% / 13%
//!   series, Section V-B4 and Fig. 8b).
//! * [`advanced`]: integrated-variance (ALC) and Thompson-sampling
//!   acquisitions built on the GP joint posterior.
//! * [`baselines`]: static factorial / latin-hypercube designs evaluated
//!   under the same metrics, for the related-work comparison (Section II-B).
//! * [`convergence`]: AMSD-based stopping — "when it converges ... AL can
//!   be terminated" (Section V-B4).

pub mod advanced;
pub mod baselines;
pub mod cache;
pub mod continuous;
pub mod convergence;
pub mod emcm;
pub mod metrics;
pub mod oracle;
pub mod runner;
pub mod strategy;
pub mod tradeoff;

pub use oracle::{DatasetOracle, ExperimentOracle, ExperimentOutcome, SeededFaultOracle};
pub use runner::{AlConfig, AlRun, IterationRecord, LostExperiment};
pub use strategy::{CostEfficiency, RandomSampling, Strategy, VarianceReduction};
