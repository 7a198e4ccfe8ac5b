#![warn(missing_docs)]
//! # alperf-data
//!
//! Dataset containers and tooling for the performance-analysis pipeline —
//! the layer the paper's prototype calls "a database with the collected
//! data" (Section V-A).
//!
//! * [`dataset::DataSet`]: design matrix of controlled variables (numeric or
//!   categorical) plus one or more response columns (Runtime, Energy, ...),
//!   with subsetting and fix-variable views used to carve out the paper's
//!   1-D and 2-D cross-sections.
//! * [`transform`]: log10 response/variable transforms (paper Fig. 2 works
//!   on log-transformed Runtime, Energy, and Global Problem Size).
//! * [`partition`]: the Initial/Active/Test random split (a single initial
//!   experiment; the rest split 8:2 Active:Test) driving each AL run.
//! * [`csvio`]: plain CSV persistence of datasets (the paper publishes its
//!   data as CSV).
//! * [`summary`]: Table I-style dataset summaries.

pub mod csvio;
pub mod dataset;
pub mod partition;
pub mod summary;
pub mod transform;

pub use dataset::{ColumnKind, DataSet, DataSetError};
pub use partition::Partition;
