#![warn(missing_docs)]
//! # alperf-cluster
//!
//! Discrete-event simulator of the paper's measurement testbed: a 4-node
//! CloudLab cluster running SLURM with server-level IPMI power monitoring
//! (Section IV). This crate produces the *datasets* the Active-Learning
//! evaluation consumes, through the same pipeline the paper used:
//!
//! 1. [`workload`] builds batches of HPGMG-FE job requests over the Table I
//!    factor levels;
//! 2. [`scheduler`] runs them through an FCFS + conservative-backfill
//!    node allocator (the SLURM stand-in), producing accounting records;
//! 3. each job's runtime comes from the calibrated
//!    [`alperf_hpgmg::model::PerfModel`] with measurement noise;
//! 4. [`power`] samples an IPMI-style instantaneous-Watts trace over each
//!    job's execution interval — with gaps — and integrates it into a
//!    per-job energy estimate; jobs with too few samples are dropped
//!    exactly as the paper drops them ("less than 10 [records] for 60
//!    seconds of computation");
//! 5. [`campaign`] assembles the Performance (~3.2k jobs) and Power
//!    (~0.6k jobs) datasets.
//!
//! The [`executor`] module fans campaign measurement sampling out through
//! the workspace's replicate runner; per-job RNG seeds are derived from job
//! identity, so results are bit-identical at every thread width.

pub mod accounting;
pub mod campaign;
pub mod executor;
pub mod fault;
pub mod job;
pub mod power;
pub mod scheduler;
pub mod workload;

pub use campaign::{Campaign, CampaignOutput, FocusSlice};
pub use executor::JobOutcome;
pub use fault::{Fault, FaultKind, FaultPlan, Persistence, RetryPolicy};
pub use job::{FailedJob, JobRecord, JobRequest};
