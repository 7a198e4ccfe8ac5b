//! Canonical event names shared across the workspace.
//!
//! Spans and records that more than one crate (or an external consumer
//! like `trace_report`/`chaos_replay`) must agree on are named here once.
//! Instrumentation call sites may still use ad-hoc literals for names that
//! one crate alone emits and reads; anything that appears in a trace
//! contract belongs in this module.

/// Span around one `executor::measure_all` batch.
pub const CLUSTER_MEASURE_BATCH: &str = "cluster.measure_batch";
/// Span + record: one retry of a faulted job attempt.
pub const CLUSTER_RETRY: &str = "cluster.retry";
/// Span + record: a job that exhausted its retry budget.
pub const CLUSTER_FAILED: &str = "cluster.failed";
/// Record carrying the full fault-plan parameters of a campaign, emitted
/// once per campaign so `chaos_replay` can reconstruct and re-execute it.
pub const CLUSTER_FAULT_PLAN: &str = "cluster.fault_plan";
/// Per-iteration AL record (metrics payload; see `validate_trace`).
pub const AL_ITERATION: &str = "al.iteration";
/// Record: an AL iteration whose selected experiment was lost
/// to a fault and re-selected from the surviving pool.
pub const AL_DEGRADED_ITERATION: &str = "al.degraded_iteration";
/// Record: a campaign grid started (name, config count, resume point,
/// worker width).
pub const GRID_RUN_START: &str = "grid.run_start";
