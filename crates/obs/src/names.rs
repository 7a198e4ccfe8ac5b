//! Canonical event names shared across the workspace.
//!
//! Spans, counters, and records that more than one crate (or an external
//! consumer like `trace_report`/`chaos_replay`) must agree on are named
//! here once. Instrumentation call sites may still use ad-hoc literals for
//! purely local metrics; anything that appears in a trace contract belongs
//! in this module.

/// Span around one `executor::measure_all` batch.
pub const CLUSTER_MEASURE_BATCH: &str = "cluster.measure_batch";
/// Span + counter + record: one retry of a faulted job attempt.
pub const CLUSTER_RETRY: &str = "cluster.retry";
/// Span + counter + record: a job that exhausted its retry budget.
pub const CLUSTER_FAILED: &str = "cluster.failed";
/// Record carrying the full fault-plan parameters of a campaign, emitted
/// once per campaign so `chaos_replay` can reconstruct and re-execute it.
pub const CLUSTER_FAULT_PLAN: &str = "cluster.fault_plan";
/// Counter: power traces emptied by an injected IPMI dropout.
pub const CLUSTER_POWER_DROPOUT: &str = "cluster.power.dropout";
/// Counter: power traces truncated by an injected IPMI corruption.
pub const CLUSTER_POWER_CORRUPT: &str = "cluster.power.corrupt";
/// Per-iteration AL record (metrics payload; see `validate_trace`).
pub const AL_ITERATION: &str = "al.iteration";
/// Counter + record: an AL iteration whose selected experiment was lost
/// to a fault and re-selected from the surviving pool.
pub const AL_DEGRADED_ITERATION: &str = "al.degraded_iteration";
/// Counter: selections made by the pipelined runner from a stale model
/// (the previous batch's measurement still in flight).
pub const AL_PIPELINE_STALE_SELECTS: &str = "al.pipeline.stale_selects";
/// Counter: in-flight measurements reconciled into the training set (or
/// into the lost list) by the pipelined runner.
pub const AL_PIPELINE_RECONCILES: &str = "al.pipeline.reconciles";
/// Counter (ns): wall-clock overlap won per pipelined round — the smaller
/// of the measurement-side and the refit/select-side duration.
pub const AL_PIPELINE_OVERLAP_NS: &str = "al.pipeline.overlap_ns";
/// Counter + record: a speculated in-flight measurement lost to a fault;
/// its cost was charged and the already-made stale selection kept.
pub const AL_PIPELINE_LOST_SPECULATION: &str = "al.pipeline.lost_speculation";
/// Record: a campaign grid started (name, config count, resume point,
/// worker width).
pub const GRID_RUN_START: &str = "grid.run_start";
