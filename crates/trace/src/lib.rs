#![warn(missing_docs)]
//! # alperf-trace
//!
//! The analysis counterpart to `alperf-obs`: where the obs crate *emits*
//! schema-versioned `alperf-obs-v1` JSONL traces, this crate *consumes*
//! them. The pipeline is
//!
//! ```text
//! JSONL lines ──reader──▶ events ──tree──▶ span forest ──▶ analyze / folded / diff
//! ```
//!
//! * [`reader`] — streaming line-at-a-time trace reading with typed errors
//!   that distinguish a missing file, an empty file, an unknown schema,
//!   and a malformed line (each maps to its own CI exit code).
//! * [`tree`] — span-forest reconstruction. Spans written by current
//!   `alperf-obs` carry process-unique ids + parent ids, so linking is
//!   exact, on any thread; pre-id traces fall back to parent-name plus
//!   interval-containment matching. Connectivity is asserted: a span that
//!   names a parent which cannot be found is an error, not a silent root.
//! * [`analyze`] — per-name total/self-time aggregation and critical
//!   (longest root-to-leaf) path extraction, so an `al.iteration` span
//!   decomposes exactly into its fit/predict/select/cholesky children.
//! * [`folded`] — folded-stack (flamegraph) export, byte-stable and
//!   compatible with inferno / speedscope / `flamegraph.pl`.
//! * [`bootstrap`] — the seeded bootstrap comparison itself (relative
//!   mean change + percentile CI) with typed degenerate-input verdicts,
//!   shared by [`diff`] and the `alperf-grid` significance ranker.
//! * [`diff`] — cross-run per-span-name comparison with seeded bootstrap
//!   confidence intervals; flags statistically significant regressions.
//!
//! No external dependencies: JSON comes from `alperf_obs::json`, the
//! bootstrap RNG is the workspace's deterministic `StdRng`.

pub mod analyze;
pub mod bootstrap;
pub mod diff;
pub mod folded;
pub mod reader;
pub mod tree;

pub use analyze::{
    aggregate, child_coverage, critical_path, critical_path_from, ChildCoverage, CriticalPath,
    PathStep, SpanStats,
};
pub use bootstrap::{bootstrap_delta_pct, DegenerateReason, Verdict};
pub use diff::{
    diff_traces, render_json as render_diff_json, render_table as render_diff_table,
    significant_regressions, DiffConfig, SpanDiff,
};
pub use folded::folded_stacks;
pub use reader::{read_path, read_trace, Trace, TraceError};
pub use tree::{SpanForest, SpanNode, TreeError};
