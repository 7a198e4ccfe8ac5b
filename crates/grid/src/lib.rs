#![warn(missing_docs)]
//! # alperf-grid
//!
//! Campaign-grid orchestrator: thousands of deterministic AL campaigns
//! as one workload. A declarative [`GridSpec`] (strategy × kernel ×
//! noise × batch × fault rate × replicate seed) expands into a
//! canonical config list; the executor runs every config across worker
//! threads and streams one `alperf-grid-v1` JSONL summary per campaign,
//! **bit-identical for any worker width or kill/resume cycle**; the
//! ranking layer turns summary files into per-slice strategy
//! leaderboards and pairwise bootstrap significance verdicts — the
//! paper's "variance reduction beats random" claim, tested across a whole
//! scenario space instead of one configuration.
//!
//! ```text
//! GridSpec ──expand──▶ [CampaignConfig] ──run_grid──▶ summaries.jsonl
//!                                                        │
//!                              leaderboards / significance / claims
//! ```
//!
//! * [`spec`] — axes, canonicalization, cartesian expansion, and the
//!   splitmix64 per-config seed derivation (injective by construction).
//! * [`campaign`] — one campaign as a pure function of its config:
//!   synthetic scenario, the one AL loop at the config's batch size, fault
//!   degradation through the oracle machinery.
//! * [`exec`] — the worker pool with ordered, streamed commits and the
//!   resume protocol.
//! * [`summary`] — the `alperf-grid-v1` schema: byte-deterministic
//!   rendering, trajectory digests, and the reader.
//! * [`rank`] — leaderboards, pairwise significance (via
//!   `alperf_trace::bootstrap`), and the paper-claims rollup.

pub mod campaign;
pub mod exec;
pub mod rank;
pub mod spec;
pub mod summary;

pub use campaign::{run_campaign, CampaignResult};
pub use exec::{run_grid, ExecConfig, GridError, GridReport};
pub use rank::{
    claim_counts, leaderboards, render_claims, render_leaderboards, render_significance,
    significance, PairVerdict, RankConfig, SliceBoard,
};
pub use spec::{derived_seed, CampaignConfig, GridSpec, KernelKind, StrategyKind, TierKind};
pub use summary::{parse_summaries, SummaryError, SummaryFile, SummaryRecord};
