//! What one pass over a workload's campaigns measured, and the metrics
//! derived from it.

use crate::campaign::{Finished, ProbeTimes};
use crate::instrument::{IterSample, Span};
use crate::stats::{mean, median};

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the measured window, nanoseconds.
    pub window_ns: u64,
    /// Groups of campaigns run (pairs for fig7/fig8, rounds for the grid).
    pub groups: usize,
    /// Completed (measured) AL iterations.
    pub iterations: u64,
    /// Experiments lost to injected faults.
    pub lost: u64,
    /// Per-proposal wait, milliseconds.
    pub propose_ms: Vec<f64>,
    /// Per-campaign wall time, milliseconds.
    pub campaign_ms: Vec<f64>,
    /// Per-campaign test RMSE averaged over iterations.
    pub rmse_means: Vec<f64>,
    /// Campaigns attempted.
    pub attempted: usize,
    /// Campaigns that errored or failed a check.
    pub failed: usize,
    /// Why they failed.
    pub problems: Vec<String>,
    /// Per-campaign trajectory digests, in campaign order.
    pub digests: Vec<u64>,
    /// Traced: spans from every campaign.
    pub spans: Vec<Span>,
    /// Per-iteration samples from every campaign (counts only when traced).
    pub samples: Vec<IterSample>,
    /// Traced: probe timings, one per campaign.
    pub probes: Vec<ProbeTimes>,
}

impl Pass {
    /// Fold one finished campaign in, with its trajectory digest.
    pub fn add_campaign(&mut self, f: &Finished, digest: u64) {
        self.attempted += 1;
        self.iterations += f.run.history.len() as u64;
        self.lost += f.run.lost.len() as u64;
        self.propose_ms
            .extend(f.iters.iter().map(|s| s.propose_ns as f64 / 1e6));
        self.campaign_ms.push(f.wall_ns as f64 / 1e6);
        self.rmse_means.push(mean(&f.run.rmse_series()));
        self.digests.push(digest);
        self.spans.extend_from_slice(&f.spans);
        self.samples.extend_from_slice(&f.iters);
    }

    /// AL iterations completed per second of the window.
    pub fn iters_per_s(&self) -> f64 {
        self.iterations as f64 / (self.window_ns as f64 / 1e9)
    }

    /// Campaigns that completed and passed their checks, over attempted.
    pub fn ok_frac(&self) -> f64 {
        (self.attempted - self.failed.min(self.attempted)) as f64 / self.attempted.max(1) as f64
    }

    /// Test RMSE averaged over iterations, then over campaigns.
    pub fn rmse_mean(&self) -> f64 {
        mean(&self.rmse_means)
    }

    /// Sum of the named spans, milliseconds.
    pub fn span_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .sum::<f64>()
            / 1e6
    }

    /// Proposals (iterations plus lost experiments).
    pub fn proposals(&self) -> u64 {
        self.iterations + self.lost
    }

    /// Median of one probe over the campaigns.
    pub fn probe_median(&self, pick: impl Fn(&ProbeTimes) -> f64) -> f64 {
        median(&self.probes.iter().map(pick).collect::<Vec<_>>())
    }
}
