//! The paper's measurement campaign: job batches over Table I's factor
//! levels.
//!
//! Factor levels (Table I):
//! * Operator: `poisson1`, `poisson2`, `poisson2affine`
//! * Global Problem Size: `1.7e3 – 1.1e9` (log-spaced levels)
//! * NP: `1, 2, 4, 8, 16, 24, 32, 48, 64, 96, 128`
//! * CPU Frequency: `1.2, 1.5, 1.8, 2.1, 2.4` GHz
//! * up to 3 repeats per combination
//!
//! The published dataset is *not* a complete factorial: the
//! `(poisson1, NP=32)` slice that drives the paper's AL evaluation (Fig. 6)
//! contains 251 jobs — about 17 size levels x 5 frequencies x 3 repeats —
//! while the overall Performance dataset holds 3246 jobs, far fewer than a
//! full factorial at that size resolution would produce. We reproduce that
//! structure: the focus slice gets `FOCUS_SIZE_LEVELS` sizes, everything
//! else gets `DEFAULT_SIZE_LEVELS`, and jobs the experimenters would not
//! schedule (out of memory / beyond the 500 s budget cap) are skipped.
//! A small random per-job failure rate models benchmark/infrastructure
//! failures.

use crate::job::JobRequest;
use alperf_hpgmg::model::PerfModel;
use alperf_hpgmg::operator::OperatorKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// NP levels from Table I.
pub const NP_LEVELS: [usize; 11] = [1, 2, 4, 8, 16, 24, 32, 48, 64, 96, 128];

/// CPU frequency levels from Table I (GHz).
pub const FREQ_LEVELS: [f64; 5] = [1.2, 1.5, 1.8, 2.1, 2.4];

/// Problem-size range from Table I.
pub const SIZE_MIN: f64 = 1.7e3;
/// Problem-size range from Table I.
pub const SIZE_MAX: f64 = 1.1e9;

/// Size levels for the focus slice `(poisson1, NP = 32)` (17 levels x 5
/// freqs x 3 repeats ~ 251 jobs, matching the paper's Fig. 6 subset).
pub const FOCUS_SIZE_LEVELS: usize = 17;

/// Size levels everywhere else, chosen so the whole campaign lands near the
/// paper's 3246 Performance jobs.
pub const DEFAULT_SIZE_LEVELS: usize = 7;

/// Repeats per configuration ("up to 3", Table I).
pub const MAX_REPEATS: usize = 3;

/// Log-spaced size levels between the Table I extremes.
fn size_levels(count: usize) -> Vec<f64> {
    alperf_linalg_levels(SIZE_MIN, SIZE_MAX, count)
}

// Local logspace to avoid a linalg dependency for one function.
fn alperf_linalg_levels(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "need at least two size levels");
    let (la, lb) = (lo.log10(), hi.log10());
    (0..n)
        .map(|i| 10f64.powf(la + (lb - la) * i as f64 / (n - 1) as f64))
        .collect()
}

/// Configuration of a campaign's workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Size levels in the focus slice.
    pub focus_size_levels: usize,
    /// Size levels elsewhere.
    pub default_size_levels: usize,
    /// Repeats per configuration.
    pub repeats: usize,
    /// Probability a scheduled job fails and yields no record.
    pub failure_rate: f64,
    /// RNG seed (repeat-count jitter + failures).
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            focus_size_levels: FOCUS_SIZE_LEVELS,
            default_size_levels: DEFAULT_SIZE_LEVELS,
            repeats: MAX_REPEATS,
            failure_rate: 0.02,
            seed: 20160801, // the paper's CloudLab access date
        }
    }
}

/// Whether `(op, np)` is the paper's heavily-sampled focus slice.
fn is_focus_slice(op: OperatorKind, np: usize) -> bool {
    op == OperatorKind::Poisson1 && np == 32
}

/// Build the job list for the whole campaign. Jobs that would not be
/// scheduled (memory, budget cap) are skipped; per-job failures are applied
/// by the campaign layer, not here.
pub fn build_requests(spec: &WorkloadSpec, model: &PerfModel) -> Vec<JobRequest> {
    let mut out = Vec::new();
    let mut rng = StdRng::seed_from_u64(spec.seed);
    for op in OperatorKind::all() {
        for &np in NP_LEVELS.iter() {
            let n_sizes = if is_focus_slice(op, np) {
                spec.focus_size_levels
            } else {
                spec.default_size_levels
            };
            for &size in &size_levels(n_sizes) {
                for &freq in FREQ_LEVELS.iter() {
                    if !model.would_run(op, size, np, freq) {
                        continue;
                    }
                    // "Up to 3 repeats": most cells get all repeats, a few
                    // get fewer (operators time out, nodes get reclaimed).
                    let reps = if rng.gen_range(0.0..1.0) < 0.85 {
                        spec.repeats
                    } else {
                        1 + rng.gen_range(0..spec.repeats.max(1))
                    };
                    for repeat in 0..reps {
                        out.push(JobRequest {
                            op,
                            size,
                            np,
                            freq,
                            repeat,
                        });
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_levels_span_table1_range() {
        let s = size_levels(17);
        assert_eq!(s.len(), 17);
        assert!((s[0] - SIZE_MIN).abs() / SIZE_MIN < 1e-9);
        assert!((s[16] - SIZE_MAX).abs() / SIZE_MAX < 1e-9);
        assert!(s.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn campaign_size_matches_paper_scale() {
        let model = PerfModel::calibrated();
        let reqs = build_requests(&WorkloadSpec::default(), &model);
        // Paper: 3246 performance jobs. Accept the right ballpark; the
        // exact measured count is recorded in EXPERIMENTS.md.
        assert!(
            (2600..=4000).contains(&reqs.len()),
            "campaign has {} jobs",
            reqs.len()
        );
    }

    #[test]
    fn focus_slice_matches_fig6_scale() {
        let model = PerfModel::calibrated();
        let reqs = build_requests(&WorkloadSpec::default(), &model);
        let focus = reqs.iter().filter(|r| is_focus_slice(r.op, r.np)).count();
        // Paper's Fig. 6 subset: 251 jobs.
        assert!((220..=260).contains(&focus), "focus slice has {focus} jobs");
    }

    #[test]
    fn no_unschedulable_jobs() {
        let model = PerfModel::calibrated();
        let reqs = build_requests(&WorkloadSpec::default(), &model);
        assert!(reqs
            .iter()
            .all(|r| model.would_run(r.op, r.size, r.np, r.freq)));
        // In particular: no serial poisson2 at the max size.
        assert!(!reqs
            .iter()
            .any(|r| r.op == OperatorKind::Poisson2 && r.np == 1 && r.size > 1e9));
    }

    #[test]
    fn repeats_bounded_by_spec() {
        let model = PerfModel::calibrated();
        let reqs = build_requests(&WorkloadSpec::default(), &model);
        assert!(reqs.iter().all(|r| r.repeat < MAX_REPEATS));
        // And at least some cells have all 3 repeats.
        assert!(reqs.iter().any(|r| r.repeat == 2));
    }

    #[test]
    fn deterministic_in_seed() {
        let model = PerfModel::calibrated();
        let a = build_requests(&WorkloadSpec::default(), &model);
        let b = build_requests(&WorkloadSpec::default(), &model);
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0], b[0]);
        assert_eq!(a[a.len() - 1], b[b.len() - 1]);
    }

    #[test]
    fn all_factor_levels_represented() {
        let model = PerfModel::calibrated();
        let reqs = build_requests(&WorkloadSpec::default(), &model);
        for op in OperatorKind::all() {
            assert!(reqs.iter().any(|r| r.op == op), "{op:?} missing");
        }
        for &np in NP_LEVELS.iter() {
            assert!(reqs.iter().any(|r| r.np == np), "NP={np} missing");
        }
        for &f in FREQ_LEVELS.iter() {
            assert!(reqs.iter().any(|r| r.freq == f), "freq={f} missing");
        }
    }
}
