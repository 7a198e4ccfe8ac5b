//! Experiment oracles: how the AL loop "runs" a selected experiment.
//!
//! In the offline replay the oracle is the dataset itself — every selected
//! row's measurement already exists, so [`DatasetOracle`] always succeeds.
//! On a real testbed experiments fail (the cluster layer's fault taxonomy:
//! crashes, rejects, timeouts); [`SeededFaultOracle`] reproduces that
//! failure surface at the AL boundary so the runner's graceful-degradation
//! path is testable end to end without standing up the whole simulator.
//!
//! The contract mirrors the cluster executor's determinism argument: an
//! oracle's verdict is a **pure function of the row identity** (plus the
//! oracle's own seed), never of iteration order, thread, or telemetry
//! state — so AL trajectories under faults remain bit-reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What happened when the runner asked for row `r` to be measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentOutcome {
    /// The measurement came back (possibly after retries).
    Measured {
        /// Execution attempts consumed, including the successful one.
        attempts: u32,
    },
    /// The experiment was lost: every attempt failed. The runner must
    /// degrade gracefully — charge the burned cost, drop the candidate,
    /// and re-select from the surviving pool.
    Lost {
        /// Execution attempts consumed before giving up.
        attempts: u32,
    },
}

impl ExperimentOutcome {
    /// Attempts consumed either way.
    pub fn attempts(&self) -> u32 {
        match self {
            ExperimentOutcome::Measured { attempts } | ExperimentOutcome::Lost { attempts } => {
                *attempts
            }
        }
    }
}

/// Decides the fate of a selected experiment. Implementations must be
/// deterministic in `row` — see the module docs.
pub trait ExperimentOracle {
    /// Run the experiment for dataset row `row`.
    fn run_experiment(&self, row: usize) -> ExperimentOutcome;

    /// Oracle name, for telemetry.
    fn name(&self) -> &'static str {
        "oracle"
    }
}

/// The offline-replay oracle: the dataset already holds every measurement,
/// so nothing ever fails.
#[derive(Debug, Clone, Copy, Default)]
pub struct DatasetOracle;

impl ExperimentOracle for DatasetOracle {
    fn run_experiment(&self, _row: usize) -> ExperimentOutcome {
        ExperimentOutcome::Measured { attempts: 1 }
    }

    fn name(&self) -> &'static str {
        "dataset"
    }
}

/// splitmix64-style avalanche of (oracle seed, row) — the oracle's only
/// entropy source, so verdicts are row-local and order-independent.
fn mix2(a: u64, b: u64) -> u64 {
    let mut h = a ^ b.wrapping_mul(0x9e3779b97f4a7c15);
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58476d1ce4e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d049bb133111eb);
    h ^ (h >> 31)
}

/// A seeded fault oracle mirroring the cluster layer's transient/permanent
/// split: a row is faulty with probability `failure_rate`; faulty rows are
/// permanently lost with probability `permanent_fraction`, otherwise they
/// recover after one or two retries (lost anyway if the retry budget is
/// too small).
#[derive(Debug, Clone)]
pub struct SeededFaultOracle {
    /// Oracle seed (independent of the AL strategy seed).
    pub seed: u64,
    /// Probability a row's experiment is faulty at all.
    pub failure_rate: f64,
    /// Among faulty rows, the fraction that no retry can save.
    pub permanent_fraction: f64,
    /// Retry budget: maximum attempts per experiment.
    pub max_attempts: u32,
}

impl SeededFaultOracle {
    /// An oracle with the cluster layer's default persistence split
    /// (30% of faults permanent) and retry budget (3 attempts).
    pub fn new(seed: u64, failure_rate: f64) -> Self {
        SeededFaultOracle {
            seed,
            failure_rate,
            permanent_fraction: 0.3,
            max_attempts: 3,
        }
    }
}

impl ExperimentOracle for SeededFaultOracle {
    fn run_experiment(&self, row: usize) -> ExperimentOutcome {
        let budget = self.max_attempts.max(1);
        if self.failure_rate <= 0.0 {
            return ExperimentOutcome::Measured { attempts: 1 };
        }
        let mut rng = StdRng::seed_from_u64(mix2(self.seed, row as u64));
        if rng.gen_range(0.0..1.0) >= self.failure_rate {
            return ExperimentOutcome::Measured { attempts: 1 };
        }
        if rng.gen_range(0.0..1.0) < self.permanent_fraction {
            return ExperimentOutcome::Lost { attempts: budget };
        }
        // Transient: clears on the 2nd or 3rd attempt.
        let needed = if rng.gen_range(0.0..1.0) < 0.5 { 2 } else { 3 };
        if needed <= budget {
            ExperimentOutcome::Measured { attempts: needed }
        } else {
            ExperimentOutcome::Lost { attempts: budget }
        }
    }

    fn name(&self) -> &'static str {
        "seeded_fault"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_oracle_never_fails() {
        let o = DatasetOracle;
        for row in 0..100 {
            assert_eq!(
                o.run_experiment(row),
                ExperimentOutcome::Measured { attempts: 1 }
            );
        }
    }

    #[test]
    fn fault_oracle_is_deterministic_and_rate_respecting() {
        let o = SeededFaultOracle::new(9, 0.3);
        let n = 5000;
        let verdicts: Vec<ExperimentOutcome> = (0..n).map(|r| o.run_experiment(r)).collect();
        // Row-local determinism: re-query in reverse order.
        for r in (0..n).rev() {
            assert_eq!(o.run_experiment(r), verdicts[r]);
        }
        let lost = verdicts
            .iter()
            .filter(|v| matches!(v, ExperimentOutcome::Lost { .. }))
            .count();
        let retried = verdicts
            .iter()
            .filter(|v| matches!(v, ExperimentOutcome::Measured { attempts } if *attempts > 1))
            .count();
        // Expected lost ≈ 0.3 * 0.3 = 9%; retried ≈ 0.3 * 0.7 = 21%.
        let lost_rate = lost as f64 / n as f64;
        let retried_rate = retried as f64 / n as f64;
        assert!((lost_rate - 0.09).abs() < 0.03, "lost {lost_rate}");
        assert!((retried_rate - 0.21).abs() < 0.04, "retried {retried_rate}");
        // Attempts never exceed the budget.
        assert!(verdicts
            .iter()
            .all(|v| v.attempts() <= 3 && v.attempts() >= 1));
    }

    #[test]
    fn zero_rate_oracle_equals_dataset_oracle() {
        let o = SeededFaultOracle::new(4, 0.0);
        for row in 0..50 {
            assert_eq!(
                o.run_experiment(row),
                ExperimentOutcome::Measured { attempts: 1 }
            );
        }
    }

    #[test]
    fn tiny_budget_loses_transients_too() {
        let strict = SeededFaultOracle {
            max_attempts: 1,
            ..SeededFaultOracle::new(9, 1.0)
        };
        // Every row faulty, no retries: everything is lost.
        assert!((0..200).all(|r| matches!(
            strict.run_experiment(r),
            ExperimentOutcome::Lost { attempts: 1 }
        )));
    }
}
