//! Deterministic fault injection and retry/backoff policy.
//!
//! The paper's measurements come from a real 4-node testbed where jobs
//! genuinely fail: benchmarks crash, the IPMI power daemon drops or
//! corrupts trace records, SLURM rejects submissions, workers hang past
//! their time limit. The simulator makes that failure surface a
//! first-class, *testable* concern instead of a silent pre-scheduling
//! filter:
//!
//! * [`FaultPlan`] — a seeded plan that decides, as a **pure function of
//!   job identity and attempt number**, whether an execution attempt
//!   faults, with which [`FaultKind`], and whether the fault is
//!   [`Persistence::Transient`] (clears on retry) or
//!   [`Persistence::Permanent`] (every retry fails). Because the decision
//!   never touches a shared RNG stream, outcomes are bit-identical
//!   regardless of worker count or queue order — the same property the
//!   executor already guarantees for measurement noise.
//! * [`RetryPolicy`] — bounded exponential backoff with deterministic
//!   jitter. The simulator never sleeps: backoff durations are *simulated*
//!   nanoseconds, accounted per job and assertable to the nanosecond
//!   (see the tests below).
//! * [`apply_trace_fault`] — the power-boundary degradations: a dropout
//!   empties the IPMI trace, a corruption truncates it mid-job (the
//!   sampler daemon died), after which [`crate::power::PowerSampler::integrate`]
//!   degrades gracefully to `None` or a sparser estimate.
//!
//! The taxonomy splits into *fatal* kinds (crash / reject / timeout: the
//! attempt yields no measurement and is retried under the policy) and
//! *degrading* kinds (trace dropout / corruption: the job completes, only
//! its power trace suffers — exactly how the paper loses Energy labels
//! while keeping Runtime).

use crate::power::PowerSample;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Failure taxonomy — the ways a testbed job goes wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The benchmark binary crashed (or panicked): no measurement.
    BenchmarkCrash,
    /// The scheduler rejected the submission: no compute was consumed.
    SchedulerReject,
    /// The job exceeded its time limit and was killed: compute was burned.
    WorkerTimeout,
    /// The IPMI power daemon recorded nothing: the job completes but its
    /// trace is empty (Energy is lost, Runtime survives).
    PowerTraceDropout,
    /// The IPMI daemon died mid-job: the trace is truncated (Energy may
    /// survive, degraded, or fall below the record-rate filter).
    PowerTraceCorruption,
}

impl FaultKind {
    /// All kinds, in taxonomy order.
    pub fn all() -> [FaultKind; 5] {
        [
            FaultKind::BenchmarkCrash,
            FaultKind::SchedulerReject,
            FaultKind::WorkerTimeout,
            FaultKind::PowerTraceDropout,
            FaultKind::PowerTraceCorruption,
        ]
    }

    /// Stable lowercase name (used in telemetry records and replay).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::BenchmarkCrash => "crash",
            FaultKind::SchedulerReject => "reject",
            FaultKind::WorkerTimeout => "timeout",
            FaultKind::PowerTraceDropout => "power_dropout",
            FaultKind::PowerTraceCorruption => "power_corrupt",
        }
    }

    /// Parse a [`FaultKind::name`] back (for trace replay).
    pub fn from_name(s: &str) -> Option<FaultKind> {
        FaultKind::all().into_iter().find(|k| k.name() == s)
    }

    /// Fatal kinds abort the attempt (no measurement, retried); degrading
    /// kinds only damage the power trace of an otherwise successful run.
    pub fn is_fatal(&self) -> bool {
        !matches!(
            self,
            FaultKind::PowerTraceDropout | FaultKind::PowerTraceCorruption
        )
    }

    /// Whether a failed attempt of this kind still consumed compute that
    /// must be charged against the experiment budget (the paper charges
    /// failed experiments; a scheduler reject never ran).
    pub fn charges_compute(&self) -> bool {
        !matches!(self, FaultKind::SchedulerReject)
    }
}

/// Whether a fault clears on retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Persistence {
    /// Clears after a bounded number of attempts — a retry can succeed.
    Transient,
    /// Every attempt fails (broken node, impossible configuration).
    Permanent,
}

/// One concrete fault: what went wrong and whether retrying can help.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// Taxonomy entry.
    pub kind: FaultKind,
    /// Transient vs. permanent.
    pub persistence: Persistence,
}

impl Fault {
    /// The fault the executor synthesizes when the measurement code itself
    /// panics: a permanent benchmark crash (a deterministic panic would
    /// repeat on every retry, so none are attempted).
    pub fn from_panic() -> Fault {
        Fault {
            kind: FaultKind::BenchmarkCrash,
            persistence: Persistence::Permanent,
        }
    }
}

/// Deterministic avalanche hash of the plan seed, the job identity seed,
/// and a stream discriminator. This is the only entropy source in the
/// module: same inputs, same faults, on any thread in any order.
fn mix3(a: u64, b: u64, c: u64) -> u64 {
    let mut h = 0x9e3779b97f4a7c15u64 ^ a;
    h = h.wrapping_mul(0x100000001b3);
    h ^= b;
    h = h.wrapping_mul(0x100000001b3);
    h ^= c;
    h = h.wrapping_mul(0x100000001b3);
    // splitmix64 finalizer for avalanche.
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58476d1ce4e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d049bb133111eb);
    h ^ (h >> 31)
}

/// A seeded, per-job-identity deterministic fault plan.
///
/// `fault_for(job_seed, attempt)` is a pure function: it derives a private
/// RNG from `(plan seed, job seed)`, decides once whether the job is
/// faulty at all, picks a kind from the taxonomy mix, and rolls
/// persistence. Transient fatal faults affect the first one or two
/// attempts and then clear; permanent faults affect every attempt;
/// degrading (power-boundary) faults fire exactly once, on the attempt
/// that completes.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Plan seed (independent of the campaign's measurement seed).
    pub seed: u64,
    /// Probability a job is faulty at all.
    pub failure_rate: f64,
    /// Among fatal faults, the fraction that are permanent.
    pub permanent_fraction: f64,
    /// Among transient fatal faults, the probability the fault also kills
    /// the *second* attempt (the rest clear after one retry).
    pub second_attempt_fraction: f64,
}

impl FaultPlan {
    /// A plan with the default taxonomy mix and persistence split.
    pub fn new(seed: u64, failure_rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            failure_rate,
            permanent_fraction: 0.3,
            second_attempt_fraction: 0.35,
        }
    }

    /// A plan that never faults (the zero element: `fault_for` is `None`
    /// for every job and attempt).
    pub fn none() -> FaultPlan {
        FaultPlan::new(0, 0.0)
    }

    /// The fault (if any) afflicting `attempt` (0-based) of the job whose
    /// identity seed is `job_seed` (see [`crate::job::JobRequest::seed`]).
    ///
    /// Pure and thread-independent: bit-identical for the same
    /// `(plan, job_seed, attempt)` triple everywhere.
    pub fn fault_for(&self, job_seed: u64, attempt: u32) -> Option<Fault> {
        if self.failure_rate <= 0.0 {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(mix3(self.seed, job_seed, 0xfa01));
        if rng.gen_range(0.0..1.0) >= self.failure_rate {
            return None;
        }
        // Taxonomy mix: crash 30%, reject 15%, timeout 15%, dropout 25%,
        // corruption 15% (roughly the incident mix of a small academic
        // testbed: power-telemetry loss is common, hard job loss rarer).
        let kind = match rng.gen_range(0.0..1.0) {
            u if u < 0.30 => FaultKind::BenchmarkCrash,
            u if u < 0.45 => FaultKind::SchedulerReject,
            u if u < 0.60 => FaultKind::WorkerTimeout,
            u if u < 0.85 => FaultKind::PowerTraceDropout,
            _ => FaultKind::PowerTraceCorruption,
        };
        if !kind.is_fatal() {
            // Degrading faults hit the (single) completing attempt.
            return (attempt == 0).then_some(Fault {
                kind,
                persistence: Persistence::Transient,
            });
        }
        if rng.gen_range(0.0..1.0) < self.permanent_fraction {
            return Some(Fault {
                kind,
                persistence: Persistence::Permanent,
            });
        }
        let affected = if rng.gen_range(0.0..1.0) < self.second_attempt_fraction {
            2
        } else {
            1
        };
        (attempt < affected).then_some(Fault {
            kind,
            persistence: Persistence::Transient,
        })
    }
}

/// Bounded exponential backoff with deterministic jitter.
///
/// `backoff_ns(job_seed, retry)` is the simulated wait before retry number
/// `retry` (1-based): `base * multiplier^(retry-1)`, capped at
/// `max_backoff_ns`, then scaled by a jitter factor drawn uniformly from
/// `[1 - jitter, 1 + jitter)` using a hash of `(job_seed, retry)` — so the
/// schedule is exponential-with-jitter *and* reproducible. No wall-clock
/// is ever consulted: the waits are simulated nanoseconds, summed into
/// each job's `backoff_ns`.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Maximum execution attempts per job (1 = no retries).
    pub max_attempts: u32,
    /// Base backoff before the first retry, simulated nanoseconds.
    pub base_backoff_ns: u64,
    /// Exponential growth factor between consecutive retries.
    pub multiplier: f64,
    /// Hard cap on a single backoff, simulated nanoseconds.
    pub max_backoff_ns: u64,
    /// Jitter half-width as a fraction of the capped backoff (0.2 means
    /// the realized wait is within ±20% of the nominal schedule).
    pub jitter: f64,
}

impl Default for RetryPolicy {
    /// 3 attempts, 100 ms base, doubling, 5 s cap, ±20% jitter.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_ns: 100_000_000,
            multiplier: 2.0,
            max_backoff_ns: 5_000_000_000,
            jitter: 0.2,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (jobs get exactly one attempt).
    pub fn no_retries() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Simulated backoff before retry `retry` (1-based) of the job with
    /// identity seed `job_seed`. Deterministic; see the type docs for the
    /// formula.
    pub fn backoff_ns(&self, job_seed: u64, retry: u32) -> u64 {
        let exp =
            self.base_backoff_ns as f64 * self.multiplier.powi(retry.saturating_sub(1) as i32);
        let capped = exp.min(self.max_backoff_ns as f64);
        let mut rng = StdRng::seed_from_u64(mix3(0xbac0ff, job_seed, retry as u64));
        let factor = 1.0 + self.jitter * (rng.gen_range(0.0..2.0) - 1.0);
        (capped * factor).round() as u64
    }

    /// The full backoff schedule a job would traverse if every attempt
    /// failed: one entry per retry, `max_attempts - 1` entries total.
    pub fn schedule(&self, job_seed: u64) -> Vec<u64> {
        (1..self.max_attempts.max(1))
            .map(|r| self.backoff_ns(job_seed, r))
            .collect()
    }
}

/// Apply a power-boundary fault to a sampled IPMI trace, in place.
/// Deterministic in `(kind, job_seed)`; fatal kinds are a no-op (they
/// never produce a trace to damage).
pub fn apply_trace_fault(kind: FaultKind, trace: &mut Vec<PowerSample>, job_seed: u64) {
    match kind {
        FaultKind::PowerTraceDropout => trace.clear(),
        FaultKind::PowerTraceCorruption => {
            // The sampler daemon died partway through: keep a deterministic
            // 20–80% prefix of the samples.
            let mut rng = StdRng::seed_from_u64(mix3(0xc0bb, job_seed, 0));
            let frac = rng.gen_range(0.2..0.8);
            let keep = ((trace.len() as f64) * frac).floor() as usize;
            trace.truncate(keep);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_for_is_deterministic_and_identity_local() {
        let plan = FaultPlan::new(7, 0.5);
        for job in 0..200u64 {
            for attempt in 0..4 {
                assert_eq!(
                    plan.fault_for(job, attempt),
                    plan.fault_for(job, attempt),
                    "job {job} attempt {attempt}"
                );
            }
        }
        // Different plan seeds produce different fault sets.
        let other = FaultPlan::new(8, 0.5);
        let a: Vec<bool> = (0..200u64)
            .map(|j| plan.fault_for(j, 0).is_some())
            .collect();
        let b: Vec<bool> = (0..200u64)
            .map(|j| other.fault_for(j, 0).is_some())
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn failure_rate_is_respected() {
        let plan = FaultPlan::new(3, 0.2);
        let n = 5000u64;
        let faulty = (0..n).filter(|&j| plan.fault_for(j, 0).is_some()).count();
        let rate = faulty as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.03, "observed rate {rate}");
        assert!(FaultPlan::none().fault_for(42, 0).is_none());
        // Rate 1.0 faults everything.
        let all = FaultPlan::new(3, 1.0);
        assert!((0..100u64).all(|j| all.fault_for(j, 0).is_some()));
    }

    #[test]
    fn transient_faults_clear_and_permanent_faults_do_not() {
        let plan = FaultPlan::new(11, 0.9);
        let mut saw_transient_clear = false;
        let mut saw_permanent = false;
        for job in 0..500u64 {
            let Some(f) = plan.fault_for(job, 0) else {
                continue;
            };
            if !f.kind.is_fatal() {
                // Degrading faults never afflict retries.
                assert!(plan.fault_for(job, 1).is_none());
                continue;
            }
            match f.persistence {
                Persistence::Permanent => {
                    saw_permanent = true;
                    for attempt in 1..6 {
                        assert_eq!(plan.fault_for(job, attempt), Some(f));
                    }
                }
                Persistence::Transient => {
                    // Clears within two attempts by construction.
                    if plan.fault_for(job, 1).is_none() || plan.fault_for(job, 2).is_none() {
                        saw_transient_clear = true;
                    }
                    assert!(plan.fault_for(job, 2).is_none());
                }
            }
        }
        assert!(saw_transient_clear, "no transient fault cleared");
        assert!(saw_permanent, "no permanent fault sampled");
    }

    #[test]
    fn taxonomy_covers_all_kinds_and_round_trips_names() {
        let plan = FaultPlan::new(5, 1.0);
        let mut seen = std::collections::HashSet::new();
        for job in 0..2000u64 {
            if let Some(f) = plan.fault_for(job, 0) {
                seen.insert(f.kind);
            }
        }
        assert_eq!(seen.len(), 5, "taxonomy mix missed a kind: {seen:?}");
        for kind in FaultKind::all() {
            assert_eq!(FaultKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(FaultKind::from_name("nonsense"), None);
    }

    #[test]
    fn backoff_schedule_is_exponential_with_jitter() {
        // The contract, verified to the nanosecond against an independent
        // re-derivation of the formula: nominal
        // base * multiplier^(k-1) capped at max, jittered within ±jitter
        // by the documented (job_seed, retry) hash.
        let policy = RetryPolicy {
            max_attempts: 6,
            base_backoff_ns: 100_000_000,
            multiplier: 2.0,
            max_backoff_ns: 1_000_000_000,
            jitter: 0.2,
        };
        let job_seed = 0xdead_beef;
        let schedule = policy.schedule(job_seed);
        assert_eq!(schedule.len(), 5);
        let mut expected_total = 0u64;
        for (i, &wait) in schedule.iter().enumerate() {
            let retry = (i + 1) as u32;
            // Independent expectation: formula recomputed from scratch.
            let nominal = (100_000_000f64 * 2f64.powi(i as i32)).min(1_000_000_000f64);
            let mut rng = StdRng::seed_from_u64(mix3(0xbac0ff, job_seed, retry as u64));
            let factor = 1.0 + 0.2 * (rng.gen_range(0.0..2.0) - 1.0);
            let expected = (nominal * factor).round() as u64;
            assert_eq!(wait, expected, "retry {retry}");
            // Jitter bounds around the capped nominal.
            assert!(wait as f64 >= nominal * 0.8 - 1.0 && wait as f64 <= nominal * 1.2 + 1.0);
            expected_total += expected;
        }
        // The simulated waits sum exactly to the re-derived schedule.
        assert_eq!(schedule.iter().sum::<u64>(), expected_total);
        // Exponential growth up to the cap: retries 4 and 5 are both capped
        // (nominal 800ms then 1.6s -> 1s), so only jitter separates them.
        assert!(schedule[1] > schedule[0] && schedule[2] > schedule[1]);
        assert!(schedule[4] as f64 <= 1_000_000_000.0 * 1.2 + 1.0);
        // Deterministic: same seed, same schedule; different seed differs.
        assert_eq!(policy.schedule(job_seed), schedule);
        assert_ne!(policy.schedule(job_seed ^ 1), schedule);
    }

    #[test]
    fn trace_faults_degrade_deterministically() {
        let mk = |n: usize| -> Vec<PowerSample> {
            (0..n)
                .map(|i| PowerSample {
                    t: i as f64,
                    watts: 200.0,
                })
                .collect()
        };
        let mut a = mk(100);
        apply_trace_fault(FaultKind::PowerTraceDropout, &mut a, 9);
        assert!(a.is_empty());
        let mut b = mk(100);
        let mut c = mk(100);
        apply_trace_fault(FaultKind::PowerTraceCorruption, &mut b, 9);
        apply_trace_fault(FaultKind::PowerTraceCorruption, &mut c, 9);
        assert_eq!(b, c, "corruption must be deterministic");
        assert!(b.len() >= 20 && b.len() <= 80, "kept {}", b.len());
        // Fatal kinds leave the trace alone.
        let mut d = mk(10);
        apply_trace_fault(FaultKind::BenchmarkCrash, &mut d, 9);
        assert_eq!(d.len(), 10);
    }
}
