//! Measurement executor with fault injection and retry.
//!
//! Sampling a runtime and a full power trace for thousands of jobs is
//! embarrassingly parallel; this module fans the jobs out through the
//! workspace's one parallel axis, [`alperf_linalg::threads::replicates`],
//! at the caller's thread width. Every job derives its RNG seed from its
//! own identity ([`crate::job::JobRequest::seed`]), so the measurement a
//! job receives is bit-identical no matter which thread runs it or in what
//! order — the simulation is deterministic at every width.
//!
//! The same identity seed drives the [`crate::fault`] layer: when a
//! [`FaultPlan`] is supplied, each execution attempt may fault, fatal
//! faults are retried under a [`RetryPolicy`] with simulated
//! exponential-backoff accounting, and jobs that exhaust their attempts
//! come back as [`JobOutcome::Failed`] instead of aborting the batch.
//! Measurement panics are caught per attempt and surface as a permanent
//! [`FaultKind::BenchmarkCrash`](crate::fault::FaultKind::BenchmarkCrash)
//! on that job alone — one poisoned job cannot take down a whole campaign.

use crate::fault::{apply_trace_fault, Fault, FaultPlan, RetryPolicy};
use crate::job::JobRequest;
use crate::power::{PowerSample, PowerSampler};
use alperf_hpgmg::model::PerfModel;
use alperf_linalg::threads::replicates;
use alperf_obs::names;
use alperf_obs::Value;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One measured job: sampled runtime, per-node memory, and power trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Index of the request within the batch.
    pub idx: usize,
    /// Sampled (noisy) runtime, seconds.
    pub runtime: f64,
    /// Sampled peak per-node memory, bytes (SLURM's MaxRSS analogue).
    pub memory_per_node: f64,
    /// IPMI-style power trace over the job's execution.
    pub trace: Vec<PowerSample>,
}

/// The terminal state of one job after fault injection and retries.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The job produced a measurement (possibly with a degraded power
    /// trace, and possibly after retries).
    Ok {
        /// The measurement (trace may be empty/truncated under a
        /// power-boundary fault).
        measurement: Measurement,
        /// Execution attempts consumed, including the successful one.
        attempts: u32,
        /// Total simulated backoff waited across retries, nanoseconds.
        backoff_ns: u64,
    },
    /// The job exhausted its retry budget (or crashed permanently).
    Failed {
        /// Index of the request within the batch.
        idx: usize,
        /// Execution attempts consumed.
        attempts: u32,
        /// The fault observed on the final attempt.
        fault: Fault,
        /// Total simulated backoff waited across retries, nanoseconds.
        backoff_ns: u64,
    },
}

impl JobOutcome {
    /// The batch index of the underlying request.
    pub fn idx(&self) -> usize {
        match self {
            JobOutcome::Ok { measurement, .. } => measurement.idx,
            JobOutcome::Failed { idx, .. } => *idx,
        }
    }

    /// Attempts consumed (≥ 1 in every outcome).
    pub fn attempts(&self) -> u32 {
        match self {
            JobOutcome::Ok { attempts, .. } | JobOutcome::Failed { attempts, .. } => *attempts,
        }
    }

    /// The measurement, if the job succeeded.
    pub fn measurement(&self) -> Option<&Measurement> {
        match self {
            JobOutcome::Ok { measurement, .. } => Some(measurement),
            JobOutcome::Failed { .. } => None,
        }
    }

    /// Did the job fail terminally?
    #[cfg(test)]
    fn is_failed(&self) -> bool {
        matches!(self, JobOutcome::Failed { .. })
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Measure every job in `requests` on up to
/// [`alperf_linalg::threads::current`] threads, injecting faults from
/// `faults` (if any) and retrying fatal faults under `retry`. Outcomes are
/// returned in request order and are bit-identical for the same
/// `(requests, campaign_seed, faults, retry)` at every thread width —
/// every per-job decision derives from the job's identity seed, never
/// from shared state.
pub fn measure_all(
    model: &PerfModel,
    sampler: &PowerSampler,
    requests: &[JobRequest],
    campaign_seed: u64,
    faults: Option<&FaultPlan>,
    retry: &RetryPolicy,
) -> Vec<JobOutcome> {
    let _span = alperf_obs::span(names::CLUSTER_MEASURE_BATCH);
    replicates(requests.len(), |idx| {
        measure_job(
            model,
            sampler,
            &requests[idx],
            idx,
            campaign_seed,
            faults,
            retry,
        )
    })
}

/// Run one measurement attempt, converting a panic in the measurement
/// code into an error message instead of unwinding through the batch.
fn run_attempt(f: impl FnOnce() -> Measurement) -> Result<Measurement, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(panic_message)
}

/// Drive one job through its fault/retry lifecycle. Pure in everything
/// that reaches the returned outcome: faults and backoffs derive from the
/// job's identity seed, and telemetry only observes.
fn measure_job(
    model: &PerfModel,
    sampler: &PowerSampler,
    request: &JobRequest,
    idx: usize,
    campaign_seed: u64,
    faults: Option<&FaultPlan>,
    retry: &RetryPolicy,
) -> JobOutcome {
    let job_seed = request.seed(campaign_seed);
    let max_attempts = retry.max_attempts.max(1);
    let mut backoff_ns = 0u64;
    for attempt in 0..max_attempts {
        let fault = faults.and_then(|p| p.fault_for(job_seed, attempt));
        match fault {
            Some(f) if f.kind.is_fatal() => {
                if attempt + 1 < max_attempts {
                    let wait = retry.backoff_ns(job_seed, attempt + 1);
                    backoff_ns += wait;
                    alperf_obs::record(
                        names::CLUSTER_RETRY,
                        &[
                            ("idx", Value::U64(idx as u64)),
                            ("attempt", Value::U64((attempt + 1) as u64)),
                            ("kind", Value::Str(f.kind.name())),
                            ("backoff_ns", Value::U64(wait)),
                        ],
                    );
                } else {
                    emit_failed(idx, max_attempts, f, backoff_ns);
                    return JobOutcome::Failed {
                        idx,
                        attempts: max_attempts,
                        fault: f,
                        backoff_ns,
                    };
                }
            }
            other => {
                // No fault, or a power-boundary degradation: the job runs.
                let run = run_attempt(|| measure_one(model, sampler, request, idx, campaign_seed));
                match run {
                    Ok(mut measurement) => {
                        if let Some(f) = other {
                            apply_trace_fault(f.kind, &mut measurement.trace, job_seed);
                        }
                        return JobOutcome::Ok {
                            measurement,
                            attempts: attempt + 1,
                            backoff_ns,
                        };
                    }
                    Err(_msg) => {
                        // A deterministic panic would repeat on every
                        // retry: classify as a permanent crash and stop.
                        let fault = Fault::from_panic();
                        emit_failed(idx, attempt + 1, fault, backoff_ns);
                        return JobOutcome::Failed {
                            idx,
                            attempts: attempt + 1,
                            fault,
                            backoff_ns,
                        };
                    }
                }
            }
        }
    }
    unreachable!("retry loop always returns before exhausting max_attempts");
}

fn emit_failed(idx: usize, attempts: u32, fault: Fault, backoff_ns: u64) {
    alperf_obs::record(
        names::CLUSTER_FAILED,
        &[
            ("idx", Value::U64(idx as u64)),
            ("attempts", Value::U64(attempts as u64)),
            ("kind", Value::Str(fault.kind.name())),
            (
                "persistence",
                Value::Str(match fault.persistence {
                    crate::fault::Persistence::Permanent => "permanent",
                    crate::fault::Persistence::Transient => "transient",
                }),
            ),
            ("backoff_ns", Value::U64(backoff_ns)),
        ],
    );
}

/// Measure a single job with its identity-derived RNG.
fn measure_one(
    model: &PerfModel,
    sampler: &PowerSampler,
    request: &JobRequest,
    idx: usize,
    campaign_seed: u64,
) -> Measurement {
    let mut rng = StdRng::seed_from_u64(request.seed(campaign_seed));
    let runtime =
        model.sample_runtime(request.op, request.size, request.np, request.freq, &mut rng);
    let memory_per_node = model.sample_memory_per_node(request.size, request.np, &mut rng);
    let watts = model.power_mean(request.np, request.freq);
    let trace = sampler.sample_trace(runtime, watts, &mut rng);
    Measurement {
        idx,
        runtime,
        memory_per_node,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use alperf_hpgmg::operator::OperatorKind;
    use alperf_linalg::threads::with_threads;

    /// Measure every job with no fault plan and unwrap the outcomes to
    /// plain [`Measurement`]s: without injected faults every job succeeds.
    fn measure_all_ok(
        model: &PerfModel,
        sampler: &PowerSampler,
        requests: &[JobRequest],
        campaign_seed: u64,
    ) -> Vec<Measurement> {
        let retry = RetryPolicy::no_retries();
        measure_all(model, sampler, requests, campaign_seed, None, &retry)
            .iter()
            .map(|o| o.measurement().expect("no fault plan").clone())
            .collect()
    }

    fn requests(n: usize) -> Vec<JobRequest> {
        (0..n)
            .map(|i| JobRequest {
                op: OperatorKind::all()[i % 3],
                size: 1e5 * (1.0 + i as f64),
                np: [1, 8, 32, 64][i % 4],
                freq: [1.2, 1.8, 2.4][i % 3],
                repeat: i % 3,
            })
            .collect()
    }

    #[test]
    fn parallel_equals_serial() {
        let model = PerfModel::calibrated();
        let sampler = PowerSampler::default();
        let reqs = requests(40);
        let ser = with_threads(1, || measure_all_ok(&model, &sampler, &reqs, 9));
        for width in [2, 8] {
            let par = with_threads(width, || measure_all_ok(&model, &sampler, &reqs, 9));
            assert_eq!(par, ser, "width={width}");
        }
    }

    #[test]
    fn results_in_request_order() {
        let model = PerfModel::calibrated();
        let sampler = PowerSampler::default();
        let reqs = requests(10);
        let out = with_threads(4, || measure_all_ok(&model, &sampler, &reqs, 0));
        for (i, m) in out.iter().enumerate() {
            assert_eq!(m.idx, i);
        }
    }

    #[test]
    fn repeats_get_different_noise() {
        let model = PerfModel::calibrated();
        let sampler = PowerSampler::default();
        let a = JobRequest {
            op: OperatorKind::Poisson1,
            size: 1e7,
            np: 16,
            freq: 2.4,
            repeat: 0,
        };
        let b = JobRequest { repeat: 1, ..a };
        let ma = measure_one(&model, &sampler, &a, 0, 1);
        let mb = measure_one(&model, &sampler, &b, 1, 1);
        assert_ne!(ma.runtime, mb.runtime);
        // Both close to the model mean.
        let mean = model.runtime_mean(a.op, a.size, a.np, a.freq);
        assert!((ma.runtime - mean).abs() / mean < 0.2);
        assert!((mb.runtime - mean).abs() / mean < 0.2);
    }

    #[test]
    fn campaign_seed_changes_measurements() {
        let model = PerfModel::calibrated();
        let sampler = PowerSampler::default();
        let reqs = requests(5);
        let a = measure_all_ok(&model, &sampler, &reqs, 1);
        let b = measure_all_ok(&model, &sampler, &reqs, 2);
        assert_ne!(a[0].runtime, b[0].runtime);
    }

    #[test]
    fn empty_batch_is_fine() {
        let model = PerfModel::calibrated();
        let sampler = PowerSampler::default();
        let out = with_threads(4, || measure_all_ok(&model, &sampler, &[], 0));
        assert!(out.is_empty());
    }

    #[test]
    fn faulted_batch_mixes_ok_degraded_and_failed() {
        let model = PerfModel::calibrated();
        let sampler = PowerSampler::default();
        let reqs = requests(120);
        let plan = FaultPlan::new(17, 0.5);
        let retry = RetryPolicy::default();
        let out = with_threads(4, || {
            measure_all(&model, &sampler, &reqs, 9, Some(&plan), &retry)
        });
        assert_eq!(out.len(), reqs.len());
        let failed = out.iter().filter(|o| o.is_failed()).count();
        let retried = out
            .iter()
            .filter(|o| !o.is_failed() && o.attempts() > 1)
            .count();
        let degraded = out
            .iter()
            .filter_map(|o| o.measurement())
            .filter(|m| m.trace.is_empty())
            .count();
        assert!(failed > 0, "rate 0.5 over 120 jobs must fail some");
        assert!(retried > 0, "transient faults must recover via retry");
        assert!(degraded > 0, "dropouts must empty some traces");
        // Every outcome is well-formed: attempts within budget, failures
        // carry fatal kinds, backoff only ever accompanies retries.
        for o in &out {
            assert!(o.attempts() >= 1 && o.attempts() <= retry.max_attempts);
            match o {
                JobOutcome::Failed { fault, .. } => assert!(fault.kind.is_fatal()),
                JobOutcome::Ok {
                    attempts,
                    backoff_ns,
                    ..
                } => {
                    if *attempts == 1 {
                        assert_eq!(*backoff_ns, 0);
                    } else {
                        assert!(*backoff_ns > 0);
                    }
                }
            }
        }
    }

    #[test]
    fn chaos_outcomes_identical_across_worker_counts() {
        let model = PerfModel::calibrated();
        let sampler = PowerSampler::default();
        let reqs = requests(60);
        let plan = FaultPlan::new(5, 0.3);
        let retry = RetryPolicy::default();
        let run = |width| {
            with_threads(width, || {
                measure_all(&model, &sampler, &reqs, 3, Some(&plan), &retry)
            })
        };
        let base = run(1);
        for width in [2, 8] {
            assert_eq!(run(width), base, "width={width}");
        }
    }

    #[test]
    fn panic_in_measurement_becomes_failed_outcome() {
        // The per-attempt guard converts a panic into an error message.
        let err = run_attempt(|| panic!("boom")).unwrap_err();
        assert!(err.contains("boom"));
        let m = run_attempt(|| Measurement {
            idx: 0,
            runtime: 1.0,
            memory_per_node: 1.0,
            trace: vec![],
        });
        assert!(m.is_ok());
        // And a synthesized panic fault is a permanent crash.
        let f = Fault::from_panic();
        assert_eq!(f.kind, FaultKind::BenchmarkCrash);
        assert!(f.kind.is_fatal() && f.kind.charges_compute());
    }

    #[test]
    fn no_retries_policy_fails_fast() {
        let model = PerfModel::calibrated();
        let sampler = PowerSampler::default();
        let reqs = requests(80);
        let plan = FaultPlan::new(2, 0.6);
        let out = measure_all(
            &model,
            &sampler,
            &reqs,
            1,
            Some(&plan),
            &RetryPolicy::no_retries(),
        );
        for o in &out {
            assert_eq!(o.attempts(), 1);
            if let JobOutcome::Failed { backoff_ns, .. } = o {
                assert_eq!(*backoff_ns, 0);
            }
        }
        assert!(out.iter().any(|o| o.is_failed()));
    }
}
