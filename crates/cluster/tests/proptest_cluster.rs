//! Property-based tests for the cluster simulator: scheduler conservation
//! laws, power-trace integration bounds, the performance model's
//! physical sanity over random job parameters, and chaos determinism —
//! fault/retry outcomes are bit-identical across thread widths and queue
//! orders for any fault-plan seed.

use alperf_cluster::executor::{measure_all, JobOutcome};
use alperf_cluster::fault::{Fault, FaultPlan, RetryPolicy};
use alperf_cluster::job::JobRequest;
use alperf_cluster::power::{PowerSample, PowerSampler};
use alperf_cluster::scheduler::schedule_batch;
use alperf_hpgmg::model::PerfModel;
use alperf_hpgmg::operator::OperatorKind;
use alperf_linalg::threads::with_threads;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn any_request() -> impl Strategy<Value = JobRequest> {
    (
        0usize..3,
        1e3..1e9f64,
        prop::sample::select(vec![1usize, 2, 4, 8, 16, 24, 32, 48, 64, 96, 128]),
        prop::sample::select(vec![1.2f64, 1.5, 1.8, 2.1, 2.4]),
        0usize..3,
    )
        .prop_map(|(op, size, np, freq, repeat)| JobRequest {
            op: OperatorKind::all()[op],
            size,
            np,
            freq,
            repeat,
        })
}

proptest! {
    /// The scheduler never loses a job, never oversubscribes nodes, and
    /// produces a makespan between the longest job and the serial sum.
    #[test]
    fn scheduler_conservation(
        reqs in prop::collection::vec(any_request(), 1..25),
        runtimes in prop::collection::vec(0.1..100.0f64, 25),
    ) {
        let model = PerfModel::calibrated();
        let rts = &runtimes[..reqs.len()];
        let s = schedule_batch(&model, &reqs, rts);
        prop_assert_eq!(s.placements.len(), reqs.len());
        // Makespan bounds.
        let longest = rts.iter().cloned().fold(0.0f64, f64::max);
        let serial: f64 = rts.iter().sum();
        prop_assert!(s.makespan >= longest - 1e-9);
        prop_assert!(s.makespan <= serial + 1e-9);
        // No oversubscription: at every job start, count overlapping jobs'
        // nodes.
        for (i, &(start_i, _)) in s.placements.iter().enumerate() {
            let mut used = 0usize;
            for (j, &(start_j, nodes_j)) in s.placements.iter().enumerate() {
                let end_j = start_j + rts[j];
                if start_j <= start_i + 1e-12 && start_i < end_j - 1e-12 {
                    used += nodes_j;
                }
            }
            prop_assert!(
                used <= model.machine.nodes,
                "job {i}: {used} nodes in use at t={start_i}"
            );
        }
    }

    /// Energy integration of a trace is bounded by runtime x [min, max]
    /// observed power.
    #[test]
    fn integration_bounded_by_power_extremes(
        watts in prop::collection::vec(50.0..800.0f64, 10..40),
        runtime_pad in 0.1..5.0f64,
    ) {
        let sampler = PowerSampler::default();
        let trace: Vec<PowerSample> = watts
            .iter()
            .enumerate()
            .map(|(i, &w)| PowerSample { t: i as f64 * 2.0, watts: w })
            .collect();
        let runtime = (trace.len() - 1) as f64 * 2.0 + runtime_pad;
        prop_assume!(sampler.trace_passes(runtime, trace.len()));
        let e = sampler.integrate(runtime, &trace).unwrap();
        let pmin = watts.iter().cloned().fold(f64::INFINITY, f64::min);
        let pmax = watts.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(e >= pmin * runtime - 1e-6);
        prop_assert!(e <= pmax * runtime + 1e-6);
    }

    /// The performance model is physically sane for any job in the Table I
    /// box: positive runtime, monotone in size, non-increasing in frequency,
    /// and oversubscription never speeds things up.
    #[test]
    fn perf_model_sanity(req in any_request()) {
        let m = PerfModel::calibrated();
        let t = m.runtime_mean(req.op, req.size, req.np, req.freq);
        prop_assert!(t > 0.0 && t.is_finite());
        // Monotone in size.
        let t_bigger = m.runtime_mean(req.op, req.size * 2.0, req.np, req.freq);
        prop_assert!(t_bigger > t);
        // Non-increasing in frequency.
        if req.freq < 2.4 {
            let t_faster = m.runtime_mean(req.op, req.size, req.np, 2.4);
            prop_assert!(t_faster <= t + 1e-12);
        }
        // Energy consistent with power x time.
        let e = m.energy_mean(req.op, req.size, req.np, req.freq);
        let p = m.power_mean(req.np, req.freq);
        prop_assert!((e - p * t).abs() <= 1e-9 * e.max(1.0));
    }

    /// Sampled runtimes are strictly positive and concentrate near the mean.
    #[test]
    fn sampled_runtime_near_mean(req in any_request(), seed in 0u64..500) {
        let m = PerfModel::calibrated();
        let mut rng = StdRng::seed_from_u64(seed);
        let mean = m.runtime_mean(req.op, req.size, req.np, req.freq);
        let s = m.sample_runtime(req.op, req.size, req.np, req.freq, &mut rng);
        prop_assert!(s > 0.0);
        // 3% lognormal noise: 6-sigma band.
        prop_assert!(s > mean * 0.8 && s < mean * 1.25, "s={s} mean={mean}");
    }

    /// Job seeds are collision-free across the factor box for distinct
    /// requests (probabilistic — checks injectivity on the sampled pair).
    #[test]
    fn job_seeds_differ(a in any_request(), b in any_request()) {
        prop_assume!(a != b);
        prop_assert_ne!(a.seed(1), b.seed(1));
    }
}

/// Jobs small enough that measuring a batch stays cheap (trace sampling is
/// O(runtime), and the big end of the Table I box runs for minutes).
fn small_request() -> impl Strategy<Value = JobRequest> {
    (
        0usize..3,
        1e3..1e6f64,
        prop::sample::select(vec![1usize, 8, 16, 32, 64]),
        prop::sample::select(vec![1.2f64, 1.8, 2.4]),
        0usize..3,
    )
        .prop_map(|(op, size, np, freq, repeat)| JobRequest {
            op: OperatorKind::all()[op],
            size,
            np,
            freq,
            repeat,
        })
}

/// A `JobOutcome` stripped of its batch index: the per-job payload that
/// must be invariant under queue reordering.
type NormalizedOutcome = (
    Option<(u64, u64, Vec<PowerSample>)>,
    Option<Fault>,
    u32,
    u64,
);

fn normalize(o: &JobOutcome) -> NormalizedOutcome {
    match o {
        JobOutcome::Ok {
            measurement,
            attempts,
            backoff_ns,
        } => (
            Some((
                measurement.runtime.to_bits(),
                measurement.memory_per_node.to_bits(),
                measurement.trace.clone(),
            )),
            None,
            *attempts,
            *backoff_ns,
        ),
        JobOutcome::Failed {
            attempts,
            fault,
            backoff_ns,
            ..
        } => (None, Some(*fault), *attempts, *backoff_ns),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Chaos determinism: for ANY fault-plan seed and failure rate, the
    /// `JobOutcome` vector is bit-identical across thread widths {1, 2, 8},
    /// and per-job outcomes are invariant under queue reordering (faults
    /// and backoffs derive from job identity, never from shared state) —
    /// the fault-injection mirror of the obs on/off determinism test.
    #[test]
    fn chaos_outcomes_deterministic_across_workers_and_order(
        reqs in prop::collection::vec(small_request(), 1..12),
        plan_seed in 0u64..1000,
        rate in 0.0..1.001f64,
        campaign_seed in 0u64..50,
    ) {
        let model = PerfModel::calibrated();
        let sampler = PowerSampler::default();
        let plan = FaultPlan::new(plan_seed, rate);
        let retry = RetryPolicy::default();
        let run = |width: usize, reqs: &[JobRequest]| {
            with_threads(width, || {
                measure_all(&model, &sampler, reqs, campaign_seed, Some(&plan), &retry)
            })
        };
        let base = run(1, &reqs);
        prop_assert_eq!(base.len(), reqs.len());
        for width in [2usize, 8] {
            let out = run(width, &reqs);
            prop_assert_eq!(&out, &base, "width {} changed outcomes", width);
        }
        // Queue-order invariance: run the same jobs reversed; outcome i of
        // the base run must equal outcome n-1-i of the reversed run, up to
        // the batch index.
        let rev: Vec<JobRequest> = reqs.iter().rev().copied().collect();
        let out_rev = run(4, &rev);
        let a: Vec<NormalizedOutcome> = base.iter().map(normalize).collect();
        let mut b: Vec<NormalizedOutcome> = out_rev.iter().map(normalize).collect();
        b.reverse();
        prop_assert_eq!(a, b, "queue order changed per-job outcomes");
    }
}
