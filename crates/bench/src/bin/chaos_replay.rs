//! Chaos smoke + replay for the fault-injection harness.
//!
//! Record mode runs a small fault-injected campaign plus an AL loop over a
//! faulty oracle with the JSONL trace sink installed, so every retry, every
//! terminal failure, and every degraded AL iteration lands in the trace:
//!
//!   chaos_replay --record <out.jsonl> [--failure-rate R] [--seed S]
//!
//! Replay mode reads a recorded trace, rebuilds the campaign's fault plan
//! and retry policy from its `cluster.fault_plan` record, re-executes the
//! measurement batch, and checks that exactly the same jobs fail with the
//! same taxonomy and attempt counts — the determinism contract, enforced
//! against a file on disk rather than within one process:
//!
//!   chaos_replay <trace.jsonl>
//!
//! Exit codes: 0 ok / replay matches; 1 replay mismatch; 2 usage;
//! 3 unreadable or malformed trace.

use alperf_al::oracle::SeededFaultOracle;
use alperf_al::runner::run_al_with_oracle;
use alperf_al::strategy::VarianceReduction;
use alperf_cluster::executor::{self, JobOutcome};
use alperf_cluster::fault::{FaultPlan, RetryPolicy};
use alperf_cluster::workload::{self, WorkloadSpec};
use alperf_cluster::Campaign;
use alperf_data::partition::Partition;
use alperf_gp::kernel::SquaredExponential;
use alperf_gp::noise::NoiseFloor;
use alperf_gp::optimize::GprConfig;
use alperf_linalg::matrix::Matrix;
use alperf_linalg::threads::with_threads;
use alperf_trace::read_path;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: chaos_replay --record <out.jsonl> [--failure-rate R] [--seed S]\n\
         \x20      chaos_replay <trace.jsonl>"
    );
    ExitCode::from(2)
}

/// The small chaos campaign both modes agree on (sizes come from the
/// trace's fault-plan record on replay, so record-side changes are safe).
fn campaign(seed: u64, failure_rate: f64) -> Campaign {
    Campaign {
        spec: WorkloadSpec {
            focus_size_levels: 6,
            default_size_levels: 2,
            failure_rate,
            seed,
            ..Default::default()
        },
        workers: 4,
        ..Default::default()
    }
}

/// A synthetic 1-D AL problem with a faulty experiment oracle, sized to
/// finish in well under a second.
fn run_al_chaos(seed: u64, failure_rate: f64) -> Result<(usize, usize), String> {
    let n = 48;
    let mut rng = StdRng::seed_from_u64(seed);
    let xs: Vec<f64> = (0..n).map(|i| i as f64 * 8.0 / n as f64).collect();
    let y: Vec<f64> = xs
        .iter()
        .map(|v| v.sin() * 2.0 + rng.gen_range(-0.15..0.15))
        .collect();
    let cost: Vec<f64> = xs.iter().map(|v| 1.0 + v * v).collect();
    let x = Matrix::from_vec(n, 1, xs).map_err(|e| format!("{e:?}"))?;
    let part = Partition::random(n, 2, 0.8, 5);
    let gpr = GprConfig::new(Box::new(SquaredExponential::unit()))
        .with_noise_floor(NoiseFloor::Fixed(0.05))
        .with_restarts(2)
        .with_seed(7);
    let cfg = alperf_al::AlConfig {
        max_iters: 18,
        seed: 3,
        ..alperf_al::AlConfig::new(gpr)
    };
    let oracle = SeededFaultOracle::new(seed ^ 0x9d, failure_rate);
    let run = run_al_with_oracle(&x, &y, &cost, &part, &mut VarianceReduction, &oracle, &cfg)
        .map_err(|e| format!("{e:?}"))?;
    Ok((run.history.len(), run.lost.len()))
}

fn record(out: &str, failure_rate: f64, seed: u64) -> ExitCode {
    if let Err(e) = alperf_obs::sink::install_jsonl(Path::new(out)) {
        eprintln!("chaos_replay: cannot open {out}: {e}");
        return ExitCode::from(3);
    }
    alperf_obs::set_enabled(true);
    let result = campaign(seed, failure_rate).run();
    let al = result
        .as_ref()
        .ok()
        .map(|_| run_al_chaos(seed, failure_rate));
    alperf_obs::set_enabled(false);
    alperf_obs::sink::uninstall();
    match (result, al) {
        (Ok(camp), Some(Ok((iters, lost)))) => {
            println!(
                "recorded {out}: {} jobs completed, {} failed terminally, \
                 makespan {:.1}s; AL: {iters} iterations, {lost} lost",
                camp.records.len(),
                camp.failures.len(),
                camp.makespan
            );
            ExitCode::SUCCESS
        }
        (Err(e), _) => {
            eprintln!("chaos_replay: campaign failed: {e}");
            ExitCode::FAILURE
        }
        (_, Some(Err(e))) => {
            eprintln!("chaos_replay: AL run failed: {e}");
            ExitCode::FAILURE
        }
        (_, None) => unreachable!("al only skipped when the campaign errored"),
    }
}

/// A terminal failure, normalized for comparison: (job idx, attempts, kind).
type FailureKey = (u64, u64, String);

fn replay(path: &str) -> ExitCode {
    let trace = match read_path(Path::new(path)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("chaos_replay: {path}: {e}");
            return ExitCode::from(3);
        }
    };
    let Some(plan_rec) = trace.records_named("cluster.fault_plan").next() else {
        eprintln!("chaos_replay: {path}: no cluster.fault_plan record — not a chaos trace");
        return ExitCode::from(3);
    };
    let f = |key: &str| -> Result<f64, ExitCode> {
        plan_rec.f64(key).ok_or_else(|| {
            eprintln!("chaos_replay: {path}: fault_plan record missing \"{key}\"");
            ExitCode::from(3)
        })
    };
    let (spec, plan, retry, workers) = match (|| {
        let spec = WorkloadSpec {
            focus_size_levels: f("focus_size_levels")? as usize,
            default_size_levels: f("default_size_levels")? as usize,
            repeats: f("repeats")? as usize,
            failure_rate: f("failure_rate")?,
            seed: f("campaign_seed")? as u64,
        };
        let plan = FaultPlan {
            seed: f("plan_seed")? as u64,
            failure_rate: f("failure_rate")?,
            permanent_fraction: f("permanent_fraction")?,
            second_attempt_fraction: f("second_attempt_fraction")?,
        };
        let retry = RetryPolicy {
            max_attempts: f("max_attempts")? as u32,
            base_backoff_ns: f("base_backoff_ns")? as u64,
            multiplier: f("multiplier")?,
            max_backoff_ns: f("max_backoff_ns")? as u64,
            jitter: f("jitter")?,
        };
        Ok::<_, ExitCode>((spec, plan, retry, f("workers")? as usize))
    })() {
        Ok(v) => v,
        Err(code) => return code,
    };

    // Re-execute the measurement batch under the reconstructed plan.
    let model = alperf_hpgmg::model::PerfModel::calibrated();
    let sampler = alperf_cluster::power::PowerSampler::default();
    let requests = workload::build_requests(&spec, &model);
    let outcomes = with_threads(workers.max(1), || {
        executor::measure_all(&model, &sampler, &requests, spec.seed, Some(&plan), &retry)
    });
    let mut replayed: Vec<FailureKey> = outcomes
        .iter()
        .filter_map(|o| match o {
            JobOutcome::Failed {
                idx,
                attempts,
                fault,
                ..
            } => Some((*idx as u64, *attempts as u64, fault.kind.name().to_string())),
            JobOutcome::Ok { .. } => None,
        })
        .collect();
    replayed.sort();

    let mut recorded: Vec<FailureKey> = Vec::new();
    for rec in trace.records_named("cluster.failed") {
        match (rec.f64("idx"), rec.f64("attempts"), rec.str("kind")) {
            (Some(idx), Some(attempts), Some(kind)) => {
                recorded.push((idx as u64, attempts as u64, kind.to_string()));
            }
            _ => {
                eprintln!("chaos_replay: {path}: malformed cluster.failed record");
                return ExitCode::from(3);
            }
        }
    }
    recorded.sort();

    if replayed == recorded {
        println!(
            "{path}: REPLAY OK — {} jobs, {} terminal failures reproduced \
             bit-for-bit (plan seed {}, rate {})",
            requests.len(),
            replayed.len(),
            plan.seed,
            plan.failure_rate
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{path}: REPLAY MISMATCH — trace has {} failures, replay produced {}",
            recorded.len(),
            replayed.len()
        );
        for k in recorded.iter().filter(|k| !replayed.contains(k)) {
            eprintln!("  recorded only: job {} attempts {} kind {}", k.0, k.1, k.2);
        }
        for k in replayed.iter().filter(|k| !recorded.contains(k)) {
            eprintln!("  replayed only: job {} attempts {} kind {}", k.0, k.1, k.2);
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    alperf_bench::threads_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    if args[0] == "--record" {
        let Some(out) = args.get(1) else {
            return usage();
        };
        let mut failure_rate = 0.3;
        let mut seed = WorkloadSpec::default().seed;
        let mut i = 2;
        while i < args.len() {
            match (args[i].as_str(), args.get(i + 1)) {
                ("--failure-rate", Some(v)) => match v.parse() {
                    Ok(r) => failure_rate = r,
                    Err(_) => return usage(),
                },
                ("--seed", Some(v)) => match v.parse() {
                    Ok(s) => seed = s,
                    Err(_) => return usage(),
                },
                _ => return usage(),
            }
            i += 2;
        }
        record(out, failure_rate, seed)
    } else if args.len() == 1 {
        replay(&args[0])
    } else {
        usage()
    }
}
