//! Chaos e2e: the AL loop degrades gracefully under experiment faults.
//!
//! Runs the same small AL experiment against a [`SeededFaultOracle`] at
//! failure rates {0.0, 0.1, 0.3} and requires: no panics, finite RMSE/AMSD
//! throughout, a zero-rate run identical to the fault-free `DatasetOracle`
//! run, and — with telemetry on — every lost experiment flagged as an
//! `al.degraded_iteration` record in the captured trace. Also re-checks the
//! obs determinism contract under faults: a telemetry-on chaos run is
//! bit-identical (history AND lost list) to a telemetry-off one.
//!
//! Lives in its own integration-test binary because it flips the global
//! telemetry switch; unit tests in the same process would race it.

use alperf_al::oracle::SeededFaultOracle;
use alperf_al::runner::{run_al, run_al_with_oracle, AlConfig, AlRun};
use alperf_al::strategy::VarianceReduction;
use alperf_data::partition::Partition;
use alperf_gp::kernel::SquaredExponential;
use alperf_gp::noise::NoiseFloor;
use alperf_gp::optimize::GprConfig;
use alperf_linalg::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 48;
const ORACLE_SEED: u64 = 17;

fn dataset(n: usize, seed: u64) -> (Matrix, Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let xs: Vec<f64> = (0..n).map(|i| i as f64 * 8.0 / n as f64).collect();
    let y: Vec<f64> = xs
        .iter()
        .map(|v| v.sin() * 2.0 + rng.gen_range(-0.15..0.15))
        .collect();
    let cost: Vec<f64> = xs.iter().map(|v| 1.0 + v * v).collect();
    (Matrix::from_vec(n, 1, xs).unwrap(), y, cost)
}

fn config() -> AlConfig {
    let gpr = GprConfig::new(Box::new(SquaredExponential::unit()))
        .with_noise_floor(NoiseFloor::Fixed(0.05))
        .with_restarts(2)
        .with_seed(7);
    AlConfig {
        max_iters: 18,
        seed: 3,
        ..AlConfig::new(gpr)
    }
}

fn run_chaos(failure_rate: f64) -> AlRun {
    let (x, y, cost) = dataset(N, 11);
    let part = Partition::random(N, 2, 0.8, 5);
    let oracle = SeededFaultOracle::new(ORACLE_SEED, failure_rate);
    run_al_with_oracle(
        &x,
        &y,
        &cost,
        &part,
        &mut VarianceReduction,
        &oracle,
        &config(),
    )
    .unwrap()
}

fn assert_sane(run: &AlRun, rate: f64) {
    assert!(!run.history.is_empty(), "rate {rate}: no iterations at all");
    for r in &run.history {
        assert!(r.rmse.is_finite(), "rate {rate}: non-finite RMSE");
        assert!(r.amsd.is_finite(), "rate {rate}: non-finite AMSD");
        assert!(
            r.sigma_at_chosen.is_finite(),
            "rate {rate}: non-finite sigma"
        );
        assert!(
            r.cumulative_cost.is_finite() && r.cumulative_cost > 0.0,
            "rate {rate}: bad cumulative cost"
        );
    }
    for l in &run.lost {
        assert!(l.attempts >= 1 && l.attempts <= 3, "rate {rate}: attempts");
        assert!(l.cost > 0.0, "rate {rate}: lost cost not charged");
    }
    // History + lost together never exceed the iteration budget, and no
    // row appears both measured and lost.
    assert!(run.history.len() + run.lost.len() <= 18);
    for l in &run.lost {
        assert!(
            !run.history.iter().any(|r| r.chosen_row == l.row),
            "rate {rate}: row {} both measured and lost",
            l.row
        );
    }
}

// One #[test] only: the global telemetry switch is process-wide, and the
// default multi-threaded test runner would race two tests flipping it.
#[test]
fn al_degrades_gracefully_under_faults() {
    alperf_obs::set_enabled(false);

    // Sweep the failure rates with telemetry off.
    let runs: Vec<(f64, AlRun)> = [0.0, 0.1, 0.3]
        .into_iter()
        .map(|rate| (rate, run_chaos(rate)))
        .collect();
    for (rate, run) in &runs {
        assert_sane(run, *rate);
    }
    let zero = &runs[0].1;
    let heavy = &runs[2].1;

    // A zero-rate fault oracle is indistinguishable from the fault-free
    // dataset oracle.
    assert!(zero.lost.is_empty(), "rate 0.0 lost experiments");
    let (x, y, cost) = dataset(N, 11);
    let part = Partition::random(N, 2, 0.8, 5);
    let clean = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &config()).unwrap();
    assert_eq!(zero.history, clean.history);
    assert_eq!(zero.final_train, clean.final_train);

    // At 30% the chosen oracle seed actually loses experiments, the loop
    // keeps going past each loss, and costs for lost rows are charged.
    assert!(
        !heavy.lost.is_empty(),
        "rate 0.3 lost nothing — seed drift?"
    );
    assert!(
        heavy.history.len() + heavy.lost.len() > heavy.history.len(),
        "degraded iterations missing"
    );
    let lost_cost: f64 = heavy.lost.iter().map(|l| l.cost).sum();
    assert!(lost_cost > 0.0);

    // Telemetry on: same numerics, and every loss visible in the trace.
    let trace = std::env::temp_dir().join(format!("alperf_chaos_{}.jsonl", std::process::id()));
    alperf_obs::sink::install_jsonl(&trace).unwrap();
    alperf_obs::set_enabled(true);
    let on = run_chaos(0.3);
    alperf_obs::set_enabled(false);
    alperf_obs::sink::uninstall();

    assert_eq!(on.history, heavy.history, "telemetry changed the numerics");
    assert_eq!(on.lost, heavy.lost, "telemetry changed the lost list");
    let text = std::fs::read_to_string(&trace).unwrap();
    std::fs::remove_file(&trace).ok();
    let degraded_records = text
        .lines()
        .filter(|l| l.contains("\"al.degraded_iteration\"") && l.contains("\"record\""))
        .count();
    assert_eq!(
        degraded_records,
        heavy.lost.len(),
        "each lost experiment must appear as an al.degraded_iteration record"
    );
    assert!(
        text.lines().any(|l| l.contains("\"al.iteration\"")),
        "trace has no al.iteration records"
    );
}
