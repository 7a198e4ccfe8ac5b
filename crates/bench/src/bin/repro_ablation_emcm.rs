//! Ablation **X2** — EMCM vs the paper's GPR-variance approach
//! (paper §III's critique, made quantitative).
//!
//! The paper argues EMCM (Eq. 1) is ill-suited to noisy performance data
//! because (a) its K bootstrap learners give "a Monte Carlo estimate of
//! variance, which is especially noisy when the training set is small" and
//! (b) once selected, a point never returns to the pool, so noisy settings
//! cannot be re-measured. This binary runs EMCM, Variance Reduction, and
//! Random selection from a *single-measurement seed* and compares
//! selection stability and RMSE trajectories.

use alperf_al::emcm::Emcm;
use alperf_al::metrics::paper_metrics;
use alperf_al::runner::{run_al, AlConfig, AlRun};
use alperf_al::strategy::{RandomSampling, Strategy, VarianceReduction};
use alperf_bench::{banner, focus_slice, write_series, FocusSlice};
use alperf_core::analysis::paper_kernel_bounds;
use alperf_data::partition::Partition;
use alperf_gp::kernel::{ArdSquaredExponential, SquaredExponential};
use alperf_gp::noise::NoiseFloor;
use alperf_gp::optimize::GprConfig;
use alperf_linalg::matrix::Matrix;
use alperf_linalg::threads::replicates;

const REPETITIONS: usize = 8;
const ITERS: usize = 40;

fn batch(
    x: &Matrix,
    y: &[f64],
    cost: &[f64],
    make: impl Fn() -> Box<dyn Strategy> + Sync,
) -> Vec<AlRun> {
    replicates(REPETITIONS, |rep| {
        let gpr = GprConfig::new(Box::new(ArdSquaredExponential::unit(2)))
            .with_noise_floor(NoiseFloor::recommended())
            .with_kernel_bounds(paper_kernel_bounds(2))
            .with_restarts(2)
            .with_standardize(false)
            .with_seed(400 + rep as u64);
        let cfg = AlConfig {
            max_iters: ITERS,
            seed: rep as u64,
            ..AlConfig::new(gpr)
        };
        // Single initial experiment — the regime where the paper says
        // "EMCM is unlikely to perform well".
        let part = Partition::paper_default(x.nrows(), 4000 + rep as u64);
        let mut strategy = make();
        run_al(x, y, cost, &part, strategy.as_mut(), &cfg).expect("AL run")
    })
}

fn main() {
    let _obs = alperf_bench::obs_from_env();
    let FocusSlice { x, y, .. } = focus_slice();
    let cost = vec![1.0; x.nrows()];
    banner(&format!(
        "X2: EMCM vs GPR-variance AL — {REPETITIONS} repetitions x {ITERS} iterations, 1-point seed"
    ));

    let emcm_runs = batch(&x, &y, &cost, || {
        Box::new(Emcm::new(4, Box::new(SquaredExponential::unit()), 0.1))
    });
    let vr_runs = batch(&x, &y, &cost, || Box::new(VarianceReduction));
    let rnd_runs = batch(&x, &y, &cost, || Box::new(RandomSampling));

    let report = |name: &str, runs: &[AlRun]| -> Vec<f64> {
        let (_, _, rmse) = paper_metrics(runs);
        println!(
            "{name:<20} RMSE@5 {:>7.3}  RMSE@15 {:>7.3}  RMSE@{} {:>7.3}",
            rmse.mean[5.min(rmse.len() - 1)],
            rmse.mean[15.min(rmse.len() - 1)],
            rmse.len() - 1,
            rmse.mean.last().expect("non-empty"),
        );
        rmse.mean
    };
    let e = report("EMCM (K=4)", &emcm_runs);
    let v = report("Variance Reduction", &vr_runs);
    let r = report("Random", &rnd_runs);
    let iters: Vec<f64> = (0..e.len().min(v.len()).min(r.len()))
        .map(|i| i as f64)
        .collect();
    let k = iters.len();
    write_series(
        "ablation_emcm_rmse",
        &[
            ("iter", &iters),
            ("emcm", &e[..k]),
            ("variance_reduction", &v[..k]),
            ("random", &r[..k]),
        ],
    );

    // Selection instability: run EMCM's *first* selection for the same
    // partition with different Monte Carlo seeds and count distinct picks
    // (the paper's "especially noisy when the training set is small").
    banner("EMCM first-selection instability (same data, different MC seeds)");
    // A 3-point seed: enough for bootstrap resamples to differ (a 1-point
    // bootstrap is degenerate), still firmly in the small-sample regime.
    let part = Partition::random(x.nrows(), 3, 0.8, 4000);
    let firsts: std::collections::BTreeSet<usize> = (0..10)
        .filter_map(|mc| {
            let gpr = GprConfig::new(Box::new(ArdSquaredExponential::unit(2)))
                .with_noise_floor(NoiseFloor::recommended())
                .with_kernel_bounds(paper_kernel_bounds(2))
                .with_restarts(2)
                .with_standardize(false)
                .with_seed(7);
            let cfg = AlConfig {
                max_iters: 1,
                seed: mc, // different Monte Carlo randomness only
                ..AlConfig::new(gpr)
            };
            let mut emcm = Emcm::new(4, Box::new(SquaredExponential::unit()), 0.1);
            run_al(&x, &y, &cost, &part, &mut emcm, &cfg)
                .ok()
                .and_then(|run| run.history.first().map(|h| h.chosen_row))
        })
        .collect();
    println!(
        "distinct first selections over 10 MC seeds: {}",
        firsts.len()
    );
    // Variance Reduction is deterministic given the data:
    let vr_firsts: std::collections::BTreeSet<usize> = (0..10)
        .filter_map(|mc| {
            let gpr = GprConfig::new(Box::new(ArdSquaredExponential::unit(2)))
                .with_noise_floor(NoiseFloor::recommended())
                .with_kernel_bounds(paper_kernel_bounds(2))
                .with_restarts(2)
                .with_standardize(false)
                .with_seed(7);
            let cfg = AlConfig {
                max_iters: 1,
                seed: mc,
                ..AlConfig::new(gpr)
            };
            run_al(&x, &y, &cost, &part, &mut VarianceReduction, &cfg)
                .ok()
                .and_then(|run| run.history.first().map(|h| h.chosen_row))
        })
        .collect();
    println!(
        "distinct first selections for Variance Reduction: {}",
        vr_firsts.len()
    );
    println!("\n(paper: EMCM's K weak learners are 'a Monte Carlo estimate of variance ... especially noisy when the training set is small'; GPR-variance selection has no such Monte Carlo noise)");
}
