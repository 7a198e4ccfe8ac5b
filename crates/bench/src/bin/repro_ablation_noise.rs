//! Ablation **X1** — noise-floor policies (paper §V-B4, future work).
//!
//! The paper fixes overfitting with a static floor `sigma_n >= 1e-1` but
//! suggests "a more general solution should involve a limit that
//! dynamically adjusts. For instance, we expect that the restriction
//! `sigma_n >= 1/sqrt(N)` ... is a viable choice." This ablation runs four
//! policies over the same partitions and compares early-collapse behaviour
//! and final accuracy; it also scores each floor's fitted models by LOO-CV
//! pseudo-likelihood (R&W §5.4.2) — the alternative model-selection method
//! the paper defers to future work.

use alperf_al::metrics::paper_metrics;
use alperf_al::runner::{run_al, AlConfig, AlRun};
use alperf_al::strategy::VarianceReduction;
use alperf_bench::{banner, focus_slice, write_series, FocusSlice};
use alperf_core::analysis::paper_kernel_bounds;
use alperf_data::partition::Partition;
use alperf_gp::kernel::{ArdSquaredExponential, Kernel};
use alperf_gp::loocv::loo_cv;
use alperf_gp::noise::NoiseFloor;
use alperf_gp::optimize::GprConfig;
use alperf_linalg::matrix::Matrix;
use alperf_linalg::threads::replicates;

const REPETITIONS: usize = 8;
const ITERS: usize = 50;

fn batch(x: &Matrix, y: &[f64], cost: &[f64], floor: NoiseFloor) -> Vec<AlRun> {
    replicates(REPETITIONS, |rep| {
        let gpr = GprConfig::new(Box::new(ArdSquaredExponential::unit(2)))
            .with_noise_floor(floor)
            .with_kernel_bounds(paper_kernel_bounds(2))
            .with_restarts(2)
            .with_standardize(false)
            .with_seed(300 + rep as u64);
        let cfg = AlConfig {
            max_iters: ITERS,
            seed: rep as u64,
            ..AlConfig::new(gpr)
        };
        let part = Partition::paper_default(x.nrows(), 3000 + rep as u64);
        run_al(x, y, cost, &part, &mut VarianceReduction, &cfg).expect("AL run")
    })
}

fn main() {
    let _obs = alperf_bench::obs_from_env();
    let FocusSlice { x, y, .. } = focus_slice();
    let cost = vec![1.0; x.nrows()];
    banner(&format!(
        "X1: noise-floor ablation — {REPETITIONS} repetitions x {ITERS} iterations"
    ));

    let policies: [(&str, NoiseFloor); 4] = [
        ("loose_1e-8", NoiseFloor::loose()),
        ("fixed_1e-1", NoiseFloor::recommended()),
        ("dyn_1/sqrtN", NoiseFloor::DynamicInvSqrtN),
        ("dyn_0.5/sqrtN", NoiseFloor::ScaledInvSqrtN(0.5)),
    ];

    println!(
        "{:<15} {:>14} {:>12} {:>12} {:>12}",
        "policy", "min early AMSD", "final AMSD", "final RMSE", "LOO-LPL"
    );
    let mut names: Vec<&str> = Vec::new();
    let mut final_rmses = Vec::new();
    for (name, floor) in policies {
        let runs = batch(&x, &y, &cost, floor);
        let (_, amsd, rmse) = paper_metrics(&runs);
        let early = amsd.lo[..6.min(amsd.len())]
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let final_amsd = *amsd.mean.last().expect("non-empty");
        let final_rmse = *rmse.mean.last().expect("non-empty");
        // LOO-CV pseudo-likelihood of a fresh fit on the first run's final
        // training set.
        let train = &runs[0].final_train;
        let xs = x.select_rows(train);
        let ys: Vec<f64> = train.iter().map(|&i| y[i]).collect();
        let gpr = GprConfig::new(Box::new(ArdSquaredExponential::unit(2)))
            .with_noise_floor(floor)
            .with_kernel_bounds(paper_kernel_bounds(2))
            .with_restarts(2)
            .with_standardize(false);
        let (model, out) = alperf_gp::optimize::fit_gpr(&xs, &ys, &gpr).expect("refit");
        let mut k2 = ArdSquaredExponential::unit(2);
        k2.set_params(&out.theta[..3]);
        let lpl = loo_cv(&k2, model.noise_std(), &xs, &ys)
            .map(|l| l.log_pseudo_likelihood)
            .unwrap_or(f64::NAN);
        println!(
            "{:<15} {:>14.3e} {:>12.4} {:>12.4} {:>12.1}",
            name, early, final_amsd, final_rmse, lpl
        );
        names.push(name);
        final_rmses.push(final_rmse);
    }
    write_series("ablation_noise_final_rmse", &[("final_rmse", &final_rmses)]);
    println!("\npolicies (row order): {names:?}");
    println!("\nreading: the loose floor shows the early AMSD collapse; the fixed 1e-1 floor and the dynamic 1/sqrt(N) floors avoid it, with the dynamic floors relaxing as evidence accumulates (the paper's proposed future-work behaviour).");
}
