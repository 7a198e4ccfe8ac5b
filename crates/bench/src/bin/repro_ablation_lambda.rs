//! Ablation **X4** — how aggressive should cost-awareness be?
//!
//! The paper's Cost Efficiency criterion (Eq. 14) subtracts the *full*
//! predicted log-cost from the predictive SD. The generalized criterion
//! `sigma - lambda * mu` interpolates between pure Variance Reduction
//! (`lambda = 0`) and Cost Efficiency (`lambda = 1`) and extrapolates past
//! it (`lambda = 2`). Sweeping lambda quantifies the design choice: is the
//! paper's lambda = 1 near the sweet spot of the cost–error tradeoff?

use alperf_al::runner::{run_al, AlConfig, AlRun};
use alperf_al::strategy::CostWeighted;
use alperf_bench::{banner, focus_slice, write_series, FocusSlice};
use alperf_core::analysis::paper_kernel_bounds;
use alperf_data::partition::Partition;
use alperf_gp::kernel::ArdSquaredExponential;
use alperf_gp::noise::NoiseFloor;
use alperf_gp::optimize::GprConfig;
use alperf_linalg::matrix::Matrix;
use alperf_linalg::threads::replicates;

const REPETITIONS: usize = 6;
const LAMBDAS: [f64; 5] = [0.0, 0.25, 0.5, 1.0, 2.0];

fn batch(x: &Matrix, y: &[f64], cost: &[f64], lambda: f64) -> Vec<AlRun> {
    replicates(REPETITIONS, |rep| {
        let gpr = GprConfig::new(Box::new(ArdSquaredExponential::unit(2)))
            .with_noise_floor(NoiseFloor::recommended())
            .with_kernel_bounds(paper_kernel_bounds(2))
            .with_restarts(2)
            .with_standardize(false)
            .with_seed(600 + rep as u64);
        let cfg = AlConfig {
            max_iters: 80,
            refit_every: 4,
            seed: rep as u64,
            ..AlConfig::new(gpr)
        };
        let part = Partition::paper_default(x.nrows(), 6000 + rep as u64);
        run_al(x, y, cost, &part, &mut CostWeighted { lambda }, &cfg).expect("AL run")
    })
}

fn main() {
    let _obs = alperf_bench::obs_from_env();
    let FocusSlice { x, y, runtime, .. } = focus_slice();
    let cost: Vec<f64> = runtime.iter().map(|r| r * 32.0).collect();
    banner(&format!(
        "X4: cost-awareness sweep (sigma - lambda*mu), {REPETITIONS} reps x 80 iters"
    ));
    println!(
        "{:<8} {:>12} {:>14} {:>18}",
        "lambda", "final RMSE", "total cost", "RMSE at cost<=500"
    );
    let mut lam_col = Vec::new();
    let mut rmse_col = Vec::new();
    let mut cost_col = Vec::new();
    let mut budget_col = Vec::new();
    for &lambda in &LAMBDAS {
        let runs = batch(&x, &y, &cost, lambda);
        let final_rmse: f64 = runs
            .iter()
            .map(|r| r.history.last().expect("non-empty").rmse)
            .sum::<f64>()
            / runs.len() as f64;
        let total_cost: f64 = runs
            .iter()
            .map(|r| r.history.last().expect("non-empty").cumulative_cost)
            .sum::<f64>()
            / runs.len() as f64;
        // RMSE once a fixed budget (500 core-s) is exhausted.
        let at_budget: f64 = runs
            .iter()
            .map(|r| {
                r.history
                    .iter()
                    .take_while(|rec| rec.cumulative_cost <= 500.0)
                    .last()
                    .map(|rec| rec.rmse)
                    .unwrap_or(f64::NAN)
            })
            .filter(|v| v.is_finite())
            .sum::<f64>()
            / runs.len() as f64;
        println!("{lambda:<8} {final_rmse:>12.4} {total_cost:>14.0} {at_budget:>18.4}");
        lam_col.push(lambda);
        rmse_col.push(final_rmse);
        cost_col.push(total_cost);
        budget_col.push(at_budget);
    }
    write_series(
        "ablation_lambda",
        &[
            ("lambda", &lam_col),
            ("final_rmse", &rmse_col),
            ("total_cost", &cost_col),
            ("rmse_at_budget_500", &budget_col),
        ],
    );
    // The reading is computed from the table; LAMBDAS[0] is lambda = 0.
    println!("\nreading (from the table above):");
    let ratios: Vec<String> = (1..LAMBDAS.len())
        .map(|i| {
            format!(
                "lambda={} {:.2}x",
                LAMBDAS[i],
                budget_col[i] / budget_col[0]
            )
        })
        .collect();
    println!(
        "  RMSE at the 500 core-s budget relative to lambda=0 (below 1x beats it): {}",
        ratios.join(", ")
    );
    let best = (0..LAMBDAS.len())
        .min_by(|&a, &b| budget_col[a].total_cmp(&budget_col[b]))
        .expect("non-empty sweep");
    println!(
        "  best lambda at the budget: {} (RMSE {:.4})",
        LAMBDAS[best], budget_col[best]
    );
    let at = |lambda: f64| {
        LAMBDAS
            .iter()
            .position(|&l| l == lambda)
            .expect("lambda swept")
    };
    let (one, two) = (at(1.0), at(2.0));
    println!(
        "  lambda=2 vs lambda=1 at the budget: {} ({:.4} vs {:.4})",
        if budget_col[two] > budget_col[one] {
            "worse"
        } else {
            "not worse"
        },
        budget_col[two],
        budget_col[one]
    );
    // The smallest saving is the costliest lambda > 0.
    let least = (1..LAMBDAS.len())
        .max_by(|&a, &b| cost_col[a].total_cmp(&cost_col[b]))
        .expect("a lambda > 0 swept");
    println!(
        "  smallest total-cost saving of any lambda > 0: {:.1}x (lambda={}: {:.0} vs {:.0} core-s)",
        cost_col[0] / cost_col[least],
        LAMBDAS[least],
        cost_col[least],
        cost_col[0]
    );
}
