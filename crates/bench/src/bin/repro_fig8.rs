//! Reproduction of **Fig. 8** — "Comparing AL strategies: Variance
//! Reduction and Cost Efficiency" — and the paper's headline numbers.
//!
//! 50 random partitions of the (poisson1, NP = 32) Performance subset per
//! strategy, run to pool exhaustion; cost unit = runtime x cores
//! (Section V-B4). Outputs:
//!
//! * Fig. 8(a): averaged RMSE and AMSD vs iteration for both strategies
//!   (Cost Efficiency converges more slowly per *iteration*);
//! * Fig. 8(b): averaged cumulative cost vs iteration, and the cost–error
//!   tradeoff curves with the crossover cost C;
//! * the headline: relative error reduction after C — the paper reports a
//!   maximum of 38%, and 25/21/16/13% at 2C/3C/5C/10C.

use alperf_al::metrics::paper_metrics;
use alperf_al::runner::{run_al, AlConfig, AlRun};
use alperf_al::strategy::{CostEfficiency, Strategy, VarianceReduction};
use alperf_al::tradeoff;
use alperf_bench::{banner, focus_slice, write_series, FocusSlice};
use alperf_core::analysis::paper_kernel_bounds;
use alperf_data::partition::Partition;
use alperf_gp::kernel::ArdSquaredExponential;
use alperf_gp::noise::NoiseFloor;
use alperf_gp::optimize::GprConfig;
use alperf_linalg::matrix::Matrix;
use alperf_linalg::threads::replicates;

/// Partitions per strategy: the paper uses 50; override with
/// `ALPERF_PARTITIONS` for quicker runs.
fn partitions() -> usize {
    std::env::var("ALPERF_PARTITIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50)
}

fn batch(
    x: &Matrix,
    y: &[f64],
    cost: &[f64],
    make: impl Fn() -> Box<dyn Strategy> + Sync,
) -> Vec<AlRun> {
    replicates(partitions(), |rep| {
        let gpr = GprConfig::new(Box::new(ArdSquaredExponential::unit(2)))
            .with_noise_floor(NoiseFloor::recommended())
            .with_restarts(2)
            .with_kernel_bounds(paper_kernel_bounds(2))
            .with_standardize(false)
            .with_seed(200 + rep as u64);
        let cfg = AlConfig {
            max_iters: usize::MAX, // run to pool exhaustion, like the paper
            // Once the training set passes 30 rows the refit trigger
            // tests the hyperparameters every 4th iteration (the model is
            // re-conditioned on new data every iteration regardless).
            refit_every: 4,
            seed: rep as u64,
            ..AlConfig::new(gpr)
        };
        let part = Partition::paper_default(x.nrows(), 2000 + rep as u64);
        let mut strategy = make();
        run_al(x, y, cost, &part, strategy.as_mut(), &cfg).expect("AL run")
    })
}

fn main() {
    let _obs = alperf_bench::obs_from_env();
    let FocusSlice { x, y, runtime, .. } = focus_slice();
    // The paper's cost unit: compute seconds x cores (NP = 32 here).
    let cost: Vec<f64> = runtime.iter().map(|r| r * 32.0).collect();
    banner(&format!(
        "Fig. 8: {} partitions per strategy on {} jobs (pool exhaustion)",
        partitions(),
        x.nrows()
    ));

    println!("running Variance Reduction ...");
    let vr = batch(&x, &y, &cost, || Box::new(VarianceReduction));
    println!("running Cost Efficiency ...");
    let ce = batch(&x, &y, &cost, || Box::new(CostEfficiency));

    // Fig. 8(a): error and uncertainty reduction per iteration.
    let (_, vr_amsd, vr_rmse) = paper_metrics(&vr);
    let (_, ce_amsd, ce_rmse) = paper_metrics(&ce);
    let iters: Vec<f64> = (0..vr_rmse.len().min(ce_rmse.len()))
        .map(|i| i as f64)
        .collect();
    let k = iters.len();
    write_series(
        "fig8a_error_uncertainty",
        &[
            ("iter", &iters),
            ("rmse_var_red", &vr_rmse.mean[..k]),
            ("rmse_cost_eff", &ce_rmse.mean[..k]),
            ("amsd_var_red", &vr_amsd.mean[..k]),
            ("amsd_cost_eff", &ce_amsd.mean[..k]),
        ],
    );
    // Per-iteration convergence claim: CE converges more slowly.
    let at = |env: &alperf_al::metrics::Envelope, i: usize| env.mean[i.min(env.len() - 1)];
    println!(
        "\nRMSE at iteration 20: VR {:.3} vs CE {:.3} (paper: CE 'does not converge as quickly')",
        at(&vr_rmse, 20),
        at(&ce_rmse, 20)
    );

    // Fig. 8(b): cumulative cost growth + tradeoff curves.
    let cost_env_vr = alperf_al::metrics::envelope(&vr, |r| r.cumulative_cost);
    let cost_env_ce = alperf_al::metrics::envelope(&ce, |r| r.cumulative_cost);
    write_series(
        "fig8b_cumulative_cost",
        &[
            ("iter", &iters),
            ("cost_var_red", &cost_env_vr.mean[..k]),
            ("cost_cost_eff", &cost_env_ce.mean[..k]),
        ],
    );
    println!(
        "cumulative cost at iteration 20: VR {:.0} vs CE {:.0} core-s",
        at(&cost_env_vr, 20),
        at(&cost_env_ce, 20)
    );

    let cmp = tradeoff::compare(&vr, &ce, 60);
    write_series(
        "fig8b_tradeoff",
        &[
            ("cost", &cmp.cost),
            ("rmse_var_red", &cmp.baseline),
            ("rmse_cost_eff", &cmp.contender),
        ],
    );

    banner("headline numbers (paper Section V-B4)");
    match cmp.crossover {
        Some(c) => {
            println!("crossover cost C = {c:.0} core-seconds (paper: C = 1626)");
            println!(
                "max relative error reduction after C: {:.0}% (paper: up to 38%)",
                100.0 * cmp.max_relative_reduction
            );
            println!("reductions at cost multiples (paper: 25/21/16/13% at 2/3/5/10C):");
            for (mult, red) in cmp.reduction_table() {
                match red {
                    Some(r) => println!("  at {mult:>2}C: {:>5.1}%", 100.0 * r),
                    None => println!("  at {mult:>2}C: (undefined)"),
                }
            }
        }
        None => println!("no stable crossover found — inspect fig8b_tradeoff.csv"),
    }
    println!(
        "\nfinal RMSE with all experiments: VR {:.4}, CE {:.4} (curves meet at the maximum cost)",
        vr_rmse.mean.last().expect("non-empty"),
        ce_rmse.mean.last().expect("non-empty")
    );

    // In-terminal sketch of the cost-error tradeoff (both axes log10) —
    // the paper's Fig. 8(b).
    let lc = alperf_bench::plot::log10_series(&cmp.cost);
    let lb = alperf_bench::plot::log10_series(&cmp.baseline);
    let lk = alperf_bench::plot::log10_series(&cmp.contender);
    println!("\nlog10(RMSE) vs log10(cumulative cost):");
    print!(
        "{}",
        alperf_bench::plot::ascii_chart(
            &[
                ("Variance Reduction", &lc, &lb),
                ("Cost Efficiency", &lc, &lk),
            ],
            64,
            16,
        )
    );
}
