//! The paper's headline experiment in miniature: Variance Reduction vs
//! Cost Efficiency over many random partitions, with the cost–error
//! tradeoff curves, crossover cost C, and the relative error reductions at
//! C, 2C, 3C, 5C, 10C (Section V-B4, Fig. 8).
//!
//! ```sh
//! cargo run --release --example cost_aware_study
//! ```

use alperf::al::strategy::{CostEfficiency, Strategy, VarianceReduction};
use alperf::al::tradeoff;
use alperf::cluster::campaign::{Campaign, COL_FREQ, COL_SIZE};
use alperf::cluster::workload::WorkloadSpec;
use alperf::framework::analysis::{AnalysisConfig, PerformanceAnalysis};
use alperf::gp::noise::NoiseFloor;

fn main() {
    println!("== generating the Performance dataset ==");
    let campaign = Campaign {
        spec: WorkloadSpec {
            focus_size_levels: 10,
            default_size_levels: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    let out = campaign.run().expect("campaign");
    let slice = out.focus_slice().expect("focus slice").data;
    println!("focus slice: {} jobs", slice.n_rows());

    let config = AnalysisConfig {
        variables: vec![COL_SIZE.into(), COL_FREQ.into()],
        log_variables: vec![COL_SIZE.into()],
        response: "Runtime".into(),
        log_response: true,
        np_column: None,
        runtime_column: "Runtime".into(),
        noise_floor: NoiseFloor::recommended(),
        restarts: 2,
        // Run until the Active pool is exhausted, like the paper: the
        // tradeoff curves only meet at the maximum cost when every
        // available experiment has been consumed (Section V-B4).
        max_iters: 400,
        hyper_refit_every: 4,
        seed: 42,
    };
    let analysis = PerformanceAnalysis::new(slice, config);

    let partitions = 8; // the paper uses 50; fewer keeps the demo quick
    println!("== {partitions} AL realizations per strategy ==");
    let vr_runs = analysis
        .run_batch(partitions, || {
            Box::new(VarianceReduction) as Box<dyn Strategy>
        })
        .expect("VR batch");
    let ce_runs = analysis
        .run_batch(partitions, || Box::new(CostEfficiency) as Box<dyn Strategy>)
        .expect("CE batch");

    let cmp = tradeoff::compare(&vr_runs, &ce_runs, 40);
    println!("\ncost          RMSE(VarRed)  RMSE(CostEff)");
    for i in (0..cmp.cost.len()).step_by(4) {
        println!(
            "{:>12.1}  {:>12.4}  {:>13.4}",
            cmp.cost[i], cmp.baseline[i], cmp.contender[i]
        );
    }
    match cmp.crossover {
        Some(c) => {
            println!("\ncrossover cost C = {c:.1} seconds");
            println!(
                "max relative error reduction after C: {:.0}% (paper: up to 38%)",
                100.0 * cmp.max_relative_reduction
            );
            for (mult, red) in cmp.reduction_table() {
                match red {
                    Some(r) => println!("  at {mult:>2}C: {:>5.1}%", 100.0 * r),
                    None => println!("  at {mult:>2}C: (undefined)"),
                }
            }
        }
        None => println!("\nno stable crossover found on this run"),
    }
}
