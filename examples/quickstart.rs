//! Quickstart: generate a performance dataset, carve out the paper's focus
//! slice, and run both AL strategies on it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use alperf::al::strategy::{CostEfficiency, VarianceReduction};
use alperf::cluster::campaign::{Campaign, COL_FREQ, COL_SIZE};
use alperf::cluster::workload::WorkloadSpec;
use alperf::data::partition::Partition;
use alperf::framework::analysis::{AnalysisConfig, PerformanceAnalysis};
use alperf::gp::noise::NoiseFloor;

fn main() {
    // 1. Collect a (simulated) measurement campaign — the stand-in for the
    //    paper's 3246-job CloudLab dataset. A reduced design keeps the
    //    example snappy.
    println!("== collecting measurements on the simulated cluster ==");
    let campaign = Campaign {
        spec: WorkloadSpec {
            focus_size_levels: 12,
            default_size_levels: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    let out = campaign.run().expect("campaign");
    println!(
        "performance dataset: {} jobs | power dataset: {} jobs | makespan {:.0} s",
        out.performance.n_rows(),
        out.power.n_rows(),
        out.makespan
    );

    // 2. The paper's evaluation slice: Operator = poisson1, NP = 32;
    //    model log10(Runtime) against log10(Global Problem Size) and
    //    CPU Frequency.
    let slice = out.focus_slice().expect("focus slice").data;
    println!(
        "\n== AL on the (poisson1, NP=32) slice: {} jobs ==",
        slice.n_rows()
    );

    let config = AnalysisConfig {
        variables: vec![COL_SIZE.into(), COL_FREQ.into()],
        log_variables: vec![COL_SIZE.into()],
        response: "Runtime".into(),
        log_response: true,
        np_column: None, // focus_slice() drops NP; cost = runtime in seconds
        runtime_column: "Runtime".into(),
        noise_floor: NoiseFloor::recommended(),
        restarts: 3,
        max_iters: 40,
        hyper_refit_every: 1,
        seed: 1,
    };
    let analysis = PerformanceAnalysis::new(slice.clone(), config);
    let n = slice.n_rows();
    let partition = Partition::paper_default(n, 7);

    for (label, run) in [
        (
            "Variance Reduction",
            analysis
                .run(&partition, &mut VarianceReduction)
                .expect("AL run"),
        ),
        (
            "Cost Efficiency   ",
            analysis
                .run(&partition, &mut CostEfficiency)
                .expect("AL run"),
        ),
    ] {
        let first = &run.history[0];
        let last = run.history.last().expect("non-empty run");
        println!(
            "{label}: RMSE {:.3} -> {:.3} (log10 s) | cost {:.0} -> {:.0} s over {} iters",
            first.rmse,
            last.rmse,
            first.cumulative_cost,
            last.cumulative_cost,
            run.history.len()
        );
    }
    println!("\nDone. See examples/cost_aware_study.rs for the full Fig. 8 comparison.");
}
