//! Reproduction of **Table I** — "The Parameters of the Analyzed Datasets".
//!
//! Generates (or loads) the simulated campaign and prints the same rows the
//! paper reports: job counts, responses with their observed ranges, and the
//! controlled variables with their levels.

use alperf_bench::{banner, load_datasets};
use alperf_data::summary::summarize;

fn main() {
    let _obs = alperf_bench::obs_from_env();
    let data = load_datasets();
    banner("Table I: The Parameters of the Analyzed Datasets");

    let perf = summarize(&data.performance);
    let power = summarize(&data.power);

    println!(
        "{:<28} {:<28} {:<28}",
        "", "Dataset: Performance", "Dataset: Power"
    );
    println!("{:<28} {:<28} {:<28}", "# Jobs", perf.n_jobs, power.n_jobs);
    let range = |s: &alperf_data::summary::DataSetSummary, name: &str| -> String {
        s.responses
            .iter()
            .find(|r| r.name == name)
            .map(|r| format!("{:.3} - {:.3}", r.min, r.max))
            .unwrap_or_else(|| "-".into())
    };
    println!(
        "{:<28} {:<28} {:<28}",
        "Responses", "Runtime (S)", "Runtime (S), Energy (J)"
    );
    println!(
        "{:<28} {:<28} {:<28}",
        "Runtime, S",
        range(&perf, "Runtime"),
        range(&power, "Runtime")
    );
    let energy = power
        .responses
        .iter()
        .find(|r| r.name == "Energy")
        .map(|r| format!("{:.3e} - {:.3e}", r.min, r.max))
        .unwrap_or_else(|| "-".into());
    println!("{:<28} {:<28} {:<28}", "Energy, J", "-", energy);
    let memory = perf
        .responses
        .iter()
        .find(|r| r.name == "Memory")
        .map(|r| format!("{:.3e} - {:.3e}", r.min, r.max))
        .unwrap_or_else(|| "-".into());
    println!(
        "{:<28} {:<28} {:<28}",
        "Memory/node, B (extension)", memory, "-"
    );
    println!();
    for v in &perf.variables {
        match &v.levels {
            Some(levels) => println!("Variable {}: {}", v.name, levels.join(",")),
            None => println!(
                "Variable {}: {:.3e} - {:.3e} ({} levels)",
                v.name, v.min, v.max, v.n_distinct
            ),
        }
    }
    println!(
        "Max repeats per setting: {} (paper: up to 3)",
        perf.max_repeats
    );

    banner("paper reference values");
    println!("# Jobs:            3246 (Performance), 640 (Power)");
    println!("Runtime, S:        0.005 - 458.436");
    println!("Energy, J:         6.4e3 - 1.1e5");
    println!("Operator:          poisson1,poisson2,poisson2affine");
    println!("Global Prob. Size: 1.7e3 - 1.1e9");
    println!("NP:                1,2,4,8,16,24,32,48,64,96,128");
    println!("CPU Freq (GHz):    1.2,1.5,1.8,2.1,2.4");
}
