//! Ablation **X5** — the full strategy zoo on equal footing.
//!
//! Runs every implemented acquisition strategy — the paper's two, the EMCM
//! baseline it critiques, the advanced extensions (ALC, Thompson), random
//! sampling, and the classical *static* designs of Jain's textbook
//! (Section II-B: "fixed experiment designs ... do not change as
//! measurements become available") — on the same partitions of the focus
//! slice, and reports test RMSE at a common experiment budget.

use alperf_al::advanced::{IntegratedVarianceReduction, ThompsonSampling};
use alperf_al::baselines::{evaluate_static, StaticDesign};
use alperf_al::emcm::Emcm;
use alperf_al::runner::{run_al, AlConfig};
use alperf_al::strategy::{CostEfficiency, RandomSampling, Strategy, VarianceReduction};
use alperf_bench::{banner, load_datasets, write_series};
use alperf_core::analysis::paper_kernel_bounds;
use alperf_data::partition::Partition;
use alperf_gp::kernel::{ArdSquaredExponential, SquaredExponential};
use alperf_gp::noise::NoiseFloor;
use alperf_gp::optimize::GprConfig;
use alperf_linalg::matrix::Matrix;

const REPETITIONS: usize = 5;
const BUDGET: usize = 30; // experiments per run

fn problem() -> (Matrix, Vec<f64>, Vec<f64>) {
    let data = load_datasets();
    let sub = data
        .performance
        .fix_level("Operator", "poisson1")
        .expect("operator")
        .fix_variable("NP", 32.0)
        .expect("NP");
    let sizes = &sub.variable("Global Problem Size").expect("size").values;
    let freqs = &sub.variable("CPU Frequency").expect("freq").values;
    let y: Vec<f64> = sub
        .response("Runtime")
        .expect("runtime")
        .iter()
        .map(|v| v.log10())
        .collect();
    let n = sub.n_rows();
    let mut flat = Vec::with_capacity(2 * n);
    for i in 0..n {
        flat.push(sizes[i].log10());
        flat.push(freqs[i]);
    }
    (
        Matrix::from_vec(n, 2, flat).expect("matrix"),
        y,
        vec![1.0; n],
    )
}

fn gpr(seed: u64) -> GprConfig {
    GprConfig::new(Box::new(ArdSquaredExponential::unit(2)))
        .with_noise_floor(NoiseFloor::recommended())
        .with_kernel_bounds(paper_kernel_bounds(2))
        .with_restarts(2)
        .with_standardize(false)
        .with_seed(seed)
}

fn main() {
    let _obs = alperf_bench::obs_from_env();
    let (x, y, cost) = problem();
    banner(&format!(
        "X5: strategy comparison at a budget of {BUDGET} experiments ({REPETITIONS} partitions)"
    ));

    type Maker = Box<dyn Fn() -> Box<dyn Strategy>>;
    let adaptive: Vec<(&str, Maker)> = vec![
        (
            "variance_reduction",
            Box::new(|| Box::new(VarianceReduction)),
        ),
        ("cost_efficiency", Box::new(|| Box::new(CostEfficiency))),
        (
            "alc_integrated",
            Box::new(|| Box::new(IntegratedVarianceReduction)),
        ),
        (
            "thompson",
            Box::new(|| Box::new(ThompsonSampling::default())),
        ),
        (
            "emcm",
            Box::new(|| Box::new(Emcm::new(4, Box::new(SquaredExponential::unit()), 0.1))),
        ),
        ("random", Box::new(|| Box::new(RandomSampling))),
    ];

    let mut names: Vec<String> = Vec::new();
    let mut rmses: Vec<f64> = Vec::new();
    for (name, make) in &adaptive {
        let mut total = 0.0;
        for rep in 0..REPETITIONS {
            let part = Partition::paper_default(x.nrows(), 7000 + rep as u64);
            let cfg = AlConfig {
                max_iters: BUDGET,
                seed: rep as u64,
                ..AlConfig::new(gpr(700 + rep as u64))
            };
            let mut s = make();
            let run = run_al(&x, &y, &cost, &part, s.as_mut(), &cfg).expect("AL run");
            total += run.history.last().expect("non-empty").rmse;
        }
        let mean = total / REPETITIONS as f64;
        println!("{name:<22} mean test RMSE: {mean:.4}");
        names.push(name.to_string());
        rmses.push(mean);
    }

    // Static designs at the same budget (pool + test from the same splits).
    for design in [
        StaticDesign::Random,
        StaticDesign::Stratified,
        StaticDesign::Corners,
    ] {
        let mut total = 0.0;
        for rep in 0..REPETITIONS {
            let part = Partition::paper_default(x.nrows(), 7000 + rep as u64);
            let res = evaluate_static(
                design,
                &x,
                &y,
                &cost,
                &part.active,
                &part.test,
                BUDGET + 1, // adaptive runs see initial + BUDGET points
                &gpr(800 + rep as u64),
                rep as u64,
            )
            .expect("static design");
            total += res.rmse;
        }
        let mean = total / REPETITIONS as f64;
        let name = format!("static_{design:?}").to_lowercase();
        println!("{name:<22} mean test RMSE: {mean:.4}");
        names.push(name);
        rmses.push(mean);
    }

    let name_refs: Vec<f64> = (0..rmses.len()).map(|i| i as f64).collect();
    write_series(
        "ablation_strategies",
        &[("strategy_index", &name_refs), ("mean_rmse", &rmses)],
    );
    println!("\nstrategy order: {names:?}");
    println!("\nreading: coverage-oriented adaptive strategies (VR, ALC, EMCM) and well-chosen static designs are all competitive at this generous budget on a smooth 2-D slice — the paper's case for adaptivity lives elsewhere: tiny budgets (X2: EMCM/random are 2-4x worse than VR in the first iterations), unknown noise structure, and the *cost* dimension (Fig. 8), none of which a fixed design can react to. Cost Efficiency ranks poorly here by construction (equal per-experiment cost removes its advantage); Thompson optimizes for extremes, not coverage.");
}
