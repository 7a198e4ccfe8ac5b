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
use alperf_bench::{banner, focus_slice, write_series, FocusSlice};
use alperf_core::analysis::paper_kernel_bounds;
use alperf_data::partition::Partition;
use alperf_gp::kernel::{ArdSquaredExponential, SquaredExponential};
use alperf_gp::noise::NoiseFloor;
use alperf_gp::optimize::GprConfig;
use alperf_linalg::threads::replicates;

const REPETITIONS: usize = 5;
const BUDGET: usize = 30; // experiments per run

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
    let FocusSlice { x, y, .. } = focus_slice();
    let cost = vec![1.0; x.nrows()];
    banner(&format!(
        "X5: strategy comparison at a budget of {BUDGET} experiments ({REPETITIONS} partitions)"
    ));

    // The adaptive strategies, then the static designs at the same budget
    // (pool + test from the same splits).
    enum Arm {
        Adaptive(&'static str, fn() -> Box<dyn Strategy>),
        Static(StaticDesign),
    }
    let arms = [
        Arm::Adaptive("variance_reduction", || Box::new(VarianceReduction)),
        Arm::Adaptive("cost_efficiency", || Box::new(CostEfficiency)),
        Arm::Adaptive("alc_integrated", || Box::new(IntegratedVarianceReduction)),
        Arm::Adaptive("thompson", || Box::new(ThompsonSampling::default())),
        Arm::Adaptive("emcm", || {
            Box::new(Emcm::new(4, Box::new(SquaredExponential::unit()), 0.1))
        }),
        Arm::Adaptive("random", || Box::new(RandomSampling)),
        Arm::Static(StaticDesign::Random),
        Arm::Static(StaticDesign::Stratified),
        Arm::Static(StaticDesign::Corners),
    ];
    // One unit per (partition, arm), partition-major: the final test RMSE.
    let k = arms.len();
    let rmse = replicates(REPETITIONS * k, |u| {
        let rep = u / k;
        let part = Partition::paper_default(x.nrows(), 7000 + rep as u64);
        match arms[u % k] {
            Arm::Adaptive(_, make) => {
                let cfg = AlConfig {
                    max_iters: BUDGET,
                    seed: rep as u64,
                    ..AlConfig::new(gpr(700 + rep as u64))
                };
                let run = run_al(&x, &y, &cost, &part, make().as_mut(), &cfg).expect("AL run");
                run.history.last().expect("non-empty").rmse
            }
            Arm::Static(design) => {
                evaluate_static(
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
                .expect("static design")
                .rmse
            }
        }
    });

    let mut names: Vec<String> = Vec::new();
    let mut rmses: Vec<f64> = Vec::new();
    for (a, arm) in arms.iter().enumerate() {
        let mut total = 0.0;
        for rep in 0..REPETITIONS {
            total += rmse[rep * k + a];
        }
        let mean = total / REPETITIONS as f64;
        let name = match arm {
            Arm::Adaptive(name, _) => name.to_string(),
            Arm::Static(design) => format!("static_{design:?}").to_lowercase(),
        };
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
