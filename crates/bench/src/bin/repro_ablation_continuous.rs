//! Ablation **X6** — continuous acquisition optimization (paper §VI future
//! work: "preferably, by using continuous optimization").
//!
//! Compares, on the same fitted GPR over (log10 size, frequency):
//!
//! * the finite-pool argmax of the predictive SD (what the paper's
//!   prototype does — "choosing the best option within a finite subset");
//! * the continuous box-constrained maximizer ([`ContinuousAcquisition`]);
//! * a fine-grid reference (ground truth up to grid resolution).
//!
//! The continuous optimizer should match the fine grid and beat the coarse
//! pool whenever the true acquisition peak falls between pool levels.

use alperf_al::continuous::{ContinuousAcquisition, Criterion};
use alperf_bench::{banner, load_datasets, write_series};
use alperf_core::analysis::paper_kernel_bounds;
use alperf_gp::kernel::ArdSquaredExponential;
use alperf_gp::noise::NoiseFloor;
use alperf_gp::optimize::{fit_gpr, GprConfig};
use alperf_linalg::matrix::Matrix;
use alperf_linalg::vector::linspace;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    let _obs = alperf_bench::obs_from_env();
    let data = load_datasets();
    banner("X6: continuous vs finite-pool acquisition optimization");
    let sub = data
        .performance
        .fix_level("Operator", "poisson1")
        .expect("operator")
        .fix_variable("NP", 32.0)
        .expect("NP");
    let sizes = &sub.variable("Global Problem Size").expect("size").values;
    let freqs = &sub.variable("CPU Frequency").expect("freq").values;
    let rts = sub.response("Runtime").expect("runtime");

    // Fit a GPR on 12 random jobs.
    let mut rng = StdRng::seed_from_u64(21);
    let mut idx: Vec<usize> = (0..sub.n_rows()).collect();
    idx.shuffle(&mut rng);
    idx.truncate(12);
    let mut flat = Vec::new();
    let mut y = Vec::new();
    for &i in &idx {
        flat.push(sizes[i].log10());
        flat.push(freqs[i]);
        y.push(rts[i].log10());
    }
    let xm = Matrix::from_vec(12, 2, flat).expect("matrix");
    let cfg = GprConfig::new(Box::new(ArdSquaredExponential::unit(2)))
        .with_noise_floor(NoiseFloor::recommended())
        .with_kernel_bounds(paper_kernel_bounds(2))
        .with_restarts(4)
        .with_standardize(false);
    let (gpr, _) = fit_gpr(&xm, &y, &cfg).expect("fit");

    let s_lo = 1.7e3f64.log10();
    let s_hi = 1.1e9f64.log10();
    let bounds = vec![(s_lo, s_hi), (1.2, 2.4)];

    for criterion in [Criterion::Sigma, Criterion::SigmaMinusMean] {
        banner(&format!("criterion: {criterion:?}"));
        // 1. Finite pool: the dataset's own factor levels.
        let mut pool_best = f64::NEG_INFINITY;
        let mut pool_x = vec![0.0; 2];
        for i in 0..sub.n_rows() {
            let x = [sizes[i].log10(), freqs[i]];
            let p = gpr.predict_one(&x).expect("predict");
            let s = criterion.score(p.mean, p.std);
            if s > pool_best {
                pool_best = s;
                pool_x = x.to_vec();
            }
        }
        // 2. Continuous optimizer.
        let acq = ContinuousAcquisition::new(bounds.clone());
        let (cont_x, cont_best) = acq.maximize(&gpr, criterion).expect("maximize");
        // 3. Fine-grid reference.
        let mut grid_best = f64::NEG_INFINITY;
        let mut grid_x = vec![0.0; 2];
        for &s in &linspace(s_lo, s_hi, 400) {
            for &f in &linspace(1.2, 2.4, 100) {
                let p = gpr.predict_one(&[s, f]).expect("predict");
                let v = criterion.score(p.mean, p.std);
                if v > grid_best {
                    grid_best = v;
                    grid_x = vec![s, f];
                }
            }
        }
        println!(
            "finite pool argmax:   {pool_best:.5} at ({:.2}, {:.2})",
            pool_x[0], pool_x[1]
        );
        println!(
            "continuous optimizer: {cont_best:.5} at ({:.2}, {:.2})",
            cont_x[0], cont_x[1]
        );
        println!(
            "fine-grid reference:  {grid_best:.5} at ({:.2}, {:.2})",
            grid_x[0], grid_x[1]
        );
        let gap_pool = (grid_best - pool_best) / grid_best.abs().max(1e-12);
        let gap_cont = (grid_best - cont_best) / grid_best.abs().max(1e-12);
        println!(
            "relative gap to reference: pool {:.2}%, continuous {:.3}%",
            100.0 * gap_pool,
            100.0 * gap_cont
        );
        assert!(
            cont_best >= pool_best - 1e-9,
            "continuous optimizer must match or beat the finite pool"
        );
        assert!(
            gap_cont.abs() < 0.01,
            "continuous optimizer should track the fine grid within 1%"
        );
        write_series(
            &format!("ablation_continuous_{criterion:?}").to_lowercase(),
            &[
                ("pool_best", &[pool_best][..]),
                ("continuous_best", &[cont_best][..]),
                ("grid_best", &[grid_best][..]),
            ],
        );
    }
    println!("\n(paper §VI: continuous optimization handles 'continuous or near-continuous parameters' the finite Active set cannot; the pattern-search maximizer recovers the true acquisition peak the pool's factor grid can only approximate)");
}
