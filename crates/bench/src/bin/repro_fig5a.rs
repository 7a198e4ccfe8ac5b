//! Reproduction of **Fig. 5(a)** — GPR surfaces over two controlled
//! variables from a small training set.
//!
//! Four randomly selected training points over (log10 Problem Size, CPU
//! Frequency); the GPR (hyperparameters fit by LML maximization) yields
//! three surfaces: the lower 95% bound, the predictive mean, and the upper
//! 95% bound. The paper's observations, checked numerically:
//!
//! * near the training points the band is tight;
//! * "further away from the training points, e.g., where both Frequency
//!   and Problem Size are near their maximum values, the confidence
//!   interval bounds are further apart" — AL would sample there next.

use alperf_bench::{banner, focus_slice, write_series};
use alperf_gp::kernel::ArdSquaredExponential;
use alperf_gp::noise::NoiseFloor;
use alperf_gp::optimize::{fit_gpr, GprConfig};
use alperf_linalg::vector::linspace;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    let _obs = alperf_bench::obs_from_env();
    let slice = focus_slice();
    banner("Fig. 5(a): GPR surfaces from 4 training points over (size, freq)");

    let mut rng = StdRng::seed_from_u64(55);
    let mut idx: Vec<usize> = (0..slice.x.nrows()).collect();
    idx.shuffle(&mut rng);
    idx.truncate(4);
    let xm = slice.x.select_rows(&idx);
    let y: Vec<f64> = idx.iter().map(|&i| slice.y[i]).collect();
    println!("training points (log10 size, freq, log10 runtime):");
    for (i, yi) in y.iter().enumerate() {
        println!("  ({:.2}, {:.1}) -> {:.3}", xm[(i, 0)], xm[(i, 1)], yi);
    }

    // Length scales are bounded to ~2.5 decades of size / 2.5 GHz so the
    // shallow 4-point LML cannot flatten the surface into a plane — the
    // paper's Fig. 5(a) surfaces are visibly curved, implying comparable
    // bounds in its scikit-learn kernel.
    let cfg = GprConfig::new(Box::new(ArdSquaredExponential::unit(2)))
        .with_noise_floor(NoiseFloor::recommended())
        .with_kernel_bounds(vec![
            (0.05f64.ln(), 2.5f64.ln()),
            (0.05f64.ln(), 2.5f64.ln()),
            (1e-5f64.ln(), 1e5f64.ln()),
        ])
        .with_restarts(5)
        .with_seed(1);
    let (gpr, out) = fit_gpr(&xm, &y, &cfg).expect("GPR fit");
    println!("fitted theta = {:?} (LML {:.2})", out.theta, out.lml);

    // Surface grids.
    let gs = linspace(3.0, 9.05, 30); // log10 size over the Table I range
    let gf = linspace(1.2, 2.4, 25);
    let mut cs = Vec::new();
    let mut cf = Vec::new();
    let mut lo = Vec::new();
    let mut mean = Vec::new();
    let mut hi = Vec::new();
    for &s in &gs {
        for &f in &gf {
            let p = gpr.predict_one(&[s, f]).expect("prediction");
            let (a, b) = p.ci95();
            cs.push(s);
            cf.push(f);
            lo.push(a);
            mean.push(p.mean);
            hi.push(b);
        }
    }
    write_series(
        "fig5a_surfaces",
        &[
            ("log10_size", &cs),
            ("freq", &cf),
            ("ci_low", &lo),
            ("mean", &mean),
            ("ci_high", &hi),
        ],
    );

    // Checks: CI width at training points vs at the (max size, max freq) corner.
    let at_train: Vec<f64> = (0..4)
        .map(|i| {
            let p = gpr.predict_one(xm.row(i)).expect("prediction");
            let (a, b) = p.ci95();
            b - a
        })
        .collect();
    let corner = {
        let p = gpr.predict_one(&[9.04, 2.4]).expect("prediction");
        let (a, b) = p.ci95();
        b - a
    };
    let mean_train = at_train.iter().sum::<f64>() / 4.0;
    println!("\nmean 95% CI width at the training points: {mean_train:.3}");
    println!("95% CI width at the far corner (max size, max freq): {corner:.3}");
    println!(
        "ratio {:.1}x  (paper: 'the confidence interval bounds are further apart' far from data — 'these are the areas where AL should select candidates')",
        corner / mean_train
    );
    assert!(corner > mean_train, "far corner must be more uncertain");
}
