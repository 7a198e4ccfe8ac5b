//! Reproduction of **Fig. 3** — 1-D GPR cross-sections of the Performance
//! dataset.
//!
//! Setup (paper §V-B1): fix NP = 32, Freq = 2.4, Operator = poisson1 and
//! model log10(Runtime) as a function of log10(Global Problem Size).
//!
//! * Fig. 3(a): GPR through *all* selected measurements, under four
//!   hyperparameter settings (two length scales x two amplitudes). The
//!   predictive means nearly coincide; the 95% confidence bands widen
//!   dramatically as the length scale shrinks.
//! * Fig. 3(b): the same but trained on a random 4-point subset — the
//!   uncertainty explodes at the domain edge where no measurement exists,
//!   and even the means disagree.

use alperf_bench::{banner, focus_slice, write_series};
use alperf_gp::kernel::SquaredExponential;
use alperf_gp::model::Gpr;
use alperf_linalg::matrix::Matrix;
use alperf_linalg::vector::linspace;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The paper's four illustrative hyperparameter settings (l, sigma_f).
const SETTINGS: [(f64, f64); 4] = [(0.5, 1.0), (2.0, 1.0), (0.5, 2.0), (2.0, 2.0)];

fn emit_gprs(x: &[f64], y: &[f64], tag: &str) {
    let grid = linspace(
        x.iter().cloned().fold(f64::INFINITY, f64::min) - 0.3,
        x.iter().cloned().fold(f64::NEG_INFINITY, f64::max) + 0.3,
        120,
    );
    let xm = Matrix::from_vec(x.len(), 1, x.to_vec()).expect("design matrix");
    let mut columns: Vec<(String, Vec<f64>)> = vec![("log10_size".into(), grid.clone())];
    println!("\nFig. 3{tag}: {} training points", x.len());
    println!(
        "{:<22} {:>12} {:>14}",
        "(l, sigma_f)", "mean CI width", "max CI width"
    );
    for &(l, sf) in &SETTINGS {
        let gpr = Gpr::fit(
            xm.clone(),
            y,
            Box::new(SquaredExponential::new(l, sf)),
            0.1,
            true,
        )
        .expect("GPR fit");
        let mut mean = Vec::new();
        let mut lo = Vec::new();
        let mut hi = Vec::new();
        for &g in &grid {
            let p = gpr.predict_one(&[g]).expect("prediction");
            let (a, b) = p.ci95();
            mean.push(p.mean);
            lo.push(a);
            hi.push(b);
        }
        let widths: Vec<f64> = lo.iter().zip(&hi).map(|(a, b)| b - a).collect();
        println!(
            "l={l:<4} sigma_f={sf:<6} {:>12.4} {:>14.4}",
            widths.iter().sum::<f64>() / widths.len() as f64,
            widths.iter().cloned().fold(0.0f64, f64::max),
        );
        columns.push((format!("mean_l{l}_sf{sf}"), mean));
        columns.push((format!("lo_l{l}_sf{sf}"), lo));
        columns.push((format!("hi_l{l}_sf{sf}"), hi));
    }
    let refs: Vec<(&str, &[f64])> = columns
        .iter()
        .map(|(h, c)| (h.as_str(), c.as_slice()))
        .collect();
    write_series(&format!("fig3{tag}"), &refs);
}

fn main() {
    let _obs = alperf_bench::obs_from_env();
    banner("Fig. 3: predictive distributions for a 1-D cross-section");
    let (x, y) = focus_slice().cross_section();

    // (a) all measurements.
    emit_gprs(&x, &y, "a");
    println!("(paper: means nearly coincide; smaller l inflates the CI between points)");

    // (b) random 4-point subset.
    let mut rng = StdRng::seed_from_u64(4);
    let mut idx: Vec<usize> = (0..x.len()).collect();
    idx.shuffle(&mut rng);
    idx.truncate(4);
    let xs: Vec<f64> = idx.iter().map(|&i| x[i]).collect();
    let ys: Vec<f64> = idx.iter().map(|&i| y[i]).collect();
    emit_gprs(&xs, &ys, "b");
    println!("(paper: with 4 points the distribution is 'clamped' at the data and balloons at the domain edge; means with different hyperparameters now disagree)");
}
