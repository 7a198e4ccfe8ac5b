//! Reproduction of **Fig. 4** and **Fig. 5(b)** — log-marginal-likelihood
//! landscapes.
//!
//! * Fig. 4: LML as a function of (length scale `l`, noise `sigma_n`) for
//!   the data-rich 1-D cross-section of Fig. 3(a). The paper: the landscape
//!   "is a straightforward optimization problem with a unique global
//!   optimum" — peaked, findable by gradient ascent from a single start.
//! * Fig. 5(b): the same landscape for the 4-point 2-D dataset of
//!   Fig. 5(a) — "significantly more shallow".
//!
//! Peakedness is quantified as the LML drop from the grid maximum to the
//! grid's 90th-percentile value; the shallow landscape has a much smaller
//! drop over the same hyperparameter box.

use alperf_bench::{banner, focus_slice, write_series};
use alperf_gp::kernel::SquaredExponential;
use alperf_gp::lml::lml_value;
use alperf_linalg::matrix::Matrix;
use alperf_linalg::stats::Standardizer;
use alperf_linalg::vector::logspace;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Evaluate the LML over an (l, sigma_n) grid at fixed amplitude 1 on
/// standardized responses, exactly what scikit-learn's default kernel does.
fn lml_grid(x: &Matrix, y: &[f64], tag: &str) -> (f64, f64) {
    let std = Standardizer::fit(y);
    let ys = std.apply_vec(y);
    let ls = logspace(0.05, 20.0, 40);
    let sns = logspace(1e-3, 3.0, 40);
    let mut col_l = Vec::new();
    let mut col_sn = Vec::new();
    let mut col_lml = Vec::new();
    let mut best = f64::NEG_INFINITY;
    for &l in &ls {
        for &sn in &sns {
            let k = SquaredExponential::new(l, 1.0);
            let v = lml_value(&k, sn, x, &ys).unwrap_or(f64::NEG_INFINITY);
            if v.is_finite() {
                col_l.push(l);
                col_sn.push(sn);
                col_lml.push(v);
                best = best.max(v);
            }
        }
    }
    write_series(
        tag,
        &[("l", &col_l), ("sigma_n", &col_sn), ("lml", &col_lml)],
    );
    // Peakedness: drop from max to the 90th percentile of the landscape.
    let mut sorted = col_lml.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p90 = sorted[(sorted.len() as f64 * 0.9) as usize];
    (best, best - p90)
}

fn main() {
    let _obs = alperf_bench::obs_from_env();
    let slice = focus_slice();
    banner("Fig. 4: LML contour for the data-rich 1-D cross-section");
    let (x1, y1) = slice.cross_section();
    let xm1 = Matrix::from_vec(x1.len(), 1, x1).expect("matrix");
    let (best_rich, drop_rich) = lml_grid(&xm1, &y1, "fig4_lml_rich");
    println!(
        "n = {} points: max LML = {best_rich:.2}, peak-to-p90 drop = {drop_rich:.2}",
        y1.len()
    );

    banner("Fig. 5(b): LML contour for the 4-point 2-D dataset");
    let mut rng = StdRng::seed_from_u64(55);
    let mut idx: Vec<usize> = (0..slice.x.nrows()).collect();
    idx.shuffle(&mut rng);
    idx.truncate(4);
    let xm2 = slice.x.select_rows(&idx);
    let y2: Vec<f64> = idx.iter().map(|&i| slice.y[i]).collect();
    let (best_small, drop_small) = lml_grid(&xm2, &y2, "fig5b_lml_shallow");
    println!("n = 4 points: max LML = {best_small:.2}, peak-to-p90 drop = {drop_small:.2}");

    banner("comparison");
    println!(
        "peak-to-p90 drop: rich {drop_rich:.2} vs small {drop_small:.2} ({:.0}x shallower)",
        drop_rich / drop_small.max(1e-12)
    );
    println!("(paper: 'LML becomes more peaked with the growth of the dataset size'; the small-data landscape is 'significantly more shallow' yet its peak still yields a usable GPR)");
    assert!(
        drop_rich > drop_small,
        "expected the data-rich landscape to be more peaked"
    );
}
