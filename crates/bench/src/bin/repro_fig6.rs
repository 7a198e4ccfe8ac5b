//! Reproduction of **Fig. 6** — Active Learning trajectories with Variance
//! Reduction over the (size, frequency) plane, for 10 and 100 iterations.
//!
//! Setup (paper §V-B3): the Performance subset with NP = 32 and
//! Operator = poisson1 (251 jobs in the paper; same scale here), randomly
//! split Initial/Active/Test. The paper's observation to verify: "In a
//! star-like pattern, AL chooses experiments at the edges and, only after
//! exhausting all edge points, progresses toward the middle" — the
//! exploration a human experimenter would do.

use alperf_al::runner::{run_al, AlConfig};
use alperf_al::strategy::VarianceReduction;
use alperf_bench::{banner, focus_slice, write_series, FocusSlice};
use alperf_core::analysis::paper_kernel_bounds;
use alperf_data::partition::Partition;
use alperf_gp::kernel::ArdSquaredExponential;
use alperf_gp::noise::NoiseFloor;
use alperf_gp::optimize::GprConfig;

fn main() {
    let _obs = alperf_bench::obs_from_env();
    let FocusSlice { x, y, .. } = focus_slice();
    banner("Fig. 6: AL (Variance Reduction) trajectories over (size, freq)");
    let n = x.nrows();
    println!("subset: {n} jobs (paper: 251)");
    let (sizes, freqs) = (x.col(0), x.col(1));
    let cost = vec![1.0; n];

    let partition = Partition::paper_default(n, 17);
    let gpr = GprConfig::new(Box::new(ArdSquaredExponential::unit(2)))
        .with_noise_floor(NoiseFloor::recommended())
        .with_restarts(3)
        .with_kernel_bounds(paper_kernel_bounds(2))
        .with_standardize(false)
        .with_seed(6);
    let cfg = AlConfig {
        max_iters: 100,
        seed: 6,
        ..AlConfig::new(gpr)
    };
    let run = run_al(&x, &y, &cost, &partition, &mut VarianceReduction, &cfg).expect("AL run");

    // Emit the visited sequence (the arrows of Fig. 6).
    let xs: Vec<f64> = run.history.iter().map(|r| r.x[0]).collect();
    let fs: Vec<f64> = run.history.iter().map(|r| r.x[1]).collect();
    let it: Vec<f64> = run.history.iter().map(|r| r.iter as f64).collect();
    write_series(
        "fig6_trajectory",
        &[("iter", &it), ("log10_size", &xs), ("freq", &fs)],
    );

    // Edge-first check: what fraction of the first 10 selections lie on the
    // boundary of the (size, freq) domain, vs. the fraction of boundary
    // points in the whole pool?
    let s_lo = sizes.iter().cloned().fold(f64::INFINITY, f64::min);
    let s_hi = sizes.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let f_lo = freqs.iter().cloned().fold(f64::INFINITY, f64::min);
    let f_hi = freqs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let is_edge = |s: f64, f: f64| {
        let st = (s_hi - s_lo) * 0.12;
        s < s_lo + st || s > s_hi - st || f <= f_lo + 1e-9 || f >= f_hi - 1e-9
    };
    let early_edges = run
        .history
        .iter()
        .take(10)
        .filter(|r| is_edge(r.x[0], r.x[1]))
        .count();
    let pool_edges = (0..n).filter(|&i| is_edge(sizes[i], freqs[i])).count();
    println!("\nfirst 10 selections on the domain edge: {early_edges}/10");
    println!(
        "edge fraction of the whole pool: {:.0}%",
        100.0 * pool_edges as f64 / n as f64
    );
    println!("(paper: 'In a star-like pattern, AL chooses experiments at the edges and, only after exhausting all edge points, progresses toward the middle')");

    // Middle-reaching check at 100 iterations.
    let mid = run
        .history
        .iter()
        .filter(|r| !is_edge(r.x[0], r.x[1]))
        .count();
    println!(
        "interior points among all {} selections: {mid}",
        run.history.len()
    );

    println!("\nfirst 10 selections (log10 size, freq):");
    for r in run.history.iter().take(10) {
        println!("  iter {:>2}: ({:.2}, {:.1})", r.iter, r.x[0], r.x[1]);
    }
}
