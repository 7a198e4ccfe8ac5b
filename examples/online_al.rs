//! Online Active Learning against the *real* multigrid solver.
//!
//! This is the paper's "target use case": no pre-collected database — every
//! AL iteration selects a configuration, actually runs HPGMG-FE (our
//! full-multigrid Poisson solver), measures wall-clock runtime, and updates
//! the GPR model. The controlled variables are grid refinement (problem
//! size) and thread count.
//!
//! ```sh
//! cargo run --release --example online_al
//! ```

use alperf::al::strategy::VarianceReduction;
use alperf::framework::analysis::paper_kernel_bounds;
use alperf::framework::online::OnlineAl;
use alperf::gp::kernel::ArdSquaredExponential;
use alperf::gp::noise::NoiseFloor;
use alperf::gp::optimize::GprConfig;
use alperf::hpgmg::operator::OperatorKind;
use alperf::hpgmg::solver::FmgSolver;
use alperf::linalg::matrix::Matrix;

fn main() {
    // Candidate settings: (log2 refinement, threads). Refinements 16..64
    // keep single-solve times comfortable for a demo. The thread factor
    // changes the solve only at refinement 64: the slab sweeps fan out from
    // 32³ interior points, and refinement 32 has 31³ = 29,791.
    let refinements = [16usize, 32, 64];
    let threads = [1usize, 2, 4];
    let mut rows = Vec::new();
    for &n in &refinements {
        for &t in &threads {
            rows.push(vec![(n as f64).log2(), t as f64]);
        }
    }
    let flat: Vec<f64> = rows.iter().flatten().copied().collect();
    let candidates = Matrix::from_vec(rows.len(), 2, flat).expect("candidate matrix");

    // The oracle: run the solver, return log10(seconds) and the raw cost
    // (seconds x threads), mirroring the paper's cost unit.
    let mut oracle = |x: &[f64]| -> (f64, f64) {
        let n = (2f64.powf(x[0])).round() as usize;
        let t = x[1] as usize;
        let stats = FmgSolver {
            threads: t,
            ..FmgSolver::new(OperatorKind::Poisson1, n)
        }
        .run();
        println!(
            "  measured n={n:<3} threads={t}: {:.4} s (residual {:.1e})",
            stats.seconds, stats.final_residual
        );
        (stats.seconds.log10(), stats.seconds * t as f64)
    };

    // Raw responses and the paper's kernel boxes: on one or two live
    // measurements a standardized fit collapses its uncertainty (Fig. 7).
    let gpr = GprConfig::new(Box::new(ArdSquaredExponential::unit(2)))
        .with_noise_floor(NoiseFloor::Fixed(0.05))
        .with_kernel_bounds(paper_kernel_bounds(2))
        .with_restarts(3)
        .with_standardize(false);
    let driver = OnlineAl::new(candidates, gpr);

    println!("== online AL: 12 live multigrid measurements ==");
    let records = driver
        .run(&mut oracle, &mut VarianceReduction, 0, 12)
        .expect("online AL");

    println!("\niter  candidate  sigma_before  AMSD     cum.cost");
    for r in &records {
        println!(
            "{:>4}  {:>9}  {:>12.4}  {:>7.4}  {:>8.2}",
            r.iter, r.candidate, r.sigma_before, r.amsd, r.cumulative_cost
        );
    }
    let visits: std::collections::BTreeMap<usize, usize> =
        records.iter().fold(Default::default(), |mut m, r| {
            *m.entry(r.candidate).or_default() += 1;
            m
        });
    println!("\nvisits per candidate: {visits:?}");
    println!("(noisy settings are revisited — the Section III requirement)");
}
