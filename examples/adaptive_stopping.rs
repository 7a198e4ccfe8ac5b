//! Adaptive stopping + continuous acquisition — the paper's §V-B4 stopping
//! rule and §VI future-work pieces working together, online.
//!
//! An online AL loop measures the performance model directly (noisy
//! oracle), uses the **dynamic noise floor** `sigma_n >= 1/sqrt(N)`, stops
//! when AMSD converges, and then asks the **continuous acquisition
//! optimizer** where the next experiment *would* go if the budget were
//! extended — showing how the pieces compose into a practical stopping
//! decision.
//!
//! ```sh
//! cargo run --release --example adaptive_stopping
//! ```

use alperf::al::continuous::{ContinuousAcquisition, Criterion};
use alperf::al::convergence::ConvergenceDetector;
use alperf::al::strategy::VarianceReduction;
use alperf::framework::analysis::paper_kernel_bounds;
use alperf::framework::online::OnlineAl;
use alperf::gp::kernel::ArdSquaredExponential;
use alperf::gp::noise::NoiseFloor;
use alperf::gp::optimize::{fit_gpr, GprConfig};
use alperf::hpgmg::model::PerfModel;
use alperf::hpgmg::operator::OperatorKind;
use alperf::linalg::matrix::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // Candidate pool: (log10 size, log2 np) over the Table I box.
    let sizes: Vec<f64> = (0..9).map(|i| 3.23 + i as f64 * 0.725).collect();
    let nps = [1.0f64, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
    let mut rows = Vec::new();
    for &s in &sizes {
        for &np in &nps {
            rows.push(vec![s, np.log2()]);
        }
    }
    let flat: Vec<f64> = rows.iter().flatten().copied().collect();
    let candidates = Matrix::from_vec(rows.len(), 2, flat).expect("candidates");

    // Noisy oracle backed by the calibrated performance model.
    let model = PerfModel::calibrated();
    let mut rng = StdRng::seed_from_u64(17);
    let mut oracle = move |x: &[f64]| -> (f64, f64) {
        let size = 10f64.powf(x[0]);
        let np = 2f64.powf(x[1]).round() as usize;
        let t = model.sample_runtime(OperatorKind::Poisson1, size, np, 1.8, &mut rng);
        (t.log10(), t * np as f64)
    };

    let gpr = GprConfig::new(Box::new(ArdSquaredExponential::unit(2)))
        .with_noise_floor(NoiseFloor::DynamicInvSqrtN) // the paper's §V-B4 proposal
        .with_kernel_bounds(paper_kernel_bounds(2))
        .with_restarts(2)
        .with_standardize(false);
    let driver = OnlineAl::new(candidates, gpr.clone());

    println!("== online AL with dynamic noise floor sigma_n >= 1/sqrt(N) ==");
    let records = driver
        .run(&mut oracle, &mut VarianceReduction, 0, 60)
        .expect("online AL");

    // Stopping rule: AMSD convergence.
    let amsd: Vec<f64> = records.iter().skip(1).map(|r| r.amsd).collect();
    let detector = ConvergenceDetector {
        window: 6,
        rel_tolerance: 0.08,
    };
    let stop = detector.converged_at(&amsd);
    match stop {
        Some(i) => println!(
            "AMSD converged after {} measurements (AMSD = {:.4}); further experiments are 'excessive' (paper §V-B4)",
            i + 2,
            amsd[i]
        ),
        None => println!("AMSD did not converge in {} measurements", records.len()),
    }
    let spent = records.last().expect("non-empty").cumulative_cost;
    let spent_at_stop = stop
        .map(|i| records[i + 1].cumulative_cost)
        .unwrap_or(spent);
    println!("cost actually spent: {spent:.0} core-s; cost at the stopping point: {spent_at_stop:.0} core-s");

    // Where would the *continuous* optimizer run next? Refit on everything
    // measured, then maximize sigma over the continuous box.
    let mut xt = Matrix::zeros(0, 0);
    let mut yt = Vec::new();
    for r in &records {
        xt = xt.with_row(&r.x).expect("rows");
        yt.push(r.y);
    }
    let (gp, _) = fit_gpr(&xt, &yt, &gpr).expect("refit");
    let acq = ContinuousAcquisition::new(vec![(3.23, 9.04), (0.0, 6.0)]);
    let (x_next, sigma_next) = acq.maximize(&gp, Criterion::Sigma).expect("maximize");
    println!(
        "\ncontinuous acquisition (paper §VI): next experiment at size=10^{:.2}, NP=2^{:.1} (sigma = {:.4})",
        x_next[0], x_next[1], sigma_next
    );
    println!("— a point between the pool's factor levels, unreachable for the finite Active set.");
}
