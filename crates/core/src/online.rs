//! Online Active Learning: select -> run -> update, with a live oracle.
//!
//! "The target use case for practical applications is the 'online'
//! operation, where every iteration of AL includes selecting an experiment,
//! running it, and using the experiment outcome to update the underlying
//! GPR model" (Section V-A). Unlike the offline replay, the candidate pool
//! here is a fixed set of *settings* that can be measured repeatedly —
//! noisy experiments justify re-running a configuration whose predictive
//! variance stays high (Section III).

use alperf_al::strategy::{SelectionContext, Strategy};
use alperf_gp::model::GpError;
use alperf_gp::optimize::{fit_gpr, GprConfig};
use alperf_linalg::matrix::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One completed online iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineRecord {
    /// Iteration number.
    pub iter: usize,
    /// Candidate index selected.
    pub candidate: usize,
    /// Setting measured.
    pub x: Vec<f64>,
    /// Measured response.
    pub y: f64,
    /// Predictive SD at the candidate before measuring.
    pub sigma_before: f64,
    /// Mean predictive SD over all candidates (AMSD).
    pub amsd: f64,
    /// Cumulative cost so far.
    pub cumulative_cost: f64,
}

/// Online AL driver.
pub struct OnlineAl {
    /// Candidate settings (rows). All remain selectable forever.
    pub candidates: Matrix,
    /// GPR configuration used at every refit.
    pub gpr: GprConfig,
    /// RNG seed for strategy randomness.
    pub seed: u64,
}

impl OnlineAl {
    /// New driver over a candidate matrix.
    pub fn new(candidates: Matrix, gpr: GprConfig) -> Self {
        OnlineAl {
            candidates,
            gpr,
            seed: 0,
        }
    }

    /// Run `iters` iterations: the first measurement is taken at candidate
    /// `seed_candidate` (the paper's "run it once first to verify
    /// correctness" scenario), then the strategy drives. `oracle` runs the
    /// experiment at a setting and returns `(response, cost)`: the
    /// response on whatever scale the GPR models (the caller handles log
    /// transforms), the cost in the campaign's budget unit.
    ///
    /// Strategies see one design matrix whose first rows are the measured
    /// settings (the training rows, with their responses as `y_all`) and
    /// whose remaining rows are the candidates (the pool).
    ///
    /// # Errors
    /// Propagates GPR fitting failures.
    pub fn run(
        &self,
        oracle: &mut dyn FnMut(&[f64]) -> (f64, f64),
        strategy: &mut dyn Strategy,
        seed_candidate: usize,
        iters: usize,
    ) -> Result<Vec<OnlineRecord>, GpError> {
        let m = self.candidates.nrows();
        assert!(seed_candidate < m, "seed candidate out of range");
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Seed measurement.
        let x0 = self.candidates.row(seed_candidate).to_vec();
        let (y0, c0) = oracle(&x0);
        let mut measured = vec![seed_candidate];
        let mut y_train = vec![y0];
        let mut cumulative_cost = c0;
        let mut records = vec![OnlineRecord {
            iter: 0,
            candidate: seed_candidate,
            x: x0,
            y: y0,
            sigma_before: f64::NAN, // no model yet
            amsd: f64::NAN,
            cumulative_cost,
        }];
        // AL iterations.
        for iter in 1..iters {
            let k = measured.len();
            let x_all = Matrix::from_fn(k + m, self.candidates.ncols(), |i, j| {
                let setting = if i < k { measured[i] } else { i - k };
                self.candidates.row(setting)[j]
            });
            let rows: Vec<usize> = (0..k + m).collect();
            let (train, pool) = rows.split_at(k);
            let (model, _) = fit_gpr(&x_all.select_rows(train), &y_train, &self.gpr)?;
            let predictions = model.predict_batch(&self.candidates)?;
            let amsd = predictions.iter().map(|p| p.std).sum::<f64>() / m as f64;
            let ctx = SelectionContext {
                model: &model,
                x_all: &x_all,
                y_all: &y_train,
                train,
                pool,
                predictions: &predictions,
            };
            let Some(pos) = strategy.select(&ctx, &mut rng) else {
                break;
            };
            let x = self.candidates.row(pos).to_vec();
            let (y, c) = oracle(&x);
            cumulative_cost += c;
            records.push(OnlineRecord {
                iter,
                candidate: pos,
                x,
                y,
                sigma_before: predictions[pos].std,
                amsd,
                cumulative_cost,
            });
            measured.push(pos);
            y_train.push(y);
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alperf_al::emcm::Emcm;
    use alperf_al::strategy::VarianceReduction;
    use alperf_gp::kernel::SquaredExponential;
    use alperf_gp::noise::NoiseFloor;

    fn grid(n: usize) -> Matrix {
        Matrix::from_vec(
            n,
            1,
            (0..n).map(|i| i as f64 / (n - 1) as f64 * 6.0).collect(),
        )
        .unwrap()
    }

    fn gpr() -> GprConfig {
        GprConfig::new(Box::new(SquaredExponential::unit()))
            .with_noise_floor(NoiseFloor::Fixed(0.05))
            .with_restarts(2)
    }

    #[test]
    fn online_loop_measures_and_learns() {
        let driver = OnlineAl::new(grid(13), gpr());
        let mut calls = 0usize;
        let mut oracle = |x: &[f64]| {
            calls += 1;
            ((x[0]).cos() * 2.0, 1.0)
        };
        let recs = driver
            .run(&mut oracle, &mut VarianceReduction, 6, 12)
            .unwrap();
        assert_eq!(recs.len(), 12);
        assert_eq!(calls, 12);
        assert_eq!(recs[0].candidate, 6);
        // AMSD decreases over the run (compare early vs late, skipping the
        // model-free record 0 and small-sample wobble).
        let early = recs[2].amsd;
        let late = recs.last().unwrap().amsd;
        assert!(late < early, "amsd {early} -> {late}");
    }

    #[test]
    fn candidates_can_repeat() {
        // A pure-noise oracle keeps variance high everywhere; with a small
        // grid the strategy must eventually revisit settings.
        let driver = OnlineAl::new(grid(3), gpr());
        let mut state = 0u64;
        let mut oracle = move |_x: &[f64]| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (((state >> 33) as f64 / 2f64.powi(31)) - 1.0, 1.0)
        };
        let recs = driver
            .run(&mut oracle, &mut VarianceReduction, 0, 10)
            .unwrap();
        let distinct: std::collections::BTreeSet<usize> =
            recs.iter().map(|r| r.candidate).collect();
        assert!(distinct.len() <= 3);
        assert!(recs.len() == 10, "repeats must be allowed");
    }

    #[test]
    fn cumulative_cost_accumulates_oracle_costs() {
        let driver = OnlineAl::new(grid(8), gpr());
        let mut oracle = |x: &[f64]| (x[0], 2.5);
        let recs = driver
            .run(&mut oracle, &mut VarianceReduction, 0, 5)
            .unwrap();
        assert!((recs.last().unwrap().cumulative_cost - 12.5).abs() < 1e-12);
    }

    /// EMCM fits its bootstrap committee on the measured points, so an
    /// online run makes every requested measurement.
    #[test]
    fn online_emcm_returns_every_iteration() {
        let driver = OnlineAl::new(grid(13), gpr());
        let mut oracle = |x: &[f64]| ((x[0]).cos() * 2.0, 1.0);
        let mut emcm = Emcm::new(4, Box::new(SquaredExponential::unit()), 0.05);
        let recs = driver.run(&mut oracle, &mut emcm, 6, 12).unwrap();
        assert_eq!(recs.len(), 12);
        assert!(recs[1..].iter().all(|r| r.sigma_before.is_finite()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_seed_candidate_panics() {
        let driver = OnlineAl::new(grid(4), gpr());
        let mut oracle = |_: &[f64]| (0.0, 1.0);
        let _ = driver.run(&mut oracle, &mut VarianceReduction, 99, 3);
    }
}
