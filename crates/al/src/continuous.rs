//! Continuous-domain acquisition optimization.
//!
//! Paper §VI: "Realistic simulations often involve continuous or
//! near-continuous parameters, such that the active set cannot be treated
//! as finite. We expect that this could be handled by choosing the best
//! option within a finite subset or, preferably, by using continuous
//! optimization."
//!
//! This module implements both halves of that sentence: a box-constrained
//! [`ContinuousAcquisition`] optimizer that maximizes an arbitrary
//! acquisition criterion over `R^d` by multi-start pattern search
//! (derivative-free — acquisition surfaces are cheap to evaluate and the
//! pattern search cannot be fooled by the noisy curvature near training
//! points), and convenience criteria matching the paper's two strategies.

use alperf_gp::model::{GpError, Gpr};
use alperf_linalg::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Acquisition criteria over the GP posterior at a point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Criterion {
    /// Predictive standard deviation (Variance Reduction).
    Sigma,
    /// `sigma - mu` on log-cost responses (Cost Efficiency, Eq. 14).
    SigmaMinusMean,
    /// Upper confidence bound `mu + 2 sigma` (optimization-flavored).
    Ucb,
}

impl Criterion {
    /// Evaluate the criterion from a prediction.
    pub fn score(&self, mean: f64, std: f64) -> f64 {
        match self {
            Criterion::Sigma => std,
            Criterion::SigmaMinusMean => std - mean,
            Criterion::Ucb => mean + 2.0 * std,
        }
    }

    /// Chain rule: criterion gradient from the mean/SD gradients.
    pub fn score_gradient(&self, grad_mean: &[f64], grad_std: &[f64]) -> Vec<f64> {
        match self {
            Criterion::Sigma => grad_std.to_vec(),
            Criterion::SigmaMinusMean => {
                grad_std.iter().zip(grad_mean).map(|(s, m)| s - m).collect()
            }
            Criterion::Ucb => grad_mean
                .iter()
                .zip(grad_std)
                .map(|(m, s)| m + 2.0 * s)
                .collect(),
        }
    }
}

/// Box-constrained continuous acquisition maximizer.
#[derive(Debug, Clone)]
pub struct ContinuousAcquisition {
    /// Per-dimension `[lo, hi]` search box.
    pub bounds: Vec<(f64, f64)>,
    /// Number of random starts (plus one at the box center).
    pub starts: usize,
    /// Pattern-search iterations per start.
    pub iters: usize,
    /// RNG seed for the random starts.
    pub seed: u64,
}

impl ContinuousAcquisition {
    /// New optimizer over the given box with sensible defaults.
    pub fn new(bounds: Vec<(f64, f64)>) -> Self {
        assert!(!bounds.is_empty(), "need at least one dimension");
        assert!(
            bounds.iter().all(|(lo, hi)| hi > lo),
            "bounds must be non-degenerate"
        );
        ContinuousAcquisition {
            bounds,
            starts: 8,
            iters: 60,
            seed: 0,
        }
    }

    /// Maximize `criterion` over the box; returns `(x*, score)`.
    ///
    /// All start points are scored in one batched prediction, and each
    /// pattern-search sweep scores its `2d` axis probes in one batch and
    /// takes the *best* improving probe (best-improvement; the batched
    /// probes come for the same price as one, so there is nothing to gain
    /// from stopping at the first).
    ///
    /// # Errors
    /// Propagates prediction failures (dimension mismatch with the model).
    pub fn maximize(&self, model: &Gpr, criterion: Criterion) -> Result<(Vec<f64>, f64), GpError> {
        let d = self.bounds.len();
        let score_batch = |cands: &Matrix| -> Result<Vec<f64>, GpError> {
            Ok(model
                .predict_batch(cands)?
                .iter()
                .map(|p| criterion.score(p.mean, p.std))
                .collect())
        };
        let mut rng = StdRng::seed_from_u64(self.seed);
        let starts: Vec<Vec<f64>> = (0..=self.starts)
            .map(|start| {
                if start == 0 {
                    self.bounds.iter().map(|(lo, hi)| 0.5 * (lo + hi)).collect()
                } else {
                    self.bounds
                        .iter()
                        .map(|(lo, hi)| rng.gen_range(*lo..=*hi))
                        .collect()
                }
            })
            .collect();
        let start_m =
            Matrix::from_vec(starts.len(), d, starts.concat()).expect("starts are d-dimensional");
        let start_f = score_batch(&start_m)?;
        let refine = |(mut x, mut f): (Vec<f64>, f64)| -> Result<(Vec<f64>, f64), GpError> {
            // Pattern search: probe +/- step along each axis (one batched
            // prediction per sweep), shrink on failure.
            let mut steps: Vec<f64> = self
                .bounds
                .iter()
                .map(|(lo, hi)| (hi - lo) * 0.25)
                .collect();
            for _ in 0..self.iters {
                let mut probes: Vec<f64> = Vec::with_capacity(2 * d * d);
                let mut n_probes = 0usize;
                for j in 0..d {
                    for dir in [1.0, -1.0] {
                        let mut cand = x.clone();
                        cand[j] =
                            (cand[j] + dir * steps[j]).clamp(self.bounds[j].0, self.bounds[j].1);
                        if cand[j] == x[j] {
                            continue;
                        }
                        probes.extend_from_slice(&cand);
                        n_probes += 1;
                    }
                }
                let mut improved = false;
                if n_probes > 0 {
                    let pm =
                        Matrix::from_vec(n_probes, d, probes).expect("probes are d-dimensional");
                    let fs = score_batch(&pm)?;
                    let mut pick: Option<(usize, f64)> = None;
                    for (i, &fc) in fs.iter().enumerate() {
                        if fc.is_nan() {
                            continue;
                        }
                        match pick {
                            Some((_, pf)) if pf >= fc => {}
                            _ => pick = Some((i, fc)),
                        }
                    }
                    if let Some((i, fc)) = pick {
                        if fc > f {
                            x = pm.row(i).to_vec();
                            f = fc;
                            improved = true;
                        }
                    }
                }
                if !improved {
                    for s in steps.iter_mut() {
                        *s *= 0.5;
                    }
                    if steps.iter().all(|s| *s < 1e-6) {
                        break;
                    }
                }
            }
            Ok((x, f))
        };
        // Refine each start in order; `f > best_f` keeps the earliest start
        // on exact ties.
        let mut best_x: Option<Vec<f64>> = None;
        let mut best_f = f64::NEG_INFINITY;
        for start in starts.into_iter().zip(start_f) {
            let (x, f) = refine(start)?;
            if f > best_f {
                best_f = f;
                best_x = Some(x);
            }
        }
        Ok((best_x.expect("at least one start"), best_f))
    }

    /// Like [`ContinuousAcquisition::maximize`] but using *analytic
    /// gradients* of the GP posterior (projected gradient ascent with
    /// backtracking) — the paper's §VI "gradient-based methods, which are
    /// available with GPR". Falls back to the pattern search when the
    /// model's kernel has no input gradient.
    ///
    /// # Errors
    /// Propagates prediction failures.
    pub fn maximize_with_gradients(
        &self,
        model: &Gpr,
        criterion: Criterion,
    ) -> Result<(Vec<f64>, f64), GpError> {
        // Probe gradient availability once.
        let center: Vec<f64> = self.bounds.iter().map(|(lo, hi)| 0.5 * (lo + hi)).collect();
        if model.predict_with_gradient(&center)?.is_none() {
            return self.maximize(model, criterion);
        }
        let eval = |x: &[f64]| -> Result<(f64, Option<Vec<f64>>), GpError> {
            match model.predict_with_gradient(x)? {
                Some((p, gm, gs)) => Ok((
                    criterion.score(p.mean, p.std),
                    Some(criterion.score_gradient(&gm, &gs)),
                )),
                None => {
                    // sigma = 0 exactly (on a training point): value only.
                    let p = model.predict_one(x)?;
                    Ok((criterion.score(p.mean, p.std), None))
                }
            }
        };
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut best_x: Option<Vec<f64>> = None;
        let mut best_f = f64::NEG_INFINITY;
        for start in 0..=self.starts {
            let mut x: Vec<f64> = if start == 0 {
                center.clone()
            } else {
                self.bounds
                    .iter()
                    .map(|(lo, hi)| rng.gen_range(*lo..=*hi))
                    .collect()
            };
            let (mut f, mut g) = eval(&x)?;
            let mut step = self
                .bounds
                .iter()
                .map(|(lo, hi)| hi - lo)
                .fold(f64::INFINITY, f64::min)
                * 0.25;
            for _ in 0..self.iters {
                let Some(grad) = g.clone() else { break };
                let gnorm = grad.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                if gnorm < 1e-10 {
                    break;
                }
                // Backtracking along the (normalized) gradient.
                let mut accepted = false;
                let mut local = step;
                for _ in 0..25 {
                    let cand: Vec<f64> = x
                        .iter()
                        .zip(&grad)
                        .zip(&self.bounds)
                        .map(|((xi, gi), (lo, hi))| (xi + local * gi / gnorm).clamp(*lo, *hi))
                        .collect();
                    if cand == x {
                        break;
                    }
                    let (fc, gc) = eval(&cand)?;
                    if fc > f + 1e-14 {
                        x = cand;
                        f = fc;
                        g = gc;
                        accepted = true;
                        break;
                    }
                    local *= 0.5;
                }
                if accepted {
                    step = local * 2.0;
                } else {
                    break;
                }
            }
            if f > best_f {
                best_f = f;
                best_x = Some(x);
            }
        }
        Ok((best_x.expect("at least one start"), best_f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alperf_gp::kernel::SquaredExponential;
    use alperf_linalg::matrix::Matrix;
    use alperf_linalg::vector::linspace;

    fn model() -> Gpr {
        // Training points at 2, 4, 6 in [0, 10]: sigma is maximized at the
        // domain edges (0 or 10) and locally between points.
        let xs = vec![2.0, 4.0, 6.0];
        let y = vec![0.5, 0.9, 0.2];
        Gpr::fit(
            Matrix::from_vec(3, 1, xs).unwrap(),
            &y,
            Box::new(SquaredExponential::new(1.0, 1.0)),
            0.05,
            false,
        )
        .unwrap()
    }

    #[test]
    fn continuous_matches_fine_grid_search() {
        let gpr = model();
        let acq = ContinuousAcquisition::new(vec![(0.0, 10.0)]);
        let (x_star, f_star) = acq.maximize(&gpr, Criterion::Sigma).unwrap();
        // Dense grid reference, scored in one batched prediction.
        let grid = linspace(0.0, 10.0, 2001);
        let gm = Matrix::from_vec(grid.len(), 1, grid.clone()).unwrap();
        let preds = gpr.predict_batch(&gm).unwrap();
        let (mut gx, mut gf) = (0.0, f64::NEG_INFINITY);
        for (&g, p) in grid.iter().zip(&preds) {
            if p.std > gf {
                gf = p.std;
                gx = g;
            }
        }
        assert!(
            (f_star - gf).abs() < 1e-4,
            "continuous {f_star} vs grid {gf} (at {gx} vs {x_star:?})"
        );
    }

    #[test]
    fn sigma_maximizer_is_far_from_training_data() {
        let gpr = model();
        let acq = ContinuousAcquisition::new(vec![(0.0, 10.0)]);
        let (x_star, _) = acq.maximize(&gpr, Criterion::Sigma).unwrap();
        // Farthest from {2,4,6} within [0,10] is x=10 (distance 4).
        assert!((x_star[0] - 10.0).abs() < 0.05, "x* = {:?}", x_star);
    }

    #[test]
    fn respects_bounds() {
        let gpr = model();
        let acq = ContinuousAcquisition::new(vec![(3.0, 5.0)]);
        let (x_star, _) = acq.maximize(&gpr, Criterion::Sigma).unwrap();
        assert!((3.0..=5.0).contains(&x_star[0]));
    }

    #[test]
    fn criteria_differ() {
        let gpr = model();
        let acq = ContinuousAcquisition::new(vec![(0.0, 10.0)]);
        let (x_sigma, _) = acq.maximize(&gpr, Criterion::Sigma).unwrap();
        let (x_ucb, _) = acq.maximize(&gpr, Criterion::Ucb).unwrap();
        // UCB is pulled toward the high-mean region near x=4; sigma runs to
        // the boundary.
        assert!(
            (x_sigma[0] - x_ucb[0]).abs() > 0.5,
            "{x_sigma:?} vs {x_ucb:?}"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let gpr = model();
        let acq = ContinuousAcquisition::new(vec![(0.0, 10.0)]);
        let a = acq.maximize(&gpr, Criterion::SigmaMinusMean).unwrap();
        let b = acq.maximize(&gpr, Criterion::SigmaMinusMean).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn maximize_is_bit_identical_across_thread_widths() {
        // Each probe sweep is a batched prediction through the linalg
        // blocks, which split across workers; the result must not depend
        // on the pool width.
        let gpr = model();
        let acq = ContinuousAcquisition::new(vec![(0.0, 10.0)]);
        let serial = alperf_linalg::threads::with_threads(1, || {
            acq.maximize(&gpr, Criterion::SigmaMinusMean).unwrap()
        });
        for t in [2usize, 4, 8] {
            let par = alperf_linalg::threads::with_threads(t, || {
                acq.maximize(&gpr, Criterion::SigmaMinusMean).unwrap()
            });
            assert_eq!(par, serial, "t={t}");
        }
    }

    #[test]
    fn gradient_ascent_matches_pattern_search() {
        let gpr = model();
        let acq = ContinuousAcquisition::new(vec![(0.0, 10.0)]);
        for criterion in [Criterion::Sigma, Criterion::SigmaMinusMean, Criterion::Ucb] {
            let (_, f_pat) = acq.maximize(&gpr, criterion).unwrap();
            let (_, f_grad) = acq.maximize_with_gradients(&gpr, criterion).unwrap();
            assert!(
                (f_pat - f_grad).abs() <= 2e-3 * (1.0 + f_pat.abs()),
                "{criterion:?}: pattern {f_pat} vs gradient {f_grad}"
            );
        }
    }

    #[test]
    fn gradient_ascent_falls_back_without_kernel_gradients() {
        // Matern32 has no input gradient: maximize_with_gradients must
        // silently use exactly the pattern search and still succeed.
        let xs = vec![2.0, 4.0, 6.0];
        let y = vec![0.5, 0.9, 0.2];
        let gpr = Gpr::fit(
            Matrix::from_vec(3, 1, xs).unwrap(),
            &y,
            Box::new(alperf_gp::kernel::Matern32::new(1.0, 1.0)),
            0.05,
            false,
        )
        .unwrap();
        let acq = ContinuousAcquisition::new(vec![(0.0, 10.0)]);
        let (x_star, f_star) = acq.maximize_with_gradients(&gpr, Criterion::Sigma).unwrap();
        assert!((0.0..=10.0).contains(&x_star[0]));
        assert!(f_star > 0.0);
        let (xp, fp) = acq.maximize(&gpr, Criterion::Sigma).unwrap();
        assert_eq!(xp, x_star, "fallback must be exactly the pattern search");
        assert_eq!(fp, f_star);
    }

    #[test]
    #[should_panic(expected = "non-degenerate")]
    fn degenerate_bounds_rejected() {
        ContinuousAcquisition::new(vec![(1.0, 1.0)]);
    }

    #[test]
    fn works_in_two_dimensions() {
        let xs = vec![0.5, 0.5, 0.2, 0.8];
        let y = vec![1.0, 0.0];
        let gpr = Gpr::fit(
            Matrix::from_vec(2, 2, xs).unwrap(),
            &y,
            Box::new(SquaredExponential::new(0.4, 1.0)),
            0.05,
            false,
        )
        .unwrap();
        let acq = ContinuousAcquisition::new(vec![(0.0, 1.0), (0.0, 1.0)]);
        let (x_star, f_star) = acq.maximize(&gpr, Criterion::Sigma).unwrap();
        assert_eq!(x_star.len(), 2);
        assert!(f_star > 0.5, "far corners should be near the prior SD");
        // The maximizer is a corner away from both training points.
        let d1 = ((x_star[0] - 0.5).powi(2) + (x_star[1] - 0.5).powi(2)).sqrt();
        assert!(d1 > 0.3, "x* too close to training data: {x_star:?}");
    }
}
