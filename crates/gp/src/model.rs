//! The fitted Gaussian Process Regression model.
//!
//! [`Gpr::fit`] conditions a GP prior (kernel + homoscedastic Gaussian noise,
//! Eq. 3) on training data and exposes the posterior predictive distribution
//! of Eqs. 4–10: `mu_* = k_*^T K_y^{-1} y`, `sigma_*^2 = k_** - k_*^T K_y^{-1} k_*`.
//! The response is standardized internally (zero mean, unit variance) so the
//! unit-amplitude kernel prior and the paper's noise floors are always on a
//! sensible scale; predictions are mapped back automatically.

use crate::kernel::Kernel;
use crate::lml::{self, LmlParts};
use alperf_linalg::{
    cholesky::Cholesky, matrix::Matrix, stats::Standardizer, vector::dot, LinalgError,
};

/// Errors from fitting or using a GPR model.
#[derive(Debug, Clone, PartialEq)]
pub enum GpError {
    /// Underlying linear-algebra failure (singular/indefinite covariance…).
    Linalg(LinalgError),
    /// Shape problem in the training data.
    Dimension(String),
    /// No training data was provided.
    Empty,
}

impl std::fmt::Display for GpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            GpError::Dimension(d) => write!(f, "dimension error: {d}"),
            GpError::Empty => write!(f, "empty training set"),
        }
    }
}

impl std::error::Error for GpError {}

impl From<LinalgError> for GpError {
    fn from(e: LinalgError) -> Self {
        GpError::Linalg(e)
    }
}

/// Posterior predictive distribution at one input point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Predictive mean `mu_*` (Eq. 5), on the original response scale.
    pub mean: f64,
    /// Predictive standard deviation of the latent function `sqrt(sigma_*^2)`
    /// (Eq. 6), on the original response scale.
    pub std: f64,
}

impl Prediction {
    /// 95% confidence interval `mean ± 2 std` — the bands drawn in the
    /// paper's Figs. 3 and 5.
    pub fn ci95(&self) -> (f64, f64) {
        (self.mean - 2.0 * self.std, self.mean + 2.0 * self.std)
    }
}

/// A Gaussian Process Regression model conditioned on training data.
pub struct Gpr {
    kernel: Box<dyn Kernel>,
    noise_std: f64,
    x: Matrix,
    standardizer: Standardizer,
    chol: Cholesky,
    alpha: Vec<f64>,
    y_std: Vec<f64>,
    lml: f64,
}

impl Gpr {
    /// Condition the GP on training inputs `x` (rows = points) and responses
    /// `y` with the given kernel and noise standard deviation `sigma_n`
    /// (both interpreted on the standardized response scale when
    /// `standardize` is true).
    ///
    /// # Errors
    /// [`GpError::Empty`] for zero rows, [`GpError::Dimension`] on a shape
    /// mismatch, [`GpError::Linalg`] if the covariance cannot be factored.
    pub fn fit(
        x: Matrix,
        y: &[f64],
        kernel: Box<dyn Kernel>,
        noise_std: f64,
        standardize: bool,
    ) -> Result<Self, GpError> {
        if x.nrows() == 0 {
            return Err(GpError::Empty);
        }
        if y.len() != x.nrows() {
            return Err(GpError::Dimension(format!(
                "X has {} rows but y has {} values",
                x.nrows(),
                y.len()
            )));
        }
        if !noise_std.is_finite() || noise_std < 0.0 {
            return Err(GpError::Dimension(format!(
                "noise_std must be finite and >= 0, got {noise_std}"
            )));
        }
        let standardizer = if standardize {
            Standardizer::fit(y)
        } else {
            Standardizer::identity()
        };
        let y_std = standardizer.apply_vec(y);
        let LmlParts { chol, alpha, lml } = lml::lml_parts(kernel.as_ref(), noise_std, &x, &y_std)?;
        Ok(Gpr {
            kernel,
            noise_std,
            x,
            standardizer,
            chol,
            alpha,
            y_std,
            lml,
        })
    }

    /// Posterior predictive distribution of the latent function at `xstar`
    /// (Eqs. 4–6), on the original response scale.
    pub fn predict_one(&self, xstar: &[f64]) -> Result<Prediction, GpError> {
        if xstar.len() != self.x.ncols() {
            return Err(GpError::Dimension(format!(
                "query has {} dims, training data has {}",
                xstar.len(),
                self.x.ncols()
            )));
        }
        let kstar = lml::covariance_vector(self.kernel.as_ref(), &self.x, xstar);
        let mu = dot(&kstar, &self.alpha);
        // sigma_*^2 = k_** - ||L^{-1} k_*||^2, clamped at zero: rounding can
        // push the subtraction slightly negative at training points.
        let z = self.chol.solve_forward(&kstar)?;
        let var = (self.kernel.diag_value(xstar) - dot(&z, &z)).max(0.0);
        Ok(Prediction {
            mean: self.standardizer.inverse(mu),
            std: self.standardizer.inverse_scale(var.sqrt()),
        })
    }

    /// Batched posterior prediction at every row of `xs`.
    ///
    /// Builds the cross-covariance `K(X_*, X)` in one blocked pass, then
    /// solves `L Z = K(X, X_*)` for all candidates with a single multi-RHS
    /// forward substitution, so the whole batch costs one `O(n^2 m)` sweep
    /// instead of `m` separate `O(n^2)` solves with per-point allocation.
    /// Agrees with [`Gpr::predict_one`] to better than 1e-10 relative (the
    /// SE cross-covariance uses the squared-distance identity; everything
    /// else is a reassociation-free reordering).
    pub fn predict_batch(&self, xs: &Matrix) -> Result<Vec<Prediction>, GpError> {
        if xs.nrows() == 0 {
            return Ok(Vec::new());
        }
        if xs.ncols() != self.x.ncols() {
            return Err(GpError::Dimension(format!(
                "query has {} dims, training data has {}",
                xs.ncols(),
                self.x.ncols()
            )));
        }
        // Process large pools in row chunks so the cross-covariance block
        // and the solve output stay cache-resident (and below the
        // allocator's mmap threshold). Each candidate's arithmetic is
        // independent and the chunk size is a multiple of the solver's RHS
        // block, so the results are bit-identical to one unchunked pass.
        const CHUNK: usize = 256;
        let m = xs.nrows();
        if m > CHUNK {
            let d = xs.ncols();
            let mut out = Vec::with_capacity(m);
            for start in (0..m).step_by(CHUNK) {
                let stop = (start + CHUNK).min(m);
                let rows = xs.as_slice()[start * d..stop * d].to_vec();
                let sub = Matrix::from_vec(stop - start, d, rows).map_err(GpError::Linalg)?;
                out.extend(self.predict_batch(&sub)?);
            }
            return Ok(out);
        }
        let kxt = self.kernel.cross_matrix(xs, &self.x);
        self.predict_batch_with_cross(xs, &kxt)
    }

    /// The posterior means of [`Gpr::predict_batch`] alone: the same
    /// cross-covariance and `K_* alpha` matvec, bit for bit, without the
    /// `O(n^2 m)` forward solve the variances need. Each row's cross
    /// covariance and dot product are independent of the others, so the
    /// batch needs no chunking to match.
    ///
    /// # Errors
    /// [`GpError::Dimension`] when `xs` has the wrong number of columns.
    pub fn predict_mean_batch(&self, xs: &Matrix) -> Result<Vec<f64>, GpError> {
        if xs.nrows() == 0 {
            return Ok(Vec::new());
        }
        if xs.ncols() != self.x.ncols() {
            return Err(GpError::Dimension(format!(
                "query has {} dims, training data has {}",
                xs.ncols(),
                self.x.ncols()
            )));
        }
        self.predict_mean_batch_with_cross(&self.kernel.cross_matrix(xs, &self.x))
    }

    /// [`Gpr::predict_mean_batch`] with a caller-supplied cross-covariance
    /// `kxt = K(X_*, X)`, as [`Gpr::predict_batch_with_cross`] takes it.
    ///
    /// # Errors
    /// [`GpError::Dimension`] when `kxt` does not have `n_train` columns.
    pub fn predict_mean_batch_with_cross(&self, kxt: &Matrix) -> Result<Vec<f64>, GpError> {
        if kxt.ncols() != self.x.nrows() {
            return Err(GpError::Dimension(format!(
                "cross-covariance has {} columns, expected {}",
                kxt.ncols(),
                self.x.nrows()
            )));
        }
        let mu_std = kxt.matvec(&self.alpha)?;
        Ok(mu_std
            .into_iter()
            .map(|m| self.standardizer.inverse(m))
            .collect())
    }

    /// [`Gpr::predict_batch`] with a caller-supplied cross-covariance
    /// `kxt = K(X_*, X)` (rows = candidates, columns = training points).
    ///
    /// This is the entry point for the AL pool-prediction cache: when only
    /// the training set changed by one point and the hyperparameters are
    /// frozen, the caller can maintain `kxt` incrementally (append one
    /// column, drop one row) instead of rebuilding it.
    ///
    /// # Errors
    /// [`GpError::Dimension`] when `kxt` is not `xs.nrows() x n_train`.
    pub fn predict_batch_with_cross(
        &self,
        xs: &Matrix,
        kxt: &Matrix,
    ) -> Result<Vec<Prediction>, GpError> {
        let _span = alperf_obs::span("gp.predict_batch");
        let (m, n) = (xs.nrows(), self.x.nrows());
        if kxt.nrows() != m || kxt.ncols() != n {
            return Err(GpError::Dimension(format!(
                "cross-covariance is {}x{}, expected {m}x{n}",
                kxt.nrows(),
                kxt.ncols()
            )));
        }
        let mu_std = kxt.matvec(&self.alpha)?;
        // One multi-RHS forward solve, packed straight from the row layout
        // of `kxt`: row i of Z^T is L^{-1} k_*(x_i).
        let z = self.chol.solve_forward_rhs_rows(kxt)?;
        let znorm2 = z.row_sq_norms();
        Ok((0..m)
            .map(|i| {
                let var = (self.kernel.diag_value(xs.row(i)) - znorm2[i]).max(0.0);
                Prediction {
                    mean: self.standardizer.inverse(mu_std[i]),
                    std: self.standardizer.inverse_scale(var.sqrt()),
                }
            })
            .collect())
    }

    /// Log marginal likelihood of the training data under the fitted
    /// hyperparameters (Eq. 12), on the standardized scale.
    pub fn lml(&self) -> f64 {
        self.lml
    }

    /// The kernel in use.
    pub fn kernel(&self) -> &dyn Kernel {
        self.kernel.as_ref()
    }

    /// Noise standard deviation `sigma_n` (standardized response scale).
    pub fn noise_std(&self) -> f64 {
        self.noise_std
    }

    /// Noise standard deviation mapped back to the original response scale.
    pub fn noise_std_raw(&self) -> f64 {
        self.standardizer.inverse_scale(self.noise_std)
    }

    /// Number of training points.
    pub fn n_train(&self) -> usize {
        self.x.nrows()
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.x.ncols()
    }

    /// Training inputs.
    pub fn x_train(&self) -> &Matrix {
        &self.x
    }

    /// The standardizer applied to the response.
    pub fn standardizer(&self) -> &Standardizer {
        &self.standardizer
    }

    /// Training responses on the standardized scale: the targets the LML
    /// is evaluated on.
    pub(crate) fn y_std(&self) -> &[f64] {
        &self.y_std
    }

    /// Condition-number estimate of `K_y` — large values flag numerically
    /// fragile fits (length scale far larger than data spread).
    pub fn condition_estimate(&self) -> f64 {
        self.chol.condition_estimate()
    }

    /// Multi-RHS forward solve with row-major right-hand sides: row `r` of
    /// the result is `L^{-1} bt[r]`. Building block for joint posterior
    /// covariances (see `sample`).
    pub(crate) fn chol_forward_rhs_rows(&self, bt: &Matrix) -> Result<Matrix, GpError> {
        Ok(self.chol.solve_forward_rhs_rows(bt)?)
    }

    /// Condition on one additional observation `(x_new, y_new)` in
    /// `O(n^2)` via a rank-one Cholesky extension — the incremental update
    /// the AL loop performs at every iteration. Hyperparameters, noise
    /// level, and the response standardizer are kept *frozen* from this
    /// model (the standardizer would otherwise shift under the new point
    /// and invalidate the factorization), so periodic full refits remain
    /// the caller's responsibility.
    ///
    /// # Errors
    /// [`GpError::Dimension`] on shape mismatch; [`GpError::Linalg`] if the
    /// extended covariance is numerically indefinite (duplicate point with
    /// near-zero noise) — callers should fall back to a full refit then.
    pub fn with_observation(&self, x_new: &[f64], y_new: f64) -> Result<Gpr, GpError> {
        if x_new.len() != self.dim() {
            return Err(GpError::Dimension(format!(
                "new point has {} dims, training data has {}",
                x_new.len(),
                self.dim()
            )));
        }
        let kvec = lml::covariance_vector(self.kernel.as_ref(), &self.x, x_new);
        let diag = self.kernel.diag_value(x_new) + self.noise_std * self.noise_std;
        let chol = self.chol.extend(&kvec, diag)?;
        let x = self.x.with_row(x_new).expect("dims checked above");
        let mut y_std = self.y_std.clone();
        y_std.push(self.standardizer.apply(y_new));
        let alpha = chol.solve(&y_std)?;
        let n = x.nrows();
        let lml = -0.5 * dot(&y_std, &alpha)
            - 0.5 * chol.log_det()
            - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
        Ok(Gpr {
            kernel: self.kernel.clone_box(),
            noise_std: self.noise_std,
            x,
            standardizer: self.standardizer,
            chol,
            alpha,
            y_std,
            lml,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SquaredExponential;

    fn fit_sine(noise: f64) -> Gpr {
        let xs: Vec<f64> = (0..20).map(|i| i as f64 * 0.3).collect();
        let x = Matrix::from_vec(20, 1, xs.clone()).unwrap();
        let y: Vec<f64> = xs.iter().map(|v| v.sin()).collect();
        Gpr::fit(
            x,
            &y,
            Box::new(SquaredExponential::new(1.0, 1.0)),
            noise,
            true,
        )
        .unwrap()
    }

    #[test]
    fn interpolates_training_points_with_small_noise() {
        let gpr = fit_sine(1e-5);
        for v in [0.0, 0.9, 3.0, 5.7] {
            let p = gpr.predict_one(&[v]).unwrap();
            assert!(
                (p.mean - v.sin()).abs() < 1e-2,
                "at {v}: predicted {}, true {}",
                p.mean,
                v.sin()
            );
        }
    }

    #[test]
    fn variance_small_at_data_large_far_away() {
        let gpr = fit_sine(1e-4);
        let at_data = gpr.predict_one(&[0.9]).unwrap().std;
        let far = gpr.predict_one(&[30.0]).unwrap().std;
        assert!(at_data < 0.05, "std at data = {at_data}");
        assert!(far > 10.0 * at_data, "far std = {far}");
    }

    #[test]
    fn far_field_variance_approaches_prior() {
        let gpr = fit_sine(1e-4);
        let p = gpr.predict_one(&[1000.0]).unwrap();
        // Prior std on the original scale = amplitude * y_std.
        let expect = 1.0 * gpr.standardizer().std;
        assert!((p.std - expect).abs() / expect < 1e-6);
        // Far-field mean reverts to the data mean.
        assert!((p.mean - gpr.standardizer().mean).abs() < 1e-3);
    }

    #[test]
    fn ci95_is_mean_pm_two_std() {
        let p = Prediction {
            mean: 1.0,
            std: 0.25,
        };
        assert_eq!(p.ci95(), (0.5, 1.5));
    }

    #[test]
    fn predict_many_matches_one() {
        // The batched path assembles K(X_*, X) via the squared-distance
        // identity, so agreement with the scalar path is to tolerance
        // (1e-10, far above the ~1e-13 identity error), not bit-exact.
        let gpr = fit_sine(0.1);
        let grid = Matrix::from_vec(3, 1, vec![0.1, 2.0, 4.5]).unwrap();
        let many = gpr.predict_batch(&grid).unwrap();
        for (i, p) in many.iter().enumerate() {
            let q = gpr.predict_one(grid.row(i)).unwrap();
            assert!((p.mean - q.mean).abs() <= 1e-10 * (1.0 + q.mean.abs()));
            assert!((p.std - q.std).abs() <= 1e-10 * (1.0 + q.std.abs()));
        }
    }

    #[test]
    fn predict_batch_empty_and_shape_checks() {
        let gpr = fit_sine(0.1);
        assert!(gpr.predict_batch(&Matrix::zeros(0, 1)).unwrap().is_empty());
        assert!(matches!(
            gpr.predict_batch(&Matrix::zeros(2, 3)),
            Err(GpError::Dimension(_))
        ));
        // A mis-shaped caller-supplied cross matrix is rejected.
        let xs = Matrix::from_vec(2, 1, vec![0.3, 1.1]).unwrap();
        let bad = Matrix::zeros(2, 3);
        assert!(matches!(
            gpr.predict_batch_with_cross(&xs, &bad),
            Err(GpError::Dimension(_))
        ));
    }

    #[test]
    fn predict_batch_with_cross_matches_predict_batch() {
        let gpr = fit_sine(0.1);
        let xs = Matrix::from_vec(4, 1, vec![0.2, 1.7, 3.3, 5.9]).unwrap();
        let kxt = gpr.kernel().cross_matrix(&xs, gpr.x_train());
        let a = gpr.predict_batch(&xs).unwrap();
        let b = gpr.predict_batch_with_cross(&xs, &kxt).unwrap();
        assert_eq!(a, b);
    }

    /// The means-only path returns `predict_batch`'s means bit for bit,
    /// across `predict_batch`'s 256-row chunks and in 2-D under ARD-SE.
    #[test]
    fn predict_mean_batch_matches_predict_batch_means_bit_for_bit() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let gpr = fit_sine(0.1);
        let xs = Matrix::from_fn(600, 1, |i, _| i as f64 * 0.013 - 1.0);
        let want: Vec<f64> = gpr
            .predict_batch(&xs)
            .unwrap()
            .iter()
            .map(|p| p.mean)
            .collect();
        assert_eq!(bits(&gpr.predict_mean_batch(&xs).unwrap()), bits(&want));
        let x2 = Matrix::from_fn(30, 2, |i, j| ((i * 3 + j) as f64 * 0.7).sin());
        let y2: Vec<f64> = (0..30)
            .map(|i| (i as f64 * 0.4).cos() * 5.0 + 2.0)
            .collect();
        let ard = crate::kernel::ArdSquaredExponential::new(vec![0.8, 1.7], 1.3);
        let g2 = Gpr::fit(x2, &y2, Box::new(ard), 0.05, true).unwrap();
        let q = Matrix::from_fn(300, 2, |i, j| ((i * 5 + j) as f64 * 0.37).cos() * 1.2);
        let want: Vec<f64> = g2
            .predict_batch(&q)
            .unwrap()
            .iter()
            .map(|p| p.mean)
            .collect();
        assert_eq!(bits(&g2.predict_mean_batch(&q).unwrap()), bits(&want));
        assert!(g2
            .predict_mean_batch(&Matrix::zeros(0, 2))
            .unwrap()
            .is_empty());
        assert!(matches!(
            g2.predict_mean_batch(&Matrix::zeros(2, 3)),
            Err(GpError::Dimension(_))
        ));
    }

    #[test]
    fn empty_training_rejected() {
        let x = Matrix::zeros(0, 0);
        let r = Gpr::fit(x, &[], Box::new(SquaredExponential::unit()), 0.1, true);
        assert!(matches!(r, Err(GpError::Empty)));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0]]).unwrap();
        assert!(matches!(
            Gpr::fit(x, &[1.0], Box::new(SquaredExponential::unit()), 0.1, true),
            Err(GpError::Dimension(_))
        ));
    }

    #[test]
    fn bad_noise_rejected() {
        let x = Matrix::from_rows(&[&[0.0]]).unwrap();
        assert!(Gpr::fit(
            x.clone(),
            &[1.0],
            Box::new(SquaredExponential::unit()),
            f64::NAN,
            true
        )
        .is_err());
        assert!(Gpr::fit(x, &[1.0], Box::new(SquaredExponential::unit()), -0.1, true).is_err());
    }

    #[test]
    fn query_dimension_checked() {
        let gpr = fit_sine(0.1);
        assert!(matches!(
            gpr.predict_one(&[0.0, 1.0]),
            Err(GpError::Dimension(_))
        ));
    }

    #[test]
    fn standardization_reproduces_unstandardized_shape() {
        // Same data fit with and without standardization must give very
        // similar predictions when the kernel amplitudes are scaled to match.
        let xs: Vec<f64> = (0..10).map(|i| i as f64 * 0.5).collect();
        let x = Matrix::from_vec(10, 1, xs.clone()).unwrap();
        let y: Vec<f64> = xs.iter().map(|v| 100.0 + 10.0 * v.sin()).collect();
        let std = alperf_linalg::stats::std_dev(&y);
        let m = alperf_linalg::stats::mean(&y);
        let g1 = Gpr::fit(
            x.clone(),
            &y,
            Box::new(SquaredExponential::new(1.0, 1.0)),
            0.05,
            true,
        )
        .unwrap();
        // Unstandardized equivalent: amplitude*std, noise*std, centered data.
        let yc: Vec<f64> = y.iter().map(|v| v - m).collect();
        let g2 = Gpr::fit(
            x,
            &yc,
            Box::new(SquaredExponential::new(1.0, std)),
            0.05 * std,
            false,
        )
        .unwrap();
        for q in [0.3, 2.2, 4.4] {
            let p1 = g1.predict_one(&[q]).unwrap();
            let p2 = g2.predict_one(&[q]).unwrap();
            assert!((p1.mean - (p2.mean + m)).abs() < 1e-8, "q={q}");
            assert!((p1.std - p2.std).abs() < 1e-8, "q={q}");
        }
    }

    #[test]
    fn accessors_report_shapes() {
        let gpr = fit_sine(0.1);
        assert_eq!(gpr.n_train(), 20);
        assert_eq!(gpr.dim(), 1);
        assert!(gpr.lml().is_finite());
        assert!(gpr.condition_estimate() >= 1.0);
        assert!(gpr.noise_std_raw() > 0.0);
        assert_eq!(gpr.noise_std(), 0.1);
    }

    #[test]
    fn incremental_update_matches_full_refit() {
        let xs: Vec<f64> = (0..8).map(|i| i as f64 * 0.7).collect();
        let y: Vec<f64> = xs.iter().map(|v| (0.5 * v).sin()).collect();
        let kernel = SquaredExponential::new(1.0, 1.2);
        let base = Gpr::fit(
            Matrix::from_vec(8, 1, xs.clone()).unwrap(),
            &y,
            Box::new(kernel.clone()),
            0.1,
            false,
        )
        .unwrap();
        let incremental = base.with_observation(&[6.3], 0.4).unwrap();
        let mut xs2 = xs;
        xs2.push(6.3);
        let mut y2 = y;
        y2.push(0.4);
        let full = Gpr::fit(
            Matrix::from_vec(9, 1, xs2).unwrap(),
            &y2,
            Box::new(kernel),
            0.1,
            false,
        )
        .unwrap();
        assert!((incremental.lml() - full.lml()).abs() < 1e-9);
        for q in [0.1, 3.0, 6.3, 9.0] {
            let a = incremental.predict_one(&[q]).unwrap();
            let b = full.predict_one(&[q]).unwrap();
            assert!((a.mean - b.mean).abs() < 1e-9, "mean at {q}");
            assert!((a.std - b.std).abs() < 1e-9, "std at {q}");
        }
        assert_eq!(incremental.n_train(), 9);
    }

    #[test]
    fn incremental_update_with_standardization_freezes_scaler() {
        // With standardize=true the incremental model keeps the *old*
        // standardizer (documented behaviour); predictions remain finite
        // and the training count grows.
        let gpr = fit_sine(0.1);
        let up = gpr.with_observation(&[7.0], 0.3).unwrap();
        assert_eq!(up.n_train(), 21);
        assert_eq!(up.standardizer(), gpr.standardizer());
        assert!(up.predict_one(&[7.0]).unwrap().mean.is_finite());
    }

    /// `|a - b| <= 1e-10 max(|a|, |b|)` elementwise, over the larger of
    /// the two slices' magnitudes.
    fn close(a: &[f64], b: &[f64]) -> bool {
        let scale = a.iter().chain(b).fold(0.0f64, |m, v| m.max(v.abs()));
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= 1e-10 * scale)
    }

    /// The rank-one path on degenerate inputs: duplicate rows under the
    /// 1e-8 floor, constant y, n in {1, 2}, y spanning five decades, and
    /// hyperparameters on the optimizer's bounds. `Cholesky::extend` and
    /// `Gpr::with_observation` either fail typed or give a finite model
    /// whose factor, alpha and LML match a refactorization of the grown set
    /// (`Gpr::fit` at the same hyperparameters) within 1e-10 relative.
    #[test]
    fn rank_one_path_on_degenerate_inputs_matches_a_refactorization_or_fails_typed() {
        let col = |v: &[f64]| Matrix::from_vec(v.len(), 1, v.to_vec()).unwrap();
        let decades: Vec<f64> = (0..6).map(|i| 10f64.powi(i)).collect();
        // (name, x, y, new x, new y)
        let cases: Vec<(&str, Matrix, Vec<f64>, f64, f64)> = vec![
            ("n = 1", col(&[0.5]), vec![3.0], 1.5, 2.0),
            ("n = 2", col(&[0.0, 1.0]), vec![1.0, 2.0], 2.0, 1.5),
            (
                "duplicate row",
                col(&[0.0, 1.0, 2.0, 3.0]),
                vec![0.0, 1.0, 0.5, 2.0],
                1.0,
                1.2,
            ),
            (
                "duplicate rows in the prefix",
                col(&[0.0, 1.0, 1.0, 2.0]),
                vec![0.0, 1.0, 1.5, 2.0],
                1.0,
                0.5,
            ),
            (
                "constant y",
                col(&[0.0, 1.0, 2.0, 3.0]),
                vec![4.2; 4],
                1.7,
                4.2,
            ),
            (
                "y spanning five decades",
                col(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]),
                decades,
                2.5,
                3e4,
            ),
        ];
        // Kernel log-parameters: interior, and each end of the default box
        // `[ln 1e-5, ln 1e5]`.
        let edge = 11.512925464970229;
        let thetas = [[0.0, 0.0], [edge, 0.0], [-edge, 0.0], [0.0, -edge]];
        let (mut matched, mut typed) = (0, 0);
        for (name, x, y, x_new, y_new) in &cases {
            for theta in thetas {
                for noise in [1e-8, 0.1] {
                    let case = format!("{name}, theta {theta:?}, sigma_n {noise:e}");
                    let mut kernel = SquaredExponential::unit();
                    kernel.set_params(&theta);
                    let Ok(base) = Gpr::fit(x.clone(), y, Box::new(kernel.clone()), noise, false)
                    else {
                        typed += 1;
                        continue;
                    };
                    let grown_x = x.with_row(&[*x_new]).unwrap();
                    let mut grown_y = y.clone();
                    grown_y.push(*y_new);
                    let refit = Gpr::fit(grown_x, &grown_y, Box::new(kernel), noise, false);
                    let kvec = lml::covariance_vector(base.kernel(), &base.x, &[*x_new]);
                    let diag = base.kernel().diag_value(&[*x_new]) + noise * noise;
                    let extended = base.chol.extend(&kvec, diag);
                    let incremental = base.with_observation(&[*x_new], *y_new);
                    match (extended, incremental) {
                        (Ok(chol), Ok(inc)) => {
                            let refit = refit.unwrap_or_else(|e| panic!("{case}: refit {e:?}"));
                            let (l, want) = (inc.chol.factor(), refit.chol.factor());
                            assert_eq!(chol.factor(), l, "{case}: extend vs with_observation");
                            assert!(close(l.as_slice(), want.as_slice()), "{case}: factor");
                            assert!(inc.alpha.iter().all(|v| v.is_finite()), "{case}");
                            assert!(close(&inc.alpha, &refit.alpha), "{case}: alpha");
                            assert!(inc.lml.is_finite(), "{case}: lml {}", inc.lml);
                            assert!(close(&[inc.lml], &[refit.lml]), "{case}: lml");
                            let p = inc.predict_one(&[0.3]).unwrap();
                            assert!(p.mean.is_finite() && p.std.is_finite(), "{case}");
                            matched += 1;
                        }
                        (Err(e), Err(GpError::Linalg(f))) => {
                            assert_eq!(e, f, "{case}");
                            typed += 1;
                        }
                        (e, i) => panic!("{case}: extend {e:?} vs with_observation {:?}", i.err()),
                    }
                }
            }
        }
        assert!(
            matched > 20 && typed > 0,
            "{matched} matched, {typed} typed"
        );
    }

    #[test]
    fn incremental_update_rejects_bad_dims() {
        let gpr = fit_sine(0.1);
        assert!(matches!(
            gpr.with_observation(&[1.0, 2.0], 0.0),
            Err(GpError::Dimension(_))
        ));
    }

    #[test]
    fn more_data_never_increases_variance_at_fixed_hyperparams() {
        // Posterior variance is non-increasing in the training set when
        // hyperparameters are held fixed.
        let kernel = SquaredExponential::new(1.0, 1.0);
        let xs5: Vec<f64> = (0..5).map(|i| i as f64).collect();
        let xs10: Vec<f64> = (0..10).map(|i| i as f64 * 0.5).collect();
        let y5: Vec<f64> = xs5.iter().map(|v| v.cos()).collect();
        let y10: Vec<f64> = xs10.iter().map(|v| v.cos()).collect();
        let g5 = Gpr::fit(
            Matrix::from_vec(5, 1, xs5).unwrap(),
            &y5,
            Box::new(kernel.clone()),
            0.1,
            false,
        )
        .unwrap();
        let g10 = Gpr::fit(
            Matrix::from_vec(10, 1, xs10).unwrap(),
            &y10,
            Box::new(kernel),
            0.1,
            false,
        )
        .unwrap();
        for q in [0.25, 1.75, 3.6] {
            let s5 = g5.predict_one(&[q]).unwrap().std;
            let s10 = g10.predict_one(&[q]).unwrap().std;
            assert!(s10 <= s5 + 1e-9, "q={q}: {s10} vs {s5}");
        }
    }
}
