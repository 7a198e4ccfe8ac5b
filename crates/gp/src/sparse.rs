//! Sparse (inducing-point) Gaussian Process Regression — the approximate
//! tier that breaks the exact path's `O(n³)` ceiling.
//!
//! Both supported posteriors replace the full covariance `K_nn` with the
//! Nyström form `Q_nn = K_nm K_mm^{-1} K_mn` over `m ≪ n` inducing points
//! `Z` (rows of the training set chosen by pivoted-Cholesky pivots or
//! greedy k-center selection):
//!
//! * **Subset of Regressors (SoR)**: model covariance `Q_nn + σ_n² I`.
//!   Cheap and accurate near data, but its predictive variance collapses
//!   far from the inducing set.
//! * **FITC** (fully independent training conditional): corrects the
//!   diagonal, `Q_nn + diag(K_nn − Q_nn) + σ_n² I`, restoring honest
//!   far-field variances — the right default for variance-driven AL.
//!
//! With `B = L_m^{-1} K_mn` (`K_mm = L_m L_mᵀ`) the model covariance is
//! `Bᵀ B + Λ`, exactly the shape [`alperf_linalg::lowrank::Woodbury`]
//! solves through the `m × m` capacitance factor `A = I + B Λ^{-1} Bᵀ`:
//! fitting costs `O(n m²)`, prediction `O(m)` per point plus one `O(m²)`
//! pair of triangular solves, and the log marginal likelihood comes from
//! the matrix determinant lemma. All reductions are serial per point, so
//! results are bit-identical across rayon worker counts.

use crate::kernel::Kernel;
use crate::lml;
use crate::model::{GpError, Prediction};
use alperf_linalg::cholesky::Cholesky;
use alperf_linalg::lowrank::{pivoted_cholesky, Woodbury};
use alperf_linalg::matrix::Matrix;
use alperf_linalg::stats::Standardizer;
use alperf_linalg::vector::dot;
use rand::Rng;

/// Which sparse posterior to build (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparseMethod {
    /// Subset of Regressors: `Q_nn + σ_n² I`.
    Sor,
    /// FITC: `Q_nn + diag(K_nn − Q_nn) + σ_n² I`.
    Fitc,
}

impl SparseMethod {
    /// Stable lowercase name for telemetry and reports.
    pub fn name(&self) -> &'static str {
        match self {
            SparseMethod::Sor => "sor",
            SparseMethod::Fitc => "fitc",
        }
    }
}

/// How inducing points are chosen from the training set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InducingSelector {
    /// Pivots of a partial pivoted Cholesky of `K_nn` — information-greedy
    /// in the kernel's own metric, with a trace-based early stop.
    PivotedCholesky,
    /// Greedy k-center (farthest-point) selection in input space — kernel
    /// independent, `O(n m)`.
    KCenter,
}

/// Jitter ladder used for the small `m × m` factorizations.
const SPARSE_JITTER: f64 = 1e-10;
const SPARSE_TRIES: usize = 8;
/// Relative floor applied to FITC's per-point diagonal so `Λ > 0` holds
/// even for interpolated points at zero noise.
const LAMBDA_FLOOR_REL: f64 = 1e-12;

/// A sparse GPR posterior over `m` inducing points, conditioned on `n`
/// training observations in `O(n m²)`.
pub struct SparseGpr {
    kernel: Box<dyn Kernel>,
    noise_std: f64,
    method: SparseMethod,
    /// Inducing inputs, `m × d`.
    z: Matrix,
    /// Cholesky factor of `K_mm` (jittered).
    lm: Cholesky,
    /// Capacitance matrix `A = I + B Λ^{-1} Bᵀ` (kept dense for `O(m²)`
    /// incremental updates) and its factor.
    a: Matrix,
    la: Cholesky,
    /// `u = B Λ^{-1} y_std` (the mean weights' right-hand side, kept for
    /// the `O(m²)` incremental updates; `c = L_A^{-1} u` is transient).
    u: Vec<f64>,
    /// Mean weights `w = L_m^{-T} A^{-1} u`, so `μ_std(x) = k_m(x)ᵀ w`.
    w_mean: Vec<f64>,
    standardizer: Standardizer,
    /// Running LML pieces (incremental under [`SparseGpr::with_observation`]).
    sum_log_lambda: f64,
    sum_y2_over_lambda: f64,
    lml: f64,
    n: usize,
    dim: usize,
}

impl SparseGpr {
    /// Condition the sparse posterior on training inputs `x` and responses
    /// `y`, with explicit inducing inputs `z` (rows; typically selected by
    /// [`select_inducing_pivoted`] or [`select_inducing_kcenter`]).
    /// `noise_std` is interpreted on the standardized response scale when
    /// `standardize` is true, mirroring [`Gpr::fit`].
    ///
    /// # Errors
    /// [`GpError::Empty`] for an empty training or inducing set,
    /// [`GpError::Dimension`] on shape mismatch, [`GpError::Linalg`] if
    /// `K_mm` or the capacitance matrix cannot be factored.
    pub fn fit(
        x: Matrix,
        y: &[f64],
        kernel: Box<dyn Kernel>,
        noise_std: f64,
        standardize: bool,
        method: SparseMethod,
        z: Matrix,
    ) -> Result<Self, GpError> {
        let _span = alperf_obs::span("gp.sparse_fit");
        let (n, d) = (x.nrows(), x.ncols());
        let m = z.nrows();
        if n == 0 || m == 0 {
            return Err(GpError::Empty);
        }
        if y.len() != n {
            return Err(GpError::Dimension(format!(
                "X has {n} rows but y has {} values",
                y.len()
            )));
        }
        if z.ncols() != d {
            return Err(GpError::Dimension(format!(
                "inducing points have {} dims, training data has {d}",
                z.ncols()
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

        // K_mm = L_m L_mᵀ, then B as rows: bt[i] = L_m^{-1} k(Z, x_i).
        let kmm = kernel.cross_matrix(&z, &z);
        let lm = Cholesky::decompose_jittered(&kmm, SPARSE_JITTER, SPARSE_TRIES)?;
        let kxz = kernel.cross_matrix(&x, &z);
        let bt = lm.solve_forward_rhs_rows(&kxz)?;

        // Per-point diagonal Λ.
        let sigma2 = noise_std * noise_std;
        let bnorm2 = bt.row_sq_norms();
        let lambda: Vec<f64> = match method {
            SparseMethod::Sor => {
                let l = sigma2.max(LAMBDA_FLOOR_REL);
                vec![l; n]
            }
            SparseMethod::Fitc => (0..n)
                .map(|i| {
                    let kii = kernel.diag_value(x.row(i));
                    let resid = (kii - bnorm2[i]).max(0.0);
                    (resid + sigma2).max(LAMBDA_FLOOR_REL * kii.max(1.0))
                })
                .collect(),
        };

        // Woodbury capacitance: A = I + B Λ^{-1} Bᵀ, c = L_A^{-1} B Λ^{-1} y.
        let wb = Woodbury::new(&bt, &lambda).map_err(GpError::Linalg)?;
        let c = wb.project(&y_std)?;
        // u = B Λ^{-1} y (recovered as L_A c for the incremental updates).
        let u = {
            let mut u = vec![0.0; m];
            for i in 0..n {
                let w = y_std[i] / lambda[i];
                if w == 0.0 {
                    continue;
                }
                for (uj, bj) in u.iter_mut().zip(bt.row(i)) {
                    *uj += w * bj;
                }
            }
            u
        };
        // Dense A for O(m²) rank-one updates (the factor alone cannot be
        // updated without it).
        let a = {
            let mut a = Matrix::identity(m);
            for (i, &li) in lambda.iter().enumerate() {
                let row = bt.row(i);
                let inv_l = 1.0 / li;
                for r in 0..m {
                    let w = row[r] * inv_l;
                    if w == 0.0 {
                        continue;
                    }
                    let arow = a.row_mut(r);
                    for cc in 0..=r {
                        arow[cc] += w * row[cc];
                    }
                }
            }
            for r in 0..m {
                for cc in 0..r {
                    a[(cc, r)] = a[(r, cc)];
                }
            }
            a
        };

        let sum_log_lambda: f64 = lambda.iter().map(|l| l.ln()).sum();
        let sum_y2_over_lambda: f64 = y_std.iter().zip(&lambda).map(|(yi, li)| yi * yi / li).sum();
        let quad = sum_y2_over_lambda - dot(&c, &c);
        let log_det = wb.factor().log_det() + sum_log_lambda;
        let lml = -0.5 * quad - 0.5 * log_det - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();

        let la = wb.factor().clone();
        let w_mean = lm.solve_backward(&la.solve_backward(&c)?)?;
        alperf_obs::add("gp.sparse_fit.rank", m as u64);
        Ok(SparseGpr {
            kernel,
            noise_std,
            method,
            z,
            lm,
            a,
            la,
            u,
            w_mean,
            standardizer,
            sum_log_lambda,
            sum_y2_over_lambda,
            lml,
            n,
            dim: d,
        })
    }

    /// `(b*, z*)` for one query: `b* = L_m^{-1} k_m(x)`,
    /// `z* = L_A^{-1} b*`.
    #[allow(clippy::type_complexity)]
    fn projections(&self, xstar: &[f64]) -> Result<(Vec<f64>, Vec<f64>, Vec<f64>), GpError> {
        let km = lml::covariance_vector(self.kernel.as_ref(), &self.z, xstar);
        let b = self.lm.solve_forward(&km)?;
        let zs = self.la.solve_forward(&b)?;
        Ok((km, b, zs))
    }

    /// Predictive variance on the standardized scale from the per-point
    /// pieces (`k** = k(x,x)`, `‖b*‖²`, `‖z*‖²`).
    fn var_std(&self, kss: f64, bnorm2: f64, znorm2: f64) -> f64 {
        match self.method {
            SparseMethod::Sor => znorm2.max(0.0),
            SparseMethod::Fitc => (kss - bnorm2 + znorm2).max(0.0),
        }
    }

    /// Posterior predictive distribution of the latent function at `xstar`,
    /// on the original response scale.
    ///
    /// # Errors
    /// [`GpError::Dimension`] if the query dimensionality is wrong.
    pub fn predict_one(&self, xstar: &[f64]) -> Result<Prediction, GpError> {
        if xstar.len() != self.dim {
            return Err(GpError::Dimension(format!(
                "query has {} dims, training data has {}",
                xstar.len(),
                self.dim
            )));
        }
        let (km, b, zs) = self.projections(xstar)?;
        let mu = dot(&km, &self.w_mean);
        let var = self.var_std(self.kernel.diag_value(xstar), dot(&b, &b), dot(&zs, &zs));
        Ok(Prediction {
            mean: self.standardizer.inverse(mu),
            std: self.standardizer.inverse_scale(var.sqrt()),
        })
    }

    /// Batched posterior prediction at every row of `xs` — one blocked
    /// cross-covariance against the `m` inducing points plus two multi-RHS
    /// triangular solves of order `m`: `O(n_q m)` memory, `O(n_q m²)` time.
    pub fn predict_batch(&self, xs: &Matrix) -> Result<Vec<Prediction>, GpError> {
        if xs.nrows() == 0 {
            return Ok(Vec::new());
        }
        if xs.ncols() != self.dim {
            return Err(GpError::Dimension(format!(
                "query has {} dims, training data has {}",
                xs.ncols(),
                self.dim
            )));
        }
        // Chunk large pools like Gpr::predict_batch so blocks stay
        // cache-resident; chunks are independent, results bit-identical.
        const CHUNK: usize = 512;
        let nq = xs.nrows();
        if nq > CHUNK {
            let d = xs.ncols();
            let mut out = Vec::with_capacity(nq);
            for start in (0..nq).step_by(CHUNK) {
                let stop = (start + CHUNK).min(nq);
                let rows = xs.as_slice()[start * d..stop * d].to_vec();
                let sub = Matrix::from_vec(stop - start, d, rows).map_err(GpError::Linalg)?;
                out.extend(self.predict_batch(&sub)?);
            }
            return Ok(out);
        }
        let kxz = self.kernel.cross_matrix(xs, &self.z);
        self.predict_batch_with_cross(xs, &kxz)
    }

    /// [`SparseGpr::predict_batch`] with a caller-supplied cross-covariance
    /// `kxz = K(X_*, Z)` (rows = candidates, columns = inducing points).
    /// This is the AL pool-cache entry point: `Z` never changes between
    /// hyperparameter refits, so the cache stays warm across incremental
    /// updates — the sparse tier's structural advantage over the exact one.
    ///
    /// # Errors
    /// [`GpError::Dimension`] when `kxz` is not `xs.nrows() × rank()`.
    pub fn predict_batch_with_cross(
        &self,
        xs: &Matrix,
        kxz: &Matrix,
    ) -> Result<Vec<Prediction>, GpError> {
        let _span = alperf_obs::span("gp.predict_batch");
        let (nq, m) = (xs.nrows(), self.z.nrows());
        alperf_obs::add("gp.predict.points", nq as u64);
        if kxz.nrows() != nq || kxz.ncols() != m {
            return Err(GpError::Dimension(format!(
                "cross-covariance is {}x{}, expected {nq}x{m}",
                kxz.nrows(),
                kxz.ncols()
            )));
        }
        let mu_std = kxz.matvec(&self.w_mean)?;
        let bt = self.lm.solve_forward_rhs_rows(kxz)?;
        let zt = self.la.solve_forward_rhs_rows(&bt)?;
        let bnorm2 = bt.row_sq_norms();
        let znorm2 = zt.row_sq_norms();
        Ok((0..nq)
            .map(|i| {
                let kss = self.kernel.diag_value(xs.row(i));
                let var = self.var_std(kss, bnorm2[i], znorm2[i]);
                Prediction {
                    mean: self.standardizer.inverse(mu_std[i]),
                    std: self.standardizer.inverse_scale(var.sqrt()),
                }
            })
            .collect())
    }

    /// Joint posterior covariance over the rows of `xs`, on the original
    /// response scale: `Z*ᵀ Z*` (SoR) or `K** − B*ᵀ B* + Z*ᵀ Z*` (FITC),
    /// with `B* = L_m^{-1} K(Z, X_*)`, `Z* = L_A^{-1} B*`.
    ///
    /// # Errors
    /// Dimension mismatches or numerical failure in the solves.
    pub fn posterior_covariance(&self, xs: &Matrix) -> Result<Matrix, GpError> {
        let nq = xs.nrows();
        if nq == 0 {
            return Ok(Matrix::zeros(0, 0));
        }
        if xs.ncols() != self.dim {
            return Err(GpError::Dimension(format!(
                "query has {} dims, training data has {}",
                xs.ncols(),
                self.dim
            )));
        }
        let scale = self.standardizer.std * self.standardizer.std;
        let kxz = self.kernel.cross_matrix(xs, &self.z);
        let bt = self.lm.solve_forward_rhs_rows(&kxz)?;
        let zt = self.la.solve_forward_rhs_rows(&bt)?;
        let ztz = zt.matmul(&zt.transpose())?;
        let mut cov = match self.method {
            SparseMethod::Sor => {
                let mut cov = ztz;
                for v in cov.as_mut_slice() {
                    *v *= scale;
                }
                cov
            }
            SparseMethod::Fitc => {
                let btb = bt.matmul(&bt.transpose())?;
                let mut cov = self.kernel.cross_matrix(xs, xs);
                for ((c, &q), &s) in cov
                    .as_mut_slice()
                    .iter_mut()
                    .zip(btb.as_slice())
                    .zip(ztz.as_slice())
                {
                    *c = (*c - q + s) * scale;
                }
                cov
            }
        };
        cov.symmetrize();
        Ok(cov)
    }

    /// Draw `n_samples` functions from the sparse posterior at the rows of
    /// `xs` (jittered Cholesky of [`SparseGpr::posterior_covariance`]).
    ///
    /// # Errors
    /// Propagates covariance-assembly and factorization failures.
    pub fn sample_posterior(
        &self,
        xs: &Matrix,
        n_samples: usize,
        rng: &mut impl Rng,
    ) -> Result<Vec<Vec<f64>>, GpError> {
        let m = xs.nrows();
        let means: Vec<f64> = self
            .predict_batch(xs)?
            .into_iter()
            .map(|p| p.mean)
            .collect();
        let cov = self.posterior_covariance(xs)?;
        let chol = Cholesky::decompose_jittered(&cov, 1e-10, 12).map_err(GpError::Linalg)?;
        let l = chol.factor();
        let mut out = Vec::with_capacity(n_samples);
        for _ in 0..n_samples {
            let z: Vec<f64> = (0..m).map(|_| standard_normal(rng)).collect();
            let mut s = means.clone();
            for i in 0..m {
                let mut acc = 0.0;
                for j in 0..=i {
                    acc += l[(i, j)] * z[j];
                }
                s[i] += acc;
            }
            out.push(s);
        }
        Ok(out)
    }

    /// Condition on one additional observation in `O(m²)` (plus one
    /// `O(m³)` refactor of the tiny capacitance matrix): the inducing set,
    /// kernel hyperparameters, noise level, and response standardizer are
    /// all kept *frozen* from this model, mirroring
    /// [`Gpr::with_observation`]. Periodic full refits (which may reselect
    /// `Z`) remain the caller's responsibility.
    ///
    /// # Errors
    /// [`GpError::Dimension`] on shape mismatch; [`GpError::Linalg`] if the
    /// updated capacitance matrix cannot be factored.
    pub fn with_observation(&self, x_new: &[f64], y_new: f64) -> Result<SparseGpr, GpError> {
        if x_new.len() != self.dim {
            return Err(GpError::Dimension(format!(
                "new point has {} dims, training data has {}",
                x_new.len(),
                self.dim
            )));
        }
        let km = lml::covariance_vector(self.kernel.as_ref(), &self.z, x_new);
        let b = self.lm.solve_forward(&km)?;
        let sigma2 = self.noise_std * self.noise_std;
        let lambda = match self.method {
            SparseMethod::Sor => sigma2.max(LAMBDA_FLOOR_REL),
            SparseMethod::Fitc => {
                let kii = self.kernel.diag_value(x_new);
                let resid = (kii - dot(&b, &b)).max(0.0);
                (resid + sigma2).max(LAMBDA_FLOOR_REL * kii.max(1.0))
            }
        };
        let y_std = self.standardizer.apply(y_new);
        let m = self.z.nrows();
        // A += b bᵀ / λ, then refactor (m is small; O(m³) ≪ O(n m²)).
        let mut a = self.a.clone();
        let inv_l = 1.0 / lambda;
        for r in 0..m {
            let w = b[r] * inv_l;
            for cc in 0..m {
                a[(r, cc)] += w * b[cc];
            }
        }
        let la = Cholesky::decompose_jittered(&a, SPARSE_JITTER, SPARSE_TRIES)?;
        let mut u = self.u.clone();
        for (uj, bj) in u.iter_mut().zip(&b) {
            *uj += bj * y_std * inv_l;
        }
        let c = la.solve_forward(&u)?;
        let w_mean = self.lm.solve_backward(&la.solve_backward(&c)?)?;
        let sum_log_lambda = self.sum_log_lambda + lambda.ln();
        let sum_y2_over_lambda = self.sum_y2_over_lambda + y_std * y_std / lambda;
        let n = self.n + 1;
        let quad = sum_y2_over_lambda - dot(&c, &c);
        let log_det = la.log_det() + sum_log_lambda;
        let lml = -0.5 * quad - 0.5 * log_det - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
        Ok(SparseGpr {
            kernel: self.kernel.clone_box(),
            noise_std: self.noise_std,
            method: self.method,
            z: self.z.clone(),
            lm: self.lm.clone(),
            a,
            la,
            u,
            w_mean,
            standardizer: self.standardizer,
            sum_log_lambda,
            sum_y2_over_lambda,
            lml,
            n,
            dim: self.dim,
        })
    }

    /// Approximate log marginal likelihood of the training data under the
    /// sparse model covariance `Q_nn + Λ` (standardized scale).
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

    /// Number of training observations conditioned on.
    pub fn n_train(&self) -> usize {
        self.n
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The inducing inputs `Z` (`rank() × dim()`).
    pub fn inducing(&self) -> &Matrix {
        &self.z
    }

    /// Number of inducing points `m`.
    pub fn rank(&self) -> usize {
        self.z.nrows()
    }

    /// Which sparse posterior this is.
    pub fn method(&self) -> SparseMethod {
        self.method
    }

    /// The standardizer applied to the response.
    pub fn standardizer(&self) -> &Standardizer {
        &self.standardizer
    }

    /// Condition estimate of the worse of the two small factors (`K_mm`
    /// and the capacitance matrix).
    pub fn condition_estimate(&self) -> f64 {
        self.lm
            .condition_estimate()
            .max(self.la.condition_estimate())
    }
}

/// Standard normal via Box–Muller (same recipe as the exact sampler; kept
/// private to both call sites).
fn standard_normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Select up to `max_rank` inducing rows of `x` by partial pivoted
/// Cholesky of the kernel matrix (never materialized — the factorizer
/// pulls the `m` columns it pivots on). Stops early when the residual
/// trace falls below `rel_tol * trace(K)`. Strictly serial: the returned
/// pivot sequence is bit-identical on any machine and worker count.
///
/// # Errors
/// Propagates factorizer failures (non-finite kernel values).
pub fn select_inducing_pivoted(
    kernel: &dyn Kernel,
    x: &Matrix,
    max_rank: usize,
    rel_tol: f64,
) -> Result<Vec<usize>, GpError> {
    let _span = alperf_obs::span("gp.lowrank_factor");
    let n = x.nrows();
    let diag: Vec<f64> = (0..n).map(|i| kernel.diag_value(x.row(i))).collect();
    let mut column =
        |p: usize| -> Vec<f64> { (0..n).map(|i| kernel.eval(x.row(i), x.row(p))).collect() };
    let pc = pivoted_cholesky(&diag, &mut column, max_rank, rel_tol).map_err(GpError::Linalg)?;
    Ok(pc.pivots().to_vec())
}

/// Select `m` inducing rows of `x` by greedy farthest-point (k-center)
/// traversal: start at row 0, repeatedly add the row farthest (Euclidean)
/// from the current set (lowest index on ties). Kernel-independent,
/// `O(n m)`, bit-identical across worker counts.
pub fn select_inducing_kcenter(x: &Matrix, m: usize) -> Vec<usize> {
    let _span = alperf_obs::span("gp.lowrank_factor");
    let n = x.nrows();
    let m = m.min(n);
    if m == 0 {
        return Vec::new();
    }
    let mut chosen = Vec::with_capacity(m);
    chosen.push(0usize);
    // min squared distance to the chosen set.
    let sq = |a: &[f64], b: &[f64]| -> f64 {
        a.iter().zip(b).map(|(p, q)| (p - q) * (p - q)).sum::<f64>()
    };
    let mut mind: Vec<f64> = (0..n).map(|i| sq(x.row(i), x.row(0))).collect();
    while chosen.len() < m {
        let (best, bestd) = mind.iter().copied().enumerate().fold(
            (0usize, f64::NEG_INFINITY),
            |(bi, bv), (i, v)| {
                if v > bv {
                    (i, v)
                } else {
                    (bi, bv)
                }
            },
        );
        if bestd <= 0.0 {
            break; // every remaining point coincides with a chosen one
        }
        chosen.push(best);
        for (i, md) in mind.iter_mut().enumerate() {
            let d = sq(x.row(i), x.row(best));
            if d < *md {
                *md = d;
            }
        }
    }
    chosen
}

/// Deterministic stride subsample of `k` row indices out of `n` (the
/// hyperparameter-fit subset for the approximate tier).
pub fn stride_subsample(n: usize, k: usize) -> Vec<usize> {
    if k >= n {
        return (0..n).collect();
    }
    (0..k).map(|i| i * n / k).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SquaredExponential;
    use crate::model::Gpr;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset(n: usize) -> (Matrix, Vec<f64>) {
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 8.0 / n as f64).collect();
        let y: Vec<f64> = xs.iter().map(|v| (0.9 * v).sin() * 2.0 + 5.0).collect();
        (Matrix::from_vec(n, 1, xs).unwrap(), y)
    }

    fn fit_pair(n: usize, m: usize, method: SparseMethod) -> (Gpr, SparseGpr) {
        let (x, y) = dataset(n);
        let kernel = SquaredExponential::new(1.0, 1.0);
        let exact = Gpr::fit(x.clone(), &y, Box::new(kernel.clone()), 0.05, true).unwrap();
        let pivots = select_inducing_pivoted(&kernel, &x, m, 0.0).unwrap();
        let z = x.select_rows(&pivots);
        let sparse = SparseGpr::fit(x, &y, Box::new(kernel), 0.05, true, method, z).unwrap();
        (exact, sparse)
    }

    #[test]
    fn full_rank_sor_matches_exact_posterior() {
        // With m = n (Z = all training points, pivoted order), SoR is the
        // exact posterior: Q_nn = K_nn.
        let (exact, sparse) = fit_pair(25, 25, SparseMethod::Sor);
        for q in [0.3, 2.1, 4.4, 7.9] {
            let e = exact.predict_one(&[q]).unwrap();
            let s = sparse.predict_one(&[q]).unwrap();
            assert!((e.mean - s.mean).abs() < 1e-7, "mean at {q}: {e:?} {s:?}");
            // K_mm = K_nn is near-singular on a dense SE grid; the jitter
            // ladder perturbs the two paths slightly differently.
            assert!((e.std - s.std).abs() < 5e-5, "std at {q}: {e:?} {s:?}");
        }
        assert!((exact.lml() - sparse.lml()).abs() < 1e-6);
    }

    #[test]
    fn full_rank_fitc_matches_exact_posterior() {
        let (exact, sparse) = fit_pair(25, 25, SparseMethod::Fitc);
        for q in [0.3, 2.1, 4.4, 7.9] {
            let e = exact.predict_one(&[q]).unwrap();
            let s = sparse.predict_one(&[q]).unwrap();
            assert!((e.mean - s.mean).abs() < 1e-7, "mean at {q}");
            assert!((e.std - s.std).abs() < 1e-6, "std at {q}");
        }
    }

    #[test]
    fn low_rank_is_close_on_smooth_data() {
        let (exact, sparse) = fit_pair(80, 12, SparseMethod::Fitc);
        assert_eq!(sparse.rank(), 12);
        for q in [0.5, 2.0, 3.7, 6.1, 7.5] {
            let e = exact.predict_one(&[q]).unwrap();
            let s = sparse.predict_one(&[q]).unwrap();
            assert!(
                (e.mean - s.mean).abs() < 5e-2,
                "mean at {q}: {} vs {}",
                e.mean,
                s.mean
            );
        }
    }

    #[test]
    fn fitc_far_field_variance_reverts_to_prior() {
        let (_, sparse) = fit_pair(60, 10, SparseMethod::Fitc);
        let p = sparse.predict_one(&[1000.0]).unwrap();
        let expect = sparse.standardizer().std; // unit-amplitude kernel
        assert!(
            (p.std - expect).abs() / expect < 1e-6,
            "far-field std {} vs prior {expect}",
            p.std
        );
        // SoR famously collapses out there instead.
        let (_, sor) = fit_pair(60, 10, SparseMethod::Sor);
        assert!(sor.predict_one(&[1000.0]).unwrap().std < 0.1 * expect);
    }

    #[test]
    fn predict_batch_matches_predict_one() {
        let (_, sparse) = fit_pair(50, 9, SparseMethod::Fitc);
        let grid = Matrix::from_vec(4, 1, vec![0.4, 1.9, 5.2, 7.7]).unwrap();
        let many = sparse.predict_batch(&grid).unwrap();
        for (i, p) in many.iter().enumerate() {
            let q = sparse.predict_one(grid.row(i)).unwrap();
            assert!((p.mean - q.mean).abs() <= 1e-10 * (1.0 + q.mean.abs()));
            assert!((p.std - q.std).abs() <= 1e-10 * (1.0 + q.std.abs()));
        }
        // Cross-matrix entry point agrees bit-for-bit.
        let kxz = sparse.kernel().cross_matrix(&grid, sparse.inducing());
        let via_cross = sparse.predict_batch_with_cross(&grid, &kxz).unwrap();
        assert_eq!(many, via_cross);
    }

    #[test]
    fn posterior_covariance_diagonal_matches_variance() {
        for method in [SparseMethod::Sor, SparseMethod::Fitc] {
            let (_, sparse) = fit_pair(40, 8, method);
            let q = Matrix::from_vec(3, 1, vec![0.8, 3.0, 6.5]).unwrap();
            let cov = sparse.posterior_covariance(&q).unwrap();
            for i in 0..3 {
                let p = sparse.predict_one(q.row(i)).unwrap();
                assert!(
                    (cov[(i, i)] - p.std * p.std).abs() < 1e-9,
                    "{method:?} diag {i}: {} vs {}",
                    cov[(i, i)],
                    p.std * p.std
                );
            }
            // Symmetric and factorable (PSD up to jitter).
            assert!(Cholesky::decompose_jittered(&cov, 1e-10, 12).is_ok());
        }
    }

    #[test]
    fn sample_posterior_moments_match() {
        let (_, sparse) = fit_pair(40, 10, SparseMethod::Fitc);
        let q = Matrix::from_vec(2, 1, vec![1.2, 6.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let samples = sparse.sample_posterior(&q, 3000, &mut rng).unwrap();
        for j in 0..2 {
            let vals: Vec<f64> = samples.iter().map(|s| s[j]).collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            let p = sparse.predict_one(q.row(j)).unwrap();
            assert!((mean - p.mean).abs() < 0.1, "mean at {j}");
        }
    }

    #[test]
    fn with_observation_matches_full_sparse_refit() {
        let (x, y) = dataset(30);
        let kernel = SquaredExponential::new(1.0, 1.0);
        let pivots = select_inducing_pivoted(&kernel, &x, 8, 0.0).unwrap();
        let z = x.select_rows(&pivots);
        let base = SparseGpr::fit(
            x.clone(),
            &y,
            Box::new(kernel.clone()),
            0.05,
            false,
            SparseMethod::Fitc,
            z.clone(),
        )
        .unwrap();
        let incr = base.with_observation(&[4.05], 5.3).unwrap();
        let x2 = x.with_row(&[4.05]).unwrap();
        let mut y2 = y;
        y2.push(5.3);
        let full = SparseGpr::fit(
            x2,
            &y2,
            Box::new(kernel),
            0.05,
            false,
            SparseMethod::Fitc,
            z,
        )
        .unwrap();
        assert_eq!(incr.n_train(), 31);
        assert!((incr.lml() - full.lml()).abs() < 1e-8);
        for q in [0.2, 2.2, 4.05, 7.0] {
            let a = incr.predict_one(&[q]).unwrap();
            let b = full.predict_one(&[q]).unwrap();
            assert!((a.mean - b.mean).abs() < 1e-8, "mean at {q}");
            assert!((a.std - b.std).abs() < 1e-8, "std at {q}");
        }
    }

    #[test]
    fn selectors_are_deterministic_and_distinct() {
        let (x, _) = dataset(50);
        let kernel = SquaredExponential::new(1.0, 1.0);
        let p1 = select_inducing_pivoted(&kernel, &x, 10, 0.0).unwrap();
        let p2 = select_inducing_pivoted(&kernel, &x, 10, 0.0).unwrap();
        assert_eq!(p1, p2);
        let mut s = p1.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), p1.len());
        let k1 = select_inducing_kcenter(&x, 10);
        let k2 = select_inducing_kcenter(&x, 10);
        assert_eq!(k1, k2);
        assert_eq!(k1.len(), 10);
        let mut ks = k1.clone();
        ks.sort_unstable();
        ks.dedup();
        assert_eq!(ks.len(), 10);
    }

    #[test]
    fn kcenter_spreads_points() {
        // On a uniform 1-D grid, k-center picks near-extremes early.
        let (x, _) = dataset(100);
        let k = select_inducing_kcenter(&x, 3);
        assert_eq!(k[0], 0);
        assert_eq!(k[1], 99); // farthest from row 0
    }

    #[test]
    fn stride_subsample_covers_range() {
        let idx = stride_subsample(1000, 10);
        assert_eq!(idx.len(), 10);
        assert_eq!(idx[0], 0);
        assert!(idx[9] >= 850);
        assert_eq!(stride_subsample(5, 10), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn shape_and_input_errors() {
        let (x, y) = dataset(10);
        let k: Box<dyn Kernel> = Box::new(SquaredExponential::unit());
        let z = x.select_rows(&[0, 5]);
        assert!(matches!(
            SparseGpr::fit(
                Matrix::zeros(0, 1),
                &[],
                k.clone_box(),
                0.1,
                true,
                SparseMethod::Fitc,
                z.clone()
            ),
            Err(GpError::Empty)
        ));
        assert!(SparseGpr::fit(
            x.clone(),
            &y[..5],
            k.clone_box(),
            0.1,
            true,
            SparseMethod::Fitc,
            z.clone()
        )
        .is_err());
        assert!(SparseGpr::fit(
            x.clone(),
            &y,
            k.clone_box(),
            f64::NAN,
            true,
            SparseMethod::Fitc,
            z.clone()
        )
        .is_err());
        let s = SparseGpr::fit(x, &y, k, 0.1, true, SparseMethod::Fitc, z).unwrap();
        assert!(matches!(
            s.predict_one(&[0.0, 1.0]),
            Err(GpError::Dimension(_))
        ));
        assert!(matches!(
            s.with_observation(&[0.0, 1.0], 0.0),
            Err(GpError::Dimension(_))
        ));
        assert_eq!(s.method(), SparseMethod::Fitc);
        assert_eq!(s.rank(), 2);
        assert_eq!(s.dim(), 1);
        assert!(s.condition_estimate() >= 1.0);
        assert!(s.noise_std_raw() > 0.0);
    }
}
