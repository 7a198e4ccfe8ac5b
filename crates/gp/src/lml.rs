//! Log marginal likelihood (Eq. 12) and its analytic gradient.
//!
//! With `K_y = K + sigma_n^2 I = L L^T` and `alpha = K_y^{-1} y`:
//!
//! ```text
//! LML = -1/2 y^T alpha - sum_i log L_ii - n/2 log(2 pi)
//! dLML/dtheta_j = 1/2 tr( (alpha alpha^T - K_y^{-1}) dK_y/dtheta_j )
//! ```
//!
//! `theta` stacks the kernel's log-parameters followed by `log sigma_n`
//! (when the noise level is optimized). For the noise component,
//! `dK_y/dlog sigma_n = 2 sigma_n^2 I`, so its gradient entry collapses to
//! `sigma_n^2 tr(alpha alpha^T - K_y^{-1})` without forming a matrix.

use crate::kernel::{DistanceForm, Kernel};
use alperf_linalg::{
    cholesky::Cholesky, fastmath, matrix::Matrix, vector::dot, vector::sq_dist, LinalgError,
};

/// First jitter magnitude (relative to the mean diagonal) for the Cholesky
/// retry ladder, and the number of rungs. Matches scikit-learn's behaviour
/// of bumping `alpha` when the covariance matrix is numerically indefinite.
const CHOL_JITTER: f64 = 1e-10;
const CHOL_TRIES: usize = 8;

/// Assemble the `n x n` kernel matrix `K` for training inputs `x`
/// (rows = points): each lower-triangle entry is evaluated once and
/// mirrored.
pub fn assemble_covariance(kernel: &dyn Kernel, x: &Matrix) -> Matrix {
    let n = x.nrows();
    let mut k = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v = kernel.eval(x.row(i), x.row(j));
            k[(i, j)] = v;
            k[(j, i)] = v;
        }
    }
    k
}

/// Cross-covariance vector `k_* = [k(x_*, x_i)]_i` (Eq. 9).
pub fn covariance_vector(kernel: &dyn Kernel, x: &Matrix, xstar: &[f64]) -> Vec<f64> {
    (0..x.nrows())
        .map(|i| kernel.eval(xstar, x.row(i)))
        .collect()
}

/// Per-fit cache of the pairwise squared distances, reused across every
/// LML evaluation of a `fit_gpr` call.
///
/// The training inputs are fixed for the whole multi-restart optimization
/// while the hyperparameters change at every gradient step and line-search
/// probe. Every stationary kernel is a function of the pairwise squared
/// distances only ([`Kernel::distance_form`]), so those are computed once
/// here — `O(n^2 d)` — and each covariance rebuild in an
/// [`LmlWorkspace`] reads them. Only the lower triangle is kept, packed
/// row by row.
pub struct FitCache {
    n: usize,
    kind: CacheKind,
}

enum CacheKind {
    /// Total pairwise squared distances (every form but ARD-SE).
    Total { d2: Vec<f64> },
    /// ARD SE: the squared distances of each input dimension.
    PerDim { d2: Vec<Vec<f64>> },
}

/// Row `i` of a packed lower triangle, diagonal included (`i + 1` long).
fn tri_row(packed: &[f64], i: usize) -> &[f64] {
    &packed[i * (i + 1) / 2..][..=i]
}

/// Copy a packed lower triangle into the lower triangle of `m`.
fn unpack_lower(packed: &[f64], m: &mut Matrix) {
    for i in 0..m.nrows() {
        m.row_mut(i)[..=i].copy_from_slice(tri_row(packed, i));
    }
}

/// The lower triangle of `f(i, j)` over `n` points, packed row by row.
fn packed(n: usize, f: impl Fn(usize, usize) -> f64) -> Vec<f64> {
    (0..n)
        .flat_map(|i| (0..=i).map(move |j| (i, j)))
        .map(|(i, j)| f(i, j))
        .collect()
}

impl FitCache {
    /// Precompute the squared distances `kernel`'s distance form reads on
    /// the training inputs `x` (rows = points): per dimension for ARD-SE,
    /// total otherwise.
    pub fn build(kernel: &dyn Kernel, x: &Matrix) -> FitCache {
        let n = x.nrows();
        let kind = match kernel.distance_form() {
            Some(DistanceForm::ArdSe { .. }) => CacheKind::PerDim {
                d2: (0..x.ncols())
                    .map(|c| {
                        packed(n, |i, j| {
                            let v = x.row(i)[c] - x.row(j)[c];
                            v * v
                        })
                    })
                    .collect(),
            },
            _ => CacheKind::Total {
                d2: packed(n, |i, j| sq_dist(x.row(i), x.row(j))),
            },
        };
        FitCache { n, kind }
    }

    /// Number of training points.
    pub fn order(&self) -> usize {
        self.n
    }
}

/// Result of a marginal-likelihood evaluation that is reused by the model:
/// the Cholesky factor of `K_y` and the weight vector `alpha`.
pub struct LmlParts {
    /// Cholesky factor of `K_y`.
    pub chol: Cholesky,
    /// `alpha = K_y^{-1} y`.
    pub alpha: Vec<f64>,
    /// Log marginal likelihood value.
    pub lml: f64,
}

/// Eq. 12 from the factor of `K_y` and `alpha = K_y^{-1} y`.
fn lml_from(y: &[f64], alpha: &[f64], chol: &Cholesky) -> f64 {
    -0.5 * dot(y, alpha)
        - 0.5 * chol.log_det()
        - 0.5 * y.len() as f64 * (2.0 * std::f64::consts::PI).ln()
}

/// Evaluate the LML (Eq. 12) for the given kernel and noise standard
/// deviation on `(x, y)` through pointwise covariance assembly
/// ([`assemble_covariance`]). Also returns the pieces needed for
/// prediction; `Gpr::fit` is built on it.
pub fn lml_parts(
    kernel: &dyn Kernel,
    noise_std: f64,
    x: &Matrix,
    y: &[f64],
) -> Result<LmlParts, LinalgError> {
    let n = x.nrows();
    if y.len() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "lml",
            details: format!("X has {n} rows, y has {}", y.len()),
        });
    }
    let mut ky = assemble_covariance(kernel, x);
    ky.add_diagonal(noise_std * noise_std);
    let chol = Cholesky::decompose_jittered(&ky, CHOL_JITTER, CHOL_TRIES)?;
    let alpha = chol.solve(y)?;
    let lml = lml_from(y, &alpha, &chol);
    Ok(LmlParts { chol, alpha, lml })
}

/// Evaluate just the LML value through pointwise assembly; convenience for
/// plotting likelihood landscapes (paper Figs. 4 and 5b).
pub fn lml_value(
    kernel: &dyn Kernel,
    noise_std: f64,
    x: &Matrix,
    y: &[f64],
) -> Result<f64, LinalgError> {
    Ok(lml_parts(kernel, noise_std, x, y)?.lml)
}

/// One [`LmlWorkspace::value`] through `cache`, in a fresh workspace.
pub fn lml_value_cached(
    kernel: &dyn Kernel,
    noise_std: f64,
    x: &Matrix,
    y: &[f64],
    cache: &FitCache,
) -> Result<f64, LinalgError> {
    LmlWorkspace::for_inputs(cache, x, y)?.value(kernel, noise_std)
}

/// Evaluate the LML and its gradient with respect to
/// `theta = [kernel log-params..., log sigma_n]` through a distance cache
/// built for this call (see [`lml_and_grad_cached`]).
///
/// When `optimize_noise` is `false` the returned gradient omits the final
/// noise component.
pub fn lml_and_grad(
    kernel: &dyn Kernel,
    noise_std: f64,
    x: &Matrix,
    y: &[f64],
    optimize_noise: bool,
) -> Result<(f64, Vec<f64>), LinalgError> {
    let cache = FitCache::build(kernel, x);
    lml_and_grad_cached(kernel, noise_std, x, y, optimize_noise, &cache)
}

/// One [`LmlWorkspace::value`] and [`LmlWorkspace::grad`] through `cache`,
/// in a fresh workspace.
pub fn lml_and_grad_cached(
    kernel: &dyn Kernel,
    noise_std: f64,
    x: &Matrix,
    y: &[f64],
    optimize_noise: bool,
    cache: &FitCache,
) -> Result<(f64, Vec<f64>), LinalgError> {
    let mut ws = LmlWorkspace::for_inputs(cache, x, y)?;
    let lml = ws.value(kernel, noise_std)?;
    Ok((lml, ws.grad(kernel, noise_std, optimize_noise)?))
}

/// The radial forms' covariance: each pair's `DistanceForm::radial_parts`
/// from the packed squared distances `d2` into `arg` and `tri`, then its
/// `radial_value` into the lower triangle of `ky`. Inlined into one call
/// site per variant, so each copy's per-pair `match` on the variant folds
/// away.
#[inline(always)]
fn radial_fill(form: &DistanceForm, d2: &[f64], arg: &mut [f64], tri: &mut [f64], ky: &mut Matrix) {
    for ((t, e), &dv) in arg.iter_mut().zip(tri.iter_mut()).zip(d2) {
        (*t, *e) = form.radial_parts(dv);
    }
    for i in 0..ky.nrows() {
        let parts = tri_row(arg, i).iter().zip(tri_row(tri, i));
        for (k, (&t, &e)) in ky.row_mut(i)[..=i].iter_mut().zip(parts) {
            *k = form.radial_value(t, e);
        }
    }
}

/// The radial forms' kernel-parameter gradient `1/2 sum_ij W_ij
/// dK_ij/dtheta` from the parts [`radial_fill`] left in `arg` and `tri`:
/// per row, the pairs `j <= i` in order (diagonal halved), then the row
/// into the total. Inlined per variant like [`radial_fill`].
#[inline(always)]
fn radial_contract(form: &DistanceForm, w: &Matrix, arg: &[f64], tri: &[f64]) -> [f64; 3] {
    let mut total = [0.0; 3];
    for i in 0..w.nrows() {
        let mut acc = [0.0; 3];
        let parts = tri_row(arg, i).iter().zip(tri_row(tri, i));
        for (j, (wv, (&t, &e))) in w.row(i)[..=i].iter().zip(parts).enumerate() {
            let m = if i == j { 0.5 * wv } else { *wv };
            let g = form.radial_grad(t, e);
            for (a, gj) in acc.iter_mut().zip(&g) {
                *a += m * gj;
            }
        }
        for (t, a) in total.iter_mut().zip(&acc) {
            *t += a;
        }
    }
    total
}

/// The error for a kernel whose distance form is missing or does not match
/// the [`FitCache`] it is evaluated through.
fn form_mismatch() -> LinalgError {
    LinalgError::DimensionMismatch {
        op: "lml",
        details: "the kernel's distance form does not match the fit cache".into(),
    }
}

/// The buffers of repeated LML evaluations over one [`FitCache`]: `K_y`,
/// its Cholesky factor, `alpha`, the gradient's weight matrix and the
/// gradient's scratch, all sized once, so a value evaluation allocates
/// nothing and a gradient only the vector it returns ([`Self::grad_into`]
/// reuses the caller's). Each optimizer restart owns one.
///
/// [`Self::value`] writes the lower triangle of `K_y` from the cached
/// distances (a vectorized scale-and-exp for the SE forms, one scalar
/// formula per pair for the radial forms), refactors it in place through
/// the jitter ladder and solves for `alpha` into its buffer.
/// [`Self::grad`] then forms the gradient from that state. Every float is
/// bit-identical to the allocating path this replaced: the same operations
/// run in the same order, only into reused buffers.
pub struct LmlWorkspace<'a> {
    cache: &'a FitCache,
    y: &'a [f64],
    /// `K_y`, lower triangle (the strict upper triangle stays zero).
    ky: Matrix,
    chol: Cholesky,
    /// `K_y^{-1} y`.
    alpha: Vec<f64>,
    /// `W = alpha alpha^T - K_y^{-1}`, lower triangle.
    w: Matrix,
    /// Scratch of `Cholesky::inverse_lower_into` (ends holding `L^{-1}`).
    linv: Matrix,
    /// Packed lower triangle of `K` for the SE forms' one vectorized
    /// exponential; for the radial forms, the second of each pair's
    /// `DistanceForm::radial_parts`, which `grad` reads back ...
    tri: Vec<f64>,
    /// ... with the first (radial forms only).
    arg: Vec<f64>,
    /// ARD-SE contraction scratch: one row of `W .* K` ...
    row: Vec<f64>,
    /// ... and that row's sum against each dimension's distances.
    dims: Vec<f64>,
    jitter_retries: usize,
}

impl<'a> LmlWorkspace<'a> {
    /// Workspace for the targets `y` of the points `cache` was built on.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] if `y` does not have one value
    /// per cached point.
    pub fn new(cache: &'a FitCache, y: &'a [f64]) -> Result<Self, LinalgError> {
        let n = cache.order();
        if y.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lml",
                details: format!("X has {n} rows, y has {}", y.len()),
            });
        }
        let nd = match &cache.kind {
            CacheKind::PerDim { d2 } => d2.len(),
            CacheKind::Total { .. } => 0,
        };
        Ok(LmlWorkspace {
            cache,
            y,
            ky: Matrix::zeros(n, n),
            chol: Cholesky::with_order(n),
            alpha: vec![0.0; n],
            w: Matrix::zeros(n, n),
            linv: Matrix::zeros(n, n),
            tri: vec![0.0; n * (n + 1) / 2],
            arg: vec![0.0; n * (n + 1) / 2],
            row: vec![0.0; n],
            dims: vec![0.0; nd],
            jitter_retries: 0,
        })
    }

    /// [`Self::new`] that also checks `x` has the cached point count.
    fn for_inputs(cache: &'a FitCache, x: &Matrix, y: &'a [f64]) -> Result<Self, LinalgError> {
        if x.nrows() != cache.order() {
            return Err(LinalgError::DimensionMismatch {
                op: "lml",
                details: format!("X has {} rows, the cache {}", x.nrows(), cache.order()),
            });
        }
        Self::new(cache, y)
    }

    /// Jitter-ladder rungs that failed across this workspace's
    /// evaluations (an exhausted ladder counts all of its rungs).
    pub fn jitter_retries(&self) -> usize {
        self.jitter_retries
    }

    /// LML (Eq. 12) at `kernel`'s current hyperparameters and noise
    /// standard deviation `noise_std`, keeping the factored state for a
    /// following [`Self::grad`].
    ///
    /// # Errors
    /// The factorization's errors ([`LinalgError::NonFinite`],
    /// [`LinalgError::NotPositiveDefinite`] once the jitter ladder is
    /// exhausted), or a [`LinalgError::DimensionMismatch`] when the
    /// kernel's distance form does not match the cache.
    pub fn value(&mut self, kernel: &dyn Kernel, noise_std: f64) -> Result<f64, LinalgError> {
        let n = self.cache.order();
        let (ky, tri) = (&mut self.ky, &mut self.tri);
        match (&self.cache.kind, kernel.distance_form()) {
            (CacheKind::Total { d2 }, Some(DistanceForm::IsoSe { length_scale, sf2 })) => {
                let c = -0.5 / (length_scale * length_scale);
                for (k, dv) in tri.iter_mut().zip(d2) {
                    *k = dv * c;
                }
                fastmath::exp_inplace_scaled(tri, sf2);
                unpack_lower(tri, ky);
            }
            (CacheKind::PerDim { d2 }, Some(DistanceForm::ArdSe { length_scales, sf2 }))
                if d2.len() == length_scales.len() =>
            {
                tri.fill(0.0);
                for (dm, l) in d2.iter().zip(&length_scales) {
                    let c = -0.5 / (l * l);
                    for (q, dv) in tri.iter_mut().zip(dm) {
                        *q += c * dv;
                    }
                }
                fastmath::exp_inplace_scaled(tri, sf2);
                unpack_lower(tri, ky);
            }
            (CacheKind::Total { d2 }, Some(form)) if form.is_radial() => {
                let arg = &mut self.arg;
                match form {
                    DistanceForm::Matern32 { .. } => radial_fill(&form, d2, arg, tri, ky),
                    DistanceForm::Matern52 { .. } => radial_fill(&form, d2, arg, tri, ky),
                    _ => radial_fill(&form, d2, arg, tri, ky),
                }
            }
            _ => return Err(form_mismatch()),
        }
        let noise_var = noise_std * noise_std;
        for i in 0..n {
            ky[(i, i)] += noise_var;
        }
        match self.chol.refactor_jittered(ky, CHOL_JITTER, CHOL_TRIES) {
            Ok(failed) => self.jitter_retries += failed,
            Err(e) => {
                if matches!(e, LinalgError::NotPositiveDefinite { .. }) {
                    self.jitter_retries += CHOL_TRIES;
                }
                return Err(e);
            }
        }
        self.chol.solve_into(self.y, &mut self.alpha)?;
        Ok(lml_from(self.y, &self.alpha, &self.chol))
    }

    /// Gradient of the LML with respect to
    /// `theta = [kernel log-params..., log sigma_n]` (the noise entry only
    /// when `optimize_noise`), at the hyperparameters of the last
    /// successful [`Self::value`], which `kernel` and `noise_std` must
    /// repeat.
    ///
    /// The gradient is `dLML/dtheta_j = 1/2 tr(W dK_y/dtheta_j)` with the
    /// symmetric weight `W = alpha alpha^T - K_y^{-1}` (Eq. 12's analytic
    /// gradient). `K_y^{-1}` comes from structure-exploiting triangular
    /// solves (`Cholesky::inverse_lower_into`; only the lower triangle,
    /// since `W` is symmetric and every consumer reads `i >= j`), and `W`
    /// is contracted with every `dK/dtheta_j` in one pass over the rows:
    ///
    /// * SE forms: `dK/dlog l (= K .* d2 / l^2)` and `dK/dlog sf (= 2 K)`
    ///   are functions of the assembled `K_y` and the cached `d2`, so the
    ///   contraction is pure row-slice arithmetic;
    /// * radial forms: `DistanceForm::radial_grad` supplies
    ///   `dK_ij/dtheta` pair by pair from the intermediates `value` left
    ///   for that pair (`DistanceForm::radial_parts`: every root,
    ///   division and transcendental of the pair), symmetry-folded
    ///   (diagonal once, off-diagonal twice).
    ///
    /// For the noise component `dK_y/dlog sigma_n = 2 sigma_n^2 I`, so its
    /// entry is `sigma_n^2 tr(W)`.
    ///
    /// # Errors
    /// Propagates triangular-solve failures, and the form mismatch of
    /// [`Self::value`].
    pub fn grad(
        &mut self,
        kernel: &dyn Kernel,
        noise_std: f64,
        optimize_noise: bool,
    ) -> Result<Vec<f64>, LinalgError> {
        let mut grad = Vec::with_capacity(kernel.n_params() + 1);
        self.grad_into(kernel, noise_std, optimize_noise, &mut grad)?;
        Ok(grad)
    }

    /// [`Self::grad`] into `grad`, which is cleared first, so a caller
    /// that keeps one vector allocates nothing after the first call.
    ///
    /// # Errors
    /// As [`Self::grad`].
    pub fn grad_into(
        &mut self,
        kernel: &dyn Kernel,
        noise_std: f64,
        optimize_noise: bool,
        grad: &mut Vec<f64>,
    ) -> Result<(), LinalgError> {
        grad.clear();
        let n = self.cache.order();
        let (w, ky) = (&mut self.w, &self.ky);
        self.chol.inverse_lower_into(w, &mut self.linv)?;
        for i in 0..n {
            let ai = self.alpha[i];
            for (wv, aj) in w.row_mut(i)[..=i].iter_mut().zip(&self.alpha) {
                *wv = ai * aj - *wv;
            }
        }
        let np = kernel.n_params();
        match (&self.cache.kind, kernel.distance_form()) {
            (CacheKind::Total { d2 }, Some(DistanceForm::IsoSe { length_scale, sf2 })) => {
                let inv_l2 = 1.0 / (length_scale * length_scale);
                let (mut sl, mut sk) = (0.0, 0.0);
                for i in 0..n {
                    let wrow = &w.row(i)[..i];
                    let krow = &ky.row(i)[..i];
                    let drow = &tri_row(d2, i)[..i];
                    let (mut rl, mut rk) = (0.0, 0.0);
                    for ((wv, kv), dv) in wrow.iter().zip(krow).zip(drow) {
                        let wk = wv * kv;
                        rk += wk;
                        rl += wk * dv;
                    }
                    sl += rl;
                    // Diagonal: d2 = 0 kills the length-scale term; K_ii =
                    // sf2 (the stored K_y diagonal carries the noise, so use
                    // the exact kernel value instead).
                    sk += rk + 0.5 * w[(i, i)] * sf2;
                }
                grad.extend([sl * inv_l2, 2.0 * sk]);
            }
            (CacheKind::PerDim { d2 }, Some(DistanceForm::ArdSe { length_scales, sf2 }))
                if d2.len() == length_scales.len() =>
            {
                grad.resize(d2.len(), 0.0);
                let mut sk = 0.0;
                for i in 0..n {
                    let wk = &mut self.row[..i];
                    for ((o, wv), kv) in wk.iter_mut().zip(&w.row(i)[..i]).zip(&ky.row(i)[..i]) {
                        *o = wv * kv;
                    }
                    for (rd, dm) in self.dims.iter_mut().zip(d2) {
                        *rd = 0.0;
                        for (wkv, dv) in wk.iter().zip(tri_row(dm, i)) {
                            *rd += wkv * dv;
                        }
                    }
                    for (g, rd) in grad.iter_mut().zip(&self.dims) {
                        *g += rd;
                    }
                    // `0.0 +` as the reference has it: a row of `-0.0`
                    // products sums to `-0.0`, and this makes it `+0.0`.
                    let rk = 0.0 + wk.iter().sum::<f64>();
                    sk += rk + 0.5 * w[(i, i)] * sf2;
                }
                for (g, l) in grad.iter_mut().zip(&length_scales) {
                    *g /= l * l;
                }
                grad.push(2.0 * sk);
            }
            (CacheKind::Total { .. }, Some(form)) if form.is_radial() => {
                let (arg, tri) = (&self.arg, &self.tri);
                let total = match form {
                    DistanceForm::Matern32 { .. } => radial_contract(&form, w, arg, tri),
                    DistanceForm::Matern52 { .. } => radial_contract(&form, w, arg, tri),
                    _ => radial_contract(&form, w, arg, tri),
                };
                grad.extend_from_slice(&total[..np.min(3)]);
            }
            _ => return Err(form_mismatch()),
        }
        if optimize_noise {
            let tr_w: f64 = (0..n).map(|i| w[(i, i)]).sum();
            grad.push(noise_std * noise_std * tr_w);
        }
        Ok(())
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{
        ArdSquaredExponential, Matern32, Matern52, RationalQuadratic, SquaredExponential,
    };

    fn toy_data() -> (Matrix, Vec<f64>) {
        let x = Matrix::from_rows(&[&[0.0], &[0.5], &[1.3], &[2.0], &[2.6]]).unwrap();
        let y = vec![0.1, 0.4, 0.9, 0.3, -0.5];
        (x, y)
    }

    #[test]
    fn covariance_is_symmetric_with_unit_diag_scale() {
        let (x, _) = toy_data();
        let k = SquaredExponential::new(1.0, 2.0);
        let c = assemble_covariance(&k, &x);
        for i in 0..x.nrows() {
            assert!((c[(i, i)] - 4.0).abs() < 1e-14);
            for j in 0..x.nrows() {
                assert_eq!(c[(i, j)], c[(j, i)]);
            }
        }
    }

    #[test]
    fn lml_of_single_point_matches_gaussian_logpdf() {
        // One observation: LML = log N(y | 0, sigma_f^2 + sigma_n^2).
        let x = Matrix::from_rows(&[&[0.0]]).unwrap();
        let y = vec![0.7];
        let sf = 1.5;
        let sn = 0.3;
        let k = SquaredExponential::new(1.0, sf);
        let var = sf * sf + sn * sn;
        let expect =
            -0.5 * y[0] * y[0] / var - 0.5 * var.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln();
        let got = lml_value(&k, sn, &x, &y).unwrap();
        assert!((got - expect).abs() < 1e-10, "{got} vs {expect}");
    }

    #[test]
    fn lml_gradient_matches_finite_difference() {
        let (x, y) = toy_data();
        let kernel = SquaredExponential::new(0.9, 1.2);
        let sn: f64 = 0.25;
        let (_, grad) = lml_and_grad(&kernel, sn, &x, &y, true).unwrap();
        assert_eq!(grad.len(), 3);
        let h = 1e-6;
        // Kernel params.
        let p0 = kernel.params();
        for j in 0..2 {
            let mut kp = kernel.clone();
            let mut p = p0.clone();
            p[j] += h;
            kp.set_params(&p);
            let up = lml_value(&kp, sn, &x, &y).unwrap();
            p[j] -= 2.0 * h;
            kp.set_params(&p);
            let dn = lml_value(&kp, sn, &x, &y).unwrap();
            let fd = (up - dn) / (2.0 * h);
            assert!(
                (fd - grad[j]).abs() <= 1e-4 * (1.0 + fd.abs()),
                "kernel param {j}: fd={fd} analytic={}",
                grad[j]
            );
        }
        // Noise param (theta = log sigma_n).
        let up = lml_value(&kernel, (sn.ln() + h).exp(), &x, &y).unwrap();
        let dn = lml_value(&kernel, (sn.ln() - h).exp(), &x, &y).unwrap();
        let fd = (up - dn) / (2.0 * h);
        assert!(
            (fd - grad[2]).abs() <= 1e-4 * (1.0 + fd.abs()),
            "noise: fd={fd} analytic={}",
            grad[2]
        );
    }

    #[test]
    fn grad_excludes_noise_when_not_optimized() {
        let (x, y) = toy_data();
        let kernel = SquaredExponential::unit();
        let (_, grad) = lml_and_grad(&kernel, 0.1, &x, &y, false).unwrap();
        assert_eq!(grad.len(), 2);
    }

    #[test]
    fn higher_noise_explains_scatter_better_than_tiny_noise() {
        // Pure-noise data around zero: LML should prefer sigma_n ~ data std
        // over a tiny sigma_n with the same kernel.
        let x = Matrix::from_rows(&[&[0.0], &[0.1], &[0.2], &[0.3], &[0.4], &[0.5]]).unwrap();
        let y = vec![0.9, -1.1, 1.0, -0.8, 1.2, -1.0];
        let k = SquaredExponential::new(5.0, 1.0); // long scale: can't wiggle
        let low = lml_value(&k, 1e-4, &x, &y).unwrap();
        let high = lml_value(&k, 1.0, &x, &y).unwrap();
        assert!(high > low, "high-noise {high} should beat low-noise {low}");
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0]]).unwrap();
        let y = vec![1.0];
        assert!(lml_value(&SquaredExponential::unit(), 0.1, &x, &y).is_err());
    }

    #[test]
    fn covariance_vector_matches_pointwise() {
        let (x, _) = toy_data();
        let k = SquaredExponential::new(0.7, 1.1);
        let xs = [0.9];
        let kv = covariance_vector(&k, &x, &xs);
        assert_eq!(kv.len(), x.nrows());
        for (i, kvi) in kv.iter().enumerate() {
            assert_eq!(*kvi, k.eval(&xs, x.row(i)));
        }
    }

    /// The five stationary kernels, in 2-D.
    fn stationary_kernels() -> Vec<Box<dyn Kernel>> {
        vec![
            Box::new(SquaredExponential::new(0.9, 1.2)),
            Box::new(ArdSquaredExponential::new(vec![0.7, 1.6], 0.8)),
            Box::new(Matern32::new(1.1, 0.9)),
            Box::new(Matern52::new(0.8, 1.3)),
            Box::new(RationalQuadratic::new(1.2, 1.1, 0.7)),
        ]
    }

    /// `n` irregular 2-D points with every fifth row a duplicate of the row
    /// before it, and a response with some structure.
    fn duplicated_data(n: usize) -> (Matrix, Vec<f64>) {
        let mut x = Matrix::from_fn(n, 2, |i, j| ((i * 7 + j * 3) as f64 * 0.61).sin() * 2.0);
        for i in (5..n).step_by(5) {
            let prev = x.row(i - 1).to_vec();
            x.row_mut(i).copy_from_slice(&prev);
        }
        let y = (0..n)
            .map(|i| (i as f64 * 0.37).cos() + 0.1 * i as f64)
            .collect();
        (x, y)
    }

    fn same_error(got: &LinalgError, want: &LinalgError) -> bool {
        match (got, want) {
            (
                LinalgError::NotPositiveDefinite { pivot: p, value: v },
                LinalgError::NotPositiveDefinite { pivot: q, value: w },
            ) => p == q && v.to_bits() == w.to_bits(),
            _ => got == want,
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// One value + gradient through a reused workspace against the
    /// allocating reference; returns whether the evaluation succeeded.
    fn check_against_reference(
        ws: &mut LmlWorkspace<'_>,
        kernel: &dyn Kernel,
        noise: f64,
        x: &Matrix,
        y: &[f64],
        case: &str,
    ) -> bool {
        let rc = reference::RefCache::build(kernel, x);
        let want = reference::evaluate(kernel, noise, x, y, &rc);
        match (ws.value(kernel, noise), &want) {
            (Ok(lml), Ok(state)) => {
                assert_eq!(lml.to_bits(), state.2.to_bits(), "{case}: lml");
                for opt in [false, true] {
                    let got = ws.grad(kernel, noise, opt);
                    let want = reference::gradient(kernel, noise, x, opt, state, &rc);
                    match (got, want) {
                        (Ok(g), Ok(w)) => assert_eq!(bits(&g), bits(&w), "{case}: grad {opt}"),
                        (Err(e), Err(w)) => assert!(same_error(&e, &w), "{case}: {e:?} vs {w:?}"),
                        (g, w) => panic!("{case}: grad {g:?} vs {w:?}"),
                    }
                }
                true
            }
            (Err(e), Err(w)) => {
                assert!(same_error(&e, w), "{case}: {e:?} vs {w:?}");
                false
            }
            (got, _) => panic!("{case}: {got:?} vs {:?}", want.map(|s| s.2)),
        }
    }

    /// The workspace reproduces the allocating path it replaced bit for
    /// bit — value, gradient with and without the noise entry, and typed
    /// errors — for every stationary kernel, at orders from 1 to 130, with
    /// duplicated rows under the 1e-8 noise floor (jitter rungs) and one
    /// workspace reused across settings.
    #[test]
    fn workspace_matches_the_allocating_path_bit_for_bit() {
        let mut climbed = 0;
        for n in [1usize, 2, 7, 13, 40, 63, 64, 65, 130] {
            let (x, y) = duplicated_data(n);
            for template in stationary_kernels() {
                let cache = FitCache::build(template.as_ref(), &x);
                let mut ws = LmlWorkspace::new(&cache, &y).unwrap();
                let mut kernel = template.clone_box();
                let p0 = template.params();
                for (shift, noise) in [(0.0, 0.1), (0.4, 1e-8), (-0.3, 1e-8), (0.0, 0.1)] {
                    let p: Vec<f64> = p0.iter().map(|v| v + shift).collect();
                    kernel.set_params(&p);
                    let case = format!("{:?} n={n} shift={shift} noise={noise}", p0);
                    assert!(check_against_reference(
                        &mut ws,
                        kernel.as_ref(),
                        noise,
                        &x,
                        &y,
                        &case
                    ));
                }
                climbed += usize::from(ws.jitter_retries() > 0);
            }
        }
        assert!(
            climbed > 10,
            "only {climbed} workspaces climbed the jitter ladder"
        );
    }

    /// Non-finite inputs end in the same typed error on both paths, and a
    /// workspace that failed evaluates the next setting correctly.
    #[test]
    fn workspace_errors_match_the_allocating_path() {
        let (mut x, y) = duplicated_data(9);
        for template in stationary_kernels() {
            let cache = FitCache::build(template.as_ref(), &x);
            let mut ws = LmlWorkspace::new(&cache, &y).unwrap();
            // An amplitude that overflows to infinity.
            let mut huge = template.clone_box();
            let mut p = huge.params();
            let amp = huge.param_names().iter().position(|n| n == "log_amplitude");
            p[amp.unwrap()] = 800.0;
            huge.set_params(&p);
            for (kernel, noise) in [
                (template.as_ref(), f64::NAN),
                (template.as_ref(), f64::INFINITY),
                (huge.as_ref(), 0.1),
            ] {
                let case = format!("{:?} noise={noise}", kernel.params());
                assert!(!check_against_reference(
                    &mut ws, kernel, noise, &x, &y, &case
                ));
            }
            assert!(check_against_reference(
                &mut ws,
                template.as_ref(),
                0.2,
                &x,
                &y,
                "after errors"
            ));
        }
        x[(3, 1)] = f64::NAN;
        for kernel in stationary_kernels() {
            let cache = FitCache::build(kernel.as_ref(), &x);
            let mut ws = LmlWorkspace::new(&cache, &y).unwrap();
            let case = "NaN input";
            assert!(!check_against_reference(
                &mut ws,
                kernel.as_ref(),
                0.1,
                &x,
                &y,
                case
            ));
        }
        let cache = FitCache::build(&SquaredExponential::unit(), &x);
        assert!(LmlWorkspace::new(&cache, &y[..3]).is_err());
        let mut ws = LmlWorkspace::new(&cache, &y).unwrap();
        let ard = ArdSquaredExponential::unit(2);
        assert!(matches!(
            ws.value(&ard, 0.1),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }
}
