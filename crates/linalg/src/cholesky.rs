//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! The single most important numerical routine in the workspace: every GPR
//! fit, prediction, and log-marginal-likelihood evaluation goes through
//! `K_y = L L^T`. Covariance matrices built from a squared-exponential
//! kernel are notoriously ill-conditioned when training inputs are close
//! together relative to the length scale, so [`Cholesky::decompose_jittered`]
//! retries with geometrically increasing diagonal jitter — the same strategy
//! scikit-learn's `GaussianProcessRegressor` (used by the paper) employs.

#[cfg(target_arch = "x86_64")]
use crate::cpu;
use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::triangular::{
    forward_sub_block, solve_lower, solve_lower_in_place, solve_lower_matrix, solve_lower_rhs_rows,
    solve_lower_transpose_in_place, solve_lower_transpose_matrix,
};
use std::ops::Range;

/// Column-block width of [`Cholesky::factor_inverse`]'s unit-RHS solve;
/// matches the multi-RHS triangular solver's `RHS_BLOCK`.
const BLOCK: usize = 64;

/// Below this order the factorization runs the scalar sweep on every CPU:
/// there the tiled kernel mostly waits on its chain of square roots and
/// divides, and its transposed copies cost more than its tiles save.
#[cfg(target_arch = "x86_64")]
const TILED_MIN: usize = 13;

/// A lower-triangular Cholesky factor `L` with `A = L L^T`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
    /// Jitter that had to be added to the diagonal for the factorization to
    /// succeed (0.0 when the matrix was PD as given).
    jitter: f64,
    /// Working storage of the factor kernels (the scalar sweep's pivot
    /// column, the tiled sweep's column-major copy): sized by the first
    /// [`Cholesky::refactor_jittered`] and reused by every later one; empty
    /// in one-shot factors.
    scratch: Vec<f64>,
}

/// Check that `a` is square with finite entries. Hoisted out of the
/// factorization so the jitter retry ladder validates exactly once.
fn validate(a: &Matrix) -> Result<(), LinalgError> {
    if a.ncols() != a.nrows() {
        return Err(LinalgError::DimensionMismatch {
            op: "cholesky",
            details: format!("{}x{} is not square", a.nrows(), a.ncols()),
        });
    }
    if !a.all_finite() {
        return Err(LinalgError::NonFinite { op: "cholesky" });
    }
    Ok(())
}

/// Factor `a + jitter I` into `l`, a buffer of the same order whose strict
/// upper triangle is zero and stays so; only the lower triangle of `a` is
/// read, and `scratch` is resized as the kernel needs. On failure the
/// lower triangle of `l` is unspecified.
///
/// Every element of `L` sees exactly the operations of the left-looking
/// dot-product sweep, in its order: a separate multiply and subtract per
/// `k`, `k` ascending, then one square root (diagonal) or divide. So the
/// factor, the failing pivot and its value are bit-identical to that
/// sweep's whichever kernel runs, and the kernel is picked from the order
/// and the CPU alone: the register-tiled AVX-512 sweep from
/// [`TILED_MIN`] up, the scalar sweep otherwise.
fn factor(
    l: &mut Matrix,
    scratch: &mut Vec<f64>,
    a: &Matrix,
    jitter: f64,
) -> Result<(), LinalgError> {
    #[cfg(target_arch = "x86_64")]
    if a.nrows() >= TILED_MIN && cpu::isa() == cpu::Isa::Avx512 {
        // SAFETY: `isa()` verified avx512f support on this CPU.
        return unsafe { avx512::factor(l, scratch, a, jitter) };
    }
    restore_lower(l, a, jitter);
    let n = a.nrows();
    if scratch.len() < n {
        scratch.resize(n, 0.0);
    }
    factor_scalar(l.as_mut_slice(), &mut scratch[..n])
}

/// Copy the strict lower triangle of `a` into `l` and set every diagonal
/// entry to `a_ii + jitter`.
fn restore_lower(l: &mut Matrix, a: &Matrix, jitter: f64) {
    for i in 0..a.nrows() {
        let dst = l.row_mut(i);
        let src = a.row(i);
        dst[..i].copy_from_slice(&src[..i]);
        dst[i] = src[i] + jitter;
    }
}

/// The scalar right-looking sweep over the lower triangle of the row-major
/// `n x n` matrix `data` (which holds `A + jitter I`), `n = buf.len()`.
///
/// After pivot `j` is taken, column `j` is scaled into the contiguous
/// `buf`, and each later row `i` applies
/// `row_i[j+1..=i] -= l_ij * col[j+1..=i]` as one vectorizable pass. Kept
/// out of line: inlined into the jitter ladder it measured 1–4% slower at
/// the small orders it serves.
#[inline(never)]
fn factor_scalar(data: &mut [f64], buf: &mut [f64]) -> Result<(), LinalgError> {
    let n = buf.len();
    for j in 0..n {
        let d = data[j * n + j];
        if d <= 0.0 || !d.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { pivot: j, value: d });
        }
        let dsqrt = d.sqrt();
        data[j * n + j] = dsqrt;
        // Row t of `rows` is row j+1+t; `col[t]` receives its l_{j+1+t, j}.
        // Row t's update reads only col[..=t], so each row is scaled and
        // updated in one visit.
        let col = &mut buf[..n - j - 1];
        let rows = data[(j + 1) * n..].chunks_exact_mut(n);
        for (t, row) in rows.take(col.len()).enumerate() {
            let lij = row[j] / dsqrt;
            row[j] = lij;
            col[t] = lij;
            for (a, &c) in row[j + 1..=j + 1 + t].iter_mut().zip(&col[..=t]) {
                *a -= lij * c;
            }
        }
    }
    Ok(())
}

/// `w[i][..=i] = sum_k linv[k][i] * linv[k][..=i]` for each row `i` in
/// `rows`, `k` ascending from `i`, and `w[i][i+1..] = 0`: the scalar
/// accumulation of [`Cholesky::inverse_lower`] (each element starts at
/// `+0.0` and adds one separately rounded product per `k`).
fn accumulate_inverse_scalar(linv: &Matrix, w: &mut Matrix, rows: Range<usize>) {
    let n = linv.nrows();
    for i in rows {
        let wi = w.row_mut(i);
        wi.fill(0.0);
        let wi = &mut wi[..=i];
        for k in i..n {
            let lk = &linv.row(k)[..=i];
            let c = lk[i];
            for (a, &b) in wi.iter_mut().zip(lk) {
                *a += c * b;
            }
        }
    }
}

/// Register-tiled AVX-512 kernels for the two cubic loops behind every LML
/// evaluation: the factorization sweep and `inverse_lower`'s accumulation.
/// Vector lanes only ever hold independent elements, and each element gets
/// its own `mul` and then a separate `add`/`sub` per `k` (never an FMA),
/// `k` ascending, then its one `div` or `sqrt`, so both are bit-identical
/// to the scalar loops.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{LinalgError, Matrix};
    use std::arch::x86_64::*;

    /// f64 lanes of a zmm register.
    const LANES: usize = 8;
    /// Columns per panel of the tiled factorization.
    const PANEL: usize = 4;

    /// Mask of the first `k` lanes (all of them for `k >= LANES`).
    fn lanes(k: usize) -> __mmask8 {
        ((1u32 << k.min(LANES)) - 1) as __mmask8
    }

    /// `acc + c * b` as a rounded product, then a rounded sum.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn add_product(acc: __m512d, c: __m512d, b: __m512d) -> __m512d {
        _mm512_add_pd(acc, _mm512_mul_pd(c, b))
    }

    /// `acc - c * b` as a rounded product, then a rounded difference.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn sub_product(acc: __m512d, c: __m512d, b: __m512d) -> __m512d {
        _mm512_sub_pd(acc, _mm512_mul_pd(c, b))
    }

    /// Column stride of the tiled sweep's column-major copy: `n` rounded up
    /// to whole cache lines, and an odd number of them, so that walking
    /// along a row (one line per column) spreads over every cache set
    /// instead of aliasing into a few when `8n` is a power of two.
    fn stride(n: usize) -> usize {
        let lines = n.div_ceil(LANES);
        (lines | 1) * LANES
    }

    /// Tiled factorization of `a + jitter I` into `l`, with the contract
    /// of `super::factor`.
    ///
    /// The sweep runs on a column-major copy in `scratch`, so column `c` of
    /// `L` (rows `c..n`) is contiguous and vectors run down the rows. It is
    /// left-looking by panels of [`PANEL`] columns: [`outer`] applies every
    /// finished column's updates to the panel, the panel's pivots are taken
    /// in scalar code, and [`below`] finishes the rows under them. Each
    /// element thus still meets its updates `k = 0, 1, ...` in ascending
    /// order and then its divide. On success the factor is copied into the
    /// lower triangle of `l`.
    ///
    /// # Safety
    /// The CPU must support `avx512f`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn factor(
        l: &mut Matrix,
        scratch: &mut Vec<f64>,
        a: &Matrix,
        jitter: f64,
    ) -> Result<(), LinalgError> {
        let n = a.nrows();
        let s = stride(n);
        if scratch.len() < s * n {
            scratch.resize(s * n, 0.0);
        }
        let cm = &mut scratch[..s * n];
        for i in 0..n {
            let src = a.row(i);
            for (c, &v) in src[..i].iter().enumerate() {
                cm[c * s + i] = v;
            }
            cm[i * s + i] = src[i] + jitter;
        }
        sweep(cm, n, s)?;
        for i in 0..n {
            for (c, v) in l.row_mut(i)[..=i].iter_mut().enumerate() {
                *v = cm[c * s + i];
            }
        }
        Ok(())
    }

    /// The panel loop of [`factor`] over the column-major `cm` (order `n`,
    /// column stride `s`). A trailing panel narrower than [`PANEL`] is
    /// taken one column at a time.
    #[target_feature(enable = "avx512f")]
    fn sweep(cm: &mut [f64], n: usize, s: usize) -> Result<(), LinalgError> {
        let mut c0 = 0;
        while c0 < n {
            let w = if n - c0 >= PANEL { PANEL } else { 1 };
            if w == PANEL {
                outer::<PANEL>(cm, n, s, c0);
            } else {
                outer::<1>(cm, n, s, c0);
            }
            // The panel's diagonal block, left-looking over its own
            // columns: every update from `j < c0` is already in.
            let mut pivots = [0.0; PANEL];
            for c in c0..c0 + w {
                let mut d = cm[c * s + c];
                for j in c0..c {
                    let v = cm[j * s + c];
                    d -= v * v;
                }
                if d <= 0.0 || !d.is_finite() {
                    return Err(LinalgError::NotPositiveDefinite { pivot: c, value: d });
                }
                let r = d.sqrt();
                cm[c * s + c] = r;
                pivots[c - c0] = r;
                for i in c + 1..c0 + w {
                    let mut x = cm[c * s + i];
                    for j in c0..c {
                        x -= cm[j * s + i] * cm[j * s + c];
                    }
                    cm[c * s + i] = x / r;
                }
            }
            if w == PANEL {
                below::<PANEL>(cm, n, s, c0, &pivots);
            } else {
                below::<1>(cm, n, s, c0, &pivots);
            }
            c0 += w;
        }
        Ok(())
    }

    /// Subtract `L[i][j] * L[c][j]`, `j` ascending over the finished
    /// columns `0..c0`, from every element of panel columns `c0..c0 + W`
    /// in rows `c0..n`: tiles of 8 rows x `W` columns stay in `W` zmm
    /// registers for the whole `j` sweep. A tile row above its column's
    /// diagonal lands in that column's unused upper part.
    #[target_feature(enable = "avx512f")]
    fn outer<const W: usize>(cm: &mut [f64], n: usize, s: usize, c0: usize) {
        if c0 == 0 {
            return;
        }
        assert!(c0 + W <= n && n <= s && cm.len() >= s * n);
        let p = cm.as_mut_ptr();
        for i0 in (c0..n).step_by(LANES) {
            let m = lanes(n - i0);
            // SAFETY: rows i0..i0 + 8 are masked to i0..n, and every column
            // touched (`j < c0`, `c0 + t < c0 + W <= n`) lies inside the
            // s x n buffer `cm`.
            unsafe {
                let mut acc: [__m512d; W] =
                    std::array::from_fn(|t| _mm512_maskz_loadu_pd(m, p.add((c0 + t) * s + i0)));
                for j in 0..c0 {
                    let col = p.add(j * s);
                    let x = _mm512_maskz_loadu_pd(m, col.add(i0));
                    for (t, a) in acc.iter_mut().enumerate() {
                        *a = sub_product(*a, x, _mm512_set1_pd(*col.add(c0 + t)));
                    }
                }
                for (t, a) in acc.iter().enumerate() {
                    _mm512_mask_storeu_pd(p.add((c0 + t) * s + i0), m, *a);
                }
            }
        }
    }

    /// Finish panel columns `c0..c0 + W` in the rows below their diagonal
    /// block: each element subtracts `L[i][j] * L[c][j]` for the panel's
    /// earlier columns `j`, ascending, then divides by its pivot — 8 rows
    /// per vector, the panel's `W` columns in registers.
    #[target_feature(enable = "avx512f")]
    fn below<const W: usize>(cm: &mut [f64], n: usize, s: usize, c0: usize, pivots: &[f64; PANEL]) {
        assert!(c0 + W <= n && n <= s && cm.len() >= s * n);
        let p = cm.as_mut_ptr();
        for i0 in (c0 + W..n).step_by(LANES) {
            let m = lanes(n - i0);
            // SAFETY: as in `outer`, rows are masked to i0..n and columns
            // stay below c0 + W <= n.
            unsafe {
                let mut v: [__m512d; W] =
                    std::array::from_fn(|t| _mm512_maskz_loadu_pd(m, p.add((c0 + t) * s + i0)));
                for t in 0..W {
                    for j in 0..t {
                        let lcj = _mm512_set1_pd(*p.add((c0 + j) * s + c0 + t));
                        v[t] = sub_product(v[t], v[j], lcj);
                    }
                    v[t] = _mm512_div_pd(v[t], _mm512_set1_pd(pivots[t]));
                }
                for (t, x) in v.iter().enumerate() {
                    _mm512_mask_storeu_pd(p.add((c0 + t) * s + i0), m, *x);
                }
            }
        }
    }

    /// `inverse_lower`'s accumulation `w[i][..=i] += linv[k][i] *
    /// linv[k][..=i]`, `k` ascending from `i`, for the rows of every full
    /// tile of 4: tiles of 4 rows x 8 columns stay in zmm registers for the
    /// whole `k` sweep, and row `i0 + t` of a tile joins it at `k = i0 + t`.
    /// Writes only the lower triangle of those rows and returns the first
    /// row it left to the caller.
    ///
    /// # Safety
    /// The CPU must support `avx512f`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn accumulate_inverse(linv: &Matrix, w: &mut Matrix) -> usize {
        let n = linv.nrows();
        assert!(linv.ncols() == n && w.nrows() == n && w.ncols() == n);
        let lp = linv.as_slice().as_ptr();
        let wp = w.as_mut_slice().as_mut_ptr();
        let mut i0 = 0;
        while i0 + 4 <= n {
            for j0 in (0..i0 + 4).step_by(LANES) {
                let m = lanes(i0 + 4 - j0);
                // SAFETY: every row read is k < n, columns are masked to
                // j0..i0 + 4 <= n, and the stores to rows i0..i0 + 4 < n
                // are masked to their own lower triangle.
                unsafe {
                    let row = |k: usize| lp.add(k * n);
                    let coef = |k: usize, t: usize| _mm512_set1_pd(*row(k).add(i0 + t));
                    let mut a0 = _mm512_setzero_pd();
                    let mut a1 = _mm512_setzero_pd();
                    let mut a2 = _mm512_setzero_pd();
                    let mut a3 = _mm512_setzero_pd();
                    let b = _mm512_maskz_loadu_pd(m, row(i0).add(j0));
                    a0 = add_product(a0, coef(i0, 0), b);
                    let b = _mm512_maskz_loadu_pd(m, row(i0 + 1).add(j0));
                    a0 = add_product(a0, coef(i0 + 1, 0), b);
                    a1 = add_product(a1, coef(i0 + 1, 1), b);
                    let b = _mm512_maskz_loadu_pd(m, row(i0 + 2).add(j0));
                    a0 = add_product(a0, coef(i0 + 2, 0), b);
                    a1 = add_product(a1, coef(i0 + 2, 1), b);
                    a2 = add_product(a2, coef(i0 + 2, 2), b);
                    for k in i0 + 3..n {
                        let b = _mm512_maskz_loadu_pd(m, row(k).add(j0));
                        a0 = add_product(a0, coef(k, 0), b);
                        a1 = add_product(a1, coef(k, 1), b);
                        a2 = add_product(a2, coef(k, 2), b);
                        a3 = add_product(a3, coef(k, 3), b);
                    }
                    for (t, a) in [a0, a1, a2, a3].into_iter().enumerate() {
                        let keep = lanes((i0 + t + 1).saturating_sub(j0));
                        _mm512_mask_storeu_pd(wp.add((i0 + t) * n + j0), keep, a);
                    }
                }
            }
            i0 += 4;
        }
        i0
    }
}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix. Only the lower triangle
    /// of `a` is read. One kernel family serves every order: the
    /// register-tiled AVX-512 sweep where the CPU has it (from a small
    /// order up), the scalar right-looking sweep otherwise; both are
    /// bit-identical to the left-looking dot-product sweep.
    ///
    /// # Errors
    /// [`LinalgError::NotPositiveDefinite`] if a pivot is `<= 0`;
    /// [`LinalgError::DimensionMismatch`] if `a` is not square;
    /// [`LinalgError::NonFinite`] if the input contains NaN/inf.
    pub fn decompose(a: &Matrix) -> Result<Self, LinalgError> {
        validate(a)?;
        let mut c = Cholesky::with_order(a.nrows());
        factor(&mut c.l, &mut Vec::new(), a, 0.0)?;
        Ok(c)
    }

    /// Factor with retries: if the plain factorization fails, add
    /// `jitter = first_jitter * 10^k` (k = 0, 1, ..., `max_tries-1`) to the
    /// diagonal until it succeeds. `first_jitter` is scaled by the mean
    /// diagonal magnitude so the retry ladder is dimensionally sensible.
    ///
    /// The input is validated (shape + finiteness) once up front and every
    /// retry reuses the same factor buffer, refilled from `a` (`O(n^2)`
    /// copies, against the `O(n^3)` factorization they precede). A resume
    /// from the failed pivot is impossible: each rung's jitter perturbs
    /// every pivot. Rung, factor and final error are bit-identical to the
    /// left-looking sweep's.
    ///
    /// Returns the factor together with the jitter that was used (see
    /// [`Cholesky::jitter`]).
    pub fn decompose_jittered(
        a: &Matrix,
        first_jitter: f64,
        max_tries: usize,
    ) -> Result<Self, LinalgError> {
        let mut c = Cholesky::with_order(a.nrows());
        c.refactor_jittered(a, first_jitter, max_tries)?;
        // A one-shot factor keeps no working storage.
        c.scratch = Vec::new();
        Ok(c)
    }

    /// A zero factor of order `n`: the buffer [`Self::refactor_jittered`]
    /// fills in place.
    pub fn with_order(n: usize) -> Self {
        Cholesky {
            l: Matrix::zeros(n, n),
            jitter: 0.0,
            scratch: Vec::new(),
        }
    }

    /// [`Self::decompose_jittered`] into this factor's buffers, which are
    /// reused when `a` has the same order (no allocation after the first
    /// call at that order). The factor, its jitter and any error are
    /// bit-identical to
    /// `decompose_jittered(a, first_jitter, max_tries)`'s.
    ///
    /// Returns how many rungs failed before one succeeded. An exhausted
    /// ladder ends in [`LinalgError::NotPositiveDefinite`] after
    /// `max_tries.max(1)` failed rungs. On any error the factor is left
    /// unspecified until the next successful call.
    ///
    /// # Errors
    /// Same conditions as [`Self::decompose_jittered`].
    pub fn refactor_jittered(
        &mut self,
        a: &Matrix,
        first_jitter: f64,
        max_tries: usize,
    ) -> Result<usize, LinalgError> {
        validate(a)?;
        let n = a.nrows();
        let mean_diag = if n == 0 {
            1.0
        } else {
            (0..n).map(|i| a[(i, i)].abs()).sum::<f64>() / n as f64
        };
        let base = first_jitter * mean_diag.max(f64::MIN_POSITIVE);
        if self.l.nrows() != n {
            self.l = Matrix::zeros(n, n);
        }
        let mut last_err = None;
        for k in 0..max_tries.max(1) {
            let jitter = if k == 0 {
                0.0
            } else {
                base * 10f64.powi(k as i32 - 1)
            };
            match factor(&mut self.l, &mut self.scratch, a, jitter) {
                Ok(()) => {
                    self.jitter = jitter;
                    return Ok(k);
                }
                Err(e @ LinalgError::NotPositiveDefinite { .. }) => {
                    alperf_obs::inc("linalg.cholesky.jitter_retry");
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or(LinalgError::NotPositiveDefinite {
            pivot: 0,
            value: f64::NAN,
        }))
    }

    /// The lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Diagonal jitter that was added for the factorization to succeed.
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.l.nrows()
    }

    /// Solve `A x = b` via the two triangular solves.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut x = vec![0.0; b.len()];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// [`Self::solve`] into a caller buffer of the same length as `b`;
    /// bit-identical to it.
    ///
    /// # Errors
    /// Same conditions as [`Self::solve`]; a wrong-length `x` is a
    /// [`LinalgError::DimensionMismatch`].
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<(), LinalgError> {
        if x.len() != b.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky_solve",
                details: format!("b has {}, x has {}", b.len(), x.len()),
            });
        }
        x.copy_from_slice(b);
        solve_lower_in_place(&self.l, x)?;
        solve_lower_transpose_in_place(&self.l, x)
    }

    /// Forward solve only: `L z = b`. The norm of `z` gives the variance
    /// reduction term in GPR prediction.
    pub fn solve_forward(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        solve_lower(&self.l, b)
    }

    /// Multi-RHS solve `A X = B`, one column of `X` per column of `B`.
    /// Delegates to the blocked (and, for large systems, parallel)
    /// triangular kernels, so it is much faster than calling [`Self::solve`]
    /// per column while producing bit-identical results.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        let y = solve_lower_matrix(&self.l, b)?;
        solve_lower_transpose_matrix(&self.l, &y)
    }

    /// Multi-RHS forward solve `L Z = B`. Column norms of `Z` give the
    /// variance-reduction terms for a whole batch of prediction points.
    pub fn solve_forward_matrix(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        solve_lower_matrix(&self.l, b)
    }

    /// Forward solve with the right-hand sides given as the *rows* of `bt`
    /// (see [`solve_lower_rhs_rows`]); row `r` of the result is
    /// `L^{-1} bt[r]`. This is the batched-prediction fast path: it fuses
    /// the transpose of a row-per-candidate cross-covariance into the
    /// solve's block packing.
    ///
    /// # Errors
    /// Same conditions as [`CholeskyFactor::solve_forward_matrix`].
    pub fn solve_forward_rhs_rows(&self, bt: &Matrix) -> Result<Matrix, LinalgError> {
        solve_lower_rhs_rows(&self.l, bt)
    }

    /// Explicit triangular inverse `L^{-1}` (lower triangular).
    ///
    /// Solves `L X = I` per [`BLOCK`]-wide column block through the SIMD
    /// multi-RHS forward substitution, telling its kernels that the
    /// right-hand sides are unit vectors: column `c` of `L^{-1}` is exactly
    /// zero above row `c`, so each panel update's `j` sweep starts at its
    /// column tile's first index and every scalar row op by row `j` stops
    /// at column `j`. That is about `n^3/6` multiply-adds against `n^3/2`
    /// for the dense solve, at every order (the skip works inside a block,
    /// not just between blocks), and the result is bit-identical to
    /// `solve_lower_rhs_rows(L, I)` transposed on every ISA: only exact
    /// zeros are skipped, and panels, tiles and FMA use are unchanged.
    ///
    /// # Errors
    /// [`LinalgError::Singular`] if a diagonal entry is zero.
    pub fn factor_inverse(&self) -> Result<Matrix, LinalgError> {
        let n = self.order();
        let mut inv = Matrix::zeros(n, n);
        let mut buf = vec![0.0; n * BLOCK.min(n)];
        self.factor_inverse_lower(&mut inv, &mut buf)?;
        Ok(inv)
    }

    /// The lower triangle of [`Self::factor_inverse`] written into `inv`
    /// (its strict upper triangle is not touched), with `buf` (at least
    /// `n * min(n, BLOCK)` long) as the column-block buffer.
    fn factor_inverse_lower(&self, inv: &mut Matrix, buf: &mut [f64]) -> Result<(), LinalgError> {
        let n = self.order();
        if let Some(i) = (0..n).find(|&i| self.l[(i, i)] == 0.0) {
            return Err(LinalgError::Singular { index: i });
        }
        for j0 in (0..n).step_by(BLOCK) {
            let nb = BLOCK.min(n - j0);
            // Columns j0..j0+nb of the identity; rows above j0 stay zero
            // and are skipped along with the rest of each column's leading
            // zeros.
            let buf = &mut buf[..n * nb];
            buf.fill(0.0);
            for c in 0..nb {
                buf[(j0 + c) * nb + c] = 1.0;
            }
            forward_sub_block(&self.l, buf, nb, Some(j0));
            for i in j0..n {
                let w = nb.min(i - j0 + 1);
                inv.row_mut(i)[j0..j0 + w].copy_from_slice(&buf[i * nb..i * nb + w]);
            }
        }
        Ok(())
    }

    /// Lower triangle of `A^{-1}` (strict upper left zero), formed directly
    /// from [`Self::factor_inverse`] as `(A^{-1})_{ij} = sum_{k >= i}
    /// (L^{-1})_{ki} (L^{-1})_{kj}` for `j <= i`: row `i` accumulates
    /// `linv[k][i] * linv[k][..=i]` for `k` ascending from `i`, about `n^3/6`
    /// multiply-adds. The terms with `k < i` that a full `L^{-T} L^{-1}`
    /// product would add are exactly zero, so the result is bit-identical
    /// to the lower triangle of that product. Where the CPU has AVX-512,
    /// tiles of 4 rows x 8 columns of the result stay in registers for the
    /// whole `k` sweep; each element still adds its rounded products one at
    /// a time, `k` ascending, so every ISA gives the same bits.
    ///
    /// `A^{-1}` is symmetric, so this is the whole inverse for consumers
    /// that read one triangle — the LML gradient's weight matrix
    /// `W = alpha alpha^T - K_y^{-1}` is contracted against symmetric
    /// `dK/dtheta` terms and only ever touches `i >= j` (see
    /// `alperf-gp::lml`). With the `n^3/6` of `factor_inverse` that is a
    /// third of the `n^3` a dense identity solve for the full inverse takes.
    ///
    /// # Errors
    /// [`LinalgError::Singular`] if a diagonal entry is zero.
    pub fn inverse_lower(&self) -> Result<Matrix, LinalgError> {
        let mut w = Matrix::zeros(0, 0);
        let mut linv = Matrix::zeros(0, 0);
        self.inverse_lower_into(&mut w, &mut linv)?;
        Ok(w)
    }

    /// [`Self::inverse_lower`] into caller buffers, reused when they
    /// already have the factor's order: `out` receives exactly what
    /// `inverse_lower` returns, and `linv` is scratch that ends holding
    /// `L^{-1}` in its lower triangle. Until then `out`'s storage serves as
    /// the column-block buffer of the unit-RHS solve, so the call allocates
    /// nothing once both buffers are sized.
    ///
    /// # Errors
    /// [`LinalgError::Singular`] if a diagonal entry is zero.
    pub fn inverse_lower_into(
        &self,
        out: &mut Matrix,
        linv: &mut Matrix,
    ) -> Result<(), LinalgError> {
        let n = self.order();
        for m in [&mut *out, &mut *linv] {
            if m.nrows() != n || m.ncols() != n {
                *m = Matrix::zeros(n, n);
            }
        }
        self.factor_inverse_lower(linv, &mut out.as_mut_slice()[..n * BLOCK.min(n)])?;
        // Rows 0..tiled through the register-tiled kernel where the CPU has
        // it (a tile needs 4 rows), the rest through the scalar loop.
        #[cfg(target_arch = "x86_64")]
        let tiled = if n >= 4 && cpu::isa() == cpu::Isa::Avx512 {
            // SAFETY: `isa()` verified avx512f support on this CPU.
            unsafe { avx512::accumulate_inverse(linv, out) }
        } else {
            0
        };
        #[cfg(not(target_arch = "x86_64"))]
        let tiled = 0;
        for i in 0..tiled {
            out.row_mut(i)[i + 1..].fill(0.0);
        }
        accumulate_inverse_scalar(linv, out, tiled..n);
        Ok(())
    }

    /// `log det A = 2 * sum_i log L_ii` — the complexity-penalty term of the
    /// log marginal likelihood (Eq. 12 of the paper).
    pub fn log_det(&self) -> f64 {
        2.0 * (0..self.l.nrows())
            .map(|i| self.l[(i, i)].ln())
            .sum::<f64>()
    }

    /// Extend the factorization by one row/column in `O(n^2)`: given the
    /// factor of `A + jI` (`j` = [`Cholesky::jitter`]), produce the factor
    /// of `[[A + jI, a], [a^T, alpha + j]]` where `a` is the new
    /// off-diagonal column and `alpha` the new diagonal entry of `A`. The
    /// new pivot carries the same jitter as the old ones, so `jitter()`
    /// still describes the whole grown factor.
    ///
    /// This is the engine of incremental GPR updates: adding one training
    /// point extends `K_y` exactly this way, so the AL loop can recondition
    /// in `O(n^2)` instead of refactoring in `O(n^3)`.
    ///
    /// The new row runs the left-looking sweep's operations in its order:
    /// each off-diagonal entry is a forward substitution with `k`
    /// ascending, and the pivot starts from `alpha + j` and subtracts one
    /// rounded square at a time. So when the grown matrix factors on the
    /// same jitter rung, the extension equals its refactorization bit for
    /// bit; a pivot that rounds to `<= 0` is the one the refactorization
    /// fails on, however close to singular the new row is.
    ///
    /// # Errors
    /// [`LinalgError::NotPositiveDefinite`] if the extended matrix is not
    /// PD (`alpha + j - ||L^{-1} a||^2 <= 0`);
    /// [`LinalgError::DimensionMismatch`] if `a.len() != order()`.
    pub fn extend(&self, a: &[f64], alpha: f64) -> Result<Cholesky, LinalgError> {
        let n = self.order();
        if a.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky_extend",
                details: format!("column has {} entries, factor order is {n}", a.len()),
            });
        }
        let z = solve_lower(&self.l, a)?;
        let mut d2 = alpha + self.jitter;
        for v in &z {
            d2 -= v * v;
        }
        if d2 <= 0.0 || !d2.is_finite() {
            return Err(LinalgError::NotPositiveDefinite {
                pivot: n,
                value: d2,
            });
        }
        let mut l = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            for j in 0..=i {
                l[(i, j)] = self.l[(i, j)];
            }
        }
        for (j, zj) in z.iter().enumerate() {
            l[(n, j)] = *zj;
        }
        l[(n, n)] = d2.sqrt();
        Ok(Cholesky {
            l,
            jitter: self.jitter,
            scratch: Vec::new(),
        })
    }

    /// Reconstruct `A = L L^T` (testing / diagnostics).
    pub fn reconstruct(&self) -> Matrix {
        let lt = self.l.transpose();
        self.l.matmul(&lt).expect("square factor")
    }

    /// Rough 2-norm condition estimate from the extreme diagonal entries of
    /// `L`: `cond(A) ~ (max L_ii / min L_ii)^2`. Cheap and adequate for
    /// deciding when to warn about ill-conditioned covariance matrices.
    pub fn condition_estimate(&self) -> f64 {
        let n = self.order();
        if n == 0 {
            return 1.0;
        }
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for i in 0..n {
            let d = self.l[(i, i)];
            lo = lo.min(d);
            hi = hi.max(d);
        }
        (hi / lo).powi(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = B B^T + I for B random-ish => SPD.
        Matrix::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.0], &[0.6, 1.0, 3.0]]).unwrap()
    }

    /// Deterministic `rows x cols` matrix with entries in `[-1, 1)`.
    fn pseudo_random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut s = 0x9e3779b97f4a7c15u64 ^ rows as u64 ^ seed.rotate_left(32);
        let data: Vec<f64> = (0..rows * cols)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 11) as f64 / (1u64 << 53) as f64 - 1.0
            })
            .collect();
        Matrix::from_vec(rows, cols, data).unwrap()
    }

    /// Deterministic well-conditioned SPD matrix: `B B^T / n + I`.
    fn well_conditioned_spd(n: usize, seed: u64) -> Matrix {
        let b = pseudo_random(n, n, seed);
        let mut a = b.matmul(&b.transpose()).unwrap();
        let inv_n = 1.0 / n as f64;
        for v in a.as_mut_slice() {
            *v *= inv_n;
        }
        a.add_diagonal(1.0);
        a
    }

    #[test]
    fn decompose_reconstructs() {
        let a = spd3();
        let c = Cholesky::decompose(&a).unwrap();
        assert!(c.reconstruct().max_abs_diff(&a) < 1e-12);
        assert_eq!(c.jitter(), 0.0);
    }

    #[test]
    fn known_2x2_factor() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 5.0]]).unwrap();
        let c = Cholesky::decompose(&a).unwrap();
        let l = c.factor();
        assert!((l[(0, 0)] - 2.0).abs() < 1e-15);
        assert!((l[(1, 0)] - 1.0).abs() < 1e-15);
        assert!((l[(1, 1)] - 2.0).abs() < 1e-15);
        assert_eq!(l[(0, 1)], 0.0);
    }

    #[test]
    fn solve_matches_direct() {
        let a = spd3();
        let c = Cholesky::decompose(&a).unwrap();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true).unwrap();
        let x = c.solve(&b).unwrap();
        for (xi, e) in x.iter().zip(&x_true) {
            assert!((xi - e).abs() < 1e-12);
        }
    }

    #[test]
    fn log_det_matches_known() {
        // det of diag(2, 3, 4) = 24.
        let a = Matrix::from_rows(&[&[2.0, 0.0, 0.0], &[0.0, 3.0, 0.0], &[0.0, 0.0, 4.0]]).unwrap();
        let c = Cholesky::decompose(&a).unwrap();
        assert!((c.log_det() - 24f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn solve_against_identity_yields_inverse() {
        // The deprecated `inverse()` convenience is gone; consumers that do
        // want a full inverse spell out the identity solve, which is what
        // this exercises.
        let a = spd3();
        let c = Cholesky::decompose(&a).unwrap();
        let inv = c.solve_matrix(&Matrix::identity(3)).unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.max_abs_diff(&Matrix::identity(3)) < 1e-12);
    }

    #[test]
    fn factor_inverse_inverts_the_factor() {
        // Sizes on both sides of the column-block width.
        for n in [1usize, 3, 40, 64, 70, 130] {
            let a = well_conditioned_spd(n, 0);
            let c = Cholesky::decompose(&a).unwrap();
            let linv = c.factor_inverse().unwrap();
            let prod = c.factor().matmul(&linv).unwrap();
            let diff = prod.max_abs_diff(&Matrix::identity(n));
            assert!(diff < 1e-10, "n={n}: L * L^-1 differs from I by {diff}");
            // Strict upper triangle is structurally zero.
            for i in 0..n {
                for j in i + 1..n {
                    assert_eq!(linv[(i, j)], 0.0);
                }
            }
        }
    }

    #[test]
    fn inverse_lower_matches_full_inverse() {
        for n in [1usize, 3, 40, 64, 70, 130] {
            let a = well_conditioned_spd(n, 0);
            let c = Cholesky::decompose(&a).unwrap();
            let wl = c.inverse_lower().unwrap();
            let full = c.solve_matrix(&Matrix::identity(n)).unwrap();
            for i in 0..n {
                for j in 0..n {
                    if j <= i {
                        let d = (wl[(i, j)] - full[(i, j)]).abs();
                        assert!(d < 1e-10, "n={n} ({i},{j}): {d}");
                    } else {
                        assert_eq!(wl[(i, j)], 0.0, "strict upper must stay zero");
                    }
                }
            }
        }
    }

    #[test]
    fn not_pd_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap(); // eigenvalues 3, -1
        match Cholesky::decompose(&a) {
            Err(LinalgError::NotPositiveDefinite { .. }) => {}
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn jitter_rescues_semidefinite() {
        // Rank-1 matrix: PSD but not PD.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        assert!(Cholesky::decompose(&a).is_err());
        let c = Cholesky::decompose_jittered(&a, 1e-10, 12).unwrap();
        assert!(c.jitter() > 0.0);
        // Reconstruction should be close to A (within the jitter magnitude).
        assert!(c.reconstruct().max_abs_diff(&a) < 1e-3);
    }

    #[test]
    fn jitter_gives_up_eventually() {
        let a = Matrix::from_rows(&[&[-1.0, 0.0], &[0.0, -1.0]]).unwrap();
        assert!(Cholesky::decompose_jittered(&a, 1e-10, 3).is_err());
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::decompose(&a),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn non_finite_rejected() {
        let mut a = Matrix::identity(2);
        a[(0, 0)] = f64::NAN;
        assert!(matches!(
            Cholesky::decompose(&a),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn empty_matrix_ok() {
        let a = Matrix::zeros(0, 0);
        let c = Cholesky::decompose(&a).unwrap();
        assert_eq!(c.order(), 0);
        assert_eq!(c.log_det(), 0.0);
    }

    #[test]
    fn condition_estimate_identity_is_one() {
        let c = Cholesky::decompose(&Matrix::identity(4)).unwrap();
        assert!((c.condition_estimate() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn condition_estimate_grows_with_spread() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1e6]]).unwrap();
        let c = Cholesky::decompose(&a).unwrap();
        assert!((c.condition_estimate() - 1e6).abs() / 1e6 < 1e-9);
    }

    #[test]
    fn extend_matches_full_factorization() {
        // Factor the 2x2 leading block of spd3, extend by the third
        // row/column, and compare against factoring the full matrix.
        let a = spd3();
        let lead = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 5.0]]).unwrap();
        let c2 = Cholesky::decompose(&lead).unwrap();
        let c3 = c2.extend(&[0.6, 1.0], 3.0).unwrap();
        let full = Cholesky::decompose(&a).unwrap();
        assert!(c3.factor().max_abs_diff(full.factor()) < 1e-12);
        assert!((c3.log_det() - full.log_det()).abs() < 1e-12);
        // Solves agree too.
        let rhs = vec![1.0, -0.5, 2.0];
        let x1 = c3.solve(&rhs).unwrap();
        let x2 = full.solve(&rhs).unwrap();
        for (a, b) in x1.iter().zip(&x2) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn extend_keeps_the_factor_jitter_on_the_new_pivot() {
        // The all-ones matrix is singular, so the ladder settles on a
        // nonzero jitter j; the grown factor must then be that of the
        // all-ones 4x4 matrix plus jI on every diagonal entry.
        let ones = Matrix::from_fn(3, 3, |_, _| 1.0);
        let c3 = Cholesky::decompose_jittered(&ones, 1e-10, 8).unwrap();
        let j = c3.jitter();
        assert!(j > 0.0);
        let c4 = c3.extend(&[1.0; 3], 1.0).unwrap();
        assert_eq!(c4.jitter(), j);
        let rec = c4.reconstruct();
        for r in 0..4 {
            for c in 0..4 {
                let want = if r == c { 1.0 + j } else { 1.0 };
                assert!(
                    (rec[(r, c)] - want).abs() <= 1e-14 * want,
                    "({r},{c}): {} vs {want}",
                    rec[(r, c)]
                );
            }
        }
    }

    /// Extending the factor of a squared-exponential covariance's leading
    /// block by its last row, on degenerate inputs: duplicate rows under a
    /// `sigma^2 = 1e-16` diagonal, an all-equal (rank-one) matrix, orders 1
    /// and 2, and orders on both sides of the tiled kernel's threshold. The
    /// extension fails typed exactly when the grown matrix needs a higher
    /// jitter rung than its leading block, and otherwise equals the grown
    /// matrix's own factorization: bit for bit without jitter, within
    /// 1e-10 relative with it (the ladder's jitter is scaled by the mean
    /// diagonal, which can round differently at the two orders).
    #[test]
    fn extend_matches_refactorization_or_fails_typed_on_degenerate_inputs() {
        let se = |x: &[f64], noise2: f64| {
            Matrix::from_fn(x.len(), x.len(), |i, j| {
                let d = x[i] - x[j];
                (-0.5 * d * d).exp() + if i == j { noise2 } else { 0.0 }
            })
        };
        let spread =
            |n: usize| -> Vec<f64> { (0..n).map(|i| (i as f64 * 0.77).sin() * 3.0).collect() };
        let mut cases: Vec<(String, Vec<f64>)> = vec![
            ("n = 1".into(), vec![0.3, 1.1]),
            ("n = 2".into(), vec![0.0, 1.0, 2.5]),
            ("duplicate new row".into(), vec![0.0, 1.0, 2.0, 1.0]),
            (
                "duplicates in the prefix".into(),
                vec![0.0, 1.0, 1.0, 2.0, 1.0],
            ),
            ("rank one".into(), vec![0.0; 5]),
        ];
        for n in [12, 13, 14, 40] {
            let mut x = spread(n);
            cases.push((format!("order {n}"), x.clone()));
            x.push(x[n / 2]);
            cases.push((format!("order {n}, duplicate new row"), x));
        }
        let (mut same, mut typed) = (0, 0);
        for (name, x) in &cases {
            for noise2 in [1e-16, 1e-2] {
                let case = format!("{name}, sigma^2 {noise2:e}");
                let a = se(x, noise2);
                let n = x.len() - 1;
                let lead = Matrix::from_fn(n, n, |i, j| a[(i, j)]);
                let prefix = Cholesky::decompose_jittered(&lead, 1e-10, 8).unwrap();
                let grown = Cholesky::decompose_jittered(&a, 1e-10, 8).unwrap();
                let col: Vec<f64> = (0..n).map(|j| a[(n, j)]).collect();
                match prefix.extend(&col, a[(n, n)]) {
                    Ok(ext) if grown.jitter() == 0.0 => {
                        assert_eq!(ext.factor(), grown.factor(), "{case}");
                        same += 1;
                    }
                    Ok(ext) => {
                        let scale = grown
                            .factor()
                            .as_slice()
                            .iter()
                            .fold(0.0f64, |m, v| m.max(v.abs()));
                        let diff = ext.factor().max_abs_diff(grown.factor());
                        assert!(diff <= 1e-10 * scale, "{case}: {diff:e}");
                        assert!(ext.log_det().is_finite(), "{case}");
                        same += 1;
                    }
                    Err(e) => {
                        assert!(
                            matches!(e, LinalgError::NotPositiveDefinite { pivot, .. } if pivot == n),
                            "{case}: {e:?}"
                        );
                        assert!(grown.jitter() > prefix.jitter(), "{case}");
                        typed += 1;
                    }
                }
            }
        }
        assert!(same > 10 && typed > 0, "{same} matched, {typed} typed");
    }

    #[test]
    fn extend_detects_indefinite_extension() {
        let lead = Matrix::from_rows(&[&[1.0]]).unwrap();
        let c = Cholesky::decompose(&lead).unwrap();
        // [[1, 2], [2, 1]] has eigenvalues 3 and -1.
        assert!(matches!(
            c.extend(&[2.0], 1.0),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        assert!(matches!(
            c.extend(&[1.0, 2.0], 5.0),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn extend_from_empty_builds_scalar_factor() {
        let empty = Cholesky::decompose(&Matrix::zeros(0, 0)).unwrap();
        let one = empty.extend(&[], 9.0).unwrap();
        assert_eq!(one.order(), 1);
        assert!((one.factor()[(0, 0)] - 3.0).abs() < 1e-15);
    }

    #[test]
    fn repeated_extension_builds_full_factor() {
        let a = spd3();
        let mut c = Cholesky::decompose(&Matrix::zeros(0, 0)).unwrap();
        for k in 0..3 {
            let col: Vec<f64> = (0..k).map(|j| a[(k, j)]).collect();
            c = c.extend(&col, a[(k, k)]).unwrap();
        }
        let full = Cholesky::decompose(&a).unwrap();
        assert!(c.factor().max_abs_diff(full.factor()) < 1e-12);
    }

    #[test]
    fn solve_forward_norm_is_variance_term() {
        // For A = L L^T and k, ||L^{-1} k||^2 == k^T A^{-1} k.
        let a = spd3();
        let c = Cholesky::decompose(&a).unwrap();
        let k = vec![0.3, -1.2, 0.9];
        let z = c.solve_forward(&k).unwrap();
        let quad: f64 = crate::vector::dot(&k, &c.solve(&k).unwrap());
        let nz: f64 = crate::vector::dot(&z, &z);
        assert!((quad - nz).abs() < 1e-12);
    }

    // ---- Bit-identity of the factor kernels -----------------------------

    /// The left-looking column sweep: the bit-identity reference for every
    /// factor kernel. On failure it reports the pivot and how many columns
    /// it dirtied.
    fn left_looking(l: &mut Matrix) -> Result<(), (LinalgError, usize)> {
        let n = l.nrows();
        for j in 0..n {
            let mut d = l[(j, j)];
            for k in 0..j {
                let v = l[(j, k)];
                d -= v * v;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err((LinalgError::NotPositiveDefinite { pivot: j, value: d }, j));
            }
            let dsqrt = d.sqrt();
            l[(j, j)] = dsqrt;
            for i in (j + 1)..n {
                let mut s = l[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / dsqrt;
            }
        }
        Ok(())
    }

    /// Jitter of rung `k` of the ladder over `a` (as `refactor_jittered`
    /// computes it).
    fn rung_jitter(a: &Matrix, first_jitter: f64, k: usize) -> f64 {
        let n = a.nrows();
        let mean_diag = if n == 0 {
            1.0
        } else {
            a.diagonal().iter().map(|v| v.abs()).sum::<f64>() / n as f64
        };
        let base = first_jitter * mean_diag.max(f64::MIN_POSITIVE);
        if k == 0 {
            0.0
        } else {
            base * 10f64.powi(k as i32 - 1)
        }
    }

    /// The jitter ladder over the left-looking sweep, which lets a retry
    /// restore only the columns the failed attempt dirtied.
    fn left_looking_jittered(
        a: &Matrix,
        first_jitter: f64,
        max_tries: usize,
    ) -> Result<(Matrix, f64), LinalgError> {
        let n = a.nrows();
        let mut l = Matrix::zeros(n, n);
        let mut dirty = n;
        let mut last_err = None;
        for k in 0..max_tries.max(1) {
            let jitter = rung_jitter(a, first_jitter, k);
            for i in 0..n {
                let lim = i.min(dirty);
                l.row_mut(i)[..lim].copy_from_slice(&a.row(i)[..lim]);
                l[(i, i)] = a[(i, i)] + jitter;
            }
            match left_looking(&mut l) {
                Ok(()) => return Ok((l, jitter)),
                Err((e, d)) => {
                    dirty = d;
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap())
    }

    /// `a + jitter I` factored by the left-looking sweep.
    fn left_looking_factor(a: &Matrix, jitter: f64) -> Result<Matrix, LinalgError> {
        let mut l = Matrix::zeros(a.nrows(), a.nrows());
        restore_lower(&mut l, a, jitter);
        left_looking(&mut l).map(|()| l).map_err(|(e, _)| e)
    }

    /// A factor kernel: `a + jitter I` into `l` with its scratch, with the
    /// contract of `factor`.
    type FactorFn = fn(&mut Matrix, &mut Vec<f64>, &Matrix, f64) -> Result<(), LinalgError>;

    /// Every factor kernel this CPU can run, called directly (whatever
    /// order `factor` would hand it), then the dispatch itself.
    fn factor_kernels() -> Vec<(&'static str, FactorFn)> {
        let mut kernels: Vec<(&str, FactorFn)> = vec![("scalar", |l, _, a, jitter| {
            restore_lower(l, a, jitter);
            factor_scalar(l.as_mut_slice(), &mut vec![0.0; a.nrows()])
        })];
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f") {
            kernels.push(("avx512", |l, scratch, a, jitter| {
                // SAFETY: avx512f was detected above.
                unsafe { avx512::factor(l, scratch, a, jitter) }
            }));
        }
        kernels.push(("dispatch", factor));
        kernels
    }

    /// Every order up to 130, then a spread of larger ones up to 256 (each
    /// order's cost grows as `n^3`, and the tests run in debug builds too).
    fn orders() -> impl Iterator<Item = usize> {
        (1..=130).chain([131, 144, 160, 173, 191, 200, 224, 255, 256])
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
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

    /// Rank-deficient Gram matrix with duplicated rows and a `1e-16`
    /// diagonal — the shape of `K + sigma_n^2 I` at the 1e-8 noise floor
    /// once the design repeats a configuration.
    fn near_singular(n: usize, seed: u64) -> Matrix {
        let mut b = pseudo_random(n, n / 3 + 1, seed);
        for i in (1..n).step_by(4) {
            let prev = b.row(i - 1).to_vec();
            b.row_mut(i).copy_from_slice(&prev);
        }
        let mut a = b.matmul(&b.transpose()).unwrap();
        a.add_diagonal(1e-16);
        a
    }

    #[test]
    fn right_looking_sweep_matches_left_looking_bit_for_bit() {
        let kernels = factor_kernels();
        for n in orders() {
            let a = well_conditioned_spd(n, 7 + n as u64);
            let want = left_looking_factor(&a, 0.0).unwrap();
            for (name, kernel) in &kernels {
                let mut got = Matrix::zeros(n, n);
                kernel(&mut got, &mut Vec::new(), &a, 0.0).unwrap();
                assert_eq!(bits(&got), bits(&want), "{name}: n={n}");
            }
            let auto = Cholesky::decompose(&a).unwrap();
            assert_eq!(bits(auto.factor()), bits(&want), "n={n} (decompose)");
        }
    }

    #[test]
    fn jitter_ladder_matches_left_looking_rung_for_rung() {
        let kernels = factor_kernels();
        let mut climbed = 0;
        for n in orders() {
            let a = near_singular(n, n as u64);
            // Every kernel on every rung the 12-try ladder climbs, in one
            // buffer as the ladder reuses it: the same factor, or the same
            // failing pivot and value with the upper triangle left zero.
            for (name, kernel) in &kernels {
                let (mut l, mut scratch) = (Matrix::zeros(n, n), Vec::new());
                for k in 0..12 {
                    let jitter = rung_jitter(&a, 1e-10, k);
                    let want = left_looking_factor(&a, jitter);
                    match (kernel(&mut l, &mut scratch, &a, jitter), &want) {
                        (Ok(()), Ok(w)) => {
                            assert_eq!(bits(&l), bits(w), "{name}: n={n} rung {k}");
                            break;
                        }
                        (Err(e), Err(w)) => {
                            assert!(same_error(&e, w), "{name}: n={n} rung {k}: {e:?} vs {w:?}");
                            let upper = (0..n).all(|i| l.row(i)[i + 1..].iter().all(|&v| v == 0.0));
                            assert!(upper, "{name}: n={n} rung {k}: upper triangle dirtied");
                        }
                        (got, _) => panic!("{name}: n={n} rung {k}: {got:?} vs {want:?}"),
                    }
                }
            }
            for tries in [1usize, 2, 12] {
                let want = left_looking_jittered(&a, 1e-10, tries);
                let got = Cholesky::decompose_jittered(&a, 1e-10, tries);
                match (&got, &want) {
                    (Ok(c), Ok((l, jitter))) => {
                        assert_eq!(
                            c.jitter().to_bits(),
                            jitter.to_bits(),
                            "n={n} tries={tries}"
                        );
                        assert_eq!(bits(c.factor()), bits(l), "n={n} tries={tries}");
                        if tries == 12 && *jitter > 0.0 {
                            climbed += 1;
                        }
                    }
                    (Err(e), Err(w)) => assert!(same_error(e, w), "n={n}: {e:?} vs {w:?}"),
                    _ => panic!("n={n} tries={tries}: {got:?} vs {want:?}"),
                }
            }
        }
        assert!(climbed > 60, "only {climbed} inputs needed jitter");
        // A ladder that never succeeds ends in the same typed error.
        for n in [5, 40] {
            let neg = Matrix::from_fn(n, n, |i, j| if i == j { -1.0 } else { 0.1 });
            let got = Cholesky::decompose_jittered(&neg, 1e-10, 4).unwrap_err();
            let want = left_looking_jittered(&neg, 1e-10, 4).unwrap_err();
            assert!(same_error(&got, &want), "n={n}: {got:?} vs {want:?}");
        }
    }

    #[test]
    fn refactor_matches_decompose_jittered_bit_for_bit() {
        // One buffer, reused across orders (both sides of the tiled
        // kernel's crossover) and across PD inputs, inputs that climb the
        // ladder, and ladders that fail.
        let mut c = Cholesky::with_order(0);
        let mut neg = Matrix::from_fn(5, 5, |i, j| if i == j { -1.0 } else { 0.1 });
        for n in [1usize, 2, 7, 12, 13, 64, 65, 130, 200, 256, 5] {
            let inputs = if n == 5 {
                let nan =
                    Matrix::from_fn(5, 5, |i, j| if i == 3 && j == 1 { f64::NAN } else { 0.0 });
                vec![neg.clone(), nan]
            } else {
                vec![
                    well_conditioned_spd(n, n as u64),
                    near_singular(n, n as u64),
                ]
            };
            for a in &inputs {
                for tries in [1usize, 2, 12] {
                    let want = Cholesky::decompose_jittered(a, 1e-10, tries);
                    match (c.refactor_jittered(a, 1e-10, tries), &want) {
                        (Ok(failed), Ok(w)) => {
                            assert_eq!(bits(c.factor()), bits(w.factor()), "n={n}");
                            assert_eq!(c.jitter().to_bits(), w.jitter().to_bits(), "n={n}");
                            assert_eq!(failed == 0, w.jitter() == 0.0, "n={n}");
                        }
                        (Err(e), Err(w)) => assert!(same_error(&e, w), "n={n}: {e:?} vs {w:?}"),
                        (got, _) => panic!("n={n} tries={tries}: {got:?} vs {want:?}"),
                    }
                }
            }
        }
        // An exhausted ladder fails every rung.
        neg[(0, 0)] = -2.0;
        assert!(matches!(
            c.refactor_jittered(&neg, 1e-10, 4),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn buffer_reusing_solve_and_inverse_match_the_allocating_ones() {
        let (mut out, mut linv) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        for n in [1usize, 3, 64, 65, 130, 40] {
            let c = Cholesky::decompose(&well_conditioned_spd(n, 5 * n as u64)).unwrap();
            c.inverse_lower_into(&mut out, &mut linv).unwrap();
            assert_eq!(bits(&out), bits(&c.inverse_lower().unwrap()), "n={n}");
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let mut x = vec![f64::NAN; n];
            c.solve_into(&b, &mut x).unwrap();
            let want = c.solve(&b).unwrap();
            assert!(x.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        let c = Cholesky::decompose(&spd3()).unwrap();
        assert!(c.solve_into(&[1.0; 3], &mut [0.0; 2]).is_err());
    }

    #[test]
    fn factor_inverse_matches_dense_identity_solve_bit_for_bit() {
        for n in 1..=130usize {
            let c = Cholesky::decompose(&well_conditioned_spd(n, n as u64)).unwrap();
            let dense = solve_lower_rhs_rows(c.factor(), &Matrix::identity(n))
                .unwrap()
                .transpose();
            assert_eq!(bits(&c.factor_inverse().unwrap()), bits(&dense), "n={n}");
        }
    }

    /// An accumulation kernel of `inverse_lower`: `w`'s lower triangle
    /// from `linv`.
    type AccumulateFn = fn(&Matrix, &mut Matrix);

    /// Every accumulation kernel this CPU can run, called directly.
    fn accumulate_kernels() -> Vec<(&'static str, AccumulateFn)> {
        let mut kernels: Vec<(&str, AccumulateFn)> = vec![("scalar", |linv, w| {
            accumulate_inverse_scalar(linv, w, 0..linv.nrows())
        })];
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f") {
            kernels.push(("avx512", |linv, w| {
                // SAFETY: avx512f was detected above.
                let tiled = unsafe { avx512::accumulate_inverse(linv, w) };
                accumulate_inverse_scalar(linv, w, tiled..linv.nrows());
            }));
        }
        kernels
    }

    #[test]
    fn inverse_lower_matches_dense_product_bit_for_bit() {
        let kernels = accumulate_kernels();
        for n in orders() {
            let c = Cholesky::decompose(&well_conditioned_spd(n, 3 * n as u64)).unwrap();
            let linv = solve_lower_rhs_rows(c.factor(), &Matrix::identity(n))
                .unwrap()
                .transpose();
            let full = linv.transpose().matmul(&linv).unwrap();
            let want = Matrix::from_fn(n, n, |i, j| if j <= i { full[(i, j)] } else { 0.0 });
            assert_eq!(bits(&c.inverse_lower().unwrap()), bits(&want), "n={n}");
            for (name, kernel) in &kernels {
                // Start from garbage: each kernel must write every element
                // of the lower triangle.
                let mut w = Matrix::from_fn(n, n, |i, j| if j <= i { f64::NAN } else { 0.0 });
                kernel(&linv, &mut w);
                assert_eq!(bits(&w), bits(&want), "{name}: n={n}");
            }
        }
    }
}
