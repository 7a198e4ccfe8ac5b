//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! The single most important numerical routine in the workspace: every GPR
//! fit, prediction, and log-marginal-likelihood evaluation goes through
//! `K_y = L L^T`. Covariance matrices built from a squared-exponential
//! kernel are notoriously ill-conditioned when training inputs are close
//! together relative to the length scale, so [`Cholesky::decompose_jittered`]
//! retries with geometrically increasing diagonal jitter — the same strategy
//! scikit-learn's `GaussianProcessRegressor` (used by the paper) employs.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::triangular::{
    forward_sub_block, solve_lower, solve_lower_matrix, solve_lower_rhs_rows,
    solve_lower_transpose, solve_lower_transpose_matrix,
};

/// Panel width of the blocked right-looking factorization. Matches the
/// multi-RHS triangular solver's `RHS_BLOCK` so the TRSM step packs into a
/// single block pass.
const BLOCK: usize = 64;
/// Below this order the unblocked sweep wins: the blocked variant's panel
/// copies and matmul dispatch cost more than they save.
const BLOCKED_MIN: usize = 128;

/// A lower-triangular Cholesky factor `L` with `A = L L^T`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
    /// Jitter that had to be added to the diagonal for the factorization to
    /// succeed (0.0 when the matrix was PD as given).
    jitter: f64,
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

/// (Re)initialize the factor buffer from `a`: the strict lower triangle is
/// copied back and every diagonal entry is set to `a_ii + jitter`. The
/// right-looking sweep updates the whole trailing triangle after every
/// pivot, so a failed attempt may have dirtied any lower-triangle entry and
/// each retry restores all columns. No factor kernel writes the strict
/// upper triangle, so it stays zero and is never copied.
fn restore_lower(l: &mut Matrix, a: &Matrix, jitter: f64) {
    for i in 0..a.nrows() {
        let dst = l.row_mut(i);
        let src = a.row(i);
        dst[..i].copy_from_slice(&src[..i]);
        dst[i] = src[i] + jitter;
    }
}

/// In-place factorization of the lower triangle of `l` (which on entry
/// holds `A + jitter I`).
type FactorKernel = fn(&mut Matrix) -> Result<(), LinalgError>;

/// The kernel [`Cholesky::decompose`] dispatches to for order `n`.
fn kernel_for(n: usize) -> FactorKernel {
    if n >= BLOCKED_MIN {
        factor_blocked
    } else {
        factor_unblocked
    }
}

/// Unblocked factorization: the right-looking sweep over the whole matrix.
fn factor_unblocked(l: &mut Matrix) -> Result<(), LinalgError> {
    let n = l.nrows();
    factor_diag_block(l, 0, n)
}

/// In-place right-looking factorization of the diagonal block
/// `l[k0..k1, k0..k1]` (lower triangle; entries outside the block are
/// neither read nor written).
///
/// After pivot `j` is taken, column `j` is scaled into a contiguous buffer,
/// and each later row `i` applies `row_i[j+1..=i] -= l_ij * col[j+1..=i]`
/// as one vectorizable pass. Every element still sees the exact operation
/// sequence of the classic left-looking dot-product sweep — a separate
/// multiply and subtract per `k`, `k` ascending, then one divide (or square
/// root on the diagonal) — so the factor is bit-identical to it, and so are
/// the failing pivot and its value.
fn factor_diag_block(l: &mut Matrix, k0: usize, k1: usize) -> Result<(), LinalgError> {
    let n = l.ncols();
    // The column buffer lives on the stack for every order the dispatch
    // sends here; only a forced unblocked factorization of a larger matrix
    // allocates.
    let mut stack = [0.0f64; BLOCKED_MIN];
    let mut heap;
    let buf: &mut [f64] = if k1 - k0 <= BLOCKED_MIN {
        &mut stack
    } else {
        heap = vec![0.0; k1 - k0];
        &mut heap
    };
    let data = l.as_mut_slice();
    for j in k0..k1 {
        let d = data[j * n + j];
        if d <= 0.0 || !d.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { pivot: j, value: d });
        }
        let dsqrt = d.sqrt();
        data[j * n + j] = dsqrt;
        // Row t of `rows` is row j+1+t; `col[t]` receives its l_{j+1+t, j}.
        // Row t's update reads only col[..=t], so each row is scaled and
        // updated in one visit.
        let col = &mut buf[..k1 - j - 1];
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

/// In-place blocked right-looking factorization: per `BLOCK`-wide panel,
/// (1) the right-looking sweep over the diagonal block, (2) TRSM of the
/// sub-diagonal panel through the runtime-dispatched multi-RHS solver
/// (`L21 L11^T = A21`, one row per RHS), (3) SYRK-style trailing update
/// `A22 -= L21 L21^T` evaluated in row chunks through the cache-blocked
/// matmul, subtracting only the lower triangle.
fn factor_blocked(l: &mut Matrix) -> Result<(), LinalgError> {
    let n = l.nrows();
    let mut k0 = 0usize;
    while k0 < n {
        let nb = BLOCK.min(n - k0);
        let k1 = k0 + nb;
        factor_diag_block(l, k0, k1)?;
        let m = n - k1;
        if m > 0 {
            // Pack the diagonal block (lower triangle) and the sub-diagonal
            // panel; solve all panel rows against L11 in one blocked pass.
            let mut l11 = Matrix::zeros(nb, nb);
            for i in 0..nb {
                let src = &l.row(k0 + i)[k0..k0 + i + 1];
                l11.row_mut(i)[..=i].copy_from_slice(src);
            }
            let mut a21 = Matrix::zeros(m, nb);
            for r in 0..m {
                a21.row_mut(r).copy_from_slice(&l.row(k1 + r)[k0..k1]);
            }
            let l21 = solve_lower_rhs_rows(&l11, &a21)?;
            for r in 0..m {
                l.row_mut(k1 + r)[k0..k1].copy_from_slice(l21.row(r));
            }
            // Trailing update in row chunks: chunk rows [r0, r1) of the
            // trailing matrix only need products against rows 0..r1 of L21
            // (columns past the diagonal belong to the upper triangle), so
            // each chunk multiplies (r1-r0) x nb by nb x r1 — about half the
            // flops of the full square product.
            let mut r0 = 0usize;
            while r0 < m {
                let r1 = (r0 + BLOCK).min(m);
                let lhs = Matrix::from_vec(r1 - r0, nb, l21.as_slice()[r0 * nb..r1 * nb].to_vec())
                    .expect("chunk shape");
                let mut rt = Matrix::zeros(nb, r1);
                for r in 0..r1 {
                    let row = l21.row(r);
                    for (c, v) in row.iter().enumerate() {
                        rt[(c, r)] = *v;
                    }
                }
                let p = lhs.matmul(&rt)?;
                for r in r0..r1 {
                    let prow = p.row(r - r0);
                    let lrow = &mut l.row_mut(k1 + r)[k1..];
                    for c in 0..=r {
                        lrow[c] -= prow[c];
                    }
                }
                r0 = r1;
            }
        }
        k0 = k1;
    }
    Ok(())
}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix. Only the lower triangle
    /// of `a` is read. Dispatches to the blocked right-looking algorithm for
    /// large orders and the unblocked right-looking sweep below
    /// [`BLOCKED_MIN`].
    ///
    /// # Errors
    /// [`LinalgError::NotPositiveDefinite`] if a pivot is `<= 0`;
    /// [`LinalgError::DimensionMismatch`] if `a` is not square;
    /// [`LinalgError::NonFinite`] if the input contains NaN/inf.
    pub fn decompose(a: &Matrix) -> Result<Self, LinalgError> {
        Self::decompose_with(a, kernel_for(a.nrows()))
    }

    /// Force the unblocked factorization regardless of order. Bit-identical
    /// to the classic left-looking column sweep; used by equivalence tests
    /// and available for debugging.
    pub fn decompose_unblocked(a: &Matrix) -> Result<Self, LinalgError> {
        Self::decompose_with(a, factor_unblocked)
    }

    /// Force the blocked right-looking factorization regardless of order
    /// (exercises the panel/TRSM/SYRK path even for small matrices; agrees
    /// with [`Self::decompose_unblocked`] to ~1e-12 on well-conditioned
    /// inputs, differing only in floating-point summation grouping).
    pub fn decompose_blocked(a: &Matrix) -> Result<Self, LinalgError> {
        Self::decompose_with(a, factor_blocked)
    }

    fn decompose_with(a: &Matrix, factor: FactorKernel) -> Result<Self, LinalgError> {
        validate(a)?;
        let n = a.nrows();
        let mut l = Matrix::zeros(n, n);
        restore_lower(&mut l, a, 0.0);
        factor(&mut l)?;
        Ok(Cholesky { l, jitter: 0.0 })
    }

    /// Factor with retries: if the plain factorization fails, add
    /// `jitter = first_jitter * 10^k` (k = 0, 1, ..., `max_tries-1`) to the
    /// diagonal until it succeeds. `first_jitter` is scaled by the mean
    /// diagonal magnitude so the retry ladder is dimensionally sensible.
    ///
    /// The input is validated (shape + finiteness) once up front and every
    /// retry reuses the same factor buffer. Both factor kernels are
    /// right-looking — each pivot updates the whole trailing triangle — so
    /// a failed rung may have dirtied every column, and the next rung
    /// restores all of them (`O(n^2)` copies, against the `O(n^3)`
    /// factorization it precedes). A true resume from the failed pivot is
    /// impossible anyway: each rung's jitter perturbs every pivot. Rung,
    /// factor and final error are bit-identical to the left-looking sweep's.
    ///
    /// Returns the factor together with the jitter that was used (see
    /// [`Cholesky::jitter`]).
    pub fn decompose_jittered(
        a: &Matrix,
        first_jitter: f64,
        max_tries: usize,
    ) -> Result<Self, LinalgError> {
        let _span = alperf_obs::span("linalg.cholesky");
        Self::jittered_with(a, first_jitter, max_tries, kernel_for(a.nrows()))
    }

    fn jittered_with(
        a: &Matrix,
        first_jitter: f64,
        max_tries: usize,
        factor: FactorKernel,
    ) -> Result<Self, LinalgError> {
        validate(a)?;
        let n = a.nrows();
        let mean_diag = if n == 0 {
            1.0
        } else {
            a.diagonal().iter().map(|v| v.abs()).sum::<f64>() / n as f64
        };
        let base = first_jitter * mean_diag.max(f64::MIN_POSITIVE);
        let mut l = Matrix::zeros(n, n);
        let mut last_err = None;
        for k in 0..max_tries.max(1) {
            let jitter = if k == 0 {
                0.0
            } else {
                base * 10f64.powi(k as i32 - 1)
            };
            restore_lower(&mut l, a, jitter);
            match factor(&mut l) {
                Ok(()) => return Ok(Cholesky { l, jitter }),
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
        let y = solve_lower(&self.l, b)?;
        solve_lower_transpose(&self.l, &y)
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
        if let Some(i) = (0..n).find(|&i| self.l[(i, i)] == 0.0) {
            return Err(LinalgError::Singular { index: i });
        }
        let mut inv = Matrix::zeros(n, n);
        for j0 in (0..n).step_by(BLOCK) {
            let nb = BLOCK.min(n - j0);
            // Columns j0..j0+nb of the identity; rows above j0 stay zero
            // and are skipped along with the rest of each column's leading
            // zeros.
            let mut buf = vec![0.0; n * nb];
            for c in 0..nb {
                buf[(j0 + c) * nb + c] = 1.0;
            }
            forward_sub_block(&self.l, &mut buf, nb, Some(j0));
            for i in j0..n {
                let w = nb.min(i - j0 + 1);
                inv.row_mut(i)[j0..j0 + w].copy_from_slice(&buf[i * nb..i * nb + w]);
            }
        }
        Ok(inv)
    }

    /// Lower triangle of `A^{-1}` (strict upper left zero), formed directly
    /// from [`Self::factor_inverse`] as `(A^{-1})_{ij} = sum_{k >= i}
    /// (L^{-1})_{ki} (L^{-1})_{kj}` for `j <= i`: row `i` accumulates
    /// `linv[k][i] * linv[k][..=i]` for `k` ascending from `i`, about `n^3/6`
    /// multiply-adds. The terms with `k < i` that a full `L^{-T} L^{-1}`
    /// product would add are exactly zero, so the result is bit-identical
    /// to the lower triangle of that product.
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
        let n = self.order();
        let linv = self.factor_inverse()?;
        let mut w = Matrix::zeros(n, n);
        for i in 0..n {
            let wi = &mut w.row_mut(i)[..=i];
            for k in i..n {
                let lk = &linv.row(k)[..=i];
                let c = lk[i];
                for (a, &b) in wi.iter_mut().zip(lk) {
                    *a += c * b;
                }
            }
        }
        Ok(w)
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
        let d2 = alpha + self.jitter - crate::vector::dot(&z, &z);
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

    // ---- Bit-identity of the right-looking sweep -------------------------

    /// The left-looking column sweep: the bit-identity reference for the
    /// right-looking one (over the diagonal block `k0..k1`; `(0, n)` is the
    /// whole unblocked factorization). On failure it reports the pivot and
    /// how many columns it dirtied.
    fn left_looking(l: &mut Matrix, k0: usize, k1: usize) -> Result<(), (LinalgError, usize)> {
        let nb = k1 - k0;
        for j in 0..nb {
            let gj = k0 + j;
            let mut d = l[(gj, gj)];
            for k in 0..j {
                let v = l[(gj, k0 + k)];
                d -= v * v;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err((
                    LinalgError::NotPositiveDefinite {
                        pivot: gj,
                        value: d,
                    },
                    gj,
                ));
            }
            let dsqrt = d.sqrt();
            l[(gj, gj)] = dsqrt;
            for i in (j + 1)..nb {
                let gi = k0 + i;
                let mut s = l[(gi, gj)];
                for k in 0..j {
                    s -= l[(gi, k0 + k)] * l[(gj, k0 + k)];
                }
                l[(gi, gj)] = s / dsqrt;
            }
        }
        Ok(())
    }

    /// The jitter ladder over the left-looking sweep, which lets a retry
    /// restore only the columns the failed attempt dirtied.
    fn left_looking_jittered(
        a: &Matrix,
        first_jitter: f64,
        max_tries: usize,
    ) -> Result<(Matrix, f64), LinalgError> {
        let n = a.nrows();
        let mean_diag = if n == 0 {
            1.0
        } else {
            a.diagonal().iter().map(|v| v.abs()).sum::<f64>() / n as f64
        };
        let base = first_jitter * mean_diag.max(f64::MIN_POSITIVE);
        let mut l = Matrix::zeros(n, n);
        let mut dirty = n;
        let mut last_err = None;
        for k in 0..max_tries.max(1) {
            let jitter = if k == 0 {
                0.0
            } else {
                base * 10f64.powi(k as i32 - 1)
            };
            for i in 0..n {
                let lim = i.min(dirty);
                l.row_mut(i)[..lim].copy_from_slice(&a.row(i)[..lim]);
                l[(i, i)] = a[(i, i)] + jitter;
            }
            match left_looking(&mut l, 0, n) {
                Ok(()) => return Ok((l, jitter)),
                Err((e, d)) => {
                    dirty = d;
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap())
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
        for n in 1..=130usize {
            let a = well_conditioned_spd(n, 7 + n as u64);
            let mut want = Matrix::zeros(n, n);
            restore_lower(&mut want, &a, 0.0);
            left_looking(&mut want, 0, n).unwrap();
            let got = Cholesky::decompose_unblocked(&a).unwrap();
            assert_eq!(bits(got.factor()), bits(&want), "n={n}");
            if n < BLOCKED_MIN {
                let auto = Cholesky::decompose(&a).unwrap();
                assert_eq!(bits(auto.factor()), bits(&want), "n={n} (auto)");
            }
        }
    }

    #[test]
    fn blocked_panels_match_left_looking_bit_for_bit() {
        // The blocked path factors each diagonal block with the same sweep;
        // check it on the panels of a 130 x 130 matrix, whose trailing
        // blocks start at 64 and 128.
        let n = 130;
        let a = well_conditioned_spd(n, 99);
        for (k0, k1) in [(0, 64), (64, 128), (128, 130)] {
            let mut got = Matrix::zeros(n, n);
            restore_lower(&mut got, &a, 0.0);
            let mut want = got.clone();
            factor_diag_block(&mut got, k0, k1).unwrap();
            left_looking(&mut want, k0, k1).unwrap();
            assert_eq!(bits(&got), bits(&want), "block {k0}..{k1}");
        }
    }

    #[test]
    fn jitter_ladder_matches_left_looking_rung_for_rung() {
        let mut climbed = 0;
        for n in 1..=130usize {
            let a = near_singular(n, n as u64);
            for tries in [1usize, 2, 12] {
                let want = left_looking_jittered(&a, 1e-10, tries);
                let got = Cholesky::jittered_with(&a, 1e-10, tries, factor_unblocked);
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
                if n < BLOCKED_MIN {
                    let auto = Cholesky::decompose_jittered(&a, 1e-10, tries);
                    match (&auto, &got) {
                        (Ok(x), Ok(y)) => assert_eq!(bits(x.factor()), bits(y.factor())),
                        (Err(x), Err(y)) => assert!(same_error(x, y)),
                        _ => panic!("n={n}: dispatch differs"),
                    }
                }
            }
        }
        assert!(climbed > 60, "only {climbed} inputs needed jitter");
        // A ladder that never succeeds ends in the same typed error.
        let neg = Matrix::from_fn(5, 5, |i, j| if i == j { -1.0 } else { 0.1 });
        let got = Cholesky::jittered_with(&neg, 1e-10, 4, factor_unblocked).unwrap_err();
        let want = left_looking_jittered(&neg, 1e-10, 4).unwrap_err();
        assert!(same_error(&got, &want), "{got:?} vs {want:?}");
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

    #[test]
    fn inverse_lower_matches_dense_product_bit_for_bit() {
        for n in 1..=130usize {
            let c = Cholesky::decompose(&well_conditioned_spd(n, 3 * n as u64)).unwrap();
            let linv = solve_lower_rhs_rows(c.factor(), &Matrix::identity(n))
                .unwrap()
                .transpose();
            let full = linv.transpose().matmul(&linv).unwrap();
            let w = c.inverse_lower().unwrap();
            for i in 0..n {
                for j in 0..n {
                    let want = if j <= i { full[(i, j)] } else { 0.0 };
                    assert_eq!(w[(i, j)].to_bits(), want.to_bits(), "n={n} ({i},{j})");
                }
            }
        }
    }
}
