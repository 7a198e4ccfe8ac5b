//! Triangular solves.
//!
//! GPR never forms `K_y^{-1}` explicitly. With the Cholesky factor `L`
//! (`K_y = L L^T`), applying the inverse is two triangular solves:
//! `alpha = L^{-T} (L^{-1} y)`. The predictive variance needs only the
//! forward solve: `sigma_*^2 = k_** - ||L^{-1} k_*||^2`.

#[cfg(target_arch = "x86_64")]
use crate::cpu;
use crate::error::LinalgError;
use crate::matrix::Matrix;

/// Number of right-hand-side columns handled per block in the multi-RHS
/// solves. Each block is copied into a compact `n x RHS_BLOCK` buffer so the
/// substitution sweeps contiguous memory.
const RHS_BLOCK: usize = 64;

/// Solve `L x = b` where `L` is lower triangular (entries above the diagonal
/// are ignored). Returns the solution vector.
///
/// # Errors
/// [`LinalgError::Singular`] if a diagonal entry is exactly zero;
/// [`LinalgError::DimensionMismatch`] on shape mismatch.
pub fn solve_lower(l: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let mut x = b.to_vec();
    solve_lower_in_place(l, &mut x)?;
    Ok(x)
}

/// [`solve_lower`] in place: `x` holds `b` on entry and the solution on
/// return (bit-identical to `solve_lower`'s).
///
/// # Errors
/// Same conditions as [`solve_lower`].
pub fn solve_lower_in_place(l: &Matrix, x: &mut [f64]) -> Result<(), LinalgError> {
    let n = l.nrows();
    if l.ncols() != n || x.len() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "solve_lower",
            details: format!("L is {}x{}, b has {}", l.nrows(), l.ncols(), x.len()),
        });
    }
    for i in 0..n {
        let row = l.row(i);
        let mut s = x[i];
        for j in 0..i {
            s -= row[j] * x[j];
        }
        let d = row[i];
        if d == 0.0 {
            return Err(LinalgError::Singular { index: i });
        }
        x[i] = s / d;
    }
    Ok(())
}

/// Solve `L^T x = b` where `L` is lower triangular (so `L^T` is upper
/// triangular), without materializing the transpose.
#[cfg(test)]
fn solve_lower_transpose(l: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let mut x = b.to_vec();
    solve_lower_transpose_in_place(l, &mut x)?;
    Ok(x)
}

/// Solve `L^T x = b` in place, where `L` is lower triangular, without
/// materializing the transpose: `x` holds `b` on entry and the solution on
/// return.
///
/// # Errors
/// [`LinalgError::DimensionMismatch`] when `L` is not square or `x` does
/// not match its order; [`LinalgError::Singular`] on a zero diagonal.
pub fn solve_lower_transpose_in_place(l: &Matrix, x: &mut [f64]) -> Result<(), LinalgError> {
    let n = l.nrows();
    if l.ncols() != n || x.len() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "solve_lower_transpose",
            details: format!("L is {}x{}, b has {}", l.nrows(), l.ncols(), x.len()),
        });
    }
    for i in (0..n).rev() {
        let mut s = x[i];
        // L^T[i][j] = L[j][i] for j > i.
        for j in (i + 1)..n {
            s -= l[(j, i)] * x[j];
        }
        let d = l[(i, i)];
        if d == 0.0 {
            return Err(LinalgError::Singular { index: i });
        }
        x[i] = s / d;
    }
    Ok(())
}

/// Solve `U x = b` where `U` is upper triangular (entries below the diagonal
/// are ignored).
#[cfg(test)]
fn solve_upper(u: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let n = u.nrows();
    if u.ncols() != n || b.len() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "solve_upper",
            details: format!("U is {}x{}, b has {}", u.nrows(), u.ncols(), b.len()),
        });
    }
    let mut x = b.to_vec();
    for i in (0..n).rev() {
        let row = u.row(i);
        let mut s = x[i];
        for j in (i + 1)..n {
            s -= row[j] * x[j];
        }
        let d = row[i];
        if d == 0.0 {
            return Err(LinalgError::Singular { index: i });
        }
        x[i] = s / d;
    }
    Ok(x)
}

/// Solve `L X = B` for a matrix right-hand side with blocked multi-RHS
/// forward substitution; used for `L^{-1} K` in the LML gradient and for
/// batched GPR prediction (`Z = L^{-1} K(X, X*)`).
///
/// The RHS is processed in column blocks of [`RHS_BLOCK`]: each block is
/// copied into a compact `n x bs` row-major buffer so the substitution's
/// inner loop sweeps contiguous memory (a row operation over the block)
/// instead of striding through `B`. Every element sees the same update *order*
/// as [`solve_lower`] on its column; the portable path is bit-identical to
/// the scalar solve, while the runtime-detected x86-64 FMA kernels fuse
/// each multiply-subtract and agree with it to a few ulps.
pub fn solve_lower_matrix(l: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    multi_rhs_solve(l, b, "solve_lower_matrix", |l, buf, bs| {
        forward_sub_block(l, buf, bs, None)
    })
}

/// Solve `L X = B^T` where the right-hand sides arrive as the *rows* of
/// `bt` (an `m x n` matrix), returning the solutions as the rows of an
/// `m x n` result — i.e. row `r` of the output is `L^{-1} bt[r]`.
///
/// This is the layout batched GPR prediction wants: the cross-covariance
/// `K(X*, X)` is naturally `m x n` with one candidate per row, and the
/// per-candidate variance reduction needs the squared norm of each solved
/// row. Packing straight from (and back to) the row layout fuses the
/// transpose into the block copy the solve performs anyway, instead of
/// materializing an `n x m` intermediate. Element-for-element the result is
/// bit-identical to `solve_lower_matrix(l, &bt.transpose())` transposed.
///
/// # Errors
/// Same conditions as [`solve_lower_matrix`].
pub fn solve_lower_rhs_rows(l: &Matrix, bt: &Matrix) -> Result<Matrix, LinalgError> {
    let n = l.nrows();
    if l.ncols() != n || bt.ncols() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "solve_lower_rhs_rows",
            details: format!(
                "L is {}x{}, B^T is {}x{}",
                l.nrows(),
                l.ncols(),
                bt.nrows(),
                bt.ncols()
            ),
        });
    }
    for i in 0..n {
        if l[(i, i)] == 0.0 {
            return Err(LinalgError::Singular { index: i });
        }
    }
    let m = bt.nrows();
    let mut out = Matrix::zeros(m, n);
    if n == 0 || m == 0 {
        return Ok(out);
    }
    let mut block = vec![0.0; n * RHS_BLOCK.min(m)];
    for r0 in (0..m).step_by(RHS_BLOCK) {
        let bs = RHS_BLOCK.min(m - r0);
        let buf = &mut block[..n * bs];
        // Pack RHS rows r0..r0+bs as the *columns* of a compact n x bs
        // buffer (the transpose happens inside this copy).
        for (c, row) in (r0..r0 + bs).map(|r| bt.row(r)).enumerate() {
            for i in 0..n {
                buf[i * bs + c] = row[i];
            }
        }
        forward_sub_block(l, buf, bs, None);
        for (c, r) in (r0..r0 + bs).enumerate() {
            let dst = out.row_mut(r);
            for i in 0..n {
                dst[i] = buf[i * bs + c];
            }
        }
    }
    Ok(out)
}

/// Solve `L^T X = B` for a matrix right-hand side (backward substitution,
/// without materializing the transpose) — the multi-RHS analog of
/// [`solve_lower_transpose_in_place`], bit-identical to it
/// column-for-column.
pub fn solve_lower_transpose_matrix(l: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    multi_rhs_solve(l, b, "solve_lower_transpose_matrix", backward_sub_block)
}

/// Rows solved together in [`forward_sub_block`]: each solved row `x_j`
/// loaded from the buffer updates `PANEL` pending rows at once, cutting the
/// buffer traffic (the bandwidth bound of the substitution) by the same
/// factor. Per `(row, column)` element the update order over `j` is
/// unchanged, so the panelled sweep matches the scalar one to roundoff
/// (bit-identical on the portable path; the x86-64 FMA kernels fuse each
/// multiply-subtract, which differs from the scalar path by at most one
/// rounding per update).
const PANEL: usize = 4;

/// Column-tile width of the panel update: PANEL x KCHUNK accumulators stay
/// in registers across the whole solved-rows sweep (8 AVX2 registers at
/// PANEL = 4, KCHUNK = 8).
const KCHUNK: usize = 8;

/// Leading-zero structure of a block of right-hand sides, threaded through
/// every kernel of [`forward_sub_block`]. `None`: dense right-hand sides.
/// `Some(o)`: column `c` of the block is the unit vector `e_{o + c}` (the
/// explicit `L^{-1}` of `Cholesky::factor_inverse`), so its solution is
/// exactly zero above row `o + c`. Updates by those rows would subtract
/// products with `+0.0` from accumulators that are themselves still `+0.0`
/// or `1.0`, and the `+0.0` entries above the unit row would be divided by
/// a positive diagonal (every Cholesky factor's); neither changes a bit, so
/// the kernels skip both.
type UnitRhs = Option<usize>;

/// First solved row whose update can change column `c`.
fn first_row(unit: UnitRhs, c: usize) -> usize {
    unit.map_or(0, |o| o + c)
}

/// End (exclusive) of the columns a row op by solved row `j` can change.
fn col_end(unit: UnitRhs, j: usize, bs: usize) -> usize {
    unit.map_or(bs, |o| (j + 1).saturating_sub(o).min(bs))
}

/// Update four pending panel rows against all previously solved rows:
/// `r_t[k] -= L[p0 + t][j] * done[j][k]` for `j` ascending. Dispatches to a
/// runtime-detected FMA kernel on x86-64 and to the portable tiled loop
/// elsewhere.
#[allow(clippy::too_many_arguments)]
fn panel_update(
    lrows: (&[f64], &[f64], &[f64], &[f64]),
    done: &[f64],
    r0: &mut [f64],
    r1: &mut [f64],
    r2: &mut [f64],
    r3: &mut [f64],
    bs: usize,
    unit: UnitRhs,
) {
    #[cfg(target_arch = "x86_64")]
    {
        match cpu::isa() {
            cpu::Isa::Avx512 => {
                // SAFETY: `isa()` verified avx512f support on this CPU.
                unsafe { simd::panel_update_avx512(lrows, done, r0, r1, r2, r3, bs, unit) };
                return;
            }
            cpu::Isa::Fma => {
                // SAFETY: `isa()` verified avx2+fma support on this CPU.
                unsafe { simd::panel_update_fma(lrows, done, r0, r1, r2, r3, bs, unit) };
                return;
            }
            cpu::Isa::Portable => {}
        }
    }
    panel_update_portable(lrows, done, r0, r1, r2, r3, bs, unit);
}

/// Portable panel update: the column dimension is tiled by [`KCHUNK`] so
/// each tile's PANEL x KCHUNK accumulators live in registers for the whole
/// `j` sweep; `x_j` values are loaded once per panel instead of once per
/// row, and the accumulators incur no per-`j` store/reload traffic.
/// Bit-identical to the scalar substitution (separate multiply and
/// subtract, `j` ascending). With unit right-hand sides each tile's `j`
/// sweep starts at the tile's first column's unit row, and the ragged
/// remainder's row ops stop at the last column row `j` can change.
#[allow(clippy::too_many_arguments)]
fn panel_update_portable(
    lrows: (&[f64], &[f64], &[f64], &[f64]),
    done: &[f64],
    r0: &mut [f64],
    r1: &mut [f64],
    r2: &mut [f64],
    r3: &mut [f64],
    bs: usize,
    unit: UnitRhs,
) {
    let (l0, l1, l2, l3) = lrows;
    let mut k0 = 0;
    while k0 + KCHUNK <= bs {
        let mut a0 = [0.0f64; KCHUNK];
        let mut a1 = [0.0f64; KCHUNK];
        let mut a2 = [0.0f64; KCHUNK];
        let mut a3 = [0.0f64; KCHUNK];
        a0.copy_from_slice(&r0[k0..k0 + KCHUNK]);
        a1.copy_from_slice(&r1[k0..k0 + KCHUNK]);
        a2.copy_from_slice(&r2[k0..k0 + KCHUNK]);
        a3.copy_from_slice(&r3[k0..k0 + KCHUNK]);
        let js = first_row(unit, k0);
        for (j, xj) in done.chunks_exact(bs).enumerate().skip(js) {
            let (c0, c1, c2, c3) = (l0[j], l1[j], l2[j], l3[j]);
            let b = &xj[k0..k0 + KCHUNK];
            for t in 0..KCHUNK {
                a0[t] -= c0 * b[t];
                a1[t] -= c1 * b[t];
                a2[t] -= c2 * b[t];
                a3[t] -= c3 * b[t];
            }
        }
        r0[k0..k0 + KCHUNK].copy_from_slice(&a0);
        r1[k0..k0 + KCHUNK].copy_from_slice(&a1);
        r2[k0..k0 + KCHUNK].copy_from_slice(&a2);
        r3[k0..k0 + KCHUNK].copy_from_slice(&a3);
        k0 += KCHUNK;
    }
    // Ragged column remainder of the block.
    if k0 < bs {
        let js = first_row(unit, k0);
        for (j, xj) in done.chunks_exact(bs).enumerate().skip(js) {
            let (c0, c1, c2, c3) = (l0[j], l1[j], l2[j], l3[j]);
            for k in k0..col_end(unit, j, bs) {
                let b = xj[k];
                r0[k] -= c0 * b;
                r1[k] -= c1 * b;
                r2[k] -= c2 * b;
                r3[k] -= c3 * b;
            }
        }
    }
}

/// Runtime-dispatched x86-64 FMA kernels for the panel update (picked by
/// [`cpu::isa`]): they widen the column loop to 256/512-bit lanes and fuse
/// each multiply-subtract.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::{first_row, UnitRhs};
    use std::arch::x86_64::*;

    /// Scalar column remainder shared by both kernels: same update order,
    /// unfused ops (the remainder is at most KCHUNK - 1 columns). Column
    /// `k` of unit right-hand sides starts at its unit row.
    #[allow(clippy::too_many_arguments)]
    fn remainder(
        lrows: (&[f64], &[f64], &[f64], &[f64]),
        done: &[f64],
        r0: &mut [f64],
        r1: &mut [f64],
        r2: &mut [f64],
        r3: &mut [f64],
        bs: usize,
        k0: usize,
        unit: UnitRhs,
    ) {
        let (l0, l1, l2, l3) = lrows;
        for k in k0..bs {
            let (mut s0, mut s1, mut s2, mut s3) = (r0[k], r1[k], r2[k], r3[k]);
            for (j, xj) in done.chunks_exact(bs).enumerate().skip(first_row(unit, k)) {
                let b = xj[k];
                s0 -= l0[j] * b;
                s1 -= l1[j] * b;
                s2 -= l2[j] * b;
                s3 -= l3[j] * b;
            }
            r0[k] = s0;
            r1[k] = s1;
            r2[k] = s2;
            r3[k] = s3;
        }
    }

    /// AVX2 + FMA panel update: 8 ymm accumulators (4 rows x 8 columns).
    ///
    /// # Safety
    /// The CPU must support `avx2` and `fma` (checked by [`crate::cpu::isa`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn panel_update_fma(
        lrows: (&[f64], &[f64], &[f64], &[f64]),
        done: &[f64],
        r0: &mut [f64],
        r1: &mut [f64],
        r2: &mut [f64],
        r3: &mut [f64],
        bs: usize,
        unit: UnitRhs,
    ) {
        let (l0, l1, l2, l3) = lrows;
        let p0 = done.len() / bs;
        let dp = done.as_ptr();
        let mut k0 = 0usize;
        while k0 + 8 <= bs {
            unsafe {
                let mut a00 = _mm256_loadu_pd(r0.as_ptr().add(k0));
                let mut a01 = _mm256_loadu_pd(r0.as_ptr().add(k0 + 4));
                let mut a10 = _mm256_loadu_pd(r1.as_ptr().add(k0));
                let mut a11 = _mm256_loadu_pd(r1.as_ptr().add(k0 + 4));
                let mut a20 = _mm256_loadu_pd(r2.as_ptr().add(k0));
                let mut a21 = _mm256_loadu_pd(r2.as_ptr().add(k0 + 4));
                let mut a30 = _mm256_loadu_pd(r3.as_ptr().add(k0));
                let mut a31 = _mm256_loadu_pd(r3.as_ptr().add(k0 + 4));
                for j in first_row(unit, k0)..p0 {
                    let xj = dp.add(j * bs + k0);
                    let b0 = _mm256_loadu_pd(xj);
                    let b1 = _mm256_loadu_pd(xj.add(4));
                    let c0 = _mm256_set1_pd(*l0.get_unchecked(j));
                    a00 = _mm256_fnmadd_pd(c0, b0, a00);
                    a01 = _mm256_fnmadd_pd(c0, b1, a01);
                    let c1 = _mm256_set1_pd(*l1.get_unchecked(j));
                    a10 = _mm256_fnmadd_pd(c1, b0, a10);
                    a11 = _mm256_fnmadd_pd(c1, b1, a11);
                    let c2 = _mm256_set1_pd(*l2.get_unchecked(j));
                    a20 = _mm256_fnmadd_pd(c2, b0, a20);
                    a21 = _mm256_fnmadd_pd(c2, b1, a21);
                    let c3 = _mm256_set1_pd(*l3.get_unchecked(j));
                    a30 = _mm256_fnmadd_pd(c3, b0, a30);
                    a31 = _mm256_fnmadd_pd(c3, b1, a31);
                }
                _mm256_storeu_pd(r0.as_mut_ptr().add(k0), a00);
                _mm256_storeu_pd(r0.as_mut_ptr().add(k0 + 4), a01);
                _mm256_storeu_pd(r1.as_mut_ptr().add(k0), a10);
                _mm256_storeu_pd(r1.as_mut_ptr().add(k0 + 4), a11);
                _mm256_storeu_pd(r2.as_mut_ptr().add(k0), a20);
                _mm256_storeu_pd(r2.as_mut_ptr().add(k0 + 4), a21);
                _mm256_storeu_pd(r3.as_mut_ptr().add(k0), a30);
                _mm256_storeu_pd(r3.as_mut_ptr().add(k0 + 4), a31);
            }
            k0 += 8;
        }
        remainder(lrows, done, r0, r1, r2, r3, bs, k0, unit);
    }

    /// AVX-512F panel update: 8 zmm accumulators (4 rows x 16 columns).
    ///
    /// # Safety
    /// The CPU must support `avx512f` (checked by [`crate::cpu::isa`]).
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn panel_update_avx512(
        lrows: (&[f64], &[f64], &[f64], &[f64]),
        done: &[f64],
        r0: &mut [f64],
        r1: &mut [f64],
        r2: &mut [f64],
        r3: &mut [f64],
        bs: usize,
        unit: UnitRhs,
    ) {
        let (l0, l1, l2, l3) = lrows;
        let p0 = done.len() / bs;
        let dp = done.as_ptr();
        let mut k0 = 0usize;
        while k0 + 16 <= bs {
            unsafe {
                let mut a00 = _mm512_loadu_pd(r0.as_ptr().add(k0));
                let mut a01 = _mm512_loadu_pd(r0.as_ptr().add(k0 + 8));
                let mut a10 = _mm512_loadu_pd(r1.as_ptr().add(k0));
                let mut a11 = _mm512_loadu_pd(r1.as_ptr().add(k0 + 8));
                let mut a20 = _mm512_loadu_pd(r2.as_ptr().add(k0));
                let mut a21 = _mm512_loadu_pd(r2.as_ptr().add(k0 + 8));
                let mut a30 = _mm512_loadu_pd(r3.as_ptr().add(k0));
                let mut a31 = _mm512_loadu_pd(r3.as_ptr().add(k0 + 8));
                for j in first_row(unit, k0)..p0 {
                    let xj = dp.add(j * bs + k0);
                    let b0 = _mm512_loadu_pd(xj);
                    let b1 = _mm512_loadu_pd(xj.add(8));
                    let c0 = _mm512_set1_pd(*l0.get_unchecked(j));
                    a00 = _mm512_fnmadd_pd(c0, b0, a00);
                    a01 = _mm512_fnmadd_pd(c0, b1, a01);
                    let c1 = _mm512_set1_pd(*l1.get_unchecked(j));
                    a10 = _mm512_fnmadd_pd(c1, b0, a10);
                    a11 = _mm512_fnmadd_pd(c1, b1, a11);
                    let c2 = _mm512_set1_pd(*l2.get_unchecked(j));
                    a20 = _mm512_fnmadd_pd(c2, b0, a20);
                    a21 = _mm512_fnmadd_pd(c2, b1, a21);
                    let c3 = _mm512_set1_pd(*l3.get_unchecked(j));
                    a30 = _mm512_fnmadd_pd(c3, b0, a30);
                    a31 = _mm512_fnmadd_pd(c3, b1, a31);
                }
                _mm512_storeu_pd(r0.as_mut_ptr().add(k0), a00);
                _mm512_storeu_pd(r0.as_mut_ptr().add(k0 + 8), a01);
                _mm512_storeu_pd(r1.as_mut_ptr().add(k0), a10);
                _mm512_storeu_pd(r1.as_mut_ptr().add(k0 + 8), a11);
                _mm512_storeu_pd(r2.as_mut_ptr().add(k0), a20);
                _mm512_storeu_pd(r2.as_mut_ptr().add(k0 + 8), a21);
                _mm512_storeu_pd(r3.as_mut_ptr().add(k0), a30);
                _mm512_storeu_pd(r3.as_mut_ptr().add(k0 + 8), a31);
            }
            k0 += 16;
        }
        remainder(lrows, done, r0, r1, r2, r3, bs, k0, unit);
    }

    /// Double-height AVX-512 panel update on the raw block buffer: rows
    /// `p0..p0 + 8` updated against solved rows `0..p0` with 16 zmm
    /// accumulators (8 rows x 16 columns), so each `x_j` load serves eight
    /// pending rows — half the buffer traffic of the 4-row kernel.
    ///
    /// # Safety
    /// The CPU must support `avx512f` (checked by [`crate::cpu::isa`]); `buf` must hold
    /// at least `(p0 + 8) * bs` elements (it is a full `n x bs` block).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn panel_update8_avx512(
        l: &crate::matrix::Matrix,
        p0: usize,
        buf: &mut [f64],
        bs: usize,
        unit: UnitRhs,
    ) {
        let lp: [&[f64]; 8] = std::array::from_fn(|t| l.row(p0 + t));
        let base = buf.as_mut_ptr();
        let mut k0 = 0usize;
        while k0 + 16 <= bs {
            unsafe {
                let mut acc0: [__m512d; 8] = std::array::from_fn(|t| {
                    _mm512_loadu_pd(base.add((p0 + t) * bs + k0) as *const f64)
                });
                let mut acc1: [__m512d; 8] = std::array::from_fn(|t| {
                    _mm512_loadu_pd(base.add((p0 + t) * bs + k0 + 8) as *const f64)
                });
                for j in first_row(unit, k0)..p0 {
                    let xj = base.add(j * bs + k0) as *const f64;
                    let b0 = _mm512_loadu_pd(xj);
                    let b1 = _mm512_loadu_pd(xj.add(8));
                    for t in 0..8 {
                        let c = _mm512_set1_pd(*lp[t].get_unchecked(j));
                        acc0[t] = _mm512_fnmadd_pd(c, b0, acc0[t]);
                        acc1[t] = _mm512_fnmadd_pd(c, b1, acc1[t]);
                    }
                }
                for t in 0..8 {
                    _mm512_storeu_pd(base.add((p0 + t) * bs + k0), acc0[t]);
                    _mm512_storeu_pd(base.add((p0 + t) * bs + k0 + 8), acc1[t]);
                }
            }
            k0 += 16;
        }
        // Scalar column remainder, same update order.
        for k in k0..bs {
            let mut s: [f64; 8] = std::array::from_fn(|t| buf[(p0 + t) * bs + k]);
            for j in first_row(unit, k)..p0 {
                let b = buf[j * bs + k];
                for (st, lt) in s.iter_mut().zip(&lp) {
                    *st -= lt[j] * b;
                }
            }
            for (t, &st) in s.iter().enumerate() {
                buf[(p0 + t) * bs + k] = st;
            }
        }
    }
}

/// Forward substitution on a compact `n x bs` row-major block buffer.
/// Row op `x_i -= L[i][j] * x_j` (j ascending), then `x_i /= L[i][i]` —
/// the exact per-element op order of [`solve_lower`].
///
/// Rows are processed in panels of [`PANEL`]: the panel is first updated
/// against all previously solved rows (`j` ascending, four pending rows
/// sharing each `x_j` load), then the small triangle inside the panel is
/// finished row by row. Each element still sees `x_i -= L[i][j] * x_j` for
/// `j = 0..i` in ascending order followed by one divide, exactly as
/// [`solve_lower`] computes it.
///
/// `unit` declares unit right-hand sides (see [`UnitRhs`]): every kernel
/// then skips the updates and divides that leave exact zeros unchanged,
/// and nothing else. Panel boundaries, column tiles and so every
/// FMA-or-mul/sub decision stay where they are, so the block comes out
/// bit-identical to the dense solve of the same right-hand sides.
pub(crate) fn forward_sub_block(l: &Matrix, buf: &mut [f64], bs: usize, unit: UnitRhs) {
    let n = l.nrows();
    let mut p0 = 0;
    // AVX-512 gets double-height panels: 16 zmm accumulators cover
    // 8 rows x 16 columns, so each `x_j` load serves 8 pending rows.
    #[cfg(target_arch = "x86_64")]
    if cpu::isa() == cpu::Isa::Avx512 {
        while n - p0 >= 2 * PANEL {
            if p0 > 0 {
                // SAFETY: `isa()` verified avx512f support on this CPU.
                unsafe { simd::panel_update8_avx512(l, p0, buf, bs, unit) };
            }
            finish_triangle(l, buf, bs, p0, 2 * PANEL, unit);
            p0 += 2 * PANEL;
        }
    }
    while p0 < n {
        let ph = PANEL.min(n - p0);
        // Panel update against rows [0, p0) — the bulk of the work.
        if ph == PANEL && p0 > 0 {
            let (done, rest) = buf.split_at_mut(p0 * bs);
            let (r0, rest) = rest.split_at_mut(bs);
            let (r1, rest) = rest.split_at_mut(bs);
            let (r2, rest) = rest.split_at_mut(bs);
            let r3 = &mut rest[..bs];
            let lrows = (l.row(p0), l.row(p0 + 1), l.row(p0 + 2), l.row(p0 + 3));
            panel_update(lrows, done, r0, r1, r2, r3, bs, unit);
        } else if p0 > 0 {
            // Ragged final panel: plain row-at-a-time update.
            for i in p0..p0 + ph {
                let lrow = l.row(i);
                let (done, rest) = buf.split_at_mut(i * bs);
                let xi = &mut rest[..bs];
                for (j, xj) in done.chunks_exact(bs).enumerate().take(p0) {
                    let lij = lrow[j];
                    for (a, &b) in xi[..col_end(unit, j, bs)].iter_mut().zip(xj) {
                        *a -= lij * b;
                    }
                }
            }
        }
        finish_triangle(l, buf, bs, p0, ph, unit);
        p0 += ph;
    }
}

/// Finish a panel: the triangle of updates internal to rows
/// `p0..p0 + ph` (`j` in `[p0, i)`, ascending), then the diagonal divide.
fn finish_triangle(l: &Matrix, buf: &mut [f64], bs: usize, p0: usize, ph: usize, unit: UnitRhs) {
    for i in p0..p0 + ph {
        let lrow = l.row(i);
        let (done, rest) = buf.split_at_mut(i * bs);
        let xi = &mut rest[..bs];
        for (j, xj) in done.chunks_exact(bs).enumerate().skip(p0) {
            let lij = lrow[j];
            for (a, &b) in xi[..col_end(unit, j, bs)].iter_mut().zip(xj) {
                *a -= lij * b;
            }
        }
        let d = lrow[i];
        for a in xi[..col_end(unit, i, bs)].iter_mut() {
            *a /= d;
        }
    }
}

/// Backward substitution (`L^T x = b`) on a compact block buffer; the exact
/// per-element op order of [`solve_lower_transpose_in_place`].
fn backward_sub_block(l: &Matrix, buf: &mut [f64], bs: usize) {
    let n = l.nrows();
    for i in (0..n).rev() {
        let (head, tail) = buf.split_at_mut((i + 1) * bs);
        let xi = &mut head[i * bs..];
        for (k, xj) in tail.chunks_exact(bs).enumerate() {
            // L^T[i][j] = L[j][i] for j = i + 1 + k.
            let lji = l[(i + 1 + k, i)];
            for (a, &b) in xi.iter_mut().zip(xj) {
                *a -= lji * b;
            }
        }
        let d = l[(i, i)];
        for a in xi.iter_mut() {
            *a /= d;
        }
    }
}

fn multi_rhs_solve(
    l: &Matrix,
    b: &Matrix,
    op: &'static str,
    substitute: fn(&Matrix, &mut [f64], usize),
) -> Result<Matrix, LinalgError> {
    let n = l.nrows();
    if l.ncols() != n || b.nrows() != n {
        return Err(LinalgError::DimensionMismatch {
            op,
            details: format!(
                "L is {}x{}, B is {}x{}",
                l.nrows(),
                l.ncols(),
                b.nrows(),
                b.ncols()
            ),
        });
    }
    // Validate the diagonal up front so the blocks can run infallibly
    // afterwards.
    for i in 0..n {
        if l[(i, i)] == 0.0 {
            return Err(LinalgError::Singular { index: i });
        }
    }
    let m = b.ncols();
    let mut out = Matrix::zeros(n, m);
    if n == 0 || m == 0 {
        return Ok(out);
    }
    let mut block = vec![0.0; n * RHS_BLOCK.min(m)];
    for j0 in (0..m).step_by(RHS_BLOCK) {
        let bs = RHS_BLOCK.min(m - j0);
        let buf = &mut block[..n * bs];
        for i in 0..n {
            buf[i * bs..(i + 1) * bs].copy_from_slice(&b.row(i)[j0..j0 + bs]);
        }
        substitute(l, buf, bs);
        for i in 0..n {
            out.row_mut(i)[j0..j0 + bs].copy_from_slice(&buf[i * bs..(i + 1) * bs]);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower() -> Matrix {
        Matrix::from_rows(&[&[2.0, 0.0, 0.0], &[1.0, 3.0, 0.0], &[4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn solve_lower_known() {
        let l = lower();
        // x = [1, 2, 3] => b = L x
        let b = l.matvec(&[1.0, 2.0, 3.0]).unwrap();
        let x = solve_lower(&l, &b).unwrap();
        for (xi, e) in x.iter().zip([1.0, 2.0, 3.0]) {
            assert!((xi - e).abs() < 1e-12);
        }
    }

    #[test]
    fn solve_lower_transpose_known() {
        let l = lower();
        let lt = l.transpose();
        let b = lt.matvec(&[1.0, -1.0, 2.0]).unwrap();
        let x = solve_lower_transpose(&l, &b).unwrap();
        for (xi, e) in x.iter().zip([1.0, -1.0, 2.0]) {
            assert!((xi - e).abs() < 1e-12);
        }
    }

    #[test]
    fn solve_upper_known() {
        let u = lower().transpose();
        let b = u.matvec(&[0.5, 1.5, -2.0]).unwrap();
        let x = solve_upper(&u, &b).unwrap();
        for (xi, e) in x.iter().zip([0.5, 1.5, -2.0]) {
            assert!((xi - e).abs() < 1e-12);
        }
    }

    #[test]
    fn singular_detected() {
        let l = Matrix::from_rows(&[&[1.0, 0.0], &[2.0, 0.0]]).unwrap();
        assert_eq!(
            solve_lower(&l, &[1.0, 1.0]),
            Err(LinalgError::Singular { index: 1 })
        );
        assert!(solve_lower_transpose(&l, &[1.0, 1.0]).is_err());
        assert!(solve_upper(&l.transpose(), &[1.0, 1.0]).is_err());
    }

    #[test]
    fn dimension_mismatch_detected() {
        let l = lower();
        assert!(solve_lower(&l, &[1.0]).is_err());
        assert!(solve_lower_transpose(&l, &[1.0]).is_err());
        assert!(solve_upper(&l, &[1.0, 1.0]).is_err());
    }

    #[test]
    fn solve_lower_matrix_matches_columnwise() {
        let l = lower();
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        let x = solve_lower_matrix(&l, &b).unwrap();
        // L * X should reproduce B.
        let lb = l.matmul(&x).unwrap();
        assert!(lb.max_abs_diff(&b) < 1e-12);
    }

    /// Dense pseudo-random lower-triangular factor with a safe diagonal.
    fn random_lower(n: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..i {
                l[(i, j)] = next();
            }
            l[(i, i)] = 1.0 + next().abs();
        }
        l
    }

    fn random_rhs(rows: usize, cols: usize, seed: u64) -> Matrix {
        Matrix::from_fn(rows, cols, move |i, j| {
            let mut s = seed ^ ((i as u64) << 32) ^ (j as u64);
            s = s.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            s ^= s >> 27;
            s = s.wrapping_mul(0x94D0_49BB_1331_11EB);
            s ^= s >> 31;
            (s >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
        })
    }

    #[test]
    fn solve_lower_matrix_matches_columnwise_to_roundoff() {
        // Wide enough to exercise a ragged final block (RHS_BLOCK does not
        // divide 150). The multi-RHS path
        // shares the scalar update order but may fuse multiply-subtract in
        // its FMA kernels, so the comparison allows roundoff-level error
        // (bit-identical on the portable path).
        let l = random_lower(48, 3);
        let b = random_rhs(48, 150, 5);
        let x = solve_lower_matrix(&l, &b).unwrap();
        for j in 0..b.ncols() {
            let xj = solve_lower(&l, &b.col(j)).unwrap();
            for i in 0..b.nrows() {
                let (got, want) = (x[(i, j)], xj[i]);
                assert!(
                    (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                    "mismatch at ({i}, {j}): {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn solve_lower_rhs_rows_matches_transposed_solve() {
        // The fused-transpose entry point must agree with transposing the
        // RHS explicitly — exactly, since both run the same block kernels.
        let l = random_lower(48, 7);
        let bt = random_rhs(150, 48, 9);
        let rows = solve_lower_rhs_rows(&l, &bt).unwrap();
        let cols = solve_lower_matrix(&l, &bt.transpose()).unwrap();
        for r in 0..bt.nrows() {
            for i in 0..48 {
                assert_eq!(rows[(r, i)], cols[(i, r)], "mismatch at ({r}, {i})");
            }
        }
        // Error cases mirror solve_lower_matrix.
        assert!(solve_lower_rhs_rows(&l, &random_rhs(10, 47, 1)).is_err());
        let sing = Matrix::from_rows(&[&[1.0, 0.0], &[2.0, 0.0]]).unwrap();
        assert_eq!(
            solve_lower_rhs_rows(&sing, &Matrix::zeros(3, 2)),
            Err(LinalgError::Singular { index: 1 })
        );
        // Empty RHS and empty system both round-trip.
        assert_eq!(
            solve_lower_rhs_rows(&l, &Matrix::zeros(0, 48))
                .unwrap()
                .nrows(),
            0
        );
    }

    #[test]
    fn solve_lower_transpose_matrix_bit_identical_to_columnwise() {
        let l = random_lower(48, 11);
        let b = random_rhs(48, 150, 13);
        let x = solve_lower_transpose_matrix(&l, &b).unwrap();
        for j in 0..b.ncols() {
            let xj = solve_lower_transpose(&l, &b.col(j)).unwrap();
            for i in 0..b.nrows() {
                assert_eq!(x[(i, j)], xj[i], "mismatch at ({i}, {j})");
            }
        }
    }

    #[test]
    fn matrix_solves_handle_empty_and_single_rhs() {
        let l = lower();
        let empty = Matrix::zeros(3, 0);
        assert_eq!(solve_lower_matrix(&l, &empty).unwrap().ncols(), 0);
        assert_eq!(solve_lower_transpose_matrix(&l, &empty).unwrap().ncols(), 0);
        let single = random_rhs(3, 1, 1);
        let x = solve_lower_transpose_matrix(&l, &single).unwrap();
        let xs = solve_lower_transpose(&l, &single.col(0)).unwrap();
        for i in 0..3 {
            assert_eq!(x[(i, 0)], xs[i]);
        }
    }

    #[test]
    fn matrix_solves_reject_singular_and_mismatch() {
        let l = Matrix::from_rows(&[&[1.0, 0.0], &[2.0, 0.0]]).unwrap();
        let b = Matrix::zeros(2, 3);
        assert_eq!(
            solve_lower_matrix(&l, &b),
            Err(LinalgError::Singular { index: 1 })
        );
        assert!(solve_lower_transpose_matrix(&l, &b).is_err());
        let bad = Matrix::zeros(2, 3);
        assert!(solve_lower_matrix(&lower(), &bad).is_err());
    }

    #[test]
    fn upper_entries_ignored_by_lower_solve() {
        let mut l = lower();
        l[(0, 2)] = 99.0; // garbage above the diagonal must not matter
        let b = vec![2.0, 4.0, 15.0];
        let x1 = solve_lower(&l, &b).unwrap();
        let x2 = solve_lower(&lower(), &b).unwrap();
        for (a, b) in x1.iter().zip(&x2) {
            assert_eq!(a, b);
        }
    }

    /// A block of unit right-hand sides (column `c` is `e_{o + c}`) part way
    /// through forward substitution: rows `0..solved` hold solved values —
    /// random on and below each column's unit row, exactly `+0.0` above it —
    /// and the later rows still hold the right-hand side.
    fn unit_block(rows: usize, bs: usize, o: usize, solved: usize, seed: u64) -> Vec<f64> {
        let vals = random_rhs(rows, bs, seed);
        let mut buf = vec![0.0; rows * bs];
        for j in 0..rows {
            for c in 0..bs {
                buf[j * bs + c] = if j < solved {
                    if j >= o + c {
                        vals[(j, c)]
                    } else {
                        0.0
                    }
                } else if j == o + c {
                    1.0
                } else {
                    0.0
                };
            }
        }
        buf
    }

    type Panel4 = fn(
        (&[f64], &[f64], &[f64], &[f64]),
        &[f64],
        &mut [f64],
        &mut [f64],
        &mut [f64],
        &mut [f64],
        usize,
        UnitRhs,
    );

    /// Rows `p0..p0 + 4` of `buf` updated against rows `0..p0` by `kernel`.
    fn run_panel4(
        kernel: Panel4,
        l: &Matrix,
        p0: usize,
        buf: &mut [f64],
        bs: usize,
        unit: UnitRhs,
    ) {
        let (done, rest) = buf.split_at_mut(p0 * bs);
        let (r0, rest) = rest.split_at_mut(bs);
        let (r1, rest) = rest.split_at_mut(bs);
        let (r2, rest) = rest.split_at_mut(bs);
        let lrows = (l.row(p0), l.row(p0 + 1), l.row(p0 + 2), l.row(p0 + 3));
        kernel(lrows, done, r0, r1, r2, &mut rest[..bs], bs, unit);
    }

    #[test]
    fn panel_kernels_skip_only_exact_zeros() {
        // Every panel kernel this CPU can run, called directly: told that
        // the right-hand sides are unit vectors, each must leave exactly
        // the bits of its dense sweep.
        let mut kernels: Vec<(&str, Panel4)> = vec![("portable", panel_update_portable)];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                kernels.push(("avx2+fma", |lr, d, a, b, c, e, bs, u| {
                    // SAFETY: avx2 and fma were detected above.
                    unsafe { simd::panel_update_fma(lr, d, a, b, c, e, bs, u) }
                }));
            }
            if is_x86_feature_detected!("avx512f") {
                kernels.push(("avx512", |lr, d, a, b, c, e, bs, u| {
                    // SAFETY: avx512f was detected above.
                    unsafe { simd::panel_update_avx512(lr, d, a, b, c, e, bs, u) }
                }));
            }
        }
        let mut checked = 0;
        for bs in [1usize, 3, 8, 13, 16, 21, 40, 64] {
            for o in [0usize, 2, 9] {
                for p0 in [4usize, 8, 12, 20, 36, 68] {
                    let seed = (bs * 1000 + o * 100 + p0) as u64;
                    let rows = p0 + 2 * PANEL;
                    let l = random_lower(rows, seed);
                    let start = unit_block(rows, bs, o, p0, seed);
                    for (name, kernel) in &kernels {
                        let mut dense = start.clone();
                        let mut skip = start.clone();
                        run_panel4(*kernel, &l, p0, &mut dense, bs, None);
                        run_panel4(*kernel, &l, p0, &mut skip, bs, Some(o));
                        let (d, s): (Vec<u64>, Vec<u64>) = dense
                            .iter()
                            .zip(&skip)
                            .map(|(d, s)| (d.to_bits(), s.to_bits()))
                            .unzip();
                        assert_eq!(d, s, "{name}: bs={bs} o={o} p0={p0}");
                        checked += 1;
                    }
                    #[cfg(target_arch = "x86_64")]
                    if is_x86_feature_detected!("avx512f") {
                        let mut dense = start.clone();
                        let mut skip = start.clone();
                        // SAFETY: avx512f was detected above; both buffers
                        // hold p0 + 8 rows.
                        unsafe {
                            simd::panel_update8_avx512(&l, p0, &mut dense, bs, None);
                            simd::panel_update8_avx512(&l, p0, &mut skip, bs, Some(o));
                        }
                        let same = dense
                            .iter()
                            .zip(&skip)
                            .all(|(d, s)| d.to_bits() == s.to_bits());
                        assert!(same, "avx512 x8: bs={bs} o={o} p0={p0}");
                    }
                }
            }
        }
        assert!(checked >= 144);
    }

    #[test]
    fn unit_block_solve_matches_dense_solve() {
        // The dispatched sweep, panels and triangle finish included, on
        // unit columns that start below row 0 (a later column block of
        // `Cholesky::factor_inverse`).
        for (n, o, bs) in [
            (1usize, 0usize, 1usize),
            (30, 0, 30),
            (70, 64, 6),
            (130, 64, 64),
        ] {
            let l = random_lower(n, n as u64);
            let mut dense = vec![0.0; n * bs];
            for c in 0..bs {
                dense[(o + c) * bs + c] = 1.0;
            }
            let mut skip = dense.clone();
            forward_sub_block(&l, &mut dense, bs, None);
            forward_sub_block(&l, &mut skip, bs, Some(o));
            for i in 0..n {
                for c in 0..bs {
                    let (d, s) = (dense[i * bs + c], skip[i * bs + c]);
                    // Above each unit row the dense sweep divides +0.0 by a
                    // positive diagonal; the skip leaves it +0.0 undivided.
                    assert_eq!(d.to_bits(), s.to_bits(), "n={n} o={o} ({i},{c})");
                }
            }
        }
    }
}
