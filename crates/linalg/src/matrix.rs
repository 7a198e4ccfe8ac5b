//! Row-major dense matrix.
//!
//! The GPR layer assembles covariance matrices of a few hundred to a few
//! thousand rows; the cluster simulator and benchmark harness use matrices as
//! design matrices (rows = experiments, columns = controlled variables).
//! Storage is a single contiguous `Vec<f64>` so rows can be handed out as
//! slices — the access pattern every consumer in this workspace wants.

use crate::error::LinalgError;
use crate::vector::dot;

/// Tile sizes for the blocked matrix product: `MM_ROW_BLOCK` output rows are
/// produced per tile, and the inner (`k`) dimension is walked in
/// `MM_K_BLOCK`-wide stripes so the corresponding rows of `B` stay cached
/// while they are reused across the whole row block.
const MM_ROW_BLOCK: usize = 32;
const MM_K_BLOCK: usize = 64;

/// Dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero-filled `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major data vector.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::from_vec",
                details: format!(
                    "{rows}x{cols} needs {} elements, got {}",
                    rows * cols,
                    data.len()
                ),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Build from nested row slices (convenient in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        if rows.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    op: "Matrix::from_rows",
                    details: format!("row {i} has {} columns, expected {cols}", r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Build a `rows x cols` matrix from a function of the index pair, row
    /// by row. Used for covariance assembly.
    pub fn from_fn(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// `true` if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into a fresh vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.rows];
        self.copy_col_into(j, &mut out);
        out
    }

    /// Copy column `j` into a caller-provided buffer of length `nrows`,
    /// avoiding the per-call allocation of [`Matrix::col`].
    ///
    /// # Panics
    /// Panics if `out.len() != nrows` or `j >= ncols`.
    fn copy_col_into(&self, j: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.rows, "copy_col_into: buffer length");
        assert!(j < self.cols, "copy_col_into: column out of range");
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.data[i * self.cols + j];
        }
    }

    /// Squared Euclidean norm of every row. The batched kernel evaluation
    /// uses these in the `‖a−b‖² = ‖a‖² + ‖b‖² − 2a·b` expansion.
    pub fn row_sq_norms(&self) -> Vec<f64> {
        self.data
            .chunks(self.cols.max(1))
            .map(|r| dot(r, r))
            .collect()
    }

    /// Squared Euclidean norm of every column, accumulated row-by-row so the
    /// summation order per column matches a sequential `dot` over that
    /// column — batched GPR variances stay bit-comparable to the per-point
    /// path.
    pub fn col_sq_norms(&self) -> Vec<f64> {
        let mut acc = vec![0.0; self.cols];
        for row in self.data.chunks(self.cols.max(1)) {
            for (a, &v) in acc.iter_mut().zip(row) {
                *a += v * v;
            }
        }
        acc
    }

    /// Flat row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != ncols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec",
                details: format!("{}x{} * {}", self.rows, self.cols, x.len()),
            });
        }
        Ok(self.data.chunks(self.cols).map(|row| dot(row, x)).collect())
    }

    /// Matrix–matrix product `A B`.
    ///
    /// Cache-blocked i-k-j order over the row-major layout: output rows are
    /// produced in `MM_ROW_BLOCK`-row tiles and the `k` dimension is walked
    /// in `MM_K_BLOCK` stripes so
    /// each stripe of `B` rows is reused across the whole tile while still
    /// hot. The `k` accumulation order is unchanged, so results are
    /// bit-identical to the naive i-k-j product.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                details: format!(
                    "{}x{} * {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        let n = other.cols;
        if self.rows == 0 || n == 0 {
            return Ok(out);
        }
        for (t, tile) in out.data.chunks_mut(n * MM_ROW_BLOCK).enumerate() {
            let row0 = t * MM_ROW_BLOCK;
            for k0 in (0..self.cols).step_by(MM_K_BLOCK) {
                let k1 = (k0 + MM_K_BLOCK).min(self.cols);
                for (r, orow) in tile.chunks_mut(n).enumerate() {
                    let arow = self.row(row0 + r);
                    for (k, &aik) in arow.iter().enumerate().take(k1).skip(k0) {
                        let brow = other.row(k);
                        for (o, &b) in orow.iter_mut().zip(brow) {
                            *o += aik * b;
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// `self + a * other`, elementwise.
    #[cfg(test)]
    fn add_scaled(&self, a: f64, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "add_scaled",
                details: format!(
                    "{}x{} + {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(x, y)| x + a * y)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Add `a` to every diagonal element in place (e.g. `K + sigma_n^2 I`).
    pub fn add_diagonal(&mut self, a: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += a;
        }
    }

    /// Diagonal as a vector.
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self[(i, i)]).collect()
    }

    /// Trace (sum of diagonal elements).
    pub fn trace(&self) -> f64 {
        self.diagonal().iter().sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        crate::vector::norm2(&self.data)
    }

    /// Maximum absolute elementwise difference to another matrix of the same
    /// shape; used in tests and convergence checks.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()))
    }

    /// Symmetrize in place: `A <- (A + A^T) / 2`. Covariance matrices drift
    /// from exact symmetry after repeated floating-point assembly; Cholesky
    /// assumes symmetry.
    pub fn symmetrize(&mut self) {
        assert_eq!(self.rows, self.cols, "symmetrize: matrix must be square");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let v = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = v;
                self[(j, i)] = v;
            }
        }
    }

    /// `true` if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Select a subset of rows (by index, in the given order) into a new
    /// matrix. Indices may repeat — used by the bootstrap resampler in the
    /// EMCM baseline.
    pub fn select_rows(&self, idx: &[usize]) -> Matrix {
        let mut m = Matrix::zeros(idx.len(), self.cols);
        for (r, &i) in idx.iter().enumerate() {
            m.row_mut(r).copy_from_slice(self.row(i));
        }
        m
    }

    /// Append a row, returning a new matrix. The AL loop grows the training
    /// design matrix one experiment at a time.
    pub fn with_row(&self, row: &[f64]) -> Result<Matrix, LinalgError> {
        if self.rows > 0 && row.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "with_row",
                details: format!("row has {} columns, matrix has {}", row.len(), self.cols),
            });
        }
        let cols = if self.rows == 0 { row.len() } else { self.cols };
        let mut data = self.data.clone();
        data.extend_from_slice(row);
        Ok(Matrix {
            rows: self.rows + 1,
            cols,
            data,
        })
    }

    /// Append a column in place. Rebuilds the row-major backing store once;
    /// the pool-prediction cache uses this to extend `K(pool, train)` by a
    /// single kernel column when one training point is added.
    pub fn push_col(&mut self, col: &[f64]) -> Result<(), LinalgError> {
        if col.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "push_col",
                details: format!("column has {} rows, matrix has {}", col.len(), self.rows),
            });
        }
        let new_cols = self.cols + 1;
        let mut data = Vec::with_capacity(self.rows * new_cols);
        for (row, &v) in self.data.chunks(self.cols.max(1)).zip(col) {
            data.extend_from_slice(row);
            data.push(v);
        }
        self.data = data;
        self.cols = new_cols;
        Ok(())
    }

    /// Remove row `i` in O(row) by moving the last row into its place
    /// (order is NOT preserved) — mirrors `Vec::swap_remove`, matching how
    /// the AL loop removes a chosen candidate from its pool.
    pub fn swap_remove_row(&mut self, i: usize) {
        assert!(i < self.rows, "swap_remove_row: row out of range");
        let last = self.rows - 1;
        if i != last {
            let (head, tail) = self.data.split_at_mut(last * self.cols);
            head[i * self.cols..(i + 1) * self.cols].copy_from_slice(tail);
        }
        self.data.truncate(last * self.cols);
        self.rows = last;
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:12.5e} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap()
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.nrows(), 2);
        assert_eq!(z.ncols(), 3);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i.trace(), 3.0);
        assert_eq!(i[(0, 1)], 0.0);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_ragged_rejected() {
        let r: Result<Matrix, _> = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
        assert!(r.is_err());
    }

    #[test]
    fn from_fn_matches_manual() {
        let m = Matrix::from_fn(3, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(2, 1)], 21.0);
    }

    #[test]
    fn row_and_col_access() {
        let m = abc();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = abc();
        let t = m.transpose();
        assert_eq!(t.nrows(), 2);
        assert_eq!(t[(0, 2)], 5.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matvec_small() {
        let m = abc();
        let y = m.matvec(&[1.0, 1.0]).unwrap();
        assert_eq!(y, vec![3.0, 7.0, 11.0]);
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn matmul_identity() {
        let m = abc();
        let i = Matrix::identity(2);
        assert_eq!(m.matmul(&i).unwrap(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn matmul_dimension_check() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn add_scaled_and_diagonal() {
        let a = Matrix::identity(2);
        let b = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let c = a.add_scaled(2.0, &b).unwrap();
        assert_eq!(c[(0, 0)], 3.0);
        assert_eq!(c[(0, 1)], 2.0);
        let mut d = Matrix::zeros(2, 2);
        d.add_diagonal(4.0);
        assert_eq!(d.diagonal(), vec![4.0, 4.0]);
    }

    #[test]
    fn trace_and_frobenius() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]).unwrap();
        assert_eq!(m.trace(), 7.0);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-15);
    }

    #[test]
    fn symmetrize_makes_symmetric() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[4.0, 1.0]]).unwrap();
        m.symmetrize();
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn select_rows_with_repeats() {
        let m = abc();
        let s = m.select_rows(&[2, 0, 2]);
        assert_eq!(s.nrows(), 3);
        assert_eq!(s.row(0), &[5.0, 6.0]);
        assert_eq!(s.row(1), &[1.0, 2.0]);
        assert_eq!(s.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn with_row_grows_matrix() {
        let m = Matrix::zeros(0, 0);
        let m = m.with_row(&[1.0, 2.0]).unwrap();
        let m = m.with_row(&[3.0, 4.0]).unwrap();
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert!(m.with_row(&[1.0]).is_err());
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut m = Matrix::zeros(2, 2);
        assert!(m.all_finite());
        m[(1, 1)] = f64::NAN;
        assert!(!m.all_finite());
    }

    #[test]
    fn max_abs_diff_basic() {
        let a = Matrix::identity(2);
        let mut b = Matrix::identity(2);
        b[(0, 1)] = 0.25;
        assert_eq!(a.max_abs_diff(&b), 0.25);
    }

    #[test]
    fn display_does_not_panic() {
        let s = format!("{}", abc());
        assert!(s.contains('\n'));
    }
}
