//! Free functions over `&[f64]` vectors.
//!
//! The GPR layer works with plain slices rather than a wrapper type: the
//! response vector `y`, the weight vector `alpha = K_y^{-1} y`, and kernel
//! rows are all just `Vec<f64>`. These helpers keep that code readable while
//! staying allocation-free where possible.

/// Dot product `x . y`.
///
/// # Panics
/// Panics if the slices have different lengths (programmer error, not data
/// error — lengths are structural in all call sites).
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    // Manual 4-way unrolling: LLVM reliably vectorizes this form, and the
    // reduction order is deterministic (important for reproducible LML
    // values across runs).
    let mut acc = [0.0f64; 4];
    let chunks = x.len() / 4;
    for i in 0..chunks {
        let b = i * 4;
        acc[0] += x[b] * y[b];
        acc[1] += x[b + 1] * y[b + 1];
        acc[2] += x[b + 2] * y[b + 2];
        acc[3] += x[b + 3] * y[b + 3];
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for i in chunks * 4..x.len() {
        s += x[i] * y[i];
    }
    s
}

/// `y += a * x` (BLAS `axpy`).
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// `x *= a` in place.
#[inline]
pub fn scale(a: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= a;
    }
}

/// Euclidean norm `||x||_2`, computed with scaling to avoid overflow for
/// large magnitudes.
pub fn norm2(x: &[f64]) -> f64 {
    let max = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    if max == 0.0 || !max.is_finite() {
        return if max.is_finite() { 0.0 } else { f64::INFINITY };
    }
    let mut s = 0.0;
    for v in x {
        let t = v / max;
        s += t * t;
    }
    max * s.sqrt()
}

/// Infinity norm `max_i |x_i|`.
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0f64, |m, v| m.max(v.abs()))
}

/// Squared Euclidean distance between two points, `||a - b||^2`.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "sq_dist: length mismatch");
    let mut s = 0.0;
    for (ai, bi) in a.iter().zip(b) {
        let d = ai - bi;
        s += d * d;
    }
    s
}

/// Anisotropic (per-dimension-scaled) squared distance
/// `sum_d ((a_d - b_d) / l_d)^2` — the quadratic form inside an ARD squared
/// exponential kernel.
#[inline]
#[cfg(test)]
fn scaled_sq_dist(a: &[f64], b: &[f64], inv_lengths: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "scaled_sq_dist: length mismatch");
    assert_eq!(a.len(), inv_lengths.len(), "scaled_sq_dist: scale mismatch");
    let mut s = 0.0;
    for ((ai, bi), il) in a.iter().zip(b).zip(inv_lengths) {
        let d = (ai - bi) * il;
        s += d * d;
    }
    s
}

/// Elementwise subtraction `x - y` into a fresh vector.
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

/// Validate that every element is finite.
#[cfg(test)]
fn check_finite(x: &[f64], op: &'static str) -> Result<(), crate::error::LinalgError> {
    if x.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(crate::error::LinalgError::NonFinite { op })
    }
}

/// Linearly spaced grid of `n` points covering `[lo, hi]` inclusive.
///
/// `n == 1` yields `[lo]`. Used throughout the benchmark harness to build
/// prediction grids for figures.
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n > 0, "linspace: need at least one point");
    if n == 1 {
        return vec![lo];
    }
    let step = (hi - lo) / (n - 1) as f64;
    (0..n).map(|i| lo + step * i as f64).collect()
}

/// Log-spaced grid: `n` points whose base-10 logarithms are linearly spaced
/// over `[log10(lo), log10(hi)]`.
pub fn logspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > 0.0, "logspace: bounds must be positive");
    linspace(lo.log10(), hi.log10(), n)
        .into_iter()
        .map(|e| 10f64.powf(e))
        .collect()
}

/// Index of the maximum element; ties resolve to the first occurrence.
/// Returns `None` for an empty slice or if all elements are NaN.
pub fn argmax(x: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in x.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if bv >= v => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Index of the minimum element; ties resolve to the first occurrence.
pub fn argmin(x: &[f64]) -> Option<usize> {
    argmax(&x.iter().map(|v| -v).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn dot_unrolled_matches_naive_for_many_lengths() {
        for n in 0..35 {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0).sin()).collect();
            let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
            let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
            assert!((dot(&x, &y) - naive).abs() < 1e-12, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = vec![1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, vec![-3.0, 6.0]);
    }

    #[test]
    fn norm2_pythagoras() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn norm2_avoids_overflow() {
        let big = 1e300;
        let n = norm2(&[big, big]);
        assert!(n.is_finite());
        assert!((n - big * std::f64::consts::SQRT_2).abs() / n < 1e-12);
    }

    #[test]
    fn norm2_zero_vector() {
        assert_eq!(norm2(&[0.0, 0.0]), 0.0);
        assert_eq!(norm2(&[]), 0.0);
    }

    #[test]
    fn norm_inf_basic() {
        assert_eq!(norm_inf(&[1.0, -7.0, 3.0]), 7.0);
    }

    #[test]
    fn sq_dist_basic() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn scaled_sq_dist_matches_manual() {
        let d = scaled_sq_dist(&[1.0, 2.0], &[3.0, 5.0], &[0.5, 2.0]);
        // ((1-3)*0.5)^2 + ((2-5)*2)^2 = 1 + 36
        assert!((d - 37.0).abs() < 1e-12);
    }

    #[test]
    fn sub_elementwise() {
        assert_eq!(sub(&[5.0, 1.0], &[2.0, 3.0]), vec![3.0, -2.0]);
    }

    #[test]
    fn check_finite_detects_nan_and_inf() {
        assert!(check_finite(&[1.0, 2.0], "t").is_ok());
        assert!(check_finite(&[1.0, f64::NAN], "t").is_err());
        assert!(check_finite(&[f64::INFINITY], "t").is_err());
    }

    #[test]
    fn linspace_endpoints_and_spacing() {
        let g = linspace(0.0, 1.0, 5);
        assert_eq!(g, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(linspace(2.0, 9.0, 1), vec![2.0]);
    }

    #[test]
    fn logspace_endpoints() {
        let g = logspace(1.0, 1000.0, 4);
        assert!((g[0] - 1.0).abs() < 1e-12);
        assert!((g[1] - 10.0).abs() < 1e-9);
        assert!((g[3] - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn argmax_and_argmin() {
        assert_eq!(argmax(&[1.0, 5.0, 5.0, 2.0]), Some(1));
        assert_eq!(argmin(&[1.0, -5.0, 2.0]), Some(1));
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[f64::NAN, 2.0]), Some(1));
        assert_eq!(argmax(&[f64::NAN]), None);
    }
}
