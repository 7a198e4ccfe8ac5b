//! Summary statistics and standardization helpers.
//!
//! Shared by the dataset layer (Table I summaries), the GPR layer (response
//! standardization before fitting), and the AL metric layer (RMSE, mean
//! predictive standard deviation).

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    x.iter().sum::<f64>() / x.len() as f64
}

/// Unbiased sample variance (denominator `n-1`); `0.0` for fewer than two
/// elements.
pub fn variance(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    let m = mean(x);
    x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (x.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(x: &[f64]) -> f64 {
    variance(x).sqrt()
}

/// Population variance (denominator `n`); used where the "spread of this
/// exact finite set" is wanted rather than an estimator.
#[cfg(test)]
fn population_variance(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let m = mean(x);
    x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / x.len() as f64
}

/// Minimum (ignoring NaN); `None` when empty or all-NaN.
pub fn min(x: &[f64]) -> Option<f64> {
    x.iter()
        .copied()
        .filter(|v| !v.is_nan())
        .fold(None, |m, v| {
            Some(match m {
                None => v,
                Some(m) => m.min(v),
            })
        })
}

/// Maximum (ignoring NaN); `None` when empty or all-NaN.
pub fn max(x: &[f64]) -> Option<f64> {
    x.iter()
        .copied()
        .filter(|v| !v.is_nan())
        .fold(None, |m, v| {
            Some(match m {
                None => v,
                Some(m) => m.max(v),
            })
        })
}

/// Quantile via linear interpolation on the sorted copy, `q` in `[0, 1]`.
pub fn quantile(x: &[f64], q: f64) -> Option<f64> {
    if x.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut v: Vec<f64> = x.iter().copied().filter(|v| !v.is_nan()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(v[lo] * (1.0 - frac) + v[hi] * frac)
}

/// Root mean squared error between predictions and ground truth (Eq. 2 of
/// the paper).
///
/// # Panics
/// Panics on length mismatch.
pub fn rmse(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "rmse: length mismatch");
    if pred.is_empty() {
        return 0.0;
    }
    let s: f64 = pred.iter().zip(truth).map(|(p, t)| (p - t) * (p - t)).sum();
    (s / pred.len() as f64).sqrt()
}

/// Mean absolute error.
#[cfg(test)]
fn mae(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "mae: length mismatch");
    if pred.is_empty() {
        return 0.0;
    }
    pred.iter()
        .zip(truth)
        .map(|(p, t)| (p - t).abs())
        .sum::<f64>()
        / pred.len() as f64
}

/// Affine standardization `z = (x - mean) / std` and its inverse.
///
/// GPR fitting standardizes the response so that a unit-amplitude prior is
/// reasonable; predictions are mapped back through [`Standardizer::inverse`]
/// (means) and [`Standardizer::inverse_scale`] (standard deviations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Standardizer {
    /// Mean removed from the data.
    pub mean: f64,
    /// Scale divided out of the data (never zero).
    pub std: f64,
}

impl Standardizer {
    /// Fit to the given data. A zero or non-finite standard deviation falls
    /// back to `1.0` so constant responses remain representable.
    pub fn fit(x: &[f64]) -> Self {
        let m = mean(x);
        let s = std_dev(x);
        let s = if s > 0.0 && s.is_finite() { s } else { 1.0 };
        Standardizer { mean: m, std: s }
    }

    /// Identity transform (mean 0, scale 1).
    pub fn identity() -> Self {
        Standardizer {
            mean: 0.0,
            std: 1.0,
        }
    }

    /// Apply the transform to one value.
    #[inline]
    pub fn apply(&self, v: f64) -> f64 {
        (v - self.mean) / self.std
    }

    /// Apply to a slice, producing a fresh vector.
    pub fn apply_vec(&self, x: &[f64]) -> Vec<f64> {
        x.iter().map(|&v| self.apply(v)).collect()
    }

    /// Invert the transform for a mean-like quantity.
    #[inline]
    pub fn inverse(&self, z: f64) -> f64 {
        z * self.std + self.mean
    }

    /// Invert the transform for a scale-like quantity (standard deviation):
    /// only the multiplicative part applies.
    #[inline]
    pub fn inverse_scale(&self, s: f64) -> f64 {
        s * self.std
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_known() {
        let x = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&x) - 5.0).abs() < 1e-15);
        // Sample variance = 32/7.
        assert!((variance(&x) - 32.0 / 7.0).abs() < 1e-12);
        assert!((population_variance(&x) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[f64::NAN]), None);
    }

    #[test]
    fn min_max_ignore_nan() {
        let x = [3.0, f64::NAN, -1.0, 2.0];
        assert_eq!(min(&x), Some(-1.0));
        assert_eq!(max(&x), Some(3.0));
    }

    #[test]
    fn quantile_interpolates() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&x, 0.0), Some(1.0));
        assert_eq!(quantile(&x, 1.0), Some(4.0));
        assert!((quantile(&x, 0.5).unwrap() - 2.5).abs() < 1e-15);
        assert_eq!(quantile(&x, 1.5), None);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn rmse_known() {
        assert_eq!(rmse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((rmse(&[0.0, 0.0], &[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(rmse(&[], &[]), 0.0);
    }

    #[test]
    fn mae_known() {
        assert!((mae(&[0.0, 0.0], &[1.0, -3.0]) - 2.0).abs() < 1e-15);
    }

    #[test]
    fn standardizer_round_trip() {
        let x = [10.0, 20.0, 30.0];
        let s = Standardizer::fit(&x);
        let z = s.apply_vec(&x);
        assert!(mean(&z).abs() < 1e-12);
        assert!((std_dev(&z) - 1.0).abs() < 1e-12);
        for (orig, zi) in x.iter().zip(&z) {
            assert!((s.inverse(*zi) - orig).abs() < 1e-12);
        }
    }

    #[test]
    fn standardizer_constant_data_falls_back() {
        let s = Standardizer::fit(&[5.0, 5.0, 5.0]);
        assert_eq!(s.std, 1.0);
        assert_eq!(s.apply(5.0), 0.0);
        assert_eq!(s.inverse(0.0), 5.0);
    }

    #[test]
    fn standardizer_scale_inverse() {
        let s = Standardizer {
            mean: 7.0,
            std: 2.0,
        };
        assert_eq!(s.inverse_scale(1.5), 3.0);
        // Scale inversion must not add the mean back.
        assert_ne!(s.inverse_scale(0.0), s.inverse(0.0));
    }

    #[test]
    fn identity_standardizer() {
        let s = Standardizer::identity();
        assert_eq!(s.apply(3.25), 3.25);
        assert_eq!(s.inverse(3.25), 3.25);
    }
}
