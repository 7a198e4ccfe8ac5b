//! AMSD-based convergence detection.
//!
//! Section V-B4: "when [AMSD] converges (i.e. the average does not change
//! significantly with additional AL iterations), AL can be terminated.
//! The plots confirm that at that point RMSE will also converge to its
//! stable value, and subsequent experiments may be considered excessive."

/// Sliding-window convergence detector over a scalar series.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceDetector {
    /// Window length (iterations) over which stability is required.
    pub window: usize,
    /// Maximum relative change within the window to call it converged.
    pub rel_tolerance: f64,
}

impl Default for ConvergenceDetector {
    fn default() -> Self {
        ConvergenceDetector {
            window: 5,
            rel_tolerance: 0.05,
        }
    }
}

impl ConvergenceDetector {
    /// First iteration index at which the series has been stable for a full
    /// window: `max(w) - min(w) <= rel_tolerance * |mean(w)|` over the last
    /// `window` values. `None` if never.
    pub fn converged_at(&self, series: &[f64]) -> Option<usize> {
        if self.window == 0 || series.len() < self.window {
            return None;
        }
        for end in self.window..=series.len() {
            let w = &series[end - self.window..end];
            if w.iter().any(|v| !v.is_finite()) {
                continue; // windows containing NaN/inf cannot attest stability
            }
            let lo = w.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = w.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mean = w.iter().sum::<f64>() / w.len() as f64;
            if hi - lo <= self.rel_tolerance * mean.abs().max(f64::MIN_POSITIVE) {
                return Some(end - 1);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_plateau() {
        let d = ConvergenceDetector {
            window: 3,
            rel_tolerance: 0.05,
        };
        let series = [1.0, 0.6, 0.4, 0.30, 0.30, 0.295];
        // Window [0.30, 0.30, 0.295] at indices 3..6: spread 0.005 < 5% of ~0.3.
        assert_eq!(d.converged_at(&series), Some(5));
    }

    #[test]
    fn no_convergence_when_still_falling() {
        let d = ConvergenceDetector::default();
        let series = [1.0, 0.8, 0.6, 0.4, 0.3, 0.2, 0.12, 0.05];
        assert_eq!(d.converged_at(&series), None);
    }

    #[test]
    fn short_series_never_converged() {
        let d = ConvergenceDetector::default();
        assert_eq!(d.converged_at(&[0.5, 0.5]), None);
        assert_eq!(d.converged_at(&[]), None);
    }

    #[test]
    fn nan_windows_skipped() {
        let d = ConvergenceDetector {
            window: 2,
            rel_tolerance: 0.1,
        };
        let series = [f64::NAN, 1.0, 1.0];
        assert_eq!(d.converged_at(&series), Some(2));
    }

    #[test]
    fn zero_window_is_inert() {
        let d = ConvergenceDetector {
            window: 0,
            rel_tolerance: 0.1,
        };
        assert_eq!(d.converged_at(&[1.0, 1.0, 1.0]), None);
    }
}
