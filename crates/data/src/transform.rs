//! Log transforms for responses and variables.
//!
//! The paper's evaluation (Section V-A, Fig. 2) works "with log-transformed
//! Runtime, Energy, and Global Problem Size": runtimes span five orders of
//! magnitude, and in log–log space runtime grows linearly in problem size —
//! exactly the smooth structure a squared-exponential GP models well. The
//! Cost-Efficiency acquisition (Eq. 14) also exploits the log scale: the
//! predicted *log* cost enters the criterion additively.

use crate::dataset::{DataSet, DataSetError};

/// A reversible scalar transform applied to a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transform {
    /// Identity (no change).
    Identity,
    /// Base-10 logarithm; requires strictly positive inputs.
    Log10,
}

impl Transform {
    /// Apply the transform to one value.
    pub fn apply(&self, v: f64) -> f64 {
        match self {
            Transform::Identity => v,
            Transform::Log10 => v.log10(),
        }
    }

    /// Invert the transform.
    pub fn invert(&self, v: f64) -> f64 {
        match self {
            Transform::Identity => v,
            Transform::Log10 => 10f64.powf(v),
        }
    }

    /// Whether `v` is a legal input (log requires positivity).
    pub fn accepts(&self, v: f64) -> bool {
        match self {
            Transform::Identity => v.is_finite(),
            Transform::Log10 => v.is_finite() && v > 0.0,
        }
    }
}

/// Apply `Log10` to a response column in place, validating positivity first.
///
/// # Errors
/// `DataSetError::Invalid` if any value is non-positive (log undefined).
pub fn log_response(data: &mut DataSet, name: &str) -> Result<(), DataSetError> {
    let col = data.response(name)?;
    if let Some(bad) = col.iter().find(|v| !Transform::Log10.accepts(**v)) {
        return Err(DataSetError::Invalid(format!(
            "response {name} contains non-positive value {bad}; cannot log-transform"
        )));
    }
    data.map_response(name, |v| v.log10())
}

/// Apply `Log10` to a numeric variable column in place.
#[cfg(test)]
fn log_variable(data: &mut DataSet, name: &str) -> Result<(), DataSetError> {
    let col = data.variable(name)?.values.clone();
    if let Some(bad) = col.iter().find(|v| !Transform::Log10.accepts(**v)) {
        return Err(DataSetError::Invalid(format!(
            "variable {name} contains non-positive value {bad}; cannot log-transform"
        )));
    }
    data.map_variable(name, |v| v.log10())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transform_round_trip() {
        for t in [Transform::Identity, Transform::Log10] {
            for v in [0.001, 1.0, 458.436, 1.1e9] {
                let back = t.invert(t.apply(v));
                assert!((back - v).abs() / v < 1e-12, "{t:?} at {v}");
            }
        }
    }

    #[test]
    fn log_rejects_nonpositive() {
        assert!(!Transform::Log10.accepts(0.0));
        assert!(!Transform::Log10.accepts(-1.0));
        assert!(!Transform::Log10.accepts(f64::NAN));
        assert!(Transform::Log10.accepts(1e-300));
    }

    fn tiny() -> DataSet {
        let mut d = DataSet::new();
        d.add_numeric_variable("size", vec![10.0, 100.0, 1000.0])
            .unwrap();
        d.add_response("runtime", vec![1.0, 10.0, 100.0]).unwrap();
        d
    }

    #[test]
    fn log_response_in_place() {
        let mut d = tiny();
        log_response(&mut d, "runtime").unwrap();
        let r = d.response("runtime").unwrap();
        assert!((r[0] - 0.0).abs() < 1e-12);
        assert!((r[2] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn log_variable_in_place() {
        let mut d = tiny();
        log_variable(&mut d, "size").unwrap();
        let v = &d.variable("size").unwrap().values;
        assert!((v[0] - 1.0).abs() < 1e-12);
        assert!((v[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn log_of_nonpositive_column_fails_without_mutation() {
        let mut d = DataSet::new();
        d.add_numeric_variable("x", vec![1.0]).unwrap();
        d.add_response("y", vec![-5.0]).unwrap();
        assert!(log_response(&mut d, "y").is_err());
        // Unchanged on failure.
        assert_eq!(d.response("y").unwrap(), &[-5.0]);
    }

    #[test]
    fn unknown_columns_error() {
        let mut d = tiny();
        assert!(log_response(&mut d, "nope").is_err());
        assert!(log_variable(&mut d, "nope").is_err());
    }
}
