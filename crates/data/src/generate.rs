//! Factorial dataset construction from a measurement oracle.
//!
//! The builder enumerates a full-factorial grid, asks the oracle for each
//! (cell, repeat) measurement, and assembles a
//! [`DataSet`](crate::dataset::DataSet). The oracle may return `None` to
//! *drop* a job — exactly how the paper's Power dataset lost jobs whose
//! IPMI power traces had too many gaps (Section V-A). The Table I datasets
//! are built by `alperf-cluster`'s campaign instead, so the builder is
//! compiled for its tests only.

#[cfg(test)]
use crate::dataset::{DataSet, DataSetError};
#[cfg(test)]
use crate::grid::{Factor, Grid};
#[cfg(test)]
use std::collections::BTreeMap;

/// Levels of one experiment factor.
#[derive(Debug, Clone, PartialEq)]
pub enum Levels {
    /// Numeric levels used verbatim.
    Numeric(Vec<f64>),
    /// Categorical levels; the oracle sees the level *index* as `f64`.
    Categorical(Vec<String>),
}

/// One factor of the experiment design.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorSpec {
    /// Factor name.
    pub name: String,
    /// Its levels.
    pub levels: Levels,
}

impl FactorSpec {
    /// Numeric factor.
    pub fn numeric(name: &str, levels: Vec<f64>) -> Self {
        FactorSpec {
            name: name.to_string(),
            levels: Levels::Numeric(levels),
        }
    }

    /// Categorical factor.
    pub fn categorical(name: &str, levels: &[&str]) -> Self {
        FactorSpec {
            name: name.to_string(),
            levels: Levels::Categorical(levels.iter().map(|s| s.to_string()).collect()),
        }
    }

    #[cfg(test)]
    fn numeric_levels(&self) -> Vec<f64> {
        match &self.levels {
            Levels::Numeric(v) => v.clone(),
            Levels::Categorical(v) => (0..v.len()).map(|i| i as f64).collect(),
        }
    }
}

/// Build a dataset by running `oracle(point, repeat)` for every cell of the
/// full-factorial design over `factors`, `repeats` times each.
///
/// The oracle returns the response map for one job, or `None` to drop that
/// job (lost measurement). Response names must be consistent across jobs.
///
/// # Errors
/// Propagates dataset-assembly errors (inconsistent response names).
#[cfg(test)]
fn factorial_dataset(
    factors: &[FactorSpec],
    repeats: usize,
    mut oracle: impl FnMut(&[f64], usize) -> Option<BTreeMap<String, f64>>,
) -> Result<DataSet, DataSetError> {
    let grid = Grid::new(
        factors
            .iter()
            .map(|f| Factor::new(&f.name, f.numeric_levels()))
            .collect(),
    );
    // Collect rows first; we need the response names before constructing
    // columns.
    let mut rows: Vec<(Vec<f64>, BTreeMap<String, f64>)> = Vec::new();
    for point in grid.iter() {
        for rep in 0..repeats.max(1) {
            if let Some(resp) = oracle(&point, rep) {
                rows.push((point.clone(), resp));
            }
        }
    }
    let mut data = DataSet::new();
    if rows.is_empty() {
        return Ok(data);
    }
    let resp_names: Vec<String> = rows[0].1.keys().cloned().collect();
    for (point, resp) in &rows {
        if resp.len() != resp_names.len() || !resp_names.iter().all(|n| resp.contains_key(n)) {
            return Err(DataSetError::Invalid(format!(
                "inconsistent response names at point {point:?}"
            )));
        }
    }
    // Variable columns.
    for (j, f) in factors.iter().enumerate() {
        let col: Vec<f64> = rows.iter().map(|(p, _)| p[j]).collect();
        match &f.levels {
            Levels::Numeric(_) => data.add_numeric_variable(&f.name, col)?,
            Levels::Categorical(levels) => {
                let strs: Vec<&str> = col.iter().map(|&v| levels[v as usize].as_str()).collect();
                data.add_categorical_variable(&f.name, &strs)?;
            }
        }
    }
    for name in &resp_names {
        let col: Vec<f64> = rows.iter().map(|(_, r)| r[name]).collect();
        data.add_response(name, col)?;
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(rt: f64) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        m.insert("runtime".to_string(), rt);
        m
    }

    #[test]
    fn builds_full_factorial_with_repeats() {
        let factors = vec![
            FactorSpec::categorical("op", &["p1", "p2"]),
            FactorSpec::numeric("size", vec![10.0, 100.0]),
        ];
        let d = factorial_dataset(&factors, 3, |p, rep| {
            Some(resp(p[1] * (1.0 + p[0]) + rep as f64 * 0.01))
        })
        .unwrap();
        assert_eq!(d.n_rows(), 2 * 2 * 3);
        assert_eq!(d.variable_names(), vec!["op", "size"]);
        // Categorical column decoded by name.
        assert_eq!(d.level_index("op", "p2").unwrap(), 1);
        // Repeats recorded as separate rows with same settings.
        let groups = d.group_by_settings(&["op", "size"]).unwrap();
        assert_eq!(groups.len(), 4);
        assert!(groups.iter().all(|(_, rows)| rows.len() == 3));
    }

    #[test]
    fn dropped_jobs_are_skipped() {
        let factors = vec![FactorSpec::numeric("x", vec![1.0, 2.0, 3.0])];
        let d = factorial_dataset(&factors, 2, |p, _| {
            if p[0] == 2.0 {
                None // lost measurement
            } else {
                Some(resp(p[0]))
            }
        })
        .unwrap();
        assert_eq!(d.n_rows(), 4);
        assert!(d.variable("x").unwrap().values.iter().all(|&v| v != 2.0));
    }

    #[test]
    fn all_dropped_yields_empty() {
        let factors = vec![FactorSpec::numeric("x", vec![1.0])];
        let d = factorial_dataset(&factors, 1, |_, _| None).unwrap();
        assert_eq!(d.n_rows(), 0);
    }

    #[test]
    fn inconsistent_responses_rejected() {
        let factors = vec![FactorSpec::numeric("x", vec![1.0, 2.0])];
        let r = factorial_dataset(&factors, 1, |p, _| {
            let mut m = BTreeMap::new();
            if p[0] == 1.0 {
                m.insert("runtime".into(), 1.0);
            } else {
                m.insert("energy".into(), 1.0);
            }
            Some(m)
        });
        assert!(r.is_err());
    }

    #[test]
    fn oracle_sees_level_indices_for_categoricals() {
        let factors = vec![FactorSpec::categorical("op", &["a", "b", "c"])];
        let mut seen = Vec::new();
        let _ = factorial_dataset(&factors, 1, |p, _| {
            seen.push(p[0]);
            Some(resp(1.0))
        })
        .unwrap();
        assert_eq!(seen, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn zero_repeats_treated_as_one() {
        let factors = vec![FactorSpec::numeric("x", vec![1.0])];
        let d = factorial_dataset(&factors, 0, |_, _| Some(resp(1.0))).unwrap();
        assert_eq!(d.n_rows(), 1);
    }
}
