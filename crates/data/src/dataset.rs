//! The central dataset container.
//!
//! A [`DataSet`] mirrors the paper's data model: each row is one job
//! (experiment), columns are either *controlled variables* (Operator,
//! Global Problem Size, NP, CPU Frequency) or *responses* (Runtime, Energy).
//! Controlled variables may be numeric or categorical; categoricals store
//! their levels once and encode values as level indices, because the GPR
//! layer consumes a purely numeric design matrix.
//!
//! Repeated measurements — several rows with identical variable settings
//! and different response values — are first-class: the paper's AL
//! formulation explicitly requires datasets "with multiple y values for the
//! same x" (Section III).

use alperf_linalg::matrix::Matrix;
use std::collections::BTreeMap;
use std::fmt;

/// Kind of a controlled-variable column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnKind {
    /// Plain numeric variable.
    Numeric,
    /// Categorical variable; values are indices into `levels`.
    Categorical {
        /// Ordered level names (e.g. `poisson1`, `poisson2`, `poisson2affine`).
        levels: Vec<String>,
    },
}

/// Errors from dataset construction and manipulation.
#[derive(Debug, Clone, PartialEq)]
pub enum DataSetError {
    /// Column lengths disagree.
    LengthMismatch(String),
    /// Referenced a column that does not exist.
    UnknownColumn(String),
    /// Categorical value outside the declared levels.
    BadLevel(String),
    /// Structural problem (duplicate name, empty dataset where rows needed…).
    Invalid(String),
}

impl fmt::Display for DataSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataSetError::LengthMismatch(s) => write!(f, "length mismatch: {s}"),
            DataSetError::UnknownColumn(s) => write!(f, "unknown column: {s}"),
            DataSetError::BadLevel(s) => write!(f, "bad categorical level: {s}"),
            DataSetError::Invalid(s) => write!(f, "invalid dataset: {s}"),
        }
    }
}

impl std::error::Error for DataSetError {}

/// One group of rows sharing identical variable settings:
/// `(setting values, row indices)`.
pub type SettingGroup = (Vec<f64>, Vec<usize>);

/// A controlled-variable column.
#[derive(Debug, Clone, PartialEq)]
pub struct Variable {
    /// Column name.
    pub name: String,
    /// Numeric or categorical.
    pub kind: ColumnKind,
    /// Values, one per row. For categoricals these are level indices
    /// stored as `f64` (always exact for the small level counts used here).
    pub values: Vec<f64>,
}

/// Tabular dataset: controlled variables + response columns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DataSet {
    variables: Vec<Variable>,
    responses: BTreeMap<String, Vec<f64>>,
    nrows: usize,
}

impl DataSet {
    /// Empty dataset (no columns, no rows).
    pub fn new() -> Self {
        DataSet::default()
    }

    /// Add a numeric controlled variable.
    ///
    /// # Errors
    /// Length mismatch against existing columns, or duplicate name.
    pub fn add_numeric_variable(
        &mut self,
        name: &str,
        values: Vec<f64>,
    ) -> Result<(), DataSetError> {
        self.check_new_column(name, values.len())?;
        self.nrows = values.len();
        self.variables.push(Variable {
            name: name.to_string(),
            kind: ColumnKind::Numeric,
            values,
        });
        Ok(())
    }

    /// Add a categorical controlled variable from string values; levels are
    /// collected in order of first appearance.
    pub fn add_categorical_variable(
        &mut self,
        name: &str,
        values: &[&str],
    ) -> Result<(), DataSetError> {
        self.check_new_column(name, values.len())?;
        let mut levels: Vec<String> = Vec::new();
        let mut encoded = Vec::with_capacity(values.len());
        for v in values {
            let idx = match levels.iter().position(|l| l == v) {
                Some(i) => i,
                None => {
                    levels.push(v.to_string());
                    levels.len() - 1
                }
            };
            encoded.push(idx as f64);
        }
        self.nrows = values.len();
        self.variables.push(Variable {
            name: name.to_string(),
            kind: ColumnKind::Categorical { levels },
            values: encoded,
        });
        Ok(())
    }

    /// Add a response column (Runtime, Energy, ...).
    pub fn add_response(&mut self, name: &str, values: Vec<f64>) -> Result<(), DataSetError> {
        self.check_new_column(name, values.len())?;
        self.nrows = values.len();
        self.responses.insert(name.to_string(), values);
        Ok(())
    }

    fn check_new_column(&self, name: &str, len: usize) -> Result<(), DataSetError> {
        if self.variables.iter().any(|v| v.name == name) || self.responses.contains_key(name) {
            return Err(DataSetError::Invalid(format!("duplicate column {name}")));
        }
        if (self.nrows != 0 || !self.is_column_free()) && len != self.nrows {
            return Err(DataSetError::LengthMismatch(format!(
                "column {name} has {len} rows, dataset has {}",
                self.nrows
            )));
        }
        Ok(())
    }

    fn is_column_free(&self) -> bool {
        self.variables.is_empty() && self.responses.is_empty()
    }

    /// Number of rows (jobs).
    pub fn n_rows(&self) -> usize {
        self.nrows
    }

    /// Number of controlled variables.
    pub fn n_variables(&self) -> usize {
        self.variables.len()
    }

    /// Names of the controlled variables, in order.
    pub fn variable_names(&self) -> Vec<&str> {
        self.variables.iter().map(|v| v.name.as_str()).collect()
    }

    /// Names of the responses, in order.
    pub fn response_names(&self) -> Vec<&str> {
        self.responses.keys().map(|k| k.as_str()).collect()
    }

    /// Borrow one controlled variable by name.
    pub fn variable(&self, name: &str) -> Result<&Variable, DataSetError> {
        self.variables
            .iter()
            .find(|v| v.name == name)
            .ok_or_else(|| DataSetError::UnknownColumn(name.to_string()))
    }

    /// Borrow one response column by name.
    pub fn response(&self, name: &str) -> Result<&[f64], DataSetError> {
        self.responses
            .get(name)
            .map(|v| v.as_slice())
            .ok_or_else(|| DataSetError::UnknownColumn(name.to_string()))
    }

    /// Sorted unique values of a variable.
    #[cfg(test)]
    fn unique_values(&self, name: &str) -> Result<Vec<f64>, DataSetError> {
        let var = self.variable(name)?;
        let mut vals = var.values.clone();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        vals.dedup();
        Ok(vals)
    }

    /// Index of a categorical level by name.
    pub fn level_index(&self, var: &str, level: &str) -> Result<usize, DataSetError> {
        match &self.variable(var)?.kind {
            ColumnKind::Categorical { levels } => levels
                .iter()
                .position(|l| l == level)
                .ok_or_else(|| DataSetError::BadLevel(format!("{var}={level}"))),
            ColumnKind::Numeric => Err(DataSetError::Invalid(format!("{var} is numeric"))),
        }
    }

    /// Select a subset of rows into a new dataset (indices may repeat).
    pub fn select_rows(&self, idx: &[usize]) -> DataSet {
        let variables = self
            .variables
            .iter()
            .map(|v| Variable {
                name: v.name.clone(),
                kind: v.kind.clone(),
                values: idx.iter().map(|&i| v.values[i]).collect(),
            })
            .collect();
        let responses = self
            .responses
            .iter()
            .map(|(k, col)| (k.clone(), idx.iter().map(|&i| col[i]).collect()))
            .collect();
        DataSet {
            variables,
            responses,
            nrows: idx.len(),
        }
    }

    /// Keep only rows where `var == value` (within `1e-9` tolerance for
    /// numerics), and *drop* that variable from the result — the paper's
    /// "fix the Operator, vary Problem Size" style of cross-section.
    pub fn fix_variable(&self, name: &str, value: f64) -> Result<DataSet, DataSetError> {
        let var = self.variable(name)?;
        let idx: Vec<usize> = var
            .values
            .iter()
            .enumerate()
            .filter(|(_, &v)| (v - value).abs() < 1e-9)
            .map(|(i, _)| i)
            .collect();
        let mut sub = self.select_rows(&idx);
        sub.variables.retain(|v| v.name != name);
        Ok(sub)
    }

    /// Fix a categorical variable by level name.
    pub fn fix_level(&self, name: &str, level: &str) -> Result<DataSet, DataSetError> {
        let idx = self.level_index(name, level)?;
        self.fix_variable(name, idx as f64)
    }

    /// Build the numeric design matrix from the named variables (rows =
    /// jobs, columns = the given variables in order). This is the `X` the
    /// GPR layer consumes (paper's "design matrix", Section III).
    pub fn design_matrix(&self, vars: &[&str]) -> Result<Matrix, DataSetError> {
        let cols: Vec<&Variable> = vars
            .iter()
            .map(|n| self.variable(n))
            .collect::<Result<_, _>>()?;
        let mut m = Matrix::zeros(self.nrows, cols.len());
        for (j, c) in cols.iter().enumerate() {
            for i in 0..self.nrows {
                m[(i, j)] = c.values[i];
            }
        }
        Ok(m)
    }

    /// One row of the design matrix (values of `vars` at row `i`).
    pub fn point(&self, vars: &[&str], i: usize) -> Result<Vec<f64>, DataSetError> {
        vars.iter()
            .map(|n| self.variable(n).map(|v| v.values[i]))
            .collect()
    }

    /// Group rows by identical variable settings; returns
    /// `(setting, row indices)` pairs. Used to find repeated measurements.
    pub fn group_by_settings(&self, vars: &[&str]) -> Result<Vec<SettingGroup>, DataSetError> {
        let mut groups: Vec<(Vec<f64>, Vec<usize>)> = Vec::new();
        for i in 0..self.nrows {
            let key = self.point(vars, i)?;
            match groups
                .iter_mut()
                .find(|(k, _)| k.iter().zip(&key).all(|(a, b)| (a - b).abs() < 1e-9))
            {
                Some((_, rows)) => rows.push(i),
                None => groups.push((key, vec![i])),
            }
        }
        Ok(groups)
    }

    /// Apply a function to a response column in place (e.g. log transform).
    pub fn map_response(&mut self, name: &str, f: impl Fn(f64) -> f64) -> Result<(), DataSetError> {
        let col = self
            .responses
            .get_mut(name)
            .ok_or_else(|| DataSetError::UnknownColumn(name.to_string()))?;
        for v in col.iter_mut() {
            *v = f(*v);
        }
        Ok(())
    }

    /// Apply a function to a variable column in place.
    pub fn map_variable(&mut self, name: &str, f: impl Fn(f64) -> f64) -> Result<(), DataSetError> {
        let var = self
            .variables
            .iter_mut()
            .find(|v| v.name == name)
            .ok_or_else(|| DataSetError::UnknownColumn(name.to_string()))?;
        if !matches!(var.kind, ColumnKind::Numeric) {
            return Err(DataSetError::Invalid(format!(
                "cannot map categorical variable {name}"
            )));
        }
        for v in var.values.iter_mut() {
            *v = f(*v);
        }
        Ok(())
    }

    /// Append one row: variable values in declaration order plus responses
    /// by name. Missing responses are an error (keep the table rectangular).
    #[cfg(test)]
    fn push_row(
        &mut self,
        var_values: &[f64],
        response_values: &BTreeMap<String, f64>,
    ) -> Result<(), DataSetError> {
        if var_values.len() != self.variables.len() {
            return Err(DataSetError::LengthMismatch(format!(
                "row has {} variables, dataset has {}",
                var_values.len(),
                self.variables.len()
            )));
        }
        for key in self.responses.keys() {
            if !response_values.contains_key(key) {
                return Err(DataSetError::Invalid(format!("missing response {key}")));
            }
        }
        for (var, &v) in self.variables.iter_mut().zip(var_values) {
            if let ColumnKind::Categorical { levels } = &var.kind {
                if v < 0.0 || v as usize >= levels.len() || v.fract() != 0.0 {
                    return Err(DataSetError::BadLevel(format!("{}={v}", var.name)));
                }
            }
            var.values.push(v);
        }
        for (key, col) in self.responses.iter_mut() {
            col.push(response_values[key]);
        }
        self.nrows += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataSet {
        let mut d = DataSet::new();
        d.add_categorical_variable("op", &["p1", "p1", "p2", "p2", "p1"])
            .unwrap();
        d.add_numeric_variable("size", vec![10.0, 20.0, 10.0, 20.0, 10.0])
            .unwrap();
        d.add_response("runtime", vec![1.0, 2.0, 3.0, 4.0, 1.5])
            .unwrap();
        d
    }

    #[test]
    fn construction_and_shapes() {
        let d = sample();
        assert_eq!(d.n_rows(), 5);
        assert_eq!(d.n_variables(), 2);
        assert_eq!(d.variable_names(), vec!["op", "size"]);
        assert_eq!(d.response_names(), vec!["runtime"]);
    }

    #[test]
    fn duplicate_column_rejected() {
        let mut d = sample();
        assert!(matches!(
            d.add_numeric_variable("size", vec![0.0; 5]),
            Err(DataSetError::Invalid(_))
        ));
        assert!(d.add_response("runtime", vec![0.0; 5]).is_err());
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut d = sample();
        assert!(matches!(
            d.add_numeric_variable("np", vec![1.0, 2.0]),
            Err(DataSetError::LengthMismatch(_))
        ));
    }

    #[test]
    fn categorical_encoding() {
        let d = sample();
        let op = d.variable("op").unwrap();
        assert_eq!(op.values, vec![0.0, 0.0, 1.0, 1.0, 0.0]);
        assert_eq!(d.level_index("op", "p2").unwrap(), 1);
        assert!(d.level_index("op", "nope").is_err());
        assert!(d.level_index("size", "p1").is_err());
    }

    #[test]
    fn unique_values_sorted() {
        let d = sample();
        assert_eq!(d.unique_values("size").unwrap(), vec![10.0, 20.0]);
    }

    #[test]
    fn unknown_column_errors() {
        let d = sample();
        assert!(d.variable("nope").is_err());
        assert!(d.response("nope").is_err());
        assert!(d.unique_values("nope").is_err());
    }

    #[test]
    fn select_rows_and_repeats() {
        let d = sample();
        let s = d.select_rows(&[4, 4, 0]);
        assert_eq!(s.n_rows(), 3);
        assert_eq!(s.response("runtime").unwrap(), &[1.5, 1.5, 1.0]);
    }

    #[test]
    fn fix_level_drops_column_and_filters() {
        let d = sample();
        let p1 = d.fix_level("op", "p1").unwrap();
        assert_eq!(p1.n_rows(), 3);
        assert_eq!(p1.n_variables(), 1);
        assert_eq!(p1.variable_names(), vec!["size"]);
        assert_eq!(p1.response("runtime").unwrap(), &[1.0, 2.0, 1.5]);
    }

    #[test]
    fn fix_numeric_variable() {
        let d = sample();
        let small = d.fix_variable("size", 10.0).unwrap();
        assert_eq!(small.n_rows(), 3);
        assert_eq!(small.response("runtime").unwrap(), &[1.0, 3.0, 1.5]);
    }

    #[test]
    fn design_matrix_layout() {
        let d = sample();
        let m = d.design_matrix(&["size", "op"]).unwrap();
        assert_eq!(m.nrows(), 5);
        assert_eq!(m.ncols(), 2);
        assert_eq!(m.row(2), &[10.0, 1.0]);
        assert!(d.design_matrix(&["nope"]).is_err());
    }

    #[test]
    fn point_extraction() {
        let d = sample();
        assert_eq!(d.point(&["op", "size"], 3).unwrap(), vec![1.0, 20.0]);
    }

    #[test]
    fn group_by_settings_finds_repeats() {
        let d = sample();
        let groups = d.group_by_settings(&["op", "size"]).unwrap();
        // (p1,10) x2 [rows 0, 4], (p1,20), (p2,10), (p2,20).
        assert_eq!(groups.len(), 4);
        let g = groups.iter().find(|(k, _)| k == &vec![0.0, 10.0]).unwrap();
        assert_eq!(g.1, vec![0, 4]);
    }

    #[test]
    fn map_response_transforms_in_place() {
        let mut d = sample();
        d.map_response("runtime", |v| v * 10.0).unwrap();
        assert_eq!(d.response("runtime").unwrap()[0], 10.0);
        assert!(d.map_response("nope", |v| v).is_err());
    }

    #[test]
    fn map_variable_rejects_categorical() {
        let mut d = sample();
        assert!(d.map_variable("size", |v| v.log10()).is_ok());
        assert!(d.map_variable("op", |v| v + 1.0).is_err());
    }

    #[test]
    fn push_row_appends() {
        let mut d = sample();
        let mut resp = BTreeMap::new();
        resp.insert("runtime".to_string(), 9.0);
        d.push_row(&[1.0, 30.0], &resp).unwrap();
        assert_eq!(d.n_rows(), 6);
        assert_eq!(d.response("runtime").unwrap()[5], 9.0);
        // Bad level index rejected.
        assert!(d.push_row(&[7.0, 30.0], &resp).is_err());
        // Missing response rejected.
        assert!(d.push_row(&[0.0, 30.0], &BTreeMap::new()).is_err());
        // Wrong arity rejected.
        assert!(d.push_row(&[0.0], &resp).is_err());
    }

    #[test]
    fn empty_dataset_is_sane() {
        let d = DataSet::new();
        assert_eq!(d.n_rows(), 0);
        assert_eq!(d.n_variables(), 0);
        assert!(d.response_names().is_empty());
    }
}
