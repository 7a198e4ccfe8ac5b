//! Offline performance analysis: the paper's prototype workflow over a
//! measurement database.
//!
//! [`PerformanceAnalysis`] wraps a [`DataSet`] and a declarative
//! [`AnalysisConfig`] (which variables, which response, what to
//! log-transform, which noise floor), builds the numeric problem from them
//! (design matrix, transformed response, per-row cost = runtime x NP), and
//! exposes:
//!
//! * [`PerformanceAnalysis::run`] — one AL realization over one partition;
//! * [`PerformanceAnalysis::run_batch`] — many partitions, one whole
//!   campaign per unit of the replicate runner
//!   ([`alperf_linalg::threads::replicates`]), the way the paper generates
//!   Figs. 7 and 8.

use alperf_al::runner::{run_al, AlConfig, AlError, AlRun};
use alperf_al::strategy::Strategy;
use alperf_data::dataset::{DataSet, DataSetError};
use alperf_data::partition::Partition;
use alperf_data::transform::Transform;
use alperf_gp::kernel::ArdSquaredExponential;
use alperf_gp::noise::NoiseFloor;
use alperf_gp::optimize::GprConfig;
use alperf_linalg::matrix::Matrix;
use alperf_linalg::threads::replicates;

/// Declarative description of one analysis problem.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Controlled variables forming the design matrix, in order.
    pub variables: Vec<String>,
    /// Variables to log10-transform before modeling (paper: Global
    /// Problem Size).
    pub log_variables: Vec<String>,
    /// Response to model (paper: Runtime or Energy).
    pub response: String,
    /// Log10-transform the response (paper: always, Section V-A).
    pub log_response: bool,
    /// Column holding the rank count, used for the cost unit
    /// runtime x cores; `None` makes cost = runtime alone.
    pub np_column: Option<String>,
    /// Column holding the per-row runtime for cost computation (may equal
    /// `response`). Values are used on the raw (non-log) scale.
    pub runtime_column: String,
    /// Noise floor for GPR hyperparameter fitting (Fig. 7's knob).
    pub noise_floor: NoiseFloor,
    /// Optimizer restarts per fit.
    pub restarts: usize,
    /// AL iterations per run.
    pub max_iters: usize,
    /// How often the AL loop's refit trigger tests the GPR
    /// hyperparameters once the training set passes 30 rows (1 = every
    /// iteration; see `AlConfig::refit_every`). Up to 30 rows every
    /// iteration re-optimizes, and the model is re-conditioned on new data
    /// every iteration either way.
    pub hyper_refit_every: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl AnalysisConfig {
    /// Paper-style defaults for modeling `Runtime` over the given variables.
    #[cfg(test)]
    fn runtime_model(variables: &[&str]) -> Self {
        AnalysisConfig {
            variables: variables.iter().map(|s| s.to_string()).collect(),
            log_variables: vec![],
            response: "Runtime".into(),
            log_response: true,
            np_column: None,
            runtime_column: "Runtime".into(),
            noise_floor: NoiseFloor::recommended(),
            restarts: 3,
            max_iters: 100,
            hyper_refit_every: 1,
            seed: 0,
        }
    }
}

/// The numeric problem extracted from the dataset.
#[derive(Debug, Clone)]
pub struct PreparedProblem {
    /// Design matrix (rows = jobs, columns = `config.variables`, transforms
    /// applied).
    pub x: Matrix,
    /// Response vector (transform applied).
    pub y: Vec<f64>,
    /// Per-row experiment cost (raw runtime x cores).
    pub cost: Vec<f64>,
}

/// Offline analysis session over one dataset.
pub struct PerformanceAnalysis {
    data: DataSet,
    config: AnalysisConfig,
}

impl PerformanceAnalysis {
    /// New session. The dataset is typically a cross-section (operators
    /// fixed) of a campaign's Performance or Power dataset.
    pub fn new(data: DataSet, config: AnalysisConfig) -> Self {
        PerformanceAnalysis { data, config }
    }

    /// Borrow the dataset.
    pub fn data(&self) -> &DataSet {
        &self.data
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// Extract the numeric problem.
    ///
    /// # Errors
    /// Unknown columns, non-positive values under a log transform.
    fn prepare(&self) -> Result<PreparedProblem, DataSetError> {
        let vars: Vec<&str> = self.config.variables.iter().map(|s| s.as_str()).collect();
        let mut x = self.data.design_matrix(&vars)?;
        // Apply variable log transforms by column.
        for (j, name) in self.config.variables.iter().enumerate() {
            if self.config.log_variables.contains(name) {
                for i in 0..x.nrows() {
                    let v = x[(i, j)];
                    if !Transform::Log10.accepts(v) {
                        return Err(DataSetError::Invalid(format!(
                            "variable {name} has non-positive value {v}"
                        )));
                    }
                    x[(i, j)] = v.log10();
                }
            }
        }
        let raw_y = self.data.response(&self.config.response)?;
        let y: Vec<f64> = if self.config.log_response {
            if let Some(bad) = raw_y.iter().find(|v| !Transform::Log10.accepts(**v)) {
                return Err(DataSetError::Invalid(format!(
                    "response {} has non-positive value {bad}",
                    self.config.response
                )));
            }
            raw_y.iter().map(|v| v.log10()).collect()
        } else {
            raw_y.to_vec()
        };
        // Cost: raw runtime x cores.
        let runtime = self
            .data
            .response(&self.config.runtime_column)
            .or_else(|_| {
                // Runtime may be a variable in exotic setups.
                self.data
                    .variable(&self.config.runtime_column)
                    .map(|v| v.values.as_slice())
            })?;
        let cost: Vec<f64> = match &self.config.np_column {
            Some(npc) => {
                let np = &self.data.variable(npc)?.values;
                runtime.iter().zip(np).map(|(r, n)| r * n).collect()
            }
            None => runtime.to_vec(),
        };
        Ok(PreparedProblem { x, y, cost })
    }

    /// GPR configuration for this problem (ARD squared exponential over the
    /// declared variables, the configured noise floor). Responses are fit
    /// on the raw (log-transformed) scale, matching the paper's prototype
    /// (`normalize_y=False`): standardizing the 1-point Initial set would
    /// re-center it to zero and collapse the fitted amplitude.
    pub fn gpr_config(&self) -> GprConfig {
        let dim = self.config.variables.len();
        GprConfig::new(Box::new(ArdSquaredExponential::unit(dim)))
            .with_noise_floor(self.config.noise_floor)
            .with_kernel_bounds(paper_kernel_bounds(dim))
            .with_restarts(self.config.restarts)
            .with_seed(self.config.seed)
            .with_standardize(false)
    }

    /// One AL realization over the given partition.
    ///
    /// # Errors
    /// Propagates preparation and AL-loop failures.
    pub fn run(
        &self,
        partition: &Partition,
        strategy: &mut dyn Strategy,
    ) -> Result<AlRun, AnalysisError> {
        let prob = self.prepare()?;
        let al = AlConfig {
            max_iters: self.config.max_iters,
            refit_every: self.config.hyper_refit_every.max(1),
            seed: self.config.seed,
            ..AlConfig::new(self.gpr_config())
        };
        Ok(run_al(
            &prob.x, &prob.y, &prob.cost, partition, strategy, &al,
        )?)
    }

    /// Batch evaluation: `n_partitions` random paper-style partitions
    /// (single initial experiment, 8:2 Active:Test), run through the
    /// replicate runner and returned in partition order.
    /// `make_strategy` builds a fresh strategy per run (strategies are
    /// stateful).
    ///
    /// # Errors
    /// Fails on the first erroring run.
    pub fn run_batch(
        &self,
        n_partitions: usize,
        make_strategy: impl Fn() -> Box<dyn Strategy> + Sync,
    ) -> Result<Vec<AlRun>, AnalysisError> {
        let prob = self.prepare()?;
        let n = prob.x.nrows();
        replicates(n_partitions, |i| {
            let partition = Partition::paper_default(n, self.config.seed ^ (i as u64) << 17);
            let al = AlConfig {
                max_iters: self.config.max_iters,
                refit_every: self.config.hyper_refit_every.max(1),
                seed: self.config.seed.wrapping_add(i as u64),
                ..AlConfig::new(self.gpr_config())
            };
            let mut strategy = make_strategy();
            run_al(
                &prob.x,
                &prob.y,
                &prob.cost,
                &partition,
                strategy.as_mut(),
                &al,
            )
            .map_err(AnalysisError::from)
        })
        .into_iter()
        .collect()
    }
}

/// Log-space kernel bounds for an ARD squared exponential over `dim`
/// variables, matching the paper's modeling assumptions: length scales are
/// free over `[1e-2, 1e3]`, but the amplitude is confined to `[0.5, 50]` —
/// the spread of log10-responses across the domain is O(1), and letting the
/// amplitude collapse toward zero would assert a constant function, the
/// degenerate all-noise fit the paper's Fig. 7 analysis guards against
/// (its LML landscapes treat `(l, sigma_n)` as the parameters being fit,
/// with the amplitude on a sane prior scale).
pub fn paper_kernel_bounds(dim: usize) -> Vec<(f64, f64)> {
    let mut bounds = vec![(1e-2f64.ln(), 1e3f64.ln()); dim];
    bounds.push((0.5f64.ln(), 50f64.ln()));
    bounds
}

/// Errors from the analysis layer.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// Dataset problem (unknown column, bad transform input).
    Data(DataSetError),
    /// AL loop failure.
    Al(AlError),
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::Data(e) => write!(f, "data error: {e}"),
            AnalysisError::Al(e) => write!(f, "AL error: {e}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<DataSetError> for AnalysisError {
    fn from(e: DataSetError) -> Self {
        AnalysisError::Data(e)
    }
}

impl From<AlError> for AnalysisError {
    fn from(e: AlError) -> Self {
        AnalysisError::Al(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alperf_al::strategy::{CostEfficiency, VarianceReduction};

    /// A small synthetic "performance dataset": runtime grows linearly with
    /// size in log-log space, shrinks with NP.
    fn dataset() -> DataSet {
        let mut d = DataSet::new();
        let sizes: Vec<f64> = (0..8).map(|i| 1e3 * 10f64.powf(i as f64 * 0.5)).collect();
        let nps = [1.0, 4.0, 16.0];
        let mut size_col = Vec::new();
        let mut np_col = Vec::new();
        let mut rt_col = Vec::new();
        for (k, &s) in sizes.iter().enumerate() {
            for (j, &np) in nps.iter().enumerate() {
                for rep in 0..2 {
                    size_col.push(s);
                    np_col.push(np);
                    // Deterministic pseudo-noise from indices.
                    let noise = 1.0 + 0.02 * ((k * 7 + j * 3 + rep) % 5) as f64;
                    rt_col.push(s / (2e4 * np) * noise + 0.004);
                }
            }
        }
        d.add_numeric_variable("Global Problem Size", size_col)
            .unwrap();
        d.add_numeric_variable("NP", np_col).unwrap();
        d.add_response("Runtime", rt_col).unwrap();
        d
    }

    fn config() -> AnalysisConfig {
        AnalysisConfig {
            variables: vec!["Global Problem Size".into()],
            log_variables: vec!["Global Problem Size".into()],
            np_column: Some("NP".into()),
            max_iters: 15,
            restarts: 2,
            ..AnalysisConfig::runtime_model(&["Global Problem Size"])
        }
    }

    #[test]
    fn prepare_applies_transforms_and_cost() {
        let pa = PerformanceAnalysis::new(dataset(), config());
        let prob = pa.prepare().unwrap();
        assert_eq!(prob.x.nrows(), 48);
        assert_eq!(prob.x.ncols(), 1);
        // Log size: first row = log10(1e3) = 3.
        assert!((prob.x[(0, 0)] - 3.0).abs() < 1e-12);
        // Log runtime.
        let raw = pa.data().response("Runtime").unwrap()[0];
        assert!((prob.y[0] - raw.log10()).abs() < 1e-12);
        // Cost = raw runtime x NP.
        let np = pa.data().variable("NP").unwrap().values[0];
        assert!((prob.cost[0] - raw * np).abs() < 1e-12);
    }

    #[test]
    fn unknown_columns_rejected() {
        let mut cfg = config();
        cfg.response = "nope".into();
        let pa = PerformanceAnalysis::new(dataset(), cfg);
        assert!(pa.prepare().is_err());
        let mut cfg2 = config();
        cfg2.variables = vec!["nope".into()];
        assert!(PerformanceAnalysis::new(dataset(), cfg2).prepare().is_err());
    }

    #[test]
    fn log_of_nonpositive_response_rejected() {
        let mut d = DataSet::new();
        d.add_numeric_variable("Global Problem Size", vec![1.0, 2.0])
            .unwrap();
        d.add_numeric_variable("NP", vec![1.0, 1.0]).unwrap();
        d.add_response("Runtime", vec![1.0, -1.0]).unwrap();
        let pa = PerformanceAnalysis::new(d, config());
        assert!(matches!(pa.prepare(), Err(DataSetError::Invalid(_))));
    }

    #[test]
    fn single_run_learns() {
        let pa = PerformanceAnalysis::new(dataset(), config());
        let part = Partition::paper_default(48, 3);
        let run = pa.run(&part, &mut VarianceReduction).unwrap();
        assert_eq!(run.history.len(), 15);
        let first = run.history[0].rmse;
        let last = run.history.last().unwrap().rmse;
        assert!(last < first, "rmse {first} -> {last}");
    }

    #[test]
    fn batch_runs_are_distinct_realizations() {
        let pa = PerformanceAnalysis::new(dataset(), config());
        let runs = pa.run_batch(4, || Box::new(CostEfficiency)).unwrap();
        assert_eq!(runs.len(), 4);
        // Different partitions: first selected rows should differ somewhere.
        let firsts: std::collections::BTreeSet<usize> =
            runs.iter().map(|r| r.history[0].chosen_row).collect();
        assert!(firsts.len() > 1, "all batch runs identical");
        // All learned.
        for r in &runs {
            assert!(r.history.last().unwrap().rmse.is_finite());
        }
    }

    #[test]
    fn cost_without_np_column_is_runtime() {
        let mut cfg = config();
        cfg.np_column = None;
        let pa = PerformanceAnalysis::new(dataset(), cfg);
        let prob = pa.prepare().unwrap();
        let raw = pa.data().response("Runtime").unwrap();
        for (c, r) in prob.cost.iter().zip(raw) {
            assert_eq!(c, r);
        }
    }
}
