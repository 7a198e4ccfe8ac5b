//! The Active-Learning driver loop (the paper's "prototype", Section IV).
//!
//! One *run* replays AL over a dataset partition:
//!
//! 1. train a GPR on the Initial rows (hyperparameters optimized with the
//!    configured noise floor — the knob behind Fig. 7);
//! 2. each iteration: predict over the Active pool, let the strategy pick a
//!    candidate, "run the experiment" (reveal that row's measured
//!    response), move the row into the training set, refit;
//! 3. per iteration, record the paper's monitoring quantities
//!    (Section V-B3): `sigma_f(x*)` at the selected candidate, AMSD
//!    (arithmetic mean predictive SD over the pool), Test-set RMSE (Eq. 2),
//!    and the cumulative cost (runtime x cores) spent so far.
//!
//! The offline oracle is the dataset itself; each pool row is one recorded
//! measurement, so repeated settings remain selectable through their other
//! rows — the noisy-function requirement of Section III.

use crate::cache::PoolPredictionCache;
use crate::oracle::{DatasetOracle, ExperimentOracle, ExperimentOutcome};
use crate::strategy::{SelectionContext, Strategy};
use alperf_data::partition::Partition;
use alperf_gp::model::{GpError, Gpr};
use alperf_gp::optimize::{fit_gpr, GprConfig};
use alperf_linalg::matrix::Matrix;
use alperf_obs::names;
use alperf_obs::Value;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of one AL run.
pub struct AlConfig {
    /// GPR fitting configuration (kernel template, noise floor, restarts).
    pub gpr: GprConfig,
    /// Maximum AL iterations (pool exhaustion stops earlier).
    pub max_iters: usize,
    /// Refit hyperparameters every `refit_every` iterations (1 = always,
    /// matching the paper; larger values are an ablation knob).
    pub refit_every: usize,
    /// Warm-start refits from the previous iteration's hyperparameters
    /// with a single ascent (no random restarts), falling back to the full
    /// multi-restart search every `full_refit_every` iterations. The LML
    /// landscape moves slowly as one point is added, so this matches the
    /// full search in practice at a fraction of the cost.
    pub warm_start: bool,
    /// Period of full multi-restart refits under warm starting.
    pub full_refit_every: usize,
    /// RNG seed for strategy randomness.
    pub seed: u64,
}

impl AlConfig {
    /// Paper-faithful defaults around a given GPR config.
    pub fn new(gpr: GprConfig) -> Self {
        AlConfig {
            gpr,
            max_iters: 100,
            refit_every: 1,
            warm_start: true,
            full_refit_every: 10,
            seed: 0,
        }
    }
}

/// Everything recorded about one AL iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// Iteration number (0-based).
    pub iter: usize,
    /// Dataset row chosen this iteration.
    pub chosen_row: usize,
    /// Input point of the chosen row.
    pub x: Vec<f64>,
    /// Response revealed by the "experiment".
    pub y: f64,
    /// Predictive SD at the chosen candidate *before* adding it —
    /// the paper's `sigma_f(x)` trace.
    pub sigma_at_chosen: f64,
    /// Arithmetic Mean of the Standard Deviation over the remaining pool.
    pub amsd: f64,
    /// RMSE on the Test set (Eq. 2).
    pub rmse: f64,
    /// Cumulative experiment cost after running this experiment.
    pub cumulative_cost: f64,
    /// Log marginal likelihood of the fit used this iteration.
    pub lml: f64,
    /// Fitted noise level `sigma_n` this iteration.
    pub noise_std: f64,
}

/// A selected experiment that the oracle lost to a fault: the runner
/// charged its cost, dropped the candidate, and carried on.
#[derive(Debug, Clone, PartialEq)]
pub struct LostExperiment {
    /// Iteration (0-based) on which the loss happened.
    pub iter: usize,
    /// Dataset row whose measurement was lost.
    pub row: usize,
    /// Execution attempts the oracle burned before giving up.
    pub attempts: u32,
    /// Cost charged for the lost experiment.
    pub cost: f64,
}

/// A completed AL run.
#[derive(Debug, Clone)]
pub struct AlRun {
    /// Strategy name.
    pub strategy: &'static str,
    /// Per-iteration records, in order (degraded iterations are absent
    /// here — see `lost`).
    pub history: Vec<IterationRecord>,
    /// Rows in the training set at the end (initial + selected).
    pub final_train: Vec<usize>,
    /// Experiments lost to faults, in iteration order (empty under the
    /// default [`crate::oracle::DatasetOracle`]).
    pub lost: Vec<LostExperiment>,
}

impl AlRun {
    /// The RMSE trajectory.
    pub fn rmse_series(&self) -> Vec<f64> {
        self.history.iter().map(|r| r.rmse).collect()
    }

    /// The AMSD trajectory.
    pub fn amsd_series(&self) -> Vec<f64> {
        self.history.iter().map(|r| r.amsd).collect()
    }

    /// The cumulative-cost trajectory.
    pub fn cost_series(&self) -> Vec<f64> {
        self.history.iter().map(|r| r.cumulative_cost).collect()
    }

    /// `(cumulative_cost, rmse)` pairs — the raw material of the paper's
    /// Fig. 8(b) tradeoff curves.
    pub fn cost_rmse_points(&self) -> Vec<(f64, f64)> {
        self.history
            .iter()
            .map(|r| (r.cumulative_cost, r.rmse))
            .collect()
    }
}

/// Errors from an AL run.
#[derive(Debug, Clone, PartialEq)]
pub enum AlError {
    /// GPR fitting failed irrecoverably.
    Gp(GpError),
    /// The partition does not match the dataset size.
    BadPartition(String),
}

impl std::fmt::Display for AlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlError::Gp(e) => write!(f, "GPR failure in AL loop: {e}"),
            AlError::BadPartition(s) => write!(f, "bad partition: {s}"),
        }
    }
}

impl std::error::Error for AlError {}

impl From<GpError> for AlError {
    fn from(e: GpError) -> Self {
        AlError::Gp(e)
    }
}

/// Run Active Learning over `(x_all, y_all)` with the given partition.
///
/// ```
/// use alperf_al::runner::{run_al, AlConfig};
/// use alperf_al::strategy::VarianceReduction;
/// use alperf_data::partition::Partition;
/// use alperf_gp::kernel::SquaredExponential;
/// use alperf_gp::optimize::GprConfig;
/// use alperf_linalg::matrix::Matrix;
///
/// let n = 20;
/// let x = Matrix::from_fn(n, 1, |i, _| i as f64 * 0.4);
/// let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).sin()).collect();
/// let cost = vec![1.0; n];
/// let part = Partition::paper_default(n, 7);
/// let cfg = AlConfig {
///     max_iters: 5,
///     ..AlConfig::new(GprConfig::new(Box::new(SquaredExponential::unit())).with_restarts(1))
/// };
/// let run = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &cfg).unwrap();
/// assert_eq!(run.history.len(), 5);
/// ```
///
/// * `cost` — per-row experiment cost (the paper uses runtime x cores);
///   pass all-ones to count experiments instead.
/// * `strategy` — the acquisition strategy (mutable: EMCM keeps state).
pub fn run_al(
    x_all: &Matrix,
    y_all: &[f64],
    cost: &[f64],
    partition: &Partition,
    strategy: &mut dyn Strategy,
    config: &AlConfig,
) -> Result<AlRun, AlError> {
    run_al_with_oracle(
        x_all,
        y_all,
        cost,
        partition,
        strategy,
        &DatasetOracle,
        config,
    )
}

/// [`run_al`] with an explicit [`ExperimentOracle`] deciding each selected
/// experiment's fate. Under a faulty oracle the loop degrades gracefully:
/// a [`ExperimentOutcome::Lost`] experiment is charged its cost, flagged in
/// the telemetry stream (`al.degraded_iteration` counter + record), and
/// removed from the pool — the next iteration re-selects from the
/// survivors instead of aborting. Lost experiments are reported in
/// [`AlRun::lost`]; the metric history only contains iterations that
/// produced a measurement.
pub fn run_al_with_oracle(
    x_all: &Matrix,
    y_all: &[f64],
    cost: &[f64],
    partition: &Partition,
    strategy: &mut dyn Strategy,
    oracle: &dyn ExperimentOracle,
    config: &AlConfig,
) -> Result<AlRun, AlError> {
    let n = x_all.nrows();
    if y_all.len() != n || cost.len() != n {
        return Err(AlError::BadPartition(format!(
            "X has {n} rows, y has {}, cost has {}",
            y_all.len(),
            cost.len()
        )));
    }
    if !partition.is_valid_cover(n) {
        return Err(AlError::BadPartition(format!(
            "partition does not cover 0..{n} exactly"
        )));
    }
    let mut train: Vec<usize> = partition.initial.clone();
    let mut pool: Vec<usize> = partition.active.clone();
    let test = &partition.test;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut history = Vec::new();
    let mut lost: Vec<LostExperiment> = Vec::new();
    let mut cumulative_cost: f64 = train.iter().map(|&i| cost[i]).sum();
    let mut model: Option<Gpr> = None;

    // Telemetry is strictly observational: timestamps are read and records
    // emitted only when the global switch is on, and nothing below feeds
    // back into the numerics — a telemetry-on run is bit-identical to a
    // telemetry-off run (see tests/obs_determinism.rs).
    let obs_on = alperf_obs::enabled();
    let run_id = if obs_on { alperf_obs::next_run_id() } else { 0 };
    if obs_on {
        alperf_obs::record(
            "al.run_start",
            &[
                ("run", Value::U64(run_id)),
                ("strategy", Value::Str(strategy.name())),
                ("n_initial", Value::U64(train.len() as u64)),
                ("pool_size", Value::U64(pool.len() as u64)),
                ("test_size", Value::U64(test.len() as u64)),
                ("max_iters", Value::U64(config.max_iters as u64)),
                ("seed", Value::U64(config.seed)),
            ],
        );
    }
    // Batched-prediction caches over the pool and the (fixed) test set.
    // Between hyperparameter refits these maintain K(candidates, train)
    // incrementally — one appended column per iteration — instead of
    // rebuilding it; see `crate::cache` for the invalidation rule.
    let mut pool_cache = PoolPredictionCache::new(x_all.select_rows(&pool));
    let mut test_cache = PoolPredictionCache::new(x_all.select_rows(test));

    let mut warm_theta: Option<Vec<f64>> = None;
    for iter in 0..config.max_iters {
        if pool.is_empty() {
            break;
        }
        // One span per iteration, with fit/predict/select child spans; the
        // record's *_ns fields are the durations those spans recorded, so
        // the trace tree decomposes al.iteration into exactly its stages.
        let _iter_span = alperf_obs::span(names::AL_ITERATION);
        let fit_span = alperf_obs::span("al.iteration.fit");
        let refit_kind = refit_step(
            config,
            x_all,
            y_all,
            &train,
            iter,
            &mut model,
            &mut warm_theta,
        )?;
        let optimize_now = matches!(refit_kind, "full" | "warm");
        let fit_ns = fit_span.finish();
        let m = model.as_ref().expect("model fitted above");
        if optimize_now {
            // Hyperparameters may have moved: the cached cross-covariances
            // are stale. (The caches also self-check, but dropping them
            // here keeps the intent explicit.)
            pool_cache.invalidate();
            test_cache.invalidate();
        }
        // Batched predictions over the pool and the test set: one blocked
        // cross-covariance + multi-RHS solve each instead of a per-point
        // loop of O(n^2) scalar solves.
        let cache_warm = obs_on && pool_cache.is_warm_for(m);
        let predict_span = alperf_obs::span("al.iteration.predict");
        let predictions = pool_cache.predictions(m)?;
        let rmse = if test.is_empty() {
            0.0
        } else {
            let se: f64 = test_cache
                .predictions(m)?
                .iter()
                .zip(test)
                .map(|(p, &i)| {
                    let d = p.mean - y_all[i];
                    d * d
                })
                .sum();
            (se / test.len() as f64).sqrt()
        };
        let predict_ns = predict_span.finish();
        let select_span = alperf_obs::span("al.iteration.select");
        // AMSD folded directly — no per-iteration Vec of SDs.
        let amsd = predictions.iter().map(|p| p.std).sum::<f64>() / predictions.len() as f64;
        // Strategy picks.
        let ctx = SelectionContext {
            model: m,
            x_all,
            y_all,
            train: &train,
            pool: &pool,
            predictions: &predictions,
        };
        let Some(pos) = strategy.select(&ctx, &mut rng) else {
            break;
        };
        let select_ns = select_span.finish();
        let row = pool[pos];
        // "Run" the experiment through the oracle. Either way its cost is
        // charged — the paper counts failed experiments against the budget.
        let outcome = oracle.run_experiment(row);
        cumulative_cost += cost[row];
        if let ExperimentOutcome::Lost { attempts } = outcome {
            // Graceful degradation: flag the loss, drop the candidate from
            // the pool (its measurement cannot be obtained), and re-select
            // from the survivors next iteration. The model, training set,
            // and cache->train mapping are untouched.
            if obs_on {
                alperf_obs::inc(names::AL_DEGRADED_ITERATION);
                alperf_obs::record(
                    names::AL_DEGRADED_ITERATION,
                    &[
                        ("run", Value::U64(run_id)),
                        ("iter", Value::U64(iter as u64)),
                        ("row", Value::U64(row as u64)),
                        ("attempts", Value::U64(attempts as u64)),
                        ("pool_size", Value::U64(pool.len() as u64)),
                        ("cum_cost", Value::F64(cumulative_cost)),
                    ],
                );
            }
            lost.push(LostExperiment {
                iter,
                row,
                attempts,
                cost: cost[row],
            });
            pool.swap_remove(pos);
            pool_cache.swap_remove(pos);
            continue;
        }
        let attempts = outcome.attempts();
        if obs_on {
            alperf_obs::record(
                names::AL_ITERATION,
                &[
                    ("run", Value::U64(run_id)),
                    ("iter", Value::U64(iter as u64)),
                    ("chosen_row", Value::U64(row as u64)),
                    ("pool_size", Value::U64(pool.len() as u64)),
                    ("refit", Value::Str(refit_kind)),
                    ("rank", Value::U64(m.n_train() as u64)),
                    ("fit_ns", Value::U64(fit_ns)),
                    ("predict_ns", Value::U64(predict_ns)),
                    ("select_ns", Value::U64(select_ns)),
                    ("cache_warm", Value::Bool(cache_warm)),
                    ("sigma", Value::F64(predictions[pos].std)),
                    ("amsd", Value::F64(amsd)),
                    ("rmse", Value::F64(rmse)),
                    ("cum_cost", Value::F64(cumulative_cost)),
                    ("lml", Value::F64(m.lml())),
                    ("noise", Value::F64(m.noise_std())),
                    ("attempts", Value::U64(attempts as u64)),
                ],
            );
            alperf_obs::inc("al.iterations");
        }
        history.push(IterationRecord {
            iter,
            chosen_row: row,
            x: x_all.row(row).to_vec(),
            y: y_all[row],
            sigma_at_chosen: predictions[pos].std,
            amsd,
            rmse,
            cumulative_cost,
            lml: m.lml(),
            noise_std: m.noise_std(),
        });
        // "Run" the experiment: the row's measurement joins the training set.
        pool.swap_remove(pos);
        train.push(row);
        // Mirror the pool change in the caches and extend K(., train) by
        // the new point's column while the kernel is still the one the
        // caches were built under.
        pool_cache.swap_remove(pos);
        pool_cache.extend_train(x_all.row(row), m);
        test_cache.extend_train(x_all.row(row), m);
        // Force a refit next iteration if refit_every == 1.
        if config.refit_every <= 1 {
            model = None;
        }
    }
    Ok(AlRun {
        strategy: strategy.name(),
        history,
        final_train: train,
        lost,
    })
}

/// One surrogate refit under the runner's scheduling policy: a full
/// multi-restart hyperparameter search, a warm-started single ascent, a
/// rank-one Cholesky extension, or a fixed-hyperparameter refit. Returns
/// the refit kind (`"full"`, `"warm"`, `"rank1"`, `"refit"`); the caller
/// invalidates prediction caches iff the kind re-optimized hyperparameters
/// (`"full"`/`"warm"`).
fn refit_step(
    config: &AlConfig,
    x_all: &Matrix,
    y_all: &[f64],
    train: &[usize],
    iter: usize,
    model: &mut Option<Gpr>,
    warm_theta: &mut Option<Vec<f64>>,
) -> Result<&'static str, AlError> {
    let xs = x_all.select_rows(train);
    let ys: Vec<f64> = train.iter().map(|&i| y_all[i]).collect();
    let refit_kind;
    // Re-optimize hyperparameters on schedule; while the training set
    // is small every new point reshapes the LML, so always optimize.
    let optimize_now =
        model.is_none() || train.len() <= 30 || iter.is_multiple_of(config.refit_every.max(1));
    if optimize_now {
        // Full multi-restart search early (small-n fits are cheap and
        // the LML landscape still shifts with every point — a warm
        // start can lock onto a degenerate all-noise optimum), then
        // warm-started single ascents with periodic full refreshes.
        let full_search = !config.warm_start
            || warm_theta.is_none()
            || train.len() < 15
            || iter.is_multiple_of(config.full_refit_every.max(1));
        let cfg = if full_search {
            config.gpr.clone()
        } else {
            // Seed the single ascent from the previous optimum.
            let theta = warm_theta.as_ref().expect("checked above");
            let mut kernel = config.gpr.kernel.clone_box();
            let nk = kernel.n_params();
            kernel.set_params(&theta[..nk]);
            let mut cfg = config.gpr.clone();
            if config.gpr.optimize_noise && theta.len() > nk {
                cfg.noise_init = theta[nk].exp();
            }
            cfg.kernel = kernel;
            cfg.restarts = 1;
            // One added point barely moves the optimum: a short, loose
            // ascent suffices between full refreshes.
            cfg.max_iters = cfg.max_iters.min(60);
            cfg.grad_tol = cfg.grad_tol.max(1e-4);
            cfg
        };
        refit_kind = if full_search { "full" } else { "warm" };
        let (m, outcome) = fit_gpr(&xs, &ys, &cfg)?;
        *warm_theta = Some(outcome.theta);
        *model = Some(m);
    } else {
        // Recondition on the grown training set at the current
        // hyperparameters. The common case (exactly one new point, same
        // prefix) takes the O(n^2) rank-one Cholesky extension; anything
        // unexpected — or a numerically indefinite extension from a
        // duplicated point — falls back to a full O(n^3) refit.
        let prev = model.as_ref().expect("model exists when not optimizing");
        // (Under standardization the full refit re-centers on the grown
        // response set while the incremental path freezes the old
        // scaler — only bit-identical when standardization is off.)
        let incremental = if !config.gpr.standardize && prev.n_train() + 1 == train.len() {
            let new_row = train.last().expect("non-empty train");
            prev.with_observation(x_all.row(*new_row), y_all[*new_row])
                .ok()
        } else {
            None
        };
        *model = Some(match incremental {
            Some(m) => {
                refit_kind = "rank1";
                m
            }
            None => {
                refit_kind = "refit";
                let prev = model.as_ref().expect("model exists");
                Gpr::fit(
                    xs,
                    &ys,
                    prev.kernel().clone_box(),
                    prev.noise_std(),
                    config.gpr.standardize,
                )?
            }
        });
    }
    Ok(refit_kind)
}

/// RMSE of the model on the test rows (Eq. 2), via one batched prediction.
pub fn test_rmse(model: &Gpr, x_all: &Matrix, y_all: &[f64], test: &[usize]) -> f64 {
    if test.is_empty() {
        return 0.0;
    }
    let preds = model
        .predict_batch(&x_all.select_rows(test))
        .expect("dims match");
    let se: f64 = preds
        .iter()
        .zip(test)
        .map(|(p, &i)| {
            let d = p.mean - y_all[i];
            d * d
        })
        .sum();
    (se / test.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{CostEfficiency, RandomSampling, VarianceReduction};
    use alperf_gp::kernel::SquaredExponential;
    use alperf_gp::noise::NoiseFloor;
    use rand::Rng;

    /// Synthetic 1-D noisy dataset: y = sin(x) * 2 + noise; cost grows with x.
    fn dataset(n: usize, seed: u64) -> (Matrix, Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 8.0 / n as f64).collect();
        let y: Vec<f64> = xs
            .iter()
            .map(|v| (v).sin() * 2.0 + rng.gen_range(-0.15..0.15))
            .collect();
        let cost: Vec<f64> = xs.iter().map(|v| 1.0 + v * v).collect();
        (Matrix::from_vec(n, 1, xs).unwrap(), y, cost)
    }

    fn config() -> AlConfig {
        let gpr = GprConfig::new(Box::new(SquaredExponential::unit()))
            .with_noise_floor(NoiseFloor::Fixed(0.05))
            .with_restarts(2)
            .with_seed(7);
        AlConfig {
            max_iters: 25,
            seed: 3,
            ..AlConfig::new(gpr)
        }
    }

    #[test]
    fn al_reduces_rmse_and_amsd() {
        let (x, y, cost) = dataset(60, 1);
        let part = Partition::random(60, 2, 0.8, 5);
        let run = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &config()).unwrap();
        assert_eq!(run.history.len(), 25);
        let first = &run.history[0];
        let last = run.history.last().unwrap();
        assert!(
            last.rmse < 0.6 * first.rmse,
            "rmse {} -> {}",
            first.rmse,
            last.rmse
        );
        // AMSD on tiny training sets can start artificially *low* (the
        // paper's overfitting observation, Fig. 7a), so compare the final
        // value against the early-iteration peak rather than iteration 0.
        let early_peak = run.history[..8]
            .iter()
            .map(|r| r.amsd)
            .fold(0.0f64, f64::max);
        assert!(
            last.amsd < early_peak,
            "amsd final {} !< early peak {early_peak}",
            last.amsd
        );
    }

    #[test]
    fn variance_reduction_explores_edges_first() {
        // Seeding in the middle: the first selections should hit the domain
        // edges (the paper's "star-like pattern", Fig. 6).
        let (x, y, cost) = dataset(50, 2);
        // Build a partition whose initial point is central. The seed is
        // chosen so the property holds with margin for the vendored RNG
        // stream; the "star-like" pattern is typical, not universal.
        let mut part = Partition::random(50, 1, 0.9, 0);
        // Swap the initial to be the middle row.
        let mid = 25usize;
        if part.initial[0] != mid {
            let old_init = part.initial[0];
            if let Some(p) = part.active.iter().position(|&i| i == mid) {
                part.active[p] = old_init;
                part.initial[0] = mid;
            } else if let Some(p) = part.test.iter().position(|&i| i == mid) {
                part.test[p] = old_init;
                part.initial[0] = mid;
            }
        }
        let run = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &config()).unwrap();
        let first_picks: Vec<f64> = run.history.iter().take(2).map(|r| r.x[0]).collect();
        // Both early picks are in the outer thirds of the domain [0, 8].
        for v in &first_picks {
            assert!(
                *v < 8.0 / 3.0 || *v > 16.0 / 3.0,
                "early pick {v} not at an edge; picks: {first_picks:?}"
            );
        }
    }

    #[test]
    fn cost_efficiency_spends_less_for_same_iterations() {
        // Seed chosen so the expected cost ordering holds with margin for
        // the vendored RNG stream; CE beats VR on cost typically, not always.
        let (x, y, cost) = dataset(60, 3);
        let part = Partition::random(60, 1, 0.8, 1);
        let vr = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &config()).unwrap();
        let ce = run_al(&x, &y, &cost, &part, &mut CostEfficiency, &config()).unwrap();
        let vr_cost = vr.history.last().unwrap().cumulative_cost;
        let ce_cost = ce.history.last().unwrap().cumulative_cost;
        assert!(
            ce_cost < vr_cost,
            "cost efficiency {ce_cost} !< variance reduction {vr_cost}"
        );
    }

    #[test]
    fn pool_rows_never_repeat_but_settings_can() {
        let (x, y, cost) = dataset(40, 4);
        let part = Partition::random(40, 1, 0.9, 2);
        let run = run_al(&x, &y, &cost, &part, &mut RandomSampling, &config()).unwrap();
        let rows: Vec<usize> = run.history.iter().map(|r| r.chosen_row).collect();
        let distinct: std::collections::BTreeSet<_> = rows.iter().collect();
        assert_eq!(rows.len(), distinct.len(), "a pool row was selected twice");
    }

    #[test]
    fn history_is_reproducible() {
        let (x, y, cost) = dataset(40, 5);
        let part = Partition::random(40, 1, 0.8, 3);
        let a = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &config()).unwrap();
        let b = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &config()).unwrap();
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn cumulative_cost_is_monotone_and_correct() {
        let (x, y, cost) = dataset(30, 6);
        let part = Partition::random(30, 1, 0.8, 1);
        let run = run_al(&x, &y, &cost, &part, &mut RandomSampling, &config()).unwrap();
        let mut expected: f64 = part.initial.iter().map(|&i| cost[i]).sum();
        for r in &run.history {
            expected += cost[r.chosen_row];
            assert!((r.cumulative_cost - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn stops_when_pool_exhausted() {
        let (x, y, cost) = dataset(12, 7);
        let part = Partition::random(12, 1, 0.5, 0); // small pool
        let mut cfg = config();
        cfg.max_iters = 100;
        let run = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &cfg).unwrap();
        assert_eq!(run.history.len(), part.active.len());
        // `max_iters` stops a run before the pool is exhausted.
        cfg.max_iters = 3;
        let run = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &cfg).unwrap();
        assert_eq!(run.history.len(), 3);
        assert_eq!(run.final_train.len(), part.initial.len() + 3);
        cfg.max_iters = 0;
        let run = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &cfg).unwrap();
        assert!(run.history.is_empty());
        assert_eq!(run.final_train, part.initial);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let (x, y, cost) = dataset(10, 8);
        let bad_part = Partition {
            initial: vec![0],
            active: vec![1],
            test: vec![2],
        }; // does not cover all rows
        assert!(matches!(
            run_al(&x, &y, &cost, &bad_part, &mut VarianceReduction, &config()),
            Err(AlError::BadPartition(_))
        ));
        let part = Partition::random(10, 1, 0.8, 0);
        assert!(run_al(&x, &y[..5], &cost, &part, &mut VarianceReduction, &config()).is_err());
    }

    #[test]
    fn refit_every_affects_workload_not_correctness() {
        let (x, y, cost) = dataset(40, 9);
        let part = Partition::random(40, 1, 0.8, 4);
        let mut cfg = config();
        cfg.refit_every = 5;
        let run = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &cfg).unwrap();
        assert_eq!(run.history.len(), 25);
        // Still learns.
        assert!(run.history.last().unwrap().rmse < run.history[0].rmse);
    }

    #[test]
    fn single_initial_point_works() {
        // The paper's realistic scenario: a single initial experiment.
        let (x, y, cost) = dataset(30, 10);
        let part = Partition::paper_default(30, 1);
        assert_eq!(part.initial.len(), 1);
        let run = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &config()).unwrap();
        assert!(!run.history.is_empty());
        assert!(run.history.iter().all(|r| r.rmse.is_finite()));
    }
}
