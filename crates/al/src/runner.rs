//! The Active-Learning driver loop (the paper's "prototype", Section IV).
//!
//! One *run* replays AL over a dataset partition:
//!
//! 1. train a GPR on the Initial rows (hyperparameters optimized with the
//!    configured noise floor — the knob behind Fig. 7);
//! 2. each round: refit, predict over the Active pool, let the strategy
//!    pick a candidate, "run the experiment" (reveal that row's measured
//!    response) and move the row into the training set. A round holds
//!    [`AlConfig::batch`] experiments (1, the paper's loop, by default):
//!    after each pick the model is conditioned on a *fantasy* observation
//!    of that pick (its own predicted mean, at frozen hyperparameters),
//!    which shrinks the nearby variances as a real measurement would, and
//!    the strategy picks again; the picks then run in ascending row order
//!    (the §VI parallel-experiments extension);
//! 3. per experiment, record the paper's monitoring quantities
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
use alperf_gp::optimize::{fit_gpr, projected_grad_norm, GprConfig};
use alperf_linalg::matrix::Matrix;
use alperf_obs::names;
use alperf_obs::Value;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;

/// Configuration of one AL run.
pub struct AlConfig {
    /// GPR fitting configuration (kernel template, noise floor, restarts).
    pub gpr: GprConfig,
    /// Maximum AL iterations (pool exhaustion stops earlier).
    pub max_iters: usize,
    /// How often the refit trigger tests the hyperparameters once the
    /// training set has more than 30 rows: every `refit_every`-th
    /// iteration (1 = every iteration, the default). Up to 30 rows every
    /// iteration re-optimizes, as the paper does; above, the model is
    /// extended at fixed hyperparameters and a tested iteration
    /// re-optimizes only when the LML gradient says they are stale
    /// (see [`STALE_PG`]).
    pub refit_every: usize,
    /// Experiments picked per round (1, the default, is the paper's
    /// one-at-a-time loop). Above 1 each round fills its slots with the
    /// strategy's own selection under greedy fantasy updates at frozen
    /// hyperparameters — the parallel-experiments extension of §VI; 0 is
    /// rejected ([`AlError::ZeroBatch`]). A round refits once and runs any
    /// re-optimization one of its iterations is due: the full search of
    /// every tenth iteration, the test of every `refit_every`-th.
    pub batch: usize,
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
            batch: 1,
            seed: 0,
        }
    }
}

/// Everything recorded about one AL iteration (one experiment). The
/// experiments of one round share its model, AMSD and RMSE.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// Iteration number (0-based): the experiment's index in the run,
    /// lost experiments included.
    pub iter: usize,
    /// Dataset row chosen this iteration.
    pub chosen_row: usize,
    /// Input point of the chosen row.
    pub x: Vec<f64>,
    /// Response revealed by the "experiment".
    pub y: f64,
    /// Predictive SD at the chosen candidate *before* adding it, as the
    /// strategy saw it (under the round's fantasy observations after its
    /// first pick) — the paper's `sigma_f(x)` trace.
    pub sigma_at_chosen: f64,
    /// Arithmetic Mean of the Standard Deviation over the round's pool.
    pub amsd: f64,
    /// RMSE on the Test set (Eq. 2).
    pub rmse: f64,
    /// Cumulative experiment cost after running this experiment.
    pub cumulative_cost: f64,
    /// Log marginal likelihood of the fit used this round.
    pub lml: f64,
    /// Fitted noise level `sigma_n` this round.
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
    /// [`AlConfig::batch`] is 0: a round must pick at least one experiment.
    ZeroBatch,
}

impl std::fmt::Display for AlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlError::Gp(e) => write!(f, "GPR failure in AL loop: {e}"),
            AlError::BadPartition(s) => write!(f, "bad partition: {s}"),
            AlError::ZeroBatch => write!(f, "batch size 0: a round picks at least one experiment"),
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
/// the trace (an `al.degraded_iteration` record), and removed from the
/// pool — the next round re-selects from the survivors instead of
/// aborting. Lost experiments are reported in [`AlRun::lost`];
/// the metric history only contains iterations that produced a
/// measurement.
///
/// Each pass of the loop is one round of up to [`AlConfig::batch`]
/// experiments (clamped at the pool and at `max_iters`), filled with the
/// strategy's own picks under fantasy updates (see `select_round`).
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
    if config.batch == 0 {
        return Err(AlError::ZeroBatch);
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
    // incrementally — one appended column per measured experiment —
    // instead of rebuilding it; see `crate::cache` for the invalidation
    // rule.
    let mut pool_cache = PoolPredictionCache::new(x_all.select_rows(&pool));
    let mut test_cache = PoolPredictionCache::new(x_all.select_rows(test));

    let mut warm_theta: Option<Vec<f64>> = None;
    // Experiments run so far, lost ones included: the next one's iteration.
    let mut iter = 0;
    while iter < config.max_iters && !pool.is_empty() {
        // One span per round, with fit/predict/select child spans; the
        // round's first record carries the durations those spans recorded,
        // so the trace tree decomposes al.iteration into exactly its stages.
        let _iter_span = alperf_obs::span(names::AL_ITERATION);
        // The round's experiments take iterations `iter..iter + slots`.
        let slots = config.batch.min(config.max_iters - iter).min(pool.len());
        let fit_span = alperf_obs::span("al.iteration.fit");
        let refit = refit_step(
            config,
            x_all,
            y_all,
            &train,
            iter..iter + slots,
            &mut model,
            &mut warm_theta,
        )?;
        let fit_ns = fit_span.finish();
        let m = model.as_ref().expect("model fitted above");
        if matches!(refit.kind, "full" | "warm") {
            // Hyperparameters may have moved: the cached cross-covariances
            // are stale. (The caches also self-check, but dropping them
            // here keeps the intent explicit.)
            pool_cache.invalidate();
            test_cache.invalidate();
        }
        // Batched predictions over the pool: one blocked cross-covariance
        // + multi-RHS solve instead of a per-point loop of O(n^2) scalar
        // solves. The test set's RMSE reads only the means, so it skips
        // the solve.
        let cache_warm = obs_on && pool_cache.is_warm_for(m);
        let predict_span = alperf_obs::span("al.iteration.predict");
        let predictions = pool_cache.predictions(m)?;
        let rmse = if test.is_empty() {
            0.0
        } else {
            rmse_of(&test_cache.means(m)?, y_all, test)
        };
        let predict_ns = predict_span.finish();
        let select_span = alperf_obs::span("al.iteration.select");
        // AMSD folded directly — no per-iteration Vec of SDs.
        let amsd = predictions.iter().map(|p| p.std).sum::<f64>() / predictions.len() as f64;
        let ctx = SelectionContext {
            model: m,
            x_all,
            y_all,
            train: &train,
            pool: &pool,
            predictions: &predictions,
        };
        let mut picks = select_round(&ctx, strategy, &mut rng, slots, config.gpr.standardize)?;
        if picks.is_empty() {
            break;
        }
        let select_ns = select_span.finish();
        // Row order within a round is not a choice: the experiments run in
        // ascending row order.
        picks.sort_unstable_by_key(|&(pos, _)| pool[pos]);
        let mut stage_ns = [fit_ns, predict_ns, select_ns];
        let measured_from = train.len();
        for &(pos, sigma) in &picks {
            let row = pool[pos];
            // "Run" the experiment through the oracle. Either way its cost
            // is charged — the paper counts failed experiments against the
            // budget.
            let outcome = oracle.run_experiment(row);
            cumulative_cost += cost[row];
            if let ExperimentOutcome::Lost { attempts } = outcome {
                // Graceful degradation: flag the loss and drop the
                // candidate from the pool (its measurement cannot be
                // obtained) below; the survivors are re-selected from next
                // round. The model and the training set are untouched.
                if obs_on {
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
                iter += 1;
                continue;
            }
            let attempts = outcome.attempts();
            if obs_on {
                let [fit_ns, predict_ns, select_ns] = std::mem::take(&mut stage_ns);
                let mut fields = vec![
                    ("run", Value::U64(run_id)),
                    ("iter", Value::U64(iter as u64)),
                    ("chosen_row", Value::U64(row as u64)),
                    ("pool_size", Value::U64(pool.len() as u64)),
                    ("refit", Value::Str(refit.kind)),
                    ("rank", Value::U64(m.n_train() as u64)),
                    ("fit_ns", Value::U64(fit_ns)),
                    ("predict_ns", Value::U64(predict_ns)),
                    ("select_ns", Value::U64(select_ns)),
                    ("cache_warm", Value::Bool(cache_warm)),
                    ("sigma", Value::F64(sigma)),
                    ("amsd", Value::F64(amsd)),
                    ("rmse", Value::F64(rmse)),
                    ("cum_cost", Value::F64(cumulative_cost)),
                    ("lml", Value::F64(m.lml())),
                    ("noise", Value::F64(m.noise_std())),
                    ("attempts", Value::U64(attempts as u64)),
                ];
                if let Some(pg) = refit.stale_pg {
                    fields.push(("stale_pg", Value::F64(pg)));
                }
                alperf_obs::record(names::AL_ITERATION, &fields);
            }
            history.push(IterationRecord {
                iter,
                chosen_row: row,
                x: x_all.row(row).to_vec(),
                y: y_all[row],
                sigma_at_chosen: sigma,
                amsd,
                rmse,
                cumulative_cost,
                lml: m.lml(),
                noise_std: m.noise_std(),
            });
            // The row's measurement joins the training set.
            train.push(row);
            iter += 1;
        }
        // Drop the picks from the pool and mirror that in the cache
        // (descending positions stay valid under `swap_remove`), then
        // extend K(., train) by the measured rows' columns while the kernel
        // is still the one the caches were built under.
        picks.sort_unstable_by_key(|&(pos, _)| std::cmp::Reverse(pos));
        for &(pos, _) in &picks {
            pool.swap_remove(pos);
            pool_cache.swap_remove(pos);
        }
        for &row in &train[measured_from..] {
            pool_cache.extend_train(x_all.row(row), m);
            test_cache.extend_train(x_all.row(row), m);
        }
    }
    Ok(AlRun {
        strategy: strategy.name(),
        history,
        final_train: train,
        lost,
    })
}

/// One round's picks, `(pool position, predictive SD the strategy saw)`:
/// up to `slots` distinct candidates. The first is the strategy's
/// `select` on the round's model and predictions. Each later one is its
/// `select` over the still-open candidates after the model has been
/// conditioned on a *fantasy* observation at the previous pick: that
/// pick's own predicted mean, at frozen hyperparameters (a rank-one
/// extension, or a fixed-hyperparameter refit where the extension fails;
/// re-optimizing on invented data would be circular). A fantasy leaves the
/// mean field unchanged and shrinks the variances near the pick exactly
/// as a real measurement would, so the picks spread out instead of
/// clustering. `ctx.train` stays the measured rows.
fn select_round(
    ctx: &SelectionContext<'_>,
    strategy: &mut dyn Strategy,
    rng: &mut StdRng,
    slots: usize,
    standardize: bool,
) -> Result<Vec<(usize, f64)>, AlError> {
    let Some(first) = strategy.select(ctx, rng) else {
        return Ok(Vec::new());
    };
    let mut picks = vec![(first, ctx.predictions[first].std)];
    if slots == 1 {
        // The paper's loop builds no fantasy state, nothing pool-sized.
        return Ok(picks);
    }
    let (mut pos, mut mean) = (first, ctx.predictions[first].mean);
    // Pool positions still open, in pool order, and the fantasy training
    // set a fixed-hyperparameter refit would start from.
    let mut open: Vec<usize> = (0..ctx.pool.len()).collect();
    let mut rows = ctx.train.to_vec();
    let mut ys: Vec<f64> = rows.iter().map(|&i| ctx.y_all[i]).collect();
    let mut fantasy: Option<Gpr> = None;
    while picks.len() < slots {
        open.retain(|&p| p != pos);
        if open.is_empty() {
            break;
        }
        let row = ctx.pool[pos];
        rows.push(row);
        ys.push(mean);
        let current = fantasy.as_ref().unwrap_or(ctx.model);
        let next = match current.with_observation(ctx.x_all.row(row), mean) {
            Ok(m) => m,
            Err(_) => Gpr::fit(
                ctx.x_all.select_rows(&rows),
                &ys,
                current.kernel().clone_box(),
                current.noise_std(),
                standardize,
            )?,
        };
        let open_rows: Vec<usize> = open.iter().map(|&p| ctx.pool[p]).collect();
        let predictions = next.predict_batch(&ctx.x_all.select_rows(&open_rows))?;
        let open_ctx = SelectionContext {
            model: &next,
            pool: &open_rows,
            predictions: &predictions,
            ..*ctx
        };
        let Some(k) = strategy.select(&open_ctx, rng) else {
            break;
        };
        (pos, mean) = (open[k], predictions[k].mean);
        picks.push((pos, predictions[k].std));
        fantasy = Some(next);
    }
    Ok(picks)
}

/// Training-set size up to which every iteration re-optimizes the
/// hyperparameters: while the set is small every new point reshapes the
/// LML.
const SEARCH_MAX_N: usize = 30;

/// Staleness threshold of the refit trigger: above [`SEARCH_MAX_N`] rows
/// the loop re-optimizes only when the infinity norm of the projected LML
/// gradient at the current hyperparameters, on the grown training set
/// ([`projected_grad_norm`]), exceeds this. A fit ends with that norm below
/// its `grad_tol` (1e-4 for a warm ascent), so the statistic measures what
/// the added points did to the optimum, in LML units per unit of log
/// hyperparameter. On the Fig. 7 slice its median is 0.18 under the 1e-1
/// noise floor (0.98 under 1e-8), and points from a function with an
/// eighth of the length scale push it up to 190. Against re-optimizing on
/// the old schedule, 0.5 kept every paired study arm's median test RMSE
/// within 0.3%; 1.0 and 2.0 let Cost Efficiency's slip 0.9% and 2.4%
/// (DESIGN §4c).
pub const STALE_PG: f64 = 0.5;

/// How one iteration's model was made, and the staleness statistic when
/// the trigger's test ran.
struct Refit {
    /// `"full"`, `"warm"`, `"rank1"` or `"refit"`.
    kind: &'static str,
    /// [`projected_grad_norm`] at the kept hyperparameters on the grown
    /// training set, when the test ran and the gradient was finite.
    stale_pg: Option<f64>,
}

/// One surrogate refit under the runner's policy. Returns the refit kind:
///
/// * up to [`SEARCH_MAX_N`] training rows (and with no model yet), the
///   hyperparameters are re-optimized every round: a full multi-restart
///   search below 15 rows and on every round that holds a tenth iteration
///   (`"full"`), a single ascent warm-started from the previous optimum
///   otherwise (`"warm"`);
/// * above it the model is extended at fixed hyperparameters (`"rank1"`,
///   or `"refit"` where the rank-one path does not apply). On every round
///   that holds a `refit_every`-th iteration the trigger tests the
///   extension: when the projected LML gradient at the kept
///   hyperparameters exceeds [`STALE_PG`] (or cannot be formed), one warm
///   ascent from them replaces it (`"warm"`).
///
/// `iters` are the round's iteration indices, so a round of several
/// experiments keeps both cadences; at batch 1 it is the one iteration.
/// The caller invalidates its prediction caches iff the kind re-optimized
/// (`"full"`/`"warm"`).
fn refit_step(
    config: &AlConfig,
    x_all: &Matrix,
    y_all: &[f64],
    train: &[usize],
    iters: Range<usize>,
    model: &mut Option<Gpr>,
    warm_theta: &mut Option<Vec<f64>>,
) -> Result<Refit, AlError> {
    let holds_multiple = |k: usize| iters.clone().any(|i| i.is_multiple_of(k));
    let xs = x_all.select_rows(train);
    let ys: Vec<f64> = train.iter().map(|&i| y_all[i]).collect();
    let mut stale_pg = None;
    if let Some(prev) = model.as_ref().filter(|_| train.len() > SEARCH_MAX_N) {
        let (grown, kind) = extend(config, x_all, y_all, train, prev, &xs, &ys)?;
        if !holds_multiple(config.refit_every.max(1)) {
            *model = Some(grown);
            return Ok(Refit { kind, stale_pg });
        }
        stale_pg = projected_grad_norm(&grown, &config.gpr).ok();
        if stale_pg.is_some_and(|pg| pg <= STALE_PG) {
            *model = Some(grown);
            return Ok(Refit { kind, stale_pg });
        }
    }
    // Full multi-restart search early (small-n fits are cheap and the LML
    // landscape still shifts with every point — a warm start can lock onto
    // a degenerate all-noise optimum), then single ascents warm-started
    // from the previous optimum, with a full refresh every
    // `FULL_REFIT_EVERY` iterations while n <= SEARCH_MAX_N.
    const FULL_REFIT_EVERY: usize = 10;
    let full_search = warm_theta.is_none()
        || train.len() < 15
        || (train.len() <= SEARCH_MAX_N && holds_multiple(FULL_REFIT_EVERY));
    let cfg = match warm_theta.as_ref().filter(|_| !full_search) {
        None => config.gpr.clone(),
        Some(theta) => {
            // Seed the single ascent from the previous optimum.
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
            // ascent suffices.
            cfg.max_iters = cfg.max_iters.min(60);
            cfg.grad_tol = cfg.grad_tol.max(1e-4);
            cfg
        }
    };
    let (m, outcome) = fit_gpr(&xs, &ys, &cfg)?;
    *warm_theta = Some(outcome.theta);
    *model = Some(m);
    let kind = if full_search { "full" } else { "warm" };
    Ok(Refit { kind, stale_pg })
}

/// `prev` reconditioned on the grown training set at its hyperparameters.
/// The common case (exactly one new point, same prefix) takes the `O(n^2)`
/// rank-one Cholesky extension (`"rank1"`); anything else — standardization
/// on (the incremental path freezes the old scaler, the refit re-centers on
/// the grown responses), an unchanged training set after a lost
/// experiment, several new points after a batch round, or a numerically
/// indefinite extension from a duplicated point — a full `O(n^3)`
/// fixed-hyperparameter refit (`"refit"`).
fn extend(
    config: &AlConfig,
    x_all: &Matrix,
    y_all: &[f64],
    train: &[usize],
    prev: &Gpr,
    xs: &Matrix,
    ys: &[f64],
) -> Result<(Gpr, &'static str), AlError> {
    let incremental = if !config.gpr.standardize && prev.n_train() + 1 == train.len() {
        let new_row = *train.last().expect("non-empty train");
        prev.with_observation(x_all.row(new_row), y_all[new_row])
            .ok()
    } else {
        None
    };
    Ok(match incremental {
        Some(m) => (m, "rank1"),
        None => (
            Gpr::fit(
                xs.clone(),
                ys,
                prev.kernel().clone_box(),
                prev.noise_std(),
                config.gpr.standardize,
            )?,
            "refit",
        ),
    })
}

/// RMSE of the model on the test rows (Eq. 2), from one batch of
/// posterior means.
pub fn test_rmse(model: &Gpr, x_all: &Matrix, y_all: &[f64], test: &[usize]) -> f64 {
    let means = model
        .predict_mean_batch(&x_all.select_rows(test))
        .expect("dims match");
    rmse_of(&means, y_all, test)
}

/// Eq. 2 from the predicted means at the `test` rows, in order (0 for an
/// empty test set).
fn rmse_of(means: &[f64], y_all: &[f64], test: &[usize]) -> f64 {
    if test.is_empty() {
        return 0.0;
    }
    let se: f64 = means
        .iter()
        .zip(test)
        .map(|(mu, &i)| {
            let d = mu - y_all[i];
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

    /// Refit kinds and staleness statistics of 20 iterations past
    /// [`SEARCH_MAX_N`]: 30 rows of a smooth function train the first
    /// model, then each iteration adds one row of `tail`, in between the
    /// first ones.
    fn kinds_after_30(tail: impl Fn(f64) -> f64, refit_every: usize) -> Vec<Refit> {
        let head: Vec<f64> = (0..30).map(|i| i as f64 * 8.0 / 30.0).collect();
        let rest: Vec<f64> = (0..20).map(|i| 0.13 + i as f64 * 0.39).collect();
        let y: Vec<f64> = head
            .iter()
            .map(|v| (0.5 * v).sin() * 2.0)
            .chain(rest.iter().map(|&v| tail(v)))
            .collect();
        let x = Matrix::from_vec(50, 1, head.into_iter().chain(rest).collect()).unwrap();
        let mut cfg = config();
        cfg.gpr = cfg.gpr.with_standardize(false);
        cfg.refit_every = refit_every;
        let (mut model, mut theta) = (None, None);
        let mut train: Vec<usize> = (0..30).collect();
        let first = refit_step(&cfg, &x, &y, &train, 0..1, &mut model, &mut theta).unwrap();
        assert_eq!(first.kind, "full");
        (30..50)
            .map(|row| {
                train.push(row);
                let iter = row - 29;
                refit_step(&cfg, &x, &y, &train, iter..iter + 1, &mut model, &mut theta).unwrap()
            })
            .collect()
    }

    /// Above 30 rows the loop extends at fixed hyperparameters while new
    /// points follow the function they were fitted on, and the trigger
    /// fires (a warm re-optimization) once the points come from a function
    /// with an eighth of its length scale.
    #[test]
    fn trigger_reoptimizes_when_new_points_change_the_length_scale() {
        let warm = |refits: &[Refit]| refits.iter().filter(|r| r.kind == "warm").count();
        // The same function: the statistic creeps up as the points fill
        // in, and fires at most once in 20 iterations.
        let same = kinds_after_30(|v| (0.5 * v).sin() * 2.0, 1);
        assert!(warm(&same) <= 1, "{:?}", kinds(&same));
        let wiggly = kinds_after_30(|v| (4.0 * v).sin() * 2.0, 1);
        assert!(warm(&wiggly) >= 10, "{:?}", kinds(&wiggly));
        for r in same.iter().chain(&wiggly) {
            let pg = r.stale_pg.expect("tested every iteration");
            assert_eq!(r.kind == "warm", pg > STALE_PG, "{pg}");
            assert!(matches!(r.kind, "warm" | "rank1"), "{}", r.kind);
        }
        // Every fourth iteration is tested; the rest extend untested.
        let sparse = kinds_after_30(|v| (4.0 * v).sin() * 2.0, 4);
        for (k, r) in sparse.iter().enumerate() {
            let iter = k + 1;
            assert_eq!(r.stale_pg.is_some(), iter % 4 == 0, "iteration {iter}");
            if iter % 4 != 0 {
                assert_eq!(r.kind, "rank1", "iteration {iter}");
            }
        }
        assert!(sparse.iter().any(|r| r.kind == "warm"));
    }

    fn kinds(refits: &[Refit]) -> Vec<&'static str> {
        refits.iter().map(|r| r.kind).collect()
    }

    /// A round runs the full search, and the trigger's test, when any of
    /// its iterations is due one, so batch sizes that do not divide 10 or
    /// `refit_every` keep both cadences.
    #[test]
    fn round_refits_when_any_of_its_iterations_is_due() {
        let (x, y, _) = dataset(40, 14);
        let mut cfg = config();
        cfg.refit_every = 4;
        let (mut model, mut theta) = (None, None);
        let mut refit = |rows: usize, iters: Range<usize>| {
            let train: Vec<usize> = (0..rows).collect();
            refit_step(&cfg, &x, &y, &train, iters, &mut model, &mut theta).unwrap()
        };
        assert_eq!(refit(20, 0..1).kind, "full");
        assert_eq!(refit(20, 11..14).kind, "warm");
        assert_eq!(refit(20, 8..11).kind, "full");
        assert_eq!(refit(20, 27..30).kind, "warm");
        assert_eq!(refit(20, 28..31).kind, "full");
        assert!(refit(35, 5..8).stale_pg.is_none());
        assert!(refit(35, 6..9).stale_pg.is_some());
    }

    /// The 1-D batch fixture: 21 points on [0, 10], one training point at
    /// the center, every other row in the pool, no test set.
    fn center_seeded() -> (Matrix, Vec<f64>, Vec<f64>, Partition) {
        let n = 21;
        let x = Matrix::from_fn(n, 1, |i, _| i as f64 * 0.5);
        let y: Vec<f64> = (0..n).map(|i| (0.3 * i as f64).sin()).collect();
        let part = Partition {
            initial: vec![10],
            active: (0..n).filter(|&i| i != 10).collect(),
            test: Vec::new(),
        };
        (x, y, vec![1.0; n], part)
    }

    fn batch_config(batch: usize, max_iters: usize) -> AlConfig {
        let mut cfg = config();
        cfg.gpr = cfg.gpr.with_standardize(false);
        AlConfig {
            batch,
            max_iters,
            ..cfg
        }
    }

    /// Rounds of 4 pick distinct pool rows for every strategy, run them in
    /// ascending row order under one model, and give each experiment its
    /// own iteration index.
    #[test]
    fn batch_rounds_pick_distinct_pool_rows() {
        let (x, y, cost) = dataset(40, 11);
        let part = Partition::random(40, 2, 0.8, 6);
        let strategies: [&mut dyn Strategy; 3] = [
            &mut VarianceReduction,
            &mut CostEfficiency,
            &mut RandomSampling,
        ];
        for strategy in strategies {
            let cfg = AlConfig {
                batch: 4,
                ..config()
            };
            let run = run_al(&x, &y, &cost, &part, strategy, &cfg).unwrap();
            assert_eq!(run.history.len(), 25);
            let rows: std::collections::BTreeSet<usize> =
                run.history.iter().map(|r| r.chosen_row).collect();
            assert_eq!(rows.len(), 25, "a pool row was picked twice");
            assert!(rows.iter().all(|r| part.active.contains(r)));
            for (k, r) in run.history.iter().enumerate() {
                assert_eq!(r.iter, k);
            }
            for round in run.history.chunks(4) {
                for w in round.windows(2) {
                    assert!(w[0].chosen_row < w[1].chosen_row);
                    assert_eq!((w[0].lml, w[0].amsd), (w[1].lml, w[1].amsd));
                }
            }
        }
    }

    /// Fantasy updates spread a Variance Reduction batch at least as far
    /// as the naive top-q of the round's own model, which clusters at the
    /// edges, and cover both sides of the training point.
    #[test]
    fn fantasy_batch_spreads_at_least_as_far_as_naive_top_q() {
        let (x, y, cost, part) = center_seeded();
        let cfg = batch_config(3, 3);
        let run = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &cfg).unwrap();
        let fantasy: Vec<f64> = run.history.iter().map(|r| r.x[0]).collect();
        assert_eq!(fantasy.len(), 3);
        // The runner's first round fits exactly this model.
        let (model, _) = fit_gpr(&x.select_rows(&part.initial), &[y[10]], &cfg.gpr).unwrap();
        let preds = model.predict_batch(&x.select_rows(&part.active)).unwrap();
        let mut order: Vec<usize> = (0..preds.len()).collect();
        order.sort_by(|&a, &b| preds[b].std.total_cmp(&preds[a].std));
        let naive: Vec<f64> = order[..3]
            .iter()
            .map(|&p| x.row(part.active[p])[0])
            .collect();
        let min_gap = |v: &[f64]| {
            let mut s = v.to_vec();
            s.sort_by(f64::total_cmp);
            s.windows(2)
                .map(|w| w[1] - w[0])
                .fold(f64::INFINITY, f64::min)
        };
        assert!(
            min_gap(&fantasy) >= min_gap(&naive),
            "fantasy batch {fantasy:?} not more spread than naive {naive:?}"
        );
        assert!(fantasy.iter().any(|&v| v < 5.0) && fantasy.iter().any(|&v| v > 5.0));
    }

    /// Rounds of 4 keep the one-at-a-time loop's accuracy within 3x
    /// (+0.05) at an equal experiment count.
    #[test]
    fn batch_rounds_keep_accuracy_near_sequential() {
        let (x, y, cost) = dataset(60, 13);
        let part = Partition::random(60, 2, 0.8, 8);
        let rmse_after_16 = |batch| {
            // The 17th experiment is recorded with the RMSE after 16.
            let cfg = AlConfig {
                batch,
                max_iters: 17,
                ..config()
            };
            let run = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &cfg).unwrap();
            run.history[16].rmse
        };
        let (sequential, batched) = (rmse_after_16(1), rmse_after_16(4));
        assert!(
            batched < 3.0 * sequential + 0.05,
            "batch 4 RMSE {batched} vs batch 1 {sequential}"
        );
    }

    #[test]
    fn batch_rounds_clamp_at_max_iters_and_pool_exhaustion() {
        let (x, y, cost, part) = center_seeded();
        // max_iters 10 at batch 4: rounds of 4, 4 and 2.
        let run = run_al(
            &x,
            &y,
            &cost,
            &part,
            &mut VarianceReduction,
            &batch_config(4, 10),
        )
        .unwrap();
        assert_eq!(run.history.len(), 10);
        assert_eq!(run.history[8].amsd, run.history[9].amsd);
        assert_ne!(run.history[7].amsd, run.history[8].amsd);
        // A pool of 20 at batch 6: rounds of 6, 6, 6 and 2.
        let run = run_al(
            &x,
            &y,
            &cost,
            &part,
            &mut VarianceReduction,
            &batch_config(6, 100),
        )
        .unwrap();
        assert_eq!(run.history.len(), 20);
        assert_eq!(run.final_train.len(), 21);
        assert_eq!(run.history[18].amsd, run.history[19].amsd);
        assert_ne!(run.history[17].amsd, run.history[18].amsd);
    }

    /// Lost experiments inside a round keep their iteration index, and the
    /// measured and lost experiments together fill `max_iters`.
    #[test]
    fn batch_rounds_degrade_under_faults() {
        let (x, y, cost) = dataset(60, 12);
        let part = Partition::random(60, 2, 0.8, 7);
        let oracle = crate::oracle::SeededFaultOracle::new(3, 0.3);
        let cfg = AlConfig {
            batch: 3,
            ..config()
        };
        let run = run_al_with_oracle(&x, &y, &cost, &part, &mut VarianceReduction, &oracle, &cfg)
            .unwrap();
        assert!(!run.lost.is_empty());
        let mut iters: Vec<usize> = run.history.iter().map(|r| r.iter).collect();
        iters.extend(run.lost.iter().map(|l| l.iter));
        iters.sort_unstable();
        assert_eq!(iters, (0..25).collect::<Vec<_>>());
        assert_eq!(run.final_train.len(), 2 + run.history.len());
    }

    #[test]
    fn batch_inputs_are_checked() {
        let (x, y, cost) = dataset(10, 8);
        let part = Partition::random(10, 1, 0.8, 0);
        let cfg = AlConfig {
            batch: 4,
            ..config()
        };
        assert!(matches!(
            run_al(&x, &y, &cost[..5], &part, &mut VarianceReduction, &cfg),
            Err(AlError::BadPartition(_))
        ));
        let cfg = AlConfig {
            batch: 0,
            ..config()
        };
        assert_eq!(
            run_al(&x, &y, &cost, &part, &mut VarianceReduction, &cfg).unwrap_err(),
            AlError::ZeroBatch
        );
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
