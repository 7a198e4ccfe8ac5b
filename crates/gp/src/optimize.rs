//! Hyperparameter fitting by bounded, multi-restart maximization of the log
//! marginal likelihood (Eqs. 12–13).
//!
//! The paper relies on scikit-learn's behaviour: gradient ascent on the LML
//! "from a domain with specified boundaries", repeated "multiple times, each
//! time starting from a random point" for reliability. This module
//! reproduces that contract:
//!
//! * parameters live in log-space `theta = [kernel log-params..., log sigma_n]`;
//! * each component is confined to a `[lo, hi]` box (projected ascent);
//! * the `sigma_n` lower bound comes from a [`NoiseFloor`] policy — the
//!   single most consequential setting in the paper's evaluation (Fig. 7);
//! * `restarts` independent starts (the configured initial point plus
//!   seeded-random points inside the box) race; the best LML wins.
//!
//! The ascent itself is projected gradient with an adaptive step and
//! backtracking — robust on the shallow, low-dimensional LML landscapes this
//! problem produces (paper Figs. 4, 5b), with no line-search library needed.

use crate::kernel::Kernel;
use crate::lml::{self, FitCache};
use crate::model::{GpError, Gpr};
use crate::noise::NoiseFloor;
use crate::sparse::{
    select_inducing_kcenter, select_inducing_pivoted, stride_subsample, InducingSelector,
    SparseGpr, SparseMethod,
};
use crate::surrogate::Surrogate;
use alperf_linalg::{matrix::Matrix, stats::Standardizer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Which posterior tier [`fit_surrogate`] builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitTier {
    /// Always the exact `O(n³)` path ([`fit_gpr`]). The default — existing
    /// callers see bit-identical behavior.
    Exact,
    /// Always the sparse inducing-point path, with an exact-agreement
    /// validation gate at calibration sizes (`n <= gate_max_n`).
    Approximate,
    /// Exact below [`ApproxConfig::exact_threshold`] training points,
    /// sparse above — the size-based selector.
    Auto,
}

/// Knobs of the approximate (sparse) tier.
#[derive(Debug, Clone, Copy)]
pub struct ApproxConfig {
    /// Which sparse posterior to build. FITC is the default: its corrected
    /// diagonal keeps far-field variances honest, which variance-driven AL
    /// strategies depend on.
    pub method: SparseMethod,
    /// How inducing points are chosen from the training rows.
    pub selector: InducingSelector,
    /// Maximum number of inducing points `m` (clamped to `n`).
    pub max_rank: usize,
    /// Early-stop tolerance for the pivoted-Cholesky selector: stop once
    /// the residual kernel trace falls below `trace_tol * trace(K)`.
    pub trace_tol: f64,
    /// Hyperparameters are optimized exactly on a deterministic stride
    /// subsample of this many training rows (clamped to `n`) — `O(k³)`
    /// instead of `O(n³)` per LML evaluation.
    pub hyper_subsample: usize,
    /// [`FitTier::Auto`] uses the exact tier at `n <= exact_threshold`.
    pub exact_threshold: usize,
    /// Validation-gate tolerance: with [`FitTier::Approximate`] and
    /// `n <= gate_max_n`, the sparse posterior mean is compared against the
    /// exact one on the training inputs; if the standardized RMSE exceeds
    /// this, the fit falls back to exact (counter `gp.tier.fallback`).
    pub gate_tol: f64,
    /// Largest `n` at which the validation gate runs (an exact fit must be
    /// affordable to compare against).
    pub gate_max_n: usize,
}

impl Default for ApproxConfig {
    fn default() -> Self {
        ApproxConfig {
            method: SparseMethod::Fitc,
            selector: InducingSelector::PivotedCholesky,
            max_rank: 256,
            trace_tol: 1e-6,
            hyper_subsample: 200,
            exact_threshold: 800,
            gate_tol: 0.05,
            gate_max_n: 400,
        }
    }
}

/// Configuration for [`fit_gpr`].
#[derive(Clone)]
pub struct GprConfig {
    /// Kernel template; its current hyperparameters seed the first start.
    pub kernel: Box<dyn Kernel>,
    /// Box constraints for each kernel parameter, in log-space, in
    /// [`Kernel::params`] order. Empty = default `[ln 1e-5, ln 1e5]` boxes.
    pub kernel_bounds: Vec<(f64, f64)>,
    /// Lower-bound policy for `sigma_n` (see paper Fig. 7).
    pub noise_floor: NoiseFloor,
    /// Upper bound for `sigma_n`.
    pub noise_upper: f64,
    /// Initial `sigma_n` for the first start.
    pub noise_init: f64,
    /// Whether `sigma_n` is optimized (true) or held at `noise_init` (false).
    pub optimize_noise: bool,
    /// Total number of starts (first = configured init, rest random).
    pub restarts: usize,
    /// Maximum ascent iterations per start.
    pub max_iters: usize,
    /// Convergence threshold on the projected-gradient infinity norm.
    pub grad_tol: f64,
    /// Standardize the response before fitting.
    pub standardize: bool,
    /// RNG seed for the random restarts (deterministic runs).
    pub seed: u64,
    /// Run the independent restarts on the rayon pool. All start points are
    /// pre-drawn from the seeded RNG and the winner is reduced by
    /// `(lml, restart index)`, so the outcome is bit-identical to the
    /// serial loop (see `parallel_restarts_match_serial`).
    pub parallel: bool,
    /// Which posterior tier [`fit_surrogate`] builds; [`fit_gpr`] ignores
    /// this and is always exact.
    pub tier: FitTier,
    /// Approximate-tier knobs (inducing selection, rank, validation gate).
    pub approx: ApproxConfig,
}

impl GprConfig {
    /// Sensible defaults mirroring the paper's prototype: unit SE kernel,
    /// recommended noise floor `0.1`, 5 restarts.
    pub fn new(kernel: Box<dyn Kernel>) -> Self {
        GprConfig {
            kernel,
            kernel_bounds: Vec::new(),
            noise_floor: NoiseFloor::recommended(),
            noise_upper: 1e1,
            noise_init: 0.3,
            optimize_noise: true,
            restarts: 5,
            max_iters: 200,
            grad_tol: 1e-5,
            standardize: true,
            seed: 0,
            parallel: true,
            tier: FitTier::Exact,
            approx: ApproxConfig::default(),
        }
    }

    /// Builder: select the posterior tier for [`fit_surrogate`].
    pub fn with_tier(mut self, tier: FitTier) -> Self {
        self.tier = tier;
        self
    }

    /// Builder: set the approximate-tier knobs.
    pub fn with_approx(mut self, approx: ApproxConfig) -> Self {
        self.approx = approx;
        self
    }

    /// Builder: run restarts serially (`false`) or on the rayon pool
    /// (`true`, the default). Results are identical either way.
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Builder: set the noise floor policy.
    pub fn with_noise_floor(mut self, floor: NoiseFloor) -> Self {
        self.noise_floor = floor;
        self
    }

    /// Builder: set the number of restarts.
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        self.restarts = restarts.max(1);
        self
    }

    /// Builder: set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: set kernel parameter bounds (log-space).
    pub fn with_kernel_bounds(mut self, bounds: Vec<(f64, f64)>) -> Self {
        self.kernel_bounds = bounds;
        self
    }

    /// Builder: hold the noise level fixed at `sigma_n`.
    pub fn with_fixed_noise(mut self, sigma_n: f64) -> Self {
        self.noise_init = sigma_n;
        self.optimize_noise = false;
        self
    }

    /// Builder: enable/disable response standardization. The paper's
    /// prototype (scikit-learn 0.18.dev0, `normalize_y=False`) fits on the
    /// raw log-transformed responses; standardizing a 1–2 point training
    /// set would re-center it to ~0 and let the amplitude collapse, so AL
    /// experiments that start from a single seed measurement should turn
    /// this off.
    pub fn with_standardize(mut self, standardize: bool) -> Self {
        self.standardize = standardize;
        self
    }
}

/// Diagnostics from the optimization.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimOutcome {
    /// Best log marginal likelihood found (standardized scale).
    pub lml: f64,
    /// Optimized `theta` = kernel log-params (+ `log sigma_n` if optimized).
    pub theta: Vec<f64>,
    /// Which restart won (0 = configured initial point).
    pub best_restart: usize,
    /// Ascent iterations spent by the winning restart.
    pub iterations: usize,
    /// Total LML evaluations across all restarts.
    pub evaluations: usize,
}

/// Default log-space box for kernel parameters when the caller gives none.
const DEFAULT_BOUND: (f64, f64) = (-11.512925464970229, 11.512925464970229); // ln 1e-5 .. ln 1e5

fn clamp_vec(theta: &mut [f64], bounds: &[(f64, f64)]) {
    for (t, (lo, hi)) in theta.iter_mut().zip(bounds) {
        *t = t.clamp(*lo, *hi);
    }
}

/// One projected-gradient ascent run from `theta0`. Returns
/// `(best_theta, best_lml, iterations, evaluations)`.
#[allow(clippy::too_many_arguments)] // internal: mirrors the optimizer state
fn ascend(
    kernel_template: &dyn Kernel,
    x: &Matrix,
    y: &[f64],
    theta0: Vec<f64>,
    bounds: &[(f64, f64)],
    optimize_noise: bool,
    fixed_noise: f64,
    max_iters: usize,
    grad_tol: f64,
    cache: &FitCache,
) -> (Vec<f64>, f64, usize, usize) {
    let nk = kernel_template.n_params();
    let noise_of = |theta: &[f64]| -> f64 {
        if optimize_noise {
            theta[nk].exp()
        } else {
            fixed_noise
        }
    };
    // Value evaluation (one Cholesky) for the line search, retaining the
    // factored state; the O(n^3) gradient (lower triangle of K_y^{-1}) is
    // computed only at accepted points, *from* the accepted candidate's
    // state — no re-assembly or re-factorization at the same theta. Both go
    // through the per-fit distance cache: for SE-family kernels a
    // covariance rebuild is an O(n^2) scale-and-exp.
    let eval_state = |theta: &[f64]| -> Option<lml::LmlState> {
        let mut kern = kernel_template.clone_box();
        kern.set_params(&theta[..nk]);
        lml::lml_state_cached(kern.as_ref(), noise_of(theta), x, y, cache).ok()
    };
    let grad_at = |theta: &[f64], state: &lml::LmlState| -> Option<Vec<f64>> {
        let mut kern = kernel_template.clone_box();
        kern.set_params(&theta[..nk]);
        lml::grad_from_state(
            kern.as_ref(),
            noise_of(theta),
            x,
            optimize_noise,
            state,
            cache,
        )
        .ok()
    };

    let mut theta = theta0;
    clamp_vec(&mut theta, bounds);
    let mut evals = 0usize;
    let (mut f, mut g) = match eval_state(&theta).and_then(|s| {
        let g = grad_at(&theta, &s)?;
        Some((s.parts.lml, g))
    }) {
        Some(v) => {
            evals += 1;
            v
        }
        None => return (theta, f64::NEG_INFINITY, 0, 1),
    };
    let mut step = 0.1;
    let mut iters = 0usize;
    while iters < max_iters {
        iters += 1;
        // Projected gradient: zero out components pushing into an active bound.
        let mut pg = g.clone();
        for (j, pgj) in pg.iter_mut().enumerate() {
            let (lo, hi) = bounds[j];
            if (theta[j] <= lo && *pgj < 0.0) || (theta[j] >= hi && *pgj > 0.0) {
                *pgj = 0.0;
            }
        }
        let gnorm = pg.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if gnorm < grad_tol {
            break;
        }
        // Backtracking line search along the projected gradient; the
        // accepted candidate's factored state feeds the gradient directly.
        let mut accepted: Option<lml::LmlState> = None;
        let mut local_step = step;
        for _ in 0..30 {
            let mut cand: Vec<f64> = theta
                .iter()
                .zip(&pg)
                .map(|(t, d)| t + local_step * d)
                .collect();
            clamp_vec(&mut cand, bounds);
            if cand == theta {
                break; // fully blocked by bounds
            }
            evals += 1;
            if let Some(state) = eval_state(&cand) {
                let fc = state.parts.lml;
                if fc > f + 1e-12 {
                    theta = cand;
                    f = fc;
                    accepted = Some(state);
                    break;
                }
            }
            local_step *= 0.5;
        }
        if let Some(state) = accepted {
            // Gradient at the accepted point only, reusing its Cholesky.
            match grad_at(&theta, &state) {
                Some(gc) => {
                    evals += 1;
                    g = gc;
                }
                None => break,
            }
            step = (local_step * 2.0).min(1.0);
        } else {
            break; // no improving step found: converged (or stuck on bound)
        }
    }
    (theta, f, iters, evals)
}

/// Fit a GPR with marginal-likelihood hyperparameter optimization (Eq. 13).
///
/// ```
/// use alperf_gp::kernel::SquaredExponential;
/// use alperf_gp::noise::NoiseFloor;
/// use alperf_gp::optimize::{fit_gpr, GprConfig};
/// use alperf_linalg::matrix::Matrix;
///
/// let x = Matrix::from_vec(6, 1, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
/// let y = [0.0, 0.9, 1.8, 3.1, 4.0, 5.1];
/// let cfg = GprConfig::new(Box::new(SquaredExponential::unit()))
///     .with_noise_floor(NoiseFloor::recommended());
/// let (model, outcome) = fit_gpr(&x, &y, &cfg).unwrap();
/// assert!(outcome.lml.is_finite());
/// let p = model.predict_one(&[2.5]).unwrap();
/// assert!((p.mean - 2.5).abs() < 0.5);
/// ```
///
/// Returns the fitted model together with optimization diagnostics. The
/// returned model's hyperparameters respect `config.kernel_bounds` and the
/// noise floor policy exactly (projection, not penalty).
///
/// # Errors
/// Propagates fit errors ([`GpError`]); if *every* restart fails to produce
/// a finite LML the error from the final refit is returned.
pub fn fit_gpr(x: &Matrix, y: &[f64], config: &GprConfig) -> Result<(Gpr, OptimOutcome), GpError> {
    let _span = alperf_obs::span("gp.fit");
    if x.nrows() == 0 {
        return Err(GpError::Empty);
    }
    if y.len() != x.nrows() {
        return Err(GpError::Dimension(format!(
            "X has {} rows but y has {} values",
            x.nrows(),
            y.len()
        )));
    }
    // Standardize once here so every restart sees the same targets and the
    // noise floor applies on the standardized scale.
    let standardizer = if config.standardize {
        Standardizer::fit(y)
    } else {
        Standardizer::identity()
    };
    let y_std = standardizer.apply_vec(y);

    let nk = config.kernel.n_params();
    let mut bounds: Vec<(f64, f64)> = if config.kernel_bounds.is_empty() {
        vec![DEFAULT_BOUND; nk]
    } else {
        assert_eq!(
            config.kernel_bounds.len(),
            nk,
            "kernel_bounds length must match kernel.n_params()"
        );
        config.kernel_bounds.clone()
    };
    let noise_lo = config.noise_floor.lower_bound(x.nrows());
    if config.optimize_noise {
        bounds.push((noise_lo.ln(), config.noise_upper.ln()));
    }

    // The distance matrices depend only on X, which is fixed for the whole
    // multi-restart optimization: build them once and share across every
    // LML evaluation of every restart.
    let cache = FitCache::build(config.kernel.as_ref(), x);

    // Pre-draw every start point serially from the seeded RNG (identical
    // draw order to the historical serial loop), then run the independent
    // ascents — in parallel when configured — and reduce in restart order,
    // so the winner is bit-identical to the serial loop.
    let restarts = config.restarts.max(1);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let starts: Vec<Vec<f64>> = (0..restarts)
        .map(|r| {
            if r == 0 {
                let mut t = config.kernel.params();
                if config.optimize_noise {
                    t.push(config.noise_floor.clamp(config.noise_init, x.nrows()).ln());
                }
                t
            } else {
                bounds
                    .iter()
                    .map(|(lo, hi)| rng.gen_range(*lo..=*hi))
                    .collect()
            }
        })
        .collect();
    let fixed_noise = config.noise_floor.clamp(config.noise_init, x.nrows());
    // Restarts may run on rayon worker threads, where the thread-local
    // span stack is empty; carry the gp.fit span's identity into the
    // closure so restart spans still attach under it in the trace tree.
    let fit_span = alperf_obs::current_span();
    let run = |theta0: Vec<f64>| {
        let _restart_span = alperf_obs::span_with_parent("gp.fit.restart", fit_span);
        ascend(
            config.kernel.as_ref(),
            x,
            &y_std,
            theta0,
            &bounds,
            config.optimize_noise,
            fixed_noise,
            config.max_iters,
            config.grad_tol,
            &cache,
        )
    };
    let results: Vec<(Vec<f64>, f64, usize, usize)> = if config.parallel && restarts > 1 {
        starts.into_par_iter().map(run).collect()
    } else {
        starts.into_iter().map(run).collect()
    };
    let mut best: Option<(Vec<f64>, f64, usize, usize)> = None;
    let mut total_evals = 0usize;
    for (r, (theta, f, iters, evals)) in results.into_iter().enumerate() {
        total_evals += evals;
        let better = match &best {
            Some((_, bf, _, _)) => f > *bf,
            None => f.is_finite(),
        };
        if better {
            best = Some((theta, f, r, iters));
        }
    }

    alperf_obs::add("gp.fit.lml_evaluations", total_evals as u64);
    let (theta, lml, best_restart, iterations) = best.ok_or_else(|| {
        GpError::Dimension("all optimizer restarts failed to produce a finite LML".into())
    })?;

    let mut kernel = config.kernel.clone_box();
    kernel.set_params(&theta[..nk]);
    let noise = if config.optimize_noise {
        theta[nk].exp()
    } else {
        config.noise_floor.clamp(config.noise_init, x.nrows())
    };
    // Refit on the *raw* y so Gpr's own standardizer matches ours.
    let model = Gpr::fit(x.clone(), y, kernel, noise, config.standardize)?;
    // Fit-completion record: streamed into the live aggregator / black-box
    // ring (observational only — emitted after every numeric decision).
    alperf_obs::record(
        "gp.fit.done",
        &[
            ("n", alperf_obs::Value::U64(x.nrows() as u64)),
            ("lml", alperf_obs::Value::F64(lml)),
            ("restarts", alperf_obs::Value::U64(restarts as u64)),
            ("best_restart", alperf_obs::Value::U64(best_restart as u64)),
            ("evaluations", alperf_obs::Value::U64(total_evals as u64)),
        ],
    );
    Ok((
        model,
        OptimOutcome {
            lml,
            theta,
            best_restart,
            iterations,
            evaluations: total_evals,
        },
    ))
}

/// Tier-selecting fit: exact ([`fit_gpr`]) or the sparse inducing-point
/// approximation, per `config.tier`.
///
/// The approximate path breaks the exact tier's `O(n³)` ceiling in three
/// `O(n m²)`-or-cheaper stages:
///
/// 1. **Hyperparameters** are optimized exactly — same multi-restart
///    machinery, same seed stream — on a deterministic *stride subsample*
///    of `approx.hyper_subsample` rows, so each LML evaluation is `O(k³)`
///    with `k ≪ n`.
/// 2. **Inducing points** are selected from the full training set under
///    the fitted kernel: pivoted-Cholesky pivots (information-greedy,
///    trace-based early stop) or greedy k-center. Both are strictly serial
///    and bit-identical across worker counts.
/// 3. The **sparse posterior** ([`SparseGpr`]) is conditioned on all `n`
///    rows through the `m`-dimensional capacitance factor.
///
/// With [`FitTier::Approximate`] at calibration sizes
/// (`n <= approx.gate_max_n`) a **validation gate** also fits the exact
/// posterior and compares means on the training inputs; if the
/// standardized RMSE exceeds `approx.gate_tol` the exact model is returned
/// instead (counter `gp.tier.fallback`, record `gp.tier.gate`). The gate
/// is how the repo pins approximate-vs-exact agreement in CI without ever
/// paying `O(n³)` at large `n`.
///
/// # Errors
/// Propagates [`fit_gpr`] / [`SparseGpr::fit`] failures.
pub fn fit_surrogate(
    x: &Matrix,
    y: &[f64],
    config: &GprConfig,
) -> Result<(Surrogate, OptimOutcome), GpError> {
    let n = x.nrows();
    let sparse_now = match config.tier {
        FitTier::Exact => false,
        FitTier::Approximate => true,
        FitTier::Auto => n > config.approx.exact_threshold,
    };
    if !sparse_now {
        let (model, outcome) = fit_gpr(x, y, config)?;
        return Ok((Surrogate::Exact(model), outcome));
    }
    if n == 0 {
        return Err(GpError::Empty);
    }
    if y.len() != n {
        return Err(GpError::Dimension(format!(
            "X has {n} rows but y has {} values",
            y.len()
        )));
    }
    let a = &config.approx;

    // 1. Exact hyperparameter fit on the stride subsample.
    let k = a.hyper_subsample.max(1).min(n);
    let idx = stride_subsample(n, k);
    let xs = x.select_rows(&idx);
    let ys: Vec<f64> = idx.iter().map(|&i| y[i]).collect();
    let (hyper_model, outcome) = fit_gpr(&xs, &ys, config)?;
    let kernel = hyper_model.kernel().clone_box();
    let noise = hyper_model.noise_std();

    // 2. Inducing selection under the fitted kernel.
    let m = a.max_rank.max(1).min(n);
    let pivots = match a.selector {
        InducingSelector::PivotedCholesky => {
            select_inducing_pivoted(kernel.as_ref(), x, m, a.trace_tol)?
        }
        InducingSelector::KCenter => select_inducing_kcenter(x, m),
    };
    let z = x.select_rows(&pivots);

    // 3. Sparse posterior over all n rows.
    let sparse = SparseGpr::fit(x.clone(), y, kernel, noise, config.standardize, a.method, z)?;

    // 4. Validation gate at calibration sizes: approximate means must track
    // the exact posterior or the fit falls back.
    if matches!(config.tier, FitTier::Approximate) && n <= a.gate_max_n {
        let exact = Gpr::fit(
            x.clone(),
            y,
            sparse.kernel().clone_box(),
            sparse.noise_std(),
            config.standardize,
        )?;
        let pe = exact.predict_batch(x)?;
        let pa = sparse.predict_batch(x)?;
        let mse: f64 = pe
            .iter()
            .zip(&pa)
            .map(|(e, s)| {
                let d = e.mean - s.mean;
                d * d
            })
            .sum::<f64>()
            / n as f64;
        // Normalize by the response scale so the tolerance is unitless.
        let scale = exact.standardizer().std.abs().max(1e-12);
        let gate_rmse = mse.sqrt() / scale;
        let pass = gate_rmse <= a.gate_tol;
        alperf_obs::record(
            "gp.tier.gate",
            &[
                ("n", alperf_obs::Value::U64(n as u64)),
                ("rank", alperf_obs::Value::U64(sparse.rank() as u64)),
                ("rmse", alperf_obs::Value::F64(gate_rmse)),
                ("tol", alperf_obs::Value::F64(a.gate_tol)),
                ("pass", alperf_obs::Value::Bool(pass)),
            ],
        );
        if !pass {
            alperf_obs::inc("gp.tier.fallback");
            return Ok((Surrogate::Exact(exact), outcome));
        }
    }
    Ok((Surrogate::Sparse(sparse), outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SquaredExponential;

    fn smooth_data(n: usize) -> (Matrix, Vec<f64>) {
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.4).collect();
        let y: Vec<f64> = xs.iter().map(|v| (0.7 * v).sin() * 3.0 + 10.0).collect();
        (Matrix::from_vec(n, 1, xs).unwrap(), y)
    }

    fn noisy_data(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.4).collect();
        let y: Vec<f64> = xs
            .iter()
            .map(|v| (0.7 * v).sin() * 3.0 + rng.gen_range(-1.0..1.0))
            .collect();
        (Matrix::from_vec(n, 1, xs).unwrap(), y)
    }

    #[test]
    fn optimized_beats_initial_lml() {
        let (x, y) = smooth_data(25);
        // Start from a deliberately bad kernel.
        let cfg = GprConfig::new(Box::new(SquaredExponential::new(100.0, 0.01)))
            .with_noise_floor(NoiseFloor::Fixed(1e-3))
            .with_restarts(3);
        let (model, out) = fit_gpr(&x, &y, &cfg).unwrap();
        // LML of the initial hyperparameters on standardized data:
        let std = Standardizer::fit(&y);
        let init = lml::lml_value(
            &SquaredExponential::new(100.0, 0.01),
            0.3,
            &x,
            &std.apply_vec(&y),
        )
        .unwrap();
        assert!(out.lml > init, "optimized {} <= initial {init}", out.lml);
        assert!((model.lml() - out.lml).abs() < 1e-6);
    }

    #[test]
    fn fit_recovers_smooth_function() {
        let (x, y) = smooth_data(30);
        let cfg = GprConfig::new(Box::new(SquaredExponential::unit()))
            .with_noise_floor(NoiseFloor::Fixed(1e-3));
        let (model, _) = fit_gpr(&x, &y, &cfg).unwrap();
        // Interpolation error must be small away from edges.
        for q in [1.0, 3.3, 6.2, 9.0] {
            let p = model.predict_one(&[q]).unwrap();
            let truth = (0.7 * q).sin() * 3.0 + 10.0;
            assert!((p.mean - truth).abs() < 0.2, "q={q}: {} vs {truth}", p.mean);
        }
    }

    #[test]
    fn noise_floor_is_respected() {
        let (x, y) = smooth_data(12);
        // Smooth noiseless data would drive sigma_n to ~0 without a floor.
        let cfg = GprConfig::new(Box::new(SquaredExponential::unit()))
            .with_noise_floor(NoiseFloor::Fixed(0.1));
        let (model, _) = fit_gpr(&x, &y, &cfg).unwrap();
        assert!(
            model.noise_std() >= 0.1 - 1e-12,
            "sigma_n = {}",
            model.noise_std()
        );
    }

    #[test]
    fn loose_floor_collapses_noise_on_clean_data() {
        // The paper's overfitting observation: with sigma_n >= 1e-8 and
        // noise-free well-aligned measurements, the fitted noise approaches
        // the bound.
        let (x, y) = smooth_data(8);
        let cfg = GprConfig::new(Box::new(SquaredExponential::unit()))
            .with_noise_floor(NoiseFloor::loose())
            .with_restarts(4);
        let (model, _) = fit_gpr(&x, &y, &cfg).unwrap();
        assert!(
            model.noise_std() < 1e-2,
            "expected tiny noise on clean data, got {}",
            model.noise_std()
        );
    }

    #[test]
    fn noisy_data_yields_substantial_noise_estimate() {
        let (x, y) = noisy_data(60, 7);
        let cfg = GprConfig::new(Box::new(SquaredExponential::unit()))
            .with_noise_floor(NoiseFloor::Fixed(1e-6))
            .with_restarts(4);
        let (model, _) = fit_gpr(&x, &y, &cfg).unwrap();
        // Noise ~ U(-1,1) => std ~ 0.577 raw; on standardized scale divide
        // by data std (~2.2) => ~0.26. Accept a broad band.
        assert!(
            model.noise_std() > 0.05 && model.noise_std() < 0.8,
            "sigma_n = {}",
            model.noise_std()
        );
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let (x, y) = noisy_data(20, 3);
        let cfg = GprConfig::new(Box::new(SquaredExponential::unit())).with_seed(42);
        let (m1, o1) = fit_gpr(&x, &y, &cfg).unwrap();
        let (m2, o2) = fit_gpr(&x, &y, &cfg).unwrap();
        assert_eq!(o1.theta, o2.theta);
        assert_eq!(m1.noise_std(), m2.noise_std());
    }

    #[test]
    fn fixed_noise_is_not_optimized() {
        let (x, y) = noisy_data(15, 9);
        let cfg = GprConfig::new(Box::new(SquaredExponential::unit())).with_fixed_noise(0.37);
        let (model, out) = fit_gpr(&x, &y, &cfg).unwrap();
        assert_eq!(model.noise_std(), 0.37);
        assert_eq!(out.theta.len(), 2); // kernel params only
    }

    #[test]
    fn kernel_bounds_are_enforced() {
        let (x, y) = smooth_data(15);
        // Confine length scale to [2, 5] in raw units.
        let cfg = GprConfig::new(Box::new(SquaredExponential::unit())).with_kernel_bounds(vec![
            (2f64.ln(), 5f64.ln()),
            (DEFAULT_BOUND.0, DEFAULT_BOUND.1),
        ]);
        let (model, out) = fit_gpr(&x, &y, &cfg).unwrap();
        let l = out.theta[0].exp();
        assert!((2.0 - 1e-9..=5.0 + 1e-9).contains(&l), "l = {l}");
        let _ = model;
    }

    #[test]
    fn single_point_fit_works() {
        // The paper seeds AL with a single experiment; the optimizer must
        // not fall over on n = 1.
        let x = Matrix::from_rows(&[&[0.5]]).unwrap();
        let y = vec![3.0];
        let cfg = GprConfig::new(Box::new(SquaredExponential::unit()));
        let (model, _) = fit_gpr(&x, &y, &cfg).unwrap();
        let p = model.predict_one(&[0.5]).unwrap();
        assert!(p.mean.is_finite() && p.std.is_finite());
    }

    #[test]
    fn restarts_never_hurt() {
        let (x, y) = noisy_data(25, 11);
        let one = GprConfig::new(Box::new(SquaredExponential::new(30.0, 0.1)))
            .with_restarts(1)
            .with_seed(5);
        let many = GprConfig::new(Box::new(SquaredExponential::new(30.0, 0.1)))
            .with_restarts(8)
            .with_seed(5);
        let (_, o1) = fit_gpr(&x, &y, &one).unwrap();
        let (_, o8) = fit_gpr(&x, &y, &many).unwrap();
        assert!(o8.lml >= o1.lml - 1e-9);
        assert!(o8.evaluations > o1.evaluations);
    }

    #[test]
    fn empty_input_rejected() {
        let cfg = GprConfig::new(Box::new(SquaredExponential::unit()));
        assert!(matches!(
            fit_gpr(&Matrix::zeros(0, 0), &[], &cfg),
            Err(GpError::Empty)
        ));
    }

    #[test]
    fn parallel_restarts_match_serial() {
        let (x, y) = noisy_data(30, 21);
        for seed in [0u64, 7, 42] {
            let base = GprConfig::new(Box::new(SquaredExponential::new(3.0, 0.5)))
                .with_restarts(6)
                .with_seed(seed);
            let (mp, op) = fit_gpr(&x, &y, &base.clone().with_parallel(true)).unwrap();
            let (ms, os) = fit_gpr(&x, &y, &base.with_parallel(false)).unwrap();
            // Bit-identical outcome, not approximately equal.
            assert_eq!(op.theta, os.theta, "seed {seed}");
            assert!(op.lml == os.lml, "seed {seed}: {} vs {}", op.lml, os.lml);
            assert_eq!(op.best_restart, os.best_restart, "seed {seed}");
            assert_eq!(op.iterations, os.iterations, "seed {seed}");
            assert_eq!(op.evaluations, os.evaluations, "seed {seed}");
            assert_eq!(mp.noise_std(), ms.noise_std(), "seed {seed}");
        }
    }

    /// Kernel that fails (NaN covariance -> `NonFinite` -> restart yields
    /// `-inf`) whenever its length scale is below a threshold: random
    /// restarts landing there fail to converge, exactly the case the
    /// parallel reduction must handle identically to the serial loop.
    #[derive(Clone)]
    struct Fragile(SquaredExponential);

    impl Kernel for Fragile {
        fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
            if self.0.length_scale < 0.5 {
                f64::NAN
            } else {
                self.0.eval(a, b)
            }
        }
        fn n_params(&self) -> usize {
            self.0.n_params()
        }
        fn params(&self) -> Vec<f64> {
            self.0.params()
        }
        fn set_params(&mut self, p: &[f64]) {
            self.0.set_params(p);
        }
        fn param_names(&self) -> Vec<String> {
            self.0.param_names()
        }
        fn grad(&self, a: &[f64], b: &[f64]) -> Vec<f64> {
            self.0.grad(a, b)
        }
        fn clone_box(&self) -> Box<dyn Kernel> {
            Box::new(self.clone())
        }
        // No distance_form: exercises the generic (uncached) path.
    }

    #[test]
    fn parallel_restarts_match_serial_with_failing_restarts() {
        let (x, y) = noisy_data(18, 4);
        // With l-bounds spanning [1e-5, 1e5], roughly half the random
        // starts draw l < 0.5 and fail outright; restart 0 (l = 2) succeeds.
        let base = GprConfig::new(Box::new(Fragile(SquaredExponential::new(2.0, 1.0))))
            .with_restarts(8)
            .with_seed(13);
        let (_, op) = fit_gpr(&x, &y, &base.clone().with_parallel(true)).unwrap();
        let (_, os) = fit_gpr(&x, &y, &base.with_parallel(false)).unwrap();
        assert_eq!(op.theta, os.theta);
        assert!(op.lml == os.lml);
        assert_eq!(op.best_restart, os.best_restart);
        assert_eq!(op.iterations, os.iterations);
        assert_eq!(op.evaluations, os.evaluations);
        // Sanity: failed restarts evaluate once; a run where *every*
        // random start succeeded would need far more evaluations than the
        // 8-restart budget actually spent here.
        assert!(op.lml.is_finite());
    }

    #[test]
    fn fit_surrogate_exact_tier_matches_fit_gpr() {
        let (x, y) = noisy_data(25, 2);
        let cfg = GprConfig::new(Box::new(SquaredExponential::unit()))
            .with_restarts(2)
            .with_seed(9);
        let (s, so) = fit_surrogate(&x, &y, &cfg).unwrap();
        let (g, go) = fit_gpr(&x, &y, &cfg).unwrap();
        assert_eq!(s.tier_name(), "exact");
        assert_eq!(so.theta, go.theta);
        assert_eq!(s.noise_std(), g.noise_std());
        assert_eq!(
            s.predict_one(&[3.3]).unwrap(),
            g.predict_one(&[3.3]).unwrap()
        );
    }

    #[test]
    fn fit_surrogate_approximate_tier_passes_gate_on_smooth_data() {
        let (x, y) = smooth_data(120);
        let cfg = GprConfig::new(Box::new(SquaredExponential::unit()))
            .with_restarts(2)
            .with_tier(FitTier::Approximate)
            .with_approx(ApproxConfig {
                max_rank: 24,
                hyper_subsample: 60,
                ..ApproxConfig::default()
            });
        let (s, _) = fit_surrogate(&x, &y, &cfg).unwrap();
        assert_eq!(s.tier_name(), "fitc", "gate should pass on smooth data");
        assert!(s.rank() <= 24);
        // Posterior means track the exact fit closely on the training grid.
        let exact = Gpr::fit(x.clone(), &y, s.kernel().clone_box(), s.noise_std(), true).unwrap();
        for i in (0..120).step_by(17) {
            let a = s.predict_one(x.row(i)).unwrap().mean;
            let e = exact.predict_one(x.row(i)).unwrap().mean;
            assert!((a - e).abs() < 0.1, "row {i}: {a} vs {e}");
        }
    }

    #[test]
    fn fit_surrogate_gate_falls_back_when_rank_is_starved() {
        // Rank 2 cannot represent ~9 wiggles: the gate must detect the
        // mismatch and return the exact tier.
        let (x, y) = smooth_data(100);
        let cfg = GprConfig::new(Box::new(SquaredExponential::unit()))
            .with_restarts(2)
            .with_tier(FitTier::Approximate)
            .with_approx(ApproxConfig {
                max_rank: 2,
                hyper_subsample: 50,
                ..ApproxConfig::default()
            });
        let (s, _) = fit_surrogate(&x, &y, &cfg).unwrap();
        // (The gp.tier.fallback counter only moves when telemetry is
        // globally enabled, which unit tests leave off.)
        assert_eq!(s.tier_name(), "exact");
    }

    #[test]
    fn fit_surrogate_auto_switches_on_size() {
        let cfg_template = || {
            GprConfig::new(Box::new(SquaredExponential::unit()))
                .with_restarts(1)
                .with_tier(FitTier::Auto)
                .with_approx(ApproxConfig {
                    exact_threshold: 40,
                    max_rank: 16,
                    hyper_subsample: 30,
                    ..ApproxConfig::default()
                })
        };
        let (x_small, y_small) = smooth_data(30);
        let (s, _) = fit_surrogate(&x_small, &y_small, &cfg_template()).unwrap();
        assert_eq!(s.tier_name(), "exact");
        let (x_big, y_big) = smooth_data(80);
        let (s, _) = fit_surrogate(&x_big, &y_big, &cfg_template()).unwrap();
        assert_eq!(s.tier_name(), "fitc");
        assert_eq!(s.rank(), 16);
    }

    #[test]
    fn fit_surrogate_is_deterministic() {
        let (x, y) = noisy_data(90, 13);
        let cfg = GprConfig::new(Box::new(SquaredExponential::unit()))
            .with_restarts(2)
            .with_seed(4)
            .with_tier(FitTier::Approximate)
            .with_approx(ApproxConfig {
                max_rank: 20,
                hyper_subsample: 45,
                ..ApproxConfig::default()
            });
        let (a, oa) = fit_surrogate(&x, &y, &cfg).unwrap();
        let (b, ob) = fit_surrogate(&x, &y, &cfg).unwrap();
        assert_eq!(oa.theta, ob.theta);
        assert_eq!(a.tier_name(), b.tier_name());
        assert_eq!(
            a.predict_one(&[5.5]).unwrap(),
            b.predict_one(&[5.5]).unwrap()
        );
    }

    #[test]
    fn dynamic_floor_uses_training_size() {
        let (x, y) = smooth_data(16);
        let cfg = GprConfig::new(Box::new(SquaredExponential::unit()))
            .with_noise_floor(NoiseFloor::DynamicInvSqrtN);
        let (model, _) = fit_gpr(&x, &y, &cfg).unwrap();
        // Floor for n=16 is 0.25.
        assert!(model.noise_std() >= 0.25 - 1e-12);
    }
}
