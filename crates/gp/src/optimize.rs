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
//! The ascent itself is a projected BFGS method on that box, the bounded
//! quasi-Newton family of scikit-learn's default L-BFGS-B: bound-active
//! coordinates stay fixed, the inverse-Hessian approximation shapes the
//! direction, and Armijo backtracking picks its length (see `ascend`).
//! With at most a handful of hyperparameters the dense `m x m` inverse
//! Hessian costs nothing next to one LML evaluation, and most restarts
//! converge in a few dozen evaluations.

use crate::kernel::Kernel;
use crate::lml::{self, FitCache};
use crate::model::{GpError, Gpr};
use crate::noise::NoiseFloor;
use crate::sparse::{
    select_inducing_kcenter, select_inducing_pivoted, stride_subsample, InducingSelector,
    SparseGpr, SparseMethod,
};
use crate::surrogate::Surrogate;
use alperf_linalg::{matrix::Matrix, stats::Standardizer, vector::dot};
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
    /// Total LML value and gradient evaluations across all restarts.
    pub evaluations: usize,
    /// The winning restart stopped on the projected-gradient test, not on
    /// `max_iters` or a line search that found no increase.
    pub converged: bool,
    /// Infinity norm of the winning restart's projected gradient at `theta`.
    pub pg_norm: f64,
}

/// Default log-space box for kernel parameters when the caller gives none.
const DEFAULT_BOUND: (f64, f64) = (-11.512925464970229, 11.512925464970229); // ln 1e-5 .. ln 1e5

fn clamp_vec(theta: &mut [f64], bounds: &[(f64, f64)]) {
    for (t, (lo, hi)) in theta.iter_mut().zip(bounds) {
        *t = t.clamp(*lo, *hi);
    }
}

/// Where one [`ascend`] run stopped.
#[derive(Debug)]
struct Ascent {
    theta: Vec<f64>,
    /// Objective at `theta`; `-inf` when the start itself failed.
    value: f64,
    iterations: usize,
    /// Value evaluations plus gradient evaluations.
    evaluations: usize,
    /// Stopped on the projected-gradient test.
    converged: bool,
    /// Infinity norm of the projected gradient at `theta`.
    pg_norm: f64,
}

/// Sufficient-increase constant of the Armijo test.
const ARMIJO_C1: f64 = 1e-4;
/// Step halvings before a line search gives up (step 1 down to ~1e-9).
const MAX_BACKTRACKS: usize = 30;

/// Whether a coordinate at `theta` sits on a bound that `dir` points out of.
fn blocked(theta: f64, (lo, hi): (f64, f64), dir: f64) -> bool {
    (theta <= lo && dir < 0.0) || (theta >= hi && dir > 0.0)
}

/// BFGS update of the inverse Hessian `h` (row-major `m x m`) of the
/// negated objective from the step `s` and gradient change `y`, with
/// `rho = 1 / s^T y`: `H+ = (I - rho s y^T) H (I - rho y s^T) + rho s s^T`.
/// Returns `None` when the update overflows.
fn bfgs_update(h: &[f64], s: &[f64], y: &[f64], rho: f64) -> Option<Vec<f64>> {
    let m = s.len();
    let hy: Vec<f64> = h.chunks_exact(m).map(|row| dot(row, y)).collect();
    let c = rho * rho * dot(y, &hy) + rho;
    let mut out = vec![0.0; m * m];
    for i in 0..m {
        for j in 0..m {
            out[i * m + j] = h[i * m + j] - rho * (hy[i] * s[j] + s[i] * hy[j]) + c * s[i] * s[j];
        }
    }
    out.iter().all(|v| v.is_finite()).then_some(out)
}

/// Projected BFGS ascent of `value` from `theta0` inside the box `bounds`.
///
/// `value(theta)` returns the objective and a state from which
/// `grad(theta, &state)` computes the gradient at the same point, so the
/// gradient at an accepted point reuses the factorization its value
/// evaluation built. `None`, or a non-finite result, from either marks
/// `theta` as infeasible. Each iteration:
///
/// 1. coordinates on a bound whose gradient points outward stay fixed;
///    the ascent stops, converged, once the projected gradient's infinity
///    norm falls below `grad_tol`;
/// 2. the direction is the inverse-Hessian approximation applied to the
///    projected gradient, with components that would leave the box zeroed;
/// 3. the step is Armijo backtracking along the projected path
///    `clamp(theta + alpha d)`, from `alpha = 1` for a quasi-Newton
///    direction and from `min(1, 1 / |pg|_2)` (L-BFGS-B's first step) for
///    the projected gradient itself, which carries no curvature scale;
/// 4. the inverse Hessian is updated only when `s^T y > 0`, with the
///    identity scaled by Shanno–Phua's `s^T y / y^T y` before the first
///    pair. The pair covers the coordinates that moved: a fixed
///    coordinate's gradient change says nothing about the free subspace.
///
/// A quasi-Newton direction that is not an ascent direction, or whose line
/// search finds no increase, is dropped with its curvature history, and
/// one projected-gradient step is tried instead; when that also fails, the
/// ascent stops unconverged. So does reaching `max_iters`.
fn ascend<S>(
    theta0: Vec<f64>,
    bounds: &[(f64, f64)],
    max_iters: usize,
    grad_tol: f64,
    value: impl Fn(&[f64]) -> Option<(f64, S)>,
    grad: impl Fn(&[f64], &S) -> Option<Vec<f64>>,
) -> Ascent {
    let m = theta0.len();
    let mut theta = theta0;
    clamp_vec(&mut theta, bounds);
    let value = |t: &[f64]| value(t).filter(|(f, _)| f.is_finite());
    let grad = |t: &[f64], s: &S| grad(t, s).filter(|g| g.iter().all(|v| v.is_finite()));
    let mut evals = 1usize;
    let start = value(&theta).and_then(|(f, state)| {
        evals += 1;
        Some((f, grad(&theta, &state)?))
    });
    let Some((mut f, mut g)) = start else {
        return Ascent {
            theta,
            value: f64::NEG_INFINITY,
            iterations: 0,
            evaluations: evals,
            converged: false,
            pg_norm: f64::INFINITY,
        };
    };
    // Inverse Hessian of -value, row-major; `None` stands for the identity
    // until the first curvature pair arrives.
    let mut h: Option<Vec<f64>> = None;
    let mut iters = 0usize;
    let (converged, pg_norm) = loop {
        let fixed: Vec<bool> = (0..m).map(|j| blocked(theta[j], bounds[j], g[j])).collect();
        let pg: Vec<f64> = g
            .iter()
            .zip(&fixed)
            .map(|(&gj, &fj)| if fj { 0.0 } else { gj })
            .collect();
        let pg_norm = pg.iter().fold(0.0f64, |a, v| a.max(v.abs()));
        if pg_norm < grad_tol {
            break (true, pg_norm);
        }
        if iters == max_iters {
            break (false, pg_norm);
        }
        iters += 1;
        let mut search = |d: &[f64], mut alpha: f64| {
            for _ in 0..MAX_BACKTRACKS {
                let mut cand: Vec<f64> =
                    theta.iter().zip(d).map(|(t, dj)| t + alpha * dj).collect();
                clamp_vec(&mut cand, bounds);
                if cand == theta {
                    return None;
                }
                let step: Vec<f64> = cand.iter().zip(&theta).map(|(c, t)| c - t).collect();
                let rise = ARMIJO_C1 * dot(&g, &step);
                evals += 1;
                if let Some((fc, state)) = value(&cand) {
                    if fc > f && fc >= f + rise {
                        return Some((cand, fc, state));
                    }
                }
                alpha *= 0.5;
            }
            None
        };
        let qn = h.as_ref().and_then(|h| {
            let mut d: Vec<f64> = h.chunks_exact(m).map(|row| dot(row, &pg)).collect();
            for (j, dj) in d.iter_mut().enumerate() {
                if fixed[j] || blocked(theta[j], bounds[j], *dj) {
                    *dj = 0.0;
                }
            }
            (dot(&g, &d) > 0.0).then_some(d)
        });
        let found = qn.and_then(|d| search(&d, 1.0)).or_else(|| {
            h = None;
            search(&pg, (1.0 / dot(&pg, &pg).sqrt()).min(1.0))
        });
        let Some((cand, fc, state)) = found else {
            break (false, pg_norm);
        };
        evals += 1;
        let Some(gc) = grad(&cand, &state) else {
            break (false, pg_norm);
        };
        // Curvature pair of -value over the coordinates that moved.
        let s: Vec<f64> = cand.iter().zip(&theta).map(|(c, t)| c - t).collect();
        let y: Vec<f64> = (0..m)
            .map(|j| if s[j] == 0.0 { 0.0 } else { g[j] - gc[j] })
            .collect();
        let sy = dot(&s, &y);
        let rho = 1.0 / sy;
        if sy > 0.0 && rho.is_finite() {
            let base = h.take().or_else(|| {
                let gamma = sy / dot(&y, &y);
                let diag = |k: usize| if k.is_multiple_of(m + 1) { gamma } else { 0.0 };
                gamma.is_finite().then(|| (0..m * m).map(diag).collect())
            });
            h = base.and_then(|b| bfgs_update(&b, &s, &y, rho));
        }
        theta = cand;
        f = fc;
        g = gc;
    };
    Ascent {
        theta,
        value: f,
        iterations: iters,
        evaluations: evals,
        converged,
        pg_norm,
    }
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
    let noise_of = |theta: &[f64]| -> f64 {
        if config.optimize_noise {
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
    let value = |theta: &[f64]| -> Option<(f64, lml::LmlState)> {
        let mut kern = config.kernel.clone_box();
        kern.set_params(&theta[..nk]);
        let state = lml::lml_state_cached(kern.as_ref(), noise_of(theta), x, &y_std, &cache);
        state.ok().map(|s| (s.parts.lml, s))
    };
    let grad = |theta: &[f64], state: &lml::LmlState| -> Option<Vec<f64>> {
        let mut kern = config.kernel.clone_box();
        kern.set_params(&theta[..nk]);
        let (noise, opt) = (noise_of(theta), config.optimize_noise);
        lml::grad_from_state(kern.as_ref(), noise, x, opt, state, &cache).ok()
    };
    // Restarts may run on rayon worker threads, where the thread-local
    // span stack is empty; carry the gp.fit span's identity into the
    // closure so restart spans still attach under it in the trace tree.
    let fit_span = alperf_obs::current_span();
    let run = |theta0: Vec<f64>| {
        let _restart_span = alperf_obs::span_with_parent("gp.fit.restart", fit_span);
        ascend(
            theta0,
            &bounds,
            config.max_iters,
            config.grad_tol,
            value,
            grad,
        )
    };
    let results: Vec<Ascent> = if config.parallel && restarts > 1 {
        starts.into_par_iter().map(run).collect()
    } else {
        starts.into_iter().map(run).collect()
    };
    let total_evals: usize = results.iter().map(|a| a.evaluations).sum();
    let mut best: Option<(usize, Ascent)> = None;
    for (r, a) in results.into_iter().enumerate() {
        let better = match &best {
            Some((_, b)) => a.value > b.value,
            None => a.value.is_finite(),
        };
        if better {
            best = Some((r, a));
        }
    }

    alperf_obs::add("gp.fit.lml_evaluations", total_evals as u64);
    let (best_restart, won) = best.ok_or_else(|| {
        GpError::Dimension("all optimizer restarts failed to produce a finite LML".into())
    })?;

    let mut kernel = config.kernel.clone_box();
    kernel.set_params(&won.theta[..nk]);
    let noise = noise_of(&won.theta);
    // Refit on the *raw* y so Gpr's own standardizer matches ours.
    let model = Gpr::fit(x.clone(), y, kernel, noise, config.standardize)?;
    // Fit-completion record: one JSONL event in the campaign trace
    // (observational only — emitted after every numeric decision). The
    // floor test matches the one perfbench applies to `al.sigma_floor_iters`.
    let noise_at_floor = noise <= noise_lo * (1.0 + 1e-9);
    alperf_obs::record(
        "gp.fit.done",
        &[
            ("n", alperf_obs::Value::U64(x.nrows() as u64)),
            ("lml", alperf_obs::Value::F64(won.value)),
            ("restarts", alperf_obs::Value::U64(restarts as u64)),
            ("best_restart", alperf_obs::Value::U64(best_restart as u64)),
            ("evaluations", alperf_obs::Value::U64(total_evals as u64)),
            ("iterations", alperf_obs::Value::U64(won.iterations as u64)),
            ("pg_norm", alperf_obs::Value::F64(won.pg_norm)),
            ("converged", alperf_obs::Value::Bool(won.converged)),
            ("noise", alperf_obs::Value::F64(noise)),
            ("noise_at_floor", alperf_obs::Value::Bool(noise_at_floor)),
        ],
    );
    Ok((
        model,
        OptimOutcome {
            lml: won.value,
            theta: won.theta,
            best_restart,
            iterations: won.iterations,
            evaluations: total_evals,
            converged: won.converged,
            pg_norm: won.pg_norm,
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

    /// `-(t - c)^T A (t - c) / 2` with `A = R diag(1, 1e4) R^T` (R a 30°
    /// rotation, so kappa = 1e4 and the axes are coupled), maximized over
    /// `[-1, 1]^2` with the unconstrained optimum `c` outside the box in
    /// coordinate 0.
    #[test]
    fn ascent_finds_box_projected_optimum_of_ill_conditioned_quadratic() {
        let (sn, cs) = (0.5f64, 3f64.sqrt() / 2.0);
        let (l0, l1) = (1.0, 1e4);
        let a = [
            [cs * cs * l0 + sn * sn * l1, cs * sn * (l0 - l1)],
            [cs * sn * (l0 - l1), sn * sn * l0 + cs * cs * l1],
        ];
        let c = [2.0, 0.3];
        let grad_at = |t: &[f64]| -> Vec<f64> {
            let r = [t[0] - c[0], t[1] - c[1]];
            (0..2).map(|i| -(a[i][0] * r[0] + a[i][1] * r[1])).collect()
        };
        let value = |t: &[f64]| -> Option<(f64, ())> {
            let g = grad_at(t);
            Some((0.5 * ((t[0] - c[0]) * g[0] + (t[1] - c[1]) * g[1]), ()))
        };
        let grad = |t: &[f64], _: &()| Some(grad_at(t));
        // Coordinate 0 rests on its upper bound; coordinate 1 maximizes
        // the objective along that face.
        let opt = [1.0, c[1] - a[1][0] * (1.0 - c[0]) / a[1][1]];
        assert!(grad_at(&opt)[0] > 0.0, "fixture: gradient must point out");
        let bounds = [(-1.0, 1.0); 2];
        let out = ascend(vec![-0.9, 0.8], &bounds, 200, 1e-9, value, grad);
        assert!(out.converged, "{out:?}");
        assert!(out.iterations <= 30, "{out:?}");
        for j in 0..2 {
            assert!((out.theta[j] - opt[j]).abs() < 1e-8, "{out:?} vs {opt:?}");
        }
    }

    /// Degenerate training sets end in `Ok` with `theta` inside the box
    /// and a finite LML, or in a typed `GpError`: never NaN, never a panic.
    #[test]
    fn degenerate_inputs_fit_inside_the_box_or_fail_typed() {
        let col = |v: &[f64]| Matrix::from_vec(v.len(), 1, v.to_vec()).unwrap();
        let cases: Vec<(&str, Matrix, Vec<f64>)> = vec![
            ("n = 1", col(&[0.5]), vec![3.0]),
            ("n = 2", col(&[0.0, 1.0]), vec![1.0, 2.0]),
            (
                "duplicate rows, different y",
                col(&[0.0, 1.0, 1.0, 1.0, 2.0]),
                vec![0.0, 1.0, 1.5, 0.5, 2.0],
            ),
            ("constant y", col(&[0.0, 1.0, 2.0, 3.0]), vec![4.2; 4]),
            (
                "y spanning five decades",
                col(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]),
                vec![1.0, 10.0, 1e2, 1e3, 1e4, 1e5],
            ),
        ];
        for (name, x, y) in &cases {
            for floor in [NoiseFloor::loose(), NoiseFloor::recommended()] {
                for standardize in [true, false] {
                    for noise_on_floor in [false, true] {
                        let mut cfg = GprConfig::new(Box::new(SquaredExponential::unit()))
                            .with_noise_floor(floor)
                            .with_restarts(3)
                            .with_standardize(standardize);
                        let lo = floor.lower_bound(x.nrows());
                        if noise_on_floor {
                            cfg.noise_init = lo;
                        }
                        let case = format!(
                            "{name}, floor {lo:e}, standardize {standardize}, \
                             start on floor {noise_on_floor}"
                        );
                        let Ok((model, out)) = fit_gpr(x, y, &cfg) else {
                            continue;
                        };
                        assert!(out.lml.is_finite(), "{case}: lml {}", out.lml);
                        assert!(out.pg_norm.is_finite(), "{case}: |pg| {}", out.pg_norm);
                        let mut bounds = vec![DEFAULT_BOUND; 2];
                        bounds.push((lo.ln(), cfg.noise_upper.ln()));
                        for (t, (l, h)) in out.theta.iter().zip(&bounds) {
                            assert!((*l..=*h).contains(t), "{case}: theta {:?}", out.theta);
                        }
                        let p = model.predict_one(&[0.7]).unwrap();
                        assert!(p.mean.is_finite() && p.std.is_finite(), "{case}: {p:?}");
                    }
                }
            }
        }
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
