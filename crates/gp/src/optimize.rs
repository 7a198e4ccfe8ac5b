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
//! converge in a few dozen evaluations. A fit returns the winner's final
//! inverse Hessian ([`OptimOutcome::inv_hessian`]), and [`fit_gpr_warm`]
//! starts a re-fit near that optimum from it, so the curvature is not
//! re-learned from a scaled identity.

use crate::kernel::Kernel;
use crate::lml::{FitCache, LmlWorkspace};
use crate::model::{GpError, Gpr};
use crate::noise::NoiseFloor;
use alperf_linalg::{matrix::Matrix, stats::Standardizer, vector::dot, LinalgError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The posterior tier a [`GprConfig`] asks for. Only the exact tier exists;
/// the name is kept so that `perfbench/`, which pins this API, still
/// compiles (see [`GprConfig::with_tier`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitTier {
    /// The exact `O(n³)` posterior ([`fit_gpr`]).
    Exact,
}

/// The name `perfbench/` calls the fit by; the same function as [`fit_gpr`].
pub use fit_gpr as fit_surrogate;

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
        }
    }

    /// Builder kept for `perfbench/`: every fit is exact, so this returns
    /// the config unchanged.
    pub fn with_tier(self, _tier: FitTier) -> Self {
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
    #[cfg(test)]
    fn with_fixed_noise(mut self, sigma_n: f64) -> Self {
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
    /// The winning restart's final inverse-Hessian approximation of the
    /// negated LML over `theta` (row-major, `theta.len()` squared), when it
    /// ended holding one: the curvature an ascent from a nearby optimum
    /// can start from ([`fit_gpr_warm`]).
    pub inv_hessian: Option<Vec<f64>>,
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
    /// Stopped on the projected-gradient test.
    converged: bool,
    /// Infinity norm of the projected gradient at `theta`.
    pg_norm: f64,
    /// The inverse-Hessian approximation the ascent ended with, row-major
    /// `m x m`; `None` when it held none (no curvature pair yet, or the
    /// last one was dropped).
    inv_hessian: Option<Vec<f64>>,
}

/// The function [`ascend`] maximizes. `None`, or a non-finite result, from
/// either method marks `theta` as infeasible.
trait Objective {
    /// The objective at `theta`.
    fn value(&mut self, theta: &[f64]) -> Option<f64>;
    /// The gradient at `theta`, written into `g` (cleared first); `false`
    /// marks `theta` as infeasible. `theta` is always the point of the
    /// last `value` call that returned a finite value, so an
    /// implementation may reuse that evaluation's state.
    fn grad(&mut self, theta: &[f64], g: &mut Vec<f64>) -> bool;
}

/// Sufficient-increase constant of the Armijo test.
const ARMIJO_C1: f64 = 1e-4;
/// Step halvings before a line search gives up (step 1 down to ~1e-9).
const MAX_BACKTRACKS: usize = 30;

/// Whether a coordinate at `theta` sits on a bound that `dir` points out of.
fn blocked(theta: f64, (lo, hi): (f64, f64), dir: f64) -> bool {
    (theta <= lo && dir < 0.0) || (theta >= hi && dir > 0.0)
}

/// Infinity norm of the gradient `g` at `theta` projected on the box
/// `bounds`: the components [`blocked`] at a bound count as zero. The
/// statistic [`ascend`] stops on.
fn projected_norm(theta: &[f64], bounds: &[(f64, f64)], g: &[f64]) -> f64 {
    theta
        .iter()
        .zip(bounds)
        .zip(g)
        .filter(|((&t, &b), &gj)| !blocked(t, b, gj))
        .fold(0.0f64, |a, (_, gj)| a.max(gj.abs()))
}

/// BFGS update, in place, of the inverse Hessian `h` (row-major `m x m`)
/// of the negated objective from the step `s` and gradient change `y`,
/// with `rho = 1 / s^T y`: `H+ = (I - rho s y^T) H (I - rho y s^T) +
/// rho s s^T`. `hy` is scratch for `H y`. Returns `false` when the update
/// overflows, leaving `h` unusable.
fn bfgs_update(h: &mut [f64], s: &[f64], y: &[f64], rho: f64, hy: &mut [f64]) -> bool {
    let m = s.len();
    for (v, row) in hy.iter_mut().zip(h.chunks_exact(m)) {
        *v = dot(row, y);
    }
    let c = rho * rho * dot(y, hy) + rho;
    for (i, row) in h.chunks_exact_mut(m).enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            *v = *v - rho * (hy[i] * s[j] + s[i] * hy[j]) + c * s[i] * s[j];
        }
    }
    h.iter().all(|v| v.is_finite())
}

/// Projected BFGS ascent of `obj` from `theta0` inside the box `bounds`,
/// its quasi-Newton steps shaped by `h0` (a row-major `m x m` inverse
/// Hessian, such as the one a previous ascent ended with) from the first
/// iteration when one is given.
///
/// The gradient is only ever asked for at the point just accepted, right
/// after its value, so it reuses the factorization that value evaluation
/// built (see [`Objective::grad`]). Each iteration:
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
///    pair when no `h0` was given. The pair covers the coordinates that
///    moved: a fixed coordinate's gradient change says nothing about the
///    free subspace.
///
/// A quasi-Newton direction that is not an ascent direction, or whose line
/// search finds no increase, is dropped with its curvature history (an
/// inherited `h0` too), and one projected-gradient step is tried instead;
/// when that also fails, the ascent stops unconverged. So does reaching
/// `max_iters`.
///
/// Every vector of the state (point, gradient, inverse Hessian, line-search
/// candidate, curvature pair) is allocated once, here, and reused by every
/// iteration.
fn ascend(
    theta0: Vec<f64>,
    h0: Option<&[f64]>,
    bounds: &[(f64, f64)],
    max_iters: usize,
    grad_tol: f64,
    obj: &mut impl Objective,
) -> Ascent {
    let m = theta0.len();
    let mut theta = theta0;
    clamp_vec(&mut theta, bounds);
    let mut g = Vec::with_capacity(m);
    let start = obj
        .value(&theta)
        .filter(|f| f.is_finite())
        .filter(|_| obj.grad(&theta, &mut g) && g.iter().all(|v| v.is_finite()));
    let Some(mut f) = start else {
        return Ascent {
            theta,
            value: f64::NEG_INFINITY,
            iterations: 0,
            converged: false,
            pg_norm: f64::INFINITY,
            inv_hessian: None,
        };
    };
    // Inverse Hessian of -value, row-major; it stands for the identity
    // while `has_h` is false, until the first curvature pair arrives.
    let mut h = vec![0.0; m * m];
    let mut has_h = false;
    if let Some(h0) = h0 {
        h.copy_from_slice(h0);
        has_h = true;
    }
    let mut fixed = vec![false; m];
    let mut pg = vec![0.0; m];
    // Quasi-Newton direction; line-search candidate and the step to it;
    // the accepted candidate's gradient; gradient change and `H y`.
    let (mut d, mut cand, mut s) = (vec![0.0; m], vec![0.0; m], vec![0.0; m]);
    let mut gc = Vec::with_capacity(m);
    let (mut y, mut hy) = (vec![0.0; m], vec![0.0; m]);
    let mut iters = 0usize;
    let (converged, pg_norm) = loop {
        for j in 0..m {
            fixed[j] = blocked(theta[j], bounds[j], g[j]);
            pg[j] = if fixed[j] { 0.0 } else { g[j] };
        }
        let pg_norm = projected_norm(&theta, bounds, &g);
        if pg_norm < grad_tol {
            break (true, pg_norm);
        }
        if iters == max_iters {
            break (false, pg_norm);
        }
        iters += 1;
        // Armijo backtracking along `dir` from `alpha`: the accepted value,
        // with the point in `cand` and the step to it in `s`.
        let mut search = |dir: &[f64], mut alpha: f64, cand: &mut [f64], s: &mut [f64]| {
            for _ in 0..MAX_BACKTRACKS {
                for (j, c) in cand.iter_mut().enumerate() {
                    let (lo, hi) = bounds[j];
                    *c = (theta[j] + alpha * dir[j]).clamp(lo, hi);
                }
                if *cand == *theta {
                    return None;
                }
                for ((sj, c), t) in s.iter_mut().zip(&*cand).zip(&theta) {
                    *sj = c - t;
                }
                let rise = ARMIJO_C1 * dot(&g, s);
                if let Some(fc) = obj.value(cand).filter(|fc| fc.is_finite()) {
                    if fc > f && fc >= f + rise {
                        return Some(fc);
                    }
                }
                alpha *= 0.5;
            }
            None
        };
        let qn = has_h && {
            for (dj, row) in d.iter_mut().zip(h.chunks_exact(m)) {
                *dj = dot(row, &pg);
            }
            for (j, dj) in d.iter_mut().enumerate() {
                if fixed[j] || blocked(theta[j], bounds[j], *dj) {
                    *dj = 0.0;
                }
            }
            dot(&g, &d) > 0.0
        };
        let mut found = if qn {
            search(&d, 1.0, &mut cand, &mut s)
        } else {
            None
        };
        if found.is_none() {
            has_h = false;
            let alpha = (1.0 / dot(&pg, &pg).sqrt()).min(1.0);
            found = search(&pg, alpha, &mut cand, &mut s);
        }
        let Some(fc) = found else {
            break (false, pg_norm);
        };
        if !(obj.grad(&cand, &mut gc) && gc.iter().all(|v| v.is_finite())) {
            break (false, pg_norm);
        }
        // Curvature pair of -value over the coordinates that moved.
        for j in 0..m {
            y[j] = if s[j] == 0.0 { 0.0 } else { g[j] - gc[j] };
        }
        let sy = dot(&s, &y);
        let rho = 1.0 / sy;
        if sy > 0.0 && rho.is_finite() {
            if !has_h {
                let gamma = sy / dot(&y, &y);
                if gamma.is_finite() {
                    h.fill(0.0);
                    h.iter_mut().step_by(m + 1).for_each(|v| *v = gamma);
                    has_h = true;
                }
            }
            has_h = has_h && bfgs_update(&mut h, &s, &y, rho, &mut hy);
        }
        std::mem::swap(&mut theta, &mut cand);
        std::mem::swap(&mut g, &mut gc);
        f = fc;
    };
    Ascent {
        theta,
        value: f,
        iterations: iters,
        converged,
        pg_norm,
        inv_hessian: has_h.then_some(h),
    }
}

/// One restart's LML objective: its own kernel clone and [`LmlWorkspace`],
/// and the counts `gp.fit.done` reports. Each evaluation sets the kernel's
/// parameters once, value and gradient alike. [`projected_grad_norm`]
/// evaluates through it too, so its evaluations count as a fit's.
struct Restart<'a> {
    kernel: Box<dyn Kernel>,
    ws: LmlWorkspace<'a>,
    /// Number of kernel parameters at the front of `theta`.
    nk: usize,
    /// `sigma_n` when it is held fixed; `None` when it is `theta[nk]`'s exp.
    fixed_noise: Option<f64>,
    counts: Counts,
}

/// `sigma_n` at `theta`: `fixed_noise` when it is held fixed, else the
/// exp of the entry after the `nk` kernel log-parameters.
fn noise_at(theta: &[f64], nk: usize, fixed_noise: Option<f64>) -> f64 {
    fixed_noise.unwrap_or_else(|| theta[nk].exp())
}

impl Restart<'_> {
    /// Point the kernel at `theta`; returns `sigma_n` there.
    fn set(&mut self, theta: &[f64]) -> f64 {
        self.kernel.set_params(&theta[..self.nk]);
        noise_at(theta, self.nk, self.fixed_noise)
    }

    /// [`Objective::value`], keeping the workspace's error.
    fn try_value(&mut self, theta: &[f64]) -> Result<f64, LinalgError> {
        self.counts.values += 1;
        let noise = self.set(theta);
        self.ws.value(self.kernel.as_ref(), noise)
    }

    /// [`Objective::grad`], keeping the workspace's error.
    fn try_grad(&mut self, theta: &[f64], g: &mut Vec<f64>) -> Result<(), LinalgError> {
        self.counts.gradients += 1;
        let noise = self.set(theta);
        let optimize_noise = self.fixed_noise.is_none();
        self.ws
            .grad_into(self.kernel.as_ref(), noise, optimize_noise, g)
    }
}

impl Objective for Restart<'_> {
    fn value(&mut self, theta: &[f64]) -> Option<f64> {
        self.try_value(theta).ok()
    }

    fn grad(&mut self, theta: &[f64], g: &mut Vec<f64>) -> bool {
        self.try_grad(theta, g).is_ok()
    }
}

/// One restart's evaluation counts, and their sum over a fit.
#[derive(Default)]
struct Counts {
    values: usize,
    gradients: usize,
    jitter_retries: usize,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, c: Counts) {
        self.values += c.values;
        self.gradients += c.gradients;
        self.jitter_retries += c.jitter_retries;
    }
}

/// The log-space box [`fit_gpr`] searches on `n` training points: the
/// kernel bounds (or [`DEFAULT_BOUND`]), then `sigma_n`'s `[floor, upper]`
/// when the noise level is optimized.
fn search_box(config: &GprConfig, n: usize) -> Vec<(f64, f64)> {
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
    if config.optimize_noise {
        let noise_lo = config.noise_floor.lower_bound(n);
        bounds.push((noise_lo.ln(), config.noise_upper.ln()));
    }
    bounds
}

/// Log-space slack within which a hyperparameter counts as on its bound in
/// [`projected_grad_norm`]: a parameter [`fit_gpr`] clamped to a bound
/// comes back from the kernel (or `sigma_n`) through an `exp`/`ln` round
/// trip that can move it an ulp inside the box. The same relative `1e-9`
/// as `gp.fit.done`'s `noise_at_floor` test.
const ON_BOUND: f64 = 1e-9;

/// Infinity norm of the projected LML gradient at `model`'s
/// hyperparameters, on the model's own training set, in the box
/// [`fit_gpr`] would search under `config` at that size, shrunk by 1e-9
/// so that a hyperparameter clamped to a bound counts as on it: the
/// statistic the ascent stops on once it falls below `grad_tol`.
///
/// Costs one LML value and one gradient evaluation (`O(n^3)`), made as a
/// fit's restart makes them: each sets a clone of the model's kernel to
/// the model's hyperparameters, so a kernel that counts `set_params` calls
/// counts them as two LML evaluations.
///
/// # Errors
/// [`GpError::Linalg`] when `model`'s kernel has no distance form, when
/// the covariance cannot be factored even with jitter, or when the
/// gradient is not finite.
pub fn projected_grad_norm(model: &Gpr, config: &GprConfig) -> Result<f64, GpError> {
    let kernel = model.kernel();
    let mut theta = kernel.params();
    let fixed_noise = if config.optimize_noise {
        theta.push(model.noise_std().ln());
        None
    } else {
        Some(model.noise_std())
    };
    let cache = FitCache::build(kernel, model.x_train());
    let mut obj = Restart {
        kernel: kernel.clone_box(),
        ws: LmlWorkspace::new(&cache, model.y_std())?,
        nk: kernel.n_params(),
        fixed_noise,
        counts: Counts::default(),
    };
    obj.try_value(&theta)?;
    let mut g = Vec::new();
    obj.try_grad(&theta, &mut g)?;
    if g.iter().any(|v| !v.is_finite()) {
        return Err(GpError::Linalg(LinalgError::NonFinite { op: "lml_grad" }));
    }
    let inner: Vec<(f64, f64)> = search_box(config, model.n_train())
        .into_iter()
        .map(|(lo, hi)| (lo + ON_BOUND, hi - ON_BOUND))
        .collect();
    Ok(projected_norm(&theta, &inner, &g))
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
    fit_gpr_warm(x, y, config, None)
}

/// [`fit_gpr`] whose first restart (the configured initial point) takes its
/// quasi-Newton steps from `inv_hessian`, an inverse Hessian such as
/// [`OptimOutcome::inv_hessian`] of an earlier fit, instead of building its
/// curvature up from a scaled identity. An `inv_hessian` of the wrong size
/// for the search box is ignored; a direction it shapes that does not
/// ascend falls back to a projected-gradient step, as any stale curvature
/// does. The later restarts start from the identity as in [`fit_gpr`].
///
/// # Errors
/// As [`fit_gpr`].
pub fn fit_gpr_warm(
    x: &Matrix,
    y: &[f64],
    config: &GprConfig,
    inv_hessian: Option<&[f64]>,
) -> Result<(Gpr, OptimOutcome), GpError> {
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
    let bounds = search_box(config, x.nrows());
    let inherited = inv_hessian.filter(|h| h.len() == bounds.len() * bounds.len());
    let noise_lo = config.noise_floor.lower_bound(x.nrows());

    if config.kernel.distance_form().is_none() {
        return Err(GpError::Dimension(
            "the kernel has no distance form, so its LML gradient cannot be formed".into(),
        ));
    }
    // The distance matrices depend only on X, which is fixed for the whole
    // multi-restart optimization: build them once and share across every
    // LML evaluation of every restart.
    let cache = FitCache::build(config.kernel.as_ref(), x);

    // Restart 0 starts from the configured kernel, every later one from a
    // point drawn inside the box by the seeded RNG. Each restart evaluates
    // the LML in a workspace of its own, through the shared distance cache:
    // a value evaluation (one Cholesky) per line-search probe, and the
    // O(n^3) gradient (lower triangle of K_y^{-1}) only at accepted points,
    // from the state the accepted point's value evaluation left — no
    // re-assembly or re-factorization at the same theta, and no allocation
    // in either. The first restart with the largest finite LML wins.
    let restarts = config.restarts.max(1);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let fixed_noise =
        (!config.optimize_noise).then(|| config.noise_floor.clamp(config.noise_init, x.nrows()));
    let mut counts = Counts::default();
    let mut best: Option<(usize, Ascent)> = None;
    for r in 0..restarts {
        let theta0: Vec<f64> = if r == 0 {
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
        };
        let _restart_span = alperf_obs::span("gp.fit.restart");
        let mut obj = Restart {
            kernel: config.kernel.clone_box(),
            ws: LmlWorkspace::new(&cache, &y_std)?,
            nk,
            fixed_noise,
            counts: Counts::default(),
        };
        let h0 = if r == 0 { inherited } else { None };
        let a = ascend(
            theta0,
            h0,
            &bounds,
            config.max_iters,
            config.grad_tol,
            &mut obj,
        );
        obj.counts.jitter_retries = obj.ws.jitter_retries();
        counts += obj.counts;
        let better = match &best {
            Some((_, b)) => a.value > b.value,
            None => a.value.is_finite(),
        };
        if better {
            best = Some((r, a));
        }
    }
    let total_evals = counts.values + counts.gradients;
    let (best_restart, won) = best.ok_or_else(|| {
        GpError::Dimension("all optimizer restarts failed to produce a finite LML".into())
    })?;

    let mut kernel = config.kernel.clone_box();
    kernel.set_params(&won.theta[..nk]);
    let noise = noise_at(&won.theta, nk, fixed_noise);
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
            ("values", alperf_obs::Value::U64(counts.values as u64)),
            ("gradients", alperf_obs::Value::U64(counts.gradients as u64)),
            (
                "jitter_retries",
                alperf_obs::Value::U64(counts.jitter_retries as u64),
            ),
            ("iterations", alperf_obs::Value::U64(won.iterations as u64)),
            ("pg_norm", alperf_obs::Value::F64(won.pg_norm)),
            ("converged", alperf_obs::Value::Bool(won.converged)),
            ("noise", alperf_obs::Value::F64(noise)),
            ("noise_at_floor", alperf_obs::Value::Bool(noise_at_floor)),
            ("theta", alperf_obs::Value::F64s(&won.theta)),
            ("inherited_h", alperf_obs::Value::Bool(inherited.is_some())),
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
            inv_hessian: won.inv_hessian,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SquaredExponential;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

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
        let init = crate::lml::lml_value(
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

    /// Kernel that fails (NaN covariance -> `NonFinite` -> restart yields
    /// `-inf`) whenever its length scale is below a threshold: random
    /// restarts landing there fail to converge.
    #[derive(Clone)]
    struct Fragile(SquaredExponential);

    impl Fragile {
        fn broken(&self) -> bool {
            self.0.length_scale < 0.5
        }
    }

    impl Kernel for Fragile {
        fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
            if self.broken() {
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
        /// The SE form, with a NaN amplitude below the threshold, so the
        /// fit's covariance is non-finite there too.
        fn distance_form(&self) -> Option<crate::kernel::DistanceForm> {
            let mut form = self.0.distance_form()?;
            if let crate::kernel::DistanceForm::IsoSe { sf2, .. } = &mut form {
                if self.broken() {
                    *sf2 = f64::NAN;
                }
            }
            Some(form)
        }
    }

    #[test]
    fn failing_restarts_are_skipped() {
        let (x, y) = noisy_data(18, 4);
        // With l-bounds spanning [1e-5, 1e5], roughly half the random
        // starts draw l < 0.5 and fail outright; restart 0 (l = 2) succeeds.
        let base = GprConfig::new(Box::new(Fragile(SquaredExponential::new(2.0, 1.0))))
            .with_restarts(8)
            .with_seed(13);
        let (model, out) = fit_gpr(&x, &y, &base).unwrap();
        assert!(out.lml.is_finite());
        assert!(out.best_restart < 8);
        // The winner sits where the kernel is intact, and no failed restart
        // displaced a finite one.
        assert!(
            out.theta[0].exp() >= 0.5,
            "winner l = {}",
            out.theta[0].exp()
        );
        assert!(model.noise_std().is_finite());
        let (_, first) = fit_gpr(&x, &y, &base.with_restarts(1)).unwrap();
        assert!(out.lml >= first.lml);
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
        /// The quadratic centred on `.0` with gradient `.1`.
        struct Quadratic<F>([f64; 2], F);
        impl<F: Fn(&[f64]) -> Vec<f64>> Objective for Quadratic<F> {
            fn value(&mut self, t: &[f64]) -> Option<f64> {
                let (c, g) = (self.0, (self.1)(t));
                Some(0.5 * ((t[0] - c[0]) * g[0] + (t[1] - c[1]) * g[1]))
            }
            fn grad(&mut self, t: &[f64], g: &mut Vec<f64>) -> bool {
                g.clear();
                g.extend((self.1)(t));
                true
            }
        }
        // Coordinate 0 rests on its upper bound; coordinate 1 maximizes
        // the objective along that face.
        let opt = [1.0, c[1] - a[1][0] * (1.0 - c[0]) / a[1][1]];
        assert!(grad_at(&opt)[0] > 0.0, "fixture: gradient must point out");
        let bounds = [(-1.0, 1.0); 2];
        let out = ascend(
            vec![-0.9, 0.8],
            None,
            &bounds,
            200,
            1e-9,
            &mut Quadratic(c, grad_at),
        );
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

    /// At a fit's optimum the statistic is the ascent's own stopping
    /// statistic, also with `sigma_n` clamped to its floor (an `exp`/`ln`
    /// round trip away from the bound); adding points from a much wigglier
    /// function makes it large.
    #[test]
    fn projected_grad_norm_is_the_ascents_stopping_statistic() {
        let (x, y) = noisy_data(30, 5);
        for floor in [NoiseFloor::Fixed(1e-3), NoiseFloor::Fixed(0.9)] {
            let cfg = GprConfig::new(Box::new(SquaredExponential::unit()))
                .with_noise_floor(floor)
                .with_restarts(2)
                .with_standardize(false);
            let (model, out) = fit_gpr(&x, &y, &cfg).unwrap();
            assert!(out.converged, "{out:?}");
            let pg = projected_grad_norm(&model, &cfg).unwrap();
            assert!((pg - out.pg_norm).abs() <= 1e-9, "{pg} vs {}", out.pg_norm);
            assert!(pg < cfg.grad_tol, "{pg}");
        }
        // The 0.9 floor binds: sigma_n sits on it and its gradient points
        // out of the box.
        let cfg = GprConfig::new(Box::new(SquaredExponential::unit()))
            .with_noise_floor(NoiseFloor::Fixed(0.9))
            .with_standardize(false);
        let (model, _) = fit_gpr(&x, &y, &cfg).unwrap();
        assert!(model.noise_std() <= 0.9 * (1.0 + 1e-9));
        // Grown by points of a function with a tenth of the length scale,
        // at the same hyperparameters: the gradient says they are stale.
        let extra: Vec<f64> = (0..10).map(|i| 0.2 + i as f64 * 1.1).collect();
        let mut xs = x.clone();
        let mut ys = y.clone();
        for v in &extra {
            xs = xs.with_row(&[*v]).unwrap();
            ys.push((7.0 * v).sin() * 3.0);
        }
        let kernel = model.kernel().clone_box();
        let grown = Gpr::fit(xs, &ys, kernel, model.noise_std(), false).unwrap();
        assert!(projected_grad_norm(&grown, &cfg).unwrap() > 1.0);
    }

    /// Squared exponential whose clones share one count of `set_params`
    /// calls.
    #[derive(Clone)]
    struct Counted(SquaredExponential, Arc<AtomicUsize>);

    impl Kernel for Counted {
        fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
            self.0.eval(a, b)
        }
        fn n_params(&self) -> usize {
            self.0.n_params()
        }
        fn params(&self) -> Vec<f64> {
            self.0.params()
        }
        fn set_params(&mut self, p: &[f64]) {
            self.1.fetch_add(1, Ordering::Relaxed);
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
        fn distance_form(&self) -> Option<crate::kernel::DistanceForm> {
            self.0.distance_form()
        }
    }

    /// The statistic's value and gradient evaluations each set the
    /// kernel's parameters once, as a fit's are, so a kernel that counts
    /// `set_params` calls counts the test as two LML evaluations; the
    /// model's own kernel is not touched.
    #[test]
    fn projected_grad_norm_counts_as_two_lml_evaluations() {
        let (x, y) = noisy_data(20, 3);
        let calls = Arc::new(AtomicUsize::new(0));
        let kernel = Counted(SquaredExponential::new(1.3, 0.9), calls.clone());
        let model = Gpr::fit(x, &y, Box::new(kernel.clone()), 0.2, false).unwrap();
        let before = model.kernel().params();
        for optimize_noise in [true, false] {
            let mut cfg = GprConfig::new(Box::new(kernel.clone())).with_standardize(false);
            cfg.optimize_noise = optimize_noise;
            calls.store(0, Ordering::Relaxed);
            let pg = projected_grad_norm(&model, &cfg).unwrap();
            assert!(pg.is_finite() && pg > 0.0, "{pg}");
            assert_eq!(calls.load(Ordering::Relaxed), 2);
        }
        assert_eq!(model.kernel().params(), before);
    }

    /// A re-fit on one more point, from the previous optimum, reaches the
    /// same optimum in fewer evaluations when its ascent starts from the
    /// previous fit's inverse Hessian. One of the wrong size is ignored, and
    /// one whose direction descends is dropped for the projected-gradient
    /// step an identity start takes first, so both fits equal the
    /// identity-started one bit for bit.
    #[test]
    fn warm_fit_steps_by_the_inherited_inverse_hessian() {
        let (x, y) = noisy_data(40, 2);
        let cfg = GprConfig::new(Box::new(SquaredExponential::unit()))
            .with_restarts(2)
            .with_standardize(false)
            .with_seed(3);
        let head: Vec<usize> = (0..39).collect();
        let (_, prev) = fit_gpr(&x.select_rows(&head), &y[..39], &cfg).unwrap();
        let h = prev
            .inv_hessian
            .clone()
            .expect("the winner ends with curvature");
        assert_eq!(h.len(), 9);
        let mut warm_cfg = cfg.clone().with_restarts(1);
        warm_cfg.kernel.set_params(&prev.theta[..2]);
        warm_cfg.noise_init = prev.theta[2].exp();
        let (_, identity) = fit_gpr(&x, &y, &warm_cfg).unwrap();
        let (_, warm) = fit_gpr_warm(&x, &y, &warm_cfg, Some(&h)).unwrap();
        assert!(identity.converged && warm.converged);
        assert!(
            warm.evaluations < identity.evaluations,
            "{} vs {} evaluations",
            warm.evaluations,
            identity.evaluations
        );
        assert!(
            (warm.lml - identity.lml).abs() < 1e-6,
            "{warm:?} vs {identity:?}"
        );
        let misshapen = fit_gpr_warm(&x, &y, &warm_cfg, Some(&h[..4])).unwrap().1;
        assert_eq!(misshapen, identity);
        let minus_identity = [-1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, -1.0];
        let downhill = fit_gpr_warm(&x, &y, &warm_cfg, Some(&minus_identity))
            .unwrap()
            .1;
        assert_eq!(downhill, identity);
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
