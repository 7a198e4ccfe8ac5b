//! Covariance functions with analytic gradients in log-parameter space.
//!
//! The paper (Eq. 11) uses the squared exponential
//! `k(x_p, x_q) = sigma_f^2 exp(-|x_p - x_q|^2 / (2 l^2))` with
//! hyperparameters `l` (length scale) and `sigma_f` (amplitude). All
//! hyperparameters here are strictly positive, so optimization works on
//! `theta = log(param)`: positivity is automatic and the LML landscape
//! (paper Figs. 4, 5b) is plotted in the same coordinates.
//!
//! Every kernel reports `d k / d theta_j` analytically; `lml::lml_and_grad`
//! assembles those into the marginal-likelihood gradient. Gradient formulas
//! are verified against central finite differences in the tests below.

use alperf_linalg::matrix::Matrix;

/// A positive-definite covariance function over `R^d`.
///
/// Implementations must be cheap to clone (they hold only hyperparameters)
/// and `Send + Sync` so a config or model holding one can cross the threads
/// of `alperf_linalg::threads::replicates`.
pub trait Kernel: Send + Sync {
    /// Covariance `k(a, b)`.
    fn eval(&self, a: &[f64], b: &[f64]) -> f64;

    /// Cross-covariance matrix `K[i, j] = k(a_i, b_j)` over the rows of `a`
    /// and `b`. The default evaluates pointwise on the calling thread;
    /// squared-exponential kernels override it with a blocked-matmul
    /// formulation that is an order of magnitude faster for batched
    /// prediction.
    fn cross_matrix(&self, a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.nrows(), b.nrows(), |i, j| self.eval(a.row(i), b.row(j)))
    }

    /// Prior variance at a point, `k(a, a)`. Kernels for which this is a
    /// constant can skip the distance computation.
    fn diag_value(&self, a: &[f64]) -> f64 {
        self.eval(a, a)
    }

    /// Number of tunable hyperparameters.
    fn n_params(&self) -> usize;

    /// Current hyperparameters as `log(param)` values.
    fn params(&self) -> Vec<f64>;

    /// Overwrite hyperparameters from `log(param)` values.
    ///
    /// # Panics
    /// Panics if `p.len() != self.n_params()`.
    fn set_params(&mut self, p: &[f64]);

    /// Human-readable names matching [`Kernel::params`] order.
    fn param_names(&self) -> Vec<String>;

    /// Gradient `[d k(a,b) / d theta_j]` where `theta_j = log(param_j)`.
    fn grad(&self, a: &[f64], b: &[f64]) -> Vec<f64>;

    /// Gradient of the covariance with respect to the *first input*:
    /// `[d k(a, b) / d a_d]`, or `None` where a kernel has none. No
    /// workspace kernel implements it and nothing here calls it (the
    /// continuous acquisition search is derivative-free); perfbench's
    /// `CountingKernel` forwards it.
    fn grad_x(&self, _a: &[f64], _b: &[f64]) -> Option<Vec<f64>> {
        None
    }

    /// Clone into a boxed trait object.
    fn clone_box(&self) -> Box<dyn Kernel>;

    /// Squared-distance parameterization of this kernel, if it has one.
    ///
    /// Every stationary kernel here is a function of the (per-dimension,
    /// for ARD) pairwise squared distances *only*, so during
    /// hyperparameter optimization — where the training inputs are fixed
    /// while `theta` changes at every line-search step — the distance
    /// matrices are computed once per fit (`lml::FitCache`) and every
    /// covariance rebuild and gradient contraction reads them
    /// (`lml::LmlWorkspace`): a vectorized scale-and-exp for the SE forms,
    /// one scalar formula per pair for the Matérn and rational-quadratic
    /// forms. The LML gradient is formed from the form alone, so
    /// `optimize::fit_gpr` rejects a kernel that returns `None` (the
    /// default).
    fn distance_form(&self) -> Option<DistanceForm> {
        None
    }
}

/// How a kernel depends on pairwise squared distances (see
/// [`Kernel::distance_form`]). Values reflect the kernel's *current*
/// hyperparameters; the structure (which variant) is invariant under
/// `set_params`, which is what makes per-fit distance caching sound.
///
/// The radial variants (Matérn, rational quadratic) are evaluated one pair
/// at a time by `radial_parts`, `radial_value` and `radial_grad`, which are
/// the very functions the kernels' own `eval` and `grad` call, so the
/// fit's covariance and gradient are bit-identical to pointwise
/// evaluation. The SE variants are evaluated in bulk through the
/// vectorized exponential instead.
#[derive(Debug, Clone, PartialEq)]
pub enum DistanceForm {
    /// `k = sf2 * exp(-0.5 * d2 / l^2)` over the total squared distance,
    /// with params `[log l, log sf]`.
    IsoSe {
        /// Length scale `l`.
        length_scale: f64,
        /// Amplitude *variance* `sigma_f^2`.
        sf2: f64,
    },
    /// `k = sf2 * exp(-0.5 * sum_d d2_d / l_d^2)` over per-dimension
    /// squared distances, with params `[log l_1, ..., log l_d, log sf]`.
    ArdSe {
        /// Per-dimension length scales.
        length_scales: Vec<f64>,
        /// Amplitude *variance* `sigma_f^2`.
        sf2: f64,
    },
    /// Matérn 3/2, `k = sf2 (1 + s) exp(-s)` with `s = sqrt(3) r / l` and
    /// `r = sqrt(d2)`, params `[log l, log sf]`.
    Matern32 {
        /// Length scale `l`.
        length_scale: f64,
        /// Amplitude *variance* `sigma_f^2`.
        sf2: f64,
    },
    /// Matérn 5/2, `k = sf2 (1 + s + s^2/3) exp(-s)` with
    /// `s = sqrt(5) r / l`, params `[log l, log sf]`.
    Matern52 {
        /// Length scale `l`.
        length_scale: f64,
        /// Amplitude *variance* `sigma_f^2`.
        sf2: f64,
    },
    /// Rational quadratic, `k = sf^2 (1 + d2 / (2 alpha l^2))^{-alpha}`,
    /// params `[log l, log sf, log alpha]`.
    RationalQuadratic {
        /// Length scale `l`.
        length_scale: f64,
        /// Amplitude `sigma_f` (its gradient multiplies it in twice, so
        /// the variance alone would not reproduce `grad`'s rounding).
        amplitude: f64,
        /// Scale-mixture parameter `alpha`.
        alpha: f64,
    },
}

impl DistanceForm {
    /// Whether this is a radial variant (Matérn or rational quadratic),
    /// the ones the `radial_*` methods evaluate.
    pub fn is_radial(&self) -> bool {
        !matches!(
            self,
            DistanceForm::IsoSe { .. } | DistanceForm::ArdSe { .. }
        )
    }

    /// The two intermediates a radial pair's covariance and gradient
    /// share, at squared distance `d2`: `(s, exp(-s))` with `s = sqrt(3)
    /// r / l` or `sqrt(5) r / l` for Matérn, `(u, (1 + u)^(-alpha))` with
    /// `u = d2 / (2 alpha l^2)` for RQ. All of a pair's divisions, roots
    /// and transcendentals happen here. NaN for the SE variants.
    #[inline]
    pub(crate) fn radial_parts(&self, d2: f64) -> (f64, f64) {
        match *self {
            DistanceForm::Matern32 { length_scale, .. } => {
                let s = 3f64.sqrt() * d2.sqrt() / length_scale;
                (s, (-s).exp())
            }
            DistanceForm::Matern52 { length_scale, .. } => {
                let s = 5f64.sqrt() * d2.sqrt() / length_scale;
                (s, (-s).exp())
            }
            DistanceForm::RationalQuadratic {
                length_scale,
                alpha,
                ..
            } => {
                let u = d2 / (2.0 * alpha * length_scale * length_scale);
                (u, (1.0 + u).powf(-alpha))
            }
            DistanceForm::IsoSe { .. } | DistanceForm::ArdSe { .. } => (f64::NAN, f64::NAN),
        }
    }

    /// Covariance of a pair from its [`Self::radial_parts`] `(t, e)`. NaN
    /// for the SE variants.
    #[inline]
    pub(crate) fn radial_value(&self, t: f64, e: f64) -> f64 {
        match *self {
            DistanceForm::Matern32 { sf2, .. } => sf2 * (1.0 + t) * e,
            DistanceForm::Matern52 { sf2, .. } => sf2 * (1.0 + t + t * t / 3.0) * e,
            DistanceForm::RationalQuadratic { amplitude, .. } => amplitude * amplitude * e,
            DistanceForm::IsoSe { .. } | DistanceForm::ArdSe { .. } => f64::NAN,
        }
    }

    /// Log-parameter gradient `[d k / d theta_j]` of a pair from its
    /// [`Self::radial_parts`] `(t, e)`, padded with zeros to three entries
    /// (Matérn has two parameters, RQ three). NaN for the SE variants.
    #[inline]
    pub(crate) fn radial_grad(&self, t: f64, e: f64) -> [f64; 3] {
        match *self {
            DistanceForm::Matern32 { sf2, .. } => {
                // d k / d log l = sigma_f^2 s^2 exp(-s)
                let dl = sf2 * t * t * e;
                [dl, 2.0 * (sf2 * (1.0 + t) * e), 0.0]
            }
            DistanceForm::Matern52 { sf2, .. } => {
                // d k / d s = -sigma_f^2 e^{-s} s (1 + s) / 3 ;
                // d s / d log l = -s  =>  d k / d log l = sigma_f^2 e^{-s} s^2 (1+s)/3
                let dl = sf2 * e * t * t * (1.0 + t) / 3.0;
                [dl, 2.0 * (sf2 * (1.0 + t + t * t / 3.0) * e), 0.0]
            }
            DistanceForm::RationalQuadratic {
                amplitude, alpha, ..
            } => {
                let base = 1.0 + t;
                let k = amplitude * amplitude * e;
                // d k / d log l = 2 alpha sigma_f^2 u (1+u)^{-alpha-1}
                let dl = 2.0 * alpha * amplitude * amplitude * t * base.powf(-alpha - 1.0);
                // d k / d log alpha = k * alpha * (u/(1+u) - ln(1+u))
                let da = k * alpha * (t / base - base.ln());
                [dl, 2.0 * k, da]
            }
            DistanceForm::IsoSe { .. } | DistanceForm::ArdSe { .. } => [f64::NAN; 3],
        }
    }
}

impl Clone for Box<dyn Kernel> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Squared-exponential cross-covariance via the squared-distance identity
/// `|u - v|^2 = |u|^2 + |v|^2 - 2 u.v` applied to inputs pre-scaled by the
/// inverse length scales. The Gram term `u.v` goes through the cache-blocked
/// (and, for large outputs, parallel) [`Matrix::matmul`], turning the
/// `O(m n d)` pointwise evaluation into one matmul plus `O(m n)` exps.
///
/// Numerics: the identity cancels catastrophically only when `|u - v|` is
/// tiny, exactly where `exp(-q/2) ~ 1` is insensitive to the error; the
/// `max(0, .)` clamp removes the negative-`q` case. Agreement with the
/// pointwise path is ~1e-13 relative, well inside the 1e-10 contract of
/// `Gpr::predict_batch`.
fn se_cross(a: &Matrix, b: &Matrix, inv_scales: &[f64], sf2: f64) -> Matrix {
    let scale =
        |m: &Matrix| Matrix::from_fn(m.nrows(), m.ncols(), |i, j| m[(i, j)] * inv_scales[j]);
    let sa = scale(a);
    let sb = scale(b);
    let na = sa.row_sq_norms();
    let nb = sb.row_sq_norms();
    let mut out = sa
        .matmul(&sb.transpose())
        .expect("scaled inputs share the input dimension");
    for (i, &ni) in na.iter().enumerate() {
        for (v, &nj) in out.row_mut(i).iter_mut().zip(&nb) {
            *v = -0.5 * (ni + nj - 2.0 * *v).max(0.0);
        }
    }
    // Vectorized exp over the whole block; exp(0) is exact, so entries at
    // zero distance are exactly sf2, matching the pointwise path.
    alperf_linalg::fastmath::exp_inplace_scaled(out.as_mut_slice(), sf2);
    out
}

/// Isotropic squared exponential (RBF), Eq. 11 of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct SquaredExponential {
    /// Length scale `l > 0`.
    pub length_scale: f64,
    /// Amplitude `sigma_f > 0` (the *standard deviation*, not variance).
    pub amplitude: f64,
}

impl SquaredExponential {
    /// New kernel; panics on non-positive hyperparameters.
    pub fn new(length_scale: f64, amplitude: f64) -> Self {
        assert!(
            length_scale > 0.0 && amplitude > 0.0,
            "hyperparameters must be positive"
        );
        SquaredExponential {
            length_scale,
            amplitude,
        }
    }

    /// Unit kernel (`l = 1`, `sigma_f = 1`) — the customary optimizer seed.
    pub fn unit() -> Self {
        Self::new(1.0, 1.0)
    }
}

impl Kernel for SquaredExponential {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let r2 = alperf_linalg::vector::sq_dist(a, b);
        let sf2 = self.amplitude * self.amplitude;
        sf2 * (-r2 / (2.0 * self.length_scale * self.length_scale)).exp()
    }

    fn cross_matrix(&self, a: &Matrix, b: &Matrix) -> Matrix {
        let inv = vec![1.0 / self.length_scale; a.ncols()];
        se_cross(a, b, &inv, self.amplitude * self.amplitude)
    }

    fn diag_value(&self, _a: &[f64]) -> f64 {
        self.amplitude * self.amplitude
    }

    fn n_params(&self) -> usize {
        2
    }

    fn params(&self) -> Vec<f64> {
        vec![self.length_scale.ln(), self.amplitude.ln()]
    }

    fn set_params(&mut self, p: &[f64]) {
        assert_eq!(p.len(), 2, "SquaredExponential has 2 params");
        self.length_scale = p[0].exp();
        self.amplitude = p[1].exp();
    }

    fn param_names(&self) -> Vec<String> {
        vec!["log_length_scale".into(), "log_amplitude".into()]
    }

    fn grad(&self, a: &[f64], b: &[f64]) -> Vec<f64> {
        let r2 = alperf_linalg::vector::sq_dist(a, b);
        let l2 = self.length_scale * self.length_scale;
        let k = self.amplitude * self.amplitude * (-r2 / (2.0 * l2)).exp();
        // d k / d log l = k * r^2 / l^2 ; d k / d log sigma_f = 2 k.
        vec![k * r2 / l2, 2.0 * k]
    }

    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(self.clone())
    }

    fn distance_form(&self) -> Option<DistanceForm> {
        Some(DistanceForm::IsoSe {
            length_scale: self.length_scale,
            sf2: self.amplitude * self.amplitude,
        })
    }
}

/// Squared exponential with Automatic Relevance Determination: one length
/// scale per input dimension. The paper's future-work section motivates this
/// for higher-dimensional parameter spaces.
#[derive(Debug, Clone, PartialEq)]
pub struct ArdSquaredExponential {
    /// Per-dimension length scales, all `> 0`.
    pub length_scales: Vec<f64>,
    /// Amplitude `sigma_f > 0`.
    pub amplitude: f64,
}

impl ArdSquaredExponential {
    /// New ARD kernel; panics on non-positive hyperparameters or empty scales.
    pub fn new(length_scales: Vec<f64>, amplitude: f64) -> Self {
        assert!(!length_scales.is_empty(), "need at least one dimension");
        assert!(
            length_scales.iter().all(|&l| l > 0.0) && amplitude > 0.0,
            "hyperparameters must be positive"
        );
        ArdSquaredExponential {
            length_scales,
            amplitude,
        }
    }

    /// Unit ARD kernel for `dim` input dimensions.
    pub fn unit(dim: usize) -> Self {
        Self::new(vec![1.0; dim], 1.0)
    }
}

impl Kernel for ArdSquaredExponential {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), self.length_scales.len(), "dimension mismatch");
        let mut q = 0.0;
        for ((ai, bi), l) in a.iter().zip(b).zip(&self.length_scales) {
            let d = (ai - bi) / l;
            q += d * d;
        }
        self.amplitude * self.amplitude * (-0.5 * q).exp()
    }

    fn cross_matrix(&self, a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.ncols(), self.length_scales.len(), "dimension mismatch");
        let inv: Vec<f64> = self.length_scales.iter().map(|l| 1.0 / l).collect();
        se_cross(a, b, &inv, self.amplitude * self.amplitude)
    }

    fn diag_value(&self, _a: &[f64]) -> f64 {
        self.amplitude * self.amplitude
    }

    fn n_params(&self) -> usize {
        self.length_scales.len() + 1
    }

    fn params(&self) -> Vec<f64> {
        let mut p: Vec<f64> = self.length_scales.iter().map(|l| l.ln()).collect();
        p.push(self.amplitude.ln());
        p
    }

    fn set_params(&mut self, p: &[f64]) {
        assert_eq!(p.len(), self.n_params(), "ARD-SE param count mismatch");
        for (l, &pi) in self.length_scales.iter_mut().zip(p) {
            *l = pi.exp();
        }
        self.amplitude = p[p.len() - 1].exp();
    }

    fn param_names(&self) -> Vec<String> {
        let mut names: Vec<String> = (0..self.length_scales.len())
            .map(|d| format!("log_length_scale_{d}"))
            .collect();
        names.push("log_amplitude".into());
        names
    }

    fn grad(&self, a: &[f64], b: &[f64]) -> Vec<f64> {
        let k = self.eval(a, b);
        let mut g = Vec::with_capacity(self.n_params());
        for ((ai, bi), l) in a.iter().zip(b).zip(&self.length_scales) {
            let d = (ai - bi) / l;
            // d k / d log l_d = k * ((a_d - b_d)/l_d)^2
            g.push(k * d * d);
        }
        g.push(2.0 * k);
        g
    }

    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(self.clone())
    }

    fn distance_form(&self) -> Option<DistanceForm> {
        Some(DistanceForm::ArdSe {
            length_scales: self.length_scales.clone(),
            sf2: self.amplitude * self.amplitude,
        })
    }
}

/// Matérn covariance with `nu = 3/2`:
/// `k = sigma_f^2 (1 + s) exp(-s)`, `s = sqrt(3) r / l`.
///
/// Once-differentiable sample paths — a better prior than the squared
/// exponential for performance surfaces with kinks (cache-capacity cliffs,
/// NUMA transitions).
#[derive(Debug, Clone, PartialEq)]
pub struct Matern32 {
    /// Length scale `l > 0`.
    pub length_scale: f64,
    /// Amplitude `sigma_f > 0`.
    pub amplitude: f64,
}

impl Matern32 {
    /// New kernel; panics on non-positive hyperparameters.
    pub fn new(length_scale: f64, amplitude: f64) -> Self {
        assert!(
            length_scale > 0.0 && amplitude > 0.0,
            "hyperparameters must be positive"
        );
        Matern32 {
            length_scale,
            amplitude,
        }
    }
}

impl Matern32 {
    fn form(&self) -> DistanceForm {
        DistanceForm::Matern32 {
            length_scale: self.length_scale,
            sf2: self.amplitude * self.amplitude,
        }
    }
}

impl Kernel for Matern32 {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let form = self.form();
        let (t, e) = form.radial_parts(alperf_linalg::vector::sq_dist(a, b));
        form.radial_value(t, e)
    }

    fn diag_value(&self, _a: &[f64]) -> f64 {
        self.amplitude * self.amplitude
    }

    fn n_params(&self) -> usize {
        2
    }

    fn params(&self) -> Vec<f64> {
        vec![self.length_scale.ln(), self.amplitude.ln()]
    }

    fn set_params(&mut self, p: &[f64]) {
        assert_eq!(p.len(), 2, "Matern32 has 2 params");
        self.length_scale = p[0].exp();
        self.amplitude = p[1].exp();
    }

    fn param_names(&self) -> Vec<String> {
        vec!["log_length_scale".into(), "log_amplitude".into()]
    }

    fn grad(&self, a: &[f64], b: &[f64]) -> Vec<f64> {
        let form = self.form();
        let (t, e) = form.radial_parts(alperf_linalg::vector::sq_dist(a, b));
        form.radial_grad(t, e)[..2].to_vec()
    }

    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(self.clone())
    }

    fn distance_form(&self) -> Option<DistanceForm> {
        Some(self.form())
    }
}

/// Matérn covariance with `nu = 5/2`:
/// `k = sigma_f^2 (1 + s + s^2/3) exp(-s)`, `s = sqrt(5) r / l`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matern52 {
    /// Length scale `l > 0`.
    pub length_scale: f64,
    /// Amplitude `sigma_f > 0`.
    pub amplitude: f64,
}

impl Matern52 {
    /// New kernel; panics on non-positive hyperparameters.
    pub fn new(length_scale: f64, amplitude: f64) -> Self {
        assert!(
            length_scale > 0.0 && amplitude > 0.0,
            "hyperparameters must be positive"
        );
        Matern52 {
            length_scale,
            amplitude,
        }
    }
}

impl Matern52 {
    fn form(&self) -> DistanceForm {
        DistanceForm::Matern52 {
            length_scale: self.length_scale,
            sf2: self.amplitude * self.amplitude,
        }
    }
}

impl Kernel for Matern52 {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let form = self.form();
        let (t, e) = form.radial_parts(alperf_linalg::vector::sq_dist(a, b));
        form.radial_value(t, e)
    }

    fn diag_value(&self, _a: &[f64]) -> f64 {
        self.amplitude * self.amplitude
    }

    fn n_params(&self) -> usize {
        2
    }

    fn params(&self) -> Vec<f64> {
        vec![self.length_scale.ln(), self.amplitude.ln()]
    }

    fn set_params(&mut self, p: &[f64]) {
        assert_eq!(p.len(), 2, "Matern52 has 2 params");
        self.length_scale = p[0].exp();
        self.amplitude = p[1].exp();
    }

    fn param_names(&self) -> Vec<String> {
        vec!["log_length_scale".into(), "log_amplitude".into()]
    }

    fn grad(&self, a: &[f64], b: &[f64]) -> Vec<f64> {
        let form = self.form();
        let (t, e) = form.radial_parts(alperf_linalg::vector::sq_dist(a, b));
        form.radial_grad(t, e)[..2].to_vec()
    }

    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(self.clone())
    }

    fn distance_form(&self) -> Option<DistanceForm> {
        Some(self.form())
    }
}

/// Rational quadratic:
/// `k = sigma_f^2 (1 + r^2 / (2 alpha l^2))^{-alpha}` — an infinite scale
/// mixture of squared exponentials; `alpha -> inf` recovers the SE kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct RationalQuadratic {
    /// Length scale `l > 0`.
    pub length_scale: f64,
    /// Amplitude `sigma_f > 0`.
    pub amplitude: f64,
    /// Scale-mixture parameter `alpha > 0`.
    pub alpha: f64,
}

impl RationalQuadratic {
    /// New kernel; panics on non-positive hyperparameters.
    pub fn new(length_scale: f64, amplitude: f64, alpha: f64) -> Self {
        assert!(
            length_scale > 0.0 && amplitude > 0.0 && alpha > 0.0,
            "hyperparameters must be positive"
        );
        RationalQuadratic {
            length_scale,
            amplitude,
            alpha,
        }
    }
}

impl RationalQuadratic {
    fn form(&self) -> DistanceForm {
        DistanceForm::RationalQuadratic {
            length_scale: self.length_scale,
            amplitude: self.amplitude,
            alpha: self.alpha,
        }
    }
}

impl Kernel for RationalQuadratic {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let form = self.form();
        let (t, e) = form.radial_parts(alperf_linalg::vector::sq_dist(a, b));
        form.radial_value(t, e)
    }

    fn diag_value(&self, _a: &[f64]) -> f64 {
        self.amplitude * self.amplitude
    }

    fn n_params(&self) -> usize {
        3
    }

    fn params(&self) -> Vec<f64> {
        vec![self.length_scale.ln(), self.amplitude.ln(), self.alpha.ln()]
    }

    fn set_params(&mut self, p: &[f64]) {
        assert_eq!(p.len(), 3, "RationalQuadratic has 3 params");
        self.length_scale = p[0].exp();
        self.amplitude = p[1].exp();
        self.alpha = p[2].exp();
    }

    fn param_names(&self) -> Vec<String> {
        vec![
            "log_length_scale".into(),
            "log_amplitude".into(),
            "log_alpha".into(),
        ]
    }

    fn grad(&self, a: &[f64], b: &[f64]) -> Vec<f64> {
        let form = self.form();
        let (t, e) = form.radial_parts(alperf_linalg::vector::sq_dist(a, b));
        form.radial_grad(t, e)[..3].to_vec()
    }

    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(self.clone())
    }

    fn distance_form(&self) -> Option<DistanceForm> {
        Some(self.form())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central finite-difference check of `grad` against `eval` for every
    /// log-parameter of `k` at the pair `(a, b)`.
    fn check_grad(k: &dyn Kernel, a: &[f64], b: &[f64]) {
        let p0 = k.params();
        let g = k.grad(a, b);
        assert_eq!(g.len(), k.n_params());
        let h = 1e-6;
        for j in 0..k.n_params() {
            let mut kp = k.clone_box();
            let mut p = p0.clone();
            p[j] += h;
            kp.set_params(&p);
            let up = kp.eval(a, b);
            p[j] -= 2.0 * h;
            kp.set_params(&p);
            let dn = kp.eval(a, b);
            let fd = (up - dn) / (2.0 * h);
            assert!(
                (fd - g[j]).abs() <= 1e-5 * (1.0 + fd.abs()),
                "param {j}: fd={fd}, analytic={}",
                g[j]
            );
        }
    }

    #[test]
    fn se_known_values() {
        let k = SquaredExponential::new(1.0, 2.0);
        // k(x, x) = sigma_f^2 = 4.
        assert_eq!(k.eval(&[0.0], &[0.0]), 4.0);
        assert_eq!(k.diag_value(&[3.0]), 4.0);
        // r = l => k = sigma_f^2 e^{-1/2}.
        let v = k.eval(&[0.0], &[1.0]);
        assert!((v - 4.0 * (-0.5f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn se_longer_scale_means_higher_correlation() {
        let near = SquaredExponential::new(0.5, 1.0).eval(&[0.0], &[1.0]);
        let far = SquaredExponential::new(5.0, 1.0).eval(&[0.0], &[1.0]);
        assert!(far > near);
    }

    #[test]
    fn se_gradient_matches_fd() {
        let k = SquaredExponential::new(0.7, 1.3);
        check_grad(&k, &[0.2, -0.4], &[1.0, 0.3]);
        check_grad(&k, &[0.0], &[0.0]); // coincident points
    }

    #[test]
    fn se_param_round_trip() {
        let mut k = SquaredExponential::unit();
        k.set_params(&[0.5f64.ln(), 3.0f64.ln()]);
        assert!((k.length_scale - 0.5).abs() < 1e-15);
        assert!((k.amplitude - 3.0).abs() < 1e-15);
        let p = k.params();
        assert!((p[0] - 0.5f64.ln()).abs() < 1e-15);
        assert_eq!(k.param_names().len(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn se_rejects_negative_scale() {
        SquaredExponential::new(-1.0, 1.0);
    }

    #[test]
    fn ard_reduces_to_isotropic_when_scales_equal() {
        let iso = SquaredExponential::new(0.8, 1.5);
        let ard = ArdSquaredExponential::new(vec![0.8, 0.8, 0.8], 1.5);
        let a = [0.1, 0.5, -0.2];
        let b = [0.4, -0.1, 0.2];
        assert!((iso.eval(&a, &b) - ard.eval(&a, &b)).abs() < 1e-14);
    }

    #[test]
    fn ard_gradient_matches_fd() {
        let k = ArdSquaredExponential::new(vec![0.5, 2.0], 1.2);
        check_grad(&k, &[0.2, -0.4], &[1.0, 0.3]);
    }

    #[test]
    fn ard_irrelevant_dimension() {
        // Huge length scale on dim 1 => dim 1 barely matters.
        let k = ArdSquaredExponential::new(vec![1.0, 1e6], 1.0);
        let v1 = k.eval(&[0.0, 0.0], &[0.0, 100.0]);
        assert!((v1 - 1.0).abs() < 1e-6);
        let v2 = k.eval(&[0.0, 0.0], &[1.0, 0.0]);
        assert!(v2 < 0.7);
    }

    #[test]
    fn ard_param_round_trip() {
        let mut k = ArdSquaredExponential::unit(3);
        assert_eq!(k.n_params(), 4);
        let p = vec![0.1, 0.2, 0.3, 0.4];
        k.set_params(&p);
        let q = k.params();
        for (a, b) in p.iter().zip(&q) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn matern32_known_values_and_grad() {
        let k = Matern32::new(1.0, 1.0);
        assert!((k.eval(&[0.0], &[0.0]) - 1.0).abs() < 1e-15);
        check_grad(&k, &[0.3], &[1.7]);
        check_grad(&k, &[0.0, 1.0], &[0.5, 0.2]);
    }

    #[test]
    fn matern52_known_values_and_grad() {
        let k = Matern52::new(0.9, 1.4);
        assert!((k.eval(&[2.0], &[2.0]) - 1.4 * 1.4).abs() < 1e-12);
        check_grad(&k, &[0.3], &[1.7]);
        check_grad(&k, &[0.0, 1.0], &[0.5, 0.2]);
    }

    #[test]
    fn matern_smoothness_ordering() {
        // At moderate distance: SE decays fastest of the three at large r
        // but near r=0 they all approach sigma_f^2; check they're all valid
        // correlations in [0, sigma_f^2].
        for r in [0.1, 0.5, 1.0, 3.0] {
            let a = [0.0];
            let b = [r];
            for k in [
                Box::new(SquaredExponential::new(1.0, 1.0)) as Box<dyn Kernel>,
                Box::new(Matern32::new(1.0, 1.0)),
                Box::new(Matern52::new(1.0, 1.0)),
            ] {
                let v = k.eval(&a, &b);
                assert!(v > 0.0 && v <= 1.0, "r={r}: {v}");
            }
        }
    }

    #[test]
    fn rq_known_values_and_grad() {
        let k = RationalQuadratic::new(1.1, 0.9, 2.0);
        assert!((k.eval(&[5.0], &[5.0]) - 0.81).abs() < 1e-12);
        check_grad(&k, &[0.3], &[1.7]);
        check_grad(&k, &[0.0, 0.5], &[0.2, -0.3]);
    }

    #[test]
    fn rq_approaches_se_for_large_alpha() {
        let se = SquaredExponential::new(1.0, 1.0);
        let rq = RationalQuadratic::new(1.0, 1.0, 1e7);
        let a = [0.0];
        let b = [1.3];
        assert!((se.eval(&a, &b) - rq.eval(&a, &b)).abs() < 1e-5);
    }

    /// The radial forms run exactly the scalar operations of the pointwise
    /// formulas they replaced inside `eval` and `grad`, so the fit's
    /// covariance and gradient (which read the forms) stay bit-identical.
    #[test]
    fn radial_forms_reproduce_the_pointwise_formulas_bit_for_bit() {
        let (l, amp, alpha) = (0.83, 1.27, 0.61);
        let sf2 = amp * amp;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for d2 in [0.0, 1e-300, 0.37, 2.0, 41.5, 1e6, f64::INFINITY] {
            let r = f64::sqrt(d2);
            let s3 = 3f64.sqrt() * r / l;
            let k32 = amp * amp * (1.0 + s3) * (-s3).exp();
            let g32 = [
                sf2 * s3 * s3 * (-s3).exp(),
                2.0 * (sf2 * (1.0 + s3) * (-s3).exp()),
            ];
            let s5 = 5f64.sqrt() * r / l;
            let e = (-s5).exp();
            let k52 = amp * amp * (1.0 + s5 + s5 * s5 / 3.0) * (-s5).exp();
            let g52 = [
                sf2 * e * s5 * s5 * (1.0 + s5) / 3.0,
                2.0 * (sf2 * (1.0 + s5 + s5 * s5 / 3.0) * e),
            ];
            let u = d2 / (2.0 * alpha * l * l);
            let base = 1.0 + u;
            let krq = amp * amp * (1.0 + u).powf(-alpha);
            let grq = [
                2.0 * alpha * amp * amp * u * base.powf(-alpha - 1.0),
                2.0 * krq,
                krq * alpha * (u / base - base.ln()),
            ];
            let cases: [(Box<dyn Kernel>, f64, &[f64]); 3] = [
                (Box::new(Matern32::new(l, amp)), k32, &g32),
                (Box::new(Matern52::new(l, amp)), k52, &g52),
                (Box::new(RationalQuadratic::new(l, amp, alpha)), krq, &grq),
            ];
            for (k, want, want_g) in cases {
                let form = k.distance_form().unwrap();
                assert!(form.is_radial());
                let np = k.n_params();
                let (t, e) = form.radial_parts(d2);
                assert_eq!(form.radial_value(t, e).to_bits(), want.to_bits());
                assert_eq!(bits(&form.radial_grad(t, e)[..np]), bits(want_g));
                // eval/grad read the same form (a 1-D pair at distance r).
                if d2.is_finite() {
                    let (a, b) = ([0.25], [0.25 + r]);
                    let (t, e) = form.radial_parts(alperf_linalg::vector::sq_dist(&a, &b));
                    assert_eq!(k.eval(&a, &b).to_bits(), form.radial_value(t, e).to_bits());
                    assert_eq!(bits(&k.grad(&a, &b)), bits(&form.radial_grad(t, e)[..np]));
                }
            }
        }
        let se = SquaredExponential::unit().distance_form().unwrap();
        assert!(!se.is_radial() && se.radial_parts(1.0).1.is_nan());
    }

    #[test]
    fn input_gradient_defaults_to_none() {
        // No workspace kernel overrides the trait default, so every one
        // advertises that it has no input gradient.
        for k in [
            Box::new(SquaredExponential::unit()) as Box<dyn Kernel>,
            Box::new(ArdSquaredExponential::unit(1)),
            Box::new(Matern32::new(1.0, 1.0)),
            Box::new(Matern52::new(1.0, 1.0)),
            Box::new(RationalQuadratic::new(1.0, 1.0, 1.0)),
        ] {
            assert!(k.grad_x(&[0.0], &[1.0]).is_none());
        }
    }

    #[test]
    fn cross_matrix_matches_pointwise_eval() {
        // Deterministic but irregular point sets in 3-D.
        let a = Matrix::from_fn(7, 3, |i, j| ((i * 3 + j) as f64 * 0.7).sin() * 2.0);
        let b = Matrix::from_fn(5, 3, |i, j| ((i * 5 + j) as f64 * 1.3).cos() - 0.4);
        let kernels: Vec<Box<dyn Kernel>> = vec![
            Box::new(SquaredExponential::new(0.8, 1.4)),
            Box::new(ArdSquaredExponential::new(vec![0.5, 2.0, 1.1], 0.9)),
            Box::new(Matern52::new(0.9, 1.2)), // default pointwise path
        ];
        for k in &kernels {
            let m = k.cross_matrix(&a, &b);
            assert_eq!((m.nrows(), m.ncols()), (7, 5));
            for i in 0..7 {
                for j in 0..5 {
                    let direct = k.eval(a.row(i), b.row(j));
                    assert!(
                        (m[(i, j)] - direct).abs() <= 1e-12 * (1.0 + direct.abs()),
                        "({i},{j}): blocked {} vs direct {direct}",
                        m[(i, j)]
                    );
                }
            }
        }
    }

    #[test]
    fn cross_matrix_handles_empty_inputs() {
        let k = SquaredExponential::unit();
        let a = Matrix::zeros(0, 2);
        let b = Matrix::from_fn(4, 2, |i, j| (i + j) as f64);
        assert_eq!(k.cross_matrix(&a, &b).nrows(), 0);
        let m = k.cross_matrix(&b, &a);
        assert_eq!((m.nrows(), m.ncols()), (4, 0));
    }

    #[test]
    fn boxed_kernel_clones() {
        let k: Box<dyn Kernel> = Box::new(SquaredExponential::new(2.0, 3.0));
        let k2 = k.clone();
        assert_eq!(k.eval(&[0.0], &[1.0]), k2.eval(&[0.0], &[1.0]));
    }
}
