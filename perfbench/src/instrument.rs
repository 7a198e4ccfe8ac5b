//! Instruments that time each layer from outside the program: pass-through
//! wrappers around the public [`Strategy`], [`ExperimentOracle`] and
//! [`Kernel`] traits, and an in-memory span buffer written out when a run
//! ends.
//!
//! Untraced, a campaign pays two clock reads per iteration: when `select`
//! returns and when the oracle hands a result back. Traced, the wrappers
//! also time `select` entry and the oracle call, classify the model they
//! were handed, count LML evaluations and time `cross_matrix`. None of
//! this feeds back into the numerics: every wrapper returns exactly what
//! the wrapped object returned.

use alperf_al::oracle::{ExperimentOracle, ExperimentOutcome};
use alperf_al::strategy::{SelectionContext, Strategy};
use alperf_gp::kernel::{DistanceForm, Kernel};
use alperf_gp::noise::NoiseFloor;
use alperf_linalg::matrix::Matrix;
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One interval recorded by the benchmark around a call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was timed (`model`, `select`, `oracle`, `cross`, `campaign`,
    /// `probe.fit`, ...).
    pub name: &'static str,
    /// The enclosing span's name.
    pub parent: &'static str,
    /// Campaign number within the run.
    pub campaign: u32,
    /// AL iteration the span belongs to (for a `campaign` span, the
    /// campaign's proposal count).
    pub iter: u32,
    /// Start, in nanoseconds since the run began.
    pub start_ns: u64,
    /// End, in nanoseconds since the run began.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// State one campaign's wrappers share.
pub struct Recorder {
    epoch: Instant,
    campaign: u32,
    traced: bool,
    last_result_ns: AtomicU64,
    iter: AtomicU32,
    set_params: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder for campaign `campaign`, timing against the run's
    /// `epoch`. Spans and counts are kept only when `traced`.
    pub fn new(epoch: Instant, campaign: u32, traced: bool) -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch,
            campaign,
            traced,
            last_result_ns: AtomicU64::new(0),
            iter: AtomicU32::new(0),
            set_params: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the run began.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Mark the campaign start: the first proposal is timed from here.
    pub fn start(&self) -> u64 {
        let t = self.now_ns();
        self.last_result_ns.store(t, Ordering::Relaxed);
        t
    }

    /// Record a span (no-op untraced).
    pub fn span(&self, name: &'static str, parent: &'static str, start_ns: u64, end_ns: u64) {
        if self.traced {
            let iter = self.iter.load(Ordering::Relaxed);
            self.spans.lock().expect("span buffer poisoned").push(Span {
                name,
                parent,
                campaign: self.campaign,
                iter,
                start_ns,
                end_ns,
            });
        }
    }

    /// Take every span recorded so far.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }

    /// `Kernel::set_params` calls seen by [`CountingKernel`]s sharing this
    /// recorder: one per LML evaluation the optimizer makes.
    pub fn set_params_calls(&self) -> u64 {
        self.set_params.load(Ordering::Relaxed)
    }
}

/// What the strategy wrapper saw in one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IterSample {
    /// From the previous result's return (campaign start for the first
    /// iteration) to `select` returning.
    pub propose_ns: u64,
    /// LML evaluations since the previous `select` (traced only).
    pub lml_evals: u64,
    /// The hyperparameters were re-optimized for this proposal: the
    /// model's θ or σ_n differ from the previous proposal's, there was no
    /// previous proposal, or the optimizer evaluated the LML since then —
    /// a re-search on an unchanged training set (after a lost experiment)
    /// returns the same θ (traced only).
    pub reopt: bool,
    /// The model's σ_n sits on the configured floor (traced only).
    pub at_floor: bool,
}

/// Pass-through [`Strategy`] that times each proposal.
pub struct TimedStrategy<'a> {
    inner: Box<dyn Strategy>,
    rec: &'a Recorder,
    floor: NoiseFloor,
    prev_model: Option<(Vec<f64>, f64)>,
    evals_seen: u64,
    /// One entry per `select` call that returned a choice.
    pub iters: Vec<IterSample>,
}

impl<'a> TimedStrategy<'a> {
    /// Wrap `inner`; `floor` is the σ_n floor of the campaign's GPR config.
    pub fn new(inner: Box<dyn Strategy>, rec: &'a Recorder, floor: NoiseFloor) -> Self {
        TimedStrategy {
            inner,
            rec,
            floor,
            prev_model: None,
            evals_seen: 0,
            iters: Vec::new(),
        }
    }

    /// θ and σ_n of the model the last proposal was made from (traced).
    pub fn last_model(&self) -> Option<(Vec<f64>, f64)> {
        self.prev_model.clone()
    }
}

impl Strategy for TimedStrategy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select(&mut self, ctx: &SelectionContext<'_>, rng: &mut StdRng) -> Option<usize> {
        let traced = self.rec.traced;
        let entry = if traced { self.rec.now_ns() } else { 0 };
        let choice = self.inner.select(ctx, rng);
        let ret = self.rec.now_ns();
        let last = self.rec.last_result_ns.load(Ordering::Relaxed);
        choice?;
        let mut sample = IterSample {
            propose_ns: ret - last,
            ..IterSample::default()
        };
        if traced {
            self.rec.span("model", "iteration", last, entry);
            self.rec.span("select", "iteration", entry, ret);
            let evals = self.rec.set_params_calls();
            sample.lml_evals = evals - self.evals_seen;
            self.evals_seen = evals;
            let theta = ctx.model.kernel().params();
            let sigma = ctx.model.noise_std();
            sample.reopt = sample.lml_evals > 0
                || self.prev_model.as_ref().is_none_or(|(t, s)| {
                    t.iter()
                        .map(|v| v.to_bits())
                        .ne(theta.iter().map(|v| v.to_bits()))
                        || s.to_bits() != sigma.to_bits()
                });
            let floor = self.floor.lower_bound(ctx.train.len());
            sample.at_floor = sigma <= floor * (1.0 + 1e-9);
            self.prev_model = Some((theta, sigma));
        }
        self.iters.push(sample);
        choice
    }
}

/// Pass-through [`ExperimentOracle`] that marks when each result returns.
pub struct TimedOracle<'a> {
    inner: &'a dyn ExperimentOracle,
    rec: &'a Recorder,
}

impl<'a> TimedOracle<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a dyn ExperimentOracle, rec: &'a Recorder) -> Self {
        TimedOracle { inner, rec }
    }
}

impl ExperimentOracle for TimedOracle<'_> {
    fn run_experiment(&self, row: usize) -> ExperimentOutcome {
        let entry = if self.rec.traced {
            self.rec.now_ns()
        } else {
            0
        };
        let out = self.inner.run_experiment(row);
        let ret = self.rec.now_ns();
        self.rec.last_result_ns.store(ret, Ordering::Relaxed);
        if self.rec.traced {
            self.rec.span("oracle", "iteration", entry, ret);
            self.rec.iter.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Pass-through [`Kernel`] that counts `set_params` calls and times
/// `cross_matrix`. Every method delegates, `distance_form` included, so
/// the cached squared-exponential paths stay on.
pub struct CountingKernel {
    inner: Box<dyn Kernel>,
    rec: Arc<Recorder>,
}

impl CountingKernel {
    /// Wrap `inner`, reporting to `rec`.
    pub fn new(inner: Box<dyn Kernel>, rec: Arc<Recorder>) -> Self {
        CountingKernel { inner, rec }
    }
}

impl Kernel for CountingKernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.inner.eval(a, b)
    }

    fn cross_matrix(&self, a: &Matrix, b: &Matrix) -> Matrix {
        let start = self.rec.now_ns();
        let out = self.inner.cross_matrix(a, b);
        self.rec
            .span("cross", "iteration", start, self.rec.now_ns());
        out
    }

    fn diag_value(&self, a: &[f64]) -> f64 {
        self.inner.diag_value(a)
    }

    fn n_params(&self) -> usize {
        self.inner.n_params()
    }

    fn params(&self) -> Vec<f64> {
        self.inner.params()
    }

    fn set_params(&mut self, p: &[f64]) {
        self.rec.set_params.fetch_add(1, Ordering::Relaxed);
        self.inner.set_params(p);
    }

    fn param_names(&self) -> Vec<String> {
        self.inner.param_names()
    }

    fn grad(&self, a: &[f64], b: &[f64]) -> Vec<f64> {
        self.inner.grad(a, b)
    }

    fn grad_x(&self, a: &[f64], b: &[f64]) -> Option<Vec<f64>> {
        self.inner.grad_x(a, b)
    }

    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(CountingKernel {
            inner: self.inner.clone_box(),
            rec: Arc::clone(&self.rec),
        })
    }

    fn distance_form(&self) -> Option<DistanceForm> {
        self.inner.distance_form()
    }
}
