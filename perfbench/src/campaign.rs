//! One instrumented AL campaign through `run_al_with_oracle`, and the
//! once-per-campaign probes of the traced run.

use crate::instrument::{CountingKernel, IterSample, Recorder, Span, TimedOracle, TimedStrategy};
use crate::stats::median;
use alperf_al::oracle::ExperimentOracle;
use alperf_al::runner::{run_al_with_oracle, AlConfig, AlError, AlRun};
use alperf_al::strategy::Strategy;
use alperf_data::partition::Partition;
use alperf_gp::lml::{assemble_covariance, lml_and_grad_cached, FitCache};
use alperf_gp::model::Gpr;
use alperf_gp::optimize::{fit_surrogate, GprConfig};
use alperf_gp::surrogate::Surrogate;
use alperf_grid::summary::fnv1a64;
use alperf_linalg::cholesky::Cholesky;
use alperf_linalg::matrix::Matrix;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The inputs of one campaign.
pub struct CampaignInput<'a> {
    /// Design matrix over all rows.
    pub x: &'a Matrix,
    /// Response over all rows.
    pub y: &'a [f64],
    /// Per-row experiment cost.
    pub cost: &'a [f64],
    /// Initial/pool/test split.
    pub partition: Partition,
    /// Acquisition strategy.
    pub strategy: Box<dyn Strategy>,
    /// Experiment oracle.
    pub oracle: &'a dyn ExperimentOracle,
    /// Loop configuration.
    pub config: AlConfig,
}

/// A finished campaign and what the instruments saw.
pub struct Finished {
    /// The runner's result.
    pub run: AlRun,
    /// Wall time of the `run_al_with_oracle` call.
    pub wall_ns: u64,
    /// Per-iteration samples from the strategy wrapper.
    pub iters: Vec<IterSample>,
    /// θ and σ_n of the model the last proposal was made from (traced).
    pub final_model: Option<(Vec<f64>, f64)>,
    /// Spans recorded by the wrappers (traced).
    pub spans: Vec<Span>,
}

/// Run one campaign through `run_al_with_oracle` behind the pass-through
/// wrappers. Traced, the GPR config's kernel is wrapped too.
pub fn run(
    input: CampaignInput<'_>,
    epoch: Instant,
    id: u32,
    traced: bool,
) -> Result<Finished, AlError> {
    let CampaignInput {
        x,
        y,
        cost,
        partition,
        strategy,
        oracle,
        mut config,
    } = input;
    let rec = Recorder::new(epoch, id, traced);
    if traced {
        let inner = config.gpr.kernel.clone_box();
        config.gpr.kernel = Box::new(CountingKernel::new(inner, Arc::clone(&rec)));
    }
    let mut strategy = TimedStrategy::new(strategy, &rec, config.gpr.noise_floor);
    let oracle = TimedOracle::new(oracle, &rec);
    let start = rec.start();
    let run = run_al_with_oracle(x, y, cost, &partition, &mut strategy, &oracle, &config)?;
    let end = rec.now_ns();
    rec.span("campaign", "run", start, end);
    Ok(Finished {
        run,
        wall_ns: end - start,
        final_model: strategy.last_model(),
        iters: strategy.iters,
        spans: rec.take_spans(),
    })
}

/// Digest of everything a campaign's trajectory records, over exact bits.
pub fn trajectory_digest(run: &AlRun) -> u64 {
    let mut bytes = Vec::with_capacity(run.history.len() * 56 + run.lost.len() * 16);
    for r in &run.history {
        bytes.extend((r.chosen_row as u64).to_le_bytes());
        for v in [
            r.sigma_at_chosen,
            r.amsd,
            r.rmse,
            r.cumulative_cost,
            r.lml,
            r.noise_std,
        ] {
            bytes.extend(v.to_bits().to_le_bytes());
        }
    }
    for l in &run.lost {
        bytes.extend((l.iter as u64).to_le_bytes());
        bytes.extend((l.row as u64).to_le_bytes());
    }
    fnv1a64(bytes)
}

/// Probe timings at a campaign's final state.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProbeTimes {
    /// `fit_surrogate` with the campaign's config on the final training set.
    pub fit_ms: f64,
    /// One `lml_and_grad_cached` at the final θ and training set.
    pub lml_eval_us: f64,
    /// `Surrogate::with_observation` adding the last training row.
    pub rank1_us: f64,
    /// `predict_batch` over the test rows.
    pub predict_us: f64,
    /// Cholesky factorization of the final `K + σ_n² I`.
    pub cholesky_ms: f64,
}

const PROBE_REPEATS: usize = 5;

fn time_ns<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = black_box(f());
    (r, t.elapsed().as_nanos() as f64)
}

fn median_ns<R>(mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..PROBE_REPEATS).map(|_| time_ns(&mut f).1).collect();
    median(&samples)
}

/// Time each probed layer once per campaign (medians of a few repeats for
/// the sub-millisecond ones) at the final training set and the final
/// model's `(θ, σ_n)`. `gpr` is the campaign's config without the counting
/// kernel, so probes do not add to the campaign's counts.
pub fn probe(
    gpr: &GprConfig,
    x_all: &Matrix,
    y_all: &[f64],
    train: &[usize],
    test: &[usize],
    (theta, sigma_n): (&[f64], f64),
    rec: &Recorder,
) -> Result<ProbeTimes, String> {
    let n = train.len();
    if n < 2 {
        return Err(format!("probe needs two training rows, got {n}"));
    }
    let x = x_all.select_rows(train);
    let y: Vec<f64> = train.iter().map(|&i| y_all[i]).collect();
    let mut kernel = gpr.kernel.clone_box();
    kernel.set_params(&theta[..kernel.n_params()]);
    let mut out = ProbeTimes::default();

    let t = rec.now_ns();
    let (fit, ns) = time_ns(|| fit_surrogate(&x, &y, gpr));
    fit.map_err(|e| format!("probe fit: {e}"))?;
    out.fit_ms = ns / 1e6;
    rec.span("probe.fit", "probe", t, rec.now_ns());

    let t = rec.now_ns();
    let cache = FitCache::build(kernel.as_ref(), &x);
    out.lml_eval_us = median_ns(|| {
        lml_and_grad_cached(kernel.as_ref(), sigma_n, &x, &y, gpr.optimize_noise, &cache)
    }) / 1e3;
    rec.span("probe.lml_eval", "probe", t, rec.now_ns());

    let t = rec.now_ns();
    let prefix = Surrogate::Exact(
        Gpr::fit(
            x.select_rows(&(0..n - 1).collect::<Vec<_>>()),
            &y[..n - 1],
            kernel.clone_box(),
            sigma_n,
            gpr.standardize,
        )
        .map_err(|e| format!("probe prefix fit: {e}"))?,
    );
    out.rank1_us = median_ns(|| prefix.with_observation(x.row(n - 1), y[n - 1])) / 1e3;
    rec.span("probe.rank1", "probe", t, rec.now_ns());

    let t = rec.now_ns();
    let model = prefix
        .with_observation(x.row(n - 1), y[n - 1])
        .map_err(|e| format!("probe rank-1 extension: {e}"))?;
    let x_test = x_all.select_rows(test);
    out.predict_us = median_ns(|| model.predict_batch(&x_test)) / 1e3;
    rec.span("probe.predict", "probe", t, rec.now_ns());

    // The factorization the LML path performs: a plain decomposition when
    // K + σ_n² I is positive definite, then a jitter ladder (first rung 1e-10
    // of the mean diagonal, 8 rungs) when it is numerically singular, as
    // duplicate rows under the 1e-8 floor make it.
    let t = rec.now_ns();
    let mut k = assemble_covariance(kernel.as_ref(), &x);
    k.add_diagonal(sigma_n * sigma_n);
    out.cholesky_ms = median_ns(|| Cholesky::decompose_jittered(&k, 1e-10, 8)) / 1e6;
    rec.span("probe.cholesky", "probe", t, rec.now_ns());
    Ok(out)
}
