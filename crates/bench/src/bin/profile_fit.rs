//! Stage-by-stage profiler for the GPR training path plus a `fit_gpr`
//! sweep over training-set size and restart count — a thin consumer of
//! `alperf-obs` span aggregates.
//!
//! Usage:
//!   profile_fit            # stage breakdowns (SE at n=200, ARD-SE at
//!                          # n=15 and n=60) + full sweep
//!   profile_fit --quick    # same breakdowns at fewer reps, tiny sweep
//!                          # (CI smoke run)
//!
//! The ARD-SE tables cover the orders of the Fig. 7 campaigns (n <= 61)
//! and split one LML value + gradient evaluation into its kernels:
//! covariance assembly, Cholesky, `L^{-1}` (`profile.factor_inverse`) and
//! the lower triangle of `K^{-1}` (`profile.inverse_lower`), which together
//! form the gradient's weight matrix.
//!
//! The bin no longer times anything itself: it switches telemetry on, runs
//! each stage under a span, and reads the per-span histograms out of the
//! global registry. Library-internal spans (`linalg.cholesky`,
//! `gp.lml_eval`, `gp.lml_grad`, `gp.fit.restart`, ...) land in the same
//! table for free. Reported minima are exact (the histogram keeps raw
//! min/max beside the bucketized quantiles) — min-over-reps remains the
//! right statistic on a noisy shared VM.

use alperf_gp::kernel::{ArdSquaredExponential, Kernel, SquaredExponential};
use alperf_gp::lml::{self, FitCache};
use alperf_gp::noise::NoiseFloor;
use alperf_gp::optimize::{fit_gpr, GprConfig};
use alperf_linalg::cholesky::Cholesky;
use alperf_linalg::matrix::Matrix;
use std::hint::black_box;

/// Run `f` `batch` times under each of `reps` fresh `name` spans.
fn timed<F: FnMut()>(name: &'static str, reps: usize, batch: usize, mut f: F) {
    for _ in 0..reps {
        let _s = alperf_obs::span(name);
        for _ in 0..batch {
            f();
        }
    }
}

/// The stages [`lml_stages`] records, in order.
const LML_STAGES: [&str; 10] = [
    "profile.assemble_k",
    "profile.chol_unblocked",
    "profile.chol_blocked",
    "profile.factor_inverse",
    "profile.inverse_lower",
    "profile.lml_pointwise",
    "profile.lml_cached",
    "profile.grad_pointwise",
    "profile.grad_cached",
    "profile.grad_from_state",
];

/// Exact minimum of a span's recorded durations, in milliseconds.
fn span_min_ms(name: &str) -> f64 {
    alperf_obs::histogram(name).stats().min_ns as f64 / 1e6
}

/// Synthetic 2-D training set matching the shape of the paper's
/// (processes, problem-size) configuration space.
fn training_data(n: usize) -> (Matrix, Vec<f64>) {
    let x = Matrix::from_fn(n, 2, |i, j| {
        if j == 0 {
            3.0 + 6.0 * (i as f64 / n as f64)
        } else {
            1.2 + 1.2 * ((i * 7 % n) as f64 / n as f64)
        }
    });
    let y: Vec<f64> = (0..n)
        .map(|i| (i as f64 * 0.1).sin() + i as f64 * 0.01)
        .collect();
    (x, y)
}

fn fit_config(restarts: usize) -> GprConfig {
    GprConfig::new(Box::new(SquaredExponential::unit()))
        .with_noise_floor(NoiseFloor::recommended())
        .with_restarts(restarts)
        .with_seed(17)
}

/// One LML value + gradient evaluation at order `n` with noise `sn`, split
/// into its stages: `reps` spans of `batch` calls each.
/// `profile.grad_from_state` is the gradient alone, from an already
/// factored state — `inverse_lower` plus the `dK/dtheta` contractions.
fn lml_stages(kernel: &dyn Kernel, n: usize, sn: f64, reps: usize, batch: usize) {
    let (x, y) = training_data(n);
    let cache = FitCache::build(kernel, &x);
    timed("profile.assemble_k", reps, batch, || {
        black_box(lml::assemble_covariance(kernel, &x));
    });
    let mut ky = lml::assemble_covariance(kernel, &x);
    ky.add_diagonal(sn * sn);
    timed("profile.chol_unblocked", reps, batch, || {
        black_box(Cholesky::decompose_unblocked(&ky).unwrap());
    });
    timed("profile.chol_blocked", reps, batch, || {
        black_box(Cholesky::decompose_blocked(&ky).unwrap());
    });
    let chol = Cholesky::decompose(&ky).unwrap();
    timed("profile.factor_inverse", reps, batch, || {
        black_box(chol.factor_inverse().unwrap());
    });
    timed("profile.inverse_lower", reps, batch, || {
        black_box(chol.inverse_lower().unwrap());
    });
    timed("profile.lml_pointwise", reps, batch, || {
        black_box(lml::lml_value(kernel, sn, &x, &y).unwrap());
    });
    timed("profile.lml_cached", reps, batch, || {
        black_box(lml::lml_value_cached(kernel, sn, &x, &y, &cache).unwrap());
    });
    timed("profile.grad_pointwise", reps, batch, || {
        black_box(lml::lml_and_grad(kernel, sn, &x, &y, true).unwrap());
    });
    timed("profile.grad_cached", reps, batch, || {
        black_box(lml::lml_and_grad_cached(kernel, sn, &x, &y, true, &cache).unwrap());
    });
    let state = lml::lml_state_cached(kernel, sn, &x, &y, &cache).unwrap();
    timed("profile.grad_from_state", reps, batch, || {
        black_box(lml::grad_from_state(kernel, sn, &x, true, &state, &cache).unwrap());
    });
}

fn stage_breakdown(n: usize, reps: usize) {
    let (x, y) = training_data(n);
    alperf_obs::registry().reset();
    lml_stages(&SquaredExponential::new(1.0, 1.0), n, 0.1, reps, 1);
    // End-to-end single ascent (restarts=1) with/without parallel dispatch.
    timed("profile.fit_r1", reps.min(5), 1, || {
        black_box(fit_gpr(&x, &y, &fit_config(1)).unwrap());
    });
    timed("profile.fit_r5_serial", reps.min(3), 1, || {
        black_box(fit_gpr(&x, &y, &fit_config(5).with_parallel(false)).unwrap());
    });
    timed("profile.fit_r5_parallel", reps.min(3), 1, || {
        black_box(fit_gpr(&x, &y, &fit_config(5)).unwrap());
    });

    // The report IS the registry: bin-side stage spans and library-internal
    // spans (linalg.cholesky, gp.lml_eval, gp.fit.restart, ...) side by side.
    println!("== span aggregates at n={n} ({reps} reps; ms; min is exact) ==");
    print!("{}", alperf_obs::registry().summary_table());
}

/// ARD-SE stage breakdown at one of Fig. 7's orders, at the recommended
/// noise floor, in microseconds per call: each span covers `BATCH` calls so
/// sub-microsecond stages clear the span's own clock reads, and the
/// minimum over `spans` spans is reported.
fn ard_breakdown(n: usize, spans: usize) {
    const BATCH: usize = 20;
    let kernel = ArdSquaredExponential::new(vec![1.0, 0.5], 1.0);
    alperf_obs::registry().reset();
    lml_stages(&kernel, n, 0.1, spans, BATCH);
    println!("== ARD-SE stages at n={n} (us per call; min over {spans} spans of {BATCH} calls) ==");
    for name in LML_STAGES {
        let us = alperf_obs::histogram(name).stats().min_ns as f64 / 1e3 / BATCH as f64;
        println!("{name:<28} {us:>10.3}");
    }
}

fn sweep(sizes: &[usize], restart_counts: &[usize]) {
    println!("== fit_gpr sweep (ms, min-over-reps) ==");
    for &n in sizes {
        let (x, y) = training_data(n);
        for &r in restart_counts {
            let reps = if n >= 400 { 3 } else { 5 };
            // One histogram per configuration: reset the library's gp.fit
            // span between configs so its min reflects only this (n, r).
            alperf_obs::histogram("gp.fit").reset();
            for _ in 0..reps {
                black_box(fit_gpr(&x, &y, &fit_config(r)).unwrap());
            }
            let ms = span_min_ms("gp.fit");
            println!("{{ \"n\": {n}, \"restarts\": {r}, \"ms\": {ms:.2} }},");
        }
    }
}

fn main() {
    alperf_bench::threads_from_env();
    alperf_obs::set_enabled(true);
    let quick = std::env::args().any(|a| a == "--quick");
    if quick {
        stage_breakdown(64, 3);
        ard_breakdown(15, 50);
        ard_breakdown(60, 10);
        sweep(&[32], &[1]);
    } else {
        stage_breakdown(200, 10);
        ard_breakdown(15, 500);
        ard_breakdown(60, 100);
        sweep(&[50, 100, 200, 400], &[1, 5]);
    }
}
