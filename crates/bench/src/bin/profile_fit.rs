//! Stage-by-stage profiler for the GPR training path plus sweeps over
//! training-set size.
//!
//! Usage:
//!   profile_fit            # stage tables (SE at n=200; ARD-SE and
//!                          # Matérn-5/2 at n=13 and n=60), the kernels at
//!                          # the Fig. 8 orders, a per-order kernel sweep
//!                          # (n = 1..=256) and a `fit_gpr` sweep
//!   profile_fit --quick    # same tables at fewer reps, SE at n=64, tiny
//!                          # sweeps (CI smoke run)
//!
//! Each stage table splits one LML value + gradient evaluation into its
//! kernels: pointwise covariance assembly, the Cholesky factorization
//! (refactored into a reused factor, as every LML value does), `L^{-1}`
//! (`factor_inverse`) and the lower triangle of `K^{-1}`
//! (`inverse_lower`, into reused buffers as every gradient forms it),
//! which together form the gradient's weight matrix,
//! then the pointwise LML value and the fit's own evaluations: the
//! per-restart `LmlWorkspace`'s `value` and `grad`, called on one warm
//! workspace exactly as the optimizer calls them. The ARD-SE and
//! Matérn-5/2 tables cover the orders of the paper campaigns (Fig. 7 and
//! the grid, n <= 61); the Fig. 8 table times the same kernels under
//! ARD-SE at n = 60, 128 and 200, where Fig. 8's fits spend their time.
//!
//! Every number is timed here with a monotonic clock: the minimum over
//! `reps` runs of `batch` back-to-back calls, divided by `batch` — the
//! minimum is the right statistic on a noisy shared VM, and batching lets
//! sub-microsecond stages clear the clock reads.

use alperf_gp::kernel::{ArdSquaredExponential, Kernel, Matern52, SquaredExponential};
use alperf_gp::lml::{self, FitCache, LmlWorkspace};
use alperf_gp::noise::NoiseFloor;
use alperf_gp::optimize::{fit_gpr, GprConfig};
use alperf_linalg::cholesky::Cholesky;
use alperf_linalg::matrix::Matrix;
use std::hint::black_box;
use std::time::Instant;

/// Minimum over `reps` runs of `batch` calls of `f`, in microseconds per
/// call.
fn min_us<F: FnMut()>(reps: usize, batch: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() * 1e6 / batch as f64);
    }
    best
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

/// Print one LML value + gradient evaluation of `kernel` at order `n`
/// with noise `sn`, split into its stages (us per call).
fn stage_table(name: &str, kernel: &dyn Kernel, n: usize, sn: f64, reps: usize, batch: usize) {
    let (x, y) = training_data(n);
    let mut ky = lml::assemble_covariance(kernel, &x);
    ky.add_diagonal(sn * sn);
    let mut stages = vec![(
        "assemble_k",
        min_us(reps, batch, || {
            black_box(lml::assemble_covariance(kernel, &x));
        }),
    )];
    stages.extend(kernel_stages(kernel, &x, &y, &ky, sn, reps, batch));
    stages.insert(
        4,
        (
            "lml_pointwise",
            min_us(reps, batch, || {
                black_box(lml::lml_value(kernel, sn, &x, &y).unwrap());
            }),
        ),
    );
    println!("== {name} stages at n={n} (us per call; min over {reps} runs of {batch} calls) ==");
    for (stage, us) in stages {
        println!("{stage:<28} {us:>10.3}");
    }
}

/// The cubic kernels of one LML value + gradient evaluation of `kernel` on
/// `(x, y)`, whose `K_y` is `ky` (us per call): the Cholesky refactored into
/// a reused factor, `factor_inverse`, `inverse_lower` into reused buffers
/// (as every gradient runs it), and a warm workspace's `value` and `grad`.
fn kernel_stages(
    kernel: &dyn Kernel,
    x: &Matrix,
    y: &[f64],
    ky: &Matrix,
    sn: f64,
    reps: usize,
    batch: usize,
) -> Vec<(&'static str, f64)> {
    let mut chol = Cholesky::decompose(ky).unwrap();
    let n = ky.nrows();
    let (mut w, mut linv) = (Matrix::zeros(n, n), Matrix::zeros(n, n));
    let cache = FitCache::build(kernel, x);
    let mut ws = LmlWorkspace::new(&cache, y).unwrap();
    ws.value(kernel, sn).unwrap();
    vec![
        (
            "cholesky",
            min_us(reps, batch, || {
                black_box(chol.refactor_jittered(ky, 0.0, 1).unwrap());
            }),
        ),
        (
            "factor_inverse",
            min_us(reps, batch, || {
                black_box(chol.factor_inverse().unwrap());
            }),
        ),
        (
            "inverse_lower",
            min_us(reps, batch, || {
                chol.inverse_lower_into(&mut w, &mut linv).unwrap();
                black_box(&w);
            }),
        ),
        (
            "workspace_value",
            min_us(reps, batch, || {
                black_box(ws.value(kernel, sn).unwrap());
            }),
        ),
        (
            "workspace_grad",
            min_us(reps, batch, || {
                black_box(ws.grad(kernel, sn, true).unwrap());
            }),
        ),
    ]
}

/// The kernels of [`kernel_stages`] under ARD-SE at the orders of Fig. 8's
/// fits, one column per order.
fn fig8_table(kernel: &dyn Kernel, orders: &[usize], reps: usize) {
    let columns: Vec<Vec<(&str, f64)>> = orders
        .iter()
        .map(|&n| {
            let (x, y) = training_data(n);
            let mut ky = lml::assemble_covariance(kernel, &x);
            ky.add_diagonal(0.01);
            kernel_stages(kernel, &x, &y, &ky, 0.1, reps, 4)
        })
        .collect();
    println!(
        "== ARD-SE kernels at the Fig. 8 orders (us per call; min over {reps} runs of 4 calls) =="
    );
    print!("{:<28}", "stage");
    for n in orders {
        print!(" {:>10}", format!("n={n}"));
    }
    println!();
    for (row, (stage, _)) in columns[0].iter().enumerate() {
        print!("{stage:<28}");
        for col in &columns {
            print!(" {:>10.2}", col[row].1);
        }
        println!();
    }
}

/// Per-order timings of the two cubic kernels behind every LML evaluation
/// (us per call): the Cholesky refactored into a reused factor and
/// `inverse_lower_into` into reused buffers, on the SE covariance of
/// [`training_data`].
fn kernel_sweep(orders: impl Iterator<Item = usize>) {
    println!("== kernel sweep (us per call; min over 15 runs) ==");
    let kernel = SquaredExponential::new(1.0, 1.0);
    for n in orders {
        let (x, _) = training_data(n);
        let mut ky = lml::assemble_covariance(&kernel, &x);
        ky.add_diagonal(0.01);
        let mut chol = Cholesky::decompose(&ky).unwrap();
        let (mut w, mut linv) = (Matrix::zeros(n, n), Matrix::zeros(n, n));
        // About 100 us of work per timed batch.
        let batch = (300_000 / (n * n * n + 300)).max(1);
        let chol_us = min_us(15, batch, || {
            black_box(chol.refactor_jittered(&ky, 0.0, 1).unwrap());
        });
        let inv_us = min_us(15, batch, || {
            chol.inverse_lower_into(&mut w, &mut linv).unwrap();
            black_box(&w);
        });
        println!(
            "{{ \"n\": {n}, \"cholesky_us\": {chol_us:.3}, \"inverse_lower_us\": {inv_us:.3} }},"
        );
    }
}

/// End-to-end single fits at order `n`: one restart and five restarts
/// (ms, min over `reps`).
fn fit_table(n: usize, reps: usize) {
    let (x, y) = training_data(n);
    let fits = [("fit_r1", fit_config(1)), ("fit_r5", fit_config(5))];
    println!("== fit_gpr at n={n} (ms; min over {reps} runs) ==");
    for (name, cfg) in fits {
        let ms = min_us(reps, 1, || {
            black_box(fit_gpr(&x, &y, &cfg).unwrap());
        }) / 1e3;
        println!("{name:<28} {ms:>10.3}");
    }
}

fn sweep(sizes: &[usize], restart_counts: &[usize]) {
    println!("== fit_gpr sweep (ms, min-over-reps) ==");
    for &n in sizes {
        let (x, y) = training_data(n);
        for &r in restart_counts {
            let reps = if n >= 400 { 3 } else { 5 };
            let ms = min_us(reps, 1, || {
                black_box(fit_gpr(&x, &y, &fit_config(r)).unwrap());
            }) / 1e3;
            println!("{{ \"n\": {n}, \"restarts\": {r}, \"ms\": {ms:.2} }},");
        }
    }
}

fn main() {
    alperf_bench::threads_from_env();
    let quick = std::env::args().any(|a| a == "--quick");
    let ard = ArdSquaredExponential::new(vec![1.0, 0.5], 1.0);
    let m52 = Matern52::new(1.0, 1.0);
    let (big, reps, small_reps) = if quick { (64, 3, 20) } else { (200, 10, 200) };
    stage_table("SE", &SquaredExponential::new(1.0, 1.0), big, 0.1, reps, 1);
    fit_table(big, reps.min(5));
    for n in [13, 60] {
        let reps = if n > 20 { small_reps / 5 } else { small_reps };
        stage_table("ARD-SE", &ard, n, 0.1, reps, 20);
        stage_table("Matern-5/2", &m52, n, 0.1, reps, 20);
    }
    fig8_table(&ard, &[60, 128, 200], reps);
    if quick {
        kernel_sweep([1, 13, 41, 128].into_iter());
        sweep(&[32], &[1]);
    } else {
        kernel_sweep(1..=256);
        sweep(&[50, 100, 200, 400], &[1, 5]);
    }
}
