//! Heap traffic of the LML workspace and the ascent, counted by a global
//! allocator: after one warm-up evaluation, value evaluations allocate
//! nothing and gradient evaluations allocate a fixed count (the returned
//! vector, none when the caller's is reused), whatever the training-set
//! order, and an ascent allocates nothing per iteration. This file is a
//! test binary of its own, so the counting allocator serves only these
//! tests; counts are per thread.

use alperf_gp::kernel::{
    ArdSquaredExponential, Kernel, Matern32, Matern52, RationalQuadratic, SquaredExponential,
};
use alperf_gp::lml::{FitCache, LmlWorkspace};
use alperf_gp::optimize::{fit_gpr, GprConfig};
use alperf_linalg::matrix::Matrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// `n` 2-D points, every fourth a duplicate of the one before, so the
/// 1e-8 noise floor below climbs the jitter ladder.
fn data(n: usize) -> (Matrix, Vec<f64>) {
    let mut x = Matrix::from_fn(n, 2, |i, j| ((i * 5 + j) as f64 * 0.73).sin() * 3.0);
    for i in (4..n).step_by(4) {
        let prev = x.row(i - 1).to_vec();
        x.row_mut(i).copy_from_slice(&prev);
    }
    let y = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
    (x, y)
}

/// Allocations of 100 value and 100 gradient evaluations at order `n`,
/// after one warm-up evaluation of each.
fn per_100(kernel: &dyn Kernel, n: usize, noise: f64) -> (usize, usize) {
    let (x, y) = data(n);
    let cache = FitCache::build(kernel, &x);
    let mut ws = LmlWorkspace::new(&cache, &y).unwrap();
    ws.value(kernel, noise).unwrap();
    ws.grad(kernel, noise, true).unwrap();
    let values = allocations(|| {
        for _ in 0..100 {
            black_box(ws.value(kernel, noise).unwrap());
        }
    });
    let grads = allocations(|| {
        for _ in 0..100 {
            black_box(ws.grad(kernel, noise, true).unwrap());
        }
    });
    (values, grads)
}

#[test]
fn values_allocate_nothing_and_gradients_one_vector_at_every_order() {
    let kernels: Vec<Box<dyn Kernel>> = vec![
        Box::new(SquaredExponential::new(0.8, 1.1)),
        Box::new(Matern32::new(1.2, 0.9)),
        Box::new(Matern52::new(0.9, 1.3)),
        Box::new(RationalQuadratic::new(1.1, 1.0, 0.8)),
    ];
    for kernel in &kernels {
        for noise in [0.1, 1e-8] {
            for n in [10, 60] {
                let (values, grads) = per_100(kernel.as_ref(), n, noise);
                let case = format!("{:?} n={n} noise={noise}", kernel.param_names());
                assert_eq!(values, 0, "{case}: value evaluations allocated");
                assert_eq!(grads, 100, "{case}: one gradient vector per call");
            }
        }
    }
}

/// ARD-SE's distance form carries its length scales in a `Vec`, one
/// allocation per evaluation of either kind; the workspace adds none.
#[test]
fn ard_allocates_only_its_form_at_every_order() {
    let kernel = ArdSquaredExponential::new(vec![0.7, 1.4], 1.2);
    for n in [10, 60] {
        assert_eq!(per_100(&kernel, n, 0.1), (100, 200), "n={n}");
    }
}

/// With the caller's vector reused, gradients allocate nothing after the
/// first call.
#[test]
fn gradients_into_a_reused_vector_allocate_nothing() {
    let kernel = SquaredExponential::new(0.8, 1.1);
    let (x, y) = data(60);
    let cache = FitCache::build(&kernel, &x);
    let mut ws = LmlWorkspace::new(&cache, &y).unwrap();
    let mut g = Vec::new();
    ws.value(&kernel, 0.1).unwrap();
    ws.grad_into(&kernel, 0.1, true, &mut g).unwrap();
    let grads = allocations(|| {
        for _ in 0..100 {
            ws.grad_into(&kernel, 0.1, true, &mut g).unwrap();
            black_box(&g);
        }
    });
    assert_eq!(grads, 0);
    assert_eq!(g, ws.grad(&kernel, 0.1, true).unwrap());
}

/// The ascent sizes its state once per restart: a single-restart SE fit
/// allocates exactly as much when its ascent runs to convergence as when
/// it is stopped after two iterations.
#[test]
fn ascent_allocates_nothing_per_iteration() {
    let (x, y) = data(30);
    let fit = |max_iters: usize| {
        let mut cfg = GprConfig::new(Box::new(SquaredExponential::new(20.0, 0.2)))
            .with_restarts(1)
            .with_standardize(false);
        cfg.max_iters = max_iters;
        let mut iterations = 0;
        let count = allocations(|| iterations = fit_gpr(&x, &y, &cfg).unwrap().1.iterations);
        (count, iterations)
    };
    let (short, two) = fit(2);
    let (long, many) = fit(200);
    assert_eq!(two, 2);
    assert!(many > 10, "{many} iterations");
    assert_eq!(short, long, "{two} vs {many} iterations");
}
