//! Property-based tests for the GPR engine: kernel validity, posterior
//! consistency, and the paper's structural assumptions about predictive
//! uncertainty.

use alperf_gp::kernel::{
    ArdSquaredExponential, Kernel, Matern32, Matern52, RationalQuadratic, SquaredExponential,
};
use alperf_gp::lml::assemble_covariance;
use alperf_gp::model::Gpr;
use alperf_linalg::{cholesky::Cholesky, matrix::Matrix};
use proptest::prelude::*;

fn points_strategy(n: usize, d: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-5.0..5.0f64, n * d)
}

fn kernels() -> Vec<Box<dyn Kernel>> {
    vec![
        Box::new(SquaredExponential::new(0.7, 1.3)),
        Box::new(Matern32::new(1.1, 0.9)),
        Box::new(Matern52::new(0.8, 1.0)),
        Box::new(RationalQuadratic::new(1.0, 1.1, 1.5)),
        Box::new(ArdSquaredExponential::new(vec![0.5, 2.0], 1.0)),
    ]
}

proptest! {
    /// Kernel matrices plus any positive noise are positive definite — the
    /// mathematical foundation of the whole GPR machinery.
    #[test]
    fn kernel_matrices_are_psd(data in points_strategy(8, 2), noise in 0.01..1.0f64) {
        let x = Matrix::from_vec(8, 2, data).unwrap();
        for k in kernels() {
            let mut ky = assemble_covariance(k.as_ref(), &x);
            ky.add_diagonal(noise * noise);
            prop_assert!(
                Cholesky::decompose_jittered(&ky, 1e-12, 6).is_ok(),
                "kernel produced an indefinite matrix"
            );
        }
    }

    /// k(a, b) = k(b, a) and |k(a, b)| <= sqrt(k(a,a) k(b,b)) for every kernel.
    #[test]
    fn kernel_symmetry_and_cauchy_schwarz(
        a in prop::collection::vec(-5.0..5.0f64, 2),
        b in prop::collection::vec(-5.0..5.0f64, 2),
    ) {
        for k in kernels() {
            let kab = k.eval(&a, &b);
            let kba = k.eval(&b, &a);
            prop_assert!((kab - kba).abs() < 1e-12);
            let bound = (k.eval(&a, &a) * k.eval(&b, &b)).sqrt();
            prop_assert!(kab.abs() <= bound + 1e-9);
        }
    }

    /// Analytic kernel gradients match central finite differences at random
    /// points and hyperparameters.
    #[test]
    fn kernel_gradients_match_fd(
        a in prop::collection::vec(-3.0..3.0f64, 2),
        b in prop::collection::vec(-3.0..3.0f64, 2),
        scale in 0.3..3.0f64,
        amp in 0.3..3.0f64,
    ) {
        let ks: Vec<Box<dyn Kernel>> = vec![
            Box::new(SquaredExponential::new(scale, amp)),
            Box::new(Matern32::new(scale, amp)),
            Box::new(Matern52::new(scale, amp)),
            Box::new(RationalQuadratic::new(scale, amp, 1.7)),
        ];
        let h = 1e-6;
        for k in ks {
            let g = k.grad(&a, &b);
            let p0 = k.params();
            for j in 0..k.n_params() {
                let mut kp = k.clone_box();
                let mut p = p0.clone();
                p[j] += h;
                kp.set_params(&p);
                let up = kp.eval(&a, &b);
                p[j] -= 2.0 * h;
                kp.set_params(&p);
                let dn = kp.eval(&a, &b);
                let fd = (up - dn) / (2.0 * h);
                prop_assert!(
                    (fd - g[j]).abs() <= 2e-4 * (1.0 + fd.abs()),
                    "param {j}: fd={fd} analytic={}", g[j]
                );
            }
        }
    }

    /// The posterior mean at a training point moves toward the observation,
    /// and predictive std there is below the prior std.
    #[test]
    fn posterior_contracts_at_training_points(
        xs in prop::collection::vec(-4.0..4.0f64, 3..10),
        seed_y in prop::collection::vec(-2.0..2.0f64, 10),
    ) {
        let n = xs.len();
        // Deduplicate inputs: repeated x with different y is legal but makes
        // the "mean near observation" assertion meaningless.
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assume!(sorted.windows(2).all(|w| (w[1] - w[0]).abs() > 0.4));
        let y: Vec<f64> = (0..n).map(|i| seed_y[i % seed_y.len()]).collect();
        let x = Matrix::from_vec(n, 1, xs.clone()).unwrap();
        let gpr = Gpr::fit(x, &y, Box::new(SquaredExponential::new(0.5, 1.0)), 0.05, true).unwrap();
        let prior_std = gpr.standardizer().std; // amplitude 1 on std scale
        for (i, &xi) in xs.iter().enumerate() {
            let p = gpr.predict_one(&[xi]).unwrap();
            prop_assert!(p.std < prior_std + 1e-9);
            // With small noise the mean should be close to the observation.
            prop_assert!((p.mean - y[i]).abs() < 0.5, "at {xi}: {} vs {}", p.mean, y[i]);
        }
    }

    /// Predictive std is non-negative everywhere and finite.
    #[test]
    fn predictions_are_finite(
        xs in prop::collection::vec(-4.0..4.0f64, 2..8),
        q in -10.0..10.0f64,
    ) {
        let n = xs.len();
        let y: Vec<f64> = xs.iter().map(|v| v * 0.3).collect();
        let x = Matrix::from_vec(n, 1, xs).unwrap();
        let gpr = Gpr::fit(x, &y, Box::new(Matern52::new(1.0, 1.0)), 0.1, true).unwrap();
        let p = gpr.predict_one(&[q]).unwrap();
        prop_assert!(p.mean.is_finite());
        prop_assert!(p.std.is_finite() && p.std >= 0.0);
    }

    /// The batched prediction engine agrees with the scalar per-point path
    /// to 1e-10 relative, for every kernel (specialized SE/ARD cross paths
    /// and the generic pointwise fallback), random dimensions, and pool
    /// sizes including the empty pool and a single candidate.
    #[test]
    fn predict_batch_matches_predict_one(
        train in points_strategy(9, 2),
        pool in prop::collection::vec(-6.0..6.0f64, 0..40),
        noise in 0.02..0.5f64,
    ) {
        let n = 9;
        let x = Matrix::from_vec(n, 2, train).unwrap();
        let y: Vec<f64> = (0..n).map(|i| (x[(i, 0)] * 0.6).sin() + 0.3 * x[(i, 1)]).collect();
        let m = pool.len() / 2;
        let xs = Matrix::from_vec(m, 2, pool[..m * 2].to_vec()).unwrap();
        for k in kernels() {
            let gpr = Gpr::fit(x.clone(), &y, k, noise, true).unwrap();
            let batch = gpr.predict_batch(&xs).unwrap();
            prop_assert_eq!(batch.len(), m);
            for (i, p) in batch.iter().enumerate() {
                let q = gpr.predict_one(xs.row(i)).unwrap();
                prop_assert!(
                    (p.mean - q.mean).abs() <= 1e-10 * (1.0 + q.mean.abs()),
                    "mean {i}: batch {} vs one {}", p.mean, q.mean
                );
                prop_assert!(
                    (p.std - q.std).abs() <= 1e-10 * (1.0 + q.std.abs()),
                    "std {i}: batch {} vs one {}", p.std, q.std
                );
            }
        }
    }

    /// Single-candidate pools exercise the degenerate 1-RHS solve path.
    #[test]
    fn predict_batch_single_candidate(q0 in -6.0..6.0f64, q1 in -6.0..6.0f64) {
        let xs: Vec<f64> = (0..6).flat_map(|i| [i as f64 * 0.8, (i as f64).cos()]).collect();
        let y: Vec<f64> = (0..6).map(|i| (i as f64 * 0.4).sin()).collect();
        let x = Matrix::from_vec(6, 2, xs).unwrap();
        let gpr = Gpr::fit(x, &y, Box::new(SquaredExponential::new(0.9, 1.1)), 0.05, true).unwrap();
        let single = Matrix::from_vec(1, 2, vec![q0, q1]).unwrap();
        let batch = gpr.predict_batch(&single).unwrap();
        let one = gpr.predict_one(&[q0, q1]).unwrap();
        prop_assert!((batch[0].mean - one.mean).abs() <= 1e-10 * (1.0 + one.mean.abs()));
        prop_assert!((batch[0].std - one.std).abs() <= 1e-10 * (1.0 + one.std.abs()));
    }

    /// LML is invariant to the order of training points.
    #[test]
    fn lml_is_permutation_invariant(perm_seed in 0u64..1000) {
        let xs: Vec<f64> = (0..8).map(|i| i as f64 * 0.7).collect();
        let y: Vec<f64> = xs.iter().map(|v| (v * 0.5).sin()).collect();
        // Deterministic permutation derived from the seed.
        let mut idx: Vec<usize> = (0..8).collect();
        let mut s = perm_seed;
        for i in (1..8).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            idx.swap(i, j);
        }
        let x1 = Matrix::from_vec(8, 1, xs.clone()).unwrap();
        let x2 = x1.select_rows(&idx);
        let y2: Vec<f64> = idx.iter().map(|&i| y[i]).collect();
        let k = SquaredExponential::new(1.0, 1.0);
        let g1 = Gpr::fit(x1, &y, Box::new(k.clone()), 0.1, false).unwrap();
        let g2 = Gpr::fit(x2, &y2, Box::new(k), 0.1, false).unwrap();
        prop_assert!((g1.lml() - g2.lml()).abs() < 1e-8);
    }
}

// ---------------------------------------------------------------------------
// Deterministic gradient and cache checks for the fast training path.
// ---------------------------------------------------------------------------

/// Fixed 2-D training set used by the gradient checks below.
fn grad_check_data() -> (Matrix, Vec<f64>) {
    let n = 14;
    let x = Matrix::from_fn(n, 2, |i, j| {
        let t = i as f64 / n as f64;
        if j == 0 {
            3.0 + 6.0 * t
        } else {
            1.2 + 1.2 * ((i * 5 % n) as f64 / n as f64)
        }
    });
    let y: Vec<f64> = (0..n)
        .map(|i| (i as f64 * 0.6).sin() + 0.05 * i as f64)
        .collect();
    (x, y)
}

/// Central finite difference of the LML in `log`-parameter `j`.
fn fd_kernel_param(kernel: &dyn Kernel, j: usize, sn: f64, x: &Matrix, y: &[f64]) -> f64 {
    let h = 1e-6;
    let p0 = kernel.params();
    let mut kp = kernel.clone_box();
    let mut p = p0.clone();
    p[j] += h;
    kp.set_params(&p);
    let up = alperf_gp::lml::lml_value(kp.as_ref(), sn, x, y).unwrap();
    p[j] -= 2.0 * h;
    kp.set_params(&p);
    let dn = alperf_gp::lml::lml_value(kp.as_ref(), sn, x, y).unwrap();
    (up - dn) / (2.0 * h)
}

/// `lml_and_grad` must match central finite differences to 1e-5 relative
/// tolerance for the cached SE path, the cached ARD path, and a
/// generic-path kernel — both with and without the noise gradient.
#[test]
fn lml_gradient_matches_central_differences_across_kernels() {
    let (x, y) = grad_check_data();
    let sn: f64 = 0.2;
    let h = 1e-6;
    let kernels: Vec<Box<dyn Kernel>> = vec![
        Box::new(SquaredExponential::new(1.4, 0.9)),
        Box::new(ArdSquaredExponential::new(vec![2.0, 0.8], 1.1)),
        Box::new(Matern52::new(1.2, 1.0)),
    ];
    for kernel in &kernels {
        for optimize_noise in [false, true] {
            let (_, grad) =
                alperf_gp::lml::lml_and_grad(kernel.as_ref(), sn, &x, &y, optimize_noise).unwrap();
            let np = kernel.n_params();
            assert_eq!(grad.len(), np + usize::from(optimize_noise));
            for (j, gj) in grad.iter().take(np).enumerate() {
                let fd = fd_kernel_param(kernel.as_ref(), j, sn, &x, &y);
                assert!(
                    (fd - gj).abs() <= 1e-5 * (1.0 + fd.abs()),
                    "{} param {j}: fd={fd} analytic={gj}",
                    kernel.param_names()[j],
                );
            }
            if optimize_noise {
                let up = alperf_gp::lml::lml_value(kernel.as_ref(), (sn.ln() + h).exp(), &x, &y)
                    .unwrap();
                let dn = alperf_gp::lml::lml_value(kernel.as_ref(), (sn.ln() - h).exp(), &x, &y)
                    .unwrap();
                let fd = (up - dn) / (2.0 * h);
                assert!(
                    (fd - grad[np]).abs() <= 1e-5 * (1.0 + fd.abs()),
                    "noise grad: fd={fd} analytic={}",
                    grad[np]
                );
            }
        }
    }
}

/// The distance-cached LML surface must agree with the pointwise one for
/// every SE-family kernel (the optimizer uses the cached surface; public
/// `lml_value`/`lml_and_grad` keep the pointwise assembly).
#[test]
fn cached_lml_and_grad_match_pointwise() {
    use alperf_gp::lml::{
        lml_and_grad, lml_and_grad_cached, lml_value, lml_value_cached, FitCache,
    };
    let (x, y) = grad_check_data();
    let sn = 0.17;
    let kernels: Vec<Box<dyn Kernel>> = vec![
        Box::new(SquaredExponential::new(0.9, 1.3)),
        Box::new(ArdSquaredExponential::new(vec![1.5, 0.6], 0.8)),
    ];
    for kernel in &kernels {
        let cache = FitCache::build(kernel.as_ref(), &x);
        assert!(cache.is_cached());
        let v = lml_value(kernel.as_ref(), sn, &x, &y).unwrap();
        let vc = lml_value_cached(kernel.as_ref(), sn, &x, &y, &cache).unwrap();
        assert!(
            (v - vc).abs() <= 1e-9 * (1.0 + v.abs()),
            "lml: pointwise {v} vs cached {vc}"
        );
        let (_, g) = lml_and_grad(kernel.as_ref(), sn, &x, &y, true).unwrap();
        let (_, gc) = lml_and_grad_cached(kernel.as_ref(), sn, &x, &y, true, &cache).unwrap();
        for (a, b) in g.iter().zip(&gc) {
            assert!(
                (a - b).abs() <= 1e-8 * (1.0 + a.abs()),
                "grad: pointwise {a} vs cached {b}"
            );
        }
    }
}
