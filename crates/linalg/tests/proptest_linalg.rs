//! Property-based tests for the linear-algebra substrate.

use alperf_linalg::{cholesky::Cholesky, matrix::Matrix, stats, triangular, vector};
use proptest::prelude::*;

/// Strategy: vector of `n` finite floats in a tame range.
fn vec_strategy(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0..100.0f64, n)
}

/// Build a random SPD matrix as `B B^T + (n * eps) I`.
fn spd_from(b_data: Vec<f64>, n: usize) -> Matrix {
    let b = Matrix::from_vec(n, n, b_data).unwrap();
    let bt = b.transpose();
    let mut a = b.matmul(&bt).unwrap();
    a.add_diagonal(n as f64 * 1e-6 + 1e-6);
    a
}

/// Cheap deterministic `rows x cols` matrix with entries in [-1, 1)
/// (xorshift64; proptest vectors of n^2 floats are too slow at n ~ 150).
fn pseudo_mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut s = seed | 1;
    let data: Vec<f64> = (0..rows * cols)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 1.0
        })
        .collect();
    Matrix::from_vec(rows, cols, data).unwrap()
}

/// Well-conditioned SPD: `B B^T / n + I` with `B` from [`pseudo_mat`].
fn pseudo_spd(n: usize, seed: u64) -> Matrix {
    let b = pseudo_mat(n, n, seed);
    let mut a = b.matmul(&b.transpose()).unwrap();
    let inv_n = 1.0 / n as f64;
    for v in a.as_mut_slice() {
        *v *= inv_n;
    }
    a.add_diagonal(1.0);
    a
}

proptest! {
    #[test]
    fn dot_is_commutative(x in vec_strategy(17), y in vec_strategy(17)) {
        let a = vector::dot(&x, &y);
        let b = vector::dot(&y, &x);
        prop_assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs()));
    }

    #[test]
    fn dot_linearity(x in vec_strategy(9), y in vec_strategy(9), c in -10.0..10.0f64) {
        let cx: Vec<f64> = x.iter().map(|v| c * v).collect();
        let lhs = vector::dot(&cx, &y);
        let rhs = c * vector::dot(&x, &y);
        prop_assert!((lhs - rhs).abs() <= 1e-7 * (1.0 + rhs.abs()));
    }

    #[test]
    fn norm2_triangle_inequality(x in vec_strategy(11), y in vec_strategy(11)) {
        let sum: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        prop_assert!(vector::norm2(&sum) <= vector::norm2(&x) + vector::norm2(&y) + 1e-9);
    }

    #[test]
    fn sq_dist_symmetric_nonnegative(x in vec_strategy(5), y in vec_strategy(5)) {
        let d1 = vector::sq_dist(&x, &y);
        let d2 = vector::sq_dist(&y, &x);
        prop_assert!(d1 >= 0.0);
        prop_assert!((d1 - d2).abs() < 1e-9 * (1.0 + d1));
        prop_assert_eq!(vector::sq_dist(&x, &x), 0.0);
    }

    #[test]
    fn cholesky_round_trip(b in vec_strategy(16)) {
        let a = spd_from(b, 4);
        let c = Cholesky::decompose(&a).unwrap();
        let diff = c.reconstruct().max_abs_diff(&a);
        let scale = a.frobenius_norm().max(1.0);
        prop_assert!(diff <= 1e-10 * scale, "diff={diff}, scale={scale}");
    }

    #[test]
    fn cholesky_solve_residual_small(b in vec_strategy(16), rhs in vec_strategy(4)) {
        let a = spd_from(b, 4);
        let c = Cholesky::decompose(&a).unwrap();
        let x = c.solve(&rhs).unwrap();
        let ax = a.matvec(&x).unwrap();
        let resid = vector::norm2(&vector::sub(&ax, &rhs));
        // Residual relative to conditioning: generous but catches real bugs.
        let cond = c.condition_estimate();
        prop_assert!(resid <= 1e-6 * cond.max(1.0) * (1.0 + vector::norm2(&rhs)));
    }

    #[test]
    fn log_det_positive_for_diagonally_dominant(d in prop::collection::vec(1.5..50.0f64, 5)) {
        let n = d.len();
        let mut a = Matrix::zeros(n, n);
        for i in 0..n { a[(i, i)] = d[i]; }
        let c = Cholesky::decompose(&a).unwrap();
        let expect: f64 = d.iter().map(|v| v.ln()).sum();
        prop_assert!((c.log_det() - expect).abs() < 1e-9);
    }

    #[test]
    fn triangular_solves_invert_each_other(b in vec_strategy(16), rhs in vec_strategy(4)) {
        let a = spd_from(b, 4);
        let c = Cholesky::decompose(&a).unwrap();
        let l = c.factor();
        let y = triangular::solve_lower(l, &rhs).unwrap();
        let ly = l.matvec(&y).unwrap();
        let resid = vector::norm2(&vector::sub(&ly, &rhs));
        prop_assert!(resid <= 1e-7 * (1.0 + vector::norm2(&rhs)));
    }

    #[test]
    fn matmul_associative_small(a in vec_strategy(9), b in vec_strategy(9), c in vec_strategy(9)) {
        let ma = Matrix::from_vec(3, 3, a).unwrap();
        let mb = Matrix::from_vec(3, 3, b).unwrap();
        let mc = Matrix::from_vec(3, 3, c).unwrap();
        let left = ma.matmul(&mb).unwrap().matmul(&mc).unwrap();
        let right = ma.matmul(&mb.matmul(&mc).unwrap()).unwrap();
        let scale = left.frobenius_norm().max(1.0);
        prop_assert!(left.max_abs_diff(&right) <= 1e-7 * scale);
    }

    #[test]
    fn transpose_involution(v in vec_strategy(12)) {
        let m = Matrix::from_vec(3, 4, v).unwrap();
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn standardizer_round_trips(x in prop::collection::vec(-1e4..1e4f64, 2..40)) {
        let s = stats::Standardizer::fit(&x);
        for &v in &x {
            let back = s.inverse(s.apply(v));
            prop_assert!((back - v).abs() <= 1e-8 * (1.0 + v.abs()));
        }
    }

    #[test]
    fn quantile_bounded_by_min_max(x in prop::collection::vec(-1e3..1e3f64, 1..50), q in 0.0..1.0f64) {
        let v = stats::quantile(&x, q).unwrap();
        prop_assert!(v >= stats::min(&x).unwrap() - 1e-12);
        prop_assert!(v <= stats::max(&x).unwrap() + 1e-12);
    }

    #[test]
    fn rmse_zero_iff_equal(x in prop::collection::vec(-50.0..50.0f64, 1..20)) {
        prop_assert_eq!(stats::rmse(&x, &x), 0.0);
    }

    #[test]
    fn blocked_cholesky_matches_unblocked(n in 40usize..150, seed in 1u64..1_000_000) {
        // Sizes straddle both panel boundaries (64, 128): 1, 2, or 3 panels.
        let a = pseudo_spd(n, seed);
        let cb = Cholesky::decompose_blocked(&a).unwrap();
        let cu = Cholesky::decompose_unblocked(&a).unwrap();
        let scale = cu
            .factor()
            .as_slice()
            .iter()
            .fold(1.0f64, |m, v| m.max(v.abs()));
        let diff = cb.factor().max_abs_diff(cu.factor());
        prop_assert!(diff <= 1e-12 * scale, "n={n} diff={diff} scale={scale}");
    }

    #[test]
    fn blocked_cholesky_matches_unblocked_on_jittered_rank_deficient(
        n in 80usize..140,
        seed in 1u64..1_000_000,
    ) {
        // Rank-deficient Gram matrix rescued by an explicit diagonal jitter:
        // both paths must factor it and agree to rounding amplified by the
        // (deliberately poor) conditioning.
        let b = pseudo_mat(n, n / 2, seed);
        let mut a = b.matmul(&b.transpose()).unwrap();
        let mean_diag = a.diagonal().iter().sum::<f64>() / n as f64;
        a.add_diagonal(1e-6 * mean_diag);
        let cb = Cholesky::decompose_blocked(&a).unwrap();
        let cu = Cholesky::decompose_unblocked(&a).unwrap();
        let scale = cu
            .factor()
            .as_slice()
            .iter()
            .fold(1.0f64, |m, v| m.max(v.abs()));
        let diff = cb.factor().max_abs_diff(cu.factor());
        prop_assert!(diff <= 1e-8 * scale, "n={n} diff={diff} scale={scale}");
        // Both reconstruct A to working accuracy.
        let fro = a.frobenius_norm().max(1.0);
        prop_assert!(cb.reconstruct().max_abs_diff(&a) <= 1e-9 * fro);
        prop_assert!(cu.reconstruct().max_abs_diff(&a) <= 1e-9 * fro);
    }

    #[test]
    fn jitter_ladder_rescues_rank_deficient_on_blocked_path(
        n in 128usize..150,
        seed in 1u64..1_000_000,
    ) {
        // n >= 128 exercises the blocked factorization inside the retry
        // ladder, including the full restore between rungs.
        let b = pseudo_mat(n, n / 3, seed);
        let a = b.matmul(&b.transpose()).unwrap();
        prop_assert!(Cholesky::decompose(&a).is_err());
        let c = Cholesky::decompose_jittered(&a, 1e-10, 12).unwrap();
        prop_assert!(c.jitter() > 0.0);
        let fro = a.frobenius_norm().max(1.0);
        let diff = c.reconstruct().max_abs_diff(&a);
        prop_assert!(diff <= 1e-3 * fro, "n={n} diff={diff} fro={fro}");
    }

    #[test]
    fn linspace_is_monotone(lo in -100.0..100.0f64, span in 0.1..100.0f64, n in 2..50usize) {
        let g = vector::linspace(lo, lo + span, n);
        prop_assert_eq!(g.len(), n);
        for w in g.windows(2) {
            prop_assert!(w[1] > w[0]);
        }
        prop_assert!((g[0] - lo).abs() < 1e-9);
        prop_assert!((g[n - 1] - (lo + span)).abs() < 1e-9);
    }
}

/// Exact panel-boundary orders (1 panel, boundary +/- 1, partial last
/// panel): the blocked and unblocked factors must agree to 1e-12.
#[test]
fn blocked_cholesky_boundary_sizes() {
    for &n in &[1usize, 2, 63, 64, 65, 96, 127, 128, 129, 160] {
        let a = pseudo_spd(n, 0x5eed + n as u64);
        let cb = Cholesky::decompose_blocked(&a).unwrap();
        let cu = Cholesky::decompose_unblocked(&a).unwrap();
        let diff = cb.factor().max_abs_diff(cu.factor());
        assert!(diff <= 1e-12, "n={n}: blocked vs unblocked diff {diff}");
        // The auto path must agree with whichever variant it dispatches to.
        let ca = Cholesky::decompose(&a).unwrap();
        let expect = if n >= 128 { &cb } else { &cu };
        assert_eq!(ca.factor().as_slice(), expect.factor().as_slice(), "n={n}");
    }
}
