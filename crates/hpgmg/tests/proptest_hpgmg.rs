//! Property-based tests for the multigrid substrate: operator symmetry and
//! positivity on random fields, smoother contraction, transfer-operator
//! consistency, and solver robustness across random right-hand sides.

use alperf_hpgmg::cycle::Hierarchy;
use alperf_hpgmg::grid3::Grid3;
use alperf_hpgmg::operator::{self, OperatorKind};
use alperf_hpgmg::smoother;
use alperf_hpgmg::transfer;
use proptest::prelude::*;

/// Fill a grid's interior from a coefficient vector (pseudo-random field
/// parameterized by proptest).
fn fill_from(g: &mut Grid3, coeffs: &[f64]) {
    let c = coeffs.to_vec();
    g.fill_interior(move |x, y, z| {
        let mut v = 0.0;
        for (k, &a) in c.iter().enumerate() {
            let f = (k + 1) as f64;
            v += a * (f * x).sin() * (f * 1.3 * y).cos() * (f * 0.7 * z).sin();
        }
        v
    });
}

fn dot(a: &Grid3, b: &Grid3) -> f64 {
    let n = a.n();
    let mut s = 0.0;
    for k in 1..n {
        for j in 1..n {
            for i in 1..n {
                s += a.get(i, j, k) * b.get(i, j, k);
            }
        }
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// <A u, v> == <u, A v> and <A u, u> > 0 for random nonzero fields.
    #[test]
    fn operators_symmetric_positive(
        cu in prop::collection::vec(-2.0..2.0f64, 3),
        cv in prop::collection::vec(-2.0..2.0f64, 3),
    ) {
        prop_assume!(cu.iter().any(|v| v.abs() > 0.1));
        let n = 8;
        for kind in OperatorKind::all() {
            let mut u = Grid3::zeros(n);
            let mut v = Grid3::zeros(n);
            fill_from(&mut u, &cu);
            fill_from(&mut v, &cv);
            let mut au = Grid3::zeros(n);
            let mut av = Grid3::zeros(n);
            operator::apply(kind, &u, &mut au);
            operator::apply(kind, &v, &mut av);
            let lhs = dot(&au, &v);
            let rhs = dot(&u, &av);
            prop_assert!((lhs - rhs).abs() <= 1e-8 * (1.0 + lhs.abs()), "{kind:?}");
            prop_assert!(dot(&au, &u) > 0.0, "{kind:?} not positive");
        }
    }

    /// One V-cycle contracts the residual for any random RHS.
    #[test]
    fn vcycle_contracts_for_random_rhs(c in prop::collection::vec(-3.0..3.0f64, 4)) {
        prop_assume!(c.iter().any(|v| v.abs() > 0.1));
        let mut h = Hierarchy::new(OperatorKind::Poisson1, 16);
        fill_from(h.rhs_mut(), &c);
        let r0 = h.residual_norm();
        prop_assume!(r0 > 1e-12);
        h.vcycle();
        let r1 = h.residual_norm();
        prop_assert!(r1 < 0.3 * r0, "contraction {r1}/{r0}");
    }

    /// Gauss–Seidel never increases the residual, from any starting guess.
    #[test]
    fn smoother_never_diverges(
        cu in prop::collection::vec(-2.0..2.0f64, 3),
        cf in prop::collection::vec(-2.0..2.0f64, 3),
    ) {
        let n = 8;
        for kind in OperatorKind::all() {
            let mut u = Grid3::zeros(n);
            let mut f = Grid3::zeros(n);
            fill_from(&mut u, &cu);
            fill_from(&mut f, &cf);
            let mut r = Grid3::zeros(n);
            operator::residual(kind, &u, &f, &mut r);
            let before = r.norm_l2();
            smoother::gauss_seidel_rb(kind, &mut u, &f);
            operator::residual(kind, &u, &f, &mut r);
            let after = r.norm_l2();
            prop_assert!(after <= before * (1.0 + 1e-9), "{kind:?}: {after} > {before}");
            prop_assert!(u.boundary_is_zero());
        }
    }

    /// Restriction then prolongation is a contraction in the max-norm for
    /// smooth fields (it removes high-frequency content, never amplifies).
    #[test]
    fn restrict_prolong_contracts_smooth_fields(c in prop::collection::vec(-2.0..2.0f64, 2)) {
        prop_assume!(c.iter().any(|v| v.abs() > 0.1));
        let mut fine = Grid3::zeros(16);
        // Low-frequency content only.
        let cc = c.clone();
        fine.fill_interior(move |x, y, z| {
            cc[0] * (std::f64::consts::PI * x).sin() * (std::f64::consts::PI * y).sin()
                * (std::f64::consts::PI * z).sin()
                + cc[1] * x * (1.0 - x) * y * (1.0 - y) * z * (1.0 - z)
        });
        let mut coarse = Grid3::zeros(8);
        transfer::restrict(&fine, &mut coarse);
        let mut back = Grid3::zeros(16);
        transfer::prolong_add(&coarse, &mut back);
        prop_assert!(back.norm_inf() <= fine.norm_inf() * 1.05 + 1e-12);
    }

    /// FMG reduces the residual by orders of magnitude for any smooth RHS.
    #[test]
    fn fmg_solves_random_smooth_problems(c in prop::collection::vec(-3.0..3.0f64, 3)) {
        prop_assume!(c.iter().any(|v| v.abs() > 0.1));
        for kind in OperatorKind::all() {
            let mut h = Hierarchy::new(kind, 16);
            fill_from(h.rhs_mut(), &c);
            let r0 = h.residual_norm();
            prop_assume!(r0 > 1e-12);
            h.fmg(2);
            let r1 = h.residual_norm();
            prop_assert!(r1 < 1e-2 * r0, "{kind:?}: {r1} vs {r0}");
        }
    }
}
