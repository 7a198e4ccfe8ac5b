//! The three elliptic operators of the HPGMG-FE benchmark factor.
//!
//! All three discretize `-div(D(x) grad u) = f` on the unit cube with
//! homogeneous Dirichlet conditions, using 7-point finite differences at
//! spacing `h = 1/n`:
//!
//! * `Poisson1`: `D = I` (constant coefficient) — the cheapest stencil;
//! * `Poisson2`: scalar variable coefficient `a(x) = 1 + x/2`, with
//!   face-midpoint coefficient evaluation (flux form) — extra coefficient
//!   evaluations per point make it the most expensive stencil;
//! * `Poisson2Affine`: constant *anisotropic* diagonal tensor
//!   `D = diag(1, 1/sy^2, 1/sz^2)` arising from an axis-scaling affine mesh
//!   deformation `(x, y, z) -> (x, sy y, sz z)` pulled back to the unit
//!   cube (shear omitted; see crate docs).

use crate::grid3::{interior_slabs, Grid3};

/// Which elliptic operator to solve — the paper's `Operator` factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatorKind {
    /// Constant-coefficient Poisson (`poisson1`).
    Poisson1,
    /// Variable-coefficient Poisson (`poisson2`).
    Poisson2,
    /// Constant-coefficient Poisson on an affinely deformed mesh
    /// (`poisson2affine`).
    Poisson2Affine,
}

impl OperatorKind {
    /// All operators, in the paper's Table I order.
    pub fn all() -> [OperatorKind; 3] {
        [
            OperatorKind::Poisson1,
            OperatorKind::Poisson2,
            OperatorKind::Poisson2Affine,
        ]
    }

    /// The paper's level name for this operator.
    pub fn name(&self) -> &'static str {
        match self {
            OperatorKind::Poisson1 => "poisson1",
            OperatorKind::Poisson2 => "poisson2",
            OperatorKind::Poisson2Affine => "poisson2affine",
        }
    }

    /// Parse a paper-style level name.
    pub fn from_name(s: &str) -> Option<OperatorKind> {
        match s {
            "poisson1" => Some(OperatorKind::Poisson1),
            "poisson2" => Some(OperatorKind::Poisson2),
            "poisson2affine" => Some(OperatorKind::Poisson2Affine),
            _ => None,
        }
    }

    /// Anisotropy factors `(dx, dy, dz)` for the affine operator; `(1,1,1)`
    /// otherwise. The deformation scales y by 1.25 and z by 0.8, giving
    /// tensor entries `1/s^2`.
    pub fn axis_coeffs(&self) -> (f64, f64, f64) {
        match self {
            OperatorKind::Poisson2Affine => (1.0, 1.0 / (1.25 * 1.25), 1.0 / (0.8 * 0.8)),
            _ => (1.0, 1.0, 1.0),
        }
    }

    /// Scalar coefficient field `a(x, y, z)` for the variable-coefficient
    /// operator; `1` otherwise. Strictly positive on the cube.
    #[inline]
    pub fn coefficient(&self, x: f64, _y: f64, _z: f64) -> f64 {
        match self {
            OperatorKind::Poisson2 => 1.0 + 0.5 * x,
            _ => 1.0,
        }
    }

    /// Approximate floating-point work per interior point per operator
    /// application — feeds the performance model's per-operator cost.
    pub fn flops_per_point(&self) -> f64 {
        match self {
            OperatorKind::Poisson1 => 8.0,
            OperatorKind::Poisson2 => 21.0,
            OperatorKind::Poisson2Affine => 11.0,
        }
    }
}

/// Stencil weights for one interior vertex: the diagonal and the six
/// neighbor coefficients, all already divided by `h^2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stencil {
    /// Diagonal weight.
    pub diag: f64,
    /// Weights for `(i-1, i+1, j-1, j+1, k-1, k+1)` neighbors (negated in
    /// the operator, i.e. `A u = diag*u - sum w_m u_m`).
    pub nbr: [f64; 6],
}

/// Compute the stencil at vertex `(i, j, k)` of a grid with refinement `n`.
pub fn stencil_at(kind: OperatorKind, n: usize, i: usize, j: usize, k: usize) -> Stencil {
    let h = 1.0 / n as f64;
    let inv_h2 = 1.0 / (h * h);
    match kind {
        OperatorKind::Poisson1 => Stencil {
            diag: 6.0 * inv_h2,
            nbr: [inv_h2; 6],
        },
        OperatorKind::Poisson2Affine => {
            let (dx, dy, dz) = kind.axis_coeffs();
            Stencil {
                diag: 2.0 * (dx + dy + dz) * inv_h2,
                nbr: [
                    dx * inv_h2,
                    dx * inv_h2,
                    dy * inv_h2,
                    dy * inv_h2,
                    dz * inv_h2,
                    dz * inv_h2,
                ],
            }
        }
        OperatorKind::Poisson2 => {
            let (x, y, z) = (i as f64 * h, j as f64 * h, k as f64 * h);
            // Face-midpoint coefficients (flux form).
            let axm = kind.coefficient(x - 0.5 * h, y, z);
            let axp = kind.coefficient(x + 0.5 * h, y, z);
            let aym = kind.coefficient(x, y - 0.5 * h, z);
            let ayp = kind.coefficient(x, y + 0.5 * h, z);
            let azm = kind.coefficient(x, y, z - 0.5 * h);
            let azp = kind.coefficient(x, y, z + 0.5 * h);
            Stencil {
                diag: (axm + axp + aym + ayp + azm + azp) * inv_h2,
                nbr: [
                    axm * inv_h2,
                    axp * inv_h2,
                    aym * inv_h2,
                    ayp * inv_h2,
                    azm * inv_h2,
                    azp * inv_h2,
                ],
            }
        }
    }
}

/// `out = A u` over the interior (boundary of `out` left at zero).
///
/// # Panics
/// Panics if the grids have different refinements.
pub fn apply(kind: OperatorKind, u: &Grid3, out: &mut Grid3) {
    assert_eq!(u.n(), out.n(), "apply: refinement mismatch");
    let n = u.n();
    let side = u.side();
    let plane = side * side;
    let ud = u.as_slice();
    interior_slabs(n, out.as_mut_slice().chunks_mut(plane), |k, slab| {
        for j in 1..n {
            let row = j * side;
            for i in 1..n {
                let st = stencil_at(kind, n, i, j, k);
                let c = i + row + k * plane;
                let val = st.diag * ud[c]
                    - st.nbr[0] * ud[c - 1]
                    - st.nbr[1] * ud[c + 1]
                    - st.nbr[2] * ud[c - side]
                    - st.nbr[3] * ud[c + side]
                    - st.nbr[4] * ud[c - plane]
                    - st.nbr[5] * ud[c + plane];
                slab[row + i] = val;
            }
        }
    });
}

/// `r = f - A u` over the interior.
pub fn residual(kind: OperatorKind, u: &Grid3, f: &Grid3, r: &mut Grid3) {
    assert_eq!(u.n(), f.n(), "residual: refinement mismatch");
    assert_eq!(u.n(), r.n(), "residual: refinement mismatch");
    let n = u.n();
    let side = u.side();
    let plane = side * side;
    let ud = u.as_slice();
    let fd = f.as_slice();
    interior_slabs(n, r.as_mut_slice().chunks_mut(plane), |k, slab| {
        for j in 1..n {
            let row = j * side;
            for i in 1..n {
                let st = stencil_at(kind, n, i, j, k);
                let c = i + row + k * plane;
                let au = st.diag * ud[c]
                    - st.nbr[0] * ud[c - 1]
                    - st.nbr[1] * ud[c + 1]
                    - st.nbr[2] * ud[c - side]
                    - st.nbr[3] * ud[c + side]
                    - st.nbr[4] * ud[c - plane]
                    - st.nbr[5] * ud[c + plane];
                slab[row + i] = fd[c] - au;
            }
        }
    });
}

/// Upper bound on the largest eigenvalue of `A` by Gershgorin's theorem:
/// `max_i (a_ii + sum_j |a_ij|)`, which for these stencils is
/// `2 * max diag`. Used to scale smoothers.
pub fn eigen_upper_bound(kind: OperatorKind, n: usize) -> f64 {
    // The diagonal is maximized where the coefficient field is largest; for
    // a(x) = 1 + x/2 that is x = 1. Sample a few interior points to be safe.
    let mut max_diag = 0.0f64;
    for &(i, j, k) in &[
        (1, 1, 1),
        (n - 1, n - 1, n - 1),
        (n / 2, n / 2, n / 2),
        (n - 1, 1, 1),
    ] {
        max_diag = max_diag.max(stencil_at(kind, n, i, j, k).diag);
    }
    2.0 * max_diag
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn names_round_trip() {
        for k in OperatorKind::all() {
            assert_eq!(OperatorKind::from_name(k.name()), Some(k));
        }
        assert_eq!(OperatorKind::from_name("nope"), None);
    }

    #[test]
    fn poisson1_matches_hand_computed_stencil() {
        // n = 4, h = 1/4, 1/h^2 = 16; A u at the center of a delta function.
        let n = 4;
        let mut u = Grid3::zeros(n);
        u.set(2, 2, 2, 1.0);
        let mut out = Grid3::zeros(n);
        apply(OperatorKind::Poisson1, &u, &mut out);
        assert!((out.get(2, 2, 2) - 96.0).abs() < 1e-12); // 6 * 16
        assert!((out.get(1, 2, 2) + 16.0).abs() < 1e-12); // -1 * 16
        assert!((out.get(2, 1, 2) + 16.0).abs() < 1e-12);
        assert_eq!(out.get(1, 1, 1), 0.0); // not a neighbor
    }

    #[test]
    fn operator_is_symmetric() {
        // <A u, v> == <u, A v> for random-ish u, v (all operators).
        let n = 8;
        for kind in OperatorKind::all() {
            let mut u = Grid3::zeros(n);
            let mut v = Grid3::zeros(n);
            u.fill_interior(|x, y, z| (5.0 * x).sin() + y * y - z);
            v.fill_interior(|x, y, z| (3.0 * y).cos() * x + z * z);
            let mut au = Grid3::zeros(n);
            let mut av = Grid3::zeros(n);
            apply(kind, &u, &mut au);
            apply(kind, &v, &mut av);
            let dot = |a: &Grid3, b: &Grid3| {
                let mut s = 0.0;
                for k in 1..n {
                    for j in 1..n {
                        for i in 1..n {
                            s += a.get(i, j, k) * b.get(i, j, k);
                        }
                    }
                }
                s
            };
            let lhs = dot(&au, &v);
            let rhs = dot(&u, &av);
            assert!(
                (lhs - rhs).abs() <= 1e-9 * (1.0 + lhs.abs()),
                "{kind:?}: {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn operator_is_positive_definite_on_samples() {
        let n = 8;
        for kind in OperatorKind::all() {
            let mut u = Grid3::zeros(n);
            u.fill_interior(|x, y, z| (x - 0.3) * (y + 0.1) + z);
            let mut au = Grid3::zeros(n);
            apply(kind, &u, &mut au);
            let mut s = 0.0;
            for k in 1..n {
                for j in 1..n {
                    for i in 1..n {
                        s += u.get(i, j, k) * au.get(i, j, k);
                    }
                }
            }
            assert!(s > 0.0, "{kind:?}: u^T A u = {s}");
        }
    }

    /// Truncation error of the discrete operator against the analytic
    /// manufactured solution shrinks as O(h^2).
    #[test]
    fn truncation_error_is_second_order() {
        let u_exact = |x: f64, y: f64, z: f64| (PI * x).sin() * (PI * y).sin() * (PI * z).sin();
        for kind in OperatorKind::all() {
            let f_exact = move |x: f64, y: f64, z: f64| -> f64 {
                let u = u_exact(x, y, z);
                match kind {
                    OperatorKind::Poisson1 => 3.0 * PI * PI * u,
                    OperatorKind::Poisson2Affine => {
                        let (dx, dy, dz) = kind.axis_coeffs();
                        (dx + dy + dz) * PI * PI * u
                    }
                    // f = a * 3 pi^2 u - a_x u_x with a = 1 + x/2.
                    OperatorKind::Poisson2 => {
                        let a = 1.0 + 0.5 * x;
                        let ux = PI * (PI * x).cos() * (PI * y).sin() * (PI * z).sin();
                        a * 3.0 * PI * PI * u - 0.5 * ux
                    }
                }
            };
            let mut errs = Vec::new();
            for n in [8usize, 16, 32] {
                let mut u = Grid3::zeros(n);
                u.fill_interior(u_exact);
                let mut au = Grid3::zeros(n);
                apply(kind, &u, &mut au);
                let mut f = Grid3::zeros(n);
                f.fill_interior(f_exact);
                errs.push(au.max_diff(&f));
            }
            // Ratios ~4 per refinement for O(h^2).
            assert!(errs[0] / errs[1] > 3.0, "{kind:?}: {errs:?}");
            assert!(errs[1] / errs[2] > 3.0, "{kind:?}: {errs:?}");
        }
    }

    #[test]
    fn residual_zero_at_discrete_solution() {
        // r = f - A u is exactly zero when f := A u.
        let n = 8;
        let mut u = Grid3::zeros(n);
        u.fill_interior(|x, y, z| x * y * z);
        let mut f = Grid3::zeros(n);
        apply(OperatorKind::Poisson2, &u, &mut f);
        let mut r = Grid3::zeros(n);
        residual(OperatorKind::Poisson2, &u, &f, &mut r);
        assert!(r.norm_inf() < 1e-10);
    }

    #[test]
    fn flops_ordering_matches_stencil_complexity() {
        assert!(
            OperatorKind::Poisson2.flops_per_point()
                > OperatorKind::Poisson2Affine.flops_per_point()
        );
        assert!(
            OperatorKind::Poisson2Affine.flops_per_point()
                > OperatorKind::Poisson1.flops_per_point()
        );
    }

    #[test]
    fn eigen_bound_dominates_diagonal() {
        for kind in OperatorKind::all() {
            let n = 16;
            let b = eigen_upper_bound(kind, n);
            let d = stencil_at(kind, n, n / 2, n / 2, n / 2).diag;
            assert!(b >= d);
        }
    }

    #[test]
    fn coefficient_positive_on_cube() {
        for kind in OperatorKind::all() {
            for &x in &[0.0, 0.5, 1.0] {
                assert!(kind.coefficient(x, 0.5, 0.5) > 0.0);
            }
        }
    }

    #[test]
    fn parallel_apply_matches_serial_values() {
        // n = 64 takes the parallel path; verify against stencil_at.
        let n = 64;
        let mut u = Grid3::zeros(n);
        u.fill_interior(|x, y, z| x + 2.0 * y * y + (3.0 * z).sin());
        let mut out = Grid3::zeros(n);
        apply(OperatorKind::Poisson1, &u, &mut out);
        let (i, j, k) = (31, 17, 44);
        let st = stencil_at(OperatorKind::Poisson1, n, i, j, k);
        let expect = st.diag * u.get(i, j, k)
            - st.nbr[0] * u.get(i - 1, j, k)
            - st.nbr[1] * u.get(i + 1, j, k)
            - st.nbr[2] * u.get(i, j - 1, k)
            - st.nbr[3] * u.get(i, j + 1, k)
            - st.nbr[4] * u.get(i, j, k - 1)
            - st.nbr[5] * u.get(i, j, k + 1);
        assert!((out.get(i, j, k) - expect).abs() < 1e-12);
    }
}
