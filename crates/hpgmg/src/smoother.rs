//! Smoothers: damped Jacobi and Chebyshev polynomial acceleration.
//!
//! HPGMG itself smooths with Chebyshev polynomials over a Jacobi
//! preconditioner; we implement both. Damped Jacobi (`omega = 2/3`) is the
//! workhorse inside V-cycles; the Chebyshev smoother targets the upper part
//! of the spectrum `[lambda_max / 30, 1.1 lambda_max]` with `lambda_max`
//! from the Gershgorin bound — the same recipe as HPGMG's `CHEBYSHEV_DEGREE`
//! smoother.

use crate::grid3::{interior_slabs, Grid3};
use crate::operator::{self, OperatorKind};

/// One damped-Jacobi sweep: `u <- u + omega D^{-1} (f - A u)`.
///
/// Uses `scratch` for the residual; all three grids must share a refinement.
pub fn jacobi_sweep(kind: OperatorKind, u: &mut Grid3, f: &Grid3, scratch: &mut Grid3, omega: f64) {
    operator::residual(kind, u, f, scratch);
    let n = u.n();
    let side = u.side();
    let plane = side * side;
    let rd = scratch.as_slice();
    interior_slabs(n, u.as_mut_slice().chunks_mut(plane), |k, slab| {
        for j in 1..n {
            let row = j * side;
            for i in 1..n {
                let st = operator::stencil_at(kind, n, i, j, k);
                slab[row + i] += omega * rd[i + row + k * plane] / st.diag;
            }
        }
    });
}

/// Run `sweeps` damped-Jacobi iterations with the standard damping 2/3.
pub fn jacobi(kind: OperatorKind, u: &mut Grid3, f: &Grid3, scratch: &mut Grid3, sweeps: usize) {
    for _ in 0..sweeps {
        jacobi_sweep(kind, u, f, scratch, 2.0 / 3.0);
    }
}

/// Chebyshev smoother of the given polynomial `degree`, targeting
/// eigenvalues in `[lambda_max / 30, 1.1 lambda_max]` where `lambda_max` is
/// the Gershgorin bound for the operator at this refinement.
///
/// Implemented as the standard three-term recurrence on the D-preconditioned
/// residual; needs two scratch grids.
pub fn chebyshev(
    kind: OperatorKind,
    u: &mut Grid3,
    f: &Grid3,
    scratch: &mut Grid3,
    correction: &mut Grid3,
    degree: usize,
) {
    let n = u.n();
    let lambda_max = 1.1 * operator::eigen_upper_bound(kind, n) / {
        let mid = (n / 2).max(1);
        operator::stencil_at(kind, n, mid, mid, mid).diag
    };
    let lambda_min = lambda_max / 30.0;
    let theta = 0.5 * (lambda_max + lambda_min);
    let delta = 0.5 * (lambda_max - lambda_min);
    let mut alpha;
    let mut beta = 0.0;
    correction.clear();
    for step in 0..degree {
        // Preconditioned residual z = D^{-1} (f - A u).
        operator::residual(kind, u, f, scratch);
        precondition_in_place(kind, scratch);
        if step == 0 {
            alpha = 1.0 / theta;
            // correction = alpha * z
            correction.clear();
            correction.axpy(alpha, scratch);
        } else {
            let old = if step == 1 {
                0.5 * (delta / theta) * (delta / theta)
            } else {
                beta
            };
            beta = old;
            alpha = 1.0 / (theta - beta / (1.0 / theta));
            // The classical recurrence: p_{k} = z + beta p_{k-1}; we fold
            // the scaling into axpy operations.
            scale_in_place(correction, beta);
            correction.axpy(alpha, scratch);
        }
        u.axpy(1.0, correction);
    }
}

/// One red-black Gauss–Seidel sweep (both colors).
///
/// Within one color pass every stencil neighbor has the *other* color, so
/// reading neighbor values from a pre-pass snapshot is mathematically
/// identical to the classical in-place update — and lets each z-slab be
/// updated in parallel without aliasing. `scratch` holds the snapshot.
pub fn gauss_seidel_rb(kind: OperatorKind, u: &mut Grid3, f: &Grid3, scratch: &mut Grid3) {
    for color in 0..2usize {
        scratch.as_mut_slice().copy_from_slice(u.as_slice());
        let n = u.n();
        let side = u.side();
        let plane = side * side;
        let sd = scratch.as_slice();
        let fd = f.as_slice();
        interior_slabs(n, u.as_mut_slice().chunks_mut(plane), |k, slab| {
            for j in 1..n {
                let row = j * side;
                // Points of the requested color in this row.
                let start = 1 + (color + 1 + j + k) % 2;
                let mut i = start;
                while i < n {
                    let st = operator::stencil_at(kind, n, i, j, k);
                    let c = i + row + k * plane;
                    let nbr_sum = st.nbr[0] * sd[c - 1]
                        + st.nbr[1] * sd[c + 1]
                        + st.nbr[2] * sd[c - side]
                        + st.nbr[3] * sd[c + side]
                        + st.nbr[4] * sd[c - plane]
                        + st.nbr[5] * sd[c + plane];
                    slab[row + i] = (fd[c] + nbr_sum) / st.diag;
                    i += 2;
                }
            }
        });
    }
}

/// `g <- D^{-1} g` in place.
fn precondition_in_place(kind: OperatorKind, g: &mut Grid3) {
    let n = g.n();
    let side = g.side();
    interior_slabs(n, g.as_mut_slice().chunks_mut(side * side), |k, slab| {
        for j in 1..n {
            let row = j * side;
            for i in 1..n {
                let st = operator::stencil_at(kind, n, i, j, k);
                slab[row + i] /= st.diag;
            }
        }
    });
}

/// Scale a grid by a constant (interior and boundary; boundary is zero).
fn scale_in_place(g: &mut Grid3, a: f64) {
    for v in g.as_mut_slice() {
        *v *= a;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Residual norm after smoothing a random-ish initial guess against a
    /// zero right-hand side; must decrease.
    fn smoothing_reduces_residual(kind: OperatorKind, use_cheby: bool) {
        let n = 16;
        let mut u = Grid3::zeros(n);
        // High-frequency initial error — what smoothers are good at.
        u.fill_interior(|x, y, z| ((13.0 * x).sin() + (17.0 * y).cos() + (19.0 * z).sin()) * 0.5);
        let f = Grid3::zeros(n);
        let mut scratch = Grid3::zeros(n);
        let mut r0 = Grid3::zeros(n);
        operator::residual(kind, &u, &f, &mut r0);
        let before = r0.norm_l2();
        if use_cheby {
            let mut corr = Grid3::zeros(n);
            chebyshev(kind, &mut u, &f, &mut scratch, &mut corr, 4);
        } else {
            jacobi(kind, &mut u, &f, &mut scratch, 4);
        }
        let mut r1 = Grid3::zeros(n);
        operator::residual(kind, &u, &f, &mut r1);
        let after = r1.norm_l2();
        assert!(
            after < 0.6 * before,
            "{kind:?} cheby={use_cheby}: {after} !< 0.6 * {before}"
        );
    }

    #[test]
    fn jacobi_reduces_residual_all_operators() {
        for kind in OperatorKind::all() {
            smoothing_reduces_residual(kind, false);
        }
    }

    #[test]
    fn chebyshev_reduces_residual_all_operators() {
        for kind in OperatorKind::all() {
            smoothing_reduces_residual(kind, true);
        }
    }

    #[test]
    fn gauss_seidel_reduces_residual_faster_than_jacobi() {
        for kind in OperatorKind::all() {
            let n = 16;
            let init = |g: &mut Grid3| {
                g.fill_interior(|x, y, z| ((11.0 * x).sin() + (9.0 * y).sin()) * (7.0 * z).cos())
            };
            let f = Grid3::zeros(n);
            let mut scratch = Grid3::zeros(n);
            let mut uj = Grid3::zeros(n);
            init(&mut uj);
            jacobi(kind, &mut uj, &f, &mut scratch, 2);
            let mut ug = Grid3::zeros(n);
            init(&mut ug);
            for _ in 0..2 {
                gauss_seidel_rb(kind, &mut ug, &f, &mut scratch);
            }
            let mut rj = Grid3::zeros(n);
            let mut rg = Grid3::zeros(n);
            operator::residual(kind, &uj, &f, &mut rj);
            operator::residual(kind, &ug, &f, &mut rg);
            assert!(
                rg.norm_l2() < rj.norm_l2(),
                "{kind:?}: GS {} !< Jacobi {}",
                rg.norm_l2(),
                rj.norm_l2()
            );
        }
    }

    #[test]
    fn gauss_seidel_parallel_matches_small_grid_semantics() {
        // n = 64 takes the parallel path; n-independence of the color
        // update means a single sweep on a delta RHS must place the
        // same values as the serial formula: first the black pass writes
        // f/diag at the delta, then red neighbors pick it up.
        let n = 64;
        let mut f = Grid3::zeros(n);
        f.set(32, 32, 32, 1.0);
        let mut u = Grid3::zeros(n);
        let mut scratch = Grid3::zeros(n);
        gauss_seidel_rb(OperatorKind::Poisson1, &mut u, &f, &mut scratch);
        let st = operator::stencil_at(OperatorKind::Poisson1, n, 32, 32, 32);
        // (32+32+32) even => updated in the color-0 pass of the sweep.
        let center = u.get(32, 32, 32);
        assert!((center - 1.0 / st.diag).abs() < 1e-15);
        // Odd neighbors see it in the second pass.
        let nb = u.get(33, 32, 32);
        assert!((nb - st.nbr[0] * center / st.diag).abs() < 1e-15);
    }

    #[test]
    fn gauss_seidel_fixed_point_is_solution() {
        let n = 8;
        let mut u = Grid3::zeros(n);
        u.fill_interior(|x, y, z| x * (1.0 - x) * y * z);
        let mut f = Grid3::zeros(n);
        operator::apply(OperatorKind::Poisson2, &u, &mut f);
        let before = u.clone();
        let mut scratch = Grid3::zeros(n);
        gauss_seidel_rb(OperatorKind::Poisson2, &mut u, &f, &mut scratch);
        assert!(u.max_diff(&before) < 1e-10);
        assert!(u.boundary_is_zero());
    }

    #[test]
    fn jacobi_fixed_point_is_solution() {
        // If u already solves A u = f, Jacobi must not move it.
        let n = 8;
        let mut u = Grid3::zeros(n);
        u.fill_interior(|x, y, z| x * (1.0 - x) * y * z);
        let mut f = Grid3::zeros(n);
        operator::apply(OperatorKind::Poisson1, &u, &mut f);
        let before = u.clone();
        let mut scratch = Grid3::zeros(n);
        jacobi(OperatorKind::Poisson1, &mut u, &f, &mut scratch, 3);
        assert!(u.max_diff(&before) < 1e-10);
    }

    #[test]
    fn jacobi_converges_on_tiny_problem() {
        // n=2 has a single unknown: one sweep with omega=1 solves exactly;
        // damped sweeps converge geometrically.
        let n = 2;
        let mut f = Grid3::zeros(n);
        f.set(1, 1, 1, 5.0);
        let mut u = Grid3::zeros(n);
        let mut scratch = Grid3::zeros(n);
        for _ in 0..60 {
            jacobi_sweep(OperatorKind::Poisson1, &mut u, &f, &mut scratch, 2.0 / 3.0);
        }
        // Solution: u = f / diag = 5 / (6 * 4) with h = 1/2.
        assert!((u.get(1, 1, 1) - 5.0 / 24.0).abs() < 1e-8);
    }

    #[test]
    fn smoother_preserves_dirichlet_boundary() {
        let n = 8;
        let mut u = Grid3::zeros(n);
        u.fill_interior(|x, _, _| x);
        let mut f = Grid3::zeros(n);
        f.fill_interior(|_, _, _| 1.0);
        let mut scratch = Grid3::zeros(n);
        jacobi(OperatorKind::Poisson2, &mut u, &f, &mut scratch, 5);
        assert!(u.boundary_is_zero());
        let mut corr = Grid3::zeros(n);
        chebyshev(
            OperatorKind::Poisson2,
            &mut u,
            &f,
            &mut scratch,
            &mut corr,
            3,
        );
        assert!(u.boundary_is_zero());
    }
}
