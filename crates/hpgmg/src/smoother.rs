//! Smoothers: red-black Gauss–Seidel for the V-cycle, and the damped
//! Jacobi sweep whose undamped form solves the coarsest level.

use crate::grid3::Grid3;
use crate::operator::{self, OperatorKind};

/// One damped-Jacobi sweep: `u <- u + omega D^{-1} (f - A u)`.
///
/// Uses `scratch` for the residual; all three grids must share a refinement.
pub fn jacobi_sweep(kind: OperatorKind, u: &mut Grid3, f: &Grid3, scratch: &mut Grid3, omega: f64) {
    operator::residual(kind, u, f, scratch);
    let n = u.n();
    let side = u.side();
    let rd = scratch.as_slice();
    let ud = u.as_mut_slice();
    for k in 1..n {
        for j in 1..n {
            for i in 1..n {
                let st = operator::stencil_at(kind, n, i, j, k);
                let c = i + side * (j + side * k);
                ud[c] += omega * rd[c] / st.diag;
            }
        }
    }
}

/// One red-black Gauss–Seidel sweep (both colors), in place.
///
/// Within one color pass every stencil neighbor has the *other* color, so
/// no update reads a value written in the same pass: the result does not
/// depend on the order in which a pass visits its points.
pub fn gauss_seidel_rb(kind: OperatorKind, u: &mut Grid3, f: &Grid3) {
    let n = u.n();
    let side = u.side();
    let plane = side * side;
    let fd = f.as_slice();
    let ud = u.as_mut_slice();
    for color in 0..2usize {
        for k in 1..n {
            for j in 1..n {
                // Points of the requested color in this row.
                let start = 1 + (color + 1 + j + k) % 2;
                for i in (start..n).step_by(2) {
                    let st = operator::stencil_at(kind, n, i, j, k);
                    let c = i + side * (j + side * k);
                    let nbr_sum = st.nbr[0] * ud[c - 1]
                        + st.nbr[1] * ud[c + 1]
                        + st.nbr[2] * ud[c - side]
                        + st.nbr[3] * ud[c + side]
                        + st.nbr[4] * ud[c - plane]
                        + st.nbr[5] * ud[c + plane];
                    ud[c] = (fd[c] + nbr_sum) / st.diag;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let mut ug = Grid3::zeros(n);
            init(&mut ug);
            for _ in 0..2 {
                jacobi_sweep(kind, &mut uj, &f, &mut scratch, 2.0 / 3.0);
                gauss_seidel_rb(kind, &mut ug, &f);
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
    fn gauss_seidel_sweeps_even_points_before_odd() {
        // One sweep on a delta RHS: the color-0 pass writes f/diag at the
        // delta, and the color-1 pass lets its neighbors pick it up.
        let n = 8;
        let mut f = Grid3::zeros(n);
        f.set(4, 4, 4, 1.0);
        let mut u = Grid3::zeros(n);
        gauss_seidel_rb(OperatorKind::Poisson1, &mut u, &f);
        let st = operator::stencil_at(OperatorKind::Poisson1, n, 4, 4, 4);
        // (4+4+4) even => updated in the color-0 pass of the sweep.
        let center = u.get(4, 4, 4);
        assert!((center - 1.0 / st.diag).abs() < 1e-15);
        // Odd neighbors see it in the second pass.
        let nb = u.get(5, 4, 4);
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
        gauss_seidel_rb(OperatorKind::Poisson2, &mut u, &f);
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
        for _ in 0..3 {
            jacobi_sweep(OperatorKind::Poisson1, &mut u, &f, &mut scratch, 2.0 / 3.0);
        }
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
        for _ in 0..5 {
            jacobi_sweep(OperatorKind::Poisson2, &mut u, &f, &mut scratch, 2.0 / 3.0);
        }
        assert!(u.boundary_is_zero());
        for _ in 0..3 {
            gauss_seidel_rb(OperatorKind::Poisson2, &mut u, &f);
        }
        assert!(u.boundary_is_zero());
    }
}
