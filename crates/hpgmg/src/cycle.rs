//! Multigrid cycles: the level hierarchy, V-cycle, and Full Multigrid.
//!
//! The hierarchy coarsens by factors of two down to `n = 2` (one interior
//! unknown, solved exactly by one Jacobi step with `omega = 1`). The
//! V-cycle uses pre/post damped-Jacobi smoothing; FMG bootstraps each level
//! from the coarser solution via prolongation and finishes with V-cycles —
//! the algorithmic shape of HPGMG.

use crate::grid3::Grid3;
use crate::operator::{self, OperatorKind};
use crate::smoother;
use crate::transfer;

/// Work performed by multigrid cycles, in units of *interior stencil-point
/// updates* — the quantity the analytic performance model scales by
/// [`crate::operator::OperatorKind::flops_per_point`]. Comparing
/// `total() / unknowns` against [`crate::model::PerfModel::mg_sweeps`]
/// grounds the model in the real solver (see the `work_model_grounding`
/// integration test).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Stencil applications from smoother sweeps (both colors).
    pub smoother_points: u64,
    /// Stencil applications from residual evaluations.
    pub residual_points: u64,
    /// Coarse points touched by restriction (27-point gather each).
    pub restrict_points: u64,
    /// Fine points touched by prolongation (8-point gather each).
    pub prolong_points: u64,
}

impl WorkCounters {
    /// Total stencil-equivalent point updates (transfers weighted by their
    /// relative flop cost: restriction ~3x, prolongation ~1x a stencil).
    pub fn total(&self) -> f64 {
        self.smoother_points as f64
            + self.residual_points as f64
            + 3.0 * self.restrict_points as f64
            + self.prolong_points as f64
    }
}

/// Workspace for multigrid on a hierarchy of refinements `n, n/2, ..., 2`.
pub struct Hierarchy {
    kind: OperatorKind,
    /// Per-level solution/correction grids, finest first.
    u: Vec<Grid3>,
    /// Per-level right-hand sides.
    f: Vec<Grid3>,
    /// Per-level scratch grids.
    scratch: Vec<Grid3>,
    /// Smoothing sweeps before and after coarse correction.
    pre_sweeps: usize,
    post_sweeps: usize,
    /// Cumulative work tally.
    work: WorkCounters,
}

impl Hierarchy {
    /// Build a hierarchy for refinement `n` (power of two `>= 2`).
    pub fn new(kind: OperatorKind, n: usize) -> Self {
        assert!(
            n >= 2 && n.is_power_of_two(),
            "refinement must be a power of two >= 2"
        );
        let mut levels = Vec::new();
        let mut m = n;
        while m >= 2 {
            levels.push(m);
            if m == 2 {
                break;
            }
            m /= 2;
        }
        Hierarchy {
            kind,
            u: levels.iter().map(|&m| Grid3::zeros(m)).collect(),
            f: levels.iter().map(|&m| Grid3::zeros(m)).collect(),
            scratch: levels.iter().map(|&m| Grid3::zeros(m)).collect(),
            pre_sweeps: 2,
            post_sweeps: 2,
            work: WorkCounters::default(),
        }
    }

    /// Number of levels (finest = level 0).
    fn n_levels(&self) -> usize {
        self.u.len()
    }

    /// The operator being solved.
    pub fn kind(&self) -> OperatorKind {
        self.kind
    }

    /// Borrow the finest-level solution.
    pub fn solution(&self) -> &Grid3 {
        &self.u[0]
    }

    /// Mutably borrow the finest-level right-hand side.
    pub fn rhs_mut(&mut self) -> &mut Grid3 {
        &mut self.f[0]
    }

    /// Cumulative work counters since construction.
    pub fn work(&self) -> WorkCounters {
        self.work
    }

    fn interior_of(&self, level: usize) -> u64 {
        self.u[level].n_interior() as u64
    }

    /// Residual L2 norm on the finest level.
    pub fn residual_norm(&mut self) -> f64 {
        let (u0, f0, s0) = (&self.u[0], &self.f[0], &mut self.scratch[0]);
        operator::residual(self.kind, u0, f0, s0);
        s0.norm_l2()
    }

    /// Recursive V-cycle starting at `level`.
    fn vcycle_at(&mut self, level: usize) {
        let last = self.n_levels() - 1;
        if level == last {
            // Coarsest grid has one interior unknown: a single undamped
            // Jacobi step is a direct solve.
            let kind = self.kind;
            let pts = self.interior_of(level);
            let (u, f, s) = self.level_mut(level);
            smoother::jacobi_sweep(kind, u, f, s, 1.0);
            self.work.smoother_points += pts;
            return;
        }
        // Pre-smooth with red-black Gauss–Seidel (HPGMG-grade contraction).
        {
            let kind = self.kind;
            let sweeps = self.pre_sweeps;
            let pts = self.interior_of(level);
            let (u, f, s) = self.level_mut(level);
            for _ in 0..sweeps {
                smoother::gauss_seidel_rb(kind, u, f, s);
            }
            self.work.smoother_points += sweeps as u64 * pts;
        }
        // Residual to scratch, restrict into coarse RHS; zero coarse guess.
        {
            let kind = self.kind;
            let pts = self.interior_of(level);
            let (u, f, s) = self.level_mut(level);
            operator::residual(kind, u, f, s);
            self.work.residual_points += pts;
        }
        {
            let coarse_pts = self.interior_of(level + 1);
            let (head, tail) = self.split_at_level(level);
            let fine_scratch = &head.2[level];
            let coarse_f = &mut tail.1[0];
            transfer::restrict(fine_scratch, coarse_f);
            tail.0[0].clear();
            self.work.restrict_points += coarse_pts;
        }
        self.vcycle_at(level + 1);
        // Prolong the coarse correction and post-smooth.
        {
            let fine_pts = self.interior_of(level);
            let (head, tail) = self.split_at_level(level);
            let coarse_u = &tail.0[0];
            let fine_u = &mut head.0[level];
            transfer::prolong_add(coarse_u, fine_u);
            self.work.prolong_points += fine_pts;
        }
        {
            let kind = self.kind;
            let sweeps = self.post_sweeps;
            let pts = self.interior_of(level);
            let (u, f, s) = self.level_mut(level);
            for _ in 0..sweeps {
                smoother::gauss_seidel_rb(kind, u, f, s);
            }
            self.work.smoother_points += sweeps as u64 * pts;
        }
    }

    /// One V-cycle on the finest level.
    pub fn vcycle(&mut self) {
        self.vcycle_at(0);
    }

    /// Full Multigrid: restrict the RHS down the hierarchy, solve coarsest,
    /// then for each finer level interpolate the solution up and run
    /// `vcycles_per_level` V-cycles. Leaves the result in
    /// [`Hierarchy::solution`].
    pub fn fmg(&mut self, vcycles_per_level: usize) {
        let last = self.n_levels() - 1;
        // Cascade the RHS to all levels.
        for l in 0..last {
            let coarse_pts = self.interior_of(l + 1);
            let (head, tail) = self.split_at_level(l);
            transfer::restrict(&head.1[l], &mut tail.1[0]);
            self.work.restrict_points += coarse_pts;
        }
        // Exact solve on the coarsest level.
        {
            let kind = self.kind;
            let pts = self.interior_of(last);
            let (u, f, s) = self.level_mut(last);
            u.clear();
            smoother::jacobi_sweep(kind, u, f, s, 1.0);
            self.work.smoother_points += pts;
        }
        // Walk up: prolong solution as initial guess, then V-cycles.
        for l in (0..last).rev() {
            {
                let fine_pts = self.interior_of(l);
                let (head, tail) = self.split_at_level(l);
                head.0[l].clear();
                transfer::prolong_add(&tail.0[0], &mut head.0[l]);
                self.work.prolong_points += fine_pts;
            }
            for _ in 0..vcycles_per_level.max(1) {
                self.vcycle_at(l);
            }
        }
    }

    /// Split mutable borrows: `(levels[..=level], levels[level+1..])` as
    /// `((u, f, scratch) slices)`.
    #[allow(clippy::type_complexity)]
    fn split_at_level(
        &mut self,
        level: usize,
    ) -> (
        (&mut [Grid3], &mut [Grid3], &mut [Grid3]),
        (&mut [Grid3], &mut [Grid3], &mut [Grid3]),
    ) {
        let (u_head, u_tail) = self.u.split_at_mut(level + 1);
        let (f_head, f_tail) = self.f.split_at_mut(level + 1);
        let (s_head, s_tail) = self.scratch.split_at_mut(level + 1);
        ((u_head, f_head, s_head), (u_tail, f_tail, s_tail))
    }

    fn level_mut(&mut self, level: usize) -> (&mut Grid3, &Grid3, &mut Grid3) {
        let Hierarchy { u, f, scratch, .. } = self;
        (&mut u[level], &f[level], &mut scratch[level])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn setup(kind: OperatorKind, n: usize) -> Hierarchy {
        let mut h = Hierarchy::new(kind, n);
        h.rhs_mut().fill_interior(|x, y, z| {
            let u = (PI * x).sin() * (PI * y).sin() * (PI * z).sin();
            match kind {
                OperatorKind::Poisson1 => 3.0 * PI * PI * u,
                OperatorKind::Poisson2Affine => {
                    let (dx, dy, dz) = kind.axis_coeffs();
                    (dx + dy + dz) * PI * PI * u
                }
                OperatorKind::Poisson2 => {
                    let a = 1.0 + 0.5 * x;
                    let ux = PI * (PI * x).cos() * (PI * y).sin() * (PI * z).sin();
                    a * 3.0 * PI * PI * u - 0.5 * ux
                }
            }
        });
        h
    }

    #[test]
    fn hierarchy_depth() {
        let h = Hierarchy::new(OperatorKind::Poisson1, 32);
        assert_eq!(h.n_levels(), 5); // 32, 16, 8, 4, 2
        let h2 = Hierarchy::new(OperatorKind::Poisson1, 2);
        assert_eq!(h2.n_levels(), 1);
    }

    #[test]
    fn vcycle_contracts_residual_strongly() {
        for kind in OperatorKind::all() {
            let mut h = setup(kind, 32);
            let r0 = h.residual_norm();
            h.vcycle();
            let r1 = h.residual_norm();
            h.vcycle();
            let r2 = h.residual_norm();
            // Textbook multigrid: ~0.1 contraction per V(2,2)-cycle.
            assert!(r1 < 0.2 * r0, "{kind:?}: {r1} !< 0.2*{r0}");
            assert!(r2 < 0.2 * r1, "{kind:?}: {r2} !< 0.2*{r1}");
        }
    }

    #[test]
    fn fmg_reaches_discretization_accuracy_in_one_pass() {
        // FMG(2) should land at the discretization error (O(h^2)) — the
        // defining property of full multigrid: error shrinks ~4x per level.
        let u_exact = |x: f64, y: f64, z: f64| (PI * x).sin() * (PI * y).sin() * (PI * z).sin();
        let mut prev = f64::INFINITY;
        for n in [8usize, 16, 32] {
            let mut h = setup(OperatorKind::Poisson1, n);
            h.fmg(2);
            let mut exact = Grid3::zeros(n);
            exact.fill_interior(u_exact);
            let err = h.solution().max_diff(&exact);
            // Error shrinks ~4x per refinement.
            assert!(err < 0.45 * prev, "n={n}: {err} !< 0.45*{prev}");
            prev = err;
        }
        assert!(prev < 4e-3, "finest error {prev}");
    }

    #[test]
    fn fmg_beats_equivalent_vcycles_from_zero() {
        // FMG's bootstrapped initial guess must beat a cold-started V-cycle.
        let kind = OperatorKind::Poisson2;
        let mut fmg = setup(kind, 16);
        fmg.fmg(1);
        let r_fmg = fmg.residual_norm();
        let mut cold = setup(kind, 16);
        cold.vcycle();
        let r_cold = cold.residual_norm();
        assert!(r_fmg < r_cold, "{r_fmg} !< {r_cold}");
    }

    #[test]
    fn solution_boundary_stays_zero() {
        let mut h = setup(OperatorKind::Poisson2Affine, 16);
        h.fmg(2);
        assert!(h.solution().boundary_is_zero());
    }

    #[test]
    fn vcycle_on_coarsest_grid_is_direct_solve() {
        let mut h = Hierarchy::new(OperatorKind::Poisson1, 2);
        h.rhs_mut().set(1, 1, 1, 24.0);
        h.vcycle();
        // diag = 6/h^2 = 24, so u = 1 exactly.
        assert!((h.solution().get(1, 1, 1) - 1.0).abs() < 1e-12);
        assert!(h.residual_norm() < 1e-12);
    }
}
