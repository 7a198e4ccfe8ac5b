//! Top-level FMG solver: the runnable "benchmark binary" of this crate.
//!
//! [`FmgSolver::run`] builds the hierarchy, assembles the manufactured
//! right-hand side, runs FMG followed by V-cycles until the residual drops
//! by `tolerance`, and reports wall-clock time — the measurement the
//! *online* Active Learning mode feeds back into the GPR model (see the
//! `online_al` example).

use crate::cycle::Hierarchy;
use crate::grid3::Grid3;
use crate::operator::OperatorKind;
use std::f64::consts::PI;
use std::time::Instant;

/// Configuration for one benchmark run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FmgSolver {
    /// Which elliptic operator to solve.
    pub kind: OperatorKind,
    /// Grid refinement per axis (power of two, `>= 2`); the number of
    /// unknowns — the paper's "Global Problem Size" — is `(n-1)^3`.
    pub n: usize,
    /// Relative residual reduction target (e.g. `1e-8`).
    pub tolerance: f64,
    /// Maximum extra V-cycles after the FMG pass.
    pub max_vcycles: usize,
}

use crate::cycle::WorkCounters;

/// Results of one benchmark run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// Wall-clock seconds for the solve phase (hierarchy setup excluded,
    /// matching how HPGMG reports solve time).
    pub seconds: f64,
    /// Residual L2 norm before solving.
    pub initial_residual: f64,
    /// Residual L2 norm after solving.
    pub final_residual: f64,
    /// V-cycles executed after the FMG pass.
    pub vcycles: usize,
    /// Max-norm error against the manufactured solution.
    pub error_inf: f64,
    /// Number of unknowns `(n-1)^3`.
    pub unknowns: usize,
    /// Stencil-point work performed by the solve (see [`WorkCounters`]).
    pub work: WorkCounters,
}

impl SolveStats {
    /// Effective stencil applications per unknown — the measured analogue
    /// of the performance model's `mg_sweeps` constant.
    pub fn work_per_unknown(&self) -> f64 {
        self.work.total() / self.unknowns as f64
    }
}

impl FmgSolver {
    /// Default benchmark configuration for an operator and refinement.
    pub fn new(kind: OperatorKind, n: usize) -> Self {
        FmgSolver {
            kind,
            n,
            tolerance: 1e-8,
            max_vcycles: 20,
        }
    }

    /// The manufactured solution used for verification.
    fn exact_solution(x: f64, y: f64, z: f64) -> f64 {
        (PI * x).sin() * (PI * y).sin() * (PI * z).sin()
    }

    /// The right-hand side consistent with the manufactured solution
    /// for this solver's operator.
    pub fn rhs(&self, x: f64, y: f64, z: f64) -> f64 {
        let u = Self::exact_solution(x, y, z);
        match self.kind {
            OperatorKind::Poisson1 => 3.0 * PI * PI * u,
            OperatorKind::Poisson2Affine => {
                let (dx, dy, dz) = self.kind.axis_coeffs();
                (dx + dy + dz) * PI * PI * u
            }
            OperatorKind::Poisson2 => {
                let a = 1.0 + 0.5 * x;
                let ux = PI * (PI * x).cos() * (PI * y).sin() * (PI * z).sin();
                a * 3.0 * PI * PI * u - 0.5 * ux
            }
        }
    }

    /// Run the benchmark: FMG pass, then V-cycles to `tolerance`.
    ///
    /// ```
    /// use alperf_hpgmg::operator::OperatorKind;
    /// use alperf_hpgmg::solver::FmgSolver;
    ///
    /// let stats = FmgSolver::new(OperatorKind::Poisson1, 8).run();
    /// assert!(stats.final_residual < stats.initial_residual * 1e-7);
    /// assert_eq!(stats.unknowns, 343);
    /// ```
    pub fn run(&self) -> SolveStats {
        let mut h = Hierarchy::new(self.kind, self.n);
        let me = *self;
        h.rhs_mut().fill_interior(move |x, y, z| me.rhs(x, y, z));
        let initial_residual = h.residual_norm();
        let target = self.tolerance * initial_residual.max(f64::MIN_POSITIVE);
        let start = Instant::now();
        h.fmg(1);
        let mut vcycles = 0;
        let mut final_residual = h.residual_norm();
        while final_residual > target && vcycles < self.max_vcycles {
            h.vcycle();
            vcycles += 1;
            final_residual = h.residual_norm();
        }
        let seconds = start.elapsed().as_secs_f64();
        let mut exact = Grid3::zeros(self.n);
        exact.fill_interior(Self::exact_solution);
        let error_inf = h.solution().max_diff(&exact);
        let m = self.n - 1;
        SolveStats {
            seconds,
            initial_residual,
            final_residual,
            vcycles,
            error_inf,
            unknowns: m * m * m,
            work: h.work(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_all_operators_to_tolerance() {
        for kind in OperatorKind::all() {
            let stats = FmgSolver::new(kind, 16).run();
            assert!(
                stats.final_residual <= stats.initial_residual * 1e-8 * 1.01,
                "{kind:?}: {stats:?}"
            );
            assert!(stats.seconds > 0.0);
            assert_eq!(stats.unknowns, 15 * 15 * 15);
        }
    }

    #[test]
    fn error_is_second_order_in_h() {
        let e16 = FmgSolver::new(OperatorKind::Poisson1, 16).run().error_inf;
        let e32 = FmgSolver::new(OperatorKind::Poisson1, 32).run().error_inf;
        assert!(e16 / e32 > 3.0, "e16={e16}, e32={e32}");
    }

    #[test]
    fn solves_are_pinned_bit_for_bit() {
        // Per solve: the bits of initial_residual, final_residual and
        // error_inf, and the V-cycles. Any change to the arithmetic of a
        // sweep or a norm moves them.
        let pinned = [
            // n = 16: poisson1, poisson2, poisson2affine
            "4024efc4885605cb 3e57ef284b0b01eb 3f6a5ea791cea000 7",
            "402a543e9bf1cf3e 3e5e4f44aac7e229 3f6a58a641d65c00 7",
            "4026598d5189e8bb 3e62693e503dca53 3f6a5ea794712200 7",
            // n = 32
            "4024efc4885605c9 3e75d7ae25561f8f 3f4a54da3ed0a800 6",
            "402a54cbc0721a73 3e7b9d2d0ab30a7b 3f4a4ec90ee91800 6",
            "4026598d5189e8bd 3e5e5fcae99e24e3 3f4a54e4a2c92800 7",
        ];
        // The work of a solve, by refinement and V-cycles.
        let work = |n, vcycles| {
            let [smoother_points, residual_points, restrict_points, prolong_points] =
                match (n, vcycles) {
                    (16, 7) => [121_439, 30_357, 3_368, 34_102],
                    (32, 6) => [955_587, 238_894, 30_368, 272_430],
                    (32, 7) => [1_089_732, 272_430, 34_114, 305_966],
                    _ => unreachable!("the bits check pins the V-cycles first"),
                };
            WorkCounters {
                smoother_points,
                residual_points,
                restrict_points,
                prolong_points,
            }
        };
        let solves = [16, 32]
            .into_iter()
            .flat_map(|n| OperatorKind::all().map(|kind| (kind, n)));
        for ((kind, n), bits) in solves.zip(pinned) {
            let s = FmgSolver::new(kind, n).run();
            let got = format!(
                "{:016x} {:016x} {:016x} {}",
                s.initial_residual.to_bits(),
                s.final_residual.to_bits(),
                s.error_inf.to_bits(),
                s.vcycles
            );
            assert_eq!(got, bits, "{kind:?} n={n}");
            assert_eq!(s.work, work(n, s.vcycles), "{kind:?} n={n}");
        }
    }

    #[test]
    fn work_per_unknown_is_near_model_constant() {
        // The analytic performance model assumes ~50 effective stencil
        // applications per unknown per solve (PerfModel::mg_sweeps). The
        // instrumented solver must land in that neighbourhood.
        let stats = FmgSolver::new(OperatorKind::Poisson1, 32).run();
        let w = stats.work_per_unknown();
        assert!((20.0..120.0).contains(&w), "work/unknown = {w}");
    }

    #[test]
    fn vcycle_count_is_modest() {
        // FMG + a few V-cycles should reach 1e-8; more than ~12 means the
        // cycle is broken.
        let stats = FmgSolver::new(OperatorKind::Poisson2Affine, 32).run();
        assert!(stats.vcycles <= 12, "{stats:?}");
    }
}
