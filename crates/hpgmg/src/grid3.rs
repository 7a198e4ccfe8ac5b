//! Structured 3-D vertex-centered grid on the unit cube.
//!
//! A [`Grid3`] of refinement `n` stores `(n+1)^3` vertex values, including
//! the Dirichlet boundary shell (held at zero by every operation in this
//! crate). The interior unknowns are the `(n-1)^3` vertices with
//! `1 <= i,j,k <= n-1`, spacing `h = 1/n`.
//!
//! Storage is one contiguous `Vec<f64>` in x-fastest order so that z-slabs
//! (`k = const` planes) are contiguous — the unit of parallelism for every
//! stencil sweep ([`interior_slabs`]).

use alperf_linalg::threads;

/// Minimum number of interior points before a z-slab sweep fans out.
const PAR_MIN_POINTS: usize = 32 * 32 * 32;

/// Run `body(k, slab)` on every interior `k = const` plane of a
/// refinement-`n` grid and return the results in plane order. `slabs`
/// yields all `n + 1` planes, boundary planes included. Grids with at
/// least [`PAR_MIN_POINTS`] interior points fan the planes out through
/// [`threads::fan_out`]; smaller ones run on the calling thread. A
/// `body` call writes only its own plane and reads only data no call
/// writes, so the output is the same at every width.
pub(crate) fn interior_slabs<T: Send, R: Send>(
    n: usize,
    slabs: impl Iterator<Item = T>,
    body: impl Fn(usize, T) -> R + Sync,
) -> Vec<R> {
    let interior = |(k, slab): (usize, T)| (k != 0 && k != n).then(|| body(k, slab));
    let planes = slabs.enumerate();
    let out: Vec<Option<R>> = if (n - 1).pow(3) >= PAR_MIN_POINTS {
        threads::fan_out(planes.collect(), interior)
    } else {
        planes.map(interior).collect()
    };
    out.into_iter().flatten().collect()
}

/// A scalar field on the `(n+1)^3` vertices of the unit cube at refinement
/// `n` (which must be a power of two, `>= 2`).
#[derive(Debug, Clone, PartialEq)]
pub struct Grid3 {
    n: usize,
    data: Vec<f64>,
}

impl Grid3 {
    /// Zero-initialized grid at refinement `n`.
    ///
    /// # Panics
    /// Panics unless `n >= 2` and `n` is a power of two (multigrid needs
    /// clean coarsening).
    pub fn zeros(n: usize) -> Self {
        assert!(
            n >= 2 && n.is_power_of_two(),
            "refinement must be a power of two >= 2, got {n}"
        );
        let side = n + 1;
        Grid3 {
            n,
            data: vec![0.0; side * side * side],
        }
    }

    /// Refinement level `n` (cells per axis).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Mesh spacing `h = 1/n`.
    #[inline]
    pub fn h(&self) -> f64 {
        1.0 / self.n as f64
    }

    /// Vertices per axis (`n + 1`).
    #[inline]
    pub fn side(&self) -> usize {
        self.n + 1
    }

    /// Number of interior unknowns `(n-1)^3`.
    pub fn n_interior(&self) -> usize {
        let m = self.n - 1;
        m * m * m
    }

    /// Flat index of vertex `(i, j, k)`.
    #[inline]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        let s = self.side();
        debug_assert!(i < s && j < s && k < s);
        i + s * (j + s * k)
    }

    /// Value at vertex `(i, j, k)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize, k: usize) -> f64 {
        self.data[self.idx(i, j, k)]
    }

    /// Set the value at vertex `(i, j, k)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, k: usize, v: f64) {
        let idx = self.idx(i, j, k);
        self.data[idx] = v;
    }

    /// Physical coordinates of vertex `(i, j, k)`.
    pub fn coords(&self, i: usize, j: usize, k: usize) -> (f64, f64, f64) {
        let h = self.h();
        (i as f64 * h, j as f64 * h, k as f64 * h)
    }

    /// Raw data (x-fastest layout).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Fill the interior from a function of physical coordinates; the
    /// boundary shell stays zero (homogeneous Dirichlet).
    pub fn fill_interior(&mut self, f: impl Fn(f64, f64, f64) -> f64 + Sync) {
        let n = self.n;
        let side = self.side();
        let h = self.h();
        interior_slabs(n, self.data.chunks_mut(side * side), |k, slab| {
            let z = k as f64 * h;
            for j in 1..n {
                let y = j as f64 * h;
                let row = j * side;
                for i in 1..n {
                    slab[row + i] = f(i as f64 * h, y, z);
                }
            }
        });
    }

    /// Set every value (interior and boundary) to zero.
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Max-norm over the interior.
    pub fn norm_inf(&self) -> f64 {
        self.fold_interior(0.0f64, |m, v| m.max(v.abs()), |a, b| a.max(b))
    }

    /// Discrete L2 norm over the interior: `sqrt(h^3 sum v^2)`.
    pub fn norm_l2(&self) -> f64 {
        let s = self.fold_interior(0.0f64, |acc, v| acc + v * v, |a, b| a + b);
        (s * self.h().powi(3)).sqrt()
    }

    /// `self += a * other` over the interior.
    ///
    /// # Panics
    /// Panics if refinements differ.
    pub fn axpy(&mut self, a: f64, other: &Grid3) {
        assert_eq!(self.n, other.n, "axpy: refinement mismatch");
        let n = self.n;
        let side = self.side();
        let plane = side * side;
        let slabs = self.data.chunks_mut(plane).zip(other.data.chunks(plane));
        interior_slabs(n, slabs, |_, (slab, oslab)| {
            for j in 1..n {
                let row = j * side;
                for i in 1..n {
                    slab[row + i] += a * oslab[row + i];
                }
            }
        });
    }

    /// Max-norm of `self - other` over the interior.
    pub fn max_diff(&self, other: &Grid3) -> f64 {
        assert_eq!(self.n, other.n, "max_diff: refinement mismatch");
        let n = self.n;
        let mut m = 0.0f64;
        for k in 1..n {
            for j in 1..n {
                for i in 1..n {
                    m = m.max((self.get(i, j, k) - other.get(i, j, k)).abs());
                }
            }
        }
        m
    }

    /// Fold each interior plane from `init` with `f`, then combine the
    /// plane results in plane order, starting from `init`.
    fn fold_interior<T: Send + Sync + Copy>(
        &self,
        init: T,
        f: impl Fn(T, f64) -> T + Sync,
        combine: impl Fn(T, T) -> T,
    ) -> T {
        let n = self.n;
        let side = self.side();
        interior_slabs(n, self.data.chunks(side * side), |_, slab| {
            let mut acc = init;
            for j in 1..n {
                let row = j * side;
                for i in 1..n {
                    acc = f(acc, slab[row + i]);
                }
            }
            acc
        })
        .into_iter()
        .fold(init, combine)
    }

    /// `true` if every boundary vertex is exactly zero (invariant check).
    pub fn boundary_is_zero(&self) -> bool {
        let n = self.n;
        let s = self.side();
        for k in 0..s {
            for j in 0..s {
                for i in 0..s {
                    let on_boundary = i == 0 || j == 0 || k == 0 || i == n || j == n || k == n;
                    if on_boundary && self.get(i, j, k) != 0.0 {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_shapes() {
        let g = Grid3::zeros(8);
        assert_eq!(g.n(), 8);
        assert_eq!(g.side(), 9);
        assert_eq!(g.n_interior(), 343);
        assert!((g.h() - 0.125).abs() < 1e-15);
        assert_eq!(g.as_slice().len(), 9 * 9 * 9);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        Grid3::zeros(6);
    }

    #[test]
    fn index_round_trip() {
        let mut g = Grid3::zeros(4);
        g.set(1, 2, 3, 7.5);
        assert_eq!(g.get(1, 2, 3), 7.5);
        assert_eq!(g.as_slice()[g.idx(1, 2, 3)], 7.5);
    }

    #[test]
    fn coords_at_corners() {
        let g = Grid3::zeros(4);
        assert_eq!(g.coords(0, 0, 0), (0.0, 0.0, 0.0));
        assert_eq!(g.coords(4, 4, 4), (1.0, 1.0, 1.0));
        assert_eq!(g.coords(2, 0, 0).0, 0.5);
    }

    #[test]
    fn fill_interior_respects_boundary() {
        let mut g = Grid3::zeros(8);
        g.fill_interior(|_, _, _| 1.0);
        assert!(g.boundary_is_zero());
        assert_eq!(g.get(4, 4, 4), 1.0);
        assert_eq!(g.get(0, 4, 4), 0.0);
    }

    #[test]
    fn fill_interior_uses_coordinates() {
        let mut g = Grid3::zeros(4);
        g.fill_interior(|x, y, z| x + 10.0 * y + 100.0 * z);
        // Vertex (1,2,3): x=0.25, y=0.5, z=0.75.
        assert!((g.get(1, 2, 3) - (0.25 + 5.0 + 75.0)).abs() < 1e-12);
    }

    #[test]
    fn parallel_fill_matches_serial() {
        // n=64 exceeds the parallel threshold.
        let f = |x: f64, y: f64, z: f64| (x * 3.0).sin() + y * z;
        let mut big = Grid3::zeros(64);
        big.fill_interior(f);
        for (i, j, k) in [(1, 1, 1), (32, 17, 5), (63, 63, 63)] {
            let (x, y, z) = big.coords(i, j, k);
            assert_eq!(big.get(i, j, k), f(x, y, z));
        }
        assert!(big.boundary_is_zero());
    }

    #[test]
    fn norms_known_values() {
        let mut g = Grid3::zeros(2); // single interior point
        g.set(1, 1, 1, -3.0);
        assert_eq!(g.norm_inf(), 3.0);
        // L2: sqrt(h^3 * 9) with h = 1/2.
        assert!((g.norm_l2() - (9.0f64 / 8.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn axpy_interior_only() {
        let mut a = Grid3::zeros(4);
        let mut b = Grid3::zeros(4);
        a.fill_interior(|_, _, _| 1.0);
        b.fill_interior(|_, _, _| 2.0);
        a.axpy(0.5, &b);
        assert_eq!(a.get(2, 2, 2), 2.0);
        assert!(a.boundary_is_zero());
    }

    #[test]
    fn max_diff_and_clear() {
        let mut a = Grid3::zeros(4);
        let b = Grid3::zeros(4);
        a.set(1, 1, 1, 0.25);
        assert_eq!(a.max_diff(&b), 0.25);
        a.clear();
        assert_eq!(a.max_diff(&b), 0.0);
    }

    #[test]
    fn l2_norm_of_smooth_function_converges() {
        // ||x(1-x) y(1-y) z(1-z)||_L2 over the cube = (1/30)^{3/2}.
        // (The sin-product norm would be summed *exactly* by the discrete
        // norm at every n — a classic equispaced-sine identity — so a
        // polynomial is used to observe actual O(h^2) convergence.)
        let expect = (1.0f64 / 30.0).powf(1.5);
        let mut prev_err = f64::INFINITY;
        for n in [8, 16, 32] {
            let mut g = Grid3::zeros(n);
            g.fill_interior(|x, y, z| x * (1.0 - x) * y * (1.0 - y) * z * (1.0 - z));
            let err = (g.norm_l2() - expect).abs();
            assert!(err < prev_err, "n={n}: {err} !< {prev_err}");
            prev_err = err;
        }
        assert!(prev_err < 2e-4, "final error {prev_err}");
    }
}
