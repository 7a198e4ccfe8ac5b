//! Factor grids: named factors with discrete levels and their full-factorial
//! cartesian product.
//!
//! Two consumers: workload generation (submit one job per grid cell, per
//! repeat) and AL candidate pools (the paper treats the Active set as a
//! finite pool of factor combinations). The classic designs of Jain's
//! textbook — `2^k` full factorial and fractional subsets — are expressible
//! as grids, which is how the static-baseline comparison in `alperf-al` is
//! built.

/// A named factor with its levels.
#[derive(Debug, Clone, PartialEq)]
pub struct Factor {
    /// Factor name (e.g. `NP`, `CPU Frequency`).
    pub name: String,
    /// Levels, in presentation order.
    pub levels: Vec<f64>,
}

impl Factor {
    /// New factor; panics on empty levels.
    pub fn new(name: &str, levels: Vec<f64>) -> Self {
        assert!(!levels.is_empty(), "factor {name} needs at least one level");
        Factor {
            name: name.to_string(),
            levels,
        }
    }

    /// A two-level factor from its extremes — the building block of `2^k`
    /// factorial designs.
    #[cfg(test)]
    fn two_level(name: &str, lo: f64, hi: f64) -> Self {
        Factor::new(name, vec![lo, hi])
    }
}

/// A full-factorial grid over several factors.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    /// Factors, slowest-varying first.
    pub factors: Vec<Factor>,
}

impl Grid {
    /// New grid from factors.
    pub fn new(factors: Vec<Factor>) -> Self {
        Grid { factors }
    }

    /// Number of cells (product of level counts).
    fn n_cells(&self) -> usize {
        self.factors.iter().map(|f| f.levels.len()).product()
    }

    /// Factor names in order.
    pub fn names(&self) -> Vec<&str> {
        self.factors.iter().map(|f| f.name.as_str()).collect()
    }

    /// The `i`-th cell as a point (values in factor order). The first factor
    /// varies slowest (row-major enumeration).
    ///
    /// # Panics
    /// Panics if `i >= n_cells()`.
    pub fn cell(&self, i: usize) -> Vec<f64> {
        assert!(i < self.n_cells(), "cell index out of range");
        let mut rem = i;
        let mut point = vec![0.0; self.factors.len()];
        for (j, f) in self.factors.iter().enumerate().rev() {
            let n = f.levels.len();
            point[j] = f.levels[rem % n];
            rem /= n;
        }
        point
    }

    /// Iterate over all cells.
    pub fn iter(&self) -> impl Iterator<Item = Vec<f64>> + '_ {
        (0..self.n_cells()).map(move |i| self.cell(i))
    }

    /// All cells collected into a vector of points.
    pub fn points(&self) -> Vec<Vec<f64>> {
        self.iter().collect()
    }

    /// A `2^(k-p)` style fractional subset: every `stride`-th cell. A crude
    /// but classic way to cut the experiment count; the static-design
    /// baseline uses it.
    pub fn fractional(&self, stride: usize) -> Vec<Vec<f64>> {
        assert!(stride > 0, "stride must be positive");
        (0..self.n_cells())
            .step_by(stride)
            .map(|i| self.cell(i))
            .collect()
    }
}

/// Latin-hypercube-style sample of `n` cells from a grid: each factor's
/// levels are cycled through a shuffled order so the sample covers every
/// level of every factor as evenly as possible. Deterministic in `seed`.
pub fn latin_hypercube(grid: &Grid, n: usize, seed: u64) -> Vec<Vec<f64>> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut columns: Vec<Vec<f64>> = Vec::with_capacity(grid.factors.len());
    for f in &grid.factors {
        // Repeat the levels enough times to cover n, then shuffle.
        let reps = n.div_ceil(f.levels.len());
        let mut col: Vec<f64> = f
            .levels
            .iter()
            .cycle()
            .take(reps * f.levels.len())
            .copied()
            .collect();
        col.shuffle(&mut rng);
        col.truncate(n);
        columns.push(col);
    }
    (0..n)
        .map(|i| columns.iter().map(|c| c[i]).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid2x3() -> Grid {
        Grid::new(vec![
            Factor::new("a", vec![1.0, 2.0]),
            Factor::new("b", vec![10.0, 20.0, 30.0]),
        ])
    }

    #[test]
    fn cell_count_and_names() {
        let g = grid2x3();
        assert_eq!(g.n_cells(), 6);
        assert_eq!(g.names(), vec!["a", "b"]);
    }

    #[test]
    fn enumeration_is_row_major() {
        let g = grid2x3();
        let pts = g.points();
        assert_eq!(pts[0], vec![1.0, 10.0]);
        assert_eq!(pts[1], vec![1.0, 20.0]);
        assert_eq!(pts[2], vec![1.0, 30.0]);
        assert_eq!(pts[3], vec![2.0, 10.0]);
        assert_eq!(pts[5], vec![2.0, 30.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cell_out_of_range_panics() {
        grid2x3().cell(6);
    }

    #[test]
    fn two_level_factorial() {
        let g = Grid::new(vec![
            Factor::two_level("x", 0.0, 1.0),
            Factor::two_level("y", 0.0, 1.0),
            Factor::two_level("z", 0.0, 1.0),
        ]);
        assert_eq!(g.n_cells(), 8); // 2^3
        let pts = g.points();
        assert_eq!(pts.len(), 8);
        // All combinations are distinct.
        for i in 0..8 {
            for j in (i + 1)..8 {
                assert_ne!(pts[i], pts[j]);
            }
        }
    }

    #[test]
    fn fractional_design_subsamples() {
        let g = grid2x3();
        let half = g.fractional(2);
        assert_eq!(half.len(), 3);
        assert_eq!(half[0], vec![1.0, 10.0]);
        assert_eq!(half[1], vec![1.0, 30.0]);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn empty_factor_panics() {
        Factor::new("bad", vec![]);
    }

    #[test]
    fn latin_hypercube_covers_levels_evenly() {
        let g = grid2x3();
        let n = 6;
        let pts = latin_hypercube(&g, n, 0);
        assert_eq!(pts.len(), n);
        // Factor "a" has 2 levels: each should appear n/2 = 3 times.
        let a_ones = pts.iter().filter(|p| p[0] == 1.0).count();
        assert_eq!(a_ones, 3);
        // Factor "b" has 3 levels: each appears twice.
        for lvl in [10.0, 20.0, 30.0] {
            assert_eq!(pts.iter().filter(|p| p[1] == lvl).count(), 2);
        }
    }

    #[test]
    fn latin_hypercube_deterministic() {
        let g = grid2x3();
        assert_eq!(latin_hypercube(&g, 5, 9), latin_hypercube(&g, 5, 9));
        assert_ne!(latin_hypercube(&g, 6, 1), latin_hypercube(&g, 6, 2));
    }
}
