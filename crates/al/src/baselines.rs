//! Static experiment designs — the classical alternatives from Jain's
//! textbook (paper Section II-B) evaluated under the same metrics as AL.
//!
//! These designs pick their whole experiment set *up front*: they "do not
//! change as measurements become available". Evaluating a GPR trained on a
//! static design of size `m` against the same Test set lets the benches
//! quantify what adaptivity buys.

use crate::runner::test_rmse;
use alperf_gp::model::GpError;
use alperf_gp::optimize::{fit_gpr, GprConfig};
use alperf_linalg::matrix::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// How a static design chooses its `m` rows from the candidate pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticDesign {
    /// Uniformly random rows (simple random sampling).
    Random,
    /// Every `k`-th row of the pool ordered by the first input dimension —
    /// a stratified / fractional-factorial-flavored subset.
    Stratified,
    /// The `2^k`-style corners: rows closest to the extremes of each input
    /// dimension, then filled with stratified picks.
    Corners,
}

/// Result of evaluating one static design size.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticResult {
    /// Design used.
    pub design: StaticDesign,
    /// Number of experiments.
    pub m: usize,
    /// Rows selected.
    pub rows: Vec<usize>,
    /// Test RMSE of the GPR trained on those rows.
    pub rmse: f64,
    /// Total cost of the selected experiments.
    pub total_cost: f64,
}

/// Choose `m` rows from `pool` according to the design.
fn choose_rows(
    design: StaticDesign,
    x_all: &Matrix,
    pool: &[usize],
    m: usize,
    seed: u64,
) -> Vec<usize> {
    let m = m.min(pool.len());
    match design {
        StaticDesign::Random => {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut p = pool.to_vec();
            p.shuffle(&mut rng);
            p.truncate(m);
            p
        }
        StaticDesign::Stratified => {
            let mut sorted = pool.to_vec();
            sorted.sort_by(|&a, &b| {
                x_all.row(a)[0]
                    .partial_cmp(&x_all.row(b)[0])
                    .expect("finite inputs")
            });
            if m == 0 {
                return vec![];
            }
            // Evenly spaced positions: floor((i + 0.5) * len / m) is
            // strictly increasing for m <= len, so rows are distinct.
            (0..m)
                .map(|i| sorted[((i as f64 + 0.5) * sorted.len() as f64 / m as f64) as usize])
                .collect()
        }
        StaticDesign::Corners => {
            let d = x_all.ncols();
            let mut rows: Vec<usize> = Vec::new();
            for dim in 0..d {
                let lo = pool
                    .iter()
                    .copied()
                    .min_by(|&a, &b| x_all.row(a)[dim].partial_cmp(&x_all.row(b)[dim]).unwrap());
                let hi = pool
                    .iter()
                    .copied()
                    .max_by(|&a, &b| x_all.row(a)[dim].partial_cmp(&x_all.row(b)[dim]).unwrap());
                for r in [lo, hi].into_iter().flatten() {
                    if !rows.contains(&r) && rows.len() < m {
                        rows.push(r);
                    }
                }
            }
            // Fill with stratified picks.
            for r in choose_rows(StaticDesign::Stratified, x_all, pool, m, seed) {
                if rows.len() >= m {
                    break;
                }
                if !rows.contains(&r) {
                    rows.push(r);
                }
            }
            rows
        }
    }
}

/// Train on a static design and evaluate Test RMSE.
///
/// # Errors
/// Propagates GPR fitting failures.
#[allow(clippy::too_many_arguments)] // an experiment spec, not an API to compose
pub fn evaluate_static(
    design: StaticDesign,
    x_all: &Matrix,
    y_all: &[f64],
    cost: &[f64],
    pool: &[usize],
    test: &[usize],
    m: usize,
    gpr: &GprConfig,
    seed: u64,
) -> Result<StaticResult, GpError> {
    let rows = choose_rows(design, x_all, pool, m, seed);
    let xs = x_all.select_rows(&rows);
    let ys: Vec<f64> = rows.iter().map(|&i| y_all[i]).collect();
    let (model, _) = fit_gpr(&xs, &ys, gpr)?;
    let rmse = test_rmse(&model, x_all, y_all, test);
    let total_cost = rows.iter().map(|&i| cost[i]).sum();
    Ok(StaticResult {
        design,
        m: rows.len(),
        rows,
        rmse,
        total_cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alperf_gp::kernel::SquaredExponential;
    use alperf_gp::noise::NoiseFloor;

    fn data() -> (Matrix, Vec<f64>, Vec<f64>, Vec<usize>, Vec<usize>) {
        let n = 40;
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.25).collect();
        let y: Vec<f64> = xs.iter().map(|v| (0.7 * v).sin()).collect();
        let cost = vec![1.0; n];
        let pool: Vec<usize> = (0..30).collect();
        let test: Vec<usize> = (30..n).collect();
        (Matrix::from_vec(n, 1, xs).unwrap(), y, cost, pool, test)
    }

    fn gpr() -> GprConfig {
        GprConfig::new(Box::new(SquaredExponential::unit()))
            .with_noise_floor(NoiseFloor::Fixed(0.05))
            .with_restarts(2)
    }

    #[test]
    fn all_designs_produce_m_distinct_rows() {
        let (x, _, _, pool, _) = data();
        for d in [
            StaticDesign::Random,
            StaticDesign::Stratified,
            StaticDesign::Corners,
        ] {
            let rows = choose_rows(d, &x, &pool, 8, 0);
            assert_eq!(rows.len(), 8, "{d:?}");
            let set: std::collections::BTreeSet<_> = rows.iter().collect();
            assert_eq!(set.len(), 8, "{d:?} produced duplicates: {rows:?}");
            assert!(rows.iter().all(|r| pool.contains(r)));
        }
    }

    #[test]
    fn corners_include_extremes() {
        let (x, _, _, pool, _) = data();
        let rows = choose_rows(StaticDesign::Corners, &x, &pool, 6, 0);
        let vals: Vec<f64> = rows.iter().map(|&r| x.row(r)[0]).collect();
        let min_pool = 0.0;
        let max_pool = 29.0 * 0.25;
        assert!(vals.contains(&min_pool), "{vals:?}");
        assert!(vals.contains(&max_pool), "{vals:?}");
    }

    #[test]
    fn more_experiments_reduce_error() {
        let (x, y, cost, pool, test) = data();
        let small = evaluate_static(
            StaticDesign::Stratified,
            &x,
            &y,
            &cost,
            &pool,
            &test,
            4,
            &gpr(),
            0,
        )
        .unwrap();
        let large = evaluate_static(
            StaticDesign::Stratified,
            &x,
            &y,
            &cost,
            &pool,
            &test,
            20,
            &gpr(),
            0,
        )
        .unwrap();
        assert!(
            large.rmse < small.rmse,
            "20 pts {} !< 4 pts {}",
            large.rmse,
            small.rmse
        );
    }

    #[test]
    fn m_clamped_to_pool() {
        let (x, _, _, pool, _) = data();
        let rows = choose_rows(StaticDesign::Random, &x, &pool, 100, 0);
        assert_eq!(rows.len(), pool.len());
    }

    #[test]
    fn random_design_deterministic_in_seed() {
        let (x, _, _, pool, _) = data();
        let a = choose_rows(StaticDesign::Random, &x, &pool, 5, 42);
        let b = choose_rows(StaticDesign::Random, &x, &pool, 5, 42);
        assert_eq!(a, b);
        let c = choose_rows(StaticDesign::Random, &x, &pool, 5, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn cost_accumulates() {
        let (x, y, _, pool, test) = data();
        let cost: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let res = evaluate_static(
            StaticDesign::Random,
            &x,
            &y,
            &cost,
            &pool,
            &test,
            5,
            &gpr(),
            1,
        )
        .unwrap();
        let expect: f64 = res.rows.iter().map(|&i| cost[i]).sum();
        assert_eq!(res.total_cost, expect);
    }
}
