//! Cost–error tradeoff analysis (the paper's Fig. 8b and the 38% headline).
//!
//! Each AL run yields a step function `RMSE(cumulative cost)`. To compare
//! strategies the paper averages these over many random partitions and
//! plots error against *money spent* rather than iteration count, then
//! reads off:
//!
//! * the **crossover cost** `C` where Cost Efficiency's averaged curve
//!   drops below Variance Reduction's and stays there;
//! * the **relative error reduction** `(rmse_VR - rmse_CE) / rmse_VR` at
//!   `C, 2C, 3C, 5C, 10C` — the paper reports up to 38% at the crossover
//!   region and 25/21/16/13% at the multiples.

use crate::runner::AlRun;
use alperf_linalg::stats;
use alperf_linalg::vector::logspace;

/// A strategy's averaged tradeoff curve on a common cost grid.
#[derive(Debug, Clone, PartialEq)]
pub struct TradeoffCurve {
    /// Cost grid (ascending).
    pub cost: Vec<f64>,
    /// Mean RMSE at each grid cost (NaN where no run has spent that much).
    pub rmse: Vec<f64>,
}

/// Evaluate a single run's step function `RMSE(cost)` at `c`: the RMSE
/// recorded at the largest cumulative cost `<= c`; `None` below the first
/// record.
fn step_value(points: &[(f64, f64)], c: f64) -> Option<f64> {
    let mut val = None;
    for &(cost, rmse) in points {
        if cost <= c {
            val = Some(rmse);
        } else {
            break;
        }
    }
    val
}

/// Average many runs' step functions onto a log-spaced cost grid.
///
/// The grid spans the smallest first-record cost to the largest final cost
/// across runs. Grid points where fewer than half the runs have data yet
/// are reported as NaN.
pub fn average_curve(runs: &[AlRun], grid_points: usize) -> TradeoffCurve {
    let all: Vec<Vec<(f64, f64)>> = runs.iter().map(|r| r.cost_rmse_points()).collect();
    let firsts: Vec<f64> = all.iter().filter_map(|p| p.first().map(|v| v.0)).collect();
    let lasts: Vec<f64> = all.iter().filter_map(|p| p.last().map(|v| v.0)).collect();
    if firsts.is_empty() {
        return TradeoffCurve {
            cost: vec![],
            rmse: vec![],
        };
    }
    let lo = stats::min(&firsts).expect("non-empty").max(1e-12);
    let hi = stats::max(&lasts).expect("non-empty").max(lo * 1.0001);
    let mut grid = logspace(lo, hi, grid_points.max(2));
    // Pin the endpoints exactly: 10^log10(hi) can round a hair below hi,
    // which would drop every run's final record from the last grid point.
    *grid.first_mut().expect("non-empty") = lo;
    *grid.last_mut().expect("non-empty") = hi;
    let rmse: Vec<f64> = grid
        .iter()
        .map(|&c| {
            let vals: Vec<f64> = all.iter().filter_map(|p| step_value(p, c)).collect();
            if vals.len() * 2 >= all.len() {
                stats::mean(&vals)
            } else {
                f64::NAN
            }
        })
        .collect();
    TradeoffCurve { cost: grid, rmse }
}

/// Comparison of two strategies' averaged curves.
#[derive(Debug, Clone, PartialEq)]
pub struct TradeoffComparison {
    /// Common cost grid.
    pub cost: Vec<f64>,
    /// Baseline (e.g. Variance Reduction) mean RMSE.
    pub baseline: Vec<f64>,
    /// Contender (e.g. Cost Efficiency) mean RMSE.
    pub contender: Vec<f64>,
    /// First grid cost after which the contender's curve stays at or below
    /// the baseline's (the paper's crossover `C`), if any.
    pub crossover: Option<f64>,
    /// Maximum relative error reduction `(base - cont) / base` over costs
    /// at/after the crossover.
    pub max_relative_reduction: f64,
}

/// Compare two strategies on a common grid.
pub fn compare(
    baseline_runs: &[AlRun],
    contender_runs: &[AlRun],
    grid_points: usize,
) -> TradeoffComparison {
    // Shared grid: union of both strategies' cost ranges.
    let mut both = baseline_runs.to_vec();
    both.extend(contender_runs.iter().cloned());
    let grid = average_curve(&both, grid_points).cost;
    let eval = |runs: &[AlRun]| -> Vec<f64> {
        let all: Vec<Vec<(f64, f64)>> = runs.iter().map(|r| r.cost_rmse_points()).collect();
        grid.iter()
            .map(|&c| {
                let vals: Vec<f64> = all.iter().filter_map(|p| step_value(p, c)).collect();
                if vals.len() * 2 >= all.len() {
                    stats::mean(&vals)
                } else {
                    f64::NAN
                }
            })
            .collect()
    };
    let baseline = eval(baseline_runs);
    let contender = eval(contender_runs);
    // Crossover: first index where the contender is strictly better and
    // stays at least as good for the rest of the (defined) grid. "At least
    // as good" tolerates both relative jitter (5%) and absolute jitter
    // scaled to the baseline curve's total drop — near the maximum cost the
    // paper's curves *meet*, so tiny tail differences must not veto an
    // otherwise stable crossover.
    let defined = |i: usize| baseline[i].is_finite() && contender[i].is_finite();
    let finite_base: Vec<f64> = baseline.iter().copied().filter(|v| v.is_finite()).collect();
    let drop_scale = match (stats::max(&finite_base), stats::min(&finite_base)) {
        (Some(hi), Some(lo)) => hi - lo,
        _ => 0.0,
    };
    let tolerated = |b: f64, c: f64| c <= b * 1.05 || c - b <= 0.05 * drop_scale;
    let mut crossover = None;
    'outer: for i in 0..grid.len() {
        // The crossover is where the contender becomes *strictly* better
        // (equal curves are not an advantage worth reporting).
        if !defined(i) || contender[i] >= baseline[i] {
            continue;
        }
        for j in i..grid.len() {
            if defined(j) && !tolerated(baseline[j], contender[j]) {
                continue 'outer;
            }
        }
        crossover = Some(grid[i]);
        break;
    }
    let mut max_red = 0.0f64;
    if let Some(c) = crossover {
        for i in 0..grid.len() {
            if grid[i] >= c && defined(i) && baseline[i] > 0.0 {
                max_red = max_red.max((baseline[i] - contender[i]) / baseline[i]);
            }
        }
    }
    TradeoffComparison {
        cost: grid,
        baseline,
        contender,
        crossover,
        max_relative_reduction: max_red,
    }
}

impl TradeoffComparison {
    /// Relative error reduction at cost `c` (interpolating the grid as step
    /// functions); `None` when either curve is undefined there.
    fn relative_reduction_at(&self, c: f64) -> Option<f64> {
        let mut idx = None;
        for (i, &g) in self.cost.iter().enumerate() {
            if g <= c {
                idx = Some(i);
            }
        }
        let i = idx?;
        let (b, k) = (self.baseline[i], self.contender[i]);
        if b.is_finite() && k.is_finite() && b > 0.0 {
            Some((b - k) / b)
        } else {
            None
        }
    }

    /// The paper's readout table: reductions at `C, 2C, 3C, 5C, 10C`.
    pub fn reduction_table(&self) -> Vec<(f64, Option<f64>)> {
        match self.crossover {
            None => vec![],
            Some(c) => [1.0, 2.0, 3.0, 5.0, 10.0]
                .iter()
                .map(|&m| (m, self.relative_reduction_at(m * c)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{AlRun, IterationRecord};

    fn run_from_points(points: &[(f64, f64)]) -> AlRun {
        AlRun {
            strategy: "synthetic",
            history: points
                .iter()
                .enumerate()
                .map(|(i, &(cost, rmse))| IterationRecord {
                    iter: i,
                    chosen_row: i,
                    x: vec![0.0],
                    y: 0.0,
                    sigma_at_chosen: 0.0,
                    amsd: 0.0,
                    rmse,
                    cumulative_cost: cost,
                    lml: 0.0,
                    noise_std: 0.1,
                })
                .collect(),
            final_train: vec![],
            lost: vec![],
        }
    }

    #[test]
    fn step_function_semantics() {
        let pts = vec![(1.0, 0.9), (2.0, 0.5), (4.0, 0.2)];
        assert_eq!(step_value(&pts, 0.5), None);
        assert_eq!(step_value(&pts, 1.0), Some(0.9));
        assert_eq!(step_value(&pts, 3.0), Some(0.5));
        assert_eq!(step_value(&pts, 100.0), Some(0.2));
    }

    #[test]
    fn average_curve_spans_cost_range() {
        let runs = vec![
            run_from_points(&[(1.0, 1.0), (10.0, 0.5)]),
            run_from_points(&[(2.0, 0.8), (20.0, 0.4)]),
        ];
        let curve = average_curve(&runs, 10);
        assert_eq!(curve.cost.len(), 10);
        assert!((curve.cost[0] - 1.0).abs() < 1e-9);
        assert!((curve.cost[9] - 20.0).abs() / 20.0 < 1e-9);
        // At the top of the grid both runs contribute: mean of 0.5 and 0.4.
        assert!((curve.rmse[9] - 0.45).abs() < 1e-12);
    }

    #[test]
    fn crossover_detected() {
        // Baseline: flat 0.5 after cost 1. Contender: starts worse (0.8),
        // drops to 0.3 at cost 5 — crossover near 5.
        let base = vec![run_from_points(&[(1.0, 0.5), (100.0, 0.5)])];
        let cont = vec![run_from_points(&[(1.0, 0.8), (5.0, 0.3), (100.0, 0.3)])];
        let cmp = compare(&base, &cont, 50);
        let c = cmp.crossover.expect("crossover expected");
        assert!((4.0..=6.5).contains(&c), "crossover at {c}");
        // Max reduction: (0.5 - 0.3)/0.5 = 40%.
        assert!((cmp.max_relative_reduction - 0.4).abs() < 0.02);
    }

    #[test]
    fn no_crossover_when_contender_always_worse() {
        let base = vec![run_from_points(&[(1.0, 0.3), (100.0, 0.2)])];
        let cont = vec![run_from_points(&[(1.0, 0.9), (100.0, 0.8)])];
        let cmp = compare(&base, &cont, 30);
        assert_eq!(cmp.crossover, None);
        assert!(cmp.reduction_table().is_empty());
        assert_eq!(cmp.max_relative_reduction, 0.0);
    }

    #[test]
    fn reduction_table_shape() {
        let base = vec![run_from_points(&[(1.0, 1.0), (10.0, 0.8), (1000.0, 0.8)])];
        let cont = vec![run_from_points(&[(1.0, 1.0), (10.0, 0.4), (1000.0, 0.4)])];
        let cmp = compare(&base, &cont, 60);
        let table = cmp.reduction_table();
        assert_eq!(table.len(), 5);
        assert_eq!(table[0].0, 1.0);
        assert_eq!(table[4].0, 10.0);
        // Reduction at the multiples: (0.8-0.4)/0.8 = 50%.
        for (_, red) in &table[1..] {
            let r = red.expect("defined");
            assert!((r - 0.5).abs() < 0.05, "r = {r}");
        }
    }

    #[test]
    fn empty_runs_no_panic() {
        let curve = average_curve(&[], 10);
        assert!(curve.cost.is_empty());
    }
}
