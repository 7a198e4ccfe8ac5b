//! Property-based tests for the Active-Learning layer: loop invariants
//! under random datasets and partitions, tradeoff-curve consistency, and
//! acquisition determinism.

use alperf_al::runner::{run_al, AlConfig};
use alperf_al::strategy::{CostEfficiency, RandomSampling, Strategy, VarianceReduction};
use alperf_al::tradeoff;
use alperf_data::partition::Partition;
use alperf_gp::kernel::SquaredExponential;
use alperf_gp::noise::NoiseFloor;
use alperf_gp::optimize::GprConfig;
use alperf_linalg::matrix::Matrix;
use alperf_linalg::threads::{replicates, with_threads};
use proptest::prelude::*;

fn problem(ys: &[f64]) -> (Matrix, Vec<f64>, Vec<f64>) {
    let n = ys.len();
    let x = Matrix::from_fn(n, 1, |i, _| i as f64 * 6.0 / n as f64);
    let cost: Vec<f64> = (0..n).map(|i| 0.5 + (i % 7) as f64).collect();
    (x, ys.to_vec(), cost)
}

fn config(seed: u64, iters: usize) -> AlConfig {
    let gpr = GprConfig::new(Box::new(SquaredExponential::unit()))
        .with_noise_floor(NoiseFloor::recommended())
        .with_restarts(1)
        .with_seed(seed);
    AlConfig {
        max_iters: iters,
        seed,
        ..AlConfig::new(gpr)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The AL loop maintains its structural invariants on arbitrary data:
    /// iteration count bounded by pool, rows never selected twice, cost
    /// strictly increasing, metrics finite, training set = initial + picks.
    #[test]
    fn al_loop_invariants(
        ys in prop::collection::vec(-3.0..3.0f64, 20..50),
        seed in 0u64..200,
    ) {
        let (x, y, cost) = problem(&ys);
        let n = y.len();
        let part = Partition::paper_default(n, seed);
        let run = run_al(&x, &y, &cost, &part, &mut RandomSampling, &config(seed, 12))
            .expect("AL run");
        prop_assert!(run.history.len() <= part.active.len().min(12));
        let rows: Vec<usize> = run.history.iter().map(|r| r.chosen_row).collect();
        let set: std::collections::BTreeSet<_> = rows.iter().collect();
        prop_assert_eq!(set.len(), rows.len(), "row selected twice");
        for r in &rows {
            prop_assert!(part.active.contains(r), "selected row not from the pool");
        }
        let mut prev = 0.0;
        for rec in &run.history {
            prop_assert!(rec.cumulative_cost > prev);
            prev = rec.cumulative_cost;
            prop_assert!(rec.rmse.is_finite() && rec.rmse >= 0.0);
            prop_assert!(rec.amsd.is_finite() && rec.amsd >= 0.0);
            prop_assert!(rec.sigma_at_chosen.is_finite() && rec.sigma_at_chosen >= 0.0);
        }
        prop_assert_eq!(run.final_train.len(), part.initial.len() + run.history.len());
    }

    /// Variance Reduction always selects the pool max of the predictive SD:
    /// sigma_at_chosen >= AMSD at every iteration.
    #[test]
    fn vr_selects_at_least_average_uncertainty(
        ys in prop::collection::vec(-2.0..2.0f64, 25..40),
        seed in 0u64..100,
    ) {
        let (x, y, cost) = problem(&ys);
        let part = Partition::paper_default(y.len(), seed);
        let run = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &config(seed, 10))
            .expect("AL run");
        for rec in &run.history {
            prop_assert!(
                rec.sigma_at_chosen >= rec.amsd - 1e-12,
                "max {} below mean {}",
                rec.sigma_at_chosen,
                rec.amsd
            );
        }
    }

    /// Cost Efficiency's cumulative cost never exceeds Variance Reduction's
    /// worst case: it is bounded by (number of iterations) x (max row cost),
    /// and per-run it is reproducible.
    #[test]
    fn ce_reproducible_and_bounded(
        ys in prop::collection::vec(-2.0..2.0f64, 25..40),
        seed in 0u64..100,
    ) {
        let (x, y, cost) = problem(&ys);
        let part = Partition::paper_default(y.len(), seed);
        let a = run_al(&x, &y, &cost, &part, &mut CostEfficiency, &config(seed, 10)).expect("AL");
        let b = run_al(&x, &y, &cost, &part, &mut CostEfficiency, &config(seed, 10)).expect("AL");
        prop_assert_eq!(&a.history, &b.history);
        let max_cost = cost.iter().cloned().fold(0.0f64, f64::max);
        let init_cost: f64 = part.initial.iter().map(|&i| cost[i]).sum();
        let bound = init_cost + a.history.len() as f64 * max_cost;
        prop_assert!(a.history.last().map(|r| r.cumulative_cost <= bound + 1e-9).unwrap_or(true));
    }

    /// Tradeoff averaging: the averaged curve at the final grid point equals
    /// the mean of the runs' final RMSEs (every run has spent everything).
    #[test]
    fn tradeoff_curve_endpoint_is_mean_final_rmse(
        ys in prop::collection::vec(-2.0..2.0f64, 25..35),
        seeds in prop::collection::vec(0u64..50, 2..4),
    ) {
        let (x, y, cost) = problem(&ys);
        let runs: Vec<_> = seeds
            .iter()
            .map(|&s| {
                let part = Partition::paper_default(y.len(), s);
                run_al(&x, &y, &cost, &part, &mut RandomSampling, &config(s, 8)).expect("AL")
            })
            .collect();
        prop_assume!(runs.iter().all(|r| !r.history.is_empty()));
        let curve = tradeoff::average_curve(&runs, 30);
        let last = *curve.rmse.last().expect("non-empty grid");
        let mean_final: f64 = runs
            .iter()
            .map(|r| r.history.last().expect("non-empty").rmse)
            .sum::<f64>() / runs.len() as f64;
        prop_assert!((last - mean_final).abs() <= 1e-9 * (1.0 + mean_final));
    }
}

proptest! {
    // Each case runs 32 campaigns on a 340-row pool; fewer cases keep the
    // suite fast.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Whole campaigns fanned out through the replicate runner at widths
    /// 1, 2 and 4 equal a plain serial loop over the same seeds, in seed
    /// order, for both acquisition strategies.
    #[test]
    fn replicate_runner_matches_a_serial_loop_across_thread_widths(
        seed in 0u64..50,
        phase in 0.0..3.0f64,
    ) {
        let n = 340;
        let x = Matrix::from_fn(n, 1, |i, _| i as f64 * 8.0 / n as f64);
        let y: Vec<f64> = (0..n)
            .map(|i| ((i as f64 * 8.0 / n as f64) + phase).sin() * 2.0)
            .collect();
        let cost: Vec<f64> = (0..n).map(|i| 0.5 + (i % 5) as f64).collect();
        let seeds: Vec<u64> = (0..4).map(|k| seed + 100 * k).collect();
        let makers: [fn() -> Box<dyn Strategy>; 2] =
            [|| Box::new(VarianceReduction), || Box::new(CostEfficiency)];
        for make in makers {
            let campaign = |s: u64| {
                let gpr = GprConfig::new(Box::new(SquaredExponential::unit()))
                    .with_noise_floor(NoiseFloor::Fixed(0.05))
                    .with_restarts(1)
                    .with_seed(s);
                let cfg = AlConfig { max_iters: 6, seed: s, ..AlConfig::new(gpr) };
                let part = Partition::random(n, 4, 0.9, s);
                run_al(&x, &y, &cost, &part, make().as_mut(), &cfg).expect("AL").history
            };
            let serial: Vec<_> = seeds.iter().map(|&s| campaign(s)).collect();
            prop_assert!(serial.iter().all(|h| !h.is_empty()));
            for width in [1usize, 2, 4] {
                let runs = with_threads(width, || replicates(seeds.len(), |i| campaign(seeds[i])));
                prop_assert_eq!(
                    &runs,
                    &serial,
                    "{} diverged at width {}",
                    make().name(),
                    width
                );
            }
        }
    }
}
