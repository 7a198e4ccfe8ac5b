//! Property-based tests for the dataset layer: partitions, transforms,
//! CSV round-trips and fixed-variable views.

use alperf_data::csvio;
use alperf_data::dataset::DataSet;
use alperf_data::partition::Partition;
use alperf_data::transform::Transform;
use proptest::prelude::*;

proptest! {
    /// Partitions are always disjoint, exhaustive covers with the requested
    /// seed-set size and (rounded) active fraction.
    #[test]
    fn partitions_are_valid_covers(
        n in 1usize..400,
        frac in 0.0..1.0f64,
        seed in 0u64..1000,
    ) {
        let n_initial = 1.min(n);
        let p = Partition::random(n, n_initial, frac, seed);
        prop_assert!(p.is_valid_cover(n));
        prop_assert_eq!(p.initial.len(), n_initial);
        let rest = n - n_initial;
        let expect_active = (rest as f64 * frac).round() as usize;
        prop_assert_eq!(p.active.len(), expect_active);
    }

    /// Identical seeds give identical partitions; different seeds almost
    /// always differ (check they at least cover the same set).
    #[test]
    fn partitions_deterministic(n in 10usize..200, seed in 0u64..500) {
        let a = Partition::random(n, 1, 0.8, seed);
        let b = Partition::random(n, 1, 0.8, seed);
        prop_assert_eq!(a, b);
    }

    /// Log transform round-trips within floating-point tolerance on
    /// positive values spanning many magnitudes.
    #[test]
    fn log_transform_round_trip(exp in -300.0..300.0f64) {
        let v = 10f64.powf(exp / 2.0);
        let t = Transform::Log10;
        prop_assume!(t.accepts(v));
        let back = t.invert(t.apply(v));
        prop_assert!((back - v).abs() <= 1e-10 * v.abs());
    }

    /// CSV round-trip preserves every bit of numeric data.
    #[test]
    fn csv_round_trip_exact(
        xs in prop::collection::vec(-1e12..1e12f64, 1..30),
        ys in prop::collection::vec(1e-12..1e12f64, 1..30),
    ) {
        let n = xs.len().min(ys.len());
        let mut d = DataSet::new();
        d.add_numeric_variable("x", xs[..n].to_vec()).unwrap();
        d.add_response("y", ys[..n].to_vec()).unwrap();
        let text = csvio::to_csv(&d).unwrap();
        let back = csvio::from_csv(&text, &["y"]).unwrap();
        prop_assert_eq!(back.n_rows(), n);
        for i in 0..n {
            prop_assert_eq!(back.variable("x").unwrap().values[i].to_bits(), xs[i].to_bits());
            prop_assert_eq!(back.response("y").unwrap()[i].to_bits(), ys[i].to_bits());
        }
    }

    /// select_rows + fix_variable compose: fixing then counting equals
    /// counting matching rows directly.
    #[test]
    fn fix_variable_counts_match(vals in prop::collection::vec(0..4i32, 1..60)) {
        let col: Vec<f64> = vals.iter().map(|&v| v as f64).collect();
        let mut d = DataSet::new();
        d.add_numeric_variable("v", col.clone()).unwrap();
        d.add_response("y", vec![1.0; col.len()]).unwrap();
        for target in 0..4 {
            let fixed = d.fix_variable("v", target as f64).unwrap();
            let direct = col.iter().filter(|&&v| v == target as f64).count();
            prop_assert_eq!(fixed.n_rows(), direct);
            // The fixed variable is dropped.
            prop_assert_eq!(fixed.n_variables(), 0);
        }
    }
}
