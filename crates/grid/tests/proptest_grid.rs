//! Property tests for grid expansion: completeness, duplicate-freedom,
//! order-stability under shuffled/duplicated axis declarations, and
//! per-config seed injectivity across whole grids.

use alperf_grid::spec::{derived_seed, GridSpec, KernelKind, StrategyKind, TierKind};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// An arbitrary multi-axis spec, axes drawn with duplicates allowed and
/// in arbitrary order. Kept small enough that full expansion (bounded by
/// 3·2·3·3·3·5 = 810 configs) stays fast under many proptest cases.
fn arb_spec() -> impl Strategy<Value = GridSpec> {
    let strategies = prop::collection::vec(prop::sample::select(StrategyKind::ALL.to_vec()), 1..=4);
    let kernels = prop::collection::vec(
        prop::sample::select(vec![KernelKind::Se, KernelKind::Matern52]),
        1..=3,
    );
    let noises = prop::collection::vec(prop::sample::select(vec![0.0, 0.1, 0.5]), 1..=4);
    let batches = prop::collection::vec(1usize..4, 1..=3);
    let faults = prop::collection::vec(prop::sample::select(vec![0.0, 0.2, 0.4]), 1..=4);
    let seeds = prop::collection::vec(0u64..50, 1..=5);
    (
        (strategies, kernels, noises, batches, faults, seeds),
        0u64..u64::MAX / 2,
    )
        .prop_map(
            |((strategies, kernels, noises, batches, fault_rates, seeds), base_seed)| GridSpec {
                base_seed,
                strategies,
                kernels,
                noises,
                batches,
                fault_rates,
                seeds,
                ..GridSpec::default()
            },
        )
}

proptest! {
    /// Expansion is the complete cartesian product of the deduplicated
    /// axes, with no duplicate keys and indices dense in order.
    #[test]
    fn expansion_complete_and_duplicate_free(spec in arb_spec()) {
        let canon = spec.clone().canonicalize().unwrap();
        let configs = spec.expand().unwrap();
        prop_assert_eq!(configs.len(), canon.n_configs());
        let keys: BTreeSet<String> = configs.iter().map(|c| c.key()).collect();
        prop_assert_eq!(keys.len(), configs.len(), "duplicate config keys");
        for (i, c) in configs.iter().enumerate() {
            prop_assert_eq!(c.index, i);
        }
        // Completeness: every axis combination appears.
        let expected = canon.strategies.len() * canon.kernels.len()
            * canon.noises.len() * canon.batches.len() * canon.fault_rates.len()
            * canon.seeds.len();
        prop_assert_eq!(configs.len(), expected);
        prop_assert!(configs.iter().all(|c| c.tier == TierKind::Exact));
        for s in &canon.strategies {
            prop_assert!(configs.iter().any(|c| c.strategy == *s));
        }
        for seed in &canon.seeds {
            prop_assert!(configs.iter().any(|c| c.seed == *seed));
        }
    }

    /// Shuffling and duplicating axis declarations cannot change the
    /// expansion — the canonical form is the identity of the grid.
    #[test]
    fn expansion_order_stable_under_shuffle_and_duplication(
        spec in arb_spec(),
        rot in 0usize..7,
        dup in 0usize..7,
    ) {
        let base = spec.expand().unwrap();
        let mut mutated = spec.clone();
        // Rotate each axis (a shuffle reachable without RNG plumbing)
        // and duplicate one element.
        fn mangle<T: Clone>(xs: &mut Vec<T>, rot: usize, dup: usize) {
            if xs.is_empty() { return; }
            let r = rot % xs.len();
            xs.rotate_left(r);
            let d = xs[dup % xs.len()].clone();
            xs.push(d);
        }
        mangle(&mut mutated.strategies, rot, dup);
        mangle(&mut mutated.kernels, rot + 1, dup);
        mangle(&mut mutated.noises, rot + 3, dup);
        mangle(&mut mutated.batches, rot, dup + 1);
        mangle(&mut mutated.fault_rates, rot + 1, dup + 2);
        mangle(&mut mutated.seeds, rot + 2, dup);
        prop_assert_eq!(mutated.expand().unwrap(), base);
    }

    /// Per-config run seeds are injective across the full grid: no two
    /// configs — however similar their axes — share a seed.
    #[test]
    fn run_seeds_injective_across_grid(spec in arb_spec()) {
        let configs = spec.expand().unwrap();
        let seeds: BTreeSet<u64> = configs.iter().map(|c| c.run_seed).collect();
        prop_assert_eq!(seeds.len(), configs.len(), "run_seed collision");
    }

    /// The derivation itself is injective over index ranges far larger
    /// than any practical grid, for arbitrary base seeds.
    #[test]
    fn derived_seed_injective_in_index(base in 0u64..u64::MAX) {
        let mut seen = BTreeSet::new();
        for i in 0..4096usize {
            prop_assert!(seen.insert(derived_seed(base, i)), "collision at index {}", i);
        }
    }

    /// Spec parsing accepts the canonical text of any expandable spec
    /// (canonical_text is parseable — the resume/meta contract).
    #[test]
    fn canonical_text_reparses_to_the_same_spec(spec in arb_spec()) {
        let canon = spec.canonicalize().unwrap();
        let reparsed = GridSpec::parse(&canon.canonical_text().replace(' ', "\n")).unwrap();
        prop_assert_eq!(reparsed, canon);
    }
}
