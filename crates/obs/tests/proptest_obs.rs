//! Property-based tests for the histogram/counter internals.
//!
//! The log-linear histogram's quantiles are checked against a
//! sorted-vector nearest-rank oracle: the estimate must land in the same
//! log-linear bucket as the true order statistic (which bounds the
//! relative error by `1/SUB`), and the exact side statistics (count, sum,
//! min, max) must match the oracle exactly. Counters are hammered from
//! many threads and must sum exactly.

use alperf_obs::metrics::{bucket_bounds, bucket_index, Counter, Histogram, BUCKETS, SUB};
use proptest::prelude::*;
use std::sync::Arc;

/// Nearest-rank quantile of a sorted slice (the oracle definition the
/// histogram mirrors).
fn oracle_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #[test]
    fn bucket_bounds_invert_bucket_index(v in 0u64..u64::MAX) {
        let i = bucket_index(v);
        prop_assert!(i < BUCKETS);
        let (lo, hi) = bucket_bounds(i);
        prop_assert!(lo <= v && v <= hi, "v={v} outside [{lo},{hi}]");
        // Relative bucket width is bounded by 1/SUB.
        prop_assert!(hi - lo <= lo.max(1) / SUB as u64 + 1);
    }

    #[test]
    fn quantiles_match_sorted_vector_oracle(
        values in prop::collection::vec(0u64..10_000_000_000u64, 1..400),
        q in 0.01f64..1.0f64,
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();

        // Exact side statistics.
        let s = h.stats();
        prop_assert_eq!(s.count, values.len() as u64);
        prop_assert_eq!(s.sum, values.iter().sum::<u64>());
        prop_assert_eq!(s.min_ns, sorted[0]);
        prop_assert_eq!(s.max_ns, *sorted.last().unwrap());

        // The quantile estimate lives in the same log-linear bucket as the
        // true nearest-rank order statistic...
        let truth = oracle_quantile(&sorted, q);
        let est = h.quantile(q);
        prop_assert_eq!(
            bucket_index(est),
            bucket_index(truth),
            "q={} est={} truth={}",
            q,
            est,
            truth
        );
        // ...which bounds the relative error by the bucket width.
        let tol = (truth / SUB as u64).max(1);
        prop_assert!(
            est.abs_diff(truth) <= tol,
            "q={} est={} truth={} tol={}",
            q,
            est,
            truth,
            tol
        );
    }

    #[test]
    fn merged_histogram_equals_single_histogram(
        a in prop::collection::vec(0u64..1_000_000u64, 0..200),
        b in prop::collection::vec(0u64..1_000_000u64, 0..200),
    ) {
        let ha = Histogram::new();
        let hb = Histogram::new();
        let hall = Histogram::new();
        for &v in &a {
            ha.record(v);
            hall.record(v);
        }
        for &v in &b {
            hb.record(v);
            hall.record(v);
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.stats(), hall.stats());
        for q in [0.1, 0.5, 0.9, 0.99] {
            prop_assert_eq!(ha.quantile(q), hall.quantile(q));
        }
    }
}

#[test]
fn concurrent_counter_increments_sum_exactly() {
    let c = Arc::new(Counter::new());
    let threads = 8;
    let per_thread = 25_000u64;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                for i in 0..per_thread {
                    if (i + t) % 3 == 0 {
                        c.add(2);
                    } else {
                        c.inc();
                    }
                }
            })
        })
        .collect();
    let mut expected = 0u64;
    for t in 0..threads {
        for i in 0..per_thread {
            expected += if (i + t) % 3 == 0 { 2 } else { 1 };
        }
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(c.get(), expected);
}

#[test]
fn concurrent_histogram_records_sum_exactly() {
    let h = Arc::new(Histogram::new());
    let threads = 8;
    let per_thread = 10_000u64;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                for i in 0..per_thread {
                    h.record(t * 1_000 + i);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    let s = h.stats();
    assert_eq!(s.count, threads * per_thread);
    let expected_sum: u64 = (0..threads)
        .map(|t| (0..per_thread).map(|i| t * 1_000 + i).sum::<u64>())
        .sum();
    assert_eq!(s.sum, expected_sum);
    assert_eq!(s.min_ns, 0);
    assert_eq!(s.max_ns, (threads - 1) * 1_000 + per_thread - 1);
}
