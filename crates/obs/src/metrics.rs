//! Counters and log-linear histograms.
//!
//! Both are built purely from relaxed atomics, so any number of threads —
//! including the replicate runner's and the executors' workers — can
//! record concurrently without locks, and the aggregate is independent of
//! interleaving (sums and bucket counts commute). Two histograms can also
//! be [merged](Histogram::merge), e.g. per-worker locals into a global.
//!
//! The histogram is HDR-style log-linear: each power of two is split into
//! [`SUB`] linear sub-buckets, giving a guaranteed relative bucket width of
//! `1/SUB` (~3%) across the full `u64` range with a fixed 1920-slot table.
//! Values below [`EXACT_LIMIT`] are stored exactly. `min`, `max`, `sum`,
//! and `count` are tracked exactly on the side, so extreme statistics
//! (the profiler's min-over-reps) are not bucketized.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `v`.
    #[inline]
    pub fn add(&self, v: u64) {
        self.value.fetch_add(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Reset to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Linear sub-buckets per power of two (relative width `1/SUB`).
pub const SUB: usize = 32;
const SUB_BITS: u32 = 5; // log2(SUB)
/// Values below this are bucketed exactly (one bucket per integer).
pub const EXACT_LIMIT: u64 = 2 * SUB as u64; // 64
/// Total bucket count: 64 exact + 32 per exponent 6..=63.
pub const BUCKETS: usize = EXACT_LIMIT as usize + (64 - (SUB_BITS as usize + 1)) * SUB;

/// Bucket index of `v` (total order, exact below [`EXACT_LIMIT`]).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < EXACT_LIMIT {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS + 1
    let sub = ((v >> (msb - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    EXACT_LIMIT as usize + (msb - (SUB_BITS + 1)) as usize * SUB + sub
}

/// Inclusive `[lo, hi]` value range covered by bucket `index`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < EXACT_LIMIT as usize {
        return (index as u64, index as u64);
    }
    let e = index - EXACT_LIMIT as usize;
    let msb = (SUB_BITS + 1) as usize + e / SUB;
    let sub = (e % SUB) as u64;
    let shift = msb as u32 - SUB_BITS;
    let lo = (SUB as u64 + sub) << shift;
    (lo, lo + (1u64 << shift) - 1)
}

/// Exact summary of a histogram's contents at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistStats {
    /// Number of recorded values.
    pub count: u64,
    /// Exact sum of recorded values.
    pub sum: u64,
    /// Exact minimum (0 when empty).
    pub min_ns: u64,
    /// Exact maximum (0 when empty).
    pub max_ns: u64,
    /// Median estimate (log-linear bucket resolution).
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

impl HistStats {
    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Lock-free log-linear histogram over `u64` values (typically
/// nanoseconds).
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            buckets: buckets.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Nearest-rank quantile estimate for `q` in `[0, 1]`. The estimate is
    /// the midpoint of the log-linear bucket holding the rank-`⌈qN⌉`
    /// value, clamped into the exact `[min, max]` envelope — it always
    /// lands in the same bucket as the true order statistic, i.e. within
    /// a relative error of `1/SUB`.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                let (lo, hi) = bucket_bounds(i);
                let mid = lo + (hi - lo) / 2;
                let min = self.min.load(Ordering::Relaxed);
                let max = self.max.load(Ordering::Relaxed);
                return mid.clamp(min, max);
            }
        }
        // Racy concurrent record between count and bucket reads: fall back
        // to the exact max.
        self.max.load(Ordering::Relaxed)
    }

    /// Snapshot of count/sum/min/max and the p50/p90/p99 estimates.
    pub fn stats(&self) -> HistStats {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return HistStats::default();
        }
        HistStats {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min_ns: self.min.load(Ordering::Relaxed),
            max_ns: self.max.load(Ordering::Relaxed),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }

    /// Fold another histogram's contents into this one. Bucket counts and
    /// the exact side statistics all commute, so merging per-worker locals
    /// in any order yields the same aggregate.
    pub fn merge(&self, other: &Histogram) {
        for (a, b) in self.buckets.iter().zip(other.buckets.iter()) {
            let v = b.load(Ordering::Relaxed);
            if v != 0 {
                a.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Clear all recorded values.
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut prev = 0usize;
        for e in 0..64u32 {
            for v in [
                1u64 << e,
                (1u64 << e) + ((1u64 << e) >> 3),
                (1u64 << e) + ((1u64 << e) - 1) / 2,
            ] {
                let i = bucket_index(v);
                assert!(i < BUCKETS, "v={v} i={i}");
                assert!(i >= prev, "v={v}: index went backwards");
                let (lo, hi) = bucket_bounds(i);
                assert!(lo <= v && v <= hi, "v={v} not in [{lo},{hi}]");
                prev = i;
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..EXACT_LIMIT {
            assert_eq!(bucket_bounds(bucket_index(v)), (v, v));
        }
    }

    #[test]
    fn single_value_quantiles_are_exact() {
        let h = Histogram::new();
        h.record(123_456);
        let s = h.stats();
        assert_eq!(s.count, 1);
        assert_eq!(s.min_ns, 123_456);
        assert_eq!(s.max_ns, 123_456);
        // min==max forces the clamp to the exact value.
        assert_eq!(s.p50, 123_456);
        assert_eq!(s.p99, 123_456);
    }

    #[test]
    fn merge_equals_union() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in 0..1000u64 {
            let target = if v % 2 == 0 { &a } else { &b };
            target.record(v * v);
            all.record(v * v);
        }
        a.merge(&b);
        assert_eq!(a.stats(), all.stats());
    }

    #[test]
    fn reset_clears() {
        let h = Histogram::new();
        h.record(5);
        h.reset();
        assert_eq!(h.stats(), HistStats::default());
    }

    #[test]
    fn mean_is_exact() {
        let h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.stats().mean(), 20.0);
    }
}
