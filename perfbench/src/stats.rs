//! Order statistics for timing samples.

/// Samples that must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Arithmetic mean; NaN when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// A tail statistic: the value, the percentile it sits at, and the number
/// of samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the tail rank.
    pub value: f64,
    /// Its percentile, `100 * rank / samples`.
    pub percentile: f64,
    /// Sample count.
    pub samples: usize,
}

/// The highest percentile that still has [`TAIL_BEYOND`] samples beyond
/// it: the sample of rank `n - 10` (1-based, ascending). `None` below 11
/// samples, where no sample has ten others beyond it.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        value: sorted(xs)[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn no_tail_below_eleven_samples() {
        for n in 0..=TAIL_BEYOND {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert_eq!(tail(&xs), None, "n = {n}");
        }
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        let t = tail(&xs).expect("eleven samples have a tail");
        assert_eq!(t.value, 1.0);
        assert_eq!(t.samples, 11);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);

        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).expect("tail");
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_percentile_is_the_highest_with_ten_beyond() {
        for n in 11..300 {
            // A shuffled 0..n (1_000_003 is prime, so coprime with n).
            let xs: Vec<f64> = (0..n).map(|i| ((i * 1_000_003) % n) as f64).collect();
            let t = tail(&xs).expect("tail");
            let beyond = xs.iter().filter(|&&x| x > t.value).count();
            assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
            // One rank higher would leave only nine beyond.
            let next = 100.0 * (n - TAIL_BEYOND + 1) as f64 / n as f64;
            assert!(next > t.percentile);
        }
    }
}
