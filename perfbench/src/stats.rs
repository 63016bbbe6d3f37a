//! Order statistics over timing samples.

/// The median of `samples` (mean of the middle pair for an even count);
/// `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// A tail statistic: the value at a whole percentile, with the sample
/// count it was taken over.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The whole percentile (e.g. 99 for p99).
    pub percentile: u32,
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the reported rank (always ≥ 10).
    pub beyond: usize,
}

/// The highest whole percentile that leaves at least ten samples beyond
/// it (nearest-rank), so a tail is never read off a handful of outliers:
/// p99 needs 1000 samples, a 36-sample set gives p72. `None` with ten
/// samples or fewer.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= 10 {
        return None;
    }
    // floor(100 (n - 10) / n) is the largest p with ceil(p n / 100) ≤ n - 10.
    let percentile = (100 * (n - 10) / n).min(99) as u32;
    let rank = (percentile as usize * n).div_ceil(100).max(1);
    let v = sorted(samples);
    Some(Tail {
        percentile,
        value: v[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the statistics cannot rely on input order.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail(&ramp(10)), None);
        let t = tail(&ramp(11)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (9, 1.0, 10));
    }

    #[test]
    fn tail_is_p99_from_a_thousand_samples() {
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!(t.percentile, 99);
        assert_eq!(t.value, 990.0);
        assert_eq!((t.samples, t.beyond), (1000, 10));
        // More samples never raise the percentile past p99.
        let t = tail(&ramp(5000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99, 4950.0, 50));
    }

    #[test]
    fn tail_of_a_small_set_drops_to_the_percentile_it_supports() {
        // 36 samples (one batch workload's cells): p72 has 10 beyond it,
        // p73 would have only 9.
        let t = tail(&ramp(36)).unwrap();
        assert_eq!(t.percentile, 72);
        assert_eq!(t.value, 26.0);
        assert_eq!((t.samples, t.beyond), (36, 10));
        // Every size reports at least ten samples beyond the tail.
        for n in 11..400 {
            let t = tail(&ramp(n)).unwrap();
            assert!(t.beyond >= 10, "n={n}: {t:?}");
            assert!(t.percentile >= 9 && t.percentile <= 99);
        }
    }
}
