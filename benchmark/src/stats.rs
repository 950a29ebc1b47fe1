//! Order statistics over timing samples: the median, the quartiles the
//! benchmark contract judges spread by, and the tail rule of the metrics
//! guide (the highest percentile that still has ten samples beyond it).

/// A copy of `values` in ascending order.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values`; the mean of the two middle values for an even
/// count, `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The smallest and largest of `values`; `(0.0, 0.0)` for an empty slice.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    (v.first().copied().unwrap_or(0.0), v.last().copied().unwrap_or(0.0))
}

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` does (the default "exclusive"
/// method) — the benchmark contract's spread is defined with that function,
/// so `--compare` must agree with it digit for digit. `None` below two
/// values, where Python raises.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        // Position i·(n+1)/4 in 1-based ranks, clamped to the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        *slot = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    Some(out)
}

/// The distance between the first and third quartile as a share of the
/// median — the run-to-run spread the contract bounds. `None` below two
/// values or for a zero median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// A tail percentile and the sample value at it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, e.g. `90.0`.
    pub percentile: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
}

/// The percentiles a tail may be reported at, lowest first, in per mille so
/// that ranks are exact integers.
const TAIL_PER_MILLE: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The highest of the 50/75/90/95/99/99.9th percentiles that still has at
/// least ten samples beyond it, with the nearest-rank sample at it. A
/// percentile with fewer samples beyond it is one or two outliers, not a
/// tail. `None` below twenty samples, where not even the median qualifies.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    TAIL_PER_MILLE
        .iter()
        .rev()
        .map(|&p| (p, (p * n).div_ceil(1000)))
        .find(|&(_, rank)| rank >= 1 && n - rank >= 10)
        .map(|(p, rank)| Tail { percentile: p as f64 / 10.0, value: v[rank - 1] })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(min_max(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(min_max(&[]), (0.0, 0.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]:
        // the exclusive method extrapolates past the data at tiny counts.
        assert_eq!(quartiles(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some([1.5, 4.0, 12.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_share(&v), Some((8.25 - 2.75) / 5.5));
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_percentile() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 19 samples: even the median has only 9 beyond it.
        assert_eq!(tail(&ramp(19)), None);
        // 20 samples: the median (rank 10) has exactly 10 beyond it.
        assert_eq!(tail(&ramp(20)), Some(Tail { percentile: 50.0, value: 10.0 }));
        // 40 samples: p75 is rank 30, 10 beyond; p90 is rank 36, 4 beyond.
        assert_eq!(tail(&ramp(40)), Some(Tail { percentile: 75.0, value: 30.0 }));
        // 100 samples: p90 has 10 beyond, p95 only 5.
        assert_eq!(tail(&ramp(100)), Some(Tail { percentile: 90.0, value: 90.0 }));
        // 1000 samples: p99 has 10 beyond, p99.9 only 1.
        assert_eq!(tail(&ramp(1000)), Some(Tail { percentile: 99.0, value: 990.0 }));
        // 10000 samples: p99.9 has 10 beyond.
        assert_eq!(tail(&ramp(10_000)), Some(Tail { percentile: 99.9, value: 9990.0 }));
    }
}
