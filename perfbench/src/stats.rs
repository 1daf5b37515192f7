//! Order statistics used to summarise repeated measurements.

/// The median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method Python's
/// `statistics.quantiles(values, n=4)` uses: the quantile at fraction `q`
/// sits at rank `q * (n + 1)`, interpolated between neighbours and clamped
/// to the sample range.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let s = sorted(values);
    let at = |q: f64| {
        let rank = q * (s.len() as f64 + 1.0);
        let lo = (rank.floor() as usize).clamp(1, s.len());
        let hi = (lo + 1).min(s.len());
        let frac = (rank - lo as f64).clamp(0.0, 1.0);
        s[lo - 1] + (s[hi - 1] - s[lo - 1]) * frac
    };
    (at(0.25), at(0.75))
}

/// The interquartile range as a share of the median (0 when the median is 0).
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The highest percentile among `candidates` that leaves at least
/// `min_beyond` samples strictly above its rank in a sample of `n`, or
/// `None` when even the lowest candidate leaves too few. A tail percentile is
/// only worth reporting when enough samples lie beyond it to pin it down.
pub fn tail_percentile(n: usize, min_beyond: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|p| n - nearest_rank(n, *p).min(n) >= min_beyond)
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

/// The `p`-th percentile (0..=100) of `values` by nearest rank.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let s = sorted(values);
    s[nearest_rank(s.len(), p).clamp(1, s.len()) - 1]
}

/// The 1-based nearest rank of percentile `p` in a sample of `n`: the
/// smallest rank with at least `p`% of the sample at or below it.
fn nearest_rank(n: usize, p: f64) -> usize {
    // `p * n / 100` is exact for whole percentiles; the slack absorbs the
    // rounding of fractional ones such as 99.9.
    (p * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // A single sample is its own quartiles.
        assert_eq!(quartiles(&[2.0]), (2.0, 2.0));
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let c = [50.0, 90.0, 99.0, 99.9];
        // 100 samples: p90 leaves 10 beyond, p99 only 1.
        assert_eq!(tail_percentile(100, 10, &c), Some(90.0));
        assert_eq!(tail_percentile(144, 10, &c), Some(90.0));
        // 1000 samples: p99 leaves exactly 10 beyond.
        assert_eq!(tail_percentile(1000, 10, &c), Some(99.0));
        assert_eq!(tail_percentile(10_000, 10, &c), Some(99.9));
        // 20 samples: only the median has 10 beyond it.
        assert_eq!(tail_percentile(20, 10, &c), Some(50.0));
        // Too few samples for any candidate.
        assert_eq!(tail_percentile(5, 10, &c), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[4.0], 90.0), 4.0);
    }
}
