//! Order statistics used by every metric: medians, quartiles and the
//! "highest percentile with at least ten samples beyond it" rule.

/// Samples required beyond a reported percentile (choosing-metrics §1).
pub const MIN_TAIL_SAMPLES: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count). `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// computes them (exclusive method), so spreads printed here are the ones the
/// acceptance rule is stated in. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based scale; like Python, the segment
        // index is clamped into the data and tiny samples extrapolate.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let frac = pos as f64 / 4.0 - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median; `None` without enough
/// values or with a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The highest whole percentile, at most `cap`, that still leaves
/// [`MIN_TAIL_SAMPLES`] samples beyond it in a pool of `n`. `None` when even
/// the median cannot (n < 20).
pub fn highest_percentile(n: usize, cap: u32) -> Option<u32> {
    if n < 2 * MIN_TAIL_SAMPLES {
        return None;
    }
    // Samples beyond percentile p (nearest-rank): n − ceil(p·n/100).
    (50..=cap).rev().find(|&p| n - rank(n, p) >= MIN_TAIL_SAMPLES)
}

/// Nearest-rank index (1-based) of percentile `p` in `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (p as usize * n).div_ceil(100).clamp(1, n)
}

/// Nearest-rank percentile `p` of `values`. `None` when empty.
pub fn percentile(values: &[f64], p: u32) -> Option<f64> {
    let v = sorted(values);
    (!v.is_empty()).then(|| v[rank(v.len(), p) - 1])
}

/// Tail latency under the ten-samples rule: `(percentile used, value)`.
pub fn tail(values: &[f64], cap: u32) -> Option<(u32, f64)> {
    let p = highest_percentile(values.len(), cap)?;
    Some((p, percentile(values, p)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        // Seven repetitions, one process in the fast mode: the median ignores it.
        let reps = [0.21, 0.22, 0.048, 0.23, 0.21, 0.22, 0.22];
        assert_eq!(median(&reps), Some(0.22));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
        let (q1, q3) = quartiles(&[64.0, 1.0, 8.0, 2.0, 32.0, 4.0, 16.0]).unwrap();
        assert_eq!((q1, q3), (2.0, 32.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: extrapolates.
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert_eq!((q1, q3), (0.75, 2.25));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_picker_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(19, 99), None);
        assert_eq!(highest_percentile(20, 99), Some(50));
        assert_eq!(highest_percentile(100, 99), Some(90));
        assert_eq!(highest_percentile(199, 99), Some(94));
        assert_eq!(highest_percentile(200, 99), Some(95));
        assert_eq!(highest_percentile(350, 95), Some(95));
        assert_eq!(highest_percentile(1000, 99), Some(99));
        assert_eq!(highest_percentile(100_000, 95), Some(95), "capped");
        for n in 20..600 {
            let p = highest_percentile(n, 99).unwrap();
            assert!(n - rank(n, p) >= MIN_TAIL_SAMPLES, "n={n} p={p}");
            if p < 99 {
                assert!(n - rank(n, p + 1) < MIN_TAIL_SAMPLES, "n={n}: p{} also fits", p + 1);
            }
        }
    }

    #[test]
    fn tail_reports_the_percentile_it_used() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v, 95), Some((95, 190.0)));
        assert_eq!(tail(&v[..100], 95), Some((90, 90.0)));
        assert_eq!(tail(&v[..5], 95), None);
    }
}
