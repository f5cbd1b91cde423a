//! Order statistics: nearest-rank percentiles, the "highest percentile
//! the sample supports" rule, and the quartiles `compare` judges spread by.

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample ascending (timings are never NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sample"));
    values
}

/// Nearest-rank percentile of an unsorted sample; `None` when empty.
pub fn percentile_of(values: Vec<f64>, p: f64) -> Option<f64> {
    (!values.is_empty()).then(|| percentile(&sorted(values), p))
}

/// The highest of the usual tail percentiles that still has at least
/// ten samples beyond it — the only tail a sample of `n` can support.
pub fn supported_tail(n: usize) -> Option<f64> {
    // Per mille and integer ranks: 100 * (1 - 0.9) is not 10 in floats.
    [999usize, 990, 950, 900]
        .into_iter()
        .find(|pm| n - (n * pm).div_ceil(1000) >= 10)
        .map(|pm| pm as f64 / 10.0)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method).
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let data = sorted(values.to_vec());
    let n = data.len();
    let at = |i: usize| -> f64 {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        data[j - 1] + (data[j] - data[j - 1]) * delta
    };
    Some([at(1), at(2), at(3)])
}

/// Median of a sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let data = sorted(values.to_vec());
    let n = data.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        data[n / 2]
    } else {
        (data[n / 2 - 1] + data[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_select_by_nearest_rank() {
        let sample: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&sample, 50.0), 100.0);
        assert_eq!(percentile(&sample, 90.0), 180.0);
        assert_eq!(percentile(&sample, 100.0), 200.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile_of(vec![3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile_of(vec![], 50.0), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }
}
