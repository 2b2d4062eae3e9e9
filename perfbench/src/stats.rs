//! Order statistics shared by every metric.

/// Nearest-rank percentile (`p` in `(0, 100]`): the smallest sample
/// with at least `p` percent of the samples at or below it. `None`
/// for an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Median as the mean of the middle pair for even counts (how the
/// steadiness check and Python's `statistics.median` read it).
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computation() {
        // sorted: 1 2 3 4 5 6 7 8 9 10 (shuffled on input)
        let xs = [7.0, 3.0, 10.0, 1.0, 9.0, 2.0, 8.0, 5.0, 4.0, 6.0];
        // p50: ceil(0.5 * 10) = rank 5 -> 5
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
        // p99: ceil(9.9) = rank 10 -> 10
        assert_eq!(percentile(&xs, 99.0), Some(10.0));
        // p25: ceil(2.5) = rank 3 -> 3
        assert_eq!(percentile(&xs, 25.0), Some(3.0));
        // p10: rank 1 -> the minimum
        assert_eq!(percentile(&xs, 10.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn p99_of_a_thousand_leaves_ten_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // rank ceil(990) = 990: samples 991..=1000 lie beyond it
        assert_eq!(percentile(&xs, 99.0), Some(990.0));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }
}
