//! Order statistics over raw samples.

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it (`p` in `(0, 100]`). Exact over the raw samples,
/// with no interpolation and no histogram bucket error. `sorted` must be
/// ascending and non-empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `xs` ascending.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest-rank p50) of an unsorted, non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    nearest_rank(&sorted(xs), 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 50.0), 50.0);
        assert_eq!(nearest_rank(&xs, 99.0), 99.0);
        assert_eq!(nearest_rank(&xs, 100.0), 100.0);
        assert_eq!(nearest_rank(&xs, 0.5), 1.0);
        // Ten samples: p99 needs rank ⌈9.9⌉ = 10, the maximum.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&ten, 99.0), 10.0);
        assert_eq!(nearest_rank(&ten, 50.0), 5.0);
        assert_eq!(nearest_rank(&[7.0], 1.0), 7.0);
    }

    #[test]
    fn median_sorts_its_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
