//! Robust summaries of repeated timings: median, quartiles, and the
//! highest percentile that still has ten samples beyond it.

/// Quantile `p` (0 < p < 1) of `sorted` by the exclusive method — the
/// one Python's `statistics.quantiles` uses, so the quartiles printed
/// here are the ones the driver computes over its own runs.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = p * (n + 1) as f64;
    let j = (pos.floor() as usize).clamp(1, n - 1);
    // Not clamped: with few samples the outer quartiles extrapolate.
    let frac = pos - j as f64;
    sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (any order).
pub fn median(xs: &[f64]) -> f64 {
    quantile(&sorted(xs), 0.5)
}

/// Inter-quartile range of `xs`; `None` with fewer than two samples.
pub fn iqr(xs: &[f64]) -> Option<f64> {
    (xs.len() >= 2).then(|| {
        let s = sorted(xs);
        quantile(&s, 0.75) - quantile(&s, 0.25)
    })
}

/// The highest whole percentile of `n` samples that has at least ten
/// samples beyond it, if that percentile lies above the median.
pub fn tail_percentile(n: usize) -> Option<u32> {
    let p = (n.checked_sub(10)? * 100 / n) as u32;
    (p > 50).then_some(p)
}

/// Value at [`tail_percentile`] of `xs`, with the percentile chosen.
pub fn tail(xs: &[f64]) -> Option<(u32, f64)> {
    let p = tail_percentile(xs.len())?;
    Some((p, quantile(&sorted(xs), f64::from(p) / 100.0)))
}

/// FNV-1a over `bytes`, continuing from `h` (start from [`FNV_OFFSET`]).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_single() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantile(&xs, 0.25) - 2.75).abs() < 1e-12);
        assert!((quantile(&xs, 0.5) - 5.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.75) - 8.25).abs() < 1e-12);
        assert!((iqr(&xs).unwrap() - 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the two samples.
        assert!((iqr(&[2.0, 1.0]).unwrap() - 1.5).abs() < 1e-12);
        assert_eq!(iqr(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(20), None, "p50 is the median, not a tail");
        assert_eq!(tail_percentile(26), Some(61));
        assert_eq!(tail_percentile(65), Some(84));
        assert_eq!(tail_percentile(1000), Some(99));
        for n in 21..400usize {
            let p = tail_percentile(n).unwrap() as usize;
            assert!(n - n * p / 100 >= 10, "n={n} p={p}");
            assert!(n * (100 - (p + 1)) < 10 * 100, "n={n}: p{} would also do", p + 1);
        }
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p, v) = tail(&xs).unwrap();
        assert_eq!(p, 99);
        assert!(v > 989.0 && v < 992.0);
    }

    #[test]
    fn fnv1a_matches_the_reference_vector() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
