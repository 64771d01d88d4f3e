//! Order statistics over timing samples.

/// Median of `v` (mean of the two middle values for even lengths);
/// `NaN` when `v` is empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of `v`; `NaN` when empty.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Highest percentile (as a fraction) of `n` samples that still has at
/// least ten samples strictly beyond it, capped at the 99th.
pub fn tail_quantile(n: usize) -> f64 {
    if n < 40 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).min(0.99)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_quantile(1000), 0.99);
        assert!((tail_quantile(500) - 0.98).abs() < 1e-12);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = percentile(&v, tail_quantile(v.len()));
        assert!(v.iter().filter(|&&x| x > p).count() >= 10);
    }
}
