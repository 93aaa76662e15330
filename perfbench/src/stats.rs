//! Order statistics over latency samples.

/// The median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile_sorted(&sorted(xs), 0.5)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile `q` of an ascending slice (0 when empty).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// The tail quantile the benchmark reports: the 99th percentile when at
/// least ten samples lie beyond it, else the highest percentile that
/// still has ten samples beyond it, but never below the median. Returns
/// `(value, percentile)`.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    let q = if n > 11 {
        (0.99f64).min((n - 11) as f64 / (n - 1) as f64).max(0.5)
    } else {
        0.5
    };
    (quantile_sorted(&v, q), q * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        let (value, pct) = tail(&xs);
        assert!(xs.iter().filter(|&&x| x > value).count() >= 10);
        assert!(pct < 99.0);
        let many: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(tail(&many).1, 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
