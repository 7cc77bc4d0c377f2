//! Order statistics over raw samples (no histogram buckets, so a reported
//! percentile carries every digit it was measured with).

/// Median of `xs` (mean of the middle two for an even count); 0 if empty.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.total_cmp(b));
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

/// The `q` quantile of nanosecond samples, in microseconds, by linear
/// interpolation between closest ranks; 0 if empty. Sorts `ns`.
pub fn quantile_us(ns: &mut [u64], q: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    ns.sort_unstable();
    let pos = q * (ns.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    (ns[lo] as f64 * (1.0 - frac) + ns[hi] as f64 * frac) / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let mut xs: Vec<u64> = (0..=100).map(|i| i * 1000).collect();
        assert_eq!(quantile_us(&mut xs, 0.5), 50.0);
        assert_eq!(quantile_us(&mut xs, 0.99), 99.0);
        let mut two = vec![1000, 2000];
        assert_eq!(quantile_us(&mut two, 0.5), 1.5);
    }
}
