//! Small order statistics used by every workload.

/// Median of a sample; 0 for an empty one.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, by the same exclusive method as Python's
/// `statistics.quantiles(xs, n=4)`. A sample of one gives `(x, x)`.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0),
        1 => (v[0], v[0]),
        n => {
            let at = |q: f64| {
                // Position on the 1-based order, clamped to the sample.
                let pos = (q * (n as f64 + 1.0)).clamp(1.0, n as f64);
                let lo = pos.floor() as usize;
                let frac = pos - lo as f64;
                let hi = (lo + 1).min(n);
                v[lo - 1] + frac * (v[hi - 1] - v[lo - 1])
            };
            (at(0.25), at(0.75))
        }
    }
}

/// Exact nearest-rank percentile (`q` in `(0, 1]`) of a sample.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(percentile(&ten, 0.5), 5.0);
        assert_eq!(percentile(&ten, 0.99), 10.0);
    }
}
