//! Order statistics shared by the run report and `--compare`.

/// The `q`-quantile (0..=1) of `v` by linear interpolation between the
/// closest ranks. `v` need not be sorted; empty input gives 0.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// First and third quartiles as Python's `statistics.quantiles(v, n=4)`
/// gives them (the default "exclusive" method), so spreads reported here
/// match the ones an outside check computes. Needs at least two values.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |i: usize| {
        let j = i * (n + 1);
        let k = (j / 4).clamp(1, n - 1);
        let delta = j as f64 - (k * 4) as f64;
        (s[k - 1] * (4.0 - delta) + s[k] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Geometric mean of positive values (1 when empty).
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 1.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // ... and extrapolates for two values: [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
