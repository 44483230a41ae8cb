//! Order statistics over measured samples.

/// Quantile `q` of `v` by linear interpolation between closest ranks (the
/// definition of `numpy.quantile`'s default and Python's
/// `statistics.quantiles(method="inclusive")`). Sorts `v`.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// First quartile, median and third quartile.
pub fn quartiles(v: &mut [f64]) -> [f64; 3] {
    [quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75)]
}

/// `f` of each run of `per_window` consecutive samples (a partial last
/// run is dropped).
pub fn per_window(samples: &[f64], per_window: usize, f: impl Fn(&mut [f64]) -> f64) -> Vec<f64> {
    samples
        .chunks_exact(per_window.max(1))
        .map(|w| f(&mut w.to_vec()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quartiles(&mut v), [1.75, 2.5, 3.25]);
    }

    #[test]
    fn windows_drop_the_partial_tail() {
        let v = [1.0, 3.0, 5.0, 7.0, 100.0];
        assert_eq!(per_window(&v, 2, median), vec![2.0, 6.0]);
    }
}
