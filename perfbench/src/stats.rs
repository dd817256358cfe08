//! Order statistics for benchmark samples.

/// The percentiles a tail is looked for at, highest first.
const TAIL_PCTS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// A sorted copy of `v`.
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of an already sorted, non-empty slice.
fn rank(s: &[f64], pct: f64) -> f64 {
    let idx = ((pct / 100.0) * s.len() as f64).ceil() as usize;
    s[idx.clamp(1, s.len()) - 1]
}

/// The highest of [`TAIL_PCTS`] that still has at least ten samples
/// beyond it, with its value.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    TAIL_PCTS.iter().find_map(|&p| {
        let at = ((p / 100.0) * s.len() as f64).ceil() as usize;
        (s.len() >= at + 10 && at > 0).then(|| (p, rank(&s, p)))
    })
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.max(f64::MIN_POSITIVE).ln()).sum::<f64>() / v.len() as f64).exp()
}

/// The three cut points of Python's `statistics.quantiles(v, n=4)`
/// (its default "exclusive" method). Needs at least two values.
pub fn quartiles(v: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n as i64 + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1i64..).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (s[j as usize - 1], s[j as usize]);
        *slot = (lo * (4.0 - delta) + hi * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median — the steadiness
/// figure each end-to-end metric is held to.
pub fn spread(v: &[f64]) -> Option<f64> {
    let q = quartiles(v)?;
    let med = median(v);
    (med != 0.0).then(|| (q[2] - q[0]).abs() / med.abs())
}

/// Median, tail and count of one timed quantity, for the report.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// Highest percentile with ten samples beyond it, and its value.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarise `v`.
    pub fn of(v: &[f64]) -> Summary {
        Summary { n: v.len(), median: median(v), tail: tail(v) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
