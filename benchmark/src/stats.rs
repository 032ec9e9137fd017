//! Order statistics for repeated timings: median, quartiles and the
//! "highest percentile with at least ten samples beyond it" rule.

/// One metric over the repetitions of a run: the value reported for it
/// — the median — with the quartiles and sample count printed beside
/// it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A value that was counted or computed once, not sampled.
    pub fn exact(v: f64) -> Summary {
        Summary {
            value: v,
            q1: v,
            q3: v,
            n: 1,
        }
    }
}

/// Summarises `samples`. The quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), which
/// is what the acceptance check uses, so spreads computed here and
/// there agree. With fewer than two samples the quartiles collapse
/// onto the median.
///
/// # Panics
///
/// Panics on an empty or non-finite sample set: every caller measures
/// at least once, so either means a bug in the benchmark.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summarize needs at least one sample");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite timing samples"));
    let m = v.len();
    if m == 1 {
        return Summary::exact(v[0]);
    }
    let cut = |i: usize| {
        let n = 4;
        let j = (i * (m + 1) / n).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Summary {
        value: cut(2),
        q1: cut(1),
        q3: cut(3),
        n: m,
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).value
}

/// The percentiles a tail may be reported at, lowest first.
const PERCENTILE_LADDER: [f64; 7] = [50.0, 75.0, 85.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of the ladder that still has at least ten of
/// `n` samples beyond it — the highest one worth reporting. `None`
/// when even the median does not (fewer than twenty samples).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // 100 − 99.9 is not exact in binary; allow for the rounding.
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rfind(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
}

/// Nearest-rank percentile `p` (0–100) of `samples`.
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile needs at least one sample");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let s = summarize(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((s.q1, s.value, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = summarize(&[4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.value, s.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        let s = summarize(&[5.0, 3.0]);
        assert_eq!((s.q1, s.value, s.q3), (2.5, 4.0, 5.5));
        assert_eq!(summarize(&[7.0]), Summary::exact(7.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // The frozen matrix has 83 cells: p85 leaves 12.45 beyond, p90
        // only 8.3.
        assert_eq!(highest_supported_percentile(83), Some(85.0));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 85.0), 85.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }
}
