//! Exact quantile estimation.

/// Exact quantiles over a stored sample set.
///
/// Suited to the completion-time experiments, where the number of
/// repetitions is small (hundreds) and exact order statistics are wanted
/// for tail-latency reporting.
///
/// # Examples
///
/// ```
/// use dctcp_stats::Quantiles;
///
/// let mut q: Quantiles = (1..=100).map(f64::from).collect();
/// assert_eq!(q.quantile(0.0), Some(1.0));
/// assert_eq!(q.quantile(1.0), Some(100.0));
/// assert_eq!(q.median(), Some(50.5));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Quantiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Quantiles {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sample.
    ///
    /// Non-finite samples are ignored so a failed run cannot poison the
    /// tail statistics.
    pub fn push(&mut self, x: f64) {
        if x.is_finite() {
            self.samples.push(x);
            self.sorted = false;
        }
    }

    /// Number of (finite) samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the sample set is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Returns the `q`-quantile (0 ≤ q ≤ 1) with linear interpolation
    /// between order statistics, or `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.sorted = true;
        }
        let n = self.samples.len();
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac)
    }

    /// The median (0.5-quantile).
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Sample mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Maximum sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().copied().fold(None, |acc, x| {
            Some(match acc {
                None => x,
                Some(m) => m.max(x),
            })
        })
    }

    /// Minimum sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.samples.iter().copied().fold(None, |acc, x| {
            Some(match acc {
                None => x,
                Some(m) => m.min(x),
            })
        })
    }
}

impl Extend<f64> for Quantiles {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Quantiles {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut q = Quantiles::new();
        q.extend(iter);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_quantiles_on_ramp() {
        let mut q: Quantiles = (1..=100).map(f64::from).collect();
        assert_eq!(q.quantile(0.0), Some(1.0));
        assert_eq!(q.quantile(1.0), Some(100.0));
        assert!((q.quantile(0.25).unwrap() - 25.75).abs() < 1e-12);
        assert!((q.median().unwrap() - 50.5).abs() < 1e-12);
        assert!((q.quantile(0.99).unwrap() - 99.01).abs() < 1e-12);
    }

    #[test]
    fn empty_quantiles() {
        let mut q = Quantiles::new();
        assert_eq!(q.quantile(0.5), None);
        assert_eq!(q.mean(), None);
        assert_eq!(q.min(), None);
        assert_eq!(q.max(), None);
    }

    #[test]
    fn quantiles_ignore_non_finite() {
        let mut q = Quantiles::new();
        q.push(f64::NAN);
        q.push(f64::INFINITY);
        q.push(1.0);
        assert_eq!(q.len(), 1);
        assert_eq!(q.median(), Some(1.0));
    }
}
