//! A mergeable, bounded-relative-error quantile sketch.
//!
//! Streaming flow-completion-time tails over millions of flows cannot
//! afford one record per flow, so the churn harness folds every sample
//! into a log-binned histogram instead: bin `i` covers
//! `(γ^(i-1), γ^i]` with `γ = (1 + α) / (1 − α)`, which caps the
//! relative error of any reported quantile at `α` (the DDSketch bound,
//! Masson et al., VLDB 2019). Merging two sketches is an element-wise
//! counter addition, so per-host (or per-rack) sketches combine into
//! the exact sketch of the concatenated streams — merge order cannot
//! change a single bit of the result.
//!
//! Counts are stored with DDSketch's store-with-offset layout: only the
//! bins from the lowest to the highest occupied one are kept, behind an
//! offset. A sketch's memory therefore follows the spread of its data
//! (an FCT class touches a few dozen bins) rather than the full
//! `[1e-9, 1e5]` range, and an empty sketch allocates nothing. The bin
//! index of every value, and so every quantile, is the same as with a
//! dense array of all [`BINS`] bins.

use std::fmt;

/// Relative accuracy of every reported quantile: a returned estimate
/// `e` for a true sample value `v` satisfies `|e − v| ≤ ALPHA · v`.
pub const SKETCH_ALPHA: f64 = 0.01;

/// Smallest distinguishable value (seconds when used for FCTs); inputs
/// at or below this land in the first bin and report it exactly.
const MIN_VALUE: f64 = 1e-9;

/// Largest distinguishable value; inputs above clamp to the last bin.
const MAX_VALUE: f64 = 1e5;

/// The bin index range, fixed so any two sketches merge. With
/// `α = 1%` the ratio `γ ≈ 1.0202` gives `ln(MAX/MIN)/ln γ ≈ 1611`
/// bins. A sketch stores only its occupied bin range, so its bytes are
/// proportional to that range, at most `8 · BINS`.
const BINS: usize = 1616;

/// `ln γ`, pinned bit for bit. Written as `gamma().ln()`, it is folded
/// at compile time with the build host's libm; spelling the bits out
/// keeps every bin boundary independent of where the crate was built.
/// A unit test checks it against the run-time `ln`.
const LN_GAMMA: f64 = f64::from_bits(0x3f94_7b0e_059d_057d);

fn gamma() -> f64 {
    (1.0 + SKETCH_ALPHA) / (1.0 - SKETCH_ALPHA)
}

/// A streaming quantile estimator over positive values with relative
/// error bounded by [`SKETCH_ALPHA`], mergeable across hosts and runs.
///
/// # Examples
///
/// ```
/// use dctcp_stats::QuantileSketch;
///
/// let mut s = QuantileSketch::new();
/// for i in 1..=1000u32 {
///     s.record(i as f64);
/// }
/// let p50 = s.quantile(0.5).unwrap();
/// assert!((p50 - 500.0).abs() / 500.0 <= 0.011);
/// ```
#[derive(Clone, PartialEq)]
pub struct QuantileSketch {
    /// Counts of bins `lo .. lo + counts.len()`. Canonical, so the
    /// derived `PartialEq` compares counts: either empty with `lo = 0`,
    /// or with a non-zero first and last entry.
    counts: Vec<u64>,
    /// Bin index of `counts[0]`.
    lo: usize,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for QuantileSketch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QuantileSketch")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("sum", &self.sum)
            .finish()
    }
}

impl QuantileSketch {
    /// Creates an empty sketch. Allocates nothing: the bin range grows
    /// with the first samples and, once it covers the data's spread,
    /// recording is allocation-free.
    pub fn new() -> Self {
        QuantileSketch {
            counts: Vec::new(),
            lo: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (after clamping to the representable
    /// range).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest recorded sample, `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded samples, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Records one sample. Non-finite inputs are ignored; values outside
    /// `[1e-9, 1e5]` clamp to the edge bins (their min/max is still
    /// tracked exactly).
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let clamped = v.clamp(MIN_VALUE, MAX_VALUE);
        let i = Self::bin_index(clamped);
        // One bounds check covers both sides: below `lo` the index wraps
        // to a huge offset.
        match self.counts.get_mut(i.wrapping_sub(self.lo)) {
            Some(c) => *c += 1,
            None => self.record_outside(i),
        }
        self.count += 1;
        self.sum += clamped;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Counts one sample in bin `i`, which lies outside the stored
    /// range. Out of line, so the common in-range record stays one
    /// compare and one increment.
    #[cold]
    #[inline(never)]
    fn record_outside(&mut self, i: usize) {
        self.widen(i, i);
        self.counts[i - self.lo] += 1;
    }

    /// Widens the stored range to cover bins `lo ..= hi`, the new bins
    /// zero. The caller then adds to the new end bins (one sample, or a
    /// merged canonical range), which keeps the range canonical.
    fn widen(&mut self, lo: usize, hi: usize) {
        if self.counts.is_empty() {
            self.lo = lo;
        } else if lo < self.lo {
            let grow = self.lo - lo;
            self.counts.resize(self.counts.len() + grow, 0);
            self.counts.rotate_right(grow);
            self.lo = lo;
        }
        let len = (hi + 1 - self.lo).max(self.counts.len());
        self.counts.resize(len, 0);
    }

    /// Bin for a value already clamped into `[MIN_VALUE, MAX_VALUE]`:
    /// `ceil(log_γ(v / MIN_VALUE))`, clamped into range so float
    /// round-off at the edges cannot index out of bounds.
    fn bin_index(v: f64) -> usize {
        let i = (v / MIN_VALUE).ln() / LN_GAMMA;
        (i.ceil() as i64).clamp(0, BINS as i64 - 1) as usize
    }

    /// Midpoint estimate for bin `i`, covering
    /// `(MIN_VALUE·γ^(i-1), MIN_VALUE·γ^i]`. The arithmetic midpoint
    /// keeps the relative error of any value in the bin at most
    /// `(γ − 1)/(γ + 1) = α`.
    fn bin_value(i: usize) -> f64 {
        if i == 0 {
            return MIN_VALUE;
        }
        let g = gamma();
        MIN_VALUE * g.powi(i as i32 - 1) * (1.0 + g) / 2.0
    }

    /// The `q`-quantile (nearest-rank), `None` when the sketch is empty
    /// or `q` is outside `[0, 1]`. The estimate is within
    /// [`SKETCH_ALPHA`] relative error of the sample at that rank, and
    /// is additionally clamped into the exact observed `[min, max]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        // Nearest-rank: the smallest sample with cumulative count >= r.
        // Bins outside the stored range are empty, so walking only the
        // range finds the same bin.
        let r = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= r {
                return Some(Self::bin_value(self.lo + k).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merges `other` into `self`: afterwards `self` is exactly the
    /// sketch of both input streams concatenated. Element-wise counter
    /// addition over `other`'s stored range — deterministic and
    /// order-insensitive up to float summation order of `sum`
    /// (quantiles depend only on integer counts).
    pub fn merge(&mut self, other: &QuantileSketch) {
        if !other.counts.is_empty() {
            // Both ranges are canonical, so the union's end bins are
            // non-zero after the addition and it stays canonical.
            self.widen(other.lo, other.lo + other.counts.len() - 1);
            let from = other.lo - self.lo;
            for (a, b) in self.counts[from..].iter_mut().zip(&other.counts) {
                *a += b;
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctcp_rng::Pcg32;

    /// Exact nearest-rank quantile over a sorted slice.
    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let r = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[r - 1]
    }

    fn assert_bounded_error(samples: &mut [f64], qs: &[f64]) {
        let mut sketch = QuantileSketch::new();
        for &v in samples.iter() {
            sketch.record(v);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        for &q in qs {
            let exact = exact_quantile(samples, q);
            let est = sketch.quantile(q).expect("non-empty");
            let rel = (est - exact).abs() / exact;
            assert!(
                rel <= SKETCH_ALPHA + 1e-9,
                "q={q}: est {est} vs exact {exact} (rel {rel})"
            );
        }
    }

    const QS: &[f64] = &[0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0];

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let s = QuantileSketch::new();
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), None);
        assert_eq!(s.mean(), None);
    }

    #[test]
    fn out_of_range_q_rejected() {
        let mut s = QuantileSketch::new();
        s.record(1.0);
        assert_eq!(s.quantile(-0.1), None);
        assert_eq!(s.quantile(1.1), None);
        assert_eq!(s.quantile(f64::NAN), None);
    }

    #[test]
    fn constant_distribution_is_exact() {
        // All mass in one bin; min/max clamping makes every quantile the
        // constant itself, not just within alpha of it.
        let mut s = QuantileSketch::new();
        for _ in 0..10_000 {
            s.record(0.00317);
        }
        for &q in QS {
            assert_eq!(s.quantile(q), Some(0.00317));
        }
        assert_eq!(s.max(), Some(0.00317));
    }

    #[test]
    fn bimodal_distribution_bounded_error() {
        let mut rng = Pcg32::seed_from_u64(7);
        let mut samples: Vec<f64> = (0..40_000)
            .map(|_| {
                if rng.next_f64() < 0.7 {
                    1e-4 * (1.0 + 0.3 * rng.next_f64())
                } else {
                    5.0 * (1.0 + 0.3 * rng.next_f64())
                }
            })
            .collect();
        assert_bounded_error(&mut samples, QS);
    }

    #[test]
    fn pareto_distribution_bounded_error() {
        // Pareto(xm = 1 ms, shape 1.3): the heavy tail spans several
        // decades, exactly the FCT regime the sketch is for.
        let mut rng = Pcg32::seed_from_u64(41);
        let mut samples: Vec<f64> = (0..40_000)
            .map(|_| 1e-3 / (1.0 - rng.next_f64()).powf(1.0 / 1.3))
            .collect();
        assert_bounded_error(&mut samples, QS);
    }

    #[test]
    fn uniform_and_exponential_bounded_error() {
        let mut rng = Pcg32::seed_from_u64(99);
        let mut uniform: Vec<f64> = (0..20_000).map(|_| 1.0 + rng.next_f64()).collect();
        assert_bounded_error(&mut uniform, QS);
        let mut exp: Vec<f64> = (0..20_000)
            .map(|_| -(1.0 - rng.next_f64()).ln() * 2e-3)
            .collect();
        assert_bounded_error(&mut exp, QS);
    }

    #[test]
    fn extremes_clamp_but_min_max_stay_exact() {
        let mut s = QuantileSketch::new();
        s.record(1e-12); // below MIN_VALUE
        s.record(1e7); // above MAX_VALUE
        s.record(f64::NAN); // ignored
        s.record(f64::INFINITY); // ignored
        assert_eq!(s.count(), 2);
        assert_eq!(s.min(), Some(1e-12));
        assert_eq!(s.max(), Some(1e7));
    }

    fn random_sketch(seed: u64, n: usize) -> QuantileSketch {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut s = QuantileSketch::new();
        for _ in 0..n {
            s.record(1e-5 * (1.0 / (1.0 - rng.next_f64())).powf(1.7));
        }
        s
    }

    #[test]
    fn merge_is_commutative() {
        let a = random_sketch(1, 5000);
        let b = random_sketch(2, 7000);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        // Quantile state (integer counts, min, max, count) is identical;
        // `sum` differs only in float addition order.
        assert_eq!((ab.lo, &ab.counts), (ba.lo, &ba.counts));
        assert_eq!(ab.count, ba.count);
        assert_eq!(ab.min, ba.min);
        assert_eq!(ab.max, ba.max);
        for &q in QS {
            assert_eq!(
                ab.quantile(q).map(f64::to_bits),
                ba.quantile(q).map(f64::to_bits)
            );
        }
    }

    #[test]
    fn merge_is_associative() {
        let a = random_sketch(3, 4000);
        let b = random_sketch(4, 4000);
        let c = random_sketch(5, 4000);
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!((ab_c.lo, &ab_c.counts), (a_bc.lo, &a_bc.counts));
        assert_eq!(ab_c.count, a_bc.count);
        for &q in QS {
            assert_eq!(
                ab_c.quantile(q).map(f64::to_bits),
                a_bc.quantile(q).map(f64::to_bits)
            );
        }
    }

    #[test]
    fn merged_sketch_equals_sketch_of_concatenated_stream() {
        let mut rng = Pcg32::seed_from_u64(11);
        let samples: Vec<f64> = (0..9000).map(|_| 1e-4 + rng.next_f64()).collect();
        // Split the stream three ways, round-robin, sketch each part,
        // merge — bit-identical quantiles to the serial sketch.
        let mut serial = QuantileSketch::new();
        for &v in &samples {
            serial.record(v);
        }
        let mut parts = [
            QuantileSketch::new(),
            QuantileSketch::new(),
            QuantileSketch::new(),
        ];
        for (i, &v) in samples.iter().enumerate() {
            parts[i % 3].record(v);
        }
        let mut merged = QuantileSketch::new();
        for s in &parts {
            merged.merge(s);
        }
        assert_eq!((serial.lo, &serial.counts), (merged.lo, &merged.counts));
        for &q in QS {
            assert_eq!(
                serial.quantile(q).map(f64::to_bits),
                merged.quantile(q).map(f64::to_bits)
            );
        }
    }

    #[test]
    fn quantile_tracks_exact_across_sizes() {
        // Small sketches too: n = 1 returns the single sample exactly.
        let mut s = QuantileSketch::new();
        s.record(0.042);
        for &q in QS {
            assert_eq!(s.quantile(q), Some(0.042));
        }
    }

    #[test]
    fn ln_gamma_matches_the_run_time_log() {
        let run_time = std::hint::black_box(gamma()).ln();
        assert_eq!(LN_GAMMA.to_bits(), run_time.to_bits());
    }

    /// The dense layout the offset store replaced: all `BINS` counters
    /// allocated up front, `ln γ` computed in `bin_index`, every
    /// quantile a walk from bin 0. Kept as the oracle that the offset
    /// store changes no bin and no quantile bit.
    struct DenseSketch {
        counts: Vec<u64>,
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
    }

    impl DenseSketch {
        fn new() -> Self {
            DenseSketch {
                counts: vec![0; BINS],
                count: 0,
                sum: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
            }
        }

        fn bin_index(v: f64) -> usize {
            let i = (v / MIN_VALUE).ln() / gamma().ln();
            (i.ceil() as i64).clamp(0, BINS as i64 - 1) as usize
        }

        fn record(&mut self, v: f64) {
            if !v.is_finite() {
                return;
            }
            let clamped = v.clamp(MIN_VALUE, MAX_VALUE);
            self.counts[Self::bin_index(clamped)] += 1;
            self.count += 1;
            self.sum += clamped;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }

        fn quantile(&self, q: f64) -> Option<f64> {
            if self.count == 0 || !(0.0..=1.0).contains(&q) {
                return None;
            }
            let r = ((q * self.count as f64).ceil() as u64).max(1);
            let mut seen = 0u64;
            for (i, &c) in self.counts.iter().enumerate() {
                seen += c;
                if seen >= r {
                    return Some(QuantileSketch::bin_value(i).clamp(self.min, self.max));
                }
            }
            Some(self.max)
        }
    }

    /// A seeded stream over the whole representable range and past
    /// both ends: log-uniform over `[1e-12, 1e7]`, plus FCT-like
    /// values, plus non-finite inputs that must be ignored.
    fn oracle_stream(seed: u64, n: usize) -> Vec<f64> {
        let mut rng = Pcg32::seed_from_u64(seed);
        (0..n)
            .map(|_| match rng.next_u32() % 16 {
                0 => 1e-12,
                1 => 1e7,
                2 => f64::NAN,
                3..=7 => 10f64.powf(-12.0 + 19.0 * rng.next_f64()),
                _ => 1e-4 / (1.0 - rng.next_f64()).powf(0.8),
            })
            .collect()
    }

    const ORACLE_QS: &[f64] = &[
        0.0, 1e-4, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 0.9999, 1.0,
    ];

    fn assert_matches_dense(s: &QuantileSketch, d: &DenseSketch) {
        for (i, &dense) in d.counts.iter().enumerate() {
            let stored = s.counts.get(i.wrapping_sub(s.lo)).copied().unwrap_or(0);
            assert_eq!(stored, dense, "bin {i}");
        }
        assert_eq!(s.count, d.count);
        assert_eq!(s.sum.to_bits(), d.sum.to_bits());
        assert_eq!(s.min.to_bits(), d.min.to_bits());
        assert_eq!(s.max.to_bits(), d.max.to_bits());
        for &q in ORACLE_QS {
            assert_eq!(
                s.quantile(q).map(f64::to_bits),
                d.quantile(q).map(f64::to_bits),
                "q = {q}"
            );
        }
    }

    #[test]
    fn offset_store_matches_the_dense_oracle() {
        let top = QuantileSketch::bin_index(MAX_VALUE);
        for seed in 1..=6 {
            let mut s = QuantileSketch::new();
            let mut d = DenseSketch::new();
            assert_matches_dense(&s, &d);
            for (k, v) in oracle_stream(seed, 20_000).into_iter().enumerate() {
                s.record(v);
                d.record(v);
                if k % 4_999 == 0 {
                    assert_matches_dense(&s, &d);
                }
            }
            // Both clamped edges were hit: bin 0 and the highest bin a
            // clamped value can reach.
            assert!(d.counts[0] > 0 && d.counts[top] > 0, "seed {seed}");
            assert_matches_dense(&s, &d);
            // Canonical: the stored range is exactly the occupied one.
            assert!(s.counts[0] > 0 && *s.counts.last().unwrap() > 0);
        }
    }

    /// `a == b` apart from `sum`, which depends on float addition order
    /// and is checked to agree within round-off instead.
    fn assert_same_counts(a: &QuantileSketch, b: &QuantileSketch) {
        assert!(
            (a.sum - b.sum).abs() <= 1e-9 * b.sum.abs(),
            "{} vs {}",
            a.sum,
            b.sum
        );
        let aligned = QuantileSketch {
            sum: b.sum,
            ..a.clone()
        };
        assert_eq!(&aligned, b, "lo {} / {}", a.lo, b.lo);
    }

    #[test]
    fn random_merges_equal_the_sketch_of_the_whole_stream() {
        for seed in 1..=8u64 {
            let mut rng = Pcg32::seed_from_u64(100 + seed);
            let stream = oracle_stream(seed, 6_000);
            let mut whole = QuantileSketch::new();
            for &v in &stream {
                whole.record(v);
            }
            // Random split into up to 6 parts (some may stay empty),
            // merged in a random order.
            let parts_n = 1 + rng.next_u32() as usize % 6;
            let mut parts = vec![QuantileSketch::new(); parts_n];
            for &v in &stream {
                parts[rng.next_u32() as usize % parts_n].record(v);
            }
            let mut order: Vec<usize> = (0..parts_n).collect();
            for i in (1..parts_n).rev() {
                order.swap(i, rng.next_u32() as usize % (i + 1));
            }
            let mut merged = QuantileSketch::new();
            for &p in &order {
                merged.merge(&parts[p]);
            }
            assert_same_counts(&merged, &whole);
            // Merging an empty sketch, or into one, changes nothing.
            merged.merge(&QuantileSketch::new());
            assert_same_counts(&merged, &whole);
            let mut from_empty = QuantileSketch::new();
            from_empty.merge(&whole);
            assert_eq!(from_empty, whole);
        }
    }

    #[test]
    fn new_sketch_allocates_nothing() {
        let s = QuantileSketch::new();
        assert_eq!(s.counts.capacity(), 0);
        assert_eq!(s, QuantileSketch::default());
    }
}
