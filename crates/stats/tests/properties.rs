//! Seeded randomized tests of the statistics estimators against naive
//! reference implementations.

use dctcp_rng::Pcg32;
use dctcp_stats::{Quantiles, TimeSeries, TimeWeighted, Welford};

fn naive_mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn naive_pop_var(xs: &[f64]) -> f64 {
    let m = naive_mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

fn vec_f64(rng: &mut Pcg32, lo: f64, hi: f64, min_len: usize, max_len: usize) -> Vec<f64> {
    let n = rng.range_usize(min_len, max_len);
    (0..n).map(|_| rng.range_f64(lo, hi)).collect()
}

#[test]
fn welford_matches_naive() {
    let mut rng = Pcg32::seed_from_u64(0x57A7_0001);
    for _ in 0..256 {
        let xs = vec_f64(&mut rng, -1e6, 1e6, 1, 199);
        let w: Welford = xs.iter().copied().collect();
        let scale = xs.iter().fold(1.0f64, |a, x| a.max(x.abs()));
        assert!((w.mean() - naive_mean(&xs)).abs() <= 1e-9 * scale.max(1.0));
        assert!(
            (w.population_variance() - naive_pop_var(&xs)).abs() <= 1e-6 * scale * scale.max(1.0)
        );
        assert_eq!(w.count(), xs.len() as u64);
    }
}

#[test]
fn welford_merge_is_order_independent() {
    let mut rng = Pcg32::seed_from_u64(0x57A7_0002);
    for _ in 0..256 {
        let xs = vec_f64(&mut rng, -1e3, 1e3, 1, 99);
        let split = rng.range_usize(0, 99).min(xs.len());
        let mut left: Welford = xs[..split].iter().copied().collect();
        let right: Welford = xs[split..].iter().copied().collect();
        left.merge(&right);
        let whole: Welford = xs.iter().copied().collect();
        assert!((left.mean() - whole.mean()).abs() < 1e-8);
        assert!((left.population_variance() - whole.population_variance()).abs() < 1e-6);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }
}

#[test]
fn time_weighted_equals_riemann_sum() {
    let mut rng = Pcg32::seed_from_u64(0x57A7_0003);
    for _ in 0..256 {
        let values = vec_f64(&mut rng, 0.0, 1e4, 1, 99);
        // Unit-width steps: the time-weighted mean equals the plain mean.
        let mut tw = TimeWeighted::with_initial(0.0, values[0]);
        for (i, &v) in values.iter().enumerate().skip(1) {
            tw.update(i as f64, v);
        }
        let s = tw.finish(values.len() as f64);
        assert!((s.mean - naive_mean(&values)).abs() < 1e-6);
        assert!((s.variance - naive_pop_var(&values)).abs() < 1e-3 * (1.0 + s.mean * s.mean));
    }
}

#[test]
fn time_weighted_is_invariant_to_redundant_updates() {
    let mut rng = Pcg32::seed_from_u64(0x57A7_0004);
    for _ in 0..256 {
        let values = vec_f64(&mut rng, 0.0, 100.0, 2, 49);
        // Re-announcing the same value must not change the statistics.
        let mut a = TimeWeighted::with_initial(0.0, values[0]);
        let mut b = TimeWeighted::with_initial(0.0, values[0]);
        for (i, &v) in values.iter().enumerate().skip(1) {
            a.update(i as f64, v);
            b.update(i as f64 - 0.5, b.value()); // redundant
            b.update(i as f64, v);
        }
        let end = values.len() as f64;
        let (sa, sb) = (a.finish(end), b.finish(end));
        assert!((sa.mean - sb.mean).abs() < 1e-9);
        assert!((sa.variance - sb.variance).abs() < 1e-9);
    }
}

#[test]
fn quantiles_are_monotone_and_bounded() {
    let mut rng = Pcg32::seed_from_u64(0x57A7_0005);
    for _ in 0..256 {
        let xs = vec_f64(&mut rng, -1e5, 1e5, 1, 299);
        let n_qs = rng.range_usize(1, 9);
        let qs: Vec<f64> = (0..n_qs).map(|_| rng.next_f64()).collect();
        let mut q: Quantiles = xs.iter().copied().collect();
        let lo = q.min().unwrap();
        let hi = q.max().unwrap();
        let mut sorted_qs = qs.clone();
        sorted_qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = f64::NEG_INFINITY;
        for &p in &sorted_qs {
            let v = q.quantile(p).unwrap();
            assert!(
                v >= lo - 1e-9 && v <= hi + 1e-9,
                "quantile {p} = {v} outside [{lo}, {hi}]"
            );
            assert!(v >= prev - 1e-9, "quantiles must be monotone");
            prev = v;
        }
    }
}

/// Reference quantile: sort a copy, interpolate between order statistics.
fn naive_quantile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    v[lo] * (1.0 - frac) + v[hi] * frac
}

#[test]
fn quantiles_match_exact_sorted_slice() {
    let mut rng = Pcg32::seed_from_u64(0x57A7_0009);
    for _ in 0..256 {
        let xs = vec_f64(&mut rng, -1e5, 1e5, 1, 299);
        let mut q: Quantiles = xs.iter().copied().collect();
        let scale = xs.iter().fold(1.0f64, |a, x| a.max(x.abs()));
        for _ in 0..8 {
            let p = rng.next_f64();
            let got = q.quantile(p).unwrap();
            let want = naive_quantile(&xs, p);
            assert!(
                (got - want).abs() <= 1e-9 * scale,
                "quantile {p}: estimator {got} vs exact {want}"
            );
        }
    }
}

#[test]
fn quantiles_are_insertion_order_invariant() {
    // Samples arriving out of order (late completions, interleaved
    // flows) must not change any order statistic.
    let mut rng = Pcg32::seed_from_u64(0x57A7_000A);
    for _ in 0..128 {
        let xs = vec_f64(&mut rng, -1e3, 1e3, 2, 99);
        let mut shuffled = xs.clone();
        // Fisher–Yates with the in-repo RNG.
        for i in (1..shuffled.len()).rev() {
            let j = rng.range_usize(0, i);
            shuffled.swap(i, j);
        }
        let mut a: Quantiles = xs.iter().copied().collect();
        let mut b: Quantiles = shuffled.into_iter().collect();
        for p in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(p), b.quantile(p));
        }
    }
}

#[test]
fn welford_merge_is_associative() {
    let mut rng = Pcg32::seed_from_u64(0x57A7_000B);
    for _ in 0..256 {
        let xs = vec_f64(&mut rng, -1e4, 1e4, 3, 149);
        let i = rng.range_usize(1, xs.len() - 1);
        let j = rng.range_usize(i, xs.len());
        let parts: [Welford; 3] = [
            xs[..i].iter().copied().collect(),
            xs[i..j].iter().copied().collect(),
            xs[j..].iter().copied().collect(),
        ];
        // (a ⊕ b) ⊕ c
        let mut left = parts[0];
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        // a ⊕ (b ⊕ c)
        let mut bc = parts[1];
        bc.merge(&parts[2]);
        let mut right = parts[0];
        right.merge(&bc);
        assert_eq!(left.count(), right.count());
        assert!((left.mean() - right.mean()).abs() < 1e-8);
        assert!((left.population_variance() - right.population_variance()).abs() < 1e-5);
        assert_eq!(left.min(), right.min());
        assert_eq!(left.max(), right.max());
    }
}

#[test]
fn time_weighted_zero_duration_window_reports_current_value() {
    // A window that closes the instant it opens has no integrable mass;
    // the summary must fall back to the held value with zero variance
    // instead of dividing by zero.
    let mut rng = Pcg32::seed_from_u64(0x57A7_000C);
    for _ in 0..128 {
        let start = rng.range_f64(-1e3, 1e3);
        let v0 = rng.range_f64(-50.0, 50.0);
        let v1 = rng.range_f64(-50.0, 50.0);
        let mut tw = TimeWeighted::with_initial(start, v0);
        // Same-instant updates are legal and carry no weight.
        tw.update(start, v1);
        let s = tw.finish(start);
        assert_eq!(s.duration, 0.0);
        assert_eq!(s.mean, v1);
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.min, v0.min(v1));
        assert_eq!(s.max, v0.max(v1));
    }
}

#[test]
#[should_panic(expected = "time went backwards")]
fn time_weighted_rejects_out_of_order_samples() {
    let mut tw = TimeWeighted::new(0.0);
    tw.update(2.0, 1.0);
    tw.update(1.0, 2.0); // out of order: must panic, not corrupt the integral
}

#[test]
#[should_panic(expected = "precedes last update")]
fn time_weighted_rejects_finish_before_last_update() {
    let mut tw = TimeWeighted::new(0.0);
    tw.update(5.0, 1.0);
    let _ = tw.finish(4.0);
}

#[test]
fn series_window_is_a_subsequence() {
    let mut rng = Pcg32::seed_from_u64(0x57A7_0007);
    for _ in 0..256 {
        let n = rng.range_usize(0, 99);
        let pts: Vec<(u32, f64)> = (0..n)
            .map(|_| (rng.range_u64(0, 999) as u32, rng.range_f64(-10.0, 10.0)))
            .collect();
        let from = rng.range_u64(0, 999) as u32;
        let len = rng.range_u64(0, 999) as u32;
        let mut sorted = pts.clone();
        sorted.sort_by_key(|p| p.0);
        let ts: TimeSeries = sorted.iter().map(|&(t, v)| (t as f64, v)).collect();
        let to = from.saturating_add(len);
        let w = ts.window(from as f64, to as f64);
        assert!(w.len() <= ts.len());
        for (t, _) in w.iter() {
            assert!(t >= from as f64 && t <= to as f64);
        }
        // Count check against a naive filter.
        let expected = sorted
            .iter()
            .filter(|&&(t, _)| t >= from && t <= to)
            .count();
        assert_eq!(w.len(), expected);
    }
}

#[test]
fn resample_preserves_value_range() {
    let mut rng = Pcg32::seed_from_u64(0x57A7_0008);
    for _ in 0..256 {
        let values = vec_f64(&mut rng, 0.0, 100.0, 2, 49);
        let dt = rng.range_u64(1, 19) as u32;
        let ts: TimeSeries = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as f64, v))
            .collect();
        let r = ts.resample(dt as f64 / 4.0);
        assert!(!r.is_empty());
        let s = ts.summary();
        for (_, v) in r.iter() {
            assert!(v >= s.min - 1e-12 && v <= s.max + 1e-12);
        }
    }
}
