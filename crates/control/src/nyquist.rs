//! Nyquist loci, intersections, and limit-cycle prediction.

use crate::{Complex, DescribingFunction, PlantParams};

/// One sampled point of a locus, tagged with its parameter (`ω` for the
/// plant, `X` for a describing function).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocusPoint {
    /// The sweep parameter that produced this point.
    pub param: f64,
    /// The point in the complex plane.
    pub z: Complex,
}

/// A polyline in the complex plane traced by sweeping a parameter.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Locus {
    points: Vec<LocusPoint>,
}

impl Locus {
    /// The sampled points.
    pub fn points(&self) -> &[LocusPoint] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the locus is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Renders the locus as CSV (`param,re,im` rows) for external
    /// plotting of Nyquist diagrams.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("param,re,im\n");
        for p in &self.points {
            out.push_str(&format!("{},{},{}\n", p.param, p.z.re, p.z.im));
        }
        out
    }
}

/// Samples the scaled plant locus `K0·G(jω)` over a logarithmic
/// frequency grid `[w_min, w_max]`.
///
/// # Panics
///
/// Panics if the range is not positive-increasing or `n < 2`.
pub fn plant_locus(plant: &PlantParams, k0: f64, w_min: f64, w_max: f64, n: usize) -> Locus {
    assert!(w_min > 0.0 && w_max > w_min && n >= 2, "bad frequency grid");
    let ratio = (w_max / w_min).ln();
    let points = (0..n)
        .map(|i| {
            let w = w_min * (ratio * i as f64 / (n - 1) as f64).exp();
            LocusPoint {
                param: w,
                z: plant.g_of_jw(w) * k0,
            }
        })
        .collect();
    Locus { points }
}

/// Samples the locus `−1/N0(X)` for `X` from the DF's minimum amplitude
/// up to `max_factor` times it, on a logarithmic grid.
///
/// # Panics
///
/// Panics if `max_factor <= 1` or `n < 2`.
pub fn df_locus(df: &dyn DescribingFunction, max_factor: f64, n: usize) -> Locus {
    assert!(max_factor > 1.0 && n >= 2, "bad amplitude grid");
    let x0 = df.min_amplitude();
    let ratio = max_factor.ln();
    let points = (0..n)
        .filter_map(|i| {
            let x = x0 * (ratio * i as f64 / (n - 1) as f64).exp();
            let z = df.neg_recip_relative(x)?;
            z.is_finite().then_some(LocusPoint { param: x, z })
        })
        .collect();
    Locus { points }
}

/// A solution of the characteristic equation `K0·G(jω) = −1/N0(X)`
/// (Eq. 19 / 24): a predicted limit cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Intersection {
    /// Where the loci cross.
    pub point: Complex,
    /// Oscillation angular frequency `ω` (rad/s).
    pub frequency: f64,
    /// Oscillation amplitude `X` (queue packets).
    pub amplitude: f64,
}

fn cross(a: Complex, b: Complex) -> f64 {
    a.re * b.im - a.im * b.re
}

/// Finds all crossings between two polylines, interpolating each locus's
/// parameter linearly within the crossing segments.
///
/// Runs in `O(n + k·m)` where `k` is the number of plant segments whose
/// bounding box overlaps the DF locus's bounding box — the DF locus hugs
/// the negative real axis, so almost all plant segments are rejected by
/// the box test.
pub fn intersections(plant: &Locus, df: &Locus) -> Vec<Intersection> {
    let mut found = Vec::new();
    if df.points.len() < 2 || plant.points.len() < 2 {
        return found;
    }
    // Bounding box of the DF locus, padded slightly.
    let (mut lo_re, mut hi_re) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut lo_im, mut hi_im) = (f64::INFINITY, f64::NEG_INFINITY);
    for p in &df.points {
        lo_re = lo_re.min(p.z.re);
        hi_re = hi_re.max(p.z.re);
        lo_im = lo_im.min(p.z.im);
        hi_im = hi_im.max(p.z.im);
    }
    let pad = 1e-9 + 1e-6 * (hi_re - lo_re).abs().max((hi_im - lo_im).abs());
    lo_re -= pad;
    hi_re += pad;
    lo_im -= pad;
    hi_im += pad;

    for pw in plant.points.windows(2) {
        let (p1, p2) = (pw[0], pw[1]);
        // Box rejection against the whole DF locus.
        if p1.z.re.max(p2.z.re) < lo_re
            || p1.z.re.min(p2.z.re) > hi_re
            || p1.z.im.max(p2.z.im) < lo_im
            || p1.z.im.min(p2.z.im) > hi_im
        {
            continue;
        }
        let d1 = p2.z - p1.z;
        for qw in df.points.windows(2) {
            let (q1, q2) = (qw[0], qw[1]);
            let d2 = q2.z - q1.z;
            let denom = cross(d1, d2);
            if denom.abs() < 1e-30 {
                continue;
            }
            let s = q1.z - p1.z;
            let t = cross(s, d2) / denom;
            let u = cross(s, d1) / denom;
            if (0.0..=1.0).contains(&t) && (0.0..=1.0).contains(&u) {
                found.push(Intersection {
                    point: p1.z + d1 * t,
                    frequency: p1.param + (p2.param - p1.param) * t,
                    amplitude: q1.param + (q2.param - q1.param) * u,
                });
            }
        }
    }
    found
}

/// Result of a stability analysis per Theorem 1/2.
#[derive(Debug, Clone, PartialEq)]
pub struct StabilityReport {
    /// Whether the loci are disjoint (no predicted self-oscillation).
    pub stable: bool,
    /// All characteristic-equation solutions found.
    pub intersections: Vec<Intersection>,
    /// The predicted *stable* limit cycle (the largest-amplitude
    /// solution), when oscillation is predicted.
    pub limit_cycle: Option<Intersection>,
}

/// Sampling resolution for [`analyze`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisGrid {
    /// Lowest angular frequency sampled.
    pub w_min: f64,
    /// Highest angular frequency sampled.
    pub w_max: f64,
    /// Plant locus samples.
    pub w_points: usize,
    /// Amplitude sweep extends to `min_amplitude * x_max_factor`.
    pub x_max_factor: f64,
    /// DF locus samples.
    pub x_points: usize,
}

impl Default for AnalysisGrid {
    fn default() -> Self {
        AnalysisGrid {
            w_min: 1e2,
            w_max: 1e7,
            w_points: 4000,
            x_max_factor: 200.0,
            x_points: 2000,
        }
    }
}

/// Applies the paper's stability criterion: intersect `K0·G(jω)` with
/// `−1/N0(X)` and report predicted limit cycles.
pub fn analyze(
    plant: &PlantParams,
    df: &dyn DescribingFunction,
    grid: &AnalysisGrid,
) -> StabilityReport {
    let gl = plant_locus(plant, df.k0(), grid.w_min, grid.w_max, grid.w_points);
    let dl = df_locus(df, grid.x_max_factor, grid.x_points);
    let mut xs = intersections(&gl, &dl);
    xs.sort_by(|a, b| a.amplitude.partial_cmp(&b.amplitude).expect("finite"));
    let limit_cycle = xs.last().copied();
    StabilityReport {
        stable: xs.is_empty(),
        intersections: xs,
        limit_cycle,
    }
}

/// The loop-gain multiplier at which the scaled plant locus first
/// touches the DF locus: the system's *gain margin relative to the
/// describing-function critical locus*.
///
/// A value above `plant.gain` means the loci are disjoint at the current
/// gain (no predicted oscillation); at or below means they intersect.
/// Returns `None` when no finite multiplier up to `10^6` produces an
/// intersection.
///
/// Found by bisection on the multiplier (the locus scales radially from
/// the origin, so "intersects" is monotone in the gain for loci that
/// extend to infinity along a ray, as both DF loci here do).
pub fn critical_gain(
    plant: &PlantParams,
    df: &dyn DescribingFunction,
    grid: &AnalysisGrid,
) -> Option<f64> {
    let dl = df_locus(df, grid.x_max_factor, grid.x_points);
    let hits = |gain: f64| -> bool {
        let scaled = plant.with_gain(gain);
        let gl = plant_locus(&scaled, df.k0(), grid.w_min, grid.w_max, grid.w_points);
        !intersections(&gl, &dl).is_empty()
    };
    let (mut lo, mut hi) = (1e-6, 1e6);
    if !hits(hi) {
        return None;
    }
    if hits(lo) {
        return Some(lo);
    }
    for _ in 0..60 {
        let mid = (lo * hi).sqrt();
        if hits(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// Sweeps the flow count and returns the smallest `N` at which the
/// describing-function analysis predicts oscillation, or `None` if the
/// system stays stable over the whole range.
pub fn oscillation_onset(
    base: &PlantParams,
    df: &dyn DescribingFunction,
    n_values: impl IntoIterator<Item = u32>,
    grid: &AnalysisGrid,
) -> Option<u32> {
    for n in n_values {
        let plant = PlantParams {
            flows: n as f64,
            ..*base
        };
        if !analyze(&plant, df, grid).stable {
            return Some(n);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HysteresisDf, RelayDf, FIG9_CALIBRATED_GAIN};

    fn paper_plant(n: f64) -> PlantParams {
        PlantParams::paper_defaults(n)
    }

    #[test]
    fn locus_sampling_is_monotone_in_param() {
        let l = plant_locus(&paper_plant(40.0), 1.0 / 40.0, 1e2, 1e6, 100);
        assert_eq!(l.len(), 100);
        for w in l.points().windows(2) {
            assert!(w[1].param > w[0].param);
        }
    }

    #[test]
    fn locus_csv_has_one_row_per_point() {
        let df = RelayDf::new(40.0).unwrap();
        let l = df_locus(&df, 10.0, 20);
        let csv = l.to_csv();
        assert_eq!(csv.lines().count(), l.len() + 1);
        assert!(csv.starts_with("param,re,im"));
    }

    #[test]
    fn df_locus_skips_invalid_amplitudes() {
        let df = RelayDf::new(40.0).unwrap();
        let l = df_locus(&df, 10.0, 50);
        assert!(!l.is_empty());
        for p in l.points() {
            assert!(p.param >= 40.0);
            assert!(p.z.re < 0.0, "-1/N0 lies on the negative real side");
        }
    }

    #[test]
    fn segment_intersection_finds_crossing() {
        // Two hand-made loci crossing at the origin.
        let a = Locus {
            points: vec![
                LocusPoint {
                    param: 0.0,
                    z: Complex::new(-1.0, -1.0),
                },
                LocusPoint {
                    param: 1.0,
                    z: Complex::new(1.0, 1.0),
                },
            ],
        };
        let b = Locus {
            points: vec![
                LocusPoint {
                    param: 10.0,
                    z: Complex::new(-1.0, 1.0),
                },
                LocusPoint {
                    param: 20.0,
                    z: Complex::new(1.0, -1.0),
                },
            ],
        };
        let xs = intersections(&a, &b);
        assert_eq!(xs.len(), 1);
        assert!(xs[0].point.norm() < 1e-12);
        assert!((xs[0].frequency - 0.5).abs() < 1e-12);
        assert!((xs[0].amplitude - 15.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_segments_do_not_intersect() {
        let a = Locus {
            points: vec![
                LocusPoint {
                    param: 0.0,
                    z: Complex::new(0.0, 0.0),
                },
                LocusPoint {
                    param: 1.0,
                    z: Complex::new(1.0, 0.0),
                },
            ],
        };
        let b = Locus {
            points: vec![
                LocusPoint {
                    param: 0.0,
                    z: Complex::new(0.0, 1.0),
                },
                LocusPoint {
                    param: 1.0,
                    z: Complex::new(1.0, 1.0),
                },
            ],
        };
        assert!(intersections(&a, &b).is_empty());
    }

    fn test_grid() -> AnalysisGrid {
        AnalysisGrid {
            w_points: 1500,
            x_points: 600,
            ..AnalysisGrid::default()
        }
    }

    #[test]
    fn few_flows_are_stable_many_oscillate() {
        let df = RelayDf::new(40.0).unwrap();
        let grid = test_grid();
        let small = analyze(
            &paper_plant(10.0).with_gain(FIG9_CALIBRATED_GAIN),
            &df,
            &grid,
        );
        assert!(small.stable, "N=10 should be stable for DCTCP");
        let large = analyze(
            &paper_plant(60.0).with_gain(FIG9_CALIBRATED_GAIN),
            &df,
            &grid,
        );
        assert!(!large.stable, "N=60 should oscillate for DCTCP");
        let lc = large.limit_cycle.expect("limit cycle predicted");
        assert!(lc.amplitude > 40.0, "amplitude {} above K", lc.amplitude);
        assert!(lc.frequency > 0.0);
    }

    #[test]
    fn printed_gain_never_reaches_the_critical_locus() {
        // With Eq. (17) verbatim the DCTCP loci stay disjoint for every
        // flow count; the gap is smallest near N ≈ 55 where the critical
        // gain dips to ≈ 5.4 (this motivates FIG9_CALIBRATED_GAIN).
        let df = RelayDf::new(40.0).unwrap();
        let grid = test_grid();
        assert!(analyze(&paper_plant(55.0), &df, &grid).stable);
        let cg = critical_gain(&paper_plant(55.0), &df, &grid).expect("finite critical gain");
        assert!(
            cg > 5.0 && cg < 6.0,
            "critical gain {cg} out of expected band"
        );
    }

    #[test]
    fn critical_gain_is_smallest_near_the_paper_onset() {
        let df = RelayDf::new(40.0).unwrap();
        let grid = test_grid();
        let cg = |n: f64| critical_gain(&paper_plant(n), &df, &grid).unwrap();
        let at_10 = cg(10.0);
        let at_55 = cg(55.0);
        let at_150 = cg(150.0);
        assert!(at_55 < at_10, "{at_55} !< {at_10}");
        assert!(at_55 < at_150, "{at_55} !< {at_150}");
    }

    #[test]
    fn dt_dctcp_onset_is_later_than_dctcp() {
        // The paper's headline analysis (Fig. 9): with K=40 vs
        // (K1, K2) = (30, 50), the DT-DCTCP loci intersect only at a
        // larger flow count than DCTCP's (60 vs 70 in the paper).
        let relay = RelayDf::new(40.0).unwrap();
        let hyst = HysteresisDf::new(30.0, 50.0).unwrap();
        let grid = test_grid();
        let base = paper_plant(1.0).with_gain(FIG9_CALIBRATED_GAIN);
        let on_dc = oscillation_onset(&base, &relay, (5..=150).step_by(5), &grid)
            .expect("DCTCP must eventually oscillate");
        let on_dt = oscillation_onset(&base, &hyst, (5..=150).step_by(5), &grid)
            .expect("DT-DCTCP must eventually oscillate");
        assert!(
            on_dt > on_dc,
            "DT onset {on_dt} should exceed DCTCP onset {on_dc}"
        );
    }

    #[test]
    fn dt_margin_always_exceeds_dctcp_margin() {
        // Scale-free version of Theorem 1 vs Theorem 2: at every flow
        // count the hysteresis needs strictly more loop gain to
        // oscillate than the relay.
        let relay = RelayDf::new(40.0).unwrap();
        let hyst = HysteresisDf::new(30.0, 50.0).unwrap();
        let grid = test_grid();
        for n in [10.0, 30.0, 55.0, 80.0, 120.0] {
            let m_dc = critical_gain(&paper_plant(n), &relay, &grid).unwrap();
            let m_dt = critical_gain(&paper_plant(n), &hyst, &grid).unwrap();
            assert!(
                m_dt > m_dc,
                "N={n}: DT margin {m_dt} should exceed DCTCP margin {m_dc}"
            );
        }
    }

    #[test]
    fn wider_hysteresis_is_more_stable() {
        let grid = test_grid();
        let base = paper_plant(55.0);
        let narrow = HysteresisDf::new(38.0, 42.0).unwrap();
        let wide = HysteresisDf::new(25.0, 55.0).unwrap();
        let m_narrow = critical_gain(&base, &narrow, &grid).unwrap();
        let m_wide = critical_gain(&base, &wide, &grid).unwrap();
        assert!(
            m_wide > m_narrow,
            "wider hysteresis should have a larger margin: {m_wide} vs {m_narrow}"
        );
    }
}
