//! Oscillation metrics extracted from fluid trajectories.

use dctcp_stats::TimeSeries;

/// Amplitude and period of a (quasi-)periodic signal, estimated from its
/// mean crossings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OscillationMetrics {
    /// Signal mean over the window.
    pub mean: f64,
    /// Half the peak-to-peak excursion.
    pub amplitude: f64,
    /// Standard deviation over the window.
    pub std: f64,
    /// Estimated oscillation period in seconds (`None` when fewer than
    /// two upward mean-crossings exist).
    pub period: Option<f64>,
}

/// Estimates oscillation metrics of `series` (e.g. the fluid queue) over
/// its whole extent; window it first to drop transients.
pub fn oscillation_metrics(series: &TimeSeries) -> OscillationMetrics {
    let s = series.summary();
    let mean = s.mean;
    let amplitude = (s.max - s.min) / 2.0;

    // Upward mean-crossings; the period is the mean span between
    // consecutive ones, summed in crossing order.
    let mut last_crossing: Option<f64> = None;
    let (mut span_sum, mut spans) = (0.0, 0u64);
    let mut prev: Option<(f64, f64)> = None;
    for (t, v) in series.iter() {
        if let Some((pt, pv)) = prev {
            if pv < mean && v >= mean {
                // Linear interpolation of the crossing instant.
                let frac = if (v - pv).abs() > 0.0 {
                    (mean - pv) / (v - pv)
                } else {
                    0.0
                };
                let crossing = pt + frac * (t - pt);
                if let Some(last) = last_crossing {
                    span_sum += crossing - last;
                    spans += 1;
                }
                last_crossing = Some(crossing);
            }
        }
        prev = Some((t, v));
    }
    let period = (spans > 0).then(|| span_sum / spans as f64);

    OscillationMetrics {
        mean,
        amplitude,
        std: s.std,
        period,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sine_wave_metrics() {
        let freq = 5.0; // Hz
        let ts: TimeSeries = (0..10_000)
            .map(|i| {
                let t = i as f64 * 1e-3;
                (
                    t,
                    10.0 + 3.0 * (2.0 * std::f64::consts::PI * freq * t).sin(),
                )
            })
            .collect();
        let m = oscillation_metrics(&ts);
        assert!((m.mean - 10.0).abs() < 0.01);
        assert!((m.amplitude - 3.0).abs() < 0.01);
        let p = m.period.expect("periodic signal");
        assert!((p - 0.2).abs() < 1e-3, "period {p}");
        // std of a sine = amplitude / sqrt(2).
        assert!((m.std - 3.0 / 2f64.sqrt()).abs() < 0.01);
    }

    #[test]
    fn constant_signal_has_no_period() {
        let ts: TimeSeries = (0..100).map(|i| (i as f64, 7.0)).collect();
        let m = oscillation_metrics(&ts);
        assert_eq!(m.amplitude, 0.0);
        assert_eq!(m.period, None);
        assert_eq!(m.mean, 7.0);
    }

    #[test]
    fn single_cycle_has_no_period_estimate() {
        // Only one upward crossing: cannot estimate a period.
        let ts: TimeSeries = (0..100)
            .map(|i| {
                let t = i as f64 / 100.0;
                (t, (2.0 * std::f64::consts::PI * t * 0.9).sin())
            })
            .collect();
        let m = oscillation_metrics(&ts);
        assert!(m.period.is_none());
    }
}
