//! Flow-count sweep driver over the DDE model.
//!
//! Evaluates the delay-differential model at a grid of flow counts —
//! `N = 10¹ … 10⁶` is milliseconds per point in release builds (50 k
//! RK4 steps at the benchmark's `dt = 1 µs` over 50 ms) — and
//! reduces each trajectory to the scalar metrics the paper's figures
//! plot: oscillation amplitude and frequency, mean queue, and the
//! utilization threshold. These are the numbers the `kind = fluid`
//! scenario surface feeds through the envelope machinery, and the
//! cross-validation gate compares against packet-level anchors.

use dctcp_core::ParamError;
use dctcp_stats::{TimeSeries, Welford};

use crate::kernel::{integrate, Model};
use crate::metrics::oscillation_metrics;
use crate::model::FluidParams;

/// Integration window for one sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FluidRunConfig {
    /// Integrator step in seconds.
    pub dt: f64,
    /// Total integrated time in seconds.
    pub duration: f64,
    /// Leading transient excluded from all metrics, in seconds.
    pub transient: f64,
    /// Record every `sample_every`-th step (metric resolution).
    pub sample_every: usize,
}

impl FluidRunConfig {
    /// Validates the window: positive step, transient inside duration.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] for non-positive times, `transient >=
    /// duration`, or a zero sampling stride.
    pub fn validate(&self) -> Result<(), ParamError> {
        if !(self.dt > 0.0 && self.duration > 0.0) {
            return Err(ParamError::new("dt and duration must be positive"));
        }
        if !(self.transient >= 0.0 && self.transient < self.duration) {
            return Err(ParamError::new("transient must be in [0, duration)"));
        }
        if self.sample_every == 0 {
            return Err(ParamError::new("sample_every must be at least 1"));
        }
        Ok(())
    }
}

/// Scalar metrics of one `(params, flows)` operating point, measured
/// over the post-transient window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Flow count this point was evaluated at.
    pub flows: f64,
    /// Mean queue in packets.
    pub queue_mean: f64,
    /// Queue standard deviation in packets.
    pub queue_std: f64,
    /// Maximum queue in packets.
    pub queue_max: f64,
    /// Half the peak-to-peak queue excursion, in packets.
    pub osc_amplitude: f64,
    /// Limit-cycle frequency in Hz (`0` when no cycle is detected).
    pub osc_freq_hz: f64,
    /// Limit-cycle count over the measurement window (`0` when no cycle
    /// is detected); directly comparable to the packet engine's
    /// `osc_cycles` when the windows match.
    pub osc_cycles: f64,
    /// Mean per-flow window in packets.
    pub w_mean: f64,
    /// Mean marked-fraction estimate.
    pub alpha_mean: f64,
    /// Time-averaged marking input `σ` (duty cycle of the marking law).
    pub marking_duty: f64,
    /// Served fraction of capacity over the window, in `[0, 1]`.
    pub utilization: f64,
}

/// Operating points [`sweep`] integrates per pass of the DDE kernel.
///
/// One RK4 step is a chain of dependent divides through `R = R0 + q/C`,
/// so a single trajectory leaves the divider idle between them; lanes
/// are independent trajectories that fill those gaps. Measured on the
/// benchmark's `fluid_sweep` grid: one lane 1.40 s, two 0.72 s, four
/// 0.43 s, eight 0.38 s. Four takes most of the gain; eight adds ~10 %
/// for twice the per-pass state and up to seven padded lanes a sweep.
const LANES: usize = 4;

/// Most integrator steps the feedback delay may span: the kernel's
/// history ring holds one state per step, 24 B a lane (≈ 24 MB at 2²⁰).
const MAX_DELAY_STEPS: f64 = 1_048_576.0;

/// Validates one operating point: `cfg`, then `params`, then that the
/// feedback delay spans 1 to [`MAX_DELAY_STEPS`] steps (the pair
/// neither check sees).
fn validate(params: &FluidParams, cfg: &FluidRunConfig) -> Result<(), ParamError> {
    cfg.validate()?;
    params.validate()?;
    if !(cfg.dt <= params.rtt && params.rtt / cfg.dt <= MAX_DELAY_STEPS) {
        return Err(ParamError::new(format!(
            "dt {} must lie in [rtt / 2^20, rtt] for the feedback delay rtt {}",
            cfg.dt, params.rtt
        )));
    }
    Ok(())
}

/// Reduces one lane's samples to a [`SweepPoint`] as they stream out of
/// the kernel. Only the post-transient queue trajectory is kept (the
/// mean-crossing pass needs it); W, α and σ fold into running moments
/// in sample order — the same arithmetic as summarizing
/// `TimeSeries::window` copies, without holding the full solution.
struct Reducer {
    params: FluidParams,
    transient: f64,
    duration: f64,
    q: TimeSeries,
    w: Welford,
    alpha: Welford,
    sigma: Welford,
    util_sum: f64,
}

impl Reducer {
    fn new(params: FluidParams, cfg: &FluidRunConfig) -> Self {
        let window_samples = (cfg.duration - cfg.transient) / (cfg.dt * cfg.sample_every as f64);
        Reducer {
            params,
            transient: cfg.transient,
            duration: cfg.duration,
            q: TimeSeries::with_capacity(window_samples as usize + 2),
            w: Welford::new(),
            alpha: Welford::new(),
            sigma: Welford::new(),
            util_sum: 0.0,
        }
    }

    fn push(&mut self, t: f64, w: f64, alpha: f64, q: f64, sigma: f64) {
        // `TimeSeries::window`'s inclusive bounds.
        if !(self.transient..=self.duration).contains(&t) {
            return;
        }
        self.q.push(t, q);
        self.w.push(w);
        self.alpha.push(alpha);
        self.sigma.push(sigma);
        // Served fraction of capacity: the bottleneck runs at line rate
        // whenever the queue is backlogged, and at the arrival rate
        // N·W/R(q) (capped at C) when it is empty.
        let p = &self.params;
        self.util_sum += if q > 0.0 {
            1.0
        } else {
            let r = p.rtt + q / p.capacity_pps;
            (p.flows * w / r / p.capacity_pps).min(1.0)
        };
    }

    fn finish(self) -> SweepPoint {
        let osc = oscillation_metrics(&self.q);
        let window = self.duration - self.transient;
        let (osc_freq_hz, osc_cycles) = match osc.period {
            Some(p) if p > 0.0 => (1.0 / p, window / p),
            _ => (0.0, 0.0),
        };
        let samples = self.q.len();
        SweepPoint {
            flows: self.params.flows,
            queue_mean: osc.mean,
            queue_std: osc.std,
            queue_max: self.q.summary().max,
            osc_amplitude: osc.amplitude,
            osc_freq_hz,
            osc_cycles,
            w_mean: self.w.mean(),
            alpha_mean: self.alpha.mean(),
            marking_duty: self.sigma.mean(),
            utilization: if samples == 0 {
                0.0
            } else {
                self.util_sum / samples as f64
            },
        }
    }
}

/// Integrates `base` at the `L` flow counts in `flows` in one lockstep
/// pass and reduces each lane. The caller has validated every point.
fn run_lanes<const L: usize>(
    base: &FluidParams,
    flows: [f64; L],
    cfg: &FluidRunConfig,
) -> [SweepPoint; L] {
    let mut reducers = flows.map(|n| Reducer::new(FluidParams { flows: n, ..*base }, cfg));
    integrate(
        base,
        Model::Dde,
        flows,
        cfg.duration,
        cfg.dt,
        cfg.sample_every,
        |lane, t, w, alpha, q, sigma| reducers[lane].push(t, w, alpha, q, sigma),
    );
    reducers.map(Reducer::finish)
}

/// Integrates the DDE at one operating point and reduces the trajectory
/// to a [`SweepPoint`].
///
/// # Errors
///
/// Returns [`ParamError`] if `params` or `cfg` fail validation, or if
/// `cfg.dt` is outside `[params.rtt / 2²⁰, params.rtt]`.
pub fn evaluate(params: &FluidParams, cfg: &FluidRunConfig) -> Result<SweepPoint, ParamError> {
    validate(params, cfg)?;
    let [point] = run_lanes(params, [params.flows], cfg);
    Ok(point)
}

/// Evaluates `base` at each flow count in `flow_counts`, bit-identical
/// to calling [`evaluate`] per point but several points per pass.
///
/// # Errors
///
/// Returns the first [`ParamError`] in flow order; every point is
/// validated before any is integrated.
pub fn sweep(
    base: &FluidParams,
    flow_counts: &[f64],
    cfg: &FluidRunConfig,
) -> Result<Vec<SweepPoint>, ParamError> {
    for &n in flow_counts {
        validate(&FluidParams { flows: n, ..*base }, cfg)?;
    }
    let mut out = Vec::with_capacity(flow_counts.len());
    for chunk in flow_counts.chunks(LANES) {
        // Pad a short last chunk by repeating its last count; the
        // padded lanes' points are dropped.
        let flows = std::array::from_fn(|i| chunk[i.min(chunk.len() - 1)]);
        out.extend(
            run_lanes::<LANES>(base, flows, cfg)
                .into_iter()
                .take(chunk.len()),
        );
    }
    Ok(out)
}

/// A deterministic log-spaced flow grid: `per_decade` points per decade
/// from `10^lo` to `10^hi` inclusive, rounded to whole flows and
/// deduplicated.
pub fn log_flows(lo: u32, hi: u32, per_decade: u32) -> Vec<f64> {
    assert!(lo <= hi && per_decade >= 1);
    let mut out: Vec<f64> = Vec::new();
    for i in 0..=(hi - lo) * per_decade {
        let exp = f64::from(lo) + f64::from(i) / f64::from(per_decade);
        let n = 10f64.powf(exp).round();
        if out.last() != Some(&n) {
            out.push(n);
        }
    }
    out
}

/// The smallest swept flow count whose utilization reaches `target`
/// (e.g. `0.99` for the paper's 100%-utilization threshold), or `None`
/// when no point does.
pub fn utilization_threshold(points: &[SweepPoint], target: f64) -> Option<f64> {
    points
        .iter()
        .find(|p| p.utilization >= target)
        .map(|p| p.flows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FluidMarking;

    fn cfg() -> FluidRunConfig {
        FluidRunConfig {
            dt: 2e-6,
            duration: 0.2,
            transient: 0.1,
            sample_every: 5,
        }
    }

    #[test]
    fn config_validation() {
        assert!(cfg().validate().is_ok());
        let mut c = cfg();
        c.transient = 0.2;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.dt = 0.0;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.sample_every = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn evaluate_produces_finite_metrics() {
        let p = FluidParams::paper_defaults(20.0, FluidMarking::Relay { k: 40.0 });
        let pt = evaluate(&p, &cfg()).unwrap();
        assert!(pt.queue_mean.is_finite() && pt.queue_mean > 0.0);
        assert!(pt.osc_amplitude >= 0.0);
        assert!((0.0..=1.0).contains(&pt.utilization));
        assert!((0.0..=1.0).contains(&pt.marking_duty));
        assert!(pt.w_mean > 0.0);
    }

    #[test]
    fn frequency_and_cycles_are_consistent() {
        let p = FluidParams::paper_defaults(10.0, FluidMarking::Relay { k: 40.0 });
        let c = cfg();
        let pt = evaluate(&p, &c).unwrap();
        assert!(pt.osc_freq_hz > 0.0, "N = 10 limit-cycles");
        let window = c.duration - c.transient;
        assert!((pt.osc_cycles - pt.osc_freq_hz * window).abs() < 1e-9);
    }

    #[test]
    fn log_grid_is_deduplicated_and_monotone() {
        let grid = log_flows(1, 6, 3);
        assert_eq!(grid.first(), Some(&10.0));
        assert_eq!(grid.last(), Some(&1_000_000.0));
        for w in grid.windows(2) {
            assert!(w[1] > w[0], "{w:?}");
        }
        // Single decade, one point per decade: the endpoints.
        assert_eq!(log_flows(2, 3, 1), vec![100.0, 1000.0]);
    }

    #[test]
    fn sweep_covers_six_decades() {
        let p = FluidParams::paper_defaults(10.0, FluidMarking::Relay { k: 40.0 });
        let c = FluidRunConfig {
            dt: 5e-6,
            duration: 0.05,
            transient: 0.025,
            sample_every: 10,
        };
        let grid = log_flows(1, 6, 1);
        let pts = sweep(&p, &grid, &c).unwrap();
        assert_eq!(pts.len(), 6);
        for pt in &pts {
            assert!(pt.queue_mean.is_finite(), "N = {}", pt.flows);
            assert!(pt.utilization.is_finite());
        }
        // Saturated large-N points pin the queue at 2N − C·R0: the mean
        // queue grows monotonically beyond saturation.
        assert!(pts[5].queue_mean > pts[4].queue_mean);
        assert!(pts[5].utilization > 0.99);
    }

    #[test]
    fn utilization_threshold_finds_first_crossing() {
        let mk = |flows: f64, utilization: f64| SweepPoint {
            flows,
            queue_mean: 0.0,
            queue_std: 0.0,
            queue_max: 0.0,
            osc_amplitude: 0.0,
            osc_freq_hz: 0.0,
            osc_cycles: 0.0,
            w_mean: 0.0,
            alpha_mean: 0.0,
            marking_duty: 0.0,
            utilization,
        };
        let pts = vec![mk(10.0, 0.8), mk(100.0, 0.995), mk(1000.0, 1.0)];
        assert_eq!(utilization_threshold(&pts, 0.99), Some(100.0));
        assert_eq!(utilization_threshold(&pts, 2.0), None);
    }
}
