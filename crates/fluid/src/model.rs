//! The paper's fluid model (Section II-B) with the round-trip time
//! frozen at `R0`: the ODE of Eqs. (1)–(3) in which only the marking
//! input is delayed. [`DdeModel`](crate::DdeModel) is the full
//! delay-differential system.

use dctcp_core::ParamError;
use dctcp_stats::TimeSeries;

use crate::marking::MarkingState;
use crate::FluidMarking;

/// Parameters of the fluid model of Eqs. (1)–(3):
///
/// ```text
/// dW/dt = 1/R0 − W(t)·α(t)/(2R0) · p(t − R0)
/// dα/dt = g/R0 · (p(t − R0) − α(t))
/// dq/dt = N·W(t)/R0 − C
/// ```
///
/// with `p(t) = marking(q(t))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FluidParams {
    /// Bottleneck capacity `C` in packets/second.
    pub capacity_pps: f64,
    /// Number of flows `N`.
    pub flows: f64,
    /// Round-trip time `R0` in seconds (also the feedback delay).
    pub rtt: f64,
    /// EWMA gain `g`.
    pub g: f64,
    /// Switch marking rule.
    pub marking: FluidMarking,
    /// Initial per-flow window in packets.
    pub w_init: f64,
    /// Initial `α` estimate.
    pub alpha_init: f64,
    /// Initial queue in packets.
    pub q_init: f64,
}

impl FluidParams {
    /// The paper's simulation setup (10 Gb/s, 1500 B packets, 100 µs RTT,
    /// `g = 1/16`) with `n` flows and the given marking rule, started
    /// from an empty queue with unit windows.
    pub fn paper_defaults(n: f64, marking: FluidMarking) -> Self {
        FluidParams {
            capacity_pps: 10e9 / (8.0 * 1500.0),
            flows: n,
            rtt: 100e-6,
            g: 1.0 / 16.0,
            marking,
            w_init: 1.0,
            alpha_init: 0.0,
            q_init: 0.0,
        }
    }

    /// Validates positivity and threshold ordering.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] when any parameter is out of range.
    pub fn validate(&self) -> Result<(), ParamError> {
        if !(self.capacity_pps > 0.0 && self.flows > 0.0 && self.rtt > 0.0) {
            return Err(ParamError::new("capacity, flows and rtt must be positive"));
        }
        if !(self.g > 0.0 && self.g <= 1.0) {
            return Err(ParamError::new("g must be in (0, 1]"));
        }
        if !(self.w_init >= 0.0 && self.alpha_init >= 0.0 && self.q_init >= 0.0) {
            return Err(ParamError::new("initial state must be non-negative"));
        }
        self.marking.validate()
    }
}

/// Trajectories produced by [`FluidModel::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct FluidSolution {
    /// Per-flow window `W(t)` in packets.
    pub w: TimeSeries,
    /// Marked-fraction estimate `α(t)`.
    pub alpha: TimeSeries,
    /// Queue `q(t)` in packets.
    pub q: TimeSeries,
    /// Marking input `p(t)`.
    pub p: TimeSeries,
}

/// Fixed-step RK4 integrator for the frozen-RTT fluid model: the ODE of
/// Eqs. (1)–(3) with only the marking input `p` delayed (by one
/// step-quantized `R0`). For the delay-differential system — queueing
/// delay in the loop, whole lagged state — see
/// [`DdeModel`](crate::DdeModel).
///
/// The delayed input `p(t − R0)` is read from a history ring holding one
/// RTT of marking decisions at step resolution; `p` is piecewise-constant
/// (binary), so holding it constant within a step keeps RK4's accuracy on
/// the smooth part of the dynamics.
///
/// # Examples
///
/// ```
/// use dctcp_fluid::{FluidMarking, FluidModel, FluidParams};
///
/// let params = FluidParams::paper_defaults(10.0, FluidMarking::Relay { k: 40.0 });
/// let mut model = FluidModel::new(params)?;
/// let sol = model.run(0.05, 1e-6);
/// assert!(sol.q.values().iter().all(|&q| q >= 0.0));
/// # Ok::<(), dctcp_core::ParamError>(())
/// ```
#[derive(Debug)]
pub struct FluidModel {
    params: FluidParams,
}

impl FluidModel {
    /// Creates the model.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `params` fails validation.
    pub fn new(params: FluidParams) -> Result<Self, ParamError> {
        params.validate()?;
        Ok(FluidModel { params })
    }

    /// The model parameters.
    pub fn params(&self) -> &FluidParams {
        &self.params
    }

    /// Integrates for `duration` seconds with step `dt`, recording every
    /// state sample.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < dt <= rtt` (the history ring needs at least one
    /// slot per RTT).
    pub fn run(&mut self, duration: f64, dt: f64) -> FluidSolution {
        self.run_sampled(duration, dt, 1)
    }

    /// Integrates like [`FluidModel::run`] but records only every
    /// `sample_every`-th step (trajectory memory scales accordingly).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < dt <= rtt` and `sample_every >= 1`.
    pub fn run_sampled(&mut self, duration: f64, dt: f64, sample_every: usize) -> FluidSolution {
        assert!(
            dt > 0.0 && dt <= self.params.rtt,
            "dt {dt} outside (0, rtt]"
        );
        assert!(sample_every >= 1);
        let p = self.params;
        let steps = (duration / dt).round().max(1.0) as usize;
        let delay_steps = (p.rtt / dt).round().max(1.0) as usize;

        let mut marking = MarkingState::new(p.marking, p.q_init);
        // History ring of p values over the last RTT; before the first
        // RTT the delayed input is the initial marking decision.
        let p0 = marking.step(p.q_init);
        let mut history = vec![p0; delay_steps];
        let mut head = 0usize;

        let (mut w, mut alpha, mut q) = (p.w_init, p.alpha_init, p.q_init);
        let cap = steps / sample_every + 2;
        let mut sol = FluidSolution {
            w: TimeSeries::with_capacity(cap),
            alpha: TimeSeries::with_capacity(cap),
            q: TimeSeries::with_capacity(cap),
            p: TimeSeries::with_capacity(cap),
        };

        for step in 0..=steps {
            let t = step as f64 * dt;
            let p_delayed = history[head];
            if step % sample_every == 0 {
                sol.w.push(t, w);
                sol.alpha.push(t, alpha);
                sol.q.push(t, q);
                sol.p.push(t, p_delayed);
            }
            if step == steps {
                break;
            }

            // RK4 with the (binary) delayed input held over the step.
            let f = |w: f64, a: f64, q: f64| -> (f64, f64, f64) {
                let dw = 1.0 / p.rtt - w * a / (2.0 * p.rtt) * p_delayed;
                let da = p.g / p.rtt * (p_delayed - a);
                let mut dq = p.flows * w / p.rtt - p.capacity_pps;
                if q <= 0.0 {
                    dq = dq.max(0.0); // queue cannot drain below empty
                }
                (dw, da, dq)
            };
            let (k1w, k1a, k1q) = f(w, alpha, q);
            let (k2w, k2a, k2q) = f(
                w + 0.5 * dt * k1w,
                alpha + 0.5 * dt * k1a,
                q + 0.5 * dt * k1q,
            );
            let (k3w, k3a, k3q) = f(
                w + 0.5 * dt * k2w,
                alpha + 0.5 * dt * k2a,
                q + 0.5 * dt * k2q,
            );
            let (k4w, k4a, k4q) = f(w + dt * k3w, alpha + dt * k3a, q + dt * k3q);
            w += dt / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w);
            alpha += dt / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a);
            q += dt / 6.0 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q);
            w = w.max(0.0);
            alpha = alpha.clamp(0.0, 1.0);
            q = q.max(0.0);

            // Record the *current* marking decision into the ring; it
            // will be consumed one RTT from now.
            let p_now = marking.step(q);
            history[head] = p_now;
            head = (head + 1) % delay_steps;
        }
        sol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn relay(n: f64) -> FluidParams {
        FluidParams::paper_defaults(n, FluidMarking::Relay { k: 40.0 })
    }

    #[test]
    fn rejects_invalid_params() {
        let mut p = relay(10.0);
        p.g = 0.0;
        assert!(FluidModel::new(p).is_err());
        let mut p = relay(10.0);
        p.flows = -1.0;
        assert!(FluidModel::new(p).is_err());
        let p = FluidParams::paper_defaults(10.0, FluidMarking::Hysteresis { k1: 50.0, k2: 30.0 });
        assert!(FluidModel::new(p).is_err());
    }

    #[test]
    fn state_stays_in_bounds() {
        let mut m = FluidModel::new(relay(40.0)).unwrap();
        let sol = m.run(0.05, 1e-6);
        for (_, q) in sol.q.iter() {
            assert!((0.0..10_000.0).contains(&q), "q = {q}");
        }
        for (_, a) in sol.alpha.iter() {
            assert!((0.0..=1.0).contains(&a), "alpha = {a}");
        }
        for (_, w) in sol.w.iter() {
            assert!(w >= 0.0, "w = {w}");
        }
        for (_, p) in sol.p.iter() {
            assert!(p == 0.0 || p == 1.0);
        }
    }

    #[test]
    fn without_marking_window_grows_linearly() {
        // Threshold far above reachable queue: p = 0 forever, so
        // dW/dt = 1/R0 exactly.
        let mut params = relay(1.0);
        params.marking = FluidMarking::Relay { k: 1e12 };
        // Keep the queue at zero (inflow below capacity) for a clean check.
        params.w_init = 1.0;
        let mut m = FluidModel::new(params).unwrap();
        let dur = 10.0 * params.rtt;
        let sol = m.run(dur, params.rtt / 100.0);
        let (_, w_end) = sol.w.last().unwrap();
        let expected = 1.0 + dur / params.rtt;
        assert!(
            (w_end - expected).abs() < 1e-3,
            "w_end {w_end} vs expected {expected}"
        );
    }

    #[test]
    fn queue_converges_near_threshold() {
        // With few flows the relay model settles into a limit cycle
        // hugging K.
        let mut m = FluidModel::new(relay(10.0)).unwrap();
        let sol = m.run(0.2, 1e-6);
        let tail = sol.q.window(0.1, 0.2);
        let s = tail.summary();
        assert!(
            s.mean > 10.0 && s.mean < 80.0,
            "steady queue mean {} far from K = 40",
            s.mean
        );
        // The binary-input fluid model limit-cycles and may touch empty,
        // but must not sit there: bound the drained fraction.
        let drained = tail.values().iter().filter(|&&q| q <= 0.0).count();
        assert!(
            (drained as f64) < 0.3 * tail.len() as f64,
            "queue empty for {drained}/{} samples",
            tail.len()
        );
    }

    #[test]
    fn utilization_matches_capacity_in_steady_state() {
        // In steady state the average aggregate arrival rate NW/R0
        // matches C (otherwise q would drift).
        let p = relay(20.0);
        let mut m = FluidModel::new(p).unwrap();
        let sol = m.run(0.2, 1e-6);
        let tail = sol.w.window(0.1, 0.2);
        let mean_w = tail.summary().mean;
        let arrival = p.flows * mean_w / p.rtt;
        let err = (arrival - p.capacity_pps).abs() / p.capacity_pps;
        assert!(
            err < 0.05,
            "arrival {arrival} vs capacity {} ({err})",
            p.capacity_pps
        );
    }

    #[test]
    fn delayed_response_lasts_one_rtt() {
        // Empty marking history (q_init below K): α sits exactly at
        // α_init until the first marking decision has travelled one
        // delay, and moves on the very next step. Power-of-two rtt and
        // dt make the delay exactly 128 steps.
        let mut params = relay(10.0);
        params.rtt = 2f64.powi(-13);
        params.w_init = 20.0; // arrivals above capacity: q builds at once
        let (dt, delay) = (2f64.powi(-20), 128);
        let sol = FluidModel::new(params).unwrap().run(3.0 * params.rtt, dt);
        let (q, p, alpha) = (sol.q.values(), sol.p.values(), sol.alpha.values());
        // The first mark is decided on the step that lifts q above K.
        let first = q.iter().position(|&q| q > 40.0).expect("q crosses K");
        let marked = first - 1 + delay; // the first step that sees it
        assert!(p[..marked].iter().all(|&p| p == 0.0));
        assert_eq!(p[marked], 1.0);
        assert!(alpha[..=marked].iter().all(|&a| a == params.alpha_init));
        assert!(alpha[marked + 1] > params.alpha_init);
    }

    #[test]
    fn sampled_run_matches_dense_run() {
        let mut m1 = FluidModel::new(relay(10.0)).unwrap();
        let mut m2 = FluidModel::new(relay(10.0)).unwrap();
        let dense = m1.run(0.01, 1e-6);
        let sparse = m2.run_sampled(0.01, 1e-6, 10);
        assert_eq!(dense.q.len(), 10_001);
        assert_eq!(sparse.q.len(), 1_001);
        // Same trajectory at the shared sample instants.
        let (t_d, q_d) = dense.q.last().unwrap();
        let (t_s, q_s) = sparse.q.last().unwrap();
        assert!((t_d - t_s).abs() < 1e-12);
        assert!((q_d - q_s).abs() < 1e-9);
    }

    #[test]
    fn hysteresis_dampens_oscillation_amplitude() {
        // The paper's core claim, checked in the fluid domain: at large N
        // the relay's limit cycle swings wider than the hysteresis's.
        // 300 us RTT keeps the loop controllable (fluid DCTCP's
        // equilibrium window under full marking is W = 2/alpha >= 2, so
        // the fair share C*R0/N must stay >= 2 for a bounded queue).
        let n = 100.0;
        let run = |marking: FluidMarking| -> f64 {
            let mut params = FluidParams::paper_defaults(n, marking);
            params.rtt = 300e-6;
            let mut m = FluidModel::new(params).unwrap();
            let sol = m.run_sampled(0.3, 1e-6, 10);
            let tail = sol.q.window(0.15, 0.3);
            let s = tail.summary();
            assert!(s.max < 2_000.0, "fluid queue diverged: max {}", s.max);
            s.std
        };
        let relay_std = run(FluidMarking::Relay { k: 40.0 });
        let hyst_std = run(FluidMarking::Hysteresis { k1: 30.0, k2: 50.0 });
        assert!(
            hyst_std < relay_std,
            "hysteresis std {hyst_std} should be below relay std {relay_std}"
        );
    }
}
