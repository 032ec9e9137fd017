//! The paper's fluid model (Section II-B) with the round-trip time
//! frozen at `R0`: the ODE of Eqs. (1)–(3) in which only the marking
//! input is delayed. It is `Model::FrozenRtt` of the one RK4 kernel;
//! the delay-differential [`DdeModel`](crate::DdeModel) is the other.

use dctcp_core::ParamError;
use dctcp_stats::TimeSeries;

use crate::kernel::{solve, Model};
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
/// Eqs. (1)–(3) with only the marking input `p` delayed. For the
/// delay-differential system — queueing delay in the loop, whole lagged
/// state — see [`DdeModel`](crate::DdeModel).
///
/// The delayed input is the marking law applied to the queue
/// `round(R0/dt).max(1) − 1` whole steps back: a delay of `R0 − dt` when
/// `dt` divides `R0`, one step short of the equations' `R0`, and zero
/// at `dt = rtt`. `p` is piecewise-constant (binary), so holding it
/// constant within a step keeps RK4's accuracy on the smooth part of
/// the dynamics.
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
    /// Panics unless `0 < dt <= rtt` (the history ring must span the
    /// feedback delay).
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
        solve(&self.params, Model::FrozenRtt, duration, dt, sample_every)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn relay(n: f64) -> FluidParams {
        FluidParams::paper_defaults(n, FluidMarking::Relay { k: 40.0 })
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
}
