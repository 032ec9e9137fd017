//! The delay-differential model, `Model::Dde` of the one RK4 kernel.
//!
//! [`FluidModel`](crate::FluidModel) integrates the paper's Eqs. (1)–(3)
//! with the round-trip time frozen at `R0`: only the *marking decision*
//! is delayed, by a whole number of steps. That is faithful to the
//! paper's analysis but it loses two effects that matter once the queue
//! is a non-trivial fraction of the pipe:
//!
//! 1. **Queueing delay feeds back into the loop.** The effective
//!    round-trip time is `R(t) = R0 + q(t)/C`, so a standing queue slows
//!    both the additive increase and the EWMA update. With the rate
//!    terms pinned at `R0` the ODE model's queue diverges whenever
//!    `N > C·R0/2`; with `R(t)` in the loop the system finds the
//!    physical fixed point `q* = 2N − C·R0` instead.
//! 2. **The whole state is delayed, not just the marking bit.** The
//!    multiplicative-decrease term at time `t` is driven by marks set on
//!    packets sent one RTT earlier, i.e. by `W(t−τ)·α(t−τ)`, not by the
//!    current window.
//!
//! [`DdeModel`] integrates the resulting delay-differential system
//!
//! ```text
//! dW/dt = 1/R(t) − W(t−τ)·α(t−τ)/(2·Rl(t)) · σ(q(t−τ))
//! dα/dt = g/Rl(t) · (σ(q(t−τ)) − α(t))
//! dq/dt = N·W(t)/R(t) − C            (q ≥ 0)
//! ```
//!
//! with `R(t) = R0 + q(t)/C`, the lagged round-trip `Rl(t) = R0 +
//! q(t−τ)/C`, the per-scheme marking law `σ` (relay for DCTCP,
//! K1/K2 hysteresis for DT-DCTCP) evaluated on the lagged queue, and a
//! fixed feedback delay `τ = R0`. The kernel reads lagged state from its
//! full-state history ring with deterministic linear interpolation, so
//! the step size does not have to divide the delay.
//!
//! Closed-form fixed points for both the unsaturated (limit-cycling)
//! and saturated (`N·2 > C·R`) regimes are exposed through
//! [`equilibrium`]; the integration tests pin the integrator to them.

use dctcp_core::ParamError;

use crate::kernel::{solve, Model};
use crate::model::{FluidParams, FluidSolution};
use crate::FluidMarking;

/// Fixed-step integrator for the delay-differential fluid model.
///
/// Reuses [`FluidParams`] — the DDE needs no extra knobs, it just stops
/// ignoring the queueing delay the parameters already imply. The
/// feedback delay is `τ = rtt` and the history buffer interpolates
/// linearly between stored steps, so trajectories are deterministic for
/// a given `(params, duration, dt)` triple, bit-for-bit.
///
/// # Examples
///
/// ```
/// use dctcp_fluid::{DdeModel, FluidMarking, FluidParams};
///
/// let params = FluidParams::paper_defaults(10.0, FluidMarking::Relay { k: 40.0 });
/// let mut model = DdeModel::new(params)?;
/// let sol = model.run(0.05, 1e-6);
/// assert!(sol.q.values().iter().all(|&q| q >= 0.0));
/// # Ok::<(), dctcp_core::ParamError>(())
/// ```
#[derive(Debug)]
pub struct DdeModel {
    params: FluidParams,
}

impl DdeModel {
    /// Creates the model.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `params` fails validation.
    pub fn new(params: FluidParams) -> Result<Self, ParamError> {
        params.validate()?;
        Ok(DdeModel { params })
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

    /// Integrates like [`DdeModel::run`] but records only every
    /// `sample_every`-th step.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < dt <= rtt` and `sample_every >= 1`.
    pub fn run_sampled(&mut self, duration: f64, dt: f64, sample_every: usize) -> FluidSolution {
        solve(&self.params, Model::Dde, duration, dt, sample_every)
    }
}

/// The closed-form fixed point of the DDE system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdeEquilibrium {
    /// Per-flow window `W*` in packets.
    pub w: f64,
    /// Marked-fraction estimate `α*` (equals the marking duty).
    pub alpha: f64,
    /// Queue `q*` in packets.
    pub q: f64,
    /// Time-averaged marking input `σ*` over the limit cycle.
    pub marking_duty: f64,
    /// Effective round-trip `R* = R0 + q*/C` in seconds.
    pub rtt_eff: f64,
    /// Whether the fixed point is in the saturated regime (`σ* = 1`,
    /// the fair share too small for the threshold to bind).
    pub saturated: bool,
}

/// Computes the closed-form fixed point of the DDE system.
///
/// Setting the derivatives to zero with the marking input smoothed to
/// its duty cycle `σ* ∈ [0, 1]` gives `α* = σ*` (EWMA balance) and
/// `W*·α*·σ* = 2` (window balance), hence `σ* = √(2/W*)` with the
/// operating window `W* = C·R*/N` pinned by rate balance at the
/// threshold queue (relay `K`, or the hysteresis band's midpoint).
///
/// When the fair share drops below 2 packets the duty saturates at
/// `σ* = α* = 1`, `W* = 2`, and rate balance instead sets the queue:
/// `N·2/R* = C` ⇒ `R* = 2N/C` ⇒ `q* = 2N − C·R0`. This regime is
/// exactly where the undelayed ODE model diverges — the queue-induced
/// RTT is the stabilizing term.
pub fn equilibrium(params: &FluidParams) -> DdeEquilibrium {
    let k_eq = match params.marking {
        FluidMarking::Relay { k } => k,
        FluidMarking::Hysteresis { k1, k2 } => (k1 + k2) / 2.0,
    };
    let c = params.capacity_pps;
    let r = params.rtt + k_eq / c;
    let w = c * r / params.flows;
    if w >= 2.0 {
        let sigma = (2.0 / w).sqrt();
        DdeEquilibrium {
            w,
            alpha: sigma,
            q: k_eq,
            marking_duty: sigma,
            rtt_eff: r,
            saturated: false,
        }
    } else {
        let q = (2.0 * params.flows - c * params.rtt).max(0.0);
        let rtt_eff = params.rtt + q / c;
        DdeEquilibrium {
            w: 2.0,
            alpha: 1.0,
            q,
            marking_duty: 1.0,
            rtt_eff,
            saturated: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn relay(n: f64) -> FluidParams {
        FluidParams::paper_defaults(n, FluidMarking::Relay { k: 40.0 })
    }

    #[test]
    fn unsaturated_equilibrium_matches_closed_form() {
        // Moderate N: the limit cycle hugs K and the time-averaged
        // marking duty must match σ* = √(2/W*).
        let p = relay(10.0);
        let eq = equilibrium(&p);
        assert!(!eq.saturated);
        let mut m = DdeModel::new(p).unwrap();
        let sol = m.run(0.4, 1e-6);
        let duty = sol.p.window(0.2, 0.4).summary().mean;
        let w_mean = sol.w.window(0.2, 0.4).summary().mean;
        assert!(
            (duty - eq.marking_duty).abs() / eq.marking_duty < 0.15,
            "duty {duty} vs closed form {}",
            eq.marking_duty
        );
        assert!(
            (w_mean - eq.w).abs() / eq.w < 0.15,
            "mean window {w_mean} vs closed form {}",
            eq.w
        );
    }

    #[test]
    fn saturated_equilibrium_matches_closed_form() {
        // N = 100 on the small fabric: fair share C·R0/N ≈ 0.83 < 2, so
        // the ODE model diverges — the DDE must settle at q* = 2N − C·R0.
        let p = relay(100.0);
        let eq = equilibrium(&p);
        assert!(eq.saturated);
        let expected_q = 2.0 * 100.0 - p.capacity_pps * p.rtt;
        assert!((eq.q - expected_q).abs() < 1e-9);
        let mut m = DdeModel::new(p).unwrap();
        let sol = m.run(0.4, 1e-6);
        let q_mean = sol.q.window(0.2, 0.4).summary().mean;
        assert!(
            (q_mean - eq.q).abs() / eq.q < 0.15,
            "queue mean {q_mean} vs fixed point {}",
            eq.q
        );
        let a_mean = sol.alpha.window(0.2, 0.4).summary().mean;
        assert!(a_mean > 0.85, "alpha should saturate, got {a_mean}");
    }

    #[test]
    fn interpolation_handles_non_divisor_steps() {
        // dt chosen so rtt/dt is irrational-ish: the lagged read always
        // lands between slots. The trajectory must stay close to the
        // divisor-step one.
        let p = relay(10.0);
        let mut m1 = DdeModel::new(p).unwrap();
        let mut m2 = DdeModel::new(p).unwrap();
        let a = m1.run(0.1, 1e-6);
        let b = m2.run(0.1, 0.7e-6);
        let qa = a.q.window(0.05, 0.1).summary();
        let qb = b.q.window(0.05, 0.1).summary();
        assert!(
            (qa.mean - qb.mean).abs() / qa.mean < 0.1,
            "queue mean drifted across step sizes: {} vs {}",
            qa.mean,
            qb.mean
        );
    }

    #[test]
    fn equilibrium_regime_boundary_is_continuous() {
        // At W* = 2 both branches give the same duty.
        let mut p = relay(1.0);
        // Pick N so C·(R0 + K/C)/N == 2 exactly.
        p.flows = p.capacity_pps * (p.rtt + 40.0 / p.capacity_pps) / 2.0;
        let eq = equilibrium(&p);
        assert!((eq.marking_duty - 1.0).abs() < 1e-9);
        assert!((eq.w - 2.0).abs() < 1e-9);
    }
}
