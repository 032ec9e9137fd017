//! The delay-differential extension of the fluid model.
//!
//! [`FluidModel`](crate::FluidModel) integrates the paper's Eqs. (1)–(3)
//! with the round-trip time frozen at `R0`: only the *marking decision*
//! is delayed, and only by exactly one step-quantized RTT. That is
//! faithful to the paper's analysis but it loses two effects that matter
//! once the queue is a non-trivial fraction of the pipe:
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
//! fixed feedback delay `τ = R0`. Lagged state is read from a
//! full-state history ring with deterministic linear interpolation, so
//! the step size does not have to divide the delay.
//!
//! Closed-form fixed points for both the unsaturated (limit-cycling)
//! and saturated (`N·2 > C·R`) regimes are exposed through
//! [`equilibrium`]; the integration tests pin the integrator to them.

use dctcp_core::ParamError;
use dctcp_stats::TimeSeries;

use crate::marking::MarkingState;
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
        let cap = step_count(duration, dt) / sample_every.max(1) + 2;
        let mut sol = FluidSolution {
            w: TimeSeries::with_capacity(cap),
            alpha: TimeSeries::with_capacity(cap),
            q: TimeSeries::with_capacity(cap),
            p: TimeSeries::with_capacity(cap),
        };
        let p = &self.params;
        integrate(
            p,
            [p.flows],
            duration,
            dt,
            sample_every,
            |_, t, w, a, q, s| {
                sol.w.push(t, w);
                sol.alpha.push(t, a);
                sol.q.push(t, q);
                sol.p.push(t, s);
            },
        );
        sol
    }
}

/// Number of RK4 steps [`integrate`] takes over `duration`.
fn step_count(duration: f64, dt: f64) -> usize {
    (duration / dt).round().max(1.0) as usize
}

/// `(W, α, q)` of every lane: one integrator state or history slot.
#[derive(Clone, Copy)]
struct Lanes<const L: usize> {
    w: [f64; L],
    a: [f64; L],
    q: [f64; L],
}

/// The DDE's one RK4 loop: integrates `L` operating points of `base`
/// that differ only in `flows` (`base.flows` is ignored), in lockstep.
///
/// The points share `τ` and `dt`, so the history-ring index and the
/// interpolation fraction are computed once per step for all lanes.
/// Lane `i` performs exactly the IEEE-754 operations, in the same order,
/// that a one-lane run at `flows[i]` performs — lanes never mix — so
/// every lane's trajectory is bit-identical to integrating its point
/// alone; lanes only buy independent divides that overlap in the
/// pipeline. At every `sample_every`-th step `sink(lane, t, w, α, q, σ)`
/// is called for each lane in lane order.
///
/// # Panics
///
/// Panics unless `0 < dt <= rtt` (the history ring must span the
/// feedback delay) and `sample_every >= 1`.
// Every per-lane loop indexes several parallel arrays by lane.
#[allow(clippy::needless_range_loop)]
pub(crate) fn integrate<const L: usize>(
    base: &FluidParams,
    flows: [f64; L],
    duration: f64,
    dt: f64,
    sample_every: usize,
    mut sink: impl FnMut(usize, f64, f64, f64, f64, f64),
) {
    assert!(dt > 0.0 && dt <= base.rtt, "dt {dt} outside (0, rtt]");
    assert!(sample_every >= 1);
    let p = *base;
    let steps = step_count(duration, dt);
    let tau = p.rtt;
    // Delay in step units; >= 1 because dt <= tau.
    let lag = tau / dt;
    let ring = lag.ceil() as usize + 1;

    let init = Lanes {
        w: [p.w_init; L],
        a: [p.alpha_init; L],
        q: [p.q_init; L],
    };
    // Full-state history ring: slot `step % ring` holds the state at
    // `step`; pre-history reads resolve to the initial state.
    let mut hist = vec![init; ring];
    // The marking automaton consumes the *lagged* queue trajectory,
    // which advances monotonically with t — one stateful pass per lane.
    let mut marking = [MarkingState::new(p.marking, p.q_init); L];
    let mut x = init;

    for step in 0..=steps {
        let t = step as f64 * dt;
        // Lagged state at t − τ via linear interpolation between the
        // two bracketing history slots (deterministic: pure f64
        // arithmetic on stored samples).
        let pos = step as f64 - lag;
        let mut lagged = init;
        if pos > 0.0 {
            let j = pos.floor() as usize;
            let frac = pos - j as f64;
            let (s0, s1) = (&hist[j % ring], &hist[(j + 1) % ring]);
            for i in 0..L {
                lagged.w[i] = s0.w[i] + frac * (s1.w[i] - s0.w[i]);
                lagged.a[i] = s0.a[i] + frac * (s1.a[i] - s0.a[i]);
                lagged.q[i] = s0.q[i] + frac * (s1.q[i] - s0.q[i]);
            }
        }
        let (mut sigma, mut rl) = ([0.0; L], [0.0; L]);
        for i in 0..L {
            sigma[i] = marking[i].step(lagged.q[i]);
            rl[i] = p.rtt + lagged.q[i] / p.capacity_pps;
        }

        if step % sample_every == 0 {
            for i in 0..L {
                sink(i, t, x.w[i], x.a[i], x.q[i], sigma[i]);
            }
        }
        if step == steps {
            break;
        }

        // RK4 on the undelayed part of the state, with the lagged
        // terms (piecewise-linear, and σ binary) held over the step.
        let mut decrease = [0.0; L];
        for i in 0..L {
            decrease[i] = lagged.w[i] * lagged.a[i] / (2.0 * rl[i]) * sigma[i];
        }
        let f = |i: usize, w: f64, a: f64, q: f64| -> (f64, f64, f64) {
            let r = p.rtt + q / p.capacity_pps;
            let dw = 1.0 / r - decrease[i];
            let da = p.g / rl[i] * (sigma[i] - a);
            let mut dq = flows[i] * w / r - p.capacity_pps;
            if q <= 0.0 {
                dq = dq.max(0.0); // queue cannot drain below empty
            }
            (dw, da, dq)
        };
        // Each stage runs across all lanes before the next begins, so
        // the lanes' divides are independent and in flight together.
        let (mut k1, mut k2, mut k3, mut k4) = (init, init, init, init);
        for i in 0..L {
            (k1.w[i], k1.a[i], k1.q[i]) = f(i, x.w[i], x.a[i], x.q[i]);
        }
        for i in 0..L {
            (k2.w[i], k2.a[i], k2.q[i]) = f(
                i,
                x.w[i] + 0.5 * dt * k1.w[i],
                x.a[i] + 0.5 * dt * k1.a[i],
                x.q[i] + 0.5 * dt * k1.q[i],
            );
        }
        for i in 0..L {
            (k3.w[i], k3.a[i], k3.q[i]) = f(
                i,
                x.w[i] + 0.5 * dt * k2.w[i],
                x.a[i] + 0.5 * dt * k2.a[i],
                x.q[i] + 0.5 * dt * k2.q[i],
            );
        }
        for i in 0..L {
            (k4.w[i], k4.a[i], k4.q[i]) = f(
                i,
                x.w[i] + dt * k3.w[i],
                x.a[i] + dt * k3.a[i],
                x.q[i] + dt * k3.q[i],
            );
        }
        for i in 0..L {
            let (mut w, mut alpha, mut q) = (x.w[i], x.a[i], x.q[i]);
            w += dt / 6.0 * (k1.w[i] + 2.0 * k2.w[i] + 2.0 * k3.w[i] + k4.w[i]);
            alpha += dt / 6.0 * (k1.a[i] + 2.0 * k2.a[i] + 2.0 * k3.a[i] + k4.a[i]);
            q += dt / 6.0 * (k1.q[i] + 2.0 * k2.q[i] + 2.0 * k3.q[i] + k4.q[i]);
            x.w[i] = w.max(0.0);
            x.a[i] = alpha.clamp(0.0, 1.0);
            x.q[i] = q.max(0.0);
        }

        hist[(step + 1) % ring] = x;
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
    fn rejects_invalid_params() {
        let mut p = relay(10.0);
        p.rtt = 0.0;
        assert!(DdeModel::new(p).is_err());
        let p = FluidParams::paper_defaults(10.0, FluidMarking::Hysteresis { k1: 50.0, k2: 30.0 });
        assert!(DdeModel::new(p).is_err());
    }

    #[test]
    fn state_stays_physical() {
        let mut m = DdeModel::new(relay(40.0)).unwrap();
        let sol = m.run(0.05, 1e-6);
        for (_, q) in sol.q.iter() {
            assert!(q >= 0.0 && q.is_finite(), "q = {q}");
        }
        for (_, a) in sol.alpha.iter() {
            assert!((0.0..=1.0).contains(&a), "alpha = {a}");
        }
        for (_, w) in sol.w.iter() {
            assert!(w >= 0.0 && w.is_finite(), "w = {w}");
        }
        for (_, p) in sol.p.iter() {
            assert!(p == 0.0 || p == 1.0);
        }
    }

    #[test]
    fn reduces_to_additive_increase_without_marking() {
        // Unreachable threshold, queue stays empty: dW/dt = 1/R0 exactly
        // (effective RTT collapses to R0 with q = 0).
        let mut params = relay(1.0);
        params.marking = FluidMarking::Relay { k: 1e12 };
        let mut m = DdeModel::new(params).unwrap();
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
    fn delayed_response_lasts_one_rtt() {
        // Empty marking history (q_init below K): σ reads the queue one
        // delay back, so σ — and with it the decrease term — stays 0 and
        // α stays exactly α_init until the lagged queue crosses K; α
        // moves on the very next step. Power-of-two rtt and dt make the
        // delay exactly 128 steps, so lagged reads land on samples.
        let mut params = relay(10.0);
        params.rtt = 2f64.powi(-13);
        params.w_init = 20.0; // arrivals above capacity: q builds at once
        let (dt, delay) = (2f64.powi(-20), 128);
        let sol = DdeModel::new(params).unwrap().run(3.0 * params.rtt, dt);
        let (q, sigma, alpha) = (sol.q.values(), sol.p.values(), sol.alpha.values());
        let first = q.iter().position(|&q| q > 40.0).expect("q crosses K");
        let marked = first + delay; // the step whose lagged queue is q[first]
        assert!(sigma[..marked].iter().all(|&s| s == 0.0));
        assert_eq!(sigma[marked], 1.0);
        assert!(alpha[..=marked].iter().all(|&a| a == params.alpha_init));
        assert!(alpha[marked + 1] > params.alpha_init);
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
    fn same_step_size_is_bit_identical() {
        let mut m1 = DdeModel::new(relay(25.0)).unwrap();
        let mut m2 = DdeModel::new(relay(25.0)).unwrap();
        let a = m1.run(0.05, 1.3e-6); // dt does not divide the RTT
        let b = m2.run(0.05, 1.3e-6);
        assert_eq!(a.q.values(), b.q.values());
        assert_eq!(a.w.values(), b.w.values());
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
    fn hysteresis_dampens_oscillation() {
        // The paper's claim in the DDE domain: DT-DCTCP's hysteresis
        // narrows the limit cycle relative to the relay. N = 64 puts the
        // fair share near 4 packets — squarely in the oscillatory regime
        // (at N ≈ 100 the queue-induced RTT saturates the duty cycle and
        // both schemes ride the same ceiling).
        let n = 64.0;
        let run = |marking: FluidMarking| -> f64 {
            let mut params = FluidParams::paper_defaults(n, marking);
            params.rtt = 300e-6;
            let mut m = DdeModel::new(params).unwrap();
            let sol = m.run_sampled(0.3, 1e-6, 10);
            sol.q.window(0.15, 0.3).summary().std
        };
        let relay_std = run(FluidMarking::Relay { k: 40.0 });
        let hyst_std = run(FluidMarking::Hysteresis { k1: 30.0, k2: 50.0 });
        assert!(
            hyst_std < relay_std,
            "hysteresis std {hyst_std} should be below relay std {relay_std}"
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
