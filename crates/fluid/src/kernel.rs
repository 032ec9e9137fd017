//! The crate's one RK4 loop, shared by both fluid models: a [`Model`]
//! makes the two decisions in which they differ, once per call.

use dctcp_stats::TimeSeries;

use crate::marking::MarkingState;
use crate::model::{FluidParams, FluidSolution};

/// Which fluid system [`integrate`] advances. The two differ in how far
/// back the history ring is read and in the right-hand side.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Model {
    /// [`FluidModel`](crate::FluidModel)'s frozen-RTT ODE.
    FrozenRtt,
    /// [`DdeModel`](crate::DdeModel)'s delay-differential system.
    Dde,
}

/// Number of RK4 steps [`integrate`] takes over `duration`.
fn step_count(duration: f64, dt: f64) -> usize {
    (duration / dt).round().max(1.0) as usize
}

/// Integrates `model` at `params`' own flow count and records every
/// `sample_every`-th step: both models' `run_sampled`, with its panics.
pub(crate) fn solve(
    params: &FluidParams,
    model: Model,
    duration: f64,
    dt: f64,
    sample_every: usize,
) -> FluidSolution {
    let cap = step_count(duration, dt) / sample_every.max(1) + 2;
    let mut sol = FluidSolution {
        w: TimeSeries::with_capacity(cap),
        alpha: TimeSeries::with_capacity(cap),
        q: TimeSeries::with_capacity(cap),
        p: TimeSeries::with_capacity(cap),
    };
    integrate(
        params,
        model,
        [params.flows],
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

/// `(W, α, q)` of every lane: one integrator state or history slot.
#[derive(Clone, Copy)]
struct Lanes<const L: usize> {
    w: [f64; L],
    a: [f64; L],
    q: [f64; L],
}

/// The one RK4 loop: integrates `model` at `L` operating points of
/// `base` that differ only in `flows` (`base.flows` is ignored), in
/// lockstep.
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
    model: Model,
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
    // Delay in step units, in [0, rtt/dt]; the ring spans it.
    let lag = match model {
        // Whole steps, one fewer than the step-quantised RTT: the
        // marking input at step `s` is σ of the queue at step
        // `s − round(R0/dt) + 1`. The delay is therefore `R0 − dt` when
        // `dt` divides `R0`, not the `R0` of the equations, and zero at
        // `dt = R0`, where `p` responds on the very next step.
        Model::FrozenRtt => (p.rtt / dt).round().max(1.0) - 1.0,
        Model::Dde => p.rtt / dt,
    };
    let ring = lag.ceil() as usize + 1;
    // The round trip `R` the rate terms see at queue `q`: frozen at
    // `R0`, or `R0 + q/C` with the queueing delay in the loop.
    let round_trip = |q: f64| match model {
        Model::FrozenRtt => p.rtt,
        Model::Dde => p.rtt + q / p.capacity_pps,
    };

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
    // Pre-history reads repeat `q_init`, on which `step` is idempotent
    // from `new`.
    let mut marking = [MarkingState::new(p.marking, p.q_init); L];
    let mut x = init;

    for step in 0..=steps {
        let t = step as f64 * dt;
        // Lagged state at t − τ via linear interpolation between the
        // two bracketing history slots (deterministic: pure f64
        // arithmetic on stored samples; the fraction is 0 for a
        // whole-step lag).
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
            rl[i] = round_trip(lagged.q[i]);
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
        // The DDE holds the decrease `W(t−τ)·α(t−τ)/(2·Rl)·σ` of the
        // lagged state; the frozen-RTT model takes `W·α/(2·R0)·σ` on
        // each stage's own state.
        let decrease = |i: usize, w: f64, a: f64| w * a / (2.0 * rl[i]) * sigma[i];
        let mut held = [0.0; L];
        for i in 0..L {
            held[i] = decrease(i, lagged.w[i], lagged.a[i]);
        }
        let f = |i: usize, w: f64, a: f64, q: f64| -> (f64, f64, f64) {
            let r = round_trip(q);
            let dw = 1.0 / r
                - match model {
                    Model::FrozenRtt => decrease(i, w, a),
                    Model::Dde => held[i],
                };
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DdeModel, FluidMarking, FluidModel};

    const MODELS: [Model; 2] = [Model::FrozenRtt, Model::Dde];

    fn relay(n: f64) -> FluidParams {
        FluidParams::paper_defaults(n, FluidMarking::Relay { k: 40.0 })
    }

    #[test]
    fn rejects_invalid_params() {
        let edits: [fn(&mut FluidParams); 4] = [
            |p| p.g = 0.0,
            |p| p.flows = -1.0,
            |p| p.rtt = 0.0,
            |p| p.marking = FluidMarking::Hysteresis { k1: 50.0, k2: 30.0 },
        ];
        for edit in edits {
            let mut p = relay(10.0);
            edit(&mut p);
            assert!(FluidModel::new(p).is_err(), "{p:?}");
            assert!(DdeModel::new(p).is_err(), "{p:?}");
        }
    }

    #[test]
    fn state_stays_in_bounds() {
        for model in MODELS {
            let sol = solve(&relay(40.0), model, 0.05, 1e-6, 1);
            let (q, a) = (sol.q.values(), sol.alpha.values());
            let (w, p) = (sol.w.values(), sol.p.values());
            assert!(q.iter().all(|q| (0.0..10_000.0).contains(q)), "{model:?}");
            assert!(a.iter().all(|a| (0.0..=1.0).contains(a)), "{model:?}");
            assert!(w.iter().all(|&w| w >= 0.0 && w.is_finite()), "{model:?}");
            assert!(p.iter().all(|&p| p == 0.0 || p == 1.0), "{model:?}");
        }
    }

    #[test]
    fn additive_increase_is_exact_without_marking() {
        // Threshold far above the reachable queue and inflow below
        // capacity: p = 0 and q = 0 throughout, so R = R0 in both models
        // and dW/dt = 1/R0 exactly.
        let mut params = relay(1.0);
        params.marking = FluidMarking::Relay { k: 1e12 };
        let dur = 10.0 * params.rtt;
        let expected = params.w_init + dur / params.rtt;
        for model in MODELS {
            let sol = solve(&params, model, dur, params.rtt / 100.0, 1);
            let (_, w_end) = sol.w.last().unwrap();
            assert!((w_end - expected).abs() < 1e-3, "{model:?}: {w_end}");
        }
    }

    #[test]
    fn delayed_response_lasts_one_rtt() {
        // Empty marking history (q_init below K): p — and with it the
        // decrease term — stays 0 and α exactly α_init until the queue
        // that first crossed K is `lag` steps old; α moves on the next
        // step. Power-of-two rtt and dt make the lags exact: 128 steps
        // per RTT, read 127 back by the frozen-RTT model and 128 by the
        // DDE. At dt = rtt the frozen-RTT lag is 0: p responds on the
        // very next step after the one that lifts q above K.
        let mut params = relay(10.0);
        params.rtt = 2f64.powi(-13);
        params.w_init = 20.0; // arrivals above capacity: q builds at once
        let fine = 2f64.powi(-20);
        for (model, dt, lag) in [
            (Model::FrozenRtt, fine, 127),
            (Model::FrozenRtt, params.rtt, 0),
            (Model::Dde, fine, 128),
            (Model::Dde, params.rtt, 1),
        ] {
            let sol = solve(&params, model, 3.0 * params.rtt, dt, 1);
            let (q, p, alpha) = (sol.q.values(), sol.p.values(), sol.alpha.values());
            let first = q.iter().position(|&q| q > 40.0).expect("q crosses K");
            let marked = first + lag; // the step whose lagged queue is q[first]
            let case = format!("{model:?}, dt {dt}");
            assert!(p[..marked].iter().all(|&p| p == 0.0), "{case}");
            assert_eq!(p[marked], 1.0, "{case}");
            let unmoved = alpha[..=marked].iter().all(|&a| a == params.alpha_init);
            assert!(unmoved && alpha[marked + 1] > params.alpha_init, "{case}");
        }
    }

    #[test]
    fn hysteresis_dampens_oscillation() {
        // The paper's core claim in the fluid domain: hysteresis narrows
        // the limit cycle. 300 us RTT keeps the frozen-RTT loop
        // controllable at N = 100 (its full-marking window W = 2/α ≥ 2
        // needs a fair share C·R0/N ≥ 2). The DDE runs at N = 64, deep in
        // its oscillatory regime (at N ≈ 100 the queue-induced RTT
        // saturates the duty cycle for both schemes).
        for (model, n) in [(Model::FrozenRtt, 100.0), (Model::Dde, 64.0)] {
            let queue_std = |marking: FluidMarking| -> f64 {
                let mut params = FluidParams::paper_defaults(n, marking);
                params.rtt = 300e-6;
                let sol = solve(&params, model, 0.3, 1e-6, 10);
                let s = sol.q.window(0.15, 0.3).summary();
                assert!(s.max < 2_000.0, "{model:?}: queue diverged: max {}", s.max);
                s.std
            };
            let relay_std = queue_std(FluidMarking::Relay { k: 40.0 });
            let hyst_std = queue_std(FluidMarking::Hysteresis { k1: 30.0, k2: 50.0 });
            assert!(hyst_std < relay_std, "{model:?}: {hyst_std} !< {relay_std}");
        }
    }
}
