//! Seeded randomized tests of the fluid integrators (ODE and DDE), and
//! the bit-identity pins of the DDE sweep and the ODE trajectories.

use dctcp_fluid::sweep::{evaluate, sweep};
use dctcp_fluid::{
    equilibrium, oscillation_metrics, DdeModel, FluidMarking, FluidModel, FluidParams,
    FluidRunConfig, FluidSolution, SweepPoint,
};
use dctcp_rng::Pcg32;

fn params(n: f64, rtt: f64, marking: FluidMarking) -> FluidParams {
    let mut p = FluidParams::paper_defaults(n, marking);
    p.rtt = rtt;
    p
}

/// A fluid model's `run_sampled(duration, dt, sample_every)`.
type Run = fn(FluidParams, f64, f64, usize) -> FluidSolution;

/// Both fluid models, through their public constructors.
const MODELS: [(&str, Run); 2] = [
    ("ode", |p, d, dt, n| {
        FluidModel::new(p).unwrap().run_sampled(d, dt, n)
    }),
    ("dde", |p, d, dt, n| {
        DdeModel::new(p).unwrap().run_sampled(d, dt, n)
    }),
];

/// State stays physical (non-negative queue and window, α in [0,1])
/// for arbitrary parameters in the controllable regime, in both models.
#[test]
fn state_stays_physical() {
    let mut rng = Pcg32::seed_from_u64(0xF1_0001);
    for _ in 0..32 {
        let n = rng.range_f64(1.0, 80.0);
        let rtt_us = rng.range_f64(100.0, 1000.0);
        let k = rng.range_f64(5.0, 100.0);
        let p = params(n, rtt_us * 1e-6, FluidMarking::Relay { k });
        for (name, run) in MODELS {
            let sol = run(p, 0.02, 1e-6, 20);
            assert!(sol.q.values().iter().all(|&q| q >= 0.0), "{name}");
            assert!(
                sol.alpha.values().iter().all(|a| (0.0..=1.0).contains(a)),
                "{name}"
            );
            assert!(sol.w.values().iter().all(|&w| w >= 0.0), "{name}");
        }
    }
}

/// The same step size reproduces the trajectory bit-for-bit, and
/// halving it moves the mean queue only marginally (RK4 convergence on
/// the smooth segments) — in both models, across randomized step sizes
/// that do *not* divide the delay (exercising the history ring).
#[test]
fn step_refinement_converges() {
    let mut rng = Pcg32::seed_from_u64(0xD1_0002);
    for _ in 0..8 {
        let n = rng.range_f64(5.0, 40.0);
        let dt = rng.range_f64(0.7, 2.9) * 1e-6;
        let p = params(n, 300e-6, FluidMarking::Relay { k: 40.0 });
        for (name, run) in MODELS {
            let (a, b) = (run(p, 0.1, dt, 50), run(p, 0.1, dt, 50));
            assert_eq!(a.q.values(), b.q.values(), "{name}: same dt, other bits");
            assert_eq!(a.w.values(), b.w.values(), "{name}: same dt, other bits");
            // Compare the *time-average* queue rather than pointwise
            // values: the marking relay makes trajectories chaotic in
            // phase, but the mean must be step-robust.
            let (am, fm) = (
                a.q.summary().mean,
                run(p, 0.1, dt / 2.0, 50).q.summary().mean,
            );
            assert!(
                (am - fm).abs() <= 0.25 * fm.abs().max(5.0),
                "{name}, N = {n}, dt = {dt}: mean queue diverges under refinement: {am} vs {fm}"
            );
        }
    }
}

/// With marking disabled (unreachable threshold) the window grows
/// exactly linearly at 1/R0 per second: in the frozen-RTT model at any
/// queue, and in the DDE while the queue stays empty so `R(t) = R0`.
#[test]
fn additive_increase_is_exact_without_marking() {
    let mut rng = Pcg32::seed_from_u64(0xF1_0003);
    for _ in 0..32 {
        let n = rng.range_f64(1.0, 50.0);
        let rtt_us = rng.range_f64(50.0, 500.0);
        let rtt = rtt_us * 1e-6;
        let p = params(n, rtt, FluidMarking::Relay { k: 1e15 });
        let dur = 20.0 * rtt;
        let expected = p.w_init + dur / rtt;
        // The DDE row's capacity, above the peak arrival rate N·W/R0,
        // keeps q at 0.
        let empty = FluidParams {
            capacity_pps: 2.0 * n * expected / rtt,
            ..p
        };
        for ((name, run), p) in MODELS.into_iter().zip([p, empty]) {
            let sol = run(p, dur, rtt / 64.0, 1);
            let (_, w_end) = sol.w.last().unwrap();
            assert!(
                (w_end - expected).abs() < 1e-2,
                "{name}: {w_end} vs {expected}"
            );
        }
    }
}

/// DDE equilibrium: the steady-state marking duty matches the
/// closed-form fixed point σ* = √(2/W*) across randomized operating
/// points in the unsaturated regime.
#[test]
fn dde_duty_matches_equilibrium_closed_form() {
    let mut rng = Pcg32::seed_from_u64(0xD1_0001);
    for _ in 0..12 {
        let n = rng.range_f64(5.0, 40.0);
        let k = rng.range_f64(20.0, 60.0);
        let p = params(n, 300e-6, FluidMarking::Relay { k });
        let eq = equilibrium(&p);
        assert!(!eq.saturated, "regime drifted: N = {n}, K = {k}");
        let mut m = DdeModel::new(p).unwrap();
        let sol = m.run_sampled(0.4, 1e-6, 10);
        let duty = sol.p.window(0.2, 0.4).summary().mean;
        assert!(
            (duty - eq.marking_duty).abs() / eq.marking_duty < 0.25,
            "N = {n}, K = {k}: duty {duty} vs closed form {}",
            eq.marking_duty
        );
    }
}

/// DDE differential test: DT-DCTCP's hysteresis never oscillates
/// (materially) wider than DCTCP's relay across a randomized band of
/// the oscillatory regime.
#[test]
fn dde_damping_ordering_holds_across_seeds() {
    let mut rng = Pcg32::seed_from_u64(0xD0_0001);
    for _ in 0..12 {
        let n = rng.range_f64(48.0, 80.0);
        let k = rng.range_f64(35.0, 45.0);
        let run = |marking: FluidMarking| -> f64 {
            let mut m = DdeModel::new(params(n, 300e-6, marking)).unwrap();
            let sol = m.run_sampled(0.3, 1e-6, 10);
            sol.q.window(0.15, 0.3).summary().std
        };
        let relay_std = run(FluidMarking::Relay { k });
        let hyst_std = run(FluidMarking::Hysteresis {
            k1: k - 10.0,
            k2: k + 10.0,
        });
        assert!(
            hyst_std <= relay_std * 1.05,
            "N = {n}, K = {k}: hysteresis std {hyst_std} above relay {relay_std}"
        );
    }
}

/// Oscillation metrics are scale-consistent: amplitude never exceeds
/// (max − min)/2 bound and std never exceeds amplitude.
#[test]
fn oscillation_metrics_are_consistent() {
    let mut rng = Pcg32::seed_from_u64(0xF1_0004);
    for _ in 0..32 {
        let n = rng.range_f64(10.0, 80.0);
        let p = params(n, 300e-6, FluidMarking::Hysteresis { k1: 30.0, k2: 50.0 });
        let mut m = FluidModel::new(p).unwrap();
        let sol = m.run_sampled(0.05, 1e-6, 10);
        let metrics = oscillation_metrics(&sol.q.window(0.02, 0.05));
        assert!(metrics.std <= metrics.amplitude + 1e-9);
        if let Some(period) = metrics.period {
            assert!(period > 0.0);
            assert!(period < 0.05);
        }
    }
}

/// Flow counts of the pin grid: one unsaturated point, then the
/// saturated regime up to 10⁶ on the paper's 10 Gb/s fabric.
const PIN_FLOWS: [f64; 9] = [10.0, 40.0, 100.0, 400.0, 1e3, 1e4, 1e5, 3e5, 1e6];

/// FNV-1a over the bits of every `SweepPoint` field of
/// `sweep(base, &PIN_FLOWS, cfg)` for each of [`pin_configs`], captured
/// at the commit before the lockstep kernel (when `sweep` was one
/// `evaluate` per point). Any change to the DDE arithmetic moves it.
const PIN_DIGEST: u64 = 0xc4a4_3e55_0639_c4b4;

/// Relay and hysteresis × `dt` 1 µs and 1.3 µs (which does not divide
/// the 100 µs delay) × empty start and `q_init > K` with `α = 1`.
fn pin_configs() -> Vec<(FluidParams, FluidRunConfig)> {
    let mut out = Vec::new();
    for marking in [
        FluidMarking::Relay { k: 40.0 },
        FluidMarking::Hysteresis { k1: 30.0, k2: 50.0 },
    ] {
        for dt in [1e-6, 1.3e-6] {
            for overloaded in [false, true] {
                let mut p = FluidParams::paper_defaults(1.0, marking);
                if overloaded {
                    p.q_init = 100.0;
                    p.alpha_init = 1.0;
                }
                let cfg = FluidRunConfig {
                    dt,
                    duration: 0.005,
                    transient: 0.002,
                    sample_every: 7,
                };
                out.push((p, cfg));
            }
        }
    }
    out
}

fn bits(p: &SweepPoint) -> [u64; 11] {
    [
        p.flows,
        p.queue_mean,
        p.queue_std,
        p.queue_max,
        p.osc_amplitude,
        p.osc_freq_hz,
        p.osc_cycles,
        p.w_mean,
        p.alpha_mean,
        p.marking_duty,
        p.utilization,
    ]
    .map(f64::to_bits)
}

/// `evaluate` as it was before the streaming reducer: the full
/// trajectory from `DdeModel::run_sampled`, windowed, then reduced.
fn evaluate_via_solution(params: &FluidParams, cfg: &FluidRunConfig) -> SweepPoint {
    let sol = DdeModel::new(*params)
        .unwrap()
        .run_sampled(cfg.duration, cfg.dt, cfg.sample_every);
    let q_tail = sol.q.window(cfg.transient, cfg.duration);
    let w_tail = sol.w.window(cfg.transient, cfg.duration);
    let osc = oscillation_metrics(&q_tail);
    let window = cfg.duration - cfg.transient;
    let (osc_freq_hz, osc_cycles) = match osc.period {
        Some(p) if p > 0.0 => (1.0 / p, window / p),
        _ => (0.0, 0.0),
    };
    let mut util_sum = 0.0;
    let mut samples = 0u64;
    for ((_, q), (_, w)) in q_tail.iter().zip(w_tail.iter()) {
        util_sum += if q > 0.0 {
            1.0
        } else {
            let r = params.rtt + q / params.capacity_pps;
            (params.flows * w / r / params.capacity_pps).min(1.0)
        };
        samples += 1;
    }
    SweepPoint {
        flows: params.flows,
        queue_mean: osc.mean,
        queue_std: osc.std,
        queue_max: q_tail.summary().max,
        osc_amplitude: osc.amplitude,
        osc_freq_hz,
        osc_cycles,
        w_mean: w_tail.summary().mean,
        alpha_mean: sol.alpha.window(cfg.transient, cfg.duration).summary().mean,
        marking_duty: sol.p.window(cfg.transient, cfg.duration).summary().mean,
        utilization: if samples == 0 {
            0.0
        } else {
            util_sum / samples as f64
        },
    }
}

/// Every lane of the lockstep sweep is bit-identical to integrating its
/// point alone — through `evaluate` and through the full trajectory —
/// for every chunk length up to two full chunks plus a padded one.
#[test]
fn sweep_is_bit_identical_per_point() {
    for (base, cfg) in pin_configs() {
        let reference: Vec<[u64; 11]> = PIN_FLOWS
            .iter()
            .map(|&n| {
                let params = FluidParams { flows: n, ..base };
                let single = bits(&evaluate(&params, &cfg).unwrap());
                assert_eq!(
                    single,
                    bits(&evaluate_via_solution(&params, &cfg)),
                    "evaluate vs run_sampled at N = {n}, {base:?}, {cfg:?}"
                );
                single
            })
            .collect();
        for len in 1..=PIN_FLOWS.len() {
            let swept: Vec<[u64; 11]> = sweep(&base, &PIN_FLOWS[..len], &cfg)
                .unwrap()
                .iter()
                .map(bits)
                .collect();
            assert_eq!(swept, reference[..len], "len {len}, {base:?}, {cfg:?}");
        }
    }
}

/// FNV-1a offset basis.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds the little-endian bytes of `words` into the FNV-1a hash `h`.
fn fnv1a(mut h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    for b in words.into_iter().flat_map(u64::to_le_bytes) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The sweep reproduces the parent commit's bits on the pin grid.
#[test]
fn sweep_matches_pinned_digest() {
    let mut h = FNV_BASIS;
    for (base, cfg) in pin_configs() {
        for p in sweep(&base, &PIN_FLOWS, &cfg).unwrap() {
            h = fnv1a(h, bits(&p));
        }
    }
    assert_eq!(h, PIN_DIGEST, "digest {h:#018x}");
}

/// FNV-1a over the bits of every `(t, value)` sample of `w`, `α`, `q`
/// and `p` that `FluidModel::run_sampled` records on [`ode_pin_runs`],
/// captured while the frozen-RTT model still had its own RK4 loop. Any
/// change to the ODE arithmetic or its marking delay moves it.
const ODE_PIN_DIGEST: u64 = 0xac60_dcfc_3b28_2386;

/// Relay `K = 40` and hysteresis 30/50 × `dt` 1 µs, 1.3 µs (which does
/// not divide the 100 µs RTT) and `= rtt` (the shortest marking delay)
/// × an empty start, `q₀ = 100` with `α₀ = 1`, and `q₀` exactly at K1
/// and at K2 × `N` 10 and 100 × `sample_every` 1 and 7, over 5 ms.
fn ode_pin_runs() -> Vec<(FluidParams, f64, usize)> {
    let mut out = Vec::new();
    for marking in [
        FluidMarking::Relay { k: 40.0 },
        FluidMarking::Hysteresis { k1: 30.0, k2: 50.0 },
    ] {
        for (q_init, alpha_init) in [(0.0, 0.0), (100.0, 1.0), (30.0, 0.0), (50.0, 0.0)] {
            for n in [10.0, 100.0] {
                let mut p = FluidParams::paper_defaults(n, marking);
                p.q_init = q_init;
                p.alpha_init = alpha_init;
                for dt in [1e-6, 1.3e-6, p.rtt] {
                    for sample_every in [1, 7] {
                        out.push((p, dt, sample_every));
                    }
                }
            }
        }
    }
    out
}

/// The frozen-RTT model reproduces its pinned trajectories bit for bit.
#[test]
fn ode_matches_pinned_digest() {
    let mut h = FNV_BASIS;
    for (p, dt, sample_every) in ode_pin_runs() {
        let sol = FluidModel::new(p)
            .unwrap()
            .run_sampled(0.005, dt, sample_every);
        for series in [&sol.w, &sol.alpha, &sol.q, &sol.p] {
            h = fnv1a(
                h,
                series.iter().flat_map(|(t, v)| [t.to_bits(), v.to_bits()]),
            );
        }
    }
    assert_eq!(h, ODE_PIN_DIGEST, "digest {h:#018x}");
}

/// A step longer than the feedback delay, or so short that the delay
/// spans more than 2²⁰ steps, is a typed error, not a panic or an
/// unbounded allocation, and `sweep` reports the first offending point
/// in flow order.
#[test]
fn step_beyond_delay_is_an_error() {
    let cfg = FluidRunConfig {
        dt: 2e-4,
        duration: 0.01,
        transient: 0.005,
        sample_every: 1,
    };
    let p = FluidParams::paper_defaults(10.0, FluidMarking::Relay { k: 40.0 });
    assert!(p.rtt < cfg.dt);
    let err = evaluate(&p, &cfg).unwrap_err();
    assert!(err.to_string().contains("rtt"), "{err}");
    assert!(sweep(&p, &[10.0, 20.0], &cfg).is_err());
    assert_eq!(sweep(&p, &[], &cfg).unwrap(), Vec::new());

    // A delay of more than 2²⁰ steps is refused before the kernel
    // allocates its one-state-per-step history ring.
    let ok = FluidRunConfig { dt: 1e-6, ..cfg };
    let long = FluidParams { rtt: 10.0, ..p };
    let err = evaluate(&long, &ok).unwrap_err();
    assert!(err.to_string().contains("2^20"), "{err}");
    assert!(sweep(&long, &[10.0, 20.0], &ok).is_err());

    // Point 6 (second chunk) has an invalid flow count, point 2 a valid
    // one: the error is the flow count's, and comes before integration.
    let flows = [10.0, 20.0, 30.0, 40.0, 50.0, -1.0];
    let err = sweep(&p, &flows, &ok).unwrap_err();
    assert!(err.to_string().contains("flows"), "{err}");
}
