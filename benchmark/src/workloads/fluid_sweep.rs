//! `fluid_sweep` — the DDE fluid model swept over N = 10¹…10⁶ for relay
//! and hysteresis marking at the scale-out operating point, the ODE
//! `FluidModel` at twelve paper-scale operating points, and the
//! describing-function / Nyquist prediction for each of those.
//!
//! Why it exists: it uses **no** packet engine. It is the bypass
//! workload for every `sim`/`tcp` change (prediction: no movement) and
//! the only one that shows a `fluid`/`control` change.

use std::time::Instant;

use dctcp_control::{analyze, AnalysisGrid, HysteresisDf, PlantParams, RelayDf, StabilityReport};
use dctcp_fluid::{
    sweep, FluidMarking, FluidModel, FluidParams, FluidRunConfig, FluidSolution, SweepPoint,
};

use super::{Checks, Counts, Digest, Env, Rep, WorkUnit, Workload};
use crate::spans::span;

pub struct FluidSweep {
    per_decade: u32,
    /// Model seconds integrated per operating point.
    duration: f64,
    /// Round-trip time, jittered by the seed (same work, other inputs).
    rtt: f64,
}

/// Everything one repetition evaluates.
struct Grid {
    flows: Vec<f64>,
    dde: [FluidParams; 2],
    ode: Vec<FluidParams>,
    plants: Vec<(PlantParams, bool)>,
    cfg: FluidRunConfig,
}

impl FluidSweep {
    pub fn new(env: &Env) -> Self {
        FluidSweep {
            per_decade: if env.quick { 2 } else { 40 },
            duration: if env.quick { 0.02 } else { 0.05 },
            rtt: 100e-6 * (1.0 + (env.seed % 97) as f64 * 1e-4),
        }
    }

    fn grid(&self) -> Grid {
        // The `fluid_scaleout` fabric: 400 Tb/s aggregate, K = 160k.
        let scale_out = |marking| FluidParams {
            capacity_pps: 400e12 / (8.0 * 1500.0),
            flows: 1.0, // set per sweep point
            rtt: self.rtt,
            g: 1.0 / 16.0,
            marking,
            w_init: 1.0,
            alpha_init: 0.0,
            q_init: 0.0,
        };
        let mut ode = Vec::new();
        let mut plants = Vec::new();
        for n in [10.0, 20.0, 40.0, 60.0, 80.0, 100.0] {
            for (hysteresis, marking) in [
                (false, FluidMarking::Relay { k: 40.0 }),
                (true, FluidMarking::Hysteresis { k1: 30.0, k2: 50.0 }),
            ] {
                let mut p = FluidParams::paper_defaults(n, marking);
                p.rtt = self.rtt;
                ode.push(p);
                let plant = PlantParams::from_link(10e9, 1500, n, self.rtt, 1.0 / 16.0);
                plants.push((plant, hysteresis));
            }
        }
        Grid {
            flows: sweep::log_flows(1, 6, self.per_decade),
            dde: [
                scale_out(FluidMarking::Relay { k: 160_000.0 }),
                scale_out(FluidMarking::Hysteresis {
                    k1: 120_000.0,
                    k2: 200_000.0,
                }),
            ],
            ode,
            plants,
            cfg: FluidRunConfig {
                dt: 1e-6,
                duration: self.duration,
                transient: self.duration * 0.4,
                sample_every: 20,
            },
        }
    }
}

fn digest_point(d: &mut Digest, p: &SweepPoint, checks: &mut Checks) {
    let fields = [
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
    ];
    for v in fields {
        d.f64(v);
    }
    let sane = fields.iter().all(|v| v.is_finite()) && (0.0..=1.0).contains(&p.utilization);
    checks.check(sane, || {
        format!("fluid point N={} is not finite/sane: {p:?}", p.flows)
    });
}

fn digest_solution(d: &mut Digest, s: &FluidSolution, checks: &mut Checks) {
    let mut finite = true;
    for series in [&s.w, &s.alpha, &s.q, &s.p] {
        let summary = series.summary();
        d.u64(series.len() as u64)
            .f64(summary.mean)
            .f64(summary.max);
        finite &= summary.mean.is_finite() && summary.max.is_finite();
    }
    checks.check(finite, || "ODE fluid solution is not finite".into());
}

fn digest_stability(d: &mut Digest, r: &StabilityReport) {
    d.u64(u64::from(r.stable)).u64(r.intersections.len() as u64);
    if let Some(lc) = r.limit_cycle {
        d.f64(lc.frequency).f64(lc.amplitude);
    }
}

impl Workload for FluidSweep {
    fn unit(&self) -> WorkUnit {
        WorkUnit::Points
    }

    fn setup_only(&mut self, _checks: &mut Checks) {
        std::hint::black_box(self.grid());
    }

    fn rep(&mut self, checks: &mut Checks) -> Rep {
        let grid = {
            let _s = span("workloads.instantiate");
            self.grid()
        };
        let start = Instant::now();
        let mut digest = Digest::default();
        let mut points = 0u64;
        {
            let _s = span("fluid.sweep");
            for base in &grid.dde {
                let swept = sweep::sweep(base, &grid.flows, &grid.cfg);
                checks.check(swept.is_ok(), || format!("fluid sweep failed: {swept:?}"));
                for p in swept.iter().flatten() {
                    digest_point(&mut digest, p, checks);
                    points += 1;
                }
            }
        }
        {
            let _s = span("fluid.ode");
            for params in &grid.ode {
                let model = FluidModel::new(*params);
                checks.check(model.is_ok(), || format!("ODE model rejected {params:?}"));
                if let Ok(mut model) = model {
                    let sol = model.run_sampled(grid.cfg.duration, grid.cfg.dt, 50);
                    digest_solution(&mut digest, &sol, checks);
                    points += 1;
                }
            }
        }
        {
            let _s = span("control.analyze");
            let analysis = AnalysisGrid::default();
            let relay = RelayDf::new(40.0).expect("valid threshold");
            let hysteresis = HysteresisDf::new(30.0, 50.0).expect("valid thresholds");
            for (plant, is_hysteresis) in &grid.plants {
                let report = if *is_hysteresis {
                    analyze(plant, &hysteresis, &analysis)
                } else {
                    analyze(plant, &relay, &analysis)
                };
                digest_stability(&mut digest, &report);
                points += 1;
            }
        }
        Rep {
            wall_s: start.elapsed().as_secs_f64(),
            work: points as f64,
            digest: digest.finish(),
            counts: Counts::default(),
        }
    }
}
