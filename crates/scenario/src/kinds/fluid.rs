//! `kind = fluid`: the delay-differential fluid model integrated at the
//! long-lived dumbbell's operating point — no packets, so flow counts
//! may reach [`MAX_FLUID_FLOWS`]. Cells are seed-free and take
//! milliseconds of wall clock.

use dctcp_cache::KeyBuilder;
use dctcp_core::{MarkingScheme, QueueLevel};
use dctcp_fluid::{FluidMarking, FluidParams, FluidRunConfig};
use dctcp_sim::SimError;
use dctcp_tcp::CongestionControl;

use super::{KindSpec, ScenarioKind};
use crate::parse::{parse_positive_duration, Document};
use crate::runner::Cell;
use crate::spec::{ScenarioSpec, TopologySpec, MAX_FLUID_FLOWS};
use crate::ScenarioError;

// The scalar reductions `dctcp_fluid::sweep::evaluate` produces, in its
// field order, so fluid artifacts compare cell-for-cell against packet
// anchors that share metric names.
pub(super) const METRICS: &[&str] = &[
    "queue_mean",
    "queue_std",
    "queue_max",
    "osc_amplitude",
    "osc_freq_hz",
    "osc_cycles",
    "w_mean",
    "alpha_mean",
    "marking_duty",
    "utilization",
];

/// Most integrator steps one rtt may span: the bound (2²⁰) that
/// `dctcp_fluid::sweep::evaluate` puts on its per-step history ring.
const MAX_DELAY_STEPS: f64 = 1_048_576.0;

/// Parses the fluid kind's sections. Beyond the shared dumbbell, the
/// integrator step must resolve the feedback delay in at most
/// [`MAX_DELAY_STEPS`] steps, the sampling stride must not undersample
/// the step, and every marking must have a continuous-domain analogue:
/// a packet-denominated relay or hysteresis, the laws [`FluidMarking`]
/// models.
pub(super) fn parse(
    doc: &Document,
    markings: &[(String, MarkingScheme)],
) -> Result<KindSpec, ScenarioError> {
    let d = super::long_lived::dumbbell(doc, ScenarioKind::Fluid)?;
    // The DDE's cost does not grow with N, so fluid sweeps may
    // extrapolate far past the packet engine's cap.
    let (s, mut run) = super::run_section(
        doc,
        &["flows", "warmup", "duration", "trace", "dt"],
        MAX_FLUID_FLOWS,
    )?;
    s.set("dt", &mut run.dt, parse_positive_duration)?;
    // Default metric sampling: every integration step — the trajectory
    // is cheap and amplitude metrics want the full resolution.
    run.trace_interval = run.dt;
    s.set("trace", &mut run.trace_interval, parse_positive_duration)?;
    super::no_workload(doc, ScenarioKind::Fluid)?;

    let key_line = |key: &str| s.get(key).map_or(s.line, |e| e.line);
    if run.dt > d.rtt {
        return Err(ScenarioError::OutOfRange {
            line: key_line("dt"),
            key: "dt".into(),
            msg: format!(
                "integrator step must not exceed the {} ns rtt, got {} ns",
                d.rtt.as_nanos(),
                run.dt.as_nanos()
            ),
        });
    }
    // The cell hands `evaluate` these same f64s, so the checks agree.
    if d.rtt.as_secs_f64() / run.dt.as_secs_f64() > MAX_DELAY_STEPS {
        return Err(ScenarioError::OutOfRange {
            line: key_line("dt"),
            key: "dt".into(),
            msg: format!(
                "the {} ns rtt spans more than {MAX_DELAY_STEPS} integrator steps of {} ns",
                d.rtt.as_nanos(),
                run.dt.as_nanos()
            ),
        });
    }
    if run.trace_interval < run.dt {
        return Err(ScenarioError::OutOfRange {
            line: key_line("trace"),
            key: "trace".into(),
            msg: "trace stride must be at least the integrator step `dt`".into(),
        });
    }
    for s in doc.sections_named("marking") {
        let Some((_, scheme)) = markings
            .iter()
            .find(|(l, _)| Some(l.as_str()) == s.label.as_deref())
        else {
            continue;
        };
        if fluid_marking(scheme).is_none() {
            return Err(ScenarioError::BadValue {
                line: s.line,
                key: format!("marking \"{}\"", s.label.as_deref().unwrap_or("")),
                msg: "fluid scenarios support only dctcp / dt-dctcp markings \
                      with packet-denominated thresholds"
                    .into(),
            });
        }
    }
    super::no_faults(doc)?;
    Ok(KindSpec::new(TopologySpec::Dumbbell(d), run))
}

/// The continuous-domain marking law of a packet-denominated DCTCP
/// relay or DT-DCTCP hysteresis.
fn fluid_marking(scheme: &MarkingScheme) -> Option<FluidMarking> {
    match *scheme {
        MarkingScheme::Dctcp {
            k: QueueLevel::Packets(k),
        } => Some(FluidMarking::Relay { k: f64::from(k) }),
        MarkingScheme::DtDctcp {
            k1: QueueLevel::Packets(k1),
            k2: QueueLevel::Packets(k2),
        } => Some(FluidMarking::Hysteresis {
            k1: f64::from(k1),
            k2: f64::from(k2),
        }),
        _ => None,
    }
}

pub(super) fn simulated_ns(spec: &ScenarioSpec) -> u64 {
    spec.run.warmup.as_nanos() + spec.run.duration.as_nanos()
}

pub(super) fn key(spec: &ScenarioSpec, kb: &mut KeyBuilder) {
    kb.field("warmup_ns", &spec.run.warmup.as_nanos().to_string())
        .field("duration_ns", &spec.run.duration.as_nanos().to_string())
        .field("dt_ns", &spec.run.dt.as_nanos().to_string())
        .field("trace_ns", &spec.run.trace_interval.as_nanos().to_string());
}

/// Integrates one cell: the DDE at the cell's operating point, reduced
/// to the kind's metrics. Milliseconds of wall clock per cell, so
/// cooperative cancellation is not threaded through — the cell finishes
/// long before any watchdog deadline.
pub(super) fn run_cell(spec: &ScenarioSpec, cell: &Cell) -> Result<[f64; METRICS.len()], SimError> {
    let TopologySpec::Dumbbell(d) = spec.topology else {
        unreachable!("fluid scenarios parse a dumbbell topology");
    };
    // The parser already restricts fluid markings; this re-check keeps
    // programmatic callers honest.
    let marking = fluid_marking(&cell.scheme).ok_or_else(|| {
        SimError::InvalidConfig(
            "fluid cells support only packet-denominated dctcp / dt-dctcp markings".into(),
        )
    })?;
    let g = match spec.tcp.cc {
        CongestionControl::Dctcp { g } | CongestionControl::D2tcp { g, .. } => g,
        _ => {
            return Err(SimError::InvalidConfig(
                "fluid cells model DCTCP dynamics and need a dctcp [tcp] config".into(),
            ))
        }
    };
    let params = FluidParams {
        // Packet-denominated capacity at the paper's 1500 B MTU, the
        // same conversion `PlantParams::from_link` uses.
        capacity_pps: d.bottleneck_bps as f64 / (8.0 * 1500.0),
        flows: f64::from(cell.flows),
        rtt: d.rtt.as_secs_f64(),
        g,
        marking,
        w_init: 1.0,
        alpha_init: 0.0,
        q_init: 0.0,
    };
    let dt = spec.run.dt.as_secs_f64();
    let cfg = FluidRunConfig {
        dt,
        duration: (spec.run.warmup + spec.run.duration).as_secs_f64(),
        transient: spec.run.warmup.as_secs_f64(),
        sample_every: (spec.run.trace_interval.as_secs_f64() / dt)
            .round()
            .max(1.0) as usize,
    };
    let p = dctcp_fluid::sweep::evaluate(&params, &cfg)
        .map_err(|e| SimError::InvalidConfig(format!("fluid cell: {e}")))?;
    Ok([
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
    ])
}

#[cfg(test)]
mod tests {
    use crate::runner::{cell_key, matrix, run_cell_raw, run_clean};
    use crate::{ScenarioKind, ScenarioSpec, TopologySpec};
    use dctcp_sim::SimDuration;

    /// A two-marking fluid matrix at the paper's oscillatory operating
    /// point — integrates in milliseconds.
    const FLUID: &str = "\
[scenario]
name = ftiny
kind = fluid

[topology]
bottleneck = 10 Gbps
rtt = 300 us

[run]
flows = 8, 64
warmup = 20 ms
duration = 30 ms
dt = 1 us

[marking \"dctcp\"]
scheme = dctcp
k = 40 pkts

[marking \"dt\"]
scheme = dt-dctcp
k1 = 30 pkts
k2 = 50 pkts
";

    #[test]
    fn fluid_kind_parses_with_dumbbell_defaults() {
        let s = ScenarioSpec::parse(&FLUID.replace("flows = 8, 64", "flows = 8, 100000")).unwrap();
        assert_eq!(s.kind, ScenarioKind::Fluid);
        // Shares the long-lived dumbbell surface and takes flow counts
        // far past the packet engine's cap.
        let TopologySpec::Dumbbell(d) = s.topology else {
            panic!("{:?}", s.topology)
        };
        assert_eq!(d.bottleneck_bps, 10_000_000_000);
        assert_eq!(s.run.flows, vec![8, 100_000]);
        assert_eq!(s.run.dt, SimDuration::from_micros(1));
        // Trace (the metric sampling stride) defaults to the step.
        assert_eq!(s.run.trace_interval, s.run.dt);
        // Fluid cells are seed-free: one cell per (marking, flows).
        assert_eq!(s.num_points(), 4);
        assert!(s.xvals.is_empty());
    }

    #[test]
    fn xval_sections_parse_with_defaults() {
        let src = format!(
            "{FLUID}
[xval \"amp\"]
packet = fig05_oscillation
marking = dctcp
metric = osc_amplitude
flows = 8
max_rel_err = 0.5
"
        );
        let s = ScenarioSpec::parse(&src).unwrap();
        assert_eq!(s.xvals.len(), 1);
        let x = &s.xvals[0];
        assert_eq!(x.packet_scenario, "fig05_oscillation");
        // Defaults mirror the fluid-side selections.
        assert_eq!(x.packet_metric, "osc_amplitude");
        assert_eq!(x.packet_marking, "dctcp");
        assert_eq!(x.flows, vec![8]);
    }

    #[test]
    fn fluid_cells_oscillate_and_are_thread_invariant() {
        let a = run_clean(&ScenarioSpec::parse(FLUID).unwrap());
        assert_eq!(a.points.len(), 4);
        // The oscillatory regime leaves its signature: a limit cycle at
        // N = 64 with near-full utilization, damped under hysteresis.
        let std_dc = a.metric("dctcp", 64, "queue_std").unwrap();
        let std_dt = a.metric("dt", 64, "queue_std").unwrap();
        assert!(std_dt < std_dc, "{std_dt} !< {std_dc}");
        assert!(a.metric("dctcp", 64, "utilization").unwrap() > 0.95);
        assert!(a.metric("dctcp", 64, "osc_cycles").unwrap() >= 1.0);
    }

    #[test]
    fn fluid_run_edits_move_the_cell_key() {
        let spec = ScenarioSpec::parse(FLUID).unwrap();
        let cell = matrix(&spec).swap_remove(0);
        let base = cell_key(&spec, &cell, "fp");

        let mut finer = spec.clone();
        finer.run.dt = SimDuration::from_nanos(500);
        assert_ne!(base, cell_key(&finer, &cell, "fp"));

        let mut longer = spec.clone();
        longer.run.duration = SimDuration::from_millis(40);
        assert_ne!(base, cell_key(&longer, &cell, "fp"));

        let mut wider = cell.clone();
        wider.flows = 100_000;
        assert_ne!(base, cell_key(&spec, &wider, "fp"));
    }

    #[test]
    fn fluid_cells_reject_non_dctcp_inputs() {
        // Byte-denominated thresholds and non-DCTCP congestion control
        // are parser-unreachable but must still fail cleanly for
        // programmatic callers.
        let spec = ScenarioSpec::parse(FLUID).unwrap();
        let mut cell = matrix(&spec).swap_remove(0);
        cell.scheme = dctcp_core::MarkingScheme::dctcp_bytes(60_000);
        assert!(run_cell_raw(&spec, &cell, None).is_err());

        let mut reno = spec.clone();
        reno.tcp.cc = dctcp_tcp::CongestionControl::Reno;
        let cell = matrix(&reno).swap_remove(0);
        assert!(run_cell_raw(&reno, &cell, None).is_err());
    }
}
