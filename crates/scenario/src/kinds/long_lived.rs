//! `kind = long_lived`: N long-lived flows over one dumbbell bottleneck
//! (Figs. 1, 5–8, 10–12), optionally under scripted faults.

use dctcp_cache::KeyBuilder;
use dctcp_sim::{Capacity, FaultAction, FaultPlan, SimDuration, SimError, SimTime};
use dctcp_stats::{oscillation, OscillationSummary};
use dctcp_workloads::LongLivedScenario;

use super::{KindSpec, ScenarioKind};
use crate::parse::{
    parse_capacity, parse_duration, parse_positive_duration, parse_rate_bps, parse_window, Document,
};
use crate::runner::Cell;
use crate::spec::{ScenarioSpec, TopologySpec, MAX_FLOWS};
use crate::ScenarioError;

/// Dumbbell topology parameters for [`ScenarioKind::LongLived`]; the
/// fluid and fct kinds reuse it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DumbbellSpec {
    /// Bottleneck rate, bits/second.
    pub bottleneck_bps: u64,
    /// Propagation round-trip time.
    pub rtt: SimDuration,
    /// Bottleneck buffer.
    pub buffer: Capacity,
}

/// Scripted faults on the bottleneck link (long-lived kind only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSpec {
    /// ECN-bleaching window (CE marks stripped), relative to sim start.
    pub bleach: Option<(SimDuration, SimDuration)>,
    /// Link-down window, relative to sim start.
    pub down: Option<(SimDuration, SimDuration)>,
}

pub(super) const METRICS: &[&str] = &[
    "queue_mean",
    "queue_std",
    "queue_max",
    "osc_amplitude",
    "osc_max_amplitude",
    "osc_cycles",
    "mark_rate",
    "marks",
    "drops",
    "timeouts",
    "alpha_mean",
    "utilization",
    "goodput_gbps",
];

pub(super) fn parse(doc: &Document) -> Result<KindSpec, ScenarioError> {
    let topology = TopologySpec::Dumbbell(dumbbell(doc, ScenarioKind::LongLived)?);
    let (s, mut run) = super::run_section(
        doc,
        &["flows", "warmup", "duration", "trace", "stagger"],
        MAX_FLOWS,
    )?;
    s.set("trace", &mut run.trace_interval, parse_positive_duration)?;
    s.set("stagger", &mut run.stagger, parse_duration)?;
    super::no_workload(doc, ScenarioKind::LongLived)?;
    let mut faults = FaultSpec::default();
    if let Some(s) = doc.section("faults") {
        s.reject_unknown_keys(&["bleach", "down"])?;
        faults.bleach = s.get("bleach").map(parse_window).transpose()?;
        faults.down = s.get("down").map(parse_window).transpose()?;
    }
    Ok(KindSpec {
        faults,
        ..KindSpec::new(topology, run)
    })
}

/// The dumbbell `[topology]` of the long-lived kind, which the fluid
/// kind integrates at the same operating point and the fct kind reuses
/// per rack, so all three share its keys and defaults.
pub(super) fn dumbbell(doc: &Document, kind: ScenarioKind) -> Result<DumbbellSpec, ScenarioError> {
    let mut spec = DumbbellSpec {
        bottleneck_bps: 10_000_000_000,
        rtt: SimDuration::from_micros(300),
        buffer: Capacity::Packets(1000),
    };
    if let Some(s) = super::bare_topology(doc, kind)? {
        s.reject_unknown_keys(&["bottleneck", "rtt", "buffer"])?;
        s.set("bottleneck", &mut spec.bottleneck_bps, parse_rate_bps)?;
        s.set("rtt", &mut spec.rtt, parse_positive_duration)?;
        s.set("buffer", &mut spec.buffer, parse_capacity)?;
    }
    Ok(spec)
}

pub(super) fn key(spec: &ScenarioSpec, kb: &mut KeyBuilder) {
    kb.field("warmup_ns", &spec.run.warmup.as_nanos().to_string())
        .field("duration_ns", &spec.run.duration.as_nanos().to_string())
        .field("trace_ns", &spec.run.trace_interval.as_nanos().to_string())
        .field("stagger_ns", &spec.run.stagger.as_nanos().to_string())
        .field("faults", &format!("{:?}", spec.faults));
}

pub(super) fn run_cell(spec: &ScenarioSpec, cell: &Cell) -> Result<[f64; METRICS.len()], SimError> {
    let TopologySpec::Dumbbell(d) = spec.topology else {
        unreachable!("long_lived scenarios parse a dumbbell topology");
    };
    let scenario = LongLivedScenario::builder()
        .flows(cell.flows)
        .bottleneck_gbps(d.bottleneck_bps as f64 / 1e9)
        .rtt_us(d.rtt.as_secs_f64() * 1e6)
        .marking(cell.scheme)
        .tcp(spec.tcp)
        .buffer(d.buffer)
        .warmup_secs(spec.run.warmup.as_secs_f64())
        .duration_secs(spec.run.duration.as_secs_f64())
        .trace_interval(spec.run.trace_interval)
        .start_stagger(spec.run.stagger)
        .build()?;
    let faults = spec.faults;
    let report = scenario.run_with_faults(|i| {
        let mut plan = FaultPlan::new();
        if let Some((from, until)) = faults.bleach {
            plan = plan.bleach_window(i.bottleneck, SimTime::ZERO + from, SimTime::ZERO + until);
        }
        if let Some((from, until)) = faults.down {
            plan = plan
                .at(SimTime::ZERO + from, i.bottleneck, FaultAction::LinkDown)
                .at(SimTime::ZERO + until, i.bottleneck, FaultAction::LinkUp);
        }
        plan
    })?;

    let osc = match &report.trace {
        Some(trace) => oscillation(trace),
        None => OscillationSummary::none(),
    };
    Ok([
        report.queue.mean,
        report.queue.std,
        report.queue.max,
        osc.mean_amplitude,
        osc.max_amplitude,
        osc.cycles as f64,
        report.marks as f64 / spec.run.duration.as_secs_f64(),
        report.marks as f64,
        report.drops as f64,
        report.timeouts as f64,
        report.alpha.mean(),
        report.utilization(d.bottleneck_bps),
        report.goodput_bps / 1e9,
    ])
}

#[cfg(test)]
mod tests {
    use crate::{ScenarioKind, ScenarioSpec, TopologySpec};

    #[test]
    fn minimal_long_lived_parses_with_defaults() {
        let s = ScenarioSpec::parse(
            "\
[scenario]
name = t
kind = long_lived

[run]
flows = 2, 4

[marking \"dc\"]
scheme = dctcp
k = 40 pkts
",
        )
        .unwrap();
        assert_eq!(s.name, "t");
        assert_eq!(s.kind, ScenarioKind::LongLived);
        assert_eq!(s.run.flows, vec![2, 4]);
        let TopologySpec::Dumbbell(d) = s.topology else {
            panic!("{:?}", s.topology)
        };
        assert_eq!(d.bottleneck_bps, 10_000_000_000);
        assert_eq!(s.markings.len(), 1);
        assert_eq!(s.num_points(), 2);
        assert_eq!(s.faults, crate::FaultSpec::default());
        assert!(s.expectations.is_empty());
    }
}
