//! `kind = fct`: open-loop heavy-traffic flow churn. The `flows` sweep
//! is the churn-source count, split evenly over the workload's racks;
//! every rack bottleneck takes the long-lived dumbbell's parameters.

use dctcp_cache::KeyBuilder;
use dctcp_sim::{SimDuration, SimError};
use dctcp_workloads::FctScenario;

use super::{KindSpec, ScenarioKind};
use crate::parse::{parse_bytes, parse_duration, parse_f64, parse_positive_uint, Document};
use crate::runner::Cell;
use crate::spec::{ScenarioSpec, TopologySpec, MAX_FLOWS};
use crate::ScenarioError;

/// The open-loop churn workload shape (`[workload fct]`).
#[derive(Debug, Clone, PartialEq)]
pub struct FctWorkloadSpec {
    /// Offered load as a fraction of each rack bottleneck, in (0, 1).
    pub load: f64,
    /// Named flow-size distribution
    /// (see [`dctcp_workloads::sizes::by_name`]).
    pub size_dist: String,
    /// Racks; the `flows` sweep is split evenly over them.
    pub racks: u32,
    /// Per-source concurrent-flow slab size.
    pub slots: u32,
    /// Upper byte bound of the short size class.
    pub short_bytes: u64,
    /// Upper byte bound of the mid size class.
    pub long_bytes: u64,
    /// Mean deadline slack multiplier (enables per-flow deadlines and
    /// the D²TCP urgency law when `[transport] cc = d2tcp`).
    pub deadline_slack: Option<f64>,
    /// Drain period after arrivals stop, letting in-flight flows finish
    /// so their completion times are recorded.
    pub drain: SimDuration,
}

// FCT quantiles per size class (short/mid/long by the workload's class
// bounds, milliseconds) from the merged sketches, plus the open-loop
// conservation counters the million-flow envelopes pin.
pub(super) const METRICS: &[&str] = &[
    "fct_short_p50_ms",
    "fct_short_p99_ms",
    "fct_short_p999_ms",
    "fct_mid_p50_ms",
    "fct_mid_p99_ms",
    "fct_mid_p999_ms",
    "fct_long_p50_ms",
    "fct_long_p99_ms",
    "fct_long_p999_ms",
    "goodput_gbps",
    "deadline_miss_rate",
    "flows_started",
    "flows_completed",
];

pub(super) fn parse(doc: &Document) -> Result<KindSpec, ScenarioError> {
    let topology = TopologySpec::Dumbbell(super::long_lived::dumbbell(doc, ScenarioKind::Fct)?);
    let (s, mut run) =
        super::run_section(doc, &["flows", "warmup", "duration", "seeds"], MAX_FLOWS)?;
    // Churn reaches a statistical steady state within a few mean FCTs;
    // the default warmup is shorter than the long-lived transient.
    if s.get("warmup").is_none() {
        run.warmup = SimDuration::from_millis(10);
    }
    let workload = workload(doc)?;
    if let Some(n) = run
        .flows
        .iter()
        .find(|&&n| n % workload.racks != 0 || n < workload.racks)
    {
        return Err(ScenarioError::OutOfRange {
            line: s.get("flows").map_or(0, |e| e.line),
            key: "flows".into(),
            msg: format!(
                "fct source counts must be positive multiples of racks = {}, got {n}",
                workload.racks
            ),
        });
    }
    super::no_faults(doc)?;
    Ok(KindSpec {
        fct: Some(workload),
        ..KindSpec::new(topology, run)
    })
}

fn workload(doc: &Document) -> Result<FctWorkloadSpec, ScenarioError> {
    let s = super::workload(doc, "fct")?;
    s.reject_unknown_keys(&[
        "load",
        "size_dist",
        "racks",
        "slots",
        "short_bytes",
        "long_bytes",
        "deadline_slack",
        "drain",
    ])?;
    let load_entry = s.require("load")?;
    let load = parse_f64(load_entry)?;
    if !(load > 0.0 && load < 1.0) {
        return Err(ScenarioError::OutOfRange {
            line: load_entry.line,
            key: "load".into(),
            msg: format!("offered load must be in (0, 1), got {load}"),
        });
    }
    let mut spec = FctWorkloadSpec {
        load,
        size_dist: "web_search".into(),
        racks: 2,
        slots: 4096,
        short_bytes: 10_000,
        long_bytes: 100_000,
        deadline_slack: None,
        drain: SimDuration::from_millis(100),
    };
    if let Some(e) = s.get("size_dist") {
        if dctcp_workloads::sizes::by_name(&e.value).is_none() {
            return Err(ScenarioError::BadValue {
                line: e.line,
                key: "size_dist".into(),
                msg: format!(
                    "unknown size distribution `{}` (web_search/data_mining)",
                    e.value
                ),
            });
        }
        spec.size_dist = e.value.clone();
    }
    s.set("racks", &mut spec.racks, parse_positive_uint)?;
    s.set("slots", &mut spec.slots, parse_positive_uint)?;
    s.set("short_bytes", &mut spec.short_bytes, parse_bytes)?;
    s.set("long_bytes", &mut spec.long_bytes, parse_bytes)?;
    if spec.short_bytes == 0 || spec.short_bytes >= spec.long_bytes {
        return Err(ScenarioError::OutOfRange {
            line: s.line,
            key: "short_bytes".into(),
            msg: format!(
                "size classes need 0 < short_bytes < long_bytes, got {} / {}",
                spec.short_bytes, spec.long_bytes
            ),
        });
    }
    if let Some(e) = s.get("deadline_slack") {
        let slack = parse_f64(e)?;
        if !(slack.is_finite() && slack > 0.0) {
            return Err(ScenarioError::OutOfRange {
                line: e.line,
                key: "deadline_slack".into(),
                msg: "deadline slack must be a positive number".into(),
            });
        }
        spec.deadline_slack = Some(slack);
    }
    s.set("drain", &mut spec.drain, parse_duration)?;
    Ok(spec)
}

/// The churn workload (load, size CDF, racks, slab, class bounds,
/// deadlines, drain) joins the windows through its exhaustive `Debug`
/// rendering.
pub(super) fn key(spec: &ScenarioSpec, kb: &mut KeyBuilder) {
    kb.field("warmup_ns", &spec.run.warmup.as_nanos().to_string())
        .field("duration_ns", &spec.run.duration.as_nanos().to_string())
        .field("workload", &format!("{:?}", spec.fct));
}

/// Runs one churn cell: `cell.flows` sources split evenly over the
/// racks, each rack bottlenecked into its sink by the marking under
/// test, reduced to per-size-class FCT tails plus the open-loop
/// conservation counters.
pub(super) fn run_cell(spec: &ScenarioSpec, cell: &Cell) -> Result<[f64; METRICS.len()], SimError> {
    let TopologySpec::Dumbbell(d) = spec.topology else {
        unreachable!("fct scenarios parse a dumbbell topology");
    };
    let w = spec.fct.as_ref().ok_or_else(|| {
        SimError::InvalidConfig("fct scenario lacks a [workload fct] section".into())
    })?;
    // The parser enforces both; re-checked for programmatic callers.
    if w.racks == 0 || cell.flows % w.racks != 0 || cell.flows < w.racks {
        return Err(SimError::InvalidConfig(format!(
            "fct source count {} is not a positive multiple of racks = {}",
            cell.flows, w.racks
        )));
    }
    let sizes = dctcp_workloads::sizes::by_name(&w.size_dist).ok_or_else(|| {
        SimError::InvalidConfig(format!("unknown size distribution `{}`", w.size_dist))
    })?;
    let mut builder = FctScenario::builder()
        .racks(w.racks)
        .sources_per_rack(cell.flows / w.racks)
        .bottleneck_gbps(d.bottleneck_bps as f64 / 1e9)
        .rtt_us(d.rtt.as_secs_f64() * 1e6)
        .load(w.load)
        .marking(cell.scheme)
        .tcp(spec.tcp)
        .buffer(d.buffer)
        .sizes(sizes)
        .class_bounds([w.short_bytes, w.long_bytes])
        .slots(w.slots)
        .seed(cell.seed)
        .warmup_secs(spec.run.warmup.as_secs_f64())
        .duration_secs(spec.run.duration.as_secs_f64())
        .drain_secs(w.drain.as_secs_f64());
    if let Some(slack) = w.deadline_slack {
        builder = builder.deadline_slack(slack);
    }
    let report = builder.build()?.run()?;

    // An empty size class renders its quantiles as 0 rather than
    // omitting the row — artifacts always carry the kind's full metric
    // set, and an envelope pinning an empty class fails loudly on the
    // zero instead of silently matching nothing.
    let fct = |class: usize, q: f64| report.fct_ms(class, q).unwrap_or(0.0);
    Ok([
        fct(0, 0.50),
        fct(0, 0.99),
        fct(0, 0.999),
        fct(1, 0.50),
        fct(1, 0.99),
        fct(1, 0.999),
        fct(2, 0.50),
        fct(2, 0.99),
        fct(2, 0.999),
        report.goodput_bps / 1e9,
        report.deadline_miss_rate(),
        report.started as f64,
        report.completed as f64,
    ])
}

#[cfg(test)]
mod tests {
    use crate::runner::{cell_key, matrix, run_cell_raw, run_clean};
    use crate::{ScenarioError, ScenarioKind, ScenarioSpec, TopologySpec};
    use dctcp_sim::SimDuration;

    /// The cheapest churn matrix: 8 sources over 2 racks at 1 Gb/s,
    /// ~10 ms of measured arrivals.
    const FCT: &str = "\
[scenario]
name = churn
kind = fct

[topology]
bottleneck = 1 Gbps
rtt = 100 us

[run]
flows = 8
warmup = 2 ms
duration = 10 ms
seeds = 1

[workload fct]
load = 0.5
size_dist = web_search
racks = 2
slots = 512
drain = 50 ms

[marking \"dc\"]
scheme = dctcp
k = 40 pkts
";

    #[test]
    fn fct_scenario_parses_workload_and_defaults() {
        let s = ScenarioSpec::parse(FCT).unwrap();
        assert_eq!(s.kind, ScenarioKind::Fct);
        assert!(s.kind.sweeps_seeds());
        let w = s.fct.as_ref().unwrap();
        assert_eq!((w.racks, w.slots), (2, 512));
        assert!((w.load - 0.5).abs() < 1e-12);
        assert_eq!(w.size_dist, "web_search");
        assert_eq!((w.short_bytes, w.long_bytes), (10_000, 100_000));
        assert_eq!(w.drain, SimDuration::from_millis(50));
        assert_eq!(w.deadline_slack, None);
        assert!(s.workload.is_none());
        assert_eq!(s.run.warmup, SimDuration::from_millis(2));
        assert_eq!(s.run.seeds, vec![1]);
        assert_eq!(s.num_points(), 1);
        // The dumbbell surface is shared with long-lived scenarios.
        let TopologySpec::Dumbbell(d) = s.topology else {
            panic!("{:?}", s.topology)
        };
        assert_eq!(d.rtt, SimDuration::from_micros(100));
    }

    #[test]
    fn transport_cc_knob_selects_d2tcp() {
        let src = FCT
            .replace("[run]", "[transport]\ncc = d2tcp\n\n[run]")
            .replace("drain = 50 ms", "drain = 50 ms\ndeadline_slack = 2.0");
        let s = ScenarioSpec::parse(&src).unwrap();
        assert!(matches!(
            s.tcp.cc,
            dctcp_tcp::CongestionControl::D2tcp { .. }
        ));
        assert_eq!(s.fct.as_ref().unwrap().deadline_slack, Some(2.0));
    }

    #[test]
    fn fct_expectations_validate_against_fct_metrics() {
        let src = format!(
            "{FCT}
[expect \"tails\"]
check = metric_range
metric = fct_short_p99_ms
min = 0
"
        );
        assert!(ScenarioSpec::parse(&src).is_ok());
        let broken = src.replace("metric = fct_short_p99_ms", "metric = queue_std");
        assert!(matches!(
            ScenarioSpec::parse(&broken).unwrap_err(),
            ScenarioError::BadValue { .. }
        ));
    }

    #[test]
    fn fct_cells_complete_flows_and_are_thread_invariant() {
        let a = run_clean(&ScenarioSpec::parse(FCT).unwrap());
        assert_eq!(a.points.len(), 1);
        let p = &a.points[0];
        assert!(p.metric("flows_completed").unwrap() > 100.0);
        assert!(p.metric("fct_short_p99_ms").unwrap() >= p.metric("fct_short_p50_ms").unwrap());
        assert!(p.metric("goodput_gbps").unwrap() > 0.0);
        // Deadlines are off, so the miss rate is exactly zero.
        assert_eq!(p.metric("deadline_miss_rate").unwrap(), 0.0);
    }

    #[test]
    fn fct_workload_edits_move_the_cell_key() {
        let spec = ScenarioSpec::parse(FCT).unwrap();
        let cell = matrix(&spec).swap_remove(0);
        let base = cell_key(&spec, &cell, "fp");

        let mut hotter = spec.clone();
        hotter.fct.as_mut().unwrap().load = 0.7;
        assert_ne!(base, cell_key(&hotter, &cell, "fp"));

        let mut heavier = spec.clone();
        heavier.fct.as_mut().unwrap().size_dist = "data_mining".into();
        assert_ne!(base, cell_key(&heavier, &cell, "fp"));

        let mut longer = spec.clone();
        longer.run.duration = SimDuration::from_millis(20);
        assert_ne!(base, cell_key(&longer, &cell, "fp"));

        let mut deadlined = spec.clone();
        deadlined.fct.as_mut().unwrap().deadline_slack = Some(2.0);
        assert_ne!(base, cell_key(&deadlined, &cell, "fp"));

        let mut reseeded = cell.clone();
        reseeded.seed = 2;
        assert_ne!(base, cell_key(&spec, &reseeded, "fp"));
    }

    #[test]
    fn fct_cells_reject_uneven_source_splits() {
        let spec = ScenarioSpec::parse(FCT).unwrap();
        let mut cell = matrix(&spec).swap_remove(0);
        cell.flows = 7;
        assert!(run_cell_raw(&spec, &cell).is_err());
        let mut sectionless = spec;
        sectionless.fct = None;
        let cell = matrix(&sectionless).swap_remove(0);
        assert!(run_cell_raw(&sectionless, &cell).is_err());
    }
}
