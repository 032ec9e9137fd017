//! `kind = incast` and `kind = partition_aggregate`: synchronized query
//! rounds on the paper's Fig. 13 testbed (Figs. 14, 15).

use dctcp_cache::KeyBuilder;
use dctcp_sim::{Capacity, SimDuration, SimError};
use dctcp_workloads::{run_query_rounds_with_threads, QueryWorkload, TestbedConfig};

use super::{KindSpec, ScenarioKind};
use crate::parse::{
    parse_bytes, parse_capacity, parse_positive_duration, parse_rate_bps, parse_uint, Document,
};
use crate::runner::Cell;
use crate::spec::{ScenarioSpec, TopologySpec, MAX_FLOWS};
use crate::ScenarioError;

/// Fig. 13 testbed parameters for the query kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestbedSpec {
    /// Per-link rate, bits/second.
    pub link_bps: u64,
    /// Bottleneck (Switch 1 → client) buffer.
    pub bottleneck_buffer: Capacity,
    /// Every other switch port's buffer.
    pub other_buffer: Capacity,
    /// One-way propagation delay per link.
    pub link_delay: SimDuration,
}

pub(super) const METRICS: &[&str] = &[
    "goodput_mbps",
    "completion_mean_ms",
    "completion_p95_ms",
    "completion_p99_ms",
    "timeout_frac",
    "rounds_completed",
    "drops",
];

pub(super) fn parse(doc: &Document, kind: ScenarioKind) -> Result<KindSpec, ScenarioError> {
    let mut testbed = TestbedSpec {
        link_bps: 1_000_000_000,
        bottleneck_buffer: Capacity::Bytes(128 * 1024),
        other_buffer: Capacity::Bytes(512 * 1024),
        link_delay: SimDuration::from_micros(25),
    };
    if let Some(s) = super::bare_topology(doc, kind)? {
        s.reject_unknown_keys(&["link", "bottleneck_buffer", "other_buffer", "delay"])?;
        s.set("link", &mut testbed.link_bps, parse_rate_bps)?;
        s.set(
            "bottleneck_buffer",
            &mut testbed.bottleneck_buffer,
            parse_capacity,
        )?;
        s.set("other_buffer", &mut testbed.other_buffer, parse_capacity)?;
        s.set("delay", &mut testbed.link_delay, parse_positive_duration)?;
    }

    let (s, mut run) = super::run_section(
        doc,
        &["flows", "rounds", "bytes_per_flow", "total_bytes", "seeds"],
        MAX_FLOWS,
    )?;
    if let Some(e) = s.get("rounds") {
        run.rounds = parse_uint(e)?;
        if run.rounds == 0 || run.rounds > 100 {
            return Err(ScenarioError::OutOfRange {
                line: e.line,
                key: "rounds".into(),
                msg: format!("rounds must be in 1..=100, got {}", run.rounds),
            });
        }
    }
    // Incast sizes each response; partition-aggregate splits one total
    // over the responders.
    let (bytes_key, other_key, default_bytes) = match kind {
        ScenarioKind::Incast => ("bytes_per_flow", "total_bytes", 64 * 1024),
        _ => ("total_bytes", "bytes_per_flow", 1024 * 1024),
    };
    if let Some(e) = s.get(other_key) {
        return Err(ScenarioError::BadValue {
            line: e.line,
            key: other_key.into(),
            msg: format!("{} scenarios take `{bytes_key}`", kind.name()),
        });
    }
    run.bytes = s.get(bytes_key).map_or(Ok(default_bytes), parse_bytes)?;
    super::no_workload(doc, kind)?;
    super::no_faults(doc)?;
    Ok(KindSpec::new(TopologySpec::Testbed(testbed), run))
}

pub(super) fn key(spec: &ScenarioSpec, kb: &mut KeyBuilder) {
    kb.field("rounds", &spec.run.rounds.to_string())
        .field("bytes", &spec.run.bytes.to_string());
}

pub(super) fn run_cell(spec: &ScenarioSpec, cell: &Cell) -> Result<[f64; METRICS.len()], SimError> {
    let TopologySpec::Testbed(t) = spec.topology else {
        unreachable!("query scenarios parse a testbed topology");
    };
    let mut cfg = TestbedConfig::paper(cell.scheme);
    cfg.tcp = spec.tcp;
    cfg.bottleneck_buffer = t.bottleneck_buffer;
    cfg.other_buffer = t.other_buffer;
    cfg.link_gbps = t.link_bps as f64 / 1e9;
    cfg.link_delay_us = t.link_delay.as_nanos() / 1000;

    let (mut wl, bytes_per_flow) = match spec.kind {
        ScenarioKind::Incast => (
            QueryWorkload::incast(cell.flows, spec.run.rounds),
            spec.run.bytes,
        ),
        _ => (
            QueryWorkload::partition_aggregate(cell.flows, spec.run.rounds),
            spec.run.bytes / u64::from(cell.flows),
        ),
    };
    wl.seed = cell.seed;
    wl.bytes_per_flow = bytes_per_flow;

    // The outer matrix already saturates the worker pool; run the
    // rounds of one cell serially to keep the fan-out single-level.
    let report = run_query_rounds_with_threads(&cfg, &wl, 1)?;

    let mut q = report.completions();
    let in_ms = |v: Option<f64>| v.map_or(0.0, |s| s * 1e3);
    let completed = report
        .rounds
        .iter()
        .filter(|r| r.completion.is_some())
        .count();
    let drops: u64 = report.rounds.iter().map(|r| r.drops).sum();
    Ok([
        report.mean_goodput_bps() / 1e6,
        in_ms(q.mean()),
        in_ms(q.quantile(0.95)),
        in_ms(q.quantile(0.99)),
        report.timeout_fraction(),
        completed as f64,
        drops as f64,
    ])
}

#[cfg(test)]
mod tests {
    use crate::{ScenarioKind, ScenarioSpec, TopologySpec};

    #[test]
    fn query_kind_takes_testbed_defaults_and_seeds() {
        let src = "\
[scenario]
name = q
kind = incast

[run]
flows = 4, 8
rounds = 2
seeds = 1, 2
bytes_per_flow = 64 KB

[marking \"dc\"]
scheme = dctcp
k = 32 KB
";
        let s = ScenarioSpec::parse(src).unwrap();
        assert_eq!(s.kind, ScenarioKind::Incast);
        let TopologySpec::Testbed(t) = s.topology else {
            panic!("{:?}", s.topology)
        };
        assert_eq!(t.link_bps, 1_000_000_000);
        assert_eq!(s.run.seeds, vec![1, 2]);
        assert_eq!(s.num_points(), 4);
    }
}
