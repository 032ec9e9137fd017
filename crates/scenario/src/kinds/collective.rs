//! `kind = collective`: allreduce, permutation and incast phases on a
//! k-ary fat-tree with deterministic ECMP. The `flows` sweep is the
//! participant count.

use dctcp_cache::KeyBuilder;
use dctcp_sim::{Capacity, SimDuration, SimError};
use dctcp_workloads::{run_collective, CollectiveConfig, CollectivePattern};

use super::KindSpec;
use crate::parse::{
    parse_bytes, parse_capacity, parse_duration, parse_positive_duration, parse_positive_uint,
    parse_rate_bps, parse_uint, Document,
};
use crate::runner::Cell;
use crate::spec::{ScenarioSpec, TopologySpec, MAX_FLOWS};
use crate::ScenarioError;

/// k-ary fat-tree parameters for the collective kind
/// (`[topology fat_tree]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FatTreeSpec {
    /// Fat-tree arity (even, 4..=16).
    pub k: u32,
    /// Hosts under each edge switch.
    pub hosts_per_edge: u32,
    /// Host↔edge link rate, bits/second.
    pub host_bps: u64,
    /// Edge↔aggregation link rate, bits/second.
    pub agg_bps: u64,
    /// Aggregation↔core link rate, bits/second.
    pub core_bps: u64,
    /// Host-tier one-way propagation delay (aggregation tier runs at
    /// 2×, core tier at 4×).
    pub delay: SimDuration,
    /// Switch queue capacity at every tier.
    pub buffer: Capacity,
    /// Seed baked into the deterministic ECMP hash.
    pub ecmp_seed: u64,
}

impl FatTreeSpec {
    /// Number of hosts this fabric wires up.
    pub fn num_hosts(&self) -> u32 {
        self.k * (self.k / 2) * self.hosts_per_edge
    }
}

/// The collective workload shape (`[workload collective]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveWorkloadSpec {
    /// Communication pattern.
    pub pattern: CollectivePattern,
    /// Per-transfer message override for the allreduce patterns
    /// (0 = automatic).
    pub chunk: u64,
    /// Gap between consecutive bulk-synchronous step starts.
    pub phase_gap: SimDuration,
    /// Simulated-time budget per cell.
    pub horizon: SimDuration,
}

// queue_* metrics are the busiest core-link port's time-weighted
// occupancy — the oscillation probe the paper's comparison cares about
// at fabric scale.
pub(super) const METRICS: &[&str] = &[
    "completion_ms",
    "goodput_mbps",
    "queue_mean",
    "queue_std",
    "queue_max",
    "marks",
    "drops",
    "timeouts",
];

pub(super) fn parse(doc: &Document) -> Result<KindSpec, ScenarioError> {
    let ft = fat_tree(doc)?;
    let (s, mut run) = super::run_section(doc, &["flows", "bytes_per_flow", "seeds"], MAX_FLOWS)?;
    s.set("bytes_per_flow", &mut run.bytes, parse_bytes)?;
    let workload = workload(doc)?;
    // A collective needs two ranks, and every rank its own host.
    if let Some(n) = run.flows.iter().find(|&&n| n < 2 || n > ft.num_hosts()) {
        return Err(ScenarioError::OutOfRange {
            line: s.get("flows").map_or(0, |e| e.line),
            key: "flows".into(),
            msg: format!(
                "collective participants must be in 2..={} (k={} fat-tree hosts), got {n}",
                ft.num_hosts(),
                ft.k
            ),
        });
    }
    super::no_faults(doc)?;
    Ok(KindSpec {
        workload: Some(workload),
        ..KindSpec::new(TopologySpec::FatTree(ft), run)
    })
}

/// `[topology fat_tree]`: collective scenarios label their topology,
/// and any other `[topology …]` section is an error.
fn fat_tree(doc: &Document) -> Result<FatTreeSpec, ScenarioError> {
    let mut spec = FatTreeSpec {
        k: 4,
        hosts_per_edge: 2,
        host_bps: 1_000_000_000,
        agg_bps: 1_000_000_000,
        core_bps: 1_000_000_000,
        delay: SimDuration::from_micros(5),
        buffer: Capacity::Packets(100),
        ecmp_seed: 1,
    };
    let mut section = None;
    for s in doc.sections_named("topology") {
        match s.label.as_deref() {
            Some("fat_tree") => section = Some(s),
            None => {
                return Err(ScenarioError::Syntax {
                    line: s.line,
                    msg: "collective scenarios take `[topology fat_tree]`".into(),
                })
            }
            Some(l) => {
                return Err(ScenarioError::Syntax {
                    line: s.line,
                    msg: format!("unknown topology `{l}` (collective scenarios use fat_tree)"),
                })
            }
        }
    }
    let Some(s) = section else {
        return Ok(spec);
    };
    s.reject_unknown_keys(&[
        "k",
        "hosts_per_edge",
        "host",
        "agg",
        "core",
        "delay",
        "buffer",
        "ecmp_seed",
    ])?;
    if let Some(e) = s.get("k") {
        spec.k = parse_uint(e)?;
        if spec.k < 4 || spec.k > 16 || spec.k % 2 != 0 {
            return Err(ScenarioError::OutOfRange {
                line: e.line,
                key: "k".into(),
                msg: format!("fat-tree arity must be even and in 4..=16, got {}", spec.k),
            });
        }
    }
    s.set(
        "hosts_per_edge",
        &mut spec.hosts_per_edge,
        parse_positive_uint,
    )?;
    s.set("host", &mut spec.host_bps, parse_rate_bps)?;
    s.set("agg", &mut spec.agg_bps, parse_rate_bps)?;
    s.set("core", &mut spec.core_bps, parse_rate_bps)?;
    s.set("delay", &mut spec.delay, parse_positive_duration)?;
    s.set("buffer", &mut spec.buffer, parse_capacity)?;
    s.set("ecmp_seed", &mut spec.ecmp_seed, parse_uint)?;
    Ok(spec)
}

fn workload(doc: &Document) -> Result<CollectiveWorkloadSpec, ScenarioError> {
    let s = super::workload(doc, "collective")?;
    s.reject_unknown_keys(&["pattern", "chunk", "phase_gap", "horizon"])?;
    let e = s.require("pattern")?;
    let pattern =
        CollectivePattern::from_name(&e.value).ok_or_else(|| ScenarioError::BadValue {
            line: e.line,
            key: "pattern".into(),
            msg: format!(
                "unknown pattern `{}` (ring_allreduce/tree_allreduce/permutation/incast)",
                e.value
            ),
        })?;
    let mut spec = CollectiveWorkloadSpec {
        pattern,
        chunk: 0,
        phase_gap: SimDuration::from_millis(1),
        horizon: SimDuration::from_millis(400),
    };
    s.set("chunk", &mut spec.chunk, parse_bytes)?;
    s.set("phase_gap", &mut spec.phase_gap, parse_duration)?;
    s.set("horizon", &mut spec.horizon, parse_positive_duration)?;
    Ok(spec)
}

/// The fat-tree (k, tiers, ECMP seed) is key material through the
/// spec's `topology` field; the workload shape joins it here.
pub(super) fn key(spec: &ScenarioSpec, kb: &mut KeyBuilder) {
    kb.field("bytes", &spec.run.bytes.to_string())
        .field("workload", &format!("{:?}", spec.workload));
}

pub(super) fn run_cell(spec: &ScenarioSpec, cell: &Cell) -> Result<[f64; METRICS.len()], SimError> {
    let TopologySpec::FatTree(f) = spec.topology else {
        unreachable!("collective scenarios parse a fat-tree topology");
    };
    let w = spec.workload.ok_or_else(|| {
        SimError::InvalidConfig("collective scenario lacks a [workload collective] section".into())
    })?;
    let cfg = CollectiveConfig {
        k: f.k,
        hosts_per_edge: f.hosts_per_edge,
        pattern: w.pattern,
        participants: cell.flows,
        bytes_per_flow: spec.run.bytes,
        chunk: w.chunk,
        phase_gap: w.phase_gap,
        horizon: w.horizon,
        seed: cell.seed,
        marking: cell.scheme,
        tcp: spec.tcp,
        host_gbps: f.host_bps as f64 / 1e9,
        agg_gbps: f.agg_bps as f64 / 1e9,
        core_gbps: f.core_bps as f64 / 1e9,
        delay_us: f.delay.as_nanos() / 1000,
        buffer: f.buffer,
        ecmp_seed: f.ecmp_seed,
    };
    let report = run_collective(&cfg, None)?;
    // An unfinished collective would poison every downstream envelope
    // with sentinel values; surface it as a cell failure instead (the
    // horizon is configuration, so the message is byte-stable).
    let completion = report.completion.ok_or_else(|| {
        SimError::InvalidConfig(format!(
            "collective did not complete within the {:?} horizon",
            w.horizon
        ))
    })?;
    Ok([
        completion * 1e3,
        report.goodput_bps / 1e6,
        report.core_queue.mean,
        report.core_queue.std,
        report.core_queue.max,
        report.marks as f64,
        report.drops as f64,
        report.timeouts as f64,
    ])
}

#[cfg(test)]
mod tests {
    use crate::runner::{cell_key, matrix, run_clean};
    use crate::{ScenarioKind, ScenarioSpec, TopologySpec};
    use dctcp_sim::SimDuration;
    use dctcp_workloads::CollectivePattern;

    const COLLECTIVE: &str = "\
[scenario]
name = c
kind = collective

[topology fat_tree]
k = 4
hosts_per_edge = 2
core = 1 Gbps
ecmp_seed = 7

[workload collective]
pattern = ring_allreduce
phase_gap = 500 us
horizon = 200 ms

[run]
flows = 8, 16
bytes_per_flow = 32 KB
seeds = 1, 2

[marking \"dctcp\"]
scheme = dctcp
k = 20 pkts
";

    #[test]
    fn collective_scenario_parses_fat_tree_and_workload() {
        let s = ScenarioSpec::parse(COLLECTIVE).unwrap();
        assert_eq!(s.kind, ScenarioKind::Collective);
        assert!(s.kind.sweeps_seeds());
        let TopologySpec::FatTree(ft) = s.topology else {
            panic!("{:?}", s.topology)
        };
        assert_eq!((ft.k, ft.hosts_per_edge, ft.ecmp_seed), (4, 2, 7));
        assert_eq!(ft.num_hosts(), 16);
        assert_eq!(ft.core_bps, 1_000_000_000);
        let w = s.workload.unwrap();
        assert_eq!(w.pattern, CollectivePattern::RingAllreduce);
        assert_eq!(w.phase_gap, SimDuration::from_micros(500));
        assert_eq!(w.horizon, SimDuration::from_millis(200));
        assert_eq!(s.run.bytes, 32 * 1024);
        assert_eq!(s.run.seeds, vec![1, 2]);
        // markings × participants × seeds
        assert_eq!(s.num_points(), 4);
    }

    /// The cheapest collective matrix: one incast cell on a k=4 fabric.
    fn collective_spec() -> ScenarioSpec {
        let src = COLLECTIVE
            .replace("ring_allreduce", "incast")
            .replace("flows = 8, 16", "flows = 8")
            .replace("seeds = 1, 2", "seeds = 1");
        ScenarioSpec::parse(&src).unwrap()
    }

    #[test]
    fn collective_cells_complete_and_are_thread_invariant() {
        let a = run_clean(&collective_spec());
        assert_eq!(a.points.len(), 1);
        assert!(a.points[0].metric("completion_ms").unwrap() > 0.0);
        assert!(a.points[0].metric("goodput_mbps").unwrap() > 0.0);
    }

    #[test]
    fn fat_tree_topology_and_workload_edits_move_the_cell_key() {
        let spec = collective_spec();
        let cell = matrix(&spec).swap_remove(0);
        let base = cell_key(&spec, &cell, "fp");

        // Editing the [topology fat_tree] section moves the key...
        let mut wider = spec.clone();
        match &mut wider.topology {
            TopologySpec::FatTree(f) => f.k = 6,
            other => panic!("wrong topology: {other:?}"),
        }
        assert_ne!(base, cell_key(&wider, &cell, "fp"));

        // ...as does the routing configuration (the ECMP seed)...
        let mut rerouted = spec.clone();
        match &mut rerouted.topology {
            TopologySpec::FatTree(f) => f.ecmp_seed = 4,
            other => panic!("wrong topology: {other:?}"),
        }
        assert_ne!(base, cell_key(&rerouted, &cell, "fp"));

        // ...and every [workload collective] knob.
        let mut repatterned = spec.clone();
        repatterned.workload.as_mut().unwrap().pattern = CollectivePattern::RingAllreduce;
        assert_ne!(base, cell_key(&repatterned, &cell, "fp"));

        let mut rechunked = spec.clone();
        rechunked.workload.as_mut().unwrap().chunk = 4096;
        assert_ne!(base, cell_key(&rechunked, &cell, "fp"));

        let mut resized = spec.clone();
        resized.run.bytes = 64 * 1024;
        assert_ne!(base, cell_key(&resized, &cell, "fp"));

        // A seed is a distinct cell, not the same key.
        let mut reseeded = cell.clone();
        reseeded.seed = 2;
        assert_ne!(base, cell_key(&spec, &reseeded, "fp"));
    }
}
