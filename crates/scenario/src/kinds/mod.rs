//! Everything that depends on the scenario kind, one file per kind.
//!
//! Each kind module owns the keys it accepts in `[topology]`, `[run]`,
//! `[workload …]` and `[faults]` with their defaults and cross-field
//! checks (`parse`), its cache-key fields (`key`), its metric
//! vocabulary (`METRICS`) and `run_cell`,
//! which returns one value per metric in `METRICS` order. This module
//! dispatches with one `match` per verb: the kind set is closed, so
//! there is no trait.
//!
//! Adding a kind is one file here, one [`ScenarioKind`] variant, and
//! one arm in each `match` below.

mod collective;
mod fct;
mod fluid;
mod long_lived;
mod query;

use std::fmt::Display;
use std::str::FromStr;

use dctcp_cache::KeyBuilder;
use dctcp_core::MarkingScheme;
use dctcp_sim::{SimDuration, SimError};

use crate::parse::{parse_duration, parse_positive_duration, parse_uint_list, Document};
use crate::parse::{RawEntry, RawSection};
use crate::runner::Cell;
use crate::spec::{RunSpec, ScenarioSpec, TopologySpec};
use crate::ScenarioError;

pub use collective::{CollectiveWorkloadSpec, FatTreeSpec};
pub use fct::FctWorkloadSpec;
pub use long_lived::{DumbbellSpec, FaultSpec};
pub use query::TestbedSpec;

/// Which workload family a scenario drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// N long-lived flows over one bottleneck (Figs. 1, 5–8, 10–12).
    LongLived,
    /// Synchronized Incast responses on the Fig. 13 testbed (Fig. 14).
    Incast,
    /// Partition-aggregate queries on the Fig. 13 testbed (Fig. 15).
    PartitionAggregate,
    /// Collective communication (allreduce/permutation/incast phases)
    /// on a k-ary fat-tree with deterministic ECMP.
    Collective,
    /// Delay-differential fluid-model sweep on the dumbbell operating
    /// point — no packets, so flow counts may reach
    /// [`crate::MAX_FLUID_FLOWS`]. Cross-validated against packet
    /// anchors via `[xval]` sections, which `repro_check` checks
    /// beside the envelopes.
    Fluid,
    /// Open-loop heavy-traffic flow churn: Poisson arrivals at a
    /// configured fraction of the rack bottlenecks with empirical
    /// flow sizes (`[workload fct]`), reporting per-size-class
    /// flow-completion-time tails from mergeable quantile sketches.
    /// The `flows` sweep is the churn-source count, split evenly over
    /// the workload's racks.
    Fct,
}

impl ScenarioKind {
    /// Every kind, in the order the unknown-kind diagnostic lists them.
    pub(crate) const ALL: [ScenarioKind; 6] = [
        ScenarioKind::LongLived,
        ScenarioKind::Incast,
        ScenarioKind::PartitionAggregate,
        ScenarioKind::Collective,
        ScenarioKind::Fluid,
        ScenarioKind::Fct,
    ];

    /// The `kind = …` spelling.
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioKind::LongLived => "long_lived",
            ScenarioKind::Incast => "incast",
            ScenarioKind::PartitionAggregate => "partition_aggregate",
            ScenarioKind::Collective => "collective",
            ScenarioKind::Fluid => "fluid",
            ScenarioKind::Fct => "fct",
        }
    }

    /// Parses the `kind = …` spelling back into a kind.
    pub fn from_name(name: &str) -> Option<ScenarioKind> {
        ScenarioKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the matrix sweeps the `[run] seeds` list (one cell per
    /// seed). Long-lived and fluid runs are seed-free and pin seed 1.
    pub fn sweeps_seeds(&self) -> bool {
        !matches!(self, ScenarioKind::LongLived | ScenarioKind::Fluid)
    }

    /// The point metrics artifacts of this kind carry, in artifact
    /// order.
    pub fn metrics(&self) -> &'static [&'static str] {
        match self {
            ScenarioKind::LongLived => long_lived::METRICS,
            ScenarioKind::Incast | ScenarioKind::PartitionAggregate => query::METRICS,
            ScenarioKind::Collective => collective::METRICS,
            ScenarioKind::Fluid => fluid::METRICS,
            ScenarioKind::Fct => fct::METRICS,
        }
    }
}

/// What a kind's `[topology]`, `[run]`, `[workload …]` and `[faults]`
/// sections resolve to.
pub(crate) struct KindSpec {
    pub(crate) topology: TopologySpec,
    pub(crate) run: RunSpec,
    pub(crate) workload: Option<CollectiveWorkloadSpec>,
    pub(crate) fct: Option<FctWorkloadSpec>,
    pub(crate) faults: FaultSpec,
}

impl KindSpec {
    /// A kind with no `[workload …]` or `[faults]` section.
    fn new(topology: TopologySpec, run: RunSpec) -> KindSpec {
        KindSpec {
            topology,
            run,
            workload: None,
            fct: None,
            faults: FaultSpec::default(),
        }
    }
}

/// Parses and validates the kind's sections.
pub(crate) fn parse(
    doc: &Document,
    kind: ScenarioKind,
    markings: &[(String, MarkingScheme)],
) -> Result<KindSpec, ScenarioError> {
    match kind {
        ScenarioKind::LongLived => long_lived::parse(doc),
        ScenarioKind::Incast | ScenarioKind::PartitionAggregate => query::parse(doc, kind),
        ScenarioKind::Collective => collective::parse(doc),
        ScenarioKind::Fluid => fluid::parse(doc, markings),
        ScenarioKind::Fct => fct::parse(doc),
    }
}

/// Adds the kind's run parameters to a cell's cache-key material.
pub(crate) fn key(spec: &ScenarioSpec, kb: &mut KeyBuilder) {
    match spec.kind {
        ScenarioKind::LongLived => long_lived::key(spec, kb),
        ScenarioKind::Incast | ScenarioKind::PartitionAggregate => query::key(spec, kb),
        ScenarioKind::Collective => collective::key(spec, kb),
        ScenarioKind::Fluid => fluid::key(spec, kb),
        ScenarioKind::Fct => fct::key(spec, kb),
    }
}

/// Simulates one cell (no supervision): one value per
/// [`ScenarioKind::metrics`] name, in that order.
pub(crate) fn run_cell(spec: &ScenarioSpec, cell: &Cell) -> Result<Vec<f64>, SimError> {
    Ok(match spec.kind {
        ScenarioKind::LongLived => long_lived::run_cell(spec, cell)?.to_vec(),
        ScenarioKind::Incast | ScenarioKind::PartitionAggregate => {
            query::run_cell(spec, cell)?.to_vec()
        }
        ScenarioKind::Collective => collective::run_cell(spec, cell)?.to_vec(),
        ScenarioKind::Fluid => fluid::run_cell(spec, cell)?.to_vec(),
        ScenarioKind::Fct => fct::run_cell(spec, cell)?.to_vec(),
    })
}

/// The `[run]` section after rejecting keys outside `keys`, with its
/// `flows` sweep capped at `max_flows`. The keys several kinds share
/// (`warmup`, `duration`, `seeds`) are parsed here; every other field
/// starts at its default for the kind to override.
fn run_section<'a>(
    doc: &'a Document,
    keys: &[&str],
    max_flows: u32,
) -> Result<(&'a RawSection, RunSpec), ScenarioError> {
    let s = doc
        .section("run")
        .ok_or_else(|| ScenarioError::MissingSection {
            section: "run".into(),
        })?;
    s.reject_unknown_keys(keys)?;
    let e = s.require("flows")?;
    let flows = sweep(e)?;
    if let Some(n) = flows.iter().find(|&&n| n == 0 || n > max_flows) {
        return Err(ScenarioError::OutOfRange {
            line: e.line,
            key: "flows".into(),
            msg: format!("flow counts must be in 1..={max_flows}, got {n}"),
        });
    }
    let mut run = RunSpec {
        flows,
        warmup: SimDuration::from_millis(20),
        duration: SimDuration::from_millis(50),
        trace_interval: SimDuration::from_micros(50),
        dt: SimDuration::from_micros(1),
        stagger: SimDuration::ZERO,
        rounds: 3,
        bytes: 64 * 1024,
        seeds: vec![1],
    };
    s.set("warmup", &mut run.warmup, parse_duration)?;
    s.set("duration", &mut run.duration, parse_positive_duration)?;
    s.set("seeds", &mut run.seeds, sweep)?;
    Ok((s, run))
}

/// A `[run]` sweep list. Naming a value twice would simulate and
/// render the same cell twice, so it is an error.
fn sweep<T: FromStr + PartialEq + Display>(e: &RawEntry) -> Result<Vec<T>, ScenarioError> {
    let list: Vec<T> = parse_uint_list(e)?;
    for (i, v) in list.iter().enumerate() {
        if list[..i].contains(v) {
            return Err(ScenarioError::BadValue {
                line: e.line,
                key: e.key.clone(),
                msg: format!("`{v}` is listed twice"),
            });
        }
    }
    Ok(list)
}

/// The bare `[topology]` section. Only collective scenarios label
/// theirs; a label elsewhere is an error, never an ignored section.
fn bare_topology(doc: &Document, kind: ScenarioKind) -> Result<Option<&RawSection>, ScenarioError> {
    if let Some(s) = doc.sections_named("topology").find(|s| s.label.is_some()) {
        return Err(ScenarioError::Syntax {
            line: s.line,
            msg: format!(
                "`[topology {}]` is only valid for collective scenarios; \
                 {} scenarios take a bare [topology]",
                s.label.as_deref().unwrap_or_default(),
                kind.name()
            ),
        });
    }
    Ok(doc.section("topology"))
}

/// The required `[workload <label>]` section of the kind named `label`.
fn workload<'a>(doc: &'a Document, label: &str) -> Result<&'a RawSection, ScenarioError> {
    let s = doc
        .sections_named("workload")
        .next()
        .ok_or_else(|| ScenarioError::MissingSection {
            section: format!("workload {label}"),
        })?;
    if s.label.as_deref() != Some(label) {
        return Err(ScenarioError::Syntax {
            line: s.line,
            msg: format!("{label} scenarios take `[workload {label}]`"),
        });
    }
    Ok(s)
}

/// Rejects a `[workload …]` section on a kind that takes none.
fn no_workload(doc: &Document, kind: ScenarioKind) -> Result<(), ScenarioError> {
    match doc.sections_named("workload").next() {
        Some(s) => Err(ScenarioError::Syntax {
            line: s.line,
            msg: format!(
                "[workload] sections are only valid for collective and fct scenarios, not {}",
                kind.name()
            ),
        }),
        None => Ok(()),
    }
}

/// Rejects a `[faults]` section on a kind other than long-lived.
fn no_faults(doc: &Document) -> Result<(), ScenarioError> {
    match doc.section("faults") {
        Some(s) => Err(ScenarioError::BadValue {
            line: s.line,
            key: "faults".into(),
            msg: "fault plans are only supported for long_lived scenarios".into(),
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use crate::{ScenarioError, ScenarioSpec};

    #[test]
    fn duplicate_sweep_entries_are_rejected() {
        let src = "\
[scenario]
name = t
kind = incast

[run]
flows = 8, 8
seeds = 1, 2, 1

[marking \"dc\"]
scheme = dctcp
k = 32 KB
";
        assert_eq!(
            ScenarioSpec::parse(src).unwrap_err(),
            ScenarioError::BadValue {
                line: 6,
                key: "flows".into(),
                msg: "`8` is listed twice".into(),
            }
        );
        let src = src.replace("8, 8", "8");
        assert_eq!(
            ScenarioSpec::parse(&src).unwrap_err().to_string(),
            "line 7: bad value for `seeds`: `1` is listed twice"
        );
    }
}
