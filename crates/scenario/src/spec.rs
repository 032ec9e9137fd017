//! The typed scenario model: what a `.scn` file means.

use dctcp_core::MarkingScheme;
use dctcp_sim::SimDuration;
use dctcp_tcp::TcpConfig;

use crate::kinds::{self, FctWorkloadSpec, KindSpec};
use crate::parse::{
    parse_f64, parse_level, parse_positive_duration, parse_rate_bps, parse_uint, Document,
    RawEntry, RawSection,
};
use crate::{
    CollectiveWorkloadSpec, DumbbellSpec, Expectation, FatTreeSpec, FaultSpec, ScenarioError,
    ScenarioKind, TestbedSpec,
};

/// Upper bound on any flow count in a scenario, keeping a typo like
/// `flows = 1000000` from turning the CI gate into an oven.
pub const MAX_FLOWS: u32 = 512;

/// Upper bound on fluid-kind flow counts. The DDE integrator's cost is
/// independent of `N`, so fluid sweeps may extrapolate far beyond the
/// packet engine's [`MAX_FLOWS`] — this cap only guards against
/// numerically absurd inputs.
pub const MAX_FLUID_FLOWS: u32 = 1_000_000;

/// Topology, by kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologySpec {
    /// Long-lived dumbbell.
    Dumbbell(DumbbellSpec),
    /// Fig. 13 testbed.
    Testbed(TestbedSpec),
    /// k-ary fat-tree (collective kind).
    FatTree(FatTreeSpec),
}

/// Which chaos fault an `inject_*` key plants in a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectFault {
    /// The cell panics (`inject_panic`).
    Panic,
    /// The cell hangs, burning wall-clock until its deadline cancels it
    /// (`inject_stall`).
    Stall,
}

impl InjectFault {
    /// Stable token used in cache-key material and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            InjectFault::Panic => "panic",
            InjectFault::Stall => "stall",
        }
    }
}

/// One chaos injection: which fault, planted in which matrix cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectSpec {
    /// The planted fault.
    pub fault: InjectFault,
    /// Target marking label.
    pub marking: String,
    /// Target flow count.
    pub flows: u32,
    /// Target seed.
    pub seed: u64,
}

/// Supervision limits for cell execution (`[limits]` section).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LimitsSpec {
    /// Per-cell wall-clock deadline. `None` derives a default from the
    /// simulated duration (see [`ScenarioSpec::cell_deadline`]).
    pub deadline: Option<SimDuration>,
    /// Chaos injections, in file order.
    pub inject: Vec<InjectSpec>,
}

impl LimitsSpec {
    /// The fault injected into cell `(marking, flows, seed)`, if any.
    /// First matching injection wins.
    pub fn injection_for(&self, marking: &str, flows: u32, seed: u64) -> Option<InjectFault> {
        self.inject
            .iter()
            .find(|i| i.marking == marking && i.flows == flows && i.seed == seed)
            .map(|i| i.fault)
    }
}

/// Run-control parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Flow counts to sweep.
    pub flows: Vec<u32>,
    /// Warm-up excluded from statistics (long-lived).
    pub warmup: SimDuration,
    /// Measurement window (long-lived).
    pub duration: SimDuration,
    /// Queue-trace sample spacing for oscillation metrics (long-lived;
    /// for fluid runs this is the metric sampling stride, default =
    /// `dt`).
    pub trace_interval: SimDuration,
    /// DDE integrator step (fluid kind only; must not exceed the
    /// topology RTT).
    pub dt: SimDuration,
    /// Per-flow start stagger (long-lived).
    pub stagger: SimDuration,
    /// Rounds per point (query kinds).
    pub rounds: u32,
    /// Bytes each responder sends (Incast), or total bytes split over
    /// responders (partition-aggregate).
    pub bytes: u64,
    /// Workload RNG seeds (query kinds); each seed is one matrix point.
    pub seeds: Vec<u64>,
}

/// A fully validated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Unique scenario name (artifact file stem).
    pub name: String,
    /// Free-form description.
    pub description: String,
    /// Workload family.
    pub kind: ScenarioKind,
    /// Topology parameters.
    pub topology: TopologySpec,
    /// Transport configuration shared by every host.
    pub tcp: TcpConfig,
    /// Run control.
    pub run: RunSpec,
    /// Collective workload shape (`Some` exactly for
    /// [`ScenarioKind::Collective`]).
    pub workload: Option<CollectiveWorkloadSpec>,
    /// Churn workload shape (`Some` exactly for [`ScenarioKind::Fct`]).
    pub fct: Option<FctWorkloadSpec>,
    /// Labeled marking schemes under test, in file order.
    pub markings: Vec<(String, MarkingScheme)>,
    /// Scripted faults.
    pub faults: FaultSpec,
    /// Supervision limits and chaos injections.
    pub limits: LimitsSpec,
    /// Regression-envelope expectations, in file order.
    pub expectations: Vec<Expectation>,
    /// Cross-validation envelopes against packet anchors (fluid kind
    /// only), in file order.
    pub xvals: Vec<crate::xval::XvalSpec>,
}

impl ScenarioSpec {
    /// Parses and validates a scenario file.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] pinpointing the first problem.
    pub fn parse(src: &str) -> Result<ScenarioSpec, ScenarioError> {
        let doc = Document::parse(src)?;
        for s in &doc.sections {
            const KNOWN: &[&str] = &[
                "scenario",
                "topology",
                "transport",
                "run",
                "workload",
                "marking",
                "faults",
                "limits",
                "expect",
                "xval",
            ];
            if !KNOWN.contains(&s.name.as_str()) {
                return Err(ScenarioError::UnknownSection {
                    line: s.line,
                    section: s.display_name(),
                });
            }
        }

        let meta = doc
            .section("scenario")
            .ok_or_else(|| ScenarioError::MissingSection {
                section: "scenario".into(),
            })?;
        meta.reject_unknown_keys(&["name", "kind", "description"])?;
        let name_entry = meta.require("name")?;
        let name = &name_entry.value;
        if name.is_empty() || name.contains(|c: char| c.is_whitespace() || c == '/') {
            return Err(ScenarioError::BadValue {
                line: name_entry.line,
                key: "name".into(),
                msg: "name must be a non-empty token without spaces or `/`".into(),
            });
        }
        let kind_entry = meta.require("kind")?;
        let kind =
            ScenarioKind::from_name(&kind_entry.value).ok_or_else(|| ScenarioError::BadValue {
                line: kind_entry.line,
                key: "kind".into(),
                msg: format!(
                    "unknown kind `{}` ({})",
                    kind_entry.value,
                    ScenarioKind::ALL.map(|k| k.name()).join("/")
                ),
            })?;
        let description = meta.value("description").unwrap_or_default().to_string();

        let tcp = parse_transport(&doc)?;
        let markings = parse_markings(&doc)?;
        let KindSpec {
            topology,
            run,
            workload,
            fct,
            faults,
        } = kinds::parse(&doc, kind, &markings)?;
        let limits = parse_limits(&doc, &run, &markings)?;
        let expectations = crate::envelope::parse_expectations(&doc, kind, &markings)?;
        let xvals = crate::xval::parse_xvals(&doc, kind, &run, &markings)?;

        Ok(ScenarioSpec {
            name: name.clone(),
            description,
            kind,
            topology,
            tcp,
            run,
            workload,
            fct,
            markings,
            faults,
            limits,
            expectations,
            xvals,
        })
    }

    /// Loads and parses a scenario file from disk.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Io`] or any parse/validation error.
    pub fn load(path: &std::path::Path) -> Result<ScenarioSpec, ScenarioError> {
        let src = std::fs::read_to_string(path).map_err(|e| ScenarioError::Io {
            path: path.display().to_string(),
            msg: e.to_string(),
        })?;
        ScenarioSpec::parse(&src)
    }

    /// Number of matrix points this scenario expands to.
    pub fn num_points(&self) -> usize {
        self.markings.len() * self.run.flows.len() * self.run.seeds.len()
    }

    /// The per-cell wall-clock deadline: the explicit `[limits]
    /// deadline` if given, otherwise a budget derived from the
    /// simulated duration (1000x real time per simulated second,
    /// clamped to [30 s, 300 s]) so even a pathological cell cannot
    /// wedge a matrix forever.
    pub fn cell_deadline(&self) -> SimDuration {
        if let Some(d) = self.limits.deadline {
            return d;
        }
        let budget_ns = kinds::simulated_ns(self)
            .saturating_mul(1000)
            .clamp(30_000_000_000, 300_000_000_000);
        SimDuration::from_nanos(budget_ns)
    }
}

fn parse_transport(doc: &Document) -> Result<TcpConfig, ScenarioError> {
    let section = doc.section("transport");
    let mut g = 1.0 / 16.0;
    let mut d2tcp = false;
    if let Some(s) = section {
        s.reject_unknown_keys(&[
            "g",
            "cc",
            "rto_min",
            "ecn_fallback_after",
            "delayed_ack",
            "delack_timeout",
        ])?;
        if let Some(e) = s.get("cc") {
            match e.value.as_str() {
                "dctcp" => {}
                "d2tcp" => d2tcp = true,
                other => {
                    return Err(ScenarioError::BadValue {
                        line: e.line,
                        key: "cc".into(),
                        msg: format!("unknown congestion control `{other}` (dctcp/d2tcp)"),
                    })
                }
            }
        }
        if let Some(e) = s.get("g") {
            g = parse_f64(e)?;
            if !(g > 0.0 && g <= 1.0) {
                return Err(ScenarioError::OutOfRange {
                    line: e.line,
                    key: "g".into(),
                    msg: format!("EWMA gain must be in (0, 1], got {g}"),
                });
            }
        }
    }
    // The baseline D²TCP urgency is the plain-DCTCP d = 1; churn
    // sources re-derive d per flow from each deadline's slack.
    let mut cfg = if d2tcp {
        TcpConfig::d2tcp(g, 1.0)
    } else {
        TcpConfig::dctcp(g)
    };
    if let Some(s) = section {
        s.set("rto_min", &mut cfg.rto_min, parse_positive_duration)?;
        s.set("ecn_fallback_after", &mut cfg.ecn_fallback_after, |e| {
            parse_uint(e).map(Some)
        })?;
        s.set("delayed_ack", &mut cfg.delayed_ack, parse_uint)?;
        s.set(
            "delack_timeout",
            &mut cfg.delack_timeout,
            parse_positive_duration,
        )?;
    }
    cfg.validate().map_err(|e| ScenarioError::OutOfRange {
        line: section.map_or(0, |s| s.line),
        key: "transport".into(),
        msg: e.to_string(),
    })?;
    Ok(cfg)
}

fn parse_markings(doc: &Document) -> Result<Vec<(String, MarkingScheme)>, ScenarioError> {
    let mut out: Vec<(String, MarkingScheme)> = Vec::new();
    for s in doc.sections_named("marking") {
        let label = s.label.clone().ok_or_else(|| ScenarioError::Syntax {
            line: s.line,
            msg: "marking sections need a label: [marking \"dctcp\"]".into(),
        })?;
        out.push((label, parse_one_marking(s)?));
    }
    if out.is_empty() {
        return Err(ScenarioError::MissingSection {
            section: "marking \"…\"".into(),
        });
    }
    Ok(out)
}

fn parse_one_marking(s: &RawSection) -> Result<MarkingScheme, ScenarioError> {
    let scheme_entry = s.require("scheme")?;
    let scheme = match scheme_entry.value.as_str() {
        "droptail" => {
            s.reject_unknown_keys(&["scheme"])?;
            MarkingScheme::DropTail
        }
        "dctcp" => {
            s.reject_unknown_keys(&["scheme", "k"])?;
            MarkingScheme::Dctcp {
                k: parse_level(s.require("k")?)?,
            }
        }
        "dt-dctcp" => {
            s.reject_unknown_keys(&["scheme", "k1", "k2"])?;
            MarkingScheme::DtDctcp {
                k1: parse_level(s.require("k1")?)?,
                k2: parse_level(s.require("k2")?)?,
            }
        }
        "schmitt" => {
            s.reject_unknown_keys(&["scheme", "lo", "hi"])?;
            MarkingScheme::Schmitt {
                lo: parse_level(s.require("lo")?)?,
                hi: parse_level(s.require("hi")?)?,
            }
        }
        "red" => {
            s.reject_unknown_keys(&["scheme", "min", "max", "max_p", "ecn"])?;
            let max_p_entry = s.get("max_p");
            let max_p = match max_p_entry {
                Some(e) => parse_f64(e)?,
                None => 0.1,
            };
            MarkingScheme::Red {
                min_th: parse_level(s.require("min")?)?,
                max_th: parse_level(s.require("max")?)?,
                max_p,
                ecn: true,
            }
        }
        "codel" => {
            s.reject_unknown_keys(&["scheme"])?;
            MarkingScheme::codel_datacenter()
        }
        "pie" => {
            s.reject_unknown_keys(&["scheme", "line"])?;
            let line_gbps = match s.get("line") {
                Some(e) => parse_rate_bps(e)? as f64 / 1e9,
                None => 10.0,
            };
            MarkingScheme::pie_datacenter(line_gbps)
        }
        other => {
            return Err(ScenarioError::BadValue {
                line: scheme_entry.line,
                key: "scheme".into(),
                msg: format!(
                    "unknown scheme `{other}` \
                     (droptail/dctcp/dt-dctcp/schmitt/red/codel/pie)"
                ),
            })
        }
    };
    // Parameter sanity (K1 <= K2, RED ordering, …) surfaces here as a
    // typed out-of-range error at the section header's line.
    scheme.build().map_err(|e| ScenarioError::OutOfRange {
        line: s.line,
        key: format!("marking \"{}\"", s.label.as_deref().unwrap_or("")),
        msg: e.to_string(),
    })?;
    Ok(scheme)
}

fn parse_limits(
    doc: &Document,
    run: &RunSpec,
    markings: &[(String, MarkingScheme)],
) -> Result<LimitsSpec, ScenarioError> {
    let Some(s) = doc.section("limits") else {
        return Ok(LimitsSpec::default());
    };
    s.reject_unknown_keys(&["deadline", "retries", "inject_panic", "inject_stall"])?;
    let mut spec = LimitsSpec {
        deadline: s.get("deadline").map(parse_positive_duration).transpose()?,
        ..LimitsSpec::default()
    };
    // A range-checked no-op, kept for good: the frozen benchmark copy
    // benchmark/scenarios/linux_dctcp_flaws.scn sets it. ROADMAP's shared
    // rules are the one list of keys only frozen copies still set.
    if let Some(e) = s.get("retries") {
        let retries: u32 = parse_uint(e)?;
        if retries > 8 {
            return Err(ScenarioError::OutOfRange {
                line: e.line,
                key: "retries".into(),
                msg: format!("retries must be at most 8, got {retries}"),
            });
        }
    }
    for (key, fault) in [
        ("inject_panic", InjectFault::Panic),
        ("inject_stall", InjectFault::Stall),
    ] {
        if let Some(e) = s.get(key) {
            spec.inject
                .push(parse_inject(e, key, fault, run, markings)?);
        }
    }
    Ok(spec)
}

/// Parses one `inject_* = marking:flows:seed` cell address, validating
/// every component against the scenario's actual matrix so a typo
/// cannot silently inject nothing.
fn parse_inject(
    e: &RawEntry,
    key: &str,
    fault: InjectFault,
    run: &RunSpec,
    markings: &[(String, MarkingScheme)],
) -> Result<InjectSpec, ScenarioError> {
    let bad = |msg: String| ScenarioError::BadValue {
        line: e.line,
        key: key.into(),
        msg,
    };
    let parts: Vec<&str> = e.value.split(':').collect();
    let [marking, flows, seed] = parts.as_slice() else {
        return Err(bad(format!(
            "expected `marking:flows:seed`, got `{}`",
            e.value
        )));
    };
    if !markings.iter().any(|(l, _)| l == marking) {
        return Err(bad(format!(
            "no [marking \"{marking}\"] section in this scenario"
        )));
    }
    let flows: u32 = flows
        .trim()
        .parse()
        .map_err(|_| bad(format!("bad flow count `{flows}`")))?;
    if !run.flows.contains(&flows) {
        return Err(bad(format!("flow count {flows} is not in the sweep")));
    }
    let seed: u64 = seed
        .trim()
        .parse()
        .map_err(|_| bad(format!("bad seed `{seed}`")))?;
    if !run.seeds.contains(&seed) {
        return Err(bad(format!("seed {seed} is not in the seed list")));
    }
    Ok(InjectSpec {
        fault,
        marking: marking.to_string(),
        flows,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = "\
[scenario]
name = t
kind = long_lived

[run]
flows = 2, 4

[marking \"dc\"]
scheme = dctcp
k = 40 pkts
";

    #[test]
    fn transport_delayed_ack_knobs_parse() {
        let src = format!("{MINIMAL}\n[transport]\ndelayed_ack = 8\ndelack_timeout = 2 ms\n");
        let s = ScenarioSpec::parse(&src).unwrap();
        assert_eq!(s.tcp.delayed_ack, 8);
        assert_eq!(s.tcp.delack_timeout, SimDuration::from_millis(2));
    }

    #[test]
    fn default_limits_without_a_section() {
        let s = ScenarioSpec::parse(MINIMAL).unwrap();
        assert_eq!(s.limits, LimitsSpec::default());
        // Derived deadline: 1000× the simulated span (default 20 ms
        // warmup + 50 ms duration → 70 s of wall clock).
        assert_eq!(s.cell_deadline(), SimDuration::from_secs(70));

        // Sub-30 ms simulated spans clamp to the 30 s floor.
        let tiny = MINIMAL.replace("flows = 2, 4", "flows = 2\nwarmup = 1 ms\nduration = 2 ms");
        let tiny = ScenarioSpec::parse(&tiny).unwrap();
        assert_eq!(tiny.cell_deadline(), SimDuration::from_secs(30));
    }

    #[test]
    fn limits_section_parses_deadline_and_injections() {
        let src = format!(
            "{MINIMAL}\n[limits]\ndeadline = 90 s\nretries = 3\n\
             inject_panic = dc:2:1\ninject_stall = dc:4:1\n"
        );
        let s = ScenarioSpec::parse(&src).unwrap();
        assert_eq!(s.limits.deadline, Some(SimDuration::from_secs(90)));
        assert_eq!(s.cell_deadline(), SimDuration::from_secs(90));
        assert_eq!(s.limits.injection_for("dc", 2, 1), Some(InjectFault::Panic));
        assert_eq!(s.limits.injection_for("dc", 4, 1), Some(InjectFault::Stall));
        assert_eq!(s.limits.injection_for("dc", 8, 1), None);
    }
}
