//! Cross-validation envelopes: fluid-model artifacts pinned against
//! packet-engine anchors.
//!
//! A fluid scenario may carry `[xval "label"]` sections, each tying one
//! of its metrics to the same metric in a *packet* scenario's artifact
//! at overlapping flow counts:
//!
//! ```text
//! [xval "amplitude-vs-fig05"]
//! packet = fig05_oscillation   # anchor artifact (<name>.json)
//! marking = dctcp              # fluid marking label
//! packet_marking = dctcp       # anchor marking label (default: marking)
//! metric = osc_amplitude       # fluid metric
//! packet_metric = osc_amplitude # anchor metric (default: metric)
//! flows = 2, 8, 16, 32         # overlap (must be in this sweep)
//! max_rel_err = 0.5            # |fluid − packet| / |packet| bound
//! ```
//!
//! `repro_check` loads the anchor from the same artifacts directory as
//! the scenario's own artifact and reports each band beside the
//! envelopes, in the same [`CheckReport`]. This is what licenses
//! extrapolation: a fluid model that tracks the packet engine where
//! both can run is trusted where only it can (the `N = 10⁴ … 10⁶`
//! scale-out sweeps).

use crate::artifact::Artifact;
use crate::envelope::{CheckReport, Violation};
use crate::parse::{parse_f64, parse_uint_list, Document};
use crate::spec::RunSpec;
use crate::ScenarioError;
use crate::ScenarioKind;

/// One `[xval "label"]` section: a relative-error band between a fluid
/// metric and a packet anchor's metric at shared flow counts.
#[derive(Debug, Clone, PartialEq)]
pub struct XvalSpec {
    /// The section label.
    pub label: String,
    /// Anchor scenario name (the artifact file stem).
    pub packet_scenario: String,
    /// Metric in the fluid artifact.
    pub metric: String,
    /// Metric in the anchor artifact (defaults to `metric`).
    pub packet_metric: String,
    /// Marking label in the fluid artifact.
    pub marking: String,
    /// Marking label in the anchor artifact (defaults to `marking`).
    pub packet_marking: String,
    /// Flow counts compared (each must be in the fluid sweep).
    pub flows: Vec<u32>,
    /// Maximum allowed `|fluid − packet| / |packet|`.
    pub max_rel_err: f64,
}

/// Parses every `[xval "label"]` section, validating the fluid metric
/// name, the marking label, the flow overlap and the error band. Any
/// `[xval]` section outside a fluid scenario is an error.
///
/// # Errors
///
/// Returns a [`ScenarioError`] naming the offending line.
pub fn parse_xvals(
    doc: &Document,
    kind: ScenarioKind,
    run: &RunSpec,
    markings: &[(String, dctcp_core::MarkingScheme)],
) -> Result<Vec<XvalSpec>, ScenarioError> {
    let mut out: Vec<XvalSpec> = Vec::new();
    for s in doc.sections_named("xval") {
        if kind != ScenarioKind::Fluid {
            return Err(ScenarioError::Syntax {
                line: s.line,
                msg: format!(
                    "[xval] sections are only valid for fluid scenarios, not {}",
                    kind.name()
                ),
            });
        }
        let label = s.label.clone().ok_or_else(|| ScenarioError::Syntax {
            line: s.line,
            msg: "xval sections need a label: [xval \"amplitude-vs-fig05\"]".into(),
        })?;
        s.reject_unknown_keys(&[
            "packet",
            "metric",
            "packet_metric",
            "marking",
            "packet_marking",
            "flows",
            "max_rel_err",
        ])?;

        let packet_entry = s.require("packet")?;
        let packet_scenario = packet_entry.value.clone();
        if packet_scenario.is_empty()
            || packet_scenario.contains(|c: char| c.is_whitespace() || c == '/')
        {
            return Err(ScenarioError::BadValue {
                line: packet_entry.line,
                key: "packet".into(),
                msg: "packet must be a scenario name without spaces or `/`".into(),
            });
        }

        let metric_entry = s.require("metric")?;
        let metric = metric_entry.value.clone();
        if !ScenarioKind::Fluid.metrics().contains(&metric.as_str()) {
            return Err(ScenarioError::BadValue {
                line: metric_entry.line,
                key: "metric".into(),
                msg: format!(
                    "unknown fluid metric `{metric}` (one of: {})",
                    ScenarioKind::Fluid.metrics().join(", ")
                ),
            });
        }
        // The anchor's metric name belongs to another scenario's kind;
        // `check_xval` finds it, or not, in the loaded artifact.
        let packet_metric = s
            .get("packet_metric")
            .map_or_else(|| metric.clone(), |e| e.value.clone());

        let marking_entry = s.require("marking")?;
        let marking = marking_entry.value.clone();
        if !markings.iter().any(|(l, _)| *l == marking) {
            return Err(ScenarioError::BadValue {
                line: marking_entry.line,
                key: "marking".into(),
                msg: format!("no [marking \"{marking}\"] section in this scenario"),
            });
        }
        let packet_marking = s
            .get("packet_marking")
            .map_or_else(|| marking.clone(), |e| e.value.clone());

        let flows_entry = s.require("flows")?;
        let flows: Vec<u32> = parse_uint_list(flows_entry)?;
        for &n in &flows {
            if !run.flows.contains(&n) {
                return Err(ScenarioError::BadValue {
                    line: flows_entry.line,
                    key: "flows".into(),
                    msg: format!("flow count {n} is not in this scenario's sweep"),
                });
            }
        }

        let err_entry = s.require("max_rel_err")?;
        let max_rel_err = parse_f64(err_entry)?;
        if !(max_rel_err.is_finite() && max_rel_err > 0.0) {
            return Err(ScenarioError::OutOfRange {
                line: err_entry.line,
                key: "max_rel_err".into(),
                msg: "max_rel_err must be a positive number".into(),
            });
        }

        out.push(XvalSpec {
            label,
            packet_scenario,
            metric,
            packet_metric,
            marking,
            packet_marking,
            flows,
            max_rel_err,
        });
    }
    Ok(out)
}

/// Evaluates one `[xval]` band: for each flow count, compares the
/// seed-averaged fluid metric against the seed-averaged anchor metric.
/// A band whose marking is quarantined on either side is *skipped*
/// (its label lands in `skipped`, never passed); each out-of-band flow
/// count is one [`Violation`] under the band's label. A missing point
/// or metric in either artifact is an error — a stale artifact must
/// never read as a pass.
///
/// # Errors
///
/// Returns a message naming the missing point or metric.
pub fn check_xval(
    x: &XvalSpec,
    fluid: &Artifact,
    packet: &Artifact,
) -> Result<CheckReport, String> {
    let mut report = CheckReport::default();
    let quarantined = |a: &Artifact, marking: &str| a.quarantined_markings().contains(&marking);
    if quarantined(fluid, &x.marking) || quarantined(packet, &x.packet_marking) {
        report.skipped.push(x.label.clone());
        return Ok(report);
    }
    for &n in &x.flows {
        let Some(f) = fluid.metric(&x.marking, n, &x.metric) else {
            return Err(format!(
                "fluid artifact `{}` lacks {} for ({}, N={n}) — stale artifact? re-run repro",
                fluid.scenario, x.metric, x.marking
            ));
        };
        let Some(p) = packet.metric(&x.packet_marking, n, &x.packet_metric) else {
            return Err(format!(
                "anchor artifact `{}` lacks {} for ({}, N={n}) — stale artifact? re-run repro",
                packet.scenario, x.packet_metric, x.packet_marking
            ));
        };
        let rel_err = if p == 0.0 {
            if f == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (f - p).abs() / p.abs()
        };
        if rel_err > x.max_rel_err {
            report.violations.push(Violation {
                expect: x.label.clone(),
                msg: format!(
                    "N={n}: fluid {f:.4} vs packet {p:.4} (rel err {rel_err:.3} > {:.3})",
                    x.max_rel_err
                ),
            });
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{FailureCell, Point};

    fn xval() -> XvalSpec {
        XvalSpec {
            label: "amp".into(),
            packet_scenario: "anchor".into(),
            metric: "osc_amplitude".into(),
            packet_metric: "osc_amplitude".into(),
            marking: "dctcp".into(),
            packet_marking: "dctcp".into(),
            flows: vec![2, 8],
            max_rel_err: 0.5,
        }
    }

    fn artifact(name: &str, kind: ScenarioKind, values: &[(u32, f64)]) -> Artifact {
        Artifact {
            scenario: name.into(),
            kind,
            points: values
                .iter()
                .map(|&(flows, v)| Point {
                    marking: "dctcp".into(),
                    flows,
                    seed: 1,
                    metrics: vec![("osc_amplitude".into(), v)],
                })
                .collect(),
            failures: Vec::new(),
        }
    }

    #[test]
    fn in_band_comparisons_pass_and_count() {
        let fluid = artifact("f", ScenarioKind::Fluid, &[(2, 11.0), (8, 20.0)]);
        let packet = artifact("anchor", ScenarioKind::LongLived, &[(2, 10.0), (8, 18.0)]);
        let r = check_xval(&xval(), &fluid, &packet).unwrap();
        assert_eq!(r, CheckReport::default());
    }

    #[test]
    fn out_of_band_comparisons_are_violations() {
        let fluid = artifact("f", ScenarioKind::Fluid, &[(2, 30.0), (8, 20.0)]);
        let packet = artifact("anchor", ScenarioKind::LongLived, &[(2, 10.0), (8, 18.0)]);
        let r = check_xval(&xval(), &fluid, &packet).unwrap();
        assert!(r.skipped.is_empty());
        assert_eq!(r.violations.len(), 1);
        let v = &r.violations[0];
        assert_eq!(v.expect, "amp");
        assert_eq!(
            v.msg,
            "N=2: fluid 30.0000 vs packet 10.0000 (rel err 2.000 > 0.500)"
        );
    }

    #[test]
    fn missing_points_are_stale_errors_not_passes() {
        let fluid = artifact("f", ScenarioKind::Fluid, &[(2, 11.0)]);
        let packet = artifact("anchor", ScenarioKind::LongLived, &[(2, 10.0), (8, 18.0)]);
        let err = check_xval(&xval(), &fluid, &packet).unwrap_err();
        assert!(err.contains("stale"), "{err}");
        let fluid = artifact("f", ScenarioKind::Fluid, &[(2, 11.0), (8, 20.0)]);
        let packet = artifact("anchor", ScenarioKind::LongLived, &[(2, 10.0)]);
        assert!(check_xval(&xval(), &fluid, &packet).is_err());
    }

    #[test]
    fn quarantined_anchor_markings_skip_not_pass() {
        let quarantine = |a: &mut Artifact| {
            a.points.retain(|p| p.flows != 8);
            a.failures.push(FailureCell {
                marking: "dctcp".into(),
                flows: 8,
                seed: 1,
                kind: "panicked".into(),
                msg: "boom".into(),
            });
        };
        let fluid = artifact("f", ScenarioKind::Fluid, &[(2, 11.0), (8, 20.0)]);
        let packet = artifact("anchor", ScenarioKind::LongLived, &[(2, 10.0), (8, 18.0)]);
        let (mut q_fluid, mut q_packet) = (fluid.clone(), packet.clone());
        quarantine(&mut q_fluid);
        quarantine(&mut q_packet);
        for (fluid, packet) in [(&fluid, &q_packet), (&q_fluid, &packet)] {
            let r = check_xval(&xval(), fluid, packet).unwrap();
            assert_eq!(r.skipped, ["amp"]);
            assert!(r.violations.is_empty());
        }
    }

    #[test]
    fn zero_packet_value_only_matches_zero_fluid_value() {
        let mut x = xval();
        x.flows = vec![2];
        let packet = artifact("anchor", ScenarioKind::LongLived, &[(2, 0.0)]);
        let exact = artifact("f", ScenarioKind::Fluid, &[(2, 0.0)]);
        assert!(check_xval(&x, &exact, &packet)
            .unwrap()
            .violations
            .is_empty());
        let off = artifact("f", ScenarioKind::Fluid, &[(2, 0.5)]);
        let r = check_xval(&x, &off, &packet).unwrap();
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].msg.contains("rel err inf"));
    }
}
