//! Regression envelopes: the paper's claims as machine-checked bands.
//!
//! Each `[expect "label"]` section in a scenario file is one claim
//! about the artifact the scenario produces. Three check shapes cover
//! the paper:
//!
//! * `metric_range` — a min/max band on one metric (e.g. bottleneck
//!   utilization stays near 1.0 for every scheme and flow count).
//! * `ordered` — one marking's metric stays strictly below another's
//!   from a flow count onward (e.g. DT-DCTCP queue stddev below
//!   DCTCP's at N ≥ 8, the paper's central claim).
//! * `monotone_increasing` — a metric grows along the flow sweep
//!   (e.g. single-K oscillation amplitude grows with N, Fig. 5–8).

use crate::artifact::Artifact;
use crate::parse::{parse_f64, parse_uint, parse_uint_list, Document, RawEntry};
use crate::ScenarioError;
use crate::ScenarioKind;

/// The check a single `[expect]` section performs.
#[derive(Debug, Clone, PartialEq)]
pub enum ExpectCheck {
    /// Every selected point's `metric` must lie in `[min, max]`.
    MetricRange {
        /// Metric name (see [`ScenarioKind::metrics`]).
        metric: String,
        /// Restrict to one marking label (default: all).
        marking: Option<String>,
        /// Restrict to these flow counts (default: all).
        flows: Option<Vec<u32>>,
        /// Inclusive lower bound, if any.
        min: Option<f64>,
        /// Inclusive upper bound, if any.
        max: Option<f64>,
    },
    /// `lesser`'s metric must stay strictly below `greater`'s at every
    /// flow count ≥ `from_flows` (seed-averaged).
    Ordered {
        /// Metric name.
        metric: String,
        /// Marking label expected to be lower.
        lesser: String,
        /// Marking label expected to be higher.
        greater: String,
        /// First flow count the ordering must hold at.
        from_flows: u32,
    },
    /// The metric along one marking's flow sweep must not shrink:
    /// every successive value ≥ previous × `min_ratio`.
    MonotoneIncreasing {
        /// Metric name.
        metric: String,
        /// Marking label to follow along the sweep.
        marking: String,
        /// Minimum successive ratio (1.0 = non-decreasing; below 1.0
        /// tolerates small dips).
        min_ratio: f64,
    },
    /// `lesser`'s metric divided by `greater`'s must stay within a
    /// band at each selected flow count (seed-averaged). This pins a
    /// *damping ratio* — e.g. DT-DCTCP's oscillation amplitude at no
    /// more than 70% of DCTCP's at N = 10⁶ — where `ordered` can only
    /// pin the sign of the difference.
    Ratio {
        /// Metric name.
        metric: String,
        /// Marking label in the numerator.
        lesser: String,
        /// Marking label in the denominator.
        greater: String,
        /// Restrict to these flow counts (default: all of `lesser`'s).
        flows: Option<Vec<u32>>,
        /// Maximum allowed `lesser / greater`.
        max_ratio: f64,
        /// Minimum allowed `lesser / greater`, if any.
        min_ratio: Option<f64>,
    },
}

/// One labeled expectation from a scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct Expectation {
    /// The `[expect "label"]` label.
    pub label: String,
    /// What to check.
    pub check: ExpectCheck,
}

/// One failed expectation, with enough context to read in CI output.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The violated expectation's label.
    pub expect: String,
    /// What went wrong, with the observed values.
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "expect \"{}\": {}", self.expect, self.msg)
    }
}

/// Parses every `[expect "label"]` section, validating metric names
/// against the kind and marking labels against the scenario's marking
/// sections.
///
/// # Errors
///
/// Returns a [`ScenarioError`] naming the offending line.
pub fn parse_expectations(
    doc: &Document,
    kind: ScenarioKind,
    markings: &[(String, dctcp_core::MarkingScheme)],
) -> Result<Vec<Expectation>, ScenarioError> {
    let mut out: Vec<Expectation> = Vec::new();
    for s in doc.sections_named("expect") {
        let label = s.label.clone().ok_or_else(|| ScenarioError::Syntax {
            line: s.line,
            msg: "expect sections need a label: [expect \"low-variance\"]".into(),
        })?;
        let metric_entry = s.require("metric")?;
        let metric = metric_entry.value.clone();
        if !kind.metrics().contains(&metric.as_str()) {
            return Err(ScenarioError::BadValue {
                line: metric_entry.line,
                key: "metric".into(),
                msg: format!(
                    "unknown metric `{metric}` for kind {} (one of: {})",
                    kind.name(),
                    kind.metrics().join(", ")
                ),
            });
        }
        let known_marking = |e: &RawEntry| -> Result<String, ScenarioError> {
            if markings.iter().any(|(l, _)| *l == e.value) {
                Ok(e.value.clone())
            } else {
                Err(ScenarioError::BadValue {
                    line: e.line,
                    key: "marking".into(),
                    msg: format!("no [marking \"{}\"] section in this scenario", e.value),
                })
            }
        };
        // `lesser` and `greater`: two different markings.
        let distinct_pair = || -> Result<(String, String), ScenarioError> {
            let (lesser_e, greater_e) = (s.require("lesser")?, s.require("greater")?);
            let (lesser, greater) = (known_marking(lesser_e)?, known_marking(greater_e)?);
            if lesser == greater {
                return Err(ScenarioError::BadValue {
                    line: greater_e.line,
                    key: "greater".into(),
                    msg: "lesser and greater must differ".into(),
                });
            }
            Ok((lesser, greater))
        };

        let check_entry = s.require("check")?;
        let check = match check_entry.value.as_str() {
            "metric_range" => {
                s.reject_unknown_keys(&["check", "metric", "marking", "flows", "min", "max"])?;
                let marking = s.get("marking").map(known_marking).transpose()?;
                let flows = s.get("flows").map(parse_uint_list).transpose()?;
                let min = s.get("min").map(parse_f64).transpose()?;
                let max = s.get("max").map(parse_f64).transpose()?;
                if min.is_none() && max.is_none() {
                    return Err(ScenarioError::BadValue {
                        line: check_entry.line,
                        key: "check".into(),
                        msg: "metric_range needs `min`, `max` or both".into(),
                    });
                }
                if let (Some(lo), Some(hi)) = (min, max) {
                    if lo > hi {
                        return Err(ScenarioError::OutOfRange {
                            line: check_entry.line,
                            key: "min".into(),
                            msg: format!("min {lo} exceeds max {hi}"),
                        });
                    }
                }
                ExpectCheck::MetricRange {
                    metric,
                    marking,
                    flows,
                    min,
                    max,
                }
            }
            "ordered" => {
                s.reject_unknown_keys(&["check", "metric", "lesser", "greater", "from_flows"])?;
                let (lesser, greater) = distinct_pair()?;
                let from_flows = s
                    .get("from_flows")
                    .map(parse_uint)
                    .transpose()?
                    .unwrap_or(0);
                ExpectCheck::Ordered {
                    metric,
                    lesser,
                    greater,
                    from_flows,
                }
            }
            "monotone_increasing" => {
                s.reject_unknown_keys(&["check", "metric", "marking", "min_ratio"])?;
                let marking = known_marking(s.require("marking")?)?;
                let min_ratio = s
                    .get("min_ratio")
                    .map(parse_f64)
                    .transpose()?
                    .unwrap_or(1.0);
                if !(min_ratio.is_finite() && min_ratio > 0.0) {
                    return Err(ScenarioError::OutOfRange {
                        line: s.get("min_ratio").map_or(s.line, |e| e.line),
                        key: "min_ratio".into(),
                        msg: "min_ratio must be a positive number".into(),
                    });
                }
                ExpectCheck::MonotoneIncreasing {
                    metric,
                    marking,
                    min_ratio,
                }
            }
            "ratio" => {
                s.reject_unknown_keys(&[
                    "check",
                    "metric",
                    "lesser",
                    "greater",
                    "flows",
                    "max_ratio",
                    "min_ratio",
                ])?;
                let (lesser, greater) = distinct_pair()?;
                let flows = s.get("flows").map(parse_uint_list).transpose()?;
                let max_e = s.require("max_ratio")?;
                let max_ratio = parse_f64(max_e)?;
                if !(max_ratio.is_finite() && max_ratio > 0.0) {
                    return Err(ScenarioError::OutOfRange {
                        line: max_e.line,
                        key: "max_ratio".into(),
                        msg: "max_ratio must be a positive number".into(),
                    });
                }
                let min_ratio = s.get("min_ratio").map(parse_f64).transpose()?;
                if let Some(lo) = min_ratio {
                    if !(lo.is_finite() && lo >= 0.0 && lo < max_ratio) {
                        return Err(ScenarioError::OutOfRange {
                            line: s.get("min_ratio").map_or(s.line, |e| e.line),
                            key: "min_ratio".into(),
                            msg: format!("min_ratio must be in [0, {max_ratio})"),
                        });
                    }
                }
                ExpectCheck::Ratio {
                    metric,
                    lesser,
                    greater,
                    flows,
                    max_ratio,
                    min_ratio,
                }
            }
            other => {
                return Err(ScenarioError::BadValue {
                    line: check_entry.line,
                    key: "check".into(),
                    msg: format!(
                        "unknown check `{other}` \
                         (metric_range/ordered/monotone_increasing/ratio)"
                    ),
                })
            }
        };
        out.push(Expectation { label, check });
    }
    Ok(out)
}

/// Evaluates every expectation against an artifact.
///
/// Returns all violations (empty = the artifact is inside every
/// envelope). A metric or point that is absent from the artifact is
/// itself a violation — an envelope must never silently pass because
/// the data it constrains was not produced.
pub fn check_artifact(expectations: &[Expectation], artifact: &Artifact) -> Vec<Violation> {
    let mut out = Vec::new();
    for e in expectations {
        check_one(e, artifact, &mut out);
    }
    out
}

/// The result of checking a possibly-partial artifact: violations from
/// the expectations that could be evaluated, and the labels of those
/// that were skipped because a marking they constrain was quarantined.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CheckReport {
    /// Violated expectations, with context.
    pub violations: Vec<Violation>,
    /// Labels of expectations skipped over quarantined markings.
    pub skipped: Vec<String>,
}

/// [`check_artifact`] for artifacts that may carry a quarantine
/// manifest: expectations touching a quarantined marking are *skipped*
/// (reported by label, not silently dropped) instead of failing over
/// data the run could not produce; every other expectation is evaluated
/// normally. With an empty `failures` block this is exactly
/// [`check_artifact`].
pub fn check_artifact_partial(expectations: &[Expectation], artifact: &Artifact) -> CheckReport {
    let quarantined = artifact.quarantined_markings();
    let mut report = CheckReport::default();
    for e in expectations {
        if touches_quarantined(&e.check, &quarantined) {
            report.skipped.push(e.label.clone());
        } else {
            check_one(e, artifact, &mut report.violations);
        }
    }
    report
}

/// Whether a check constrains any quarantined marking. A check with no
/// marking selector constrains all of them.
fn touches_quarantined(check: &ExpectCheck, quarantined: &[&str]) -> bool {
    if quarantined.is_empty() {
        return false;
    }
    let hit = |m: &str| quarantined.contains(&m);
    match check {
        ExpectCheck::MetricRange { marking, .. } => marking.as_deref().is_none_or(hit),
        ExpectCheck::Ordered {
            lesser, greater, ..
        } => hit(lesser) || hit(greater),
        ExpectCheck::MonotoneIncreasing { marking, .. } => hit(marking),
        ExpectCheck::Ratio {
            lesser, greater, ..
        } => hit(lesser) || hit(greater),
    }
}

fn check_one(e: &Expectation, artifact: &Artifact, out: &mut Vec<Violation>) {
    let violation = |msg: String| Violation {
        expect: e.label.clone(),
        msg,
    };
    match &e.check {
        ExpectCheck::MetricRange {
            metric,
            marking,
            flows,
            min,
            max,
        } => {
            let mut matched = false;
            for p in &artifact.points {
                if marking.as_ref().is_some_and(|m| *m != p.marking) {
                    continue;
                }
                if flows.as_ref().is_some_and(|f| !f.contains(&p.flows)) {
                    continue;
                }
                matched = true;
                let Some(v) = p.metric(metric) else {
                    out.push(violation(format!(
                        "point ({}, N={}, seed {}) lacks metric `{metric}`",
                        p.marking, p.flows, p.seed
                    )));
                    continue;
                };
                if min.is_some_and(|lo| v < lo) || max.is_some_and(|hi| v > hi) {
                    out.push(violation(format!(
                        "{metric} = {v:.6} at ({}, N={}, seed {}) outside [{}, {}]",
                        p.marking,
                        p.flows,
                        p.seed,
                        min.map_or("-inf".into(), |v| format!("{v}")),
                        max.map_or("+inf".into(), |v| format!("{v}")),
                    )));
                }
            }
            if !matched {
                out.push(violation("no artifact point matched the selector".into()));
            }
        }
        ExpectCheck::Ordered {
            metric,
            lesser,
            greater,
            from_flows,
        } => {
            let counts: Vec<u32> = artifact
                .flow_counts(lesser)
                .into_iter()
                .filter(|n| n >= from_flows)
                .collect();
            if counts.is_empty() {
                out.push(violation(format!(
                    "no `{lesser}` points at N >= {from_flows}"
                )));
                return;
            }
            for n in counts {
                let (Some(lo), Some(hi)) = (
                    artifact.metric(lesser, n, metric),
                    artifact.metric(greater, n, metric),
                ) else {
                    out.push(violation(format!(
                        "missing {metric} for `{lesser}` or `{greater}` at N={n}"
                    )));
                    continue;
                };
                if lo >= hi {
                    out.push(violation(format!(
                        "{metric}: {lesser} = {lo:.6} not below {greater} = {hi:.6} at N={n}"
                    )));
                }
            }
        }
        ExpectCheck::MonotoneIncreasing {
            metric,
            marking,
            min_ratio,
        } => {
            let counts = artifact.flow_counts(marking);
            if counts.len() < 2 {
                out.push(violation(format!(
                    "need at least two flow counts for `{marking}`, found {}",
                    counts.len()
                )));
                return;
            }
            for pair in counts.windows(2) {
                let (Some(prev), Some(next)) = (
                    artifact.metric(marking, pair[0], metric),
                    artifact.metric(marking, pair[1], metric),
                ) else {
                    out.push(violation(format!(
                        "missing {metric} for `{marking}` at N={} or N={}",
                        pair[0], pair[1]
                    )));
                    continue;
                };
                if next < prev * min_ratio {
                    out.push(violation(format!(
                        "{metric} for {marking} fell from {prev:.6} (N={}) to {next:.6} \
                         (N={}), below ratio {min_ratio}",
                        pair[0], pair[1]
                    )));
                }
            }
        }
        ExpectCheck::Ratio {
            metric,
            lesser,
            greater,
            flows,
            max_ratio,
            min_ratio,
        } => {
            let counts: Vec<u32> = artifact
                .flow_counts(lesser)
                .into_iter()
                .filter(|n| flows.as_ref().is_none_or(|f| f.contains(n)))
                .collect();
            if counts.is_empty() {
                out.push(violation(format!(
                    "no `{lesser}` points matched the flow selector"
                )));
                return;
            }
            for n in counts {
                let (Some(lo), Some(hi)) = (
                    artifact.metric(lesser, n, metric),
                    artifact.metric(greater, n, metric),
                ) else {
                    out.push(violation(format!(
                        "missing {metric} for `{lesser}` or `{greater}` at N={n}"
                    )));
                    continue;
                };
                if hi == 0.0 {
                    out.push(violation(format!(
                        "{metric}: {greater} is 0 at N={n}, ratio undefined"
                    )));
                    continue;
                }
                let ratio = lo / hi;
                if ratio > *max_ratio || min_ratio.is_some_and(|m| ratio < m) {
                    out.push(violation(format!(
                        "{metric}: {lesser}/{greater} = {lo:.6}/{hi:.6} = {ratio:.4} at N={n} \
                         outside [{}, {max_ratio}]",
                        min_ratio.map_or("0".into(), |v| format!("{v}")),
                    )));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::Point;

    fn point(marking: &str, flows: u32, queue_std: f64) -> Point {
        Point {
            marking: marking.into(),
            flows,
            seed: 1,
            metrics: vec![("queue_std".into(), queue_std)],
        }
    }

    fn artifact(points: Vec<Point>) -> Artifact {
        Artifact {
            scenario: "t".into(),
            kind: ScenarioKind::LongLived,
            points,
            failures: Vec::new(),
        }
    }

    #[test]
    fn metric_range_flags_out_of_band_points() {
        let e = Expectation {
            label: "band".into(),
            check: ExpectCheck::MetricRange {
                metric: "queue_std".into(),
                marking: None,
                flows: None,
                min: Some(1.0),
                max: Some(5.0),
            },
        };
        let a = artifact(vec![point("dctcp", 2, 3.0), point("dctcp", 8, 7.5)]);
        let v = check_artifact(&[e], &a);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("7.5"), "{}", v[0].msg);
    }

    #[test]
    fn metric_range_fails_when_selector_matches_nothing() {
        let e = Expectation {
            label: "band".into(),
            check: ExpectCheck::MetricRange {
                metric: "queue_std".into(),
                marking: Some("pie".into()),
                flows: None,
                min: Some(0.0),
                max: None,
            },
        };
        let v = check_artifact(&[e], &artifact(vec![point("dctcp", 2, 3.0)]));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn ordered_holds_only_from_given_flows() {
        let e = Expectation {
            label: "dt-below".into(),
            check: ExpectCheck::Ordered {
                metric: "queue_std".into(),
                lesser: "dt".into(),
                greater: "dc".into(),
                from_flows: 8,
            },
        };
        // At N=2 the ordering is inverted, but from_flows = 8 skips it.
        let ok = artifact(vec![
            point("dt", 2, 9.0),
            point("dc", 2, 1.0),
            point("dt", 8, 1.0),
            point("dc", 8, 2.0),
        ]);
        assert!(check_artifact(std::slice::from_ref(&e), &ok).is_empty());
        let bad = artifact(vec![point("dt", 8, 2.0), point("dc", 8, 2.0)]);
        assert_eq!(check_artifact(&[e], &bad).len(), 1);
    }

    #[test]
    fn monotone_increasing_tolerates_dips_within_ratio() {
        let e = Expectation {
            label: "grows".into(),
            check: ExpectCheck::MonotoneIncreasing {
                metric: "queue_std".into(),
                marking: "dc".into(),
                min_ratio: 0.9,
            },
        };
        let ok = artifact(vec![
            point("dc", 2, 10.0),
            point("dc", 4, 9.5),
            point("dc", 8, 20.0),
        ]);
        assert!(check_artifact(std::slice::from_ref(&e), &ok).is_empty());
        let bad = artifact(vec![point("dc", 2, 10.0), point("dc", 4, 5.0)]);
        assert_eq!(check_artifact(&[e], &bad).len(), 1);
    }

    #[test]
    fn ratio_pins_the_damping_band() {
        let e = Expectation {
            label: "damping".into(),
            check: ExpectCheck::Ratio {
                metric: "queue_std".into(),
                lesser: "dt".into(),
                greater: "dc".into(),
                flows: Some(vec![8]),
                max_ratio: 0.8,
                min_ratio: Some(0.2),
            },
        };
        // N=2 is outside the selector, so its inverted ratio is ignored.
        let ok = artifact(vec![
            point("dt", 2, 9.0),
            point("dc", 2, 1.0),
            point("dt", 8, 5.0),
            point("dc", 8, 10.0),
        ]);
        assert!(check_artifact(std::slice::from_ref(&e), &ok).is_empty());
        // Ratio above the band.
        let high = artifact(vec![point("dt", 8, 9.0), point("dc", 8, 10.0)]);
        let v = check_artifact(std::slice::from_ref(&e), &high);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("0.9000"), "{}", v[0].msg);
        // Ratio below the band (suspiciously strong damping is also a
        // drift worth flagging).
        let low = artifact(vec![point("dt", 8, 1.0), point("dc", 8, 10.0)]);
        assert_eq!(check_artifact(std::slice::from_ref(&e), &low).len(), 1);
        // Zero denominator is a violation, never a pass.
        let zero = artifact(vec![point("dt", 8, 1.0), point("dc", 8, 0.0)]);
        assert_eq!(check_artifact(&[e], &zero).len(), 1);
    }

    #[test]
    fn ratio_with_no_matching_points_is_a_violation() {
        let e = Expectation {
            label: "damping".into(),
            check: ExpectCheck::Ratio {
                metric: "queue_std".into(),
                lesser: "dt".into(),
                greater: "dc".into(),
                flows: None,
                max_ratio: 1.0,
                min_ratio: None,
            },
        };
        assert_eq!(
            check_artifact(&[e], &artifact(vec![point("dc", 2, 3.0)])).len(),
            1
        );
    }

    fn quarantine(a: &mut Artifact, marking: &str) {
        a.failures.push(crate::artifact::FailureCell {
            marking: marking.into(),
            flows: 8,
            seed: 1,
            kind: "panicked".into(),
            msg: "boom".into(),
        });
    }

    #[test]
    fn quarantined_markings_skip_their_expectations() {
        let range_on = |marking: Option<&str>| Expectation {
            label: format!("band-{}", marking.unwrap_or("all")),
            check: ExpectCheck::MetricRange {
                metric: "queue_std".into(),
                marking: marking.map(String::from),
                flows: None,
                min: Some(0.0),
                max: Some(100.0),
            },
        };
        let ordered = Expectation {
            label: "dt-below".into(),
            check: ExpectCheck::Ordered {
                metric: "queue_std".into(),
                lesser: "dt".into(),
                greater: "dc".into(),
                from_flows: 0,
            },
        };
        let expectations = vec![
            range_on(Some("dc")),
            range_on(Some("dt")),
            range_on(None),
            ordered,
        ];

        // Complete artifact: partial checking degenerates to the full
        // checker — nothing skipped, same violations.
        let complete = artifact(vec![point("dc", 2, 3.0), point("dt", 2, 1.0)]);
        let r = check_artifact_partial(&expectations, &complete);
        assert!(r.skipped.is_empty());
        assert_eq!(r.violations, check_artifact(&expectations, &complete));

        // Quarantine `dt`: its band, the unselective band, and the
        // cross-marking ordering are skipped; `dc`'s band still runs.
        let mut partial = artifact(vec![point("dc", 2, 3.0), point("dc", 8, 4.0)]);
        quarantine(&mut partial, "dt");
        let r = check_artifact_partial(&expectations, &partial);
        assert_eq!(r.skipped, vec!["band-dt", "band-all", "dt-below"]);
        assert!(r.violations.is_empty());

        // A violation on the surviving marking is still caught.
        let mut bad = artifact(vec![point("dc", 2, 999.0)]);
        quarantine(&mut bad, "dt");
        let r = check_artifact_partial(&expectations, &bad);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].expect, "band-dc");
    }
}
