//! The `dctcp-repro/v1` artifact: one JSON file per scenario run.
//!
//! Same idiom as the `dctcp-benchmark/v1` benchmark file: a hand-rolled
//! writer that emits exactly one matrix point per line, and a scanner
//! parser that reads back only what it wrote. Keeping both sides in
//! this module (with a round-trip test) is what lets the workspace do
//! machine-checked reproduction artifacts without a JSON dependency.

use std::fmt::Write as _;

use crate::{ScenarioError, ScenarioKind};

/// Schema tag written into (and required from) every artifact file.
/// Also part of every cache key, so bumping it orphans all cached
/// results along with all committed artifacts.
pub const ARTIFACT_SCHEMA: &str = "dctcp-repro/v1";

/// One (marking, flows, seed) cell of the scenario matrix with its
/// measured metrics, in the kind's canonical metric order.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Marking-scheme label from the scenario file.
    pub marking: String,
    /// Number of flows (senders / responders) at this point.
    pub flows: u32,
    /// Workload seed (always 1 for deterministic long-lived runs).
    pub seed: u64,
    /// `(metric name, value)` pairs; names come from
    /// [`ScenarioKind::metrics`].
    pub metrics: Vec<(String, f64)>,
}

impl Point {
    /// Looks up one metric value.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// One quarantined (marking, flows, seed) cell: the matrix point that
/// should be here, and why it is not.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureCell {
    /// Marking-scheme label from the scenario file.
    pub marking: String,
    /// Number of flows at the failed point.
    pub flows: u32,
    /// Workload seed at the failed point.
    pub seed: u64,
    /// Failure kind token (`panicked` / `failed`).
    pub kind: String,
    /// Human-readable failure message (deterministic: a function of the
    /// scenario configuration and failure site, never of wall time).
    pub msg: String,
}

/// A full scenario result: every matrix point of one scenario, plus the
/// quarantine manifest for any points that could not be produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Scenario name (matches the `.scn` file's `[scenario] name`).
    pub scenario: String,
    /// Workload family the points came from.
    pub kind: ScenarioKind,
    /// Matrix points in run order (marking-major, then flows, then
    /// seed).
    pub points: Vec<Point>,
    /// Quarantined cells in run order. Empty for a complete run — and
    /// rendered only when non-empty, so complete artifacts are
    /// byte-identical to the pre-supervision schema.
    pub failures: Vec<FailureCell>,
}

impl Artifact {
    /// Renders the artifact as `dctcp-repro/v1` JSON, one point per
    /// line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{ARTIFACT_SCHEMA}\",");
        let _ = writeln!(out, "  \"scenario\": \"{}\",", self.scenario);
        let _ = writeln!(out, "  \"kind\": \"{}\",", self.kind.name());
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"marking\": \"{}\", \"flows\": {}, \"seed\": {}",
                p.marking, p.flows, p.seed
            );
            for (name, value) in &p.metrics {
                let v = if value.is_finite() { *value } else { 0.0 };
                let _ = write!(out, ", \"{name}\": {v:.6}");
            }
            out.push('}');
            if i + 1 < self.points.len() {
                out.push(',');
            }
            out.push('\n');
        }
        if self.failures.is_empty() {
            out.push_str("  ]\n}\n");
            return out;
        }
        out.push_str("  ],\n  \"failures\": [\n");
        for (i, c) in self.failures.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"error\": \"{}\", \"marking\": \"{}\", \"flows\": {}, \"seed\": {}, \
                 \"msg\": \"{}\"}}",
                json_safe(&c.kind),
                c.marking,
                c.flows,
                c.seed,
                json_safe(&c.msg)
            );
            if i + 1 < self.failures.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses `dctcp-repro/v1` JSON produced by [`Artifact::render`].
    ///
    /// `path` is used only for diagnostics.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::BadArtifact`] for wrong schemas,
    /// missing fields or malformed point lines.
    pub fn parse(src: &str, path: &str) -> Result<Artifact, ScenarioError> {
        let bad = |msg: String| ScenarioError::BadArtifact {
            path: path.to_string(),
            msg,
        };
        let schema = string_field(src, "schema").ok_or_else(|| bad("missing schema".into()))?;
        if schema != ARTIFACT_SCHEMA {
            return Err(bad(format!(
                "schema is `{schema}`, expected `{ARTIFACT_SCHEMA}`"
            )));
        }
        let scenario =
            string_field(src, "scenario").ok_or_else(|| bad("missing scenario name".into()))?;
        let kind_name = string_field(src, "kind").ok_or_else(|| bad("missing kind".into()))?;
        let kind = ScenarioKind::from_name(&kind_name)
            .ok_or_else(|| bad(format!("unknown kind `{kind_name}`")))?;

        let mut points = Vec::new();
        let mut failures = Vec::new();
        for line in src.lines() {
            let line = line.trim();
            if line.starts_with("{\"marking\"") {
                points.push(parse_point(line, kind, path)?);
            } else if line.starts_with("{\"error\"") {
                failures.push(parse_failure(line, path)?);
            }
        }
        if points.is_empty() && failures.is_empty() {
            return Err(bad("artifact has no points".into()));
        }
        Ok(Artifact {
            scenario,
            kind,
            points,
            failures,
        })
    }

    /// Loads and parses an artifact file.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Io`] or [`ScenarioError::BadArtifact`].
    pub fn load(path: &std::path::Path) -> Result<Artifact, ScenarioError> {
        let src = std::fs::read_to_string(path).map_err(|e| ScenarioError::Io {
            path: path.display().to_string(),
            msg: e.to_string(),
        })?;
        Artifact::parse(&src, &path.display().to_string())
    }

    /// Whether every one of `expected` matrix cells is accounted for —
    /// as a measured point or a quarantined failure. Anything else is a
    /// stale artifact.
    pub fn accounts_for(&self, expected: usize) -> bool {
        self.points.len() + self.failures.len() == expected
    }

    /// Whether the point `(marking, flows)` has a quarantined cell at
    /// any seed — its seed average then lacks data the run could not
    /// produce.
    pub fn is_quarantined(&self, marking: &str, flows: u32) -> bool {
        self.failures
            .iter()
            .any(|f| f.marking == marking && f.flows == flows)
    }

    /// Sorted distinct flow counts recorded for a marking.
    pub fn flow_counts(&self, marking: &str) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        for p in &self.points {
            if p.marking == marking && !out.contains(&p.flows) {
                out.push(p.flows);
            }
        }
        out.sort_unstable();
        out
    }

    /// One metric at `(marking, flows)`, averaged across seeds.
    pub fn metric(&self, marking: &str, flows: u32, name: &str) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0u32;
        for p in &self.points {
            if p.marking == marking && p.flows == flows {
                sum += p.metric(name)?;
                n += 1;
            }
        }
        if n == 0 {
            None
        } else {
            Some(sum / f64::from(n))
        }
    }
}

fn parse_point(line: &str, kind: ScenarioKind, path: &str) -> Result<Point, ScenarioError> {
    let bad = |msg: String| ScenarioError::BadArtifact {
        path: path.to_string(),
        msg: format!("{msg} in point `{line}`"),
    };
    let marking = string_field(line, "marking").ok_or_else(|| bad("missing marking".into()))?;
    let flows = num_field(line, "flows").ok_or_else(|| bad("missing flows".into()))? as u32;
    let seed = num_field(line, "seed").ok_or_else(|| bad("missing seed".into()))? as u64;
    let mut metrics = Vec::new();
    for &name in kind.metrics() {
        let v = num_field(line, name).ok_or_else(|| bad(format!("missing metric `{name}`")))?;
        metrics.push((name.to_string(), v));
    }
    Ok(Point {
        marking,
        flows,
        seed,
        metrics,
    })
}

fn parse_failure(line: &str, path: &str) -> Result<FailureCell, ScenarioError> {
    let bad = |msg: String| ScenarioError::BadArtifact {
        path: path.to_string(),
        msg: format!("{msg} in failure `{line}`"),
    };
    Ok(FailureCell {
        kind: string_field(line, "error").ok_or_else(|| bad("missing error kind".into()))?,
        marking: string_field(line, "marking").ok_or_else(|| bad("missing marking".into()))?,
        flows: num_field(line, "flows").ok_or_else(|| bad("missing flows".into()))? as u32,
        seed: num_field(line, "seed").ok_or_else(|| bad("missing seed".into()))? as u64,
        msg: string_field(line, "msg").ok_or_else(|| bad("missing msg".into()))?,
    })
}

/// Flattens a message into the subset of JSON-string-safe characters
/// the scanner parser can read back without an escape grammar: quotes
/// and backslashes are substituted, control characters become spaces.
/// Lossy by design — failure messages are diagnostics, not data.
fn json_safe(msg: &str) -> String {
    msg.chars()
        .map(|c| match c {
            '"' => '\'',
            '\\' => '/',
            c if c.is_control() => ' ',
            c => c,
        })
        .collect()
}

/// Scans for `"key": "value"` anywhere in `src` and returns the value.
fn string_field(src: &str, key: &str) -> Option<String> {
    let rest = field_rest(src, key)?;
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Scans for `"key": <number>` anywhere in `src`.
fn num_field(src: &str, key: &str) -> Option<f64> {
    let rest = field_rest(src, key)?;
    let end = rest
        .char_indices()
        .find(|&(_, c)| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .map_or(rest.len(), |(i, _)| i);
    rest[..end].parse().ok()
}

fn field_rest<'a>(src: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let pos = src.find(&needle)?;
    Some(src[pos + needle.len()..].trim_start())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Artifact {
        let metrics = |base: f64| {
            ScenarioKind::LongLived
                .metrics()
                .iter()
                .enumerate()
                .map(|(i, n)| (n.to_string(), base + i as f64))
                .collect()
        };
        Artifact {
            scenario: "fig10".into(),
            kind: ScenarioKind::LongLived,
            points: vec![
                Point {
                    marking: "dctcp".into(),
                    flows: 2,
                    seed: 1,
                    metrics: metrics(1.0),
                },
                Point {
                    marking: "dt-dctcp".into(),
                    flows: 2,
                    seed: 1,
                    metrics: metrics(10.5),
                },
            ],
            failures: Vec::new(),
        }
    }

    fn failure(marking: &str, kind: &str, msg: &str) -> FailureCell {
        FailureCell {
            marking: marking.into(),
            flows: 4,
            seed: 1,
            kind: kind.into(),
            msg: msg.into(),
        }
    }

    #[test]
    fn round_trips() {
        let a = sample();
        let parsed = Artifact::parse(&a.render(), "t.json").unwrap();
        assert_eq!(parsed, a);
    }

    #[test]
    fn rejects_wrong_schema() {
        let src = sample()
            .render()
            .replace("dctcp-repro/v1", "dctcp-repro/v9");
        assert!(matches!(
            Artifact::parse(&src, "t.json").unwrap_err(),
            ScenarioError::BadArtifact { .. }
        ));
    }

    #[test]
    fn rejects_missing_metric() {
        let src = sample().render().replace("\"queue_std\"", "\"queue_sdt\"");
        let err = Artifact::parse(&src, "t.json").unwrap_err();
        assert!(err.to_string().contains("queue_std"), "{err}");
    }

    #[test]
    fn metric_lookup_averages_over_seeds() {
        let mut a = sample();
        a.points[1] = Point {
            marking: "dctcp".into(),
            flows: 2,
            seed: 2,
            metrics: vec![("queue_mean".into(), 3.0)],
        };
        a.points[0].metrics = vec![("queue_mean".into(), 1.0)];
        assert_eq!(a.metric("dctcp", 2, "queue_mean"), Some(2.0));
        assert_eq!(a.metric("dctcp", 9, "queue_mean"), None);
        assert_eq!(a.flow_counts("dctcp"), vec![2]);
    }

    #[test]
    fn complete_artifacts_render_without_a_failures_block() {
        // Byte-compat: the supervision schema must not change the bytes
        // of a fully successful artifact.
        assert!(!sample().render().contains("failures"));
    }

    #[test]
    fn partial_artifacts_round_trip_their_quarantine_manifest() {
        let mut a = sample();
        a.failures = vec![
            failure(
                "dctcp",
                "panicked",
                "injected panic via [limits] inject_panic",
            ),
            failure(
                "dt-dctcp",
                "failed",
                "event budget of 1250000 exhausted at 0.000625s",
            ),
        ];
        let rendered = a.render();
        assert!(rendered.contains("\"failures\": ["));
        let parsed = Artifact::parse(&rendered, "t.json").unwrap();
        assert_eq!(parsed, a);
        assert!(parsed.accounts_for(4));
        assert!(!parsed.accounts_for(3));
        assert!(parsed.is_quarantined("dctcp", 4) && parsed.is_quarantined("dt-dctcp", 4));
        assert!(!parsed.is_quarantined("dctcp", 8) && !parsed.is_quarantined("pie", 4));
        // Fields are read by name, so a failure line carrying a field
        // this version no longer writes parses to the same manifest.
        let older = rendered.replace("\"msg\"", "\"dropped\": 2, \"msg\"");
        assert_eq!(Artifact::parse(&older, "t.json").unwrap(), a);
    }

    #[test]
    fn all_failed_artifacts_still_parse() {
        let a = Artifact {
            scenario: "doomed".into(),
            kind: ScenarioKind::LongLived,
            points: Vec::new(),
            failures: vec![failure("dctcp", "panicked", "boom")],
        };
        let parsed = Artifact::parse(&a.render(), "t.json").unwrap();
        assert_eq!(parsed, a);
    }

    #[test]
    fn hostile_failure_messages_cannot_break_the_grammar() {
        let mut a = sample();
        a.failures = vec![failure(
            "dctcp",
            "panicked",
            "quote \" backslash \\ newline \n done",
        )];
        let parsed = Artifact::parse(&a.render(), "t.json").unwrap();
        // Lossy but parseable: substituted characters, same structure.
        assert_eq!(parsed.failures.len(), 1);
        assert_eq!(parsed.failures[0].msg, "quote ' backslash / newline   done");
        assert_eq!(parsed.points.len(), 2);
    }
}
